//! The population-scale cell is frozen: one small 4-shard
//! [`MassiveConfig`] — the benchmark's `ledger_sharded` cell and E17 in
//! miniature — must leave byte-for-byte the per-shard WALs and the
//! `MassiveReport` (merged-books CRC included) it left at the commit
//! before cross-shard transfers were rewritten for speed (PR 20: the
//! one-probe shard map, the hashed outbox overlay, the FIFO in-doubt
//! scan, the shard-wise audits). Balances of 3 make senders run dry, so
//! whether a send pays depends on deposits still pending in the outbox
//! being read through the overlay; batches of 16 put group commits in
//! the middle of a tick. The constants were computed by running this
//! file at that parent commit in a throwaway clone (the recipe
//! `crates/store/tests/format_golden.rs` documents), not by this code.
//! It lives here rather than beside that file because `MassiveConfig`
//! is `zmail-core`'s and `zmail-store` cannot depend on it.

use zmail::core::massive::MassiveEvent;
use zmail::core::{run_massive, DurabilityConfig, MassiveConfig, MassiveReport, MassiveWorld};
use zmail::sim::{SimDuration, SimTime, Simulation};
use zmail::store::{wal, Storage, StoreConfig, WAL};

const CELL: MassiveConfig = MassiveConfig {
    isps: 4,
    users_per_isp: 50,
    ticks: 4,
    sends_per_tick: 200,
    digest_rounds: 8,
    initial_balance: 3,
    daily_limit: 6,
    durability: DurabilityConfig {
        store: StoreConfig {
            batch_records: 16,
            checkpoint_every: u64::MAX,
        },
        shards: 4,
    },
    seed: 20,
};

/// The finished world of one run, hand-driven tick by tick with the
/// `step_tick(1)` loop the benchmark's `ledger_sharded` workload uses
/// and compares with `run_massive`.
fn run() -> MassiveWorld {
    let mut sim = Simulation::new(MassiveWorld::new(CELL));
    for tick in 0..CELL.ticks {
        let at = SimTime::ZERO + SimDuration::from_secs(u64::from(tick));
        for i in 0..CELL.sends_per_tick {
            sim.schedule(
                at,
                MassiveEvent::Send(MassiveWorld::send_at(&CELL, tick, i)),
            );
        }
        sim.schedule(at, MassiveEvent::TickCommit);
    }
    while sim.step_tick(1) {}
    sim.into_world()
}

// Recorded at the parent commit (f29f29a) by running this file there.
const WALS: [(usize, u32); 4] = [
    (16764, 3028933495),
    (15876, 686882676),
    (16056, 1988438836),
    (15308, 3541104425),
];
const REPORT: MassiveReport = MassiveReport {
    events: 804,
    paid: 722,
    bounced_balance: 58,
    bounced_limit: 20,
    cross_shard: 548,
    same_shard: 174,
    digest_checksum: 9_651_073_756_950_131_559,
    books_crc: 911_715_594,
};

#[test]
fn four_shard_cell_writes_the_parent_commits_bytes() {
    let world = run();
    let store = world.store();
    let wals: Vec<(usize, u32)> = (0..store.shard_count())
        .map(|s| {
            let bytes = store.shard(s).storage().read(WAL);
            (bytes.len(), wal::crc32(&bytes))
        })
        .collect();
    assert_eq!(wals, WALS);
    assert_eq!(world.audit(), Ok(()));
    assert!(world.verify_recovery());
    let sealed = run_massive(&CELL, 1);
    assert_eq!(sealed, REPORT);
    assert_eq!(
        MassiveReport {
            books_crc: wal::crc32(&store.books().encode()),
            ..*world.report()
        },
        sealed,
        "the hand-driven run is run_massive"
    );
    assert!(sealed.bounced_balance > 0 && sealed.bounced_limit > 0);
    assert!(sealed.cross_shard > sealed.same_shard);
}
