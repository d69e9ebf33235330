//! The ISP-level journal stream is frozen: one seeded durable
//! [`ZmailSystem`] run that makes the ISPs and the bank emit every
//! record kind they can must leave byte-for-byte the per-shard WALs and
//! the `RunReport` digest it left at the commit before `Isp` and `Bank`
//! began mutating their books *through* those records (PR 14). The
//! constants below were computed by running this file at that parent
//! commit in a throwaway clone (the recipe
//! `crates/store/tests/format_golden.rs` documents), not by this code —
//! so a mutation site that journals a different record, a different
//! field, or in a different order fails here.

use std::collections::HashSet;
use std::mem::discriminant;
use zmail_core::{IspId, UserAddr, ZmailConfig, ZmailSystem};
use zmail_econ::EPennies;
use zmail_sim::workload::SendEvent;
use zmail_sim::{MailKind, SimDuration, SimTime};
use zmail_store::{wal, LedgerRecord, Storage, WAL};

const ISPS: u32 = 3;
const USERS: u32 = 6;

/// 150 sends, one every 15 minutes (37.5 hours: one day boundary, and
/// one billing snapshot 20 hours into the second run), senders and
/// recipients a fixed function of the position, every third pair sharing
/// an ISP.
fn trace() -> Vec<SendEvent> {
    (0..150u32)
        .map(|k| SendEvent {
            at: SimTime::ZERO + SimDuration::from_mins(15 * u64::from(k)),
            from: UserAddr::new(k % ISPS, (k / ISPS) % 2),
            to: UserAddr::new((k + k / 2) % ISPS, (k * 5 + 1) % USERS),
            kind: MailKind::Personal,
        })
        .collect()
}

fn run(shards: u32) -> ZmailSystem {
    // Balances of 12 against a top-up threshold of 10 make the two
    // senders per ISP buy at the counter within a few sends; a pool that
    // starts above `maxavail` sells to the bank on the first send and the
    // counter purchases then drain it below `minavail`, so it buys.
    let config = ZmailConfig::builder(ISPS, USERS)
        .initial_balance(EPennies(12))
        .avail_bounds(EPennies(200), EPennies(400), EPennies(450))
        .billing_period(SimDuration::from_hours(20))
        .attestations()
        .sharded(shards)
        .build();
    let mut system = ZmailSystem::new(config, 14);
    let distributor = UserAddr::new(0, 2);
    let subscribers = (0..ISPS)
        .flat_map(|isp| (3..USERS).map(move |u| UserAddr::new(isp, u)))
        .collect();
    let list = system.register_mailing_list(distributor, subscribers, 1.0);
    system.schedule_list_post(SimTime::ZERO + SimDuration::from_hours(2), list);
    let trace = trace();
    let (first, second) = trace.split_at(60);
    system.run_trace(first);
    // The three mutations no protocol message causes; the next event's
    // group commit journals them.
    system.isp_mut(IspId(1)).set_limit(4, 7);
    system.isp_mut(IspId(2)).grant_balance(5, EPennies(3));
    assert!(system.isp_mut(IspId(0)).user_sell(3, EPennies(2)));
    system.run_trace(second);
    system
}

/// Length and CRC-32 of every shard's WAL, in shard order.
fn wal_fingerprints(system: &ZmailSystem) -> Vec<(usize, u32)> {
    let store = system.sharded_store().expect("durable run");
    (0..store.shard_count())
        .map(|s| {
            let bytes = store.shard(s).storage().read(WAL);
            (bytes.len(), wal::crc32(&bytes))
        })
        .collect()
}

const DIGEST: u64 = 14_631_930_577_585_122_575;
const WAL_1_SHARD: [(usize, u32); 1] = [(14208, 1747932987)];
const WAL_4_SHARDS: [(usize, u32); 4] = [
    (4188, 2446162304),
    (6296, 936840915),
    (1071, 1567356540),
    (3094, 3945926143),
];

#[test]
fn one_shard_journal_is_byte_identical_and_covers_every_isp_and_bank_record() {
    let system = run(1);
    // With one shard the router forwards records unchanged, so the WAL
    // is the ISP/bank journal stream itself.
    let bytes = system.store().expect("durable run").storage().read(WAL);
    // Fourteen distinct kinds are all fourteen: `UserCounter*` and `Xfer*`
    // exist only between shards.
    let kinds: HashSet<_> = wal::scan(&bytes, 0)
        .payloads
        .iter()
        .map(|p| discriminant(&LedgerRecord::decode(p).expect("valid record")))
        .collect();
    assert_eq!(
        kinds.len(),
        14,
        "an ISP or bank record kind went unjournaled"
    );
    assert!(
        system.report().delivered(MailKind::Ack) > 0,
        "acks refunded"
    );
    assert_eq!(wal_fingerprints(&system), WAL_1_SHARD);
    assert_eq!(system.report().digest_checksum, DIGEST);
    assert_eq!(system.verify_durable_books(), Some(true));
}

#[test]
fn four_shard_journals_are_byte_identical() {
    let system = run(4);
    assert_eq!(wal_fingerprints(&system), WAL_4_SHARDS);
    assert_eq!(system.report().digest_checksum, DIGEST);
    assert_eq!(system.verify_durable_books(), Some(true));
}
