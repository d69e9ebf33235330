//! Recovery round-trip properties: for random journaled mutation
//! sequences, a crash at *every* prefix must recover to exactly the
//! state an in-memory replay of the surviving records produces — and
//! damage to the log or the checkpoints must be detected and cut, never
//! silently applied.

use proptest::prelude::*;
use zmail_store::checkpoint::{Checkpoint, SLOTS};
use zmail_store::engine::WAL;
use zmail_store::{
    wal, BankBooks, Books, IspBooks, LedgerRecord, LedgerStore, MemStorage, Storage, StoreConfig,
    UserBooks,
};

const ISPS: u32 = 2;
const USERS: u32 = 3;

fn bootstrap() -> Books {
    Books {
        isps: (0..ISPS)
            .map(|_| IspBooks {
                users: vec![
                    UserBooks {
                        account: 1_000,
                        balance: 100,
                        sent_today: 0,
                        limit: 100,
                    };
                    USERS as usize
                ],
                avail: 5_000,
                credit: vec![0; ISPS as usize],
                nonces: Vec::new(),
            })
            .collect(),
        banks: vec![BankBooks {
            accounts: vec![1_000_000; ISPS as usize],
            issued: 0,
        }],
    }
}

/// Maps an arbitrary op tuple onto a structurally valid record for the
/// fixed 2×3 deployment; every variant is reachable.
fn record_from(kind: u32, a: u32, b: u32, amt: i64) -> LedgerRecord {
    let isp = a % ISPS;
    let user = b % USERS;
    let peer = b % ISPS;
    let amount = amt.rem_euclid(500);
    match kind % 13 {
        0 => LedgerRecord::Charge { isp, user },
        1 => LedgerRecord::Deposit { isp, user },
        2 => LedgerRecord::CreditDelta {
            isp,
            peer,
            delta: amt.rem_euclid(7) - 3,
        },
        3 => LedgerRecord::UserBuy { isp, user, amount },
        4 => LedgerRecord::UserSell { isp, user, amount },
        5 => LedgerRecord::PoolBuy { isp, amount },
        6 => LedgerRecord::PoolSell { isp, amount },
        7 => LedgerRecord::BankBuy {
            bank: 0,
            isp,
            value: amount,
            cost: amount / 10,
        },
        8 => LedgerRecord::BankSell {
            bank: 0,
            isp,
            value: amount,
            credit: amount / 10,
        },
        9 => LedgerRecord::SnapshotMarker { isp },
        10 => LedgerRecord::DailyReset { isp },
        11 => LedgerRecord::LimitSet {
            isp,
            user,
            limit: (amt.rem_euclid(200)) as u32,
        },
        _ => LedgerRecord::Grant { isp, user, amount },
    }
}

fn records_from(ops: &[(u32, u32, u32, i64)]) -> Vec<LedgerRecord> {
    ops.iter()
        .map(|&(k, a, b, amt)| record_from(k, a, b, amt))
        .collect()
}

/// Reference fold: the books after the first `n` records, pure in-memory.
fn prefix_states(records: &[LedgerRecord]) -> Vec<Books> {
    let mut states = Vec::with_capacity(records.len() + 1);
    let mut books = bootstrap();
    states.push(books.clone());
    for rec in records {
        books.apply(rec);
        states.push(books.clone());
    }
    states
}

fn op_strategy() -> impl Strategy<Value = Vec<(u32, u32, u32, i64)>> {
    proptest::collection::vec((0u32..13, 0u32..8, 0u32..8, -1000i64..1000), 0..48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash after every single append (commit-per-record): recovery
    /// must equal the in-memory fold of exactly the committed prefix.
    #[test]
    fn recovery_matches_replay_at_every_prefix(ops in op_strategy()) {
        let records = records_from(&ops);
        let states = prefix_states(&records);
        let (mut store, _) =
            LedgerStore::open(MemStorage::new(), StoreConfig::default(), bootstrap());
        for (i, rec) in records.iter().enumerate() {
            store.append(rec); // batch_records = 1: committed immediately
            let (recovered, report) = store.simulate_recovery();
            prop_assert_eq!(&recovered, &states[i + 1], "prefix {}", i + 1);
            prop_assert_eq!(&recovered, store.books());
            prop_assert!(!report.torn_tail);
        }
    }

    /// With group commit, a crash exposes exactly the last *committed*
    /// batch boundary — never a half-applied batch.
    #[test]
    fn group_commit_crashes_land_on_batch_boundaries(
        ops in op_strategy(),
        batch in 1usize..9,
    ) {
        let records = records_from(&ops);
        let states = prefix_states(&records);
        let cfg = StoreConfig { batch_records: batch, checkpoint_every: 1 << 30 };
        let (mut store, _) = LedgerStore::open(MemStorage::new(), cfg, bootstrap());
        for (i, rec) in records.iter().enumerate() {
            store.append(rec);
            let committed = (i + 1) - store.pending_records();
            prop_assert_eq!(committed % batch, 0);
            let (recovered, report) = store.simulate_recovery();
            prop_assert_eq!(report.replayed_records, committed as u64);
            prop_assert_eq!(&recovered, &states[committed]);
        }
        store.commit();
        let (recovered, _) = store.simulate_recovery();
        prop_assert_eq!(&recovered, states.last().unwrap());
    }

    /// Random batch and checkpoint cadence never change what recovery
    /// reconstructs, only how it gets there.
    #[test]
    fn checkpoint_cadence_is_invisible_to_recovery(
        ops in op_strategy(),
        batch in 1usize..6,
        every in 1u64..16,
    ) {
        let records = records_from(&ops);
        let cfg = StoreConfig { batch_records: batch, checkpoint_every: every };
        let (mut store, _) = LedgerStore::open(MemStorage::new(), cfg, bootstrap());
        for rec in &records {
            store.append(rec);
        }
        store.commit();
        let states = prefix_states(&records);
        let (recovered, report) = store.simulate_recovery();
        prop_assert_eq!(&recovered, states.last().unwrap());
        // The replayed tail is bounded by what made no image due at the
        // last commit: fewer than `every` records, or less log than the
        // image is long. (A crash between a batch's sync and its image's
        // adds that one batch; nothing crashed here.)
        let frames = wal::scan(&store.storage().read(WAL), 0).offsets;
        let frame_end = |i: usize| frames.get(i).copied().unwrap_or(report.wal_bytes);
        let longest_frame = (0..frames.len())
            .map(|i| frame_end(i + 1) - frames[i])
            .max()
            .unwrap_or(0);
        let replayed_bytes =
            report.wal_bytes - frame_end(frames.len() - report.replayed_records as usize);
        let image = Checkpoint { seq: 0, wal_offset: 0, books: recovered };
        let image_len = image.encode().len() as u64;
        prop_assert!(
            replayed_bytes < (every * longest_frame).max(image_len),
            "replayed {} bytes ({} records): every {}, longest frame {}, image {}",
            replayed_bytes, report.replayed_records, every, longest_frame, image_len
        );
        // And a full reopen agrees with the pure simulation.
        let (reopened, _) = LedgerStore::open(store.into_storage(), cfg, bootstrap());
        prop_assert_eq!(reopened.books(), states.last().unwrap());
    }

    /// Tear the WAL at every byte length: recovery must land exactly on
    /// a frame boundary — the in-memory fold of the surviving records —
    /// and flag the tear.
    #[test]
    fn torn_tail_recovers_a_clean_frame_prefix(ops in op_strategy()) {
        prop_assume!(!ops.is_empty());
        let records = records_from(&ops);
        let states = prefix_states(&records);
        let cfg = StoreConfig { batch_records: 1, checkpoint_every: 1 << 30 };
        let (mut store, _) = LedgerStore::open(MemStorage::new(), cfg, bootstrap());
        for rec in &records {
            store.append(rec);
        }
        let full = store.storage().read(WAL);
        for cut in 0..full.len() as u64 {
            let mut torn = MemStorage::new();
            torn.append(WAL, &full[..cut as usize]);
            let (recovered, report) = LedgerStore::open(torn, cfg, bootstrap());
            let k = report.replayed_records as usize;
            prop_assert!(k <= records.len());
            prop_assert_eq!(recovered.books(), &states[k], "cut {}", cut);
            prop_assert_eq!(report.torn_tail, report.wal_bytes < cut);
            prop_assert_eq!(recovered.storage().len(WAL), report.wal_bytes);
        }
    }

    /// Flip any single byte anywhere in the backend (WAL or checkpoint
    /// slots): recovery must still produce some exact prefix state —
    /// corruption may shorten history, never rewrite it.
    #[test]
    fn corruption_is_detected_never_applied(
        ops in op_strategy(),
        every in 2u64..10,
        pos in 0usize..100_000,
        bit in 0u8..8,
    ) {
        prop_assume!(!ops.is_empty());
        let records = records_from(&ops);
        let states = prefix_states(&records);
        let cfg = StoreConfig { batch_records: 1, checkpoint_every: every };
        let (mut store, _) = LedgerStore::open(MemStorage::new(), cfg, bootstrap());
        for rec in &records {
            store.append(rec);
        }
        let mut backend = store.into_storage();
        let names = backend.names();
        let name = names[pos % names.len()].clone();
        let mut bytes = backend.read(&name);
        prop_assume!(!bytes.is_empty());
        let at = pos % bytes.len();
        bytes[at] ^= 1 << bit;
        backend.write(&name, &bytes);

        let (recovered, _) = LedgerStore::open(backend, cfg, bootstrap());
        prop_assert!(
            states.iter().any(|s| s == recovered.books()),
            "recovered books match no honest prefix after flipping bit {} of {}[{}]",
            bit, name, at
        );
    }
}

/// A backend that implements only the six required [`Storage`] methods
/// (so the engine recovers through the provided `read_from`) and counts
/// the checkpoint bytes written through it.
#[derive(Debug, Default)]
struct SixMethodStorage {
    inner: MemStorage,
    slot_bytes: u64,
}

impl Storage for SixMethodStorage {
    fn read(&self, name: &str) -> Vec<u8> {
        self.inner.read(name)
    }
    fn write(&mut self, name: &str, bytes: &[u8]) {
        assert!(SLOTS.contains(&name), "only slots are replaced whole");
        self.slot_bytes += bytes.len() as u64;
        self.inner.write(name, bytes)
    }
    fn append(&mut self, name: &str, bytes: &[u8]) {
        self.inner.append(name, bytes)
    }
    fn sync(&mut self, name: &str) {
        self.inner.sync(name)
    }
    fn len(&self, name: &str) -> u64 {
        self.inner.len(name)
    }
    fn truncate(&mut self, name: &str, len: u64) {
        self.inner.truncate(name, len)
    }
}

/// The bootstrap books cut to `isps` ISPs and grown to `users` accounts
/// each (records still touch the first [`USERS`]), so that the image
/// ranges from a few records' worth of log to more than the whole log.
fn deployment(isps: u32, users: u32) -> Books {
    let mut books = bootstrap();
    books.isps.truncate(isps as usize);
    for isp in &mut books.isps {
        isp.users.resize(users as usize, isp.users[0]);
    }
    books
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Checkpoints pay for themselves: whatever the stream, the size of
    /// the books, the batch and `checkpoint_every`, the images written
    /// never add up to more bytes than the log they let recovery skip
    /// (write amplification ≤ 2) — across a restart too — and recovery
    /// equals the live books at every commit.
    #[test]
    fn checkpoint_bytes_never_exceed_wal_bytes(
        ops in proptest::collection::vec((0u32..13, 0u32..8, 0u32..8, -1000i64..1000), 0..96),
        isps in 1u32..=ISPS,
        users in USERS..64,
        batch in 1usize..9,
        every in 1u64..48,
        restart_at in 0usize..96,
    ) {
        let cfg = StoreConfig { batch_records: batch, checkpoint_every: every };
        let (mut store, _) =
            LedgerStore::open(SixMethodStorage::default(), cfg, deployment(isps, users));
        for (i, &(kind, a, b, amt)) in ops.iter().enumerate() {
            let rec = record_from(kind, a % isps, b, amt);
            store.append(&rec);
            if store.pending_records() == 0 {
                let (recovered, report) = store.simulate_recovery();
                prop_assert_eq!(&recovered, store.books(), "after record {}", i + 1);
                prop_assert!(!report.torn_tail);
            }
            if i == restart_at {
                store.commit();
                let live = store.books().clone();
                let (reopened, _) =
                    LedgerStore::open(store.into_storage(), cfg, deployment(isps, users));
                prop_assert_eq!(reopened.books(), &live);
                store = reopened;
            }
        }
        store.commit();
        let backend = store.storage();
        prop_assert!(
            backend.slot_bytes <= store.wal_len(),
            "{} checkpoint bytes for {} WAL bytes",
            backend.slot_bytes, store.wal_len()
        );
    }
}

/// A process that keeps restarting before it has appended
/// `checkpoint_every` records of its own must still checkpoint: the tail
/// a restart replays is debt the next incarnation inherits. Before PR 16
/// `open` started the count at zero, no image was ever written, and the
/// tenth incarnation replayed all 400 records.
#[test]
fn a_crash_loop_still_checkpoints() {
    let cfg = StoreConfig {
        batch_records: 8,
        checkpoint_every: 64,
    };
    let stream = records_from(
        &(0..400u32)
            .map(|i| (i % 13, i, i / 3, i64::from(i)))
            .collect::<Vec<_>>(),
    );
    let mut backend = MemStorage::new();
    let mut longest_replay = 0;
    for incarnation in stream.chunks(40) {
        let (mut store, report) = LedgerStore::open(backend, cfg, bootstrap());
        longest_replay = longest_replay.max(report.replayed_records);
        for rec in incarnation {
            store.append(rec);
        }
        backend = store.into_storage(); // the crash
    }
    let (store, report) = LedgerStore::open(backend, cfg, bootstrap());
    assert_eq!(store.books(), prefix_states(&stream).last().unwrap());
    assert!(report.checkpoint_seq.is_some(), "no image in ten restarts");
    // The 2×3 books are smaller than 64 records of log, so the tail is
    // bounded by `checkpoint_every` records plus the batch that crossed it.
    let bound = cfg.checkpoint_every + cfg.batch_records as u64;
    assert!(
        longest_replay.max(report.replayed_records) <= bound,
        "a restart replayed {longest_replay} records, bound {bound}"
    );
}
