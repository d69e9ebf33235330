//! Storage faults against the real ledger engine: every hazard
//! `FaultyStorage` can inject — lost un-synced batches, torn writes from
//! a partial fsync, acked-then-lost tails, corrupted checkpoint slots —
//! must be *detected* by `zmail-store` recovery and truncated or skipped,
//! never silently applied as state.

use zmail_fault::FaultyStorage;
use zmail_store::engine::WAL;
use zmail_store::{
    Books, IspBooks, LedgerRecord, LedgerStore, MemStorage, Storage, StoreConfig, UserBooks,
};

fn bootstrap() -> Books {
    Books {
        isps: vec![IspBooks {
            users: vec![
                UserBooks {
                    account: 1_000,
                    balance: 100,
                    sent_today: 0,
                    limit: 100,
                };
                2
            ],
            avail: 5_000,
            credit: vec![0],
            nonces: Vec::new(),
        }],
        banks: Vec::new(),
    }
}

/// A deterministic little mutation stream over the 1×2 deployment.
fn records(n: usize) -> Vec<LedgerRecord> {
    (0..n)
        .map(|i| match i % 4 {
            0 => LedgerRecord::Charge {
                isp: 0,
                user: (i % 2) as u32,
            },
            1 => LedgerRecord::Deposit {
                isp: 0,
                user: ((i + 1) % 2) as u32,
            },
            2 => LedgerRecord::PoolBuy {
                isp: 0,
                amount: 10 + i as i64,
            },
            _ => LedgerRecord::PoolSell { isp: 0, amount: 5 },
        })
        .collect()
}

/// The books after the first `n` records, by pure in-memory fold.
fn state_after(n: usize) -> Books {
    let mut books = bootstrap();
    for rec in records(n) {
        books.apply(&rec);
    }
    books
}

#[test]
fn crash_loses_exactly_the_uncommitted_batch() {
    let cfg = StoreConfig {
        batch_records: 4,
        checkpoint_every: 1 << 30,
    };
    let (mut store, _) = LedgerStore::open(FaultyStorage::new(MemStorage::new()), cfg, bootstrap());
    for rec in records(10) {
        store.append(&rec);
    }
    // 8 committed (two batches of 4), 2 buffered in the engine.
    assert_eq!(store.pending_records(), 2);
    let mut backend = store.into_storage();
    backend.crash();
    let (recovered, report) = LedgerStore::open(backend, cfg, bootstrap());
    assert_eq!(recovered.books(), &state_after(8));
    assert_eq!(report.replayed_records, 8);
    assert!(!report.torn_tail, "a clean batch boundary is not a tear");
}

#[test]
fn partial_fsync_tears_the_final_record_and_recovery_truncates_it() {
    let cfg = StoreConfig {
        batch_records: 3,
        checkpoint_every: 1 << 30,
    };
    let (mut store, _) = LedgerStore::open(FaultyStorage::new(MemStorage::new()), cfg, bootstrap());
    for rec in records(6) {
        store.append(&rec); // two full batches, synced cleanly
    }
    // Arm the torn write: the third batch's sync persists 5 bytes —
    // less than one frame header — then the machine dies.
    store.storage_mut().arm_partial_sync(5);
    for rec in records(9).drain(6..) {
        store.append(&rec);
    }
    let mut backend = store.into_storage();
    assert_eq!(backend.counters().partial_syncs, 1);
    backend.crash();
    let durable_len = backend.len(WAL);

    let (recovered, report) = LedgerStore::open(backend, cfg, bootstrap());
    assert!(report.torn_tail, "the half-written frame must be detected");
    assert_eq!(report.truncated_bytes, 5);
    assert_eq!(report.replayed_records, 6);
    assert_eq!(recovered.books(), &state_after(6));
    // The tear is gone from the durable image: next open is clean.
    assert_eq!(recovered.storage().len(WAL), durable_len - 5);
    let (again, report2) = LedgerStore::open(recovered.into_storage(), cfg, bootstrap());
    assert!(!report2.torn_tail);
    assert_eq!(again.books(), &state_after(6));
}

#[test]
fn mid_batch_partial_fsync_recovers_whole_records_only() {
    let cfg = StoreConfig {
        batch_records: 4,
        checkpoint_every: 1 << 30,
    };
    let (mut store, _) = LedgerStore::open(FaultyStorage::new(MemStorage::new()), cfg, bootstrap());
    // One record is 8 bytes of header + 9 bytes of Charge payload; keep
    // 1.5 records' worth of the 4-record batch.
    store.storage_mut().arm_partial_sync(25);
    for rec in records(4) {
        store.append(&rec);
    }
    let mut backend = store.into_storage();
    backend.crash();
    let (recovered, report) = LedgerStore::open(backend, cfg, bootstrap());
    assert!(report.torn_tail);
    assert_eq!(
        report.replayed_records, 1,
        "only the whole frame inside the torn prefix replays"
    );
    assert_eq!(recovered.books(), &state_after(1));
}

#[test]
fn acked_then_lost_tail_is_detected_and_cut() {
    let cfg = StoreConfig::default(); // commit per record
    let (mut store, _) = LedgerStore::open(FaultyStorage::new(MemStorage::new()), cfg, bootstrap());
    for rec in records(8) {
        store.append(&rec);
    }
    let mut backend = store.into_storage();
    backend.tear_tail(WAL, 7); // rip into the last record's frame
    let (recovered, report) = LedgerStore::open(backend, cfg, bootstrap());
    assert!(report.torn_tail);
    assert_eq!(report.replayed_records, 7);
    assert_eq!(recovered.books(), &state_after(7));
}

#[test]
fn corrupt_newest_checkpoint_falls_back_to_the_older_slot() {
    let cfg = StoreConfig {
        batch_records: 1,
        checkpoint_every: 3,
    };
    let (mut store, _) = LedgerStore::open(FaultyStorage::new(MemStorage::new()), cfg, bootstrap());
    // An image is written only once the log has outgrown it, so it takes
    // more than `checkpoint_every` records apiece for two to exist.
    for rec in records(40) {
        store.append(&rec);
    }
    assert!(store.next_checkpoint_seq() >= 2, "two images written");
    let newest_seq = store.next_checkpoint_seq() - 1;
    let newest_slot = if newest_seq % 2 == 0 {
        "ckpt.a"
    } else {
        "ckpt.b"
    };
    let mut backend = store.into_storage();
    backend.corrupt_byte(newest_slot, 9, 0x01);
    let (recovered, report) = LedgerStore::open(backend, cfg, bootstrap());
    assert_eq!(report.corrupt_slots, 1);
    assert_eq!(report.checkpoint_seq, Some(newest_seq - 1));
    assert_eq!(
        recovered.books(),
        &state_after(40),
        "older checkpoint + longer WAL replay reaches the same books"
    );
}

#[test]
fn corrupt_wal_byte_in_the_tail_truncates_history_never_rewrites_it() {
    let cfg = StoreConfig::default();
    let (mut store, _) = LedgerStore::open(FaultyStorage::new(MemStorage::new()), cfg, bootstrap());
    for rec in records(6) {
        store.append(&rec);
    }
    let wal_len = store.wal_len();
    let mut backend = store.into_storage();
    backend.corrupt_byte(WAL, wal_len - 3, 0x80); // inside the last payload
    let (recovered, report) = LedgerStore::open(backend, cfg, bootstrap());
    assert!(report.torn_tail, "checksum must catch the flip");
    assert_eq!(report.replayed_records, 5);
    assert_eq!(recovered.books(), &state_after(5));
}

#[test]
fn fault_free_wrapper_is_transparent() {
    // Same records through FaultyStorage and bare MemStorage: identical
    // durable bytes, identical recovery.
    let cfg = StoreConfig {
        batch_records: 2,
        checkpoint_every: 5,
    };
    let (mut faulty, _) =
        LedgerStore::open(FaultyStorage::new(MemStorage::new()), cfg, bootstrap());
    let (mut plain, _) = LedgerStore::open(MemStorage::new(), cfg, bootstrap());
    for rec in records(12) {
        faulty.append(&rec);
        plain.append(&rec);
    }
    faulty.commit();
    plain.commit();
    assert_eq!(faulty.books(), plain.books());
    let faulty_backend = faulty.into_storage().into_durable();
    assert_eq!(&faulty_backend, plain.storage());
}

/// A backend that leaves `read_from` to the trait's provided method (and
/// `release`, which frees nothing).
struct SixMethods(MemStorage);

impl Storage for SixMethods {
    fn read(&self, name: &str) -> Vec<u8> {
        self.0.read(name)
    }
    fn write(&mut self, name: &str, bytes: &[u8]) {
        self.0.write(name, bytes)
    }
    fn append(&mut self, name: &str, bytes: &[u8]) {
        self.0.append(name, bytes)
    }
    fn sync(&mut self, name: &str) {
        self.0.sync(name)
    }
    fn len(&self, name: &str) -> u64 {
        self.0.len(name)
    }
    fn truncate(&mut self, name: &str, len: u64) {
        self.0.truncate(name, len)
    }
}

/// `read_from(name, o)` is `read(name)[min(o, len)..]` at every offset
/// up to and past the end, and empty for a blob that was never written.
fn assert_read_from_is_a_suffix_of_read(storage: &impl Storage, what: &str) {
    let whole = storage.read(WAL);
    assert!(!whole.is_empty(), "{what}: the test needs bytes to slice");
    let past_the_end = [whole.len() as u64 + 1, u64::MAX];
    for offset in (0..=whole.len() as u64).chain(past_the_end) {
        let expected = &whole[whole.len().min(offset as usize)..];
        assert_eq!(
            storage.read_from(WAL, offset),
            expected,
            "{what} at {offset}"
        );
    }
    assert!(storage.read_from("absent", 0).is_empty(), "{what}");
    assert!(storage.read_from("absent", 7).is_empty(), "{what}");
}

#[test]
fn read_from_is_a_suffix_of_read_on_every_backend() {
    let fill = |storage: &mut dyn Storage| {
        storage.append(WAL, b"synced bytes, ");
        storage.sync(WAL);
        storage.append(WAL, b"then bytes no sync has covered");
    };

    let mut mem = MemStorage::new();
    fill(&mut mem);
    assert_read_from_is_a_suffix_of_read(&mem, "MemStorage");

    let mut provided = SixMethods(MemStorage::new());
    fill(&mut provided);
    assert_read_from_is_a_suffix_of_read(&provided, "the provided method");

    let root = std::env::temp_dir().join(format!("zmail-read-from-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut file = zmail_store::FileStorage::new(&root);
    fill(&mut file);
    assert_read_from_is_a_suffix_of_read(&file, "FileStorage");
    std::fs::remove_dir_all(&root).unwrap();

    // FaultyStorage: through the un-synced overlay, then — after a crash
    // drops it — through to the durable image alone.
    let mut faulty = FaultyStorage::new(MemStorage::new());
    fill(&mut faulty);
    assert_eq!(faulty.read(WAL).len(), 44, "overlay holds both appends");
    assert_read_from_is_a_suffix_of_read(&faulty, "FaultyStorage, un-synced overlay");
    faulty.crash();
    assert_eq!(faulty.read(WAL), b"synced bytes, ");
    assert_read_from_is_a_suffix_of_read(&faulty, "FaultyStorage, durable image");
}
