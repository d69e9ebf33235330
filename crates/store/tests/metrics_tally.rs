//! The per-record `store.*` metrics are tallied per store and published
//! in batches; this pins what a reader of the registry may rely on: the
//! totals are exact at every checkpoint and once the store is dropped,
//! and never more than `PUBLISH_EVERY - 1` (63) commits behind.
//!
//! One test, alone in its process: it turns the global registry on.

use zmail_store::{Books, IspBooks, LedgerRecord, LedgerStore, MemStorage, StoreConfig, UserBooks};

fn published() -> (u64, u64, u64, u64, u64) {
    let snap = zmail_obs::global().snapshot();
    let batches = &snap.histograms["store.batch_records"];
    (
        snap.counters["store.appends"],
        snap.counters["store.commits"],
        snap.counters["store.wal_bytes"],
        batches.count,
        batches.sum,
    )
}

#[test]
fn tallies_are_exact_at_checkpoints_and_drop_and_lag_less_than_a_batch() {
    zmail_obs::global().set_enabled(true);
    let books = Books {
        isps: vec![IspBooks {
            users: vec![UserBooks::default(); 4],
            avail: 0,
            credit: vec![0],
            nonces: Vec::new(),
        }],
        banks: Vec::new(),
    };
    let config = StoreConfig {
        batch_records: 1,
        checkpoint_every: u64::MAX,
    };
    let (mut store, _) = LedgerStore::open(MemStorage::new(), config, books);
    let record = LedgerRecord::Deposit { isp: 0, user: 1 };
    for appended in 1..=200u64 {
        store.append(&record);
        let (appends, commits, wal_bytes, samples, sum) = published();
        assert!(appended - appends < 64, "{appends} of {appended} published");
        assert_eq!((commits, samples, sum), (appends, appends, appends));
        assert_eq!(wal_bytes, appends * 17, "8-byte header + 9-byte record");
    }
    store.checkpoint();
    assert_eq!(published(), (200, 200, 200 * 17, 200, 200));

    // A different batch size starts a new run of histogram samples;
    // records still buffered when the store goes away are counted too.
    let config = StoreConfig {
        batch_records: 8,
        ..config
    };
    let (mut store, _) = LedgerStore::open(store.into_storage(), config, Books::default());
    for _ in 0..20 {
        store.append(&record);
    }
    drop(store);
    assert_eq!(
        published(),
        (220, 202, 216 * 17, 202, 216),
        "two commits of 8; the last 4 records were never committed"
    );
}
