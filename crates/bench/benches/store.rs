//! Criterion micro-benchmarks for the four `zmail-store` kernels the
//! repo benchmark's `recovery`, `sim_world` and `ledger_sharded`
//! workloads spend their journal time in: the CRC, the WAL frame scan,
//! the checkpoint image codec and the journal append — plus the write
//! side as a whole, a 200k-record fill with checkpoints on, which is
//! where the checkpoint *policy* (not a kernel) shows.
//!
//! Uses only API that predates the PR-13 kernel rewrite, so the same
//! file builds against a parent checkout for a before/after pair:
//! `cargo bench -p zmail-bench --bench store`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use zmail_store::{
    wal, Books, Checkpoint, IspBooks, LedgerRecord, LedgerStore, MemStorage, Storage, StoreConfig,
    UserBooks, WAL,
};

const ISPS: u32 = 10;

/// `accounts` funded accounts over [`ISPS`] ISPs, as the `recovery`
/// workload bootstraps them.
fn books(accounts: u32) -> Books {
    Books {
        isps: (0..ISPS)
            .map(|_| IspBooks {
                users: vec![
                    UserBooks {
                        account: 0,
                        balance: 1_000_000,
                        sent_today: 0,
                        limit: u32::MAX,
                    };
                    (accounts / ISPS) as usize
                ],
                avail: 0,
                credit: vec![0; ISPS as usize],
                nonces: Vec::new(),
            })
            .collect(),
        banks: Vec::new(),
    }
}

fn record(i: u32, accounts: u32) -> LedgerRecord {
    let isp = i % ISPS;
    let user = i.wrapping_mul(0x9E37_79B9) % (accounts / ISPS);
    if i.is_multiple_of(2) {
        LedgerRecord::Charge { isp, user }
    } else {
        LedgerRecord::Deposit { isp, user }
    }
}

fn never_checkpoint(batch_records: usize) -> StoreConfig {
    StoreConfig {
        batch_records,
        checkpoint_every: u64::MAX,
    }
}

fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    for len in [16usize, 4 << 10, 1 << 20] {
        let bytes: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::from_parameter(len), &bytes, |b, bytes| {
            b.iter(|| wal::crc32(black_box(bytes)));
        });
    }
    group.finish();
}

fn bench_scan(c: &mut Criterion) {
    const RECORDS: u32 = 200_000;
    let (mut store, _) = LedgerStore::open(MemStorage::new(), never_checkpoint(256), books(1_000));
    for i in 0..RECORDS {
        store.append(&record(i, 1_000));
    }
    store.commit();
    let log = store.storage().read(WAL);
    let mut group = c.benchmark_group("wal_scan");
    group.throughput(Throughput::Bytes(log.len() as u64));
    group.bench_function("200k_records", |b| {
        b.iter(|| {
            let scan = wal::scan(black_box(&log), 0);
            assert_eq!(scan.payloads.len(), RECORDS as usize);
            scan.valid_len
        });
    });
    group.finish();
}

fn bench_checkpoint(c: &mut Criterion) {
    let ckpt = Checkpoint {
        seq: 7,
        wal_offset: 1 << 20,
        books: books(200_000),
    };
    let image = ckpt.encode();
    let mut group = c.benchmark_group("checkpoint_200k_accounts");
    group.throughput(Throughput::Bytes(image.len() as u64));
    group.bench_function("encode", |b| b.iter(|| black_box(&ckpt).encode()));
    group.bench_function("verify_decode", |b| {
        b.iter(|| Checkpoint::decode(black_box(&image)).expect("valid image"));
    });
    group.finish();
}

fn bench_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("ledger_append");
    group.throughput(Throughput::Elements(1));
    for batch_records in [1usize, 256] {
        let (mut store, _) = LedgerStore::open(
            MemStorage::new(),
            never_checkpoint(batch_records),
            books(1_000),
        );
        let mut i = 0u32;
        group.bench_function(BenchmarkId::new("batch_records", batch_records), |b| {
            b.iter(|| {
                i = i.wrapping_add(1);
                store.append(&record(i, 1_000));
            });
        });
    }
    group.finish();
}

/// The `recovery` workload's fill on one engine: 200k records at 200k
/// accounts, group commit 256, `checkpoint_every` 1024. The image
/// (4.8 MB) dwarfs the log (3.4 MB), so what this times is how often the
/// engine decides an image is worth writing.
fn bench_checkpointed_fill(c: &mut Criterion) {
    const RECORDS: u32 = 200_000;
    const ACCOUNTS: u32 = 200_000;
    let config = StoreConfig {
        batch_records: 256,
        checkpoint_every: 1024,
    };
    let bootstrap = books(ACCOUNTS);
    let mut group = c.benchmark_group("fill_200k_records_200k_accounts");
    group.throughput(Throughput::Elements(u64::from(RECORDS)));
    group.sample_size(10);
    group.bench_function("checkpoints_on", |b| {
        b.iter(|| {
            let (mut store, _) = LedgerStore::open(MemStorage::new(), config, bootstrap.clone());
            for i in 0..RECORDS {
                store.append(&record(i, ACCOUNTS));
            }
            store.commit();
            store.wal_len()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_crc32,
    bench_scan,
    bench_checkpoint,
    bench_append,
    bench_checkpointed_fill
);
criterion_main!(benches);
