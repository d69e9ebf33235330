//! `recovery`: the store's read side beside its write side. A round
//! opens a 4-shard `ShardedLedgerStore` (10 ISPs × 20k accounts), fills
//! it with 200k seeded `Charge`/`Deposit` records (`batch_records` 256,
//! a checkpoint every 1024 records per shard), then runs
//! `simulate_recovery()` repeatedly, comparing every recovered image
//! with the live books. Checkpoint writes dominate the fill and
//! checkpoint-image load dominates a recovery, so a change that speeds
//! one at the other's cost shows in this one workload.

use crate::tap::{Counts, Tap, TimedStorage};
use crate::util::{
    for_rounds, median, metric, quantile, quiet, quiet_rate, relative_iqr, time_into,
};
use crate::{Outcome, Pass};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use zmail_sim::Sampler;
use zmail_store::{
    wal, Books, IspBooks, LedgerRecord, MemStorage, ShardedLedgerStore, Storage, StoreConfig,
    UserBooks, WAL,
};

const SHARDS: usize = 4;

struct Scale {
    isps: u32,
    accounts_per_isp: u32,
    records: u64,
    recoveries_per_round: usize,
}

impl Scale {
    fn of(pass: &Pass) -> Scale {
        if pass.smoke {
            Scale {
                isps: 10,
                accounts_per_isp: 2_000,
                records: 20_000,
                recoveries_per_round: 3,
            }
        } else {
            Scale {
                isps: 10,
                accounts_per_isp: 20_000,
                records: 200_000,
                recoveries_per_round: 10,
            }
        }
    }

    fn accounts(&self) -> u64 {
        u64::from(self.isps) * u64::from(self.accounts_per_isp)
    }

    /// Every account funded far beyond what the stream can charge.
    fn bootstrap(&self) -> Books {
        Books {
            isps: (0..self.isps)
                .map(|_| IspBooks {
                    users: vec![
                        UserBooks {
                            account: 0,
                            balance: 1_000_000,
                            sent_today: 0,
                            limit: u32::MAX,
                        };
                        self.accounts_per_isp as usize
                    ],
                    avail: 0,
                    credit: Vec::new(),
                    nonces: Vec::new(),
                })
                .collect(),
            banks: Vec::new(),
        }
    }

    /// The seeded record stream: a charge and a deposit alternate, each
    /// on a uniformly drawn account.
    fn records(&self, seed: u64) -> Vec<LedgerRecord> {
        let mut sampler = Sampler::new(seed);
        (0..self.records)
            .map(|i| {
                let isp = sampler.uniform_range(0, u64::from(self.isps)) as u32;
                let user = sampler.uniform_range(0, u64::from(self.accounts_per_isp)) as u32;
                if i % 2 == 0 {
                    LedgerRecord::Charge { isp, user }
                } else {
                    LedgerRecord::Deposit { isp, user }
                }
            })
            .collect()
    }
}

type Store = ShardedLedgerStore<TimedStorage<MemStorage>>;

#[derive(Default)]
struct Rounds {
    /// One sample per `simulate_recovery()` to verified-equal books.
    recoveries_us: Vec<f64>,
    setup_s: Vec<f64>,
    fill_per_s: Vec<f64>,
    replayed_records: u64,
    books_crc: u32,
    gates: Vec<String>,
}

/// One round; returns the filled store for the traced pass's probes.
fn round(scale: &Scale, seed: u64, id: u64, tap: &Arc<Tap>, rounds: &mut Rounds) -> Store {
    tap.set_current(id);
    let setup_start = Instant::now();
    let records = scale.records(seed);
    let storages = (0..SHARDS)
        .map(|_| TimedStorage::new(MemStorage::new(), tap, "store.storage", Some("store.fill")))
        .collect();
    let config = StoreConfig {
        batch_records: 256,
        checkpoint_every: 1024,
    };
    let (mut store, _) = ShardedLedgerStore::open(storages, config, scale.bootstrap());
    rounds.setup_s.push(setup_start.elapsed().as_secs_f64());

    let fill_start = Instant::now();
    tap.timed("store.fill", "store", None, id, || {
        for record in &records {
            store.append(record);
        }
        store.commit_all();
    });
    rounds
        .fill_per_s
        .push(records.len() as f64 / fill_start.elapsed().as_secs_f64());

    let live = store.books();
    let books_crc = wal::crc32(&live.encode());
    if rounds.setup_s.len() > 1 && books_crc != rounds.books_crc {
        rounds
            .gates
            .push(format!("round {id}: the fill ended on different books"));
    }
    rounds.books_crc = books_crc;
    for _ in 0..scale.recoveries_per_round {
        let (equal, report) = time_into(&mut rounds.recoveries_us, || {
            tap.timed("store.recover", "store", None, id, || {
                let (recovered, report) = store.simulate_recovery();
                (recovered == live, report)
            })
        });
        rounds.replayed_records = report.replayed_records();
        if !equal {
            rounds
                .gates
                .push(format!("round {id}: recovered books != live books"));
        }
        if report.torn_tails() != 0 {
            rounds
                .gates
                .push(format!("round {id}: {} torn tails", report.torn_tails()));
        }
    }
    store
}

/// Quiet-decile milliseconds of `op` over ten calls.
fn millis(mut op: impl FnMut()) -> f64 {
    let mut samples_us = Vec::new();
    for _ in 0..10 {
        time_into(&mut samples_us, &mut op);
    }
    quiet(&samples_us) / 1e3
}

/// What the traced pass measures on the first round's filled store.
#[derive(Default)]
struct Probes {
    /// The tap's counts when the fill and its recoveries were done.
    filled: Counts,
    wal_scan_mb_per_s: f64,
    merge_ms: f64,
    /// Bytes `checkpoint_all()` wrote: one full image of every account.
    image_bytes: u64,
    /// `simulate_recovery()` as the fill left the store, and right after
    /// `checkpoint_all()`, when there is nothing to replay.
    replay_ms: f64,
    image_ms: f64,
    image_replayed: u64,
}

fn probe(store: &mut Store, tap: &Tap) -> Probes {
    let filled = tap.counts();
    let live = store.books();
    let wal_bytes: Vec<Vec<u8>> = (0..store.shard_count())
        .map(|i| store.shard(i).storage().read(WAL))
        .collect();
    let scanned: usize = wal_bytes.iter().map(Vec::len).sum();
    let scan_ms = millis(|| {
        for bytes in &wal_bytes {
            black_box(wal::scan(black_box(bytes), 0));
        }
    });
    let parts = store.map().split(&live);
    let merge_ms = millis(|| {
        black_box(store.map().merge(black_box(&parts)));
    });
    let replay_ms = millis(|| {
        black_box(store.simulate_recovery());
    });
    store.checkpoint_all();
    let image_bytes = tap.counts().write_bytes - filled.write_bytes;
    let mut image_replayed = 0;
    let image_ms = millis(|| {
        let (recovered, report) = store.simulate_recovery();
        image_replayed = report.replayed_records();
        black_box(recovered);
    });
    Probes {
        filled,
        wal_scan_mb_per_s: scanned as f64 / 1e6 / (scan_ms / 1e3),
        merge_ms,
        image_bytes,
        replay_ms,
        image_ms,
        image_replayed,
    }
}

pub fn run(pass: &Pass) -> Outcome {
    let scale = Scale::of(pass);
    let mut outcome = Outcome::default();
    let operations =
        |r: &Rounds| r.setup_s.len() as u64 * scale.records + r.recoveries_us.len() as u64;
    let untraced = Arc::new(Tap::new(false));
    if !pass.trace {
        let mut rounds = Rounds::default();
        for_rounds(pass.seconds, |id| {
            round(&scale, pass.seed, id, &untraced, &mut rounds);
        });
        outcome.attempted = operations(&rounds);
        outcome.metrics = vec![
            metric("setup_s", quiet(&rounds.setup_s), "s"),
            metric("op_us", quiet(&rounds.recoveries_us), "us"),
            metric("work_per_s", quiet_rate(&rounds.fill_per_s), "1/s"),
        ];
        outcome.diagnostics = vec![
            metric("rounds", rounds.setup_s.len() as f64, "count"),
            metric("recoveries", rounds.recoveries_us.len() as f64, "count"),
            metric("recovery_p50_us", median(&rounds.recoveries_us), "us"),
            metric(
                "recovery_p99_us",
                quantile(&rounds.recoveries_us, 0.99),
                "us",
            ),
            metric(
                "recovery_iqr_share",
                relative_iqr(&rounds.recoveries_us),
                "share",
            ),
            metric("fill_iqr_share", relative_iqr(&rounds.fill_per_s), "share"),
        ];
        outcome.gates = rounds.gates;
        return outcome;
    }

    // Each round runs untraced and then traced, so the two see the same
    // host; the first traced round's store is probed before it is dropped.
    let registry = zmail_obs::global();
    let tap = Arc::new(Tap::new(true));
    let (mut reference, mut traced) = (Rounds::default(), Rounds::default());
    let mut probes = Probes::default();
    for_rounds(pass.seconds * 0.9, |id| {
        round(&scale, pass.seed, id, &untraced, &mut reference);
        registry.set_enabled(true);
        let mut store = round(&scale, pass.seed, id, &tap, &mut traced);
        if id == 0 {
            probes = probe(&mut store, &tap);
        }
        registry.set_enabled(false);
    });

    let Probes { filled, .. } = probes;
    let traced_op = quiet(&traced.recoveries_us);
    let reference_op = quiet(&reference.recoveries_us);
    outcome.attempted = operations(&reference) + operations(&traced);
    outcome.metrics = vec![
        metric("store.recovery_image_ms", probes.image_ms, "ms"),
        metric(
            "store.replay_ns_per_record",
            (probes.replay_ms - probes.image_ms) * 1e6 / traced.replayed_records.max(1) as f64,
            "ns",
        ),
        metric(
            "store.replayed_records",
            traced.replayed_records as f64,
            "count",
        ),
        metric("store.wal_scan_mb_per_s", probes.wal_scan_mb_per_s, "MB/s"),
        metric("store.merge_ms", probes.merge_ms, "ms"),
        metric("store.checkpoint_bytes", filled.write_bytes as f64, "B"),
        metric(
            "store.checkpoint_bytes_per_wal_byte",
            filled.write_bytes as f64 / filled.append_bytes.max(1) as f64,
            "share",
        ),
        metric(
            "store.bytes_per_account",
            probes.image_bytes as f64 / scale.accounts() as f64,
            "B",
        ),
        metric(
            "obs.overhead_share",
            (traced_op - reference_op) / reference_op,
            "share",
        ),
    ];
    outcome.diagnostics = vec![
        metric("op_us.untraced", reference_op, "us"),
        metric("op_us.traced", traced_op, "us"),
        metric("fill_per_s.traced", quiet_rate(&traced.fill_per_s), "1/s"),
    ];
    outcome.exact = vec![
        ("store.replayed_records", traced.replayed_records),
        ("store.wal_appends", filled.appends),
        ("store.wal_bytes", filled.append_bytes),
        ("store.syncs", filled.syncs),
        ("store.checkpoint_writes", filled.writes),
        ("store.checkpoint_bytes", filled.write_bytes),
        ("store.books_crc", u64::from(traced.books_crc)),
    ];
    if probes.image_replayed != 0 {
        outcome.gates.push(format!(
            "recovery right after checkpoint_all() replayed {} records",
            probes.image_replayed
        ));
    }
    if reference.books_crc != traced.books_crc {
        outcome
            .gates
            .push("untraced and traced rounds of one seed ended on different books".into());
    }
    outcome.gates.extend(reference.gates);
    outcome.gates.append(&mut traced.gates);
    outcome.tap = Some(tap);
    outcome
}
