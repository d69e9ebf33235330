//! E17 — Population scale: 1M users across 10+ ISPs on the sharded
//! ledger.
//!
//! The paper's free-market argument is about *populations* — spam dies
//! because millions of receivers are each owed one e-penny — but every
//! experiment so far topped out in the low thousands of users. E17 runs
//! the money mechanics at the paper's intended scale:
//!
//! accounts hash across N independent `zmail-store` engines (own WAL,
//! own group commit, own checkpoints), and cross-shard sends run the
//! two-phase prepare/apply/release protocol.
//!
//! The grid sweeps the shard count over the full 1M-user population
//! and reports events/s, cross-shard share, p99 two-phase transfer
//! latency, WAL group-commit batch sizes, and the exact zero-sum audit
//! (`run_massive` additionally recovers every shard and asserts the
//! recovered books match the live ones, so each completed row *is* a
//! passed durability audit).
//!
//! Modes: `--smoke` shrinks the grid to a seconds-scale CI gate over
//! the same code paths; `--equivalence` runs one small cell at 1, 4 and
//! 16 shards, whose books must be identical (the process exits non-zero
//! on any mismatch; `results/e17_equivalence.txt` is its recorded
//! output).

use std::time::Instant;
use zmail_bench::Report;
use zmail_core::{run_massive, DurabilityConfig, MassiveConfig, MassiveReport};
use zmail_obs::HistogramSnapshot;
use zmail_sim::Table;
use zmail_store::StoreConfig;

/// Subtracts an earlier cumulative snapshot from a later one, giving
/// the histogram of just the observations in between. (The global
/// registry accumulates across runs; the grid wants per-run tails.)
fn delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut buckets: std::collections::BTreeMap<u64, u64> = after.buckets.iter().copied().collect();
    for &(lower, n) in &before.buckets {
        let slot = buckets.entry(lower).or_insert(0);
        *slot = slot.saturating_sub(n);
    }
    HistogramSnapshot {
        count: after.count - before.count,
        sum: after.sum.wrapping_sub(before.sum),
        min: after.min,
        max: after.max,
        buckets: buckets.into_iter().filter(|&(_, n)| n > 0).collect(),
    }
}

fn config(users_per_isp: u32, ticks: u32, sends_per_tick: u32, shards: u32) -> MassiveConfig {
    MassiveConfig {
        isps: 10,
        users_per_isp,
        ticks,
        sends_per_tick,
        durability: DurabilityConfig {
            // Group commit amortizes the per-record sync; checkpoints
            // are off so recovery (asserted inside run_massive) replays
            // the whole WAL — the worst case, priced honestly.
            store: StoreConfig {
                batch_records: 256,
                checkpoint_every: u64::MAX,
            },
            shards,
        },
        ..MassiveConfig::default()
    }
}

/// One grid cell: runs the config, returns (report, wall seconds, p99
/// cross-shard transfer µs, median group-commit batch).
fn cell(cfg: &MassiveConfig) -> (MassiveReport, f64, Option<u64>, Option<u64>) {
    let registry = zmail_obs::global();
    let xfer_before = registry.histogram("shard.xfer_micros").snapshot();
    let batch_before = registry.histogram("store.batch_records").snapshot();
    let start = Instant::now();
    let report = run_massive(cfg, 1);
    let wall = start.elapsed().as_secs_f64();
    let xfer = delta(
        &registry.histogram("shard.xfer_micros").snapshot(),
        &xfer_before,
    );
    let batch = delta(
        &registry.histogram("store.batch_records").snapshot(),
        &batch_before,
    );
    (report, wall, xfer.p99(), batch.p50())
}

fn grid(users_per_isp: u32, ticks: u32, sends_per_tick: u32, shards: &[u32]) {
    let cfg0 = config(users_per_isp, ticks, sends_per_tick, shards[0]);
    println!(
        "population: {} users across {} ISPs; {} sends over {} ticks; digest {} rounds\n",
        cfg0.users(),
        cfg0.isps,
        u64::from(ticks) * u64::from(sends_per_tick),
        ticks,
        cfg0.digest_rounds,
    );
    let mut table = Table::new(&[
        "shards",
        "events/s",
        "wall",
        "paid",
        "x-shard",
        "xfer p99",
        "batch p50",
        "audit",
    ]);
    for &s in shards {
        let cfg = config(users_per_isp, ticks, sends_per_tick, s);
        let (report, wall, xfer_p99, batch_p50) = cell(&cfg);
        let share = if report.paid == 0 {
            0.0
        } else {
            100.0 * report.cross_shard as f64 / report.paid as f64
        };
        table.row_owned(vec![
            s.to_string(),
            format!("{:.0}", report.events as f64 / wall.max(1e-9)),
            format!("{wall:.2}s"),
            report.paid.to_string(),
            format!("{share:.1}%"),
            xfer_p99.map_or_else(|| "-".into(), |v| format!("{v}µs")),
            batch_p50.map_or_else(|| "-".into(), |v| v.to_string()),
            "exact".to_string(), // run_massive panics on any drift
        ]);
    }
    println!("{table}");
    println!(
        "(xfer p99 is the two-phase cross-shard transfer latency from\n\
         shard.xfer_micros; batch p50 the store.batch_records group-commit\n\
         size; 1 shard has no cross-shard traffic, hence \"-\". audit =\n\
         exact means every minted e-penny was found on the merged books\n\
         and recovery reproduced them, both asserted inside the run.)\n"
    );
}

/// Shard count must change WAL layout only, never the economics.
/// Exits non-zero on any divergence.
fn equivalence() -> bool {
    let mut ok = true;
    let one = run_massive(&config(200, 4, 1_500, 1), 1);
    for shards in [4, 16] {
        let many = run_massive(&config(200, 4, 1_500, shards), 1);
        let same = (many.paid, many.digest_checksum, many.books_crc)
            == (one.paid, one.digest_checksum, one.books_crc);
        println!(
            "shards {shards:>2} vs 1: books {}",
            if same { "identical" } else { "DIVERGED" }
        );
        ok &= same;
    }
    ok
}

fn main() {
    let experiment = Report::new(
        "E17: 1M users / 10 ISPs — sharded ledger",
        "the zero-sum economy holds penny-for-penny at population scale: sharded WALs with two-phase cross-shard transfers conserve every minted e-penny",
    );
    // The grid needs the shard.* / store.* histograms regardless of the
    // --metrics flag.
    zmail_obs::global().set_enabled(true);
    let smoke = std::env::args().any(|a| a == "--smoke");
    if std::env::args().any(|a| a == "--equivalence") {
        let ok = equivalence();
        experiment.finish(ok, "economics are shard-count-invariant");
        if !ok {
            std::process::exit(1);
        }
        return;
    }
    if smoke {
        println!("(--smoke: 10k users, reduced grid, same code paths)\n");
        grid(1_000, 4, 2_500, &[1, 4]);
    } else {
        grid(100_000, 10, 20_000, &[1, 4, 16]);
    }
    experiment.finish(
        true,
        "every cell conserved the minted supply exactly, and recovered books matched live books on all shards",
    );
}
