//! The repo benchmark: five seeded workloads over the wire, simulator
//! and ledger paths. See `README.md` for what each workload and metric
//! means and `../BENCHMARK.json` for the contract the driver holds this
//! program to.
//!
//! ```text
//! zmail-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! zmail-benchmark [--seed <n>] [--seconds <s>] [--smoke]     # whole suite
//! ```
//!
//! One workload run prints every metric by name with its unit and, as
//! the last line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The exit code is non-zero when any correctness gate failed.

mod ledger_sharded;
mod recovery;
mod sim_world;
mod tap;
mod util;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use util::{host_jiffies, metric, peak_rss_mb, Metric};

pub const WORKLOADS: [&str; 5] = [
    "wire_small",
    "wire_bulk",
    "sim_world",
    "ledger_sharded",
    "recovery",
];

/// End-to-end metrics, in `BENCHMARK.json` order. Every workload reports
/// every one of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_us", "us"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order. A traced run reports
/// every one; a layer the workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("smtp.session_us_p50", "us"),
    ("smtp.wire_only_us_p50", "us"),
    ("smtp.client_lines_per_msg", "count"),
    ("smtp.client_reads_per_msg", "count"),
    ("smtp.wire_bytes_per_msg", "B"),
    ("smtp.parse_ns_per_line", "ns"),
    ("smtp.to_data_ns_per_kib", "ns"),
    ("smtp.from_data_ns_per_kib", "ns"),
    ("core.backpressure.handoff_us_p50", "us"),
    ("core.backpressure.msgs_per_batch", "count"),
    ("core.backpressure.shed", "count"),
    ("core.bridge.deliver_us_p50", "us"),
    ("core.bridge.deliver_ns_per_rcpt", "ns"),
    ("store.spool_append_us_per_msg", "us"),
    ("store.spool_syncs_per_msg", "count"),
    ("store.spool_bytes_per_msg", "B"),
    ("wire.unexplained_share", "share"),
    ("sim.workload.generate_ms", "ms"),
    ("core.system.new_ms", "ms"),
    ("core.system.run_ns_per_event", "ns"),
    ("store.journal_ns_per_event", "ns"),
    ("store.records_per_event", "count"),
    ("store.wal_bytes_per_event", "B"),
    ("store.syncs_per_event", "count"),
    ("store.checkpoints", "count"),
    ("core.system.audit_ms", "ms"),
    ("core.massive.bootstrap_ms", "ms"),
    ("store.shard.cross_shard_share", "share"),
    ("store.shard.xfer_us_p99", "us"),
    ("store.batch_records_p50", "count"),
    ("store.shard.records_per_event", "count"),
    ("store.shard.syncs_per_event", "count"),
    ("sim.tick.apply_us_p50", "us"),
    ("store.shard1_events_per_s", "1/s"),
    ("store.recovery_image_ms", "ms"),
    ("store.replay_ns_per_record", "ns"),
    ("store.replayed_records", "count"),
    ("store.wal_scan_mb_per_s", "MB/s"),
    ("store.merge_ms", "ms"),
    ("store.checkpoint_bytes", "B"),
    ("store.checkpoint_bytes_per_wal_byte", "share"),
    ("store.bytes_per_account", "B"),
    ("obs.overhead_share", "share"),
    ("host.steal_share", "share"),
];

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct Pass {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed correctness gate; empty means correct.
    pub gates: Vec<String>,
    /// The metrics of the JSON line (all but the host-wide ones, which
    /// `run_workload` adds).
    pub metrics: Vec<Metric>,
    /// Printed beside them but not gated and not in the JSON line.
    pub diagnostics: Vec<Metric>,
    /// Counts that must repeat exactly for one seed (traced runs).
    pub exact: Vec<(&'static str, u64)>,
    /// The traced pass's spans, written out when the run ends.
    pub tap: Option<Arc<tap::Tap>>,
}

fn dispatch(workload: &str, pass: &Pass) -> Option<Outcome> {
    Some(match workload {
        "wire_small" => wire::run(wire::Shape::small(pass.smoke), pass),
        "wire_bulk" => wire::run(wire::Shape::bulk(pass.smoke), pass),
        "sim_world" => sim_world::run(pass),
        "ledger_sharded" => ledger_sharded::run(pass),
        "recovery" => recovery::run(pass),
        _ => return None,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Runs one workload once and prints its report; `true` when correct.
fn run_workload(workload: &str, pass: &Pass) -> Option<(bool, Outcome)> {
    let jiffies_before = host_jiffies();
    let mut outcome = dispatch(workload, pass)?;
    let jiffies_after = host_jiffies();
    let steal = jiffies_after.0.saturating_sub(jiffies_before.0) as f64
        / jiffies_after.1.saturating_sub(jiffies_before.1).max(1) as f64;

    let (names, host_metric): (&[(&str, &str)], Metric) = if pass.trace {
        (&PER_LAYER, metric("host.steal_share", steal, "share"))
    } else {
        outcome
            .diagnostics
            .push(metric("host.steal_share", steal, "share"));
        (&END_TO_END, metric("peak_rss_mb", peak_rss_mb(), "MiB"))
    };
    outcome.metrics.push(host_metric);
    for m in &outcome.metrics {
        assert!(
            names.contains(&(m.name, m.unit)),
            "{workload} reported {} [{}], which BENCHMARK.json does not list",
            m.name,
            m.unit
        );
    }
    let reported: Vec<Metric> = names
        .iter()
        .map(|&(name, unit)| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| {
                    assert!(pass.trace, "{workload} did not report {name}");
                    metric(name, 0.0, unit)
                })
        })
        .collect();

    if let Some(tap) = &outcome.tap {
        let path = PathBuf::from(format!("benchmark/out/trace_{workload}.json"));
        match tap.write_chrome(&path, 5_000) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => outcome
                .gates
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }

    // A failed audit is a failed operation too.
    let failed = outcome.failed + outcome.gates.len() as u64;
    let correct = failed == 0;
    let comparable = if pass.smoke {
        " (smoke: numbers not comparable)"
    } else {
        ""
    };
    println!(
        "# {workload} seed={} seconds={} trace={}{comparable}",
        pass.seed,
        pass.seconds,
        u8::from(pass.trace)
    );
    // Layers the workload never enters read 0 in the JSON line and are
    // left out here.
    for m in reported.iter().filter(|m| outcome.metrics.contains(m)) {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.diagnostics {
        println!("{:<40} {:>16.4} {}  (diagnostic)", m.name, m.value, m.unit);
    }
    for (name, value) in &outcome.exact {
        println!("{name:<40} {value:>16} exact");
    }
    for failure in outcome.gates.iter().take(10) {
        println!("GATE FAILED: {failure}");
    }
    if outcome.gates.len() > 10 {
        println!("GATE FAILED: ... and {} more", outcome.gates.len() - 10);
    }
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        failed,
        metrics.join(", ")
    );
    Some((correct, outcome))
}

/// Runs every workload untraced, then traced twice with one seed, and
/// requires the exact counters of the two traced runs to be equal.
fn run_suite(pass: &Pass) -> bool {
    let mut ok = true;
    for workload in WORKLOADS {
        let untraced = Pass {
            trace: false,
            ..pass.clone()
        };
        let traced = Pass {
            trace: true,
            ..pass.clone()
        };
        ok &= run_workload(workload, &untraced).expect("known workload").0;
        let (first_ok, first) = run_workload(workload, &traced).expect("known workload");
        let (second_ok, second) = run_workload(workload, &traced).expect("known workload");
        ok &= first_ok && second_ok;
        if first.exact == second.exact {
            println!(
                "# {workload}: {} exact counters repeat for seed {}",
                first.exact.len(),
                pass.seed
            );
        } else {
            println!(
                "SELF-CHECK FAILED: {workload} exact counters differ between two runs of seed {}:\n  {:?}\n  {:?}",
                pass.seed, first.exact, second.exact
            );
            ok = false;
        }
    }
    ok
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: zmail-benchmark [--workload <{}>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload: Option<String> = None;
    let mut seed = 1u64;
    let mut seconds: Option<f64> = None;
    let mut trace = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next();
        let parsed = match flag.as_str() {
            "--workload" => value().map(|v| workload = Some(v)),
            "--seed" => value().and_then(|v| v.parse().ok()).map(|v| seed = v),
            "--seconds" => value()
                .and_then(|v| v.parse().ok())
                .filter(|s: &f64| s.is_finite() && *s > 0.0)
                .map(|v| seconds = Some(v)),
            "--trace" => value()
                .and_then(|v| match v.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                })
                .map(|v| trace = v),
            "--smoke" => {
                smoke = true;
                Some(())
            }
            _ => None,
        };
        if parsed.is_none() {
            return usage();
        }
    }
    // Smoke: the whole suite (15 runs) inside ten seconds.
    let seconds = seconds.unwrap_or(if smoke { 0.4 } else { 20.0 });
    let pass = Pass {
        seed,
        seconds,
        trace,
        smoke,
    };
    println!(
        "# host parallelism: {} hardware thread(s); one generator thread, one connection",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let ok = match &workload {
        Some(name) => match run_workload(name, &pass) {
            Some((ok, _)) => ok,
            None => return usage(),
        },
        None => run_suite(&pass),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
