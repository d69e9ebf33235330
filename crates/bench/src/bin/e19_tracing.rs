//! E19 — The price of looking: causal flight-recorder overhead.
//!
//! A per-message flight recorder runs through the whole stack —
//! TraceId minted at submission, child spans for queue wait, bank
//! round-trips, WAL group-commit, delivery, and acks. What decides
//! whether it can stay on outside postmortems is its cost. Span
//! timestamps come from the sim clock, so the only real cost is
//! bookkeeping. The two tables run the full protocol harness
//! (`ZmailWorld`, serially) and the million-user sharded ledger
//! (`MassiveWorld`, tick-parallel at 4 threads) at head-sampling rates
//! {off, 1/64, 1/8, 1/1} and report the wall-clock penalty, asserting at
//! every rate that the run itself is byte-identical to the untraced
//! baseline. One run is milliseconds long, so each rate's wall is the
//! median of repetitions that cycle through all four rates in turn
//! (drift on the host hits every rate alike), and the penalty is also
//! stated per span: the median's excess over the untraced median,
//! divided by the spans the rate records.
//!
//! The run ends with the latency-attribution view itself: per-phase
//! p50/p99/p999 (sim-clock ms) and the slowest lifecycles with their
//! critical paths — the flight recorder doing its actual job.
//!
//! Mode: `--smoke` shrinks both workloads to a seconds-scale CI gate
//! over the same code paths.

use std::time::Instant;
use zmail_bench::Report;
use zmail_core::{
    run_massive, run_massive_traced, DurabilityConfig, MassiveConfig, RunReport, ZmailConfig,
    ZmailSystem,
};
use zmail_econ::EPennies;
use zmail_obs::{attribute, FlightRecorder, Registry, SpanLog};
use zmail_sim::workload::{SendEvent, TrafficConfig, TrafficGenerator};
use zmail_sim::{Sampler, SimDuration, Table};

const SEED: u64 = 19;
/// Span-ring capacity: big enough that nothing is dropped at 1/1
/// sampling on the full workloads, so overhead numbers are honest.
const RING: usize = 1 << 21;

/// `None` = recorder not attached; `Some(n)` = head sampling keeps one
/// trace in `n`.
const RATES: [Option<u64>; 4] = [None, Some(64), Some(8), Some(1)];

/// Repetitions of each rate: the full harness runs for milliseconds,
/// the million-user world for a few tenths of a second.
const HARNESS_REPS: usize = 15;
const MASSIVE_REPS: usize = 7;

fn median(mut walls: Vec<f64>) -> f64 {
    walls.sort_by(f64::total_cmp);
    walls[walls.len() / 2]
}

/// The table's two penalty columns for a rate of median wall `wall`
/// that recorded `spans` spans, against the untraced median `off`.
fn penalty(rate: Option<u64>, wall: f64, off: f64, spans: usize) -> [String; 2] {
    if rate.is_none() {
        return ["-".into(), "-".into()];
    }
    [
        format!("{:+.1}%", 100.0 * (wall - off) / off.max(1e-9)),
        format!("{:.0}", (wall - off) * 1e9 / spans.max(1) as f64),
    ]
}

fn rate_label(rate: Option<u64>) -> String {
    match rate {
        None => "off".into(),
        Some(1) => "1/1".into(),
        Some(n) => format!("1/{n}"),
    }
}

fn harness_trace(isps: u32, users_per_isp: u32, days: u64) -> Vec<SendEvent> {
    let traffic = TrafficConfig {
        isps,
        users_per_isp,
        horizon: SimDuration::from_days(days),
        personal_per_user_day: 12.0,
        ..TrafficConfig::default()
    };
    TrafficGenerator::new(traffic).generate(&mut Sampler::new(SEED))
}

fn harness_system(isps: u32, users_per_isp: u32) -> ZmailSystem {
    // Daily billing, bank retries, and the durable WAL store: every
    // span phase the recorder knows — queue, bank_rtt, wal_commit,
    // delivery, ack — is live on this configuration. Low starting
    // balances force auto-topups, which drain the ISP pools below
    // minavail and put real buy/sell bank round-trips on the traces.
    let config = ZmailConfig::builder(isps, users_per_isp)
        .billing_period(SimDuration::from_days(1))
        .bank_retry(Some(SimDuration::from_mins(1)))
        .initial_balance(EPennies(20))
        .avail_bounds(EPennies(100), EPennies(300), EPennies(150))
        .durable()
        .build();
    ZmailSystem::new(config, SEED)
}

/// One full-harness run; returns the report, the drained span log (empty
/// when `rate` is `None`), and the wall clock.
fn run_harness(
    isps: u32,
    users_per_isp: u32,
    trace: &[SendEvent],
    rate: Option<u64>,
) -> (RunReport, SpanLog, f64) {
    let mut system = harness_system(isps, users_per_isp);
    let recorder = rate.map(|n| {
        let r = FlightRecorder::new(RING);
        r.set_sampling(n);
        system.attach_flight_recorder(r.clone());
        r
    });
    let start = Instant::now();
    let report = system.run_trace(trace);
    let wall = start.elapsed().as_secs_f64();
    let log = recorder
        .map(|r| {
            r.finalize(system.now().as_millis());
            r.drain()
        })
        .unwrap_or_default();
    (report, log, wall)
}

/// Sampling-rate overhead on the full protocol harness. Returns
/// `(ok, full-sampling span log)` — the log feeds the attribution view.
fn harness_overhead(isps: u32, users_per_isp: u32, days: u64) -> (bool, SpanLog) {
    let trace = harness_trace(isps, users_per_isp, days);
    println!(
        "recorder overhead: ZmailWorld, {isps} ISPs x {users_per_isp} users, {days} days, \
         daily billing + durable WAL; {} workload sends",
        trace.len()
    );
    let mut table = Table::new(&[
        "sampling",
        "traces",
        "spans",
        "dropped",
        "wall",
        "sends/s",
        "overhead",
        "ns/span",
        "identical",
    ]);
    let mut ok = true;
    let mut reference: Option<RunReport> = None;
    let mut same = [true; RATES.len()];
    let mut walls = vec![Vec::new(); RATES.len()];
    let mut logs = vec![SpanLog::default(); RATES.len()];
    for _ in 0..HARNESS_REPS {
        for (i, rate) in RATES.into_iter().enumerate() {
            let (report, log, wall) = run_harness(isps, users_per_isp, &trace, rate);
            same[i] &= *reference.get_or_insert(report.clone()) == report;
            ok &= log.validate().is_ok() && log.dropped == 0;
            walls[i].push(wall);
            logs[i] = log;
        }
    }
    let walls: Vec<f64> = walls.into_iter().map(median).collect();
    for (i, rate) in RATES.into_iter().enumerate() {
        let log = &logs[i];
        ok &= same[i];
        let [overhead, per_span] = penalty(rate, walls[i], walls[0], log.spans.len());
        table.row_owned(vec![
            rate_label(rate),
            log.traces().len().to_string(),
            log.spans.len().to_string(),
            log.dropped.to_string(),
            format!("{:.3}s", walls[i]),
            format!("{:.0}", trace.len() as f64 / walls[i].max(1e-9)),
            overhead,
            per_span,
            if same[i] { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let full_log = logs.pop().expect("1/1 is the last rate");
    println!("{table}");
    println!(
        "(identical = RunReport byte-equal to the untraced baseline, digest\n\
         checksum included: the recorder observes, it never steers. Span\n\
         timestamps are sim-clock, so overhead is pure bookkeeping. wall is\n\
         the median of {HARNESS_REPS} runs per rate, the rates taken in turn.)\n"
    );
    (ok, full_log)
}

/// Sampling-rate overhead on the million-user sharded-ledger world.
fn massive_overhead(users_per_isp: u32, ticks: u32, sends_per_tick: u32) -> bool {
    let cfg = MassiveConfig {
        isps: 10,
        users_per_isp,
        ticks,
        sends_per_tick,
        durability: DurabilityConfig {
            shards: 4,
            ..DurabilityConfig::default()
        },
        ..MassiveConfig::default()
    };
    println!(
        "recorder overhead: MassiveWorld, {} users / {} ISPs, {} sends over {} ticks",
        cfg.users(),
        cfg.isps,
        u64::from(ticks) * u64::from(sends_per_tick),
        ticks
    );
    let mut table = Table::new(&[
        "sampling",
        "traces",
        "spans",
        "wall",
        "ev/s",
        "overhead",
        "ns/span",
        "identical",
    ]);
    let mut ok = true;
    let mut reference = None;
    let mut same = [true; RATES.len()];
    let mut walls = vec![Vec::new(); RATES.len()];
    let mut logs = vec![SpanLog::default(); RATES.len()];
    for _ in 0..MASSIVE_REPS {
        for (i, rate) in RATES.into_iter().enumerate() {
            let recorder = rate.map(|n| {
                let recorder = FlightRecorder::new(RING);
                recorder.set_sampling(n);
                recorder
            });
            let start = Instant::now();
            let report = match &recorder {
                None => run_massive(&cfg, 4),
                Some(recorder) => run_massive_traced(&cfg, 4, recorder.clone()),
            };
            walls[i].push(start.elapsed().as_secs_f64());
            logs[i] = recorder.map_or_else(SpanLog::default, |recorder| {
                recorder.finalize(u64::from(ticks) * 1000);
                recorder.drain()
            });
            same[i] &= *reference.get_or_insert(report) == report;
            ok &= logs[i].validate().is_ok();
        }
    }
    let walls: Vec<f64> = walls.into_iter().map(median).collect();
    let events = reference.map_or(0, |r| r.events);
    for (i, rate) in RATES.into_iter().enumerate() {
        let log = &logs[i];
        ok &= same[i];
        let [overhead, per_span] = penalty(rate, walls[i], walls[0], log.spans.len());
        table.row_owned(vec![
            rate_label(rate),
            log.traces().len().to_string(),
            log.spans.len().to_string(),
            format!("{:.3}s", walls[i]),
            format!("{:.0}", events as f64 / walls[i].max(1e-9)),
            overhead,
            per_span,
            if same[i] { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "(identical = MassiveReport equal to the untraced run — paid count,\n\
         event digest, and books CRC all included. wall is the median of\n\
         {MASSIVE_REPS} runs per rate, the rates taken in turn.)\n"
    );
    ok
}

/// The payoff: per-phase latency attribution and the slowest lifecycles.
fn attribution_view(log: &SpanLog) {
    let registry = Registry::new();
    registry.set_enabled(true);
    attribute(log, &registry);
    let snap = registry.snapshot();
    println!("latency attribution (full-sampling harness run, sim-clock ms):");
    let mut table = Table::new(&["phase", "n", "p50", "p99", "p999", "max"]);
    for (name, h) in &snap.histograms {
        if let Some(phase) = name.strip_prefix("trace.phase.") {
            table.row_owned(vec![
                phase.to_string(),
                h.count.to_string(),
                h.p50().unwrap_or(0).to_string(),
                h.p99().unwrap_or(0).to_string(),
                h.p999().unwrap_or(0).to_string(),
                h.max.to_string(),
            ]);
        }
    }
    println!("{table}");
    println!("slowest lifecycles (root-to-last-span wall):");
    for summary in log.slowest_traces(3) {
        let path: Vec<String> = log
            .critical_path(summary.trace)
            .iter()
            .map(|s| format!("{}@{}+{}ms", s.phase, s.node, s.duration()))
            .collect();
        println!(
            "  trace {:016x}  {}ms  {} spans  [{}]  critical path: {}",
            summary.trace,
            summary.duration(),
            summary.spans,
            summary.detail,
            path.join(" -> ")
        );
    }
    println!();
}

fn main() {
    let experiment = Report::new(
        "E19: flight-recorder overhead",
        "causal lifecycle tracing is cheap enough to leave on (head sampling makes it a dial, not a switch) and never perturbs the run",
    );
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (a, full_log, b) = if smoke {
        println!("(--smoke: reduced workloads, same code paths)\n");
        let (a, log) = harness_overhead(3, 10, 1);
        let b = massive_overhead(1_000, 4, 2_500);
        (a, log, b)
    } else {
        let (a, log) = harness_overhead(10, 40, 3);
        let b = massive_overhead(20_000, 8, 10_000);
        (a, log, b)
    };
    attribution_view(&full_log);
    let ok = a && b;
    experiment.finish(
        ok,
        "every traced run identical to its untraced baseline at all sampling rates, on both worlds",
    );
    if !ok {
        std::process::exit(1);
    }
}
