//! E18 — The price of proof: footprint race-detector overhead and the
//! full protocol harness on the tick-parallel path.
//!
//! PR 6 made the million-user ledger parallel; this PR makes the
//! parallelism *checkable*. Two questions matter for keeping the
//! checker on by default in development runs:
//!
//! 1. **What does checking cost?** `CheckedWorld` re-derives every
//!    event's declared footprint, replays the batch-selection decision,
//!    and diffs recorded accesses — all on the serial apply path. The
//!    first table runs the E17 sharded-ledger world checked vs.
//!    unchecked at matched thread counts and reports the events/s
//!    penalty.
//! 2. **What does the full harness gain?** `ZmailWorld` — every ISP,
//!    the bank, latency-modelled delivery, billing — implements the
//!    `zmail_sim::World` contract with footprints developed under the
//!    checker. The second table drives a multi-day deployment through
//!    `run_trace_parallel` at 1/2/4/8 threads, asserting byte-identical
//!    reports while measuring events/s, plus one armed run so the
//!    `racecheck.*` counters land in the obs registry.
//!
//! Mode: `--smoke` shrinks both workloads to a seconds-scale CI gate
//! over the same code paths.

use std::time::Instant;
use zmail_bench::Report;
use zmail_core::{
    run_massive, run_massive_checked, DurabilityConfig, MassiveConfig, RunReport, ZmailConfig,
    ZmailSystem,
};
use zmail_sim::workload::{SendEvent, TrafficConfig, TrafficGenerator};
use zmail_sim::{Sampler, SimDuration, Table};

fn massive_config(users_per_isp: u32, ticks: u32, sends_per_tick: u32) -> MassiveConfig {
    MassiveConfig {
        isps: 10,
        users_per_isp,
        ticks,
        sends_per_tick,
        durability: DurabilityConfig {
            shards: 4,
            ..DurabilityConfig::default()
        },
        ..MassiveConfig::default()
    }
}

/// Checked vs. unchecked events/s on the E17 sharded-ledger world.
/// Returns false if the checker found anything or perturbed the run.
fn checker_overhead(users_per_isp: u32, ticks: u32, sends_per_tick: u32) -> bool {
    let cfg = massive_config(users_per_isp, ticks, sends_per_tick);
    println!(
        "checker overhead: MassiveWorld, {} users / {} ISPs, {} sends over {} ticks",
        cfg.users(),
        cfg.isps,
        u64::from(ticks) * u64::from(sends_per_tick),
        ticks
    );
    let mut table = Table::new(&[
        "threads",
        "unchecked ev/s",
        "checked ev/s",
        "overhead",
        "events checked",
        "findings",
    ]);
    let mut ok = true;
    for threads in [1usize, 4] {
        let start = Instant::now();
        let unchecked = run_massive(&cfg, threads);
        let plain_wall = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let (checked, racecheck) = run_massive_checked(&cfg, threads);
        let checked_wall = start.elapsed().as_secs_f64();

        // Checking is observation: the books must not move.
        ok &= racecheck.findings.is_empty();
        ok &= (checked.paid, checked.digest_checksum, checked.books_crc)
            == (
                unchecked.paid,
                unchecked.digest_checksum,
                unchecked.books_crc,
            );

        let events = unchecked.events as f64;
        let plain_rate = events / plain_wall.max(1e-9);
        let checked_rate = events / checked_wall.max(1e-9);
        table.row_owned(vec![
            threads.to_string(),
            format!("{plain_rate:.0}"),
            format!("{checked_rate:.0}"),
            format!(
                "{:+.1}%",
                100.0 * (checked_wall - plain_wall) / plain_wall.max(1e-9)
            ),
            racecheck.events_checked.to_string(),
            racecheck.findings.len().to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "(overhead is wall-clock; the checker replays batch selection and\n\
         diffs every recorded access on the serial apply path. findings = 0\n\
         means the E17 footprints are exact on this workload.)\n"
    );
    ok
}

fn harness_trace(isps: u32, users_per_isp: u32, days: u64, seed: u64) -> Vec<SendEvent> {
    let traffic = TrafficConfig {
        isps,
        users_per_isp,
        horizon: SimDuration::from_days(days),
        personal_per_user_day: 12.0,
        ..TrafficConfig::default()
    };
    TrafficGenerator::new(traffic).generate(&mut Sampler::new(seed))
}

fn harness_system(isps: u32, users_per_isp: u32, seed: u64) -> ZmailSystem {
    let config = ZmailConfig::builder(isps, users_per_isp)
        .billing_period(SimDuration::from_days(1))
        .bank_retry(Some(SimDuration::from_mins(1)))
        .build();
    ZmailSystem::new(config, seed)
}

/// Full-harness tick-parallel throughput: serial baseline, 1/2/4/8
/// stage threads (byte-identical reports asserted), and one armed run
/// for the checker's cost on the richest world in the codebase.
fn harness_throughput(isps: u32, users_per_isp: u32, days: u64) -> bool {
    const SEED: u64 = 18;
    let trace = harness_trace(isps, users_per_isp, days, SEED);

    // One armed run up front: yields the exact event count for the
    // rate denominator and pushes racecheck.* into the obs registry.
    let mut armed = harness_system(isps, users_per_isp, SEED);
    armed.enable_racecheck();
    let start = Instant::now();
    let armed_report = armed.run_trace_parallel(&trace, 4);
    let armed_wall = start.elapsed().as_secs_f64();
    let racecheck = armed.racecheck_report();
    let events = racecheck.events_checked;

    println!(
        "full harness: ZmailWorld, {isps} ISPs x {users_per_isp} users, {days} days, \
         daily billing; {} workload sends -> {events} simulator events",
        trace.len()
    );

    let start = Instant::now();
    let mut serial_system = harness_system(isps, users_per_isp, SEED);
    let reference = serial_system.run_trace(&trace);
    let serial_wall = start.elapsed().as_secs_f64();
    serial_system.audit().expect("serial run must audit clean");

    let mut table = Table::new(&["path", "threads", "events/s", "wall", "identical"]);
    let row = |table: &mut Table, path: &str, threads: &str, wall: f64, same: bool| {
        table.row_owned(vec![
            path.to_string(),
            threads.to_string(),
            format!("{:.0}", events as f64 / wall.max(1e-9)),
            format!("{:.3}s", wall),
            if same { "yes" } else { "NO" }.to_string(),
        ]);
    };
    row(&mut table, "serial", "-", serial_wall, true);

    let mut ok = racecheck.findings.is_empty();
    ok &= armed_report == reference;
    for threads in [1usize, 2, 4, 8] {
        let mut system = harness_system(isps, users_per_isp, SEED);
        let start = Instant::now();
        let report: RunReport = system.run_trace_parallel(&trace, threads);
        let wall = start.elapsed().as_secs_f64();
        let same = report == reference;
        ok &= same;
        row(&mut table, "parallel", &threads.to_string(), wall, same);
    }
    row(&mut table, "parallel+racecheck", "4", armed_wall, true);
    println!("{table}");

    let registry = zmail_obs::global();
    println!(
        "racecheck counters (obs registry): events={} findings={}",
        registry.counter("racecheck.events").get(),
        registry.counter("racecheck.findings").get(),
    );
    println!(
        "(identical = RunReport byte-equal to the serial baseline, digest\n\
         checksum included. The armed row is the checker's full-harness\n\
         cost; its findings count is folded into the verdict below.)\n"
    );
    ok
}

fn main() {
    let experiment = Report::new(
        "E18: racecheck overhead + full-harness tick-parallel throughput",
        "the footprint race detector is cheap enough to leave on in development runs, and the full protocol harness — ISPs, bank, billing, latency — runs tick-parallel with byte-identical reports under a clean racecheck",
    );
    zmail_obs::global().set_enabled(true);
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ok = if smoke {
        println!("(--smoke: reduced workloads, same code paths)\n");
        let a = checker_overhead(1_000, 4, 2_500);
        let b = harness_throughput(3, 10, 1);
        a && b
    } else {
        let a = checker_overhead(20_000, 8, 10_000);
        let b = harness_throughput(10, 40, 3);
        a && b
    };
    experiment.finish(
        ok,
        "zero findings on both worlds, checked books identical to unchecked, and every parallel RunReport byte-identical to serial",
    );
    if !ok {
        std::process::exit(1);
    }
}
