//! E18 — The price of proof: footprint race-detector overhead on the
//! tick-parallel sharded-ledger world, and the full protocol harness
//! checked.
//!
//! The million-user ledger stages each tick's independent events on
//! worker threads; the footprint contract makes that parallelism
//! *checkable*. Two questions matter for keeping the checker on by
//! default in development runs:
//!
//! 1. **What does checking cost?** `CheckedWorld` re-derives every
//!    event's declared footprint, replays the batch-selection decision,
//!    and diffs recorded accesses — all on the serial apply path. The
//!    first table runs the E17 sharded-ledger world checked vs.
//!    unchecked at matched thread counts and reports the events/s
//!    penalty.
//! 2. **Are the full harness's footprints exact?** `ZmailWorld` — every
//!    ISP, the bank, latency-modelled delivery, billing — implements the
//!    `zmail_sim::World` contract with footprints developed under the
//!    checker. Its ticks hold about one event each, so it runs serially
//!    (`run_trace`); the second table drives a multi-day deployment
//!    unchecked and checked, asserting byte-identical reports and zero
//!    findings while measuring events/s, and the armed run puts the
//!    `racecheck.*` counters in the obs registry.
//!
//! Each wall-clock figure is the median of repetitions that alternate
//! the unchecked and the checked run, with the obs registry off; one
//! more checked run per configuration, with it on, is the run whose
//! findings and `racecheck.*` counters are reported.
//!
//! Mode: `--smoke` shrinks both workloads to a seconds-scale CI gate
//! over the same code paths.

use std::time::Instant;
use zmail_bench::Report;
use zmail_core::{
    run_massive, run_massive_checked, DurabilityConfig, MassiveConfig, ZmailConfig, ZmailSystem,
};
use zmail_sim::workload::{SendEvent, TrafficConfig, TrafficGenerator};
use zmail_sim::{Sampler, SimDuration, Table};

/// Repetitions of each side of an overhead comparison.
const REPS: usize = 9;

/// Median wall-clock seconds of `unchecked` and of `checked`, run
/// [`REPS`] times each, alternating, with the obs registry off so that
/// timing runs feed no counter.
fn median_walls(mut unchecked: impl FnMut(), mut checked: impl FnMut()) -> (f64, f64) {
    let registry = zmail_obs::global();
    let was_enabled = registry.is_enabled();
    registry.set_enabled(false);
    let mut walls = [Vec::new(), Vec::new()];
    for _ in 0..REPS {
        for (side, walls) in walls.iter_mut().enumerate() {
            let start = Instant::now();
            if side == 0 {
                unchecked();
            } else {
                checked();
            }
            walls.push(start.elapsed().as_secs_f64());
        }
    }
    registry.set_enabled(was_enabled);
    let [plain, armed] = walls.map(|mut walls| {
        walls.sort_by(f64::total_cmp);
        walls[walls.len() / 2]
    });
    (plain, armed)
}

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
        let unchecked = run_massive(&cfg, threads);
        let (checked, racecheck) = run_massive_checked(&cfg, threads);

        // Checking is observation: the books must not move.
        ok &= racecheck.findings.is_empty();
        ok &= (checked.paid, checked.digest_checksum, checked.books_crc)
            == (
                unchecked.paid,
                unchecked.digest_checksum,
                unchecked.books_crc,
            );
        let (plain_wall, checked_wall) = median_walls(
            || {
                run_massive(&cfg, threads);
            },
            || drop(run_massive_checked(&cfg, threads)),
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
        "(overhead is wall-clock, medians of {REPS} alternating runs a side;\n\
         the checker replays batch selection and diffs every recorded access\n\
         on the serial apply path. findings = 0 means the E17 footprints are\n\
         exact on this workload.)\n"
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

/// The full harness checked: one armed run (zero findings, report
/// byte-identical to the unchecked run) and the checker's cost on the
/// richest world in the codebase.
fn harness_throughput(isps: u32, users_per_isp: u32, days: u64) -> bool {
    const SEED: u64 = 18;
    let trace = harness_trace(isps, users_per_isp, days, SEED);

    // One armed run up front: yields the exact event count for the
    // rate denominator and pushes racecheck.* into the obs registry.
    let mut armed = harness_system(isps, users_per_isp, SEED);
    armed.enable_racecheck();
    let armed_report = armed.run_trace(&trace);
    let racecheck = armed.racecheck_report();
    let events = racecheck.events_checked;

    println!(
        "full harness: ZmailWorld, {isps} ISPs x {users_per_isp} users, {days} days, \
         daily billing; {} workload sends -> {events} simulator events",
        trace.len()
    );

    let mut serial_system = harness_system(isps, users_per_isp, SEED);
    let reference = serial_system.run_trace(&trace);
    serial_system.audit().expect("serial run must audit clean");
    let (serial_wall, armed_wall) = median_walls(
        || drop(harness_system(isps, users_per_isp, SEED).run_trace(&trace)),
        || {
            let mut armed = harness_system(isps, users_per_isp, SEED);
            armed.enable_racecheck();
            drop(armed.run_trace(&trace));
        },
    );

    let same = armed_report == reference;
    let ok = racecheck.findings.is_empty() && same;
    let mut table = Table::new(&["path", "events/s", "wall", "identical"]);
    for (path, wall, same) in [
        ("serial", serial_wall, true),
        ("serial+racecheck", armed_wall, same),
    ] {
        table.row_owned(vec![
            path.to_string(),
            format!("{:.0}", events as f64 / wall.max(1e-9)),
            format!("{:.3}s", wall),
            if same { "yes" } else { "NO" }.to_string(),
        ]);
    }
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
         cost, wall the median of {REPS} alternating runs a side; its\n\
         findings count is folded into the verdict below.)\n"
    );
    ok
}

fn main() {
    let experiment = Report::new(
        "E18: racecheck overhead + the full harness checked",
        "the footprint race detector is cheap enough to leave on in development runs, and the full protocol harness — ISPs, bank, billing, latency — declares exact footprints: a clean racecheck, with the checked run's report byte-identical to the unchecked one",
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
        "zero findings on both worlds, and checked books and RunReports identical to unchecked",
    );
    if !ok {
        std::process::exit(1);
    }
}
