//! `ledger_sharded`: E17's full cell, in process. 10 ISPs × 100k users,
//! 10 ticks × 20k sends over a 4-shard `ShardedLedgerStore` with group
//! commit (`batch_records` 256), checkpoints off, one thread. The
//! sharded WAL, the group commit and the cross-shard outbox (three
//! sends in four cross shards) do the work; `core.system` and SMTP do
//! none.
//!
//! The world is driven through the same public calls `run_massive`
//! makes (`MassiveWorld::new`, `send_at`, one `TickCommit` per tick,
//! `Simulation::step_tick`), split so that bootstrap and scheduling are
//! set-up and the ticks, the zero-sum audit and the recovery audit are
//! the timed operation. The first repetition is checked against
//! `run_massive` itself.

use crate::tap::Tap;
use crate::util::{for_rounds, median, metric, micros, quiet, relative_iqr, time_into};
use crate::{Outcome, Pass};
use std::sync::Arc;
use std::time::Instant;
use zmail_core::massive::MassiveEvent;
use zmail_core::{run_massive, DurabilityConfig, MassiveConfig, MassiveReport, MassiveWorld};
use zmail_sim::{SimDuration, SimTime, Simulation};
use zmail_store::StoreConfig;

fn config(pass: &Pass, shards: u32) -> MassiveConfig {
    let (users_per_isp, ticks, sends_per_tick) = if pass.smoke {
        (1_000, 4, 2_500)
    } else {
        (100_000, 10, 20_000)
    };
    MassiveConfig {
        isps: 10,
        users_per_isp,
        ticks,
        sends_per_tick,
        durability: DurabilityConfig {
            store: StoreConfig {
                batch_records: 256,
                checkpoint_every: u64::MAX,
            },
            shards,
        },
        seed: pass.seed,
        ..MassiveConfig::default()
    }
}

/// Every span of a repetition hangs under its `repetition` span.
const ROUND: Option<&str> = Some("repetition");

#[derive(Default)]
struct Reps {
    /// One sample per repetition: every tick, the audit and the recovery.
    ops_us: Vec<f64>,
    setup_s: Vec<f64>,
    tick_us: Vec<f64>,
    report: Option<MassiveReport>,
    gates: Vec<String>,
}

fn repetition(cfg: &MassiveConfig, id: u64, tap: &Tap, reps: &mut Reps) {
    let setup_start = Instant::now();
    let mut sim = tap.timed("massive.bootstrap", "core.massive", ROUND, id, || {
        Simulation::new(MassiveWorld::new(*cfg))
    });
    for tick in 0..cfg.ticks {
        let at = SimTime::ZERO + SimDuration::from_secs(u64::from(tick));
        for i in 0..cfg.sends_per_tick {
            sim.schedule(at, MassiveEvent::Send(MassiveWorld::send_at(cfg, tick, i)));
        }
        sim.schedule(at, MassiveEvent::TickCommit);
    }
    reps.setup_s.push(setup_start.elapsed().as_secs_f64());

    let tick_us = &mut reps.tick_us;
    let (audit, recovered, report) = time_into(&mut reps.ops_us, || {
        loop {
            let tick_start = Instant::now();
            let more = tap.timed("sim.tick", "sim.engine", ROUND, id, || sim.step_tick(1));
            if !more {
                break;
            }
            tick_us.push(micros(tick_start.elapsed()));
        }
        let world = sim.world();
        let (audit, recovered) = tap.timed("massive.audit", "core.massive", ROUND, id, || {
            (world.audit(), world.verify_recovery())
        });
        // The last tick's commit left nothing pending, so the merged
        // books are final: the same CRC `run_massive` seals its report
        // with.
        let mut report = *world.report();
        report.books_crc = zmail_store::wal::crc32(&world.store().books().encode());
        (audit, recovered, report)
    });

    tap.span(
        "repetition",
        "benchmark",
        None,
        id,
        setup_start,
        Instant::now(),
    );
    if let Err(e) = audit {
        reps.gates.push(format!("repetition {id}: {e}"));
    }
    if !recovered {
        reps.gates
            .push(format!("repetition {id}: recovered books != live books"));
    }
    match &reps.report {
        Some(first) if *first != report => reps.gates.push(format!(
            "repetition {id}: MassiveReport differs from the first: {report:?} vs {first:?}"
        )),
        Some(_) => {}
        None => reps.report = Some(report),
    }
}

fn events_per_s(reps: &Reps) -> f64 {
    let events = reps.report.map_or(0, |r| r.events);
    events as f64 / (quiet(&reps.ops_us) / 1e6)
}

/// Failed operations: sends the ledger refused. The population starts
/// with 100 e-pennies a head, so none is.
fn refused(reps: &Reps) -> u64 {
    let per_rep = reps
        .report
        .map_or(0, |r| r.bounced_balance + r.bounced_limit);
    per_rep * reps.setup_s.len() as u64
}

fn attempted(reps: &Reps) -> u64 {
    reps.report.map_or(0, |r| r.events) * reps.setup_s.len() as u64
}

pub fn run(pass: &Pass) -> Outcome {
    let cfg = config(pass, 4);
    let mut outcome = Outcome::default();
    let untraced = Tap::new(false);
    if !pass.trace {
        let mut reps = Reps::default();
        for_rounds(pass.seconds, |id| {
            repetition(&cfg, id, &untraced, &mut reps)
        });
        outcome.attempted = attempted(&reps);
        outcome.failed = refused(&reps);
        outcome.metrics = vec![
            metric("setup_s", quiet(&reps.setup_s), "s"),
            metric("op_us", quiet(&reps.ops_us), "us"),
            metric("work_per_s", events_per_s(&reps), "1/s"),
        ];
        outcome.diagnostics = vec![
            metric("repetition_p50_us", median(&reps.ops_us), "us"),
            metric("repetitions", reps.setup_s.len() as f64, "count"),
            metric("repetition_iqr_share", relative_iqr(&reps.ops_us), "share"),
        ];
        outcome.gates = reps.gates;
        return outcome;
    }

    // Each repetition runs three ways back to back, so the three see the
    // same host: untraced; traced; and traced on one shard, where no
    // transfer crosses and the outbox idles.
    let registry = zmail_obs::global();
    let tap = Arc::new(Tap::new(true));
    let one_shard_cfg = config(pass, 1);
    let (mut reference, mut traced, mut one_shard) =
        (Reps::default(), Reps::default(), Reps::default());
    registry.reset();
    let mut after_first = registry.snapshot();
    for_rounds(pass.seconds * 0.9, |id| {
        repetition(&cfg, id, &untraced, &mut reference);
        registry.set_enabled(true);
        repetition(&cfg, id, &tap, &mut traced);
        if id == 0 {
            // The first traced repetition's store counts and histograms
            // are a pure function of the seed.
            after_first = registry.snapshot();
        }
        repetition(&one_shard_cfg, id, &tap, &mut one_shard);
        registry.set_enabled(false);
    });
    // `run_massive` is the reference for the hand-driven repetition.
    let sealed = run_massive(&cfg, 1);

    let counter = |name: &str| after_first.counters.get(name).copied().unwrap_or(0);
    let histogram = |name: &str| after_first.histograms.get(name);
    let report = traced.report.expect("one repetition ran");
    let events = report.events as f64;
    let (records, commits) = (counter("store.appends"), counter("store.commits"));
    let xfer_p99 = histogram("shard.xfer_micros").and_then(|h| h.p99());
    let batch_p50 = histogram("store.batch_records").and_then(|h| h.p50());
    let bootstrap_ms: Vec<f64> = tap
        .spans()
        .iter()
        .filter(|s| s.name == "massive.bootstrap")
        .map(|s| s.micros() / 1e3)
        .collect();
    let traced_op = quiet(&traced.ops_us);
    let reference_op = quiet(&reference.ops_us);

    outcome.attempted = attempted(&reference) + attempted(&traced) + attempted(&one_shard);
    outcome.failed = refused(&reference) + refused(&traced) + refused(&one_shard);
    outcome.metrics = vec![
        metric("core.massive.bootstrap_ms", median(&bootstrap_ms), "ms"),
        metric(
            "store.shard.cross_shard_share",
            report.cross_shard as f64 / report.paid.max(1) as f64,
            "share",
        ),
        metric(
            "store.shard.xfer_us_p99",
            xfer_p99.unwrap_or(0) as f64,
            "us",
        ),
        metric(
            "store.batch_records_p50",
            batch_p50.unwrap_or(0) as f64,
            "count",
        ),
        metric(
            "store.shard.records_per_event",
            records as f64 / events,
            "count",
        ),
        metric(
            "store.shard.syncs_per_event",
            commits as f64 / events,
            "count",
        ),
        metric("sim.tick.apply_us_p50", median(&traced.tick_us), "us"),
        metric("store.shard1_events_per_s", events_per_s(&one_shard), "1/s"),
        metric(
            "obs.overhead_share",
            (traced_op - reference_op) / reference_op,
            "share",
        ),
    ];
    outcome.diagnostics = vec![
        metric("op_us.untraced", reference_op, "us"),
        metric("op_us.traced", traced_op, "us"),
    ];
    outcome.exact = vec![
        ("core.massive.events", report.events),
        ("core.massive.paid", report.paid),
        ("core.massive.cross_shard", report.cross_shard),
        ("core.massive.digest_checksum", report.digest_checksum),
        ("core.massive.books_crc", u64::from(report.books_crc)),
        ("store.shard.records", records),
        ("store.shard.commits", commits),
    ];
    if sealed != report {
        outcome.gates.push(format!(
            "hand-driven repetition != run_massive: {report:?} vs {sealed:?}"
        ));
    }
    if reference.report != Some(report) {
        outcome
            .gates
            .push("untraced and traced repetitions disagree on the MassiveReport".into());
    }
    // Shard count changes the WAL layout, never the economics.
    if one_shard
        .report
        .map(|r| (r.paid, r.digest_checksum, r.books_crc))
        != Some((report.paid, report.digest_checksum, report.books_crc))
    {
        outcome
            .gates
            .push("the 1-shard cell ended on different books".into());
    }
    outcome.gates.extend(reference.gates);
    outcome.gates.append(&mut traced.gates);
    outcome.gates.append(&mut one_shard.gates);
    outcome.tap = Some(tap);
    outcome
}
