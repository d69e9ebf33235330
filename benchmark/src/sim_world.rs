//! `sim_world`: the full protocol world, in process and on one thread.
//! A `TrafficGenerator` trace (8 ISPs × 200 users, 20 days, ~320k sends)
//! runs through `ZmailSystem::run_trace` with `.durable()` defaults (one
//! shard, a commit per event, a checkpoint every 1024 records), then the
//! conservation audit and the recovery audit. SMTP is not involved.
//!
//! A repetition is set-up (generate the trace, build the deployment)
//! followed by the timed operation (run, audit, verify); every
//! repetition of one seed must produce the identical `RunReport`.

use crate::tap::Tap;
use crate::util::{for_rounds, median, metric, micros, quiet, relative_iqr, time_into};
use crate::{Outcome, Pass};
use std::sync::Arc;
use std::time::Instant;
use zmail_core::{RunReport, ZmailConfig, ZmailSystem};
use zmail_sim::{Sampler, SendEvent, SimDuration, TrafficConfig, TrafficGenerator};

struct Scale {
    isps: u32,
    users_per_isp: u32,
    days: u64,
}

impl Scale {
    fn of(pass: &Pass) -> Scale {
        if pass.smoke {
            Scale {
                isps: 8,
                users_per_isp: 50,
                days: 2,
            }
        } else {
            Scale {
                isps: 8,
                users_per_isp: 200,
                days: 20,
            }
        }
    }

    fn trace(&self, seed: u64) -> Vec<SendEvent> {
        let traffic = TrafficConfig {
            isps: self.isps,
            users_per_isp: self.users_per_isp,
            horizon: SimDuration::from_days(self.days),
            ..TrafficConfig::default()
        };
        TrafficGenerator::new(traffic).generate(&mut Sampler::new(seed))
    }

    fn system(&self, seed: u64, durable: bool) -> ZmailSystem {
        let builder = ZmailConfig::builder(self.isps, self.users_per_isp);
        let config = if durable {
            builder.durable().build()
        } else {
            builder.build()
        };
        ZmailSystem::new(config, seed)
    }
}

/// Every span of a repetition hangs under its `repetition` span.
const ROUND: Option<&str> = Some("repetition");

/// What the repetitions of one pass accumulate.
#[derive(Default)]
struct Reps {
    /// One sample per repetition: run, audit and verify.
    ops_us: Vec<f64>,
    setup_s: Vec<f64>,
    generate_ms: Vec<f64>,
    new_ms: Vec<f64>,
    run_us: Vec<f64>,
    audit_ms: Vec<f64>,
    sends: u64,
    refused: u64,
    delivered: u64,
    report: Option<RunReport>,
    gates: Vec<String>,
}

/// One repetition. `id` files its spans; the store counters a traced
/// repetition moves are read by the caller through registry deltas.
fn repetition(scale: &Scale, seed: u64, durable: bool, id: u64, tap: &Tap, reps: &mut Reps) {
    let setup_start = Instant::now();
    let trace = tap.timed("workload.generate", "sim.workload", ROUND, id, || {
        scale.trace(seed)
    });
    let generated = Instant::now();
    let mut system = tap.timed("system.new", "core.system", ROUND, id, || {
        scale.system(seed, durable)
    });
    let built = Instant::now();
    reps.setup_s.push((built - setup_start).as_secs_f64());
    reps.generate_ms
        .push((generated - setup_start).as_secs_f64() * 1e3);
    reps.new_ms.push((built - generated).as_secs_f64() * 1e3);

    let (report, audit, verified, run_took, audit_took) = time_into(&mut reps.ops_us, || {
        let run_start = Instant::now();
        let report = tap.timed("system.run_trace", "core.system", ROUND, id, || {
            system.run_trace(&trace)
        });
        let run_took = run_start.elapsed();
        let audit_start = Instant::now();
        let (audit, verified) = tap.timed("system.audit", "core.system", ROUND, id, || {
            (system.audit(), system.verify_durable_books())
        });
        (report, audit, verified, run_took, audit_start.elapsed())
    });
    tap.span(
        "repetition",
        "benchmark",
        None,
        id,
        setup_start,
        Instant::now(),
    );
    reps.run_us.push(micros(run_took));
    reps.audit_ms.push(audit_took.as_secs_f64() * 1e3);

    let delivered = report.delivered_total();
    reps.sends += trace.len() as u64;
    reps.refused += trace.len() as u64 - delivered;
    reps.delivered = delivered;
    if let Err(e) = audit {
        reps.gates
            .push(format!("repetition {id}: audit() failed: {e:?}"));
    }
    if verified != durable.then_some(true) {
        reps.gates.push(format!(
            "repetition {id}: verify_durable_books() = {verified:?}"
        ));
    }
    match &reps.report {
        Some(first) if *first != report => reps
            .gates
            .push(format!("repetition {id}: RunReport differs from the first")),
        Some(_) => {}
        None => reps.report = Some(report),
    }
}

pub fn run(pass: &Pass) -> Outcome {
    let scale = Scale::of(pass);
    let mut outcome = Outcome::default();
    let untraced = Tap::new(false);
    if !pass.trace {
        let mut reps = Reps::default();
        for_rounds(pass.seconds, |id| {
            repetition(&scale, pass.seed, true, id, &untraced, &mut reps);
        });
        outcome.attempted = reps.sends;
        outcome.failed = reps.refused;
        outcome.metrics = vec![
            metric("setup_s", quiet(&reps.setup_s), "s"),
            metric("op_us", quiet(&reps.ops_us), "us"),
            metric(
                "work_per_s",
                reps.delivered as f64 / (quiet(&reps.ops_us) / 1e6),
                "1/s",
            ),
        ];
        outcome.diagnostics = vec![
            metric("repetition_p50_us", median(&reps.ops_us), "us"),
            metric("repetitions", reps.setup_s.len() as f64, "count"),
            metric("repetition_iqr_share", relative_iqr(&reps.ops_us), "share"),
            metric("delivered_per_repetition", reps.delivered as f64, "count"),
        ];
        outcome.gates = reps.gates;
        return outcome;
    }

    // Each repetition runs three ways back to back, so the three see the
    // same host: untraced; traced; and traced without durability, whose
    // difference from the second is the journal's cost and nothing else.
    let registry = zmail_obs::global();
    let tap = Arc::new(Tap::new(true));
    let (mut reference, mut traced, mut volatile) =
        (Reps::default(), Reps::default(), Reps::default());
    registry.reset();
    let mut after_first = registry.snapshot();
    for_rounds(pass.seconds * 0.9, |id| {
        repetition(&scale, pass.seed, true, id, &untraced, &mut reference);
        registry.set_enabled(true);
        repetition(&scale, pass.seed, true, id, &tap, &mut traced);
        if id == 0 {
            // The first traced repetition's store counts are a pure
            // function of the seed.
            after_first = registry.snapshot();
        }
        repetition(&scale, pass.seed, false, id, &tap, &mut volatile);
        registry.set_enabled(false);
    });
    let counter = |name: &str| after_first.counters.get(name).copied().unwrap_or(0);
    let (records, commits, wal_bytes, checkpoints) = (
        counter("store.appends"),
        counter("store.commits"),
        counter("store.wal_bytes"),
        counter("store.checkpoints"),
    );

    let events = traced.delivered as f64;
    let durable_ns = quiet(&traced.run_us) * 1e3 / events;
    let volatile_ns = quiet(&volatile.run_us) * 1e3 / events;
    let traced_op = quiet(&traced.ops_us);
    let reference_op = quiet(&reference.ops_us);

    outcome.attempted = reference.sends + traced.sends + volatile.sends;
    outcome.failed = reference.refused + traced.refused + volatile.refused;
    outcome.metrics = vec![
        metric(
            "sim.workload.generate_ms",
            median(&traced.generate_ms),
            "ms",
        ),
        metric("core.system.new_ms", median(&traced.new_ms), "ms"),
        metric("core.system.run_ns_per_event", volatile_ns, "ns"),
        metric("store.journal_ns_per_event", durable_ns - volatile_ns, "ns"),
        metric("store.records_per_event", records as f64 / events, "count"),
        metric("store.wal_bytes_per_event", wal_bytes as f64 / events, "B"),
        // One sync per group commit and one per checkpoint image.
        metric(
            "store.syncs_per_event",
            (commits + checkpoints) as f64 / events,
            "count",
        ),
        metric("store.checkpoints", checkpoints as f64, "count"),
        metric("core.system.audit_ms", median(&traced.audit_ms), "ms"),
        metric(
            "obs.overhead_share",
            (traced_op - reference_op) / reference_op,
            "share",
        ),
    ];
    outcome.diagnostics = vec![
        metric("op_us.untraced", reference_op, "us"),
        metric("op_us.traced", traced_op, "us"),
        metric("store.durable_ns_per_event", durable_ns, "ns"),
    ];
    let report = traced.report.as_ref().expect("one repetition ran");
    outcome.exact = vec![
        (
            "sim.trace_sends",
            traced.sends / traced.setup_s.len() as u64,
        ),
        ("core.system.delivered", traced.delivered),
        ("core.system.digest_checksum", report.digest_checksum),
        ("store.records", records),
        ("store.commits", commits),
        ("store.wal_bytes", wal_bytes),
        ("store.checkpoints", checkpoints),
    ];
    if reference.report != traced.report {
        outcome
            .gates
            .push("untraced and traced repetitions disagree on the RunReport".into());
    }
    // Durability must not change what the protocol does.
    if volatile.report.as_ref().map(RunReport::delivered_total) != Some(traced.delivered) {
        outcome
            .gates
            .push("the run without durability delivered a different count".into());
    }
    outcome.gates.extend(reference.gates);
    outcome.gates.append(&mut traced.gates);
    outcome.gates.append(&mut volatile.gates);
    outcome.tap = Some(tap);
    outcome
}
