//! CI gate for the full-protocol harness's `World` contract:
//! over the 10 frozen fault-scenario seeds, the tick-parallel path must
//! produce byte-identical outcomes at every thread count, and the
//! footprint race detector must find nothing to complain about — the
//! hand-written `ZmailWorld` footprints are exact, even while faults
//! drop, duplicate, delay, and crash their way through the run.

use zmail::fault_scenarios::Scenario;
use zmail::obs::{attribute, FlightRecorder, Registry};

/// The same frozen seeds as `tests/fault_scenarios.rs`: bounded
/// runtime, reproducible coverage. Chosen arbitrarily, then frozen.
const SEEDS: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 42, 81, 1337];

#[test]
fn parallel_outcomes_are_byte_identical_across_thread_counts() {
    for seed in SEEDS {
        let scenario = Scenario::random(seed);
        let reference = scenario.run();
        for threads in [1usize, 2, 4, 8] {
            let parallel = scenario.run_parallel(threads);
            assert_eq!(
                parallel.report, reference.report,
                "seed {seed}: RunReport diverged at {threads} threads"
            );
            assert_eq!(
                parallel.counters, reference.counters,
                "seed {seed}: fault counters diverged at {threads} threads"
            );
            assert_eq!(
                parallel.violations, reference.violations,
                "seed {seed}: violations diverged at {threads} threads"
            );
        }
        // The staged digest work actually happened: a run with traffic
        // never folds to the zero checksum.
        assert_ne!(reference.report.digest_checksum, 0, "seed {seed}");
    }
}

#[test]
fn trace_streams_are_byte_identical_across_thread_counts() {
    // The flight-recorder contract from the same angle: with full
    // sampling, the span stream and the folded `trace.phase.*` latency
    // metrics are pure functions of plan + seed, whatever the thread
    // count — and whatever the fault plan does to the run.
    let phase_metrics = |log: &zmail::obs::SpanLog| {
        let registry = Registry::new();
        registry.set_enabled(true);
        attribute(log, &registry);
        registry.snapshot()
    };
    for seed in [2u64, 42, 1337] {
        let scenario = Scenario::random(seed).with_durability();
        let (reference, ref_log) = scenario.run_traced(FlightRecorder::new(1 << 20));
        ref_log
            .validate()
            .unwrap_or_else(|e| panic!("seed {seed}: malformed serial trace: {e}"));
        assert!(
            !ref_log.spans.is_empty(),
            "seed {seed}: no spans recorded — the gate is vacuous"
        );
        let ref_snapshot = phase_metrics(&ref_log);
        for threads in [1usize, 2, 4, 8] {
            let (outcome, log) =
                scenario.run_traced_parallel(threads, FlightRecorder::new(1 << 20));
            assert_eq!(
                outcome.report, reference.report,
                "seed {seed}: traced RunReport diverged at {threads} threads"
            );
            assert_eq!(
                log, ref_log,
                "seed {seed}: span stream diverged at {threads} threads"
            );
            assert_eq!(
                phase_metrics(&log),
                ref_snapshot,
                "seed {seed}: trace.phase.* metrics diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn racecheck_is_clean_over_every_frozen_seed() {
    for seed in SEEDS {
        let scenario = Scenario::random(seed);
        let (outcome, racecheck) = scenario.run_racechecked(4);
        assert!(outcome.is_ok(), "{}", scenario.failure_report(&outcome));
        assert!(
            racecheck.findings.is_empty(),
            "seed {seed}: footprint findings (including warnings):\n{}",
            racecheck.render()
        );
        assert!(
            racecheck.events_checked > 0,
            "seed {seed}: the checker observed nothing — the gate is vacuous"
        );
    }
}

#[test]
fn racecheck_is_clean_with_durability_and_billing() {
    // The widest configuration: durable stores journalling every
    // mutation, daily billing rounds resetting credit, plus the random
    // fault plan. Still zero findings — store persistence is outside
    // the footprint domain by design, and the billing events' declared
    // keys are exact.
    for seed in [3u64, 42] {
        let mut scenario = Scenario::random(seed).with_durability();
        scenario.daily_billing = true;
        let (outcome, racecheck) = scenario.run_racechecked(2);
        assert!(outcome.is_ok(), "{}", scenario.failure_report(&outcome));
        assert!(
            racecheck.findings.is_empty(),
            "seed {seed}:\n{}",
            racecheck.render()
        );
    }
}

#[test]
fn checked_parallel_outcome_matches_unchecked_serial() {
    // Arming the detector is pure observation: the checked parallel
    // run's report is byte-identical to the plain serial run.
    for seed in [8u64, 1337] {
        let scenario = Scenario::random(seed);
        let reference = scenario.run();
        let (checked, _) = scenario.run_racechecked(4);
        assert_eq!(checked.report, reference.report, "seed {seed}");
        assert_eq!(checked.violations, reference.violations, "seed {seed}");
    }
}
