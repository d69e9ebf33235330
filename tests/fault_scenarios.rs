//! Randomized fault-injection scenarios: the full system must keep its
//! zero-sum, pairwise-consistency, and liveness invariants under any
//! recoverable fault plan, and failures must reproduce and shrink
//! deterministically. The footprint race detector, armed on the same
//! runs, must find nothing: the hand-written `ZmailWorld` footprints are
//! exact even while faults drop, duplicate, delay, and crash their way
//! through the run.

use zmail::fault::{
    ChannelFault, Crash, EndpointSel, Fault, FaultPlan, MsgClass, Partition, Window,
};
use zmail::fault_scenarios::{Scenario, Violation};
use zmail::sim::{SimDuration, SimTime};

/// Fixed seeds for the randomized gate: bounded runtime, reproducible
/// coverage. Chosen arbitrarily, then frozen.
const SEEDS: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 42, 81, 1337];

#[test]
fn reliable_network_scenario_is_clean() {
    let scenario = Scenario::new(1);
    let outcome = scenario.run();
    assert!(outcome.is_ok(), "{}", scenario.failure_report(&outcome));
    assert_eq!(outcome.counters.total_drops(), 0);
    assert_eq!(outcome.counters.duplicates, 0);
    assert!(outcome.report.delivered_total() > 0);
}

#[test]
fn randomized_plans_hold_invariants() {
    let mut total_injected = 0u64;
    for seed in SEEDS {
        let scenario = Scenario::random(seed);
        let outcome = scenario.run();
        assert!(outcome.is_ok(), "{}", scenario.failure_report(&outcome));
        total_injected += outcome.counters.total_drops()
            + outcome.counters.duplicates
            + outcome.counters.delays
            + outcome.counters.reorders;
    }
    // The gate is vacuous if the random plans never actually fire.
    assert!(
        total_injected > 0,
        "no faults injected across any seed — the randomized gate tests nothing"
    );
}

#[test]
fn plan_generation_is_deterministic() {
    for seed in SEEDS {
        assert_eq!(
            Scenario::random(seed).plan,
            Scenario::random(seed).plan,
            "plan generation must be a pure function of the seed"
        );
    }
    // Different seeds should not all collapse onto one plan.
    assert_ne!(Scenario::random(1).plan, Scenario::random(2).plan);
}

#[test]
fn scenario_runs_replay_byte_identically() {
    for seed in [3, 42] {
        let a = Scenario::random(seed).run();
        let b = Scenario::random(seed).run();
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.violations, b.violations);
        assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
    }
}

/// The intentionally failing property: under email loss with daily
/// billing, the misbehavior detector accuses honest ISPs (E13). The
/// failure must reproduce exactly and carry a usable report.
fn known_failing_scenario() -> Scenario {
    let mut scenario = Scenario::new(42).with_plan(FaultPlan::lossy_email(0.05, 0.0));
    scenario.daily_billing = true;
    scenario.require_clean_consistency = true;
    scenario
}

#[test]
fn failing_scenario_reproduces_byte_identically() {
    let scenario = known_failing_scenario();
    let first = scenario.run();
    let second = scenario.run();
    assert!(
        !first.is_ok(),
        "email loss under daily billing should accuse honest ISPs"
    );
    assert!(first
        .violations
        .iter()
        .any(|v| matches!(v, Violation::HonestAccusation { .. })));
    assert_eq!(first.violations, second.violations);
    assert_eq!(first.counters, second.counters);
    let report = scenario.failure_report(&first);
    assert!(
        report.contains("seed 42"),
        "report must carry the seed:\n{report}"
    );
    assert!(report.contains("reproduce with"), "{report}");
}

#[test]
fn shrinker_finds_smaller_still_failing_plan() {
    // Pad the real culprit with clauses that are irrelevant to the
    // failure; the shrinker must strip them back out.
    let mut scenario = known_failing_scenario();
    let padded = scenario
        .plan
        .clone()
        .with(Fault::Channel(ChannelFault {
            delay: 0.1,
            delay_by: SimDuration::from_millis(200),
            ..ChannelFault::inert(MsgClass::Email)
        }))
        .with(Fault::Channel(ChannelFault {
            reorder: 0.05,
            ..ChannelFault::inert(MsgClass::Email)
        }))
        .with(Fault::Channel(ChannelFault {
            drop: 0.1,
            ..ChannelFault::inert(MsgClass::Bank)
        }));
    scenario.plan = padded.clone();
    assert!(!scenario.run().is_ok(), "padded plan must still fail");

    let shrunk = scenario
        .shrink_failure()
        .expect("a failing scenario must shrink");
    assert!(
        shrunk.plan.len() < padded.len(),
        "shrinker must emit a strictly smaller plan ({} clauses vs {})",
        shrunk.plan.len(),
        padded.len()
    );
    assert!(shrunk.tests_run > 1);
    // Still failing…
    let minimal = scenario.clone().with_plan(shrunk.plan.clone());
    assert!(!minimal.run().is_ok(), "shrunk plan must still fail");
    // …and 1-minimal: dropping any single remaining clause makes the
    // failure disappear.
    for skip in 0..shrunk.plan.len() {
        let mut smaller = shrunk.plan.clone();
        smaller.faults.remove(skip);
        if smaller.is_empty() {
            continue; // empty plans trivially pass; nothing to check
        }
        let candidate = scenario.clone().with_plan(smaller);
        assert!(
            candidate.run().is_ok(),
            "shrunk plan was not 1-minimal: clause {skip} is removable"
        );
    }
}

fn crash_plan(isp: u32) -> FaultPlan {
    let day = SimDuration::from_days(1);
    FaultPlan::none().with(Fault::Crash(Crash {
        isp,
        at: SimTime::ZERO + day,
        restart_after: SimDuration::from_mins(45),
    }))
}

#[test]
fn durable_crash_recovery_keeps_every_invariant() {
    // Mid-run crash with the durable store on: the ISP restarts from
    // checkpoint + WAL replay, its recovered books match the pre-crash
    // ones exactly, and the extended zero-sum audit still balances.
    let scenario = Scenario::new(9).with_plan(crash_plan(1)).with_durability();
    let outcome = scenario.run();
    assert!(outcome.is_ok(), "{}", scenario.failure_report(&outcome));
    assert_eq!(
        outcome.report.recoveries.len(),
        1,
        "one crash, one recovery"
    );
    let recovery = &outcome.report.recoveries[0];
    assert!(!recovery.diverged, "recovered books diverged");
    assert!(
        recovery.replayed > 0 || recovery.checkpoint_seq.is_some(),
        "recovery should have replayed journalled state"
    );
}

#[test]
fn durable_crash_recovery_replays_byte_identically() {
    let build = || Scenario::new(13).with_plan(crash_plan(0)).with_durability();
    let a = build().run();
    let b = build().run();
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.counters, b.counters);
    assert_eq!(
        format!("{:?}", a.report),
        format!("{:?}", b.report),
        "crash-recovery must be deterministic under a fixed plan + seed"
    );
}

#[test]
fn randomized_plans_hold_invariants_with_durability() {
    // The randomized gate again, with every mutation journalled and
    // every Crash clause restarting its ISP from real recovery.
    for seed in SEEDS {
        let scenario = Scenario::random(seed).with_durability();
        let outcome = scenario.run();
        assert!(outcome.is_ok(), "{}", scenario.failure_report(&outcome));
        let crashes = scenario
            .plan
            .faults
            .iter()
            .filter(|f| matches!(f, Fault::Crash(_)))
            .count();
        assert_eq!(
            outcome.report.recoveries.len(),
            crashes,
            "seed {seed}: every crash window must end in a store recovery"
        );
    }
}

#[test]
fn structural_faults_are_observed_and_survived() {
    // A two-hour partition between isp0 and isp1 on day 1: emails die
    // while it is open, everything recovers after it closes.
    let day = SimDuration::from_days(1);
    let scenario =
        Scenario::new(7).with_plan(FaultPlan::none().with(Fault::Partition(Partition {
            a: EndpointSel::Isp(0),
            b: EndpointSel::Isp(1),
            window: Window::new(
                SimTime::ZERO + day,
                SimTime::ZERO + day + SimDuration::from_mins(120),
            ),
        })));
    let outcome = scenario.run();
    assert!(outcome.is_ok(), "{}", scenario.failure_report(&outcome));
    assert!(
        outcome.counters.partition_drops > 0,
        "partition never fired"
    );
    assert_eq!(outcome.counters.partitions_opened, 1);
    assert_eq!(outcome.counters.partitions_closed, 1);
}

#[test]
fn racecheck_is_clean_over_every_frozen_seed() {
    for seed in SEEDS {
        let scenario = Scenario::random(seed);
        let (outcome, racecheck) = scenario.run_racechecked();
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
        let (outcome, racecheck) = scenario.run_racechecked();
        assert!(outcome.is_ok(), "{}", scenario.failure_report(&outcome));
        assert!(
            racecheck.findings.is_empty(),
            "seed {seed}:\n{}",
            racecheck.render()
        );
    }
}

#[test]
fn checked_outcome_matches_unchecked() {
    // Arming the detector is pure observation: the checked run's report
    // is byte-identical to the plain run's.
    for seed in [8u64, 1337] {
        let scenario = Scenario::random(seed);
        let reference = scenario.run();
        let (checked, _) = scenario.run_racechecked();
        assert_eq!(checked.report, reference.report, "seed {seed}");
        assert_eq!(checked.violations, reference.violations, "seed {seed}");
    }
}
