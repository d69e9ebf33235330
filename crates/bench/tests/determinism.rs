//! Determinism guards for the observability layer.
//!
//! Two promises keep telemetry safe to leave on in experiments:
//!
//! 1. the sim engine's **event counters and final queue depth** are a
//!    pure function of the workload — running the same trace twice
//!    yields equal snapshots (the sim-clock span stream is pinned by
//!    `zmail-core`'s `tests/tie_golden.rs` and `--lib flight_recorder`);
//! 2. explorer **profiling never perturbs verification**: the
//!    [`ExploreReport`](zmail_ap::ExploreReport) half of a profiled run
//!    is byte-identical to the unprofiled run at every thread count.

use zmail_core::spec::{check_with, check_with_profiled, SpecParams, TimeoutMode};
use zmail_core::{ZmailConfig, ZmailSystem};
use zmail_obs::Registry;
use zmail_sim::{Sampler, SimDuration, SimTelemetry, TrafficConfig, TrafficGenerator};

/// Runs one simulated day of two-ISP traffic with telemetry attached,
/// returning the metrics snapshot.
fn observed_run(seed: u64) -> zmail_obs::Snapshot {
    let traffic = TrafficConfig {
        isps: 2,
        users_per_isp: 10,
        horizon: SimDuration::from_days(1),
        ..TrafficConfig::default()
    };
    let trace = TrafficGenerator::new(traffic).generate(&mut Sampler::new(seed));

    let registry = Registry::new();
    let mut system = ZmailSystem::new(ZmailConfig::builder(2, 10).build(), 42);
    system.attach_telemetry(SimTelemetry::new(&registry));
    system.run_trace(&trace);
    registry.snapshot()
}

#[test]
fn sim_counters_are_identical_across_runs() {
    let first = observed_run(7);
    let second = observed_run(7);
    assert!(
        first.counters["sim.events"] > 10,
        "the run should actually handle events"
    );
    // Only the wall-clock-derived values (`sim.events_per_sec`, the
    // latency histograms) may differ between runs.
    assert_eq!(first.counters, second.counters);
    assert_eq!(
        first.gauges["sim.queue_depth"],
        second.gauges["sim.queue_depth"]
    );
    // Sanity check that the equality above is not vacuous.
    assert_ne!(first.counters, observed_run(8).counters);
}

#[test]
fn explore_report_unchanged_by_profiling_at_any_thread_count() {
    let configs = [
        SpecParams::default(),
        SpecParams {
            initial_balance: 2,
            timeout_mode: TimeoutMode::LocalDrain,
            ..SpecParams::default()
        },
    ];
    for params in configs {
        let baseline = check_with(params, 200_000, 1);
        for threads in [1, 4] {
            let (profiled, profile) = check_with_profiled(params, 200_000, threads);
            assert_eq!(
                profiled, baseline,
                "profiling or thread count changed the report (threads = {threads}, {params:?})"
            );
            assert_eq!(profile.threads, threads);
            assert_eq!(profile.states_visited, baseline.states_visited);

            // The structural half of the profile is a property of the
            // state graph, not the schedule: running the same
            // configuration again reproduces it exactly. (Wall time is
            // a clock reading.)
            let (_, again) = check_with_profiled(params, 200_000, threads);
            assert_eq!(again.level_sizes, profile.level_sizes);
        }
    }
}
