//! Criterion benchmark for the bounded state-space explorer.
//!
//! Measures end-to-end exploration of the Zmail AP spec (`n = 2` ISPs,
//! `m = 1` user) at 1/2/4/8 worker threads, against an inline
//! re-implementation of the pre-optimization sequential algorithm
//! (fingerprints recomputed per state, a fresh `enabled_actions` vector per
//! state, guard re-evaluation inside `execute`, and a clone for every
//! successor including the last). Throughput is reported in explored
//! states per second.
//!
//! That space has 295 states and no level wide enough to be shared with a
//! helper thread, so its `threads` rows all measure the one-chunk walk. The
//! second group (`n = 3`, balance 2, limit 2: 178,119 states, levels of up
//! to 27,630 ranks) is the bundled walk long enough to show what sharing a
//! level costs or gains.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;
use zmail_ap::{explore, ExploreConfig, SystemSpec, SystemState};
use zmail_core::spec::{build_spec, spec_invariant, SpecParams};

/// The seed repository's sequential BFS, re-implemented verbatim modulo
/// reporting (returns distinct states visited). Kept here so the bench can
/// quantify the per-state savings of the rewritten explorer on any
/// hardware, including single-core machines where thread scaling cannot
/// show.
fn seed_explore<S, M>(
    spec: &SystemSpec<S, M>,
    initial: SystemState<S, M>,
    invariant: impl Fn(&SystemState<S, M>) -> Result<(), String>,
) -> usize
where
    S: Clone + Hash,
    M: Clone + Hash,
{
    let mut seen: HashSet<u64> = HashSet::new();
    let mut queue: VecDeque<(SystemState<S, M>, usize)> = VecDeque::new();
    let mut parents: HashMap<u64, (u64, usize)> = HashMap::new();
    let mut visited = 0usize;
    seen.insert(initial.fingerprint());
    queue.push_back((initial, 0));
    while let Some((state, depth)) = queue.pop_front() {
        visited += 1;
        if invariant(&state).is_err() {
            break;
        }
        let enabled = spec.enabled_actions(&state);
        let state_fp = state.fingerprint();
        for index in enabled {
            let mut next = state.clone();
            spec.execute(index, &mut next);
            let next_fp = next.fingerprint();
            if seen.insert(next_fp) {
                parents.insert(next_fp, (state_fp, index));
                queue.push_back((next, depth + 1));
            }
        }
    }
    visited
}

fn bench_explore(c: &mut Criterion) {
    let params = SpecParams::default(); // n = 2 ISPs, m = 1 user
    let (spec, initial) = build_spec(params);
    let states = explore(
        &spec,
        initial.clone(),
        ExploreConfig::default(),
        spec_invariant(params),
    )
    .states_visited;

    let mut group = c.benchmark_group("explore_zmail_n2_m1");
    group.sample_size(10);
    group.throughput(Throughput::Elements(states as u64));
    group.bench_function("seed_sequential_baseline", |b| {
        b.iter(|| seed_explore(&spec, initial.clone(), spec_invariant(params)))
    });
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new("threads", threads), |b| {
            b.iter(|| {
                explore(
                    &spec,
                    initial.clone(),
                    ExploreConfig::default().with_threads(threads),
                    spec_invariant(params),
                )
                .states_visited
            })
        });
    }
    group.finish();

    let params = SpecParams {
        isps: 3,
        initial_balance: 2,
        limit: 2,
        ..SpecParams::default()
    };
    let (spec, initial) = build_spec(params);
    let mut group = c.benchmark_group("explore_zmail_n3_bal2_limit2");
    group.sample_size(10);
    group.throughput(Throughput::Elements(178_119));
    for threads in [1usize, 2] {
        group.bench_function(BenchmarkId::new("threads", threads), |b| {
            b.iter(|| {
                let config = ExploreConfig {
                    max_states: 1_000_000,
                    threads,
                    ..ExploreConfig::default()
                };
                let report = explore(&spec, initial.clone(), config, spec_invariant(params));
                assert_eq!(report.states_visited, 178_119);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_explore);
criterion_main!(benches);
