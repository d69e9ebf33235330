//! Bounded breadth-first exploration of a protocol's global state space.
//!
//! For small configurations (the Zmail spec with `n = 2` ISPs and `m = 1`
//! user each), the reachable state space is small enough to enumerate
//! exhaustively up to a depth bound. [`explore`] walks it breadth-first,
//! deduplicating states by fingerprint, checking a user-supplied invariant
//! in every reachable state, and flagging deadlocks.
//!
//! This is bounded model checking in the practical sense: it cannot prove
//! properties of unbounded runs, but a violation found here comes with the
//! exact depth at which it occurs, and a clean report over tens of thousands
//! of states is strong evidence for the invariants the paper asserts
//! informally.
//!
//! # One walk at every thread count
//!
//! The walk is level-synchronous. A BFS level — the frontier, in discovery
//! order — is cut into *chunks*, contiguous ranges of frontier ranks. A
//! worker claims a chunk by value, checks the invariant on each of its
//! states in rank order, expands them, and returns the successors that are
//! not yet in `seen`, de-duplicated within the chunk, in `(rank, action)`
//! order. Between levels one thread merges the chunk outputs in chunk order
//! with `if seen.insert(fp) { next.push(..) }`.
//!
//! BFS discovery order within a level *is* the lexicographic `(parent
//! rank, action index)` order, and chunks are rank ranges, so concatenating
//! chunk outputs in chunk order visits candidates in exactly that order and
//! the merge keeps, of every state reached more than once, the copy (and
//! the parent link) a plain queue-based BFS would have kept. `seen` and the
//! parent map are therefore ordinary collections: read-only while a level
//! is walked, written only by the merge. The report — visited and
//! transition counts, per-action fire counts, violation list,
//! counterexample — is **identical for every thread count and every
//! chunking**, and the first violation reported is always the
//! minimum-depth one, tie-broken by lexicographic action sequence.
//!
//! [`ExploreConfig::threads`] is the most threads a level may use. The
//! calling thread always works; helper threads are spawned only for a level
//! with enough ranks to repay a spawn, so a small state space, or the
//! narrow first and last levels of a large one, run as one chunk on the
//! caller. The trade against a shared concurrent `seen` set: a state
//! reached from two *different* chunks of one level is built twice and both
//! copies live until that level's merge drops the later one.

use crate::process::SystemSpec;
use crate::state::SystemState;
use crate::ApError;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{LockResult, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Limits and switches for [`explore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Stop after visiting this many distinct states.
    pub max_states: usize,
    /// Do not expand states deeper than this many steps from the initial
    /// state.
    pub max_depth: usize,
    /// Whether a state with no enabled actions is an error. Protocols that
    /// legitimately terminate (reach quiescence) should leave this `false`.
    pub deadlock_is_error: bool,
    /// Stop at the first violation instead of collecting all of them.
    pub stop_at_first_violation: bool,
    /// Record predecessor links so the first violation comes with a
    /// counterexample — the exact action sequence from the initial state.
    /// Costs one map entry per visited state.
    pub record_counterexample: bool,
    /// The most threads a BFS level may be shared among: `1` (the
    /// default) keeps the walk on the calling thread, `0` means the
    /// machine's available parallelism. The caller always works; helpers
    /// are spawned only for levels wide enough to repay them. The report
    /// is identical for every setting.
    pub threads: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_states: 100_000,
            max_depth: usize::MAX,
            deadlock_is_error: false,
            stop_at_first_violation: true,
            record_counterexample: true,
            threads: 1,
        }
    }
}

impl ExploreConfig {
    /// This config with `threads` workers (see [`ExploreConfig::threads`]).
    pub fn with_threads(self, threads: usize) -> Self {
        ExploreConfig { threads, ..self }
    }

    fn resolved_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
    }
}

/// Why exploration stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreOutcome {
    /// Every reachable state within the depth bound was visited.
    Exhausted,
    /// The `max_states` budget was hit first.
    StateBudgetReached,
    /// A violation was found and `stop_at_first_violation` was set.
    StoppedAtViolation,
}

/// The result of a bounded exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreReport {
    /// Distinct states visited.
    pub states_visited: usize,
    /// Transitions (action executions) taken.
    pub transitions: usize,
    /// Greatest depth reached.
    pub max_depth_reached: usize,
    /// All violations found (invariant failures and, if configured,
    /// deadlocks).
    pub violations: Vec<ApError>,
    /// Why the walk stopped.
    pub outcome: ExploreOutcome,
    /// For the *first* violation, when
    /// [`ExploreConfig::record_counterexample`] was set: the names of the
    /// actions leading from the initial state to the violating state, in
    /// execution order.
    pub counterexample: Option<Vec<String>>,
    /// Per-action fire counts, indexed like [`SystemSpec::actions`]: how
    /// many times each action was executed as a transition during the
    /// walk. `transitions` is their sum. An entry of `0` after an
    /// [`ExploreOutcome::Exhausted`] walk means the action's guard was
    /// never true in any reachable state — a vacuous (dead) action; the
    /// [`analyze`](mod@crate::analyze) module turns that into lint `AP010`.
    /// Identical for every thread count, like the rest of the report.
    pub action_fires: Vec<u64>,
}

impl ExploreReport {
    /// Whether no invariant violation or deadlock was found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Indices of actions that never fired during the walk (in spec
    /// registration order). Meaningful as a vacuity verdict only when the
    /// walk exhausted the reachable space.
    pub fn dead_actions(&self) -> Vec<usize> {
        self.action_fires
            .iter()
            .enumerate()
            .filter(|(_, &fires)| fires == 0)
            .map(|(i, _)| i)
            .collect()
    }

    fn new(action_count: usize) -> Self {
        ExploreReport {
            states_visited: 0,
            transitions: 0,
            max_depth_reached: 0,
            violations: Vec::new(),
            outcome: ExploreOutcome::Exhausted,
            counterexample: None,
            action_fires: vec![0; action_count],
        }
    }
}

/// Explores the state space of `spec` starting from `initial`, checking
/// `invariant` in every visited state.
///
/// The invariant returns `Ok(())` for healthy states and `Err(description)`
/// otherwise. States are deduplicated by [`SystemState::fingerprint`].
/// The produced report is independent of [`ExploreConfig::threads`].
pub fn explore<S, M>(
    spec: &SystemSpec<S, M>,
    initial: SystemState<S, M>,
    config: ExploreConfig,
    invariant: impl Fn(&SystemState<S, M>) -> Result<(), String> + Sync,
) -> ExploreReport
where
    S: Clone + Hash + Send + Sync,
    M: Clone + Hash + Send + Sync,
{
    explore_profiled(spec, initial, config, invariant).0
}

/// Execution-shape telemetry for one [`explore_profiled`] walk.
///
/// Everything in here describes *how* the exploration ran — wall time and
/// level shape — and nothing about *what* it found; verification results
/// live exclusively in [`ExploreReport`]. Diff the report, not the
/// profile: `wall` is a clock reading.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreProfile {
    /// The most threads a level could use (`threads: 0` resolved to the
    /// machine's available parallelism). Levels below the helper
    /// threshold run on the caller alone.
    pub threads: usize,
    /// `level_sizes[d]` is the number of ranks visited at depth `d`: the
    /// whole level, except for the last level of a walk cut short by the
    /// state budget or a violation, which counts up to the rank that
    /// stopped it. The same at every thread count.
    pub level_sizes: Vec<usize>,
    /// Distinct states visited, copied from the report for rate math.
    pub states_visited: usize,
    /// Wall-clock duration of the walk.
    pub wall: Duration,
}

impl ExploreProfile {
    /// Visited states per wall-clock second (`0.0` for an instant walk).
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.states_visited as f64 / secs
        } else {
            0.0
        }
    }
}

/// Like [`explore`], but also returns an [`ExploreProfile`] describing
/// the walk's execution shape.
pub fn explore_profiled<S, M>(
    spec: &SystemSpec<S, M>,
    initial: SystemState<S, M>,
    config: ExploreConfig,
    invariant: impl Fn(&SystemState<S, M>) -> Result<(), String> + Sync,
) -> (ExploreReport, ExploreProfile)
where
    S: Clone + Hash + Send + Sync,
    M: Clone + Hash + Send + Sync,
{
    walk(spec, initial, config, invariant, HELPER_THRESHOLD)
}

/// Reconstructs the action-name path from the initial state to `fp` by
/// following parent links.
fn reconstruct_path<S, M>(
    spec: &SystemSpec<S, M>,
    parents: &HashMap<u64, (u64, usize)>,
    mut fp: u64,
) -> Vec<String> {
    let mut path = Vec::new();
    while let Some(&(parent_fp, action_index)) = parents.get(&fp) {
        path.push(spec.actions()[action_index].name.clone());
        fp = parent_fp;
    }
    path.reverse();
    path
}

/// Fewest ranks in a level for which helper threads are spawned. Measured
/// at `threads = 2` on the two-vCPU recording host: the 11,344-state Zmail
/// configuration, whose widest level holds 1,915 ranks, takes 38 ms when
/// levels from 512 or 1,024 ranks up are shared and 36 ms when none is; the
/// 178,119-state one, with levels of up to 27,630 ranks, takes 1.16 s
/// shared from 512, 2,048 or 4,096 ranks up and 1.28 s unshared. Spawning
/// and joining a scoped thread costs 16 µs there, a handful of states'
/// worth: what a narrow level cannot repay is a helper's start-up and the
/// states two chunks both build.
const HELPER_THRESHOLD: usize = 2048;

/// Chunks cut per worker when a level is shared, so that a worker that
/// loses its core for a while holds up one eighth of its share, not all of
/// it.
const CHUNKS_PER_WORKER: usize = 8;

/// One frontier entry: a state and its fingerprint, computed once, on
/// discovery.
struct Frame<S, M> {
    fp: u64,
    state: SystemState<S, M>,
}

/// A contiguous range of a level's ranks: owned by whichever worker the
/// cursor hands it to, then replaced by what that worker found.
enum Chunk<S, M> {
    Todo(Vec<Frame<S, M>>),
    Done(ChunkOut<S, M>),
}

/// What walking one chunk found, every list in rank order.
struct ChunkOut<S, M> {
    /// Ranks visited: the whole chunk, or up to the rank that stopped it.
    visited: usize,
    /// Fire counts of the ranks expanded, indexed like the report's.
    fires: Vec<u64>,
    /// Violations, each with the fingerprint of the state it was found in.
    violations: Vec<(u64, ApError)>,
    /// Successors neither in `seen` nor reached earlier in this chunk, as
    /// `(state, parent fingerprint, action index)`.
    successors: Vec<(Frame<S, M>, u64, usize)>,
}

/// Each chunk's lock is taken twice, by the one worker the cursor gave the
/// chunk to, and holds a whole value at both times: poison from a
/// panicking invariant protects nothing (the scope re-raises that panic).
fn held<T>(guard: LockResult<T>) -> T {
    guard.unwrap_or_else(PoisonError::into_inner)
}

/// The walk behind [`explore`] and [`explore_profiled`]; a level of at
/// least `helper_threshold` ranks is shared with helper threads.
fn walk<S, M>(
    spec: &SystemSpec<S, M>,
    initial: SystemState<S, M>,
    config: ExploreConfig,
    invariant: impl Fn(&SystemState<S, M>) -> Result<(), String> + Sync,
    helper_threshold: usize,
) -> (ExploreReport, ExploreProfile)
where
    S: Clone + Hash + Send + Sync,
    M: Clone + Hash + Send + Sync,
{
    let started = Instant::now();
    let threads = config.resolved_threads();
    let mut report = ExploreReport::new(spec.actions().len());
    let mut level_sizes = Vec::new();

    // Every fingerprint discovered so far, the frontier's included, and
    // fingerprint -> (parent fingerprint, action index taken from parent).
    // Workers read `seen` during a level; only the merge writes either.
    let mut seen: HashSet<u64> = HashSet::new();
    let mut parents: HashMap<u64, (u64, usize)> = HashMap::new();
    let root_fp = initial.fingerprint();
    seen.insert(root_fp);
    let mut frontier = vec![Frame {
        fp: root_fp,
        state: initial,
    }];
    let mut depth = 0usize;

    while !frontier.is_empty() {
        report.max_depth_reached = depth;
        // Ranks past the state budget are dropped unvisited. The rank that
        // reaches it is visited but, like every rank at the depth bound,
        // not expanded.
        let budget = config
            .max_states
            .saturating_sub(report.states_visited)
            .max(1);
        frontier.truncate(budget);
        let ranks = frontier.len();
        let expand_below = if depth >= config.max_depth {
            0
        } else if ranks == budget {
            ranks - 1
        } else {
            ranks
        };

        let walk_chunk = |first_rank: usize, frames: Vec<Frame<S, M>>| {
            let mut out = ChunkOut {
                visited: 0,
                fires: vec![0; spec.actions().len()],
                violations: Vec::new(),
                successors: Vec::with_capacity(frames.len()),
            };
            let mut enabled: Vec<usize> = Vec::new();
            let mut fresh: HashSet<u64> = HashSet::with_capacity(frames.len());
            for (rank, Frame { fp, state }) in (first_rank..).zip(frames) {
                out.visited += 1;
                if let Err(message) = invariant(&state) {
                    let violation = ApError::InvariantViolated {
                        message,
                        depth: Some(depth),
                    };
                    out.violations.push((fp, violation));
                    if config.stop_at_first_violation {
                        break;
                    }
                }
                if rank >= expand_below {
                    continue;
                }
                spec.enabled_into(&state, &mut enabled);
                let Some((&last, head)) = enabled.split_last() else {
                    if config.deadlock_is_error {
                        let violation = ApError::Deadlock { depth: Some(depth) };
                        out.violations.push((fp, violation));
                        if config.stop_at_first_violation {
                            break;
                        }
                    }
                    continue;
                };
                for &action in &enabled {
                    out.fires[action] += 1;
                }
                let mut reach = |action: usize, mut next: SystemState<S, M>| {
                    spec.execute_unchecked(action, &mut next);
                    let next_fp = next.fingerprint();
                    if !seen.contains(&next_fp) && fresh.insert(next_fp) {
                        let frame = Frame {
                            fp: next_fp,
                            state: next,
                        };
                        out.successors.push((frame, fp, action));
                    }
                };
                for &action in head {
                    reach(action, state.clone());
                }
                // The last enabled action consumes its parent instead of
                // cloning it — one clone saved per expanded state, which
                // is why a worker owns its chunk.
                reach(last, state);
            }
            out
        };

        let workers = if ranks >= helper_threshold {
            threads
        } else {
            1
        };
        let chunk_len = if workers == 1 {
            ranks
        } else {
            (ranks / (workers * CHUNKS_PER_WORKER)).max(1)
        };
        let mut frames = frontier.into_iter();
        let chunks: Vec<Mutex<Chunk<S, M>>> = std::iter::from_fn(|| {
            let chunk: Vec<_> = frames.by_ref().take(chunk_len).collect();
            (!chunk.is_empty()).then(|| Mutex::new(Chunk::Todo(chunk)))
        })
        .collect();
        // Relaxed: the cursor only deals out indices; a chunk's contents
        // travel through its lock and the scope's join.
        let cursor = AtomicUsize::new(0);
        let work = || loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(chunk) = chunks.get(index) else {
                break;
            };
            let frames = match &mut *held(chunk.lock()) {
                Chunk::Todo(frames) => std::mem::take(frames),
                Chunk::Done(_) => unreachable!("the cursor deals each chunk once"),
            };
            let out = walk_chunk(index * chunk_len, frames);
            *held(chunk.lock()) = Chunk::Done(out);
        };
        std::thread::scope(|scope| {
            for _ in 1..workers.min(chunks.len()) {
                scope.spawn(work);
            }
            work();
        });

        // Merge, in chunk order — which is rank order, which is BFS order.
        let visited_before = report.states_visited;
        let mut next = Vec::new();
        for chunk in chunks {
            let Chunk::Done(out) = held(chunk.into_inner()) else {
                unreachable!("the scope joins its workers after the last chunk");
            };
            report.states_visited += out.visited;
            for (total, fired) in report.action_fires.iter_mut().zip(out.fires) {
                *total += fired;
            }
            for (fp, violation) in out.violations {
                if report.violations.is_empty() && config.record_counterexample {
                    report.counterexample = Some(reconstruct_path(spec, &parents, fp));
                }
                report.violations.push(violation);
            }
            if config.stop_at_first_violation && !report.violations.is_empty() {
                report.outcome = ExploreOutcome::StoppedAtViolation;
                break;
            }
            for (frame, parent_fp, action) in out.successors {
                if seen.insert(frame.fp) {
                    if config.record_counterexample {
                        parents.insert(frame.fp, (parent_fp, action));
                    }
                    next.push(frame);
                }
            }
        }
        level_sizes.push(report.states_visited - visited_before);
        if report.outcome == ExploreOutcome::StoppedAtViolation {
            break;
        }
        if report.states_visited >= config.max_states {
            report.outcome = ExploreOutcome::StateBudgetReached;
            break;
        }
        frontier = next;
        depth += 1;
    }
    report.transitions = report.action_fires.iter().sum::<u64>() as usize;
    let profile = ExploreProfile {
        threads,
        level_sizes,
        states_visited: report.states_visited,
        wall: started.elapsed(),
    };
    (report, profile)
}

/// A witness that a goal state is reachable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachabilityWitness {
    /// Steps from the initial state to the goal.
    pub depth: usize,
    /// The action names leading there, in execution order.
    pub trace: Vec<String>,
}

/// Searches breadth-first for a state satisfying `goal`, returning the
/// shortest witness within the exploration budget.
///
/// Safety properties say "nothing bad is reachable" ([`explore`] with an
/// invariant); this is the liveness-flavoured dual — "something good *is*
/// reachable" — used e.g. to show the Zmail spec can actually complete a
/// billing round, not merely never corrupt the ledger.
pub fn find_reachable<S, M>(
    spec: &SystemSpec<S, M>,
    initial: SystemState<S, M>,
    config: ExploreConfig,
    goal: impl Fn(&SystemState<S, M>) -> bool + Sync,
) -> Option<ReachabilityWitness>
where
    S: Clone + Hash + Send + Sync,
    M: Clone + Hash + Send + Sync,
{
    let config = ExploreConfig {
        stop_at_first_violation: true,
        record_counterexample: true,
        ..config
    };
    let report = explore(spec, initial, config, |state| {
        if goal(state) {
            Err("goal reached".into())
        } else {
            Ok(())
        }
    });
    let depth = report.violations.first().and_then(|v| match v {
        ApError::InvariantViolated { depth, .. } => *depth,
        ApError::Deadlock { .. } => None,
    })?;
    Some(ReachabilityWitness {
        depth,
        trace: report.counterexample.unwrap_or_default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Guard, Pid};
    use proptest::prelude::*;

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Tok {
        holding: bool,
        count: u8,
    }

    /// Token ring of `n` processes; the token circulates forever.
    fn ring_spec(n: usize, max_count: u8) -> SystemSpec<Tok, ()> {
        random_ring(n, 1, max_count, false).0
    }

    fn ring_initial(n: usize) -> SystemState<Tok, ()> {
        let mut locals = vec![
            Tok {
                holding: false,
                count: 0
            };
            n
        ];
        locals[0].holding = true;
        SystemState::new(locals, n)
    }

    fn tokens_in_system(st: &SystemState<Tok, ()>) -> usize {
        st.local_states().iter().filter(|s| s.holding).count() + st.total_in_flight()
    }

    /// Two-process protocol with a planted token-duplication bug.
    fn duplicating_spec() -> (SystemSpec<Tok, ()>, SystemState<Tok, ()>) {
        let mut spec = SystemSpec::<Tok, ()>::new();
        let a = spec.add_process("a");
        let b = spec.add_process("b");
        spec.add_action(
            a,
            "dup",
            Guard::local(|s: &Tok| s.holding && s.count == 0),
            move |s, _, fx| {
                s.count = 1; // keeps holding AND sends: duplication bug
                fx.send(b, ());
            },
        );
        spec.add_action(b, "take", Guard::receive(a), |s, _, _| s.holding = true);
        let mut locals = vec![
            Tok {
                holding: false,
                count: 0
            };
            2
        ];
        locals[0].holding = true;
        let initial = SystemState::new(locals, 2);
        (spec, initial)
    }

    #[test]
    fn exploration_exhausts_small_ring_and_holds_invariant() {
        let spec = ring_spec(3, 3);
        let report = explore(&spec, ring_initial(3), ExploreConfig::default(), |st| {
            if tokens_in_system(st) == 1 {
                Ok(())
            } else {
                Err(format!("{} tokens in system", tokens_in_system(st)))
            }
        });
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.outcome, ExploreOutcome::Exhausted);
        assert!(report.states_visited > 3);
    }

    #[test]
    fn exploration_finds_planted_violation() {
        let (spec, initial) = duplicating_spec();
        let report = explore(&spec, initial, ExploreConfig::default(), |st| {
            if tokens_in_system(st) <= 1 {
                Ok(())
            } else {
                Err("token duplicated".into())
            }
        });
        assert!(!report.is_clean());
        assert_eq!(report.outcome, ExploreOutcome::StoppedAtViolation);
        match &report.violations[0] {
            ApError::InvariantViolated { message, depth } => {
                assert_eq!(message, "token duplicated");
                assert!(depth.is_some());
            }
            other => panic!("unexpected violation {other:?}"),
        }
    }

    #[test]
    fn counterexample_replays_to_the_violation() {
        // The counterexample must be an executable path that actually
        // reaches the bad state.
        let (spec, initial) = duplicating_spec();
        let report = explore(&spec, initial.clone(), ExploreConfig::default(), |st| {
            if tokens_in_system(st) <= 1 {
                Ok(())
            } else {
                Err("token duplicated".into())
            }
        });
        let path = report.counterexample.expect("trace should be recorded");
        assert_eq!(path, vec!["dup".to_string()]);
        // Replay it: executing the named actions from the initial state
        // must land in a state violating the invariant.
        let mut state = initial;
        for name in &path {
            let index = spec
                .actions()
                .iter()
                .position(|a| &a.name == name)
                .expect("action exists");
            spec.execute(index, &mut state);
        }
        assert!(tokens_in_system(&state) > 1, "replayed state not violating");
    }

    #[test]
    fn clean_exploration_has_no_counterexample() {
        let spec = ring_spec(3, 3);
        let report = explore(&spec, ring_initial(3), ExploreConfig::default(), |_| Ok(()));
        assert_eq!(report.counterexample, None);
    }

    #[test]
    fn counterexample_can_be_disabled() {
        let spec = ring_spec(2, 2);
        let config = ExploreConfig {
            record_counterexample: false,
            ..ExploreConfig::default()
        };
        let report = explore(&spec, ring_initial(2), config, |_| Err("always".into()));
        assert!(!report.is_clean());
        assert_eq!(report.counterexample, None);
    }

    #[test]
    fn state_budget_is_respected() {
        let spec = ring_spec(4, 20);
        let config = ExploreConfig {
            max_states: 50,
            ..ExploreConfig::default()
        };
        let report = explore(&spec, ring_initial(4), config, |_| Ok(()));
        assert_eq!(report.outcome, ExploreOutcome::StateBudgetReached);
        assert_eq!(report.states_visited, 50);
    }

    #[test]
    fn depth_bound_limits_expansion() {
        let spec = ring_spec(3, 10);
        let config = ExploreConfig {
            max_depth: 2,
            ..ExploreConfig::default()
        };
        let report = explore(&spec, ring_initial(3), config, |_| Ok(()));
        assert!(report.max_depth_reached <= 2);
        assert_eq!(report.outcome, ExploreOutcome::Exhausted);
    }

    #[test]
    fn deadlock_detection_flags_terminating_protocol() {
        // Ring that stops after the counter saturates: quiescent states are
        // deadlocks when deadlock_is_error is set.
        let spec = ring_spec(2, 1);
        let config = ExploreConfig {
            deadlock_is_error: true,
            stop_at_first_violation: false,
            ..ExploreConfig::default()
        };
        let report = explore(&spec, ring_initial(2), config, |_| Ok(()));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, ApError::Deadlock { .. })));
    }

    #[test]
    fn find_reachable_returns_shortest_witness() {
        let spec = ring_spec(3, 5);
        // Goal: the token has been passed at least twice in total.
        let witness = find_reachable(&spec, ring_initial(3), ExploreConfig::default(), |st| {
            st.local_states()
                .iter()
                .map(|s| u32::from(s.count))
                .sum::<u32>()
                >= 2
        })
        .expect("two passes are reachable");
        // Shortest path: pass, take, pass — 3 steps (BFS guarantees it).
        assert_eq!(witness.depth, 3);
        assert_eq!(witness.trace.len(), 3);
        assert_eq!(witness.trace[0], "pass0");
    }

    #[test]
    fn find_reachable_returns_none_for_unreachable_goal() {
        let spec = ring_spec(2, 1); // counter saturates at 1 per process
        let witness = find_reachable(&spec, ring_initial(2), ExploreConfig::default(), |st| {
            st.local_states().iter().any(|s| s.count > 1)
        });
        assert_eq!(witness, None);
    }

    #[test]
    fn find_reachable_trivially_satisfied_at_root() {
        let spec = ring_spec(2, 1);
        let witness = find_reachable(&spec, ring_initial(2), ExploreConfig::default(), |_| true)
            .expect("root satisfies");
        assert_eq!(witness.depth, 0);
        assert!(witness.trace.is_empty());
    }

    #[test]
    fn collect_all_violations_when_not_stopping() {
        let spec = ring_spec(2, 2);
        let config = ExploreConfig {
            stop_at_first_violation: false,
            ..ExploreConfig::default()
        };
        // Impossible invariant: every state violates.
        let report = explore(&spec, ring_initial(2), config, |_| Err("always".into()));
        assert_eq!(report.violations.len(), report.states_visited);
        assert_eq!(report.outcome, ExploreOutcome::Exhausted);
    }

    // -----------------------------------------------------------------
    // Determinism across thread counts
    // -----------------------------------------------------------------

    /// [`explore`] with the helper threshold at 1: every level of two or
    /// more ranks is cut into chunks and shared among `config.threads`
    /// workers. Under the production threshold specs this small would run
    /// as one chunk at every thread count and these tests compare a walk
    /// with itself.
    fn explore_shared<S, M>(
        spec: &SystemSpec<S, M>,
        initial: SystemState<S, M>,
        config: ExploreConfig,
        invariant: impl Fn(&SystemState<S, M>) -> Result<(), String> + Sync,
    ) -> ExploreReport
    where
        S: Clone + Hash + Send + Sync,
        M: Clone + Hash + Send + Sync,
    {
        walk(spec, initial, config, invariant, 1).0
    }

    /// The invariant used by the clean-ring equivalence checks.
    fn one_token(st: &SystemState<Tok, ()>) -> Result<(), String> {
        if tokens_in_system(st) == 1 {
            Ok(())
        } else {
            Err(format!("{} tokens in system", tokens_in_system(st)))
        }
    }

    #[test]
    fn parallel_report_identical_on_clean_ring() {
        let spec = ring_spec(4, 4);
        let sequential = explore(&spec, ring_initial(4), ExploreConfig::default(), one_token);
        for threads in [2, 3, 4, 8] {
            let parallel = explore_shared(
                &spec,
                ring_initial(4),
                ExploreConfig::default().with_threads(threads),
                one_token,
            );
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_report_identical_on_planted_violation() {
        let (spec, initial) = duplicating_spec();
        let check = |st: &SystemState<Tok, ()>| {
            if tokens_in_system(st) <= 1 {
                Ok(())
            } else {
                Err("token duplicated".to_string())
            }
        };
        let sequential = explore(&spec, initial.clone(), ExploreConfig::default(), check);
        for threads in [2, 4] {
            let parallel = explore_shared(
                &spec,
                initial.clone(),
                ExploreConfig::default().with_threads(threads),
                check,
            );
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_report_identical_under_budget_and_depth_bounds() {
        let spec = ring_spec(4, 20);
        for config in [
            ExploreConfig {
                max_states: 50,
                ..ExploreConfig::default()
            },
            ExploreConfig {
                max_depth: 3,
                ..ExploreConfig::default()
            },
            ExploreConfig {
                deadlock_is_error: true,
                stop_at_first_violation: false,
                ..ExploreConfig::default()
            },
        ] {
            let sequential = explore(&spec, ring_initial(4), config, |_| Ok(()));
            let parallel =
                explore_shared(&spec, ring_initial(4), config.with_threads(4), |_| Ok(()));
            assert_eq!(parallel, sequential, "config = {config:?}");
        }
    }

    #[test]
    fn parallel_collects_all_violations_in_bfs_order() {
        let spec = ring_spec(2, 2);
        let config = ExploreConfig {
            stop_at_first_violation: false,
            ..ExploreConfig::default()
        };
        let sequential = explore(&spec, ring_initial(2), config, |_| Err("always".into()));
        let parallel = explore_shared(&spec, ring_initial(2), config.with_threads(3), |_| {
            Err("always".into())
        });
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn threads_zero_resolves_to_available_parallelism() {
        let spec = ring_spec(3, 3);
        let auto = explore_shared(
            &spec,
            ring_initial(3),
            ExploreConfig::default().with_threads(0),
            one_token,
        );
        let sequential = explore(&spec, ring_initial(3), ExploreConfig::default(), one_token);
        assert_eq!(auto, sequential);
    }

    #[test]
    fn action_fires_sum_to_transitions_and_spot_dead_actions() {
        let mut spec = ring_spec(3, 3);
        // Plant an action whose guard is never true: it must show a zero
        // fire count while every ring action fires at least once.
        spec.add_action(Pid(0), "never", Guard::local(|_| false), |_, _, _| {});
        let report = explore(&spec, ring_initial(3), ExploreConfig::default(), |_| Ok(()));
        assert_eq!(report.outcome, ExploreOutcome::Exhausted);
        assert_eq!(report.action_fires.len(), spec.actions().len());
        assert_eq!(
            report.action_fires.iter().sum::<u64>(),
            report.transitions as u64
        );
        let dead = report.dead_actions();
        assert_eq!(dead, vec![spec.actions().len() - 1]);
        for (i, fires) in report.action_fires.iter().enumerate() {
            if !dead.contains(&i) {
                assert!(*fires > 0, "ring action {i} should fire");
            }
        }
    }

    #[test]
    fn action_fires_identical_across_thread_counts() {
        let spec = ring_spec(4, 4);
        let sequential = explore(&spec, ring_initial(4), ExploreConfig::default(), |_| Ok(()));
        for threads in [2, 4] {
            let parallel = explore_shared(
                &spec,
                ring_initial(4),
                ExploreConfig::default().with_threads(threads),
                |_| Ok(()),
            );
            assert_eq!(
                parallel.action_fires, sequential.action_fires,
                "fire counts diverged at {threads} threads"
            );
        }
    }

    // -----------------------------------------------------------------
    // Profiling hooks
    // -----------------------------------------------------------------

    #[test]
    fn profiled_report_identical_to_unprofiled_at_any_thread_count() {
        let spec = ring_spec(4, 4);
        let plain = explore(&spec, ring_initial(4), ExploreConfig::default(), one_token);
        for threads in [1, 2, 4] {
            let (report, profile) = walk(
                &spec,
                ring_initial(4),
                ExploreConfig::default().with_threads(threads),
                one_token,
                1,
            );
            assert_eq!(report, plain, "profiling changed the report at {threads}");
            assert_eq!(profile.threads, threads);
            assert_eq!(profile.states_visited, report.states_visited);
        }
    }

    #[test]
    fn profile_level_sizes_sum_to_visited_states() {
        let spec = ring_spec(3, 3);
        for threads in [1, 4] {
            let (report, profile) = walk(
                &spec,
                ring_initial(3),
                ExploreConfig::default().with_threads(threads),
                |_| Ok(()),
                1,
            );
            assert_eq!(
                profile.level_sizes.iter().sum::<usize>(),
                report.states_visited,
                "threads = {threads}"
            );
            assert_eq!(profile.level_sizes[0], 1, "root level holds one state");
            assert_eq!(
                profile.level_sizes.len(),
                report.max_depth_reached + 1,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn profile_level_sizes_identical_across_thread_counts_on_full_walks() {
        // On an exhausted walk the per-level counts are a property of the
        // state graph, not the schedule.
        let spec = ring_spec(4, 4);
        let (_, sequential) =
            explore_profiled(&spec, ring_initial(4), ExploreConfig::default(), one_token);
        let (_, parallel) = walk(
            &spec,
            ring_initial(4),
            ExploreConfig::default().with_threads(4),
            one_token,
            1,
        );
        assert_eq!(parallel.level_sizes, sequential.level_sizes);
    }

    #[test]
    fn profile_level_sizes_count_visited_ranks_when_a_violation_stops_the_walk() {
        let (spec, initial) = counters_spec(3, 3);
        // Stops in the third rank of level 2, `(1, 0, 1)`.
        let ends_hold = |st: &SystemState<u8, ()>| {
            if *st.local(Pid(0)) >= 1 && *st.local(Pid(2)) >= 1 {
                Err("both ends counted".to_string())
            } else {
                Ok(())
            }
        };
        for threads in [1, 2, 4] {
            let config = ExploreConfig::default().with_threads(threads);
            let (report, profile) = walk(&spec, initial.clone(), config, ends_hold, 1);
            assert_eq!(report.outcome, ExploreOutcome::StoppedAtViolation);
            assert_eq!(profile.level_sizes, [1, 3, 3], "threads = {threads}");
            assert_eq!(profile.states_visited, 7);
        }
    }

    // -----------------------------------------------------------------
    // Wide levels: several chunks, and chunks that meet
    // -----------------------------------------------------------------

    /// `n` processes that each count to `max` on their own. Level `d` holds
    /// every state whose counters sum to `d`, so levels are wide, and a
    /// state with two non-zero counters is reached from two ranks of the
    /// level before it — from two chunks under [`explore_shared`], which
    /// cuts levels this narrow into one chunk per rank.
    fn counters_spec(n: usize, max: u8) -> (SystemSpec<u8, ()>, SystemState<u8, ()>) {
        let mut spec = SystemSpec::<u8, ()>::new();
        for i in 0..n {
            let pid = spec.add_process(format!("c{i}"));
            spec.add_action(
                pid,
                format!("inc{i}"),
                Guard::local(move |count: &u8| *count < max),
                |count, _, _| *count += 1,
            );
        }
        (spec, SystemState::new(vec![0; n], n))
    }

    #[test]
    fn a_successor_reached_from_two_chunks_keeps_its_first_parent() {
        let (spec, initial) = counters_spec(3, 2);
        // `(1, 1, 0)` is reached by `inc1` from rank 0 of level 1 and by
        // `inc0` from rank 1; a queue keeps the former.
        let first_two_differ = |st: &SystemState<u8, ()>| {
            if *st.local(Pid(0)) >= 1 && *st.local(Pid(1)) >= 1 {
                Err("c0 and c1 both counted".to_string())
            } else {
                Ok(())
            }
        };
        let collect_all = ExploreConfig {
            stop_at_first_violation: false,
            deadlock_is_error: true,
            ..ExploreConfig::default()
        };
        for config in [ExploreConfig::default(), collect_all] {
            let one_chunk = explore(&spec, initial.clone(), config, first_two_differ);
            assert_eq!(
                one_chunk.counterexample,
                Some(vec!["inc0".to_string(), "inc1".to_string()])
            );
            let clean = explore(&spec, initial.clone(), config, |_| Ok(()));
            assert_eq!(clean.states_visited, 27);
            for threads in [2, 3, 4] {
                let config = config.with_threads(threads);
                let shared = explore_shared(&spec, initial.clone(), config, first_two_differ);
                assert_eq!(shared, one_chunk, "threads = {threads}");
                let shared = explore_shared(&spec, initial.clone(), config, |_| Ok(()));
                assert_eq!(shared, clean, "threads = {threads}");
            }
        }
    }

    #[test]
    fn no_rank_past_the_state_budget_meets_the_invariant() {
        let (spec, initial) = counters_spec(3, 3);
        // Levels hold 1, 3, 6, 10, … ranks: a budget of 15 runs out five
        // ranks into the fourth.
        let config = ExploreConfig {
            max_states: 15,
            ..ExploreConfig::default()
        };
        let one_chunk = explore(&spec, initial.clone(), config, |_| Ok(()));
        assert_eq!(one_chunk.states_visited, 15);
        for threads in [1, 2, 4] {
            let calls = AtomicUsize::new(0);
            let counted = |_: &SystemState<u8, ()>| {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(())
            };
            let config = config.with_threads(threads);
            let (shared, profile) = walk(&spec, initial.clone(), config, counted, 1);
            assert_eq!(shared, one_chunk, "threads = {threads}");
            assert_eq!(calls.into_inner(), 15, "threads = {threads}");
            assert_eq!(profile.level_sizes, [1, 3, 6, 5], "threads = {threads}");
        }
    }

    /// Token ring of `n` processes of which the first `tokens` hold one,
    /// each with a `max_count` pass budget. When `bug` is set, process 0's
    /// first pass keeps the token while also sending it — a duplication
    /// the invariant catches.
    fn random_ring(
        n: usize,
        tokens: usize,
        max_count: u8,
        bug: bool,
    ) -> (SystemSpec<Tok, ()>, SystemState<Tok, ()>) {
        let mut spec = SystemSpec::<Tok, ()>::new();
        let pids: Vec<Pid> = (0..n).map(|i| spec.add_process(format!("p{i}"))).collect();
        for i in 0..n {
            let next = pids[(i + 1) % n];
            let duplicate_here = bug && i == 0;
            spec.add_action(
                pids[i],
                format!("pass{i}"),
                Guard::local(move |s: &Tok| s.holding && s.count < max_count),
                move |s, _, fx| {
                    if !(duplicate_here && s.count == 0) {
                        s.holding = false;
                    }
                    s.count += 1;
                    fx.send(next, ());
                },
            );
            let from = pids[(i + n - 1) % n];
            spec.add_action(
                pids[i],
                format!("take{i}"),
                Guard::receive(from),
                |s, _, _| s.holding = true,
            );
        }
        let mut initial = ring_initial(n);
        for pid in pids.into_iter().take(tokens) {
            initial.local_mut(pid).holding = true;
        }
        (spec, initial)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random small specs under random bounds: the whole report —
        /// distinct states, transitions, violations, outcome,
        /// counterexample — is the same shared among 2 or 4 workers as in
        /// one chunk.
        #[test]
        fn shared_walk_matches_one_chunk(
            n in 2usize..=4,
            tokens in 1usize..=2,
            max_count in 1u8..=3,
            bug in any::<bool>(),
            max_depth in 4usize..=12,
            max_states in 50usize..=5_000,
            stop_at_first in any::<bool>(),
        ) {
            let expected = tokens.min(n);
            let (spec, initial) = random_ring(n, expected, max_count, bug);
            let config = ExploreConfig {
                max_states,
                max_depth,
                stop_at_first_violation: stop_at_first,
                ..ExploreConfig::default()
            };
            let invariant = move |st: &SystemState<Tok, ()>| {
                let found = tokens_in_system(st);
                if found == expected {
                    Ok(())
                } else {
                    Err(format!("{found} tokens in system, expected {expected}"))
                }
            };
            let one_chunk = explore(&spec, initial.clone(), config, invariant);
            for threads in [2usize, 4] {
                let shared =
                    explore_shared(&spec, initial.clone(), config.with_threads(threads), invariant);
                prop_assert_eq!(
                    &shared,
                    &one_chunk,
                    "report diverged at {} threads (n={}, tokens={}, max_count={}, bug={})",
                    threads,
                    n,
                    tokens,
                    max_count,
                    bug
                );
            }
        }
    }

    #[test]
    fn parallel_find_reachable_matches_sequential() {
        let spec = ring_spec(3, 5);
        let goal = |st: &SystemState<Tok, ()>| {
            st.local_states()
                .iter()
                .map(|s| u32::from(s.count))
                .sum::<u32>()
                >= 2
        };
        let sequential = find_reachable(&spec, ring_initial(3), ExploreConfig::default(), goal);
        let parallel = find_reachable(
            &spec,
            ring_initial(3),
            ExploreConfig::default().with_threads(4),
            goal,
        );
        assert_eq!(parallel, sequential);
        assert!(sequential.is_some());
    }
}
