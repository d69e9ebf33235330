//! A literal Abstract-Protocol-notation encoding of the paper's formal
//! specification, machine-checked with [`zmail_ap`].
//!
//! The paper specifies Zmail in AP notation but verifies nothing
//! mechanically. This module encodes the §4.1 zero-sum transfer and the
//! §4.4 snapshot/consistency-check machinery as [`zmail_ap::SystemSpec`]
//! guarded actions, and [`build_spec`] hands the result to the bounded
//! explorer so every reachable state of a small configuration is checked.
//!
//! ## The timeout subtlety
//!
//! The paper implements quiescence with a wall-clock wait: an ISP that
//! receives `request` stops sending and waits "say, 10 minutes, to ensure
//! that every email that it sent out is received". AP timeout guards let
//! us model two readings:
//!
//! * [`TimeoutMode::GlobalQuiescence`] — the wait is long enough that
//!   *every* compliant ISP has received its request, frozen, and drained
//!   (the paper's intent: 10 minutes ≫ network latency);
//! * [`TimeoutMode::LocalDrain`] — the literal local condition: *my own*
//!   outbound channels are empty.
//!
//! Exploration shows the difference is real: under `LocalDrain` an ISP can
//! reply and reset its credit while a peer that has not yet frozen is
//! still sending to it, and the bank then reports a discrepancy between
//! two *honest* ISPs — a false positive of the misbehavior detector. Under
//! `GlobalQuiescence` every reachable state is clean. Experiment E12
//! reports both.
//!
//! ## The resumption subtlety (a second finding)
//!
//! Liveness checking ([`zmail_ap::find_reachable`]) exposed a further
//! hazard that pure safety exploration missed: even with the
//! global-quiescence timeout, an ISP whose window has *ended* resumes
//! sending while a slower peer is still frozen — and the resumed ISP's
//! new-period mail lands in the laggard's **old-period** ledger, again
//! producing an honest-pair discrepancy. In the real deployment the
//! synchronized wall-clock windows (all requests arrive within one
//! latency; all windows are the same length ≫ latency) make this
//! impossible; in the asynchronous AP semantics it must be stated. The
//! send guard below therefore carries the paper's implicit global
//! condition: an ISP does not send while any peer is still reporting an
//! older round. With it, every configuration verifies clean *and* a
//! complete billing round is provably reachable.

use zmail_ap::{
    explore, explore_profiled, ActionMeta, ExploreConfig, ExploreProfile, ExploreReport, Guard,
    Pid, SystemSpec, SystemState,
};

/// Parameters of the model-checked configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecParams {
    /// Number of ISPs (keep at 2–3 for exhaustive exploration).
    pub isps: usize,
    /// Users per ISP.
    pub users: usize,
    /// Initial e-penny balance per user.
    pub initial_balance: i64,
    /// Daily send limit per user.
    pub limit: i64,
    /// Snapshot rounds the bank may run (bounds the state space).
    pub max_rounds: i64,
    /// The timeout-guard reading (see module docs).
    pub timeout_mode: TimeoutMode,
}

impl Default for SpecParams {
    fn default() -> Self {
        SpecParams {
            isps: 2,
            users: 1,
            initial_balance: 1,
            limit: 2,
            max_rounds: 1,
            timeout_mode: TimeoutMode::GlobalQuiescence,
        }
    }
}

/// The two readings of the paper's 10-minute wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutMode {
    /// Reply only when every compliant ISP is frozen and all inter-ISP
    /// channels are empty — what the long wall-clock wait guarantees.
    GlobalQuiescence,
    /// Reply when my own outbound channels are empty — the literal local
    /// condition, which admits false positives.
    LocalDrain,
}

/// Local state of one process in the spec.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ProcState {
    /// An ISP.
    Isp(IspState),
    /// The bank.
    Bank(BankState),
}

/// The paper's ISP variables (the subset the checked sections use).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IspState {
    /// `balance[0..m-1]`.
    pub balance: Vec<i64>,
    /// `sent[0..m-1]`.
    pub sent: Vec<i64>,
    /// `credit[0..n-1]`.
    pub credit: Vec<i64>,
    /// `cansend`.
    pub cansend: bool,
    /// `seq`.
    pub seq: i64,
}

/// The paper's bank variables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BankState {
    /// `seq`.
    pub seq: i64,
    /// `verify[i][g]` = `credit[i]` reported by `isp[g]`.
    pub verify: Vec<Vec<i64>>,
    /// Which ISPs still owe a reply this round.
    pub awaiting: Vec<bool>,
    /// `canrequest`.
    pub canrequest: bool,
    /// Set when a completed round found a nonzero pairwise sum.
    pub error_detected: bool,
    /// Rounds completed.
    pub rounds: i64,
}

/// Messages of the spec.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SpecMsg {
    /// `email(s, r)` carrying one e-penny.
    Email {
        /// Sending user index at the source ISP.
        s: usize,
        /// Receiving user index at the destination ISP.
        r: usize,
    },
    /// `request(seq)`.
    Request {
        /// The bank's round sequence number.
        seq: i64,
    },
    /// `reply(credit)`.
    Reply {
        /// The reporting ISP's index.
        from: usize,
        /// Its credit array at reply time.
        credit: Vec<i64>,
    },
}

fn isp_state(st: &ProcState) -> &IspState {
    match st {
        ProcState::Isp(s) => s,
        ProcState::Bank(_) => panic!("expected ISP state"),
    }
}

fn isp_state_mut(st: &mut ProcState) -> &mut IspState {
    match st {
        ProcState::Isp(s) => s,
        ProcState::Bank(_) => panic!("expected ISP state"),
    }
}

fn bank_state_mut(st: &mut ProcState) -> &mut BankState {
    match st {
        ProcState::Bank(s) => s,
        ProcState::Isp(_) => panic!("expected bank state"),
    }
}

/// Builds the AP spec and its initial state for `params`.
///
/// # Panics
///
/// Panics if `params.isps < 2` (the consistency check needs a pair).
pub fn build_spec(
    params: SpecParams,
) -> (
    SystemSpec<ProcState, SpecMsg>,
    SystemState<ProcState, SpecMsg>,
) {
    assert!(params.isps >= 2, "need at least two ISPs");
    let n = params.isps;
    let m = params.users;
    let mut spec = SystemSpec::<ProcState, SpecMsg>::new();
    let isp_pids: Vec<Pid> = (0..n)
        .map(|i| spec.add_process(format!("isp{i}")))
        .collect();
    let bank_pid = spec.add_process("bank");

    // --- §4.1: sending and receiving email ---------------------------------
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let to_pid = isp_pids[j];
            let limit = params.limit;
            for s in 0..m {
                for r in 0..m {
                    let my_pid = isp_pids[i];
                    let peers = isp_pids.clone();
                    spec.add_action_meta(
                        isp_pids[i],
                        format!("send i{i} j{j} s{s} r{r}"),
                        // The paper's guard is local (`cansend ∧ …`), but
                        // its wall-clock windows add an implicit global
                        // condition: an ISP that resumed after its window
                        // cannot have mail arrive at a peer still inside
                        // one (10 minutes ≫ latency). We encode that as
                        // "no peer is still reporting an older round" —
                        // without it, exploration finds a second detector
                        // false positive (see module docs).
                        Guard::timeout(move |global: &SystemState<ProcState, SpecMsg>| {
                            let me = isp_state(global.local(my_pid));
                            me.cansend
                                && me.balance[s] >= 1
                                && me.sent[s] < limit
                                && peers
                                    .iter()
                                    .all(|&p| isp_state(global.local(p)).seq >= me.seq)
                        }),
                        ActionMeta::new()
                            .reads(["cansend", "balance", "sent", "seq"])
                            .writes(["balance", "credit", "sent"])
                            .sends_to([to_pid])
                            .reads_global(),
                        move |st, _msg, fx| {
                            let isp = isp_state_mut(st);
                            isp.balance[s] -= 1;
                            isp.credit[j] += 1;
                            isp.sent[s] += 1;
                            fx.send(to_pid, SpecMsg::Email { s, r });
                        },
                    );
                }
            }
            // rcv email(s, r) from isp[g]
            spec.add_action_meta(
                isp_pids[j],
                format!("recv j{j} from{i}"),
                Guard::receive(isp_pids[i]),
                ActionMeta::new()
                    .reads(["balance", "credit"])
                    .writes(["balance", "credit"]),
                move |st, msg, _fx| {
                    let Some(SpecMsg::Email { r, .. }) = msg else {
                        panic!("isp-to-isp channel carries only email");
                    };
                    let isp = isp_state_mut(st);
                    isp.balance[*r] += 1;
                    isp.credit[i] -= 1;
                },
            );
        }
    }

    // --- §4.4: snapshot request / reply / verification ----------------------
    let max_rounds = params.max_rounds;
    spec.add_action_meta(
        bank_pid,
        "bank request",
        Guard::local(move |st: &ProcState| match st {
            ProcState::Bank(b) => b.canrequest && b.rounds < max_rounds,
            ProcState::Isp(_) => false,
        }),
        ActionMeta::new()
            .reads(["canrequest", "rounds", "seq"])
            .writes(["canrequest", "awaiting"])
            .sends_to(isp_pids.iter().copied()),
        {
            let isp_pids = isp_pids.clone();
            move |st, _msg, fx| {
                let bank = bank_state_mut(st);
                bank.canrequest = false;
                for flag in &mut bank.awaiting {
                    *flag = true;
                }
                for &pid in &isp_pids {
                    fx.send(pid, SpecMsg::Request { seq: bank.seq });
                }
            }
        },
    );

    for i in 0..n {
        // rcv request(x) from bank
        spec.add_action_meta(
            isp_pids[i],
            format!("isp{i} recv request"),
            Guard::receive(bank_pid),
            ActionMeta::new().reads(["seq"]).writes(["cansend"]),
            |st, msg, _fx| {
                let Some(SpecMsg::Request { seq }) = msg else {
                    panic!("bank-to-isp channel carries only requests");
                };
                let isp = isp_state_mut(st);
                if *seq == isp.seq {
                    isp.cansend = false;
                }
            },
        );
        // timeout expired → reply, reset credit, resume
        let mode = params.timeout_mode;
        let my_pid = isp_pids[i];
        let isp_pids_for_guard = isp_pids.clone();
        spec.add_action_meta(
            isp_pids[i],
            format!("isp{i} timeout"),
            Guard::timeout(move |global: &SystemState<ProcState, SpecMsg>| {
                let me = isp_state(global.local(my_pid));
                if me.cansend {
                    return false;
                }
                match mode {
                    TimeoutMode::LocalDrain => isp_pids_for_guard
                        .iter()
                        .all(|&other| other == my_pid || global.channel_len(my_pid, other) == 0),
                    TimeoutMode::GlobalQuiescence => {
                        // Every peer has reached this round (frozen now, or
                        // already replied — its seq moved past mine), and
                        // every inter-ISP channel is empty.
                        isp_pids_for_guard.iter().all(|&p| {
                            let peer = isp_state(global.local(p));
                            !peer.cansend || peer.seq > me.seq
                        }) && isp_pids_for_guard.iter().all(|&a| {
                            isp_pids_for_guard
                                .iter()
                                .all(|&b| a == b || global.channel_len(a, b) == 0)
                        })
                    }
                }
            }),
            ActionMeta::new()
                .reads(["cansend", "credit", "seq"])
                .writes(["credit", "cansend", "seq"])
                .sends_to([bank_pid])
                .reads_global(),
            move |st, _msg, fx| {
                let isp = isp_state_mut(st);
                fx.send(
                    bank_pid,
                    SpecMsg::Reply {
                        from: my_pid.0,
                        credit: isp.credit.clone(),
                    },
                );
                for c in &mut isp.credit {
                    *c = 0;
                }
                isp.cansend = true;
                isp.seq += 1;
            },
        );
        // bank receives the reply
        spec.add_action_meta(
            bank_pid,
            format!("bank recv reply {i}"),
            Guard::receive(isp_pids[i]),
            // `error_detected` is deliberately write-only here: the spec
            // invariant (external to the process) is its reader, so the
            // analyzer reports one AP007 warning for it — see EXPERIMENTS.md.
            ActionMeta::new()
                .reads(["verify", "awaiting", "seq", "rounds"])
                .writes([
                    "verify",
                    "awaiting",
                    "canrequest",
                    "error_detected",
                    "seq",
                    "rounds",
                ]),
            move |st, msg, _fx| {
                let Some(SpecMsg::Reply { from, credit }) = msg else {
                    panic!("isp-to-bank channel carries only replies");
                };
                let bank = bank_state_mut(st);
                for (idx, &value) in credit.iter().enumerate() {
                    bank.verify[idx][*from] = value;
                }
                bank.awaiting[*from] = false;
                if bank.awaiting.iter().all(|&a| !a) {
                    let n = bank.awaiting.len();
                    for a in 0..n {
                        for b in (a + 1)..n {
                            if bank.verify[b][a] + bank.verify[a][b] != 0 {
                                bank.error_detected = true;
                            }
                        }
                    }
                    bank.canrequest = true;
                    bank.seq += 1;
                    bank.rounds += 1;
                }
            },
        );
    }

    let mut locals: Vec<ProcState> = (0..n)
        .map(|_| {
            ProcState::Isp(IspState {
                balance: vec![params.initial_balance; m],
                sent: vec![0; m],
                credit: vec![0; n],
                cansend: true,
                seq: 0,
            })
        })
        .collect();
    locals.push(ProcState::Bank(BankState {
        seq: 0,
        verify: vec![vec![0; n]; n],
        awaiting: vec![false; n],
        canrequest: true,
        error_detected: false,
        rounds: 0,
    }));
    let state = SystemState::new(locals, n + 1);
    (spec, state)
}

/// Maps a spec action name to the [`World`] footprint keys of
/// the `ZmailWorld` event that mirrors it in the executable harness —
/// the executable half of [`zmail_ap::independence_crosscheck`].
///
/// | spec action | mirrored harness event | keys |
/// |---|---|---|
/// | `send i{i} …` | `Workload` entry from ISP *i* | `isp_key(i)` |
/// | `recv j{j} …` | `Deliver` of an email at ISP *j* | `isp_key(j)` |
/// | `isp{i} recv request` | `Deliver` of a snapshot request at ISP *i* | `isp_key(i)` |
/// | `isp{i} timeout` | `SnapshotTimeout(i)` | `isp_key(i)` |
/// | `bank request` | `BillingKickoff` | `BANK_KEY` |
/// | `bank recv reply {i}` | `Deliver` of a snapshot reply at the bank | `BANK_KEY` |
///
/// Returns `None` for names that mirror no harness event, so unknown
/// actions are skipped by the cross-check rather than mis-mapped.
///
/// [`World`]: zmail_sim::World
pub fn sim_mirror_keys(name: &str) -> Option<Vec<u64>> {
    use crate::system::{isp_key, BANK_KEY};
    if name == "bank request" || name.starts_with("bank recv reply") {
        return Some(vec![BANK_KEY]);
    }
    let isp_index = |rest: &str| rest.split_whitespace().next()?.parse::<u32>().ok();
    if let Some(rest) = name.strip_prefix("send i") {
        return Some(vec![isp_key(isp_index(rest)?)]);
    }
    if let Some(rest) = name.strip_prefix("recv j") {
        return Some(vec![isp_key(isp_index(rest)?)]);
    }
    if let Some(rest) = name.strip_prefix("isp") {
        return Some(vec![isp_key(isp_index(rest)?)]);
    }
    None
}

/// Per-action sim footprints aligned with `spec.actions()` order — the
/// `sim_keys` argument of [`zmail_ap::independence_crosscheck`].
pub fn sim_mirror_footprints(spec: &SystemSpec<ProcState, SpecMsg>) -> Vec<Option<Vec<u64>>> {
    spec.actions()
        .iter()
        .map(|a| sim_mirror_keys(&a.name))
        .collect()
}

/// The conservation + safety invariant checked in every explored state.
///
/// Returns an error description when e-pennies are created or destroyed,
/// a balance goes negative, or (for honest ISPs) the bank flags an error.
pub fn spec_invariant(
    params: SpecParams,
) -> impl Fn(&SystemState<ProcState, SpecMsg>) -> Result<(), String> {
    let expected_total = (params.isps * params.users) as i64 * params.initial_balance;
    move |state: &SystemState<ProcState, SpecMsg>| {
        let n = params.isps;
        let mut total = 0i64;
        for p in 0..n {
            let isp = isp_state(state.local(Pid(p)));
            for (u, &b) in isp.balance.iter().enumerate() {
                if b < 0 {
                    return Err(format!("isp{p} user{u} balance {b} negative"));
                }
                total += b;
            }
            for (u, &s) in isp.sent.iter().enumerate() {
                if s < 0 || s > params.limit {
                    return Err(format!("isp{p} user{u} sent {s} outside limit"));
                }
            }
        }
        // Each in-flight email carries one e-penny.
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    total += state
                        .channel_iter(Pid(a), Pid(b))
                        .filter(|m| matches!(m, SpecMsg::Email { .. }))
                        .count() as i64;
                }
            }
        }
        if total != expected_total {
            return Err(format!(
                "conservation broken: {total} e-pennies, expected {expected_total}"
            ));
        }
        if let ProcState::Bank(bank) = state.local(Pid(n)) {
            if bank.error_detected {
                return Err("bank flagged honest ISPs as inconsistent".into());
            }
        }
        Ok(())
    }
}

/// Explores the spec exhaustively under `params` with the given budget.
pub fn check(params: SpecParams, max_states: usize) -> ExploreReport {
    check_with(params, max_states, 1)
}

/// Like [`check`], but sharing wide levels among up to `threads` threads
/// (`0` = all available cores). The report is identical for every thread
/// count.
pub fn check_with(params: SpecParams, max_states: usize, threads: usize) -> ExploreReport {
    let (spec, initial) = build_spec(params);
    explore(
        &spec,
        initial,
        ExploreConfig {
            max_states,
            threads,
            ..ExploreConfig::default()
        },
        spec_invariant(params),
    )
}

/// Like [`check_with`], but also returns the explorer's execution
/// profile — per-level frontier sizes, wall time and states/second. The
/// report half is byte-identical to [`check_with`] for the same inputs.
pub fn check_with_profiled(
    params: SpecParams,
    max_states: usize,
    threads: usize,
) -> (ExploreReport, ExploreProfile) {
    let (spec, initial) = build_spec(params);
    explore_profiled(
        &spec,
        initial,
        ExploreConfig {
            max_states,
            threads,
            ..ExploreConfig::default()
        },
        spec_invariant(params),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use zmail_ap::ExploreOutcome;

    #[test]
    fn default_spec_is_clean_under_global_quiescence() {
        let report = check(SpecParams::default(), 200_000);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.outcome, ExploreOutcome::Exhausted);
        assert!(report.states_visited > 100, "exploration too shallow");
    }

    #[test]
    fn local_drain_reading_admits_false_positives() {
        // The paper-literal timeout lets an ISP reply before its peer
        // froze; the peer's late send shows up as a discrepancy between
        // two honest ISPs.
        let params = SpecParams {
            timeout_mode: TimeoutMode::LocalDrain,
            initial_balance: 2,
            ..SpecParams::default()
        };
        let report = check(params, 500_000);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.to_string().contains("flagged honest")),
            "expected the false-positive to be reachable; got {:?}",
            report.violations
        );
    }

    #[test]
    fn conservation_holds_even_under_local_drain() {
        // Run LocalDrain but only check conservation: the e-penny ledger
        // itself is never corrupted, only the *detector* misfires.
        let params = SpecParams {
            timeout_mode: TimeoutMode::LocalDrain,
            ..SpecParams::default()
        };
        let (spec, initial) = build_spec(params);
        let expected = (params.isps * params.users) as i64 * params.initial_balance;
        let report = explore(&spec, initial, ExploreConfig::default(), move |state| {
            let n = params.isps;
            let mut total = 0i64;
            for p in 0..n {
                total += isp_state(state.local(Pid(p))).balance.iter().sum::<i64>();
            }
            for a in 0..n {
                for b in 0..n {
                    if a != b {
                        total += state
                            .channel_iter(Pid(a), Pid(b))
                            .filter(|m| matches!(m, SpecMsg::Email { .. }))
                            .count() as i64;
                    }
                }
            }
            if total == expected {
                Ok(())
            } else {
                Err(format!("{total} != {expected}"))
            }
        });
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn three_isps_explore_clean() {
        let params = SpecParams {
            isps: 3,
            initial_balance: 1,
            limit: 1,
            ..SpecParams::default()
        };
        let report = check(params, 400_000);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn two_users_per_isp_clean() {
        let params = SpecParams {
            users: 2,
            limit: 1,
            ..SpecParams::default()
        };
        let report = check(params, 400_000);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn large_configuration_holds_under_randomized_schedules() {
        // n=3, m=2, bal=3 is beyond comfortable exhaustive exploration;
        // randomized checked execution covers it statistically instead.
        let params = SpecParams {
            isps: 3,
            users: 2,
            initial_balance: 3,
            limit: 5,
            max_rounds: 2,
            timeout_mode: TimeoutMode::GlobalQuiescence,
        };
        let (spec, initial) = build_spec(params);
        let invariant = spec_invariant(params);
        for seed in 0..10u64 {
            let mut state = initial.clone();
            let mut runner = zmail_ap::Runner::new(&spec, seed);
            runner
                .run_checked(&mut state, 5_000, &invariant)
                .unwrap_or_else(|(step, msg)| {
                    panic!("seed {seed}: violated at step {step}: {msg}")
                });
        }
    }

    #[test]
    fn billing_round_completion_is_reachable() {
        // Liveness flavour: the spec doesn't just avoid bad states — a
        // complete billing round actually happens on some execution.
        let params = SpecParams::default();
        let (spec, initial) = build_spec(params);
        let n = params.isps;
        let witness = zmail_ap::find_reachable(
            &spec,
            initial,
            zmail_ap::ExploreConfig::default(),
            move |st| match st.local(Pid(n)) {
                ProcState::Bank(b) => b.rounds >= 1,
                ProcState::Isp(_) => false,
            },
        )
        .expect("a billing round must be completable");
        // Minimum: request, 2x recv request, 2x timeout, 2x bank recv = 7.
        assert_eq!(witness.depth, 7, "shortest round: {:?}", witness.trace);
        assert_eq!(witness.trace[0], "bank request");
    }

    #[test]
    fn paid_transfer_is_reachable() {
        let params = SpecParams::default();
        let (spec, initial) = build_spec(params);
        let witness =
            zmail_ap::find_reachable(&spec, initial, zmail_ap::ExploreConfig::default(), |st| {
                match st.local(Pid(1)) {
                    // isp1's single user gained an e-penny.
                    ProcState::Isp(isp) => isp.balance[0] > 1,
                    ProcState::Bank(_) => false,
                }
            })
            .expect("a transfer must be completable");
        assert_eq!(witness.depth, 2, "send then receive");
    }

    #[test]
    fn mirror_keys_parse_every_action_name_shape() {
        use crate::system::{isp_key, BANK_KEY};
        assert_eq!(sim_mirror_keys("send i2 j0 s1 r0"), Some(vec![isp_key(2)]));
        assert_eq!(sim_mirror_keys("recv j1 from0"), Some(vec![isp_key(1)]));
        assert_eq!(sim_mirror_keys("isp0 recv request"), Some(vec![isp_key(0)]));
        assert_eq!(sim_mirror_keys("isp1 timeout"), Some(vec![isp_key(1)]));
        assert_eq!(sim_mirror_keys("bank request"), Some(vec![BANK_KEY]));
        assert_eq!(sim_mirror_keys("bank recv reply 1"), Some(vec![BANK_KEY]));
        assert_eq!(sim_mirror_keys("retry"), None);
    }

    #[test]
    fn independence_crosscheck_is_clean_on_bundled_configs() {
        // The verified model's independence relation and the harness's
        // World footprints must tell the same story: every
        // model-level dependence is either key overlap at the sim level
        // or carried by the scheduler (channel FIFO / serialized apply),
        // and no proven-independent pair collides on a key.
        let configs = [
            SpecParams::default(),
            SpecParams {
                users: 2,
                limit: 1,
                ..SpecParams::default()
            },
            SpecParams {
                isps: 3,
                limit: 1,
                ..SpecParams::default()
            },
        ];
        for params in configs {
            let (spec, _) = build_spec(params);
            let report = zmail_ap::analyze_structure(&spec);
            let keys = sim_mirror_footprints(&spec);
            assert!(
                keys.iter().all(Option::is_some),
                "every spec action has a harness mirror"
            );
            let cross = zmail_ap::independence_crosscheck(&spec, &report, &keys);
            assert!(
                cross.findings.is_empty(),
                "model/harness divergence for {params:?}:\n{cross}"
            );
            assert!(cross.pairs_compared > 0);
            // The explained bucket is exercised, not vacuous: channel
            // deliveries and timeout guards both appear in the spec.
            assert!(cross.explained_count(zmail_ap::DependenceReason::ChannelOrder) > 0);
            assert!(cross.explained_count(zmail_ap::DependenceReason::GlobalReads) > 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least two ISPs")]
    fn single_isp_panics() {
        build_spec(SpecParams {
            isps: 1,
            ..SpecParams::default()
        });
    }

    #[test]
    fn parallel_exploration_matches_sequential_on_e12_configs() {
        // The E12 experiment's six configurations, with a budget small
        // enough for a test run. The full report — states visited,
        // violation set, counterexample trace, outcome — must be
        // byte-identical for every thread count.
        let configs = [
            SpecParams::default(),
            SpecParams {
                initial_balance: 2,
                ..SpecParams::default()
            },
            SpecParams {
                initial_balance: 2,
                max_rounds: 2,
                ..SpecParams::default()
            },
            SpecParams {
                users: 2,
                limit: 1,
                ..SpecParams::default()
            },
            SpecParams {
                isps: 3,
                limit: 1,
                ..SpecParams::default()
            },
            SpecParams {
                initial_balance: 2,
                timeout_mode: TimeoutMode::LocalDrain,
                ..SpecParams::default()
            },
        ];
        for params in configs {
            let sequential = check_with(params, 200_000, 1);
            for threads in [2, 4] {
                let parallel = check_with(params, 200_000, threads);
                assert_eq!(
                    parallel, sequential,
                    "report diverged at {threads} threads for {params:?}"
                );
            }
        }
    }
}
