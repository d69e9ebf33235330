//! Scenario harness: the whole Zmail system under a randomized fault
//! plan, checked against system-wide invariants.
//!
//! A [`Scenario`] bundles a deployment size, a workload length, a
//! [`FaultPlan`], and one seed. [`Scenario::run`] executes the full
//! protocol stack under that plan and returns an [`Outcome`] carrying
//! every invariant [`Violation`] found:
//!
//! * **zero-sum audit** — the extended ledger (`issued + bootstrap −
//!   destroyed + counterfeited − stranded = found`) must balance to the
//!   e-penny, whatever was injected;
//! * **pairwise consistency** — when billing never reset the credit
//!   arrays, `credit[i][j] + credit[j][i]` must equal exactly the drift
//!   the injector's [pair ledgers](zmail_fault::PairLedger) predict
//!   (lost minus duplicated e-pennies for that pair), not an e-penny
//!   more;
//! * **liveness** — once every fault window has closed and the trace has
//!   drained, no ISP may be left wedged in a bank exchange and no
//!   e-penny may be stuck in flight.
//!
//! Everything is deterministic from `Scenario::seed`: the workload, the
//! plan (for [`Scenario::random`]), and every fault decision replay
//! byte-identically, so a failure report is a complete reproduction
//! recipe. [`Scenario::shrink_failure`] then minimizes the plan by delta
//! debugging ([`zmail_fault::shrink()`]) to a 1-minimal clause set that
//! still fails.
//!
//! ```rust
//! use zmail::fault_scenarios::Scenario;
//!
//! let outcome = Scenario::random(7).run();
//! assert!(outcome.is_ok(), "{}", Scenario::random(7).failure_report(&outcome));
//! ```

use std::fmt;
use zmail_core::{AttestWeakness, IspId, RunReport, ZmailConfig, ZmailSystem};
use zmail_fault::{
    shrink, AdversaryCounters, AttackClass, FaultCounters, FaultPlan, PlanSpace, ShrinkOutcome,
};
use zmail_obs::{FlightRecorder, SpanLog};
use zmail_sim::racecheck::RacecheckReport;
use zmail_sim::workload::{SendEvent, TrafficConfig, TrafficGenerator, UserAddr};
use zmail_sim::{Sampler, SimDuration, SimTime};

/// Sampler stream id for deriving a scenario's fault plan from its seed,
/// independent of the workload and network streams.
const PLAN_STREAM: u64 = 0x5EED_F417;

/// One invariant breach found by [`Scenario::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The extended zero-sum audit did not balance.
    AuditBroken(String),
    /// E-pennies were still inside network messages after the drain.
    PenniesInFlight(i64),
    /// An ISP was left with a bank exchange outstanding forever.
    WedgedIsp(u32),
    /// A pairwise credit sum drifted away from the injector's prediction.
    PairwiseDrift {
        /// First ISP of the pair.
        a: u32,
        /// Second ISP of the pair.
        b: u32,
        /// Drift the pair ledger predicts (lost − duplicated e-pennies).
        expected: i64,
        /// Observed `credit[a][b] + credit[b][a]`.
        actual: i64,
    },
    /// Billing rounds accused honest ISPs (only checked when the
    /// scenario demands clean consistency reports).
    HonestAccusation {
        /// Rounds with at least one accusation.
        accused: usize,
        /// Rounds completed in total.
        total: usize,
    },
    /// Durable scenarios only: a crash-recovery reloaded books that
    /// differed from the live pre-crash books, or the end-of-run store
    /// replay failed to reproduce the deployment's books.
    RecoveryDivergence {
        /// ISP whose mid-run recovery diverged; `None` when the
        /// end-of-run store replay itself was wrong.
        isp: Option<u32>,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::AuditBroken(e) => write!(f, "zero-sum audit broken: {e}"),
            Violation::PenniesInFlight(n) => {
                write!(f, "{n} e-pennies still in flight after drain")
            }
            Violation::WedgedIsp(i) => {
                write!(f, "isp{i} wedged: bank exchange outstanding after drain")
            }
            Violation::PairwiseDrift {
                a,
                b,
                expected,
                actual,
            } => write!(
                f,
                "credit[{a}][{b}] + credit[{b}][{a}] = {actual}, \
                 but injected faults predict {expected}"
            ),
            Violation::HonestAccusation { accused, total } => {
                write!(f, "{accused} of {total} billing rounds accused honest ISPs")
            }
            Violation::RecoveryDivergence { isp: Some(i) } => {
                write!(
                    f,
                    "isp{i} recovered books diverged from its pre-crash books"
                )
            }
            Violation::RecoveryDivergence { isp: None } => {
                write!(f, "durable store replay did not reproduce the live books")
            }
        }
    }
}

/// What a scenario run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The protocol-level run report.
    pub report: RunReport,
    /// The injector's own deterministic tallies.
    pub counters: FaultCounters,
    /// The adversary engine's tallies (all zero without adversary
    /// clauses): attacks attempted and attacks refused, by class.
    pub adversary: AdversaryCounters,
    /// Every invariant breach, in check order. Empty means the run held.
    pub violations: Vec<Violation>,
}

impl Outcome {
    /// Whether every invariant held.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A reproducible full-system run under a fault plan.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Master seed: workload, fault decisions, and (for
    /// [`Scenario::random`]) the plan itself all derive from it.
    pub seed: u64,
    /// Number of compliant ISPs.
    pub isps: u32,
    /// Users per ISP.
    pub users_per_isp: u32,
    /// Workload length in days.
    pub days: u64,
    /// The faults to inject.
    pub plan: FaultPlan,
    /// Run daily billing rounds (credit snapshots reset the credit
    /// arrays, so the pairwise drift check is skipped).
    pub daily_billing: bool,
    /// Demand that no billing round accuses anyone. Under email loss
    /// this is a *known-false* property (E13: the detector turns on
    /// honest ISPs) — it exists to exercise failure reporting and the
    /// shrinker on demand.
    pub require_clean_consistency: bool,
    /// Run with the durable ledger store: every mutation is journalled,
    /// `Crash` windows restart their ISP *from recovery* (checkpoint +
    /// WAL replay) instead of preserved memory, and the scenario checks
    /// recovered books never diverge from the pre-crash ones.
    pub durable: bool,
    /// Run with signed payment/ack attestations: every paid inter-ISP
    /// message carries an `X-Zmail-Sig` attestation which the receiver
    /// verifies (signature, field binding, nonce freshness) before
    /// crediting. Required for adversary clauses to have teeth.
    pub attestations: bool,
    /// Deliberately weaken one attestation check (self-test knob): the
    /// campaign harness injects these to prove the audits catch a
    /// broken verifier, and the shrinker minimizes the escape.
    pub attest_weakness: Option<AttestWeakness>,
    /// Register a §5 mailing list distributed from this ISP (user 0),
    /// with every other ISP's users 0 and 1 subscribed at
    /// `ack_prob = 1.0`, posting every 4 simulated hours. This is the
    /// ack/refund traffic the replay-farming adversary preys on.
    pub mailing_list: Option<u32>,
}

impl Scenario {
    /// A small, fast deployment (3 ISPs × 8 users × 3 days) with a
    /// perfectly reliable network.
    pub fn new(seed: u64) -> Self {
        Scenario {
            seed,
            isps: 3,
            users_per_isp: 8,
            days: 3,
            plan: FaultPlan::none(),
            daily_billing: false,
            require_clean_consistency: false,
            durable: false,
            attestations: false,
            attest_weakness: None,
            mailing_list: None,
        }
    }

    /// A scenario whose fault plan is drawn deterministically from the
    /// seed: same seed, same plan, same run, byte for byte.
    pub fn random(seed: u64) -> Self {
        let mut scenario = Scenario::new(seed);
        let mut sampler = Sampler::new(seed).derive(PLAN_STREAM);
        scenario.plan = FaultPlan::random(
            &mut sampler,
            &PlanSpace {
                isps: scenario.isps,
                horizon: SimTime::ZERO + SimDuration::from_days(scenario.days),
                max_faults: 4,
            },
        );
        scenario
    }

    /// Replaces the plan (builder style).
    #[must_use]
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Turns on the durable ledger store (builder style); see
    /// [`Scenario::durable`].
    #[must_use]
    pub fn with_durability(mut self) -> Self {
        self.durable = true;
        self
    }

    /// Turns on signed payment/ack attestations (builder style); see
    /// [`Scenario::attestations`].
    #[must_use]
    pub fn with_attestations(mut self) -> Self {
        self.attestations = true;
        self
    }

    /// Weakens one attestation check (builder style) — the self-test
    /// knob of the adversary campaigns; see [`Scenario::attest_weakness`].
    #[must_use]
    pub fn with_attest_weakness(mut self, weakness: AttestWeakness) -> Self {
        self.attestations = true;
        self.attest_weakness = Some(weakness);
        self
    }

    /// An adversarial scenario: attestations on, and the plan holding a
    /// single seed-derived [`zmail_fault::AdversaryFault`] clause of
    /// `class`. Same seed + class, same run, byte for byte. Class-aware
    /// wiring gives each attack its prey: replay farmers get a mailing
    /// list distributed from an ISP the attacker acks to, and colluding
    /// rings run under daily billing so the §4.4 consistency rounds can
    /// attribute the counterfeits to the pair.
    pub fn adversarial(seed: u64, class: AttackClass) -> Self {
        let mut scenario = Scenario::new(seed).with_attestations();
        let mut sampler = Sampler::new(seed).derive(PLAN_STREAM ^ (class as u64 + 1));
        scenario.plan = FaultPlan::adversarial(
            &mut sampler,
            class,
            &PlanSpace {
                isps: scenario.isps,
                horizon: SimTime::ZERO + SimDuration::from_days(scenario.days),
                max_faults: 1,
            },
        );
        let attacker = scenario
            .plan
            .faults
            .iter()
            .find_map(|f| match f {
                zmail_fault::Fault::Adversary(a) => Some(a.isp),
                _ => None,
            })
            .expect("adversarial plan carries an adversary clause");
        match class {
            // The attacker must *send* acks for the tap to capture:
            // distribute the list from a different ISP, so the
            // attacker's subscribed users ack cross-ISP.
            AttackClass::ReplayAck => {
                scenario.mailing_list = Some((attacker + 1) % scenario.isps);
            }
            AttackClass::Ring => {
                scenario.daily_billing = true;
            }
            _ => {}
        }
        scenario
    }

    /// Builds the deterministic workload trace and a fresh system for
    /// this scenario — the shared front half of every run variant.
    fn build(&self) -> (ZmailSystem, Vec<SendEvent>) {
        let traffic = TrafficConfig {
            isps: self.isps,
            users_per_isp: self.users_per_isp,
            horizon: SimDuration::from_days(self.days),
            personal_per_user_day: 12.0,
            ..TrafficConfig::default()
        };
        let trace = TrafficGenerator::new(traffic).generate(&mut Sampler::new(self.seed));
        let mut builder = ZmailConfig::builder(self.isps, self.users_per_isp)
            .faults(self.plan.clone())
            // Fresh-nonce retransmission well above 2× latency: without
            // it any lost bank message wedges its ISP forever (E15), so
            // liveness would be trivially false under bank-channel loss.
            .bank_retry(Some(SimDuration::from_mins(1)));
        if self.daily_billing {
            builder = builder.billing_period(SimDuration::from_days(1));
        }
        if self.durable {
            builder = builder.durable();
        }
        if self.attestations {
            builder = builder.attestations();
        }
        if let Some(weakness) = self.attest_weakness {
            builder = builder.attest_weakness(weakness);
        }
        let mut system = ZmailSystem::new(builder.build(), self.seed);
        if let Some(distributor) = self.mailing_list {
            let subscribers: Vec<_> = (0..self.isps)
                .filter(|&i| i != distributor)
                .flat_map(|i| [UserAddr::new(i, 0), UserAddr::new(i, 1)])
                .collect();
            let handle =
                system.register_mailing_list(UserAddr::new(distributor, 0), subscribers, 1.0);
            let mut at = SimTime::ZERO + SimDuration::from_hours(1);
            let end = SimTime::ZERO + SimDuration::from_days(self.days);
            while at < end {
                system.schedule_list_post(at, handle);
                at += SimDuration::from_hours(4);
            }
        }
        (system, trace)
    }

    /// Runs the scenario and checks every invariant.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`] for this
    /// deployment (malformed plans are a bug in the caller, not a
    /// scenario failure).
    pub fn run(&self) -> Outcome {
        let (mut system, trace) = self.build();
        let report = system.run_trace(&trace);
        self.outcome(system, report)
    }

    /// Like [`Scenario::run`], but executes the trace on the
    /// tick-parallel engine path with `threads` stage workers (`0` = all
    /// cores). The [`Outcome`] — report, counters, and violations — is
    /// byte-identical to [`Scenario::run`] at any thread count; the
    /// CI-gated `tests/parallel_harness.rs` holds this over the frozen
    /// scenario seeds.
    pub fn run_parallel(&self, threads: usize) -> Outcome {
        let (mut system, trace) = self.build();
        let report = system.run_trace_parallel(&trace, threads);
        self.outcome(system, report)
    }

    /// Like [`Scenario::run`], but with `recorder` attached as the
    /// system's causal flight recorder: every sampled message lifecycle
    /// — submission, queueing, bank round-trips, WAL commits, delivery,
    /// acks — is traced as a span tree, and crash windows truncate their
    /// ISP's open spans as [`zmail_obs::SpanStatus::Crashed`]. Returns
    /// the outcome plus the finalized span log. The recorder only
    /// observes: the [`Outcome`] is byte-identical to [`Scenario::run`].
    pub fn run_traced(&self, recorder: FlightRecorder) -> (Outcome, SpanLog) {
        let (mut system, trace) = self.build();
        system.attach_flight_recorder(recorder.clone());
        let report = system.run_trace(&trace);
        recorder.finalize(system.now().as_millis());
        (self.outcome(system, report), recorder.drain())
    }

    /// [`Scenario::run_traced`] on the tick-parallel engine path with
    /// `threads` stage workers. The recorder mutates only on the serial
    /// apply path, so the span log — like the outcome — is byte-identical
    /// to [`Scenario::run_traced`] at any thread count; the CI-gated
    /// `tests/parallel_harness.rs` holds this over frozen seeds.
    pub fn run_traced_parallel(
        &self,
        threads: usize,
        recorder: FlightRecorder,
    ) -> (Outcome, SpanLog) {
        let (mut system, trace) = self.build();
        system.attach_flight_recorder(recorder.clone());
        let report = system.run_trace_parallel(&trace, threads);
        recorder.finalize(system.now().as_millis());
        (self.outcome(system, report), recorder.drain())
    }

    /// Like [`Scenario::run_parallel`], but with the footprint race
    /// detector armed: every event's actual key accesses are recorded
    /// and diffed against the declared [`zmail_sim::World`]
    /// footprints. Returns the outcome plus the detector's findings.
    pub fn run_racechecked(&self, threads: usize) -> (Outcome, RacecheckReport) {
        let (mut system, trace) = self.build();
        system.enable_racecheck();
        let report = system.run_trace_parallel(&trace, threads);
        let racecheck = system.racecheck_report();
        (self.outcome(system, report), racecheck)
    }

    /// The shared back half of every run variant: the invariant sweep.
    fn outcome(&self, system: ZmailSystem, report: RunReport) -> Outcome {
        let mut violations = Vec::new();
        if let Err(e) = system.audit() {
            violations.push(Violation::AuditBroken(e.to_string()));
        }
        if system.pennies_in_flight() != 0 {
            violations.push(Violation::PenniesInFlight(system.pennies_in_flight()));
        }
        for i in 0..self.isps {
            let isp = system.isp(IspId(i));
            if isp.exchange_outstanding() {
                violations.push(Violation::WedgedIsp(i));
            }
        }
        if report.consistency_reports.is_empty() {
            // Credit arrays were never reset by a snapshot, so each
            // pair's sum must match the injected damage exactly.
            for a in 0..self.isps {
                for b in (a + 1)..self.isps {
                    let ledger = system.email_pair_ledger(IspId(a), IspId(b));
                    // Channel damage plus adversary damage: stripped
                    // payments refused (+1 each) and counterfeits
                    // accepted (−1 each) shift the pair sum exactly
                    // like lost and duplicated e-pennies do.
                    let expected = ledger.lost_pennies - ledger.duplicated_pennies
                        + system.adversary_pair_drift(IspId(a), IspId(b));
                    let actual = system.isp(IspId(a)).credit(IspId(b))
                        + system.isp(IspId(b)).credit(IspId(a));
                    if actual != expected {
                        violations.push(Violation::PairwiseDrift {
                            a,
                            b,
                            expected,
                            actual,
                        });
                    }
                }
            }
        }
        if self.durable {
            for recovery in &report.recoveries {
                if recovery.diverged {
                    violations.push(Violation::RecoveryDivergence {
                        isp: Some(recovery.isp.0),
                    });
                }
            }
            if system.verify_durable_books() != Some(true) {
                violations.push(Violation::RecoveryDivergence { isp: None });
            }
        }
        if self.require_clean_consistency {
            let total = report.consistency_reports.len();
            let accused = report
                .consistency_reports
                .iter()
                .filter(|(_, r)| !r.is_clean())
                .count();
            if accused > 0 {
                violations.push(Violation::HonestAccusation { accused, total });
            }
        }
        Outcome {
            counters: *system.fault_counters(),
            adversary: system.adversary_counters(),
            report,
            violations,
        }
    }

    /// A complete reproduction recipe for a failed outcome: the seed,
    /// the exact plan, and every violation. Panic messages built from
    /// this are self-contained bug reports.
    pub fn failure_report(&self, outcome: &Outcome) -> String {
        use fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "fault scenario FAILED (seed {})", self.seed);
        let _ = writeln!(
            out,
            "  deployment: {} ISPs x {} users, {} days, daily billing {}, durability {}",
            self.isps,
            self.users_per_isp,
            self.days,
            if self.daily_billing { "on" } else { "off" },
            if self.durable { "on" } else { "off" },
        );
        let _ = writeln!(out, "  plan:\n{}", indent(&self.plan.to_string(), 4));
        let _ = writeln!(out, "  violations:");
        for v in &outcome.violations {
            let _ = writeln!(out, "    - {v}");
        }
        // The repro line must name the *actual* plan: a scenario built
        // with `with_plan` (adversary campaigns in particular) is not
        // reproduced by `Scenario::random(seed)`, whose plan is drawn
        // from the seed's own stream.
        let seed_plan = Scenario::random(self.seed).plan;
        if self.plan == seed_plan && !self.attestations {
            let _ = write!(
                out,
                "  reproduce with: zmail::fault_scenarios::Scenario::random({})\
                 .run() — all randomness derives from the seed",
                self.seed
            );
        } else {
            let clauses = self
                .plan
                .faults
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("; ");
            let _ = write!(
                out,
                "  reproduce with: zmail::fault_scenarios::Scenario::new({seed})\
                 {attest}{weakness}.with_plan(<{clauses}>).run() — all \
                 randomness derives from the seed",
                seed = self.seed,
                attest = if self.attestations {
                    ".with_attestations()"
                } else {
                    ""
                },
                weakness = match self.attest_weakness {
                    Some(w) => format!(".with_attest_weakness({w:?})"),
                    None => String::new(),
                },
            );
        }
        out
    }

    /// Minimizes this scenario's failing plan by delta debugging: every
    /// candidate sub-plan is re-run from the same seed, so the predicate
    /// is deterministic. Returns `None` if the scenario does not fail as
    /// given.
    pub fn shrink_failure(&self) -> Option<ShrinkOutcome> {
        if self.run().is_ok() {
            return None;
        }
        let outcome = shrink(&self.plan, |candidate| {
            !self.clone().with_plan(candidate.clone()).run().is_ok()
        });
        Some(outcome)
    }
}

fn indent(text: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    text.lines()
        .map(|l| format!("{pad}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
