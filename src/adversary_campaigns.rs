//! Adversarial scenario campaigns: sweep attack classes × seeds and
//! prove the attestation audits hold.
//!
//! The attestation layer (PR 9's tentpole) claims that **no modelled
//! adversary profits**: forged payment headers, stripped signatures,
//! replayed ack refunds, colluding ISP rings, and zombie identity
//! rotation are all either *refused* at the receiving ISP (net attacker
//! gain ≤ 0) or *detected and attributed* by the §4 audits (the
//! zero-sum conservation equation and the §4.4 pairwise consistency
//! rounds). This module turns that claim into a machine-checked
//! campaign:
//!
//! * [`run_campaign`] sweeps every [`AttackClass`] over the frozen
//!   [`CAMPAIGN_SEEDS`], running one [`Scenario::adversarial`] per cell
//!   and judging it with [`judge`]. Every cell must come back
//!   [`AttackRun::held`], and every run must replay byte-identically
//!   (same seed → same [`zmail_core::RunReport`], digest checksum
//!   included).
//! * [`weakness_self_test`] is the campaign auditing *itself*: it
//!   deliberately weakens one verifier check
//!   ([`AttestWeakness`]), asserts the
//!   matching attack now escapes **and is still caught** by the audits,
//!   then [`ddmin`](mod@zmail_fault::shrink)-shrinks the plan to the
//!   1-minimal clause that reproduces the escape. A campaign that
//!   cannot catch a broken verifier would be vacuous.
//!
//! Everything is deterministic from `(class, seed)`; a failing cell's
//! [`Scenario::failure_report`] is a complete reproduction recipe
//! (including the adversary clause — see PR 9's satellite fix).

use crate::fault_scenarios::{Outcome, Scenario, Violation};
use zmail_core::AttestWeakness;
use zmail_fault::{AttackClass, ShrinkOutcome};

/// The frozen campaign seeds — the scenario harness's own frozen set,
/// so regressions bisect cleanly against `tests/fault_scenarios.rs`.
pub const CAMPAIGN_SEEDS: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 42, 81, 1337];

/// One campaign cell: an attack class under one seed, judged.
#[derive(Debug, Clone)]
pub struct AttackRun {
    /// The attack class exercised.
    pub class: AttackClass,
    /// The scenario seed.
    pub seed: u64,
    /// Attack actions the adversary engine performed.
    pub attempts: u64,
    /// Attack actions refused by attestation verification.
    pub refused: u64,
    /// Counterfeits that were *accepted* by a receiver (ring collusion
    /// under correct code; anything else only under an injected
    /// weakness).
    pub accepted: u64,
    /// Net e-pennies the attack moved into attacker-side pockets:
    /// accepted counterfeits minus the attacker's own payments burned
    /// by stripping. `> 0` is only tolerable when `detected`.
    pub attacker_gain: i64,
    /// The audits flagged the run: conservation broke, or a billing
    /// round implicated the attacking pair.
    pub detected: bool,
    /// A billing round implicated *both* members of the colluding pair
    /// (ring runs only; vacuously false elsewhere).
    pub attributed: bool,
    /// Rerunning the scenario reproduced the identical
    /// [`zmail_core::RunReport`], digest checksum included.
    pub replay_identical: bool,
    /// Violations the scenario found (the *expected* detection signal
    /// for ring runs; must be empty for refused-on-arrival classes).
    pub violations: Vec<Violation>,
}

impl AttackRun {
    /// The campaign's per-cell verdict: the adversary attacked, and the
    /// defence held — every counterfeit refused with nothing else
    /// disturbed, or (when counterfeits land, as ring collusion does by
    /// construction) the attacker's gain was detected and attributed.
    /// Replay must be byte-identical either way.
    pub fn held(&self) -> bool {
        if !self.replay_identical || self.attempts == 0 {
            return false;
        }
        if self.accepted == 0 && self.attacker_gain <= 0 {
            // Nothing landed: the run must be violation-free too — the
            // attack may not even dent conservation or liveness.
            self.violations.is_empty()
        } else {
            self.detected && (self.class != AttackClass::Ring || self.attributed)
        }
    }
}

/// Builds the scenario for one campaign cell. Thin alias of
/// [`Scenario::adversarial`], kept public so regression tests and the
/// E20 bench drive byte-identical cells.
pub fn scenario_for(seed: u64, class: AttackClass) -> Scenario {
    Scenario::adversarial(seed, class)
}

/// Judges one finished cell against its scenario's outcome.
pub fn judge(scenario: &Scenario, class: AttackClass, seed: u64, outcome: &Outcome) -> AttackRun {
    let c = outcome.adversary;
    let accepted = (c.forged - c.forged_refused)
        + (c.replays - c.replays_refused)
        + c.ring_accepted
        + (c.zombie_sends - c.zombie_refused);
    // Stripped payments burn the attacker ISP's own users' pennies
    // whether or not the receiver refuses them.
    let attacker_gain = accepted as i64 - c.stripped as i64;
    let detected = outcome.violations.iter().any(|v| {
        matches!(
            v,
            Violation::AuditBroken(_) | Violation::PairwiseDrift { .. }
        )
    });
    let attributed = scenario
        .plan
        .faults
        .iter()
        .find_map(|f| match f {
            zmail_fault::Fault::Adversary(a) => Some((a.isp, a.accomplice)),
            _ => None,
        })
        .is_some_and(|(attacker, accomplice)| {
            outcome.report.consistency_reports.iter().any(|(_, r)| {
                r.implicates(zmail_core::IspId(attacker))
                    && r.implicates(zmail_core::IspId(accomplice))
            })
        });
    AttackRun {
        class,
        seed,
        attempts: c.attempts(),
        refused: c.refusals(),
        accepted,
        attacker_gain,
        detected,
        attributed,
        replay_identical: false, // filled by the caller
        violations: outcome.violations.clone(),
    }
}

/// The campaign report: one [`AttackRun`] per class × seed cell.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Every judged cell, in (class, seed) order.
    pub runs: Vec<AttackRun>,
}

impl CampaignReport {
    /// Whether every cell held ([`AttackRun::held`]).
    pub fn all_held(&self) -> bool {
        self.runs.iter().all(AttackRun::held)
    }

    /// Cells that did not hold.
    pub fn escapes(&self) -> Vec<&AttackRun> {
        self.runs.iter().filter(|r| !r.held()).collect()
    }

    /// A one-line-per-cell summary table.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>9} {:>8} {:>9} {:>6} {:>9} {:>7}",
            "class", "seed", "attempts", "refused", "accepted", "gain", "detected", "held"
        );
        for r in &self.runs {
            let _ = writeln!(
                out,
                "{:<16} {:>6} {:>9} {:>8} {:>9} {:>6} {:>9} {:>7}",
                r.class.to_string(),
                r.seed,
                r.attempts,
                r.refused,
                r.accepted,
                r.attacker_gain,
                r.detected,
                r.held()
            );
        }
        out
    }
}

/// Runs one campaign cell: builds the scenario, runs it twice (replay
/// identity is part of the verdict), and judges the outcome.
pub fn run_cell(seed: u64, class: AttackClass) -> AttackRun {
    let scenario = scenario_for(seed, class);
    let outcome = scenario.run();
    let replay = scenario.run();
    let mut run = judge(&scenario, class, seed, &outcome);
    run.replay_identical =
        outcome.report == replay.report && outcome.violations == replay.violations;
    run
}

/// Sweeps `classes × seeds`, one [`run_cell`] each.
pub fn run_campaign(classes: &[AttackClass], seeds: &[u64]) -> CampaignReport {
    let mut runs = Vec::with_capacity(classes.len() * seeds.len());
    for &class in classes {
        for &seed in seeds {
            runs.push(run_cell(seed, class));
        }
    }
    CampaignReport { runs }
}

/// One self-test case: a deliberately weakened verifier check, the
/// attack class that exploits it, and what happened.
#[derive(Debug)]
pub struct WeaknessCase {
    /// The check that was knocked out.
    pub weakness: AttestWeakness,
    /// The attack class that exploits that check.
    pub class: AttackClass,
    /// Whether the audits caught the now-escaping attack (they must).
    pub caught: bool,
    /// The ddmin-shrunk 1-minimal plan reproducing the escape, when
    /// caught.
    pub shrunk: Option<ShrinkOutcome>,
}

/// The campaign auditing itself: for each attestation check, knock it
/// out, run the attack class that exploits it, and demand the audits
/// still convict — then shrink the failing plan to a 1-minimal
/// reproducer with [`mod@zmail_fault::shrink`] delta debugging. A weakness
/// nobody notices would mean the campaign's green runs prove nothing.
pub fn weakness_self_test(seed: u64) -> Vec<WeaknessCase> {
    let cases = [
        (AttestWeakness::SkipSignatureCheck, AttackClass::Forge),
        (AttestWeakness::SkipReplayCheck, AttackClass::ReplayAck),
        (
            AttestWeakness::SkipBindingCheck,
            AttackClass::RotatingZombie,
        ),
    ];
    cases
        .into_iter()
        .map(|(weakness, class)| {
            let scenario = scenario_for(seed, class).with_attest_weakness(weakness);
            let outcome = scenario.run();
            let caught = !outcome.is_ok();
            let shrunk = caught.then(|| {
                scenario
                    .shrink_failure()
                    .expect("a failing scenario must shrink")
            });
            WeaknessCase {
                weakness,
                class,
                caught,
                shrunk,
            }
        })
        .collect()
}
