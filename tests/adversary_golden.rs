//! The adversary interpreter's books are frozen: one campaign cell per
//! attack class at seed 42, the three weakened-verifier cells (where
//! the counterfeits *land*), and one attested run under plain network
//! duplication with no adversary at all, must end with the whole
//! [`Outcome`] they ended with at the commit before the interpreter
//! moved out of `ZmailWorld` into its own module (PR 18) — run digest,
//! refusals, deliveries and drops by kind, the injector's counters,
//! every [`zmail_fault::AdversaryCounters`] field, and the violations
//! with their payloads (an `AuditBroken` carries both sides of the
//! conservation equation and a `PairwiseDrift` the predicted and
//! observed pair sum, so an e-penny booked to the wrong column shows).
//!
//! Written against the public `Scenario`/`Outcome` surface only, so the
//! same file runs on both sides of that change; the constants below were
//! computed by running it at that parent commit in a throwaway clone
//! (the recipe `crates/store/tests/format_golden.rs` documents), not by
//! this code. None of these plans loses bank traffic and the harness
//! retries at 1 min ≫ 2 × 50 ms, so no exchange reply ever goes stale.

use zmail::fault_scenarios::{Outcome, Scenario};
use zmail_core::AttestWeakness;
use zmail_fault::{AttackClass, FaultPlan};

const SEED: u64 = 42;

/// Everything an [`Outcome`] holds that the interpreter, the flight
/// ledger or the pair-drift map can move, one line per group.
fn render(o: &Outcome) -> String {
    let r = &o.report;
    format!(
        "digest={} refused={} lost={} duplicated={} paid={} unpaid={} network={}\n\
         delivered={:?}\n\
         dropped={:?}\n\
         {:?}\n\
         {:?}\n\
         violations={:?}",
        r.digest_checksum,
        r.refused_deliveries,
        r.emails_lost,
        r.emails_duplicated,
        r.paid_deliveries,
        r.unpaid_deliveries,
        r.network_messages,
        r.delivered_by_kind,
        r.dropped_by_kind,
        o.counters,
        o.adversary,
        o.violations,
    )
}

fn check(cell: &str, scenario: &Scenario, expected: &str) {
    let got = render(&scenario.run());
    assert!(
        got == expected,
        "cell `{cell}` moved.\n--- it ended as:\n{expected}\n--- it now ends as:\n{got}\n"
    );
}

#[test]
fn every_attack_class_ends_where_it_ended_inside_the_world() {
    let cells = [
        (AttackClass::Forge, FORGE),
        (AttackClass::Strip, STRIP),
        (AttackClass::ReplayAck, REPLAY_ACK),
        (AttackClass::Ring, RING),
        (AttackClass::RotatingZombie, ROTATING_ZOMBIE),
    ];
    for (class, expected) in cells {
        check(
            &class.to_string(),
            &Scenario::adversarial(SEED, class),
            expected,
        );
    }
}

/// With one verifier check knocked out the counterfeits are credited, so
/// these cells pin the *landed* half of the attribution: the pair drift
/// of an accepted counterfeit and the conservation gap it opens.
#[test]
fn landed_counterfeits_end_where_they_ended_inside_the_world() {
    let cells = [
        (
            AttestWeakness::SkipSignatureCheck,
            AttackClass::Forge,
            FORGE_UNCHECKED,
        ),
        (
            AttestWeakness::SkipReplayCheck,
            AttackClass::ReplayAck,
            REPLAY_ACK_UNCHECKED,
        ),
        (
            AttestWeakness::SkipBindingCheck,
            AttackClass::RotatingZombie,
            ROTATING_ZOMBIE_UNCHECKED,
        ),
    ];
    for (weakness, class, expected) in cells {
        check(
            &format!("{class} under {weakness:?}"),
            &Scenario::adversarial(SEED, class).with_attest_weakness(weakness),
            expected,
        );
    }
}

/// The `ReplayedNonce` refusal has two owners. With no adversary clause
/// no engine exists: the nonce set still refuses every duplicated paid
/// copy, and the harness alone must charge each to `lost` and cancel the
/// injector's predicted duplication drift. With a replay farmer on the
/// same wire, each refusal must go to whoever made the copy.
#[test]
fn network_duplicates_under_attestation_end_where_they_ended() {
    let duplication = FaultPlan::lossy_email(0.02, 0.08);
    check(
        "attested duplication",
        &Scenario::new(SEED)
            .with_attestations()
            .with_plan(duplication.clone()),
        ATTESTED_DUPLICATION,
    );
    let mut farmed = Scenario::adversarial(SEED, AttackClass::ReplayAck);
    farmed.plan.faults.extend(duplication.faults);
    check(
        "replay-ack over attested duplication",
        &farmed,
        REPLAY_ACK_OVER_DUPLICATION,
    );
}

const FORGE: &str = "\
digest=1873840578907324401 refused=27 lost=0 duplicated=0 paid=880 unpaid=0 network=470
delivered={Personal: 880}
dropped={Spam: 27}
FaultCounters { drops: 0, duplicates: 0, reorders: 0, delays: 0, partition_drops: 0, crash_drops: 0, outage_drops: 0, partitions_opened: 0, partitions_closed: 0 }
AdversaryCounters { forged: 27, forged_refused: 27, stripped: 0, stripped_refused: 0, replays: 0, replays_refused: 0, ring_counterfeits: 0, ring_accepted: 0, zombie_sends: 0, zombie_refused: 0 }
violations=[]";
const STRIP: &str = "\
digest=7356750406938714786 refused=46 lost=0 duplicated=0 paid=834 unpaid=0 network=443
delivered={Personal: 834}
dropped={Personal: 46}
FaultCounters { drops: 0, duplicates: 0, reorders: 0, delays: 0, partition_drops: 0, crash_drops: 0, outage_drops: 0, partitions_opened: 0, partitions_closed: 0 }
AdversaryCounters { forged: 0, forged_refused: 0, stripped: 46, stripped_refused: 46, replays: 0, replays_refused: 0, ring_counterfeits: 0, ring_accepted: 0, zombie_sends: 0, zombie_refused: 0 }
violations=[]";
const REPLAY_ACK: &str = "\
digest=6543910449879846993 refused=12 lost=0 duplicated=0 paid=1024 unpaid=0 network=599
delivered={Personal: 880, ListPost: 72, Ack: 72}
dropped={Ack: 12}
FaultCounters { drops: 0, duplicates: 0, reorders: 0, delays: 0, partition_drops: 0, crash_drops: 0, outage_drops: 0, partitions_opened: 0, partitions_closed: 0 }
AdversaryCounters { forged: 0, forged_refused: 0, stripped: 0, stripped_refused: 0, replays: 12, replays_refused: 12, ring_counterfeits: 0, ring_accepted: 0, zombie_sends: 0, zombie_refused: 0 }
violations=[]";
const RING: &str = "\
digest=12018799885480919822 refused=0 lost=0 duplicated=0 paid=940 unpaid=0 network=515
delivered={Personal: 880, Spam: 60}
dropped={}
FaultCounters { drops: 0, duplicates: 0, reorders: 0, delays: 0, partition_drops: 0, crash_drops: 0, outage_drops: 0, partitions_opened: 0, partitions_closed: 0 }
AdversaryCounters { forged: 0, forged_refused: 0, stripped: 0, stripped_refused: 0, replays: 0, replays_refused: 0, ring_counterfeits: 60, ring_accepted: 60, zombie_sends: 0, zombie_refused: 0 }
violations=[AuditBroken(\"conservation broken: bank issued 17400 e-pennies but 17460 exist\")]";
const ROTATING_ZOMBIE: &str = "\
digest=18081732044120575236 refused=66 lost=0 duplicated=0 paid=880 unpaid=0 network=509
delivered={Personal: 880}
dropped={VirusSpam: 66}
FaultCounters { drops: 0, duplicates: 0, reorders: 0, delays: 0, partition_drops: 0, crash_drops: 0, outage_drops: 0, partitions_opened: 0, partitions_closed: 0 }
AdversaryCounters { forged: 0, forged_refused: 0, stripped: 0, stripped_refused: 0, replays: 0, replays_refused: 0, ring_counterfeits: 0, ring_accepted: 0, zombie_sends: 66, zombie_refused: 66 }
violations=[]";
const FORGE_UNCHECKED: &str = "\
digest=1873840578907324401 refused=0 lost=0 duplicated=0 paid=907 unpaid=0 network=470
delivered={Personal: 880, Spam: 27}
dropped={}
FaultCounters { drops: 0, duplicates: 0, reorders: 0, delays: 0, partition_drops: 0, crash_drops: 0, outage_drops: 0, partitions_opened: 0, partitions_closed: 0 }
AdversaryCounters { forged: 27, forged_refused: 0, stripped: 0, stripped_refused: 0, replays: 0, replays_refused: 0, ring_counterfeits: 0, ring_accepted: 0, zombie_sends: 0, zombie_refused: 0 }
violations=[AuditBroken(\"conservation broken: bank issued 17400 e-pennies but 17427 exist\")]";
const REPLAY_ACK_UNCHECKED: &str = "\
digest=6543910449879846993 refused=0 lost=0 duplicated=0 paid=1036 unpaid=0 network=599
delivered={Personal: 880, ListPost: 72, Ack: 84}
dropped={}
FaultCounters { drops: 0, duplicates: 0, reorders: 0, delays: 0, partition_drops: 0, crash_drops: 0, outage_drops: 0, partitions_opened: 0, partitions_closed: 0 }
AdversaryCounters { forged: 0, forged_refused: 0, stripped: 0, stripped_refused: 0, replays: 12, replays_refused: 0, ring_counterfeits: 0, ring_accepted: 0, zombie_sends: 0, zombie_refused: 0 }
violations=[PairwiseDrift { a: 1, b: 2, expected: 0, actual: -12 }]";
const ROTATING_ZOMBIE_UNCHECKED: &str = "\
digest=18081732044120575236 refused=65 lost=0 duplicated=0 paid=881 unpaid=0 network=509
delivered={Personal: 880, VirusSpam: 1}
dropped={VirusSpam: 65}
FaultCounters { drops: 0, duplicates: 0, reorders: 0, delays: 0, partition_drops: 0, crash_drops: 0, outage_drops: 0, partitions_opened: 0, partitions_closed: 0 }
AdversaryCounters { forged: 0, forged_refused: 0, stripped: 0, stripped_refused: 0, replays: 0, replays_refused: 0, ring_counterfeits: 0, ring_accepted: 0, zombie_sends: 66, zombie_refused: 65 }
violations=[AuditBroken(\"conservation broken: bank issued 17400 e-pennies but 17401 exist\")]";
const ATTESTED_DUPLICATION: &str = "\
digest=18130760442670042284 refused=32 lost=8 duplicated=32 paid=872 unpaid=0 network=467
delivered={Personal: 872}
dropped={Personal: 32}
FaultCounters { drops: 8, duplicates: 32, reorders: 0, delays: 0, partition_drops: 0, crash_drops: 0, outage_drops: 0, partitions_opened: 0, partitions_closed: 0 }
AdversaryCounters { forged: 0, forged_refused: 0, stripped: 0, stripped_refused: 0, replays: 0, replays_refused: 0, ring_counterfeits: 0, ring_accepted: 0, zombie_sends: 0, zombie_refused: 0 }
violations=[]";
const REPLAY_ACK_OVER_DUPLICATION: &str = "\
digest=17685391258919419713 refused=51 lost=13 duplicated=39 paid=1010 unpaid=0 network=624
delivered={Personal: 870, ListPost: 71, Ack: 69}
dropped={Personal: 30, ListPost: 2, Ack: 19}
FaultCounters { drops: 13, duplicates: 39, reorders: 0, delays: 0, partition_drops: 0, crash_drops: 0, outage_drops: 0, partitions_opened: 0, partitions_closed: 0 }
AdversaryCounters { forged: 0, forged_refused: 0, stripped: 0, stripped_refused: 0, replays: 12, replays_refused: 12, ring_counterfeits: 0, ring_accepted: 0, zombie_sends: 0, zombie_refused: 0 }
violations=[]";
