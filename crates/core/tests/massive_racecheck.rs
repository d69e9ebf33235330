//! Property tests pinning the soundness of [`MassiveWorld`]'s declared
//! footprints under the `zmail-sim` race checker:
//!
//! 1. honest footprints — randomized send schedules produce **zero**
//!    racecheck findings, and the checked world audits clean;
//! 2. the checker has teeth — a world whose footprint declaration is
//!    mutated (keys dropped) is *always* caught with SIM002 on the same
//!    schedules.
//!
//! Together these say the dynamic analysis is neither vacuous (it
//! watches enough accesses to catch any lie) nor noisy (exact
//! declarations stay silent).

use proptest::collection::vec;
use proptest::prelude::*;
use zmail_core::{DurabilityConfig, MassiveConfig, MassiveEvent, MassiveWorld};
use zmail_sim::racecheck::{run_checked, AccessRecorder, SimCode};
use zmail_sim::{Scheduler, SimDuration, SimTime, World};

const ISPS: u32 = 3;
const USERS: u32 = 16;

fn config() -> MassiveConfig {
    MassiveConfig {
        isps: ISPS,
        users_per_isp: USERS,
        ticks: 0, // schedule built by hand below
        sends_per_tick: 0,
        digest_rounds: 4,
        initial_balance: 1_000, // every send pays: mutations always occur
        daily_limit: u32::MAX,
        durability: DurabilityConfig {
            shards: 4,
            ..DurabilityConfig::default()
        },
        seed: 9,
    }
}

/// Builds a schedule from raw `(tick, from, to)` triples: sends spread
/// over ticks 0..3, one commit barrier per populated tick.
fn schedule(triples: &[(u8, u32, u32)]) -> Vec<(SimTime, MassiveEvent)> {
    let population = ISPS * USERS;
    let mut events = Vec::new();
    for tick in 0..4u8 {
        let at = SimTime::ZERO + SimDuration::from_secs(u64::from(tick));
        let mut any = false;
        for &(t, from, to) in triples {
            if t % 4 != tick {
                continue;
            }
            let from = from % population;
            let mut to = to % population;
            if to == from {
                to = (to + 1) % population;
            }
            events.push((
                at,
                MassiveEvent::Send(zmail_core::massive::SendMail {
                    from_isp: from / USERS,
                    from_user: from % USERS,
                    to_isp: to / USERS,
                    to_user: to % USERS,
                }),
            ));
            any = true;
        }
        if any {
            events.push((at, MassiveEvent::TickCommit));
        }
    }
    events
}

/// [`MassiveWorld`] with its footprint declaration sabotaged: `Send`
/// events declare **no** keys while behaving (and recording) exactly as
/// the honest world. The checker must convict every paid send.
struct DroppedFootprint(MassiveWorld);

impl World for DroppedFootprint {
    type Event = MassiveEvent;
    type Effect = u64;
    fn footprint(&self, event: &MassiveEvent, keys: &mut Vec<u64>) {
        match event {
            MassiveEvent::Send(_) => {} // the lie: nothing declared
            MassiveEvent::TickCommit => self.0.footprint(event, keys),
        }
    }
    fn event_label(event: &MassiveEvent) -> &'static str {
        MassiveWorld::event_label(event)
    }
    fn stage(&self, now: SimTime, event: &MassiveEvent, rec: &mut AccessRecorder) -> u64 {
        self.0.stage(now, event, rec)
    }
    fn apply(
        &mut self,
        now: SimTime,
        event: MassiveEvent,
        effect: u64,
        scheduler: &mut Scheduler<'_, MassiveEvent>,
    ) {
        self.0.apply(now, event, effect, scheduler);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn honest_footprints_are_sound(
        triples in vec((0u8..4, 0u32..(ISPS * USERS), 0u32..(ISPS * USERS)), 1..48),
    ) {
        let events = schedule(&triples);
        let (world, report) = run_checked(MassiveWorld::new(config()), &events);
        prop_assert!(
            report.findings.is_empty(),
            "checked run dirty:\n{}",
            report.render()
        );
        prop_assert_eq!(report.events_checked, events.len() as u64);
        world.audit().map_err(proptest::test_runner::TestCaseError::fail)?;
    }

    #[test]
    fn dropped_footprint_is_always_caught(
        triples in vec((0u8..4, 0u32..(ISPS * USERS), 0u32..(ISPS * USERS)), 1..48),
    ) {
        let events = schedule(&triples);
        let (_, report) = run_checked(DroppedFootprint(MassiveWorld::new(config())), &events);
        prop_assert!(
            report.has(SimCode::UndeclaredWrite),
            "a paid send writes both shards, yet the empty footprint \
             escaped SIM002:\n{}",
            report.render()
        );
        prop_assert!(!report.is_clean());
    }
}
