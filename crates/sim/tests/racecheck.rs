//! Negative-test suite for the footprint race detector: six deliberately
//! broken worlds, one per SIM code, plus a seventh that hides its SIM003
//! in a tick of same-instant events. Each test proves three things:
//!
//! 1. the checker reports *exactly* that finding class (no more, no less);
//! 2. the report is deterministic across thread counts — stages record
//!    into private logs, all checking happens in the serial apply pass;
//! 3. `ddmin` shrinks the triggering schedule to a 1-minimal event
//!    subsequence — removing any remaining event loses the finding.

use zmail_sim::racecheck::{
    run_checked, shrink_schedule, AccessRecorder, RacecheckReport, SimCode,
};
use zmail_sim::{Scheduler, SimDuration, SimTime, World};

/// Which footprint-contract lie this toy world tells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lie {
    /// SIM001: stage reads the neighbor cell but never declares it.
    LeakyStage,
    /// SIM002: apply writes the neighbor cell but never declares it.
    WideWriter,
    /// SIM003: stage phases share an undeclared scratch key with writes.
    ScratchShare,
    /// SIM004: apply reads the neighbor cell but never declares it.
    NosyApply,
    /// SIM005: footprint declares key 777 that nothing ever touches.
    Padded,
    /// SIM006: even cells record key `cell/2` under class `rows`, odd
    /// cells record the same key under class `pools`.
    Mixup,
    /// SIM003 at one instant: each op schedules a child op on its own
    /// cell with delay 0, and only children stage-write a shared scratch
    /// key. The engine stages the children as a tick of their own.
    Echo,
}

/// A bank of cells whose footprint honesty depends on `lie`. The
/// *behaviour* is always the same simple bump; only the declarations
/// and the recorded accesses differ per lie.
#[derive(Debug)]
struct Toy {
    cells: Vec<u64>,
    lie: Lie,
}

impl Toy {
    fn new(lie: Lie) -> Self {
        Toy {
            cells: vec![0; 8],
            lie,
        }
    }

    fn neighbor(&self, cell: usize) -> usize {
        (cell + 1) % self.cells.len()
    }

    fn class_for(cell: usize) -> &'static str {
        if cell.is_multiple_of(2) {
            "rows"
        } else {
            "pools"
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Op {
    cell: usize,
    child: bool,
}

impl World for Toy {
    type Event = Op;
    type Effect = u64;

    fn footprint(&self, e: &Op, keys: &mut Vec<u64>) {
        match self.lie {
            Lie::Padded => {
                keys.push(e.cell as u64);
                keys.push(777);
            }
            Lie::Mixup => keys.push((e.cell / 2) as u64),
            _ => keys.push(e.cell as u64),
        }
    }

    fn event_label(_e: &Op) -> &'static str {
        "op"
    }

    fn stage(&self, _now: SimTime, e: &Op, rec: &mut AccessRecorder) -> u64 {
        match self.lie {
            Lie::LeakyStage => {
                // The lie is real: stage genuinely depends on the neighbor.
                let n = self.neighbor(e.cell);
                rec.read("cell", e.cell as u64);
                rec.read("cell", n as u64);
                return self.cells[e.cell].wrapping_add(self.cells[n]);
            }
            Lie::ScratchShare => {
                rec.read("cell", e.cell as u64);
                // A shared staging scratch slot — interior mutability in
                // a real world; here only the recording matters.
                rec.write("scratch", 999);
            }
            Lie::Echo if e.child => {
                rec.read("cell", e.cell as u64);
                rec.write("scratch", 999);
            }
            Lie::Mixup => rec.read(Toy::class_for(e.cell), (e.cell / 2) as u64),
            _ => rec.read("cell", e.cell as u64),
        }
        self.cells[e.cell].wrapping_add(1)
    }

    fn apply(&mut self, _now: SimTime, e: Op, eff: u64, s: &mut Scheduler<'_, Op>) {
        match self.lie {
            Lie::WideWriter => {
                let n = self.neighbor(e.cell);
                s.write("cell", e.cell as u64);
                s.write("cell", n as u64);
                self.cells[e.cell] = eff;
                self.cells[n] = self.cells[n].wrapping_add(1);
            }
            Lie::NosyApply => {
                let n = self.neighbor(e.cell);
                s.read("cell", n as u64);
                s.write("cell", e.cell as u64);
                self.cells[e.cell] = eff.wrapping_add(self.cells[n] & 1);
            }
            Lie::Mixup => {
                s.write(Toy::class_for(e.cell), (e.cell / 2) as u64);
                self.cells[e.cell] = eff;
            }
            _ => {
                s.write("cell", e.cell as u64);
                self.cells[e.cell] = eff;
                if self.lie == Lie::Echo && !e.child {
                    let child = Op {
                        cell: e.cell,
                        child: true,
                    };
                    s.after(SimDuration::ZERO, child);
                }
            }
        }
    }
}

/// A schedule with same-tick neighbors and cross-tick repeats: enough
/// shape to trigger every lie, plus benign padding for `ddmin` to chew.
fn schedule() -> Vec<(SimTime, Op)> {
    let mut events = Vec::new();
    for tick in 0..3u64 {
        let at = SimTime::ZERO + SimDuration::from_secs(tick);
        for cell in [0usize, 2, 4, 1, 6] {
            events.push((at, Op { cell, child: false }));
        }
    }
    events
}

/// Runs the lie's schedule at several thread counts, asserting the
/// reports are identical, then returns the (shared) report.
fn check_deterministic(lie: Lie) -> RacecheckReport {
    let reference = run_checked(Toy::new(lie), &schedule(), 1).1;
    for threads in [2, 4, 8] {
        let (_, report) = run_checked(Toy::new(lie), &schedule(), threads);
        assert_eq!(report, reference, "{lie:?} diverged at threads={threads}");
    }
    reference
}

/// Shrinks the schedule against `code` and proves 1-minimality.
fn shrink_to_minimal(lie: Lie, code: SimCode, expect_len: usize) {
    let shrunk = shrink_schedule(&schedule(), || Toy::new(lie), code);
    assert_eq!(
        shrunk.events.len(),
        expect_len,
        "{lie:?}: expected a {expect_len}-event minimum"
    );
    assert!(shrunk.tests_run > 1);
    let (_, report) = run_checked(Toy::new(lie), &shrunk.events, 1);
    assert!(
        report.has(code),
        "{lie:?}: shrunk schedule lost the finding"
    );
    for skip in 0..shrunk.events.len() {
        let mut smaller = shrunk.events.clone();
        smaller.remove(skip);
        let (_, report) = run_checked(Toy::new(lie), &smaller, 1);
        assert!(
            !report.has(code),
            "{lie:?}: not 1-minimal, event {skip} is removable"
        );
    }
}

#[test]
fn sim001_undeclared_stage_read() {
    let report = check_deterministic(Lie::LeakyStage);
    assert_eq!(report.codes(), vec![SimCode::UndeclaredStageRead]);
    assert!(!report.is_clean());
    shrink_to_minimal(Lie::LeakyStage, SimCode::UndeclaredStageRead, 1);
}

#[test]
fn sim002_undeclared_write() {
    let report = check_deterministic(Lie::WideWriter);
    assert_eq!(report.codes(), vec![SimCode::UndeclaredWrite]);
    assert!(!report.is_clean());
    shrink_to_minimal(Lie::WideWriter, SimCode::UndeclaredWrite, 1);
}

#[test]
fn sim003_batch_stage_overlap() {
    let report = check_deterministic(Lie::ScratchShare);
    assert_eq!(report.codes(), vec![SimCode::BatchStageOverlap]);
    assert!(!report.is_clean());
    // The race needs two co-batched events: the minimum is a pair, and
    // neither member alone reproduces it.
    shrink_to_minimal(Lie::ScratchShare, SimCode::BatchStageOverlap, 2);
}

#[test]
fn sim004_apply_read_escape_is_a_warning() {
    let report = check_deterministic(Lie::NosyApply);
    assert_eq!(report.codes(), vec![SimCode::ApplyReadEscape]);
    assert!(report.is_clean(), "SIM004 is advisory");
    shrink_to_minimal(Lie::NosyApply, SimCode::ApplyReadEscape, 1);
}

#[test]
fn sim005_overbroad_footprint_is_a_warning() {
    let report = check_deterministic(Lie::Padded);
    assert_eq!(report.codes(), vec![SimCode::OverbroadFootprint]);
    assert!(report.is_clean(), "SIM005 is advisory");
    shrink_to_minimal(Lie::Padded, SimCode::OverbroadFootprint, 1);
}

#[test]
fn sim006_key_class_collision() {
    let report = check_deterministic(Lie::Mixup);
    assert_eq!(report.codes(), vec![SimCode::KeyClassCollision]);
    assert!(!report.is_clean());
    // Needs one event from each class family over the same key.
    shrink_to_minimal(Lie::Mixup, SimCode::KeyClassCollision, 2);
}

#[test]
fn sim003_batch_stage_overlap_in_a_same_instant_tick() {
    let report = check_deterministic(Lie::Echo);
    assert_eq!(report.codes(), vec![SimCode::BatchStageOverlap]);
    assert!(!report.is_clean());
    // Two parents at one instant: their children, scheduled during the
    // parents' tick, make up the next tick at the same time and are
    // co-selected there.
    shrink_to_minimal(Lie::Echo, SimCode::BatchStageOverlap, 2);
}

#[test]
fn findings_carry_stable_identities_and_counts() {
    let report = check_deterministic(Lie::WideWriter);
    let f = &report.findings[0];
    assert_eq!(f.code.code(), "SIM002");
    assert_eq!(f.label, "op");
    assert_eq!(f.class, "cell");
    assert!(f.count >= 3, "the lie recurs every tick: {}", f.count);
    assert!(f.render().starts_with("SIM002 [error] op"));
}
