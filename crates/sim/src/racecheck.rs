//! Footprint checker for the [`World`] contract.
//!
//! [`World::footprint`] promises to name every state key an event's
//! `stage` phase reads and its `apply` phase writes. Nothing in the
//! engine relies on that promise — it runs one event at a time — but
//! the footprints are what `speclint --independence-json` compares with
//! the AP model's independence relation, and what any future
//! partial-order reduction or parallel apply would rest on. This module
//! keeps them honest: a [`CheckedWorld`] adapter wraps any world, arms
//! the recorders its `stage` and `apply` already report to (an
//! [`AccessRecorder`] and the [`Scheduler`]), and diffs the *actual* key
//! accesses against the declared footprints — emitting deterministic,
//! stably-coded findings.
//!
//! # The finding catalog
//!
//! | Code   | Severity | Meaning |
//! |--------|----------|---------|
//! | SIM001 | error    | `stage` read a key outside the declared footprint |
//! | SIM002 | error    | `apply` wrote a key outside the declared footprint |
//! | SIM004 | warning  | `apply` *read* a key outside the declared footprint — harmless under serial apply, but defeats footprint reasoning for parallel apply or partial-order reduction |
//! | SIM005 | warning  | over-broad footprint: a declared key that no event of that label ever touched across the whole run |
//! | SIM006 | error    | constant-key collision: one `u64` key recorded under two distinct access classes, so disjointness checks conflate unrelated resources |
//!
//! Codes are stable: a retired code's number is never reused.
//!
//! # Instrumentation honesty
//!
//! The checker sees exactly what a world records — it is a dynamic
//! analysis, complete only over the instrumented access domain. Worlds
//! record accesses to the *mutable shared state a stage phase could
//! observe* (the footprint domain); state that is serial-by-construction
//! (report counters, RNG samplers, durable journals drained in apply) is
//! deliberately outside the domain and needs no declaration. See
//! `crates/sim/README.md` for the full contract.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::OnceLock;

use crate::clock::SimTime;
use crate::engine::{Scheduler, Simulation, World};
use crate::shrink::ddmin;
use zmail_obs::Counter;

/// Severity of a racecheck finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: loosens footprint reasoning, breaks no declaration.
    Warning,
    /// Contract violation: a footprint leaves out a key the event uses.
    Error,
}

/// Stable finding codes, one per footprint-contract violation class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimCode {
    /// SIM001: undeclared stage read.
    UndeclaredStageRead,
    /// SIM002: undeclared apply write.
    UndeclaredWrite,
    /// SIM004: apply read escaping the declared footprint.
    ApplyReadEscape,
    /// SIM005: vacuous / over-broad footprint.
    OverbroadFootprint,
    /// SIM006: one key constant recorded under two access classes.
    KeyClassCollision,
}

impl SimCode {
    /// The stable code string (`SIM001`, `SIM002`, `SIM004`..`SIM006`).
    pub fn code(self) -> &'static str {
        match self {
            SimCode::UndeclaredStageRead => "SIM001",
            SimCode::UndeclaredWrite => "SIM002",
            SimCode::ApplyReadEscape => "SIM004",
            SimCode::OverbroadFootprint => "SIM005",
            SimCode::KeyClassCollision => "SIM006",
        }
    }

    /// Severity class of this code.
    pub fn severity(self) -> Severity {
        match self {
            SimCode::UndeclaredStageRead
            | SimCode::UndeclaredWrite
            | SimCode::KeyClassCollision => Severity::Error,
            SimCode::ApplyReadEscape | SimCode::OverbroadFootprint => Severity::Warning,
        }
    }

    /// All codes, in stable order.
    pub const ALL: [SimCode; 5] = [
        SimCode::UndeclaredStageRead,
        SimCode::UndeclaredWrite,
        SimCode::ApplyReadEscape,
        SimCode::OverbroadFootprint,
        SimCode::KeyClassCollision,
    ];
}

/// The access trace of one event phase: `(class, key)` pairs, where
/// `class` names the resource family (`"isp"`, `"shard"`, …) and `key`
/// is the same opaque `u64` the world declares in its footprint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessLog {
    /// Keys read, in recording order.
    pub reads: Vec<(&'static str, u64)>,
    /// Keys written, in recording order.
    pub writes: Vec<(&'static str, u64)>,
}

/// The handle a world's phases record their accesses through: `stage`
/// gets one as an argument, and `apply` records through the
/// [`Scheduler`], which carries one.
///
/// The engine hands out *disabled* recorders (recording is a no-op);
/// only a [`CheckedWorld`] arms them, so the instrumentation costs one
/// branch per access when unchecked.
#[derive(Debug, Default)]
pub struct AccessRecorder {
    enabled: bool,
    log: AccessLog,
}

impl AccessRecorder {
    /// A recorder that captures accesses.
    pub fn armed() -> Self {
        AccessRecorder {
            enabled: true,
            log: AccessLog::default(),
        }
    }

    /// A recorder that ignores accesses (the production default).
    pub fn disabled() -> Self {
        AccessRecorder::default()
    }

    /// Records a read of `key` in resource family `class`.
    #[inline]
    pub fn read(&mut self, class: &'static str, key: u64) {
        if self.enabled {
            self.log.reads.push((class, key));
        }
    }

    /// Records a write of `key` in resource family `class`.
    #[inline]
    pub fn write(&mut self, class: &'static str, key: u64) {
        if self.enabled {
            self.log.writes.push((class, key));
        }
    }

    /// Consumes the recorder, returning what it captured.
    pub fn into_log(self) -> AccessLog {
        self.log
    }
}

/// One deduplicated racecheck finding. Identity is
/// `(code, label, class, key)`; repeated occurrences bump `count`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The stable finding code.
    pub code: SimCode,
    /// Event label ([`World::event_label`]) the finding is against.
    pub label: &'static str,
    /// Resource class of the offending key (`"-"` for declared-only
    /// keys, which carry no recorded class).
    pub class: &'static str,
    /// The offending key.
    pub key: u64,
    /// Sim-clock milliseconds of the first occurrence.
    pub first_tick_ms: u64,
    /// How many times this exact finding recurred.
    pub count: u64,
    /// Human-readable explanation of the first occurrence.
    pub detail: String,
}

impl Finding {
    /// One-line rendering: `SIM002 [error] send: ...`.
    pub fn render(&self) -> String {
        let sev = match self.code.severity() {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        format!(
            "{} [{}] {} ×{}: {}",
            self.code.code(),
            sev,
            self.label,
            self.count,
            self.detail
        )
    }
}

/// The result of checking a run: every finding, deduplicated and in
/// stable `(code, label, class, key)` order, so reports are identical
/// across reruns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RacecheckReport {
    /// Events that went through the checked apply pass.
    pub events_checked: u64,
    /// All findings, stably ordered.
    pub findings: Vec<Finding>,
}

impl RacecheckReport {
    /// `true` when no *error*-severity finding was recorded. Warnings
    /// (SIM004/SIM005) are advisory and do not dirty a run.
    pub fn is_clean(&self) -> bool {
        !self
            .findings
            .iter()
            .any(|f| f.code.severity() == Severity::Error)
    }

    /// Whether any finding with `code` was recorded.
    pub fn has(&self, code: SimCode) -> bool {
        self.findings.iter().any(|f| f.code == code)
    }

    /// The distinct codes present, in stable order.
    pub fn codes(&self) -> Vec<SimCode> {
        let set: BTreeSet<SimCode> = self.findings.iter().map(|f| f.code).collect();
        set.into_iter().collect()
    }

    /// Multi-line human rendering (empty string when clean and quiet).
    pub fn render(&self) -> String {
        let mut out = format!(
            "racecheck: {} events checked, {} findings\n",
            self.events_checked,
            self.findings.len()
        );
        for f in &self.findings {
            out.push_str("  ");
            out.push_str(&f.render());
            out.push('\n');
        }
        out
    }
}

/// Counter handles for the racecheck layer, registered once against
/// [`zmail_obs::global()`] (disabled by default, like every layer).
#[derive(Debug)]
pub struct RacecheckMetrics {
    /// Events run through the checked apply pass (`racecheck.events`).
    pub events: Counter,
    /// Total finding occurrences (`racecheck.findings`).
    pub findings: Counter,
    /// Per-code occurrence counters, in [`SimCode::ALL`] order
    /// (`racecheck.findings.sim001` … `racecheck.findings.sim006`).
    pub by_code: [Counter; 5],
}

impl RacecheckMetrics {
    /// The process-wide handle set, created on first use against the
    /// global registry.
    pub fn get() -> &'static RacecheckMetrics {
        static METRICS: OnceLock<RacecheckMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let r = zmail_obs::global();
            RacecheckMetrics {
                events: r.counter("racecheck.events"),
                findings: r.counter("racecheck.findings"),
                by_code: [
                    r.counter("racecheck.findings.sim001"),
                    r.counter("racecheck.findings.sim002"),
                    r.counter("racecheck.findings.sim004"),
                    r.counter("racecheck.findings.sim005"),
                    r.counter("racecheck.findings.sim006"),
                ],
            }
        })
    }

    fn record(&self, code: SimCode) {
        self.findings.inc();
        let idx = SimCode::ALL.iter().position(|c| *c == code).expect("code");
        self.by_code[idx].inc();
    }
}

/// Per-label key universes for the whole-run SIM005 aggregation.
#[derive(Debug, Default)]
struct LabelUniverse {
    declared: BTreeSet<u64>,
    used: BTreeSet<u64>,
}

/// Checker state threaded through the apply phase.
#[derive(Debug, Default)]
struct CheckState {
    events_checked: u64,
    /// Deduplicated findings keyed by `(code, label, class, key)`.
    findings: BTreeMap<(SimCode, &'static str, &'static str, u64), Finding>,
    /// First class each key was recorded under (SIM006).
    key_class: HashMap<u64, &'static str>,
    /// Per-label declared/used key sets across the run (SIM005).
    universe: BTreeMap<&'static str, LabelUniverse>,
    /// SIM005 is aggregated at report time; mirror each aggregate into
    /// the metrics counters only once even if `report()` runs twice.
    sim005_mirrored: Cell<bool>,
}

impl CheckState {
    fn finding(
        &mut self,
        now: SimTime,
        code: SimCode,
        label: &'static str,
        class: &'static str,
        key: u64,
        detail: impl FnOnce() -> String,
    ) {
        RacecheckMetrics::get().record(code);
        self.findings
            .entry((code, label, class, key))
            .and_modify(|f| f.count += 1)
            .or_insert_with(|| Finding {
                code,
                label,
                class,
                key,
                first_tick_ms: now.as_millis(),
                count: 1,
                detail: detail(),
            });
    }

    /// SIM006 bookkeeping: every recorded `(class, key)` pair must keep
    /// one class per key for the whole run.
    fn note_class(&mut self, now: SimTime, label: &'static str, class: &'static str, key: u64) {
        match self.key_class.get(&key) {
            None => {
                self.key_class.insert(key, class);
            }
            Some(first) if *first == class => {}
            Some(first) => {
                let first = *first;
                self.finding(now, SimCode::KeyClassCollision, label, class, key, || {
                    format!(
                        "key {key} recorded under class `{class}` was first recorded \
                         under class `{first}` — key encodings of distinct resource \
                         classes collide, so footprint disjointness conflates them"
                    )
                });
            }
        }
    }
}

/// Adapter that wraps a [`World`] and checks the footprint contract on
/// every event. It is a [`World`] itself, so it drops into [`Simulation`]
/// in place of the inner world.
///
/// Created disarmed: behaviour and overhead match the bare world (one
/// branch per event). [`CheckedWorld::arm`] switches checking on.
#[derive(Debug)]
pub struct CheckedWorld<W: World> {
    inner: W,
    armed: bool,
    check: CheckState,
}

impl<W: World> CheckedWorld<W> {
    /// Wraps `inner` with checking **off**.
    pub fn new(inner: W) -> Self {
        CheckedWorld {
            inner,
            armed: false,
            check: CheckState::default(),
        }
    }

    /// Wraps `inner` with checking **on**.
    pub fn armed(inner: W) -> Self {
        let mut w = CheckedWorld::new(inner);
        w.arm();
        w
    }

    /// Switches checking on for subsequent events.
    pub fn arm(&mut self) {
        self.armed = true;
    }

    /// Whether checking is on.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// The wrapped world.
    pub fn inner(&self) -> &W {
        &self.inner
    }

    /// Mutable access to the wrapped world.
    pub fn inner_mut(&mut self) -> &mut W {
        &mut self.inner
    }

    /// Consumes the adapter, returning the wrapped world.
    pub fn into_inner(self) -> W {
        self.inner
    }

    /// The findings so far, including whole-run aggregates (SIM005)
    /// computed over everything observed up to this point.
    pub fn report(&self) -> RacecheckReport {
        let mut findings: Vec<Finding> = self.check.findings.values().cloned().collect();
        let mirror = !self.check.sim005_mirrored.replace(true);
        for (label, u) in &self.check.universe {
            for &key in u.declared.difference(&u.used) {
                if mirror {
                    RacecheckMetrics::get().record(SimCode::OverbroadFootprint);
                }
                findings.push(Finding {
                    code: SimCode::OverbroadFootprint,
                    label,
                    class: "-",
                    key,
                    first_tick_ms: 0,
                    count: 1,
                    detail: format!(
                        "footprint of `{label}` declares key {key}, but no event \
                         with this label ever read or wrote it — the over-broad \
                         declaration only blurs footprint reasoning"
                    ),
                });
            }
        }
        findings.sort_by(|a, b| {
            (a.code, a.label, a.class, a.key).cmp(&(b.code, b.label, b.class, b.key))
        });
        RacecheckReport {
            events_checked: self.check.events_checked,
            findings,
        }
    }

    /// `apply` with checking on: runs the inner apply with the
    /// scheduler's recorder armed and diffs what both phases recorded
    /// against the declared footprint. Out of line, so that the
    /// disarmed `apply` stays a branch and a call.
    #[inline(never)]
    fn checked_apply(
        &mut self,
        now: SimTime,
        event: W::Event,
        effect: W::Effect,
        stage_log: AccessLog,
        scheduler: &mut Scheduler<'_, W::Event>,
    ) {
        let label = W::event_label(&event);
        let mut declared = Vec::new();
        self.inner.footprint(&event, &mut declared);
        let declared_set: HashSet<u64> = declared.iter().copied().collect();

        // SIM001: stage reads outside the declared footprint.
        for &(class, key) in &stage_log.reads {
            self.check.note_class(now, label, class, key);
            if !declared_set.contains(&key) {
                self.check
                    .finding(now, SimCode::UndeclaredStageRead, label, class, key, || {
                        format!(
                            "stage of `{label}` read {class} key {key} outside its \
                         declared footprint"
                        )
                    });
            }
        }
        for &(class, key) in &stage_log.writes {
            self.check.note_class(now, label, class, key);
        }

        // Run the real apply with the scheduler's recorder armed.
        let apply_log = scheduler.recording(|s| self.inner.apply(now, event, effect, s));

        // SIM002: apply writes outside the declared footprint.
        for &(class, key) in &apply_log.writes {
            self.check.note_class(now, label, class, key);
            if !declared_set.contains(&key) {
                self.check
                    .finding(now, SimCode::UndeclaredWrite, label, class, key, || {
                        format!(
                            "apply of `{label}` wrote {class} key {key} outside its \
                         declared footprint"
                        )
                    });
            }
        }
        // SIM004: apply reads outside the declared footprint (warning).
        for &(class, key) in &apply_log.reads {
            self.check.note_class(now, label, class, key);
            if !declared_set.contains(&key) {
                self.check
                    .finding(now, SimCode::ApplyReadEscape, label, class, key, || {
                        format!(
                            "apply of `{label}` read {class} key {key} outside its \
                         declared footprint — sound under serial apply, but it \
                         defeats footprint reasoning for parallel apply or \
                         partial-order reduction"
                        )
                    });
            }
        }

        // SIM005 bookkeeping: per-label declared vs. used universes.
        let u = self.check.universe.entry(label).or_default();
        u.declared.extend(declared.iter().copied());
        u.used.extend(stage_log.reads.iter().map(|&(_, k)| k));
        u.used.extend(stage_log.writes.iter().map(|&(_, k)| k));
        u.used.extend(apply_log.reads.iter().map(|&(_, k)| k));
        u.used.extend(apply_log.writes.iter().map(|&(_, k)| k));

        self.check.events_checked += 1;
        RacecheckMetrics::get().events.inc();
    }
}

impl<W: World> World for CheckedWorld<W> {
    type Event = W::Event;
    type Effect = (W::Effect, AccessLog);

    fn footprint(&self, event: &Self::Event, keys: &mut Vec<u64>) {
        self.inner.footprint(event, keys);
    }

    fn event_label(event: &Self::Event) -> &'static str {
        W::event_label(event)
    }

    fn stage(&self, now: SimTime, event: &Self::Event, _rec: &mut AccessRecorder) -> Self::Effect {
        let mut rec = AccessRecorder {
            enabled: self.armed,
            log: AccessLog::default(),
        };
        let effect = self.inner.stage(now, event, &mut rec);
        (effect, rec.into_log())
    }

    fn apply(
        &mut self,
        now: SimTime,
        event: Self::Event,
        (effect, stage_log): Self::Effect,
        scheduler: &mut Scheduler<'_, Self::Event>,
    ) {
        if self.armed {
            self.checked_apply(now, event, effect, stage_log, scheduler);
        } else {
            self.inner.apply(now, event, effect, scheduler);
        }
    }
}

/// Runs `schedule` through an armed [`CheckedWorld`] and returns the
/// world plus the report.
pub fn run_checked<W>(world: W, schedule: &[(SimTime, W::Event)]) -> (W, RacecheckReport)
where
    W: World,
    W::Event: Clone,
{
    let mut sim = Simulation::new(CheckedWorld::armed(world));
    for (at, event) in schedule {
        sim.schedule(*at, event.clone());
    }
    sim.run_to_completion();
    let checked = sim.into_world();
    let report = checked.report();
    (checked.into_inner(), report)
}

/// Result of shrinking a finding-triggering schedule.
#[derive(Debug, Clone)]
pub struct ScheduleShrink<E> {
    /// The 1-minimal subsequence still triggering the finding.
    pub events: Vec<(SimTime, E)>,
    /// Candidate schedules the shrinker evaluated.
    pub tests_run: u32,
}

/// Shrinks `schedule` to a 1-minimal event subsequence that still makes
/// a fresh world (from `world_factory`) report a finding with `code`,
/// using the shared [`ddmin`] delta debugger. Each probe replays the
/// candidate through [`run_checked`].
pub fn shrink_schedule<W, F>(
    schedule: &[(SimTime, W::Event)],
    mut world_factory: F,
    code: SimCode,
) -> ScheduleShrink<W::Event>
where
    W: World,
    W::Event: Clone,
    F: FnMut() -> W,
{
    let outcome = ddmin(schedule, |candidate| {
        let (_, report) = run_checked(world_factory(), candidate);
        report.has(code)
    });
    ScheduleShrink {
        events: outcome.items,
        tests_run: outcome.tests_run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;

    /// An honest world: cells with fully declared, fully recorded
    /// accesses. The checker must stay silent on it.
    struct Honest {
        cells: Vec<u64>,
    }

    #[derive(Debug, Clone, Copy)]
    struct Bump(usize);

    impl World for Honest {
        type Event = Bump;
        type Effect = u64;
        fn footprint(&self, e: &Bump, keys: &mut Vec<u64>) {
            keys.push(e.0 as u64);
        }
        fn event_label(_e: &Bump) -> &'static str {
            "bump"
        }
        fn stage(&self, _now: SimTime, e: &Bump, rec: &mut AccessRecorder) -> u64 {
            rec.read("cell", e.0 as u64);
            self.cells[e.0].wrapping_add(1)
        }
        fn apply(&mut self, _n: SimTime, e: Bump, eff: u64, s: &mut Scheduler<'_, Bump>) {
            s.write("cell", e.0 as u64);
            self.cells[e.0] = eff;
        }
    }

    fn bumps() -> Vec<(SimTime, Bump)> {
        let mut v = Vec::new();
        for tick in 0..3u64 {
            let at = SimTime::ZERO + SimDuration::from_secs(tick);
            for cell in 0..4usize {
                v.push((at, Bump(cell % 3)));
            }
        }
        v
    }

    #[test]
    fn honest_world_is_clean() {
        let (world, report) = run_checked(Honest { cells: vec![0; 3] }, &bumps());
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.findings.is_empty());
        assert_eq!(report.events_checked, 12);
        assert_eq!(world.cells.iter().sum::<u64>(), 12);
    }

    #[test]
    fn disarmed_adapter_is_transparent() {
        let mut sim = Simulation::new(CheckedWorld::new(Honest { cells: vec![0; 3] }));
        for (at, e) in bumps() {
            sim.schedule(at, e);
        }
        sim.run_to_completion();
        let checked = sim.into_world();
        assert!(!checked.is_armed());
        assert_eq!(checked.report().events_checked, 0);
        assert_eq!(checked.inner().cells.iter().sum::<u64>(), 12);
    }

    #[test]
    fn serial_step_path_checks_too() {
        let mut sim = Simulation::new(CheckedWorld::armed(Honest { cells: vec![0; 3] }));
        for (at, e) in bumps() {
            sim.schedule(at, e);
        }
        sim.run_to_completion();
        let report = sim.world().report();
        assert!(report.is_clean());
        assert_eq!(report.events_checked, 12);
    }

    #[test]
    fn report_rendering_is_stable() {
        let (_, report) = run_checked(Honest { cells: vec![0; 3] }, &bumps());
        assert!(report
            .render()
            .starts_with("racecheck: 12 events checked, 0 findings"));
        assert_eq!(report.codes(), Vec::<SimCode>::new());
    }

    #[test]
    fn codes_are_stable_and_ordered() {
        let codes: Vec<&str> = SimCode::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(codes, ["SIM001", "SIM002", "SIM004", "SIM005", "SIM006"]);
        assert_eq!(SimCode::UndeclaredStageRead.severity(), Severity::Error);
        assert_eq!(SimCode::OverbroadFootprint.severity(), Severity::Warning);
    }

    #[test]
    fn metrics_handles_register_once() {
        let a = RacecheckMetrics::get();
        let b = RacecheckMetrics::get();
        assert!(std::ptr::eq(a, b));
        let snap = zmail_obs::global().snapshot();
        assert!(snap.counters.contains_key("racecheck.events"));
        assert!(snap.counters.contains_key("racecheck.findings.sim006"));
    }
}
