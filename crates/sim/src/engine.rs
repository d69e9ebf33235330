//! The simulation driver: a [`World`] stages and applies events, a
//! [`Scheduler`] lets an apply plant future ones, and [`Simulation`] runs
//! the loop.
//!
//! The engine is deliberately small — the Zmail system model in
//! `zmail-core` supplies all domain behaviour through its `World`
//! implementation — and runs one event at a time on the caller's thread.

use crate::clock::{SimDuration, SimTime};
use crate::event::EventQueue;
use crate::racecheck::{AccessLog, AccessRecorder};
use crate::telemetry::SimTelemetry;

/// What the engine hands an event's apply phase: the clock, the queue
/// to plant new events on, and the apply-phase access recorder.
#[derive(Debug)]
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    recorder: AccessRecorder,
}

impl<'a, E> Scheduler<'a, E> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — events may not rewrite history.
    pub fn at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.schedule(at, event);
    }

    /// Schedules `event` after a relative delay.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.queue.schedule(self.now + delay, event);
    }

    /// Records that this apply read `key` in resource family `class`. A
    /// no-op unless a [`CheckedWorld`](crate::CheckedWorld) armed the
    /// recorder.
    #[inline]
    pub fn read(&mut self, class: &'static str, key: u64) {
        self.recorder.read(class, key);
    }

    /// Records that this apply wrote `key` in resource family `class`;
    /// a no-op unless armed, like [`Scheduler::read`].
    #[inline]
    pub fn write(&mut self, class: &'static str, key: u64) {
        self.recorder.write(class, key);
    }

    /// Runs `apply` with the recorder armed and returns what it
    /// recorded.
    pub(crate) fn recording(&mut self, apply: impl FnOnce(&mut Self)) -> AccessLog {
        let outer = std::mem::replace(&mut self.recorder, AccessRecorder::armed());
        apply(self);
        std::mem::replace(&mut self.recorder, outer).into_log()
    }
}

/// A simulated world: domain state plus an event handler split into a
/// read-only *stage* phase and a mutating *apply* phase, which the
/// engine runs back to back for each event.
///
/// The contract: [`World::footprint`] must name (as opaque `u64` keys)
/// every piece of state the event's stage phase reads *and* its apply
/// phase writes. The engine does not consult it; it is what a
/// [`CheckedWorld`](crate::CheckedWorld) checks, serially, against the
/// keys both phases report through their [`AccessRecorder`] and
/// [`Scheduler::read`] / [`Scheduler::write`], and what `speclint
/// --independence-json` compares with the AP model's independence
/// relation. Recording is a no-op unless a `CheckedWorld` arms it, and
/// never changes behaviour.
pub trait World {
    /// The event type driving this world.
    type Event;

    /// What `stage` computes for `apply` to consume.
    type Effect;

    /// Appends the event's state-footprint keys to `keys`. Coarser keys
    /// are always safe; a missing key is unsound.
    fn footprint(&self, event: &Self::Event, keys: &mut Vec<u64>);

    /// Short static label for an event, used by telemetry to bucket
    /// per-event-type latency histograms. The default
    /// lumps everything under one label; worlds with an event enum
    /// should override it.
    fn event_label(_event: &Self::Event) -> &'static str {
        "event"
    }

    /// The read-only part: compute everything derivable from world
    /// state without changing it (digests, signature checks, routing),
    /// recording the footprint-domain keys it reads or writes in `rec`.
    fn stage(&self, now: SimTime, event: &Self::Event, rec: &mut AccessRecorder) -> Self::Effect;

    /// The mutating part: change the world with the staged effect,
    /// possibly planting new events and recording accesses through
    /// `scheduler`.
    fn apply(
        &mut self,
        now: SimTime,
        event: Self::Event,
        effect: Self::Effect,
        scheduler: &mut Scheduler<'_, Self::Event>,
    );
}

/// The event loop: owns the queue and the clock, drives a [`World`].
#[derive(Debug)]
pub struct Simulation<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    processed: u64,
    telemetry: Option<SimTelemetry>,
}

impl<W: World> Simulation<W> {
    /// Creates a simulation over `world` starting at time zero.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            telemetry: None,
        }
    }

    /// Attaches a telemetry sink; subsequent events are counted and
    /// timed.
    pub fn attach_telemetry(&mut self, telemetry: SimTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Schedules an initial event before the run starts.
    pub fn schedule(&mut self, at: SimTime, event: W::Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.schedule(at, event);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events handled so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (for instrumentation between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the simulation and returns the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// The per-event body of every loop: stages `event` at `time`,
    /// applies it, counts it, and reports it to telemetry.
    #[inline]
    fn run_event(&mut self, time: SimTime, event: W::Event) {
        debug_assert!(time >= self.now);
        self.now = time;
        // Read the label and start the timer before `apply` consumes
        // the event.
        let label_and_start = self.telemetry.as_ref().map(|tel| {
            let label = W::event_label(&event);
            (label, tel.is_profiling().then(std::time::Instant::now))
        });
        let effect = self
            .world
            .stage(time, &event, &mut AccessRecorder::disabled());
        let mut scheduler = Scheduler {
            now: time,
            queue: &mut self.queue,
            recorder: AccessRecorder::disabled(),
        };
        self.world.apply(time, event, effect, &mut scheduler);
        self.processed += 1;
        if let (Some(tel), Some((label, started))) = (self.telemetry.as_mut(), label_and_start) {
            tel.on_event_end(label, started, self.queue.len());
        }
    }

    /// Processes one event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((time, event)) = self.queue.pop() else {
            return false;
        };
        self.run_event(time, event);
        true
    }

    /// Processes one whole tick — every event at the earliest pending
    /// time that is already queued — in FIFO order, and returns `false`
    /// when the queue is empty. An event scheduled for the current
    /// instant during the tick runs in the next one, so a loop of
    /// `step_tick` applies exactly the events a loop of
    /// [`Simulation::step`] does, in the same order.
    ///
    /// `threads` is ignored: the engine runs every event on the
    /// caller's thread. The parameter stays until the benchmark, which
    /// calls `step_tick(1)`, drops it (ROADMAP item 1).
    pub fn step_tick(&mut self, _threads: usize) -> bool {
        let Some((time, events)) = self.queue.pop_tick() else {
            return false;
        };
        let apply_started = self
            .telemetry
            .as_ref()
            .filter(|tel| tel.is_profiling())
            .map(|tel| {
                tel.on_tick(events.len());
                std::time::Instant::now()
            });
        for event in events {
            self.run_event(time, event);
        }
        if let (Some(tel), Some(started)) = (&self.telemetry, apply_started) {
            tel.on_apply_pass(started.elapsed().as_micros() as u64);
        }
        true
    }

    /// Runs until the queue empties or virtual time would pass `until`;
    /// events scheduled at exactly `until` are processed. Returns the number
    /// of events handled during this call.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        let before = self.processed;
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            self.step();
        }
        // Advance the clock to the horizon even if the queue drained early.
        if self.now < until {
            self.now = until;
        }
        self.processed - before
    }

    /// Runs until the event queue is exhausted. Returns events handled.
    pub fn run_to_completion(&mut self) -> u64 {
        self.run_fed(|_| {})
    }

    /// [`Simulation::run_to_completion`] with a driver: `feed` gets the
    /// world before every event, and the run ends when the queue is
    /// empty after a feed. A caller streams input through it — a world
    /// that holds the next item of a borrowed workload, which the
    /// applying event schedules, is refilled here — so the input is
    /// never copied into the world.
    pub fn run_fed(&mut self, mut feed: impl FnMut(&mut W)) -> u64 {
        let before = self.processed;
        let started = std::time::Instant::now();
        loop {
            feed(&mut self.world);
            if !self.step() {
                break;
            }
        }
        let handled = self.processed - before;
        if let Some(tel) = &self.telemetry {
            tel.on_run_complete(handled, started.elapsed());
        }
        handled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::SimTelemetry;
    use zmail_obs::Registry;

    /// A world that rings a bell every `period` until `limit` rings,
    /// noting each ring's time.
    struct BellTower {
        rings: Vec<SimTime>,
        period: SimDuration,
        limit: usize,
    }

    fn tower(period: SimDuration, limit: usize) -> BellTower {
        BellTower {
            rings: Vec::new(),
            period,
            limit,
        }
    }

    #[derive(Debug)]
    struct Ring;

    impl World for BellTower {
        type Event = Ring;
        type Effect = ();
        fn footprint(&self, _event: &Ring, _keys: &mut Vec<u64>) {}
        fn stage(&self, _now: SimTime, _event: &Ring, _rec: &mut AccessRecorder) {}
        fn apply(
            &mut self,
            now: SimTime,
            _event: Ring,
            _: (),
            scheduler: &mut Scheduler<'_, Ring>,
        ) {
            self.rings.push(now);
            if self.rings.len() < self.limit {
                scheduler.after(self.period, Ring);
            }
        }
    }

    #[test]
    fn periodic_events_fire_on_schedule() {
        let mut sim = Simulation::new(tower(SimDuration::from_mins(10), 4));
        sim.schedule(SimTime::ZERO, Ring);
        let handled = sim.run_to_completion();
        assert_eq!(handled, 4);
        let expected: Vec<SimTime> = (0..4)
            .map(|i| SimTime::ZERO + SimDuration::from_mins(10).mul(i))
            .collect();
        assert_eq!(sim.world().rings, expected);
    }

    #[test]
    fn run_until_respects_horizon_inclusive() {
        let mut sim = Simulation::new(tower(SimDuration::from_mins(10), 100));
        sim.schedule(SimTime::ZERO, Ring);
        let handled = sim.run_until(SimTime::ZERO + SimDuration::from_mins(30));
        // Rings at 0, 10, 20, 30 inclusive.
        assert_eq!(handled, 4);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_mins(30));
        // Continue later: state is preserved.
        let more = sim.run_until(SimTime::ZERO + SimDuration::from_mins(50));
        assert_eq!(more, 2);
    }

    #[test]
    fn clock_advances_to_horizon_when_queue_drains() {
        let mut sim = Simulation::new(tower(SimDuration::from_mins(1), 1));
        sim.schedule(SimTime::ZERO, Ring);
        sim.run_until(SimTime::ZERO + SimDuration::from_hours(1));
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_hours(1));
    }

    /// A world whose events each plant two children until `depth`: one
    /// at the same instant and one a second later, so ticks refill at
    /// the instant they run. Every apply is logged as `(time, id)`.
    struct Sprouts {
        next_id: u32,
        depth: u32,
        log: Vec<(SimTime, u32)>,
    }

    #[derive(Debug)]
    struct Sprout {
        id: u32,
        depth: u32,
    }

    impl World for Sprouts {
        type Event = Sprout;
        type Effect = ();
        fn footprint(&self, _event: &Sprout, _keys: &mut Vec<u64>) {}
        fn stage(&self, _now: SimTime, _event: &Sprout, _rec: &mut AccessRecorder) {}
        fn apply(
            &mut self,
            now: SimTime,
            event: Sprout,
            _: (),
            scheduler: &mut Scheduler<'_, Sprout>,
        ) {
            self.log.push((now, event.id));
            if event.depth < self.depth {
                for delay in [SimDuration::ZERO, SimDuration::from_secs(1)] {
                    self.next_id += 1;
                    let child = Sprout {
                        id: self.next_id,
                        depth: event.depth + 1,
                    };
                    scheduler.after(delay, child);
                }
            }
        }
    }

    #[test]
    fn step_and_step_tick_apply_the_same_sequence() {
        let run = |by_tick: bool| {
            let mut sim = Simulation::new(Sprouts {
                next_id: 3,
                depth: 4,
                log: Vec::new(),
            });
            for (id, secs) in [(1, 0), (2, 0), (3, 1)] {
                let at = SimTime::ZERO + SimDuration::from_secs(secs);
                sim.schedule(at, Sprout { id, depth: 0 });
            }
            if by_tick {
                while sim.step_tick(1) {}
            } else {
                while sim.step() {}
            }
            sim.into_world().log
        };
        let stepped = run(false);
        // Three roots, each with 2 + 4 + 8 + 16 descendants.
        assert_eq!(stepped.len(), 3 * 31);
        assert!(stepped.windows(2).all(|w| w[0].0 <= w[1].0));
        // The roots' same-instant children run at t=0 after both roots.
        assert_eq!(
            &stepped[..4],
            &[
                (SimTime::ZERO, 1),
                (SimTime::ZERO, 2),
                (SimTime::ZERO, 4),
                (SimTime::ZERO, 6)
            ]
        );
        assert_eq!(run(true), stepped);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        struct Rewinder;
        impl World for Rewinder {
            type Event = u8;
            type Effect = ();
            fn footprint(&self, _event: &u8, _keys: &mut Vec<u64>) {}
            fn stage(&self, _now: SimTime, _event: &u8, _rec: &mut AccessRecorder) {}
            fn apply(
                &mut self,
                _now: SimTime,
                event: u8,
                _: (),
                scheduler: &mut Scheduler<'_, u8>,
            ) {
                if event == 1 {
                    // Try to schedule before `now` (which is 10s here).
                    scheduler.at(SimTime::ZERO, 2);
                }
            }
        }
        let mut sim = Simulation::new(Rewinder);
        sim.schedule(SimTime::ZERO + SimDuration::from_secs(10), 1);
        sim.run_to_completion();
    }

    #[test]
    fn telemetry_counts_and_times_events() {
        let registry = Registry::new();
        let mut sim = Simulation::new(tower(SimDuration::from_secs(2), 3));
        sim.attach_telemetry(SimTelemetry::new(&registry));
        sim.schedule(SimTime::ZERO, Ring);
        sim.run_to_completion();

        let snap = registry.snapshot();
        assert_eq!(snap.counters["sim.events"], 3);
        assert_eq!(snap.gauges["sim.queue_depth"], 0);
        assert_eq!(snap.histograms["sim.handle_us.event"].count, 3);
    }

    /// A bank of cells: each event bumps one cell with a staged value
    /// derived from the cell's contents, then chains a follow-up event.
    struct Cells {
        cells: Vec<u64>,
        hops: u32,
        log: Vec<(u64, u64)>,
    }

    #[derive(Debug, Clone)]
    struct Bump {
        cell: usize,
        salt: u64,
        hop: u32,
    }

    impl World for Cells {
        type Event = Bump;
        type Effect = u64;
        fn footprint(&self, event: &Bump, keys: &mut Vec<u64>) {
            keys.push(event.cell as u64);
        }
        fn stage(&self, _now: SimTime, event: &Bump, _rec: &mut AccessRecorder) -> u64 {
            self.cells[event.cell]
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(event.salt)
        }
        fn apply(
            &mut self,
            _now: SimTime,
            event: Bump,
            effect: u64,
            scheduler: &mut Scheduler<'_, Bump>,
        ) {
            self.cells[event.cell] = effect;
            self.log.push((event.cell as u64, effect));
            if event.hop < self.hops {
                scheduler.after(
                    SimDuration::from_secs(1),
                    Bump {
                        cell: (event.cell + 1) % self.cells.len(),
                        salt: event.salt ^ effect,
                        hop: event.hop + 1,
                    },
                );
            }
        }
    }

    /// Five cells, six hops: 12 events over the 5 cells at t=0.
    fn cells_sim() -> Simulation<Cells> {
        let mut sim = Simulation::new(Cells {
            cells: vec![1; 5],
            hops: 6,
            log: Vec::new(),
        });
        for i in 0..12u64 {
            sim.schedule(
                SimTime::ZERO,
                Bump {
                    cell: (i % 5) as usize,
                    salt: i,
                    hop: 0,
                },
            );
        }
        sim
    }

    #[test]
    fn step_tick_runs_are_byte_identical_to_step_runs() {
        // Every t=0 tick holds same-cell bumps whose staged values read
        // the cell: a tick that applied out of FIFO order would leave
        // different cells, not just a reordered log.
        let mut sim = cells_sim();
        let handled = sim.run_to_completion();
        let reference = sim.into_world();
        let mut sim = cells_sim();
        while sim.step_tick(1) {}
        assert_eq!(sim.processed(), handled);
        let world = sim.into_world();
        assert_eq!(handled, 84);
        assert_eq!(world.cells, reference.cells);
        assert_eq!(world.log, reference.log);
    }

    #[test]
    fn step_and_step_tick_report_events_alike() {
        // (sim.events, every sim.handle_us.<label> count, final
        // sim.queue_depth) after a run of `step`s or of `step_tick`s.
        let telemetry = |by_tick: bool| {
            let registry = Registry::new();
            let mut sim = cells_sim();
            sim.attach_telemetry(SimTelemetry::new(&registry));
            if by_tick {
                while sim.step_tick(1) {}
            } else {
                sim.run_to_completion();
            }
            let snap = registry.snapshot();
            let handled: Vec<(String, u64)> = snap
                .histograms
                .iter()
                .filter(|(name, _)| name.starts_with("sim.handle_us."))
                .map(|(name, h)| (name.clone(), h.count))
                .collect();
            let depth = snap.gauges["sim.queue_depth"];
            (snap.counters["sim.events"], handled, depth)
        };
        let serial = telemetry(false);
        assert_eq!(serial, (84, vec![("sim.handle_us.event".into(), 84)], 0));
        assert_eq!(telemetry(true), serial);
    }

    #[test]
    fn tick_profiler_records_batches_and_apply_passes() {
        let registry = Registry::new();
        let mut sim = cells_sim();
        sim.attach_telemetry(SimTelemetry::new(&registry));
        let mut ticks = 0;
        while sim.step_tick(1) {
            ticks += 1;
        }
        let snap = registry.snapshot();
        let batches = &snap.histograms["sim.tick.batch"];
        assert_eq!((batches.count, batches.sum, batches.max), (ticks, 84, 12));
        assert_eq!(snap.histograms["sim.tick.apply_us"].count, ticks);
    }

    #[test]
    fn step_tick_consumes_exactly_one_timestamp() {
        let mut sim = Simulation::new(Cells {
            cells: vec![1; 3],
            hops: 0,
            log: Vec::new(),
        });
        for i in 0..3 {
            sim.schedule(
                SimTime::ZERO,
                Bump {
                    cell: i,
                    salt: i as u64,
                    hop: 0,
                },
            );
        }
        sim.schedule(
            SimTime::ZERO + SimDuration::from_secs(9),
            Bump {
                cell: 0,
                salt: 99,
                hop: 0,
            },
        );
        assert!(sim.step_tick(1));
        assert_eq!(sim.processed(), 3, "later tick must not be touched");
        assert_eq!(sim.now(), SimTime::ZERO);
        assert!(sim.step_tick(1));
        assert_eq!(sim.processed(), 4);
        assert!(!sim.step_tick(1));
    }

    /// A world that holds one item of a borrowed input, as `zmail-core`'s
    /// trace sends do: the applying item schedules the one after it at
    /// its own time (in ms), and the run's feed refills the slot.
    struct Relay {
        next: Option<u64>,
        seen: Vec<u64>,
    }

    impl World for Relay {
        type Event = u64;
        type Effect = ();
        fn footprint(&self, _event: &u64, keys: &mut Vec<u64>) {
            keys.push(0);
        }
        fn stage(&self, _now: SimTime, _event: &u64, _rec: &mut AccessRecorder) {}
        fn apply(&mut self, now: SimTime, item: u64, _: (), scheduler: &mut Scheduler<'_, u64>) {
            self.seen.push(item);
            if let Some(next) = self.next.take() {
                scheduler.at(SimTime::from_millis(next).max(now), next);
            }
        }
    }

    #[test]
    fn a_fed_run_streams_its_input_through_a_one_item_slot() {
        let input = [0u64, 0, 0, 5, 5, 9];
        let mut sim = Simulation::new(Relay {
            next: None,
            seen: Vec::new(),
        });
        sim.schedule(SimTime::ZERO, input[0]);
        let mut rest = input[1..].iter();
        let handled = sim.run_fed(|world| {
            if world.next.is_none() {
                world.next = rest.next().copied();
            }
        });
        assert_eq!(handled, input.len() as u64);
        assert_eq!(sim.now(), SimTime::from_millis(9));
        assert_eq!(sim.into_world().seen, input);

        // Unfed, the slot stays empty and the first item ends the run.
        let mut sim = Simulation::new(Relay {
            next: None,
            seen: Vec::new(),
        });
        sim.schedule(SimTime::ZERO, 0);
        assert_eq!(sim.run_to_completion(), 1);
    }

    #[test]
    fn processed_counter_accumulates() {
        let mut sim = Simulation::new(tower(SimDuration::from_secs(1), 3));
        sim.schedule(SimTime::ZERO, Ring);
        assert!(sim.step());
        assert_eq!(sim.processed(), 1);
        sim.run_to_completion();
        assert_eq!(sim.processed(), 3);
        assert!(!sim.step());
    }
}
