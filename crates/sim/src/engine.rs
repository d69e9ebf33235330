//! The simulation driver: a [`World`] stages and applies events, a
//! [`Scheduler`] lets an apply plant future ones, and [`Simulation`] runs
//! the loop.
//!
//! The engine is deliberately small — the Zmail system model in
//! `zmail-core` supplies all domain behaviour through its `World`
//! implementation.

use crate::clock::{SimDuration, SimTime};
use crate::event::EventQueue;
use crate::racecheck::{AccessLog, AccessRecorder};
use crate::telemetry::SimTelemetry;

/// What the engine hands an event's apply phase: the clock, the tick,
/// the queue to plant new events on, and the apply-phase access
/// recorder.
#[derive(Debug)]
pub struct Scheduler<'a, E> {
    now: SimTime,
    tick: u64,
    queue: &'a mut EventQueue<E>,
    recorder: AccessRecorder,
}

impl<'a, E> Scheduler<'a, E> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The engine tick this event runs in, numbered from 1. A tick is
    /// what one [`Simulation::step_tick`] pops: every event at the
    /// earliest pending time that is already queued. An event scheduled
    /// for the current instant during a tick runs in the next one, and
    /// [`Simulation::step`] numbers its events the same way.
    pub fn tick(&self) -> u64 {
        self.tick
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
/// read-only *stage* phase and a serial *apply* phase.
///
/// [`Simulation::step`] runs the two back to back. [`Simulation::step_tick`]
/// stages footprint-independent events of one tick on worker threads and
/// applies every event serially in FIFO order, so results are identical
/// at any thread count.
///
/// The contract: [`World::footprint`] must name (as opaque `u64` keys)
/// every piece of state the event's stage phase reads *and* its apply
/// phase writes. Within one tick the engine greedily selects a
/// prefix-independent set — an event joins the parallel group only if its
/// footprint is disjoint from the footprints of **all** events before it
/// in FIFO order — so a parallel stage observes exactly the pre-tick
/// state it would have observed serially. Conflicting events stage
/// inline during the apply pass. Both phases report the keys they touch,
/// through their [`AccessRecorder`] and [`Scheduler::read`] /
/// [`Scheduler::write`]; recording is a no-op unless a
/// [`CheckedWorld`](crate::CheckedWorld) arms it, and never changes
/// behaviour.
pub trait World {
    /// The event type driving this world.
    type Event;

    /// What `stage` computes for `apply` to consume. `Send` so worker
    /// threads can hand effects back.
    type Effect: Send;

    /// Appends the event's state-footprint keys to `keys`. Coarser keys
    /// are always safe (they only shrink the parallel group); a missing
    /// key is unsound.
    fn footprint(&self, event: &Self::Event, keys: &mut Vec<u64>);

    /// Short static label for an event, used by telemetry to bucket
    /// per-event-type latency histograms. The default
    /// lumps everything under one label; worlds with an event enum
    /// should override it.
    fn event_label(_event: &Self::Event) -> &'static str {
        "event"
    }

    /// The parallelizable part: compute everything derivable from
    /// immutable world state (digests, signature checks, routing),
    /// recording the footprint-domain keys it reads or writes in `rec`.
    fn stage(&self, now: SimTime, event: &Self::Event, rec: &mut AccessRecorder) -> Self::Effect;

    /// The serial part: mutate the world with the staged effect,
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
    /// The current tick's number ([`Scheduler::tick`]); 0 before the
    /// first.
    tick: u64,
    /// The queue's next sequence number when the current tick began:
    /// an event at the tick's time scheduled later belongs to the next.
    tick_seq: u64,
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
            tick: 0,
            tick_seq: 0,
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

    /// Opens tick `self.tick + 1` at `time`.
    fn start_tick(&mut self, time: SimTime) {
        debug_assert!(time >= self.now);
        self.now = time;
        self.tick += 1;
        self.tick_seq = self.queue.next_seq();
    }

    /// The per-event body of both loops: stages `event` unless a worker
    /// already did, applies it, counts it, and reports it to telemetry.
    #[inline]
    fn run_event(&mut self, event: W::Event, staged: Option<W::Effect>) {
        let time = self.now;
        // Read the label and start the timer before `apply` consumes
        // the event.
        let label_and_start = self.telemetry.as_ref().map(|tel| {
            let label = W::event_label(&event);
            (label, tel.is_profiling().then(std::time::Instant::now))
        });
        let effect = staged.unwrap_or_else(|| {
            self.world
                .stage(time, &event, &mut AccessRecorder::disabled())
        });
        let mut scheduler = Scheduler {
            now: time,
            tick: self.tick,
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
    ///
    /// The event opens a new tick when its time differs from the current
    /// tick's or it was scheduled after the tick's first pop, so serial
    /// runs number ticks exactly as [`Simulation::step_tick`] does.
    pub fn step(&mut self) -> bool {
        let Some((time, seq, event)) = self.queue.pop_seq() else {
            return false;
        };
        if time != self.now || seq >= self.tick_seq {
            self.start_tick(time);
        }
        self.run_event(event, None);
        true
    }

    /// Processes one whole tick (every event at the earliest pending
    /// time), staging footprint-independent events on up to `threads`
    /// worker threads and applying all of them serially in FIFO order.
    /// Returns `false` when the queue is empty.
    ///
    /// With `threads <= 1` everything stages inline, but the tick is
    /// still popped and applied through the same code path, so serial
    /// and parallel runs perform the identical event sequence.
    pub fn step_tick(&mut self, threads: usize) -> bool
    where
        W: Sync,
        W::Event: Send + Sync,
    {
        let Some((time, events)) = self.queue.pop_tick() else {
            return false;
        };
        self.start_tick(time);
        let mut effects: Vec<Option<W::Effect>> = Vec::new();
        effects.resize_with(events.len(), || None);
        let mut staged_parallel = 0usize;
        if threads > 1 && events.len() > 1 {
            // Greedy prefix-independence: an event stages in parallel
            // only if its footprint is disjoint from *every* earlier
            // event's footprint this tick, so its stage provably reads
            // pure pre-tick state.
            let mut claimed = std::collections::HashSet::new();
            let mut keys = Vec::new();
            let mut independent = Vec::new();
            for (i, event) in events.iter().enumerate() {
                keys.clear();
                self.world.footprint(event, &mut keys);
                if let Some(tel) = self.telemetry.as_mut() {
                    for &k in &keys {
                        tel.on_footprint_key(k);
                    }
                }
                if keys.iter().all(|k| !claimed.contains(k)) {
                    independent.push(i);
                }
                claimed.extend(keys.iter().copied());
            }
            if independent.len() > 1 {
                staged_parallel = independent.len();
                let chunk = independent.len().div_ceil(threads);
                let world = &self.world;
                let events = &events;
                let timing = self
                    .telemetry
                    .as_ref()
                    .is_some_and(|tel| tel.is_profiling());
                // Per worker: its staged (index, effect) batch plus its
                // wall-clock occupancy in µs (0 when not profiling).
                type StagedBatches<E> = Vec<(Vec<(usize, E)>, u64)>;
                let staged: StagedBatches<W::Effect> = std::thread::scope(|scope| {
                    let workers: Vec<_> = independent
                        .chunks(chunk)
                        .map(|ids| {
                            scope.spawn(move || {
                                let started = timing.then(std::time::Instant::now);
                                let mut rec = AccessRecorder::disabled();
                                let batch: Vec<(usize, W::Effect)> = ids
                                    .iter()
                                    .map(|&i| (i, world.stage(time, &events[i], &mut rec)))
                                    .collect();
                                let micros = started.map_or(0, |s| s.elapsed().as_micros() as u64);
                                (batch, micros)
                            })
                        })
                        .collect();
                    workers
                        .into_iter()
                        .map(|w| w.join().expect("stage worker panicked"))
                        .collect()
                });
                for (batch, micros) in staged {
                    if let Some(tel) = &self.telemetry {
                        if timing {
                            tel.on_stage_worker(micros);
                        }
                    }
                    for (i, effect) in batch {
                        effects[i] = Some(effect);
                    }
                }
            }
        }
        let apply_started = self
            .telemetry
            .as_ref()
            .filter(|tel| tel.is_profiling())
            .map(|tel| {
                tel.on_tick(effects.len(), staged_parallel);
                std::time::Instant::now()
            });
        for (event, effect) in events.into_iter().zip(effects) {
            self.run_event(event, effect);
        }
        if let (Some(tel), Some(started)) = (&self.telemetry, apply_started) {
            tel.on_apply_pass(started.elapsed().as_micros() as u64);
        }
        true
    }

    /// Runs tick-parallel until the queue is exhausted. `threads == 0`
    /// means all available cores. Returns events handled.
    pub fn run_parallel_to_completion(&mut self, threads: usize) -> u64
    where
        W: Sync,
        W::Event: Send + Sync,
    {
        self.run_parallel_fed(threads, |_| {})
    }

    /// [`Simulation::run_parallel_to_completion`] with a driver: `feed`
    /// gets the world before every tick, as [`Simulation::run_fed`]'s
    /// does before every event.
    pub fn run_parallel_fed(&mut self, threads: usize, mut feed: impl FnMut(&mut W)) -> u64
    where
        W: Sync,
        W::Event: Send + Sync,
    {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        let before = self.processed;
        let started = std::time::Instant::now();
        loop {
            feed(&mut self.world);
            if !self.step_tick(threads) {
                break;
            }
        }
        let handled = self.processed - before;
        if let Some(tel) = &self.telemetry {
            tel.on_run_complete(handled, started.elapsed());
        }
        handled
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
    /// noting each ring's time and tick.
    struct BellTower {
        rings: Vec<SimTime>,
        ticks: Vec<u64>,
        period: SimDuration,
        limit: usize,
    }

    fn tower(period: SimDuration, limit: usize) -> BellTower {
        BellTower {
            rings: Vec::new(),
            ticks: Vec::new(),
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
            self.ticks.push(scheduler.tick());
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
        assert_eq!(sim.world().ticks, [1, 2, 3, 4]);
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

    #[test]
    fn serial_steps_number_ticks_like_step_tick() {
        // Two rings at t=0, each ringing again at the same instant: the
        // second rings are scheduled during the first tick, so they run
        // in the next one.
        let ticks = |threads: Option<usize>| {
            let mut sim = Simulation::new(tower(SimDuration::ZERO, 4));
            sim.schedule(SimTime::ZERO, Ring);
            sim.schedule(SimTime::ZERO, Ring);
            match threads {
                None => sim.run_to_completion(),
                Some(threads) => sim.run_parallel_to_completion(threads),
            };
            sim.into_world().ticks
        };
        assert_eq!(ticks(None), [1, 1, 2, 2, 3]);
        assert_eq!(ticks(Some(1)), ticks(None));
        assert_eq!(ticks(Some(2)), ticks(None));
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
    /// derived from the *pre-tick* cell contents, then chains a
    /// follow-up event. Conflicting events in a tick (same cell) must
    /// observe each other's writes in FIFO order; independent ones must
    /// not care.
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
            // Reads the cell it will write: any missed conflict would
            // surface as a wrong value, not just a reordering.
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

    /// Five cells, six hops, and deliberate conflicts: 12 events over
    /// the 5 cells at t=0.
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
    fn parallel_ticks_are_byte_identical_at_any_thread_count() {
        // Serial reference through the plain step() path.
        let mut sim = cells_sim();
        let serial_handled = sim.run_to_completion();
        let reference = sim.into_world();
        for threads in [1, 2, 4, 8, 0] {
            let mut sim = cells_sim();
            let handled = sim.run_parallel_to_completion(threads);
            let world = sim.into_world();
            assert_eq!(handled, serial_handled, "threads={threads}");
            assert_eq!(world.cells, reference.cells, "threads={threads}");
            assert_eq!(world.log, reference.log, "threads={threads}");
        }
    }

    #[test]
    fn step_and_step_tick_report_events_alike() {
        // (sim.events, every sim.handle_us.<label> count, final
        // sim.queue_depth) after a run; `None` runs the serial loop.
        let telemetry = |threads: Option<usize>| {
            let registry = Registry::new();
            let mut sim = cells_sim();
            sim.attach_telemetry(SimTelemetry::new(&registry));
            match threads {
                None => sim.run_to_completion(),
                Some(threads) => sim.run_parallel_to_completion(threads),
            };
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
        let serial = telemetry(None);
        assert_eq!(serial, (84, vec![("sim.handle_us.event".into(), 84)], 0));
        assert_eq!(telemetry(Some(1)), serial);
        assert_eq!(telemetry(Some(4)), serial);
    }

    #[test]
    fn tick_profiler_records_batches_and_heat() {
        let registry = Registry::new();
        let mut sim = cells_sim();
        sim.attach_telemetry(SimTelemetry::new(&registry));
        let handled = sim.run_parallel_to_completion(4);
        let snap = registry.snapshot();
        // Every event either staged in parallel or inline.
        assert_eq!(
            snap.counters["sim.tick.staged_parallel"] + snap.counters["sim.tick.staged_inline"],
            handled
        );
        // 12 events over 5 cells: 5 stage in parallel the first tick.
        assert!(snap.counters["sim.tick.staged_parallel"] >= 5);
        let batches = &snap.histograms["sim.tick.batch"];
        assert_eq!(batches.max, 12);
        // Each of the 5 cells is its own footprint key and gets heat.
        for cell in 0..5 {
            assert!(snap.counters[&format!("sim.shard.heat.{cell}")] > 0);
        }
        assert!(snap.histograms["sim.tick.stage_worker_us"].count > 0);
        assert!(snap.histograms["sim.tick.apply_us"].count > 0);
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
        assert!(sim.step_tick(4));
        assert_eq!(sim.processed(), 3, "later tick must not be touched");
        assert_eq!(sim.now(), SimTime::ZERO);
        assert!(sim.step_tick(4));
        assert_eq!(sim.processed(), 4);
        assert!(!sim.step_tick(4));
    }

    /// A world that holds one item of a borrowed input, as `zmail-core`'s
    /// trace sends do: the applying item schedules the one after it at
    /// its own time (in ms), and the run's feed refills the slot.
    struct Relay {
        next: Option<u64>,
        /// `(item, tick)` per apply.
        seen: Vec<(u64, u64)>,
    }

    impl World for Relay {
        type Event = u64;
        type Effect = ();
        fn footprint(&self, _event: &u64, keys: &mut Vec<u64>) {
            keys.push(0);
        }
        fn stage(&self, _now: SimTime, _event: &u64, _rec: &mut AccessRecorder) {}
        fn apply(&mut self, now: SimTime, item: u64, _: (), scheduler: &mut Scheduler<'_, u64>) {
            self.seen.push((item, scheduler.tick()));
            if let Some(next) = self.next.take() {
                scheduler.at(SimTime::from_millis(next).max(now), next);
            }
        }
    }

    #[test]
    fn a_fed_run_streams_its_input_through_a_one_item_slot() {
        let input = [0u64, 0, 0, 5, 5, 9];
        let run = |threads: Option<usize>| {
            let mut sim = Simulation::new(Relay {
                next: None,
                seen: Vec::new(),
            });
            sim.schedule(SimTime::ZERO, input[0]);
            let mut rest = input[1..].iter();
            let feed = |world: &mut Relay| {
                if world.next.is_none() {
                    world.next = rest.next().copied();
                }
            };
            let handled = match threads {
                None => sim.run_fed(feed),
                Some(threads) => sim.run_parallel_fed(threads, feed),
            };
            assert_eq!(handled, input.len() as u64);
            sim.into_world().seen
        };
        let serial = run(None);
        let items: Vec<u64> = serial.iter().map(|&(item, _)| item).collect();
        assert_eq!(items, input);
        // An item scheduled at its predecessor's instant runs a tick later.
        let ticks: Vec<u64> = serial.iter().map(|&(_, tick)| tick).collect();
        assert_eq!(ticks, [1, 2, 3, 4, 5, 6]);
        assert_eq!(run(Some(1)), serial);
        assert_eq!(run(Some(2)), serial);

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
