//! The simulation driver: a [`World`] handles events, a [`Scheduler`] lets
//! it plant future ones, and [`Simulation`] runs the loop.
//!
//! The engine is deliberately small — the Zmail system model in
//! `zmail-core` supplies all domain behaviour through its `World`
//! implementation.

use crate::clock::{SimDuration, SimTime};
use crate::event::EventQueue;
use crate::telemetry::SimTelemetry;

/// Interface the engine offers to event handlers for scheduling new events.
#[derive(Debug)]
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
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
}

/// A simulated world: domain state plus an event handler.
pub trait World {
    /// The event type driving this world.
    type Event;

    /// Handles one event at its scheduled time, possibly planting more.
    fn handle(
        &mut self,
        now: SimTime,
        event: Self::Event,
        scheduler: &mut Scheduler<'_, Self::Event>,
    );

    /// Short static label for an event, used by telemetry to bucket
    /// per-event-type latency histograms. The default
    /// lumps everything under one label; worlds with an event enum
    /// should override it.
    fn event_label(_event: &Self::Event) -> &'static str {
        "event"
    }
}

/// A [`World`] whose event handling splits into a read-only *stage*
/// phase and a serial *apply* phase, enabling parallel-within-tick
/// execution that stays byte-identical to the serial order.
///
/// The contract: [`ParallelWorld::footprint`] must name (as opaque
/// `u64` keys) every piece of state the event's stage phase reads *and*
/// its apply phase writes. Within one tick the engine greedily selects
/// a prefix-independent set — an event joins the parallel group only if
/// its footprint is disjoint from the footprints of **all** events
/// before it in FIFO order — so a parallel stage observes exactly the
/// pre-tick state it would have observed serially. Conflicting events
/// simply stage inline during the apply pass. Apply always runs
/// serially in FIFO order, so results are identical at any thread
/// count; the thread pool only accelerates staging.
pub trait ParallelWorld: World {
    /// What `stage` computes for `apply` to consume. `Send` so worker
    /// threads can hand effects back.
    type Effect: Send;

    /// Appends the event's state-footprint keys to `keys`. Coarser keys
    /// are always safe (they only shrink the parallel group); a missing
    /// key is unsound.
    fn footprint(&self, event: &Self::Event, keys: &mut Vec<u64>);

    /// The parallelizable part: compute everything derivable from
    /// immutable world state (digests, signature checks, routing).
    fn stage(&self, now: SimTime, event: &Self::Event) -> Self::Effect;

    /// The serial part: mutate the world with the staged effect,
    /// possibly planting new events.
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

    /// Processes one event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((time, event)) => {
                debug_assert!(time >= self.now);
                self.now = time;
                // Read the label and start the timer before `handle`
                // borrows the world and queue.
                let label_and_start = self.telemetry.as_ref().map(|tel| {
                    let label = W::event_label(&event);
                    (label, tel.is_profiling().then(std::time::Instant::now))
                });
                let mut scheduler = Scheduler {
                    now: time,
                    queue: &mut self.queue,
                };
                self.world.handle(time, event, &mut scheduler);
                self.processed += 1;
                if let (Some(tel), Some((label, started))) =
                    (self.telemetry.as_mut(), label_and_start)
                {
                    tel.on_event_end(label, started, self.queue.len());
                }
                true
            }
            None => false,
        }
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
        W: ParallelWorld + Sync,
        W::Event: Send + Sync,
    {
        let Some((time, events)) = self.queue.pop_tick() else {
            return false;
        };
        debug_assert!(time >= self.now);
        self.now = time;
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
                                let batch: Vec<(usize, W::Effect)> = ids
                                    .iter()
                                    .map(|&i| (i, world.stage(time, &events[i])))
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
        for (i, event) in events.into_iter().enumerate() {
            let effect = effects[i]
                .take()
                .unwrap_or_else(|| self.world.stage(time, &event));
            let label_and_start = self.telemetry.as_ref().map(|tel| {
                let label = W::event_label(&event);
                (label, tel.is_profiling().then(std::time::Instant::now))
            });
            let mut scheduler = Scheduler {
                now: time,
                queue: &mut self.queue,
            };
            self.world.apply(time, event, effect, &mut scheduler);
            self.processed += 1;
            if let (Some(tel), Some((label, started))) = (self.telemetry.as_mut(), label_and_start)
            {
                tel.on_event_end(label, started, self.queue.len());
            }
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
        W: ParallelWorld + Sync,
        W::Event: Send + Sync,
    {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        let before = self.processed;
        let started = std::time::Instant::now();
        while self.step_tick(threads) {}
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
        let before = self.processed;
        let started = std::time::Instant::now();
        while self.step() {}
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

    /// A world that rings a bell every `period` until `limit` rings.
    struct BellTower {
        rings: Vec<SimTime>,
        period: SimDuration,
        limit: usize,
    }

    #[derive(Debug)]
    struct Ring;

    impl World for BellTower {
        type Event = Ring;
        fn handle(&mut self, now: SimTime, _event: Ring, scheduler: &mut Scheduler<'_, Ring>) {
            self.rings.push(now);
            if self.rings.len() < self.limit {
                scheduler.after(self.period, Ring);
            }
        }
    }

    #[test]
    fn periodic_events_fire_on_schedule() {
        let mut sim = Simulation::new(BellTower {
            rings: Vec::new(),
            period: SimDuration::from_mins(10),
            limit: 4,
        });
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
        let mut sim = Simulation::new(BellTower {
            rings: Vec::new(),
            period: SimDuration::from_mins(10),
            limit: 100,
        });
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
        let mut sim = Simulation::new(BellTower {
            rings: Vec::new(),
            period: SimDuration::from_mins(1),
            limit: 1,
        });
        sim.schedule(SimTime::ZERO, Ring);
        sim.run_until(SimTime::ZERO + SimDuration::from_hours(1));
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_hours(1));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        struct Rewinder;
        impl World for Rewinder {
            type Event = u8;
            fn handle(&mut self, _now: SimTime, event: u8, scheduler: &mut Scheduler<'_, u8>) {
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
        use crate::telemetry::SimTelemetry;
        use zmail_obs::Registry;

        let registry = Registry::new();
        let mut sim = Simulation::new(BellTower {
            rings: Vec::new(),
            period: SimDuration::from_secs(2),
            limit: 3,
        });
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
        fn handle(&mut self, now: SimTime, event: Bump, scheduler: &mut Scheduler<'_, Bump>) {
            let effect = self.stage(now, &event);
            self.apply(now, event, effect, scheduler);
        }
    }

    impl ParallelWorld for Cells {
        type Effect = u64;
        fn footprint(&self, event: &Bump, keys: &mut Vec<u64>) {
            keys.push(event.cell as u64);
        }
        fn stage(&self, _now: SimTime, event: &Bump) -> u64 {
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

    fn cells_run(threads: usize) -> (Vec<u64>, Vec<(u64, u64)>, u64) {
        let mut sim = Simulation::new(Cells {
            cells: vec![1; 5],
            hops: 6,
            log: Vec::new(),
        });
        // Deliberate conflicts: 12 events over 5 cells per tick.
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
        let handled = sim.run_parallel_to_completion(threads);
        let world = sim.into_world();
        (world.cells, world.log, handled)
    }

    #[test]
    fn parallel_ticks_are_byte_identical_at_any_thread_count() {
        // Serial reference through the plain step() path.
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
        let serial_handled = sim.run_to_completion();
        let reference = sim.into_world();
        for threads in [1, 2, 4, 8, 0] {
            let (cells, log, handled) = cells_run(threads);
            assert_eq!(handled, serial_handled, "threads={threads}");
            assert_eq!(cells, reference.cells, "threads={threads}");
            assert_eq!(log, reference.log, "threads={threads}");
        }
    }

    #[test]
    fn tick_profiler_records_batches_and_heat() {
        use crate::telemetry::SimTelemetry;
        use zmail_obs::Registry;

        let registry = Registry::new();
        let mut sim = Simulation::new(Cells {
            cells: vec![1; 5],
            hops: 6,
            log: Vec::new(),
        });
        sim.attach_telemetry(SimTelemetry::new(&registry));
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

    #[test]
    fn processed_counter_accumulates() {
        let mut sim = Simulation::new(BellTower {
            rings: Vec::new(),
            period: SimDuration::from_secs(1),
            limit: 3,
        });
        sim.schedule(SimTime::ZERO, Ring);
        assert!(sim.step());
        assert_eq!(sim.processed(), 1);
        sim.run_to_completion();
        assert_eq!(sim.processed(), 3);
        assert!(!sim.step());
    }
}
