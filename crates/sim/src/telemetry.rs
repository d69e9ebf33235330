//! Engine telemetry: metrics for the event loop.
//!
//! A [`SimTelemetry`] attached to a [`Simulation`](crate::Simulation)
//! records, per processed event:
//!
//! * `sim.events` — total events handled (counter);
//! * `sim.queue_depth` — pending events after each handle (gauge);
//! * `sim.events_per_sec` — wall-clock throughput of the last
//!   `run_to_completion` (gauge);
//! * `sim.handle_us.<label>` — wall-clock handler latency per event
//!   type (histogram), where `<label>` comes from
//!   [`World::event_label`](crate::World::event_label).
//!
//! The tick-parallel path adds a profiler over the same registry:
//!
//! * `sim.tick.batch` — events per tick (histogram);
//! * `sim.tick.staged_parallel` / `sim.tick.staged_inline` — how many
//!   events the greedy prefix-independence selection sent to worker
//!   threads versus staged inline during apply (counters);
//! * `sim.tick.stage_worker_us` — per-worker wall-clock stage occupancy
//!   (histogram; one sample per worker per tick);
//! * `sim.tick.apply_us` — wall time of the serial apply pass per tick
//!   (histogram);
//! * `sim.shard.heat.<key>` — how often each footprint key appeared in
//!   a tick's conflict analysis (counters; the first
//!   [`HEAT_KEY_CAP`] distinct keys get their own series, the rest pool
//!   into `sim.shard.heat.other`).
//!
//! The counters and the final `sim.queue_depth` are a pure function of
//! the workload; wall-clock values (`sim.events_per_sec`, the latency
//! histograms and the profiler timings) are gated on the registry being
//! enabled and never feed back into the run.

use std::collections::HashMap;
use std::time::Instant;
use zmail_obs::{Counter, Gauge, Histogram, Registry};

/// Distinct footprint keys that get their own `sim.shard.heat.<key>`
/// series before further keys pool into `sim.shard.heat.other`.
pub const HEAT_KEY_CAP: usize = 64;

/// Telemetry sink for one [`Simulation`](crate::Simulation).
#[derive(Debug)]
pub struct SimTelemetry {
    registry: Registry,
    events: Counter,
    queue_depth: Gauge,
    events_per_sec: Gauge,
    /// Lazily created `sim.handle_us.<label>` histograms. Labels are
    /// `&'static str` so lookups never allocate.
    handle_us: HashMap<&'static str, Histogram>,
    tick_batch: Histogram,
    staged_parallel: Counter,
    staged_inline: Counter,
    stage_worker_us: Histogram,
    apply_us: Histogram,
    /// Lazily created per-footprint-key heat counters, capped at
    /// [`HEAT_KEY_CAP`] distinct keys.
    heat: HashMap<u64, Counter>,
    heat_other: Counter,
}

impl SimTelemetry {
    /// Creates a telemetry sink recording into `registry`.
    pub fn new(registry: &Registry) -> Self {
        SimTelemetry {
            registry: registry.clone(),
            events: registry.counter("sim.events"),
            queue_depth: registry.gauge("sim.queue_depth"),
            events_per_sec: registry.gauge("sim.events_per_sec"),
            handle_us: HashMap::new(),
            tick_batch: registry.histogram("sim.tick.batch"),
            staged_parallel: registry.counter("sim.tick.staged_parallel"),
            staged_inline: registry.counter("sim.tick.staged_inline"),
            stage_worker_us: registry.histogram("sim.tick.stage_worker_us"),
            apply_us: registry.histogram("sim.tick.apply_us"),
            heat: HashMap::new(),
            heat_other: registry.counter("sim.shard.heat.other"),
        }
    }

    /// Whether the registry is live — gates every wall-clock timing so
    /// a disabled sink costs nothing on the event and tick paths.
    #[inline]
    pub(crate) fn is_profiling(&self) -> bool {
        self.registry.is_enabled()
    }

    /// Called by the engine after a handler returns.
    #[inline]
    pub(crate) fn on_event_end(
        &mut self,
        label: &'static str,
        started: Option<Instant>,
        queue_len: usize,
    ) {
        self.events.inc();
        self.queue_depth.set(queue_len as i64);
        if let Some(started) = started {
            let hist = self
                .handle_us
                .entry(label)
                .or_insert_with(|| self.registry.histogram(&format!("sim.handle_us.{label}")));
            hist.record(started.elapsed().as_micros() as u64);
        }
    }

    /// Called by the engine once per tick on the tick-parallel path with
    /// the batch size and how many events staged on worker threads.
    #[inline]
    pub(crate) fn on_tick(&self, batch: usize, parallel: usize) {
        self.tick_batch.record(batch as u64);
        self.staged_parallel.add(parallel as u64);
        self.staged_inline.add((batch - parallel) as u64);
    }

    /// Called once per worker thread per tick with its wall-clock stage
    /// occupancy in microseconds.
    #[inline]
    pub(crate) fn on_stage_worker(&self, micros: u64) {
        self.stage_worker_us.record(micros);
    }

    /// Called once per tick with the wall time of the serial apply pass.
    #[inline]
    pub(crate) fn on_apply_pass(&self, micros: u64) {
        self.apply_us.record(micros);
    }

    /// Called for every footprint key the tick's conflict analysis saw;
    /// feeds the `sim.shard.heat.*` counters so hot shards stand out.
    #[inline]
    pub(crate) fn on_footprint_key(&mut self, key: u64) {
        if !self.registry.is_enabled() {
            return;
        }
        if let Some(c) = self.heat.get(&key) {
            c.inc();
        } else if self.heat.len() < HEAT_KEY_CAP {
            let c = self.registry.counter(&format!("sim.shard.heat.{key}"));
            c.inc();
            self.heat.insert(key, c);
        } else {
            self.heat_other.inc();
        }
    }

    /// Called by the engine at the end of a full run with the events
    /// handled and the wall time taken.
    pub(crate) fn on_run_complete(&self, handled: u64, wall: std::time::Duration) {
        let secs = wall.as_secs_f64();
        if secs > 0.0 {
            self.events_per_sec.set((handled as f64 / secs) as i64);
        }
    }
}
