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
//! [`Simulation::step_tick`](crate::Simulation::step_tick) adds two
//! per-tick histograms over the same registry:
//!
//! * `sim.tick.batch` — events per tick;
//! * `sim.tick.apply_us` — wall time of the tick's events.
//!
//! The counters and the final `sim.queue_depth` are a pure function of
//! the workload; wall-clock values (`sim.events_per_sec`, the latency
//! histograms and the per-tick timings) are gated on the registry being
//! enabled and never feed back into the run.

use std::collections::HashMap;
use std::time::Instant;
use zmail_obs::{Counter, Gauge, Histogram, Registry};

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
    apply_us: Histogram,
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
            apply_us: registry.histogram("sim.tick.apply_us"),
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

    /// Called by [`Simulation::step_tick`](crate::Simulation::step_tick)
    /// once per tick with the batch size.
    #[inline]
    pub(crate) fn on_tick(&self, batch: usize) {
        self.tick_batch.record(batch as u64);
    }

    /// Called once per tick with the wall time of its events.
    #[inline]
    pub(crate) fn on_apply_pass(&self, micros: u64) {
        self.apply_us.record(micros);
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
