//! First-party observability substrate for the Zmail reproduction.
//!
//! Zmail's correctness story is itself observational — the bank watches
//! per-peer `credit` counters to detect misbehaving ISPs (§4.4 of the
//! paper) — and the ROADMAP north-star ("as fast as the hardware
//! allows") demands knowing where time and e-pennies go. This crate is
//! the shared telemetry layer for all of it, with three parts:
//!
//! - **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`]):
//!   lock-free handles cheap enough for the SMTP receive loop and the
//!   parallel explorer's inner loop. A disabled registry costs one
//!   relaxed atomic load per site; [`Snapshot`]s are exact-equality
//!   integer captures that merge associatively across worker threads.
//! - **Causal spans** ([`FlightRecorder`]): per-message lifecycle trees
//!   — a [`TraceId`] minted at submission, parent/child [`SpanRecord`]s
//!   for queue wait, bank round-trips, WAL group-commit, delivery, and
//!   acks — with deterministic sequence ids, head-based `1/N` sampling,
//!   and [`attribute`] folding finished traces into `trace.phase.*`
//!   latency histograms.
//! - **Exporters** ([`export::human`], [`export::json_lines`],
//!   [`export::prometheus`], [`export::chrome_trace`]): pure renderings
//!   of snapshots and span logs. Identical snapshots render to
//!   identical bytes.
//!
//! The crate is deliberately dependency-free: it sits below every other
//! crate in the workspace and must build offline.
//!
//! # Example
//!
//! ```
//! use zmail_obs::{Registry, export};
//!
//! let registry = Registry::new();
//! let sends = registry.counter("core.transfers.local");
//! let latency = registry.histogram("smtp.parse_us");
//! sends.inc();
//! latency.record(17);
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters["core.transfers.local"], 1);
//! println!("{}", export::json_lines(&snap));
//! ```
//!
//! # The global registry
//!
//! Library-level instrumentation (ledger, SMTP server, sim engine)
//! records into [`global()`], which starts **disabled** so ordinary runs
//! pay only the relaxed-load guard. The bench harness enables it when a
//! binary is invoked with `--metrics`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
mod metrics;
mod span;

/// The one way this crate takes a lock: past poison. No foreign code runs
/// under the registry's or a recorder's lock, and what they guard is
/// telemetry: the worst a panic there can leave behind is a metric not
/// registered or a span missing from the log. An `expect` would instead
/// turn that one panic into one at every later registration, snapshot and
/// span — some of them under the gateway's ledger lock.
fn held<T>(guard: std::sync::LockResult<T>) -> T {
    guard.unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use metrics::{
    global, Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot, BUCKETS,
};
pub use span::{
    attribute, FlightRecorder, SpanCtx, SpanId, SpanLog, SpanRecord, SpanStatus, TraceId,
    TraceSummary,
};
