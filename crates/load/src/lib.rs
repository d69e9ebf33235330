//! # zmail-load — open-loop SMTP load generation
//!
//! A seeded, deterministic-config load generator for driving the Zmail
//! SMTP front door ([`zmail_smtp::ThreadedServer`]) at and beyond its
//! capacity, and measuring what actually happens there.
//!
//! The crate is three small layers:
//!
//! * [`spec`] — a declarative workload description
//!   ([`WorkloadSpec`], a plain struct callers build literally) that
//!   pins *everything* about a run: seed, rate, duration, arrival
//!   process, population sizes and Zipf skew, worker/connection fan-out.
//! * [`arrival`] — turns a spec into a concrete
//!   [`ScheduledSend`] schedule, generated up front and
//!   single-threaded so the bytes are identical across runs and across
//!   worker-thread counts. Poisson and bursty (square-wave-modulated)
//!   processes, Zipf-weighted sender/recipient popularity.
//! * [`runner`] — executes the schedule **open-loop** over per-worker
//!   connection pools and produces a [`LoadReport`]: outcome counters
//!   (`250`/`452`/`421`/`552`/no-reply), coordinated-omission-safe
//!   latency (measured from the *scheduled* send instant), and the
//!   acked-seq list for conservation audits against [`SeqAuditSink`].
//!
//! Open-loop means the generator keeps offering load on schedule even
//! when the server slows down — overload becomes visible as shed counts
//! and growing tails instead of silently throttled offered load. See
//! `crates/load/README.md` and experiment E21 for the methodology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod audit;
pub mod runner;
pub mod spec;

pub use arrival::{partition, schedule, ScheduledSend};
pub use audit::SeqAuditSink;
pub use runner::{run, LoadReport, HEADER_LOAD_SEQ};
pub use spec::{ArrivalKind, BurstSpec, SpecError, WorkloadSpec};
