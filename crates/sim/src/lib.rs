//! Discrete-event simulation substrate for the Zmail reproduction.
//!
//! The Zmail paper makes economic and protocol claims about populations of
//! email users, spammers, ISPs, and a bank. It was never deployed; its
//! evaluation is by argument. To *measure* those arguments we need a world
//! to run them in, and this crate is that world's foundation:
//!
//! * [`clock`] — virtual time ([`SimTime`], [`SimDuration`]) with the
//!   calendar units the protocol cares about (the paper resets `sent`
//!   daily and reconciles credit monthly);
//! * [`event`] — a deterministic event queue with stable FIFO tie-breaking;
//! * [`engine`] — a minimal simulation driver over a user-defined world;
//! * [`racecheck`] — a footprint race detector for the [`ParallelWorld`]
//!   contract: [`CheckedWorld`] records actual per-event key accesses and
//!   diffs them against declared footprints, emitting stable findings
//!   SIM001–SIM006;
//! * [`shrink`] — generic Zeller–Hildebrandt `ddmin` delta debugging,
//!   shared by racecheck's schedule shrinker and `zmail-fault`'s plan
//!   shrinker;
//! * [`rng`] — seeded random sampling: exponential inter-arrival times,
//!   Poisson counts, Zipf popularity, Bernoulli trials — implemented here so
//!   the only external randomness dependency stays `rand`;
//! * [`stats`] — streaming summaries, exact quantiles, and an
//!   aligned-table printer used by every experiment binary;
//! * [`telemetry`] — an optional [`SimTelemetry`] sink wiring the engine
//!   into `zmail-obs`: event counts, queue depth, and per-event-type
//!   handler latency;
//! * [`workload`] — email traffic models: normal users, spammers,
//!   newsletters, mailing lists, and virus/zombie outbreaks.
//!
//! # Example
//!
//! ```rust
//! use zmail_sim::{SimTime, SimDuration, EventQueue};
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::ZERO + SimDuration::from_secs(5), "world");
//! queue.schedule(SimTime::ZERO + SimDuration::from_secs(1), "hello");
//! let (t1, e1) = queue.pop().unwrap();
//! assert_eq!((t1.as_secs(), e1), (1, "hello"));
//! let (t2, e2) = queue.pop().unwrap();
//! assert_eq!((t2.as_secs(), e2), (5, "world"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod engine;
pub mod event;
pub mod racecheck;
pub mod rng;
pub mod shrink;
pub mod stats;
pub mod telemetry;
pub mod workload;

pub use clock::{SimDuration, SimTime};
pub use engine::{ParallelWorld, Scheduler, Simulation, World};
pub use event::EventQueue;
pub use racecheck::{
    AccessLog, AccessRecorder, CheckedWorld, Finding, RacecheckReport, RecordedWorld, SimCode,
};
pub use rng::Sampler;
pub use shrink::{ddmin, DdminOutcome};
pub use stats::{Quantiles, Summary, Table};
pub use telemetry::SimTelemetry;
pub use workload::{MailKind, SendEvent, TrafficConfig, TrafficGenerator, UserAddr};
