//! The Zmail protocol: zero-sum, free-market control of spam.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Kuipers, Liu, Gautam & Gouda, *Zmail: Zero-Sum Free Market Control of
//! Spam*, ICDCS 2005). Zmail charges the sender of every email one
//! *e-penny* which is paid **to the receiver** — not to any intermediary —
//! making every completed transfer zero-sum. Accounting happens between
//! *compliant ISPs* and a central *bank*; end users keep using plain SMTP.
//!
//! # Architecture
//!
//! * [`ids`] / [`config`] — identifiers, protocol parameters, and the
//!   receive-side policy for mail from non-compliant ISPs;
//! * [`msg`] — the inter-ISP / ISP-bank message alphabet (§4 of the paper);
//! * [`isp`] — the compliant ISP process: per-user `balance`, `account`,
//!   `sent`, `limit`; the per-peer `credit` ledger; buy/sell exchanges with
//!   the bank; snapshot freeze/flush (§4.1–4.3);
//! * [`bank`] — the bank process: ISP accounts, e-penny issuance, credit
//!   snapshot gathering and pairwise consistency verification (§4.3–4.4);
//! * [`system`] — a discrete-event harness wiring `n` ISPs, the bank, a
//!   latency-modelled network, and a workload trace into a runnable world
//!   with full metrics;
//! * [`invariants`] — the conservation and consistency auditors;
//! * [`metrics`] — ledger-layer counters recorded into the global
//!   `zmail-obs` registry (disabled by default; the bench harness's
//!   `--metrics` flag turns them on);
//! * [`mailinglist`] — the §5 acknowledgment-refund mechanism for mailing
//!   lists, including stale-subscriber pruning;
//! * [`massive`] — population-scale runs (1M+ users) over the sharded
//!   durable ledger with tick-parallel execution (experiment E17);
//! * [`zombie`] — analysis of the §5 daily-limit defence against zombified
//!   PCs;
//! * [`spec`] — a literal Abstract-Protocol-notation encoding of the
//!   paper's formal specification, machine-checked with `zmail-ap`;
//! * [`bridge`] — Zmail as a [`zmail_smtp`] `MailSink`: the deployment
//!   story over unmodified SMTP;
//! * [`backpressure`] — a bounded admission queue with a group-committed
//!   durable spool in front of any `MailSink`, so overload is shed with
//!   transient SMTP replies instead of unbounded queueing (experiment
//!   E21).
//!
//! # Example
//!
//! ```rust
//! use zmail_core::{ZmailConfig, ZmailSystem};
//! use zmail_sim::{SimDuration, TrafficConfig, TrafficGenerator, Sampler};
//!
//! // Two compliant ISPs, 10 users each, one simulated day of traffic.
//! let config = ZmailConfig::builder(2, 10).build();
//! let traffic = TrafficConfig {
//!     isps: 2,
//!     users_per_isp: 10,
//!     horizon: SimDuration::from_days(1),
//!     ..TrafficConfig::default()
//! };
//! let trace = TrafficGenerator::new(traffic).generate(&mut Sampler::new(7));
//! let mut system = ZmailSystem::new(config, 42);
//! let report = system.run_trace(&trace);
//! assert_eq!(report.delivered_total(), report.paid_deliveries);
//! system.audit().expect("e-penny conservation holds");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
pub mod backpressure;
pub mod bank;
pub mod bridge;
pub mod config;
pub mod ids;
pub mod invariants;
pub mod isp;
pub mod mailinglist;
pub mod massive;
pub mod metrics;
pub mod msg;
pub mod multibank;
pub mod spec;
pub mod spec_bank;
pub mod system;
pub mod zombie;

pub use backpressure::{AdmissionConfig, AdmissionStats, BackpressureSink};
pub use bank::{Bank, ConsistencyReport};
pub use config::{
    AttestWeakness, CheatMode, DurabilityConfig, NonCompliantPolicy, ZmailConfig,
    ZmailConfigBuilder,
};
pub use ids::IspId;
pub use invariants::AuditError;
pub use isp::{Delivery, Isp, RefusalCause, SendError, SendOutcome};
pub use mailinglist::{ListConfig, ListServer, PostReport};
pub use massive::{
    run_massive, run_massive_checked, run_massive_traced, MassiveConfig, MassiveEvent,
    MassiveReport, MassiveWorld,
};
pub use msg::{EmailMsg, Exchange, NetMsg};
pub use multibank::{FederatedRound, Federation};
pub use system::{RecoveryEvent, RunReport, ZmailSystem};
pub use zombie::{ZombieAnalysis, ZombieIncident};

/// The paper's user address type, re-exported from the workload model.
pub use zmail_sim::workload::UserAddr;
