//! Durable books for the Zmail economy: a checksummed write-ahead log,
//! dual-slot checkpoints, and crash-consistent recovery.
//!
//! The paper's whole zero-sum argument (§4) ranges over ledgers — user
//! `balance`/`account`/`limit`, ISP pools, per-peer `credit`, bank
//! accounts and outstanding issue — and is only credible if those
//! ledgers outlive the processes keeping them. This crate is that
//! persistence layer:
//!
//! * [`LedgerRecord`] — one typed entry per book mutation, with a fixed
//!   little-endian wire form.
//! * [`Books`] — the durable state itself, plus [`Books::apply`], the
//!   single replay function checkpoints and recovery fold over.
//! * [`wal`] — length+CRC framing and the tail scan: a torn or corrupt
//!   suffix is detected and truncated, never silently applied.
//! * [`Checkpoint`] — alternating-slot full-state images bounding
//!   replay; a crash mid-checkpoint can only lose the slot being
//!   written.
//! * [`LedgerStore`] — the engine: group-commit batching
//!   ([`StoreConfig::batch_records`]), auto-checkpointing, and
//!   [`LedgerStore::simulate_recovery`], the pure what-would-a-restart-
//!   see pass the fault harness audits against live state.
//! * [`Storage`] — the pluggable backend: [`MemStorage`] keeps the
//!   simulator deterministic, [`FileStorage`] backs the bench bins, and
//!   `zmail-fault`'s `FaultyStorage` wraps either to model torn writes
//!   and lost un-synced bytes.
//!
//! Recovery is a pure function of the backend's bytes — no clocks, no
//! randomness — so under a fixed fault plan and seed the whole
//! crash-recover-audit cycle replays byte-identically. Telemetry goes
//! through [`StoreMetrics`] into the global `zmail-obs` registry under
//! the `store.*` namespace.
//!
//! ```rust
//! use zmail_store::{Books, IspBooks, LedgerRecord, LedgerStore, MemStorage, StoreConfig};
//!
//! let bootstrap = Books {
//!     isps: vec![IspBooks {
//!         users: Vec::new(),
//!         avail: 5_000,
//!         credit: vec![0],
//!         nonces: Vec::new(),
//!     }],
//!     banks: Vec::new(),
//! };
//! let (mut store, _) = LedgerStore::open(MemStorage::new(), StoreConfig::default(), bootstrap);
//! store.append(&LedgerRecord::PoolBuy { isp: 0, amount: 500 });
//! store.commit();
//! let (recovered, report) = store.simulate_recovery();
//! assert_eq!(&recovered, store.books());
//! assert_eq!(report.replayed_records, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod books;
pub mod checkpoint;
pub mod engine;
pub mod metrics;
pub mod record;
pub mod shard;
pub mod storage;
pub mod wal;

pub use books::{BankBooks, Books, IspBooks, SendError, UserBooks};
pub use checkpoint::Checkpoint;
pub use engine::{LedgerStore, RecoveryReport, StoreConfig, WAL};
pub use metrics::StoreMetrics;
pub use record::{LedgerRecord, XferKind, XferLeg};
pub use shard::{
    stable_account_hash, ShardMap, ShardMetrics, ShardRecoveryReport, ShardedLedgerStore,
};
pub use storage::{FileStorage, MemStorage, Storage};
