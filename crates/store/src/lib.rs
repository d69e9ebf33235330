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
//! * [`Books`] — the durable state itself, plus `Books::try_apply`, the
//!   single replay function checkpoints and recovery fold over, and its
//!   one refusal rule: a record that names a row the books do not hold,
//!   or would take a sum past its range, does not fit.
//! * [`Ledger`] — what the protocol is lent: row reads (a user, an ISP's
//!   pool row, a bank) and [`Ledger::try_commit`], which commits a record
//!   only if replay would apply it and otherwise answers [`Refused`].
//!   [`Books`] is the volatile ledger and [`ShardedLedgerStore`] the
//!   durable one, at any shard count.
//! * [`wal`] — length+CRC framing and the tail scan: a torn or corrupt
//!   suffix is detected and truncated, never silently applied, and so is
//!   a checksummed record that names a row the books do not hold.
//! * [`Checkpoint`] — alternating-slot full-state images bounding
//!   replay; a crash mid-checkpoint can only lose the slot being
//!   written.
//! * [`ShardedLedgerStore`] — the store: accounts hashed over N
//!   [`LedgerStore`] engines (group commit per
//!   [`StoreConfig::batch_records`], auto-checkpointing), two-phase
//!   cross-shard transfers, and [`ShardedLedgerStore::simulate_recovery`],
//!   the pure what-would-a-restart-see pass the fault harness audits
//!   against live state. One shard writes the bytes one engine would.
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
//! use zmail_store::{Books, IspBooks, Ledger, LedgerRecord, MemStorage, ShardedLedgerStore, StoreConfig};
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
//! let disk = vec![MemStorage::new()];
//! let (mut store, _) = ShardedLedgerStore::open(disk, StoreConfig::default(), bootstrap);
//! store.commit(LedgerRecord::PoolBuy { isp: 0, amount: 500 });
//! store.commit_all();
//! assert_eq!(store.pool(0).avail, 5_500);
//! let (recovered, report) = store.simulate_recovery();
//! assert_eq!(recovered, store.books());
//! assert_eq!(report.replayed_records(), 1);
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

pub use books::{BankBooks, Books, IspBooks, Ledger, PoolRow, Refused, SendError, UserBooks};
pub use checkpoint::Checkpoint;
pub use engine::{LedgerStore, RecoveryReport, StoreConfig, WAL};
pub use metrics::StoreMetrics;
pub use record::{LedgerRecord, XferKind, XferLeg};
pub use shard::{
    stable_account_hash, ShardMap, ShardMetrics, ShardRecoveryReport, ShardedLedgerStore,
};
pub use storage::{FileStorage, MemStorage, Storage};
