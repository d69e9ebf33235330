//! `store.*` metrics: durability-path telemetry in the global
//! `zmail-obs` registry.
//!
//! Latency samples come from wall-clock timers around storage calls,
//! which is fine precisely because metrics are observation-only: no
//! engine decision ever reads them, so timing jitter cannot leak into
//! recovered state or break simulation determinism. The registry starts
//! disabled, so instrumented paths cost one relaxed atomic load — and
//! read no clock — until a binary opts in.

use std::sync::OnceLock;
use zmail_obs::{Counter, Histogram};

/// Handle set for the `store` layer, registered once against
/// [`zmail_obs::global()`].
#[derive(Debug)]
pub struct StoreMetrics {
    /// Records appended to the WAL buffer (`store.appends`). This and
    /// the next three are exact but published in batches: each store
    /// tallies them and publishes every 64 commits, at every checkpoint
    /// and when it is dropped.
    pub appends: Counter,
    /// Group commits flushed to storage (`store.commits`).
    pub commits: Counter,
    /// WAL bytes written, framing included (`store.wal_bytes`).
    pub wal_bytes: Counter,
    /// Records per group commit (`store.batch_records`).
    pub batch_records: Histogram,
    /// Commit latency in µs, sync included, sampled: each store times
    /// one commit in 64 (`store.commit_micros`).
    pub commit_micros: Histogram,
    /// Checkpoints written (`store.checkpoints`).
    pub checkpoints: Counter,
    /// Bytes per checkpoint image (`store.checkpoint_bytes`).
    pub checkpoint_bytes: Histogram,
    /// WAL bytes the backend freed behind the older image
    /// (`store.wal_released_bytes`): [`crate::Storage::released`]'s
    /// growth at each image, 0 on a backend that frees nothing.
    pub wal_released_bytes: Counter,
    /// Recovery passes executed (`store.recoveries`).
    pub recoveries: Counter,
    /// WAL records replayed per recovery (`store.replayed_records`).
    pub replayed_records: Histogram,
    /// Torn tails truncated during recovery (`store.torn_tails`).
    pub torn_tails: Counter,
    /// Checkpoint slots rejected by checksum (`store.corrupt_slots`).
    pub corrupt_slots: Counter,
}

impl StoreMetrics {
    /// The process-wide handle set, created on first use against the
    /// global registry.
    pub fn get() -> &'static StoreMetrics {
        static METRICS: OnceLock<StoreMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let r = zmail_obs::global();
            StoreMetrics {
                appends: r.counter("store.appends"),
                commits: r.counter("store.commits"),
                wal_bytes: r.counter("store.wal_bytes"),
                batch_records: r.histogram("store.batch_records"),
                commit_micros: r.histogram("store.commit_micros"),
                checkpoints: r.counter("store.checkpoints"),
                checkpoint_bytes: r.histogram("store.checkpoint_bytes"),
                wal_released_bytes: r.counter("store.wal_released_bytes"),
                recoveries: r.counter("store.recoveries"),
                replayed_records: r.histogram("store.replayed_records"),
                torn_tails: r.counter("store.torn_tails"),
                corrupt_slots: r.counter("store.corrupt_slots"),
            }
        })
    }
}

/// One store's share of the per-record metrics, tallied in plain
/// fields and published to the registry in batches.
///
/// At a commit per record, eight atomic updates per record (three
/// counters and a five-word histogram sample) cost more than the append
/// they count. The totals stay exact — nothing is sampled or dropped —
/// but reach the registry when the owning store publishes: every
/// [`Tally::PUBLISH_EVERY`] commits, at every checkpoint, and when the
/// store is dropped. In between, the registry is at most that many
/// commits behind a live store.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    appends: u64,
    commits: u64,
    wal_bytes: u64,
    /// `store.batch_records` samples not yet published: `[n]` commits
    /// of `n` records each, for the few records an event journals (a
    /// larger batch is recorded as it commits).
    batches: [u64; 8],
}

impl Tally {
    /// Most commits tallied before the store publishes (so also how
    /// often a commit is timed for `store.commit_micros`).
    pub(crate) const PUBLISH_EVERY: u64 = 64;

    /// Whether the next commit is the one that must publish.
    #[inline]
    pub(crate) fn publish_due(&self) -> bool {
        self.commits + 1 >= Self::PUBLISH_EVERY
    }

    /// One record appended to the WAL buffer.
    #[inline]
    pub(crate) fn append(&mut self) {
        self.appends += 1;
    }

    /// One group commit of `records` records in `bytes` framed bytes.
    #[inline]
    pub(crate) fn commit(&mut self, records: u64, bytes: u64) {
        self.commits += 1;
        self.wal_bytes += bytes;
        match self.batches.get_mut(records as usize) {
            Some(commits) => *commits += 1,
            None => StoreMetrics::get().batch_records.record(records),
        }
    }

    /// Moves everything tallied so far into the registry (where, like
    /// any update, it is discarded while the registry is off).
    pub(crate) fn publish(&mut self) {
        let m = StoreMetrics::get();
        m.appends.add(std::mem::take(&mut self.appends));
        m.commits.add(std::mem::take(&mut self.commits));
        m.wal_bytes.add(std::mem::take(&mut self.wal_bytes));
        for (records, commits) in std::mem::take(&mut self.batches).into_iter().enumerate() {
            m.batch_records.record_n(records as u64, commits);
        }
    }
}

impl Drop for Tally {
    fn drop(&mut self) {
        self.publish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_registered_once() {
        let a = StoreMetrics::get();
        let b = StoreMetrics::get();
        assert!(std::ptr::eq(a, b));
        let snap = zmail_obs::global().snapshot();
        assert!(snap.counters.contains_key("store.appends"));
        assert!(snap.histograms.contains_key("store.commit_micros"));
    }
}
