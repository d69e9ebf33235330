//! The ledger engine: group-committed WAL appends, periodic
//! checkpoints, and the recovery path that stitches them back together.
//!
//! A [`LedgerStore`] owns a [`Storage`] backend holding three blobs:
//! the `wal` plus the two checkpoint slots. The write path is
//! *journal-before-state at commit granularity*: [`LedgerStore::append`]
//! buffers the framed record and applies it to the in-engine [`Books`];
//! [`LedgerStore::commit`] flushes the whole batch with one
//! append+sync. After any commit returns, recovery from the backend
//! reproduces the engine's books exactly; records appended but not yet
//! committed are the window a crash may lose.
//!
//! # When a checkpoint is due
//!
//! A checkpoint trades a write of the whole books image now for a
//! shorter replay later, so [`LedgerStore::commit`] writes one only when
//! it pays for itself. Both must hold:
//!
//! * at least `checkpoint_every` records were committed since the image
//!   recovery would start from, and
//! * the WAL has grown, since that image's `wal_offset`, by at least the
//!   length of the slot the checkpoint would write.
//!
//! The second term bounds the write side: every automatic image is paid
//! for by at least as many log bytes, so checkpoint bytes never exceed
//! WAL bytes (write amplification ≤ 2) however large the books grow
//! against `checkpoint_every` — plus at most one image when recovery
//! had to fall back to the older slot, which moves the mark back.
//! Together they bound the read side: the tail recovery replays is at
//! most max(`checkpoint_every` records, one image's worth of log), plus
//! the one batch a crash can land between a commit's sync and its
//! image's — O(state), whatever the log's length. Both counters are
//! restored by `open` from what recovery replayed, so the bounds hold
//! across restarts, not per process. [`LedgerStore::checkpoint`] is
//! unconditional.
//!
//! # Recovery
//!
//! Recovery ([`LedgerStore::open`], [`LedgerStore::simulate_recovery`])
//! reads both checkpoint slots, keeps the highest-sequence one that
//! passes its checksum, reads the WAL from that checkpoint's
//! `wal_offset` on ([`Storage::read_from`] — the covered prefix is
//! neither copied nor walked), replays it, and truncates anything the
//! frame scan rejects. The whole path is a pure function of the
//! backend's bytes — no clocks, no randomness — so a fixed plan+seed
//! recovers byte-identically every run.

use crate::books::Books;
use crate::checkpoint::{self, Checkpoint, VerifiedSlot, SLOTS};
use crate::metrics::{StoreMetrics, Tally};
use crate::record::LedgerRecord;
use crate::storage::Storage;
use crate::wal;
use std::cmp::Reverse;
use std::time::Instant;

/// Name of the WAL blob in the backend.
pub const WAL: &str = "wal";

/// Tuning knobs for the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Records per group commit: `append` auto-commits once this many
    /// are buffered. 1 means commit-per-record (every applied record is
    /// durable before the next); larger batches trade the loss window
    /// for fewer syncs, and `usize::MAX` leaves every commit to the caller.
    pub batch_records: usize,
    /// The least number of committed records between two automatic
    /// checkpoints — a floor on their spacing, not a period. The other
    /// half of "due" is that the WAL has grown by at least the image a
    /// checkpoint would write (see the [module docs](self)), so with
    /// books larger than `checkpoint_every` records of log, images are
    /// spaced by their own size instead. `u64::MAX` turns automatic
    /// checkpoints off.
    pub checkpoint_every: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            batch_records: 1,
            checkpoint_every: 1024,
        }
    }
}

/// What one recovery pass found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence of the checkpoint recovered from, if any slot was valid.
    pub checkpoint_seq: Option<u64>,
    /// Checkpoint slots present but rejected by checksum/format.
    pub corrupt_slots: u32,
    /// WAL records replayed on top of the checkpoint.
    pub replayed_records: u64,
    /// Whether the WAL carried a torn or corrupt tail.
    pub torn_tail: bool,
    /// Bytes of tail dropped (truncated by [`LedgerStore::open`],
    /// merely skipped by [`LedgerStore::simulate_recovery`]).
    pub truncated_bytes: u64,
    /// Valid WAL bytes after recovery.
    pub wal_bytes: u64,
}

/// A durable ledger over a pluggable backend.
#[derive(Debug)]
pub struct LedgerStore<S: Storage> {
    storage: S,
    config: StoreConfig,
    initial: Books,
    books: Books,
    pending: Vec<u8>,
    pending_records: usize,
    wal_len: u64,
    appended: u64,
    commits: u64,
    ckpt_seq: u64,
    /// Records committed since the image recovery would start from.
    since_checkpoint: u64,
    /// WAL length that image covers (its `wal_offset`; 0 without one).
    checkpointed_len: u64,
    tally: Tally,
}

/// Visitor handed every record of a shard's valid log, in log order.
pub(crate) type Observer<'a> = &'a mut dyn FnMut(&LedgerRecord);

impl<S: Storage> LedgerStore<S> {
    /// Opens a store, running recovery against whatever the backend
    /// holds. `initial` is the deployment's bootstrap books, used when
    /// no checkpoint exists yet (a fresh backend replays the entire WAL
    /// on top of it). A torn WAL tail is truncated in the backend so
    /// subsequent appends extend the valid prefix.
    pub fn open(storage: S, config: StoreConfig, initial: Books) -> (Self, RecoveryReport) {
        Self::open_observed(storage, config, initial, None)
    }

    /// [`LedgerStore::open`], with `observe` shown the whole valid log
    /// (not just the replayed tail) in the same pass — what the sharded
    /// engine's in-doubt transfer collector needs.
    pub(crate) fn open_observed(
        storage: S,
        config: StoreConfig,
        initial: Books,
        observe: Option<Observer<'_>>,
    ) -> (Self, RecoveryReport) {
        let mut store = LedgerStore {
            storage,
            config,
            initial,
            books: Books::default(),
            pending: Vec::new(),
            pending_records: 0,
            wal_len: 0,
            appended: 0,
            commits: 0,
            ckpt_seq: 0,
            since_checkpoint: 0,
            checkpointed_len: 0,
            tally: Tally::default(),
        };
        let Recovered {
            books,
            report,
            next_seq,
            replayed_from,
        } = recover(&store.storage, &store.initial, observe);
        if report.truncated_bytes > 0 {
            store.storage.truncate(WAL, report.wal_bytes);
        }
        store.books = books;
        store.wal_len = report.wal_bytes;
        store.ckpt_seq = next_seq;
        // The replayed tail is checkpoint debt this incarnation inherits:
        // a process that restarts before appending `checkpoint_every`
        // records of its own must still get to write an image.
        store.since_checkpoint = report.replayed_records;
        store.checkpointed_len = replayed_from.min(report.wal_bytes);
        StoreMetrics::get().recoveries.inc();
        StoreMetrics::get()
            .replayed_records
            .record(report.replayed_records);
        if report.torn_tail {
            StoreMetrics::get().torn_tails.inc();
        }
        StoreMetrics::get()
            .corrupt_slots
            .add(u64::from(report.corrupt_slots));
        (store, report)
    }

    /// Journals one record and applies it to the engine's books.
    /// Auto-commits when the batch reaches `config.batch_records`.
    pub fn append(&mut self, rec: &LedgerRecord) {
        wal::encode_frame_with(&mut self.pending, |payload| rec.encode_into(payload));
        self.books.apply(rec);
        self.appended += 1;
        self.pending_records += 1;
        self.tally.append();
        if self.pending_records >= self.config.batch_records.max(1) {
            self.commit();
        }
    }

    /// Flushes the buffered batch with one backend append+sync (the
    /// group commit), then checkpoints if one is due (see the
    /// [module docs](self)). A no-op when nothing is buffered.
    pub fn commit(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.flush_batch();
        if self.checkpoint_due() {
            self.write_checkpoint();
        }
    }

    /// Whether an image written now would pay for itself: enough records
    /// since the last one, and at least its own length of log to skip.
    fn checkpoint_due(&self) -> bool {
        self.since_checkpoint >= self.config.checkpoint_every
            && self.wal_len - self.checkpointed_len >= checkpoint::slot_len(&self.books) as u64
    }

    /// Forces a checkpoint now: commits any buffered records, then
    /// writes the full books image to the next slot.
    pub fn checkpoint(&mut self) {
        self.flush_batch();
        self.write_checkpoint();
    }

    fn flush_batch(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        // One commit in `PUBLISH_EVERY` is timed (at a commit per record,
        // two clock reads cost more than the append between them) and
        // publishes the tallies.
        let sampled = self.tally.publish_due();
        let timer = (sampled && zmail_obs::global().is_enabled()).then(Instant::now);
        self.storage.append(WAL, &self.pending);
        self.storage.sync(WAL);
        self.wal_len += self.pending.len() as u64;
        self.commits += 1;
        self.since_checkpoint += self.pending_records as u64;
        self.tally
            .commit(self.pending_records as u64, self.pending.len() as u64);
        if sampled {
            if let Some(start) = timer {
                StoreMetrics::get()
                    .commit_micros
                    .record_duration(start.elapsed());
            }
            self.tally.publish();
        }
        self.pending.clear();
        self.pending_records = 0;
    }

    fn write_checkpoint(&mut self) {
        let slot = checkpoint::slot_for(self.ckpt_seq);
        let bytes = checkpoint::encode_slot(self.ckpt_seq, self.wal_len, &self.books);
        self.storage.write(slot, &bytes);
        self.storage.sync(slot);
        self.ckpt_seq += 1;
        self.since_checkpoint = 0;
        self.checkpointed_len = self.wal_len;
        self.tally.publish();
        let m = StoreMetrics::get();
        m.checkpoints.inc();
        m.checkpoint_bytes.record(bytes.len() as u64);
    }

    /// Runs the real recovery path against the backend's current bytes
    /// without mutating anything: what a restart *right now* would
    /// reconstruct. Uncommitted (buffered) records are invisible to it,
    /// exactly as they would be to a crash.
    pub fn simulate_recovery(&self) -> (Books, RecoveryReport) {
        self.simulate_recovery_observed(None)
    }

    /// [`LedgerStore::simulate_recovery`], with `observe` shown the whole
    /// valid log in the same pass.
    pub(crate) fn simulate_recovery_observed(
        &self,
        observe: Option<Observer<'_>>,
    ) -> (Books, RecoveryReport) {
        let recovered = recover(&self.storage, &self.initial, observe);
        (recovered.books, recovered.report)
    }

    /// The engine's live books (checkpoint image source).
    pub fn books(&self) -> &Books {
        &self.books
    }

    /// Total records appended through this handle.
    pub fn records_appended(&self) -> u64 {
        self.appended
    }

    /// Group commits (one WAL append+sync each) through this handle.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Records buffered but not yet committed.
    pub fn pending_records(&self) -> usize {
        self.pending_records
    }

    /// Valid WAL bytes (committed frames only).
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }

    /// Sequence the next checkpoint will carry.
    pub fn next_checkpoint_seq(&self) -> u64 {
        self.ckpt_seq
    }

    /// Read access to the backend.
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// Mutable access to the backend (fault injection hooks).
    pub fn storage_mut(&mut self) -> &mut S {
        &mut self.storage
    }

    /// Consumes the store, returning the backend.
    pub fn into_storage(self) -> S {
        self.storage
    }
}

/// The newest checkpoint the backend holds, and how many present slots
/// were rejected. Every present slot has its CRC, magic and length
/// verified; the books payload is decoded newest slot first, and only
/// until one decodes.
fn load_checkpoint<S: Storage>(storage: &S) -> (Option<Checkpoint>, u32) {
    let images = SLOTS.map(|slot| storage.read(slot));
    let mut corrupt_slots = 0;
    let mut verified = Vec::with_capacity(SLOTS.len());
    for bytes in images.iter().filter(|bytes| !bytes.is_empty()) {
        match VerifiedSlot::of(bytes) {
            Some(slot) => verified.push(slot),
            None => corrupt_slots += 1,
        }
    }
    verified.sort_by_key(|slot| Reverse(slot.seq));
    for slot in verified {
        match slot.decode() {
            Some(ckpt) => return (Some(ckpt), corrupt_slots),
            None => corrupt_slots += 1,
        }
    }
    (None, corrupt_slots)
}

/// Hands `visit` every record framed in `bytes` from offset `from` on
/// and returns the offset of the first frame the WAL scan rejects or
/// whose checksum-valid payload is not a record (the end of `bytes` if
/// there is none): nothing from there on can be trusted.
fn walk(bytes: &[u8], from: u64, mut visit: impl FnMut(&LedgerRecord)) -> u64 {
    let mut frames = wal::Frames::new(bytes, from);
    for (offset, payload) in frames.by_ref() {
        match LedgerRecord::decode(payload) {
            Some(rec) => visit(&rec),
            None => return offset,
        }
    }
    frames.offset()
}

/// What [`recover`] reconstructed.
struct Recovered {
    books: Books,
    report: RecoveryReport,
    /// Sequence the next checkpoint will carry.
    next_seq: u64,
    /// WAL offset the replay started at: the recovered checkpoint's
    /// `wal_offset`, 0 without one.
    replayed_from: u64,
}

/// The shared recovery pass: pure over the backend's bytes.
///
/// Replay starts at the checkpoint's `wal_offset`, and without an
/// observer that is also where the read starts: the log before it is
/// neither copied out of the backend nor walked. An `observe`r needs the
/// whole valid log, so for it the WAL is read from 0 and the frames
/// before the checkpoint are walked first, each frame still checksummed
/// and decoded once.
fn recover<S: Storage>(
    storage: &S,
    initial: &Books,
    mut observe: Option<Observer<'_>>,
) -> Recovered {
    let (best, corrupt_slots) = load_checkpoint(storage);
    let (mut books, replayed_from, checkpoint_seq, next_seq) = match best {
        Some(ckpt) => (ckpt.books, ckpt.wal_offset, Some(ckpt.seq), ckpt.seq + 1),
        None => (initial.clone(), 0, None, 0),
    };
    // `wal_bytes` is the log from `base` on; every offset below is
    // relative to it until the report is written.
    let base = match observe {
        Some(_) => 0,
        None => replayed_from.min(storage.len(WAL)),
    };
    let wal_bytes = storage.read_from(WAL, base);
    let from = (replayed_from - base).min(wal_bytes.len() as u64);
    let observed = match observe.as_deref_mut() {
        Some(observe) => walk(&wal_bytes[..from as usize], 0, observe),
        None => from,
    };
    // The observer joins the replay only if its own walk arrived where
    // the replay starts.
    let mut joined = if observed == from {
        observe.take()
    } else {
        None
    };
    let mut replayed = 0u64;
    let valid_len = walk(&wal_bytes, from, |rec| {
        books.apply(rec);
        replayed += 1;
        if let Some(observe) = joined.as_deref_mut() {
            observe(rec);
        }
    });
    if let Some(observe) = observe {
        // Damage in the old log: the observer goes on alone from where
        // it stopped, within what the replay found valid.
        walk(&wal_bytes[..valid_len as usize], observed, observe);
    }
    let report = RecoveryReport {
        checkpoint_seq,
        corrupt_slots,
        replayed_records: replayed,
        torn_tail: valid_len < wal_bytes.len() as u64,
        truncated_bytes: wal_bytes.len() as u64 - valid_len,
        wal_bytes: base + valid_len,
    };
    Recovered {
        books,
        report,
        next_seq,
        replayed_from,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::books::{BankBooks, IspBooks, UserBooks};
    use crate::storage::MemStorage;

    fn bootstrap() -> Books {
        Books {
            isps: vec![IspBooks {
                users: vec![
                    UserBooks {
                        account: 1_000,
                        balance: 100,
                        sent_today: 0,
                        limit: 100,
                    };
                    2
                ],
                avail: 5_000,
                credit: vec![0],
                nonces: Vec::new(),
            }],
            banks: vec![BankBooks {
                accounts: vec![1_000_000],
                issued: 0,
            }],
        }
    }

    fn records(n: usize) -> Vec<LedgerRecord> {
        (0..n)
            .map(|i| match i % 3 {
                0 => LedgerRecord::Charge {
                    isp: 0,
                    user: (i % 2) as u32,
                },
                1 => LedgerRecord::Deposit {
                    isp: 0,
                    user: ((i + 1) % 2) as u32,
                },
                _ => LedgerRecord::CreditDelta {
                    isp: 0,
                    peer: 0,
                    delta: 1,
                },
            })
            .collect()
    }

    #[test]
    fn fresh_store_starts_from_bootstrap() {
        let (store, report) =
            LedgerStore::open(MemStorage::new(), StoreConfig::default(), bootstrap());
        assert_eq!(store.books(), &bootstrap());
        assert_eq!(report, RecoveryReport::default());
    }

    #[test]
    fn committed_records_survive_reopen() {
        let cfg = StoreConfig {
            batch_records: 4,
            ..StoreConfig::default()
        };
        let (mut store, _) = LedgerStore::open(MemStorage::new(), cfg, bootstrap());
        for rec in records(10) {
            store.append(&rec);
        }
        store.commit();
        let live = store.books().clone();
        let backend = store.into_storage();
        let (reopened, report) = LedgerStore::open(backend, cfg, bootstrap());
        assert_eq!(reopened.books(), &live);
        assert_eq!(report.replayed_records, 10);
        assert!(!report.torn_tail);
    }

    #[test]
    fn uncommitted_records_are_lost_and_that_is_the_contract() {
        let cfg = StoreConfig {
            batch_records: 100,
            checkpoint_every: 1024,
        };
        let (mut store, _) = LedgerStore::open(MemStorage::new(), cfg, bootstrap());
        for rec in records(5) {
            store.append(&rec);
        }
        assert_eq!(store.pending_records(), 5);
        let (recovered, report) = store.simulate_recovery();
        assert_eq!(
            recovered,
            bootstrap(),
            "uncommitted batch must be invisible"
        );
        assert_eq!(report.replayed_records, 0);
    }

    #[test]
    fn checkpoints_bound_replay_and_survive() {
        let cfg = StoreConfig {
            batch_records: 1,
            checkpoint_every: 8,
        };
        let (mut store, _) = LedgerStore::open(MemStorage::new(), cfg, bootstrap());
        for rec in records(20) {
            store.append(&rec);
        }
        let live = store.books().clone();
        assert!(store.next_checkpoint_seq() >= 2, "two checkpoints due");
        let (recovered, report) = store.simulate_recovery();
        assert_eq!(recovered, live);
        assert!(report.checkpoint_seq.is_some());
        assert!(
            report.replayed_records < 20,
            "checkpoint must shorten replay, replayed {}",
            report.replayed_records
        );
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let (mut store, _) =
            LedgerStore::open(MemStorage::new(), StoreConfig::default(), bootstrap());
        for rec in records(6) {
            store.append(&rec);
        }
        let books_at_6 = store.books().clone();
        let mut backend = store.into_storage();
        // Tear: append half a frame of garbage.
        backend.append(WAL, &[0xDE, 0xAD, 0xBE]);
        let torn_len = backend.len(WAL);
        let (reopened, report) = LedgerStore::open(backend, StoreConfig::default(), bootstrap());
        assert_eq!(reopened.books(), &books_at_6);
        assert!(report.torn_tail);
        assert_eq!(report.truncated_bytes, 3);
        assert_eq!(reopened.storage().len(WAL), torn_len - 3);
        // And the truncated log is clean on the next open.
        let (again, report2) =
            LedgerStore::open(reopened.into_storage(), StoreConfig::default(), bootstrap());
        assert!(!report2.torn_tail);
        assert_eq!(again.books(), &books_at_6);
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_other_slot() {
        let cfg = StoreConfig {
            batch_records: 1,
            checkpoint_every: 4,
        };
        let (mut store, _) = LedgerStore::open(MemStorage::new(), cfg, bootstrap());
        // An image is due only once the log has outgrown it: enough
        // records that both slots hold one.
        for rec in records(40) {
            store.append(&rec);
        }
        assert!(store.next_checkpoint_seq() >= 2, "two images written");
        let live = store.books().clone();
        let newest = SLOTS[((store.next_checkpoint_seq() - 1) % 2) as usize];
        let mut backend = store.into_storage();
        let mut bytes = backend.read(newest);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        backend.write(newest, &bytes);
        let (recovered, report) = LedgerStore::open(backend, cfg, bootstrap());
        assert_eq!(report.corrupt_slots, 1);
        assert!(report.checkpoint_seq.is_some());
        assert_eq!(
            recovered.books(),
            &live,
            "older slot + longer replay must reach the same books"
        );
    }

    #[test]
    fn both_slots_corrupt_replays_from_bootstrap() {
        let cfg = StoreConfig {
            batch_records: 1,
            checkpoint_every: 4,
        };
        let (mut store, _) = LedgerStore::open(MemStorage::new(), cfg, bootstrap());
        for rec in records(12) {
            store.append(&rec);
        }
        let live = store.books().clone();
        let mut backend = store.into_storage();
        for slot in SLOTS {
            let mut bytes = backend.read(slot);
            if !bytes.is_empty() {
                bytes[0] ^= 0xFF;
                backend.write(slot, &bytes);
            }
        }
        let (recovered, report) = LedgerStore::open(backend, cfg, bootstrap());
        assert_eq!(report.checkpoint_seq, None);
        assert_eq!(
            report.replayed_records, 12,
            "full-log replay from bootstrap"
        );
        assert_eq!(recovered.books(), &live);
    }

    /// A slot image whose header, length and CRC are all valid around
    /// `payload`, whatever it holds.
    fn slot_around(seq: u64, wal_offset: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = checkpoint::MAGIC.to_le_bytes().to_vec();
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&wal_offset.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        let crc = wal::crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn newer_slot_with_undecodable_books_falls_back_to_the_older_slot() {
        let cfg = StoreConfig {
            batch_records: 1,
            checkpoint_every: 1024,
        };
        let (mut store, _) = LedgerStore::open(MemStorage::new(), cfg, bootstrap());
        let stream = records(12);
        for rec in &stream[..5] {
            store.append(rec);
        }
        store.checkpoint(); // seq 0 in ckpt.a, five records in
        let older_offset = store.wal_len();
        for rec in &stream[5..] {
            store.append(rec);
        }
        let live = store.books().clone();
        let mut backend = store.into_storage();
        // Seq 1 claims the whole log is covered, over garbage books.
        let wal_len = backend.len(WAL);
        backend.write(SLOTS[1], &slot_around(1, wal_len, &[0xFF; 40]));
        assert!(VerifiedSlot::of(&backend.read(SLOTS[1])).is_some());

        let (recovered, report) = LedgerStore::open(backend, cfg, bootstrap());
        assert_eq!(report.corrupt_slots, 1);
        assert_eq!(report.checkpoint_seq, Some(0));
        assert_eq!(
            report.replayed_records, 7,
            "tail replayed from the older slot's wal_offset {older_offset}"
        );
        assert_eq!(recovered.books(), &live);
        assert_eq!(recovered.next_checkpoint_seq(), 1);
    }

    #[test]
    fn two_verified_slots_with_undecodable_books_fall_back_to_bootstrap() {
        let (mut store, _) =
            LedgerStore::open(MemStorage::new(), StoreConfig::default(), bootstrap());
        for rec in records(6) {
            store.append(&rec);
        }
        let live = store.books().clone();
        let mut backend = store.into_storage();
        let wal_len = backend.len(WAL);
        backend.write(SLOTS[0], &slot_around(4, wal_len, &[0xFF; 40]));
        backend.write(SLOTS[1], &slot_around(5, wal_len, b"not books"));
        let (recovered, report) = LedgerStore::open(backend, StoreConfig::default(), bootstrap());
        assert_eq!(report.corrupt_slots, 2);
        assert_eq!(report.checkpoint_seq, None);
        assert_eq!(report.replayed_records, 6, "full log over the bootstrap");
        assert_eq!(recovered.books(), &live);
    }

    /// What an observer of `simulate_recovery_observed` is shown.
    fn observed(store: &LedgerStore<MemStorage>) -> (Vec<LedgerRecord>, RecoveryReport) {
        let mut seen = Vec::new();
        let (_, report) = store.simulate_recovery_observed(Some(&mut |rec| seen.push(*rec)));
        (seen, report)
    }

    #[test]
    fn observer_sees_the_whole_log_once_while_replay_starts_at_the_checkpoint() {
        let cfg = StoreConfig {
            batch_records: 1,
            checkpoint_every: 8,
        };
        let (mut store, _) = LedgerStore::open(MemStorage::new(), cfg, bootstrap());
        let stream = records(21);
        for rec in &stream {
            store.append(rec);
        }
        let (seen, report) = observed(&store);
        assert_eq!(seen, stream);
        assert_eq!(report.replayed_records, 21 - 16);
        assert_eq!(store.simulate_recovery(), (store.books().clone(), report));
    }

    #[test]
    fn damage_before_the_checkpoint_ends_the_observers_view_not_the_replay() {
        let cfg = StoreConfig {
            batch_records: 1,
            checkpoint_every: 8,
        };
        let (mut store, _) = LedgerStore::open(MemStorage::new(), cfg, bootstrap());
        let stream = records(12);
        for rec in &stream {
            store.append(rec);
        }
        let live = store.books().clone();
        // Flip a payload byte of the fourth frame: old log, already
        // covered by the checkpoint taken after record 8.
        let mut log = store.storage().read(WAL);
        let fourth = wal::scan(&log, 0).offsets[3] as usize;
        log[fourth + wal::FRAME_HEADER] ^= 0x01;
        store.storage_mut().write(WAL, &log);
        let (seen, report) = observed(&store);
        assert_eq!(seen, stream[..3], "the view ends at the damaged frame");
        assert_eq!(report.replayed_records, 4);
        assert!(!report.torn_tail);
        assert_eq!(store.simulate_recovery().0, live);
    }

    #[test]
    fn valid_frame_with_garbage_record_is_cut_at_its_boundary() {
        let (mut store, _) =
            LedgerStore::open(MemStorage::new(), StoreConfig::default(), bootstrap());
        for rec in records(3) {
            store.append(&rec);
        }
        let books_at_3 = store.books().clone();
        let mut backend = store.into_storage();
        let mut frame = Vec::new();
        wal::encode_frame(&[0xFF, 1, 2, 3], &mut frame); // unknown tag, valid CRC
        backend.append(WAL, &frame);
        let (reopened, report) = LedgerStore::open(backend, StoreConfig::default(), bootstrap());
        assert!(report.torn_tail);
        assert_eq!(report.truncated_bytes, frame.len() as u64);
        assert_eq!(reopened.books(), &books_at_3);
    }
}
