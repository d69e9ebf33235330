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
//! unconditional. The slot length is measured only once the log has
//! outgrown the last measurement: the books never shrink, so a length
//! once measured is a floor.
//!
//! # Recovery
//!
//! Recovery ([`LedgerStore::open`], [`LedgerStore::simulate_recovery`])
//! reads both checkpoint slots, keeps the highest-sequence one that
//! passes its checksum, reads the WAL from that checkpoint's
//! `wal_offset` on ([`Storage::read_from`] — the covered prefix is
//! neither copied nor walked), replays it, and truncates anything the
//! frame scan rejects. A checksum is not trusted alone: a slot whose
//! books have another shape than the bootstrap's is as corrupt as one
//! that does not decode, and the log ends at the first record that names
//! a row the books do not hold, as at a payload that is not a record —
//! so replay never indexes outside the books. The whole path is a pure function of the
//! backend's bytes — no clocks, no randomness — so a fixed plan+seed
//! recovers byte-identically every run.
//!
//! The path is two halves: a read takes from the backend everything
//! recovery needs (the image, or a clone of the bootstrap books, and the
//! log bytes), and a fold replays them, touching nothing else — so a
//! sharded store reads its shards in the caller's thread and folds them
//! on workers, and `Storage` needs no `Send` or `Sync`.
//!
//! Without an observer that path reads nothing before the older image's
//! `wal_offset`, so an engine opened without one lets go of that prefix:
//! once an image is synced, [`Storage::release`] is called before the
//! *other* slot's offset. A torn write of the next image destroys at
//! most the slot it writes, and the slot that survives still has its
//! tail; the log held is one image's distance plus what the backend
//! frees at a time ([`MemStorage`](crate::MemStorage): a 1 MiB segment).
//! A slot whose offset is before [`Storage::released`] is unusable, and
//! if no usable slot is left after a release — media corruption of a
//! synced image on top of a torn write, which no crash alone produces —
//! recovery refuses with a panic naming the released offset. It never
//! replays the rest of a log onto the bootstrap books, and never
//! truncates it. An engine opened with an observer (a multi-shard
//! store's in-doubt transfer scan) reads its whole log, so it releases
//! nothing.
//!
//! Replay folds the log in runs: the walk decodes up to `BATCH` (64)
//! frames into an array on the stack before it applies any of them. Each apply
//! is a read-modify-write of one account row, and over books larger than
//! the cache each one misses; with nothing between two applies but the
//! next apply, the misses of one run are in flight together, where a
//! record-at-a-time fold waited out each behind the next frame's scan,
//! CRC and decode. The records, their order, and where a damaged frame
//! ends the walk are the same either way.

use crate::books::Books;
use crate::checkpoint::{self, Checkpoint, VerifiedSlot, SLOTS};
use crate::metrics::{StoreMetrics, Tally};
use crate::record::{LedgerRecord, XferLeg};
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
    /// Checkpoint slots present but rejected by checksum/format, or
    /// because the log they start from was released.
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
    /// A lower bound on the slot the next image would write: the last
    /// slot length measured. `apply` never shrinks the books — users,
    /// credit and accounts are fixed-length, nonces insert-only — so a
    /// length once measured stays a floor.
    slot_floor: u64,
    /// Whether an image releases the log behind the older one: only when
    /// this engine's recovery reads no further back than an image, that
    /// is, when it was opened without an observer (see "# Recovery").
    releases: bool,
    tally: Tally,
}

/// What a multi-shard recovery hands each shard's pass: whether a
/// prepare's credit leg can land on its destination shard — a check a
/// prepare must pass beyond fitting the shard's own books — and a visitor
/// shown every record of the shard's valid log, in log order.
pub(crate) struct Observer<'a> {
    pub(crate) lands: &'a dyn Fn(u32, XferLeg) -> bool,
    pub(crate) visit: &'a mut dyn FnMut(&LedgerRecord),
}

impl<S: Storage> LedgerStore<S> {
    /// Opens a store, running recovery against whatever the backend
    /// holds. `initial` is the deployment's bootstrap books, used when
    /// no checkpoint exists yet (a fresh backend replays the entire WAL
    /// on top of it). A torn WAL tail is truncated in the backend so
    /// subsequent appends extend the valid prefix.
    ///
    /// # Panics
    ///
    /// Panics, before it truncates anything, if the backend released a
    /// prefix of the WAL and neither slot holds a usable image (see the
    /// [module docs](self), "# Recovery").
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
        let loaded = read(&storage, &initial, observe.is_some());
        Self::recovered(storage, config, initial, fold(loaded, observe))
    }

    /// The engine over `storage` that `recovered` — a [`fold`] of what
    /// [`read`] found in `storage` — reconstructs: a torn tail is
    /// truncated in the backend, and the checkpoint counters resume from
    /// what was replayed.
    pub(crate) fn recovered(
        storage: S,
        config: StoreConfig,
        initial: Books,
        recovered: Recovered,
    ) -> (Self, RecoveryReport) {
        let Recovered {
            books,
            report,
            next_seq,
            replayed_from,
            observed,
        } = recovered;
        let slot_floor = checkpoint::slot_len(&books) as u64;
        let mut store = LedgerStore {
            storage,
            config,
            initial,
            books,
            pending: Vec::new(),
            pending_records: 0,
            wal_len: report.wal_bytes,
            appended: 0,
            commits: 0,
            ckpt_seq: next_seq,
            // The replayed tail is checkpoint debt this incarnation
            // inherits: a process that restarts before appending
            // `checkpoint_every` records of its own must still get to
            // write an image.
            since_checkpoint: report.replayed_records,
            checkpointed_len: replayed_from.min(report.wal_bytes),
            slot_floor,
            releases: !observed,
            tally: Tally::default(),
        };
        if report.truncated_bytes > 0 {
            store.storage.truncate(WAL, report.wal_bytes);
        }
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
    ///
    /// # Panics
    ///
    /// Panics if the record does not fit the books ([`Books::apply`]).
    pub fn append(&mut self, rec: &LedgerRecord) {
        assert!(
            self.try_append(rec),
            "record does not fit the books: {rec:?}"
        );
    }

    /// [`append`](Self::append), unless the record does not fit the
    /// books: then nothing is journaled or changed and the answer is
    /// `false`.
    #[must_use]
    pub(crate) fn try_append(&mut self, rec: &LedgerRecord) -> bool {
        if !self.books.try_apply(rec) {
            return false;
        }
        wal::encode_frame_with(&mut self.pending, |payload| rec.encode_into(payload));
        self.appended += 1;
        self.pending_records += 1;
        self.tally.append();
        if self.pending_records >= self.config.batch_records.max(1) {
            self.commit();
        }
        true
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
    /// The books are measured only once the log has outgrown the last
    /// measurement, which then rises to the new one.
    fn checkpoint_due(&mut self) -> bool {
        let grown = self.wal_len - self.checkpointed_len;
        if self.since_checkpoint < self.config.checkpoint_every || grown < self.slot_floor {
            return false;
        }
        self.slot_floor = checkpoint::slot_len(&self.books) as u64;
        grown >= self.slot_floor
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

    /// Writes and syncs the next image, then — on an engine that
    /// releases — lets go of the log behind the *other* slot's image,
    /// whose offset is `checkpointed_len` until this one replaces it. So
    /// whichever slot a torn next write leaves, its tail is still held.
    fn write_checkpoint(&mut self) {
        let slot = checkpoint::slot_for(self.ckpt_seq);
        let bytes = checkpoint::encode_slot(self.ckpt_seq, self.wal_len, &self.books);
        self.storage.write(slot, &bytes);
        self.storage.sync(slot);
        if self.releases {
            let held = self.storage.released(WAL);
            self.storage.release(WAL, self.checkpointed_len);
            StoreMetrics::get()
                .wal_released_bytes
                .add(self.storage.released(WAL) - held);
        }
        self.ckpt_seq += 1;
        self.since_checkpoint = 0;
        self.checkpointed_len = self.wal_len;
        self.slot_floor = bytes.len() as u64;
        self.tally.publish();
        let m = StoreMetrics::get();
        m.checkpoints.inc();
        m.checkpoint_bytes.record(bytes.len() as u64);
    }

    /// Runs the real recovery path against the backend's current bytes
    /// without mutating anything: what a restart *right now* would
    /// reconstruct. Uncommitted (buffered) records are invisible to it,
    /// exactly as they would be to a crash.
    ///
    /// # Panics
    ///
    /// Panics where [`open`](Self::open) would.
    pub fn simulate_recovery(&self) -> (Books, RecoveryReport) {
        self.simulate_recovery_observed(None)
    }

    /// [`LedgerStore::simulate_recovery`], with `observe` shown the whole
    /// valid log in the same pass.
    pub(crate) fn simulate_recovery_observed(
        &self,
        observe: Option<Observer<'_>>,
    ) -> (Books, RecoveryReport) {
        let recovered = fold(self.read_recovery(observe.is_some()), observe);
        (recovered.books, recovered.report)
    }

    /// What a recovery of this engine's backend reads out of it (see
    /// [`read`]), for an observer or not.
    pub(crate) fn read_recovery(&self, observed: bool) -> Loaded {
        read(&self.storage, &self.initial, observed)
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
/// until one decodes to books of `initial`'s shape — an image of other
/// books is as corrupt as one that does not decode, and one whose
/// `wal_offset` is before the log's [`Storage::released`] offset is as
/// unusable: the log it would replay from is gone.
fn load_checkpoint<S: Storage>(storage: &S, initial: &Books) -> (Option<Checkpoint>, u32) {
    let images = SLOTS.map(|slot| storage.read(slot));
    let released = storage.released(WAL);
    let mut corrupt_slots = 0;
    let mut verified = Vec::with_capacity(SLOTS.len());
    for bytes in images.iter().filter(|bytes| !bytes.is_empty()) {
        match VerifiedSlot::of(bytes) {
            Some(slot) if slot.wal_offset >= released => verified.push(slot),
            _ => corrupt_slots += 1,
        }
    }
    verified.sort_by_key(|slot| Reverse(slot.seq));
    for slot in verified {
        match slot.decode() {
            Some(ckpt) if ckpt.books.same_shape(initial) => return (Some(ckpt), corrupt_slots),
            _ => corrupt_slots += 1,
        }
    }
    (None, corrupt_slots)
}

/// Records [`walk`] decodes before it hands any of them to `visit`.
///
/// Replay's `visit` is `Books::apply`, a read-modify-write of one
/// account row that, over books larger than the cache, misses every
/// time. Handed one record per frame, each miss waits behind the next
/// frame's scan, CRC and decode, so the misses queue one after another;
/// handed a run, consecutive applies have nothing between them and the
/// misses of independent rows are in flight together. Measured on the
/// benchmark's `recovery` cell (200k records over 4 shards × 50k
/// accounts, quiet decile of 150 recoveries, 8 alternations): 13.7–22.9
/// ms a record at a time, 11.6–17.0 ms in runs of 64, 11.8–16.6 in runs
/// of 16 and 11.7–12.9 in runs of 256 — the sizes cannot be told apart,
/// and 64 records with their offsets fit on the stack.
const BATCH: usize = 64;

/// Hands `visit` every record framed in `bytes` from offset `from` on
/// and returns the offset of the first frame the WAL scan rejects, or
/// whose checksum-valid payload is not a record, or whose record `visit`
/// refuses (the end of `bytes` if there is none): nothing from there on
/// can be trusted.
///
/// Records reach `visit` in log order, in runs of up to [`BATCH`]: a run
/// is decoded whole before its first record is visited, and ends early
/// only where the walk does, so nothing past a rejected frame is visited.
fn walk(bytes: &[u8], from: u64, mut visit: impl FnMut(&LedgerRecord) -> bool) -> u64 {
    let mut frames = wal::Frames::new(bytes, from);
    // On the stack, not the heap: even one small allocation per recovery
    // moves where glibc trims the heap between the benchmark's rounds.
    let mut run = [(0, LedgerRecord::XferRelease { xid: 0 }); BATCH];
    loop {
        let mut len = 0;
        let end = loop {
            let Some((offset, payload)) = frames.next() else {
                break Some(frames.offset());
            };
            let Some(rec) = LedgerRecord::decode(payload) else {
                break Some(offset);
            };
            run[len] = (offset, rec);
            len += 1;
            if len == BATCH {
                break None;
            }
        };
        if let Some(&(refused, _)) = run[..len].iter().find(|(_, rec)| !visit(rec)) {
            return refused;
        }
        if let Some(end) = end {
            return end;
        }
    }
}

/// What recovery reads out of a backend before it folds anything: the
/// books replay starts from and the log it walks, owned. Everything that
/// touches the [`Storage`] is [`read`]; [`fold`] is pure over this, so a
/// sharded store reads its shards in the caller's thread and folds them
/// on workers without asking anything of `S`.
#[derive(Default)]
pub(crate) struct Loaded {
    /// The newest usable image's books, or a clone of the bootstrap.
    books: Books,
    /// The WAL from `base` on.
    wal: Vec<u8>,
    /// Where `wal` starts in the log: 0 for an observer, who walks the
    /// whole log, otherwise where replay starts.
    base: u64,
    /// WAL offset replay starts at: the image's `wal_offset`, 0 without
    /// one.
    replayed_from: u64,
    checkpoint_seq: Option<u64>,
    corrupt_slots: u32,
    /// Whether the log was read for an observer.
    observed: bool,
}

/// What [`fold`] reconstructed.
#[derive(Default)]
pub(crate) struct Recovered {
    pub(crate) books: Books,
    pub(crate) report: RecoveryReport,
    /// Sequence the next checkpoint will carry.
    next_seq: u64,
    /// WAL offset the replay started at: the recovered checkpoint's
    /// `wal_offset`, 0 without one.
    replayed_from: u64,
    /// Whether an observer was shown the log: then the whole log was
    /// read, and an engine built on this recovery must keep it.
    observed: bool,
}

/// The storage half of recovery: the newest usable checkpoint (the slot
/// decode included), the books replay starts from, and the log it
/// walks.
///
/// Replay starts at the checkpoint's `wal_offset`, and without an
/// observer that is also where the read starts: the log before it is
/// neither copied out of the backend nor walked. An observer needs the
/// whole valid log, so for one (`observed`) the WAL is read from 0.
///
/// # Panics
///
/// Panics if the log was released and no usable image is left to
/// replay its rest onto: the bootstrap books plus a log with a hole are
/// not the books.
pub(crate) fn read<S: Storage>(storage: &S, initial: &Books, observed: bool) -> Loaded {
    let (best, corrupt_slots) = load_checkpoint(storage, initial);
    let released = storage.released(WAL);
    assert!(
        best.is_some() || released == 0,
        "no usable checkpoint image covers the WAL released before offset {released}: \
         refusing to replay the rest onto the bootstrap books"
    );
    let (books, replayed_from, checkpoint_seq) = match best {
        Some(ckpt) => (ckpt.books, ckpt.wal_offset, Some(ckpt.seq)),
        None => (initial.clone(), 0, None),
    };
    let base = if observed {
        0
    } else {
        replayed_from.min(storage.len(WAL))
    };
    Loaded {
        books,
        wal: storage.read_from(WAL, base),
        base,
        replayed_from,
        checkpoint_seq,
        corrupt_slots,
        observed,
    }
}

/// The pure half of recovery: replays `loaded`'s log onto its books,
/// and shows `observe`, if there is one, every record of the valid log.
/// With an observer the frames before the checkpoint are walked first,
/// each frame still checksummed and decoded once.
///
/// The replay ends at the first record that does not fit the books
/// ([`Books::try_apply`]) or, with an observer, fails its check; the
/// observer's own walk of the old log, which applies nothing, ends only
/// at the latter.
///
/// # Panics
///
/// Panics if `observe` is given for a log read without one, or withheld
/// from a log read for one.
pub(crate) fn fold(loaded: Loaded, mut observe: Option<Observer<'_>>) -> Recovered {
    let Loaded {
        mut books,
        wal: wal_bytes,
        base,
        replayed_from,
        checkpoint_seq,
        corrupt_slots,
        observed,
    } = loaded;
    assert_eq!(
        observe.is_some(),
        observed,
        "an observer walks the whole log: read it for one"
    );
    let lands = observe.as_ref().map(|o| o.lands);
    // `wal_bytes` is the log from `base` on; every offset below is
    // relative to it until the report is written.
    let from = (replayed_from - base).min(wal_bytes.len() as u64);
    let observed_to = match observe.as_mut() {
        Some(observe) => walk(&wal_bytes[..from as usize], 0, |rec| {
            show_if_fits(observe, rec)
        }),
        None => from,
    };
    // The observer joins the replay only if its own walk arrived where
    // the replay starts.
    let mut joined = if observed_to == from {
        observe.take()
    } else {
        None
    };
    let mut replayed = 0u64;
    let valid_len = walk(&wal_bytes, from, |rec| {
        if !lands.is_none_or(|lands| admits(lands, rec)) || !books.try_apply(rec) {
            return false;
        }
        replayed += 1;
        if let Some(observe) = joined.as_mut() {
            (observe.visit)(rec);
        }
        true
    });
    if let Some(mut observe) = observe {
        // Damage in the old log: the observer goes on alone from where
        // it stopped, within what the replay found valid.
        walk(&wal_bytes[..valid_len as usize], observed_to, |rec| {
            show_if_fits(&mut observe, rec)
        });
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
        next_seq: checkpoint_seq.map_or(0, |seq| seq + 1),
        replayed_from,
        observed,
    }
}

/// Whether `rec` passes an observer's check: a prepare's credit leg must
/// be able to land.
fn admits(lands: &dyn Fn(u32, XferLeg) -> bool, rec: &LedgerRecord) -> bool {
    match *rec {
        LedgerRecord::XferPrepare { dst, credit, .. } => lands(dst, credit),
        _ => true,
    }
}

/// Whether `rec` passes the observer's check; if so it is shown it.
fn show_if_fits(observe: &mut Observer<'_>, rec: &LedgerRecord) -> bool {
    let fits = admits(observe.lands, rec);
    if fits {
        (observe.visit)(rec);
    }
    fits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::books::{BankBooks, IspBooks, UserBooks};
    use crate::record::{XferKind, XferLeg};
    use crate::shard::ShardedLedgerStore;
    use crate::storage::{MemStorage, SEGMENT};
    use proptest::prelude::*;

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

    fn record(i: usize) -> LedgerRecord {
        match i % 3 {
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
        }
    }

    fn records(n: usize) -> Vec<LedgerRecord> {
        (0..n).map(record).collect()
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

    /// The older image's `wal_offset`: 0 while either slot is empty.
    fn older_offset(storage: &MemStorage) -> u64 {
        SLOTS
            .iter()
            .map(|slot| Checkpoint::decode(&storage.read(slot)).map_or(0, |c| c.wal_offset))
            .min()
            .expect("two slots")
    }

    /// The records [`released_log`] appends, and its config: group
    /// commits of 64, an image every 1024 records (the books are small).
    const RELEASING: StoreConfig = StoreConfig {
        batch_records: 64,
        checkpoint_every: 1024,
    };

    /// A one-engine store filled until its first image at or past
    /// `2 * SEGMENT`: the older image is then past the first segment and
    /// the newest past the second — then `tail` records more, committed.
    /// At every image, recovery equals live, and the log held reaches
    /// back to the older image and at most one segment more.
    fn released_log(tail: usize) -> LedgerStore<MemStorage> {
        let (mut store, _) = LedgerStore::open(MemStorage::new(), RELEASING, bootstrap());
        let mut stream = (0..).map(record);
        let mut images = 0;
        while store.checkpointed_len < 2 * SEGMENT as u64 {
            store.append(&stream.next().expect("endless"));
            if store.next_checkpoint_seq() == images {
                continue;
            }
            images = store.next_checkpoint_seq();
            let storage = store.storage();
            assert_eq!(
                store.simulate_recovery().0,
                *store.books(),
                "image {images}"
            );
            let held = storage.len(WAL) - storage.released(WAL);
            assert!(
                held <= storage.len(WAL) - older_offset(storage) + SEGMENT as u64,
                "image {images}: {held} bytes held"
            );
        }
        for rec in stream.take(tail) {
            store.append(&rec);
        }
        store.commit();
        store
    }

    /// (a) A one-engine log stays within one image's distance and a
    /// segment, recovery equals live at every image, and something was
    /// released.
    #[test]
    fn a_one_engine_log_is_held_only_back_to_the_older_image() {
        let store = released_log(100);
        let storage = store.storage();
        assert!(storage.len(WAL) > 2 * SEGMENT as u64);
        assert_eq!(storage.released(WAL), SEGMENT as u64);
        assert_eq!(store.simulate_recovery().0, *store.books());
        let (reopened, report) = LedgerStore::open(storage.clone(), RELEASING, bootstrap());
        assert_eq!(reopened.books(), store.books());
        assert_eq!(report.corrupt_slots, 0);
    }

    /// Flips a byte in the middle of slot `slot`.
    fn spoil(storage: &mut MemStorage, slot: &str) {
        let mut bytes = storage.read(slot);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        storage.write(slot, &bytes);
    }

    /// (b) With the log released, garbage in the newest slot falls back
    /// to the older one exactly: its tail is still held.
    #[test]
    fn after_a_release_a_spoiled_newest_slot_falls_back_to_the_older_one() {
        let store = released_log(100);
        let live = store.books().clone();
        let newest = SLOTS[((store.next_checkpoint_seq() - 1) % 2) as usize];
        let older_seq = store.next_checkpoint_seq() - 2;
        let mut disk = store.into_storage();
        let older = older_offset(&disk);
        assert!(disk.released(WAL) > 0);
        spoil(&mut disk, newest);
        let (recovered, report) = LedgerStore::open(disk, RELEASING, bootstrap());
        assert_eq!(report.corrupt_slots, 1);
        assert_eq!(report.checkpoint_seq, Some(older_seq));
        assert_eq!(recovered.books(), &live);
        assert!(!report.torn_tail);
        let wal = recovered.storage().read_from(WAL, older);
        assert_eq!(
            report.replayed_records,
            wal::scan(&wal, 0).offsets.len() as u64
        );
    }

    /// (c) With the log released, two spoiled slots refuse: a panic
    /// naming the released offset, before any replay or truncation.
    #[test]
    fn after_a_release_two_spoiled_slots_refuse_to_recover() {
        let mut disk = released_log(100).into_storage();
        let released = disk.released(WAL);
        assert!(released > 0);
        for slot in SLOTS {
            spoil(&mut disk, slot);
        }
        let refusal = |run: &dyn Fn()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("recovery must refuse");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        let opened = refusal(&|| drop(LedgerStore::open(disk.clone(), RELEASING, bootstrap())));
        let (mut store, _) = LedgerStore::open(MemStorage::new(), RELEASING, bootstrap());
        *store.storage_mut() = disk;
        let simulated = refusal(&|| drop(store.simulate_recovery()));
        for message in [opened, simulated] {
            assert!(
                message.contains("refusing") && message.contains(&released.to_string()),
                "{message}"
            );
        }
    }

    /// (d) A 4-shard store, whose recovery reads every shard's whole log
    /// for in-doubt transfers, releases nothing however long its logs.
    #[test]
    fn a_four_shard_store_releases_nothing() {
        let storages = (0..4).map(|_| MemStorage::new()).collect();
        let (mut sharded, _) = ShardedLedgerStore::open(storages, RELEASING, deployment());
        // One account's charges and deposits all land on its shard.
        for i in 0..2 * SEGMENT / 16 {
            sharded.append(&if i % 2 == 0 {
                LedgerRecord::Charge { isp: 1, user: 3 }
            } else {
                LedgerRecord::Deposit { isp: 1, user: 3 }
            });
        }
        sharded.commit_all();
        let busy = (0..4)
            .max_by_key(|&s| sharded.shard(s).wal_len())
            .expect("four shards");
        assert!(sharded.shard(busy).wal_len() > 2 * SEGMENT as u64);
        assert!(sharded.shard(busy).next_checkpoint_seq() >= 3);
        for s in 0..4 {
            assert_eq!(sharded.shard(s).storage().released(WAL), 0, "shard {s}");
        }
        assert!(sharded.recovers_live_books().0);
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
        let (_, report) = store.simulate_recovery_observed(Some(Observer {
            lands: &|_, _| true,
            visit: &mut |rec| seen.push(*rec),
        }));
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

    /// The walk before runs, kept as the oracle [`walk`] is held to: one
    /// frame scanned, checked, decoded and visited at a time.
    fn walk_one_at_a_time(bytes: &[u8], from: u64, mut visit: impl FnMut(&LedgerRecord)) -> u64 {
        let mut frames = wal::Frames::new(bytes, from);
        for (offset, payload) in frames.by_ref() {
            match LedgerRecord::decode(payload) {
                Some(rec) => visit(&rec),
                None => return offset,
            }
        }
        frames.offset()
    }

    /// [`walk`] or its oracle, handed a visitor.
    type Walk = fn(&[u8], u64, &mut dyn FnMut(&LedgerRecord)) -> u64;

    /// What `walk` visits of `bytes` from `from` on, and where it stops.
    fn walked(walk: Walk, bytes: &[u8], from: u64) -> (Vec<LedgerRecord>, u64) {
        let mut seen = Vec::new();
        let end = walk(bytes, from, &mut |rec| seen.push(*rec));
        (seen, end)
    }

    /// Frame offsets, relative to the first frame a walk reads, at which
    /// a run of [`BATCH`] ends or the next one starts.
    const AROUND_RUN_ENDS: [usize; 5] = [63, 64, 65, 127, 128];

    /// One kind of damage to frame `at` of `log`, whose frames start at
    /// `offsets`: 0 none, 1 a torn header (the log ends inside it), 2 a
    /// flipped payload bit, 3 a length over [`wal::MAX_FRAME`], 4 a
    /// CRC-valid payload that is not a record (the frames after it stay
    /// valid, so a walk that went on would find records there).
    fn damage(log: &mut Vec<u8>, offsets: &[u64], at: usize, kind: u8, salt: u8) {
        let Some(&start) = offsets.get(at) else {
            return;
        };
        let header = start as usize;
        let payload = header + wal::FRAME_HEADER;
        let len = u32::from_le_bytes(log[header..header + 4].try_into().expect("4 bytes"));
        match kind {
            1 => log.truncate(header + 1 + usize::from(salt) % (wal::FRAME_HEADER - 1)),
            2 => log[payload + usize::from(salt) % len as usize] ^= 1 << (salt % 8),
            3 => log[header..header + 4].copy_from_slice(&(wal::MAX_FRAME + 1).to_le_bytes()),
            4 => {
                log[payload] = 0xFF;
                let crc = wal::crc32(&log[payload..payload + len as usize]);
                log[header + 4..payload].copy_from_slice(&crc.to_le_bytes());
            }
            _ => {}
        }
    }

    /// A record of every shape the codec knows, drawn from `seed`.
    fn any_record(seed: u64) -> LedgerRecord {
        let (a, b) = ((seed >> 8) as u32, (seed >> 32) as u32);
        let leg = XferLeg {
            kind: XferKind::Deposit,
            isp: a % 5,
            user: b,
            amount: seed as i64 >> 3,
        };
        match seed % 8 {
            0 => LedgerRecord::Charge { isp: a, user: b },
            1 => LedgerRecord::Deposit { isp: a, user: b },
            2 => LedgerRecord::CreditDelta {
                isp: a,
                peer: b,
                delta: -(seed as i64),
            },
            3 => LedgerRecord::NonceSeen {
                isp: a,
                nonce: seed,
            },
            4 => LedgerRecord::DailyReset { isp: a },
            5 => LedgerRecord::XferPrepare {
                xid: seed,
                dst: a % 4,
                debit: leg,
                credit: XferLeg {
                    kind: XferKind::Charge,
                    ..leg
                },
            },
            6 => LedgerRecord::XferApply { xid: seed, leg },
            _ => LedgerRecord::XferRelease { xid: seed },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Runs are invisible to the walk's callers: over logs of 0–300
        /// frames, damaged or not around the run boundaries, entered at
        /// any frame (or inside one) and cut anywhere, `walk` visits
        /// exactly what the record-at-a-time walk visits, in the same
        /// order, and stops at the same offset.
        #[test]
        fn runs_visit_what_the_record_at_a_time_walk_visits(
            frames in prop_oneof![0usize..301, (0usize..5).prop_map(|k| 64 * k)],
            seed in any::<u64>(),
            start in 0usize..301,
            skew in prop_oneof![Just(0u64), 1u64..12],
            hit in (0u8..5, 0usize..6, 0usize..3, any::<u8>()),
            cut in (any::<bool>(), 0usize..301, 1usize..40),
        ) {
            let mut log = Vec::new();
            let mut offsets = Vec::new();
            for i in 0..frames as u64 {
                offsets.push(log.len() as u64);
                let rec = any_record(seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                wal::encode_frame_with(&mut log, |payload| rec.encode_into(payload));
            }
            let start = start.min(frames);
            let from = offsets.get(start).map_or(log.len() as u64, |&at| at + skew);
            let (kind, around, jitter, salt) = hit;
            if frames > 0 {
                let at = match AROUND_RUN_ENDS.get(around) {
                    Some(&k) => (start + k + jitter).saturating_sub(1).min(frames - 1),
                    None => frames - 1,
                };
                damage(&mut log, &offsets, at, kind, salt);
            }
            let (cuts, cut_frame, into) = cut;
            let end = if cuts {
                offsets.get(cut_frame).map_or(log.len(), |&at| at as usize + into).min(log.len())
            } else {
                log.len()
            };
            let bytes = &log[..end];
            let in_runs = walked(
                |b, f, v| {
                    walk(b, f, |rec| {
                        v(rec);
                        true
                    })
                },
                bytes,
                from,
            );
            prop_assert_eq!(
                in_runs,
                walked(|b, f, v| walk_one_at_a_time(b, f, v), bytes, from)
            );
        }
    }

    /// Commits `store`'s batch and says whether an image landed, and
    /// whether one was due by the exact predicate: `checkpoint_every`
    /// records, and the slot length measured now, since the last image.
    fn commit_against_the_exact_predicate(store: &mut LedgerStore<MemStorage>) -> (bool, bool) {
        let since = store.since_checkpoint + store.pending_records as u64;
        let grown = store.wal_len + store.pending.len() as u64 - store.checkpointed_len;
        let due = !store.pending.is_empty()
            && since >= store.config.checkpoint_every
            && grown >= checkpoint::slot_len(&store.books) as u64;
        let before = store.next_checkpoint_seq();
        store.commit();
        (store.next_checkpoint_seq() > before, due)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The slot-length floor moves no image: over streams whose
        /// nonce set grows (so the slot grows with the log) at a rate
        /// drawn per stream — from every record a fresh nonce to none at
        /// all — with a reopen in the middle, images land after exactly
        /// the records the exact predicate names.
        #[test]
        fn images_land_where_the_exact_slot_length_puts_them(
            ops in proptest::collection::vec((0u32..8, any::<u64>(), any::<bool>()), 0..400),
            nonce_share in 0u32..9,
            distinct_nonces in 1u64..2_000,
            checkpoint_every in 0u64..64,
            reopen in 0usize..100,
        ) {
            let reopen_at = ops.len() * reopen / 100;
            let config = StoreConfig { batch_records: usize::MAX, checkpoint_every };
            let (mut store, _) = LedgerStore::open(MemStorage::new(), config, bootstrap());
            let (mut landed, mut due) = (Vec::new(), Vec::new());
            for (i, &(kind, nonce, commit)) in ops.iter().enumerate() {
                store.append(&if kind < nonce_share {
                    LedgerRecord::NonceSeen { isp: 0, nonce: nonce % distinct_nonces }
                } else {
                    LedgerRecord::Charge { isp: 0, user: kind % 2 }
                });
                if commit || i == reopen_at {
                    let (image, exact) = commit_against_the_exact_predicate(&mut store);
                    landed.extend(image.then_some(i));
                    due.extend(exact.then_some(i));
                }
                if i == reopen_at {
                    store = LedgerStore::open(store.into_storage(), config, bootstrap()).0;
                }
            }
            let (image, exact) = commit_against_the_exact_predicate(&mut store);
            landed.extend(image.then_some(ops.len()));
            due.extend(exact.then_some(ops.len()));
            prop_assert_eq!(landed, due);
        }
    }

    const ISPS: u32 = 2;
    const USERS: u32 = 8;

    /// Two ISPs of eight users and one bank: enough accounts that four
    /// shards each own some.
    fn deployment() -> Books {
        Books {
            isps: (0..ISPS)
                .map(|_| IspBooks {
                    users: vec![
                        UserBooks {
                            account: 1_000,
                            balance: 100,
                            sent_today: 0,
                            limit: 100,
                        };
                        USERS as usize
                    ],
                    avail: 5_000,
                    credit: vec![0; ISPS as usize],
                    nonces: Vec::new(),
                })
                .collect(),
            banks: vec![BankBooks {
                accounts: vec![1_000_000; ISPS as usize],
                issued: 0,
            }],
        }
    }

    /// Recovery as the parent commit ran it, over one engine's backend:
    /// the record-at-a-time walk, each record folded as it is decoded.
    /// Returns the books, the report and what an observer would be shown.
    fn recovered_one_at_a_time(
        storage: &MemStorage,
        initial: &Books,
    ) -> (Books, RecoveryReport, Vec<LedgerRecord>) {
        let (best, corrupt_slots) = load_checkpoint(storage, initial);
        let (mut books, wal_offset, checkpoint_seq) = match best {
            Some(ckpt) => (ckpt.books, ckpt.wal_offset, Some(ckpt.seq)),
            None => (initial.clone(), 0, None),
        };
        let log = storage.read(WAL);
        let len = log.len() as u64;
        let mut replayed = 0;
        let valid = walk_one_at_a_time(&log, wal_offset.min(len), |rec| {
            books.apply(rec);
            replayed += 1;
        });
        let (seen, _) = walked(
            |b, f, v| walk_one_at_a_time(b, f, v),
            &log[..valid as usize],
            0,
        );
        let report = RecoveryReport {
            checkpoint_seq,
            corrupt_slots,
            replayed_records: replayed,
            torn_tail: valid < len,
            truncated_bytes: len - valid,
            wal_bytes: valid,
        };
        (books, report, seen)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// End to end at one and four shards: on logs damaged around the
        /// run boundaries — counted from the log's start, where an
        /// observer's walk begins, and from the newest image's offset,
        /// where replay begins — every engine's `simulate_recovery`,
        /// `simulate_recovery_observed` and `open_observed`, and the
        /// sharded store's `simulate_recovery` and `open`, report and
        /// rebuild what the record-at-a-time recovery does, and show an
        /// observer the same records.
        #[test]
        fn recovery_in_runs_equals_recovery_a_record_at_a_time(
            four in any::<bool>(),
            ops in proptest::collection::vec((0u32..10, 0u32..16, 0u32..16, 0i64..400), 0..700),
            batch_records in 1usize..300,
            checkpoint_every in prop_oneof![Just(u64::MAX), 0u64..400],
            hit in (0u8..5, 0usize..6, 0usize..3, any::<u8>()),
            from_image in any::<bool>(),
        ) {
            let shards = if four { 4 } else { 1 };
            let config = StoreConfig { batch_records, checkpoint_every };
            let storages = (0..shards).map(|_| MemStorage::new()).collect();
            let (mut sharded, _) = ShardedLedgerStore::open(storages, config, deployment());
            for (i, &(kind, a, b, amount)) in ops.iter().enumerate() {
                let (isp, user) = (a % ISPS, a % USERS);
                let leg = |kind, user| XferLeg { kind, isp: b % ISPS, user, amount };
                match kind {
                    0 => sharded.append(&LedgerRecord::Charge { isp, user }),
                    1 => sharded.append(&LedgerRecord::Deposit { isp, user }),
                    2 => sharded.append(&LedgerRecord::NonceSeen { isp, nonce: u64::from(b) }),
                    3 => sharded.append(&LedgerRecord::UserBuy { isp, user, amount }),
                    4 => sharded.append(&LedgerRecord::UserSell { isp, user, amount }),
                    5 => sharded.append(&LedgerRecord::CreditDelta { isp, peer: b % ISPS, delta: 1 }),
                    6 => sharded.append(&LedgerRecord::DailyReset { isp }),
                    _ => sharded.transfer(leg(XferKind::Charge, user), leg(XferKind::Deposit, b % USERS)),
                }
                if i % 7 == 0 {
                    sharded.commit_all();
                }
            }
            sharded.commit_all();

            let (kind, around, jitter, salt) = hit;
            let victim = usize::from(salt) % shards;
            let mut log = sharded.shard(victim).storage().read(WAL);
            let offsets = wal::scan(&log, 0).offsets;
            let victim_store = sharded.shard(victim);
            let replay_from = load_checkpoint(victim_store.storage(), &victim_store.initial)
                .0
                .map_or(0, |ckpt| ckpt.wal_offset);
            let base = if from_image {
                offsets.partition_point(|&at| at < replay_from)
            } else {
                0
            };
            if let Some(last) = offsets.len().checked_sub(1) {
                let at = match AROUND_RUN_ENDS.get(around) {
                    Some(&k) => (base + k + jitter).saturating_sub(1).min(last),
                    None => last,
                };
                damage(&mut log, &offsets, at, kind, salt);
            }
            sharded.shard_mut(victim).storage_mut().write(WAL, &log);

            let mut expected = Vec::new();
            for s in 0..shards {
                let store = sharded.shard(s);
                let (books, report, seen) = recovered_one_at_a_time(store.storage(), &store.initial);
                prop_assert_eq!(store.simulate_recovery(), (books.clone(), report));
                let mut shown = Vec::new();
                let observed = store.simulate_recovery_observed(Some(Observer {
                    lands: &|_, _| true,
                    visit: &mut |rec| shown.push(*rec),
                }));
                prop_assert_eq!(observed, (books.clone(), report));
                prop_assert_eq!(&shown, &seen);
                shown.clear();
                let (opened, open_report) = LedgerStore::open_observed(
                    store.storage().clone(),
                    config,
                    store.initial.clone(),
                    Some(Observer { lands: &|_, _| true, visit: &mut |rec| shown.push(*rec) }),
                );
                prop_assert_eq!(open_report, report);
                prop_assert_eq!(opened.books(), &books);
                prop_assert_eq!(opened.storage().len(WAL), report.wal_bytes);
                prop_assert_eq!(&shown, &seen);
                expected.push(report);
            }
            prop_assert_eq!(&sharded.simulate_recovery().1.shards, &expected);
            let (_, reopened) = ShardedLedgerStore::open(sharded.into_storages(), config, deployment());
            prop_assert_eq!(&reopened.shards, &expected);
        }
    }
}
