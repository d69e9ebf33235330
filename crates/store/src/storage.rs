//! Pluggable byte storage underneath the ledger engine.
//!
//! The engine only ever performs six operations on named blobs: read the
//! whole blob, replace it, append to it, flush it, measure it, and cut it
//! short. Keeping the surface that small lets the simulator run on a
//! deterministic in-memory backend ([`MemStorage`]), the bench bins on
//! real files ([`FileStorage`]), and the fault layer on a wrapper that
//! models torn writes and lost un-synced bytes
//! (`zmail_fault::FaultyStorage`).
//!
//! Three more are *provided*, so a backend that implements only the six
//! keeps working:
//!
//! * [`Storage::read_from`] is the first minus a prefix: the blob from
//!   an offset on — `read`, then slice. [`MemStorage`], [`FileStorage`]
//!   and `FaultyStorage` override it so that recovery, which replays the
//!   log from its newest checkpoint's offset, copies only the bytes it
//!   replays.
//! * [`Storage::release`] is a promise that a blob's bytes before an
//!   offset will never be read again, and [`Storage::released`] the
//!   first offset still held. The defaults keep every byte (`released`
//!   is 0); [`MemStorage`] overrides both to free whole segments. The
//!   engine releases its WAL behind the *older* checkpoint image, which
//!   no recovery it can run reads past.
//!
//! [`MemStorage`] holds a blob as fixed-size segments, not one vector:
//! an append-only log then never reallocates what it already holds, and
//! a process's peak memory does not depend on whether the allocator
//! happened to find room to grow the log in place. A released segment
//! is dropped whole; offsets, lengths and later appends do not move.
//!
//! # Semantics the engine relies on
//!
//! * Reading an absent blob yields the empty byte string — there is no
//!   "does not exist" error; an empty WAL and a missing WAL recover
//!   identically.
//! * [`Storage::append`] alone promises nothing about durability: bytes
//!   become durable only once [`Storage::sync`] returns. A crash model
//!   may discard any suffix of un-synced appends (and even a *prefix of
//!   the last un-synced batch* — the torn write) but never synced bytes.
//! * [`Storage::truncate`] to a length at or beyond the current one is a
//!   no-op; recovery uses it to drop a torn tail.
//! * Released bytes are gone: reading from an offset before
//!   [`Storage::released`], or truncating to one, is a caller bug and
//!   panics in a backend that frees them. [`Storage::write`] replaces the
//!   whole blob, and with it the release.

use std::collections::BTreeMap;
use std::fs;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::PathBuf;

/// A named-blob byte store.
///
/// Implementations must behave like a directory of flat files with the
/// semantics described at [module level](self).
pub trait Storage {
    /// The full contents of `name` (empty if the blob was never written).
    fn read(&self, name: &str) -> Vec<u8>;

    /// The contents of `name` from byte `offset` on: exactly
    /// `read(name)[min(offset, len)..]`, so an offset at or past the end
    /// (or an absent blob) reads as empty. Backends override this to
    /// avoid materialising the prefix.
    fn read_from(&self, name: &str, offset: u64) -> Vec<u8> {
        let mut bytes = self.read(name);
        let skip = bytes.len() - suffix(&bytes, offset).len();
        bytes.drain(..skip); // nothing moves at offset 0
        bytes
    }

    /// Replaces `name` with exactly `bytes`.
    fn write(&mut self, name: &str, bytes: &[u8]);

    /// Appends `bytes` to `name`, creating it if absent. Durability is
    /// only promised after the next [`Storage::sync`].
    fn append(&mut self, name: &str, bytes: &[u8]);

    /// Flushes `name` to durable storage (fsync for file backends).
    fn sync(&mut self, name: &str);

    /// Current length of `name` in bytes (0 if absent).
    fn len(&self, name: &str) -> u64;

    /// Cuts `name` down to `len` bytes; a no-op if it is already shorter.
    fn truncate(&mut self, name: &str, len: u64);

    /// Promises that the bytes of `name` before offset `before` will
    /// never be read again, so a backend may free them. What it frees is
    /// [`released`](Storage::released); offsets and [`len`](Storage::len)
    /// do not move. The default frees nothing.
    fn release(&mut self, _name: &str, _before: u64) {}

    /// The first offset of `name` still held: every byte from here on
    /// reads back, none before it does. 0 unless the backend freed a
    /// prefix after a [`release`](Storage::release); never more than
    /// was released or than [`len`](Storage::len), and it only grows
    /// until the blob is [`write`](Storage::write)n whole.
    fn released(&self, _name: &str) -> u64 {
        0
    }
}

/// `bytes` from `offset` on; empty at or past the end.
fn suffix(bytes: &[u8], offset: u64) -> &[u8] {
    usize::try_from(offset)
        .ok()
        .and_then(|at| bytes.get(at..))
        .unwrap_or_default()
}

/// Bytes per segment of a [`MemStorage`] blob: also what a release
/// frees at a time.
pub(crate) const SEGMENT: usize = 1 << 20;

/// One [`MemStorage`] blob: its bytes in order, cut into vectors of
/// `SEGMENT` bytes, less the first `freed` segments, which a release
/// dropped (the last held one may be shorter; none is empty, so equal
/// contents released at equal offsets are equal values). A log that
/// grows by appends therefore never moves what it already holds. One
/// contiguous vector doubles its way up, holding the old and the new
/// allocation at once at every step unless the allocator can extend it
/// in place; that depends on what else sits in the heap, so a process's
/// peak memory would differ from one run to the next by a whole log
/// length.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Blob {
    /// Segments `freed..`, in order.
    segments: Vec<Vec<u8>>,
    /// Leading segments released: counted in every offset, held nowhere.
    freed: usize,
}

impl Blob {
    fn len(&self) -> usize {
        self.released()
            + self
                .segments
                .last()
                .map_or(0, |last| (self.segments.len() - 1) * SEGMENT + last.len())
    }

    /// The first offset still held.
    fn released(&self) -> usize {
        self.freed * SEGMENT
    }

    fn append(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            if self.segments.last().is_none_or(|s| s.len() == SEGMENT) {
                // The first segment grows as any vector does, so a small
                // blob costs what it holds; one that filled a segment
                // will fill the next.
                let full = if self.len() == 0 { 0 } else { SEGMENT };
                self.segments.push(Vec::with_capacity(full));
            }
            let last = self.segments.last_mut().expect("just ensured");
            let (head, rest) = bytes.split_at(bytes.len().min(SEGMENT - last.len()));
            last.extend_from_slice(head);
            bytes = rest;
        }
    }

    /// # Panics
    ///
    /// Panics if `len` is before the released offset.
    fn truncate(&mut self, len: usize) {
        if len < self.len() {
            assert!(
                len >= self.released(),
                "truncating to {len}, before the released offset {}",
                self.released()
            );
            self.segments.truncate(len.div_ceil(SEGMENT) - self.freed);
            if let Some(last) = self.segments.last_mut() {
                last.truncate(len - (len - 1) / SEGMENT * SEGMENT);
            }
        }
    }

    /// Frees every whole segment before `before`.
    fn release(&mut self, before: usize) {
        let whole = (before.min(self.len()) / SEGMENT).saturating_sub(self.freed);
        self.segments.drain(..whole);
        self.freed += whole;
    }

    /// The bytes from `offset` on, contiguous; empty at or past the end.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is before the released offset.
    fn read_from(&self, offset: usize) -> Vec<u8> {
        let offset = offset.min(self.len());
        assert!(
            offset >= self.released(),
            "reading from {offset}, before the released offset {}",
            self.released()
        );
        let mut bytes = Vec::with_capacity(self.len() - offset);
        let (first, within) = (offset / SEGMENT - self.freed, offset % SEGMENT);
        for (i, segment) in self.segments.iter().enumerate().skip(first) {
            bytes.extend_from_slice(&segment[if i == first { within } else { 0 }..]);
        }
        bytes
    }
}

/// Deterministic in-memory backend for simulation: a `BTreeMap` of
/// segmented byte strings, so iteration order and recovered bytes are a
/// pure function of the operations applied.
///
/// It overrides [`Storage::release`] to free whole segments, so a log
/// the engine releases behind its older image holds that image's tail
/// and at most one segment more. Reading or truncating before
/// [`Storage::released`] panics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStorage {
    blobs: BTreeMap<String, Blob>,
}

impl MemStorage {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Names of every blob ever written, in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.blobs.keys().cloned().collect()
    }

    /// Applies `change` to the blob `name`, found with one probe; only
    /// a blob that is new costs a second, and its key's allocation.
    fn change(&mut self, name: &str, change: impl FnOnce(&mut Blob)) {
        match self.blobs.get_mut(name) {
            Some(blob) => change(blob),
            None => change(self.blobs.entry(name.to_string()).or_default()),
        }
    }
}

impl Storage for MemStorage {
    fn read(&self, name: &str) -> Vec<u8> {
        self.read_from(name, 0)
    }

    fn read_from(&self, name: &str, offset: u64) -> Vec<u8> {
        let offset = usize::try_from(offset).unwrap_or(usize::MAX);
        self.blobs
            .get(name)
            .map_or_else(Vec::new, |blob| blob.read_from(offset))
    }

    fn write(&mut self, name: &str, bytes: &[u8]) {
        self.change(name, |blob| {
            *blob = Blob::default();
            blob.append(bytes);
        });
    }

    fn append(&mut self, name: &str, bytes: &[u8]) {
        self.change(name, |blob| blob.append(bytes));
    }

    fn sync(&mut self, _name: &str) {}

    fn len(&self, name: &str) -> u64 {
        self.blobs.get(name).map_or(0, |b| b.len() as u64)
    }

    fn truncate(&mut self, name: &str, len: u64) {
        if let Some(blob) = self.blobs.get_mut(name) {
            blob.truncate(usize::try_from(len).unwrap_or(usize::MAX));
        }
    }

    /// Frees every whole segment before `before`: `released` is
    /// `before` rounded down to a segment, and no more than `len`.
    fn release(&mut self, name: &str, before: u64) {
        if let Some(blob) = self.blobs.get_mut(name) {
            blob.release(usize::try_from(before).unwrap_or(usize::MAX));
        }
    }

    fn released(&self, name: &str) -> u64 {
        self.blobs.get(name).map_or(0, |b| b.released() as u64)
    }
}

/// File-backed storage rooted at a directory, for the bench bins.
///
/// Each blob is one flat file under the root. Handles are opened per
/// operation — the engine batches appends into group commits, so the
/// open cost is paid once per commit, not once per record. `sync` maps
/// to `File::sync_all`. It keeps the provided [`Storage::release`],
/// which frees nothing: a file's prefix stays on disk.
#[derive(Debug)]
pub struct FileStorage {
    root: PathBuf,
}

impl FileStorage {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Panics
    ///
    /// Panics if the root directory cannot be created — file-backed
    /// stores are a bench/bin convenience, not a fallible service layer.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        let root = root.into();
        fs::create_dir_all(&root).expect("create FileStorage root");
        Self { root }
    }

    /// The directory this store lives in.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Storage for FileStorage {
    fn read(&self, name: &str) -> Vec<u8> {
        fs::read(self.path(name)).unwrap_or_default()
    }

    fn read_from(&self, name: &str, offset: u64) -> Vec<u8> {
        // Seeking past the end is legal and reads as empty.
        let tail = || -> std::io::Result<Vec<u8>> {
            let mut file = fs::File::open(self.path(name))?;
            file.seek(SeekFrom::Start(offset))?;
            let mut tail = Vec::new();
            file.read_to_end(&mut tail)?;
            Ok(tail)
        };
        tail().unwrap_or_default()
    }

    fn write(&mut self, name: &str, bytes: &[u8]) {
        fs::write(self.path(name), bytes).expect("FileStorage write");
    }

    fn append(&mut self, name: &str, bytes: &[u8]) {
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))
            .expect("FileStorage open for append");
        file.write_all(bytes).expect("FileStorage append");
    }

    fn sync(&mut self, name: &str) {
        if let Ok(file) = fs::OpenOptions::new().write(true).open(self.path(name)) {
            file.sync_all().expect("FileStorage sync");
        }
    }

    fn len(&self, name: &str) -> u64 {
        fs::metadata(self.path(name)).map_or(0, |m| m.len())
    }

    fn truncate(&mut self, name: &str, len: u64) {
        if let Ok(file) = fs::OpenOptions::new().write(true).open(self.path(name)) {
            if file.metadata().map_or(0, |m| m.len()) > len {
                file.set_len(len).expect("FileStorage truncate");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mem_storage_round_trips() {
        let mut s = MemStorage::new();
        assert_eq!(s.read("wal"), Vec::<u8>::new());
        assert_eq!(s.len("wal"), 0);
        s.append("wal", b"abc");
        s.append("wal", b"def");
        assert_eq!(s.read("wal"), b"abcdef");
        assert_eq!(s.len("wal"), 6);
        s.truncate("wal", 4);
        assert_eq!(s.read("wal"), b"abcd");
        s.truncate("wal", 100); // beyond end: no-op
        assert_eq!(s.len("wal"), 4);
        s.write("wal", b"xy");
        assert_eq!(s.read("wal"), b"xy");
    }

    /// What callers rely on of the container, whatever it is: the crash
    /// tests compare `MemStorage` values, and recovery reads blobs that
    /// may not exist.
    #[test]
    fn mem_storage_is_a_sorted_map_only_writes_create_blobs_in() {
        let mut s = MemStorage::new();
        // Looking never creates.
        assert_eq!(s.read("wal"), Vec::<u8>::new());
        assert!(s.read_from("wal", 3).is_empty());
        assert_eq!(s.len("wal"), 0);
        s.truncate("wal", 0);
        s.sync("wal");
        assert_eq!(s.names(), Vec::<String>::new());
        assert_eq!(s, MemStorage::new());
        // Names come back sorted however the blobs were created, and
        // equal contents are equal values whatever the creation order.
        s.append("wal", b"log");
        s.write("ckpt.b", b"image b");
        s.write("ckpt.a", b"image a");
        s.append("spool", b"");
        assert_eq!(s.names(), ["ckpt.a", "ckpt.b", "spool", "wal"]);
        let mut other = MemStorage::new();
        other.write("spool", b"");
        other.write("ckpt.a", b"image");
        other.append("ckpt.a", b" a");
        other.write("wal", b"log");
        other.append("ckpt.b", b"image b");
        assert_eq!(s, other);
        assert_eq!(other.read("ckpt.a"), b"image a");
        other.append("wal", b"!");
        assert_ne!(s, other);
        other.truncate("wal", 3);
        assert_eq!(s, other);
        // An emptied blob still exists: it is not the absent one.
        other.truncate("spool", 0);
        other.truncate("wal", 0);
        assert_eq!(other.names().len(), 4);
        assert_ne!(s, other);
    }

    /// A segmented blob is indistinguishable from one byte vector, at and
    /// around every segment boundary, and equal contents compare equal
    /// however they were arrived at.
    #[test]
    fn mem_storage_segments_are_invisible() {
        let byte = |i: usize| (i % 251) as u8;
        let mut s = MemStorage::new();
        let mut model: Vec<u8> = Vec::new();
        // Appends of sizes that straddle, end on and skip whole segments.
        for chunk in [SEGMENT - 3, 7, SEGMENT - 4, 1, 2 * SEGMENT + 5, 0, 20] {
            let bytes: Vec<u8> = (model.len()..model.len() + chunk).map(byte).collect();
            s.append("wal", &bytes);
            model.extend_from_slice(&bytes);
            assert_eq!(s.len("wal"), model.len() as u64);
        }
        assert_eq!(s.read("wal"), model);
        let end = model.len();
        for at in [
            0,
            1,
            SEGMENT - 1,
            SEGMENT,
            SEGMENT + 1,
            2 * SEGMENT,
            end - 1,
            end,
            end + 9,
        ] {
            assert_eq!(
                s.read_from("wal", at as u64),
                model[at.min(end)..],
                "offset {at}"
            );
        }
        assert!(s.read_from("wal", u64::MAX).is_empty());
        for len in [
            end + 1,
            3 * SEGMENT + 1,
            3 * SEGMENT,
            2 * SEGMENT - 1,
            SEGMENT,
            5,
            0,
        ] {
            s.truncate("wal", len as u64);
            model.truncate(len);
            assert_eq!(s.read("wal"), model, "truncated to {len}");
            assert_eq!(s.len("wal"), model.len() as u64);
            // The same bytes written in one go are the same value.
            let mut fresh = MemStorage::new();
            fresh.write("wal", &model);
            assert_eq!(s, fresh, "truncated to {len}");
            s.append("wal", &[byte(len)]);
            model.push(byte(len));
            assert_eq!(s.read("wal"), model, "appended after truncating to {len}");
        }
        s.write("wal", &model[..1]);
        assert_eq!(s.read("wal"), model[..1]);
    }

    /// One step of [`releases_free_a_prefix_and_move_nothing`]: an
    /// append of `n` bytes, a truncate to the given share (per mille) of
    /// the way from the released offset to the end, or a release before
    /// the given share of the way to a segment past the end.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Append(usize),
        Truncate(u64),
        Release(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..SEGMENT + SEGMENT / 2).prop_map(Op::Append),
            (0usize..40).prop_map(Op::Append),
            (0u64..1001).prop_map(Op::Truncate),
            (0u64..1001).prop_map(Op::Release),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Against one byte vector: a release changes no length and no
        /// byte from the released offset on, appends after it land at
        /// the model's offsets, and the released offset is whole
        /// segments, at most what was asked and never falls.
        #[test]
        fn releases_free_a_prefix_and_move_nothing(
            ops in proptest::collection::vec(op(), 1..14),
            probe in 0u64..1001,
        ) {
            let byte = |i: usize| (i % 253) as u8;
            let mut s = MemStorage::new();
            let mut model: Vec<u8> = Vec::new();
            let mut asked = 0u64;
            for op in ops {
                let (len, released) = (model.len() as u64, s.released("wal"));
                match op {
                    Op::Append(n) => {
                        let bytes: Vec<u8> = (model.len()..model.len() + n).map(byte).collect();
                        s.append("wal", &bytes);
                        model.extend_from_slice(&bytes);
                        prop_assert_eq!(s.released("wal"), released);
                    }
                    Op::Truncate(share) => {
                        let to = released + (len - released) * share / 1000;
                        s.truncate("wal", to);
                        model.truncate(to as usize);
                        prop_assert_eq!(s.released("wal"), released);
                    }
                    Op::Release(share) => {
                        let before = (len + SEGMENT as u64) * share / 1000;
                        asked = asked.max(before);
                        s.release("wal", before);
                        let whole = before.min(len) / SEGMENT as u64 * SEGMENT as u64;
                        prop_assert_eq!(s.released("wal"), released.max(whole));
                        prop_assert_eq!(s.len("wal"), len, "a release moves no length");
                    }
                }
                let (len, released) = (model.len() as u64, s.released("wal"));
                prop_assert_eq!(s.len("wal"), len);
                prop_assert_eq!(released % SEGMENT as u64, 0);
                prop_assert!(released <= asked.min(len));
                let inside = released + (len - released) * probe / 1000;
                for at in [released, inside, len.saturating_sub(1).max(released), len, len + 5] {
                    prop_assert_eq!(
                        s.read_from("wal", at),
                        &model[at.min(len) as usize..],
                        "offset {} of {}, released {}", at, len, released
                    );
                }
            }
        }
    }

    /// Released bytes are gone: reading or truncating before the
    /// released offset panics, and a whole-blob write starts over.
    #[test]
    fn released_bytes_cannot_be_read_or_truncated_into() {
        let mut s = MemStorage::new();
        s.append("wal", &vec![7; 2 * SEGMENT + 10]);
        s.release("wal", SEGMENT as u64 + 3);
        assert_eq!(s.released("wal"), SEGMENT as u64);
        s.release("wal", 5); // never falls
        assert_eq!(s.released("wal"), SEGMENT as u64);
        let fails = |f: &dyn Fn(&mut MemStorage)| {
            let mut s = s.clone();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut s))).is_err()
        };
        assert!(fails(&|s| drop(s.read("wal"))));
        assert!(fails(&|s| drop(s.read_from("wal", SEGMENT as u64 - 1))));
        assert!(fails(&|s| s.truncate("wal", SEGMENT as u64 - 1)));
        assert!(!fails(&|s| drop(s.read_from("wal", SEGMENT as u64))));
        assert!(!fails(&|s| s.truncate("wal", SEGMENT as u64)));
        // Truncated to the released offset, the blob holds nothing and
        // still grows from there.
        s.truncate("wal", SEGMENT as u64);
        s.append("wal", b"next");
        assert_eq!(s.len("wal"), SEGMENT as u64 + 4);
        assert_eq!(s.read_from("wal", SEGMENT as u64), b"next");
        s.write("wal", b"fresh");
        assert_eq!((s.released("wal"), s.read("wal")), (0, b"fresh".to_vec()));
        // Absent blobs release nothing and are not created.
        s.release("spool", 1 << 30);
        assert_eq!(s.released("spool"), 0);
        assert_eq!(s.names(), ["wal"]);
    }

    #[test]
    fn file_storage_round_trips() {
        let root = std::env::temp_dir().join(format!(
            "zmail-store-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&root);
        let mut s = FileStorage::new(&root);
        s.append("wal", b"hello ");
        s.append("wal", b"world");
        s.sync("wal");
        assert_eq!(s.read("wal"), b"hello world");
        assert_eq!(s.len("wal"), 11);
        s.truncate("wal", 5);
        assert_eq!(s.read("wal"), b"hello");
        s.write("ckpt.a", b"snap");
        assert_eq!(s.read("ckpt.a"), b"snap");
        fs::remove_dir_all(&root).unwrap();
    }
}
