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
//! A seventh, [`Storage::read_from`], is the first minus a prefix: the
//! blob from an offset on. It is a *provided* method — `read`, then
//! slice — so a backend that implements only the six keeps working;
//! [`MemStorage`], [`FileStorage`] and `FaultyStorage` override it so
//! that recovery, which replays the log from its newest checkpoint's
//! offset, copies only the bytes it replays.
//!
//! [`MemStorage`] holds a blob as fixed-size segments, not one vector:
//! an append-only log then never reallocates what it already holds, and
//! a process's peak memory does not depend on whether the allocator
//! happened to find room to grow the log in place.
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
}

/// `bytes` from `offset` on; empty at or past the end.
fn suffix(bytes: &[u8], offset: u64) -> &[u8] {
    usize::try_from(offset)
        .ok()
        .and_then(|at| bytes.get(at..))
        .unwrap_or_default()
}

/// Bytes per segment of a [`MemStorage`] blob.
const SEGMENT: usize = 1 << 20;

/// One [`MemStorage`] blob: its bytes in order, cut into vectors of
/// `SEGMENT` bytes (the last may be shorter; none is empty, so equal
/// contents are equal values). A log that grows by appends therefore
/// never moves what it already holds. One contiguous vector doubles its
/// way up, holding the old and the new allocation at once at every step
/// unless the allocator can extend it in place; that depends on what
/// else sits in the heap, so a process's peak memory would differ from
/// one run to the next by a whole log length.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Blob {
    segments: Vec<Vec<u8>>,
}

impl Blob {
    fn len(&self) -> usize {
        self.segments
            .last()
            .map_or(0, |last| (self.segments.len() - 1) * SEGMENT + last.len())
    }

    fn append(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            if self.segments.last().is_none_or(|s| s.len() == SEGMENT) {
                // The first segment grows as any vector does, so a small
                // blob costs what it holds; one that filled a segment
                // will fill the next.
                let full = if self.segments.is_empty() { 0 } else { SEGMENT };
                self.segments.push(Vec::with_capacity(full));
            }
            let last = self.segments.last_mut().expect("just ensured");
            let (head, rest) = bytes.split_at(bytes.len().min(SEGMENT - last.len()));
            last.extend_from_slice(head);
            bytes = rest;
        }
    }

    fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.segments.truncate(len.div_ceil(SEGMENT));
            if let Some(last) = self.segments.last_mut() {
                last.truncate(len - (len - 1) / SEGMENT * SEGMENT);
            }
        }
    }

    /// The bytes from `offset` on, contiguous; empty at or past the end.
    fn read_from(&self, offset: usize) -> Vec<u8> {
        let offset = offset.min(self.len());
        let mut bytes = Vec::with_capacity(self.len() - offset);
        let (first, within) = (offset / SEGMENT, offset % SEGMENT);
        for (i, segment) in self.segments.iter().enumerate().skip(first) {
            bytes.extend_from_slice(&segment[if i == first { within } else { 0 }..]);
        }
        bytes
    }
}

/// Deterministic in-memory backend for simulation: a `BTreeMap` of
/// segmented byte strings, so iteration order and recovered bytes are a
/// pure function of the operations applied.
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
            blob.truncate(0);
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
}

/// File-backed storage rooted at a directory, for the bench bins.
///
/// Each blob is one flat file under the root. Handles are opened per
/// operation — the engine batches appends into group commits, so the
/// open cost is paid once per commit, not once per record. `sync` maps
/// to `File::sync_all`.
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
