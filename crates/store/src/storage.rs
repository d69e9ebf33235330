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
use std::io::Write as _;
use std::path::PathBuf;

/// A named-blob byte store.
///
/// Implementations must behave like a directory of flat files with the
/// semantics described at [module level](self).
pub trait Storage {
    /// The full contents of `name` (empty if the blob was never written).
    fn read(&self, name: &str) -> Vec<u8>;

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

/// Deterministic in-memory backend for simulation: a `BTreeMap` of byte
/// vectors, so iteration order and recovered bytes are a pure function
/// of the operations applied.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStorage {
    blobs: BTreeMap<String, Vec<u8>>,
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

    /// The blob `name`, created empty if absent; the key is only
    /// allocated on that first touch.
    fn blob_mut(&mut self, name: &str) -> &mut Vec<u8> {
        if !self.blobs.contains_key(name) {
            self.blobs.insert(name.to_string(), Vec::new());
        }
        self.blobs
            .get_mut(name)
            .expect("blob present or just inserted")
    }
}

impl Storage for MemStorage {
    fn read(&self, name: &str) -> Vec<u8> {
        self.blobs.get(name).cloned().unwrap_or_default()
    }

    fn write(&mut self, name: &str, bytes: &[u8]) {
        let blob = self.blob_mut(name);
        blob.clear();
        blob.extend_from_slice(bytes);
    }

    fn append(&mut self, name: &str, bytes: &[u8]) {
        self.blob_mut(name).extend_from_slice(bytes);
    }

    fn sync(&mut self, _name: &str) {}

    fn len(&self, name: &str) -> u64 {
        self.blobs.get(name).map_or(0, |b| b.len() as u64)
    }

    fn truncate(&mut self, name: &str, len: u64) {
        if let Some(blob) = self.blobs.get_mut(name) {
            if (len as usize) < blob.len() {
                blob.truncate(len as usize);
            }
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
