//! Storage faults: a [`FaultyStorage`] wrapper modelling what disks
//! actually do to a write-ahead log.
//!
//! The wrapper splits every blob into two images:
//!
//! * the **durable** image — whatever the wrapped backend holds; this
//!   is what survives [`FaultyStorage::crash`];
//! * the **volatile** overlay — durable plus every write since the last
//!   sync; this is what reads observe while the process lives.
//!
//! `sync` normally promotes the overlay to the durable image. The three
//! fault hooks cover the classic recovery hazards:
//!
//! * [`FaultyStorage::arm_partial_sync`] — the *torn write*: the next
//!   sync persists only a prefix of the un-synced bytes, then the crash
//!   leaves a half-written final record;
//! * [`FaultyStorage::tear_tail`] — chop bytes off a blob's durable
//!   tail after the fact (a lying disk that acked and lost);
//! * [`FaultyStorage::corrupt_byte`] — flip bits in the durable image
//!   (media corruption in a WAL frame or a checkpoint slot).
//!
//! Everything is caller-driven and consumes no randomness, keeping the
//! wrapper deterministic under the crate's plan+seed discipline. The
//! recovery properties in `tests/storage_faults.rs` drive a real
//! `zmail_store::LedgerStore` through each hazard and check the engine
//! detects and truncates — never silently applies — the damage.

use std::collections::BTreeMap;
use zmail_store::Storage;

/// Deterministic counters of what the wrapper did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageFaultCounters {
    /// Syncs that persisted everything.
    pub full_syncs: u64,
    /// Syncs cut short by an armed partial-sync fault.
    pub partial_syncs: u64,
    /// Crashes simulated (volatile overlays discarded).
    pub crashes: u64,
    /// Volatile bytes lost across all crashes.
    pub bytes_lost: u64,
    /// Durable bytes removed by [`FaultyStorage::tear_tail`].
    pub bytes_torn: u64,
    /// Bytes flipped by [`FaultyStorage::corrupt_byte`].
    pub bytes_corrupted: u64,
}

/// A [`Storage`] wrapper with a durable/volatile split and caller-driven
/// crash, torn-write, and corruption faults.
#[derive(Debug)]
pub struct FaultyStorage<S: Storage> {
    durable: S,
    /// Blobs with un-synced changes: the full current contents.
    volatile: BTreeMap<String, Vec<u8>>,
    /// When armed: the next sync persists at most this many of the
    /// blob's un-synced bytes, then disarms.
    partial_sync: Option<u64>,
    counters: StorageFaultCounters,
}

impl<S: Storage> FaultyStorage<S> {
    /// Wraps a backend whose current contents become the durable image.
    pub fn new(durable: S) -> Self {
        FaultyStorage {
            durable,
            volatile: BTreeMap::new(),
            partial_sync: None,
            counters: StorageFaultCounters::default(),
        }
    }

    /// Arms the torn-write fault: the next [`Storage::sync`] persists
    /// only the first `bytes` of that blob's un-synced suffix.
    pub fn arm_partial_sync(&mut self, bytes: u64) {
        self.partial_sync = Some(bytes);
    }

    /// Simulates a crash: every un-synced change is gone; reads now see
    /// exactly the durable image.
    pub fn crash(&mut self) {
        for (name, cur) in std::mem::take(&mut self.volatile) {
            let kept = self.durable.len(&name);
            self.counters.bytes_lost += (cur.len() as u64).saturating_sub(kept);
        }
        self.partial_sync = None;
        self.counters.crashes += 1;
    }

    /// Chops `bytes` off the *durable* tail of `name` — an acked write
    /// the device lost anyway. Clears any volatile overlay so reads see
    /// the damage.
    pub fn tear_tail(&mut self, name: &str, bytes: u64) {
        let len = self.durable.len(name);
        let cut = bytes.min(len);
        self.durable.truncate(name, len - cut);
        self.volatile.remove(name);
        self.counters.bytes_torn += cut;
    }

    /// XORs `mask` into the durable byte of `name` at `at` (no-op past
    /// the end). Clears any volatile overlay.
    pub fn corrupt_byte(&mut self, name: &str, at: u64, mask: u8) {
        let mut bytes = self.durable.read(name);
        if let Some(b) = bytes.get_mut(at as usize) {
            *b ^= mask;
            self.durable.write(name, &bytes);
            self.counters.bytes_corrupted += 1;
        }
        self.volatile.remove(name);
    }

    /// The fault counters so far.
    pub fn counters(&self) -> StorageFaultCounters {
        self.counters
    }

    /// Read access to the durable backend.
    pub fn durable(&self) -> &S {
        &self.durable
    }

    /// Unwraps the durable backend, dropping volatile state (as a crash
    /// would).
    pub fn into_durable(self) -> S {
        self.durable
    }

    /// The current (volatile) contents of `name`.
    fn current(&self, name: &str) -> Vec<u8> {
        self.volatile
            .get(name)
            .cloned()
            .unwrap_or_else(|| self.durable.read(name))
    }

    fn current_mut(&mut self, name: &str) -> &mut Vec<u8> {
        if !self.volatile.contains_key(name) {
            let bytes = self.durable.read(name);
            self.volatile.insert(name.to_string(), bytes);
        }
        self.volatile.get_mut(name).expect("just inserted")
    }
}

impl<S: Storage> Storage for FaultyStorage<S> {
    fn read(&self, name: &str) -> Vec<u8> {
        self.current(name)
    }

    fn read_from(&self, name: &str, offset: u64) -> Vec<u8> {
        match self.volatile.get(name) {
            Some(cur) => usize::try_from(offset)
                .ok()
                .and_then(|at| cur.get(at..))
                .unwrap_or_default()
                .to_vec(),
            None => self.durable.read_from(name, offset),
        }
    }

    fn write(&mut self, name: &str, bytes: &[u8]) {
        *self.current_mut(name) = bytes.to_vec();
    }

    fn append(&mut self, name: &str, bytes: &[u8]) {
        self.current_mut(name).extend_from_slice(bytes);
    }

    fn sync(&mut self, name: &str) {
        let Some(cur) = self.volatile.remove(name) else {
            return; // nothing un-synced
        };
        match self.partial_sync.take() {
            Some(keep) => {
                let durable_len = self.durable.len(name).min(cur.len() as u64);
                let persist = (durable_len + keep).min(cur.len() as u64);
                self.durable.write(name, &cur[..persist as usize]);
                // The rest stays volatile: still readable, still doomed.
                if persist < cur.len() as u64 {
                    self.volatile.insert(name.to_string(), cur);
                }
                self.counters.partial_syncs += 1;
            }
            None => {
                self.durable.write(name, &cur);
                self.durable.sync(name);
                self.counters.full_syncs += 1;
            }
        }
    }

    fn len(&self, name: &str) -> u64 {
        self.volatile
            .get(name)
            .map_or_else(|| self.durable.len(name), |b| b.len() as u64)
    }

    fn truncate(&mut self, name: &str, len: u64) {
        let cur = self.current_mut(name);
        if (len as usize) < cur.len() {
            cur.truncate(len as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zmail_store::MemStorage;

    #[test]
    fn unsynced_bytes_die_in_the_crash_synced_survive() {
        let mut s = FaultyStorage::new(MemStorage::new());
        s.append("wal", b"durable|");
        s.sync("wal");
        s.append("wal", b"doomed");
        assert_eq!(s.read("wal"), b"durable|doomed", "reads see the overlay");
        s.crash();
        assert_eq!(s.read("wal"), b"durable|");
        assert_eq!(s.counters().crashes, 1);
        assert_eq!(s.counters().bytes_lost, 6);
    }

    #[test]
    fn partial_sync_persists_a_prefix_and_disarms() {
        let mut s = FaultyStorage::new(MemStorage::new());
        s.append("wal", b"base|");
        s.sync("wal");
        s.append("wal", b"0123456789");
        s.arm_partial_sync(4);
        s.sync("wal");
        // Live reads still see everything…
        assert_eq!(s.read("wal"), b"base|0123456789");
        s.crash();
        // …but only the torn prefix survived.
        assert_eq!(s.read("wal"), b"base|0123");
        assert_eq!(s.counters().partial_syncs, 1);
        // Disarmed: the next sync is a normal one.
        s.append("wal", b"!");
        s.sync("wal");
        s.crash();
        assert_eq!(s.read("wal"), b"base|0123!");
    }

    #[test]
    fn tear_and_corrupt_hit_the_durable_image() {
        let mut s = FaultyStorage::new(MemStorage::new());
        s.append("wal", b"abcdef");
        s.sync("wal");
        s.tear_tail("wal", 2);
        assert_eq!(s.read("wal"), b"abcd");
        s.corrupt_byte("wal", 0, 0x20);
        assert_eq!(s.read("wal"), b"Abcd");
        s.corrupt_byte("wal", 99, 0xFF); // past the end: no-op
        assert_eq!(s.counters().bytes_torn, 2);
        assert_eq!(s.counters().bytes_corrupted, 1);
    }

    #[test]
    fn truncate_and_write_stay_volatile_until_synced() {
        let mut s = FaultyStorage::new(MemStorage::new());
        s.append("wal", b"0123456789");
        s.sync("wal");
        s.truncate("wal", 3);
        s.write("other", b"fresh");
        assert_eq!(s.read("wal"), b"012");
        assert_eq!(s.len("wal"), 3);
        s.crash();
        assert_eq!(
            s.read("wal"),
            b"0123456789",
            "un-synced truncate rolls back"
        );
        assert_eq!(s.read("other"), b"", "un-synced blob never existed");
    }
}
