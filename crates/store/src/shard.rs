//! The sharded ledger engine: N independent WALs, one economy.
//!
//! A single [`LedgerStore`] serializes every book
//! mutation through one WAL, which caps a deployment at whatever one
//! log can sustain. [`ShardedLedgerStore`] splits the books across N
//! engine instances — each with its own WAL, group commit, and
//! checkpoint slots — while keeping the paper's zero-sum audit exact:
//!
//! * [`ShardMap`] assigns every user account to a shard by a **stable,
//!   seed-independent hash** ([`stable_account_hash`], FNV-1a over the
//!   account id's little-endian bytes — never `DefaultHasher`, whose
//!   `RandomState` would scramble shard assignment between runs). Each
//!   ISP's pool/credit array and each bank's books get a single owner
//!   shard the same way.
//! * Records touching one account route to that account's shard, with
//!   user indices rewritten into the shard-local index space.
//! * Mutations spanning two shards (a counter purchase whose pool lives
//!   elsewhere) become **two-phase transfers**: an
//!   [`XferPrepare`](LedgerRecord::XferPrepare) on the source shard
//!   applies the debit leg and records the credit leg owed — the
//!   shard-local outbox entry — then an
//!   [`XferApply`](LedgerRecord::XferApply) lands the credit on the
//!   destination and an [`XferRelease`](LedgerRecord::XferRelease)
//!   closes the entry. Both the apply and the release are **deferred**
//!   and flushed in batch: `commit_all` first group-commits every
//!   shard (all outstanding prepares become durable at once — no
//!   per-transfer forced sync), then journals and commits the pending
//!   applies, then the releases. The wave order is the durability
//!   invariant: no ordering of per-shard crashes can surface a credit
//!   without its debit, or a released prepare whose credit was lost.
//!   Until its apply is flushed, a pending credit leg is overlaid on
//!   [`ShardedLedgerStore::books`] and on the [`Ledger`] row reads — a
//!   user leg on [`Ledger::user`], a pool leg on [`Ledger::pool`] — so
//!   the live view stays exactly conserved between ticks.
//! * The store is the durable [`Ledger`], at any shard count: a commit
//!   is routed to the shard that owns its row and journaled only if it
//!   fits ([`Ledger::try_commit`]), a row is read from the shard that
//!   owns it, and the per-shard [`LedgerStore`] engines are reached
//!   through [`ShardedLedgerStore::shard`].
//! * Recovery scans every shard's full WAL for unreleased prepares and
//!   **rolls them forward**: if the destination never journaled the
//!   apply, it is appended now; either way the release is. A crash
//!   between the phases therefore lands on fully-applied (or, when the
//!   prepare itself was torn, fully-reverted) — never a half-transfer,
//!   so conservation drift is exactly 0. The engine never truncates a
//!   WAL at checkpoint time, which is what makes the full scan sound.
//!   Every shard is read in the caller's thread and folded, with its
//!   scan, on up to `min(shards, available_parallelism())` scoped
//!   workers; the scans are absorbed in shard order, so the result is
//!   the one-shard-at-a-time one.
//!   The scan leans on the order the engine writes in — xids ascend, and
//!   a shard releases its prepares in the order it made them — so the
//!   open prepares of a log are a FIFO (a prepare pushes, its release
//!   pops the front) and the applied xids a bitset; a log in any other
//!   order is searched instead and means what it always meant, and an
//!   absurd xid spills to an ordered set so memory follows the record
//!   count.
//! * Questions about the whole economy are answered shard by shard:
//!   [`ShardedLedgerStore::epennies_found`] sums the supply and
//!   [`ShardedLedgerStore::recovers_live_books`] compares what a restart
//!   would rebuild with the live books without assembling a merged
//!   image (at a million accounts, 24 MB built to be read once);
//!   [`ShardedLedgerStore::books`] and
//!   [`ShardedLedgerStore::simulate_recovery`] remain for callers that
//!   want the image itself.
//!
//! With one shard the map is the identity, every record routes
//! unchanged to shard 0, and the WAL bytes are identical to an
//! unsharded [`LedgerStore`] — sharding is a pure
//! refinement, which the equivalence property tests pin down. No
//! transfer record can exist in that log, so one-shard recovery skips
//! the full scan and, like the unsharded engine, reads only the tail
//! behind the newest checkpoint.
//!
//! Telemetry lands in the global `zmail-obs` registry under `shard.*`
//! ([`ShardMetrics`]).

use crate::books::{pool_applied, BankBooks, Books, IspBooks, Ledger, PoolRow, Refused, UserBooks};
use crate::engine::{
    self, LedgerStore, Loaded, Observer, Recovered, RecoveryReport, StoreConfig, WAL,
};
use crate::record::{LedgerRecord, XferKind, XferLeg};
use crate::storage::Storage;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;
use std::time::Instant;
use zmail_obs::{Counter, Histogram};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Stable, seed-independent hash of a user account id. FNV-1a over a
/// domain tag plus the id's fixed little-endian encoding: the same
/// `(isp, user)` hashes identically on every run, platform, and build,
/// so shard assignment — and therefore every report derived from it —
/// is reproducible.
pub fn stable_account_hash(isp: u32, user: u32) -> u64 {
    let mut bytes = [0u8; 9];
    bytes[0] = 0x01;
    bytes[1..5].copy_from_slice(&isp.to_le_bytes());
    bytes[5..9].copy_from_slice(&user.to_le_bytes());
    fnv1a(&bytes)
}

/// Stable hash assigning an ISP's pool (and credit array) an owner
/// shard; a distinct domain tag keeps pools from colliding with user 0.
pub fn stable_pool_hash(isp: u32) -> u64 {
    let mut bytes = [0u8; 5];
    bytes[0] = 0x02;
    bytes[1..5].copy_from_slice(&isp.to_le_bytes());
    fnv1a(&bytes)
}

/// Stable hash assigning a bank's books an owner shard.
pub fn stable_bank_hash(bank: u32) -> u64 {
    let mut bytes = [0u8; 5];
    bytes[0] = 0x03;
    bytes[1..5].copy_from_slice(&bank.to_le_bytes());
    fnv1a(&bytes)
}

/// The deployment's account-to-shard assignment, fixed at open time
/// from the bootstrap books' shape.
///
/// Every shard's [`Books`] keeps the global ISP and bank indices (so
/// records need no ISP rewriting) but holds only the *users it owns*,
/// reindexed densely in ascending global order. Pool/credit state lives
/// only on the pool-owner shard; bank books only on the bank-owner.
/// [`ShardMap::split`] and [`ShardMap::merge`] convert between the
/// global books and the per-shard slices and are exact inverses, which
/// the round-trip proptest pins down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    shards: u32,
    /// `users[isp][user]` — the owning shard of a global account and the
    /// account's index inside that shard's slice of the ISP, packed into
    /// one word by [`pack`]: routing a record needs both, at a million
    /// accounts each look-up is a cache miss, and a second word per
    /// account would be 4 MB more.
    users: Vec<Vec<u32>>,
    /// `owned[shard][isp]` — global user indices the shard holds, in
    /// ascending order (the shard-local index space).
    owned: Vec<Vec<Vec<u32>>>,
    /// Owner shard of each ISP's pool and credit array.
    pool_shard: Vec<u32>,
    /// Owner shard of each bank's books.
    bank_shard: Vec<u32>,
}

impl ShardMap {
    /// Builds the assignment for `shards` shards over the deployment
    /// shape in `template` (user counts per ISP, bank count).
    ///
    /// # Panics
    ///
    /// Panics if one shard's slice of an ISP holds more accounts than a
    /// route has bits left for the local index: 2^32 at one shard, 2^31
    /// at two, 2^22 at 1,024.
    pub fn new(shards: u32, template: &Books) -> ShardMap {
        let shards = shards.max(1);
        let bits = local_bits(shards);
        let isps = template.isps.len();
        let mut users = Vec::with_capacity(isps);
        let mut owned = vec![vec![Vec::new(); isps]; shards as usize];
        for (i, isp) in template.isps.iter().enumerate() {
            let mut placed = Vec::with_capacity(isp.users.len());
            for u in 0..isp.users.len() as u32 {
                let s = (stable_account_hash(i as u32, u) % u64::from(shards)) as u32;
                placed.push(pack(s, owned[s as usize][i].len(), bits, i));
                owned[s as usize][i].push(u);
            }
            users.push(placed);
        }
        let pool_shard = (0..isps as u32)
            .map(|i| (stable_pool_hash(i) % u64::from(shards)) as u32)
            .collect();
        let bank_shard = (0..template.banks.len() as u32)
            .map(|b| (stable_bank_hash(b) % u64::from(shards)) as u32)
            .collect();
        ShardMap {
            shards,
            users,
            owned,
            pool_shard,
            bank_shard,
        }
    }

    /// Number of shards in the assignment.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Owning shard of a global user account, and the account's index
    /// inside that shard's slice of the ISP.
    pub fn locate(&self, isp: u32, user: u32) -> (u32, u32) {
        self.unpack(self.users[isp as usize][user as usize])
    }

    /// [`locate`](Self::locate), or `None` for an account outside the
    /// books.
    fn try_locate(&self, isp: u32, user: u32) -> Option<(u32, u32)> {
        let route = *self.users.get(isp as usize)?.get(user as usize)?;
        Some(self.unpack(route))
    }

    /// The `(shard, local)` pair a [`pack`]ed route holds.
    fn unpack(&self, route: u32) -> (u32, u32) {
        let bits = local_bits(self.shards);
        let shard = (u64::from(route) >> bits) as u32;
        (shard, (u64::from(route) & ((1 << bits) - 1)) as u32)
    }

    /// Owning shard of a global user account.
    pub fn user_shard(&self, isp: u32, user: u32) -> u32 {
        self.locate(isp, user).0
    }

    /// Shard-local index of a global user account.
    pub fn user_local(&self, isp: u32, user: u32) -> u32 {
        self.locate(isp, user).1
    }

    /// Owner shard of an ISP's pool and credit array.
    pub fn pool_shard(&self, isp: u32) -> u32 {
        self.pool_shard[isp as usize]
    }

    /// Owner shard of a bank's books.
    pub fn bank_shard(&self, bank: u32) -> u32 {
        self.bank_shard[bank as usize]
    }

    /// Whether a prepare's credit leg can land: its destination shard
    /// `dst` exists and holds the row the leg names, in that shard's
    /// index space.
    pub(crate) fn lands(&self, dst: u32, credit: XferLeg) -> bool {
        let Some(isps) = self.owned.get(dst as usize) else {
            return false;
        };
        isps.get(credit.isp as usize).is_some_and(|users| {
            account_of(&credit).is_none_or(|(_, user)| (user as usize) < users.len())
        })
    }

    /// Splits global books into the N per-shard slices.
    pub fn split(&self, books: &Books) -> Vec<Books> {
        (0..self.shards as usize)
            .map(|s| Books {
                isps: books
                    .isps
                    .iter()
                    .enumerate()
                    .map(|(i, isp)| {
                        let pool = self.pool_shard[i] as usize == s;
                        IspBooks {
                            users: self.owned[s][i]
                                .iter()
                                .map(|&g| isp.users[g as usize])
                                .collect(),
                            avail: if pool { isp.avail } else { 0 },
                            credit: if pool { isp.credit.clone() } else { Vec::new() },
                            nonces: if pool { isp.nonces.clone() } else { Vec::new() },
                        }
                    })
                    .collect(),
                banks: books
                    .banks
                    .iter()
                    .enumerate()
                    .map(|(b, bank)| {
                        if self.bank_shard[b] as usize == s {
                            bank.clone()
                        } else {
                            BankBooks::default()
                        }
                    })
                    .collect(),
            })
            .collect()
    }

    /// Merges N per-shard slices back into global books; the exact
    /// inverse of [`ShardMap::split`].
    ///
    /// # Panics
    ///
    /// Panics if the slices do not match this map's shape.
    pub fn merge(&self, parts: &[Books]) -> Books {
        self.merge_refs(&parts.iter().collect::<Vec<_>>())
    }

    /// [`ShardMap::merge`] over borrowed slices (avoids cloning each
    /// shard's books just to merge them).
    pub fn merge_refs(&self, parts: &[&Books]) -> Books {
        assert_eq!(parts.len(), self.shards as usize, "shard count mismatch");
        // Each shard's slice is read front to back (local indices ascend
        // with global ones) and every global row is written once.
        let isps = self
            .users
            .iter()
            .enumerate()
            .map(|(i, users)| {
                let owner = parts[self.pool_shard[i] as usize];
                IspBooks {
                    users: users
                        .iter()
                        .map(|&route| {
                            let (s, local) = self.unpack(route);
                            parts[s as usize].isps[i].users[local as usize]
                        })
                        .collect(),
                    avail: owner.isps[i].avail,
                    credit: owner.isps[i].credit.clone(),
                    nonces: owner.isps[i].nonces.clone(),
                }
            })
            .collect();
        let banks = self
            .bank_shard
            .iter()
            .enumerate()
            .map(|(b, &s)| parts[s as usize].banks[b].clone())
            .collect();
        Books { isps, banks }
    }
}

/// Bits of a route that hold the local index: 32 less ⌈log2 `shards`⌉,
/// which the shard id takes at the top (none at one shard).
fn local_bits(shards: u32) -> u32 {
    (shards - 1).leading_zeros()
}

/// One word for an account of ISP `isp` on `shard` at index `local` of
/// that shard's slice: the shard above the low `bits` bits, the local
/// index in them.
///
/// # Panics
///
/// Panics if `local` needs more than `bits` bits.
fn pack(shard: u32, local: usize, bits: u32, isp: usize) -> u32 {
    assert!(
        (local as u64) < 1 << bits,
        "ISP {isp} has more than 2^{bits} accounts on shard {shard}: \
         a route holds the shard id and the local index in 32 bits"
    );
    ((u64::from(shard) << bits) | local as u64) as u32
}

/// Aggregate of one sharded recovery pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardRecoveryReport {
    /// Per-shard engine recovery reports, in shard order.
    pub shards: Vec<RecoveryReport>,
    /// In-doubt transfers rolled forward with a fresh credit apply (the
    /// destination had not journaled the apply before the crash).
    pub resolved_forward: u64,
    /// In-doubt transfers closed with only a release (the credit had
    /// already landed durably on the destination).
    pub resolved_acked: u64,
}

impl ShardRecoveryReport {
    /// Total WAL records replayed across shards.
    pub fn replayed_records(&self) -> u64 {
        self.shards.iter().map(|r| r.replayed_records).sum()
    }

    /// Highest checkpoint sequence recovered on any shard.
    pub fn checkpoint_seq(&self) -> Option<u64> {
        self.shards.iter().filter_map(|r| r.checkpoint_seq).max()
    }

    /// Shards whose WAL carried a torn or corrupt tail.
    pub fn torn_tails(&self) -> u32 {
        self.shards.iter().filter(|r| r.torn_tail).count() as u32
    }
}

/// Whether a deployment of `shards` shards can have journaled a two-phase
/// transfer. With one shard source and destination always coincide, no
/// `Xfer*` record is ever written, and recovery is the unsharded
/// engine's: no observer, so only the tail it replays is read.
fn journals_transfers(shards: usize) -> bool {
    shards > 1
}

/// Log bytes a fold must have per thread before a thread is spawned for
/// it. Folding costs ≈3 ns a byte (the benchmark's `recovery` cell folds
/// 3.4 MB in ≈10 ms on one thread) and a scoped thread's spawn and join
/// ≈42 µs (two vCPUs of an Intel Xeon under KVM), the fold of ≈14 KB; at
/// 64 KiB a thread saves several times what it costs. A store opened on
/// empty backends spawns none.
const FOLD_BYTES_PER_WORKER: u64 = 1 << 16;

/// How many threads a recovery of `shards` shards holding `log_bytes` of
/// WAL folds on: one per shard, up to the CPUs this process may run on,
/// and no more than the log pays for ([`FOLD_BYTES_PER_WORKER`]). The
/// host is asked once a process (the answer reads cgroup files).
fn fold_workers(shards: usize, log_bytes: u64) -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    let cpus = *CPUS.get_or_init(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let paid = usize::try_from(log_bytes / FOLD_BYTES_PER_WORKER).unwrap_or(usize::MAX);
    cpus.min(shards).min(paid).max(1)
}

/// One shard's recovery, folded, and what its log says about transfers.
type Folded = (Recovered, XferScan);

/// Reads every shard's recovery with `read`, in shard order and in the
/// caller's thread, and folds them on up to `workers` threads, each
/// taking a contiguous group of shards: a group is handed to a scoped
/// thread as soon as it is read, so it folds while the caller reads the
/// next, and the caller folds the last group itself. With one worker
/// (one shard, one allowed CPU, or a short log) the caller folds each
/// shard as soon as it has read it.
///
/// Every shard's observer and [`XferScan`] are built on the thread that
/// folds it, into slots the caller allocated, so a worker allocates
/// nothing the caller keeps and frees only the log it folded; nothing
/// here runs a backend off the caller's thread, so `S` needs no `Send` or
/// `Sync`. The result is in shard order. A worker's panic is raised
/// again in the caller with its own payload.
fn fold_shards(
    map: &ShardMap,
    shards: usize,
    workers: usize,
    mut read: impl FnMut(usize) -> Loaded,
) -> Vec<Folded> {
    let observed = journals_transfers(shards);
    let fold_one = |loaded: Loaded| -> Folded {
        let mut scan = XferScan::default();
        let mut visit = |rec: &LedgerRecord| scan.observe(rec);
        let lands = |dst, credit| map.lands(dst, credit);
        let observer = observed.then_some(Observer {
            lands: &lands,
            visit: &mut visit,
        });
        let recovered = engine::fold(loaded, observer);
        (recovered, scan)
    };
    let workers = workers.clamp(1, shards.max(1));
    if workers == 1 {
        return (0..shards).map(|shard| fold_one(read(shard))).collect();
    }
    let fold_group = |loaded: &mut [Loaded], folded: &mut [Folded]| {
        for (loaded, folded) in loaded.iter_mut().zip(folded) {
            *folded = fold_one(std::mem::take(loaded));
        }
    };
    let mut loaded: Vec<Loaded> = (0..shards).map(|_| Loaded::default()).collect();
    let mut folded: Vec<Folded> = (0..shards).map(|_| Folded::default()).collect();
    std::thread::scope(|scope| {
        let fold_group = &fold_group;
        let mut spawned = Vec::with_capacity(workers - 1);
        let (mut unread, mut unfolded) = (&mut loaded[..], &mut folded[..]);
        let mut first = 0;
        for group in 1..=workers {
            let end = group * shards / workers;
            let (inputs, rest) = std::mem::take(&mut unread).split_at_mut(end - first);
            let (outputs, rest_out) = std::mem::take(&mut unfolded).split_at_mut(end - first);
            (unread, unfolded) = (rest, rest_out);
            for (shard, input) in (first..end).zip(inputs.iter_mut()) {
                *input = read(shard);
            }
            if group < workers {
                spawned.push(scope.spawn(move || fold_group(inputs, outputs)));
            } else {
                fold_group(inputs, outputs);
            }
            first = end;
        }
        for worker in spawned {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    folded
}

/// A growable set of small integers, one bit each.
#[derive(Debug, Default)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn insert(&mut self, i: usize) {
        if i / 64 >= self.words.len() {
            self.words.resize(i / 64 + 1, 0);
        }
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|word| word >> (i % 64) & 1 == 1)
    }

    fn union_with(&mut self, other: &BitSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (word, theirs) in self.words.iter_mut().zip(&other.words) {
            *word |= theirs;
        }
    }
}

/// The transfer ids one log applied. The engine hands xids out densely
/// from 0, so a bit per xid is the whole set; an xid too large for the
/// number of applies seen so far — which no log this engine wrote
/// carries — goes to an ordered spill instead, so a CRC-valid log with
/// an absurd xid costs memory by its record count, not by the xid.
#[derive(Debug, Default)]
struct XidSet {
    dense: BitSet,
    spill: BTreeSet<u64>,
    inserts: u64,
}

impl XidSet {
    /// Words the bitset may run ahead of the insert count: with the
    /// `inserts` term this caps it at 8 bytes per apply — what a plain
    /// list of the xids would cost — plus 8 KiB.
    const SLACK_WORDS: u64 = 1024;

    fn insert(&mut self, xid: u64) {
        self.inserts += 1;
        match usize::try_from(xid) {
            Ok(bit) if xid / 64 <= self.inserts + Self::SLACK_WORDS => self.dense.insert(bit),
            _ => {
                self.spill.insert(xid);
            }
        }
    }

    fn contains(&self, xid: u64) -> bool {
        usize::try_from(xid).is_ok_and(|bit| self.dense.contains(bit)) || self.spill.contains(&xid)
    }

    fn union_with(&mut self, other: XidSet) {
        self.dense.union_with(&other.dense);
        self.spill.extend(other.spill);
    }
}

/// What one shard's full WAL scan says about two-phase transfers.
#[derive(Debug, Default)]
struct XferScan {
    /// Unreleased prepares journaled here, as `(xid, dst shard, credit
    /// leg)`, ascending by xid and one per xid. The engine prepares in
    /// ascending xid order and releases in the same order, so in a log
    /// it wrote a prepare is a push at the back and a release a pop at
    /// the front, and the queue never holds more than one flush's
    /// prepares. Any other sequence of records falls back to a binary
    /// search and means what it would in a map ordered by xid.
    prepared: VecDeque<(u64, u32, XferLeg)>,
    /// Applies journaled here.
    applied: XidSet,
    /// Highest xid seen in any transfer record.
    max_xid: Option<u64>,
}

impl XferScan {
    /// Folds in the next record of the shard's log (the engine's
    /// recovery pass shows every record of the valid log, in order).
    fn observe(&mut self, rec: &LedgerRecord) {
        let xid = match *rec {
            LedgerRecord::XferPrepare {
                xid, dst, credit, ..
            } => {
                let entry = (xid, dst, credit);
                match self.prepared.back() {
                    Some(&(newest, ..)) if xid <= newest => match self.position(xid) {
                        Ok(at) => self.prepared[at] = entry,
                        Err(at) => self.prepared.insert(at, entry),
                    },
                    _ => self.prepared.push_back(entry),
                }
                xid
            }
            LedgerRecord::XferApply { xid, .. } => {
                self.applied.insert(xid);
                xid
            }
            LedgerRecord::XferRelease { xid } => {
                match self.prepared.front() {
                    Some(&(oldest, ..)) if oldest == xid => {
                        self.prepared.pop_front();
                    }
                    _ => {
                        if let Ok(at) = self.position(xid) {
                            self.prepared.remove(at);
                        }
                    }
                }
                xid
            }
            _ => return,
        };
        self.max_xid = Some(self.max_xid.map_or(xid, |m| m.max(xid)));
    }

    /// Where `xid` is, or would go, in `prepared`.
    fn position(&self, xid: u64) -> Result<usize, usize> {
        self.prepared.binary_search_by_key(&xid, |&(at, ..)| at)
    }
}

/// Every shard's [`XferScan`] folded together: the transfers recovery
/// must finish.
#[derive(Debug, Default)]
struct InDoubt {
    /// Unreleased prepares as `(xid, source shard, dst shard, credit
    /// leg)`, ascending by xid and one per xid.
    prepared: Vec<(u64, usize, u32, XferLeg)>,
    /// Applies journaled on any shard.
    applied: XidSet,
    /// One past the highest xid in any shard's log.
    next_xid: u64,
}

impl InDoubt {
    /// Folds in one shard's scan; shards are absorbed in shard order.
    fn absorb(&mut self, shard: usize, scan: XferScan) {
        self.prepared.extend(
            scan.prepared
                .into_iter()
                .map(|(xid, dst, credit)| (xid, shard, dst, credit)),
        );
        self.applied.union_with(scan.applied);
        if let Some(max) = scan.max_xid {
            self.next_xid = self.next_xid.max(max.saturating_add(1));
        }
    }

    /// Orders what the shards left open, once every shard is absorbed.
    fn sealed(mut self) -> InDoubt {
        // Only what no shard released is left to sort. An xid two shards
        // both hold open (no log this engine wrote) is the higher
        // shard's.
        self.prepared
            .sort_unstable_by_key(|&(xid, shard, ..)| (xid, Reverse(shard)));
        self.prepared.dedup_by_key(|&mut (xid, ..)| xid);
        self
    }

    /// Rolls every unreleased prepare forward, in ascending-xid order so
    /// resolution is deterministic: `land(xid, dst, credit)` is called
    /// for each credit leg whose apply no shard journaled; the rest only
    /// need their release. A leg `land` refuses — its row holds a sum the
    /// credit would overflow, which no log the engine wrote leads to — is
    /// counted nowhere, and its prepare is released all the same, so the
    /// debit stands alone and a reopen resolves nothing twice.
    fn resolve(
        &self,
        report: &mut ShardRecoveryReport,
        mut land: impl FnMut(u64, usize, XferLeg) -> bool,
    ) {
        for &(xid, _, dst, credit) in &self.prepared {
            if self.applied.contains(xid) {
                report.resolved_acked += 1;
            } else if land(xid, dst as usize, credit) {
                report.resolved_forward += 1;
            }
        }
    }
}

/// The account whose user state a leg moves — in whichever index space
/// the leg is in — or `None` for a pool leg, which carries none and
/// routes by its ISP alone.
fn account_of(leg: &XferLeg) -> Option<(u32, u32)> {
    match leg.kind {
        XferKind::PoolBuy | XferKind::PoolSell => None,
        XferKind::Charge
        | XferKind::Deposit
        | XferKind::CounterBuy
        | XferKind::CounterSell
        | XferKind::Grant => Some((leg.isp, leg.user)),
    }
}

/// How many cross-shard transfers share one `shard.xfer_micros` sample.
const XFER_TIMED_EVERY: u64 = 64;

/// The outbox overlay's hasher. It packs an `(isp, user)` key into one
/// word and multiplies it by an odd constant, a bijection, so no two
/// accounts share a hash; the rotation brings the product's well-mixed
/// high bits down to where the table takes its bucket index. It is
/// fixed rather than seeded: the overlay iterates the same way in every
/// process, and its keys are the deployment's own indices.
#[derive(Default)]
struct AccountHasher(u64);

impl Hasher for AccountHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.0 = (self.0 << 32) | u64::from(word);
    }

    fn finish(&self) -> u64 {
        self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(26)
    }
}

/// A cross-shard transfer whose apply has not been journaled yet: the
/// batched outbox entry. The prepare (and its debit) is already in the
/// source shard's WAL buffer; the credit exists only here until
/// [`ShardedLedgerStore::commit_all`] (or the non-commuting-record
/// safety flush) journals the `XferApply`.
#[derive(Debug, Clone, Copy)]
struct PendingXfer {
    src: usize,
    dst: usize,
    xid: u64,
    /// Credit leg in the destination shard's local index space — the
    /// bytes the deferred `XferApply` will journal.
    credit_local: XferLeg,
    /// The same credit leg in *global* index space, overlaid on
    /// [`ShardedLedgerStore::books`] and the [`Ledger`] row reads until
    /// the apply lands.
    credit_global: XferLeg,
}

/// N independent ledger engines presenting one exactly-conserved economy.
#[derive(Debug)]
pub struct ShardedLedgerStore<S: Storage> {
    map: ShardMap,
    stores: Vec<LedgerStore<S>>,
    next_xid: u64,
    /// Cross-shard transfers whose applies are deferred to the next
    /// flush. An apply must never be durable before its prepare — a
    /// durable apply with a lost prepare is a half-transfer — so the
    /// apply is only journaled once every involved source shard's
    /// prepares have been group-committed, which batches what used to
    /// be a forced sync per transfer into one sync per shard per tick.
    pending_xfers: Vec<PendingXfer>,
    /// Per-account aggregate of the pending credit legs that carry user
    /// state (a pool leg carries none) — each leg applied to zeroed
    /// [`UserBooks`] — kept in lockstep with `pending_xfers` (updated on
    /// push, cleared on drain) so `user` reads are a lookup, not a scan
    /// of an outbox that grows with the whole tick. A read cache, hashed
    /// because every cross-shard send probes it twice (its sender's row
    /// read and its credit); `clear` at the flush keeps the table, so
    /// only the first ticks grow it.
    pending_user_deltas: HashMap<(u32, u32), UserBooks, BuildHasherDefault<AccountHasher>>,
    /// What the pending pool legs owe each ISP's pool — a counter sale
    /// whose user and pool live apart credits the pool from the outbox —
    /// so a pool row reads as [`books`](Self::books) reads it.
    pending_pool_deltas: BTreeMap<u32, i64>,
    /// Releases owed but not yet journaled: `(source shard, xid)` pairs
    /// whose destination apply has not been committed yet. A release
    /// must never be durable before its apply — a durable release with
    /// a lost apply makes recovery skip the prepare and strand the
    /// credit — so the release is only appended (and then committed)
    /// inside [`Self::commit_all`], after every shard's group commit
    /// has made the pending applies durable.
    pending_releases: Vec<(usize, u64)>,
}

impl<S: Storage> ShardedLedgerStore<S> {
    /// Opens one engine per backend (shard count = `storages.len()`),
    /// runs per-shard recovery, then resolves in-doubt cross-shard
    /// transfers by rolling them forward. `bootstrap` is the global
    /// deployment books, split across shards by the [`ShardMap`].
    ///
    /// # Panics
    ///
    /// Panics if `storages` is empty.
    pub fn open(
        storages: Vec<S>,
        config: StoreConfig,
        bootstrap: Books,
    ) -> (Self, ShardRecoveryReport) {
        assert!(!storages.is_empty(), "at least one shard required");
        let map = ShardMap::new(storages.len() as u32, &bootstrap);
        let parts = map.split(&bootstrap);
        // Each engine is about to clone its part: give the global
        // books' memory back first so the copies can reuse it.
        drop(bootstrap);
        let shards = storages.len();
        let observed = journals_transfers(shards);
        let log_bytes = storages.iter().map(|storage| storage.len(WAL)).sum();
        let folded = fold_shards(&map, shards, fold_workers(shards, log_bytes), |s| {
            engine::read(&storages[s], &parts[s], observed)
        });
        let mut stores = Vec::with_capacity(shards);
        let mut reports = Vec::with_capacity(shards);
        let mut in_doubt = InDoubt::default();
        let engines = storages.into_iter().zip(parts).zip(folded);
        for (s, ((storage, part), (recovered, scan))) in engines.enumerate() {
            in_doubt.absorb(s, scan);
            let (store, report) = LedgerStore::recovered(storage, config, part, recovered);
            stores.push(store);
            reports.push(report);
        }
        let in_doubt = in_doubt.sealed();
        let mut sharded = ShardedLedgerStore {
            map,
            stores,
            next_xid: in_doubt.next_xid,
            pending_xfers: Vec::new(),
            pending_user_deltas: HashMap::default(),
            pending_pool_deltas: BTreeMap::new(),
            pending_releases: Vec::new(),
        };
        let mut report = ShardRecoveryReport {
            shards: reports,
            resolved_forward: 0,
            resolved_acked: 0,
        };
        sharded.resolve_in_doubt(&in_doubt, &mut report);
        let m = ShardMetrics::get();
        m.resolved_forward.add(report.resolved_forward);
        m.resolved_acked.add(report.resolved_acked);
        (sharded, report)
    }

    /// Completes the unreleased prepares the per-shard recovery passes
    /// found through the normal append path: the credit is applied on the
    /// destination unless its apply already survived, and the release is
    /// journaled on the source.
    fn resolve_in_doubt(&mut self, found: &InDoubt, report: &mut ShardRecoveryReport) {
        // Same durability order as the live path: make every replayed
        // apply durable first, then journal the releases, so a crash
        // mid-resolution can never leave a released prepare whose apply
        // was lost.
        found.resolve(report, |xid, dst, leg| {
            self.stores[dst].try_append(&LedgerRecord::XferApply { xid, leg })
        });
        if report.resolved_forward > 0 {
            self.commit_all();
        }
        for &(xid, src, ..) in &found.prepared {
            self.stores[src].append(&LedgerRecord::XferRelease { xid });
        }
        if !found.prepared.is_empty() {
            self.commit_all();
        }
    }

    /// [`Ledger::commit`]: routes one global-index record to its shard(s)
    /// — see [`try_commit`](Ledger::try_commit). Both run `try_route`,
    /// which takes the record by reference, so `append` does not copy it.
    ///
    /// # Panics
    ///
    /// Panics if the record does not fit the books, and on the internal
    /// transfer variants (`UserCounter*`, `Xfer*`) — those are emitted by
    /// the engine, never routed into it.
    pub fn append(&mut self, rec: &LedgerRecord) {
        if self.try_route(rec).is_err() {
            panic!("record does not fit the books: {rec:?}");
        }
    }

    /// Whether `rec` touches a row the outbox still owes a credit leg: a
    /// user row with a pending user leg, or a pool row with a pending
    /// pool leg.
    fn owes(&self, rec: &LedgerRecord) -> bool {
        if self.pending_xfers.is_empty() {
            return false;
        }
        let (account, pool) = match *rec {
            LedgerRecord::Charge { isp, user }
            | LedgerRecord::Deposit { isp, user }
            | LedgerRecord::Grant { isp, user, .. } => (Some((isp, user)), None),
            LedgerRecord::UserBuy { isp, user, .. } | LedgerRecord::UserSell { isp, user, .. } => {
                (Some((isp, user)), Some(isp))
            }
            LedgerRecord::PoolBuy { isp, .. } | LedgerRecord::PoolSell { isp, .. } => {
                (None, Some(isp))
            }
            _ => (None, None),
        };
        account.is_some_and(|account| self.pending_user_deltas.contains_key(&account))
            || pool.is_some_and(|isp| self.pending_pool_deltas.contains_key(&isp))
    }

    /// Journals `rec(local)` on the shard that holds account `(isp,
    /// user)` as its `local`-th user, if the books hold that account and
    /// the record fits its row.
    fn try_append_user(
        &mut self,
        isp: u32,
        user: u32,
        rec: impl FnOnce(u32) -> LedgerRecord,
    ) -> bool {
        (self.map.try_locate(isp, user))
            .is_some_and(|(s, local)| self.stores[s as usize].try_append(&rec(local)))
    }

    /// Moves value between two book locations, given as legs in
    /// *global* index space. Same shard: two plain appends. Different
    /// shards: the two-phase prepare/apply/release protocol, with the
    /// apply and release deferred to the next flush so a tick's worth
    /// of transfers shares one group commit per shard.
    pub fn transfer(&mut self, debit: XferLeg, credit: XferLeg) {
        let credit_global = credit;
        let (src, debit) = self.localize(debit);
        let (dst, credit) = self.localize(credit);
        let m = ShardMetrics::get();
        m.xfers.inc();
        if src == dst {
            m.same_shard.inc();
            if let (XferKind::PoolSell, XferKind::CounterBuy) = (debit.kind, credit.kind) {
                // Collapse back into the single-record form so a 1-shard
                // deployment journals byte-identical WALs to the
                // unsharded engine.
                self.stores[src].append(&LedgerRecord::UserBuy {
                    isp: credit.isp,
                    user: credit.user,
                    amount: credit.amount,
                });
            } else if let (XferKind::CounterSell, XferKind::PoolBuy) = (debit.kind, credit.kind) {
                self.stores[src].append(&LedgerRecord::UserSell {
                    isp: debit.isp,
                    user: debit.user,
                    amount: debit.amount,
                });
            } else {
                self.stores[src].append(&debit.record());
                self.stores[src].append(&credit.record());
            }
            return;
        }
        m.cross_shard.inc();
        let xid = self.next_xid;
        self.next_xid = xid.checked_add(1).expect("transfer ids exhausted");
        // Two clock reads cost more than the routing between them, so one
        // transfer in `XFER_TIMED_EVERY` is timed; the counters are exact.
        let timer = (xid.is_multiple_of(XFER_TIMED_EVERY) && zmail_obs::global().is_enabled())
            .then(Instant::now);
        self.stores[src].append(&LedgerRecord::XferPrepare {
            xid,
            dst: dst as u32,
            debit,
            credit,
        });
        // The apply is *deferred* into the batched outbox rather than
        // journaled (let alone force-committed) here: an apply must
        // never be durable before its prepare, and the destination's
        // group commit is outside this shard's control — so the apply
        // only gets journaled once the prepares are durable, inside
        // `commit_all` (or the safety flush). That removes the forced
        // sync this path used to pay per transfer; until the flush, the
        // credit leg is overlaid on reads. A transfer that never
        // flushes is safe: the uncommitted prepare tears off and both
        // legs vanish together, or a durable prepare resolves forward
        // at the next open.
        self.pending_xfers.push(PendingXfer {
            src,
            dst,
            xid,
            credit_local: credit,
            credit_global,
        });
        match account_of(&credit_global) {
            Some(account) => {
                let owed = self.pending_user_deltas.entry(account).or_default();
                *owed = owed.owe(&credit_global.record());
            }
            None => {
                let owed = self.pending_pool_deltas.entry(credit_global.isp);
                match credit_global.kind {
                    XferKind::PoolSell => *owed.or_default() -= credit_global.amount,
                    _ => *owed.or_default() += credit_global.amount,
                }
            }
        }
        if let Some(start) = timer {
            m.xfer_micros.record_duration(start.elapsed());
        }
    }

    /// Journals every pending apply, preserving the durability order:
    /// first group-commit each involved source shard (prepares become
    /// durable), then append the applies (each also lands its credit on
    /// the destination's books, retiring the read overlay) and queue
    /// the releases. Called by [`Self::commit_all`] and, defensively,
    /// before routing records whose application does not commute with
    /// an addition (`DailyReset`/`SnapshotMarker`/`LimitSet` overwrite
    /// state) so WAL order always reproduces the live books.
    fn flush_pending_applies(&mut self) {
        if self.pending_xfers.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending_xfers);
        self.pending_user_deltas.clear();
        self.pending_pool_deltas.clear();
        let mut sources = BitSet::default();
        for p in &pending {
            sources.insert(p.src);
        }
        for (src, store) in self.stores.iter_mut().enumerate() {
            if sources.contains(src) {
                store.commit();
            }
        }
        for p in pending {
            self.stores[p.dst].append(&LedgerRecord::XferApply {
                xid: p.xid,
                leg: p.credit_local,
            });
            self.pending_releases.push((p.src, p.xid));
        }
    }

    /// Resolves a global-index leg to (owning shard, shard-local leg).
    fn localize(&self, leg: XferLeg) -> (usize, XferLeg) {
        match account_of(&leg) {
            None => (self.map.pool_shard(leg.isp) as usize, leg),
            Some((isp, user)) => {
                let (s, user) = self.map.locate(isp, user);
                (s as usize, XferLeg { user, ..leg })
            }
        }
    }

    /// Flushes the tick in three waves, each gated on the durability of
    /// the one before — the invariant of the transfer protocol:
    ///
    /// 1. group-commit every shard, making all outstanding
    ///    `XferPrepare`s (and everything else buffered) durable at
    ///    once;
    /// 2. journal and commit the deferred `XferApply`s — each lands its
    ///    credit on the destination's books, retiring the read overlay;
    /// 3. journal and commit the `XferRelease`s, which can now never
    ///    outlive a lost apply.
    ///
    /// A tick's worth of cross-shard transfers therefore costs a
    /// bounded number of syncs (per *shard*, not per transfer).
    pub fn commit_all(&mut self) {
        self.commit_shards();
        if !self.pending_xfers.is_empty() {
            // Its source commits find nothing buffered after wave 1.
            self.flush_pending_applies();
            self.commit_shards();
        }
        if !self.pending_releases.is_empty() {
            for (src, xid) in std::mem::take(&mut self.pending_releases) {
                self.stores[src].append(&LedgerRecord::XferRelease { xid });
            }
            self.commit_shards();
        }
        ShardMetrics::get().commits.inc();
    }

    /// Group-commits every shard; a no-op on one with nothing buffered.
    fn commit_shards(&mut self) {
        for store in &mut self.stores {
            store.commit();
        }
    }

    /// Forces a checkpoint on every shard.
    pub fn checkpoint_all(&mut self) {
        for store in &mut self.stores {
            store.checkpoint();
        }
    }

    /// The merged global books, reassembled from the live shards, with
    /// any pending (not yet flushed) cross-shard credit legs overlaid —
    /// so the view is exactly conserved even mid-tick, while the
    /// batched outbox still owes its applies.
    pub fn books(&self) -> Books {
        let parts: Vec<&Books> = self.stores.iter().map(|s| s.books()).collect();
        let mut books = self.map.merge_refs(&parts);
        for p in &self.pending_xfers {
            books.apply(&p.credit_global.record());
        }
        books
    }

    /// Every e-penny on the merged books — what
    /// [`books`](Self::books)`().epennies_found()` would say — summed
    /// shard by shard, pending credit legs included, without assembling
    /// the merged image.
    pub fn epennies_found(&self) -> i64 {
        let journaled: i64 = self
            .stores
            .iter()
            .map(|store| store.books().epennies_found())
            .sum();
        let owed_users: i64 = self.pending_user_deltas.values().map(|d| d.balance).sum();
        journaled + owed_users + self.pending_pool_deltas.values().sum::<i64>()
    }

    /// What a restart *right now* would reconstruct, without mutating
    /// anything: per-shard engine recovery plus the in-doubt transfer
    /// resolution applied to the recovered images, merged back to
    /// global books. Pure over the backends' bytes.
    pub fn simulate_recovery(&self) -> (Books, ShardRecoveryReport) {
        let (parts, report) = self.recover_parts();
        (self.map.merge(&parts), report)
    }

    /// Whether a restart *right now* would rebuild the live books —
    /// [`simulate_recovery`](Self::simulate_recovery)`().0 ==`
    /// [`books`](Self::books)`()` — decided shard by shard, pending
    /// credit legs overlaid on the live side as `books` overlays them,
    /// without assembling either merged image.
    pub fn recovers_live_books(&self) -> (bool, ShardRecoveryReport) {
        let (parts, report) = self.recover_parts();
        let exact = parts.iter().enumerate().all(|(s, recovered)| {
            let live = self.stores[s].books();
            if self.pending_xfers.iter().all(|p| p.dst != s) {
                return recovered == live;
            }
            let mut live = live.clone();
            for p in self.pending_xfers.iter().filter(|p| p.dst == s) {
                live.apply(&p.credit_local.record());
            }
            *recovered == live
        });
        (exact, report)
    }

    /// Per-shard engine recovery with the in-doubt transfers resolved on
    /// the recovered images, in shard order.
    fn recover_parts(&self) -> (Vec<Books>, ShardRecoveryReport) {
        let shards = self.stores.len();
        let observed = journals_transfers(shards);
        let log_bytes = self.stores.iter().map(|s| s.storage().len(WAL)).sum();
        let folded = fold_shards(&self.map, shards, fold_workers(shards, log_bytes), |s| {
            self.stores[s].read_recovery(observed)
        });
        let mut parts = Vec::with_capacity(shards);
        let mut report = ShardRecoveryReport::default();
        let mut in_doubt = InDoubt::default();
        for (s, (recovered, scan)) in folded.into_iter().enumerate() {
            in_doubt.absorb(s, scan);
            parts.push(recovered.books);
            report.shards.push(recovered.report);
        }
        in_doubt.sealed().resolve(&mut report, |_, dst, leg| {
            parts[dst].try_apply(&leg.record())
        });
        (parts, report)
    }

    /// The account-to-shard assignment.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.stores.len()
    }

    /// Read access to one shard's engine.
    pub fn shard(&self, i: usize) -> &LedgerStore<S> {
        &self.stores[i]
    }

    /// Mutable access to one shard's engine (fault injection hooks).
    pub fn shard_mut(&mut self, i: usize) -> &mut LedgerStore<S> {
        &mut self.stores[i]
    }

    /// Total records appended across shards.
    pub fn records_appended(&self) -> u64 {
        self.stores.iter().map(|s| s.records_appended()).sum()
    }

    /// Records buffered but not yet committed, across shards.
    pub fn pending_records(&self) -> usize {
        self.stores.iter().map(|s| s.pending_records()).sum()
    }

    /// Total valid WAL bytes across shards.
    pub fn wal_len(&self) -> u64 {
        self.stores.iter().map(|s| s.wal_len()).sum()
    }

    /// Consumes the store, returning the backends in shard order.
    pub fn into_storages(self) -> Vec<S> {
        self.stores.into_iter().map(|s| s.into_storage()).collect()
    }
}

/// The durable ledger: a commit is routed to the shard that owns its row
/// and journaled there, and a row is read from that shard with what the
/// outbox still owes it added on — the row
/// [`books`](ShardedLedgerStore::books) holds, without the merge.
impl<S: Storage> Ledger for ShardedLedgerStore<S> {
    fn user(&self, isp: u32, user: u32) -> UserBooks {
        let (s, local) = self.map.locate(isp, user);
        let books = self.stores[s as usize].books().isps[isp as usize].users[local as usize];
        match self.pending_user_deltas.get(&(isp, user)) {
            Some(delta) => books.plus(delta),
            None => books,
        }
    }

    fn pool(&self, isp: u32) -> PoolRow<'_> {
        let owner = &self.stores[self.map.pool_shard(isp) as usize];
        let mut row = owner.books().isps[isp as usize].pool();
        if let Some(owed) = self.pending_pool_deltas.get(&isp) {
            row.avail += owed;
        }
        row
    }

    fn bank(&self, bank: u32) -> &BankBooks {
        &self.stores[self.map.bank_shard(bank) as usize]
            .books()
            .banks[bank as usize]
    }

    /// Routes `rec` to its shard(s) and journals it there, if replay
    /// would apply it to [`books`](ShardedLedgerStore::books): the routing
    /// [`append`](ShardedLedgerStore::append) runs, refusing where it
    /// panics.
    fn try_commit(&mut self, rec: LedgerRecord) -> Result<(), Refused> {
        self.try_route(&rec)
    }

    /// [`append`](ShardedLedgerStore::append), which reads `rec` where
    /// the caller built it: the provided method copies it first, to keep
    /// it for the panic message.
    fn commit(&mut self, rec: LedgerRecord) {
        self.append(&rec);
    }
}

impl<S: Storage> ShardedLedgerStore<S> {
    /// Routes one global-index record to its shard(s) and journals it
    /// there, if replay would apply it to [`books`](Self::books).
    /// Single-account records are rewritten into the owning shard's local
    /// index space and go straight to that engine, which applies a record
    /// only if it fits and journals only what it applied. A counter
    /// buy/sell checks both of its rows first and, when its user and pool
    /// live on different shards, becomes a two-phase transfer.
    ///
    /// Pending credit legs are additions, so they commute with a record
    /// that lands on another row and stay deferred across it. A record
    /// that *overwrites* state (`DailyReset`, `SnapshotMarker`,
    /// `LimitSet`), or that lands on a row the outbox still owes a credit,
    /// flushes the outbox first: the journal order is then the order the
    /// books saw, and the row is checked as [`Ledger::user`] and
    /// [`Ledger::pool`] read it, with no credit left to land after it that
    /// could overflow.
    ///
    /// # Panics
    ///
    /// Panics on the internal transfer variants (`UserCounter*`, `Xfer*`)
    /// — those are emitted by the engine, never routed into it.
    fn try_route(&mut self, rec: &LedgerRecord) -> Result<(), Refused> {
        let overwrites = matches!(
            *rec,
            LedgerRecord::DailyReset { .. }
                | LedgerRecord::SnapshotMarker { .. }
                | LedgerRecord::LimitSet { .. }
        );
        if overwrites || self.owes(rec) {
            self.flush_pending_applies();
        }
        let fits = match *rec {
            LedgerRecord::Charge { isp, user } => {
                self.try_append_user(isp, user, |user| LedgerRecord::Charge { isp, user })
            }
            LedgerRecord::Deposit { isp, user } => {
                self.try_append_user(isp, user, |user| LedgerRecord::Deposit { isp, user })
            }
            LedgerRecord::Grant { isp, user, amount } => {
                self.try_append_user(isp, user, |user| LedgerRecord::Grant { isp, user, amount })
            }
            LedgerRecord::LimitSet { isp, user, limit } => {
                self.try_append_user(isp, user, |user| LedgerRecord::LimitSet {
                    isp,
                    user,
                    limit,
                })
            }
            LedgerRecord::CreditDelta { isp, .. }
            | LedgerRecord::SnapshotMarker { isp }
            | LedgerRecord::NonceSeen { isp, .. }
            | LedgerRecord::PoolBuy { isp, .. }
            | LedgerRecord::PoolSell { isp, .. } => (self.map.pool_shard.get(isp as usize))
                .is_some_and(|&s| self.stores[s as usize].try_append(rec)),
            LedgerRecord::BankBuy { bank, .. } | LedgerRecord::BankSell { bank, .. } => {
                (self.map.bank_shard.get(bank as usize))
                    .is_some_and(|&s| self.stores[s as usize].try_append(rec))
            }
            LedgerRecord::DailyReset { isp } => {
                let Some(&pool) = self.map.pool_shard.get(isp as usize) else {
                    return Err(Refused);
                };
                // Every shard holding users of this ISP resets its slice;
                // a user-less ISP still journals the marker on its pool
                // owner so the record never silently disappears.
                let mut any = false;
                for s in 0..self.stores.len() {
                    if !self.map.owned[s][isp as usize].is_empty() {
                        self.stores[s].append(rec);
                        any = true;
                    }
                }
                if !any {
                    self.stores[pool as usize].append(rec);
                }
                true
            }
            LedgerRecord::UserBuy { isp, user, amount }
            | LedgerRecord::UserSell { isp, user, amount } => {
                // Two rows, perhaps on two shards: both legs are checked
                // before the first record is written.
                let fits = self.map.try_locate(isp, user).is_some()
                    && self.map.pool_shard.get(isp as usize).is_some()
                    && self.user(isp, user).applied(rec).is_some()
                    && pool_applied(self.pool(isp).avail, rec).is_some();
                let pool = |kind| XferLeg {
                    kind,
                    isp,
                    user: 0,
                    amount,
                };
                let counter = |kind| XferLeg {
                    kind,
                    isp,
                    user,
                    amount,
                };
                // A buy: the pool pays out (debit), the user's account buys
                // in (credit). A sale the other way round.
                let (debit, credit) = match *rec {
                    LedgerRecord::UserBuy { .. } => {
                        (pool(XferKind::PoolSell), counter(XferKind::CounterBuy))
                    }
                    _ => (counter(XferKind::CounterSell), pool(XferKind::PoolBuy)),
                };
                if fits {
                    self.transfer(debit, credit);
                }
                fits
            }
            LedgerRecord::UserCounterBuy { .. }
            | LedgerRecord::UserCounterSell { .. }
            | LedgerRecord::XferPrepare { .. }
            | LedgerRecord::XferApply { .. }
            | LedgerRecord::XferRelease { .. } => {
                panic!("internal shard record cannot be routed: {rec:?}")
            }
        };
        if fits {
            Ok(())
        } else {
            Err(Refused)
        }
    }
}

/// Handle set for the `shard` layer, registered once against
/// [`zmail_obs::global()`].
#[derive(Debug)]
pub struct ShardMetrics {
    /// Transfers routed, same- or cross-shard (`shard.xfers`).
    pub xfers: Counter,
    /// Transfers whose legs shared a shard (`shard.same_shard`).
    pub same_shard: Counter,
    /// Two-phase cross-shard transfers (`shard.cross_shard`).
    pub cross_shard: Counter,
    /// Cross-shard transfer routing latency in µs
    /// (`shard.xfer_micros`). Sync-free since the batched outbox: the
    /// prepare is journaled here but group-committed with the tick, so
    /// this measures routing cost, not storage latency.
    pub xfer_micros: Histogram,
    /// `commit_all` rounds (`shard.commits`).
    pub commits: Counter,
    /// In-doubt transfers rolled forward at recovery
    /// (`shard.resolved_forward`).
    pub resolved_forward: Counter,
    /// In-doubt transfers already applied, closed with a release
    /// (`shard.resolved_acked`).
    pub resolved_acked: Counter,
}

impl ShardMetrics {
    /// The process-wide handle set, created on first use against the
    /// global registry.
    pub fn get() -> &'static ShardMetrics {
        static METRICS: OnceLock<ShardMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let r = zmail_obs::global();
            ShardMetrics {
                xfers: r.counter("shard.xfers"),
                same_shard: r.counter("shard.same_shard"),
                cross_shard: r.counter("shard.cross_shard"),
                xfer_micros: r.histogram("shard.xfer_micros"),
                commits: r.counter("shard.commits"),
                resolved_forward: r.counter("shard.resolved_forward"),
                resolved_acked: r.counter("shard.resolved_acked"),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WAL;
    use crate::storage::MemStorage;

    fn bootstrap(isps: u32, users: u32) -> Books {
        Books {
            isps: (0..isps)
                .map(|_| IspBooks {
                    users: vec![
                        UserBooks {
                            account: 1_000,
                            balance: 100,
                            sent_today: 0,
                            limit: 100,
                        };
                        users as usize
                    ],
                    avail: 5_000,
                    credit: vec![0; isps as usize],
                    nonces: Vec::new(),
                })
                .collect(),
            banks: vec![BankBooks {
                accounts: vec![1_000_000; isps as usize],
                issued: 0,
            }],
        }
    }

    fn storages(n: usize) -> Vec<MemStorage> {
        (0..n).map(|_| MemStorage::new()).collect()
    }

    #[test]
    fn account_hash_is_stable_across_calls_and_distinct_by_domain() {
        assert_eq!(
            stable_account_hash(3, 41),
            stable_account_hash(3, 41),
            "hash must be a pure function of the id"
        );
        assert_ne!(stable_account_hash(0, 0), stable_pool_hash(0));
        assert_ne!(stable_pool_hash(0), stable_bank_hash(0));
        // FNV-1a of the 9-byte account encoding, fixed forever: a change
        // here silently reshards every deployment.
        assert_eq!(
            stable_account_hash(0, 0),
            fnv1a(&[1, 0, 0, 0, 0, 0, 0, 0, 0])
        );
    }

    #[test]
    fn split_merge_round_trips() {
        let books = bootstrap(3, 7);
        for shards in [1, 2, 3, 8] {
            let map = ShardMap::new(shards, &books);
            let parts = map.split(&books);
            assert_eq!(parts.len(), shards as usize);
            assert_eq!(map.merge(&parts), books, "{shards} shards");
        }
    }

    /// Every packed route answers the pair the hash and ascending local
    /// order give, at shard counts on both sides of powers of two and at
    /// 1,024, and an account outside the books has none.
    #[test]
    fn packed_routes_answer_the_hash_and_ascending_local_order() {
        let (isps, users) = (3, 3_000);
        let books = bootstrap(isps, users);
        for shards in [1, 2, 3, 4, 16, 17, 1024] {
            let map = ShardMap::new(shards, &books);
            for isp in 0..isps {
                let mut next = vec![0; shards as usize];
                for user in 0..users {
                    let shard = (stable_account_hash(isp, user) % u64::from(shards)) as u32;
                    let route = (shard, next[shard as usize]);
                    next[shard as usize] += 1;
                    assert_eq!(
                        map.locate(isp, user),
                        route,
                        "{shards} shards, {isp}/{user}"
                    );
                    assert_eq!(map.try_locate(isp, user), Some(route));
                }
                assert_eq!(map.try_locate(isp, users), None);
            }
            assert_eq!(map.try_locate(isps, 0), None);
            assert_eq!(map.merge(&map.split(&books)), books, "{shards} shards");
        }
    }

    /// The local index gets what the shard id leaves of 32 bits: the
    /// largest index that fits packs and unpacks whole, one more is
    /// refused by a panic that names the ISP.
    #[test]
    fn a_slice_too_large_for_its_route_is_refused() {
        for (shards, bits) in [
            (1, 32),
            (2, 31),
            (3, 30),
            (4, 30),
            (16, 28),
            (17, 27),
            (1024, 22),
        ] {
            assert_eq!(local_bits(shards), bits, "{shards} shards");
            let (top, last) = (shards - 1, (1usize << bits) - 1);
            let map = ShardMap::new(shards, &Books::default());
            assert_eq!(map.unpack(pack(top, last, bits, 0)), (top, last as u32));
            let refused = std::panic::catch_unwind(|| pack(top, last + 1, bits, 7))
                .expect_err("an index past the bits left must be refused");
            let message = refused
                .downcast_ref::<String>()
                .expect("a formatted message");
            assert!(message.contains("ISP 7"), "{message}");
        }
    }

    #[test]
    fn one_shard_wal_is_byte_identical_to_the_unsharded_engine() {
        let records = vec![
            LedgerRecord::Charge { isp: 0, user: 1 },
            LedgerRecord::Deposit { isp: 1, user: 0 },
            LedgerRecord::UserBuy {
                isp: 0,
                user: 1,
                amount: 25,
            },
            LedgerRecord::UserSell {
                isp: 1,
                user: 2,
                amount: 5,
            },
            LedgerRecord::DailyReset { isp: 0 },
            LedgerRecord::SnapshotMarker { isp: 1 },
            LedgerRecord::BankBuy {
                bank: 0,
                isp: 0,
                value: 100,
                cost: 10,
            },
        ];
        let (mut plain, _) =
            LedgerStore::open(MemStorage::new(), StoreConfig::default(), bootstrap(2, 3));
        let (mut sharded, _) =
            ShardedLedgerStore::open(storages(1), StoreConfig::default(), bootstrap(2, 3));
        for rec in &records {
            plain.append(rec);
            sharded.append(rec);
        }
        plain.commit();
        sharded.commit_all();
        assert_eq!(sharded.books(), plain.books().clone());
        assert_eq!(
            sharded.shard(0).storage().read(WAL),
            plain.storage().read(WAL),
            "1-shard WAL must be byte-identical"
        );
    }

    #[test]
    fn sharded_books_match_unsharded_for_any_shard_count() {
        let records = vec![
            LedgerRecord::Charge { isp: 0, user: 0 },
            LedgerRecord::Charge { isp: 2, user: 4 },
            LedgerRecord::Deposit { isp: 1, user: 3 },
            LedgerRecord::UserBuy {
                isp: 2,
                user: 1,
                amount: 40,
            },
            LedgerRecord::UserSell {
                isp: 0,
                user: 2,
                amount: 15,
            },
            LedgerRecord::CreditDelta {
                isp: 1,
                peer: 2,
                delta: 3,
            },
            LedgerRecord::DailyReset { isp: 2 },
            LedgerRecord::LimitSet {
                isp: 1,
                user: 1,
                limit: 9,
            },
            LedgerRecord::Grant {
                isp: 0,
                user: 4,
                amount: 7,
            },
        ];
        let mut reference = bootstrap(3, 5);
        for rec in &records {
            reference.apply(rec);
        }
        for shards in [1usize, 2, 4, 16] {
            let (mut sharded, _) =
                ShardedLedgerStore::open(storages(shards), StoreConfig::default(), bootstrap(3, 5));
            for rec in &records {
                sharded.append(rec);
            }
            sharded.commit_all();
            assert_eq!(sharded.books(), reference, "{shards} shards");
            let (recovered, _) = sharded.simulate_recovery();
            assert_eq!(recovered, reference, "{shards} shards recovered");
        }
    }

    #[test]
    fn cross_shard_transfer_conserves_and_recovers() {
        let boot = bootstrap(4, 6);
        let total = boot.epennies_found();
        let (mut sharded, _) = ShardedLedgerStore::open(storages(4), StoreConfig::default(), boot);
        for user in 0..6u32 {
            sharded.append(&LedgerRecord::UserBuy {
                isp: user % 4,
                user,
                amount: 10,
            });
        }
        sharded.commit_all();
        assert_eq!(sharded.books().epennies_found(), total);
        let (recovered, report) = sharded.simulate_recovery();
        assert_eq!(recovered, sharded.books());
        assert_eq!(
            report.resolved_forward, 0,
            "completed transfers need no help"
        );
        // Reopen from the raw backends: same books, no drift.
        let backends = sharded.into_storages();
        let (reopened, _) =
            ShardedLedgerStore::open(backends, StoreConfig::default(), bootstrap(4, 6));
        assert_eq!(reopened.books().epennies_found(), total);
    }

    /// Storage wrapper counting syncs, to pin the batched-outbox win. It
    /// keeps the provided `release`, which frees nothing.
    #[derive(Debug)]
    struct CountingStorage {
        inner: MemStorage,
        syncs: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl Storage for CountingStorage {
        fn read(&self, name: &str) -> Vec<u8> {
            self.inner.read(name)
        }
        fn write(&mut self, name: &str, bytes: &[u8]) {
            self.inner.write(name, bytes)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) {
            self.inner.append(name, bytes)
        }
        fn sync(&mut self, name: &str) {
            self.syncs
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.sync(name)
        }
        fn len(&self, name: &str) -> u64 {
            self.inner.len(name)
        }
        fn truncate(&mut self, name: &str, len: u64) {
            self.inner.truncate(name, len)
        }
    }

    /// Finds a (isp, user) whose account and pool live on different
    /// shards, so `UserBuy` takes the cross-shard path.
    fn cross_shard_user(map: &ShardMap, isps: u32, users: u32) -> (u32, u32) {
        for isp in 0..isps {
            for user in 0..users {
                if map.user_shard(isp, user) != map.pool_shard(isp) {
                    return (isp, user);
                }
            }
        }
        panic!("no cross-shard account in a {isps}x{users} deployment");
    }

    #[test]
    fn pending_transfers_overlay_reads_until_the_flush() {
        let (mut sharded, _) =
            ShardedLedgerStore::open(storages(4), StoreConfig::default(), bootstrap(4, 6));
        let (isp, user) = cross_shard_user(sharded.map(), 4, 6);
        let mut reference = bootstrap(4, 6);
        let leg = |kind| XferLeg {
            kind,
            isp,
            user,
            amount: 10,
        };
        let kinds = [
            XferKind::Charge,
            XferKind::Deposit,
            XferKind::PoolBuy,
            XferKind::PoolSell,
            XferKind::CounterBuy,
            XferKind::CounterSell,
            XferKind::Grant,
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            // The debit lives across the shard boundary from the credit
            // under test: the pool for a user leg, the user for a pool leg.
            let credit = leg(kind);
            let debit = match kind {
                XferKind::PoolBuy | XferKind::PoolSell => leg(XferKind::Charge),
                _ => leg(XferKind::PoolSell),
            };
            sharded.transfer(debit, credit);
            reference.apply(&debit.record());
            reference.apply(&credit.record());
            // Mid-tick, before any flush: the credits are only in the
            // outbox, but every read must already include them all.
            assert_eq!(sharded.pending_xfers.len(), i + 1);
            assert_eq!(
                sharded.user(isp, user),
                reference.isps[isp as usize].users[user as usize],
                "{kind:?}"
            );
            assert_eq!(sharded.books(), reference, "{kind:?} mid-tick view");
        }
        sharded.commit_all();
        assert!(sharded.pending_xfers.is_empty());
        assert_eq!(sharded.books(), reference, "flush must not move books");
        assert_eq!(
            sharded.user(isp, user),
            reference.isps[isp as usize].users[user as usize]
        );
    }

    #[test]
    fn a_pending_pool_leg_leaves_the_user_overlay_alone() {
        let (mut sharded, _) =
            ShardedLedgerStore::open(storages(4), StoreConfig::default(), bootstrap(4, 6));
        let (isp, user) = cross_shard_user(sharded.map(), 4, 6);
        // A counter sale: the user's debit is journaled at once, the
        // pool's credit waits in the outbox. It carries no user state, so
        // it must not stand in for user 0 of the ISP in the overlay.
        sharded.append(&LedgerRecord::UserSell {
            isp,
            user,
            amount: 7,
        });
        assert_eq!(sharded.pending_xfers.len(), 1);
        assert!(sharded.pending_user_deltas.is_empty());
        let mut reference = bootstrap(4, 6);
        reference.apply(&LedgerRecord::UserSell {
            isp,
            user,
            amount: 7,
        });
        for u in 0..6 {
            assert_eq!(
                sharded.user(isp, u),
                reference.isps[isp as usize].users[u as usize],
                "user {u}"
            );
        }
        assert_eq!(sharded.books(), reference);
        assert_eq!(sharded.epennies_found(), reference.epennies_found());
    }

    #[test]
    fn cross_shard_transfers_share_group_commits_instead_of_forcing_syncs() {
        let config = StoreConfig {
            batch_records: 1_024,
            checkpoint_every: 1 << 40,
        };
        let syncs = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let backends: Vec<CountingStorage> = (0..4)
            .map(|_| CountingStorage {
                inner: MemStorage::new(),
                syncs: std::sync::Arc::clone(&syncs),
            })
            .collect();
        let (mut sharded, _) = ShardedLedgerStore::open(backends, config, bootstrap(4, 64));
        let baseline = syncs.load(std::sync::atomic::Ordering::Relaxed);
        let mut cross = 0;
        for user in 0..64u32 {
            for isp in 0..4u32 {
                if sharded.map().user_shard(isp, user) != sharded.map().pool_shard(isp) {
                    sharded.append(&LedgerRecord::UserBuy {
                        isp,
                        user,
                        amount: 1,
                    });
                    cross += 1;
                }
            }
        }
        assert!(cross >= 20, "need a real batch, got {cross}");
        assert_eq!(
            syncs.load(std::sync::atomic::Ordering::Relaxed),
            baseline,
            "routing a tick of transfers must not sync at all"
        );
        sharded.commit_all();
        let spent = syncs.load(std::sync::atomic::Ordering::Relaxed) - baseline;
        // Three waves, each at most one sync per shard — versus one
        // forced sync per transfer before batching.
        assert!(
            spent <= 3 * 4,
            "commit_all spent {spent} syncs on {cross} transfers"
        );
        assert_eq!(sharded.books().epennies_found(), {
            let boot = bootstrap(4, 64);
            boot.epennies_found()
        });
    }

    #[test]
    fn overwrite_records_flush_the_outbox_first() {
        let (mut sharded, _) =
            ShardedLedgerStore::open(storages(4), StoreConfig::default(), bootstrap(4, 6));
        let (isp, user) = cross_shard_user(sharded.map(), 4, 6);
        sharded.append(&LedgerRecord::UserBuy {
            isp,
            user,
            amount: 5,
        });
        assert_eq!(sharded.pending_xfers.len(), 1);
        sharded.append(&LedgerRecord::DailyReset { isp });
        assert!(
            sharded.pending_xfers.is_empty(),
            "DailyReset must not reorder ahead of a pending apply in the WAL"
        );
        sharded.commit_all();
        let mut reference = bootstrap(4, 6);
        reference.apply(&LedgerRecord::UserBuy {
            isp,
            user,
            amount: 5,
        });
        reference.apply(&LedgerRecord::DailyReset { isp });
        assert_eq!(sharded.books(), reference);
    }

    #[test]
    fn crash_before_the_flush_loses_both_legs_together() {
        let config = StoreConfig {
            batch_records: 1_024,
            checkpoint_every: 1 << 40,
        };
        let boot = bootstrap(4, 6);
        let total = boot.epennies_found();
        let (mut sharded, _) = ShardedLedgerStore::open(storages(4), config, boot);
        let (isp, user) = cross_shard_user(sharded.map(), 4, 6);
        sharded.append(&LedgerRecord::UserBuy {
            isp,
            user,
            amount: 10,
        });
        // No commit_all: the prepare is still buffered, the apply only
        // in the outbox. A crash now must recover to the pre-transfer
        // books — never a half-transfer.
        let (recovered, report) = sharded.simulate_recovery();
        assert_eq!(recovered.epennies_found(), total);
        assert_eq!(recovered, bootstrap(4, 6));
        assert_eq!(report.resolved_forward, 0);
        let live_user = recovered.isps[isp as usize].users[user as usize];
        assert_eq!(live_user.balance, 100, "credit must not survive alone");
    }

    #[test]
    fn xids_continue_after_reopen() {
        let (mut sharded, _) =
            ShardedLedgerStore::open(storages(4), StoreConfig::default(), bootstrap(4, 8));
        for user in 0..8u32 {
            sharded.append(&LedgerRecord::UserBuy {
                isp: 0,
                user,
                amount: 1,
            });
        }
        sharded.commit_all();
        let first_gen = sharded.next_xid;
        let backends = sharded.into_storages();
        let (reopened, _) =
            ShardedLedgerStore::open(backends, StoreConfig::default(), bootstrap(4, 8));
        assert_eq!(
            reopened.next_xid, first_gen,
            "xid allocator must resume past every durable transfer"
        );
    }

    /// The ordered-map in-doubt scan this file used before the FIFO and
    /// the bitset, kept as the reference the new scan is tested against.
    mod oracle {
        use super::super::{LedgerRecord, ShardRecoveryReport, XferLeg};
        use std::collections::{BTreeMap, BTreeSet};

        #[derive(Default)]
        pub struct XferScan {
            pub prepared: BTreeMap<u64, (u32, XferLeg)>,
            pub applied: BTreeSet<u64>,
            pub max_xid: Option<u64>,
        }

        impl XferScan {
            pub fn observe(&mut self, rec: &LedgerRecord) {
                let xid = match *rec {
                    LedgerRecord::XferPrepare {
                        xid, dst, credit, ..
                    } => {
                        self.prepared.insert(xid, (dst, credit));
                        xid
                    }
                    LedgerRecord::XferApply { xid, .. } => {
                        self.applied.insert(xid);
                        xid
                    }
                    LedgerRecord::XferRelease { xid } => {
                        self.prepared.remove(&xid);
                        xid
                    }
                    _ => return,
                };
                self.max_xid = Some(self.max_xid.map_or(xid, |m| m.max(xid)));
            }
        }

        #[derive(Default)]
        pub struct InDoubt {
            pub prepared: BTreeMap<u64, (usize, u32, XferLeg)>,
            pub applied: BTreeSet<u64>,
            pub next_xid: u64,
        }

        impl InDoubt {
            pub fn absorb(&mut self, shard: usize, scan: XferScan) {
                for (xid, (dst, credit)) in scan.prepared {
                    self.prepared.insert(xid, (shard, dst, credit));
                }
                self.applied.extend(scan.applied);
                if let Some(max) = scan.max_xid {
                    self.next_xid = self.next_xid.max(max.saturating_add(1));
                }
            }

            pub fn resolve(
                &self,
                report: &mut ShardRecoveryReport,
                mut land: impl FnMut(u64, usize, XferLeg),
            ) {
                for (&xid, &(_, dst, credit)) in &self.prepared {
                    if self.applied.contains(&xid) {
                        report.resolved_acked += 1;
                    } else {
                        land(xid, dst as usize, credit);
                        report.resolved_forward += 1;
                    }
                }
            }
        }
    }

    /// One transfer record of a generated log. The credit leg's amount
    /// is the record's position, so two prepares of one xid differ.
    fn xfer_record(kind: u32, xid: u64, position: usize) -> LedgerRecord {
        let leg = |kind| XferLeg {
            kind,
            isp: 0,
            user: 0,
            amount: position as i64,
        };
        match kind {
            0 => LedgerRecord::XferPrepare {
                xid,
                dst: (position % 4) as u32,
                debit: leg(XferKind::Charge),
                credit: leg(XferKind::Grant),
            },
            1 => LedgerRecord::XferApply {
                xid,
                leg: leg(XferKind::Grant),
            },
            2 => LedgerRecord::XferRelease { xid },
            _ => LedgerRecord::Charge { isp: 0, user: 0 },
        }
    }

    /// Where record `position` of a generated log carries its xid from:
    /// mostly a small range (re-used, duplicated, out of order), with
    /// the ascending run the engine writes and the far end of `u64` mixed
    /// in.
    fn xid_of(style: u32, small: u64, position: usize) -> u64 {
        match style {
            0..=5 => small,
            6 | 7 => position as u64 / 3,
            8 => u64::MAX - small,
            _ => small << 40,
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any sequence of transfer records, spread over any shards,
        /// means to the FIFO/bitset scan what it meant to the ordered-map
        /// scan: the same unreleased prepares, the same applied set, the
        /// same next xid, and the same resolution calls in the same
        /// order.
        #[test]
        fn any_transfer_log_scans_as_the_ordered_maps_scanned_it(
            log in proptest::collection::vec((0u32..4, 0u32..4, 0u32..10, 0u64..12), 0..120),
        ) {
            let mut scans: Vec<XferScan> = (0..4).map(|_| XferScan::default()).collect();
            let mut reference: Vec<oracle::XferScan> =
                (0..4).map(|_| oracle::XferScan::default()).collect();
            let mut mentioned = BTreeSet::new();
            for (position, &(shard, kind, style, small)) in log.iter().enumerate() {
                let xid = xid_of(style, small, position);
                mentioned.insert(xid);
                let rec = xfer_record(kind, xid, position);
                scans[shard as usize].observe(&rec);
                reference[shard as usize].observe(&rec);
            }
            for (scan, oracle) in scans.iter().zip(&reference) {
                let prepared: Vec<_> = scan.prepared.iter().copied().collect();
                let expected: Vec<_> = oracle
                    .prepared
                    .iter()
                    .map(|(&xid, &(dst, credit))| (xid, dst, credit))
                    .collect();
                prop_assert_eq!(prepared, expected);
                prop_assert_eq!(scan.max_xid, oracle.max_xid);
                for &xid in &mentioned {
                    prop_assert_eq!(scan.applied.contains(xid), oracle.applied.contains(&xid));
                }
            }
            let mut found = InDoubt::default();
            for (shard, scan) in scans.into_iter().enumerate() {
                found.absorb(shard, scan);
            }
            let found = found.sealed();
            let mut expected = oracle::InDoubt::default();
            for (shard, scan) in reference.into_iter().enumerate() {
                expected.absorb(shard, scan);
            }
            let prepared: Vec<_> = expected
                .prepared
                .iter()
                .map(|(&xid, &(src, dst, credit))| (xid, src, dst, credit))
                .collect();
            prop_assert_eq!(&found.prepared, &prepared);
            prop_assert_eq!(found.next_xid, expected.next_xid);
            for &xid in &mentioned {
                prop_assert_eq!(found.applied.contains(xid), expected.applied.contains(&xid));
            }
            let (mut report, mut landed) = (ShardRecoveryReport::default(), Vec::new());
            found.resolve(&mut report, |xid, dst, leg| {
                landed.push((xid, dst, leg));
                true
            });
            let (mut oracle_report, mut oracle_landed) = (ShardRecoveryReport::default(), Vec::new());
            expected.resolve(&mut oracle_report, |xid, dst, leg| oracle_landed.push((xid, dst, leg)));
            prop_assert_eq!(landed, oracle_landed);
            prop_assert_eq!(report, oracle_report);
        }
    }

    #[test]
    fn the_scan_of_a_log_the_engine_wrote_never_searches_and_stays_one_flush_deep() {
        let (mut sharded, _) =
            ShardedLedgerStore::open(storages(4), StoreConfig::default(), bootstrap(4, 64));
        let mut deepest = 0;
        for round in 0..5 {
            for user in 0..64u32 {
                sharded.append(&LedgerRecord::UserBuy {
                    isp: (user + round) % 4,
                    user,
                    amount: 1,
                });
            }
            deepest = deepest.max(sharded.pending_xfers.len());
            sharded.commit_all();
        }
        assert!(deepest >= 32, "rounds must cross shards: {deepest}");
        for s in 0..4 {
            let mut scan = XferScan::default();
            let mut high_water = 0;
            let log = sharded.shard(s).storage().read(WAL);
            for payload in crate::wal::scan(&log, 0).payloads {
                let rec = LedgerRecord::decode(payload).expect("a record");
                if let LedgerRecord::XferRelease { xid } = rec {
                    assert_eq!(
                        scan.prepared.front().map(|&(oldest, ..)| oldest),
                        Some(xid),
                        "shard {s}: a release that is not the oldest open prepare"
                    );
                }
                scan.observe(&rec);
                high_water = high_water.max(scan.prepared.len());
            }
            assert!(scan.prepared.is_empty());
            assert!(scan.applied.spill.is_empty());
            assert!(high_water <= deepest, "shard {s}: {high_water} > {deepest}");
        }
    }

    #[test]
    fn an_absurd_xid_costs_memory_by_the_record_count() {
        let mut applied = XidSet::default();
        for xid in [u64::MAX, 1 << 40, u64::MAX - 1, 3] {
            applied.insert(xid);
        }
        for xid in [u64::MAX, 1 << 40, u64::MAX - 1, 3] {
            assert!(applied.contains(xid), "{xid}");
        }
        assert!(!applied.contains(4) && !applied.contains(u64::MAX - 2));
        assert_eq!(applied.spill.len(), 3);
        assert_eq!(applied.dense.words.len(), 1);
        // The dense half grows with the applies seen, never past them.
        let mut dense = XidSet::default();
        for xid in 0..100_000u64 {
            dense.insert(xid * 4);
        }
        assert!(dense.spill.is_empty());
        assert!(dense.dense.words.len() as u64 <= 100_000 + XidSet::SLACK_WORDS + 1);
        let mut sources = BitSet::default();
        for shard in [70, 3, 64, 3] {
            sources.insert(shard);
        }
        let members: Vec<usize> = (0..200).filter(|&i| sources.contains(i)).collect();
        assert_eq!(members, vec![3, 64, 70]);
    }

    /// What a sharded recovery of `store`'s backends rebuilds from its
    /// shards' folds: every part, then the in-doubt transfers resolved on
    /// them. `fold` is handed the shard count and each shard's read.
    fn recovered_with(
        store: &ShardedLedgerStore<MemStorage>,
        fold: impl FnOnce(usize, &mut dyn FnMut(usize) -> Loaded) -> Vec<Folded>,
    ) -> (Vec<Books>, ShardRecoveryReport) {
        let observed = journals_transfers(store.stores.len());
        let mut read = |s: usize| store.stores[s].read_recovery(observed);
        let mut parts = Vec::new();
        let mut report = ShardRecoveryReport::default();
        let mut in_doubt = InDoubt::default();
        for (s, (recovered, scan)) in fold(store.stores.len(), &mut read).into_iter().enumerate() {
            in_doubt.absorb(s, scan);
            parts.push(recovered.books);
            report.shards.push(recovered.report);
        }
        in_doubt.sealed().resolve(&mut report, |_, dst, leg| {
            parts[dst].try_apply(&leg.record())
        });
        (parts, report)
    }

    /// The reference: one shard after another on the caller's thread,
    /// each read, then folded with its own observer and scan.
    fn recovered_one_shard_at_a_time(
        store: &ShardedLedgerStore<MemStorage>,
    ) -> (Vec<Books>, ShardRecoveryReport) {
        recovered_with(store, |shards, read| {
            let observed = journals_transfers(shards);
            (0..shards)
                .map(|s| {
                    let loaded = read(s);
                    let mut scan = XferScan::default();
                    let mut visit = |rec: &LedgerRecord| scan.observe(rec);
                    let lands = |dst, credit| store.map.lands(dst, credit);
                    let observer = observed.then_some(Observer {
                        lands: &lands,
                        visit: &mut visit,
                    });
                    let recovered = engine::fold(loaded, observer);
                    (recovered, scan)
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Folding shards at once changes nothing: over stores of 2, 3, 4
        /// and 8 shards — each shard's log cut somewhere in the last
        /// flush, so transfers are left between their prepare, apply and
        /// release, then a torn tail and a corrupt slot, and
        /// shard 0's log the longest, so a later shard's fold ends first
        /// — `simulate_recovery`, `recovers_live_books`, `open`, and the
        /// fold at every worker count from 1 to the shard count rebuild
        /// the books and report of the one-shard-at-a-time reference.
        #[test]
        fn folding_shards_at_once_recovers_what_one_at_a_time_recovers(
            shards in prop_oneof![Just(2usize), Just(3), Just(4), Just(8)],
            ops in proptest::collection::vec((0u32..8, 0u32..48, 0u32..48, 1i64..50), 0..300),
            ballast in 0usize..1_500,
            checkpoint_every in prop_oneof![Just(u64::MAX), 0u64..200],
            crash in proptest::collection::vec(0u64..=1_000, 8..9),
            torn in (0usize..8, 0usize..8),
            spoiled in (0usize..8, 0usize..2, any::<usize>()),
        ) {
            const ISPS: u32 = 3;
            const USERS: u32 = 16;
            let config = StoreConfig { batch_records: 64, checkpoint_every };
            let (mut sharded, _) =
                ShardedLedgerStore::open(storages(shards), config, bootstrap(ISPS, USERS));
            let account = |a: u32| (a % ISPS, a / ISPS % USERS);
            let on_zero: Vec<(u32, u32)> = (0..ISPS * USERS)
                .map(account)
                .filter(|&(isp, user)| sharded.map().user_shard(isp, user) == 0)
                .collect();
            for i in 0..ballast {
                if let Some(&(isp, user)) = on_zero.get(i % on_zero.len().max(1)) {
                    sharded.append(&if i % 2 == 0 {
                        LedgerRecord::Charge { isp, user }
                    } else {
                        LedgerRecord::Deposit { isp, user }
                    });
                }
            }
            for (i, &(kind, a, b, amount)) in ops.iter().enumerate() {
                let ((isp, user), (peer, other)) = (account(a), account(b));
                let leg = |kind, isp, user| XferLeg { kind, isp, user, amount };
                match kind {
                    0 => sharded.append(&LedgerRecord::Charge { isp, user }),
                    1 => sharded.append(&LedgerRecord::Deposit { isp, user }),
                    2 => sharded.append(&LedgerRecord::UserBuy { isp, user, amount }),
                    3 => sharded.append(&LedgerRecord::UserSell { isp, user, amount }),
                    4 => sharded.append(&LedgerRecord::CreditDelta { isp, peer, delta: 1 }),
                    _ => sharded.transfer(
                        leg(XferKind::Charge, isp, user),
                        leg(XferKind::Deposit, peer, other),
                    ),
                }
                if i % 5 == 4 && i + 20 < ops.len() {
                    sharded.commit_all();
                }
            }
            // The last flush's prepares, applies and releases are each
            // cut off on some shards and not on others.
            let flushed: Vec<u64> = sharded.stores.iter().map(|s| s.wal_len()).collect();
            sharded.commit_all();
            for (s, (&from, per_mille)) in flushed.iter().zip(crash).enumerate() {
                let storage = sharded.shard_mut(s).storage_mut();
                let len = storage.len(WAL);
                storage.truncate(WAL, from + (len - from) * per_mille / 1_000);
            }
            // Tear a tail, spoil a slot.
            let (victim, garbage) = torn;
            sharded
                .shard_mut(victim % shards)
                .storage_mut()
                .append(WAL, &[0xA5; 8][..garbage]);
            let (victim, slot, at) = spoiled;
            let storage = sharded.shard_mut(victim % shards).storage_mut();
            let mut image = storage.read(crate::checkpoint::SLOTS[slot]);
            if !image.is_empty() {
                let at = at % image.len();
                image[at] ^= 0x10;
                storage.write(crate::checkpoint::SLOTS[slot], &image);
            }

            let (parts, report) = recovered_one_shard_at_a_time(&sharded);
            let books = sharded.map().merge(&parts);
            prop_assert_eq!(sharded.simulate_recovery(), (books.clone(), report.clone()));
            prop_assert_eq!(
                sharded.recovers_live_books(),
                (books == sharded.books(), report.clone())
            );
            for workers in 1..=shards {
                let at_once = recovered_with(&sharded, |shards, read| {
                    fold_shards(sharded.map(), shards, workers, read)
                });
                prop_assert_eq!(&at_once, &(parts.clone(), report.clone()), "{} workers", workers);
            }
            let (opened, opened_report) =
                ShardedLedgerStore::open(sharded.into_storages(), config, bootstrap(ISPS, USERS));
            prop_assert_eq!(opened_report, report);
            prop_assert_eq!(opened.books(), books);
        }
    }
}
