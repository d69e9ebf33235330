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
//!   [`ShardedLedgerStore::books`] / [`ShardedLedgerStore::user`]
//!   reads, so the live view stays exactly conserved between ticks.
//! * Recovery scans every shard's full WAL for unreleased prepares and
//!   **rolls them forward**: if the destination never journaled the
//!   apply, it is appended now; either way the release is. A crash
//!   between the phases therefore lands on fully-applied (or, when the
//!   prepare itself was torn, fully-reverted) — never a half-transfer,
//!   so conservation drift is exactly 0. The engine never truncates a
//!   WAL at checkpoint time, which is what makes the full scan sound.
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

use crate::books::{BankBooks, Books, IspBooks, UserBooks};
use crate::engine::{LedgerStore, RecoveryReport, StoreConfig};
use crate::record::{LedgerRecord, XferKind, XferLeg};
use crate::storage::Storage;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
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
    /// account's index inside that shard's slice of the ISP, side by
    /// side: routing a record needs both, and at a million accounts each
    /// look-up is a cache miss.
    users: Vec<Vec<(u32, u32)>>,
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
    pub fn new(shards: u32, template: &Books) -> ShardMap {
        let shards = shards.max(1);
        let isps = template.isps.len();
        let mut users = Vec::with_capacity(isps);
        let mut owned = vec![vec![Vec::new(); isps]; shards as usize];
        for (i, isp) in template.isps.iter().enumerate() {
            let mut placed = Vec::with_capacity(isp.users.len());
            for u in 0..isp.users.len() as u32 {
                let s = (stable_account_hash(i as u32, u) % u64::from(shards)) as u32;
                placed.push((s, owned[s as usize][i].len() as u32));
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
        self.users[isp as usize][user as usize]
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
                        .map(|&(s, local)| parts[s as usize].isps[i].users[local as usize])
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
    /// need their release.
    fn resolve(&self, report: &mut ShardRecoveryReport, mut land: impl FnMut(u64, usize, XferLeg)) {
        for &(xid, _, dst, credit) in &self.prepared {
            if self.applied.contains(xid) {
                report.resolved_acked += 1;
            } else {
                land(xid, dst as usize, credit);
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
    /// [`ShardedLedgerStore::books`] / [`ShardedLedgerStore::user`]
    /// reads until the apply lands.
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
    /// of an outbox that grows with the whole tick.
    pending_user_deltas: BTreeMap<(u32, u32), UserBooks>,
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
        let mut stores = Vec::with_capacity(storages.len());
        let mut reports = Vec::with_capacity(storages.len());
        let mut in_doubt = InDoubt::default();
        let shards = storages.len();
        for (s, (storage, part)) in storages.into_iter().zip(parts).enumerate() {
            let mut scan = XferScan::default();
            let mut observe = |rec: &LedgerRecord| scan.observe(rec);
            let (store, report) = LedgerStore::open_observed(
                storage,
                config,
                part,
                journals_transfers(shards).then_some(&mut observe),
            );
            in_doubt.absorb(s, scan);
            stores.push(store);
            reports.push(report);
        }
        let in_doubt = in_doubt.sealed();
        let mut sharded = ShardedLedgerStore {
            map,
            stores,
            next_xid: in_doubt.next_xid,
            pending_xfers: Vec::new(),
            pending_user_deltas: BTreeMap::new(),
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
            self.stores[dst].append(&LedgerRecord::XferApply { xid, leg });
        });
        if report.resolved_forward > 0 {
            self.commit_all();
        }
        for &(xid, src, ..) in &found.prepared {
            self.stores[src].append(&LedgerRecord::XferRelease { xid });
        }
        if report.resolved_forward + report.resolved_acked > 0 {
            self.commit_all();
        }
    }

    /// Routes one global-index record to its shard(s). Single-account
    /// records are rewritten into the owning shard's local index space;
    /// a counter buy/sell whose user and pool live on different shards
    /// becomes a two-phase transfer.
    ///
    /// # Panics
    ///
    /// Panics on the internal transfer variants (`UserCounter*`,
    /// `Xfer*`) — those are emitted by the engine, never routed into it.
    pub fn append(&mut self, rec: &LedgerRecord) {
        // Pending credit legs are pure additions, so they commute with
        // every delta record and may stay deferred across them. These
        // three *overwrite* state instead; flush first so the journal
        // order matches the order the books saw.
        if matches!(
            *rec,
            LedgerRecord::DailyReset { .. }
                | LedgerRecord::SnapshotMarker { .. }
                | LedgerRecord::LimitSet { .. }
        ) {
            self.flush_pending_applies();
        }
        match *rec {
            LedgerRecord::Charge { isp, user } => {
                let (s, user) = self.map.locate(isp, user);
                self.stores[s as usize].append(&LedgerRecord::Charge { isp, user });
            }
            LedgerRecord::Deposit { isp, user } => {
                let (s, user) = self.map.locate(isp, user);
                self.stores[s as usize].append(&LedgerRecord::Deposit { isp, user });
            }
            LedgerRecord::Grant { isp, user, amount } => {
                let (s, user) = self.map.locate(isp, user);
                self.stores[s as usize].append(&LedgerRecord::Grant { isp, user, amount });
            }
            LedgerRecord::LimitSet { isp, user, limit } => {
                let (s, user) = self.map.locate(isp, user);
                self.stores[s as usize].append(&LedgerRecord::LimitSet { isp, user, limit });
            }
            LedgerRecord::CreditDelta { isp, .. }
            | LedgerRecord::SnapshotMarker { isp }
            | LedgerRecord::NonceSeen { isp, .. }
            | LedgerRecord::PoolBuy { isp, .. }
            | LedgerRecord::PoolSell { isp, .. } => {
                self.stores[self.map.pool_shard(isp) as usize].append(rec);
            }
            LedgerRecord::BankBuy { bank, .. } | LedgerRecord::BankSell { bank, .. } => {
                self.stores[self.map.bank_shard(bank) as usize].append(rec);
            }
            LedgerRecord::DailyReset { isp } => {
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
                    self.stores[self.map.pool_shard(isp) as usize].append(rec);
                }
            }
            LedgerRecord::UserBuy { isp, user, amount } => {
                // Pool pays out (debit), user account buys in (credit).
                self.transfer(
                    XferLeg {
                        kind: XferKind::PoolSell,
                        isp,
                        user: 0,
                        amount,
                    },
                    XferLeg {
                        kind: XferKind::CounterBuy,
                        isp,
                        user,
                        amount,
                    },
                );
            }
            LedgerRecord::UserSell { isp, user, amount } => {
                self.transfer(
                    XferLeg {
                        kind: XferKind::CounterSell,
                        isp,
                        user,
                        amount,
                    },
                    XferLeg {
                        kind: XferKind::PoolBuy,
                        isp,
                        user: 0,
                        amount,
                    },
                );
            }
            LedgerRecord::UserCounterBuy { .. }
            | LedgerRecord::UserCounterSell { .. }
            | LedgerRecord::XferPrepare { .. }
            | LedgerRecord::XferApply { .. }
            | LedgerRecord::XferRelease { .. } => {
                panic!("internal shard record cannot be routed: {rec:?}")
            }
        }
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
        if let Some(account) = account_of(&credit_global) {
            self.pending_user_deltas
                .entry(account)
                .or_default()
                .apply(&credit_global.record());
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

    /// Live books of one user account, read from its owning shard, with
    /// pending cross-shard credit legs for that account overlaid.
    pub fn user(&self, isp: u32, user: u32) -> UserBooks {
        let (s, local) = self.map.locate(isp, user);
        let books = self.stores[s as usize].books().isps[isp as usize].users[local as usize];
        match self.pending_user_deltas.get(&(isp, user)) {
            Some(delta) => books.plus(delta),
            None => books,
        }
    }

    /// Every e-penny on the merged books — what
    /// [`books`](Self::books)`().epennies_found()` would say — summed
    /// shard by shard, pending credit legs included, without assembling
    /// the merged image.
    pub fn epennies_found(&self) -> i64 {
        // The pending legs, folded onto one stand-in account and pool.
        let mut owed = IspBooks {
            users: vec![UserBooks::default()],
            ..IspBooks::default()
        };
        for p in &self.pending_xfers {
            let leg = XferLeg {
                user: 0,
                ..p.credit_global
            };
            owed.apply(&leg.record());
        }
        let journaled: i64 = self
            .stores
            .iter()
            .map(|store| store.books().epennies_found())
            .sum();
        journaled + owed.avail + owed.users[0].balance
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
        let mut parts = Vec::with_capacity(self.stores.len());
        let mut report = ShardRecoveryReport::default();
        let mut in_doubt = InDoubt::default();
        for (s, store) in self.stores.iter().enumerate() {
            let mut scan = XferScan::default();
            let mut observe = |rec: &LedgerRecord| scan.observe(rec);
            let (books, shard_report) = store.simulate_recovery_observed(
                journals_transfers(self.stores.len()).then_some(&mut observe),
            );
            in_doubt.absorb(s, scan);
            parts.push(books);
            report.shards.push(shard_report);
        }
        in_doubt
            .sealed()
            .resolve(&mut report, |_, dst, leg| parts[dst].apply(&leg.record()));
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

    /// Total valid WAL bytes across shards.
    pub fn wal_len(&self) -> u64 {
        self.stores.iter().map(|s| s.wal_len()).sum()
    }

    /// Consumes the store, returning the backends in shard order.
    pub fn into_storages(self) -> Vec<S> {
        self.stores.into_iter().map(|s| s.into_storage()).collect()
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

    /// Storage wrapper counting syncs, to pin the batched-outbox win.
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
            found.resolve(&mut report, |xid, dst, leg| landed.push((xid, dst, leg)));
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
}
