//! Checkpointable ledger state: the books every record mutates.
//!
//! [`Books`] is the durable subset of the system's state — exactly the
//! quantities the paper's zero-sum argument ranges over: per-user
//! `account`/`balance`/`sent_today`/`limit`, per-ISP pool (`avail`) and
//! per-peer `credit`, and per-bank real-money accounts plus outstanding
//! issue. Volatile session state (nonces, pending sends, freeze flags,
//! RNG positions) is deliberately *not* here: after a crash it is
//! rebuilt by the protocol's own retransmission machinery, while the
//! books come back from the store.
//!
//! A ledger mutation is a [`LedgerRecord`], and `Books::try_apply` is its
//! only implementation, with one refusal rule: a record that names a row
//! the books do not hold, or would take a sum in that row past its type's
//! range, changes nothing. Replay folds it over a checkpoint and ends the
//! log at the first record it refuses; the live `zmail-core` ISP and bank
//! commit every change through [`Ledger::try_commit`], which runs it and
//! refuses what replay would, so a live record is committed only if
//! replay would apply it. A [`Ledger`] is read by row — [`Ledger::user`],
//! [`Ledger::pool`], [`Ledger::bank`] — never as whole books, so a row
//! reads the same whatever holds it. The binary encoding (`encode`/`decode`) is the
//! checkpoint payload format: fixed little-endian, no padding, so equal
//! books encode to equal bytes and recovery comparisons can be exact.

use crate::record::LedgerRecord;
use std::fmt;

/// Durable per-user state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UserBooks {
    /// Real-money account in real pennies (§4.2).
    pub account: i64,
    /// Spendable e-pennies (§4.1).
    pub balance: i64,
    /// Emails sent since the last daily reset.
    pub sent_today: u32,
    /// Daily send limit.
    pub limit: u32,
}

/// Durable per-ISP state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IspBooks {
    /// Every user account at this ISP.
    pub users: Vec<UserBooks>,
    /// The ISP's e-penny pool.
    pub avail: i64,
    /// Per-peer credit counters (§4.4), indexed by ISP id.
    pub credit: Vec<i64>,
    /// Accepted attestation nonces, sorted ascending. Durable so a
    /// replayed signed payment (or ack refund) is still refused after a
    /// crash-restart — the replay farmer's easiest window.
    pub nonces: Vec<u64>,
}

/// Durable per-bank state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BankBooks {
    /// Real-money accounts per ISP, indexed by ISP id.
    pub accounts: Vec<i64>,
    /// Net e-pennies issued and not yet bought back.
    pub issued: i64,
}

/// The complete durable books of a deployment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Books {
    /// Per-ISP books, indexed by ISP id.
    pub isps: Vec<IspBooks>,
    /// Per-bank books, indexed by federation position.
    pub banks: Vec<BankBooks>,
}

impl UserBooks {
    /// The §4.1 send guard, `balance ≥ 1 ∧ sent < limit`: whether this
    /// user may be charged for one more email.
    ///
    /// # Errors
    ///
    /// Returns which half of the guard refuses the send.
    pub fn check_send(&self) -> Result<(), SendError> {
        self.check_sends(1)
    }

    /// The same guard for `n` emails at once, `balance ≥ n ∧ sent + n ≤
    /// limit` — what a driver checks before the first charge of a message
    /// it must refuse whole. Charging nobody is always allowed.
    ///
    /// # Errors
    ///
    /// Returns which half of the guard refuses the sends.
    #[inline]
    pub fn check_sends(&self, n: u32) -> Result<(), SendError> {
        if n == 0 {
            Ok(())
        } else if self.balance < i64::from(n) {
            Err(SendError::InsufficientBalance)
        } else if u64::from(self.sent_today) + u64::from(n) > u64::from(self.limit) {
            Err(SendError::DailyLimitExceeded)
        } else {
            Ok(())
        }
    }

    /// The receiving side of the same rule for `n` paid emails at once,
    /// `balance + n` within range — what replay checks of `n`
    /// `Deposit`s. A driver that charges a sender before it credits the
    /// recipient checks it first, so a refusal comes before the first
    /// record.
    ///
    /// # Errors
    ///
    /// Returns [`SendError::RecipientFull`] if the balance cannot hold
    /// `n` more e-pennies.
    #[inline]
    pub fn check_receives(&self, n: u32) -> Result<(), SendError> {
        match self.balance.checked_add(i64::from(n)) {
            Some(_) => Ok(()),
            None => Err(SendError::RecipientFull),
        }
    }

    /// These books with `rec` applied, or `None` if a sum would leave its
    /// field's range. Records that carry no user state (pool, credit,
    /// bank, nonce) leave them untouched.
    #[inline]
    pub(crate) fn applied(mut self, rec: &LedgerRecord) -> Option<UserBooks> {
        match *rec {
            LedgerRecord::Charge { .. } => {
                self.balance = self.balance.checked_sub(1)?;
                self.sent_today = self.sent_today.checked_add(1)?;
            }
            LedgerRecord::Deposit { .. } => self.balance = self.balance.checked_add(1)?,
            LedgerRecord::Grant { amount, .. } => {
                self.balance = self.balance.checked_add(amount)?
            }
            LedgerRecord::UserBuy { amount, .. } | LedgerRecord::UserCounterBuy { amount, .. } => {
                self.account = self.account.checked_sub(amount)?;
                self.balance = self.balance.checked_add(amount)?;
            }
            LedgerRecord::UserSell { amount, .. }
            | LedgerRecord::UserCounterSell { amount, .. } => {
                self.balance = self.balance.checked_sub(amount)?;
                self.account = self.account.checked_add(amount)?;
            }
            LedgerRecord::LimitSet { limit, .. } => self.limit = limit,
            _ => {}
        }
        Some(self)
    }

    /// These books — a sum of the credit legs the sharded store's outbox
    /// owes one row, begun from zeroed [`UserBooks`] — with `leg`'s moves
    /// added on, wrapping. An owed sum is only ever added to a row whose
    /// true total fits — [`Ledger::try_commit`] checks a leg against its
    /// row before owing it, and the flush's `XferApply` checks it again —
    /// and a wrapping sum is exact wherever the true one fits: a credit of
    /// `i64::MIN` is owed like any other.
    pub(crate) fn owe(mut self, leg: &LedgerRecord) -> UserBooks {
        let (account, balance, sent) = user_moves(leg);
        self.account = self.account.wrapping_add(account as i64);
        self.balance = self.balance.wrapping_add(balance as i64);
        self.sent_today = self.sent_today.wrapping_add(sent);
        self
    }

    /// These books with `delta` — the credit legs the sharded store's
    /// outbox owes this row, summed — added on, wrapping for the same
    /// reason: how the store overlays legs it has not journaled yet.
    pub fn plus(mut self, delta: &UserBooks) -> UserBooks {
        self.account = self.account.wrapping_add(delta.account);
        self.balance = self.balance.wrapping_add(delta.balance);
        self.sent_today = self.sent_today.wrapping_add(delta.sent_today);
        self
    }
}

/// The pool `avail` with `rec`'s move on it, or `None` if that leaves its
/// range: a pool buy or a user's sale adds to the pool, a pool sale or a
/// user's buy takes from it, and any other record leaves it as it is.
pub(crate) fn pool_applied(avail: i64, rec: &LedgerRecord) -> Option<i64> {
    match *rec {
        LedgerRecord::PoolBuy { amount, .. } | LedgerRecord::UserSell { amount, .. } => {
            avail.checked_add(amount)
        }
        LedgerRecord::PoolSell { amount, .. } | LedgerRecord::UserBuy { amount, .. } => {
            avail.checked_sub(amount)
        }
        _ => Some(avail),
    }
}

/// What `rec` moves on a user row — account, balance, sends today — as
/// [`UserBooks::applied`] moves them, widened, so a negated `i64::MIN` is
/// a value like any other. A record that carries no user state, or
/// overwrites one (`LimitSet`), moves nothing.
fn user_moves(rec: &LedgerRecord) -> (i128, i128, u32) {
    match *rec {
        LedgerRecord::Charge { .. } => (0, -1, 1),
        LedgerRecord::Deposit { .. } => (0, 1, 0),
        LedgerRecord::Grant { amount, .. } => (0, amount.into(), 0),
        LedgerRecord::UserBuy { amount, .. } | LedgerRecord::UserCounterBuy { amount, .. } => {
            (-i128::from(amount), amount.into(), 0)
        }
        LedgerRecord::UserSell { amount, .. } | LedgerRecord::UserCounterSell { amount, .. } => {
            (amount.into(), -i128::from(amount), 0)
        }
        _ => (0, 0, 0),
    }
}

/// Why the §4.1 guard refused a send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SendError {
    /// `balance[s] = 0` in the paper's guard.
    InsufficientBalance,
    /// `sent[s] >= limit[s]` — the anti-zombie cap. The paper sends the
    /// user a warning to check for viruses; the harness records it.
    DailyLimitExceeded,
    /// The recipient's balance cannot hold one more e-penny: the credit
    /// would not fit the books ([`UserBooks::check_receives`]).
    RecipientFull,
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::InsufficientBalance => write!(f, "insufficient e-penny balance"),
            SendError::DailyLimitExceeded => write!(f, "daily send limit exceeded"),
            SendError::RecipientFull => write!(f, "recipient balance full"),
        }
    }
}

impl std::error::Error for SendError {}

impl IspBooks {
    /// Applies one ISP-scoped record, unless it names a user or peer these
    /// books do not hold, or a sum would leave its field's range: then
    /// nothing changes and the answer is `false`. The record's `isp` field
    /// is routing, already consumed by the caller.
    ///
    /// # Panics
    ///
    /// Panics if the record is bank- or shard-scoped.
    #[must_use]
    fn try_apply(&mut self, rec: &LedgerRecord) -> bool {
        match *rec {
            LedgerRecord::Charge { user, .. }
            | LedgerRecord::Deposit { user, .. }
            | LedgerRecord::Grant { user, .. }
            | LedgerRecord::LimitSet { user, .. }
            | LedgerRecord::UserCounterBuy { user, .. }
            | LedgerRecord::UserCounterSell { user, .. } => self
                .users
                .get_mut(user as usize)
                .is_some_and(|row| settle(row, |row| row.applied(rec))),
            LedgerRecord::UserBuy { user, .. } | LedgerRecord::UserSell { user, .. } => {
                let Some(avail) = pool_applied(self.avail, rec) else {
                    return false;
                };
                let applied = (self.users.get_mut(user as usize))
                    .is_some_and(|row| settle(row, |row| row.applied(rec)));
                if applied {
                    self.avail = avail;
                }
                applied
            }
            LedgerRecord::DailyReset { .. } => {
                for u in &mut self.users {
                    u.sent_today = 0;
                }
                true
            }
            LedgerRecord::CreditDelta { peer, delta, .. } => self
                .credit
                .get_mut(peer as usize)
                .is_some_and(|credit| settle(credit, |c| c.checked_add(delta))),
            LedgerRecord::SnapshotMarker { .. } => {
                self.credit.fill(0);
                true
            }
            LedgerRecord::PoolBuy { .. } | LedgerRecord::PoolSell { .. } => {
                settle(&mut self.avail, |a| pool_applied(a, rec))
            }
            LedgerRecord::NonceSeen { nonce, .. } => {
                if let Err(at) = self.nonces.binary_search(&nonce) {
                    self.nonces.insert(at, nonce);
                }
                true
            }
            LedgerRecord::BankBuy { .. }
            | LedgerRecord::BankSell { .. }
            | LedgerRecord::XferPrepare { .. }
            | LedgerRecord::XferApply { .. }
            | LedgerRecord::XferRelease { .. } => panic!("not an ISP-scoped record: {rec:?}"),
        }
    }

    /// Everything but the users, as [`Ledger::pool`] reads it.
    pub fn pool(&self) -> PoolRow<'_> {
        PoolRow {
            avail: self.avail,
            credit: &self.credit,
            nonces: &self.nonces,
        }
    }

    /// Whether `other` has these books' shape: as many users, credit
    /// counters.
    fn same_shape(&self, other: &IspBooks) -> bool {
        self.users.len() == other.users.len() && self.credit.len() == other.credit.len()
    }
}

impl BankBooks {
    /// What one bank-scoped record (§4.3) makes of these books: the ISP
    /// account it names with its new balance, and the new outstanding
    /// issue — or `None` if the record names an account these books do
    /// not hold, or a sum would leave its range.
    ///
    /// # Panics
    ///
    /// Panics on any record but `BankBuy` and `BankSell`.
    fn applied(&self, rec: &LedgerRecord) -> Option<(usize, i64, i64)> {
        // Widened, so a negated `i64::MIN` is a value like any other.
        let (isp, account, issued) = match *rec {
            LedgerRecord::BankBuy {
                isp, value, cost, ..
            } => (isp as usize, -i128::from(cost), i128::from(value)),
            LedgerRecord::BankSell {
                isp, value, credit, ..
            } => (isp as usize, i128::from(credit), -i128::from(value)),
            _ => panic!("not a bank-scoped record: {rec:?}"),
        };
        let row = *self.accounts.get(isp)?;
        let account = i64::try_from(i128::from(row) + account).ok()?;
        let issued = i64::try_from(i128::from(self.issued) + issued).ok()?;
        Some((isp, account, issued))
    }

    /// Applies one bank-scoped record, unless [`applied`](Self::applied)
    /// refuses it: then nothing changes and the answer is `false`.
    #[must_use]
    fn try_apply(&mut self, rec: &LedgerRecord) -> bool {
        let Some((isp, account, issued)) = self.applied(rec) else {
            return false;
        };
        self.accounts[isp] = account;
        self.issued = issued;
        true
    }
}

/// Replaces `slot` with `sum(slot)` unless that is `None`: whether it
/// was not.
fn settle<T: Copy>(slot: &mut T, sum: impl FnOnce(T) -> Option<T>) -> bool {
    sum(*slot).map(|sum| *slot = sum).is_some()
}

impl Books {
    /// Applies one record by routing it to the books it names.
    ///
    /// # Panics
    ///
    /// Panics if the record does not fit the books (`Books::try_apply`).
    /// Recovery replays through `try_apply` instead: a log ends at the
    /// first record that does not fit the books, checksum or not.
    pub fn apply(&mut self, rec: &LedgerRecord) {
        assert!(
            self.try_apply(rec),
            "record does not fit the books: {rec:?}"
        );
    }

    /// [`Books::apply`], unless the record names a row these books do not
    /// hold — an ISP, user, peer, bank or bank account, or for a transfer
    /// record the leg it applies here — or would take a sum in that row
    /// past its type's range: then nothing changes and the answer is
    /// `false`. This is the one refusal rule: replay ends a log where it
    /// refuses, and [`Ledger::try_commit`] refuses what it refuses. Every
    /// record changes one row, so it is applied whole or not at all.
    #[must_use]
    pub(crate) fn try_apply(&mut self, rec: &LedgerRecord) -> bool {
        match *rec {
            LedgerRecord::Charge { isp, .. }
            | LedgerRecord::Deposit { isp, .. }
            | LedgerRecord::CreditDelta { isp, .. }
            | LedgerRecord::UserBuy { isp, .. }
            | LedgerRecord::UserSell { isp, .. }
            | LedgerRecord::PoolBuy { isp, .. }
            | LedgerRecord::PoolSell { isp, .. }
            | LedgerRecord::SnapshotMarker { isp }
            | LedgerRecord::DailyReset { isp }
            | LedgerRecord::LimitSet { isp, .. }
            | LedgerRecord::Grant { isp, .. }
            | LedgerRecord::UserCounterBuy { isp, .. }
            | LedgerRecord::UserCounterSell { isp, .. }
            | LedgerRecord::NonceSeen { isp, .. } => self
                .isps
                .get_mut(isp as usize)
                .is_some_and(|books| books.try_apply(rec)),
            LedgerRecord::BankBuy { bank, .. } | LedgerRecord::BankSell { bank, .. } => self
                .banks
                .get_mut(bank as usize)
                .is_some_and(|books| books.try_apply(rec)),
            // The prepare carries both legs but only the debit touches
            // this shard's books; the credit lands on the destination via
            // its own XferApply record.
            LedgerRecord::XferPrepare { debit: leg, .. } | LedgerRecord::XferApply { leg, .. } => {
                self.try_apply(&leg.record())
            }
            LedgerRecord::XferRelease { .. } => true,
        }
    }

    /// Whether `other` holds the same rows: as many ISPs, users, credit
    /// counters, banks and bank accounts. A checkpoint image of another
    /// shape is not an image of these books.
    pub(crate) fn same_shape(&self, other: &Books) -> bool {
        self.isps.len() == other.isps.len()
            && self
                .isps
                .iter()
                .zip(&other.isps)
                .all(|(a, b)| a.same_shape(b))
            && self.banks.len() == other.banks.len()
            && (self.banks.iter().zip(&other.banks))
                .all(|(a, b)| a.accounts.len() == b.accounts.len())
    }

    /// The checkpoint payload: fixed little-endian, field order exactly
    /// as declared, counts as `u32` prefixes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Exact byte length of [`Books::encode`]'s output.
    pub(crate) fn encoded_len(&self) -> usize {
        let isps: usize = self
            .isps
            .iter()
            .map(|isp| {
                4 + isp.users.len() * USER_BYTES
                    + 8
                    + 4
                    + isp.credit.len() * 8
                    + 4
                    + isp.nonces.len() * 8
            })
            .sum();
        let banks: usize = self
            .banks
            .iter()
            .map(|bank| 4 + bank.accounts.len() * 8 + 8)
            .sum();
        4 + isps + 4 + banks
    }

    /// Appends the checkpoint payload to `out`, which the caller has
    /// sized from [`Books::encoded_len`].
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        put_count(out, self.isps.len());
        for isp in &self.isps {
            put_count(out, isp.users.len());
            for u in &isp.users {
                let mut user = [0u8; USER_BYTES];
                user[0..8].copy_from_slice(&u.account.to_le_bytes());
                user[8..16].copy_from_slice(&u.balance.to_le_bytes());
                user[16..20].copy_from_slice(&u.sent_today.to_le_bytes());
                user[20..24].copy_from_slice(&u.limit.to_le_bytes());
                out.extend_from_slice(&user);
            }
            out.extend_from_slice(&isp.avail.to_le_bytes());
            put_count(out, isp.credit.len());
            for c in &isp.credit {
                out.extend_from_slice(&c.to_le_bytes());
            }
            put_count(out, isp.nonces.len());
            for n in &isp.nonces {
                out.extend_from_slice(&n.to_le_bytes());
            }
        }
        put_count(out, self.banks.len());
        for bank in &self.banks {
            put_count(out, bank.accounts.len());
            for a in &bank.accounts {
                out.extend_from_slice(&a.to_le_bytes());
            }
            out.extend_from_slice(&bank.issued.to_le_bytes());
        }
    }

    /// Decodes a checkpoint payload; `None` on any short read, oversized
    /// count, or trailing garbage.
    pub fn decode(bytes: &[u8]) -> Option<Books> {
        let mut r = Cursor { bytes, at: 0 };
        let isp_count = r.count()?;
        let mut isps = Vec::with_capacity(isp_count);
        for _ in 0..isp_count {
            let users = r
                .strided::<USER_BYTES>()?
                .map(|user| UserBooks {
                    account: i64::from_le_bytes(field(user, 0)),
                    balance: i64::from_le_bytes(field(user, 8)),
                    sent_today: u32::from_le_bytes(field(user, 16)),
                    limit: u32::from_le_bytes(field(user, 20)),
                })
                .collect();
            let avail = r.i64()?;
            let credit = r.strided()?.map(|c| i64::from_le_bytes(*c)).collect();
            let nonces = r.strided()?.map(|n| u64::from_le_bytes(*n)).collect();
            isps.push(IspBooks {
                users,
                avail,
                credit,
                nonces,
            });
        }
        let bank_count = r.count()?;
        let mut banks = Vec::with_capacity(bank_count);
        for _ in 0..bank_count {
            banks.push(BankBooks {
                accounts: r.strided()?.map(|a| i64::from_le_bytes(*a)).collect(),
                issued: r.i64()?,
            });
        }
        (r.at == bytes.len()).then_some(Books { isps, banks })
    }

    /// Sum of every e-penny the books hold (user balances + ISP pools),
    /// the "found" side of the zero-sum audit.
    pub fn epennies_found(&self) -> i64 {
        self.isps
            .iter()
            .map(|isp| isp.avail + isp.users.iter().map(|u| u.balance).sum::<i64>())
            .sum()
    }
}

/// An ISP's pool row as a [`Ledger`] reads it: the pool, the per-peer
/// credit column and the accepted nonces — everything of an [`IspBooks`]
/// but its users.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolRow<'a> {
    /// The ISP's e-penny pool.
    pub avail: i64,
    /// Per-peer credit counters (§4.4), indexed by ISP id.
    pub credit: &'a [i64],
    /// Accepted attestation nonces, sorted ascending.
    pub nonces: &'a [u64],
}

/// The one owner of a deployment's books, lent to the protocol processes
/// on each call: plain [`Books`], or a
/// [`ShardedLedgerStore`](crate::ShardedLedgerStore) that also journals
/// every commit.
///
/// A process reads rows — a user, an ISP's pool row, a bank — and never
/// the whole books, so a row means the same at any shard count: a store
/// answers each from the shard that owns it, plus whatever its outbox
/// still owes that row.
///
/// It changes the books only through [`try_commit`](Ledger::try_commit),
/// which commits a record only if replay would apply it, so a caller
/// states the paper's guard and leaves the ranges of the books' fields to
/// the books.
pub trait Ledger {
    /// One user's row. Like every row read, panics if the row is outside
    /// the books.
    fn user(&self, isp: u32, user: u32) -> UserBooks;

    /// ISP `isp`'s pool row.
    fn pool(&self, isp: u32) -> PoolRow<'_>;

    /// Bank `bank`'s books.
    fn bank(&self, bank: u32) -> &BankBooks;

    /// Applies `rec` to the books and, if durable, journals it — unless
    /// replay would refuse it (`Books::try_apply`: a row the books do not
    /// hold, or a sum past its field's range). Then no row changes and no
    /// byte is journaled.
    ///
    /// # Errors
    ///
    /// Returns [`Refused`] for a record that does not fit the books.
    fn try_commit(&mut self, rec: LedgerRecord) -> Result<(), Refused>;

    /// [`try_commit`](Ledger::try_commit), for a record whose fit its
    /// caller has already established. This body passes a copy of `rec`
    /// on and keeps the original for the panic message; [`Books`] and
    /// `ShardedLedgerStore` override it to run the same check on the
    /// record where the caller built it.
    ///
    /// # Panics
    ///
    /// Panics if the record does not fit the books.
    fn commit(&mut self, rec: LedgerRecord) {
        if self.try_commit(rec).is_err() {
            panic!("record does not fit the books: {rec:?}");
        }
    }
}

/// A record a [`Ledger`] did not commit because replay would not apply
/// it: it names a row the books do not hold, or would take a sum in one
/// past its type's range. Nothing changed and nothing was journaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refused;

impl fmt::Display for Refused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "record does not fit the books")
    }
}

impl std::error::Error for Refused {}

/// A commit is a `try_apply` and nothing more: the volatile ledger, and
/// the reference every store is held to.
impl Ledger for Books {
    fn user(&self, isp: u32, user: u32) -> UserBooks {
        self.isps[isp as usize].users[user as usize]
    }

    fn pool(&self, isp: u32) -> PoolRow<'_> {
        self.isps[isp as usize].pool()
    }

    fn bank(&self, bank: u32) -> &BankBooks {
        &self.banks[bank as usize]
    }

    fn try_commit(&mut self, rec: LedgerRecord) -> Result<(), Refused> {
        if self.try_apply(&rec) {
            Ok(())
        } else {
            Err(Refused)
        }
    }

    /// [`Books::apply`], which reads `rec` where the caller built it: the
    /// provided method copies it first, to keep it for the panic message.
    fn commit(&mut self, rec: LedgerRecord) {
        self.apply(&rec);
    }
}

/// Encoded size of one [`UserBooks`]: two `i64`s and two `u32`s.
const USER_BYTES: usize = 24;

fn put_count(out: &mut Vec<u8>, count: usize) {
    out.extend_from_slice(&(count as u32).to_le_bytes());
}

/// The `N` bytes of `from` starting at `at`.
fn field<const N: usize>(from: &[u8; USER_BYTES], at: usize) -> [u8; N] {
    let mut out = [0; N];
    out.copy_from_slice(&from[at..at + N]);
    out
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn u32(&mut self) -> Option<u32> {
        let end = self.at.checked_add(4)?;
        let v = u32::from_le_bytes(self.bytes.get(self.at..end)?.try_into().ok()?);
        self.at = end;
        Some(v)
    }

    fn i64(&mut self) -> Option<i64> {
        let end = self.at.checked_add(8)?;
        let v = i64::from_le_bytes(self.bytes.get(self.at..end)?.try_into().ok()?);
        self.at = end;
        Some(v)
    }

    /// A length prefix, bounded by the bytes that could possibly remain
    /// so corrupt counts cannot trigger huge allocations.
    fn count(&mut self) -> Option<usize> {
        let v = self.u32()? as usize;
        (v <= self.bytes.len().saturating_sub(self.at)).then_some(v)
    }

    /// A counted run of `N`-byte elements, taken in one bounds check;
    /// the iterator's exact length lets `collect` reserve up front.
    fn strided<const N: usize>(&mut self) -> Option<std::slice::Iter<'a, [u8; N]>> {
        let count = self.count()?;
        let end = self.at.checked_add(count.checked_mul(N)?)?;
        let (elements, rest) = self.bytes.get(self.at..end)?.as_chunks::<N>();
        debug_assert!(rest.is_empty());
        self.at = end;
        Some(elements.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Books {
        Books {
            isps: vec![
                IspBooks {
                    users: vec![
                        UserBooks {
                            account: 1_000,
                            balance: 100,
                            sent_today: 3,
                            limit: 100,
                        },
                        UserBooks {
                            account: 990,
                            balance: 110,
                            sent_today: 0,
                            limit: 50,
                        },
                    ],
                    avail: 5_000,
                    credit: vec![0, -4],
                    nonces: vec![3, 17, 0xDEAD_BEEF],
                },
                IspBooks {
                    users: vec![UserBooks::default()],
                    avail: 4_300,
                    credit: vec![4, 0],
                    nonces: Vec::new(),
                },
            ],
            banks: vec![BankBooks {
                accounts: vec![1_000_000, 999_550],
                issued: 700,
            }],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let books = sample();
        let bytes = books.encode();
        assert_eq!(Books::decode(&bytes), Some(books));
        assert_eq!(Books::decode(&[]), None);
    }

    #[test]
    fn truncated_and_padded_payloads_are_rejected() {
        let bytes = sample().encode();
        for cut in [1, 7, bytes.len() - 1] {
            assert_eq!(Books::decode(&bytes[..cut]), None, "cut at {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(Books::decode(&padded), None, "trailing byte accepted");
    }

    #[test]
    fn corrupt_count_cannot_overallocate() {
        // A count of u32::MAX with only a few bytes behind it must fail
        // cleanly instead of trying to reserve gigabytes.
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        assert_eq!(Books::decode(&bytes), None);
    }

    #[test]
    fn nonce_seen_inserts_sorted_and_dedupes() {
        let mut books = sample();
        let before = books.epennies_found();
        for nonce in [9, 1, 9, 0xDEAD_BEEF] {
            books.apply(&LedgerRecord::NonceSeen { isp: 0, nonce });
        }
        assert_eq!(books.isps[0].nonces, vec![1, 3, 9, 17, 0xDEAD_BEEF]);
        // Nonce bookkeeping never moves pennies.
        assert_eq!(books.epennies_found(), before);
        let bytes = books.encode();
        assert_eq!(Books::decode(&bytes), Some(books));
    }

    #[test]
    fn scoped_apply_is_books_apply_on_one_element_books() {
        let (isp, bank, user, amount) = (0, 0, 1, 9);
        let records = [
            LedgerRecord::Charge { isp, user },
            LedgerRecord::Deposit { isp, user },
            LedgerRecord::CreditDelta {
                isp,
                peer: 1,
                delta: -3,
            },
            LedgerRecord::UserBuy { isp, user, amount },
            LedgerRecord::UserSell { isp, user, amount },
            LedgerRecord::PoolBuy { isp, amount },
            LedgerRecord::PoolSell { isp, amount },
            LedgerRecord::NonceSeen { isp, nonce: 5 },
            LedgerRecord::LimitSet {
                isp,
                user,
                limit: 7,
            },
            LedgerRecord::Grant { isp, user, amount },
            LedgerRecord::UserCounterBuy { isp, user, amount },
            LedgerRecord::UserCounterSell { isp, user, amount },
            LedgerRecord::DailyReset { isp },
            LedgerRecord::SnapshotMarker { isp },
            LedgerRecord::BankBuy {
                bank,
                isp,
                value: 40,
                cost: 4,
            },
            LedgerRecord::BankSell {
                bank,
                isp,
                value: 40,
                credit: 4,
            },
        ];
        let Books {
            mut isps,
            mut banks,
        } = sample();
        let mut alone = (isps.swap_remove(0), banks.swap_remove(0));
        let mut routed = Books {
            isps: vec![alone.0.clone()],
            banks: vec![alone.1.clone()],
        };
        for rec in &records {
            let before = alone.clone();
            let applied = match rec {
                LedgerRecord::BankBuy { .. } | LedgerRecord::BankSell { .. } => {
                    alone.1.try_apply(rec)
                }
                _ => alone.0.try_apply(rec),
            };
            assert!(applied, "{rec:?} did not fit");
            routed.apply(rec);
            assert_ne!(alone, before, "{rec:?} changed nothing");
            assert_eq!((&routed.isps[0], &routed.banks[0]), (&alone.0, &alone.1));
        }
    }

    #[test]
    fn apply_moves_pennies_zero_sum() {
        let mut books = sample();
        let before = books.epennies_found();
        books.apply(&LedgerRecord::Charge { isp: 0, user: 0 });
        books.apply(&LedgerRecord::Deposit { isp: 1, user: 0 });
        // A transfer leg pair conserves e-pennies.
        assert_eq!(books.epennies_found(), before);
        assert_eq!(books.isps[0].users[0].balance, 99);
        assert_eq!(books.isps[0].users[0].sent_today, 4);
        assert_eq!(books.isps[1].users[0].balance, 1);

        // A user buy moves pool -> balance and account pays 1:1.
        books.apply(&LedgerRecord::UserBuy {
            isp: 0,
            user: 1,
            amount: 10,
        });
        assert_eq!(books.isps[0].users[1].balance, 120);
        assert_eq!(books.isps[0].users[1].account, 980);
        assert_eq!(books.isps[0].avail, 4_990);
        assert_eq!(books.epennies_found(), before);

        // Bank buy + pool settle issues new e-pennies.
        books.apply(&LedgerRecord::BankBuy {
            bank: 0,
            isp: 1,
            value: 500,
            cost: 50,
        });
        books.apply(&LedgerRecord::PoolBuy {
            isp: 1,
            amount: 500,
        });
        assert_eq!(books.banks[0].issued, 1_200);
        assert_eq!(books.banks[0].accounts[1], 999_500);
        assert_eq!(books.epennies_found(), before + 500);

        books.apply(&LedgerRecord::SnapshotMarker { isp: 0 });
        assert_eq!(books.isps[0].credit, vec![0, 0]);
        books.apply(&LedgerRecord::DailyReset { isp: 0 });
        assert_eq!(books.isps[0].users[0].sent_today, 0);
        books.apply(&LedgerRecord::LimitSet {
            isp: 0,
            user: 0,
            limit: 7,
        });
        assert_eq!(books.isps[0].users[0].limit, 7);
    }
}
