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
//! A ledger mutation is a [`LedgerRecord`], and [`IspBooks::apply`]
//! (with [`BankBooks::apply`] for the bank's two) is its only
//! implementation: the live `zmail-core` ISP commits every change
//! through it, replay folds it over a checkpoint via [`Books::apply`],
//! and the sharded store's outbox overlay uses its per-user half. The
//! binary encoding (`encode`/`decode`) is the checkpoint payload format:
//! fixed little-endian, no padding, so equal books encode to equal
//! bytes and recovery comparisons can be exact.

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

    /// Applies the user's share of one record. Records that carry no
    /// user state (pool, credit, bank, nonce) leave it untouched, so a
    /// transfer leg of any kind can be folded into a per-user delta.
    pub fn apply(&mut self, rec: &LedgerRecord) {
        match *rec {
            LedgerRecord::Charge { .. } => {
                self.balance -= 1;
                self.sent_today += 1;
            }
            LedgerRecord::Deposit { .. } => self.balance += 1,
            LedgerRecord::Grant { amount, .. } => self.balance += amount,
            LedgerRecord::UserBuy { amount, .. } | LedgerRecord::UserCounterBuy { amount, .. } => {
                self.account -= amount;
                self.balance += amount;
            }
            LedgerRecord::UserSell { amount, .. }
            | LedgerRecord::UserCounterSell { amount, .. } => {
                self.balance -= amount;
                self.account += amount;
            }
            LedgerRecord::LimitSet { limit, .. } => self.limit = limit,
            _ => {}
        }
    }

    /// These books with `delta` — records applied to zeroed
    /// [`UserBooks`] — added on: how the sharded store overlays credit
    /// legs its outbox has not journaled yet.
    pub fn plus(mut self, delta: &UserBooks) -> UserBooks {
        self.account += delta.account;
        self.balance += delta.balance;
        self.sent_today += delta.sent_today;
        self
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
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::InsufficientBalance => write!(f, "insufficient e-penny balance"),
            SendError::DailyLimitExceeded => write!(f, "daily send limit exceeded"),
        }
    }
}

impl std::error::Error for SendError {}

impl IspBooks {
    /// Applies one ISP-scoped record: the only implementation of a
    /// ledger mutation. The live ISP commits through it, WAL replay
    /// reaches it through [`Books::apply`], and the sharded store's read
    /// overlay uses its per-user half ([`UserBooks::apply`]). The
    /// record's `isp` field is routing, already consumed by the caller.
    ///
    /// # Panics
    ///
    /// Panics if the record indexes a user or peer outside these books,
    /// or is bank- or shard-scoped.
    pub fn apply(&mut self, rec: &LedgerRecord) {
        match *rec {
            LedgerRecord::Charge { user, .. }
            | LedgerRecord::Deposit { user, .. }
            | LedgerRecord::Grant { user, .. }
            | LedgerRecord::LimitSet { user, .. }
            | LedgerRecord::UserCounterBuy { user, .. }
            | LedgerRecord::UserCounterSell { user, .. } => self.users[user as usize].apply(rec),
            LedgerRecord::UserBuy { user, amount, .. } => {
                self.users[user as usize].apply(rec);
                self.avail -= amount;
            }
            LedgerRecord::UserSell { user, amount, .. } => {
                self.users[user as usize].apply(rec);
                self.avail += amount;
            }
            LedgerRecord::DailyReset { .. } => {
                for u in &mut self.users {
                    u.sent_today = 0;
                }
            }
            LedgerRecord::CreditDelta { peer, delta, .. } => self.credit[peer as usize] += delta,
            LedgerRecord::SnapshotMarker { .. } => self.credit.fill(0),
            LedgerRecord::PoolBuy { amount, .. } => self.avail += amount,
            LedgerRecord::PoolSell { amount, .. } => self.avail -= amount,
            LedgerRecord::NonceSeen { nonce, .. } => {
                if let Err(at) = self.nonces.binary_search(&nonce) {
                    self.nonces.insert(at, nonce);
                }
            }
            LedgerRecord::BankBuy { .. }
            | LedgerRecord::BankSell { .. }
            | LedgerRecord::XferPrepare { .. }
            | LedgerRecord::XferApply { .. }
            | LedgerRecord::XferRelease { .. } => panic!("not an ISP-scoped record: {rec:?}"),
        }
    }
}

impl BankBooks {
    /// Applies one bank-scoped record (§4.3); see [`IspBooks::apply`].
    ///
    /// # Panics
    ///
    /// Panics on any other record, or an ISP index outside these books.
    pub fn apply(&mut self, rec: &LedgerRecord) {
        match *rec {
            LedgerRecord::BankBuy {
                isp, value, cost, ..
            } => {
                self.accounts[isp as usize] -= cost;
                self.issued += value;
            }
            LedgerRecord::BankSell {
                isp, value, credit, ..
            } => {
                self.accounts[isp as usize] += credit;
                self.issued -= value;
            }
            _ => panic!("not a bank-scoped record: {rec:?}"),
        }
    }
}

impl Books {
    /// Applies one record by routing it to the books it names:
    /// [`IspBooks::apply`] or [`BankBooks::apply`].
    ///
    /// # Panics
    ///
    /// Panics if the record indexes an ISP, user, peer, or bank outside
    /// these books — the journal and the checkpoint must describe the
    /// same deployment, so an out-of-range index is corruption the WAL
    /// checksums should have caught, not a condition to paper over.
    pub fn apply(&mut self, rec: &LedgerRecord) {
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
            | LedgerRecord::NonceSeen { isp, .. } => self.isps[isp as usize].apply(rec),
            LedgerRecord::BankBuy { bank, .. } | LedgerRecord::BankSell { bank, .. } => {
                self.banks[bank as usize].apply(rec)
            }
            // The prepare carries both legs but only the debit touches
            // this shard's books; the credit lands on the destination via
            // its own XferApply record.
            LedgerRecord::XferPrepare { debit, .. } => self.apply(&debit.record()),
            LedgerRecord::XferApply { leg, .. } => self.apply(&leg.record()),
            LedgerRecord::XferRelease { .. } => {}
        }
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
            match rec {
                LedgerRecord::BankBuy { .. } | LedgerRecord::BankSell { .. } => alone.1.apply(rec),
                _ => alone.0.apply(rec),
            }
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
