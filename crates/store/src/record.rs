//! The ledger record vocabulary: one typed entry per book mutation.
//!
//! Every way the paper's books can change — a §4.1 e-penny transfer leg,
//! a §4.2 counter purchase, a §4.3 bank settlement, a §4.4 snapshot
//! reset — is one [`LedgerRecord`] variant. Records are what the WAL
//! stores, what [`crate::Books::apply`] replays, and what the live
//! `zmail-core` ISP and bank apply to change their books at all.
//!
//! The wire form is a fixed little-endian layout per variant, one tag
//! byte followed by the fields in declaration order. There is no
//! self-describing framing here — the WAL layer wraps each record in a
//! length- and checksum-framed envelope.

/// One durable mutation of the ISP/bank books.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerRecord {
    /// Sender-side leg of an email: user's balance −1, daily count +1
    /// (§4.1 `charge`).
    Charge {
        /// ISP holding the account.
        isp: u32,
        /// User index within the ISP.
        user: u32,
    },
    /// Recipient-side leg of a paid email: user's balance +1.
    Deposit {
        /// ISP holding the account.
        isp: u32,
        /// User index within the ISP.
        user: u32,
    },
    /// Per-peer credit counter adjustment (`credit[peer] += delta`):
    /// +1 when booking an outbound remote send, −1 when accepting a paid
    /// inbound message, other values when a cheat fakes its books.
    CreditDelta {
        /// ISP whose credit array changes.
        isp: u32,
        /// Peer the counter tracks.
        peer: u32,
        /// Signed adjustment.
        delta: i64,
    },
    /// User bought e-pennies at the ISP counter (§4.2): account −amount,
    /// balance +amount, pool −amount.
    UserBuy {
        /// ISP holding the account.
        isp: u32,
        /// User index within the ISP.
        user: u32,
        /// E-pennies purchased.
        amount: i64,
    },
    /// User sold e-pennies back: balance −amount, account +amount,
    /// pool +amount.
    UserSell {
        /// ISP holding the account.
        isp: u32,
        /// User index within the ISP.
        user: u32,
        /// E-pennies sold.
        amount: i64,
    },
    /// A bank `buy` settled at the ISP: pool +amount (§4.3).
    PoolBuy {
        /// ISP whose pool grew.
        isp: u32,
        /// E-pennies credited to the pool.
        amount: i64,
    },
    /// A bank `sell` settled at the ISP: pool −amount.
    PoolSell {
        /// ISP whose pool shrank.
        isp: u32,
        /// E-pennies debited from the pool.
        amount: i64,
    },
    /// Bank-side leg of a granted `buy`: ISP's real-money account −cost,
    /// outstanding issue +value.
    BankBuy {
        /// Federation index of the bank.
        bank: u32,
        /// ISP whose account paid.
        isp: u32,
        /// E-pennies issued.
        value: i64,
        /// Real pennies charged.
        cost: i64,
    },
    /// Bank-side leg of a `sell`: ISP's account +credit, issue −value.
    BankSell {
        /// Federation index of the bank.
        bank: u32,
        /// ISP whose account was credited.
        isp: u32,
        /// E-pennies retired.
        value: i64,
        /// Real pennies refunded.
        credit: i64,
    },
    /// The ISP sealed and zeroed its credit array for a billing snapshot
    /// (§4.4).
    SnapshotMarker {
        /// ISP that finished the snapshot.
        isp: u32,
    },
    /// Midnight: every user's `sent_today` returns to zero.
    DailyReset {
        /// ISP whose counters reset.
        isp: u32,
    },
    /// A user's daily send limit changed (zombie quarantine, plan
    /// upgrades).
    LimitSet {
        /// ISP holding the account.
        isp: u32,
        /// User index within the ISP.
        user: u32,
        /// New daily limit.
        limit: u32,
    },
    /// Direct e-penny grant to a user (experiment setup shortcut).
    Grant {
        /// ISP holding the account.
        isp: u32,
        /// User index within the ISP.
        user: u32,
        /// E-pennies granted.
        amount: i64,
    },
    /// User-side half of a counter purchase whose pool lives on another
    /// shard: account −amount, balance +amount. The pool-side half is a
    /// [`LedgerRecord::PoolSell`] journaled on the pool-owner shard.
    UserCounterBuy {
        /// ISP holding the account.
        isp: u32,
        /// User index within the ISP.
        user: u32,
        /// E-pennies purchased.
        amount: i64,
    },
    /// User-side half of a counter sale whose pool lives on another
    /// shard: balance −amount, account +amount. The pool-side half is a
    /// [`LedgerRecord::PoolBuy`] on the pool-owner shard.
    UserCounterSell {
        /// ISP holding the account.
        isp: u32,
        /// User index within the ISP.
        user: u32,
        /// E-pennies sold.
        amount: i64,
    },
    /// First phase of a cross-shard transfer, journaled on the *source*
    /// shard: applies the debit leg locally and durably records the
    /// credit leg owed to shard `dst`. Recovery treats a prepare without
    /// a matching [`LedgerRecord::XferRelease`] as in-doubt and rolls it
    /// forward (appending the [`LedgerRecord::XferApply`] if the
    /// destination never got it), so a crash between the phases lands on
    /// fully-applied, never a half-transfer.
    XferPrepare {
        /// Transfer id, unique across the sharded deployment.
        xid: u64,
        /// Destination shard owing the credit leg.
        dst: u32,
        /// Debit leg, applied on the source shard by this record.
        debit: XferLeg,
        /// Credit leg the destination shard must apply.
        credit: XferLeg,
    },
    /// Second phase of a cross-shard transfer, journaled on the
    /// *destination* shard: applies the credit leg.
    XferApply {
        /// Transfer id matching the prepare.
        xid: u64,
        /// The credit leg being applied.
        leg: XferLeg,
    },
    /// Completion marker on the *source* shard: the credit leg reached
    /// the destination's journal. A books no-op; it only closes the
    /// in-doubt window recovery scans for.
    XferRelease {
        /// Transfer id matching the prepare.
        xid: u64,
    },
    /// An attestation nonce was accepted at this ISP. The accepted set
    /// is what makes every signed payment — and therefore every §5 ack
    /// refund — single-use: replaying the attestation after a crash
    /// must still be refused, so the set is durable, not session state.
    NonceSeen {
        /// ISP that accepted the nonce.
        isp: u32,
        /// The attestation nonce.
        nonce: u64,
    },
}

/// The mutation kinds a cross-shard transfer leg can carry. Each maps
/// onto exactly one non-transfer [`LedgerRecord`] variant; keeping the
/// legs to this closed set (rather than nesting arbitrary records) keeps
/// records `Copy` and rules out recursive transfers by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XferKind {
    /// [`LedgerRecord::Charge`]: balance −1, `sent_today` +1.
    Charge,
    /// [`LedgerRecord::Deposit`]: balance +1.
    Deposit,
    /// [`LedgerRecord::PoolBuy`]: pool +amount.
    PoolBuy,
    /// [`LedgerRecord::PoolSell`]: pool −amount.
    PoolSell,
    /// [`LedgerRecord::UserCounterBuy`]: account −amount, balance +amount.
    CounterBuy,
    /// [`LedgerRecord::UserCounterSell`]: balance −amount, account +amount.
    CounterSell,
    /// [`LedgerRecord::Grant`]: balance +amount.
    Grant,
}

/// One leg of a cross-shard transfer: a book mutation expressed in the
/// *owning shard's* index space (user indices are shard-local).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XferLeg {
    /// Which mutation this leg performs.
    pub kind: XferKind,
    /// ISP the mutation targets.
    pub isp: u32,
    /// User index within the owning shard's slice of the ISP (ignored by
    /// pool-only kinds).
    pub user: u32,
    /// E-pennies moved (ignored by the unit-value `Charge`/`Deposit`).
    pub amount: i64,
}

impl XferLeg {
    /// The equivalent standalone record, applied when this leg lands.
    pub fn record(&self) -> LedgerRecord {
        let XferLeg {
            kind,
            isp,
            user,
            amount,
        } = *self;
        match kind {
            XferKind::Charge => LedgerRecord::Charge { isp, user },
            XferKind::Deposit => LedgerRecord::Deposit { isp, user },
            XferKind::PoolBuy => LedgerRecord::PoolBuy { isp, amount },
            XferKind::PoolSell => LedgerRecord::PoolSell { isp, amount },
            XferKind::CounterBuy => LedgerRecord::UserCounterBuy { isp, user, amount },
            XferKind::CounterSell => LedgerRecord::UserCounterSell { isp, user, amount },
            XferKind::Grant => LedgerRecord::Grant { isp, user, amount },
        }
    }

    fn kind_tag(kind: XferKind) -> u8 {
        match kind {
            XferKind::Charge => 0,
            XferKind::Deposit => 1,
            XferKind::PoolBuy => 2,
            XferKind::PoolSell => 3,
            XferKind::CounterBuy => 4,
            XferKind::CounterSell => 5,
            XferKind::Grant => 6,
        }
    }

    fn kind_from(tag: u8) -> Option<XferKind> {
        Some(match tag {
            0 => XferKind::Charge,
            1 => XferKind::Deposit,
            2 => XferKind::PoolBuy,
            3 => XferKind::PoolSell,
            4 => XferKind::CounterBuy,
            5 => XferKind::CounterSell,
            6 => XferKind::Grant,
            _ => return None,
        })
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(Self::kind_tag(self.kind));
        put_u32(out, self.isp);
        put_u32(out, self.user);
        put_i64(out, self.amount);
    }

    fn decode(r: &mut Reader<'_>) -> Option<XferLeg> {
        Some(XferLeg {
            kind: Self::kind_from(r.u8()?)?,
            isp: r.u32()?,
            user: r.u32()?,
            amount: r.i64()?,
        })
    }
}

const TAG_CHARGE: u8 = 1;
const TAG_DEPOSIT: u8 = 2;
const TAG_CREDIT_DELTA: u8 = 3;
const TAG_USER_BUY: u8 = 4;
const TAG_USER_SELL: u8 = 5;
const TAG_POOL_BUY: u8 = 6;
const TAG_POOL_SELL: u8 = 7;
const TAG_BANK_BUY: u8 = 8;
const TAG_BANK_SELL: u8 = 9;
const TAG_SNAPSHOT_MARKER: u8 = 10;
const TAG_DAILY_RESET: u8 = 11;
const TAG_LIMIT_SET: u8 = 12;
const TAG_GRANT: u8 = 13;
const TAG_USER_COUNTER_BUY: u8 = 14;
const TAG_USER_COUNTER_SELL: u8 = 15;
const TAG_XFER_PREPARE: u8 = 16;
const TAG_XFER_APPLY: u8 = 17;
const TAG_XFER_RELEASE: u8 = 18;
const TAG_NONCE_SEEN: u8 = 19;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Option<u8> {
        let v = *self.bytes.get(self.at)?;
        self.at += 1;
        Some(v)
    }

    fn u64(&mut self) -> Option<u64> {
        let end = self.at.checked_add(8)?;
        let v = u64::from_le_bytes(self.bytes.get(self.at..end)?.try_into().ok()?);
        self.at = end;
        Some(v)
    }

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

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

impl LedgerRecord {
    /// Appends the wire form (tag byte + little-endian fields) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            LedgerRecord::Charge { isp, user } => {
                out.push(TAG_CHARGE);
                put_u32(out, isp);
                put_u32(out, user);
            }
            LedgerRecord::Deposit { isp, user } => {
                out.push(TAG_DEPOSIT);
                put_u32(out, isp);
                put_u32(out, user);
            }
            LedgerRecord::CreditDelta { isp, peer, delta } => {
                out.push(TAG_CREDIT_DELTA);
                put_u32(out, isp);
                put_u32(out, peer);
                put_i64(out, delta);
            }
            LedgerRecord::UserBuy { isp, user, amount } => {
                out.push(TAG_USER_BUY);
                put_u32(out, isp);
                put_u32(out, user);
                put_i64(out, amount);
            }
            LedgerRecord::UserSell { isp, user, amount } => {
                out.push(TAG_USER_SELL);
                put_u32(out, isp);
                put_u32(out, user);
                put_i64(out, amount);
            }
            LedgerRecord::PoolBuy { isp, amount } => {
                out.push(TAG_POOL_BUY);
                put_u32(out, isp);
                put_i64(out, amount);
            }
            LedgerRecord::PoolSell { isp, amount } => {
                out.push(TAG_POOL_SELL);
                put_u32(out, isp);
                put_i64(out, amount);
            }
            LedgerRecord::BankBuy {
                bank,
                isp,
                value,
                cost,
            } => {
                out.push(TAG_BANK_BUY);
                put_u32(out, bank);
                put_u32(out, isp);
                put_i64(out, value);
                put_i64(out, cost);
            }
            LedgerRecord::BankSell {
                bank,
                isp,
                value,
                credit,
            } => {
                out.push(TAG_BANK_SELL);
                put_u32(out, bank);
                put_u32(out, isp);
                put_i64(out, value);
                put_i64(out, credit);
            }
            LedgerRecord::SnapshotMarker { isp } => {
                out.push(TAG_SNAPSHOT_MARKER);
                put_u32(out, isp);
            }
            LedgerRecord::DailyReset { isp } => {
                out.push(TAG_DAILY_RESET);
                put_u32(out, isp);
            }
            LedgerRecord::LimitSet { isp, user, limit } => {
                out.push(TAG_LIMIT_SET);
                put_u32(out, isp);
                put_u32(out, user);
                put_u32(out, limit);
            }
            LedgerRecord::Grant { isp, user, amount } => {
                out.push(TAG_GRANT);
                put_u32(out, isp);
                put_u32(out, user);
                put_i64(out, amount);
            }
            LedgerRecord::UserCounterBuy { isp, user, amount } => {
                out.push(TAG_USER_COUNTER_BUY);
                put_u32(out, isp);
                put_u32(out, user);
                put_i64(out, amount);
            }
            LedgerRecord::UserCounterSell { isp, user, amount } => {
                out.push(TAG_USER_COUNTER_SELL);
                put_u32(out, isp);
                put_u32(out, user);
                put_i64(out, amount);
            }
            LedgerRecord::XferPrepare {
                xid,
                dst,
                debit,
                credit,
            } => {
                out.push(TAG_XFER_PREPARE);
                put_u64(out, xid);
                put_u32(out, dst);
                debit.encode_into(out);
                credit.encode_into(out);
            }
            LedgerRecord::XferApply { xid, leg } => {
                out.push(TAG_XFER_APPLY);
                put_u64(out, xid);
                leg.encode_into(out);
            }
            LedgerRecord::XferRelease { xid } => {
                out.push(TAG_XFER_RELEASE);
                put_u64(out, xid);
            }
            LedgerRecord::NonceSeen { isp, nonce } => {
                out.push(TAG_NONCE_SEEN);
                put_u32(out, isp);
                put_u64(out, nonce);
            }
        }
    }

    /// The wire form as a fresh vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(25);
        self.encode_into(&mut out);
        out
    }

    /// Decodes one record from exactly `bytes`; `None` on an unknown
    /// tag, short read, or trailing garbage. The WAL layer treats a
    /// `None` inside a checksummed frame as corruption, not a tear.
    pub fn decode(bytes: &[u8]) -> Option<LedgerRecord> {
        let (&tag, rest) = bytes.split_first()?;
        let mut r = Reader { bytes: rest, at: 0 };
        let rec = match tag {
            TAG_CHARGE => LedgerRecord::Charge {
                isp: r.u32()?,
                user: r.u32()?,
            },
            TAG_DEPOSIT => LedgerRecord::Deposit {
                isp: r.u32()?,
                user: r.u32()?,
            },
            TAG_CREDIT_DELTA => LedgerRecord::CreditDelta {
                isp: r.u32()?,
                peer: r.u32()?,
                delta: r.i64()?,
            },
            TAG_USER_BUY => LedgerRecord::UserBuy {
                isp: r.u32()?,
                user: r.u32()?,
                amount: r.i64()?,
            },
            TAG_USER_SELL => LedgerRecord::UserSell {
                isp: r.u32()?,
                user: r.u32()?,
                amount: r.i64()?,
            },
            TAG_POOL_BUY => LedgerRecord::PoolBuy {
                isp: r.u32()?,
                amount: r.i64()?,
            },
            TAG_POOL_SELL => LedgerRecord::PoolSell {
                isp: r.u32()?,
                amount: r.i64()?,
            },
            TAG_BANK_BUY => LedgerRecord::BankBuy {
                bank: r.u32()?,
                isp: r.u32()?,
                value: r.i64()?,
                cost: r.i64()?,
            },
            TAG_BANK_SELL => LedgerRecord::BankSell {
                bank: r.u32()?,
                isp: r.u32()?,
                value: r.i64()?,
                credit: r.i64()?,
            },
            TAG_SNAPSHOT_MARKER => LedgerRecord::SnapshotMarker { isp: r.u32()? },
            TAG_DAILY_RESET => LedgerRecord::DailyReset { isp: r.u32()? },
            TAG_LIMIT_SET => LedgerRecord::LimitSet {
                isp: r.u32()?,
                user: r.u32()?,
                limit: r.u32()?,
            },
            TAG_GRANT => LedgerRecord::Grant {
                isp: r.u32()?,
                user: r.u32()?,
                amount: r.i64()?,
            },
            TAG_USER_COUNTER_BUY => LedgerRecord::UserCounterBuy {
                isp: r.u32()?,
                user: r.u32()?,
                amount: r.i64()?,
            },
            TAG_USER_COUNTER_SELL => LedgerRecord::UserCounterSell {
                isp: r.u32()?,
                user: r.u32()?,
                amount: r.i64()?,
            },
            TAG_XFER_PREPARE => LedgerRecord::XferPrepare {
                xid: r.u64()?,
                dst: r.u32()?,
                debit: XferLeg::decode(&mut r)?,
                credit: XferLeg::decode(&mut r)?,
            },
            TAG_XFER_APPLY => LedgerRecord::XferApply {
                xid: r.u64()?,
                leg: XferLeg::decode(&mut r)?,
            },
            TAG_XFER_RELEASE => LedgerRecord::XferRelease { xid: r.u64()? },
            TAG_NONCE_SEEN => LedgerRecord::NonceSeen {
                isp: r.u32()?,
                nonce: r.u64()?,
            },
            _ => return None,
        };
        r.done().then_some(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<LedgerRecord> {
        vec![
            LedgerRecord::Charge { isp: 0, user: 7 },
            LedgerRecord::Deposit { isp: 2, user: 0 },
            LedgerRecord::CreditDelta {
                isp: 1,
                peer: 2,
                delta: -3,
            },
            LedgerRecord::UserBuy {
                isp: 0,
                user: 1,
                amount: 100,
            },
            LedgerRecord::UserSell {
                isp: 0,
                user: 1,
                amount: 40,
            },
            LedgerRecord::PoolBuy {
                isp: 3,
                amount: 4500,
            },
            LedgerRecord::PoolSell {
                isp: 3,
                amount: 4500,
            },
            LedgerRecord::BankBuy {
                bank: 0,
                isp: 3,
                value: 4500,
                cost: 450,
            },
            LedgerRecord::BankSell {
                bank: 1,
                isp: 3,
                value: 4500,
                credit: 450,
            },
            LedgerRecord::SnapshotMarker { isp: 9 },
            LedgerRecord::DailyReset { isp: 9 },
            LedgerRecord::LimitSet {
                isp: 0,
                user: 3,
                limit: 5,
            },
            LedgerRecord::Grant {
                isp: 0,
                user: 3,
                amount: i64::MAX,
            },
            LedgerRecord::UserCounterBuy {
                isp: 1,
                user: 4,
                amount: 250,
            },
            LedgerRecord::UserCounterSell {
                isp: 1,
                user: 4,
                amount: 250,
            },
            LedgerRecord::XferPrepare {
                xid: u64::MAX,
                dst: 7,
                debit: XferLeg {
                    kind: XferKind::Charge,
                    isp: 0,
                    user: 2,
                    amount: 0,
                },
                credit: XferLeg {
                    kind: XferKind::Deposit,
                    isp: 5,
                    user: 9,
                    amount: 0,
                },
            },
            LedgerRecord::XferApply {
                xid: 42,
                leg: XferLeg {
                    kind: XferKind::PoolBuy,
                    isp: 3,
                    user: 0,
                    amount: 77,
                },
            },
            LedgerRecord::XferRelease { xid: 42 },
            LedgerRecord::NonceSeen {
                isp: 2,
                nonce: u64::MAX,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for rec in all_variants() {
            let bytes = rec.encode();
            assert_eq!(LedgerRecord::decode(&bytes), Some(rec), "{rec:?}");
        }
    }

    #[test]
    fn trailing_bytes_and_short_reads_are_rejected() {
        for rec in all_variants() {
            let mut bytes = rec.encode();
            bytes.push(0);
            assert_eq!(LedgerRecord::decode(&bytes), None, "trailing byte accepted");
            bytes.pop();
            bytes.pop();
            assert_eq!(LedgerRecord::decode(&bytes), None, "short read accepted");
        }
        assert_eq!(LedgerRecord::decode(&[]), None);
        assert_eq!(LedgerRecord::decode(&[0xFF, 1, 2, 3]), None, "unknown tag");
    }
}
