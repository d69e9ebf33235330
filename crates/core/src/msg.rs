//! The message alphabet of §4: email between ISPs, buy/sell/snapshot
//! exchanges between ISPs and the bank.
//!
//! §4.3's `buy` and `sell` are one request and one reply message tagged
//! with the [`Exchange`] side; [`NetMsg::label`] keeps the four names.
//!
//! Bank-bound and bank-issued messages carry [`SealedEnvelope`]s — the
//! paper's `NCR(B_b, …)` / `NCR(R_b, …)` — exactly as specified. Each such
//! message also carries an `audit` copy of the e-penny amount involved.
//! The audit field is **not part of the protocol**: no process reads it;
//! it exists so the conservation auditor in [`crate::invariants`] can count
//! e-pennies in flight without breaking the encryption it is auditing.

use crate::ids::IspId;
use zmail_crypto::{Attestation, SealedEnvelope};
use zmail_sim::workload::{MailKind, UserAddr};

/// One email message travelling between ISPs.
#[derive(Debug, Clone, PartialEq)]
pub struct EmailMsg {
    /// Sending user (`user s of isp[i]`).
    pub from: UserAddr,
    /// Receiving user (`user r of isp[j]`).
    pub to: UserAddr,
    /// Ground-truth class, for experiment accounting only.
    pub kind: MailKind,
    /// Whether one e-penny travels with the message (true exactly when the
    /// sending ISP is compliant and debited the sender).
    pub paid: bool,
    /// Detached payment attestation (`X-Zmail-Sig` on the SMTP mapping):
    /// the origin ISP's signature over the payment-relevant fields, with
    /// a single-use nonce. `None` in legacy unsigned deployments — and
    /// exactly what a signature-stripping adversary leaves behind.
    pub attestation: Option<Attestation>,
}

impl EmailMsg {
    /// E-pennies in flight inside this message.
    pub fn pennies_in_flight(&self) -> i64 {
        i64::from(self.paid)
    }
}

/// Which of the two §4.3 ISP↔bank exchanges a message or a piece of
/// state belongs to. The paper specifies them as the same nonce-guarded
/// request/reply with the variables renamed (`canbuy/buyvalue/ns1` ↔
/// `cansell/sellvalue/ns2`); the code is written once and indexed by
/// this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Exchange {
    /// The ISP buys e-pennies: the bank issues them into its pool.
    Buy,
    /// The ISP sells e-pennies back: the bank retires them from its pool.
    Sell,
}

impl Exchange {
    /// Both sides, in the order every probe visits them (buy first), so
    /// nonce and seal draws keep one order.
    pub const BOTH: [Exchange; 2] = [Exchange::Buy, Exchange::Sell];

    /// The paper's name of the request message.
    pub fn label(self) -> &'static str {
        match self {
            Exchange::Buy => "buy",
            Exchange::Sell => "sell",
        }
    }

    /// Direction the exchanged value moves the ISP's pool: `+1` for a
    /// buy, `−1` for a sell.
    pub fn sign(self) -> i64 {
        match self {
            Exchange::Buy => 1,
            Exchange::Sell => -1,
        }
    }

    /// Position of this side in per-side arrays.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// A message on the wire between two parties of the protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum NetMsg {
    /// `email(s, r)` from one ISP to another.
    Email(EmailMsg),
    /// `buy(NCR(Bb, buyvalue|ns1))` / `sell(NCR(Bb, sellvalue|ns2))` —
    /// the ISP asks to buy e-pennies, or to sell them back.
    Exchange {
        /// Which exchange this opens.
        side: Exchange,
        /// The sealed `(value | nonce)` payload.
        envelope: SealedEnvelope,
        /// Auditor-only mirror of `buyvalue` / `sellvalue`.
        audit: i64,
    },
    /// `buyreply(NCR(Rb, nr|accepted))` / `sellreply(NCR(Rb, nr))` — the
    /// bank's answer.
    ExchangeReply {
        /// Which exchange this closes.
        side: Exchange,
        /// The sealed `(accepted | nonce)` payload (`accepted` is 0 in
        /// a sell confirmation, which cannot be refused).
        envelope: SealedEnvelope,
        /// Auditor-only mirror: e-pennies granted (0 when rejected), or
        /// retired once the ISP applies the confirmation.
        audit: i64,
        /// Auditor-only: this is a cached copy of an earlier reply,
        /// served because the ISP retransmitted an idempotent request id
        /// (see `ZmailConfig::idempotent_bank_ids`). The value was
        /// already issued or retired — and, if the original reply was
        /// lost, counted as stranded — so a replayed copy carries no
        /// *new* value in flight.
        replayed: bool,
    },
    /// `request(NCR(Rb, seq))` — bank asks for a credit snapshot.
    SnapshotRequest {
        /// The sealed sequence number.
        envelope: SealedEnvelope,
    },
    /// `reply(NCR(Bb, credit))` — ISP returns its credit array.
    SnapshotReply {
        /// The responding ISP (transport-level addressing).
        from: IspId,
        /// The sealed credit array.
        envelope: SealedEnvelope,
    },
}

impl NetMsg {
    /// E-pennies considered "in flight" inside this message by the
    /// conservation auditor: +1 per paid email, +`buyvalue` in an accepted
    /// buy reply (issued by the bank, not yet in the ISP pool), and
    /// −`sellvalue` in a sell reply (retired by the bank, still counted in
    /// the ISP pool until the reply lands).
    pub fn pennies_in_flight(&self) -> i64 {
        match self {
            NetMsg::Email(email) => email.pennies_in_flight(),
            NetMsg::ExchangeReply { replayed: true, .. } => 0,
            NetMsg::ExchangeReply { side, audit, .. } => side.sign() * *audit,
            NetMsg::Exchange { .. }
            | NetMsg::SnapshotRequest { .. }
            | NetMsg::SnapshotReply { .. } => 0,
        }
    }

    /// Deterministic content digest, the parallel staging payload of the
    /// full-protocol harness: FNV-1a over the message's wire-visible
    /// content (sealed envelope bytes where one is carried), finished
    /// with an avalanche mix. Models the per-message evidence work of §4
    /// — pure compute over immutable inputs, safe to run on any stage
    /// worker.
    pub fn digest(&self) -> u64 {
        let mut h = Digest::new();
        h.eat(self.label().as_bytes());
        match self {
            NetMsg::Email(email) => {
                h.eat(&email.from.isp.to_le_bytes());
                h.eat(&email.from.user.to_le_bytes());
                h.eat(&email.to.isp.to_le_bytes());
                h.eat(&email.to.user.to_le_bytes());
                h.eat(&[email.kind as u8, u8::from(email.paid)]);
                // Unsigned mail folds nothing extra, so legacy digests
                // (and hence `RunReport::digest_checksum`) are unchanged
                // when attestations are off.
                if let Some(att) = &email.attestation {
                    h.eat(&att.encode());
                }
            }
            NetMsg::Exchange {
                envelope, audit, ..
            } => {
                h.eat(&envelope.to_bytes());
                h.eat(&audit.to_le_bytes());
            }
            NetMsg::ExchangeReply {
                envelope,
                audit,
                replayed,
                ..
            } => {
                h.eat(&envelope.to_bytes());
                h.eat(&audit.to_le_bytes());
                h.eat(&[u8::from(*replayed)]);
            }
            NetMsg::SnapshotRequest { envelope } => h.eat(&envelope.to_bytes()),
            NetMsg::SnapshotReply { from, envelope } => {
                h.eat(&from.0.to_le_bytes());
                h.eat(&envelope.to_bytes());
            }
        }
        h.finish()
    }

    /// Short label for traces and metrics: the paper's message names
    /// (the side is folded into the digest through this label).
    pub fn label(&self) -> &'static str {
        match self {
            NetMsg::Email(_) => "email",
            NetMsg::Exchange { side, .. } => side.label(),
            NetMsg::ExchangeReply { side, .. } => match side {
                Exchange::Buy => "buyreply",
                Exchange::Sell => "sellreply",
            },
            NetMsg::SnapshotRequest { .. } => "request",
            NetMsg::SnapshotReply { .. } => "reply",
        }
    }
}

/// The one event hasher behind [`RunReport::digest_checksum`](crate::RunReport):
/// FNV-1a over the bytes it is fed, finished with an avalanche mix.
pub(crate) struct Digest(u64);

impl Digest {
    pub(crate) fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub(crate) fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Finishing avalanche (splitmix64-style) so near-identical events
    /// land far apart in the checksum fold.
    pub(crate) fn finish(self) -> u64 {
        let mut h = self.0;
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }
}

/// Serializes a `(value, nonce)` pair for sealing — the paper's
/// `buyvalue|ns1` / `sellvalue|ns2` concatenation.
pub fn encode_value_nonce(value: i64, nonce: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&value.to_le_bytes());
    out.extend_from_slice(&nonce.to_le_bytes());
    out
}

/// Parses a `(value, nonce)` pair sealed by [`encode_value_nonce`].
pub fn decode_value_nonce(bytes: &[u8]) -> Option<(i64, u64)> {
    if bytes.len() != 16 {
        return None;
    }
    let value = i64::from_le_bytes(bytes[..8].try_into().ok()?);
    let nonce = u64::from_le_bytes(bytes[8..].try_into().ok()?);
    Some((value, nonce))
}

/// Serializes a credit array for the snapshot reply.
pub fn encode_credit(credit: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(credit.len() * 8);
    for &c in credit {
        out.extend_from_slice(&c.to_le_bytes());
    }
    out
}

/// Parses a credit array sealed by [`encode_credit`].
pub fn decode_credit(bytes: &[u8]) -> Option<Vec<i64>> {
    if !bytes.len().is_multiple_of(8) {
        return None;
    }
    Some(
        bytes
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_nonce_roundtrip() {
        for (v, n) in [(0i64, 0u64), (500, 42), (-3, u64::MAX), (i64::MIN, 1)] {
            let bytes = encode_value_nonce(v, n);
            assert_eq!(decode_value_nonce(&bytes), Some((v, n)));
        }
    }

    #[test]
    fn value_nonce_rejects_bad_length() {
        assert_eq!(decode_value_nonce(&[0u8; 15]), None);
        assert_eq!(decode_value_nonce(&[0u8; 17]), None);
        assert_eq!(decode_value_nonce(&[]), None);
    }

    #[test]
    fn credit_roundtrip() {
        let credit = vec![0i64, 5, -5, i64::MAX, i64::MIN];
        assert_eq!(decode_credit(&encode_credit(&credit)), Some(credit));
        assert_eq!(decode_credit(&encode_credit(&[])), Some(vec![]));
    }

    #[test]
    fn credit_rejects_ragged_length() {
        assert_eq!(decode_credit(&[1, 2, 3]), None);
    }

    #[test]
    fn pennies_in_flight_accounting() {
        let paid = EmailMsg {
            from: UserAddr::new(0, 0),
            to: UserAddr::new(1, 0),
            kind: MailKind::Personal,
            paid: true,
            attestation: None,
        };
        let unpaid = EmailMsg {
            paid: false,
            ..paid.clone()
        };
        assert_eq!(NetMsg::Email(paid).pennies_in_flight(), 1);
        assert_eq!(NetMsg::Email(unpaid).pennies_in_flight(), 0);
    }

    #[test]
    fn exchange_messages_keep_the_papers_names_and_signs() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let bank = zmail_crypto::KeyPair::generate(&mut rng);
        let envelope =
            zmail_crypto::seal_with_private(bank.private(), &encode_value_nonce(7, 9), &mut rng);
        for (side, request, reply, in_flight) in [
            (Exchange::Buy, "buy", "buyreply", 7),
            (Exchange::Sell, "sell", "sellreply", -7),
        ] {
            let asked = NetMsg::Exchange {
                side,
                envelope: envelope.clone(),
                audit: 7,
            };
            assert_eq!((asked.label(), asked.pennies_in_flight()), (request, 0));
            let answered = |replayed| NetMsg::ExchangeReply {
                side,
                envelope: envelope.clone(),
                audit: 7,
                replayed,
            };
            assert_eq!(answered(false).label(), reply);
            assert_eq!(answered(false).pennies_in_flight(), in_flight);
            assert_eq!(answered(true).pennies_in_flight(), 0, "no new value");
            // The side reaches the digest through the label alone.
            assert_ne!(answered(false).digest(), answered(true).digest());
        }
        assert_eq!(Exchange::BOTH.map(Exchange::index), [0, 1]);
    }

    #[test]
    fn labels_are_distinct_for_email_and_buy() {
        let email = NetMsg::Email(EmailMsg {
            from: UserAddr::new(0, 0),
            to: UserAddr::new(1, 0),
            kind: MailKind::Personal,
            paid: true,
            attestation: None,
        });
        assert_eq!(email.label(), "email");
    }
}
