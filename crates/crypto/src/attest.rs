//! Signed payment and acknowledgment attestations.
//!
//! The `X-Zmail-*` headers are plain text: any relay can fabricate a
//! payment stamp, strip one off, or replay an acknowledgment to farm §5
//! refunds. An [`Attestation`] closes that hole the way DKIM closes the
//! body-hash hole: the sending ISP computes a digest over the *stable
//! payment fields* of a message — origin, destination, amount, a fresh
//! [`Nnc`](crate::Nnc) nonce, and (for acks) the nonce of the payment
//! being refunded — and signs that digest with its private key. The
//! detached signature travels with the message (in the simulator as a
//! field on `EmailMsg`, on the SMTP wire as the `X-Zmail-Sig` header)
//! and survives everything a relay may legitimately rewrite, because
//! none of the signed fields are touched by header reordering, folding,
//! or added trace headers.
//!
//! The receiving ISP verifies three things, in order:
//!
//! 1. **authenticity** — the signature opens under the *claimed origin
//!    ISP's* public key ([`Attestation::verify`]);
//! 2. **binding** — the signed fields match the message it arrived on
//!    (checked by the caller, which owns the message representation);
//! 3. **freshness** — the nonce has never been accepted before, which
//!    makes every attestation (and therefore every ack refund) single
//!    use. The accepted-nonce set is durable state: it must survive
//!    crash recovery or a replay farmer simply waits for a restart.
//!
//! Signatures are textbook RSA over the crate's 64-bit moduli (see the
//! crate docs for why that is acceptable here): the 64-bit digest is
//! split into two `u32` blocks, each signed with
//! [`PrivateKey::encrypt_block`] and verified with
//! [`PublicKey::decrypt_block`].

use crate::{CryptoError, PrivateKey, PublicKey};

/// A detached, signed payment (or ack-refund) attestation.
///
/// `Copy` on purpose: attestations ride inside simulator messages that
/// are copied freely across the event queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Attestation {
    /// ISP id of the paying (origin) side — the signer.
    pub origin_isp: u32,
    /// User index at the origin ISP.
    pub origin_user: u32,
    /// ISP id of the receiving (destination) side.
    pub dest_isp: u32,
    /// User index at the destination ISP.
    pub dest_user: u32,
    /// E-pennies attached (always 1 in the paper's economy).
    pub amount: i64,
    /// Fresh `NNC` nonce: accepted at most once by the destination.
    pub nonce: u64,
    /// For ack refunds: the nonce of the payment being refunded, so a
    /// refund is bound to exactly one original payment. `None` for
    /// ordinary payments.
    pub refund_of: Option<u64>,
    /// RSA signature over [`Attestation::digest`], low half then high.
    pub sig: [u64; 2],
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// SplitMix64 finalizer: avalanche so single-bit field changes flip the
/// digest everywhere.
fn avalanche(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Signs a 64-bit digest: each `u32` half becomes one RSA block.
pub fn sign_digest(private: &PrivateKey, digest: u64) -> [u64; 2] {
    [
        private.encrypt_block(digest as u32),
        private.encrypt_block((digest >> 32) as u32),
    ]
}

/// Verifies a [`sign_digest`] signature against `digest` under `public`.
pub fn verify_digest(public: &PublicKey, digest: u64, sig: &[u64; 2]) -> bool {
    public.decrypt_block(sig[0]) == Some(digest as u32)
        && public.decrypt_block(sig[1]) == Some((digest >> 32) as u32)
}

/// Wire length of an encoded attestation, in bytes.
pub const ATTESTATION_WIRE_LEN: usize = 4 + 4 + 4 + 4 + 8 + 8 + 1 + 8 + 8 + 8;

impl Attestation {
    /// Builds and signs an attestation over the given payment fields.
    #[allow(clippy::too_many_arguments)]
    pub fn sign(
        private: &PrivateKey,
        origin_isp: u32,
        origin_user: u32,
        dest_isp: u32,
        dest_user: u32,
        amount: i64,
        nonce: u64,
        refund_of: Option<u64>,
    ) -> Attestation {
        let mut att = Attestation {
            origin_isp,
            origin_user,
            dest_isp,
            dest_user,
            amount,
            nonce,
            refund_of,
            sig: [0, 0],
        };
        att.sig = sign_digest(private, att.digest());
        att
    }

    /// The canonical digest over every field except the signature:
    /// FNV-1a over a fixed little-endian layout, then avalanched.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, b"zmail-attest-v1");
        fnv1a(&mut h, &self.origin_isp.to_le_bytes());
        fnv1a(&mut h, &self.origin_user.to_le_bytes());
        fnv1a(&mut h, &self.dest_isp.to_le_bytes());
        fnv1a(&mut h, &self.dest_user.to_le_bytes());
        fnv1a(&mut h, &self.amount.to_le_bytes());
        fnv1a(&mut h, &self.nonce.to_le_bytes());
        match self.refund_of {
            None => fnv1a(&mut h, &[0]),
            Some(n) => {
                fnv1a(&mut h, &[1]);
                fnv1a(&mut h, &n.to_le_bytes());
            }
        }
        avalanche(h)
    }

    /// Verifies the signature under the claimed origin ISP's public key.
    ///
    /// # Errors
    ///
    /// [`CryptoError::WrongKey`] when the signature does not open to this
    /// attestation's digest — a forgery, a tamper, or the wrong key.
    pub fn verify(&self, public: &PublicKey) -> Result<(), CryptoError> {
        if verify_digest(public, self.digest(), &self.sig) {
            Ok(())
        } else {
            Err(CryptoError::WrongKey)
        }
    }

    /// Fixed little-endian wire form, [`ATTESTATION_WIRE_LEN`] bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ATTESTATION_WIRE_LEN);
        out.extend_from_slice(&self.origin_isp.to_le_bytes());
        out.extend_from_slice(&self.origin_user.to_le_bytes());
        out.extend_from_slice(&self.dest_isp.to_le_bytes());
        out.extend_from_slice(&self.dest_user.to_le_bytes());
        out.extend_from_slice(&self.amount.to_le_bytes());
        out.extend_from_slice(&self.nonce.to_le_bytes());
        match self.refund_of {
            None => {
                out.push(0);
                out.extend_from_slice(&0u64.to_le_bytes());
            }
            Some(n) => {
                out.push(1);
                out.extend_from_slice(&n.to_le_bytes());
            }
        }
        out.extend_from_slice(&self.sig[0].to_le_bytes());
        out.extend_from_slice(&self.sig[1].to_le_bytes());
        out
    }

    /// Decodes a wire form; `None` on any short read, bad flag byte, or
    /// trailing garbage. Never panics, whatever the input — the header
    /// this travels in is attacker-controlled.
    pub fn decode(bytes: &[u8]) -> Option<Attestation> {
        if bytes.len() != ATTESTATION_WIRE_LEN {
            return None;
        }
        let u32_at = |i: usize| -> u32 { u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap()) };
        let u64_at = |i: usize| -> u64 { u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap()) };
        let refund_of = match bytes[32] {
            0 if u64_at(33) == 0 => None,
            1 => Some(u64_at(33)),
            _ => return None,
        };
        Some(Attestation {
            origin_isp: u32_at(0),
            origin_user: u32_at(4),
            dest_isp: u32_at(8),
            dest_user: u32_at(12),
            amount: i64::from_le_bytes(bytes[16..24].try_into().unwrap()),
            nonce: u64_at(24),
            refund_of,
            sig: [u64_at(41), u64_at(49)],
        })
    }

    /// Hex form for carrying the attestation in an SMTP header.
    pub fn to_hex(&self) -> String {
        self.encode().iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Parses [`Attestation::to_hex`] output; `None` on anything else
    /// (odd length, non-hex bytes, wrong decoded length). Never panics:
    /// the input is attacker-controlled header text.
    pub fn from_hex(s: &str) -> Option<Attestation> {
        let s = s.trim();
        if s.len() != 2 * ATTESTATION_WIRE_LEN {
            return None;
        }
        let mut bytes = Vec::with_capacity(ATTESTATION_WIRE_LEN);
        let chars: Vec<char> = s.chars().collect();
        for pair in chars.chunks(2) {
            let hi = pair[0].to_digit(16)?;
            let lo = pair.get(1)?.to_digit(16)?;
            bytes.push((hi * 16 + lo) as u8);
        }
        Attestation::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeyPair;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sample(kp: &KeyPair) -> Attestation {
        Attestation::sign(kp.private(), 0, 3, 1, 7, 1, 0xDEAD_BEEF, None)
    }

    #[test]
    fn signing_then_verifying_round_trips() {
        let kp = KeyPair::generate(&mut SmallRng::seed_from_u64(1));
        let att = sample(&kp);
        assert_eq!(att.verify(kp.public()), Ok(()));
    }

    #[test]
    fn wrong_key_is_rejected() {
        let a = KeyPair::generate(&mut SmallRng::seed_from_u64(2));
        let b = KeyPair::generate(&mut SmallRng::seed_from_u64(3));
        let att = sample(&a);
        assert_eq!(att.verify(b.public()), Err(CryptoError::WrongKey));
    }

    #[test]
    fn any_field_mutation_breaks_the_signature() {
        let kp = KeyPair::generate(&mut SmallRng::seed_from_u64(4));
        let att = sample(&kp);
        let mutations = [
            Attestation {
                origin_isp: att.origin_isp + 1,
                ..att
            },
            Attestation {
                origin_user: att.origin_user + 1,
                ..att
            },
            Attestation {
                dest_isp: att.dest_isp + 1,
                ..att
            },
            Attestation {
                dest_user: att.dest_user + 1,
                ..att
            },
            Attestation {
                amount: att.amount + 1,
                ..att
            },
            Attestation {
                nonce: att.nonce ^ 1,
                ..att
            },
            Attestation {
                refund_of: Some(9),
                ..att
            },
        ];
        for m in mutations {
            assert_eq!(m.verify(kp.public()), Err(CryptoError::WrongKey), "{m:?}");
        }
    }

    #[test]
    fn refund_of_none_and_some_zero_digest_differently() {
        let kp = KeyPair::generate(&mut SmallRng::seed_from_u64(5));
        let a = Attestation::sign(kp.private(), 0, 0, 1, 0, 1, 5, None);
        let b = Attestation::sign(kp.private(), 0, 0, 1, 0, 1, 5, Some(0));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn encode_decode_round_trips() {
        let kp = KeyPair::generate(&mut SmallRng::seed_from_u64(6));
        for refund_of in [None, Some(42u64)] {
            let att = Attestation::sign(kp.private(), 2, 9, 0, 1, 1, 77, refund_of);
            let bytes = att.encode();
            assert_eq!(bytes.len(), ATTESTATION_WIRE_LEN);
            assert_eq!(Attestation::decode(&bytes), Some(att));
        }
    }

    #[test]
    fn decode_rejects_short_long_and_bad_flag() {
        let kp = KeyPair::generate(&mut SmallRng::seed_from_u64(7));
        let mut bytes = sample(&kp).encode();
        bytes.push(0);
        assert_eq!(Attestation::decode(&bytes), None, "trailing byte");
        bytes.pop();
        bytes.pop();
        assert_eq!(Attestation::decode(&bytes), None, "short read");
        let mut bad_flag = sample(&kp).encode();
        bad_flag[32] = 2;
        assert_eq!(Attestation::decode(&bad_flag), None, "bad flag byte");
        assert_eq!(Attestation::decode(&[]), None);
    }

    #[test]
    fn non_canonical_none_encoding_is_rejected() {
        // flag=0 with a nonzero refund nonce behind it would give two
        // encodings of the same attestation; the decoder refuses it.
        let kp = KeyPair::generate(&mut SmallRng::seed_from_u64(8));
        let mut bytes = sample(&kp).encode();
        bytes[33] = 1;
        assert_eq!(Attestation::decode(&bytes), None);
    }

    #[test]
    fn hex_round_trips_and_garbage_never_panics() {
        let kp = KeyPair::generate(&mut SmallRng::seed_from_u64(9));
        let att = sample(&kp);
        assert_eq!(Attestation::from_hex(&att.to_hex()), Some(att));
        for garbage in ["", "zz", "0", &"0".repeat(2 * ATTESTATION_WIRE_LEN - 1)] {
            assert_eq!(Attestation::from_hex(garbage), None);
        }
        // Right length, non-hex characters.
        let bad = "g".repeat(2 * ATTESTATION_WIRE_LEN);
        assert_eq!(Attestation::from_hex(&bad), None);
    }

    #[test]
    fn digest_is_stable_across_calls() {
        let kp = KeyPair::generate(&mut SmallRng::seed_from_u64(10));
        let att = sample(&kp);
        assert_eq!(att.digest(), att.digest());
    }
}
