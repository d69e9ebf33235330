//! Dual-slot checkpoints: full [`Books`] images that bound WAL replay.
//!
//! A checkpoint is written alternately to one of two fixed slots
//! (`ckpt.a`, `ckpt.b`), so a crash mid-write can destroy at most the
//! slot being written — the other still holds the previous complete
//! image. Recovery reads both, keeps every slot whose magic, length,
//! and trailing CRC check out, and decodes the books of the one with
//! the highest sequence number (falling back to the other if they do
//! not decode).
//!
//! Slot layout (all little-endian):
//!
//! ```text
//! [magic: u32] [seq: u64] [wal_offset: u64] [books_len: u32]
//! [books: books_len bytes] [crc32 of everything above: u32]
//! ```
//!
//! `wal_offset` is the WAL length at the moment the image was taken:
//! replay — and, without an observer, the read — starts there. Leaving
//! the prefix in place instead of truncating the WAL at checkpoint time
//! keeps the two writes independent — there is no window where a crash
//! between "truncate WAL" and "write slot" could lose records.
//!
//! This module is the *format*. When an image is written is the
//! engine's decision ([`crate::engine`], "When a checkpoint is due"),
//! and a slot's length is the one number that decision takes from
//! here: an image is due only once the log has grown by as many bytes
//! as the slot would hold.

use crate::books::Books;
use crate::wal::crc32;

/// The two checkpoint slot names, in write-rotation order.
pub const SLOTS: [&str; 2] = ["ckpt.a", "ckpt.b"];

/// Slot magic: `"ZCKP"`.
pub const MAGIC: u32 = 0x5A43_4B50;

const HEADER: usize = 4 + 8 + 8 + 4;

/// One decoded checkpoint image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Monotone checkpoint sequence number (also selects the slot:
    /// even → `ckpt.a`, odd → `ckpt.b`).
    pub seq: u64,
    /// WAL length when the image was taken; replay starts here.
    pub wal_offset: u64,
    /// The full books at that moment.
    pub books: Books,
}

impl Checkpoint {
    /// The slot this checkpoint belongs in.
    pub fn slot(&self) -> &'static str {
        slot_for(self.seq)
    }

    /// Serializes the slot image, CRC last.
    pub fn encode(&self) -> Vec<u8> {
        encode_slot(self.seq, self.wal_offset, &self.books)
    }

    /// Decodes and verifies a slot image; `None` if the magic, framing,
    /// CRC, or books payload is damaged in any way.
    pub fn decode(bytes: &[u8]) -> Option<Checkpoint> {
        VerifiedSlot::of(bytes)?.decode()
    }
}

/// The slot checkpoint `seq` is written to: the two alternate.
pub(crate) fn slot_for(seq: u64) -> &'static str {
    SLOTS[(seq % 2) as usize]
}

/// Bytes [`encode_slot`] writes for `books`: what a checkpoint costs, and
/// so how much log it has to save a recovery before it is due.
pub(crate) fn slot_len(books: &Books) -> usize {
    HEADER + books.encoded_len() + 4
}

/// The slot image of `books` taken at `wal_offset`, encoded from the
/// borrowed books straight into one exactly-sized buffer.
pub(crate) fn encode_slot(seq: u64, wal_offset: u64, books: &Books) -> Vec<u8> {
    let books_len = books.encoded_len();
    let mut out = Vec::with_capacity(slot_len(books));
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&wal_offset.to_le_bytes());
    out.extend_from_slice(&(books_len as u32).to_le_bytes());
    books.encode_into(&mut out);
    assert_eq!(out.len(), HEADER + books_len, "encoded_len disagrees");
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// A slot image whose CRC, magic and length check out but whose books
/// payload is still encoded — so recovery can verify every slot and pay
/// for decoding only the one it keeps.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VerifiedSlot<'a> {
    pub(crate) seq: u64,
    pub(crate) wal_offset: u64,
    books: &'a [u8],
}

impl<'a> VerifiedSlot<'a> {
    pub(crate) fn of(bytes: &'a [u8]) -> Option<Self> {
        if bytes.len() < HEADER + 4 {
            return None;
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let crc = u32::from_le_bytes(crc_bytes.try_into().ok()?);
        if crc32(body) != crc {
            return None;
        }
        let magic = u32::from_le_bytes(body[0..4].try_into().ok()?);
        if magic != MAGIC {
            return None;
        }
        let seq = u64::from_le_bytes(body[4..12].try_into().ok()?);
        let wal_offset = u64::from_le_bytes(body[12..20].try_into().ok()?);
        let books_len = u32::from_le_bytes(body[20..24].try_into().ok()?) as usize;
        let books = body.get(HEADER..)?;
        (books.len() == books_len).then_some(VerifiedSlot {
            seq,
            wal_offset,
            books,
        })
    }

    /// Decodes the books payload; `None` if it is not a books encoding.
    pub(crate) fn decode(&self) -> Option<Checkpoint> {
        Some(Checkpoint {
            seq: self.seq,
            wal_offset: self.wal_offset,
            books: Books::decode(self.books)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::books::{BankBooks, IspBooks, UserBooks};

    fn sample(seq: u64) -> Checkpoint {
        Checkpoint {
            seq,
            wal_offset: 1234,
            books: Books {
                isps: vec![IspBooks {
                    users: vec![UserBooks {
                        account: 990,
                        balance: 110,
                        sent_today: 2,
                        limit: 100,
                    }],
                    avail: 5_000,
                    credit: vec![0],
                    nonces: Vec::new(),
                }],
                banks: vec![BankBooks {
                    accounts: vec![1_000_000],
                    issued: 0,
                }],
            },
        }
    }

    #[test]
    fn round_trips_and_alternates_slots() {
        for seq in [0, 1, 2, 7] {
            let ckpt = sample(seq);
            assert_eq!(Checkpoint::decode(&ckpt.encode()), Some(ckpt.clone()));
            assert_eq!(ckpt.slot(), SLOTS[(seq % 2) as usize]);
        }
    }

    #[test]
    fn any_single_byte_corruption_is_rejected() {
        let bytes = sample(3).encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert_eq!(
                Checkpoint::decode(&bad),
                None,
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample(3).encode();
        for cut in 0..bytes.len() {
            assert_eq!(Checkpoint::decode(&bytes[..cut]), None, "cut at {cut}");
        }
        assert_eq!(Checkpoint::decode(&[]), None);
    }
}
