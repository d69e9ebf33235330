//! WAL framing: length- and CRC-guarded record envelopes, and the tail
//! scan that recovery runs.
//!
//! Every payload is wrapped as
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! and frames are simply concatenated. A crash can leave the log with a
//! *torn tail* — a final frame whose bytes only partially reached the
//! device. [`scan`] walks frames from a starting offset and stops at the
//! first header that runs past the end, length that fails the sanity
//! cap, or payload whose CRC disagrees; everything before that point is
//! the valid prefix, everything after is the tear. Because any bit flip
//! in a header or payload fails the CRC (or the length check), a torn
//! or corrupted tail is *detected and truncated*, never silently
//! replayed into the books.

/// Bytes of framing overhead per record: length + checksum.
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a single frame's payload. Real records are tens of
/// bytes; a "length" beyond this is garbage read from a torn header, so
/// the scan treats it as a tear rather than attempting a huge read.
pub const MAX_FRAME: u32 = 1 << 20;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) — the same
/// checksum gzip and PNG use, computed over the payload bytes.
///
/// Slicing-by-8: each step folds eight input bytes through eight
/// tables, where `TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes; the remainder goes a byte at a time through `TABLES[0]`.
/// The upper four bytes of a step do not depend on the running CRC, so
/// their lookups are kept apart from the four that wait for it.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = crc32_tables();
    let mut crc = !0u32;
    let (steps, rest) = bytes.as_chunks::<8>();
    for c in steps {
        let ahead = TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = ahead
            ^ TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize];
    }
    for &b in rest {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [crc32_table(); 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Appends one framed payload to `out`.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    encode_frame_with(out, |out| out.extend_from_slice(payload));
}

/// Appends one frame to `out` whose payload `write` produces in place:
/// the header is reserved first and back-patched once the payload's
/// length and CRC are known, so the payload needs no buffer of its own.
pub fn encode_frame_with(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    write(out);
    let payload = &out[header + FRAME_HEADER..];
    debug_assert!(payload.len() as u32 <= MAX_FRAME);
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[header..header + 4].copy_from_slice(&len.to_le_bytes());
    out[header + 4..header + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// The valid frames of a log, in order, as `(header offset, payload)`
/// pairs borrowed from it. Ends at the first short, oversized, or
/// checksum-failing frame; [`Frames::offset`] then says where.
#[derive(Debug, Clone)]
pub(crate) struct Frames<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Frames<'a> {
    /// Frames of `bytes` from offset `from` on (clamped to the end).
    pub(crate) fn new(bytes: &'a [u8], from: u64) -> Self {
        let at = usize::try_from(from).map_or(bytes.len(), |from| from.min(bytes.len()));
        Frames { bytes, at }
    }

    /// Offset just past the last frame yielded: the start of the next
    /// frame, or of the tear once the iterator has ended.
    pub(crate) fn offset(&self) -> u64 {
        self.at as u64
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = (u64, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let rest = self.bytes.get(self.at..)?;
        let (header, body) = rest.split_first_chunk::<FRAME_HEADER>()?;
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len > MAX_FRAME {
            return None;
        }
        let payload = body.get(..len as usize)?;
        if crc32(payload) != crc {
            return None;
        }
        let offset = self.at as u64;
        self.at += FRAME_HEADER + len as usize;
        Some((offset, payload))
    }
}

/// What a [`scan`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scan<'a> {
    /// The payload of every valid frame, in log order, borrowed from
    /// the scanned bytes.
    pub payloads: Vec<&'a [u8]>,
    /// Byte offset of each frame's header, parallel to `payloads` — the
    /// truncation point if that frame must be rejected after all (e.g.
    /// its payload fails record decoding).
    pub offsets: Vec<u64>,
    /// Offset just past the last valid frame — where the log should be
    /// truncated to, and where new appends resume.
    pub valid_len: u64,
    /// Whether bytes past `valid_len` existed (a torn or corrupt tail).
    pub torn: bool,
}

/// Walks frames in `bytes` starting at `from`, stopping at the first
/// short, oversized, or checksum-failing frame.
///
/// A `from` beyond the end of `bytes` (possible when a checkpoint
/// outlived WAL bytes a crash threw away) yields an empty, torn scan at
/// `valid_len = from.min(len)`.
pub fn scan(bytes: &[u8], from: u64) -> Scan<'_> {
    let mut frames = Frames::new(bytes, from);
    let (offsets, payloads) = frames.by_ref().unzip();
    Scan {
        payloads,
        offsets,
        valid_len: frames.offset(),
        torn: frames.offset() < bytes.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time kernel `crc32` replaced: the reference the
    /// slicing-by-8 kernel is proved equal to.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        const TABLE: [u32; 256] = crc32_table();
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        for kernel in [crc32, crc32_bytewise] {
            assert_eq!(kernel(b""), 0);
            assert_eq!(kernel(b"123456789"), 0xCBF4_3926);
            assert_eq!(
                kernel(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
        }
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_alignment() {
        let buffer: Vec<u8> = (0..72u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buffer[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start}, length {len}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn crc32_equals_the_bytewise_reference_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..65_537),
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        }
    }

    fn log_of(payloads: &[&[u8]]) -> Vec<u8> {
        let mut log = Vec::new();
        for p in payloads {
            encode_frame(p, &mut log);
        }
        log
    }

    #[test]
    fn scan_reads_back_what_was_framed() {
        let log = log_of(&[b"one", b"", b"three"]);
        let scan = scan(&log, 0);
        assert_eq!(scan.payloads, [b"one".as_slice(), b"", b"three"]);
        assert_eq!(scan.valid_len, log.len() as u64);
        assert!(!scan.torn);
    }

    #[test]
    fn scan_honours_the_starting_offset() {
        let head = log_of(&[b"checkpointed"]);
        let mut log = head.clone();
        encode_frame(b"tail", &mut log);
        let s = scan(&log, head.len() as u64);
        assert_eq!(s.payloads, [b"tail".as_slice()]);
        assert!(!s.torn);
        // Offset beyond the end: empty and torn-free length clamp.
        let s = scan(&head, head.len() as u64 + 64);
        assert!(s.payloads.is_empty());
        assert_eq!(s.valid_len, head.len() as u64);
    }

    #[test]
    fn torn_tail_is_cut_at_every_possible_tear_point() {
        let log = log_of(&[b"alpha", b"beta"]);
        let first_len = (FRAME_HEADER + 5) as u64;
        for cut in 0..log.len() {
            let scan = scan(&log[..cut], 0);
            // Valid length must be a frame boundary at or before the cut.
            assert!(scan.valid_len <= cut as u64);
            assert!(
                [0, first_len].contains(&scan.valid_len),
                "cut {cut}: valid_len {}",
                scan.valid_len
            );
            assert_eq!(scan.torn, scan.valid_len < cut as u64);
        }
    }

    #[test]
    fn corrupt_byte_anywhere_stops_the_scan_before_that_frame() {
        let log = log_of(&[b"alpha", b"beta", b"gamma"]);
        for i in 0..log.len() {
            let mut bad = log.clone();
            bad[i] ^= 0x40;
            let scan = scan(&bad, 0);
            assert!(
                scan.torn || scan.payloads.len() == 3,
                "flip at {i} silently accepted a damaged log"
            );
            // No scanned payload may differ from the originals: damage
            // must stop the scan, not alter a record.
            for (p, orig) in scan
                .payloads
                .iter()
                .zip([b"alpha".as_slice(), b"beta", b"gamma"])
            {
                assert_eq!(*p, orig, "flip at {i} corrupted a replayed record");
            }
        }
    }

    #[test]
    fn oversized_length_header_is_a_tear_not_an_allocation() {
        let mut log = Vec::new();
        log.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        log.extend_from_slice(&[0; 100]);
        let scan = scan(&log, 0);
        assert!(scan.payloads.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert!(scan.torn);
    }
}
