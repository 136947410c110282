//! Length-prefixed, checksummed log frames — the on-disk codec under the
//! serving layer's write-ahead log and snapshot files.
//!
//! A frame is `[len: u32 LE][checksum: u64 LE][payload: len bytes]` where
//! `checksum = fnv1a64(payload)`. The format is deliberately dumb: no
//! compression, no escape sequences, no alignment — so a reader can
//! always decide, byte-exactly, where the valid prefix of a log ends.
//! Everything after the first frame that is truncated (fewer bytes than
//! the header promises) or corrupt (checksum mismatch) is a **torn
//! tail**: the writer died mid-append, or the storage scribbled on the
//! file. Recovery keeps the valid prefix and discards the tail.
//!
//! The checksum is the same 64-bit FNV-1a the workspace already uses for
//! deterministic hashing ([`crate::FxHasher`] is a sibling); it is an
//! integrity check against torn writes and bit rot, not an
//! authentication code.

/// Bytes of frame header: `u32` payload length + `u64` payload checksum.
pub const FRAME_HEADER_LEN: usize = 12;

/// Frames longer than this are rejected as corrupt rather than believed:
/// a flipped bit in the length field must not convince a reader that a
/// gigabyte of garbage is one frame. 256 MiB comfortably exceeds any
/// batch or snapshot this system writes.
pub const MAX_FRAME_LEN: usize = 256 << 20;

/// 64-bit FNV-1a over a byte slice (offset basis / prime per the spec).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Append one encoded frame for `payload` onto `out`.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    assert!(
        payload.len() <= MAX_FRAME_LEN,
        "frame payload of {} bytes exceeds MAX_FRAME_LEN",
        payload.len()
    );
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Why a scan stopped before the end of the buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TornKind {
    /// Fewer bytes than one header needs.
    TruncatedHeader,
    /// The header promises more payload bytes than remain.
    TruncatedPayload,
    /// The payload is all there but its checksum does not match.
    BadChecksum,
    /// The length field exceeds [`MAX_FRAME_LEN`].
    ImplausibleLength,
}

/// A torn tail: everything from `offset` on is invalid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the first invalid frame (= length of the valid
    /// prefix).
    pub offset: usize,
    /// What was wrong at `offset`.
    pub kind: TornKind,
}

/// Iterator over the valid frame prefix of a byte buffer.
///
/// `next_frame` yields payload slices until the buffer ends cleanly or a
/// torn tail is hit; afterwards [`FrameScan::valid_len`] is the byte
/// length of the valid prefix and [`FrameScan::torn`] reports the tail,
/// if any.
pub struct FrameScan<'a> {
    bytes: &'a [u8],
    pos: usize,
    torn: Option<TornTail>,
}

impl<'a> FrameScan<'a> {
    /// Scan `bytes` from the start.
    pub fn new(bytes: &'a [u8]) -> FrameScan<'a> {
        FrameScan {
            bytes,
            pos: 0,
            torn: None,
        }
    }

    /// The next valid frame payload, or `None` at clean EOF / torn tail.
    #[allow(clippy::should_implement_trait)] // borrows from self's buffer
    pub fn next_frame(&mut self) -> Option<&'a [u8]> {
        if self.torn.is_some() || self.pos == self.bytes.len() {
            return None;
        }
        let rest = &self.bytes[self.pos..];
        if rest.len() < FRAME_HEADER_LEN {
            self.torn = Some(TornTail {
                offset: self.pos,
                kind: TornKind::TruncatedHeader,
            });
            return None;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME_LEN {
            self.torn = Some(TornTail {
                offset: self.pos,
                kind: TornKind::ImplausibleLength,
            });
            return None;
        }
        let sum = u64::from_le_bytes(rest[4..12].try_into().unwrap());
        if rest.len() < FRAME_HEADER_LEN + len {
            self.torn = Some(TornTail {
                offset: self.pos,
                kind: TornKind::TruncatedPayload,
            });
            return None;
        }
        let payload = &rest[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
        if fnv1a64(payload) != sum {
            self.torn = Some(TornTail {
                offset: self.pos,
                kind: TornKind::BadChecksum,
            });
            return None;
        }
        self.pos += FRAME_HEADER_LEN + len;
        Some(payload)
    }

    /// Bytes consumed by valid frames so far (after a full scan: the
    /// length recovery should truncate the file to).
    pub fn valid_len(&self) -> usize {
        self.pos
    }

    /// The torn tail, if the scan hit one.
    pub fn torn(&self) -> Option<TornTail> {
        self.torn
    }
}

/// Scan a whole buffer: `(payloads, torn)` where `payloads` are the valid
/// prefix frames in order and `torn` reports the tail, if any.
pub fn scan_frames(bytes: &[u8]) -> (Vec<&[u8]>, Option<TornTail>) {
    let mut scan = FrameScan::new(bytes);
    let mut out = Vec::new();
    while let Some(p) = scan.next_frame() {
        out.push(p);
    }
    (out, scan.torn())
}

/// The payload of a buffer that is exactly one valid frame — no torn
/// tail, nothing before or after it. The shape of a snapshot file and of
/// a frame streamed to a standby.
pub fn sole_frame(bytes: &[u8]) -> Option<&[u8]> {
    let mut scan = FrameScan::new(bytes);
    let payload = scan.next_frame()?;
    (scan.valid_len() == bytes.len()).then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(payloads: &[&[u8]]) -> Vec<u8> {
        let mut buf = Vec::new();
        for p in payloads {
            encode_frame(p, &mut buf);
        }
        buf
    }

    #[test]
    fn round_trips_multiple_frames() {
        let buf = log_of(&[b"alpha", b"", b"a longer frame payload \xf0\x9f\x8e\x89"]);
        let (frames, torn) = scan_frames(&buf);
        assert_eq!(torn, None);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], b"alpha");
        assert_eq!(frames[1], b"");
        assert!(frames[2].starts_with(b"a longer"));
    }

    #[test]
    fn truncation_yields_the_valid_prefix() {
        let buf = log_of(&[b"one", b"two", b"three"]);
        let boundaries = [
            0,
            FRAME_HEADER_LEN + 3,
            2 * (FRAME_HEADER_LEN + 3),
            2 * (FRAME_HEADER_LEN + 3) + FRAME_HEADER_LEN + 5,
        ];
        // Cut at every possible byte length; the valid prefix must be a
        // whole number of leading frames, never a partial or later one.
        for cut in 0..=buf.len() {
            let (frames, torn) = scan_frames(&buf[..cut]);
            let whole = [b"one".as_slice(), b"two".as_slice(), b"three".as_slice()];
            assert!(frames.len() <= 3);
            assert_eq!(&whole[..frames.len()], frames.as_slice(), "cut={cut}");
            if boundaries.contains(&cut) {
                // A cut exactly between frames is clean EOF, not a tear.
                assert!(torn.is_none(), "cut={cut}");
            } else {
                assert!(torn.is_some(), "cut={cut}");
            }
            let mut scan = FrameScan::new(&buf[..cut]);
            while scan.next_frame().is_some() {}
            let valid = scan.valid_len();
            // Re-scanning the reported valid prefix is clean.
            let (again, torn2) = scan_frames(&buf[..valid]);
            assert_eq!(again.len(), frames.len());
            assert!(torn2.is_none());
        }
    }

    #[test]
    fn corruption_anywhere_stops_the_scan_at_that_frame() {
        let buf = log_of(&[b"one", b"two", b"three"]);
        let bounds = [
            0,
            FRAME_HEADER_LEN + 3,
            2 * (FRAME_HEADER_LEN + 3),
            2 * (FRAME_HEADER_LEN + 3) + FRAME_HEADER_LEN + 5,
        ];
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x40;
            let (frames, torn) = scan_frames(&bad);
            // The frame containing the flipped byte is the first invalid
            // one (a length-field flip may also report Implausible or
            // Truncated — either way the scan stops there).
            let hit = bounds[1..].iter().position(|&b| pos < b).unwrap();
            assert_eq!(frames.len(), hit, "pos={pos}");
            let t = torn.expect("corruption must report a torn tail");
            assert_eq!(t.offset, bounds[hit], "pos={pos}");
        }
    }

    #[test]
    fn sole_frame_wants_exactly_one_whole_frame() {
        let one = log_of(&[b"only"]);
        assert_eq!(sole_frame(&one), Some(b"only".as_slice()));
        assert_eq!(sole_frame(&[]), None, "no frame");
        assert_eq!(sole_frame(&log_of(&[b"a", b"b"])), None, "two frames");
        assert_eq!(sole_frame(&one[..one.len() - 1]), None, "truncated");
        let mut trailing = one.clone();
        trailing.push(0);
        assert_eq!(sole_frame(&trailing), None, "bytes after the frame");
    }

    #[test]
    fn implausible_length_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        let (frames, torn) = scan_frames(&buf);
        assert!(frames.is_empty());
        assert_eq!(torn.unwrap().kind, TornKind::ImplausibleLength);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Spec vectors for 64-bit FNV-1a.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
