//! The per-tenant write-ahead log, and the one codec for its records.
//!
//! One `wal.log` per tenant directory, holding
//! [`uniclean_model::frame`]-encoded JSON records, each a [`WalRecord`]:
//!
//! * frame 0 — `{"kind":"open","spec":{…}}`: the original `open` request
//!   document, so recovery can rebuild the session (rules, master,
//!   config) exactly;
//! * frames 1.. — `{"kind":"batch","seq":N,"rows":[…]}`: one record per
//!   **accepted** ingest batch, rows in the ingest wire shape with every
//!   cell as an explicit `[value, cf]` pair
//!   ([`uniclean_model::json::batch_to_ingest_json`]), so replay is
//!   byte-exact regardless of the tenant's `default_cf`.
//!
//! [`WalRecord::parse`] / [`WalRecord::render`] are the only reader and
//! writer of that grammar, and `RecordScan` the only judge of which
//! frames of a log count. Recovery ([`read_wal`]), the primary's
//! `repl_fetch` and lag accounting, and the standby's apply are all built
//! on them — a primary can only stream the prefix its own recovery would
//! accept.
//!
//! The ordering guarantee the daemon gives: a batch record is written
//! and fsync'd **before** the wire ack leaves the process. An
//! acknowledged batch therefore survives any crash; a batch that died
//! mid-append is at worst a torn tail, which recovery truncates (it was
//! never acknowledged, so discarding it is correct). §5.2
//! order-independence makes replaying the surviving records through
//! `clean_delta` reconstruct the exact pre-crash state.
//!
//! Sequence numbers tie the WAL to snapshots: a snapshot covering
//! sequence `S` lets recovery skip every record with `seq <= S`, so
//! crash points between "snapshot written" and "WAL rewritten" stay
//! consistent (records are skipped, not double-applied).

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::Path;

use uniclean_model::frame::{encode_frame, sole_frame, FrameScan};
use uniclean_model::Json;

use crate::faults;

/// The WAL file name inside a tenant directory.
pub const WAL_FILE: &str = "wal.log";
/// Scratch name a compaction rewrite builds before renaming over
/// [`WAL_FILE`]. A leftover one is pre-rename garbage; recovery deletes
/// it.
pub const WAL_REWRITE_TMP: &str = "wal.log.new";

/// An open, append-only WAL handle.
pub struct WalWriter {
    file: File,
    fsync: bool,
}

impl WalWriter {
    /// Create (truncate) a WAL at `path`.
    pub fn create(path: &Path, fsync: bool) -> std::io::Result<WalWriter> {
        let file = File::create(path)?;
        Ok(WalWriter { file, fsync })
    }

    /// Create a WAL at `path` holding just frame 0, the `open` record —
    /// how every generation of a tenant's log starts.
    pub(crate) fn create_log(path: &Path, open_doc: &Json, fsync: bool) -> std::io::Result<Self> {
        let mut wal = WalWriter::create(path, fsync)?;
        wal.append(&WalRecord::Open {
            spec: open_doc.clone(),
        })?;
        Ok(wal)
    }

    /// Open an existing WAL for appending.
    pub fn open_append(path: &Path, fsync: bool) -> std::io::Result<WalWriter> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(WalWriter { file, fsync })
    }

    /// Append one record and (unless `--no-fsync`) flush it to stable
    /// storage. On `Err` the frame may be half-written — the caller must
    /// treat the log as append-closed (the daemon poisons the tenant);
    /// recovery truncates the torn frame.
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<()> {
        let payload = record.render().into_bytes();
        let mut buf = Vec::with_capacity(payload.len() + 16);
        encode_frame(&payload, &mut buf);
        faults::hit("wal.pre_frame")?;
        // Two writes so the `wal.mid_frame` failpoint can crash with the
        // frame provably half-durable — the torn-tail case.
        let half = buf.len() / 2;
        self.file.write_all(&buf[..half])?;
        faults::hit("wal.mid_frame")?;
        self.file.write_all(&buf[half..])?;
        faults::hit("wal.pre_fsync")?;
        if self.fsync {
            self.file.sync_data()?;
        }
        faults::hit("wal.post_fsync")?;
        Ok(())
    }

    /// Flush file metadata too (used after a rewrite's rename).
    pub fn sync_all(&self) -> std::io::Result<()> {
        self.file.sync_all()
    }
}

/// One WAL record — the only place the `kind`/`spec`/`seq`/`client_seq`/
/// `repl_seq`/`rows` grammar is parsed or rendered.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// Frame 0: the original `open` request document, stored verbatim.
    Open {
        /// The `open` request document.
        spec: Json,
    },
    /// One accepted ingest batch.
    Batch(WalBatch),
}

/// One `batch` record: `seq` strictly increasing per tenant, `rows` in the
/// ingest wire shape with explicit confidences. Two optional markers ride
/// along (absent keys, not nulls, so pre-replication logs parse
/// unchanged): `client_seq` is the client-supplied exactly-once sequence
/// number the dedup check compares retries against, and `repl_seq` is the
/// primary's WAL sequence this batch mirrors when the writer is a tailing
/// standby — recovery restores both so dedup and replication resume
/// exactly where they stopped.
#[derive(Clone, Debug, PartialEq)]
pub struct WalBatch {
    /// This log's sequence number (strictly increasing).
    pub seq: u64,
    /// Rows in the ingest wire shape.
    pub rows: Json,
    /// Client-supplied exactly-once sequence number, if the batch
    /// carried one.
    pub client_seq: Option<u64>,
    /// Primary sequence mirrored by a standby's log, if any.
    pub repl_seq: Option<u64>,
}

/// A `batch` [`WalRecord`] from its parts.
pub fn batch_record(
    seq: u64,
    rows: Json,
    client_seq: Option<u64>,
    repl_seq: Option<u64>,
) -> WalRecord {
    WalRecord::Batch(WalBatch {
        seq,
        rows,
        client_seq,
        repl_seq,
    })
}

impl WalRecord {
    /// Decode one frame payload; `None` for anything outside the record
    /// grammar (not UTF-8, not JSON, unknown `kind`, a missing or
    /// non-integral member).
    pub fn parse(payload: &[u8]) -> Option<WalRecord> {
        let Json::Obj(mut members) = Json::parse(std::str::from_utf8(payload).ok()?).ok()? else {
            return None;
        };
        // Members move out of the parsed document: `rows` is never copied.
        let mut take = |key: &str| {
            let at = members.iter().position(|(k, _)| k == key)?;
            Some(members.swap_remove(at).1)
        };
        match take("kind")?.as_str()? {
            "open" => Some(WalRecord::Open {
                spec: take("spec")?,
            }),
            "batch" => Some(WalRecord::Batch(WalBatch {
                seq: take("seq")?.as_u64()?,
                rows: take("rows")?,
                client_seq: take("client_seq").and_then(|v| v.as_u64()),
                repl_seq: take("repl_seq").and_then(|v| v.as_u64()),
            })),
            _ => None,
        }
    }

    /// The frame payload, compact JSON with a fixed key order: `kind`,
    /// then `spec`, or `seq`, the markers that are present, and `rows`.
    pub fn render(&self) -> String {
        match self {
            WalRecord::Open { spec } => {
                format!(r#"{{"kind":"open","spec":{}}}"#, spec.render())
            }
            WalRecord::Batch(b) => {
                let mut out = format!(r#"{{"kind":"batch","seq":{}"#, b.seq);
                for (key, marker) in [("client_seq", b.client_seq), ("repl_seq", b.repl_seq)] {
                    if let Some(v) = marker {
                        let _ = write!(out, r#","{key}":{v}"#);
                    }
                }
                out.push_str(r#","rows":"#);
                out.push_str(&b.rows.render());
                out.push('}');
                out
            }
        }
    }

    /// Decode one frame as `repl_fetch` streams it: lowercase hex of
    /// exactly one checksummed frame.
    pub(crate) fn from_hex_frame(hex: &str) -> Result<WalRecord, &'static str> {
        WalRecord::parse(&payload_from_hex_frame(hex)?).ok_or("frame is not a WAL record")
    }
}

/// What a scan of a WAL file recovered.
#[derive(Default)]
pub struct WalContents {
    /// The `open` spec document from frame 0, if present and valid.
    pub open: Option<Json>,
    /// Every valid batch record, in log order.
    pub batches: Vec<WalBatch>,
    /// Byte length of the valid prefix — what the file should be
    /// truncated to if `torn`.
    pub valid_len: u64,
    /// Whether anything invalid (torn frame, bad record shape, seq
    /// regression) followed the valid prefix.
    pub torn: bool,
}

/// Read and validate a WAL file. A missing file reads as empty. Frames
/// must checksum, parse as [`WalRecord`]s, and follow the log grammar
/// (`RecordScan`); the first violation ends the valid prefix —
/// everything after it is torn tail.
pub fn read_wal(path: &Path) -> std::io::Result<WalContents> {
    let bytes = match std::fs::read(path) {
        Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
        other => other?,
    };
    let mut scan = RecordScan::new(&bytes);
    let mut contents = WalContents::default();
    for (record, _) in scan.by_ref() {
        match record {
            WalRecord::Open { spec } => contents.open = Some(spec),
            WalRecord::Batch(b) => contents.batches.push(b),
        }
    }
    contents.valid_len = scan.valid_len as u64;
    contents.torn = scan.torn;
    Ok(contents)
}

/// The valid prefix of a WAL image, record by record, each with the raw
/// frame bytes it came from. The log grammar lives here: one leading
/// `open`, then `batch` records with strictly increasing `seq`. A torn
/// frame or a checksummed frame outside the grammar ends the iteration —
/// so recovery, `repl_fetch` and the lag accounting all see the same
/// prefix.
pub(crate) struct RecordScan<'a> {
    bytes: &'a [u8],
    frames: FrameScan<'a>,
    /// `None` until the open record; then the least `seq` the next batch
    /// may carry.
    next_seq: Option<u64>,
    /// Byte length of the records yielded so far.
    valid_len: usize,
    /// Whether the iteration ended on something invalid rather than at
    /// the end of the image.
    torn: bool,
}

impl<'a> RecordScan<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> RecordScan<'a> {
        RecordScan {
            bytes,
            frames: FrameScan::new(bytes),
            next_seq: None,
            valid_len: 0,
            torn: false,
        }
    }
}

impl<'a> Iterator for RecordScan<'a> {
    type Item = (WalRecord, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.torn {
            return None;
        }
        // A checksummed but ungrammatical frame gets the same treatment as
        // a torn one: the prefix before it is the log.
        let record = self.frames.next_frame().and_then(WalRecord::parse);
        self.next_seq = match (&record, self.next_seq) {
            (Some(WalRecord::Open { .. }), None) => Some(0),
            (Some(WalRecord::Batch(b)), Some(least)) if b.seq >= least => Some(b.seq + 1),
            _ => {
                self.torn = self.valid_len < self.bytes.len();
                return None;
            }
        };
        let raw = &self.bytes[self.valid_len..self.frames.valid_len()];
        self.valid_len = self.frames.valid_len();
        record.map(|r| (r, raw))
    }
}

/// Lowercase hex (frames are binary; the replication wire is line JSON).
pub(crate) fn hex_encode(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0xf) as usize] as char);
    }
    out
}

/// Inverse of [`hex_encode`]; `None` on odd length or a non-hex digit.
fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let nibble = |c: u8| (c as char).to_digit(16);
    s.as_bytes()
        .chunks_exact(2)
        .map(|pair| Some((nibble(pair[0])? << 4 | nibble(pair[1])?) as u8))
        .collect()
}

/// The payload of a hex-streamed frame: the hex must decode to exactly
/// one checksummed frame, nothing before or after it.
pub(crate) fn payload_from_hex_frame(hex: &str) -> Result<Vec<u8>, &'static str> {
    let bytes = hex_decode(hex).ok_or("frame is not valid hex")?;
    sole_frame(&bytes)
        .map(<[u8]>::to_vec)
        .ok_or("frame checksum mismatch")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("uniclean-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec() -> Json {
        Json::parse(r#"{"op":"open","relation":"t","attrs":["a"],"rules":""}"#).unwrap()
    }

    fn open_record() -> WalRecord {
        WalRecord::Open { spec: spec() }
    }

    fn rows(tag: i64) -> Json {
        Json::Arr(vec![Json::Arr(vec![Json::Arr(vec![
            Json::Num(tag as f64),
            Json::Num(0.5),
        ])])])
    }

    #[test]
    fn append_read_round_trip_and_missing_file() {
        let dir = tmpdir("roundtrip");
        let path = dir.join(WAL_FILE);
        let empty = read_wal(&path).unwrap();
        assert!(empty.open.is_none() && empty.batches.is_empty() && !empty.torn);

        let mut w = WalWriter::create(&path, true).unwrap();
        w.append(&open_record()).unwrap();
        w.append(&batch_record(1, rows(1), Some(41), None)).unwrap();
        w.append(&batch_record(2, rows(2), None, Some(9))).unwrap();
        drop(w);

        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.open.unwrap().render(), spec().render());
        assert_eq!(contents.batches.len(), 2);
        assert_eq!(contents.batches[0].seq, 1);
        assert_eq!(contents.batches[0].client_seq, Some(41));
        assert_eq!(contents.batches[0].repl_seq, None);
        assert_eq!(contents.batches[1].rows.render(), rows(2).render());
        assert_eq!(contents.batches[1].client_seq, None);
        assert_eq!(contents.batches[1].repl_seq, Some(9));
        assert!(!contents.torn);
        assert_eq!(
            contents.valid_len,
            std::fs::metadata(&path).unwrap().len(),
            "clean log: every byte is valid prefix"
        );

        // Reopen-append continues the log.
        let mut w = WalWriter::open_append(&path, false).unwrap();
        w.append(&batch_record(3, rows(3), None, None)).unwrap();
        drop(w);
        assert_eq!(read_wal(&path).unwrap().batches.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_and_grammar_violations_end_the_prefix() {
        let dir = tmpdir("torn");
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::create(&path, false).unwrap();
        w.append(&open_record()).unwrap();
        w.append(&batch_record(1, rows(1), None, None)).unwrap();
        drop(w);
        let clean_len = std::fs::metadata(&path).unwrap().len();

        // A half-written frame is a torn tail; the prefix survives.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[7u8; 9]);
        std::fs::write(&path, &bytes).unwrap();
        let contents = read_wal(&path).unwrap();
        assert!(contents.torn);
        assert_eq!(contents.valid_len, clean_len);
        assert_eq!(contents.batches.len(), 1);

        // A checksummed frame outside the grammar is just as torn: a seq
        // that does not advance, a second open record.
        for bad in [batch_record(1, rows(9), None, None), open_record()] {
            std::fs::write(&path, &bytes[..clean_len as usize]).unwrap();
            let mut w = WalWriter::open_append(&path, false).unwrap();
            w.append(&bad).unwrap();
            w.append(&batch_record(2, rows(2), None, None)).unwrap();
            drop(w);
            let contents = read_wal(&path).unwrap();
            assert!(contents.torn);
            assert_eq!(contents.valid_len, clean_len);
            assert_eq!(contents.batches.len(), 1);
            assert_eq!(contents.batches[0].rows.render(), rows(1).render());
        }

        // A log that does not start with its open record has no prefix.
        let mut w = WalWriter::create(&path, false).unwrap();
        w.append(&batch_record(1, rows(1), None, None)).unwrap();
        drop(w);
        let contents = read_wal(&path).unwrap();
        assert!(contents.torn && contents.batches.is_empty());
        assert_eq!(contents.valid_len, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The rendered bytes are what sits in every WAL on disk and what
    /// `wal_bytes_per_user_byte` counts: the key order is part of the
    /// format.
    #[test]
    fn rendered_records_are_pinned_byte_for_byte() {
        assert_eq!(
            open_record().render(),
            r#"{"kind":"open","spec":{"op":"open","relation":"t","attrs":["a"],"rules":""}}"#
        );
        let rows = Json::parse(r#"[[["131",0.5],[null,0]]]"#).unwrap();
        assert_eq!(
            batch_record(7, rows.clone(), Some(41), Some(1 << 53)).render(),
            r#"{"kind":"batch","seq":7,"client_seq":41,"repl_seq":9007199254740992,"rows":[[["131",0.5],[null,0]]]}"#
        );
        assert_eq!(
            batch_record(8, rows, None, None).render(),
            r#"{"kind":"batch","seq":8,"rows":[[["131",0.5],[null,0]]]}"#
        );
    }

    #[test]
    fn out_of_grammar_payloads_parse_to_none() {
        for payload in [
            b"\xff\xfe".as_slice(),
            b"not json",
            b"[]",
            br#"{"spec":{}}"#,
            br#"{"kind":"open"}"#,
            br#"{"kind":"batch","rows":[]}"#,
            br#"{"kind":"batch","seq":1}"#,
            br#"{"kind":"batch","seq":1.5,"rows":[]}"#,
            br#"{"kind":"batch","seq":-1,"rows":[]}"#,
            br#"{"kind":"checkpoint","seq":1,"rows":[]}"#,
            br#"{"kind":7,"seq":1,"rows":[]}"#,
        ] {
            assert_eq!(
                WalRecord::parse(payload),
                None,
                "{}",
                String::from_utf8_lossy(payload)
            );
        }
    }

    #[test]
    fn hex_frames_decode_to_exactly_one_record() {
        for bytes in [
            vec![],
            vec![0u8],
            vec![0xde, 0xad, 0xbe, 0xef],
            (0..=255u8).collect(),
        ] {
            let enc = hex_encode(&bytes);
            assert_eq!(hex_decode(&enc).as_deref(), Some(bytes.as_slice()));
        }
        assert_eq!(hex_decode("abc"), None, "odd length");
        assert_eq!(hex_decode("zz"), None, "non-hex digit");
        assert_eq!(hex_decode("ABCDEF"), Some(vec![0xab, 0xcd, 0xef]));

        let record = batch_record(3, rows(3), None, None);
        let mut raw = Vec::new();
        encode_frame(record.render().as_bytes(), &mut raw);
        let hex = hex_encode(&raw);
        assert_eq!(WalRecord::from_hex_frame(&hex), Ok(record));
        assert_eq!(
            WalRecord::from_hex_frame(&hex[..hex.len() - 2]),
            Err("frame checksum mismatch"),
            "a truncated frame"
        );
        assert_eq!(
            WalRecord::from_hex_frame(&format!("{hex}{hex}")),
            Err("frame checksum mismatch"),
            "two frames where one belongs"
        );
        assert_eq!(
            WalRecord::from_hex_frame("xyz"),
            Err("frame is not valid hex")
        );
        let mut other = Vec::new();
        encode_frame(b"{}", &mut other);
        assert_eq!(
            WalRecord::from_hex_frame(&hex_encode(&other)),
            Err("frame is not a WAL record")
        );
    }

    /// Sequence numbers are `u64`s carried as JSON doubles: everything up
    /// to 2^53 survives.
    const SEQ_END: u64 = (1 << 53) + 1;

    proptest! {
        #[test]
        fn parse_inverts_render(
            kind in 0u8..2,
            seqs in (0u64..SEQ_END, 0u64..SEQ_END, 0u64..SEQ_END),
            markers in 0u8..4,
            text in ".{0,12}",
        ) {
            let body = Json::Arr(vec![Json::Arr(vec![
                Json::Arr(vec![Json::str(&text), Json::Num(0.25)]),
                Json::Arr(vec![Json::Null, Json::Num(0.0)]),
            ])]);
            let record = if kind == 0 {
                WalRecord::Open { spec: Json::Obj(vec![("rules".to_string(), body)]) }
            } else {
                batch_record(
                    seqs.0,
                    body,
                    (markers & 1 != 0).then_some(seqs.1),
                    (markers & 2 != 0).then_some(seqs.2),
                )
            };
            prop_assert_eq!(WalRecord::parse(record.render().as_bytes()), Some(record));
        }
    }
}
