//! Compacting tenant snapshots.
//!
//! A snapshot bounds recovery time and WAL growth: every
//! `--snapshot-every` logged batches the owning shard worker writes the
//! tenant's **cumulative acknowledged input** (plus counters and the
//! repaired relation as an integrity cross-check) to `snapshot.json`,
//! then rewrites the WAL down to just its `open` record.
//!
//! Why store base rows rather than the repaired relation alone: a
//! [`uniclean_core::RepairState`] carries machinery (fixpoint caches,
//! acceptance index, match state) that cannot be reconstructed from
//! repaired output — re-ingesting a dump is not the same state (marks
//! and provenance differ). Replaying the original input through
//! `clean_delta` *is* bit-identical, by the §5.2 order-independence
//! result the determinism tests pin. The stored `repaired`/`cost` pair
//! is a cross-check: recovery replays `base_rows` and verifies the
//! result matches byte-for-byte before trusting the snapshot; a mismatch
//! demotes it to the `.prev` fallback or a full WAL replay.
//!
//! Write protocol (crash-safe at every step): render → frame-encode →
//! write `snapshot.json.tmp` → fsync → rename current to
//! `snapshot.json.prev` → rename tmp into place → fsync dir. Transient
//! fs errors are retried with backoff; persistent failure leaves the WAL
//! untouched (durability holds, compaction just retries later).

use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::time::Duration;

use uniclean_model::frame::{encode_frame, sole_frame};
use uniclean_model::Json;

use crate::faults;
use crate::protocol::obj;

/// The live snapshot file name inside a tenant directory.
pub const SNAP_FILE: &str = "snapshot.json";
/// The previous snapshot, kept as a fallback until the next rotation.
pub const SNAP_PREV: &str = "snapshot.json.prev";
/// Scratch name for the in-progress write; a leftover one is garbage.
pub const SNAP_TMP: &str = "snapshot.json.tmp";

/// Backoff schedule for transient fs errors (attempt `i` sleeps
/// `RETRY_BACKOFF[i]` before retrying; len+1 attempts total).
const RETRY_BACKOFF: [Duration; 2] = [Duration::from_millis(10), Duration::from_millis(50)];

/// Everything a snapshot persists.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotDoc {
    /// WAL sequence number of the last batch this snapshot covers;
    /// recovery skips WAL records with `seq <= seq`.
    pub seq: u64,
    /// The original `open` request document.
    pub open: Json,
    /// Cumulative acknowledged input rows, ingest wire shape with
    /// explicit `[value, cf]` cells — what recovery replays.
    pub base_rows: Json,
    /// Cumulative serving counters at `seq`.
    pub batches: u64,
    /// Cumulative tuples ingested at `seq`.
    pub tuples_ingested: u64,
    /// Cumulative fixes at `seq`.
    pub fixes: u64,
    /// Cumulative per-phase wall-clock seconds at `seq`.
    pub phase_seconds: [f64; 3],
    /// The repaired relation at `seq` (dump wire shape) — integrity
    /// cross-check for the replay, not the recovery source.
    pub repaired: Json,
    /// Repair cost at `seq` — second half of the cross-check.
    pub cost: f64,
    /// Highest client-supplied exactly-once sequence number covered, if
    /// any batch carried one (absent key in old snapshots ⇒ `None`).
    pub last_client_seq: Option<u64>,
    /// Primary WAL sequence this state mirrors, when the writer is (or
    /// was) a tailing standby.
    pub repl_seq: Option<u64>,
}

impl SnapshotDoc {
    /// The document a snapshot frame carries, in the shape
    /// [`Self::from_payload`] decodes.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("version", Json::Num(1.0)),
            ("seq", Json::Num(self.seq as f64)),
            ("open", self.open.clone()),
            ("base_rows", self.base_rows.clone()),
            ("batches", Json::Num(self.batches as f64)),
            ("tuples_ingested", Json::Num(self.tuples_ingested as f64)),
            ("fixes", Json::Num(self.fixes as f64)),
            (
                "phase_seconds",
                Json::Arr(self.phase_seconds.iter().map(|&s| Json::Num(s)).collect()),
            ),
            ("repaired", self.repaired.clone()),
            ("cost", Json::Num(self.cost)),
        ];
        // Optional markers are written as absent keys, not nulls, so a
        // pre-replication reader sees exactly the version-1 shape it knows.
        if let Some(cs) = self.last_client_seq {
            pairs.push(("last_client_seq", Json::Num(cs as f64)));
        }
        if let Some(rs) = self.repl_seq {
            pairs.push(("repl_seq", Json::Num(rs as f64)));
        }
        obj(pairs)
    }

    /// Decode a snapshot frame's payload (a `snapshot.json` on disk, or
    /// the same bytes streamed to a bootstrapping standby). Untrusted
    /// bytes: anything but a version-1 document of the right shape is
    /// `None`.
    pub fn from_payload(payload: &[u8]) -> Option<SnapshotDoc> {
        let doc = Json::parse(std::str::from_utf8(payload).ok()?).ok()?;
        if doc.get("version").and_then(Json::as_usize) != Some(1) {
            return None;
        }
        let phase = doc.get("phase_seconds").and_then(Json::as_arr)?;
        if phase.len() != 3 {
            return None;
        }
        let mut phase_seconds = [0.0; 3];
        for (slot, v) in phase_seconds.iter_mut().zip(phase) {
            *slot = v.as_f64()?;
        }
        Some(SnapshotDoc {
            seq: doc.get("seq").and_then(Json::as_u64)?,
            open: doc.get("open")?.clone(),
            base_rows: doc.get("base_rows")?.clone(),
            batches: doc.get("batches").and_then(Json::as_u64)?,
            tuples_ingested: doc.get("tuples_ingested").and_then(Json::as_u64)?,
            fixes: doc.get("fixes").and_then(Json::as_u64)?,
            phase_seconds,
            repaired: doc.get("repaired")?.clone(),
            cost: doc.get("cost").and_then(Json::as_f64)?,
            last_client_seq: doc.get("last_client_seq").and_then(Json::as_u64),
            repl_seq: doc.get("repl_seq").and_then(Json::as_u64),
        })
    }
}

/// Write `doc` atomically into `dir`, rotating the previous snapshot to
/// [`SNAP_PREV`]. Retries transient fs errors with backoff; the whole
/// attempt restarts from the tmp write, which is idempotent.
pub fn write_snapshot(dir: &Path, doc: &SnapshotDoc, fsync: bool) -> std::io::Result<()> {
    with_retries(|| write_snapshot_once(dir, doc, fsync))
}

fn write_snapshot_once(dir: &Path, doc: &SnapshotDoc, fsync: bool) -> std::io::Result<()> {
    let payload = doc.to_json().render().into_bytes();
    let mut buf = Vec::with_capacity(payload.len() + 16);
    encode_frame(&payload, &mut buf);
    let tmp = dir.join(SNAP_TMP);
    {
        let mut f = File::create(&tmp)?;
        let half = buf.len() / 2;
        f.write_all(&buf[..half])?;
        faults::hit("snapshot.mid_write")?;
        f.write_all(&buf[half..])?;
        if fsync {
            f.sync_data()?;
        }
    }
    faults::hit("snapshot.pre_rename")?;
    let current = dir.join(SNAP_FILE);
    if current.exists() {
        std::fs::rename(&current, dir.join(SNAP_PREV))?;
    }
    std::fs::rename(&tmp, &current)?;
    if fsync {
        sync_dir(dir)?;
    }
    Ok(())
}

/// Load the usable snapshots of `dir` in preference order: the current
/// one first, then the `.prev` fallback. Unreadable, torn or misshapen
/// files are skipped, not errors — recovery degrades to the next
/// candidate (ultimately a full WAL replay).
pub fn load_snapshots(dir: &Path) -> Vec<SnapshotDoc> {
    [SNAP_FILE, SNAP_PREV]
        .iter()
        .filter_map(|name| load_one(&dir.join(name)))
        .collect()
}

fn load_one(path: &Path) -> Option<SnapshotDoc> {
    // A snapshot is exactly one frame spanning the whole file.
    SnapshotDoc::from_payload(sole_frame(&std::fs::read(path).ok()?)?)
}

/// fsync a directory so renames inside it are durable.
pub fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Run `op`, retrying transient fs errors on the `RETRY_BACKOFF`
/// schedule.
pub fn with_retries<T>(mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    for delay in RETRY_BACKOFF {
        match op() {
            Ok(v) => return Ok(v),
            Err(_) => std::thread::sleep(delay),
        }
    }
    op()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("uniclean-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn doc(seq: u64) -> SnapshotDoc {
        SnapshotDoc {
            seq,
            open: Json::parse(r#"{"op":"open","relation":"t"}"#).unwrap(),
            base_rows: Json::Arr(vec![Json::Arr(vec![Json::Arr(vec![
                Json::Num(seq as f64),
                Json::Num(0.25),
            ])])]),
            batches: seq,
            tuples_ingested: 3 * seq,
            fixes: 1,
            phase_seconds: [0.5, 0.0, 0.125],
            repaired: Json::Arr(vec![]),
            cost: 2.5,
            last_client_seq: Some(7 * seq),
            repl_seq: None,
        }
    }

    #[test]
    fn write_rotate_load_round_trip() {
        let dir = tmpdir("rotate");
        write_snapshot(&dir, &doc(4), true).unwrap();
        let loaded = load_snapshots(&dir);
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].seq, 4);
        assert_eq!(loaded[0].base_rows.render(), doc(4).base_rows.render());
        assert_eq!(loaded[0].phase_seconds, [0.5, 0.0, 0.125]);
        assert_eq!(loaded[0].last_client_seq, Some(28));
        assert_eq!(loaded[0].repl_seq, None);

        // Second write rotates the first to .prev; both load, newest first.
        write_snapshot(&dir, &doc(9), false).unwrap();
        let loaded = load_snapshots(&dir);
        assert_eq!(loaded.iter().map(|d| d.seq).collect::<Vec<_>>(), vec![9, 4]);

        // Corrupting the current one demotes recovery to the fallback.
        let mut bytes = std::fs::read(dir.join(SNAP_FILE)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(dir.join(SNAP_FILE), &bytes).unwrap();
        let loaded = load_snapshots(&dir);
        assert_eq!(loaded.iter().map(|d| d.seq).collect::<Vec<_>>(), vec![4]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retries_retry_and_eventually_surface() {
        let mut failures = 2;
        let v = with_retries(|| {
            if failures > 0 {
                failures -= 1;
                Err(std::io::Error::other("transient"))
            } else {
                Ok(42)
            }
        })
        .unwrap();
        assert_eq!(v, 42);

        let e = with_retries::<()>(|| Err(std::io::Error::other("persistent"))).unwrap_err();
        assert!(e.to_string().contains("persistent"));
    }
}
