//! Startup recovery: rebuild every tenant from its snapshot + WAL.
//!
//! For each subdirectory of the data root, in name order:
//!
//! 1. delete scratch files a crash may have left (`snapshot.json.tmp`,
//!    `wal.log.new`);
//! 2. read the WAL ([`crate::wal::read_wal`]), noting where its valid
//!    prefix ends;
//! 3. load snapshot candidates ([`crate::snapshot::load_snapshots`]):
//!    current, then `.prev`, then "no snapshot" as the final fallback;
//! 4. rebuild the session from the stored `open` request document, then
//!    for each candidate (`replay_candidate`): replay its `base_rows`
//!    through one `clean_delta`, **cross-check** the result against the
//!    stored repaired relation and cost byte-for-byte, and replay the WAL
//!    records with `seq > snapshot.seq` batch-by-batch through
//!    `TenantEntry::apply` — the live ingest's own apply path, so
//!    identical batch boundaries give identical per-batch counters and
//!    sequence markers by construction. First candidate to survive wins;
//! 5. physically truncate the WAL's torn tail and reopen it for append;
//! 6. install: the replayed entry becomes the tenant's live entry and the
//!    reopened files its durable handle, at the replayed log position.
//!
//! A standby bootstrapping from a streamed snapshot
//! (`tenant_from_snapshot`) is the same replay and the same install, with
//! an empty log and freshly created files.
//!
//! §5.2 order-independence is what makes step 4 exact: any grouping of
//! the same acknowledged rows yields bit-identical cells, confidences,
//! marks, acceptance verdicts and cost — so a snapshot's one-shot base
//! replay plus per-batch suffix replay reconstructs the pre-crash state,
//! and the cross-check catches a snapshot that lies. (Engine-internal
//! odometers like `deltas()` are grouping-dependent and deliberately
//! outside the contract.) The rebuilt state is also the only copy of the
//! input history: the next compaction renders `base_rows` from it.
//!
//! A directory that defeats every candidate is **quarantined** — renamed
//! to `<dir>.corrupt-<n>` with a stderr warning — rather than deleted or
//! allowed to wedge startup; the remaining tenants still come up.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use uniclean_model::json::{batch_from_json, relation_to_json};
use uniclean_model::Json;

use crate::protocol::{obj, parse_open};
use crate::registry::{create_tenant_storage, DurabilityCfg, Durable, Tenant, TenantEntry};
use crate::snapshot::{load_snapshots, write_snapshot, SnapshotDoc, SNAP_TMP};
use crate::stats::RelationStats;
use crate::tenant_dir_name;
use crate::wal::{read_wal, WalBatch, WalWriter, WAL_FILE, WAL_REWRITE_TMP};

/// What startup recovery did — reported by the `ping` verb.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Tenants successfully rebuilt.
    pub relations: usize,
    /// WAL batch records replayed (beyond snapshot coverage).
    pub batches_replayed: u64,
    /// Tuples those batches carried.
    pub tuples_replayed: u64,
    /// Snapshots that passed their cross-check and seeded a tenant.
    pub snapshots_used: usize,
    /// WALs whose invalid tail was truncated.
    pub torn_tails: usize,
    /// Directories renamed aside as unrecoverable.
    pub quarantined: Vec<String>,
    /// Wall-clock seconds the whole scan took.
    pub seconds: f64,
}

impl RecoveryReport {
    /// The `recovery` member of the `ping` response.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("relations", Json::Num(self.relations as f64)),
            ("batches_replayed", Json::Num(self.batches_replayed as f64)),
            ("tuples_replayed", Json::Num(self.tuples_replayed as f64)),
            ("snapshots_used", Json::Num(self.snapshots_used as f64)),
            ("torn_tails", Json::Num(self.torn_tails as f64)),
            (
                "quarantined",
                Json::Arr(self.quarantined.iter().map(Json::str).collect()),
            ),
            ("seconds", Json::Num(self.seconds)),
        ])
    }
}

/// Scan the data root and rebuild every recoverable tenant.
pub(crate) fn recover_root(
    cfg: &DurabilityCfg,
    shards: usize,
) -> std::io::Result<(Vec<Arc<Tenant>>, RecoveryReport)> {
    let started = Instant::now();
    let mut report = RecoveryReport::default();
    let mut tenants = Vec::new();
    let mut dirs: Vec<_> = std::fs::read_dir(&cfg.root)?
        .filter_map(|e| e.ok())
        .filter(|e| e.file_type().map(|t| t.is_dir()).unwrap_or(false))
        .map(|e| e.path())
        .collect();
    dirs.sort();
    for dir in dirs {
        let dir_name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        // Tenant directory names escape `.` (see [`tenant_dir_name`]), so
        // a dotted name is foreign — most likely an earlier quarantine.
        if dir_name.contains('.') {
            continue;
        }
        match recover_tenant(&dir, &dir_name, cfg, shards, &mut report) {
            Ok(tenant) => {
                report.relations += 1;
                tenants.push(tenant);
            }
            Err(reason) => {
                quarantine(&dir, &dir_name, &reason, &mut report);
            }
        }
    }
    report.seconds = started.elapsed().as_secs_f64();
    Ok((tenants, report))
}

/// Rebuild one tenant directory; `Err` carries the human reason it is
/// unrecoverable (→ quarantine).
fn recover_tenant(
    dir: &Path,
    dir_name: &str,
    cfg: &DurabilityCfg,
    shards: usize,
    report: &mut RecoveryReport,
) -> Result<Arc<Tenant>, String> {
    for scratch in [SNAP_TMP, WAL_REWRITE_TMP] {
        let _ = std::fs::remove_file(dir.join(scratch));
    }
    let wal_path = dir.join(WAL_FILE);
    let wal = read_wal(&wal_path).map_err(|e| format!("WAL unreadable: {e}"))?;
    let snaps = load_snapshots(dir);
    let open_doc = snaps
        .first()
        .map(|s| s.open.clone())
        .or_else(|| wal.open.clone())
        .ok_or("no usable open record in snapshot or WAL")?;
    let tenant = rebuild_session(&open_doc, shards)?;
    if tenant_dir_name(&tenant.name) != dir_name {
        return Err(format!(
            "directory name does not match stored relation {:?}",
            tenant.name
        ));
    }

    let (replayed, used_snapshot) = snaps
        .iter()
        .map(Some)
        .chain(std::iter::once(None))
        .find_map(
            |candidate| match replay_candidate(&tenant, candidate, &wal.batches) {
                Ok(replayed) => Some((replayed, candidate.is_some())),
                Err(why) => {
                    let what = match candidate {
                        Some(s) => format!("snapshot at seq {}", s.seq),
                        None => "bare WAL replay".to_string(),
                    };
                    let name = &tenant.name;
                    eprintln!("uniclean serve: recovering {name:?}: {what} rejected: {why}");
                    None
                }
            },
        )
        .ok_or("every snapshot candidate and the bare WAL replay failed")?;

    // Repair the log file itself: drop the torn tail so future appends
    // extend the valid prefix, and rebuild the whole file if even the
    // open record was lost (a valid snapshot carries it).
    let file_len = std::fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0);
    let torn = file_len > wal.valid_len;
    report.torn_tails += torn as usize;
    let wal_writer = if wal.open.is_some() {
        if torn {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&wal_path)
                .and_then(|f| f.set_len(wal.valid_len).and_then(|_| f.sync_data()))
                .map_err(|e| format!("cannot truncate torn WAL tail: {e}"))?;
        }
        WalWriter::open_append(&wal_path, cfg.fsync)
            .map_err(|e| format!("cannot reopen WAL: {e}"))?
    } else {
        let w = WalWriter::create_log(&wal_path, &open_doc, cfg.fsync)
            .map_err(|e| format!("cannot rebuild WAL: {e}"))?;
        if cfg.fsync {
            // The rebuilt file is a fresh directory entry; without the
            // directory fsync a power loss can lose the file itself even
            // though its contents were synced.
            crate::snapshot::sync_dir(dir).map_err(|e| format!("cannot sync tenant dir: {e}"))?;
        }
        w
    };

    report.batches_replayed += replayed.batches;
    report.tuples_replayed += replayed.tuples;
    report.snapshots_used += used_snapshot as usize;
    replayed.install(
        &tenant,
        Some(Durable {
            wal: wal_writer,
            dir: dir.to_path_buf(),
            open_doc,
            seq: 0,
            since_snapshot: 0,
        }),
    );
    Ok(Arc::new(tenant))
}

/// The session half of a tenant from a stored `open` document (a WAL's
/// frame 0 or a snapshot's `open` member).
fn rebuild_session(open_doc: &Json, shards: usize) -> Result<Tenant, String> {
    let spec =
        parse_open(open_doc).map_err(|e| format!("stored open spec rejected: {}", e.render()))?;
    Tenant::open(&spec, shards).map_err(|e| format!("session rebuild failed: {}", e.render()))
}

/// A standby's `snapshot`-mode bootstrap: the same replay, cross-check
/// and install a restart performs, from a streamed snapshot and an empty
/// log. The snapshot is persisted as the standby's own, so its restart
/// recovers from its files without re-streaming.
pub(crate) fn tenant_from_snapshot(
    name: &str,
    doc: &SnapshotDoc,
    shards: usize,
    cfg: Option<&DurabilityCfg>,
) -> Result<Tenant, String> {
    let tenant = rebuild_session(&doc.open, shards)?;
    if tenant.name != name {
        return Err(format!(
            "snapshot names {:?}, expected {name:?}",
            tenant.name
        ));
    }
    let replayed = replay_candidate(&tenant, Some(doc), &[])?;
    let storage = match cfg {
        None => None,
        Some(cfg) => {
            let d = create_tenant_storage(name, &doc.open, cfg)
                .map_err(|e| format!("cannot create standby storage: {e}"))?;
            write_snapshot(&d.dir, doc, cfg.fsync)
                .map_err(|e| format!("cannot persist bootstrap snapshot: {e}"))?;
            Some(d)
        }
    };
    replayed.install(&tenant, storage);
    Ok(tenant)
}

/// A successful replay: the rebuilt entry plus its position in the log.
pub(crate) struct Replayed {
    entry: TenantEntry,
    /// Sequence number of the last batch the entry covers.
    seq: u64,
    /// WAL batches replayed beyond snapshot coverage.
    batches: u64,
    /// Tuples those batches carried.
    tuples: u64,
}

impl Replayed {
    /// The one install step: the replayed entry becomes the tenant's live
    /// entry, and `storage` (its freshly opened files; `None` on a
    /// memory-only node) its durable handle at the replayed log position:
    /// seqs continue from `seq`, the next compaction counts from `batches`.
    fn install(self, tenant: &Tenant, storage: Option<Durable>) {
        tenant.replace_entry(self.entry);
        *tenant.durable_lock() = storage.map(|d| Durable {
            seq: self.seq,
            since_snapshot: self.batches,
            ..d
        });
    }
}

/// Replay one snapshot candidate (or the bare WAL) onto a fresh entry,
/// cross-checking the snapshot's stored repaired relation byte-for-byte.
/// WAL batches go through [`TenantEntry::apply`] — the live ingest's own
/// apply path — so the replayed counters and markers are what the live
/// tenant had.
fn replay_candidate(
    tenant: &Tenant,
    snap: Option<&SnapshotDoc>,
    wal: &[WalBatch],
) -> Result<Replayed, String> {
    let arity = tenant.cleaner.rules().schema().arity();
    let phase = tenant.entry_read().state.phase();
    let mut entry = TenantEntry::empty(&tenant.cleaner, phase);
    let mut seq = 0u64;

    if let Some(s) = snap {
        let rows = batch_from_json(&s.base_rows, arity, tenant.default_cf)
            .map_err(|e| format!("snapshot base rows undecodable: {e}"))?;
        if !rows.is_empty() {
            tenant
                .cleaner
                .clean_delta(&mut entry.state, &rows)
                .map_err(|e| format!("snapshot base replay failed: {e}"))?;
        }
        // The cross-check: replay must land exactly on the repaired
        // relation the snapshot recorded — cells, confidences, marks and
        // cost, byte-for-byte over the deterministic JSON rendering.
        let replayed = relation_to_json(entry.state.repaired()).render();
        if replayed != s.repaired.render() {
            return Err("base replay does not match stored repaired relation".to_string());
        }
        if entry.state.cost().to_bits() != s.cost.to_bits() {
            return Err(format!(
                "base replay cost {} does not match stored cost {}",
                entry.state.cost(),
                s.cost
            ));
        }
        // One grouped replay stands in for the batches the snapshot
        // covers; their per-batch counters come from the snapshot.
        entry.stats = RelationStats {
            batches: s.batches,
            tuples_ingested: s.tuples_ingested,
            fixes: s.fixes,
            phase_seconds: s.phase_seconds,
        };
        entry.last_client_seq = s.last_client_seq;
        entry.repl_seq = s.repl_seq;
        seq = s.seq;
    }

    let mut batches = 0u64;
    let mut tuples = 0u64;
    for batch in wal {
        let bseq = batch.seq;
        if bseq <= seq {
            continue; // covered by the snapshot
        }
        let rows = batch_from_json(&batch.rows, arity, tenant.default_cf)
            .map_err(|e| format!("WAL batch {bseq} undecodable: {e}"))?;
        entry
            .apply(&tenant.cleaner, &rows, batch.client_seq, batch.repl_seq)
            .map_err(|e| format!("WAL batch {bseq} replay failed: {e}"))?;
        seq = bseq;
        batches += 1;
        tuples += rows.len() as u64;
    }

    Ok(Replayed {
        entry,
        seq,
        batches,
        tuples,
    })
}

/// Rename an unrecoverable directory aside as `<dir>.corrupt-<n>`.
fn quarantine(dir: &Path, dir_name: &str, reason: &str, report: &mut RecoveryReport) {
    let parent = dir.parent().unwrap_or(Path::new("."));
    let target = (0..)
        .map(|n| parent.join(format!("{dir_name}.corrupt-{n}")))
        .find(|p| !p.exists())
        .unwrap();
    match std::fs::rename(dir, &target) {
        Ok(()) => {
            // Best-effort parent fsync: a power loss right here must not
            // undo the quarantine and wedge the next startup on the same
            // corrupt directory.
            let _ = crate::snapshot::sync_dir(parent);
            eprintln!(
                "uniclean serve: quarantined unrecoverable tenant directory {dir_name:?} \
                 as {:?}: {reason}",
                target.file_name().and_then(|n| n.to_str()).unwrap_or("?")
            );
            report.quarantined.push(dir_name.to_string());
        }
        Err(e) => {
            eprintln!(
                "uniclean serve: cannot quarantine unrecoverable tenant directory \
                 {dir_name:?} ({reason}): {e}; skipping it"
            );
            report.quarantined.push(dir_name.to_string());
        }
    }
}
