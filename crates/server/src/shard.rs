//! Shard worker pool: bounded per-shard job queues and the workers that
//! drain them.
//!
//! Every mutation of a relation (ingest, close) is routed to the shard
//! owning it ([`crate::shard_for`]), so one relation's mutations apply in
//! submission order while distinct relations on distinct shards clean in
//! parallel. Queues are `sync_channel`-bounded; the submit path (in
//! [`crate::daemon`]) answers `busy` instead of blocking when a queue is
//! full. Dropping all senders is the shutdown signal: each worker drains
//! what is already queued, then exits.
//!
//! The worker is also where the durability ordering and the blast-radius
//! guarantees live:
//!
//! * an ingest applies under `catch_unwind` — a panicking phase poisons
//!   **that tenant** (sticky flag + structured `poisoned` replies) and
//!   the worker moves on to the next job; nothing is logged for the
//!   failed batch, so durable state stays exactly the acknowledged
//!   prefix;
//! * for a durable tenant, the accepted batch is WAL-appended and
//!   fsync'd **before** the reply is sent — the ack implies the batch
//!   survives any crash; a WAL failure poisons the tenant and answers
//!   `wal_error` instead of acking a batch that might not be durable;
//! * after `--snapshot-every` logged batches the worker compacts:
//!   snapshot first (atomic rename, [`crate::snapshot`]), then the WAL
//!   rewrite — failures are logged and retried at the next batch, never
//!   fatal, because the un-rewritten WAL still carries everything.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use uniclean_model::json::{batch_to_ingest_json, relation_to_json};
use uniclean_model::{Json, Tuple};

use crate::faults;
use crate::protocol::{clean_error, error, error_with, ok};
use crate::registry::{DurabilityCfg, Durable, Registry, Tenant};
use crate::snapshot::{write_snapshot, SnapshotDoc};
use crate::stats::ShardStats;
use crate::wal::{self, WalWriter};

/// One unit of serialized per-relation work. Replies travel back over a
/// rendezvous channel to the submitting connection thread.
pub(crate) enum Job {
    /// Apply a decoded batch through `clean_delta`.
    Ingest {
        tenant: Arc<Tenant>,
        rows: Vec<Tuple>,
        /// Client-supplied exactly-once sequence number (dedup key).
        client_seq: Option<u64>,
        /// Primary WAL sequence, when the submitter is the replication
        /// puller mirroring a primary's log.
        repl_seq: Option<u64>,
        reply: SyncSender<Json>,
    },
    /// Drop a relation — routed through its shard so the close lands
    /// *after* every ingest already queued for it.
    Close {
        registry: Arc<Registry>,
        name: String,
        reply: SyncSender<Json>,
    },
}

/// What [`spawn_workers`] hands back: one job sender and one stats block
/// per shard, plus the worker handles the daemon joins on shutdown.
pub(crate) type WorkerPool = (
    Vec<SyncSender<Job>>,
    Vec<Arc<ShardStats>>,
    Vec<JoinHandle<()>>,
);

/// Spawn `shards` workers with queues bounded at `queue_bound`.
/// `durability` carries the snapshot cadence and fsync policy; `None`
/// for a memory-only daemon.
pub(crate) fn spawn_workers(
    shards: usize,
    queue_bound: usize,
    durability: Option<Arc<DurabilityCfg>>,
) -> WorkerPool {
    let mut senders = Vec::with_capacity(shards);
    let mut stats = Vec::with_capacity(shards);
    let mut handles = Vec::with_capacity(shards);
    for shard in 0..shards {
        let (tx, rx) = sync_channel::<Job>(queue_bound);
        let shard_stats = Arc::new(ShardStats::default());
        let durability = durability.clone();
        senders.push(tx);
        stats.push(shard_stats.clone());
        handles.push(
            std::thread::Builder::new()
                .name(format!("uniclean-shard-{shard}"))
                .spawn(move || worker(rx, shard_stats, durability))
                .expect("spawn shard worker"),
        );
    }
    (senders, stats, handles)
}

/// Worker loop: drain the queue until every sender is dropped.
fn worker(rx: Receiver<Job>, stats: Arc<ShardStats>, durability: Option<Arc<DurabilityCfg>>) {
    while let Ok(job) = rx.recv() {
        let (reply, response) = match job {
            Job::Ingest {
                tenant,
                rows,
                client_seq,
                repl_seq,
                reply,
            } => {
                let response =
                    process_ingest(&tenant, &rows, client_seq, repl_seq, durability.as_deref());
                (reply, response)
            }
            Job::Close {
                registry,
                name,
                reply,
            } => {
                let response = close_tenant(&registry, &name);
                (reply, response)
            }
        };
        stats.record_done();
        // The submitter may have hung up (connection dropped); the job's
        // effect stands either way.
        let _ = reply.send(response);
        // Kill point *after* the ack left this process: the batch is
        // durable and acknowledged, so recovery must reproduce it.
        let _ = faults::hit("ingest.post_ack");
    }
}

/// One ingest, end to end: poisoned gate → panic-isolated apply → WAL
/// append + fsync → (maybe) snapshot compaction. Only after all of that
/// does the caller ack.
pub(crate) fn process_ingest(
    tenant: &Arc<Tenant>,
    rows: &[Tuple],
    client_seq: Option<u64>,
    repl_seq: Option<u64>,
    durability: Option<&DurabilityCfg>,
) -> Json {
    if tenant.is_poisoned() {
        return tenant.poisoned_error();
    }
    // A panicking phase must take down this batch, not this process: the
    // worker thread owns no state that the unwind can corrupt beyond the
    // tenant's own entry (whose lock poisoning the entry_* helpers
    // tolerate), so the tenant-level sticky flag is the real fence.
    let response = match catch_unwind(AssertUnwindSafe(|| {
        apply_ingest(tenant, rows, client_seq, repl_seq)
    })) {
        Ok(resp) => resp,
        Err(_) => {
            tenant.poison();
            return tenant.poisoned_error();
        }
    };
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        return response; // engine rejected the batch: nothing to log
    }
    if response.get("deduped").and_then(Json::as_bool) == Some(true) {
        return response; // a retry of an applied batch: already logged
    }
    if let Err(e) = log_accepted_batch(tenant, rows, client_seq, repl_seq, durability) {
        // The frame may be half-written; never append again, and never
        // ack a batch whose durability is unknown.
        tenant.poison();
        return error_with(
            "wal_error",
            format!(
                "relation {:?}: WAL append failed ({e}); tenant poisoned, batch not acknowledged",
                tenant.name
            ),
            vec![("relation", Json::str(&tenant.name))],
        );
    }
    response
}

/// Apply one batch to a tenant under its entry write lock — dedup, then
/// [`crate::registry::TenantEntry::apply`], then the reply. Duplicate
/// deliveries — a client retry re-sending its sequence number, or a
/// replication round re-streaming frames after a network fault — are
/// acknowledged without re-applying: the sequence checks below are what
/// turns at-least-once delivery into exactly-once application.
fn apply_ingest(
    tenant: &Arc<Tenant>,
    rows: &[Tuple],
    client_seq: Option<u64>,
    repl_seq: Option<u64>,
) -> Json {
    if let Err(e) = faults::hit("ingest.apply") {
        return error("fault_injected", e.to_string());
    }
    let mut entry = tenant.entry_write();
    let duplicate = matches!((repl_seq, entry.repl_seq), (Some(rs), Some(prev)) if rs <= prev)
        || matches!((client_seq, entry.last_client_seq), (Some(cs), Some(prev)) if cs <= prev);
    if duplicate {
        return ok(vec![
            ("relation", Json::str(&tenant.name)),
            ("deduped", Json::Bool(true)),
            ("total", Json::Num(entry.state.len() as f64)),
            ("consistent", Json::Bool(entry.state.consistent())),
            ("cost", Json::Num(entry.state.cost())),
        ]);
    }
    let offset = entry.state.len();
    let escalations_before = entry.state.escalations();
    match entry.apply(&tenant.cleaner, rows, client_seq, repl_seq) {
        Ok(res) => {
            let (d, r, p) = res.fix_counts();
            ok(vec![
                ("relation", Json::str(&tenant.name)),
                ("offset", Json::Num(offset as f64)),
                ("ingested", Json::Num(rows.len() as f64)),
                ("total", Json::Num(entry.state.len() as f64)),
                ("fixes", Json::Num((d + r + p) as f64)),
                ("consistent", Json::Bool(res.consistent)),
                (
                    "escalated",
                    Json::Bool(entry.state.escalations() > escalations_before),
                ),
                ("cost", Json::Num(entry.state.cost())),
            ])
        }
        Err(e) => clean_error(&e),
    }
}

/// WAL-append an applied batch (fsync before returning — the ack
/// ordering guarantee), then compact if the cadence says so.
fn log_accepted_batch(
    tenant: &Arc<Tenant>,
    rows: &[Tuple],
    client_seq: Option<u64>,
    repl_seq: Option<u64>,
    durability: Option<&DurabilityCfg>,
) -> std::io::Result<()> {
    let mut guard = tenant.durable_lock();
    let Some(d) = guard.as_mut() else {
        return Ok(()); // memory-only tenant
    };
    d.seq += 1;
    d.wal.append(&wal::batch_record(
        d.seq,
        batch_to_ingest_json(rows),
        client_seq,
        repl_seq,
    ))?;
    d.since_snapshot += 1;
    if let Some(cfg) = durability {
        if cfg.snapshot_every > 0 && d.since_snapshot >= cfg.snapshot_every {
            // Compaction failure is not an ingest failure: the WAL still
            // carries every batch, so durability holds; warn and retry at
            // the next batch.
            if let Err(e) = compact(tenant, d, cfg) {
                eprintln!(
                    "uniclean serve: snapshot compaction for {:?} failed ({e}); will retry",
                    tenant.name
                );
            }
        }
    }
    Ok(())
}

/// Snapshot the tenant's cumulative state, then rewrite the WAL down to
/// its `open` record. Crash-ordering: the snapshot (with its covering
/// `seq`) lands atomically first, so a crash anywhere in between leaves
/// a WAL whose records are all `seq <=` the snapshot — recovery skips
/// them, never double-applies.
fn compact(tenant: &Arc<Tenant>, d: &mut Durable, cfg: &DurabilityCfg) -> std::io::Result<()> {
    let doc = {
        let entry = tenant.entry_read();
        SnapshotDoc {
            seq: d.seq,
            open: d.open_doc.clone(),
            // The accepted history lives in the state and nowhere else
            // (a poisoned tenant never gets here again).
            base_rows: batch_to_ingest_json(&entry.state.base().to_tuples()),
            batches: entry.stats.batches,
            tuples_ingested: entry.stats.tuples_ingested,
            fixes: entry.stats.fixes,
            phase_seconds: entry.stats.phase_seconds,
            repaired: relation_to_json(entry.state.repaired()),
            cost: entry.state.cost(),
            last_client_seq: entry.last_client_seq,
            repl_seq: entry.repl_seq,
        }
    };
    write_snapshot(&d.dir, &doc, cfg.fsync)?;
    faults::hit("snapshot.pre_wal_rewrite")?;
    let tmp = d.dir.join(wal::WAL_REWRITE_TMP);
    let fresh = WalWriter::create_log(&tmp, &d.open_doc, cfg.fsync)?;
    std::fs::rename(&tmp, d.dir.join(wal::WAL_FILE))?;
    if cfg.fsync {
        crate::snapshot::sync_dir(&d.dir)?;
        // The renamed file's handle stays valid; make its metadata
        // durable under the new name too.
        fresh.sync_all()?;
    }
    d.wal = fresh;
    d.since_snapshot = 0;
    Ok(())
}

/// Close = remove from the registry (tombstoning the name) and, for a
/// durable tenant, delete its directory — a closed relation does not
/// resurrect on restart.
fn close_tenant(registry: &Arc<Registry>, name: &str) -> Json {
    match registry.remove(name) {
        Ok(tenant) => {
            let (tuples, batches) = {
                let entry = tenant.entry_read();
                (entry.state.len(), entry.stats.batches)
            };
            if let Some(d) = tenant.durable_lock().take() {
                let dir = d.dir.clone();
                drop(d); // close the WAL handle before unlinking
                if let Err(e) = std::fs::remove_dir_all(&dir) {
                    eprintln!(
                        "uniclean serve: cannot remove closed tenant directory {:?}: {e}",
                        dir
                    );
                } else if let Some(root) = dir.parent() {
                    // Make the unlink itself durable: without the parent
                    // fsync a power loss can resurrect the closed tenant.
                    let _ = crate::snapshot::sync_dir(root);
                }
            }
            ok(vec![
                ("relation", Json::str(name)),
                ("tuples", Json::Num(tuples as f64)),
                ("batches", Json::Num(batches as f64)),
            ])
        }
        Err(e) => e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::OpenSpec;
    use crate::registry::Registry;
    use uniclean_core::Phase;
    use uniclean_model::json::batch_from_json;

    fn tenant() -> Arc<Tenant> {
        let reg = Registry::new(1);
        reg.open(
            &OpenSpec {
                relation: "iso".to_string(),
                table: "data".to_string(),
                attrs: vec!["AC".to_string(), "city".to_string()],
                rules: "cfd phi1: data([AC=131] -> [city=Edi])".to_string(),
                master: None,
                phase: Phase::Full,
                default_cf: 0.5,
                eta: None,
                delta_entropy: None,
            },
            None,
        )
        .unwrap()
    }

    fn batch() -> Vec<Tuple> {
        batch_from_json(&Json::parse(r#"[["131",["Lnd",0.3]]]"#).unwrap(), 2, 0.5).unwrap()
    }

    #[test]
    fn a_panicking_apply_poisons_only_that_tenant() {
        let healthy = tenant();
        // Simulate a phase panic through the same isolation wrapper the
        // worker uses: poison by hand-thrown unwind.
        let victim = tenant();
        let unwound = catch_unwind(AssertUnwindSafe(|| -> Json {
            let _entry = victim.entry_write(); // lock held across the panic
            panic!("injected phase panic");
        }));
        assert!(unwound.is_err());
        victim.poison();

        // The poisoned tenant answers structured errors, lock intact.
        let resp = process_ingest(&victim, &batch(), None, None, None);
        assert_eq!(resp.get("code").and_then(Json::as_str), Some("poisoned"));
        // Its entry lock was poisoned by the unwind, but the tolerant
        // accessors still read it (for `close` bookkeeping).
        assert_eq!(victim.entry_read().state.len(), 0);

        // The healthy tenant on the same worker logic keeps serving.
        let resp = process_ingest(&healthy, &batch(), None, None, None);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.get("fixes").and_then(Json::as_usize), Some(1));
    }

    #[test]
    fn client_and_replica_sequence_dedup_is_exactly_once() {
        let t = tenant();
        let resp = process_ingest(&t, &batch(), Some(5), None, None);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        assert!(resp.get("deduped").is_none());
        let applied = t.entry_read().state.len();

        // The same and any earlier client sequence are acknowledged
        // without re-applying.
        for dup_seq in [5, 3] {
            let resp = process_ingest(&t, &batch(), Some(dup_seq), None, None);
            assert_eq!(resp.get("deduped").and_then(Json::as_bool), Some(true));
            assert_eq!(resp.get("total").and_then(Json::as_usize), Some(applied));
            assert_eq!(t.entry_read().state.len(), applied);
        }
        assert_eq!(
            t.entry_read().stats.batches,
            1,
            "one application, one count"
        );

        // A later sequence applies normally.
        let resp = process_ingest(&t, &batch(), Some(6), None, None);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        assert!(resp.get("deduped").is_none());
        assert!(t.entry_read().state.len() > applied);

        // Replica sequences dedup independently (re-streamed frames).
        let resp = process_ingest(&t, &batch(), None, Some(2), None);
        assert!(resp.get("deduped").is_none());
        let resp = process_ingest(&t, &batch(), None, Some(2), None);
        assert_eq!(resp.get("deduped").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn rejected_batches_do_not_count_or_log() {
        let t = tenant();
        // Arity mismatch: engine rejects, counters untouched.
        let bad = batch_from_json(&Json::parse(r#"[["131"]]"#).unwrap(), 1, 0.5).unwrap();
        let resp = process_ingest(&t, &bad, None, None, None);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(t.entry_read().stats.batches, 0);
        assert!(!t.is_poisoned(), "an engine error is not poisoning");
    }
}
