//! Asynchronous WAL streaming replication: a standby daemon tails a
//! primary's per-tenant WALs and stays promotable.
//!
//! The design is **pull-based** over the existing line-JSON protocol —
//! no new transport, no push channel state on the primary:
//!
//! * the standby (`serve --replicate-from <addr>`) runs one **puller**
//!   thread. Each round it sends `repl_list` (durable tenants with their
//!   WAL position `seq` and compaction `floor`), then per tenant
//!   `repl_fetch` until caught up, then `repl_ack` (which doubles as the
//!   heartbeat the primary's `stats` ages);
//! * `repl_fetch` streams **raw checksummed WAL frames**, hex-encoded,
//!   exactly as they sit in the primary's log — and only the prefix of
//!   the log the primary's own recovery would accept (both walk it with
//!   `wal::RecordScan`). The FNV checksum each frame already
//!   carries therefore protects the bytes end-to-end: network corruption
//!   or truncation is caught by the same validation recovery uses
//!   (`WalRecord::from_hex_frame`), and the damaged fetch is simply
//!   retried;
//! * a tenant the standby does not have yet is brought up the way any
//!   tenant is: from the streamed open record through
//!   `Registry::open`, exactly as a client's `open`
//!   would; or, when the fetch asks for history the primary has compacted
//!   away (`after < floor`) and the response switches to
//!   `mode:"snapshot"` carrying the snapshot file — itself exactly one
//!   frame — through the recovery replay path
//!   (`recovery::tenant_from_snapshot`, cross-check included),
//!   after which it tails the WAL from the snapshot's seq;
//! * applied frames flow through the standby's **own** shard queues and
//!   WAL, stamped with `repl_seq` markers (the primary seq each batch
//!   mirrors), so a standby restart resumes tailing exactly where it
//!   stopped and re-streamed frames dedup instead of double-applying;
//! * `promote` stops the puller, drains its in-flight applies (the
//!   puller submits synchronously, so joining it *is* the drain), and
//!   flips the node to serving. Until then every mutating verb answers
//!   a structured `standby` error naming the primary.
//!
//! Exactly-once composition: the WAL records the original client's
//! `client_seq` alongside each batch, the standby's WAL preserves both
//! markers, and [`crate::shard`]'s dedup checks them — so a client that
//! re-sends its in-flight batch after failover gets `deduped:true` if
//! the batch had replicated before the primary died, and a fresh apply
//! if it had not. Either way the promoted node's state is bit-identical
//! to an uninterrupted run (§5.2 order-independence).

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::{Arc, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use uniclean_client::{Backoff, Conn};
use uniclean_model::frame::FRAME_HEADER_LEN;
use uniclean_model::json::batch_from_json;
use uniclean_model::Json;

use crate::daemon::{submit, Outcome, Shared};
use crate::faults::{self, NetFault};
use crate::protocol::{error, obj, ok, parse_open, PROTO_VERSION};
use crate::recovery::tenant_from_snapshot;
use crate::registry::Tenant;
use crate::shard::Job;
use crate::snapshot::{SnapshotDoc, SNAP_FILE};
use crate::wal::{hex_encode, payload_from_hex_frame, RecordScan, WalRecord, WAL_FILE};

/// Frames per `repl_fetch` response when the request does not say.
pub const DEFAULT_FETCH_FRAMES: usize = 64;

/// Puller connect deadline against the primary.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Puller per-request io deadline (also bounds an injected `delay`).
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Idle poll between rounds when the standby is caught up.
const IDLE_POLL: Duration = Duration::from_millis(25);
/// Retry pause when a shard queue answers `busy`.
const BUSY_RETRY: Duration = Duration::from_millis(5);

// ---------------------------------------------------------------------------
// Primary side: repl_list / repl_fetch / repl_ack handlers
// ---------------------------------------------------------------------------

/// What the primary knows about one tenant's replica (fed by `repl_ack`).
pub(crate) struct ReplicaInfo {
    /// Highest primary WAL seq the standby reported applied.
    pub(crate) acked_seq: u64,
    /// When that report arrived (heartbeat recency).
    pub(crate) last_ack: Instant,
}

/// The `repl_list` verb: every durable tenant with its WAL position.
/// `floor` is the oldest seq still fetchable from the WAL — anything
/// older was compacted into the snapshot, so a standby behind the floor
/// must re-bootstrap.
pub(crate) fn handle_list(shared: &Arc<Shared>) -> Json {
    let mut tenants = Vec::new();
    for t in shared.registry.snapshot() {
        let guard = t.durable_lock();
        let Some(d) = guard.as_ref() else {
            continue; // memory-only tenants have no log to stream
        };
        tenants.push(obj(vec![
            ("relation", Json::str(&t.name)),
            ("seq", Json::Num(d.seq as f64)),
            ("floor", Json::Num((d.seq - d.since_snapshot) as f64)),
            ("poisoned", Json::Bool(t.is_poisoned())),
        ]));
    }
    ok(vec![("tenants", Json::Arr(tenants))])
}

/// The `repl_fetch` verb, with its two failpoints: `repl.fetch` (process
/// faults: kill, or an injected error the standby retries) and
/// `repl.fetch.net` (network faults mangling the reply in flight).
pub(crate) fn handle_fetch(
    shared: &Arc<Shared>,
    relation: &str,
    after: u64,
    max_frames: usize,
) -> Outcome {
    if let Err(e) = faults::hit("repl.fetch") {
        return Outcome::Reply(error("retry", format!("injected fetch fault: {e}")));
    }
    let resp = fetch_response(shared, relation, after, max_frames);
    match faults::net_hit("repl.fetch.net") {
        None => Outcome::Reply(resp),
        Some(NetFault::Delay) => {
            std::thread::sleep(Duration::from_millis(100));
            Outcome::Reply(resp)
        }
        Some(NetFault::Disconnect) => {
            // Half a rendered reply, then the connection closes — the
            // classic mid-stream disconnect.
            let mut line = resp.render();
            line.truncate(line.len() / 2);
            Outcome::CloseAfter(line)
        }
        Some(in_flight) => Outcome::Reply(mangle(resp, in_flight)),
    }
}

fn fetch_response(shared: &Arc<Shared>, relation: &str, after: u64, max_frames: usize) -> Json {
    let tenant = match shared.registry.get(relation) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    // The durable lock serializes against the owning shard's appends and
    // compaction renames, so the file reads below see a consistent log.
    let guard = tenant.durable_lock();
    let Some(d) = guard.as_ref() else {
        return error(
            "not_durable",
            format!("relation {relation:?} has no WAL to replicate (memory-only daemon)"),
        );
    };
    let floor = d.seq - d.since_snapshot;
    // The history below `floor` lives only in the snapshot now.
    let compacted_away = after < floor;
    let (mode, file) = if compacted_away {
        ("snapshot", SNAP_FILE)
    } else {
        ("wal", WAL_FILE)
    };
    let bytes = match std::fs::read(d.dir.join(file)) {
        Ok(b) => b,
        Err(e) => return error("io", format!("{file} unreadable: {e}")),
    };
    let payload = if compacted_away {
        ("data", Json::str(hex_encode(&bytes)))
    } else {
        // Only the prefix this node's own recovery would accept is
        // streamed: the scan stops at a torn or out-of-grammar frame
        // exactly as `read_wal` does. The raw bytes go out as they sit in
        // the log, so the standby re-validates the checksum it carries.
        let frames = RecordScan::new(&bytes)
            .filter(|(record, _)| match record {
                // The open frame only matters to a standby starting from zero.
                WalRecord::Open { .. } => after == 0,
                WalRecord::Batch(b) => b.seq > after,
            })
            .take(max_frames)
            .map(|(_, raw)| Json::Str(hex_encode(raw)));
        ("frames", Json::Arr(frames.collect()))
    };
    ok(vec![
        ("relation", Json::str(relation)),
        ("mode", Json::str(mode)),
        ("seq", Json::Num(d.seq as f64)),
        ("floor", Json::Num(floor as f64)),
        payload,
    ])
}

/// The `repl_ack` verb: record the replica's applied offset + heartbeat.
pub(crate) fn handle_ack(shared: &Arc<Shared>, relation: &str, seq: u64) -> Json {
    if let Err(e) = faults::hit("repl.ack") {
        return error("retry", format!("injected ack fault: {e}"));
    }
    let mut map = shared
        .replicas
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let info = map.entry(relation.to_string()).or_insert(ReplicaInfo {
        acked_seq: 0,
        last_ack: Instant::now(),
    });
    info.acked_seq = info.acked_seq.max(seq);
    info.last_ack = Instant::now();
    ok(vec![
        ("relation", Json::str(relation)),
        ("acked_seq", Json::Num(info.acked_seq as f64)),
    ])
}

/// The `replication` member of a primary's per-relation `stats` block:
/// the replica's acked offset, its lag in frames and bytes, and how
/// stale its heartbeat is. `None` when no replica ever acked this
/// relation. Lag bytes come from an on-demand WAL scan under `try_lock`
/// so `stats` stays online even mid-append.
pub(crate) fn relation_replication_json(
    shared: &Arc<Shared>,
    tenant: &Arc<Tenant>,
) -> Option<Json> {
    let (acked_seq, age) = {
        let map = shared
            .replicas
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let info = map.get(&tenant.name)?;
        (info.acked_seq, info.last_ack.elapsed().as_secs_f64())
    };
    let mut pairs = vec![
        ("acked_seq", Json::Num(acked_seq as f64)),
        ("heartbeat_age_seconds", Json::Num(age)),
    ];
    if let Ok(guard) = tenant.durable.try_lock() {
        if let Some(d) = guard.as_ref() {
            pairs.push((
                "lag_frames",
                Json::Num(d.seq.saturating_sub(acked_seq) as f64),
            ));
            if let Some(bytes) = wal_lag_bytes(&d.dir.join(WAL_FILE), acked_seq) {
                pairs.push(("lag_bytes", Json::Num(bytes as f64)));
            }
        }
    }
    Some(obj(pairs))
}

/// On-disk bytes of WAL frames with `seq > acked` — the replica's lag in
/// bytes, without holding anything in memory between calls.
fn wal_lag_bytes(wal_path: &std::path::Path, acked: u64) -> Option<u64> {
    let bytes = std::fs::read(wal_path).ok()?;
    Some(
        RecordScan::new(&bytes)
            .filter(|(record, _)| matches!(record, WalRecord::Batch(b) if b.seq > acked))
            .map(|(_, raw)| raw.len() as u64)
            .sum(),
    )
}

// ---------------------------------------------------------------------------
// Promotion
// ---------------------------------------------------------------------------

/// The `promote` verb: stop the puller, drain its in-flight applies
/// (joining the puller thread is the drain — it submits synchronously),
/// then flip the node to serving.
pub(crate) fn promote(shared: &Arc<Shared>) -> Json {
    if !shared.standby.load(Ordering::SeqCst) {
        return error("not_standby", "this node is already a primary");
    }
    stop_puller(shared);
    shared.standby.store(false, Ordering::SeqCst);
    ok(vec![
        ("role", Json::str("primary")),
        ("promoted", Json::Bool(true)),
        ("relations", Json::Num(shared.registry.count() as f64)),
    ])
}

/// Signal the puller to stop and join it (idempotent; also the shutdown
/// path for a standby daemon).
pub(crate) fn stop_puller(shared: &Arc<Shared>) {
    shared.repl_stop.store(true, Ordering::SeqCst);
    let handle = shared
        .repl_handle
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    if let Some(h) = handle {
        let _ = h.join();
    }
}

// ---------------------------------------------------------------------------
// Standby side: the puller
// ---------------------------------------------------------------------------

/// Counters the `ping`/`stats` verbs report for a (current or former)
/// standby.
#[derive(Default)]
pub(crate) struct StandbyStatus {
    /// Whether the last round reached the primary.
    pub(crate) connected: bool,
    /// Completed pull rounds.
    pub(crate) rounds: u64,
    /// Batch frames applied (dedup-skipped frames not counted).
    pub(crate) frames_applied: u64,
    /// Tenants bootstrapped (from a snapshot or an open frame).
    pub(crate) bootstraps: u64,
    /// Failed rounds + damaged-stream retries.
    pub(crate) retries: u64,
    /// Human text of the last failure, if any.
    pub(crate) last_error: Option<String>,
}

impl StandbyStatus {
    pub(crate) fn to_json(&self, primary: Option<&str>) -> Json {
        let mut pairs = vec![
            ("role", Json::str("standby")),
            ("connected", Json::Bool(self.connected)),
            ("rounds", Json::Num(self.rounds as f64)),
            ("frames_applied", Json::Num(self.frames_applied as f64)),
            ("bootstraps", Json::Num(self.bootstraps as f64)),
            ("retries", Json::Num(self.retries as f64)),
        ];
        if let Some(p) = primary {
            pairs.insert(1, ("primary", Json::str(p)));
        }
        if let Some(e) = &self.last_error {
            pairs.push(("last_error", Json::str(e)));
        }
        obj(pairs)
    }
}

fn status(shared: &Arc<Shared>) -> MutexGuard<'_, StandbyStatus> {
    shared
        .repl_status
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn should_stop(shared: &Arc<Shared>) -> bool {
    shared.repl_stop.load(Ordering::SeqCst) || shared.shutdown.load(Ordering::SeqCst)
}

/// Sleep up to `total`, but wake early if promotion or shutdown asks the
/// puller to stop — a promote must never wait out a 2s backoff.
fn sleep_checking_stop(shared: &Arc<Shared>, total: Duration) {
    let deadline = Instant::now() + total;
    while !should_stop(shared) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The standby's puller loop: connect → round (list, per-tenant sync,
/// ack) → repeat, with jittered exponential backoff on failure.
pub(crate) fn run_puller(shared: Arc<Shared>, primary: String) {
    let mut conn: Option<Conn> = None;
    let fresh_backoff = || {
        Backoff::new(
            Duration::from_millis(50),
            Duration::from_secs(2),
            0x7e57_ab1e,
        )
    };
    let mut backoff = fresh_backoff();
    while !should_stop(&shared) {
        match round(&shared, &primary, &mut conn) {
            Ok(applied) => {
                {
                    let mut st = status(&shared);
                    st.connected = true;
                    st.rounds += 1;
                    st.frames_applied += applied;
                    if applied > 0 {
                        st.last_error = None;
                    }
                }
                backoff = fresh_backoff();
                if applied == 0 {
                    sleep_checking_stop(&shared, IDLE_POLL);
                }
            }
            Err(e) => {
                {
                    let mut st = status(&shared);
                    st.connected = false;
                    st.retries += 1;
                    st.last_error = Some(e);
                }
                conn = None; // reconnect from scratch
                sleep_checking_stop(&shared, backoff.next_delay());
            }
        }
    }
    status(&shared).connected = false;
}

/// One pull round. Returns how many batch frames were applied.
fn round(shared: &Arc<Shared>, primary: &str, conn: &mut Option<Conn>) -> Result<u64, String> {
    if conn.is_none() {
        let mut c = Conn::connect(primary, CONNECT_TIMEOUT, IO_TIMEOUT)
            .map_err(|e| format!("connect {primary}: {e}"))?;
        c.handshake(PROTO_VERSION)
            .map_err(|e| format!("handshake with {primary}: {e}"))?;
        *conn = Some(c);
    }
    let c = conn.as_mut().expect("connection just established");
    let listed = request_ok(c, &obj(vec![("op", Json::str("repl_list"))]))?;
    let tenants = listed
        .get("tenants")
        .and_then(Json::as_arr)
        .ok_or("repl_list reply carries no tenants array")?
        .to_vec();
    let mut applied = 0u64;
    let mut listed_names: HashSet<String> = HashSet::new();
    for t in &tenants {
        if should_stop(shared) {
            return Ok(applied);
        }
        let Some(name) = t.get("relation").and_then(Json::as_str) else {
            return Err("repl_list entry without a relation".to_string());
        };
        listed_names.insert(name.to_string());
        if t.get("poisoned").and_then(Json::as_bool) == Some(true) {
            continue; // a poisoned primary tenant's log may end torn; skip
        }
        let seq = t.get("seq").and_then(Json::as_u64).unwrap_or(0);
        let floor = t.get("floor").and_then(Json::as_u64).unwrap_or(0);
        applied += sync_tenant(shared, c, name, seq, floor)?;
    }
    // Tenants the primary no longer lists were closed there — close the
    // local copy too.
    for t in shared.registry.snapshot() {
        if !listed_names.contains(&t.name) {
            drop_local(shared, &t.name);
        }
    }
    Ok(applied)
}

fn request_ok(c: &mut Conn, req: &Json) -> Result<Json, String> {
    let resp = c.request(req).map_err(|e| e.to_string())?;
    if resp.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(resp)
    } else {
        Err(format!("primary answered {}", resp.render()))
    }
}

fn fetch(c: &mut Conn, relation: &str, after: u64) -> Result<Json, String> {
    request_ok(
        c,
        &obj(vec![
            ("op", Json::str("repl_fetch")),
            ("relation", Json::str(relation)),
            ("after", Json::Num(after as f64)),
            ("max_frames", Json::Num(DEFAULT_FETCH_FRAMES as f64)),
        ]),
    )
}

/// Bring one tenant up to the primary's `seq`: bootstrap if absent or
/// compacted past (`< floor`), then tail WAL frames, then ack. The ack
/// goes out every round even when already caught up — it is also the
/// heartbeat.
fn sync_tenant(
    shared: &Arc<Shared>,
    c: &mut Conn,
    name: &str,
    primary_seq: u64,
    floor: u64,
) -> Result<u64, String> {
    let mut applied = 0u64;
    let mut local = shared.registry.get(name).ok().map(|t| {
        let seq = t.entry_read().repl_seq.unwrap_or(0);
        (t, seq)
    });
    if local
        .as_ref()
        .is_some_and(|(_, local_seq)| *local_seq < floor)
    {
        // The primary compacted away history we still need: this copy
        // can't catch up frame-by-frame. Drop it and re-bootstrap.
        drop_local(shared, name);
        local = None;
    }
    let (tenant, mut local_seq) = match local {
        Some(ts) => ts,
        None => {
            let (tenant, seq, n) = bootstrap(shared, c, name)?;
            status(shared).bootstraps += 1;
            applied += n;
            (tenant, seq)
        }
    };
    while local_seq < primary_seq && !should_stop(shared) {
        let resp = fetch(c, name, local_seq)?;
        match resp.get("mode").and_then(Json::as_str) {
            Some("wal") => {
                let n = apply_frames(shared, &tenant, &resp, &mut local_seq)?;
                applied += n;
                if n == 0 {
                    break; // damaged stream or empty reply: retry next round
                }
            }
            // The primary compacted underneath this loop; the next
            // round's floor check rebuilds from the new snapshot.
            Some("snapshot") => break,
            _ => return Err("repl_fetch reply without a mode".to_string()),
        }
    }
    request_ok(
        c,
        &obj(vec![
            ("op", Json::str("repl_ack")),
            ("relation", Json::str(name)),
            ("seq", Json::Num(local_seq as f64)),
        ]),
    )?;
    Ok(applied)
}

/// Remove a stale local tenant (registry + directory) through its shard,
/// so the close lands after any in-flight applies.
fn drop_local(shared: &Arc<Shared>, name: &str) {
    if let Ok(t) = shared.registry.get(name) {
        let registry = shared.registry.clone();
        let name = name.to_string();
        let _ = submit(shared, t.shard, |reply| Job::Close {
            registry,
            name,
            reply,
        });
    }
}

/// First fetch for an unknown tenant: a snapshot (bootstrap via the
/// recovery replay path) or the WAL from frame zero, whose first frame is
/// the open record (bootstrap via `Registry::open`, as a client's `open`
/// would). Returns the tenant, its mirrored seq, and how many batch
/// frames the call already applied.
fn bootstrap(
    shared: &Arc<Shared>,
    c: &mut Conn,
    name: &str,
) -> Result<(Arc<Tenant>, u64, u64), String> {
    let resp = fetch(c, name, 0)?;
    let durable = shared.durable.as_deref();
    match resp.get("mode").and_then(Json::as_str) {
        Some("snapshot") => {
            let data = resp
                .get("data")
                .and_then(Json::as_str)
                .ok_or("snapshot reply without data")?;
            let payload = payload_from_hex_frame(data)
                .map_err(|what| format!("snapshot stream damaged ({what})"))?;
            let mut doc = SnapshotDoc::from_payload(&payload)
                .ok_or("snapshot payload is not a version-1 snapshot")?;
            // Locally, this state mirrors the primary at the snapshot's
            // seq — record that so restarts resume tailing from there.
            doc.repl_seq = Some(doc.seq);
            // Adoption happens after the replay — readers never see a
            // half-bootstrapped tenant.
            let tenant = Arc::new(tenant_from_snapshot(
                name,
                &doc,
                shared.shard_stats.len(),
                durable,
            )?);
            shared.registry.adopt(vec![tenant.clone()]);
            Ok((tenant, doc.seq, 0))
        }
        Some("wal") => {
            let first = resp
                .get("frames")
                .and_then(Json::as_arr)
                .ok_or("wal reply without frames")?
                .first()
                .and_then(Json::as_str)
                .ok_or("tenant has no open frame to bootstrap from")?;
            let WalRecord::Open { spec: open_doc } =
                WalRecord::from_hex_frame(first).map_err(|what| format!("open frame: {what}"))?
            else {
                return Err("first WAL frame is not an open record".to_string());
            };
            let spec = parse_open(&open_doc)
                .map_err(|e| format!("primary open spec rejected: {}", e.render()))?;
            if spec.relation != name {
                return Err(format!(
                    "open spec names {:?}, expected {name:?}",
                    spec.relation
                ));
            }
            let tenant = shared
                .registry
                .open(&spec, durable.map(|cfg| (&open_doc, cfg)))
                .map_err(|e| format!("cannot open standby tenant: {}", e.render()))?;
            let mut local_seq = 0u64;
            let n = apply_frames(shared, &tenant, &resp, &mut local_seq)?;
            Ok((tenant, local_seq, n))
        }
        _ => Err("repl_fetch reply without a mode".to_string()),
    }
}

/// Decode and apply the batch frames of one `wal`-mode reply, advancing
/// `local_seq`. Stops (without error) at the first damaged frame — the
/// checksum validation here is what turns injected corruption and
/// truncation into a clean retry instead of divergence. Frames at or
/// below `local_seq` (duplicates) are skipped.
fn apply_frames(
    shared: &Arc<Shared>,
    tenant: &Arc<Tenant>,
    resp: &Json,
    local_seq: &mut u64,
) -> Result<u64, String> {
    let frames = resp
        .get("frames")
        .and_then(Json::as_arr)
        .ok_or("wal reply without frames")?;
    let arity = tenant.cleaner.rules().schema().arity();
    let mut applied = 0u64;
    for f in frames {
        if should_stop(shared) {
            return Ok(applied);
        }
        let record = match f
            .as_str()
            .ok_or("frame is not a string")
            .and_then(WalRecord::from_hex_frame)
        {
            Ok(record) => record,
            Err(what) => {
                let mut st = status(shared);
                st.retries += 1;
                st.last_error = Some(format!("damaged replication stream: {what}"));
                break;
            }
        };
        let WalRecord::Batch(batch) = record else {
            continue; // the open frame: bootstrap already consumed it
        };
        let seq = batch.seq;
        if seq <= *local_seq {
            continue; // duplicated delivery: already applied
        }
        let rows = batch_from_json(&batch.rows, arity, tenant.default_cf)
            .map_err(|e| format!("replicated batch {seq} undecodable: {e}"))?;
        loop {
            if should_stop(shared) {
                return Ok(applied);
            }
            let resp = submit(shared, tenant.shard, |reply| Job::Ingest {
                tenant: tenant.clone(),
                rows: rows.clone(),
                client_seq: batch.client_seq,
                repl_seq: Some(seq),
                reply,
            });
            if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                break;
            }
            match resp.get("code").and_then(Json::as_str) {
                Some("busy") => std::thread::sleep(BUSY_RETRY),
                _ => {
                    return Err(format!(
                        "applying replicated batch {seq} failed: {}",
                        resp.render()
                    ))
                }
            }
        }
        *local_seq = seq;
        applied += 1;
    }
    Ok(applied)
}

// ---------------------------------------------------------------------------
// Reply mangling (net faults)
// ---------------------------------------------------------------------------

/// Damage a fetch reply the way a hostile network would, operating on
/// the hex payloads (`frames` entries or the snapshot `data`): deliver
/// them twice (dedup must absorb it), or truncate / corrupt the first.
fn mangle(resp: Json, how: NetFault) -> Json {
    let Json::Obj(mut pairs) = resp else {
        return resp;
    };
    for (key, value) in pairs.iter_mut() {
        match (key.as_str(), value, how) {
            ("frames", Json::Arr(frames), NetFault::Duplicate) => frames.extend(frames.clone()),
            ("frames", Json::Arr(frames), _) => {
                if let Some(Json::Str(s)) = frames.first_mut() {
                    *s = mangle_hex(s, how);
                }
            }
            ("data", Json::Str(s), NetFault::Duplicate) => *s = s.repeat(2),
            ("data", Json::Str(s), _) => *s = mangle_hex(s, how),
            _ => {}
        }
    }
    Json::Obj(pairs)
}

fn mangle_hex(s: &str, how: NetFault) -> String {
    if how == NetFault::Truncate {
        // Keep only the first (even-length) half of the payload.
        return s[..(s.len() / 2) & !1].to_string();
    }
    // Corrupt: flip a digit past the header so the checksum, not the
    // length field, is what catches it.
    let mut b = s.as_bytes().to_vec();
    let idx = (FRAME_HEADER_LEN * 2).min(b.len().saturating_sub(1));
    if let Some(c) = b.get_mut(idx) {
        *c = if *c == b'0' { b'1' } else { b'0' };
    }
    String::from_utf8(b).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::io::Write;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Mutex, RwLock};

    use uniclean_model::frame::encode_frame;

    use crate::registry::{DurabilityCfg, Registry};
    use crate::shard::process_ingest;
    use crate::wal::{batch_record, read_wal};

    /// A primary's shared state over `root`, with no threads behind it:
    /// enough for the replication verbs, which only read the registry and
    /// the tenants' files.
    fn primary_over(root: &std::path::Path) -> Arc<Shared> {
        std::fs::create_dir_all(root).unwrap();
        Arc::new(Shared {
            registry: Arc::new(Registry::new(1)),
            senders: RwLock::new(None),
            shard_stats: Vec::new(),
            queue_bound: 1,
            shutdown: AtomicBool::new(false),
            local: "127.0.0.1:0".parse().unwrap(),
            started: Instant::now(),
            recovery: None,
            durable: Some(Arc::new(DurabilityCfg {
                root: root.to_path_buf(),
                snapshot_every: 0,
                fsync: false,
            })),
            max_line_bytes: 1024,
            standby: AtomicBool::new(false),
            primary_addr: None,
            replicas: Mutex::new(HashMap::new()),
            repl_stop: AtomicBool::new(false),
            repl_handle: Mutex::new(None),
            repl_status: Mutex::new(StandbyStatus::default()),
        })
    }

    /// `repl_fetch` must stream exactly the log its own node would recover
    /// from: a checksummed frame outside the grammar ends the stream where
    /// it ends `read_wal`'s prefix, however well-formed the frames behind
    /// it are.
    #[test]
    fn fetch_streams_only_the_prefix_recovery_accepts() {
        let open_doc = Json::parse(
            r#"{"op":"open","relation":"t","attrs":["AC","city"],"rules":"cfd phi1: data([AC=131] -> [city=Edi])"}"#,
        )
        .unwrap();
        let reopen = WalRecord::Open {
            spec: open_doc.clone(),
        };
        let row = Json::parse(r#"[["131",["Lnd",0.3]]]"#).unwrap();
        let tails = [
            ("regress", batch_record(1, row.clone(), None, None).render()),
            ("reopen", reopen.render()),
            (
                "kind",
                r#"{"kind":"checkpoint","seq":3,"rows":[]}"#.to_string(),
            ),
        ];
        for (tag, bad) in tails {
            let root = std::env::temp_dir()
                .join(format!("uniclean-repl-prefix-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            let shared = primary_over(&root);
            let cfg = shared.durable.clone().unwrap();
            let tenant = shared
                .registry
                .open(&parse_open(&open_doc).unwrap(), Some((&open_doc, &cfg)))
                .unwrap();
            let rows = batch_from_json(&row, 2, 0.5).unwrap();
            for _ in 0..2 {
                let resp = process_ingest(&tenant, &rows, None, None, Some(&cfg));
                assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
            }
            // The out-of-grammar frame, then a perfectly good batch 3.
            let wal_path = root.join("t").join(WAL_FILE);
            let mut tail = Vec::new();
            encode_frame(bad.as_bytes(), &mut tail);
            encode_frame(
                batch_record(3, row.clone(), None, None).render().as_bytes(),
                &mut tail,
            );
            std::fs::OpenOptions::new()
                .append(true)
                .open(&wal_path)
                .and_then(|mut f| f.write_all(&tail))
                .unwrap();

            let accepted: Vec<u64> = read_wal(&wal_path)
                .unwrap()
                .batches
                .iter()
                .map(|b| b.seq)
                .collect();
            assert_eq!(accepted, [1, 2], "{tag}");
            let resp = fetch_response(&shared, "t", 0, DEFAULT_FETCH_FRAMES);
            let records: Vec<WalRecord> = resp
                .get("frames")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|f| WalRecord::from_hex_frame(f.as_str().unwrap()).unwrap())
                .collect();
            assert!(matches!(records[0], WalRecord::Open { .. }), "{tag}");
            let fetched: Vec<u64> = records[1..]
                .iter()
                .map(|r| match r {
                    WalRecord::Batch(b) => b.seq,
                    WalRecord::Open { .. } => panic!("{tag}: a second open record was streamed"),
                })
                .collect();
            assert_eq!(fetched, accepted, "{tag}");
            // The lag accounting reads the same prefix.
            let whole = std::fs::metadata(&wal_path).unwrap().len();
            let lag = wal_lag_bytes(&wal_path, 0).unwrap();
            assert!(lag > 0 && lag < whole - tail.len() as u64, "{tag}");
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn mangled_frames_fail_the_checksum_but_duplicates_still_verify() {
        let payload = br#"{"kind":"batch","seq":3,"rows":[]}"#;
        let mut raw = Vec::new();
        encode_frame(payload, &mut raw);
        let reply = |frames: Vec<Json>| {
            Json::Obj(vec![
                ("mode".to_string(), Json::str("wal")),
                ("frames".to_string(), Json::Arr(frames)),
            ])
        };
        let clean = reply(vec![Json::Str(hex_encode(&raw))]);
        let frame = |r: &Json, at: usize| -> Result<Vec<u8>, &'static str> {
            let frames = r.get("frames").and_then(Json::as_arr).unwrap();
            payload_from_hex_frame(frames[at].as_str().unwrap())
        };
        assert_eq!(frame(&clean, 0).as_deref(), Ok(payload.as_slice()));

        let corrupted = mangle(clean.clone(), NetFault::Corrupt);
        assert!(frame(&corrupted, 0).is_err(), "corruption must not verify");

        let truncated = mangle(clean.clone(), NetFault::Truncate);
        assert!(frame(&truncated, 0).is_err(), "truncation must not verify");

        let duplicated = mangle(clean.clone(), NetFault::Duplicate);
        let frames = duplicated.get("frames").and_then(Json::as_arr).unwrap();
        assert_eq!(frames.len(), 2, "duplication doubles delivery");
        assert_eq!(
            frame(&duplicated, 1).as_deref(),
            Ok(payload.as_slice()),
            "a duplicated frame still verifies"
        );
    }
}
