//! The operator's path: `kill -9`, relaunch, cold standby, promote.
//!
//! A durable primary holds `fo_batches` batches (default snapshot cadence,
//! so recovery is snapshot + WAL suffix). Each cycle then does identical
//! work: relaunch the killed primary and wait until it serves; launch a
//! cold standby and wait until the primary reports zero lag; kill the
//! primary, promote the standby, and push the next batch through a client
//! that knows both addresses. Recovery, snapshot, replication and replay do
//! all the work here and none in the other stages.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use uniclean_client::Client;
use uniclean_core::Phase;
use uniclean_model::frame::scan_frames;
use uniclean_model::json::{batch_from_json, relation_to_json};
use uniclean_model::{Json, Relation};
use uniclean_server::snapshot::load_snapshots;
use uniclean_server::tenant_dir_name;
use uniclean_server::wal::{read_wal, WAL_FILE};

use crate::child::{client_config, Daemon};
use crate::inputs::{open_spec, wire_batches};
use crate::serve::durable_bytes;
use crate::{fingerprint_json, Ctx};

const RELATION: &str = "fo";

/// The `replication` block of the primary's `stats` for the tenant:
/// `(lag_frames, acked_seq)`, once a standby has acked.
fn primary_lag(client: &mut Client) -> Option<(u64, u64)> {
    let stats = client.stats_verb(Some(RELATION)).ok()?;
    let repl = stats
        .get("relations")?
        .as_arr()?
        .first()?
        .get("replication")?;
    Some((
        repl.get("lag_frames")?.as_u64()?,
        repl.get("acked_seq")?.as_u64()?,
    ))
}

fn dump_fingerprint(client: &mut Client) -> Option<(u64, usize)> {
    let dump = client.dump(RELATION).ok()?;
    Some((
        fingerprint_json(dump.get("rows")?),
        dump.get("tuples")?.as_usize()?,
    ))
}

/// The failover stage: a filled and killed primary, then one identical
/// cycle per [`Failover::cycle`] call.
pub struct Failover {
    primary_dir: PathBuf,
    /// The batch the writer sends after each promotion.
    next: Json,
    pre_tuples: usize,
    /// Fingerprint and tuple count of the primary's dump before the kill.
    pre_kill: Option<(u64, usize)>,
    /// What a promoted standby must hold once `next` is acked.
    expected_after: u64,
    restart_s: Vec<f64>,
    catchup_s: Vec<f64>,
    failover_s: Vec<f64>,
    promote_s: Vec<f64>,
    recovery_scan_s: Vec<f64>,
    recovery: Option<Json>,
    repl_ratio: Option<f64>,
    lag_max: u64,
    retries: u64,
    failovers: u64,
}

impl Failover {
    /// Fill the primary, note what it holds, and kill it.
    pub fn prepare(ctx: &mut Ctx) -> Result<Failover, String> {
        let plan = ctx.plan;
        let inputs = ctx.inputs;
        let primary_dir = ctx.scratch.sub("fo-primary");
        let mut batches = wire_batches(&inputs.rows, 0, plan.fo_batches + 1, plan.fo_batch_tuples);
        let next = batches.pop().expect("fo_batches + 1 batches were cut");
        let pre_tuples = plan.fo_batches * plan.fo_batch_tuples;

        let primary = Daemon::spawn(ctx.daemon_bin, &primary_dir, None)?;
        let mut client = primary.client();
        let fill = |client: &mut Client| -> Result<(), uniclean_client::ClientError> {
            client.open(open_spec(&inputs.w, RELATION))?;
            for rows in &batches {
                client.ingest(RELATION, rows.clone())?;
            }
            Ok(())
        };
        fill(&mut client).map_err(|e| format!("failover set-up: {e}"))?;
        ctx.res.attempted += 1 + batches.len() as u64;
        let pre_kill = dump_fingerprint(&mut client);
        ctx.res
            .op(pre_kill.is_some_and(|(_, n)| n == pre_tuples), || {
                "pre-kill dump failed".into()
            });
        primary.kill9();

        let after = Relation::new(
            inputs.w.dirty.schema().clone(),
            inputs.rows[..plan.fo_total()].to_vec(),
        );
        let expected_after = fingerprint_json(&relation_to_json(
            &inputs.tenant_cleaner.clean(&after, Phase::Full).repaired,
        ));
        Ok(Failover {
            primary_dir,
            next,
            pre_tuples,
            pre_kill,
            expected_after,
            restart_s: Vec::new(),
            catchup_s: Vec::new(),
            failover_s: Vec::new(),
            promote_s: Vec::new(),
            recovery_scan_s: Vec::new(),
            recovery: None,
            repl_ratio: None,
            lag_max: 0,
            retries: 0,
            failovers: 0,
        })
    }

    pub fn cycles(&self) -> usize {
        self.restart_s.len()
    }

    /// Relaunch, catch a cold standby up, fail over to it.
    pub fn cycle(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        let plan = ctx.plan;
        // Relaunch on the killed primary's data dir; serving means the
        // first check answers with everything acked before the kill.
        ctx.tracer.next_op();
        ctx.tracer.begin("server.restart");
        let t0 = Instant::now();
        let primary = Daemon::spawn(ctx.daemon_bin, &self.primary_dir, None)?;
        let mut client = primary.client();
        let check = client.check(RELATION);
        self.restart_s.push(t0.elapsed().as_secs_f64());
        ctx.tracer.end();
        let all_there = check
            .as_ref()
            .is_ok_and(|r| r.get("tuples").and_then(Json::as_usize) == Some(self.pre_tuples));
        ctx.res.op(all_there, || {
            format!("after restart, check answered {check:?}")
        });
        let same = dump_fingerprint(&mut client) == self.pre_kill;
        ctx.res.op(same, || {
            "post-restart dump differs from pre-kill dump".into()
        });
        if ctx.tracer.enabled() {
            let ping = client.ping().ok();
            if let Some(r) = ping.as_ref().and_then(|p| p.get("recovery")) {
                self.recovery_scan_s
                    .extend(r.get("seconds").and_then(Json::as_f64));
                self.recovery = Some(r.clone());
            }
            if self.repl_ratio.is_none() {
                self.repl_ratio = repl_wire_ratio(&mut client);
            }
        }

        // A cold standby: caught up when the primary reports zero lag.
        let standby_dir = ctx.scratch.sub("fo-standby");
        ctx.tracer.begin("server.catchup");
        let t0 = Instant::now();
        let standby = Daemon::spawn(ctx.daemon_bin, &standby_dir, Some(&primary.addr))?;
        let caught_up = loop {
            match primary_lag(&mut client) {
                Some((0, acked)) if acked == plan.fo_batches as u64 => break true,
                Some((lag, _)) => self.lag_max = self.lag_max.max(lag),
                None => {}
            }
            if t0.elapsed() > Duration::from_secs(120) {
                break false;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        self.catchup_s.push(t0.elapsed().as_secs_f64());
        ctx.tracer.end();
        ctx.res
            .op(caught_up, || "standby never reached zero lag".into());

        // Kill the primary; an operator promotes; the writer's next batch
        // rides its own failover to the promoted node.
        let both = client_config(&primary.addr).with_standby(&standby.addr);
        let mut writer = Client::new(both.clone());
        let mut operator = Client::new(both);
        let warm = writer.ping();
        ctx.res
            .op(warm.is_ok(), || format!("writer ping failed: {warm:?}"));
        ctx.tracer.begin("server.failover");
        let t0 = Instant::now();
        primary.kill9();
        let (promoted, secs) = ctx
            .tracer
            .time("server.promote", || operator.promote_standby());
        self.promote_s.push(secs);
        let acked = writer.ingest(RELATION, self.next.clone());
        self.failover_s.push(t0.elapsed().as_secs_f64());
        ctx.tracer.end();
        ctx.res
            .op(promoted.is_ok(), || format!("promote failed: {promoted:?}"));
        let fresh = acked
            .as_ref()
            .is_ok_and(|r| r.get("deduped").and_then(Json::as_bool) != Some(true));
        ctx.res.op(fresh, || {
            format!("ingest after failover answered {acked:?}")
        });
        self.retries += writer.stats.retries;
        self.failovers += writer.stats.failovers;

        // Nothing acked is missing and the new batch landed exactly once.
        let holds = dump_fingerprint(&mut standby.client());
        ctx.res.op(
            holds == Some((self.expected_after, plan.fo_total())),
            || "promoted standby differs from an in-process clean of the same input".into(),
        );
        standby.kill9();
        let _ = std::fs::remove_dir_all(&standby_dir);
        Ok(())
    }

    pub fn finish(self, ctx: &mut Ctx) {
        ctx.res.samples("restart_to_serving_s", &self.restart_s);
        ctx.res.samples("catchup_s", &self.catchup_s);
        ctx.res.samples("failover_to_serving_s", &self.failover_s);
        if !ctx.tracer.enabled() {
            return;
        }
        let cycles = self.restart_s.len() as f64;
        ctx.res
            .samples("server.recovery_scan_s", &self.recovery_scan_s);
        let count = |key: &str| {
            self.recovery
                .as_ref()
                .and_then(|r| r.get(key))
                .and_then(Json::as_f64)
        };
        if let (Some(b), Some(s)) = (count("batches_replayed"), count("snapshots_used")) {
            ctx.res.exact("server.recovery_batches_replayed", b);
            ctx.res.exact("server.recovery_snapshots_used", s);
        }
        ctx.res.samples("server.promote_s", &self.promote_s);
        ctx.res
            .point("server.repl_lag_frames_max", self.lag_max as f64, 1);
        if let Some(ratio) = self.repl_ratio {
            ctx.res
                .point("server.repl_wire_bytes_per_wal_byte", ratio, 1);
        }
        ctx.res
            .point("client.failover_retries", self.retries as f64 / cycles, 1);
        ctx.res
            .point("client.failovers", self.failovers as f64 / cycles, 1);
        price_recovery(ctx, &self.primary_dir);
    }
}

/// Bytes of a bench-issued `repl_fetch` conversation (the snapshot, then
/// the WAL suffix behind it) per byte of log they carry. The payloads
/// travel hex-encoded inside JSON strings.
fn repl_wire_ratio(client: &mut Client) -> Option<f64> {
    let fetch = |client: &mut Client, after: u64| {
        client
            .request_retried(&Json::Obj(vec![
                ("op".into(), Json::str("repl_fetch")),
                ("relation".into(), Json::str(RELATION)),
                ("after".into(), Json::Num(after as f64)),
                ("max_frames".into(), Json::Num(100_000.0)),
            ]))
            .ok()
    };
    let snapshot = fetch(client, 0)?;
    let floor = snapshot.get("floor")?.as_u64()?;
    let suffix = fetch(client, floor)?;
    let hex_bytes = |reply: &Json| -> usize {
        let data = reply.get("data").and_then(Json::as_str).map_or(0, str::len);
        let frames: usize = reply
            .get("frames")
            .and_then(Json::as_arr)
            .map_or(0, |f| f.iter().filter_map(Json::as_str).map(str::len).sum());
        (data + frames) / 2
    };
    let carried = hex_bytes(&snapshot) + hex_bytes(&suffix);
    let wire = snapshot.render().len() + suffix.render().len();
    (carried > 0).then(|| wire as f64 / carried as f64)
}

/// The files the primary left, through the functions recovery reads them
/// with, and the replay they imply, in process.
fn price_recovery(ctx: &mut Ctx, primary_dir: &Path) {
    let inputs = ctx.inputs;
    let dir = primary_dir.join(tenant_dir_name(RELATION));
    let wal_path = dir.join(WAL_FILE);
    let wal_bytes = std::fs::read(&wal_path).unwrap_or_default();
    let mut scan_mb_per_s = Vec::new();
    for _ in 0..5 {
        ctx.tracer.time("server.wal_read", || {
            std::hint::black_box(read_wal(&wal_path).is_ok())
        });
        let (frames, secs) = ctx
            .tracer
            .time("model.frame_scan", || scan_frames(&wal_bytes).0.len());
        std::hint::black_box(frames);
        scan_mb_per_s.push(wal_bytes.len() as f64 / 1e6 / secs);
        ctx.tracer.time("server.snapshot_load", || {
            std::hint::black_box(load_snapshots(&dir).len())
        });
    }
    ctx.res.samples(
        "server.wal_read_s",
        &ctx.tracer.seconds_of("server.wal_read"),
    );
    ctx.res.samples("model.frame_scan_mb_per_s", &scan_mb_per_s);
    ctx.res.samples(
        "server.snapshot_load_s",
        &ctx.tracer.seconds_of("server.snapshot_load"),
    );
    let (wal_len, snap_len) = durable_bytes(primary_dir, RELATION);
    ctx.res.exact("server.wal_bytes", wal_len as f64);
    ctx.res.point("server.snapshot_bytes", snap_len as f64, 1);

    // begin(snapshot base) + one delta per WAL record behind the snapshot:
    // what a restart and a catch-up both spend on the engine.
    let arity = inputs.w.dirty.schema().arity();
    let (Ok(wal), snaps) = (read_wal(&wal_path), load_snapshots(&dir)) else {
        return;
    };
    let snap = snaps.first();
    let decode = |rows: &Json| batch_from_json(rows, arity, 0.5).unwrap_or_default();
    let base = snap.map(|s| decode(&s.base_rows)).unwrap_or_default();
    let covered = snap.map_or(0, |s| s.seq);
    let suffix: Vec<_> = wal
        .batches
        .iter()
        .filter(|b| b.seq > covered)
        .map(|b| decode(&b.rows))
        .collect();
    for _ in 0..3 {
        ctx.tracer.next_op();
        ctx.tracer.time("core.replay_inproc", || {
            let cleaner = &inputs.tenant_cleaner;
            let mut state = cleaner.begin_empty(Phase::Full);
            for batch in std::iter::once(&base).chain(&suffix) {
                if !batch.is_empty() {
                    cleaner
                        .clean_delta(&mut state, batch)
                        .expect("logged batches fit their schema");
                }
            }
            std::hint::black_box(state.len())
        });
    }
    ctx.res.samples(
        "core.replay_inproc_s",
        &ctx.tracer.seconds_of("core.replay_inproc"),
    );
}
