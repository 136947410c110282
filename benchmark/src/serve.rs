//! The service user's path: a durable child daemon driven over TCP through
//! `uniclean-client`, closed loop (every caller of the client blocks on its
//! reply), one writer and at most one reader.
//!
//! Stage A times `ingest` sent → ack parsed on a tenant that grows from the
//! preloaded base, so the O(|D|)-per-batch floor shows as p95 above p50.
//! Stage B keeps writing while a second connection checks tuples. Stage C
//! reads a quiet tenant. The work is fixed and cut into [`Step`]s that the
//! run interleaves with the other stages. The traced run replays the same
//! batches in process to split an ack into its layers.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use uniclean_client::{Client, ClientError};
use uniclean_core::{Phase, PhaseObserver, PhaseStats, RepairState};
use uniclean_model::json::{batch_from_json, relation_to_json};
use uniclean_model::{Json, Relation, TupleId};
use uniclean_server::protocol::parse_request;
use uniclean_server::snapshot::{self, load_snapshots};
use uniclean_server::tenant_dir_name;
use uniclean_server::wal::{batch_record, WalWriter, WAL_FILE};

use crate::child::{client_config, Daemon};
use crate::inputs::{open_spec, Inputs, ServeStream};
use crate::stats::{median, percentile_with_ten_beyond, slope};
use crate::trace::Tracer;
use crate::{fingerprint_json, Ctx};

/// The tenant every serve stage talks to.
pub const RELATION: &str = "serve";

/// Stage B's reader pauses this long between an answer and its next check.
const READ_PAUSE: Duration = Duration::from_millis(2);

/// The per-tuple `check` request (the client crate wraps only the
/// relation-level one).
pub fn check_tuple_request(relation: &str, tuple: usize) -> Json {
    Json::Obj(vec![
        ("op".into(), Json::str("check")),
        ("relation".into(), Json::str(relation)),
        ("tuple".into(), Json::Num(tuple as f64)),
    ])
}

/// Bytes under a tenant's directory that durability costs: the WAL and
/// both snapshot generations.
pub fn durable_bytes(data_dir: &Path, relation: &str) -> (u64, u64) {
    let dir = data_dir.join(tenant_dir_name(relation));
    let len = |f: &str| std::fs::metadata(dir.join(f)).map_or(0, |m| m.len());
    (
        len(WAL_FILE),
        len(snapshot::SNAP_FILE) + len(snapshot::SNAP_PREV),
    )
}

/// Open the tenant and preload its base: the tail of set-up.
pub fn open_and_preload(
    inputs: &Inputs,
    client: &mut Client,
    stream: &ServeStream,
) -> Result<(), ClientError> {
    client.open(open_spec(&inputs.w, RELATION))?;
    for rows in &stream.preload {
        client.ingest(RELATION, rows.clone())?;
    }
    Ok(())
}

/// One unit of serve-stage work; the run interleaves them with the other
/// stages so that each metric's samples span the whole run.
#[derive(Clone, Copy)]
enum Step {
    /// Stage A: `timed[from..to]`, one closed-loop writer.
    Write(usize, usize),
    /// Stage B: `busy[from..to]` beside a reader on a second connection.
    WriteBesideReader(usize, usize),
    /// Stage C: per-tuple checks `from..to`, plus a share of the relation
    /// checks and dumps, on the quiet tenant.
    Read(usize, usize),
}

/// The serve stage against one daemon and its preloaded tenant.
pub struct Serve<'a> {
    daemon: &'a Daemon,
    data_dir: &'a Path,
    stream: &'a ServeStream,
    client: Client,
    steps: std::vec::IntoIter<Step>,
    /// An in-process clean of everything the tenant will hold, kept as a
    /// state so per-tuple verdicts can be checked too.
    expected: RepairState,
    expected_dump: u64,
    rss_after_preload: f64,
    ack_ms: Vec<f64>,
    replies: Vec<Json>,
    busy_ms: Vec<f64>,
    idle_us: Vec<f64>,
    dump_s: Vec<f64>,
    dump_bytes: usize,
    stats: Option<Json>,
}

/// `0..n` cut into `parts` nearly equal ranges.
fn cut(n: usize, parts: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..parts).map(move |i| (n * i / parts, n * (i + 1) / parts))
}

impl<'a> Serve<'a> {
    pub fn new(
        ctx: &mut Ctx,
        daemon: &'a Daemon,
        data_dir: &'a Path,
        stream: &'a ServeStream,
    ) -> Serve<'a> {
        let plan = ctx.plan;
        let concatenated = Relation::new(
            ctx.inputs.w.dirty.schema().clone(),
            ctx.inputs.rows[..plan.serve_total()].to_vec(),
        );
        let (expected, result) = ctx.inputs.tenant_cleaner.begin(&concatenated, Phase::Full);
        // Stage B is three seconds of work in all: in five slices, rounds
        // apart, a slow few seconds of the machine cover one of them.
        let steps: Vec<Step> = cut(plan.batches, 5)
            .map(|(a, b)| Step::Write(a, b))
            .chain(cut(plan.busy_batches, 5).map(|(a, b)| Step::WriteBesideReader(a, b)))
            .chain(cut(plan.checks, 2).map(|(a, b)| Step::Read(a, b)))
            .collect();
        Serve {
            daemon,
            data_dir,
            stream,
            client: daemon.client(),
            steps: steps.into_iter(),
            expected,
            expected_dump: fingerprint_json(&relation_to_json(&result.repaired)),
            rss_after_preload: daemon.rss_mb().0,
            ack_ms: Vec::new(),
            replies: Vec::new(),
            busy_ms: Vec::new(),
            idle_us: Vec::new(),
            dump_s: Vec::new(),
            dump_bytes: 0,
            stats: None,
        }
    }

    /// Send one batch and count it; returns the ack latency in seconds and
    /// the reply, or `None` when the daemon refused or failed it.
    fn ingest(&mut self, ctx: &mut Ctx, rows: &Json) -> Option<(f64, Json)> {
        let rows = rows.clone();
        ctx.tracer.next_op();
        let (reply, secs) = ctx
            .tracer
            .time("client.ingest", || self.client.ingest(RELATION, rows));
        let fresh = |r: &Json| r.get("deduped").and_then(Json::as_bool) != Some(true);
        let ok = reply.as_ref().is_ok_and(fresh);
        ctx.res
            .op(ok, || format!("ingest failed: {:?}", reply.as_ref().err()));
        reply.ok().filter(|_| ok).map(|r| (secs, r))
    }

    /// Do the next unit of work; `false` once the stage is complete.
    pub fn step(&mut self, ctx: &mut Ctx) -> bool {
        let Some(step) = self.steps.next() else {
            return false;
        };
        match step {
            Step::Write(from, to) => {
                for rows in &self.stream.timed[from..to] {
                    if let Some((secs, reply)) = self.ingest(ctx, rows) {
                        self.ack_ms.push(secs * 1e3);
                        self.replies.push(reply);
                    }
                }
            }
            Step::WriteBesideReader(from, to) => {
                self.write_beside_reader(ctx, from, to);
                if to == ctx.plan.busy_batches {
                    self.account(ctx);
                }
            }
            Step::Read(from, to) => self.read(ctx, from, to),
        }
        true
    }

    /// The writer keeps going while a second connection checks tuples,
    /// closed loop like every caller of the client, pausing `READ_PAUSE`
    /// after each answer. Without the pause the checks pile into the short
    /// gaps between two deltas and the median reads as idle; with it each
    /// check arrives while a delta holds the tenant and waits out the rest
    /// of it, which is what a reader beside a writer sees.
    fn write_beside_reader(&mut self, ctx: &mut Ctx, from: usize, to: usize) {
        let plan = ctx.plan;
        let tuples_before = plan.serve_base + plan.batches * plan.batch_tuples;
        let addr = &self.daemon.addr;
        let asked = self.busy_ms.len();
        let writing = AtomicBool::new(true);
        let ready = Barrier::new(2);
        let (lat_ms, failed) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut reader = Client::new(client_config(addr));
                let warm = reader.request_retried(&check_tuple_request(RELATION, 0));
                ready.wait();
                let (mut lat_ms, mut failed) = (Vec::new(), warm.is_err() as u64);
                while writing.load(Ordering::SeqCst) {
                    std::thread::sleep(READ_PAUSE);
                    let tuple = ((asked + lat_ms.len()) * 7) % tuples_before;
                    let t0 = Instant::now();
                    let r = reader.request_retried(&check_tuple_request(RELATION, tuple));
                    lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    failed += r.is_err() as u64;
                }
                (lat_ms, failed)
            });
            ready.wait();
            for rows in &self.stream.busy[from..to] {
                self.ingest(ctx, rows);
            }
            writing.store(false, Ordering::SeqCst);
            reader.join().expect("reader thread panicked")
        });
        ctx.res.attempted += lat_ms.len() as u64 + 1;
        if failed > 0 {
            ctx.res.failed += failed;
            ctx.res
                .problems
                .push(format!("{failed} checks beside the writer failed"));
        }
        self.busy_ms.extend(lat_ms);
    }

    /// Once the writer is done: the daemon's counters and its durability
    /// cost — exact with one writer: bytes on disk per byte of ingest
    /// request sent.
    fn account(&mut self, ctx: &mut Ctx) {
        let stats = self.client.stats_verb(None);
        ctx.res
            .op(stats.is_ok(), || format!("stats failed: {stats:?}"));
        self.stats = stats.ok();
        let user_bytes: usize = self
            .stream
            .request_lines(RELATION)
            .iter()
            .map(|l| l.len() + 1)
            .sum();
        let (wal_bytes, snap_bytes) = durable_bytes(self.data_dir, RELATION);
        // A snapshot stores the tenant's phase seconds, the only bytes that
        // differ between two runs on one seed; their digits are left out so
        // that the ratio repeats exactly.
        let clock_bytes: usize = load_snapshots(&self.data_dir.join(tenant_dir_name(RELATION)))
            .iter()
            .flat_map(|snap| snap.phase_seconds)
            .map(|secs| Json::Num(secs).render().len())
            .sum();
        ctx.res.exact(
            "wal_bytes_per_user_byte",
            (wal_bytes + snap_bytes - clock_bytes as u64) as f64 / user_bytes as f64,
        );
    }

    /// Reads on the quiet tenant, each answer checked.
    fn read(&mut self, ctx: &mut Ctx, from: usize, to: usize) {
        let plan = ctx.plan;
        let total = plan.serve_total();
        for i in from..to {
            let tuple = (i * 7) % total;
            ctx.tracer.next_op();
            let (r, secs) = ctx.tracer.time("client.check", || {
                self.client
                    .request_retried(&check_tuple_request(RELATION, tuple))
            });
            self.idle_us.push(secs * 1e6);
            let right = r.as_ref().is_ok_and(|r| {
                r.get("accepted").and_then(Json::as_bool)
                    == Some(self.expected.is_accepted(TupleId::from(tuple)))
            });
            ctx.res
                .op(right, || format!("check of tuple {tuple} answered {r:?}"));
        }
        let share = |n: usize| n * to / plan.checks - n * from / plan.checks;
        for _ in 0..share(plan.relation_checks) {
            let r = self.client.check(RELATION);
            let right = r.as_ref().is_ok_and(|r| {
                r.get("tuples").and_then(Json::as_usize) == Some(total)
                    && r.get("consistent").and_then(Json::as_bool)
                        == Some(self.expected.consistent())
            });
            ctx.res
                .op(right, || format!("relation check answered {r:?}"));
        }
        for _ in 0..share(plan.dumps) {
            ctx.tracer.next_op();
            let (r, secs) = ctx
                .tracer
                .time("client.dump", || self.client.dump(RELATION));
            self.dump_s.push(secs);
            self.dump_bytes = r.as_ref().map_or(0, |r| r.render().len());
            let rows = r.as_ref().ok().and_then(|r| r.get("rows"));
            let right = rows.is_some_and(|rows| fingerprint_json(rows) == self.expected_dump);
            ctx.res.op(right, || {
                "the daemon's dump differs from an in-process clean of the same input".into()
            });
        }
    }

    pub fn finish(mut self, ctx: &mut Ctx) {
        ctx.res.samples("ingest_ack_p50_ms", &self.ack_ms);
        ctx.res.samples("check_busy_p50_ms", &self.busy_ms);
        ctx.res.samples("check_idle_p50_us", &self.idle_us);
        ctx.res
            .point("daemon_peak_rss_mb", self.daemon.rss_mb().1, 1);
        // Tails: reported where ten samples lie beyond them, but they do not
        // repeat within any bound on this sandbox, so they carry none.
        if let Some(p95) = percentile_with_ten_beyond(&self.ack_ms, 95.0) {
            ctx.res.point("ingest_ack_p95_ms", p95, self.ack_ms.len());
        }
        if let Some(p99) = percentile_with_ten_beyond(&self.idle_us, 99.0) {
            ctx.res.point("check_idle_p99_us", p99, self.idle_us.len());
        }
        if ctx.tracer.enabled() {
            report_layers(ctx, &mut self);
        }
    }
}

/// Phase callbacks of a delta call as span edges. An escalating call
/// starts cRepair twice (the aborted continuation has no matching end), so
/// a start closes whatever phase is still open.
struct DeltaObserver<'a> {
    tracer: &'a mut Tracer,
    open: bool,
}

impl PhaseObserver for DeltaObserver<'_> {
    fn on_phase_start(&mut self, phase: Phase) {
        if self.open {
            self.tracer.end();
        }
        self.open = true;
        self.tracer.begin(
            [
                "core.delta_crepair",
                "core.delta_erepair",
                "core.delta_hrepair",
            ][phase.index()],
        );
    }
    fn on_phase_end(&mut self, _stats: &PhaseStats) {
        self.open = false;
        self.tracer.end();
    }
}

/// One in-process `clean_delta_observed` under a `core.delta` span;
/// returns its wall seconds.
pub fn traced_delta(
    tracer: &mut Tracer,
    cleaner: &uniclean_core::Cleaner,
    state: &mut RepairState,
    batch: &[uniclean_model::Tuple],
) -> f64 {
    tracer.next_op();
    tracer.begin("core.delta");
    let t0 = Instant::now();
    let mut observer = DeltaObserver {
        tracer: &mut *tracer,
        open: false,
    };
    cleaner
        .clean_delta_observed(state, batch, &mut observer)
        .expect("a generated batch always fits its own schema");
    let secs = t0.elapsed().as_secs_f64();
    tracer.end();
    secs
}

/// Microseconds of every span called `name`.
fn micros_of(tracer: &Tracer, name: &str) -> Vec<f64> {
    tracer.seconds_of(name).iter().map(|s| s * 1e6).collect()
}

fn report_layers(ctx: &mut Ctx, served: &mut Serve) {
    // The floor of every served latency.
    for _ in 0..200 {
        let (r, _) = ctx.tracer.time("client.ping", || served.client.ping());
        ctx.res.op(r.is_ok(), || format!("ping failed: {r:?}"));
    }
    ctx.res
        .samples("client.ping_rtt_us", &micros_of(ctx.tracer, "client.ping"));

    let codecs_us = price_codecs(ctx, served);
    let replay = replay_deltas(ctx);
    let wal_us = price_wal(ctx, served);

    // An ack, step by step in ack order; what the wire adds on top is TCP,
    // the connection thread and the shard-queue handoff.
    let inproc_ms = (codecs_us + wal_us) / 1e3 + replay.delta_median_s * 1e3;
    ctx.res.point("server.ack_inproc_ms", inproc_ms, 1);
    ctx.res.point(
        "server.wire_queue_ms",
        median(&served.ack_ms) - inproc_ms,
        1,
    );

    // The daemon's own counters after stage B, against the replay.
    let stats = served.stats.as_ref();
    let first = |key: &str| {
        stats
            .and_then(|s| s.get(key))
            .and_then(Json::as_arr)
            .and_then(|a| a.first())
    };
    let daemon_phase: Vec<f64> = first("relations")
        .and_then(|r| r.get("phase_seconds"))
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    if let [c, e, h] = daemon_phase[..] {
        ctx.res.point("server.stats_phase_c_s", c, 1);
        ctx.res.point("server.stats_phase_e_s", e, 1);
        ctx.res.point("server.stats_phase_h_s", h, 1);
        ctx.res.residual(
            "server.stats_vs_replay_ratio",
            (c + e + h) / replay.phases_total_s,
            0.9..=1.1,
        );
    }
    let shard_count = |key: &str| {
        first("shards")
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    ctx.res
        .point("server.queue_depth_max", shard_count("max_depth"), 1);
    ctx.res
        .point("server.busy_rejections", shard_count("busy_rejections"), 1);
    ctx.res.samples("server.dump_s", &served.dump_s);
    ctx.res.exact("server.dump_bytes", served.dump_bytes as f64);
    ctx.res
        .point("server.rss_after_preload_mb", served.rss_after_preload, 1);
}

/// The request and reply codecs on the exact lines of stage A. Returns the
/// microseconds an ack spends in them: `parse_request` (which contains the
/// JSON parse), the batch decode and the reply render, as medians.
fn price_codecs(ctx: &mut Ctx, served: &Serve) -> f64 {
    let plan = ctx.plan;
    let arity = ctx.inputs.w.dirty.schema().arity();
    let lines = served.stream.request_lines(RELATION);
    let timed_lines = &lines[plan.preload_batches..plan.preload_batches + plan.batches];
    for (line, rows) in timed_lines.iter().zip(&served.stream.timed) {
        ctx.tracer.time("model.json_parse", || {
            std::hint::black_box(Json::parse(line).is_ok())
        });
        ctx.tracer.time("server.parse_request", || {
            std::hint::black_box(parse_request(line).is_ok())
        });
        ctx.tracer.time("model.batch_decode", || {
            std::hint::black_box(batch_from_json(rows, arity, 0.5).is_ok())
        });
    }
    for reply in &served.replies {
        ctx.tracer.time("model.json_render", || {
            std::hint::black_box(reply.render().len())
        });
    }
    let mut in_an_ack = 0.0;
    for (metric, span, counts) in [
        ("model.json_parse_ingest_us", "model.json_parse", false),
        ("server.parse_request_us", "server.parse_request", true),
        ("model.batch_decode_us", "model.batch_decode", true),
        ("model.json_render_reply_us", "model.json_render", true),
    ] {
        let us = micros_of(ctx.tracer, span);
        ctx.res.samples(metric, &us);
        if counts {
            in_an_ack += median(&us);
        }
    }
    in_an_ack
}

/// What the in-process replay hands to the ack sum and the cross-check.
struct Replay {
    /// Median wall seconds of a stage-A delta.
    delta_median_s: f64,
    /// Phase seconds summed over every batch the daemon applied too.
    phases_total_s: f64,
}

/// The engine under the same batches: `begin(base)`, then every batch the
/// daemon applied, with the daemon's batch boundaries; then reads on the
/// state that leaves.
fn replay_deltas(ctx: &mut Ctx) -> Replay {
    let plan = ctx.plan;
    let inputs = ctx.inputs;
    let cleaner = &inputs.tenant_cleaner;
    let base = Relation::new(
        inputs.w.dirty.schema().clone(),
        inputs.rows[..plan.serve_base].to_vec(),
    );
    for _ in 0..3 {
        ctx.tracer.time("core.begin", || {
            std::hint::black_box(cleaner.begin(&base, Phase::Full))
        });
    }
    ctx.res
        .samples("core.begin_s", &ctx.tracer.seconds_of("core.begin"));

    let mut state = cleaner.begin_empty(Phase::Full);
    let per = plan.serve_base / plan.preload_batches;
    for chunk in inputs.rows[..plan.serve_base].chunks(per) {
        traced_delta(ctx.tracer, cleaner, &mut state, chunk);
    }
    let (mut delta_s, mut base_k) = (Vec::new(), Vec::new());
    let batches = plan.batches + plan.busy_batches;
    for i in 0..batches {
        let from = plan.serve_base + i * plan.batch_tuples;
        base_k.push(state.len() as f64 / 1000.0);
        let batch = &inputs.rows[from..from + plan.batch_tuples];
        delta_s.push(traced_delta(ctx.tracer, cleaner, &mut state, batch));
    }
    let timed = ..plan.batches;
    ctx.res.samples("core.delta_s", &delta_s[timed]);
    let (mut phases_median_s, mut phases_total_s) = (0.0, 0.0);
    for (metric, span) in [
        ("core.delta_crepair_s", "core.delta_crepair"),
        ("core.delta_erepair_s", "core.delta_erepair"),
        ("core.delta_hrepair_s", "core.delta_hrepair"),
    ] {
        let all = ctx.tracer.seconds_of(span);
        // The preload deltas come first; the metric is about the rest.
        let streamed = &all[all.len().saturating_sub(batches)..];
        ctx.res.samples(metric, streamed);
        phases_median_s += median(streamed);
        phases_total_s += all.iter().sum::<f64>();
    }
    let delta_median_s = median(&delta_s[timed]);
    ctx.res.point(
        "core.delta_unattributed_s",
        delta_median_s - phases_median_s,
        1,
    );
    ctx.res
        .exact("core.delta_escalations", state.escalations() as f64);
    ctx.res.point(
        "core.delta_s_per_base_ktuple",
        slope(&base_k[timed], &delta_s[timed]),
        1,
    );

    let (mut accepted_ns, mut violations_us) = (Vec::new(), Vec::new());
    for i in 0..2000.min(state.len()) {
        let tid = TupleId::from((i * 7) % state.len());
        let t0 = Instant::now();
        std::hint::black_box(state.is_accepted(tid));
        accepted_ns.push(t0.elapsed().as_secs_f64() * 1e9);
        let t0 = Instant::now();
        std::hint::black_box(state.violations(tid));
        violations_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    ctx.res.samples("core.is_accepted_ns", &accepted_ns);
    ctx.res.samples("core.violations_us", &violations_us);
    Replay {
        delta_median_s,
        phases_total_s,
    }
}

/// The WAL append of stage A's records with fsync off, then on; fsync is
/// the difference of the medians. Returns the microseconds an ack spends
/// here (append + fsync).
fn price_wal(ctx: &mut Ctx, served: &Serve) -> f64 {
    let plan = ctx.plan;
    let wal_dir = served.data_dir.join("wal-probe");
    let _ = std::fs::create_dir_all(&wal_dir);
    let path = wal_dir.join(WAL_FILE);
    for (fsync, span) in [
        (false, "server.wal_append"),
        (true, "server.wal_append_fsync"),
    ] {
        let mut wal = WalWriter::create(&path, fsync).expect("scratch dir is writable");
        for (i, rows) in served.stream.timed.iter().enumerate() {
            let seq = (plan.preload_batches + i + 1) as u64;
            let record = batch_record(seq, rows.clone(), Some(seq), None);
            let (r, _) = ctx.tracer.time(span, || wal.append(&record));
            r.expect("scratch dir is writable");
        }
    }
    let wal_len = std::fs::metadata(&path).map_or(0, |m| m.len());
    let _ = std::fs::remove_dir_all(&wal_dir);
    let append_us = micros_of(ctx.tracer, "server.wal_append");
    let synced_us = micros_of(ctx.tracer, "server.wal_append_fsync");
    let fsync_us = (median(&synced_us) - median(&append_us)).max(0.0);
    ctx.res.samples("server.wal_append_us", &append_us);
    ctx.res
        .point("server.wal_fsync_us", fsync_us, synced_us.len());
    ctx.res.exact(
        "server.wal_bytes_per_batch",
        wal_len as f64 / plan.batches as f64,
    );
    median(&append_us) + fsync_us
}
