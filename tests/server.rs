//! End-to-end suite for the serving daemon: an in-process `Daemon` on an
//! ephemeral port, driven by real TCP clients speaking the line-delimited
//! JSON protocol.
//!
//! Covers the scripted session lifecycle (open → ingest → check → stats
//! → close), structured error responses for malformed and misshapen
//! requests, `busy` backpressure under a tiny queue bound, graceful
//! shutdown draining queued work, and the determinism pin: concurrent
//! clients streaming disjoint batches into one relation must land on a
//! state bit-identical (values, confidences, marks, acceptance) to a
//! serial in-process clean of the same batches in server application
//! order — across shard counts {1, 4}.

use std::io::{BufRead, Write};
use std::time::Duration;

use uniclean::model::json::{relation_to_json, Json};
use uniclean::model::Tuple;
use uniclean::server::DaemonConfig;
use uniclean::Phase;

mod common;
use common::server::{
    assert_code, assert_ok, dump_rows_cost, ingest_request, obj, open_request, reference_cleaner,
    reference_for, spawn_daemon, tuples, Client, Node, BATCHES,
};

/// Run a daemon on an ephemeral port; returns its address and the thread
/// handle whose join observes the run loop's exit.
fn start_daemon(
    shards: usize,
    queue_bound: usize,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    start_daemon_with(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        shards,
        queue_bound,
        ..DaemonConfig::default()
    })
}

fn start_daemon_with(
    config: DaemonConfig,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let Node { addr, handle } = spawn_daemon(config);
    (addr, handle)
}

// ---------------------------------------------------------------------------

/// The full verb lifecycle on one relation, plus online `check` answers
/// agreeing with the engine's acceptance.
#[test]
fn scripted_session_lifecycle() {
    let (addr, handle) = start_daemon(2, 16);
    let mut c = Client::connect(addr);

    let open = c.rpc(&open_request("tran"));
    assert_ok(&open);
    assert_eq!(open.get("relation").and_then(Json::as_str), Some("tran"));
    assert_eq!(open.get("phase").and_then(Json::as_str), Some("full"));

    // Freshly opened: empty and consistent.
    let check = c.rpc(&obj(vec![
        ("op", Json::str("check")),
        ("relation", Json::str("tran")),
    ]));
    assert_ok(&check);
    assert_eq!(check.get("tuples").and_then(Json::as_usize), Some(0));
    assert_eq!(check.get("consistent").and_then(Json::as_bool), Some(true));

    // Three batches; k0 forces the MD fix B := b1 from the master.
    let rows: [[[&str; 3]; 2]; 3] = [
        [["k0", "a1", "b9"], ["k1", "a2", "b2"]],
        [["k2", "a3", "b3"], ["k0", "a1", "b8"]],
        [["k1", "a2", "b2"], ["k4", "a1", "b7"]],
    ];
    let mut total = 0;
    for batch in &rows {
        let r = c.rpc(&ingest_request("tran", batch));
        assert_ok(&r);
        assert_eq!(r.get("ingested").and_then(Json::as_usize), Some(2));
        assert_eq!(r.get("offset").and_then(Json::as_usize), Some(total));
        total += 2;
        assert_eq!(r.get("total").and_then(Json::as_usize), Some(total));
        assert_eq!(r.get("consistent").and_then(Json::as_bool), Some(true));
    }

    // Per-tuple check: every tuple accepted after full-phase cleaning,
    // agreeing with a serial in-process reference.
    let reference = reference_cleaner();
    let mut state = reference.begin_empty(Phase::Full);
    for batch in &rows {
        reference.clean_delta(&mut state, &tuples(batch)).unwrap();
    }
    for tid in 0..total {
        let r = c.rpc(&obj(vec![
            ("op", Json::str("check")),
            ("relation", Json::str("tran")),
            ("tuple", Json::Num(tid as f64)),
        ]));
        assert_ok(&r);
        assert_eq!(
            r.get("accepted").and_then(Json::as_bool),
            Some(state.is_accepted(uniclean::model::TupleId(tid as u32))),
            "tuple {tid} verdict diverged"
        );
    }

    // Out-of-range tuple: structured error carrying the valid bound.
    let r = c.rpc(&obj(vec![
        ("op", Json::str("check")),
        ("relation", Json::str("tran")),
        ("tuple", Json::Num(99.0)),
    ]));
    assert_code(&r, "bad_tuple");
    assert_eq!(r.get("tuples").and_then(Json::as_usize), Some(total));

    // Stats: shard counters plus the relation's serving history.
    let stats = c.rpc(&obj(vec![("op", Json::str("stats"))]));
    assert_ok(&stats);
    let relations = stats.get("relations").and_then(Json::as_arr).unwrap();
    assert_eq!(relations.len(), 1);
    let rel = &relations[0];
    assert_eq!(rel.get("relation").and_then(Json::as_str), Some("tran"));
    assert_eq!(rel.get("batches").and_then(Json::as_usize), Some(3));
    assert_eq!(rel.get("tuples_ingested").and_then(Json::as_usize), Some(6));
    assert_eq!(rel.get("consistent").and_then(Json::as_bool), Some(true));
    let shards = stats.get("shards").and_then(Json::as_arr).unwrap();
    assert_eq!(shards.len(), 2);
    let applied: usize = shards
        .iter()
        .map(|s| s.get("batches_applied").and_then(Json::as_usize).unwrap())
        .sum();
    assert_eq!(applied, 3, "three ingests routed through the shard pool");

    // Dump matches the reference bit-for-bit (values, cf, marks).
    let dump = c.rpc(&obj(vec![
        ("op", Json::str("dump")),
        ("relation", Json::str("tran")),
    ]));
    assert_ok(&dump);
    assert_eq!(
        dump.get("rows"),
        Some(&relation_to_json(state.repaired())),
        "dump diverged from the serial reference"
    );

    // Close, then the relation is gone.
    let close = c.rpc(&obj(vec![
        ("op", Json::str("close")),
        ("relation", Json::str("tran")),
    ]));
    assert_ok(&close);
    assert_eq!(close.get("tuples").and_then(Json::as_usize), Some(6));
    // A closed name answers `already_closed` (idempotent close) — it is
    // distinguishable from a name that never existed...
    let r = c.rpc(&ingest_request("tran", &[["k0", "a1", "b1"]]));
    assert_code(&r, "already_closed");
    assert_code(
        &c.rpc(&obj(vec![
            ("op", Json::str("close")),
            ("relation", Json::str("tran")),
        ])),
        "already_closed",
    );
    assert_code(
        &c.rpc(&obj(vec![
            ("op", Json::str("close")),
            ("relation", Json::str("never-opened")),
        ])),
        "unknown_relation",
    );
    // ...and reopening the name lifts the tombstone.
    assert_ok(&c.rpc(&open_request("tran")));
    assert_ok(&c.rpc(&ingest_request("tran", &[["k0", "a1", "b1"]])));

    assert_ok(&c.rpc(&obj(vec![("op", Json::str("shutdown"))])));
    drop(c);
    handle.join().unwrap().unwrap();
}

/// Malformed lines and misshapen requests answer with structured codes
/// on a live connection (which stays usable afterwards).
#[test]
fn structured_errors_over_the_wire() {
    let (addr, handle) = start_daemon(1, 16);
    let mut c = Client::connect(addr);

    assert_code(&c.raw("this is not json"), "malformed");
    assert_code(&c.raw("[1,2,3]"), "bad_request");
    assert_code(&c.raw(r#"{"op":"frobnicate"}"#), "unknown_op");
    assert_code(
        &c.raw(r#"{"op":"ingest","relation":"nope","rows":[]}"#),
        "unknown_relation",
    );
    assert_code(
        &c.raw(r#"{"op":"open","relation":"r","attrs":["K"],"rules":"cfd broken("}"#),
        "rule_parse",
    );
    // A CFD naming an LHS attribute twice is a parse error, not a panic.
    for lhs in ["[K, K]", "[K=x, K]", "[K=x, K=y]"] {
        let line = format!(
            r#"{{"op":"open","relation":"r","attrs":["K","C"],"rules":"cfd g: data({lhs} -> [C])"}}"#
        );
        assert_code(&c.raw(&line), "rule_parse");
    }

    assert_ok(&c.rpc(&open_request("tran")));
    // Arity mismatch inside a row: rejected at decode, state untouched.
    assert_code(
        &c.raw(r#"{"op":"ingest","relation":"tran","rows":[["k0","a1"]]}"#),
        "bad_batch",
    );
    // Confidence outside [0,1]: rejected by the cell validator.
    assert_code(
        &c.raw(r#"{"op":"ingest","relation":"tran","rows":[[["k0",1.5],"a1","b1"]]}"#),
        "bad_batch",
    );
    let check = c.rpc(&obj(vec![
        ("op", Json::str("check")),
        ("relation", Json::str("tran")),
    ]));
    assert_eq!(check.get("tuples").and_then(Json::as_usize), Some(0));
    // Double open of the same name.
    assert_code(&c.rpc(&open_request("tran")), "relation_exists");

    assert_ok(&c.rpc(&obj(vec![("op", Json::str("shutdown"))])));
    drop(c);
    handle.join().unwrap().unwrap();
}

/// With a queue bound of 1 and the single worker held busy by a large
/// batch, a second queued mutation fills the queue and a third answers
/// `busy` immediately, carrying the observed depth.
#[test]
fn backpressure_answers_busy() {
    let (addr, handle) = start_daemon(1, 1);
    let mut opener = Client::connect(addr);
    assert_ok(&opener.rpc(&open_request("tran")));

    // A batch big enough to keep the worker busy while we probe (the
    // engine clears ~3k tuples in tens of milliseconds, so hold it with
    // more). Unique keys keep the FD quiet; the constant CFD still scans
    // every tuple.
    let big: Vec<[String; 3]> = (0..25_000)
        .map(|i| [format!("u{i}"), format!("a{i}"), format!("b{i}")])
        .collect();
    let big_rows = Json::Arr(
        big.iter()
            .map(|r| Json::Arr(r.iter().map(Json::str).collect()))
            .collect(),
    );
    let big_req = obj(vec![
        ("op", Json::str("ingest")),
        ("relation", Json::str("tran")),
        ("rows", big_rows),
    ]);

    let mut saw_busy = false;
    for _ in 0..5 {
        let mut holder = Client::connect(addr);
        let mut filler = Client::connect(addr);
        let mut prober = Client::connect(addr);
        // holder's batch occupies the worker...
        holder.send_only(&big_req);
        std::thread::sleep(Duration::from_millis(60));
        // ...filler's small batch occupies the queue's single slot...
        filler.send_only(&ingest_request("tran", &[["k0", "a1", "b1"]]));
        std::thread::sleep(Duration::from_millis(10));
        // ...so the third ingest must be told `busy` (answered
        // immediately). Scheduling decides *which* client that is — under
        // load the holder's large request can parse last and itself take
        // the rejection — so accept the busy from any of the three.
        let responses = [
            prober.rpc(&ingest_request("tran", &[["k1", "a2", "b2"]])),
            holder.read_response(),
            filler.read_response(),
        ];
        for resp in &responses {
            if resp.get("code").and_then(Json::as_str) == Some("busy") {
                assert_eq!(resp.get("queue_bound").and_then(Json::as_usize), Some(1));
                assert!(
                    resp.get("queue_depth").and_then(Json::as_usize).is_some(),
                    "{resp}"
                );
                saw_busy = true;
            } else {
                // Accepted requests complete; the worker may have outrun
                // us entirely (tiny machine hiccup) — then retry the
                // pattern.
                assert_ok(resp);
            }
        }
        if saw_busy {
            break;
        }
    }
    assert!(saw_busy, "never observed busy under a held worker");

    // The busy rejection is visible in shard stats.
    let stats = opener.rpc(&obj(vec![("op", Json::str("stats"))]));
    let shard0 = &stats.get("shards").and_then(Json::as_arr).unwrap()[0];
    assert!(
        shard0
            .get("busy_rejections")
            .and_then(Json::as_usize)
            .unwrap()
            >= 1
    );

    assert_ok(&opener.rpc(&obj(vec![("op", Json::str("shutdown"))])));
    drop(opener);
    handle.join().unwrap().unwrap();
}

/// Shutdown is graceful: work already queued is applied and answered
/// before the daemon exits, and post-shutdown mutations are refused.
#[test]
fn shutdown_drains_queued_work() {
    let (addr, handle) = start_daemon(1, 8);
    let mut c = Client::connect(addr);
    assert_ok(&c.rpc(&open_request("tran")));

    // Hold the worker, queue a small batch behind it.
    let big: Vec<[String; 3]> = (0..50_000)
        .map(|i| [format!("u{i}"), format!("a{i}"), format!("b{i}")])
        .collect();
    let mut holder = Client::connect(addr);
    holder.send_only(&obj(vec![
        ("op", Json::str("ingest")),
        ("relation", Json::str("tran")),
        (
            "rows",
            Json::Arr(
                big.iter()
                    .map(|r| Json::Arr(r.iter().map(Json::str).collect()))
                    .collect(),
            ),
        ),
    ]));
    // Wait until the big batch is in flight (its connection thread first
    // has to read and decode the ~MB request line), then queue a small
    // batch behind it and confirm both are pending before the plug.
    let shard_depth = |c: &mut Client| {
        let stats = c.rpc(&obj(vec![("op", Json::str("stats"))]));
        stats.get("shards").and_then(Json::as_arr).unwrap()[0]
            .get("queue_depth")
            .and_then(Json::as_usize)
            .unwrap()
    };
    for attempt in 0.. {
        if shard_depth(&mut c) >= 1 {
            break;
        }
        assert!(attempt < 2000, "big ingest never reached the shard");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut queued = Client::connect(addr);
    queued.send_only(&ingest_request("tran", &[["k0", "a1", "b1"]]));
    for attempt in 0.. {
        if shard_depth(&mut c) >= 2 {
            break;
        }
        assert!(
            attempt < 2000,
            "small ingest never queued behind the big one"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Shutdown while both are outstanding.
    assert_ok(&c.rpc(&obj(vec![("op", Json::str("shutdown"))])));
    // New mutations are refused once shutdown begins.
    assert_code(
        &c.rpc(&ingest_request("tran", &[["k1", "a2", "b2"]])),
        "shutting_down",
    );

    // The in-flight and queued batches still complete and answer.
    assert_ok(&holder.read_response());
    let drained = queued.read_response();
    assert_ok(&drained);
    assert_eq!(drained.get("total").and_then(Json::as_usize), Some(50_001));

    drop((c, holder, queued));
    handle.join().unwrap().unwrap();
}

/// The determinism pin: concurrent clients streaming disjoint batches
/// into one relation land on a state bit-identical to a serial
/// in-process clean of the same batches in server application order
/// (recovered from the `offset` each ingest reply carries) — across
/// shard counts.
#[test]
fn concurrent_ingest_is_bit_deterministic() {
    // Disjoint four-way split of a workload that exercises all rules:
    // shared keys (FD groups), a1 tuples (constant CFD), k0/k1 (MD hits).
    let client_batches: [Vec<[&str; 3]>; 4] = [
        vec![["k0", "a1", "b9"], ["k1", "a2", "b2"], ["k2", "a1", "b3"]],
        vec![["k0", "a1", "b8"], ["k3", "a4", "b4"]],
        vec![["k1", "a2", "b5"], ["k5", "a1", "b1"], ["k0", "a9", "b9"]],
        vec![["k6", "a6", "b6"], ["k2", "a1", "b2"]],
    ];

    for shards in [1usize, 4] {
        let label = format!("shards={shards}");
        let (addr, handle) = start_daemon(shards, 64);
        let mut c = Client::connect(addr);
        assert_ok(&c.rpc(&open_request("tran")));

        // Each client ingests its batch concurrently; the reply's
        // offset reveals the order the shard serialized them in.
        let mut joins = Vec::new();
        for batch in &client_batches {
            let batch: Vec<[String; 3]> = batch.iter().map(|r| r.map(str::to_string)).collect();
            joins.push(std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let rows: Vec<[&str; 3]> = batch
                    .iter()
                    .map(|r| [r[0].as_str(), r[1].as_str(), r[2].as_str()])
                    .collect();
                let resp = client.rpc(&ingest_request("tran", &rows));
                let offset = resp.get("offset").and_then(Json::as_usize);
                (
                    offset,
                    rows.iter()
                        .map(|r| r.map(str::to_string))
                        .collect::<Vec<_>>(),
                    resp,
                )
            }));
        }
        let mut applied: Vec<(usize, Vec<[String; 3]>)> = joins
            .into_iter()
            .map(|j| {
                let (offset, rows, resp) = j.join().unwrap();
                assert_ok(&resp);
                (offset.expect("ingest reply carries offset"), rows)
            })
            .collect();
        applied.sort_by_key(|(offset, _)| *offset);

        // Serial reference: the same batches, same order, in process.
        let reference = reference_cleaner();
        let mut state = reference.begin_empty(Phase::Full);
        for (_, rows) in &applied {
            let batch: Vec<Tuple> = rows
                .iter()
                .map(|r| Tuple::of_strs(&[&r[0], &r[1], &r[2]], 0.5))
                .collect();
            reference.clean_delta(&mut state, &batch).unwrap();
        }

        let dump = c.rpc(&obj(vec![
            ("op", Json::str("dump")),
            ("relation", Json::str("tran")),
        ]));
        assert_ok(&dump);
        assert_eq!(
            dump.get("rows"),
            Some(&relation_to_json(state.repaired())),
            "{label}: served state diverged from serial reference"
        );
        assert_eq!(
            dump.get("cost").and_then(Json::as_f64),
            Some(state.cost()),
            "{label}: cost diverged"
        );

        // Check verdicts agree tuple by tuple.
        for tid in 0..state.len() {
            let r = c.rpc(&obj(vec![
                ("op", Json::str("check")),
                ("relation", Json::str("tran")),
                ("tuple", Json::Num(tid as f64)),
            ]));
            assert_eq!(
                r.get("accepted").and_then(Json::as_bool),
                Some(state.is_accepted(uniclean::model::TupleId(tid as u32))),
                "{label}: tuple {tid} verdict diverged"
            );
        }

        assert_ok(&c.rpc(&obj(vec![("op", Json::str("shutdown"))])));
        drop(c);
        handle.join().unwrap().unwrap();
    }
}

/// A clean runs on one engine thread, so `open`'s `threads` member is
/// ignored: tenants opened with and without it serve identical dumps. It
/// is still validated — logs written by older builds carry it.
#[test]
fn open_ignores_threads_but_validates_it() {
    let (addr, handle) = start_daemon(2, 16);
    let mut c = Client::connect(addr);
    let with_threads = |relation: &str, threads: Json| {
        let Json::Obj(mut pairs) = open_request(relation) else {
            unreachable!("an open request is an object")
        };
        pairs.push(("threads".to_string(), threads));
        Json::Obj(pairs)
    };
    assert_ok(&c.rpc(&open_request("plain")));
    assert_ok(&c.rpc(&with_threads("four", Json::Num(4.0))));
    assert_code(&c.rpc(&with_threads("zero", Json::Num(0.0))), "bad_request");
    assert_code(
        &c.rpc(&ingest_request("zero", BATCHES[0])),
        "unknown_relation",
    );
    for batch in BATCHES {
        for relation in ["plain", "four"] {
            assert_ok(&c.rpc(&ingest_request(relation, batch)));
        }
    }
    let plain = dump_rows_cost(&mut c, "plain");
    assert_eq!(plain, dump_rows_cost(&mut c, "four"));
    assert_eq!(plain, reference_for(&[0, 1, 2, 3]));

    assert_ok(&c.rpc(&obj(vec![("op", Json::str("shutdown"))])));
    drop(c);
    handle.join().unwrap().unwrap();
}

/// Distinct relations land on distinct shards (when the hash says so)
/// and serve independently.
#[test]
fn relations_shard_independently() {
    let (addr, handle) = start_daemon(4, 16);
    let mut c = Client::connect(addr);

    // Pick three names placed on at least two distinct shards.
    let names = ["alpha", "beta", "gamma"];
    let mut seen_shards = std::collections::HashSet::new();
    for name in names {
        let open = c.rpc(&open_request(name));
        assert_ok(&open);
        let shard = open.get("shard").and_then(Json::as_usize).unwrap();
        assert_eq!(shard, uniclean::server::shard_for(name, 4));
        seen_shards.insert(shard);
        let r = c.rpc(&ingest_request(name, &[["k0", "a1", "b9"]]));
        assert_ok(&r);
    }
    assert!(seen_shards.len() >= 2, "want some spread: {seen_shards:?}");

    let stats = c.rpc(&obj(vec![("op", Json::str("stats"))]));
    let relations = stats.get("relations").and_then(Json::as_arr).unwrap();
    assert_eq!(relations.len(), 3);
    // Sorted by name for deterministic output.
    let listed: Vec<_> = relations
        .iter()
        .map(|r| r.get("relation").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(listed, ["alpha", "beta", "gamma"]);
    // Narrowed stats.
    let one = c.rpc(&obj(vec![
        ("op", Json::str("stats")),
        ("relation", Json::str("beta")),
    ]));
    assert_eq!(
        one.get("relations")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(1)
    );

    assert_ok(&c.rpc(&obj(vec![("op", Json::str("shutdown"))])));
    drop(c);
    handle.join().unwrap().unwrap();
}

/// `ping` (and its `health` alias) answer liveness without touching any
/// tenant: uptime, relation/shard counts, durability and shutdown state.
#[test]
fn ping_reports_health() {
    let (addr, handle) = start_daemon(2, 16);
    let mut c = Client::connect(addr);
    assert_ok(&c.rpc(&open_request("tran")));

    for op in ["ping", "health"] {
        let r = c.rpc(&obj(vec![("op", Json::str(op))]));
        assert_ok(&r);
        assert!(
            r.get("uptime_seconds").and_then(Json::as_f64).unwrap() >= 0.0,
            "{r}"
        );
        assert_eq!(r.get("relations").and_then(Json::as_usize), Some(1));
        assert_eq!(r.get("shards").and_then(Json::as_usize), Some(2));
        assert_eq!(r.get("durable").and_then(Json::as_bool), Some(false));
        assert_eq!(r.get("shutting_down").and_then(Json::as_bool), Some(false));
        // The similarity kernel dispatch line, for fleet-wide visibility of
        // which SIMD level each box actually runs.
        let kernels = r.get("kernels").and_then(Json::as_str).unwrap();
        assert!(
            kernels.contains("gram-hash=") && kernels.contains("lev-driver="),
            "{kernels}"
        );
        // Memory-only daemon: no recovery ran.
        assert_eq!(r.get("recovery"), Some(&Json::Null));
    }

    assert_ok(&c.rpc(&obj(vec![("op", Json::str("shutdown"))])));
    drop(c);
    handle.join().unwrap().unwrap();
}

/// Exactly one shutdown wins; a second request (pipelined in the same
/// segment, so the connection is still being read) answers a structured
/// `shutting_down` error instead of a duplicate drain.
#[test]
fn shutdown_is_idempotent() {
    let (addr, handle) = start_daemon(1, 8);
    let mut c = Client::connect(addr);
    // One write puts both lines in the reader's buffer together, so the
    // second is dispatched before shutdown tears the connection down.
    c.writer
        .write_all(b"{\"op\":\"shutdown\"}\n{\"op\":\"shutdown\"}\n")
        .unwrap();
    c.writer.flush().unwrap();
    assert_ok(&c.read_response());
    assert_code(&c.read_response(), "shutting_down");
    drop(c);
    handle.join().unwrap().unwrap();
}

/// A request line over the configured byte bound answers a structured
/// `line_too_long` error and drops the connection (framing is lost), with
/// bounded memory and the daemon still serving.
#[test]
fn oversized_lines_are_rejected_with_bounded_memory() {
    let (addr, handle) = start_daemon_with(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 1,
        queue_bound: 8,
        max_line_bytes: 4096,
        ..DaemonConfig::default()
    });
    let mut c = Client::connect(addr);
    let huge = format!(
        "{{\"op\":\"ingest\",\"relation\":\"tran\",\"rows\":[{}]}}",
        "1,".repeat(8192)
    );
    let r = c.raw(&huge);
    assert_code(&r, "line_too_long");
    assert_eq!(r.get("max_line_bytes").and_then(Json::as_usize), Some(4096));
    // The connection is closed after the error (EOF, or a reset if the
    // daemon dropped the socket with our excess bytes still unread)...
    let mut line = String::new();
    match c.reader.read_line(&mut line) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("expected a closed connection, read {n} more bytes"),
    }
    // ...but the daemon still serves new connections.
    let mut c2 = Client::connect(addr);
    assert_ok(&c2.rpc(&obj(vec![("op", Json::str("ping"))])));
    assert_ok(&c2.rpc(&obj(vec![("op", Json::str("shutdown"))])));
    drop((c, c2));
    handle.join().unwrap().unwrap();
}
