//! Replication and failover suite: a standby tails the primary's WAL
//! stream (bootstrap from snapshot or from the open frame, then
//! checksummed frame fetches), `promote` flips it to serving, and the
//! promoted state must be **bit-identical** to an uninterrupted
//! single-node run of the same acknowledged batches.
//!
//! Exactly-once is carried by client sequence numbers: re-sending an
//! in-flight batch after a failover either applies it (the standby never
//! saw the frame) or dedups it (it did) — the state lands on the same
//! reference either way. The proxy proptest drops the client connection
//! at arbitrary byte offsets mid-ingest to pin that down.
//!
//! The `#[cfg(feature = "failpoints")]` section grows the durability
//! kill matrix into a failover matrix: the primary is killed at every
//! durability failpoint, the standby is promoted, the client re-sends,
//! and the result is compared to the serial reference. Network
//! failpoints (dropped / delayed / truncated / corrupted / duplicated
//! fetch replies, mid-stream disconnects) must never corrupt a standby
//! — only delay it.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use uniclean::client::{Client as LibClient, ClientConfig};
use uniclean::model::json::Json;
use uniclean::server::DaemonConfig;

mod common;
use common::server::{
    assert_code, assert_ok, dump_rows_cost, durable_config, ingest_request, ingest_request_seq,
    obj, open_request, reference_for, rows_json, scratch_dir, shutdown_node, spawn_daemon, Client,
    Node, BATCHES,
};

/// An in-process durable daemon: a primary, or a standby of
/// `replicate_from`.
fn start_node(data_dir: &Path, snapshot_every: u64, replicate_from: Option<String>) -> Node {
    spawn_daemon(DaemonConfig {
        replicate_from,
        ..durable_config(data_dir, snapshot_every)
    })
}

/// Send `request` every 25 ms until `done` accepts a response, and return
/// what it took from it. After 30 s the test fails with `what` and the last
/// response.
fn poll<T>(
    c: &mut Client,
    request: &Json,
    what: &str,
    mut done: impl FnMut(&Json) -> Option<T>,
) -> T {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = c.rpc(request);
        if let Some(out) = done(&resp) {
            return out;
        }
        assert!(Instant::now() < deadline, "{what}; last: {resp}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn request(op: &str, relation: &str) -> Json {
    obj(vec![
        ("op", Json::str(op)),
        ("relation", Json::str(relation)),
    ])
}

/// Poll the standby until its replicated seq for `relation` reaches
/// `want` (the primary's batch count).
fn wait_replicated(standby: std::net::SocketAddr, relation: &str, want: u64) {
    let what = format!("standby never replicated {relation} to seq {want}");
    poll(
        &mut Client::connect(standby),
        &request("stats", relation),
        &what,
        |resp| {
            let seq = resp
                .get("relations")
                .and_then(Json::as_arr)
                .and_then(|rs| rs.first())
                .and_then(|r| r.get("repl_seq"))
                .and_then(Json::as_usize)
                .unwrap_or(0) as u64;
            (resp.get("ok").and_then(Json::as_bool) == Some(true) && seq >= want).then_some(())
        },
    );
}

/// Standby stats may answer `unknown_relation` before the bootstrap
/// lands — wait for the relation to exist first.
fn wait_relation_exists(addr: std::net::SocketAddr, relation: &str) {
    let what = format!("standby never opened {relation}");
    poll(
        &mut Client::connect(addr),
        &request("check", relation),
        &what,
        |resp| (resp.get("ok").and_then(Json::as_bool) == Some(true)).then_some(()),
    );
}

// ---------------------------------------------------------------------
// Streaming + promotion (no failpoints needed)
// ---------------------------------------------------------------------

/// A standby started against a fresh primary bootstraps from the WAL
/// open frame, tails every batch, and serves bit-identical reads.
#[test]
fn standby_tails_the_primary_and_reads_identically() {
    let pdir = scratch_dir("tail-primary");
    let sdir = scratch_dir("tail-standby");
    let primary = start_node(&pdir, 0, None);
    let mut pc = Client::connect(primary.addr);
    assert_ok(&pc.rpc(&open_request("tran")));
    assert_ok(&pc.rpc(&ingest_request("tran", BATCHES[0])));
    assert_ok(&pc.rpc(&ingest_request("tran", BATCHES[1])));

    let standby = start_node(&sdir, 0, Some(primary.addr.to_string()));
    wait_relation_exists(standby.addr, "tran");
    wait_replicated(standby.addr, "tran", 2);

    // Batches ingested while the standby is already tailing stream over.
    assert_ok(&pc.rpc(&ingest_request("tran", BATCHES[2])));
    assert_ok(&pc.rpc(&ingest_request("tran", BATCHES[3])));
    wait_replicated(standby.addr, "tran", 4);

    let mut sc = Client::connect(standby.addr);
    let (p_rows, p_cost) = dump_rows_cost(&mut pc, "tran");
    let (s_rows, s_cost) = dump_rows_cost(&mut sc, "tran");
    assert_eq!(s_rows, p_rows, "standby dump diverged from primary");
    assert_eq!(s_cost, p_cost);
    let (expect_rows, _) = reference_for(&[0, 1, 2, 3]);
    assert_eq!(s_rows, expect_rows, "standby dump diverged from reference");

    // The primary's stats carry per-tenant replica health; the standby
    // acks after applying, so poll until the ack round-trips.
    let what = "primary never saw the standby ack seq 4";
    let repl = poll(&mut pc, &request("stats", "tran"), what, |stats| {
        assert_ok(stats);
        let rel = &stats.get("relations").and_then(Json::as_arr).unwrap()[0];
        let repl = rel.get("replication")?;
        (repl.get("acked_seq").and_then(Json::as_usize) == Some(4)).then(|| repl.clone())
    });
    assert_eq!(repl.get("lag_frames").and_then(Json::as_usize), Some(0));
    assert_eq!(repl.get("lag_bytes").and_then(Json::as_usize), Some(0));
    assert!(
        repl.get("heartbeat_age_seconds")
            .and_then(Json::as_f64)
            .is_some(),
        "{repl}"
    );

    // Standby-side health rides on ping.
    let ping = sc.rpc(&obj(vec![("op", Json::str("ping"))]));
    assert_ok(&ping);
    assert_eq!(ping.get("role").and_then(Json::as_str), Some("standby"));
    let repl = ping.get("replication").expect("replication in ping");
    assert_eq!(repl.get("role").and_then(Json::as_str), Some("standby"));
    assert_eq!(
        repl.get("primary").and_then(Json::as_str),
        Some(primary.addr.to_string().as_str())
    );
    assert_eq!(repl.get("connected").and_then(Json::as_bool), Some(true));

    shutdown_node(standby);
    shutdown_node(primary);
}

/// Mutating verbs on a standby answer `standby` and name the primary.
#[test]
fn standby_rejects_mutations_with_primary_pointer() {
    let pdir = scratch_dir("reject-primary");
    let sdir = scratch_dir("reject-standby");
    let primary = start_node(&pdir, 0, None);
    let standby = start_node(&sdir, 0, Some(primary.addr.to_string()));
    let mut sc = Client::connect(standby.addr);
    for req in [
        open_request("tran"),
        ingest_request("tran", BATCHES[0]),
        request("close", "tran"),
    ] {
        let resp = sc.rpc(&req);
        assert_code(&resp, "standby");
        assert_eq!(
            resp.get("primary").and_then(Json::as_str),
            Some(primary.addr.to_string().as_str()),
            "{resp}"
        );
    }
    // `promote` on a primary is refused symmetrically.
    let mut pc = Client::connect(primary.addr);
    assert_code(
        &pc.rpc(&obj(vec![("op", Json::str("promote"))])),
        "not_standby",
    );
    shutdown_node(standby);
    shutdown_node(primary);
}

/// A standby joining after the primary compacted its WAL bootstraps
/// from the snapshot (the open-frame prefix is gone) and still lands on
/// the bit-identical state.
#[test]
fn standby_bootstraps_from_snapshot_after_compaction() {
    let pdir = scratch_dir("snapboot-primary");
    let sdir = scratch_dir("snapboot-standby");
    // snapshot_every=1: every batch compacts, so the WAL never holds
    // history and fetches from seq 0 must answer snapshot mode.
    let primary = start_node(&pdir, 1, None);
    let mut pc = Client::connect(primary.addr);
    assert_ok(&pc.rpc(&open_request("tran")));
    assert_ok(&pc.rpc(&ingest_request("tran", BATCHES[0])));
    assert_ok(&pc.rpc(&ingest_request("tran", BATCHES[1])));

    let standby = start_node(&sdir, 1, Some(primary.addr.to_string()));
    wait_relation_exists(standby.addr, "tran");
    wait_replicated(standby.addr, "tran", 2);
    // Keep streaming after the snapshot bootstrap.
    assert_ok(&pc.rpc(&ingest_request("tran", BATCHES[2])));
    wait_replicated(standby.addr, "tran", 3);

    let mut sc = Client::connect(standby.addr);
    let (s_rows, s_cost) = dump_rows_cost(&mut sc, "tran");
    let (expect_rows, expect_cost) = reference_for(&[0, 1, 2]);
    assert_eq!(
        s_rows, expect_rows,
        "snapshot-bootstrapped standby diverged"
    );
    assert_eq!(s_cost, expect_cost);
    let repl_seq_of = |c: &mut Client| {
        let stats = c.rpc(&request("stats", "tran"));
        assert_ok(&stats);
        stats.get("relations").unwrap().as_arr().unwrap()[0]
            .get("repl_seq")
            .and_then(Json::as_u64)
    };
    assert_eq!(repl_seq_of(&mut sc), Some(3));
    drop(sc);
    shutdown_node(standby);

    // Restart the standby on its own data dir: the persisted bootstrap
    // snapshot brings it back at the same mirrored position, so it
    // resumes tailing from its files. Had recovery lost the tenant or its
    // `repl_seq` marker, `wait_replicated` would only return once the
    // puller had re-streamed it — and `bootstraps` would say so.
    let standby = start_node(&sdir, 1, Some(primary.addr.to_string()));
    wait_replicated(standby.addr, "tran", 3);
    let mut sc = Client::connect(standby.addr);
    let ping = sc.rpc(&obj(vec![("op", Json::str("ping"))]));
    assert_eq!(
        ping.get("replication")
            .and_then(|r| r.get("bootstraps"))
            .and_then(Json::as_usize),
        Some(0),
        "a restarted standby resumes from its files: {ping}"
    );
    assert_eq!(repl_seq_of(&mut sc), Some(3), "repl_seq moved on restart");
    // And it keeps following the primary from there.
    assert_ok(&pc.rpc(&ingest_request("tran", BATCHES[3])));
    wait_replicated(standby.addr, "tran", 4);
    assert_eq!(
        dump_rows_cost(&mut sc, "tran"),
        reference_for(&[0, 1, 2, 3])
    );
    drop(sc);
    shutdown_node(standby);
    shutdown_node(primary);
}

/// Promote: the standby drains, flips to serving, accepts writes, and
/// its state — before and after new writes — matches the single-node
/// reference. The promotion also survives a restart (durable standby).
#[test]
fn promotion_serves_identically_and_survives_restart() {
    let pdir = scratch_dir("promote-primary");
    let sdir = scratch_dir("promote-standby");
    let primary = start_node(&pdir, 0, None);
    let mut pc = Client::connect(primary.addr);
    assert_ok(&pc.rpc(&open_request("tran")));
    for (i, batch) in BATCHES.iter().enumerate().take(3) {
        assert_ok(&pc.rpc(&ingest_request_seq("tran", batch, i as u64 + 1)));
    }
    let standby = start_node(&sdir, 0, Some(primary.addr.to_string()));
    wait_relation_exists(standby.addr, "tran");
    wait_replicated(standby.addr, "tran", 3);
    shutdown_node(primary);

    let mut sc = Client::connect(standby.addr);
    let promoted = sc.rpc(&obj(vec![("op", Json::str("promote"))]));
    assert_ok(&promoted);
    assert_eq!(promoted.get("role").and_then(Json::as_str), Some("primary"));
    let ping = sc.rpc(&obj(vec![("op", Json::str("ping"))]));
    assert_eq!(ping.get("role").and_then(Json::as_str), Some("primary"));

    let (rows, cost) = dump_rows_cost(&mut sc, "tran");
    let (expect_rows, expect_cost) = reference_for(&[0, 1, 2]);
    assert_eq!(rows, expect_rows, "promoted state diverged from reference");
    assert_eq!(cost, expect_cost);

    // The promoted node is a real primary: it accepts writes, dedups
    // replayed client sequences, and keeps matching the reference.
    assert_ok(&sc.rpc(&ingest_request_seq("tran", BATCHES[3], 4)));
    let replay = sc.rpc(&ingest_request_seq("tran", BATCHES[3], 4));
    assert_ok(&replay);
    assert_eq!(replay.get("deduped").and_then(Json::as_bool), Some(true));
    let (rows, _) = dump_rows_cost(&mut sc, "tran");
    let (expect_rows, _) = reference_for(&[0, 1, 2, 3]);
    assert_eq!(rows, expect_rows, "post-promotion ingest diverged");
    shutdown_node(standby);

    // Restart the promoted node on its own data dir: the replicated +
    // locally written state recovers bit-identically.
    let revived = start_node(&sdir, 0, None);
    let mut rc = Client::connect(revived.addr);
    let (rows, _) = dump_rows_cost(&mut rc, "tran");
    assert_eq!(rows, expect_rows, "promoted state lost across restart");
    shutdown_node(revived);
}

/// Closed tenants disappear from the stream: the standby drops local
/// state for relations the primary no longer lists.
#[test]
fn standby_prunes_closed_tenants() {
    let pdir = scratch_dir("prune-primary");
    let sdir = scratch_dir("prune-standby");
    let primary = start_node(&pdir, 0, None);
    let mut pc = Client::connect(primary.addr);
    assert_ok(&pc.rpc(&open_request("tran")));
    assert_ok(&pc.rpc(&ingest_request("tran", BATCHES[0])));
    let standby = start_node(&sdir, 0, Some(primary.addr.to_string()));
    wait_relation_exists(standby.addr, "tran");
    wait_replicated(standby.addr, "tran", 1);

    assert_ok(&pc.rpc(&request("close", "tran")));
    let what = "standby never pruned the closed tenant";
    poll(
        &mut Client::connect(standby.addr),
        &request("check", "tran"),
        what,
        |resp| {
            // The prune goes through the shard `close` path, which leaves a
            // tombstone — either code means the tenant is gone.
            matches!(
                resp.get("code").and_then(Json::as_str),
                Some("unknown_relation") | Some("already_closed")
            )
            .then_some(())
        },
    );
    shutdown_node(standby);
    shutdown_node(primary);
}

// ---------------------------------------------------------------------
// Handshake + forward compatibility
// ---------------------------------------------------------------------

/// `hello` negotiates: current version accepted, absent version treated
/// as the v1 dialect, future versions answered with ours (the client
/// downgrades), and ancient versions refused with a structured error.
#[test]
fn hello_negotiates_versions() {
    let dir = scratch_dir("hello");
    let node = start_node(&dir, 0, None);
    let mut c = Client::connect(node.addr);
    let r = c.rpc(&obj(vec![("op", Json::str("hello"))]));
    assert_ok(&r);
    assert!(r.get("proto_version").and_then(Json::as_usize).unwrap() >= 2);
    assert_eq!(r.get("role").and_then(Json::as_str), Some("primary"));
    let r = c.rpc(&obj(vec![
        ("op", Json::str("hello")),
        ("proto_version", Json::Num(1.0)),
    ]));
    assert_ok(&r);
    let r = c.rpc(&obj(vec![
        ("op", Json::str("hello")),
        ("proto_version", Json::Num(999.0)),
    ]));
    assert_ok(&r);
    let r = c.rpc(&obj(vec![
        ("op", Json::str("hello")),
        ("proto_version", Json::Num(0.0)),
    ]));
    assert_code(&r, "proto_too_old");
    shutdown_node(node);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Forward compatibility: any request decorated with unknown fields
    /// (what a future client would send) and any future `proto_version`
    /// must be answered normally — never a panic, never a parse error.
    #[test]
    fn unknown_fields_and_future_versions_never_break_the_daemon(
        extra_key in "[a-z_]{1,12}",
        val_kind in 0usize..4,
        extra_num in 0u32..1000,
        extra_str in "[a-z0-9]{0,16}",
        future_version in 2u64..1_000_000,
        verb_idx in 0usize..4,
    ) {
        let verb = ["ping", "hello", "stats", "repl_list"][verb_idx];
        let extra_val = match val_kind {
            0 => Json::Null,
            1 => Json::Bool(extra_num % 2 == 0),
            2 => Json::Num(f64::from(extra_num)),
            _ => Json::str(&extra_str),
        };
        let dir = scratch_dir(&format!("fwd-{verb}-{future_version}"));
        let node = start_node(&dir, 0, None);
        let mut c = Client::connect(node.addr);
        let mut pairs = vec![("op", Json::str(verb))];
        if verb == "hello" {
            pairs.push(("proto_version", Json::Num(future_version as f64)));
        }
        let decorated_key = format!("x_{extra_key}");
        pairs.push((decorated_key.as_str(), extra_val.clone()));
        let resp = c.rpc(&obj(pairs));
        prop_assert_eq!(
            resp.get("ok").and_then(Json::as_bool), Some(true),
            "{}", resp
        );
        // A pre-versioning client never says hello at all and still
        // gets served.
        let resp = c.rpc(&obj(vec![("op", Json::str("ping"))]));
        prop_assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        shutdown_node(node);
    }
}

// ---------------------------------------------------------------------
// Client library: retries, failover, exactly-once
// ---------------------------------------------------------------------

/// The fault-tolerant client fails over to the standby: writes hit the
/// primary until it dies, `promote_standby` flips the roles, and the
/// same client keeps writing — with its in-flight re-send deduped, the
/// final state is the uninterrupted reference.
#[test]
fn client_library_fails_over_to_the_standby() {
    let pdir = scratch_dir("libfail-primary");
    let sdir = scratch_dir("libfail-standby");
    let primary = start_node(&pdir, 0, None);
    let standby = start_node(&sdir, 0, Some(primary.addr.to_string()));
    let mut cfg =
        ClientConfig::new(primary.addr.to_string()).with_standby(standby.addr.to_string());
    // Enough retry budget to ride out the window between the primary
    // dying and the promotion landing.
    cfg.max_retries = 30;
    let mut client = LibClient::new(cfg);
    let mut spec = open_request("tran");
    if let Json::Obj(pairs) = &mut spec {
        pairs.retain(|(k, _)| k != "op");
    }
    client.open(spec).expect("open through the client");
    for batch in BATCHES.iter().take(2) {
        client
            .ingest("tran", rows_json(batch))
            .expect("ingest through the client");
    }
    wait_relation_exists(standby.addr, "tran");
    wait_replicated(standby.addr, "tran", 2);

    // Primary gone. The client's next write bounces between the dead
    // primary (connect refused) and the unpromoted standby (`standby`
    // refusal) until the promotion — landing mid-retry from another
    // thread, as a real operator would — flips the standby to serving.
    shutdown_node(primary);
    let standby_addr = standby.addr;
    let promoter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        let mut sc = Client::connect(standby_addr);
        assert_ok(&sc.rpc(&obj(vec![("op", Json::str("promote"))])));
    });
    for (i, batch) in BATCHES.iter().enumerate().skip(2) {
        // Re-send with explicit sequence numbers continuing the old
        // stream — exactly what a writer re-driving its in-flight
        // window after failover does.
        client
            .ingest_with_seq("tran", rows_json(batch), i as u64 + 1)
            .expect("ingest after failover");
    }
    promoter.join().unwrap();
    assert!(client.stats.failovers > 0, "client never failed over");

    let mut sc = Client::connect(standby.addr);
    let (rows, cost) = dump_rows_cost(&mut sc, "tran");
    let (expect_rows, expect_cost) = reference_for(&[0, 1, 2, 3]);
    assert_eq!(rows, expect_rows, "failed-over state diverged");
    assert_eq!(cost, expect_cost);
    shutdown_node(standby);
}

/// A fresh client seeds its sequence numbers from the server's
/// `last_client_seq`, so a writer restart can't collide or get deduped.
#[test]
fn fresh_client_seeds_sequences_from_the_server() {
    let dir = scratch_dir("seed");
    let node = start_node(&dir, 0, None);
    let mut a = LibClient::new(ClientConfig::new(node.addr.to_string()));
    let mut spec = open_request("tran");
    if let Json::Obj(pairs) = &mut spec {
        pairs.retain(|(k, _)| k != "op");
    }
    a.open(spec).unwrap();
    a.ingest("tran", rows_json(BATCHES[0])).unwrap();
    a.ingest("tran", rows_json(BATCHES[1])).unwrap();
    drop(a);
    // A second client (a restarted writer) continues the stream: its
    // first ingest must apply, not dedup.
    let mut b = LibClient::new(ClientConfig::new(node.addr.to_string()));
    let resp = b.ingest("tran", rows_json(BATCHES[2])).unwrap();
    assert!(
        resp.get("deduped").is_none(),
        "seeded ingest deduped: {resp}"
    );
    let mut c = Client::connect(node.addr);
    let (rows, _) = dump_rows_cost(&mut c, "tran");
    let (expect_rows, _) = reference_for(&[0, 1, 2]);
    assert_eq!(rows, expect_rows);
    shutdown_node(node);
}

// ---------------------------------------------------------------------
// Exactly-once through connection drops (in-test TCP proxy)
// ---------------------------------------------------------------------

/// A byte-budgeted TCP proxy: the first connection through it forwards
/// at most `budget` bytes client→server, then severs both directions —
/// a connection drop at an arbitrary point mid-request (or before the
/// reply relays). Later connections pass through untouched.
fn drop_proxy(upstream: std::net::SocketAddr, budget: usize) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut first = true;
        for inbound in listener.incoming() {
            let Ok(inbound) = inbound else { return };
            let Ok(out) = TcpStream::connect(upstream) else {
                return;
            };
            let limit = if first { Some(budget) } else { None };
            first = false;
            let mut inbound_r = match inbound.try_clone() {
                Ok(s) => s,
                Err(_) => return,
            };
            let mut out_w = match out.try_clone() {
                Ok(s) => s,
                Err(_) => return,
            };
            // server→client relay; dies when the sockets shut down.
            let inbound_w = inbound.try_clone().ok();
            let out_r = out.try_clone().ok();
            let relay = std::thread::spawn(move || {
                if let (Some(mut r), Some(mut w)) = (out_r, inbound_w) {
                    let _ = std::io::copy(&mut r, &mut w);
                }
            });
            // client→server with the byte budget.
            let mut forwarded = 0usize;
            let mut buf = [0u8; 256];
            loop {
                let allowed = match limit {
                    Some(l) if forwarded >= l => 0,
                    Some(l) => (l - forwarded).min(buf.len()),
                    None => buf.len(),
                };
                if allowed == 0 {
                    break;
                }
                match inbound_r.read(&mut buf[..allowed]) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if out_w.write_all(&buf[..n]).is_err() {
                            break;
                        }
                        let _ = out_w.flush();
                        forwarded += n;
                    }
                }
            }
            // Sever both directions so the client sees a dead
            // connection whatever it was waiting on.
            if limit.is_some() {
                let _ = inbound.shutdown(std::net::Shutdown::Both);
                let _ = out.shutdown(std::net::Shutdown::Both);
            }
            let _ = relay.join();
        }
    });
    addr
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Drop the connection after an arbitrary number of request bytes
    /// mid-ingest; the client retries with the same sequence number and
    /// the batch lands **exactly once** — whether the drop happened
    /// before the server saw the line (retry applies it) or after
    /// (retry dedups).
    #[test]
    fn connection_drop_mid_ingest_is_exactly_once(cut in 1usize..400) {
        let dir = scratch_dir(&format!("proxy-{cut}"));
        let node = start_node(&dir, 0, None);
        // Open directly (not through the proxy) so the budget is spent
        // entirely on the ingest.
        let mut direct = Client::connect(node.addr);
        assert_ok(&direct.rpc(&open_request("tran")));

        let proxy = drop_proxy(node.addr, cut);
        let mut client = LibClient::new(
            ClientConfig::new(proxy.to_string())
        );
        client
            .ingest_with_seq("tran", rows_json(BATCHES[0]), 1)
            .expect("ingest through the dropping proxy");

        let stats = direct.rpc(&request("stats", "tran"));
        assert_ok(&stats);
        let rel = &stats.get("relations").and_then(Json::as_arr).unwrap()[0];
        prop_assert_eq!(
            rel.get("batches").and_then(Json::as_usize), Some(1),
            "batch applied more or less than once: {}", rel
        );
        let (rows, _) = dump_rows_cost(&mut direct, "tran");
        let (expect_rows, _) = reference_for(&[0]);
        prop_assert_eq!(rows, expect_rows);
        shutdown_node(node);
    }
}

// ---------------------------------------------------------------------
// Failover matrix (failpoints build only)
// ---------------------------------------------------------------------

#[cfg(feature = "failpoints")]
mod failover_matrix {
    use super::*;
    use std::io::BufRead;

    struct FailoverCase {
        /// `UNICLEAN_FAILPOINTS` spec arming the fatal window on the
        /// primary.
        arm: &'static str,
        snapshot_every: u64,
        /// Batches acknowledged (and replicated) before the fatal one.
        acked: usize,
    }

    /// Every durability kill window from the single-node matrix, now
    /// with a standby attached. Whatever the window, promote + re-send
    /// must land on the reference of `acked + 1` batches: the re-sent
    /// in-flight batch either applies (the frame never replicated) or
    /// dedups (it did).
    const FAILOVER_MATRIX: [FailoverCase; 9] = [
        FailoverCase {
            arm: "wal.pre_frame=kill@3",
            snapshot_every: 0,
            acked: 1,
        },
        FailoverCase {
            arm: "wal.mid_frame=kill@3",
            snapshot_every: 0,
            acked: 1,
        },
        FailoverCase {
            arm: "wal.pre_fsync=kill@3",
            snapshot_every: 0,
            acked: 1,
        },
        FailoverCase {
            arm: "wal.post_fsync=kill@3",
            snapshot_every: 0,
            acked: 1,
        },
        FailoverCase {
            arm: "ingest.apply=kill@2",
            snapshot_every: 0,
            acked: 1,
        },
        FailoverCase {
            arm: "ingest.post_ack=kill@2",
            snapshot_every: 0,
            acked: 1,
        },
        FailoverCase {
            arm: "snapshot.mid_write=kill@1",
            snapshot_every: 1,
            acked: 0,
        },
        FailoverCase {
            arm: "snapshot.pre_rename=kill@1",
            snapshot_every: 1,
            acked: 0,
        },
        FailoverCase {
            arm: "snapshot.pre_wal_rewrite=kill@1",
            snapshot_every: 1,
            acked: 0,
        },
    ];

    #[test]
    fn kill_primary_promote_standby_resend_lands_on_reference() {
        for case in &FAILOVER_MATRIX {
            let label = case.arm;
            let slug = label.replace(['.', '=', '@'], "-");
            let pdir = scratch_dir(&format!("fm-{slug}-p"));
            let sdir = scratch_dir(&format!("fm-{slug}-s"));
            let (mut child, paddr, _stdout) =
                common::server::spawn_serve(&pdir, case.snapshot_every, case.arm);
            let mut pc = Client::connect(paddr);
            assert_ok(&pc.rpc(&open_request("tran")));
            for (i, batch) in BATCHES.iter().enumerate().take(case.acked) {
                assert_ok(&pc.rpc(&ingest_request_seq("tran", batch, i as u64 + 1)));
            }
            // Attach the standby and let it replicate the acked prefix
            // before the fatal batch — the failover guarantee is about
            // acknowledged data.
            let standby = start_node(&sdir, 0, Some(paddr.to_string()));
            wait_relation_exists(standby.addr, "tran");
            wait_replicated(standby.addr, "tran", case.acked as u64);

            // The fatal batch: the primary aborts inside the armed
            // window; some windows may still have acked.
            pc.send_only(&ingest_request_seq(
                "tran",
                BATCHES[case.acked],
                case.acked as u64 + 1,
            ));
            let mut fatal_line = String::new();
            let _ = pc.reader.read_line(&mut fatal_line);
            let status = child.wait().expect("reap the primary");
            assert!(!status.success(), "{label}: primary should have aborted");
            drop(pc);

            // Promote and re-drive the in-flight batch with the same
            // sequence number.
            let mut sc = Client::connect(standby.addr);
            assert_ok(&sc.rpc(&obj(vec![("op", Json::str("promote"))])));
            assert_ok(&sc.rpc(&ingest_request_seq(
                "tran",
                BATCHES[case.acked],
                case.acked as u64 + 1,
            )));

            let want: Vec<usize> = (0..=case.acked).collect();
            let (expect_rows, expect_cost) = reference_for(&want);
            let (rows, cost) = dump_rows_cost(&mut sc, "tran");
            assert_eq!(
                rows, expect_rows,
                "{label}: promoted state diverged from the uninterrupted reference"
            );
            assert_eq!(cost, expect_cost, "{label}: promoted cost diverged");
            shutdown_node(standby);
        }
    }

    /// Network failpoints on the replication stream: every mangling of
    /// a fetch reply (drop, truncate, corrupt, duplicate, delay,
    /// transient errors on fetch and ack) must only delay the standby —
    /// it re-fetches and converges to the bit-identical state.
    #[test]
    fn mangled_replication_streams_only_delay_the_standby() {
        const NET_ARMS: [&str; 7] = [
            "repl.fetch.net=disconnect@2",
            "repl.fetch.net=truncate@2",
            "repl.fetch.net=corrupt@2",
            "repl.fetch.net=dup@2",
            "repl.fetch.net=delay@2",
            "repl.fetch=error@2",
            "repl.ack=error@1",
        ];
        for arm in NET_ARMS {
            let slug = arm.replace(['.', '=', '@'], "-");
            let pdir = scratch_dir(&format!("net-{slug}-p"));
            let sdir = scratch_dir(&format!("net-{slug}-s"));
            let (mut child, paddr, _stdout) = common::server::spawn_serve(&pdir, 0, arm);
            let mut pc = Client::connect(paddr);
            assert_ok(&pc.rpc(&open_request("tran")));
            for (i, batch) in BATCHES.iter().enumerate() {
                assert_ok(&pc.rpc(&ingest_request_seq("tran", batch, i as u64 + 1)));
            }
            let standby = start_node(&sdir, 0, Some(paddr.to_string()));
            wait_relation_exists(standby.addr, "tran");
            wait_replicated(standby.addr, "tran", BATCHES.len() as u64);

            let (p_rows, p_cost) = dump_rows_cost(&mut pc, "tran");
            let mut sc = Client::connect(standby.addr);
            assert_ok(&sc.rpc(&obj(vec![("op", Json::str("promote"))])));
            let (s_rows, s_cost) = dump_rows_cost(&mut sc, "tran");
            assert_eq!(
                s_rows, p_rows,
                "{arm}: standby diverged after a mangled stream"
            );
            assert_eq!(s_cost, p_cost, "{arm}: cost diverged");
            let (expect_rows, _) = reference_for(&[0, 1, 2, 3]);
            assert_eq!(s_rows, expect_rows, "{arm}: reference diverged");

            assert_ok(&pc.rpc(&obj(vec![("op", Json::str("shutdown"))])));
            drop(pc);
            assert!(child.wait().unwrap().success());
            shutdown_node(standby);
        }
    }
}
