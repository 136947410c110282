//! Fault-injection matrix over every durability kill window, against the
//! real spawned `uniclean serve` binary (compile with
//! `--features failpoints`; CI runs this as its own job).
//!
//! Each case arms one failpoint via `UNICLEAN_FAILPOINTS`, drives the
//! daemon to the window, lets it abort there, restarts on the same data
//! directory, and pins the recovered state **bit-identically** to the
//! serial reference of exactly the batch set the ack protocol promises:
//!
//! * kill before the WAL frame (or mid-frame, or before the apply): the
//!   in-flight batch was never durable → recovery yields the acked
//!   prefix only;
//! * kill after the frame is fully written (pre/post fsync, post ack):
//!   the batch is on disk → recovery yields acked + in-flight;
//! * kill anywhere inside snapshot compaction: the WAL still carries
//!   every logged batch → nothing is lost, in any of the three windows.
//!
//! The `error` action exercises the non-fatal paths: a transient
//! snapshot-write failure is retried with backoff and the ingest still
//! acks; a WAL append failure poisons the tenant (never acks) while the
//! rest of the daemon — and the tenant itself after a restart — keeps
//! serving. The `panic` action exercises blast-radius isolation: a
//! panicking apply poisons one tenant, the daemon and its other tenants
//! answer on.

#![cfg(feature = "failpoints")]

use std::io::BufReader;
use std::path::Path;

use uniclean::model::json::Json;
use uniclean::server::tenant_dir_name;

mod common;
use common::server::{
    assert_code, assert_ok, dump_rows_cost, durable_config, ingest_request, obj, open_request,
    reference_for, scratch_dir, spawn_serve, with_daemon, Client, BATCHES,
};

/// Spawn the real binary with one armed failpoint; returns the child, a
/// connected client, and the child's stdout reader (hold it until after
/// `wait`).
fn spawn_armed(
    data_dir: &Path,
    snapshot_every: u64,
    failpoints: &str,
) -> (
    std::process::Child,
    Client,
    BufReader<std::process::ChildStdout>,
) {
    let (child, addr, stdout) = spawn_serve(data_dir, snapshot_every, failpoints);
    (child, Client::connect(addr), stdout)
}

/// Boot an in-process daemon on the directory (nothing armed: the env
/// var is only set on spawned children) and run `body`.
fn with_recovered_daemon<T>(data_dir: &Path, body: impl FnOnce(&mut Client) -> T) -> T {
    with_daemon(durable_config(data_dir, 64), body)
}

/// One kill-window case: ack `acked` batches, fire the next batch into
/// the armed window, let the daemon abort, restart, and require the
/// recovered state to be exactly the reference of `expect` batches.
struct KillCase {
    /// `UNICLEAN_FAILPOINTS` spec arming the window.
    arm: &'static str,
    snapshot_every: u64,
    /// Batches acknowledged before the fatal one.
    acked: usize,
    /// Batch indices recovery must reproduce, bit-identically.
    expect: usize,
    /// The kill leaves a half-written frame recovery must truncate.
    expect_torn: bool,
}

/// The whole matrix. Hit counts: with `--snapshot-every 0` the WAL
/// points are hit once for the open record, then once per batch, so `@3`
/// fires on the second batch; the ingest points are hit once per batch;
/// the snapshot points fire during the first compaction.
const KILL_MATRIX: [KillCase; 9] = [
    // Before any WAL byte: the in-flight batch vanishes.
    KillCase {
        arm: "wal.pre_frame=kill@3",
        snapshot_every: 0,
        acked: 1,
        expect: 1,
        expect_torn: false,
    },
    // Mid-frame: a torn tail recovery must truncate away.
    KillCase {
        arm: "wal.mid_frame=kill@3",
        snapshot_every: 0,
        acked: 1,
        expect: 1,
        expect_torn: true,
    },
    // Frame fully written, fsync pending: a process kill (unlike an OS
    // crash) leaves the written bytes readable, so the unacked batch
    // legitimately survives.
    KillCase {
        arm: "wal.pre_fsync=kill@3",
        snapshot_every: 0,
        acked: 1,
        expect: 2,
        expect_torn: false,
    },
    KillCase {
        arm: "wal.post_fsync=kill@3",
        snapshot_every: 0,
        acked: 1,
        expect: 2,
        expect_torn: false,
    },
    // Before the apply: neither memory nor disk saw the batch.
    KillCase {
        arm: "ingest.apply=kill@2",
        snapshot_every: 0,
        acked: 1,
        expect: 1,
        expect_torn: false,
    },
    // After the ack: the batch must survive — the client was promised.
    KillCase {
        arm: "ingest.post_ack=kill@2",
        snapshot_every: 0,
        acked: 1,
        expect: 2,
        expect_torn: false,
    },
    // Inside compaction (snapshot-every-1 → first batch compacts): the
    // WAL still carries the logged batch whatever the window.
    KillCase {
        arm: "snapshot.mid_write=kill@1",
        snapshot_every: 1,
        acked: 0,
        expect: 1,
        expect_torn: false,
    },
    KillCase {
        arm: "snapshot.pre_rename=kill@1",
        snapshot_every: 1,
        acked: 0,
        expect: 1,
        expect_torn: false,
    },
    // Snapshot durable, WAL rewrite never happened: replay must skip the
    // batches the snapshot already holds (seq bookkeeping).
    KillCase {
        arm: "snapshot.pre_wal_rewrite=kill@1",
        snapshot_every: 1,
        acked: 0,
        expect: 1,
        expect_torn: false,
    },
];

#[test]
fn kill_matrix_recovers_bit_identically() {
    for case in &KILL_MATRIX {
        let label = case.arm;
        let dir = scratch_dir(&label.replace(['.', '=', '@'], "-"));
        let (mut child, mut c, _stdout) = spawn_armed(&dir, case.snapshot_every, case.arm);
        assert_ok(&c.rpc(&open_request("tran")));
        for batch in BATCHES.iter().take(case.acked) {
            assert_ok(&c.rpc(&ingest_request("tran", batch)));
        }
        // The fatal batch: the daemon aborts in the armed window, so no
        // ack is expected (post-fsync/post-ack windows may still answer).
        c.send_only(&ingest_request("tran", BATCHES[case.acked]));
        let _ = c.try_read_response();
        let status = child.wait().expect("reap the daemon");
        assert!(!status.success(), "{label}: daemon should have aborted");
        drop(c);

        let (expect_rows, expect_cost) = reference_for(&(0..case.expect).collect::<Vec<_>>());
        with_recovered_daemon(&dir, |c| {
            let ping = c.rpc(&obj(vec![("op", Json::str("ping"))]));
            assert_ok(&ping);
            let recovery = ping.get("recovery").expect("recovery report");
            assert_eq!(
                recovery.get("relations").and_then(Json::as_usize),
                Some(1),
                "{label}: {recovery}"
            );
            if case.expect_torn {
                assert_eq!(
                    recovery.get("torn_tails").and_then(Json::as_usize),
                    Some(1),
                    "{label}: expected a truncated torn tail; {recovery}"
                );
            }
            let (rows, cost) = dump_rows_cost(c, "tran");
            assert_eq!(
                rows, expect_rows,
                "{label}: recovered rows diverged from the {} -batch reference",
                case.expect
            );
            assert_eq!(cost, expect_cost, "{label}: recovered cost diverged");
            // The recovered tenant keeps serving and stays on-reference.
            assert_ok(&c.rpc(&ingest_request("tran", BATCHES[case.expect])));
            let (rows, _) = dump_rows_cost(c, "tran");
            let (expect_rows, _) = reference_for(&(0..=case.expect).collect::<Vec<_>>());
            assert_eq!(rows, expect_rows, "{label}: post-recovery ingest diverged");
        });
    }
}

/// A transient snapshot-write failure is retried with backoff: the
/// ingest still acks, and the snapshot lands on the retry.
#[test]
fn transient_snapshot_error_is_retried() {
    let dir = scratch_dir("snap-retry");
    let (mut child, mut c, _stdout) = spawn_armed(&dir, 1, "snapshot.mid_write=error@1");
    assert_ok(&c.rpc(&open_request("tran")));
    // The first compaction attempt fails (injected), the retry succeeds;
    // either way the batch was already WAL-durable and must ack.
    assert_ok(&c.rpc(&ingest_request("tran", BATCHES[0])));
    assert!(
        dir.join(tenant_dir_name("tran"))
            .join("snapshot.json")
            .exists(),
        "snapshot landed on the retry"
    );
    assert_ok(&c.rpc(&obj(vec![("op", Json::str("shutdown"))])));
    drop(c);
    assert!(child.wait().unwrap().success());
}

/// A WAL append failure never acks: the tenant poisons (structured
/// `wal_error`, then `poisoned`), other tenants keep serving, and a
/// restart revives the poisoned tenant at its acked prefix.
#[test]
fn wal_error_poisons_tenant_without_acking() {
    let dir = scratch_dir("wal-error");
    // Hits: open(tran)=1, open(other)=2, batch0=3, batch1=4 → the second
    // tran batch fails to append.
    let (mut child, mut c, _stdout) = spawn_armed(&dir, 0, "wal.pre_frame=error@4");
    assert_ok(&c.rpc(&open_request("tran")));
    assert_ok(&c.rpc(&open_request("other")));
    assert_ok(&c.rpc(&ingest_request("tran", BATCHES[0])));
    let r = c.rpc(&ingest_request("tran", BATCHES[1]));
    assert_code(&r, "wal_error");
    // Sticky: every subsequent verb on the tenant answers `poisoned`.
    assert_code(&c.rpc(&ingest_request("tran", BATCHES[2])), "poisoned");
    assert_code(
        &c.rpc(&obj(vec![
            ("op", Json::str("dump")),
            ("relation", Json::str("tran")),
        ])),
        "poisoned",
    );
    // Blast radius is one tenant: the other keeps ingesting, and the
    // daemon itself answers ping.
    assert_ok(&c.rpc(&ingest_request("other", BATCHES[0])));
    assert_ok(&c.rpc(&obj(vec![("op", Json::str("ping"))])));
    assert_ok(&c.rpc(&obj(vec![("op", Json::str("shutdown"))])));
    drop(c);
    assert!(child.wait().unwrap().success());

    // Restart: the poisoned tenant comes back at its acked prefix and
    // serves again.
    let (expect_rows, _) = reference_for(&[0]);
    with_recovered_daemon(&dir, |c| {
        let (rows, _) = dump_rows_cost(c, "tran");
        assert_eq!(
            rows, expect_rows,
            "poisoned tenant recovered to acked prefix"
        );
        assert_ok(&c.rpc(&ingest_request("tran", BATCHES[1])));
    });
}

/// A panicking apply poisons one tenant; the daemon and its other
/// tenants answer on, and the poisoned tenant can be closed.
#[test]
fn panicking_tenant_does_not_take_down_the_daemon() {
    let dir = scratch_dir("panic-isolation");
    let (mut child, mut c, _stdout) = spawn_armed(&dir, 0, "ingest.apply=panic@1");
    assert_ok(&c.rpc(&open_request("tran")));
    assert_ok(&c.rpc(&open_request("other")));
    // The armed panic fires inside the first apply: structured answer,
    // tenant poisoned, daemon alive.
    assert_code(&c.rpc(&ingest_request("tran", BATCHES[0])), "poisoned");
    assert_code(&c.rpc(&ingest_request("tran", BATCHES[1])), "poisoned");
    // Nothing was acknowledged, so nothing may be durable.
    assert_ok(&c.rpc(&ingest_request("other", BATCHES[0])));
    let ping = c.rpc(&obj(vec![("op", Json::str("ping"))]));
    assert_ok(&ping);
    assert_eq!(ping.get("relations").and_then(Json::as_usize), Some(2));
    // The poisoned tenant still closes (cleanup path), and the name can
    // be reopened fresh.
    assert_ok(&c.rpc(&obj(vec![
        ("op", Json::str("close")),
        ("relation", Json::str("tran")),
    ])));
    assert_ok(&c.rpc(&open_request("tran")));
    assert_ok(&c.rpc(&ingest_request("tran", BATCHES[0])));
    assert_ok(&c.rpc(&obj(vec![("op", Json::str("shutdown"))])));
    drop(c);
    assert!(child.wait().unwrap().success());
}
