//! Crash-safety suite for the durable daemon: WAL + snapshot recovery
//! must reproduce the acknowledged state **bit-identically** (values,
//! confidences, marks, acceptance, cost) after clean restarts, after
//! WAL corruption at arbitrary byte offsets (longest-valid-prefix
//! recovery), and after a real SIGKILL mid-ingest of the spawned
//! `uniclean serve` binary.
//!
//! The correctness basis is the §5.2 order-independence pin already
//! established for `clean_delta`: replaying the logged batches serially
//! lands on the same state as the original interleaved serving run, so
//! every test compares a recovered dump against an in-process serial
//! reference clean of the acknowledged prefix.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use uniclean::model::frame::encode_frame;
use uniclean::model::json::Json;
use uniclean::server::snapshot::load_snapshots;
use uniclean::server::tenant_dir_name;
use uniclean::server::wal::read_wal;

mod common;
use common::server::{
    assert_ok, dump_rows_cost, durable_config, ingest_request, obj, open_request, reference_for,
    scratch_dir, spawn_serve, with_daemon, Client, BATCHES,
};

/// The serial reference dump (`rows` render + cost) after the first
/// `prefix` batches of [`BATCHES`].
fn reference_prefix(prefix: usize) -> (String, f64) {
    reference_for(&(0..prefix).collect::<Vec<_>>())
}

/// Serve `prefix` batches into a fresh durable daemon, then shut down.
fn serve_prefix(dir: &Path, snapshot_every: u64, prefix: usize) {
    with_daemon(durable_config(dir, snapshot_every), |c| {
        assert_ok(&c.rpc(&open_request("tran")));
        for batch in &BATCHES[..prefix] {
            assert_ok(&c.rpc(&ingest_request("tran", batch)));
        }
    });
}

/// Restart on the same data dir and pin the recovered state bit-identical
/// to the serial reference of the acknowledged prefix.
fn assert_recovers(dir: &Path, snapshot_every: u64, prefix: usize, label: &str) {
    let (expect_rows, expect_cost) = reference_prefix(prefix);
    with_daemon(durable_config(dir, snapshot_every), |c| {
        let ping = c.rpc(&obj(vec![("op", Json::str("ping"))]));
        assert_ok(&ping);
        assert_eq!(ping.get("durable").and_then(Json::as_bool), Some(true));
        let recovery = ping.get("recovery").expect("recovery report");
        assert_eq!(
            recovery.get("relations").and_then(Json::as_usize),
            Some(1),
            "{label}: {recovery}"
        );
        let (rows, cost) = dump_rows_cost(c, "tran");
        assert_eq!(
            rows, expect_rows,
            "{label}: recovered rows diverged from serial reference"
        );
        assert_eq!(cost, expect_cost, "{label}: recovered cost diverged");
    });
}

// ---------------------------------------------------------------------------

/// Clean restart, WAL-only (no snapshots): every acknowledged batch is
/// recovered, state bit-identical, and the recovered tenant keeps
/// serving (the WAL keeps extending across generations).
#[test]
fn wal_only_restart_is_bit_identical() {
    let dir = scratch_dir("wal-only");
    serve_prefix(&dir, 0, 3);
    assert_recovers(&dir, 0, 3, "gen1");

    // Recovery above ran read-only asserts; now extend the relation in a
    // new generation and recover again — seq numbering and the WAL tail
    // survive repeated restarts.
    with_daemon(durable_config(&dir, 0), |c| {
        assert_ok(&c.rpc(&ingest_request("tran", BATCHES[3])));
    });
    assert_recovers(&dir, 0, 4, "gen3");
}

/// Snapshot-every-batch: recovery loads the snapshot (not a full replay)
/// and still lands bit-identical; the report says a snapshot was used.
#[test]
fn snapshot_compaction_restart_is_bit_identical() {
    let dir = scratch_dir("snap");
    serve_prefix(&dir, 1, 4);
    let tenant_dir = dir.join(tenant_dir_name("tran"));
    assert!(
        tenant_dir.join("snapshot.json").exists(),
        "compaction wrote a snapshot"
    );
    // Compaction rewrote the WAL: only the open record remains, so the
    // log stays bounded no matter how many batches were served.
    let wal = read_wal(&tenant_dir.join("wal.log")).unwrap();
    assert!(wal.open.is_some());
    assert_eq!(wal.batches.len(), 0, "WAL compacted after snapshot");

    let (expect_rows, expect_cost) = reference_prefix(4);
    with_daemon(durable_config(&dir, 1), |c| {
        let ping = c.rpc(&obj(vec![("op", Json::str("ping"))]));
        let recovery = ping.get("recovery").expect("recovery report");
        assert_eq!(
            recovery.get("snapshots_used").and_then(Json::as_usize),
            Some(1)
        );
        assert_eq!(
            recovery.get("batches_replayed").and_then(Json::as_usize),
            Some(0)
        );
        assert_eq!(dump_rows_cost(c, "tran"), (expect_rows, expect_cost));
    });
}

/// Mixed generations: snapshots every 2 batches, restarts between
/// batches, always bit-identical to the serial reference.
#[test]
fn interleaved_restarts_and_snapshots() {
    let dir = scratch_dir("interleave");
    with_daemon(durable_config(&dir, 2), |c| {
        assert_ok(&c.rpc(&open_request("tran")));
        assert_ok(&c.rpc(&ingest_request("tran", BATCHES[0])));
    });
    for prefix in 2..=4 {
        // Each generation recovers, serves one more batch, dies.
        let (expect_rows, _) = reference_prefix(prefix);
        with_daemon(durable_config(&dir, 2), |c| {
            assert_ok(&c.rpc(&ingest_request("tran", BATCHES[prefix - 1])));
            let (rows, _) = dump_rows_cost(c, "tran");
            assert_eq!(rows, expect_rows, "prefix {prefix}");
        });
    }
    assert_recovers(&dir, 2, 4, "final");
}

/// The history a compaction writes is the history the WAL carried: after
/// the same ingests (restart in the middle included), the newest
/// snapshot's `base_rows` is byte-equal to the concatenated `rows` of a
/// never-compacted twin's log — cells with explicit confidences, the
/// default confidence, and nulls. The snapshot derives its history from
/// the live state; this pins that derivation to what was logged.
#[test]
fn snapshot_history_is_the_wal_history() {
    let batches = [
        r#"[["k0",["a1",0.9],null],["k1","a2",["b2",0.25]]]"#,
        r#"[[["k2",1],"a3","b3"],["k0","a1",[null,0.125]]]"#,
        r#"[["k1",null,"b2"],[["k4",0.7],["a1",0.3],["b7",0]]]"#,
        r#"[["k5","a1","b5"],[null,"a9","b6"]]"#,
    ]
    .map(|rows| {
        obj(vec![
            ("op", Json::str("ingest")),
            ("relation", Json::str("tran")),
            ("rows", Json::parse(rows).unwrap()),
        ])
    });
    let serve = |snapshot_every: u64| -> PathBuf {
        let dir = scratch_dir(&format!("history-{snapshot_every}"));
        with_daemon(durable_config(&dir, snapshot_every), |c| {
            assert_ok(&c.rpc(&open_request("tran")));
            for req in &batches[..3] {
                assert_ok(&c.rpc(req));
            }
        });
        // A recovered tenant compacts the same history a live one does.
        with_daemon(durable_config(&dir, snapshot_every), |c| {
            assert_ok(&c.rpc(&batches[3]));
        });
        dir.join(tenant_dir_name("tran"))
    };

    let wal = read_wal(&serve(0).join("wal.log")).unwrap();
    assert_eq!(wal.batches.len(), 4);
    let logged: Vec<Json> = wal
        .batches
        .iter()
        .flat_map(|b| b.rows.as_arr().unwrap().to_vec())
        .collect();
    let logged = Json::Arr(logged).render();
    for shape in [
        r#"["a1",0.9]"#,
        r#"["a2",0.5]"#,
        "[null,0.5]",
        "[null,0.125]",
    ] {
        assert!(logged.contains(shape), "{shape} missing from {logged}");
    }

    for snapshot_every in [1, 2] {
        let snaps = load_snapshots(&serve(snapshot_every));
        assert_eq!(snaps[0].seq, 4, "snapshot_every {snapshot_every}");
        assert_eq!(
            snaps[0].base_rows.render(),
            logged,
            "snapshot_every {snapshot_every}"
        );
    }
}

/// A tenant directory exactly as the pre-`WalRecord` daemon (commit
/// 0333e8d) wrote it — snapshot at seq 2, WAL holding the open record and
/// batch 3 — recovers to the reference, and what this daemon then writes
/// back is the same format byte for byte: the compacted WAL is the
/// fixture's own open frame, and the new snapshot's history continues the
/// fixture's.
#[test]
fn parent_format_directory_recovers_and_round_trips() {
    const SNAPSHOT: &str = r#"{"version":1,"seq":2,"open":{"op":"open","relation":"tran","table":"data","attrs":["K","A","B"],"rules":"cfd fd: data([K] -> [A])\ncfd cc: data([A=a1] -> [B=b1])\nmd m: data[K] = m[K] -> data[B] <=> m[B]","master":{"table":"m","attrs":["K","B"],"rows":[["k0","b1"],["k1","b2"]]},"phase":"full","default_cf":0.5,"eta":0.8,"threads":1},"base_rows":[[["k0",0.5],["a1",0.5],["b9",0.5]],[["k1",0.5],["a2",0.5],["b2",0.5]],[["k2",0.5],["a3",0.5],["b3",0.5]],[["k0",0.5],["a1",0.5],["b8",0.5]]],"batches":2,"tuples_ingested":4,"fixes":3,"phase_seconds":[0.0000049000000000000005,0.000046141000000000004,0.000030027000000000002],"repaired":[[["k0",0.5,"-"],["a1",0.5,"-"],["b1",0.5,"R"]],[["k1",0.5,"-"],["a2",0.5,"-"],["b2",0.5,"-"]],[["k2",0.5,"-"],["a3",0.5,"-"],["b3",0.5,"-"]],[["k0",0.5,"-"],["a1",0.5,"-"],["b1",0.5,"R"]]],"cost":0.5}"#;
    const WAL_OPEN: &str = r#"{"kind":"open","spec":{"op":"open","relation":"tran","table":"data","attrs":["K","A","B"],"rules":"cfd fd: data([K] -> [A])\ncfd cc: data([A=a1] -> [B=b1])\nmd m: data[K] = m[K] -> data[B] <=> m[B]","master":{"table":"m","attrs":["K","B"],"rows":[["k0","b1"],["k1","b2"]]},"phase":"full","default_cf":0.5,"eta":0.8,"threads":1}}"#;
    const WAL_BATCH_3: &str = r#"{"kind":"batch","seq":3,"rows":[[["k1",0.5],["a2",0.5],["b2",0.5]],[["k4",0.5],["a1",0.5],["b7",0.5]]]}"#;
    let frame = |payload: &str| {
        let mut raw = Vec::new();
        encode_frame(payload.as_bytes(), &mut raw);
        raw
    };
    let dir = scratch_dir("parent-format");
    let tenant_dir = dir.join(tenant_dir_name("tran"));
    std::fs::create_dir_all(&tenant_dir).unwrap();
    std::fs::write(tenant_dir.join("snapshot.json"), frame(SNAPSHOT)).unwrap();
    std::fs::write(
        tenant_dir.join("wal.log"),
        [frame(WAL_OPEN), frame(WAL_BATCH_3)].concat(),
    )
    .unwrap();

    with_daemon(durable_config(&dir, 2), |c| {
        let ping = c.rpc(&obj(vec![("op", Json::str("ping"))]));
        let recovery = ping.get("recovery").expect("recovery report");
        for (key, want) in [
            ("relations", 1),
            ("snapshots_used", 1),
            ("batches_replayed", 1),
            ("torn_tails", 0),
        ] {
            assert_eq!(
                recovery.get(key).and_then(Json::as_usize),
                Some(want),
                "{key}: {recovery}"
            );
        }
        assert_eq!(dump_rows_cost(c, "tran"), reference_prefix(3));
        // One replayed + one new batch reach the cadence: compaction.
        assert_ok(&c.rpc(&ingest_request("tran", BATCHES[3])));
        assert_eq!(dump_rows_cost(c, "tran"), reference_prefix(4));
    });

    assert_eq!(
        std::fs::read(tenant_dir.join("wal.log")).unwrap(),
        frame(WAL_OPEN),
        "the compacted WAL is the open frame, unchanged"
    );
    let snaps = load_snapshots(&tenant_dir);
    assert_eq!(snaps.iter().map(|s| s.seq).collect::<Vec<_>>(), [4, 2]);
    let old_history = snaps[1].base_rows.render();
    let new_rows = concat!(
        r#"[["k1",0.5],["a2",0.5],["b2",0.5]],[["k4",0.5],["a1",0.5],["b7",0.5]],"#,
        r#"[["k5",0.5],["a1",0.5],["b5",0.5]],[["k0",0.5],["a9",0.5],["b6",0.5]]"#
    );
    assert_eq!(
        snaps[0].base_rows.render(),
        format!("{},{new_rows}]", old_history.strip_suffix(']').unwrap()),
    );
}

/// Build the WAL-only template once: 4 acknowledged batches, clean
/// shutdown. Returns the tenant dir's WAL bytes.
fn wal_template() -> &'static (PathBuf, Vec<u8>) {
    static TEMPLATE: std::sync::OnceLock<(PathBuf, Vec<u8>)> = std::sync::OnceLock::new();
    TEMPLATE.get_or_init(|| {
        let dir = scratch_dir("wal-template");
        serve_prefix(&dir, 0, 4);
        let wal_path = dir.join(tenant_dir_name("tran")).join("wal.log");
        let bytes = std::fs::read(&wal_path).expect("read template WAL");
        (dir, bytes)
    })
}

/// Corrupt-or-truncate the template WAL at an arbitrary offset, boot a
/// daemon on it, and require the recovered state to equal the serial
/// reference of exactly the longest valid batch prefix (or a quarantined
/// tenant when the open record itself is destroyed). Reboot once more to
/// check the physical truncation left a self-consistent log.
fn check_corruption(case: &str, offset: usize, truncate: bool) {
    let (_, template) = wal_template();
    let mut bytes = template.clone();
    if truncate {
        bytes.truncate(offset);
    } else {
        bytes[offset] ^= 0x40;
    }

    let dir = scratch_dir(&format!("corrupt-{case}"));
    let tenant_dir = dir.join(tenant_dir_name("tran"));
    std::fs::create_dir_all(&tenant_dir).unwrap();
    let wal_path = tenant_dir.join("wal.log");
    std::fs::write(&wal_path, &bytes).unwrap();

    // Ground truth for what recovery *should* keep, computed before any
    // daemon touches the file.
    let contents = read_wal(&wal_path).unwrap();
    let expect_prefix = contents.batches.len();
    assert!(
        contents.valid_len <= bytes.len() as u64,
        "{case}: valid prefix cannot exceed the file"
    );

    for generation in ["boot", "reboot"] {
        let label = format!("{case}/{generation}");
        with_daemon(durable_config(&dir, 0), |c| {
            let ping = c.rpc(&obj(vec![("op", Json::str("ping"))]));
            let recovery = ping.get("recovery").expect("recovery report");
            if contents.open.is_none() {
                // The open record itself was destroyed: the tenant is
                // unrecoverable and must be quarantined, not wedged.
                assert_eq!(
                    recovery
                        .get("quarantined")
                        .and_then(Json::as_arr)
                        .map(<[Json]>::len),
                    Some(if generation == "boot" { 1 } else { 0 }),
                    "{label}: {recovery}"
                );
                let r = c.rpc(&obj(vec![
                    ("op", Json::str("check")),
                    ("relation", Json::str("tran")),
                ]));
                assert_eq!(
                    r.get("code").and_then(Json::as_str),
                    Some("unknown_relation"),
                    "{label}: {r}"
                );
                return;
            }
            let (expect_rows, expect_cost) = reference_prefix(expect_prefix);
            let (rows, cost) = dump_rows_cost(c, "tran");
            assert_eq!(
                rows, expect_rows,
                "{label}: recovered prefix diverged (expected {expect_prefix} batches)"
            );
            assert_eq!(cost, expect_cost, "{label}: cost diverged");
        });
        if contents.open.is_none() {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary single-byte corruption anywhere in the WAL.
    #[test]
    fn corrupted_wal_recovers_longest_valid_prefix(frac in 0usize..1000) {
        let len = wal_template().1.len();
        let offset = frac * len / 1000;
        check_corruption(&format!("flip-{offset}"), offset.min(len - 1), false);
    }

    /// Arbitrary truncation (a torn tail from a crash mid-append).
    #[test]
    fn truncated_wal_recovers_longest_valid_prefix(frac in 0usize..1000) {
        let len = wal_template().1.len();
        let offset = frac * len / 1000;
        check_corruption(&format!("trunc-{offset}"), offset.min(len), true);
    }
}

/// Frame boundaries are where torn tails actually land: exercise the
/// exact edges (header start, checksum bytes, payload start/end) of every
/// frame deterministically, on top of the proptest sweep.
#[test]
fn corruption_at_every_frame_boundary() {
    let (_, template) = wal_template();
    // Reconstruct the frame layout from the valid template.
    let mut offsets = vec![0usize];
    {
        let mut pos = 0usize;
        while pos + 12 <= template.len() {
            let len = u32::from_le_bytes(template[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 12 + len;
            offsets.push(pos.min(template.len()));
        }
    }
    for (i, &edge) in offsets.iter().enumerate() {
        for delta in [0usize, 4, 12, 13] {
            let offset = edge + delta;
            if offset < template.len() {
                check_corruption(&format!("edge{i}-flip{delta}"), offset, false);
            }
            if offset <= template.len() {
                check_corruption(&format!("edge{i}-trunc{delta}"), offset, true);
            }
        }
    }
}

// ---------------------------------------------------------------------------

/// The real thing: SIGKILL the spawned `uniclean serve` binary mid-ingest
/// and require the restarted daemon to recover exactly the acknowledged
/// prefix — or the acknowledged prefix plus the in-flight batch when the
/// kill landed after its fsync. Nothing else is acceptable.
#[test]
fn sigkill_mid_ingest_recovers_acked_state() {
    let dir = scratch_dir("sigkill");
    for (round, kill_delay_ms) in [0u64, 15, 40].iter().enumerate() {
        let round_dir = dir.join(format!("round{round}"));
        std::fs::create_dir_all(&round_dir).unwrap();
        let (mut child, addr, _stdout) = spawn_serve(&round_dir, 2, "");

        let mut c = Client::connect(addr);
        assert_ok(&c.rpc(&open_request("tran")));
        assert_ok(&c.rpc(&ingest_request("tran", BATCHES[0])));
        assert_ok(&c.rpc(&ingest_request("tran", BATCHES[1])));
        // Fire the third batch and kill without waiting for the ack: the
        // kill lands before decode, mid-apply, around the fsync, or after
        // the ack — all must recover to an acknowledged-consistent state.
        c.send_only(&ingest_request("tran", BATCHES[2]));
        std::thread::sleep(std::time::Duration::from_millis(*kill_delay_ms));
        child.kill().expect("SIGKILL the daemon");
        child.wait().expect("reap the daemon");
        drop(c);

        let (acked_rows, acked_cost) = reference_prefix(2);
        let (inflight_rows, inflight_cost) = reference_prefix(3);
        with_daemon(durable_config(&round_dir, 2), |c| {
            let (rows, cost) = dump_rows_cost(c, "tran");
            let acked = rows == acked_rows && cost == acked_cost;
            let inflight = rows == inflight_rows && cost == inflight_cost;
            assert!(
                acked || inflight,
                "round {round}: recovered state is neither the acked prefix \
                 nor acked+in-flight\n{rows}"
            );
            // The recovered daemon keeps serving: one more batch lands on
            // the reference for whichever prefix survived.
            let survived = if inflight { 3 } else { 2 };
            assert_ok(&c.rpc(&ingest_request("tran", BATCHES[survived])));
        });
    }
}
