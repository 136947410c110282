//! Fixtures shared by the daemon suites (`server`, `server_durability`,
//! `fault_injection`, `replication`): one scenario, one line-JSON test
//! client, one serial in-process reference.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};

use uniclean::model::json::{relation_to_json, Json};
use uniclean::model::{Relation, Schema, Tuple};
use uniclean::rules::{parse_rules, RuleSet};
use uniclean::server::{Daemon, DaemonConfig};
use uniclean::{CleanConfig, Cleaner, MasterSource, Phase};

/// The shared scenario: a variable FD, a constant CFD and an MD against
/// two master tuples — every phase exercised.
pub const RULES: &str = "cfd fd: data([K] -> [A])\n\
                         cfd cc: data([A=a1] -> [B=b1])\n\
                         md m: data[K] = m[K] -> data[B] <=> m[B]";

/// The four batches the durability and replication suites serve: FD
/// groups (shared keys), constant CFD hits (a1), MD hits against the
/// master (k0, k1).
pub const BATCHES: [&[[&str; 3]]; 4] = [
    &[["k0", "a1", "b9"], ["k1", "a2", "b2"]],
    &[["k2", "a3", "b3"], ["k0", "a1", "b8"]],
    &[["k1", "a2", "b2"], ["k4", "a1", "b7"]],
    &[["k5", "a1", "b5"], ["k0", "a9", "b6"]],
];

/// One line-oriented protocol client.
pub struct Client {
    pub writer: TcpStream,
    pub reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            writer: stream,
            reader,
        }
    }

    /// Send one raw line, read one response line.
    pub fn raw(&mut self, line: &str) -> Json {
        self.send_line(line);
        self.read_response()
    }

    /// Send a request without waiting for its response (pipelining, and
    /// firing a batch into a kill window).
    pub fn send_only(&mut self, req: &Json) {
        self.send_line(&req.render());
    }

    fn send_line(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write request");
        self.writer.flush().expect("flush request");
    }

    pub fn read_response(&mut self) -> Json {
        self.try_read_response()
            .expect("response arrives and parses")
    }

    /// Read one line, tolerating the peer dying instead (kill windows).
    pub fn try_read_response(&mut self) -> Option<Json> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Json::parse(&line).ok(),
        }
    }

    pub fn rpc(&mut self, req: &Json) -> Json {
        self.raw(&req.render())
    }
}

pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The `open` request of the shared scenario.
pub fn open_request(relation: &str) -> Json {
    obj(vec![
        ("op", Json::str("open")),
        ("relation", Json::str(relation)),
        ("table", Json::str("data")),
        (
            "attrs",
            Json::Arr(vec![Json::str("K"), Json::str("A"), Json::str("B")]),
        ),
        ("rules", Json::str(RULES)),
        (
            "master",
            obj(vec![
                ("table", Json::str("m")),
                ("attrs", Json::Arr(vec![Json::str("K"), Json::str("B")])),
                (
                    "rows",
                    Json::Arr(vec![
                        Json::Arr(vec![Json::str("k0"), Json::str("b1")]),
                        Json::Arr(vec![Json::str("k1"), Json::str("b2")]),
                    ]),
                ),
            ]),
        ),
        ("phase", Json::str("full")),
        ("default_cf", Json::Num(0.5)),
        ("eta", Json::Num(0.8)),
    ])
}

pub fn rows_json(rows: &[[&str; 3]]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| Json::Arr(r.iter().map(|v| Json::str(*v)).collect()))
            .collect(),
    )
}

pub fn ingest_request(relation: &str, rows: &[[&str; 3]]) -> Json {
    obj(vec![
        ("op", Json::str("ingest")),
        ("relation", Json::str(relation)),
        ("rows", rows_json(rows)),
    ])
}

/// [`ingest_request`] carrying a client exactly-once sequence number.
pub fn ingest_request_seq(relation: &str, rows: &[[&str; 3]], seq: u64) -> Json {
    let Json::Obj(mut pairs) = ingest_request(relation, rows) else {
        unreachable!("an ingest request is an object")
    };
    pairs.push(("seq".to_string(), Json::Num(seq as f64)));
    Json::Obj(pairs)
}

pub fn assert_ok(resp: &Json) -> &Json {
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    resp
}

pub fn assert_code(resp: &Json, code: &str) {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(false),
        "{resp}"
    );
    assert_eq!(
        resp.get("code").and_then(Json::as_str),
        Some(code),
        "{resp}"
    );
}

/// The in-process twin of [`open_request`]'s session.
pub fn reference_cleaner() -> Cleaner {
    let data = Schema::of_strings("data", &["K", "A", "B"]);
    let m = Schema::of_strings("m", &["K", "B"]);
    let parsed = parse_rules(RULES, &data, Some(&m)).unwrap();
    let rules = RuleSet::new(
        data,
        Some(m.clone()),
        parsed.cfds,
        parsed.positive_mds,
        parsed.negative_mds,
    );
    let master = Relation::new(
        m,
        vec![
            Tuple::of_strs(&["k0", "b1"], 1.0),
            Tuple::of_strs(&["k1", "b2"], 1.0),
        ],
    );
    Cleaner::builder()
        .rules(rules)
        .master(MasterSource::external(master))
        .config(CleanConfig {
            eta: 0.8,
            ..CleanConfig::default()
        })
        .build()
        .unwrap()
}

pub fn tuples(rows: &[[&str; 3]]) -> Vec<Tuple> {
    rows.iter().map(|r| Tuple::of_strs(r, 0.5)).collect()
}

/// Serial reference dump (`rows` JSON render + cost) of the given
/// [`BATCHES`] indices, applied in order — what any recovered, replicated
/// or promoted node must reproduce bit for bit.
pub fn reference_for(batch_indices: &[usize]) -> (String, f64) {
    let cleaner = reference_cleaner();
    let mut state = cleaner.begin_empty(Phase::Full);
    for &i in batch_indices {
        cleaner
            .clean_delta(&mut state, &tuples(BATCHES[i]))
            .unwrap();
    }
    (relation_to_json(state.repaired()).render(), state.cost())
}

/// The `rows` render and cost of a `dump`.
pub fn dump_rows_cost(c: &mut Client, relation: &str) -> (String, f64) {
    let d = c.rpc(&obj(vec![
        ("op", Json::str("dump")),
        ("relation", Json::str(relation)),
    ]));
    assert_ok(&d);
    (
        d.get("rows").unwrap().render(),
        d.get("cost").and_then(Json::as_f64).unwrap(),
    )
}

/// A fresh scratch directory under the system temp dir (no tempfile
/// crate in this workspace): unique per test process and label, wiped on
/// entry.
pub fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uniclean-test-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A durable two-shard daemon config on an ephemeral port.
pub fn durable_config(data_dir: &Path, snapshot_every: u64) -> DaemonConfig {
    DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 2,
        queue_bound: 16,
        data_dir: Some(data_dir.to_path_buf()),
        snapshot_every,
        fsync: true,
        ..DaemonConfig::default()
    }
}

/// An in-process daemon: its address, and the thread whose join observes
/// the run loop's exit.
pub struct Node {
    pub addr: SocketAddr,
    pub handle: std::thread::JoinHandle<std::io::Result<()>>,
}

pub fn spawn_daemon(config: DaemonConfig) -> Node {
    let daemon = Daemon::bind(config).expect("bind ephemeral port");
    let addr = daemon.local_addr();
    let handle = std::thread::spawn(move || daemon.run());
    Node { addr, handle }
}

/// Send `shutdown` and wait for the run loop to drain and exit.
pub fn shutdown_node(node: Node) {
    let mut c = Client::connect(node.addr);
    assert_ok(&c.rpc(&obj(vec![("op", Json::str("shutdown"))])));
    drop(c);
    node.handle.join().unwrap().unwrap();
}

/// Boot a daemon, run `body` against it, shut it down cleanly.
pub fn with_daemon<T>(config: DaemonConfig, body: impl FnOnce(&mut Client) -> T) -> T {
    let node = spawn_daemon(config);
    let mut c = Client::connect(node.addr);
    let out = body(&mut c);
    drop(c);
    shutdown_node(node);
    out
}

/// Spawn the real `uniclean serve` binary on `data_dir` with
/// `UNICLEAN_FAILPOINTS=failpoints` (empty arms nothing). Returns the
/// child, its address, and its stdout reader — hold the reader until
/// after `wait`: dropping the pipe would EPIPE the daemon's shutdown
/// banner.
pub fn spawn_serve(
    data_dir: &Path,
    snapshot_every: u64,
    failpoints: &str,
) -> (
    std::process::Child,
    SocketAddr,
    BufReader<std::process::ChildStdout>,
) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_uniclean"))
        .args(["serve", "--addr", "127.0.0.1:0", "--shards", "2"])
        .arg("--data-dir")
        .arg(data_dir)
        .args(["--snapshot-every", &snapshot_every.to_string()])
        .env("UNICLEAN_FAILPOINTS", failpoints)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn uniclean serve");
    let mut lines = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    lines.read_line(&mut banner).unwrap();
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|r| r.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
        .parse()
        .unwrap();
    (child, addr, lines)
}
