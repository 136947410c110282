//! The line-delimited JSON wire protocol.
//!
//! One request object per line, one response object per line. Every
//! request carries an `"op"`; every response carries `"ok"`. Failures are
//! structured: `{"ok":false,"code":"...","error":"human text", ...}`,
//! with machine-matchable codes (`busy`, `unknown_relation`,
//! `bad_batch`, `rule_parse`, `foreign_state`, …).
//!
//! Verbs:
//!
//! | op | effect |
//! |---|---|
//! | `open` | register a relation: rules text, optional master, config |
//! | `ingest` | append a tuple batch through `clean_delta` (via the owning shard) |
//! | `check` | per-relation or per-tuple acceptance, online (no phase runs) |
//! | `dump` | the repaired relation as `[value, cf, "mark"]` cell triples |
//! | `stats` | per-shard queue counters + per-relation serving stats |
//! | `ping` (alias `health`) | liveness: uptime, tenant/shard counts, recovery report — never mutates, answers even mid-shutdown |
//! | `close` | drop a relation (serialized after its pending ingests); idempotent — a second close answers `already_closed` |
//! | `shutdown` | stop accepting, drain every shard queue, exit; idempotent — a second shutdown answers `shutting_down` |
//! | `hello` | protocol negotiation: client sends its `proto_version`, server answers its own version range and role |
//! | `promote` | flip a standby into a serving primary after draining its apply queue |
//! | `repl_list` / `repl_fetch` / `repl_ack` | the standby-side pull replication verbs ([`crate::replication`]) |
//!
//! Forward compatibility: every parser here reads fields by name and
//! ignores unknown members, so newer clients can decorate requests with
//! extra keys without breaking older servers; `hello` makes the version
//! skew explicit.

use uniclean_core::{CleanError, Phase};
use uniclean_model::{Json, JsonError};

/// The protocol version this build speaks. Version history:
///
/// * 1 — the PR 7 serving verbs (`open` … `shutdown`).
/// * 2 — adds `hello`, exactly-once ingest `seq`, replication
///   (`repl_list`/`repl_fetch`/`repl_ack`) and `promote`.
pub const PROTO_VERSION: u64 = 2;

/// The oldest client protocol version this build still serves. Version-1
/// clients (which never send `hello`) keep working unchanged.
pub const MIN_PROTO_VERSION: u64 = 1;

/// A parsed request line.
#[derive(Debug)]
pub enum Request {
    /// Register a relation.
    Open(Box<OpenSpec>),
    /// Append a batch (rows kept as JSON until the tenant's schema and
    /// default confidence are known).
    Ingest {
        /// Target relation.
        relation: String,
        /// The `"rows"` payload, decoded per-tenant later.
        rows: Json,
        /// Optional client-supplied monotonic sequence number. The WAL
        /// records it and replay/retry deduplicates on it, which is what
        /// makes retried ingests exactly-once.
        seq: Option<u64>,
    },
    /// Acceptance query; `tuple` picks one tuple, `None` asks for the
    /// relation-level verdict.
    Check {
        /// Target relation.
        relation: String,
        /// Optional tuple index.
        tuple: Option<usize>,
    },
    /// Dump the repaired relation.
    Dump {
        /// Target relation.
        relation: String,
    },
    /// Serving statistics; `relation` narrows to one tenant.
    Stats {
        /// Optional relation filter.
        relation: Option<String>,
    },
    /// Liveness probe: uptime, tenant/shard counts, recovery status.
    Ping,
    /// Drop a relation.
    Close {
        /// Target relation.
        relation: String,
    },
    /// Graceful daemon shutdown.
    Shutdown,
    /// Protocol negotiation. Absent `proto_version` means a pre-`hello`
    /// version-1 client.
    Hello {
        /// The client's claimed protocol version.
        proto_version: Option<u64>,
    },
    /// Flip a standby into a serving primary (drains the apply queue
    /// first). Answers `not_standby` on a primary.
    Promote,
    /// Replication: enumerate durable tenants with their WAL positions.
    ReplList,
    /// Replication: fetch WAL frames (or a snapshot) for one tenant.
    ReplFetch {
        /// Target relation.
        relation: String,
        /// Return frames with WAL seq strictly greater than this.
        after: u64,
        /// Cap on frames per response (batching knob).
        max_frames: usize,
    },
    /// Replication: the standby reports its applied offset (doubles as a
    /// heartbeat).
    ReplAck {
        /// Target relation.
        relation: String,
        /// Highest primary WAL seq the standby has durably applied.
        seq: u64,
    },
}

/// Everything `open` needs to build a tenant.
#[derive(Debug)]
pub struct OpenSpec {
    /// Tenant name (the wire handle; also the shard-placement key).
    pub relation: String,
    /// Data schema name the rules are authored against (default `data`).
    pub table: String,
    /// Data schema attributes, in order.
    pub attrs: Vec<String>,
    /// Rule text in the parser grammar (`cfd …` / `md …` / `neg …` lines).
    pub rules: String,
    /// Master spec: `None` for CFD-only cleaning.
    pub master: Option<MasterSpec>,
    /// Phase prefix to run per batch (`"c"`, `"ce"`, `"full"`).
    pub phase: Phase,
    /// Confidence for ingested cells sent without an explicit `cf`.
    pub default_cf: f64,
    /// Confidence threshold override (η).
    pub eta: Option<f64>,
    /// Entropy threshold override (δ2).
    pub delta_entropy: Option<f64>,
}

/// The `"master"` member of an `open` request.
#[derive(Debug)]
pub struct MasterSpec {
    /// Master schema name.
    pub table: String,
    /// Master schema attributes, in order.
    pub attrs: Vec<String>,
    /// Master rows (absent ⇒ self-snapshot matching).
    pub rows: Option<Json>,
}

/// Parse one request line. `Err` carries the ready-to-send error
/// response, so the connection loop just writes it back.
pub fn parse_request(line: &str) -> Result<Request, Json> {
    let doc = Json::parse(line).map_err(|e| json_error("malformed", &e))?;
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| error("bad_request", "every request needs a string \"op\""))?;
    match op {
        "open" => Ok(Request::Open(Box::new(parse_open(&doc)?))),
        "ingest" => Ok(Request::Ingest {
            relation: need_relation(&doc)?,
            rows: doc
                .get("rows")
                .cloned()
                .ok_or_else(|| error("bad_request", "ingest needs \"rows\""))?,
            seq: opt_u64(&doc, "seq")?,
        }),
        "check" => {
            let tuple = match doc.get("tuple") {
                None => None,
                Some(t) => Some(t.as_usize().ok_or_else(|| {
                    error("bad_request", "\"tuple\" must be a non-negative integer")
                })?),
            };
            Ok(Request::Check {
                relation: need_relation(&doc)?,
                tuple,
            })
        }
        "dump" => Ok(Request::Dump {
            relation: need_relation(&doc)?,
        }),
        "stats" => {
            let relation = match doc.get("relation") {
                None => None,
                Some(r) => Some(
                    r.as_str()
                        .ok_or_else(|| error("bad_request", "\"relation\" must be a string"))?
                        .to_string(),
                ),
            };
            Ok(Request::Stats { relation })
        }
        "ping" | "health" => Ok(Request::Ping),
        "close" => Ok(Request::Close {
            relation: need_relation(&doc)?,
        }),
        "shutdown" => Ok(Request::Shutdown),
        "hello" => Ok(Request::Hello {
            proto_version: opt_u64(&doc, "proto_version")?,
        }),
        "promote" => Ok(Request::Promote),
        "repl_list" => Ok(Request::ReplList),
        "repl_fetch" => Ok(Request::ReplFetch {
            relation: need_relation(&doc)?,
            after: opt_u64(&doc, "after")?.unwrap_or(0),
            max_frames: match doc.get("max_frames") {
                None => crate::replication::DEFAULT_FETCH_FRAMES,
                Some(v) => v.as_usize().filter(|&n| n >= 1).ok_or_else(|| {
                    error("bad_request", "\"max_frames\" must be a positive integer")
                })?,
            },
        }),
        "repl_ack" => Ok(Request::ReplAck {
            relation: need_relation(&doc)?,
            seq: opt_u64(&doc, "seq")?
                .ok_or_else(|| error("bad_request", "repl_ack needs an integer \"seq\""))?,
        }),
        other => Err(error("unknown_op", format!("unknown op {other:?}"))),
    }
}

fn need_relation(doc: &Json) -> Result<String, Json> {
    doc.get("relation")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| error("bad_request", "request needs a string \"relation\""))
}

/// An optional non-negative integer field (`None` when absent).
fn opt_u64(doc: &Json, key: &str) -> Result<Option<u64>, Json> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            error(
                "bad_request",
                format!("\"{key}\" must be a non-negative integer"),
            )
        }),
    }
}

/// Parse an `open` request document into its spec. Also the decoder for
/// the `open` documents the WAL and snapshots store, which is why it is
/// crate-visible: recovery rebuilds sessions through the same path the
/// wire uses.
pub(crate) fn parse_open(doc: &Json) -> Result<OpenSpec, Json> {
    let relation = need_relation(doc)?;
    let table = match doc.get("table") {
        None => "data".to_string(),
        Some(t) => t
            .as_str()
            .ok_or_else(|| error("bad_request", "\"table\" must be a string"))?
            .to_string(),
    };
    let attrs = string_list(doc, "attrs")?
        .ok_or_else(|| error("bad_request", "open needs an \"attrs\" array of strings"))?;
    if attrs.is_empty() {
        return Err(error("bad_request", "\"attrs\" must not be empty"));
    }
    let rules = doc
        .get("rules")
        .and_then(Json::as_str)
        .ok_or_else(|| error("bad_request", "open needs a string \"rules\""))?
        .to_string();
    let master = match doc.get("master") {
        None | Some(Json::Null) => None,
        Some(m) => {
            let table = m
                .get("table")
                .and_then(Json::as_str)
                .ok_or_else(|| error("bad_request", "\"master\" needs a string \"table\""))?
                .to_string();
            let attrs = string_list(m, "attrs")?.ok_or_else(|| {
                error(
                    "bad_request",
                    "\"master\" needs an \"attrs\" array of strings",
                )
            })?;
            let rows = match m.get("rows") {
                None | Some(Json::Null) => None,
                Some(rows @ Json::Arr(_)) => Some(rows.clone()),
                Some(_) => {
                    return Err(error("bad_request", "\"master\".\"rows\" must be an array"))
                }
            };
            Some(MasterSpec { table, attrs, rows })
        }
    };
    let phase = match doc.get("phase") {
        None => Phase::Full,
        Some(p) => match p.as_str() {
            Some("c") => Phase::CRepair,
            Some("ce") => Phase::CERepair,
            Some("full") => Phase::Full,
            _ => {
                return Err(error(
                    "bad_request",
                    "\"phase\" must be \"c\", \"ce\" or \"full\"",
                ))
            }
        },
    };
    let default_cf = match doc.get("default_cf") {
        None => 0.5,
        Some(v) => v
            .as_f64()
            .filter(|cf| (0.0..=1.0).contains(cf))
            .ok_or_else(|| error("bad_request", "\"default_cf\" must be a number in [0,1]"))?,
    };
    let num_field = |key: &'static str| -> Result<Option<f64>, Json> {
        match doc.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| error("bad_request", format!("\"{key}\" must be a number"))),
        }
    };
    let eta = num_field("eta")?;
    let delta_entropy = num_field("delta_entropy")?;
    // A clean runs on one engine thread, so `threads` is ignored. It is
    // still validated: logs and snapshots written by older builds carry it
    // in their open records, and clients still send it.
    if let Some(v) = doc.get("threads") {
        v.as_usize()
            .filter(|&t| t >= 1)
            .ok_or_else(|| error("bad_request", "\"threads\" must be a positive integer"))?;
    }
    Ok(OpenSpec {
        relation,
        table,
        attrs,
        rules,
        master,
        phase,
        default_cf,
        eta,
        delta_entropy,
    })
}

fn string_list(doc: &Json, key: &str) -> Result<Option<Vec<String>>, Json> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => {
            let items = v
                .as_arr()
                .ok_or_else(|| error("bad_request", format!("\"{key}\" must be an array")))?;
            items
                .iter()
                .map(|i| {
                    i.as_str().map(str::to_string).ok_or_else(|| {
                        error("bad_request", format!("\"{key}\" must contain strings"))
                    })
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Some)
        }
    }
}

// ---------------------------------------------------------------------------
// Response builders.
// ---------------------------------------------------------------------------

/// A JSON object from borrowed keys, in the given order.
pub(crate) fn obj(fields: Vec<(&str, Json)>) -> Json {
    let owned = fields.into_iter().map(|(k, v)| (k.to_string(), v));
    Json::Obj(owned.collect())
}

/// `{"ok":true, ...fields}`.
pub(crate) fn ok(mut fields: Vec<(&str, Json)>) -> Json {
    fields.insert(0, ("ok", Json::Bool(true)));
    obj(fields)
}

/// `{"ok":false,"code":code,"error":msg}`.
pub(crate) fn error(code: &str, msg: impl Into<String>) -> Json {
    error_with(code, msg, Vec::new())
}

/// [`error`] with extra structured fields (e.g. `queue_depth` on `busy`).
pub(crate) fn error_with(code: &str, msg: impl Into<String>, extra: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![
        ("ok", Json::Bool(false)),
        ("code", Json::str(code)),
        ("error", Json::Str(msg.into())),
    ];
    pairs.extend(extra);
    obj(pairs)
}

/// A [`JsonError`] as a structured response under the given code (syntax
/// errors override to `malformed`).
pub(crate) fn json_error(code: &str, e: &JsonError) -> Json {
    match e {
        JsonError::Syntax { .. } => error("malformed", e.to_string()),
        JsonError::Shape(_) => error(code, e.to_string()),
    }
}

/// The machine-matchable code for an engine error.
pub(crate) fn clean_error_code(e: &CleanError) -> &'static str {
    match e {
        CleanError::MissingRules => "bad_request",
        CleanError::Config(_) => "bad_config",
        CleanError::MdsWithoutMaster => "mds_without_master",
        CleanError::MasterSchemaMismatch { .. } => "master_schema_mismatch",
        CleanError::MissingSelfSchema | CleanError::SelfSchemaMismatch { .. } => {
            "self_schema_mismatch"
        }
        CleanError::Parse(_) => "rule_parse",
        CleanError::Rules(_) => "bad_rules",
        CleanError::ForeignState => "foreign_state",
        CleanError::BatchArityMismatch { .. } => "batch_arity",
        CleanError::Model(_) => "bad_batch",
    }
}

/// An engine error as a structured response.
pub(crate) fn clean_error(e: &CleanError) -> Json {
    error(clean_error_code(e), e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        let open = parse_request(
            r#"{"op":"open","relation":"r","attrs":["a"],"rules":"","phase":"ce","threads":2}"#,
        )
        .unwrap();
        match open {
            Request::Open(spec) => {
                assert_eq!(spec.relation, "r");
                assert_eq!(spec.table, "data");
                assert_eq!(spec.phase, Phase::CERepair);
                assert_eq!(spec.default_cf, 0.5);
                assert!(spec.master.is_none());
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_request(r#"{"op":"ingest","relation":"r","rows":[]}"#).unwrap(),
            Request::Ingest { .. }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"check","relation":"r","tuple":3}"#).unwrap(),
            Request::Check { tuple: Some(3), .. }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#).unwrap(),
            Request::Stats { relation: None }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"dump","relation":"r"}"#).unwrap(),
            Request::Dump { .. }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"close","relation":"r"}"#).unwrap(),
            Request::Close { .. }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        ));
        assert!(matches!(
            parse_request(r#"{"op":"ping"}"#).unwrap(),
            Request::Ping
        ));
        assert!(matches!(
            parse_request(r#"{"op":"health"}"#).unwrap(),
            Request::Ping
        ));
        assert!(matches!(
            parse_request(r#"{"op":"ingest","relation":"r","rows":[],"seq":9}"#).unwrap(),
            Request::Ingest { seq: Some(9), .. }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"hello","proto_version":2}"#).unwrap(),
            Request::Hello {
                proto_version: Some(2)
            }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"hello"}"#).unwrap(),
            Request::Hello {
                proto_version: None
            }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"promote"}"#).unwrap(),
            Request::Promote
        ));
        assert!(matches!(
            parse_request(r#"{"op":"repl_list"}"#).unwrap(),
            Request::ReplList
        ));
        match parse_request(r#"{"op":"repl_fetch","relation":"r","after":7,"max_frames":3}"#)
            .unwrap()
        {
            Request::ReplFetch {
                relation,
                after,
                max_frames,
            } => {
                assert_eq!(relation, "r");
                assert_eq!(after, 7);
                assert_eq!(max_frames, 3);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_request(r#"{"op":"repl_fetch","relation":"r"}"#).unwrap(),
            Request::ReplFetch {
                after: 0,
                max_frames: crate::replication::DEFAULT_FETCH_FRAMES,
                ..
            }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"repl_ack","relation":"r","seq":12}"#).unwrap(),
            Request::ReplAck { seq: 12, .. }
        ));
    }

    #[test]
    fn unknown_fields_are_ignored_everywhere() {
        // Forward compatibility: a future client may decorate any request
        // with members this build has never heard of.
        assert!(matches!(
            parse_request(r#"{"op":"ping","tracing_id":"abc","nested":{"x":[1,2]}}"#).unwrap(),
            Request::Ping
        ));
        assert!(matches!(
            parse_request(
                r#"{"op":"ingest","relation":"r","rows":[],"compression":"zstd","hint":9}"#
            )
            .unwrap(),
            Request::Ingest { seq: None, .. }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"hello","proto_version":99,"features":["tls"]}"#).unwrap(),
            Request::Hello {
                proto_version: Some(99)
            }
        ));
    }

    #[test]
    fn malformed_and_misshapen_requests_answer_with_codes() {
        let code = |line: &str| {
            parse_request(line)
                .unwrap_err()
                .get("code")
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        };
        assert_eq!(code("{"), "malformed");
        assert_eq!(code("[1,2]"), "bad_request");
        assert_eq!(code(r#"{"op":"frobnicate"}"#), "unknown_op");
        assert_eq!(code(r#"{"op":"ingest"}"#), "bad_request");
        assert_eq!(
            code(r#"{"op":"check","relation":"r","tuple":-1}"#),
            "bad_request"
        );
        assert_eq!(
            code(r#"{"op":"open","relation":"r","attrs":[],"rules":""}"#),
            "bad_request"
        );
        assert_eq!(
            code(r#"{"op":"open","relation":"r","attrs":["a"],"rules":"","phase":"x"}"#),
            "bad_request"
        );
        assert_eq!(
            code(r#"{"op":"open","relation":"r","attrs":["a"],"rules":"","default_cf":1.5}"#),
            "bad_request"
        );
        // `threads` is ignored but still validated.
        for threads in ["0", "-1", "1.5", "\"4\""] {
            assert_eq!(
                code(&format!(
                    r#"{{"op":"open","relation":"r","attrs":["a"],"rules":"","threads":{threads}}}"#
                )),
                "bad_request",
                "threads={threads}"
            );
        }
        assert_eq!(
            code(r#"{"op":"ingest","relation":"r","rows":[],"seq":-1}"#),
            "bad_request"
        );
        assert_eq!(code(r#"{"op":"repl_ack","relation":"r"}"#), "bad_request");
        assert_eq!(
            code(r#"{"op":"repl_fetch","relation":"r","max_frames":0}"#),
            "bad_request"
        );
        assert_eq!(
            code(r#"{"op":"hello","proto_version":"two"}"#),
            "bad_request"
        );
    }

    #[test]
    fn engine_errors_map_to_stable_codes() {
        assert_eq!(clean_error_code(&CleanError::ForeignState), "foreign_state");
        assert_eq!(
            clean_error_code(&CleanError::BatchArityMismatch {
                expected: 3,
                found: 2
            }),
            "batch_arity"
        );
        assert_eq!(
            clean_error_code(&CleanError::MdsWithoutMaster),
            "mds_without_master"
        );
        let resp = clean_error(&CleanError::ForeignState);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert!(resp
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("different Cleaner"));
    }
}
