//! Tenants and the relation registry.
//!
//! A `Tenant` is one hosted relation: the immutable session half (a
//! [`Cleaner`], whose `Arc<PreparedCleaner>` carries rules, master index
//! and config, built once at `open`) plus the mutable half (a live
//! [`RepairState`] and serving counters) behind an `RwLock`. Reads
//! (`check`, `dump`, `stats`) take the read lock on connection threads;
//! the owning shard worker takes the write lock for ingests, so a
//! relation's mutations are doubly serialized — by its shard queue and by
//! the lock.
//!
//! Two robustness surfaces live here. A tenant can be **poisoned**: a
//! panic inside its ingest (caught at the shard worker) or a WAL failure
//! flips a sticky flag, after which every verb on that relation answers a
//! structured `poisoned` error while other tenants keep serving — and
//! entry-lock accesses go through poison-tolerant helpers so a lock left
//! poisoned by the unwind can't cascade panics into connection threads.
//! A tenant can also carry a `Durable` handle — its WAL writer plus
//! compaction bookkeeping — when the daemon runs with `--data-dir`.

use std::collections::{HashMap, HashSet};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use uniclean_core::{
    CleanConfig, CleanError, CleanResult, Cleaner, MasterSource, Phase, RepairState,
};
use uniclean_model::json::batch_from_json;
use uniclean_model::{Json, Relation, Schema, Tuple};
use uniclean_rules::{parse_rules, RuleSet};

use crate::protocol::{clean_error, error, json_error, OpenSpec};
use crate::snapshot::sync_dir;
use crate::stats::{PhaseAccum, RelationStats};
use crate::wal::{WalWriter, WAL_FILE};
use crate::{shard_for, tenant_dir_name};

/// How the daemon persists tenants; `DaemonConfig::data_dir == None`
/// means no [`Durable`] handles are ever attached and everything below
/// is memory-only.
#[derive(Clone, Debug)]
pub(crate) struct DurabilityCfg {
    /// Root data directory; one subdirectory per tenant
    /// ([`tenant_dir_name`]).
    pub(crate) root: PathBuf,
    /// Snapshot + compact a tenant's WAL every this many logged batches
    /// (0 disables compaction; the WAL just grows).
    pub(crate) snapshot_every: u64,
    /// fsync WAL frames before acks and snapshot files before renames.
    pub(crate) fsync: bool,
}

/// A durable tenant's on-disk half: the open WAL writer plus the
/// bookkeeping compaction needs. Guarded by [`Tenant::durable`]; only
/// the owning shard worker (and startup recovery, before the tenant is
/// shared) touches it.
pub(crate) struct Durable {
    /// Append handle on `<dir>/wal.log`.
    pub(crate) wal: WalWriter,
    /// This tenant's directory under the data root.
    pub(crate) dir: PathBuf,
    /// The original `open` request document (frame 0 of every WAL
    /// generation, and the `open` member of every snapshot).
    pub(crate) open_doc: Json,
    /// Sequence number of the last logged batch.
    pub(crate) seq: u64,
    /// Batches logged since the last snapshot — compaction triggers when
    /// this reaches `snapshot_every`.
    pub(crate) since_snapshot: u64,
}

/// The mutable half of a tenant, guarded by [`Tenant::entry`].
pub(crate) struct TenantEntry {
    /// The live incremental state all ingests flow through.
    pub(crate) state: RepairState,
    /// Per-relation serving counters.
    pub(crate) stats: RelationStats,
    /// Highest client-supplied exactly-once sequence number applied; an
    /// incoming `ingest` at or below it is acknowledged as a duplicate
    /// without re-applying.
    pub(crate) last_client_seq: Option<u64>,
    /// Primary WAL sequence this state mirrors, when this node is (or
    /// was, pre-promotion) a tailing standby. The replication puller
    /// resumes fetching after this.
    pub(crate) repl_seq: Option<u64>,
}

impl TenantEntry {
    /// The entry of a tenant that has absorbed nothing yet.
    pub(crate) fn empty(cleaner: &Cleaner, phase: Phase) -> TenantEntry {
        TenantEntry {
            state: cleaner.begin_empty(phase),
            stats: RelationStats::default(),
            last_client_seq: None,
            repl_seq: None,
        }
    }

    /// Apply one batch and account for it: the crate's one call into the
    /// engine's delta path, and the one place the serving counters and
    /// the two sequence markers advance — for the live shard worker and
    /// for recovery's WAL replay alike. An engine rejection leaves the
    /// entry untouched (a batch is validated before any of it is absorbed).
    pub(crate) fn apply(
        &mut self,
        cleaner: &Cleaner,
        rows: &[Tuple],
        client_seq: Option<u64>,
        repl_seq: Option<u64>,
    ) -> Result<CleanResult, CleanError> {
        let mut accum = PhaseAccum::default();
        let result = cleaner.clean_delta_observed(&mut self.state, rows, &mut accum)?;
        let (d, r, p) = result.fix_counts();
        self.stats.batches += 1;
        self.stats.tuples_ingested += rows.len() as u64;
        self.stats.fixes += (d + r + p) as u64;
        for (slot, s) in self.stats.phase_seconds.iter_mut().zip(accum.seconds) {
            *slot += s;
        }
        // `None < Some(_)`: an absent marker leaves the high-water mark.
        self.last_client_seq = self.last_client_seq.max(client_seq);
        self.repl_seq = self.repl_seq.max(repl_seq);
        Ok(result)
    }
}

/// One hosted relation.
pub(crate) struct Tenant {
    /// Registry key and wire handle.
    pub(crate) name: String,
    /// Owning shard (`shard_for(name, shards)`).
    pub(crate) shard: usize,
    /// The immutable session: rules + master index + config, Arc-shared.
    pub(crate) cleaner: Cleaner,
    /// Confidence for ingested cells that arrive without an explicit `cf`.
    pub(crate) default_cf: f64,
    /// Live state + counters.
    pub(crate) entry: RwLock<TenantEntry>,
    /// Sticky failure flag: set after a caught ingest panic or a WAL
    /// error; every verb answers `poisoned` once set.
    pub(crate) poisoned: AtomicBool,
    /// Durability handle (`None` for a memory-only daemon).
    pub(crate) durable: Mutex<Option<Durable>>,
}

impl Tenant {
    /// Build a tenant from an `open` spec: schema → rules → master →
    /// cleaner → empty initial state. `Err` carries the ready-to-send
    /// error response.
    pub(crate) fn open(spec: &OpenSpec, shards: usize) -> Result<Tenant, Json> {
        let schema = Schema::of_strings(
            &spec.table,
            &spec.attrs.iter().map(String::as_str).collect::<Vec<_>>(),
        );
        let (master_schema, master_source) = match &spec.master {
            None => (None, MasterSource::None),
            Some(m) => {
                let ms = Schema::of_strings(
                    &m.table,
                    &m.attrs.iter().map(String::as_str).collect::<Vec<_>>(),
                );
                let source = match &m.rows {
                    // No rows ⇒ match against a snapshot of the data itself.
                    None => MasterSource::SelfSnapshot,
                    Some(rows) => {
                        // Master data is correct by assumption: cells sent
                        // without an explicit cf default to full confidence.
                        let tuples = batch_from_json(rows, ms.arity(), 1.0)
                            .map_err(|e| json_error("bad_request", &e))?;
                        let mut rel = Relation::empty(ms.clone());
                        for t in tuples {
                            rel.push(t);
                        }
                        MasterSource::External(Arc::new(rel))
                    }
                };
                (Some(ms), source)
            }
        };
        let parsed = parse_rules(&spec.rules, &schema, master_schema.as_ref())
            .map_err(|e| error("rule_parse", e.to_string()))?;
        let rules = RuleSet::try_new(
            schema,
            master_schema,
            parsed.cfds,
            parsed.positive_mds,
            parsed.negative_mds,
        )
        .map_err(|e| error("bad_rules", e.to_string()))?;
        let mut config = CleanConfig::default();
        if let Some(eta) = spec.eta {
            config.eta = eta;
        }
        if let Some(d2) = spec.delta_entropy {
            config.delta_entropy = d2;
        }
        if let Some(threads) = spec.threads {
            config.parallelism = NonZeroUsize::new(threads);
        }
        let cleaner = Cleaner::builder()
            .rules(rules)
            .master(master_source)
            .config(config)
            .build()
            .map_err(|e| clean_error(&e))?;
        let entry = TenantEntry::empty(&cleaner, spec.phase);
        Ok(Tenant {
            name: spec.relation.clone(),
            shard: shard_for(&spec.relation, shards),
            cleaner,
            default_cf: spec.default_cf,
            entry: RwLock::new(entry),
            poisoned: AtomicBool::new(false),
            durable: Mutex::new(None),
        })
    }

    /// Entry read lock, tolerant of a poisoning unwind (the sticky
    /// [`Tenant::is_poisoned`] flag is the real fence; the lock data is
    /// still sound for reporting).
    pub(crate) fn entry_read(&self) -> RwLockReadGuard<'_, TenantEntry> {
        self.entry.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Entry write lock, tolerant of a poisoning unwind.
    pub(crate) fn entry_write(&self) -> RwLockWriteGuard<'_, TenantEntry> {
        self.entry.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The durable handle (always `Some` guard; the option inside is
    /// `None` for memory-only tenants).
    pub(crate) fn durable_lock(&self) -> MutexGuard<'_, Option<Durable>> {
        self.durable.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Flip the sticky failure flag.
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
    }

    /// The structured error every verb answers once the tenant is
    /// poisoned.
    pub(crate) fn poisoned_error(&self) -> Json {
        crate::protocol::error_with(
            "poisoned",
            format!(
                "relation {:?} is poisoned (a previous ingest panicked or its WAL failed); \
                 close it and re-open (durable state recovers on daemon restart)",
                self.name
            ),
            vec![("relation", Json::str(&self.name))],
        )
    }

    /// Replace the live state + counters (startup recovery and standby
    /// bootstrap, before the tenant is shared).
    pub(crate) fn replace_entry(&self, entry: TenantEntry) {
        *self.entry_write() = entry;
    }
}

/// The daemon's relation table.
pub(crate) struct Registry {
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
    /// Names that were explicitly closed (and not since re-opened):
    /// a second `close` answers `already_closed` instead of
    /// `unknown_relation`.
    closed: Mutex<HashSet<String>>,
    /// Serializes durable opens so two racing opens of one name can't
    /// both create the tenant directory.
    open_gate: Mutex<()>,
    shards: usize,
}

impl Registry {
    pub(crate) fn new(shards: usize) -> Registry {
        Registry {
            tenants: RwLock::new(HashMap::new()),
            closed: Mutex::new(HashSet::new()),
            open_gate: Mutex::new(()),
            shards,
        }
    }

    /// Open a new tenant. For a durable daemon (`durability` set),
    /// `open_doc` is the original request document; the tenant directory
    /// and WAL (with its `open` record) are created and fsync'd
    /// **before** the tenant becomes visible, so an acknowledged `open`
    /// survives a crash. `Err` carries the ready-to-send error response
    /// (`relation_exists` if the name is taken).
    pub(crate) fn open(
        &self,
        spec: &OpenSpec,
        open_doc: Option<(&Json, &DurabilityCfg)>,
    ) -> Result<Arc<Tenant>, Json> {
        let _gate = self
            .open_gate
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if self.tenants.read().unwrap().contains_key(&spec.relation) {
            return Err(error(
                "relation_exists",
                format!("relation {:?} is already open", spec.relation),
            ));
        }
        // Build outside the map lock: opens of distinct relations only
        // contend on the open gate and the brief insert below.
        let tenant = Tenant::open(spec, self.shards)?;
        if let Some((doc, cfg)) = open_doc {
            let durable = create_tenant_storage(&spec.relation, doc, cfg).map_err(|e| {
                error(
                    "io",
                    format!("cannot create durable storage for {:?}: {e}", spec.relation),
                )
            })?;
            *tenant.durable_lock() = Some(durable);
        }
        let tenant = Arc::new(tenant);
        let mut map = self.tenants.write().unwrap();
        map.insert(spec.relation.clone(), tenant.clone());
        self.closed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&spec.relation);
        Ok(tenant)
    }

    pub(crate) fn get(&self, name: &str) -> Result<Arc<Tenant>, Json> {
        self.tenants
            .read()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| self.absent_error(name))
    }

    pub(crate) fn remove(&self, name: &str) -> Result<Arc<Tenant>, Json> {
        let removed = self.tenants.write().unwrap().remove(name);
        match removed {
            Some(t) => {
                self.closed
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(name.to_string());
                Ok(t)
            }
            None => Err(self.absent_error(name)),
        }
    }

    /// The error for an absent relation: `already_closed` if it was
    /// explicitly closed, `unknown_relation` otherwise.
    pub(crate) fn absent_error(&self, name: &str) -> Json {
        if self
            .closed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains(name)
        {
            error(
                "already_closed",
                format!("relation {name:?} is already closed"),
            )
        } else {
            error("unknown_relation", format!("no open relation {name:?}"))
        }
    }

    /// Install recovered (or replication-bootstrapped) tenants. Clears
    /// any close-tombstone for the adopted names: an adopted tenant is
    /// open again by definition.
    pub(crate) fn adopt(&self, tenants: Vec<Arc<Tenant>>) {
        let mut map = self.tenants.write().unwrap();
        let mut closed = self.closed.lock().unwrap_or_else(PoisonError::into_inner);
        for t in tenants {
            closed.remove(&t.name);
            map.insert(t.name.clone(), t);
        }
    }

    /// How many relations are open.
    pub(crate) fn count(&self) -> usize {
        self.tenants.read().unwrap().len()
    }

    /// All tenants, sorted by name (deterministic `stats` output).
    pub(crate) fn snapshot(&self) -> Vec<Arc<Tenant>> {
        let mut all: Vec<_> = self.tenants.read().unwrap().values().cloned().collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }
}

/// Create a fresh tenant directory + WAL with its `open` record, fsync'd
/// through to the data root so a post-ack crash finds it. Also the
/// storage path for a standby bootstrapping a tenant from a streamed
/// snapshot ([`crate::replication`]).
pub(crate) fn create_tenant_storage(
    name: &str,
    open_doc: &Json,
    cfg: &DurabilityCfg,
) -> std::io::Result<Durable> {
    let dir = cfg.root.join(tenant_dir_name(name));
    // A leftover directory here means the name is not in the registry
    // (checked under the open gate) — a quarantine remnant or a partial
    // create; either way this open owns the name now.
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    let wal = WalWriter::create_log(&dir.join(WAL_FILE), open_doc, cfg.fsync)?;
    if cfg.fsync {
        sync_dir(&dir)?;
        sync_dir(&cfg.root)?;
    }
    Ok(Durable {
        wal,
        dir,
        open_doc: open_doc.clone(),
        seq: 0,
        since_snapshot: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(relation: &str, rules: &str) -> OpenSpec {
        OpenSpec {
            relation: relation.to_string(),
            table: "data".to_string(),
            attrs: vec!["AC".to_string(), "city".to_string()],
            rules: rules.to_string(),
            master: None,
            phase: Phase::Full,
            default_cf: 0.5,
            eta: None,
            delta_entropy: None,
            threads: None,
        }
    }

    #[test]
    fn open_builds_an_empty_consistent_tenant() {
        let reg = Registry::new(4);
        let t = reg
            .open(
                &spec("tran", "cfd phi1: data([AC=131] -> [city=Edi])"),
                None,
            )
            .unwrap();
        assert_eq!(t.shard, shard_for("tran", 4));
        assert!(!t.is_poisoned());
        assert!(t.durable_lock().is_none());
        let entry = t.entry_read();
        assert_eq!(entry.state.len(), 0);
        assert!(entry.state.consistent());
    }

    #[test]
    fn open_surfaces_structured_errors() {
        let reg = Registry::new(2);
        let code = |spec: &OpenSpec| match reg.open(spec, None) {
            Err(resp) => resp.get("code").and_then(Json::as_str).unwrap().to_string(),
            Ok(_) => panic!("open unexpectedly succeeded"),
        };
        assert_eq!(code(&spec("bad", "cfd oops(")), "rule_parse");
        // MDs without any master spec: rejected at parse (no master schema
        // to resolve the rule against).
        assert_eq!(
            code(&spec("md", "md m1: data[city] ~ data[city] => data[city]")),
            "rule_parse"
        );
        reg.open(&spec("dup", "cfd phi1: data([AC=131] -> [city=Edi])"), None)
            .unwrap();
        assert_eq!(
            code(&spec("dup", "cfd phi1: data([AC=131] -> [city=Edi])")),
            "relation_exists"
        );
        match reg.get("nope") {
            Err(resp) => assert_eq!(
                resp.get("code").and_then(Json::as_str),
                Some("unknown_relation")
            ),
            Ok(_) => panic!("get of unknown relation succeeded"),
        }
    }

    #[test]
    fn close_tombstones_answer_already_closed_until_reopen() {
        let reg = Registry::new(2);
        let rules = "cfd phi1: data([AC=131] -> [city=Edi])";
        reg.open(&spec("t", rules), None).unwrap();
        reg.remove("t").unwrap();
        let code = |r: Result<Arc<Tenant>, Json>| {
            let err = match r {
                Ok(_) => panic!("expected a structured error"),
                Err(e) => e,
            };
            err.get("code").and_then(Json::as_str).unwrap().to_string()
        };
        assert_eq!(code(reg.remove("t")), "already_closed");
        assert_eq!(code(reg.get("t")), "already_closed");
        // Re-opening clears the tombstone.
        reg.open(&spec("t", rules), None).unwrap();
        assert!(reg.get("t").is_ok());
        reg.remove("t").unwrap();
        assert_eq!(code(reg.remove("t")), "already_closed");
    }

    #[test]
    fn poisoning_is_sticky_and_structured() {
        let reg = Registry::new(1);
        let t = reg
            .open(&spec("p", "cfd phi1: data([AC=131] -> [city=Edi])"), None)
            .unwrap();
        assert!(!t.is_poisoned());
        t.poison();
        assert!(t.is_poisoned());
        let resp = t.poisoned_error();
        assert_eq!(resp.get("code").and_then(Json::as_str), Some("poisoned"));
        assert_eq!(resp.get("relation").and_then(Json::as_str), Some("p"));
    }
}
