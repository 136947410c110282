//! Indexed access to master data for MD premise evaluation (§5.2) — one
//! access plan per premise shape.
//!
//! §5.2 is explicit that matching dominates cleaning cost and that
//! "traditional database indices… designed for exact matching cannot be
//! carried over" to similarity predicates. The planner therefore gives
//! every MD one plan, decided by the shape of its premise:
//!
//! * **one or more `=` conjuncts** — one exact hash probe over *all* of
//!   them at once, keyed by the master store's interned [`Symbol`]s;
//! * **only similarity conjuncts** — the cheapest complete filter among
//!   them: a **count-filtered q-gram inverted index**
//!   ([`uniclean_similarity::QGramIndex`]) for `~qgram`; its 1-gram
//!   variant as a conservative common-character/length-ratio prefilter for
//!   `~jaro`/`~jw`; and its 2-gram variant under the *complete* padded-gram
//!   count bound ([`uniclean_similarity::lev_count_bound`]) for `~lev` —
//!   within edit distance `k`, padded profiles share at least
//!   `max(|u|,|v|) + q − 1 − k·q` grams. "Cheapest" is estimated from
//!   per-column distinct-count statistics gathered at build time;
//! * **no premise** — a scan of `Dm`, the only O(|D|·|Dm|) case.
//!
//! Candidates returned by any plan still need full premise verification,
//! and every plan is a *complete* filter: no plan can lose a true match,
//! for any predicate family, so candidate generation may shrink the
//! verified set's superset but never the verified set itself. Candidate
//! order is ascending master-row order on every plan, so witness lists do
//! not depend on the plan.
//!
//! Probing is allocation-free at steady state: callers hold a
//! [`ProbeScratch`] (overlap accumulators, candidate buffers, and the
//! [`MatchScratch`] kernel caches — Myers pattern bitmaps and q-gram
//! profiles keyed by interned symbol, shared between candidate generation
//! and premise verification) and the `*_into` entry points append into
//! caller-owned buffers. Symbol-keyed caches are epoch-guarded: every
//! build stamps a globally unique epoch, and probing re-keys the scratch
//! to it first, so a scratch can roam across index rebuilds without ever
//! serving stale entries.
//!
//! Index construction builds each distinct per-attribute artifact (hash
//! map, inverted lists) once, shared by every MD that plans onto it, and
//! q-gram artifacts batch-hash the column: each distinct interned value is
//! profiled exactly once and the inverted lists assemble from those
//! profiles.
//!
//! External master data is immutable for the life of a session, so one
//! build at [`crate::Cleaner`] construction serves every `clean` /
//! `clean_delta` call; only the self-snapshot mode (master = the data
//! itself) re-plans, once per phase/round, because there the master moves
//! with the repairs.
//!
//! # Examples
//!
//! ```
//! use uniclean_core::{MasterIndex, ProbeScratch};
//! use uniclean_model::{Relation, Schema, Tuple};
//! use uniclean_rules::parse_rules;
//!
//! let tran = Schema::of_strings("tran", &["LN", "phn"]);
//! let card = Schema::of_strings("card", &["LN", "tel"]);
//! let mds = parse_rules(
//!     "md m: tran[LN] ~qgram(2,0.6) card[LN] -> tran[phn] <=> card[tel]",
//!     &tran,
//!     Some(&card),
//! )
//! .unwrap()
//! .positive_mds;
//! let dm = Relation::new(
//!     card,
//!     vec![
//!         Tuple::of_strs(&["Smith", "111"], 1.0),
//!         Tuple::of_strs(&["Brady", "222"], 1.0),
//!     ],
//! );
//! let idx = MasterIndex::build(&mds, &dm);
//! assert!(idx.is_indexed(0), "q-grams no longer fall back to a scan");
//!
//! let mut scratch = ProbeScratch::new();
//! let mut witnesses = Vec::new();
//! let probe = Tuple::of_strs(&["Smith", "999"], 0.5);
//! idx.matches_into(0, &mds[0], &probe, &dm, None, &mut scratch, &mut witnesses);
//! assert_eq!(witnesses.len(), 1);
//! ```

use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use uniclean_model::{AttrId, FxHashMap, FxHasher, Relation, Row, Symbol, TupleId, ValueInterner};
use uniclean_rules::{MatchScratch, Md};
use uniclean_similarity::{QGramIndex, QGramScratch};

/// Cost-model factors: expected candidate inflation of each similarity
/// path relative to an exact probe on the same column. The Jaro bound is
/// the loosest of the filters, the q-gram count filter the tightest; the
/// edit-distance count bound loosens with `k` (each edit forgives `q`
/// grams of overlap).
const QGRAM_COST_FACTOR: f64 = 4.0;
const JARO_COST_FACTOR: f64 = 8.0;
const LEV_COST_FACTOR: f64 = 4.0;

/// Window size of the shared inverted index serving `~lev` conjuncts. Two
/// is the sweet spot for the count bound `max(|u|,|v|) + q − 1 − k·q`:
/// q = 1 makes the bound immune to character order (weak filtering),
/// q ≥ 3 forgives too many grams per edit. MDs mixing `~lev` and
/// `~qgram(2, …)` on one attribute share a single artifact.
const LEV_QGRAM_Q: usize = 2;

/// Monotone source of build epochs: every [`MasterIndex`] gets a globally
/// unique stamp, and [`MatchScratch`] caches re-key themselves to it on
/// first contact (dropping entries filled under any other symbol space).
static BUILD_EPOCH: AtomicU64 = AtomicU64::new(1);

/// One similarity filter over a single conjunct.
enum Path {
    /// Complete count-filtered retrieval under the edit bound `k`, over
    /// the shared [`LEV_QGRAM_Q`]-gram inverted lists. The count-filtered
    /// *distinct values* are confirmed column-at-a-time through one
    /// probe-compiled Myers pattern (`col` is the vid → value sidecar)
    /// before expanding to rows.
    LevCount {
        premise: usize,
        k: usize,
        index: Arc<QGramIndex>,
        col: Arc<VidColumn>,
    },
    /// Count-filtered q-gram inverted lists for `~qgram(q, min)`.
    QGramCount {
        premise: usize,
        q: usize,
        min: f64,
        index: Arc<QGramIndex>,
    },
    /// 1-gram common-character prefilter for `~jaro`/`~jw`, probed with
    /// the predicate's conservative Jaro floor.
    JaroFilter {
        premise: usize,
        min_jaro: f64,
        index: Arc<QGramIndex>,
    },
}

/// The per-MD plan.
enum Plan {
    /// One hash probe over *all* equality conjuncts at once. The map key
    /// is a 64-bit hash of the premise-ordered master symbols — the
    /// master store's own, so building reads the symbol columns and hashes
    /// no value content. Hash collisions only ever add candidates, which
    /// verification removes.
    Exact {
        premises: Arc<[usize]>,
        map: Arc<FxHashMap<u64, Vec<u32>>>,
    },
    /// The cheapest similarity filter of an MD without equalities.
    Filter(Path),
    /// Full enumeration — only for MDs with nothing to index.
    Scan { reason: &'static str },
}

/// Reusable probe-side state: candidate buffers, the q-gram overlap
/// accumulator, and the [`MatchScratch`] kernel caches (Myers pattern
/// bitmaps, symbol-keyed q-gram profiles) shared between candidate
/// generation and premise verification.
///
/// One scratch serves any number of probes, against any number of master
/// indexes — master-side caches are epoch-guarded by the index build.
/// Probe-side profile caches key on the probed row's interned symbols,
/// which identify values only within a single relation (append-only
/// interners keep them stable across incremental extension). Callers
/// probing a *different data relation*, or re-running from a rewound
/// state, must use a fresh scratch or [`ProbeScratch::reset`].
#[derive(Default)]
pub struct ProbeScratch {
    qgram: QGramScratch,
    /// Staging for verified-match collection (two-phase probing).
    cand: Vec<TupleId>,
    /// Staging for candidate computation on cache misses.
    rows_out: Vec<u32>,
    /// Kernel caches and per-call buffers for premise evaluation.
    matching: MatchScratch,
    /// Candidate lists keyed by `(MD index, premise-symbol hash)`:
    /// candidate generation is a pure function of the probed *values*, so
    /// distinct tuples sharing them (and re-probes of the same tuple
    /// across fixpoint rounds) replay the list instead of re-walking
    /// posting lists. Epoch-guarded like the kernel caches.
    cand_cache: FxHashMap<(u32, u64), Vec<u32>>,
    /// The symbol-space generation `cand_cache` was filled under.
    cand_epoch: u64,
}

impl ProbeScratch {
    /// A fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        ProbeScratch::default()
    }

    /// Drop every symbol-keyed cache (keep buffer capacity). Call when the
    /// relation whose rows are being probed changes identity — the
    /// master-side epoch guard cannot see probe-side changes.
    pub fn reset(&mut self) {
        self.matching.reset();
        self.cand_cache.clear();
    }
}

// ---------------------------------------------------------------------------
// Planning (pure, no index construction).
// ---------------------------------------------------------------------------

enum PathSpec {
    LevCount { premise: usize, k: usize },
    QGramCount { premise: usize, q: usize, min: f64 },
    JaroFilter { premise: usize, min_jaro: f64 },
}

enum PlanSpec {
    Exact { premises: Vec<usize> },
    Filter(PathSpec),
    Scan { reason: &'static str },
}

impl PlanSpec {
    /// The artifact this plan probes (none for a scan). `~lev` and
    /// `~qgram(2, …)` conjuncts on one attribute share one `QGram(attr, 2)`
    /// index.
    fn artifact(&self, md: &Md) -> Option<ArtifactKey> {
        let attr = |premise: usize| md.premises()[premise].master_attr;
        Some(match *self {
            PlanSpec::Exact { ref premises } => {
                ArtifactKey::Exact(premises.iter().map(|&i| attr(i)).collect())
            }
            PlanSpec::Filter(PathSpec::LevCount { premise, .. }) => {
                ArtifactKey::QGram(attr(premise), LEV_QGRAM_Q)
            }
            PlanSpec::Filter(PathSpec::QGramCount { premise, q, .. }) => {
                ArtifactKey::QGram(attr(premise), q)
            }
            PlanSpec::Filter(PathSpec::JaroFilter { premise, .. }) => {
                ArtifactKey::QGram(attr(premise), 1)
            }
            PlanSpec::Scan { .. } => return None,
        })
    }
}

/// The similarity filter serving conjunct `premise`, with its estimated
/// candidates per probe. A threshold that keeps every row (qgram min ≤ 0,
/// Jaro floor ≤ 1/3) costs the whole relation.
fn cost_filter(
    md: &Md,
    premise: usize,
    rows: usize,
    stats: &HashMap<AttrId, usize>,
) -> (f64, PathSpec) {
    let p = &md.premises()[premise];
    let distinct = stats.get(&p.master_attr).copied().unwrap_or(1).max(1);
    let per_value = rows as f64 / distinct as f64;
    if let Some(k) = p.pred.edit_threshold() {
        // The count bound forgives q grams per edit, so expected
        // candidates widen linearly with k.
        let cost = per_value * LEV_COST_FACTOR * (k + 1) as f64;
        return (cost, PathSpec::LevCount { premise, k });
    }
    if let Some((q, min)) = p.pred.qgram_params() {
        let cost = if min <= 0.0 {
            rows as f64
        } else {
            per_value * QGRAM_COST_FACTOR
        };
        return (cost, PathSpec::QGramCount { premise, q, min });
    }
    let min_jaro = p
        .pred
        .jaro_floor()
        .expect("every similarity predicate family is costed");
    let cost = if 3.0 * min_jaro - 1.0 <= 0.0 {
        rows as f64
    } else {
        per_value * JARO_COST_FACTOR
    };
    (cost, PathSpec::JaroFilter { premise, min_jaro })
}

/// Choose the access plan for one MD by the shape of its premise: one
/// exact probe over every equality conjunct when there is one (always the
/// tightest), else the cheapest similarity filter (ties to the first
/// conjunct), else a scan.
fn plan_md(md: &Md, rows: usize, stats: &HashMap<AttrId, usize>) -> PlanSpec {
    let eqs: Vec<usize> = md.equality_premise_indices().collect();
    if !eqs.is_empty() {
        return PlanSpec::Exact { premises: eqs };
    }
    (0..md.premises().len())
        .map(|i| cost_filter(md, i, rows, stats))
        .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite costs"))
        .map_or(
            PlanSpec::Scan {
                reason: "MD has no premise conjuncts to index",
            },
            |(_, spec)| PlanSpec::Filter(spec),
        )
}

// ---------------------------------------------------------------------------
// Artifact construction.
// ---------------------------------------------------------------------------

/// A deduplicated unit of index construction; every distinct key builds
/// once.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum ArtifactKey {
    QGram(AttrId, usize),
    /// Master attributes of all equality conjuncts, premise order.
    Exact(Vec<AttrId>),
}

enum Artifact {
    QGram(Arc<QGramIndex>, Arc<VidColumn>),
    Exact(Arc<FxHashMap<u64, Vec<u32>>>),
}

/// Distinct-value sidecar of a q-gram artifact: for each dense value id
/// the master store symbol (memo seeding) and the rendered text (columnar
/// Myers sweeps), both in vid order. Built once alongside the index, so
/// probes never re-render a master value.
#[derive(Debug)]
pub(crate) struct VidColumn {
    syms: Vec<Symbol>,
    texts: Vec<Box<str>>,
}

fn build_artifact(key: &ArtifactKey, master: &Relation) -> Artifact {
    let interner = master.interner();
    match key {
        ArtifactKey::QGram(attr, q) => {
            // One pass over the symbol column collects the owner rows of
            // every distinct non-null symbol (dense first-appearance ids),
            // then each distinct value is rendered once: the texts are both
            // the index's input and the columnar-sweep sidecar.
            let null = master.null_sym();
            let mut sym_to_vid: Vec<u32> = vec![u32::MAX; interner.len()];
            let mut syms: Vec<Symbol> = Vec::new();
            let mut owners: Vec<Vec<u32>> = Vec::new();
            for (row, &sym) in master.col_syms(*attr).iter().enumerate() {
                if sym == null {
                    // Null cells never satisfy a similarity premise.
                    continue;
                }
                let slot = &mut sym_to_vid[sym.index()];
                if *slot == u32::MAX {
                    *slot = syms.len() as u32;
                    syms.push(sym);
                    owners.push(Vec::new());
                }
                owners[*slot as usize].push(row as u32);
            }
            let texts: Vec<Box<str>> = syms
                .iter()
                .map(|&sym| interner.resolve(sym).render().into_owned().into_boxed_str())
                .collect();
            let index = QGramIndex::new(&texts, owners, master.len(), *q);
            Artifact::QGram(Arc::new(index), Arc::new(VidColumn { syms, texts }))
        }
        ArtifactKey::Exact(attrs) => {
            let null = master.null_sym();
            let cols: Vec<&[Symbol]> = attrs.iter().map(|&a| master.col_syms(a)).collect();
            let mut map: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
            'rows: for row in 0..master.len() {
                let mut h = FxHasher::default();
                for col in &cols {
                    let sym = col[row];
                    if sym == null {
                        // A null conjunct value can never satisfy the
                        // premise; the row is unreachable through this plan.
                        continue 'rows;
                    }
                    h.write_u32(sym.0);
                }
                map.entry(h.finish()).or_default().push(row as u32);
            }
            Artifact::Exact(Arc::new(map))
        }
    }
}

/// Per-MD access paths over one master relation.
pub struct MasterIndex {
    plans: Vec<Plan>,
    /// Snapshot of the master store's interner, which the exact probes
    /// resolve through (empty when no MD has one).
    interner: Arc<ValueInterner>,
    master_len: usize,
    /// Globally unique build stamp guarding symbol-keyed scratch caches.
    epoch: u64,
}

impl MasterIndex {
    /// Build access paths for `mds` over `master`. Indexes on the same
    /// master column are shared between MDs.
    pub fn build(mds: &[Md], master: &Relation) -> Self {
        // Distinct-count statistics for the premise master columns of MDs
        // without equalities — the similarity filters' selectivity
        // estimates.
        let mut stat_attrs: Vec<AttrId> = mds
            .iter()
            .filter(|md| md.equality_premise_indices().next().is_none())
            .flat_map(|md| md.premises().iter().map(|p| p.master_attr))
            .collect();
        stat_attrs.sort_unstable();
        stat_attrs.dedup();
        let stats: HashMap<AttrId, usize> = stat_attrs
            .iter()
            .map(|&a| {
                let mut syms: Vec<Symbol> = master.col_syms(a).to_vec();
                syms.sort_unstable();
                syms.dedup();
                (a, syms.len())
            })
            .collect();

        // Plan every MD (pure), then build each distinct artifact once.
        let specs: Vec<PlanSpec> = mds
            .iter()
            .map(|md| plan_md(md, master.len(), &stats))
            .collect();
        let mut keys: Vec<ArtifactKey> = Vec::new();
        let mut key_ids: HashMap<ArtifactKey, usize> = HashMap::new();
        let artifact_of: Vec<Option<usize>> = mds
            .iter()
            .zip(&specs)
            .map(|(md, spec)| {
                let key = spec.artifact(md)?;
                Some(*key_ids.entry(key.clone()).or_insert_with(|| {
                    keys.push(key);
                    keys.len() - 1
                }))
            })
            .collect();
        let artifacts: Vec<Artifact> = keys.iter().map(|k| build_artifact(k, master)).collect();

        // Assemble the runtime plans.
        let plans: Vec<Plan> = specs
            .into_iter()
            .zip(artifact_of)
            .map(|(spec, id)| match (spec, id.map(|id| &artifacts[id])) {
                (PlanSpec::Exact { premises }, Some(Artifact::Exact(map))) => Plan::Exact {
                    premises: premises.into(),
                    map: map.clone(),
                },
                (
                    PlanSpec::Filter(PathSpec::LevCount { premise, k }),
                    Some(Artifact::QGram(index, col)),
                ) => Plan::Filter(Path::LevCount {
                    premise,
                    k,
                    index: index.clone(),
                    col: col.clone(),
                }),
                (
                    PlanSpec::Filter(PathSpec::QGramCount { premise, q, min }),
                    Some(Artifact::QGram(index, _)),
                ) => Plan::Filter(Path::QGramCount {
                    premise,
                    q,
                    min,
                    index: index.clone(),
                }),
                (
                    PlanSpec::Filter(PathSpec::JaroFilter { premise, min_jaro }),
                    Some(Artifact::QGram(index, _)),
                ) => Plan::Filter(Path::JaroFilter {
                    premise,
                    min_jaro,
                    index: index.clone(),
                }),
                (PlanSpec::Scan { reason }, None) => Plan::Scan { reason },
                _ => unreachable!("artifact kind matches its key"),
            })
            .collect();
        // Symbols in the exact maps are the master store's; probes resolve
        // through a snapshot of its (append-only) interner.
        let interner = if plans.iter().any(|p| matches!(p, Plan::Exact { .. })) {
            master.interner().clone()
        } else {
            ValueInterner::new()
        };
        MasterIndex {
            plans,
            interner: Arc::new(interner),
            master_len: master.len(),
            epoch: BUILD_EPOCH.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// [`Self::build`]; both arguments after `master` are ignored. Kept
    /// only because the benchmark harness (`benchmark/src/batch.rs`) still
    /// calls it, and removed together with that call.
    pub fn build_parallel(mds: &[Md], master: &Relation, _: bool, _: usize) -> Self {
        Self::build(mds, master)
    }

    /// Append the candidates of one similarity filter (unordered, unique
    /// rows; empty on a null probe value).
    fn collect_path<'t>(
        &self,
        path: &Path,
        md: &Md,
        t: impl Row<'t>,
        qgram: &mut QGramScratch,
        matching: &mut MatchScratch,
        out: &mut Vec<u32>,
    ) {
        match path {
            Path::LevCount {
                premise,
                k,
                index,
                col,
            } => {
                let p = &md.premises()[*premise];
                let v = t.value(p.attr);
                if v.is_null() {
                    return;
                }
                let rendered = v.render();
                let probe_sym = t.sym(p.attr);
                // Column-at-a-time confirm: count-filter down to candidate
                // *distinct values*, sweep them through one probe-compiled
                // Myers pattern, and expand only the confirmed values to
                // their owner rows. The sweep seeds the pair-verdict memo,
                // so full premise verification replays these answers for
                // free.
                let mut vids = qgram.take_vids();
                vids.clear();
                {
                    // The probe profile comes from the same symbol-keyed
                    // cache premise verification uses — built once per
                    // distinct probe value.
                    let profile = match probe_sym {
                        Some(sym) => matching.probe_profile_cached(sym.0, LEV_QGRAM_Q, &rendered),
                        None => matching.probe_profile_owned(LEV_QGRAM_Q, &rendered),
                    };
                    index.lev_candidate_values_into(profile, *k, qgram, &mut vids);
                }
                let verdicts = matching.lev_sweep_column(
                    probe_sym.map(|s| s.0),
                    &rendered,
                    *k,
                    p.pair_key(),
                    vids.iter().map(|&vid| {
                        let vid = vid as usize;
                        (Some(col.syms[vid].0), &*col.texts[vid])
                    }),
                );
                for i in verdicts.iter_ones() {
                    out.extend_from_slice(index.owners(vids[i]));
                }
                qgram.restore_vids(vids);
            }
            Path::QGramCount {
                premise,
                q,
                min,
                index,
            } => {
                let attr = md.premises()[*premise].attr;
                let v = t.value(attr);
                if v.is_null() {
                    return;
                }
                let profile = match t.sym(attr) {
                    Some(sym) => matching.probe_profile_cached(sym.0, *q, &v.render()),
                    None => matching.probe_profile_owned(*q, &v.render()),
                };
                index.candidates_jaccard_into(profile, *min, qgram, out);
            }
            Path::JaroFilter {
                premise,
                min_jaro,
                index,
            } => {
                let attr = md.premises()[*premise].attr;
                let v = t.value(attr);
                if v.is_null() {
                    return;
                }
                let profile = match t.sym(attr) {
                    Some(sym) => matching.probe_profile_cached(sym.0, 1, &v.render()),
                    None => matching.probe_profile_owned(1, &v.render()),
                };
                index.candidates_jaro_into(profile, *min_jaro, qgram, out);
            }
        }
    }

    /// Visit every candidate master row for `t` under MD `md_idx`, in
    /// ascending row order (each still to be verified with
    /// [`Md::premise_matches`]). Allocation-free at steady state: buffers
    /// and the probe-profile cache live in the caller's [`ProbeScratch`].
    /// `t` is any [`Row`] — a stored [`uniclean_model::TupleRef`] probes
    /// without materializing anything and feeds the symbol-keyed cache.
    pub fn for_each_candidate<'t>(
        &self,
        md_idx: usize,
        md: &Md,
        t: impl Row<'t>,
        scratch: &mut ProbeScratch,
        mut f: impl FnMut(TupleId),
    ) {
        scratch.matching.sync_epoch(self.epoch);
        if scratch.cand_epoch != self.epoch {
            scratch.cand_cache.clear();
            scratch.cand_epoch = self.epoch;
        }
        if let Plan::Scan { .. } = &self.plans[md_idx] {
            // Trivial enumeration — nothing worth caching.
            (0..self.master_len).map(TupleId::from).for_each(f);
            return;
        }
        // Candidates are a pure function of the probed premise values, so
        // store-backed rows replay by symbol. Detached (symbol-less) rows
        // bypass the cache.
        let key = {
            let mut h = FxHasher::default();
            let mut keyed = true;
            for p in md.premises() {
                match t.sym(p.attr) {
                    Some(sym) => h.write_u32(sym.0),
                    None => {
                        keyed = false;
                        break;
                    }
                }
            }
            keyed.then(|| (md_idx as u32, h.finish()))
        };
        if let Some(k) = key {
            if let Some(rows) = scratch.cand_cache.get(&k) {
                rows.iter().for_each(|&r| f(TupleId(r)));
                return;
            }
        }
        let mut rows = std::mem::take(&mut scratch.rows_out);
        rows.clear();
        self.compute_candidates(md_idx, md, t, scratch, &mut rows);
        rows.iter().for_each(|&r| f(TupleId(r)));
        match key {
            Some(k) => {
                scratch.cand_cache.insert(k, rows);
            }
            None => scratch.rows_out = rows,
        }
    }

    /// Compute the candidate rows of a non-`Scan` plan into `out`
    /// (ascending, unique) — the cache-miss path of
    /// [`Self::for_each_candidate`].
    fn compute_candidates<'t>(
        &self,
        md_idx: usize,
        md: &Md,
        t: impl Row<'t>,
        scratch: &mut ProbeScratch,
        out: &mut Vec<u32>,
    ) {
        let ProbeScratch {
            qgram, matching, ..
        } = scratch;
        match &self.plans[md_idx] {
            Plan::Scan { .. } => unreachable!("scan plans never reach candidate computation"),
            Plan::Filter(path) => {
                self.collect_path(path, md, t, qgram, matching, out);
                out.sort_unstable();
            }
            Plan::Exact { premises, map } => {
                let mut h = FxHasher::default();
                for &pi in premises.iter() {
                    let v = t.value(md.premises()[pi].attr);
                    if v.is_null() {
                        return;
                    }
                    match self.interner.get(v) {
                        Some(sym) => h.write_u32(sym.0),
                        // Never interned by the master ⇒ not in any master
                        // cell ⇒ the conjunct cannot hold.
                        None => return,
                    }
                }
                // Buckets fill in row order: already ascending and unique.
                if let Some(rows) = map.get(&h.finish()) {
                    out.extend_from_slice(rows);
                }
            }
        }
    }

    /// Verified premise matches appended into a caller-owned buffer
    /// (cleared first), ascending row order, so a tuple loop reuses one
    /// allocation (and one probe cache) throughout. Verification runs
    /// through [`Md::premise_matches_with`] on the scratch's kernel caches
    /// — bit-identical answers to [`Md::premise_matches`], with Myers
    /// pattern bitmaps and q-gram profiles reused across probes.
    ///
    /// ```
    /// # use uniclean_core::{MasterIndex, ProbeScratch};
    /// # use uniclean_model::{Relation, Schema, Tuple};
    /// # use uniclean_rules::parse_rules;
    /// # let tran = Schema::of_strings("tran", &["LN", "phn"]);
    /// # let card = Schema::of_strings("card", &["LN", "tel"]);
    /// # let mds = parse_rules(
    /// #     "md m: tran[LN] = card[LN] -> tran[phn] <=> card[tel]",
    /// #     &tran, Some(&card)).unwrap().positive_mds;
    /// # let dm = Relation::new(card, vec![Tuple::of_strs(&["Smith", "1"], 1.0)]);
    /// let idx = MasterIndex::build(&mds, &dm);
    /// let mut scratch = ProbeScratch::new();
    /// let mut buf = Vec::new();
    /// for (tid, t) in dm.iter() {
    ///     idx.matches_into(0, &mds[0], t, &dm, None, &mut scratch, &mut buf);
    ///     assert!(buf.contains(&tid), "reflexive predicates match their own value");
    /// }
    /// ```
    #[allow(clippy::too_many_arguments)] // the probe's full context
    pub fn matches_into<'t>(
        &self,
        md_idx: usize,
        md: &Md,
        t: impl Row<'t>,
        master: &Relation,
        exclude: Option<TupleId>,
        scratch: &mut ProbeScratch,
        out: &mut Vec<TupleId>,
    ) {
        out.clear();
        // Two phases so candidate generation (which borrows the whole
        // scratch) hands over to verification (which borrows its kernel
        // caches): collect, then verify.
        let mut cand = std::mem::take(&mut scratch.cand);
        cand.clear();
        self.for_each_candidate(md_idx, md, t, scratch, |sid| cand.push(sid));
        for &sid in &cand {
            if Some(sid) != exclude
                && md.premise_matches_with(t, master.tuple(sid), &mut scratch.matching)
            {
                out.push(sid);
            }
        }
        scratch.cand = cand;
    }

    /// Is this MD served by an indexed access path? Since the similarity
    /// filters landed this is `true` for every MD with at least one
    /// premise conjunct — see [`Self::scan_reason`] for the residual scan
    /// cases.
    pub fn is_indexed(&self, md_idx: usize) -> bool {
        !matches!(self.plans[md_idx], Plan::Scan { .. })
    }

    /// Why MD `md_idx` fell back to a full scan, or `None` when it is
    /// indexed.
    pub fn scan_reason(&self, md_idx: usize) -> Option<&'static str> {
        match &self.plans[md_idx] {
            Plan::Scan { reason } => Some(reason),
            _ => None,
        }
    }

    /// Human-readable description of the chosen plan (CLI `--explain-plans`
    /// and test diagnostics). `md` must be the same MD the index was built
    /// from at position `md_idx`.
    pub fn describe_plan(&self, md_idx: usize, md: &Md) -> String {
        let attr = |premise: usize| {
            md.master_schema()
                .attr_name(md.premises()[premise].master_attr)
                .to_string()
        };
        match &self.plans[md_idx] {
            Plan::Exact { premises, .. } => format!(
                "exact-eq({})",
                premises
                    .iter()
                    .map(|&i| attr(i))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Plan::Filter(Path::LevCount { premise, k, .. }) => {
                format!("lev-count({}, q={LEV_QGRAM_Q}, k={k})", attr(*premise))
            }
            Plan::Filter(Path::QGramCount {
                premise, q, min, ..
            }) => format!("qgram-count({}, q={q}, min={min})", attr(*premise)),
            Plan::Filter(Path::JaroFilter {
                premise, min_jaro, ..
            }) => format!("jaro-1gram({}, floor={min_jaro:.3})", attr(*premise)),
            Plan::Scan { reason } => format!("scan ({reason})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniclean_model::{Schema, Tuple, Value};
    use uniclean_rules::parse_rules;

    fn setup(pred: &str) -> (Arc<Schema>, Arc<Schema>, Vec<Md>, Relation) {
        let tran = Schema::of_strings("tran", &["LN", "phn"]);
        let card = Schema::of_strings("card", &["LN", "tel"]);
        let text = format!("md m: tran[LN] {pred} card[LN] -> tran[phn] <=> card[tel]");
        let mds = parse_rules(&text, &tran, Some(&card)).unwrap().positive_mds;
        let dm = Relation::new(
            card.clone(),
            vec![
                Tuple::of_strs(&["Smith", "111"], 1.0),
                Tuple::of_strs(&["Brady", "222"], 1.0),
                Tuple::of_strs(&["Smith", "333"], 1.0),
            ],
        );
        (tran, card, mds, dm)
    }

    fn probe_matches(idx: &MasterIndex, md: &Md, t: &Tuple, dm: &Relation) -> Vec<TupleId> {
        let mut scratch = ProbeScratch::new();
        let mut out = Vec::new();
        idx.matches_into(0, md, t, dm, None, &mut scratch, &mut out);
        out
    }

    fn reference_matches(md: &Md, t: &Tuple, dm: &Relation) -> Vec<TupleId> {
        dm.iter()
            .filter(|(_, s)| md.premise_matches(t, s))
            .map(|(sid, _)| sid)
            .collect()
    }

    #[test]
    fn equality_premise_uses_exact_index() {
        let (tran, _, mds, dm) = setup("=");
        let idx = MasterIndex::build(&mds, &dm);
        assert!(idx.is_indexed(0));
        assert!(idx.describe_plan(0, &mds[0]).starts_with("exact-eq"));
        let t = Tuple::of_strs(&["Smith", "999"], 0.5);
        assert_eq!(
            probe_matches(&idx, &mds[0], &t, &dm),
            vec![TupleId(0), TupleId(2)]
        );
        let _ = tran;
    }

    #[test]
    fn edit_premise_uses_count_filter_and_is_complete() {
        let (_, _, mds, dm) = setup("~lev(1)");
        let idx = MasterIndex::build(&mds, &dm);
        assert!(idx.is_indexed(0));
        assert!(idx.describe_plan(0, &mds[0]).starts_with("lev-count"));
        let t = Tuple::of_strs(&["Smjth", "999"], 0.5); // one typo
        assert_eq!(
            probe_matches(&idx, &mds[0], &t, &dm),
            vec![TupleId(0), TupleId(2)]
        );
        // Complete against the reference scan on every probe shape,
        // including the short strings that hit the degenerate branch.
        for name in ["Smith", "Smyth", "S", "", "Smithsonian", "Brody"] {
            let t = Tuple::of_strs(&[name, "999"], 0.5);
            assert_eq!(
                probe_matches(&idx, &mds[0], &t, &dm),
                reference_matches(&mds[0], &t, &dm),
                "probe {name:?}"
            );
        }
    }

    #[test]
    fn jaro_and_qgram_premises_are_indexed_now() {
        // Previously these degraded to Access::Scan; the q-gram filters
        // serve them with bounded candidate generation and identical
        // matches.
        for pred in ["~jaro(0.9)", "~jw(0.9)", "~qgram(2,0.5)"] {
            let (_, _, mds, dm) = setup(pred);
            let idx = MasterIndex::build(&mds, &dm);
            assert!(idx.is_indexed(0), "{pred} should be indexed");
            assert_eq!(idx.scan_reason(0), None);
            for name in ["Smith", "Smjth", "Brady", "Zzz", ""] {
                let t = Tuple::of_strs(&[name, "999"], 0.5);
                assert_eq!(
                    probe_matches(&idx, &mds[0], &t, &dm),
                    reference_matches(&mds[0], &t, &dm),
                    "{pred} probe {name:?}"
                );
            }
        }
    }

    #[test]
    fn multi_equality_premises_use_one_composite_probe() {
        let tran = Schema::of_strings("tran", &["LN", "city", "phn"]);
        let card = Schema::of_strings("card", &["LN", "city", "tel"]);
        let text =
            "md m: tran[LN] = card[LN] AND tran[city] = card[city] -> tran[phn] <=> card[tel]";
        let mds = parse_rules(text, &tran, Some(&card)).unwrap().positive_mds;
        let dm = Relation::new(
            card,
            vec![
                Tuple::of_strs(&["Smith", "Edi", "111"], 1.0),
                Tuple::of_strs(&["Smith", "Ldn", "222"], 1.0),
                Tuple::of_strs(&["Brady", "Edi", "333"], 1.0),
            ],
        );
        let idx = MasterIndex::build(&mds, &dm);
        assert_eq!(idx.describe_plan(0, &mds[0]), "exact-eq(LN, city)");
        let t = Tuple::of_strs(&["Smith", "Edi", "999"], 0.5);
        // One probe pins both conjuncts: only the (Smith, Edi) row is even a
        // candidate, where the old single-equality path would have surfaced
        // both Smith rows.
        let mut scratch = ProbeScratch::new();
        let mut cands = Vec::new();
        idx.for_each_candidate(0, &mds[0], &t, &mut scratch, |sid| cands.push(sid));
        assert_eq!(cands, vec![TupleId(0)]);
        assert_eq!(probe_matches(&idx, &mds[0], &t, &dm), vec![TupleId(0)]);
    }

    #[test]
    fn null_premise_value_yields_no_candidates() {
        let (tran, _, mds, dm) = setup("=");
        let idx = MasterIndex::build(&mds, &dm);
        let mut t = Tuple::of_strs(&["Smith", "999"], 0.5);
        t.set(
            tran.attr_id_or_panic("LN"),
            Value::Null,
            0.0,
            Default::default(),
        );
        let mut scratch = ProbeScratch::new();
        let mut cands = Vec::new();
        idx.for_each_candidate(0, &mds[0], &t, &mut scratch, |sid| cands.push(sid));
        assert!(cands.is_empty());
    }

    #[test]
    fn degenerate_jaro_threshold_matches_reference_enumeration() {
        let (_, _, mds, dm) = setup("~jaro(0.5)");
        let idx = MasterIndex::build(&mds, &dm);
        assert!(idx.is_indexed(0));
        let t = Tuple::of_strs(&["Brody", "999"], 0.5);
        assert_eq!(
            probe_matches(&idx, &mds[0], &t, &dm),
            reference_matches(&mds[0], &t, &dm),
        );
    }

    #[test]
    fn matches_into_reuses_the_buffer() {
        let (_, _, mds, dm) = setup("=");
        let idx = MasterIndex::build(&mds, &dm);
        let mut scratch = ProbeScratch::new();
        let mut buf = Vec::new();
        let t = Tuple::of_strs(&["Smith", "999"], 0.5);
        idx.matches_into(0, &mds[0], &t, &dm, None, &mut scratch, &mut buf);
        assert_eq!(buf, vec![TupleId(0), TupleId(2)]);
        // A second probe clears before filling; exclusion is honored.
        idx.matches_into(
            0,
            &mds[0],
            &t,
            &dm,
            Some(TupleId(0)),
            &mut scratch,
            &mut buf,
        );
        assert_eq!(buf, vec![TupleId(2)]);
    }

    #[test]
    fn one_scratch_roams_across_index_rebuilds() {
        // The epoch guard must invalidate symbol-keyed kernel caches when
        // the same scratch probes indexes built over different relations
        // (whose interners can assign the same symbols to different
        // values).
        let tran = Schema::of_strings("tran", &["LN", "phn"]);
        let card = Schema::of_strings("card", &["LN", "tel"]);
        let text = "md m: tran[LN] ~lev(1) card[LN] -> tran[phn] <=> card[tel]";
        let mds = parse_rules(text, &tran, Some(&card)).unwrap().positive_mds;
        let dm1 = Relation::new(
            card.clone(),
            vec![
                Tuple::of_strs(&["Smith", "111"], 1.0),
                Tuple::of_strs(&["Brady", "222"], 1.0),
            ],
        );
        let dm2 = Relation::new(
            card.clone(),
            vec![
                Tuple::of_strs(&["Brody", "111"], 1.0),
                Tuple::of_strs(&["Smith", "222"], 1.0),
            ],
        );
        let idx1 = MasterIndex::build(&mds, &dm1);
        let idx2 = MasterIndex::build(&mds, &dm2);
        let mut scratch = ProbeScratch::new();
        let mut out = Vec::new();
        for name in ["Smith", "Smyth", "Brody", "Brady"] {
            let t = Tuple::of_strs(&[name, "9"], 0.5);
            idx1.matches_into(0, &mds[0], &t, &dm1, None, &mut scratch, &mut out);
            assert_eq!(out, reference_matches(&mds[0], &t, &dm1), "dm1 {name:?}");
            idx2.matches_into(0, &mds[0], &t, &dm2, None, &mut scratch, &mut out);
            assert_eq!(out, reference_matches(&mds[0], &t, &dm2), "dm2 {name:?}");
        }
    }
}
