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
//! A probe compiles the probed row once: its premise values are rendered,
//! and each value's q-gram profile and Myers pattern are built on first use
//! and shared by candidate generation and premise verification. Callers
//! hold a [`ProbeScratch`] (overlap accumulators, a candidate buffer, the
//! compiled probe) and the `*_into` entry points append into caller-owned
//! buffers, so probing allocates nothing at steady state. Nothing in the
//! scratch is keyed by a probe-side symbol; its one cache, master-side
//! q-gram profiles keyed by master symbol, is epoch-guarded: every build
//! stamps a globally unique epoch, and probing re-keys the scratch to it
//! first, so a scratch can roam across index rebuilds and data relations
//! without ever serving stale entries. Memoizing whole witness lists is
//! the engine's `MdMatchCache`'s job.
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
/// unique stamp, and the [`MatchScratch`] master-side cache re-keys itself
/// to it on first contact (dropping entries filled under any other symbol
/// space).
static BUILD_EPOCH: AtomicU64 = AtomicU64::new(1);

/// One similarity filter over a single conjunct.
enum Path {
    /// Complete count-filtered retrieval under the edit bound `k`, over
    /// the shared [`LEV_QGRAM_Q`]-gram inverted lists. The count-filtered
    /// *distinct values* are confirmed column-at-a-time through the
    /// probe's compiled Myers pattern (`texts` renders each value id)
    /// before expanding to rows.
    LevCount {
        premise: usize,
        k: usize,
        index: Arc<QGramIndex>,
        texts: Arc<[Box<str>]>,
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

/// Reusable probe-side state: the q-gram overlap accumulator, a candidate
/// buffer, and the [`MatchScratch`] holding the compiled probe shared
/// between candidate generation and premise verification.
///
/// One scratch serves any number of probes of rows of any relation,
/// against any number of master indexes: it keys nothing by a probe-side
/// symbol, and its master-side cache is epoch-guarded by the index build.
#[derive(Default)]
pub struct ProbeScratch {
    qgram: QGramScratch,
    /// Candidate rows of the current probe.
    rows: Vec<u32>,
    /// The compiled probe and per-call buffers for premise evaluation.
    matching: MatchScratch,
}

impl ProbeScratch {
    /// A fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        ProbeScratch::default()
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

/// A q-gram artifact carries its distinct values rendered in value-id
/// order, the input of columnar Myers sweeps: built once alongside the
/// index, so probes never re-render a master value.
enum Artifact {
    QGram(Arc<QGramIndex>, Arc<[Box<str>]>),
    Exact(Arc<FxHashMap<u64, Vec<u32>>>),
}

fn build_artifact(key: &ArtifactKey, master: &Relation) -> Artifact {
    let interner = master.interner();
    match key {
        ArtifactKey::QGram(attr, q) => {
            // One pass over the symbol column collects the owner rows of
            // every distinct non-null symbol (dense first-appearance ids),
            // then each distinct value is rendered once: the texts are both
            // the index's input and the columnar sweeps' column.
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
            Artifact::QGram(Arc::new(index), texts.into())
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
                    Some(Artifact::QGram(index, texts)),
                ) => Plan::Filter(Path::LevCount {
                    premise,
                    k,
                    index: index.clone(),
                    texts: texts.clone(),
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

    /// Append the candidates of one similarity filter for the compiled
    /// probe (unordered, unique rows; empty on a null probe value).
    fn collect_path(
        path: &Path,
        qgram: &mut QGramScratch,
        matching: &mut MatchScratch,
        out: &mut Vec<u32>,
    ) {
        match path {
            Path::LevCount {
                premise,
                k,
                index,
                texts,
            } => {
                // Column-at-a-time confirm: count-filter down to candidate
                // *distinct values*, sweep them through the probe's Myers
                // pattern, and expand only the confirmed values to their
                // owner rows.
                let mut vids = qgram.take_vids();
                vids.clear();
                if let Some(profile) = matching.probe_profile(*premise, LEV_QGRAM_Q) {
                    index.lev_candidate_values_into(profile, *k, qgram, &mut vids);
                    let column = vids.iter().map(|&vid| &*texts[vid as usize]);
                    let verdicts = matching.lev_sweep_column(*premise, *k, column);
                    for i in verdicts.iter_ones() {
                        out.extend_from_slice(index.owners(vids[i]));
                    }
                }
                qgram.restore_vids(vids);
            }
            Path::QGramCount {
                premise,
                q,
                min,
                index,
            } => {
                if let Some(profile) = matching.probe_profile(*premise, *q) {
                    index.candidates_jaccard_into(profile, *min, qgram, out);
                }
            }
            Path::JaroFilter {
                premise,
                min_jaro,
                index,
            } => {
                if let Some(profile) = matching.probe_profile(*premise, 1) {
                    index.candidates_jaro_into(profile, *min_jaro, qgram, out);
                }
            }
        }
    }

    /// Compile `t` as the probe of MD `md_idx` and fill `scratch.rows`
    /// with its candidate master rows, ascending and unique.
    fn candidates<'t>(&self, md_idx: usize, md: &Md, t: impl Row<'t>, scratch: &mut ProbeScratch) {
        let ProbeScratch {
            qgram,
            rows,
            matching,
        } = scratch;
        matching.sync_epoch(self.epoch);
        matching.compile(md, t);
        rows.clear();
        match &self.plans[md_idx] {
            Plan::Scan { .. } => rows.extend(0..self.master_len as u32),
            Plan::Filter(path) => {
                Self::collect_path(path, qgram, matching, rows);
                rows.sort_unstable();
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
                if let Some(found) = map.get(&h.finish()) {
                    rows.extend_from_slice(found);
                }
            }
        }
    }

    /// Visit every candidate master row for `t` under MD `md_idx`, in
    /// ascending row order (each still to be verified with
    /// [`Md::premise_matches`]). Allocation-free at steady state: buffers
    /// live in the caller's [`ProbeScratch`]. `t` is any [`Row`] — a
    /// stored [`uniclean_model::TupleRef`] probes without materializing
    /// anything.
    pub fn for_each_candidate<'t>(
        &self,
        md_idx: usize,
        md: &Md,
        t: impl Row<'t>,
        scratch: &mut ProbeScratch,
        f: impl FnMut(TupleId),
    ) {
        self.candidates(md_idx, md, t, scratch);
        scratch.rows.iter().map(|&r| TupleId(r)).for_each(f);
    }

    /// Verified premise matches appended into a caller-owned buffer
    /// (cleared first), ascending row order, so a tuple loop reuses one
    /// allocation throughout. Verification runs through
    /// [`Md::compiled_premise_matches`] on the probe compiled for candidate
    /// generation — bit-identical answers to [`Md::premise_matches`].
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
        self.candidates(md_idx, md, t, scratch);
        for sid in scratch.rows.iter().map(|&r| TupleId(r)) {
            if Some(sid) != exclude
                && md.compiled_premise_matches(master.tuple(sid), &mut scratch.matching)
            {
                out.push(sid);
            }
        }
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

    fn reference_matches<'t>(md: &Md, t: impl Row<'t>, dm: &Relation) -> Vec<TupleId> {
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
        // The epoch guard must drop master-symbol-keyed caches when the
        // same scratch probes indexes built over different relations
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

        // Probe-side symbols name values only within one data relation:
        // two relations give `Smith` and `Brady` the same symbol, and one
        // scratch probing stored rows of both answers each by its value.
        let dm = Relation::new(
            card.clone(),
            vec![
                Tuple::of_strs(&["Smith", "111"], 1.0),
                Tuple::of_strs(&["Jones", "222"], 1.0),
            ],
        );
        let d1 = Relation::new(tran.clone(), vec![Tuple::of_strs(&["Smith", "9"], 0.5)]);
        let d2 = Relation::new(tran.clone(), vec![Tuple::of_strs(&["Brady", "9"], 0.5)]);
        let (smith, brady) = (d1.tuple(TupleId(0)), d2.tuple(TupleId(0)));
        let ln = tran.attr_id_or_panic("LN");
        assert_eq!(smith.sym(ln), brady.sym(ln));
        for pred in ["~lev(1)", "~qgram(2,0.5)"] {
            let text = format!("md m: tran[LN] {pred} card[LN] -> tran[phn] <=> card[tel]");
            let mds = parse_rules(&text, &tran, Some(&card)).unwrap().positive_mds;
            let idx = MasterIndex::build(&mds, &dm);
            let mut scratch = ProbeScratch::new();
            for (label, t) in [("Smith", smith), ("Brady", brady)] {
                idx.matches_into(0, &mds[0], t, &dm, None, &mut scratch, &mut out);
                assert_eq!(out, reference_matches(&mds[0], t, &dm), "{pred} {label}");
                let mut cands = Vec::new();
                idx.for_each_candidate(0, &mds[0], t, &mut scratch, |sid| cands.push(sid));
                assert!(out.iter().all(|s| cands.contains(s)), "{pred} {label}");
            }
        }
    }
}
