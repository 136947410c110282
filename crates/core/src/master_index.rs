//! Indexed access to master data for MD premise evaluation (§5.2) — a
//! cost-based, predicate-complete access-path planner.
//!
//! §5.2 is explicit that matching dominates cleaning cost and that
//! "traditional database indices… designed for exact matching cannot be
//! carried over" to similarity predicates. For every MD the planner
//! therefore chooses from a family of access paths covering *every*
//! predicate the paper names, so the O(|D|·|Dm|) full-scan fallback
//! survives only for MDs with nothing to index (no premise conjuncts):
//!
//! * a **composite hash key** over *all* strict-equality conjuncts — one
//!   probe replaces the old probe-one-equality-then-verify-the-rest;
//! * an **exact hash index** for a lone `=` conjunct, keyed by the master
//!   store's interned [`Symbol`]s;
//! * a **count-filtered q-gram inverted index**
//!   ([`uniclean_similarity::QGramIndex`]) for `~qgram`; its 1-gram
//!   variant as a conservative common-character/length-ratio prefilter for
//!   `~jaro`/`~jw`; and its 2-gram variant under the *complete* padded-gram
//!   count bound ([`uniclean_similarity::lev_count_bound`]) for `~lev` —
//!   within edit distance `k`, padded profiles share at least
//!   `max(|u|,|v|) + q − 1 − k·q` grams, so the same inverted lists serve
//!   edit-distance conjuncts without the old top-`l` LCS approximation;
//! * **candidate-list intersection** of the two most selective indexable
//!   conjuncts when the primary path alone is expected to leave many
//!   candidates — selectivity is estimated from per-column distinct-count
//!   statistics gathered at build time.
//!
//! Candidates returned by any path still need full premise verification,
//! but every path is now a *complete* filter: no plan can lose a true
//! match, for any predicate family, so candidate generation may shrink
//! the verified set's superset but never the verified set itself.
//! Candidate order is ascending master-row order on every path, so
//! downstream witness selection is deterministic and plan-independent.
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
//! Index construction fans out over [`crate::parallel`]: each distinct
//! per-attribute artifact (hash map, inverted lists) builds on its own
//! worker, and q-gram artifacts batch-hash the column — each distinct
//! interned value is profiled exactly once, in parallel, and the inverted
//! lists assemble from those parts.
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
use uniclean_similarity::{simd, ProfilePool, QGramIndex, QGramScratch};

use crate::parallel::{map_chunks, map_each};

/// Estimated candidates per probe above which the planner adds a second
/// selective conjunct as an intersection filter: below this, verifying the
/// primary path's candidates outright is cheaper than a second index
/// probe.
const DEFAULT_INTERSECT_ABOVE: f64 = 64.0;

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

/// Planner tuning knobs (see [`MasterIndex::build_with_policy`]). The
/// default matches production behavior; tests force intersection plans by
/// zeroing `intersect_above`.
#[derive(Clone, Copy, Debug)]
pub struct IndexPolicy {
    /// Expected primary-path candidate count above which a second
    /// selective conjunct is intersected in.
    pub intersect_above: f64,
}

impl Default for IndexPolicy {
    fn default() -> Self {
        IndexPolicy {
            intersect_above: DEFAULT_INTERSECT_ABOVE,
        }
    }
}

/// One single-conjunct access path.
enum Path {
    /// Exact map, keyed by the **master store's own symbols** —
    /// building it reads the symbol column straight out of the columnar
    /// store, hashing no value content at all. A probe resolves the data
    /// value through the shared interner snapshot once; a probe value the
    /// interner has never seen cannot appear in the master column, so
    /// `get == None` is exactly a miss.
    Equal {
        premise: usize,
        map: Arc<FxHashMap<Symbol, Vec<u32>>>,
    },
    /// Complete count-filtered retrieval under the edit bound `k`, over
    /// the shared [`LEV_QGRAM_Q`]-gram inverted lists. When accelerated
    /// kernels are active the count-filtered *distinct values* are
    /// confirmed column-at-a-time through one probe-compiled Myers
    /// pattern (`col` is the vid → value sidecar) before expanding to
    /// rows; the scalar fallback expands unconfirmed candidates directly.
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
    Single(Path),
    /// One hash probe over *all* equality conjuncts at once. The map key
    /// is a 64-bit hash of the premise-ordered master symbols; hash
    /// collisions only ever add candidates, which verification removes.
    Composite {
        premises: Arc<[usize]>,
        map: Arc<FxHashMap<u64, Vec<u32>>>,
    },
    /// Sorted-list intersection of the two most selective conjunct paths.
    Intersect {
        primary: Path,
        secondary: Path,
    },
    /// Full enumeration — only for MDs with nothing to index.
    Scan {
        reason: &'static str,
    },
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
    rows_a: Vec<u32>,
    rows_b: Vec<u32>,
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

#[derive(Clone, Debug)]
enum PathSpec {
    Equal { premise: usize },
    LevCount { premise: usize, k: usize },
    QGramCount { premise: usize, q: usize, min: f64 },
    JaroFilter { premise: usize, min_jaro: f64 },
}

#[derive(Clone, Debug)]
enum PlanSpec {
    Single(PathSpec),
    Composite {
        premises: Vec<usize>,
    },
    Intersect {
        primary: PathSpec,
        secondary: PathSpec,
    },
    Scan {
        reason: &'static str,
    },
}

/// A costed conjunct: estimated candidates per probe, premise index, and
/// the path that would serve it. Every path is complete (never loses a
/// true match); `degenerate` flags thresholds that keep every row —
/// still complete, but useless as an intersection filter.
struct Costed {
    cost: f64,
    premise: usize,
    spec: PathSpec,
    /// A degenerate threshold (qgram min ≤ 0, Jaro floor ≤ 1/3) keeps
    /// every row.
    degenerate: bool,
}

fn cost_conjunct(md: &Md, premise: usize, rows: usize, stats: &HashMap<AttrId, usize>) -> Costed {
    let p = &md.premises()[premise];
    let distinct = stats.get(&p.master_attr).copied().unwrap_or(1).max(1);
    let per_value = rows as f64 / distinct as f64;
    if p.pred.is_equality() {
        return Costed {
            cost: per_value,
            premise,
            spec: PathSpec::Equal { premise },
            degenerate: false,
        };
    }
    if let Some(k) = p.pred.edit_threshold() {
        // The count bound forgives q grams per edit, so expected
        // candidates widen linearly with k.
        return Costed {
            cost: per_value * LEV_COST_FACTOR * (k + 1) as f64,
            premise,
            spec: PathSpec::LevCount { premise, k },
            degenerate: false,
        };
    }
    if let Some((q, min)) = p.pred.qgram_params() {
        let degenerate = min <= 0.0;
        let cost = if degenerate {
            rows as f64 // keeps every row
        } else {
            per_value * QGRAM_COST_FACTOR
        };
        return Costed {
            cost,
            premise,
            spec: PathSpec::QGramCount { premise, q, min },
            degenerate,
        };
    }
    let min_jaro = p
        .pred
        .jaro_floor()
        .expect("every similarity predicate family is costed");
    let degenerate = 3.0 * min_jaro - 1.0 <= 0.0;
    let cost = if degenerate {
        rows as f64
    } else {
        per_value * JARO_COST_FACTOR
    };
    Costed {
        cost,
        premise,
        spec: PathSpec::JaroFilter { premise, min_jaro },
        degenerate,
    }
}

/// Choose the access plan for one MD. Every candidate path is complete,
/// so the choice is purely cost: a lone equality probe when one exists
/// (always the tightest), otherwise the cheapest similarity filter; a
/// second selective conjunct intersects in when the base is expected to
/// leave enough candidates for a second probe to pay for itself —
/// intersection of complete filters is complete, so candidates can only
/// shrink, never verified matches.
fn plan_md(md: &Md, rows: usize, stats: &HashMap<AttrId, usize>, policy: IndexPolicy) -> PlanSpec {
    let premises = md.premises();
    if premises.is_empty() {
        return PlanSpec::Scan {
            reason: "MD has no premise conjuncts to index",
        };
    }
    let eqs: Vec<usize> = md.equality_premise_indices().collect();
    if eqs.len() >= 2 {
        // All equalities collapse into one composite probe; its expected
        // selectivity is at worst that of the best single equality.
        return PlanSpec::Composite { premises: eqs };
    }
    let costed: Vec<Costed> = (0..premises.len())
        .map(|i| cost_conjunct(md, i, rows, stats))
        .collect();
    // Base path: the lone equality, else the cheapest filter.
    let base = if let Some(&eq) = eqs.first() {
        &costed[eq]
    } else {
        costed
            .iter()
            .min_by(|a, b| {
                a.cost
                    .partial_cmp(&b.cost)
                    .expect("finite costs")
                    .then(a.premise.cmp(&b.premise))
            })
            .expect("premises is non-empty")
    };
    // Secondary filter: the most selective conjunct other than the base,
    // if the base is expected to leave enough candidates for a second
    // probe to pay for itself.
    let secondary = costed
        .iter()
        .filter(|c| c.premise != base.premise && !c.degenerate)
        .min_by(|a, b| {
            a.cost
                .partial_cmp(&b.cost)
                .expect("finite costs")
                .then(a.premise.cmp(&b.premise))
        });
    match secondary {
        Some(s) if base.cost > policy.intersect_above => PlanSpec::Intersect {
            primary: base.spec.clone(),
            secondary: s.spec.clone(),
        },
        _ => PlanSpec::Single(base.spec.clone()),
    }
}

// ---------------------------------------------------------------------------
// Artifact construction (the parallel stage).
// ---------------------------------------------------------------------------

/// A deduplicated unit of index construction; every distinct key builds
/// once, on its own worker when parallelism allows. `~lev` and
/// `~qgram(2, …)` conjuncts on one attribute share one `QGram(attr, 2)`
/// artifact.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum ArtifactKey {
    Equal(AttrId),
    QGram(AttrId, usize),
    /// Master attributes of all equality conjuncts, premise order.
    Composite(Vec<AttrId>),
}

enum Artifact {
    Equal(Arc<FxHashMap<Symbol, Vec<u32>>>),
    QGram(Arc<QGramIndex>, Arc<VidColumn>),
    Composite(Arc<FxHashMap<u64, Vec<u32>>>),
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

fn build_artifact(key: &ArtifactKey, master: &Relation, threads: usize) -> Artifact {
    let interner = master.interner();
    match key {
        ArtifactKey::Equal(attr) => {
            // The master column is already interned by its store: key the
            // rows by those symbols, no value hashing at all.
            let mut m: FxHashMap<Symbol, Vec<u32>> = FxHashMap::default();
            for (row, &sym) in master.col_syms(*attr).iter().enumerate() {
                m.entry(sym).or_default().push(row as u32);
            }
            Artifact::Equal(Arc::new(m))
        }
        ArtifactKey::QGram(attr, q) => {
            // Batched build: one pass over the symbol column collects the
            // owner rows of every distinct non-null symbol (dense
            // first-appearance ids — the same order `QGramIndex::build`
            // assigns), then each distinct value is rendered and hashed
            // exactly once, fanned out over workers with per-chunk
            // scratch reuse.
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
            // Each worker checks a profile arena out of the process-wide
            // pool (hashing scratch + retired profile vectors), so
            // repeated index rebuilds stop allocating per chunk; the
            // borrowing `from_parts` only copies the gram runs out, and
            // the arenas return to the pool when the guards drop. The
            // rendered texts are kept as the columnar-sweep sidecar.
            let parts = map_chunks(syms.len(), threads, |range| {
                let mut arena = ProfilePool::global().checkout();
                let mut texts: Vec<Box<str>> = Vec::with_capacity(range.len());
                for i in range {
                    let s = interner.resolve(syms[i]).render();
                    arena.push(&s, *q);
                    texts.push(s.into_owned().into_boxed_str());
                }
                (arena, texts)
            });
            let index = QGramIndex::from_parts(
                parts.iter().flat_map(|(arena, _)| arena.profiles()),
                owners,
                master.len(),
                *q,
            );
            let texts: Vec<Box<str>> = parts.into_iter().flat_map(|(_, texts)| texts).collect();
            Artifact::QGram(Arc::new(index), Arc::new(VidColumn { syms, texts }))
        }
        ArtifactKey::Composite(attrs) => {
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
            Artifact::Composite(Arc::new(map))
        }
    }
}

/// Per-MD access paths over one master relation.
pub struct MasterIndex {
    plans: Vec<Plan>,
    /// Snapshot of the master store's interner, which the symbol-keyed
    /// equality paths probe through (empty when no such path exists).
    interner: Arc<ValueInterner>,
    master_len: usize,
    /// Globally unique build stamp guarding symbol-keyed scratch caches.
    epoch: u64,
}

impl MasterIndex {
    /// Build access paths for `mds` over `master`, single-threaded.
    /// Indexes on the same master column are shared between MDs.
    pub fn build(mds: &[Md], master: &Relation) -> Self {
        Self::build_with_policy(mds, master, 1, IndexPolicy::default())
    }

    /// [`Self::build`] fanning index construction out over `threads`
    /// scoped workers (one per distinct per-attribute artifact). The built
    /// index is identical at every thread count. The `bool` is ignored:
    /// equality paths are always keyed by the master store's symbols. It
    /// stays only because the benchmark harness still passes one.
    pub fn build_parallel(mds: &[Md], master: &Relation, _: bool, threads: usize) -> Self {
        Self::build_with_policy(mds, master, threads, IndexPolicy::default())
    }

    /// Fully parameterized build — the planner entry point. `policy`
    /// tunes plan selection (tests force intersection plans with
    /// `intersect_above: 0.0`); all plans remain match-preserving under
    /// any policy.
    pub fn build_with_policy(
        mds: &[Md],
        master: &Relation,
        threads: usize,
        policy: IndexPolicy,
    ) -> Self {
        // Distinct-count statistics for every premise master column — the
        // planner's selectivity estimates.
        let mut stat_attrs: Vec<AttrId> = mds
            .iter()
            .flat_map(|md| md.premises().iter().map(|p| p.master_attr))
            .collect();
        stat_attrs.sort_unstable();
        stat_attrs.dedup();
        let counts = map_each(stat_attrs.len(), threads, |i| {
            let mut syms: Vec<Symbol> = master.col_syms(stat_attrs[i]).to_vec();
            syms.sort_unstable();
            syms.dedup();
            syms.len()
        });
        let stats: HashMap<AttrId, usize> = stat_attrs.iter().copied().zip(counts).collect();

        // Plan every MD (pure), then build each distinct artifact once —
        // in parallel, one worker per artifact.
        let specs: Vec<PlanSpec> = mds
            .iter()
            .map(|md| plan_md(md, master.len(), &stats, policy))
            .collect();
        let mut keys: Vec<ArtifactKey> = Vec::new();
        let mut key_ids: HashMap<ArtifactKey, usize> = HashMap::new();
        let mut want = |key: ArtifactKey| {
            key_ids.entry(key.clone()).or_insert_with(|| {
                keys.push(key);
                keys.len() - 1
            });
        };
        let path_key = |md: &Md, spec: &PathSpec| match spec {
            PathSpec::Equal { premise } => ArtifactKey::Equal(md.premises()[*premise].master_attr),
            PathSpec::LevCount { premise, .. } => {
                ArtifactKey::QGram(md.premises()[*premise].master_attr, LEV_QGRAM_Q)
            }
            PathSpec::QGramCount { premise, q, .. } => {
                ArtifactKey::QGram(md.premises()[*premise].master_attr, *q)
            }
            PathSpec::JaroFilter { premise, .. } => {
                ArtifactKey::QGram(md.premises()[*premise].master_attr, 1)
            }
        };
        for (md, spec) in mds.iter().zip(&specs) {
            match spec {
                PlanSpec::Single(p) => want(path_key(md, p)),
                PlanSpec::Composite { premises } => want(ArtifactKey::Composite(
                    premises
                        .iter()
                        .map(|&i| md.premises()[i].master_attr)
                        .collect(),
                )),
                PlanSpec::Intersect { primary, secondary } => {
                    want(path_key(md, primary));
                    want(path_key(md, secondary));
                }
                PlanSpec::Scan { .. } => {}
            }
        }
        // Each artifact gets its own worker; the batched q-gram builds
        // split the residual thread budget between them.
        let inner_threads = (threads / keys.len().max(1)).max(1);
        let artifacts = map_each(keys.len(), threads, |i| {
            build_artifact(&keys[i], master, inner_threads)
        });

        // Assemble the runtime plans.
        let resolve_path = |md: &Md, spec: &PathSpec| -> Path {
            let id = key_ids[&path_key(md, spec)];
            match (spec, &artifacts[id]) {
                (PathSpec::Equal { premise }, Artifact::Equal(map)) => Path::Equal {
                    premise: *premise,
                    map: map.clone(),
                },
                (PathSpec::LevCount { premise, k }, Artifact::QGram(index, col)) => {
                    Path::LevCount {
                        premise: *premise,
                        k: *k,
                        index: index.clone(),
                        col: col.clone(),
                    }
                }
                (PathSpec::QGramCount { premise, q, min }, Artifact::QGram(index, _)) => {
                    Path::QGramCount {
                        premise: *premise,
                        q: *q,
                        min: *min,
                        index: index.clone(),
                    }
                }
                (PathSpec::JaroFilter { premise, min_jaro }, Artifact::QGram(index, _)) => {
                    Path::JaroFilter {
                        premise: *premise,
                        min_jaro: *min_jaro,
                        index: index.clone(),
                    }
                }
                _ => unreachable!("artifact kind matches its key"),
            }
        };
        let mut keyed_by_symbol = false;
        let plans: Vec<Plan> = mds
            .iter()
            .zip(&specs)
            .map(|(md, spec)| match spec {
                PlanSpec::Single(p) => {
                    let path = resolve_path(md, p);
                    keyed_by_symbol |= matches!(path, Path::Equal { .. });
                    Plan::Single(path)
                }
                PlanSpec::Composite { premises } => {
                    let key = ArtifactKey::Composite(
                        premises
                            .iter()
                            .map(|&i| md.premises()[i].master_attr)
                            .collect(),
                    );
                    let Artifact::Composite(map) = &artifacts[key_ids[&key]] else {
                        unreachable!("artifact kind matches its key")
                    };
                    keyed_by_symbol = true;
                    Plan::Composite {
                        premises: premises.clone().into(),
                        map: map.clone(),
                    }
                }
                PlanSpec::Intersect { primary, secondary } => {
                    let a = resolve_path(md, primary);
                    let b = resolve_path(md, secondary);
                    keyed_by_symbol |=
                        matches!(a, Path::Equal { .. }) || matches!(b, Path::Equal { .. });
                    Plan::Intersect {
                        primary: a,
                        secondary: b,
                    }
                }
                PlanSpec::Scan { reason } => Plan::Scan { reason },
            })
            .collect();
        // Symbols in the equality maps are the master store's; probes
        // resolve through a snapshot of its (append-only) interner.
        let interner = if keyed_by_symbol {
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

    /// Append the candidates of one single-conjunct path (unordered,
    /// unique rows; empty on a null probe value).
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
            Path::Equal { premise, map } => {
                let v = t.value(md.premises()[*premise].attr);
                if v.is_null() {
                    return;
                }
                if let Some(rows) = self.interner.get(v).and_then(|sym| map.get(&sym)) {
                    out.extend_from_slice(rows);
                }
            }
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
                if simd::accelerated() {
                    // Column-at-a-time confirm: count-filter down to
                    // candidate *distinct values*, sweep them through one
                    // probe-compiled Myers pattern, and expand only the
                    // confirmed values to their owner rows. The sweep
                    // seeds the pair-verdict memo, so full premise
                    // verification replays these answers for free.
                    let mut vids = qgram.take_vids();
                    vids.clear();
                    {
                        // The probe profile comes from the same
                        // symbol-keyed cache premise verification uses —
                        // built once per distinct probe value.
                        let profile = match probe_sym {
                            Some(sym) => {
                                matching.probe_profile_cached(sym.0, LEV_QGRAM_Q, &rendered)
                            }
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
                } else {
                    let profile = match probe_sym {
                        Some(sym) => matching.probe_profile_cached(sym.0, LEV_QGRAM_Q, &rendered),
                        None => matching.probe_profile_owned(LEV_QGRAM_Q, &rendered),
                    };
                    index.candidates_lev_into(profile, *k, qgram, out);
                }
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
            qgram,
            rows_a,
            rows_b,
            matching,
            ..
        } = scratch;
        match &self.plans[md_idx] {
            Plan::Scan { .. } => unreachable!("scan plans never reach candidate computation"),
            Plan::Single(path @ Path::Equal { .. }) => {
                // Exact buckets are already ascending and unique: emit
                // straight off the map.
                self.collect_path(path, md, t, qgram, matching, out);
            }
            Plan::Single(path) => {
                self.collect_path(path, md, t, qgram, matching, out);
                out.sort_unstable();
            }
            Plan::Composite { premises, map } => {
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
                if let Some(rows) = map.get(&h.finish()) {
                    out.extend_from_slice(rows);
                }
            }
            Plan::Intersect { primary, secondary } => {
                rows_a.clear();
                self.collect_path(primary, md, t, qgram, matching, rows_a);
                if rows_a.is_empty() {
                    return;
                }
                rows_b.clear();
                self.collect_path(secondary, md, t, qgram, matching, rows_b);
                rows_a.sort_unstable();
                rows_b.sort_unstable();
                let (mut i, mut j) = (0usize, 0usize);
                while i < rows_a.len() && j < rows_b.len() {
                    match rows_a[i].cmp(&rows_b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            out.push(rows_a[i]);
                            i += 1;
                            j += 1;
                        }
                    }
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

    /// Does every verified match of `t` under MD `md_idx` agree with it on
    /// the RHS (`t[E] = s[F]`, SQL null semantics, §7)? The §3.2
    /// acceptance test of one (tuple, MD) pair, two-phase like
    /// [`Self::matches_into`]. A candidate agreeing on the RHS cannot
    /// violate the MD whatever its premise says, so only disagreeing
    /// candidates pay for premise verification.
    pub(crate) fn matches_agree<'t>(
        &self,
        md_idx: usize,
        md: &Md,
        t: impl Row<'t>,
        master: &Relation,
        scratch: &mut ProbeScratch,
    ) -> bool {
        let (e, f) = md.rhs()[0];
        let mut cand = std::mem::take(&mut scratch.cand);
        cand.clear();
        self.for_each_candidate(md_idx, md, t, scratch, |sid| cand.push(sid));
        let agree = cand.iter().all(|&sid| {
            let s = master.tuple(sid);
            t.value(e).eq_nullable(s.value(f))
                || !md.premise_matches_with(t, s, &mut scratch.matching)
        });
        scratch.cand = cand;
        agree
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
        let path = |p: &Path| match p {
            Path::Equal { premise, .. } => format!("exact-eq({})", attr(*premise)),
            Path::LevCount { premise, k, .. } => {
                format!("lev-count({}, q={LEV_QGRAM_Q}, k={k})", attr(*premise))
            }
            Path::QGramCount {
                premise, q, min, ..
            } => {
                format!("qgram-count({}, q={q}, min={min})", attr(*premise))
            }
            Path::JaroFilter {
                premise, min_jaro, ..
            } => format!("jaro-1gram({}, floor={min_jaro:.3})", attr(*premise)),
        };
        match &self.plans[md_idx] {
            Plan::Single(p) => path(p),
            Plan::Composite { premises, .. } => format!(
                "composite-eq({})",
                premises
                    .iter()
                    .map(|&i| attr(i))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Plan::Intersect { primary, secondary } => {
                format!("intersect({} ∩ {})", path(primary), path(secondary))
            }
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
        assert!(idx.describe_plan(0, &mds[0]).starts_with("composite-eq"));
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
    fn forced_intersection_plan_preserves_matches() {
        let tran = Schema::of_strings("tran", &["LN", "FN", "phn"]);
        let card = Schema::of_strings("card", &["LN", "FN", "tel"]);
        let text = "md m: tran[LN] = card[LN] AND tran[FN] ~qgram(2,0.5) card[FN] \
                    -> tran[phn] <=> card[tel]";
        let mds = parse_rules(text, &tran, Some(&card)).unwrap().positive_mds;
        let dm = Relation::new(
            card,
            vec![
                Tuple::of_strs(&["Smith", "Mark", "111"], 1.0),
                Tuple::of_strs(&["Smith", "Robert", "222"], 1.0),
                Tuple::of_strs(&["Brady", "Mark", "333"], 1.0),
            ],
        );
        let plain = MasterIndex::build(&mds, &dm);
        let forced = MasterIndex::build_with_policy(
            &mds,
            &dm,
            1,
            IndexPolicy {
                intersect_above: 0.0,
            },
        );
        assert!(forced.describe_plan(0, &mds[0]).starts_with("intersect("));
        for (ln, fn_) in [
            ("Smith", "Marc"),
            ("Smith", "Zed"),
            ("Brady", "Mark"),
            ("X", "Y"),
        ] {
            let t = Tuple::of_strs(&[ln, fn_, "9"], 0.5);
            assert_eq!(
                probe_matches(&forced, &mds[0], &t, &dm),
                probe_matches(&plain, &mds[0], &t, &dm),
                "probe ({ln}, {fn_})"
            );
            assert_eq!(
                probe_matches(&forced, &mds[0], &t, &dm),
                reference_matches(&mds[0], &t, &dm),
            );
        }
    }

    #[test]
    fn forced_intersection_with_lev_secondary_preserves_matches() {
        // The lev count filter is complete, so since this PR it may serve
        // as an intersection secondary; matches must be scan-identical.
        let tran = Schema::of_strings("tran", &["LN", "FN", "phn"]);
        let card = Schema::of_strings("card", &["LN", "FN", "tel"]);
        let text = "md m: tran[LN] ~qgram(2,0.5) card[LN] AND tran[FN] ~lev(1) card[FN] \
                    -> tran[phn] <=> card[tel]";
        let mds = parse_rules(text, &tran, Some(&card)).unwrap().positive_mds;
        let dm = Relation::new(
            card,
            vec![
                Tuple::of_strs(&["Smith", "Mark", "111"], 1.0),
                Tuple::of_strs(&["Smyth", "Marc", "222"], 1.0),
                Tuple::of_strs(&["Brady", "Mark", "333"], 1.0),
            ],
        );
        let forced = MasterIndex::build_with_policy(
            &mds,
            &dm,
            1,
            IndexPolicy {
                intersect_above: 0.0,
            },
        );
        assert!(forced.describe_plan(0, &mds[0]).starts_with("intersect("));
        for (ln, fn_) in [("Smith", "Mark"), ("Smyth", "Marx"), ("Smith", "Zed")] {
            let t = Tuple::of_strs(&[ln, fn_, "9"], 0.5);
            assert_eq!(
                probe_matches(&forced, &mds[0], &t, &dm),
                reference_matches(&mds[0], &t, &dm),
                "probe ({ln}, {fn_})"
            );
        }
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

    #[test]
    fn parallel_build_produces_identical_plans() {
        let tran = Schema::of_strings("tran", &["LN", "FN", "phn"]);
        let card = Schema::of_strings("card", &["LN", "FN", "tel"]);
        let text = "md a: tran[LN] = card[LN] AND tran[FN] = card[FN] -> tran[phn] <=> card[tel]\n\
                    md b: tran[FN] ~lev(1) card[FN] -> tran[phn] <=> card[tel]\n\
                    md c: tran[LN] ~qgram(2,0.6) card[LN] -> tran[phn] <=> card[tel]";
        let mds = parse_rules(text, &tran, Some(&card)).unwrap().positive_mds;
        let dm = Relation::new(
            card,
            vec![
                Tuple::of_strs(&["Smith", "Mark", "111"], 1.0),
                Tuple::of_strs(&["Brady", "Rob", "222"], 1.0),
            ],
        );
        let seq = MasterIndex::build_with_policy(&mds, &dm, 1, IndexPolicy::default());
        let par = MasterIndex::build_with_policy(&mds, &dm, 4, IndexPolicy::default());
        for (i, md) in mds.iter().enumerate() {
            assert_eq!(seq.describe_plan(i, md), par.describe_plan(i, md));
            for name in ["Smith", "Smoth", "Brady"] {
                let t = Tuple::of_strs(&[name, "Mark", "9"], 0.5);
                let mut sa = ProbeScratch::new();
                let mut sb = ProbeScratch::new();
                let (mut a, mut b) = (Vec::new(), Vec::new());
                seq.matches_into(i, md, &t, &dm, None, &mut sa, &mut a);
                par.matches_into(i, md, &t, &dm, None, &mut sb, &mut b);
                assert_eq!(a, b, "md {i} probe {name:?}");
            }
        }
    }
}
