//! The cleaning session: [`Cleaner`], built through [`Cleaner::builder`],
//! and the one phase loop every entry point runs.
//!
//! The paper describes *one* unified process over record matching (MDs)
//! and repairing (CFDs) — "three algorithms consecutively … no need to
//! iterate" (§3.2) — ending in one acceptance condition. The engine has
//! one of each:
//!
//! * **one phase loop** (`run_phases`): `cRepair → eRepair → hRepair`
//!   over a set of per-relation structures (`Warm`), wherever master
//!   data comes from — an external relation (§1, Fig 1), the data itself
//!   via per-phase snapshots (§9's master-free adaptation), or nowhere
//!   (CFD-only repairing); the [`MasterSource`] enum picks the per-phase
//!   master view. A from-scratch run is the loop over fresh structures; a
//!   [`Cleaner::clean_delta`] is the same loop continuing persisted ones.
//! * **one full clean** (`full_clean`): phases → acceptance → cost.
//!   [`Cleaner::clean`] is it with the structures dropped;
//!   [`Cleaner::begin`] is it with them kept in a
//!   [`RepairState`](crate::RepairState).
//! * **one acceptance owner**: every verdict comes from
//!   [`ConsistencyIndex`] (see [`crate::acceptance`]).
//!
//! [`PreparedCleaner`] holds everything that depends only on the rules,
//! the master data and the configuration — normalized rules, the §5.2
//! master access paths ([`MasterIndex`]) and `eRepair`'s §6.2 rule order —
//! built **once** by [`CleanerBuilder::build`] and shared (`Arc`) by every
//! call, so a service pays rule/index preparation once, not per request.
//!
//! Construction is fallible and typed: every misuse is a [`CleanError`]
//! from [`CleanerBuilder::build`], never a panic. A built `Cleaner` owns
//! `Arc`s of its rules and master data, so it can live in a service and be
//! shared across threads for many `clean` calls.
//!
//! Instrumentation flows through one surface: [`PhaseObserver`] receives
//! per-phase timing and fix counts as the run progresses, and the same
//! [`PhaseStats`] records land in [`CleanResult::phases`].

use std::sync::Arc;
use std::time::Instant;

use uniclean_model::{repair_cost, AttrId, FixMark, Relation, Tuple, TupleId};
use uniclean_reasoning::{erepair_order, RuleRef};
use uniclean_rules::RuleSet;

use crate::acceptance::ConsistencyIndex;
use crate::config::CleanConfig;
use crate::crepair::{c_run, CFixpoint, CGuard};
use crate::erepair::e_run;
use crate::error::CleanError;
use crate::fix::FixReport;
use crate::hrepair::h_run;
use crate::master_index::MasterIndex;
use crate::md_cache::MdMatchCache;
use crate::two_in_one::TwoInOne;

/// Where the master relation `Dm` comes from.
#[derive(Clone, Debug, Default)]
pub enum MasterSource {
    /// An external, correct master relation (the paper's main setting,
    /// §2.1: master data is "consistent and accurate").
    External(Arc<Relation>),
    /// Master-free mode (§1/§9): before each phase a snapshot of the
    /// current repair state is rendered into the MDs' master schema, so
    /// matches are found *within* `D` and each phase sees the previous
    /// phase's repairs. The rule set must be authored with a master schema
    /// that mirrors the data schema positionally (e.g. a renamed clone).
    /// Deterministic fixes lose their master-data warranty in this mode.
    SelfSnapshot,
    /// No master data: CFD-only repairing (the experiments' `Uni(CFD)`).
    /// Building a cleaner whose rules contain MDs over this source fails
    /// with [`CleanError::MdsWithoutMaster`].
    #[default]
    None,
}

impl MasterSource {
    /// Convenience constructor accepting either a `Relation` or an
    /// `Arc<Relation>`.
    pub fn external(dm: impl Into<Arc<Relation>>) -> Self {
        MasterSource::External(dm.into())
    }
}

/// One of the three cleaning phases — and, as a selector, the prefix of
/// the pipeline ending at that phase (`cleaner.clean(&d, Phase::CERepair)`
/// runs `cRepair` then `eRepair`). `{:?}` prints the variant name, so
/// `Phase::Full` debugs as `"HRepair"`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Deterministic fixes from confidence analysis (§5). As a selector:
    /// run `cRepair` only.
    CRepair,
    /// Reliable fixes from information entropy (§6). As a selector: run
    /// `cRepair` then `eRepair`.
    ERepair,
    /// Possible fixes via equivalence classes and the cost model (§7). As
    /// a selector: run all three phases.
    HRepair,
}

impl Phase {
    /// Selector spelling for "deterministic + reliable fixes"
    /// (`cRepair` + `eRepair`) — the same value as [`Phase::ERepair`].
    #[allow(non_upper_case_globals)] // reads as a variant at call sites
    pub const CERepair: Phase = Phase::ERepair;
    /// Selector spelling for the full pipeline — the same value as
    /// [`Phase::HRepair`].
    #[allow(non_upper_case_globals)] // reads as a variant at call sites
    pub const Full: Phase = Phase::HRepair;

    /// All phases in execution order.
    pub const ALL: [Phase; 3] = [Phase::CRepair, Phase::ERepair, Phase::HRepair];

    /// Stable display label (`"cRepair"`, `"eRepair"`, `"hRepair"`).
    pub fn label(self) -> &'static str {
        match self {
            Phase::CRepair => "cRepair",
            Phase::ERepair => "eRepair",
            Phase::HRepair => "hRepair",
        }
    }

    /// Position in the fixed phase order (0, 1, 2).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The pipeline prefix this selector denotes: every phase up to and
    /// including `self`, in execution order.
    pub fn through(self) -> &'static [Phase] {
        &Phase::ALL[..=self.index()]
    }
}

/// Timing and fix-count record of one executed phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseStats {
    /// Which phase ran.
    pub phase: Phase,
    /// Wall-clock seconds the phase took (excluding the phase-start
    /// snapshot/index construction for [`MasterSource::SelfSnapshot`],
    /// matching how the paper reports per-algorithm times; `hRepair`'s
    /// per-round snapshots are included).
    pub seconds: f64,
    /// Fixes the phase applied.
    pub fixes: usize,
}

/// Streaming instrumentation hook: benches, progress bars and telemetry
/// all consume this one surface instead of poking at hardcoded fields.
pub trait PhaseObserver {
    /// A phase is about to run.
    fn on_phase_start(&mut self, _phase: Phase) {}
    /// A phase finished with the given stats.
    fn on_phase_end(&mut self, _stats: &PhaseStats) {}
}

/// Observer that ignores everything (the default for [`Cleaner::clean`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoOpObserver;

impl PhaseObserver for NoOpObserver {}

/// Observer that records every phase's stats — the plain "give me the
/// timings" consumer the bench harness uses.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimings {
    /// Stats in execution order.
    pub stats: Vec<PhaseStats>,
}

impl PhaseObserver for PhaseTimings {
    fn on_phase_end(&mut self, stats: &PhaseStats) {
        self.stats.push(*stats);
    }
}

impl PhaseTimings {
    /// Seconds per phase in fixed (c, e, h) order; phases that did not run
    /// report 0.
    pub fn seconds(&self) -> [f64; 3] {
        seconds_by_phase(&self.stats)
    }
}

/// Map phase stats into fixed (c, e, h) slots — the shared backing of
/// [`PhaseTimings::seconds`] and [`CleanResult::phase_seconds`].
fn seconds_by_phase(stats: &[PhaseStats]) -> [f64; 3] {
    let mut out = [0.0; 3];
    for s in stats {
        out[s.phase.index()] = s.seconds;
    }
    out
}

/// The immutable, per-session half of the engine: normalized rules, master
/// source, validated configuration, prebuilt §5.2 master access paths and
/// `eRepair`'s §6.2 rule order.
/// Constructed **once** by [`CleanerBuilder::build`] and reused —
/// unchanged — by every [`Cleaner::clean`], [`Cleaner::begin`] and
/// [`Cleaner::clean_delta`] call.
pub struct PreparedCleaner {
    rules: Arc<RuleSet>,
    master: MasterSource,
    /// Prebuilt §5.2 access paths for [`MasterSource::External`]; the
    /// self-snapshot mode rebuilds per phase instead.
    index: Option<MasterIndex>,
    /// `eRepair`'s §6.2 rule order (dependency-graph SCCs).
    erepair_order: Vec<RuleRef>,
    config: CleanConfig,
}

impl PreparedCleaner {
    /// The rule set `Θ = Σ ∪ Γ`.
    pub fn rules(&self) -> &Arc<RuleSet> {
        &self.rules
    }

    /// The master source this session cleans against.
    pub fn master(&self) -> &MasterSource {
        &self.master
    }

    /// The prebuilt master access paths ([`MasterSource::External`] only).
    pub fn master_index(&self) -> Option<&MasterIndex> {
        self.index.as_ref()
    }

    /// The validated configuration.
    pub fn config(&self) -> &CleanConfig {
        &self.config
    }

    /// The master view one phase round — or the §3.2 acceptance check —
    /// sees, given the repair so far: the one place that decides which
    /// master rows are matched and whether a tuple's own row counts.
    /// External masters reuse the access paths built at `build` time; the
    /// self-snapshot re-renders `current` and indexes it.
    pub(crate) fn view(&self, current: &Relation) -> MasterView<'_> {
        match &self.master {
            MasterSource::External(dm) => {
                MasterView::Prepared(self.index.as_ref().map(|index| Master {
                    dm,
                    index,
                    is_self: false,
                }))
            }
            MasterSource::SelfSnapshot => {
                let snap = self.snapshot(current);
                let idx = MasterIndex::build(self.rules.mds(), &snap);
                MasterView::Snapshot(snap, idx)
            }
            MasterSource::None => MasterView::Prepared(None),
        }
    }

    /// Render the current repair state into the MDs' master schema
    /// (self-snapshot mode only; `build` guarantees the schema exists and
    /// mirrors the data schema). A columnar-store clone — no row tuples
    /// are materialized.
    fn snapshot(&self, work: &Relation) -> Relation {
        let master_schema = self
            .rules
            .master_schema()
            .expect("Cleaner::build verified the self-snapshot schema")
            .clone();
        Relation::with_schema(master_schema, work)
    }
}

/// The per-relation structures the phase loop runs over. A from-scratch
/// run starts from [`Warm::fresh`]; a [`RepairState`](crate::RepairState)
/// persists them between calls so a delta continues where the last run
/// stopped.
pub(crate) struct Warm {
    /// The `cRepair` fixpoint of the input so far, evolved in place.
    pub(crate) post_c: Relation,
    /// The live `cRepair` fixpoint machine over `post_c`.
    cfix: CFixpoint,
    /// The witness cache of the session's master view, with `post_c` as
    /// its base relation: every phase of every call reads it.
    pub(crate) cache: MdMatchCache,
    /// `eRepair`'s 2-in-1 structure pinned to `post_c`, present once
    /// `eRepair` has run.
    pub(crate) two: Option<TwoInOne>,
}

impl Warm {
    /// Fresh structures over `d`: nothing settled, nothing cached.
    fn fresh(prepared: &PreparedCleaner, d: Relation) -> Self {
        Warm {
            cfix: CFixpoint::new(&prepared.rules, d.len()),
            cache: MdMatchCache::new(&prepared.rules, d.len()),
            post_c: d,
            two: None,
        }
    }

    /// Append a batch of (validated) tuples, unseeded: the next
    /// [`run_phases`] continues the fixpoint over them.
    pub(crate) fn append(&mut self, batch: &[Tuple]) {
        for t in batch {
            self.post_c.push(t.clone());
        }
        self.cfix.grow(batch.len());
        self.cache.grow(batch.len());
    }
}

/// What one pass of the phase loop produced.
pub(crate) struct PhaseRun {
    /// The repair after the last requested phase.
    pub(crate) work: Relation,
    /// Every fix the pass applied, in order.
    pub(crate) report: FixReport,
    /// Per-phase stats, as streamed to the observer.
    pub(crate) phases: Vec<PhaseStats>,
    /// The structures to continue from (`keep` only).
    pub(crate) warm: Option<Warm>,
}

/// Hand a phase its working copy of a pinned structure: a clone when the
/// pinned one outlives the call, the structure itself when nothing is kept.
fn working_copy<T: Clone>(pinned: T, keep: bool) -> (T, Option<T>) {
    if keep {
        (pinned.clone(), Some(pinned))
    } else {
        (pinned, None)
    }
}

/// Run one phase under the observer — the one place a phase starts, is
/// timed and ends.
fn timed(
    observer: &mut dyn PhaseObserver,
    phases: &mut Vec<PhaseStats>,
    phase: Phase,
    body: impl FnOnce() -> FixReport,
) -> FixReport {
    observer.on_phase_start(phase);
    let started = Instant::now();
    let fixes = body();
    let stats = PhaseStats {
        phase,
        seconds: started.elapsed().as_secs_f64(),
        fixes: fixes.len(),
    };
    observer.on_phase_end(&stats);
    phases.push(stats);
    fixes
}

/// The one phase loop: `cRepair → eRepair → hRepair` up to `phase` over
/// `warm`, streaming stats to `observer`.
///
/// `settled` is `None` for a from-scratch run over fresh structures, or
/// `Some(n)` to *continue* persisted ones over the tuples appended after
/// the first `n` — watched by a [`CGuard`], and `None` is returned when it
/// saw evidence the continuation order cannot reproduce (the caller
/// recleans from scratch). With `keep` the later phases work on clones
/// and the structures come back in [`PhaseRun::warm`]; without it they are
/// consumed, so a one-shot clean holds no second copy of anything.
///
/// Each phase gets its own master view ([`PreparedCleaner::view`]), and
/// `hRepair` one per round: under [`MasterSource::SelfSnapshot`] that
/// re-renders the current repair, so each phase sees the previous phase's
/// fixes (the §9 interleaving).
///
/// `hRepair` takes over the 2-in-1 structure `eRepair` worked on as its
/// equivalence classes — the clone under `keep`, the structure itself
/// without — so no phase builds a second variable-CFD group table.
///
/// One witness cache ([`MdMatchCache`]) serves all three phases of the
/// session's master view ([`MasterView::cache`]). A call starts with
/// `begin_run`, which drops the previous call's overlay; `cRepair` writes
/// and settles, so the cache's base is the post-`cRepair` state; `eRepair`
/// and `hRepair` invalidate every cell they rewrite into the overlay, so
/// the cache is valid for `work` throughout and, kept, comes back in the
/// [`Warm`] state.
pub(crate) fn run_phases(
    prepared: &PreparedCleaner,
    phase: Phase,
    warm: Warm,
    settled: Option<usize>,
    keep: bool,
    observer: &mut dyn PhaseObserver,
) -> Option<PhaseRun> {
    let (rules, cfg) = (&prepared.rules, &prepared.config);
    let mut phases = Vec::with_capacity(phase.through().len());
    let Warm {
        mut post_c,
        mut cfix,
        mut cache,
        mut two,
    } = warm;
    cache.begin_run();

    let mut guard = settled.map(|settled| CGuard::new(settled, two.as_mut()));
    let view = prepared.view(&post_c);
    let mut report = timed(observer, &mut phases, Phase::CRepair, || {
        let mut spare = None;
        let fixes = c_run(
            &mut post_c,
            view.master(),
            rules,
            cfg,
            &mut cfix,
            view.cache(&mut cache, &mut spare),
            guard.as_mut(),
        );
        // An aborted continuation keeps none of its fixes.
        match &guard {
            Some(g) if g.hazard => FixReport::new(),
            _ => fixes,
        }
    });
    if guard.is_some_and(|g| g.hazard) {
        return None;
    }

    let (mut work, post_c) = working_copy(post_c, keep);
    // Unless kept, the fixpoint machine is freed here — not held across
    // the later phases.
    let kept_c = post_c.map(|post_c| (post_c, cfix));
    // eRepair's pinned 2-in-1 (kept states only), and the working one it
    // leaves to hRepair.
    let mut kept_two = None;
    let mut worked_two = None;
    if phase >= Phase::ERepair {
        let view = prepared.view(&work);
        let e_fixes = timed(observer, &mut phases, Phase::ERepair, || {
            let two = match (two, settled) {
                // A persisted 2-in-1 is exact for the settled tuples —
                // `cRepair` fed it every settled cell its cascade rewrote —
                // and extends over the batch by insert-time deltas. Every
                // continuation has one: a state's phase is fixed, so the
                // call that pinned it ran `eRepair` too.
                (Some(mut two), Some(settled)) => {
                    two.insert_tuples(&work, settled);
                    two
                }
                _ => TwoInOne::build(rules, &work),
            };
            // eRepair re-derives its (globally decided) fixes from the
            // post-cRepair state on every run, consuming its 2-in-1.
            let (mut structure, two) = working_copy(two, keep);
            kept_two = two;
            let mut spare = None;
            let fixes = e_run(
                &mut work,
                view.master(),
                rules,
                &prepared.erepair_order,
                cfg,
                &mut structure,
                view.cache(&mut cache, &mut spare),
            );
            worked_two = (phase >= Phase::HRepair).then_some(structure);
            fixes
        });
        report.extend(e_fixes);
    }
    if phase >= Phase::HRepair {
        let h_fixes = timed(observer, &mut phases, Phase::HRepair, || {
            let mut two = worked_two.expect("eRepair ran before hRepair");
            h_run(
                &mut work,
                rules,
                cfg,
                |cur| prepared.view(cur),
                &mut two,
                &mut cache,
            )
        });
        report.extend(h_fixes);
    }

    Some(PhaseRun {
        work,
        report,
        phases,
        warm: kept_c.map(|(post_c, cfix)| Warm {
            post_c,
            cfix,
            cache,
            two: kept_two,
        }),
    })
}

/// The one from-scratch clean: phases → acceptance → cost. With `keep`,
/// the structures a [`RepairState`](crate::RepairState) continues from
/// come back alongside the result; [`Cleaner::clean`] is this with nothing
/// kept. Self-snapshot masters re-render per phase, so nothing
/// per-relation can be pinned and `keep` yields no [`Warm`] (deltas over
/// such a state always reclean).
pub(crate) fn full_clean(
    prepared: &PreparedCleaner,
    d: &Relation,
    phase: Phase,
    keep: bool,
    observer: &mut dyn PhaseObserver,
) -> (CleanResult, Option<Warm>, ConsistencyIndex) {
    let keep = keep && !matches!(prepared.master, MasterSource::SelfSnapshot);
    let fresh = Warm::fresh(prepared, d.clone());
    let run = run_phases(prepared, phase, fresh, None, keep, observer)
        .expect("only a continuation can be aborted");

    // Acceptance (§3.2): `Dr ⊨ Σ` and `(Dr, Dm) ⊨ Γ`, checked against
    // whatever master view the final state implies.
    let view = prepared.view(&run.work);
    let master = view.master().map(|m| (m.dm, m.index));
    let cons = ConsistencyIndex::build(&prepared.rules, &run.work, master);
    let result = CleanResult {
        cost: repair_cost(d, &run.work),
        consistent: cons.consistent(),
        repaired: run.work,
        report: run.report,
        phases: run.phases,
    };
    (result, run.warm, cons)
}

/// The master data one phase round matches against: the rows `Dm`, their
/// access paths, and whether `Dm` is a snapshot of the data itself.
#[derive(Clone, Copy)]
pub(crate) struct Master<'a> {
    pub(crate) dm: &'a Relation,
    pub(crate) index: &'a MasterIndex,
    /// Set only under [`MasterSource::SelfSnapshot`]; read through
    /// [`Master::own_row`] and [`Master::is_evidence`]. Acceptance ignores
    /// it: a tuple's own row agrees with it on the RHS.
    is_self: bool,
}

impl<'a> Master<'a> {
    /// The row tuple `t` must not match: its own (positional) copy in a
    /// self-snapshot, which would otherwise witness against every fresh
    /// fix.
    pub(crate) fn own_row(&self, t: TupleId) -> Option<TupleId> {
        self.is_self.then_some(t)
    }

    /// Does row `s` carry evidence for the conclusion attribute `f`? Master
    /// data always does; a self-snapshot row only when that cell is
    /// asserted (`cf ≥ η`), since the snapshot is dirty data.
    pub(crate) fn is_evidence(&self, s: TupleId, f: AttrId, eta: f64) -> bool {
        !self.is_self || self.dm.tuple(s).cf(f) >= eta
    }

    /// The external master the public per-phase entry points
    /// ([`crate::c_repair`], [`crate::e_repair`], [`crate::h_repair`])
    /// take as loose halves; `None` without master data.
    pub(crate) fn external(
        rules: &RuleSet,
        dm: Option<&'a Relation>,
        index: Option<&'a MasterIndex>,
    ) -> Option<Self> {
        assert!(
            rules.mds().is_empty() || (dm.is_some() && index.is_some()),
            "rule set contains MDs: master data and a MasterIndex are required"
        );
        Some(Master {
            dm: dm?,
            index: index?,
            is_self: false,
        })
    }
}

/// The master of one phase round or acceptance check: borrowed from the
/// session, or a snapshot of the repair so far owned by the view.
pub(crate) enum MasterView<'a> {
    Prepared(Option<Master<'a>>),
    Snapshot(Relation, MasterIndex),
}

impl MasterView<'_> {
    /// The master to match against, or `None` without master data.
    pub(crate) fn master(&self) -> Option<Master<'_>> {
        match self {
            MasterView::Prepared(master) => *master,
            MasterView::Snapshot(dm, index) => Some(Master {
                dm,
                index,
                is_self: true,
            }),
        }
    }

    /// The witness cache serving this view — the one place that decides
    /// it. The session's own master is one relation across every phase and
    /// call, so `warm` serves it; a snapshot is a new master relation, so
    /// it gets a fresh cache, held in `spare`.
    pub(crate) fn cache<'c>(
        &self,
        warm: &'c mut MdMatchCache,
        spare: &'c mut Option<MdMatchCache>,
    ) -> &'c mut MdMatchCache {
        match self {
            MasterView::Prepared(_) => warm,
            MasterView::Snapshot(..) => spare.insert(warm.empty_like()),
        }
    }
}

/// Result of a cleaning run.
#[derive(Clone, Debug)]
pub struct CleanResult {
    /// The (partially) repaired relation.
    pub repaired: Relation,
    /// Every fix applied, in order, across phases.
    pub report: FixReport,
    /// `cost(Dr, D)` under the §3.1 model.
    pub cost: f64,
    /// Did the final relation satisfy `Σ` and `Γ` (null semantics)? After
    /// `Phase::Full` it is `false` only when hRepair meets a conflict
    /// between frozen cells. Contradictory asserted cells or master data
    /// (against §5.1's assumptions) cause one. So can inputs that meet
    /// every assumption: a corrupted cf-0 key can drag a tuple into a
    /// variable-CFD class whose values conflict with a correct
    /// deterministic fix of that tuple, and hRepair moves the tuple's other
    /// cells instead of its key. Generated `hosp` seeds 18 and 110 at
    /// 4 000 × 1 000 end that way (ROADMAP item 2).
    pub consistent: bool,
    /// Per-phase timing and fix counts, in execution order. The same
    /// records stream through [`PhaseObserver`] during the run.
    pub phases: Vec<PhaseStats>,
}

impl CleanResult {
    /// Fix counts by final mark: (deterministic, reliable, possible).
    pub fn fix_counts(&self) -> (usize, usize, usize) {
        (
            self.report.count_final(FixMark::Deterministic),
            self.report.count_final(FixMark::Reliable),
            self.report.count_final(FixMark::Possible),
        )
    }

    /// Wall-clock seconds spent in each phase, in fixed (c, e, h) order;
    /// phases that did not run report 0.
    pub fn phase_seconds(&self) -> [f64; 3] {
        seconds_by_phase(&self.phases)
    }
}

/// An owned, reusable cleaning session: a shared [`PreparedCleaner`]
/// behind an `Arc`, cheap to clone across threads.
///
/// ```
/// use std::sync::Arc;
/// use uniclean_core::{Cleaner, CleanConfig, MasterSource, Phase};
/// use uniclean_model::{Relation, Schema, Tuple};
/// use uniclean_rules::{parse_rules, RuleSet};
///
/// let tran = Schema::of_strings("tran", &["AC", "city"]);
/// let parsed = parse_rules("cfd phi1: tran([AC=131] -> [city=Edi])", &tran, None).unwrap();
/// let rules = RuleSet::cfds_only(tran.clone(), parsed.cfds);
///
/// let cleaner = Cleaner::builder()
///     .rules(rules)
///     .master(MasterSource::None)
///     .config(CleanConfig::default())
///     .build()
///     .unwrap();
/// let dirty = Relation::new(tran, vec![Tuple::of_strs(&["131", "Ldn"], 0.5)]);
/// let result = cleaner.clean(&dirty, Phase::Full);
/// assert!(result.consistent);
/// ```
pub struct Cleaner {
    prepared: Arc<PreparedCleaner>,
}

impl std::fmt::Debug for Cleaner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Summaries only: a service logging `{:?}` must not dump a
        // multi-thousand-tuple master relation.
        let prepared = &self.prepared;
        let master = match &prepared.master {
            MasterSource::External(dm) => {
                format!("External({}, {} tuples)", dm.schema().name(), dm.len())
            }
            MasterSource::SelfSnapshot => "SelfSnapshot".to_string(),
            MasterSource::None => "None".to_string(),
        };
        f.debug_struct("Cleaner")
            .field("schema", &prepared.rules.schema().name())
            .field("cfds", &prepared.rules.cfds().len())
            .field("mds", &prepared.rules.mds().len())
            .field("master", &master)
            .field("config", &prepared.config)
            .finish_non_exhaustive()
    }
}

impl Cleaner {
    /// Start building a session.
    pub fn builder() -> CleanerBuilder {
        CleanerBuilder::default()
    }

    /// The persistent, per-session half of the engine.
    pub fn prepared(&self) -> &Arc<PreparedCleaner> {
        &self.prepared
    }

    /// The rule set `Θ = Σ ∪ Γ`.
    pub fn rules(&self) -> &Arc<RuleSet> {
        &self.prepared.rules
    }

    /// The master source this session cleans against.
    pub fn master(&self) -> &MasterSource {
        &self.prepared.master
    }

    /// The validated configuration.
    pub fn config(&self) -> &CleanConfig {
        &self.prepared.config
    }

    /// Clean `d`, running phases up to and including `phase`.
    pub fn clean(&self, d: &Relation, phase: Phase) -> CleanResult {
        self.clean_observed(d, phase, &mut NoOpObserver)
    }

    /// [`Cleaner::clean`] with a [`PhaseObserver`] receiving per-phase
    /// timing and fix counts as the run progresses.
    pub fn clean_observed(
        &self,
        d: &Relation,
        phase: Phase,
        observer: &mut dyn PhaseObserver,
    ) -> CleanResult {
        full_clean(&self.prepared, d, phase, false, observer).0
    }
}

/// Configures and validates a [`Cleaner`].
#[derive(Clone, Default)]
pub struct CleanerBuilder {
    rules: Option<Arc<RuleSet>>,
    master: MasterSource,
    config: CleanConfig,
}

impl CleanerBuilder {
    /// The rule set to clean with (required). Accepts a `RuleSet` or a
    /// shared `Arc<RuleSet>`.
    pub fn rules(mut self, rules: impl Into<Arc<RuleSet>>) -> Self {
        self.rules = Some(rules.into());
        self
    }

    /// Where master data comes from (default: [`MasterSource::None`]).
    pub fn master(mut self, master: MasterSource) -> Self {
        self.master = master;
        self
    }

    /// Thresholds and limits (default: [`CleanConfig::default`]).
    pub fn config(mut self, config: CleanConfig) -> Self {
        self.config = config;
        self
    }

    /// Validate everything and assemble the session.
    ///
    /// Errors (never panics on user input):
    /// * [`CleanError::MissingRules`] — no rule set given;
    /// * [`CleanError::Config`] — thresholds out of range, non-finite, or
    ///   zero limits;
    /// * [`CleanError::MdsWithoutMaster`] — MDs over [`MasterSource::None`];
    /// * [`CleanError::MasterSchemaMismatch`] — external master relation
    ///   whose schema differs from the rule set's master schema;
    /// * [`CleanError::MissingSelfSchema`] / [`CleanError::SelfSchemaMismatch`]
    ///   — self-snapshot without a positionally mirroring master schema.
    pub fn build(self) -> Result<Cleaner, CleanError> {
        let rules = self.rules.ok_or(CleanError::MissingRules)?;
        let config = self.config;
        config.validate()?;

        match &self.master {
            MasterSource::External(dm) => {
                if let Some(expected) = rules.master_schema() {
                    if expected.as_ref() != dm.schema().as_ref() {
                        return Err(CleanError::MasterSchemaMismatch {
                            expected: expected.to_string(),
                            found: dm.schema().to_string(),
                        });
                    }
                }
            }
            MasterSource::SelfSnapshot => {
                let master_schema = rules.master_schema().ok_or(CleanError::MissingSelfSchema)?;
                if master_schema.arity() != rules.schema().arity() {
                    return Err(CleanError::SelfSchemaMismatch {
                        data_arity: rules.schema().arity(),
                        master_arity: master_schema.arity(),
                    });
                }
            }
            MasterSource::None => {
                if !rules.mds().is_empty() {
                    return Err(CleanError::MdsWithoutMaster);
                }
            }
        }

        let index = match &self.master {
            MasterSource::External(dm) => Some(MasterIndex::build(rules.mds(), dm)),
            _ => None,
        };
        Ok(Cleaner {
            prepared: Arc::new(PreparedCleaner {
                erepair_order: erepair_order(&rules),
                rules,
                master: self.master,
                index,
                config,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniclean_model::{Schema, TupleId, Value};
    use uniclean_rules::parse_rules;

    fn self_cleaner(rules: RuleSet) -> Cleaner {
        Cleaner::builder()
            .rules(rules)
            .master(MasterSource::SelfSnapshot)
            .config(CleanConfig {
                eta: 0.8,
                ..CleanConfig::default()
            })
            .build()
            .unwrap()
    }

    /// Duplicate records of one person inside D, no master data: each
    /// phase matches against a snapshot of the previous phase's repairs,
    /// so repairing still closes the loop (the paper's master-free
    /// contention).
    #[test]
    fn duplicates_within_d_are_reconciled_without_master() {
        let tran = Schema::of_strings("tran", &["LN", "city", "AC", "phn"]);
        let selfm = Schema::of_strings("tranm", &["LN", "city", "AC", "phn"]);
        let text = "cfd phi2: tran([AC=020] -> [city=Ldn])\n\
                    md psi: tran[LN] = tranm[LN] AND tran[city] = tranm[city] -> tran[phn] <=> tranm[phn]";
        let parsed = parse_rules(text, &tran, Some(&selfm)).unwrap();
        let rules = RuleSet::new(
            tran.clone(),
            Some(selfm),
            parsed.cfds,
            parsed.positive_mds,
            vec![],
        );

        // Record A: phone verified (cf 1), city wrong. Record B: city
        // verified, phone unknown.
        let phn = tran.attr_id_or_panic("phn");
        let city = tran.attr_id_or_panic("city");
        let mut a = Tuple::of_strs(&["Brady", "Edi", "020", "3887644"], 1.0);
        a.set(city, Value::str("Edi"), 0.0, FixMark::Untouched);
        let mut b = Tuple::of_strs(&["Brady", "Ldn", "020", "0000000"], 1.0);
        b.set(phn, Value::str("0000000"), 0.0, FixMark::Untouched);
        let d = Relation::new(tran.clone(), vec![a, b]);

        let r = self_cleaner(rules).clean(&d, Phase::Full);
        assert!(r.consistent, "self-matching repair must satisfy Σ and Γ");
        // ϕ2 fixes A's city; the self-MD then identifies the two records
        // and B adopts A's verified phone.
        assert_eq!(r.repaired.tuple(TupleId(0)).value(city), &Value::str("Ldn"));
        assert_eq!(
            r.repaired.tuple(TupleId(1)).value(phn),
            &Value::str("3887644")
        );
    }

    /// A tuple must never assert itself through its own snapshot copy.
    #[test]
    fn no_self_confirmation() {
        let tran = Schema::of_strings("tran", &["LN", "phn"]);
        let selfm = Schema::of_strings("tranm", &["LN", "phn"]);
        let parsed = parse_rules(
            "md psi: tran[LN] = tranm[LN] -> tran[phn] <=> tranm[phn]",
            &tran,
            Some(&selfm),
        )
        .unwrap();
        let rules = RuleSet::new(
            tran.clone(),
            Some(selfm),
            vec![],
            parsed.positive_mds,
            vec![],
        );
        let mut t = Tuple::of_strs(&["Brady", "123"], 1.0);
        let phn = tran.attr_id_or_panic("phn");
        t.set(phn, Value::str("123"), 0.0, FixMark::Untouched);
        let d = Relation::new(tran, vec![t]);
        let r = self_cleaner(rules).clean(&d, Phase::CRepair);
        assert!(r.report.is_empty());
        assert_eq!(
            r.repaired.tuple(TupleId(0)).cf(phn),
            0.0,
            "no circular assertion"
        );
    }

    #[test]
    fn phase_selectors_labels_and_prefixes() {
        assert_eq!(Phase::CERepair, Phase::ERepair);
        assert_eq!(Phase::Full, Phase::HRepair);
        assert_eq!(Phase::CRepair.through(), &[Phase::CRepair]);
        assert_eq!(Phase::CERepair.through(), &[Phase::CRepair, Phase::ERepair]);
        assert_eq!(Phase::Full.through(), &Phase::ALL);
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let labels = Phase::ALL.map(Phase::label);
        assert_eq!(labels, ["cRepair", "eRepair", "hRepair"]);
    }

    #[test]
    fn cost_is_zero_for_clean_input() {
        let tran = Schema::of_strings("tran", &["AC", "city"]);
        let parsed = parse_rules("cfd phi1: tran([AC=131] -> [city=Edi])", &tran, None).unwrap();
        let rules = RuleSet::cfds_only(tran.clone(), parsed.cfds);
        let d = Relation::new(tran, vec![Tuple::of_strs(&["131", "Edi"], 1.0)]);
        let r = Cleaner::builder()
            .rules(rules)
            .build()
            .unwrap()
            .clean(&d, Phase::Full);
        assert_eq!(r.cost, 0.0);
        assert!(r.report.is_empty());
        assert!(r.consistent);
    }
}
