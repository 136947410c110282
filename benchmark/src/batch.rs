//! The library user's path: in-process `Cleaner::clean(&dirty, Full)`.
//!
//! One caller, strictly serial: wall = clone + cRepair + eRepair + hRepair +
//! acceptance + cost. Untraced samples give `clean_tuples_per_s`; the traced
//! run prices each of those terms through the crates' public functions and
//! reports what is left over as `core.clean_unattributed_share`.

use std::time::Instant;

use uniclean_baselines::uniclean_matches;
use uniclean_core::two_in_one::TwoInOne;
use uniclean_core::{MasterIndex, Phase, PhaseObserver, PhaseStats, ProbeScratch};
use uniclean_metrics::{matching_quality, repair_quality};
use uniclean_model::{repair_cost, Relation, TupleId};
use uniclean_rules::satisfies_all;
use uniclean_similarity::predicate::{SimScratch, SimilarityPredicate};

use crate::child::own_peak_rss_mb;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{fingerprint, Ctx};

/// Turns the engine's phase callbacks into span edges.
struct SpanObserver<'a> {
    tracer: &'a mut Tracer,
}

impl PhaseObserver for SpanObserver<'_> {
    fn on_phase_start(&mut self, phase: Phase) {
        self.tracer.begin(phase_span(phase));
    }
    fn on_phase_end(&mut self, _stats: &PhaseStats) {
        self.tracer.end();
    }
}

fn phase_span(phase: Phase) -> &'static str {
    ["core.crepair", "core.erepair", "core.hrepair"][phase.index()]
}

/// The batch stage: a warm-up at construction, then one timed sample per
/// [`Batch::sample`] call, so the samples spread over the whole run.
pub struct Batch {
    /// The warm-up's repaired relation: the reference every sample must
    /// reproduce, and the output the quality metrics are computed on.
    reference: Relation,
    reference_fp: u64,
    walls: Vec<f64>,
    traced_walls: Vec<f64>,
    fixes: [usize; 3],
}

impl Batch {
    pub fn warm_up(ctx: &mut Ctx) -> Batch {
        let warm = ctx.inputs.cleaner.clean(&ctx.inputs.w.dirty, Phase::Full);
        // The library user's memory: the peak of a process that holds the
        // inputs and its sessions and has cleaned them. Read here, before
        // the other stages and the repeated set-ups allocate theirs, so
        // that it moves with what `clean` needs.
        ctx.res.point("peak_rss_mb", own_peak_rss_mb(), 1);
        ctx.res
            .op(warm.consistent, || "warm-up clean is not consistent".into());
        let mut fixes = [0; 3];
        for stats in &warm.phases {
            fixes[stats.phase.index()] = stats.fixes;
        }
        Batch {
            reference_fp: fingerprint(&warm.repaired),
            reference: warm.repaired,
            walls: Vec::new(),
            traced_walls: Vec::new(),
            fixes,
        }
    }

    pub fn samples(&self) -> usize {
        self.walls.len()
    }

    /// One timed `clean` (and, when tracing, one more under spans with its
    /// terms priced separately).
    pub fn sample(&mut self, ctx: &mut Ctx) {
        let (cleaner, dirty) = (&ctx.inputs.cleaner, &ctx.inputs.w.dirty);
        let t0 = Instant::now();
        let r = cleaner.clean(dirty, Phase::Full);
        self.walls.push(t0.elapsed().as_secs_f64());
        let same = r.consistent && fingerprint(&r.repaired) == self.reference_fp;
        ctx.res
            .op(same, || "a clean sample differs from the warm-up".into());
        if !ctx.tracer.enabled() {
            return;
        }
        ctx.tracer.next_op();
        ctx.tracer.begin("core.clean");
        let t0 = Instant::now();
        let mut observer = SpanObserver {
            tracer: &mut *ctx.tracer,
        };
        let r = cleaner.clean_observed(dirty, Phase::Full, &mut observer);
        self.traced_walls.push(t0.elapsed().as_secs_f64());
        ctx.tracer.end();
        let same = r.consistent && fingerprint(&r.repaired) == self.reference_fp;
        ctx.res
            .op(same, || "a traced clean differs from the warm-up".into());
        price_terms(ctx.tracer, ctx.inputs, &r.repaired);
    }

    pub fn finish(self, ctx: &mut Ctx) {
        let inputs = ctx.inputs;
        let (dirty, master) = (&inputs.w.dirty, &inputs.w.master);
        let tuples = dirty.len() as f64;
        let rates: Vec<f64> = self.walls.iter().map(|w| tuples / w).collect();
        ctx.res.samples("clean_tuples_per_s", &rates);
        // What each phase fixed: counts behind the quality ratios, recorded
        // in every run so that two runs on one seed can be held to them.
        for (name, n) in [
            "core.crepair_fixes",
            "core.erepair_fixes",
            "core.hrepair_fixes",
        ]
        .iter()
        .zip(self.fixes)
        {
            ctx.res.exact(name, n as f64);
        }

        // Quality against the generator's ground truth, from the same output.
        let q = repair_quality(dirty, &self.reference, &inputs.w.truth);
        ctx.res.exact("repair_precision", q.precision);
        ctx.res.exact("repair_recall", q.recall);
        let found = uniclean_matches(&self.reference, master, inputs.w.rules.mds());
        ctx.res.exact(
            "match_f1",
            matching_quality(&found, &inputs.w.true_matches).f1(),
        );
        if ctx.tracer.enabled() {
            report_layers(ctx, &self, q.precision, found.len());
        }
    }
}

/// The terms of one clean that happen inside `clean_observed` but outside
/// its phases, each repeated on the same data through the public function
/// the engine itself calls.
fn price_terms(tracer: &mut Tracer, inputs: &crate::inputs::Inputs, repaired: &Relation) {
    let (dirty, master, rules) = (&inputs.w.dirty, &inputs.w.master, &inputs.w.rules);
    tracer.time("model.relation_clone", || {
        std::hint::black_box(dirty.clone())
    });
    tracer.time("rules.acceptance_cfd", || {
        std::hint::black_box(satisfies_all(rules.cfds(), &[], repaired, master))
    });
    tracer.time("rules.acceptance_md", || {
        std::hint::black_box(satisfies_all(&[], rules.mds(), repaired, master))
    });
    tracer.time("model.repair_cost", || {
        std::hint::black_box(repair_cost(dirty, repaired))
    });
}

fn report_layers(ctx: &mut Ctx, batch: &Batch, precision: f64, matches_found: usize) {
    let repaired = &batch.reference;
    let inputs = ctx.inputs;
    let (dirty, master, rules) = (&inputs.w.dirty, &inputs.w.master, &inputs.w.rules);
    let cfg = inputs.cleaner.config();
    let threads = cfg.effective_parallelism();

    // Set-up side of the session.
    ctx.res
        .point("core.session_build_s", inputs.session_build_s, 1);
    for _ in 0..3 {
        ctx.tracer.time("core.master_index_build", || {
            std::hint::black_box(MasterIndex::build_parallel(
                rules.mds(),
                master,
                cfg.interning,
                threads,
            ))
        });
    }
    // The 2-in-1 structure is built on the post-cRepair relation inside
    // eRepair and cloned once per served delta.
    let post_c = inputs.cleaner.clean(dirty, Phase::CRepair).repaired;
    for _ in 0..3 {
        let (two, _) = ctx.tracer.time("core.two_in_one_build", || {
            TwoInOne::build_with(rules, &post_c, cfg.interning, threads)
        });
        ctx.tracer.time("core.two_in_one_clone", || {
            std::hint::black_box(two.clone())
        });
    }

    // (metric, span, is a serial term of one clean). The 2-in-1 build runs
    // inside eRepair and the index build at set-up, so they are not terms.
    let mut attributed = 0.0;
    for (metric, span, term) in [
        (
            "core.master_index_build_s",
            "core.master_index_build",
            false,
        ),
        ("model.relation_clone_s", "model.relation_clone", true),
        ("core.crepair_s", "core.crepair", true),
        ("core.erepair_s", "core.erepair", true),
        ("core.hrepair_s", "core.hrepair", true),
        ("core.two_in_one_build_s", "core.two_in_one_build", false),
        ("core.two_in_one_clone_s", "core.two_in_one_clone", false),
        ("rules.acceptance_cfd_s", "rules.acceptance_cfd", true),
        ("rules.acceptance_md_s", "rules.acceptance_md", true),
        ("model.repair_cost_s", "model.repair_cost", true),
    ] {
        let secs = ctx.tracer.seconds_of(span);
        ctx.res.samples(metric, &secs);
        if term {
            attributed += median(&secs);
        }
    }
    // The brute-force scan behind the MD half of acceptance visits every
    // (tuple, master tuple) pair once per MD.
    ctx.res.exact(
        "rules.acceptance_md_pairs",
        (repaired.len() * master.len() * rules.mds().len()) as f64,
    );

    let clean_wall = median(&ctx.tracer.seconds_of("core.clean"));
    ctx.res.residual(
        "core.clean_unattributed_share",
        1.0 - attributed / clean_wall,
        -0.05..=0.05,
    );
    ctx.res.point(
        "trace_overhead_share",
        median(&batch.traced_walls) / median(&batch.walls) - 1.0,
        batch.walls.len(),
    );

    // Raw counts behind the quality ratios (precision = tp / changed).
    let errors = inputs.w.truth.diff_cells(dirty);
    let changed = dirty.diff_cells(repaired);
    let tp = (precision * changed as f64).round();
    ctx.res.exact("metrics.repair_tp", tp);
    ctx.res.exact("metrics.repair_changed", changed as f64);
    ctx.res.exact("metrics.repair_errors", errors as f64);
    ctx.res
        .exact("baselines.matches_found", matches_found as f64);

    probe_master_index(ctx);
    price_kernels(ctx);
}

/// At most `want` evenly spaced tuple ids of a relation of `len` tuples.
fn strided(len: usize, want: usize) -> impl Iterator<Item = TupleId> {
    let step = len.div_ceil(want.max(1)).max(1);
    (0..len).step_by(step).map(TupleId::from)
}

/// `MasterIndex::matches_into` per (dirty tuple, MD) with one reused
/// scratch, as the phases probe it.
fn probe_master_index(ctx: &mut Ctx) {
    let inputs = ctx.inputs;
    let (dirty, master, mds) = (&inputs.w.dirty, &inputs.w.master, inputs.w.rules.mds());
    let index = inputs
        .cleaner
        .prepared()
        .master_index()
        .expect("an external master always has an index");
    let mut scratch = ProbeScratch::new();
    let mut out = Vec::new();
    let (mut probe_us, mut candidates, mut matches) = (Vec::new(), 0usize, 0usize);
    ctx.tracer.next_op();
    ctx.tracer.begin("core.master_index_probes");
    for tid in strided(dirty.len(), 500) {
        let t = dirty.tuple(tid);
        for (i, md) in mds.iter().enumerate() {
            let t0 = Instant::now();
            index.matches_into(i, md, t, master, None, &mut scratch, &mut out);
            probe_us.push(t0.elapsed().as_secs_f64() * 1e6);
            matches += out.len();
            // Counted after the timed probe, so the timing pays for its own
            // candidate generation.
            index.for_each_candidate(i, md, t, &mut scratch, |_| candidates += 1);
        }
    }
    ctx.tracer.end();
    ctx.res.samples("core.probe_us", &probe_us);
    ctx.res.exact(
        "core.candidates_per_probe",
        candidates as f64 / probe_us.len() as f64,
    );
    ctx.res.exact(
        "core.matches_per_candidate",
        matches as f64 / candidates.max(1) as f64,
    );
}

/// The four similarity predicates over sampled (dirty, master) pairs of a
/// premise's columns: the workload's own premise of that kind where it has
/// one, else a usual threshold on its first MD premise's columns.
fn price_kernels(ctx: &mut Ctx) {
    let inputs = ctx.inputs;
    let (dirty, master, mds) = (&inputs.w.dirty, &inputs.w.master, inputs.w.rules.mds());
    type Kind = fn(&SimilarityPredicate) -> bool;
    let kinds: [(&str, &'static str, Kind, SimilarityPredicate); 4] = [
        (
            "similarity.lev_ns_per_pair",
            "similarity.lev",
            |p| matches!(p, SimilarityPredicate::Levenshtein { .. }),
            SimilarityPredicate::Levenshtein { max: 2 },
        ),
        (
            "similarity.jaro_ns_per_pair",
            "similarity.jaro",
            |p| matches!(p, SimilarityPredicate::Jaro { .. }),
            SimilarityPredicate::Jaro { min: 0.9 },
        ),
        (
            "similarity.jw_ns_per_pair",
            "similarity.jw",
            |p| matches!(p, SimilarityPredicate::JaroWinkler { .. }),
            SimilarityPredicate::JaroWinkler { min: 0.9 },
        ),
        (
            "similarity.qgram_ns_per_pair",
            "similarity.qgram",
            |p| matches!(p, SimilarityPredicate::QGramJaccard { .. }),
            SimilarityPredicate::QGramJaccard { q: 2, min: 0.8 },
        ),
    ];
    let premises = || mds.iter().flat_map(|md| md.premises());
    let first = premises().next().expect("every workload has an MD premise");
    for (metric, span, is_kind, usual) in kinds {
        let (attr, master_attr, pred) = premises()
            .find(|p| is_kind(&p.pred))
            .map_or((first.attr, first.master_attr, usual), |p| {
                (p.attr, p.master_attr, p.pred.clone())
            });
        let left: Vec<&str> = strided(dirty.len(), 200)
            .filter_map(|t| dirty.tuple(t).value(attr).as_str())
            .collect();
        let right: Vec<&str> = strided(master.len(), 100)
            .filter_map(|t| master.tuple(t).value(master_attr).as_str())
            .collect();
        let mut scratch = SimScratch::new();
        let mut hits = 0usize;
        let mut samples = Vec::new();
        for _ in 0..5 {
            let ((), secs) = ctx.tracer.time(span, || {
                for a in &left {
                    for b in &right {
                        hits += pred.matches_with(a, b, &mut scratch) as usize;
                    }
                }
            });
            samples.push(secs * 1e9 / (left.len() * right.len()).max(1) as f64);
        }
        std::hint::black_box(hits);
        ctx.res.samples(metric, &samples);
    }
}
