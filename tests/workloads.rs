//! Integration tests over the generated workloads: end-to-end cleaning on
//! all three datasets, quality orderings from the paper's evaluation, and
//! the consistency guarantee of the full pipeline.

use uniclean::baselines::{quaid_repair, sortn_match, uniclean_matches, SortNConfig};
use uniclean::datagen::{
    dblp_workload, hosp_workload, tpch_workload, GenParams, TpchScale, Workload,
};
use uniclean::metrics::{matching_quality, repair_quality, repair_quality_by_rule};
use uniclean::model::FixMark;
use uniclean::rules::{satisfies_all, RuleSet};
use uniclean::{CleanConfig, Cleaner, MasterSource, Phase};

fn params() -> GenParams {
    GenParams {
        tuples: 600,
        master_tuples: 200,
        noise_rate: 0.06,
        ..GenParams::default()
    }
}

/// Seeds the paper's orderings are checked on.
const SEEDS: [u64; 3] = [42, 7, 1];

/// [`params`] at another generator seed.
fn params_at(seed: u64) -> GenParams {
    GenParams { seed, ..params() }
}

fn config() -> CleanConfig {
    CleanConfig {
        eta: 1.0,
        delta_entropy: 0.8,
        ..CleanConfig::default()
    }
}

/// A session over a workload's rules and master data.
fn session(w: &Workload) -> Cleaner {
    Cleaner::builder()
        .rules(w.rules.clone())
        .master(MasterSource::external(w.master.clone()))
        .config(config())
        .build()
        .expect("workload sessions are well-formed")
}

/// A CFD-only session (no master data).
fn cfd_session(rules: RuleSet) -> Cleaner {
    Cleaner::builder()
        .rules(rules)
        .config(config())
        .build()
        .expect("CFD-only session")
}

fn all_workloads() -> Vec<Workload> {
    vec![
        hosp_workload(&params()),
        dblp_workload(&params()),
        tpch_workload(&params(), TpchScale::default()),
    ]
}

#[test]
fn full_pipeline_reaches_a_consistent_repair_on_every_dataset() {
    for w in all_workloads() {
        let uni = session(&w);
        let r = uni.clean(&w.dirty, Phase::Full);
        assert!(r.consistent, "{}: repair must satisfy Σ and Γ", w.name);
        assert!(
            satisfies_all(w.rules.cfds(), w.rules.mds(), &r.repaired, &w.master),
            "{}: double-check through the rules crate",
            w.name
        );
    }
}

#[test]
fn deterministic_fixes_are_always_correct() {
    // The generators assert only correct cells (per §5's correctness
    // assumptions), so cRepair's output must agree with the ground truth
    // everywhere — the experimental Fig. 12 "precision ≈ 1" claim, exact.
    for w in all_workloads() {
        let uni = session(&w);
        let r = uni.clean(&w.dirty, Phase::CRepair);
        for fix in r.report.records() {
            assert_eq!(fix.mark, FixMark::Deterministic);
            assert_eq!(
                &fix.new,
                w.truth.tuple(fix.tuple).value(fix.attr),
                "{}: deterministic fix on {}/{:?} must match the truth",
                w.name,
                fix.tuple,
                fix.attr
            );
        }
        assert!(
            !r.report.is_empty(),
            "{}: some deterministic fixes expected",
            w.name
        );
    }
}

#[test]
fn every_deterministic_rule_is_exact_after_a_full_clean() {
    // Per rule, the cells a full clean leaves under a deterministic fix
    // all hold the truth: hRepair freezes them, so §5's guarantee survives
    // the later phases.
    for w in all_workloads() {
        let r = session(&w).clean(&w.dirty, Phase::Full);
        let finals = r.report.final_states();
        let fixes = finals.map(|f| (f.tuple, f.attr, f.mark, f.rule.as_str()));
        let q = repair_quality_by_rule(&w.dirty, &r.repaired, &w.truth, fixes, config().eta);
        let det = q.tiers.iter().filter(|t| t.mark == FixMark::Deterministic);
        assert!(det.clone().count() > 0, "{}: no deterministic fix", w.name);
        for tier in det {
            assert_eq!(
                tier.correct, tier.cells,
                "{}: deterministic rule {} is right on {} of {} cells",
                w.name, tier.rule, tier.correct, tier.cells
            );
        }
    }
}

#[test]
fn phase_quality_ordering_matches_figure_12() {
    for seed in SEEDS {
        let w = hosp_workload(&params_at(seed));
        let uni = session(&w);
        let c = uni.clean(&w.dirty, Phase::CRepair);
        let ce = uni.clean(&w.dirty, Phase::CERepair);
        let full = uni.clean(&w.dirty, Phase::Full);
        let qc = repair_quality(&w.dirty, &c.repaired, &w.truth);
        let qce = repair_quality(&w.dirty, &ce.repaired, &w.truth);
        let qf = repair_quality(&w.dirty, &full.repaired, &w.truth);
        // Precision decreases along the phases, recall increases.
        assert!(
            qc.precision >= qce.precision - 1e-9,
            "seed {seed}: {} vs {}",
            qc.precision,
            qce.precision
        );
        assert!(
            qce.precision >= qf.precision - 1e-9,
            "seed {seed}: {} vs {}",
            qce.precision,
            qf.precision
        );
        assert!(qc.recall <= qce.recall + 1e-9, "seed {seed}");
        assert!(qce.recall <= qf.recall + 1e-9, "seed {seed}");
    }
}

#[test]
fn uni_beats_quaid_and_unicfd_on_repairing() {
    // Exp-1's headline orderings. Quaid runs `h_repair` on its own.
    for seed in SEEDS {
        let p = params_at(seed);
        for w in [hosp_workload(&p), dblp_workload(&p)] {
            let uni = session(&w);
            let full = uni.clean(&w.dirty, Phase::Full);
            let q_uni = repair_quality(&w.dirty, &full.repaired, &w.truth).f1();

            let uni_cfd = cfd_session(w.rules.without_mds());
            let r = uni_cfd.clean(&w.dirty, Phase::Full);
            let q_unicfd = repair_quality(&w.dirty, &r.repaired, &w.truth).f1();

            let (rep, _) = quaid_repair(&w.dirty, &w.rules, &config());
            let q_quaid = repair_quality(&w.dirty, &rep, &w.truth).f1();

            let name = &w.name;
            assert!(
                q_uni > q_quaid,
                "{name} seed {seed}: uni {q_uni} ≤ quaid {q_quaid}"
            );
            assert!(
                q_uni >= q_unicfd - 1e-9,
                "{name} seed {seed}: uni {q_uni} < uni(cfd) {q_unicfd}"
            );
        }
    }
}

#[test]
fn uni_beats_sortn_on_matching() {
    // Exp-2's headline ordering.
    for seed in SEEDS {
        let w = hosp_workload(&GenParams {
            noise_rate: 0.08,
            ..params_at(seed)
        });
        let found = sortn_match(&w.dirty, &w.master, w.rules.mds(), SortNConfig::default());
        let q_sortn = matching_quality(&found, &w.true_matches).f1();

        let uni = session(&w);
        let r = uni.clean(&w.dirty, Phase::Full);
        let found = uniclean_matches(&r.repaired, &w.master, w.rules.mds());
        let q_uni = matching_quality(&found, &w.true_matches).f1();
        assert!(
            q_uni >= q_sortn,
            "seed {seed}: uni {q_uni} < sortn {q_sortn}"
        );
    }
}

#[test]
fn cleaning_is_deterministic_across_runs() {
    let w = hosp_workload(&params());
    let uni = session(&w);
    let a = uni.clean(&w.dirty, Phase::Full);
    let b = uni.clean(&w.dirty, Phase::Full);
    assert_eq!(a.repaired.diff_cells(&b.repaired), 0);
    assert_eq!(a.report.len(), b.report.len());
}

#[test]
fn zero_noise_needs_no_fixes() {
    let w = hosp_workload(&GenParams {
        noise_rate: 0.0,
        ..params()
    });
    let uni = session(&w);
    let r = uni.clean(&w.dirty, Phase::Full);
    assert!(r.report.is_empty(), "clean data must stay untouched");
    assert!(r.consistent);
    assert_eq!(r.cost, 0.0);
}

#[test]
fn tpch_rule_sweeps_still_clean_consistently() {
    let w = tpch_workload(
        &GenParams {
            tuples: 300,
            master_tuples: 100,
            ..params()
        },
        TpchScale {
            sigma_multiplier: 3,
            gamma_multiplier: 2,
        },
    );
    let uni = session(&w);
    let r = uni.clean(&w.dirty, Phase::Full);
    assert!(r.consistent);
}

#[test]
fn master_free_self_matching_stays_competitive() {
    // §1/§9: "While master data is desirable in the process, it is not a
    // must … reliable and heuristic fixes would not degrade substantially."
    let w = hosp_workload(&params());
    let with_master = {
        let uni = session(&w);
        let r = uni.clean(&w.dirty, Phase::Full);
        repair_quality(&w.dirty, &r.repaired, &w.truth).f1()
    };
    let self_matching = {
        let uni = Cleaner::builder()
            .rules(w.rules.clone())
            .master(MasterSource::SelfSnapshot)
            .config(config())
            .build()
            .expect("HOSP rules mirror their master schema");
        let r = uni.clean(&w.dirty, Phase::Full);
        repair_quality(&w.dirty, &r.repaired, &w.truth).f1()
    };
    let cfd_only = {
        let r = cfd_session(w.rules.without_mds()).clean(&w.dirty, Phase::Full);
        repair_quality(&w.dirty, &r.repaired, &w.truth).f1()
    };
    assert!(
        self_matching > cfd_only,
        "self-matching {self_matching} must beat CFDs-only {cfd_only}"
    );
    assert!(
        self_matching > with_master - 0.15,
        "self-matching {self_matching} must not degrade substantially vs {with_master}"
    );
}
