//! Shared experiment plumbing: workload construction and the quality
//! numbers each figure plots.

use uniclean_baselines::{quaid_repair, sortn_match, uniclean_matches, SortNConfig};
use uniclean_core::{CleanConfig, CleanResult, Cleaner, MasterSource, Phase, PhaseObserver};
use uniclean_datagen::{
    dblp_workload, hosp_workload, tpch_workload, GenParams, TpchScale, Workload,
};
use uniclean_metrics::{matching_quality, repair_quality, PrecisionRecall};
use uniclean_model::FixMark;

/// Which dataset an experiment runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetKind {
    /// HOSP-like (19 attrs, 23 CFDs + 3 MDs).
    Hosp,
    /// DBLP-like (12 attrs, 7 CFDs + 3 MDs).
    Dblp,
    /// TPC-H-like (58 attrs, 55 CFDs + 10 MDs).
    Tpch,
}

impl DatasetKind {
    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "hosp" => Some(DatasetKind::Hosp),
            "dblp" => Some(DatasetKind::Dblp),
            "tpch" => Some(DatasetKind::Tpch),
            _ => None,
        }
    }

    /// Label used in figure ids.
    pub fn label(self) -> &'static str {
        match self {
            DatasetKind::Hosp => "hosp",
            DatasetKind::Dblp => "dblp",
            DatasetKind::Tpch => "tpch",
        }
    }
}

/// Default (quick) and `--full` (paper-leaning) sizes per dataset.
pub fn scaled_params(kind: DatasetKind, full: bool) -> GenParams {
    let (tuples, master) = match (kind, full) {
        (DatasetKind::Hosp, false) => (2000, 600),
        (DatasetKind::Hosp, true) => (20_000, 5000),
        (DatasetKind::Dblp, false) => (2000, 600),
        (DatasetKind::Dblp, true) => (40_000, 5000),
        (DatasetKind::Tpch, false) => (1000, 300),
        (DatasetKind::Tpch, true) => (10_000, 2000),
    };
    GenParams {
        tuples,
        master_tuples: master,
        ..GenParams::default()
    }
}

/// Build a workload for a dataset.
pub fn dataset_workload(kind: DatasetKind, params: &GenParams) -> Workload {
    match kind {
        DatasetKind::Hosp => hosp_workload(params),
        DatasetKind::Dblp => dblp_workload(params),
        DatasetKind::Tpch => tpch_workload(params, TpchScale::default()),
    }
}

/// The experiments' cleaning configuration: the paper set the confidence
/// threshold to 1.0 and the entropy threshold to 0.8 (§8).
pub fn experiment_config() -> CleanConfig {
    CleanConfig {
        eta: 1.0,
        delta_entropy: 0.8,
        ..CleanConfig::default()
    }
}

/// A cleaning session over a workload's rules and master data with the
/// experiments' configuration.
pub fn session(w: &Workload) -> Cleaner {
    Cleaner::builder()
        .rules(w.rules.clone())
        .master(MasterSource::external(w.master.clone()))
        .config(experiment_config())
        .build()
        .expect("workloads build valid sessions")
}

/// Run UniClean up to `phase` on a workload.
pub fn run_uni(w: &Workload, phase: Phase) -> CleanResult {
    session(w).clean(&w.dirty, phase)
}

/// Run UniClean up to `phase` with a [`PhaseObserver`] attached (the
/// instrumentation surface the scalability experiments consume).
pub fn run_uni_observed(
    w: &Workload,
    phase: Phase,
    observer: &mut dyn PhaseObserver,
) -> CleanResult {
    session(w).clean_observed(&w.dirty, phase, observer)
}

/// Repair precision/recall of a cleaning variant on `w`, building a fresh
/// session for variants that need one. Callers evaluating several
/// session-backed variants on the same workload should build the session
/// once and use [`repair_pr_with`].
pub fn repair_pr(w: &Workload, variant: &str) -> PrecisionRecall {
    match variant {
        "uni" | "crepair" | "crepair+erepair" => repair_pr_with(&session(w), w, variant),
        "uni-cfd" => {
            let uni = Cleaner::builder()
                .rules(w.rules.without_mds())
                .config(experiment_config())
                .build()
                .expect("CFD-only sessions need no master");
            let r = uni.clean(&w.dirty, Phase::Full);
            repair_quality(&w.dirty, &r.repaired, &w.truth)
        }
        "quaid" => {
            let (repaired, _) = quaid_repair(&w.dirty, &w.rules, &experiment_config());
            repair_quality(&w.dirty, &repaired, &w.truth)
        }
        other => panic!("unknown repair variant `{other}`"),
    }
}

/// [`repair_pr`] for the session-backed phase-prefix variants, reusing one
/// prebuilt [`Cleaner`] (and its master index) across variants.
pub fn repair_pr_with(uni: &Cleaner, w: &Workload, variant: &str) -> PrecisionRecall {
    let phase = match variant {
        "uni" => Phase::Full,
        "crepair" => Phase::CRepair,
        "crepair+erepair" => Phase::CERepair,
        other => panic!("`{other}` is not a session-backed phase variant"),
    };
    let r = uni.clean(&w.dirty, phase);
    repair_quality(&w.dirty, &r.repaired, &w.truth)
}

/// Repair F-measure of a variant.
pub fn repair_f1(w: &Workload, variant: &str) -> f64 {
    repair_pr(w, variant).f1()
}

/// Matching F-measure (×100, the paper's "matched attributes %") of SortN
/// on the *dirty* data.
pub fn matching_f1_sortn(w: &Workload) -> f64 {
    let found = sortn_match(&w.dirty, &w.master, w.rules.mds(), SortNConfig::default());
    matching_quality(&found, &w.true_matches).f1() * 100.0
}

/// Matching F-measure (×100) of UniClean: matches identified on the
/// *repaired* data — repairing helps matching (Exp-2).
pub fn matching_f1_uni(w: &Workload) -> f64 {
    let r = run_uni(w, Phase::Full);
    let found = uniclean_matches(&r.repaired, &w.master, w.rules.mds());
    matching_quality(&found, &w.true_matches).f1() * 100.0
}

/// Share of deterministic fixes among all fixes of a full run (%).
pub fn deterministic_share(w: &Workload) -> f64 {
    let r = run_uni(w, Phase::Full);
    let det = r.report.count_final(FixMark::Deterministic);
    let total = r.report.cells_touched();
    if total == 0 {
        0.0
    } else {
        det as f64 / total as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: DatasetKind) -> Workload {
        dataset_workload(
            kind,
            &GenParams {
                tuples: 150,
                master_tuples: 50,
                ..GenParams::default()
            },
        )
    }

    #[test]
    fn uni_beats_quaid_on_hosp() {
        // The headline Exp-1 claim at a tiny scale.
        let w = tiny(DatasetKind::Hosp);
        let uni = repair_f1(&w, "uni");
        let quaid = repair_f1(&w, "quaid");
        assert!(uni > quaid, "uni {uni} must beat quaid {quaid}");
    }

    #[test]
    fn uni_matching_beats_sortn_on_hosp() {
        // The headline Exp-2 claim at a tiny scale.
        let w = tiny(DatasetKind::Hosp);
        let uni = matching_f1_uni(&w);
        let sortn = matching_f1_sortn(&w);
        assert!(uni >= sortn, "uni {uni} must beat sortn {sortn}");
    }

    #[test]
    fn crepair_precision_is_highest() {
        // The Exp-3 shape: deterministic fixes are the most precise.
        let w = tiny(DatasetKind::Hosp);
        let c = repair_pr(&w, "crepair");
        let full = repair_pr(&w, "uni");
        assert!(
            c.precision >= full.precision - 1e-9,
            "c {0} vs full {1}",
            c.precision,
            full.precision
        );
        assert!(c.recall <= full.recall + 1e-9);
    }

    #[test]
    fn variants_work_on_every_dataset() {
        for kind in [DatasetKind::Hosp, DatasetKind::Dblp, DatasetKind::Tpch] {
            let w = tiny(kind);
            let f1 = repair_f1(&w, "uni");
            assert!((0.0..=1.0).contains(&f1), "{kind:?} f1 {f1}");
        }
    }

    /// Fig. 13(b): the share of deterministic fixes grows with asr% — more
    /// asserted cells, more premises `cRepair` may fire from. Run as the
    /// exp4 asr sweep runs it (dup% = 40, every other parameter default)
    /// at 600 × 200 over three seeds. Fig. 13(a) (dup%) is not asserted:
    /// at this size the share is not monotone in dup%.
    #[test]
    fn deterministic_share_grows_with_asserted_rate() {
        for kind in [DatasetKind::Hosp, DatasetKind::Dblp] {
            for seed in [42, 7, 1] {
                let shares: Vec<f64> = [0.0, 0.2, 0.4, 0.6, 0.8]
                    .into_iter()
                    .map(|asserted_rate| {
                        let params = GenParams {
                            tuples: 600,
                            master_tuples: 200,
                            asserted_rate,
                            seed,
                            ..GenParams::default()
                        };
                        deterministic_share(&dataset_workload(kind, &params))
                    })
                    .collect();
                assert!(
                    shares.windows(2).all(|w| w[0] <= w[1]),
                    "{kind:?} seed {seed}: shares over asr% 0..80 are {shares:?}"
                );
            }
        }
    }

    #[test]
    fn dataset_parse_roundtrip() {
        for kind in [DatasetKind::Hosp, DatasetKind::Dblp, DatasetKind::Tpch] {
            assert_eq!(DatasetKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(DatasetKind::parse("nope"), None);
    }
}
