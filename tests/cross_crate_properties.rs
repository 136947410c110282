//! Cross-crate property tests: invariants that span crate boundaries.

use proptest::prelude::*;
use uniclean::datagen::{hosp_workload, GenParams};
use uniclean::model::{value_distance, FixMark, Value};
use uniclean::similarity::levenshtein;
use uniclean::{CleanConfig, Cleaner, MasterSource, Phase};

proptest! {
    /// The cost model's distance is the similarity crate's Levenshtein on
    /// the rendered values (its differential test against the reference
    /// DP lives in the model crate).
    #[test]
    fn cost_distance_matches_similarity_levenshtein(a in "[a-f]{0,12}", b in "[a-f]{0,12}") {
        let model_d = value_distance(&Value::str(&a), &Value::str(&b));
        let sim_d = levenshtein(&a, &b) as f64;
        prop_assert_eq!(model_d, sim_d);
    }

    /// Workload generation is a pure function of its parameters.
    #[test]
    fn workload_generation_is_pure(seed in 0u64..500) {
        let p = GenParams { tuples: 60, master_tuples: 25, seed, ..GenParams::default() };
        let a = hosp_workload(&p);
        let b = hosp_workload(&p);
        prop_assert_eq!(a.dirty.diff_cells(&b.dirty), 0);
        prop_assert_eq!(a.errors, b.errors);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End-to-end invariants on random small workloads: the pipeline
    /// reaches a consistent repair, never touches a deterministic fix in a
    /// later phase, and deterministic fixes agree with the ground truth.
    #[test]
    fn pipeline_invariants_hold_for_random_workloads(
        seed in 0u64..1000,
        noise in 1u32..12,
        dup in 1u32..10,
    ) {
        let p = GenParams {
            tuples: 120,
            master_tuples: 40,
            noise_rate: noise as f64 / 100.0,
            dup_rate: dup as f64 / 10.0,
            seed,
            ..GenParams::default()
        };
        let w = hosp_workload(&p);
        let uni = Cleaner::builder()
            .rules(w.rules.clone())
            .master(MasterSource::external(w.master.clone()))
            .config(CleanConfig::default())
            .build()
            .expect("workload session");
        let r = uni.clean(&w.dirty, Phase::Full);
        prop_assert!(r.consistent, "pipeline must reach a consistent repair");

        // Deterministic fixes: correct and final.
        for fix in r.report.records() {
            if fix.mark == FixMark::Deterministic {
                prop_assert_eq!(&fix.new, w.truth.tuple(fix.tuple).value(fix.attr));
                prop_assert_eq!(
                    r.repaired.tuple(fix.tuple).value(fix.attr), &fix.new,
                    "later phases must not overwrite a deterministic fix"
                );
            }
        }

        // Fix records replay: applying old→new in order over dirty yields
        // the repaired relation.
        let mut replay = w.dirty.clone();
        for fix in r.report.records() {
            prop_assert_eq!(replay.tuple(fix.tuple).value(fix.attr), &fix.old, "record chain broken");
            replay
                .tuple_mut(fix.tuple)
                .set(fix.attr, fix.new.clone(), 0.0, fix.mark);
        }
        prop_assert_eq!(replay.diff_cells(&r.repaired), 0);
    }
}
