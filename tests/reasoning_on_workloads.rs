//! Integration test: the §4 static analyses applied to the generated rule
//! sets — the rules shipped by every generator must be consistent, the
//! dependency order must cover all rules, and implication must recognize
//! normalized fragments as redundant.

use uniclean::datagen::{
    dblp_similarity_workload, dblp_workload, hosp_workload, tpch_workload, GenParams, TpchScale,
};
use uniclean::model::Schema;
use uniclean::reasoning::{
    determinism_check, erepair_order, implies_cfd, is_consistent, termination_diagnostics,
};
use uniclean::rules::{parse_rules, RuleSet};

fn small() -> GenParams {
    GenParams {
        tuples: 60,
        master_tuples: 30,
        ..GenParams::default()
    }
}

#[test]
fn generated_rule_sets_are_consistent() {
    // CFD-only consistency: the master-driven MD part is checked separately
    // (full consistency with 100+ master tuples is exponential in theory;
    // the CFD core is the part that can be inconsistent).
    for w in [
        hosp_workload(&small()),
        dblp_workload(&small()),
        tpch_workload(&small(), TpchScale::default()),
        dblp_similarity_workload(&small()),
    ] {
        let cfd_only = w.rules.without_mds();
        assert!(
            is_consistent(&cfd_only, None),
            "{}: CFDs must be consistent",
            w.name
        );
    }
}

#[test]
fn erepair_order_covers_every_rule_once() {
    for w in [hosp_workload(&small()), dblp_workload(&small())] {
        let order = erepair_order(&w.rules);
        assert_eq!(order.len(), w.rules.len(), "{}", w.name);
        let distinct: std::collections::HashSet<_> = order.iter().collect();
        assert_eq!(distinct.len(), order.len(), "{}", w.name);
    }
}

#[test]
fn hosp_rules_have_no_constant_oscillators() {
    let w = hosp_workload(&small());
    let report = termination_diagnostics(&w.rules);
    assert!(
        report.constant_conflicts.is_empty(),
        "generator must not ship Example 4.6-style oscillators: {:?}",
        report.constant_conflicts
    );
}

#[test]
fn a_normalized_fragment_is_implied_by_its_source() {
    // ZIP → City is in the HOSP set; [ZIP=z] → [City] specializations are
    // implied; an unrelated FD is not.
    let tran = Schema::of_strings("hosp", &["ZIP", "City", "State", "Phone"]);
    let text = "cfd a: hosp([ZIP] -> [City])\ncfd b: hosp([ZIP] -> [State])";
    let parsed = parse_rules(text, &tran, None).unwrap();
    let rules = RuleSet::cfds_only(tran.clone(), parsed.cfds);
    let implied = parse_rules("cfd s: hosp([ZIP=99501] -> [City])", &tran, None)
        .unwrap()
        .cfds
        .remove(0);
    assert!(implies_cfd(&rules, None, &implied));
    let not_implied = parse_rules("cfd n: hosp([ZIP] -> [Phone])", &tran, None)
        .unwrap()
        .cfds
        .remove(0);
    assert!(!implies_cfd(&rules, None, &not_implied));
}

#[test]
fn chase_determinism_probe_on_clean_slice() {
    // Clean data is a fixpoint for every order: trivially deterministic.
    let w = hosp_workload(&GenParams {
        noise_rate: 0.0,
        tuples: 20,
        master_tuples: 10,
        ..GenParams::default()
    });
    let report = determinism_check(&w.rules, Some(&w.master), &w.truth, 200, 2);
    assert_eq!(report.deterministic, Some(true), "{report:?}");
}
