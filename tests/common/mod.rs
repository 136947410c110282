//! Shared integration-test fixtures: the paper's running example here, the
//! daemon suites' client and scenario in [`server`].

#![allow(dead_code)] // each tests/*.rs crate uses a subset of these helpers

use std::sync::Arc;

use uniclean::core::{
    CleanResult, Cleaner, MasterSource, RepairState, TupleViolation, ViolationKind,
};
use uniclean::model::{AttrId, FixMark, Relation, Schema, Tuple, TupleId, Value};
use uniclean::rules::{cfd_violations, md_violations, parse_rules, RuleSet, Violation};

/// The paper's running example (Example 1.1 / Fig. 1): schemas `tran` /
/// `card`, rules ϕ1–ϕ4, ψ and the negative MD ψ1, the four dirty
/// transactions with their per-cell confidence rows, and the two master
/// tuples. Returns `(tran_schema, rules, dirty, master)`.
pub fn example_1_1() -> (Arc<Schema>, RuleSet, Relation, Relation) {
    let tran = Schema::of_strings(
        "tran",
        &["FN", "LN", "St", "city", "AC", "post", "phn", "gd"],
    );
    let card = Schema::of_strings(
        "card",
        &["FN", "LN", "St", "city", "AC", "zip", "tel", "gd"],
    );
    let text = "\
        cfd phi1: tran([AC=131] -> [city=Edi])\n\
        cfd phi2: tran([AC=020] -> [city=Ldn])\n\
        cfd phi3: tran([city, phn] -> [St, AC, post])\n\
        cfd phi4: tran([FN=Bob] -> [FN=Robert])\n\
        md  psi:  tran[LN] = card[LN] AND tran[city] = card[city] AND tran[St] = card[St] AND tran[post] = card[zip] AND tran[FN] ~lev(4) card[FN] -> tran[FN] <=> card[FN], tran[phn] <=> card[tel]\n\
        neg psi1: tran[gd] != card[gd] -> tran[FN] <!> card[FN]";
    let parsed = parse_rules(text, &tran, Some(&card)).expect("rules parse");
    let rules = RuleSet::new(
        tran.clone(),
        Some(card.clone()),
        parsed.cfds,
        parsed.positive_mds,
        parsed.negative_mds,
    );

    // Fig. 1(a): master data.
    let master = Relation::new(
        card,
        vec![
            Tuple::of_strs(
                &[
                    "Mark",
                    "Smith",
                    "10 Oak St",
                    "Edi",
                    "131",
                    "EH8 9LE",
                    "3256778",
                    "Male",
                ],
                1.0,
            ),
            Tuple::of_strs(
                &[
                    "Robert",
                    "Brady",
                    "5 Wren St",
                    "Ldn",
                    "020",
                    "WC1H 9SE",
                    "3887644",
                    "Male",
                ],
                1.0,
            ),
        ],
    );

    // Fig. 1(b): the transaction log with its per-cell confidence rows.
    let mk = |vals: &[&str], cfs: &[f64]| {
        let mut t = Tuple::of_strs(vals, 0.0);
        for (i, &c) in cfs.iter().enumerate() {
            let a = AttrId::from(i);
            let v = t.value(a).clone();
            t.set(a, v, c, FixMark::Untouched);
        }
        t
    };
    let t1 = mk(
        &[
            "M.",
            "Smith",
            "10 Oak St",
            "Ldn",
            "131",
            "EH8 9LE",
            "9999999",
            "Male",
        ],
        &[0.9, 1.0, 0.9, 0.5, 0.9, 0.9, 0.0, 0.8],
    );
    let t2 = mk(
        &[
            "Max",
            "Smith",
            "Po Box 25",
            "Edi",
            "131",
            "EH8 9AB",
            "3256778",
            "Male",
        ],
        &[0.7, 1.0, 0.5, 0.9, 0.7, 0.6, 0.8, 0.8],
    );
    let t3 = mk(
        &[
            "Bob",
            "Brady",
            "5 Wren St",
            "Edi",
            "020",
            "WC1H 9SE",
            "3887834",
            "Male",
        ],
        &[0.6, 1.0, 0.9, 0.2, 0.9, 0.8, 0.9, 0.8],
    );
    let mut t4 = mk(
        &[
            "Robert", "Brady", "", "Ldn", "020", "WC1E 7HX", "3887644", "Male",
        ],
        &[0.7, 1.0, 0.0, 0.5, 0.7, 0.3, 0.7, 0.8],
    );
    t4.set(
        tran.attr_id_or_panic("St"),
        Value::Null,
        0.0,
        FixMark::Untouched,
    );
    let dirty = Relation::new(tran.clone(), vec![t1, t2, t3, t4]);
    (tran, rules, dirty, master)
}

/// Full structural equality of two runs, with float fields compared by
/// bits (a "close enough" comparison would mask order divergence).
pub fn assert_identical(a: &CleanResult, b: &CleanResult, label: &str) {
    assert_eq!(
        a.repaired.len(),
        b.repaired.len(),
        "{label}: tuple count diverged"
    );
    for (ta, tb) in a.repaired.rows().zip(b.repaired.rows()) {
        for (ca, cb) in ta.cells().zip(tb.cells()) {
            assert_eq!(ca.value, cb.value, "{label}: cell value diverged");
            assert_eq!(
                ca.cf.to_bits(),
                cb.cf.to_bits(),
                "{label}: cell confidence diverged"
            );
            assert_eq!(ca.mark, cb.mark, "{label}: fix mark diverged");
        }
    }
    assert_eq!(
        a.report.records(),
        b.report.records(),
        "{label}: fix report diverged"
    );
    assert_eq!(
        a.cost.to_bits(),
        b.cost.to_bits(),
        "{label}: repair cost diverged"
    );
    assert_eq!(a.consistent, b.consistent, "{label}: acceptance diverged");
    assert_eq!(a.phases.len(), b.phases.len(), "{label}: phase count");
    for (pa, pb) in a.phases.iter().zip(&b.phases) {
        assert_eq!(pa.phase, pb.phase, "{label}: phase order diverged");
        assert_eq!(pa.fixes, pb.fixes, "{label}: phase fix count diverged");
    }
}

/// The reference per-tuple verdicts: for each tuple of `d`, every rule
/// whose `cfd_violations` / `md_violations` (SQL null semantics) entry
/// names it, in declaration order, CFDs before MDs.
fn reference_violations(rules: &RuleSet, d: &Relation, dm: &Relation) -> Vec<Vec<TupleViolation>> {
    let mut hits: Vec<Vec<(bool, usize, ViolationKind)>> = vec![Vec::new(); d.len()];
    for v in cfd_violations(rules.cfds(), d, true) {
        match v {
            Violation::ConstantCfd { rule, tuple } => {
                hits[tuple.index()].push((false, rule, ViolationKind::ConstantCfd))
            }
            Violation::VariableCfd { rule, tuples, .. } => {
                for t in tuples {
                    hits[t.index()].push((false, rule, ViolationKind::VariableCfd));
                }
            }
            Violation::Md { .. } => unreachable!("cfd_violations reports CFDs only"),
        }
    }
    for v in md_violations(rules.mds(), d, dm, true) {
        if let Violation::Md { rule, tuple, .. } = v {
            hits[tuple.index()].push((true, rule, ViolationKind::Md));
        }
    }
    hits.into_iter()
        .map(|mut hits| {
            hits.sort_by_key(|&(is_md, rule, _)| (is_md, rule));
            hits.dedup();
            hits.into_iter()
                .map(|(is_md, rule, kind)| TupleViolation {
                    rule: if is_md {
                        rules.mds()[rule].name().to_string()
                    } else {
                        rules.cfds()[rule].name().to_string()
                    },
                    kind,
                })
                .collect()
        })
        .collect()
}

/// Assert `violations(tid)` equals the reference for every tuple of `d`.
pub fn assert_tuple_verdicts(
    rules: &RuleSet,
    d: &Relation,
    dm: &Relation,
    violations: impl Fn(TupleId) -> Vec<TupleViolation>,
    label: &str,
) {
    for (i, want) in reference_violations(rules, d, dm).into_iter().enumerate() {
        assert_eq!(violations(TupleId::from(i)), want, "{label}: tuple {i}");
    }
}

/// The master relation `uni`'s source implies for the repair `d`: the
/// external master, a snapshot of `d` itself, or no tuples at all.
pub fn master_for(uni: &Cleaner, d: &Relation) -> Relation {
    let rules = uni.rules();
    match uni.master() {
        MasterSource::External(dm) => dm.as_ref().clone(),
        MasterSource::SelfSnapshot => {
            Relation::with_schema(rules.master_schema().unwrap().clone(), d)
        }
        MasterSource::None => Relation::empty(rules.schema().clone()),
    }
}

/// [`assert_tuple_verdicts`] on a session state, against the master view
/// its cleaner's source implies for the current repair; `is_accepted`
/// must agree with `violations` on every tuple.
pub fn assert_state_verdicts(uni: &Cleaner, state: &RepairState, label: &str) {
    let d = state.repaired();
    let dm = master_for(uni, d);
    assert_tuple_verdicts(uni.rules(), d, &dm, |tid| state.violations(tid), label);
    for (tid, _) in d.iter() {
        assert_eq!(
            state.is_accepted(tid),
            state.violations(tid).is_empty(),
            "{label}: tuple {tid:?}"
        );
    }
}

pub mod server;
