//! Violation enumeration — the raw material every repair phase works from.
//!
//! Two null conventions coexist in the paper and both are needed:
//!
//! * **Enrich** (`null_satisfies = false`): a null on a rule's RHS counts as
//!   a violation, so cleaning can *fill it in* — Example 1.1 step (d)
//!   enriches `t4[St]` (a null) through the FD `ϕ3`.
//! * **Satisfy** (`null_satisfies = true`): the SQL simple semantics of §7 —
//!   `t1[X] = t2[X]` evaluates true if either side is null. This is the
//!   convention under which the final repair `Dr ⊨ Σ` is checked, since
//!   `hRepair` may resolve an irreconcilable conflict with null.
//!
//! Pattern/premise matching never involves nulls under either convention: a
//! rule "only applies to those tuples that precisely match a pattern tuple,
//! which does not contain null".

use std::collections::HashMap;

use uniclean_model::{Relation, TupleId, Value};

use crate::cfd::Cfd;
use crate::md::Md;

/// A single detected violation.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// Tuple `tuple` matches the LHS pattern of constant CFD `rule` but
    /// disagrees with its RHS constant.
    ConstantCfd {
        /// Index of the rule in the set passed to the enumerator.
        rule: usize,
        /// The offending tuple.
        tuple: TupleId,
    },
    /// A group of tuples agreeing (strictly) on the LHS of variable CFD
    /// `rule` whose RHS values conflict or can be enriched.
    VariableCfd {
        /// Index of the rule in the set passed to the enumerator.
        rule: usize,
        /// The shared LHS key.
        key: Vec<Value>,
        /// Tuples in the group (two or more, or one with an enrichable
        /// null alongside... always ≥ 2 since a key needs two tuples to
        /// conflict).
        tuples: Vec<TupleId>,
        /// The distinct non-null RHS values observed in the group.
        values: Vec<Value>,
    },
    /// Data tuple `tuple` matches master tuple `master` on MD `rule`'s
    /// premise but their identified attributes differ.
    Md {
        /// Index of the rule in the set passed to the enumerator.
        rule: usize,
        /// The data-side tuple.
        tuple: TupleId,
        /// The master-side tuple.
        master: TupleId,
    },
}

/// Enumerate violations of a set of *normalized* CFDs.
///
/// `null_satisfies` selects the null convention (see module docs).
pub fn cfd_violations(cfds: &[Cfd], d: &Relation, null_satisfies: bool) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, cfd) in cfds.iter().enumerate() {
        assert!(
            cfd.is_normalized(),
            "cfd_violations requires normalized CFDs; `{}` is not",
            cfd.name()
        );
        if cfd.is_constant() {
            constant_cfd_violations(idx, cfd, d, null_satisfies, &mut out);
        } else {
            variable_cfd_violations(idx, cfd, d, null_satisfies, &mut out);
        }
    }
    out
}

fn constant_cfd_violations(
    idx: usize,
    cfd: &Cfd,
    d: &Relation,
    null_satisfies: bool,
    out: &mut Vec<Violation>,
) {
    let rhs = cfd.rhs()[0];
    let want = cfd.rhs_pattern()[0].as_const().expect("constant CFD");
    for (tid, t) in d.iter() {
        if !cfd.lhs_matches(t) {
            continue;
        }
        let have = t.value(rhs);
        let ok = if null_satisfies {
            have.eq_nullable(want)
        } else {
            have == want
        };
        if !ok {
            out.push(Violation::ConstantCfd {
                rule: idx,
                tuple: tid,
            });
        }
    }
}

fn variable_cfd_violations(
    idx: usize,
    cfd: &Cfd,
    d: &Relation,
    null_satisfies: bool,
    out: &mut Vec<Violation>,
) {
    let rhs = cfd.rhs()[0];
    // Δ(ȳ): group tuples that match the LHS pattern by their LHS values.
    let mut groups: HashMap<Vec<Value>, Vec<TupleId>> = HashMap::new();
    for (tid, t) in d.iter() {
        if cfd.lhs_matches(t) {
            groups.entry(t.project(cfd.lhs())).or_default().push(tid);
        }
    }
    let mut keyed: Vec<(Vec<Value>, Vec<TupleId>)> = groups.into_iter().collect();
    keyed.sort(); // deterministic output order
    for (key, tuples) in keyed {
        if tuples.len() < 2 {
            continue;
        }
        let mut distinct: Vec<Value> = Vec::new();
        let mut nulls = false;
        for &tid in &tuples {
            let v = d.tuple(tid).value(rhs);
            if v.is_null() {
                nulls = true;
            } else if !distinct.contains(v) {
                distinct.push(v.clone());
            }
        }
        distinct.sort();
        let conflict = distinct.len() >= 2;
        let enrichable = !null_satisfies && nulls && !distinct.is_empty();
        if conflict || enrichable {
            out.push(Violation::VariableCfd {
                rule: idx,
                key,
                tuples,
                values: distinct,
            });
        }
    }
}

/// Enumerate violations of a set of *normalized* MDs against master data.
///
/// This is the reference O(|D|·|Dm|) scan; the cleaning algorithms probe
/// `uniclean-core`'s `MasterIndex` access paths instead.
pub fn md_violations(
    mds: &[Md],
    d: &Relation,
    dm: &Relation,
    null_satisfies: bool,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, md) in mds.iter().enumerate() {
        assert!(
            md.is_normalized(),
            "md_violations requires normalized MDs; `{}` is not",
            md.name()
        );
        let (e, f) = md.rhs()[0];
        for (tid, t) in d.iter() {
            for (sid, s) in dm.iter() {
                if !md.premise_matches(t, s) {
                    continue;
                }
                let tv = t.value(e);
                let sv = s.value(f);
                let ok = if null_satisfies {
                    tv.eq_nullable(sv)
                } else {
                    tv == sv
                };
                if !ok {
                    out.push(Violation::Md {
                        rule: idx,
                        tuple: tid,
                        master: sid,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md::MdPremise;
    use crate::pattern::PatternValue;
    use std::sync::Arc;
    use uniclean_model::{Schema, Tuple};
    use uniclean_similarity::SimilarityPredicate;

    fn schema() -> Arc<Schema> {
        Schema::of_strings("tran", &["AC", "city", "phn", "St"])
    }

    fn phi1(s: &Arc<Schema>) -> Cfd {
        Cfd::new(
            "phi1",
            s.clone(),
            vec![s.attr_id_or_panic("AC")],
            vec![PatternValue::constant("131")],
            vec![s.attr_id_or_panic("city")],
            vec![PatternValue::constant("Edi")],
        )
    }

    fn fd_city_phn_st(s: &Arc<Schema>) -> Cfd {
        Cfd::new(
            "phi3",
            s.clone(),
            vec![s.attr_id_or_panic("city"), s.attr_id_or_panic("phn")],
            vec![PatternValue::Wildcard, PatternValue::Wildcard],
            vec![s.attr_id_or_panic("St")],
            vec![PatternValue::Wildcard],
        )
    }

    #[test]
    fn constant_cfd_single_tuple_violation() {
        let s = schema();
        let d = Relation::new(
            s.clone(),
            vec![
                Tuple::of_strs(&["131", "Ldn", "1", "a"], 0.5), // violates
                Tuple::of_strs(&["131", "Edi", "2", "b"], 0.5), // fine
                Tuple::of_strs(&["020", "Ldn", "3", "c"], 0.5), // pattern misses
            ],
        );
        let v = cfd_violations(&[phi1(&s)], &d, false);
        assert_eq!(
            v,
            vec![Violation::ConstantCfd {
                rule: 0,
                tuple: TupleId(0)
            }]
        );
    }

    #[test]
    fn variable_cfd_conflicting_group() {
        let s = schema();
        let d = Relation::new(
            s.clone(),
            vec![
                Tuple::of_strs(&["131", "Edi", "555", "10 Oak St"], 0.5),
                Tuple::of_strs(&["131", "Edi", "555", "Po Box 25"], 0.5),
                Tuple::of_strs(&["131", "Edi", "777", "5 Wren St"], 0.5),
            ],
        );
        let v = cfd_violations(&[fd_city_phn_st(&s)], &d, false);
        assert_eq!(v.len(), 1);
        match &v[0] {
            Violation::VariableCfd { tuples, values, .. } => {
                assert_eq!(tuples, &vec![TupleId(0), TupleId(1)]);
                assert_eq!(values.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn null_rhs_is_enrichable_but_satisfies_sql_semantics() {
        let s = schema();
        let mut t2 = Tuple::of_strs(&["131", "Edi", "555", "x"], 0.5);
        t2.set(
            s.attr_id_or_panic("St"),
            Value::Null,
            0.0,
            Default::default(),
        );
        let d = Relation::new(
            s.clone(),
            vec![Tuple::of_strs(&["131", "Edi", "555", "10 Oak St"], 0.5), t2],
        );
        // Cleaning view: the null is enrichable.
        let v = cfd_violations(&[fd_city_phn_st(&s)], &d, false);
        assert_eq!(v.len(), 1);
        // Final-check view: nulls satisfy.
        let v = cfd_violations(&[fd_city_phn_st(&s)], &d, true);
        assert!(v.is_empty());
    }

    #[test]
    fn null_in_lhs_excludes_tuple_from_groups() {
        let s = schema();
        let mut t = Tuple::of_strs(&["131", "Edi", "555", "Elsewhere"], 0.5);
        t.set(
            s.attr_id_or_panic("phn"),
            Value::Null,
            0.0,
            Default::default(),
        );
        let d = Relation::new(
            s.clone(),
            vec![Tuple::of_strs(&["131", "Edi", "555", "10 Oak St"], 0.5), t],
        );
        assert!(cfd_violations(&[fd_city_phn_st(&s)], &d, false).is_empty());
    }

    fn md_setup() -> (Arc<Schema>, Arc<Schema>, Md) {
        let tran = schema();
        let card = Schema::of_strings("card", &["AC", "city", "tel", "St"]);
        let md = Md::new(
            "psi",
            tran.clone(),
            card.clone(),
            vec![MdPremise {
                attr: tran.attr_id_or_panic("St"),
                master_attr: card.attr_id_or_panic("St"),
                pred: SimilarityPredicate::Equal,
            }],
            vec![(tran.attr_id_or_panic("phn"), card.attr_id_or_panic("tel"))],
        );
        (tran, card, md)
    }

    #[test]
    fn md_violation_found_and_fixed_value_not_reported() {
        let (tran, card, md) = md_setup();
        let d = Relation::new(
            tran,
            vec![
                Tuple::of_strs(&["131", "Edi", "999", "10 Oak St"], 0.5),
                Tuple::of_strs(&["131", "Edi", "777", "5 Wren St"], 0.5),
            ],
        );
        let dm = Relation::new(
            card,
            vec![Tuple::of_strs(&["131", "Edi", "777", "10 Oak St"], 1.0)],
        );
        let v = md_violations(&[md], &d, &dm, false);
        assert_eq!(
            v,
            vec![Violation::Md {
                rule: 0,
                tuple: TupleId(0),
                master: TupleId(0)
            }]
        );
    }

    #[test]
    fn md_null_rhs_enrichable_under_cleaning_semantics() {
        let (tran, card, md) = md_setup();
        let mut t = Tuple::of_strs(&["131", "Edi", "999", "10 Oak St"], 0.5);
        t.set(
            tran.attr_id_or_panic("phn"),
            Value::Null,
            0.0,
            Default::default(),
        );
        let d = Relation::new(tran, vec![t]);
        let dm = Relation::new(
            card,
            vec![Tuple::of_strs(&["131", "Edi", "777", "10 Oak St"], 1.0)],
        );
        assert_eq!(
            md_violations(std::slice::from_ref(&md), &d, &dm, false).len(),
            1
        );
        assert!(md_violations(&[md], &d, &dm, true).is_empty());
    }

    #[test]
    #[should_panic(expected = "normalized")]
    fn unnormalized_cfd_rejected() {
        let s = schema();
        let wide = Cfd::new(
            "wide",
            s.clone(),
            vec![s.attr_id_or_panic("AC")],
            vec![PatternValue::Wildcard],
            vec![s.attr_id_or_panic("city"), s.attr_id_or_panic("St")],
            vec![PatternValue::Wildcard, PatternValue::Wildcard],
        );
        cfd_violations(&[wide], &Relation::empty(s), false);
    }
}
