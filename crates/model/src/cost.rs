//! The repair cost model of §3.1.
//!
//! ```text
//! cost(Dr, D) = Σ_{t ∈ D} Σ_{A ∈ attr(R)}  t[A].cf · dis_A(t[A], t'[A]) / max(|t[A]|, |t'[A]|)
//! ```
//!
//! where `t'` is the repair of `t`. "The higher the confidence of attribute
//! `t[A]` is and the more distant `v'` is from `v`, the more costly the
//! change is." The division by `max(|v|,|v'|)` makes longer strings with a
//! one-character difference closer than shorter strings with a one-character
//! difference.
//!
//! The distance `dis_A` is pluggable ([`repair_cost_with`]); the default
//! ([`value_distance`]) is character-level Levenshtein on the rendered
//! values, with `null` treated as the empty string. It runs the one
//! Levenshtein kernel of the workspace, `uniclean-similarity`'s Myers
//! bit-vector [`levenshtein`], which MD matching runs too; that crate's
//! `edit_distance::reference` DP is the oracle both are tested against.

use uniclean_similarity::levenshtein;

use crate::relation::Relation;
use crate::value::Value;

/// Character-level Levenshtein distance between two rendered values.
///
/// `null` renders as the empty string, so replacing a value by `null` costs
/// the full length of the value — which is why `hRepair` only reaches for
/// nulls as a last resort.
pub fn value_distance(a: &Value, b: &Value) -> f64 {
    if a == b {
        return 0.0;
    }
    levenshtein(&a.render(), &b.render()) as f64
}

/// The per-cell contribution to the cost: `cf · dis(v, v') / max(|v|, |v'|)`.
///
/// When both sizes are zero the values are both empty/null; any difference
/// between them is then impossible, so the contribution is 0.
pub fn cell_cost(
    cf: f64,
    original: &Value,
    repaired: &Value,
    dist: impl Fn(&Value, &Value) -> f64,
) -> f64 {
    if original == repaired {
        return 0.0;
    }
    let denom = original.size().max(repaired.size());
    if denom == 0 {
        return 0.0;
    }
    cf * dist(original, repaired) / denom as f64
}

/// `cost(Dr, D)` with a custom distance function.
///
/// # Panics
/// Panics if the two relations have different schemas or lengths — a repair
/// never adds or removes tuples.
pub fn repair_cost_with(
    original: &Relation,
    repaired: &Relation,
    dist: impl Fn(&Value, &Value) -> f64 + Copy,
) -> f64 {
    total_cost(terms_with(original, repaired, dist))
}

/// `cost(Dr, D)` with the default Levenshtein distance.
pub fn repair_cost(original: &Relation, repaired: &Relation) -> f64 {
    repair_cost_with(original, repaired, value_distance)
}

/// The terms of [`repair_cost`], one [`cell_cost`] per cell, row-major:
/// cell `(t, a)` is term `t · arity + a`. A caller that keeps them can
/// re-price only the cells a later repair changes and re-total them with
/// [`total_cost`], bit-identical to a fresh [`repair_cost`].
///
/// # Panics
/// As [`repair_cost_with`].
pub fn cost_terms<'a>(
    original: &'a Relation,
    repaired: &'a Relation,
) -> impl Iterator<Item = f64> + 'a {
    terms_with(original, repaired, value_distance)
}

/// Sum cost terms in their row-major order with `+=` from `+0.0`,
/// matching the §3.1 double sum exactly — float addition is
/// order-sensitive and the engine pins costs by bits. (`Iterator::sum`
/// starts from `-0.0`, so an empty repair would report `-0.0`.)
pub fn total_cost(terms: impl IntoIterator<Item = f64>) -> f64 {
    let mut total = 0.0;
    for term in terms {
        total += term;
    }
    total
}

fn terms_with<'a>(
    original: &'a Relation,
    repaired: &'a Relation,
    dist: impl Fn(&Value, &Value) -> f64 + Copy + 'a,
) -> impl Iterator<Item = f64> + 'a {
    assert_eq!(
        original.schema(),
        repaired.schema(),
        "repair must preserve the schema"
    );
    assert_eq!(
        original.len(),
        repaired.len(),
        "repair must preserve the tuple count"
    );
    original
        .rows()
        .zip(repaired.rows())
        .flat_map(move |(t, tr)| {
            original
                .schema()
                .attr_ids()
                .map(move |a| cell_cost(t.cf(a), t.value(a), tr.value(a), dist))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple::Tuple;
    use crate::TupleId;
    use proptest::prelude::*;
    use uniclean_similarity::edit_distance::reference;

    /// `value_distance` against the reference DP over the rendered values.
    fn assert_matches_reference(a: &Value, b: &Value) -> f64 {
        let got = value_distance(a, b);
        let want = reference::levenshtein_dp(&a.render(), &b.render()) as f64;
        assert_eq!(got, want, "{a:?} vs {b:?}");
        got
    }

    /// A value of each shape the cost model meets: ASCII strings of at most
    /// 64 chars (the single-word kernel), longer ones, non-ASCII, the empty
    /// string, integers and null.
    fn shaped(kind: usize, short: String, long: String, uni: String, n: i64) -> Value {
        match kind {
            0 => Value::str(short),
            1 => Value::str(long),
            2 => Value::str(uni),
            3 => Value::str(""),
            4 => Value::int(n),
            _ => Value::Null,
        }
    }

    proptest! {
        #[test]
        fn value_distance_matches_reference_dp(
            kinds in (0usize..6, 0usize..6),
            short in ("[a-d]{0,64}", "[a-d]{0,64}"),
            long in ("[ab]{65,100}", "[ab]{65,100}"),
            uni in ("[abé日λ]{0,20}", "[abé日λ]{0,20}"),
            n in (-100_000i64..100_000, -100_000i64..100_000),
        ) {
            let a = shaped(kinds.0, short.0, long.0, uni.0, n.0);
            let b = shaped(kinds.1, short.1, long.1, uni.1, n.1);
            assert_matches_reference(&a, &b);
        }
    }

    #[test]
    fn value_distance_classic_cases() {
        for (a, b, want) in [
            ("", "", 0.0),
            ("abc", "", 3.0),
            ("", "abc", 3.0),
            ("kitten", "sitting", 3.0),
            ("Edi", "Ldn", 2.0), // E→L, d matches, i→n
            ("Bob", "Robert", 4.0),
            ("flaw", "lawn", 2.0),
        ] {
            assert_eq!(
                assert_matches_reference(&Value::str(a), &Value::str(b)),
                want
            );
        }
        assert_eq!(
            assert_matches_reference(&Value::str("abcd"), &Value::Null),
            4.0
        );
        assert_eq!(
            assert_matches_reference(&Value::int(-120), &Value::int(12)),
            2.0
        );
    }

    #[test]
    fn identical_relations_cost_zero() {
        let schema = Schema::of_strings("r", &["A"]);
        let d = Relation::new(schema.clone(), vec![Tuple::of_strs(&["abc"], 1.0)]);
        assert_eq!(repair_cost(&d, &d), 0.0);
        // A positive zero, also over no cells at all.
        let empty = Relation::empty(schema);
        assert_eq!(repair_cost(&empty, &empty).to_bits(), 0.0f64.to_bits());
        assert_eq!(total_cost(cost_terms(&d, &d)).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn cost_scales_with_confidence() {
        let schema = Schema::of_strings("r", &["A"]);
        let lo = Relation::new(schema.clone(), vec![Tuple::of_strs(&["abcd"], 0.25)]);
        let hi = Relation::new(schema.clone(), vec![Tuple::of_strs(&["abcd"], 1.0)]);
        let mut rep = Relation::new(schema.clone(), vec![Tuple::of_strs(&["abcx"], 0.25)]);
        let a = schema.attr_id("A").unwrap();
        rep.tuple_mut(TupleId(0))
            .set(a, Value::str("abcx"), 1.0, Default::default());
        // One substitution in a 4-char string: dis/max = 1/4.
        assert!((repair_cost(&lo, &rep) - 0.25 * 0.25).abs() < 1e-12);
        assert!((repair_cost(&hi, &rep) - 1.0 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn longer_strings_with_one_edit_are_cheaper() {
        let schema = Schema::of_strings("r", &["A"]);
        let short = Relation::new(schema.clone(), vec![Tuple::of_strs(&["ab"], 1.0)]);
        let short_rep = Relation::new(schema.clone(), vec![Tuple::of_strs(&["ax"], 1.0)]);
        let long = Relation::new(schema.clone(), vec![Tuple::of_strs(&["abcdefgh"], 1.0)]);
        let long_rep = Relation::new(schema, vec![Tuple::of_strs(&["abcdefgx"], 1.0)]);
        assert!(repair_cost(&long, &long_rep) < repair_cost(&short, &short_rep));
    }

    #[test]
    fn null_repair_costs_full_length() {
        let schema = Schema::of_strings("r", &["A"]);
        let d = Relation::new(schema.clone(), vec![Tuple::of_strs(&["abcd"], 1.0)]);
        let mut rep = d.clone();
        let a = schema.attr_id("A").unwrap();
        rep.tuple_mut(TupleId(0))
            .set(a, Value::Null, 0.0, Default::default());
        // dis("abcd", "") = 4, max size = 4 → normalized 1.0.
        assert!((repair_cost(&d, &rep) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_confidence_changes_are_free() {
        let schema = Schema::of_strings("r", &["A"]);
        let d = Relation::new(schema.clone(), vec![Tuple::of_strs(&["abcd"], 0.0)]);
        let rep = Relation::new(schema, vec![Tuple::of_strs(&["zzzz"], 0.0)]);
        assert_eq!(repair_cost(&d, &rep), 0.0);
    }

    #[test]
    #[should_panic(expected = "tuple count")]
    fn length_mismatch_panics() {
        let schema = Schema::of_strings("r", &["A"]);
        let d = Relation::new(schema.clone(), vec![Tuple::of_strs(&["a"], 1.0)]);
        let rep = Relation::new(schema, vec![]);
        repair_cost(&d, &rep);
    }

    #[test]
    fn custom_distance_is_used() {
        let schema = Schema::of_strings("r", &["A"]);
        let d = Relation::new(schema.clone(), vec![Tuple::of_strs(&["ab"], 1.0)]);
        let rep = Relation::new(schema, vec![Tuple::of_strs(&["cd"], 1.0)]);
        // Constant distance 10 over max-size 2 → 5.
        let c = repair_cost_with(&d, &rep, |_, _| 10.0);
        assert!((c - 5.0).abs() < 1e-12);
    }
}
