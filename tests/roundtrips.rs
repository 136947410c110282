//! Round-trip properties across serialization boundaries: CSV ↔ relation
//! and rule text ↔ parsed rules. A credible release must not corrupt data
//! at its edges.

use proptest::prelude::*;
use uniclean::model::csv::{from_csv, to_csv};
use uniclean::model::{Relation, Schema, Tuple, Value};
use uniclean::rules::parse_rules;

proptest! {
    /// Arbitrary string content (including separators, quotes, newlines-free
    /// text and empties) survives a CSV round trip cell for cell.
    #[test]
    fn csv_roundtrip_preserves_arbitrary_content(
        rows in proptest::collection::vec(
            (".{0,12}", ".{0,12}"),
            1..20
        )
    ) {
        let schema = Schema::of_strings("r", &["A", "B"]);
        let rel = Relation::new(
            schema,
            rows.iter()
                .map(|(a, b)| Tuple::from_values([Value::str(a), Value::str(b)], 0.0))
                .collect(),
        );
        let csv = to_csv(&rel);
        let back = from_csv("r", &csv, 0.0).unwrap();
        prop_assert_eq!(back.len(), rel.len());
        for (id, t) in rel.iter() {
            for a in rel.schema().attr_ids() {
                prop_assert_eq!(back.tuple(id).value(a), t.value(a));
            }
        }
    }

    /// Null cells survive alongside empty strings (distinct on the wire).
    #[test]
    fn csv_distinguishes_null_from_empty(n in 1usize..10) {
        let schema = Schema::of_strings("r", &["A"]);
        let mut rel = Relation::empty(schema);
        for i in 0..n {
            let v = if i % 2 == 0 { Value::Null } else { Value::str("") };
            rel.push(Tuple::from_values([v], 0.0));
        }
        let csv = to_csv(&rel);
        let back = from_csv("r", &csv, 0.0).unwrap();
        for (id, t) in rel.iter() {
            prop_assert_eq!(
                back.tuple(id).value(uniclean::model::AttrId(0)).is_null(),
                t.value(uniclean::model::AttrId(0)).is_null()
            );
        }
    }
}

#[test]
fn cfd_display_parses_back() {
    // The Display form of every parsed CFD is itself valid rule text.
    let s = Schema::of_strings("tran", &["FN", "AC", "city", "post"]);
    let text = "cfd a: tran([AC=131] -> [city=Edi])\n\
                cfd b: tran([city, post] -> [FN])\n\
                cfd c: tran([FN=Bob] -> [FN=Robert])";
    let first = parse_rules(text, &s, None).unwrap();
    let rendered: String = first.cfds.iter().map(|c| format!("cfd {c}\n")).collect();
    let second = parse_rules(&rendered, &s, None).unwrap();
    assert_eq!(first.cfds.len(), second.cfds.len());
    for (a, b) in first.cfds.iter().zip(second.cfds.iter()) {
        assert_eq!(a.lhs(), b.lhs());
        assert_eq!(a.rhs(), b.rhs());
        assert_eq!(a.lhs_pattern(), b.lhs_pattern());
        assert_eq!(a.rhs_pattern(), b.rhs_pattern());
    }
}

#[test]
fn md_display_parses_back() {
    let tran = Schema::of_strings("tran", &["LN", "FN", "phn"]);
    let card = Schema::of_strings("card", &["LN", "FN", "tel"]);
    let text =
        "md psi: tran[LN] = card[LN] AND tran[FN] ~lev(2) card[FN] -> tran[phn] <=> card[tel]";
    let first = parse_rules(text, &tran, Some(&card)).unwrap();
    let rendered = format!("md {}", first.positive_mds[0]);
    let second = parse_rules(&rendered, &tran, Some(&card)).unwrap();
    assert_eq!(
        first.positive_mds[0].premises(),
        second.positive_mds[0].premises()
    );
    assert_eq!(first.positive_mds[0].rhs(), second.positive_mds[0].rhs());
}
