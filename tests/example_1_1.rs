//! Integration test: the paper's running example (Example 1.1 / Fig. 1)
//! executed through the public façade crate, including rule parsing, the
//! negative-MD embedding and CSV round-tripping of the repair.

use uniclean::model::csv::{from_csv, to_csv};
use uniclean::model::Relation;
use uniclean::model::{AttrId, FixMark, TupleId, Value};
use uniclean::rules::RuleSet;
use uniclean::{CleanConfig, Cleaner, MasterSource, Phase};

mod common;
use common::example_1_1 as setup;

/// The Example 1.1 session: η = 0.8 over the Fig. 1(a) master data.
fn example_session(rules: &RuleSet, master: &Relation) -> Cleaner {
    Cleaner::builder()
        .rules(rules.clone())
        .master(MasterSource::external(master.clone()))
        .config(CleanConfig {
            eta: 0.8,
            ..CleanConfig::default()
        })
        .build()
        .expect("Example 1.1 session is well-formed")
}

#[test]
fn fraud_is_detected_end_to_end() {
    let (tran, rules, dirty, master) = setup();
    let uni = example_session(&rules, &master);
    let result = uni.clean(&dirty, Phase::Full);
    assert!(result.consistent);

    let ident: Vec<AttrId> = ["FN", "LN", "St", "city", "AC", "post", "phn"]
        .iter()
        .map(|a| tran.attr_id_or_panic(a))
        .collect();
    assert!(
        result
            .repaired
            .tuple(TupleId(2))
            .agrees_with(result.repaired.tuple(TupleId(3)), &ident),
        "t3 and t4 must be revealed as the same person"
    );
    // All three fix classes appear in this example.
    let (det, rel, pos) = result.fix_counts();
    assert!(det > 0, "deterministic fixes expected");
    assert!(
        det + rel + pos >= 6,
        "the walk-through involves at least six fixes"
    );
}

#[test]
fn repair_cost_is_positive_and_bounded() {
    let (_, rules, dirty, master) = setup();
    let uni = example_session(&rules, &master);
    let result = uni.clean(&dirty, Phase::Full);
    assert!(
        result.cost > 0.0,
        "changes were made, cost must be positive"
    );
    // Cost is bounded by the number of cells (each normalized term ≤ 1·cf ≤ 1).
    assert!(result.cost < dirty.cell_count() as f64);
}

#[test]
fn csv_roundtrip_preserves_the_repair() {
    let (tran, rules, dirty, master) = setup();
    let uni = example_session(&rules, &master);
    let repaired = uni.clean(&dirty, Phase::Full).repaired;
    let csv = to_csv(&repaired);
    let back = from_csv("tran", &csv, 0.0).expect("csv parses");
    assert_eq!(back.len(), repaired.len());
    for (id, t) in repaired.iter() {
        for a in tran.attr_ids() {
            assert_eq!(
                back.tuple(id).value(a),
                t.value(a),
                "cell {id}/{a} roundtrips"
            );
        }
    }
}

#[test]
fn negative_md_blocks_cross_gender_identification() {
    // Rebuild the scenario with a female master clone of s2: the embedded
    // negative MD must prevent ψ from identifying t3 with her.
    let (tran, rules, dirty, mut master) = setup();
    let gd = master.schema().attr_id("gd").unwrap();
    master
        .tuple_mut(TupleId(1))
        .set(gd, Value::str("Female"), 1.0, FixMark::Untouched);
    let uni = example_session(&rules, &master);
    let result = uni.clean(&dirty, Phase::Full);
    let phn = tran.attr_id_or_panic("phn");
    // t3's phone is no longer corrected from the (female) master tuple.
    assert_ne!(
        result.repaired.tuple(TupleId(2)).value(phn),
        &Value::str("3887644")
    );
}
