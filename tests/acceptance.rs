//! The acceptance seam: `ConsistencyIndex` — the one implementation every
//! verdict the engine returns comes from — must agree with the reference
//! `satisfies_all` (`Dr ⊨ Σ`, `(Dr, Dm) ⊨ Γ` under SQL null semantics) on
//! arbitrary small relations and rule sets, and on generated inputs whose
//! frozen conflicts make the honest verdict `false`. Per tuple, the rules
//! it reports must be exactly the reference `cfd_violations` /
//! `md_violations` restricted to that tuple. Both a freshly built index and
//! the states the engine evolves are checked.

mod common;
use common::{assert_state_verdicts, assert_tuple_verdicts, master_for};

use proptest::prelude::*;
use uniclean::core::acceptance::ConsistencyIndex;
use uniclean::core::{
    CleanConfig, CleanResult, Cleaner, MasterIndex, MasterSource, Phase, RepairState,
};
use uniclean::datagen::{hosp_workload, GenParams};
use uniclean::model::{FixMark, Relation, Schema, Tuple, Value};
use uniclean::rules::{parse_rules, satisfies_all, RuleSet};

/// Constant and variable CFDs (with and without an LHS pattern) and MDs
/// led by every premise family — equality, `~lev`, `~jaro`, `~jw`,
/// `~qgram` — alone, mixed with an equality, or two similarity conjuncts,
/// so every access-path plan reaches acceptance; a case picks a subset by
/// bitmask.
const RULE_POOL: [&str; 11] = [
    "cfd fd: r([K] -> [A])",
    "cfd cc: r([A=a1] -> [B=b1])",
    "cfd pat: r([K=k0, A] -> [B])",
    "cfd c2: r([K=k1] -> [A=a0])",
    "md m: r[K] = rm[K] -> r[B] <=> rm[B]",
    "md sim: r[A] ~lev(1) rm[A] AND r[K] = rm[K] -> r[B] <=> rm[B]",
    "md q: r[A] ~qgram(2,0.2) rm[A] -> r[B] <=> rm[B]",
    "md j: r[K] ~jaro(0.6) rm[K] -> r[B] <=> rm[B]",
    "md w: r[A] ~jw(0.65) rm[A] -> r[A] <=> rm[A]",
    "md l: r[K] ~lev(1) rm[K] -> r[A] <=> rm[A]",
    "md two: r[K] ~jaro(0.6) rm[K] AND r[A] ~lev(1) rm[A] -> r[B] <=> rm[B]",
];

/// An MD whose RHS pairs two different attributes. Under a self-snapshot a
/// tuple's own row then can disagree with it, which no `RULE_POOL` MD (each
/// pairs an attribute with itself) shows; the engine-path proptest adds it
/// as a twelfth bit.
const CROSS_MD: &str = "md x: r[K] = rm[K] -> r[B] <=> rm[A]";

/// `sel` picks from a domain of three values, or null (`sel % 4 == 3`) —
/// nulls are where the SQL semantics of §7 bite.
fn cell(prefix: &str, sel: u8) -> Value {
    match sel % 4 {
        3 => Value::Null,
        n => Value::str(format!("{prefix}{n}")),
    }
}

fn relation(schema: &std::sync::Arc<Schema>, rows: &[(u8, u8, u8)]) -> Relation {
    let tuples = rows
        .iter()
        .map(|&(k, a, b)| {
            let mut t = Tuple::of_strs(&["", "", ""], 0.5);
            for (attr, (prefix, sel)) in schema.attr_ids().zip([("k", k), ("a", a), ("b", b)]) {
                t.set(attr, cell(prefix, sel), 0.5, FixMark::Untouched);
            }
            t
        })
        .collect();
    Relation::new(schema.clone(), tuples)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn consistency_index_agrees_with_satisfies_all(
        mask in 1u16..2048,
        data in proptest::collection::vec((0u8..4, 0u8..4, 0u8..4), 0..7),
        master in proptest::collection::vec((0u8..4, 0u8..4, 0u8..4), 0..4),
    ) {
        let r = Schema::of_strings("r", &["K", "A", "B"]);
        let rm = Schema::of_strings("rm", &["K", "A", "B"]);
        let text: Vec<&str> = RULE_POOL
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, rule)| *rule)
            .collect();
        let parsed = parse_rules(&text.join("\n"), &r, Some(&rm)).unwrap();
        let rules = RuleSet::new(
            r.clone(),
            Some(rm.clone()),
            parsed.cfds,
            parsed.positive_mds,
            parsed.negative_mds,
        );
        let d = relation(&r, &data);
        let dm = relation(&rm, &master);
        let index = MasterIndex::build(rules.mds(), &dm);
        let cons = ConsistencyIndex::build(&rules, &d, Some((&dm, &index)));
        let label = format!("rules {text:?}\ndata {data:?}\nmaster {master:?}");
        prop_assert_eq!(
            cons.consistent(),
            satisfies_all(rules.cfds(), rules.mds(), &d, &dm),
            "{}",
            label
        );
        assert_tuple_verdicts(&rules, &d, &dm, |tid| cons.violations(&rules, &d, tid), &label);
    }
}

/// `relation` with per-cell confidences: bit `i` of `cf` asserts cell `i`
/// (confidence 1.0), the other cells get 0.0, so `cRepair` has evidence to
/// act on at η = 0.8.
fn dirty(schema: &std::sync::Arc<Schema>, rows: &[(u8, u8, u8, u8)]) -> Relation {
    let tuples = rows
        .iter()
        .map(|&(k, a, b, cf)| {
            let mut t = Tuple::of_strs(&["", "", ""], 0.0);
            let cells = [("k", k), ("a", a), ("b", b)];
            for (i, (attr, (prefix, sel))) in schema.attr_ids().zip(cells).enumerate() {
                let c = if cf & (1 << i) != 0 { 1.0 } else { 0.0 };
                t.set(attr, cell(prefix, sel), c, FixMark::Untouched);
            }
            t
        })
        .collect();
    Relation::new(schema.clone(), tuples)
}

/// The verdicts of a state the engine evolved, against the reference on
/// the repair it returned.
fn assert_engine_verdicts(uni: &Cleaner, state: &RepairState, result: &CleanResult, label: &str) {
    let rules = uni.rules();
    let dm = master_for(uni, &result.repaired);
    assert_eq!(
        result.consistent,
        satisfies_all(rules.cfds(), rules.mds(), &result.repaired, &dm),
        "{label}: the result's verdict"
    );
    assert_eq!(
        state.consistent(),
        result.consistent,
        "{label}: the state's verdict"
    );
    assert_state_verdicts(uni, state, label);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The engine path of the same seam: `begin` on a prefix of the data,
    /// for every phase prefix, over an external master and over a
    /// self-snapshot (`rm` mirrors `r` positionally), then one
    /// `clean_delta` of the rest. The engine grades from the structures its
    /// phases ended with — the final 2-in-1 and the witness cache — so
    /// every MD family of `RULE_POOL`, and `CROSS_MD`, reaches them here.
    #[test]
    fn engine_verdicts_agree_with_satisfies_all(
        mask in 1u16..4096,
        data in proptest::collection::vec((0u8..4, 0u8..4, 0u8..4, 0u8..8), 0..7),
        master in proptest::collection::vec((0u8..4, 0u8..4, 0u8..4), 0..4),
        split in 0usize..7,
    ) {
        let r = Schema::of_strings("r", &["K", "A", "B"]);
        let rm = Schema::of_strings("rm", &["K", "A", "B"]);
        let text: Vec<&str> = RULE_POOL
            .iter()
            .chain([&CROSS_MD])
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, rule)| *rule)
            .collect();
        let parsed = parse_rules(&text.join("\n"), &r, Some(&rm)).unwrap();
        let rules = RuleSet::new(
            r.clone(),
            Some(rm.clone()),
            parsed.cfds,
            parsed.positive_mds,
            parsed.negative_mds,
        );
        let split = split.min(data.len());
        let head = dirty(&r, &data[..split]);
        let batch = dirty(&r, &data[split..]).to_tuples();
        let sources = [
            ("external", MasterSource::external(relation(&rm, &master))),
            ("self-snapshot", MasterSource::SelfSnapshot),
        ];
        for (name, source) in sources {
            let cleaner = Cleaner::builder()
                .rules(rules.clone())
                .master(source)
                .config(CleanConfig {
                    eta: 0.8,
                    ..CleanConfig::default()
                })
                .build()
                .unwrap();
            for phase in Phase::ALL {
                let label = format!(
                    "{name} {phase:?}\nrules {text:?}\ndata {data:?} split {split}\nmaster {master:?}"
                );
                let (mut state, result) = cleaner.begin(&head, phase);
                assert_engine_verdicts(&cleaner, &state, &result, &format!("begin {label}"));
                let result = cleaner.clean_delta(&mut state, &batch).unwrap();
                assert_engine_verdicts(&cleaner, &state, &result, &format!("delta {label}"));
            }
        }
    }
}

/// `benchmark/README.md`: about one `hosp` seed in fifty (18 and 110 among
/// the first ones) generates asserted cells that contradict each other
/// under `ZIP → City` — a frozen conflict no repair may touch, so a full
/// clean must come back `consistent == false`, and the reference must say
/// the same of that repair. Σ fails there, so the per-tuple MD verdicts of
/// a `begin` state are graded without the CFD half holding; each must
/// still equal the reference.
#[test]
fn frozen_conflicts_are_rejected_by_both_implementations() {
    for seed in [18, 110] {
        let w = hosp_workload(&GenParams {
            tuples: 4000,
            master_tuples: 1000,
            seed,
            ..GenParams::default()
        });
        let cleaner = Cleaner::builder()
            .rules(w.rules.clone())
            .master(MasterSource::external(w.master.clone()))
            .build()
            .unwrap();
        let (state, result) = cleaner.begin(&w.dirty, Phase::Full);
        assert!(!result.consistent, "seed {seed}: the engine's verdict");
        assert!(
            !satisfies_all(w.rules.cfds(), w.rules.mds(), &result.repaired, &w.master),
            "seed {seed}: the reference verdict"
        );
        assert_state_verdicts(&cleaner, &state, &format!("seed {seed}"));
    }
}
