//! The acceptance seam: `ConsistencyIndex` — the one implementation every
//! verdict the engine returns comes from — must agree with the reference
//! `satisfies_all` (`Dr ⊨ Σ`, `(Dr, Dm) ⊨ Γ` under SQL null semantics) on
//! arbitrary small relations and rule sets, and on generated inputs whose
//! frozen conflicts make the honest verdict `false`. Per tuple, the rules
//! it reports must be exactly the reference `cfd_violations` /
//! `md_violations` restricted to that tuple.

mod common;
use common::{assert_state_verdicts, assert_tuple_verdicts};

use proptest::prelude::*;
use uniclean::core::acceptance::ConsistencyIndex;
use uniclean::core::{Cleaner, IndexPolicy, MasterIndex, MasterSource, Phase};
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
        let forced = IndexPolicy { intersect_above: 0.0 };
        let indexes = [
            MasterIndex::build(rules.mds(), &dm),
            MasterIndex::build_with_policy(rules.mds(), &dm, 1, forced),
        ];
        for index in &indexes {
            let cons = ConsistencyIndex::build(&rules, &d, Some((&dm, index)));
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
