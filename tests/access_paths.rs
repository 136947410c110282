//! Access-path completeness harness: for arbitrary relations × every
//! predicate family × every plan shape (exact, composite, lev-count,
//! q-gram count filter, Jaro prefilter, intersection), the candidate set
//! is a **superset** of the reference full-scan match set and
//! `matches_into` output is **identical** to it — blocking may shrink
//! candidates, never verified matches.
//!
//! Every path is complete by construction (there is no top-`l`
//! truncation knob anymore): `~lev` runs through the padded q-gram count
//! bound, `~qgram`/`~jaro`/`~jw` through their count/1-gram filters, and
//! equality through hash lookups. The generated HOSP, DBLP and
//! similarity-premise DBLP workloads run through the same `matches_into` ≡
//! scan assertion.

use std::sync::Arc;

use proptest::prelude::*;
use uniclean::core::{IndexPolicy, MasterIndex, ProbeScratch};
use uniclean::datagen::{dblp_similarity_workload, dblp_workload, hosp_workload, GenParams};
use uniclean::model::{Relation, Row, Schema, Tuple, TupleId};
use uniclean::rules::{parse_rules, Md};

fn schemas() -> (Arc<Schema>, Arc<Schema>) {
    (
        Schema::of_strings("tran", &["A", "B", "X"]),
        Schema::of_strings("card", &["A", "B", "X"]),
    )
}

/// One MD per plan shape / predicate family the planner can produce.
fn family_mds(tran: &Arc<Schema>, card: &Arc<Schema>) -> Vec<Md> {
    let text = "\
        md exact: tran[A] = card[A] -> tran[X] <=> card[X]\n\
        md composite: tran[A] = card[A] AND tran[B] = card[B] -> tran[X] <=> card[X]\n\
        md lev: tran[A] ~lev(1) card[A] -> tran[X] <=> card[X]\n\
        md lev2: tran[B] ~lev(2) card[B] -> tran[X] <=> card[X]\n\
        md qgram: tran[A] ~qgram(2,0.5) card[A] -> tran[X] <=> card[X]\n\
        md jaro: tran[A] ~jaro(0.8) card[A] -> tran[X] <=> card[X]\n\
        md jw: tran[A] ~jw(0.85) card[A] -> tran[X] <=> card[X]\n\
        md eq_and_qgram: tran[A] = card[A] AND tran[B] ~qgram(2,0.4) card[B] -> tran[X] <=> card[X]\n\
        md lev_and_jaro: tran[A] ~lev(1) card[A] AND tran[B] ~jaro(0.75) card[B] -> tran[X] <=> card[X]\n\
        md degenerate_qgram: tran[A] ~qgram(2,0) card[A] -> tran[X] <=> card[X]\n\
        md degenerate_jaro: tran[A] ~jaro(0.2) card[A] -> tran[X] <=> card[X]\n";
    parse_rules(text, tran, Some(card)).unwrap().positive_mds
}

fn relation(schema: &Arc<Schema>, rows: &[(String, String)], cf: f64) -> Relation {
    Relation::new(
        schema.clone(),
        rows.iter()
            .enumerate()
            .map(|(i, (a, b))| Tuple::of_strs(&[a, b, &format!("x{i}")], cf))
            .collect(),
    )
}

fn reference<'t>(md: &Md, t: impl Row<'t>, dm: &Relation) -> Vec<TupleId> {
    dm.iter()
        .filter(|(_, s)| md.premise_matches(t, s))
        .map(|(sid, _)| sid)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Candidates ⊇ reference matches and verified matches ≡ reference,
    /// for every family and under both the default policy and a policy
    /// that forces intersection plans whenever a second conjunct exists.
    #[test]
    fn every_access_path_is_match_preserving(
        master_rows in proptest::collection::vec(("[ab]{0,4}", "[ab]{0,3}"), 1..8),
        probes in proptest::collection::vec(("[ab]{0,4}", "[ab]{0,3}"), 1..6),
    ) {
        let (tran, card) = schemas();
        let mds = family_mds(&tran, &card);
        let dm = relation(&card, &master_rows, 1.0);
        let policies = [
            ("default", IndexPolicy::default()),
            ("intersect-always", IndexPolicy { intersect_above: 0.0 }),
        ];
        for (policy_name, policy) in policies {
            let idx = MasterIndex::build_with_policy(&mds, &dm, 1, policy);
            let mut scratch = ProbeScratch::new();
            let mut verified = Vec::new();
            for (i, md) in mds.iter().enumerate() {
                prop_assert!(idx.is_indexed(i), "md {} not indexed", md.name());
                for (pa, pb) in &probes {
                    let t = Tuple::of_strs(&[pa, pb, "probe"], 0.5);
                    let want = reference(md, &t, &dm);
                    let mut cands = Vec::new();
                    idx.for_each_candidate(i, md, &t, &mut scratch, |sid| cands.push(sid));
                    for sid in &want {
                        prop_assert!(
                            cands.contains(sid),
                            "[{policy_name}] md {} probe ({pa:?},{pb:?}): \
                             true match {sid:?} pruned (plan {})",
                            md.name(),
                            idx.describe_plan(i, md)
                        );
                    }
                    idx.matches_into(i, md, &t, &dm, None, &mut scratch, &mut verified);
                    prop_assert_eq!(
                        &verified,
                        &want,
                        "[{}] md {} probe ({:?},{:?}) plan {}",
                        policy_name,
                        md.name(),
                        pa,
                        pb,
                        idx.describe_plan(i, md)
                    );
                }
            }
        }
    }

    /// Exclusion and buffer reuse behave identically on every path.
    #[test]
    fn exclusion_is_honored_on_every_path(
        master_rows in proptest::collection::vec(("[ab]{0,3}", "[ab]{0,2}"), 1..6),
    ) {
        let (tran, card) = schemas();
        let mds = family_mds(&tran, &card);
        let dm = relation(&card, &master_rows, 1.0);
        let idx = MasterIndex::build(&mds, &dm);
        let mut scratch = ProbeScratch::new();
        let mut buf = Vec::new();
        for (i, md) in mds.iter().enumerate() {
            let (pa, pb) = &master_rows[0];
            let t = Tuple::of_strs(&[pa, pb, "probe"], 0.5);
            let want: Vec<TupleId> = reference(md, &t, &dm)
                .into_iter()
                .filter(|&sid| sid != TupleId(0))
                .collect();
            idx.matches_into(i, md, &t, &dm, Some(TupleId(0)), &mut scratch, &mut buf);
            prop_assert_eq!(&buf, &want, "md {}", md.name());
        }
        let _ = tran;
    }
}

/// The paper's workloads through the same assertion: on generated HOSP,
/// DBLP and the DBLP variant whose MDs carry `~lev`/`~jaro`/`~jw`/`~qgram`
/// premises, every MD is indexed (no scan fallback), and the index — built
/// sequentially or by the batched multi-threaded artifact build — answers
/// every probe exactly as the O(|D|·|Dm|) scan does, in the same order.
#[test]
fn generated_workloads_match_the_scan_on_every_md() {
    let params = GenParams {
        tuples: 300,
        master_tuples: 120,
        ..GenParams::default()
    };
    let workloads = [
        hosp_workload(&params),
        dblp_workload(&params),
        dblp_similarity_workload(&params),
    ];
    for w in workloads {
        let mds = w.rules.mds();
        for threads in [1, 4] {
            let idx =
                MasterIndex::build_with_policy(mds, &w.master, threads, IndexPolicy::default());
            let mut scratch = ProbeScratch::new();
            let mut verified = Vec::new();
            for (i, md) in mds.iter().enumerate() {
                assert!(
                    idx.is_indexed(i),
                    "{}: md {} fell back to scan ({})",
                    w.name,
                    md.name(),
                    idx.scan_reason(i).unwrap_or("?")
                );
                for (tid, t) in w.dirty.iter() {
                    idx.matches_into(i, md, t, &w.master, None, &mut scratch, &mut verified);
                    assert_eq!(
                        verified,
                        reference(md, t, &w.master),
                        "{} threads={threads}: md {} tuple {tid} — index and scan disagree",
                        w.name,
                        md.name()
                    );
                }
            }
        }
    }
}

/// The planner's decision table, pinned: each family lands on its intended
/// plan shape.
#[test]
fn planner_decision_table() {
    let (tran, card) = schemas();
    let mds = family_mds(&tran, &card);
    let rows: Vec<(String, String)> = (0..30)
        .map(|i| (format!("v{i}"), format!("w{}", i % 5)))
        .collect();
    let dm = relation(&card, &rows, 1.0);
    let idx = MasterIndex::build(&mds, &dm);
    let plan = |name: &str| {
        let (i, md) = mds
            .iter()
            .enumerate()
            .find(|(_, m)| m.name() == name)
            .expect("md exists");
        idx.describe_plan(i, md)
    };
    assert!(plan("exact").starts_with("exact-eq"), "{}", plan("exact"));
    assert!(
        plan("composite").starts_with("composite-eq"),
        "{}",
        plan("composite")
    );
    assert!(plan("lev").starts_with("lev-count"), "{}", plan("lev"));
    assert!(plan("lev2").starts_with("lev-count"), "{}", plan("lev2"));
    assert!(
        plan("qgram").starts_with("qgram-count"),
        "{}",
        plan("qgram")
    );
    assert!(plan("jaro").starts_with("jaro-1gram"), "{}", plan("jaro"));
    assert!(plan("jw").starts_with("jaro-1gram"), "{}", plan("jw"));
    // Selective equality ⇒ no second probe needed at the default policy.
    assert!(
        plan("eq_and_qgram").starts_with("exact-eq"),
        "{}",
        plan("eq_and_qgram")
    );
    // Degenerate thresholds stay indexed (the filter keeps every row but
    // the plan is not a scan, and verification still prunes).
    for name in ["degenerate_qgram", "degenerate_jaro"] {
        let (i, _) = mds
            .iter()
            .enumerate()
            .find(|(_, m)| m.name() == name)
            .unwrap();
        assert!(idx.is_indexed(i), "{name} must not scan");
    }
}

/// Forcing intersection everywhere must not change verified matches on a
/// workload with correlated columns (the adversarial case for a planner
/// bug: a filter that *would* prune a true match).
#[test]
fn forced_intersection_equals_default_on_correlated_data() {
    let (tran, card) = schemas();
    let mds = family_mds(&tran, &card);
    let rows: Vec<(String, String)> = (0..40)
        .map(|i| (format!("a{}", i % 7), format!("b{}", i % 3)))
        .collect();
    let dm = relation(&card, &rows, 1.0);
    let default = MasterIndex::build(&mds, &dm);
    let forced = MasterIndex::build_with_policy(
        &mds,
        &dm,
        2,
        IndexPolicy {
            intersect_above: 0.0,
        },
    );
    let (mut sa, mut sb) = (ProbeScratch::new(), ProbeScratch::new());
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for (i, md) in mds.iter().enumerate() {
        for (j, (ra, rb)) in rows.iter().enumerate() {
            let t = Tuple::of_strs(&[ra, rb, "x"], 0.5);
            default.matches_into(i, md, &t, &dm, None, &mut sa, &mut a);
            forced.matches_into(i, md, &t, &dm, None, &mut sb, &mut b);
            assert_eq!(a, b, "md {} row {j}", md.name());
        }
    }
    let _ = tran;
}
