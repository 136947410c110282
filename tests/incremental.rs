//! Incremental-cleaning equivalence suite: `Cleaner::begin` + repeated
//! `Cleaner::clean_delta` must leave the state bit-identical — cell
//! values, confidences, marks, plus cost and acceptance — to a
//! from-scratch `Cleaner::clean` over the concatenated relation, across
//! parallelism {1, 4}, on both the fast (continuation) path and the
//! escalation path — and every state keeps the paper's guarantees: its
//! cost is the cost of its cells, deterministic fixes are final, and
//! asserted cells survive `eRepair`.

mod common;
use common::{assert_identical, assert_state_verdicts};

use std::num::NonZeroUsize;
use std::sync::Arc;

use proptest::prelude::*;
use uniclean::core::{
    CleanConfig, CleanError, CleanResult, Cleaner, FixReport, MasterSource, Phase, RepairState,
};
use uniclean::datagen::{hosp_workload, GenParams};
use uniclean::model::{repair_cost, AttrId, FixMark, Relation, Schema, Tuple, TupleId, Value};
use uniclean::rules::{parse_rules, RuleSet};

/// Three interacting rules over a 3-attribute schema: a variable FD, a
/// constant CFD and an MD — enough to exercise every phase, witness
/// waiting, and cross-rule cascades between settled and batch tuples.
fn scenario_rules() -> (Arc<Schema>, RuleSet, Relation) {
    let r = Schema::of_strings("r", &["K", "A", "B"]);
    let rm = Schema::of_strings("rm", &["K", "B"]);
    let text = "cfd fd: r([K] -> [A])\n\
                cfd cc: r([A=a1] -> [B=b1])\n\
                md m: r[K] = rm[K] -> r[B] <=> rm[B]";
    let parsed = parse_rules(text, &r, Some(&rm)).unwrap();
    let rules = RuleSet::new(
        r.clone(),
        Some(rm.clone()),
        parsed.cfds,
        parsed.positive_mds,
        parsed.negative_mds,
    );
    let master = Relation::new(
        rm,
        vec![
            Tuple::of_strs(&["k0", "b1"], 1.0),
            Tuple::of_strs(&["k1", "b2"], 1.0),
        ],
    );
    (r, rules, master)
}

/// Decode one generated row `(k, a, b, cf_bits)` into a tuple with mixed
/// per-cell confidences (0, 0.5 or 1 per cell — below/at/above η = 0.8).
fn decode(row: &(u8, u8, u8, u8), schema: &Arc<Schema>) -> Tuple {
    let (k, a, b, bits) = *row;
    let cf = |sel: u8| [0.0, 0.5, 1.0][(sel % 3) as usize];
    let mut t = Tuple::of_strs(
        &[
            &format!("k{}", k % 3),
            &format!("a{}", a % 3),
            &format!("b{}", b % 4),
        ],
        0.0,
    );
    for (i, c) in [cf(bits), cf(bits / 3), cf(bits / 9)]
        .into_iter()
        .enumerate()
    {
        let attr = schema.attr_ids().nth(i).unwrap();
        let v = t.value(attr).clone();
        t.set(attr, v, c, FixMark::Untouched);
    }
    t
}

fn cleaner(rules: &RuleSet, master: &Relation, threads: usize) -> Cleaner {
    Cleaner::builder()
        .rules(rules.clone())
        .master(MasterSource::external(master.clone()))
        .config(CleanConfig {
            eta: 0.8,
            delta_entropy: 0.9,
            parallelism: Some(NonZeroUsize::new(threads).unwrap()),
            ..CleanConfig::default()
        })
        .build()
        .unwrap()
}

/// Bitwise equality of the incremental state against a from-scratch run,
/// the fix log's final states against the from-scratch report's, plus
/// every tuple's `is_accepted` / `violations` against the reference
/// `cfd_violations` / `md_violations` of the repair.
fn assert_matches(uni: &Cleaner, reference: &CleanResult, state: &RepairState, label: &str) {
    assert_eq!(
        reference.repaired.len(),
        state.repaired().len(),
        "{label}: tuple count"
    );
    for (i, (ra, rb)) in reference
        .repaired
        .rows()
        .zip(state.repaired().rows())
        .enumerate()
    {
        for (ca, cb) in ra.cells().zip(rb.cells()) {
            assert_eq!(ca.value, cb.value, "{label}: tuple {i} value diverged");
            assert_eq!(
                ca.cf.to_bits(),
                cb.cf.to_bits(),
                "{label}: tuple {i} confidence diverged"
            );
            assert_eq!(ca.mark, cb.mark, "{label}: tuple {i} mark diverged");
        }
    }
    assert_eq!(
        reference.consistent,
        state.consistent(),
        "{label}: acceptance diverged"
    );
    assert_eq!(
        reference.cost.to_bits(),
        state.cost().to_bits(),
        "{label}: cost diverged"
    );
    // The log explains the current repair: one final fix per cell, the
    // same as the from-scratch report's.
    let finals = |log: &FixReport| -> Vec<(TupleId, AttrId, Value, FixMark)> {
        log.final_states()
            .map(|r| (r.tuple, r.attr, r.new.clone(), r.mark))
            .collect()
    };
    assert_eq!(
        finals(state.log()),
        finals(&reference.report),
        "{label}: fix log diverged"
    );
    assert_state_verdicts(uni, state, label);
    assert_paper_guarantees(uni, state, label);
}

/// The paper's guarantees, checked on the state's own cells: its cost is
/// the §3.1 cost of those cells, deterministic fixes are final (§5), and
/// before `hRepair` no asserted cell (`cf ≥ η`) changes (§6).
fn assert_paper_guarantees(uni: &Cleaner, state: &RepairState, label: &str) {
    assert_eq!(
        repair_cost(state.base(), state.repaired()).to_bits(),
        state.cost().to_bits(),
        "{label}: cost is not the repair cost of the cells"
    );
    let c = uni.clean(state.base(), Phase::CRepair).repaired;
    for (t, (cr, sr)) in c.rows().zip(state.repaired().rows()).enumerate() {
        for (a, (cc, sc)) in cr.cells().zip(sr.cells()).enumerate() {
            if cc.mark == FixMark::Deterministic {
                assert_eq!(
                    (&sc.value, sc.mark),
                    (&cc.value, FixMark::Deterministic),
                    "{label}: deterministic fix of tuple {t} attr {a} overridden"
                );
            }
        }
    }
    if state.phase() <= Phase::CERepair {
        let eta = uni.config().eta;
        for (t, (br, sr)) in state.base().rows().zip(state.repaired().rows()).enumerate() {
            for (a, (bc, sc)) in br.cells().zip(sr.cells()).enumerate() {
                if bc.cf >= eta {
                    assert_eq!(
                        sc.value, bc.value,
                        "{label}: asserted cell of tuple {t} attr {a} changed"
                    );
                }
            }
        }
    }
}

fn concat(schema: &Arc<Schema>, parts: &[&[Tuple]]) -> Relation {
    Relation::new(
        schema.clone(),
        parts.iter().flat_map(|p| p.iter().cloned()).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// full-clean(D ∪ batches) ≡ clean + repeated clean_delta, across
    /// parallelism {1, 4} × phase {CE, Full}.
    #[test]
    fn delta_equals_full_reclean(
        base in proptest::collection::vec((0u8..3, 0u8..3, 0u8..4, 0u8..27), 1..7),
        batch1 in proptest::collection::vec((0u8..3, 0u8..3, 0u8..4, 0u8..27), 0..4),
        batch2 in proptest::collection::vec((0u8..3, 0u8..3, 0u8..4, 0u8..27), 0..4),
    ) {
        let (schema, rules, master) = scenario_rules();
        let d0: Vec<Tuple> = base.iter().map(|r| decode(r, &schema)).collect();
        let b1: Vec<Tuple> = batch1.iter().map(|r| decode(r, &schema)).collect();
        let b2: Vec<Tuple> = batch2.iter().map(|r| decode(r, &schema)).collect();

        for phase in [Phase::CERepair, Phase::Full] {
            for threads in [1usize, 4] {
                let label = format!("phase={phase:?} threads={threads}");
                let uni = cleaner(&rules, &master, threads);

                let (mut state, first) =
                    uni.begin(&Relation::new(schema.clone(), d0.clone()), phase);
                // begin() must agree with a plain clean() of the base.
                let base_ref = uni.clean(&Relation::new(schema.clone(), d0.clone()), phase);
                assert_matches(&uni, &base_ref, &state, &format!("{label} [begin]"));
                prop_assert_eq!(first.repaired.len(), d0.len());

                uni.clean_delta(&mut state, &b1).unwrap();
                let ref1 = uni.clean(&concat(&schema, &[&d0, &b1]), phase);
                assert_matches(&uni, &ref1, &state, &format!("{label} [delta 1]"));

                uni.clean_delta(&mut state, &b2).unwrap();
                let ref2 = uni.clean(&concat(&schema, &[&d0, &b1, &b2]), phase);
                assert_matches(&uni, &ref2, &state, &format!("{label} [delta 2]"));
            }
        }
    }
}

/// A batch whose tuples share nothing with the settled ones rides the
/// fast (continuation) path — no escalation.
#[test]
fn disjoint_batch_stays_on_the_fast_path() {
    let (schema, rules, master) = scenario_rules();
    let uni = cleaner(&rules, &master, 1);
    let base = Relation::new(
        schema.clone(),
        vec![
            decode(&(0, 0, 0, 26), &schema),
            decode(&(0, 0, 1, 0), &schema),
        ],
    );
    let (mut state, _) = uni.begin(&base, Phase::Full);
    // k2 never appears in the base or master: no shared groups, no MD hit.
    let batch = vec![decode(&(2, 1, 2, 13), &schema)];
    let r = uni.clean_delta(&mut state, &batch).unwrap();
    assert_eq!(state.escalations(), 0, "disjoint batch must not escalate");
    assert_eq!(r.repaired.len(), 3);
    let reference = uni.clean(&concat(&schema, &[&base.to_tuples(), &batch]), Phase::Full);
    assert_matches(&uni, &reference, &state, "disjoint batch");
}

/// A batch tuple that brings the asserted witness a settled tuple was
/// waiting for rewrites settled data. The continuation keeps the write
/// (it is a legal application order of the §5.2-order-independent
/// fixpoint), refreshes the pinned structures, and stays off the full
/// reclean path — while still matching the from-scratch result exactly.
#[test]
fn settled_write_is_kept_without_escalation() {
    let (schema, rules, master) = scenario_rules();
    let uni = cleaner(&rules, &master, 1);
    // Settled tuple: K=k2 asserted, A unasserted → waits on the FD group
    // for an asserted witness (k2 misses the master, so the MD is quiet).
    let a = schema.attr_id_or_panic("A");
    let k = schema.attr_id_or_panic("K");
    let mut waiter = Tuple::of_strs(&["k2", "a0", "b3"], 0.0);
    waiter.set(k, Value::str("k2"), 1.0, FixMark::Untouched);
    let base = Relation::new(schema.clone(), vec![waiter]);
    let (mut state, _) = uni.begin(&base, Phase::Full);
    assert_eq!(state.escalations(), 0);

    // Batch: same key, fully asserted A=a2 → becomes the group witness and
    // rewrites the settled tuple's A.
    let mut witness = Tuple::of_strs(&["k2", "a2", "b3"], 0.0);
    witness.set(k, Value::str("k2"), 1.0, FixMark::Untouched);
    witness.set(a, Value::str("a2"), 1.0, FixMark::Untouched);
    let batch = vec![witness];
    uni.clean_delta(&mut state, &batch).unwrap();
    assert_eq!(
        state.escalations(),
        0,
        "a settled write alone must not escalate"
    );
    assert_eq!(
        state.repaired().tuple(uniclean::model::TupleId(0)).value(a),
        &Value::str("a2"),
        "the deterministic fix reached the settled tuple"
    );
    let reference = uni.clean(&concat(&schema, &[&base.to_tuples(), &batch]), Phase::Full);
    assert_matches(&uni, &reference, &state, "settled-write batch");
}

/// Conflicting asserted witnesses in one conflict set — the one
/// order-dependent situation in `cRepair` — must escalate to a full
/// reclean, which resolves the race with the from-scratch order.
#[test]
fn conflicting_asserted_evidence_escalates() {
    let (schema, rules, master) = scenario_rules();
    let uni = cleaner(&rules, &master, 1);
    let a = schema.attr_id_or_panic("A");
    let k = schema.attr_id_or_panic("K");
    let asserted = |av: &str| {
        let mut t = Tuple::of_strs(&["k2", av, "b3"], 0.0);
        t.set(k, Value::str("k2"), 1.0, FixMark::Untouched);
        t.set(a, Value::str(av), 1.0, FixMark::Untouched);
        t
    };
    // Base: an asserted witness A=a0 for group k2.
    let base = Relation::new(schema.clone(), vec![asserted("a0")]);
    let (mut state, _) = uni.begin(&base, Phase::Full);
    // Batch: a *different* asserted witness A=a2 for the same group.
    let batch = vec![asserted("a2")];
    uni.clean_delta(&mut state, &batch).unwrap();
    assert_eq!(state.escalations(), 1, "conflicting evidence must escalate");
    let reference = uni.clean(&concat(&schema, &[&base.to_tuples(), &batch]), Phase::Full);
    assert_matches(&uni, &reference, &state, "hazard batch");
}

/// Self-snapshot sessions keep working through clean_delta (every call is
/// a documented escalation — nothing prepared can be pinned when the
/// master view is the evolving data itself).
#[test]
fn self_snapshot_deltas_escalate_but_stay_correct() {
    let tran = Schema::of_strings("tran", &["LN", "city", "AC", "phn"]);
    let selfm = Schema::of_strings("tranm", &["LN", "city", "AC", "phn"]);
    let text = "cfd phi2: tran([AC=020] -> [city=Ldn])\n\
                md psi: tran[LN] = tranm[LN] AND tran[city] = tranm[city] -> tran[phn] <=> tranm[phn]";
    let parsed = parse_rules(text, &tran, Some(&selfm)).unwrap();
    let rules = RuleSet::new(
        tran.clone(),
        Some(selfm),
        parsed.cfds,
        parsed.positive_mds,
        vec![],
    );
    let uni = Cleaner::builder()
        .rules(rules)
        .master(MasterSource::SelfSnapshot)
        .config(CleanConfig {
            eta: 0.8,
            ..CleanConfig::default()
        })
        .build()
        .unwrap();
    let phn = tran.attr_id_or_panic("phn");
    let city = tran.attr_id_or_panic("city");
    let mut a = Tuple::of_strs(&["Brady", "Edi", "020", "3887644"], 1.0);
    a.set(city, Value::str("Edi"), 0.0, FixMark::Untouched);
    let base = Relation::new(tran.clone(), vec![a]);
    let (mut state, _) = uni.begin(&base, Phase::Full);

    let mut b = Tuple::of_strs(&["Brady", "Ldn", "020", "0000000"], 1.0);
    b.set(phn, Value::str("0000000"), 0.0, FixMark::Untouched);
    let batch = vec![b];
    uni.clean_delta(&mut state, &batch).unwrap();
    assert_eq!(state.escalations(), 1, "self-snapshot always recleans");
    let reference = uni.clean(&concat(&tran, &[&base.to_tuples(), &batch]), Phase::Full);
    assert_matches(&uni, &reference, &state, "self-snapshot delta");
}

/// Misuse surfaces as typed errors, not panics.
#[test]
fn delta_misuse_is_typed() {
    let (schema, rules, master) = scenario_rules();
    let uni = cleaner(&rules, &master, 1);
    let other = cleaner(&rules, &master, 1);
    let base = Relation::new(schema.clone(), vec![decode(&(0, 0, 0, 26), &schema)]);
    let (mut state, _) = uni.begin(&base, Phase::Full);

    // State handed to a different cleaner.
    let err = other.clean_delta(&mut state, &[]).unwrap_err();
    assert_eq!(err, CleanError::ForeignState);

    // Batch tuple of the wrong arity.
    let err = uni
        .clean_delta(&mut state, &[Tuple::of_strs(&["k0", "a0"], 0.0)])
        .unwrap_err();
    assert!(matches!(
        err,
        CleanError::BatchArityMismatch {
            expected: 3,
            found: 2
        }
    ));

    // Batch cell with an out-of-range confidence: a typed model error in
    // release builds too (`Cell::new` only debug-asserts the range, so the
    // bad cell is assembled field-by-field here).
    let bad = Tuple::new(
        ["k0", "a0", "b0"]
            .iter()
            .map(|v| uniclean::model::Cell {
                value: Value::str(v),
                cf: 1.5,
                mark: FixMark::Untouched,
            })
            .collect(),
    );
    let err = uni.clean_delta(&mut state, &[bad]).unwrap_err();
    assert!(matches!(
        err,
        CleanError::Model(uniclean::model::ModelError::ConfidenceOutOfRange { .. })
    ));
    assert_eq!(state.len(), 1, "rejected batch must not grow the state");

    // An empty batch is a no-op that still reports a consistent result.
    let r = uni.clean_delta(&mut state, &[]).unwrap();
    assert_eq!(r.repaired.len(), 1);
    let reference = uni.clean(&base, Phase::Full);
    assert_matches(&uni, &reference, &state, "empty batch");
}

/// The log keeps earlier calls' `cRepair` fixes and replaces their
/// re-derived `eRepair` fixes with the latest call's; the state counts its
/// delta calls.
#[test]
fn state_bookkeeping_tracks_calls() {
    let (schema, rules, master) = scenario_rules();
    let uni = cleaner(&rules, &master, 1);
    let base = Relation::new(schema.clone(), vec![decode(&(0, 1, 2, 26), &schema)]);
    let (mut state, first) = uni.begin(&base, Phase::CERepair);
    assert_eq!(state.log().records(), first.report.records());

    let batch = vec![decode(&(1, 0, 0, 26), &schema)];
    let r = uni.clean_delta(&mut state, &batch).unwrap();
    assert_eq!((state.deltas(), state.escalations()), (1, 0));
    let begin_c = &first.report.records()[..first.phases[0].fixes];
    assert_eq!(
        state.log().records(),
        [begin_c, r.report.records()].concat()
    );
    assert_eq!(state.phase(), Phase::CERepair);
    assert_eq!(state.len(), 2);
}

/// One full-clean path: `clean`, `begin` and `begin_empty` + one
/// `clean_delta` of everything return the same **whole** `CleanResult` —
/// repair, report order, cost, verdict, phases — under every master
/// source and every phase prefix.
#[test]
fn clean_begin_and_streamed_begin_return_the_same_result() {
    let (r, md_rules, master) = scenario_rules();
    let r_rows: Vec<Tuple> = [
        (0, 0, 0, 26),
        (0, 1, 2, 13),
        (1, 2, 3, 0),
        (2, 0, 1, 7),
        (0, 0, 2, 22),
        (1, 1, 1, 4),
    ]
    .iter()
    .map(|row| decode(row, &r))
    .collect();
    let config = |threads: usize| CleanConfig {
        eta: 0.8,
        delta_entropy: 0.9,
        parallelism: NonZeroUsize::new(threads),
        ..CleanConfig::default()
    };

    // CFD-only rules over the same schema and rows.
    let parsed = parse_rules(
        "cfd fd: r([K] -> [A])\ncfd cc: r([A=a1] -> [B=b1])",
        &r,
        None,
    )
    .unwrap();
    let cfd_rules = RuleSet::cfds_only(r.clone(), parsed.cfds);

    // Duplicates inside D matched against per-phase snapshots of D.
    let tran = Schema::of_strings("tran", &["LN", "city", "AC", "phn"]);
    let selfm = Schema::of_strings("tranm", &["LN", "city", "AC", "phn"]);
    let text = "cfd phi2: tran([AC=020] -> [city=Ldn])\n\
                md psi: tran[LN] = tranm[LN] AND tran[city] = tranm[city] -> tran[phn] <=> tranm[phn]";
    let parsed = parse_rules(text, &tran, Some(&selfm)).unwrap();
    let self_rules = RuleSet::new(
        tran.clone(),
        Some(selfm),
        parsed.cfds,
        parsed.positive_mds,
        vec![],
    );
    let mut a = Tuple::of_strs(&["Brady", "Edi", "020", "3887644"], 1.0);
    a.set(
        tran.attr_id_or_panic("city"),
        Value::str("Edi"),
        0.0,
        FixMark::Untouched,
    );
    let mut b = Tuple::of_strs(&["Brady", "Ldn", "020", "0000000"], 1.0);
    b.set(
        tran.attr_id_or_panic("phn"),
        Value::str("0000000"),
        0.0,
        FixMark::Untouched,
    );
    let tran_rows = vec![a, b, Tuple::of_strs(&["Smith", "Edi", "131", "111"], 0.5)];

    let cases = [
        (
            "External",
            &r,
            &r_rows,
            md_rules,
            MasterSource::external(master),
        ),
        ("None", &r, &r_rows, cfd_rules, MasterSource::None),
        (
            "SelfSnapshot",
            &tran,
            &tran_rows,
            self_rules,
            MasterSource::SelfSnapshot,
        ),
    ];
    for (name, schema, rows, rules, source) in cases {
        for threads in [1usize, 4] {
            let uni = Cleaner::builder()
                .rules(rules.clone())
                .master(source.clone())
                .config(config(threads))
                .build()
                .unwrap();
            for phase in [Phase::CRepair, Phase::CERepair, Phase::Full] {
                let label = format!("{name} threads={threads} phase={phase:?}");
                let d = Relation::new(schema.clone(), rows.clone());
                let reference = uni.clean(&d, phase);

                let (state, begun) = uni.begin(&d, phase);
                assert_identical(&reference, &begun, &format!("{label} [begin]"));
                assert_matches(&uni, &reference, &state, &format!("{label} [begin state]"));

                let mut streamed = uni.begin_empty(phase);
                let delta = uni.clean_delta(&mut streamed, rows).unwrap();
                assert_identical(&reference, &delta, &format!("{label} [streamed]"));
                assert_matches(
                    &uni,
                    &reference,
                    &streamed,
                    &format!("{label} [streamed state]"),
                );
            }
        }
    }
}

/// `begin_empty` + one `clean_delta` of the whole relation is
/// bit-identical to `begin` of that relation directly — the contract the
/// serving daemon's cold-start path (open, then stream everything in)
/// rests on.
#[test]
fn begin_empty_then_delta_equals_begin() {
    let (schema, rules, master) = scenario_rules();
    let rows: Vec<Tuple> = [
        (0, 0, 0, 26),
        (0, 1, 2, 13),
        (1, 2, 3, 0),
        (2, 0, 1, 7),
        (0, 0, 2, 22),
    ]
    .iter()
    .map(|r| decode(r, &schema))
    .collect();
    for phase in [Phase::CERepair, Phase::Full] {
        for threads in [1usize, 4] {
            let label = format!("phase={phase:?} threads={threads}");
            let uni = cleaner(&rules, &master, threads);

            let mut streamed = uni.begin_empty(phase);
            assert_eq!(streamed.len(), 0, "{label}: empty start");
            assert!(streamed.consistent(), "{label}: empty is consistent");
            uni.clean_delta(&mut streamed, &rows).unwrap();

            let (direct, reference) =
                uni.begin(&Relation::new(schema.clone(), rows.clone()), phase);
            assert_matches(&uni, &reference, &streamed, &format!("{label} [vs begin]"));
            assert_eq!(
                direct.cost().to_bits(),
                streamed.cost().to_bits(),
                "{label}: state cost"
            );

            // Batch-at-a-time streaming lands on the same fixpoint too.
            let mut chunked = uni.begin_empty(phase);
            for chunk in rows.chunks(2) {
                uni.clean_delta(&mut chunked, chunk).unwrap();
            }
            assert_matches(&uni, &reference, &chunked, &format!("{label} [chunked]"));
        }
    }
}

/// `begin` + 7-tuple `clean_delta`s equal a from-scratch `clean` after
/// every call when the round cap stops `hRepair` early: the witness cache
/// a state keeps must reflect every round's rewrites, the last one's
/// included.
#[test]
fn capped_hrepair_rounds_keep_deltas_equal_to_reclean() {
    let w = hosp_workload(&GenParams {
        tuples: 300,
        master_tuples: 100,
        ..GenParams::default()
    });
    let schema = w.dirty.schema().clone();
    let rows = w.dirty.to_tuples();
    let prefix = |n: usize| Relation::new(schema.clone(), rows[..n].to_vec());
    let session = |rounds: usize, threads: usize| {
        Cleaner::builder()
            .rules(w.rules.clone())
            .master(MasterSource::external(w.master.clone()))
            .config(CleanConfig {
                max_hrepair_rounds: rounds,
                parallelism: NonZeroUsize::new(threads),
                ..CleanConfig::default()
            })
            .build()
            .unwrap()
    };
    let uncapped =
        session(CleanConfig::default().max_hrepair_rounds, 1).clean(&w.dirty, Phase::Full);
    for rounds in [1, 2] {
        let capped = session(rounds, 1).clean(&w.dirty, Phase::Full);
        assert!(
            capped.repaired.diff_cells(&uncapped.repaired) > 0,
            "rounds={rounds}: the cap must bind on this input"
        );
        for threads in [1usize, 4] {
            let uni = session(rounds, threads);
            let (mut state, _) = uni.begin(&prefix(240), Phase::Full);
            let mut absorbed = 240;
            for batch in rows[240..].chunks(7) {
                uni.clean_delta(&mut state, batch).unwrap();
                absorbed += batch.len();
                let reference = uni.clean(&prefix(absorbed), Phase::Full);
                let label = format!("rounds={rounds} threads={threads} tuples={absorbed}");
                assert_matches(&uni, &reference, &state, &label);
            }
            assert_eq!(state.escalations(), 0, "rounds={rounds} threads={threads}");
        }
    }
}

/// A batch whose deterministic cascade rewrites a settled tuple's MD
/// premise changes the state later calls restart from: the witness list
/// cached for the old premise must not come back in the call after.
#[test]
fn a_cascade_into_a_settled_md_premise_rebases_the_witness_cache() {
    let r = Schema::of_strings("r", &["K", "A", "C", "B"]);
    let rm = Schema::of_strings("rm", &["K", "C", "B"]);
    let text = "cfd fd: r([A] -> [K])\n\
                md m: r[K] = rm[K] AND r[C] = rm[C] -> r[B] <=> rm[B]";
    let parsed = parse_rules(text, &r, Some(&rm)).unwrap();
    let rules = RuleSet::new(
        r.clone(),
        Some(rm.clone()),
        parsed.cfds,
        parsed.positive_mds,
        vec![],
    );
    let master = Relation::new(
        rm,
        vec![
            Tuple::of_strs(&["k1", "c", "b1"], 1.0),
            Tuple::of_strs(&["k2", "c", "b2"], 1.0),
        ],
    );
    // `cf` lists the confidence of K, A, C, B.
    let row = |vals: [&str; 4], cf: [f64; 4]| {
        let mut t = Tuple::of_strs(&vals, 0.0);
        for (attr, c) in r.attr_ids().zip(cf) {
            let v = t.value(attr).clone();
            t.set(attr, v, c, FixMark::Untouched);
        }
        t
    };
    // The settled tuple matches master row k1 through its unasserted K; the
    // first batch asserts K = k2 for the same A, so cRepair moves it to k2.
    let settled = row(["k1", "a0", "c", "b0"], [0.0, 1.0, 0.0, 0.0]);
    let witness = row(["k2", "a0", "c", "b2"], [1.0, 1.0, 0.0, 0.0]);
    let unrelated = row(["k9", "a9", "c", "b9"], [0.0, 0.0, 0.0, 0.0]);
    for threads in [1usize, 4] {
        let uni = cleaner(&rules, &master, threads);
        let base = Relation::new(r.clone(), vec![settled.clone()]);
        let (mut state, _) = uni.begin(&base, Phase::Full);
        let mut absorbed = vec![settled.clone()];
        for batch in [vec![witness.clone()], vec![unrelated.clone()]] {
            uni.clean_delta(&mut state, &batch).unwrap();
            absorbed.extend(batch);
            let reference = uni.clean(&concat(&r, &[&absorbed]), Phase::Full);
            let label = format!("threads={threads} tuples={}", absorbed.len());
            assert_matches(&uni, &reference, &state, &label);
        }
        assert_eq!(state.escalations(), 0, "threads={threads}");
        let b = r.attr_id_or_panic("B");
        assert_eq!(
            state.repaired().tuple(uniclean::model::TupleId(0)).value(b),
            &Value::str("b2")
        );
    }
}
