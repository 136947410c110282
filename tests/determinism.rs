//! Determinism suite for the parallel phase internals: every
//! `parallelism` setting must produce a
//! `CleanResult` bit-identical to the single-threaded path — same repaired
//! cells (values, confidences, marks), same fix records in the same order,
//! same cost and acceptance verdict. This is the contract the
//! chunk–merge–apply design (`uniclean::core::parallel`) promises.

mod common;
use common::assert_identical;

use std::num::NonZeroUsize;

use proptest::prelude::*;
use uniclean::core::{CleanConfig, CleanResult, Cleaner, MasterSource, Phase};
use uniclean::datagen::{hosp_workload, GenParams};
use uniclean::model::{Value, ValueInterner};

fn run(
    rules: &uniclean::rules::RuleSet,
    master: MasterSource,
    d: &uniclean::model::Relation,
    eta: f64,
    threads: usize,
    phase: Phase,
) -> CleanResult {
    let cfg = CleanConfig {
        eta,
        parallelism: Some(NonZeroUsize::new(threads).unwrap()),
        ..CleanConfig::default()
    };
    Cleaner::builder()
        .rules(rules.clone())
        .master(master)
        .config(cfg)
        .build()
        .expect("valid session")
        .clean(d, phase)
}

#[test]
fn example_1_1_is_thread_count_invariant() {
    let (_, rules, dirty, master) = common::example_1_1();
    let baseline = run(
        &rules,
        MasterSource::external(master.clone()),
        &dirty,
        0.8,
        1,
        Phase::Full,
    );
    assert!(baseline.consistent);
    assert!(!baseline.report.is_empty());
    for threads in [2, 4, 8] {
        let other = run(
            &rules,
            MasterSource::external(master.clone()),
            &dirty,
            0.8,
            threads,
            Phase::Full,
        );
        assert_identical(
            &baseline,
            &other,
            &format!("example 1.1, threads={threads}"),
        );
    }
}

#[test]
fn example_1_1_self_snapshot_is_thread_count_invariant() {
    let (_, rules, dirty, _) = common::example_1_1();
    let baseline = run(
        &rules,
        MasterSource::SelfSnapshot,
        &dirty,
        0.8,
        1,
        Phase::Full,
    );
    let parallel = run(
        &rules,
        MasterSource::SelfSnapshot,
        &dirty,
        0.8,
        4,
        Phase::Full,
    );
    assert_identical(&baseline, &parallel, "example 1.1 self-snapshot");
}

#[test]
fn generated_hosp_1k_is_thread_count_invariant() {
    let w = hosp_workload(&GenParams {
        tuples: 1000,
        master_tuples: 300,
        ..GenParams::default()
    });
    // η = 1.0, the paper's experimental setting: deterministic fixes fire
    // from fully asserted premises, eRepair resolves the rest.
    let baseline = run(
        &w.rules,
        MasterSource::external(w.master.clone()),
        &w.dirty,
        1.0,
        1,
        Phase::CERepair,
    );
    assert!(
        !baseline.report.is_empty(),
        "workload must exercise both phases"
    );
    for threads in [2, 4] {
        let other = run(
            &w.rules,
            MasterSource::external(w.master.clone()),
            &w.dirty,
            1.0,
            threads,
            Phase::CERepair,
        );
        assert_identical(&baseline, &other, &format!("hosp 1k, threads={threads}"));
    }
}

#[test]
fn full_pipeline_on_hosp_is_thread_count_invariant() {
    // Smaller instance so hRepair's equivalence-class machinery stays fast,
    // but all three phases run.
    let w = hosp_workload(&GenParams {
        tuples: 300,
        master_tuples: 100,
        ..GenParams::default()
    });
    let baseline = run(
        &w.rules,
        MasterSource::external(w.master.clone()),
        &w.dirty,
        1.0,
        1,
        Phase::Full,
    );
    let parallel = run(
        &w.rules,
        MasterSource::external(w.master.clone()),
        &w.dirty,
        1.0,
        8,
        Phase::Full,
    );
    assert_identical(&baseline, &parallel, "hosp 300 full pipeline");
}

/// The SIMD dispatch (q-gram hash lanes, bitset Jaro, columnar `~lev`
/// driver) must be a pure performance knob, and the similarity kernels
/// must not break the thread-count contract: on a workload exercising
/// every similarity predicate family, a full clean is bit-identical
/// forced-scalar vs auto-dispatched at every thread count, and every one
/// of those runs is bit-identical to the one-thread run. This is the same
/// contract `UNICLEAN_FORCE_SCALAR=1` relies on (the CI feature matrix
/// re-runs the suites under it); here the override is flipped
/// programmatically so one process pins both engines against each other.
///
/// The override is process-global, which is safe precisely because of the
/// property under test: any concurrently running test sees either engine,
/// and both produce the same bits.
#[test]
fn forced_scalar_dispatch_is_bit_identical() {
    use uniclean::datagen::dblp_similarity_workload;
    use uniclean::similarity::simd::set_forced_scalar;

    let w = dblp_similarity_workload(&GenParams {
        tuples: 300,
        master_tuples: 120,
        ..GenParams::default()
    });
    let mut baseline: Option<CleanResult> = None;
    for threads in [1, 4] {
        let clean = |forced| {
            set_forced_scalar(Some(forced));
            let r = run(
                &w.rules,
                MasterSource::external(w.master.clone()),
                &w.dirty,
                1.0,
                threads,
                Phase::Full,
            );
            set_forced_scalar(None);
            r
        };
        let (auto, scalar) = (clean(false), clean(true));
        let config = format!("dblp similarity, threads={threads}");
        assert!(
            !auto.report.is_empty(),
            "workload must actually exercise the kernels"
        );
        assert_identical(&auto, &scalar, &format!("{config}: scalar vs auto"));
        match &baseline {
            Some(base) => assert_identical(base, &auto, &format!("{config} vs threads=1")),
            None => baseline = Some(auto),
        }
    }
}

// ---------------------------------------------------------------------------
// Interner properties (vendored proptest shim).
// ---------------------------------------------------------------------------

/// Build a `Value` from a generated discriminant + payload.
fn value_of(kind: u8, n: i64, s: &str) -> Value {
    match kind % 3 {
        0 => Value::Null,
        1 => Value::int(n),
        _ => Value::str(s),
    }
}

proptest! {
    /// Round-trip: every interned value resolves back to itself, and
    /// re-interning returns the same symbol.
    #[test]
    fn interner_round_trips(
        items in proptest::collection::vec((0u8..3, -50i64..50, "[a-d]{0,6}"), 1..60)
    ) {
        let mut interner = ValueInterner::new();
        let symbols: Vec<_> = items
            .iter()
            .map(|(k, n, s)| interner.intern(&value_of(*k, *n, s)))
            .collect();
        for ((k, n, s), sym) in items.iter().zip(&symbols) {
            let v = value_of(*k, *n, s);
            prop_assert_eq!(interner.resolve(*sym), &v);
            prop_assert_eq!(interner.intern(&v), *sym);
            prop_assert_eq!(interner.get(&v), Some(*sym));
        }
    }

    /// No collisions: distinct values get distinct symbols, equal values
    /// share one, and the symbol space stays dense.
    #[test]
    fn interner_is_collision_free(
        items in proptest::collection::vec((0u8..3, -10i64..10, "[ab]{0,3}"), 1..80)
    ) {
        let mut interner = ValueInterner::new();
        let mut by_value: std::collections::HashMap<Value, _> = std::collections::HashMap::new();
        for (k, n, s) in &items {
            let v = value_of(*k, *n, s);
            let sym = interner.intern(&v);
            if let Some(prev) = by_value.insert(v.clone(), sym) {
                prop_assert_eq!(prev, sym, "equal values must share a symbol");
            }
        }
        // Distinctness + density: as many symbols as distinct values, with
        // indexes 0..len.
        prop_assert_eq!(interner.len(), by_value.len());
        let mut idxs: Vec<usize> = by_value.values().map(|s| s.index()).collect();
        idxs.sort_unstable();
        prop_assert_eq!(idxs, (0..by_value.len()).collect::<Vec<_>>());
    }
}
