//! Determinism suite: the similarity kernels' SIMD dispatch must not change
//! a `CleanResult` — same repaired cells (values, confidences, marks), same
//! fix records in the same order, same cost and acceptance verdict — and
//! the value interner must round-trip without collisions.

mod common;
use common::assert_identical;

use proptest::prelude::*;
use uniclean::core::{Cleaner, MasterSource, Phase};
use uniclean::datagen::GenParams;
use uniclean::model::{Value, ValueInterner};

/// The SIMD dispatch (q-gram hash lanes, bitset Jaro, columnar `~lev`
/// driver) must be a pure performance knob: on a workload exercising every
/// similarity predicate family, a full clean is bit-identical
/// forced-scalar vs auto-dispatched. This is the same contract
/// `UNICLEAN_FORCE_SCALAR=1` relies on (the CI feature matrix re-runs the
/// suites under it); here the override is flipped programmatically so one
/// process pins both engines against each other.
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
    let cleaner = Cleaner::builder()
        .rules(w.rules.clone())
        .master(MasterSource::external(w.master.clone()))
        .build()
        .expect("valid session");
    let clean = |forced| {
        set_forced_scalar(Some(forced));
        let r = cleaner.clean(&w.dirty, Phase::Full);
        set_forced_scalar(None);
        r
    };
    let (auto, scalar) = (clean(false), clean(true));
    assert!(
        !auto.report.is_empty(),
        "workload must actually exercise the kernels"
    );
    assert_identical(&auto, &scalar, "dblp similarity: scalar vs auto");
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
