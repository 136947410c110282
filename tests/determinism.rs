//! Determinism suite: the value interner must round-trip without
//! collisions — every symbol-keyed cache and the columnar store rest on it.
//!
//! Kernel dispatch needs no engine-level pin: each kernel is chosen from
//! the detected CPU and the input shape only, and the similarity crate's
//! unit tests pin every tier bit-for-bit against its scalar oracle.

use proptest::prelude::*;
use uniclean::model::{Value, ValueInterner};

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
