//! Value interning: dense `u32` symbols for [`Value`]s.
//!
//! The cleaning hot paths key hash tables by values and by *tuples of*
//! values — `TwoInOne` group keys are `π_Y(t)` projections, the master
//! index's exact access path maps a master column to row lists. Hashing a
//! `Value` walks string content and equality compares it again; a key of
//! several values multiplies that cost per probe. A [`ValueInterner`] maps
//! every distinct value to a dense [`Symbol`] once, after which keys are
//! small integers with trivial hashing and `==`.
//!
//! Interning never changes results: two values receive the same symbol iff
//! they are `==`, and a probe value absent from the interner cannot equal
//! any interned key (`get` returning `None` is exactly a hash-map miss).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::relation::Relation;
use crate::value::Value;

/// A fast multiply-rotate hasher (fxhash-style) for hash tables keyed by
/// [`Symbol`]s or other dense internal ids. Symbols are interner-issued —
/// never attacker-controlled — so HashDoS resistance buys nothing and
/// SipHash's per-byte cost is pure overhead on the hot paths.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher(u64);

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A `HashMap` using [`FxHasher`] — for symbol-keyed hot-path tables.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A dense identifier for an interned [`Value`]. Symbols are only
/// meaningful relative to the [`ValueInterner`] that issued them; they
/// carry no value ordering (compare resolved values for that).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The dense index backing this symbol.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only map `Value` ↔ [`Symbol`].
///
/// ```
/// use uniclean_model::{Value, ValueInterner};
/// let mut interner = ValueInterner::new();
/// let a = interner.intern(&Value::str("Edi"));
/// let b = interner.intern(&Value::str("Edi"));
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a), &Value::str("Edi"));
/// assert_eq!(interner.get(&Value::str("Ldn")), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ValueInterner {
    map: HashMap<Value, Symbol>,
    values: Vec<Value>,
}

impl ValueInterner {
    /// An empty interner.
    pub fn new() -> Self {
        ValueInterner::default()
    }

    /// An interner pre-populated with every cell value of `r`, in row-major
    /// first-encounter order — the "at relation load" entry point. (The
    /// relation already owns an interner; this builds an independent one,
    /// e.g. to seed another store.)
    pub fn from_relation(r: &Relation) -> Self {
        let mut me = ValueInterner::new();
        for t in r.rows() {
            for a in 0..t.arity() {
                me.intern(t.value(crate::AttrId::from(a)));
            }
        }
        me
    }

    /// The symbol for `v`, interning it if unseen.
    pub fn intern(&mut self, v: &Value) -> Symbol {
        if let Some(&s) = self.map.get(v) {
            return s;
        }
        let s =
            Symbol(u32::try_from(self.values.len()).expect("more than u32::MAX distinct values"));
        self.values.push(v.clone());
        self.map.insert(v.clone(), s);
        s
    }

    /// The symbol for `v` if it has been interned.
    #[inline]
    pub fn get(&self, v: &Value) -> Option<Symbol> {
        self.map.get(v).copied()
    }

    /// The value behind `s`.
    ///
    /// # Panics
    /// Panics if `s` was issued by a different interner (index out of
    /// range).
    #[inline]
    pub fn resolve(&self, s: Symbol) -> &Value {
        &self.values[s.index()]
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Is the interner empty?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All interned values in symbol order (`values()[s.index()]` is the
    /// value behind symbol `s`).
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple::Tuple;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut i = ValueInterner::new();
        let a = i.intern(&Value::str("x"));
        let b = i.intern(&Value::str("y"));
        let a2 = i.intern(&Value::str("x"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!((a.index(), b.index()), (0, 1));
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = ValueInterner::new();
        for v in [
            Value::str("Edi"),
            Value::int(42),
            Value::Null,
            Value::str(""),
        ] {
            let s = i.intern(&v);
            assert_eq!(i.resolve(s), &v);
        }
        assert_eq!(i.len(), 4);
    }

    #[test]
    fn get_misses_unseen_values() {
        let mut i = ValueInterner::new();
        i.intern(&Value::str("present"));
        assert_eq!(i.get(&Value::str("absent")), None);
        assert!(i.get(&Value::str("present")).is_some());
    }

    #[test]
    fn variants_do_not_collide() {
        // `Int(1)` and `Str("1")` are distinct values and must stay so.
        let mut i = ValueInterner::new();
        let a = i.intern(&Value::int(1));
        let b = i.intern(&Value::str("1"));
        assert_ne!(a, b);
    }

    #[test]
    fn fx_hasher_distinguishes_symbol_sequences() {
        use std::hash::{Hash, Hasher};
        let h = |syms: &[Symbol]| {
            let mut hasher = FxHasher::default();
            syms.hash(&mut hasher);
            hasher.finish()
        };
        let a = h(&[Symbol(1), Symbol(2)]);
        let b = h(&[Symbol(2), Symbol(1)]);
        let c = h(&[Symbol(1), Symbol(2)]);
        assert_eq!(a, c);
        assert_ne!(a, b, "order must matter");
    }

    #[test]
    fn from_relation_covers_every_cell() {
        let s = Schema::of_strings("r", &["A", "B"]);
        let r = crate::relation::Relation::new(
            s,
            vec![
                Tuple::of_strs(&["x", "y"], 0.5),
                Tuple::of_strs(&["y", "z"], 0.5),
            ],
        );
        let i = ValueInterner::from_relation(&r);
        assert_eq!(i.len(), 3, "x, y, z");
        for v in ["x", "y", "z"] {
            assert!(i.get(&Value::str(v)).is_some());
        }
    }
}
