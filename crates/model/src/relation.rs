//! Relations: instances of a schema, stored columnar.
//!
//! A [`Relation`] is a thin schema wrapper over a [`ColumnStore`]: one
//! interned symbol column per attribute plus parallel confidence and mark
//! columns (see [`crate::store`] for the layout rationale). Row access goes
//! through the [`TupleRef`]/[`TupleMut`] views; [`Tuple`] remains the owned
//! row *literal* used to feed rows in (construction, CSV ingest, session
//! batches) and to carry rows across relations.

use std::sync::Arc;

use crate::error::ModelError;
use crate::intern::{Symbol, ValueInterner};
use crate::pos::{AttrId, TupleId};
use crate::schema::Schema;
use crate::store::{ColumnStore, TupleMut, TupleRef};
use crate::tuple::{FixMark, Tuple};
use crate::value::Value;

/// An instance `D` of a schema `R`: an ordered bag of tuples.
///
/// Order is meaningful only as identity — `TupleId(i)` names the `i`-th
/// tuple — and is stable under cleaning, which never inserts or removes
/// tuples.
#[derive(Clone, Debug)]
pub struct Relation {
    schema: Arc<Schema>,
    store: ColumnStore,
}

impl Relation {
    /// An empty instance of `schema`.
    pub fn empty(schema: Arc<Schema>) -> Self {
        let store = ColumnStore::new(schema.arity());
        Relation { schema, store }
    }

    /// Build an instance from row literals.
    ///
    /// # Panics
    /// Panics if any tuple's arity does not match the schema — see
    /// [`Relation::try_new`] for the typed variant.
    pub fn new(schema: Arc<Schema>, tuples: Vec<Tuple>) -> Self {
        Relation::try_new(schema, tuples).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build an instance from row literals, reporting arity mismatches as
    /// typed [`ModelError`]s instead of panicking.
    pub fn try_new(schema: Arc<Schema>, tuples: Vec<Tuple>) -> Result<Self, ModelError> {
        let mut rel = Relation::empty(schema);
        for (i, t) in tuples.into_iter().enumerate() {
            if t.arity() != rel.schema.arity() {
                return Err(ModelError::ArityMismatch {
                    row: i,
                    expected: rel.schema.arity(),
                    found: t.arity(),
                });
            }
            rel.store.push_tuple(t);
        }
        Ok(rel)
    }

    /// Re-label `like`'s data under another schema of the same arity —
    /// the self-snapshot path ("render the data into the MDs' master
    /// schema") — sharing the columnar store by clone, without
    /// materializing a single row tuple.
    ///
    /// # Panics
    /// Panics if the arities differ.
    pub fn with_schema(schema: Arc<Schema>, like: &Relation) -> Self {
        assert_eq!(
            schema.arity(),
            like.schema.arity(),
            "with_schema requires equal arity"
        );
        Relation {
            schema,
            store: like.store.clone(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The columnar store backing this relation.
    pub fn store(&self) -> &ColumnStore {
        &self.store
    }

    /// Number of tuples, `|D|`.
    pub fn len(&self) -> usize {
        self.store.rows()
    }

    /// Is the instance empty?
    pub fn is_empty(&self) -> bool {
        self.store.rows() == 0
    }

    /// Append a row literal, returning its id.
    ///
    /// # Panics
    /// Panics on arity mismatch — see [`Relation::try_push`].
    pub fn push(&mut self, t: Tuple) -> TupleId {
        self.try_push(t)
            .unwrap_or_else(|e| panic!("tuple arity mismatch: {e}"))
    }

    /// Append a row literal, reporting arity mismatches as typed errors.
    pub fn try_push(&mut self, t: Tuple) -> Result<TupleId, ModelError> {
        if t.arity() != self.schema.arity() {
            return Err(ModelError::ArityMismatch {
                row: self.len(),
                expected: self.schema.arity(),
                found: t.arity(),
            });
        }
        let id = TupleId::from(self.len());
        self.store.push_tuple(t);
        Ok(id)
    }

    /// Append a row of values with uniform confidence straight into the
    /// columns — the ingest path (CSV, generators) that never materializes
    /// a [`Tuple`]. Validates arity and confidence.
    pub fn try_push_row(
        &mut self,
        values: impl IntoIterator<Item = Value>,
        cf: f64,
    ) -> Result<TupleId, ModelError> {
        let id = TupleId::from(self.len());
        self.store.try_push_row(values, cf)?;
        Ok(id)
    }

    /// Immutable row view by id.
    #[inline]
    pub fn tuple(&self, id: TupleId) -> TupleRef<'_> {
        debug_assert!(id.index() < self.len());
        TupleRef {
            store: &self.store,
            row: id.index(),
        }
    }

    /// Mutable row view by id.
    #[inline]
    pub fn tuple_mut(&mut self, id: TupleId) -> TupleMut<'_> {
        debug_assert!(id.index() < self.len());
        TupleMut {
            store: &mut self.store,
            row: id.index(),
        }
    }

    /// Overwrite one cell, recording confidence and fix mark (shorthand
    /// for `tuple_mut(t).set(..)`).
    #[inline]
    pub fn set(&mut self, t: TupleId, a: AttrId, value: Value, cf: f64, mark: FixMark) {
        self.store.set(t.index(), a, value, cf, mark);
    }

    /// All row views in id order.
    pub fn rows(&self) -> impl Iterator<Item = TupleRef<'_>> {
        (0..self.len()).map(move |row| TupleRef {
            store: &self.store,
            row,
        })
    }

    /// Materialize every row as an owned [`Tuple`] (id order) — the
    /// escape hatch for callers that need rows detached from the store.
    pub fn to_tuples(&self) -> Vec<Tuple> {
        (0..self.len()).map(|r| self.store.row_tuple(r)).collect()
    }

    /// Iterate `(id, row view)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, TupleRef<'_>)> {
        self.rows().enumerate().map(|(i, t)| (TupleId::from(i), t))
    }

    /// All tuple ids.
    pub fn ids(&self) -> impl Iterator<Item = TupleId> {
        (0..self.len()).map(TupleId::from)
    }

    // -----------------------------------------------------------------
    // Symbol-native surface.
    // -----------------------------------------------------------------

    /// The relation-owned interner. Append-only: a symbol, once issued,
    /// always resolves to the same value, including across clones and
    /// incremental extension.
    #[inline]
    pub fn interner(&self) -> &ValueInterner {
        self.store.interner()
    }

    /// The symbol of [`Value::Null`] in this relation's interner.
    #[inline]
    pub fn null_sym(&self) -> Symbol {
        self.store.null_sym()
    }

    /// The interned symbol at `(t, a)`.
    #[inline]
    pub fn sym(&self, t: TupleId, a: AttrId) -> Symbol {
        self.store.sym_at(t.index(), a)
    }

    /// The confidence at `(t, a)` (column read, no view construction).
    #[inline]
    pub fn cf(&self, t: TupleId, a: AttrId) -> f64 {
        self.store.cf_at(t.index(), a)
    }

    /// Intern `v` without storing it — gives rule constants a stable
    /// symbol so pattern matching can compare symbols. A no-op when `v`
    /// was already interned.
    #[inline]
    pub fn ensure_interned(&mut self, v: &Value) -> Symbol {
        self.store.ensure_interned(v)
    }

    /// The symbol column of attribute `a` (for columnar scans).
    #[inline]
    pub fn col_syms(&self, a: AttrId) -> &[Symbol] {
        self.store.col_syms(a)
    }

    /// The confidence column of attribute `a`.
    #[inline]
    pub fn col_cf(&self, a: AttrId) -> &[f64] {
        self.store.col_cf(a)
    }

    /// The mark column of attribute `a`.
    #[inline]
    pub fn col_marks(&self, a: AttrId) -> &[FixMark] {
        self.store.col_marks(a)
    }

    // -----------------------------------------------------------------
    // Whole-relation operations.
    // -----------------------------------------------------------------

    /// The active domain `adom(A)` of attribute `A`: the set of distinct
    /// values appearing in column `A`, sorted. Nulls are excluded — they
    /// denote absence, not a domain element. Distinctness is computed on
    /// symbols (exact), then resolved and sorted.
    pub fn active_domain(&self, a: AttrId) -> Vec<Value> {
        let mut seen: Vec<Symbol> = self.store.col_syms(a).to_vec();
        seen.sort_unstable();
        seen.dedup();
        let null = self.null_sym();
        let mut vals: Vec<Value> = seen
            .into_iter()
            .filter(|&s| s != null)
            .map(|s| self.interner().resolve(s).clone())
            .collect();
        vals.sort();
        vals
    }

    /// Project the whole relation onto `attrs` (the paper's `π_attrs(D)`),
    /// preserving duplicates and order.
    pub fn project(&self, attrs: &[AttrId]) -> Vec<Vec<Value>> {
        self.rows().map(|t| t.project(attrs)).collect()
    }

    /// Count cells (tuples × attributes); the `k` of §7's termination bound.
    pub fn cell_count(&self) -> usize {
        self.len() * self.schema.arity()
    }

    /// Total number of cells whose value differs from `other` (strict
    /// equality, position-wise). A convenience for tests and metrics;
    /// requires equal schemas and lengths.
    pub fn diff_cells(&self, other: &Relation) -> usize {
        assert_eq!(
            self.schema, other.schema,
            "diff_cells requires identical schemas"
        );
        assert_eq!(
            self.len(),
            other.len(),
            "diff_cells requires equal tuple counts"
        );
        let mut n = 0;
        for a in self.schema.attr_ids() {
            for (sa, sb) in self.store.col_syms(a).iter().zip(other.store.col_syms(a)) {
                if self.interner().resolve(*sa) != other.interner().resolve(*sb) {
                    n += 1;
                }
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn rel() -> Relation {
        let schema = Schema::of_strings("r", &["A", "B"]);
        Relation::new(
            schema,
            vec![
                Tuple::of_strs(&["x", "1"], 0.5),
                Tuple::of_strs(&["y", "1"], 0.5),
                Tuple::of_strs(&["x", "2"], 0.5),
            ],
        )
    }

    #[test]
    fn active_domain_is_sorted_distinct() {
        let r = rel();
        let a = r.schema().attr_id("A").unwrap();
        assert_eq!(r.active_domain(a), vec![Value::str("x"), Value::str("y")]);
    }

    #[test]
    fn active_domain_excludes_null() {
        let mut r = rel();
        let a = r.schema().attr_id("A").unwrap();
        r.tuple_mut(TupleId(0))
            .set(a, Value::Null, 0.0, Default::default());
        assert_eq!(r.active_domain(a), vec![Value::str("x"), Value::str("y")]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let schema = Schema::of_strings("r", &["A", "B"]);
        Relation::new(schema, vec![Tuple::of_strs(&["only-one"], 0.5)]);
    }

    #[test]
    fn arity_mismatch_is_a_typed_error() {
        let schema = Schema::of_strings("r", &["A", "B"]);
        let err = Relation::try_new(schema.clone(), vec![Tuple::of_strs(&["only-one"], 0.5)])
            .unwrap_err();
        assert_eq!(
            err,
            ModelError::ArityMismatch {
                row: 0,
                expected: 2,
                found: 1
            }
        );
        let mut r = Relation::empty(schema);
        assert!(r.try_push(Tuple::of_strs(&["a", "b", "c"], 0.5)).is_err());
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn try_push_row_validates_confidence() {
        let mut r = Relation::empty(Schema::of_strings("r", &["A"]));
        assert!(matches!(
            r.try_push_row([Value::str("v")], 2.0),
            Err(ModelError::ConfidenceOutOfRange { .. })
        ));
        assert!(r.try_push_row([Value::str("v")], 1.0).is_ok());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn diff_cells_counts_changed_positions() {
        let r1 = rel();
        let mut r2 = rel();
        let b = r2.schema().attr_id("B").unwrap();
        r2.tuple_mut(TupleId(2))
            .set(b, Value::str("9"), 1.0, Default::default());
        assert_eq!(r1.diff_cells(&r2), 1);
        assert_eq!(r1.diff_cells(&r1), 0);
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let mut r = Relation::empty(Schema::of_strings("r", &["A"]));
        let t0 = r.push(Tuple::of_strs(&["v"], 0.0));
        let t1 = r.push(Tuple::of_strs(&["w"], 0.0));
        assert_eq!(t0, TupleId(0));
        assert_eq!(t1, TupleId(1));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn iter_pairs_ids_with_tuples() {
        let r = rel();
        let collected: Vec<_> = r
            .iter()
            .map(|(id, t)| (id.index(), t.value(AttrId(0)).clone()))
            .collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[1], (1, Value::str("y")));
    }

    #[test]
    fn equal_cells_share_symbols_within_the_relation() {
        let r = rel();
        let a = r.schema().attr_id("A").unwrap();
        assert_eq!(r.sym(TupleId(0), a), r.sym(TupleId(2), a));
        assert_ne!(r.sym(TupleId(0), a), r.sym(TupleId(1), a));
    }

    #[test]
    fn with_schema_relabels_without_copying_rows() {
        let r = rel();
        let m = Schema::of_strings("m", &["P", "Q"]);
        let s = Relation::with_schema(m.clone(), &r);
        assert_eq!(s.schema().name(), "m");
        assert_eq!(s.len(), r.len());
        let p = s.schema().attr_id("P").unwrap();
        let a = r.schema().attr_id("A").unwrap();
        assert_eq!(s.tuple(TupleId(1)).value(p), r.tuple(TupleId(1)).value(a));
    }

    #[test]
    fn to_tuples_round_trips() {
        let r = rel();
        let back = Relation::new(r.schema().clone(), r.to_tuples());
        assert_eq!(r.diff_cells(&back), 0);
    }
}
