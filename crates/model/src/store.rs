//! Columnar, symbol-native cell storage — the backing of [`crate::Relation`].
//!
//! The cleaning engine reads every cell of `D` many times per fixpoint
//! round: master-index probes, MD premise checks, CFD pattern matches and
//! 2-in-1 group projections all walk cells. A row-major `Vec<Tuple>` of
//! `Cell { Value, cf, mark }` makes each of those reads chase a tuple
//! pointer and hash/compare string content. [`ColumnStore`] flips the
//! layout:
//!
//! * one dense `Vec<Symbol>` **value column per attribute**, backed by a
//!   store-owned [`ValueInterner`] — equal cell values share one symbol, so
//!   equality inside one relation is a `u32` compare and group keys hash
//!   without touching string content;
//! * parallel `Vec<f64>` confidence and `Vec<FixMark>` mark columns, so
//!   confidence sweeps (the `cRepair` seeding scan) and mark filters read
//!   contiguous memory;
//! * the interner is **append-only**: a symbol, once issued, always
//!   resolves to the same value. Derived relations (clones, schema
//!   re-labelings, delta-extended states) therefore keep their symbols
//!   meaningful — the engine pins structures keyed by symbols across
//!   incremental calls.
//!
//! Access goes through lightweight views instead of materialized tuples:
//! [`TupleRef`] (a `Copy` read view), [`TupleMut`] (a write view whose
//! `set` interns the new value), and [`CellRef`] (one attribute slot). The
//! [`Row`] trait abstracts over [`TupleRef`] and borrowed [`Tuple`]s so
//! rule evaluation works uniformly on stored rows and free-standing row
//! literals.

use crate::error::ModelError;
use crate::intern::{Symbol, ValueInterner};
use crate::pos::AttrId;
use crate::tuple::{Cell, FixMark, Tuple};
use crate::value::Value;

/// Columnar cell storage: per-attribute symbol/confidence/mark columns
/// plus the owning [`ValueInterner`].
#[derive(Clone, Debug)]
pub struct ColumnStore {
    interner: ValueInterner,
    /// Symbol of [`Value::Null`], interned at construction so null checks
    /// are symbol compares.
    null: Symbol,
    /// `syms[attr][row]` — the value column of each attribute.
    syms: Vec<Vec<Symbol>>,
    /// `cf[attr][row]` — confidence column.
    cf: Vec<Vec<f64>>,
    /// `mark[attr][row]` — fix-mark column.
    mark: Vec<Vec<FixMark>>,
    rows: usize,
}

impl ColumnStore {
    /// An empty store with `arity` columns.
    pub fn new(arity: usize) -> Self {
        let mut interner = ValueInterner::new();
        let null = interner.intern(&Value::Null);
        ColumnStore {
            interner,
            null,
            syms: vec![Vec::new(); arity],
            cf: vec![Vec::new(); arity],
            mark: vec![Vec::new(); arity],
            rows: 0,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.syms.len()
    }

    /// The store's interner (append-only: symbols never re-resolve).
    #[inline]
    pub fn interner(&self) -> &ValueInterner {
        &self.interner
    }

    /// The symbol of [`Value::Null`] in this store.
    #[inline]
    pub fn null_sym(&self) -> Symbol {
        self.null
    }

    /// Intern `v` into this store's interner without storing it in any
    /// column — used to give rule constants stable symbols so pattern
    /// matching compares symbols instead of values.
    #[inline]
    pub fn ensure_interned(&mut self, v: &Value) -> Symbol {
        self.interner.intern(v)
    }

    /// The symbol at `(row, attr)`.
    #[inline]
    pub fn sym_at(&self, row: usize, a: AttrId) -> Symbol {
        self.syms[a.index()][row]
    }

    /// The value at `(row, attr)`.
    #[inline]
    pub fn value_at(&self, row: usize, a: AttrId) -> &Value {
        self.interner.resolve(self.syms[a.index()][row])
    }

    /// The confidence at `(row, attr)`.
    #[inline]
    pub fn cf_at(&self, row: usize, a: AttrId) -> f64 {
        self.cf[a.index()][row]
    }

    /// The fix mark at `(row, attr)`.
    #[inline]
    pub fn mark_at(&self, row: usize, a: AttrId) -> FixMark {
        self.mark[a.index()][row]
    }

    /// The symbol column of attribute `a`.
    #[inline]
    pub fn col_syms(&self, a: AttrId) -> &[Symbol] {
        &self.syms[a.index()]
    }

    /// The confidence column of attribute `a`.
    #[inline]
    pub fn col_cf(&self, a: AttrId) -> &[f64] {
        &self.cf[a.index()]
    }

    /// The mark column of attribute `a`.
    #[inline]
    pub fn col_marks(&self, a: AttrId) -> &[FixMark] {
        &self.mark[a.index()]
    }

    /// Overwrite the cell `(row, a)`, interning the new value.
    pub fn set(&mut self, row: usize, a: AttrId, value: Value, cf: f64, mark: FixMark) {
        let s = self.interner.intern(&value);
        self.syms[a.index()][row] = s;
        self.cf[a.index()][row] = cf;
        self.mark[a.index()][row] = mark;
    }

    /// Append one row from per-attribute `(value, cf)` pairs with
    /// [`FixMark::Untouched`] marks. The caller has verified arity.
    fn push_cells(&mut self, cells: impl Iterator<Item = (Value, f64)>) {
        let mut n = 0usize;
        for (i, (v, cf)) in cells.enumerate() {
            let s = self.interner.intern(&v);
            self.syms[i].push(s);
            self.cf[i].push(cf);
            self.mark[i].push(FixMark::Untouched);
            n += 1;
        }
        debug_assert_eq!(n, self.arity());
        self.rows += 1;
    }

    /// Append a row literal; marks are taken from the tuple's cells.
    ///
    /// # Panics
    /// Panics on arity mismatch (checked *before* touching any column, so
    /// the store can never go ragged) — [`crate::Relation::try_push`] is
    /// the typed front door.
    pub fn push_tuple(&mut self, t: Tuple) {
        assert_eq!(
            t.arity(),
            self.arity(),
            "push_tuple arity mismatch: tuple has {} cells, store has {} columns",
            t.arity(),
            self.arity()
        );
        let row = self.rows;
        for (i, c) in t.into_cells().into_iter().enumerate() {
            let s = self.interner.intern(&c.value);
            self.syms[i].push(s);
            self.cf[i].push(c.cf);
            self.mark[i].push(c.mark);
        }
        self.rows = row + 1;
    }

    /// Append a row of values with uniform confidence, without building a
    /// [`Tuple`]. Errors on arity mismatch or out-of-range confidence —
    /// the typed ingest path.
    pub fn try_push_row(
        &mut self,
        values: impl IntoIterator<Item = Value>,
        cf: f64,
    ) -> Result<(), ModelError> {
        if !(0.0..=1.0).contains(&cf) {
            return Err(ModelError::ConfidenceOutOfRange { cf });
        }
        let vals: Vec<Value> = values.into_iter().collect();
        if vals.len() != self.arity() {
            return Err(ModelError::ArityMismatch {
                row: self.rows,
                expected: self.arity(),
                found: vals.len(),
            });
        }
        self.push_cells(vals.into_iter().map(|v| (v, cf)));
        Ok(())
    }

    /// Materialize row `row` as an owned [`Tuple`].
    pub fn row_tuple(&self, row: usize) -> Tuple {
        Tuple::new(
            (0..self.arity())
                .map(|i| {
                    let a = AttrId::from(i);
                    Cell {
                        value: self.value_at(row, a).clone(),
                        cf: self.cf_at(row, a),
                        mark: self.mark_at(row, a),
                    }
                })
                .collect(),
        )
    }
}

/// Read-only view of one attribute slot: the resolved value plus its
/// symbol, confidence and mark.
#[derive(Clone, Copy, Debug)]
pub struct CellRef<'a> {
    /// The cell's current value.
    pub value: &'a Value,
    /// The value's dense symbol (meaningful relative to the owning store).
    pub sym: Symbol,
    /// Confidence in `[0, 1]`.
    pub cf: f64,
    /// Which phase last wrote the cell.
    pub mark: FixMark,
}

/// A `Copy` read view of one stored row — the columnar replacement for
/// `&Tuple`. All accessors return data borrowed from the owning
/// [`crate::Relation`], so a `TupleRef` can be passed around freely while
/// the borrow of the relation lives.
#[derive(Clone, Copy)]
pub struct TupleRef<'a> {
    pub(crate) store: &'a ColumnStore,
    pub(crate) row: usize,
}

impl<'a> TupleRef<'a> {
    /// Number of cells.
    #[inline]
    pub fn arity(self) -> usize {
        self.store.arity()
    }

    /// The value at `a` — the paper's `t[A]`.
    #[inline]
    pub fn value(self, a: AttrId) -> &'a Value {
        self.store.value_at(self.row, a)
    }

    /// The interned symbol at `a` (store-relative).
    #[inline]
    pub fn sym(self, a: AttrId) -> Symbol {
        self.store.sym_at(self.row, a)
    }

    /// The confidence at `a` — the paper's `t[A].cf`.
    #[inline]
    pub fn cf(self, a: AttrId) -> f64 {
        self.store.cf_at(self.row, a)
    }

    /// The fix mark at `a`.
    #[inline]
    pub fn mark(self, a: AttrId) -> FixMark {
        self.store.mark_at(self.row, a)
    }

    /// Is the value at `a` null? (A symbol compare — no resolution.)
    #[inline]
    pub fn is_null(self, a: AttrId) -> bool {
        self.sym(a) == self.store.null_sym()
    }

    /// One attribute slot as a [`CellRef`].
    #[inline]
    pub fn cell(self, a: AttrId) -> CellRef<'a> {
        CellRef {
            value: self.value(a),
            sym: self.sym(a),
            cf: self.cf(a),
            mark: self.mark(a),
        }
    }

    /// All cells in schema order.
    pub fn cells(self) -> impl Iterator<Item = CellRef<'a>> {
        (0..self.arity()).map(move |i| self.cell(AttrId::from(i)))
    }

    /// Project the row onto a list of attributes — the paper's `t[X]`.
    pub fn project(self, attrs: &[AttrId]) -> Vec<Value> {
        attrs.iter().map(|a| self.value(*a).clone()).collect()
    }

    /// [`Self::project`] in symbol form — the hot-path group key.
    pub fn project_syms(self, attrs: &[AttrId]) -> Vec<Symbol> {
        attrs.iter().map(|a| self.sym(*a)).collect()
    }

    /// Do two rows agree (strict equality) on every attribute of `attrs`?
    pub fn agrees_with<'b>(self, other: impl Row<'b>, attrs: &[AttrId]) -> bool {
        attrs.iter().all(|a| self.value(*a) == other.value(*a))
    }

    /// Agreement under SQL simple-null semantics ([`Value::eq_nullable`]).
    pub fn agrees_with_nullable<'b>(self, other: impl Row<'b>, attrs: &[AttrId]) -> bool {
        attrs
            .iter()
            .all(|a| self.value(*a).eq_nullable(other.value(*a)))
    }

    /// Materialize this row as an owned [`Tuple`].
    pub fn to_tuple(self) -> Tuple {
        self.store.row_tuple(self.row)
    }
}

impl std::fmt::Debug for TupleRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries((0..self.arity()).map(|i| self.value(AttrId::from(i))))
            .finish()
    }
}

/// A write view of one stored row — the columnar replacement for
/// `&mut Tuple`. Reads borrow the view; [`TupleMut::set`] interns the new
/// value into the owning store.
pub struct TupleMut<'a> {
    pub(crate) store: &'a mut ColumnStore,
    pub(crate) row: usize,
}

impl TupleMut<'_> {
    /// Number of cells.
    #[inline]
    pub fn arity(&self) -> usize {
        self.store.arity()
    }

    /// The value at `a`.
    #[inline]
    pub fn value(&self, a: AttrId) -> &Value {
        self.store.value_at(self.row, a)
    }

    /// The confidence at `a`.
    #[inline]
    pub fn cf(&self, a: AttrId) -> f64 {
        self.store.cf_at(self.row, a)
    }

    /// The fix mark at `a`.
    #[inline]
    pub fn mark(&self, a: AttrId) -> FixMark {
        self.store.mark_at(self.row, a)
    }

    /// Overwrite the value at `a`, recording confidence and fix mark.
    pub fn set(&mut self, a: AttrId, value: Value, cf: f64, mark: FixMark) {
        self.store.set(self.row, a, value, cf, mark);
    }

    /// Overwrite only the fix mark at `a` (value and confidence keep).
    pub fn set_mark(&mut self, a: AttrId, mark: FixMark) {
        self.store.mark[a.index()][self.row] = mark;
    }

    /// Overwrite only the confidence at `a`.
    pub fn set_cf(&mut self, a: AttrId, cf: f64) {
        self.store.cf[a.index()][self.row] = cf;
    }

    /// Reborrow as a read view.
    #[inline]
    pub fn as_ref(&self) -> TupleRef<'_> {
        TupleRef {
            store: self.store,
            row: self.row,
        }
    }
}

/// Read abstraction over one row of cell values: a stored row
/// ([`TupleRef`]) or a free-standing row literal (`&`[`Tuple`]). Rule
/// evaluation (CFD pattern matching, MD premises, agreement checks) is
/// generic over this trait, so it runs identically on columnar storage
/// and on plain tuples.
pub trait Row<'a>: Copy {
    /// Number of cells.
    fn arity(self) -> usize;
    /// The value at `a`.
    fn value(self, a: AttrId) -> &'a Value;

    /// The interned symbol at `a` for store-backed rows, `None` for
    /// detached rows. Symbols are relative to the *owning relation's*
    /// interner; probe-side caches key on them because equal symbols
    /// guarantee equal values within one relation.
    #[inline]
    fn sym(self, a: AttrId) -> Option<Symbol> {
        let _ = a;
        None
    }

    /// Project onto `attrs` (the paper's `t[X]`).
    fn project(self, attrs: &[AttrId]) -> Vec<Value> {
        attrs.iter().map(|a| self.value(*a).clone()).collect()
    }

    /// Strict agreement on `attrs`.
    fn agrees_with<'b>(self, other: impl Row<'b>, attrs: &[AttrId]) -> bool {
        attrs.iter().all(|a| self.value(*a) == other.value(*a))
    }

    /// Agreement under SQL simple-null semantics.
    fn agrees_with_nullable<'b>(self, other: impl Row<'b>, attrs: &[AttrId]) -> bool {
        attrs
            .iter()
            .all(|a| self.value(*a).eq_nullable(other.value(*a)))
    }
}

impl<'a> Row<'a> for TupleRef<'a> {
    #[inline]
    fn arity(self) -> usize {
        TupleRef::arity(self)
    }

    #[inline]
    fn value(self, a: AttrId) -> &'a Value {
        TupleRef::value(self, a)
    }

    #[inline]
    fn sym(self, a: AttrId) -> Option<Symbol> {
        Some(TupleRef::sym(self, a))
    }
}

impl<'a> Row<'a> for &'a Tuple {
    #[inline]
    fn arity(self) -> usize {
        Tuple::arity(self)
    }

    #[inline]
    fn value(self, a: AttrId) -> &'a Value {
        Tuple::value(self, a)
    }
}

impl<'a, R: Row<'a>> Row<'a> for &R {
    #[inline]
    fn arity(self) -> usize {
        (*self).arity()
    }

    #[inline]
    fn value(self, a: AttrId) -> &'a Value {
        (*self).value(a)
    }

    #[inline]
    fn sym(self, a: AttrId) -> Option<Symbol> {
        (*self).sym(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ColumnStore {
        let mut s = ColumnStore::new(2);
        s.try_push_row([Value::str("x"), Value::int(1)], 0.5)
            .unwrap();
        s.try_push_row([Value::str("y"), Value::int(2)], 0.25)
            .unwrap();
        s
    }

    #[test]
    fn columns_hold_pushed_rows() {
        let s = store();
        assert_eq!(s.rows(), 2);
        assert_eq!(s.value_at(0, AttrId(0)), &Value::str("x"));
        assert_eq!(s.value_at(1, AttrId(1)), &Value::int(2));
        assert_eq!(s.cf_at(1, AttrId(0)), 0.25);
        assert_eq!(s.mark_at(0, AttrId(1)), FixMark::Untouched);
    }

    #[test]
    fn equal_values_share_a_symbol() {
        let mut s = store();
        s.try_push_row([Value::str("x"), Value::int(9)], 0.0)
            .unwrap();
        assert_eq!(s.sym_at(0, AttrId(0)), s.sym_at(2, AttrId(0)));
        assert_ne!(s.sym_at(0, AttrId(0)), s.sym_at(1, AttrId(0)));
    }

    #[test]
    fn set_interns_and_overwrites() {
        let mut s = store();
        s.set(0, AttrId(0), Value::str("y"), 0.9, FixMark::Reliable);
        assert_eq!(s.value_at(0, AttrId(0)), &Value::str("y"));
        assert_eq!(s.sym_at(0, AttrId(0)), s.sym_at(1, AttrId(0)));
        assert_eq!(s.cf_at(0, AttrId(0)), 0.9);
        assert_eq!(s.mark_at(0, AttrId(0)), FixMark::Reliable);
    }

    #[test]
    fn null_symbol_is_stable() {
        let mut s = store();
        s.set(0, AttrId(0), Value::Null, 0.0, FixMark::Possible);
        assert_eq!(s.sym_at(0, AttrId(0)), s.null_sym());
    }

    #[test]
    fn bad_rows_are_typed_errors() {
        let mut s = store();
        assert!(matches!(
            s.try_push_row([Value::str("only-one")], 0.5),
            Err(ModelError::ArityMismatch {
                expected: 2,
                found: 1,
                ..
            })
        ));
        assert!(matches!(
            s.try_push_row([Value::str("a"), Value::str("b")], 1.5),
            Err(ModelError::ConfidenceOutOfRange { .. })
        ));
        assert_eq!(s.rows(), 2, "failed pushes must not grow the store");
    }

    #[test]
    fn row_round_trips_through_tuple() {
        let s = store();
        let t = s.row_tuple(1);
        assert_eq!(t.value(AttrId(0)), &Value::str("y"));
        assert_eq!(t.cf(AttrId(1)), 0.25);
    }
}
