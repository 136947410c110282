//! Relational substrate for UniClean.
//!
//! This crate provides the data model shared by every other UniClean crate:
//!
//! * [`Schema`] — named relation schemas with typed attributes,
//! * [`Value`] — cell values (`null`, strings, integers) with cheap clones,
//! * [`Tuple`] / [`Cell`] — tuples whose cells carry a *confidence* `cf`
//!   (the user's belief in the accuracy of the cell, §3.1 of the paper) and a
//!   [`FixMark`] recording which cleaning phase last wrote the cell,
//! * [`Relation`] — an instance of a schema, stored **columnar**: one
//!   interned [`Symbol`] column per attribute plus parallel confidence and
//!   mark columns inside a [`ColumnStore`], accessed through the
//!   lightweight [`TupleRef`]/[`TupleMut`]/[`CellRef`] views and the
//!   [`Row`] abstraction,
//! * [`ValueInterner`] — dense `u32` [`Symbol`]s for values, so hot-path
//!   hash keys (group projections, master-column indexes) hash and compare
//!   in O(1); every relation owns one,
//! * [`cost`](mod@cost) — the repair cost model `cost(Dr, D)` of §3.1,
//! * [`json`](mod@json) — hand-rolled [`Json`] values (no external deps)
//!   and the tuple/batch wire codecs the serving layer speaks.
//!
//! The model is deliberately free of any cleaning logic: rules live in
//! `uniclean-rules` and the cleaning algorithms in `uniclean-core`.

pub mod cost;
pub mod csv;
pub mod error;
pub mod frame;
pub mod intern;
pub mod json;
pub mod pos;
pub mod relation;
pub mod schema;
pub mod store;
pub mod tuple;
pub mod value;

pub use cost::{cell_cost, cost_terms, repair_cost, repair_cost_with, total_cost, value_distance};
pub use error::ModelError;
pub use intern::{FxHashMap, FxHasher, Symbol, ValueInterner};
pub use json::{Json, JsonError};
pub use pos::{AttrId, TupleId};
pub use relation::Relation;
pub use schema::{AttrDef, Schema, ValueType};
pub use store::{CellRef, CellUndo, ColumnStore, Row, TupleMut, TupleRef};
pub use tuple::{Cell, FixMark, Tuple};
pub use value::Value;
