//! Typed errors for relation and cell construction.
//!
//! Everything a data producer can get wrong — a row whose arity does not
//! match the schema, a confidence outside `[0, 1]`, a header that repeats
//! an attribute name — surfaces as a
//! [`ModelError`] from the `try_*` constructors instead of a panic. The
//! panicking constructors (`Relation::new`, `Relation::push`,
//! `Schema::new`) are thin
//! wrappers that `panic!` with these errors' `Display` text; ingest paths
//! (CSV, session batches) use the typed variants.

use std::fmt;

/// Why a relation or cell could not be built.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelError {
    /// A row's arity does not match the schema's.
    ArityMismatch {
        /// 0-based index of the offending row within the input.
        row: usize,
        /// The schema arity.
        expected: usize,
        /// The row's cell count.
        found: usize,
    },
    /// A confidence value lies outside `[0, 1]` (or is NaN).
    ConfidenceOutOfRange {
        /// The offending confidence.
        cf: f64,
    },
    /// Two attributes of one schema share a name.
    DuplicateAttribute {
        /// The relation name.
        schema: String,
        /// The repeated attribute name.
        attr: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::ArityMismatch {
                row,
                expected,
                found,
            } => write!(
                f,
                "row {row} has arity {found} but the schema has arity {expected}"
            ),
            ModelError::ConfidenceOutOfRange { cf } => {
                write!(f, "confidence {cf} out of [0,1]")
            }
            ModelError::DuplicateAttribute { schema, attr } => {
                write!(f, "duplicate attribute `{attr}` in schema `{schema}`")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_problem() {
        let e = ModelError::ArityMismatch {
            row: 3,
            expected: 2,
            found: 5,
        };
        assert!(e.to_string().contains("arity"));
        assert!(e.to_string().contains('3'));
        let e = ModelError::ConfidenceOutOfRange { cf: 1.5 };
        assert!(e.to_string().contains("1.5"));
    }
}
