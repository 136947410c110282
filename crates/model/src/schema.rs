//! Relation schemas.
//!
//! A [`Schema`] names a relation and its attributes, mirroring the paper's
//! `R(A1, …, An)` notation — e.g. the running example's
//! `tran(FN, LN, St, city, AC, post, phn, gd, item, when, where)`.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::error::ModelError;
use crate::pos::AttrId;

/// Declared type of an attribute domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// Free text.
    Str,
    /// 64-bit integers.
    Int,
}

/// A single attribute declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttrDef {
    /// Attribute name, unique within the schema (case-sensitive).
    pub name: String,
    /// Domain type.
    pub ty: ValueType,
}

/// A relation schema: a relation name plus an ordered list of attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    name: String,
    attrs: Vec<AttrDef>,
    by_name: HashMap<String, AttrId>,
}

impl Schema {
    /// Build a schema from `(attribute name, type)` pairs.
    ///
    /// # Panics
    /// Panics if two attributes share a name. Names that come from input —
    /// a CSV header, a wire `open` — go through [`Schema::try_new`].
    pub fn new(
        name: impl Into<String>,
        attrs: impl IntoIterator<Item = (impl Into<String>, ValueType)>,
    ) -> Self {
        Self::try_new(name, attrs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Schema::new`] with a repeated attribute name reported as
    /// [`ModelError::DuplicateAttribute`] instead of a panic.
    pub fn try_new(
        name: impl Into<String>,
        attrs: impl IntoIterator<Item = (impl Into<String>, ValueType)>,
    ) -> Result<Self, ModelError> {
        let name = name.into();
        let attrs: Vec<AttrDef> = attrs
            .into_iter()
            .map(|(n, ty)| AttrDef { name: n.into(), ty })
            .collect();
        let mut by_name = HashMap::with_capacity(attrs.len());
        for (i, a) in attrs.iter().enumerate() {
            if by_name.insert(a.name.clone(), AttrId::from(i)).is_some() {
                return Err(ModelError::DuplicateAttribute {
                    schema: name,
                    attr: a.name.clone(),
                });
            }
        }
        Ok(Schema {
            name,
            attrs,
            by_name,
        })
    }

    /// Convenience constructor: every attribute is a string.
    pub fn of_strings(name: impl Into<String>, attrs: &[&str]) -> Arc<Self> {
        Arc::new(Self::new(name, attrs.iter().map(|a| (*a, ValueType::Str))))
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes (`|attr(R)|`).
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Attribute declaration by position.
    pub fn attr(&self, id: AttrId) -> &AttrDef {
        &self.attrs[id.index()]
    }

    /// All attribute declarations, in schema order.
    pub fn attrs(&self) -> &[AttrDef] {
        &self.attrs
    }

    /// All attribute ids, in schema order.
    pub fn attr_ids(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.attrs.len()).map(AttrId::from)
    }

    /// Look an attribute up by name.
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.by_name.get(name).copied()
    }

    /// Look an attribute up by name, panicking with a diagnostic when absent.
    ///
    /// Rule construction in tests and generators uses this heavily; the
    /// panic message lists the valid names so a typo is immediately obvious.
    pub fn attr_id_or_panic(&self, name: &str) -> AttrId {
        self.attr_id(name).unwrap_or_else(|| {
            panic!(
                "schema `{}` has no attribute `{}` (attributes: {})",
                self.name,
                name,
                self.attrs
                    .iter()
                    .map(|a| a.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
    }

    /// Name of an attribute by id.
    pub fn attr_name(&self, id: AttrId) -> &str {
        &self.attrs[id.index()].name
    }

    /// Resolve a list of attribute names to ids, failing on the first
    /// unknown name.
    pub fn resolve(&self, names: &[&str]) -> Result<Vec<AttrId>, String> {
        names
            .iter()
            .map(|n| {
                self.attr_id(n)
                    .ok_or_else(|| format!("schema `{}` has no attribute `{}`", self.name, n))
            })
            .collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(&a.name)?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tran() -> Schema {
        Schema::new(
            "tran",
            [
                ("FN", ValueType::Str),
                ("LN", ValueType::Str),
                ("city", ValueType::Str),
                ("AC", ValueType::Str),
            ],
        )
    }

    #[test]
    fn lookup_by_name_and_id_agree() {
        let s = tran();
        let city = s.attr_id("city").unwrap();
        assert_eq!(s.attr_name(city), "city");
        assert_eq!(s.attr(city).ty, ValueType::Str);
    }

    #[test]
    fn unknown_attribute_is_none() {
        assert!(tran().attr_id("zip").is_none());
    }

    #[test]
    #[should_panic(expected = "no attribute `zip`")]
    fn or_panic_lists_context() {
        tran().attr_id_or_panic("zip");
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicate_attributes_rejected() {
        Schema::new("r", [("A", ValueType::Str), ("A", ValueType::Str)]);
    }

    #[test]
    fn try_new_types_a_duplicate_attribute() {
        let err = Schema::try_new("r", [("A", ValueType::Str), ("A", ValueType::Int)]).unwrap_err();
        assert_eq!(
            err,
            ModelError::DuplicateAttribute {
                schema: "r".into(),
                attr: "A".into()
            }
        );
    }

    #[test]
    fn resolve_reports_first_unknown() {
        let s = tran();
        let ok = s.resolve(&["FN", "city"]).unwrap();
        assert_eq!(ok.len(), 2);
        let err = s.resolve(&["FN", "bogus"]).unwrap_err();
        assert!(err.contains("bogus"));
    }

    #[test]
    fn display_is_paper_notation() {
        assert_eq!(tran().to_string(), "tran(FN, LN, city, AC)");
    }

    #[test]
    fn attr_ids_iterate_in_order() {
        let s = tran();
        let ids: Vec<_> = s.attr_ids().collect();
        assert_eq!(ids.len(), 4);
        assert_eq!(s.attr_name(ids[0]), "FN");
        assert_eq!(s.attr_name(ids[3]), "AC");
    }
}
