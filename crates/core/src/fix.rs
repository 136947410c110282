//! Per-cell fix records and phase statistics.
//!
//! "At the end of the process, fixes are marked with three distinct signs,
//! indicating deterministic, reliable and possible" (§3.2). The report is
//! what the experiments score: Exp-3 measures precision/recall *per phase*
//! and Exp-4 the share of deterministic fixes.

use uniclean_model::{AttrId, FixMark, TupleId, Value};

/// One applied fix.
#[derive(Clone, Debug, PartialEq)]
pub struct FixRecord {
    /// Which tuple was updated.
    pub tuple: TupleId,
    /// Which attribute was updated.
    pub attr: AttrId,
    /// Value before the fix.
    pub old: Value,
    /// Value after the fix.
    pub new: Value,
    /// Accuracy class of the fix.
    pub mark: FixMark,
    /// Diagnostic label of the rule that produced the fix.
    pub rule: String,
}

/// All fixes applied during a run, in application order.
#[derive(Clone, Debug, Default)]
pub struct FixReport {
    records: Vec<FixRecord>,
}

impl FixReport {
    /// Create an empty report.
    pub fn new() -> Self {
        FixReport::default()
    }

    /// Append a fix.
    pub fn push(&mut self, rec: FixRecord) {
        self.records.push(rec);
    }

    /// All records in application order.
    pub fn records(&self) -> &[FixRecord] {
        &self.records
    }

    /// Total number of fixes.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the report empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of fixes of a given class, counting each cell's *final* state
    /// (a cell re-fixed by a later phase counts once, under the final mark).
    pub fn count_final(&self, mark: FixMark) -> usize {
        self.final_states().filter(|r| r.mark == mark).count()
    }

    /// The last fix applied to each cell, i.e. the cell's final state.
    pub fn final_states(&self) -> impl Iterator<Item = &FixRecord> {
        let mut last: std::collections::HashMap<(TupleId, AttrId), &FixRecord> =
            std::collections::HashMap::new();
        for r in &self.records {
            last.insert((r.tuple, r.attr), r);
        }
        let mut v: Vec<&FixRecord> = last.into_values().collect();
        v.sort_by_key(|r| (r.tuple, r.attr));
        v.into_iter()
    }

    /// Number of distinct cells touched.
    pub fn cells_touched(&self) -> usize {
        self.final_states().count()
    }

    /// Merge another report into this one (phases run in sequence).
    pub fn extend(&mut self, other: FixReport) {
        self.records.extend(other.records);
    }

    /// Keep only the first `len` records.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.records.truncate(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u32, a: u16, mark: FixMark, new: &str) -> FixRecord {
        FixRecord {
            tuple: TupleId(t),
            attr: AttrId(a),
            old: Value::str("old"),
            new: Value::str(new),
            mark,
            rule: "r".into(),
        }
    }

    #[test]
    fn counts_use_final_state_per_cell() {
        let mut rep = FixReport::new();
        rep.push(rec(0, 0, FixMark::Reliable, "a"));
        rep.push(rec(0, 0, FixMark::Possible, "b")); // re-fixed later
        rep.push(rec(1, 0, FixMark::Deterministic, "c"));
        assert_eq!(rep.len(), 3);
        assert_eq!(rep.cells_touched(), 2);
        assert_eq!(rep.count_final(FixMark::Reliable), 0);
        assert_eq!(rep.count_final(FixMark::Possible), 1);
        assert_eq!(rep.count_final(FixMark::Deterministic), 1);
    }

    #[test]
    fn extend_concatenates_in_order() {
        let mut a = FixReport::new();
        a.push(rec(0, 0, FixMark::Deterministic, "x"));
        let mut b = FixReport::new();
        b.push(rec(0, 0, FixMark::Possible, "y"));
        a.extend(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.count_final(FixMark::Possible), 1);
    }

    #[test]
    fn empty_report() {
        let rep = FixReport::new();
        assert!(rep.is_empty());
        assert_eq!(rep.cells_touched(), 0);
    }
}
