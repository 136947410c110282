//! Quality metrics for repairing and matching (§8 "Quality measuring").
//!
//! * **Repairing**: "precision is the ratio of attributes correctly updated
//!   to the number of all the attributes updated, and recall is the ratio
//!   of attributes corrected to the number of all erroneous attributes."
//! * **Matching**: "precision is the ratio of true matches correctly found
//!   to all the duplicates found, and recall is the ratio of true matches
//!   correctly found to all the matches between a dataset and master data."
//! * F-measure = 2·(precision·recall)/(precision+recall).

use std::collections::{BTreeMap, HashSet};

use uniclean_model::{AttrId, FixMark, Relation, TupleId};

/// A precision/recall pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrecisionRecall {
    /// Fraction of reported items that are correct.
    pub precision: f64,
    /// Fraction of relevant items that were reported.
    pub recall: f64,
}

impl PrecisionRecall {
    /// The harmonic mean; 0 when both components are 0.
    pub fn f1(&self) -> f64 {
        if self.precision + self.recall == 0.0 {
            0.0
        } else {
            2.0 * self.precision * self.recall / (self.precision + self.recall)
        }
    }
}

/// Attribute-level repair quality of `repaired` against ground truth
/// `truth`, relative to the dirty input `dirty`.
///
/// Conventions: an *update* is any cell whose value differs between `dirty`
/// and `repaired`; it is *correct* iff the repaired value equals the truth.
/// An *erroneous attribute* is a cell where `dirty` differs from `truth`.
/// Empty denominators yield 1.0 (no updates → none wrong; no errors → all
/// corrected).
pub fn repair_quality(dirty: &Relation, repaired: &Relation, truth: &Relation) -> PrecisionRecall {
    assert_eq!(dirty.len(), repaired.len(), "relations must align");
    assert_eq!(dirty.len(), truth.len(), "relations must align");
    let arity = dirty.schema().arity();
    let mut updated = 0usize;
    let mut updated_correct = 0usize;
    let mut errors = 0usize;
    let mut corrected = 0usize;
    for i in 0..dirty.len() {
        let id = TupleId::from(i);
        let (td, tr, tt) = (dirty.tuple(id), repaired.tuple(id), truth.tuple(id));
        for a in 0..arity {
            let a = uniclean_model::AttrId::from(a);
            let was_error = td.value(a) != tt.value(a);
            let was_updated = td.value(a) != tr.value(a);
            let now_correct = tr.value(a) == tt.value(a);
            if was_updated {
                updated += 1;
                if now_correct {
                    updated_correct += 1;
                }
            }
            if was_error {
                errors += 1;
                if now_correct {
                    corrected += 1;
                }
            }
        }
    }
    PrecisionRecall {
        precision: ratio(updated_correct, updated),
        recall: ratio(corrected, errors),
    }
}

/// The fixed cells of one (mark, rule) tier: how many, and how many of
/// them now hold the truth.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TierQuality {
    /// The final mark of the tier's cells.
    pub mark: FixMark,
    /// The rule whose fix each cell holds last.
    pub rule: String,
    /// Fixed cells: their repaired value differs from the dirty one.
    pub cells: usize,
    /// Of those, the cells whose repaired value equals the truth.
    pub correct: usize,
}

impl TierQuality {
    /// `correct / cells` (1.0 for an empty tier).
    pub fn precision(&self) -> f64 {
        ratio(self.correct, self.cells)
    }
}

/// [`repair_quality`] split by who fixed each cell.
#[derive(Clone, Debug, PartialEq)]
pub struct RuleQuality {
    /// One entry per (mark, rule), ordered by mark then rule.
    pub tiers: Vec<TierQuality>,
    /// Cells asserted in the dirty input (`cf ≥ η`) whose repaired value
    /// differs from the dirty one.
    pub asserted_changed: usize,
}

/// Repair precision per fix tier and rule: each fixed cell — a cell whose
/// value differs between `dirty` and `repaired` — is attributed to its
/// last fix, given by `fixes` as `(tuple, attribute, final mark, rule)`
/// (one per cell, e.g. a report's final states; a cell listed twice counts
/// under its later entry). A listed cell whose repaired value equals the
/// dirty one is no update and is skipped, as in [`repair_quality`]. Also
/// counts the asserted cells (`cf ≥ eta` in `dirty`) the repair changed.
pub fn repair_quality_by_rule<'a>(
    dirty: &Relation,
    repaired: &Relation,
    truth: &Relation,
    fixes: impl IntoIterator<Item = (TupleId, AttrId, FixMark, &'a str)>,
    eta: f64,
) -> RuleQuality {
    assert_eq!(dirty.len(), repaired.len(), "relations must align");
    assert_eq!(dirty.len(), truth.len(), "relations must align");
    let last: BTreeMap<(TupleId, AttrId), (FixMark, &str)> = fixes
        .into_iter()
        .map(|(t, a, mark, rule)| ((t, a), (mark, rule)))
        .collect();
    let mut tiers: BTreeMap<(FixMark, &str), (usize, usize)> = BTreeMap::new();
    for (&(t, a), &tier) in &last {
        let now = repaired.tuple(t).value(a);
        if now == dirty.tuple(t).value(a) {
            continue;
        }
        let (cells, correct) = tiers.entry(tier).or_default();
        *cells += 1;
        *correct += usize::from(now == truth.tuple(t).value(a));
    }
    let mut asserted_changed = 0;
    for (t, row) in dirty.iter() {
        for a in dirty.schema().attr_ids() {
            if row.cf(a) >= eta && row.value(a) != repaired.tuple(t).value(a) {
                asserted_changed += 1;
            }
        }
    }
    RuleQuality {
        tiers: tiers
            .into_iter()
            .map(|((mark, rule), (cells, correct))| TierQuality {
                mark,
                rule: rule.to_string(),
                cells,
                correct,
            })
            .collect(),
        asserted_changed,
    }
}

/// Pair-level matching quality: `found` versus the true match set.
pub fn matching_quality(
    found: &[(TupleId, TupleId)],
    truth: &HashSet<(TupleId, TupleId)>,
) -> PrecisionRecall {
    let found_set: HashSet<(TupleId, TupleId)> = found.iter().copied().collect();
    let hits = found_set.intersection(truth).count();
    PrecisionRecall {
        precision: ratio(hits, found_set.len()),
        recall: ratio(hits, truth.len()),
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniclean_model::{Schema, Tuple};

    fn rel(rows: &[[&str; 2]]) -> Relation {
        let s = Schema::of_strings("r", &["A", "B"]);
        Relation::new(s, rows.iter().map(|r| Tuple::of_strs(r, 0.5)).collect())
    }

    #[test]
    fn perfect_repair_scores_one() {
        let dirty = rel(&[["x", "bad"], ["y", "ok"]]);
        let truth = rel(&[["x", "good"], ["y", "ok"]]);
        let repaired = truth.clone();
        let q = repair_quality(&dirty, &repaired, &truth);
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.recall, 1.0);
        assert_eq!(q.f1(), 1.0);
    }

    #[test]
    fn wrong_update_costs_precision() {
        let dirty = rel(&[["x", "bad"]]);
        let truth = rel(&[["x", "good"]]);
        let repaired = rel(&[["x", "worse"]]); // updated but wrong
        let q = repair_quality(&dirty, &repaired, &truth);
        assert_eq!(q.precision, 0.0);
        assert_eq!(q.recall, 0.0);
    }

    #[test]
    fn missed_error_costs_recall_only() {
        let dirty = rel(&[["x", "bad"], ["y", "alsobad"]]);
        let truth = rel(&[["x", "good"], ["y", "fine"]]);
        let repaired = rel(&[["x", "good"], ["y", "alsobad"]]); // one fixed
        let q = repair_quality(&dirty, &repaired, &truth);
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.recall, 0.5);
        assert!((q.f1() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn breaking_a_correct_cell_costs_precision() {
        let dirty = rel(&[["x", "ok"]]);
        let truth = rel(&[["x", "ok"]]);
        let repaired = rel(&[["x", "broken"]]);
        let q = repair_quality(&dirty, &repaired, &truth);
        assert_eq!(q.precision, 0.0);
        assert_eq!(q.recall, 1.0); // no errors existed
    }

    #[test]
    fn untouched_clean_data_scores_one() {
        let d = rel(&[["x", "ok"]]);
        let q = repair_quality(&d, &d, &d);
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.recall, 1.0);
    }

    #[test]
    fn matching_metrics() {
        let truth: HashSet<(TupleId, TupleId)> =
            [(TupleId(0), TupleId(0)), (TupleId(1), TupleId(1))]
                .into_iter()
                .collect();
        let found = vec![(TupleId(0), TupleId(0)), (TupleId(2), TupleId(0))];
        let q = matching_quality(&found, &truth);
        assert_eq!(q.precision, 0.5);
        assert_eq!(q.recall, 0.5);
    }

    #[test]
    fn duplicate_found_pairs_count_once() {
        let truth: HashSet<(TupleId, TupleId)> = [(TupleId(0), TupleId(0))].into_iter().collect();
        let found = vec![(TupleId(0), TupleId(0)), (TupleId(0), TupleId(0))];
        let q = matching_quality(&found, &truth);
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.recall, 1.0);
    }

    #[test]
    fn f1_zero_when_nothing_matches() {
        let truth: HashSet<(TupleId, TupleId)> = [(TupleId(0), TupleId(0))].into_iter().collect();
        let q = matching_quality(&[], &truth);
        assert_eq!(q.precision, 1.0); // nothing reported, nothing wrong
        assert_eq!(q.recall, 0.0);
        assert_eq!(q.f1(), 0.0);
    }

    #[test]
    fn quality_by_rule_attributes_each_cell_to_its_last_fix() {
        let dirty = rel(&[["x", "bad"], ["y", "bad"], ["z", "ok"]]);
        let truth = rel(&[["x", "good"], ["y", "good"], ["z", "ok"]]);
        let repaired = rel(&[["x", "good"], ["y", "worse"], ["z", "ok"]]);
        let b = AttrId(1);
        let fixes = [
            (TupleId(0), b, FixMark::Reliable, "r1"),
            (TupleId(0), b, FixMark::Deterministic, "c1"),
            (TupleId(1), b, FixMark::Possible, "h1"),
            // Fixed back to its dirty value: no update.
            (TupleId(2), b, FixMark::Possible, "h1"),
        ];
        let q = repair_quality_by_rule(&dirty, &repaired, &truth, fixes, 0.5);
        let tier = |mark, rule: &str, cells, correct| TierQuality {
            mark,
            rule: rule.to_string(),
            cells,
            correct,
        };
        assert_eq!(
            q.tiers,
            vec![
                tier(FixMark::Deterministic, "c1", 1, 1),
                tier(FixMark::Possible, "h1", 1, 0),
            ]
        );
        assert_eq!(q.tiers[1].precision(), 0.0);
        // Every cell of `rel` carries cf 0.5, so both changed cells count.
        assert_eq!(q.asserted_changed, 2);
    }
}
