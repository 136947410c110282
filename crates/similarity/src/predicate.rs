//! The similarity predicates `≈` that appear in MD premises.
//!
//! An MD premise is a conjunction `R[Aj] ≈j Rm[Bj]` where each `≈j` is drawn
//! from a set Υ of predicates (§2.2). [`SimilarityPredicate`] is that set:
//! exact equality plus the three families the paper names (edit distance,
//! Jaro, q-grams). Every predicate is reflexive — `x ≈ x` always holds — a
//! property the cleaning algorithms rely on and the tests pin down.

use std::fmt;

use crate::edit_distance::{within_edit_distance, within_edit_distance_with, EditScratch};
use crate::jaro::{jaro, jaro_winkler, jaro_winkler_with, jaro_with, JaroScratch};
use crate::qgram::{qgram_jaccard, ProfileScratch, QGramProfile};

/// Every per-call buffer a similarity-predicate evaluation can need, owned
/// by the caller so the probe hot path allocates nothing. The engine embeds
/// one in each `ProbeScratch`, which its witness memo probes through.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Myers pattern/block buffers for `~lev`.
    pub edit: EditScratch,
    /// Match/transposition buffers for `~jaro`/`~jw`.
    pub jaro: JaroScratch,
    /// Padded-string and hash buffers for `~qgram` profile builds.
    pub profile: ProfileScratch,
    /// Reusable probe/master profile slots for `~qgram` evaluation.
    pa: QGramProfile,
    pb: QGramProfile,
}

impl SimScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A similarity predicate usable in an MD premise.
#[derive(Clone, Debug, PartialEq)]
pub enum SimilarityPredicate {
    /// Strict equality `=`.
    Equal,
    /// Levenshtein distance at most `max`.
    Levenshtein {
        /// Inclusive edit-distance threshold.
        max: usize,
    },
    /// Jaro similarity at least `min`.
    Jaro {
        /// Inclusive similarity threshold in `[0, 1]`.
        min: f64,
    },
    /// Jaro-Winkler similarity at least `min`.
    JaroWinkler {
        /// Inclusive similarity threshold in `[0, 1]`.
        min: f64,
    },
    /// q-gram multiset-Jaccard similarity at least `min`.
    QGramJaccard {
        /// Window size (≥ 1).
        q: usize,
        /// Inclusive similarity threshold in `[0, 1]`.
        min: f64,
    },
}

impl SimilarityPredicate {
    /// Does `a ≈ b` hold under this predicate?
    pub fn matches(&self, a: &str, b: &str) -> bool {
        match self {
            SimilarityPredicate::Equal => a == b,
            SimilarityPredicate::Levenshtein { max } => within_edit_distance(a, b, *max),
            SimilarityPredicate::Jaro { min } => jaro(a, b) >= *min,
            SimilarityPredicate::JaroWinkler { min } => jaro_winkler(a, b) >= *min,
            SimilarityPredicate::QGramJaccard { q, min } => qgram_jaccard(a, b, *q) >= *min,
        }
    }

    /// [`SimilarityPredicate::matches`] reusing `scratch` buffers — the
    /// allocation-free form the probe hot path uses. Answers are identical
    /// to [`SimilarityPredicate::matches`] bit for bit.
    pub fn matches_with(&self, a: &str, b: &str, scratch: &mut SimScratch) -> bool {
        match self {
            SimilarityPredicate::Equal => a == b,
            SimilarityPredicate::Levenshtein { max } => {
                within_edit_distance_with(a, b, *max, &mut scratch.edit)
            }
            SimilarityPredicate::Jaro { min } => jaro_with(a, b, &mut scratch.jaro) >= *min,
            SimilarityPredicate::JaroWinkler { min } => {
                jaro_winkler_with(a, b, &mut scratch.jaro) >= *min
            }
            SimilarityPredicate::QGramJaccard { q, min } => {
                let SimScratch {
                    profile, pa, pb, ..
                } = scratch;
                pa.rebuild(a, *q, profile);
                pb.rebuild(b, *q, profile);
                pa.jaccard(pb) >= *min
            }
        }
    }

    /// Is this predicate plain equality? The confidence-propagation rule of
    /// §3.1 takes the minimum over premise attributes "if ≈j is '='".
    pub fn is_equality(&self) -> bool {
        matches!(self, SimilarityPredicate::Equal)
    }

    /// The edit-distance threshold `K` (`0` for equality) that sizes the
    /// `~lev` count bound of the q-gram index ([`crate::qgram_index`]);
    /// `None` for the other similarity families.
    pub fn edit_threshold(&self) -> Option<usize> {
        match self {
            SimilarityPredicate::Equal => Some(0),
            SimilarityPredicate::Levenshtein { max } => Some(*max),
            _ => None,
        }
    }

    /// `(q, min)` for q-gram predicates — the parameters of the
    /// count-filtered inverted index ([`crate::qgram_index`]).
    pub fn qgram_params(&self) -> Option<(usize, f64)> {
        match self {
            SimilarityPredicate::QGramJaccard { q, min } => Some((*q, *min)),
            _ => None,
        }
    }

    /// The conservative Jaro-similarity floor this predicate implies, for
    /// the 1-gram prefilter: `~jaro(s)` floors at `s` itself, `~jw(s)` at
    /// `(s − 0.4)/0.6` (the Winkler prefix boost is capped at `4 · 0.1`,
    /// so `jw ≤ 0.6·jaro + 0.4`). `None` for non-Jaro predicates.
    pub fn jaro_floor(&self) -> Option<f64> {
        match self {
            SimilarityPredicate::Jaro { min } => Some(*min),
            SimilarityPredicate::JaroWinkler { min } => Some((*min - 0.4) / 0.6),
            _ => None,
        }
    }
}

impl fmt::Display for SimilarityPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimilarityPredicate::Equal => f.write_str("="),
            SimilarityPredicate::Levenshtein { max } => write!(f, "~lev({max})"),
            SimilarityPredicate::Jaro { min } => write!(f, "~jaro({min})"),
            SimilarityPredicate::JaroWinkler { min } => write!(f, "~jw({min})"),
            SimilarityPredicate::QGramJaccard { q, min } => write!(f, "~qgram({q},{min})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn equality_predicate() {
        let p = SimilarityPredicate::Equal;
        assert!(p.matches("Edi", "Edi"));
        assert!(!p.matches("Edi", "Ldn"));
        assert!(p.is_equality());
    }

    #[test]
    fn levenshtein_predicate_threshold() {
        let p = SimilarityPredicate::Levenshtein { max: 2 };
        assert!(p.matches("Mark", "Max"));
        assert!(!p.matches("Mark", "Robert"));
        assert!(!p.is_equality());
        assert_eq!(p.edit_threshold(), Some(2));
    }

    #[test]
    fn jaro_predicates() {
        let p = SimilarityPredicate::Jaro { min: 0.9 };
        assert!(p.matches("MARTHA", "MARHTA"));
        assert!(!p.matches("DIXON", "DICKSONX"));
        let w = SimilarityPredicate::JaroWinkler { min: 0.95 };
        assert!(w.matches("MARTHA", "MARHTA"));
    }

    #[test]
    fn qgram_predicate() {
        let p = SimilarityPredicate::QGramJaccard { q: 2, min: 0.5 };
        assert!(p.matches("Robert Brady", "Robert Bradey"));
        assert!(!p.matches("Robert Brady", "Mark Smith"));
    }

    #[test]
    fn display_renders_rule_syntax() {
        assert_eq!(SimilarityPredicate::Equal.to_string(), "=");
        assert_eq!(
            SimilarityPredicate::Levenshtein { max: 3 }.to_string(),
            "~lev(3)"
        );
        assert_eq!(
            SimilarityPredicate::Jaro { min: 0.8 }.to_string(),
            "~jaro(0.8)"
        );
        assert_eq!(
            SimilarityPredicate::QGramJaccard { q: 2, min: 0.5 }.to_string(),
            "~qgram(2,0.5)"
        );
    }

    proptest! {
        /// The scratch-reusing evaluation agrees with the allocating one
        /// for every predicate family, including across reused scratches.
        #[test]
        fn matches_with_agrees_with_matches(a in "[abé ]{0,10}", b in "[abé ]{0,10}") {
            let mut scratch = SimScratch::new();
            for p in [
                SimilarityPredicate::Equal,
                SimilarityPredicate::Levenshtein { max: 2 },
                SimilarityPredicate::Jaro { min: 0.7 },
                SimilarityPredicate::JaroWinkler { min: 0.7 },
                SimilarityPredicate::QGramJaccard { q: 2, min: 0.4 },
                SimilarityPredicate::QGramJaccard { q: 3, min: 0.6 },
            ] {
                prop_assert_eq!(
                    p.matches_with(&a, &b, &mut scratch),
                    p.matches(&a, &b),
                    "{} diverged on ({:?}, {:?})", p, &a, &b
                );
            }
        }

        /// Every predicate is reflexive (needed so re-applying a rule to an
        /// already-fixed tuple is a no-op rather than a change).
        #[test]
        fn predicates_are_reflexive(s in "[a-e ]{0,12}", max in 0usize..4, q in 1usize..4) {
            for p in [
                SimilarityPredicate::Equal,
                SimilarityPredicate::Levenshtein { max },
                SimilarityPredicate::Jaro { min: 0.99 },
                SimilarityPredicate::JaroWinkler { min: 0.99 },
                SimilarityPredicate::QGramJaccard { q, min: 0.99 },
            ] {
                prop_assert!(p.matches(&s, &s), "{p} not reflexive on {s:?}");
            }
        }

        /// Every predicate is symmetric.
        #[test]
        fn predicates_are_symmetric(a in "[a-e]{0,10}", b in "[a-e]{0,10}") {
            for p in [
                SimilarityPredicate::Equal,
                SimilarityPredicate::Levenshtein { max: 2 },
                SimilarityPredicate::Jaro { min: 0.7 },
                SimilarityPredicate::JaroWinkler { min: 0.7 },
                SimilarityPredicate::QGramJaccard { q: 2, min: 0.4 },
            ] {
                prop_assert_eq!(p.matches(&a, &b), p.matches(&b, &a));
            }
        }

        /// Equality implies every similarity predicate (thresholded
        /// predicates accept identical strings).
        #[test]
        fn equality_is_strongest(a in "[a-e]{0,10}") {
            let preds = [
                SimilarityPredicate::Levenshtein { max: 0 },
                SimilarityPredicate::Jaro { min: 1.0 },
                SimilarityPredicate::JaroWinkler { min: 1.0 },
                SimilarityPredicate::QGramJaccard { q: 2, min: 1.0 },
            ];
            for p in preds {
                prop_assert!(p.matches(&a, &a));
            }
        }
    }
}
