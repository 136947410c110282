//! Similarity substrate for UniClean.
//!
//! Matching dependencies (MDs, §2.2 of the paper) are defined "in terms of a
//! set Υ of similarity predicates, e.g., q-grams, Jaro distance or edit
//! distance". This crate implements those predicates from scratch as
//! bit-parallel, allocation-free kernels, plus the indexing machinery that
//! makes MD matching feasible at scale:
//!
//! * [`edit_distance`] — Myers bit-vector Levenshtein (single-word and
//!   block-based, Ukkonen cutoff, reusable [`MyersPattern`] bitmaps, the
//!   column-at-a-time [`MyersPattern::distance_column`] sweep) with the
//!   scalar DPs preserved as a parity oracle;
//! * [`jaro`](mod@jaro) — Jaro and Jaro-Winkler similarity (byte-slice fast
//!   path, u64-bitset window matcher, [`JaroScratch`] buffer reuse);
//! * [`qgram`] — q-gram profiles and Jaccard similarity over them
//!   ([`ProfileScratch`] buffer reuse, SIMD byte-window hashing for ASCII);
//! * [`simd`] — runtime kernel dispatch on the detected CPU and the input
//!   shape, and the vectorized FNV window hashers (every level
//!   bit-identical to the scalar engine);
//! * [`predicate`] — the [`SimilarityPredicate`] type used inside MDs and
//!   the caller-owned [`SimScratch`];
//! * [`qgram_index`] — a count-filtered q-gram inverted index giving the
//!   `~qgram`/`~jaro`/`~jw` *and* `~lev` families complete, bounded
//!   candidate generation ([`lev_count_bound`]: within edit `k`, padded
//!   profiles share ≥ `max(|u|,|v|) + q − 1 − k·q` grams), so no predicate
//!   the paper names needs a full master scan — or an approximation.

pub mod edit_distance;
pub mod jaro;
pub mod predicate;
pub mod qgram;
pub mod qgram_index;
pub mod simd;

pub use edit_distance::{
    levenshtein, levenshtein_bounded, levenshtein_bounded_with, levenshtein_with,
    within_edit_distance, within_edit_distance_with, ColumnVerdicts, EditScratch, MyersPattern,
};
pub use jaro::{jaro, jaro_winkler, jaro_winkler_with, jaro_with, JaroScratch};
pub use predicate::{SimScratch, SimilarityPredicate};
pub use qgram::{qgram_jaccard, ProfileScratch, QGramProfile};
pub use qgram_index::{
    jaro_length_window, jaro_overlap_bound, lev_count_bound, lev_length_window,
    qgram_length_window, qgram_overlap_bound, QGramIndex, QGramScratch,
};
pub use simd::{DispatchInfo, SimdLevel};
