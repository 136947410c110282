//! q-gram profiles and Jaccard similarity over them.
//!
//! q-grams are the third similarity predicate family the paper names for
//! MDs (§2.2). A string's q-gram profile is the multiset of its length-`q`
//! character windows, with `q-1` padding sentinels on each side so that
//! prefixes/suffixes carry weight. Similarity is Jaccard over the profiles
//! (multiset intersection / union).
//!
//! Profiles are stored as a **sorted run-length vector of 64-bit gram
//! hashes** rather than a `HashMap<Vec<char>, u32>`: intersection becomes
//! a cache-friendly sorted merge with zero per-gram allocation, and the
//! same hashes feed the inverted lists of [`crate::qgram_index`]. Two
//! distinct grams colliding on a 64-bit hash would overestimate overlap;
//! at 2⁻⁶⁴ per pair this never occurs on real vocabularies, and for the
//! blocking index an overestimate is conservative (extra candidates, never
//! a lost match).
//!
//! ASCII window hashing dispatches through [`crate::simd`] — multiple FNV
//! lanes per vector on AVX2/SSE4.2, bit-identical to the scalar chain.

/// Sentinel used to pad string boundaries; outside any realistic alphabet.
const PAD: char = '\u{1}';

/// FNV-1a over the code points of one length-`q` window. All grams of a
/// profile share one length, so no prefix ambiguity enters the hash.
#[inline]
fn hash_gram(w: &[char]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &c in w {
        h ^= c as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Byte-window variant of [`hash_gram`]. For ASCII text the byte value *is*
/// the code point (and [`PAD`] is byte `0x01`), so this produces bit-for-bit
/// the same hashes as the char path — profiles built on either path compare.
#[inline]
pub(crate) fn hash_gram_bytes(w: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in w {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Reusable buffers for profile construction: the padded string and the raw
/// window hashes before they are sorted into runs. One per probe thread.
#[derive(Debug, Default, Clone)]
pub struct ProfileScratch {
    chars: Vec<char>,
    bytes: Vec<u8>,
    hashes: Vec<u64>,
}

impl ProfileScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The multiset of padded q-grams of a string, as sorted `(hash, count)`
/// runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QGramProfile {
    q: usize,
    /// Sorted by hash; counts are multiplicities.
    grams: Vec<(u64, u32)>,
    total: u32,
}

impl QGramProfile {
    /// Build the profile of `s` for window size `q` (≥ 1).
    pub fn new(s: &str, q: usize) -> Self {
        Self::new_with(s, q, &mut ProfileScratch::new())
    }

    /// [`QGramProfile::new`] reusing `scratch` buffers for the padded string
    /// and unsorted hashes (the profile's own run vector is still allocated;
    /// use [`QGramProfile::rebuild`] to recycle that too).
    pub fn new_with(s: &str, q: usize, scratch: &mut ProfileScratch) -> Self {
        let mut p = QGramProfile {
            q,
            grams: Vec::new(),
            total: 0,
        };
        p.rebuild(s, q, scratch);
        p
    }

    /// Rebuild this profile in place for a new string, reusing every buffer.
    /// ASCII strings are hashed as byte windows (identical hashes — for
    /// ASCII the byte value is the code point); others fall back to chars.
    pub fn rebuild(&mut self, s: &str, q: usize, scratch: &mut ProfileScratch) {
        assert!(q >= 1, "q-gram size must be at least 1");
        self.q = q;
        self.grams.clear();
        let hashes = &mut scratch.hashes;
        hashes.clear();
        if s.is_ascii() {
            let padded = &mut scratch.bytes;
            padded.clear();
            padded.resize(q - 1, PAD as u8);
            padded.extend_from_slice(s.as_bytes());
            padded.resize(padded.len() + q - 1, PAD as u8);
            if padded.len() >= q {
                crate::simd::hash_gram_windows(padded, q, hashes);
            }
        } else {
            let padded = &mut scratch.chars;
            padded.clear();
            padded.resize(q - 1, PAD);
            padded.extend(s.chars());
            padded.resize(padded.len() + q - 1, PAD);
            if padded.len() >= q {
                hashes.extend(padded.windows(q).map(hash_gram));
            }
        }
        self.total = hashes.len() as u32;
        hashes.sort_unstable();
        for &h in hashes.iter() {
            match self.grams.last_mut() {
                Some((g, c)) if *g == h => *c += 1,
                _ => self.grams.push((h, 1)),
            }
        }
    }

    /// Window size.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Character length of the profiled string: a padded profile of a
    /// length-`n` string has exactly `n + q − 1` windows (`q − 1` for the
    /// empty string, whose `n` is 0).
    pub fn char_len(&self) -> usize {
        (self.total as usize).saturating_sub(self.q - 1)
    }

    /// Number of grams (with multiplicity).
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// Is the profile empty (only possible for the empty string with q=1)?
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The sorted `(gram hash, multiplicity)` runs — the inverted index of
    /// [`crate::qgram_index`] builds its posting lists from these.
    pub fn grams(&self) -> &[(u64, u32)] {
        &self.grams
    }

    /// Multiset-intersection size with another profile (sorted merge,
    /// allocation-free).
    pub fn intersection(&self, other: &QGramProfile) -> usize {
        assert_eq!(self.q, other.q, "profiles must share the q value");
        let (a, b) = (&self.grams, &other.grams);
        let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += a[i].1.min(b[j].1) as usize;
                    i += 1;
                    j += 1;
                }
            }
        }
        inter
    }

    /// Multiset Jaccard similarity `|A ∩ B| / |A ∪ B|` in `[0, 1]`.
    pub fn jaccard(&self, other: &QGramProfile) -> f64 {
        let inter = self.intersection(other);
        let union = self.len() + other.len() - inter;
        if union == 0 {
            // Both profiles empty ⇒ both strings empty ⇒ identical.
            return 1.0;
        }
        inter as f64 / union as f64
    }
}

/// One-shot q-gram Jaccard similarity.
pub fn qgram_jaccard(a: &str, b: &str, q: usize) -> f64 {
    QGramProfile::new(a, q).jaccard(&QGramProfile::new(b, q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_strings_score_one() {
        assert_eq!(qgram_jaccard("database", "database", 2), 1.0);
    }

    #[test]
    fn disjoint_strings_score_zero() {
        assert_eq!(qgram_jaccard("aaa", "bbb", 2), 0.0);
    }

    #[test]
    fn empty_vs_empty_is_one() {
        assert_eq!(qgram_jaccard("", "", 2), 1.0);
    }

    #[test]
    fn empty_vs_nonempty_is_zero() {
        assert_eq!(qgram_jaccard("", "abc", 2), 0.0);
    }

    #[test]
    fn profile_counts_multiplicity() {
        // "aaa" with q=2 padded: #a aa aa a# → aa twice.
        let p = QGramProfile::new("aaa", 2);
        assert_eq!(p.len(), 4);
        let other = QGramProfile::new("aa", 2); // #a aa a#
        assert_eq!(p.intersection(&other), 3);
    }

    #[test]
    fn grams_are_sorted_runs() {
        let p = QGramProfile::new("banana", 2);
        assert!(p.grams().windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(
            p.grams().iter().map(|&(_, c)| c as usize).sum::<usize>(),
            p.len()
        );
    }

    #[test]
    fn similar_strings_score_high() {
        let s = qgram_jaccard("Robert Brady", "Robert Bradey", 2);
        assert!(s > 0.7, "got {s}");
        let d = qgram_jaccard("Robert Brady", "Mark Smith", 2);
        assert!(d < 0.2, "got {d}");
    }

    #[test]
    #[should_panic(expected = "q-gram size")]
    fn zero_q_rejected() {
        QGramProfile::new("abc", 0);
    }

    #[test]
    #[should_panic(expected = "share the q value")]
    fn mismatched_q_rejected() {
        QGramProfile::new("a", 2).jaccard(&QGramProfile::new("a", 3));
    }

    #[test]
    fn byte_and_char_gram_hashes_agree_on_ascii() {
        let w = ['\u{1}', 'a', 'Z', '~'];
        let b: Vec<u8> = w.iter().map(|&c| c as u8).collect();
        for q in 1..=4 {
            assert_eq!(hash_gram(&w[..q]), hash_gram_bytes(&b[..q]));
        }
    }

    #[test]
    fn char_len_recovers_string_length() {
        for q in 1..4 {
            for s in ["", "a", "banana", "日本語"] {
                assert_eq!(
                    QGramProfile::new(s, q).char_len(),
                    s.chars().count(),
                    "s={s:?} q={q}"
                );
            }
        }
    }

    proptest! {
        /// The ASCII byte path and the char path hash identically, and a
        /// dirty reused scratch never leaks state between builds.
        #[test]
        fn rebuild_matches_fresh_build(a in "[a-d]{0,12}", b in "[abé日]{0,12}", q in 1usize..4) {
            let mut scratch = ProfileScratch::new();
            let mut p = QGramProfile::new_with(&a, q, &mut scratch); // dirty the scratch
            p.rebuild(&b, q, &mut scratch);
            prop_assert_eq!(p, QGramProfile::new(&b, q));
        }

        #[test]
        fn jaccard_in_unit_interval(a in "[a-d]{0,12}", b in "[a-d]{0,12}", q in 1usize..4) {
            let s = qgram_jaccard(&a, &b, q);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn jaccard_symmetric(a in "[a-d]{0,12}", b in "[a-d]{0,12}", q in 1usize..4) {
            prop_assert_eq!(qgram_jaccard(&a, &b, q).to_bits(), qgram_jaccard(&b, &a, q).to_bits());
        }

        #[test]
        fn jaccard_identity(a in "[a-d]{0,12}", q in 1usize..4) {
            prop_assert_eq!(qgram_jaccard(&a, &a, q), 1.0);
        }

        #[test]
        fn intersection_bounded_by_sizes(a in "[a-d]{0,12}", b in "[a-d]{0,12}", q in 1usize..4) {
            let pa = QGramProfile::new(&a, q);
            let pb = QGramProfile::new(&b, q);
            let i = pa.intersection(&pb);
            prop_assert!(i <= pa.len() && i <= pb.len());
        }

        /// The char-multiset overlap (q=1 profile intersection) upper-bounds
        /// the number of Jaro matching characters — the invariant the Jaro
        /// prefilter of the q-gram index rests on.
        #[test]
        fn one_gram_overlap_bounds_jaro_matches(a in "[a-d]{0,10}", b in "[a-d]{0,10}") {
            let overlap = QGramProfile::new(&a, 1).intersection(&QGramProfile::new(&b, 1));
            let j = crate::jaro::jaro(&a, &b);
            let (la, lb) = (a.chars().count(), b.chars().count());
            if la > 0 && lb > 0 {
                // j ≤ (m/la + m/lb + 1)/3 with m ≤ overlap.
                let m = overlap as f64;
                let ceiling = (m / la as f64 + m / lb as f64 + 1.0) / 3.0;
                prop_assert!(j <= ceiling + 1e-9, "jaro {j} exceeds overlap ceiling {ceiling}");
            }
        }
    }
}
