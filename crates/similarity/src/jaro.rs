//! Jaro and Jaro-Winkler similarity.
//!
//! Jaro distance is one of the similarity predicates the paper lists for MDs
//! (§2.2). Jaro similarity counts matching characters within a sliding
//! window of half the longer string, discounts transpositions, and returns a
//! score in `[0, 1]` (1 = identical). Jaro-Winkler boosts the score for
//! strings sharing a common prefix, which suits person/venue names — the
//! attributes MDs typically compare.
//!
//! The kernel is generic over the symbol slice: ASCII inputs run directly on
//! the byte slices (no decode, no copy) while anything else decodes into
//! reusable char buffers. [`JaroScratch`] owns every buffer, so probe loops
//! pay zero allocation per call; the scratch-free entry points allocate one
//! small scratch internally.
//!
//! ASCII pairs whose second string fits 64 characters take a bitset fast
//! path: per-character position masks replace the per-character flag scan,
//! so claiming the first unclaimed match inside the window is one
//! `and`/`trailing_zeros` instead of a loop. The greedy claim order — and
//! therefore `m`, `t` and the final f64 expression — is exactly the scalar
//! kernel's, so scores stay bit-for-bit identical. The flag scan serves
//! every other input shape and is the bitset path's differential oracle.

/// Reusable buffers for the Jaro kernels. One per probe thread.
#[derive(Debug, Default, Clone)]
pub struct JaroScratch {
    a_chars: Vec<char>,
    b_chars: Vec<char>,
    /// Which positions of `b` have been claimed by a match.
    taken: Vec<bool>,
    /// Indices into `a` of its matched characters, in `a` order.
    matched_a: Vec<u32>,
}

impl JaroScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The Jaro kernel over two symbol slices. Identical arithmetic on the byte
/// and char paths, so the score is bit-for-bit independent of the route.
fn jaro_core<T: PartialEq + Copy>(av: &[T], bv: &[T], scratch: &mut JaroScratch) -> f64 {
    if av.is_empty() && bv.is_empty() {
        return 1.0;
    }
    if av.is_empty() || bv.is_empty() {
        return 0.0;
    }
    let window = (av.len().max(bv.len()) / 2).saturating_sub(1);
    let taken = &mut scratch.taken;
    taken.clear();
    taken.resize(bv.len(), false);
    let matched_a = &mut scratch.matched_a;
    matched_a.clear();
    for (i, ca) in av.iter().enumerate() {
        let hi = (i + window + 1).min(bv.len());
        let lo = i.saturating_sub(window).min(hi);
        for (j, slot) in taken[lo..hi].iter_mut().enumerate() {
            if !*slot && bv[lo + j] == *ca {
                *slot = true;
                matched_a.push(i as u32);
                break;
            }
        }
    }
    let m = matched_a.len();
    if m == 0 {
        return 0.0;
    }
    // Walk matched characters of b in b order against matched a in a order.
    let mut transpositions = 0usize;
    let mut bj = taken.iter().enumerate().filter_map(|(j, t)| t.then_some(j));
    for &ia in matched_a.iter() {
        let j = bj.next().expect("as many matches in b as in a");
        if av[ia as usize] != bv[j] {
            transpositions += 1;
        }
    }
    let transpositions = transpositions / 2;
    let m = m as f64;
    let t = transpositions as f64;
    (m / av.len() as f64 + m / bv.len() as f64 + (m - t) / m) / 3.0
}

/// Bitset Jaro for ASCII inputs with `bv.len() <= 64`: positions of `b` are
/// tracked as one u64 (`taken`) and each byte's occurrence set as a
/// precomputed mask, so the window scan of the scalar kernel collapses to
/// `pos[ca] & !taken & window` + `trailing_zeros`. Claim order matches the
/// scalar kernel's greedy first-unclaimed-match exactly; every count and the
/// final expression are identical, so the score is bit-for-bit the same.
fn jaro_bitset_ascii(av: &[u8], bv: &[u8], scratch: &mut JaroScratch) -> f64 {
    debug_assert!(!av.is_empty() && !bv.is_empty() && bv.len() <= 64);
    let window = (av.len().max(bv.len()) / 2).saturating_sub(1);
    let mut pos = [0u64; 128];
    for (j, &cb) in bv.iter().enumerate() {
        pos[cb as usize] |= 1u64 << j;
    }
    let mut taken = 0u64;
    let matched_a = &mut scratch.matched_a;
    matched_a.clear();
    for (i, &ca) in av.iter().enumerate() {
        let hi = (i + window + 1).min(bv.len());
        let lo = i.saturating_sub(window).min(hi);
        // Bits lo..hi of b still unclaimed and equal to ca.
        let hi_mask = if hi >= 64 { !0u64 } else { (1u64 << hi) - 1 };
        let lo_mask = if lo >= 64 { !0u64 } else { (1u64 << lo) - 1 };
        let avail = pos[ca as usize] & !taken & hi_mask & !lo_mask;
        if avail != 0 {
            taken |= avail & avail.wrapping_neg(); // lowest set bit: first match
            matched_a.push(i as u32);
        }
    }
    let m = matched_a.len();
    if m == 0 {
        return 0.0;
    }
    let mut transpositions = 0usize;
    let mut rest = taken;
    for &ia in matched_a.iter() {
        let j = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        if av[ia as usize] != bv[j] {
            transpositions += 1;
        }
    }
    let transpositions = transpositions / 2;
    let m = m as f64;
    let t = transpositions as f64;
    (m / av.len() as f64 + m / bv.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro similarity in `[0, 1]`, reusing `scratch` buffers.
pub fn jaro_with(a: &str, b: &str, scratch: &mut JaroScratch) -> f64 {
    if a.is_ascii() && b.is_ascii() {
        let (av, bv) = (a.as_bytes(), b.as_bytes());
        if !av.is_empty() && !bv.is_empty() && bv.len() <= 64 {
            return jaro_bitset_ascii(av, bv, scratch);
        }
        return jaro_core(av, bv, scratch);
    }
    let JaroScratch {
        a_chars, b_chars, ..
    } = scratch;
    a_chars.clear();
    a_chars.extend(a.chars());
    b_chars.clear();
    b_chars.extend(b.chars());
    let (av, bv) = (std::mem::take(a_chars), std::mem::take(b_chars));
    let score = jaro_core(&av, &bv, scratch);
    scratch.a_chars = av;
    scratch.b_chars = bv;
    score
}

/// Jaro similarity in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    jaro_with(a, b, &mut JaroScratch::new())
}

/// [`jaro_winkler`] reusing `scratch` buffers.
pub fn jaro_winkler_with(a: &str, b: &str, scratch: &mut JaroScratch) -> f64 {
    let j = jaro_with(a, b, scratch);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

/// Jaro-Winkler similarity with the standard prefix scale `p = 0.1` and
/// prefix cap 4.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    jaro_winkler_with(a, b, &mut JaroScratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn identical_strings_score_one() {
        assert!(close(jaro("MARTHA", "MARTHA"), 1.0));
        assert!(close(jaro_winkler("x", "x"), 1.0));
    }

    #[test]
    fn disjoint_strings_score_zero() {
        assert!(close(jaro("abc", "xyz"), 0.0));
    }

    #[test]
    fn textbook_values() {
        // Classic worked examples from the record-linkage literature.
        assert!(close(jaro("MARTHA", "MARHTA"), 0.944444444444444));
        assert!(close(jaro("DIXON", "DICKSONX"), 0.7666666666666666));
        assert!(close(jaro_winkler("MARTHA", "MARHTA"), 0.9611111111111111));
        assert!(close(jaro_winkler("DIXON", "DICKSONX"), 0.8133333333333332));
    }

    #[test]
    fn empty_string_cases() {
        assert!(close(jaro("", ""), 1.0));
        assert!(close(jaro("", "abc"), 0.0));
        assert!(close(jaro("abc", ""), 0.0));
    }

    #[test]
    fn winkler_boosts_shared_prefix() {
        let j = jaro("Robert", "Robbed");
        let jw = jaro_winkler("Robert", "Robbed");
        assert!(jw > j, "jw {jw} should exceed jaro {j} on shared prefix");
    }

    #[test]
    fn paper_example_first_names_are_similar() {
        // MD ψ of Example 1.1 matches FN "Bob"/"Robert" only after
        // normalization; but "M."/"Mark" style abbreviations rely on
        // Jaro-Winkler scoring reasonably high.
        assert!(jaro_winkler("Mark", "Max") > 0.7);
    }

    #[test]
    fn bitset_capacity_boundaries() {
        // 63/64 chars ride the bitset; 65 must fall back — all three agree
        // with the scalar kernel through the dispatched entry point.
        let mut scratch = JaroScratch::new();
        for blen in [1usize, 63, 64, 65] {
            let a: String = (0..70).map(|i| (b'a' + (i % 5) as u8) as char).collect();
            let b: String = (0..blen).map(|i| (b'a' + (i % 4) as u8) as char).collect();
            let dispatched = jaro_with(&a, &b, &mut scratch);
            let scalar = jaro_core(a.as_bytes(), b.as_bytes(), &mut scratch);
            assert_eq!(dispatched.to_bits(), scalar.to_bits(), "blen={blen}");
        }
    }

    #[test]
    fn unicode_falls_back_to_chars() {
        assert!(close(jaro("café", "café"), 1.0));
        assert!(jaro("café", "cafe") > 0.8);
    }

    proptest! {
        #[test]
        fn bounded_zero_one(a in "[a-e]{0,10}", b in "[a-e]{0,10}") {
            let s = jaro(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
            let w = jaro_winkler(&a, &b);
            prop_assert!((0.0..=1.0).contains(&w));
        }

        #[test]
        fn symmetric(a in "[a-e]{0,10}", b in "[a-e]{0,10}") {
            prop_assert!(close(jaro(&a, &b), jaro(&b, &a)));
        }

        #[test]
        fn identity_scores_one(a in "[a-e]{1,10}") {
            prop_assert!(close(jaro(&a, &a), 1.0));
        }

        #[test]
        fn winkler_dominates_jaro(a in "[a-e]{0,10}", b in "[a-e]{0,10}") {
            prop_assert!(jaro_winkler(&a, &b) + 1e-12 >= jaro(&a, &b));
        }

        /// The u64-bitset matcher scores bit-identically to the scalar
        /// flag-scan kernel on dense low-alphabet strings (many repeats and
        /// transpositions) right up to the 64-char capacity boundary.
        #[test]
        fn bitset_matches_flag_scan(a in "[a-e]{1,70}", b in "[a-e]{1,64}") {
            let mut scratch = JaroScratch::new();
            let bitset = jaro_bitset_ascii(a.as_bytes(), b.as_bytes(), &mut scratch);
            let scalar = jaro_core(a.as_bytes(), b.as_bytes(), &mut scratch);
            prop_assert_eq!(bitset.to_bits(), scalar.to_bits());
        }

        /// Same pin over the full ASCII range (spaces, punctuation, case).
        #[test]
        fn bitset_matches_flag_scan_full_ascii(a in "[ -~]{1,70}", b in "[ -~]{1,64}") {
            let mut scratch = JaroScratch::new();
            let bitset = jaro_bitset_ascii(a.as_bytes(), b.as_bytes(), &mut scratch);
            let scalar = jaro_core(a.as_bytes(), b.as_bytes(), &mut scratch);
            prop_assert_eq!(bitset.to_bits(), scalar.to_bits());
        }

        /// Byte path (ASCII) and char path (forced through the decode
        /// branch) score bit-identically, and a dirty reused scratch never
        /// changes a result.
        #[test]
        fn byte_and_char_paths_agree(a in "[a-e]{0,10}", b in "[a-e]{0,10}") {
            let mut scratch = JaroScratch::new();
            let _ = jaro_with("dirté", "scratché", &mut scratch); // dirty it
            let byte = jaro_with(&a, &b, &mut scratch);
            let av: Vec<char> = a.chars().collect();
            let bv: Vec<char> = b.chars().collect();
            let chars = jaro_core(&av, &bv, &mut scratch);
            prop_assert_eq!(byte.to_bits(), chars.to_bits());
            prop_assert_eq!(byte.to_bits(), jaro(&a, &b).to_bits());
        }
    }
}
