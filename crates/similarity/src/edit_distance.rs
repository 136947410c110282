//! Levenshtein edit distance: bit-parallel Myers kernel with an Ukkonen
//! cutoff, plus the reference DP implementations it is parity-tested against.
//!
//! The paper defines similarity for MDs as "the minimum number of
//! single-character insertions, deletions and substitutions needed to
//! convert a value from v to v′" (§8), with two strings similar when the
//! distance is within a pre-defined threshold `K`. Threshold checks dominate
//! the matching workload, so the production kernel is Myers' bit-vector
//! algorithm: one DP *column* per text character, all pattern rows advanced
//! at once as carry-propagating word operations — O(⌈m/64⌉·n) words instead
//! of O(m·n) cells. Threshold checks add the Ukkonen cutoff: after column
//! `j` the final distance is at least `score − (n − j)`, so a probe that can
//! no longer finish within `K` exits early.
//!
//! Three entry tiers, fastest first:
//!
//! 1. ASCII strings with the shorter side ≤ 64 chars take a zero-allocation
//!    single-word path with a stack `Peq` table ([`levenshtein_bounded`]).
//! 2. [`EditScratch`] callers reuse pattern bitmaps and block vectors across
//!    calls ([`levenshtein_bounded_with`]).
//! 3. [`MyersPattern`] lets a caller build the pattern bitmaps once and
//!    stream many texts against it — the shape of a compiled master-index
//!    probe (`MatchScratch::compile` in `uniclean-rules`), whose value is
//!    the pattern for its columnar sweep and its verification alike.
//!
//! The pre-existing two-row and banded DPs survive in
//! [`reference`](mod@reference) as the oracle for the differential
//! proptests and the `similarity` criterion bench's baseline.

/// Pattern bitmaps (`Peq`) for Myers' algorithm, reusable across texts.
///
/// The pattern occupies `⌈m/64⌉` 64-bit blocks; bit `i` of `Peq[c]` is set
/// when pattern character `i` equals `c`. ASCII patterns use a dense
/// 128-row table indexed by byte; others a sorted `(char, slot)` map with a
/// shared all-zero row for characters absent from the pattern.
#[derive(Debug, Clone, Default)]
pub struct MyersPattern {
    /// Pattern length in characters.
    m: usize,
    /// Number of 64-bit blocks covering the pattern (≥ 1 when `m > 0`).
    blocks: usize,
    /// Dense ASCII table (`128 * blocks`) or per-distinct-char rows.
    peq: Vec<u64>,
    /// Sorted distinct pattern chars; row `i` lives at `peq[i*blocks..]`.
    /// Empty for ASCII patterns (the dense table is used instead).
    chars: Vec<char>,
    /// All-zero row returned for characters the pattern never contains.
    zeros: Vec<u64>,
}

impl MyersPattern {
    /// Build the bitmaps for `pattern`.
    pub fn new(pattern: &str) -> Self {
        let mut p = Self::default();
        p.build(pattern);
        p
    }

    /// Rebuild in place for a new pattern, reusing the allocations.
    pub fn build(&mut self, pattern: &str) {
        self.peq.clear();
        self.chars.clear();
        if pattern.is_ascii() {
            self.m = pattern.len();
            self.blocks = self.m.div_ceil(64).max(1);
            self.peq.resize(128 * self.blocks, 0);
            for (i, &b) in pattern.as_bytes().iter().enumerate() {
                self.peq[b as usize * self.blocks + i / 64] |= 1u64 << (i % 64);
            }
        } else {
            self.chars.extend(pattern.chars());
            self.m = self.chars.len();
            self.blocks = self.m.div_ceil(64).max(1);
            self.chars.sort_unstable();
            self.chars.dedup();
            self.peq.resize(self.chars.len() * self.blocks, 0);
            for (i, c) in pattern.chars().enumerate() {
                let slot = self.chars.binary_search(&c).expect("char interned above");
                self.peq[slot * self.blocks + i / 64] |= 1u64 << (i % 64);
            }
        }
        self.zeros.clear();
        self.zeros.resize(self.blocks, 0);
    }

    /// Pattern length in characters.
    pub fn len(&self) -> usize {
        self.m
    }

    /// Is the pattern the empty string?
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    #[inline]
    fn row_ascii(&self, byte: u8) -> &[u64] {
        let at = byte as usize * self.blocks;
        &self.peq[at..at + self.blocks]
    }

    #[inline]
    fn row_char(&self, c: char) -> &[u64] {
        if self.chars.is_empty() {
            // ASCII table: non-ASCII text chars never match the pattern.
            if (c as u32) < 128 {
                self.row_ascii(c as u8)
            } else {
                &self.zeros
            }
        } else {
            match self.chars.binary_search(&c) {
                Ok(slot) => {
                    let at = slot * self.blocks;
                    &self.peq[at..at + self.blocks]
                }
                Err(_) => &self.zeros,
            }
        }
    }

    /// `Some(d)` iff the edit distance between the pattern and `text` is
    /// `d ≤ max`. Block-based Myers with the Ukkonen cutoff; `scratch`
    /// provides the per-call `Pv`/`Mv` block vectors (its own pattern slot
    /// is untouched, so a cached `MyersPattern` can be probed while the
    /// scratch is borrowed).
    pub fn distance_bounded(
        &self,
        text: &str,
        max: usize,
        scratch: &mut EditScratch,
    ) -> Option<usize> {
        let n = if text.is_ascii() {
            text.len()
        } else {
            text.chars().count()
        };
        if self.m.abs_diff(n) > max {
            return None;
        }
        if self.m == 0 {
            return Some(n); // n ≤ max by the length filter
        }
        if n == 0 {
            return Some(self.m);
        }
        // Cap the cutoff threshold so `max + remaining` cannot overflow.
        let max = max.min(self.m + n);
        if self.blocks == 1 {
            self.distance_single_word(text, n, max)
        } else {
            self.distance_blocks(text, n, max, &mut scratch.pv, &mut scratch.mv)
        }
    }

    /// Single-word Myers (`m ≤ 64`): the whole column fits one u64.
    fn distance_single_word(&self, text: &str, n: usize, max: usize) -> Option<usize> {
        let last = 1u64 << (self.m - 1);
        let mut pv = !0u64;
        let mut mv = 0u64;
        let mut score = self.m;
        let mut j = 0usize;
        let mut step = |eq: u64| -> bool {
            let xv = eq | mv;
            let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
            let mut ph = mv | !(xh | pv);
            let mut mh = pv & xh;
            if ph & last != 0 {
                score += 1;
            } else if mh & last != 0 {
                score -= 1;
            }
            ph = (ph << 1) | 1;
            mh <<= 1;
            pv = mh | !(xv | ph);
            mv = ph & xv;
            j += 1;
            score > max + (n - j) // Ukkonen: cannot finish within max
        };
        if text.is_ascii() && self.chars.is_empty() {
            for &b in text.as_bytes() {
                if step(self.row_ascii(b)[0]) {
                    return None;
                }
            }
        } else {
            for c in text.chars() {
                if step(self.row_char(c)[0]) {
                    return None;
                }
            }
        }
        (score <= max).then_some(score)
    }

    /// Block-based Myers (`m > 64`): carries chain block-to-block through
    /// the horizontal delta `hin ∈ {-1, 0, +1}`; the score is tracked at
    /// bit `(m−1) mod 64` of the last block. Garbage above that bit is
    /// harmless: additions and shifts only propagate carries upward.
    fn distance_blocks(
        &self,
        text: &str,
        n: usize,
        max: usize,
        pv: &mut Vec<u64>,
        mv: &mut Vec<u64>,
    ) -> Option<usize> {
        let blocks = self.blocks;
        let last_block = blocks - 1;
        let last = 1u64 << ((self.m - 1) % 64);
        pv.clear();
        pv.resize(blocks, !0u64);
        mv.clear();
        mv.resize(blocks, 0);
        let mut score = self.m;
        let mut j = 0usize;
        let mut column = |row: &[u64]| -> bool {
            let mut hin: i32 = 1; // boundary row: D[0][j] − D[0][j−1] = +1
            for b in 0..blocks {
                let mut eq = row[b];
                let pvb = pv[b];
                let mvb = mv[b];
                let xv = eq | mvb;
                if hin < 0 {
                    eq |= 1;
                }
                let xh = (((eq & pvb).wrapping_add(pvb)) ^ pvb) | eq;
                let mut ph = mvb | !(xh | pvb);
                let mut mh = pvb & xh;
                if b == last_block {
                    if ph & last != 0 {
                        score += 1;
                    } else if mh & last != 0 {
                        score -= 1;
                    }
                }
                let hout = ((ph >> 63) & 1) as i32 - ((mh >> 63) & 1) as i32;
                ph <<= 1;
                mh <<= 1;
                if hin > 0 {
                    ph |= 1;
                } else if hin < 0 {
                    mh |= 1;
                }
                pv[b] = mh | !(xv | ph);
                mv[b] = ph & xv;
                hin = hout;
            }
            j += 1;
            score > max + (n - j)
        };
        if text.is_ascii() && self.chars.is_empty() {
            for &b in text.as_bytes() {
                if column(self.row_ascii(b)) {
                    return None;
                }
            }
        } else {
            for c in text.chars() {
                if column(self.row_char(c)) {
                    return None;
                }
            }
        }
        (score <= max).then_some(score)
    }

    /// Column-at-a-time threshold sweep: probe this one compiled pattern
    /// against an entire column of texts, emitting one verdict bit per text
    /// into `out` — bit `i` is set iff `lev(pattern, texts[i]) ≤ max`.
    ///
    /// This is the driver behind the engine's `~lev` verification: the
    /// probe value is compiled **once** and every distinct master value the
    /// count filter admits streams through it, instead of compiling (or
    /// cache-probing) a `MyersPattern` per master value and re-dispatching
    /// per pair. The per-text work is exactly [`Self::distance_bounded`]
    /// with its entry branches hoisted out of the loop:
    ///
    /// - the length window `|m − n| ≤ max` prefilters each text before any
    ///   column is computed (the count filter already bounds lengths, so
    ///   this mostly catches the window edges);
    /// - the single-word vs. block dispatch and the ASCII-pattern check are
    ///   resolved once for the whole column;
    /// - `scratch` provides the block vectors, so the sweep allocates
    ///   nothing beyond the verdict bitmap's words;
    /// - when the pattern is ASCII with `m ≤ 64` and the CPU has AVX2
    ///   ([`crate::simd::detected_level`]), ASCII texts are swept **eight
    ///   at a time** in two groups of four u64 lanes: the scalar Myers
    ///   recurrence is latency-bound on its serial word operations, so
    ///   running independent texts through one carry chain recovers most of
    ///   that dead issue width. A partial batch of fewer than eight texts
    ///   takes the scalar single-word kernel.
    ///
    /// Verdicts are **bit-identical** to calling [`Self::distance_bounded`]
    /// per text (`is_some()`), at any dispatch level — the per-text kernel
    /// is the sweep's differential oracle. (The lane kernel keeps the exact
    /// per-lane Ukkonen cutoff and snapshots each lane's score the step its
    /// text ends, so even the early exits agree with the scalar kernel.)
    pub fn distance_column<I>(
        &self,
        texts: I,
        max: usize,
        scratch: &mut EditScratch,
        out: &mut ColumnVerdicts,
    ) where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        out.clear();
        let single = self.blocks == 1;
        #[cfg(target_arch = "x86_64")]
        let lanes = single
            && self.chars.is_empty()
            && self.m > 0
            && crate::simd::detected_level() == crate::simd::SimdLevel::Avx2;
        #[cfg(not(target_arch = "x86_64"))]
        let lanes = false;
        // Lane staging area: verdict slot + the text waiting to be swept.
        let mut buf: [Option<(usize, I::Item)>; LANE_BUF] = std::array::from_fn(|_| None);
        let mut buffered = 0usize;
        for t in texts {
            let text = t.as_ref();
            let n = if text.is_ascii() {
                text.len()
            } else {
                text.chars().count()
            };
            if self.m.abs_diff(n) > max {
                out.push(false);
                continue;
            }
            if self.m == 0 || n == 0 {
                // The length filter already bounded the nonzero side by max.
                out.push(true);
                continue;
            }
            if lanes && text.is_ascii() {
                // Reserve the verdict bit now (sweeps fill it later), so
                // bitmap order still matches text order.
                buf[buffered] = Some((out.len(), t));
                buffered += 1;
                out.push(false);
                if buffered == LANE_BUF {
                    self.flush_lanes(&mut buf, &mut buffered, max, out);
                }
                continue;
            }
            let cap = max.min(self.m + n);
            let hit = if single {
                self.distance_single_word(text, n, cap).is_some()
            } else {
                self.distance_blocks(text, n, cap, &mut scratch.pv, &mut scratch.mv)
                    .is_some()
            };
            out.push(hit);
        }
        self.flush_lanes(&mut buf, &mut buffered, max, out);
    }

    /// Drain the lane staging area: a full house goes through the AVX2
    /// sweep, a partial tail through the scalar single-word kernel.
    fn flush_lanes<T: AsRef<str>>(
        &self,
        buf: &mut [Option<(usize, T)>; LANE_BUF],
        buffered: &mut usize,
        max: usize,
        out: &mut ColumnVerdicts,
    ) {
        #[cfg(target_arch = "x86_64")]
        if *buffered == LANE_BUF {
            let texts: [&[u8]; LANE_BUF] = std::array::from_fn(|i| {
                buf[i]
                    .as_ref()
                    .expect("full lanes staged")
                    .1
                    .as_ref()
                    .as_bytes()
            });
            // SAFETY: `distance_column` only stages lanes after
            // `detected_level()` confirmed AVX2 support on this CPU.
            let verdicts = unsafe { lanes::sweep_avx2(&self.peq, self.m, max, texts) };
            for (slot, hit) in buf.iter_mut().zip(verdicts) {
                let (idx, _) = slot.take().expect("staged lane");
                out.set(idx, hit);
            }
            *buffered = 0;
            return;
        }
        for slot in buf.iter_mut().take(*buffered) {
            let (idx, t) = slot.take().expect("staged lane");
            let text = t.as_ref();
            let n = text.len();
            let cap = max.min(self.m + n);
            out.set(idx, self.distance_single_word(text, n, cap).is_some());
        }
        *buffered = 0;
    }
}

/// Lane staging capacity for [`MyersPattern::distance_column`] — the AVX2
/// sweep's lane count on x86-64, a dormant buffer elsewhere.
#[cfg(target_arch = "x86_64")]
const LANE_BUF: usize = lanes::LANES;
#[cfg(not(target_arch = "x86_64"))]
const LANE_BUF: usize = 8;

#[cfg(target_arch = "x86_64")]
mod lanes {
    use std::arch::x86_64::*;

    /// How many texts one [`sweep_avx2`] call processes.
    pub(super) const LANES: usize = 8;

    /// Eight-lane single-word Myers: one compiled ASCII pattern (dense
    /// `peq` table, `1 ≤ m ≤ 64`) swept against eight ASCII texts
    /// simultaneously — two 256-bit register groups of four u64 lanes, each
    /// lane holding one text's `Pv`/`Mv` column state. The scalar recurrence
    /// is latency-bound on its serial word operations, so the two groups'
    /// independent carry chains overlap in the pipeline. Returns
    /// `verdict[i]` ⇔ `MyersPattern::distance_single_word(texts[i], …)`
    /// would return `Some`.
    ///
    /// Exactness notes, matching the scalar kernel:
    /// - `Ph`/`Mh` bits are disjoint, so the scalar `if/else if` score
    ///   update equals the unconditional `+bit(Ph) − bit(Mh)` done here;
    /// - each lane's score is snapshotted on the step its text ends; later
    ///   steps (running on `Eq = 0` until the longest lane finishes) cannot
    ///   perturb a finished lane's verdict;
    /// - the Ukkonen cutoff (`score + j > cap + n`) latches per lane into a
    ///   `dead` mask, checked every other step to keep the hot loop lean —
    ///   sound at any cadence, because the cutoff condition is a lower
    ///   bound on the final score: a lane it would kill that runs to its
    ///   end instead still finishes with `score > cap`, the same verdict.
    ///   The sweep exits once every lane is dead or finished.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sweep_avx2(
        peq: &[u64],
        m: usize,
        max: usize,
        texts: [&[u8]; LANES],
    ) -> [bool; LANES] {
        debug_assert!((1..=64).contains(&m) && peq.len() == 128);
        let lens: [i64; LANES] = std::array::from_fn(|i| texts[i].len() as i64);
        let caps: [i64; LANES] = std::array::from_fn(|i| max.min(m + texts[i].len()) as i64);
        let bases: [i64; LANES] = std::array::from_fn(|i| caps[i] + lens[i]);
        let max_n = texts.iter().map(|t| t.len()).max().expect("8 lanes");

        let load = |a: &[i64]| _mm256_loadu_si256(a.as_ptr() as *const __m256i);
        let len_v = [load(&lens[..4]), load(&lens[4..])];
        let base_v = [load(&bases[..4]), load(&bases[4..])];
        let ones = _mm256_set1_epi64x(-1);
        let one = _mm256_set1_epi64x(1);
        let last = _mm256_set1_epi64x((1u64 << (m - 1)) as i64);
        let last_shift = _mm_cvtsi32_si128((m - 1) as i32);
        let zero = _mm256_setzero_si256();
        let mut pv = [ones; 2];
        let mut mv = [zero; 2];
        let mut score = [_mm256_set1_epi64x(m as i64); 2];
        let mut fin = [zero; 2];
        let mut dead = [zero; 2];
        let mut j_v = zero;

        for j in 0..max_n {
            // Finished lanes read Eq = 0; their state churns harmlessly
            // because their score is already snapshotted in `fin`.
            let eqs: [i64; LANES] =
                std::array::from_fn(|i| texts[i].get(j).map_or(0, |&b| peq[b as usize]) as i64);
            let j0_v = j_v;
            j_v = _mm256_add_epi64(j_v, one); // j_v is now j+1
            for g in 0..2 {
                let eq = load(&eqs[g * 4..g * 4 + 4]);
                let xv = _mm256_or_si256(eq, mv[g]);
                let xh = _mm256_or_si256(
                    _mm256_xor_si256(_mm256_add_epi64(_mm256_and_si256(eq, pv[g]), pv[g]), pv[g]),
                    eq,
                );
                let mut ph =
                    _mm256_or_si256(mv[g], _mm256_andnot_si256(_mm256_or_si256(xh, pv[g]), ones));
                let mut mh = _mm256_and_si256(pv[g], xh);
                let inc = _mm256_srl_epi64(_mm256_and_si256(ph, last), last_shift);
                let dec = _mm256_srl_epi64(_mm256_and_si256(mh, last), last_shift);
                score[g] = _mm256_sub_epi64(_mm256_add_epi64(score[g], inc), dec);
                ph = _mm256_or_si256(_mm256_slli_epi64(ph, 1), one);
                mh = _mm256_slli_epi64(mh, 1);
                pv[g] = _mm256_or_si256(mh, _mm256_andnot_si256(_mm256_or_si256(xv, ph), ones));
                mv[g] = _mm256_and_si256(ph, xv);
                let ended = _mm256_cmpeq_epi64(len_v[g], j_v);
                fin[g] = _mm256_blendv_epi8(fin[g], score[g], ended);
            }
            if j % 2 == 1 {
                let mut alive = zero;
                for g in 0..2 {
                    // `real`: did this step consume an actual char (j < n)?
                    let real = _mm256_cmpgt_epi64(len_v[g], j0_v);
                    let cut = _mm256_cmpgt_epi64(_mm256_add_epi64(score[g], j_v), base_v[g]);
                    dead[g] = _mm256_or_si256(dead[g], _mm256_and_si256(cut, real));
                    let pending = _mm256_cmpgt_epi64(len_v[g], j_v);
                    alive = _mm256_or_si256(alive, _mm256_andnot_si256(dead[g], pending));
                }
                if _mm256_testz_si256(alive, alive) != 0 {
                    break;
                }
            }
        }
        let mut fins = [0i64; LANES];
        let mut deads = [0i64; LANES];
        for g in 0..2 {
            _mm256_storeu_si256(fins.as_mut_ptr().add(g * 4) as *mut __m256i, fin[g]);
            _mm256_storeu_si256(deads.as_mut_ptr().add(g * 4) as *mut __m256i, dead[g]);
        }
        std::array::from_fn(|i| deads[i] == 0 && fins[i] <= caps[i])
    }
}

/// Verdict bitmap emitted by [`MyersPattern::distance_column`]: one bit per
/// swept text, packed 64 to a word. Reusable across sweeps.
#[derive(Debug, Default, Clone)]
pub struct ColumnVerdicts {
    bits: Vec<u64>,
    len: usize,
}

impl ColumnVerdicts {
    /// Fresh empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Remove all verdicts, keeping the allocation.
    pub fn clear(&mut self) {
        self.bits.clear();
        self.len = 0;
    }

    /// Append one verdict.
    #[inline]
    pub fn push(&mut self, hit: bool) {
        if self.len.is_multiple_of(64) {
            self.bits.push(0);
        }
        if hit {
            *self.bits.last_mut().expect("word pushed above") |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Overwrite verdict `i` (must already have been pushed).
    #[inline]
    pub fn set(&mut self, i: usize, hit: bool) {
        assert!(i < self.len, "verdict index {i} out of range {}", self.len);
        let word = &mut self.bits[i / 64];
        if hit {
            *word |= 1u64 << (i % 64);
        } else {
            *word &= !(1u64 << (i % 64));
        }
    }

    /// Verdict for text `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "verdict index {i} out of range {}", self.len);
        self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of verdicts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the bitmap empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of positive verdicts.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of the positive verdicts, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors((word != 0).then_some(word), |&x| {
                let rest = x & (x - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |x| w * 64 + x.trailing_zeros() as usize)
        })
    }
}

/// Reusable buffers for the Myers kernels: a transient pattern slot plus the
/// `Pv`/`Mv` block vectors of the long-pattern path. One per probe thread;
/// embedded in the engine's `ProbeScratch`.
#[derive(Debug, Default)]
pub struct EditScratch {
    pattern: MyersPattern,
    pv: Vec<u64>,
    mv: Vec<u64>,
}

impl EditScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Zero-allocation single-word Myers for ASCII pattern/text with `m ≤ 64`:
/// the `Peq` table lives on the stack.
fn myers_ascii_small(pat: &[u8], text: &[u8], max: usize) -> Option<usize> {
    debug_assert!(!pat.is_empty() && pat.len() <= 64);
    let m = pat.len();
    let n = text.len();
    let max = max.min(m + n);
    let mut peq = [0u64; 128];
    for (i, &c) in pat.iter().enumerate() {
        peq[c as usize] |= 1u64 << i;
    }
    let last = 1u64 << (m - 1);
    let mut pv = !0u64;
    let mut mv = 0u64;
    let mut score = m;
    for (j, &c) in text.iter().enumerate() {
        let eq = peq[c as usize];
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let mut ph = mv | !(xh | pv);
        let mut mh = pv & xh;
        if ph & last != 0 {
            score += 1;
        } else if mh & last != 0 {
            score -= 1;
        }
        ph = (ph << 1) | 1;
        mh <<= 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
        if score > max + (n - j - 1) {
            return None;
        }
    }
    (score <= max).then_some(score)
}

#[inline]
fn bounded_impl(a: &str, b: &str, max: usize, scratch: Option<&mut EditScratch>) -> Option<usize> {
    // Pattern = shorter string: fewest blocks, widest Ukkonen band.
    let (pat, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if pat.is_empty() {
        let n = if text.is_ascii() {
            text.len()
        } else {
            text.chars().count()
        };
        return (n <= max).then_some(n);
    }
    if pat.is_ascii() && text.is_ascii() {
        if text.len() - pat.len() > max {
            return None;
        }
        if pat.len() <= 64 {
            return myers_ascii_small(pat.as_bytes(), text.as_bytes(), max);
        }
    }
    match scratch {
        Some(s) => {
            // Split-borrow: rebuild the scratch pattern, then run it with
            // the scratch's own block vectors.
            let EditScratch { pattern, pv, mv } = s;
            pattern.build(pat);
            let n = if text.is_ascii() {
                text.len()
            } else {
                text.chars().count()
            };
            if pattern.m.abs_diff(n) > max {
                return None;
            }
            if n == 0 {
                return Some(pattern.m);
            }
            let max = max.min(pattern.m + n);
            if pattern.blocks == 1 {
                pattern.distance_single_word(text, n, max)
            } else {
                pattern.distance_blocks(text, n, max, pv, mv)
            }
        }
        None => {
            let mut local = EditScratch::new();
            bounded_impl(a, b, max, Some(&mut local))
        }
    }
}

/// Full Levenshtein distance.
pub fn levenshtein(a: &str, b: &str) -> usize {
    // An unbounded probe is a bounded probe whose threshold cannot trip.
    levenshtein_bounded(a, b, a.len() + b.len()).expect("distance ≤ len(a)+len(b)")
}

/// Full Levenshtein distance, reusing `scratch` buffers.
pub fn levenshtein_with(a: &str, b: &str, scratch: &mut EditScratch) -> usize {
    bounded_impl(a, b, a.len() + b.len(), Some(scratch)).expect("distance ≤ len(a)+len(b)")
}

/// Threshold Levenshtein: `Some(d)` iff the distance `d ≤ max`, `None`
/// otherwise. Myers bit-vector kernel with the Ukkonen early exit.
pub fn levenshtein_bounded(a: &str, b: &str, max: usize) -> Option<usize> {
    bounded_impl(a, b, max, None)
}

/// [`levenshtein_bounded`] reusing `scratch` buffers (no allocation for any
/// input shape once the scratch is warm).
pub fn levenshtein_bounded_with(
    a: &str,
    b: &str,
    max: usize,
    scratch: &mut EditScratch,
) -> Option<usize> {
    bounded_impl(a, b, max, Some(scratch))
}

/// Is `levenshtein(a, b) ≤ max`? The predicate form used by MDs.
pub fn within_edit_distance(a: &str, b: &str, max: usize) -> bool {
    levenshtein_bounded(a, b, max).is_some()
}

/// [`within_edit_distance`] reusing `scratch` buffers.
pub fn within_edit_distance_with(a: &str, b: &str, max: usize, scratch: &mut EditScratch) -> bool {
    levenshtein_bounded_with(a, b, max, scratch).is_some()
}

/// The scalar DP implementations the bit-parallel kernels replaced, kept as
/// the oracle for differential tests and the benchmark baseline.
pub mod reference {
    /// Full Levenshtein distance (two-row DP).
    pub fn levenshtein_dp(a: &str, b: &str) -> usize {
        let av: Vec<char> = a.chars().collect();
        let bv: Vec<char> = b.chars().collect();
        levenshtein_chars(&av, &bv)
    }

    fn levenshtein_chars(av: &[char], bv: &[char]) -> usize {
        if av.is_empty() {
            return bv.len();
        }
        if bv.is_empty() {
            return av.len();
        }
        let (short, long) = if av.len() <= bv.len() {
            (av, bv)
        } else {
            (bv, av)
        };
        let mut prev: Vec<usize> = (0..=short.len()).collect();
        let mut cur = vec![0usize; short.len() + 1];
        for (i, lc) in long.iter().enumerate() {
            cur[0] = i + 1;
            for (j, sc) in short.iter().enumerate() {
                let sub = prev[j] + usize::from(lc != sc);
                cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[short.len()]
    }

    /// Banded Levenshtein: returns `Some(d)` iff the distance `d ≤ max`,
    /// `None` otherwise (early-exits as soon as the whole band exceeds
    /// `max`). O(K·min(|a|,|b|)) — the pre-Myers production kernel.
    pub fn levenshtein_bounded_dp(a: &str, b: &str, max: usize) -> Option<usize> {
        let av: Vec<char> = a.chars().collect();
        let bv: Vec<char> = b.chars().collect();
        // Cheap length filter: |len(a) - len(b)| is a lower bound.
        if av.len().abs_diff(bv.len()) > max {
            return None;
        }
        if max == 0 {
            return (av == bv).then_some(0);
        }
        let (short, long) = if av.len() <= bv.len() {
            (&av, &bv)
        } else {
            (&bv, &av)
        };
        let n = short.len();
        // Sentinel: one past the threshold, saturating to dodge overflow.
        let inf = max + 1;
        let mut prev: Vec<usize> = (0..=n).map(|j| if j <= max { j } else { inf }).collect();
        let mut cur = vec![inf; n + 1];
        for (i, lc) in long.iter().enumerate() {
            // Band for row i+1: columns within `max` of the diagonal.
            let row = i + 1;
            let lo = row.saturating_sub(max);
            let hi = (row + max).min(n);
            cur[lo.saturating_sub(1)] = if lo == 0 { row } else { inf };
            if lo == 0 {
                cur[0] = row.min(inf);
            }
            let mut best = inf;
            for j in lo.max(1)..=hi {
                let sc = short[j - 1];
                let sub = prev[j - 1].saturating_add(usize::from(*lc != sc));
                let del = prev[j].saturating_add(1);
                let ins = cur[j - 1].saturating_add(1);
                let v = sub.min(del).min(ins).min(inf);
                cur[j] = v;
                best = best.min(v);
            }
            if lo == 0 {
                best = best.min(cur[0]);
            }
            if best > max {
                return None;
            }
            std::mem::swap(&mut prev, &mut cur);
            // Reset the cells just outside next row's band so stale values
            // from two rows ago cannot leak in.
            let next = row + 1;
            let nlo = next.saturating_sub(max);
            if nlo >= 1 {
                cur[nlo - 1] = inf;
            }
            if let Some(slot) = cur.get_mut((next + max).min(n) + 1..) {
                for s in slot.iter_mut().take(1) {
                    *s = inf;
                }
            }
        }
        let d = prev[n];
        (d <= max).then_some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn classic_cases() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("Bob", "Robert"), 4);
        assert_eq!(levenshtein("Mark", "Max"), 2);
        assert_eq!(levenshtein("M.", "Mark"), 3);
    }

    #[test]
    fn unicode_is_character_level() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("日本語", "日本"), 1);
    }

    #[test]
    fn bounded_agrees_when_within() {
        assert_eq!(levenshtein_bounded("kitten", "sitting", 3), Some(3));
        assert_eq!(levenshtein_bounded("kitten", "sitting", 5), Some(3));
        assert_eq!(levenshtein_bounded("abc", "abc", 0), Some(0));
    }

    #[test]
    fn bounded_rejects_when_beyond() {
        assert_eq!(levenshtein_bounded("kitten", "sitting", 2), None);
        assert_eq!(levenshtein_bounded("abc", "xyz", 2), None);
        assert_eq!(levenshtein_bounded("abcdef", "a", 3), None); // length filter
    }

    #[test]
    fn zero_threshold_is_equality() {
        assert!(within_edit_distance("same", "same", 0));
        assert!(!within_edit_distance("same", "sane", 0));
    }

    #[test]
    fn threshold_boundary_is_inclusive() {
        // distance("abc","axc") = 1
        assert!(within_edit_distance("abc", "axc", 1));
        assert!(!within_edit_distance("abc", "xyc", 1));
    }

    #[test]
    fn long_patterns_cross_block_boundaries() {
        // m > 64 exercises the multi-block carry chain.
        let a = "x".repeat(150);
        let mut b = a.clone();
        b.replace_range(70..71, "y"); // one substitution near the block seam
        assert_eq!(levenshtein(&a, &b), 1);
        assert_eq!(levenshtein_bounded(&a, &b, 1), Some(1));
        let c = format!("{}{}", "z".repeat(5), &a[5..]);
        assert_eq!(levenshtein(&a, &c), 5);
        assert_eq!(levenshtein_bounded(&a, &c, 4), None);
    }

    #[test]
    fn pattern_reuse_matches_one_shot() {
        let pat = MyersPattern::new("Synthesis");
        let mut scratch = EditScratch::new();
        for text in ["Synthesis", "Synthessi", "Sunthesis!", "", "Syn"] {
            for k in 0..5 {
                assert_eq!(
                    pat.distance_bounded(text, k, &mut scratch),
                    levenshtein_bounded("Synthesis", text, k),
                    "text={text:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn column_sweep_crosses_word_boundaries() {
        // Pattern lengths at the single-word/block seam (63/64/65) swept
        // over texts straddling the same boundary plus degenerate shapes.
        let mut scratch = EditScratch::new();
        let mut verdicts = ColumnVerdicts::new();
        for plen in [0usize, 1, 63, 64, 65, 130] {
            let pattern: String = (0..plen).map(|i| (b'a' + (i % 3) as u8) as char).collect();
            let pat = MyersPattern::new(&pattern);
            let texts: Vec<String> = [0usize, 1, 62, 63, 64, 65, 66, 129, 131]
                .iter()
                .map(|&n| (0..n).map(|i| (b'a' + (i % 4) as u8) as char).collect())
                .collect();
            for max in [0usize, 1, 2, 5, 70] {
                pat.distance_column(texts.iter(), max, &mut scratch, &mut verdicts);
                assert_eq!(verdicts.len(), texts.len());
                for (i, t) in texts.iter().enumerate() {
                    assert_eq!(
                        verdicts.get(i),
                        pat.distance_bounded(t, max, &mut scratch).is_some(),
                        "plen={plen} max={max} text_len={}",
                        t.len()
                    );
                }
                let ones: Vec<usize> = verdicts.iter_ones().collect();
                assert_eq!(ones.len(), verdicts.count_ones());
                assert!(ones.iter().all(|&i| verdicts.get(i)));
            }
        }
    }

    /// A text the AVX2 lanes take for `pattern`: ASCII, non-empty, and
    /// `len_delta` characters longer or shorter (clamped to one character,
    /// which keeps it inside a window of `|len_delta|`). `kind` sets how
    /// far it lands, so lanes finish and die at different steps: 0 = the
    /// pattern with `noise` written over spread positions (a near miss),
    /// 1 = the pattern itself, 2 = the pattern reversed, 3 = `noise`
    /// padded with `y`, 4 = all `z` (no shared character).
    fn lane_text(pattern: &str, kind: usize, noise: &str, len_delta: isize) -> String {
        let m = pattern.len();
        let n = (m as isize + len_delta).max(1) as usize;
        let mut t: Vec<u8> = match kind % 5 {
            0 => {
                let mut t = pattern.as_bytes().to_vec();
                for (i, b) in noise.bytes().enumerate() {
                    t[(i * 7 + 3) % m] = b;
                }
                t
            }
            1 => pattern.as_bytes().to_vec(),
            2 => pattern.bytes().rev().collect(),
            3 => noise.as_bytes().to_vec(),
            _ => vec![b'z'; n],
        };
        t.resize(n, b'y');
        String::from_utf8(t).expect("ASCII text")
    }

    #[test]
    fn lane_sweep_matches_scalar_across_batch_seams() {
        // Every column carries 8..=23 lane texts: one or two full 8-lane
        // batches plus every remainder 0–7, which the scalar tail sweeps.
        // Texts the lanes never take are interleaved: non-ASCII ones and
        // ones outside the length window. Pattern lengths span the lane
        // kernel's 1..=64 range.
        let mut scratch = EditScratch::new();
        let mut verdicts = ColumnVerdicts::new();
        let long: String = (0..64)
            .map(|i| (b'a' + (i * 7 % 10) as u8) as char)
            .collect();
        for pattern in [
            "a",
            "interaction between record matching and data repairing",
            long.as_str(),
        ] {
            let pat = MyersPattern::new(pattern);
            for max in [0usize, 1, 2, 3, 8] {
                for lanes in 8..=23usize {
                    let mut texts: Vec<String> = Vec::new();
                    for i in 0..lanes {
                        if i % 3 == 1 {
                            texts.push("caf\u{e9} r\u{e9}cord".to_string());
                        }
                        if i % 5 == 2 {
                            texts.push("w".repeat(pattern.len() + max + 1));
                        }
                        let delta = (i % (2 * max + 1)) as isize - max as isize;
                        texts.push(lane_text(pattern, i, &"dbca"[..i % 5 % 4], delta));
                    }
                    pat.distance_column(texts.iter(), max, &mut scratch, &mut verdicts);
                    assert_eq!(verdicts.len(), texts.len());
                    for (i, t) in texts.iter().enumerate() {
                        assert_eq!(
                            verdicts.get(i),
                            pat.distance_bounded(t, max, &mut scratch).is_some(),
                            "m={} max={max} lanes={lanes} text={i} {t:?}",
                            pattern.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_shapes() {
        assert_eq!(levenshtein_bounded("", "", 0), Some(0));
        assert_eq!(levenshtein_bounded("", "ab", 1), None); // |u|−|v| > k
        assert_eq!(levenshtein_bounded("", "ab", 2), Some(2));
        assert_eq!(levenshtein_bounded("日本語", "日本", 1), Some(1));
        assert_eq!(levenshtein_bounded("日本語", "nihongo", 3), None);
    }

    proptest! {
        /// Myers must agree with both reference DPs for every
        /// (string, string, threshold) combination — ASCII inputs.
        #[test]
        fn myers_matches_reference_ascii(a in "[a-d]{0,12}", b in "[a-d]{0,12}", max in 0usize..8) {
            let full = reference::levenshtein_dp(&a, &b);
            let banded = reference::levenshtein_bounded_dp(&a, &b, max);
            prop_assert_eq!(levenshtein(&a, &b), full);
            prop_assert_eq!(levenshtein_bounded(&a, &b, max), banded);
            if full <= max {
                prop_assert_eq!(levenshtein_bounded(&a, &b, max), Some(full));
            } else {
                prop_assert_eq!(levenshtein_bounded(&a, &b, max), None);
            }
        }

        /// Same agreement over arbitrary Unicode (exercises the char
        /// fallback path and mixed ASCII/non-ASCII sides).
        #[test]
        fn myers_matches_reference_unicode(a in "[abé日λ]{0,10}", b in "[abé日λ]{0,10}", max in 0usize..5) {
            let full = reference::levenshtein_dp(&a, &b);
            prop_assert_eq!(levenshtein(&a, &b), full);
            prop_assert_eq!(
                levenshtein_bounded(&a, &b, max),
                reference::levenshtein_bounded_dp(&a, &b, max)
            );
        }

        /// Long strings exercise the multi-block path; parity with the DP.
        #[test]
        fn myers_matches_reference_long(a in "[ab]{60,90}", b in "[ab]{60,90}", max in 0usize..6) {
            prop_assert_eq!(
                levenshtein_bounded(&a, &b, max),
                reference::levenshtein_bounded_dp(&a, &b, max)
            );
            prop_assert_eq!(levenshtein(&a, &b), reference::levenshtein_dp(&a, &b));
        }

        /// The column sweep's verdict bitmap equals per-text
        /// `distance_bounded` probes — the reference DP transitively — over
        /// random ASCII/non-ASCII columns.
        #[test]
        fn column_sweep_matches_per_value(
            pattern in "[abé日λ]{0,12}",
            texts in proptest::collection::vec("[abé日λ]{0,12}", 0..12),
            max in 0usize..5,
        ) {
            let pat = MyersPattern::new(&pattern);
            let mut scratch = EditScratch::new();
            let mut verdicts = ColumnVerdicts::new();
            pat.distance_column(texts.iter(), max, &mut scratch, &mut verdicts);
            prop_assert_eq!(verdicts.len(), texts.len());
            for (i, t) in texts.iter().enumerate() {
                prop_assert_eq!(
                    verdicts.get(i),
                    reference::levenshtein_bounded_dp(&pattern, t, max).is_some(),
                    "text {}", i
                );
            }
        }

        /// Columns of 8..24 lane texts (so at least one full AVX2 batch and
        /// a random remainder) mixing hits, near misses and far misses of
        /// shifted lengths, plus one non-ASCII and one out-of-window text
        /// the lanes skip, agree with the reference DP.
        #[test]
        fn lane_sweep_matches_reference_ascii(
            pattern in "[a-d]{1,64}",
            lanes in proptest::collection::vec((0usize..5, "[a-d]{0,6}", 0usize..13), 8..24),
            max in 0usize..7,
        ) {
            let mut texts: Vec<String> = lanes
                .iter()
                .map(|(kind, noise, d)| {
                    let delta = (d % (2 * max + 1)) as isize - max as isize;
                    lane_text(&pattern, *kind, noise, delta)
                })
                .collect();
            texts.insert(3, "\u{e9}".repeat(pattern.len()));
            texts.insert(5, "a".repeat(pattern.len() + max + 1));
            let pat = MyersPattern::new(&pattern);
            let mut scratch = EditScratch::new();
            let mut verdicts = ColumnVerdicts::new();
            pat.distance_column(texts.iter(), max, &mut scratch, &mut verdicts);
            prop_assert_eq!(verdicts.len(), texts.len());
            for (i, t) in texts.iter().enumerate() {
                prop_assert_eq!(
                    verdicts.get(i),
                    reference::levenshtein_bounded_dp(&pattern, t, max).is_some(),
                    "text {} {:?}", i, t
                );
            }
        }

        /// The cached-pattern entry point agrees with the one-shot kernel.
        #[test]
        fn cached_pattern_matches_one_shot(a in "[abé日λ]{0,12}", b in "[abé日λ]{0,12}", max in 0usize..5) {
            let pat = MyersPattern::new(&a);
            let mut scratch = EditScratch::new();
            prop_assert_eq!(
                pat.distance_bounded(&b, max, &mut scratch),
                reference::levenshtein_bounded_dp(&a, &b, max)
            );
        }

        /// Scratch reuse across heterogeneous calls never corrupts results.
        #[test]
        fn scratch_reuse_is_sound(pairs in proptest::collection::vec(("[abé日λ]{0,10}", "[abé日λ]{0,10}", 0usize..5), 1..8)) {
            let mut scratch = EditScratch::new();
            for (a, b, max) in &pairs {
                prop_assert_eq!(
                    levenshtein_bounded_with(a, b, *max, &mut scratch),
                    reference::levenshtein_bounded_dp(a, b, *max)
                );
            }
        }

        /// Metric axioms: symmetry and identity.
        #[test]
        fn symmetric(a in "[a-e]{0,10}", b in "[a-e]{0,10}") {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        }

        #[test]
        fn identity(a in "[abé日λ]{0,10}") {
            prop_assert_eq!(levenshtein(&a, &a), 0);
        }

        /// Triangle inequality.
        #[test]
        fn triangle(a in "[a-c]{0,8}", b in "[a-c]{0,8}", c in "[a-c]{0,8}") {
            prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        }

        /// One random edit moves distance by at most 1.
        #[test]
        fn single_edit_changes_distance_by_at_most_one(a in "[a-d]{1,10}", idx in 0usize..10, ch_idx in 0usize..4) {
            let mut chars: Vec<char> = a.chars().collect();
            let i = idx % chars.len();
            chars[i] = (b'a' + ch_idx as u8) as char;
            let b: String = chars.iter().collect();
            prop_assert!(levenshtein(&a, &b) <= 1);
        }
    }
}
