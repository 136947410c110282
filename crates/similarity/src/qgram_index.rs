//! Count-filtered q-gram inverted index — bounded candidate generation for
//! the `~lev`, `~qgram`, `~jaro` and `~jw` predicate families.
//!
//! §5.2 of the paper observes that "traditional database indices …
//! designed for exact matching cannot be carried over" to similarity
//! predicates. This index answers them with the classic *count filtering*
//! discipline: per-attribute inverted lists map each gram hash to the
//! distinct master values containing it; a probe accumulates per-value
//! multiset overlap and keeps only values whose overlap meets a
//! predicate-specific lower bound.
//!
//! # The count-filter math
//!
//! **q-gram Jaccard.** With `I = |A ∩ B|` (multiset) and profile sizes
//! `|a|, |b|`, `J = I / (|a| + |b| − I)`. So
//! `J ≥ min  ⟺  I ≥ min/(1+min) · (|a| + |b|)` — the overlap bound
//! [`qgram_overlap_bound`]. Since also `I ≤ min(|a|, |b|)`, candidate
//! profile sizes are confined to `[min·|a|, |a|/min]`
//! ([`qgram_length_window`]).
//!
//! **Jaro.** Jaro's `m` matching characters are an injective equality
//! matching, so `m` never exceeds the 1-gram (character multiset) overlap.
//! From `jaro = (m/|a| + m/|b| + (m−t)/m)/3 ≤ (m/|a| + m/|b| + 1)/3`,
//! `jaro ≥ j` forces `m ≥ (3j−1)·|a||b|/(|a|+|b|)`
//! ([`jaro_overlap_bound`]) and, when `3j−2 > 0`, lengths within
//! `[(3j−2)·|a|, |a|/(3j−2)]` ([`jaro_length_window`]). Jaro-Winkler
//! probes reuse this with the conservative floor `j ≥ (min − 0.4)/0.6`
//! (prefix boost capped at `4 · 0.1`).
//!
//! **Edit distance.** A padded profile of a length-`n` string has exactly
//! `n + q − 1` windows, and one single-character edit touches at most `q`
//! of them (the windows covering the edited position). So if
//! `lev(u, v) ≤ k`, the padded profiles share at least
//! `max(|u|,|v|) + q − 1 − k·q` grams (multiset) — [`lev_count_bound`].
//! Combined with the `|lb − la| ≤ k` length filter this gives `~lev` a
//! *complete* inverted-list access path
//! ([`QGramIndex::lev_candidate_values_into`]),
//! which retired the paper's top-`l` LCS suffix-tree retrieval: top-`l` was
//! an approximation (it could miss the `l+1`-th true match), the count
//! bound never misses. PAD collisions between probe and master padding only
//! ever overcount shared grams — conservative in the complete direction.
//!
//! All three filters are *complete*: every master row whose value can
//! satisfy the predicate survives (degenerate thresholds — `min = 0`,
//! `j ≤ 1/3`, `k·q ≥ la + q − 1` — fall back to length-window or full
//! enumeration). Candidates still require full predicate verification.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::qgram::{ProfileScratch, QGramProfile};

/// Slack protecting the conservative direction of the float bounds: a
/// rounding error may only ever *admit* one extra candidate, never prune a
/// true match.
const EPS: f64 = 1e-9;

/// Minimum multiset q-gram overlap required for Jaccard ≥ `min`:
/// `⌈min/(1+min) · (la + lb)⌉` (conservatively rounded). `la`/`lb` are
/// profile sizes with multiplicity. `min ≤ 0` imposes no bound.
pub fn qgram_overlap_bound(la: usize, lb: usize, min: f64) -> usize {
    if min <= 0.0 {
        return 0;
    }
    let x = min / (1.0 + min) * (la + lb) as f64;
    (x - EPS).ceil().max(0.0) as usize
}

/// Inclusive window of candidate profile sizes for Jaccard ≥ `min`
/// against a probe of size `la`: `[⌈min·la⌉, ⌊la/min⌋]`. With `min ≤ 0`
/// every size qualifies.
pub fn qgram_length_window(la: usize, min: f64) -> (usize, usize) {
    if min <= 0.0 {
        return (0, usize::MAX);
    }
    let lo = (min * la as f64 - EPS).ceil().max(0.0) as usize;
    let hi = (la as f64 / min + EPS).floor() as usize;
    (lo, hi)
}

/// Minimum character-multiset overlap for Jaro ≥ `min_jaro`:
/// `⌈(3j−1)·la·lb/(la+lb)⌉`, at least 1 for non-empty strings. `j ≤ 1/3`
/// (or an empty side) imposes no bound.
pub fn jaro_overlap_bound(la: usize, lb: usize, min_jaro: f64) -> usize {
    let need = 3.0 * min_jaro - 1.0;
    if need <= 0.0 || la == 0 || lb == 0 {
        return 0;
    }
    let x = need * la as f64 * lb as f64 / (la + lb) as f64;
    ((x - EPS).ceil().max(0.0) as usize).max(1)
}

/// Inclusive window of candidate lengths for Jaro ≥ `min_jaro` against a
/// probe of `la` characters: `[(3j−2)·la, la/(3j−2)]` when `3j−2 > 0`
/// (`m ≤ min(la, lb)` forces the length ratio), otherwise unbounded.
pub fn jaro_length_window(la: usize, min_jaro: f64) -> (usize, usize) {
    let need = 3.0 * min_jaro - 2.0;
    if need <= 0.0 || la == 0 {
        return (0, usize::MAX);
    }
    let lo = (need * la as f64 - EPS).ceil().max(0.0) as usize;
    let hi = (la as f64 / need + EPS).floor() as usize;
    (lo, hi)
}

/// Minimum shared *padded* grams (multiset) required for edit distance
/// ≤ `k` between strings of `la` and `lb` **characters**:
/// `max(la, lb) + q − 1 − k·q` (0 when the subtraction underflows — no
/// usable bound). Each single-character edit destroys at most `q` of the
/// longer string's `max + q − 1` padded windows.
pub fn lev_count_bound(la: usize, lb: usize, q: usize, k: usize) -> usize {
    (la.max(lb) + q - 1).saturating_sub(k * q)
}

/// Inclusive window of candidate **character** lengths for edit distance
/// ≤ `k` against a probe of `la` characters: `[la − k, la + k]`.
pub fn lev_length_window(la: usize, k: usize) -> (usize, usize) {
    (la.saturating_sub(k), la + k)
}

/// Pass-through hasher for the posting map: gram hashes are already
/// FNV-mixed 64-bit values, re-hashing them buys nothing.
#[derive(Clone, Copy, Debug, Default)]
struct PremixedHasher(u64);

impl Hasher for PremixedHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys reach this map; mix bytes defensively anyway.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

type GramMap<V> = HashMap<u64, V, BuildHasherDefault<PremixedHasher>>;

/// Reusable probe-side buffers for [`QGramIndex`] lookups: a per-distinct-
/// value overlap accumulator plus the list of values touched by the
/// current probe. One scratch serves any number of sequential probes with
/// zero steady-state allocation.
#[derive(Debug, Default)]
pub struct QGramScratch {
    /// Accumulated overlap per distinct value id; reset to 0 via `touched`
    /// after every probe.
    counts: Vec<u32>,
    touched: Vec<u32>,
    /// Probe grams ranked by posting length for the skip-walk: `(posting
    /// length, position in the probe profile)`.
    ranked: Vec<(u32, u32)>,
    /// Distinct-value candidates of the current probe (columnar `~lev`
    /// sweeps consume these before owner expansion).
    vids: Vec<u32>,
}

impl QGramScratch {
    /// A fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        QGramScratch::default()
    }

    /// Detach the reusable value-id buffer, e.g. to hold one probe's
    /// [`QGramIndex::lev_candidate_values_into`] output across further
    /// scratch use. Hand it back with [`QGramScratch::restore_vids`] so
    /// the capacity keeps recycling.
    pub fn take_vids(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.vids)
    }

    /// Return a buffer detached by [`QGramScratch::take_vids`].
    pub fn restore_vids(&mut self, vids: Vec<u32>) {
        self.vids = vids;
    }
}

/// Inverted q-gram index over one master-data attribute column.
///
/// Rows are deduplicated by rendered value; posting lists and owner lists
/// store `u32` row ids (the engine's `TupleId` width). Null cells must be
/// skipped by the caller — a null never satisfies a similarity premise.
pub struct QGramIndex {
    q: usize,
    /// gram hash → `(distinct value id, multiplicity in that value)`.
    postings: GramMap<Vec<(u32, u32)>>,
    /// distinct value id → master rows carrying it (ascending).
    owners: Vec<Vec<u32>>,
    /// distinct value id → profile size (grams with multiplicity).
    lens: Vec<u32>,
    /// Flattened per-value profiles (sorted `(hash, mult)` runs,
    /// `gram_off`-delimited): the exact-overlap confirmation of the
    /// skip-walk probe discipline merges against these.
    gram_flat: Vec<(u64, u32)>,
    /// distinct value id → start of its run in `gram_flat` (+ end sentinel).
    gram_off: Vec<u32>,
    /// Value ids with an empty profile (empty string at q = 1).
    empty_values: Vec<u32>,
    /// Total master rows (for the degenerate all-rows answer).
    rows: usize,
}

impl QGramIndex {
    /// Build over the distinct rendered values of one column, in id order:
    /// `owners[id]` lists the rows carrying `values[id]` (ascending). Null
    /// cells are the caller's to skip. `rows` is the total column size —
    /// degenerate probes answer "all rows", including skipped ones, which
    /// verification then prunes (the conservative choice).
    pub fn new<S: AsRef<str>>(values: &[S], owners: Vec<Vec<u32>>, rows: usize, q: usize) -> Self {
        assert!(q >= 1, "q-gram size must be at least 1");
        assert_eq!(values.len(), owners.len(), "one owner list per value");
        let mut postings: GramMap<Vec<(u32, u32)>> = GramMap::default();
        let mut lens: Vec<u32> = Vec::with_capacity(values.len());
        let mut gram_flat: Vec<(u64, u32)> = Vec::new();
        let mut gram_off: Vec<u32> = Vec::with_capacity(values.len() + 1);
        gram_off.push(0);
        let mut empty_values: Vec<u32> = Vec::new();
        let mut scratch = ProfileScratch::new();
        let mut profile = QGramProfile::default();
        for (id, v) in values.iter().enumerate() {
            profile.rebuild(v.as_ref(), q, &mut scratch);
            lens.push(profile.len() as u32);
            if profile.is_empty() {
                empty_values.push(id as u32);
            }
            for &(g, c) in profile.grams() {
                postings.entry(g).or_default().push((id as u32, c));
            }
            gram_flat.extend_from_slice(profile.grams());
            gram_off.push(gram_flat.len() as u32);
        }
        QGramIndex {
            q,
            postings,
            owners,
            lens,
            gram_flat,
            gram_off,
            empty_values,
            rows,
        }
    }

    /// Window size the index was built with.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Number of distinct indexed values.
    pub fn distinct_values(&self) -> usize {
        self.owners.len()
    }

    /// Total master rows the index answers for.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Master rows carrying distinct value `vid` (ascending) — expands the
    /// vids emitted by [`QGramIndex::lev_candidate_values_into`].
    pub fn owners(&self, vid: u32) -> &[u32] {
        &self.owners[vid as usize]
    }

    /// Walk one posting list, accumulating overlap for values whose
    /// profile size lies in `[lo, hi]`.
    #[inline]
    fn walk_posting(
        &self,
        list: &[(u32, u32)],
        pc: u32,
        lo: usize,
        hi: usize,
        scratch: &mut QGramScratch,
    ) {
        for &(vid, mc) in list {
            let lb = self.lens[vid as usize] as usize;
            if lb < lo || lb > hi {
                continue;
            }
            let c = &mut scratch.counts[vid as usize];
            if *c == 0 {
                scratch.touched.push(vid);
            }
            *c += pc.min(mc);
        }
    }

    /// Accumulate per-value overlap with `probe`, confined to values whose
    /// profile size lies in `[lo, hi]` — skipping up to `budget` probe-gram
    /// mass worth of the *longest* posting lists (prefix filtering).
    /// Returns the skipped mass `S`. Any value with true overlap
    /// `≥ budget + 1` still lands in the touched set (its overlap outside
    /// the skipped grams is ≥ 1), with an exact accumulated count when
    /// `S = 0` and a partial count `≥ overlap − S` otherwise.
    fn accumulate(
        &self,
        probe: &QGramProfile,
        lo: usize,
        hi: usize,
        budget: usize,
        scratch: &mut QGramScratch,
    ) -> usize {
        if scratch.counts.len() < self.owners.len() {
            scratch.counts.resize(self.owners.len(), 0);
        }
        if budget == 0 {
            for &(g, pc) in probe.grams() {
                if let Some(list) = self.postings.get(&g) {
                    self.walk_posting(list, pc, lo, hi, scratch);
                }
            }
            return 0;
        }
        // Rank the probe's grams by posting length (descending, position
        // as the deterministic tie-break) and spend the skip budget on the
        // most common grams first — these dominate the walk and carry the
        // least signal. Short lists are cheap to walk; skipping them would
        // waste bound tightness, so leave them in.
        const SKIP_MIN_POSTING: usize = 64;
        let grams = probe.grams();
        scratch.ranked.clear();
        for (pos, &(g, _)) in grams.iter().enumerate() {
            let plen = self.postings.get(&g).map_or(0, |l| l.len());
            scratch.ranked.push((plen as u32, pos as u32));
        }
        scratch
            .ranked
            .sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut ranked = std::mem::take(&mut scratch.ranked);
        let mut budget_left = budget;
        let mut skipped = 0usize;
        for &(plen, pos) in &ranked {
            let (g, pc) = grams[pos as usize];
            let mass = pc as usize;
            if plen as usize >= SKIP_MIN_POSTING && mass <= budget_left {
                budget_left -= mass;
                skipped += mass;
                continue;
            }
            if let Some(list) = self.postings.get(&g) {
                self.walk_posting(list, pc, lo, hi, scratch);
            }
        }
        ranked.clear();
        scratch.ranked = ranked;
        skipped
    }

    /// Exact multiset overlap between `probe` and distinct value `vid`
    /// (sorted-run merge over the flattened profile).
    fn exact_overlap(&self, probe: &QGramProfile, vid: u32) -> usize {
        let s = self.gram_off[vid as usize] as usize;
        let e = self.gram_off[vid as usize + 1] as usize;
        let b = &self.gram_flat[s..e];
        let a = probe.grams();
        let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += (a[i].1.min(b[j].1)) as usize;
                    i += 1;
                    j += 1;
                }
            }
        }
        inter
    }

    /// Drain the touched set, appending the owner rows of every value
    /// whose overlap meets `bound(profile size)`. With `skipped > 0` the
    /// accumulated counts are partial lower bounds: a value is kept when
    /// its partial count already meets the bound, pruned when even
    /// `partial + skipped` cannot, and exact-merged otherwise — the emitted
    /// set is identical to a full (skipless) accumulation.
    fn emit(
        &self,
        probe: &QGramProfile,
        skipped: usize,
        scratch: &mut QGramScratch,
        out: &mut Vec<u32>,
        bound: impl Fn(usize) -> usize,
    ) {
        for vid in scratch.touched.drain(..) {
            let partial = std::mem::take(&mut scratch.counts[vid as usize]) as usize;
            let need = bound(self.lens[vid as usize] as usize);
            if partial + skipped < need {
                continue;
            }
            if partial >= need || self.exact_overlap(probe, vid) >= need {
                out.extend_from_slice(&self.owners[vid as usize]);
            }
        }
    }

    /// [`Self::emit`] at distinct-value granularity: drains the touched set
    /// into value ids instead of expanding owner rows. Same skip-budget
    /// discipline (partial-accept / prune / exact-merge confirmation of the
    /// uncertain band), identical surviving value set.
    fn emit_values(
        &self,
        probe: &QGramProfile,
        skipped: usize,
        scratch: &mut QGramScratch,
        out: &mut Vec<u32>,
        bound: impl Fn(usize) -> usize,
    ) {
        for vid in scratch.touched.drain(..) {
            let partial = std::mem::take(&mut scratch.counts[vid as usize]) as usize;
            let need = bound(self.lens[vid as usize] as usize);
            if partial + skipped < need {
                continue;
            }
            if partial >= need || self.exact_overlap(probe, vid) >= need {
                out.push(vid);
            }
        }
    }

    /// Append every master row that can satisfy multiset-Jaccard ≥ `min`
    /// with `probe` (a complete superset of the true match set; order
    /// unspecified, rows unique). `probe.q()` must equal the index's `q`.
    pub fn candidates_jaccard_into(
        &self,
        probe: &QGramProfile,
        min: f64,
        scratch: &mut QGramScratch,
        out: &mut Vec<u32>,
    ) {
        assert_eq!(probe.q(), self.q, "probe profile must share the index q");
        if min <= 0.0 {
            // Degenerate threshold: every pair scores ≥ 0.
            out.extend(0..self.rows as u32);
            return;
        }
        if probe.is_empty() {
            // J(∅, B) is 0 unless B is empty too (then 1).
            for &vid in &self.empty_values {
                out.extend_from_slice(&self.owners[vid as usize]);
            }
            return;
        }
        let la = probe.len();
        let (lo, hi) = qgram_length_window(la, min);
        // The overlap bound grows with the candidate's size, so its
        // minimum over the length window sits at `lo`. Completeness allows
        // skipping up to `bound − 1` probe-gram mass; spending only half
        // keeps the partial-count prefilter selective enough that the
        // exact-merge confirmation stays rare.
        let budget = qgram_overlap_bound(la, lo, min) / 2;
        let skipped = self.accumulate(probe, lo, hi, budget, scratch);
        self.emit(probe, skipped, scratch, out, |lb| {
            qgram_overlap_bound(la, lb, min)
        });
    }

    /// Append every distinct value id whose value can be within edit
    /// distance `k` of the probe (a complete superset of the true match
    /// set; ascending, unique). `probe.q()` must equal the index's `q`.
    /// The column-at-a-time Myers driver sweeps one compiled probe pattern
    /// over these values — each distinct value is verified once, however
    /// many rows carry it — and then expands survivors through
    /// [`QGramIndex::owners`].
    ///
    /// Non-degenerate probes (`la + q − 1 > k·q`) use count filtering: a
    /// candidate of `lb` characters must share at least
    /// [`lev_count_bound`]`(la, lb, q, k)` ≥ 1 padded grams, so walking the
    /// probe's posting lists reaches every one. Degenerate probes (short
    /// strings where the bound can vanish inside the `±k` length window)
    /// fall back to enumerating every value in the window — still bounded
    /// by length, never by gram overlap.
    pub fn lev_candidate_values_into(
        &self,
        probe: &QGramProfile,
        k: usize,
        scratch: &mut QGramScratch,
        out: &mut Vec<u32>,
    ) {
        assert_eq!(probe.q(), self.q, "probe profile must share the index q");
        let q = self.q;
        let la = probe.char_len();
        let (lo_chars, hi_chars) = lev_length_window(la, k);
        // Profile size of an `n`-char padded profile is `n + q − 1`.
        let lo = lo_chars + q - 1;
        let hi = hi_chars + q - 1;
        let start = out.len();
        if la + q - 1 <= k * q {
            // Degenerate: some in-window length has a vanishing gram bound
            // (e.g. an empty master within k deletions shares no grams).
            // Keep every value in the length window.
            for vid in 0..self.owners.len() {
                let lb = self.lens[vid] as usize;
                if lb >= lo && lb <= hi {
                    out.push(vid as u32);
                }
            }
            return;
        }
        // `lev_count_bound` is `max(la, lb) + q − 1 − k·q`, minimized when
        // the candidate is no longer than the probe: `la + q − 1 − k·q`
        // (≥ 1 past the degenerate guard above). Half of it is spent as
        // skip budget — see `candidates_jaccard_into` for the tradeoff.
        let budget = (la + q - 1 - k * q) / 2;
        let skipped = self.accumulate(probe, lo, hi, budget, scratch);
        self.emit_values(probe, skipped, scratch, out, |lb_profile| {
            lev_count_bound(la, lb_profile - (q - 1), q, k)
        });
        out[start..].sort_unstable();
    }

    /// Append every master row that can satisfy Jaro ≥ `min_jaro` with the
    /// probe's 1-gram profile (complete superset; order unspecified, rows
    /// unique). The index must have been built with `q = 1`; Jaro-Winkler
    /// callers pass their derived Jaro floor.
    pub fn candidates_jaro_into(
        &self,
        probe: &QGramProfile,
        min_jaro: f64,
        scratch: &mut QGramScratch,
        out: &mut Vec<u32>,
    ) {
        assert_eq!(self.q, 1, "the Jaro prefilter runs on a 1-gram index");
        assert_eq!(probe.q(), 1, "probe profile must be 1-gram");
        if 3.0 * min_jaro - 1.0 <= 0.0 {
            // No usable bound (jaro ≥ 1/3 is satisfiable with a single
            // shared character in the worst case — and trivially for
            // min ≤ 0); stay complete by keeping everything.
            out.extend(0..self.rows as u32);
            return;
        }
        if probe.is_empty() {
            // jaro("", v) is 1 for empty v, else 0.
            for &vid in &self.empty_values {
                out.extend_from_slice(&self.owners[vid as usize]);
            }
            return;
        }
        let la = probe.len();
        let (lo, hi) = jaro_length_window(la, min_jaro);
        // `jaro_overlap_bound` grows with `lb`, so the window floor gives
        // the minimal requirement (0 on an unbounded window — no skips).
        // Half of it is spent as skip budget — see `candidates_jaccard_into`.
        let budget = jaro_overlap_bound(la, lo, min_jaro) / 2;
        let skipped = self.accumulate(probe, lo, hi, budget, scratch);
        self.emit(probe, skipped, scratch, out, |lb| {
            jaro_overlap_bound(la, lb, min_jaro)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaro::{jaro, jaro_winkler};
    use crate::qgram::qgram_jaccard;
    use proptest::prelude::*;

    /// Index `col` the way the engine does: distinct values in
    /// first-appearance order, each with its ascending owner rows.
    fn index(col: &[&str], q: usize) -> QGramIndex {
        let mut values: Vec<&str> = Vec::new();
        let mut owners: Vec<Vec<u32>> = Vec::new();
        for (row, v) in col.iter().enumerate() {
            match values.iter().position(|x| x == v) {
                Some(id) => owners[id].push(row as u32),
                None => {
                    values.push(v);
                    owners.push(vec![row as u32]);
                }
            }
        }
        QGramIndex::new(&values, owners, col.len(), q)
    }

    fn jaccard_candidates(idx: &QGramIndex, probe: &str, min: f64) -> Vec<u32> {
        let mut scratch = QGramScratch::new();
        let mut out = Vec::new();
        idx.candidates_jaccard_into(
            &QGramProfile::new(probe, idx.q()),
            min,
            &mut scratch,
            &mut out,
        );
        out.sort_unstable();
        out
    }

    fn jaro_candidates(idx: &QGramIndex, probe: &str, min: f64) -> Vec<u32> {
        let mut scratch = QGramScratch::new();
        let mut out = Vec::new();
        idx.candidates_jaro_into(&QGramProfile::new(probe, 1), min, &mut scratch, &mut out);
        out.sort_unstable();
        out
    }

    /// Row candidates of a `~lev` probe: the candidate values, checked
    /// sorted and unique, expanded through their owners.
    fn lev_candidates(idx: &QGramIndex, probe: &str, k: usize) -> Vec<u32> {
        let mut scratch = QGramScratch::new();
        let mut vids = Vec::new();
        idx.lev_candidate_values_into(
            &QGramProfile::new(probe, idx.q()),
            k,
            &mut scratch,
            &mut vids,
        );
        assert!(vids.windows(2).all(|w| w[0] < w[1]), "sorted unique vids");
        let mut out: Vec<u32> = vids
            .iter()
            .flat_map(|&v| idx.owners(v).iter().copied())
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn lev_bound_examples() {
        // "abc" vs itself, q=2: 4 padded grams, k=0 → all 4 shared.
        assert_eq!(lev_count_bound(3, 3, 2, 0), 4);
        // One edit destroys ≤ 2 bigrams.
        assert_eq!(lev_count_bound(3, 3, 2, 1), 2);
        // Underflow → no bound.
        assert_eq!(lev_count_bound(2, 1, 2, 2), 0);
        assert_eq!(lev_length_window(5, 2), (3, 7));
        assert_eq!(lev_length_window(1, 3), (0, 4));
    }

    #[test]
    fn lev_prunes_by_length_and_overlap() {
        let idx = index(&["Smith", "Smyth", "Brady", "Smithsonian"], 2);
        // k=1: "Smyth" in, "Brady" shares a length but few grams,
        // "Smithsonian" is length-pruned.
        assert_eq!(lev_candidates(&idx, "Smith", 1), vec![0, 1]);
    }

    #[test]
    fn lev_exact_value_is_always_a_candidate() {
        let idx = index(&["Robert", "Mark", "Robert"], 3);
        for k in 0..4 {
            let got = lev_candidates(&idx, "Robert", k);
            assert!(got.contains(&0) && got.contains(&2), "k={k}: {got:?}");
        }
    }

    #[test]
    fn lev_degenerate_short_probe_enumerates_length_window() {
        // la=1, q=2, k=1: 1+1 ≤ 2 → the degenerate path; empty masters are
        // within one deletion yet share zero grams.
        let idx = index(&["", "a", "xy", "abc"], 2);
        assert_eq!(lev_candidates(&idx, "a", 1), vec![0, 1, 2]);
        // Empty probe, k=1: only lengths ≤ 1 survive.
        assert_eq!(lev_candidates(&idx, "", 1), vec![0, 1]);
    }

    #[test]
    fn exact_value_is_always_a_candidate() {
        let idx = index(&["Robert Brady", "Mark Smith", "Robert Brady"], 2);
        let got = jaccard_candidates(&idx, "Robert Brady", 0.9);
        assert_eq!(got, vec![0, 2]);
    }

    #[test]
    fn dissimilar_values_are_pruned() {
        let idx = index(&["Robert Brady", "Mark Smith"], 2);
        let got = jaccard_candidates(&idx, "Robert Bradey", 0.5);
        assert_eq!(got, vec![0], "only the near-duplicate survives");
    }

    #[test]
    fn degenerate_min_zero_keeps_every_row() {
        let idx = index(&["a", "b", "c"], 2);
        assert_eq!(jaccard_candidates(&idx, "zzz", 0.0), vec![0, 1, 2]);
    }

    #[test]
    fn min_one_requires_identical_profiles() {
        let idx = index(&["abc", "abd", "abc"], 2);
        assert_eq!(jaccard_candidates(&idx, "abc", 1.0), vec![0, 2]);
    }

    #[test]
    fn empty_probe_matches_only_empty_values() {
        let idx = index(&["", "abc", ""], 1);
        assert_eq!(jaccard_candidates(&idx, "", 0.5), vec![0, 2]);
        assert_eq!(jaro_candidates(&idx, "", 0.9), vec![0, 2]);
    }

    #[test]
    fn overlap_bound_boundary_values() {
        // min = 0: no bound at any sizes.
        assert_eq!(qgram_overlap_bound(7, 3, 0.0), 0);
        // min = 1: full overlap of equal-size profiles — exact equality.
        assert_eq!(qgram_overlap_bound(5, 5, 1.0), 5);
        // min = 1 with unequal sizes can never be met (bound exceeds the
        // smaller profile) — the length window already excludes them.
        assert!(qgram_overlap_bound(5, 7, 1.0) > 5);
        assert_eq!(qgram_length_window(5, 1.0), (5, 5));
        // The standard T = ⌈min/(1+min)(la+lb)⌉ shape.
        assert_eq!(qgram_overlap_bound(10, 10, 0.5), 7);
    }

    #[test]
    fn jaro_bound_boundary_values() {
        // j ≤ 1/3 gives no bound; above it at least one shared char.
        assert_eq!(jaro_overlap_bound(4, 4, 1.0 / 3.0), 0);
        assert_eq!(jaro_overlap_bound(1, 9, 0.4), 1);
        // Identical 4-char strings at j = 1 need all 4 chars shared.
        assert_eq!(jaro_overlap_bound(4, 4, 1.0), 4);
        // Empty side: no bound (handled by the empty-probe path).
        assert_eq!(jaro_overlap_bound(0, 4, 0.9), 0);
    }

    #[test]
    fn jaro_degenerate_threshold_keeps_every_row() {
        let idx = index(&["abc", "xyz"], 1);
        assert_eq!(jaro_candidates(&idx, "abc", 0.3), vec![0, 1]);
    }

    proptest! {
        /// Completeness: every row whose value satisfies the predicate is
        /// a candidate — the invariant the master index's plans rest on.
        #[test]
        fn jaccard_filter_is_complete(
            col in proptest::collection::vec("[a-c]{0,6}", 1..10),
            probe in "[a-c]{0,6}",
            q in 1usize..4,
            min_pct in 0usize..101
        ) {
            let min = min_pct as f64 / 100.0;
            let refs: Vec<&str> = col.iter().map(String::as_str).collect();
            let idx = index(&refs, q);
            let got = jaccard_candidates(&idx, &probe, min);
            for (row, v) in col.iter().enumerate() {
                if qgram_jaccard(&probe, v, q) >= min {
                    prop_assert!(
                        got.contains(&(row as u32)),
                        "row {row} ({v:?}) matches {probe:?} at {min} but was pruned"
                    );
                }
            }
        }

        /// Same completeness for the Jaro and Jaro-Winkler prefilter (jw
        /// probes with the derived floor (min − 0.4)/0.6).
        #[test]
        fn jaro_filter_is_complete(
            col in proptest::collection::vec("[a-c]{0,6}", 1..10),
            probe in "[a-c]{0,6}",
            min_pct in 0usize..101
        ) {
            let min = min_pct as f64 / 100.0;
            let refs: Vec<&str> = col.iter().map(String::as_str).collect();
            let idx = index(&refs, 1);
            let got = jaro_candidates(&idx, &probe, min);
            for (row, v) in col.iter().enumerate() {
                if jaro(&probe, v) >= min {
                    prop_assert!(
                        got.contains(&(row as u32)),
                        "row {row} ({v:?}) jaro-matches {probe:?} at {min} but was pruned"
                    );
                }
            }
            let jw_floor = (min - 0.4) / 0.6;
            let got_jw = jaro_candidates(&idx, &probe, jw_floor);
            for (row, v) in col.iter().enumerate() {
                if jaro_winkler(&probe, v) >= min {
                    prop_assert!(
                        got_jw.contains(&(row as u32)),
                        "row {row} ({v:?}) jw-matches {probe:?} at {min} but was pruned"
                    );
                }
            }
        }

        /// Completeness of the lev count bound: every row within edit
        /// distance k is a candidate, for every q and k — including the
        /// degenerate short-probe/empty-string shapes and non-ASCII values.
        #[test]
        fn lev_filter_is_complete(
            col in proptest::collection::vec("[abé]{0,6}", 1..10),
            probe in "[abé]{0,6}",
            q in 1usize..4,
            k in 0usize..5
        ) {
            let refs: Vec<&str> = col.iter().map(String::as_str).collect();
            let idx = index(&refs, q);
            let got = lev_candidates(&idx, &probe, k);
            for (row, v) in col.iter().enumerate() {
                if crate::edit_distance::within_edit_distance(&probe, v, k) {
                    prop_assert!(
                        got.contains(&(row as u32)),
                        "row {row} ({v:?}) is within edit {k} of {probe:?} but was pruned (q={q})"
                    );
                }
            }
        }

        /// Candidates are unique row ids within range.
        #[test]
        fn candidates_are_unique_and_in_range(
            col in proptest::collection::vec("[a-c]{0,5}", 1..8),
            probe in "[a-c]{0,5}",
            min_pct in 0usize..101
        ) {
            let refs: Vec<&str> = col.iter().map(String::as_str).collect();
            let idx = index(&refs, 2);
            let got = jaccard_candidates(&idx, &probe, min_pct as f64 / 100.0);
            let mut dedup = got.clone();
            dedup.dedup();
            prop_assert_eq!(&got, &dedup, "duplicates in candidate list");
            prop_assert!(got.iter().all(|&r| (r as usize) < col.len()));
        }
    }
}
