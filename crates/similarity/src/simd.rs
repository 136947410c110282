//! Runtime SIMD dispatch for the similarity kernels.
//!
//! Every accelerated path in this crate is an *implementation detail* of the
//! scalar engine: same inputs, bit-for-bit the same outputs. Each kernel is
//! chosen from two things only — the CPU and the shape of the input:
//!
//! - [`detected_level`] probes the CPU once (`is_x86_feature_detected!`) and
//!   caches the answer; non-x86_64 targets always detect [`SimdLevel::Scalar`].
//!   The q-gram window hasher ([`hash_gram_windows`]) and the AVX2 lanes of
//!   the column-at-a-time Myers sweep dispatch on it.
//! - The portable accelerations need no CPU support and are chosen by input
//!   shape alone: the u64-bitset Jaro matcher takes ASCII pairs whose second
//!   string fits 64 characters, the Myers sweep takes every `~lev` probe.
//!
//! The scalar kernels stay as the differential oracles the unit tests pin
//! every tier against, and as the only engines off x86-64 or on inputs the
//! fast paths do not cover.

use std::sync::OnceLock;

/// Instruction-set tier the q-gram hash kernel can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable Rust; always available, the differential oracle.
    Scalar,
    /// SSE4.1+ (`_mm_cvtepu8_epi64`): 2 FNV lanes per vector.
    Sse42,
    /// AVX2 (`_mm256_cvtepu8_epi64`): 4 FNV lanes per vector.
    Avx2,
}

impl SimdLevel {
    /// Short stable name used in bench JSON, `--explain-plans` and `ping`.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse42 => "sse4.2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// What the hardware supports. Probed once.
pub fn detected_level() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
            if std::arch::is_x86_feature_detected!("sse4.2") {
                return SimdLevel::Sse42;
            }
        }
        SimdLevel::Scalar
    })
}

/// Snapshot of the dispatch decision, for surfacing in `--explain-plans`,
/// the server `ping`/`health` reply, and bench JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchInfo {
    /// What the CPU supports.
    pub detected: SimdLevel,
    /// Kernel chosen for q-gram window hashing.
    pub gram_hash: &'static str,
    /// Jaro window matcher of ASCII pairs whose second string fits 64
    /// characters (the flag scan serves every other shape).
    pub jaro: &'static str,
    /// Driver of `~lev` candidate verification.
    pub lev_driver: &'static str,
}

/// The [`DispatchInfo`] of this process.
pub fn dispatch_info() -> DispatchInfo {
    DispatchInfo {
        detected: detected_level(),
        gram_hash: detected_level().name(),
        jaro: "bitset64",
        lev_driver: "columnar",
    }
}

impl std::fmt::Display for DispatchInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gram-hash={} jaro={} lev-driver={} (detected: {})",
            self.gram_hash,
            self.jaro,
            self.lev_driver,
            self.detected.name()
        )
    }
}

// ---------------------------------------------------------------------------
// FNV-1a window hashing.
//
// The scalar kernel hashes one window at a time with a serial xor/multiply
// chain (~4 cycles per byte of latency). The vector kernels hash 4 (AVX2)
// or 2 (SSE4.2) *adjacent* windows per register — for window start `i` and
// step `t`, lanes need bytes `padded[i+t..i+t+LANES]`, which are contiguous
// and load as one small scalar followed by a zero-extension shuffle. Two
// registers run interleaved so the multiply latency of one chain hides
// behind the other.
//
// The FNV-1a prime is 0x0000_0100_0000_01b3 = 2^40 + 0x1b3, so the wrapping
// 64-bit product — which SSE/AVX2 lack an instruction for — decomposes into
// shifts and 32x32→64 multiplies that they do have:
//
//   h * P  mod 2^64  =  (h << 40)  +  lo32(h)·0x1b3  +  (hi32(h)·0x1b3 << 32)
//
// Each term is exact (lo32(h)·0x1b3 < 2^41), so the lanes are bit-identical
// to `wrapping_mul` — the property every differential test pins.
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME_LO: u64 = 0x1b3;

use crate::qgram::hash_gram_bytes as fnv1a_bytes;

/// Append the FNV-1a hash of every length-`q` window of `padded` to `out`,
/// on the best kernel [`detected_level`] offers. Requires `padded.len() >= q`
/// and `q >= 1`; appends exactly `padded.len() - q + 1` hashes, bit-for-bit
/// what the scalar kernel produces.
#[inline]
pub fn hash_gram_windows(padded: &[u8], q: usize, out: &mut Vec<u64>) {
    debug_assert!(q >= 1 && padded.len() >= q);
    #[cfg(target_arch = "x86_64")]
    {
        match detected_level() {
            // SAFETY: dispatch verified the required target features.
            SimdLevel::Avx2 => return unsafe { x86::hash_windows_avx2(padded, q, out) },
            SimdLevel::Sse42 => return unsafe { x86::hash_windows_sse42(padded, q, out) },
            SimdLevel::Scalar => {}
        }
    }
    hash_gram_windows_scalar(padded, q, out);
}

/// The always-available scalar engine behind [`hash_gram_windows`].
#[inline]
pub fn hash_gram_windows_scalar(padded: &[u8], q: usize, out: &mut Vec<u64>) {
    out.extend(padded.windows(q).map(fnv1a_bytes));
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{fnv1a_bytes, FNV_OFFSET, FNV_PRIME_LO};
    use std::arch::x86_64::*;

    /// `h * FNV_PRIME mod 2^64` on four u64 lanes, via the
    /// `(h<<40) + lo32(h)·0x1b3 + (hi32(h)·0x1b3 << 32)` decomposition.
    #[inline(always)]
    unsafe fn fnv_mul_avx2(h: __m256i, prime_lo: __m256i) -> __m256i {
        let sh40 = _mm256_slli_epi64(h, 40);
        let lo = _mm256_mul_epu32(h, prime_lo);
        let hi = _mm256_slli_epi64(_mm256_mul_epu32(_mm256_srli_epi64(h, 32), prime_lo), 32);
        _mm256_add_epi64(sh40, _mm256_add_epi64(lo, hi))
    }

    /// Hash the 8 adjacent windows starting at `i`: two 4-lane registers
    /// interleaved so the two multiply chains overlap.
    #[inline(always)]
    unsafe fn hash_block8(
        padded: &[u8],
        i: usize,
        q: usize,
        prime_lo: __m256i,
        basis: __m256i,
    ) -> [u64; 8] {
        let mut h0 = basis;
        let mut h1 = basis;
        for t in 0..q {
            // Windows i..i+8 all read byte t from padded[i+t..i+t+8]:
            // contiguous, so two u32 loads feed the zero-extensions.
            let p = padded.as_ptr().add(i + t);
            let b0 =
                _mm256_cvtepu8_epi64(_mm_cvtsi32_si128((p as *const u32).read_unaligned() as i32));
            let b1 = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(
                (p.add(4) as *const u32).read_unaligned() as i32,
            ));
            h0 = fnv_mul_avx2(_mm256_xor_si256(h0, b0), prime_lo);
            h1 = fnv_mul_avx2(_mm256_xor_si256(h1, b1), prime_lo);
        }
        let mut lanes = [0u64; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, h0);
        _mm256_storeu_si256(lanes.as_mut_ptr().add(4) as *mut __m256i, h1);
        lanes
    }

    /// 8 windows per outer iteration ([`hash_block8`]); the tail re-runs a
    /// full block ending at the last window — windows are independent, so
    /// the overlap recomputes identical hashes and only the fresh ones are
    /// appended — keeping short values (the common case: padded attribute
    /// strings of a few dozen bytes) off the serial scalar chain.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn hash_windows_avx2(padded: &[u8], q: usize, out: &mut Vec<u64>) {
        let n = padded.len() + 1 - q;
        let prime_lo = _mm256_set1_epi64x(FNV_PRIME_LO as i64);
        let basis = _mm256_set1_epi64x(FNV_OFFSET as i64);
        out.reserve(n);
        let mut i = 0usize;
        while i + 8 <= n {
            out.extend_from_slice(&hash_block8(padded, i, q, prime_lo, basis));
            i += 8;
        }
        if i < n {
            if n >= 8 {
                let lanes = hash_block8(padded, n - 8, q, prime_lo, basis);
                out.extend_from_slice(&lanes[i - (n - 8)..]);
            } else {
                for w in i..n {
                    out.push(fnv1a_bytes(&padded[w..w + q]));
                }
            }
        }
    }

    /// Two-lane variant of [`fnv_mul_avx2`].
    #[inline(always)]
    unsafe fn fnv_mul_sse(h: __m128i, prime_lo: __m128i) -> __m128i {
        let sh40 = _mm_slli_epi64(h, 40);
        let lo = _mm_mul_epu32(h, prime_lo);
        let hi = _mm_slli_epi64(_mm_mul_epu32(_mm_srli_epi64(h, 32), prime_lo), 32);
        _mm_add_epi64(sh40, _mm_add_epi64(lo, hi))
    }

    /// Hash the 4 adjacent windows starting at `i`: two 2-lane registers
    /// interleaved. `_mm_cvtepu8_epi64` is SSE4.1, implied by the SSE4.2
    /// gate.
    #[inline(always)]
    unsafe fn hash_block4(
        padded: &[u8],
        i: usize,
        q: usize,
        prime_lo: __m128i,
        basis: __m128i,
    ) -> [u64; 4] {
        let mut h0 = basis;
        let mut h1 = basis;
        for t in 0..q {
            let p = padded.as_ptr().add(i + t);
            let b0 =
                _mm_cvtepu8_epi64(_mm_cvtsi32_si128((p as *const u16).read_unaligned() as i32));
            let b1 = _mm_cvtepu8_epi64(_mm_cvtsi32_si128(
                (p.add(2) as *const u16).read_unaligned() as i32,
            ));
            h0 = fnv_mul_sse(_mm_xor_si128(h0, b0), prime_lo);
            h1 = fnv_mul_sse(_mm_xor_si128(h1, b1), prime_lo);
        }
        let mut lanes = [0u64; 4];
        _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, h0);
        _mm_storeu_si128(lanes.as_mut_ptr().add(2) as *mut __m128i, h1);
        lanes
    }

    /// 4 windows per outer iteration ([`hash_block4`]), with the same
    /// overlapping-tail-block trick as the AVX2 kernel.
    #[target_feature(enable = "sse4.2")]
    pub(super) unsafe fn hash_windows_sse42(padded: &[u8], q: usize, out: &mut Vec<u64>) {
        let n = padded.len() + 1 - q;
        let prime_lo = _mm_set1_epi64x(FNV_PRIME_LO as i64);
        let basis = _mm_set1_epi64x(FNV_OFFSET as i64);
        out.reserve(n);
        let mut i = 0usize;
        while i + 4 <= n {
            out.extend_from_slice(&hash_block4(padded, i, q, prime_lo, basis));
            i += 4;
        }
        if i < n {
            if n >= 4 {
                let lanes = hash_block4(padded, n - 4, q, prime_lo, basis);
                out.extend_from_slice(&lanes[i - (n - 4)..]);
            } else {
                for w in i..n {
                    out.push(fnv1a_bytes(&padded[w..w + q]));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn scalar_windows(padded: &[u8], q: usize) -> Vec<u64> {
        let mut out = Vec::new();
        hash_gram_windows_scalar(padded, q, &mut out);
        out
    }

    /// Run `f` on every tier the hardware supports (plus scalar), asserting
    /// it reports identical results per tier.
    #[cfg(target_arch = "x86_64")]
    fn per_supported_tier(padded: &[u8], q: usize) -> Vec<(SimdLevel, Vec<u64>)> {
        let mut results = vec![(SimdLevel::Scalar, scalar_windows(padded, q))];
        if detected_level() >= SimdLevel::Sse42 {
            let mut out = Vec::new();
            unsafe { x86::hash_windows_sse42(padded, q, &mut out) };
            results.push((SimdLevel::Sse42, out));
        }
        if detected_level() >= SimdLevel::Avx2 {
            let mut out = Vec::new();
            unsafe { x86::hash_windows_avx2(padded, q, &mut out) };
            results.push((SimdLevel::Avx2, out));
        }
        results
    }

    #[test]
    fn dispatch_info_renders() {
        let info = dispatch_info();
        let s = info.to_string();
        assert!(s.contains("gram-hash="), "got {s}");
        assert!(s.contains("lev-driver="), "got {s}");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_kernels_match_scalar_on_fixed_cases() {
        // Window boundary shapes: exactly at/around the 8- and 4-lane
        // unroll, plus q values the engine actually uses (1..=4).
        for len in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200] {
            let padded: Vec<u8> = (0..len).map(|i| (i * 131 % 251) as u8).collect();
            for q in 1..=4usize.min(len) {
                let tiers = per_supported_tier(&padded, q);
                let (_, scalar) = &tiers[0];
                for (level, out) in &tiers[1..] {
                    assert_eq!(out, scalar, "len={len} q={q} level={level:?}");
                }
            }
        }
    }

    proptest! {
        /// Every supported vector tier reproduces the scalar hashes
        /// bit-for-bit on arbitrary byte content (incl. 0x00/0xff and the
        /// PAD sentinel 0x01).
        #[cfg(target_arch = "x86_64")]
        #[test]
        fn vector_kernels_match_scalar(raw in proptest::collection::vec(0u16..256, 1..96), q in 1usize..5) {
            let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            let q = q.min(bytes.len());
            for (level, out) in per_supported_tier(&bytes, q) {
                prop_assert_eq!(&out, &scalar_windows(&bytes, q), "level={:?}", level);
            }
        }
    }
}
