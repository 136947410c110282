//! Information entropy for conflict resolution (§6.1), and the
//! entropy-ordered set of conflict sets `eRepair` walks (§6.3).
//!
//! For a variable CFD `ϕ = R(Y → B, tp)` and a key `ȳ`:
//!
//! ```text
//! H(ϕ | Y = ȳ) = Σ_{i=1..k}  (cnt(ȳ, bi) / |Δ(ȳ)|) · log_k (|Δ(ȳ)| / cnt(ȳ, bi))
//! ```
//!
//! where `k` is the number of distinct `B` values in the conflict set
//! `Δ(ȳ)`. The base-`k` logarithm normalizes `H` into `[0, 1]`:
//! `H = 1` exactly on a uniform conflict (maximal uncertainty), `H = 0`
//! when a single value remains. "When H(ϕ|Y = ȳ) is small enough, it is
//! highly accurate to resolve the conflict by letting t\[B\] = bj for all
//! t ∈ Δ(ȳ), where bj is the one with the highest probability."
//!
//! [`entropy_of_counts`] is the one entropy function: the 2-in-1's groups,
//! its rebuild oracle and the tests all call it. Its result is a function
//! of the multiset of counts alone, to the bit. It sums the terms over the
//! count values in ascending order, an order that depends neither on how
//! the values are numbered (symbol order follows the store's lineage) nor
//! on the order the counts changed in. A uniform conflict (`k ≥ 2` equal
//! counts) is exactly `1.0`, not a sum of `k` rounded `1/k` terms, so the
//! test `H < δ2` at `δ2 = 1` never resolves one; any other result is
//! clamped into `[0, 1]`.

use std::cmp::Ordering;
use std::collections::BTreeSet;

/// Entropy of a multiset given its value counts, per the paper's base-`k`
/// definition. Zero-count entries are ignored; `k ≤ 1` yields 0. The
/// nonzero counts are sorted ascending into `scratch`, whose capacity a
/// caller keeps across calls so that a call allocates nothing.
pub fn entropy_of_counts<I>(counts: I, scratch: &mut Vec<usize>) -> f64
where
    I: IntoIterator<Item = usize>,
{
    scratch.clear();
    scratch.extend(counts.into_iter().filter(|&c| c > 0));
    scratch.sort_unstable();
    let k = scratch.len();
    if k <= 1 {
        return 0.0;
    }
    if scratch[0] == scratch[k - 1] {
        return 1.0;
    }
    let n = scratch.iter().sum::<usize>() as f64;
    let h: f64 = scratch
        .iter()
        .map(|&c| {
            let c = c as f64;
            c / n * (n / c).ln()
        })
        .sum();
    (h / (k as f64).ln()).clamp(0.0, 1.0)
}

/// The majority value index and count among `counts` (ties resolved to the
/// first maximum). Returns `None` on empty input.
pub fn majority_index(counts: &[usize]) -> Option<(usize, usize)> {
    counts
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
}

/// Key of a conflict set in an [`EntropyOrder`]: its entropy plus a
/// disambiguating group id, totally ordered by `(entropy, id)`.
#[derive(Clone, Copy, Debug)]
pub struct EntropyKey {
    /// The entropy value (finite, non-negative).
    pub entropy: f64,
    /// Stable identifier of the conflict set.
    pub id: u64,
}

impl Ord for EntropyKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.entropy
            .total_cmp(&other.entropy)
            .then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for EntropyKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for EntropyKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for EntropyKey {}

/// The ordered half of the 2-in-1 structure of §6.3: the conflict sets
/// with nonzero entropy, ascending, so `eRepair` pulls the most certain
/// conflicts first. "For each node v in T, its left child vl.ǫ ≤ v.ǫ and
/// its right child vr.ǫ ≥ v.ǫ" — the paper names an AVL tree; any balanced
/// ordered set gives the same O(log n) insert/remove and the same
/// traversal order, so this is the standard library's B-tree.
#[derive(Clone, Default)]
pub struct EntropyOrder(BTreeSet<EntropyKey>);

impl EntropyOrder {
    /// Number of keys.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Insert a key; returns false if it was already present.
    pub fn insert(&mut self, key: EntropyKey) -> bool {
        self.0.insert(key)
    }

    /// Remove a key; returns false if it was absent.
    pub fn remove(&mut self, key: &EntropyKey) -> bool {
        self.0.remove(key)
    }

    /// The minimum-entropy key, if any — `eRepair`'s next conflict set.
    pub fn min(&self) -> Option<EntropyKey> {
        self.0.first().copied()
    }

    /// The keys with `entropy < bound`, ascending.
    pub fn below(&self, bound: f64) -> impl Iterator<Item = EntropyKey> + '_ {
        // `(bound, 0)` is the least key at `bound`, so the exclusive range
        // ends just before the first key whose entropy reaches it.
        let end = EntropyKey {
            entropy: bound,
            id: 0,
        };
        self.0.range(..end).copied()
    }

    /// All keys, ascending.
    pub fn iter(&self) -> impl Iterator<Item = EntropyKey> + '_ {
        self.0.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn k(e: f64, id: u64) -> EntropyKey {
        EntropyKey { entropy: e, id }
    }

    #[test]
    fn order_insert_remove_roundtrip() {
        let mut t = EntropyOrder::default();
        assert!(t.is_empty());
        assert_eq!(t.min(), None);
        assert!(t.insert(k(0.5, 1)));
        assert!(t.insert(k(0.2, 2)));
        assert!(t.insert(k(0.8, 3)));
        assert!(!t.insert(k(0.5, 1)), "duplicate rejected");
        assert_eq!(t.len(), 3);
        assert_eq!(t.min().unwrap().id, 2);
        assert!(t.remove(&k(0.2, 2)));
        assert!(!t.remove(&k(0.2, 2)));
        assert_eq!(t.min().unwrap().id, 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn below_returns_prefix_under_bound() {
        let mut t = EntropyOrder::default();
        for (i, e) in [0.9, 0.1, 0.5, 0.3, 0.7].into_iter().enumerate() {
            t.insert(k(e, i as u64));
        }
        // Exclusive at the bound, whatever the id of the key sitting on it.
        let es: Vec<f64> = t.below(0.5).map(|x| x.entropy).collect();
        assert_eq!(es, vec![0.1, 0.3]);
        assert_eq!(t.below(f64::INFINITY).count(), 5);
    }

    #[test]
    fn equal_entropies_are_distinguished_by_id() {
        let mut t = EntropyOrder::default();
        assert!(t.insert(k(0.5, 1)));
        assert!(t.insert(k(0.5, 2)));
        assert_eq!(t.len(), 2);
        assert!(t.remove(&k(0.5, 1)));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![k(0.5, 2)]);
    }

    proptest! {
        /// Random insert/remove sequences agree with a sorted-vector oracle.
        #[test]
        fn order_agrees_with_oracle(ops in proptest::collection::vec((0u8..2, 0u64..40, 0u32..100), 1..200)) {
            let mut t = EntropyOrder::default();
            let mut oracle: Vec<EntropyKey> = Vec::new();
            for (op, id, e100) in ops {
                let key = k(e100 as f64 / 100.0, id);
                let pos = oracle.iter().position(|x| *x == key);
                if op == 0 {
                    prop_assert_eq!(t.insert(key), pos.is_none());
                    if pos.is_none() { oracle.push(key); }
                } else {
                    prop_assert_eq!(t.remove(&key), pos.is_some());
                    if let Some(p) = pos { oracle.remove(p); }
                }
                prop_assert_eq!(t.len(), oracle.len());
                oracle.sort_by(|a, b| {
                    a.entropy.partial_cmp(&b.entropy).unwrap().then(a.id.cmp(&b.id))
                });
                let got: Vec<u64> = t.iter().map(|x| x.id).collect();
                let want: Vec<u64> = oracle.iter().map(|x| x.id).collect();
                prop_assert_eq!(got, want);
                let bound = 0.5;
                let got: Vec<u64> = t.below(bound).map(|x| x.id).collect();
                let want: Vec<u64> =
                    oracle.iter().filter(|x| x.entropy < bound).map(|x| x.id).collect();
                prop_assert_eq!(got, want);
            }
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    /// [`entropy_of_counts`] with a fresh scratch buffer.
    fn h<I: IntoIterator<Item = usize>>(counts: I) -> f64 {
        entropy_of_counts(counts, &mut Vec::new())
    }

    #[test]
    fn single_value_has_zero_entropy() {
        assert_eq!(h([5]), 0.0);
        assert_eq!(h([1]), 0.0);
    }

    #[test]
    fn uniform_conflict_has_entropy_one() {
        for k in 2..40 {
            for c in 1..12 {
                assert_eq!(h(vec![c; k]), 1.0, "{k} counts of {c}");
            }
        }
    }

    #[test]
    fn example_6_2_values() {
        // Fig. 8: Δ(ABC=(a1,b1,c1)) has E values {e1×3, e2×1} → H ≈ 0.8113.
        let e = h([3, 1]);
        assert!(close(e, 0.8112781244591328), "got {e}");
        // Δ(ABC=(a2,b2,c2)) has {e1×1, e2×1} → H = 1.
        assert_eq!(h([1, 1]), 1.0);
        // Δ(ABC=(a2,b2,c3)) has a single value → H = 0.
        assert_eq!(h([1]), 0.0);
    }

    #[test]
    fn skewed_conflicts_have_low_entropy() {
        let e = h([99, 1]);
        assert!(e < 0.1, "got {e}");
    }

    #[test]
    fn zero_counts_are_ignored() {
        assert_eq!(h([3, 0, 1, 0]).to_bits(), h([3, 1]).to_bits());
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(h(std::iter::empty::<usize>()), 0.0);
    }

    #[test]
    fn majority_picks_first_max() {
        assert_eq!(majority_index(&[1, 5, 5]), Some((1, 5)));
        assert_eq!(majority_index(&[]), None);
        assert_eq!(majority_index(&[7]), Some((0, 7)));
    }

    proptest! {
        /// H ∈ [0, 1] for any counts.
        #[test]
        fn entropy_in_unit_interval(counts in proptest::collection::vec(1usize..50, 1..8)) {
            let e = h(counts);
            prop_assert!((0.0..=1.0).contains(&e), "H = {e}");
        }

        /// H is invariant, to the bit, under permutation of the counts.
        #[test]
        fn entropy_is_symmetric(mut counts in proptest::collection::vec(1usize..50, 2..6), rot in 0usize..6) {
            let h1 = h(counts.clone());
            counts.reverse();
            let h2 = h(counts.clone());
            let r = rot % counts.len();
            counts.rotate_left(r);
            let h3 = h(counts);
            prop_assert_eq!(h1.to_bits(), h2.to_bits());
            prop_assert_eq!(h1.to_bits(), h3.to_bits());
        }

        /// Concentrating mass strictly below uniform keeps H < 1.
        #[test]
        fn non_uniform_is_below_one(base in 2usize..40, extra in 1usize..40, k in 2usize..5) {
            let mut counts = vec![base; k];
            counts[0] += extra;
            let e = h(counts);
            prop_assert!(e < 1.0);
        }
    }
}
