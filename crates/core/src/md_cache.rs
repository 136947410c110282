//! Memoized MD premise verification — the parallel "chunk" stage of the
//! chunk–merge–apply design (see [`crate::parallel`]).
//!
//! `MasterIndex::matches_into` — candidate generation plus full
//! premise verification against master data — dominates the running time
//! of `cRepair` and `eRepair` on MD-heavy workloads, and it is a pure
//! function of one data tuple's premise cells (master data never changes
//! within a phase). [`MdMatchCache`] exploits both facts:
//!
//! * [`MdMatchCache::prefill`] computes the witness lists for every tuple
//!   a phase is about to interrogate, fanned out over scoped workers and
//!   merged back in tuple-id order;
//! * [`MdMatchCache::matches`] serves the sequential engine — a cache hit
//!   returns the precomputed list, a miss (never prefilled, or invalidated
//!   by a repair) recomputes on the spot, exactly as the unparallelized
//!   code would;
//! * [`MdMatchCache::invalidate`] drops entries whose premise cells a fix
//!   just rewrote, keeping the cache transparent: the served lists are
//!   always equal to a direct `matches_into` call on the current
//!   relation state, so results are bit-identical at every thread count.

use uniclean_model::{AttrId, Relation, TupleId};
use uniclean_rules::RuleSet;

use crate::master_index::ProbeScratch;
use crate::parallel::map_chunks;
use crate::session::Master;

/// Per-(MD, tuple) verified witness lists with premise-based invalidation.
///
/// A cache can outlive one phase run: [`RepairState`](crate::RepairState)
/// keeps the `eRepair` cache warm across `clean_delta` calls, where every
/// run restarts from the same post-`cRepair` relation. Entries computed
/// *before* any write are valid for that base state and survive; entries
/// recomputed *after* a write reflect a mid-run state, so they are tracked
/// as volatile and dropped by [`MdMatchCache::begin_run`] before the next
/// run replays the same fixes.
pub(crate) struct MdMatchCache {
    /// `entries[md][tuple]`: `None` = not computed (or invalidated).
    entries: Vec<Vec<Option<Box<[TupleId]>>>>,
    /// `attr.index()` → MDs whose premise reads that attribute.
    attr_to_mds: Vec<Vec<usize>>,
    /// `(md, tuple)` slots invalidated since the last `begin_run`; refills
    /// of these reflect mid-run states, not the run's base state.
    volatile: Vec<(usize, TupleId)>,
    /// Probe-side buffers and symbol-keyed profile cache for the
    /// sequential recompute path; cleared on [`Self::begin_run`] because a
    /// rewound run may re-intern different values behind the same symbols.
    scratch: ProbeScratch,
    /// Reusable witness buffer for the sequential miss path — recomputes
    /// happen per invalidated cell, so a per-miss `Vec` allocation adds up
    /// on repair-heavy runs.
    miss_buf: Vec<TupleId>,
}

impl MdMatchCache {
    pub(crate) fn new(rules: &RuleSet, n_tuples: usize) -> Self {
        let n_mds = rules.mds().len();
        let n_attrs = rules.schema().arity();
        let mut attr_to_mds = vec![Vec::new(); n_attrs];
        for (m, md) in rules.mds().iter().enumerate() {
            let mut attrs: Vec<AttrId> = md.premises().iter().map(|p| p.attr).collect();
            attrs.sort_unstable();
            attrs.dedup();
            for a in attrs {
                attr_to_mds[a.index()].push(m);
            }
        }
        MdMatchCache {
            entries: vec![vec![None; n_tuples]; n_mds],
            attr_to_mds,
            volatile: Vec::new(),
            scratch: ProbeScratch::new(),
            miss_buf: Vec::new(),
        }
    }

    /// Extend the cache with empty slots for `n_new` appended tuples.
    pub(crate) fn grow(&mut self, n_new: usize) {
        for per_md in &mut self.entries {
            per_md.extend(std::iter::repeat_with(|| None).take(n_new));
        }
    }

    /// Start a fresh run from the cache's base state: drop every entry
    /// whose slot was invalidated (and possibly refilled at a mid-run
    /// state) since the previous `begin_run`. Entries never invalidated
    /// still describe the base state and stay warm.
    pub(crate) fn begin_run(&mut self) {
        for (m, t) in self.volatile.drain(..) {
            self.entries[m][t.index()] = None;
        }
        // A fresh run restarts from the base relation state; symbols
        // interned mid-run by the previous replay may differ, so the
        // symbol-keyed probe cache must not carry over.
        self.scratch.reset();
    }

    /// Discard the volatile journal *without* dropping entries — for
    /// caches that track a forward-only relation (the `cRepair` fixpoint's
    /// cache): every entry is kept current by invalidation-on-write, the
    /// state never rewinds, so the journal serves no purpose and must not
    /// accumulate across a long-lived session.
    pub(crate) fn forget_volatile(&mut self) {
        self.volatile.clear();
    }

    /// Fan the expensive verification out over `threads` workers for every
    /// `(md, tuple)` pair `want` selects, merging results in tuple-id
    /// order. Pairs not selected (or later invalidated) fall back to the
    /// sequential recompute in [`Self::matches`].
    pub(crate) fn prefill(
        &mut self,
        rules: &RuleSet,
        d: &Relation,
        m: Master<'_>,
        threads: usize,
        want: impl Fn(usize, TupleId) -> bool + Sync,
    ) {
        self.prefill_range(rules, d, m, threads, 0..d.len(), want);
    }

    /// [`Self::prefill`] restricted to the tuple-id range `span` — the
    /// incremental path only prefills the appended batch.
    pub(crate) fn prefill_range(
        &mut self,
        rules: &RuleSet,
        d: &Relation,
        m: Master<'_>,
        threads: usize,
        span: std::ops::Range<usize>,
        want: impl Fn(usize, TupleId) -> bool + Sync,
    ) {
        if threads <= 1 || rules.mds().is_empty() {
            return;
        }
        let n_mds = rules.mds().len();
        let base = span.start;
        // chunk: one worker per tuple range, producing per-tuple rows of
        // witness lists; merge: move rows back in chunk (= tuple-id) order.
        // Slots already warm (a cross-call cache) are skipped — their
        // entries equal what this recomputation would produce.
        let entries = &self.entries;
        let chunks = map_chunks(span.len(), threads, |range| {
            let mut scratch = ProbeScratch::new();
            let mut buf = Vec::new();
            let mut rows: Vec<Vec<Option<Box<[TupleId]>>>> = Vec::with_capacity(range.len());
            for i in range {
                let t = TupleId::from(base + i);
                let mut row: Vec<Option<Box<[TupleId]>>> = vec![None; n_mds];
                for (j, md) in rules.mds().iter().enumerate() {
                    if entries[j][t.index()].is_some() || !want(j, t) {
                        continue;
                    }
                    m.index.matches_into(
                        j,
                        md,
                        d.tuple(t),
                        m.dm,
                        m.own_row(t),
                        &mut scratch,
                        &mut buf,
                    );
                    row[j] = Some(buf.as_slice().into());
                }
                rows.push(row);
            }
            rows
        });
        let mut i = base;
        for chunk in chunks {
            for row in chunk {
                for (j, entry) in row.into_iter().enumerate() {
                    if entry.is_some() {
                        self.entries[j][i] = entry;
                    }
                }
                i += 1;
            }
        }
    }

    /// The verified witness list for `(md_idx, t)` against the current
    /// relation state; recomputes on a miss. A self-snapshot master's row
    /// `t` is the tuple's own copy and never a witness.
    pub(crate) fn matches(
        &mut self,
        md_idx: usize,
        rules: &RuleSet,
        d: &Relation,
        m: Master<'_>,
        t: TupleId,
    ) -> &[TupleId] {
        let slot = &mut self.entries[md_idx][t.index()];
        if slot.is_none() {
            let md = &rules.mds()[md_idx];
            self.miss_buf.clear();
            m.index.matches_into(
                md_idx,
                md,
                d.tuple(t),
                m.dm,
                m.own_row(t),
                &mut self.scratch,
                &mut self.miss_buf,
            );
            *slot = Some(self.miss_buf.as_slice().into());
        }
        slot.as_deref().expect("filled above")
    }

    /// Cell `(t, a)` was just rewritten: drop every witness list whose
    /// premise read it.
    pub(crate) fn invalidate(&mut self, t: TupleId, a: AttrId) {
        for &m in &self.attr_to_mds[a.index()] {
            self.entries[m][t.index()] = None;
            self.volatile.push((m, t));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master_index::MasterIndex;
    use uniclean_model::{Schema, Tuple, Value};
    use uniclean_rules::parse_rules;

    fn setup() -> (RuleSet, Relation, Relation, MasterIndex) {
        let tran = Schema::of_strings("tran", &["LN", "city", "phn"]);
        let card = Schema::of_strings("card", &["LN", "city", "tel"]);
        let text =
            "md m: tran[LN] = card[LN] AND tran[city] = card[city] -> tran[phn] <=> card[tel]";
        let parsed = parse_rules(text, &tran, Some(&card)).unwrap();
        let rules = RuleSet::new(
            tran.clone(),
            Some(card.clone()),
            vec![],
            parsed.positive_mds,
            vec![],
        );
        let d = Relation::new(
            tran,
            vec![
                Tuple::of_strs(&["Smith", "Edi", "000"], 0.5),
                Tuple::of_strs(&["Brady", "Ldn", "111"], 0.5),
                Tuple::of_strs(&["Smith", "Ldn", "222"], 0.5),
            ],
        );
        let dm = Relation::new(
            card,
            vec![
                Tuple::of_strs(&["Smith", "Edi", "911"], 1.0),
                Tuple::of_strs(&["Brady", "Ldn", "922"], 1.0),
            ],
        );
        let idx = MasterIndex::build(rules.mds(), &dm);
        (rules, d, dm, idx)
    }

    #[test]
    fn lazy_matches_equal_direct_computation() {
        let (rules, d, dm, idx) = setup();
        let m = Master::external(&rules, Some(&dm), Some(&idx)).unwrap();
        let mut cache = MdMatchCache::new(&rules, d.len());
        let mut scratch = crate::master_index::ProbeScratch::new();
        let mut want = Vec::new();
        for t in d.ids() {
            idx.matches_into(
                0,
                &rules.mds()[0],
                d.tuple(t),
                &dm,
                None,
                &mut scratch,
                &mut want,
            );
            let got = cache.matches(0, &rules, &d, m, t);
            assert_eq!(got, want.as_slice(), "tuple {t:?}");
        }
    }

    #[test]
    fn prefill_matches_lazy_path() {
        let (rules, d, dm, idx) = setup();
        let m = Master::external(&rules, Some(&dm), Some(&idx)).unwrap();
        let mut eager = MdMatchCache::new(&rules, d.len());
        eager.prefill(&rules, &d, m, 2, |_, _| true);
        let mut lazy = MdMatchCache::new(&rules, d.len());
        for t in d.ids() {
            assert_eq!(
                eager.matches(0, &rules, &d, m, t).to_vec(),
                lazy.matches(0, &rules, &d, m, t).to_vec(),
            );
        }
    }

    #[test]
    fn invalidation_tracks_premise_rewrites() {
        let (rules, mut d, dm, idx) = setup();
        let m = Master::external(&rules, Some(&dm), Some(&idx)).unwrap();
        let city = d.schema().attr_id_or_panic("city");
        let phn = d.schema().attr_id_or_panic("phn");
        let mut cache = MdMatchCache::new(&rules, d.len());

        // t2 (Smith, Ldn) matches nothing; repair city → Edi and it must
        // match master row 0 — but only if the cache was invalidated.
        let t = TupleId(2);
        assert!(cache.matches(0, &rules, &d, m, t).is_empty());
        d.tuple_mut(t)
            .set(city, Value::str("Edi"), 0.5, Default::default());
        cache.invalidate(t, city);
        assert_eq!(cache.matches(0, &rules, &d, m, t), &[TupleId(0)]);

        // Rewriting a non-premise attribute must keep the entry.
        d.tuple_mut(t)
            .set(phn, Value::str("999"), 0.5, Default::default());
        cache.invalidate(t, phn);
        assert_eq!(cache.matches(0, &rules, &d, m, t), &[TupleId(0)]);
    }
}
