//! Memoized MD premise verification.
//!
//! `MasterIndex::matches_into` — candidate generation plus full
//! premise verification against master data — dominates the running time
//! of every phase on MD-heavy workloads, and it is a pure function of one
//! data tuple's premise cells (master data never changes within a phase).
//! [`MdMatchCache`] exploits both facts:
//!
//! * [`MdMatchCache::matches`] serves the engine — a hit returns the
//!   stored list, a miss (never asked, or invalidated by a repair)
//!   computes it on the spot and stores it;
//! * [`MdMatchCache::invalidate`] hides entries whose premise cells a fix
//!   just rewrote, keeping the cache transparent: the served lists are
//!   always equal to a direct `matches_into` call on the current
//!   relation state.
//!
//! The phase loop keeps one cache for the session's master view, whose base
//! relation is the post-`cRepair` state: `cRepair` writes and settles,
//! `eRepair` and then `hRepair` write into a per-run overlay, and a kept
//! state carries the cache into the next delta call. A self-snapshot master
//! is a new relation in every phase and `hRepair` round, so each such view
//! gets a fresh cache (`MasterView::cache` decides).

use uniclean_model::{AttrId, FxHashMap, Relation, TupleId};
use uniclean_rules::RuleSet;

use crate::master_index::ProbeScratch;
use crate::session::Master;

/// Per-(MD, tuple) verified witness lists with premise-based invalidation.
///
/// A cache can outlive one call: [`RepairState`](crate::RepairState) keeps
/// it warm across `clean_delta` calls. Its *base* state is the
/// post-`cRepair` relation, which only moves forward: `cRepair` writes and
/// then [`MdMatchCache::settle`]s. An `eRepair`/`hRepair` write never drops
/// a base entry: the slots whose premises a run rewrote are shadowed by a
/// per-run overlay, which [`MdMatchCache::begin_run`] discards, so the next
/// call finds every base entry warm.
pub(crate) struct MdMatchCache {
    /// `entries[md][tuple]`: the witness list for the base state (`None` =
    /// not computed).
    entries: Vec<Vec<Option<Box<[TupleId]>>>>,
    /// `attr.index()` → MDs whose premise reads that attribute.
    attr_to_mds: Vec<Vec<usize>>,
    /// The slots whose premise this run rewrote, with their list for the
    /// current state (`None` = not recomputed since the last write).
    rewritten: FxHashMap<(usize, TupleId), Option<Box<[TupleId]>>>,
    /// Probe-side buffers and symbol-keyed profile cache for the miss
    /// path; cleared on [`Self::begin_run`] because a rewound run may
    /// re-intern different values behind the same symbols.
    scratch: ProbeScratch,
    /// Reusable witness buffer for the miss path — recomputes happen per
    /// invalidated cell, so a per-miss `Vec` allocation adds up on
    /// repair-heavy runs.
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
            rewritten: FxHashMap::default(),
            scratch: ProbeScratch::new(),
            miss_buf: Vec::new(),
        }
    }

    /// An empty cache of the same shape, for another master relation.
    pub(crate) fn empty_like(&self) -> Self {
        MdMatchCache {
            entries: self.entries.iter().map(|e| vec![None; e.len()]).collect(),
            attr_to_mds: self.attr_to_mds.clone(),
            rewritten: FxHashMap::default(),
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

    /// Start a fresh run from the cache's base state: drop the previous
    /// run's overlay.
    pub(crate) fn begin_run(&mut self) {
        self.rewritten.clear();
        // A fresh run restarts from the base relation state; symbols
        // interned mid-run by the previous replay may differ, so the
        // symbol-keyed probe cache must not carry over.
        self.scratch.reset();
    }

    /// Make the current state the base state, folding the overlay in —
    /// after `cRepair`, whose writes move the base relation forward.
    pub(crate) fn settle(&mut self) {
        for ((m, t), entry) in self.rewritten.drain() {
            self.entries[m][t.index()] = entry;
        }
    }

    /// The witness list of `(md, t)` in the current state, if known.
    fn current(&self, md: usize, t: TupleId) -> Option<&[TupleId]> {
        match self.rewritten.get(&(md, t)) {
            Some(slot) => slot.as_deref(),
            None => self.entries[md][t.index()].as_deref(),
        }
    }

    /// The slot holding `(md, t)`'s list for the current state.
    fn slot(&mut self, md: usize, t: TupleId) -> &mut Option<Box<[TupleId]>> {
        match self.rewritten.get_mut(&(md, t)) {
            Some(slot) => slot,
            None => &mut self.entries[md][t.index()],
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
        if self.current(md_idx, t).is_none() {
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
            let list = self.miss_buf.as_slice().into();
            *self.slot(md_idx, t) = Some(list);
        }
        self.current(md_idx, t).expect("stored above")
    }

    /// Cell `(t, a)` was just rewritten: every witness list whose premise
    /// read it is unknown for the current state until recomputed.
    pub(crate) fn invalidate(&mut self, t: TupleId, a: AttrId) {
        for &m in &self.attr_to_mds[a.index()] {
            self.rewritten.insert((m, t), None);
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

    /// Check every filled slot of `cache`'s current view against a direct
    /// probe of `d`; returns how many there were.
    fn assert_current(
        cache: &MdMatchCache,
        rules: &RuleSet,
        d: &Relation,
        dm: &Relation,
        idx: &MasterIndex,
    ) -> usize {
        let mut scratch = ProbeScratch::new();
        let mut direct = Vec::new();
        let mut filled = 0;
        for (j, md) in rules.mds().iter().enumerate() {
            for t in d.ids() {
                let Some(entry) = cache.current(j, t) else {
                    continue;
                };
                idx.matches_into(j, md, d.tuple(t), dm, None, &mut scratch, &mut direct);
                assert_eq!(entry, direct.as_slice(), "md {j} tuple {t:?}");
                filled += 1;
            }
        }
        filled
    }

    /// The phase loop hands `eRepair`'s cache to `hRepair`: afterwards —
    /// also when the round cap stops `hRepair` right after it rewrote an
    /// MD premise — every filled slot is what a direct probe of the final
    /// relation returns, and after `begin_run` every base entry, the
    /// rewritten tuple's included, is one of the relation the run started
    /// from.
    #[test]
    fn cache_shared_by_erepair_and_hrepair_matches_the_final_relation() {
        use crate::config::CleanConfig;
        use crate::erepair::e_run;
        use crate::hrepair::h_run;
        use crate::session::MasterView;
        use crate::two_in_one::TwoInOne;

        let tran = Schema::of_strings("tran", &["LN", "city", "zip", "phn"]);
        let card = Schema::of_strings("card", &["LN", "city", "tel"]);
        let text = "cfd fd: tran([zip] -> [city])\n\
                    md m: tran[LN] = card[LN] AND tran[city] = card[city] -> tran[phn] <=> card[tel]";
        let parsed = parse_rules(text, &tran, Some(&card)).unwrap();
        let rules = RuleSet::new(
            tran.clone(),
            Some(card.clone()),
            parsed.cfds,
            parsed.positive_mds,
            vec![],
        );
        // Tuples 0 and 1 share a zip but not a city (entropy 1: left to
        // hRepair, which moves tuple 1 to Edi and so to another witness).
        let dirty = Relation::new(
            tran.clone(),
            vec![
                Tuple::of_strs(&["Smith", "Edi", "Z1", "000"], 0.5),
                Tuple::of_strs(&["Smith", "Ldn", "Z1", "111"], 0.5),
                Tuple::of_strs(&["Brady", "Ldn", "Z2", "222"], 0.5),
            ],
        );
        let dm = Relation::new(
            card,
            vec![
                Tuple::of_strs(&["Smith", "Edi", "911"], 1.0),
                Tuple::of_strs(&["Brady", "Ldn", "922"], 1.0),
                Tuple::of_strs(&["Smith", "Ldn", "933"], 1.0),
            ],
        );
        let idx = MasterIndex::build(rules.mds(), &dm);
        let m = Master::external(&rules, Some(&dm), Some(&idx)).unwrap();
        let city = tran.attr_id_or_panic("city");

        for rounds in [1, CleanConfig::default().max_hrepair_rounds] {
            let cfg = CleanConfig {
                eta: 0.8,
                max_hrepair_rounds: rounds,
                ..CleanConfig::default()
            };
            let mut d = dirty.clone();
            let start = dirty.clone();
            let mut cache = MdMatchCache::new(&rules, d.len());
            let mut two = TwoInOne::build(&rules, &d);
            let order = uniclean_reasoning::erepair_order(&rules);
            e_run(&mut d, Some(m), &rules, &order, &cfg, &mut two, &mut cache);
            let fixes = h_run(
                &mut d,
                &rules,
                &cfg,
                |_| MasterView::Prepared(Some(m)),
                &mut two,
                &mut cache,
            );
            assert!(
                fixes.records().iter().any(|r| r.attr == city),
                "rounds={rounds}: hRepair must rewrite an MD premise"
            );
            two.assert_consistent_with_rebuild(&rules, &d);

            assert!(assert_current(&cache, &rules, &d, &dm, &idx) > 0);
            cache.begin_run();
            assert!(
                cache.entries[0][1].is_some(),
                "rounds={rounds}: the base entry of the tuple hRepair moved stays warm"
            );
            assert!(assert_current(&cache, &rules, &start, &dm, &idx) > 0);
        }
    }

    /// The session's one cache, from `cRepair` on: after `begin` and after
    /// every delta — the first one a cascade that moves a settled tuple's
    /// MD premise to another witness — every filled base entry is what a
    /// direct probe of the post-`cRepair` relation returns.
    #[test]
    fn the_warm_cache_base_is_the_post_crepair_relation() {
        use crate::config::CleanConfig;
        use crate::incremental::RepairState;
        use crate::session::{Cleaner, MasterSource, Phase};
        use uniclean_model::FixMark;

        let r = Schema::of_strings("r", &["K", "A", "C", "B"]);
        let rm = Schema::of_strings("rm", &["K", "C", "B"]);
        let text = "cfd fd: r([A] -> [K])\n\
                    md m: r[K] = rm[K] AND r[C] = rm[C] -> r[B] <=> rm[B]";
        let parsed = parse_rules(text, &r, Some(&rm)).unwrap();
        let rules = RuleSet::new(
            r.clone(),
            Some(rm.clone()),
            parsed.cfds,
            parsed.positive_mds,
            vec![],
        );
        let dm = Relation::new(
            rm,
            vec![
                Tuple::of_strs(&["k1", "c", "b1"], 1.0),
                Tuple::of_strs(&["k2", "c", "b2"], 1.0),
            ],
        );
        // `cf` lists the confidence of K, A, C, B.
        let row = |vals: [&str; 4], cf: [f64; 4]| {
            let mut t = Tuple::of_strs(&vals, 0.0);
            for (attr, c) in r.attr_ids().zip(cf) {
                let v = t.value(attr).clone();
                t.set(attr, v, c, FixMark::Untouched);
            }
            t
        };
        // The settled tuple matches master row k1 through its unasserted
        // K; the first batch asserts K = k2 for the same A, so cRepair
        // moves it to k2.
        let settled = row(["k1", "a0", "c", "b0"], [0.0, 1.0, 0.0, 0.0]);
        let witness = row(["k2", "a0", "c", "b2"], [1.0, 1.0, 0.0, 0.0]);
        let unrelated = row(["k9", "a9", "c", "b9"], [0.0, 0.0, 0.0, 0.0]);
        let uni = Cleaner::builder()
            .rules(rules.clone())
            .master(MasterSource::external(dm.clone()))
            .config(CleanConfig {
                eta: 0.8,
                ..CleanConfig::default()
            })
            .build()
            .unwrap();
        let idx = uni.prepared().master_index().unwrap();
        let check = |state: &RepairState, label: &str| {
            let warm = state
                .warm
                .as_ref()
                .expect("an external master keeps its state");
            let mut scratch = ProbeScratch::new();
            let mut direct = Vec::new();
            let mut filled = 0;
            for (j, md) in rules.mds().iter().enumerate() {
                for t in warm.post_c.ids() {
                    let Some(entry) = &warm.cache.entries[j][t.index()] else {
                        continue;
                    };
                    let probe = warm.post_c.tuple(t);
                    idx.matches_into(j, md, probe, &dm, None, &mut scratch, &mut direct);
                    assert_eq!(&**entry, direct.as_slice(), "{label}: tuple {t:?}");
                    filled += 1;
                }
            }
            assert!(filled > 0, "{label}: nothing cached");
        };
        let (mut state, _) = uni.begin(&Relation::new(r.clone(), vec![settled]), Phase::Full);
        check(&state, "begin");
        for (i, batch) in [witness, unrelated].into_iter().enumerate() {
            uni.clean_delta(&mut state, &[batch]).unwrap();
            check(&state, &format!("delta {i}"));
        }
        assert_eq!(state.escalations(), 0);
    }
}
