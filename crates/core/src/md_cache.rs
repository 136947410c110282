//! The one memo of MD matching.
//!
//! §2.2 makes the witnesses of an MD for a tuple `t` — the master tuples
//! that satisfy every premise similarity with `t` — a pure function of
//! `t`'s premise values and `Dm`, and §5.2 names matching the dominant
//! cost. [`MdMatchCache`] therefore keys each verified witness list by the
//! premise symbols it was computed from. Tuples sharing premise values
//! share one list, and a repair that rewrites a premise cell only makes the
//! tuple read another key, so no phase tells the memo about its writes.
//!
//! Symbols name values only within one interner. The phase loop keeps one
//! memo for the session's master view across all three phases and, in a
//! [`RepairState`](crate::RepairState), across calls. Every phase of every
//! call runs on the state's one relation, evolved in place: a call rolls
//! back the cells the last call's `eRepair` and `hRepair` wrote, but never
//! the interner, which is append-only. So a symbol, once a key holds it,
//! names the same value for the memo's whole life, and no list is ever
//! dropped.
//!
//! A self-snapshot master is a new relation in every phase, `hRepair` round
//! and acceptance check, so each such view gets a fresh memo
//! (`MasterView::cache` decides). Its lists hold every matching snapshot
//! row; a tuple reading one skips its own row ([`Witnesses`]).

use uniclean_model::{FxHashMap, Relation, Symbol, TupleId};
use uniclean_rules::RuleSet;

use crate::master_index::ProbeScratch;
use crate::session::Master;

/// One MD's lists: premise symbols, in premise order → the matching
/// master rows, ascending, stored as a span of one shared row vector. A
/// span is `Copy`, so a hit reads its list after one probe of the map.
#[derive(Default)]
struct Lists {
    /// Key → `(start, len)` in `rows`.
    spans: FxHashMap<Box<[Symbol]>, (u32, u32)>,
    rows: Vec<TupleId>,
}

impl Lists {
    fn list(&self, (start, len): (u32, u32)) -> &[TupleId] {
        &self.rows[start as usize..(start + len) as usize]
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.spans.len()
    }

    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (&[Symbol], &[TupleId])> {
        self.spans
            .iter()
            .map(|(key, &span)| (&**key, self.list(span)))
    }
}

/// Per MD, verified witness lists keyed by the premise symbols they were
/// computed from.
pub(crate) struct MdMatchCache {
    /// `lists[md]`, one map per MD.
    lists: Vec<Lists>,
    /// Probe buffers for the miss path.
    scratch: ProbeScratch,
    /// Reusable key and witness buffers.
    key: Vec<Symbol>,
    miss: Vec<TupleId>,
}

/// One tuple's view of a memoized witness list.
#[derive(Clone, Copy)]
pub(crate) struct Witnesses<'a> {
    list: &'a [TupleId],
    /// The tuple's own row of a self-snapshot master.
    own: Option<TupleId>,
}

impl<'a> Witnesses<'a> {
    /// The tuple's witnesses, ascending: every matching master row except
    /// its own copy in a self-snapshot, which would otherwise witness
    /// against every fresh fix.
    pub(crate) fn iter(self) -> impl Iterator<Item = TupleId> + Clone + 'a {
        let own = self.own;
        self.list.iter().copied().filter(move |&s| Some(s) != own)
    }

    /// Every master row matching the tuple's premise, its own snapshot row
    /// included — the rows of `Dm` the §3.2 acceptance check grades.
    pub(crate) fn all(self) -> &'a [TupleId] {
        self.list
    }
}

impl MdMatchCache {
    pub(crate) fn new(rules: &RuleSet) -> Self {
        MdMatchCache {
            lists: rules.mds().iter().map(|_| Lists::default()).collect(),
            scratch: ProbeScratch::new(),
            key: Vec::new(),
            miss: Vec::new(),
        }
    }

    /// An empty memo of the same shape, for another master relation.
    pub(crate) fn empty_like(&self) -> Self {
        MdMatchCache {
            lists: self.lists.iter().map(|_| Lists::default()).collect(),
            scratch: ProbeScratch::new(),
            key: Vec::new(),
            miss: Vec::new(),
        }
    }

    /// The witnesses of tuple `t` of `d` under MD `md_idx`, against `m`;
    /// computed on the first ask for `t`'s premise values.
    pub(crate) fn matches(
        &mut self,
        md_idx: usize,
        rules: &RuleSet,
        d: &Relation,
        m: Master<'_>,
        t: TupleId,
    ) -> Witnesses<'_> {
        let md = &rules.mds()[md_idx];
        let row = d.tuple(t);
        self.key.clear();
        self.key
            .extend(md.premises().iter().map(|p| row.sym(p.attr)));
        let lists = &mut self.lists[md_idx];
        let span = match lists.spans.get(self.key.as_slice()) {
            Some(&span) => span,
            None => {
                let (scratch, miss) = (&mut self.scratch, &mut self.miss);
                m.index
                    .matches_into(md_idx, md, row, m.dm, None, scratch, miss);
                let span = (lists.rows.len() as u32, miss.len() as u32);
                lists.rows.extend_from_slice(miss);
                lists.spans.insert(self.key.as_slice().into(), span);
                span
            }
        };
        Witnesses {
            list: lists.list(span),
            own: m.own_row(t),
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

    /// A fresh-scratch probe of tuple `t` of `d` under MD `j`.
    fn direct(
        rules: &RuleSet,
        d: &Relation,
        dm: &Relation,
        idx: &MasterIndex,
        j: usize,
        t: TupleId,
    ) -> Vec<TupleId> {
        let mut out = Vec::new();
        let mut scratch = ProbeScratch::new();
        idx.matches_into(
            j,
            &rules.mds()[j],
            d.tuple(t),
            dm,
            None,
            &mut scratch,
            &mut out,
        );
        out
    }

    fn served(
        cache: &mut MdMatchCache,
        rules: &RuleSet,
        d: &Relation,
        m: Master<'_>,
    ) -> Vec<TupleId> {
        cache.matches(0, rules, d, m, TupleId(2)).iter().collect()
    }

    #[test]
    fn lazy_matches_equal_direct_computation() {
        let (rules, d, dm, idx) = setup();
        let m = Master::external(&rules, Some(&dm), Some(&idx)).unwrap();
        let mut cache = MdMatchCache::new(&rules);
        for t in d.ids() {
            let got: Vec<TupleId> = cache.matches(0, &rules, &d, m, t).iter().collect();
            assert_eq!(got, direct(&rules, &d, &dm, &idx, 0, t), "tuple {t:?}");
        }
    }

    /// Rewriting a premise cell makes the tuple read another key, and
    /// rewriting it back reads the first key again: no write reaches the
    /// memo.
    #[test]
    fn a_premise_rewrite_reads_another_key() {
        let (rules, mut d, dm, idx) = setup();
        let m = Master::external(&rules, Some(&dm), Some(&idx)).unwrap();
        let city = d.schema().attr_id_or_panic("city");
        let phn = d.schema().attr_id_or_panic("phn");
        let mut cache = MdMatchCache::new(&rules);
        let t = TupleId(2);
        let set = |d: &mut Relation, a, v: &str| {
            d.tuple_mut(t)
                .set(a, Value::str(v), 0.5, Default::default())
        };

        // t2 (Smith, Ldn) matches nothing; with city Edi it matches master
        // row 0, and back at Ldn nothing again.
        assert!(served(&mut cache, &rules, &d, m).is_empty());
        set(&mut d, city, "Edi");
        assert_eq!(served(&mut cache, &rules, &d, m), [TupleId(0)]);
        set(&mut d, city, "Ldn");
        assert!(served(&mut cache, &rules, &d, m).is_empty());
        // A non-premise rewrite reads the same key.
        set(&mut d, city, "Edi");
        set(&mut d, phn, "999");
        assert_eq!(served(&mut cache, &rules, &d, m), [TupleId(0)]);
        assert_eq!(cache.lists[0].len(), 2, "one list per distinct premise");
    }

    /// Check every list of `cache` whose key `d` owns against a direct
    /// probe of the values the key names; returns how many there were.
    fn assert_owned_lists(
        cache: &MdMatchCache,
        rules: &RuleSet,
        d: &Relation,
        dm: &Relation,
        idx: &MasterIndex,
    ) -> usize {
        let owned = d.interner().len();
        let mut scratch = ProbeScratch::new();
        let mut want = Vec::new();
        let mut checked = 0;
        for (j, md) in rules.mds().iter().enumerate() {
            for (key, list) in cache.lists[j].iter() {
                if key.iter().any(|s| s.index() >= owned) {
                    continue;
                }
                let mut probe = d.tuple(TupleId(0)).to_tuple();
                for (p, &sym) in md.premises().iter().zip(key.iter()) {
                    probe.set(
                        p.attr,
                        d.interner().resolve(sym).clone(),
                        0.0,
                        Default::default(),
                    );
                }
                idx.matches_into(j, md, &probe, dm, None, &mut scratch, &mut want);
                assert_eq!(list, want.as_slice(), "md {j} key {key:?}");
                checked += 1;
            }
        }
        checked
    }

    /// The phase loop hands `eRepair`'s memo to `hRepair`: afterwards —
    /// also when the round cap stops `hRepair` right after it rewrote an
    /// MD premise — every list is what a direct probe of its values
    /// returns, the final relation's reads included, and every list the
    /// run started from is still there.
    #[test]
    fn memo_shared_by_erepair_and_hrepair_matches_the_final_relation() {
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
            let mut cache = MdMatchCache::new(&rules);
            let started: Vec<Vec<TupleId>> = dirty
                .ids()
                .map(|t| cache.matches(0, &rules, &dirty, m, t).iter().collect())
                .collect();
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

            assert!(assert_owned_lists(&cache, &rules, &d, &dm, &idx) > 0);
            for t in d.ids() {
                let got: Vec<TupleId> = cache.matches(0, &rules, &d, m, t).iter().collect();
                assert_eq!(got, direct(&rules, &d, &dm, &idx, 0, t), "rounds={rounds}");
            }
            let n = cache.lists[0].len();
            for (t, want) in dirty.ids().zip(&started) {
                let got: Vec<TupleId> = cache.matches(0, &rules, &dirty, m, t).iter().collect();
                assert_eq!(&got, want, "rounds={rounds}: tuple {t:?}");
            }
            assert_eq!(
                cache.lists[0].len(),
                n,
                "rounds={rounds}: every start list stays warm"
            );
        }
    }

    /// The session's one memo, from `cRepair` on: after `begin` and after
    /// every delta — the first one a cascade that moves a settled tuple's
    /// MD premise to another witness — every list is what a direct probe
    /// of its key's values through the state's one relation returns.
    #[test]
    fn the_warm_memo_agrees_with_the_post_crepair_relation() {
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
            let checked = assert_owned_lists(&warm.cache, &rules, state.repaired(), &dm, idx);
            assert!(checked > 0, "{label}: nothing cached");
            let total: usize = warm.cache.lists.iter().map(Lists::len).sum();
            assert_eq!(checked, total, "{label}: the relation owns every key");
        };
        let (mut state, _) = uni.begin(&Relation::new(r.clone(), vec![settled]), Phase::Full);
        check(&state, "begin");
        for (i, batch) in [witness, unrelated].into_iter().enumerate() {
            uni.clean_delta(&mut state, &[batch]).unwrap();
            check(&state, &format!("delta {i}"));
        }
        assert_eq!(state.escalations(), 0);
    }

    /// A symbol a rolled-back write interned is never re-issued. `eRepair`
    /// writes the master value `x` into the state's one relation, and the
    /// memo keys `m2`'s list for `x` by its symbol; the next call rolls the
    /// write back, the batch's asserted `y` takes a symbol of its own, and
    /// `cRepair` reads `m2` for it. Every list must still be what a
    /// fresh-scratch probe of its key returns, and the delta must equal a
    /// reclean.
    #[test]
    fn a_reissued_working_copy_symbol_never_serves_a_stale_list() {
        use crate::config::CleanConfig;
        use crate::session::{Cleaner, MasterSource, Phase};
        use uniclean_model::FixMark;

        let r = Schema::of_strings("r", &["B", "C", "K"]);
        let rm = Schema::of_strings("rm", &["B", "C", "K"]);
        let text = "md m1: r[K] = rm[K] -> r[B] <=> rm[B]\n\
                    md m2: r[B] = rm[B] -> r[C] <=> rm[C]";
        let parsed = parse_rules(text, &r, Some(&rm)).unwrap();
        let rules = RuleSet::new(
            r.clone(),
            Some(rm.clone()),
            vec![],
            parsed.positive_mds,
            vec![],
        );
        let dm = Relation::new(
            rm,
            vec![
                Tuple::of_strs(&["x", "c1", "k1"], 1.0),
                Tuple::of_strs(&["y", "c2", "k2"], 1.0),
            ],
        );
        let settled = Tuple::of_strs(&["b0", "c0", "k1"], 0.0);
        let mut batch = Tuple::of_strs(&["y", "c0", "k0"], 0.0);
        let b = r.attr_id_or_panic("B");
        batch.set(b, Value::str("y"), 1.0, FixMark::Untouched);
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
        let first = Relation::new(r.clone(), vec![settled.clone()]);
        let (mut state, result) = uni.begin(&first, Phase::Full);
        let x = Value::str("x");
        assert_eq!(result.repaired.tuple(TupleId(0)).value(b), &x);
        let x_sym = state.repaired().interner().get(&x);
        assert!(x_sym.is_some(), "eRepair interned x in the one relation");

        uni.clean_delta(&mut state, std::slice::from_ref(&batch))
            .unwrap();
        let one = state.repaired();
        assert_eq!(one.interner().get(&x), x_sym, "x keeps its symbol");
        assert_ne!(
            one.interner().get(&Value::str("y")),
            x_sym,
            "the batch does not re-issue x's symbol for y"
        );
        let warm = state.warm.as_ref().unwrap();
        let total: usize = warm.cache.lists.iter().map(Lists::len).sum();
        assert_eq!(
            assert_owned_lists(&warm.cache, &rules, one, &dm, idx),
            total
        );
        assert!(total > 0);
        let whole = Relation::new(r.clone(), vec![settled, batch]);
        let reclean = uni.clean(&whole, Phase::Full);
        assert_eq!(state.repaired().diff_cells(&reclean.repaired), 0);
        let c = r.attr_id_or_panic("C");
        assert_eq!(
            state.repaired().tuple(TupleId(1)).value(c),
            &Value::str("c2")
        );
    }
}
