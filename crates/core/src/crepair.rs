//! `cRepair`: deterministic fixes from confidence analysis (§5, Figs 4–5).
//!
//! A cell is *asserted* when its confidence reaches the threshold `η`. A
//! cleaning rule fires only when every premise attribute is asserted, and
//! only ever writes *unasserted* cells; the written cell becomes asserted at
//! confidence `η` (Fig 5 sets `cf := η`), which can recursively unlock
//! further rules. The machinery follows the paper's pseudo-code:
//!
//! * a hash table `H_ϕ` per variable CFD mapping each LHS key `ȳ` to
//!   `(list, val)` — the waiting tuples and the unique asserted RHS value;
//! * a queue `Q[t]` of rules whose premise is fully asserted on `t`
//!   (realized as one global FIFO of `(tuple, rule)` pairs with dedup
//!   flags);
//! * a set `P[t]` of variable CFDs on which `t` waits for an asserted
//!   witness;
//! * counters `count[t, ξ]` of asserted premise attributes.
//!
//! The per-(tuple, rule) tables — `count`, `P` and the queue's flags — are
//! flat row-major vectors, one row of `|Θ|` slots per tuple.
//!
//! Every cell is written at most once (unasserted → asserted), so the
//! algorithm terminates in O(|D|·|Dm|·size(Θ)) and — as the paper argues in
//! §5.2 — its outcome is independent of rule application order (property-
//! tested below and in the integration suite).
//!
//! MD candidate generation and premise verification — the dominant
//! per-tuple cost — go through an `MdMatchCache`, which computes a witness
//! list the first time the fixpoint asks for a tuple's premise values.

use std::collections::VecDeque;

use uniclean_model::{AttrId, FixMark, FxHashMap, Relation, Symbol, TupleId, Value};
use uniclean_rules::RuleSet;

use crate::config::CleanConfig;
use crate::fix::{FixRecord, FixReport};
use crate::master_index::MasterIndex;
use crate::md_cache::MdMatchCache;
use crate::pattern_syms::{ensure_rule_constants, CfdPatternSyms};
use crate::session::Master;
use crate::two_in_one::TwoInOne;

/// A variable-CFD conflict-set entry: the paper's `H(ȳ) = (list, val)`.
#[derive(Default)]
struct VGroup {
    list: Vec<TupleId>,
    val: Option<Value>,
}

/// The persistable half of the `cRepair` machine: the hash tables,
/// counters and wait sets of Fig 4.
///
/// A full run builds one, seeds every tuple and drains the queue. The
/// incremental path ([`crate::RepairState`]) keeps the fixpoint alive
/// between calls: appending a batch seeds *only the new tuples* and
/// continues the same fixpoint — valid because `cRepair` is a monotone
/// write-once inference whose outcome is independent of rule application
/// order (§5.2). The [`CGuard`] watches a continuation: it keeps the
/// pinned 2-in-1 exact under the writes that reach settled tuples, and it
/// detects the one situation where a continuation could diverge from a
/// from-scratch run and must escalate — conflicting asserted evidence
/// racing for one cell.
pub(crate) struct CFixpoint {
    /// LHS attribute list per rule (CFDs then MDs).
    lhs_of: Vec<Vec<AttrId>>,
    /// RHS (data-side) attribute per rule.
    rhs_of: Vec<AttrId>,
    /// attr → rules with that attr in their LHS.
    attr_to_rules: Vec<Vec<usize>>,
    /// Distinct LHS attribute count per rule (premise-complete threshold).
    lhs_distinct: Vec<u32>,
    /// Variable-CFD hash tables, indexed by rule id (None for others).
    /// Keys are LHS projections in the relation's own symbols — valid
    /// across continuations because the store's interner is append-only.
    h: Vec<Option<FxHashMap<Vec<Symbol>, VGroup>>>,
    /// count[t, ξ], row-major (`t · |Θ| + ξ`).
    count: Vec<u32>,
    /// P[t]: variable CFDs t waits on, row-major like `count`.
    p: Vec<bool>,
    /// All schema attributes, precomputed for the agreement check.
    all_attrs: Vec<AttrId>,
    /// Tuples the fixpoint currently covers.
    n_tuples: usize,
}

impl CFixpoint {
    pub(crate) fn new(rules: &RuleSet, n_tuples: usize) -> Self {
        let n_rules = rules.len();
        let n_attrs = rules.schema().arity();
        let mut lhs_of = Vec::with_capacity(n_rules);
        let mut rhs_of = Vec::with_capacity(n_rules);
        let mut h: Vec<Option<FxHashMap<Vec<Symbol>, VGroup>>> = Vec::with_capacity(n_rules);
        for c in rules.cfds() {
            assert!(!c.lhs().is_empty(), "CFD `{}` has an empty LHS", c.name());
            lhs_of.push(c.lhs().to_vec());
            rhs_of.push(c.rhs()[0]);
            h.push(c.is_variable().then(FxHashMap::default));
        }
        for m in rules.mds() {
            assert!(
                !m.premises().is_empty(),
                "MD `{}` has an empty premise",
                m.name()
            );
            lhs_of.push(m.lhs_attrs());
            rhs_of.push(m.rhs()[0].0);
            h.push(None);
        }
        let mut attr_to_rules = vec![Vec::new(); n_attrs];
        for (r, attrs) in lhs_of.iter().enumerate() {
            // An attribute may appear once per rule LHS (guaranteed for
            // CFDs; MD premises may repeat an attribute with different
            // predicates — count each attr once).
            let mut seen = attrs.clone();
            seen.sort_unstable();
            seen.dedup();
            for a in seen {
                attr_to_rules[a.index()].push(r);
            }
        }
        let lhs_distinct: Vec<u32> = lhs_of
            .iter()
            .map(|attrs| {
                let mut s = attrs.clone();
                s.sort_unstable();
                s.dedup();
                s.len() as u32
            })
            .collect();
        CFixpoint {
            lhs_of,
            rhs_of,
            attr_to_rules,
            lhs_distinct,
            h,
            count: vec![0; n_tuples * n_rules],
            p: vec![false; n_tuples * n_rules],
            all_attrs: rules.schema().attr_ids().collect(),
            n_tuples,
        }
    }

    /// Extend the per-tuple state for `n_new` appended tuples.
    pub(crate) fn grow(&mut self, n_new: usize) {
        self.n_tuples += n_new;
        let slots = self.n_tuples * self.lhs_of.len();
        self.count.resize(slots, 0);
        self.p.resize(slots, false);
    }

    /// The row-major slot of `(t, r)` in `count` and `p`.
    fn slot(&self, t: TupleId, r: usize) -> usize {
        t.index() * self.lhs_of.len() + r
    }
}

/// What a fixpoint continuation carries (`None` on full runs): where the
/// settled tuples end, the 2-in-1 pinned to them, and the divergence watch.
pub(crate) struct CGuard<'a> {
    /// Tuples below this id are settled: a write to any of them means the
    /// batch's cascade reached previously-settled repairs. Such writes are
    /// *kept* — a continuation is a legal application order, so they equal
    /// the from-scratch outcome.
    pub settled: usize,
    /// The 2-in-1 structure pinned to the settled tuples, when the session
    /// keeps one: every write that changes a settled cell's value is fed
    /// to [`TwoInOne::on_update`] as it lands, so the structure stays exact
    /// for the post-`cRepair` relation and the phase loop only extends it
    /// over the batch.
    pub two: Option<&'a mut TwoInOne>,
    /// Conflicting asserted evidence was observed racing for one cell —
    /// the one situation where `cRepair`'s outcome is order-dependent, so
    /// a continuation order may not reproduce the from-scratch order.
    /// The caller must escalate to a full reclean.
    pub hazard: bool,
}

impl<'a> CGuard<'a> {
    pub(crate) fn new(settled: usize, two: Option<&'a mut TwoInOne>) -> Self {
        CGuard {
            settled,
            two,
            hazard: false,
        }
    }
}

struct State<'a, 'g> {
    rules: &'a RuleSet,
    eta: f64,
    /// CFD LHS patterns compiled to the relation's symbols (transient:
    /// recompiled per run, valid for the run's relation lineage).
    pats: CfdPatternSyms,
    fx: &'a mut CFixpoint,
    /// Memoized MD witness lists, keyed by premise values.
    md_cache: &'a mut MdMatchCache,
    agenda: Agenda,
    guard: Option<&'a mut CGuard<'g>>,
    report: FixReport,
}

/// The queue `Q`: one FIFO of `(tuple, rule)` pairs, each queued at most
/// once at a time (transient: empty at fixpoint, so not part of the
/// persisted state).
struct Agenda {
    queue: VecDeque<(TupleId, usize)>,
    /// Is `(t, r)` queued? Row-major, like [`CFixpoint`]'s tables.
    pending: Vec<bool>,
    n_rules: usize,
}

impl Agenda {
    fn push(&mut self, t: TupleId, r: usize) {
        let slot = &mut self.pending[t.index() * self.n_rules + r];
        if !*slot {
            *slot = true;
            self.queue.push_back((t, r));
        }
    }

    fn pop(&mut self) -> Option<(TupleId, usize)> {
        let (t, r) = self.queue.pop_front()?;
        self.pending[t.index() * self.n_rules + r] = false;
        Some((t, r))
    }
}

/// Run `cRepair` in place on `d`. Returns the deterministic fixes applied.
///
/// `idx` must be built over the same `dm` and MDs when the rule set
/// contains MDs.
pub fn c_repair(
    d: &mut Relation,
    dm: Option<&Relation>,
    rules: &RuleSet,
    idx: Option<&MasterIndex>,
    cfg: &CleanConfig,
) -> FixReport {
    let master = Master::external(rules, dm, idx);
    let mut fx = CFixpoint::new(rules, d.len());
    let mut md_cache = MdMatchCache::new(rules);
    c_run(d, master, rules, cfg, &mut fx, &mut md_cache, None)
}

/// The engine behind [`c_repair`]: seed tuples into `fx` and drain the
/// inference queue. Without a guard every tuple is seeded — over a fresh
/// [`CFixpoint`], a full run; with one, the persisted fixpoint of a
/// previous run *continues* over the tuples appended after
/// `guard.settled`. `md_cache` serves `master`'s witness lists.
pub(crate) fn c_run(
    d: &mut Relation,
    master: Option<Master<'_>>,
    rules: &RuleSet,
    cfg: &CleanConfig,
    fx: &mut CFixpoint,
    md_cache: &mut MdMatchCache,
    guard: Option<&mut CGuard<'_>>,
) -> FixReport {
    let seed_from = guard.as_ref().map_or(0, |g| g.settled);
    assert_eq!(
        fx.n_tuples,
        d.len(),
        "fixpoint state must cover the relation"
    );
    // Give every rule constant a stable symbol in the relation's interner,
    // then compile the pattern slots once: the per-tuple checks below are
    // pure symbol compares.
    ensure_rule_constants(d, rules);
    let pats = CfdPatternSyms::compile(rules, d);
    let n_rules = rules.len();
    let mut st = State {
        rules,
        eta: cfg.eta,
        pats,
        fx,
        md_cache,
        agenda: Agenda {
            queue: VecDeque::new(),
            pending: vec![false; d.len() * n_rules],
            n_rules,
        },
        guard,
        report: FixReport::new(),
    };

    // Initialization (Fig 4, lines 2–6): seed counters from the cells that
    // are asserted up front. Reads the contiguous confidence columns.
    for i in seed_from..d.len() {
        let t = TupleId::from(i);
        for a in rules.schema().attr_ids() {
            if d.cf(t, a) >= st.eta {
                st.on_asserted(d, t, a);
            }
        }
    }

    // Main loop (Fig 4, lines 7–15).
    while let Some((t, r)) = st.agenda.pop() {
        if r < rules.cfds().len() {
            if rules.cfds()[r].is_variable() {
                st.v_cfd_infer(d, t, r);
            } else {
                st.c_cfd_infer(d, t, r);
            }
        } else if let Some(m) = master {
            st.md_infer(d, m, t, r);
        }
    }
    st.report
}

impl State<'_, '_> {
    /// Procedure `update(t, A)` of Fig 5: `t[A]` has just become asserted.
    fn on_asserted(&mut self, d: &Relation, t: TupleId, a: AttrId) {
        let fx = &mut *self.fx;
        let row = fx.slot(t, 0);
        for &r in &fx.attr_to_rules[a.index()] {
            fx.count[row + r] += 1;
            if fx.count[row + r] == fx.lhs_distinct[r] {
                self.agenda.push(t, r);
            }
        }
        // Variable CFDs t waits on whose RHS is A: the newly asserted value
        // may become the group witness.
        for r in 0..fx.rhs_of.len() {
            if fx.p[row + r] && fx.rhs_of[r] == a {
                fx.p[row + r] = false;
                let key = d.tuple(t).project_syms(&fx.lhs_of[r]);
                let val_is_nil = fx.h[r]
                    .as_ref()
                    .and_then(|h| h.get(&key))
                    .is_none_or(|g| g.val.is_none());
                if val_is_nil {
                    self.agenda.push(t, r);
                }
            }
        }
    }

    /// Write an unasserted cell, assert it at `η`, record the fix if the
    /// value changed, and propagate.
    fn assert_cell(
        &mut self,
        d: &mut Relation,
        t: TupleId,
        a: AttrId,
        new: Value,
        rule_name: &str,
    ) {
        let old = d.tuple(t).value(a).clone();
        let changed = old != new;
        let mark = if changed {
            FixMark::Deterministic
        } else {
            d.tuple(t).mark(a)
        };
        d.tuple_mut(t).set(a, new.clone(), self.eta, mark);
        if changed {
            // A settled tuple is a member of the pinned 2-in-1: keep it
            // exact. A batch tuple enters it later, with its final cells.
            if let Some(g) = self.guard.as_deref_mut() {
                if let Some(two) = g.two.as_deref_mut().filter(|_| t.index() < g.settled) {
                    two.on_update(d, t, a, &old);
                }
            }
            self.report.push(FixRecord {
                tuple: t,
                attr: a,
                old,
                new,
                mark: FixMark::Deterministic,
                rule: rule_name.to_string(),
            });
        }
        self.on_asserted(d, t, a);
    }

    /// Conflicting asserted evidence was observed for one cell: a
    /// continuation cannot promise the from-scratch winner, so the guard
    /// (when present) demands escalation.
    fn flag_hazard(&mut self) {
        if let Some(g) = self.guard.as_deref_mut() {
            g.hazard = true;
        }
    }

    /// Procedure `vCFDInfer` (Fig 5).
    fn v_cfd_infer(&mut self, d: &mut Relation, t: TupleId, r: usize) {
        let name = self.rules.cfds()[r].name();
        if !self.pats.lhs_matches_attrs(r, &self.fx.lhs_of[r], d, t) {
            return;
        }
        let b = self.fx.rhs_of[r];
        let key = d.tuple(t).project_syms(&self.fx.lhs_of[r]);
        let rhs_asserted = d.tuple(t).cf(b) >= self.eta;
        if rhs_asserted {
            // Branch (a): t's RHS may become the unique asserted witness.
            let val = d.tuple(t).value(b).clone();
            let group = self.fx.h[r]
                .as_mut()
                .expect("variable CFD")
                .entry(key)
                .or_default();
            let mut waiters = Vec::new();
            let mut conflict = false;
            if group.val.is_none() {
                group.val = Some(val.clone());
                waiters = std::mem::take(&mut group.list);
            } else if group.val.as_ref() != Some(&val) {
                // A second asserted witness with a *different* value means
                // the asserted evidence contradicts itself; the paper
                // assumes this cannot happen ("Notably, there exist no two
                // t1, t2 in Δ(ȳ) such that t1[B] ≠ t2[B] … if the
                // confidence placed by users is correct"). We keep the
                // first witness — and, on a continuation, escalate: which
                // witness is "first" is then order-dependent.
                conflict = true;
            }
            if conflict {
                self.flag_hazard();
            }
            for w in waiters {
                if d.tuple(w).cf(b) < self.eta {
                    self.assert_cell(d, w, b, val.clone(), name);
                }
            }
        } else {
            let h = self.fx.h[r].as_mut().expect("variable CFD");
            match h.get(&key).and_then(|g| g.val.clone()) {
                Some(v) => self.assert_cell(d, t, b, v, name),
                None => {
                    // Branch (c): wait for a witness.
                    h.entry(key).or_default().list.push(t);
                    let slot = self.fx.slot(t, r);
                    self.fx.p[slot] = true;
                }
            }
        }
    }

    /// Procedure `cCFDInfer` (Fig 5).
    fn c_cfd_infer(&mut self, d: &mut Relation, t: TupleId, r: usize) {
        let cfd = &self.rules.cfds()[r];
        if !self.pats.lhs_matches_attrs(r, &self.fx.lhs_of[r], d, t) {
            return;
        }
        let a = self.fx.rhs_of[r];
        if d.tuple(t).cf(a) >= self.eta {
            // Deterministic fixes never overwrite asserted cells (§5.1
            // requires t[A].cf < η). On a continuation, a *rule-written*
            // cell holding a different constant is racing evidence: in a
            // from-scratch interleaving this rule might have fired first.
            if self.guard.is_some()
                && d.tuple(t).mark(a) == FixMark::Deterministic
                && d.tuple(t).value(a) != cfd.rhs_pattern()[0].as_const().expect("constant CFD")
            {
                self.flag_hazard();
            }
            return;
        }
        let want = cfd.rhs_pattern()[0]
            .as_const()
            .expect("constant CFD")
            .clone();
        self.assert_cell(d, t, a, want, cfd.name());
    }

    /// Procedure `MDInfer` (Fig 5).
    ///
    /// Witness choice: prefer a master tuple whose conclusion *disagrees*
    /// (a correction); fall back to an agreeing witness (a confirmation at
    /// confidence η) only when it is not value-identical to `t` — an
    /// identical tuple carries no independent evidence, which also makes
    /// self-matching (master = the data itself, §1/§9) sound: a tuple can
    /// never confirm or correct through its own copy.
    fn md_infer(&mut self, d: &mut Relation, m: Master<'_>, t: TupleId, r: usize) {
        let md_idx = r - self.rules.cfds().len();
        let md = &self.rules.mds()[md_idx];
        let (e, f) = md.rhs()[0];
        let (dm, rules, eta) = (m.dm, self.rules, self.eta);
        if d.tuple(t).cf(e) >= self.eta {
            // On a continuation, a rule-written conclusion contradicted by
            // a usable witness is racing evidence (see `c_cfd_infer`).
            if self.guard.is_some() && d.tuple(t).mark(e) == FixMark::Deterministic {
                let all = self.md_cache.matches(md_idx, rules, d, m, t);
                let disagree = all
                    .iter()
                    .filter(|&s| m.is_evidence(s, f, eta))
                    .any(|s| dm.tuple(s).value(f) != d.tuple(t).value(e));
                if disagree {
                    self.flag_hazard();
                }
            }
            return;
        }
        let witness = {
            // Witness lists come from the memo; they skip the tuple's own
            // positional copy under self-matching.
            let all = self.md_cache.matches(md_idx, rules, d, m, t);
            // The self-snapshot is dirty, not master data: only witnesses
            // whose conclusion cell is itself asserted carry evidence.
            let mut usable = all.iter().filter(|&s| m.is_evidence(s, f, eta));
            let correcting = usable
                .clone()
                .find(|&s| dm.tuple(s).value(f) != d.tuple(t).value(e));
            match correcting {
                Some(s) => Some(s),
                None => usable.find(|&s| {
                    dm.tuple(s).arity() != d.tuple(t).arity()
                        || !d.tuple(t).agrees_with(dm.tuple(s), &self.fx.all_attrs)
                }),
            }
        };
        let Some(witness) = witness else {
            return;
        };
        let new = dm.tuple(witness).value(f).clone();
        self.assert_cell(d, t, e, new, md.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use uniclean_model::{Schema, Tuple};
    use uniclean_rules::parse_rules;

    fn cfg(eta: f64) -> CleanConfig {
        CleanConfig {
            eta,
            ..CleanConfig::default()
        }
    }

    /// Example 5.2's scenario: tuples t1, t2 of Fig. 1(b) with ϕ1, ϕ3 and ψ.
    fn example_setup() -> (Arc<Schema>, Arc<Schema>, RuleSet, Relation, Relation) {
        let tran = Schema::of_strings("tran", &["FN", "LN", "St", "city", "AC", "post", "phn"]);
        let card = Schema::of_strings("card", &["FN", "LN", "St", "city", "AC", "zip", "tel"]);
        let text = "cfd phi1: tran([AC=131] -> [city=Edi])\n\
                    cfd phi3: tran([city, phn] -> [St])\n\
                    md psi: tran[LN] = card[LN] AND tran[city] = card[city] AND tran[St] = card[St] AND tran[post] = card[zip] AND tran[FN] ~lev(3) card[FN] -> tran[phn] <=> card[tel]";
        let parsed = parse_rules(text, &tran, Some(&card)).unwrap();
        let rules = RuleSet::new(
            tran.clone(),
            Some(card.clone()),
            parsed.cfds,
            parsed.positive_mds,
            vec![],
        );

        // t1: city should be Edi (AC=131 asserted); St/post/LN asserted;
        // phn is wrong with cf 0.
        let mut t1 = Tuple::of_strs(
            &[
                "M.",
                "Smith",
                "10 Oak St",
                "Ldn",
                "131",
                "EH8 9LE",
                "9999999",
            ],
            0.0,
        );
        for (a, c) in [
            ("FN", 0.9),
            ("LN", 1.0),
            ("St", 0.9),
            ("city", 0.5),
            ("AC", 0.9),
            ("post", 0.9),
            ("phn", 0.0),
        ] {
            let id = tran.attr_id_or_panic(a);
            let v = t1.value(id).clone();
            t1.set(id, v, c, FixMark::Untouched);
        }
        // t2: same person, street unknown (low confidence), city asserted.
        let mut t2 = Tuple::of_strs(
            &[
                "Max",
                "Smith",
                "Po Box 25",
                "Edi",
                "131",
                "EH8 9LE",
                "3256778",
            ],
            0.0,
        );
        for (a, c) in [
            ("FN", 0.7),
            ("LN", 1.0),
            ("St", 0.5),
            ("city", 0.9),
            ("AC", 0.7),
            ("post", 0.9),
            ("phn", 0.8),
        ] {
            let id = tran.attr_id_or_panic(a);
            let v = t2.value(id).clone();
            t2.set(id, v, c, FixMark::Untouched);
        }
        let d = Relation::new(tran.clone(), vec![t1, t2]);
        let dm = Relation::new(
            card.clone(),
            vec![Tuple::of_strs(
                &[
                    "Mark",
                    "Smith",
                    "10 Oak St",
                    "Edi",
                    "131",
                    "EH8 9LE",
                    "3256778",
                ],
                1.0,
            )],
        );
        (tran, card, rules, d, dm)
    }

    #[test]
    fn example_5_2_cascade() {
        let (tran, _, rules, mut d, dm) = example_setup();
        let idx = MasterIndex::build(rules.mds(), &dm);
        let report = c_repair(&mut d, Some(&dm), &rules, Some(&idx), &cfg(0.8));

        let city = tran.attr_id_or_panic("city");
        let phn = tran.attr_id_or_panic("phn");
        let st = tran.attr_id_or_panic("St");

        // (3) ϕ1 fixes t1[city] := Edi at cf = η.
        assert_eq!(d.tuple(TupleId(0)).value(city), &Value::str("Edi"));
        assert_eq!(d.tuple(TupleId(0)).cf(city), 0.8);
        assert_eq!(d.tuple(TupleId(0)).mark(city), FixMark::Deterministic);
        // (4) ψ fixes t1[phn] from the master card.
        assert_eq!(d.tuple(TupleId(0)).value(phn), &Value::str("3256778"));
        // (5) ϕ3 copies the now-asserted street of t1 into t2.
        assert_eq!(d.tuple(TupleId(1)).value(st), &Value::str("10 Oak St"));
        assert_eq!(d.tuple(TupleId(1)).mark(st), FixMark::Deterministic);
        assert_eq!(report.count_final(FixMark::Deterministic), 3);
    }

    #[test]
    fn unasserted_premises_block_fixes() {
        let (tran, _, rules, mut d, dm) = example_setup();
        let idx = MasterIndex::build(rules.mds(), &dm);
        // Raise η beyond every premise confidence: nothing may fire.
        let report = c_repair(&mut d, Some(&dm), &rules, Some(&idx), &cfg(0.95));
        assert!(report.is_empty());
        assert_eq!(
            d.tuple(TupleId(0)).value(tran.attr_id_or_panic("city")),
            &Value::str("Ldn")
        );
    }

    #[test]
    fn asserted_cells_are_never_overwritten() {
        let tran = Schema::of_strings("tran", &["AC", "city"]);
        let parsed = parse_rules("cfd phi1: tran([AC=131] -> [city=Edi])", &tran, None).unwrap();
        let rules = RuleSet::cfds_only(tran.clone(), parsed.cfds);
        let mut t = Tuple::of_strs(&["131", "Ldn"], 0.9);
        // city is asserted (0.9 ≥ 0.8) even though it contradicts ϕ1.
        let city = tran.attr_id_or_panic("city");
        let v = t.value(city).clone();
        t.set(city, v, 0.9, FixMark::Untouched);
        let mut d = Relation::new(tran.clone(), vec![t]);
        let report = c_repair(&mut d, None, &rules, None, &cfg(0.8));
        assert!(report.is_empty());
        assert_eq!(d.tuple(TupleId(0)).value(city), &Value::str("Ldn"));
    }

    #[test]
    fn variable_cfd_waits_until_witness_appears() {
        // t0's B is unasserted; t1 arrives with an asserted B later in the
        // queue (its LHS asserts after t0 enters the waiting list).
        let s = Schema::of_strings("r", &["K", "B"]);
        let parsed = parse_rules("cfd fd: r([K] -> [B])", &s, None).unwrap();
        let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
        let k = s.attr_id_or_panic("K");
        let b = s.attr_id_or_panic("B");
        let mut t0 = Tuple::of_strs(&["k", "wrong"], 0.0);
        t0.set(k, Value::str("k"), 1.0, FixMark::Untouched);
        let mut t1 = Tuple::of_strs(&["k", "right"], 0.0);
        t1.set(k, Value::str("k"), 1.0, FixMark::Untouched);
        t1.set(b, Value::str("right"), 1.0, FixMark::Untouched);
        let mut d = Relation::new(s.clone(), vec![t0, t1]);
        let report = c_repair(&mut d, None, &rules, None, &cfg(0.8));
        assert_eq!(d.tuple(TupleId(0)).value(b), &Value::str("right"));
        assert_eq!(report.count_final(FixMark::Deterministic), 1);
    }

    #[test]
    fn variable_cfd_requires_unique_witness_key_match() {
        // Different keys never share witnesses.
        let s = Schema::of_strings("r", &["K", "B"]);
        let parsed = parse_rules("cfd fd: r([K] -> [B])", &s, None).unwrap();
        let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
        let b = s.attr_id_or_panic("B");
        let mk = |kv: &str, bv: &str, bcf: f64| {
            let mut t = Tuple::of_strs(&[kv, bv], 1.0);
            t.set(b, Value::str(bv), bcf, FixMark::Untouched);
            t
        };
        let mut d = Relation::new(s.clone(), vec![mk("k1", "x", 1.0), mk("k2", "y", 0.0)]);
        let report = c_repair(&mut d, None, &rules, None, &cfg(0.8));
        assert!(report.is_empty());
        assert_eq!(d.tuple(TupleId(1)).value(b), &Value::str("y"));
    }

    #[test]
    fn standardization_rule_cannot_fire_deterministically() {
        // ϕ4: FN=Bob → FN=Robert needs FN asserted on the left, which
        // asserts the very cell the fix would overwrite (§5.1 forbids it).
        let s = Schema::of_strings("r", &["FN"]);
        let parsed = parse_rules("cfd phi4: r([FN=Bob] -> [FN=Robert])", &s, None).unwrap();
        let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
        let mut d = Relation::new(s, vec![Tuple::of_strs(&["Bob"], 1.0)]);
        let report = c_repair(&mut d, None, &rules, None, &cfg(0.8));
        assert!(report.is_empty());
    }

    #[test]
    fn result_is_independent_of_rule_order() {
        // §5.2: "applying the rules in different orders yields the same set
        // of deterministic fixes".
        let (_, card, _, d0, dm) = example_setup();
        let tran = d0.schema().clone();
        let texts = [
            "cfd phi1: tran([AC=131] -> [city=Edi])\ncfd phi3: tran([city, phn] -> [St])\nmd psi: tran[LN] = card[LN] AND tran[city] = card[city] AND tran[St] = card[St] AND tran[post] = card[zip] AND tran[FN] ~lev(3) card[FN] -> tran[phn] <=> card[tel]",
            "md psi: tran[LN] = card[LN] AND tran[city] = card[city] AND tran[St] = card[St] AND tran[post] = card[zip] AND tran[FN] ~lev(3) card[FN] -> tran[phn] <=> card[tel]\ncfd phi3: tran([city, phn] -> [St])\ncfd phi1: tran([AC=131] -> [city=Edi])",
        ];
        let mut snapshots = Vec::new();
        for text in texts {
            let parsed = parse_rules(text, &tran, Some(&card)).unwrap();
            let rules = RuleSet::new(
                tran.clone(),
                Some(card.clone()),
                parsed.cfds,
                parsed.positive_mds,
                vec![],
            );
            let idx = MasterIndex::build(rules.mds(), &dm);
            let mut d = d0.clone();
            c_repair(&mut d, Some(&dm), &rules, Some(&idx), &cfg(0.8));
            let snap: Vec<Value> = d
                .rows()
                .flat_map(|t| t.cells().map(|c| c.value.clone()))
                .collect();
            snapshots.push(snap);
        }
        assert_eq!(snapshots[0], snapshots[1]);
    }

    #[test]
    fn empty_rules_do_nothing() {
        let s = Schema::of_strings("r", &["A"]);
        let rules = RuleSet::cfds_only(s.clone(), vec![]);
        let mut d = Relation::new(s, vec![Tuple::of_strs(&["x"], 1.0)]);
        let report = c_repair(&mut d, None, &rules, None, &cfg(0.8));
        assert!(report.is_empty());
    }
}
