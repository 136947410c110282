//! The §3.2 acceptance check — `Dr ⊨ Σ` and `(Dr, Dm) ⊨ Γ` under SQL null
//! semantics (§7) — and the one owner of every verdict the engine returns.
//!
//! [`ConsistencyIndex`] grades a repair once ([`ConsistencyIndex::build`],
//! what [`Cleaner::clean`](crate::Cleaner::clean) and
//! [`Cleaner::begin`](crate::Cleaner::begin) use) and then *maintains* the
//! grade from per-tuple diffs, so a
//! [`Cleaner::clean_delta`](crate::Cleaner::clean_delta) call re-verifies
//! only the tuples it changed instead of rescanning O(|D|·|Dm|). The same
//! group counters and per-tuple MD verdicts answer
//! [`RepairState::is_accepted`](crate::RepairState::is_accepted) and
//! [`RepairState::violations`](crate::RepairState::violations) online.
//!
//! The reference implementation is `uniclean_rules::satisfies_all`; the
//! engine never calls it, the tests compare every verdict against it
//! (`tests/acceptance.rs`).

use uniclean_model::{FxHashMap, Relation, Row, TupleId, Value};
use uniclean_rules::{Md, RuleSet};

/// Which rule family rejected a tuple (see
/// [`RepairState::violations`](crate::RepairState::violations)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A constant CFD: the tuple matches the LHS pattern but not the RHS
    /// constant.
    ConstantCfd,
    /// A variable CFD: the tuple's LHS group holds two or more distinct
    /// non-null RHS values (the violation is attributed to every group
    /// member).
    VariableCfd,
    /// An MD: some master tuple matches every premise but disagrees on
    /// the RHS attribute.
    Md,
}

/// One rule rejecting one tuple, as reported by
/// [`RepairState::violations`](crate::RepairState::violations).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TupleViolation {
    /// Name of the violated rule (as written in the rule text).
    pub rule: String,
    /// Which rule family it belongs to.
    pub kind: ViolationKind,
}

/// Per-group state of one variable CFD in the acceptance index.
#[derive(Default)]
struct VGroupCount {
    /// Members (tuples matching the LHS pattern with this key).
    members: usize,
    /// Distinct non-null RHS value counts.
    counts: FxHashMap<Value, usize>,
}

impl VGroupCount {
    /// Violating under SQL null semantics: two or more distinct non-null
    /// RHS values.
    fn bad(&self) -> bool {
        self.counts.len() >= 2
    }
}

/// The §3.2 acceptance state of one repair: the same verdict as the
/// reference `uniclean_rules::satisfies_all(Σ, Γ, Dr, Dm)` (SQL null
/// semantics), but updatable from a per-tuple diff instead of a
/// from-scratch O(|D|·|Dm|) scan.
///
/// ```
/// use uniclean_core::acceptance::ConsistencyIndex;
/// use uniclean_model::{Relation, Schema, Tuple};
/// use uniclean_rules::{parse_rules, satisfies_all, RuleSet};
///
/// let s = Schema::of_strings("tran", &["AC", "city"]);
/// let parsed = parse_rules("cfd phi1: tran([AC=131] -> [city=Edi])", &s, None).unwrap();
/// let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
/// let no_master = Relation::empty(s.clone());
///
/// let d = Relation::new(s, vec![Tuple::of_strs(&["131", "Ldn"], 0.5)]);
/// let verdict = ConsistencyIndex::build(&rules, &d, &no_master).consistent();
/// assert!(!verdict);
/// assert_eq!(verdict, satisfies_all(rules.cfds(), rules.mds(), &d, &no_master));
/// ```
///
/// The MD half mirrors `satisfies_all`'s short-circuit: per-tuple MD
/// verdicts are only materialized once the CFD half holds (before that,
/// the reference check never reaches `Γ` either). Once materialized they
/// are maintained from the diff, so a delta call re-verifies MDs for
/// changed tuples only — on MD-heavy workloads this turns the dominant
/// O(|D|·|Dm|) acceptance scan into O(|changed|·|Dm|).
pub struct ConsistencyIndex {
    /// Per constant CFD: violating tuple count.
    ccfd_bad: Vec<usize>,
    /// Per variable CFD: group table and violating-group count.
    vgroups: Vec<FxHashMap<Vec<Value>, VGroupCount>>,
    vcfd_bad: Vec<usize>,
    /// Per tuple: does it satisfy every MD against the master view?
    /// Lazily materialized (see struct docs), then kept in sync.
    md_ok: Option<Vec<bool>>,
    md_bad: usize,
    /// Per MD: premise indices ordered cheapest-first (equality before
    /// similarity) — precomputed once, used by every `md_tuple_ok` call.
    premise_orders: Vec<Vec<usize>>,
    consistent: bool,
}

impl ConsistencyIndex {
    /// Grade the repair `d` against the rules and the master view `dm`
    /// (pass an empty relation when the rule set has no MDs): one pass
    /// over `d` for the CFD group counters, then — only if `Σ` holds, as
    /// the reference check's `&&` would — one O(|D|·|Dm|) scan for the
    /// per-tuple MD verdicts.
    pub fn build(rules: &RuleSet, d: &Relation, dm: &Relation) -> Self {
        use uniclean_similarity::SimilarityPredicate;
        let n_c = rules.cfds().iter().filter(|c| c.is_constant()).count();
        let n_v = rules.cfds().len() - n_c;
        let premise_orders = rules
            .mds()
            .iter()
            .map(|md| {
                let mut order: Vec<usize> = (0..md.premises().len()).collect();
                order.sort_by_key(|&i| match md.premises()[i].pred {
                    SimilarityPredicate::Equal => 0,
                    _ => 1,
                });
                order
            })
            .collect();
        let mut me = ConsistencyIndex {
            ccfd_bad: vec![0; n_c],
            vgroups: (0..n_v).map(|_| FxHashMap::default()).collect(),
            vcfd_bad: vec![0; n_v],
            md_ok: None,
            md_bad: 0,
            premise_orders,
            consistent: false,
        };
        for (_, t) in d.iter() {
            me.apply_cfds(rules, t, 1);
        }
        me.refresh_verdict(rules, d, dm);
        me
    }

    /// The verdict as of the last build/update: `Dr ⊨ Σ` and
    /// `(Dr, Dm) ⊨ Γ`.
    pub fn consistent(&self) -> bool {
        self.consistent
    }

    /// Per-MD premise evaluation orders (cheapest-first), for callers
    /// running targeted [`md_tuple_ok`]/[`md_single_ok`] probes.
    pub(crate) fn premise_orders(&self) -> &[Vec<usize>] {
        &self.premise_orders
    }

    /// The per-tuple MD verdict, if the lazily-built table has been
    /// materialized (`None` means the CFD half never held, so MD verdicts
    /// were never needed — compute a targeted probe instead).
    pub(crate) fn tuple_md_ok_cached(&self, tid: TupleId) -> Option<bool> {
        self.md_ok.as_ref().map(|ok| ok[tid.index()])
    }

    /// Does `t` violate no CFD? Constant CFDs are checked directly against
    /// the tuple; variable CFDs read the maintained group table (a tuple in
    /// a violating group is rejected with the whole group).
    pub(crate) fn tuple_cfd_ok<'t>(&self, rules: &RuleSet, t: impl Row<'t>) -> bool {
        self.tuple_cfd_violations(rules, t).is_empty()
    }

    /// The CFDs rejecting `t`, in declaration order.
    pub(crate) fn tuple_cfd_violations<'t>(
        &self,
        rules: &RuleSet,
        t: impl Row<'t>,
    ) -> Vec<TupleViolation> {
        let mut out = Vec::new();
        let mut vi = 0usize;
        for cfd in rules.cfds() {
            if cfd.is_constant() {
                if cfd.lhs_matches(t) {
                    let want = cfd.rhs_pattern()[0].as_const().expect("constant CFD");
                    if !t.value(cfd.rhs()[0]).eq_nullable(want) {
                        out.push(TupleViolation {
                            rule: cfd.name().to_string(),
                            kind: ViolationKind::ConstantCfd,
                        });
                    }
                }
            } else {
                let slot = vi;
                vi += 1;
                if cfd.lhs_matches(t) {
                    let key = t.project(cfd.lhs());
                    if self.vgroups[slot].get(&key).is_some_and(|g| g.bad()) {
                        out.push(TupleViolation {
                            rule: cfd.name().to_string(),
                            kind: ViolationKind::VariableCfd,
                        });
                    }
                }
            }
        }
        out
    }

    fn cfds_ok(&self) -> bool {
        self.ccfd_bad.iter().all(|&n| n == 0) && self.vcfd_bad.iter().all(|&n| n == 0)
    }

    /// Re-verify against the new final relation: `prev` is the previous
    /// final (a prefix of `new` tuple-wise); only tuples whose cell values
    /// changed, plus appended tuples, are re-checked.
    pub(crate) fn update(
        &mut self,
        rules: &RuleSet,
        dm: &Relation,
        prev: &Relation,
        new: &Relation,
    ) {
        for i in 0..prev.len() {
            let (a, b) = (prev.tuple(TupleId::from(i)), new.tuple(TupleId::from(i)));
            let changed = a
                .cells()
                .zip(b.cells())
                .any(|(ca, cb)| ca.value != cb.value);
            if changed {
                self.apply_cfds(rules, a, -1);
                self.apply_cfds(rules, b, 1);
                if let Some(md_ok) = &mut self.md_ok {
                    let ok = md_tuple_ok(rules, &self.premise_orders, b, dm);
                    if md_ok[i] != ok {
                        md_ok[i] = ok;
                        if ok {
                            self.md_bad -= 1;
                        } else {
                            self.md_bad += 1;
                        }
                    }
                }
            }
        }
        for i in prev.len()..new.len() {
            let t = new.tuple(TupleId::from(i));
            self.apply_cfds(rules, t, 1);
            if let Some(md_ok) = &mut self.md_ok {
                let ok = md_tuple_ok(rules, &self.premise_orders, t, dm);
                md_ok.push(ok);
                if !ok {
                    self.md_bad += 1;
                }
            }
        }
        self.refresh_verdict(rules, new, dm);
    }

    /// Combine the halves, materializing the MD verdicts on first need —
    /// exactly when the reference `satisfies_all`'s `&&` would first
    /// evaluate its `Γ` side.
    fn refresh_verdict(&mut self, rules: &RuleSet, d: &Relation, dm: &Relation) {
        if !self.cfds_ok() {
            self.consistent = false;
            return;
        }
        if self.md_ok.is_none() {
            let mut md_ok = Vec::with_capacity(d.len());
            let mut bad = 0usize;
            for (_, t) in d.iter() {
                let ok = md_tuple_ok(rules, &self.premise_orders, t, dm);
                md_ok.push(ok);
                if !ok {
                    bad += 1;
                }
            }
            self.md_ok = Some(md_ok);
            self.md_bad = bad;
        }
        self.consistent = self.md_bad == 0;
    }

    /// Add (`delta = 1`) or remove (`-1`) one tuple's CFD contributions.
    fn apply_cfds<'t>(&mut self, rules: &RuleSet, t: impl Row<'t>, delta: isize) {
        let (mut ci, mut vi) = (0usize, 0usize);
        for cfd in rules.cfds() {
            if cfd.is_constant() {
                let slot = ci;
                ci += 1;
                if !cfd.lhs_matches(t) {
                    continue;
                }
                let want = cfd.rhs_pattern()[0].as_const().expect("constant CFD");
                if !t.value(cfd.rhs()[0]).eq_nullable(want) {
                    self.ccfd_bad[slot] = self.ccfd_bad[slot]
                        .checked_add_signed(delta)
                        .expect("violation count underflow");
                }
            } else {
                let slot = vi;
                vi += 1;
                if !cfd.lhs_matches(t) {
                    continue;
                }
                let key = t.project(cfd.lhs());
                let rhs = t.value(cfd.rhs()[0]);
                let group = self.vgroups[slot].entry(key.clone()).or_default();
                let was_bad = group.bad();
                match delta {
                    1 => {
                        group.members += 1;
                        if !rhs.is_null() {
                            *group.counts.entry(rhs.clone()).or_insert(0) += 1;
                        }
                    }
                    -1 => {
                        group.members -= 1;
                        if !rhs.is_null() {
                            let c = group
                                .counts
                                .get_mut(rhs)
                                .expect("removing an uncounted value");
                            *c -= 1;
                            if *c == 0 {
                                group.counts.remove(rhs);
                            }
                        }
                    }
                    _ => unreachable!("delta is ±1"),
                }
                let now_bad = group.bad();
                let empty = group.members == 0;
                if was_bad != now_bad {
                    if now_bad {
                        self.vcfd_bad[slot] += 1;
                    } else {
                        self.vcfd_bad[slot] -= 1;
                    }
                }
                if empty {
                    self.vgroups[slot].remove(&key);
                }
            }
        }
    }
}

/// Does `t` satisfy every MD against `dm` (SQL null semantics, §7)? The
/// per-tuple slice of the reference `md_violations` scan, with one
/// verdict-preserving twist: premises are evaluated cheapest-first
/// (equality before similarity), so a master tuple that fails an equality
/// premise never pays for an edit-distance computation. The conjunction's
/// value is unchanged.
pub(crate) fn md_tuple_ok<'t>(
    rules: &RuleSet,
    premise_orders: &[Vec<usize>],
    t: impl Row<'t>,
    dm: &Relation,
) -> bool {
    rules
        .mds()
        .iter()
        .zip(premise_orders)
        .all(|(md, order)| md_single_ok(md, order, t, dm))
}

/// The single-MD slice of [`md_tuple_ok`], for per-rule violation
/// reporting ([`RepairState::violations`](crate::RepairState::violations)).
pub(crate) fn md_single_ok<'t>(md: &Md, order: &[usize], t: impl Row<'t>, dm: &Relation) -> bool {
    let (e, f) = md.rhs()[0];
    dm.rows().all(|s| {
        let matched = order.iter().all(|&i| {
            let p = &md.premises()[i];
            let tv = t.value(p.attr);
            let sv = s.value(p.master_attr);
            !tv.is_null() && !sv.is_null() && p.pred.matches(&tv.render(), &sv.render())
        });
        !matched || t.value(e).eq_nullable(s.value(f))
    })
}
