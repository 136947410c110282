//! The §3.2 acceptance check — `Dr ⊨ Σ` and `(Dr, Dm) ⊨ Γ` under SQL null
//! semantics (§7) — and the one owner of every verdict the engine returns.
//!
//! [`ConsistencyIndex`] grades a repair once ([`ConsistencyIndex::build`],
//! what [`Cleaner::clean`](crate::Cleaner::clean) and
//! [`Cleaner::begin`](crate::Cleaner::begin) use) and then *maintains* the
//! grade from per-tuple diffs, so a
//! [`Cleaner::clean_delta`](crate::Cleaner::clean_delta) call re-verifies
//! only the tuples it changed. MDs are graded through the session's
//! [`MasterIndex`] (candidates + verify), never by scanning `Dm`. The same
//! group counters and per-(tuple, MD) verdicts answer
//! [`RepairState::is_accepted`](crate::RepairState::is_accepted) and
//! [`RepairState::violations`](crate::RepairState::violations) without
//! touching master data.
//!
//! The reference implementation is `uniclean_rules::satisfies_all`; the
//! engine never calls it, the tests compare every verdict against it
//! (`tests/acceptance.rs`).

use uniclean_model::{FxHashMap, Relation, Row, TupleId, Value};
use uniclean_rules::RuleSet;

use crate::master_index::{MasterIndex, ProbeScratch};

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
/// semantics), but updatable from a per-tuple diff instead of
/// recomputed from scratch.
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
/// let verdict = ConsistencyIndex::build(&rules, &d, None).consistent();
/// assert!(!verdict);
/// assert_eq!(verdict, satisfies_all(rules.cfds(), rules.mds(), &d, &no_master));
/// ```
///
/// The MD half is one verdict per (tuple, MD), always materialized: each
/// is one [`MasterIndex`] probe (candidates, then premise verification of
/// those disagreeing on the RHS), and a delta call re-probes changed
/// tuples only.
pub struct ConsistencyIndex {
    /// Per constant CFD: violating tuple count.
    ccfd_bad: Vec<usize>,
    /// Per variable CFD: group table and violating-group count.
    vgroups: Vec<FxHashMap<Vec<Value>, VGroupCount>>,
    vcfd_bad: Vec<usize>,
    /// Row-major `|D|·|Γ|` flags: does tuple `i` satisfy MD `j`?
    md_ok: Vec<bool>,
    /// Tuples with at least one unset flag.
    md_bad: usize,
}

impl ConsistencyIndex {
    /// Grade the repair `d` against the rules and the master view `master`
    /// with its access paths (`None`: no master data, so every MD holds
    /// vacuously): one pass over `d` for the CFD group counters and one
    /// index probe per (tuple, MD).
    pub fn build(rules: &RuleSet, d: &Relation, master: Option<(&Relation, &MasterIndex)>) -> Self {
        let n_c = rules.cfds().iter().filter(|c| c.is_constant()).count();
        let n_v = rules.cfds().len() - n_c;
        let mut me = ConsistencyIndex {
            ccfd_bad: vec![0; n_c],
            vgroups: (0..n_v).map(|_| FxHashMap::default()).collect(),
            vcfd_bad: vec![0; n_v],
            md_ok: vec![true; d.len() * rules.mds().len()],
            md_bad: 0,
        };
        let mut scratch = ProbeScratch::new();
        for (tid, t) in d.iter() {
            me.apply_cfds(rules, t, 1);
            me.grade_mds(rules, master, tid.index(), t, &mut scratch);
        }
        me
    }

    /// The verdict as of the last build/update: `Dr ⊨ Σ` and
    /// `(Dr, Dm) ⊨ Γ`.
    pub fn consistent(&self) -> bool {
        self.cfds_ok() && self.md_bad == 0
    }

    /// The rules rejecting tuple `tid` of `d` (the relation last built or
    /// updated from), in declaration order, CFDs before MDs. Constant CFDs
    /// are checked directly against the tuple; variable CFDs read the
    /// maintained group table (a tuple in a violating group is rejected
    /// with the whole group); MDs read the stored verdicts.
    pub fn violations(&self, rules: &RuleSet, d: &Relation, tid: TupleId) -> Vec<TupleViolation> {
        let t = d.tuple(tid);
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
        let n_md = rules.mds().len();
        let flags = &self.md_ok[tid.index() * n_md..][..n_md];
        let mds = rules.mds().iter().zip(flags);
        out.extend(mds.filter(|(_, &ok)| !ok).map(|(md, _)| TupleViolation {
            rule: md.name().to_string(),
            kind: ViolationKind::Md,
        }));
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
        master: Option<(&Relation, &MasterIndex)>,
        prev: &Relation,
        new: &Relation,
    ) {
        let mut scratch = ProbeScratch::new();
        self.md_ok.resize(new.len() * rules.mds().len(), true);
        for i in 0..prev.len() {
            let (a, b) = (prev.tuple(TupleId::from(i)), new.tuple(TupleId::from(i)));
            let changed = a
                .cells()
                .zip(b.cells())
                .any(|(ca, cb)| ca.value != cb.value);
            if changed {
                self.apply_cfds(rules, a, -1);
                self.apply_cfds(rules, b, 1);
                self.grade_mds(rules, master, i, b, &mut scratch);
            }
        }
        for i in prev.len()..new.len() {
            let t = new.tuple(TupleId::from(i));
            self.apply_cfds(rules, t, 1);
            self.grade_mds(rules, master, i, t, &mut scratch);
        }
    }

    /// Re-probe tuple `i` (final value `t`) under every MD, keeping
    /// `md_bad` in step with its flags.
    fn grade_mds<'t>(
        &mut self,
        rules: &RuleSet,
        master: Option<(&Relation, &MasterIndex)>,
        i: usize,
        t: impl Row<'t>,
        scratch: &mut ProbeScratch,
    ) {
        let Some((dm, index)) = master else {
            return; // no master tuple, no MD violation
        };
        let n_md = rules.mds().len();
        let flags = &mut self.md_ok[i * n_md..][..n_md];
        let was_bad = flags.contains(&false);
        for (j, (md, ok)) in rules.mds().iter().zip(flags.iter_mut()).enumerate() {
            *ok = index.matches_agree(j, md, t, dm, scratch);
        }
        match (was_bad, flags.contains(&false)) {
            (false, true) => self.md_bad += 1,
            (true, false) => self.md_bad -= 1,
            _ => {}
        }
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
