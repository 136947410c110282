//! The §3.2 acceptance check — `Dr ⊨ Σ` and `(Dr, Dm) ⊨ Γ` under SQL null
//! semantics (§7) — and the one owner of every verdict the engine returns.
//!
//! [`ConsistencyIndex`] keeps no rule state of its own beyond per-tuple
//! counts and a flag vector. It reads the two structures the phase loop
//! already keeps exact for its output:
//!
//! * **variable CFDs** read the final 2-in-1 structure ([`TwoInOne`]), the
//!   engine's one variable-CFD group table. A group violates when it holds
//!   two distinct non-null RHS values. The structure is moved into the
//!   index, never cloned;
//! * **MDs** read the phase loop's witness memo (`MdMatchCache`): a tuple
//!   satisfies an MD when every master row matching its premise agrees
//!   with it on the RHS (under a self-snapshot, its own row too, which the
//!   phases never match but `Dm` holds). The verdict is one flag per
//!   (tuple, MD), taken in the same call as the phases.
//!
//! Constant CFDs are counted from the tuples directly, one count per tuple.
//! The engine grades a full clean once and then *maintains* the grade, so
//! a [`Cleaner::clean_delta`](crate::Cleaner::clean_delta) call re-checks
//! only the batch and the tuples whose cells it changed: the undo journals
//! name the cells the phases after `cRepair` wrote, in this call and the
//! last. The same index answers
//! [`RepairState::is_accepted`](crate::RepairState::is_accepted) and
//! [`RepairState::violations`](crate::RepairState::violations) without
//! touching master data.
//!
//! The reference implementation is `uniclean_rules::satisfies_all`; the
//! engine never calls it, the tests compare every verdict against it
//! (`tests/acceptance.rs`).

use uniclean_model::{Relation, Row, TupleId};
use uniclean_rules::RuleSet;

use crate::master_index::MasterIndex;
use crate::md_cache::MdMatchCache;
use crate::session::Master;
use crate::two_in_one::TwoInOne;

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
/// The engine grades through the same code as [`ConsistencyIndex::build`]:
/// a standalone build is that reader over a fresh [`TwoInOne::build`] and
/// a fresh witness cache, while the engine hands over the structures its
/// phases ended with.
pub struct ConsistencyIndex {
    /// Violating (tuple, constant CFD) pairs.
    ccfd_bad: usize,
    /// Per tuple, how many constant CFDs it violates (`ccfd_bad`'s terms).
    ccfd_of: Vec<u32>,
    /// The 2-in-1 structure exact for the graded relation. `None` only
    /// before the first grade and while a delta call runs its phases.
    two: Option<TwoInOne>,
    /// Row-major `|D|·|Γ|` flags: does tuple `i` satisfy MD `j`?
    md_ok: Vec<bool>,
    /// Tuples with at least one unset flag.
    md_bad: usize,
}

impl ConsistencyIndex {
    /// Grade the repair `d` against the rules and the master view `master`
    /// with its access paths (`None`: no master data, so every MD holds
    /// vacuously), over a fresh 2-in-1 structure and witness cache.
    pub fn build(rules: &RuleSet, d: &Relation, master: Option<(&Relation, &MasterIndex)>) -> Self {
        let master = master.and_then(|(dm, index)| Master::external(rules, Some(dm), Some(index)));
        let mut me = ConsistencyIndex::new();
        let mut cache = MdMatchCache::new(rules);
        let two = TwoInOne::build(rules, d);
        me.update(rules, master, &mut cache, d, two, (&[], 0));
        me
    }

    /// An index over no tuples, to be graded by [`Self::update`].
    pub(crate) fn new() -> Self {
        ConsistencyIndex {
            ccfd_bad: 0,
            ccfd_of: Vec::new(),
            two: None,
            md_ok: Vec::new(),
            md_bad: 0,
        }
    }

    /// The verdict as of the last build/update: `Dr ⊨ Σ` and
    /// `(Dr, Dm) ⊨ Γ`.
    pub fn consistent(&self) -> bool {
        self.ccfd_bad == 0 && self.md_bad == 0 && !self.two().any_violation()
    }

    /// The rules rejecting tuple `tid` of `d` (the relation last built or
    /// updated from), in declaration order, CFDs before MDs. Constant CFDs
    /// are checked directly against the tuple; variable CFDs read the
    /// tuple's group in the 2-in-1 structure (a tuple in a violating group
    /// is rejected with the whole group); MDs read the stored verdicts.
    pub fn violations(&self, rules: &RuleSet, d: &Relation, tid: TupleId) -> Vec<TupleViolation> {
        let two = self.two();
        let t = d.tuple(tid);
        let mut out = Vec::new();
        for (i, cfd) in rules.cfds().iter().enumerate() {
            let (violated, kind) = match two.slot(i) {
                None => (violates_constant(cfd, t), ViolationKind::ConstantCfd),
                Some(v) => (
                    two.group_of(v, tid)
                        .is_some_and(|g| two.group(g).violates()),
                    ViolationKind::VariableCfd,
                ),
            };
            if violated {
                out.push(TupleViolation {
                    rule: cfd.name().to_string(),
                    kind,
                });
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

    /// The 2-in-1 structure exact for the graded relation.
    pub(crate) fn two(&self) -> &TwoInOne {
        self.two.as_ref().expect("a graded index holds its 2-in-1")
    }

    /// Hand the 2-in-1 back before a delta call's phases run: the
    /// continuation rolls it back to its post-`cRepair` state and goes on
    /// from there.
    pub(crate) fn take_two(&mut self) -> Option<TwoInOne> {
        self.two.take()
    }

    /// Re-grade against the new final relation `d`, which extends the last
    /// graded one from tuple `from` on: the tuples in `changed` (ascending,
    /// all below `from`) and every tuple from `from` on are re-checked. A
    /// settled tuple outside `changed` must hold the values it was last
    /// graded with; re-checking one that does is harmless. `two` must be
    /// exact for `d`, and `cache` the witness memo of `master` for `d`'s
    /// lineage.
    pub(crate) fn update(
        &mut self,
        rules: &RuleSet,
        master: Option<Master<'_>>,
        cache: &mut MdMatchCache,
        d: &Relation,
        two: TwoInOne,
        (changed, from): (&[TupleId], usize),
    ) {
        self.two = Some(two);
        self.md_ok.resize(d.len() * rules.mds().len(), true);
        self.ccfd_of.resize(d.len(), 0);
        let appended = (from..d.len()).map(TupleId::from);
        for t in changed.iter().copied().chain(appended) {
            self.count_constant_cfds(rules, d, t);
            self.grade_mds(rules, master, cache, d, t);
        }
    }

    /// Re-grade tuple `t` of `d` under every MD, keeping `md_bad` in step
    /// with its flags: every master row matching `t`'s premise must agree
    /// with `t` on the RHS. A self-snapshot's own row is no witness to the
    /// phases, but `Dm` holds it, so it is graded here too: it can disagree
    /// only when the RHS pairs two different attributes.
    fn grade_mds(
        &mut self,
        rules: &RuleSet,
        master: Option<Master<'_>>,
        cache: &mut MdMatchCache,
        d: &Relation,
        t: TupleId,
    ) {
        let Some(m) = master else {
            return; // no master tuple, no MD violation
        };
        let n_md = rules.mds().len();
        let flags = &mut self.md_ok[t.index() * n_md..][..n_md];
        let was_bad = flags.contains(&false);
        let row = d.tuple(t);
        for (j, (md, ok)) in rules.mds().iter().zip(flags.iter_mut()).enumerate() {
            let (e, f) = md.rhs()[0];
            let value = row.value(e);
            *ok = value.is_null()
                || cache
                    .matches(j, rules, d, m, t)
                    .all()
                    .iter()
                    .all(|&s| value.eq_nullable(m.dm.tuple(s).value(f)));
        }
        match (was_bad, flags.contains(&false)) {
            (false, true) => self.md_bad += 1,
            (true, false) => self.md_bad -= 1,
            _ => {}
        }
    }

    /// Re-count tuple `t` of `d`'s constant-CFD violations, replacing its
    /// previous term of `ccfd_bad`.
    fn count_constant_cfds(&mut self, rules: &RuleSet, d: &Relation, t: TupleId) {
        let row = d.tuple(t);
        let constant = rules.cfds().iter().filter(|c| c.is_constant());
        let bad = constant.filter(|cfd| violates_constant(cfd, row)).count() as u32;
        let was = std::mem::replace(&mut self.ccfd_of[t.index()], bad);
        self.ccfd_bad = self.ccfd_bad - was as usize + bad as usize;
    }
}

/// Does `t` match the constant CFD's LHS pattern but not its RHS constant?
fn violates_constant<'t>(cfd: &uniclean_rules::Cfd, t: impl Row<'t>) -> bool {
    let want = cfd.rhs_pattern()[0].as_const().expect("constant CFD");
    cfd.lhs_matches(t) && !t.value(cfd.rhs()[0]).eq_nullable(want)
}
