//! `hRepair`: possible fixes via equivalence-class targets (§7, extending
//! the heuristic of Cong et al. 2007).
//!
//! Every cell `(t, A)` carries a target `targ` that is either `␣` (not yet
//! fixed — the cell keeps its original value), a constant, or `null`
//! (unresolvable conflict). Resolution only ever *upgrades* targets —
//! `␣ → constant → null`, never constant → constant — so the process
//! terminates (Corollary 7.1: the number of fixed targets `H ≤ 3k` only
//! grows). Agreement demanded by variable CFDs is enforced by upgrading
//! every conflicting member of a violating set toward one chosen value and
//! re-checking on the next round; this realizes the equivalence-class
//! semantics (all members end up equal or null) while keeping each cell
//! *individually* resolvable — physically unioning the cells would let a
//! deterministic fix freeze unrelated cells that were dragged into its
//! class through a corrupted key, deadlocking later MD resolution.
//!
//! Extensions over the original heuristic, per §7:
//! * MD violations are resolved by incorporating constants from the master
//!   relation;
//! * deterministic fixes from `cRepair` are *frozen*: their targets are
//!   immovable constants, and conflicts against them are resolved by
//!   nulling the cheapest non-frozen premise cell instead (rules stop
//!   applying to tuples containing null, which settles the violation);
//! * reliable fixes are kept "as many as possible": they participate with
//!   their (usually majority-backed) values but may be overridden.
//!
//! Value choice is cost-guided with the §3.1 model: among the candidate
//! constants of a violating set, the one minimizing the total
//! confidence-weighted normalized edit distance from the members' original
//! values wins; a frozen value, when present, always wins.
//!
//! The variable-CFD equivalence classes are the groups of the 2-in-1
//! structure `eRepair` just worked on ([`TwoInOne`]): the phase loop hands
//! it over, as it hands over the witness cache, so no class is projected
//! here. A round visits a class only when its counts hold two distinct
//! values, or one value and a null member; no other class can violate.
//! Classes are resolved in ascending group-id order. Group ids depend on
//! how the relation arrived — one build, or a delta's updates — but
//! neither the order of one CFD's classes nor the order of members inside
//! a class changes the outcome (see `resolve_class`).
//!
//! Rounds pay for what changed. Round one checks every tuple against every
//! constant CFD and MD, and every class that can violate. Every target
//! change is journalled; at the round boundary the journal is rendered
//! into the assignment (the relation under repair, updated in place) and
//! each rendered cell is fed to [`TwoInOne::on_update`]. Round r ≥ 2 visits
//! only the tuples in round r−1's journal or touched earlier in round r,
//! and only the classes holding such a tuple or one that a tuple just
//! left. That is exact: a skipped item has the same values and targets as
//! when it was last visited, and that visit changed nothing.
//!
//! Witness lists come from the phase loop's one `MdMatchCache`, keyed by
//! premise values and warm from `cRepair`, `eRepair` and, in a delta call,
//! earlier calls, so every round verifies only premise values nobody
//! verified before. A self-snapshot master is a new relation every round,
//! so such a round matches through a fresh memo and visits every tuple for
//! its MDs.
//!
//! Resolution runs in tuple-id and group-id order, so the output does not
//! depend on hash-map iteration order.

use std::collections::HashMap;

use uniclean_model::{
    cell_cost, value_distance, AttrId, FixMark, FxHashMap, Relation, Symbol, TupleId, Value,
};
use uniclean_rules::{Cfd, RuleSet};

use crate::config::CleanConfig;
use crate::fix::{FixRecord, FixReport};
use crate::master_index::MasterIndex;
use crate::md_cache::MdMatchCache;
use crate::pattern_syms::{ensure_rule_constants, CfdPatternSyms};
use crate::session::{Master, MasterView};
use crate::two_in_one::{GroupId, TwoInOne};

/// Target of a cell.
#[derive(Clone, Debug, PartialEq)]
enum Target {
    /// `␣` — not yet fixed; the cell keeps its original value.
    Free,
    /// A chosen constant.
    Const(Value),
    /// Unresolvable conflict; SQL null semantics apply.
    Null,
}

/// Per-cell resolution state, and the journal of the round in progress.
struct Cells<'r> {
    arity: usize,
    target: Vec<Target>,
    /// Deterministic fixes: immovable constants.
    frozen: Vec<bool>,
    /// The rule that last changed each target.
    reason: Vec<&'r str>,
    /// Cells whose target changed this round, in change order.
    journal: Vec<usize>,
    /// The tuples the round visits: the previous round's journal plus every
    /// tuple touched so far (`touched` is the membership bitmap).
    worklist: Vec<TupleId>,
    touched: Vec<bool>,
}

impl<'r> Cells<'r> {
    fn new(d: &Relation) -> Self {
        let arity = d.schema().arity();
        let n = d.len() * arity;
        let mut c = Cells {
            arity,
            target: vec![Target::Free; n],
            frozen: vec![false; n],
            reason: vec![""; n],
            journal: Vec::new(),
            // Round one visits every tuple.
            worklist: d.ids().collect(),
            touched: vec![true; d.len()],
        };
        for (tid, t) in d.iter() {
            for a in d.schema().attr_ids() {
                if t.mark(a) == FixMark::Deterministic {
                    let cell = c.cell(tid, a);
                    c.frozen[cell] = true;
                    c.target[cell] = Target::Const(t.value(a).clone());
                }
            }
        }
        c
    }

    #[inline]
    fn cell(&self, t: TupleId, a: AttrId) -> usize {
        t.index() * self.arity + a.index()
    }

    fn is_frozen(&self, t: TupleId, a: AttrId) -> bool {
        self.frozen[self.cell(t, a)]
    }

    fn frozen_value(&self, t: TupleId, a: AttrId) -> Option<&Value> {
        let cell = self.cell(t, a);
        if self.frozen[cell] {
            match &self.target[cell] {
                Target::Const(v) => Some(v),
                _ => unreachable!("frozen cells always carry a constant"),
            }
        } else {
            None
        }
    }

    /// The tuples the next rule visits, in tuple-id order.
    fn worklist(&mut self) -> Vec<TupleId> {
        self.worklist.sort_unstable();
        self.worklist.clone()
    }

    fn touch(&mut self, t: TupleId) {
        if !std::mem::replace(&mut self.touched[t.index()], true) {
            self.worklist.push(t);
        }
    }

    /// Journal a target change of `cell`, a cell of tuple `t`.
    fn changed(&mut self, t: TupleId, cell: usize, rule: &'r str) {
        self.reason[cell] = rule;
        self.journal.push(cell);
        self.touch(t);
    }

    /// Close the round: hand back its journal (sorted, deduplicated cell
    /// ids) and make its tuples the next round's worklist.
    fn end_round(&mut self) -> Vec<usize> {
        let mut journal = std::mem::take(&mut self.journal);
        journal.sort_unstable();
        journal.dedup();
        for t in self.worklist.drain(..) {
            self.touched[t.index()] = false;
        }
        for &cell in &journal {
            self.touch(TupleId::from(cell / self.arity));
        }
        journal
    }

    /// Upgrade a cell toward `c` (a no-op when it already agrees or is
    /// null). `Err(())` when the cell is frozen to a different constant.
    fn upgrade(&mut self, t: TupleId, a: AttrId, c: &Value, rule: &'r str) -> Result<(), ()> {
        let cell = self.cell(t, a);
        if self.frozen[cell] {
            return match &self.target[cell] {
                Target::Const(f) if f == c => Ok(()),
                _ => Err(()),
            };
        }
        match &self.target[cell] {
            Target::Null => return Ok(()),
            Target::Const(x) if x == c => return Ok(()),
            // constant → different constant is forbidden; escalate.
            Target::Const(_) => self.target[cell] = Target::Null,
            Target::Free => self.target[cell] = Target::Const(c.clone()),
        }
        self.changed(t, cell, rule);
        Ok(())
    }

    /// Force a cell to null (premise break). Fails on frozen cells.
    fn force_null(&mut self, t: TupleId, a: AttrId, rule: &'r str) -> Result<(), ()> {
        let cell = self.cell(t, a);
        if self.frozen[cell] {
            return Err(());
        }
        if self.target[cell] != Target::Null {
            self.target[cell] = Target::Null;
            self.changed(t, cell, rule);
        }
        Ok(())
    }
}

/// Run `hRepair` in place on `d`. Returns the possible fixes applied.
/// Afterwards `d ⊨ Σ` and `(d, Dm) ⊨ Γ` under SQL null semantics whenever
/// the conflict structure is resolvable (the pipeline re-checks). An
/// unresolvable structure is a violation between frozen cells. Inputs that
/// break §5's correctness assumptions produce one, but so can inputs that
/// meet them: a corrupted cf-0 key pulls its tuple into a variable-CFD
/// class whose values conflict with a correct deterministic fix, because
/// the tuple's conclusion cells move to the class while its key stays
/// (see [`CleanResult::consistent`](crate::CleanResult::consistent)).
pub fn h_repair(
    d: &mut Relation,
    dm: Option<&Relation>,
    rules: &RuleSet,
    idx: Option<&MasterIndex>,
    cfg: &CleanConfig,
) -> FixReport {
    let master = Master::external(rules, dm, idx);
    let mut two = TwoInOne::build(rules, d);
    let mut cache = MdMatchCache::new(rules);
    h_run(
        d,
        rules,
        cfg,
        |_| MasterView::Prepared(master),
        &mut two,
        &mut cache,
    )
}

/// The engine behind [`h_repair`]: `view` yields the master each round
/// resolves MDs against, given that round's assignment. Under
/// self-matching it snapshots the assignment, so the "master" tracks it:
/// resolving against a phase-start snapshot lets two records swap values
/// through each other's stale copies, round after round.
///
/// `two` is the 2-in-1 structure over `d` (the phase loop hands in the one
/// `eRepair` worked on); its groups are the equivalence classes, and every
/// cell the run rewrites is fed to it, the last round's included, so it
/// stays exact for the repaired `d`. `cache` is the witness memo of `d`'s
/// lineage (the phase loop hands in the session's); it serves every round
/// whose view is not a snapshot.
pub(crate) fn h_run<'m>(
    d: &mut Relation,
    rules: &RuleSet,
    cfg: &CleanConfig,
    view: impl Fn(&Relation) -> MasterView<'m>,
    two: &mut TwoInOne,
    cache: &mut MdMatchCache,
) -> FixReport {
    // Stable symbols for rule constants before keeping the originals: the
    // assignment shares their lineage, so one pattern compilation serves
    // every round.
    ensure_rule_constants(d, rules);
    let base = d.clone();
    let mut cells = Cells::new(&base);
    let pats = CfdPatternSyms::compile(rules, &base);
    let mut rewritten = Vec::new();
    // The classes a tuple left at the last round boundary.
    let mut left = Vec::new();

    for round in 0..cfg.max_hrepair_rounds {
        let first = round == 0;
        resolve_constant_cfds(&base, d, rules, &pats, &mut cells);
        for v in 0..two.len() {
            let cfd = two.rule(rules, v);
            for g in due_classes(two, v, &mut cells, &left, first) {
                resolve_class(&base, d, &mut cells, &two.group(g).tuples, cfd);
            }
        }
        if !rules.mds().is_empty() {
            let cur: &Relation = d;
            let view = view(cur);
            if let Some(m) = view.master() {
                let snapshot = matches!(view, MasterView::Snapshot(..));
                let mut spare = None;
                let cache = view.cache(cache, &mut spare);
                resolve_mds(cur, m, rules, &mut cells, cache, snapshot);
            }
        }
        let journal = cells.end_round();
        if journal.is_empty() {
            break;
        }
        left = commit(d, &base, &cells, &journal, rules, two);
        rewritten.extend(journal);
    }

    // `d` holds the final assignment; a possible fix keeps the original
    // confidence of its cell, nulled cells included.
    rewritten.sort_unstable();
    rewritten.dedup();
    let mut report = FixReport::new();
    for cell in rewritten {
        let (t, a) = (
            TupleId::from(cell / cells.arity),
            AttrId::from(cell % cells.arity),
        );
        let orig = base.tuple(t);
        let new = d.tuple(t).value(a);
        if new == orig.value(a) {
            continue;
        }
        let new = new.clone();
        d.tuple_mut(t).set_cf(a, orig.cf(a));
        let rule = match cells.reason[cell] {
            "" => "hRepair",
            rule => rule,
        };
        report.push(FixRecord {
            tuple: t,
            attr: a,
            old: orig.value(a).clone(),
            new,
            mark: FixMark::Possible,
            rule: rule.to_string(),
        });
    }
    report
}

/// The round boundary: render the `journal` (sorted cell ids) into the
/// assignment `d` and keep the 2-in-1 exact under every rendered cell.
/// Returns the classes a journalled tuple left; the live ones lost a
/// member, so the next round visits them.
fn commit(
    d: &mut Relation,
    base: &Relation,
    cells: &Cells,
    journal: &[usize],
    rules: &RuleSet,
    two: &mut TwoInOne,
) -> Vec<GroupId> {
    let mut left = Vec::new();
    let arity = cells.arity;
    for run in journal.chunk_by(|x, y| x / arity == y / arity) {
        let t = TupleId::from(run[0] / arity);
        // Only a rewritten LHS cell moves `t` to another class. `on_update`
        // re-files `t` under an unchanged key too, but then its group keeps
        // its id unless `t` was its only member, and an empty group is dead.
        let rekeyed = |v: &usize| {
            let lhs = two.rule(rules, *v).lhs();
            run.iter().any(|&c| lhs.contains(&AttrId::from(c % arity)))
        };
        let before: Vec<(usize, GroupId)> = (0..two.len())
            .filter(rekeyed)
            .filter_map(|v| Some((v, two.group_of(v, t)?)))
            .collect();
        for &cell in run {
            let a = AttrId::from(cell % arity);
            let old = d.tuple(t).value(a).clone();
            render(d, base, cells, t, a);
            two.on_update(d, t, a, &old);
        }
        for (v, g) in before {
            if two.group_of(v, t) != Some(g) {
                left.push(g);
            }
        }
    }
    left
}

/// Render the target of cell `(t, a)` into the assignment `d`: the
/// original cell overridden by a constant or null target. A target equal
/// to the original value — null over a null original included — restores
/// the original value, confidence and mark.
fn render(d: &mut Relation, base: &Relation, cells: &Cells, t: TupleId, a: AttrId) {
    let orig = base.tuple(t);
    let (value, cf, mark) = match &cells.target[cells.cell(t, a)] {
        Target::Const(v) if v != orig.value(a) => (v.clone(), orig.cf(a), FixMark::Possible),
        Target::Null if !orig.value(a).is_null() => (Value::Null, 0.0, FixMark::Possible),
        _ => (orig.value(a).clone(), orig.cf(a), orig.mark(a)),
    };
    d.set(t, a, value, cf, mark);
}

fn resolve_constant_cfds<'r>(
    base: &Relation,
    cur: &Relation,
    rules: &'r RuleSet,
    pats: &CfdPatternSyms,
    cells: &mut Cells<'r>,
) {
    // A constant CFD rewrites only the tuple it checks, which is already
    // on the worklist: one snapshot serves every constant CFD.
    let scope = cells.worklist();
    for (i, cfd) in rules
        .cfds()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.is_constant())
    {
        let a = cfd.rhs()[0];
        let want = cfd.rhs_pattern()[0].as_const().expect("constant CFD");
        for &tid in &scope {
            if !pats.lhs_matches_attrs(i, cfd.lhs(), cur, tid) {
                continue;
            }
            let have = cur.tuple(tid).value(a);
            if have == want || have.is_null() {
                continue;
            }
            if cells.upgrade(tid, a, want, cfd.name()).is_err() {
                // Frozen conflict: break the premise instead.
                break_premise(base, cur, cells, tid, cfd.lhs(), cfd.name());
            }
        }
    }
}

/// The classes of variable CFD `v` a round resolves, in ascending group-id
/// order: in round one every class, afterwards those holding a worklist
/// tuple or `left` by one at the last round boundary — in either case
/// only those whose counts say they can violate. A variable CFD rewrites
/// only members of the class it resolves, so its worklist is fixed for its
/// whole pass.
fn due_classes(
    two: &TwoInOne,
    v: usize,
    cells: &mut Cells,
    left: &[GroupId],
    first: bool,
) -> Vec<GroupId> {
    // The 2-in-1 is exact for the assignment throughout a round, so its
    // counts are the ones `resolve_class` would gather: a class without two
    // distinct values, or one value and a null member, returns there
    // untouched (a left class may have emptied).
    let can_violate = |&g: &GroupId| two.group(g).can_violate();
    let mut due: Vec<GroupId> = if first {
        two.groups(v).filter(can_violate).collect()
    } else {
        let worklist = cells.worklist();
        let held = worklist.into_iter().filter_map(|t| two.group_of(v, t));
        let left = left.iter().copied().filter(|&g| two.group(g).vcfd == v);
        held.chain(left).filter(can_violate).collect()
    };
    due.sort_unstable();
    due.dedup();
    due
}

/// Align one class of variable CFD `cfd` on its RHS attribute.
///
/// The outcome does not depend on the order of `members`: the candidate
/// values are a set, the frozen-value vote is a count with a total
/// tie-break, `cost_pick` sums over the members in tuple-id order, and
/// every write — an upgrade or a premise break — touches only cells of
/// the member it is for, judged on that member's cells alone.
///
/// Nor does it depend on the order in which one CFD's pass visits its
/// classes: the classes are disjoint, the assignment `cur` is fixed for
/// the round, and a class reads and writes only its own members' cells.
/// So group ids — which depend on how the relation arrived — order the
/// pass without changing what it leaves.
fn resolve_class<'r>(
    base: &Relation,
    cur: &Relation,
    cells: &mut Cells<'r>,
    members: &[TupleId],
    cfd: &'r Cfd,
) {
    let b = cfd.rhs()[0];
    let mut distinct: Vec<Value> = Vec::new();
    let mut enrichable_null = false;
    for &t in members {
        let v = cur.tuple(t).value(b);
        if v.is_null() {
            // Null targets satisfy the FD; only a *free* original null is
            // enrichable.
            if cells.target[cells.cell(t, b)] == Target::Free {
                enrichable_null = true;
            }
        } else if !distinct.contains(v) {
            distinct.push(v.clone());
        }
    }
    if distinct.len() < 2 && !(enrichable_null && distinct.len() == 1) {
        return;
    }
    // Choose the value: a frozen value wins (majority over frozen values
    // when several cells are frozen); otherwise cost-pick.
    let mut frozen_counts: HashMap<&Value, usize> = HashMap::new();
    for &t in members {
        if let Some(v) = cells.frozen_value(t, b) {
            *frozen_counts.entry(v).or_insert(0) += 1;
        }
    }
    let winner: Value = if let Some((v, _)) = frozen_counts
        .iter()
        .max_by(|x, y| x.1.cmp(y.1).then(y.0.cmp(x.0)))
    {
        (*v).clone()
    } else {
        let mut members = members.to_vec();
        members.sort_unstable();
        cost_pick(base, &members, b, &distinct)
    };
    for &t in members {
        let curv = cur.tuple(t).value(b);
        if curv == &winner {
            continue;
        }
        if curv.is_null() && cells.target[cells.cell(t, b)] != Target::Free {
            continue; // forced null: already satisfies the FD
        }
        if cells.upgrade(t, b, &winner, cfd.name()).is_err() {
            // This member is frozen to a different value than the (also
            // frozen) winner: detach it by nulling a cheap premise cell of
            // *this* tuple.
            break_premise(base, cur, cells, t, cfd.lhs(), cfd.name());
        }
    }
}

/// Resolve every MD over the worklist — or over every tuple when
/// `everyone` (a self-snapshot master, new each round). Witness lists come
/// from `cache`, the memo of `m`.
fn resolve_mds<'r>(
    cur: &Relation,
    m: Master<'_>,
    rules: &'r RuleSet,
    cells: &mut Cells<'r>,
    cache: &mut MdMatchCache,
    everyone: bool,
) {
    let dm = m.dm;
    for (i, md) in rules.mds().iter().enumerate() {
        let (e, f) = md.rhs()[0];
        let premise_attrs: Vec<AttrId> = md.premises().iter().map(|p| p.attr).collect();
        let scope: Vec<TupleId> = if everyone {
            cur.ids().collect()
        } else {
            cells.worklist()
        };
        for tid in scope {
            let t = cur.tuple(tid);
            let have = t.value(e);
            if have.is_null() {
                continue; // a null satisfies every witness
            }
            // The first witness demanding a change; one master witness per
            // tuple per rule suffices. A witness may only demand change of
            // a cell that is at most as confident as itself (§3.1:
            // changing confident cells is costly). Real master data
            // carries cf = 1 and always passes; under self-matching this
            // stops dirty low-confidence copies from overwriting verified
            // values.
            let demand = cache.matches(i, rules, cur, m, tid).iter().find(|&s| {
                let s = dm.tuple(s);
                s.cf(f) >= t.cf(e) && s.value(f) != have
            });
            let Some(s) = demand else {
                continue;
            };
            if cells
                .upgrade(tid, e, dm.tuple(s).value(f), md.name())
                .is_err()
            {
                break_premise(cur, cur, cells, tid, &premise_attrs, md.name());
            }
        }
    }
}

/// Null the cheapest non-frozen premise cell of `t` so the rule stops
/// applying (null never matches a pattern or similarity premise).
fn break_premise<'r>(
    base: &Relation,
    cur: &Relation,
    cells: &mut Cells<'r>,
    t: TupleId,
    premise: &[AttrId],
    rule: &'r str,
) {
    let mut best: Option<(f64, AttrId)> = None;
    for &a in premise {
        if cells.is_frozen(t, a) || cells.target[cells.cell(t, a)] == Target::Null {
            continue;
        }
        if cur.tuple(t).value(a).is_null() {
            continue;
        }
        let cf = base.tuple(t).cf(a);
        if best.is_none_or(|(bc, _)| cf < bc) {
            best = Some((cf, a));
        }
    }
    // Everything frozen: unresolvable, leave as-is.
    if let Some((_, a)) = best {
        let _ = cells.force_null(t, a, rule);
    }
}

/// Choose among `candidates` the value minimizing the §3.1 cost over the
/// members' *original* B-cells; ties break to the lexicographically
/// smallest value for determinism.
///
/// Confidence gets a small floor: with the paper's experimental protocol
/// most unasserted cells carry `cf = 0`, which would make every change free
/// and the pick arbitrary. The floor keeps the choice majority- and
/// distance-driven (the value closest to most members wins), which is what
/// the cost model intends.
fn cost_pick(base: &Relation, members: &[TupleId], b: AttrId, candidates: &[Value]) -> Value {
    const CF_FLOOR: f64 = 0.05;
    let mut best: Option<(f64, &Value)> = None;
    let mut sorted: Vec<&Value> = candidates.iter().collect();
    sorted.sort();
    // Distances per distinct original value: the sum keeps its terms and
    // their order, so the total keeps its bits.
    let mut distance: FxHashMap<Symbol, f64> = FxHashMap::default();
    for cand in sorted {
        distance.clear();
        let total: f64 = members
            .iter()
            .map(|&t| {
                let cellv = base.tuple(t);
                let original = cellv.value(b);
                let dist = *distance
                    .entry(base.sym(t, b))
                    .or_insert_with(|| value_distance(original, cand));
                cell_cost(cellv.cf(b).max(CF_FLOOR), original, cand, |_, _| dist)
            })
            .sum();
        if best.is_none_or(|(bc, _)| total < bc) {
            best = Some((total, cand));
        }
    }
    best.expect("candidates nonempty").1.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use uniclean_model::{Schema, Tuple};
    use uniclean_rules::{parse_rules, satisfies_all};

    fn cfg() -> CleanConfig {
        CleanConfig {
            eta: 0.8,
            ..CleanConfig::default()
        }
    }

    fn cfd_rules(schema: &Arc<Schema>, text: &str) -> RuleSet {
        let parsed = parse_rules(text, schema, None).unwrap();
        RuleSet::cfds_only(schema.clone(), parsed.cfds)
    }

    #[test]
    fn constant_cfd_violation_fixed() {
        let s = Schema::of_strings("tran", &["AC", "city"]);
        let rules = cfd_rules(&s, "cfd phi1: tran([AC=131] -> [city=Edi])");
        let mut d = Relation::new(s.clone(), vec![Tuple::of_strs(&["131", "Ldn"], 0.5)]);
        let report = h_repair(&mut d, None, &rules, None, &cfg());
        let city = s.attr_id_or_panic("city");
        assert_eq!(d.tuple(TupleId(0)).value(city), &Value::str("Edi"));
        assert_eq!(d.tuple(TupleId(0)).mark(city), FixMark::Possible);
        assert_eq!(report.len(), 1);
        assert!(satisfies_all(rules.cfds(), &[], &d, &Relation::empty(s)));
    }

    #[test]
    fn variable_cfd_conflict_resolved_by_cost() {
        // Majority + higher confidence wins under the cost model.
        let s = Schema::of_strings("r", &["K", "B"]);
        let rules = cfd_rules(&s, "cfd fd: r([K] -> [B])");
        let b = s.attr_id_or_panic("B");
        let mut cheap = Tuple::of_strs(&["k", "bad"], 0.5);
        cheap.set(b, Value::str("bad"), 0.1, FixMark::Untouched);
        let mut good1 = Tuple::of_strs(&["k", "good"], 0.5);
        good1.set(b, Value::str("good"), 0.9, FixMark::Untouched);
        let mut good2 = Tuple::of_strs(&["k", "good"], 0.5);
        good2.set(b, Value::str("good"), 0.9, FixMark::Untouched);
        let mut d = Relation::new(s.clone(), vec![cheap, good1, good2]);
        h_repair(&mut d, None, &rules, None, &cfg());
        assert_eq!(d.tuple(TupleId(0)).value(b), &Value::str("good"));
        assert!(satisfies_all(rules.cfds(), &[], &d, &Relation::empty(s)));
    }

    #[test]
    fn null_enrichment_through_fd() {
        // Example 1.1 step (d): a null street is enriched from the agreeing
        // tuple.
        let s = Schema::of_strings("tran", &["city", "phn", "St"]);
        let rules = cfd_rules(&s, "cfd phi3: tran([city, phn] -> [St])");
        let st = s.attr_id_or_panic("St");
        let mut t4 = Tuple::of_strs(&["Ldn", "3887644", "x"], 0.5);
        t4.set(st, Value::Null, 0.0, FixMark::Untouched);
        let t3 = Tuple::of_strs(&["Ldn", "3887644", "5 Wren St"], 0.5);
        let mut d = Relation::new(s, vec![t3, t4]);
        h_repair(&mut d, None, &rules, None, &cfg());
        assert_eq!(d.tuple(TupleId(1)).value(st), &Value::str("5 Wren St"));
    }

    #[test]
    fn deterministic_fixes_survive() {
        let s = Schema::of_strings("r", &["K", "B"]);
        let rules = cfd_rules(&s, "cfd fd: r([K] -> [B])");
        let b = s.attr_id_or_panic("B");
        let mut frozen = Tuple::of_strs(&["k", "det"], 0.9);
        frozen.set(b, Value::str("det"), 0.9, FixMark::Deterministic);
        let other = Tuple::of_strs(&["k", "heur"], 0.1);
        let mut d = Relation::new(s.clone(), vec![frozen, other]);
        h_repair(&mut d, None, &rules, None, &cfg());
        assert_eq!(d.tuple(TupleId(0)).value(b), &Value::str("det"));
        assert_eq!(d.tuple(TupleId(0)).mark(b), FixMark::Deterministic);
        // The other tuple adopted the frozen value.
        assert_eq!(d.tuple(TupleId(1)).value(b), &Value::str("det"));
        assert!(satisfies_all(rules.cfds(), &[], &d, &Relation::empty(s)));
    }

    #[test]
    fn conflicting_frozen_cells_break_the_premise() {
        // Two deterministically fixed B values under the same key: the FD
        // cannot align them; a premise cell goes to null instead.
        let s = Schema::of_strings("r", &["K", "B"]);
        let rules = cfd_rules(&s, "cfd fd: r([K] -> [B])");
        let b = s.attr_id_or_panic("B");
        let k = s.attr_id_or_panic("K");
        let mut f1 = Tuple::of_strs(&["k", "v1"], 0.9);
        f1.set(b, Value::str("v1"), 0.9, FixMark::Deterministic);
        let mut f2 = Tuple::of_strs(&["k", "v2"], 0.9);
        f2.set(b, Value::str("v2"), 0.9, FixMark::Deterministic);
        let mut d = Relation::new(s.clone(), vec![f1, f2]);
        h_repair(&mut d, None, &rules, None, &cfg());
        // Both frozen values intact; some K became null to detach the rule.
        assert_eq!(d.tuple(TupleId(0)).value(b), &Value::str("v1"));
        assert_eq!(d.tuple(TupleId(1)).value(b), &Value::str("v2"));
        assert!(d.tuple(TupleId(0)).value(k).is_null() || d.tuple(TupleId(1)).value(k).is_null());
        assert!(satisfies_all(rules.cfds(), &[], &d, &Relation::empty(s)));
    }

    #[test]
    fn frozen_conclusion_with_fixable_premise_detaches() {
        // The deadlock that motivated per-cell targets: an MD demands a
        // change to a frozen conclusion; the premise cell is NOT frozen, so
        // it is nulled and the deterministic fix survives.
        let tran = Schema::of_strings("tran", &["LN", "phn"]);
        let card = Schema::of_strings("card", &["LN", "tel"]);
        let parsed = parse_rules(
            "md psi: tran[LN] = card[LN] -> tran[phn] <=> card[tel]",
            &tran,
            Some(&card),
        )
        .unwrap();
        let rules = RuleSet::new(
            tran.clone(),
            Some(card.clone()),
            vec![],
            parsed.positive_mds,
            vec![],
        );
        let phn = tran.attr_id_or_panic("phn");
        let mut t = Tuple::of_strs(&["Brady", "111"], 0.9);
        t.set(phn, Value::str("111"), 0.9, FixMark::Deterministic);
        let mut d = Relation::new(tran.clone(), vec![t]);
        // Master disagrees with the frozen phone.
        let dm = Relation::new(card, vec![Tuple::of_strs(&["Brady", "222"], 1.0)]);
        let idx = MasterIndex::build(rules.mds(), &dm);
        h_repair(&mut d, Some(&dm), &rules, Some(&idx), &cfg());
        assert_eq!(
            d.tuple(TupleId(0)).value(phn),
            &Value::str("111"),
            "frozen fix preserved"
        );
        assert!(
            d.tuple(TupleId(0))
                .value(tran.attr_id_or_panic("LN"))
                .is_null(),
            "premise detached"
        );
        assert!(satisfies_all(&[], rules.mds(), &d, &dm));
    }

    #[test]
    fn md_violation_pulls_master_value() {
        let tran = Schema::of_strings("tran", &["LN", "phn"]);
        let card = Schema::of_strings("card", &["LN", "tel"]);
        let parsed = parse_rules(
            "md psi: tran[LN] = card[LN] -> tran[phn] <=> card[tel]",
            &tran,
            Some(&card),
        )
        .unwrap();
        let rules = RuleSet::new(
            tran.clone(),
            Some(card.clone()),
            vec![],
            parsed.positive_mds,
            vec![],
        );
        let mut d = Relation::new(tran.clone(), vec![Tuple::of_strs(&["Brady", "000"], 0.5)]);
        let dm = Relation::new(card, vec![Tuple::of_strs(&["Brady", "3887644"], 1.0)]);
        let idx = MasterIndex::build(rules.mds(), &dm);
        h_repair(&mut d, Some(&dm), &rules, Some(&idx), &cfg());
        assert_eq!(
            d.tuple(TupleId(0)).value(tran.attr_id_or_panic("phn")),
            &Value::str("3887644")
        );
        assert!(satisfies_all(&[], rules.mds(), &d, &dm));
    }

    /// Example 7.2: the data `D` (t3, t4), its rules and the master `Dm`.
    fn example_7_2() -> (Arc<Schema>, RuleSet, Relation, Relation) {
        let tran = Schema::of_strings("tran", &["FN", "LN", "city", "phn", "St", "post"]);
        let card = Schema::of_strings("card", &["FN", "LN", "city", "tel", "St", "zip"]);
        let text = "cfd phi4: tran([FN=Bob] -> [FN=Robert])\n\
                    cfd phi3a: tran([city, phn] -> [St])\n\
                    cfd phi3b: tran([city, phn] -> [post])\n\
                    md psi: tran[LN] = card[LN] AND tran[city] = card[city] AND tran[St] = card[St] AND tran[post] = card[zip] AND tran[FN] ~lev(3) card[FN] -> tran[phn] <=> card[tel]";
        let parsed = parse_rules(text, &tran, Some(&card)).unwrap();
        let rules = RuleSet::new(
            tran.clone(),
            Some(card.clone()),
            parsed.cfds,
            parsed.positive_mds,
            vec![],
        );
        let t3 = Tuple::of_strs(
            &["Bob", "Brady", "Ldn", "3887834", "5 Wren St", "WC1H 9SE"],
            0.5,
        );
        let mut t4 = Tuple::of_strs(&["Robert", "Brady", "Ldn", "3887644", "", "WC1E 7HX"], 0.5);
        t4.set(
            tran.attr_id_or_panic("St"),
            Value::Null,
            0.0,
            FixMark::Untouched,
        );
        let d = Relation::new(tran.clone(), vec![t3, t4]);
        let dm = Relation::new(
            card,
            vec![Tuple::of_strs(
                &["Robert", "Brady", "Ldn", "3887644", "5 Wren St", "WC1H 9SE"],
                1.0,
            )],
        );
        (tran, rules, d, dm)
    }

    #[test]
    fn example_7_2_full_resolution() {
        // ϕ4 standardizes t3[FN] := Robert; ψ then matches s2 and fixes the
        // phone; ϕ3 copies street/post into t4.
        let (tran, rules, mut d, dm) = example_7_2();
        let idx = MasterIndex::build(rules.mds(), &dm);
        h_repair(&mut d, Some(&dm), &rules, Some(&idx), &cfg());
        let fnid = tran.attr_id_or_panic("FN");
        let phn = tran.attr_id_or_panic("phn");
        let st = tran.attr_id_or_panic("St");
        assert_eq!(d.tuple(TupleId(0)).value(fnid), &Value::str("Robert"));
        assert_eq!(d.tuple(TupleId(0)).value(phn), &Value::str("3887644"));
        // t3 and t4 now agree on city+phn, so ϕ3 propagates the street.
        assert_eq!(d.tuple(TupleId(1)).value(st), &Value::str("5 Wren St"));
        assert!(satisfies_all(rules.cfds(), rules.mds(), &d, &dm));
    }

    #[test]
    fn oscillating_constants_settle_via_null() {
        // Example 4.6's oscillator terminates in hRepair: Edi, then the
        // conflicting demand upgrades the target to null.
        let s = Schema::of_strings("tran", &["AC", "post", "city"]);
        let rules = cfd_rules(
            &s,
            "cfd phi1: tran([AC=131] -> [city=Edi])\n\
             cfd phi5: tran([post=\"EH8 9AB\"] -> [city=Ldn])",
        );
        let mut d = Relation::new(
            s.clone(),
            vec![Tuple::of_strs(&["131", "EH8 9AB", "x"], 0.5)],
        );
        let report = h_repair(&mut d, None, &rules, None, &cfg());
        let city = s.attr_id_or_panic("city");
        assert!(d.tuple(TupleId(0)).value(city).is_null());
        assert!(report.len() <= 2);
        assert!(satisfies_all(rules.cfds(), &[], &d, &Relation::empty(s)));
    }

    #[test]
    fn clean_data_is_untouched() {
        let s = Schema::of_strings("tran", &["AC", "city"]);
        let rules = cfd_rules(&s, "cfd phi1: tran([AC=131] -> [city=Edi])");
        let mut d = Relation::new(s, vec![Tuple::of_strs(&["131", "Edi"], 0.5)]);
        let report = h_repair(&mut d, None, &rules, None, &cfg());
        assert!(report.is_empty());
    }

    /// Round one: the class K=k1 holds t0 (B=a, frozen), t1 (B=b, frozen,
    /// premise frozen) and t2 (B=a). The frozen tie goes to `a` and t1
    /// cannot be detached, so nothing changes — while `cc` moves t0 to
    /// K=k2. Round two: without t0 the class's only frozen value is `b`,
    /// and t2 — untouched so far — must adopt it.
    fn a_tuple_leaves_its_class() -> (Arc<Schema>, RuleSet, Relation) {
        let s = Schema::of_strings("r", &["K", "B", "C"]);
        let rules = cfd_rules(
            &s,
            "cfd fd: r([K] -> [B])\n\
             cfd cc: r([C=x] -> [K=k2])",
        );
        let (k, b) = (s.attr_id_or_panic("K"), s.attr_id_or_panic("B"));
        let mut t0 = Tuple::of_strs(&["k1", "a", "x"], 0.5);
        t0.set(b, Value::str("a"), 0.5, FixMark::Deterministic);
        let mut t1 = Tuple::of_strs(&["k1", "b", "y"], 0.5);
        t1.set(k, Value::str("k1"), 0.5, FixMark::Deterministic);
        t1.set(b, Value::str("b"), 0.5, FixMark::Deterministic);
        let t2 = Tuple::of_strs(&["k1", "a", "y"], 0.5);
        let d = Relation::new(s.clone(), vec![t0, t1, t2]);
        (s, rules, d)
    }

    #[test]
    fn a_class_a_tuple_left_is_resolved_again() {
        let (s, rules, mut d) = a_tuple_leaves_its_class();
        let (k, b) = (s.attr_id_or_panic("K"), s.attr_id_or_panic("B"));
        h_repair(&mut d, None, &rules, None, &cfg());
        assert_eq!(d.tuple(TupleId(0)).value(k), &Value::str("k2"));
        assert_eq!(d.tuple(TupleId(2)).value(b), &Value::str("b"));
        assert!(satisfies_all(rules.cfds(), &[], &d, &Relation::empty(s)));
    }

    #[test]
    fn the_handed_in_two_in_one_tracks_the_repair() {
        // `a_tuple_leaves_its_class` rewrites a class key (t0's K) in round
        // one; Example 7.2 rewrites an MD premise (t3's FN) in round one
        // and a class key (t3's phn) in round two.
        let (_, left_rules, left_d) = a_tuple_leaves_its_class();
        let (_, rules, d, dm) = example_7_2();
        let idx = MasterIndex::build(rules.mds(), &dm);
        let master = Master::external(&rules, Some(&dm), Some(&idx));
        let cases = [(&left_rules, &left_d, None), (&rules, &d, master)];
        for rounds in [1, CleanConfig::default().max_hrepair_rounds] {
            let cfg = CleanConfig {
                max_hrepair_rounds: rounds,
                ..cfg()
            };
            for (i, &(rules, d, master)) in cases.iter().enumerate() {
                let mut d = d.clone();
                let mut two = TwoInOne::build(rules, &d);
                let mut cache = MdMatchCache::new(rules);
                let fixes = h_run(
                    &mut d,
                    rules,
                    &cfg,
                    |_| MasterView::Prepared(master),
                    &mut two,
                    &mut cache,
                );
                assert!(!fixes.is_empty(), "case {i} rounds={rounds}");
                two.assert_consistent_with_rebuild(rules, &d);
            }
        }
    }
}
