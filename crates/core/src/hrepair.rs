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
//! Parallelism: each round's read-only scans over the round-start snapshot
//! — the per-tuple LHS projections that build the equivalence classes and
//! the per-(tuple, MD) witness verification — fan out over scoped workers
//! ([`crate::parallel`]'s chunk–merge–apply design) and merge in tuple-id
//! order; the upgrade loop itself stays sequential, so output is
//! bit-identical at every `parallelism` setting (pinned by
//! `tests/determinism.rs`).

use std::collections::HashMap;

use uniclean_model::{cell_cost, value_distance, AttrId, FixMark, Relation, TupleId, Value};
use uniclean_rules::RuleSet;

use crate::config::CleanConfig;
use crate::fix::{FixRecord, FixReport};
use crate::master_index::{MasterIndex, ProbeScratch};
use crate::parallel::map_chunks;
use crate::pattern_syms::{ensure_rule_constants, CfdPatternSyms};
use crate::session::{Master, MasterView};

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

/// Per-cell resolution state.
struct Cells {
    arity: usize,
    target: Vec<Target>,
    /// Deterministic fixes: immovable constants.
    frozen: Vec<bool>,
    reason: Vec<String>,
}

impl Cells {
    fn new(d: &Relation) -> Self {
        let arity = d.schema().arity();
        let n = d.len() * arity;
        let mut c = Cells {
            arity,
            target: vec![Target::Free; n],
            frozen: vec![false; n],
            reason: vec![String::new(); n],
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

    /// Upgrade a cell toward `c`. `Ok(true)` when something changed,
    /// `Ok(false)` when it already agrees (or is null), `Err(())` when the
    /// cell is frozen to a different constant.
    fn upgrade(&mut self, t: TupleId, a: AttrId, c: &Value, rule: &str) -> Result<bool, ()> {
        let cell = self.cell(t, a);
        if self.frozen[cell] {
            return match &self.target[cell] {
                Target::Const(f) if f == c => Ok(false),
                _ => Err(()),
            };
        }
        match &self.target[cell] {
            Target::Null => Ok(false),
            Target::Const(x) if x == c => Ok(false),
            Target::Const(_) => {
                // constant → different constant is forbidden; escalate.
                self.target[cell] = Target::Null;
                self.reason[cell] = rule.into();
                Ok(true)
            }
            Target::Free => {
                self.target[cell] = Target::Const(c.clone());
                self.reason[cell] = rule.into();
                Ok(true)
            }
        }
    }

    /// Force a cell to null (premise break). Fails on frozen cells.
    fn force_null(&mut self, t: TupleId, a: AttrId, rule: &str) -> Result<bool, ()> {
        let cell = self.cell(t, a);
        if self.frozen[cell] {
            return Err(());
        }
        if self.target[cell] == Target::Null {
            return Ok(false);
        }
        self.target[cell] = Target::Null;
        self.reason[cell] = rule.into();
        Ok(true)
    }
}

/// Run `hRepair` in place on `d`. Returns the possible fixes applied.
/// Afterwards `d ⊨ Σ` and `(d, Dm) ⊨ Γ` under SQL null semantics whenever
/// the conflict structure is resolvable (the pipeline re-checks; an
/// unresolvable structure requires two contradictory deterministic fixes
/// inside one violation, which the correctness assumptions of §5 exclude).
pub fn h_repair(
    d: &mut Relation,
    dm: Option<&Relation>,
    rules: &RuleSet,
    idx: Option<&MasterIndex>,
    cfg: &CleanConfig,
) -> FixReport {
    let master = Master::external(rules, dm, idx);
    h_run(d, rules, cfg, |_| MasterView::Prepared(master))
}

/// The engine behind [`h_repair`]: `view` yields the master each round
/// resolves MDs against, given that round's assignment. Under
/// self-matching it snapshots the assignment, so the "master" tracks it:
/// resolving against a phase-start snapshot lets two records swap values
/// through each other's stale copies, round after round.
pub(crate) fn h_run<'m>(
    d: &mut Relation,
    rules: &RuleSet,
    cfg: &CleanConfig,
    view: impl Fn(&Relation) -> MasterView<'m>,
) -> FixReport {
    // Stable symbols for rule constants before cloning the base: every
    // per-round snapshot shares the lineage, so one pattern compilation
    // serves all rounds.
    ensure_rule_constants(d, rules);
    let base = d.clone();
    let mut cells = Cells::new(&base);
    let pats = CfdPatternSyms::compile(rules, &base);

    let threads = cfg.effective_parallelism();
    for _round in 0..cfg.max_hrepair_rounds {
        let cur = materialize(&base, &cells);
        let mut acted = false;
        acted |= resolve_constant_cfds(&base, &cur, rules, &pats, &mut cells);
        acted |= resolve_variable_cfds(&base, &cur, rules, &pats, &mut cells, threads);
        if !rules.mds().is_empty() {
            if let Some(m) = view(&cur).master() {
                acted |= resolve_mds(&cur, m, rules, &mut cells, threads);
            }
        }
        if !acted {
            break;
        }
    }

    let final_rel = materialize(&base, &cells);
    let mut report = FixReport::new();
    for (tid, t) in base.iter() {
        for a in base.schema().attr_ids() {
            let newv = final_rel.tuple(tid).value(a);
            if newv != t.value(a) {
                let cell = cells.cell(tid, a);
                let rule = if cells.reason[cell].is_empty() {
                    "hRepair".to_string()
                } else {
                    cells.reason[cell].clone()
                };
                d.tuple_mut(tid)
                    .set(a, newv.clone(), t.cf(a), FixMark::Possible);
                report.push(FixRecord {
                    tuple: tid,
                    attr: a,
                    old: t.value(a).clone(),
                    new: newv.clone(),
                    mark: FixMark::Possible,
                    rule,
                });
            }
        }
    }
    report
}

/// The current assignment: original values overridden by cell targets.
fn materialize(base: &Relation, cells: &Cells) -> Relation {
    let mut out = base.clone();
    for (tid, t) in base.iter() {
        for a in base.schema().attr_ids() {
            match &cells.target[cells.cell(tid, a)] {
                Target::Free => {}
                Target::Const(v) => {
                    if t.value(a) != v {
                        out.tuple_mut(tid)
                            .set(a, v.clone(), t.cf(a), FixMark::Possible);
                    }
                }
                Target::Null => {
                    if !t.value(a).is_null() {
                        out.tuple_mut(tid)
                            .set(a, Value::Null, 0.0, FixMark::Possible);
                    }
                }
            }
        }
    }
    out
}

fn resolve_constant_cfds(
    base: &Relation,
    cur: &Relation,
    rules: &RuleSet,
    pats: &CfdPatternSyms,
    cells: &mut Cells,
) -> bool {
    let mut acted = false;
    for (i, cfd) in rules
        .cfds()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.is_constant())
    {
        let a = cfd.rhs()[0];
        let want = cfd.rhs_pattern()[0].as_const().expect("constant CFD");
        for (tid, t) in cur.iter() {
            if !pats.lhs_matches_attrs(i, cfd.lhs(), cur, tid) {
                continue;
            }
            let have = t.value(a);
            if have == want || have.is_null() {
                continue;
            }
            match cells.upgrade(tid, a, want, cfd.name()) {
                Ok(changed) => acted |= changed,
                Err(()) => {
                    // Frozen conflict: break the premise instead.
                    acted |= break_premise(base, cur, cells, tid, cfd.lhs(), cfd.name());
                }
            }
        }
    }
    acted
}

fn resolve_variable_cfds(
    base: &Relation,
    cur: &Relation,
    rules: &RuleSet,
    pats: &CfdPatternSyms,
    cells: &mut Cells,
    threads: usize,
) -> bool {
    let vcfds: Vec<(usize, &uniclean_rules::Cfd)> = rules
        .cfds()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.is_variable())
        .collect();
    if vcfds.is_empty() {
        return false;
    }
    // Chunk: project every (tuple, vcfd) pair against the round-start
    // snapshot `cur` on the workers (pattern checks are symbol compares;
    // the group keys stay resolved values because the winner choice below
    // sorts keys by value order). Merge in tuple-id order; the resolution
    // below then sees exactly the groups a sequential scan would have
    // built.
    let projections = map_chunks(cur.len(), threads, |range| {
        range
            .map(|i| {
                let tid = TupleId::from(i);
                let t = cur.tuple(tid);
                vcfds
                    .iter()
                    .map(|(ri, cfd)| {
                        pats.lhs_matches_attrs(*ri, cfd.lhs(), cur, tid)
                            .then(|| t.project(cfd.lhs()))
                    })
                    .collect::<Vec<Option<Vec<Value>>>>()
            })
            .collect::<Vec<_>>()
    });
    let mut per_cfd_groups: Vec<HashMap<Vec<Value>, Vec<TupleId>>> =
        vec![HashMap::new(); vcfds.len()];
    let mut tid = 0u32;
    for chunk in projections {
        for row in chunk {
            for (v, key) in row.into_iter().enumerate() {
                if let Some(key) = key {
                    per_cfd_groups[v].entry(key).or_default().push(TupleId(tid));
                }
            }
            tid += 1;
        }
    }

    let mut acted = false;
    for ((_, cfd), groups) in vcfds.into_iter().zip(per_cfd_groups) {
        let b = cfd.rhs()[0];
        let mut keyed: Vec<(Vec<Value>, Vec<TupleId>)> = groups.into_iter().collect();
        keyed.sort();
        for (_, members) in keyed {
            if members.len() < 2 {
                continue;
            }
            let mut distinct: Vec<Value> = Vec::new();
            let mut enrichable_null = false;
            for &t in &members {
                let v = cur.tuple(t).value(b);
                if v.is_null() {
                    // Null targets satisfy the FD; only a *free* original
                    // null is enrichable.
                    if cells.target[cells.cell(t, b)] == Target::Free {
                        enrichable_null = true;
                    }
                } else if !distinct.contains(v) {
                    distinct.push(v.clone());
                }
            }
            if distinct.len() < 2 && !(enrichable_null && distinct.len() == 1) {
                continue;
            }
            // Choose the value: a frozen value wins (majority over frozen
            // values when several cells are frozen); otherwise cost-pick.
            let mut frozen_counts: HashMap<&Value, usize> = HashMap::new();
            for &t in &members {
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
                cost_pick(base, &members, b, &distinct)
            };
            for &t in &members {
                let curv = cur.tuple(t).value(b);
                if curv == &winner {
                    continue;
                }
                if curv.is_null() && cells.target[cells.cell(t, b)] != Target::Free {
                    continue; // forced null: already satisfies the FD
                }
                match cells.upgrade(t, b, &winner, cfd.name()) {
                    Ok(changed) => acted |= changed,
                    Err(()) => {
                        // This member is frozen to a different value than
                        // the (also frozen) winner: detach it by nulling a
                        // cheap premise cell of *this* tuple.
                        acted |= break_premise(base, cur, cells, t, cfd.lhs(), cfd.name());
                    }
                }
            }
        }
    }
    acted
}

fn resolve_mds(
    cur: &Relation,
    m: Master<'_>,
    rules: &RuleSet,
    cells: &mut Cells,
    threads: usize,
) -> bool {
    // Chunk: verified witness lists per (tuple, MD) against the round-start
    // snapshot — candidate generation plus premise verification is the
    // dominant per-tuple cost of this resolution. Merge in tuple-id order;
    // the sequential upgrade loop below consumes them unchanged.
    let n_mds = rules.mds().len();
    let witness_rows = map_chunks(cur.len(), threads, |range| {
        // One probe scratch per worker: buffers and the symbol-keyed
        // profile cache amortize across the whole chunk.
        let mut scratch = ProbeScratch::new();
        range
            .map(|i| {
                let tid = TupleId::from(i);
                let t = cur.tuple(tid);
                let exclude = m.own_row(tid);
                (0..n_mds)
                    .map(|j| {
                        let mut out = Vec::new();
                        m.index.matches_into(
                            j,
                            &rules.mds()[j],
                            t,
                            m.dm,
                            exclude,
                            &mut scratch,
                            &mut out,
                        );
                        out
                    })
                    .collect::<Vec<Vec<TupleId>>>()
            })
            .collect::<Vec<_>>()
    });
    let witnesses: Vec<Vec<Vec<TupleId>>> = witness_rows.into_iter().flatten().collect();
    let dm = m.dm;

    let mut acted = false;
    for (i, md) in rules.mds().iter().enumerate() {
        let (e, f) = md.rhs()[0];
        let premise_attrs: Vec<AttrId> = md.premises().iter().map(|p| p.attr).collect();
        for (tid, t) in cur.iter() {
            let have = t.value(e);
            for &sid in &witnesses[tid.index()][i] {
                // A witness may only demand change of a cell that is at
                // most as confident as itself (§3.1: changing confident
                // cells is costly). Real master data carries cf = 1 and
                // always passes; under self-matching this stops dirty
                // low-confidence copies from overwriting verified values.
                if dm.tuple(sid).cf(f) < t.cf(e) {
                    continue;
                }
                let want = dm.tuple(sid).value(f);
                if have == want || have.is_null() {
                    continue;
                }
                match cells.upgrade(tid, e, want, md.name()) {
                    Ok(changed) => acted |= changed,
                    Err(()) => {
                        acted |= break_premise(cur, cur, cells, tid, &premise_attrs, md.name());
                    }
                }
                break; // one master witness per tuple per rule suffices
            }
        }
    }
    acted
}

/// Null the cheapest non-frozen premise cell of `t` so the rule stops
/// applying (null never matches a pattern or similarity premise).
fn break_premise(
    base: &Relation,
    cur: &Relation,
    cells: &mut Cells,
    t: TupleId,
    premise: &[AttrId],
    rule: &str,
) -> bool {
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
    match best {
        Some((_, a)) => cells.force_null(t, a, rule).unwrap_or(false),
        None => false, // everything frozen: unresolvable, leave as-is
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
    for cand in sorted {
        let total: f64 = members
            .iter()
            .map(|&t| {
                let cellv = base.tuple(t);
                cell_cost(
                    cellv.cf(b).max(CF_FLOOR),
                    cellv.value(b),
                    cand,
                    value_distance,
                )
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

    #[test]
    fn example_7_2_full_resolution() {
        // ϕ4 standardizes t3[FN] := Robert; ψ then matches s2 and fixes the
        // phone; ϕ3 copies street/post into t4.
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
        let mut d = Relation::new(tran.clone(), vec![t3, t4]);
        let dm = Relation::new(
            card.clone(),
            vec![Tuple::of_strs(
                &["Robert", "Brady", "Ldn", "3887644", "5 Wren St", "WC1H 9SE"],
                1.0,
            )],
        );
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
}
