//! The 2-in-1 structure of §6.3: a hash table per variable CFD plus a
//! balanced tree ordered by entropy ([`EntropyOrder`]; the paper's AVL).
//! It is the engine's one variable-CFD group table: `eRepair` reads its
//! conflict sets, and `hRepair` (§7) then takes the same structure over as
//! its equivalence classes, keeping it exact through its own rewrites.
//!
//! For each variable CFD `ϕ = R(Y → B, tp)` the hash table `HTab` maps each
//! key `ȳ ∈ π_Y(σ_{Y ≍ tp[Y]} D)` to a node carrying the entropy
//! `H(ϕ|Y=ȳ)`, the member tuples of `Δ(ȳ)` and the per-value counts
//! `cnt_{YB}(ȳ, b)`; the tree holds a node for every key with nonzero
//! entropy, ordered by entropy, so `eRepair` can pull the most certain
//! conflict sets first. Both structures are maintained incrementally under
//! cell updates: "after resolving some conflicts, the structures need to be
//! maintained accordingly … O(|Δ(ȳ)||ΣV| + |Δ(ȳ)| log |D|) time".
//!
//! Storage-native keys: the columnar [`Relation`] already interns every
//! cell, so group keys are projections of the store's own symbol columns
//! (`Vec<Symbol>` hashed with the trivial `FxHasher`) and per-value
//! counts are keyed by the cell's [`Symbol`] directly. The structure keeps
//! **no value cache of its own** — PR 2's per-cell symbol cache and private
//! interner are gone; a cell update needs no re-interning here because the
//! store interned the new value when it was written. Pattern matching on
//! the scan paths compares compiled pattern symbols
//! (`pattern_syms::CfdPatternSyms`).
//!
//! Symbols are only meaningful against the relation (lineage) the
//! structure was built over; [`TwoInOne::group_key`]/[`TwoInOne::majority`]
//! take the relation to resolve them. The engine always evolves one
//! lineage in place (clones extend the same append-only interner), which
//! is what lets a session pin a *persistent* clone to the post-`cRepair`
//! state, keep it exact through `cRepair`'s cascade by
//! [`TwoInOne::on_update`] and extend it by [`TwoInOne::insert_tuples`]
//! deltas.
//!
//! **Incremental entropy** (kept from PR 2): each group maintains
//! `Σ c·ln c` under count deltas, so the common single-count update
//! refreshes `H` in O(1). The rebuild oracle in the tests keeps the
//! incremental values honest.
//!
//! [`TwoInOne::build`] is an empty structure followed by
//! [`TwoInOne::insert_tuples`] from tuple 0, so a build and a delta insert
//! are one code path. Group ids and member order still depend on how the
//! relation arrived: an update appends the tuple to its new group, and a
//! key that comes back after its group emptied gets a new id. No contract
//! sees them. In one `eRepair` `v_cfd_resolve` pass the listed groups are
//! disjoint; a fix writes only `B ∉ Y`, so it changes only its own group
//! under `v`; and `touchable` is decided per cell. `hRepair`'s classes of
//! one CFD are disjoint in the same way (see its `resolve_class`). So the
//! cells, the marks and the set of fixes are independent of ids; only the
//! order of fix records within one variable-CFD pass can differ from a
//! fresh clean's, and `FixReport::final_states` is keyed by cell.
//! Entropies accumulated along another sequence of count deltas can differ
//! from a fresh build's in the last bits. That too only reorders a pass; it
//! could flip the test `H < δ2` only for an entropy within rounding of δ2.

use std::collections::HashMap;

use uniclean_model::{AttrId, FxHashMap, Relation, Symbol, TupleId, Value};
use uniclean_rules::{Cfd, RuleSet};

use crate::entropy::{EntropyKey, EntropyOrder};
use crate::pattern_syms::CfdPatternSyms;

/// Stable identifier of a conflict set (arena index).
pub type GroupId = u64;

/// A group key `ȳ`: the store's symbols for the projected LHS values.
pub type GroupKey = Vec<Symbol>;

/// `c · ln c` with the `0 ln 0 = 0` convention.
#[inline]
fn xlnx(c: usize) -> f64 {
    if c <= 1 {
        0.0 // 1·ln 1 = 0 exactly; avoids ln(0) for c = 0.
    } else {
        let c = c as f64;
        c * c.ln()
    }
}

/// One conflict set `Δ(ȳ)` for one variable CFD.
#[derive(Clone, Debug)]
pub struct Group {
    /// Position in the owner's variable-CFD list.
    pub vcfd: usize,
    /// The LHS key `ȳ` (store symbols).
    key: GroupKey,
    /// Member tuples.
    pub tuples: Vec<TupleId>,
    /// Counts of distinct non-null B values, keyed by store symbol.
    counts: FxHashMap<Symbol, usize>,
    /// Members whose B value is null (kept out of the entropy).
    pub nulls: usize,
    /// `Σ c·ln c` over `counts`, maintained incrementally.
    sum_c_ln_c: f64,
    /// Cached `H(ϕ|Y=ȳ)`.
    pub entropy: f64,
}

impl Group {
    /// Number of distinct non-null B values in the conflict set.
    pub fn distinct_values(&self) -> usize {
        self.counts.len()
    }

    /// Can the conflict set violate its CFD — does it hold two distinct
    /// non-null B values, or one and a null member? O(1), from the counts.
    pub(crate) fn can_violate(&self) -> bool {
        let k = self.counts.len();
        k >= 2 || (k == 1 && self.nulls > 0)
    }

    /// Apply a ±1 delta to one value count and refresh the entropy in
    /// O(1): `H = (ln n − Σc·ln c / n) / ln k`, the closed form of §6.1's
    /// `Σ (c/n)·log_k(n/c)`.
    fn bump(&mut self, b: Symbol, delta: isize) {
        let c_old = self.counts.get(&b).copied().unwrap_or(0);
        let c_new = match delta {
            1 => c_old + 1,
            -1 => c_old.saturating_sub(1),
            _ => unreachable!("bump is ±1"),
        };
        if c_new == 0 {
            self.counts.remove(&b);
        } else {
            self.counts.insert(b, c_new);
        }
        self.sum_c_ln_c += xlnx(c_new) - xlnx(c_old);
        if self.counts.is_empty() {
            // Re-anchor the accumulator so float drift cannot outlive the
            // counts that caused it.
            self.sum_c_ln_c = 0.0;
        }
        self.refresh_entropy();
    }

    fn refresh_entropy(&mut self) {
        // `n = |Δ(ȳ)|` minus the null members — always in sync with the
        // membership updates, which precede every `bump`.
        let counted = self.tuples.len() - self.nulls;
        let k = self.counts.len();
        self.entropy = if k <= 1 || counted == 0 {
            0.0
        } else {
            let n = counted as f64;
            ((n.ln() - self.sum_c_ln_c / n) / (k as f64).ln()).max(0.0)
        };
    }
}

/// The 2-in-1 structure over every variable CFD of a rule set.
///
/// The structure is `Clone` so a session can keep a *persistent* copy
/// pinned to the post-`cRepair` state and hand each `eRepair` run a cheap
/// working clone — cloning copies hash buckets and tree nodes without
/// re-hashing a single value, unlike a rebuild.
#[derive(Clone)]
pub struct TwoInOne {
    /// Indices into `rules.cfds()` that are variable CFDs.
    vcfd_rule_idx: Vec<usize>,
    /// Cached rule shape per variable CFD.
    lhs: Vec<Vec<AttrId>>,
    rhs: Vec<AttrId>,
    /// LHS patterns compiled to symbols against the build relation's
    /// lineage (indexed by *rule* id, as compiled).
    pats: CfdPatternSyms,
    /// HTab per variable CFD.
    tables: Vec<FxHashMap<GroupKey, GroupId>>,
    /// Group arena (never shrinks; an emptied group stays, empty, and its
    /// key gets a new id if it comes back).
    groups: Vec<Group>,
    /// Tree per variable CFD over (entropy, group id), nonzero entropy only.
    trees: Vec<EntropyOrder>,
    /// attr → variable CFDs reading it (LHS) / writing it (RHS), each list
    /// ascending (enables the allocation-free merge in `on_update`).
    attr_in_lhs: Vec<Vec<usize>>,
    attr_is_rhs: Vec<Vec<usize>>,
}

impl TwoInOne {
    /// Build the structure for all variable CFDs in `rules` over `d`.
    /// O(|D| log |D| |ΣV|), as in §6.3.
    pub fn build(rules: &RuleSet, d: &Relation) -> Self {
        let n_attrs = rules.schema().arity();
        let mut vcfd_rule_idx = Vec::new();
        let mut lhs = Vec::new();
        let mut rhs = Vec::new();
        for (i, c) in rules.cfds().iter().enumerate() {
            if c.is_variable() {
                vcfd_rule_idx.push(i);
                lhs.push(c.lhs().to_vec());
                rhs.push(c.rhs()[0]);
            }
        }
        let nv = vcfd_rule_idx.len();
        let mut attr_in_lhs = vec![Vec::new(); n_attrs];
        let mut attr_is_rhs = vec![Vec::new(); n_attrs];
        for (v, attrs) in lhs.iter().enumerate() {
            for a in attrs {
                attr_in_lhs[a.index()].push(v);
            }
            attr_is_rhs[rhs[v].index()].push(v);
        }

        let mut me = TwoInOne {
            vcfd_rule_idx,
            lhs,
            rhs,
            pats: CfdPatternSyms::compile(rules, d),
            tables: (0..nv).map(|_| HashMap::default()).collect(),
            groups: Vec::new(),
            trees: vec![EntropyOrder::default(); nv],
            attr_in_lhs,
            attr_is_rhs,
        };
        me.insert_tuples(d, 0);
        me
    }

    /// [`Self::build`]; both arguments after `d` are ignored. Kept only
    /// because the benchmark harness (`benchmark/src/batch.rs`) still calls
    /// it, and removed together with that call.
    pub fn build_with(rules: &RuleSet, d: &Relation, _: bool, _: usize) -> Self {
        Self::build(rules, d)
    }

    /// Append tuples `from..d.len()` to the structure with insert-time
    /// group and entropy deltas — no rebuild, no re-hashing of existing
    /// members. The result holds the groups of a from-scratch
    /// [`Self::build`] over the whole of `d`; over a structure that saw no
    /// [`Self::on_update`] it is bit-identical to one, group ids included,
    /// because a build is exactly this insertion replay in tuple-id order.
    /// This is the `clean_delta` hot path. `d` must be the build relation's
    /// lineage (the store interned the new rows on push).
    pub fn insert_tuples(&mut self, d: &Relation, from: usize) {
        let nv = self.vcfd_rule_idx.len();
        for i in from..d.len() {
            let t = TupleId::from(i);
            for v in 0..nv {
                self.insert_member(d, v, t);
            }
        }
    }

    /// The variable CFD of slot `v` within `rules`.
    pub fn rule<'r>(&self, rules: &'r RuleSet, v: usize) -> &'r Cfd {
        &rules.cfds()[self.vcfd_rule_idx[v]]
    }

    /// The slot of `rules.cfds()[i]`, or `None` when that CFD is not
    /// variable.
    pub(crate) fn slot(&self, i: usize) -> Option<usize> {
        self.vcfd_rule_idx.binary_search(&i).ok()
    }

    /// Number of variable CFDs tracked.
    pub fn len(&self) -> usize {
        self.vcfd_rule_idx.len()
    }

    /// Is the structure empty (no variable CFDs)?
    pub fn is_empty(&self) -> bool {
        self.vcfd_rule_idx.is_empty()
    }

    /// A group by id.
    pub fn group(&self, g: GroupId) -> &Group {
        &self.groups[g as usize]
    }

    /// Every live group of variable CFD `v`, in no particular order.
    pub(crate) fn groups(&self, v: usize) -> impl Iterator<Item = GroupId> + '_ {
        self.tables[v].values().copied()
    }

    /// The group `t` belongs to under variable CFD `v` in `d` (the build
    /// lineage), or `None` when `t` does not match the LHS pattern. A group
    /// id is never reused: a group that lost its last member stays empty.
    pub(crate) fn group_of(&self, v: usize, d: &Relation, t: TupleId) -> Option<GroupId> {
        let (key, _) = self.project_for_insert(d, v, t)?;
        self.tables[v].get(&key).copied()
    }

    /// The group's LHS key `ȳ`, resolved to values through `d`'s interner
    /// (`d` must be the build lineage).
    pub fn group_key(&self, d: &Relation, g: GroupId) -> Vec<Value> {
        self.groups[g as usize]
            .key
            .iter()
            .map(|&s| d.interner().resolve(s).clone())
            .collect()
    }

    /// The majority B value of a group and its count (ties: the
    /// lexicographically smallest value, keeping resolution deterministic).
    pub fn majority(&self, d: &Relation, g: GroupId) -> Option<(Value, usize)> {
        let grp = &self.groups[g as usize];
        grp.counts
            .iter()
            .map(|(&b, &c)| (d.interner().resolve(b), c))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(a.0)))
            .map(|(v, c)| (v.clone(), c))
    }

    /// Conflict sets of variable CFD `v` with `0 < H < bound`, in ascending
    /// entropy order (O(log |T|) per retrieval step via the tree).
    pub fn groups_below(&self, v: usize, bound: f64) -> Vec<GroupId> {
        self.trees[v].below(bound).map(|k| k.id).collect()
    }

    /// The minimum-entropy conflict set of variable CFD `v`, if any.
    pub fn min_entropy_group(&self, v: usize) -> Option<GroupId> {
        self.trees[v].min().map(|k| k.id)
    }

    /// Update hook: tuple `t`'s attribute `a` changed from `old` to its
    /// current value in `d` (the store has already interned the new
    /// value — this hook re-interns nothing). Rekeys `t` in every variable
    /// CFD reading `a` and adjusts counts in every variable CFD writing
    /// `a`. The affected slots come from a sorted merge of the two
    /// precomputed per-attribute lists — no per-update allocation.
    pub fn on_update(&mut self, rules: &RuleSet, d: &Relation, t: TupleId, a: AttrId, old: &Value) {
        // The old value was stored in the relation before the write, so
        // its symbol exists; `None` can only mean a foreign relation.
        let old_sym = d.interner().get(old);
        let (mut i, mut j) = (0usize, 0usize);
        loop {
            let li = self.attr_in_lhs[a.index()].get(i).copied();
            let rj = self.attr_is_rhs[a.index()].get(j).copied();
            let v = match (li, rj) {
                (Some(x), Some(y)) => {
                    if x < y {
                        i += 1;
                        x
                    } else if y < x {
                        j += 1;
                        y
                    } else {
                        i += 1;
                        j += 1;
                        x
                    }
                }
                (Some(x), None) => {
                    i += 1;
                    x
                }
                (None, Some(y)) => {
                    j += 1;
                    y
                }
                (None, None) => break,
            };
            self.remove_member_with(rules, d, v, t, a, old, old_sym);
            self.insert_member(d, v, t);
        }
    }

    /// Project `t` for insertion into variable CFD `v`: `None` when the
    /// LHS pattern does not match, otherwise the group key and the B
    /// symbol (`None` = null, kept out of the counts). Reads only the
    /// symbol columns and hashes nothing.
    fn project_for_insert(
        &self,
        d: &Relation,
        v: usize,
        t: TupleId,
    ) -> Option<(GroupKey, Option<Symbol>)> {
        let rule_idx = self.vcfd_rule_idx[v];
        if !self.pats.lhs_matches_attrs(rule_idx, &self.lhs[v], d, t) {
            return None;
        }
        let key: GroupKey = self.lhs[v].iter().map(|a| d.sym(t, *a)).collect();
        let b_sym = d.sym(t, self.rhs[v]);
        let b = (b_sym != d.null_sym()).then_some(b_sym);
        Some((key, b))
    }

    /// Insert `t` into variable CFD `v`'s structure if its (current) LHS
    /// matches the pattern.
    fn insert_member(&mut self, d: &Relation, v: usize, t: TupleId) {
        let Some((key, b)) = self.project_for_insert(d, v, t) else {
            return;
        };
        let gid = match self.tables[v].get(&key) {
            Some(&g) => g,
            None => {
                let g = self.groups.len() as GroupId;
                self.groups.push(Group {
                    vcfd: v,
                    key: key.clone(),
                    tuples: Vec::new(),
                    counts: FxHashMap::default(),
                    nulls: 0,
                    sum_c_ln_c: 0.0,
                    entropy: 0.0,
                });
                self.tables[v].insert(key, g);
                g
            }
        };
        self.detach_from_tree(v, gid);
        let grp = &mut self.groups[gid as usize];
        grp.tuples.push(t);
        match b {
            None => grp.nulls += 1,
            Some(b) => grp.bump(b, 1),
        }
        self.attach_to_tree(v, gid);
    }

    /// Remove `t` from the group it occupied *before* `a` changed away from
    /// `old` (whose symbol, if interned, is `old_sym`; the store already
    /// holds the new value's symbol).
    #[allow(clippy::too_many_arguments)]
    fn remove_member_with(
        &mut self,
        rules: &RuleSet,
        d: &Relation,
        v: usize,
        t: TupleId,
        a: AttrId,
        old: &Value,
        old_sym: Option<Symbol>,
    ) {
        let cfd = &rules.cfds()[self.vcfd_rule_idx[v]];
        let tup = d.tuple(t);
        // Old projection/pattern check: substitute `old` at `a`. Borrowing
        // (not cloning) — the pattern check only reads. This is the cold
        // per-update path; the hot scans use the compiled symbols.
        let value_at = |attr: AttrId| -> &Value {
            if attr == a {
                old
            } else {
                tup.value(attr)
            }
        };
        let matched_old = cfd
            .lhs()
            .iter()
            .zip(cfd.lhs_pattern())
            .all(|(attr, p)| p.matches(value_at(*attr)));
        if !matched_old {
            return;
        }
        // Key assembly from the symbol columns, substituting the old
        // symbol at `a`. A value the interner has never seen cannot be
        // part of any inserted key, so the group cannot exist.
        let mut key: GroupKey = Vec::with_capacity(self.lhs[v].len());
        for attr in &self.lhs[v] {
            if *attr == a {
                match old_sym {
                    Some(s) => key.push(s),
                    None => return,
                }
            } else {
                key.push(d.sym(t, *attr));
            }
        }
        let Some(&gid) = self.tables[v].get(&key) else {
            return;
        };
        self.detach_from_tree(v, gid);
        let b_attr = self.rhs[v];
        let old_bval = value_at(b_attr);
        let old_b = if old_bval.is_null() {
            None
        } else if b_attr == a {
            old_sym
        } else {
            Some(d.sym(t, b_attr))
        };
        let grp = &mut self.groups[gid as usize];
        if let Some(pos) = grp.tuples.iter().position(|x| *x == t) {
            grp.tuples.swap_remove(pos);
            match old_b {
                None if old_bval.is_null() => grp.nulls = grp.nulls.saturating_sub(1),
                Some(b) if grp.counts.contains_key(&b) => grp.bump(b, -1),
                _ => {}
            }
        }
        if grp.tuples.is_empty() {
            self.tables[v].remove(&key);
        } else {
            self.attach_to_tree(v, gid);
        }
    }

    fn detach_from_tree(&mut self, v: usize, gid: GroupId) {
        let e = self.groups[gid as usize].entropy;
        if e > 0.0 {
            self.trees[v].remove(&EntropyKey {
                entropy: e,
                id: gid,
            });
        }
    }

    fn attach_to_tree(&mut self, v: usize, gid: GroupId) {
        let e = self.groups[gid as usize].entropy;
        if e > 0.0 {
            self.trees[v].insert(EntropyKey {
                entropy: e,
                id: gid,
            });
        }
    }

    /// Exhaustive consistency check against a fresh rebuild (test helper).
    /// Keys and counts are compared in resolved-value form, and each
    /// group's incremental entropy is checked against the from-scratch
    /// formula.
    #[cfg(test)]
    pub(crate) fn assert_consistent_with_rebuild(&self, rules: &RuleSet, d: &Relation) {
        use crate::entropy::entropy_of_counts;
        type GroupSummary = HashMap<Vec<Value>, (usize, Vec<(Value, usize)>)>;
        let summarize = |me: &TwoInOne, v: usize| -> GroupSummary {
            me.tables[v]
                .values()
                .map(|&g| {
                    let grp = &me.groups[g as usize];
                    let mut counts: Vec<(Value, usize)> = grp
                        .counts
                        .iter()
                        .map(|(&b, &c)| (d.interner().resolve(b).clone(), c))
                        .collect();
                    counts.sort();
                    (me.group_key(d, g), (grp.tuples.len(), counts))
                })
                .collect()
        };
        let fresh = TwoInOne::build(rules, d);
        for v in 0..self.len() {
            assert_eq!(
                summarize(self, v),
                summarize(&fresh, v),
                "vcfd {v} diverged from rebuild"
            );
            for &g in self.tables[v].values() {
                let grp = &self.groups[g as usize];
                let oracle = entropy_of_counts(grp.counts.values().copied());
                assert!(
                    (grp.entropy - oracle).abs() < 1e-9,
                    "vcfd {v} group {g}: incremental entropy {} vs oracle {oracle}",
                    grp.entropy
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use uniclean_model::{FixMark, Schema, Tuple};
    use uniclean_rules::parse_rules;

    /// Fig. 8's relation and the FD ABC → E of Example 6.2.
    fn fig8() -> (Arc<Schema>, RuleSet, Relation) {
        let s = Schema::of_strings("r", &["A", "B", "C", "E", "F", "H"]);
        let parsed = parse_rules("cfd phi: r([A, B, C] -> [E])", &s, None).unwrap();
        let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
        let rows = [
            ["a1", "b1", "c1", "e1", "f1", "h1"],
            ["a1", "b1", "c1", "e1", "f2", "h2"],
            ["a1", "b1", "c1", "e1", "f3", "h3"],
            ["a1", "b1", "c1", "e2", "f1", "h3"],
            ["a2", "b2", "c2", "e1", "f2", "h4"],
            ["a2", "b2", "c2", "e2", "f1", "h4"],
            ["a2", "b2", "c3", "e3", "f3", "h5"],
            ["a2", "b2", "c4", "e3", "f3", "h6"],
        ];
        let d = Relation::new(
            s.clone(),
            rows.iter().map(|r| Tuple::of_strs(r, 0.5)).collect(),
        );
        (s, rules, d)
    }

    #[test]
    fn example_6_2_entropies() {
        let (_, rules, d) = fig8();
        let t = TwoInOne::build(&rules, &d);
        assert_eq!(t.len(), 1);
        // Groups: (a1,b1,c1) H≈0.81, (a2,b2,c2) H=1, (a2,b2,c3) and
        // (a2,b2,c4) H=0.
        let nonzero = t.groups_below(0, f64::INFINITY);
        assert_eq!(nonzero.len(), 2);
        let min = t.min_entropy_group(0).unwrap();
        let g = t.group(min);
        assert!((g.entropy - 0.8112781244591328).abs() < 1e-9);
        assert_eq!(g.tuples.len(), 4);
        let (maj, cnt) = t.majority(&d, min).unwrap();
        assert_eq!(maj, Value::str("e1"));
        assert_eq!(cnt, 3);
    }

    #[test]
    fn groups_below_threshold_excludes_uniform_conflicts() {
        let (_, rules, d) = fig8();
        let t = TwoInOne::build(&rules, &d);
        // δ2 = 0.9: only the 0.81 group qualifies; the H=1 group does not.
        let below = t.groups_below(0, 0.9);
        assert_eq!(below.len(), 1);
        assert!((t.group(below[0]).entropy - 0.8112781244591328).abs() < 1e-9);
    }

    #[test]
    fn resolving_a_conflict_empties_the_tree_entry() {
        let (s, rules, mut d) = fig8();
        let mut t = TwoInOne::build(&rules, &d);
        let e = s.attr_id_or_panic("E");
        // Resolve the (a1,b1,c1) conflict: t4's E := e1.
        let old = d.tuple(TupleId(3)).value(e).clone();
        d.tuple_mut(TupleId(3))
            .set(e, Value::str("e1"), 0.5, FixMark::Reliable);
        t.on_update(&rules, &d, TupleId(3), e, &old);
        let below = t.groups_below(0, f64::INFINITY);
        assert_eq!(below.len(), 1, "only the H=1 group remains");
        t.assert_consistent_with_rebuild(&rules, &d);
    }

    #[test]
    fn lhs_update_rekeys_the_tuple() {
        let (s, rules, mut d) = fig8();
        let mut t = TwoInOne::build(&rules, &d);
        let c = s.attr_id_or_panic("C");
        // Move t7 (a2,b2,c3) into the (a2,b2,c4) group: E values e3/e3 →
        // entropy stays 0 but membership moves.
        let old = d.tuple(TupleId(6)).value(c).clone();
        d.tuple_mut(TupleId(6))
            .set(c, Value::str("c4"), 0.5, FixMark::Reliable);
        t.on_update(&rules, &d, TupleId(6), c, &old);
        t.assert_consistent_with_rebuild(&rules, &d);
    }

    #[test]
    fn null_b_values_stay_out_of_entropy() {
        let s = Schema::of_strings("r", &["K", "B"]);
        let parsed = parse_rules("cfd fd: r([K] -> [B])", &s, None).unwrap();
        let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
        let b = s.attr_id_or_panic("B");
        let mut t1 = Tuple::of_strs(&["k", "x"], 0.5);
        t1.set(b, Value::Null, 0.0, FixMark::Untouched);
        let d = Relation::new(s, vec![t1, Tuple::of_strs(&["k", "y"], 0.5)]);
        let t = TwoInOne::build(&rules, &d);
        let gid = t.tables[0].values().next().copied().unwrap();
        let g = t.group(gid);
        assert_eq!(g.nulls, 1);
        assert_eq!(g.distinct_values(), 1);
        assert_eq!(g.entropy, 0.0);
    }

    #[test]
    fn pattern_constants_filter_membership() {
        let s = Schema::of_strings("r", &["K", "B"]);
        let parsed = parse_rules("cfd fd: r([K=k1] -> [B])", &s, None).unwrap();
        let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
        let d = Relation::new(
            s,
            vec![
                Tuple::of_strs(&["k1", "x"], 0.5),
                Tuple::of_strs(&["k2", "y"], 0.5),
            ],
        );
        let t = TwoInOne::build(&rules, &d);
        assert_eq!(t.tables[0].len(), 1);
        let gid = t.tables[0].values().next().copied().unwrap();
        assert_eq!(t.group(gid).tuples, vec![TupleId(0)]);
    }

    #[test]
    fn random_update_storm_stays_consistent() {
        // Pseudo-random single-cell updates must keep the incremental
        // structure identical to a rebuild.
        let (s, rules, mut d) = fig8();
        let mut t = TwoInOne::build(&rules, &d);
        let attrs: Vec<AttrId> = ["A", "B", "C", "E"]
            .iter()
            .map(|a| s.attr_id_or_panic(a))
            .collect();
        let vals = ["a1", "b1", "c1", "e1", "e2", "zz"];
        let mut seed = 0x9e3779b97f4a7c15u64;
        for _ in 0..200 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let tid = TupleId((seed % 8) as u32);
            let a = attrs[(seed >> 8) as usize % attrs.len()];
            let nv = Value::str(vals[(seed >> 16) as usize % vals.len()]);
            let old = d.tuple(tid).value(a).clone();
            d.tuple_mut(tid).set(a, nv, 0.5, FixMark::Reliable);
            t.on_update(&rules, &d, tid, a, &old);
        }
        t.assert_consistent_with_rebuild(&rules, &d);
    }

    #[test]
    fn insert_tuples_matches_a_fresh_build_bit_for_bit() {
        // Build over a prefix, insert the rest incrementally: group ids,
        // membership, counts and entropies must equal a from-scratch build.
        // The prefix relation is extended in place (same store lineage),
        // exactly as `clean_delta` extends `post_c`.
        let (s, rules, d) = fig8();
        for split in [0usize, 3, 5, 8] {
            let all = d.to_tuples();
            let mut grown = Relation::new(s.clone(), all[..split].to_vec());
            let mut inc = TwoInOne::build(&rules, &grown);
            for t in &all[split..] {
                grown.push(t.clone());
            }
            inc.insert_tuples(&grown, split);
            let fresh = TwoInOne::build(&rules, &grown);
            assert_eq!(inc.len(), fresh.len());
            for v in 0..inc.len() {
                let dump = |t: &TwoInOne| -> Vec<(Vec<Value>, GroupId, Vec<TupleId>, f64)> {
                    let mut out: Vec<_> = t.tables[v]
                        .values()
                        .map(|&g| {
                            (
                                t.group_key(&grown, g),
                                g,
                                t.group(g).tuples.clone(),
                                t.group(g).entropy,
                            )
                        })
                        .collect();
                    out.sort_by(|a, b| a.0.cmp(&b.0));
                    out
                };
                assert_eq!(dump(&inc), dump(&fresh), "split={split} vcfd={v}");
            }
            inc.assert_consistent_with_rebuild(&rules, &grown);
        }
    }

    #[test]
    fn cloned_structure_evolves_like_the_original() {
        let (s, rules, mut d) = fig8();
        let base = TwoInOne::build(&rules, &d);
        let mut a = base.clone();
        let mut b = TwoInOne::build(&rules, &d);
        let e = s.attr_id_or_panic("E");
        let old = d.tuple(TupleId(3)).value(e).clone();
        d.tuple_mut(TupleId(3))
            .set(e, Value::str("e1"), 0.5, FixMark::Reliable);
        a.on_update(&rules, &d, TupleId(3), e, &old);
        b.on_update(&rules, &d, TupleId(3), e, &old);
        assert_eq!(
            a.groups_below(0, f64::INFINITY),
            b.groups_below(0, f64::INFINITY)
        );
        a.assert_consistent_with_rebuild(&rules, &d);
    }
}
