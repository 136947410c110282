//! The 2-in-1 structure of §6.3: a hash table per variable CFD plus a
//! balanced tree ordered by entropy ([`EntropyOrder`]; the paper's AVL).
//! It is the engine's one variable-CFD group table: `eRepair` reads its
//! conflict sets, `hRepair` (§7) then takes the same structure over as
//! its equivalence classes, keeping it exact through its own rewrites, and
//! the acceptance check (`crate::acceptance`) reads the structure the last
//! phase finished with: a group violates when it holds two distinct
//! non-null B values, and the structure keeps a count of such groups per
//! CFD.
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
//! take the relation to resolve them. The engine evolves one lineage in
//! place, which is what lets a session keep *one* structure per relation:
//! pinned to the post-`cRepair` state, kept exact through `cRepair`'s
//! cascade by [`TwoInOne::on_update`] and extended by
//! [`TwoInOne::insert_tuples`] deltas, then evolved by `eRepair` and
//! `hRepair` under an undo journal.
//!
//! **Undo journal** ([`TwoInOne::begin_journal`]): while one is open,
//! every primitive effect is logged — a member pushed or `swap_remove`d at
//! a position, a count bumped (with the old count), a null count changed
//! (with the old value), a group created, a table key removed, a tree key
//! inserted or removed. [`TwoInOne::rollback`] replays the log backwards,
//! refreshes the entropy of each group whose counts it restored, once, and
//! restores the violating count saved at the start. The journal logs no
//! value it could recompute: an entropy is a function of the counts, and a
//! logged tree key is the tree entry's identity. Group ids, member order,
//! entropy bits, trees and the violating count are then exactly those at
//! the start; a table holds the same keys, in whatever bucket order.
//! Rolling back costs less than the writes it undoes, where a copy per
//! call would cost the whole structure.
//!
//! **Membership** is O(1): a slot per (variable CFD, tuple) holds the
//! tuple's group and its position in the group's member list, so
//! [`TwoInOne::on_update`] removes a tuple without re-projecting its old
//! key or scanning the members, and `group_of` is one read.
//!
//! **Entropy** is a function of a group's counts alone
//! ([`entropy_of_counts`]), cached in the group and recomputed whenever
//! the counts may have changed: at the end of an
//! [`TwoInOne::insert_tuples`] batch, and at each member insert and
//! removal of a cell update. The per-value counts are a symbol-sorted
//! vector, so a count bump is a binary search, and a refresh sorts the `k`
//! counts into a scratch buffer the structure owns, allocating nothing. A
//! cell update ([`TwoInOne::on_update`]) moves a group out of its tree,
//! bumps, refreshes and moves it back. A batch of inserted tuples takes
//! each group it touches out of its tree once, at the first touch, bumps
//! the counts of every member it adds without refreshing, and refreshes
//! and re-attaches each touched group once, at the end. Whatever sequence
//! of inserts, updates and rollbacks brought a group to its counts, its
//! entropy has the bits of a fresh build's; the rebuild oracle in the
//! tests checks them to the bit.
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

use std::collections::HashMap;

use uniclean_model::{AttrId, FxHashMap, Relation, Symbol, TupleId, Value};
use uniclean_rules::{Cfd, RuleSet};

use crate::entropy::{entropy_of_counts, EntropyKey, EntropyOrder};
use crate::pattern_syms::CfdPatternSyms;

/// Stable identifier of a conflict set (arena index).
pub type GroupId = u64;

/// A group key `ȳ`: the store's symbols for the projected LHS values.
pub type GroupKey = Vec<Symbol>;

/// One conflict set `Δ(ȳ)` for one variable CFD.
#[derive(Clone, Debug)]
pub struct Group {
    /// Position in the owner's variable-CFD list.
    pub vcfd: usize,
    /// The LHS key `ȳ` (store symbols).
    key: GroupKey,
    /// Member tuples.
    pub tuples: Vec<TupleId>,
    /// Counts of distinct non-null B values, sorted by store symbol.
    counts: Vec<(Symbol, usize)>,
    /// Members whose B value is null (kept out of the entropy).
    pub nulls: usize,
    /// Cached `H(ϕ|Y=ȳ)`, [`entropy_of_counts`] of `counts`.
    pub entropy: f64,
    /// `entropy` is stale until the [`TwoInOne::insert_tuples`] batch or
    /// the [`TwoInOne::rollback`] that touched it ends; a batch also holds
    /// the group out of its tree and the violating count until then.
    stale: bool,
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

    /// Does the conflict set violate its CFD under SQL null semantics
    /// (§3.2's acceptance test) — two distinct non-null B values? A null
    /// member compares equal to anything, so unlike [`Self::can_violate`]
    /// it does not count.
    pub(crate) fn violates(&self) -> bool {
        self.counts.len() >= 2
    }

    /// Does the group count B value `b`?
    fn counts_value(&self, b: Symbol) -> bool {
        self.counts.binary_search_by_key(&b, |&(s, _)| s).is_ok()
    }

    /// How many members hold B value `b`.
    fn count_of(&self, b: Symbol) -> usize {
        self.counts
            .binary_search_by_key(&b, |&(s, _)| s)
            .map_or(0, |i| self.counts[i].1)
    }

    /// Set the count of `b` to `c` (removing it at 0), keeping the counts
    /// sorted by symbol. The caller refreshes the entropy
    /// ([`Self::refresh_entropy`]) once its batch of counts is set.
    fn set_count(&mut self, b: Symbol, c: usize) {
        match self.counts.binary_search_by_key(&b, |&(s, _)| s) {
            Ok(i) if c == 0 => {
                self.counts.remove(i);
            }
            Ok(i) => self.counts[i].1 = c,
            Err(i) if c > 0 => self.counts.insert(i, (b, c)),
            Err(_) => {}
        }
    }

    /// Recompute the cached entropy from the counts, sorting them in
    /// `scratch`.
    fn refresh_entropy(&mut self, scratch: &mut Vec<usize>) {
        self.entropy = entropy_of_counts(self.counts.iter().map(|&(_, c)| c), scratch);
    }
}

/// Where a tuple sits under one variable CFD: its group and its position
/// in the group's member list ([`Slot::NONE`]: in no group).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Slot {
    group: u32,
    pos: u32,
}

impl Slot {
    const NONE: Slot = Slot {
        group: u32::MAX,
        pos: 0,
    };
}

/// One primitive effect on the structure, logged while a journal is open
/// so [`TwoInOne::rollback`] can undo it.
#[derive(Clone, Debug)]
enum Op {
    /// Group `g` was pushed on the arena and its key into its table.
    Created(u32),
    /// Group `g`'s key left its table (the group emptied).
    Unkeyed(u32),
    /// A member was pushed onto group `g`.
    Pushed(u32),
    /// Member `t` was `swap_remove`d from position `pos` of group `g`.
    Removed { g: u32, pos: u32, t: TupleId },
    /// Group `g` had `nulls` null members.
    Nulls { g: u32, nulls: usize },
    /// Group `g` counted `count` members with B value `b`.
    Bumped { g: u32, b: Symbol, count: usize },
    /// `key` entered (`inserted`) or left its group's tree.
    Tree { key: EntropyKey, inserted: bool },
}

/// The undo journal: the logged effects, plus what the start of the
/// journal held of the scalar state.
#[derive(Clone, Default)]
struct Journal {
    on: bool,
    /// Empty whenever `on` is unset; keeps its capacity across journals.
    ops: Vec<Op>,
    violating: usize,
    groups: usize,
    slots: usize,
}

/// The 2-in-1 structure over every variable CFD of a rule set.
///
/// A session keeps one per relation and evolves it in place under an undo
/// journal ([`Self::begin_journal`], [`Self::rollback`]). It stays `Clone`:
/// cloning copies hash buckets and tree nodes without re-hashing a single
/// value, unlike a rebuild, and copies an open journal too, so a rolled
/// back clone is what the original would roll back to.
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
    /// How many groups, over every variable CFD, violate their CFD
    /// ([`Group::violates`]).
    violating: usize,
    /// `slots[t · len + v]`: where tuple `t` sits under variable CFD `v`,
    /// for every tuple inserted so far.
    slots: Vec<Slot>,
    /// The open undo journal, if any.
    journal: Journal,
    /// Where [`Group::refresh_entropy`] sorts a group's counts.
    scratch: Vec<usize>,
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
            violating: 0,
            slots: Vec::new(),
            journal: Journal::default(),
            scratch: Vec::new(),
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
    ///
    /// The tuples go in as one batch (tuples outer, variable CFDs inner).
    /// A group leaves its tree at its first touch, its counts are bumped
    /// without refreshing the entropy, and every touched group is
    /// refreshed and re-attached once, at the end. Keys are probed through
    /// one reused buffer; only a new group allocates one.
    pub fn insert_tuples(&mut self, d: &Relation, from: usize) {
        let nv = self.vcfd_rule_idx.len();
        self.slots.resize(d.len() * nv, Slot::NONE);
        let mut key = GroupKey::new();
        let mut touched = Vec::new();
        for i in from..d.len() {
            let t = TupleId::from(i);
            for v in 0..nv {
                if !self.lhs_matches(d, v, t) {
                    continue;
                }
                self.project_key(d, v, t, &mut key);
                let gid = self.group_for(v, &key);
                if !self.groups[gid as usize].stale {
                    self.detach(v, gid);
                    self.groups[gid as usize].stale = true;
                    touched.push(gid);
                }
                self.add_member(d, v, t, gid);
            }
        }
        for gid in touched {
            let grp = &mut self.groups[gid as usize];
            grp.stale = false;
            grp.refresh_entropy(&mut self.scratch);
            let v = grp.vcfd;
            self.attach(v, gid);
        }
    }

    /// Open an undo journal, empty: from here on every effect on the
    /// structure is logged until [`Self::rollback`].
    pub fn begin_journal(&mut self) {
        let j = &mut self.journal;
        j.ops.clear();
        j.on = true;
        j.violating = self.violating;
        j.groups = self.groups.len();
        j.slots = self.slots.len();
    }

    /// Undo every effect since [`Self::begin_journal`], newest first, and
    /// close the journal. Each group whose counts were restored then has
    /// its entropy recomputed once, so the structure equals the one the
    /// journal started from: group ids, member order, counts, entropy
    /// bits, trees, violating count, table keys and slots. A no-op without
    /// an open journal.
    pub fn rollback(&mut self) {
        if !self.journal.on {
            return;
        }
        self.journal.on = false;
        let nv = self.len();
        let mut ops = std::mem::take(&mut self.journal.ops);
        let mut stale = Vec::new();
        for op in ops.drain(..).rev() {
            match op {
                Op::Created(g) => {
                    debug_assert_eq!(g as usize + 1, self.groups.len(), "groups pop in order");
                    let grp = self.groups.pop().expect("a created group");
                    self.tables[grp.vcfd].remove(&grp.key);
                }
                Op::Unkeyed(g) => {
                    let grp = &self.groups[g as usize];
                    self.tables[grp.vcfd].insert(grp.key.clone(), g as GroupId);
                }
                Op::Pushed(g) => {
                    let grp = &mut self.groups[g as usize];
                    let t = grp.tuples.pop().expect("a pushed member");
                    self.slots[t.index() * nv + grp.vcfd] = Slot::NONE;
                }
                Op::Removed { g, pos, t } => {
                    let grp = &mut self.groups[g as usize];
                    grp.tuples.push(t);
                    let last = grp.tuples.len() - 1;
                    grp.tuples.swap(pos as usize, last);
                    let moved = grp.tuples[last];
                    let v = grp.vcfd;
                    self.slots[moved.index() * nv + v] = Slot {
                        group: g,
                        pos: last as u32,
                    };
                    self.slots[t.index() * nv + v] = Slot { group: g, pos };
                }
                Op::Nulls { g, nulls } => self.groups[g as usize].nulls = nulls,
                Op::Bumped { g, b, count } => {
                    let grp = &mut self.groups[g as usize];
                    grp.set_count(b, count);
                    if !grp.stale {
                        grp.stale = true;
                        stale.push(g);
                    }
                }
                Op::Tree { key, inserted } => {
                    let tree = &mut self.trees[self.groups[key.id as usize].vcfd];
                    if inserted {
                        tree.remove(&key);
                    } else {
                        tree.insert(key);
                    }
                }
            }
        }
        self.journal.ops = ops;
        for g in stale {
            // A group created under the journal is gone with it.
            if let Some(grp) = self.groups.get_mut(g as usize) {
                grp.stale = false;
                grp.refresh_entropy(&mut self.scratch);
            }
        }
        self.violating = self.journal.violating;
        debug_assert_eq!(self.groups.len(), self.journal.groups);
        self.slots.truncate(self.journal.slots);
    }

    /// Log `op` when a journal is open.
    #[inline]
    fn log(&mut self, op: impl FnOnce() -> Op) {
        if self.journal.on {
            self.journal.ops.push(op());
        }
    }

    /// Groups allocated in the arena, live or emptied. A rollback returns
    /// the arena to its length at [`Self::begin_journal`].
    pub fn arena_len(&self) -> usize {
        self.groups.len()
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

    /// The group `t` belongs to under variable CFD `v`, or `None` when
    /// `t`'s LHS does not match the pattern — one read of its slot. A
    /// group that lost its last member stays empty, and its key gets a new
    /// id if it comes back.
    pub(crate) fn group_of(&self, v: usize, t: TupleId) -> Option<GroupId> {
        let slot = self.slots[t.index() * self.len() + v];
        (slot != Slot::NONE).then_some(slot.group as GroupId)
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
            .map(|&(b, c)| (d.interner().resolve(b), c))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(a.0)))
            .map(|(v, c)| (v.clone(), c))
    }

    /// Conflict sets of variable CFD `v` with `0 < H < bound`, in ascending
    /// entropy order (O(log |T|) per retrieval step via the tree).
    pub fn groups_below(&self, v: usize, bound: f64) -> Vec<GroupId> {
        self.trees[v].below(bound).map(|k| k.id).collect()
    }

    /// Does some conflict set violate its CFD ([`Group::violates`])? O(1).
    pub(crate) fn any_violation(&self) -> bool {
        self.violating > 0
    }

    /// The minimum-entropy conflict set of variable CFD `v`, if any.
    pub fn min_entropy_group(&self, v: usize) -> Option<GroupId> {
        self.trees[v].min().map(|k| k.id)
    }

    /// Update hook: tuple `t`'s attribute `a` changed from `old` to its
    /// current value in `d` (the store has already interned the new
    /// value — this hook re-interns nothing). Refiles `t` in every variable
    /// CFD reading `a` and adjusts counts in every variable CFD writing
    /// `a`. The affected slots come from a sorted merge of the two
    /// precomputed per-attribute lists, and `t`'s old group and position
    /// from its slot — no per-update allocation, no member scan.
    pub fn on_update(&mut self, d: &Relation, t: TupleId, a: AttrId, old: &Value) {
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
            let b = if self.rhs[v] == a {
                old_sym
            } else {
                Some(d.sym(t, self.rhs[v]))
            };
            self.remove_member(v, t, b, d.null_sym());
            self.insert_member(d, v, t);
        }
    }

    /// Does `t`'s (current) LHS match variable CFD `v`'s pattern? Reads
    /// only the symbol columns.
    fn lhs_matches(&self, d: &Relation, v: usize, t: TupleId) -> bool {
        self.pats
            .lhs_matches_attrs(self.vcfd_rule_idx[v], &self.lhs[v], d, t)
    }

    /// Write `t`'s group key under variable CFD `v` into `key`.
    fn project_key(&self, d: &Relation, v: usize, t: TupleId, key: &mut GroupKey) {
        key.clear();
        key.extend(self.lhs[v].iter().map(|a| d.sym(t, *a)));
    }

    /// The group of `key` under variable CFD `v`, created empty (and so
    /// outside every tree) when the key is new.
    fn group_for(&mut self, v: usize, key: &[Symbol]) -> GroupId {
        if let Some(&g) = self.tables[v].get(key) {
            return g;
        }
        let g = self.groups.len() as GroupId;
        self.groups.push(Group {
            vcfd: v,
            key: key.to_vec(),
            tuples: Vec::new(),
            counts: Vec::new(),
            nulls: 0,
            entropy: 0.0,
            stale: false,
        });
        self.tables[v].insert(key.to_vec(), g);
        self.log(|| Op::Created(g as u32));
        g
    }

    /// Add `t` to group `gid` of variable CFD `v`: a null B value counts
    /// as a null member, any other is bumped (the entropy is not
    /// refreshed).
    fn add_member(&mut self, d: &Relation, v: usize, t: TupleId, gid: GroupId) {
        let b = d.sym(t, self.rhs[v]);
        let g = gid as u32;
        let grp = &mut self.groups[gid as usize];
        grp.tuples.push(t);
        let pos = (grp.tuples.len() - 1) as u32;
        let nv = self.vcfd_rule_idx.len();
        debug_assert_eq!(self.slots[t.index() * nv + v], Slot::NONE);
        self.slots[t.index() * nv + v] = Slot { group: g, pos };
        self.log(|| Op::Pushed(g));
        if b == d.null_sym() {
            self.set_nulls(gid, self.groups[gid as usize].nulls + 1);
        } else {
            self.bump(gid, b, 1);
        }
    }

    /// Apply a ±1 delta to group `gid`'s count of B value `b`, logged.
    /// The caller refreshes the entropy ([`Group::refresh_entropy`]) once
    /// its batch of bumps is done.
    fn bump(&mut self, gid: GroupId, b: Symbol, delta: isize) {
        let grp = &mut self.groups[gid as usize];
        let count = grp.count_of(b);
        grp.set_count(b, count.saturating_add_signed(delta));
        self.log(|| Op::Bumped {
            g: gid as u32,
            b,
            count,
        });
    }

    /// Set a group's null-member count, logged.
    fn set_nulls(&mut self, gid: GroupId, nulls: usize) {
        let old = self.groups[gid as usize].nulls;
        self.log(|| Op::Nulls {
            g: gid as u32,
            nulls: old,
        });
        self.groups[gid as usize].nulls = nulls;
    }

    /// Insert `t` into variable CFD `v`'s structure if its (current) LHS
    /// matches the pattern — one cell update's insert half.
    fn insert_member(&mut self, d: &Relation, v: usize, t: TupleId) {
        if !self.lhs_matches(d, v, t) {
            return;
        }
        let mut key = GroupKey::new();
        self.project_key(d, v, t, &mut key);
        let gid = self.group_for(v, &key);
        self.detach(v, gid);
        self.add_member(d, v, t, gid);
        self.groups[gid as usize].refresh_entropy(&mut self.scratch);
        self.attach(v, gid);
    }

    /// Remove `t` from the group it sits in under variable CFD `v`, if any:
    /// `b` is the symbol of its B value before the update (`None` only for
    /// a foreign relation's value) and `null` the store's null symbol.
    fn remove_member(&mut self, v: usize, t: TupleId, b: Option<Symbol>, null: Symbol) {
        let nv = self.vcfd_rule_idx.len();
        let slot = self.slots[t.index() * nv + v];
        if slot == Slot::NONE {
            return;
        }
        let gid = slot.group as GroupId;
        self.detach(v, gid);
        let grp = &mut self.groups[gid as usize];
        let pos = slot.pos as usize;
        debug_assert_eq!(grp.tuples[pos], t, "slot out of step");
        grp.tuples.swap_remove(pos);
        if let Some(&moved) = grp.tuples.get(pos) {
            self.slots[moved.index() * nv + v].pos = slot.pos;
        }
        self.slots[t.index() * nv + v] = Slot::NONE;
        self.log(|| Op::Removed {
            g: slot.group,
            pos: slot.pos,
            t,
        });
        match b {
            Some(b) if b == null => {
                let nulls = self.groups[gid as usize].nulls.saturating_sub(1);
                self.set_nulls(gid, nulls);
            }
            Some(b) if self.groups[gid as usize].counts_value(b) => {
                self.bump(gid, b, -1);
                self.groups[gid as usize].refresh_entropy(&mut self.scratch);
            }
            _ => {}
        }
        let grp = &self.groups[gid as usize];
        if grp.tuples.is_empty() {
            self.tables[v].remove(&grp.key);
            self.log(|| Op::Unkeyed(slot.group));
        } else {
            self.attach(v, gid);
        }
    }

    /// Take a group out of its CFD's tree and violating count before its
    /// members or counts change; [`Self::attach`] puts it back after.
    fn detach(&mut self, v: usize, gid: GroupId) {
        let grp = &self.groups[gid as usize];
        self.violating -= usize::from(grp.violates());
        let key = EntropyKey {
            entropy: grp.entropy,
            id: gid,
        };
        if key.entropy > 0.0 {
            self.trees[v].remove(&key);
            self.log(|| Op::Tree {
                key,
                inserted: false,
            });
        }
    }

    fn attach(&mut self, v: usize, gid: GroupId) {
        let grp = &self.groups[gid as usize];
        self.violating += usize::from(grp.violates());
        let key = EntropyKey {
            entropy: grp.entropy,
            id: gid,
        };
        if key.entropy > 0.0 {
            self.trees[v].insert(key);
            self.log(|| Op::Tree {
                key,
                inserted: true,
            });
        }
    }

    /// Exhaustive consistency check against a fresh rebuild (test helper).
    /// Keys and counts are compared in resolved-value form, each group's
    /// cached entropy bits against [`entropy_of_counts`] of its counts,
    /// and each tree and the violating count against the groups they
    /// index.
    #[cfg(test)]
    pub(crate) fn assert_consistent_with_rebuild(&self, rules: &RuleSet, d: &Relation) {
        type GroupSummary = HashMap<Vec<Value>, (usize, Vec<(Value, usize)>)>;
        let summarize = |me: &TwoInOne, v: usize| -> GroupSummary {
            me.tables[v]
                .values()
                .map(|&g| {
                    let grp = &me.groups[g as usize];
                    let mut counts: Vec<(Value, usize)> = grp
                        .counts
                        .iter()
                        .map(|&(b, c)| (d.interner().resolve(b).clone(), c))
                        .collect();
                    counts.sort();
                    (me.group_key(d, g), (grp.tuples.len(), counts))
                })
                .collect()
        };
        let fresh = TwoInOne::build(rules, d);
        assert_eq!(self.violating, fresh.violating, "violating groups");
        let live = || self.tables.iter().flat_map(|t| t.values());
        assert_eq!(
            self.violating,
            live()
                .filter(|&&g| self.groups[g as usize].violates())
                .count(),
            "violating count vs groups"
        );
        for v in 0..self.len() {
            let mut indexed: Vec<(u64, GroupId)> = self.tables[v]
                .values()
                .filter(|&&g| self.groups[g as usize].entropy > 0.0)
                .map(|&g| (self.groups[g as usize].entropy.to_bits(), g))
                .collect();
            indexed.sort_by_key(|&(_, g)| g);
            let mut in_tree: Vec<(u64, GroupId)> = self.trees[v]
                .iter()
                .map(|k| (k.entropy.to_bits(), k.id))
                .collect();
            in_tree.sort_by_key(|&(_, g)| g);
            assert_eq!(in_tree, indexed, "vcfd {v}: tree vs groups");
            assert_eq!(
                summarize(self, v),
                summarize(&fresh, v),
                "vcfd {v} diverged from rebuild"
            );
            for &g in self.tables[v].values() {
                let grp = &self.groups[g as usize];
                assert!(!grp.stale, "vcfd {v} group {g} left stale");
                assert!(
                    grp.counts.windows(2).all(|w| w[0].0 < w[1].0)
                        && grp.counts.iter().all(|&(_, c)| c > 0),
                    "vcfd {v} group {g}: counts not sorted and positive"
                );
                let oracle = entropy_of_counts(grp.counts.iter().map(|&(_, c)| c), &mut Vec::new());
                assert_eq!(
                    grp.entropy.to_bits(),
                    oracle.to_bits(),
                    "vcfd {v} group {g}: cached entropy {} vs oracle {oracle}",
                    grp.entropy
                );
                for (pos, t) in grp.tuples.iter().enumerate() {
                    let slot = self.slots[t.index() * self.len() + v];
                    assert_eq!(
                        (slot.group as GroupId, slot.pos as usize),
                        (g, pos),
                        "vcfd {v}: slot of {t:?}"
                    );
                }
            }
            let filed: usize = self.tables[v]
                .values()
                .map(|&g| self.groups[g as usize].tuples.len())
                .sum();
            let slotted = (0..d.len())
                .filter(|&i| self.slots[i * self.len() + v] != Slot::NONE)
                .count();
            assert_eq!(slotted, filed, "vcfd {v}: slots vs members");
        }
        assert_eq!(self.slots.len(), d.len() * self.len(), "one slot per cell");
    }

    /// Field-by-field equality with `other` (test helper): the arena — ids,
    /// keys, members in order, counts, nulls and entropy bits —
    /// the table keys, the trees, the violating count and the slots.
    #[cfg(test)]
    pub(crate) fn assert_same(&self, other: &TwoInOne) {
        assert_eq!(self.groups.len(), other.groups.len(), "arena length");
        for (g, (x, y)) in self.groups.iter().zip(&other.groups).enumerate() {
            let fields = |x: &Group| {
                (
                    x.vcfd,
                    x.key.clone(),
                    x.tuples.clone(),
                    x.counts.clone(),
                    x.nulls,
                    x.entropy.to_bits(),
                    x.stale,
                )
            };
            assert_eq!(fields(x), fields(y), "group {g}");
        }
        for v in 0..self.len() {
            let keys = |me: &TwoInOne| {
                let mut keys: Vec<(GroupKey, GroupId)> =
                    me.tables[v].iter().map(|(k, &g)| (k.clone(), g)).collect();
                keys.sort();
                keys
            };
            assert_eq!(keys(self), keys(other), "vcfd {v}: table keys");
            let tree = |me: &TwoInOne| -> Vec<(u64, GroupId)> {
                me.trees[v]
                    .iter()
                    .map(|k| (k.entropy.to_bits(), k.id))
                    .collect()
            };
            assert_eq!(tree(self), tree(other), "vcfd {v}: tree");
        }
        assert_eq!(self.violating, other.violating, "violating count");
        assert_eq!(self.slots, other.slots, "slots");
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
        t.on_update(&d, TupleId(3), e, &old);
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
        t.on_update(&d, TupleId(6), c, &old);
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
            t.on_update(&d, tid, a, &old);
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
    fn one_batch_insert_equals_one_tuple_calls() {
        // One `insert_tuples` call hits a group of nonzero entropy several
        // times, creates a group and grows it, adds a null-B member and
        // pushes a group past 64 distinct B values. It must equal a
        // rebuild, and its entropy bits those of one call per tuple.
        let s = Schema::of_strings("r", &["K", "B"]);
        let parsed = parse_rules("cfd fd: r([K] -> [B])", &s, None).unwrap();
        let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
        let b = s.attr_id_or_panic("B");
        let row = |k: &str, v: &str| Tuple::of_strs(&[k, v], 0.5);
        let mut base = vec![row("k1", "x"), row("k1", "x"), row("k1", "y")];
        base.extend((0..62).map(|i| row("wide", &format!("w{i}"))));
        let mut batch = Vec::new();
        for (i, v) in ["x", "z", "y", "x"].into_iter().enumerate() {
            batch.push(row("k1", v));
            batch.push(row("fresh", ["p", "q", "p", "p"][i]));
            batch.push(row("wide", &format!("w{}", 60 + i)));
        }
        let mut null_b = row("k1", "x");
        null_b.set(b, Value::Null, 0.0, FixMark::Untouched);
        batch.push(null_b);
        batch.extend((64..70).map(|i| row("wide", &format!("w{i}"))));

        let mut grown = Relation::new(s.clone(), base.clone());
        let mut batched = TwoInOne::build(&rules, &grown);
        let k1 = batched.group_of(0, TupleId(0)).unwrap();
        assert!(batched.group(k1).entropy > 0.0);
        let mut stepped_d = grown.clone();
        let mut stepped = batched.clone();
        for t in &batch {
            grown.push(t.clone());
            stepped_d.push(t.clone());
            stepped.insert_tuples(&stepped_d, stepped_d.len() - 1);
        }
        batched.insert_tuples(&grown, base.len());

        batched.assert_consistent_with_rebuild(&rules, &grown);
        let wide = batched.group_of(0, TupleId(3)).unwrap();
        assert_eq!(batched.group(wide).distinct_values(), 70);
        assert_eq!(batched.group(k1).nulls, 1);
        assert_eq!(batched.groups.len(), stepped.groups.len());
        for (g, (x, y)) in batched.groups.iter().zip(&stepped.groups).enumerate() {
            assert_eq!(x.tuples, y.tuples, "group {g}");
            assert_eq!(x.entropy.to_bits(), y.entropy.to_bits(), "group {g}");
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
        a.on_update(&d, TupleId(3), e, &old);
        b.on_update(&d, TupleId(3), e, &old);
        assert_eq!(
            a.groups_below(0, f64::INFINITY),
            b.groups_below(0, f64::INFINITY)
        );
        a.assert_consistent_with_rebuild(&rules, &d);
    }

    /// A relation's cells as (value, confidence bits, mark).
    fn cells(d: &Relation) -> Vec<(Value, u64, FixMark)> {
        d.iter()
            .flat_map(|(_, t)| {
                d.schema()
                    .attr_ids()
                    .map(move |a| (t.value(a).clone(), t.cf(a).to_bits(), t.mark(a)))
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Random inserts and updates under the journal, then a rollback:
        /// the structure equals a clone taken before the writes, field by
        /// field, and the relation's cells equal theirs before the writes.
        #[test]
        fn rollback_restores_the_structure_exactly(
            rows in proptest::collection::vec((0u8..3, 0u8..3, 0u8..3, 0u8..2), 1..13),
            split in 0usize..13,
            ops in proptest::collection::vec((0u8..4, 0u8..16, 0u8..4, 0u8..3), 1..24),
        ) {
            let s = Schema::of_strings("r", &["K", "A", "B", "C"]);
            let text = "cfd f1: r([K] -> [B])\n\
                        cfd f2: r([K, A] -> [C])\n\
                        cfd f3: r([A=a1, C] -> [B])\n\
                        cfd f4: r([B] -> [A])";
            let rules = RuleSet::cfds_only(s.clone(), parse_rules(text, &s, None).unwrap().cfds);
            let domain = |a: usize, x: u8| match (a, x) {
                (2, 2) => Value::Null,
                _ => Value::str(format!("{}{x}", ["k", "a", "b", "c"][a])),
            };
            let tuple = |r: &(u8, u8, u8, u8)| {
                let vals = [r.0, r.1, r.2, r.3];
                Tuple::new(
                    (0..4)
                        .map(|a| uniclean_model::Cell::new(domain(a, vals[a]), 0.5))
                        .collect(),
                )
            };
            let split = split.min(rows.len());
            let mut d = Relation::new(s.clone(), rows[..split].iter().map(tuple).collect());
            crate::pattern_syms::ensure_rule_constants(&mut d, &rules);
            let mut two = TwoInOne::build(&rules, &d);
            for r in &rows[split..] {
                d.push(tuple(r));
            }
            let (before, before_cells) = (two.clone(), cells(&d));
            two.begin_journal();
            d.begin_journal();
            let mut inserted = split;
            for (kind, x, attr, val) in ops {
                if kind == 0 || inserted == 0 {
                    if inserted < d.len() {
                        two.insert_tuples(&d, inserted);
                        inserted = d.len();
                    }
                    continue;
                }
                let t = TupleId::from(x as usize % inserted);
                let a = AttrId::from(attr as usize);
                let old = d.tuple(t).value(a).clone();
                let new = domain(attr as usize, val % if attr == 3 { 2 } else { 3 });
                let mark = [FixMark::Reliable, FixMark::Possible][x as usize % 2];
                d.tuple_mut(t).set(a, new, f64::from(val) / 4.0, mark);
                two.on_update(&d, t, a, &old);
            }
            if inserted == d.len() {
                two.assert_consistent_with_rebuild(&rules, &d);
            }
            two.rollback();
            d.rollback();
            two.assert_same(&before);
            proptest::prop_assert_eq!(cells(&d), before_cells);
        }
    }
}
