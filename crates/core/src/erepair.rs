//! `eRepair`: reliable fixes from information entropy (§6, Fig 6).
//!
//! For attributes whose confidence is low or unavailable, evidence is drawn
//! from the data itself: a variable-CFD conflict set `Δ(ȳ)` is resolved to
//! its majority value when its entropy `H(ϕ|Y=ȳ)` falls below the threshold
//! `δ2`; constant-CFD and MD violations are resolved directly. A cell is
//! abandoned once changed `δ1` times ("no enough information to make
//! reliable fixes"). Rules are applied in the dependency-graph order of
//! §6.2 (SCC condensation topologically sorted, out/in-degree ratio within
//! an SCC), repeating until no change.
//!
//! Deterministic fixes from `cRepair` are never overwritten, and neither
//! are cells asserted by confidence (`cf ≥ η`) — entropy evidence must not
//! override confidence evidence.
//!
//! Conflict sets come from the 2-in-1 structure ([`TwoInOne`]) and MD
//! witness lists from a memoized cache that computes each list on first
//! use; both are kept exact under the loop's own rewrites.
//!
//! The structure's group ids and member order depend on how the relation
//! arrived, and the outcome does not: one `v_cfd_resolve` pass lists its
//! groups up front and they are disjoint, a fix writes only the conclusion
//! `B ∉ Y` and so changes only its own group's counts under the pass's
//! CFD (a CFD with `B ∈ Y` has one B value per group and fixes nothing),
//! and `touchable` is decided per cell. Any group or member order
//! therefore leaves the same cells, marks and set of fixes; only the order
//! of the pass's fix records can differ.

use std::collections::HashMap;

use uniclean_model::{AttrId, FixMark, Relation, TupleId, Value};
use uniclean_reasoning::{erepair_order, RuleRef};
use uniclean_rules::RuleSet;

use crate::config::CleanConfig;
use crate::fix::{FixRecord, FixReport};
use crate::master_index::MasterIndex;
use crate::md_cache::MdMatchCache;
use crate::pattern_syms::{ensure_rule_constants, CfdPatternSyms};
use crate::session::Master;
use crate::two_in_one::TwoInOne;

/// Run `eRepair` in place on `d`. Returns the reliable fixes applied.
pub fn e_repair(
    d: &mut Relation,
    dm: Option<&Relation>,
    rules: &RuleSet,
    idx: Option<&MasterIndex>,
    cfg: &CleanConfig,
) -> FixReport {
    let master = Master::external(rules, dm, idx);
    let order = erepair_order(rules);
    let mut structure = TwoInOne::build(rules, d);
    let mut md_cache = MdMatchCache::new(rules, d.len());
    e_run(d, master, rules, &order, cfg, &mut structure, &mut md_cache)
}

/// The engine behind [`e_repair`], with the rule `order`, the 2-in-1
/// structure and the MD witness cache supplied by the caller. The order,
/// a fresh build and an empty cache reproduce [`e_repair`] exactly. The
/// incremental path hands in the session's order, a clone of its
/// persistent post-`cRepair` structure (kept exact through `cRepair`'s
/// cascade by `on_update`, extended by insert-time deltas) and its warm
/// cross-call cache instead. The cache is transparent; the structure holds
/// the same groups as a fresh build under other ids, so the repaired cells
/// and the final fixes are bit-identical, and only the order of fix
/// records within one variable-CFD pass can differ (see the module doc).
pub(crate) fn e_run(
    d: &mut Relation,
    master: Option<Master<'_>>,
    rules: &RuleSet,
    order: &[RuleRef],
    cfg: &CleanConfig,
    structure: &mut TwoInOne,
    md_cache: &mut MdMatchCache,
) -> FixReport {
    // Stable symbols for rule constants, then compile the CFD patterns
    // once — the per-round scans below match patterns by symbol compare.
    ensure_rule_constants(d, rules);
    let pats = CfdPatternSyms::compile(rules, d);

    let mut st = EState {
        change_count: HashMap::new(),
        report: FixReport::new(),
        eta: cfg.eta,
        delta_update: cfg.delta_update,
        md_cache,
    };

    for _round in 0..cfg.max_erepair_rounds {
        let mut changed = false;
        for r in order {
            match *r {
                RuleRef::Cfd(i) => match structure.slot(i) {
                    Some(v) => changed |= v_cfd_resolve(d, rules, structure, v, cfg, &mut st),
                    None => changed |= c_cfd_resolve(d, rules, structure, i, &pats, &mut st),
                },
                RuleRef::Md(i) => {
                    if let Some(m) = master {
                        changed |= md_resolve(d, m, rules, structure, i, &mut st);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    st.report
}

struct EState<'a> {
    change_count: HashMap<(TupleId, AttrId), usize>,
    report: FixReport,
    eta: f64,
    delta_update: usize,
    md_cache: &'a mut MdMatchCache,
}

impl EState<'_> {
    /// May `eRepair` touch this cell at all?
    fn touchable(&self, d: &Relation, t: TupleId, a: AttrId) -> bool {
        let tup = d.tuple(t);
        tup.mark(a) != FixMark::Deterministic
            && tup.cf(a) < self.eta
            && self.change_count.get(&(t, a)).copied().unwrap_or(0) < self.delta_update
    }

    /// Apply one reliable fix and maintain the 2-in-1 structure.
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &mut self,
        d: &mut Relation,
        structure: &mut TwoInOne,
        rules: &RuleSet,
        t: TupleId,
        a: AttrId,
        new: Value,
        rule: &str,
    ) {
        let old = d.tuple(t).value(a).clone();
        debug_assert_ne!(old, new, "apply called without a change");
        let cf = d.tuple(t).cf(a);
        d.tuple_mut(t).set(a, new.clone(), cf, FixMark::Reliable);
        *self.change_count.entry((t, a)).or_insert(0) += 1;
        self.report.push(FixRecord {
            tuple: t,
            attr: a,
            old: old.clone(),
            new,
            mark: FixMark::Reliable,
            rule: rule.into(),
        });
        structure.on_update(rules, d, t, a, &old);
        self.md_cache.invalidate(t, a);
    }
}

/// Procedure `vCFDReslove` (Fig 6): resolve every conflict set of the
/// variable CFD with `0 < H < δ2` to its majority value.
fn v_cfd_resolve(
    d: &mut Relation,
    rules: &RuleSet,
    structure: &mut TwoInOne,
    v: usize,
    cfg: &CleanConfig,
    st: &mut EState<'_>,
) -> bool {
    let cfd_name = structure.rule(rules, v).name().to_string();
    let b = structure.rule(rules, v).rhs()[0];
    let mut changed = false;
    for gid in structure.groups_below(v, cfg.delta_entropy) {
        let (majority, members) = {
            let Some((maj, _)) = structure.majority(d, gid) else {
                continue;
            };
            (maj, structure.group(gid).tuples.clone())
        };
        for t in members {
            if d.tuple(t).value(b) != &majority && st.touchable(d, t, b) {
                st.apply(d, structure, rules, t, b, majority.clone(), &cfd_name);
                changed = true;
            }
        }
    }
    changed
}

/// Procedure `cCFDReslove` (Fig 6): apply the constant pattern to every
/// matching tuple still touchable. The scan matches the LHS pattern by
/// compiled symbols and pre-screens the RHS by symbol too.
fn c_cfd_resolve(
    d: &mut Relation,
    rules: &RuleSet,
    structure: &mut TwoInOne,
    i: usize,
    pats: &CfdPatternSyms,
    st: &mut EState<'_>,
) -> bool {
    let cfd = &rules.cfds()[i];
    let a = cfd.rhs()[0];
    let want = cfd.rhs_pattern()[0]
        .as_const()
        .expect("constant CFD")
        .clone();
    let name = cfd.name().to_string();
    let lhs = cfd.lhs().to_vec();
    let mut changed = false;
    for t in d.ids().collect::<Vec<_>>() {
        if pats.lhs_matches_attrs(i, &lhs, d, t)
            && d.tuple(t).value(a) != &want
            && st.touchable(d, t, a)
        {
            st.apply(d, structure, rules, t, a, want.clone(), &name);
            changed = true;
        }
    }
    changed
}

/// Procedure `MDReslove` (Fig 6): pull master values into matching tuples.
fn md_resolve(
    d: &mut Relation,
    m: Master<'_>,
    rules: &RuleSet,
    structure: &mut TwoInOne,
    i: usize,
    st: &mut EState<'_>,
) -> bool {
    let md = &rules.mds()[i];
    let (e, f) = md.rhs()[0];
    let name = md.name().to_string();
    let (dm, eta) = (m.dm, st.eta);
    let mut changed = false;
    for t in d.ids().collect::<Vec<_>>() {
        if !st.touchable(d, t, e) {
            continue;
        }
        // First *disagreeing* witness: an agreeing master tuple earlier in
        // the candidate list must not mask a correction demanded by a later
        // one (and under self-matching the tuple's own copy always agrees —
        // the cache skips it). Witness lists come from the memoized
        // cache.
        let Some(s) = st
            .md_cache
            .matches(i, rules, d, m, t)
            .iter()
            .copied()
            // Under self-matching only asserted witnesses carry evidence.
            .filter(|&s| m.is_evidence(s, f, eta))
            .find(|&s| dm.tuple(s).value(f) != d.tuple(t).value(e))
        else {
            continue;
        };
        let new = dm.tuple(s).value(f).clone();
        st.apply(d, structure, rules, t, e, new, &name);
        changed = true;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniclean_model::{Schema, Tuple};
    use uniclean_rules::parse_rules;

    fn cfg() -> CleanConfig {
        CleanConfig {
            eta: 0.8,
            delta_entropy: 0.9,
            ..CleanConfig::default()
        }
    }

    /// Example 6.2: only the (a1,b1,c1) group is resolved; the uniform
    /// (a2,b2,c2) group is left alone.
    #[test]
    fn example_6_2_resolution() {
        let s = Schema::of_strings("r", &["A", "B", "C", "E"]);
        let parsed = parse_rules("cfd phi: r([A, B, C] -> [E])", &s, None).unwrap();
        let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
        let rows = [
            ["a1", "b1", "c1", "e1"],
            ["a1", "b1", "c1", "e1"],
            ["a1", "b1", "c1", "e1"],
            ["a1", "b1", "c1", "e2"],
            ["a2", "b2", "c2", "e1"],
            ["a2", "b2", "c2", "e2"],
        ];
        let mut d = Relation::new(
            s.clone(),
            rows.iter().map(|r| Tuple::of_strs(r, 0.0)).collect(),
        );
        let report = e_repair(&mut d, None, &rules, None, &cfg());
        let e = s.attr_id_or_panic("E");
        assert_eq!(d.tuple(TupleId(3)).value(e), &Value::str("e1"));
        assert_eq!(d.tuple(TupleId(3)).mark(e), FixMark::Reliable);
        // The H = 1 group is untouched.
        assert_eq!(d.tuple(TupleId(4)).value(e), &Value::str("e1"));
        assert_eq!(d.tuple(TupleId(5)).value(e), &Value::str("e2"));
        assert_eq!(report.len(), 1);
    }

    #[test]
    fn deterministic_fixes_are_preserved() {
        let s = Schema::of_strings("r", &["K", "B"]);
        let parsed = parse_rules("cfd fd: r([K] -> [B])", &s, None).unwrap();
        let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
        let b = s.attr_id_or_panic("B");
        let mut minority = Tuple::of_strs(&["k", "special"], 0.0);
        minority.set(b, Value::str("special"), 0.0, FixMark::Deterministic);
        let mut d = Relation::new(
            s,
            vec![
                Tuple::of_strs(&["k", "common"], 0.0),
                Tuple::of_strs(&["k", "common"], 0.0),
                Tuple::of_strs(&["k", "common"], 0.0),
                minority,
            ],
        );
        let report = e_repair(&mut d, None, &rules, None, &cfg());
        assert_eq!(d.tuple(TupleId(3)).value(b), &Value::str("special"));
        assert!(report.is_empty());
    }

    #[test]
    fn asserted_cells_are_preserved() {
        let s = Schema::of_strings("r", &["K", "B"]);
        let parsed = parse_rules("cfd fd: r([K] -> [B])", &s, None).unwrap();
        let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
        let b = s.attr_id_or_panic("B");
        let mut asserted = Tuple::of_strs(&["k", "special"], 0.0);
        asserted.set(b, Value::str("special"), 1.0, FixMark::Untouched);
        let mut d = Relation::new(
            s,
            vec![
                Tuple::of_strs(&["k", "common"], 0.0),
                Tuple::of_strs(&["k", "common"], 0.0),
                Tuple::of_strs(&["k", "common"], 0.0),
                asserted,
            ],
        );
        e_repair(&mut d, None, &rules, None, &cfg());
        assert_eq!(d.tuple(TupleId(3)).value(b), &Value::str("special"));
    }

    #[test]
    fn constant_cfd_fixes_are_reliable() {
        let s = Schema::of_strings("tran", &["AC", "city"]);
        let parsed = parse_rules("cfd phi1: tran([AC=131] -> [city=Edi])", &s, None).unwrap();
        let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
        let mut d = Relation::new(s.clone(), vec![Tuple::of_strs(&["131", "Ldn"], 0.0)]);
        let report = e_repair(&mut d, None, &rules, None, &cfg());
        let city = s.attr_id_or_panic("city");
        assert_eq!(d.tuple(TupleId(0)).value(city), &Value::str("Edi"));
        assert_eq!(d.tuple(TupleId(0)).mark(city), FixMark::Reliable);
        assert_eq!(report.len(), 1);
    }

    #[test]
    fn md_resolution_pulls_master_values() {
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
        let mut d = Relation::new(tran.clone(), vec![Tuple::of_strs(&["Brady", "000"], 0.0)]);
        let dm = Relation::new(card, vec![Tuple::of_strs(&["Brady", "3887644"], 1.0)]);
        let idx = MasterIndex::build(rules.mds(), &dm);
        let report = e_repair(&mut d, Some(&dm), &rules, Some(&idx), &cfg());
        assert_eq!(
            d.tuple(TupleId(0)).value(tran.attr_id_or_panic("phn")),
            &Value::str("3887644")
        );
        assert_eq!(report.len(), 1);
    }

    #[test]
    fn delta1_stops_oscillating_rules() {
        // Example 4.6's oscillator: the δ1 counter cuts the ping-pong off.
        let s = Schema::of_strings("tran", &["AC", "post", "city"]);
        let parsed = parse_rules(
            "cfd phi1: tran([AC=131] -> [city=Edi])\n\
             cfd phi5: tran([post=\"EH8 9AB\"] -> [city=Ldn])",
            &s,
            None,
        )
        .unwrap();
        let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
        let mut d = Relation::new(s, vec![Tuple::of_strs(&["131", "EH8 9AB", "x"], 0.0)]);
        let report = e_repair(&mut d, None, &rules, None, &cfg());
        // Each apply increments the counter; with δ1 = 2 the city cell is
        // written at most twice.
        assert!(
            report.len() <= 2,
            "δ1 must bound the changes, got {}",
            report.len()
        );
    }

    #[test]
    fn high_entropy_conflicts_are_left_for_hrepair() {
        let s = Schema::of_strings("r", &["K", "B"]);
        let parsed = parse_rules("cfd fd: r([K] -> [B])", &s, None).unwrap();
        let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
        let mut d = Relation::new(
            s,
            vec![
                Tuple::of_strs(&["k", "x"], 0.0),
                Tuple::of_strs(&["k", "y"], 0.0),
            ],
        );
        let report = e_repair(&mut d, None, &rules, None, &cfg());
        assert!(report.is_empty(), "H = 1 ≥ δ2: no reliable fix");
    }

    #[test]
    fn resolution_cascades_across_rules() {
        // Fixing B by majority enables the constant CFD on B to fire in the
        // next pass of the ordered loop.
        let s = Schema::of_strings("r", &["K", "B", "C"]);
        let parsed = parse_rules(
            "cfd fd: r([K] -> [B])\ncfd cc: r([B=good] -> [C=ok])",
            &s,
            None,
        )
        .unwrap();
        let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
        let mut d = Relation::new(
            s.clone(),
            vec![
                Tuple::of_strs(&["k", "good", "ok"], 0.0),
                Tuple::of_strs(&["k", "good", "ok"], 0.0),
                Tuple::of_strs(&["k", "good", "ok"], 0.0),
                Tuple::of_strs(&["k", "bad", "no"], 0.0),
            ],
        );
        // Entropy of {good×3, bad×1} ≈ 0.81 < δ2 = 0.9: resolvable.
        e_repair(&mut d, None, &rules, None, &cfg());
        let c = s.attr_id_or_panic("C");
        assert_eq!(d.tuple(TupleId(3)).value(c), &Value::str("ok"));
    }

    /// A 2-in-1 reached through `on_update` holds the same groups as a
    /// fresh build of the same relation, under other ids and with other
    /// member orders. `eRepair` over either leaves the same cells and the
    /// same final fixes.
    #[test]
    fn group_ids_and_member_order_do_not_change_the_repair() {
        let s = Schema::of_strings("r", &["K", "B", "C"]);
        let parsed = parse_rules("cfd fd: r([K] -> [B])\ncfd fc: r([B] -> [C])", &s, None).unwrap();
        let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
        let k = s.attr_id_or_panic("K");
        let rows = [
            ["k2", "b1", "c1"],
            ["k1", "b1", "c1"],
            ["k1", "b1", "c1"],
            ["k1", "b2", "c2"],
            ["k1", "b3", "c3"],
            ["k2", "b3", "c3"],
            ["k2", "b3", "c3"],
            ["k2", "b4", "c3"],
        ];
        let mut d = Relation::new(
            s.clone(),
            rows.iter().map(|r| Tuple::of_strs(r, 0.0)).collect(),
        );
        // Swap the keys of tuples 0 and 4 through the update hook: k2's
        // group keeps id 0 although k1 now comes first in tuple order, and
        // the moved tuples sit last in their groups.
        let mut updated = TwoInOne::build(&rules, &d);
        for (t, key) in [(TupleId(0), "k1"), (TupleId(4), "k2")] {
            let old = d.tuple(t).value(k).clone();
            d.tuple_mut(t)
                .set(k, Value::str(key), 0.0, FixMark::Untouched);
            updated.on_update(&rules, &d, t, k, &old);
        }
        let fresh = TwoInOne::build(&rules, &d);
        updated.assert_consistent_with_rebuild(&rules, &d);
        let k1 = fresh.group_of(0, &d, TupleId(0)).unwrap();
        assert_ne!(updated.group_of(0, &d, TupleId(0)), Some(k1));
        assert_ne!(
            updated
                .group(updated.group_of(0, &d, TupleId(0)).unwrap())
                .tuples,
            fresh.group(k1).tuples
        );

        let order = erepair_order(&rules);
        let run = |mut two: TwoInOne| {
            let mut out = d.clone();
            let mut cache = MdMatchCache::new(&rules, out.len());
            let report = e_run(&mut out, None, &rules, &order, &cfg(), &mut two, &mut cache);
            assert!(!report.is_empty(), "the pin must exercise repairs");
            (out, report)
        };
        let (a, ra) = run(fresh);
        let (b, rb) = run(updated);
        for (ta, tb) in a.rows().zip(b.rows()) {
            for (ca, cb) in ta.cells().zip(tb.cells()) {
                assert_eq!(ca.value, cb.value);
                assert_eq!(ca.cf.to_bits(), cb.cf.to_bits());
                assert_eq!(ca.mark, cb.mark);
            }
        }
        let finals = |r: &FixReport| -> Vec<FixRecord> { r.final_states().cloned().collect() };
        assert_eq!(finals(&ra), finals(&rb));
        assert_ne!(
            ra.records(),
            rb.records(),
            "the passes visit the two groups in opposite orders"
        );
    }
}
