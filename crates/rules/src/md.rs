//! Positive matching dependencies (§2.2).
//!
//! A positive MD `ψ` on `(R, Rm)` has the form
//!
//! ```text
//! ⋀ j∈[1,k] (R[Aj] ≈j Rm[Bj])  →  ⋀ i∈[1,h] (R[Ei] ⇋ Rm[Fi])
//! ```
//!
//! Its dynamic semantics against a dirty relation `D` and master data `Dm`:
//! whenever `t ∈ D` and `s ∈ Dm` satisfy every premise similarity, `t[Ei]`
//! is *changed to* `s[Fi]` — values are drawn from the clean master data.
//! `(D, Dm) ⊨ ψ` iff no tuple of `D` can still be updated this way.

use std::fmt;
use std::sync::Arc;

use uniclean_model::{AttrId, FxHashMap, FxHasher, Row, Schema};
use uniclean_similarity::{
    ColumnVerdicts, MyersPattern, QGramProfile, SimScratch, SimilarityPredicate,
};

/// Caller-owned buffers and symbol-keyed kernel caches for MD premise
/// evaluation. One per probing thread, embedded in the engine's
/// `ProbeScratch`; [`Md::premise_matches_with`] uses it to evaluate
/// premises with zero steady-state allocation *and* to reuse expensive
/// per-value precomputations across probes:
///
/// * Myers `Peq` pattern bitmaps keyed by the master-side [`Symbol`] — a
///   master value probed a thousand times builds its bitmaps once;
/// * padded q-gram profiles keyed by `(Symbol, q)` for both sides.
///
/// Symbols are only meaningful relative to one interner, so the caches are
/// epoch-guarded: the master index stamps every scratch it probes with its
/// build epoch via [`MatchScratch::sync_epoch`], and a stale scratch drops
/// all symbol-keyed state before reuse. Detached rows (no symbols) simply
/// bypass the caches.
///
/// [`Symbol`]: uniclean_model::Symbol
#[derive(Debug, Default)]
pub struct MatchScratch {
    /// Per-call similarity buffers (Myers blocks, Jaro match arrays,
    /// profile padding/hash buffers).
    sim: SimScratch,
    /// Myers pattern bitmaps keyed by master-side symbol.
    myers: FxHashMap<u32, MyersPattern>,
    /// Myers pattern bitmaps keyed by *probe*-side symbol — the
    /// column-at-a-time driver compiles the probe value once and sweeps
    /// whole master columns through it.
    probe_patterns: FxHashMap<u32, MyersPattern>,
    /// Un-cached pattern slot for symbol-less probe values.
    probe_pat: MyersPattern,
    /// Verdict bitmap of the last columnar sweep.
    column: ColumnVerdicts,
    /// Master-side symbols of the last columnar sweep, for memo seeding.
    seed_syms: Vec<Option<u32>>,
    /// Padded q-gram profiles keyed by `(probe-side symbol, q)`.
    probe_profiles: FxHashMap<(u32, u32), QGramProfile>,
    /// Padded q-gram profiles keyed by `(master-side symbol, q)`.
    master_profiles: FxHashMap<(u32, u32), QGramProfile>,
    /// Un-cached profile slots for symbol-less rows.
    pa: QGramProfile,
    pb: QGramProfile,
    /// Memoized similarity-conjunct verdicts keyed by `(probe symbol,
    /// master symbol, conjunct identity)`: every predicate is a pure
    /// function of its two values, so distinct tuple pairs sharing them
    /// (ubiquitous in dirty data) answer without re-running a kernel.
    pairs: FxHashMap<(u32, u32, u64), bool>,
    /// The symbol-space generation the caches were filled under.
    epoch: u64,
}

impl MatchScratch {
    /// Fresh scratch with empty buffers and caches.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-key the symbol caches to `epoch`: a no-op when unchanged, a full
    /// cache drop when the caller's symbol space (master index build)
    /// differs from the one the caches were filled under.
    pub fn sync_epoch(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.epoch = epoch;
            self.reset();
        }
    }

    /// Drop every symbol-keyed cache unconditionally (buffer capacity is
    /// kept). The epoch guard only tracks the *master* symbol space; call
    /// this when the probe-side relation changes identity, which the epoch
    /// cannot see.
    pub fn reset(&mut self) {
        self.myers.clear();
        self.probe_patterns.clear();
        self.probe_profiles.clear();
        self.master_profiles.clear();
        self.pairs.clear();
    }

    /// Column-at-a-time `~lev` verification: compile (or reuse, keyed by
    /// `probe_sym`) the probe value's Myers pattern and sweep every
    /// `(master symbol, rendered master value)` item through it in one
    /// pass — [`MyersPattern::distance_column`] — instead of dispatching a
    /// per-master-value pattern per pair. Returns the verdict bitmap (bit
    /// `i` ⟺ `lev(probe, items[i]) ≤ max`).
    ///
    /// Every swept pair additionally seeds the pair-verdict memo under
    /// `conjunct` (see [`MdPremise::pair_key`]), so the subsequent
    /// [`Md::premise_matches_with`] verification replays the columnar
    /// verdict instead of re-running a kernel. Levenshtein is symmetric,
    /// so the flipped pattern direction (probe-compiled here vs.
    /// master-compiled when [`Md::premise_matches_with`] runs the kernel
    /// itself, as a full scan does) cannot change any verdict —
    /// `tests/access_paths.rs` pins the sweep against the full scan.
    pub fn lev_sweep_column<I, T>(
        &mut self,
        probe_sym: Option<u32>,
        probe_value: &str,
        max: usize,
        conjunct: u64,
        items: I,
    ) -> &ColumnVerdicts
    where
        I: IntoIterator<Item = (Option<u32>, T)>,
        T: AsRef<str>,
    {
        let MatchScratch {
            sim,
            probe_patterns,
            probe_pat,
            pairs,
            column,
            seed_syms,
            ..
        } = self;
        let pat: &MyersPattern = match probe_sym {
            Some(sym) => probe_patterns
                .entry(sym)
                .or_insert_with(|| MyersPattern::new(probe_value)),
            None => {
                probe_pat.build(probe_value);
                probe_pat
            }
        };
        seed_syms.clear();
        let texts = items.into_iter().map(|(sym, text)| {
            seed_syms.push(sym);
            text
        });
        pat.distance_column(texts, max, &mut sim.edit, column);
        if let Some(ps) = probe_sym {
            for (i, ms) in seed_syms.iter().enumerate() {
                if let Some(ms) = ms {
                    pairs.insert((ps, *ms, conjunct), column.get(i));
                }
            }
        }
        column
    }

    /// The cached padded q-gram profile of the probe-side value `value`
    /// under window size `q`, keyed by the probe row's symbol. Candidate
    /// generation in the master index shares this cache with premise
    /// verification.
    pub fn probe_profile_cached(&mut self, sym: u32, q: usize, value: &str) -> &QGramProfile {
        let MatchScratch {
            sim,
            probe_profiles,
            ..
        } = self;
        probe_profiles
            .entry((sym, q as u32))
            .or_insert_with(|| QGramProfile::new_with(value, q, &mut sim.profile))
    }

    /// An un-cached profile for a symbol-less probe value, built into a
    /// reusable slot.
    pub fn probe_profile_owned(&mut self, q: usize, value: &str) -> &QGramProfile {
        self.pa.rebuild(value, q, &mut self.sim.profile);
        &self.pa
    }
}

/// Stable hash identifying a premise conjunct (attributes + predicate
/// parameters) — the third component of the pair-memo key, so one scratch
/// can serve every MD of a rule set without cross-talk.
fn premise_identity(p: &MdPremise) -> u64 {
    use std::hash::Hasher;
    let mut h = FxHasher::default();
    h.write_u16(p.attr.0);
    h.write_u16(p.master_attr.0);
    match &p.pred {
        SimilarityPredicate::Equal => h.write_u8(0),
        SimilarityPredicate::Levenshtein { max } => {
            h.write_u8(1);
            h.write_usize(*max);
        }
        SimilarityPredicate::Jaro { min } => {
            h.write_u8(2);
            h.write_u64(min.to_bits());
        }
        SimilarityPredicate::JaroWinkler { min } => {
            h.write_u8(3);
            h.write_u64(min.to_bits());
        }
        SimilarityPredicate::QGramJaccard { q, min } => {
            h.write_u8(4);
            h.write_usize(*q);
            h.write_u64(min.to_bits());
        }
    }
    h.finish()
}

/// One conjunct `R[Aj] ≈j Rm[Bj]` of an MD premise.
#[derive(Clone, Debug, PartialEq)]
pub struct MdPremise {
    /// The data-side attribute `Aj`.
    pub attr: AttrId,
    /// The master-side attribute `Bj`.
    pub master_attr: AttrId,
    /// The similarity predicate `≈j`.
    pub pred: SimilarityPredicate,
}

impl MdPremise {
    /// Stable identity of this conjunct — the third component of the
    /// pair-verdict memo key. Access paths that pre-verify pairs in bulk
    /// ([`MatchScratch::lev_sweep_column`]) pass this so the seeded
    /// verdicts are found again during full premise verification.
    pub fn pair_key(&self) -> u64 {
        premise_identity(self)
    }
}

/// A positive matching dependency.
#[derive(Clone, Debug, PartialEq)]
pub struct Md {
    name: String,
    schema: Arc<Schema>,
    master_schema: Arc<Schema>,
    premises: Vec<MdPremise>,
    /// The identified pairs `(Ei, Fi)`.
    rhs: Vec<(AttrId, AttrId)>,
}

impl Md {
    /// Build an MD. `name` is a diagnostic label (e.g. `"psi"`).
    ///
    /// # Panics
    /// Panics on an empty RHS or duplicate data-side premise attributes.
    pub fn new(
        name: impl Into<String>,
        schema: Arc<Schema>,
        master_schema: Arc<Schema>,
        premises: Vec<MdPremise>,
        rhs: Vec<(AttrId, AttrId)>,
    ) -> Self {
        assert!(
            !rhs.is_empty(),
            "MD must identify at least one attribute pair"
        );
        Md {
            name: name.into(),
            schema,
            master_schema,
            premises,
            rhs,
        }
    }

    /// Diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The data-side schema `R`.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The master-side schema `Rm`.
    pub fn master_schema(&self) -> &Arc<Schema> {
        &self.master_schema
    }

    /// The premise conjuncts.
    pub fn premises(&self) -> &[MdPremise] {
        &self.premises
    }

    /// The identified pairs `(Ei, Fi)`.
    pub fn rhs(&self) -> &[(AttrId, AttrId)] {
        &self.rhs
    }

    /// Is the MD normalized (`|RHS| = 1`)?
    pub fn is_normalized(&self) -> bool {
        self.rhs.len() == 1
    }

    /// Data-side premise attributes `A1..Ak` (the cleaning rule's premise
    /// attributes for confidence checks).
    pub fn lhs_attrs(&self) -> Vec<AttrId> {
        self.premises.iter().map(|p| p.attr).collect()
    }

    /// Indices of the strict-equality conjuncts, in premise order — the
    /// access-path planner keys its composite hash index on exactly these
    /// (and the §3.1 confidence rule singles them out too).
    pub fn equality_premise_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.premises
            .iter()
            .enumerate()
            .filter(|(_, p)| p.pred.is_equality())
            .map(|(i, _)| i)
    }

    /// Does the premise hold between data tuple `t` and master tuple `s`?
    /// Generic over [`Row`]: the data side is usually a stored
    /// [`uniclean_model::TupleRef`], the master side a row of another
    /// relation — no tuple materialization either way.
    ///
    /// Nulls never satisfy a similarity premise — matching a data tuple with
    /// a master tuple adopts the same convention as CFD pattern matching
    /// (§7).
    pub fn premise_matches<'t, 's>(&self, t: impl Row<'t>, s: impl Row<'s>) -> bool {
        self.premises.iter().all(|p| {
            let tv = t.value(p.attr);
            let sv = s.value(p.master_attr);
            if tv.is_null() || sv.is_null() {
                return false;
            }
            p.pred.matches(&tv.render(), &sv.render())
        })
    }

    /// [`Md::premise_matches`] with caller-owned scratch: identical answers
    /// (bit for bit — the tests pin this), zero steady-state allocation,
    /// and symbol-keyed reuse of Myers pattern bitmaps and q-gram profiles
    /// across probes. This is the probe hot path of the master index.
    pub fn premise_matches_with<'t, 's>(
        &self,
        t: impl Row<'t>,
        s: impl Row<'s>,
        scratch: &mut MatchScratch,
    ) -> bool {
        // A premise is a pure conjunction, so evaluation order cannot
        // change the answer — only how fast a non-match is rejected.
        // Equality, the cached q-gram merge, and the cached Myers kernel
        // all answer in well under a microsecond; Jaro/Jaro-Winkler run an
        // O(|a|·|b|) matching pass per pair. Check the cheap conjuncts
        // first so most candidates never reach a Jaro computation.
        let is_jaro = |p: &&MdPremise| {
            matches!(
                p.pred,
                SimilarityPredicate::Jaro { .. } | SimilarityPredicate::JaroWinkler { .. }
            )
        };
        self.premises
            .iter()
            .filter(|p| !is_jaro(p))
            .all(|p| self.premise_holds_with(p, t, s, scratch))
            && self
                .premises
                .iter()
                .filter(is_jaro)
                .all(|p| self.premise_holds_with(p, t, s, scratch))
    }

    /// One conjunct of [`Md::premise_matches_with`], on the scratch's
    /// kernel caches: pair-memoized for store-backed rows, then kernel
    /// dispatch on a miss.
    fn premise_holds_with<'t, 's>(
        &self,
        p: &MdPremise,
        t: impl Row<'t>,
        s: impl Row<'s>,
        scratch: &mut MatchScratch,
    ) -> bool {
        if matches!(p.pred, SimilarityPredicate::Equal) {
            // Equality is cheaper than a memo lookup.
            return self.premise_eval(p, t, s, scratch);
        }
        match (t.sym(p.attr), s.sym(p.master_attr)) {
            (Some(ts), Some(ss)) => {
                let key = (ts.0, ss.0, premise_identity(p));
                if let Some(&verdict) = scratch.pairs.get(&key) {
                    return verdict;
                }
                let verdict = self.premise_eval(p, t, s, scratch);
                scratch.pairs.insert(key, verdict);
                verdict
            }
            _ => self.premise_eval(p, t, s, scratch),
        }
    }

    /// Kernel dispatch for one similarity conjunct (the memo-miss path of
    /// [`Md::premise_holds_with`]).
    fn premise_eval<'t, 's>(
        &self,
        p: &MdPremise,
        t: impl Row<'t>,
        s: impl Row<'s>,
        scratch: &mut MatchScratch,
    ) -> bool {
        let tv = t.value(p.attr);
        let sv = s.value(p.master_attr);
        if tv.is_null() || sv.is_null() {
            return false;
        }
        let a = tv.render();
        let b = sv.render();
        match &p.pred {
            SimilarityPredicate::Levenshtein { max } => {
                let MatchScratch { sim, myers, .. } = scratch;
                match s.sym(p.master_attr) {
                    Some(sym) => {
                        // Master values repeat across probes: build the
                        // pattern bitmaps once per distinct symbol.
                        let pat = myers.entry(sym.0).or_insert_with(|| MyersPattern::new(&b));
                        pat.distance_bounded(&a, *max, &mut sim.edit).is_some()
                    }
                    None => p.pred.matches_with(&a, &b, sim),
                }
            }
            SimilarityPredicate::QGramJaccard { q, min } => {
                let MatchScratch {
                    sim,
                    probe_profiles,
                    master_profiles,
                    pa,
                    pb,
                    ..
                } = scratch;
                let qq = *q as u32;
                let mp: &QGramProfile = match s.sym(p.master_attr) {
                    Some(sym) => master_profiles
                        .entry((sym.0, qq))
                        .or_insert_with(|| QGramProfile::new_with(&b, *q, &mut sim.profile)),
                    None => {
                        pb.rebuild(&b, *q, &mut sim.profile);
                        pb
                    }
                };
                let pp: &QGramProfile = match t.sym(p.attr) {
                    Some(sym) => probe_profiles
                        .entry((sym.0, qq))
                        .or_insert_with(|| QGramProfile::new_with(&a, *q, &mut sim.profile)),
                    None => {
                        pa.rebuild(&a, *q, &mut sim.profile);
                        pa
                    }
                };
                pp.jaccard(mp) >= *min
            }
            _ => p.pred.matches_with(&a, &b, &mut scratch.sim),
        }
    }

    /// Does the conclusion already hold (`t[Ei] = s[Fi]` for all `i`)?
    pub fn rhs_identified<'t, 's>(&self, t: impl Row<'t>, s: impl Row<'s>) -> bool {
        self.rhs.iter().all(|(e, f)| t.value(*e) == s.value(*f))
    }

    /// Would applying this MD with master tuple `s` change `t`?
    pub fn applies<'t, 's>(&self, t: impl Row<'t>, s: impl Row<'s>) -> bool {
        self.premise_matches(t, s) && !self.rhs_identified(t, s)
    }
}

impl fmt::Display for Md {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.name)?;
        for (i, p) in self.premises.iter().enumerate() {
            if i > 0 {
                f.write_str(" AND ")?;
            }
            write!(
                f,
                "{}[{}] {} {}[{}]",
                self.schema.name(),
                self.schema.attr_name(p.attr),
                p.pred,
                self.master_schema.name(),
                self.master_schema.attr_name(p.master_attr),
            )?;
        }
        f.write_str(" -> ")?;
        for (i, (e, fa)) in self.rhs.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(
                f,
                "{}[{}] <=> {}[{}]",
                self.schema.name(),
                self.schema.attr_name(*e),
                self.master_schema.name(),
                self.master_schema.attr_name(*fa),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniclean_model::{Tuple, Value};

    fn schemas() -> (Arc<Schema>, Arc<Schema>) {
        (
            Schema::of_strings("tran", &["FN", "LN", "city", "St", "post", "phn"]),
            Schema::of_strings("card", &["FN", "LN", "city", "St", "zip", "tel"]),
        )
    }

    /// ψ of Example 1.1: tran[LN, city, St, post] = card[LN, city, St, zip]
    /// ∧ tran[FN] ≈ card[FN] → tran[FN, phn] ⇋ card[FN, tel].
    fn psi(tran: &Arc<Schema>, card: &Arc<Schema>) -> Md {
        let eqs = [
            ("LN", "LN"),
            ("city", "city"),
            ("St", "St"),
            ("post", "zip"),
        ];
        let mut premises: Vec<MdPremise> = eqs
            .iter()
            .map(|(a, b)| MdPremise {
                attr: tran.attr_id_or_panic(a),
                master_attr: card.attr_id_or_panic(b),
                pred: SimilarityPredicate::Equal,
            })
            .collect();
        premises.push(MdPremise {
            attr: tran.attr_id_or_panic("FN"),
            master_attr: card.attr_id_or_panic("FN"),
            // "M." ≈ "Mark" needs three edits (sub + two inserts).
            pred: SimilarityPredicate::Levenshtein { max: 3 },
        });
        Md::new(
            "psi",
            tran.clone(),
            card.clone(),
            premises,
            vec![
                (tran.attr_id_or_panic("FN"), card.attr_id_or_panic("FN")),
                (tran.attr_id_or_panic("phn"), card.attr_id_or_panic("tel")),
            ],
        )
    }

    #[test]
    fn example_2_3_premise_and_application() {
        let (tran, card) = schemas();
        let md = psi(&tran, &card);
        // t1' (t1 with city already repaired to Ldn)… using the Edinburgh
        // variant for s1: the premise holds, the conclusion does not.
        let t1p = Tuple::of_strs(
            &["M.", "Smith", "Edi", "10 Oak St", "EH8 9LE", "9999999"],
            0.5,
        );
        let s1 = Tuple::of_strs(
            &["Mark", "Smith", "Edi", "10 Oak St", "EH8 9LE", "3256778"],
            1.0,
        );
        assert!(md.premise_matches(&t1p, &s1));
        assert!(!md.rhs_identified(&t1p, &s1));
        assert!(md.applies(&t1p, &s1));
    }

    #[test]
    fn dissimilar_first_names_block_the_premise() {
        let (tran, card) = schemas();
        let md = psi(&tran, &card);
        let t = Tuple::of_strs(
            &["Zebulon", "Smith", "Edi", "10 Oak St", "EH8 9LE", "1"],
            0.5,
        );
        let s = Tuple::of_strs(&["Mark", "Smith", "Edi", "10 Oak St", "EH8 9LE", "2"], 1.0);
        assert!(!md.premise_matches(&t, &s));
    }

    #[test]
    fn identified_rhs_means_no_application() {
        let (tran, card) = schemas();
        let md = psi(&tran, &card);
        let t = Tuple::of_strs(
            &["Mark", "Smith", "Edi", "10 Oak St", "EH8 9LE", "3256778"],
            0.5,
        );
        let s = Tuple::of_strs(
            &["Mark", "Smith", "Edi", "10 Oak St", "EH8 9LE", "3256778"],
            1.0,
        );
        assert!(md.premise_matches(&t, &s));
        assert!(md.rhs_identified(&t, &s));
        assert!(!md.applies(&t, &s));
    }

    #[test]
    fn null_premise_values_never_match() {
        let (tran, card) = schemas();
        let md = psi(&tran, &card);
        let mut t = Tuple::of_strs(&["Mark", "Smith", "Edi", "10 Oak St", "EH8 9LE", "1"], 0.5);
        t.set(
            tran.attr_id_or_panic("St"),
            Value::Null,
            0.0,
            Default::default(),
        );
        let s = Tuple::of_strs(&["Mark", "Smith", "Edi", "10 Oak St", "EH8 9LE", "2"], 1.0);
        assert!(!md.premise_matches(&t, &s));
    }

    #[test]
    fn display_is_readable() {
        let (tran, card) = schemas();
        let text = psi(&tran, &card).to_string();
        assert!(text.contains("tran[LN] = card[LN]"));
        assert!(text.contains("tran[FN] ~lev(3) card[FN]"));
        assert!(text.contains("tran[phn] <=> card[tel]"));
    }

    #[test]
    #[should_panic(expected = "at least one attribute pair")]
    fn empty_rhs_rejected() {
        let (tran, card) = schemas();
        Md::new("bad", tran, card, vec![], vec![]);
    }

    #[test]
    fn scratch_evaluation_agrees_with_plain() {
        let (tran, card) = schemas();
        let md = psi(&tran, &card);
        let mut scratch = MatchScratch::new();
        let rows = [
            ["M.", "Smith", "Edi", "10 Oak St", "EH8 9LE", "1"],
            ["Mark", "Smith", "Edi", "10 Oak St", "EH8 9LE", "2"],
            ["Zebulon", "Smith", "Edi", "10 Oak St", "EH8 9LE", "3"],
            ["Mark", "Smyth", "Edi", "10 Oak St", "EH8 9LE", "4"],
        ];
        let tuples: Vec<Tuple> = rows.iter().map(|r| Tuple::of_strs(r, 1.0)).collect();
        for t in &tuples {
            for s in &tuples {
                assert_eq!(
                    md.premise_matches_with(t, s, &mut scratch),
                    md.premise_matches(t, s),
                );
            }
        }
    }
}
