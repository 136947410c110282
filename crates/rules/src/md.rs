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

use uniclean_model::{AttrId, FxHashMap, Row, Schema};
use uniclean_similarity::{
    ColumnVerdicts, MyersPattern, ProfileScratch, QGramProfile, SimScratch, SimilarityPredicate,
};

/// Caller-owned buffers, one compiled probe and a master-side kernel cache
/// for MD premise evaluation. One per probing thread, embedded in the
/// engine's `ProbeScratch`.
///
/// [`MatchScratch::compile`] renders a probe row's premise values once.
/// Each value's Myers pattern and padded q-gram profile are built on first
/// use and then shared by candidate generation
/// ([`MatchScratch::probe_profile`], [`MatchScratch::lev_sweep_column`])
/// and by every [`Md::compiled_premise_matches`] verification of that
/// probe. Nothing is keyed by a probe-side symbol, so one scratch can probe
/// rows of any relation.
///
/// The one cache that outlives a probe holds padded q-gram profiles keyed
/// by the *master*-side [`Symbol`]: a master value probed a thousand times
/// is profiled once. Symbols are only meaningful relative to one interner,
/// so the cache is epoch-guarded: the master index stamps every scratch it
/// probes with its build epoch via [`MatchScratch::sync_epoch`], and a
/// stale scratch drops the cache before reuse. Detached master rows (no
/// symbols) bypass it.
///
/// [`Symbol`]: uniclean_model::Symbol
#[derive(Debug, Default)]
pub struct MatchScratch {
    /// Per-call similarity buffers (Myers blocks, Jaro match arrays,
    /// profile padding/hash buffers).
    sim: SimScratch,
    /// The compiled probe: one slot per premise conjunct.
    probe: Vec<ProbeSlot>,
    /// Verdict bitmap of the last columnar sweep.
    column: ColumnVerdicts,
    /// Padded q-gram profiles keyed by `(master-side symbol, q)`.
    master_profiles: FxHashMap<(u32, u32), QGramProfile>,
    /// Un-cached profile slot for symbol-less master rows.
    pb: QGramProfile,
    /// The symbol-space generation `master_profiles` was filled under.
    epoch: u64,
}

/// One compiled premise value of the probe. The buffers are reused from
/// probe to probe.
#[derive(Debug, Default)]
struct ProbeSlot {
    /// The rendered value (empty for null).
    text: String,
    null: bool,
    /// Myers pattern of `text`, valid when `has_pattern`.
    pattern: MyersPattern,
    has_pattern: bool,
    /// Padded q-gram profile of `text` under window `profile_q` (0: none
    /// built yet).
    profile: QGramProfile,
    profile_q: usize,
}

impl ProbeSlot {
    fn pattern(&mut self) -> &MyersPattern {
        if !self.has_pattern {
            self.pattern.build(&self.text);
            self.has_pattern = true;
        }
        &self.pattern
    }

    fn profile(&mut self, q: usize, scratch: &mut ProfileScratch) -> &QGramProfile {
        if self.profile_q != q {
            self.profile.rebuild(&self.text, q, scratch);
            self.profile_q = q;
        }
        &self.profile
    }
}

impl MatchScratch {
    /// Fresh scratch with empty buffers and caches.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-key the master-side cache to `epoch`: a no-op when unchanged, a
    /// cache drop when the caller's symbol space (master index build)
    /// differs from the one the cache was filled under.
    pub fn sync_epoch(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.epoch = epoch;
            self.master_profiles.clear();
        }
    }

    /// Compile `t` as the probe of `md`: render each premise value once.
    /// Patterns and profiles of the values are built on first use.
    pub fn compile<'t>(&mut self, md: &Md, t: impl Row<'t>) {
        self.probe
            .resize_with(md.premises.len(), ProbeSlot::default);
        for (slot, p) in self.probe.iter_mut().zip(&md.premises) {
            let v = t.value(p.attr);
            slot.null = v.is_null();
            slot.text.clear();
            if !slot.null {
                slot.text.push_str(&v.render());
            }
            slot.has_pattern = false;
            slot.profile_q = 0;
        }
    }

    /// The padded q-gram profile of the compiled probe's premise `i` under
    /// window size `q`; `None` when that value is null.
    pub fn probe_profile(&mut self, i: usize, q: usize) -> Option<&QGramProfile> {
        let slot = &mut self.probe[i];
        (!slot.null).then(|| slot.profile(q, &mut self.sim.profile))
    }

    /// Column-at-a-time `~lev` confirmation of the compiled probe's
    /// premise `i`: sweep every text through the probe value's Myers
    /// pattern in one pass ([`MyersPattern::distance_column`]). Returns the
    /// verdict bitmap (bit `j` ⟺ `lev(probe, texts[j]) ≤ max`). The pattern
    /// is the one [`Md::compiled_premise_matches`] verifies with.
    pub fn lev_sweep_column<I>(&mut self, i: usize, max: usize, texts: I) -> &ColumnVerdicts
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let pat = self.probe[i].pattern();
        pat.distance_column(texts, max, &mut self.sim.edit, &mut self.column);
        &self.column
    }
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

    /// [`Md::premise_matches`] of the probe compiled into `scratch` (by
    /// [`MatchScratch::compile`] for this MD) against master row `s`:
    /// identical answers (bit for bit — the tests pin this) and zero
    /// steady-state allocation. This is the probe hot path of the master
    /// index.
    pub fn compiled_premise_matches<'s>(
        &self,
        s: impl Row<'s>,
        scratch: &mut MatchScratch,
    ) -> bool {
        // A premise is a pure conjunction, so evaluation order cannot
        // change the answer — only how fast a non-match is rejected.
        // Equality, the q-gram merge, and the compiled Myers kernel all
        // answer in well under a microsecond; Jaro/Jaro-Winkler run an
        // O(|a|·|b|) matching pass per pair. Check the cheap conjuncts
        // first so most candidates never reach a Jaro computation.
        let is_jaro = |i: &usize| {
            matches!(
                self.premises[*i].pred,
                SimilarityPredicate::Jaro { .. } | SimilarityPredicate::JaroWinkler { .. }
            )
        };
        let n = self.premises.len();
        (0..n)
            .filter(|i| !is_jaro(i))
            .all(|i| self.conjunct_holds(i, s, scratch))
            && (0..n)
                .filter(is_jaro)
                .all(|i| self.conjunct_holds(i, s, scratch))
    }

    /// Conjunct `i` of [`Md::compiled_premise_matches`].
    fn conjunct_holds<'s>(&self, i: usize, s: impl Row<'s>, scratch: &mut MatchScratch) -> bool {
        let p = &self.premises[i];
        let MatchScratch {
            sim,
            probe,
            master_profiles,
            pb,
            ..
        } = scratch;
        let slot = &mut probe[i];
        let sv = s.value(p.master_attr);
        if slot.null || sv.is_null() {
            return false;
        }
        let b = sv.render();
        match &p.pred {
            SimilarityPredicate::Levenshtein { max } => slot
                .pattern()
                .distance_bounded(&b, *max, &mut sim.edit)
                .is_some(),
            SimilarityPredicate::QGramJaccard { q, min } => {
                let mp: &QGramProfile = match s.sym(p.master_attr) {
                    // Master values repeat across probes: profile each
                    // distinct symbol once.
                    Some(sym) => master_profiles
                        .entry((sym.0, *q as u32))
                        .or_insert_with(|| QGramProfile::new_with(&b, *q, &mut sim.profile)),
                    None => {
                        pb.rebuild(&b, *q, &mut sim.profile);
                        pb
                    }
                };
                slot.profile(*q, &mut sim.profile).jaccard(mp) >= *min
            }
            pred => pred.matches_with(&slot.text, &b, sim),
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
            scratch.compile(&md, t);
            for s in &tuples {
                assert_eq!(
                    md.compiled_premise_matches(s, &mut scratch),
                    md.premise_matches(t, s),
                );
            }
        }
    }
}
