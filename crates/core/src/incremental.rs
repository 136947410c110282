//! Incremental cleaning: a persistent [`RepairState`] plus
//! [`Cleaner::clean_delta`].
//!
//! A long-lived service does not receive whole relations — it receives a
//! relation once and then *batches of appended tuples*. Re-running the
//! unified fixpoint from scratch on every batch throws away everything the
//! previous run learned. A [`RepairState`] keeps the structures the one
//! phase loop ([`crate::session`]) runs over alive between calls, so a
//! delta is that same loop *continuing* instead of starting fresh:
//!
//! * the **`cRepair` fixpoint** persists. `cRepair` is a monotone,
//!   write-once inference whose outcome is independent of rule-application
//!   order (§5.2), so appending a batch and continuing the old fixpoint —
//!   seeding only the new tuples — is a legal application order of the
//!   from-scratch run over the concatenated relation. Cost: O(batch +
//!   cascade), not O(|D|).
//! * the **2-in-1 structure** persists pinned to the post-`cRepair`
//!   state and is never rebuilt: `cRepair` feeds each settled cell its
//!   cascade rewrites to `TwoInOne::on_update` as it writes it, and batch
//!   tuples enter by insert-time group/entropy deltas
//!   (`TwoInOne::insert_tuples`). Its group ids then depend on how the
//!   relation arrived, which no outcome sees (see `two_in_one`). Each
//!   `eRepair` run works on a clone, which `hRepair` then takes over as
//!   its equivalence classes.
//! * the **MD witness cache** persists across calls, one for all three
//!   phases, based on the post-`cRepair` state: premises untouched by any
//!   repair are never re-verified — re-verification is targeted at exactly
//!   the tuples whose cells the batch, its cascade or the call's
//!   `eRepair`/`hRepair` rewrote.
//! * the **acceptance check** (`Dr ⊨ Σ`, `(Dr, Dm) ⊨ Γ`) is maintained
//!   by [`ConsistencyIndex`] from the diff of the final relations: a
//!   delta call re-probes the master index for changed tuples only.
//!
//! **Escalation.** The continuation is only kept when it provably equals
//! the from-scratch run. A batch cascade that *repairs previously settled
//! tuples* is still legal (any application order yields the same fixes) —
//! the state keeps those writes, and the 2-in-1 follows each one as it
//! lands. What cannot be reproduced by a continuation is *conflicting
//! asserted evidence racing for one cell* (the one order-dependent
//! situation in `cRepair`): the loop's guard
//! detects it and the state falls back to a full reclean of the
//! concatenated relation. The [`MasterSource::SelfSnapshot`] mode always
//! escalates — its master view is the evolving data itself, so nothing
//! prepared can be reused.
//!
//! **Contract.** `begin` + repeated `clean_delta` leaves the state's
//! repaired relation bit-identical — cell values, confidences and marks —
//! to a from-scratch [`Cleaner::clean`] over the concatenated input, along
//! with the same cost and acceptance verdict (`tests/incremental.rs` pins
//! this with a property test over random batch splits).
//! The `eRepair`/`hRepair` phases re-derive their fixes from the persisted
//! post-`cRepair` state on every call (their decisions are global), so the
//! state's fix log keeps every `cRepair` fix (write-once, so bounded by the
//! cell count) and only the last call's `eRepair`/`hRepair` fixes. The warm
//! witness cache covers every phase's MD premise verification, and the
//! acceptance index every verdict. `hRepair` projects no classes of its
//! own: its round one visits the groups of `eRepair`'s 2-in-1 whose
//! counts can violate, and checks every tuple against the constant CFDs
//! and MDs (the witness lists come warm from the cache); its later rounds
//! visit only what the previous round changed.
//!
//! [`MasterSource::SelfSnapshot`]: crate::MasterSource::SelfSnapshot

use std::sync::Arc;

use uniclean_model::{repair_cost, Relation, Tuple, TupleId};

use crate::acceptance::ConsistencyIndex;
pub use crate::acceptance::{TupleViolation, ViolationKind};
use crate::error::CleanError;
use crate::fix::FixReport;
use crate::session::{
    full_clean, run_phases, CleanResult, Cleaner, NoOpObserver, Phase, PhaseObserver, PhaseStats,
    PreparedCleaner, Warm,
};

/// The persistent, per-relation state of an incremental cleaning session.
///
/// Created by [`Cleaner::begin`], advanced by [`Cleaner::clean_delta`].
/// Owns the concatenated original input, the current repair, the
/// structures the phase loop continues from and the acceptance index.
pub struct RepairState {
    prepared: Arc<PreparedCleaner>,
    phase: Phase,
    /// Concatenated original (dirty) input — the §3.1 cost baseline and
    /// the escalation input.
    base: Relation,
    /// The current repair (last call's output).
    repaired: Relation,
    /// The live `cRepair` fixpoint, the post-`cRepair` 2-in-1 structure
    /// and the warm witness cache. `None` under a self-snapshot master,
    /// where nothing per-relation can be pinned and every delta recleans.
    pub(crate) warm: Option<Warm>,
    cons: ConsistencyIndex,
    cost: f64,
    /// The fixes behind the current repair: every `cRepair` fix since the
    /// last full clean, then the last call's `eRepair`/`hRepair` fixes.
    log: FixReport,
    /// How many leading records of `log` are `cRepair` fixes.
    c_logged: usize,
    escalations: usize,
    deltas: usize,
}

impl RepairState {
    /// The current repaired relation.
    pub fn repaired(&self) -> &Relation {
        &self.repaired
    }

    /// The concatenated original input the state has absorbed.
    pub fn base(&self) -> &Relation {
        &self.base
    }

    /// Tuples currently covered.
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Is the state empty?
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Does the current repair satisfy `Σ` and `Γ`?
    pub fn consistent(&self) -> bool {
        self.cons.consistent()
    }

    /// `cost(Dr, D)` over the concatenated input (§3.1 model).
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// The phase prefix this state runs (fixed at [`Cleaner::begin`]).
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The fixes behind the current repair: every deterministic fix since
    /// the last full clean (each cell is written at most once), then the
    /// reliable and possible fixes the last call re-derived. A cell can
    /// appear more than once (a reliable fix revised by `hRepair`);
    /// [`FixReport::final_states`] equals that of a from-scratch clean of
    /// the concatenated input.
    pub fn log(&self) -> &FixReport {
        &self.log
    }

    /// Log one call's `report`: its `cRepair` fixes (counted in `phases`)
    /// join the kept ones, its `eRepair`/`hRepair` fixes replace the
    /// previous call's. A full clean resets `c_logged` first, so its report
    /// replaces both parts.
    fn record(&mut self, report: FixReport, phases: &[PhaseStats]) {
        self.log.truncate(self.c_logged);
        self.c_logged += phases
            .iter()
            .find(|s| s.phase == Phase::CRepair)
            .map_or(0, |s| s.fixes);
        self.log.extend(report);
    }

    /// How many `clean_delta` calls fell back to a full reclean.
    pub fn escalations(&self) -> usize {
        self.escalations
    }

    /// How many `clean_delta` calls this state has absorbed.
    pub fn deltas(&self) -> usize {
        self.deltas
    }

    /// Is tuple `tid` of the current repair accepted — does it violate no
    /// CFD and no MD? The per-tuple slice of [`RepairState::consistent`]:
    /// the relation-level verdict holds exactly when every tuple is
    /// accepted. Served from the maintained acceptance index, **without
    /// running a phase or touching master data**: the CFD half reads the
    /// live group counters, the MD half the per-(tuple, MD) verdicts.
    ///
    /// A tuple in a variable-CFD group holding two distinct non-null RHS
    /// values is rejected along with the whole group — group violations
    /// are attributed to every member, since repairing any of them could
    /// resolve the clash.
    ///
    /// Panics if `tid` is out of range (callers serving untrusted ids
    /// should bound-check against [`RepairState::len`] first).
    ///
    /// ```
    /// use uniclean_core::{Cleaner, Phase};
    /// use uniclean_model::{Relation, Schema, Tuple, TupleId};
    /// use uniclean_rules::{parse_rules, RuleSet};
    ///
    /// let s = Schema::of_strings("tran", &["AC", "city"]);
    /// let parsed = parse_rules("cfd phi1: tran([AC=131] -> [city=Edi])", &s, None).unwrap();
    /// let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
    /// let cleaner = Cleaner::builder().rules(rules).build().unwrap();
    ///
    /// // cRepair alone cannot touch this low-confidence cell, so the
    /// // violation survives into the repair — and the index reports it.
    /// let d = Relation::new(s, vec![Tuple::of_strs(&["131", "Ldn"], 0.0)]);
    /// let (state, result) = cleaner.begin(&d, Phase::CRepair);
    /// assert!(!result.consistent);
    /// assert!(!state.is_accepted(TupleId(0)));
    /// assert_eq!(state.violations(TupleId(0))[0].rule, "phi1");
    /// ```
    pub fn is_accepted(&self, tid: TupleId) -> bool {
        self.violations(tid).is_empty()
    }

    /// The rules rejecting tuple `tid` of the current repair — empty
    /// exactly when [`RepairState::is_accepted`] holds. Like
    /// `is_accepted`, read off the acceptance index alone. Rules appear in
    /// declaration order, CFDs before MDs.
    ///
    /// ```
    /// use uniclean_core::{Cleaner, Phase, ViolationKind};
    /// use uniclean_model::{Relation, Schema, Tuple, TupleId};
    /// use uniclean_rules::{parse_rules, RuleSet};
    ///
    /// let s = Schema::of_strings("tran", &["AC", "city"]);
    /// let parsed = parse_rules("cfd phi1: tran([AC] -> [city])", &s, None).unwrap();
    /// let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
    /// let cleaner = Cleaner::builder().rules(rules).build().unwrap();
    ///
    /// // Two equally-confident witnesses for one area code: cRepair
    /// // cannot decide, so both group members stay in violation.
    /// let d = Relation::new(
    ///     s,
    ///     vec![
    ///         Tuple::of_strs(&["131", "Edi"], 0.0),
    ///         Tuple::of_strs(&["131", "Ldn"], 0.0),
    ///     ],
    /// );
    /// let (state, _) = cleaner.begin(&d, Phase::CRepair);
    /// let v = state.violations(TupleId(1));
    /// assert_eq!(v.len(), 1);
    /// assert_eq!(v[0].rule, "phi1");
    /// assert_eq!(v[0].kind, ViolationKind::VariableCfd);
    /// ```
    pub fn violations(&self, tid: TupleId) -> Vec<TupleViolation> {
        self.cons
            .violations(self.prepared.rules(), &self.repaired, tid)
    }
}

impl std::fmt::Debug for RepairState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepairState")
            .field("tuples", &self.base.len())
            .field("phase", &self.phase)
            .field("consistent", &self.consistent())
            .field("deltas", &self.deltas)
            .field("escalations", &self.escalations)
            .finish_non_exhaustive()
    }
}

impl Cleaner {
    /// Clean `d` and keep the session state alive for incremental
    /// [`Cleaner::clean_delta`] calls. The returned state's repair equals
    /// [`Cleaner::clean`] on `d` exactly.
    ///
    /// ```
    /// use uniclean_core::{Cleaner, CleanConfig, Phase};
    /// use uniclean_model::{Relation, Schema, Tuple};
    /// use uniclean_rules::{parse_rules, RuleSet};
    ///
    /// let s = Schema::of_strings("tran", &["AC", "city"]);
    /// let parsed = parse_rules("cfd phi1: tran([AC=131] -> [city=Edi])", &s, None).unwrap();
    /// let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
    /// let cleaner = Cleaner::builder().rules(rules).build().unwrap();
    ///
    /// let d = Relation::new(s, vec![Tuple::of_strs(&["131", "Ldn"], 0.5)]);
    /// let (mut state, first) = cleaner.begin(&d, Phase::Full);
    /// assert!(first.consistent);
    ///
    /// // A batch arrives: only the new tuples are cleaned.
    /// let batch = vec![Tuple::of_strs(&["131", "Lds"], 0.5)];
    /// let next = cleaner.clean_delta(&mut state, &batch).unwrap();
    /// assert_eq!(next.repaired.len(), 2);
    /// assert!(next.consistent);
    /// ```
    pub fn begin(&self, d: &Relation, phase: Phase) -> (RepairState, CleanResult) {
        self.begin_observed(d, phase, &mut NoOpObserver)
    }

    /// [`Cleaner::begin`] with a [`PhaseObserver`] receiving per-phase
    /// timing and fix counts as the initial clean progresses.
    pub fn begin_observed(
        &self,
        d: &Relation,
        phase: Phase,
        observer: &mut dyn PhaseObserver,
    ) -> (RepairState, CleanResult) {
        let (result, warm, cons) = full_clean(self.prepared(), d, phase, true, observer);
        let mut state = RepairState {
            prepared: self.prepared().clone(),
            phase,
            base: d.clone(),
            repaired: result.repaired.clone(),
            warm,
            cons,
            cost: result.cost,
            log: FixReport::new(),
            c_logged: 0,
            escalations: 0,
            deltas: 0,
        };
        state.record(result.report.clone(), &result.phases);
        (state, result)
    }

    /// A [`RepairState`] over **zero tuples** — the serving shape, where a
    /// relation is registered first and fed purely by
    /// [`Cleaner::clean_delta`] batches. Equivalent to
    /// [`Cleaner::begin`] on an empty relation of the session's data
    /// schema; the pinned contract (`tests/incremental.rs`) is that
    /// `begin_empty` + `clean_delta(batch)` leaves the state bit-identical
    /// to `begin(batch)`.
    ///
    /// ```
    /// use uniclean_core::{Cleaner, Phase};
    /// use uniclean_model::{Relation, Schema, Tuple};
    /// use uniclean_rules::{parse_rules, RuleSet};
    ///
    /// let s = Schema::of_strings("tran", &["AC", "city"]);
    /// let parsed = parse_rules("cfd phi1: tran([AC=131] -> [city=Edi])", &s, None).unwrap();
    /// let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
    /// let cleaner = Cleaner::builder().rules(rules).build().unwrap();
    ///
    /// let mut state = cleaner.begin_empty(Phase::Full);
    /// assert!(state.is_empty());
    /// assert!(state.consistent());
    ///
    /// let batch = vec![Tuple::of_strs(&["131", "Ldn"], 0.5)];
    /// let result = cleaner.clean_delta(&mut state, &batch).unwrap();
    /// assert!(result.consistent);
    /// assert_eq!(state.len(), 1);
    /// ```
    pub fn begin_empty(&self, phase: Phase) -> RepairState {
        let empty = Relation::empty(self.prepared().rules().schema().clone());
        self.begin(&empty, phase).0
    }

    /// Absorb a batch of appended tuples into `state` incrementally.
    ///
    /// The appended tuples are cleaned *against* the existing state: the
    /// persisted `cRepair` fixpoint continues over them, the 2-in-1
    /// structure follows the cascade and extends by insert-time deltas,
    /// and MD/CFD premises are re-verified only where the batch (or its
    /// cascade) touched them. When the batch brings asserted evidence that
    /// conflicts over one cell, the call transparently escalates to a full
    /// reclean of the concatenated relation (see
    /// [`RepairState::escalations`]).
    ///
    /// After the call, `state.repaired()` is **bit-identical** to
    /// `self.clean(&concatenated, state.phase()).repaired` — same values,
    /// confidences and marks, same cost and acceptance verdict. The
    /// returned [`CleanResult`] reports the fixes this call applied (on
    /// the fast path: the batch's deterministic cascade plus the
    /// re-derived reliable/possible fixes).
    ///
    /// Errors: [`CleanError::ForeignState`] when `state` was produced by a
    /// different [`Cleaner`]; [`CleanError::BatchArityMismatch`] when a
    /// batch tuple does not fit the data schema;
    /// [`CleanError::Model`] when a batch cell carries a confidence
    /// outside `[0, 1]` (validated in release builds too).
    ///
    /// ```
    /// use uniclean_core::{Cleaner, Phase};
    /// use uniclean_model::{Relation, Schema, Tuple};
    /// use uniclean_rules::{parse_rules, RuleSet};
    ///
    /// let s = Schema::of_strings("tran", &["AC", "city"]);
    /// let parsed = parse_rules("cfd phi1: tran([AC=131] -> [city=Edi])", &s, None).unwrap();
    /// let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
    /// let cleaner = Cleaner::builder().rules(rules).build().unwrap();
    ///
    /// let base = Relation::new(s.clone(), vec![Tuple::of_strs(&["131", "Ldn"], 0.5)]);
    /// let (mut state, _) = cleaner.begin(&base, Phase::Full);
    ///
    /// // Batches arrive over time; each call absorbs one incrementally.
    /// for city in ["Lds", "Gla"] {
    ///     let batch = vec![Tuple::of_strs(&["131", city], 0.5)];
    ///     let result = cleaner.clean_delta(&mut state, &batch).unwrap();
    ///     assert!(result.consistent);
    /// }
    /// // The state equals a from-scratch clean of all three tuples:
    /// assert_eq!(state.len(), 3);
    /// assert!(state
    ///     .repaired()
    ///     .rows()
    ///     .all(|t| t.value(s.attr_id_or_panic("city")) == &uniclean_model::Value::str("Edi")));
    /// ```
    pub fn clean_delta(
        &self,
        state: &mut RepairState,
        batch: &[Tuple],
    ) -> Result<CleanResult, CleanError> {
        self.clean_delta_observed(state, batch, &mut NoOpObserver)
    }

    /// [`Cleaner::clean_delta`] with a [`PhaseObserver`] receiving
    /// per-phase timing and fix counts as the delta call progresses — the
    /// same hook [`Cleaner::clean_observed`] offers for one-shot cleans,
    /// so a long-lived service can meter its incremental path through the
    /// one instrumentation surface. Every `on_phase_start` is paired with
    /// an `on_phase_end`. A call that escalates mid-`cRepair` first ends
    /// the aborted continuation (its seconds, and the fixes it kept: 0),
    /// then streams the reclean's phases; the returned
    /// [`CleanResult::phases`] are the reclean's alone.
    pub fn clean_delta_observed(
        &self,
        state: &mut RepairState,
        batch: &[Tuple],
        observer: &mut dyn PhaseObserver,
    ) -> Result<CleanResult, CleanError> {
        if !Arc::ptr_eq(&state.prepared, self.prepared()) {
            return Err(CleanError::ForeignState);
        }
        let prepared = state.prepared.clone();
        let arity = prepared.rules().schema().arity();
        if let Some(t) = batch.iter().find(|t| t.arity() != arity) {
            return Err(CleanError::BatchArityMismatch {
                expected: arity,
                found: t.arity(),
            });
        }
        // Ingest validation in release builds too: a confidence outside
        // [0, 1] would skew the η-threshold seeding and the cost model
        // silently (`Cell::new` only debug-asserts the range).
        for t in batch {
            t.validate_cf()?;
        }

        let settled = state.base.len();
        for t in batch {
            state.base.push(t.clone());
        }
        state.deltas += 1;

        // Continue the persisted structures over the batch. Without them
        // (self-snapshot master), or when the guard aborts the
        // continuation, reclean the concatenated relation from scratch.
        let continued = state.warm.take().and_then(|mut warm| {
            warm.append(batch);
            run_phases(&prepared, state.phase, warm, Some(settled), true, observer)
        });
        let Some(run) = continued else {
            let (result, warm, cons) =
                full_clean(&prepared, &state.base, state.phase, true, observer);
            state.repaired = result.repaired.clone();
            state.warm = warm;
            state.cons = cons;
            state.cost = result.cost;
            state.c_logged = 0;
            state.record(result.report.clone(), &result.phases);
            state.escalations += 1;
            return Ok(result);
        };

        // Targeted acceptance re-verification: only tuples whose final
        // cells changed (plus the batch) are re-checked against Σ and Γ.
        let view = prepared.view(&run.work);
        let master = view.master().map(|m| (m.dm, m.index));
        state
            .cons
            .update(prepared.rules(), master, &state.repaired, &run.work);
        state.cost = repair_cost(&state.base, &run.work);
        state.repaired = run.work;
        state.warm = run.warm;
        state.record(run.report.clone(), &run.phases);
        Ok(CleanResult {
            repaired: state.repaired.clone(),
            report: run.report,
            cost: state.cost,
            consistent: state.cons.consistent(),
            phases: run.phases,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CleanConfig;
    use uniclean_model::{FixMark, Schema, Value};
    use uniclean_rules::{parse_rules, RuleSet};

    /// A batch whose `cRepair` cascade rewrites a settled tuple's value
    /// keeps the pinned 2-in-1 exact without a rebuild: the settled tuple
    /// is recounted under `K -> A` and moves to another class of
    /// `A -> B`, and the kept structure equals a rebuild over the kept
    /// post-`cRepair` relation.
    #[test]
    fn a_cascade_into_a_settled_tuple_keeps_the_pinned_two_in_one_exact() {
        let s = Schema::of_strings("r", &["K", "A", "B"]);
        let parsed = parse_rules("cfd fd: r([K] -> [A])\ncfd fa: r([A] -> [B])", &s, None).unwrap();
        let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
        let cleaner = Cleaner::builder()
            .rules(rules.clone())
            .config(CleanConfig {
                eta: 0.8,
                ..CleanConfig::default()
            })
            .build()
            .unwrap();
        let a = s.attr_id_or_panic("A");
        let row = |vals: [&str; 3], asserted: &[usize]| {
            let mut t = Tuple::of_strs(&vals, 0.0);
            for &i in asserted {
                t.set(
                    s.attr_ids().nth(i).unwrap(),
                    Value::str(vals[i]),
                    1.0,
                    FixMark::Untouched,
                );
            }
            t
        };
        // Tuple 0 waits on `fd` for an asserted A of key k2; tuple 1 holds
        // the class a2 of `fa`.
        let base = Relation::new(
            s.clone(),
            vec![row(["k2", "a0", "b0"], &[0]), row(["k9", "a2", "b2"], &[0])],
        );
        let (mut state, _) = cleaner.begin(&base, Phase::Full);
        cleaner
            .clean_delta(&mut state, &[row(["k2", "a2", "b2"], &[0, 1])])
            .unwrap();
        assert_eq!(state.escalations(), 0);
        let warm = state.warm.as_ref().expect("a CFD-only state is kept");
        assert_eq!(warm.post_c.tuple(TupleId(0)).value(a), &Value::str("a2"));
        warm.two
            .as_ref()
            .expect("eRepair ran")
            .assert_consistent_with_rebuild(&rules, &warm.post_c);
    }
}
