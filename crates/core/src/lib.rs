//! UniClean core — the three-phase cleaning system of the paper (§3.2).
//!
//! ```text
//!           dirty D ──► cRepair ──► eRepair ──► hRepair ──► repair Dr
//!                     confidence     entropy     heuristic
//!                    deterministic  reliable     possible
//!                        fixes        fixes        fixes
//! ```
//!
//! * [`crepair`] — deterministic fixes from confidence analysis and master
//!   data (§5, Figs 4–5);
//! * [`erepair`] — reliable fixes from information entropy (§6, Fig 6),
//!   backed by the 2-in-1 hash-table + entropy-ordered-tree structure of
//!   §6.3 ([`two_in_one`]);
//! * [`hrepair`] — possible fixes via equivalence classes and the cost
//!   model (§7, extending Cong et al.), preserving deterministic fixes
//!   (Corollary 7.1);
//! * [`session`] — the [`Cleaner`] session API and the one phase loop
//!   behind it: the [`Phase`] type (phase identity and phase-prefix
//!   selector), builder construction, [`MasterSource`] (external /
//!   self-snapshot / none), typed [`CleanError`]s, the [`PhaseObserver`]
//!   instrumentation hook, [`CleanResult`], and the persistent
//!   [`PreparedCleaner`] (rules/index/config built once per session,
//!   shared by every call);
//! * [`incremental`] — the per-relation [`RepairState`] and
//!   [`Cleaner::clean_delta`], which absorb appended batches by running
//!   the same loop over the persisted `cRepair` fixpoint and warm
//!   structures, bit-identical to a from-scratch reclean;
//! * [`acceptance`] — [`ConsistencyIndex`], the one owner of the §3.2
//!   acceptance verdict (`Dr ⊨ Σ`, `(Dr, Dm) ⊨ Γ`): one verdict per
//!   (tuple, MD) from master-index probes, built once per full clean and
//!   maintained from diffs by deltas;
//! * [`master_index`] — access paths to master data (hash indexes keyed by
//!   the master store's symbols for equality premises, q-gram count
//!   filtering for similarity premises), chosen per MD by the
//!   planner and probed by the phases and acceptance alike;
//! * [`parallel`] — the scoped-thread chunk–merge–apply fan-out the phases
//!   use for their read-heavy stages, bit-identical at every thread count;
//! * [`fix`] — per-cell fix records and phase statistics;
//! * [`entropy`] — the paper's base-`k` entropy `H(ϕ | Y = ȳ)` (§6.1) and
//!   the entropy-ordered set of conflict sets (§6.3).

pub mod acceptance;
pub mod config;
pub mod crepair;
pub mod entropy;
pub mod erepair;
pub mod error;
pub mod fix;
pub mod hrepair;
pub mod incremental;
pub mod master_index;
mod md_cache;
pub mod parallel;
mod pattern_syms;
pub mod session;
pub mod two_in_one;

/// Re-export of the similarity crate, so downstream layers (server, CLI)
/// can reach kernel dispatch introspection ([`similarity::simd`]) without a
/// direct dependency.
pub use uniclean_similarity as similarity;

pub use acceptance::{ConsistencyIndex, TupleViolation, ViolationKind};
pub use config::CleanConfig;
pub use crepair::c_repair;
pub use erepair::e_repair;
pub use error::{CleanError, ConfigError};
pub use fix::{FixRecord, FixReport};
pub use hrepair::h_repair;
pub use incremental::RepairState;
pub use master_index::{IndexPolicy, MasterIndex, ProbeScratch};
pub use parallel::effective_parallelism;
pub use session::{
    CleanResult, Cleaner, CleanerBuilder, MasterSource, NoOpObserver, Phase, PhaseObserver,
    PhaseStats, PhaseTimings, PreparedCleaner,
};
