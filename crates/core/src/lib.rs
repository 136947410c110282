//! UniClean core — the three-phase cleaning system of the paper (§3.2).
//!
//! ```text
//!           dirty D ──► cRepair ──► eRepair ──► hRepair ──► repair Dr
//!                     confidence     entropy     heuristic
//!                    deterministic  reliable     possible
//!                        fixes        fixes        fixes
//! ```
//!
//! The three phases run consecutively on the caller's thread: one clean is
//! one engine thread. A [`Cleaner`] is `Send + Sync`, so independent
//! cleans — the daemon's tenants on their shards — run in parallel.
//!
//! * [`crepair`] — deterministic fixes from confidence analysis and master
//!   data (§5, Figs 4–5);
//! * [`erepair`] — reliable fixes from information entropy (§6, Fig 6),
//!   backed by the 2-in-1 hash-table + entropy-ordered-tree structure of
//!   §6.3 ([`two_in_one`]), the one variable-CFD group table of eRepair,
//!   hRepair and acceptance;
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
//!   structures, which undo journals roll back to their post-`cRepair`
//!   state, bit-identical to a from-scratch reclean;
//! * [`acceptance`] — [`ConsistencyIndex`], the one owner of the §3.2
//!   acceptance verdict (`Dr ⊨ Σ`, `(Dr, Dm) ⊨ Γ`): a reader of the
//!   structures the phase loop keeps exact for its output — the final
//!   2-in-1 for variable CFDs, the witness memo for one verdict per
//!   (tuple, MD) — graded at the end of a full clean and maintained from
//!   diffs by deltas;
//! * [`master_index`] — access paths to master data (hash indexes keyed by
//!   the master store's symbols for equality premises, q-gram count
//!   filtering for similarity premises), chosen per MD by the planner.
//!   A probe compiles the probed row's premise values once for candidate
//!   generation and verification; the engine probes only on a miss of its
//!   one memo of witness lists, keyed by premise values;
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
pub use master_index::{MasterIndex, ProbeScratch};
pub use session::{
    CleanResult, Cleaner, CleanerBuilder, MasterSource, NoOpObserver, Phase, PhaseObserver,
    PhaseStats, PhaseTimings, PreparedCleaner,
};
