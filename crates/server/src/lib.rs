//! Cleaning-as-a-service: a long-lived daemon hosting many named
//! relations (tenants) over the incremental engine.
//!
//! The paper's unified matching+repairing process is batch-oriented; this
//! crate composes the pieces the engine already provides into the serving
//! shape the ROADMAP targets:
//!
//! * each **tenant** binds a session ([`uniclean_core::Cleaner`], whose
//!   `Arc<PreparedCleaner>` holds rules, master index and config built
//!   once at `open`) to a live [`uniclean_core::RepairState`] fed purely
//!   by `ingest` batches through `clean_delta`;
//! * tenants are **sharded** across a fixed worker pool by
//!   `hash(relation) % shards` ([`shard_for`]): all mutations for one
//!   relation are serialized on its owning shard's queue, while distinct
//!   relations clean in parallel;
//! * **reads are online**: `check` answers per-tuple/per-relation
//!   acceptance from the maintained [`uniclean_core::RepairState`]
//!   acceptance index ([`uniclean_core::RepairState::is_accepted`] /
//!   [`uniclean_core::RepairState::violations`]) without running a phase,
//!   and `stats` reports queue depths and
//!   [`uniclean_core::PhaseObserver`]-derived phase timings;
//! * **backpressure is explicit**: per-shard ingest queues are bounded
//!   (`std::sync::mpsc::sync_channel`), and a full queue answers `busy`
//!   with the observed depth instead of buffering without bound;
//!   graceful shutdown stops accepting, then drains every queue.
//!
//! The wire protocol is line-delimited JSON over TCP — one request
//! object per line, one response object per line, speaking the
//! [`uniclean_model::json`] codecs. See [`protocol`] for the verb
//! grammar and the README "Serving" section for examples.
//!
//! With a data directory the daemon is **durable**: every acknowledged
//! `open`/`ingest` is appended to a per-tenant write-ahead log
//! ([`wal`], framed and checksummed by [`uniclean_model::frame`]) and
//! fsync'd before the ack reaches the wire; periodic [`snapshot`]s
//! compact the log; startup [`recovery`] replays the longest valid WAL
//! prefix on top of the newest loadable snapshot, truncating torn tails
//! and quarantining unrecoverable tenant directories. Replay correctness
//! rests on the §5.2 order-independence property: re-feeding the logged
//! batches through `clean_delta` reproduces the pre-crash state
//! bit-identically. Fault injection for crash tests lives in [`faults`]
//! (cfg-gated behind the `failpoints` feature).
//!
//! Each durability invariant has one owner: the record grammar and the
//! shape of a valid log are [`wal::WalRecord`] and `wal::RecordScan`
//! (recovery, `repl_fetch` and the standby's apply all read through
//! them); "apply a batch and account for it" is
//! `registry::TenantEntry::apply` (live ingest and WAL replay alike); a
//! tenant comes up through `Registry::open` or through [`recovery`]'s one
//! replay-and-install path; and the accepted input history has one copy,
//! [`uniclean_core::RepairState::base`], which compaction renders the
//! snapshot's `base_rows` from.

pub mod daemon;
pub mod faults;
pub mod protocol;
pub mod recovery;
pub mod registry;
pub mod replication;
pub mod shard;
pub mod snapshot;
pub mod stats;
pub mod wal;

pub use daemon::{Daemon, DaemonConfig};
pub use protocol::{OpenSpec, Request};
pub use recovery::RecoveryReport;

/// The on-disk directory name for a tenant, a conservative percent
/// encoding of the relation name: ASCII alphanumerics plus `-` and `_`
/// pass through, every other byte becomes `%XX` (uppercase hex). The
/// empty name maps to `"%"`. Injective, never empty, never contains `.`
/// or a path separator — recovery relies on all three (dotted names in
/// the data root are skipped as non-tenant entries, e.g. quarantined
/// `*.corrupt-N` directories).
pub fn tenant_dir_name(name: &str) -> String {
    if name.is_empty() {
        return "%".to_string();
    }
    let mut out = String::with_capacity(name.len());
    for &b in name.as_bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' => out.push(b as char),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// The shard owning a relation: `hash(relation) % shards`, with the
/// workspace's deterministic [`uniclean_model::FxHasher`] — stable across
/// processes and runs, so clients and tests can predict placement.
pub fn shard_for(relation: &str, shards: usize) -> usize {
    use std::hash::Hasher;
    let mut h = uniclean_model::FxHasher::default();
    h.write(relation.as_bytes());
    (h.finish() % shards.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_placement_is_deterministic_and_in_range() {
        for shards in [1, 2, 4, 7] {
            for name in ["hosp", "dblp", "tran", "a", ""] {
                let s = shard_for(name, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for(name, shards), "stable for {name}");
            }
        }
        // One shard owns everything.
        assert_eq!(shard_for("anything", 1), 0);
    }

    #[test]
    fn tenant_dir_names_are_safe_and_injective() {
        assert_eq!(tenant_dir_name("hosp"), "hosp");
        assert_eq!(tenant_dir_name("a-b_C9"), "a-b_C9");
        assert_eq!(tenant_dir_name(""), "%");
        assert_eq!(tenant_dir_name("a.b"), "a%2Eb");
        assert_eq!(tenant_dir_name("a/b"), "a%2Fb");
        assert_eq!(tenant_dir_name(".."), "%2E%2E");
        assert_eq!(tenant_dir_name("é"), "%C3%A9");
        // Distinct names never collide on disk.
        let names = ["a.b", "a%2Eb", "a/b", "a\\b", "", "%", ".", ".."];
        let encoded: Vec<String> = names.iter().map(|n| tenant_dir_name(n)).collect();
        for (i, e) in encoded.iter().enumerate() {
            assert!(!e.contains('.') && !e.contains('/') && !e.contains('\\'));
            for (j, f) in encoded.iter().enumerate() {
                assert_eq!(i == j, e == f, "{:?} vs {:?}", names[i], names[j]);
            }
        }
    }
}
