//! Storage-refactor equivalence pins.
//!
//! The columnar store migration promises **bit-identical** `clean()` and
//! `begin`/`clean_delta` outputs. These golden fingerprints were captured
//! from the row-major implementation immediately before the migration; the
//! columnar engine must reproduce them exactly, at every parallelism
//! setting. A fingerprint covers every cell (value, confidence bits, fix
//! mark), every fix record, the §3.1 cost bits, the acceptance verdict and
//! the per-phase fix counts — nothing observable is left out.
//!
//! The `SELF_*` fingerprints pin the master-free mode
//! ([`MasterSource::SelfSnapshot`]) the same way; they were captured from
//! the engine in which self-matching was still a `CleanConfig` flag, before
//! the per-phase master view took over deciding which rows each phase round
//! matches.

mod common;

use std::num::NonZeroUsize;

use uniclean::core::{CleanConfig, CleanResult, Cleaner, MasterSource, Phase};
use uniclean::datagen::{hosp_workload, GenParams};
use uniclean::model::{FixMark, Relation, Value};

/// FNV-1a over a canonical byte rendering of a value.
fn hash_value(h: &mut u64, v: &Value) {
    match v {
        Value::Null => hash_bytes(h, &[0]),
        Value::Str(s) => {
            hash_bytes(h, &[1]);
            hash_bytes(h, s.as_bytes());
        }
        Value::Int(i) => {
            hash_bytes(h, &[2]);
            hash_bytes(h, &i.to_le_bytes());
        }
    }
}

fn hash_bytes(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

fn mark_byte(m: FixMark) -> u8 {
    match m {
        FixMark::Untouched => 0,
        FixMark::Deterministic => 1,
        FixMark::Reliable => 2,
        FixMark::Possible => 3,
    }
}

/// Fingerprint of the observable repair state: cells, cost, verdict.
fn fingerprint_relation(h: &mut u64, r: &Relation) {
    for (_, t) in r.iter() {
        for a in r.schema().attr_ids() {
            hash_value(h, t.value(a));
            hash_bytes(h, &t.cf(a).to_bits().to_le_bytes());
            hash_bytes(h, &[mark_byte(t.mark(a))]);
        }
    }
}

fn fingerprint(result: &CleanResult) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    fingerprint_relation(&mut h, &result.repaired);
    for rec in result.report.records() {
        hash_bytes(&mut h, &(rec.tuple.index() as u64).to_le_bytes());
        hash_bytes(&mut h, &(rec.attr.index() as u64).to_le_bytes());
        hash_value(&mut h, &rec.old);
        hash_value(&mut h, &rec.new);
        hash_bytes(&mut h, &[mark_byte(rec.mark)]);
        hash_bytes(&mut h, rec.rule.as_bytes());
    }
    hash_bytes(&mut h, &result.cost.to_bits().to_le_bytes());
    hash_bytes(&mut h, &[result.consistent as u8]);
    for p in &result.phases {
        hash_bytes(&mut h, &(p.fixes as u64).to_le_bytes());
    }
    h
}

fn cleaner(
    rules: &uniclean::rules::RuleSet,
    master: MasterSource,
    eta: f64,
    threads: usize,
) -> Cleaner {
    Cleaner::builder()
        .rules(rules.clone())
        .master(master)
        .config(CleanConfig {
            eta,
            parallelism: Some(NonZeroUsize::new(threads).unwrap()),
            ..CleanConfig::default()
        })
        .build()
        .expect("valid session")
}

/// Golden fingerprints captured from the row-major engine (pre-refactor).
const EXAMPLE_1_1_FULL: u64 = 0x3770b36c980bd956;
const HOSP_1K_CE: u64 = 0x2d559265e550714c;
const HOSP_1K_DELTA: u64 = 0x10a0077225d3f17f;

/// Golden fingerprints of the master-free mode (see the module doc).
const SELF_EXAMPLE_1_1_FULL: u64 = 0x97bf67abd4dd55da;
const SELF_HOSP_300_FULL: u64 = 0x20c88024c066587a;
const SELF_HOSP_300_DELTA: u64 = 0x26b1a244aef6c7a3;

#[test]
fn example_1_1_clean_matches_row_major_engine() {
    let (_, rules, dirty, master) = common::example_1_1();
    for threads in [1usize, 4] {
        let uni = cleaner(&rules, MasterSource::external(master.clone()), 0.8, threads);
        let fp = fingerprint(&uni.clean(&dirty, Phase::Full));
        assert_eq!(
            fp, EXAMPLE_1_1_FULL,
            "example 1.1: threads={threads} fp={fp:#018x}"
        );
    }
}

#[test]
fn hosp_1k_clean_matches_row_major_engine() {
    let w = hosp_workload(&GenParams {
        tuples: 1000,
        master_tuples: 300,
        ..GenParams::default()
    });
    for threads in [1usize, 4] {
        let uni = cleaner(
            &w.rules,
            MasterSource::external(w.master.clone()),
            1.0,
            threads,
        );
        let fp = fingerprint(&uni.clean(&w.dirty, Phase::CERepair));
        assert_eq!(fp, HOSP_1K_CE, "hosp 1k: threads={threads} fp={fp:#018x}");
    }
}

#[test]
fn hosp_1k_begin_plus_delta_matches_row_major_engine() {
    let w = hosp_workload(&GenParams {
        tuples: 1000,
        master_tuples: 300,
        ..GenParams::default()
    });
    for threads in [1usize, 4] {
        let uni = cleaner(
            &w.rules,
            MasterSource::external(w.master.clone()),
            1.0,
            threads,
        );
        let h = delta_fingerprint(&uni, &w.dirty, 800, Phase::CERepair);
        assert_eq!(
            h, HOSP_1K_DELTA,
            "hosp 1k delta: threads={threads} fp={h:#018x}"
        );
    }
}

#[test]
fn example_1_1_self_snapshot_clean_is_pinned() {
    let (_, rules, dirty, _) = common::example_1_1();
    for threads in [1usize, 4] {
        let uni = cleaner(&rules, MasterSource::SelfSnapshot, 0.8, threads);
        let result = uni.clean(&dirty, Phase::Full);
        assert!(!result.report.is_empty(), "the pin must exercise repairs");
        let fp = fingerprint(&result);
        assert_eq!(
            fp, SELF_EXAMPLE_1_1_FULL,
            "example 1.1 self-snapshot: threads={threads} fp={fp:#018x}"
        );
    }
}

#[test]
fn hosp_300_self_snapshot_clean_is_pinned() {
    let w = hosp_workload(&GenParams {
        tuples: 300,
        master_tuples: 100,
        ..GenParams::default()
    });
    for threads in [1usize, 4] {
        let uni = cleaner(&w.rules, MasterSource::SelfSnapshot, 1.0, threads);
        let result = uni.clean(&w.dirty, Phase::Full);
        assert!(!result.report.is_empty(), "the pin must exercise repairs");
        let fp = fingerprint(&result);
        assert_eq!(
            fp, SELF_HOSP_300_FULL,
            "hosp 300 self-snapshot: threads={threads} fp={fp:#018x}"
        );
    }
}

#[test]
fn hosp_300_self_snapshot_begin_plus_delta_is_pinned() {
    let w = hosp_workload(&GenParams {
        tuples: 300,
        master_tuples: 100,
        ..GenParams::default()
    });
    for threads in [1usize, 4] {
        let uni = cleaner(&w.rules, MasterSource::SelfSnapshot, 1.0, threads);
        let h = delta_fingerprint(&uni, &w.dirty, 240, Phase::Full);
        assert_eq!(
            h, SELF_HOSP_300_DELTA,
            "hosp 300 self-snapshot delta: threads={threads} fp={h:#018x}"
        );
    }
}

/// `begin` over the first `split` rows of `d`, `clean_delta` with the
/// rest, and a fingerprint of the resulting state and the delta's report
/// length.
fn delta_fingerprint(uni: &Cleaner, d: &Relation, split: usize, phase: Phase) -> u64 {
    let rows = d.to_tuples();
    let prefix = Relation::new(d.schema().clone(), rows[..split].to_vec());
    let (mut state, _) = uni.begin(&prefix, phase);
    let result = uni
        .clean_delta(&mut state, &rows[split..])
        .expect("delta accepted");
    let mut h: u64 = 0xcbf29ce484222325;
    fingerprint_relation(&mut h, state.repaired());
    hash_bytes(&mut h, &state.cost().to_bits().to_le_bytes());
    hash_bytes(&mut h, &[state.consistent() as u8]);
    hash_bytes(&mut h, &(result.report.len() as u64).to_le_bytes());
    h
}
