//! `perf` — the engine-internal microbenchmarks the repository benchmark
//! (`benchmark/`, declared by `BENCHMARK.json`) does not resolve: how the
//! phases scale with threads, what the storage layout costs, which access
//! path the planner picks, and what the similarity kernels and their SIMD
//! dispatch buy. Everything a client sees — ingest ack latency, check
//! latency, restart, catch-up, failover, WAL bytes — is measured there,
//! with spreads and answer checks; the parts of this binary that once
//! timed those (incremental delta, serving, durability, replication) are
//! gone, and the `BENCH_pr3/6/7/10.json` files they wrote stay as history.
//!
//! * **Part 1** (`--out`, `BENCH_pr2.json`): cRepair and eRepair
//!   tuples/sec on generated HOSP and DBLP workloads across worker-thread
//!   counts (1/2/4/8) and interning on/off.
//! * **Part 3** (`--storage-out`, `BENCH_pr4.json`): the columnar,
//!   symbol-native store against the row-major `Vec<Tuple>` it replaced —
//!   resident heap bytes for the same HOSP instance and cell-scan
//!   throughput, scan answers cross-checked before timing is trusted.
//! * **Part 4** (`--sim-out`, `BENCH_pr5.json`): the master-index
//!   access-path planner on a similarity-heavy workload.
//! * **Part 7** (`--kernels-out`, `BENCH_pr8.json`): Myers vs the scalar
//!   DPs it replaced, plus a like-for-like re-run of the PR5 probe
//!   workload.
//! * **Part 8** (`--simd-out`, `BENCH_pr9.json`): vectorized gram hashing
//!   vs the batched scalar kernel, and the column-at-a-time Myers driver
//!   vs per-value dispatch.
//!
//! All reports are machine-readable JSON, self-validated by the
//! `json_check` parser.
//!
//! ```text
//! cargo run --release -p uniclean-bench --bin perf               # full run
//! cargo run --release -p uniclean-bench --bin perf -- --smoke    # CI smoke
//!    [--out BENCH_pr2.json] [--storage-out BENCH_pr4.json]
//!    [--sim-out BENCH_pr5.json] [--kernels-out BENCH_pr8.json]
//!    [--simd-out BENCH_pr9.json]
//!    [--storage-only] [--sim-only] [--kernels-only] [--simd-only]
//!    [--tuples 10000] [--master 2000] [--repeat 3]
//! ```
//!
//! `--smoke` shrinks the workloads to a few hundred tuples, runs one
//! repeat, validates the emitted JSON and exits nonzero on any failure —
//! the CI `bench-smoke` job runs exactly this.

use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::time::Instant;

use uniclean_bench::figure::json_num;
use uniclean_bench::{validate_json, Args};
use uniclean_core::{CleanConfig, Cleaner, MasterSource, Phase, PhaseTimings};
use uniclean_datagen::{dblp_workload, hosp_workload, GenParams, Workload};

struct RunResult {
    threads: usize,
    interning: bool,
    crepair_seconds: f64,
    erepair_seconds: f64,
    fixes: usize,
}

struct DatasetReport {
    name: &'static str,
    tuples: usize,
    master_tuples: usize,
    runs: Vec<RunResult>,
}

fn measure(w: &Workload, threads: usize, interning: bool, repeat: usize) -> RunResult {
    let cfg = CleanConfig {
        eta: 1.0,
        delta_entropy: 0.8,
        parallelism: Some(NonZeroUsize::new(threads).expect("threads > 0")),
        interning,
        ..CleanConfig::default()
    };
    let cleaner = Cleaner::builder()
        .rules(w.rules.clone())
        .master(MasterSource::external(w.master.clone()))
        .config(cfg)
        .build()
        .expect("workloads build valid sessions");
    let mut best_c = f64::INFINITY;
    let mut best_e = f64::INFINITY;
    let mut fixes = 0;
    for _ in 0..repeat.max(1) {
        let mut timings = PhaseTimings::default();
        let r = cleaner.clean_observed(&w.dirty, Phase::CERepair, &mut timings);
        for s in &timings.stats {
            match s.phase {
                Phase::CRepair => best_c = best_c.min(s.seconds),
                Phase::ERepair => best_e = best_e.min(s.seconds),
                Phase::HRepair => {}
            }
        }
        fixes = r.report.len();
    }
    RunResult {
        threads,
        interning,
        crepair_seconds: best_c,
        erepair_seconds: best_e,
        fixes,
    }
}

fn bench_dataset(
    name: &'static str,
    w: &Workload,
    thread_counts: &[usize],
    repeat: usize,
) -> DatasetReport {
    let mut runs = Vec::new();
    for &threads in thread_counts {
        for interning in [true, false] {
            eprintln!("  {name}: threads={threads} interning={interning}…");
            runs.push(measure(w, threads, interning, repeat));
        }
    }
    DatasetReport {
        name,
        tuples: w.dirty.len(),
        master_tuples: w.master.len(),
        runs,
    }
}

fn tuples_per_sec(tuples: usize, seconds: f64) -> f64 {
    if seconds > 0.0 {
        tuples as f64 / seconds
    } else {
        f64::INFINITY
    }
}

/// A JSON number rounded to `decimals` places; non-finite values render as
/// `null` (via [`json_num`]) instead of the invalid token `inf`/`NaN`.
fn num(x: f64, decimals: u32) -> String {
    let scale = 10f64.powi(decimals as i32);
    json_num((x * scale).round() / scale)
}

/// Hand-rolled JSON (the build is offline — no serde), same shape a serde
/// derive would produce.
fn render_json(reports: &[DatasetReport], smoke: bool, repeat: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"pr2_parallel_interning\",");
    let _ = writeln!(
        out,
        "  \"command\": \"cargo run --release -p uniclean-bench --bin perf\","
    );
    let _ = writeln!(
        out,
        "  \"available_parallelism\": {},",
        std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
    );
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(
        out,
        "  \"note\": \"thread-scaling numbers are only meaningful when available_parallelism > 1 \
         (on one core extra workers are pure overhead); the interning comparison is \
         measurable at any core count\","
    );
    let _ = writeln!(out, "  \"repeat\": {repeat},");
    let _ = writeln!(out, "  \"phases\": [\"cRepair\", \"eRepair\"],");
    let _ = writeln!(out, "  \"datasets\": [");
    for (di, d) in reports.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", d.name);
        let _ = writeln!(out, "      \"tuples\": {},", d.tuples);
        let _ = writeln!(out, "      \"master_tuples\": {},", d.master_tuples);
        let _ = writeln!(out, "      \"runs\": [");
        let base_c = d
            .runs
            .iter()
            .find(|r| r.threads == 1 && r.interning)
            .map(|r| r.crepair_seconds);
        let base_e = d
            .runs
            .iter()
            .find(|r| r.threads == 1 && r.interning)
            .map(|r| r.erepair_seconds);
        for (ri, r) in d.runs.iter().enumerate() {
            let _ = writeln!(out, "        {{");
            let _ = writeln!(out, "          \"threads\": {},", r.threads);
            let _ = writeln!(out, "          \"interning\": {},", r.interning);
            let _ = writeln!(out, "          \"fixes\": {},", r.fixes);
            let _ = writeln!(
                out,
                "          \"crepair_seconds\": {},",
                num(r.crepair_seconds, 6)
            );
            let _ = writeln!(
                out,
                "          \"crepair_tuples_per_sec\": {},",
                num(tuples_per_sec(d.tuples, r.crepair_seconds), 1)
            );
            let _ = writeln!(
                out,
                "          \"erepair_seconds\": {},",
                num(r.erepair_seconds, 6)
            );
            let _ = writeln!(
                out,
                "          \"erepair_tuples_per_sec\": {},",
                num(tuples_per_sec(d.tuples, r.erepair_seconds), 1)
            );
            let speed = |base: Option<f64>, mine: f64| -> f64 {
                match base {
                    Some(b) if mine > 0.0 => b / mine,
                    _ => 1.0,
                }
            };
            let _ = writeln!(
                out,
                "          \"crepair_speedup_vs_1thread_interned\": {},",
                num(speed(base_c, r.crepair_seconds), 3)
            );
            let _ = writeln!(
                out,
                "          \"erepair_speedup_vs_1thread_interned\": {}",
                num(speed(base_e, r.erepair_seconds), 3)
            );
            let comma = if ri + 1 < d.runs.len() { "," } else { "" };
            let _ = writeln!(out, "        }}{comma}");
        }
        let _ = writeln!(out, "      ]");
        let comma = if di + 1 < reports.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

fn render_table(reports: &[DatasetReport]) -> String {
    let mut out = String::new();
    for d in reports {
        let _ = writeln!(
            out,
            "## {} — {} tuples, {} master",
            d.name, d.tuples, d.master_tuples
        );
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>16} {:>16} {:>8}",
            "threads", "interning", "cRepair tup/s", "eRepair tup/s", "fixes"
        );
        for r in &d.runs {
            let _ = writeln!(
                out,
                "{:>8} {:>10} {:>16.0} {:>16.0} {:>8}",
                r.threads,
                if r.interning { "on" } else { "off" },
                tuples_per_sec(d.tuples, r.crepair_seconds),
                tuples_per_sec(d.tuples, r.erepair_seconds),
                r.fixes
            );
        }
        let _ = writeln!(out);
    }
    out
}

// ---------------------------------------------------------------------------
// Part 3: the columnar storage layer (BENCH_pr4.json).
// ---------------------------------------------------------------------------

struct ScanResult {
    name: &'static str,
    /// Both representations must agree on the scan's answer.
    answer: usize,
    columnar_seconds: f64,
    row_seconds: f64,
}

struct StorageReport {
    tuples: usize,
    arity: usize,
    cells: usize,
    distinct_values: usize,
    columnar_bytes: usize,
    row_major_bytes: usize,
    scans: Vec<ScanResult>,
    /// cRepair/eRepair seconds on this instance (threads=1, interning on)
    /// — the regression reference against the committed BENCH_pr2.json.
    crepair_seconds: f64,
    erepair_seconds: f64,
}

/// Estimated resident heap of the replaced row-major representation:
/// one `Vec<Cell>` per tuple plus one owned string payload per `Str`
/// cell *occurrence* — the historical ingest (`from_csv`, the
/// generators) allocated per cell, it never shared payloads across rows.
fn row_major_bytes(rows: &[uniclean_model::Tuple]) -> usize {
    use uniclean_model::{Cell, Value};
    let mut total = 0usize;
    for t in rows {
        total += std::mem::size_of::<Vec<Cell>>() + t.arity() * std::mem::size_of::<Cell>();
        for c in t.cells() {
            if let Value::Str(s) = &c.value {
                // Arc<str> payload: two refcount words + the bytes.
                total += 16 + s.len();
            }
        }
    }
    total
}

/// Best-of-`repeat` wall time of `f`, which must return the scan answer.
fn time_scan(repeat: usize, mut f: impl FnMut() -> usize) -> (usize, f64) {
    let mut best = f64::INFINITY;
    let mut answer = 0;
    for _ in 0..repeat.max(1) {
        let started = Instant::now();
        answer = f();
        best = best.min(started.elapsed().as_secs_f64());
    }
    (answer, best)
}

/// Compare the columnar store against the row-major representation on the
/// same instance: heap footprint and full-relation cell scans.
fn bench_storage(w: &Workload, repeat: usize) -> StorageReport {
    use uniclean_model::{AttrId, Value};
    let rel = &w.dirty;
    let rows = rel.to_tuples();
    let arity = rel.schema().arity();
    let attrs: Vec<AttrId> = rel.schema().attr_ids().collect();

    let mut scans = Vec::new();

    // Scan 1: null sweep — count null cells across the relation. The
    // columnar side compares each symbol column against the null symbol;
    // the row side walks tuples and asks the value.
    let (col_nulls, col_s) = time_scan(repeat, || {
        let null = rel.null_sym();
        attrs
            .iter()
            .map(|&a| rel.col_syms(a).iter().filter(|&&s| s == null).count())
            .sum()
    });
    let (row_nulls, row_s) = time_scan(repeat, || {
        rows.iter()
            .map(|t| {
                (0..arity)
                    .filter(|&i| t.value(AttrId::from(i)).is_null())
                    .count()
            })
            .sum()
    });
    assert_eq!(col_nulls, row_nulls, "null sweep disagreed across layouts");
    scans.push(ScanResult {
        name: "null_sweep",
        answer: col_nulls,
        columnar_seconds: col_s,
        row_seconds: row_s,
    });

    // Scan 2: value-equality sweep — for every distinct value of the
    // first column (a realistic probe mix), count its occurrences across
    // all columns. Columnar: one interner lookup, then symbol compares.
    // Row: value compares (string content on the hot path).
    let probes: Vec<Value> = rel.active_domain(attrs[0]).into_iter().take(16).collect();
    let (col_hits, col_s) = time_scan(repeat, || {
        probes
            .iter()
            .map(|p| match rel.interner().get(p) {
                None => 0,
                Some(sym) => attrs
                    .iter()
                    .map(|&a| rel.col_syms(a).iter().filter(|&&s| s == sym).count())
                    .sum(),
            })
            .sum()
    });
    let (row_hits, row_s) = time_scan(repeat, || {
        probes
            .iter()
            .map(|p| {
                rows.iter()
                    .map(|t| {
                        (0..arity)
                            .filter(|&i| t.value(AttrId::from(i)) == p)
                            .count()
                    })
                    .sum::<usize>()
            })
            .sum()
    });
    assert_eq!(
        col_hits, row_hits,
        "equality sweep disagreed across layouts"
    );
    scans.push(ScanResult {
        name: "equality_sweep",
        answer: col_hits,
        columnar_seconds: col_s,
        row_seconds: row_s,
    });

    // Phase-throughput reference on the same instance (threads=1,
    // interning on) so a regression against BENCH_pr2.json is visible
    // from this report alone.
    let phase = measure(w, 1, true, repeat);

    StorageReport {
        tuples: rel.len(),
        arity,
        cells: rel.cell_count(),
        distinct_values: rel.interner().len(),
        columnar_bytes: rel.heap_bytes(),
        row_major_bytes: row_major_bytes(&rows),
        scans,
        crepair_seconds: phase.crepair_seconds,
        erepair_seconds: phase.erepair_seconds,
    }
}

fn render_storage_json(r: &StorageReport, smoke: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"pr4_columnar_storage\",");
    let _ = writeln!(
        out,
        "  \"command\": \"cargo run --release -p uniclean-bench --bin perf\","
    );
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"dataset\": \"hosp\",");
    let _ = writeln!(
        out,
        "  \"note\": \"row_major_bytes reconstructs the replaced Vec<Tuple> layout (one Cell per \
         slot, one owned string payload per Str cell occurrence); columnar_bytes is the live \
         store (symbol/cf/mark columns + interner). Scan answers are cross-checked between \
         layouts before timings are reported. crepair/erepair seconds are the threads=1 \
         interning=on reference for regression checks against BENCH_pr2.json.\","
    );
    let _ = writeln!(out, "  \"tuples\": {},", r.tuples);
    let _ = writeln!(out, "  \"arity\": {},", r.arity);
    let _ = writeln!(out, "  \"cells\": {},", r.cells);
    let _ = writeln!(out, "  \"distinct_values\": {},", r.distinct_values);
    let _ = writeln!(out, "  \"columnar_bytes\": {},", r.columnar_bytes);
    let _ = writeln!(out, "  \"row_major_bytes\": {},", r.row_major_bytes);
    let _ = writeln!(
        out,
        "  \"memory_ratio_row_over_columnar\": {},",
        num(
            r.row_major_bytes as f64 / (r.columnar_bytes.max(1)) as f64,
            3
        )
    );
    let _ = writeln!(out, "  \"scans\": [");
    for (i, s) in r.scans.iter().enumerate() {
        let cps = |secs: f64| tuples_per_sec(r.cells, secs);
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", s.name);
        let _ = writeln!(out, "      \"answer\": {},", s.answer);
        let _ = writeln!(
            out,
            "      \"columnar_seconds\": {},",
            num(s.columnar_seconds, 6)
        );
        let _ = writeln!(out, "      \"row_seconds\": {},", num(s.row_seconds, 6));
        let _ = writeln!(
            out,
            "      \"columnar_cells_per_sec\": {},",
            num(cps(s.columnar_seconds), 1)
        );
        let _ = writeln!(
            out,
            "      \"row_cells_per_sec\": {},",
            num(cps(s.row_seconds), 1)
        );
        let _ = writeln!(
            out,
            "      \"speedup_columnar_vs_row\": {}",
            num(s.row_seconds / s.columnar_seconds.max(1e-12), 3)
        );
        let comma = if i + 1 < r.scans.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"crepair_seconds\": {},", num(r.crepair_seconds, 6));
    let _ = writeln!(out, "  \"erepair_seconds\": {}", num(r.erepair_seconds, 6));
    let _ = writeln!(out, "}}");
    out
}

// ---------------------------------------------------------------------------
// Part 4: the access-path planner on a similarity-heavy workload
// (BENCH_pr5.json).
// ---------------------------------------------------------------------------

struct SimMdResult {
    name: String,
    plan: String,
    /// Candidates examined across the probe sample.
    scan_candidates: u64,
    indexed_candidates: u64,
    /// Verified matches found (identical on both paths by construction).
    matches: u64,
}

struct SimReport {
    tuples: usize,
    master_tuples: usize,
    probe_sample: usize,
    mds: Vec<SimMdResult>,
    scan_seconds: f64,
    indexed_seconds: f64,
    /// clean() outputs across parallelism {1,4} × interning {on,off} are
    /// bit-identical to the (1, on) baseline.
    bit_identical_matrix: bool,
}

/// Measure MD candidate generation on the similarity-heavy DBLP variant:
/// the naive full-master scan vs. the planner's blocked paths, answers
/// cross-checked tuple-by-tuple *before* any timing is reported, plus a
/// bit-identity sweep of full cleaning runs across the parallelism ×
/// interning matrix.
fn bench_similarity(tuples: usize, master: usize, sample: usize, repeat: usize) -> SimReport {
    use uniclean_core::{MasterIndex, ProbeScratch};
    use uniclean_model::TupleId;

    let params = GenParams {
        tuples,
        master_tuples: master,
        ..GenParams::default()
    };
    let w = uniclean_datagen::dblp_similarity_workload(&params);
    let mds = w.rules.mds();
    let idx = MasterIndex::build(mds, &w.master);
    let sample = sample.min(w.dirty.len());

    // Answers first: for every sampled tuple × MD the indexed path must
    // find exactly the matches the scan finds, while we tally candidates.
    let mut results: Vec<SimMdResult> = mds
        .iter()
        .enumerate()
        .map(|(i, md)| SimMdResult {
            name: md.name().to_string(),
            plan: idx.describe_plan(i, md),
            scan_candidates: 0,
            indexed_candidates: 0,
            matches: 0,
        })
        .collect();
    let mut scratch = ProbeScratch::new();
    let mut verified = Vec::new();
    for (i, md) in mds.iter().enumerate() {
        assert!(
            idx.is_indexed(i),
            "similarity workload MD {} fell back to scan",
            md.name()
        );
        for row in 0..sample {
            let t = w.dirty.tuple(TupleId::from(row));
            let scan_matches: Vec<TupleId> = w
                .master
                .iter()
                .filter(|(_, s)| md.premise_matches(t, s))
                .map(|(sid, _)| sid)
                .collect();
            let mut indexed_matches = Vec::new();
            let mut cands = 0u64;
            idx.for_each_candidate(i, md, t, &mut scratch, |sid| {
                cands += 1;
                if md.premise_matches(t, w.master.tuple(sid)) {
                    indexed_matches.push(sid);
                }
            });
            if indexed_matches != scan_matches {
                eprintln!(
                    "access path diverged from the scan: md {} tuple {row}",
                    md.name()
                );
                std::process::exit(1);
            }
            // The production entry point (cached Myers patterns + q-gram
            // profiles) must agree with the scalar kernels probe-by-probe.
            idx.matches_into(i, md, t, &w.master, None, &mut scratch, &mut verified);
            if verified != scan_matches {
                eprintln!(
                    "matches_into diverged from the scan: md {} tuple {row}",
                    md.name()
                );
                std::process::exit(1);
            }
            results[i].scan_candidates += w.master.len() as u64;
            results[i].indexed_candidates += cands;
            results[i].matches += scan_matches.len() as u64;
        }
    }

    // Wall clock, best of `repeat`, same probe sample on both sides. The
    // scan side is the no-index baseline (scalar `premise_matches` against
    // every master row); the indexed side is the engine's production entry
    // point, `matches_into` (candidate generation + verification on the
    // scratch-cached kernels) — asserted bit-identical to the scan above.
    let mut scan_seconds = f64::INFINITY;
    let mut indexed_seconds = f64::INFINITY;
    for _ in 0..repeat.max(1) {
        let started = Instant::now();
        let mut found = 0usize;
        for md in mds.iter() {
            for row in 0..sample {
                let t = w.dirty.tuple(TupleId::from(row));
                found += w
                    .master
                    .iter()
                    .filter(|(_, s)| md.premise_matches(t, s))
                    .count();
            }
        }
        scan_seconds = scan_seconds.min(started.elapsed().as_secs_f64());
        std::hint::black_box(found);

        let started = Instant::now();
        let mut found = 0usize;
        for (i, md) in mds.iter().enumerate() {
            for row in 0..sample {
                let t = w.dirty.tuple(TupleId::from(row));
                idx.matches_into(i, md, t, &w.master, None, &mut scratch, &mut verified);
                found += verified.len();
            }
        }
        indexed_seconds = indexed_seconds.min(started.elapsed().as_secs_f64());
        std::hint::black_box(found);
    }

    // Full cleaning runs must stay bit-identical across the parallelism ×
    // interning matrix on this workload too.
    let clean_with = |threads: usize, interning: bool| {
        let cleaner = Cleaner::builder()
            .rules(w.rules.clone())
            .master(MasterSource::external(w.master.clone()))
            .config(CleanConfig {
                parallelism: Some(NonZeroUsize::new(threads).expect("threads > 0")),
                interning,
                ..CleanConfig::default()
            })
            .build()
            .expect("similarity workload builds a valid session");
        cleaner.clean(&w.dirty, Phase::Full)
    };
    let baseline = clean_with(1, true);
    let mut bit_identical = true;
    for (threads, interning) in [(1, false), (4, true), (4, false)] {
        let r = clean_with(threads, interning);
        if r.repaired.diff_cells(&baseline.repaired) != 0
            || r.consistent != baseline.consistent
            || r.cost.to_bits() != baseline.cost.to_bits()
        {
            eprintln!("cleaning diverged at threads={threads} interning={interning}");
            bit_identical = false;
        }
    }
    if !bit_identical {
        std::process::exit(1);
    }

    SimReport {
        tuples: w.dirty.len(),
        master_tuples: w.master.len(),
        probe_sample: sample,
        mds: results,
        scan_seconds,
        indexed_seconds,
        bit_identical_matrix: bit_identical,
    }
}

fn render_sim_json(r: &SimReport, smoke: bool) -> String {
    let total_scan: u64 = r.mds.iter().map(|m| m.scan_candidates).sum();
    let total_indexed: u64 = r.mds.iter().map(|m| m.indexed_candidates).sum();
    let reduction = total_scan as f64 / (total_indexed.max(1)) as f64;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"pr5_access_paths\",");
    let _ = writeln!(
        out,
        "  \"command\": \"cargo run --release -p uniclean-bench --bin perf\","
    );
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"dataset\": \"dblp-sim\",");
    let _ = writeln!(
        out,
        "  \"note\": \"similarity-heavy DBLP variant (~qgram/~jaro/~jw/~lev MD premises, no \
         entity-unique equalities). Per sampled probe, the indexed path's verified matches are \
         asserted equal to the full-master scan before candidates or timings are reported; the \
         cleaning matrix rows are full Phase::Full runs compared bit-for-bit against the \
         threads=1 interning=on baseline.\","
    );
    let _ = writeln!(out, "  \"tuples\": {},", r.tuples);
    let _ = writeln!(out, "  \"master_tuples\": {},", r.master_tuples);
    let _ = writeln!(out, "  \"probe_sample\": {},", r.probe_sample);
    let _ = writeln!(out, "  \"mds\": [");
    for (i, m) in r.mds.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", m.name);
        let _ = writeln!(out, "      \"plan\": \"{}\",", m.plan.replace('"', "'"));
        let _ = writeln!(out, "      \"scan_candidates\": {},", m.scan_candidates);
        let _ = writeln!(
            out,
            "      \"indexed_candidates\": {},",
            m.indexed_candidates
        );
        let _ = writeln!(
            out,
            "      \"candidate_reduction\": {},",
            num(
                m.scan_candidates as f64 / (m.indexed_candidates.max(1)) as f64,
                2
            )
        );
        let _ = writeln!(out, "      \"verified_matches\": {}", m.matches);
        let comma = if i + 1 < r.mds.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"total_scan_candidates\": {total_scan},");
    let _ = writeln!(out, "  \"total_indexed_candidates\": {total_indexed},");
    let _ = writeln!(out, "  \"candidate_reduction\": {},", num(reduction, 2));
    let _ = writeln!(out, "  \"scan_seconds\": {},", num(r.scan_seconds, 6));
    let _ = writeln!(out, "  \"indexed_seconds\": {},", num(r.indexed_seconds, 6));
    let _ = writeln!(
        out,
        "  \"wall_clock_speedup\": {},",
        num(r.scan_seconds / r.indexed_seconds.max(1e-12), 2)
    );
    let _ = writeln!(
        out,
        "  \"bit_identical_across_parallelism_and_interning\": {}",
        r.bit_identical_matrix
    );
    let _ = writeln!(out, "}}");
    out
}

// ---------------------------------------------------------------------------
// Part 7: the bit-parallel similarity kernels (BENCH_pr8.json).
// ---------------------------------------------------------------------------

/// The committed BENCH_pr5.json probe-workload wall clock (indexed path,
/// this container, pre-Myers banded-DP kernels + top-l LCS access path).
/// PR8 re-runs the identical workload so the kernel win is like-for-like.
const PR5_COMMITTED_INDEXED_SECONDS: f64 = 0.225341;

/// One (length, threshold) shape of the edit-distance microbench.
struct KernelCase {
    name: &'static str,
    chars: usize,
    k: usize,
    pairs: usize,
    /// How many pairs were within `k` (identical for all three kernels —
    /// asserted before timing).
    accepted: usize,
    myers_seconds: f64,
    banded_dp_seconds: f64,
    full_dp_seconds: f64,
}

/// Deterministic string pairs: a random base of `len` chars and a partner
/// `i % (k+3)` edits away, so both the accept and the reject path are hot.
/// No RNG crate — a fixed-seed splitmix-style generator keeps every run
/// (and every kernel under test) on identical inputs.
fn kernel_pairs(len: usize, k: usize, n: usize, unicode: bool) -> Vec<(String, String)> {
    let alphabet: Vec<char> = if unicode {
        "abcdefgéüλжД中рñ ".chars().collect()
    } else {
        "abcdefghijklmnopqrstuvwxyz 0123456789".chars().collect()
    };
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (len as u64) << 32 ^ k as u64;
    let mut next = move |m: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % m.max(1)
    };
    let mut pairs = Vec::with_capacity(n);
    for i in 0..n {
        let a: Vec<char> = (0..len).map(|_| alphabet[next(alphabet.len())]).collect();
        let mut b = a.clone();
        for _ in 0..i % (k + 3) {
            match next(3) {
                0 if !b.is_empty() => {
                    let p = next(b.len());
                    b[p] = alphabet[next(alphabet.len())];
                }
                1 => {
                    let p = next(b.len() + 1);
                    b.insert(p, alphabet[next(alphabet.len())]);
                }
                _ if !b.is_empty() => {
                    let p = next(b.len());
                    b.remove(p);
                }
                _ => {}
            }
        }
        pairs.push((a.into_iter().collect(), b.into_iter().collect()));
    }
    pairs
}

/// Myers bit-vector vs the scalar DPs it replaced, same inputs, answers
/// asserted identical pair-by-pair before any timing is reported.
fn bench_kernels(repeat: usize, smoke: bool) -> Vec<KernelCase> {
    use uniclean_similarity::edit_distance::reference;
    use uniclean_similarity::{levenshtein_bounded_with, EditScratch};

    let n = if smoke { 64 } else { 512 };
    // Lengths cover the single-word fast path (≤64), the 55-char title
    // shape the similarity workload probes, a multi-block pattern, and a
    // non-ASCII alphabet (the binary-search Peq path).
    let specs: &[(&'static str, usize, usize, bool)] = &[
        ("ascii_12_k1", 12, 1, false),
        ("ascii_30_k2", 30, 2, false),
        ("ascii_55_k2", 55, 2, false),
        ("ascii_120_k3", 120, 3, false),
        ("unicode_30_k2", 30, 2, true),
    ];
    let mut cases = Vec::new();
    for &(name, len, k, unicode) in specs {
        let pairs = kernel_pairs(len, k, n, unicode);
        let mut scratch = EditScratch::new();

        // Parity before speed: all three kernels must agree on every pair.
        let mut accepted = 0usize;
        for (a, b) in &pairs {
            let myers = levenshtein_bounded_with(a, b, k, &mut scratch);
            let banded = reference::levenshtein_bounded_dp(a, b, k);
            if myers != banded {
                eprintln!("kernel mismatch [{name}]: myers {myers:?} vs banded {banded:?} on ({a:?}, {b:?})");
                std::process::exit(1);
            }
            if let Some(d) = myers {
                let full = reference::levenshtein_dp(a, b);
                if d != full {
                    eprintln!(
                        "kernel mismatch [{name}]: myers {d} vs full DP {full} on ({a:?}, {b:?})"
                    );
                    std::process::exit(1);
                }
                accepted += 1;
            }
        }

        let time = |f: &mut dyn FnMut() -> usize| -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..repeat.max(1) {
                let started = Instant::now();
                let hits = f();
                best = best.min(started.elapsed().as_secs_f64());
                assert_eq!(hits, accepted, "kernel disagreed during timing [{name}]");
            }
            best
        };
        eprintln!("  kernels: {name} ({n} pairs)…");
        let myers_seconds = time(&mut || {
            pairs
                .iter()
                .filter(|(a, b)| levenshtein_bounded_with(a, b, k, &mut scratch).is_some())
                .count()
        });
        let banded_dp_seconds = time(&mut || {
            pairs
                .iter()
                .filter(|(a, b)| reference::levenshtein_bounded_dp(a, b, k).is_some())
                .count()
        });
        let full_dp_seconds = time(&mut || {
            pairs
                .iter()
                .filter(|(a, b)| reference::levenshtein_dp(a, b) <= k)
                .count()
        });
        cases.push(KernelCase {
            name,
            chars: len,
            k,
            pairs: n,
            accepted,
            myers_seconds,
            banded_dp_seconds,
            full_dp_seconds,
        });
    }
    cases
}

fn render_kernels_json(cases: &[KernelCase], sim: &SimReport, smoke: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"pr8_bitparallel_kernels\",");
    let _ = writeln!(
        out,
        "  \"command\": \"cargo run --release -p uniclean-bench --bin perf -- --kernels-only\","
    );
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(
        out,
        "  \"note\": \"kernel_cases time the Myers bit-vector kernel against the banded and \
         full scalar DPs it replaced on identical deterministic pair sets, answers asserted \
         equal pair-by-pair before timing. probe_workload re-runs the BENCH_pr5 similarity \
         probe workload (same generator, sizes and probe-by-probe scan-equality assertion) on \
         the new lev-count access path; speedup_vs_committed_pr5 compares its indexed wall \
         clock against the committed pre-kernel BENCH_pr5.json number from this same \
         single-core container (thread scaling plays no part in either run).\","
    );
    let _ = writeln!(out, "  \"kernel_cases\": [");
    for (i, c) in cases.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", c.name);
        let _ = writeln!(out, "      \"chars\": {},", c.chars);
        let _ = writeln!(out, "      \"k\": {},", c.k);
        let _ = writeln!(out, "      \"pairs\": {},", c.pairs);
        let _ = writeln!(out, "      \"accepted\": {},", c.accepted);
        let _ = writeln!(out, "      \"myers_seconds\": {},", num(c.myers_seconds, 6));
        let _ = writeln!(
            out,
            "      \"banded_dp_seconds\": {},",
            num(c.banded_dp_seconds, 6)
        );
        let _ = writeln!(
            out,
            "      \"full_dp_seconds\": {},",
            num(c.full_dp_seconds, 6)
        );
        let _ = writeln!(
            out,
            "      \"myers_vs_banded_dp\": {},",
            num(c.banded_dp_seconds / c.myers_seconds.max(1e-12), 2)
        );
        let _ = writeln!(
            out,
            "      \"myers_vs_full_dp\": {},",
            num(c.full_dp_seconds / c.myers_seconds.max(1e-12), 2)
        );
        let _ = writeln!(out, "      \"agreement_checked\": true");
        let comma = if i + 1 < cases.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ],");
    let total_scan: u64 = sim.mds.iter().map(|m| m.scan_candidates).sum();
    let total_indexed: u64 = sim.mds.iter().map(|m| m.indexed_candidates).sum();
    let _ = writeln!(out, "  \"probe_workload\": {{");
    let _ = writeln!(out, "    \"dataset\": \"dblp-sim\",");
    let _ = writeln!(out, "    \"tuples\": {},", sim.tuples);
    let _ = writeln!(out, "    \"master_tuples\": {},", sim.master_tuples);
    let _ = writeln!(out, "    \"probe_sample\": {},", sim.probe_sample);
    let _ = writeln!(out, "    \"plans\": [");
    for (i, m) in sim.mds.iter().enumerate() {
        let comma = if i + 1 < sim.mds.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{\"name\": \"{}\", \"plan\": \"{}\", \"indexed_candidates\": {}, \
             \"verified_matches\": {}}}{comma}",
            m.name,
            m.plan.replace('"', "'"),
            m.indexed_candidates,
            m.matches
        );
    }
    let _ = writeln!(out, "    ],");
    let _ = writeln!(out, "    \"total_scan_candidates\": {total_scan},");
    let _ = writeln!(out, "    \"total_indexed_candidates\": {total_indexed},");
    let _ = writeln!(out, "    \"scan_seconds\": {},", num(sim.scan_seconds, 6));
    let _ = writeln!(
        out,
        "    \"indexed_seconds\": {},",
        num(sim.indexed_seconds, 6)
    );
    let _ = writeln!(
        out,
        "    \"wall_clock_speedup\": {},",
        num(sim.scan_seconds / sim.indexed_seconds.max(1e-12), 2)
    );
    let _ = writeln!(out, "    \"scan_equality_asserted\": true,");
    let _ = writeln!(
        out,
        "    \"bit_identical_across_parallelism_and_interning\": {}",
        sim.bit_identical_matrix
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(
        out,
        "  \"committed_pr5_indexed_seconds\": {},",
        num(PR5_COMMITTED_INDEXED_SECONDS, 6)
    );
    // A smoke run probes a toy workload; the cross-commit comparison only
    // holds at the full PR5 sizes, so render null instead of a fiction.
    let vs_committed = if smoke {
        f64::NAN
    } else {
        PR5_COMMITTED_INDEXED_SECONDS / sim.indexed_seconds.max(1e-12)
    };
    let _ = writeln!(
        out,
        "  \"speedup_vs_committed_pr5\": {}",
        num(vs_committed, 2)
    );
    let _ = writeln!(out, "}}");
    out
}

// ---------------------------------------------------------------------------
// Part 8: runtime-dispatched SIMD — vectorized gram hashing and the
// column-at-a-time Myers driver (BENCH_pr9.json).
// ---------------------------------------------------------------------------

struct SimdReport {
    /// `DispatchInfo` under auto dispatch and under the forced-scalar kill
    /// switch — the latter proves the fallback row below really ran scalar.
    dispatch_auto: String,
    dispatch_forced: String,
    /// Gram hashing: every distinct master value of the 10k-DBLP Title and
    /// Authors columns, padded exactly as `QGramProfile::rebuild` pads.
    hash_values: usize,
    hash_bytes: u64,
    hash_q: usize,
    /// Production dispatcher under the forced-scalar override (the PR 8
    /// batched scalar kernel) vs under auto dispatch, hashes asserted
    /// equal window-by-window.
    hash_scalar_seconds: f64,
    hash_simd_seconds: f64,
    /// Whole `MasterIndex::build` on the same 10k master, both engines.
    index_build_scalar_seconds: f64,
    index_build_simd_seconds: f64,
    /// Columnar `~lev` driver on the BENCH_pr5 probe workload's Title
    /// column: per-value dispatch (master-compiled cached pattern +
    /// `distance_bounded` per pair) vs one probe-compiled pattern swept
    /// over the whole distinct column, verdicts asserted equal
    /// value-by-value.
    lev_probes: usize,
    lev_texts: usize,
    lev_k: usize,
    lev_pairs: u64,
    lev_hits: u64,
    per_value_seconds: f64,
    columnar_seconds: f64,
}

/// Distinct rendered (ASCII) values of one attribute column, sorted for
/// deterministic iteration order.
fn distinct_column(rel: &uniclean_model::Relation, attr: &str) -> Vec<String> {
    let attr = rel.schema().attr_id_or_panic(attr);
    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for (_, s) in rel.iter() {
        let v = s.value(attr);
        if !v.is_null() {
            seen.insert(v.render().into_owned());
        }
    }
    seen.into_iter().collect()
}

/// SIMD dispatch benches: (a) the vectorized FNV gram-hash lanes against
/// the batched scalar kernel over a 10k-DBLP index-build's hashing stage,
/// (b) the column-at-a-time Myers driver against per-value dispatch on the
/// BENCH_pr5 probe workload — both through the production dispatcher, both
/// with answers asserted equal before any timing is reported.
fn bench_simd(repeat: usize, smoke: bool) -> SimdReport {
    use uniclean_core::MasterIndex;
    use uniclean_model::{FxHashMap, TupleId};
    use uniclean_similarity::simd::{self, hash_gram_windows, hash_gram_windows_scalar};
    use uniclean_similarity::{ColumnVerdicts, EditScratch, MyersPattern};

    let dispatch_auto = simd::dispatch_info().to_string();
    simd::set_forced_scalar(Some(true));
    let dispatch_forced = simd::dispatch_info().to_string();
    simd::set_forced_scalar(None);

    // -- Gram hashing: 10k DBLP index-build hashing stage. -----------------
    let (hash_tuples, hash_master) = if smoke { (60, 300) } else { (1_000, 10_000) };
    let w = uniclean_datagen::dblp_similarity_workload(&GenParams {
        tuples: hash_tuples,
        master_tuples: hash_master,
        ..GenParams::default()
    });
    let q = 2usize; // LEV_QGRAM_Q — the shared `~lev`/`~qgram(2, …)` artifact.
    let mut padded: Vec<Vec<u8>> = Vec::new();
    for attr in ["Title", "Authors"] {
        for v in distinct_column(&w.master, attr) {
            if !v.is_ascii() {
                continue;
            }
            // Pad exactly as `QGramProfile::rebuild` pads ASCII strings.
            let mut buf = vec![0x1Fu8; q - 1];
            buf.extend_from_slice(v.as_bytes());
            buf.resize(buf.len() + q - 1, 0x1Fu8);
            padded.push(buf);
        }
    }
    let hash_values = padded.len();
    let hash_bytes: u64 = padded.iter().map(|p| p.len() as u64).sum();

    // Parity first: the dispatched kernel must reproduce the scalar hashes
    // bit-for-bit on every window of every value.
    let mut a = Vec::new();
    let mut b = Vec::new();
    for p in &padded {
        a.clear();
        b.clear();
        hash_gram_windows(p, q, &mut a);
        hash_gram_windows_scalar(p, q, &mut b);
        if a != b {
            eprintln!("gram-hash kernels disagreed on {p:?}");
            std::process::exit(1);
        }
    }

    // One corpus pass is sub-millisecond, below timer/frequency noise —
    // each sample times a block of passes and reports the per-pass time,
    // and the two engines alternate samples so clock drift on a shared
    // host cannot skew the ratio.
    let hash_passes = if smoke { 4 } else { 24 };
    let hash_sample = |forced: bool| -> f64 {
        simd::set_forced_scalar(Some(forced));
        let mut out = Vec::new();
        let started = Instant::now();
        let mut acc = 0u64;
        for _ in 0..hash_passes {
            for p in &padded {
                out.clear();
                hash_gram_windows(p, q, &mut out);
                acc ^= out.last().copied().unwrap_or(0);
            }
        }
        std::hint::black_box(acc);
        let elapsed = started.elapsed().as_secs_f64() / hash_passes as f64;
        simd::set_forced_scalar(None);
        elapsed
    };
    eprintln!("  simd: gram hashing ({hash_values} distinct values, {hash_bytes} bytes)…");
    let mut hash_scalar_seconds = f64::INFINITY;
    let mut hash_simd_seconds = f64::INFINITY;
    for _ in 0..repeat.max(1) {
        hash_scalar_seconds = hash_scalar_seconds.min(hash_sample(true));
        hash_simd_seconds = hash_simd_seconds.min(hash_sample(false));
    }

    let build_sample = |forced: bool| -> f64 {
        simd::set_forced_scalar(Some(forced));
        let started = Instant::now();
        std::hint::black_box(MasterIndex::build(w.rules.mds(), &w.master));
        let elapsed = started.elapsed().as_secs_f64();
        simd::set_forced_scalar(None);
        elapsed
    };
    eprintln!("  simd: full index build ({hash_master} master tuples)…");
    let mut index_build_scalar_seconds = f64::INFINITY;
    let mut index_build_simd_seconds = f64::INFINITY;
    for _ in 0..repeat.max(1) {
        index_build_scalar_seconds = index_build_scalar_seconds.min(build_sample(true));
        index_build_simd_seconds = index_build_simd_seconds.min(build_sample(false));
    }

    // -- Columnar Myers driver: BENCH_pr5 probe workload. ------------------
    let (lev_tuples, lev_master, sample) = if smoke {
        (200, 80, 60)
    } else {
        (4_000, 2_000, 800)
    };
    let w = uniclean_datagen::dblp_similarity_workload(&GenParams {
        tuples: lev_tuples,
        master_tuples: lev_master,
        ..GenParams::default()
    });
    let lev_k = 2usize; // sv4: Title ~lev(2) — the workload's `~lev` conjunct.
    let texts = distinct_column(&w.master, "Title");
    let title = w.dirty.schema().attr_id_or_panic("Title");
    let sample = sample.min(w.dirty.len());
    let probes: Vec<String> = (0..sample)
        .map(|row| {
            w.dirty
                .tuple(TupleId::from(row))
                .value(title)
                .render()
                .into_owned()
        })
        .collect();

    // Parity first: the columnar sweep's verdict bitmap must equal the
    // per-value kernel's accept/reject, probe × value.
    let mut edit = EditScratch::new();
    let mut verdicts = ColumnVerdicts::new();
    let mut lev_hits = 0u64;
    for p in &probes {
        let pat = MyersPattern::new(p);
        pat.distance_column(texts.iter(), lev_k, &mut edit, &mut verdicts);
        for (i, t) in texts.iter().enumerate() {
            let per_value = MyersPattern::new(t)
                .distance_bounded(p, lev_k, &mut edit)
                .is_some();
            if per_value != verdicts.get(i) {
                eprintln!("columnar verdict diverged on probe {p:?} vs text {t:?}");
                std::process::exit(1);
            }
        }
        lev_hits += verdicts.count_ones() as u64;
    }

    // Per-value dispatch, exactly as the pre-columnar probe path ran it: a
    // pattern cache keyed by master value (warm after the first probe) and
    // one `distance_bounded` call per pair.
    let mut per_value_seconds = f64::INFINITY;
    let mut columnar_seconds = f64::INFINITY;
    eprintln!(
        "  simd: columnar ~lev driver ({} probes x {} distinct values)…",
        probes.len(),
        texts.len()
    );
    for _ in 0..repeat.max(1) {
        let mut pats: FxHashMap<u32, MyersPattern> = FxHashMap::default();
        let started = Instant::now();
        let mut found = 0u64;
        for p in &probes {
            for (i, t) in texts.iter().enumerate() {
                let pat = pats.entry(i as u32).or_insert_with(|| MyersPattern::new(t));
                if pat.distance_bounded(p, lev_k, &mut edit).is_some() {
                    found += 1;
                }
            }
        }
        per_value_seconds = per_value_seconds.min(started.elapsed().as_secs_f64());
        assert_eq!(found, lev_hits, "per-value kernel disagreed during timing");

        let mut pat = MyersPattern::default();
        let started = Instant::now();
        let mut found = 0u64;
        for p in &probes {
            pat.build(p);
            pat.distance_column(texts.iter(), lev_k, &mut edit, &mut verdicts);
            found += verdicts.count_ones() as u64;
        }
        columnar_seconds = columnar_seconds.min(started.elapsed().as_secs_f64());
        assert_eq!(found, lev_hits, "columnar driver disagreed during timing");
    }

    SimdReport {
        dispatch_auto,
        dispatch_forced,
        hash_values,
        hash_bytes,
        hash_q: q,
        hash_scalar_seconds,
        hash_simd_seconds,
        index_build_scalar_seconds,
        index_build_simd_seconds,
        lev_probes: probes.len(),
        lev_texts: texts.len(),
        lev_k,
        lev_pairs: (probes.len() * texts.len()) as u64,
        lev_hits,
        per_value_seconds,
        columnar_seconds,
    }
}

fn render_simd_json(r: &SimdReport, smoke: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"pr9_simd_dispatch\",");
    let _ = writeln!(
        out,
        "  \"command\": \"cargo run --release -p uniclean-bench --bin perf -- --simd-only\","
    );
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(
        out,
        "  \"note\": \"gram_hashing times the production dispatcher over the padded distinct \
         master values of a 10k-DBLP index build, once under the forced-scalar override (the \
         PR 8 batched scalar kernel) and once auto-dispatched, hashes asserted bit-identical \
         window-by-window first; index_build times the whole MasterIndex::build both ways. \
         columnar_lev times one probe-compiled Myers pattern swept over the BENCH_pr5 \
         workload's distinct Title column against the per-value dispatch it replaced \
         (master-compiled cached pattern + distance_bounded per pair), verdicts asserted \
         equal value-by-value before timing. forced_scalar dispatch names the fallback row's \
         engine.\","
    );
    let _ = writeln!(out, "  \"dispatch\": {{");
    let _ = writeln!(out, "    \"auto\": \"{}\",", r.dispatch_auto);
    let _ = writeln!(out, "    \"forced_scalar\": \"{}\"", r.dispatch_forced);
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"gram_hashing\": {{");
    let _ = writeln!(out, "    \"distinct_values\": {},", r.hash_values);
    let _ = writeln!(out, "    \"padded_bytes\": {},", r.hash_bytes);
    let _ = writeln!(out, "    \"q\": {},", r.hash_q);
    let _ = writeln!(
        out,
        "    \"scalar_seconds\": {},",
        num(r.hash_scalar_seconds, 6)
    );
    let _ = writeln!(
        out,
        "    \"simd_seconds\": {},",
        num(r.hash_simd_seconds, 6)
    );
    let _ = writeln!(
        out,
        "    \"speedup\": {},",
        num(r.hash_scalar_seconds / r.hash_simd_seconds.max(1e-12), 2)
    );
    let _ = writeln!(out, "    \"hashes_bit_identical\": true");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"index_build\": {{");
    let _ = writeln!(
        out,
        "    \"scalar_seconds\": {},",
        num(r.index_build_scalar_seconds, 6)
    );
    let _ = writeln!(
        out,
        "    \"simd_seconds\": {},",
        num(r.index_build_simd_seconds, 6)
    );
    let _ = writeln!(
        out,
        "    \"speedup\": {}",
        num(
            r.index_build_scalar_seconds / r.index_build_simd_seconds.max(1e-12),
            2
        )
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"columnar_lev\": {{");
    let _ = writeln!(out, "    \"probes\": {},", r.lev_probes);
    let _ = writeln!(out, "    \"distinct_values\": {},", r.lev_texts);
    let _ = writeln!(out, "    \"k\": {},", r.lev_k);
    let _ = writeln!(out, "    \"pairs\": {},", r.lev_pairs);
    let _ = writeln!(out, "    \"within_k\": {},", r.lev_hits);
    let _ = writeln!(
        out,
        "    \"per_value_seconds\": {},",
        num(r.per_value_seconds, 6)
    );
    let _ = writeln!(
        out,
        "    \"columnar_seconds\": {},",
        num(r.columnar_seconds, 6)
    );
    let _ = writeln!(
        out,
        "    \"speedup\": {},",
        num(r.per_value_seconds / r.columnar_seconds.max(1e-12), 2)
    );
    let _ = writeln!(out, "    \"verdicts_equal_value_by_value\": true");
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

/// Validate, write, re-read and re-validate one JSON report file.
fn write_validated(path: &str, json: &str) {
    if let Err(pos) = validate_json(json) {
        eprintln!("emitted JSON is malformed at byte {pos}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    // Read back and re-validate: the smoke contract is "the file on disk
    // parses", not "the string in memory did".
    match std::fs::read_to_string(path) {
        Ok(disk) if validate_json(&disk).is_ok() => {}
        Ok(_) => {
            eprintln!("{path} does not round-trip as valid JSON");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("cannot re-read {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = Args::parse();
    let smoke = args.flag("smoke");
    // `--storage-only`: emit just BENCH_pr4.json (the storage comparison),
    // skipping the slower thread matrix. `--kernels-only` likewise emits
    // just BENCH_pr8.json, `--sim-only` just BENCH_pr5.json and
    // `--simd-only` just BENCH_pr9.json.
    let storage_only = args.flag("storage-only");
    let kernels_only = args.flag("kernels-only");
    let sim_only = args.flag("sim-only");
    let simd_only = args.flag("simd-only");
    let out_path = args.get_or("out", "BENCH_pr2.json").to_string();
    let storage_out_path = args.get_or("storage-out", "BENCH_pr4.json").to_string();
    let sim_out_path = args.get_or("sim-out", "BENCH_pr5.json").to_string();
    let kernels_out_path = args.get_or("kernels-out", "BENCH_pr8.json").to_string();
    let simd_out_path = args.get_or("simd-out", "BENCH_pr9.json").to_string();
    let (tuples, master, repeat, thread_counts): (usize, usize, usize, Vec<usize>) = if smoke {
        (200, 80, 1, vec![1, 2])
    } else {
        (
            args.get_usize("tuples", 10_000),
            args.get_usize("master", 2_000),
            args.get_usize("repeat", 3),
            vec![1, 2, 4, 8],
        )
    };

    let started = Instant::now();
    let (sim_tuples, sim_master, sim_sample) = if smoke {
        (200, 80, 60)
    } else {
        (4_000, 2_000, 800)
    };
    let wrote = |paths: &str| {
        println!(
            "wrote {paths} ({:.1}s){}",
            started.elapsed().as_secs_f64(),
            if smoke { " [smoke]" } else { "" }
        );
    };
    let run_similarity = || {
        eprintln!(
            "similarity workload (access paths, {sim_tuples} tuples, {sim_master} master, \
             {sim_sample} probes)…"
        );
        bench_similarity(sim_tuples, sim_master, sim_sample, repeat)
    };

    if simd_only {
        let simd = bench_simd(repeat, smoke);
        write_validated(&simd_out_path, &render_simd_json(&simd, smoke));
        print_simd(&simd);
        wrote(&simd_out_path);
        return;
    }

    if kernels_only {
        let cases = bench_kernels(repeat, smoke);
        let sim = run_similarity();
        write_validated(&kernels_out_path, &render_kernels_json(&cases, &sim, smoke));
        print_kernels(&cases, &sim);
        wrote(&kernels_out_path);
        return;
    }

    if sim_only {
        let sim = run_similarity();
        write_validated(&sim_out_path, &render_sim_json(&sim, smoke));
        print_access_paths(&sim);
        wrote(&sim_out_path);
        return;
    }

    let params = GenParams {
        tuples,
        master_tuples: master,
        ..GenParams::default()
    };
    eprintln!("generating workloads ({tuples} tuples, {master} master)…");
    let hosp = hosp_workload(&params);
    let run_storage = || {
        eprintln!("storage workload (columnar vs row-major, {tuples} tuples)…");
        let storage = bench_storage(&hosp, repeat);
        write_validated(&storage_out_path, &render_storage_json(&storage, smoke));
        storage
    };

    if storage_only {
        print_storage(&run_storage());
        wrote(&storage_out_path);
        return;
    }

    let dblp = dblp_workload(&params);
    let reports = vec![
        bench_dataset("hosp", &hosp, &thread_counts, repeat),
        bench_dataset("dblp", &dblp, &thread_counts, repeat),
    ];
    write_validated(&out_path, &render_json(&reports, smoke, repeat));

    let storage = run_storage();

    let sim = run_similarity();
    write_validated(&sim_out_path, &render_sim_json(&sim, smoke));

    let kernel_cases = bench_kernels(repeat, smoke);
    write_validated(
        &kernels_out_path,
        &render_kernels_json(&kernel_cases, &sim, smoke),
    );

    let simd = bench_simd(repeat, smoke);
    write_validated(&simd_out_path, &render_simd_json(&simd, smoke));

    print!("{}", render_table(&reports));
    print_storage(&storage);
    print_access_paths(&sim);
    print_kernels(&kernel_cases, &sim);
    print_simd(&simd);
    wrote(&format!(
        "{out_path} + {storage_out_path} + {sim_out_path} + {kernels_out_path} + {simd_out_path}"
    ));
}

fn print_storage(storage: &StorageReport) {
    println!(
        "## storage — {} cells: columnar {} B vs row-major {} B ({:.2}x), scans {}",
        storage.cells,
        storage.columnar_bytes,
        storage.row_major_bytes,
        storage.row_major_bytes as f64 / storage.columnar_bytes.max(1) as f64,
        storage
            .scans
            .iter()
            .map(|s| format!(
                "{} {:.2}x",
                s.name,
                s.row_seconds / s.columnar_seconds.max(1e-12)
            ))
            .collect::<Vec<_>>()
            .join(", "),
    );
}

fn print_access_paths(sim: &SimReport) {
    let scan: u64 = sim.mds.iter().map(|m| m.scan_candidates).sum();
    let indexed: u64 = sim.mds.iter().map(|m| m.indexed_candidates).sum();
    println!(
        "## access paths — {} probes x {} mds: candidates {} -> {} ({:.1}x fewer), \
         wall clock {:.3}s -> {:.3}s ({:.1}x)",
        sim.probe_sample,
        sim.mds.len(),
        scan,
        indexed,
        scan as f64 / indexed.max(1) as f64,
        sim.scan_seconds,
        sim.indexed_seconds,
        sim.scan_seconds / sim.indexed_seconds.max(1e-12),
    );
}

fn print_kernels(cases: &[KernelCase], sim: &SimReport) {
    for c in cases {
        println!(
            "## kernels — {}: myers {:.6}s vs banded DP {:.6}s ({:.1}x) vs full DP {:.6}s ({:.1}x)",
            c.name,
            c.myers_seconds,
            c.banded_dp_seconds,
            c.banded_dp_seconds / c.myers_seconds.max(1e-12),
            c.full_dp_seconds,
            c.full_dp_seconds / c.myers_seconds.max(1e-12),
        );
    }
    println!(
        "## probe workload — {:.3}s scan vs {:.3}s indexed ({:.1}x); committed pr5 indexed \
         {:.6}s -> {:.1}x vs committed",
        sim.scan_seconds,
        sim.indexed_seconds,
        sim.scan_seconds / sim.indexed_seconds.max(1e-12),
        PR5_COMMITTED_INDEXED_SECONDS,
        PR5_COMMITTED_INDEXED_SECONDS / sim.indexed_seconds.max(1e-12),
    );
}

fn print_simd(simd: &SimdReport) {
    println!(
        "## simd — gram hashing: scalar {:.6}s vs simd {:.6}s ({:.1}x); index build {:.1}x; \
         columnar ~lev: per-value {:.6}s vs columnar {:.6}s ({:.1}x)",
        simd.hash_scalar_seconds,
        simd.hash_simd_seconds,
        simd.hash_scalar_seconds / simd.hash_simd_seconds.max(1e-12),
        simd.index_build_scalar_seconds / simd.index_build_simd_seconds.max(1e-12),
        simd.per_value_seconds,
        simd.columnar_seconds,
        simd.per_value_seconds / simd.columnar_seconds.max(1e-12),
    );
    println!(
        "## dispatch: {} | forced: {}",
        simd.dispatch_auto, simd.dispatch_forced
    );
}
