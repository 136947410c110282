//! Workload definitions and everything derived from `--seed`.
//!
//! The program under test only ever sees generated inputs: the seed goes to
//! `GenParams::seed`, and every request a stage sends is cut from the one
//! generated workload. Every count here is fixed per workload, so two runs
//! being compared do identical work per sample.

use std::num::NonZeroUsize;

use uniclean_core::{CleanConfig, Cleaner, MasterSource, Phase};
use uniclean_datagen::{dblp_similarity_workload, hosp_workload, GenParams, Workload};
use uniclean_model::json::batch_to_ingest_json;
use uniclean_model::{Json, Tuple};

/// The generator behind a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// HOSP: 23 CFDs + equality-led MDs, the paper's primary dataset.
    Hosp,
    /// The DBLP variant whose MD premises are `~lev`/`~jaro`/`~jw`/`~qgram`.
    Sim,
}

/// Fixed sizes of one workload. A stage that is not time-boxed does exactly
/// these counts; a time-boxed one repeats identical samples.
#[derive(Clone, Debug)]
pub struct Plan {
    pub name: &'static str,
    pub dataset: Dataset,
    /// `|D|` and `|Dm|` of the generated workload (the batch stage cleans
    /// all of `D`; the served stages ingest prefixes of it).
    pub tuples: usize,
    pub master: usize,
    /// How many times set-up is repeated for the `setup_s` median.
    pub setup_repeats: usize,
    /// Fewest timed `clean` samples, whatever the time box says.
    pub clean_min_samples: usize,
    /// Serve stage: base preloaded in `preload_batches`, then `batches`
    /// timed batches of `batch_tuples`, then `busy_batches` beside a reader.
    pub serve_base: usize,
    pub preload_batches: usize,
    pub batches: usize,
    pub batch_tuples: usize,
    pub busy_batches: usize,
    pub checks: usize,
    pub relation_checks: usize,
    pub dumps: usize,
    /// Failover stage: the primary holds `fo_batches` batches of
    /// `fo_batch_tuples` before the kill cycles start.
    pub fo_batches: usize,
    pub fo_batch_tuples: usize,
    pub fo_min_cycles: usize,
}

impl Plan {
    /// The plan for `workload`, at full or `--smoke` size.
    pub fn named(workload: &str, smoke: bool) -> Option<Plan> {
        let full = match workload {
            "hosp" => Plan {
                name: "hosp",
                dataset: Dataset::Hosp,
                tuples: 4000,
                master: 1000,
                setup_repeats: 5,
                clean_min_samples: 3,
                serve_base: 500,
                preload_batches: 5,
                batches: 200,
                batch_tuples: 5,
                busy_batches: 50,
                checks: 5000,
                relation_checks: 20,
                dumps: 5,
                fo_batches: 72,
                fo_batch_tuples: 20,
                fo_min_cycles: 5,
            },
            "sim" => Plan {
                name: "sim",
                dataset: Dataset::Sim,
                tuples: 800,
                master: 400,
                setup_repeats: 5,
                clean_min_samples: 3,
                serve_base: 200,
                preload_batches: 5,
                batches: 200,
                batch_tuples: 2,
                busy_batches: 50,
                checks: 2000,
                relation_checks: 20,
                dumps: 5,
                fo_batches: 72,
                fo_batch_tuples: 6,
                fo_min_cycles: 5,
            },
            _ => return None,
        };
        if !smoke {
            return Some(full);
        }
        // Still 200 timed batches and 1 000 checks, of one tuple each: fewer
        // leave no ten samples beyond p95 and p99, and a smoke run reports
        // every metric.
        let (tuples, master) = match full.dataset {
            Dataset::Hosp => (400, 100),
            Dataset::Sim => (300, 80),
        };
        Some(Plan {
            tuples,
            master,
            setup_repeats: 1,
            clean_min_samples: 2,
            serve_base: 50,
            preload_batches: 2,
            batches: 200,
            batch_tuples: 1,
            busy_batches: 5,
            checks: 1000,
            relation_checks: 2,
            dumps: 1,
            fo_batches: 10,
            fo_batch_tuples: 5,
            fo_min_cycles: 1,
            ..full
        })
    }

    /// Tuples the serve stage ends with.
    pub fn serve_total(&self) -> usize {
        self.serve_base + (self.batches + self.busy_batches) * self.batch_tuples
    }

    /// Tuples the failover stage's promoted standby ends with (one batch
    /// beyond what the primary held).
    pub fn fo_total(&self) -> usize {
        (self.fo_batches + 1) * self.fo_batch_tuples
    }

    /// The sizes, for the environment record of an output file.
    pub fn to_json(&self) -> Json {
        let n = |v: usize| Json::Num(v as f64);
        Json::Obj(vec![
            ("tuples".into(), n(self.tuples)),
            ("master".into(), n(self.master)),
            ("serve_base".into(), n(self.serve_base)),
            ("batches".into(), n(self.batches)),
            ("batch_tuples".into(), n(self.batch_tuples)),
            ("busy_batches".into(), n(self.busy_batches)),
            ("checks".into(), n(self.checks)),
            ("fo_batches".into(), n(self.fo_batches)),
            ("fo_batch_tuples".into(), n(self.fo_batch_tuples)),
        ])
    }
}

/// Engine threads of the in-process batch stage: `min(nproc, 4)`.
pub fn engine_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(4)
}

/// Everything a run derives from its seed.
pub struct Inputs {
    pub w: Workload,
    /// `w.dirty` as row tuples, the source of every batch.
    pub rows: Vec<Tuple>,
    /// The library user's session ([`engine_threads`] threads).
    pub cleaner: Cleaner,
    /// A one-thread session matching what a tenant opened with `threads:1`
    /// builds — the in-process replay runs through this one.
    pub tenant_cleaner: Cleaner,
    /// Seconds `CleanerBuilder::build` took for `cleaner`.
    pub session_build_s: f64,
}

/// Generate the workload for `seed` and build its sessions.
pub fn generate(plan: &Plan, seed: u64) -> Inputs {
    let params = GenParams {
        tuples: plan.tuples,
        master_tuples: plan.master,
        seed,
        ..GenParams::default()
    };
    let w = match plan.dataset {
        Dataset::Hosp => hosp_workload(&params),
        Dataset::Sim => dblp_similarity_workload(&params),
    };
    assert!(
        plan.serve_total() <= w.dirty.len() && plan.fo_total() <= w.dirty.len(),
        "plan {} asks for more tuples than it generates",
        plan.name
    );
    let build = |threads: usize| {
        Cleaner::builder()
            .rules(w.rules.clone())
            .master(MasterSource::external(w.master.clone()))
            .config(CleanConfig {
                parallelism: NonZeroUsize::new(threads),
                ..CleanConfig::default()
            })
            .build()
            .expect("generated rules and master always build")
    };
    let started = std::time::Instant::now();
    let cleaner = build(engine_threads());
    let session_build_s = started.elapsed().as_secs_f64();
    let tenant_cleaner = build(1);
    let rows = w.dirty.to_tuples();
    Inputs {
        w,
        rows,
        cleaner,
        tenant_cleaner,
        session_build_s,
    }
}

/// The seed handed to the generator for `--seed`: the seed itself or, while
/// the full clean of what it generates is not consistent, the next one a
/// fixed stride on. About one `hosp` seed in fifty generates asserted cells
/// that contradict each other under `ZIP -> City`, a frozen conflict no
/// repair may touch. The acceptance check then stops at the first violated
/// CFD, a clean does a fifth of the work of any other seed's, and
/// `consistent == true` could not be checked; the driver picks the seeds,
/// so such inputs are passed over here rather than avoided by hand.
pub fn generator_seed(plan: &Plan, seed: u64) -> u64 {
    const STRIDE: u64 = 1_000_003;
    let cleans = |seed: &u64| {
        let inputs = generate(plan, *seed);
        inputs
            .cleaner
            .clean(&inputs.w.dirty, Phase::Full)
            .consistent
    };
    (0..)
        .map(|k: u64| seed.wrapping_add(k.wrapping_mul(STRIDE)))
        .find(cleans)
        .expect("the candidates never run out")
}

fn jobj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The rule set in the parser's grammar. Datagen names rules like `hm1#1`
/// and `#` starts a comment there, so names are mapped to identifier
/// characters before they go over the wire.
fn rules_text(w: &Workload) -> String {
    fn ident_safe(line: String) -> String {
        match line.split_once(':') {
            Some((name, rest)) => {
                let name: String = name
                    .chars()
                    .map(|c| {
                        if c.is_alphanumeric() || "_-.".contains(c) {
                            c
                        } else {
                            '_'
                        }
                    })
                    .collect();
                format!("{name}:{rest}")
            }
            None => line,
        }
    }
    let mut text = String::new();
    for cfd in w.rules.cfds() {
        text.push_str(&format!("cfd {}\n", ident_safe(cfd.to_string())));
    }
    for md in w.rules.mds() {
        text.push_str(&format!("md {}\n", ident_safe(md.to_string())));
    }
    text
}

/// The `open` document (minus `op`) for a one-thread, full-phase tenant
/// over the workload's rules and master data.
pub fn open_spec(w: &Workload, relation: &str) -> Json {
    let attrs = |s: &uniclean_model::Schema| {
        Json::Arr(
            s.attrs()
                .iter()
                .map(|a| Json::str(a.name.as_str()))
                .collect(),
        )
    };
    jobj(vec![
        ("relation", Json::str(relation)),
        ("table", Json::str(w.dirty.schema().name())),
        ("attrs", attrs(w.dirty.schema())),
        ("rules", Json::str(rules_text(w))),
        (
            "master",
            jobj(vec![
                ("table", Json::str(w.master.schema().name())),
                ("attrs", attrs(w.master.schema())),
                ("rows", batch_to_ingest_json(&w.master.to_tuples())),
            ]),
        ),
        ("phase", Json::str("full")),
        ("threads", Json::Num(1.0)),
    ])
}

/// `rows[start..]` cut into `count` wire batches of `size` tuples.
pub fn wire_batches(rows: &[Tuple], start: usize, count: usize, size: usize) -> Vec<Json> {
    (0..count)
        .map(|i| batch_to_ingest_json(&rows[start + i * size..start + (i + 1) * size]))
        .collect()
}

/// The request document `Client::ingest_with_seq` puts on the wire.
pub fn ingest_request(relation: &str, rows: Json, seq: u64) -> Json {
    jobj(vec![
        ("op", Json::str("ingest")),
        ("relation", Json::str(relation)),
        ("rows", rows),
        ("seq", Json::Num(seq as f64)),
    ])
}

/// The serve stage's batches in order: preload, timed, busy.
pub struct ServeStream {
    pub preload: Vec<Json>,
    pub timed: Vec<Json>,
    pub busy: Vec<Json>,
}

impl ServeStream {
    pub fn cut(plan: &Plan, rows: &[Tuple]) -> ServeStream {
        let per = plan.serve_base / plan.preload_batches;
        assert_eq!(per * plan.preload_batches, plan.serve_base);
        let timed_end = plan.serve_base + plan.batches * plan.batch_tuples;
        ServeStream {
            preload: wire_batches(rows, 0, plan.preload_batches, per),
            timed: wire_batches(rows, plan.serve_base, plan.batches, plan.batch_tuples),
            busy: wire_batches(rows, timed_end, plan.busy_batches, plan.batch_tuples),
        }
    }

    /// Every ingest request line of the stage, exactly as sent (sequence
    /// numbers start at 1 on a fresh tenant).
    pub fn request_lines(&self, relation: &str) -> Vec<String> {
        self.preload
            .iter()
            .chain(&self.timed)
            .chain(&self.busy)
            .enumerate()
            .map(|(i, rows)| ingest_request(relation, rows.clone(), i as u64 + 1).render())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_generates_byte_identical_request_streams() {
        for workload in ["hosp", "sim"] {
            let plan = Plan::named(workload, true).unwrap();
            let stream = |seed: u64| {
                let inputs = generate(&plan, seed);
                let mut lines = vec![open_spec(&inputs.w, "t").render()];
                lines.extend(ServeStream::cut(&plan, &inputs.rows).request_lines("t"));
                lines
            };
            let a = stream(7);
            assert_eq!(a, stream(7), "{workload}: same seed, same bytes");
            assert_ne!(a, stream(8), "{workload}: another seed, other inputs");
            assert_eq!(
                a.len(),
                1 + plan.preload_batches + plan.batches + plan.busy_batches
            );
        }
    }

    #[test]
    fn plans_fit_their_generated_relation() {
        for workload in ["hosp", "sim"] {
            for smoke in [false, true] {
                let p = Plan::named(workload, smoke).unwrap();
                assert!(p.serve_total() <= p.tuples, "{workload} serve");
                assert!(p.fo_total() <= p.tuples, "{workload} failover");
                assert_eq!(p.serve_base % p.preload_batches, 0);
            }
        }
        assert!(Plan::named("nope", false).is_none());
    }
}
