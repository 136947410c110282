//! Units, directions and bounds of the metrics come from `BENCHMARK.json`
//! alone, and a run must report exactly the names it lists: this module
//! parses that file, collects a run's values against it, prints them, and
//! compares two sets of runs.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;
use std::path::Path;

use uniclean_model::Json;

use crate::stats::Summary;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

/// A name starts with a letter or digit and is at most 64 of
/// `[A-Za-z0-9_.-]`.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// A unit is at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

fn keys_are(obj: &Json, want: &[&str]) -> bool {
    match obj {
        Json::Obj(pairs) => {
            pairs.len() == want.len() && want.iter().all(|k| pairs.iter().any(|(p, _)| p == k))
        }
        _ => false,
    }
}

impl Spec {
    /// Read `BENCHMARK.json` from the repository root.
    pub fn load(root: &Path) -> Result<Spec, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&text)
    }

    /// Parse and check the file against the shape the driver expects, so a
    /// bad edit fails here rather than at the first driver run.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        if !keys_are(
            &doc,
            &[
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer",
            ],
        ) {
            return Err(
                "BENCHMARK.json: top level must have exactly command, paths, \
                        run_seconds, workloads, end_to_end, per_layer"
                    .into(),
            );
        }
        let arr = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: {key} must be an array"))
        };
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .filter(|s| (1..=60).contains(s))
            .ok_or("BENCHMARK.json: run_seconds must be a whole number from 1 to 60")?;
        let mut names = BTreeSet::new();
        let mut fresh = |name: &str| -> Result<(), String> {
            if !valid_name(name) {
                return Err(format!("BENCHMARK.json: bad name {name:?}"));
            }
            if !names.insert(name.to_string()) {
                return Err(format!("BENCHMARK.json: name {name:?} is used twice"));
            }
            Ok(())
        };
        let mut workloads = Vec::new();
        for w in arr("workloads")? {
            let name = w.get("name").and_then(Json::as_str).unwrap_or_default();
            let why = w.get("why").and_then(Json::as_str).unwrap_or_default();
            if !keys_are(w, &["name", "why"]) || why.is_empty() || why.len() > 200 {
                return Err(format!("BENCHMARK.json: bad workload entry {w}"));
            }
            fresh(name)?;
            workloads.push(name.to_string());
        }
        if !(2..=8).contains(&workloads.len()) {
            return Err("BENCHMARK.json: 2 to 8 workloads".into());
        }
        let mut metrics = |key: &str, bounded: bool| -> Result<Vec<MetricDef>, String> {
            let want: &[&str] = if bounded {
                &["name", "unit", "better", "bound"]
            } else {
                &["name", "unit", "better"]
            };
            let mut out = Vec::new();
            for m in arr(key)? {
                let name = m.get("name").and_then(Json::as_str).unwrap_or_default();
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
                let better = match m.get("better").and_then(Json::as_str) {
                    Some("higher") => Better::Higher,
                    Some("lower") => Better::Lower,
                    _ => return Err(format!("BENCHMARK.json: {name}: better is higher|lower")),
                };
                let bound = m.get("bound").and_then(Json::as_f64);
                if !keys_are(m, want)
                    || !valid_unit(unit)
                    || (bounded && !bound.is_some_and(|b| (0.0..=0.25).contains(&b)))
                {
                    return Err(format!("BENCHMARK.json: bad {key} entry {m}"));
                }
                fresh(name)?;
                out.push(MetricDef {
                    name: name.to_string(),
                    unit: unit.to_string(),
                    better,
                    bound,
                });
            }
            Ok(out)
        };
        let end_to_end = metrics("end_to_end", true)?;
        let per_layer = metrics("per_layer", false)?;
        if !(1..=16).contains(&end_to_end.len()) || !(1..=128).contains(&per_layer.len()) {
            return Err("BENCHMARK.json: 1 to 16 end_to_end and 1 to 128 per_layer metrics".into());
        }
        if !end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower)
        {
            return Err("BENCHMARK.json: end_to_end needs setup_s in s, lower is better".into());
        }
        Ok(Spec {
            run_seconds,
            workloads,
            end_to_end,
            per_layer,
        })
    }

    /// The metrics a run in this mode must print.
    pub fn defs(&self, trace: bool) -> &[MetricDef] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Results {
    metrics: BTreeMap<String, Summary>,
    /// The metrics that are a count or a ratio of counts fixed by the seed:
    /// two runs of one program on one seed must report the same value.
    exact: BTreeSet<String>,
    /// Operations attempted and, of those, failed, refused or answered
    /// wrongly.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or answer mismatch.
    pub problems: Vec<String>,
    /// One line per residual of the attribution that is out of its range:
    /// the per-layer numbers of that run do not add up to what they split.
    pub out_of_range: Vec<String>,
}

impl Results {
    /// Record a metric from its samples (ignored when there are none, so
    /// the final check reports the metric as missing).
    pub fn samples(&mut self, name: &str, samples: &[f64]) {
        if let Some(s) = Summary::of(samples) {
            self.metrics.insert(name.to_string(), s);
        }
    }

    /// Record a metric the seed fixes exactly (a count, a ratio of counts).
    pub fn exact(&mut self, name: &str, value: f64) {
        self.exact.insert(name.to_string());
        self.point(name, value, 1);
    }

    /// Record a metric that is one measured statistic (a tail percentile, a
    /// difference of medians, a peak) of `n` samples.
    pub fn point(&mut self, name: &str, value: f64, n: usize) {
        let summary = Summary {
            n,
            ..Summary::single(value)
        };
        self.metrics.insert(name.to_string(), summary);
    }

    /// Record a residual of the attribution, and say so when it is outside
    /// the range in which the attribution is complete.
    pub fn residual(&mut self, name: &str, value: f64, range: RangeInclusive<f64>) {
        self.point(name, value, 1);
        if !range.contains(&value) {
            self.out_of_range.push(format!(
                "{name} = {value:.4} is outside {:.2}..{:.2}",
                range.start(),
                range.end()
            ));
        }
    }

    /// Count one operation; a failed one also records why.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.metrics.get(name)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The table a person reads: every metric of this mode by name, with
    /// unit, sample count, median, quartiles, min and max.
    pub fn table(&self, defs: &[MetricDef]) -> String {
        let mut out = format!(
            "{:<36} {:>9} {:>6} {:>14} {:>14} {:>14} {:>14} {:>14}\n",
            "metric", "unit", "n", "median", "q1", "q3", "min", "max"
        );
        for d in defs {
            match self.metrics.get(&d.name) {
                Some(s) => out.push_str(&format!(
                    "{:<36} {:>9} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6}\n",
                    d.name, d.unit, s.n, s.median, s.q1, s.q3, s.min, s.max
                )),
                None => out.push_str(&format!("{:<36} {:>9}  (not measured)\n", d.name, d.unit)),
            }
        }
        out
    }

    /// The result object the driver reads from the last line of stdout.
    /// `Err` names the metrics of this mode the run failed to measure.
    pub fn final_line(&self, defs: &[MetricDef]) -> Result<Json, String> {
        let missing: Vec<&str> = defs
            .iter()
            .filter(|d| !self.metrics.contains_key(&d.name))
            .map(|d| d.name.as_str())
            .collect();
        if !missing.is_empty() {
            return Err(format!("metrics not measured: {}", missing.join(", ")));
        }
        let metrics = defs
            .iter()
            .map(|d| {
                (
                    d.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(self.metrics[&d.name].median)),
                        ("unit".into(), Json::str(d.unit.as_str())),
                    ]),
                )
            })
            .collect();
        Ok(Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]))
    }

    /// Every metric recorded, with its summary, for an output file.
    pub fn to_json(&self, spec: &Spec) -> Json {
        let unit = |name: &str| {
            spec.end_to_end
                .iter()
                .chain(&spec.per_layer)
                .find(|d| d.name == name)
                .map_or("", |d| d.unit.as_str())
        };
        Json::Obj(
            self.metrics
                .iter()
                .map(|(name, s)| {
                    let Json::Obj(mut fields) = s.to_json() else {
                        unreachable!("a summary renders as an object")
                    };
                    fields.insert(0, ("unit".into(), Json::str(unit(name))));
                    fields.push(("exact".into(), Json::Bool(self.exact.contains(name))));
                    (name.clone(), Json::Obj(fields))
                })
                .collect(),
        )
    }
}

/// Check a result line against the shape the driver expects: exactly the
/// four keys, whole counts with `attempted >= 1`, and exactly the metrics
/// of the mode, each a `{value, unit}` with a finite value and its unit.
pub fn validate_final_line(line: &Json, defs: &[MetricDef]) -> Result<(), String> {
    if !keys_are(line, &["correct", "attempted", "failed", "metrics"]) {
        return Err("result must have exactly correct, attempted, failed, metrics".into());
    }
    if line.get("correct").and_then(Json::as_bool).is_none() {
        return Err("correct must be a boolean".into());
    }
    let attempted = line.get("attempted").and_then(Json::as_u64);
    let failed = line.get("failed").and_then(Json::as_u64);
    match (attempted, failed) {
        (Some(a), Some(f)) if a >= 1 && f <= a => {}
        _ => return Err("attempted and failed must be whole numbers, attempted >= 1".into()),
    }
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        return Err("metrics must be an object".into());
    };
    if metrics.len() != defs.len() {
        return Err(format!(
            "expected {} metrics, found {}",
            defs.len(),
            metrics.len()
        ));
    }
    for d in defs {
        let m = line
            .get("metrics")
            .and_then(|ms| ms.get(&d.name))
            .ok_or_else(|| format!("metric {} is missing", d.name))?;
        let value = m.get("value").and_then(Json::as_f64);
        if !keys_are(m, &["value", "unit"])
            || !value.is_some_and(f64::is_finite)
            || m.get("unit").and_then(Json::as_str) != Some(d.unit.as_str())
        {
            return Err(format!(
                "metric {} must be a finite {{value, unit}}",
                d.name
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

/// One record of an output file (a file holds one JSON object per line,
/// one per run).
#[derive(Debug)]
pub struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    attempted: u64,
    failed: u64,
    /// Per metric: the value the run reported and whether the seed fixes it.
    metrics: BTreeMap<String, (f64, bool)>,
}

/// Parse the text of an output file; `origin` names it in errors.
pub fn parse_runs(text: &str, origin: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = Json::parse(line).map_err(|e| format!("{origin}: {e}"))?;
        let missing = |what: &str| format!("{origin}: a run without {what}");
        let env = doc.get("env").ok_or_else(|| missing("env"))?;
        let count = |key: &str| doc.get(key).and_then(Json::as_u64);
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(missing("metrics"));
        };
        let run = Run {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| missing("a workload"))?
                .to_string(),
            seed: env
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or_else(|| missing("a seed"))?,
            trace: env
                .get("trace")
                .and_then(Json::as_bool)
                .ok_or_else(|| missing("a trace flag"))?,
            attempted: count("attempted").ok_or_else(|| missing("attempted"))?,
            failed: count("failed").ok_or_else(|| missing("failed"))?,
            metrics: metrics
                .iter()
                .filter_map(|(name, m)| {
                    let value = m.get("median").and_then(Json::as_f64)?;
                    let exact = m.get("exact").and_then(Json::as_bool)?;
                    Some((name.clone(), (value, exact)))
                })
                .collect(),
        };
        // A run is correct exactly when nothing failed; a record that says
        // otherwise was edited or cut short.
        if doc.get("correct").and_then(Json::as_bool) != Some(run.failed == 0) {
            return Err(format!("{origin}: correct and failed disagree"));
        }
        runs.push(run);
    }
    Ok(runs)
}

/// The verdict on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// Nothing can be said: the run-to-run spread of either side is wider
    /// than the bound, a side is missing, or its runs had failures.
    Unresolved,
}

/// Judge `b` against base `a` under `def`'s bound.
pub fn judge(def: &MetricDef, a: &Summary, b: &Summary) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    // A zero base leaves any difference beyond every bound.
    let scale = if a.median == 0.0 {
        f64::MIN_POSITIVE
    } else {
        a.median.abs()
    };
    let worse_by = match def.better {
        Better::Lower => (b.median - a.median) / scale,
        Better::Higher => (a.median - b.median) / scale,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// A metric's values by seed.
type BySeed = BTreeMap<u64, Vec<f64>>;

/// Judge a metric the seed fixes exactly, seed by seed over the seeds both
/// sides ran: any difference counts (the bound is 0), one seed worse makes
/// the row worse, and a side that disagrees with itself on one seed settles
/// nothing. `None` when the sides share no seed.
pub fn judge_exact(def: &MetricDef, a: &BySeed, b: &BySeed) -> Option<Verdict> {
    let def = MetricDef {
        bound: Some(0.0),
        ..def.clone()
    };
    let mut verdict = None;
    for (seed, va) in a {
        let Some(vb) = b.get(seed) else { continue };
        let only = |v: &[f64]| v.iter().all(|x| *x == v[0]).then_some(v[0]);
        let (Some(x), Some(y)) = (only(va), only(vb)) else {
            return Some(Verdict::Unresolved);
        };
        let this = judge(&def, &Summary::single(x), &Summary::single(y));
        verdict = Some(match (verdict, this) {
            (Some(Verdict::Worse), _) | (_, Verdict::Worse) => Verdict::Worse,
            (Some(Verdict::Better), _) | (_, Verdict::Better) => Verdict::Better,
            _ => Verdict::Same,
        });
    }
    verdict
}

/// Compare two output files; see [`compare_runs`].
pub fn compare(spec: &Spec, a: &Path, b: &Path) -> Result<(String, usize), String> {
    let read = |path: &Path| {
        let origin = path.display().to_string();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{origin}: {e}"))?;
        parse_runs(&text, &origin)
    };
    Ok(compare_runs(spec, &read(a)?, &read(b)?))
}

fn of_workload<'a>(runs: &'a [Run], workload: &str) -> Vec<&'a Run> {
    runs.iter().filter(|r| r.workload == workload).collect()
}

/// Compare two sets of runs, `a` the base. Per workload: one row for the
/// operations that failed, one per end-to-end metric (untraced runs only),
/// and one per other metric the seed fixes exactly, where the sides share a
/// seed. Every ratio is printed with its base. Returns the table and how
/// many rows are `worse` or `unresolved`; a metric or workload that only
/// one side has is such a row.
pub fn compare_runs(spec: &Spec, a: &[Run], b: &[Run]) -> (String, usize) {
    let mut out = format!(
        "{:<10} {:<34} {:>8} {:>5} {:>14} {:>7} {:>14} {:>7} {:>9} {:>6}  verdict\n",
        "workload",
        "metric",
        "unit",
        "runs",
        "base median",
        "spread",
        "new median",
        "spread",
        "new/base",
        "bound"
    );
    let mut bad = 0;
    let mut row = |cells: [String; 10], verdict: Verdict| {
        let [workload, metric, unit, runs, base, base_spread, new, new_spread, ratio, bound] =
            cells;
        bad += matches!(verdict, Verdict::Worse | Verdict::Unresolved) as usize;
        out.push_str(&format!(
            "{workload:<10} {metric:<34} {unit:>8} {runs:>5} {base:>14} {base_spread:>7} \
             {new:>14} {new_spread:>7} {ratio:>9} {bound:>6}  {}\n",
            format!("{verdict:?}").to_lowercase(),
        ));
    };
    let percent = |share: f64| format!("{:.1}%", 100.0 * share);
    for workload in &spec.workloads {
        let (wa, wb) = (of_workload(a, workload), of_workload(b, workload));
        if wa.is_empty() && wb.is_empty() {
            continue;
        }

        // A gain does not count when more operations fail, and numbers from
        // runs with wrong answers are numbers about another program.
        let ops = |runs: &[&Run]| {
            runs.iter()
                .fold((0, 0), |(f, n), r| (f + r.failed, n + r.attempted))
        };
        let ((fa, na), (fb, nb)) = (ops(&wa), ops(&wb));
        let share = |f: u64, n: u64| f as f64 / n.max(1) as f64;
        let verdict = if wa.is_empty() || wb.is_empty() {
            Verdict::Unresolved
        } else if share(fb, nb) > share(fa, na) {
            Verdict::Worse
        } else if fa > 0 {
            Verdict::Unresolved
        } else {
            Verdict::Same
        };
        row(
            [
                workload.clone(),
                "failed/attempted".into(),
                "ops".into(),
                format!("{}/{}", wa.len(), wb.len()),
                format!("{fa}/{na}"),
                String::new(),
                format!("{fb}/{nb}"),
                String::new(),
                String::new(),
                percent(0.0),
            ],
            verdict,
        );

        for def in spec.end_to_end.iter().chain(&spec.per_layer) {
            // Timings come from untraced runs only; what the seed fixes is
            // the same number in either mode.
            let side = |runs: &[&Run]| -> (BySeed, bool) {
                let mut by_seed = BySeed::new();
                let mut all_exact = true;
                for r in runs {
                    match r.metrics.get(&def.name) {
                        Some(&(v, exact)) if exact || !r.trace => {
                            by_seed.entry(r.seed).or_default().push(v);
                            all_exact &= exact;
                        }
                        _ => {}
                    }
                }
                (by_seed, all_exact)
            };
            let ((sa, exact_a), (sb, exact_b)) = (side(&wa), side(&wb));
            let exact = (exact_a && exact_b)
                .then(|| judge_exact(def, &sa, &sb))
                .flatten();
            // Per-layer metrics have no bound: only their exact ones are
            // judged, and only seed against seed.
            if (sa.is_empty() && sb.is_empty()) || (def.bound.is_none() && exact.is_none()) {
                continue;
            }
            let summary =
                |s: &BySeed| Summary::of(&s.values().flatten().copied().collect::<Vec<f64>>());
            let number = |s: &Option<Summary>| {
                s.as_ref()
                    .map_or("missing".into(), |s| format!("{:.6}", s.median))
            };
            let spread =
                |s: &Option<Summary>| s.as_ref().map_or(String::new(), |s| percent(s.spread()));
            let (ma, mb) = (summary(&sa), summary(&sb));
            let (verdict, ratio) = match (&ma, &mb) {
                (Some(x), Some(y)) => (
                    exact.unwrap_or_else(|| judge(def, x, y)),
                    if x.median == 0.0 {
                        String::new()
                    } else {
                        format!("{:.4}", y.median / x.median)
                    },
                ),
                _ => (Verdict::Unresolved, String::new()),
            };
            let n = |s: &Option<Summary>| s.as_ref().map_or(0, |s| s.n);
            row(
                [
                    workload.clone(),
                    def.name.clone(),
                    def.unit.clone(),
                    format!("{}/{}", n(&ma), n(&mb)),
                    number(&ma),
                    spread(&ma),
                    number(&mb),
                    spread(&mb),
                    ratio,
                    percent(if exact.is_some() {
                        0.0
                    } else {
                        def.bound.unwrap_or(0.0)
                    }),
                ],
                verdict,
            );
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The repository's own `BENCHMARK.json`.
    fn spec() -> Spec {
        Spec::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is valid")
    }

    #[test]
    fn names_and_units_keep_to_their_charsets() {
        for ok in ["setup_s", "core.crepair_s", "p95-ms", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "µs", "a/b", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "tuples/s", "%", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "per second", "seventeen_chars__"] {
            assert!(!valid_unit(bad), "{bad}");
        }
        let s = spec();
        for d in s.end_to_end.iter().chain(&s.per_layer) {
            assert!(valid_name(&d.name) && valid_unit(&d.unit), "{d:?}");
        }
    }

    #[test]
    fn the_repository_spec_has_what_the_driver_needs() {
        let s = spec();
        assert_eq!(s.workloads, ["hosp", "sim"]);
        assert!(s.end_to_end.iter().all(|d| d.bound.is_some()));
        assert!(s.per_layer.iter().all(|d| d.bound.is_none()));
        // setup_s carries the largest bound.
        let setup = s.end_to_end.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(s.end_to_end.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn malformed_specs_are_refused() {
        let good = include_str!("../../BENCHMARK.json");
        assert!(Spec::parse(&good.replace("\"setup_s\"", "\"set_up_s\"")).is_err());
        assert!(Spec::parse(&good.replace("\"run_seconds\"", "\"seconds\"")).is_err());
        assert!(Spec::parse(&good.replacen("\"lower\"", "\"smaller\"", 1)).is_err());
        assert!(Spec::parse(&good.replacen("\"sim\"", "\"hosp\"", 1)).is_err());
        assert!(Spec::parse("{}").is_err());
    }

    #[test]
    fn a_result_line_is_checked_against_the_schema() {
        let s = spec();
        let mut r = Results::default();
        r.op(true, String::new);
        for (i, d) in s.end_to_end.iter().enumerate() {
            r.samples(&d.name, &[1.0 + i as f64, 2.0 + i as f64, 4.0]);
        }
        let line = r.final_line(&s.end_to_end).unwrap();
        validate_final_line(&line, &s.end_to_end).unwrap();
        // It survives its own rendering, as the driver will read it.
        let reparsed = Json::parse(&line.render()).unwrap();
        validate_final_line(&reparsed, &s.end_to_end).unwrap();
        // The other mode's metric list does not fit it.
        assert!(validate_final_line(&line, &s.per_layer).is_err());
        // A run that measured nothing attempted nothing: refused.
        let idle = Results::default();
        assert!(idle.final_line(&s.end_to_end).is_err());
        let mut partial = Results::default();
        partial.exact("setup_s", 1.0);
        let err = partial.final_line(&s.end_to_end).unwrap_err();
        assert!(err.contains("clean_tuples_per_s"), "{err}");
        // Extra keys, a failed count above attempted, NaN: all refused.
        let tamper = |from: &str, to: &str| {
            let t = Json::parse(&line.render().replacen(from, to, 1)).unwrap();
            validate_final_line(&t, &s.end_to_end)
        };
        assert!(tamper("\"failed\":0", "\"failed\":9").is_err());
        assert!(tamper("\"unit\":\"s\"", "\"unit\":\"ms\"").is_err());
        assert!(tamper("\"correct\":true", "\"correct\":1").is_err());
    }

    #[test]
    fn failed_operations_make_a_run_incorrect() {
        let mut r = Results::default();
        r.op(true, String::new);
        assert!(r.correct());
        r.op(false, || "dump differs".into());
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert_eq!(r.problems, ["dump differs"]);
    }

    #[test]
    fn verdicts_apply_the_bound_in_the_metrics_direction() {
        let lower = MetricDef {
            name: "lat".into(),
            unit: "ms".into(),
            better: Better::Lower,
            bound: Some(0.10),
        };
        let higher = MetricDef {
            better: Better::Higher,
            ..lower.clone()
        };
        let at = Summary::single;
        assert_eq!(judge(&lower, &at(100.0), &at(105.0)), Verdict::Same);
        assert_eq!(judge(&lower, &at(100.0), &at(111.0)), Verdict::Worse);
        assert_eq!(judge(&lower, &at(100.0), &at(80.0)), Verdict::Better);
        assert_eq!(judge(&higher, &at(100.0), &at(80.0)), Verdict::Worse);
        assert_eq!(judge(&higher, &at(100.0), &at(120.0)), Verdict::Better);
        // A side whose own runs disagree by more than the bound settles
        // nothing, whatever the medians say.
        let noisy = Summary::of(&[80.0, 100.0, 130.0]).unwrap();
        assert_eq!(judge(&lower, &noisy, &at(100.0)), Verdict::Unresolved);
        assert_eq!(judge(&lower, &at(100.0), &noisy), Verdict::Unresolved);
        // From a zero base any move is beyond the bound.
        assert_eq!(judge(&lower, &at(0.0), &at(0.0)), Verdict::Same);
        assert_eq!(judge(&lower, &at(0.0), &at(1.0)), Verdict::Worse);
        assert_eq!(judge(&higher, &at(0.0), &at(1.0)), Verdict::Better);
    }

    /// One output record: workload `hosp`, every end-to-end metric at 1.0
    /// (the quality ratios exact) except what `edit` changes.
    fn record(seed: u64, failed: u64, edit: &[(&str, f64)]) -> String {
        let metrics: Vec<String> = spec()
            .end_to_end
            .iter()
            .map(|d| {
                let v = edit.iter().find(|(n, _)| *n == d.name).map_or(1.0, |e| e.1);
                let exact = d.name.starts_with("repair_");
                format!("\"{}\":{{\"median\":{v},\"exact\":{exact}}}", d.name)
            })
            .collect();
        format!(
            "{{\"workload\":\"hosp\",\"env\":{{\"seed\":{seed},\"trace\":false}},\
             \"correct\":{},\"attempted\":10,\"failed\":{failed},\"metrics\":{{{}}}}}\n",
            failed == 0,
            metrics.join(",")
        )
    }

    fn bad_rows(a: &str, b: &str) -> (String, usize) {
        let runs = |text: &str| parse_runs(text, "test").unwrap();
        compare_runs(&spec(), &runs(a), &runs(b))
    }

    #[test]
    fn what_the_seed_fixes_is_judged_seed_by_seed_without_a_bound() {
        let base = record(1, 0, &[]) + &record(2, 0, &[("repair_precision", 0.5)]);
        assert_eq!(bad_rows(&base, &base).1, 0);
        // 2 % less precision on seed 2 is far inside the 25 % cross-seed
        // bound and still worse; the other seed and metrics are untouched.
        let lost = record(1, 0, &[]) + &record(2, 0, &[("repair_precision", 0.49)]);
        let (table, bad) = bad_rows(&base, &lost);
        assert_eq!(bad, 1, "{table}");
        assert!(table
            .lines()
            .any(|l| l.contains("repair_precision") && l.ends_with("worse")));
        // Without a shared seed only the bound is left.
        let other = record(3, 0, &[("repair_precision", 0.9)]);
        assert_eq!(bad_rows(&record(1, 0, &[]), &other).1, 0);
        // One program, one seed, two answers: unresolved.
        let twice = record(1, 0, &[]) + &record(1, 0, &[("repair_recall", 0.9)]);
        let (table, bad) = bad_rows(&twice, &twice);
        assert_eq!(bad, 1, "{table}");
    }

    #[test]
    fn failures_and_missing_sides_are_bad_rows() {
        let good = record(1, 0, &[]);
        // More failures than the base: worse, whatever the metrics say.
        let (table, bad) = bad_rows(&good, &record(1, 2, &[("setup_s", 0.5)]));
        assert_eq!(bad, 1, "{table}");
        assert!(table
            .lines()
            .any(|l| l.contains("failed/attempted") && l.ends_with("worse")));
        // A base that failed settles nothing.
        assert_eq!(bad_rows(&record(1, 2, &[]), &good).1, 1);
        // A metric only one side has.
        let cut = good.replace("\"catchup_s\":{\"median\":1,\"exact\":false},", "");
        assert_ne!(cut, good);
        let (table, bad) = bad_rows(&good, &cut);
        assert_eq!(bad, 1, "{table}");
        assert!(table
            .lines()
            .any(|l| l.contains("catchup_s") && l.contains("missing")));
        // A workload only one side has: its failure row and every metric.
        let (_, bad) = bad_rows(&good, "");
        assert_eq!(bad, 1 + spec().end_to_end.len());
        // A record whose verdict contradicts its counts is refused.
        let forged = good.replace("\"correct\":true", "\"correct\":false");
        assert!(parse_runs(&forged, "test").is_err());
    }
}
