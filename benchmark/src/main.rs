//! The repository's benchmark: what a client of the cleaning system sees
//! (batch clean, served ingest and check, restart, failover), measured with
//! tracing off, and the same work attributed crate by crate with tracing
//! on. See `benchmark/README.md` for the metric glossary; names, units and
//! bounds live in `BENCHMARK.json`.
//!
//! ```text
//! uniclean-benchmark [--workload hosp|sim|all] [--seed N] [--seconds S] [--trace 0|1]
//!                    [--smoke] [--out FILE] --daemon PATH [--root DIR]
//! uniclean-benchmark --repeat-check [--workload ..] [--seed N] [--smoke] --daemon PATH
//! uniclean-benchmark compare A.jsonl B.jsonl [--root DIR]
//! ```
//!
//! The last line a workload prints on standard output is the result object
//! the driver reads.

mod batch;
mod child;
mod failover;
mod inputs;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use uniclean_model::frame::fnv1a64;
use uniclean_model::json::relation_to_json;
use uniclean_model::{Json, Relation};

use batch::Batch;
use child::{Daemon, ScratchDir};
use failover::Failover;
use inputs::{Inputs, Plan, ServeStream};
use report::{Results, Spec};
use serve::Serve;
use trace::Tracer;

/// What every stage works with.
pub struct Ctx<'a> {
    pub plan: &'a Plan,
    pub inputs: &'a Inputs,
    pub res: &'a mut Results,
    pub tracer: &'a mut Tracer,
    pub daemon_bin: &'a Path,
    pub scratch: &'a ScratchDir,
}

/// FNV fingerprint of a rendered relation: values, confidences and marks.
pub fn fingerprint(r: &Relation) -> u64 {
    fingerprint_json(&relation_to_json(r))
}

/// The same fingerprint from rows already in the dump shape.
pub fn fingerprint_json(rows: &Json) -> u64 {
    fnv1a64(rows.render().as_bytes())
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat_check: bool,
    out: Option<PathBuf>,
    daemon: Option<PathBuf>,
    root: PathBuf,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: "all".into(),
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        repeat_check: false,
        out: None,
        daemon: None,
        root: PathBuf::from("."),
        positional: Vec::new(),
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |text: String, flag: &str| -> Result<f64, String> {
        text.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("{flag} expects a non-negative number, got {text:?}"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => o.workload = value(&mut i, "--workload")?,
            "--seed" => o.seed = number(value(&mut i, "--seed")?, "--seed")? as u64,
            "--seconds" => o.seconds = Some(number(value(&mut i, "--seconds")?, "--seconds")?),
            // `--trace 0|1`; a bare `--trace` means 1.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => (o.trace, i) = (false, i + 1),
                Some("1") => (o.trace, i) = (true, i + 1),
                _ => o.trace = true,
            },
            "--smoke" => o.smoke = true,
            "--repeat-check" => o.repeat_check = true,
            "--out" => o.out = Some(value(&mut i, "--out")?.into()),
            "--daemon" => o.daemon = Some(value(&mut i, "--daemon")?.into()),
            "--root" => o.root = value(&mut i, "--root")?.into(),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            other => o.positional.push(other.to_string()),
        }
        i += 1;
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|opts| match opts.positional.first() {
        Some(cmd) if cmd == "compare" => compare(&opts),
        Some(other) => Err(format!("unknown command {other:?}")),
        None => run(&opts, &args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("uniclean-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn compare(opts: &Opts) -> Result<bool, String> {
    let [_, a, b] = opts.positional.as_slice() else {
        return Err("usage: compare <a.jsonl> <b.jsonl>".into());
    };
    compare_files(&opts.root, Path::new(a), Path::new(b))
}

/// Print the comparison of two output files, `a` the base; `true` when no
/// row is worse or unresolved.
fn compare_files(root: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let (table, bad) = report::compare(&Spec::load(root)?, a, b)?;
    print!("{table}");
    println!("{bad} row(s) worse or unresolved");
    Ok(bad == 0)
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

/// Everything needed to read a number later: commit, seed, cores, threads,
/// kernel dispatch, sizes, flush policy and the filesystem under the data.
fn environment(
    opts: &Opts,
    plan: &Plan,
    generator_seed: u64,
    seconds: f64,
    scratch: &Path,
) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = std::env::var("BENCH_GIT_COMMIT").unwrap_or_else(|_| "unknown".into());
    Json::Obj(vec![
        ("git_commit".into(), Json::str(commit)),
        ("seed".into(), Json::Num(opts.seed as f64)),
        ("generator_seed".into(), Json::Num(generator_seed as f64)),
        ("seconds".into(), Json::Num(seconds)),
        ("trace".into(), Json::Bool(opts.trace)),
        ("smoke".into(), Json::Bool(opts.smoke)),
        ("nproc".into(), Json::Num(nproc as f64)),
        (
            "engine_threads".into(),
            Json::Num(inputs::engine_threads() as f64),
        ),
        ("tenant_threads".into(), Json::Num(1.0)),
        (
            "simd_dispatch".into(),
            Json::str(format!("{:?}", uniclean_similarity::simd::dispatch_info())),
        ),
        ("sizes".into(), plan.to_json()),
        (
            "fsync".into(),
            Json::str("on: WAL appends and snapshots are fsync'd before the ack"),
        ),
        ("data_dir_fs".into(), Json::str(fs_type(scratch))),
    ])
}

/// How many times `--repeat-check` runs each workload on each side. Of
/// seven values the quartiles (Python's exclusive method) are the second
/// and the sixth, so the spread leaves out one run at each end — what one
/// speed shift of this sandbox costs; with fewer, a single slow run makes
/// its side's spread the whole range and every row `unresolved`.
const REPEAT_RUNS: usize = 7;

/// Run the chosen workloads (`all`: every one `BENCHMARK.json` lists);
/// `true` when every answer was right and, under `--repeat-check`, the two
/// sides agree.
///
/// One process per run, as the driver does it: `peak_rss_mb` is the peak of
/// a process's whole life, so a run that shared its process with an earlier
/// one would report that one's memory. A single run happens here; several
/// are handed to children of this executable, one after the other.
fn run(opts: &Opts, args: &[String]) -> Result<bool, String> {
    let spec = Spec::load(&opts.root)?;
    let chosen: Vec<&String> = spec
        .workloads
        .iter()
        .filter(|w| opts.workload == "all" || opts.workload == **w)
        .collect();
    if chosen.is_empty() {
        return Err(format!(
            "--workload must be all or one of {}, got {:?}",
            spec.workloads.join("|"),
            opts.workload
        ));
    }
    if let ([name], false) = (chosen.as_slice(), opts.repeat_check) {
        let plan = Plan::named(name, opts.smoke)
            .ok_or_else(|| format!("BENCHMARK.json lists a workload {name:?} without a plan"))?;
        return run_workload(opts, &spec, &plan);
    }
    let run_each = |out: Option<&Path>| -> Result<bool, String> {
        let mut correct = true;
        for name in &chosen {
            correct &= run_in_child(args, name, out)?;
        }
        Ok(correct)
    };
    if !opts.repeat_check {
        return run_each(opts.out.as_deref());
    }

    // The same code measured twice must agree with itself: `REPEAT_RUNS`
    // runs of each workload into each of two files, the sides taking turns
    // so that a drift of the machine falls on both, then compared.
    let out_dir = opts.root.join("benchmark").join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let sides = ["a", "b"].map(|side| out_dir.join(format!("repeat-{side}.jsonl")));
    for side in &sides {
        let _ = std::fs::remove_file(side);
    }
    let mut correct = true;
    for _ in 0..REPEAT_RUNS {
        for side in &sides {
            correct &= run_each(Some(side))?;
        }
    }
    let [a, b] = &sides;
    Ok(compare_files(&opts.root, a, b)? && correct)
}

/// One run of `workload` in a child of this executable, with this process's
/// own arguments except the ones that chose what to run and where to record
/// it. The child prints straight to our standard output and is waited for.
fn run_in_child(args: &[String], workload: &str, out: Option<&Path>) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--repeat-check" => {}
            "--workload" | "--out" => {
                args.next();
            }
            _ => {
                cmd.arg(arg);
            }
        }
    }
    cmd.args(["--workload", workload]);
    if let Some(out) = out {
        cmd.arg("--out").arg(out);
    }
    let status = cmd
        .status()
        .map_err(|e| format!("cannot run workload {workload}: {e}"))?;
    match status.code() {
        Some(0) => Ok(true),
        Some(1) => Ok(false),
        _ => Err(format!(
            "the run of workload {workload} ended with {status}"
        )),
    }
}

fn run_workload(opts: &Opts, spec: &Spec, plan: &Plan) -> Result<bool, String> {
    let daemon_bin = opts
        .daemon
        .as_deref()
        .ok_or("--daemon <path to the uniclean binary> is required")?;
    let seconds = opts.seconds.unwrap_or(if opts.smoke {
        0.0
    } else {
        spec.run_seconds as f64
    });
    let out_dir = opts.root.join("benchmark").join("out");
    let scratch = ScratchDir::create(out_dir.join(format!("tmp-{}", std::process::id())))
        .map_err(|e| format!("cannot create scratch dir: {e}"))?;

    let mut res = Results::default();
    let mut tracer = Tracer::new(opts.trace);

    // Set-up: generate the inputs from the seed, build the sessions, boot
    // the durable daemon, open the tenant, preload the base. It is repeated
    // for its median; the first one is the one the run measures on, the rest
    // are spread over the run like every other sample.
    let generator_seed = inputs::generator_seed(plan, opts.seed);
    let set_up = |dir: &Path| -> Result<(f64, Inputs, ServeStream, Daemon), String> {
        let _ = std::fs::remove_dir_all(dir);
        let t0 = Instant::now();
        let inputs = inputs::generate(plan, generator_seed);
        let stream = ServeStream::cut(plan, &inputs.rows);
        let daemon = Daemon::spawn(daemon_bin, dir, None)?;
        serve::open_and_preload(&inputs, &mut daemon.client(), &stream)
            .map_err(|e| format!("set-up: {e}"))?;
        Ok((t0.elapsed().as_secs_f64(), inputs, stream, daemon))
    };
    let serve_dir = scratch.path().join("serve");
    let (first_setup_s, inputs, stream, daemon) = set_up(&serve_dir)?;
    let mut setup_s = vec![first_setup_s];
    res.attempted += 1 + plan.preload_batches as u64;

    // Measure in rounds — one clean sample, one slice of the serve stage,
    // one failover cycle, one more set-up — so that every metric's samples
    // span the whole run and a slow few seconds of the machine cannot sit
    // on all samples of one metric. The serve stage is fixed work; the
    // others repeat identical samples until the time is used up.
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut ctx = Ctx {
        plan,
        inputs: &inputs,
        res: &mut res,
        tracer: &mut tracer,
        daemon_bin,
        scratch: &scratch,
    };
    let mut batch = Batch::warm_up(&mut ctx);
    let mut serve = Serve::new(&mut ctx, &daemon, &serve_dir, &stream);
    let mut failover = Failover::prepare(&mut ctx)?;
    loop {
        let serving = serve.step(&mut ctx);
        let in_time = Instant::now() < deadline;
        if !serving
            && !in_time
            && batch.samples() >= plan.clean_min_samples
            && failover.cycles() >= plan.fo_min_cycles
            && setup_s.len() >= plan.setup_repeats
        {
            break;
        }
        if in_time || batch.samples() < plan.clean_min_samples {
            batch.sample(&mut ctx);
        }
        if in_time || failover.cycles() < plan.fo_min_cycles {
            failover.cycle(&mut ctx)?;
        }
        if setup_s.len() < plan.setup_repeats {
            let (secs, ..) = set_up(&scratch.path().join("setup-again"))?;
            setup_s.push(secs);
        }
    }
    batch.finish(&mut ctx);
    serve.finish(&mut ctx);
    failover.finish(&mut ctx);
    drop(daemon);
    res.samples("setup_s", &setup_s);

    // Report.
    let defs = spec.defs(opts.trace);
    println!(
        "workload {} seed {} (generator seed {}) trace {} ({} operations, {} failed, measured {:.1}s)",
        plan.name,
        opts.seed,
        generator_seed,
        opts.trace as u8,
        res.attempted,
        res.failed,
        started.elapsed().as_secs_f64()
    );
    print!("{}", res.table(defs));
    for p in &res.problems {
        println!("FAILED: {p}");
    }
    for r in &res.out_of_range {
        println!("ATTRIBUTION INCOMPLETE: {r}");
    }
    if opts.trace {
        println!(
            "{:<28} {:>7} {:>12} {:>12}",
            "span", "count", "total s", "self s"
        );
        for (name, n, total, own) in tracer.self_times() {
            println!("{name:<28} {n:>7} {total:>12.6} {own:>12.6}");
        }
        let path = out_dir.join(format!("trace-{}.json", plan.name));
        std::fs::write(&path, tracer.to_json().render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let line = res.final_line(defs)?;
    report::validate_final_line(&line, defs)?;
    if let Some(out) = &opts.out {
        let record = Json::Obj(vec![
            ("workload".into(), Json::str(plan.name)),
            (
                "env".into(),
                environment(opts, plan, generator_seed, seconds, scratch.path()),
            ),
            ("correct".into(), Json::Bool(res.correct())),
            ("attempted".into(), Json::Num(res.attempted as f64)),
            ("failed".into(), Json::Num(res.failed as f64)),
            (
                "attribution_complete".into(),
                Json::Bool(res.out_of_range.is_empty()),
            ),
            ("metrics".into(), res.to_json(spec)),
        ]);
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| writeln!(f, "{}", record.render()))
            .map_err(|e| format!("{}: {e}", out.display()))?;
    }
    println!("{}", line.render());
    Ok(res.correct())
}
