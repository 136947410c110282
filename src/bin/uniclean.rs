//! The `uniclean` command-line tool.
//!
//! ```text
//! uniclean clean    --data d.csv --rules r.rules [--master m.csv] [--out out.csv]
//!                   [--table tran] [--master-table card] [--eta 1.0] [--delta2 0.8]
//!                   [--phase c|ce|full] [--self-match] [--threads n] [--report]
//! uniclean check    --data d.csv --rules r.rules [--master m.csv] …
//! uniclean analyze  --rules r.rules --data d.csv [--master m.csv] …
//! uniclean discover --data d.csv [--max-lhs 2] [--min-support 3]
//! uniclean serve    [--addr 127.0.0.1:7401] [--shards 4] [--queue 64]
//!                   [--data-dir dir] [--snapshot-every 64] [--no-fsync]
//! ```
//!
//! CSV files carry a header row naming the attributes; every column is read
//! as text; the literal `\N` denotes null. Rule files use the textual rule
//! language of `uniclean::rules::parse_rules` (see `--help`).

use std::process::ExitCode;
use std::sync::Arc;

use uniclean::discovery::{discover_constant_cfds, discover_fds, ConstantCfdConfig, FdConfig};
use uniclean::model::csv::{from_csv, to_csv};
use uniclean::model::{Relation, Schema, ValueType};
use uniclean::reasoning::{is_consistent, termination_diagnostics};
use uniclean::rules::{cfd_violations, md_violations, parse_rules, RuleSet, Violation};
use uniclean::{CleanConfig, CleanResult, Cleaner, MasterSource, Phase};

const USAGE: &str = "\
uniclean — unified record matching and data repairing (Fan et al., SIGMOD 2011)

USAGE:
    uniclean <COMMAND> [OPTIONS]

COMMANDS:
    clean      repair --data using --rules (and optionally --master)
    check      list rule violations in --data without repairing
    analyze    static analyses of the rule set: consistency, termination
    discover   mine FDs and constant CFDs from --data
    serve      run the cleaning daemon (line-delimited JSON over TCP)
    promote    flip a standby daemon to serving (see --replicate-from)

COMMON OPTIONS:
    --data <file.csv>          the (dirty) relation; header row names attributes
    --rules <file.rules>       rule file (cfd/md/neg lines; see README)
    --master <file.csv>        master relation (required when rules contain MDs,
                               unless --self-match)
    --table <name>             relation name used in the rule file [default: data]
    --master-table <name>      master relation name in the rule file [default: master]

CLEAN OPTIONS:
    --out <file.csv>           write the repaired relation here (default: stdout)
    --eta <0..1>               confidence threshold η [default: 1.0]
    --delta2 <0..1>            entropy threshold δ2 [default: 0.8]
    --phase <c|ce|full>        run cRepair / +eRepair / all phases [default: full]
    --cf <0..1>                default confidence for every input cell [default: 0]
    --self-match               master-free mode: the data is its own master;
                               cannot be combined with --master
    --threads <n>              worker threads for the phase internals
                               [default: all cores; output is identical at any n]
    --delta <b1.csv,b2.csv>    incremental mode: clean --data once, then absorb
                               each batch CSV via clean_delta (same header row);
                               the output is the repaired concatenated relation,
                               bit-identical to recleaning it from scratch
    --report                   print every fix (mark, cell, old → new, rule)
    --explain-plans            print the active similarity kernel dispatch
                               (SIMD level, Jaro matcher, ~lev driver; see
                               UNICLEAN_FORCE_SCALAR) and the master-index
                               access path chosen for each MD (exact /
                               composite / q-gram count / lev count / Jaro /
                               intersection) before cleaning

DISCOVER OPTIONS:
    --max-lhs <n>              maximum FD LHS size [default: 2]
    --min-support <n>          minimum pattern support for constant CFDs [default: 3]

SERVE OPTIONS:
    --addr <host:port>         listen address [default: 127.0.0.1:7401]; port 0
                               picks an ephemeral port (printed at startup)
    --shards <n>               worker shards; relations are placed by
                               hash(relation) % shards [default: 4]
    --queue <n>                per-shard ingest queue bound; a full queue
                               answers busy instead of buffering [default: 64]
    --data-dir <dir>           durable mode: per-tenant write-ahead logs and
                               snapshots under this directory; on startup the
                               daemon recovers every tenant found there
    --snapshot-every <n>       snapshot + compact a tenant's WAL every n
                               logged batches; 0 disables compaction
                               [default: 64]
    --no-fsync                 skip fsync on WAL appends and snapshots
                               (faster; an OS crash may lose acked batches)
    --max-line-bytes <n>       longest accepted request line [default: 64 MiB]
    --replicate-from <addr>    start as a read-only standby streaming the WAL
                               of the primary at <addr>; requires --data-dir;
                               mutations answer `standby` until promoted

PROMOTE OPTIONS:
    --addr <host:port>         the standby daemon to promote; it stops
                               replicating, drains its apply queue, and
                               starts accepting writes

    The protocol is one JSON request per line, one JSON response per line
    (ops: open, ingest, check, dump, stats, ping, close, shutdown, hello,
    promote, repl_list, repl_fetch, repl_ack); see the README \"Serving\",
    \"Durability & recovery\" and \"Replication & failover\" sections.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Tiny `--key value` / `--flag` parser (mirrors the bench harness's).
struct Opts {
    values: std::collections::HashMap<String, String>,
    flags: std::collections::HashSet<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut values = std::collections::HashMap::new();
        let mut flags = std::collections::HashSet::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(key) = args[i].strip_prefix("--") {
                if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    values.insert(key.to_string(), args[i + 1].clone());
                    i += 2;
                } else {
                    flags.insert(key.to_string());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        Opts { values, flags }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.contains(key)
    }

    fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a number, got `{v}`")),
        }
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got `{v}`")),
        }
    }
}

/// Dispatch; returns the text to print on success.
fn run(args: &[String]) -> Result<String, String> {
    let Some(cmd) = args.first() else {
        return Err("no command given".into());
    };
    let opts = Opts::parse(&args[1..]);
    match cmd.as_str() {
        "clean" => cmd_clean(&opts),
        "check" => cmd_check(&opts),
        "analyze" => cmd_analyze(&opts),
        "discover" => cmd_discover(&opts),
        "serve" => cmd_serve(&opts),
        "promote" => cmd_promote(&opts),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn load_relation(path: &str, table: &str, default_cf: f64) -> Result<Relation, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let header_cols = text
        .lines()
        .next()
        .map(|l| l.split(',').count())
        .unwrap_or(0);
    let types = vec![ValueType::Str; header_cols];
    from_csv(table, &types, &text, default_cf).map_err(|e| format!("{path}: {e}"))
}

struct LoadedInput {
    rules: RuleSet,
    data: Relation,
    master: Option<Relation>,
}

fn load_input(opts: &Opts, default_cf: f64) -> Result<LoadedInput, String> {
    let data_path = opts.require("data")?;
    let rules_path = opts.require("rules")?;
    let table = opts.get_or("table", "data");
    let master_table = opts.get_or("master-table", "master");

    let data = load_relation(data_path, table, default_cf)?;
    let master = match opts.get("master") {
        Some(_) if opts.flag("self-match") => {
            return Err("--master and --self-match are mutually exclusive: \
                        --self-match makes the data its own master"
                .into())
        }
        Some(p) => Some(load_relation(p, master_table, 1.0)?),
        None if opts.flag("self-match") => {
            // Self-matching: the master schema mirrors the data schema.
            let schema: Arc<Schema> = Arc::new(Schema::new(
                master_table,
                data.schema().attrs().iter().map(|a| (a.name.clone(), a.ty)),
            ));
            Some(Relation::with_schema(schema, &data))
        }
        None => None,
    };

    let rule_text = std::fs::read_to_string(rules_path)
        .map_err(|e| format!("cannot read {rules_path}: {e}"))?;
    let parsed = parse_rules(
        &rule_text,
        data.schema(),
        master.as_ref().map(|m| m.schema()),
    )
    .map_err(|e| e.to_string())?;
    let rules = RuleSet::try_new(
        data.schema().clone(),
        master.as_ref().map(|m| m.schema().clone()),
        parsed.cfds,
        parsed.positive_mds,
        parsed.negative_mds,
    )
    .map_err(|e| e.to_string())?;
    Ok(LoadedInput {
        rules,
        data,
        master,
    })
}

fn parse_phase(s: &str) -> Result<Phase, String> {
    match s {
        "c" => Ok(Phase::CRepair),
        "ce" => Ok(Phase::CERepair),
        "full" => Ok(Phase::Full),
        other => Err(format!("--phase expects c|ce|full, got `{other}`")),
    }
}

fn cmd_clean(opts: &Opts) -> Result<String, String> {
    let default_cf = opts.get_f64("cf", 0.0)?;
    let LoadedInput {
        rules,
        data,
        master,
    } = load_input(opts, default_cf)?;
    let parallelism = match opts.get("threads") {
        None => None, // auto: all available cores
        Some(v) => Some(
            v.parse::<std::num::NonZeroUsize>()
                .map_err(|_| format!("--threads expects a positive integer, got `{v}`"))?,
        ),
    };
    let cfg = CleanConfig {
        eta: opts.get_f64("eta", 1.0)?,
        delta_entropy: opts.get_f64("delta2", 0.8)?,
        parallelism,
        ..CleanConfig::default()
    };
    let phase = parse_phase(opts.get_or("phase", "full"))?;

    // One builder path for all three master modes; every misuse (bad
    // thresholds, MDs without master, schema mismatch) surfaces as a typed
    // error rendered on stderr instead of a panic. Rules and master move
    // into the session — no copies.
    let master = if opts.flag("self-match") {
        MasterSource::SelfSnapshot
    } else {
        match master {
            Some(dm) => MasterSource::external(dm),
            None => MasterSource::None,
        }
    };
    let cleaner = Cleaner::builder()
        .rules(rules)
        .master(master)
        .config(cfg)
        .build()
        .map_err(|e| e.to_string())?;

    let mut out = String::new();
    if opts.flag("explain-plans") {
        let prepared = cleaner.prepared();
        out.push_str(&format!(
            "similarity kernels: {}\n",
            uniclean::similarity::simd::dispatch_info()
        ));
        match prepared.master_index() {
            Some(idx) => {
                out.push_str("access paths:\n");
                for (i, md) in prepared.rules().mds().iter().enumerate() {
                    out.push_str(&format!("  {}: {}\n", md.name(), idx.describe_plan(i, md)));
                }
            }
            None => out.push_str(
                "access paths: none prebuilt (self-snapshot mode re-plans per phase, \
                 and CFD-only rule sets need no master index)\n",
            ),
        }
    }
    let result = match opts.get("delta") {
        None => cleaner.clean(&data, phase),
        Some(batches) => {
            // Incremental mode: clean the base once, then absorb each
            // batch through the persistent RepairState.
            let (mut state, first) = cleaner.begin(&data, phase);
            out.push_str(&format!(
                "base: {} tuples, {} fixes, consistent: {}\n",
                data.len(),
                first.report.len(),
                first.consistent
            ));
            for path in batches.split(',').filter(|p| !p.is_empty()) {
                let batch = load_relation(path, opts.get_or("table", "data"), default_cf)?;
                // The library API takes schema-less tuples; the CLI holds
                // both headers, so a reordered or renamed batch header must
                // fail here instead of silently feeding swapped columns.
                let (want, got) = (data.schema(), batch.schema());
                if want
                    .attrs()
                    .iter()
                    .map(|a| &a.name)
                    .ne(got.attrs().iter().map(|a| &a.name))
                {
                    return Err(format!(
                        "{path}: batch header ({}) does not match the data header ({})",
                        got.attrs()
                            .iter()
                            .map(|a| a.name.as_str())
                            .collect::<Vec<_>>()
                            .join(","),
                        want.attrs()
                            .iter()
                            .map(|a| a.name.as_str())
                            .collect::<Vec<_>>()
                            .join(","),
                    ));
                }
                let escalations_before = state.escalations();
                let started = std::time::Instant::now();
                let r = cleaner
                    .clean_delta(&mut state, &batch.to_tuples())
                    .map_err(|e| format!("{path}: {e}"))?;
                out.push_str(&format!(
                    "delta {path}: +{} tuples, {} fixes, consistent: {}{} ({:.3}s)\n",
                    batch.len(),
                    r.report.len(),
                    r.consistent,
                    if state.escalations() > escalations_before {
                        " [escalated to full reclean]"
                    } else {
                        ""
                    },
                    started.elapsed().as_secs_f64(),
                ));
            }
            // The session log re-records eRepair/hRepair fixes re-derived
            // on every delta call; summarize (and --report) each cell's
            // final fix once so the counts are not inflated.
            let mut report = uniclean::core::FixReport::new();
            for rec in state.log().final_states() {
                report.push(rec.clone());
            }
            CleanResult {
                repaired: state.repaired().clone(),
                report,
                cost: state.cost(),
                consistent: state.consistent(),
                phases: Vec::new(),
            }
        }
    };

    let (det, rel, pos) = result.fix_counts();
    out.push_str(&format!(
        "applied {} fixes ({det} deterministic, {rel} reliable, {pos} possible); \
         repair cost {:.3}; consistent: {}\n",
        result.report.len(),
        result.cost,
        result.consistent
    ));
    if opts.flag("report") {
        for fix in result.report.records() {
            out.push_str(&format!(
                "  [{}] {}.{}: {} -> {}   (rule {})\n",
                fix.mark,
                fix.tuple,
                data.schema().attr_name(fix.attr),
                fix.old,
                fix.new,
                fix.rule
            ));
        }
    }
    let csv = to_csv(&result.repaired);
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, csv).map_err(|e| format!("cannot write {path}: {e}"))?;
            out.push_str(&format!("repaired relation written to {path}\n"));
        }
        None => out.push_str(&csv),
    }
    Ok(out)
}

fn cmd_check(opts: &Opts) -> Result<String, String> {
    let input = load_input(opts, 0.0)?;
    let mut out = String::new();
    let cv = cfd_violations(input.rules.cfds(), &input.data, false);
    let mut by_rule: std::collections::BTreeMap<&str, usize> = Default::default();
    for v in &cv {
        let name = match v {
            Violation::ConstantCfd { rule, .. } | Violation::VariableCfd { rule, .. } => {
                input.rules.cfds()[*rule].name()
            }
            Violation::Md { rule, .. } => input.rules.mds()[*rule].name(),
        };
        *by_rule.entry(name).or_default() += 1;
    }
    let mut md_count = 0usize;
    if let Some(master) = &input.master {
        let mv = md_violations(input.rules.mds(), &input.data, master, false);
        md_count = mv.len();
        for v in &mv {
            if let Violation::Md { rule, .. } = v {
                *by_rule.entry(input.rules.mds()[*rule].name()).or_default() += 1;
            }
        }
    }
    out.push_str(&format!(
        "{} CFD violation(s), {} MD violation(s)\n",
        cv.len(),
        md_count
    ));
    for (rule, n) in by_rule {
        out.push_str(&format!("  {rule}: {n}\n"));
    }
    Ok(out)
}

fn cmd_analyze(opts: &Opts) -> Result<String, String> {
    let input = load_input(opts, 0.0)?;
    let mut out = String::new();
    out.push_str(&format!(
        "rules: {} CFDs, {} MDs (normalized)\n",
        input.rules.cfds().len(),
        input.rules.mds().len()
    ));
    let consistent = is_consistent(&input.rules.without_mds(), None);
    out.push_str(&format!("CFD core consistent: {consistent}\n"));
    let report = termination_diagnostics(&input.rules);
    out.push_str(&format!(
        "dependency graph acyclic: {}\nguaranteed terminating: {}\n",
        report.dep_graph_acyclic, report.guaranteed_terminating
    ));
    if !report.constant_conflicts.is_empty() {
        out.push_str("oscillating constant-CFD pairs (Example 4.6):\n");
        for (i, j) in &report.constant_conflicts {
            out.push_str(&format!(
                "  {} <-> {}\n",
                input.rules.cfds()[*i].name(),
                input.rules.cfds()[*j].name()
            ));
        }
    }
    Ok(out)
}

fn cmd_discover(opts: &Opts) -> Result<String, String> {
    let data_path = opts.require("data")?;
    let table = opts.get_or("table", "data");
    let data = load_relation(data_path, table, 0.0)?;
    let max_lhs = opts.get_usize("max-lhs", 2)?;
    let min_support = opts.get_usize("min-support", 3)?;
    let fds = discover_fds(
        &data,
        &FdConfig {
            max_lhs,
            min_support_pairs: 2,
        },
    );
    let ccfds = discover_constant_cfds(
        &data,
        &ConstantCfdConfig {
            min_support,
            ..Default::default()
        },
    );
    let mut out = String::new();
    out.push_str(&format!(
        "# {} FDs, {} constant CFDs mined from {data_path}\n",
        fds.len(),
        ccfds.len()
    ));
    for fd in fds.iter().chain(ccfds.iter()) {
        out.push_str(&format!("cfd {}\n", strip_name(fd)));
    }
    Ok(out)
}

fn cmd_serve(opts: &Opts) -> Result<String, String> {
    let defaults = uniclean::server::DaemonConfig::default();
    let config = uniclean::server::DaemonConfig {
        addr: opts.get_or("addr", "127.0.0.1:7401").to_string(),
        shards: opts.get_usize("shards", 4)?,
        queue_bound: opts.get_usize("queue", 64)?,
        data_dir: opts.get("data-dir").map(std::path::PathBuf::from),
        snapshot_every: opts.get_usize("snapshot-every", defaults.snapshot_every as usize)? as u64,
        fsync: !opts.flag("no-fsync"),
        max_line_bytes: opts.get_usize("max-line-bytes", defaults.max_line_bytes)?,
        replicate_from: opts.get("replicate-from").map(str::to_string),
    };
    if config.shards == 0 || config.queue_bound == 0 {
        return Err("--shards and --queue must be positive".into());
    }
    let daemon = uniclean::server::Daemon::bind(config.clone())
        .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    // Announce before blocking so scripts can await readiness on stdout.
    let durability = match &config.data_dir {
        Some(dir) => format!(
            ", durable at {} (snapshot every {}, fsync {})",
            dir.display(),
            config.snapshot_every,
            if config.fsync { "on" } else { "off" }
        ),
        None => ", in-memory".to_string(),
    };
    let role = match &config.replicate_from {
        Some(primary) => format!(", standby of {primary}"),
        None => String::new(),
    };
    println!(
        "uniclean serve: listening on {} ({} shards, queue bound {}{durability}{role})",
        daemon.local_addr(),
        config.shards,
        config.queue_bound
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    daemon.run().map_err(|e| format!("serve failed: {e}"))?;
    Ok("uniclean serve: shut down cleanly\n".to_string())
}

fn cmd_promote(opts: &Opts) -> Result<String, String> {
    let addr = opts.require("addr")?;
    // `promote_standby` targets the configured standby address, which is
    // exactly the node named on the command line.
    let mut client =
        uniclean::client::Client::new(uniclean::client::ClientConfig::new(addr).with_standby(addr));
    let resp = client
        .promote_standby()
        .map_err(|e| format!("promote failed: {e}"))?;
    let relations = resp
        .get("relations")
        .and_then(uniclean::model::Json::as_u64)
        .unwrap_or(0);
    Ok(format!(
        "uniclean promote: {addr} is now the primary ({relations} relations)\n"
    ))
}

/// Render a CFD as a rule-file line (the `Display` form already matches the
/// parser's grammar).
fn strip_name(cfd: &uniclean::rules::Cfd) -> String {
    cfd.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, content: &str) -> String {
        let dir = std::env::temp_dir().join("uniclean-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}-{name}", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn clean_repairs_a_csv_end_to_end() {
        let data = write_temp("d.csv", "AC,city\n131,Ldn\n020,Ldn\n");
        let rules = write_temp("r.rules", "cfd phi1: data([AC=131] -> [city=Edi])");
        let out = run(&argv(&[
            "clean", "--data", &data, "--rules", &rules, "--report",
        ]))
        .unwrap();
        assert!(out.contains("applied 1 fixes"), "{out}");
        assert!(out.contains("consistent: true"), "{out}");
        assert!(out.contains("131,Edi"), "{out}");
        assert!(out.contains("020,Ldn"), "{out}");
        assert!(out.contains("Ldn -> Edi"), "{out}");
    }

    #[test]
    fn clean_delta_mode_absorbs_batches() {
        let data = write_temp("dd0.csv", "AC,city\n131,Ldn\n020,Ldn\n");
        let b1 = write_temp("dd1.csv", "AC,city\n131,Lds\n");
        let b2 = write_temp("dd2.csv", "AC,city\n020,Edi\n");
        let rules = write_temp(
            "rdd.rules",
            "cfd phi1: data([AC=131] -> [city=Edi])\ncfd phi2: data([AC=020] -> [city=Ldn])",
        );
        let out = run(&argv(&[
            "clean",
            "--data",
            &data,
            "--rules",
            &rules,
            "--delta",
            &format!("{b1},{b2}"),
        ]))
        .unwrap();
        assert!(out.contains("base: 2 tuples"), "{out}");
        assert!(out.contains(&format!("delta {b1}: +1 tuples")), "{out}");
        assert!(out.contains(&format!("delta {b2}: +1 tuples")), "{out}");
        // The final CSV carries all four repaired tuples, batches included.
        assert_eq!(out.matches("131,Edi").count(), 2, "{out}");
        assert_eq!(out.matches("020,Ldn").count(), 2, "{out}");
        assert!(out.contains("consistent: true"), "{out}");
    }

    #[test]
    fn clean_delta_rejects_mismatched_batch_headers() {
        let data = write_temp("dh0.csv", "AC,city\n131,Ldn\n");
        let bad = write_temp("dh1.csv", "city,AC\nLdn,131\n");
        let rules = write_temp("rdh.rules", "cfd phi1: data([AC=131] -> [city=Edi])");
        let err = run(&argv(&[
            "clean", "--data", &data, "--rules", &rules, "--delta", &bad,
        ]))
        .unwrap_err();
        assert!(err.contains("does not match the data header"), "{err}");
    }

    #[test]
    fn clean_with_master_applies_mds() {
        let data = write_temp("dm.csv", "LN,phn\nBrady,000\n");
        let master = write_temp("m.csv", "LN,tel\nBrady,3887644\n");
        let rules = write_temp(
            "rm.rules",
            "md psi: data[LN] = master[LN] -> data[phn] <=> master[tel]",
        );
        let out = run(&argv(&[
            "clean", "--data", &data, "--rules", &rules, "--master", &master,
        ]))
        .unwrap();
        assert!(out.contains("Brady,3887644"), "{out}");
    }

    #[test]
    fn self_match_flag_builds_a_snapshot_master() {
        let data = write_temp(
            "ds.csv",
            "LN,city,AC,phn\nBrady,Ldn,020,111\nBrady,Ldn,020,999\n",
        );
        let rules = write_temp(
            "rs.rules",
            "md psi: data[LN] = master[LN] AND data[city] = master[city] -> data[phn] <=> master[phn]",
        );
        // With cf 1.0 everywhere both records are asserted; the heuristic
        // tail resolves the phone conflict one way or the other.
        let out = run(&argv(&[
            "clean",
            "--data",
            &data,
            "--rules",
            &rules,
            "--self-match",
            "--cf",
            "0",
            "--eta",
            "0.8",
        ]))
        .unwrap();
        assert!(out.contains("consistent: true"), "{out}");
    }

    #[test]
    fn master_free_mode_rejects_a_master_file() {
        // Either flag alone picks a master; together one would be dropped
        // silently, so every command that loads input refuses the pair.
        let data = write_temp("dx.csv", "LN,phn\nBrady,000\n");
        let master = write_temp("mx.csv", "LN,phn\nBrady,3887644\n");
        let rules = write_temp(
            "rx.rules",
            "md psi: data[LN] = master[LN] -> data[phn] <=> master[phn]",
        );
        for cmd in ["clean", "check", "analyze"] {
            let err = run(&argv(&[
                cmd,
                "--data",
                &data,
                "--rules",
                &rules,
                "--master",
                &master,
                "--self-match",
            ]))
            .unwrap_err();
            assert!(
                err.contains("--master") && err.contains("--self-match"),
                "{cmd}: {err}"
            );
        }
    }

    #[test]
    fn explain_plans_prints_kernel_dispatch_and_access_paths() {
        let data = write_temp("dp.csv", "LN,phn\nBrady,000\n");
        let master = write_temp("mp.csv", "LN,tel\nBrady,3887644\n");
        let rules = write_temp(
            "rp.rules",
            "md psi: data[LN] ~lev(1) master[LN] -> data[phn] <=> master[tel]",
        );
        let out = run(&argv(&[
            "clean",
            "--data",
            &data,
            "--rules",
            &rules,
            "--master",
            &master,
            "--explain-plans",
        ]))
        .unwrap();
        // The dispatch line names every kernel choice plus the detected
        // SIMD level, whatever this machine happens to support.
        assert!(out.contains("similarity kernels: gram-hash="), "{out}");
        assert!(
            out.contains("jaro=") && out.contains("lev-driver="),
            "{out}"
        );
        assert!(out.contains("access paths:"), "{out}");
        assert!(out.contains("lev-count"), "{out}");
    }

    #[test]
    fn check_counts_violations_per_rule() {
        let data = write_temp("dc.csv", "AC,city\n131,Ldn\n131,Ldn\n020,Edi\n");
        let rules = write_temp(
            "rc.rules",
            "cfd phi1: data([AC=131] -> [city=Edi])\ncfd phi2: data([AC=020] -> [city=Ldn])",
        );
        let out = run(&argv(&["check", "--data", &data, "--rules", &rules])).unwrap();
        assert!(out.contains("3 CFD violation(s)"), "{out}");
        assert!(out.contains("phi1: 2"), "{out}");
        assert!(out.contains("phi2: 1"), "{out}");
    }

    #[test]
    fn analyze_flags_oscillators() {
        let data = write_temp("da.csv", "AC,post,city\n131,X,Edi\n");
        let rules = write_temp(
            "ra.rules",
            "cfd a: data([AC=131] -> [city=Edi])\ncfd b: data([post=X] -> [city=Ldn])",
        );
        let out = run(&argv(&["analyze", "--data", &data, "--rules", &rules])).unwrap();
        assert!(out.contains("guaranteed terminating: false"), "{out}");
        assert!(out.contains("a <-> b"), "{out}");
    }

    #[test]
    fn discover_emits_parseable_rules() {
        let data = write_temp(
            "dd.csv",
            "City,State\nBoston,MA\nBoston,MA\nBoston,MA\nChicago,IL\nChicago,IL\nChicago,IL\n",
        );
        let out = run(&argv(&["discover", "--data", &data, "--min-support", "3"])).unwrap();
        assert!(out.contains("FDs"), "{out}");
        // Every emitted rule line must parse back.
        let schema = Schema::of_strings("data", &["City", "State"]);
        let rule_lines: String = out
            .lines()
            .filter(|l| l.starts_with("cfd "))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = parse_rules(&rule_lines, &schema, None).unwrap();
        assert!(!parsed.cfds.is_empty());
    }

    #[test]
    fn builder_misuse_is_reported_not_panicked() {
        // Out-of-range threshold.
        let data = write_temp("de.csv", "AC,city\n131,Ldn\n");
        let rules = write_temp("re.rules", "cfd phi1: data([AC=131] -> [city=Edi])");
        let err = run(&argv(&[
            "clean", "--data", &data, "--rules", &rules, "--eta", "2.0",
        ]))
        .unwrap_err();
        assert!(err.contains("eta"), "{err}");
        // MDs without a master relation.
        let data = write_temp("dn.csv", "LN,phn\nBrady,000\n");
        let rules = write_temp(
            "rn.rules",
            "md psi: data[LN] = master[LN] -> data[phn] <=> master[tel]",
        );
        let err = run(&argv(&["clean", "--data", &data, "--rules", &rules])).unwrap_err();
        assert!(err.contains("master"), "{err}");
    }

    #[test]
    fn missing_options_produce_helpful_errors() {
        let err = run(&argv(&["clean"])).unwrap_err();
        assert!(err.contains("--data"), "{err}");
        let err = run(&argv(&["bogus"])).unwrap_err();
        assert!(err.contains("unknown command"), "{err}");
        let err = run(&argv(&[])).unwrap_err();
        assert!(err.contains("no command"), "{err}");
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&argv(&["help"])).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("discover"));
    }

    #[test]
    fn clean_writes_output_file() {
        let data = write_temp("do.csv", "AC,city\n131,Ldn\n");
        let rules = write_temp("ro.rules", "cfd phi1: data([AC=131] -> [city=Edi])");
        let out_path = write_temp("out.csv", "");
        let out = run(&argv(&[
            "clean", "--data", &data, "--rules", &rules, "--out", &out_path,
        ]))
        .unwrap();
        assert!(out.contains("written to"), "{out}");
        let written = std::fs::read_to_string(&out_path).unwrap();
        assert!(written.contains("131,Edi"), "{written}");
    }
}
