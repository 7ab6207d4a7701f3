//! `rfp` — the relocation-aware floorplanning CLI.
//!
//! Drives the engine registry from versioned JSON problem files
//! (`rfp_floorplan::jsonio`):
//!
//! ```text
//! rfp engines                                   list the registered engines
//! rfp convert sdr2 --out sdr2.problem.json      emit a built-in instance as JSON
//! rfp convert --to bin p.json --out p.rfpb      transcode json <-> binary
//! rfp solve --engine milp problem.json          solve with one engine
//! rfp solve --portfolio problem.json            race every engine, first proof wins
//! rfp validate problem.json floorplan.json      re-check a floorplan independently
//! rfp simulate scenario.rfpb                    play an online reconfiguration stream
//! rfp sweep --grid grid.json --workers 4        Monte-Carlo fleet sweep
//! rfp serve --jobs jobs.jsonl                   run an NDJSON job stream through
//!                                               the queue-worker solve service
//! rfp solve --trace t.json problem.json         record an rfp-trace document
//! rfp trace summarize t.json                    render a recorded trace
//! ```
//!
//! `solve` and `simulate` route through the same `rfp-service` queue-worker
//! layer that `serve` hosts: `solve` submits a single job, `simulate` wires
//! the service in as the online simulator's [`SolveDispatcher`] so repeated
//! escalation re-solves warm-start from the cross-request outcome cache.
//! `sweep` expands an `rfp-sweep-grid` document into hundreds of seeded
//! simulations over a worker pool and aggregates per-cell percentiles into
//! a report that is byte-identical at every `--workers` value.
//!
//! Every input that names a problem, floorplan or scenario accepts both the
//! JSON v1 documents and their `rfpb` binary twins — the format is sniffed
//! from the magic bytes, never the file name.
//!
//! Every subcommand declares its flags once and parses its arguments through
//! one parser: an unknown option, a missing value, a malformed value or a
//! wrong number of arguments is a usage error (exit 1) with one wording each.
//!
//! Exit codes: `0` success, `1` usage/IO/format error (or failed jobs for
//! `serve`), `2` infeasible (or floorplan invalid for `validate`, constraint
//! violations for `simulate`/`sweep`), `3` budget exhausted before a
//! floorplan was found.
//!
//! [`SolveDispatcher`]: relocfp::floorplan::engine::SolveDispatcher

use relocfp::floorplan::binio::{self, BinKind};
use relocfp::floorplan::engine::{EngineRegistry, OutcomeStatus, SolveRequest};
use relocfp::floorplan::jsonio;
use relocfp::floorplan::placement::Floorplan;
use relocfp::floorplan::problem::FloorplanProblem;
use relocfp::runtime::{
    read_scenario_bin, read_scenario_value, simulate_with_dispatcher, write_scenario,
    write_scenario_bin, DefragPolicy, OnlineConfig, Scenario, SCENARIO_FORMAT,
};
use relocfp::service::{serve, EngineChoice, JobSpec, ServiceConfig, SolveService};
use relocfp::sweep::{read_grid, run_sweep, SweepGrid, SweepOptions};
use relocfp::trace::{Collector, TraceHandle};
use rfp_workloads::generator::WorkloadSpec;
use rfp_workloads::DefragWorkloadSpec;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage:
  rfp engines [--json]
  rfp solve [--engine ID | --portfolio[=ID,ID,...]] [--time-limit SECS]
            [--node-limit N] [--threads N] [--out FILE] [--trace FILE]
            [--quiet] PROBLEM
  rfp validate PROBLEM FLOORPLAN
  rfp simulate [--policy aware|oblivious|no_break] [--engine ID] [--threshold F]
               [--time-limit SECS] [--report FILE] [--trace FILE] [--quiet]
               SCENARIO
  rfp sweep [--grid FILE] [--workers N] [--out FILE] [--trace FILE] [--quiet]
  rfp serve [--workers N] [--engine ID] [--no-cache] [--jobs FILE] [--out FILE]
            [--trace FILE]
  rfp trace summarize FILE
  rfp convert [--to json|bin] [--out FILE] INSTANCE
      INSTANCE: sdr | sdr2 | sdr3 | synthetic[:SEED[:REGIONS]]
              | smoke | defrag[:SEED[:MODULES]] | a problem/floorplan/scenario file

Problems, floorplans and scenarios use the versioned JSON formats of the
jsonio v1 family (rfp-problem / rfp-floorplan / rfp-scenario) or their rfpb
binary twins; every PROBLEM/FLOORPLAN/SCENARIO input sniffs the format from
the magic bytes, and `convert --to` transcodes between the two. `simulate`
writes an rfp-sim-report document. `sweep` expands an rfp-sweep-grid file
(default: the built-in smoke grid) into seeded simulations across a worker
pool; its rfp-sweep-report output is byte-identical at every --workers
value. `serve` reads one JSON job per line (verbs: submit, status, cancel,
stats, shutdown) from stdin or --jobs FILE and answers with one JSON
response per line; with --jobs the whole stream is queued before the workers
start, so responses are deterministic. `--trace FILE` writes an rfp-trace v1
document (logical-clock span trees, counters, histograms; wall-clock-free,
so traces of deterministic runs are byte-stable) which `rfp trace summarize`
renders as per-track tables.";

fn fail(msg: String) -> ExitCode {
    eprintln!("rfp: {msg}");
    ExitCode::from(1)
}

/// A usage error: the message followed by [`USAGE`].
fn usage(msg: impl std::fmt::Display) -> String {
    format!("{msg}\n{USAGE}")
}

fn registry() -> EngineRegistry {
    rfp_baselines::engines::full_registry()
}

fn read_bytes(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn write_output(out: Option<&str>, content: &[u8]) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, content).map_err(|e| format!("cannot write `{path}`: {e}"))
        }
        None => {
            use std::io::Write as _;
            std::io::stdout().write_all(content).map_err(|e| format!("cannot write stdout: {e}"))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command: fn(&[String]) -> Result<ExitCode, String> = match args.first().map(String::as_str)
    {
        Some("engines") => cmd_engines,
        Some("solve") => cmd_solve,
        Some("validate") => cmd_validate,
        Some("simulate") => cmd_simulate,
        Some("sweep") => cmd_sweep,
        Some("serve") => cmd_serve,
        Some("trace") => cmd_trace,
        Some("convert") => cmd_convert,
        Some("--help") | Some("-h") | Some("help") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => return fail(usage(format!("unknown command `{other}`"))),
    };
    command(&args[1..]).unwrap_or_else(fail)
}

/// How a declared flag takes its value.
#[derive(Clone, Copy)]
enum Takes {
    /// None: a switch such as `--quiet`.
    Switch,
    /// The next argument, whatever it is: `--out FILE`.
    Value,
    /// Optionally `=VALUE` in the same argument: `--portfolio[=ID,...]`.
    Inline,
}
use Takes::{Inline, Switch, Value};

/// A flag as a subcommand declares it: its long name, its short alias (`""`
/// for none) and how it takes its value.
struct Flag(&'static str, &'static str, Takes);

const OUT: Flag = Flag("--out", "-o", Value);
const TRACE: Flag = Flag("--trace", "", Value);
const QUIET: Flag = Flag("--quiet", "-q", Switch);
const ENGINE: Flag = Flag("--engine", "", Value);
const TIME_LIMIT: Flag = Flag("--time-limit", "", Value);

/// A subcommand's arguments, parsed against its declared flags.
struct Args {
    /// Every flag given, under its long name, in argv order.
    flags: Vec<(&'static str, Option<String>)>,
    /// Exactly the positionals the subcommand declares.
    positionals: Vec<String>,
}

/// Parses a subcommand's arguments against its `flags` and checks that
/// they hold exactly the declared `positionals`. Any argument starting with
/// `-` that is no declared flag is an unknown option, unless the subcommand
/// declares no flags at all. A repeated flag keeps every value; the last
/// one counts, and the typed getters check them all.
fn parse_args(
    command: &str,
    args: &[String],
    flags: &[Flag],
    positionals: &[&str],
) -> Result<Args, String> {
    let mut parsed = Args { flags: Vec::new(), positionals: Vec::new() };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (arg.as_str(), None),
        };
        let flag = flags.iter().find(|f| f.0 == name || (!f.1.is_empty() && f.1 == name));
        match (flag, inline) {
            (Some(&Flag(long, _, Switch)), None) => parsed.flags.push((long, None)),
            (Some(&Flag(long, _, Value)), None) => {
                let value = it.next().ok_or_else(|| usage(format!("{long} needs a value")))?;
                parsed.flags.push((long, Some(value.clone())));
            }
            (Some(&Flag(long, _, Inline)), inline) => {
                parsed.flags.push((long, inline.map(str::to_string)))
            }
            _ if arg.starts_with('-') && !flags.is_empty() => {
                return Err(usage(format!("unknown option `{arg}`")))
            }
            _ => parsed.positionals.push(arg.clone()),
        }
    }
    if parsed.positionals.len() != positionals.len() {
        let takes =
            if positionals.is_empty() { "no arguments".into() } else { positionals.join(" ") };
        let got: Vec<String> = parsed.positionals.iter().map(|p| format!("`{p}`")).collect();
        let got = if got.is_empty() { "nothing".into() } else { got.join(" ") };
        return Err(usage(format!("{command} takes {takes}, got {got}")));
    }
    Ok(parsed)
}

impl Args {
    /// The last occurrence of `name`: `None` when absent, `Some(None)` for
    /// a switch or a bare `--portfolio`.
    fn last(&self, name: &str) -> Option<Option<&str>> {
        self.flags.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.last(name).is_some()
    }

    fn value(&self, name: &str) -> Option<String> {
        self.last(name).flatten().map(str::to_string)
    }

    /// Checks every value given to `name` with `check` and returns the
    /// last; a value `check` rejects is a usage error naming `expected`.
    fn get<T>(
        &self,
        name: &str,
        expected: &str,
        check: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let mut last = None;
        for (_, value) in self.flags.iter().filter(|(n, _)| *n == name) {
            let value = value.as_deref().unwrap_or_default();
            let invalid = || usage(format!("invalid {name} `{value}` ({expected})"));
            last = Some(check(value).ok_or_else(invalid)?);
        }
        Ok(last)
    }

    fn seconds(&self, name: &str) -> Result<Option<f64>, String> {
        self.get(name, "positive seconds", |v| {
            v.parse().ok().filter(|s: &f64| s.is_finite() && *s > 0.0)
        })
    }

    fn threads(&self, name: &str) -> Result<Option<usize>, String> {
        self.get(name, "1 - 256", |v| v.parse().ok().filter(|n| (1..=256).contains(n)))
    }

    fn positive(&self, name: &str) -> Result<Option<usize>, String> {
        self.get(name, "positive integer", |v| v.parse().ok().filter(|&n| n > 0))
    }

    fn fraction(&self, name: &str) -> Result<Option<f64>, String> {
        self.get(name, "0.0 - 1.0", |v| v.parse().ok().filter(|t| (0.0..=1.0).contains(t)))
    }
}

/// A problem, floorplan or scenario in either serialisation — the one
/// decoder of every input document, and the one place that looks for the
/// `rfpb` magic.
enum Doc {
    Problem(FloorplanProblem),
    Floorplan(Floorplan),
    Scenario(Scenario),
}

impl Doc {
    /// Decodes an `rfpb` document by its kind byte, or a JSON document by
    /// its `"format"` header.
    fn decode(label: &str, bytes: &[u8]) -> Result<Doc, String> {
        let at = |e: &dyn std::fmt::Display| format!("`{label}`: {e}");
        if binio::is_binary(bytes) {
            return match binio::detect_kind(bytes).map_err(|e| at(&e))? {
                BinKind::Problem => binio::read_problem_bin(bytes).map(Doc::Problem),
                BinKind::Floorplan => binio::read_floorplan_bin(bytes).map(Doc::Floorplan),
                BinKind::Scenario => read_scenario_bin(bytes).map(Doc::Scenario),
            }
            .map_err(|e| at(&e));
        }
        let text =
            std::str::from_utf8(bytes).map_err(|_| at(&"neither rfpb binary nor UTF-8 JSON"))?;
        let doc = jsonio::parse(text).map_err(|e| at(&e))?;
        match doc.field("format").and_then(|f| f.as_str()).map_err(|e| at(&e))? {
            jsonio::PROBLEM_FORMAT => jsonio::read_problem_value(&doc).map(Doc::Problem),
            jsonio::FLOORPLAN_FORMAT => jsonio::read_floorplan_value(&doc).map(Doc::Floorplan),
            SCENARIO_FORMAT => read_scenario_value(&doc).map(Doc::Scenario),
            other => return Err(at(&format!("unknown document format `{other}`"))),
        }
        .map_err(|e| at(&e))
    }

    fn wrong_kind(&self, label: &str, expected: BinKind) -> String {
        let found = match self {
            Doc::Problem(_) => BinKind::Problem,
            Doc::Floorplan(_) => BinKind::Floorplan,
            Doc::Scenario(_) => BinKind::Scenario,
        };
        format!("`{label}`: expected an {expected} document, found {found}")
    }

    /// The problem `path` holds, semantically validated.
    fn problem(path: &str) -> Result<FloorplanProblem, String> {
        match Doc::decode(path, &read_bytes(path)?)? {
            Doc::Problem(p) => {
                p.validate().map(|()| p).map_err(|e| format!("`{path}`: invalid problem: {e}"))
            }
            doc => Err(doc.wrong_kind(path, BinKind::Problem)),
        }
    }

    fn floorplan(path: &str) -> Result<Floorplan, String> {
        match Doc::decode(path, &read_bytes(path)?)? {
            Doc::Floorplan(fp) => Ok(fp),
            doc => Err(doc.wrong_kind(path, BinKind::Floorplan)),
        }
    }

    fn scenario(path: &str) -> Result<Scenario, String> {
        match Doc::decode(path, &read_bytes(path)?)? {
            Doc::Scenario(s) => Ok(s),
            doc => Err(doc.wrong_kind(path, BinKind::Scenario)),
        }
    }

    fn to_json(&self) -> String {
        match self {
            Doc::Problem(p) => jsonio::write_problem(p),
            Doc::Floorplan(fp) => jsonio::write_floorplan(fp),
            Doc::Scenario(s) => write_scenario(s),
        }
    }

    fn to_bin(&self) -> Vec<u8> {
        match self {
            Doc::Problem(p) => binio::write_problem_bin(p),
            Doc::Floorplan(fp) => binio::write_floorplan_bin(fp),
            Doc::Scenario(s) => write_scenario_bin(s),
        }
    }
}

/// Writes the collector's drained trace document (CLI `--trace FILE`).
fn write_trace(path: &str, collector: &Collector) -> Result<(), String> {
    std::fs::write(path, collector.drain().to_json())
        .map_err(|e| format!("cannot write `{path}`: {e}"))
}

/// The `--trace FILE` set-up of solve, simulate and sweep: `body` runs in
/// a `main`-track scope under a `span` named `cli.<command>` and gets the
/// handle for its service or sweep options, which put each job or run on
/// its own track. The span closes before the scope flushes, and the drained
/// document is written after both. Without FILE, `body` runs untraced.
fn traced<T>(
    path: Option<&str>,
    span: &str,
    body: impl FnOnce(Option<TraceHandle>) -> T,
) -> Result<T, String> {
    let collector = path.map(|_| Collector::new());
    let result = {
        let _scope = collector.as_ref().map(|c| c.install("main"));
        let _span = relocfp::trace::span(span);
        body(collector.as_ref().map(Collector::handle))
    };
    if let (Some(path), Some(collector)) = (path, &collector) {
        write_trace(path, collector)?;
    }
    Ok(result)
}

/// Fails on an engine id the registry does not know: a usage error (exit
/// 1), not an infeasible job outcome.
fn known_engine(registry: &EngineRegistry, id: &str) -> Result<(), String> {
    let known = || format!("unknown engine `{id}` (known: {})", registry.ids().join(", "));
    registry.get(id).map(|_| ()).ok_or_else(known)
}

fn cmd_engines(args: &[String]) -> Result<ExitCode, String> {
    let json = parse_args("engines", args, &[Flag("--json", "", Switch)], &[])?.has("--json");
    let registry = registry();
    if json {
        // Machine-readable registry dump, in registration order (the order
        // `EngineChoice::Default` and an unrestricted `--portfolio` use).
        let rows: Vec<String> = registry
            .iter()
            .map(|engine| {
                format!(
                    "\n  {{\"id\":\"{}\",\"parallel\":{},\"description\":\"{}\"}}",
                    jsonio::escape(engine.id()),
                    engine.parallel(),
                    jsonio::escape(engine.description()),
                )
            })
            .collect();
        print!("[{}\n]\n", rows.join(","));
    } else {
        for engine in registry.iter() {
            let threads = if engine.parallel() { "parallel" } else { "serial  " };
            println!("{:<14} {threads}  {}", engine.id(), engine.description());
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_solve(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(
        "solve",
        args,
        &[
            ENGINE,
            Flag("--portfolio", "", Inline),
            TIME_LIMIT,
            Flag("--node-limit", "", Value),
            Flag("--threads", "", Value),
            OUT,
            TRACE,
            QUIET,
        ],
        &["PROBLEM"],
    )?;
    // One job through the same queue-worker service `rfp serve` hosts. A
    // portfolio job races the requested engines (or every registered one):
    // the exact engines prove and cancel the heuristics; heuristics only win
    // on objective when nobody proves within the budget.
    let choice = match (args.value("--engine"), args.last("--portfolio")) {
        (Some(_), Some(_)) => return Err(usage("--engine and --portfolio are mutually exclusive")),
        (Some(id), None) => EngineChoice::Engine(id),
        (None, Some(ids)) => EngineChoice::Portfolio(
            ids.unwrap_or_default()
                .split(',')
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect(),
        ),
        (None, None) => EngineChoice::Default,
    };
    let (time_limit, threads) = (args.seconds("--time-limit")?, args.threads("--threads")?);
    let node_limit = args.get("--node-limit", "non-negative integer", |v| v.parse().ok())?;
    let req = SolveRequest::new(Doc::problem(&args.positionals[0])?)
        .with_time_limit(time_limit.unwrap_or(0.0))
        .with_node_limit(node_limit.unwrap_or(0))
        .with_threads(threads.unwrap_or(0));
    let registry = registry();
    let named: &[String] = match &choice {
        EngineChoice::Engine(id) => std::slice::from_ref(id),
        EngineChoice::Portfolio(ids) => ids,
        EngineChoice::Default => &[],
    };
    for id in named {
        known_engine(&registry, id)?;
    }
    let result = traced(args.value("--trace").as_deref(), "cli.solve", |trace| {
        let config = ServiceConfig { workers: 1, trace, ..ServiceConfig::default() };
        let service = SolveService::new(registry, config);
        let id = service.submit(JobSpec::new(req).with_engine(choice));
        service.join(id).expect("submitted ids are joinable")
    })?;

    let (engine_label, outcome) = (result.engine, result.outcome);
    if !args.has("--quiet") {
        for entry in result.race.iter().flat_map(|race| &race.entries) {
            eprintln!(
                "  {:<14} {:<16} {:>8.2}s  nodes {}{}",
                entry.engine,
                entry.outcome.status.to_string(),
                entry.outcome.stats.solve_seconds,
                entry.outcome.stats.nodes,
                if entry.outcome.stats.cancelled { "  (cancelled)" } else { "" },
            );
        }
        let threads = match outcome.stats.threads {
            0 | 1 => String::new(),
            n => format!(", {n} threads"),
        };
        let gap = if outcome.status != OutcomeStatus::Proven && outcome.stats.gap.is_finite() {
            format!(", gap {:.2}%", 100.0 * outcome.stats.gap)
        } else {
            String::new()
        };
        eprintln!(
            "rfp: {engine_label}: {} in {:.2}s ({} nodes{threads}){gap}",
            outcome.status, outcome.stats.solve_seconds, outcome.stats.nodes
        );
        if let Some(m) = &outcome.metrics {
            eprintln!(
                "rfp: wasted frames {}, wire length {:.1}, free-compatible areas {}/{}",
                m.wasted_frames, m.wirelength, m.fc_found, m.fc_requested
            );
        }
        if let (Some(_), Some(detail)) = (&outcome.floorplan, &outcome.detail) {
            eprintln!("rfp: {detail}");
        }
    }
    match &outcome.floorplan {
        Some(fp) => {
            write_output(args.value("--out").as_deref(), jsonio::write_floorplan(fp).as_bytes())?;
            Ok(ExitCode::SUCCESS)
        }
        None => {
            eprintln!("rfp: no floorplan: {}", outcome.detail.as_deref().unwrap_or("(no detail)"));
            Ok(ExitCode::from(if outcome.status == OutcomeStatus::BudgetExhausted { 3 } else { 2 }))
        }
    }
}

fn cmd_validate(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_args("validate", args, &[], &["PROBLEM", "FLOORPLAN"])?;
    let problem = Doc::problem(&args.positionals[0])?;
    let floorplan = Doc::floorplan(&args.positionals[1])?;
    let issues = floorplan.validate(&problem);
    if issues.is_empty() {
        let m = floorplan.metrics(&problem);
        println!(
            "valid: wasted frames {}, wire length {:.1}, free-compatible areas {}/{}",
            m.wasted_frames, m.wirelength, m.fc_found, m.fc_requested
        );
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("invalid floorplan ({} issue(s)):", issues.len());
        for issue in &issues {
            eprintln!("  - {issue}");
        }
        Ok(ExitCode::from(2))
    }
}

fn cmd_simulate(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(
        "simulate",
        args,
        &[
            Flag("--policy", "", Value),
            ENGINE,
            Flag("--threshold", "", Value),
            TIME_LIMIT,
            Flag("--report", "", Value),
            TRACE,
            QUIET,
        ],
        &["SCENARIO"],
    )?;
    let d = OnlineConfig::default();
    let config = OnlineConfig {
        policy: args
            .get("--policy", "aware | oblivious | no_break", DefragPolicy::from_id)?
            .unwrap_or(d.policy),
        engine: args.value("--engine").unwrap_or(d.engine),
        defrag_threshold: args.fraction("--threshold")?.unwrap_or(d.defrag_threshold),
        engine_time_limit: args.seconds("--time-limit")?.unwrap_or(d.engine_time_limit),
        ..d
    };
    let path = &args.positionals[0];
    let scenario = Doc::scenario(path)?;
    let (sim, service) = traced(args.value("--trace").as_deref(), "cli.simulate", |trace| {
        // Escalation re-solves go through a solve service: repeated
        // escalations over similar live-module sets warm-start from the
        // outcome cache.
        let service = Arc::new(SolveService::new(
            registry(),
            ServiceConfig {
                workers: 1,
                default_engine: config.engine.clone(),
                trace,
                ..Default::default()
            },
        ));
        (simulate_with_dispatcher(&scenario, &config, service.clone()), service)
    })?;
    let report = sim.map_err(|e| format!("`{path}`: {e}"))?;
    if !args.has("--quiet") {
        eprintln!("rfp: {}", report.summary());
        let cache = service.cache_stats();
        if cache.hits + cache.near_hits + cache.misses > 0 {
            eprintln!(
                "rfp: solve cache: {} hit(s), {} warm-start(s), {} miss(es)",
                cache.hits, cache.near_hits, cache.misses
            );
        }
        for e in report.events.iter().filter(|e| !e.violations.is_empty()) {
            for v in &e.violations {
                eprintln!("rfp: violation at t={}: {v}", e.time);
            }
        }
    }
    write_output(args.value("--report").as_deref(), report.to_json().as_bytes())?;
    Ok(ExitCode::from(if report.violations() > 0 { 2 } else { 0 }))
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(
        "serve",
        args,
        &[
            Flag("--workers", "", Value),
            ENGINE,
            Flag("--no-cache", "", Switch),
            Flag("--jobs", "", Value),
            OUT,
            TRACE,
        ],
        &[],
    )?;
    let (jobs, out, trace) = (args.value("--jobs"), args.value("--out"), args.value("--trace"));
    // Unlike the `--trace` of solve, simulate and sweep, serve's collector
    // is always on and counters-only: memory stays bounded however long the
    // session runs, and it powers the `stats` verb (live counter snapshots)
    // as well as the end-of-session `--trace` dump.
    let collector = Collector::counters_only();
    let defaults = ServiceConfig::default();
    let config = ServiceConfig {
        workers: args.positive("--workers")?.unwrap_or(defaults.workers),
        cache: !args.has("--no-cache"),
        default_engine: args.value("--engine").unwrap_or(defaults.default_engine),
        // A jobs file is a complete, finite stream: queue everything before
        // the workers start, so the response order (and the golden files CI
        // diffs against) is deterministic. Stdin is interactive — dispatch
        // live.
        paused: jobs.is_some(),
        trace: Some(collector.handle()),
    };
    let registry = registry();
    known_engine(&registry, &config.default_engine)?;

    let mut rendered: Vec<u8> = Vec::new();
    let summary = {
        let stdout = std::io::stdout();
        let mut output: Box<dyn std::io::Write> =
            if out.is_some() { Box::new(&mut rendered) } else { Box::new(stdout.lock()) };
        match &jobs {
            Some(path) => serve(&mut read_file(path)?.as_bytes(), &mut output, registry, &config),
            None => serve(&mut std::io::stdin().lock(), &mut output, registry, &config),
        }
        .map_err(|e| format!("serve failed: {e}"))?
    };
    if out.is_some() {
        write_output(out.as_deref(), &rendered)?;
    }
    if let Some(path) = &trace {
        write_trace(path, &collector)?;
    }
    eprintln!("rfp: served {} job(s), {} error(s)", summary.jobs, summary.errors);
    Ok(ExitCode::from(if summary.errors > 0 { 1 } else { 0 }))
}

/// Flattens a span forest into `(name, calls, total logical length)` rows,
/// first-seen order.
fn aggregate_spans(spans: &[relocfp::trace::Span], agg: &mut Vec<(String, u64, u64)>) {
    for span in spans {
        match agg.iter_mut().find(|(name, _, _)| name == &span.name) {
            Some((_, calls, logical)) => {
                *calls += 1;
                *logical += span.logical_len();
            }
            None => agg.push((span.name.clone(), 1, span.logical_len())),
        }
        aggregate_spans(&span.children, agg);
    }
}

fn cmd_trace(args: &[String]) -> Result<ExitCode, String> {
    let path = match args.first().map(String::as_str) {
        Some("summarize") => parse_args("trace summarize", &args[1..], &[], &["FILE"])?.positionals,
        Some(other) => return Err(usage(format!("unknown trace subcommand `{other}`"))),
        None => return Err(usage("trace needs a subcommand (summarize)")),
    };
    let path = &path[0];
    let doc = relocfp::trace::TraceDoc::from_json(&read_file(path)?)
        .map_err(|e| format!("`{path}`: {e}"))?;
    println!("rfp-trace v1: {} track(s)", doc.tracks.len());
    for track in &doc.tracks {
        let mut spans: Vec<(String, u64, u64)> = Vec::new();
        aggregate_spans(&track.spans, &mut spans);
        println!("\ntrack {}", track.name);
        let width = spans
            .iter()
            .map(|(n, _, _)| n.len())
            .chain(track.counters.iter().map(|(n, _)| n.len()))
            .chain(track.histograms.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0)
            .max(9);
        if !spans.is_empty() {
            println!("  {:<width$} {:>7} {:>8}", "span", "calls", "logical");
            for (name, calls, logical) in &spans {
                println!("  {name:<width$} {calls:>7} {logical:>8}");
            }
        }
        if !track.counters.is_empty() {
            println!("  {:<width$} {:>16}", "counter", "value");
            for (name, value) in &track.counters {
                println!("  {name:<width$} {value:>16}");
            }
        }
        if !track.histograms.is_empty() {
            println!(
                "  {:<width$} {:>5} {:>8} {:>6} {:>6} {:>6} {:>6}",
                "histogram", "n", "total", "p50", "p95", "min", "max"
            );
            for (name, h) in &track.histograms {
                println!(
                    "  {name:<width$} {:>5} {:>8} {:>6} {:>6} {:>6} {:>6}",
                    h.n, h.total, h.p50, h.p95, h.min, h.max
                );
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// The seed and count a `NAME[:SEED[:COUNT]]` built-in spec sets.
type Seeded = (Option<u64>, Option<usize>);

/// Parses a `NAME[:SEED[:COUNT]]` built-in spec: `None` when `instance` is
/// no `NAME` spec.
fn seeded_spec(instance: &str, name: &str, count: &str) -> Result<Option<Seeded>, String> {
    let mut parts = instance.split(':');
    if parts.next() != Some(name) {
        return Ok(None);
    }
    let seed = parts.next().map(|s| s.parse().map_err(|_| format!("invalid {name} seed `{s}`")));
    let n = parts.next().map(|n| n.parse().map_err(|_| format!("invalid {name} {count} `{n}`")));
    if parts.next().is_some() {
        return Err(format!("invalid {name} spec `{instance}`"));
    }
    Ok(Some((seed.transpose()?, n.transpose()?)))
}

/// The JSON of a built-in instance: `None` when `instance` names a file.
fn builtin(instance: &str) -> Result<Option<String>, String> {
    Ok(Some(match instance {
        "sdr" => rfp_workloads::sdr_problem_json(0),
        "sdr2" => rfp_workloads::sdr_problem_json(2),
        "sdr3" => rfp_workloads::sdr_problem_json(3),
        "smoke" => rfp_workloads::smoke_scenario_json(),
        _ => {
            if let Some((seed, n)) = seeded_spec(instance, "defrag", "module count")? {
                let d = DefragWorkloadSpec::default();
                let spec = DefragWorkloadSpec {
                    seed: seed.unwrap_or(d.seed),
                    n_modules: n.unwrap_or(d.n_modules),
                    ..d
                };
                write_scenario(&spec.generate())
            } else if let Some((seed, n)) = seeded_spec(instance, "synthetic", "region count")? {
                let d = WorkloadSpec::default();
                let spec = WorkloadSpec {
                    seed: seed.unwrap_or(d.seed),
                    n_regions: n.unwrap_or(d.n_regions),
                    ..d
                };
                spec.generate().problem_json()
            } else {
                return Ok(None);
            }
        }
    }))
}

fn cmd_convert(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_args("convert", args, &[Flag("--to", "", Value), OUT], &["INSTANCE"])?;
    let to_bin = args.get("--to", "json | bin", |v| match v {
        "json" => Some(false),
        "bin" => Some(true),
        _ => None,
    })?;
    let instance = &args.positionals[0];
    let doc = match builtin(instance)? {
        Some(json) => Doc::decode(instance, json.as_bytes())?,
        // Not a built-in: a problem/floorplan/scenario file in either
        // serialisation.
        None => {
            let bytes = read_bytes(instance).map_err(|e| {
                format!(
                    "{e} (known instances: sdr, sdr2, sdr3, \
                     synthetic[:SEED[:REGIONS]], smoke, defrag[:SEED[:MODULES]])"
                )
            })?;
            Doc::decode(instance, &bytes)?
        }
    };
    let rendered = if to_bin == Some(true) { doc.to_bin() } else { doc.to_json().into_bytes() };
    write_output(args.value("--out").as_deref(), &rendered)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_sweep(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(
        "sweep",
        args,
        &[Flag("--grid", "-g", Value), Flag("--workers", "-w", Value), OUT, TRACE, QUIET],
        &[],
    )?;
    let workers = args.positive("--workers")?.unwrap_or(1);
    let grid = match args.value("--grid") {
        Some(path) => read_grid(&read_file(&path)?).map_err(|e| format!("`{path}`: {e}"))?,
        None => SweepGrid::smoke(),
    };
    // Runs land on plan-stable `run#####` tracks, so a sweep trace — like
    // the report — is byte-identical at every --workers value.
    let outcome = traced(args.value("--trace").as_deref(), "cli.sweep", |trace| {
        run_sweep(&grid, &SweepOptions { workers, trace, ..Default::default() })
    })?
    .map_err(|e| e.to_string())?;
    write_output(args.value("--out").as_deref(), outcome.report.to_json().as_bytes())?;
    let violations: u64 = outcome.report.cells.iter().map(|c| c.violations).sum();
    if !args.has("--quiet") {
        eprintln!(
            "sweep `{}`: {} runs over {} cells on {} worker(s) in {:.2}s",
            outcome.report.grid,
            outcome.report.runs,
            outcome.report.cells.len(),
            workers,
            outcome.wall_seconds,
        );
        if !outcome.over_budget.is_empty() {
            eprintln!(
                "warning: {} run(s) exceeded the per-run budget of {:.1}s: {:?}",
                outcome.over_budget.len(),
                grid.run_budget_seconds,
                outcome.over_budget,
            );
        }
        if violations > 0 {
            eprintln!("warning: {violations} constraint violation(s) across the fleet");
        }
    }
    Ok(ExitCode::from(if violations > 0 { 2 } else { 0 }))
}
