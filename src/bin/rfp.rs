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
//! Exit codes: `0` success, `1` usage/IO/format error (or failed jobs for
//! `serve`), `2` infeasible (or floorplan invalid for `validate`, constraint
//! violations for `simulate`/`sweep`), `3` budget exhausted before a
//! floorplan was found.

use relocfp::floorplan::engine::{EngineRegistry, OutcomeStatus, SolveRequest};
use relocfp::floorplan::placement::Floorplan;
use relocfp::floorplan::problem::FloorplanProblem;
use relocfp::floorplan::{binio, jsonio};
use relocfp::runtime::{
    read_scenario, read_scenario_bin, simulate_with_dispatcher, write_scenario, write_scenario_bin,
    DefragPolicy, OnlineConfig, Scenario, SCENARIO_FORMAT,
};
use relocfp::service::{serve, EngineChoice, JobSpec, ServiceConfig, SolveService};
use relocfp::sweep::{read_grid, run_sweep, SweepGrid, SweepOptions};
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

fn fail(msg: impl AsRef<str>) -> ExitCode {
    eprintln!("rfp: {}", msg.as_ref());
    ExitCode::from(1)
}

fn registry() -> EngineRegistry {
    rfp_baselines::engines::full_registry()
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn read_bytes(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn write_output(out: Option<&str>, content: &str) -> Result<(), String> {
    write_output_bytes(out, content.as_bytes())
}

fn write_output_bytes(out: Option<&str>, content: &[u8]) -> Result<(), String> {
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

fn utf8(path: &str, bytes: Vec<u8>) -> Result<String, String> {
    String::from_utf8(bytes).map_err(|_| format!("`{path}`: neither rfpb binary nor UTF-8 JSON"))
}

/// Reads a problem from JSON or `rfpb` binary, sniffing the magic bytes.
fn read_problem_any(path: &str) -> Result<FloorplanProblem, String> {
    let bytes = read_bytes(path)?;
    if binio::is_binary(&bytes) {
        binio::read_problem_bin(&bytes).map_err(|e| format!("`{path}`: {e}"))
    } else {
        jsonio::read_problem(&utf8(path, bytes)?).map_err(|e| format!("`{path}`: {e}"))
    }
}

/// Reads a floorplan from JSON or `rfpb` binary, sniffing the magic bytes.
fn read_floorplan_any(path: &str) -> Result<Floorplan, String> {
    let bytes = read_bytes(path)?;
    if binio::is_binary(&bytes) {
        binio::read_floorplan_bin(&bytes).map_err(|e| format!("`{path}`: {e}"))
    } else {
        jsonio::read_floorplan(&utf8(path, bytes)?).map_err(|e| format!("`{path}`: {e}"))
    }
}

/// Reads a scenario from JSON or `rfpb` binary, sniffing the magic bytes.
fn read_scenario_any(path: &str) -> Result<Scenario, String> {
    let bytes = read_bytes(path)?;
    if binio::is_binary(&bytes) {
        read_scenario_bin(&bytes).map_err(|e| format!("`{path}`: {e}"))
    } else {
        read_scenario(&utf8(path, bytes)?).map_err(|e| format!("`{path}`: {e}"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("engines") => cmd_engines(&args[1..]),
        Some("solve") => cmd_solve(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("--help") | Some("-h") | Some("help") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => fail(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn cmd_engines(args: &[String]) -> ExitCode {
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            a => return fail(format!("unknown argument `{a}`\n{USAGE}")),
        }
    }
    let registry = registry();
    if json {
        // Machine-readable registry dump, in registration order (the order
        // `EngineChoice::Default` and an unrestricted `--portfolio` use).
        let mut s = String::from("[");
        for (i, engine) in registry.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n  {{\"id\":\"{}\",\"parallel\":{},\"description\":\"{}\"}}",
                jsonio::escape(engine.id()),
                engine.parallel(),
                jsonio::escape(engine.description()),
            ));
        }
        s.push_str("\n]\n");
        print!("{s}");
    } else {
        for engine in registry.iter() {
            let threads = if engine.parallel() { "parallel" } else { "serial  " };
            println!("{:<14} {threads}  {}", engine.id(), engine.description());
        }
    }
    ExitCode::SUCCESS
}

/// Writes the collector's drained trace document (CLI `--trace FILE`).
fn write_trace(path: &str, collector: &relocfp::trace::Collector) -> Result<(), String> {
    std::fs::write(path, collector.drain().to_json())
        .map_err(|e| format!("cannot write `{path}`: {e}"))
}

struct SolveArgs {
    engine: Option<String>,
    portfolio: Option<Vec<String>>,
    time_limit: f64,
    node_limit: u64,
    threads: usize,
    out: Option<String>,
    trace: Option<String>,
    quiet: bool,
    problem_path: String,
}

fn parse_solve_args(args: &[String]) -> Result<SolveArgs, String> {
    let mut parsed = SolveArgs {
        engine: None,
        portfolio: None,
        time_limit: 0.0,
        node_limit: 0,
        threads: 0,
        out: None,
        trace: None,
        quiet: false,
        problem_path: String::new(),
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take_value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--engine" => parsed.engine = Some(take_value("--engine")?),
            "--portfolio" => parsed.portfolio = Some(Vec::new()),
            a if a.starts_with("--portfolio=") => {
                let ids = a["--portfolio=".len()..]
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                parsed.portfolio = Some(ids);
            }
            "--time-limit" => {
                let v = take_value("--time-limit")?;
                parsed.time_limit = match v.parse::<f64>() {
                    Ok(secs) if secs.is_finite() && secs > 0.0 => secs,
                    _ => return Err(format!("invalid --time-limit `{v}` (positive seconds)")),
                };
            }
            "--node-limit" => {
                let v = take_value("--node-limit")?;
                parsed.node_limit = v.parse().map_err(|_| format!("invalid --node-limit `{v}`"))?;
            }
            "--threads" => {
                let v = take_value("--threads")?;
                parsed.threads = match v.parse() {
                    Ok(n) if (1..=256).contains(&n) => n,
                    _ => return Err(format!("invalid --threads `{v}` (1 - 256)")),
                };
            }
            "--out" | "-o" => parsed.out = Some(take_value("--out")?),
            "--trace" => parsed.trace = Some(take_value("--trace")?),
            "--quiet" | "-q" => parsed.quiet = true,
            a if a.starts_with('-') => return Err(format!("unknown option `{a}`")),
            a => positional.push(a.to_string()),
        }
    }
    match positional.as_slice() {
        [path] => parsed.problem_path = path.clone(),
        [] => return Err("missing PROBLEM.json argument".to_string()),
        more => return Err(format!("unexpected extra arguments: {more:?}")),
    }
    if parsed.engine.is_some() && parsed.portfolio.is_some() {
        return Err("--engine and --portfolio are mutually exclusive".to_string());
    }
    Ok(parsed)
}

fn cmd_solve(args: &[String]) -> ExitCode {
    let parsed = match parse_solve_args(args) {
        Ok(p) => p,
        Err(e) => return fail(format!("{e}\n{USAGE}")),
    };
    let problem = match read_problem_any(&parsed.problem_path) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    if let Err(e) = problem.validate() {
        return fail(format!("`{}`: invalid problem: {e}", parsed.problem_path));
    }

    let registry = registry();
    // Fail fast on unknown engine ids — a usage error (exit 1), not an
    // infeasible job outcome.
    if let Some(ids) = &parsed.portfolio {
        for id in ids {
            if registry.get(id).is_none() {
                return fail(format!("unknown engine `{id}` in --portfolio"));
            }
        }
    } else if let Some(id) = &parsed.engine {
        if registry.get(id).is_none() {
            let known = registry.ids().join(", ");
            return fail(format!("unknown engine `{id}` (known: {known})"));
        }
    }

    let mut req = SolveRequest::new(problem);
    if parsed.time_limit > 0.0 {
        req = req.with_time_limit(parsed.time_limit);
    }
    if parsed.node_limit > 0 {
        req = req.with_node_limit(parsed.node_limit);
    }
    if parsed.threads > 0 {
        req = req.with_threads(parsed.threads);
    }

    // One job through the same queue-worker service `rfp serve` hosts. A
    // portfolio job races the requested engines (or every registered one):
    // the exact engines prove and cancel the heuristics; heuristics only win
    // on objective when nobody proves within the budget.
    let choice = match (&parsed.engine, &parsed.portfolio) {
        (Some(id), _) => EngineChoice::Engine(id.clone()),
        (None, Some(ids)) => EngineChoice::Portfolio(ids.clone()),
        (None, None) => EngineChoice::Default,
    };
    // With --trace, everything below runs inside a "main"-track scope: the
    // service worker moves each job onto its own `job#####` track, so the
    // CLI span only brackets submit/join. Scope before span: drop order
    // closes the span first, then flushes the scope.
    let collector = parsed.trace.as_ref().map(|_| relocfp::trace::Collector::new());
    let trace_scope = collector.as_ref().map(|c| c.install("main"));
    let cli_span = relocfp::trace::span("cli.solve");

    let service = SolveService::new(
        registry,
        ServiceConfig {
            workers: 1,
            trace: collector.as_ref().map(|c| c.handle()),
            ..ServiceConfig::default()
        },
    );
    let id = service.submit(JobSpec::new(req).with_engine(choice));
    let result = service.join(id).expect("submitted ids are joinable");

    drop(cli_span);
    drop(trace_scope);
    if let (Some(path), Some(collector)) = (&parsed.trace, &collector) {
        if let Err(e) = write_trace(path, collector) {
            return fail(e);
        }
    }

    let (engine_label, outcome) = (result.engine, result.outcome);
    if let (false, Some(race)) = (parsed.quiet, &result.race) {
        for entry in &race.entries {
            eprintln!(
                "  {:<14} {:<16} {:>8.2}s  nodes {}{}",
                entry.engine,
                entry.outcome.status.to_string(),
                entry.outcome.stats.solve_seconds,
                entry.outcome.stats.nodes,
                if entry.outcome.stats.cancelled { "  (cancelled)" } else { "" },
            );
        }
    }

    if !parsed.quiet {
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
    }
    match &outcome.floorplan {
        Some(fp) => {
            let rendered = jsonio::write_floorplan(fp);
            match write_output(parsed.out.as_deref(), &rendered) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(e),
            }
        }
        None => {
            eprintln!("rfp: no floorplan: {}", outcome.detail.as_deref().unwrap_or("(no detail)"));
            ExitCode::from(if outcome.status == OutcomeStatus::BudgetExhausted { 3 } else { 2 })
        }
    }
}

fn cmd_validate(args: &[String]) -> ExitCode {
    let [problem_path, floorplan_path] = args else {
        return fail(format!("validate needs PROBLEM and FLOORPLAN files\n{USAGE}"));
    };
    let problem = match read_problem_any(problem_path) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    if let Err(e) = problem.validate() {
        return fail(format!("`{problem_path}`: invalid problem: {e}"));
    }
    let floorplan = match read_floorplan_any(floorplan_path) {
        Ok(fp) => fp,
        Err(e) => return fail(e),
    };
    let issues = floorplan.validate(&problem);
    if issues.is_empty() {
        let m = floorplan.metrics(&problem);
        println!(
            "valid: wasted frames {}, wire length {:.1}, free-compatible areas {}/{}",
            m.wasted_frames, m.wirelength, m.fc_found, m.fc_requested
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("invalid floorplan ({} issue(s)):", issues.len());
        for issue in &issues {
            eprintln!("  - {issue}");
        }
        ExitCode::from(2)
    }
}

fn cmd_simulate(args: &[String]) -> ExitCode {
    let mut config = OnlineConfig::default();
    let mut report_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut quiet = false;
    let mut scenario_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take_value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--policy" => {
                let v = match take_value("--policy") {
                    Ok(v) => v,
                    Err(e) => return fail(e),
                };
                match DefragPolicy::from_id(&v) {
                    Some(p) => config.policy = p,
                    None => {
                        return fail(format!("unknown policy `{v}` (aware | oblivious | no_break)"))
                    }
                }
            }
            "--engine" => match take_value("--engine") {
                Ok(v) => config.engine = v,
                Err(e) => return fail(e),
            },
            "--threshold" => {
                let v = match take_value("--threshold") {
                    Ok(v) => v,
                    Err(e) => return fail(e),
                };
                match v.parse::<f64>() {
                    Ok(t) if (0.0..=1.0).contains(&t) => config.defrag_threshold = t,
                    _ => return fail(format!("invalid --threshold `{v}` (0.0 - 1.0)")),
                }
            }
            "--time-limit" => {
                let v = match take_value("--time-limit") {
                    Ok(v) => v,
                    Err(e) => return fail(e),
                };
                match v.parse::<f64>() {
                    Ok(secs) if secs.is_finite() && secs > 0.0 => {
                        config.engine_time_limit = secs;
                    }
                    _ => return fail(format!("invalid --time-limit `{v}` (positive seconds)")),
                }
            }
            "--report" => match take_value("--report") {
                Ok(v) => report_path = Some(v),
                Err(e) => return fail(e),
            },
            "--trace" => match take_value("--trace") {
                Ok(v) => trace_path = Some(v),
                Err(e) => return fail(e),
            },
            "--quiet" | "-q" => quiet = true,
            a if a.starts_with('-') => return fail(format!("unknown option `{a}`")),
            a => {
                if scenario_path.replace(a.to_string()).is_some() {
                    return fail(format!("more than one SCENARIO.json given\n{USAGE}"));
                }
            }
        }
    }
    let Some(scenario_path) = scenario_path else {
        return fail(format!("missing SCENARIO argument\n{USAGE}"));
    };
    let scenario = match read_scenario_any(&scenario_path) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    // With --trace, the simulation loop runs on the "main" track while the
    // service worker puts each escalation re-solve on its own job track.
    let collector = trace_path.as_ref().map(|_| relocfp::trace::Collector::new());
    let trace_scope = collector.as_ref().map(|c| c.install("main"));
    let cli_span = relocfp::trace::span("cli.simulate");
    // Escalation re-solves go through a solve service: repeated escalations
    // over similar live-module sets warm-start from the outcome cache.
    let service = Arc::new(SolveService::new(
        registry(),
        ServiceConfig {
            workers: 1,
            default_engine: config.engine.clone(),
            trace: collector.as_ref().map(|c| c.handle()),
            ..Default::default()
        },
    ));
    let sim = simulate_with_dispatcher(&scenario, &config, service.clone());
    drop(cli_span);
    drop(trace_scope);
    if let (Some(path), Some(collector)) = (&trace_path, &collector) {
        if let Err(e) = write_trace(path, collector) {
            return fail(e);
        }
    }
    let report = match sim {
        Ok(r) => r,
        Err(e) => return fail(format!("`{scenario_path}`: {e}")),
    };
    if !quiet {
        eprintln!("rfp: {}", report.summary());
        let (hits, warm, misses) = service.cache_counters();
        if hits + warm + misses > 0 {
            eprintln!("rfp: solve cache: {hits} hit(s), {warm} warm-start(s), {misses} miss(es)");
        }
        for e in report.events.iter().filter(|e| !e.violations.is_empty()) {
            for v in &e.violations {
                eprintln!("rfp: violation at t={}: {v}", e.time);
            }
        }
    }
    let rendered = report.to_json();
    if let Err(e) = write_output(report_path.as_deref(), &rendered) {
        return fail(e);
    }
    ExitCode::from(if report.violations() > 0 { 2 } else { 0 })
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut config = ServiceConfig::default();
    let mut jobs_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take_value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workers" => {
                let v = match take_value("--workers") {
                    Ok(v) => v,
                    Err(e) => return fail(e),
                };
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => config.workers = n,
                    _ => return fail(format!("invalid --workers `{v}` (positive integer)")),
                }
            }
            "--engine" => match take_value("--engine") {
                Ok(v) => config.default_engine = v,
                Err(e) => return fail(e),
            },
            "--no-cache" => config.cache = false,
            "--jobs" => match take_value("--jobs") {
                Ok(v) => jobs_path = Some(v),
                Err(e) => return fail(e),
            },
            "--out" | "-o" => match take_value("--out") {
                Ok(v) => out_path = Some(v),
                Err(e) => return fail(e),
            },
            "--trace" => match take_value("--trace") {
                Ok(v) => trace_path = Some(v),
                Err(e) => return fail(e),
            },
            a => return fail(format!("unknown argument `{a}`\n{USAGE}")),
        }
    }
    let registry = registry();
    if registry.get(&config.default_engine).is_none() {
        let known = registry.ids().join(", ");
        return fail(format!("unknown engine `{}` (known: {known})", config.default_engine));
    }
    // A jobs file is a complete, finite stream: queue everything before the
    // workers start, so the response order (and the golden files CI diffs
    // against) is deterministic. Stdin is interactive — dispatch live.
    config.paused = jobs_path.is_some();
    // Counters-only keeps memory bounded however long the session runs,
    // while still powering the `stats` verb (live counter snapshots) and an
    // end-of-session `--trace` dump.
    let collector = relocfp::trace::Collector::counters_only();
    config.trace = Some(collector.handle());

    let mut rendered: Vec<u8> = Vec::new();
    let summary = {
        let stdout = std::io::stdout();
        let mut output: Box<dyn std::io::Write> =
            if out_path.is_some() { Box::new(&mut rendered) } else { Box::new(stdout.lock()) };
        let served = match &jobs_path {
            Some(path) => match read_file(path) {
                Ok(doc) => serve(&mut doc.as_bytes(), &mut output, registry, &config),
                Err(e) => return fail(e),
            },
            None => {
                let stdin = std::io::stdin();
                serve(&mut stdin.lock(), &mut output, registry, &config)
            }
        };
        match served {
            Ok(s) => s,
            Err(e) => return fail(format!("serve failed: {e}")),
        }
    };
    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, &rendered) {
            return fail(format!("cannot write `{path}`: {e}"));
        }
    }
    if let Some(path) = &trace_path {
        if let Err(e) = write_trace(path, &collector) {
            return fail(e);
        }
    }
    eprintln!("rfp: served {} job(s), {} error(s)", summary.jobs, summary.errors);
    ExitCode::from(if summary.errors > 0 { 1 } else { 0 })
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

fn cmd_trace(args: &[String]) -> ExitCode {
    let path = match args.first().map(String::as_str) {
        Some("summarize") => match args {
            [_, path] => path,
            _ => return fail(format!("trace summarize needs exactly one FILE\n{USAGE}")),
        },
        Some(other) => return fail(format!("unknown trace subcommand `{other}`\n{USAGE}")),
        None => return fail(format!("trace needs a subcommand (summarize)\n{USAGE}")),
    };
    let text = match read_file(path) {
        Ok(t) => t,
        Err(e) => return fail(e),
    };
    let doc = match relocfp::trace::TraceDoc::from_json(&text) {
        Ok(d) => d,
        Err(e) => return fail(format!("`{path}`: {e}")),
    };
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
    ExitCode::SUCCESS
}

/// A typed document in flight between the two serialisations.
enum ConvertDoc {
    Problem(FloorplanProblem),
    Floorplan(Floorplan),
    Scenario(Scenario),
}

impl ConvertDoc {
    /// Decodes a JSON document, dispatching on its `"format"` header.
    fn from_json(label: &str, text: &str) -> Result<ConvertDoc, String> {
        let format = jsonio::parse(text)
            .and_then(|doc| Ok(doc.field("format")?.as_str()?.to_string()))
            .map_err(|e| format!("`{label}`: {e}"))?;
        let prefix = |e: &dyn std::fmt::Display| format!("`{label}`: {e}");
        match format.as_str() {
            jsonio::PROBLEM_FORMAT => {
                jsonio::read_problem(text).map(ConvertDoc::Problem).map_err(|e| prefix(&e))
            }
            jsonio::FLOORPLAN_FORMAT => {
                jsonio::read_floorplan(text).map(ConvertDoc::Floorplan).map_err(|e| prefix(&e))
            }
            SCENARIO_FORMAT => {
                read_scenario(text).map(ConvertDoc::Scenario).map_err(|e| prefix(&e))
            }
            other => Err(format!("`{label}`: unknown document format `{other}`")),
        }
    }

    /// Decodes an `rfpb` document, dispatching on its kind byte.
    fn from_bin(label: &str, bytes: &[u8]) -> Result<ConvertDoc, String> {
        let kind = binio::detect_kind(bytes).map_err(|e| format!("`{label}`: {e}"))?;
        let prefix = |e: &dyn std::fmt::Display| format!("`{label}`: {e}");
        match kind {
            binio::BinKind::Problem => {
                binio::read_problem_bin(bytes).map(ConvertDoc::Problem).map_err(|e| prefix(&e))
            }
            binio::BinKind::Floorplan => {
                binio::read_floorplan_bin(bytes).map(ConvertDoc::Floorplan).map_err(|e| prefix(&e))
            }
            binio::BinKind::Scenario => {
                read_scenario_bin(bytes).map(ConvertDoc::Scenario).map_err(|e| prefix(&e))
            }
        }
    }

    fn to_json(&self) -> String {
        match self {
            ConvertDoc::Problem(p) => jsonio::write_problem(p),
            ConvertDoc::Floorplan(fp) => jsonio::write_floorplan(fp),
            ConvertDoc::Scenario(s) => write_scenario(s),
        }
    }

    fn to_bin(&self) -> Vec<u8> {
        match self {
            ConvertDoc::Problem(p) => binio::write_problem_bin(p),
            ConvertDoc::Floorplan(fp) => binio::write_floorplan_bin(fp),
            ConvertDoc::Scenario(s) => write_scenario_bin(s),
        }
    }
}

fn cmd_convert(args: &[String]) -> ExitCode {
    let mut out: Option<String> = None;
    let mut to_bin = false;
    let mut instance: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" | "-o" => match it.next() {
                Some(v) => out = Some(v.clone()),
                None => return fail("--out needs a value"),
            },
            "--to" => match it.next().map(String::as_str) {
                Some("json") => to_bin = false,
                Some("bin") => to_bin = true,
                Some(other) => return fail(format!("--to expects json or bin, not `{other}`")),
                None => return fail("--to needs a value (json or bin)"),
            },
            a if a.starts_with('-') => return fail(format!("unknown option `{a}`")),
            a => {
                if instance.replace(a.to_string()).is_some() {
                    return fail(format!("more than one INSTANCE given\n{USAGE}"));
                }
            }
        }
    }
    let Some(instance) = instance else {
        return fail(format!("missing INSTANCE argument\n{USAGE}"));
    };
    let builtin: Option<String> = match instance.as_str() {
        "sdr" => Some(rfp_workloads::sdr_problem_json(0)),
        "sdr2" => Some(rfp_workloads::sdr_problem_json(2)),
        "sdr3" => Some(rfp_workloads::sdr_problem_json(3)),
        "smoke" => Some(rfp_workloads::smoke_scenario_json()),
        other if other == "defrag" || other.starts_with("defrag:") => {
            let mut spec = DefragWorkloadSpec::default();
            let parts: Vec<&str> = other.split(':').collect();
            if let Some(seed) = parts.get(1) {
                match seed.parse() {
                    Ok(s) => spec.seed = s,
                    Err(_) => return fail(format!("invalid defrag seed `{seed}`")),
                }
            }
            if let Some(n) = parts.get(2) {
                match n.parse() {
                    Ok(n) => spec.n_modules = n,
                    Err(_) => return fail(format!("invalid defrag module count `{n}`")),
                }
            }
            if parts.len() > 3 {
                return fail(format!("invalid defrag spec `{other}`"));
            }
            Some(write_scenario(&spec.generate()))
        }
        other if other == "synthetic" || other.starts_with("synthetic:") => {
            let mut spec = WorkloadSpec::default();
            let parts: Vec<&str> = other.split(':').collect();
            if let Some(seed) = parts.get(1) {
                match seed.parse() {
                    Ok(s) => spec.seed = s,
                    Err(_) => return fail(format!("invalid synthetic seed `{seed}`")),
                }
            }
            if let Some(n) = parts.get(2) {
                match n.parse() {
                    Ok(n) => spec.n_regions = n,
                    Err(_) => return fail(format!("invalid synthetic region count `{n}`")),
                }
            }
            if parts.len() > 3 {
                return fail(format!("invalid synthetic spec `{other}`"));
            }
            Some(spec.generate().problem_json())
        }
        _ => None,
    };
    let result = match builtin {
        Some(json) if !to_bin => write_output(out.as_deref(), &json),
        Some(json) => match ConvertDoc::from_json(&instance, &json) {
            Ok(doc) => write_output_bytes(out.as_deref(), &doc.to_bin()),
            Err(e) => return fail(e),
        },
        None => {
            // Not a built-in: treat the instance as a problem/floorplan/
            // scenario file in either serialisation.
            let bytes = match read_bytes(&instance) {
                Ok(b) => b,
                Err(e) => {
                    return fail(format!(
                        "{e} (known instances: sdr, sdr2, sdr3, \
                         synthetic[:SEED[:REGIONS]], smoke, defrag[:SEED[:MODULES]])"
                    ))
                }
            };
            let doc = if binio::is_binary(&bytes) {
                ConvertDoc::from_bin(&instance, &bytes)
            } else {
                utf8(&instance, bytes).and_then(|text| ConvertDoc::from_json(&instance, &text))
            };
            match doc {
                Ok(doc) if to_bin => write_output_bytes(out.as_deref(), &doc.to_bin()),
                Ok(doc) => write_output(out.as_deref(), &doc.to_json()),
                Err(e) => return fail(e),
            }
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

fn cmd_sweep(args: &[String]) -> ExitCode {
    let mut grid_path: Option<String> = None;
    let mut workers: usize = 1;
    let mut out: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--grid" | "-g" => match it.next() {
                Some(v) => grid_path = Some(v.clone()),
                None => return fail("--grid needs a value"),
            },
            "--workers" | "-w" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => workers = n,
                Some(_) => return fail("--workers needs a positive integer"),
                None => return fail("--workers needs a value"),
            },
            "--out" | "-o" => match it.next() {
                Some(v) => out = Some(v.clone()),
                None => return fail("--out needs a value"),
            },
            "--trace" => match it.next() {
                Some(v) => trace_path = Some(v.clone()),
                None => return fail("--trace needs a value"),
            },
            "--quiet" | "-q" => quiet = true,
            a => return fail(format!("unknown argument `{a}`\n{USAGE}")),
        }
    }
    let grid = match grid_path {
        Some(path) => match read_file(&path)
            .and_then(|d| read_grid(&d).map_err(|e| format!("`{path}`: {e}")))
        {
            Ok(g) => g,
            Err(e) => return fail(e),
        },
        None => SweepGrid::smoke(),
    };
    // Runs land on plan-stable `run#####` tracks, so a sweep trace — like
    // the report — is byte-identical at every --workers value.
    let collector = trace_path.as_ref().map(|_| relocfp::trace::Collector::new());
    let trace_scope = collector.as_ref().map(|c| c.install("main"));
    let cli_span = relocfp::trace::span("cli.sweep");
    let swept = run_sweep(
        &grid,
        &SweepOptions {
            workers,
            trace: collector.as_ref().map(|c| c.handle()),
            ..Default::default()
        },
    );
    drop(cli_span);
    drop(trace_scope);
    if let (Some(path), Some(collector)) = (&trace_path, &collector) {
        if let Err(e) = write_trace(path, collector) {
            return fail(e);
        }
    }
    let outcome = match swept {
        Ok(o) => o,
        Err(e) => return fail(e.to_string()),
    };
    if let Err(e) = write_output(out.as_deref(), &outcome.report.to_json()) {
        return fail(e);
    }
    let violations: u64 = outcome.report.cells.iter().map(|c| c.violations).sum();
    if !quiet {
        eprintln!(
            "sweep `{}`: {} runs over {} cells on {} worker(s) in {:.2}s \
             ({:.1} KiB of shared binary trace)",
            outcome.report.grid,
            outcome.report.runs,
            outcome.report.cells.len(),
            workers,
            outcome.wall_seconds,
            outcome.trace_bytes as f64 / 1024.0,
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
    if violations > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
