//! Regenerates the Section VI solve-time discussion and the MILP
//! proof-speed study.
//!
//! * Combinatorial engine on SDR/SDR2/SDR3 (the paper reports 1160 s to the
//!   SDR2 optimum and ~5 h to prove it with a commercial solver; the
//!   combinatorial engine proves the full-die instances in seconds).
//! * The from-scratch MILP path on a reduced synthetic device: the O model
//!   with the sparse revised simplex (warm-started dual re-solves,
//!   pseudo-cost branching, root cuts), HO, and the combinatorial engine,
//!   with per-engine nodes, LP iterations and per-LP re-solve time.
//!
//! Usage: `solve_times [limit_secs] [--quick] [--json PATH]`
//!
//! `--quick` shrinks the study for CI (short limit, SDR only on the
//! combinatorial side); `--json` writes the machine-readable BENCH artefact
//! so proof-speed regressions are visible across PRs.

use rfp_bench::json;
use rfp_bench::MilpSolveRow;
use rfp_floorplan::combinatorial::{solve_combinatorial, CombinatorialConfig};
use rfp_floorplan::engine::{
    CombinatorialEngine, FloorplanEngine, HeuristicMilpEngine, MilpEngine, SolveControl,
    SolveRequest,
};
use rfp_floorplan::model::{FloorplanMilp, MilpBuildConfig};
use rfp_workloads::generator::WorkloadSpec;
use rfp_workloads::{sdr2_problem, sdr3_problem, sdr_problem};

struct CombRow {
    instance: String,
    /// `Ok(None)` = the search timed out before finding any floorplan.
    outcome: Result<Option<u64>, String>,
    seconds: f64,
    nodes: u64,
    proven: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args.iter().position(|a| a == "--json").and_then(|i| args.get(i + 1)).cloned();
    let limit: f64 =
        args.iter().find_map(|a| a.parse::<f64>().ok()).unwrap_or(if quick { 30.0 } else { 120.0 });

    // ------------------------------------------------------------------
    // Combinatorial engine on the paper's designs.
    // ------------------------------------------------------------------
    println!("Solve-time study (combinatorial engine, limit {limit}s per instance)\n");
    let mut designs = vec![("SDR", sdr_problem())];
    if !quick {
        designs.push(("SDR2", sdr2_problem()));
        designs.push(("SDR3", sdr3_problem()));
    }
    let mut comb_rows: Vec<CombRow> = Vec::new();
    for (name, p) in designs {
        let cfg = CombinatorialConfig::with_time_limit(limit);
        match solve_combinatorial(&p, &cfg) {
            Ok(r) => comb_rows.push(CombRow {
                instance: name.to_string(),
                outcome: Ok(r.best_waste),
                seconds: r.solve_seconds,
                nodes: r.nodes,
                proven: r.proven,
            }),
            Err(e) => comb_rows.push(CombRow {
                instance: name.to_string(),
                outcome: Err(e.to_string()),
                seconds: 0.0,
                nodes: 0,
                proven: false,
            }),
        }
    }
    let comb_table: Vec<Vec<String>> = comb_rows
        .iter()
        .map(|r| {
            vec![
                r.instance.clone(),
                match &r.outcome {
                    Ok(Some(w)) => w.to_string(),
                    Ok(None) => "-".to_string(),
                    Err(e) => format!("error: {e}"),
                },
                format!("{:.2}", r.seconds),
                r.nodes.to_string(),
                if r.proven { "yes".into() } else { "no".into() },
            ]
        })
        .collect();
    println!(
        "{}",
        rfp_bench::markdown_table(
            &["Instance", "Wasted frames", "Seconds", "Nodes", "Proven"],
            &comb_table
        )
    );

    // ------------------------------------------------------------------
    // MILP proof-speed study on a reduced synthetic device.
    // ------------------------------------------------------------------
    println!("\nMILP proof-speed study on a reduced synthetic device:\n");
    let spec = WorkloadSpec {
        n_regions: 3,
        utilisation: 0.35,
        device: rfp_device::SyntheticSpec {
            cols: 8,
            rows: 3,
            bram_every: 4,
            dsp_every: 0,
            ..Default::default()
        },
        fc_per_region: 1,
        relocatable_regions: 1,
        ..WorkloadSpec::default()
    };
    let problem = spec.generate().problem;
    let model = FloorplanMilp::build(&problem, &MilpBuildConfig::optimal());
    let stats = model.stats();
    println!(
        "model: {} entities, {} vars ({} integer), {} constraints, {} nonzeros",
        stats.entities, stats.n_vars, stats.n_int_vars, stats.n_cons, stats.n_nonzeros
    );

    // Every engine runs through the unified trait call path (the same one
    // the registry, the portfolio and the `rfp` CLI use); only the engine
    // instance differs.
    let engines: Vec<(String, Box<dyn FloorplanEngine>)> = vec![
        ("O (revised)".to_string(), Box::new(MilpEngine::default())),
        ("HO (revised)".to_string(), Box::new(HeuristicMilpEngine::default())),
        ("Combinatorial".to_string(), Box::new(CombinatorialEngine::default())),
    ];
    let ctl = SolveControl::default();
    let mut milp_rows: Vec<MilpSolveRow> = Vec::new();
    for (label, engine) in engines {
        let req = SolveRequest::new(problem.clone()).with_time_limit(limit);
        let outcome = engine.solve(&req, &ctl);
        milp_rows.push(MilpSolveRow::from_outcome(&label, &outcome));
    }
    let milp_table: Vec<Vec<String>> = milp_rows
        .iter()
        .map(|r| {
            vec![
                r.engine.clone(),
                match &r.outcome {
                    Ok(w) => w.to_string(),
                    Err(e) => format!("error: {e}"),
                },
                r.fc_areas.to_string(),
                format!("{:.2}", r.solve_seconds),
                r.nodes.to_string(),
                r.lp_iterations.to_string(),
                format!("{:.2}", r.lp_seconds_per_solve() * 1e3),
                r.cuts.to_string(),
                if r.gap.is_finite() { format!("{:.4}", r.gap) } else { "inf".into() },
                if r.proven { "yes".into() } else { "no".into() },
            ]
        })
        .collect();
    println!(
        "{}",
        rfp_bench::markdown_table(
            &[
                "Engine",
                "Wasted frames",
                "FC areas",
                "Seconds",
                "Nodes",
                "LP iters",
                "ms/LP solve",
                "Cuts",
                "Gap",
                "Proven"
            ],
            &milp_table
        )
    );

    // ------------------------------------------------------------------
    // BENCH JSON artefact.
    // ------------------------------------------------------------------
    if let Some(path) = json_path {
        let comb_json = json::array(comb_rows.iter().map(|r| {
            let mut o = json::Object::new().str("instance", &r.instance);
            o = match &r.outcome {
                Ok(Some(w)) => o.int("wasted_frames", *w),
                Ok(None) => o.raw("wasted_frames", "null".to_string()),
                Err(e) => o.str("error", e),
            };
            o.num("seconds", r.seconds).int("nodes", r.nodes).bool("proven", r.proven).build()
        }));
        let model_json = json::Object::new()
            .int("entities", stats.entities as u64)
            .int("vars", stats.n_vars as u64)
            .int("int_vars", stats.n_int_vars as u64)
            .int("constraints", stats.n_cons as u64)
            .int("nonzeros", stats.n_nonzeros as u64)
            .build();
        let milp = json::Object::new()
            .raw("model", model_json)
            .raw("engines", json::array(milp_rows.iter().map(MilpSolveRow::to_json)));
        let doc = json::Object::new()
            .str("schema", "rfp-bench/solve_times/v3")
            .num("limit_secs", limit)
            .bool("quick", quick)
            .raw("combinatorial", comb_json)
            .raw("milp", milp.build())
            .build();
        match std::fs::write(&path, doc + "\n") {
            Ok(()) => println!("\nBENCH JSON written to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
