//! Cross-crate tests of the engine-agnostic solve API: all five engines on
//! the SDR instance through the same registry call path, portfolio racing
//! with loser cancellation, and the `rfp` CLI end to end.

use relocfp::device::SyntheticSpec;
use relocfp::floorplan::engine::{SolveControl, SolveRequest};
use relocfp::floorplan::portfolio::Portfolio;
use relocfp::floorplan::problem::FloorplanProblem;
use relocfp::workloads::generator::WorkloadSpec;
use rfp_baselines::engines::full_registry;
use rfp_workloads::sdr_problem;

/// A `solve-comb` scaling instance: columnar, 6 rows, four regions at 0.35
/// utilisation, one constraint-mode free-compatible area for each of the
/// first two regions.
fn scaling_instance(cols: u32, seed: u64) -> FloorplanProblem {
    WorkloadSpec {
        seed,
        n_regions: 4,
        utilisation: 0.35,
        device: SyntheticSpec { cols, rows: 6, bram_every: 5, dsp_every: 9, ..Default::default() },
        fc_per_region: 1,
        relocatable_regions: 2,
        ..WorkloadSpec::default()
    }
    .generate()
    .problem
}

/// Acceptance: every registered engine solves the (plain) SDR instance
/// through `EngineRegistry::get(id).solve(req, ctl)`. The exact
/// combinatorial engine proves; the MILP engines at least return their
/// warm-start incumbent within the budget; the baselines are feasible.
#[test]
fn all_five_engines_solve_sdr_through_the_registry() {
    let registry = full_registry();
    assert_eq!(registry.ids(), vec!["milp", "ho", "combinatorial", "annealing", "tessellation"]);
    let req = SolveRequest::new(sdr_problem()).with_time_limit(10.0);
    for id in registry.ids() {
        let outcome = registry.get(id).unwrap().solve(&req, &SolveControl::default());
        assert!(
            outcome.status.has_floorplan(),
            "engine `{id}` failed on SDR: {} ({:?})",
            outcome.status,
            outcome.detail
        );
        let fp = outcome.floorplan.as_ref().expect("floorplan present");
        assert!(fp.validate(&req.problem).is_empty(), "engine `{id}` returned invalid floorplan");
        assert_eq!(outcome.stats.engine, id);
        if id == "combinatorial" {
            assert!(outcome.is_proven(), "the combinatorial engine proves SDR");
            assert_eq!(outcome.stats.gap, 0.0);
        }
        if id == "annealing" || id == "tessellation" {
            assert!(!outcome.is_proven(), "baselines never claim proof");
        }
    }
}

/// Acceptance: `Portfolio::race` returns a proven result on SDR and cancels
/// the losing engines — the still-running exact engines observe the
/// cancellation token.
#[test]
fn portfolio_race_on_sdr_proves_and_cancels_losers() {
    let registry = full_registry();
    let race = Portfolio::from_registry(&registry).race(&SolveRequest::new(sdr_problem()));
    let winner = race.winning_entry().expect("SDR is feasible");
    assert_eq!(winner.engine, "combinatorial", "only the combinatorial engine can prove SDR");
    assert!(winner.outcome.is_proven());
    assert!(!winner.outcome.stats.cancelled);

    // The full-die MILP legs cannot finish before the combinatorial proof;
    // they must have been stopped through their cancellation tokens.
    for id in ["milp", "ho"] {
        let loser = race.entries.iter().find(|e| e.engine == id).unwrap();
        assert!(
            loser.outcome.stats.cancelled,
            "losing engine `{id}` must observe the cancellation token \
             (status {})",
            loser.outcome.status
        );
    }
    // Every leg reported, in registration order.
    assert_eq!(race.entries.len(), registry.len());
}

/// A shared time budget set on the request is honoured by every engine kind
/// (satellite: one budget field, all engines respect it).
#[test]
fn request_time_budget_reaches_every_engine() {
    let registry = full_registry();
    // A generous instance with an absurdly small budget: nobody may grossly
    // overshoot it (allow startup slack), and no engine may hang.
    let req = SolveRequest::new(sdr_problem()).with_time_limit(0.05);
    for id in registry.ids() {
        let start = std::time::Instant::now();
        let outcome = registry.get(id).unwrap().solve(&req, &SolveControl::default());
        let elapsed = start.elapsed().as_secs_f64();
        assert!(
            elapsed < 15.0,
            "engine `{id}` ignored the time budget (ran {elapsed:.1}s, status {})",
            outcome.status
        );
    }
}

/// The `rfp` CLI end to end: convert → solve → validate, exercising the JSON
/// format and the registry from the outside.
#[test]
fn rfp_cli_convert_solve_validate_round_trip() {
    use std::process::Command;
    let rfp = env!("CARGO_BIN_EXE_rfp");
    let dir = std::env::temp_dir().join(format!("rfp-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let problem = dir.join("sdr.problem.json");
    let floorplan = dir.join("sdr.floorplan.json");

    let convert = Command::new(rfp)
        .args(["convert", "sdr", "--out", problem.to_str().unwrap()])
        .output()
        .expect("rfp convert runs");
    assert!(convert.status.success(), "{}", String::from_utf8_lossy(&convert.stderr));

    let solve = Command::new(rfp)
        .args([
            "solve",
            "--engine",
            "combinatorial",
            "--time-limit",
            "60",
            "--out",
            floorplan.to_str().unwrap(),
            problem.to_str().unwrap(),
        ])
        .output()
        .expect("rfp solve runs");
    assert!(solve.status.success(), "{}", String::from_utf8_lossy(&solve.stderr));

    let validate = Command::new(rfp)
        .args(["validate", problem.to_str().unwrap(), floorplan.to_str().unwrap()])
        .output()
        .expect("rfp validate runs");
    assert!(validate.status.success(), "{}", String::from_utf8_lossy(&validate.stderr));
    assert!(String::from_utf8_lossy(&validate.stdout).starts_with("valid:"));

    // Unknown engines and malformed documents are rejected with exit 1.
    let bad_engine = Command::new(rfp)
        .args(["solve", "--engine", "quantum", problem.to_str().unwrap()])
        .output()
        .expect("rfp runs");
    assert_eq!(bad_engine.status.code(), Some(1));
    let bad_doc = dir.join("garbage.json");
    std::fs::write(&bad_doc, "{not json").unwrap();
    let bad_parse =
        Command::new(rfp).args(["solve", bad_doc.to_str().unwrap()]).output().expect("rfp runs");
    assert_eq!(bad_parse.status.code(), Some(1));

    std::fs::remove_dir_all(&dir).ok();
}

/// The `milp` engine's search tallies on the committed golden problems and
/// on one columnar portion-model instance with a real tree, recorded from
/// the serial branch-and-bound: a change to the tree search that alters node
/// order or LP work shows up here.
#[test]
fn milp_engine_stats_are_pinned_on_the_goldens() {
    use relocfp::floorplan::jsonio;
    let golden = |name: &str| {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/golden/{name}.problem.json"));
        jsonio::read_problem(&std::fs::read_to_string(path).unwrap()).unwrap()
    };
    // Columnar 8x3, BRAM every third column, two regions at 0.4 utilisation.
    let portion = WorkloadSpec {
        seed: 4,
        n_regions: 2,
        utilisation: 0.4,
        device: SyntheticSpec {
            cols: 8,
            rows: 3,
            bram_every: 3,
            dsp_every: 0,
            ..Default::default()
        },
        dsp_fraction: 0.0,
        ..WorkloadSpec::default()
    }
    .generate()
    .problem;
    let registry = full_registry();
    // (instance, problem, nodes, lp_solves, lp_iterations, cuts)
    for (name, problem, nodes, lp_solves, lp_iterations, cuts) in [
        ("tiny", golden("tiny"), 1, 1, 102, 0),
        ("hetero", golden("hetero"), 235, 235, 1718, 0),
        ("portion-4", portion, 205, 205, 3622, 0),
    ] {
        let outcome = registry
            .get("milp")
            .unwrap()
            .solve(&SolveRequest::new(problem), &SolveControl::default());
        assert!(outcome.is_proven(), "{name}: {}", outcome.status);
        let s = &outcome.stats;
        assert_eq!(
            (s.nodes, s.lp_solves, s.lp_iterations, s.cuts),
            (nodes, lp_solves, lp_iterations, cuts),
            "{name}"
        );
    }
}

/// The combinatorial engine's serial search on three `solve-comb` scaling
/// instances (columnar, one constraint-mode free-compatible area for each of
/// the first two regions) and on the SDR golden: nodes, waste, wire-length
/// bits and the floorplan, written as `x,y,w,h` per region then per
/// free-compatible area. A change to the search, its pruning or the leaf
/// packer that alters node order or any packed rect shows up here.
#[test]
fn combinatorial_serial_search_is_pinned() {
    use relocfp::device::Rect;
    use relocfp::floorplan::binio;
    use relocfp::floorplan::combinatorial::{solve_combinatorial, CombinatorialConfig};
    let sdr = binio::read_problem_bin(
        &std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sdr.problem.rfpb"))
            .unwrap(),
    )
    .unwrap();
    let xywh = |r: &Rect| format!("{},{},{},{}", r.x, r.y, r.w, r.h);
    // (instance, problem, nodes, waste, wire-length bits, floorplan)
    for (name, problem, nodes, waste, wl_bits, layout) in [
        (
            "scaling-20c-7",
            scaling_instance(20, 7),
            29_367,
            182,
            0x4077_0000_0000_0000_u64,
            "2,1,12,1 1,2,14,1 5,3,11,1 16,1,2,6 | 2,4,12,1 1,5,14,1",
        ),
        (
            "scaling-32c-3",
            scaling_instance(32, 3),
            36_500,
            248,
            0x4084_8000_0000_0000,
            "1,2,9,2 1,1,15,1 11,2,7,3 21,1,3,5 | 1,4,9,2 1,6,15,1",
        ),
        (
            "scaling-48c-0",
            scaling_instance(48, 0),
            18_604,
            160,
            0x408c_8000_0000_0000,
            "37,3,12,2 31,1,4,6 21,2,4,5 10,1,16,1 | 37,1,12,2 1,1,4,6",
        ),
        (
            "sdr-golden",
            sdr,
            1_197_485,
            90,
            0x40ad_c000_0000_0000,
            "5,1,6,5 27,2,8,1 11,2,7,1 12,3,13,1 23,4,13,5 | ",
        ),
    ] {
        let res = solve_combinatorial(&problem, &CombinatorialConfig::default()).unwrap();
        assert!(res.proven, "{name}");
        let fp = res.floorplan.expect("feasible");
        let regions: Vec<String> = fp.regions.iter().map(xywh).collect();
        let fc: Vec<String> =
            fp.fc_areas.iter().map(|a| a.rect.as_ref().map_or("-".into(), xywh)).collect();
        assert_eq!(
            (
                res.nodes,
                res.best_waste.unwrap(),
                res.best_wirelength.unwrap().to_bits(),
                format!("{} | {}", regions.join(" "), fc.join(" ")).as_str(),
            ),
            (nodes, waste, wl_bits, layout),
            "{name}"
        );
    }
}

/// The parallel combinatorial search on the scaling instances (12, 20 and 32
/// columns, the default workload seed): the 2- and 4-thread runs prove the
/// serial run's waste, and every run proves within 60 s.
#[test]
fn combinatorial_parallel_search_proves_the_serial_waste() {
    use relocfp::floorplan::combinatorial::{solve_combinatorial, CombinatorialConfig};
    let seed = WorkloadSpec::default().seed;
    for cols in [12, 20, 32] {
        let problem = scaling_instance(cols, seed);
        let waste = |threads: usize| {
            let cfg = CombinatorialConfig {
                threads,
                time_limit_secs: 60.0,
                ..CombinatorialConfig::default()
            };
            let res = solve_combinatorial(&problem, &cfg).unwrap();
            assert!(res.proven, "cols {cols}, {threads} thread(s): no proof within 60 s");
            res.best_waste.expect("scaling instances are feasible")
        };
        let serial = waste(1);
        for threads in [2, 4] {
            assert_eq!(waste(threads), serial, "cols {cols}, {threads} threads");
        }
    }
}

/// The MILP engines on the reduced 8x3 device of the Section VI proof-speed
/// study (three regions, one constraint-mode free-compatible area): O and HO
/// each return a valid floorplan within a 5 s budget.
#[test]
fn milp_engines_return_a_floorplan_on_the_reduced_device() {
    let problem = WorkloadSpec {
        n_regions: 3,
        utilisation: 0.35,
        device: SyntheticSpec {
            cols: 8,
            rows: 3,
            bram_every: 4,
            dsp_every: 0,
            ..Default::default()
        },
        fc_per_region: 1,
        relocatable_regions: 1,
        ..WorkloadSpec::default()
    }
    .generate()
    .problem;
    let registry = full_registry();
    let req = SolveRequest::new(problem.clone()).with_time_limit(5.0);
    for id in ["milp", "ho"] {
        let outcome = registry.get(id).unwrap().solve(&req, &SolveControl::default());
        let fp = outcome
            .floorplan
            .unwrap_or_else(|| panic!("{id}: {} ({:?})", outcome.status, outcome.detail));
        assert!(fp.validate(&problem).is_empty(), "{id} returned an invalid floorplan");
    }
}
