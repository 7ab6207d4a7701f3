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

/// A time limit too large for a `Duration` or an `Instant` (1e300 s,
/// `f64::MAX`) means no deadline: every engine answers exactly as without a
/// limit, where it used to panic while building the deadline.
#[test]
fn huge_time_limits_mean_no_deadline_in_every_engine() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tiny.problem.json");
    let tiny =
        relocfp::floorplan::jsonio::read_problem(&std::fs::read_to_string(path).unwrap()).unwrap();
    let registry = full_registry();
    for id in registry.ids() {
        let engine = registry.get(id).unwrap();
        let unlimited = engine.solve(&SolveRequest::new(tiny.clone()), &SolveControl::default());
        for secs in [1e300, f64::MAX] {
            let req = SolveRequest::new(tiny.clone()).with_time_limit(secs);
            let outcome = engine.solve(&req, &SolveControl::default());
            assert_eq!(outcome.status, unlimited.status, "engine `{id}` at {secs:e} s");
            assert_eq!(outcome.floorplan, unlimited.floorplan, "engine `{id}` at {secs:e} s");
        }
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

/// The golden problem `tests/golden/{name}.problem.json`.
fn golden_problem(name: &str) -> FloorplanProblem {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(format!("tests/golden/{name}.problem.json"));
    relocfp::floorplan::jsonio::read_problem(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// The instances of the MILP engine pins: the tiny and hetero goldens and a
/// generated relocation-free columnar instance, portion-4, on which `ho`
/// runs the portion model and `milp` the assignment model.
fn milp_pin_instances() -> [(&'static str, FloorplanProblem); 3] {
    let golden = golden_problem;
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
    [("tiny", golden("tiny")), ("hetero", golden("hetero")), ("portion-4", portion)]
}

/// Solves each pin instance with `engine` (serial, no budget) and checks
/// its row: `(instance, nodes, lp_solves, lp_iterations, cuts, floorplan as
/// `x,y,w,h` per region then per free-compatible area, metrics)`.
fn check_engine_pins(engine: &str, rows: [(&str, u64, u64, u64, u64, &str, &str); 3]) {
    let registry = full_registry();
    let xywh = |r: &relocfp::device::Rect| format!("{},{},{},{}", r.x, r.y, r.w, r.h);
    for ((name, problem), (row, nodes, lp_solves, lp_iterations, cuts, layout, metrics)) in
        milp_pin_instances().into_iter().zip(rows)
    {
        assert_eq!(name, row);
        let outcome = registry
            .get(engine)
            .unwrap()
            .solve(&SolveRequest::new(problem), &SolveControl::default());
        assert!(outcome.is_proven(), "{engine} {name}: {}", outcome.status);
        let s = &outcome.stats;
        assert_eq!(
            (s.nodes, s.lp_solves, s.lp_iterations, s.cuts),
            (nodes, lp_solves, lp_iterations, cuts),
            "{engine} {name}"
        );
        let fp = outcome.floorplan.as_ref().expect("a proven outcome has a floorplan");
        let regions: Vec<String> = fp.regions.iter().map(xywh).collect();
        let fc: Vec<String> =
            fp.fc_areas.iter().map(|a| a.rect.as_ref().map_or("-".into(), xywh)).collect();
        assert_eq!(
            (
                format!("{} | {}", regions.join(" "), fc.join(" ")),
                format!("{:?}", outcome.metrics.expect("a floorplan has metrics")),
            ),
            (layout.to_string(), metrics.to_string()),
            "{engine} {name}"
        );
    }
}

/// The `milp` engine's search tallies on the pin instances, recorded from
/// the serial branch-and-bound, with the floorplan and metrics each proves:
/// a change to the tree search that alters node order or LP work shows up
/// here, and one that alters an answer too.
#[test]
fn milp_engine_stats_are_pinned_on_the_goldens() {
    // The counts follow the dual simplex's pivot path (its Devex row
    // weights pick the leaving row, its updated reduced costs order the
    // ratio test), so a change there may move them with a stated reason; it
    // must not move a floorplan or a metric. Dual Devex pricing, replacing
    // the largest-violation rule, took hetero from 233/233/1720 and
    // portion-4 from 201/201/3458; tiny solves at the root and did not move.
    // portion-4 then moved from the portion model (177/177/2025) to the
    // candidate-assignment model, which every relocation-free columnar
    // problem whose waste dominates now builds: its LP prices each
    // candidate's waste, so the tree fell to 23/23/62 with the same
    // floorplan and metrics. tiny, with its constraint-mode requests, stays
    // the portion-model pin. One set-packing row per tile then replaced the
    // assignment model's pairwise overlap rows: hetero went from 195/195/1425
    // to 227/227/1675 and its proven floorplan is now the mirror image of
    // the old one (FIR and CTRL swap columns 4 and 2), an objective tie with
    // the same metrics; portion-4 did not move.
    check_engine_pins(
        "milp",
        [
            (
                "tiny",
                1,
                1,
                102,
                0,
                "1,1,3,1 1,2,1,2 | 4,1,3,1 2,2,1,2",
                "Metrics { covered_frames: 174, required_frames: 174, wasted_frames: 0, \
                 wirelength: 20.0, perimeter: 7, fc_requested: 2, fc_found: 2, \
                 relocation_cost: 0.0, objective: 0.0 }",
            ),
            (
                "hetero",
                227,
                227,
                1675,
                0,
                "2,1,1,4 3,1,1,4 4,1,1,4 | - -",
                "Metrics { covered_frames: 420, required_frames: 420, wasted_frames: 0, \
                 wirelength: 32.0, perimeter: 15, fc_requested: 2, fc_found: 0, \
                 relocation_cost: 8.0, objective: 4.083333333333333 }",
            ),
            (
                "portion-4",
                23,
                23,
                62,
                0,
                "1,1,1,3 2,1,1,3 | ",
                "Metrics { covered_frames: 216, required_frames: 216, wasted_frames: 0, \
                 wirelength: 32.0, perimeter: 8, fc_requested: 0, fc_found: 0, \
                 relocation_cost: 0.0, objective: 0.09090909090909091 }",
            ),
        ],
    );
}

/// The size of `sdr`'s assignment model: one set-packing row per tile,
/// not one per overlapping candidate pair (those were 122,839 rows with
/// 256,658 nonzeros), so a change to the candidates or the row emission
/// shows up here.
#[test]
fn sdr_assignment_model_size_is_pinned() {
    use relocfp::floorplan::model::FloorplanMilp;
    let model = FloorplanMilp::build(&sdr_problem(), None);
    assert!(model.is_assignment());
    let s = model.stats();
    assert_eq!((s.n_vars, s.n_int_vars, s.n_cons, s.n_nonzeros), (1318, 1310, 345, 36_229));
}

/// The `ho` engine on the same instances: the MILP restricted by the
/// relative positions of its greedy seed. The hetero golden builds the
/// assignment model, which ignores the relations, so its row is `milp`'s;
/// on portion-4 the relations keep the portion model, fix its ordering
/// binaries and the tree shrinks to 1 node (the unrestricted portion model
/// took 177). A change to how the seed's relations reach the model build
/// shows up here. The hetero row moved with `milp`'s when the assignment
/// model's overlap rows became one row per tile.
#[test]
fn ho_engine_stats_are_pinned_on_the_goldens() {
    check_engine_pins(
        "ho",
        [
            (
                "tiny",
                1,
                1,
                98,
                0,
                "1,1,3,1 1,2,1,2 | 4,1,3,1 2,2,1,2",
                "Metrics { covered_frames: 174, required_frames: 174, wasted_frames: 0, \
                 wirelength: 20.0, perimeter: 7, fc_requested: 2, fc_found: 2, \
                 relocation_cost: 0.0, objective: 0.0 }",
            ),
            (
                "hetero",
                227,
                227,
                1675,
                0,
                "2,1,1,4 3,1,1,4 4,1,1,4 | - -",
                "Metrics { covered_frames: 420, required_frames: 420, wasted_frames: 0, \
                 wirelength: 32.0, perimeter: 15, fc_requested: 2, fc_found: 0, \
                 relocation_cost: 8.0, objective: 4.083333333333333 }",
            ),
            (
                "portion-4",
                1,
                1,
                75,
                0,
                "1,1,1,3 2,1,1,3 | ",
                "Metrics { covered_frames: 216, required_frames: 216, wasted_frames: 0, \
                 wirelength: 32.0, perimeter: 8, fc_requested: 0, fc_found: 0, \
                 relocation_cost: 0.0, objective: 0.09090909090909091 }",
            ),
        ],
    );
}

/// Irredundant candidates hold an Equation 14 optimum only when waste
/// dominates. On an 8x2 fabric whose first row is `CLB CLB BRAM CLB CLB
/// BRAM CLB CLB` and whose second row is all CLB, two regions that each need
/// one BRAM tile share one connection, and only wire length is weighted.
/// Their irredundant candidates are the two BRAM tiles, 3 apart; widening
/// both towards each other brings them 2 apart. `milp` and `ho` search the
/// irredundant candidates (the assignment model), so neither may prove
/// wire length 3.
#[test]
fn milp_engines_prove_no_optimum_the_irredundant_candidates_miss() {
    use relocfp::device::{
        fabric_partition, Device, Rect, ResourceVec, TileGrid, TileType, TileTypeRegistry,
    };
    use relocfp::floorplan::placement::Floorplan;
    use relocfp::floorplan::problem::{ObjectiveWeights, RegionSpec};
    use relocfp::floorplan::OutcomeStatus;
    let mut reg = TileTypeRegistry::new();
    let clb = reg.register(TileType::new("CLB", ResourceVec::new(1, 0, 0), 36)).unwrap();
    let bram = reg.register(TileType::new("BRAM", ResourceVec::new(0, 1, 0), 30)).unwrap();
    let mut grid = TileGrid::new(8, 2).unwrap();
    for col in 1..=8 {
        grid.set(col, 1, Some(if col % 3 == 0 { bram } else { clb })).unwrap();
        grid.set(col, 2, Some(clb)).unwrap();
    }
    let device = Device::new("bram-pair", reg, grid, Vec::new()).unwrap();
    let mut problem = FloorplanProblem::new(fabric_partition(&device).unwrap());
    let a = problem.add_region(RegionSpec::new("A", vec![(bram, 1)]));
    let b = problem.add_region(RegionSpec::new("B", vec![(bram, 1)]));
    problem.connect(a, b, 1.0);
    problem.weights =
        ObjectiveWeights { wirelength: 1.0, perimeter: 0.0, resources: 0.0, relocation: 0.0 };
    assert!(!problem.partition.is_columnar_legacy());
    assert!(!problem.waste_dominates());

    let closer = Floorplan::from_regions(vec![Rect::new(3, 1, 2, 1), Rect::new(5, 1, 2, 1)]);
    assert!(closer.validate(&problem).is_empty());
    assert_eq!(closer.metrics(&problem).wirelength, 2.0);

    let registry = full_registry();
    for id in ["milp", "ho"] {
        let request = SolveRequest::new(problem.clone()).with_threads(1);
        let outcome = registry.get(id).unwrap().solve(&request, &SolveControl::default());
        assert_eq!(outcome.status, OutcomeStatus::Feasible, "{id}: {:?}", outcome.detail);
        assert_eq!(outcome.metrics.as_ref().map(|m| m.wirelength), Some(3.0), "{id}");
        let detail = outcome.detail.unwrap_or_default();
        assert!(detail.contains("irredundant candidates only"), "{id}: {detail}");
    }
}

/// The combinatorial engine's serial search on three `solve-comb` scaling
/// instances (columnar, one constraint-mode free-compatible area for each of
/// the first two regions) and on the SDR golden: nodes, waste, wire-length
/// bits and the floorplan, written as `x,y,w,h` per region then per
/// free-compatible area. A change to the search, its pruning or the leaf
/// packer that alters node order or any packed rect shows up here. The node
/// counts are those of the search with forward checking (first fits, the
/// least-waste bound and the frame capacity); the waste, wire-length bits
/// and floorplans were recorded before it and did not move, since it prunes
/// only subtrees that cannot improve the incumbent.
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
            26_163,
            182,
            0x4077_0000_0000_0000_u64,
            "2,1,12,1 1,2,14,1 5,3,11,1 16,1,2,6 | 2,4,12,1 1,5,14,1",
        ),
        (
            "scaling-32c-3",
            scaling_instance(32, 3),
            35_747,
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
            1_196_500,
            90,
            0x40ad_c000_0000_0000,
            "5,1,6,5 27,2,8,1 11,2,7,1 12,3,13,1 23,4,13,5 | ",
        ),
    ] {
        let res = solve_combinatorial(
            &problem,
            &CombinatorialConfig::default(),
            &SolveControl::default(),
        )
        .unwrap();
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
            let cfg = CombinatorialConfig { threads, ..CombinatorialConfig::default() };
            let minute = std::time::Instant::now() + std::time::Duration::from_secs(60);
            let ctl = SolveControl::default().with_deadline(Some(minute));
            let res = solve_combinatorial(&problem, &cfg, &ctl).unwrap();
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

/// An `online`-shaped re-solve: the 16x3 heterogeneous fabric of the
/// `online` hetero traces (BRAM on the odd rows of every 4th column, a die
/// boundary after row 1), eight modules that together need every CLB tile,
/// two of them with a BRAM tile, and no free-compatible areas or
/// connections.
fn online_resolve_instance() -> FloorplanProblem {
    use relocfp::floorplan::problem::RegionSpec;
    use rfp_workloads::HeteroDeviceSpec;
    let partition = HeteroDeviceSpec {
        cols: 16,
        rows: 3,
        bram_every: 4,
        bram_stripe: 1,
        hard_block: None,
        die_boundaries: vec![1],
    }
    .partition();
    let ty = |frames: u32| {
        *partition.cell_types().iter().find(|&&t| partition.frames_per_tile(t) == frames).unwrap()
    };
    let (clb, bram) = (ty(36), ty(30));
    let mut problem = FloorplanProblem::new(partition);
    for (i, (tiles, brams)) in
        [(9, 0), (8, 1), (5, 0), (5, 0), (4, 1), (3, 0), (3, 0), (3, 0)].iter().enumerate()
    {
        let mut req = vec![(clb, *tiles)];
        if *brams > 0 {
            req.push((bram, *brams));
        }
        problem.add_region(RegionSpec::new(format!("M{i}"), req));
    }
    problem
}

/// A 70-column, 3-row columnar device whose only BRAM column is 64 and whose
/// DSP columns are 40 and 65: region `A` needs one tile of each, so every
/// placement of it straddles columns 64/65. `B` (a DSP tile) and `D` (a BRAM
/// tile) compete for the rows beside it, `B` and `C` are pulled there by
/// their connections to `A`, and `C` needs a constraint-mode
/// free-compatible area.
fn straddle_instance() -> FloorplanProblem {
    use relocfp::device::{columnar_partition, DeviceBuilder, ResourceVec};
    use relocfp::floorplan::problem::{RegionSpec, RelocationRequest};
    let mut b = DeviceBuilder::new("straddle-70x3");
    let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
    let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
    let dsp = b.tile_type("DSP", ResourceVec::new(0, 0, 1), 28);
    b.rows(3);
    for c in 1..=70 {
        b.column(match c {
            64 => bram,
            40 | 65 => dsp,
            _ => clb,
        });
    }
    let mut problem = FloorplanProblem::new(columnar_partition(&b.build().unwrap()).unwrap());
    let a = problem.add_region(RegionSpec::new("A", vec![(bram, 1), (dsp, 1)]));
    let r_b = problem.add_region(RegionSpec::new("B", vec![(clb, 4), (dsp, 1)]));
    let c = problem.add_region(RegionSpec::new("C", vec![(clb, 6)]));
    problem.add_region(RegionSpec::new("D", vec![(clb, 3), (bram, 1)]));
    problem.connect(a, r_b, 8.0);
    problem.connect(a, c, 4.0);
    problem.request_relocation(RelocationRequest::constraint(c, 1));
    problem
}

/// Serial search pins for the shapes the DFS occupancy test must get right:
/// an `online`-shaped re-solve, and a device wider than 64 columns with a
/// region across columns 64/65. Waste, wire-length bits and every rect were
/// recorded from the rect-scan overlap test the row masks replaced, and the
/// node counts from the search with forward checking; the 2- and 4-thread
/// searches must prove the same objective.
#[test]
fn combinatorial_mask_shapes_are_pinned() {
    use relocfp::device::Rect;
    use relocfp::floorplan::combinatorial::{solve_combinatorial, CombinatorialConfig};
    let xywh = |r: &Rect| format!("{},{},{},{}", r.x, r.y, r.w, r.h);
    // (instance, problem, nodes, waste, wire-length bits, floorplan)
    for (name, problem, nodes, waste, wl_bits, layout) in [
        (
            "online-16x3",
            online_resolve_instance(),
            74_576,
            60,
            0_u64,
            "1,1,3,3 4,2,5,2 9,2,5,1 10,1,6,1 5,1,5,1 9,3,3,1 13,3,3,1 14,2,3,1 | ",
        ),
        (
            "straddle-70x3",
            straddle_instance(),
            33_851,
            0,
            0x4044_0000_0000_0000,
            "64,1,2,1 65,2,5,1 61,1,3,2 61,3,4,1 | 1,1,3,2",
        ),
    ] {
        let res = solve_combinatorial(
            &problem,
            &CombinatorialConfig::default(),
            &SolveControl::default(),
        )
        .unwrap();
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
        for threads in [2, 4] {
            let cfg = CombinatorialConfig { threads, ..CombinatorialConfig::default() };
            let par = solve_combinatorial(&problem, &cfg, &SolveControl::default()).unwrap();
            assert!(par.proven, "{name}, {threads} threads");
            assert_eq!(par.best_waste, Some(waste), "{name}, {threads} threads");
            let pwl = par.best_wirelength.unwrap();
            assert!((pwl - f64::from_bits(wl_bits)).abs() < 1e-9, "{name}, {threads} threads");
            assert!(par.floorplan.unwrap().validate(&problem).is_empty(), "{name}");
        }
    }
}

/// The 12x4, four-region, seed-7 instance of the constraint-mode
/// heterogeneous family: two dies, BRAM stripes every third column, one
/// constraint-mode free-compatible area on the first region.
fn hetero_constraint_instance() -> FloorplanProblem {
    use rfp_workloads::HeteroDeviceSpec;
    let fabric = HeteroDeviceSpec {
        cols: 12,
        rows: 4,
        bram_every: 3,
        bram_stripe: 2,
        hard_block: None,
        die_boundaries: vec![2],
    };
    WorkloadSpec {
        seed: 7,
        n_regions: 4,
        utilisation: 0.4,
        dsp_fraction: 0.0,
        fc_per_region: 1,
        relocatable_regions: 1,
        ..WorkloadSpec::default()
    }
    .generate_on(fabric.partition())
}

/// `milp` and `ho` place the constraint-mode area of the 12x4 seed-7
/// instance inside the assignment model, so both prove it with the
/// combinatorial engine's waste.
#[test]
fn milp_engines_prove_the_constraint_instance_with_the_combinatorial_waste() {
    let problem = hetero_constraint_instance();
    let registry = full_registry();
    let req = SolveRequest::new(problem).with_threads(1);
    let comb = registry.get("combinatorial").unwrap().solve(&req, &SolveControl::default());
    assert!(comb.is_proven(), "{:?}", comb.detail);
    assert_eq!(comb.wasted_frames(), Some(60));
    for id in ["milp", "ho"] {
        let outcome = registry.get(id).unwrap().solve(&req, &SolveControl::default());
        assert!(outcome.is_proven(), "{id}: {} {:?}", outcome.status, outcome.detail);
        assert_eq!(outcome.wasted_frames(), comb.wasted_frames(), "{id}");
        assert_eq!(outcome.metrics.as_ref().map(|m| m.fc_found), Some(1), "{id}");
    }
}

/// One deadline covers the whole engine call: on the SDR2 golden the seed
/// search, the model build and the tree search of `milp` and `ho` stop
/// within a 1 s budget (plus 10 % and 0.5 s of slack), and a run the budget
/// stopped is never reported `Infeasible`.
#[test]
fn milp_engines_honour_the_time_limit() {
    use relocfp::floorplan::OutcomeStatus;
    let registry = full_registry();
    let req = SolveRequest::new(golden_problem("sdr2")).with_time_limit(1.0).with_threads(1);
    for id in ["milp", "ho"] {
        let t0 = std::time::Instant::now();
        let outcome = registry.get(id).unwrap().solve(&req, &SolveControl::default());
        let secs = t0.elapsed().as_secs_f64();
        assert!(secs <= 1.6, "{id} took {secs:.2} s against a 1 s budget");
        assert_ne!(outcome.status, OutcomeStatus::Infeasible, "{id}: {:?}", outcome.detail);
        assert!(!outcome.stats.cancelled, "{id}: a budget hit is not a cancellation");
        assert!(outcome.stats.solve_seconds <= secs, "{id}: the stats cover one call");
    }
}

/// The serial combinatorial search tree, node for node: the node count, the
/// `SearchCounts` (bound, fit and capacity prunes, leaves, expanded nodes),
/// whether the search is proven and the floorplan (`-` when there is none)
/// of ten instances, unbudgeted and at node limits 1, 64, 2,000 and 50,000.
/// The instances are the five goldens (`sdr2` requests count-2 areas), the
/// 12x4 seed-7 die-boundary instance and four `solve-comb` scaling
/// instances. A change to the search order, its pruning or the way it
/// counts nodes fails here; so does one that moves where a node budget
/// stops the search.
#[test]
fn combinatorial_search_counts_are_pinned() {
    use relocfp::device::Rect;
    use relocfp::floorplan::combinatorial::{solve_combinatorial, CombinatorialConfig};
    let xywh = |r: &Rect| format!("{},{},{},{}", r.x, r.y, r.w, r.h);
    let instances = [
        ("sdr", golden_problem("sdr")),
        ("sdr2", golden_problem("sdr2")),
        ("sdr3", golden_problem("sdr3")),
        ("tiny", golden_problem("tiny")),
        ("hetero", golden_problem("hetero")),
        ("hetero-12x4-7", hetero_constraint_instance()),
        ("scaling-24c-12", scaling_instance(24, 12)),
        ("scaling-32c-9", scaling_instance(32, 9)),
        ("scaling-40c-14", scaling_instance(40, 14)),
        ("scaling-48c-7", scaling_instance(48, 7)),
    ];
    let mut rows = Vec::new();
    for (name, problem) in &instances {
        for node_limit in [0, 1, 64, 2_000, 50_000] {
            let cfg = CombinatorialConfig { node_limit, threads: 1, first_feasible: false };
            let res = solve_combinatorial(problem, &cfg, &SolveControl::default()).unwrap();
            let c = res.counts;
            let layout = res.floorplan.as_ref().map_or("-".to_string(), |fp| {
                let regions: Vec<String> = fp.regions.iter().map(xywh).collect();
                let fc: Vec<String> =
                    fp.fc_areas.iter().map(|a| a.rect.as_ref().map_or("-".into(), xywh)).collect();
                format!("{} | {}", regions.join(" "), fc.join(" "))
            });
            rows.push(format!(
                "{name} {node_limit}: {} = {} + {} + {} + {} + {}, {}, {layout}",
                res.nodes,
                c.pruned_bound,
                c.pruned_fit,
                c.pruned_capacity,
                c.leaves,
                c.expanded,
                if res.proven { "proven" } else { "open" },
            ));
        }
    }
    // `instance limit: nodes = bound + fit + capacity + leaves + expanded,
    // proven or open, floorplan`.
    let expected: [&str; 50] = [
        "sdr 0: 1196500 = 1111871 + 0 + 0 + 76752 + 7877, proven, 5,1,6,5 27,2,8,1 11,2,7,1 12,3,13,1 23,4,13,5 | ",
        "sdr 1: 1 = 0 + 0 + 0 + 0 + 1, open, -",
        "sdr 64: 64 = 51 + 0 + 0 + 8 + 5, open, 5,1,6,5 27,6,8,1 11,1,7,1 12,7,13,1 23,1,13,5 | ",
        "sdr 2000: 2000 = 1899 + 0 + 0 + 84 + 17, open, 5,1,6,5 27,6,8,1 11,6,7,1 12,7,13,1 23,1,13,5 | ",
        "sdr 50000: 50000 = 47228 + 0 + 0 + 2442 + 330, open, 5,1,6,5 27,2,8,1 11,2,7,1 12,3,13,1 23,4,13,5 | ",
        "sdr2 0: 726357 = 669591 + 0 + 0 + 48619 + 8147, proven, 5,1,6,5 27,3,8,1 11,4,7,1 12,3,13,1 23,4,13,5 | 27,1,8,1 27,2,8,1 11,5,7,1 11,6,7,1 12,1,13,1 12,2,13,1",
        "sdr2 1: 1 = 0 + 0 + 0 + 0 + 1, open, -",
        "sdr2 64: 64 = 30 + 0 + 0 + 29 + 5, open, 5,1,6,5 27,6,8,1 11,1,7,1 15,2,7,2 23,1,13,5 | 27,7,8,1 27,8,8,1 11,4,7,1 11,5,7,1 9,6,7,2 35,6,7,2",
        "sdr2 2000: 2000 = 1526 + 0 + 0 + 445 + 29, open, 5,1,6,5 27,6,8,1 11,4,7,1 15,2,7,2 23,1,13,5 | 27,7,8,1 27,8,8,1 11,1,7,1 11,5,7,1 9,6,7,2 35,6,7,2",
        "sdr2 50000: 50000 = 46758 + 0 + 0 + 2629 + 613, open, 5,1,6,5 27,3,8,1 11,4,7,1 12,3,13,1 23,4,13,5 | 27,1,8,1 27,2,8,1 11,5,7,1 11,6,7,1 12,1,13,1 12,2,13,1",
        "sdr3 0: 75250 = 68184 + 0 + 0 + 2392 + 4674, proven, 5,4,6,5 27,4,8,1 11,4,7,1 35,3,7,2 7,1,26,3 | 27,5,8,1 27,6,8,1 27,7,8,1 11,5,7,1 11,6,7,1 11,7,7,1 35,1,7,2 35,5,7,2 35,7,7,2",
        "sdr3 1: 1 = 0 + 0 + 0 + 0 + 1, open, -",
        "sdr3 64: 64 = 0 + 0 + 0 + 0 + 64, open, -",
        "sdr3 2000: 2000 = 1026 + 0 + 0 + 638 + 336, open, 5,4,6,5 27,4,8,1 11,4,7,1 35,3,7,2 7,1,26,3 | 27,5,8,1 27,6,8,1 27,7,8,1 11,5,7,1 11,6,7,1 11,7,7,1 35,1,7,2 35,5,7,2 35,7,7,2",
        "sdr3 50000: 50000 = 46117 + 0 + 0 + 2392 + 1491, open, 5,4,6,5 27,4,8,1 11,4,7,1 35,3,7,2 7,1,26,3 | 27,5,8,1 27,6,8,1 27,7,8,1 11,5,7,1 11,6,7,1 11,7,7,1 35,1,7,2 35,5,7,2 35,7,7,2",
        "tiny 0: 236 = 68 + 0 + 0 + 152 + 16, proven, 1,2,3,1 1,1,2,1 | 4,1,3,1 4,2,2,1",
        "tiny 1: 1 = 0 + 0 + 0 + 0 + 1, open, -",
        "tiny 64: 64 = 20 + 0 + 0 + 39 + 5, open, 1,2,3,1 1,1,2,1 | 4,1,3,1 4,2,2,1",
        "tiny 2000: 236 = 68 + 0 + 0 + 152 + 16, proven, 1,2,3,1 1,1,2,1 | 4,1,3,1 4,2,2,1",
        "tiny 50000: 236 = 68 + 0 + 0 + 152 + 16, proven, 1,2,3,1 1,1,2,1 | 4,1,3,1 4,2,2,1",
        "hetero 0: 3934 = 698 + 0 + 0 + 3030 + 206, proven, 2,1,1,4 3,1,1,4 4,1,1,4 | - -",
        "hetero 1: 1 = 0 + 0 + 0 + 0 + 1, open, -",
        "hetero 64: 64 = 12 + 0 + 0 + 47 + 5, open, 1,3,4,1 2,1,2,2 4,1,2,2 | 5,3,4,1 1,4,4,1",
        "hetero 2000: 2000 = 362 + 0 + 0 + 1532 + 106, open, 2,1,1,4 3,1,1,4 4,1,1,4 | - -",
        "hetero 50000: 3934 = 698 + 0 + 0 + 3030 + 206, proven, 2,1,1,4 3,1,1,4 4,1,1,4 | - -",
        "hetero-12x4-7 0: 569 = 50 + 0 + 0 + 428 + 91, proven, 2,2,7,1 3,3,6,1 9,2,2,3 11,1,2,3 | 2,1,7,1",
        "hetero-12x4-7 1: 1 = 0 + 0 + 0 + 0 + 1, open, -",
        "hetero-12x4-7 64: 64 = 4 + 0 + 0 + 49 + 11, open, 1,1,7,1 2,3,6,1 8,2,2,3 10,1,3,2 | 1,2,7,1",
        "hetero-12x4-7 2000: 569 = 50 + 0 + 0 + 428 + 91, proven, 2,2,7,1 3,3,6,1 9,2,2,3 11,1,2,3 | 2,1,7,1",
        "hetero-12x4-7 50000: 569 = 50 + 0 + 0 + 428 + 91, proven, 2,2,7,1 3,3,6,1 9,2,2,3 11,1,2,3 | 2,1,7,1",
        "scaling-24c-12 0: 23633 = 19648 + 0 + 0 + 3080 + 905, proven, 1,1,2,4 3,1,6,3 11,1,3,5 16,1,9,2 | 16,3,2,4 3,4,6,3",
        "scaling-24c-12 1: 1 = 0 + 0 + 0 + 0 + 1, open, -",
        "scaling-24c-12 64: 64 = 37 + 0 + 0 + 22 + 5, open, 16,1,2,4 19,1,6,3 11,1,3,5 1,1,9,2 | 1,3,2,4 19,4,6,3",
        "scaling-24c-12 2000: 2000 = 1621 + 0 + 0 + 317 + 62, open, 16,1,2,4 19,1,6,3 11,1,3,5 1,1,9,2 | 1,3,2,4 19,4,6,3",
        "scaling-24c-12 50000: 23633 = 19648 + 0 + 0 + 3080 + 905, proven, 1,1,2,4 3,1,6,3 11,1,3,5 16,1,9,2 | 16,3,2,4 3,4,6,3",
        "scaling-32c-9 0: 28753 = 26887 + 0 + 0 + 1230 + 636, proven, 15,3,6,2 11,1,3,6 2,4,7,2 2,1,7,3 | 15,1,6,2 21,1,3,6",
        "scaling-32c-9 1: 1 = 0 + 0 + 0 + 0 + 1, open, -",
        "scaling-32c-9 64: 64 = 55 + 0 + 0 + 4 + 5, open, 5,1,6,2 2,1,3,6 11,4,7,2 11,1,7,3 | 5,3,6,2 21,1,3,6",
        "scaling-32c-9 2000: 2000 = 1909 + 0 + 0 + 48 + 43, open, 5,2,6,2 2,1,3,6 11,4,7,2 11,1,7,3 | 5,4,6,2 21,1,3,6",
        "scaling-32c-9 50000: 28753 = 26887 + 0 + 0 + 1230 + 636, proven, 15,3,6,2 11,1,3,6 2,4,7,2 2,1,7,3 | 15,1,6,2 21,1,3,6",
        "scaling-40c-14 0: 12616 = 11527 + 0 + 0 + 800 + 289, proven, 31,1,3,6 11,3,14,2 6,1,3,5 1,1,4,5 | 37,1,3,6 11,1,14,2",
        "scaling-40c-14 1: 1 = 0 + 0 + 0 + 0 + 1, open, -",
        "scaling-40c-14 64: 64 = 54 + 0 + 0 + 6 + 4, open, 6,1,3,6 11,1,14,2 31,1,3,5 1,1,4,5 | 37,1,3,6 11,3,14,2",
        "scaling-40c-14 2000: 2000 = 1823 + 0 + 0 + 140 + 37, open, 31,1,3,6 11,3,14,2 6,1,3,5 1,1,4,5 | 37,1,3,6 11,1,14,2",
        "scaling-40c-14 50000: 12616 = 11527 + 0 + 0 + 800 + 289, proven, 31,1,3,6 11,3,14,2 6,1,3,5 1,1,4,5 | 37,1,3,6 11,1,14,2",
        "scaling-48c-7 0: 10739 = 9418 + 0 + 0 + 1184 + 137, proven, 21,1,14,2 37,1,11,3 11,3,23,1 1,1,8,4 | 21,4,14,2 37,4,11,3",
        "scaling-48c-7 1: 1 = 0 + 0 + 0 + 0 + 1, open, -",
        "scaling-48c-7 64: 64 = 48 + 0 + 0 + 12 + 4, open, 11,1,14,2 37,1,11,3 11,3,23,1 1,1,8,4 | 11,4,14,2 37,4,11,3",
        "scaling-48c-7 2000: 2000 = 1688 + 0 + 0 + 278 + 34, open, 21,1,14,2 37,1,11,3 11,3,23,1 1,1,8,4 | 21,4,14,2 37,4,11,3",
        "scaling-48c-7 50000: 10739 = 9418 + 0 + 0 + 1184 + 137, proven, 21,1,14,2 37,1,11,3 11,3,23,1 1,1,8,4 | 21,4,14,2 37,4,11,3",
    ];
    for (row, want) in rows.iter().zip(expected) {
        assert_eq!(row, want);
    }
}
