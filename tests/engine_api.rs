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

/// The `milp` engine's search tallies on the committed golden problems and
/// on one columnar portion-model instance with a real tree, recorded from
/// the serial branch-and-bound, with the floorplan and metrics each proves:
/// a change to the tree search that alters node order or LP work shows up
/// here, and one that alters an answer too.
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
    let xywh = |r: &relocfp::device::Rect| format!("{},{},{},{}", r.x, r.y, r.w, r.h);
    // (instance, problem, nodes, lp_solves, lp_iterations, cuts, floorplan
    // as `x,y,w,h` per region then per free-compatible area, metrics).
    // The counts follow the dual simplex's pivot path (its Devex row
    // weights pick the leaving row, its updated reduced costs order the
    // ratio test), so a change there may move them with a stated reason; it
    // must not move a floorplan or a metric. Dual Devex pricing, replacing
    // the largest-violation rule, took hetero from 233/233/1720 and
    // portion-4 from 201/201/3458 to the counts below; tiny solves at the
    // root and did not move.
    for (name, problem, nodes, lp_solves, lp_iterations, cuts, layout, metrics) in [
        (
            "tiny",
            golden("tiny"),
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
            golden("hetero"),
            195,
            195,
            1425,
            0,
            "4,1,1,4 3,1,1,4 2,1,1,4 | - -",
            "Metrics { covered_frames: 420, required_frames: 420, wasted_frames: 0, \
             wirelength: 32.0, perimeter: 15, fc_requested: 2, fc_found: 0, \
             relocation_cost: 8.0, objective: 4.083333333333333 }",
        ),
        (
            "portion-4",
            portion,
            177,
            177,
            2025,
            0,
            "1,1,1,3 2,1,1,3 | ",
            "Metrics { covered_frames: 216, required_frames: 216, wasted_frames: 0, \
             wirelength: 32.0, perimeter: 8, fc_requested: 0, fc_found: 0, \
             relocation_cost: 0.0, objective: 0.09090909090909091 }",
        ),
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
            "{name}"
        );
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
            let cfg = CombinatorialConfig {
                threads,
                time_limit_secs: 60.0,
                ..CombinatorialConfig::default()
            };
            let res = solve_combinatorial(&problem, &cfg, &SolveControl::default()).unwrap();
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
