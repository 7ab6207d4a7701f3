//! End-to-end coverage of the heterogeneous fabric device model.
//!
//! Pins the two hetero golden instances (`tests/golden/hetero.problem.json`
//! and `tests/golden/hetero.scenario.json`) against their builders, proves
//! that **all five** registry engines solve the golden problem on a
//! non-columnar fabric, and replays the smoke scenario through the online
//! simulator to show the die-boundary relocation filter actually fires
//! (`runtime.die_crossing_rejections >= 1`) — the same signal the CI
//! `hetero-smoke` job greps out of the trace document.
//!
//! Regenerate the JSON goldens with:
//!
//! ```text
//! cargo test --test hetero_fabric -- --ignored regenerate_golden_files
//! ```
//!
//! (the binary twins are owned by `binio_golden.rs`).

use relocfp::floorplan::engine::{SolveControl, SolveRequest};
use relocfp::floorplan::jsonio;
use relocfp::runtime::{read_scenario, simulate, OnlineConfig};
use rfp_workloads::{
    hetero_golden_problem, hetero_problem_json, hetero_scenario_json, hetero_smoke_scenario,
};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden(name: &str) -> String {
    let path = golden_dir().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden file {}: {e}", path.display()))
}

fn expected_documents() -> Vec<(&'static str, String)> {
    vec![
        ("hetero.problem.json", hetero_problem_json()),
        ("hetero.scenario.json", hetero_scenario_json()),
    ]
}

#[test]
fn hetero_golden_files_are_current() {
    for (name, expected) in expected_documents() {
        assert_eq!(
            golden(name),
            expected,
            "golden file {name} is stale; regenerate with \
             `cargo test --test hetero_fabric -- --ignored regenerate_golden_files`"
        );
    }
}

#[test]
fn hetero_goldens_use_the_version_2_device_section() {
    let problem = jsonio::read_problem(&golden("hetero.problem.json")).unwrap();
    assert!(!problem.partition.is_columnar_legacy());
    assert_eq!(problem.partition.die_boundaries, vec![2]);
    assert_eq!(problem, hetero_golden_problem());
    // Byte-stable canonical form.
    assert_eq!(jsonio::write_problem(&problem), golden("hetero.problem.json"));

    let scenario = read_scenario(&golden("hetero.scenario.json")).unwrap();
    assert!(!scenario.partition.is_columnar_legacy());
    assert_eq!(scenario.partition.die_boundaries, vec![1, 2, 3, 4, 5, 6, 7]);
    assert_eq!(scenario, hetero_smoke_scenario());
}

#[test]
fn version_1_documents_still_read_as_legacy_columnar_fabrics() {
    // The pre-existing goldens predate the fabric model; reading them must
    // keep producing legacy columnar partitions (columnar view, no die
    // boundaries) so every v1 consumer sees unchanged behaviour.
    for name in ["sdr.problem.json", "tiny.problem.json"] {
        let problem = jsonio::read_problem(&golden(name)).unwrap();
        assert!(problem.partition.is_columnar_legacy(), "{name} read as non-columnar");
        assert!(problem.partition.die_boundaries.is_empty(), "{name} grew die boundaries");
        // ... and they keep *writing* the exact version-1 bytes.
        assert_eq!(jsonio::write_problem(&problem), golden(name), "{name} drifted");
    }
}

#[test]
fn all_five_engines_solve_the_hetero_golden_problem() {
    let problem = jsonio::read_problem(&golden("hetero.problem.json")).unwrap();
    let registry = rfp_baselines::engines::full_registry();
    for engine in ["milp", "ho", "combinatorial", "annealing", "tessellation"] {
        let req = SolveRequest::new(problem.clone()).with_time_limit(120.0);
        let outcome = registry.get(engine).unwrap().solve(&req, &SolveControl::default());
        assert!(
            outcome.status.has_floorplan(),
            "{engine} failed on the hetero golden problem: {:?}",
            outcome.detail
        );
        let fp = outcome.floorplan.expect("status implies a floorplan");
        let issues = fp.validate(&problem);
        assert!(issues.is_empty(), "{engine} produced an invalid floorplan: {issues:?}");
        // Metric mode never forces reservation — but any area an engine does
        // reserve must respect the fabric's die boundaries.
        for f in fp.fc_areas.iter().filter_map(|f| f.rect) {
            assert!(!problem.partition.rect_crosses_die_boundary(&f), "{engine}: {f:?}");
        }
    }
}

/// The parallel combinatorial search returns the serial floorplan, byte for
/// byte, in every repeated run: the golden has two 1x4 regions whose swap
/// ties on the objective, and a worker finding the swapped leaf first must
/// not keep it.
#[test]
fn parallel_combinatorial_returns_the_serial_floorplan_of_the_hetero_golden() {
    let problem = jsonio::read_problem(&golden("hetero.problem.json")).unwrap();
    let engine = rfp_baselines::engines::full_registry().get("combinatorial").unwrap();
    let floorplan = |threads: usize| {
        let req = SolveRequest::new(problem.clone()).with_time_limit(120.0).with_threads(threads);
        let outcome = engine.solve(&req, &SolveControl::default());
        assert!(outcome.is_proven(), "{threads} thread(s): {:?}", outcome.detail);
        jsonio::write_floorplan(outcome.floorplan.as_ref().expect("proven implies a floorplan"))
    };
    let serial = floorplan(1);
    for run in 0..50 {
        for threads in [2, 3, 4] {
            assert_eq!(floorplan(threads), serial, "{threads} threads, run {run}");
        }
    }
}

/// The MILP engines return the serial floorplan, byte for byte, at every
/// thread count in every repeated run: the extra threads only solve node
/// LPs ahead of the serial search, so the mirror-image tie of the golden
/// resolves the same way however many there are.
#[test]
fn milp_engines_return_the_serial_floorplan_of_the_hetero_golden_at_every_thread_count() {
    let problem = jsonio::read_problem(&golden("hetero.problem.json")).unwrap();
    let registry = rfp_baselines::engines::full_registry();
    for id in ["milp", "ho"] {
        let engine = registry.get(id).unwrap();
        let floorplan = |threads: usize| {
            let req =
                SolveRequest::new(problem.clone()).with_time_limit(120.0).with_threads(threads);
            let outcome = engine.solve(&req, &SolveControl::default());
            assert!(outcome.is_proven(), "{id}, {threads} thread(s): {:?}", outcome.detail);
            jsonio::write_floorplan(outcome.floorplan.as_ref().expect("proven implies a floorplan"))
        };
        let serial = floorplan(1);
        for run in 0..20 {
            for threads in [1, 2, 3, 4, 8] {
                assert_eq!(floorplan(threads), serial, "{id}, {threads} threads, run {run}");
            }
        }
    }
}

#[test]
fn relocation_aware_engines_satisfy_the_hard_constraint_variant() {
    // The same instance with the request as a hard constraint: the MILP
    // assignment model must choose both windows among its target variables,
    // none of which crosses a die boundary.
    let problem = rfp_workloads::hetero_constraint_problem();
    let registry = rfp_baselines::engines::full_registry();
    for engine in ["milp", "ho", "combinatorial"] {
        let req = SolveRequest::new(problem.clone()).with_time_limit(120.0);
        let outcome = registry.get(engine).unwrap().solve(&req, &SolveControl::default());
        assert!(
            outcome.status.has_floorplan(),
            "{engine} failed on the constraint variant: {:?}",
            outcome.detail
        );
        let fp = outcome.floorplan.expect("status implies a floorplan");
        let issues = fp.validate(&problem);
        assert!(issues.is_empty(), "{engine}: {issues:?}");
        for f in &fp.fc_areas {
            let rect = f.rect.expect("constraint mode reserves every area");
            assert!(
                !problem.partition.rect_crosses_die_boundary(&rect),
                "{engine} reserved a die-crossing area {rect:?}"
            );
        }
    }
}

#[test]
fn the_smoke_scenario_exercises_the_die_crossing_rejection_path() {
    let scenario = read_scenario(&golden("hetero.scenario.json")).unwrap();
    let collector = rfp_trace::Collector::new();
    let report = {
        let _scope = collector.install("hetero-smoke");
        simulate(&scenario, &OnlineConfig::default()).expect("scenario simulates")
    };
    assert_eq!(report.rejected(), 0, "every arrival must be admitted: {report:?}");
    assert!(report.total_moves() >= 1, "the BIG arrival must force a relocation");
    let counters = collector.counter_snapshot();
    let rejections = counters.get("runtime.die_crossing_rejections").copied().unwrap_or(0);
    assert!(
        rejections >= 1,
        "no die-crossing rejection was counted (counters: {counters:?}); \
         the scenario no longer forces a boundary-spanning move"
    );
    // The refused relocations must have fallen back to regeneration.
    assert!(report.frames_resynthesized() >= 1, "{report:?}");
}

/// Rewrites the hetero JSON goldens from the current builders. Ignored by
/// default; run explicitly after an intentional change to the instances or
/// the format.
#[test]
#[ignore = "regenerates the golden files in-place"]
fn regenerate_golden_files() {
    std::fs::create_dir_all(golden_dir()).unwrap();
    for (name, doc) in expected_documents() {
        std::fs::write(golden_dir().join(name), doc).unwrap();
    }
}
