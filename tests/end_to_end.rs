//! Cross-crate integration tests: the full pipeline from device model to
//! floorplan to relocated bitstream, plus consistency between the solving
//! engines and the headline shape of the paper's evaluation.

use relocfp::prelude::*;
use rfp_baselines::tessellation_floorplan;
use rfp_floorplan::combinatorial::{solve_combinatorial, CombinatorialConfig};
use rfp_floorplan::engine::CombinatorialEngine;
use rfp_floorplan::feasibility::feasibility_analysis;
use rfp_workloads::sdr::{sdr2_problem, sdr_problem, RELOCATABLE_REGIONS};

/// Solves `problem` with the combinatorial engine under a 120 s budget and
/// returns the floorplan with its metrics.
fn solve(problem: &FloorplanProblem) -> (Floorplan, Metrics) {
    let request = SolveRequest::new(problem.clone()).with_time_limit(120.0);
    let outcome = CombinatorialEngine::default().solve(&request, &SolveControl::default());
    let metrics = outcome.metrics.expect("engines attach metrics to every floorplan");
    (outcome.floorplan.expect("the instance is feasible"), metrics)
}

#[test]
fn sdr2_end_to_end_floorplan_and_relocation() {
    let problem = sdr2_problem();
    let (floorplan, metrics) = solve(&problem);
    assert!(floorplan.validate(&problem).is_empty());
    assert_eq!(metrics.fc_requested, 6);
    assert_eq!(metrics.fc_found, 6, "SDR2 reserves 6 free-compatible areas (Table II)");

    // Every reserved area accepts a relocated bitstream of its region.
    let partition = &problem.partition;
    for (idx, rect) in floorplan.regions.iter().enumerate() {
        let targets = floorplan.fc_for_region(idx);
        if targets.is_empty() {
            continue;
        }
        let bs = Bitstream::generate(partition, &problem.regions[idx].name, *rect, idx as u64)
            .expect("region areas are legal");
        for target in targets {
            let moved = relocate(partition, &bs, target).expect("reserved areas are compatible");
            assert!(moved.verify().is_ok());
        }
    }
}

#[test]
fn table2_shape_holds() {
    // The qualitative content of Table II: requiring two free-compatible
    // areas per relocatable region (SDR2) does not increase the wasted-frame
    // cost over the relocation-free optimum, and the reconfiguration-centric
    // baseline wastes more than the exact floorplanner.
    let sdr = sdr_problem();
    let (_, plain) = solve(&sdr);
    let (_, sdr2) = solve(&sdr2_problem());
    assert_eq!(
        plain.wasted_frames, sdr2.wasted_frames,
        "the paper reports the same wasted frames for [10]/SDR and PA/SDR2"
    );
    let tess = tessellation_floorplan(&sdr).unwrap();
    assert!(
        tess.metrics(&sdr).wasted_frames > plain.wasted_frames,
        "the [8]-style baseline must waste more frames than the exact engine"
    );
}

#[test]
fn feasibility_analysis_matches_the_paper() {
    let verdicts = feasibility_analysis(&sdr_problem(), &CombinatorialConfig::default()).unwrap();
    for v in &verdicts {
        let expected = RELOCATABLE_REGIONS.contains(&v.name.as_str());
        assert_eq!(
            v.feasible,
            expected,
            "region `{}` should be {}",
            v.name,
            if expected { "relocatable" } else { "non-relocatable" }
        );
    }
}

#[test]
fn engines_agree_on_a_small_instance() {
    // The MILP engine (through the registry call path) and the combinatorial
    // engine must agree on the optimal wasted frames of a small instance with
    // a relocation constraint.
    let mut builder = DeviceBuilder::new("agree");
    let clb = builder.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
    let bram = builder.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
    builder.rows(3).columns(&[clb, clb, bram, clb, clb, bram]);
    let partition = columnar_partition(&builder.build().unwrap()).unwrap();
    let mut problem = FloorplanProblem::new(partition);
    problem.weights = ObjectiveWeights::area_only();
    let a = problem.add_region(RegionSpec::new("A", vec![(clb, 1), (bram, 1)]));
    problem.add_region(RegionSpec::new("B", vec![(clb, 2)]));
    problem.request_relocation(RelocationRequest::constraint(a, 1));

    let comb =
        solve_combinatorial(&problem, &CombinatorialConfig::default(), &SolveControl::default())
            .unwrap();
    let o = EngineRegistry::builtin().get("milp").expect("builtin engine").solve(
        &SolveRequest::new(problem.clone()).with_time_limit(120.0),
        &SolveControl::default(),
    );
    let o_fp = o.floorplan.as_ref().expect("O solves the small instance");
    let o_metrics = o.metrics.expect("metrics accompany floorplans");
    assert!(o_fp.validate(&problem).is_empty());
    assert_eq!(Some(o_metrics.wasted_frames), comb.best_waste);
    assert_eq!(o_metrics.fc_found, 1);
}

#[test]
fn facade_prelude_covers_the_whole_pipeline() {
    // Build a device through the prelude only, floorplan it, and check the
    // compatibility predicate agrees with the reserved areas.
    let mut builder = DeviceBuilder::new("prelude");
    let clb = builder.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
    let bram = builder.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
    builder.rows(4).columns(&[clb, bram, clb, clb, bram, clb]);
    let device = builder.build().unwrap();
    let partition = columnar_partition(&device).unwrap();
    let mut problem = FloorplanProblem::new(partition);
    let r = problem.add_region(RegionSpec::new("R", vec![(clb, 1), (bram, 1)]));
    problem.request_relocation(RelocationRequest::constraint(r, 2));
    let (fp, _) = solve(&problem);
    assert_eq!(fp.fc_found(), 2);
    for area in fp.fc_for_region(r) {
        assert!(areas_compatible(&device, &fp.regions[r], &area).is_compatible());
    }
}

#[test]
fn relocation_as_metric_degrades_gracefully_on_the_sdr() {
    // Requesting (as a metric) an area for the video decoder — which the
    // feasibility analysis proves impossible — must not make the problem
    // infeasible; the area is simply reported missing.
    let mut problem = sdr_problem();
    let video = problem
        .regions
        .iter()
        .position(|r| r.name == "Video Decoder")
        .expect("video decoder exists");
    problem.request_relocation(RelocationRequest::metric(video, 1, 5.0));
    let (floorplan, metrics) = solve(&problem);
    assert_eq!(metrics.fc_found, 0);
    assert!(metrics.relocation_cost > 0.0);
    assert!(floorplan.validate(&problem).is_empty());
}
