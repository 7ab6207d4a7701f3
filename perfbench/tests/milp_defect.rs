//! Reproducer of the `milp` defect that keeps constraint-mode heterogeneous
//! instances out of `solve-milp`: on this instance `combinatorial` proves
//! waste 0, while `milp` (and `ho`) answer `Infeasible` — "free-compatible
//! area #0 … was not identified" — after about 5.4 s against a 5 s budget.
//! The benchmark's output checks must score that answer as failed.

use perfbench::check::check_outcome;
use relocfp::floorplan::engine::{EngineRegistry, SolveControl, SolveRequest};
use relocfp::floorplan::{FloorplanProblem, OutcomeStatus};
use relocfp::workloads::generator::WorkloadSpec;
use relocfp::workloads::hetero::HeteroDeviceSpec;

fn instance() -> FloorplanProblem {
    let fabric = HeteroDeviceSpec {
        cols: 8,
        rows: 4,
        bram_every: 3,
        bram_stripe: 2,
        hard_block: None,
        die_boundaries: vec![2],
    };
    WorkloadSpec {
        seed: 8,
        n_regions: 3,
        utilisation: 0.4,
        dsp_fraction: 0.0,
        fc_per_region: 1,
        relocatable_regions: 1,
        ..WorkloadSpec::default()
    }
    .generate_on(fabric.partition())
}

#[test]
fn wrong_milp_infeasible_is_scored_as_failed() {
    let problem = instance();
    let registry = EngineRegistry::builtin();
    let solve = |engine: &str, secs: f64| {
        let request = SolveRequest::new(problem.clone()).with_time_limit(secs).with_threads(1);
        registry.get(engine).expect("builtin engine").solve(&request, &SolveControl::default())
    };

    let reference = solve("combinatorial", 60.0);
    assert!(reference.is_proven());
    assert_eq!(reference.wasted_frames(), Some(0));
    let expected = reference.metrics.map(|m| m.objective);
    assert_eq!(check_outcome(&problem, &reference, expected), Ok(()));

    let milp = solve("milp", 5.0);
    assert_eq!(
        milp.status,
        OutcomeStatus::Infeasible,
        "the defect is gone ({:?}): drop this pin and admit constraint-mode \
         heterogeneous instances to solve-milp",
        milp.detail
    );
    let verdict = check_outcome(&problem, &milp, expected);
    assert!(verdict.is_err(), "a missing floorplan must count as a failure");
}
