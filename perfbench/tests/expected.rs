//! The committed expected values re-derived: every `solve-comb` catalogue
//! objective and the SDR objective are the combinatorial engine's proofs,
//! and `milp` and `ho` agree wherever they reach an answer in a short
//! budget (`milp` must match a proof; `ho`, restricted to a greedy sequence
//! pair, may only do worse).

use perfbench::catalogue::{COMB_CATALOGUE, SDR_OBJECTIVE};
use perfbench::check::same_objective;
use perfbench::inputs::{decode_problem, scaling_instance, SDR_RFPB};
use relocfp::floorplan::engine::{EngineRegistry, SolveControl, SolveRequest};
use relocfp::floorplan::{FloorplanProblem, SolveOutcome};

fn solve(engine: &str, problem: &FloorplanProblem, secs: f64) -> SolveOutcome {
    let request = SolveRequest::new(problem.clone()).with_time_limit(secs).with_threads(1);
    EngineRegistry::builtin()
        .get(engine)
        .expect("builtin engine")
        .solve(&request, &SolveControl::default())
}

fn proven_objective(engine: &str, problem: &FloorplanProblem) -> f64 {
    let outcome = solve(engine, problem, 60.0);
    assert!(outcome.is_proven(), "{engine}: {:?}", outcome.detail);
    outcome.metrics.expect("a proven outcome has metrics").objective
}

#[test]
fn catalogue_objectives_are_combinatorial_proofs() {
    for &(cols, seed, objective) in COMB_CATALOGUE {
        let got = proven_objective("combinatorial", &scaling_instance(cols, seed));
        assert!(
            same_objective(got, objective),
            "{cols} columns, seed {seed}: {got} != {objective}"
        );
    }
    let sdr = decode_problem(SDR_RFPB).expect("the SDR golden decodes");
    let got = proven_objective("combinatorial", &sdr);
    assert!(same_objective(got, SDR_OBJECTIVE), "SDR: {got} != {SDR_OBJECTIVE}");
}

#[test]
fn milp_and_ho_agree_with_the_catalogue_where_they_answer() {
    for &(cols, seed, objective) in COMB_CATALOGUE.iter().filter(|e| e.0 == 20) {
        let problem = scaling_instance(cols, seed);
        let milp = solve("milp", &problem, 2.0);
        if let (true, Some(m)) = (milp.is_proven(), milp.metrics) {
            assert!(same_objective(m.objective, objective), "milp, seed {seed}");
        }
        if let Some(m) = solve("ho", &problem, 2.0).metrics {
            assert!(m.objective >= objective - 1e-9, "ho beat the proven optimum on seed {seed}");
        }
    }
}
