//! Regenerates Figure 5: the SDR3 floorplan with 9 free-compatible areas.
use rfp_floorplan::engine::{CombinatorialEngine, FloorplanEngine, SolveControl, SolveRequest};
use rfp_floorplan::render::render_ascii;
use rfp_workloads::sdr3_problem;

fn main() {
    let limit: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(120.0);
    let problem = sdr3_problem();
    let request = SolveRequest::new(problem.clone()).with_time_limit(limit);
    let outcome = CombinatorialEngine::default().solve(&request, &SolveControl::default());
    let floorplan = outcome.floorplan.as_ref().expect("SDR3 is feasible");
    let metrics = outcome.metrics.as_ref().expect("engines attach metrics to every floorplan");
    println!("Figure 5 — SDR3 floorplan ({} free-compatible areas)\n", metrics.fc_found);
    println!("{}", render_ascii(&problem, floorplan));
    println!(
        "wasted frames = {}, wire length = {:.0}, solve time = {:.1}s, proven optimal = {}",
        metrics.wasted_frames,
        metrics.wirelength,
        outcome.stats.solve_seconds,
        outcome.is_proven()
    );
}
