//! Regenerates Figure 4: the SDR2 floorplan with 6 free-compatible areas.
use rfp_floorplan::engine::{CombinatorialEngine, FloorplanEngine, SolveControl, SolveRequest};
use rfp_floorplan::render::render_ascii;
use rfp_workloads::sdr2_problem;

fn main() {
    let limit: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(120.0);
    let problem = sdr2_problem();
    let request = SolveRequest::new(problem.clone()).with_time_limit(limit);
    let outcome = CombinatorialEngine::default().solve(&request, &SolveControl::default());
    let floorplan = outcome.floorplan.as_ref().expect("SDR2 is feasible");
    let metrics = outcome.metrics.as_ref().expect("engines attach metrics to every floorplan");
    println!("Figure 4 — SDR2 floorplan ({} free-compatible areas)\n", metrics.fc_found);
    println!("{}", render_ascii(&problem, floorplan));
    println!(
        "wasted frames = {}, wire length = {:.0}, solve time = {:.1}s, proven optimal = {}",
        metrics.wasted_frames,
        metrics.wirelength,
        outcome.stats.solve_seconds,
        outcome.is_proven()
    );
}
