//! Greedy first-fit floorplanning heuristic.
//!
//! The HO algorithm needs "a first feasible solution" whose sequence pair is
//! then imposed on the MILP (Section II-A). This module provides that seed:
//! a deterministic greedy placer that processes regions from the most to the
//! least demanding, always picking the lowest-waste candidate that does not
//! conflict with what has been placed so far, and then reserves the requested
//! free-compatible areas greedily. If the greedy pass fails (tightly packed
//! instances), it falls back to the combinatorial engine in first-feasible
//! mode, which performs a complete search.

use crate::candidates::{first_fit, reserve_fc_areas};
use crate::combinatorial::{solve_combinatorial, CombinatorialConfig};
use crate::error::FloorplanError;
use crate::placement::Floorplan;
use crate::problem::FloorplanProblem;
use rfp_device::Rect;

/// Produces a feasible floorplan quickly (greedy first-fit with a complete
/// fallback). The result is *not* optimised; it is intended as the HO seed
/// and as a baseline for the improvement benchmarks.
pub fn greedy_floorplan(problem: &FloorplanProblem) -> Result<Floorplan, FloorplanError> {
    problem.validate()?;
    if let Some(fp) = greedy_attempt(problem) {
        return Ok(fp);
    }
    // Complete fallback: first feasible solution from the exact engine.
    let res = solve_combinatorial(problem, &CombinatorialConfig::feasibility())?;
    res.floorplan.ok_or_else(|| FloorplanError::Infeasible {
        reason: "no placement satisfies the requirements and relocation constraints".to_string(),
    })
}

/// The greedy pass alone, without the complete combinatorial fallback.
///
/// Unlike [`greedy_floorplan`] this is guaranteed cheap (one first-fit pass),
/// which makes it safe to call opportunistically — e.g. as a MILP warm start
/// — where an unbounded exhaustive fallback search would blow past the
/// caller's own time limit.
pub fn greedy_floorplan_fast(problem: &FloorplanProblem) -> Option<Floorplan> {
    problem.validate().ok()?;
    greedy_attempt(problem)
}

/// One greedy pass; returns `None` if it paints itself into a corner.
fn greedy_attempt(problem: &FloorplanProblem) -> Option<Floorplan> {
    let partition = &problem.partition;

    // Most demanding regions first (required frames, then name for
    // determinism).
    let mut order: Vec<usize> = (0..problem.regions.len()).collect();
    order.sort_by_key(|&i| {
        (u64::MAX - problem.regions[i].required_frames(partition), problem.regions[i].name.clone())
    });

    let mut placed: Vec<Option<Rect>> = vec![None; problem.regions.len()];
    let mut occupied: Vec<Rect> = Vec::new();
    for &i in &order {
        let rect = first_fit(partition, &problem.regions[i], &occupied)?;
        placed[i] = Some(rect);
        occupied.push(rect);
    }
    let regions: Vec<Rect> = placed.into_iter().map(|r| r.expect("all placed")).collect();

    // Reserve the requested free-compatible areas greedily; an unsatisfied
    // constraint fails validation and the complete fallback takes over.
    let fc_areas = reserve_fc_areas(partition, &problem.fc_areas(), &regions, occupied);

    let fp = Floorplan { regions, fc_areas };
    fp.validate(problem).is_empty().then_some(fp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{RegionSpec, RelocationRequest};
    use rfp_device::{columnar_partition, xc5vfx70t, DeviceBuilder, ResourceVec};

    fn small_problem() -> (FloorplanProblem, rfp_device::TileTypeId, rfp_device::TileTypeId) {
        let mut b = DeviceBuilder::new("small");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
        b.rows(4).columns(&[clb, clb, bram, clb, clb, clb, bram, clb]);
        let p = columnar_partition(&b.build().unwrap()).unwrap();
        (FloorplanProblem::new(p), clb, bram)
    }

    #[test]
    fn greedy_produces_a_valid_floorplan() {
        let (mut p, clb, bram) = small_problem();
        p.add_region(RegionSpec::new("A", vec![(clb, 3), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 4)]));
        p.add_region(RegionSpec::new("C", vec![(bram, 2)]));
        let fp = greedy_floorplan(&p).unwrap();
        assert!(fp.validate(&p).is_empty(), "{:?}", fp.validate(&p));
    }

    #[test]
    fn greedy_reserves_free_compatible_areas() {
        let (mut p, clb, bram) = small_problem();
        let a = p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        p.request_relocation(RelocationRequest::constraint(a, 1));
        let fp = greedy_floorplan(&p).unwrap();
        assert!(fp.validate(&p).is_empty());
        assert_eq!(fp.fc_found(), 1);
    }

    #[test]
    fn greedy_is_deterministic() {
        let (mut p, clb, bram) = small_problem();
        p.add_region(RegionSpec::new("A", vec![(clb, 3), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 2)]));
        let fp1 = greedy_floorplan(&p).unwrap();
        let fp2 = greedy_floorplan(&p).unwrap();
        assert_eq!(fp1, fp2);
    }

    #[test]
    fn infeasible_problem_is_reported() {
        let (mut p, _, bram) = small_problem();
        // 2 BRAM columns x 4 rows = 8 BRAM tiles; 3 regions of 3 BRAM tiles
        // each cannot fit.
        p.add_region(RegionSpec::new("A", vec![(bram, 3)]));
        p.add_region(RegionSpec::new("B", vec![(bram, 3)]));
        p.add_region(RegionSpec::new("C", vec![(bram, 3)]));
        let err = greedy_floorplan(&p);
        assert!(err.is_err());
    }

    #[test]
    fn greedy_handles_the_sdr_design_on_the_fx70t() {
        let device = xc5vfx70t();
        let clb = device.registry.by_name("CLB").unwrap();
        let bram = device.registry.by_name("BRAM").unwrap();
        let dsp = device.registry.by_name("DSP").unwrap();
        let partition = columnar_partition(&device).unwrap();
        let mut p = FloorplanProblem::new(partition);
        let mf = p.add_region(RegionSpec::new("Matched Filter", vec![(clb, 25), (dsp, 5)]));
        let cr = p.add_region(RegionSpec::new("Carrier Recovery", vec![(clb, 7), (dsp, 1)]));
        let dm = p.add_region(RegionSpec::new("Demodulator", vec![(clb, 5), (bram, 2)]));
        let sd = p.add_region(RegionSpec::new("Signal Decoder", vec![(clb, 12), (bram, 1)]));
        let vd =
            p.add_region(RegionSpec::new("Video Decoder", vec![(clb, 55), (bram, 2), (dsp, 5)]));
        p.connect_chain(&[mf, cr, dm, sd, vd], 64.0);
        let fp = greedy_floorplan(&p).unwrap();
        assert!(fp.validate(&p).is_empty(), "{:?}", fp.validate(&p));
        let m = fp.metrics(&p);
        assert_eq!(m.required_frames, 4202, "Table I total");
        assert!(m.wasted_frames < 4202, "greedy waste should stay moderate");
    }
}
