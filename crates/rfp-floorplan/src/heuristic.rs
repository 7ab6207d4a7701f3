//! Greedy first-fit floorplanning heuristic.
//!
//! The HO algorithm needs "a first feasible solution" whose sequence pair is
//! then imposed on the MILP (Section II-A). [`greedy_floorplan`] is that
//! seed's one entry point: a deterministic greedy placer that processes
//! regions from the most to the least demanding, always picking the
//! lowest-waste candidate that does not conflict with what has been placed
//! so far, and then reserves the requested free-compatible areas greedily
//! ([`crate::candidates::greedy_complete`]). It makes one pass and gives up
//! when that pass paints itself into a corner; the HO engine then runs the
//! complete first-feasible combinatorial search for its seed.

use crate::candidates::greedy_complete;
use crate::placement::Floorplan;
use crate::problem::FloorplanProblem;

/// One greedy first-fit pass over the regions, most demanding first
/// (required frames, then name for determinism). Returns `None` when the
/// problem is invalid or the pass paints itself into a corner. The result
/// is *not* optimised; it is the HO seed and a MILP warm start, and one
/// pass keeps it cheap enough to try before any search.
pub fn greedy_floorplan(problem: &FloorplanProblem) -> Option<Floorplan> {
    problem.validate().ok()?;
    let partition = &problem.partition;
    let mut order: Vec<usize> = (0..problem.regions.len()).collect();
    order.sort_by_key(|&i| {
        (u64::MAX - problem.regions[i].required_frames(partition), problem.regions[i].name.clone())
    });
    greedy_complete(problem, vec![None; problem.regions.len()], &order)
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
        assert!(greedy_floorplan(&p).is_none());
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
