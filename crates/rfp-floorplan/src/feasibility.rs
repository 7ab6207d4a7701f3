//! Per-region relocation feasibility analysis (Section VI).
//!
//! The paper's first experiment asks, for each reconfigurable region of the
//! SDR design *one at a time*, whether a floorplan exists that places all
//! regions **and** one free-compatible area for that region. On the Virtex-5
//! FX70T the answer is positive for the carrier recovery, demodulator and
//! signal decoder regions (the paper calls these the *relocatable regions*)
//! and negative for the matched filter and video decoder, whose DSP demands
//! exhaust the two DSP columns of the device.
//!
//! Each instance goes through [`solve_combinatorial`], the combinatorial
//! engine's one entry point, in first-feasible mode. A budget that stops a
//! search leaves its verdict unproven and keeps the nodes it searched.

use crate::combinatorial::{solve_combinatorial, CombinatorialConfig};
use crate::engine::SolveControl;
use crate::error::FloorplanError;
use crate::problem::{FloorplanProblem, RegionId, RelocationRequest};

/// Feasibility verdict for one region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionFeasibility {
    /// Region index.
    pub region: RegionId,
    /// Region name.
    pub name: String,
    /// `true` if a floorplan with one free-compatible area for this region
    /// exists.
    pub feasible: bool,
    /// `true` when the engine exhausted the search space (the verdict is
    /// proven); `false` when a limit was hit before a conclusion.
    pub proven: bool,
    /// Search nodes explored, also when a limit stopped the search.
    pub nodes: u64,
}

/// Runs the feasibility analysis: for each region of the problem, checks
/// whether all regions can be placed together with **one** free-compatible
/// area for that region. Any relocation requests already present in the
/// problem are ignored.
pub fn feasibility_analysis(
    problem: &FloorplanProblem,
    config: &CombinatorialConfig,
) -> Result<Vec<RegionFeasibility>, FloorplanError> {
    problem.validate()?;
    let mut out = Vec::with_capacity(problem.regions.len());
    for region in 0..problem.regions.len() {
        let mut instance = problem.clone();
        instance.relocation.clear();
        instance.request_relocation(RelocationRequest::constraint(region, 1));
        let mut cfg = config.clone();
        cfg.first_feasible = true;
        let res = solve_combinatorial(&instance, &cfg, &SolveControl::default())?;
        let feasible = res.floorplan.is_some();
        out.push(RegionFeasibility {
            region,
            name: problem.regions[region].name.clone(),
            feasible,
            proven: res.proven || feasible,
            nodes: res.nodes,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::RegionSpec;
    use rfp_device::{columnar_partition, DeviceBuilder, ResourceVec};

    /// 8 columns (C C B C D C C B), 4 rows: one DSP column only.
    fn problem() -> FloorplanProblem {
        let mut b = DeviceBuilder::new("feas");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
        let dsp = b.tile_type("DSP", ResourceVec::new(0, 0, 1), 28);
        b.rows(4).columns(&[clb, clb, bram, clb, dsp, clb, clb, bram]);
        let part = columnar_partition(&b.build().unwrap()).unwrap();
        let mut p = FloorplanProblem::new(part);
        // The DSP-hungry region uses 3 of the 4 DSP tiles: no compatible copy
        // can exist. The small regions remain relocatable.
        p.add_region(RegionSpec::new("DSP hog", vec![(clb, 2), (dsp, 3)]));
        p.add_region(RegionSpec::new("Small A", vec![(clb, 2)]));
        p.add_region(RegionSpec::new("Small B", vec![(clb, 1), (bram, 1)]));
        p
    }

    #[test]
    fn analysis_distinguishes_relocatable_regions() {
        let p = problem();
        let verdicts = feasibility_analysis(&p, &CombinatorialConfig::default()).unwrap();
        assert_eq!(verdicts.len(), 3);
        let by_name = |n: &str| verdicts.iter().find(|v| v.name == n).unwrap();
        assert!(!by_name("DSP hog").feasible, "3 + 3 DSP tiles exceed the single DSP column");
        assert!(by_name("DSP hog").proven);
        assert!(by_name("Small A").feasible);
        assert!(by_name("Small B").feasible);
    }

    #[test]
    fn a_node_limit_reports_the_nodes_it_searched() {
        let p = problem();
        let cfg = CombinatorialConfig { node_limit: 1, ..CombinatorialConfig::default() };
        let verdicts = feasibility_analysis(&p, &cfg).unwrap();
        let unproven: Vec<_> = verdicts.iter().filter(|v| !v.proven).collect();
        assert!(!unproven.is_empty(), "one node cannot settle a 3-region instance");
        for v in unproven {
            assert!(!v.feasible);
            assert!(v.nodes > 0, "{}: a stopped search still searched", v.name);
        }
    }

    #[test]
    fn existing_relocation_requests_are_ignored() {
        let mut p = problem();
        p.request_relocation(RelocationRequest::constraint(0, 2));
        let verdicts = feasibility_analysis(&p, &CombinatorialConfig::default()).unwrap();
        // Would be trivially infeasible for every region if the existing
        // request were kept; instead only the per-region request applies.
        assert!(verdicts.iter().any(|v| v.feasible));
    }
}
