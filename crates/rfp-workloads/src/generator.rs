//! Reproducible synthetic workloads for scaling and ablation studies.
//!
//! The paper evaluates a single case study; the benchmark harness
//! additionally sweeps device sizes, region counts and relocation demands to
//! study how the floorplanner's cost and runtime scale. All randomness is
//! seeded, so a given [`WorkloadSpec`] always produces the same instance.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfp_device::{fabric_partition, FabricPartition, SyntheticSpec};
use rfp_floorplan::{FloorplanProblem, RegionSpec, RelocationRequest};

/// Specification of a synthetic floorplanning workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// RNG seed (two specs with the same fields generate identical
    /// instances).
    pub seed: u64,
    /// Device description.
    pub device: SyntheticSpec,
    /// Number of reconfigurable regions.
    pub n_regions: usize,
    /// Fraction of the device's usable tiles consumed by all regions
    /// together (0.0 - 1.0); controls how tight the instance is.
    pub utilisation: f64,
    /// Fraction of regions that require BRAM tiles.
    pub bram_fraction: f64,
    /// Fraction of regions that require DSP tiles.
    pub dsp_fraction: f64,
    /// Connect consecutive regions in a chain with this bus width (0 disables
    /// connections).
    pub bus_width: f64,
    /// Free-compatible areas requested (as constraints) per region, applied
    /// to the first `relocatable_regions` regions.
    pub fc_per_region: u32,
    /// Number of regions that receive relocation requests.
    pub relocatable_regions: usize,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            seed: 42,
            device: SyntheticSpec::default(),
            n_regions: 4,
            utilisation: 0.4,
            bram_fraction: 0.5,
            dsp_fraction: 0.25,
            bus_width: 32.0,
            fc_per_region: 0,
            relocatable_regions: 0,
        }
    }
}

/// A generated workload: the problem plus bookkeeping about how it was made.
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    /// The generated problem.
    pub problem: FloorplanProblem,
    /// The spec it was generated from.
    pub spec: WorkloadSpec,
}

impl SyntheticWorkload {
    /// The generated problem as an `rfp-problem` v1 JSON document
    /// ([`rfp_floorplan::jsonio`]), ready for `rfp solve`.
    pub fn problem_json(&self) -> String {
        rfp_floorplan::jsonio::write_problem(&self.problem)
    }
}

impl WorkloadSpec {
    /// Generates the workload.
    ///
    /// # Panics
    /// Panics if the device specification cannot be built or partitioned
    /// (this only happens for degenerate dimensions).
    pub fn generate(&self) -> SyntheticWorkload {
        let device = self.device.build().expect("synthetic device must build");
        let partition = fabric_partition(&device).expect("synthetic device partitions");
        let problem = self.generate_on(partition);
        SyntheticWorkload { problem, spec: self.clone() }
    }

    /// Generates the workload on an existing partition (used to sweep
    /// workload parameters on a fixed device). The partition may be any
    /// fabric — columnar or heterogeneous.
    pub fn generate_on(&self, partition: impl Into<FabricPartition>) -> FloorplanProblem {
        let partition = partition.into();
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Identify tile types by frame weight, as in the SDR builder.
        let mut clb = None;
        let mut bram = None;
        let mut dsp = None;
        for &ty in partition.cell_types() {
            match partition.frames_per_tile(ty) {
                36 => clb = Some(ty),
                30 => bram = Some(ty),
                28 => dsp = Some(ty),
                _ => {}
            }
        }
        let clb = clb.expect("synthetic devices always have CLB columns");

        let totals = partition.total_resources();
        let total_clb = totals[rfp_device::ResourceKind::Clb] as f64;
        let total_bram = totals[rfp_device::ResourceKind::Bram] as f64;
        let total_dsp = totals[rfp_device::ResourceKind::Dsp] as f64;

        let mut problem = FloorplanProblem::new(partition);
        let n = self.n_regions.max(1);
        let clb_budget = (total_clb * self.utilisation).max(n as f64);
        let mut ids = Vec::with_capacity(n);
        for i in 0..n {
            // Split the CLB budget unevenly but deterministically.
            let share = rng.gen_range(0.5..1.5) / n as f64;
            let clb_tiles = ((clb_budget * share).round() as u32).max(1);
            let mut req = vec![(clb, clb_tiles)];
            if let Some(bram_ty) = bram {
                if rng.gen_bool(self.bram_fraction.clamp(0.0, 1.0)) && total_bram >= 1.0 {
                    let max_bram = (total_bram * self.utilisation / n as f64).ceil().max(1.0);
                    req.push((bram_ty, rng.gen_range(1..=max_bram as u32)));
                }
            }
            if let Some(dsp_ty) = dsp {
                if rng.gen_bool(self.dsp_fraction.clamp(0.0, 1.0)) && total_dsp >= 1.0 {
                    let max_dsp = (total_dsp * self.utilisation / n as f64).ceil().max(1.0);
                    req.push((dsp_ty, rng.gen_range(1..=max_dsp as u32)));
                }
            }
            ids.push(problem.add_region(RegionSpec::new(format!("R{i}"), req)));
        }
        if self.bus_width > 0.0 {
            problem.connect_chain(&ids, self.bus_width);
        }
        for &region in ids.iter().take(self.relocatable_regions) {
            if self.fc_per_region > 0 {
                problem
                    .request_relocation(RelocationRequest::constraint(region, self.fc_per_region));
            }
        }
        problem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::default();
        let a = spec.generate().problem;
        let b = spec.generate().problem;
        assert_eq!(a.regions, b.regions);
        assert_eq!(a.connections, b.connections);
    }

    #[test]
    fn different_seeds_give_different_instances() {
        let a = WorkloadSpec { seed: 1, ..WorkloadSpec::default() }.generate().problem;
        let b = WorkloadSpec { seed: 2, ..WorkloadSpec::default() }.generate().problem;
        assert_ne!(a.regions, b.regions);
    }

    #[test]
    fn region_count_and_connections_follow_the_spec() {
        let spec = WorkloadSpec { n_regions: 6, bus_width: 16.0, ..WorkloadSpec::default() };
        let p = spec.generate().problem;
        assert_eq!(p.regions.len(), 6);
        assert_eq!(p.connections.len(), 5);
        assert!(p.validate().is_ok(), "generated workloads must be structurally valid");
    }

    #[test]
    fn relocation_requests_follow_the_spec() {
        let spec =
            WorkloadSpec { fc_per_region: 2, relocatable_regions: 2, ..WorkloadSpec::default() };
        let p = spec.generate().problem;
        assert_eq!(p.relocation.len(), 2);
        assert_eq!(p.n_fc_areas(), 4);
    }

    #[test]
    fn generated_workloads_round_trip_through_the_json_format() {
        let w =
            WorkloadSpec { fc_per_region: 1, relocatable_regions: 2, ..WorkloadSpec::default() }
                .generate();
        let doc = w.problem_json();
        let back = rfp_floorplan::jsonio::read_problem(&doc).unwrap();
        assert_eq!(back, w.problem);
    }

    #[test]
    fn utilisation_scales_requirements() {
        let low = WorkloadSpec { utilisation: 0.2, ..WorkloadSpec::default() }.generate().problem;
        let high = WorkloadSpec { utilisation: 0.7, ..WorkloadSpec::default() }.generate().problem;
        assert!(high.total_required_frames() > low.total_required_frames());
    }
}
