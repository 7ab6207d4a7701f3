//! Floorplans, their metrics and their validation.
//!
//! A [`Floorplan`] assigns a rectangle to every reconfigurable region and,
//! optionally, to every requested free-compatible area. [`Metrics`] evaluates
//! a floorplan with the quantities of the paper's objective function
//! (Equation 14): wire length, perimeter, wasted frames and relocation cost.
//! [`Floorplan::validate`] re-checks every constraint of the formulation
//! independently of how the floorplan was produced, which is the ground
//! truth used by the test-suite and by the benchmark harness.

use crate::problem::{FloorplanProblem, RegionId, RelocationMode};
use rfp_device::compat::fabric_compatible;
use rfp_device::Rect;

/// Placement of one requested free-compatible area.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FcPlacement {
    /// Index of the originating [`crate::problem::RelocationRequest`].
    pub request: usize,
    /// Region the area must be compatible with (`s_{c,n} = 1`).
    pub region: RegionId,
    /// Enforcement mode inherited from the request.
    pub mode: RelocationMode,
    /// The reserved rectangle, or `None` if the area could not be identified
    /// (possible only in metric mode).
    pub rect: Option<Rect>,
}

/// A complete floorplan: one rectangle per region plus the reserved
/// free-compatible areas.
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    /// Rectangle assigned to each region, indexed like
    /// [`FloorplanProblem::regions`].
    pub regions: Vec<Rect>,
    /// One entry per requested free-compatible area, in
    /// [`FloorplanProblem::fc_areas`] order.
    pub fc_areas: Vec<FcPlacement>,
}

/// Evaluation of a floorplan against a problem (the terms of Equation 14).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Total configuration frames covered by the regions.
    pub covered_frames: u64,
    /// Minimum frames required by the regions (Table I, last column).
    pub required_frames: u64,
    /// Wasted frames: covered minus required (the Table II metric).
    pub wasted_frames: u64,
    /// Total weighted wire length (`WL_cost`).
    pub wirelength: f64,
    /// Total half-perimeter of the regions (`P_cost`).
    pub perimeter: u64,
    /// Number of free-compatible areas requested.
    pub fc_requested: usize,
    /// Number of free-compatible areas successfully identified.
    pub fc_found: usize,
    /// Relocation cost `RL_cost` of Equation 13 (weighted missing areas).
    pub relocation_cost: f64,
    /// Composite objective of Equation 14 with the problem's weights.
    pub objective: f64,
}

impl Floorplan {
    /// Creates a floorplan from region rectangles only (no relocation).
    pub fn from_regions(regions: Vec<Rect>) -> Self {
        Floorplan { regions, fc_areas: Vec::new() }
    }

    /// All rectangles occupied by the floorplan: regions first, then the
    /// reserved free-compatible areas.
    pub fn occupied(&self) -> Vec<Rect> {
        let mut out = self.regions.clone();
        out.extend(self.fc_areas.iter().filter_map(|f| f.rect));
        out
    }

    /// Number of identified free-compatible areas.
    pub fn fc_found(&self) -> usize {
        self.fc_areas.iter().filter(|f| f.rect.is_some()).count()
    }

    /// The free-compatible areas reserved for a given region.
    pub fn fc_for_region(&self, region: RegionId) -> Vec<Rect> {
        self.fc_areas.iter().filter(|f| f.region == region).filter_map(|f| f.rect).collect()
    }

    /// Computes the evaluation metrics of the floorplan.
    pub fn metrics(&self, problem: &FloorplanProblem) -> Metrics {
        let partition = &problem.partition;
        let mut covered = 0u64;
        let mut required = 0u64;
        for (spec, rect) in problem.regions.iter().zip(self.regions.iter()) {
            covered += partition.frames_in_rect(rect);
            required += spec.required_frames(partition);
        }
        let wasted = covered.saturating_sub(required);

        let mut wirelength = 0.0;
        for c in &problem.connections {
            if c.a < self.regions.len() && c.b < self.regions.len() {
                let d = self.regions[c.a].center_distance_x2(&self.regions[c.b]) as f64 / 2.0;
                wirelength += c.weight * d;
            }
        }

        let perimeter: u64 = self.regions.iter().map(|r| r.half_perimeter() as u64).sum();

        let fc_requested = problem.n_fc_areas();
        let fc_found = self.fc_found();
        let mut relocation_cost = 0.0;
        for f in &self.fc_areas {
            if f.rect.is_none() {
                relocation_cost += match f.mode {
                    RelocationMode::Constraint => 1.0,
                    RelocationMode::Metric { weight } => weight,
                };
            }
        }

        let w = &problem.weights;
        let objective = w.wirelength * wirelength / problem.wl_max()
            + w.perimeter * perimeter as f64 / problem.p_max()
            + w.resources * wasted as f64 / problem.r_max()
            + w.relocation * relocation_cost / problem.rl_max();

        Metrics {
            covered_frames: covered,
            required_frames: required,
            wasted_frames: wasted,
            wirelength,
            perimeter,
            fc_requested,
            fc_found,
            relocation_cost,
            objective,
        }
    }

    /// Validates the floorplan against every constraint of the formulation.
    ///
    /// Returns a list of human-readable violations; an empty list means the
    /// floorplan is feasible. Checks:
    ///
    /// 1. one placement per region, inside the device, not crossing forbidden
    ///    areas;
    /// 2. resource coverage: each region covers at least its required tiles
    ///    of each type;
    /// 3. pairwise non-overlap among regions and reserved areas;
    /// 4. every reserved free-compatible area is *compatible* with its
    ///    region's placement (same shape, height and column-type sequence)
    ///    and crosses no forbidden area;
    /// 5. constraint-mode relocation requests are fully satisfied.
    pub fn validate(&self, problem: &FloorplanProblem) -> Vec<String> {
        let mut issues = Vec::new();
        let partition = &problem.partition;

        if self.regions.len() != problem.regions.len() {
            issues.push(format!(
                "floorplan places {} regions but the problem has {}",
                self.regions.len(),
                problem.regions.len()
            ));
            return issues;
        }

        // 1-2: geometry and coverage per region.
        for (i, (spec, rect)) in problem.regions.iter().zip(self.regions.iter()).enumerate() {
            if !partition.rect_in_bounds(rect) {
                issues.push(format!("region `{}` {} lies outside the device", spec.name, rect));
                continue;
            }
            if partition.rect_crosses_forbidden(rect) {
                issues.push(format!("region `{}` {} crosses a forbidden area", spec.name, rect));
            }
            let covered = partition.tiles_by_type_in_rect(rect);
            for &(ty, need) in spec.tile_req() {
                let have = covered.iter().find(|(t, _)| *t == ty).map(|&(_, c)| c).unwrap_or(0);
                if have < need {
                    issues.push(format!(
                        "region `{}` ({i}) covers {have} tiles of {ty} but requires {need}",
                        spec.name
                    ));
                }
            }
        }

        // 3: pairwise non-overlap among regions and reserved areas.
        let mut named: Vec<(String, Rect)> = problem
            .regions
            .iter()
            .zip(self.regions.iter())
            .map(|(s, r)| (s.name.clone(), *r))
            .collect();
        for (idx, f) in self.fc_areas.iter().enumerate() {
            if let Some(rect) = f.rect {
                let region_name = problem
                    .regions
                    .get(f.region)
                    .map(|r| r.name.clone())
                    .unwrap_or_else(|| format!("region {}", f.region));
                named.push((format!("free-compatible area #{idx} ({region_name})"), rect));
            }
        }
        for i in 0..named.len() {
            for j in (i + 1)..named.len() {
                if named[i].1.overlaps(&named[j].1) {
                    issues.push(format!(
                        "`{}` {} overlaps `{}` {}",
                        named[i].0, named[i].1, named[j].0, named[j].1
                    ));
                }
            }
        }

        // 4: compatibility of reserved areas.
        for (idx, f) in self.fc_areas.iter().enumerate() {
            let Some(rect) = f.rect else { continue };
            if f.region >= self.regions.len() {
                issues.push(format!(
                    "free-compatible area #{idx} references unknown region {}",
                    f.region
                ));
                continue;
            }
            let source = &self.regions[f.region];
            let report = fabric_compatible(partition, source, &rect);
            if !report.is_compatible() {
                issues.push(format!(
                    "free-compatible area #{idx} {} is not compatible with region {} {}: {report}",
                    rect, f.region, source
                ));
            }
        }

        // 5: constraint-mode requests must be fully satisfied.
        for (idx, f) in self.fc_areas.iter().enumerate() {
            if f.rect.is_none() && matches!(f.mode, RelocationMode::Constraint) {
                issues.push(format!(
                    "free-compatible area #{idx} (constraint mode, region {}) was not identified",
                    f.region
                ));
            }
        }

        issues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{RegionSpec, RelocationRequest};
    use rfp_device::{columnar_partition, DeviceBuilder, Rect, ResourceVec};

    /// 10 columns x 4 rows: C C B C C D C C B C.
    fn small_problem() -> FloorplanProblem {
        let mut b = DeviceBuilder::new("small");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
        let dsp = b.tile_type("DSP", ResourceVec::new(0, 0, 1), 28);
        b.rows(4).columns(&[clb, clb, bram, clb, clb, dsp, clb, clb, bram, clb]);
        let device = b.build().unwrap();
        let partition = columnar_partition(&device).unwrap();
        let mut p = FloorplanProblem::new(partition);
        let a = p.add_region(RegionSpec::new("A", vec![(clb, 4), (bram, 2)]));
        let c = p.add_region(RegionSpec::new("C", vec![(clb, 2), (dsp, 1)]));
        p.connect(a, c, 8.0);
        p
    }

    #[test]
    fn metrics_of_a_hand_built_floorplan() {
        let p = small_problem();
        // Region A: columns 2-3 (CLB, BRAM), rows 1-2 -> covers 2 CLB + 2 BRAM
        // ... needs 4 CLB so widen: columns 1-3, rows 1-2 = 4 CLB + 2 BRAM.
        let a = Rect::new(1, 1, 3, 2);
        // Region C: columns 5-6 rows 1-1 -> 1 CLB + 1 DSP; needs 2 CLB ->
        // columns 4-6 rows 1 = 2 CLB + 1 DSP.
        let c = Rect::new(4, 1, 3, 1);
        let fp = Floorplan::from_regions(vec![a, c]);
        assert!(fp.validate(&p).is_empty(), "{:?}", fp.validate(&p));
        let m = fp.metrics(&p);
        // Covered frames: A = 4*36 + 2*30 = 204, C = 2*36 + 28 = 100.
        assert_eq!(m.covered_frames, 304);
        // Required frames: A = 4*36+2*30 = 204, C = 2*36+28 = 100 -> waste 0.
        assert_eq!(m.required_frames, 304);
        assert_eq!(m.wasted_frames, 0);
        // Wire length: centres (2,1.5) and (5,1) -> dx=3, dy=0.5 -> 3.5*8.
        assert!((m.wirelength - 28.0).abs() < 1e-9);
        assert_eq!(m.perimeter, (3 + 2) + (3 + 1));
        assert_eq!(m.fc_requested, 0);
        assert_eq!(m.fc_found, 0);
        assert_eq!(m.relocation_cost, 0.0);
        assert!(m.objective >= 0.0);
    }

    #[test]
    fn validation_catches_overlap_and_missing_coverage() {
        let p = small_problem();
        let fp = Floorplan::from_regions(vec![Rect::new(1, 1, 3, 2), Rect::new(2, 2, 3, 1)]);
        let issues = fp.validate(&p);
        assert!(issues.iter().any(|s| s.contains("overlaps")));
        assert!(issues.iter().any(|s| s.contains("requires")), "{issues:?}");
    }

    #[test]
    fn validation_catches_out_of_bounds_and_wrong_count() {
        let p = small_problem();
        let fp = Floorplan::from_regions(vec![Rect::new(9, 1, 3, 2), Rect::new(4, 3, 3, 1)]);
        assert!(fp.validate(&p).iter().any(|s| s.contains("outside the device")));
        let fp2 = Floorplan::from_regions(vec![Rect::new(1, 1, 3, 2)]);
        assert_eq!(fp2.validate(&p).len(), 1);
    }

    #[test]
    fn fc_area_compatibility_is_checked() {
        let mut p = small_problem();
        p.request_relocation(RelocationRequest::constraint(0, 1));
        let a = Rect::new(1, 1, 3, 2);
        let c = Rect::new(4, 1, 3, 1);
        // Columns 7-9 are CLB CLB BRAM, mirroring columns 1-3 (CLB CLB BRAM):
        // a compatible area for A placed at rows 3-4.
        let good = Rect::new(7, 3, 3, 2);
        let mut fp = Floorplan::from_regions(vec![a, c]);
        fp.fc_areas.push(FcPlacement {
            request: 0,
            region: 0,
            mode: RelocationMode::Constraint,
            rect: Some(good),
        });
        assert!(fp.validate(&p).is_empty(), "{:?}", fp.validate(&p));
        let m = fp.metrics(&p);
        assert_eq!(m.fc_requested, 1);
        assert_eq!(m.fc_found, 1);

        // A non-compatible area (wrong column types) must be flagged.
        fp.fc_areas[0].rect = Some(Rect::new(4, 3, 3, 2));
        assert!(fp.validate(&p).iter().any(|s| s.contains("not compatible")));

        // A missing constraint-mode area must be flagged.
        fp.fc_areas[0].rect = None;
        assert!(fp.validate(&p).iter().any(|s| s.contains("was not identified")));
        let m2 = fp.metrics(&p);
        assert_eq!(m2.fc_found, 0);
        assert!(m2.relocation_cost > 0.0);
    }

    #[test]
    fn occupied_and_fc_for_region() {
        let mut fp = Floorplan::from_regions(vec![Rect::new(1, 1, 2, 2)]);
        fp.fc_areas.push(FcPlacement {
            request: 0,
            region: 0,
            mode: RelocationMode::Constraint,
            rect: Some(Rect::new(5, 1, 2, 2)),
        });
        fp.fc_areas.push(FcPlacement {
            request: 0,
            region: 0,
            mode: RelocationMode::Constraint,
            rect: None,
        });
        assert_eq!(fp.occupied().len(), 2);
        assert_eq!(fp.fc_found(), 1);
        assert_eq!(fp.fc_for_region(0), vec![Rect::new(5, 1, 2, 2)]);
        assert!(fp.fc_for_region(3).is_empty());
    }
}
