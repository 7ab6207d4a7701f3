//! Reconfiguration-centric tessellation heuristic (in the spirit of \[8\]).
//!
//! Vipin & Fahmy's architecture-aware floorplanner tessellates the device
//! into reconfiguration-friendly kernels aligned with the resource columns:
//! a region never splits a resource column horizontally, so its partial
//! bitstream addresses whole configuration columns of each covered clock
//! region. The price is waste: every tile of a covered portion-row is paid
//! for even when only part of it is needed.
//!
//! The reproduction places regions greedily, most demanding first. For every
//! region it scans candidate anchors (left-to-right, top-to-bottom) and grows
//! a portion-aligned rectangle — whole portions in width, minimal rows in
//! height — until the requirement is covered, keeping the candidate with the
//! fewest wasted frames that does not overlap previously-placed regions.
//! The style is fixed: a slot is always as short as the requirement allows,
//! never stretched to the full device height.
//!
//! On an irregular fabric there are no portions to align with; the heuristic
//! degrades gracefully to arbitrary column spans (every column is its own
//! span unit) with per-rectangle tile counting, still preferring the
//! minimal-height, least-wasteful candidate.

use rfp_device::{ColumnarPartition, PortionId, Rect};
use rfp_floorplan::placement::Floorplan;
use rfp_floorplan::problem::FloorplanProblem;
use rfp_floorplan::FloorplanError;

/// Tiles of each type covered by a span of whole portions at height `h`.
fn portion_span_covers(
    partition: &ColumnarPartition,
    first: usize,
    last: usize,
    h: u32,
    req: &[(rfp_device::TileTypeId, u32)],
) -> bool {
    req.iter().all(|&(ty, need)| {
        let cols: u32 = (first..=last)
            .map(|p| {
                let portion = partition.portion(PortionId(p));
                if portion.tile_type == ty {
                    portion.width()
                } else {
                    0
                }
            })
            .sum();
        cols * h >= need
    })
}

/// Runs the tessellation heuristic.
pub fn tessellation_floorplan(problem: &FloorplanProblem) -> Result<Floorplan, FloorplanError> {
    problem.validate()?;
    let partition = &problem.partition;
    let rows = partition.rows;

    // Most demanding regions first.
    let mut order: Vec<usize> = (0..problem.regions.len()).collect();
    order.sort_by_key(|&i| {
        (u64::MAX - problem.regions[i].required_frames(partition), problem.regions[i].name.clone())
    });

    let mut placed: Vec<Option<Rect>> = vec![None; problem.regions.len()];
    let mut occupied: Vec<Rect> = Vec::new();

    for &i in &order {
        let spec = &problem.regions[i];
        let mut best: Option<(u64, Rect)> = None;
        if let Some(cp) = partition.columnar() {
            let n_portions = cp.n_portions();
            for first in 0..n_portions {
                for last in first..n_portions {
                    // Minimal number of rows covering the requirement with
                    // whole portions `first..=last`.
                    let mut h_needed = None;
                    for h in 1..=rows {
                        if portion_span_covers(cp, first, last, h, spec.tile_req()) {
                            h_needed = Some(h);
                            break;
                        }
                    }
                    let Some(h) = h_needed else { continue };
                    let x1 = cp.portion(PortionId(first)).x1;
                    let x2 = cp.portion(PortionId(last)).x2;
                    let w = x2 - x1 + 1;
                    for y in 1..=(rows - h + 1) {
                        let rect = Rect::new(x1, y, w, h);
                        if !partition.placement_legal(&rect) {
                            continue;
                        }
                        if occupied.iter().any(|o| o.overlaps(&rect)) {
                            continue;
                        }
                        let waste = partition
                            .frames_in_rect(&rect)
                            .saturating_sub(spec.required_frames(partition));
                        if best.as_ref().is_none_or(|(bw, _)| waste < *bw) {
                            best = Some((waste, rect));
                        }
                    }
                }
            }
        } else {
            // Irregular fabric: no portions, so any column span may anchor a
            // slot. Coverage depends on *which* rows the rectangle covers, so
            // the minimal height is found per anchor instead of per span.
            for x1 in 1..=partition.cols {
                for x2 in x1..=partition.cols {
                    let w = x2 - x1 + 1;
                    for y in 1..=rows {
                        let mut chosen = None;
                        for h in 1..=(rows - y + 1) {
                            let rect = Rect::new(x1, y, w, h);
                            let counts = partition.tiles_by_type_in_rect(&rect);
                            let covers = spec.tile_req().iter().all(|&(ty, need)| {
                                counts
                                    .iter()
                                    .find(|&&(t, _)| t == ty)
                                    .is_some_and(|&(_, have)| have >= need)
                            });
                            if covers {
                                chosen = Some(rect);
                                break;
                            }
                        }
                        let Some(rect) = chosen else { continue };
                        if !partition.placement_legal(&rect) {
                            continue;
                        }
                        if occupied.iter().any(|o| o.overlaps(&rect)) {
                            continue;
                        }
                        let waste = partition
                            .frames_in_rect(&rect)
                            .saturating_sub(spec.required_frames(partition));
                        if best.as_ref().is_none_or(|(bw, _)| waste < *bw) {
                            best = Some((waste, rect));
                        }
                    }
                }
            }
        }
        match best {
            Some((_, rect)) => {
                placed[i] = Some(rect);
                occupied.push(rect);
            }
            None => {
                return Err(FloorplanError::Infeasible {
                    reason: format!(
                        "tessellation heuristic could not place region `{}`",
                        spec.name
                    ),
                })
            }
        }
    }

    let floorplan =
        Floorplan::from_regions(placed.into_iter().map(|r| r.expect("all placed")).collect());
    let issues = floorplan.validate(problem);
    if issues.is_empty() {
        Ok(floorplan)
    } else {
        Err(FloorplanError::Infeasible { reason: issues.join("; ") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_device::{columnar_partition, DeviceBuilder, ResourceVec};
    use rfp_floorplan::combinatorial::{solve_combinatorial, CombinatorialConfig};
    use rfp_floorplan::engine::SolveControl;
    use rfp_floorplan::problem::RegionSpec;

    fn small_problem() -> (FloorplanProblem, rfp_device::TileTypeId, rfp_device::TileTypeId) {
        let mut b = DeviceBuilder::new("tess");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
        b.rows(4).columns(&[clb, clb, bram, clb, clb, bram, clb, clb]);
        let p = columnar_partition(&b.build().unwrap()).unwrap();
        (FloorplanProblem::new(p), clb, bram)
    }

    #[test]
    fn tessellation_produces_valid_floorplans() {
        let (mut p, clb, bram) = small_problem();
        p.add_region(RegionSpec::new("A", vec![(clb, 3), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 2)]));
        let fp = tessellation_floorplan(&p).unwrap();
        assert!(fp.validate(&p).is_empty(), "{:?}", fp.validate(&p));
    }

    #[test]
    fn regions_are_portion_aligned() {
        let (mut p, clb, bram) = small_problem();
        p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        let fp = tessellation_floorplan(&p).unwrap();
        let rect = fp.regions[0];
        // The left edge must coincide with a portion start and the right edge
        // with a portion end.
        let part = p.partition.columnar().expect("test device is columnar");
        let left = part.portion_of_col(rect.x).unwrap();
        let right = part.portion_of_col(rect.x2()).unwrap();
        assert_eq!(part.portion(left).x1, rect.x);
        assert_eq!(part.portion(right).x2, rect.x2());
    }

    #[test]
    fn tessellation_wastes_at_least_as_much_as_the_exact_engine() {
        let (mut p, clb, bram) = small_problem();
        p.add_region(RegionSpec::new("A", vec![(clb, 3), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 1), (bram, 1)]));
        let tess = tessellation_floorplan(&p).unwrap();
        let exact =
            solve_combinatorial(&p, &CombinatorialConfig::default(), &SolveControl::default())
                .unwrap();
        assert!(tess.metrics(&p).wasted_frames >= exact.best_waste.unwrap());
    }

    #[test]
    fn overfull_instances_are_rejected() {
        let (mut p, _, bram) = small_problem();
        for i in 0..5 {
            p.add_region(RegionSpec::new(format!("B{i}"), vec![(bram, 2)]));
        }
        assert!(tessellation_floorplan(&p).is_err());
    }
}
