//! ASCII rendering of floorplans.
//!
//! Used by the benchmark harness to regenerate Figures 4 and 5 of the paper
//! (the SDR2 and SDR3 floorplans) in a terminal-friendly form: one character
//! per tile, uppercase letters for reconfigurable regions, lowercase letters
//! for their free-compatible areas, `#` for forbidden areas and `.` for free
//! tiles, plus a legend and the column-type ruler.

use crate::placement::Floorplan;
use crate::problem::FloorplanProblem;
use std::fmt::Write as _;

/// Renders a floorplan as ASCII art with a legend.
pub fn render_ascii(problem: &FloorplanProblem, floorplan: &Floorplan) -> String {
    let partition = &problem.partition;
    let cols = partition.cols as usize;
    let rows = partition.rows as usize;
    let mut grid = vec![vec!['.'; cols]; rows];

    // Forbidden areas first, so regions never overwrite them (they cannot
    // overlap in a valid floorplan anyway).
    for fa in &partition.forbidden {
        for (c, r) in fa.rect.cells() {
            grid[(r - 1) as usize][(c - 1) as usize] = '#';
        }
    }

    let letter = |i: usize| -> char { (b'A' + (i % 26) as u8) as char };
    for (i, rect) in floorplan.regions.iter().enumerate() {
        for (c, r) in rect.cells() {
            grid[(r - 1) as usize][(c - 1) as usize] = letter(i);
        }
    }
    for f in &floorplan.fc_areas {
        let Some(rect) = f.rect else { continue };
        let ch = letter(f.region).to_ascii_lowercase();
        for (c, r) in rect.cells() {
            grid[(r - 1) as usize][(c - 1) as usize] = ch;
        }
    }

    let mut out = String::new();
    // Column-type ruler: the column's effective type on a columnar fabric,
    // the top-row cell's type on an irregular one (the per-row detail is in
    // the grid itself there).
    let _ = write!(out, "     ");
    for c in 1..=cols {
        let initial = {
            let t = match partition.columnar() {
                Some(cp) => cp.portion_of_col(c as u32).map(|p| cp.tid(p)).unwrap_or(0),
                None => {
                    partition.tile_type_at(c as u32, 1).map(|ty| ty.index() as u32).unwrap_or(0)
                }
            };
            char::from_digit(t, 36).unwrap_or('?')
        };
        let _ = write!(out, "{initial}");
    }
    let _ = writeln!(out, "   (column tile-type id)");
    for (ri, row) in grid.iter().enumerate() {
        let _ = write!(out, "r{:>2} |", ri + 1);
        for ch in row {
            let _ = write!(out, "{ch}");
        }
        let _ = writeln!(out, "|");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "Legend:");
    for (i, (spec, rect)) in problem.regions.iter().zip(floorplan.regions.iter()).enumerate() {
        let _ = writeln!(out, "  {} = {} {}", letter(i), spec.name, rect);
    }
    let mut per_region_counter = vec![0usize; problem.regions.len()];
    for f in &floorplan.fc_areas {
        if let Some(rect) = f.rect {
            per_region_counter[f.region] += 1;
            let _ = writeln!(
                out,
                "  {} = {} {} (free-compatible area #{})",
                letter(f.region).to_ascii_lowercase(),
                problem.regions[f.region].name,
                rect,
                per_region_counter[f.region]
            );
        }
    }
    for fa in &partition.forbidden {
        let _ = writeln!(out, "  # = forbidden area {} {}", fa.name, fa.rect);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::FcPlacement;
    use crate::problem::{FloorplanProblem, RegionSpec, RelocationMode};
    use rfp_device::{columnar_partition, DeviceBuilder, Rect, ResourceVec};

    fn setup() -> FloorplanProblem {
        let mut b = DeviceBuilder::new("render");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
        b.rows(3).columns(&[clb, clb, bram, clb, clb, clb]);
        b.forbidden("BLK", Rect::new(6, 3, 1, 1));
        let part = columnar_partition(&b.build().unwrap()).unwrap();
        let mut p = FloorplanProblem::new(part);
        p.add_region(RegionSpec::new("Alpha", vec![(clb, 2)]));
        p.add_region(RegionSpec::new("Beta", vec![(bram, 1)]));
        p
    }

    #[test]
    fn render_contains_regions_forbidden_and_legend() {
        let p = setup();
        let mut fp = Floorplan::from_regions(vec![Rect::new(1, 1, 2, 1), Rect::new(3, 2, 1, 1)]);
        fp.fc_areas.push(FcPlacement {
            request: 0,
            region: 0,
            mode: RelocationMode::Constraint,
            rect: Some(Rect::new(4, 3, 2, 1)),
        });
        let art = render_ascii(&p, &fp);
        assert!(art.contains("A"), "region A rendered");
        assert!(art.contains("B"), "region B rendered");
        assert!(art.contains("a"), "free-compatible area rendered in lowercase");
        assert!(art.contains("#"), "forbidden area rendered");
        assert!(art.contains("Alpha"));
        assert!(art.contains("Beta"));
        assert!(art.contains("free-compatible area #1"));
        assert!(art.contains("forbidden area BLK"));
        // One row line per device row.
        assert_eq!(art.lines().filter(|l| l.starts_with('r')).count(), 3);
    }

    #[test]
    fn unplaced_fc_areas_are_omitted() {
        let p = setup();
        let mut fp = Floorplan::from_regions(vec![Rect::new(1, 1, 2, 1), Rect::new(3, 2, 1, 1)]);
        fp.fc_areas.push(FcPlacement {
            request: 0,
            region: 1,
            mode: RelocationMode::Metric { weight: 1.0 },
            rect: None,
        });
        let art = render_ascii(&p, &fp);
        // No tile row may contain the lowercase marker of the missing area.
        assert!(
            art.lines().filter(|l| l.starts_with('r')).all(|l| !l.contains('b')),
            "missing area must not be drawn"
        );
        assert!(!art.contains("free-compatible area"), "no legend entry for a missing area");
    }
}
