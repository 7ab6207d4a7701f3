//! Area compatibility (Definitions .1 and .2, Figure 1).
//!
//! Two areas are **compatible** if they have the same shape, size and
//! relative positioning of tiles of the same type: a bitstream generated for
//! one can, in principle, be moved to the other by only rewriting frame
//! addresses. An area is **free-compatible** with respect to another if it is
//! compatible *and* does not overlap any area assigned to a reconfigurable
//! region or any other free-compatible area.
//!
//! Every consumer (the floorplanner, its validators, the bitstream
//! relocation filter and the runtime) asks [`fabric_compatible`] and
//! [`enumerate_free_compatible`], which compare the effective cell grid of a
//! [`FabricPartition`] row by row. Columnar devices need no path of their
//! own: their rows are equal, so the first row decides. [`areas_compatible`]
//! repeats the check on the raw tile grid of a [`Device`]; the Figure 1
//! example and the tests use it as the oracle.

use crate::fabric::FabricPartition;
use crate::geometry::Rect;
use crate::grid::Device;
use std::fmt;

/// The outcome of a compatibility check, carrying the reason for a mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompatReport {
    /// The two areas are compatible.
    Compatible,
    /// The areas have different widths or heights.
    ShapeMismatch {
        /// Size of the first area (w, h).
        a: (u32, u32),
        /// Size of the second area (w, h).
        b: (u32, u32),
    },
    /// A tile at the given relative offset has a different type in the two
    /// areas (or is missing in one of them).
    TileMismatch {
        /// Column offset (0-based) of the first mismatching tile.
        dx: u32,
        /// Row offset (0-based) of the first mismatching tile.
        dy: u32,
    },
    /// One of the areas lies (partially) outside the device.
    OutOfBounds,
    /// One of the areas crosses a forbidden area.
    CrossesForbidden,
    /// One of the areas spans a die boundary; bitstreams cannot be relocated
    /// across dies, so such areas are never relocation-compatible.
    CrossesDieBoundary,
}

impl CompatReport {
    /// Returns `true` for [`CompatReport::Compatible`].
    pub fn is_compatible(&self) -> bool {
        matches!(self, CompatReport::Compatible)
    }
}

impl fmt::Display for CompatReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompatReport::Compatible => write!(f, "compatible"),
            CompatReport::ShapeMismatch { a, b } => {
                write!(f, "shape mismatch: {}x{} vs {}x{}", a.0, a.1, b.0, b.1)
            }
            CompatReport::TileMismatch { dx, dy } => {
                write!(f, "tile type mismatch at relative offset (+{dx}, +{dy})")
            }
            CompatReport::OutOfBounds => write!(f, "area lies outside the device"),
            CompatReport::CrossesForbidden => write!(f, "area crosses a forbidden area"),
            CompatReport::CrossesDieBoundary => write!(f, "area spans a die boundary"),
        }
    }
}

/// General 2-D compatibility check on the raw tile grid (Definition .1).
///
/// Checks shape, size and the tile type at every relative position. Areas
/// crossing forbidden areas are never compatible, because their configuration
/// data cannot be owned by a reconfigurable module.
pub fn areas_compatible(device: &Device, a: &Rect, b: &Rect) -> CompatReport {
    if !device.grid.rect_in_bounds(a) || !device.grid.rect_in_bounds(b) {
        return CompatReport::OutOfBounds;
    }
    if device.rect_crosses_forbidden(a) || device.rect_crosses_forbidden(b) {
        return CompatReport::CrossesForbidden;
    }
    if a.w != b.w || a.h != b.h {
        return CompatReport::ShapeMismatch { a: (a.w, a.h), b: (b.w, b.h) };
    }
    for dy in 0..a.h {
        for dx in 0..a.w {
            let ta = device.tile_type_at(a.x + dx, a.y + dy);
            let tb = device.tile_type_at(b.x + dx, b.y + dy);
            if ta != tb {
                return CompatReport::TileMismatch { dx, dy };
            }
        }
    }
    CompatReport::Compatible
}

/// Fabric compatibility check (Definition .1).
///
/// Runs the checks of the grid oracle [`areas_compatible`] in the same order
/// and reports the same first mismatching offset, on the effective cell
/// grid, with one fabric-only rule added: areas spanning a **die boundary**
/// are never relocation-compatible ([`CompatReport::CrossesDieBoundary`]).
pub fn fabric_compatible(partition: &FabricPartition, a: &Rect, b: &Rect) -> CompatReport {
    if !partition.rect_in_bounds(a) || !partition.rect_in_bounds(b) {
        return CompatReport::OutOfBounds;
    }
    if partition.rect_crosses_forbidden(a) || partition.rect_crosses_forbidden(b) {
        return CompatReport::CrossesForbidden;
    }
    if partition.rect_crosses_die_boundary(a) || partition.rect_crosses_die_boundary(b) {
        return CompatReport::CrossesDieBoundary;
    }
    if a.w != b.w || a.h != b.h {
        return CompatReport::ShapeMismatch { a: (a.w, a.h), b: (b.w, b.h) };
    }
    match tile_mismatch(partition, a, b) {
        Some((dx, dy)) => CompatReport::TileMismatch { dx, dy },
        None => CompatReport::Compatible,
    }
}

/// First relative offset `(dx, dy)`, in row-major order, at which two
/// in-bounds areas of equal shape carry different tile types, or `None` when
/// they match everywhere.
fn tile_mismatch(partition: &FabricPartition, a: &Rect, b: &Rect) -> Option<(u32, u32)> {
    (0..a.h).find_map(|dy| {
        let ra = partition.row_slice(a.x, a.y + dy, a.w);
        let rb = partition.row_slice(b.x, b.y + dy, b.w);
        ra.iter().zip(rb).position(|(ta, tb)| ta != tb).map(|dx| (dx as u32, dy))
    })
}

/// Free-compatibility check (Definition .2).
///
/// `candidate` is free-compatible with respect to `source` if the two areas
/// are fabric-compatible and `candidate` does not overlap any of the
/// `occupied` rectangles (areas assigned to reconfigurable regions or other
/// free-compatible areas).
pub fn free_compatible(
    partition: &FabricPartition,
    source: &Rect,
    candidate: &Rect,
    occupied: &[Rect],
) -> bool {
    fabric_compatible(partition, source, candidate).is_compatible()
        && !occupied.iter().any(|o| o.overlaps(candidate))
}

/// Enumerates every placement of an area free-compatible with `source`,
/// excluding `source` itself and any placement overlapping `occupied`.
///
/// Candidates are returned in row-major order (top-to-bottom, left-to-right
/// of their top-left corner). The result is exactly the positions `c` of the
/// device with `free_compatible(partition, source, &c, occupied)`, but the
/// checks on `source` alone (bounds, forbidden areas, die boundaries) run
/// once, the die-boundary check once per row, and positions are generated in
/// bounds with the source's shape, so neither is re-checked.
pub fn enumerate_free_compatible(
    partition: &FabricPartition,
    source: &Rect,
    occupied: &[Rect],
) -> Vec<Rect> {
    let mut out = Vec::new();
    if source.w > partition.cols
        || source.h > partition.rows
        || !partition.rect_in_bounds(source)
        || partition.rect_crosses_forbidden(source)
        || partition.rect_crosses_die_boundary(source)
    {
        return out;
    }
    for y in 1..=(partition.rows - source.h + 1) {
        if partition.rect_crosses_die_boundary(&Rect::new(1, y, source.w, source.h)) {
            continue;
        }
        for x in 1..=(partition.cols - source.w + 1) {
            let candidate = Rect::new(x, y, source.w, source.h);
            if candidate == *source
                || partition.rect_crosses_forbidden(&candidate)
                || occupied.iter().any(|o| o.overlaps(&candidate))
            {
                continue;
            }
            if tile_mismatch(partition, source, &candidate).is_none() {
                out.push(candidate);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::figure1_device;
    use crate::forbidden::ForbiddenArea;
    use crate::grid::{Device, TileGrid};
    use crate::resources::ResourceVec;
    use crate::tile::{TileType, TileTypeRegistry};

    /// 6 columns x 6 rows, column types alternating Blue Green Blue Green Blue Green.
    fn striped_device() -> Device {
        figure1_device()
    }

    #[test]
    fn figure1_a_b_compatible_a_c_not() {
        // Reproduces the qualitative content of Figure 1: areas A and B are
        // compatible (same relative column types), A and C are not (the first
        // column type differs).
        let d = striped_device();
        let a = Rect::new(1, 1, 2, 2);
        let b = Rect::new(3, 4, 2, 2);
        let c = Rect::new(2, 1, 2, 2);
        assert!(areas_compatible(&d, &a, &b).is_compatible());
        assert_eq!(areas_compatible(&d, &a, &c), CompatReport::TileMismatch { dx: 0, dy: 0 });
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let d = striped_device();
        let a = Rect::new(1, 1, 2, 2);
        let b = Rect::new(1, 4, 2, 3);
        assert_eq!(
            areas_compatible(&d, &a, &b),
            CompatReport::ShapeMismatch { a: (2, 2), b: (2, 3) }
        );
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let d = striped_device();
        let a = Rect::new(1, 1, 2, 2);
        let b = Rect::new(6, 6, 2, 2);
        assert_eq!(areas_compatible(&d, &a, &b), CompatReport::OutOfBounds);
    }

    #[test]
    fn forbidden_crossing_is_reported() {
        let mut reg = TileTypeRegistry::new();
        let clb = reg.register(TileType::new("CLB", ResourceVec::new(1, 0, 0), 36)).unwrap();
        let mut grid = TileGrid::new(4, 4).unwrap();
        for c in 1..=4 {
            grid.fill_column(c, clb).unwrap();
        }
        let d =
            Device::new("fb", reg, grid, vec![ForbiddenArea::new("blk", Rect::new(3, 3, 1, 1))])
                .unwrap();
        let a = Rect::new(1, 1, 2, 2);
        let b = Rect::new(3, 3, 2, 2);
        assert_eq!(areas_compatible(&d, &a, &b), CompatReport::CrossesForbidden);
    }

    /// The fabric check on a columnar device gives the grid oracle's full
    /// report (offsets included) for areas of mixed shapes.
    #[test]
    fn columnar_check_agrees_with_grid_check_on_columnar_devices() {
        let d = striped_device();
        let f = crate::fabric::fabric_partition(&d).unwrap();
        let rects = [
            Rect::new(1, 1, 2, 2),
            Rect::new(3, 4, 2, 2),
            Rect::new(2, 1, 2, 2),
            Rect::new(5, 2, 2, 3),
            Rect::new(1, 3, 3, 2),
            Rect::new(6, 6, 2, 2),
        ];
        for a in &rects {
            for b in &rects {
                assert_eq!(
                    fabric_compatible(&f, a, b),
                    areas_compatible(&d, a, b),
                    "disagreement for {a} vs {b}"
                );
            }
        }
    }

    /// Every pair of 2x3 areas of a columnar device with a hard block,
    /// out-of-bounds positions included: the fabric check reports what the
    /// grid oracle reports, first mismatching offset included.
    #[test]
    fn fabric_check_matches_the_grid_oracle_on_columnar_devices() {
        let mut reg = TileTypeRegistry::new();
        let clb = reg.register(TileType::new("CLB", ResourceVec::new(1, 0, 0), 36)).unwrap();
        let bram = reg.register(TileType::new("BRAM", ResourceVec::new(0, 1, 0), 30)).unwrap();
        let mut grid = TileGrid::new(6, 5).unwrap();
        for (c, ty) in [clb, bram, clb, clb, bram, clb].into_iter().enumerate() {
            grid.fill_column(c as u32 + 1, ty).unwrap();
        }
        let blk = vec![ForbiddenArea::new("blk", Rect::new(4, 4, 1, 1))];
        let d = Device::new("striped-blk", reg, grid, blk).unwrap();
        let f = crate::fabric::fabric_partition(&d).unwrap();
        assert!(f.columnar().is_some());
        let mut mismatches = 0;
        for ax in 1..=6u32 {
            for ay in 1..=5u32 {
                for bx in 1..=6u32 {
                    for by in 1..=5u32 {
                        let a = Rect::new(ax, ay, 3, 2);
                        let b = Rect::new(bx, by, 3, 2);
                        let report = fabric_compatible(&f, &a, &b);
                        mismatches += usize::from(matches!(
                            report,
                            CompatReport::TileMismatch { dx, .. } if dx > 0
                        ));
                        assert_eq!(report, areas_compatible(&d, &a, &b), "{a} vs {b}");
                    }
                }
            }
        }
        assert!(mismatches > 0, "some pairs must first differ past column 0");
    }

    #[test]
    fn die_boundary_blocks_relocation_but_not_identity_of_report_order() {
        let d = striped_device();
        let f = crate::fabric::fabric_partition_with_boundaries(&d, &[3]).unwrap();
        let a = Rect::new(1, 1, 2, 2); // above the boundary
        let b = Rect::new(3, 4, 2, 2); // below the boundary
        assert!(fabric_compatible(&f, &a, &b).is_compatible());
        // A source spanning rows 3-4 crosses the boundary between rows 3 and 4.
        let crossing = Rect::new(1, 3, 2, 2);
        assert_eq!(fabric_compatible(&f, &crossing, &a), CompatReport::CrossesDieBoundary);
        assert_eq!(fabric_compatible(&f, &a, &crossing), CompatReport::CrossesDieBoundary);
        // Out-of-bounds and forbidden checks still take precedence.
        let oob = Rect::new(6, 6, 2, 2);
        assert_eq!(fabric_compatible(&f, &crossing, &oob), CompatReport::OutOfBounds);
    }

    #[test]
    fn free_compatible_respects_occupied_areas() {
        let d = striped_device();
        let p = crate::fabric::fabric_partition(&d).unwrap();
        let source = Rect::new(1, 1, 2, 2);
        let target = Rect::new(3, 4, 2, 2);
        assert!(free_compatible(&p, &source, &target, &[]));
        // Another region sitting on the target makes it non-free.
        let blocker = Rect::new(4, 5, 2, 2);
        assert!(!free_compatible(&p, &source, &target, &[blocker]));
        // A blocker elsewhere does not interfere.
        let elsewhere = Rect::new(5, 1, 2, 2);
        assert!(free_compatible(&p, &source, &target, &[elsewhere]));
    }

    #[test]
    fn enumeration_matches_pairwise_checks() {
        let d = striped_device();
        let p = crate::fabric::fabric_partition(&d).unwrap();
        let source = Rect::new(1, 1, 2, 2);
        let occupied = [source, Rect::new(5, 1, 2, 2)];
        let found = enumerate_free_compatible(&p, &source, &occupied);
        assert!(!found.is_empty());
        for cand in &found {
            assert!(free_compatible(&p, &source, cand, &occupied));
            assert_ne!(cand, &source);
        }
        // Every free-compatible placement is found: cross-check with a brute
        // force scan.
        let mut brute = Vec::new();
        for y in 1..=(p.rows - source.h + 1) {
            for x in 1..=(p.cols - source.w + 1) {
                let c = Rect::new(x, y, source.w, source.h);
                if c != source && free_compatible(&p, &source, &c, &occupied) {
                    brute.push(c);
                }
            }
        }
        assert_eq!(found, brute);
    }

    #[test]
    fn oversized_source_has_no_candidates() {
        let d = striped_device();
        let p = crate::fabric::fabric_partition(&d).unwrap();
        let source = Rect::new(1, 1, 6, 6);
        assert!(enumerate_free_compatible(&p, &source, &[]).is_empty());
    }

    #[test]
    fn report_display_is_informative() {
        assert_eq!(CompatReport::Compatible.to_string(), "compatible");
        assert!(CompatReport::TileMismatch { dx: 1, dy: 0 }.to_string().contains("(+1, +0)"));
        assert!(CompatReport::ShapeMismatch { a: (2, 2), b: (3, 2) }
            .to_string()
            .contains("2x2 vs 3x2"));
    }
}
