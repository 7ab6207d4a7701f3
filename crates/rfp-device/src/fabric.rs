//! Heterogeneous tile fabrics: the canonical device partition.
//!
//! The paper's columnar partitioning (Section III-B) assumes that a region's
//! resource footprint depends only on its column span. Modern fabrics are not
//! columnar: irregular BRAM/DSP column patterns, forbidden regions and
//! multi-die boundaries break that assumption. [`FabricPartition`] models the
//! general case — a per-tile effective resource grid plus forbidden
//! rectangles and die-boundary rows that relocatable regions may not cross —
//! while keeping the columnar description as a special case: when the device
//! *is* columnar the partition carries a [`ColumnarPartition`] view so every
//! consumer (candidate enumeration, the MILP model, the IO codecs) can keep
//! the fast columnar path bit-for-bit unchanged.
//!
//! Die boundaries do **not** restrict static placement — a region may span a
//! boundary — but a bitstream cannot be relocated across one, so the
//! compatibility check ([`crate::compat::fabric_compatible`]) rejects moves
//! where either area crosses a boundary.

use crate::error::DeviceError;
use crate::forbidden::{free_rows, ForbiddenArea};
use crate::geometry::Rect;
use crate::grid::Device;
use crate::partition::{columnar_partition, ColumnarPartition};
use crate::resources::ResourceVec;
use crate::tile::TileTypeId;

/// The generalized device partition: a per-tile effective resource grid with
/// forbidden rectangles and die-boundary rows.
///
/// Constructed either from any device via [`fabric_partition`] /
/// [`fabric_partition_with_boundaries`], or from an existing
/// [`ColumnarPartition`] via `From` (which yields a *legacy columnar* fabric
/// with no die boundaries — the exact behaviour-preserving embedding).
#[derive(Debug, Clone, PartialEq)]
pub struct FabricPartition {
    /// Device name this partition was derived from.
    pub device_name: String,
    /// Number of columns of the device (`maxW`).
    pub cols: u32,
    /// Number of rows of the device (`|R|`).
    pub rows: u32,
    /// Forbidden areas (set `A`).
    pub forbidden: Vec<ForbiddenArea>,
    /// Die-boundary rows, sorted ascending. A boundary `r` separates rows `r`
    /// and `r + 1`; a rectangle crosses it iff `rect.y <= r < rect.y2()`.
    pub die_boundaries: Vec<u32>,
    /// Effective tile type of each cell after the step-1 forbidden-tile
    /// replacement, row-major: index `(row-1)*cols + (col-1)`.
    cells: Vec<TileTypeId>,
    /// The columnar view, present iff the device is columnar-partitionable.
    columnar: Option<ColumnarPartition>,
    /// Frames per tile for each registry tile-type index.
    frames_of_type: Vec<u32>,
    /// Resources per tile for each registry tile-type index.
    resources_of_type: Vec<ResourceVec>,
}

impl FabricPartition {
    #[inline]
    fn idx(&self, col: u32, row: u32) -> usize {
        ((row - 1) as usize) * self.cols as usize + (col - 1) as usize
    }

    /// Effective tile type at `(col, row)` (1-based), or `None` out of
    /// bounds. Every in-bounds cell carries a type: forbidden cells were
    /// replaced during construction (step 1 of the partitioning procedure).
    pub fn tile_type_at(&self, col: u32, row: u32) -> Option<TileTypeId> {
        if col < 1 || col > self.cols || row < 1 || row > self.rows {
            return None;
        }
        Some(self.cells[self.idx(col, row)])
    }

    /// The columnar view of this fabric, if the device is columnar.
    #[inline]
    pub fn columnar(&self) -> Option<&ColumnarPartition> {
        self.columnar.as_ref()
    }

    /// `true` when the fabric is exactly a legacy columnar device: columnar
    /// *and* without die boundaries. Consumers use this to keep the original
    /// columnar code paths (and their serialized artefacts) byte-identical.
    #[inline]
    pub fn is_columnar_legacy(&self) -> bool {
        self.columnar.is_some() && self.die_boundaries.is_empty()
    }

    /// Effective tile type of a column, when the fabric is columnar.
    pub fn column_type(&self, col: u32) -> Option<TileTypeId> {
        self.columnar.as_ref().and_then(|cp| cp.column_type(col))
    }

    /// Frames needed to configure one tile of the given type.
    pub fn frames_per_tile(&self, ty: TileTypeId) -> u32 {
        self.frames_of_type[ty.index()]
    }

    /// Resources carried by one tile of the given type.
    pub fn resources_per_tile(&self, ty: TileTypeId) -> ResourceVec {
        self.resources_of_type[ty.index()]
    }

    /// Returns `true` if the rectangle lies fully on the device.
    pub fn rect_in_bounds(&self, rect: &Rect) -> bool {
        rect.x >= 1 && rect.y >= 1 && rect.x2() <= self.cols && rect.y2() <= self.rows
    }

    /// Returns `true` if the rectangle crosses a forbidden area.
    pub fn rect_crosses_forbidden(&self, rect: &Rect) -> bool {
        self.forbidden.iter().any(|fa| fa.blocks(rect))
    }

    /// Returns `true` if the rectangle spans a die boundary. Crossing a
    /// boundary is legal for static placement but makes the area ineligible
    /// as a relocation source or target.
    pub fn rect_crosses_die_boundary(&self, rect: &Rect) -> bool {
        self.die_boundaries.iter().any(|&b| rect.y <= b && b < rect.y2())
    }

    /// Returns `true` if a rectangle is a legal region placement: in bounds
    /// and not crossing any forbidden area.
    pub fn placement_legal(&self, rect: &Rect) -> bool {
        self.rect_in_bounds(rect) && !self.rect_crosses_forbidden(rect)
    }

    /// Resources covered by a rectangle (using effective tile types).
    pub fn resources_in_rect(&self, rect: &Rect) -> ResourceVec {
        if let Some(cp) = &self.columnar {
            return cp.resources_in_rect(rect);
        }
        let mut total = ResourceVec::ZERO;
        for (c, r) in rect.cells() {
            if let Some(ty) = self.tile_type_at(c, r) {
                total += self.resources_per_tile(ty);
            }
        }
        total
    }

    /// Tiles of each type covered by a rectangle, keyed by registry index.
    pub fn tiles_by_type_in_rect(&self, rect: &Rect) -> Vec<(TileTypeId, u32)> {
        if let Some(cp) = &self.columnar {
            return cp.tiles_by_type_in_rect(rect);
        }
        let mut counts: Vec<u32> = vec![0; self.frames_of_type.len()];
        for (c, r) in rect.cells() {
            if let Some(ty) = self.tile_type_at(c, r) {
                counts[ty.index()] += 1;
            }
        }
        counts
            .into_iter()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .map(|(i, c)| (TileTypeId(i as u16), c))
            .collect()
    }

    /// Configuration frames covered by a rectangle.
    pub fn frames_in_rect(&self, rect: &Rect) -> u64 {
        if let Some(cp) = &self.columnar {
            return cp.frames_in_rect(rect);
        }
        rect.cells()
            .filter_map(|(c, r)| self.tile_type_at(c, r))
            .map(|ty| self.frames_per_tile(ty) as u64)
            .sum()
    }

    /// Usable tiles of each type, indexed by registry tile-type index: the
    /// tiles no forbidden area covers, each counted once however many areas
    /// overlap on it.
    pub fn usable_tiles_by_type(&self) -> Vec<u64> {
        if let Some(cp) = &self.columnar {
            return cp.usable_tiles_by_type();
        }
        let mut tiles = vec![0u64; self.frames_of_type.len()];
        for col in 1..=self.cols {
            for row in free_rows(&self.forbidden, col, self.rows) {
                tiles[self.cells[self.idx(col, row)].index()] += 1;
            }
        }
        tiles
    }

    /// Total usable frames on the device (excluding forbidden tiles).
    pub fn total_frames(&self) -> u64 {
        let tiles = self.usable_tiles_by_type();
        tiles.iter().zip(&self.frames_of_type).map(|(&n, &f)| n * f as u64).sum()
    }

    /// Total usable resources on the device (excluding forbidden tiles).
    pub fn total_resources(&self) -> ResourceVec {
        let tiles = self.usable_tiles_by_type();
        let per_type = tiles.iter().zip(&self.resources_of_type);
        per_type.fold(ResourceVec::ZERO, |total, (&n, r)| total + r.scaled(n as u32))
    }

    /// The raw effective cell grid, row-major. Used by the structural cache
    /// keys and fingerprints of non-columnar fabrics.
    pub fn cell_types(&self) -> &[TileTypeId] {
        &self.cells
    }
}

impl From<ColumnarPartition> for FabricPartition {
    fn from(cp: ColumnarPartition) -> Self {
        let cols = cp.cols;
        let rows = cp.rows;
        let mut cells = Vec::with_capacity(cols as usize * rows as usize);
        for _row in 1..=rows {
            for col in 1..=cols {
                cells.push(cp.column_type(col).expect("column in bounds"));
            }
        }
        FabricPartition {
            device_name: cp.device_name.clone(),
            cols,
            rows,
            forbidden: cp.forbidden.clone(),
            die_boundaries: Vec::new(),
            cells,
            frames_of_type: cp.frames_table().to_vec(),
            resources_of_type: cp.resources_table().to_vec(),
            columnar: Some(cp),
        }
    }
}

/// Partitions any device into a heterogeneous tile fabric (no die
/// boundaries). Equivalent to
/// [`fabric_partition_with_boundaries`]`(device, &[])`.
pub fn fabric_partition(device: &Device) -> Result<FabricPartition, DeviceError> {
    fabric_partition_with_boundaries(device, &[])
}

/// Partitions any device into a heterogeneous tile fabric with the given
/// die-boundary rows.
///
/// The effective grid applies step 1 of the columnar partitioning procedure
/// per cell: every tile covered by a forbidden area is replaced by the first
/// non-forbidden typed tile of the same column (the column must not be fully
/// forbidden); a typed cell keeps its own type, and an untyped cell outside
/// any forbidden area is an error. Unlike [`columnar_partition`] the column
/// need not be uniform in type.
///
/// Each boundary row `r` must satisfy `1 <= r < rows` (the boundary lies
/// between rows `r` and `r + 1`); boundaries are sorted and deduplicated.
pub fn fabric_partition_with_boundaries(
    device: &Device,
    die_boundaries: &[u32],
) -> Result<FabricPartition, DeviceError> {
    let cols = device.cols();
    let rows = device.rows();

    let mut boundaries: Vec<u32> = die_boundaries.to_vec();
    boundaries.sort_unstable();
    boundaries.dedup();
    if let Some(&bad) = boundaries.iter().find(|&&b| b < 1 || b >= rows) {
        return Err(DeviceError::InvalidDieBoundary { row: bad, rows });
    }

    let mut cells = Vec::with_capacity(cols as usize * rows as usize);
    let mut replacements: Vec<Option<TileTypeId>> = Vec::with_capacity(cols as usize);
    for col in 1..=cols {
        let replacement = (1..=rows)
            .filter(|&r| !device.is_forbidden(col, r))
            .find_map(|r| device.tile_type_at(col, r));
        replacements.push(replacement);
    }
    for row in 1..=rows {
        for col in 1..=cols {
            let forbidden_here = device.is_forbidden(col, row);
            match device.tile_type_at(col, row) {
                Some(ty) if !forbidden_here => cells.push(ty),
                Some(_) | None if forbidden_here => match replacements[(col - 1) as usize] {
                    Some(ty) => cells.push(ty),
                    None => return Err(DeviceError::ColumnFullyForbidden { col }),
                },
                Some(ty) => cells.push(ty),
                None => return Err(DeviceError::UnassignedTile { col, row }),
            }
        }
    }

    let frames_of_type: Vec<u32> = device.registry.iter().map(|(_, t)| t.frames).collect();
    let resources_of_type: Vec<ResourceVec> =
        device.registry.iter().map(|(_, t)| t.resources).collect();

    Ok(FabricPartition {
        device_name: device.name.clone(),
        cols,
        rows,
        forbidden: device.forbidden.clone(),
        die_boundaries: boundaries,
        cells,
        columnar: columnar_partition(device).ok(),
        frames_of_type,
        resources_of_type,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{xc5vfx70t, DeviceBuilder};
    use crate::grid::TileGrid;
    use crate::resources::ResourceVec;
    use crate::tile::{TileType, TileTypeRegistry};

    /// A genuinely heterogeneous 4x4 device: column 2 is BRAM on rows 1-2 and
    /// CLB on rows 3-4 (not columnar-partitionable).
    fn hetero_device() -> Device {
        let mut reg = TileTypeRegistry::new();
        let clb = reg.register(TileType::new("CLB", ResourceVec::new(1, 0, 0), 36)).unwrap();
        let bram = reg.register(TileType::new("BRAM", ResourceVec::new(0, 1, 0), 30)).unwrap();
        let mut grid = TileGrid::new(4, 4).unwrap();
        for c in 1..=4 {
            grid.fill_column(c, clb).unwrap();
        }
        grid.set(2, 1, Some(bram)).unwrap();
        grid.set(2, 2, Some(bram)).unwrap();
        Device::new("hetero-toy", reg, grid, vec![]).unwrap()
    }

    #[test]
    fn columnar_device_yields_a_legacy_fabric() {
        let d = xc5vfx70t();
        let f = fabric_partition(&d).unwrap();
        assert!(f.is_columnar_legacy());
        let cp = f.columnar().unwrap();
        assert_eq!(cp.cols, f.cols);
        // Per-cell accounting agrees with the columnar view everywhere.
        let r = Rect::new(3, 2, 5, 4);
        assert_eq!(f.frames_in_rect(&r), cp.frames_in_rect(&r));
        assert_eq!(f.resources_in_rect(&r), cp.resources_in_rect(&r));
        assert_eq!(f.tiles_by_type_in_rect(&r), cp.tiles_by_type_in_rect(&r));
        assert_eq!(f.total_frames(), cp.total_frames());
        assert_eq!(f.total_resources(), cp.total_resources());
    }

    #[test]
    fn from_columnar_partition_embeds_exactly() {
        let d = xc5vfx70t();
        let cp = columnar_partition(&d).unwrap();
        let f = FabricPartition::from(cp.clone());
        assert!(f.is_columnar_legacy());
        assert_eq!(f.columnar(), Some(&cp));
        for col in 1..=f.cols {
            for row in 1..=f.rows {
                assert_eq!(f.tile_type_at(col, row), cp.column_type(col));
            }
        }
    }

    #[test]
    fn hetero_device_is_partitioned_per_cell() {
        let d = hetero_device();
        assert!(columnar_partition(&d).is_err());
        let f = fabric_partition(&d).unwrap();
        assert!(f.columnar().is_none());
        assert!(!f.is_columnar_legacy());
        assert_eq!(f.tile_type_at(2, 1).unwrap().index(), 1);
        assert_eq!(f.tile_type_at(2, 3).unwrap().index(), 0);
        let r = Rect::new(1, 1, 2, 4);
        assert_eq!(f.resources_in_rect(&r), ResourceVec::new(6, 2, 0));
        assert_eq!(f.frames_in_rect(&r), 6 * 36 + 2 * 30);
    }

    #[test]
    fn forbidden_cells_are_replaced_per_column() {
        let mut b = DeviceBuilder::new("fab-blk");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
        b.rows(4).columns(&[clb, bram, clb, clb]);
        b.hard_block("blk", Rect::new(2, 2, 2, 2));
        let d = b.build().unwrap();
        let f = fabric_partition(&d).unwrap();
        // The BRAM column keeps its type under the block.
        assert_eq!(f.tile_type_at(2, 2).unwrap().index(), 1);
        assert_eq!(f.tile_type_at(3, 3).unwrap().index(), 0);
        assert!(f.rect_crosses_forbidden(&Rect::new(2, 2, 1, 1)));
    }

    #[test]
    fn overlapping_forbidden_areas_are_subtracted_once_per_cell() {
        let totals = |copies| {
            let base = hetero_device();
            let mut forbidden = vec![ForbiddenArea::new("blk", Rect::new(3, 1, 2, 2)); copies];
            forbidden.push(ForbiddenArea::new("overlap", Rect::new(3, 2, 1, 2)));
            let d = Device::new("hetero-copies", base.registry, base.grid, forbidden).unwrap();
            let f = fabric_partition(&d).unwrap();
            assert!(f.columnar().is_none());
            assert_eq!(f.total_frames(), d.total_frames(), "{copies} copies");
            assert_eq!(f.total_resources(), d.total_resources(), "{copies} copies");
            (f.usable_tiles_by_type(), f.total_frames(), f.total_resources())
        };
        // CLB tiles (3,1), (4,1), (3,2), (4,2) and (3,3) are forbidden.
        let once = totals(1);
        assert_eq!(once.0, vec![9, 2]);
        assert_eq!(once.1, 9 * 36 + 2 * 30);
        assert_eq!(once.2, ResourceVec::new(9, 2, 0));
        assert_eq!(totals(3), once);
        assert_eq!(totals(20), once);
    }

    #[test]
    fn die_boundaries_are_validated_and_checked() {
        let d = hetero_device();
        let f = fabric_partition_with_boundaries(&d, &[2]).unwrap();
        assert_eq!(f.die_boundaries, vec![2]);
        assert!(!f.is_columnar_legacy());
        // Boundary 2 lies between rows 2 and 3.
        assert!(f.rect_crosses_die_boundary(&Rect::new(1, 2, 2, 2)));
        assert!(f.rect_crosses_die_boundary(&Rect::new(1, 1, 1, 4)));
        assert!(!f.rect_crosses_die_boundary(&Rect::new(1, 1, 2, 2)));
        assert!(!f.rect_crosses_die_boundary(&Rect::new(1, 3, 2, 2)));
        // Static placement is unaffected by boundaries.
        assert!(f.placement_legal(&Rect::new(1, 2, 2, 2)));

        let err = fabric_partition_with_boundaries(&d, &[4]).unwrap_err();
        assert!(matches!(err, DeviceError::InvalidDieBoundary { row: 4, rows: 4 }));
        assert!(fabric_partition_with_boundaries(&d, &[0]).is_err());
    }

    #[test]
    fn boundaries_are_sorted_and_deduplicated() {
        let d = hetero_device();
        let f = fabric_partition_with_boundaries(&d, &[3, 1, 3]).unwrap();
        assert_eq!(f.die_boundaries, vec![1, 3]);
    }

    #[test]
    fn columnar_device_with_boundaries_keeps_the_columnar_view() {
        let d = xc5vfx70t();
        let f = fabric_partition_with_boundaries(&d, &[4]).unwrap();
        assert!(f.columnar().is_some());
        assert!(!f.is_columnar_legacy(), "die boundaries disqualify the legacy fast path");
        assert!(f.rect_crosses_die_boundary(&Rect::new(1, 1, 3, 8)));
    }
}
