//! Columnar partitioning (Section III-B of the paper).
//!
//! The revised partitioning procedure describes the FPGA in terms of
//! *columnar portions*: fixed rectangular areas that extend for the entire
//! device height and contain tiles of a single type. Hard blocks that would
//! break the column contiguity (e.g. the PowerPC of a Virtex-5 FX70T) are
//! declared as *forbidden areas*; their tiles are first replaced by tiles of
//! the same column (step 1) so that the partitioning can proceed, and the
//! forbidden areas are reported alongside the portions (step 6).
//!
//! The result enjoys two properties exploited by the MILP formulation:
//!
//! * **Property .3** — two adjacent columnar portions always have tiles of
//!   different types;
//! * **Property .4** — the portions can be orderly numbered from left to
//!   right.
//!
//! A [`ColumnarPartition`] is the portion view only: the paper's portion
//! model, the version-1 codecs, the fingerprints and the figure renderers
//! read it. Tile queries (rect accounting, usable totals, compatibility,
//! candidate enumeration) are answered per cell by
//! [`crate::fabric::FabricPartition`], which carries this view for columnar
//! devices.

use crate::error::DeviceError;
use crate::forbidden::ForbiddenArea;
use crate::geometry::Rect;
use crate::grid::Device;
use crate::resources::ResourceVec;
use crate::tile::TileTypeId;
use std::fmt;

/// Identifier of a portion inside a [`ColumnarPartition`].
///
/// Portions are numbered from left to right (Property .4); the zero-based
/// [`PortionId::index`] corresponds to the one-based MILP enumeration
/// `1..=|P|` via [`PortionId::number`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortionId(pub usize);

impl PortionId {
    /// Zero-based index of the portion.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }

    /// One-based portion number as used in the MILP model (left to right).
    #[inline]
    pub fn number(self) -> usize {
        self.0 + 1
    }
}

impl fmt::Display for PortionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.number())
    }
}

/// A columnar portion: a full-height span of adjacent columns with tiles of a
/// single type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Portion {
    /// Identifier (left-to-right order).
    pub id: PortionId,
    /// Leftmost column covered (1-based).
    pub x1: u32,
    /// Rightmost column covered (1-based, inclusive).
    pub x2: u32,
    /// Tile type of every tile in the portion.
    pub tile_type: TileTypeId,
}

impl Portion {
    /// Width of the portion in columns.
    #[inline]
    pub fn width(&self) -> u32 {
        self.x2 - self.x1 + 1
    }

    /// The full-height rectangle occupied by the portion.
    pub fn rect(&self, rows: u32) -> Rect {
        Rect::new(self.x1, 1, self.width(), rows)
    }
}

/// The result of the columnar partitioning procedure: the ordered portions,
/// the forbidden areas, and per-column lookup tables.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarPartition {
    /// Device name this partition was derived from.
    pub device_name: String,
    /// Number of columns of the device (`maxW`).
    pub cols: u32,
    /// Number of rows of the device (`|R|`).
    pub rows: u32,
    /// Columnar portions ordered left to right (set `P`).
    pub portions: Vec<Portion>,
    /// Forbidden areas (set `A`).
    pub forbidden: Vec<ForbiddenArea>,
    /// Effective tile type of each column after the step-1 replacement
    /// (index 0 is column 1).
    column_types: Vec<TileTypeId>,
    /// Portion index of each column (index 0 is column 1).
    col_to_portion: Vec<usize>,
    /// Dense 1-based MILP type ids (`tid`) per registry tile-type index.
    tid_of_type: Vec<Option<u32>>,
    /// Number of distinct tile types present (`nTypes`).
    n_types: u32,
    /// Frames per tile for each registry tile-type index.
    frames_of_type: Vec<u32>,
    /// Resources per tile for each registry tile-type index.
    resources_of_type: Vec<ResourceVec>,
}

impl ColumnarPartition {
    /// Number of portions (`|P|`).
    #[inline]
    pub fn n_portions(&self) -> usize {
        self.portions.len()
    }

    /// Number of distinct tile types present on the device (`nTypes`).
    #[inline]
    pub fn n_types(&self) -> u32 {
        self.n_types
    }

    /// The portion with the given id.
    pub fn portion(&self, id: PortionId) -> &Portion {
        &self.portions[id.index()]
    }

    /// The MILP parameter `tid_p`: dense 1-based identifier of the tile type
    /// of portion `p`.
    pub fn tid(&self, id: PortionId) -> u32 {
        let ty = self.portions[id.index()].tile_type;
        self.tid_of_type[ty.index()].expect("portion tile type must be registered")
    }

    /// The portion containing the given column.
    pub fn portion_of_col(&self, col: u32) -> Option<PortionId> {
        if col < 1 || col > self.cols {
            return None;
        }
        Some(PortionId(self.col_to_portion[(col - 1) as usize]))
    }

    /// Effective tile type of a column (after step-1 replacement).
    pub fn column_type(&self, col: u32) -> Option<TileTypeId> {
        if col < 1 || col > self.cols {
            return None;
        }
        Some(self.column_types[(col - 1) as usize])
    }

    /// Frames needed to configure one tile of the given type.
    pub fn frames_per_tile(&self, ty: TileTypeId) -> u32 {
        self.frames_of_type[ty.index()]
    }

    /// Portions whose x projection intersects the rectangle, together with
    /// the number of columns of the intersection (the value `sum_r l_{n,p,r} / h`).
    pub fn portions_covered(&self, rect: &Rect) -> Vec<(PortionId, u32)> {
        self.portions
            .iter()
            .filter_map(|p| {
                let lo = p.x1.max(rect.x);
                let hi = p.x2.min(rect.x2());
                if lo <= hi {
                    Some((p.id, hi - lo + 1))
                } else {
                    None
                }
            })
            .collect()
    }

    /// The per-type frames table, indexed by registry tile-type index.
    pub(crate) fn frames_table(&self) -> &[u32] {
        &self.frames_of_type
    }

    /// The per-type resources table, indexed by registry tile-type index.
    pub(crate) fn resources_table(&self) -> &[ResourceVec] {
        &self.resources_of_type
    }
}

/// Runs the columnar partitioning procedure of Section III-B on a device.
///
/// Steps:
/// 1. every tile belonging to a forbidden area (or left untyped under a hard
///    block) is replaced by a tile of the same column that does not belong to
///    any forbidden area;
/// 2. (through 5.) the device is scanned top-to-bottom, left-to-right,
///    growing maximal same-type portions first to the right and then to the
///    bottom; if a portion cannot be extended to the bottom of the FPGA the
///    device cannot be columnar-partitioned and an error is returned;
/// 6. the forbidden areas are reported by position and size.
pub fn columnar_partition(device: &Device) -> Result<ColumnarPartition, DeviceError> {
    let cols = device.cols();
    let rows = device.rows();

    // Step 1: build the effective grid with forbidden tiles replaced.
    let mut effective: Vec<Vec<TileTypeId>> = Vec::with_capacity(cols as usize);
    for col in 1..=cols {
        let mut column = Vec::with_capacity(rows as usize);
        // Find the replacement type: first non-forbidden typed tile in the column.
        let replacement = (1..=rows)
            .filter(|&r| !device.is_forbidden(col, r))
            .find_map(|r| device.tile_type_at(col, r));
        for row in 1..=rows {
            let forbidden_here = device.is_forbidden(col, row);
            match device.tile_type_at(col, row) {
                Some(ty) if !forbidden_here => column.push(ty),
                Some(_) | None if forbidden_here => match replacement {
                    Some(ty) => column.push(ty),
                    None => return Err(DeviceError::ColumnFullyForbidden { col }),
                },
                Some(ty) => column.push(ty),
                None => return Err(DeviceError::UnassignedTile { col, row }),
            }
        }
        effective.push(column);
    }

    // Steps 2-5: scan and grow portions. With the effective grid the scan
    // reduces to: every column must be uniform in type (otherwise step 4
    // fails), and adjacent uniform columns of equal type merge into one
    // portion.
    let mut column_types: Vec<TileTypeId> = Vec::with_capacity(cols as usize);
    for col in 1..=cols {
        let column = &effective[(col - 1) as usize];
        let head = column[0];
        if let Some(bad_row) = column.iter().position(|&t| t != head) {
            return Err(DeviceError::NotColumnar { col, row: bad_row as u32 + 1 });
        }
        column_types.push(head);
    }

    let mut portions: Vec<Portion> = Vec::new();
    let mut col_to_portion: Vec<usize> = vec![0; cols as usize];
    let mut col = 1u32;
    while col <= cols {
        let ty = column_types[(col - 1) as usize];
        let mut end = col;
        while end < cols && column_types[end as usize] == ty {
            end += 1;
        }
        let id = PortionId(portions.len());
        for c in col..=end {
            col_to_portion[(c - 1) as usize] = id.index();
        }
        portions.push(Portion { id, x1: col, x2: end, tile_type: ty });
        col = end + 1;
    }

    // Dense MILP type ids for the types that actually appear, numbered in
    // order of first appearance from the left.
    let max_type_index = device.registry.len();
    let mut tid_of_type: Vec<Option<u32>> = vec![None; max_type_index];
    let mut next_tid = 1u32;
    for p in &portions {
        let slot = &mut tid_of_type[p.tile_type.index()];
        if slot.is_none() {
            *slot = Some(next_tid);
            next_tid += 1;
        }
    }
    let n_types = next_tid - 1;

    let frames_of_type: Vec<u32> = device.registry.iter().map(|(_, t)| t.frames).collect();
    let resources_of_type: Vec<ResourceVec> =
        device.registry.iter().map(|(_, t)| t.resources).collect();

    Ok(ColumnarPartition {
        device_name: device.name.clone(),
        cols,
        rows,
        portions,
        forbidden: device.forbidden.clone(),
        column_types,
        col_to_portion,
        tid_of_type,
        n_types,
        frames_of_type,
        resources_of_type,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricPartition;
    use crate::grid::TileGrid;
    use crate::resources::ResourceVec;
    use crate::tile::{TileType, TileTypeRegistry};

    /// 6 columns x 4 rows, column types C C B C D C, forbidden block over
    /// columns 2-3, rows 2-3.
    fn device_with_block() -> Device {
        let mut reg = TileTypeRegistry::new();
        let clb = reg.register(TileType::new("CLB", ResourceVec::new(1, 0, 0), 36)).unwrap();
        let bram = reg.register(TileType::new("BRAM", ResourceVec::new(0, 1, 0), 30)).unwrap();
        let dsp = reg.register(TileType::new("DSP", ResourceVec::new(0, 0, 1), 28)).unwrap();
        let mut grid = TileGrid::new(6, 4).unwrap();
        let types = [clb, clb, bram, clb, dsp, clb];
        for (i, ty) in types.iter().enumerate() {
            grid.fill_column(i as u32 + 1, *ty).unwrap();
        }
        // Hard block: clear the tiles underneath to model a processor.
        let block = Rect::new(2, 2, 2, 2);
        grid.fill_rect(&block, None).unwrap();
        Device::new("toy-block", reg, grid, vec![ForbiddenArea::new("PPC", block)]).unwrap()
    }

    #[test]
    fn partition_produces_ordered_portions() {
        let d = device_with_block();
        let p = columnar_partition(&d).unwrap();
        // Column types C C B C D C -> portions [1-2 C][3 B][4 C][5 D][6 C].
        assert_eq!(p.n_portions(), 5);
        let spans: Vec<(u32, u32)> = p.portions.iter().map(|q| (q.x1, q.x2)).collect();
        assert_eq!(spans, vec![(1, 2), (3, 3), (4, 4), (5, 5), (6, 6)]);
        // Property .4: ordered left to right.
        for w in p.portions.windows(2) {
            assert!(w[0].x2 < w[1].x1);
        }
        // Property .3: adjacent portions have different types.
        for w in p.portions.windows(2) {
            assert_ne!(w[0].tile_type, w[1].tile_type);
        }
        assert_eq!(p.n_types(), 3);
        assert_eq!(p.forbidden.len(), 1);
    }

    #[test]
    fn step1_replaces_forbidden_tiles_with_column_type() {
        let d = device_with_block();
        let p = columnar_partition(&d).unwrap();
        // Columns 2 and 3 keep their original types even though rows 2-3 were
        // cleared by the hard block.
        assert_eq!(p.column_type(2), Some(TileTypeId(0)));
        assert_eq!(p.column_type(3), Some(TileTypeId(1)));
    }

    #[test]
    fn tid_is_dense_and_one_based() {
        let d = device_with_block();
        let p = columnar_partition(&d).unwrap();
        let tids: Vec<u32> = (0..p.n_portions()).map(|i| p.tid(PortionId(i))).collect();
        assert_eq!(tids, vec![1, 2, 1, 3, 1]);
        assert!(tids.iter().all(|&t| t >= 1 && t <= p.n_types()));
    }

    #[test]
    fn non_columnar_device_is_rejected() {
        let mut reg = TileTypeRegistry::new();
        let clb = reg.register(TileType::new("CLB", ResourceVec::new(1, 0, 0), 36)).unwrap();
        let bram = reg.register(TileType::new("BRAM", ResourceVec::new(0, 1, 0), 30)).unwrap();
        let mut grid = TileGrid::new(2, 3).unwrap();
        grid.fill_column(1, clb).unwrap();
        grid.fill_column(2, clb).unwrap();
        // Break column 2 contiguity without declaring a forbidden area.
        grid.set(2, 3, Some(bram)).unwrap();
        let d = Device::new("bad", reg, grid, vec![]).unwrap();
        let err = columnar_partition(&d).unwrap_err();
        assert!(matches!(err, DeviceError::NotColumnar { col: 2, row: 3 }));
    }

    #[test]
    fn fully_forbidden_column_is_rejected() {
        let mut reg = TileTypeRegistry::new();
        let clb = reg.register(TileType::new("CLB", ResourceVec::new(1, 0, 0), 36)).unwrap();
        let mut grid = TileGrid::new(2, 2).unwrap();
        grid.fill_column(1, clb).unwrap();
        // Column 2 is entirely a hard block.
        let block = Rect::new(2, 1, 1, 2);
        let d = Device::new("bad", reg, grid, vec![ForbiddenArea::new("blk", block)]).unwrap();
        let err = columnar_partition(&d).unwrap_err();
        assert!(matches!(err, DeviceError::ColumnFullyForbidden { col: 2 }));
    }

    #[test]
    fn rect_accounting_uses_effective_types() {
        let d = device_with_block();
        let p = columnar_partition(&d).unwrap();
        let r = Rect::new(1, 1, 3, 2); // columns C C B, 2 rows
        let covered = p.portions_covered(&r);
        assert_eq!(covered, vec![(PortionId(0), 2), (PortionId(1), 1)]);
        // The fabric built from this view counts the replaced tiles under
        // the block by their column type.
        let f = FabricPartition::from(p);
        assert_eq!(f.resources_in_rect(&r), ResourceVec::new(4, 2, 0));
        assert_eq!(f.frames_in_rect(&r), 4 * 36 + 2 * 30);
        let under_block = Rect::new(2, 2, 2, 2); // columns C B, rows 2-3
        assert_eq!(f.resources_in_rect(&under_block), ResourceVec::new(2, 2, 0));
        assert_eq!(
            f.tiles_by_type_in_rect(&under_block),
            vec![(TileTypeId(0), 2), (TileTypeId(1), 2)]
        );
    }

    #[test]
    fn placement_legality_checks_bounds_and_forbidden() {
        let f = FabricPartition::from(columnar_partition(&device_with_block()).unwrap());
        assert!(f.placement_legal(&Rect::new(4, 1, 3, 4)));
        assert!(!f.placement_legal(&Rect::new(2, 2, 1, 1)), "crosses the PPC block");
        assert!(!f.placement_legal(&Rect::new(6, 1, 2, 2)), "out of bounds to the right");
        assert!(!f.placement_legal(&Rect::new(1, 4, 1, 2)), "out of bounds at the bottom");
    }

    #[test]
    fn totals_exclude_forbidden_tiles() {
        let d = device_with_block();
        let f = FabricPartition::from(columnar_partition(&d).unwrap());
        assert_eq!(f.total_resources(), d.total_resources());
        assert_eq!(f.total_frames(), d.total_frames());
    }

    /// The tiny golden's device (`C C B C C B C`, 3 rows) with `copies`
    /// copies of the forbidden area `{7,1,1,2}` and one area over columns
    /// 6-7 of row 2 that overlaps them.
    fn tiny_with_forbidden_copies(copies: usize) -> Device {
        let mut reg = TileTypeRegistry::new();
        let clb = reg.register(TileType::new("CLB", ResourceVec::new(1, 0, 0), 36)).unwrap();
        let bram = reg.register(TileType::new("BRAM", ResourceVec::new(0, 1, 0), 30)).unwrap();
        let mut grid = TileGrid::new(7, 3).unwrap();
        for (i, ty) in [clb, clb, bram, clb, clb, bram, clb].into_iter().enumerate() {
            grid.fill_column(i as u32 + 1, ty).unwrap();
        }
        let mut forbidden = vec![ForbiddenArea::new("static", Rect::new(7, 1, 1, 2)); copies];
        forbidden.push(ForbiddenArea::new("overlap", Rect::new(6, 2, 2, 1)));
        Device::new("tiny-copies", reg, grid, forbidden).unwrap()
    }

    #[test]
    fn overlapping_forbidden_areas_are_subtracted_once() {
        let totals = |copies| {
            let d = tiny_with_forbidden_copies(copies);
            let p = FabricPartition::from(columnar_partition(&d).unwrap());
            assert_eq!(p.total_frames(), d.total_frames(), "{copies} copies");
            assert_eq!(p.total_resources(), d.total_resources(), "{copies} copies");
            (p.usable_tiles_by_type(), p.total_frames(), p.total_resources())
        };
        // Rows 1-2 of column 7 and row 2 of column 6: two CLB tiles and one
        // BRAM tile are forbidden.
        let once = totals(1);
        assert_eq!(once.0, vec![13, 5]);
        assert_eq!(once.1, 13 * 36 + 5 * 30);
        assert_eq!(once.2, ResourceVec::new(13, 5, 0));
        assert_eq!(totals(3), once);
        assert_eq!(totals(20), once);
    }

    #[test]
    fn portion_lookup_by_column() {
        let d = device_with_block();
        let p = columnar_partition(&d).unwrap();
        assert_eq!(p.portion_of_col(1), Some(PortionId(0)));
        assert_eq!(p.portion_of_col(2), Some(PortionId(0)));
        assert_eq!(p.portion_of_col(3), Some(PortionId(1)));
        assert_eq!(p.portion_of_col(6), Some(PortionId(4)));
        assert_eq!(p.portion_of_col(7), None);
        assert_eq!(p.portion_of_col(0), None);
    }

    #[test]
    fn portion_geometry_helpers() {
        let d = device_with_block();
        let p = columnar_partition(&d).unwrap();
        let first = p.portion(PortionId(0));
        assert_eq!(first.width(), 2);
        assert_eq!(first.rect(p.rows), Rect::new(1, 1, 2, 4));
        assert_eq!(PortionId(0).number(), 1);
        assert_eq!(PortionId(0).to_string(), "P1");
    }
}
