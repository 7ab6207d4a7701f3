//! The tile grid and the full device description.

use crate::error::DeviceError;
use crate::forbidden::ForbiddenArea;
use crate::geometry::Rect;
use crate::resources::ResourceVec;
use crate::tile::{TileTypeId, TileTypeRegistry};

/// A rectangular grid of tiles.
///
/// Every cell either carries a [`TileTypeId`] or is empty (`None`), which is
/// used for cells occupied by hard blocks (embedded processors, PCIe cores)
/// that carry no reconfigurable resources. Coordinates are 1-based: columns
/// `1..=cols` left to right, rows `1..=rows` top to bottom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileGrid {
    cols: u32,
    rows: u32,
    /// Row-major cell storage: index `(row-1)*cols + (col-1)`.
    cells: Vec<Option<TileTypeId>>,
}

impl TileGrid {
    /// Creates an empty grid with the given dimensions.
    pub fn new(cols: u32, rows: u32) -> Result<Self, DeviceError> {
        if cols == 0 || rows == 0 {
            return Err(DeviceError::EmptyGrid);
        }
        Ok(TileGrid { cols, rows, cells: vec![None; cols as usize * rows as usize] })
    }

    /// Number of columns (`maxW` in the MILP model).
    #[inline]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of rows (`|R|` in the MILP model).
    #[inline]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Returns `true` if the 1-based coordinate lies inside the grid.
    #[inline]
    pub fn in_bounds(&self, col: u32, row: u32) -> bool {
        col >= 1 && col <= self.cols && row >= 1 && row <= self.rows
    }

    /// Returns `true` if the rectangle lies fully inside the grid.
    #[inline]
    pub fn rect_in_bounds(&self, rect: &Rect) -> bool {
        rect.x >= 1 && rect.y >= 1 && rect.x2() <= self.cols && rect.y2() <= self.rows
    }

    fn idx(&self, col: u32, row: u32) -> usize {
        ((row - 1) as usize) * self.cols as usize + (col - 1) as usize
    }

    /// Reads the tile type at `(col, row)`.
    pub fn get(&self, col: u32, row: u32) -> Result<Option<TileTypeId>, DeviceError> {
        if !self.in_bounds(col, row) {
            return Err(DeviceError::OutOfBounds { col, row, cols: self.cols, rows: self.rows });
        }
        Ok(self.cells[self.idx(col, row)])
    }

    /// Writes the tile type at `(col, row)`.
    pub fn set(&mut self, col: u32, row: u32, ty: Option<TileTypeId>) -> Result<(), DeviceError> {
        if !self.in_bounds(col, row) {
            return Err(DeviceError::OutOfBounds { col, row, cols: self.cols, rows: self.rows });
        }
        let i = self.idx(col, row);
        self.cells[i] = ty;
        Ok(())
    }

    /// Fills an entire column with one tile type.
    pub fn fill_column(&mut self, col: u32, ty: TileTypeId) -> Result<(), DeviceError> {
        for row in 1..=self.rows {
            self.set(col, row, Some(ty))?;
        }
        Ok(())
    }

    /// Fills a rectangle with one tile type (or clears it with `None`).
    pub fn fill_rect(&mut self, rect: &Rect, ty: Option<TileTypeId>) -> Result<(), DeviceError> {
        if !self.rect_in_bounds(rect) {
            return Err(DeviceError::OutOfBounds {
                col: rect.x2(),
                row: rect.y2(),
                cols: self.cols,
                rows: self.rows,
            });
        }
        for (c, r) in rect.cells() {
            let i = self.idx(c, r);
            self.cells[i] = ty;
        }
        Ok(())
    }

    /// Iterates over all `(col, row, tile_type)` cells, row-major.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, Option<TileTypeId>)> + '_ {
        (1..=self.rows)
            .flat_map(move |r| (1..=self.cols).map(move |c| (c, r, self.cells[self.idx(c, r)])))
    }
}

/// A complete device description: tile-type registry, tile grid and the list
/// of forbidden areas.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Human-readable device name (e.g. `"xc5vfx70t"`).
    pub name: String,
    /// Registry of tile types present on the device.
    pub registry: TileTypeRegistry,
    /// The tile grid.
    pub grid: TileGrid,
    /// Forbidden areas that regions and free-compatible areas must not cross.
    pub forbidden: Vec<ForbiddenArea>,
}

impl Device {
    /// Assembles and validates a device description.
    ///
    /// Validation checks that every referenced tile type is registered, that
    /// forbidden areas lie inside the grid, and that every cell without a tile
    /// type is covered by a forbidden area (hard blocks must be declared).
    pub fn new(
        name: impl Into<String>,
        registry: TileTypeRegistry,
        grid: TileGrid,
        forbidden: Vec<ForbiddenArea>,
    ) -> Result<Self, DeviceError> {
        let device = Device { name: name.into(), registry, grid, forbidden };
        device.validate()?;
        Ok(device)
    }

    /// Re-runs the construction-time validation.
    pub fn validate(&self) -> Result<(), DeviceError> {
        for fa in &self.forbidden {
            if !self.grid.rect_in_bounds(&fa.rect) {
                return Err(DeviceError::ForbiddenOutOfBounds { name: fa.name.clone() });
            }
        }
        for (col, row, ty) in self.grid.iter() {
            match ty {
                Some(id) => self.registry.validate(id)?,
                None => {
                    if !self.is_forbidden(col, row) {
                        return Err(DeviceError::UnassignedTile { col, row });
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> u32 {
        self.grid.cols()
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> u32 {
        self.grid.rows()
    }

    /// Tile type at `(col, row)`, if the cell carries one.
    pub fn tile_type_at(&self, col: u32, row: u32) -> Option<TileTypeId> {
        self.grid.get(col, row).ok().flatten()
    }

    /// Returns `true` if `(col, row)` is covered by any forbidden area.
    pub fn is_forbidden(&self, col: u32, row: u32) -> bool {
        self.forbidden.iter().any(|fa| fa.covers(col, row))
    }

    /// Returns `true` if the rectangle crosses any forbidden area.
    pub fn rect_crosses_forbidden(&self, rect: &Rect) -> bool {
        self.forbidden.iter().any(|fa| fa.blocks(rect))
    }

    /// Total reconfigurable resources of the device, excluding tiles covered
    /// by forbidden areas.
    pub fn total_resources(&self) -> ResourceVec {
        let mut total = ResourceVec::ZERO;
        for (col, row, ty) in self.grid.iter() {
            if self.is_forbidden(col, row) {
                continue;
            }
            if let Some(id) = ty {
                total += self.registry.expect(id).resources;
            }
        }
        total
    }

    /// Total configuration frames of the usable (non-forbidden) tiles.
    pub fn total_frames(&self) -> u64 {
        let mut total = 0u64;
        for (col, row, ty) in self.grid.iter() {
            if self.is_forbidden(col, row) {
                continue;
            }
            if let Some(id) = ty {
                total += self.registry.expect(id).frames as u64;
            }
        }
        total
    }

    /// Number of usable (typed and non-forbidden) tiles.
    pub fn usable_tiles(&self) -> u64 {
        self.grid.iter().filter(|(c, r, ty)| ty.is_some() && !self.is_forbidden(*c, *r)).count()
            as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceVec;
    use crate::tile::TileType;

    fn small_device() -> Device {
        let mut reg = TileTypeRegistry::new();
        let clb = reg.register(TileType::new("CLB", ResourceVec::new(1, 0, 0), 36)).unwrap();
        let bram = reg.register(TileType::new("BRAM", ResourceVec::new(0, 1, 0), 30)).unwrap();
        let mut grid = TileGrid::new(4, 3).unwrap();
        for col in 1..=4 {
            let ty = if col == 3 { bram } else { clb };
            grid.fill_column(col, ty).unwrap();
        }
        Device::new("toy", reg, grid, vec![]).unwrap()
    }

    #[test]
    fn grid_rejects_degenerate_dimensions() {
        assert!(matches!(TileGrid::new(0, 3), Err(DeviceError::EmptyGrid)));
        assert!(matches!(TileGrid::new(3, 0), Err(DeviceError::EmptyGrid)));
    }

    #[test]
    fn grid_get_set_roundtrip_and_bounds() {
        let mut grid = TileGrid::new(3, 2).unwrap();
        assert_eq!(grid.get(1, 1).unwrap(), None);
        grid.set(2, 2, Some(TileTypeId(0))).unwrap();
        assert_eq!(grid.get(2, 2).unwrap(), Some(TileTypeId(0)));
        assert!(grid.get(4, 1).is_err());
        assert!(grid.set(0, 1, None).is_err());
    }

    #[test]
    fn device_counts_resources_and_frames() {
        let d = small_device();
        // 3 CLB columns x 3 rows = 9 CLB tiles, 1 BRAM column x 3 rows = 3 BRAM tiles.
        assert_eq!(d.total_resources(), ResourceVec::new(9, 3, 0));
        assert_eq!(d.total_frames(), 9 * 36 + 3 * 30);
        assert_eq!(d.usable_tiles(), 12);
    }

    #[test]
    fn forbidden_area_excluded_from_totals() {
        let mut d = small_device();
        d.forbidden.push(ForbiddenArea::new("blk", Rect::new(1, 1, 2, 1)));
        d.validate().unwrap();
        assert_eq!(d.total_resources(), ResourceVec::new(7, 3, 0));
        assert_eq!(d.usable_tiles(), 10);
        assert!(d.is_forbidden(1, 1));
        assert!(!d.is_forbidden(1, 2));
        assert!(d.rect_crosses_forbidden(&Rect::new(2, 1, 1, 3)));
        assert!(!d.rect_crosses_forbidden(&Rect::new(3, 1, 2, 3)));
    }

    #[test]
    fn unassigned_cell_outside_forbidden_is_rejected() {
        let mut reg = TileTypeRegistry::new();
        let clb = reg.register(TileType::new("CLB", ResourceVec::new(1, 0, 0), 36)).unwrap();
        let mut grid = TileGrid::new(2, 2).unwrap();
        grid.fill_column(1, clb).unwrap();
        // Column 2 left empty and not declared forbidden.
        let err = Device::new("bad", reg.clone(), grid.clone(), vec![]).unwrap_err();
        assert!(matches!(err, DeviceError::UnassignedTile { col: 2, .. }));
        // Declaring the hole as a forbidden area makes the device valid.
        let ok =
            Device::new("good", reg, grid, vec![ForbiddenArea::new("hole", Rect::new(2, 1, 1, 2))]);
        assert!(ok.is_ok());
    }

    #[test]
    fn forbidden_out_of_bounds_is_rejected() {
        let d = small_device();
        let err = Device::new(
            "bad",
            d.registry.clone(),
            d.grid.clone(),
            vec![ForbiddenArea::new("oob", Rect::new(4, 3, 2, 2))],
        )
        .unwrap_err();
        assert!(matches!(err, DeviceError::ForbiddenOutOfBounds { .. }));
    }

    #[test]
    fn unknown_tile_type_is_rejected() {
        let d = small_device();
        let mut grid = d.grid.clone();
        grid.set(1, 1, Some(TileTypeId(42))).unwrap();
        let err = Device::new("bad", d.registry.clone(), grid, vec![]).unwrap_err();
        assert!(matches!(err, DeviceError::UnknownTileType(42)));
    }

    #[test]
    fn grid_iter_covers_every_cell_once() {
        let d = small_device();
        assert_eq!(d.grid.iter().count(), 12);
    }
}
