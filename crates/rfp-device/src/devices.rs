//! Device library and builder.
//!
//! Provides:
//!
//! * [`DeviceBuilder`] — a small fluent API for describing columnar devices
//!   (one tile type per column) with optional hard blocks;
//! * [`xc5vfx70t`] — the Virtex-5 FX70T model used by the paper's
//!   evaluation: 8 tile rows (one per clock region), 42 resource columns
//!   (35 CLB, 5 BRAM, 2 DSP), frame weights 36/30/28 per tile, and a
//!   PowerPC 440 hard block in the centre of the die modelled as a forbidden
//!   area;
//! * [`figure1_device`] and [`figure2_device`] — small devices reproducing
//!   the illustrative examples of Figures 1 and 2;
//! * [`SyntheticSpec`] — parameterised synthetic columnar devices for
//!   scaling studies.

use crate::error::DeviceError;
use crate::forbidden::ForbiddenArea;
use crate::geometry::Rect;
use crate::grid::{Device, TileGrid};
use crate::resources::ResourceVec;
use crate::tile::{TileType, TileTypeId, TileTypeRegistry};

/// Fluent builder for columnar devices.
///
/// ```
/// use rfp_device::{DeviceBuilder, ResourceVec};
///
/// let mut b = DeviceBuilder::new("demo");
/// let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
/// let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
/// b.rows(4).columns(&[clb, clb, bram, clb]);
/// let device = b.build().unwrap();
/// assert_eq!(device.cols(), 4);
/// assert_eq!(device.rows(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct DeviceBuilder {
    name: String,
    registry: TileTypeRegistry,
    rows: u32,
    columns: Vec<TileTypeId>,
    forbidden: Vec<ForbiddenArea>,
    hard_blocks: Vec<Rect>,
}

impl DeviceBuilder {
    /// Starts a new device description.
    pub fn new(name: impl Into<String>) -> Self {
        DeviceBuilder {
            name: name.into(),
            registry: TileTypeRegistry::new(),
            rows: 1,
            columns: Vec::new(),
            forbidden: Vec::new(),
            hard_blocks: Vec::new(),
        }
    }

    /// Registers (or reuses) a tile type and returns its id.
    pub fn tile_type(&mut self, name: &str, resources: ResourceVec, frames: u32) -> TileTypeId {
        self.registry.register_or_get(TileType::new(name, resources, frames))
    }

    /// Sets the number of tile rows.
    pub fn rows(&mut self, rows: u32) -> &mut Self {
        self.rows = rows;
        self
    }

    /// Appends one column of the given tile type.
    pub fn column(&mut self, ty: TileTypeId) -> &mut Self {
        self.columns.push(ty);
        self
    }

    /// Appends several columns at once, in left-to-right order.
    pub fn columns(&mut self, tys: &[TileTypeId]) -> &mut Self {
        self.columns.extend_from_slice(tys);
        self
    }

    /// Appends `count` columns of the given tile type.
    pub fn repeat_column(&mut self, ty: TileTypeId, count: u32) -> &mut Self {
        for _ in 0..count {
            self.columns.push(ty);
        }
        self
    }

    /// Declares a forbidden area whose underlying fabric keeps its column
    /// tile types (e.g. a region reserved for static logic).
    pub fn forbidden(&mut self, name: &str, rect: Rect) -> &mut Self {
        self.forbidden.push(ForbiddenArea::new(name, rect));
        self
    }

    /// Declares a hard block: the covered tiles carry no resources (their
    /// grid cells are cleared) and the rectangle is also a forbidden area.
    pub fn hard_block(&mut self, name: &str, rect: Rect) -> &mut Self {
        self.forbidden.push(ForbiddenArea::new(name, rect));
        self.hard_blocks.push(rect);
        self
    }

    /// Assembles the device.
    pub fn build(&self) -> Result<Device, DeviceError> {
        if self.columns.is_empty() || self.rows == 0 {
            return Err(DeviceError::EmptyGrid);
        }
        let mut grid = TileGrid::new(self.columns.len() as u32, self.rows)?;
        for (i, ty) in self.columns.iter().enumerate() {
            grid.fill_column(i as u32 + 1, *ty)?;
        }
        for block in &self.hard_blocks {
            grid.fill_rect(block, None)?;
        }
        Device::new(self.name.clone(), self.registry.clone(), grid, self.forbidden.clone())
    }
}

/// Frame weight of a CLB tile on the Virtex-5 of the case study.
pub const V5_CLB_FRAMES: u32 = 36;
/// Frame weight of a BRAM tile on the Virtex-5 of the case study.
pub const V5_BRAM_FRAMES: u32 = 30;
/// Frame weight of a DSP tile on the Virtex-5 of the case study.
pub const V5_DSP_FRAMES: u32 = 28;

/// Builds the Virtex-5 FX70T model used throughout the paper's evaluation.
///
/// The device is described at tile granularity: one tile is one resource
/// column of one clock region (20 CLB rows), so the FX70T becomes an
/// 8-row x 42-column grid with 35 CLB columns, 5 BRAM columns and 2 DSP
/// columns. The PowerPC 440 block breaks the central columns and is modelled
/// as a hard block / forbidden area, exactly the situation that motivates the
/// paper's forbidden-area extension (Section III-A).
///
/// The exact column ordering of the real die is not public at this
/// granularity; the model preserves every property the evaluation relies on:
/// the resource totals dominate the SDR design, DSP columns are scarce (2),
/// BRAM columns are interspersed, and the frame weights are the paper's
/// 36/30/28.
pub fn xc5vfx70t() -> Device {
    let mut b = DeviceBuilder::new("xc5vfx70t");
    let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), V5_CLB_FRAMES);
    let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), V5_BRAM_FRAMES);
    let dsp = b.tile_type("DSP", ResourceVec::new(0, 0, 1), V5_DSP_FRAMES);
    b.rows(8);
    // 42 columns, left to right: B at 4, 11, 17, 26, 37; D at 7, 32; C elsewhere.
    let bram_cols = [4u32, 11, 17, 26, 37];
    let dsp_cols = [7u32, 32];
    for col in 1..=42u32 {
        if bram_cols.contains(&col) {
            b.column(bram);
        } else if dsp_cols.contains(&col) {
            b.column(dsp);
        } else {
            b.column(clb);
        }
    }
    // PowerPC 440 hard block: 4 columns x 3 rows in the centre of the die.
    b.hard_block("PPC440", Rect::new(19, 4, 4, 3));
    b.build().expect("the FX70T model is a valid columnar device")
}

/// Small two-type striped device reproducing the situation of Figure 1:
/// areas `A = (1,1,2,2)` and `B = (3,4,2,2)` are compatible, while
/// `C = (2,1,2,2)` is not compatible with `A`.
pub fn figure1_device() -> Device {
    let mut b = DeviceBuilder::new("figure1");
    let blue = b.tile_type("BLUE", ResourceVec::new(1, 0, 0), 36);
    let green = b.tile_type("GREEN", ResourceVec::new(0, 1, 0), 30);
    b.rows(6).columns(&[blue, green, blue, green, blue, green]);
    b.build().expect("figure-1 device is valid")
}

/// Small device in the spirit of Figure 2: after replacing the hard-processor
/// tiles (step 1) the columnar partitioning yields exactly **6 portions** and
/// reports **2 forbidden areas**, matching Equation (3) of the paper
/// (`P = {1..6}`, `A = {f1, f2}`).
pub fn figure2_device() -> Device {
    let mut b = DeviceBuilder::new("figure2");
    let a = b.tile_type("A", ResourceVec::new(1, 0, 0), 36);
    let bb = b.tile_type("B", ResourceVec::new(0, 1, 0), 30);
    b.rows(6);
    // Column types: A A B A B A A A -> portions [1-2][3][4][5][6-8] ... we need 6:
    // A A B A B A A A gives portions (1-2)A (3)B (4)A (5)B (6-8)A = 5; add one more
    // boundary with a trailing B column: A A B A B A A B -> 6 portions.
    b.columns(&[a, a, bb, a, bb, a, a, bb]);
    // Two hard processors, as in Figure 2a (gray areas).
    b.hard_block("f1", Rect::new(2, 2, 2, 2));
    b.hard_block("f2", Rect::new(6, 4, 2, 2));
    b.build().expect("figure-2 device is valid")
}

/// Specification of a synthetic columnar device for scaling studies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntheticSpec {
    /// Device name.
    pub name: String,
    /// Number of resource columns.
    pub cols: u32,
    /// Number of tile rows.
    pub rows: u32,
    /// Every `bram_every`-th column is a BRAM column (0 disables BRAM).
    pub bram_every: u32,
    /// Every `dsp_every`-th column is a DSP column (0 disables DSP).
    pub dsp_every: u32,
    /// Optional central hard block (columns x rows).
    pub hard_block: Option<(u32, u32)>,
}

impl Default for SyntheticSpec {
    fn default() -> Self {
        SyntheticSpec {
            name: "synthetic".to_string(),
            cols: 20,
            rows: 4,
            bram_every: 5,
            dsp_every: 9,
            hard_block: None,
        }
    }
}

impl SyntheticSpec {
    /// Builds the synthetic device.
    ///
    /// Column `c` (1-based) is a DSP column if `dsp_every > 0` and
    /// `c % dsp_every == 0`, otherwise a BRAM column if `bram_every > 0` and
    /// `c % bram_every == 0`, otherwise a CLB column. The optional hard block
    /// is centred on the device.
    pub fn build(&self) -> Result<Device, DeviceError> {
        let mut b = DeviceBuilder::new(self.name.clone());
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), V5_CLB_FRAMES);
        let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), V5_BRAM_FRAMES);
        let dsp = b.tile_type("DSP", ResourceVec::new(0, 0, 1), V5_DSP_FRAMES);
        b.rows(self.rows);
        for c in 1..=self.cols {
            if self.dsp_every > 0 && c % self.dsp_every == 0 {
                b.column(dsp);
            } else if self.bram_every > 0 && c % self.bram_every == 0 {
                b.column(bram);
            } else {
                b.column(clb);
            }
        }
        if let Some((bw, bh)) = self.hard_block {
            if bw > 0 && bh > 0 && bw < self.cols && bh < self.rows {
                let x = (self.cols - bw) / 2 + 1;
                let y = (self.rows - bh) / 2 + 1;
                b.hard_block("HARD", Rect::new(x, y, bw, bh));
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::columnar_partition;
    use crate::resources::ResourceKind;

    #[test]
    fn builder_rejects_empty_descriptions() {
        let b = DeviceBuilder::new("empty");
        assert!(matches!(b.build(), Err(DeviceError::EmptyGrid)));
    }

    #[test]
    fn fx70t_has_expected_shape_and_resources() {
        let d = xc5vfx70t();
        assert_eq!(d.cols(), 42);
        assert_eq!(d.rows(), 8);
        let res = d.total_resources();
        // 35 CLB columns x 8 rows minus the 12 CLB tiles under the PPC440.
        assert_eq!(res[ResourceKind::Clb], 35 * 8 - 12);
        assert_eq!(res[ResourceKind::Bram], 5 * 8);
        assert_eq!(res[ResourceKind::Dsp], 2 * 8);
        assert_eq!(d.forbidden.len(), 1);
    }

    #[test]
    fn fx70t_is_columnar_partitionable() {
        let d = xc5vfx70t();
        let p = columnar_partition(&d).unwrap();
        assert_eq!(p.cols, 42);
        assert_eq!(p.rows, 8);
        assert_eq!(p.n_types(), 3);
        // Adjacent portions always differ in type (Property .3).
        for w in p.portions.windows(2) {
            assert_ne!(w[0].tile_type, w[1].tile_type);
        }
        // 5 BRAM + 2 DSP single-column portions split the CLB span into 8
        // CLB portions -> 15 portions in total.
        assert_eq!(p.n_portions(), 15);
    }

    #[test]
    fn fx70t_dsp_capacity_is_scarce() {
        // The feasibility analysis of Section VI hinges on DSP scarcity: only
        // two DSP columns of 8 tiles each exist.
        let d = xc5vfx70t();
        assert_eq!(d.total_resources()[ResourceKind::Dsp], 16);
    }

    #[test]
    fn fx70t_total_frames_cover_the_sdr_design() {
        let d = xc5vfx70t();
        // The SDR design needs 4202 frames (Table I); the device must offer
        // considerably more.
        assert!(d.total_frames() > 4202 * 2);
    }

    #[test]
    fn figure1_device_compat_scenario() {
        let d = figure1_device();
        assert_eq!(d.cols(), 6);
        assert_eq!(d.rows(), 6);
        assert_eq!(d.registry.len(), 2);
    }

    #[test]
    fn figure2_partition_yields_six_portions_and_two_forbidden_areas() {
        let d = figure2_device();
        let p = columnar_partition(&d).unwrap();
        assert_eq!(p.n_portions(), 6, "Equation (3): P = {{1..6}}");
        assert_eq!(p.forbidden.len(), 2, "Equation (3): A = {{f1, f2}}");
    }

    #[test]
    fn synthetic_spec_builds_and_partitions() {
        let spec = SyntheticSpec { hard_block: Some((2, 2)), ..SyntheticSpec::default() };
        let d = spec.build().unwrap();
        assert_eq!(d.cols(), 20);
        let p = columnar_partition(&d).unwrap();
        assert!(p.n_portions() > 1);
        assert_eq!(p.forbidden.len(), 1);
    }

    #[test]
    fn synthetic_spec_without_special_columns_is_single_portion() {
        let spec = SyntheticSpec {
            name: "uniform".into(),
            cols: 10,
            rows: 3,
            bram_every: 0,
            dsp_every: 0,
            hard_block: None,
        };
        let d = spec.build().unwrap();
        let p = columnar_partition(&d).unwrap();
        assert_eq!(p.n_portions(), 1);
        assert_eq!(p.n_types(), 1);
    }

    #[test]
    fn repeat_column_and_hard_block_builder_paths() {
        let mut b = DeviceBuilder::new("rep");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        b.rows(4).repeat_column(clb, 6);
        b.hard_block("blk", Rect::new(3, 2, 2, 2));
        let d = b.build().unwrap();
        assert_eq!(d.cols(), 6);
        assert!(d.is_forbidden(3, 2));
        assert_eq!(d.tile_type_at(3, 2), None);
        assert_eq!(d.usable_tiles(), 24 - 4);
    }
}
