//! Heterogeneous fabric device families and their golden instances.
//!
//! The paper's evaluation runs on a columnar Virtex-5, but modern fabrics
//! (Zynq, UltraScale) break the columnar assumption: BRAM/DSP columns are
//! interrupted by hard blocks, the resource pattern varies between clock
//! regions, and multi-die (SSI) devices add boundaries a partial bitstream
//! cannot be relocated across. [`HeteroDeviceSpec`] generates reproducible
//! devices of that shape — row-striped special columns, an optional hard
//! block, die-boundary rows — for the scaling studies and the CI
//! `hetero-smoke` job.
//!
//! Two pinned instances live here:
//!
//! * [`hetero_golden_problem`] — the static floorplanning instance committed
//!   as `tests/golden/hetero.problem.{json,rfpb}`, sized so every registered
//!   engine (including the exact MILP on its per-cell assignment model)
//!   solves it in CI.
//! * [`hetero_smoke_scenario`] — the online defragmentation trace committed
//!   as `tests/golden/hetero.scenario.{json,rfpb}`. Its die boundaries are
//!   placed so every module tall enough to be worth moving spans one, which
//!   guarantees the simulator exercises (and counts, via the
//!   `runtime.die_crossing_rejections` counter) the relocation-refused →
//!   regenerate fallback.

use rfp_device::{
    fabric_partition_with_boundaries, Device, FabricPartition, ForbiddenArea, Rect, ResourceVec,
    TileGrid, TileType, TileTypeRegistry,
};
use rfp_floorplan::{FloorplanProblem, RegionSpec, RelocationRequest};
use rfp_runtime::Scenario;

/// Specification of a heterogeneous fabric device.
///
/// Columns default to CLB; every `bram_every`-th column carries BRAM tiles in
/// alternating row stripes of height `bram_stripe` (stripe, gap, stripe, …
/// starting at row 1). A stripe shorter than the device makes the column
/// non-uniform, so the device has no columnar partition and exercises the
/// per-cell fabric paths end to end. `bram_stripe == 0` (or `>= rows`) keeps
/// the special columns uniform — the columnar special case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeteroDeviceSpec {
    /// Device columns.
    pub cols: u32,
    /// Device rows.
    pub rows: u32,
    /// Every `bram_every`-th column is a BRAM column (0 = all-CLB).
    pub bram_every: u32,
    /// Rows per BRAM stripe within a BRAM column (see type docs).
    pub bram_stripe: u32,
    /// Optional hard block: a forbidden `(w, h)` rectangle anchored at the
    /// device centre.
    pub hard_block: Option<(u32, u32)>,
    /// Die-boundary rows (boundary `r` separates rows `r` and `r + 1`).
    pub die_boundaries: Vec<u32>,
}

impl Default for HeteroDeviceSpec {
    fn default() -> Self {
        HeteroDeviceSpec {
            cols: 8,
            rows: 4,
            bram_every: 3,
            bram_stripe: 2,
            hard_block: None,
            die_boundaries: vec![2],
        }
    }
}

impl HeteroDeviceSpec {
    /// The generated device's name, derived from the spec fields.
    pub fn device_name(&self) -> String {
        format!("hetero-{}x{}-b{}s{}", self.cols, self.rows, self.bram_every, self.bram_stripe)
    }

    /// `true` when cell `(col, row)` (1-based) carries a BRAM tile.
    fn is_bram_cell(&self, col: u32, row: u32) -> bool {
        if self.bram_every == 0 || !col.is_multiple_of(self.bram_every) {
            return false;
        }
        if self.bram_stripe == 0 || self.bram_stripe >= self.rows {
            return true;
        }
        ((row - 1) / self.bram_stripe).is_multiple_of(2)
    }

    /// Builds the device.
    ///
    /// # Panics
    /// Panics if the dimensions are degenerate (zero columns or rows) or the
    /// hard block does not fit on the device.
    pub fn build(&self) -> Device {
        let mut reg = TileTypeRegistry::new();
        let clb = reg.register(TileType::new("CLB", ResourceVec::new(1, 0, 0), 36)).unwrap();
        // Register BRAM only when it actually appears on the grid, keeping
        // the registry minimal for byte-stable serialisation round trips.
        let bram = (self.bram_every > 0)
            .then(|| reg.register(TileType::new("BRAM", ResourceVec::new(0, 1, 0), 30)).unwrap());
        let mut grid = TileGrid::new(self.cols, self.rows).expect("non-degenerate dimensions");
        for col in 1..=self.cols {
            for row in 1..=self.rows {
                let ty = match bram {
                    Some(bram) if self.is_bram_cell(col, row) => bram,
                    _ => clb,
                };
                grid.set(col, row, Some(ty)).unwrap();
            }
        }
        let forbidden = self
            .hard_block
            .map(|(w, h)| {
                let x = (self.cols - w) / 2 + 1;
                let y = (self.rows - h) / 2 + 1;
                vec![ForbiddenArea::new("hard-block", Rect::new(x, y, w, h))]
            })
            .unwrap_or_default();
        Device::new(self.device_name(), reg, grid, forbidden).expect("spec builds a valid device")
    }

    /// Builds the device and partitions it into a fabric with the spec's die
    /// boundaries.
    ///
    /// # Panics
    /// Panics on degenerate dimensions or out-of-range die boundaries.
    pub fn partition(&self) -> FabricPartition {
        fabric_partition_with_boundaries(&self.build(), &self.die_boundaries)
            .expect("spec partitions into a fabric")
    }
}

/// Recovers the CLB and BRAM type ids of a [`HeteroDeviceSpec`] fabric by
/// frame weight (36/30), mirroring the SDR builder's convention.
fn clb_bram_types(
    partition: &FabricPartition,
) -> (rfp_device::TileTypeId, Option<rfp_device::TileTypeId>) {
    let mut clb = None;
    let mut bram = None;
    for &ty in partition.cell_types() {
        match partition.frames_per_tile(ty) {
            36 => clb = Some(ty),
            30 => bram = Some(ty),
            _ => {}
        }
    }
    (clb.expect("hetero devices always have CLB cells"), bram)
}

/// The golden heterogeneous floorplanning instance
/// (`tests/golden/hetero.problem.{json,rfpb}`).
///
/// An 8x4 fabric whose columns 3 and 6 are BRAM on rows 1-2 and CLB on rows
/// 3-4 (no columnar partition exists), with one die boundary between rows 2
/// and 3. Three regions: a relocatable all-CLB region with two
/// free-compatible areas requested in **metric** mode — the all-CLB band
/// below the boundary holds three disjoint compatible windows, so the
/// relocation-aware engines reserve both without crossing the boundary,
/// while the relocation-unaware baselines may legally (if expensively)
/// leave them unidentified and all five registry engines solve the
/// instance — plus a BRAM consumer and a second CLB region, chained by a
/// 16-bit bus. [`hetero_constraint_problem`] is the hard-constraint
/// variant.
pub fn hetero_golden_problem() -> FloorplanProblem {
    let mut problem = hetero_constraint_problem();
    problem.relocation.clear();
    problem.request_relocation(RelocationRequest::metric(0, 2, 4.0));
    problem
}

/// [`hetero_golden_problem`] with the relocation request as a hard
/// constraint: only the relocation-aware engines (`milp`, `ho`,
/// `combinatorial`) can solve it — the baselines refuse by design.
pub fn hetero_constraint_problem() -> FloorplanProblem {
    let partition = HeteroDeviceSpec::default().partition();
    let (clb, bram) = clb_bram_types(&partition);
    let bram = bram.expect("default hetero spec has BRAM stripes");
    let mut problem = FloorplanProblem::new(partition);
    // A nonzero relocation weight prices unreserved metric-mode areas, so
    // the relocation-aware engines have a reason to reserve them.
    problem.weights.relocation = 4.0;
    let a = problem.add_region(RegionSpec::new("FIR", vec![(clb, 4)]));
    let b = problem.add_region(RegionSpec::new("FFT", vec![(clb, 2), (bram, 2)]));
    let c = problem.add_region(RegionSpec::new("CTRL", vec![(clb, 4)]));
    problem.connect(a, b, 16.0);
    problem.connect(b, c, 16.0);
    problem.request_relocation(RelocationRequest::constraint(a, 2));
    problem
}

/// [`hetero_golden_problem`] as an `rfp-problem` v2 JSON document.
pub fn hetero_problem_json() -> String {
    rfp_floorplan::jsonio::write_problem(&hetero_golden_problem())
}

/// The golden heterogeneous defragmentation trace
/// (`tests/golden/hetero.scenario.{json,rfpb}`).
///
/// A narrow 4x8 fabric — column 3 carries BRAM on the odd rows, so no
/// columnar partition exists — whose die boundaries sit after *every* row:
/// any rectangle taller than one row spans a boundary. No single row holds
/// more than four CLBs, so the 5-CLB fillers place at height >= 2 and every
/// defragmentation move of one is refused relocation
/// (`CompatReport::CrossesDieBoundary`) and falls back to regeneration —
/// the path the `runtime.die_crossing_rejections` counter (and the CI
/// `hetero-smoke` grep) pins.
///
/// The stream itself mirrors the columnar smoke scenario: four fillers pack
/// the fabric, alternating departures shatter the free space, and a 9-CLB
/// arrival forces the planner to relocate a survivor before it fits. Under
/// the relocation-aware policy that is a single forced (and counted)
/// resynthesis move; the oblivious baseline left-compacts and pays for
/// three.
pub fn hetero_smoke_scenario() -> Scenario {
    let spec = HeteroDeviceSpec {
        cols: 4,
        rows: 8,
        bram_every: 3,
        bram_stripe: 1,
        hard_block: None,
        die_boundaries: vec![1, 2, 3, 4, 5, 6, 7],
    };
    let partition = spec.partition();
    let (clb, _) = clb_bram_types(&partition);
    let mut s = Scenario::new("hetero-smoke", partition);
    let fillers: Vec<_> =
        (0..4).map(|i| s.add_module(RegionSpec::new(format!("F{i}"), vec![(clb, 5)]))).collect();
    let big = s.add_module(RegionSpec::new("BIG", vec![(clb, 9)]));
    let tail = s.add_module(RegionSpec::new("TAIL", vec![(clb, 3)]));
    for (i, &f) in fillers.iter().enumerate() {
        s.arrive(i as u64, f);
    }
    s.depart(4, fillers[0]);
    s.depart(5, fillers[2]);
    s.checkpoint(6);
    s.arrive(7, big); // fits only after a (die-crossing) relocation
    s.checkpoint(8);
    s.depart(9, fillers[1]);
    s.arrive(10, tail);
    s.checkpoint(11);
    s
}

/// The hetero smoke scenario as an `rfp-scenario` v2 JSON document.
pub fn hetero_scenario_json() -> String {
    rfp_runtime::write_scenario(&hetero_smoke_scenario())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_device::columnar_partition;

    #[test]
    fn striped_devices_are_not_columnar() {
        let spec = HeteroDeviceSpec::default();
        assert!(columnar_partition(&spec.build()).is_err());
        let p = spec.partition();
        assert!(p.columnar().is_none());
        assert!(!p.is_columnar_legacy());
        assert_eq!(p.die_boundaries, vec![2]);
        // Column 3, rows 1-2 are the BRAM stripe; rows 3-4 revert to CLB.
        assert_eq!(p.frames_per_tile(p.tile_type_at(3, 1).unwrap()), 30);
        assert_eq!(p.frames_per_tile(p.tile_type_at(3, 3).unwrap()), 36);
    }

    #[test]
    fn uniform_stripes_keep_the_columnar_special_case() {
        let spec = HeteroDeviceSpec {
            bram_stripe: 0,
            die_boundaries: vec![],
            ..HeteroDeviceSpec::default()
        };
        let p = spec.partition();
        assert!(p.is_columnar_legacy(), "uniform special columns stay columnar");
    }

    #[test]
    fn hard_blocks_are_centred_and_forbidden() {
        let spec = HeteroDeviceSpec { hard_block: Some((2, 2)), ..HeteroDeviceSpec::default() };
        let p = spec.partition();
        assert_eq!(p.forbidden.len(), 1);
        assert_eq!(p.forbidden[0].rect, Rect::new(4, 2, 2, 2));
        assert!(!p.placement_legal(&Rect::new(4, 2, 1, 1)));
    }

    #[test]
    fn golden_problem_is_valid_and_requests_relocation() {
        for p in [hetero_golden_problem(), hetero_constraint_problem()] {
            assert!(p.validate().is_ok(), "{:?}", p.validate());
            assert_eq!(p.regions.len(), 3);
            assert_eq!(p.relocation.len(), 1);
            assert_eq!(p.n_fc_areas(), 2);
            assert!(!p.partition.is_columnar_legacy());
        }
    }

    #[test]
    fn smoke_scenario_is_valid_and_every_tall_rect_crosses_a_die() {
        let s = hetero_smoke_scenario();
        assert!(s.validate().is_empty(), "{:?}", s.validate());
        assert_eq!(s.n_arrivals(), 6);
        let p = &s.partition;
        // A boundary after every row: height-2 rects cross wherever they sit,
        // single-row rects never do.
        for y in 1..=7 {
            assert!(p.rect_crosses_die_boundary(&Rect::new(1, y, 3, 2)));
        }
        assert!(!p.rect_crosses_die_boundary(&Rect::new(1, 4, 4, 1)));
        // No single row holds a 5-CLB filler, so every placement is >= 2
        // rows tall and every move of one is refused relocation.
        let (clb, _) = clb_bram_types(p);
        for y in 1..=8 {
            let clbs = (1..=4).filter(|&x| p.tile_type_at(x, y) == Some(clb)).count();
            assert!(clbs < 5, "row {y} holds {clbs} CLBs");
        }
    }
}
