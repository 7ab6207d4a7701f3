//! Property-based tests of the columnar partitioning and compatibility
//! invariants (Section III of the paper) on randomly generated devices.

use proptest::prelude::*;
use rfp_device::compat::{areas_compatible, enumerate_free_compatible, fabric_compatible};
use rfp_device::fabric::{fabric_partition, fabric_partition_with_boundaries};
use rfp_device::{
    columnar_partition, CompatReport, Device, PortionId, Rect, ResourceVec, SyntheticSpec,
    TileGrid, TileType, TileTypeRegistry,
};

fn arb_spec() -> impl Strategy<Value = SyntheticSpec> {
    (4u32..40, 2u32..10, 0u32..8, 0u32..12, proptest::option::of((1u32..4, 1u32..3))).prop_map(
        |(cols, rows, bram_every, dsp_every, hard_block)| SyntheticSpec {
            name: "prop-device".to_string(),
            cols,
            rows,
            bram_every,
            dsp_every,
            // Only keep hard blocks that leave part of every column free.
            hard_block: hard_block.filter(|&(w, h)| w < cols && h < rows),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every synthetic columnar device partitions successfully and the
    /// resulting portions satisfy Properties .3 and .4 of the paper:
    /// adjacent portions have different tile types and portions are ordered
    /// left to right, covering every column exactly once.
    #[test]
    fn partitioning_satisfies_properties_3_and_4(spec in arb_spec()) {
        let device = spec.build().unwrap();
        let partition = columnar_partition(&device).unwrap();
        // Property .4: ordered left to right, covering all columns exactly once.
        let mut next_col = 1u32;
        for p in &partition.portions {
            prop_assert_eq!(p.x1, next_col);
            prop_assert!(p.x2 >= p.x1);
            next_col = p.x2 + 1;
        }
        prop_assert_eq!(next_col, partition.cols + 1);
        // Property .3: adjacent portions have different tile types.
        for w in partition.portions.windows(2) {
            prop_assert_ne!(w[0].tile_type, w[1].tile_type);
        }
        // The dense MILP type ids are 1-based and bounded by nTypes.
        for i in 0..partition.n_portions() {
            let tid = partition.tid(PortionId(i));
            prop_assert!(tid >= 1 && tid <= partition.n_types());
        }
    }

    /// Frame and resource accounting is additive: splitting a rectangle into
    /// a left part and a right part never changes the totals.
    #[test]
    fn rect_accounting_is_additive(spec in arb_spec(), split in 1u32..40) {
        let device = spec.build().unwrap();
        let partition = fabric_partition(&device).unwrap();
        let full = Rect::new(1, 1, partition.cols, partition.rows);
        let split = split.min(partition.cols.saturating_sub(1)).max(1);
        if split >= partition.cols {
            return Ok(());
        }
        let left = Rect::new(1, 1, split, partition.rows);
        let right = Rect::new(split + 1, 1, partition.cols - split, partition.rows);
        prop_assert_eq!(
            partition.frames_in_rect(&full),
            partition.frames_in_rect(&left) + partition.frames_in_rect(&right)
        );
        let l = partition.resources_in_rect(&left);
        let r = partition.resources_in_rect(&right);
        prop_assert_eq!(partition.resources_in_rect(&full), l + r);
    }

    /// Compatibility is invariant under vertical translation on columnar
    /// devices: moving a single area vertically (within bounds) never
    /// changes the report, first mismatching offset included, because tile
    /// types only depend on the column.
    #[test]
    fn compatibility_depends_only_on_columns(
        spec in arb_spec(),
        x1 in 1u32..40, x2 in 1u32..40,
        w in 1u32..6, h in 1u32..4,
    ) {
        let spec = SyntheticSpec { hard_block: None, ..spec };
        let device = spec.build().unwrap();
        let partition = fabric_partition(&device).unwrap();
        let cols = partition.cols;
        let rows = partition.rows;
        let w = w.min(cols);
        let h = h.min(rows);
        let x1 = x1.min(cols - w + 1);
        let x2 = x2.min(cols - w + 1);
        let a = Rect::new(x1, 1, w, h);
        let b = Rect::new(x2, 1, w, h);
        let report = fabric_compatible(&partition, &a, &b);
        for dy in 0..(rows - h) {
            let b_shifted = Rect::new(x2, 1 + dy, w, h);
            prop_assert_eq!(fabric_compatible(&partition, &a, &b_shifted), report.clone());
        }
    }

    /// The free-compatible enumeration never returns the source, never
    /// returns overlapping pairs of results for disjoint occupancy sets, and
    /// every returned rectangle is in bounds and legal.
    #[test]
    fn free_compatible_enumeration_is_well_formed(
        spec in arb_spec(),
        x in 1u32..40, y in 1u32..10, w in 1u32..5, h in 1u32..4,
    ) {
        let device = spec.build().unwrap();
        let partition = fabric_partition(&device).unwrap();
        let cols = partition.cols;
        let rows = partition.rows;
        let w = w.min(cols);
        let h = h.min(rows);
        let source = Rect::new(x.min(cols - w + 1), y.min(rows - h + 1), w, h);
        let occupied = vec![source];
        let found = enumerate_free_compatible(&partition, &source, &occupied);
        for cand in &found {
            prop_assert!(cand != &source);
            prop_assert!(partition.rect_in_bounds(cand));
            prop_assert!(!partition.rect_crosses_forbidden(cand));
            prop_assert!(!cand.overlaps(&source));
            prop_assert_eq!(areas_compatible(&device, &source, cand), CompatReport::Compatible);
        }
    }

    /// `fabric_compatible` gives the grid oracle's exact `CompatReport`, not
    /// just the same verdict, on every columnar device, hard blocks and
    /// out-of-bounds probes included.
    #[test]
    fn fabric_compatible_matches_the_grid_oracle_on_columnar_devices(
        spec in arb_spec(),
        ax in 1u32..40, ay in 1u32..10,
        bx in 1u32..40, by in 1u32..10,
        sz in (1u32..6, 1u32..4, 1u32..6, 1u32..4),
    ) {
        let (w, h, w2, h2) = sz;
        let device = spec.build().unwrap();
        let fabric = fabric_partition(&device).unwrap();
        prop_assert!(fabric.is_columnar_legacy());
        let cols = fabric.cols;
        let rows = fabric.rows;
        // Bias towards in-bounds rects but keep some out-of-bounds probes.
        let a = Rect::new(ax.min(cols), ay.min(rows), w, h);
        let b = Rect::new(bx.min(cols), by.min(rows), w2, h2);
        prop_assert_eq!(
            fabric_compatible(&fabric, &a, &b),
            areas_compatible(&device, &a, &b),
            "fabric/oracle disagreement for {} vs {}", a, b
        );
    }
}

/// A random genuinely heterogeneous fabric: per-cell tile types drawn from
/// three types, plus optional die boundaries.
fn arb_hetero_device() -> impl Strategy<Value = (Device, Vec<u32>)> {
    (3u32..10, 3u32..8).prop_flat_map(|(cols, rows)| {
        let n = (cols * rows) as usize;
        (
            Just(cols),
            Just(rows),
            proptest::collection::vec(0u16..3, n),
            proptest::collection::vec(1u32..8, 0..3),
        )
            .prop_map(|(cols, rows, types, raw_bounds)| {
                let mut reg = TileTypeRegistry::new();
                let clb =
                    reg.register(TileType::new("CLB", ResourceVec::new(1, 0, 0), 36)).unwrap();
                let bram =
                    reg.register(TileType::new("BRAM", ResourceVec::new(0, 1, 0), 30)).unwrap();
                let dsp =
                    reg.register(TileType::new("DSP", ResourceVec::new(0, 0, 1), 28)).unwrap();
                let palette = [clb, bram, dsp];
                let mut grid = TileGrid::new(cols, rows).unwrap();
                let mut i = 0usize;
                for row in 1..=rows {
                    for col in 1..=cols {
                        grid.set(col, row, Some(palette[types[i] as usize % 3])).unwrap();
                        i += 1;
                    }
                }
                let device = Device::new("prop-hetero", reg, grid, vec![]).unwrap();
                let boundaries: Vec<u32> = raw_bounds.into_iter().filter(|&b| b < rows).collect();
                (device, boundaries)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On random heterogeneous fabrics, `fabric_compatible` agrees with the
    /// exhaustive per-cell grid oracle `areas_compatible` whenever no die
    /// boundary is crossed, and reports `CrossesDieBoundary` otherwise.
    #[test]
    fn fabric_compatible_matches_the_grid_oracle_on_random_fabrics(
        devb in arb_hetero_device(),
        ax in 1u32..10, ay in 1u32..8,
        bx in 1u32..10, by in 1u32..8,
        w in 1u32..5, h in 1u32..5,
    ) {
        let (device, boundaries) = devb;
        let fabric = fabric_partition_with_boundaries(&device, &boundaries).unwrap();
        let cols = fabric.cols;
        let rows = fabric.rows;
        let a = Rect::new(ax.min(cols), ay.min(rows), w, h);
        let b = Rect::new(bx.min(cols), by.min(rows), w, h);
        let verdict = fabric_compatible(&fabric, &a, &b);
        let oracle = areas_compatible(&device, &a, &b);
        let crossing = fabric.rect_in_bounds(&a)
            && fabric.rect_in_bounds(&b)
            && (fabric.rect_crosses_die_boundary(&a) || fabric.rect_crosses_die_boundary(&b));
        if crossing {
            prop_assert_eq!(verdict, CompatReport::CrossesDieBoundary);
        } else {
            prop_assert_eq!(verdict, oracle, "oracle disagreement for {} vs {}", a, b);
        }
    }
}
