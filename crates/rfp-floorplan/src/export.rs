//! Export of floorplans to Vivado-style physical constraints.
//!
//! A floorplan is only useful if it can be handed to the vendor
//! implementation flow. This module renders a [`Floorplan`] as the
//! `create_pblock` / `resize_pblock` XDC commands a designer would paste into
//! a Vivado constraints file (one Pblock per reconfigurable region, plus one
//! commented-out Pblock per reserved free-compatible area, since those areas
//! host *relocated* bitstreams rather than separately implemented modules).
//!
//! Tile coordinates are translated to SLICE/RAMB/DSP site ranges with a
//! fixed number of sites per tile, matching the granularity used by the
//! device model (one tile = one resource column of one Virtex-5 clock
//! region). Every region's Pblock carries the `RESET_AFTER_RECONFIG` and
//! `SNAPPING_MODE` properties recommended by the partial-reconfiguration
//! guidelines [7]. None of these parameters is configurable.

use crate::placement::Floorplan;
use crate::problem::FloorplanProblem;
use rfp_device::{FabricPartition, Rect, ResourceKind};
use std::fmt::Write as _;

/// SLICE sites per CLB tile in the X direction.
const SLICES_PER_CLB_X: u32 = 1;
/// SLICE rows per tile row (20 CLB rows per clock region on Virtex-5).
const SLICE_ROWS_PER_TILE: u32 = 20;
/// RAMB36 sites per BRAM tile.
const RAMBS_PER_TILE: u32 = 4;
/// DSP48 sites per DSP tile.
const DSPS_PER_TILE: u32 = 8;

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

/// The resource kinds a Pblock names, each with its site prefix and its
/// sites per tile in x and y.
const SITE_KINDS: [(ResourceKind, &str, u32, u32); 3] = [
    (ResourceKind::Clb, "SLICE", SLICES_PER_CLB_X, SLICE_ROWS_PER_TILE),
    (ResourceKind::Bram, "RAMB36", 1, RAMBS_PER_TILE),
    (ResourceKind::Dsp, "DSP48", 1, DSPS_PER_TILE),
];

/// Site ranges for a rectangle, kind by kind. Vendor tools number sites per
/// kind, so a device column's x index for a kind counts the columns to its
/// left that hold that kind in any row. A range names only cells of the
/// rectangle that hold its kind: there is one range per band of rows that
/// hold the kind in the same columns, and per contiguous run of those
/// columns' indices. On a columnar device each kind is one band and one run.
fn site_ranges(partition: &FabricPartition, rect: &Rect) -> Vec<String> {
    let mut ranges = Vec::new();
    for (kind, prefix, sites_x, sites_y) in SITE_KINDS {
        let holds = |col: u32, row: u32| {
            partition
                .tile_type_at(col, row)
                .is_some_and(|ty| partition.resources_per_tile(ty)[kind] > 0)
        };
        let mut kind_index_of_col = Vec::with_capacity(partition.cols as usize);
        let mut count = 0u32;
        for col in 1..=partition.cols {
            let is_kind = (1..=partition.rows).any(|row| holds(col, row));
            kind_index_of_col.push(is_kind.then_some(count));
            count += is_kind as u32;
        }
        // Each row's runs of per-kind indices, as inclusive `(first, last)`.
        let rows: Vec<(u32, Vec<(u32, u32)>)> = rect
            .rows()
            .map(|row| {
                let mut runs: Vec<(u32, u32)> = Vec::new();
                for col in rect.columns().filter(|&col| holds(col, row)) {
                    let i =
                        kind_index_of_col[(col - 1) as usize].expect("the column holds the kind");
                    match runs.last_mut() {
                        Some((_, last)) if *last + 1 == i => *last = i,
                        _ => runs.push((i, i)),
                    }
                }
                (row, runs)
            })
            .collect();
        for band in rows.chunk_by(|a, b| a.1 == b.1) {
            let (top, bottom) = (band[0].0, band[band.len() - 1].0);
            for &(first, last) in &band[0].1 {
                let (x0, x1) = (first * sites_x, (last + 1) * sites_x - 1);
                let (y0, y1) = ((top - 1) * sites_y, bottom * sites_y - 1);
                ranges.push(format!("{prefix}_X{x0}Y{y0}:{prefix}_X{x1}Y{y1}"));
            }
        }
    }
    ranges
}

/// Renders the floorplan as an XDC constraints snippet.
pub fn to_xdc(problem: &FloorplanProblem, floorplan: &Floorplan) -> String {
    let mut out = String::new();
    let partition = &problem.partition;
    let _ = writeln!(out, "# Floorplan exported by relocfp for device `{}`", partition.device_name);
    let _ = writeln!(
        out,
        "# {} regions, {} reserved free-compatible areas",
        floorplan.regions.len(),
        floorplan.fc_found()
    );
    for (spec, rect) in problem.regions.iter().zip(floorplan.regions.iter()) {
        let name = sanitize(&spec.name);
        let _ = writeln!(out);
        let _ = writeln!(out, "create_pblock pblock_{name}");
        let _ = writeln!(
            out,
            "add_cells_to_pblock [get_pblocks pblock_{name}] [get_cells -quiet [list {name}_i]]"
        );
        for range in site_ranges(partition, rect) {
            let _ = writeln!(out, "resize_pblock [get_pblocks pblock_{name}] -add {{{range}}}");
        }
        let _ = writeln!(out, "set_property RESET_AFTER_RECONFIG true [get_pblocks pblock_{name}]");
        let _ = writeln!(out, "set_property SNAPPING_MODE ON [get_pblocks pblock_{name}]");
    }
    let mut counter = vec![0usize; problem.regions.len()];
    for fc in &floorplan.fc_areas {
        let Some(rect) = fc.rect else { continue };
        counter[fc.region] += 1;
        let region = sanitize(&problem.regions[fc.region].name);
        let name = format!("{region}_reloc{}", counter[fc.region]);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "# Reserved free-compatible area for `{region}` (relocation target #{})",
            counter[fc.region]
        );
        let _ = writeln!(out, "# create_pblock pblock_{name}");
        for range in site_ranges(partition, &rect) {
            let _ = writeln!(out, "# resize_pblock [get_pblocks pblock_{name}] -add {{{range}}}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::FcPlacement;
    use crate::problem::{RegionSpec, RelocationMode};
    use rfp_device::{columnar_partition, DeviceBuilder, ResourceVec};

    fn setup() -> (FloorplanProblem, Floorplan) {
        let mut b = DeviceBuilder::new("xdc");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
        let dsp = b.tile_type("DSP", ResourceVec::new(0, 0, 1), 28);
        b.rows(4).columns(&[clb, clb, bram, clb, dsp, clb, clb, bram]);
        let part = columnar_partition(&b.build().unwrap()).unwrap();
        let mut p = FloorplanProblem::new(part);
        p.add_region(RegionSpec::new("Matched Filter", vec![(clb, 2), (dsp, 1)]));
        p.add_region(RegionSpec::new("FFT core", vec![(clb, 1), (bram, 1)]));
        let mut fp = Floorplan::from_regions(vec![Rect::new(4, 1, 2, 1), Rect::new(2, 2, 2, 1)]);
        fp.fc_areas.push(FcPlacement {
            request: 0,
            region: 1,
            mode: RelocationMode::Constraint,
            rect: Some(Rect::new(7, 3, 2, 1)),
        });
        (p, fp)
    }

    #[test]
    fn xdc_contains_a_pblock_per_region() {
        let (p, fp) = setup();
        let xdc = to_xdc(&p, &fp);
        assert!(xdc.contains("create_pblock pblock_Matched_Filter"));
        assert!(xdc.contains("create_pblock pblock_FFT_core"));
        assert!(xdc.contains("RESET_AFTER_RECONFIG"));
        // The matched filter covers a CLB column and the DSP column.
        assert!(xdc.contains("SLICE_X"));
        assert!(xdc.contains("DSP48_X"));
    }

    #[test]
    fn reserved_areas_are_emitted_as_comments() {
        let (p, fp) = setup();
        let xdc = to_xdc(&p, &fp);
        assert!(xdc.contains("# Reserved free-compatible area for `FFT_core`"));
        assert!(xdc.contains("# create_pblock pblock_FFT_core_reloc1"));
    }

    #[test]
    fn site_ranges_scale_with_the_site_geometry() {
        let (p, fp) = setup();
        let xdc20 = to_xdc(&p, &fp);
        // Row 1..1 with 20 slice rows per tile spans Y0..Y19.
        assert!(xdc20.contains("Y0:") && xdc20.contains("Y19"));
    }

    /// A heterogeneous 6x4 fabric: column 2 holds BRAM on rows 1-2 and CLB
    /// below, column 5 holds DSP on rows 3-4 only, and a hard block covers
    /// column 6, rows 1-2.
    fn hetero_setup() -> (FloorplanProblem, Floorplan) {
        use rfp_device::{fabric_partition, Device, ForbiddenArea, TileGrid, TileType};
        let mut reg = rfp_device::TileTypeRegistry::new();
        let clb = reg.register(TileType::new("CLB", ResourceVec::new(1, 0, 0), 36)).unwrap();
        let bram = reg.register(TileType::new("BRAM", ResourceVec::new(0, 1, 0), 30)).unwrap();
        let dsp = reg.register(TileType::new("DSP", ResourceVec::new(0, 0, 1), 28)).unwrap();
        let mut grid = TileGrid::new(6, 4).unwrap();
        for c in 1..=6 {
            grid.fill_column(c, clb).unwrap();
        }
        grid.set(2, 1, Some(bram)).unwrap();
        grid.set(2, 2, Some(bram)).unwrap();
        grid.set(5, 3, Some(dsp)).unwrap();
        grid.set(5, 4, Some(dsp)).unwrap();
        let blk = vec![ForbiddenArea::new("blk", Rect::new(6, 1, 1, 2))];
        let part = fabric_partition(&Device::new("xdc-hetero", reg, grid, blk).unwrap()).unwrap();
        assert!(part.columnar().is_none());
        let mut p = FloorplanProblem::new(part);
        p.add_region(RegionSpec::new("Decoder", vec![(clb, 2), (bram, 2)]));
        p.add_region(RegionSpec::new("Filter", vec![(clb, 1), (dsp, 2)]));
        let mut fp = Floorplan::from_regions(vec![Rect::new(1, 1, 2, 2), Rect::new(4, 3, 2, 2)]);
        fp.fc_areas.push(FcPlacement {
            request: 0,
            region: 0,
            mode: RelocationMode::Metric { weight: 1.0 },
            rect: Some(Rect::new(1, 3, 3, 2)),
        });
        (p, fp)
    }

    #[test]
    fn xdc_is_pinned_byte_for_byte_on_a_columnar_device() {
        let (p, fp) = setup();
        let expected = "\
# Floorplan exported by relocfp for device `xdc`
# 2 regions, 1 reserved free-compatible areas

create_pblock pblock_Matched_Filter
add_cells_to_pblock [get_pblocks pblock_Matched_Filter] [get_cells -quiet [list Matched_Filter_i]]
resize_pblock [get_pblocks pblock_Matched_Filter] -add {SLICE_X2Y0:SLICE_X2Y19}
resize_pblock [get_pblocks pblock_Matched_Filter] -add {DSP48_X0Y0:DSP48_X0Y7}
set_property RESET_AFTER_RECONFIG true [get_pblocks pblock_Matched_Filter]
set_property SNAPPING_MODE ON [get_pblocks pblock_Matched_Filter]

create_pblock pblock_FFT_core
add_cells_to_pblock [get_pblocks pblock_FFT_core] [get_cells -quiet [list FFT_core_i]]
resize_pblock [get_pblocks pblock_FFT_core] -add {SLICE_X1Y20:SLICE_X1Y39}
resize_pblock [get_pblocks pblock_FFT_core] -add {RAMB36_X0Y4:RAMB36_X0Y7}
set_property RESET_AFTER_RECONFIG true [get_pblocks pblock_FFT_core]
set_property SNAPPING_MODE ON [get_pblocks pblock_FFT_core]

# Reserved free-compatible area for `FFT_core` (relocation target #1)
# create_pblock pblock_FFT_core_reloc1
# resize_pblock [get_pblocks pblock_FFT_core_reloc1] -add {SLICE_X4Y40:SLICE_X4Y59}
# resize_pblock [get_pblocks pblock_FFT_core_reloc1] -add {RAMB36_X1Y8:RAMB36_X1Y11}
";
        assert_eq!(to_xdc(&p, &fp), expected);
    }

    /// On an irregular fabric a column still gets a per-kind x index when
    /// any of its cells holds that kind (column 2 is RAMB36 column 0 and
    /// column 5 DSP48 column 0), but a range covers only the rows where it
    /// does: `Decoder` names column 2 as RAMB36 on rows 1-2 and not as SLICE,
    /// `Filter` names column 5 as DSP48 only, and the reserved area at rows
    /// 3-4, where column 2 is CLB, names no RAMB36 site.
    #[test]
    fn xdc_is_pinned_byte_for_byte_on_a_heterogeneous_fabric() {
        let (p, fp) = hetero_setup();
        let expected = "\
# Floorplan exported by relocfp for device `xdc-hetero`
# 2 regions, 1 reserved free-compatible areas

create_pblock pblock_Decoder
add_cells_to_pblock [get_pblocks pblock_Decoder] [get_cells -quiet [list Decoder_i]]
resize_pblock [get_pblocks pblock_Decoder] -add {SLICE_X0Y0:SLICE_X0Y39}
resize_pblock [get_pblocks pblock_Decoder] -add {RAMB36_X0Y0:RAMB36_X0Y7}
set_property RESET_AFTER_RECONFIG true [get_pblocks pblock_Decoder]
set_property SNAPPING_MODE ON [get_pblocks pblock_Decoder]

create_pblock pblock_Filter
add_cells_to_pblock [get_pblocks pblock_Filter] [get_cells -quiet [list Filter_i]]
resize_pblock [get_pblocks pblock_Filter] -add {SLICE_X3Y40:SLICE_X3Y79}
resize_pblock [get_pblocks pblock_Filter] -add {DSP48_X0Y16:DSP48_X0Y31}
set_property RESET_AFTER_RECONFIG true [get_pblocks pblock_Filter]
set_property SNAPPING_MODE ON [get_pblocks pblock_Filter]

# Reserved free-compatible area for `Decoder` (relocation target #1)
# create_pblock pblock_Decoder_reloc1
# resize_pblock [get_pblocks pblock_Decoder_reloc1] -add {SLICE_X0Y40:SLICE_X2Y79}
";
        assert_eq!(to_xdc(&p, &fp), expected);
    }

    /// Every range `site_ranges` emits for any rect of the heterogeneous
    /// fixture, decoded back to device cells, names only cells of the rect
    /// whose tile holds the range's kind, and together the ranges name every
    /// such cell.
    #[test]
    fn every_site_range_names_only_cells_that_hold_its_kind() {
        let (p, _) = hetero_setup();
        let part = &p.partition;
        let holds = |kind: ResourceKind, col: u32, row: u32| {
            part.tile_type_at(col, row).is_some_and(|ty| part.resources_per_tile(ty)[kind] > 0)
        };
        let mut checked = 0;
        for (x, y) in (1..=part.cols).flat_map(|x| (1..=part.rows).map(move |y| (x, y))) {
            for (w, h) in
                (1..=part.cols - x + 1).flat_map(|w| (1..=part.rows - y + 1).map(move |h| (w, h)))
            {
                let rect = Rect::new(x, y, w, h);
                let mut named = std::collections::HashSet::new();
                for range in site_ranges(part, &rect) {
                    let (name, rest) = range.split_once("_X").unwrap();
                    let &(kind, prefix, sites_x, sites_y) =
                        SITE_KINDS.iter().find(|k| k.1 == name).unwrap();
                    let (from, to) = rest.split_once(':').unwrap();
                    let to = to.strip_prefix(prefix).unwrap().strip_prefix("_X").unwrap();
                    let xy = |s: &str| -> (u32, u32) {
                        let (x, y) = s.split_once('Y').unwrap();
                        (x.parse().unwrap(), y.parse().unwrap())
                    };
                    let ((x0, y0), (x1, y1)) = (xy(from), xy(to));
                    // The device columns of this kind, by per-kind index.
                    let kind_cols: Vec<u32> = (1..=part.cols)
                        .filter(|&c| (1..=part.rows).any(|r| holds(kind, c, r)))
                        .collect();
                    for i in x0 / sites_x..=x1 / sites_x {
                        for row in y0 / sites_y + 1..=y1 / sites_y + 1 {
                            let col = kind_cols[i as usize];
                            assert!(rect.contains(col, row), "{range} leaves {rect:?}");
                            assert!(holds(kind, col, row), "{range} names ({col}, {row})");
                            assert!(named.insert((prefix, col, row)), "{range} repeats a site");
                            checked += 1;
                        }
                    }
                }
                for (kind, prefix, _, _) in SITE_KINDS {
                    for (col, row) in rect.columns().flat_map(|c| rect.rows().map(move |r| (c, r)))
                    {
                        assert_eq!(
                            holds(kind, col, row),
                            named.contains(&(prefix, col, row)),
                            "{prefix} at ({col}, {row}) in {rect:?}"
                        );
                    }
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn names_are_sanitised_for_xdc() {
        assert_eq!(sanitize("Video Decoder #2"), "Video_Decoder__2");
    }
}
