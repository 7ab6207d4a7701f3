//! The software-defined-radio (SDR) case study of Section VI.
//!
//! The SDR design (originally from the evaluation of [8]) consists of five
//! modules — matched filter, carrier recovery, demodulator, signal decoder
//! and video decoder — each implemented as a reconfigurable region with
//! mutually-exclusive modes, connected in sequential order by a 64-bit bus.
//! Table I of the paper gives the per-region tile requirements reproduced by
//! [`sdr_region_table`]; [`sdr_problem`] instantiates them on the Virtex-5
//! FX70T device model.
//!
//! The relocation variants of the evaluation are:
//!
//! * **SDR2** — two free-compatible areas requested (as constraints) for each
//!   *relocatable* region (carrier recovery, demodulator, signal decoder);
//! * **SDR3** — three free-compatible areas per relocatable region.

use rfp_device::{columnar_partition, xc5vfx70t, ColumnarPartition};
use rfp_floorplan::{FloorplanProblem, RegionSpec, RelocationRequest};

/// Width of the bus connecting consecutive SDR modules.
pub const SDR_BUS_WIDTH: f64 = 64.0;

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SdrRegionRow {
    /// Region name.
    pub name: &'static str,
    /// CLB tiles required.
    pub clb_tiles: u32,
    /// BRAM tiles required.
    pub bram_tiles: u32,
    /// DSP tiles required.
    pub dsp_tiles: u32,
    /// Minimum configuration frames (last column of Table I).
    pub frames: u64,
}

/// The five rows of Table I (resource requirements of the SDR design).
pub fn sdr_region_table() -> Vec<SdrRegionRow> {
    vec![
        SdrRegionRow {
            name: "Matched Filter",
            clb_tiles: 25,
            bram_tiles: 0,
            dsp_tiles: 5,
            frames: 1040,
        },
        SdrRegionRow {
            name: "Carrier Recovery",
            clb_tiles: 7,
            bram_tiles: 0,
            dsp_tiles: 1,
            frames: 280,
        },
        SdrRegionRow {
            name: "Demodulator",
            clb_tiles: 5,
            bram_tiles: 2,
            dsp_tiles: 0,
            frames: 240,
        },
        SdrRegionRow {
            name: "Signal Decoder",
            clb_tiles: 12,
            bram_tiles: 1,
            dsp_tiles: 0,
            frames: 462,
        },
        SdrRegionRow {
            name: "Video Decoder",
            clb_tiles: 55,
            bram_tiles: 2,
            dsp_tiles: 5,
            frames: 2180,
        },
    ]
}

/// Names of the *relocatable* regions identified by the paper's feasibility
/// analysis (the regions for which a free-compatible area exists on the
/// FX70T).
pub const RELOCATABLE_REGIONS: [&str; 3] = ["Carrier Recovery", "Demodulator", "Signal Decoder"];

/// Builds the SDR floorplanning problem (no relocation requests) on the
/// Virtex-5 FX70T model, with the five regions connected in a chain by a
/// 64-bit bus and the paper's lexicographic objective (wasted area first,
/// then wire length).
pub fn sdr_problem() -> FloorplanProblem {
    sdr_problem_on(columnar_partition(&xc5vfx70t()).expect("FX70T is columnar"))
}

/// Builds the SDR problem on an arbitrary columnar device (used by the
/// scaling benchmarks on reduced devices). The device must expose tile types
/// named `CLB`, `BRAM` and `DSP`.
pub fn sdr_problem_on(partition: ColumnarPartition) -> FloorplanProblem {
    // Recover the tile-type ids by name through the portions' tile types:
    // the workload crate does not hold the device, only its partition, so we
    // identify types via their frame weights (36/30/28), which is how the
    // paper's Table I distinguishes them as well.
    let mut clb = None;
    let mut bram = None;
    let mut dsp = None;
    for portion in &partition.portions {
        let ty = portion.tile_type;
        match partition.frames_per_tile(ty) {
            36 => clb = Some(ty),
            30 => bram = Some(ty),
            28 => dsp = Some(ty),
            _ => {}
        }
    }
    let clb = clb.expect("device must expose CLB columns (36 frames/tile)");
    let bram = bram.expect("device must expose BRAM columns (30 frames/tile)");
    let dsp = dsp.expect("device must expose DSP columns (28 frames/tile)");

    let mut problem = FloorplanProblem::new(partition);
    let mut ids = Vec::new();
    for row in sdr_region_table() {
        let spec = RegionSpec::new(
            row.name,
            vec![(clb, row.clb_tiles), (bram, row.bram_tiles), (dsp, row.dsp_tiles)],
        );
        ids.push(problem.add_region(spec));
    }
    problem.connect_chain(&ids, SDR_BUS_WIDTH);
    problem
}

/// Adds `count` constraint-mode free-compatible areas for every relocatable
/// region of an SDR problem.
pub fn with_relocation_constraints(mut problem: FloorplanProblem, count: u32) -> FloorplanProblem {
    let relocatable: Vec<usize> = problem
        .regions
        .iter()
        .enumerate()
        .filter(|(_, r)| RELOCATABLE_REGIONS.contains(&r.name.as_str()))
        .map(|(i, _)| i)
        .collect();
    for region in relocatable {
        problem.request_relocation(RelocationRequest::constraint(region, count));
    }
    problem
}

/// The SDR2 instance: two free-compatible areas per relocatable region
/// (6 areas in total).
pub fn sdr2_problem() -> FloorplanProblem {
    with_relocation_constraints(sdr_problem(), 2)
}

/// The SDR3 instance: three free-compatible areas per relocatable region
/// (9 areas in total).
pub fn sdr3_problem() -> FloorplanProblem {
    with_relocation_constraints(sdr_problem(), 3)
}

/// The SDR instance with `fc_per_region` constraint-mode areas per
/// relocatable region (0 = plain SDR, 2 = SDR2, 3 = SDR3), rendered as an
/// `rfp-problem` v1 JSON document ([`rfp_floorplan::jsonio`]). This is what
/// `rfp convert sdr|sdr2|sdr3` emits and what the golden files under
/// `tests/golden/` pin.
pub fn sdr_problem_json(fc_per_region: u32) -> String {
    let problem = if fc_per_region == 0 {
        sdr_problem()
    } else {
        with_relocation_constraints(sdr_problem(), fc_per_region)
    };
    rfp_floorplan::jsonio::write_problem(&problem)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_totals_match_the_paper() {
        let rows = sdr_region_table();
        let clb: u32 = rows.iter().map(|r| r.clb_tiles).sum();
        let bram: u32 = rows.iter().map(|r| r.bram_tiles).sum();
        let dsp: u32 = rows.iter().map(|r| r.dsp_tiles).sum();
        let frames: u64 = rows.iter().map(|r| r.frames).sum();
        assert_eq!(clb, 104);
        assert_eq!(bram, 5);
        assert_eq!(dsp, 11);
        assert_eq!(frames, 4202);
    }

    #[test]
    fn per_row_frames_are_consistent_with_tile_weights() {
        for row in sdr_region_table() {
            let computed =
                row.clb_tiles as u64 * 36 + row.bram_tiles as u64 * 30 + row.dsp_tiles as u64 * 28;
            assert_eq!(computed, row.frames, "row {}", row.name);
        }
    }

    #[test]
    fn sdr_problem_reproduces_table1_on_the_fx70t() {
        let p = sdr_problem();
        assert_eq!(p.regions.len(), 5);
        assert_eq!(p.connections.len(), 4, "chain of five modules");
        assert_eq!(p.total_required_frames(), 4202);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn sdr_json_variants_round_trip_to_equal_problems() {
        for (fc, expected) in [(0u32, sdr_problem()), (2, sdr2_problem()), (3, sdr3_problem())] {
            let doc = sdr_problem_json(fc);
            let back = rfp_floorplan::jsonio::read_problem(&doc).unwrap();
            assert_eq!(back, expected, "fc_per_region = {fc}");
        }
    }

    #[test]
    fn sdr2_and_sdr3_request_areas_for_relocatable_regions_only() {
        let sdr2 = sdr2_problem();
        assert_eq!(sdr2.relocation.len(), 3);
        assert_eq!(sdr2.n_fc_areas(), 6);
        let sdr3 = sdr3_problem();
        assert_eq!(sdr3.n_fc_areas(), 9);
        for req in &sdr2.relocation {
            let name = &sdr2.regions[req.region].name;
            assert!(RELOCATABLE_REGIONS.contains(&name.as_str()));
        }
    }
}
