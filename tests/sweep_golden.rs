//! Golden-file tests for the fleet sweep: the smoke grid and its report
//! baseline are committed, so any drift in the grid writer, the trace
//! generator, the simulator or the aggregation shows up as a byte diff.
//! Regenerate after an intentional change with:
//!
//! ```text
//! cargo test --test sweep_golden -- --ignored regenerate_golden_files
//! ```

use relocfp::runtime::DefragPolicy;
use relocfp::sweep::{read_grid, run_sweep, write_grid, SweepGrid, SweepOptions};
use relocfp::trace::json::parse;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden(name: &str) -> String {
    let path = golden_dir().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden file {}: {e}", path.display()))
}

#[test]
fn the_committed_smoke_grid_is_current() {
    assert_eq!(
        golden("sweep.grid.json"),
        write_grid(&SweepGrid::smoke()),
        "sweep.grid.json is stale; regenerate with \
         `cargo test --test sweep_golden -- --ignored regenerate_golden_files`"
    );
    let grid = read_grid(&golden("sweep.grid.json")).expect("golden grid parses");
    assert_eq!(grid, SweepGrid::smoke());
}

#[test]
fn the_smoke_sweep_reproduces_the_committed_baseline_at_any_worker_count() {
    let grid = read_grid(&golden("sweep.grid.json")).expect("golden grid parses");
    let baseline = golden("sweep.report.json");

    let serial = run_sweep(&grid, &SweepOptions { workers: 1, ..Default::default() })
        .expect("serial sweep completes");
    assert_eq!(
        serial.report.to_json(),
        baseline,
        "sweep.report.json is stale; regenerate with \
         `cargo test --test sweep_golden -- --ignored regenerate_golden_files`"
    );

    let parallel = run_sweep(&grid, &SweepOptions { workers: 4, ..Default::default() })
        .expect("parallel sweep completes");
    assert_eq!(
        parallel.report.to_json(),
        baseline,
        "the report must be byte-identical at every worker count"
    );
}

/// Reads the committed baseline as a plain JSON document, so the check
/// does not depend on the code that wrote it.
#[test]
fn the_committed_baseline_holds_the_fleet_invariants() {
    let report = parse(&golden("sweep.report.json")).expect("baseline parses");
    let grid = read_grid(&golden("sweep.grid.json")).expect("golden grid parses");
    let expected_cells =
        grid.devices.len() * grid.utilisations.len() * grid.lifetimes.len() * grid.policies.len();
    let cells = report.field("cells").and_then(|c| c.as_arr()).expect("baseline lists cells");
    assert_eq!(cells.len(), expected_cells);
    let runs = report.field("runs").and_then(|r| r.as_u64()).expect("baseline counts runs");
    assert_eq!(runs as usize, expected_cells * grid.seeds.len());
    let count = |cell: &relocfp::trace::json::JsonValue, key: &str| {
        cell.field(key).and_then(|v| v.as_u64()).unwrap_or_else(|e| panic!("{e}: {cell:?}"))
    };
    for cell in cells {
        assert_eq!(count(cell, "violations"), 0, "{cell:?}");
        assert!(count(cell, "arrivals") > 0, "{cell:?}");
        let policy = cell.field("policy").and_then(|p| p.as_str()).expect("cell names its policy");
        if policy == DefragPolicy::NoBreak.id() {
            let downtime = cell.field("downtime_frames").expect("cell reports downtime");
            assert_eq!(
                count(downtime, "total"),
                0,
                "no-break must keep downtime at zero fleet-wide: {cell:?}"
            );
        }
    }
}

/// Rewrites the sweep goldens from the current generators. Ignored by
/// default; run explicitly after an intentional change.
#[test]
#[ignore = "regenerates the golden files in-place"]
fn regenerate_golden_files() {
    std::fs::create_dir_all(golden_dir()).unwrap();
    let grid = SweepGrid::smoke();
    std::fs::write(golden_dir().join("sweep.grid.json"), write_grid(&grid)).unwrap();
    let outcome = run_sweep(&grid, &SweepOptions::default()).expect("smoke sweep completes");
    std::fs::write(golden_dir().join("sweep.report.json"), outcome.report.to_json()).unwrap();
}
