//! # rfp-sweep — Monte-Carlo fleet simulation harness
//!
//! The paper's runtime claims — relocation-aware floorplanning keeps
//! reconfiguration traffic low as utilisation rises, and no-break
//! defragmentation holds downtime at zero — need **distributions**, not
//! single-trace anecdotes. This crate turns the online simulator into a
//! fleet-scale study rig:
//!
//! * [`grid`] — the parameter grid ([`SweepGrid`]): device shapes ×
//!   utilisation targets × lifetime distributions × defragmentation
//!   policies × seeds, exchanged as `rfp-sweep-grid` v1 JSON and expanded
//!   into a deterministic work list ([`SweepGrid::plan`]).
//! * [`runner`] — [`run_sweep`]: a `std::thread::scope` worker pool over
//!   the run list, [`CancelToken`]-abortable, generating each trace
//!   **once** and replaying it per policy.
//!   Results merge *after* the pool joins, in run-index order.
//! * [`report`] — per-cell percentile statistics (admission rate,
//!   per-arrival latency in frames, moved/downtime frames, fragmentation
//!   summaries) rendered as the deterministic `rfp-sweep-report` v1 JSON.
//!
//! The report is **byte-stable regardless of worker count** — CI diffs a
//! 1-worker run against a 4-worker run byte-for-byte and gates on a
//! committed baseline. The one metric that is inherently nondeterministic
//! (wall-clock time) is returned out-of-band in [`SweepOutcome`] and never
//! enters the report; "latency" in the report is the deterministic
//! *reconfiguration* latency of an admission, counted in moved frames.
//!
//! The `rfp sweep` CLI subcommand drives this crate end to end.
//!
//! ## Example
//!
//! ```
//! use rfp_sweep::{run_sweep, SweepGrid, SweepOptions};
//!
//! let mut grid = SweepGrid::smoke();
//! grid.seeds.truncate(1); // keep the doctest quick
//! let outcome = run_sweep(&grid, &SweepOptions::default()).unwrap();
//! assert_eq!(outcome.report.cells.len(), 12);
//! assert!(outcome.report.cells.iter().all(|c| c.violations == 0));
//! ```
//!
//! [`CancelToken`]: rfp_floorplan::CancelToken

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod grid;
pub mod report;
pub mod runner;

pub use grid::{
    read_grid, write_grid, CellKey, DeviceAxis, DeviceFamily, GridPlan, RunSpec, SweepGrid,
    TraceSpec, GRID_FORMAT, GRID_VERSION,
};
pub use report::{
    aggregate, CellStats, RunMetrics, SweepReport, SWEEP_REPORT_FORMAT, SWEEP_REPORT_VERSION,
};
pub use runner::{run_sweep, SweepError, SweepOptions, SweepOutcome};
