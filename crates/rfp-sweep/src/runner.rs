//! The sweep executor: a `std::thread::scope` worker pool over the
//! expanded run list, with a deferred deterministic merge.
//!
//! Work distribution is a shared atomic cursor — each worker claims the
//! next unclaimed run index, simulates it, and stores the extracted
//! [`RunMetrics`] into that run's slot. **No aggregation happens on the
//! workers**: after the pool joins, the slots are merged in run-index order
//! (the same deferred-merge discipline `rfp serve --jobs` uses), which is
//! what makes the report byte-stable at any worker count.
//!
//! Traces are generated **once per grid point** and shared by reference,
//! so the policy cells of a grid point replay the exact same [`Scenario`].
//!
//! Cancellation reuses [`CancelToken`]: the runner derives a child token
//! from the caller's (so an external ctrl-c style cancel propagates in),
//! workers poll it between runs, and an internal simulation error cancels
//! the child to drain the pool early without touching the caller's token.

use crate::grid::SweepGrid;
use crate::report::{aggregate, RunMetrics, SweepReport};
use rfp_floorplan::CancelToken;
use rfp_runtime::{simulate, OnlineConfig, Scenario};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How to execute a sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads (clamped to at least 1). The report is byte-identical
    /// at every value.
    pub workers: usize,
    /// Cooperative abort: cancel it and the pool drains after the runs
    /// currently in flight.
    pub cancel: CancelToken,
    /// Trace collector handle. When set, each run records its simulate
    /// span onto its own `run#####` track (run indices
    /// are plan-stable, so the trace is as worker-count-independent as the
    /// report).
    pub trace: Option<rfp_trace::TraceHandle>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions { workers: 1, cancel: CancelToken::new(), trace: None }
    }
}

/// Why a sweep did not produce a report.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The grid failed [`SweepGrid::validate`].
    InvalidGrid(Vec<String>),
    /// The cancel token fired before every run finished.
    Cancelled,
    /// A run failed to simulate (unknown engine, malformed trace).
    Sim(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::InvalidGrid(issues) => write!(f, "invalid grid: {}", issues.join("; ")),
            SweepError::Cancelled => write!(f, "sweep cancelled"),
            SweepError::Sim(msg) => write!(f, "simulation failed: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// A completed sweep: the deterministic report plus the wall-clock side
/// channel (which must never leak into the report).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// The deterministic, byte-stable report.
    pub report: SweepReport,
    /// Total wall-clock seconds of the sweep (stderr material only).
    pub wall_seconds: f64,
    /// Run indices whose wall time exceeded
    /// [`SweepGrid::run_budget_seconds`], sorted ascending.
    pub over_budget: Vec<usize>,
}

/// Runs every cell of the grid and merges the results deterministically.
pub fn run_sweep(grid: &SweepGrid, options: &SweepOptions) -> Result<SweepOutcome, SweepError> {
    let issues = grid.validate();
    if !issues.is_empty() {
        return Err(SweepError::InvalidGrid(issues));
    }
    let started = Instant::now();
    let plan = grid.plan();

    // Generate every trace once; its runs share it.
    let traces: Vec<Scenario> = plan.traces.iter().map(|t| t.workload().generate()).collect();

    let cancel = options.cancel.child();
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<RunMetrics>>> =
        plan.runs.iter().map(|_| Mutex::new(None)).collect();
    let over_budget: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let first_error: Mutex<Option<SweepError>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..options.workers.max(1) {
            scope.spawn(|| loop {
                if cancel.is_cancelled() {
                    break;
                }
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(run) = plan.runs.get(idx) else { break };
                let _run_scope = options.trace.as_ref().map(|h| h.install(&format!("run{idx:05}")));
                rfp_trace::count("sweep.runs", 1);
                let config = OnlineConfig {
                    engine: grid.engine.clone(),
                    policy: run.policy,
                    engine_time_limit: grid.engine_time_limit,
                    ..OnlineConfig::default()
                };
                let run_started = Instant::now();
                let _simulate = rfp_trace::span("sweep.simulate");
                match simulate(&traces[run.trace], &config) {
                    Ok(sim) => {
                        if run_started.elapsed().as_secs_f64() > grid.run_budget_seconds {
                            rfp_trace::count("sweep.over_budget", 1);
                            over_budget.lock().expect("budget lock").push(idx);
                        }
                        *results[idx].lock().expect("slot lock") = Some(RunMetrics::from_sim(&sim));
                    }
                    Err(e) => {
                        let mut slot = first_error.lock().expect("error lock");
                        if slot.is_none() {
                            *slot = Some(SweepError::Sim(e.to_string()));
                        }
                        // Drain the pool without touching the caller's token.
                        cancel.cancel();
                        break;
                    }
                }
            });
        }
    });

    if let Some(e) = first_error.into_inner().expect("error lock") {
        return Err(e);
    }
    // Deferred merge, strictly in run-index order.
    let metrics: Vec<RunMetrics> = results
        .into_iter()
        .map(|slot| slot.into_inner().expect("slot lock").ok_or(SweepError::Cancelled))
        .collect::<Result<_, _>>()?;
    let run_cells: Vec<usize> = plan.runs.iter().map(|r| r.cell).collect();
    let report = aggregate(&grid.name, &grid.engine, &plan.cells, &run_cells, &metrics);
    let mut over_budget = over_budget.into_inner().expect("budget lock");
    over_budget.sort_unstable();
    Ok(SweepOutcome { report, wall_seconds: started.elapsed().as_secs_f64(), over_budget })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{DeviceAxis, DeviceFamily};
    use rfp_runtime::DefragPolicy;

    /// A 6-run grid small enough for unit tests: one device, one
    /// utilisation, three policies, two seeds.
    fn tiny_grid() -> SweepGrid {
        SweepGrid {
            name: "tiny".to_string(),
            devices: vec![DeviceAxis {
                cols: 12,
                rows: 2,
                bram_every: 0,
                family: DeviceFamily::Columnar,
            }],
            utilisations: vec![0.6],
            lifetimes: vec![6],
            policies: DefragPolicy::ALL.to_vec(),
            seeds: vec![1, 2],
            modules: 8,
            checkpoint_every: 4,
            engine: "combinatorial".to_string(),
            engine_time_limit: 5.0,
            run_budget_seconds: 60.0,
        }
    }

    #[test]
    fn reports_are_byte_identical_at_any_worker_count() {
        let grid = tiny_grid();
        let serial = run_sweep(&grid, &SweepOptions { workers: 1, ..Default::default() })
            .expect("serial sweep");
        let parallel = run_sweep(&grid, &SweepOptions { workers: 4, ..Default::default() })
            .expect("parallel sweep");
        assert_eq!(serial.report.to_json(), parallel.report.to_json());
        assert_eq!(serial.report.runs, 6);
    }

    #[test]
    fn no_break_cells_report_zero_downtime_and_runs_stay_clean() {
        let outcome = run_sweep(&tiny_grid(), &SweepOptions::default()).expect("sweep completes");
        assert_eq!(outcome.report.cells.len(), 3);
        for cell in &outcome.report.cells {
            assert_eq!(cell.violations, 0, "{}: {cell:?}", cell.key.policy.id());
            assert_eq!(cell.runs, 2);
            assert!(cell.arrivals > 0);
            if cell.key.policy == DefragPolicy::NoBreak {
                assert_eq!(
                    cell.downtime_frames.total, 0,
                    "no-break must never stop a module: {cell:?}"
                );
            } else {
                // Stop-and-move policies pay downtime for every frame moved.
                assert_eq!(
                    cell.downtime_frames.total,
                    cell.moved_frames.total,
                    "{}: {cell:?}",
                    cell.key.policy.id()
                );
            }
        }
    }

    #[test]
    fn a_cancelled_token_aborts_the_sweep() {
        let options = SweepOptions::default();
        options.cancel.cancel();
        assert_eq!(run_sweep(&tiny_grid(), &options), Err(SweepError::Cancelled));
    }

    #[test]
    fn bad_grids_and_engines_error_out() {
        let mut empty = tiny_grid();
        empty.seeds.clear();
        match run_sweep(&empty, &SweepOptions::default()) {
            Err(SweepError::InvalidGrid(issues)) => {
                assert!(issues.iter().any(|i| i.contains("seeds")), "{issues:?}")
            }
            other => panic!("expected InvalidGrid, got {other:?}"),
        }
        let mut bad_engine = tiny_grid();
        bad_engine.engine = "psychic".to_string();
        match run_sweep(&bad_engine, &SweepOptions::default()) {
            Err(SweepError::Sim(msg)) => assert!(msg.contains("psychic"), "{msg}"),
            other => panic!("expected Sim error, got {other:?}"),
        }
    }
}
