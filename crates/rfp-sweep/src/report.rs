//! Sweep aggregation: per-run metric extraction, per-cell percentile
//! statistics and the deterministic `rfp-sweep-report` v1 JSON document.
//!
//! Determinism is the design constraint: the report must be **byte-stable
//! regardless of worker count**, because CI diffs the 1-worker and 4-worker
//! runs byte-for-byte. Three rules follow:
//!
//! * only deterministic quantities enter the report — event *latency* is
//!   measured in **frames moved** while handling the event (the
//!   reconfiguration cost the paper's Equation 13 prices), never in
//!   wall-clock seconds, which stay on stderr;
//! * integer samples aggregate through [`rfp_trace::CountStats`]
//!   (nearest-rank percentiles of integer samples are exact);
//! * float accumulation happens in run-index order during the deferred
//!   merge, never in completion order.

use crate::grid::CellKey;
use rfp_floorplan::jsonio::{escape, num};
use rfp_runtime::SimReport;
use rfp_trace::{summarize_counts, CountStats};
use std::fmt::Write as _;

/// Format tag of sweep-report documents.
pub const SWEEP_REPORT_FORMAT: &str = "rfp-sweep-report";
/// Current schema version of the sweep-report format.
pub const SWEEP_REPORT_VERSION: u64 = 1;

/// The deterministic extract of one simulation run — everything the
/// aggregator needs, nothing wall-clock.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Arrival events in the run.
    pub arrivals: u64,
    /// Rejected arrivals.
    pub rejected: u64,
    /// Frames moved while handling each arrival, in stream order — the
    /// deterministic reconfiguration latency of that admission.
    pub latency_frames: Vec<u64>,
    /// Total frames moved over the run (any mechanism).
    pub moved_frames: u64,
    /// Total frames programmed while a module was stopped.
    pub downtime_frames: u64,
    /// Relocation-aware traffic cost ([`SimReport::relocation_cost`]).
    pub relocation_cost: f64,
    /// Arrivals that escalated to an engine re-solve.
    pub escalations: u64,
    /// Highest fragmentation observed after any event.
    pub max_fragmentation: f64,
    /// Fragmentation at each checkpoint, in stream order.
    pub checkpoint_fragmentation: Vec<f64>,
    /// Invariant violations (0 on a healthy run).
    pub violations: u64,
}

impl RunMetrics {
    /// Extracts the deterministic metrics from a simulation report.
    pub fn from_sim(report: &SimReport) -> RunMetrics {
        RunMetrics {
            arrivals: report.arrivals(),
            rejected: report.rejected(),
            latency_frames: report
                .events
                .iter()
                .filter(|e| e.kind == "arrive")
                .map(|e| e.frames_relocated + e.frames_resynthesized)
                .collect(),
            moved_frames: report.frames_moved(),
            downtime_frames: report.downtime_frames(),
            relocation_cost: report.relocation_cost(),
            escalations: report.escalations(),
            max_fragmentation: report.max_fragmentation(),
            checkpoint_fragmentation: report
                .events
                .iter()
                .filter(|e| e.kind == "checkpoint")
                .map(|e| e.fragmentation)
                .collect(),
            violations: report.violations(),
        }
    }
}

/// Aggregated statistics of one grid cell (all seeds pooled).
#[derive(Debug, Clone, PartialEq)]
pub struct CellStats {
    /// Cell identity.
    pub key: CellKey,
    /// Monte-Carlo repetitions aggregated (the seed count).
    pub runs: usize,
    /// Arrivals pooled across repetitions.
    pub arrivals: u64,
    /// Rejected arrivals pooled across repetitions.
    pub rejected: u64,
    /// `(arrivals - rejected) / arrivals` (1 when there were no arrivals).
    pub admission_rate: f64,
    /// Per-arrival reconfiguration latency in frames, pooled.
    pub latency_frames: CountStats,
    /// Per-run total moved frames.
    pub moved_frames: CountStats,
    /// Per-run total downtime frames.
    pub downtime_frames: CountStats,
    /// Relocation-aware traffic cost summed across repetitions.
    pub relocation_cost: f64,
    /// Escalations summed across repetitions.
    pub escalations: u64,
    /// Highest fragmentation observed in any repetition.
    pub max_fragmentation: f64,
    /// Mean fragmentation over every checkpoint of every repetition (the
    /// fragmentation-curve summary; 0 when the trace has no checkpoints).
    pub mean_checkpoint_fragmentation: f64,
    /// Violations summed across repetitions (must be 0).
    pub violations: u64,
}

/// The outcome of a sweep: one [`CellStats`] per grid cell, in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Name of the grid that produced the report.
    pub grid: String,
    /// Escalation engine the runs used.
    pub engine: String,
    /// Total simulation runs aggregated.
    pub runs: usize,
    /// Per-cell statistics, in the grid's deterministic cell order.
    pub cells: Vec<CellStats>,
}

/// Merges per-run metrics into per-cell statistics. `results[i]` must be
/// run `i`'s metrics (run-index order — the deferred-merge discipline) and
/// `run_cells[i]` names the cell run `i` belongs to.
pub fn aggregate(
    grid: &str,
    engine: &str,
    cells: &[CellKey],
    run_cells: &[usize],
    results: &[RunMetrics],
) -> SweepReport {
    assert_eq!(run_cells.len(), results.len(), "one cell index per result");
    let mut out = Vec::with_capacity(cells.len());
    for (c, key) in cells.iter().enumerate() {
        let mine: Vec<&RunMetrics> = run_cells
            .iter()
            .zip(results)
            .filter_map(|(&cell, m)| (cell == c).then_some(m))
            .collect();
        let arrivals: u64 = mine.iter().map(|m| m.arrivals).sum();
        let rejected: u64 = mine.iter().map(|m| m.rejected).sum();
        let latency: Vec<u64> =
            mine.iter().flat_map(|m| m.latency_frames.iter().copied()).collect();
        let frag: Vec<f64> =
            mine.iter().flat_map(|m| m.checkpoint_fragmentation.iter().copied()).collect();
        out.push(CellStats {
            key: key.clone(),
            runs: mine.len(),
            arrivals,
            rejected,
            admission_rate: if arrivals == 0 {
                1.0
            } else {
                (arrivals - rejected) as f64 / arrivals as f64
            },
            latency_frames: summarize_counts(&latency),
            moved_frames: summarize_counts(
                &mine.iter().map(|m| m.moved_frames).collect::<Vec<_>>(),
            ),
            downtime_frames: summarize_counts(
                &mine.iter().map(|m| m.downtime_frames).collect::<Vec<_>>(),
            ),
            relocation_cost: mine.iter().map(|m| m.relocation_cost).sum(),
            escalations: mine.iter().map(|m| m.escalations).sum(),
            max_fragmentation: mine.iter().map(|m| m.max_fragmentation).fold(0.0, f64::max),
            mean_checkpoint_fragmentation: if frag.is_empty() {
                0.0
            } else {
                frag.iter().sum::<f64>() / frag.len() as f64
            },
            violations: mine.iter().map(|m| m.violations).sum(),
        });
    }
    SweepReport {
        grid: grid.to_string(),
        engine: engine.to_string(),
        runs: results.len(),
        cells: out,
    }
}

fn write_counts(out: &mut String, name: &str, s: &CountStats) {
    let _ = write!(
        out,
        "\"{name}\":{{\"n\":{},\"total\":{},\"p50\":{},\"p95\":{},\"min\":{},\"max\":{}}}",
        s.n, s.total, s.p50, s.p95, s.min, s.max
    );
}

impl SweepReport {
    /// Renders the report as a deterministic JSON document (trailing
    /// newline) — the byte-diffed CI artifact and regression baseline.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"format\": \"{SWEEP_REPORT_FORMAT}\",");
        let _ = writeln!(out, "  \"version\": {SWEEP_REPORT_VERSION},");
        let _ = writeln!(out, "  \"grid\": \"{}\",", escape(&self.grid));
        let _ = writeln!(out, "  \"engine\": \"{}\",", escape(&self.engine));
        let _ = writeln!(out, "  \"runs\": {},", self.runs);
        out.push_str("  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"device\":\"{}\",\"utilisation\":{},\"mean_lifetime\":{},\
                 \"policy\":\"{}\",\"runs\":{},\"arrivals\":{},\"rejected\":{},\
                 \"admission_rate\":{},",
                escape(&c.key.device),
                num(c.key.utilisation),
                c.key.mean_lifetime,
                c.key.policy.id(),
                c.runs,
                c.arrivals,
                c.rejected,
                num(c.admission_rate),
            );
            write_counts(&mut out, "latency_frames", &c.latency_frames);
            out.push(',');
            write_counts(&mut out, "moved_frames", &c.moved_frames);
            out.push(',');
            write_counts(&mut out, "downtime_frames", &c.downtime_frames);
            let _ = write!(
                out,
                ",\"relocation_cost\":{},\"escalations\":{},\"max_fragmentation\":{},\
                 \"mean_checkpoint_fragmentation\":{},\"violations\":{}}}",
                num(c.relocation_cost),
                c.escalations,
                num(c.max_fragmentation),
                num(c.mean_checkpoint_fragmentation),
                c.violations
            );
        }
        if !self.cells.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n");
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_runtime::DefragPolicy;

    fn metrics(latency: &[u64], moved: u64, downtime: u64, rejected: u64) -> RunMetrics {
        RunMetrics {
            arrivals: latency.len() as u64,
            rejected,
            latency_frames: latency.to_vec(),
            moved_frames: moved,
            downtime_frames: downtime,
            relocation_cost: moved as f64,
            escalations: u64::from(moved > 100),
            max_fragmentation: 0.5,
            checkpoint_fragmentation: vec![0.25, 0.75],
            violations: 0,
        }
    }

    fn keys() -> Vec<CellKey> {
        vec![
            CellKey {
                device: "12x2".into(),
                utilisation: 0.5,
                mean_lifetime: 6,
                policy: DefragPolicy::RelocationAware,
            },
            CellKey {
                device: "12x2".into(),
                utilisation: 0.5,
                mean_lifetime: 6,
                policy: DefragPolicy::NoBreak,
            },
        ]
    }

    #[test]
    fn aggregation_pools_seeds_per_cell() {
        let results = vec![
            metrics(&[0, 36, 72], 108, 108, 0),
            metrics(&[36, 36, 180], 252, 252, 1),
            metrics(&[0, 0, 0], 0, 0, 0),
            metrics(&[72, 0, 0], 72, 0, 0),
        ];
        let report = aggregate("g", "combinatorial", &keys(), &[0, 0, 1, 1], &results);
        assert_eq!(report.runs, 4);
        assert_eq!(report.cells.len(), 2);
        let aware = &report.cells[0];
        assert_eq!(aware.runs, 2);
        assert_eq!(aware.arrivals, 6);
        assert_eq!(aware.rejected, 1);
        assert_eq!(aware.admission_rate, 5.0 / 6.0);
        assert_eq!(aware.latency_frames.n, 6);
        assert_eq!(aware.latency_frames.p50, 36);
        assert_eq!(aware.latency_frames.max, 180);
        assert_eq!(aware.moved_frames.total, 360);
        assert_eq!(aware.downtime_frames.total, 360);
        assert_eq!(aware.mean_checkpoint_fragmentation, 0.5);
        let no_break = &report.cells[1];
        assert_eq!(no_break.downtime_frames.total, 0);
        assert_eq!(no_break.admission_rate, 1.0);
    }

    #[test]
    fn aggregation_is_independent_of_result_ordering_within_the_merge() {
        // The merge always receives results in run-index order; this pins
        // that equal inputs produce byte-equal reports (the property the
        // worker pool's deferred merge relies on).
        let results = vec![metrics(&[5], 5, 0, 0), metrics(&[9], 9, 0, 0), metrics(&[1], 1, 0, 0)];
        let a = aggregate("g", "e", &keys(), &[0, 1, 0], &results);
        let b = aggregate("g", "e", &keys(), &[0, 1, 0], &results.clone());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn empty_cells_report_full_admission() {
        let report = aggregate("g", "e", &keys(), &[], &[]);
        assert_eq!(report.cells[0].runs, 0);
        assert_eq!(report.cells[0].admission_rate, 1.0);
        assert_eq!(report.cells[0].latency_frames, summarize_counts(&[]));
    }
}
