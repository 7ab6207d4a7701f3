//! The legacy user-facing floorplanner facade.
//!
//! [`Floorplanner`] predates the engine-agnostic solve API of
//! [`crate::engine`] and is kept as a thin compatibility shim: it maps its
//! [`Algorithm`] selector onto the corresponding [`crate::engine::FloorplanEngine`]
//! implementation and converts the unified [`crate::engine::SolveOutcome`]
//! back into the historical `Result<FloorplanReport, FloorplanError>` shape.
//! New code should use [`crate::engine::EngineRegistry`] (and
//! [`crate::portfolio::Portfolio`] for racing) directly:
//!
//! * [`Algorithm::O`] — the full MILP model, engine id `"milp"`;
//! * [`Algorithm::HO`] — the MILP restricted by a greedy sequence pair,
//!   engine id `"ho"`;
//! * [`Algorithm::Combinatorial`] — the exact columnar branch-and-bound,
//!   engine id `"combinatorial"`.

use crate::combinatorial::CombinatorialConfig;
use crate::engine::{
    CombinatorialEngine, FloorplanEngine, HeuristicMilpEngine, MilpEngine, SolveControl,
    SolveOutcome, SolveRequest,
};
use crate::error::FloorplanError;
use crate::model::ModelStats;
use crate::placement::{Floorplan, Metrics};
use crate::problem::FloorplanProblem;
use rfp_milp::SolverConfig as MilpSolverConfig;

/// Selection of the solving engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Optimal MILP (full search space); engine id `"milp"`.
    O,
    /// Heuristic-Optimal MILP (search space restricted by the sequence pair
    /// of a greedy seed); engine id `"ho"`.
    HO,
    /// Exact combinatorial branch and bound over candidate rectangles;
    /// engine id `"combinatorial"`.
    Combinatorial,
}

impl Algorithm {
    /// The engine-registry id of the algorithm.
    pub fn engine_id(self) -> &'static str {
        match self {
            Algorithm::O => "milp",
            Algorithm::HO => "ho",
            Algorithm::Combinatorial => "combinatorial",
        }
    }
}

/// Configuration of the floorplanner.
#[derive(Debug, Clone)]
pub struct FloorplannerConfig {
    /// Engine to use.
    pub algorithm: Algorithm,
    /// MILP solver parameters (O and HO).
    pub milp: MilpSolverConfig,
    /// Combinatorial engine parameters.
    pub combinatorial: CombinatorialConfig,
}

impl Default for FloorplannerConfig {
    fn default() -> Self {
        FloorplannerConfig::combinatorial()
    }
}

impl FloorplannerConfig {
    /// The combinatorial engine with default settings (recommended).
    pub fn combinatorial() -> Self {
        FloorplannerConfig {
            algorithm: Algorithm::Combinatorial,
            milp: MilpSolverConfig::default(),
            combinatorial: CombinatorialConfig::default(),
        }
    }

    /// The O algorithm (full MILP).
    pub fn optimal() -> Self {
        FloorplannerConfig {
            algorithm: Algorithm::O,
            milp: MilpSolverConfig::default(),
            combinatorial: CombinatorialConfig::default(),
        }
    }

    /// The HO algorithm (MILP restricted by a heuristic sequence pair).
    pub fn heuristic_optimal() -> Self {
        FloorplannerConfig {
            algorithm: Algorithm::HO,
            milp: MilpSolverConfig::default(),
            combinatorial: CombinatorialConfig::default(),
        }
    }

    /// Applies a wall-clock time limit (seconds) to whichever engine is
    /// used: the limit is written to **both** the MILP configuration and the
    /// combinatorial configuration so every [`Algorithm`] honours the same
    /// budget field, matching the semantics of
    /// [`SolveRequest::with_time_limit`].
    pub fn with_time_limit(mut self, secs: f64) -> Self {
        self.milp.time_limit = Some(std::time::Duration::from_secs_f64(secs));
        self.combinatorial.time_limit_secs = secs;
        self
    }

    /// The engine instance selected by [`FloorplannerConfig::algorithm`],
    /// configured with this configuration's parameters.
    pub fn engine(&self) -> Box<dyn FloorplanEngine> {
        match self.algorithm {
            Algorithm::Combinatorial => {
                Box::new(CombinatorialEngine::with_config(self.combinatorial.clone()))
            }
            Algorithm::O => Box::new(MilpEngine::with_config(self.milp.clone())),
            Algorithm::HO => Box::new(HeuristicMilpEngine::with_config(self.milp.clone())),
        }
    }
}

/// Detailed outcome of a floorplanning run, in the legacy (pre-engine-API)
/// shape. Produced by [`Floorplanner::solve_report`]; new code should use
/// [`crate::engine::SolveOutcome`] instead.
#[derive(Debug, Clone)]
pub struct FloorplanReport {
    /// The floorplan found.
    pub floorplan: Floorplan,
    /// Its evaluation metrics.
    pub metrics: Metrics,
    /// Engine that produced it.
    pub algorithm: Algorithm,
    /// Whether the engine proved optimality (with respect to its own search
    /// space: for HO that is the restricted space).
    pub proven_optimal: bool,
    /// Search nodes explored (branch-and-bound nodes for every engine).
    pub nodes: u64,
    /// Wall-clock seconds spent solving.
    pub solve_seconds: f64,
    /// MILP model statistics (O and HO only).
    pub model_stats: Option<ModelStats>,
    /// Simplex iterations across all LP relaxations (O and HO only).
    pub lp_iterations: u64,
    /// LP (re-)solves performed — nodes, dives and cut rounds (O/HO only).
    pub lp_solves: u64,
    /// Wall-clock seconds spent inside LP solves (O and HO only).
    pub lp_seconds: f64,
    /// Cutting planes separated at the root (O and HO only).
    pub cuts: u64,
    /// Relative optimality gap at termination (0 when proven optimal,
    /// `f64::INFINITY` when no bound is available).
    pub gap: f64,
}

/// Deprecated alias of [`FloorplanReport`], kept because this name used to
/// collide with the MILP-level report of `rfp-milp` in downstream glob
/// imports.
#[deprecated(
    since = "0.1.0",
    note = "renamed to `FloorplanReport`; the unified engine-level report is \
            `rfp_floorplan::engine::SolveOutcome`"
)]
pub type SolveReport = FloorplanReport;

impl FloorplanReport {
    /// Builds the legacy report from an engine outcome. Returns the legacy
    /// error mapping when the outcome carries no floorplan.
    pub fn from_outcome(
        algorithm: Algorithm,
        outcome: SolveOutcome,
    ) -> Result<FloorplanReport, FloorplanError> {
        if outcome.floorplan.is_none() {
            return Err(outcome.into_error());
        }
        let proven = outcome.status == crate::engine::OutcomeStatus::Proven;
        let SolveOutcome { floorplan, metrics, stats, .. } = outcome;
        Ok(FloorplanReport {
            floorplan: floorplan.expect("checked above"),
            metrics: metrics.expect("engines attach metrics to every floorplan"),
            algorithm,
            proven_optimal: proven,
            nodes: stats.nodes,
            solve_seconds: stats.solve_seconds,
            model_stats: stats.model_stats,
            lp_iterations: stats.lp_iterations,
            lp_solves: stats.lp_solves,
            lp_seconds: stats.lp_seconds,
            cuts: stats.cuts,
            gap: stats.gap,
        })
    }
}

/// The relocation-aware floorplanner (legacy facade over the engine API).
#[derive(Debug, Clone, Default)]
pub struct Floorplanner {
    /// Configuration.
    pub config: FloorplannerConfig,
}

impl Floorplanner {
    /// Creates a floorplanner with the given configuration.
    pub fn new(config: FloorplannerConfig) -> Self {
        Floorplanner { config }
    }

    /// Solves a problem and returns the floorplan.
    pub fn solve(&self, problem: &FloorplanProblem) -> Result<Floorplan, FloorplanError> {
        self.solve_report(problem).map(|r| r.floorplan)
    }

    /// Solves a problem and returns the floorplan together with solve
    /// statistics.
    pub fn solve_report(
        &self,
        problem: &FloorplanProblem,
    ) -> Result<FloorplanReport, FloorplanError> {
        problem.validate()?;
        let engine = self.config.engine();
        let outcome = engine.solve(&SolveRequest::new(problem.clone()), &SolveControl::default());
        FloorplanReport::from_outcome(self.config.algorithm, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ObjectiveWeights, RegionSpec, RelocationRequest};
    use rfp_device::{columnar_partition, DeviceBuilder, ResourceVec};

    fn tiny_problem() -> (FloorplanProblem, rfp_device::TileTypeId, rfp_device::TileTypeId) {
        let mut b = DeviceBuilder::new("tiny");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
        b.rows(3).columns(&[clb, clb, bram, clb, clb]);
        let p = columnar_partition(&b.build().unwrap()).unwrap();
        (FloorplanProblem::new(p), clb, bram)
    }

    #[test]
    fn combinatorial_and_o_agree_on_a_tiny_instance() {
        let (mut p, clb, bram) = tiny_problem();
        p.weights = ObjectiveWeights::area_only();
        p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 2)]));
        let comb = Floorplanner::new(FloorplannerConfig::combinatorial()).solve_report(&p).unwrap();
        let o = Floorplanner::new(FloorplannerConfig::optimal()).solve_report(&p).unwrap();
        assert_eq!(comb.metrics.wasted_frames, o.metrics.wasted_frames);
        assert!(o.model_stats.is_some());
        assert!(comb.model_stats.is_none());
    }

    #[test]
    fn ho_is_no_better_than_o_and_both_are_valid() {
        let (mut p, clb, bram) = tiny_problem();
        p.weights = ObjectiveWeights::area_only();
        p.add_region(RegionSpec::new("A", vec![(clb, 1), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 2)]));
        let o = Floorplanner::new(FloorplannerConfig::optimal()).solve_report(&p).unwrap();
        let ho =
            Floorplanner::new(FloorplannerConfig::heuristic_optimal()).solve_report(&p).unwrap();
        assert!(ho.metrics.wasted_frames >= o.metrics.wasted_frames);
        assert!(o.floorplan.validate(&p).is_empty());
        assert!(ho.floorplan.validate(&p).is_empty());
        assert_eq!(ho.algorithm, Algorithm::HO);
    }

    #[test]
    fn relocation_constraint_via_the_facade() {
        let (mut p, clb, bram) = tiny_problem();
        let a = p.add_region(RegionSpec::new("A", vec![(clb, 1), (bram, 1)]));
        p.request_relocation(RelocationRequest::constraint(a, 1));
        let report =
            Floorplanner::new(FloorplannerConfig::combinatorial()).solve_report(&p).unwrap();
        assert_eq!(report.metrics.fc_found, 1);
        assert!(report.floorplan.validate(&p).is_empty());
    }

    #[test]
    fn infeasible_problems_surface_as_errors() {
        let (mut p, _, bram) = tiny_problem();
        // Two regions each needing 2 of the 3 BRAM tiles cannot coexist.
        p.add_region(RegionSpec::new("A", vec![(bram, 2)]));
        p.add_region(RegionSpec::new("B", vec![(bram, 2)]));
        let err = Floorplanner::new(FloorplannerConfig::combinatorial()).solve(&p);
        assert!(matches!(err, Err(FloorplanError::Infeasible { .. })));
    }

    #[test]
    fn time_limit_configuration_is_plumbed() {
        let cfg = FloorplannerConfig::combinatorial().with_time_limit(0.5);
        assert!((cfg.combinatorial.time_limit_secs - 0.5).abs() < 1e-12);
        assert!(cfg.milp.time_limit.is_some());
        // The same budget must land on both engine configurations, so
        // switching `algorithm` cannot silently drop the limit.
        assert!(
            (cfg.milp.time_limit.unwrap().as_secs_f64() - cfg.combinatorial.time_limit_secs).abs()
                < 1e-12
        );
    }

    #[test]
    fn algorithm_maps_to_engine_ids() {
        assert_eq!(Algorithm::O.engine_id(), "milp");
        assert_eq!(Algorithm::HO.engine_id(), "ho");
        assert_eq!(Algorithm::Combinatorial.engine_id(), "combinatorial");
        assert_eq!(FloorplannerConfig::optimal().engine().id(), "milp");
        assert_eq!(FloorplannerConfig::combinatorial().engine().id(), "combinatorial");
    }

    #[test]
    #[allow(deprecated)]
    fn deprecated_solve_report_alias_still_compiles() {
        fn takes_legacy(_: &SolveReport) {}
        let (mut p, clb, _) = tiny_problem();
        p.add_region(RegionSpec::new("A", vec![(clb, 1)]));
        let report =
            Floorplanner::new(FloorplannerConfig::combinatorial()).solve_report(&p).unwrap();
        takes_legacy(&report);
    }
}
