//! The baseline floorplanners as first-class [`FloorplanEngine`]s.
//!
//! Wraps each baseline's one entry point,
//! [`AnnealingFloorplanner::solve_with_control`] and
//! [`tessellation_floorplan`], into an engine that speaks the unified solve
//! contract of `rfp-floorplan::engine` and builds its outcome with
//! [`SolveOutcome::from_search`]. [`full_registry`] holds the builtin exact
//! engines (`milp`, `ho`, `combinatorial`) plus `annealing` and
//! `tessellation`; the `rfp` CLI and the benchmark harness use it.
//!
//! Both baselines are heuristics: they never report
//! [`OutcomeStatus::Proven`], and being relocation-unaware they leave every
//! requested free-compatible area missing (a constraint-mode request
//! therefore makes them report [`OutcomeStatus::Infeasible`]).

use crate::annealing::AnnealingFloorplanner;
use crate::tessellation::tessellation_floorplan;
use rfp_floorplan::engine::{
    deadline_after, EngineRegistry, EngineStats, FloorplanEngine, OutcomeStatus, SolveControl,
    SolveOutcome, SolveRequest,
};
use rfp_floorplan::problem::RelocationMode;
use rfp_floorplan::FloorplanProblem;
use std::sync::Arc;
use std::time::Instant;

/// The simulated-annealing baseline (in the spirit of \[9\]) as an engine,
/// id `"annealing"`, with the default annealer parameters; the request's
/// time budget is honoured as a deadline on top of the iteration budget.
#[derive(Debug, Clone, Default)]
pub struct AnnealingEngine;

/// `true` when the problem carries a constraint-mode relocation request,
/// which the relocation-unaware baselines can never satisfy.
fn has_relocation_constraint(problem: &FloorplanProblem) -> bool {
    problem.relocation.iter().any(|r| matches!(r.mode, RelocationMode::Constraint))
}

impl FloorplanEngine for AnnealingEngine {
    fn id(&self) -> &'static str {
        "annealing"
    }

    fn description(&self) -> &'static str {
        "simulated-annealing baseline ([9]-style): wire-length-driven, relocation-unaware"
    }

    fn solve(&self, req: &SolveRequest, ctl: &SolveControl) -> SolveOutcome {
        let problem = &req.problem;
        let start = Instant::now();
        let deadline = deadline_after(start, req.time_limit_secs);
        let mut stats = EngineStats::new(self.id());
        if has_relocation_constraint(problem) {
            return SolveOutcome::without_floorplan(
                OutcomeStatus::Infeasible,
                "the annealing baseline is relocation-unaware and cannot satisfy \
                 constraint-mode relocation requests",
                stats,
            );
        }
        let run = match AnnealingFloorplanner::default().solve_with_control(problem, deadline, ctl)
        {
            Ok(run) => run,
            Err(e) => {
                stats.solve_seconds = start.elapsed().as_secs_f64();
                stats.cancelled = ctl.cancel.is_cancelled();
                return SolveOutcome::without_floorplan(
                    OutcomeStatus::Infeasible,
                    e.to_string(),
                    stats,
                );
            }
        };
        stats.nodes = run.moves;
        stats.solve_seconds = start.elapsed().as_secs_f64();
        stats.cancelled = run.cancelled;
        let status = if run.cancelled || run.hit_deadline {
            OutcomeStatus::BudgetExhausted
        } else {
            OutcomeStatus::Infeasible
        };
        SolveOutcome::from_search(
            problem,
            run.floorplan,
            false,
            stats,
            status,
            "simulated annealing found no overlap-free placement",
        )
    }
}

/// The columnar-kernel-tessellation baseline (in the spirit of \[8\]) as an
/// engine, id `"tessellation"`.
#[derive(Debug, Clone, Default)]
pub struct TessellationEngine;

impl FloorplanEngine for TessellationEngine {
    fn id(&self) -> &'static str {
        "tessellation"
    }

    fn description(&self) -> &'static str {
        "columnar kernel tessellation baseline ([8]-style): reconfiguration-centric greedy"
    }

    fn solve(&self, req: &SolveRequest, ctl: &SolveControl) -> SolveOutcome {
        let problem = &req.problem;
        let start = Instant::now();
        let mut stats = EngineStats::new(self.id());
        stats.cancelled = ctl.cancel.is_cancelled();
        if stats.cancelled {
            return SolveOutcome::without_floorplan(
                OutcomeStatus::BudgetExhausted,
                "cancelled before the tessellation pass started",
                stats,
            );
        }
        if has_relocation_constraint(problem) {
            return SolveOutcome::without_floorplan(
                OutcomeStatus::Infeasible,
                "the tessellation baseline is relocation-unaware and cannot satisfy \
                 constraint-mode relocation requests",
                stats,
            );
        }
        let (floorplan, detail) = match tessellation_floorplan(problem) {
            Ok(mut fp) => {
                // The baseline leaves every requested area missing; record
                // that explicitly so metric-mode costs show up.
                for (request, region, mode) in problem.fc_areas() {
                    fp.fc_areas.push(rfp_floorplan::FcPlacement {
                        request,
                        region,
                        mode,
                        rect: None,
                    });
                }
                (Some(fp), String::new())
            }
            Err(e) => (None, e.to_string()),
        };
        stats.solve_seconds = start.elapsed().as_secs_f64();
        stats.cancelled = ctl.cancel.is_cancelled();
        SolveOutcome::from_search(
            problem,
            floorplan,
            false,
            stats,
            OutcomeStatus::Infeasible,
            detail,
        )
    }
}

/// Registers the two baseline engines into an existing registry.
pub fn register_baselines(registry: &mut EngineRegistry) {
    registry.register(Arc::new(AnnealingEngine));
    registry.register(Arc::new(TessellationEngine));
}

/// The full five-engine registry: `milp`, `ho`, `combinatorial`,
/// `annealing` and `tessellation`, all with default configurations.
pub fn full_registry() -> EngineRegistry {
    let mut registry = EngineRegistry::builtin();
    register_baselines(&mut registry);
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_device::{columnar_partition, DeviceBuilder, ResourceVec};
    use rfp_floorplan::problem::{RegionSpec, RelocationRequest};

    fn problem() -> FloorplanProblem {
        let mut b = DeviceBuilder::new("baseline-engines");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
        b.rows(4).columns(&[clb, clb, bram, clb, clb, bram, clb, clb]);
        let mut p = FloorplanProblem::new(columnar_partition(&b.build().unwrap()).unwrap());
        let a = p.add_region(RegionSpec::new("A", vec![(clb, 3), (bram, 1)]));
        let b2 = p.add_region(RegionSpec::new("B", vec![(clb, 2)]));
        p.connect(a, b2, 16.0);
        p
    }

    #[test]
    fn full_registry_has_all_five_engines() {
        let r = full_registry();
        assert_eq!(r.ids(), vec!["milp", "ho", "combinatorial", "annealing", "tessellation"]);
    }

    #[test]
    fn baseline_engines_solve_and_never_claim_proof() {
        let p = problem();
        let req = SolveRequest::new(p.clone());
        for id in ["annealing", "tessellation"] {
            let outcome = full_registry().get(id).unwrap().solve(&req, &SolveControl::default());
            assert_eq!(outcome.status, OutcomeStatus::Feasible, "{id}: {:?}", outcome.detail);
            assert!(!outcome.is_proven());
            assert!(outcome.floorplan.unwrap().validate(&p).is_empty());
            assert_eq!(outcome.stats.engine, id);
        }
    }

    #[test]
    fn relocation_constraints_make_the_baselines_infeasible() {
        let mut p = problem();
        p.request_relocation(RelocationRequest::constraint(0, 1));
        let req = SolveRequest::new(p);
        for id in ["annealing", "tessellation"] {
            let outcome = full_registry().get(id).unwrap().solve(&req, &SolveControl::default());
            assert_eq!(outcome.status, OutcomeStatus::Infeasible, "{id}");
        }
    }

    #[test]
    fn metric_mode_relocation_is_reported_missing_not_infeasible() {
        let mut p = problem();
        p.request_relocation(RelocationRequest::metric(0, 2, 1.0));
        let req = SolveRequest::new(p.clone());
        for id in ["annealing", "tessellation"] {
            let outcome = full_registry().get(id).unwrap().solve(&req, &SolveControl::default());
            assert_eq!(outcome.status, OutcomeStatus::Feasible, "{id}");
            let m = outcome.metrics.unwrap();
            assert_eq!(m.fc_requested, 2);
            assert_eq!(m.fc_found, 0);
            assert!(m.relocation_cost > 0.0);
        }
    }

    #[test]
    fn cancelled_annealing_engine_reports_budget_exhausted_or_partial() {
        let p = problem();
        let ctl = SolveControl::default();
        ctl.cancel.cancel();
        let outcome = AnnealingEngine.solve(&SolveRequest::new(p), &ctl);
        assert!(outcome.stats.cancelled);
    }
}
