//! Simulated-annealing floorplanner (in the spirit of \[9\]).
//!
//! Bolchini et al. explore the placement space with simulated annealing and
//! mainly optimise the overall wire length. The reproduction anneals over the
//! candidate placements enumerated by `rfp-floorplan`:
//!
//! * the state assigns one candidate rectangle to every region;
//! * a move re-assigns a random region to a random candidate;
//! * the cost is a weighted sum of pairwise overlap area (heavily penalised),
//!   wire length and wasted frames;
//! * a geometric cooling schedule with a fixed iteration budget keeps runs
//!   reproducible (the RNG is seeded).
//!
//! The annealer does not handle relocation requests — like the original
//! baseline it predates the relocation-aware formulation — so requested
//! free-compatible areas are reported as missing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfp_device::Rect;
use rfp_floorplan::candidates::{enumerate_candidates, Candidate};
use rfp_floorplan::engine::SolveControl;
use rfp_floorplan::placement::{FcPlacement, Floorplan};
use rfp_floorplan::problem::FloorplanProblem;
use rfp_floorplan::FloorplanError;
use std::time::Instant;

/// Number of proposed moves.
const ITERATIONS: usize = 20_000;
/// Initial temperature.
const INITIAL_TEMPERATURE: f64 = 1000.0;
/// Geometric cooling factor applied every `ITERATIONS / 100` moves.
const COOLING: f64 = 0.95;
/// Weight of the wire-length term.
const WIRELENGTH_WEIGHT: f64 = 1.0;
/// Weight of the wasted-frames term.
const WASTE_WEIGHT: f64 = 0.05;
/// Penalty per overlapping tile (must dwarf the other terms).
const OVERLAP_PENALTY: f64 = 10_000.0;

/// Parameters of the simulated-annealing baseline. The move budget, the
/// temperature schedule and the cost weights are fixed.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealingConfig {
    /// RNG seed. Tests vary it to check that runs are seed-determined.
    pub seed: u64,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        AnnealingConfig { seed: 1 }
    }
}

/// The simulated-annealing floorplanner.
#[derive(Debug, Clone, Default)]
pub struct AnnealingFloorplanner {
    /// Parameters.
    pub config: AnnealingConfig,
}

struct State<'a> {
    problem: &'a FloorplanProblem,
    candidates: &'a [Vec<Candidate>],
    /// Chosen candidate index per region.
    choice: Vec<usize>,
}

impl<'a> State<'a> {
    fn rects(&self) -> Vec<Rect> {
        self.choice.iter().enumerate().map(|(r, &c)| self.candidates[r][c].rect).collect()
    }

    fn cost(&self) -> f64 {
        let rects = self.rects();
        let mut overlap_tiles = 0u64;
        for i in 0..rects.len() {
            for j in (i + 1)..rects.len() {
                if let Some(inter) = rects[i].intersection(&rects[j]) {
                    overlap_tiles += inter.area();
                }
            }
        }
        let mut wirelength = 0.0;
        for c in &self.problem.connections {
            wirelength += c.weight * rects[c.a].center_distance_x2(&rects[c.b]) as f64 / 2.0;
        }
        let waste: u64 =
            self.choice.iter().enumerate().map(|(r, &c)| self.candidates[r][c].waste).sum();
        OVERLAP_PENALTY * overlap_tiles as f64
            + WIRELENGTH_WEIGHT * wirelength
            + WASTE_WEIGHT * waste as f64
    }

    fn is_overlap_free(&self) -> bool {
        let rects = self.rects();
        for i in 0..rects.len() {
            for j in (i + 1)..rects.len() {
                if rects[i].overlaps(&rects[j]) {
                    return false;
                }
            }
        }
        true
    }
}

/// Details of a controlled annealing run (see
/// [`AnnealingFloorplanner::solve_with_control`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealingRun {
    /// Best overlap-free floorplan found, if any.
    pub floorplan: Option<Floorplan>,
    /// Moves actually proposed (may be below the configured iteration budget
    /// when the run was cancelled or hit its deadline).
    pub moves: u64,
    /// `true` when the run stopped on the control's cancellation token.
    pub cancelled: bool,
    /// `true` when the run stopped because the deadline expired (as opposed
    /// to completing its iteration budget or being cancelled).
    pub hit_deadline: bool,
}

impl AnnealingFloorplanner {
    /// Creates an annealer with the given configuration.
    pub fn new(config: AnnealingConfig) -> Self {
        AnnealingFloorplanner { config }
    }

    /// Runs the annealer under a [`SolveControl`] and an optional deadline:
    /// the annealer's one entry point, which
    /// [`crate::engines::AnnealingEngine`] wraps.
    ///
    /// The move loop polls the control's cancellation token (and the
    /// deadline) every few hundred proposals and stops early, keeping the
    /// best floorplan found so far.
    pub fn solve_with_control(
        &self,
        problem: &FloorplanProblem,
        deadline: Option<Instant>,
        ctl: &SolveControl,
    ) -> Result<AnnealingRun, FloorplanError> {
        problem.validate()?;
        let mut candidates = Vec::with_capacity(problem.regions.len());
        for spec in &problem.regions {
            let cands = enumerate_candidates(&problem.partition, spec);
            if cands.is_empty() {
                return Err(FloorplanError::ImpossibleRequirement {
                    region: spec.name.clone(),
                    detail: "no candidate placement satisfies the requirement".to_string(),
                });
            }
            candidates.push(cands);
        }

        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut state = State {
            problem,
            candidates: &candidates,
            choice: (0..problem.regions.len())
                .map(|r| rng.gen_range(0..candidates[r].len()))
                .collect(),
        };
        let mut cost = state.cost();
        let mut best: Option<(f64, Vec<usize>)> =
            state.is_overlap_free().then(|| (cost, state.choice.clone()));

        let mut temperature = INITIAL_TEMPERATURE;
        let cooling_period = ITERATIONS / 100;
        let mut moves = 0u64;
        let mut cancelled = false;
        let mut hit_deadline = false;
        for it in 0..ITERATIONS {
            if it % 256 == 0 {
                if ctl.cancel.is_cancelled() {
                    cancelled = true;
                    break;
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    hit_deadline = true;
                    break;
                }
            }
            moves += 1;
            let region = rng.gen_range(0..state.choice.len());
            let old_choice = state.choice[region];
            let new_choice = rng.gen_range(0..candidates[region].len());
            if new_choice == old_choice {
                continue;
            }
            state.choice[region] = new_choice;
            let new_cost = state.cost();
            let delta = new_cost - cost;
            let accept = delta <= 0.0 || rng.gen_bool((-delta / temperature).exp().clamp(0.0, 1.0));
            if accept {
                cost = new_cost;
                if state.is_overlap_free() && best.as_ref().is_none_or(|(bc, _)| cost < *bc) {
                    best = Some((cost, state.choice.clone()));
                }
            } else {
                state.choice[region] = old_choice;
            }
            if it % cooling_period == 0 {
                temperature = (temperature * COOLING).max(1e-3);
            }
        }

        let Some((_, choice)) = best else {
            return Ok(AnnealingRun { floorplan: None, moves, cancelled, hit_deadline });
        };
        state.choice = choice;
        let mut floorplan = Floorplan::from_regions(state.rects());
        // The baseline is relocation-unaware: every requested area is missing.
        for (request, region, mode) in problem.fc_areas() {
            floorplan.fc_areas.push(FcPlacement { request, region, mode, rect: None });
        }
        let issues = floorplan.validate(problem);
        // Only relocation-constraint violations are expected for this baseline.
        if issues.iter().any(|i| !i.contains("was not identified")) {
            return Err(FloorplanError::Infeasible { reason: issues.join("; ") });
        }
        Ok(AnnealingRun { floorplan: Some(floorplan), moves, cancelled, hit_deadline })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_device::{columnar_partition, DeviceBuilder, ResourceVec};
    use rfp_floorplan::combinatorial::{solve_combinatorial, CombinatorialConfig};
    use rfp_floorplan::problem::{RegionSpec, RelocationRequest};

    fn problem() -> FloorplanProblem {
        let mut b = DeviceBuilder::new("sa");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
        b.rows(4).columns(&[clb, clb, bram, clb, clb, bram, clb, clb]);
        let part = columnar_partition(&b.build().unwrap()).unwrap();
        let mut p = FloorplanProblem::new(part);
        let a = p.add_region(RegionSpec::new("A", vec![(clb, 3), (bram, 1)]));
        let b2 = p.add_region(RegionSpec::new("B", vec![(clb, 2)]));
        let c = p.add_region(RegionSpec::new("C", vec![(clb, 1), (bram, 1)]));
        p.connect_chain(&[a, b2, c], 16.0);
        p
    }

    /// The best floorplan of an uncontrolled run with `config`.
    fn anneal(config: AnnealingConfig, p: &FloorplanProblem) -> Floorplan {
        let run = AnnealingFloorplanner::new(config)
            .solve_with_control(p, None, &SolveControl::default())
            .unwrap();
        run.floorplan.expect("an overlap-free floorplan")
    }

    #[test]
    fn annealing_finds_a_valid_floorplan() {
        let p = problem();
        let fp = anneal(AnnealingConfig::default(), &p);
        assert!(fp.validate(&p).is_empty(), "{:?}", fp.validate(&p));
    }

    #[test]
    fn annealing_is_deterministic_for_a_seed() {
        let p = problem();
        let a = anneal(AnnealingConfig::default(), &p);
        let b = anneal(AnnealingConfig::default(), &p);
        assert_eq!(a, b);
        let other_seed = anneal(AnnealingConfig { seed: 7 }, &p);
        // Different seeds may or may not give the same floorplan; both must be valid.
        assert!(other_seed.validate(&p).is_empty());
    }

    #[test]
    fn annealing_cannot_beat_the_exact_engine_on_waste_plus_wirelength() {
        let p = problem();
        let sa = anneal(AnnealingConfig::default(), &p);
        let exact =
            solve_combinatorial(&p, &CombinatorialConfig::default(), &SolveControl::default())
                .unwrap();
        let sa_m = sa.metrics(&p);
        let exact_waste = exact.best_waste.unwrap();
        assert!(sa_m.wasted_frames >= exact_waste);
    }

    #[test]
    fn relocation_requests_are_reported_missing() {
        let mut p = problem();
        p.request_relocation(RelocationRequest::metric(0, 2, 1.0));
        let fp = anneal(AnnealingConfig::default(), &p);
        assert_eq!(fp.fc_found(), 0);
        assert_eq!(fp.fc_areas.len(), 2);
        assert!(fp.metrics(&p).relocation_cost > 0.0);
    }

    #[test]
    fn cancelled_annealing_stops_before_proposing_moves() {
        let p = problem();
        let ctl = SolveControl::default();
        ctl.cancel.cancel();
        let run = AnnealingFloorplanner::default().solve_with_control(&p, None, &ctl).unwrap();
        assert!(run.cancelled);
        assert_eq!(run.moves, 0);
    }

    #[test]
    fn expired_deadline_stops_early_but_is_not_a_cancellation() {
        let p = problem();
        let run = AnnealingFloorplanner::default()
            .solve_with_control(&p, Some(Instant::now()), &SolveControl::default())
            .unwrap();
        assert!(!run.cancelled);
        assert!(run.hit_deadline);
        assert_eq!(run.moves, 0);
    }

    #[test]
    fn completed_runs_record_neither_deadline_nor_cancellation() {
        let p = problem();
        let run = AnnealingFloorplanner::default()
            .solve_with_control(&p, None, &SolveControl::default())
            .unwrap();
        assert!(!run.cancelled);
        assert!(!run.hit_deadline);
        assert!(run.moves > 0);
    }

    #[test]
    fn infeasible_requirements_error_out() {
        let mut p = problem();
        p.add_region(RegionSpec::new("huge", vec![(p.regions[0].tile_req()[0].0, 500)]));
        let run =
            AnnealingFloorplanner::default().solve_with_control(&p, None, &SolveControl::default());
        assert!(run.is_err());
    }
}
