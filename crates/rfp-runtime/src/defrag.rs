//! Relocation-based defragmentation planning.
//!
//! When an arrival cannot be placed — or the fragmentation of the free space
//! crosses a threshold — the simulator compacts the live placement by moving
//! running modules. Three policies are implemented:
//!
//! * [`DefragPolicy::RelocationAware`] — the paper's cost model applied at
//!   runtime: moves are planned **cheapest first** (fewest configuration
//!   frames) and only onto *compatible* target areas, so every move goes
//!   through the relocation filter (a frame-address rewrite). Planning stops
//!   as soon as the goal is met, so the plan moves as few frames as the
//!   compatible move set allows.
//! * [`DefragPolicy::Oblivious`] — a classic full left-compaction that
//!   ignores move costs entirely: every module is pushed as far
//!   up-and-left as its requirements allow, whether or not the target is
//!   compatible (incompatible targets cost a re-synthesis-equivalent
//!   regeneration). This is the baseline the relocation-aware policy is
//!   measured against.
//! * [`DefragPolicy::NoBreak`] — Fekete et al.'s *no-break* defragmentation:
//!   like the aware policy, but every planned target must additionally be
//!   **disjoint from the mover's own current area** so the move can execute
//!   as a double-buffered copy-then-switch (see
//!   [`crate::scheduler::MoveScheduler`]) with zero stopped-module downtime.
//!   That shadow-capacity constraint can deadlock a chain of mutually
//!   blocking modules; the planner then breaks the cycle with **one buffered
//!   bounce** — a single sideways move of the cheapest bounceable module
//!   into scratch space — before resuming the leftward compaction.
//!
//! Plans are *sequential*: each move's target is free with respect to the
//! placement **after** the moves before it, so replaying a plan in order
//! never overlaps another running module (the mover itself is reprogrammed
//! from its bitstream in memory, so sliding over its own old area is legal).
//! The executor in [`crate::online`] re-checks that invariant move by move.

use crate::frag::frag_metrics;
use crate::scenario::ModuleId;
use rfp_device::compat::enumerate_free_compatible;
use rfp_device::{FabricPartition, Rect};
use rfp_floorplan::candidates::{enumerate_candidates, first_fit};
use rfp_floorplan::RegionSpec;

/// Defragmentation planning policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefragPolicy {
    /// Cheapest-first compaction over compatible targets only (relocation
    /// traffic minimised).
    RelocationAware,
    /// Cost-oblivious full left-compaction (the baseline).
    Oblivious,
    /// Cheapest-first compaction over compatible targets that are disjoint
    /// from the mover's current area, so every move executes as a
    /// double-buffered copy with zero downtime (stop-and-move only as a
    /// last-resort fallback in the executor).
    NoBreak,
}

impl DefragPolicy {
    /// All policies, in study/report order.
    pub const ALL: [DefragPolicy; 3] =
        [DefragPolicy::RelocationAware, DefragPolicy::Oblivious, DefragPolicy::NoBreak];

    /// Stable id used in reports and on the CLI.
    pub fn id(self) -> &'static str {
        match self {
            DefragPolicy::RelocationAware => "aware",
            DefragPolicy::Oblivious => "oblivious",
            DefragPolicy::NoBreak => "no_break",
        }
    }

    /// Parses a CLI policy name.
    pub fn from_id(id: &str) -> Option<Self> {
        match id {
            "aware" => Some(DefragPolicy::RelocationAware),
            "oblivious" => Some(DefragPolicy::Oblivious),
            "no_break" | "no-break" => Some(DefragPolicy::NoBreak),
            _ => None,
        }
    }
}

/// A module currently configured on the device, as the planner sees it.
#[derive(Debug, Clone)]
pub struct LiveModule {
    /// Scenario module id.
    pub id: ModuleId,
    /// Resource requirement of the module.
    pub spec: RegionSpec,
    /// Current placement.
    pub rect: Rect,
    /// Configuration frames of the module's bitstream (the per-move cost).
    pub frames: u64,
}

/// One planned relocation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedMove {
    /// Module to move.
    pub module: ModuleId,
    /// Where it currently sits.
    pub from: Rect,
    /// Where it goes.
    pub to: Rect,
}

/// What a compaction run tries to achieve.
#[derive(Debug, Clone, Copy)]
pub enum CompactionGoal<'a> {
    /// Stop as soon as a non-overlapping placement for this requirement
    /// exists somewhere on the device.
    FitModule(&'a RegionSpec),
    /// Stop as soon as all of these requirements can be placed greedily,
    /// pairwise disjoint, somewhere on the device (the batched-arrival
    /// goal: one compaction serves every same-timestamp arrival).
    FitModules(&'a [RegionSpec]),
    /// Compact until fragmentation drops to the threshold or below.
    Fragmentation(f64),
}

/// The defragmentation planner.
#[derive(Debug, Clone)]
pub struct DefragPlanner {
    /// Planning policy.
    pub policy: DefragPolicy,
    /// Fixpoint cap: full passes over the module list per plan.
    pub max_passes: u32,
}

impl Default for DefragPlanner {
    fn default() -> Self {
        DefragPlanner { policy: DefragPolicy::RelocationAware, max_passes: 3 }
    }
}

impl DefragPlanner {
    /// Plans a compaction of `modules` towards `goal`.
    ///
    /// The returned moves are in execution order; `modules` is not modified —
    /// the caller replays the plan through its configuration-memory model.
    pub fn plan(
        &self,
        partition: &FabricPartition,
        modules: &[LiveModule],
        goal: CompactionGoal<'_>,
    ) -> Vec<PlannedMove> {
        let mut rects: Vec<Rect> = modules.iter().map(|m| m.rect).collect();
        let mut plan = Vec::new();

        // Visit order: the aware and no-break policies touch cheap modules
        // first and can stop early; the oblivious baseline sweeps
        // left-to-right and always compacts everything it can.
        let mut order: Vec<usize> = (0..modules.len()).collect();
        match self.policy {
            DefragPolicy::RelocationAware | DefragPolicy::NoBreak => {
                order.sort_by_key(|&i| (modules[i].frames, modules[i].id));
            }
            DefragPolicy::Oblivious => {
                order.sort_by_key(|&i| (modules[i].rect.x, modules[i].rect.y, modules[i].id));
            }
        }

        // The no-break policy may break one deadlocked move chain per plan
        // with a sideways "bounce" into scratch space; every other move goes
        // strictly up-or-left, so planning still terminates.
        let mut bounced = false;
        for _ in 0..self.max_passes {
            if self.goal_met(partition, &rects, goal) {
                break;
            }
            let mut moved_any = false;
            for &i in &order {
                if self.goal_met(partition, &rects, goal) {
                    break;
                }
                let others: Vec<Rect> =
                    rects.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, r)| *r).collect();
                let target = match self.policy {
                    DefragPolicy::RelocationAware => {
                        // Compatible targets only, free of every *other*
                        // running module (the mover may slide over its own
                        // old area — it is reprogrammed from memory).
                        enumerate_free_compatible(partition, &rects[i], &others)
                            .into_iter()
                            .filter(|t| is_left_of(t, &rects[i]))
                            .min_by_key(|t| (t.x, t.y))
                    }
                    DefragPolicy::NoBreak => {
                        // Like aware, but the target must not touch the
                        // mover's own current area either: the shadow copy
                        // and the running original coexist during the move.
                        enumerate_free_compatible(partition, &rects[i], &others)
                            .into_iter()
                            .filter(|t| is_left_of(t, &rects[i]) && !t.overlaps(&rects[i]))
                            .min_by_key(|t| (t.x, t.y))
                    }
                    DefragPolicy::Oblivious => {
                        // Any placement satisfying the requirement, as far
                        // up-and-left as it goes, compatibility ignored.
                        let cands = enumerate_candidates(partition, &modules[i].spec);
                        cands
                            .iter()
                            .map(|c| c.rect)
                            .filter(|t| {
                                is_left_of(t, &rects[i]) && !others.iter().any(|o| o.overlaps(t))
                            })
                            .min_by_key(|t| (t.x, t.y))
                    }
                };
                if let Some(to) = target {
                    plan.push(PlannedMove { module: modules[i].id, from: rects[i], to });
                    rects[i] = to;
                    moved_any = true;
                }
            }
            if !moved_any {
                if self.policy == DefragPolicy::NoBreak && !bounced {
                    bounced = true;
                    if self.bounce(partition, modules, &mut rects, &mut plan, &order) {
                        continue;
                    }
                }
                break;
            }
        }
        plan
    }

    /// Breaks a deadlocked no-break chain: moves the cheapest module that has
    /// *any* disjoint free compatible target (leftward or not) out of the
    /// way, buffered like every other no-break move. Returns `true` when a
    /// bounce was planned.
    fn bounce(
        &self,
        partition: &FabricPartition,
        modules: &[LiveModule],
        rects: &mut [Rect],
        plan: &mut Vec<PlannedMove>,
        order: &[usize],
    ) -> bool {
        for &i in order {
            let others: Vec<Rect> =
                rects.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, r)| *r).collect();
            let spot = enumerate_free_compatible(partition, &rects[i], &others)
                .into_iter()
                .filter(|t| !t.overlaps(&rects[i]))
                .min_by_key(|t| (t.x, t.y));
            if let Some(to) = spot {
                plan.push(PlannedMove { module: modules[i].id, from: rects[i], to });
                rects[i] = to;
                return true;
            }
        }
        false
    }

    fn goal_met(
        &self,
        partition: &FabricPartition,
        rects: &[Rect],
        goal: CompactionGoal<'_>,
    ) -> bool {
        match goal {
            // The oblivious baseline is goal-blind by definition: it always
            // compacts to its fixpoint.
            _ if self.policy == DefragPolicy::Oblivious => false,
            CompactionGoal::FitModule(spec) => first_fit(partition, spec, rects).is_some(),
            CompactionGoal::FitModules(specs) => {
                let mut occupied = rects.to_vec();
                specs.iter().all(|spec| match first_fit(partition, spec, &occupied) {
                    Some(rect) => {
                        occupied.push(rect);
                        true
                    }
                    None => false,
                })
            }
            CompactionGoal::Fragmentation(threshold) => {
                frag_metrics(partition, rects).fragmentation <= threshold
            }
        }
    }
}

/// Strictly up-or-left ordering used to guarantee compaction terminates.
fn is_left_of(a: &Rect, b: &Rect) -> bool {
    (a.x, a.y) < (b.x, b.y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_device::{fabric_partition, DeviceBuilder, ResourceVec};

    /// 12 CLB columns x 2 rows (uniform, so every same-shape area is
    /// compatible).
    fn uniform() -> (FabricPartition, rfp_device::TileTypeId) {
        let mut b = DeviceBuilder::new("defrag-uniform");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        b.rows(2).repeat_column(clb, 12);
        (fabric_partition(&b.build().unwrap()).unwrap(), clb)
    }

    fn live(id: ModuleId, spec: RegionSpec, rect: Rect, frames: u64) -> LiveModule {
        LiveModule { id, spec, rect, frames }
    }

    #[test]
    fn aware_plan_stops_once_the_pending_module_fits() {
        let (p, clb) = uniform();
        // Two 2x2 modules with gaps: free space is fragmented, a 6-wide
        // module cannot fit until something moves.
        let m0 = live(0, RegionSpec::new("m0", vec![(clb, 4)]), Rect::new(4, 1, 2, 2), 144);
        let m1 = live(1, RegionSpec::new("m1", vec![(clb, 4)]), Rect::new(9, 1, 2, 2), 144);
        let pending = RegionSpec::new("big", vec![(clb, 12)]);
        assert!(first_fit(&p, &pending, &[m0.rect, m1.rect]).is_none());

        let planner = DefragPlanner::default();
        let plan = plan_and_check(&planner, &p, &[m0, m1], CompactionGoal::FitModule(&pending));
        assert!(!plan.is_empty());
        // The plan frees a 6x2 window with as few moves as possible.
        assert!(plan.len() <= 2, "aware plan moved more than necessary: {plan:?}");
    }

    #[test]
    fn oblivious_plan_compacts_everything_left() {
        let (p, clb) = uniform();
        let m0 = live(0, RegionSpec::new("m0", vec![(clb, 4)]), Rect::new(4, 1, 2, 2), 144);
        let m1 = live(1, RegionSpec::new("m1", vec![(clb, 4)]), Rect::new(9, 1, 2, 2), 144);
        let planner = DefragPlanner { policy: DefragPolicy::Oblivious, max_passes: 3 };
        let plan = plan_and_check(
            &planner,
            &p,
            &[m0, m1],
            CompactionGoal::Fragmentation(1.0), // goal-blind anyway
        );
        // Both modules end packed against the left edge.
        assert!(plan.iter().any(|m| m.module == 0 && m.to.x == 1));
        assert!(plan.iter().any(|m| m.module == 1 && m.to.x == 3));
    }

    #[test]
    fn aware_plan_is_empty_when_fragmentation_is_already_low() {
        let (p, clb) = uniform();
        let m0 = live(0, RegionSpec::new("m0", vec![(clb, 4)]), Rect::new(1, 1, 2, 2), 144);
        let planner = DefragPlanner::default();
        let plan = planner.plan(&p, &[m0], CompactionGoal::Fragmentation(0.5));
        assert!(plan.is_empty());
    }

    #[test]
    fn aware_moves_only_to_compatible_targets() {
        // Mixed column types: CLB CLB BRAM CLB CLB BRAM CLB CLB — a module on
        // a CLB|BRAM window can only move to the other CLB|BRAM window.
        let mut b = DeviceBuilder::new("defrag-mixed");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
        b.rows(1).columns(&[clb, clb, bram, clb, clb, bram, clb, clb]);
        let p = fabric_partition(&b.build().unwrap()).unwrap();
        let spec = RegionSpec::new("m", vec![(clb, 1), (bram, 1)]);
        let m = live(0, spec, Rect::new(5, 1, 2, 1), 66);
        let planner = DefragPlanner::default();
        let plan = planner.plan(&p, &[m], CompactionGoal::Fragmentation(0.0));
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].to, Rect::new(2, 1, 2, 1), "the only compatible window to the left");
    }

    #[test]
    fn no_break_plan_uses_only_disjoint_shadow_targets() {
        let (p, clb) = uniform();
        // Same fragmented layout as the aware test: every planned move must
        // additionally land fully clear of the mover's own current area.
        let m0 = live(0, RegionSpec::new("m0", vec![(clb, 4)]), Rect::new(4, 1, 2, 2), 144);
        let m1 = live(1, RegionSpec::new("m1", vec![(clb, 4)]), Rect::new(9, 1, 2, 2), 144);
        let pending = RegionSpec::new("big", vec![(clb, 12)]);
        let planner = DefragPlanner { policy: DefragPolicy::NoBreak, max_passes: 3 };
        let plan = plan_and_check(&planner, &p, &[m0, m1], CompactionGoal::FitModule(&pending));
        assert!(!plan.is_empty());
        for mv in &plan {
            assert!(!mv.to.overlaps(&mv.from), "no-break move {mv:?} overlaps its own source");
        }
    }

    #[test]
    fn no_break_bounces_once_to_break_a_deadlock() {
        let (p, clb) = uniform();
        // A 7x2 module on a 12-wide device: every leftward shift of less
        // than its width overlaps its own area, so the shadow constraint
        // deadlocks the leftward pass — only the bounce clause can move it
        // (left is impossible here; the plan stays downtime-free by simply
        // not moving). A second small module sits flush left and cannot
        // move either.
        let wide = live(0, RegionSpec::new("wide", vec![(clb, 14)]), Rect::new(4, 1, 7, 2), 504);
        let small = live(1, RegionSpec::new("small", vec![(clb, 4)]), Rect::new(1, 1, 2, 2), 144);
        let planner = DefragPlanner { policy: DefragPolicy::NoBreak, max_passes: 3 };
        let plan =
            planner.plan(&p, &[wide.clone(), small.clone()], CompactionGoal::Fragmentation(0.0));
        // Whatever the plan does, it must stay executable and disjoint.
        let mut rects = vec![(wide.id, wide.rect), (small.id, small.rect)];
        for mv in &plan {
            assert!(!mv.to.overlaps(&mv.from), "{mv:?} is not double-bufferable");
            for &(id, r) in &rects {
                assert!(id == mv.module || !r.overlaps(&mv.to));
            }
            rects.iter_mut().find(|(id, _)| *id == mv.module).unwrap().1 = mv.to;
        }
    }

    #[test]
    fn policy_ids_round_trip() {
        for policy in DefragPolicy::ALL {
            assert_eq!(DefragPolicy::from_id(policy.id()), Some(policy));
        }
        assert_eq!(DefragPolicy::from_id("no-break"), Some(DefragPolicy::NoBreak));
        assert_eq!(DefragPolicy::from_id("nonsense"), None);
    }

    #[test]
    fn fit_modules_goal_requires_all_pending_arrivals_to_fit() {
        let (p, clb) = uniform();
        let m0 = live(0, RegionSpec::new("m0", vec![(clb, 4)]), Rect::new(4, 1, 2, 2), 144);
        let m1 = live(1, RegionSpec::new("m1", vec![(clb, 4)]), Rect::new(9, 1, 2, 2), 144);
        let a = RegionSpec::new("a", vec![(clb, 8)]);
        let b = RegionSpec::new("b", vec![(clb, 8)]);
        let batch = [a, b];
        assert!(
            first_fit(&p, &RegionSpec::new("big", vec![(clb, 12)]), &[m0.rect, m1.rect]).is_none()
        );
        let planner = DefragPlanner::default();
        let plan = plan_and_check(
            &planner,
            &p,
            &[m0.clone(), m1.clone()],
            CompactionGoal::FitModules(&batch),
        );
        // Replay the plan, then both batch members must fit greedily.
        let mut rects = vec![m0.rect, m1.rect];
        for mv in &plan {
            let slot = rects.iter_mut().find(|r| **r == mv.from).unwrap();
            *slot = mv.to;
        }
        let first = first_fit(&p, &batch[0], &rects).expect("first batch member fits");
        rects.push(first);
        assert!(first_fit(&p, &batch[1], &rects).is_some(), "second batch member fits");
    }

    /// Replays a plan step by step asserting no move overlaps a running
    /// module, then returns it.
    fn plan_and_check(
        planner: &DefragPlanner,
        p: &FabricPartition,
        modules: &[LiveModule],
        goal: CompactionGoal<'_>,
    ) -> Vec<PlannedMove> {
        let plan = planner.plan(p, modules, goal);
        let mut rects: Vec<(ModuleId, Rect)> = modules.iter().map(|m| (m.id, m.rect)).collect();
        for mv in &plan {
            for &(id, r) in &rects {
                assert!(
                    id == mv.module || !r.overlaps(&mv.to),
                    "move {mv:?} overlaps running module {id} at {r}"
                );
            }
            let slot = rects.iter_mut().find(|(id, _)| *id == mv.module).unwrap();
            assert_eq!(slot.1, mv.from, "plan is not sequential");
            slot.1 = mv.to;
        }
        plan
    }
}
