//! The event-driven online floorplanner.
//!
//! [`OnlineFloorplanner`] maintains the live placement of a device while a
//! [`Scenario`] stream plays: modules arrive, depart and occasionally force
//! the layout to be reorganised. Every placement decision is backed by a
//! real [`rfp_bitstream::ConfigMemory`] — bitstreams are generated,
//! relocated (or regenerated) and programmed, so an overlap with a running
//! module is not just a bookkeeping bug but a configuration conflict the
//! memory model rejects.
//!
//! An arrival is handled by escalation:
//!
//! 1. **Incremental placement** — the memoised candidate enumeration of
//!    `rfp-floorplan` finds the lowest-waste free rectangle; cost: one table
//!    lookup plus overlap checks.
//! 2. **Defragmentation** — if nothing fits, the [`DefragPlanner`] compacts
//!    the live placement (policy-dependent, see [`DefragPolicy`]) and step 1
//!    is retried.
//! 3. **Engine re-solve** — as a last resort the full problem (running
//!    modules + the arrival) goes to a registry engine; the request is
//!    warm-started from the previous engine outcome adapted across the edit
//!    ([`adapt_floorplan`] — the incremental re-solve path). The solved
//!    layout is replayed as a sequence of relocation moves that never
//!    overlap a running module.
//!
//! Events sharing a timestamp are handled as **one batch**: departures
//! release their areas first (one proactive compaction check for the whole
//! group instead of one per departure), and the batch's arrivals escalate
//! *together* — one defragmentation towards a joint
//! [`CompactionGoal::FitModules`] goal and, if still needed, one engine
//! re-solve containing every pending arrival, instead of an escalation per
//! event.
//!
//! Every move executes through the policy's [`MoveScheduler`]: under the
//! `no_break` policy a move with a disjoint target is a double-buffered
//! copy-then-switch with **zero downtime**, while the aware/oblivious
//! baselines stop the module and accrue `downtime_frames` — the cost the
//! no-break defragmentation literature (Fekete et al.) measures.
//!
//! Departures release the module's area; when fragmentation then exceeds the
//! configured threshold, a proactive compaction runs.

use crate::defrag::{CompactionGoal, DefragPlanner, DefragPolicy, LiveModule, PlannedMove};
use crate::frag::frag_metrics;
use crate::report::{EventRecord, SimReport};
use crate::scenario::{EventKind, ModuleId, Scenario};
use crate::scheduler::MoveScheduler;
use rfp_bitstream::{Bitstream, ConfigMemory, MoveKind};
use rfp_device::{FabricPartition, Rect};
use rfp_floorplan::candidates::first_fit;
use rfp_floorplan::engine::{adapt_floorplan, SolveControl, SolveDispatcher, SolveRequest};
use rfp_floorplan::{Floorplan, FloorplanProblem, ObjectiveWeights, RegionSpec, SolveOutcome};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Cost multiplier for re-synthesis-equivalent frames, written into every
/// [`SimReport`].
const RESYNTHESIS_FACTOR: f64 = 20.0;

/// Configuration of the online floorplanner.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Registry engine used for escalation re-solves.
    pub engine: String,
    /// Defragmentation policy.
    pub policy: DefragPolicy,
    /// Fragmentation threshold that triggers a proactive compaction after a
    /// departure (1.0 disables proactive defragmentation).
    pub defrag_threshold: f64,
    /// Wall-clock budget (seconds) per escalation re-solve.
    pub engine_time_limit: f64,
    /// Fixpoint cap for compaction passes. Tests set 0 to turn the
    /// defragmentation stage off.
    pub max_passes: u32,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            engine: "combinatorial".to_string(),
            policy: DefragPolicy::RelocationAware,
            defrag_threshold: 0.5,
            engine_time_limit: 10.0,
            max_passes: 3,
        }
    }
}

/// Error raised when a scenario cannot be simulated at all.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The event stream is malformed (see [`Scenario::validate`]).
    InvalidScenario(Vec<String>),
    /// The configured engine id is not registered.
    UnknownEngine(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidScenario(issues) => {
                write!(f, "invalid scenario: {}", issues.join("; "))
            }
            SimError::UnknownEngine(id) => write!(f, "unknown engine `{id}`"),
        }
    }
}

impl std::error::Error for SimError {}

/// A running module: its requirement, placement and live bitstream.
#[derive(Debug, Clone)]
struct Running {
    spec: RegionSpec,
    rect: Rect,
    bitstream: Bitstream,
}

/// Per-event accounting accumulated while handling one event.
#[derive(Debug, Default)]
struct Traffic {
    moves: u64,
    frames_relocated: u64,
    frames_resynthesized: u64,
    downtime_frames: u64,
    violations: Vec<String>,
}

/// The online floorplanner state machine.
pub struct OnlineFloorplanner {
    partition: FabricPartition,
    config: OnlineConfig,
    dispatcher: Arc<dyn SolveDispatcher>,
    scheduler: MoveScheduler,
    running: BTreeMap<ModuleId, Running>,
    /// Arrivals that were rejected (their departures are no-ops).
    rejected: BTreeSet<ModuleId>,
    memory: ConfigMemory,
    /// Previous escalation outcome + the module ids its regions describe, in
    /// region order — the warm-start seed of the next re-solve.
    last_solve: Option<(SolveOutcome, Vec<ModuleId>)>,
}

impl OnlineFloorplanner {
    /// Creates an empty online floorplanner that escalates through an
    /// arbitrary [`SolveDispatcher`] — a bare
    /// [`EngineRegistry`](rfp_floorplan::engine::EngineRegistry), or a
    /// queue-worker solve service with its outcome cache.
    pub fn with_dispatcher(
        partition: FabricPartition,
        dispatcher: Arc<dyn SolveDispatcher>,
        config: OnlineConfig,
    ) -> Self {
        OnlineFloorplanner {
            partition,
            scheduler: MoveScheduler::for_policy(config.policy),
            config,
            dispatcher,
            running: BTreeMap::new(),
            rejected: BTreeSet::new(),
            memory: ConfigMemory::new(),
            last_solve: None,
        }
    }

    /// Rectangles currently occupied, in module-id order.
    fn occupied(&self) -> Vec<Rect> {
        self.running.values().map(|r| r.rect).collect()
    }

    fn live_modules(&self) -> Vec<LiveModule> {
        self.running
            .iter()
            .map(|(&id, r)| LiveModule {
                id,
                spec: r.spec.clone(),
                rect: r.rect,
                frames: r.bitstream.n_frames() as u64,
            })
            .collect()
    }

    /// Executes one planned move through the bitstream/configuration-memory
    /// model, recording traffic and any violation.
    fn execute_move(&mut self, mv: &PlannedMove, traffic: &mut Traffic) -> bool {
        let Some(running) = self.running.get(&mv.module) else {
            traffic.violations.push(format!("move of unknown module {}", mv.module));
            return false;
        };
        if running.rect != mv.from {
            traffic.violations.push(format!(
                "move of module {} expected it at {} but it is at {}",
                mv.module, mv.from, running.rect
            ));
            return false;
        }
        // No move may overlap another *running* module. The mover's own old
        // area is exempt: on the stop-and-move path the module is
        // reprogrammed from its bitstream in memory, so an in-place shift
        // only overwrites configuration it itself owns (the
        // configuration-memory model re-checks this; on the no-break path a
        // self-overlapping target simply cannot be double-buffered and falls
        // back to stop-and-move).
        for (&other, r) in &self.running {
            if other != mv.module && r.rect.overlaps(&mv.to) {
                traffic.violations.push(format!(
                    "move of module {} to {} overlaps running module {other} at {}",
                    mv.module, mv.to, r.rect
                ));
                return false;
            }
        }
        let executed = match self.scheduler.execute(
            &self.partition,
            &mut self.memory,
            mv.module,
            &running.bitstream,
            mv.to,
        ) {
            Ok(executed) => executed,
            Err(e) => {
                traffic.violations.push(e);
                return false;
            }
        };
        match executed.kind {
            MoveKind::Relocated => {
                traffic.frames_relocated += executed.frames;
                rfp_trace::count("runtime.frames_relocated", executed.frames);
            }
            MoveKind::Resynthesized => {
                traffic.frames_resynthesized += executed.frames;
                rfp_trace::count("runtime.frames_resynthesized", executed.frames);
            }
        }
        traffic.downtime_frames += executed.downtime_frames;
        traffic.moves += 1;
        rfp_trace::count("runtime.downtime_frames", executed.downtime_frames);
        rfp_trace::count("runtime.moves", 1);
        let running = self.running.get_mut(&mv.module).expect("checked above");
        running.rect = mv.to;
        running.bitstream = executed.bitstream;
        true
    }

    /// Runs a policy compaction towards `goal`; executes the plan move by
    /// move.
    fn compact(&mut self, goal: CompactionGoal<'_>, traffic: &mut Traffic) {
        let _defrag = rfp_trace::span("runtime.defrag");
        let planner =
            DefragPlanner { policy: self.config.policy, max_passes: self.config.max_passes };
        let plan = planner.plan(&self.partition, &self.live_modules(), goal);
        for mv in &plan {
            if !self.execute_move(mv, traffic) {
                break;
            }
        }
    }

    /// Admits a module at `rect`: generates and programs its bitstream.
    fn admit(
        &mut self,
        module: ModuleId,
        spec: &RegionSpec,
        rect: Rect,
        traffic: &mut Traffic,
    ) -> bool {
        let bitstream =
            match Bitstream::generate(&self.partition, spec.name.clone(), rect, module as u64) {
                Ok(bs) => bs,
                Err(e) => {
                    traffic.violations.push(format!("admission of module {module} failed: {e}"));
                    return false;
                }
            };
        if let Err(e) = self.memory.program(&format!("m{module}"), &bitstream) {
            traffic.violations.push(format!("admission conflict: {e}"));
            return false;
        }
        self.running.insert(module, Running { spec: spec.clone(), rect, bitstream });
        true
    }

    /// The escalation re-solve: running modules + every pending arrival of
    /// the batch as one static problem, warm-started from the previous
    /// outcome when it adapts. Returns the arrivals' rectangles (in batch
    /// order) on success; the layout moves for the running modules are
    /// executed as a side effect.
    fn escalate(
        &mut self,
        arrivals: &[(ModuleId, RegionSpec)],
        traffic: &mut Traffic,
    ) -> Option<Vec<Rect>> {
        let _resolve = rfp_trace::span("runtime.resolve");
        rfp_trace::count("runtime.escalations", 1);
        let ids: Vec<ModuleId> = self.running.keys().copied().collect();
        let mut problem = FloorplanProblem::new(self.partition.clone());
        problem.weights = ObjectiveWeights::area_only();
        for id in &ids {
            problem.add_region(self.running[id].spec.clone());
        }
        let first_arrival_region = ids.len();
        for (_, spec) in arrivals {
            problem.add_region(spec.clone());
        }
        if problem.validate().is_err() {
            return None;
        }

        // Warm start, best effort: previous outcome adapted across the edit,
        // falling back to the current placement.
        let hint = self
            .last_solve
            .as_ref()
            .and_then(|(outcome, old_ids)| {
                let fp = outcome.floorplan.as_ref()?;
                let mapping: Vec<Option<usize>> = ids
                    .iter()
                    .map(|id| old_ids.iter().position(|o| o == id))
                    .chain(arrivals.iter().map(|_| None))
                    .collect();
                adapt_floorplan(fp, &mapping, &problem)
            })
            .or_else(|| {
                let current = Floorplan::from_regions(self.occupied());
                let mapping: Vec<Option<usize>> =
                    (0..ids.len()).map(Some).chain(arrivals.iter().map(|_| None)).collect();
                adapt_floorplan(&current, &mapping, &problem)
            });

        let mut req = SolveRequest::new(problem).with_time_limit(self.config.engine_time_limit);
        if let Some(hint) = hint {
            req = req.with_warm_start(hint);
        }
        let outcome = self.dispatcher.dispatch(&self.config.engine, &req, &SolveControl::default());
        let target = outcome.floorplan.clone()?;

        // Replay the layout difference as a sequence of safe moves: pick any
        // pending move whose target is free right now; when none is, park a
        // pending module in scratch space to break the cycle.
        let mut pending: Vec<(ModuleId, Rect)> = ids
            .iter()
            .enumerate()
            .filter(|&(pos, id)| target.regions[pos] != self.running[id].rect)
            .map(|(pos, &id)| (id, target.regions[pos]))
            .collect();
        let arrival_rects: Vec<Rect> = target.regions[first_arrival_region..].to_vec();
        // Termination guard: each executed move either retires a pending
        // entry or parks a module, and a bounded number of parks per pending
        // entry is ample for any real cycle — when the budget runs out the
        // layout is abandoned (state stays consistent, arrival rejected)
        // instead of livelocking on a pathological park ping-pong.
        let mut budget = 2 * pending.len() + 4;
        while !pending.is_empty() {
            if budget == 0 {
                return None;
            }
            budget -= 1;
            // A move is executable when its target is free of every *other*
            // running module right now (self-overlapping shifts are legal —
            // see `execute_move`).
            let free_now = pending.iter().position(|(id, to)| {
                self.running.iter().all(|(other, r)| other == id || !r.rect.overlaps(to))
            });
            match free_now {
                Some(i) => {
                    let (id, to) = pending.remove(i);
                    let mv = PlannedMove { module: id, from: self.running[&id].rect, to };
                    if !self.execute_move(&mv, traffic) {
                        return None;
                    }
                }
                None => {
                    // Cycle: park the first pending module anywhere that is
                    // free now, does not block a final target, and actually
                    // moves it (a stay-put "park" would make no progress).
                    let blocked: Vec<Rect> = pending.iter().map(|&(_, to)| to).collect();
                    let parked = pending.iter().enumerate().find_map(|(i, &(id, _))| {
                        let current = self.running[&id].rect;
                        let mut occupied = self.occupied();
                        occupied.retain(|r| *r != current);
                        occupied.extend(blocked.iter().copied());
                        occupied.extend(arrival_rects.iter().copied());
                        let spot = first_fit(&self.partition, &self.running[&id].spec, &occupied)
                            .filter(|spot| *spot != current)?;
                        Some((i, id, spot))
                    });
                    let Some((_, id, spot)) = parked else {
                        // No scratch space: give up on this layout, state
                        // stays consistent (some moves may have happened).
                        return None;
                    };
                    rfp_trace::count("runtime.parks", 1);
                    let mv = PlannedMove { module: id, from: self.running[&id].rect, to: spot };
                    if !self.execute_move(&mv, traffic) {
                        return None;
                    }
                }
            }
        }

        // All running modules sit at their targets; the arrival slots are
        // free.
        self.last_solve = Some((
            outcome,
            ids.iter().copied().chain(arrivals.iter().map(|&(id, _)| id)).collect(),
        ));
        Some(arrival_rects)
    }

    /// Handles the arrivals of one same-timestamp batch through the
    /// three-stage escalation, sharing the defragmentation and the engine
    /// re-solve across the whole batch. Returns `(accepted, escalated)` per
    /// arrival, in batch order; shared-stage traffic accrues into the
    /// `traffic` entry of the first arrival that needed the stage.
    fn handle_arrivals(
        &mut self,
        batch: &[(ModuleId, RegionSpec)],
        traffics: &mut [Traffic],
    ) -> Vec<(bool, bool)> {
        debug_assert_eq!(batch.len(), traffics.len());
        let mut results: Vec<Option<(bool, bool)>> = vec![None; batch.len()];

        // Stage 1: incremental placement, batch members in stream order.
        let mut pending: Vec<usize> = Vec::new();
        {
            let _place = rfp_trace::span("runtime.place");
            for (i, (module, spec)) in batch.iter().enumerate() {
                match first_fit(&self.partition, spec, &self.occupied()) {
                    Some(rect) => {
                        results[i] =
                            Some((self.admit(*module, spec, rect, &mut traffics[i]), false));
                    }
                    None => pending.push(i),
                }
            }
        }

        // Stage 2: one defragmentation towards fitting *all* pending
        // arrivals, then retry the placement.
        if let Some(&first) = pending.first() {
            let specs: Vec<RegionSpec> = pending.iter().map(|&i| batch[i].1.clone()).collect();
            self.compact(CompactionGoal::FitModules(&specs), &mut traffics[first]);
            pending.retain(|&i| {
                let (module, spec) = &batch[i];
                match first_fit(&self.partition, spec, &self.occupied()) {
                    Some(rect) => {
                        results[i] =
                            Some((self.admit(*module, spec, rect, &mut traffics[i]), false));
                        false
                    }
                    None => true,
                }
            });
        }

        // Stage 3: one engine re-solve for every arrival still pending; when
        // the joint solve fails (e.g. one oversized module poisons the
        // batch), fall back to escalating the stragglers one by one so a
        // feasible arrival is never rejected because of an infeasible
        // neighbour.
        if let Some(&first) = pending.first() {
            let stragglers: Vec<(ModuleId, RegionSpec)> =
                pending.iter().map(|&i| batch[i].clone()).collect();
            match self.escalate(&stragglers, &mut traffics[first]) {
                Some(rects) => {
                    for (&i, rect) in pending.iter().zip(rects) {
                        let (module, spec) = &batch[i];
                        results[i] =
                            Some((self.admit(*module, spec, rect, &mut traffics[i]), true));
                    }
                }
                None if stragglers.len() > 1 => {
                    for &i in &pending {
                        let (module, spec) = batch[i].clone();
                        let outcome =
                            match self.escalate(&[(module, spec.clone())], &mut traffics[i]) {
                                Some(rects) => {
                                    (self.admit(module, &spec, rects[0], &mut traffics[i]), true)
                                }
                                None => (false, true),
                            };
                        results[i] = Some(outcome);
                    }
                }
                None => {
                    for &i in &pending {
                        results[i] = Some((false, true));
                    }
                }
            }
        }
        results.into_iter().map(|r| r.expect("every arrival resolved")).collect()
    }

    /// Re-checks every runtime invariant (used at checkpoints).
    fn check_invariants(&self, traffic: &mut Traffic) {
        let _checkpoint = rfp_trace::span("runtime.checkpoint");
        let rects: Vec<(ModuleId, Rect)> =
            self.running.iter().map(|(&id, r)| (id, r.rect)).collect();
        for (i, &(id_a, a)) in rects.iter().enumerate() {
            for &(id_b, b) in &rects[i + 1..] {
                if a.overlaps(&b) {
                    traffic
                        .violations
                        .push(format!("running modules {id_a} and {id_b} overlap ({a} vs {b})"));
                }
            }
        }
        for (&id, r) in &self.running {
            if !self.partition.placement_legal(&r.rect) {
                traffic.violations.push(format!("module {id} sits on an illegal area {}", r.rect));
            }
            let covered = self.partition.tiles_by_type_in_rect(&r.rect);
            for &(ty, need) in r.spec.tile_req() {
                let have = covered.iter().find(|(t, _)| *t == ty).map(|&(_, c)| c).unwrap_or(0);
                if have < need {
                    traffic.violations.push(format!(
                        "module {id} covers {have} tiles of {ty} but requires {need}"
                    ));
                }
            }
            if self.memory.area_of(&format!("m{id}")) != Some(r.rect) {
                traffic
                    .violations
                    .push(format!("module {id} placement and configuration memory disagree"));
            }
            if let Err(e) = r.bitstream.verify() {
                traffic.violations.push(format!("module {id} bitstream corrupt: {e}"));
            }
        }
    }

    /// The per-batch proactive-defragmentation check: compacts when the
    /// fragmentation crossed the configured threshold, charging the work to
    /// the batch's last departure.
    fn proactive_compact(
        &mut self,
        last_depart: Option<usize>,
        traffics: &mut [Traffic],
        latencies: &mut [f64],
    ) {
        let Some(slot) = last_depart else { return };
        let start = Instant::now();
        if frag_metrics(&self.partition, &self.occupied()).fragmentation
            > self.config.defrag_threshold
        {
            rfp_trace::count("runtime.proactive_compacts", 1);
            self.compact(
                CompactionGoal::Fragmentation(self.config.defrag_threshold),
                &mut traffics[slot],
            );
        }
        latencies[slot] += start.elapsed().as_secs_f64();
    }

    /// Releases the area of departing module `m` and returns the wall time
    /// it took. The departure of a module whose arrival was rejected is a
    /// no-op; that of any other module that is not running is a violation.
    fn depart(&mut self, m: ModuleId, traffic: &mut Traffic) -> f64 {
        let start = Instant::now();
        if self.running.remove(&m).is_none() && !self.rejected.contains(&m) {
            traffic.violations.push(format!("departure of module {m} which is not running"));
        }
        self.memory.remove(&format!("m{m}"));
        let seconds = start.elapsed().as_secs_f64();
        rfp_trace::count("runtime.departs", 1);
        seconds
    }

    /// Plays a contiguous run of events as **one batch** — the intended use
    /// is one call per group of same-timestamp events, which the batch
    /// treats as simultaneous:
    ///
    /// 1. every departure releases its area (one proactive-compaction check
    ///    for the whole group instead of one per departure),
    /// 2. the group's arrivals go through **one** shared
    ///    placement/defragmentation/re-solve escalation
    ///    (`handle_arrivals` — a joint
    ///    [`CompactionGoal::FitModules`] goal and a single engine re-solve
    ///    covering every still-pending arrival),
    /// 3. checkpoints observe the post-batch state.
    ///
    /// One stream-order caveat: a departure of a module that *arrives in the
    /// same batch* (a zero-lifetime module) is deferred until after the
    /// arrival phase, so the arrive-then-depart pair nets out instead of the
    /// departure firing against a not-yet-running module.
    ///
    /// Records come back in stream order; the fragmentation snapshot is
    /// taken once, after the batch. Shared-stage traffic accrues to the
    /// event that triggered the stage (the last departure for the proactive
    /// compaction, the first still-pending arrival for defragmentation and
    /// re-solve); the arrival stage's wall time is split evenly across the
    /// batch's arrivals.
    pub fn step_batch(
        &mut self,
        scenario: &Scenario,
        range: std::ops::Range<usize>,
    ) -> Vec<EventRecord> {
        let indices: Vec<usize> = range.collect();
        assert!(!indices.is_empty(), "step_batch needs at least one event");
        let n = indices.len();
        let mut traffics: Vec<Traffic> = (0..n).map(|_| Traffic::default()).collect();
        let mut latencies = vec![0.0f64; n];
        let mut outcomes: Vec<(&'static str, Option<ModuleId>, bool, bool)> =
            vec![("", None, true, false); n];

        // Phase 1: departures, in stream order. A departure of a module
        // whose arrival was rejected is a no-op, not a violation — the
        // stream does not know the admission decision. Departures of modules
        // that *arrive in this same batch* (zero-lifetime modules: the
        // stream's arrive precedes its depart at one timestamp) are deferred
        // until after the arrival phase, so they release an area that
        // actually got configured instead of misfiring on a not-yet-running
        // module.
        let arriving: BTreeSet<ModuleId> = indices
            .iter()
            .filter_map(|&idx| match scenario.events[idx].kind {
                EventKind::Arrive(m) => Some(m),
                _ => None,
            })
            .collect();
        let mut deferred: Vec<(usize, ModuleId)> = Vec::new();
        let mut last_depart: Option<usize> = None;
        for (slot, &idx) in indices.iter().enumerate() {
            if let EventKind::Depart(m) = scenario.events[idx].kind {
                if arriving.contains(&m) {
                    deferred.push((slot, m));
                    continue;
                }
                latencies[slot] += self.depart(m, &mut traffics[slot]);
                outcomes[slot] = ("depart", Some(m), true, false);
                last_depart = Some(slot);
            }
        }
        // The batch's single proactive-compaction check runs once every
        // departure has been processed: here when none is deferred,
        // otherwise after the deferred departures below.
        if deferred.is_empty() {
            self.proactive_compact(last_depart, &mut traffics, &mut latencies);
        }

        // Phase 2: the batch's arrivals, escalated together.
        let arrival_slots: Vec<(usize, ModuleId)> = indices
            .iter()
            .enumerate()
            .filter_map(|(slot, &idx)| match scenario.events[idx].kind {
                EventKind::Arrive(m) => Some((slot, m)),
                _ => None,
            })
            .collect();
        if !arrival_slots.is_empty() {
            let batch: Vec<(ModuleId, RegionSpec)> =
                arrival_slots.iter().map(|&(_, m)| (m, scenario.modules[m].clone())).collect();
            let start = Instant::now();
            let mut batch_traffics: Vec<Traffic> =
                (0..batch.len()).map(|_| Traffic::default()).collect();
            let results = self.handle_arrivals(&batch, &mut batch_traffics);
            let per_event = start.elapsed().as_secs_f64() / batch.len() as f64;
            for ((&(slot, m), traffic), (accepted, escalated)) in
                arrival_slots.iter().zip(batch_traffics).zip(results)
            {
                rfp_trace::count("runtime.arrivals", 1);
                rfp_trace::count("runtime.accepted", accepted as u64);
                rfp_trace::count("runtime.escalated", escalated as u64);
                if !accepted {
                    self.rejected.insert(m);
                }
                traffics[slot] = traffic;
                latencies[slot] += per_event;
                outcomes[slot] = ("arrive", Some(m), accepted, escalated);
            }
        }

        // Phase 2b: deferred departures of modules that arrived in this very
        // batch (zero-lifetime modules), then the batch's proactive check.
        if !deferred.is_empty() {
            for &(slot, m) in &deferred {
                latencies[slot] += self.depart(m, &mut traffics[slot]);
                outcomes[slot] = ("depart", Some(m), true, false);
                last_depart = Some(slot);
            }
            self.proactive_compact(last_depart, &mut traffics, &mut latencies);
        }

        // Phase 3: checkpoints observe the settled post-batch state.
        for (slot, &idx) in indices.iter().enumerate() {
            if matches!(scenario.events[idx].kind, EventKind::Checkpoint) {
                let start = Instant::now();
                rfp_trace::count("runtime.checkpoints", 1);
                self.check_invariants(&mut traffics[slot]);
                latencies[slot] += start.elapsed().as_secs_f64();
                outcomes[slot] = ("checkpoint", None, true, false);
            }
        }

        let frag = frag_metrics(&self.partition, &self.occupied());
        indices
            .iter()
            .enumerate()
            .map(|(slot, &idx)| EventRecord {
                time: scenario.events[idx].time,
                kind: outcomes[slot].0.to_string(),
                module: outcomes[slot].1,
                accepted: outcomes[slot].2,
                latency_seconds: latencies[slot],
                escalated: outcomes[slot].3,
                moves: traffics[slot].moves,
                frames_relocated: traffics[slot].frames_relocated,
                frames_resynthesized: traffics[slot].frames_resynthesized,
                downtime_frames: traffics[slot].downtime_frames,
                fragmentation: frag.fragmentation,
                free_tiles: frag.free_tiles,
                violations: std::mem::take(&mut traffics[slot].violations),
            })
            .collect()
    }
}

/// Simulates a whole scenario under a configuration and returns the report.
///
/// Uses the full engine registry (all five engines) for escalation
/// re-solves; [`simulate_with_dispatcher`] takes any other dispatcher.
pub fn simulate(scenario: &Scenario, config: &OnlineConfig) -> Result<SimReport, SimError> {
    simulate_with_dispatcher(scenario, config, Arc::new(rfp_baselines::engines::full_registry()))
}

/// [`simulate`] with an arbitrary [`SolveDispatcher`] behind the
/// escalation re-solves — e.g. a queue-worker solve service whose outcome
/// cache then warm-starts repeated escalations across a scenario.
pub fn simulate_with_dispatcher(
    scenario: &Scenario,
    config: &OnlineConfig,
    dispatcher: Arc<dyn SolveDispatcher>,
) -> Result<SimReport, SimError> {
    let issues = scenario.validate();
    if !issues.is_empty() {
        return Err(SimError::InvalidScenario(issues));
    }
    if !dispatcher.knows(&config.engine) {
        return Err(SimError::UnknownEngine(config.engine.clone()));
    }
    let _sim = rfp_trace::span("runtime.simulate");
    let start = Instant::now();
    let mut sim =
        OnlineFloorplanner::with_dispatcher(scenario.partition.clone(), dispatcher, config.clone());
    // Events sharing a timestamp are simultaneous: play them as one batch
    // (one proactive-compaction check, one escalation pipeline).
    let mut events: Vec<EventRecord> = Vec::with_capacity(scenario.events.len());
    let mut i = 0;
    while i < scenario.events.len() {
        let t = scenario.events[i].time;
        let mut j = i + 1;
        while j < scenario.events.len() && scenario.events[j].time == t {
            j += 1;
        }
        events.extend(sim.step_batch(scenario, i..j));
        i = j;
    }
    Ok(SimReport {
        scenario: scenario.name.clone(),
        policy: config.policy.id().to_string(),
        engine: config.engine.clone(),
        events,
        resynthesis_factor: RESYNTHESIS_FACTOR,
        wall_seconds: start.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_device::{fabric_partition, DeviceBuilder, ResourceVec};
    use rfp_floorplan::RegionSpec;

    /// 12 CLB columns x 2 rows.
    fn uniform_scenario() -> (Scenario, rfp_device::TileTypeId) {
        let mut b = DeviceBuilder::new("online-uniform");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        b.rows(2).repeat_column(clb, 12);
        let p = fabric_partition(&b.build().unwrap()).unwrap();
        (Scenario::new("uniform", p), clb)
    }

    #[test]
    fn modules_arrive_and_depart_without_violations() {
        let (mut s, clb) = uniform_scenario();
        let a = s.add_module(RegionSpec::new("A", vec![(clb, 8)]));
        let b = s.add_module(RegionSpec::new("B", vec![(clb, 8)]));
        let c = s.add_module(RegionSpec::new("C", vec![(clb, 4)]));
        s.arrive(0, a);
        s.arrive(1, b);
        s.checkpoint(2);
        s.depart(3, a);
        s.arrive(4, c);
        s.checkpoint(5);
        let report = simulate(&s, &OnlineConfig::default()).unwrap();
        assert_eq!(report.violations(), 0, "{report:#?}");
        assert_eq!(report.rejected(), 0);
        assert_eq!(report.arrivals(), 3);
    }

    #[test]
    fn a_fragmented_device_defragments_to_admit_a_large_module() {
        let (mut s, clb) = uniform_scenario();
        // Fill the row with 4 modules of 3x2, then remove two alternating
        // ones: the free space is 2 x (3x2) islands. A 10-tile module needs
        // compaction to fit.
        let ids: Vec<_> = (0..4)
            .map(|i| s.add_module(RegionSpec::new(format!("f{i}"), vec![(clb, 6)])))
            .collect();
        let big = s.add_module(RegionSpec::new("big", vec![(clb, 10)]));
        for (i, &id) in ids.iter().enumerate() {
            s.arrive(i as u64, id);
        }
        s.depart(4, ids[0]);
        s.depart(5, ids[2]);
        s.arrive(6, big);
        s.checkpoint(7);
        // Disable the proactive (threshold) compaction so the arrival itself
        // must trigger the defragmentation.
        let config = OnlineConfig { defrag_threshold: 1.0, ..OnlineConfig::default() };
        let report = simulate(&s, &config).unwrap();
        assert_eq!(report.violations(), 0, "{report:#?}");
        assert_eq!(report.rejected(), 0, "defragmentation must make room: {report:#?}");
        assert!(report.total_moves() > 0, "the big arrival requires at least one move");
    }

    #[test]
    fn arrivals_escalate_to_an_engine_resolve_when_compaction_is_unavailable() {
        let (mut s, clb) = uniform_scenario();
        let ids: Vec<_> = (0..4)
            .map(|i| s.add_module(RegionSpec::new(format!("f{i}"), vec![(clb, 6)])))
            .collect();
        let big = s.add_module(RegionSpec::new("big", vec![(clb, 10)]));
        let late = s.add_module(RegionSpec::new("late", vec![(clb, 4)]));
        for (i, &id) in ids.iter().enumerate() {
            s.arrive(i as u64, id);
        }
        s.depart(4, ids[0]);
        s.depart(5, ids[2]);
        s.arrive(6, big);
        s.checkpoint(7);
        s.depart(8, big);
        s.arrive(9, late);
        s.checkpoint(10);
        // `max_passes: 0` turns the defragmentation stage off entirely, so
        // the fragmented arrival must go through the engine re-solve (and
        // its layout replay), and the second escalation warm-starts from the
        // first outcome.
        let config =
            OnlineConfig { defrag_threshold: 1.0, max_passes: 0, ..OnlineConfig::default() };
        let report = simulate(&s, &config).unwrap();
        assert_eq!(report.violations(), 0, "{report:#?}");
        assert_eq!(report.rejected(), 0, "the engine re-solve must admit the module: {report:#?}");
        assert!(report.escalations() >= 1);
        assert!(report.total_moves() > 0, "the re-solved layout requires relocations");
    }

    #[test]
    fn impossible_arrivals_are_rejected_not_fatal() {
        let (mut s, clb) = uniform_scenario();
        let huge = s.add_module(RegionSpec::new("huge", vec![(clb, 25)]));
        let ok = s.add_module(RegionSpec::new("ok", vec![(clb, 4)]));
        s.arrive(0, huge); // 25 > 24 tiles on the device
        s.arrive(1, ok);
        s.checkpoint(2);
        let report = simulate(&s, &OnlineConfig::default()).unwrap();
        assert_eq!(report.rejected(), 1);
        assert_eq!(report.violations(), 0);
        // The rejection left the device usable.
        assert!(report.events[1].accepted);
    }

    #[test]
    fn proactive_defrag_triggers_on_the_threshold() {
        let (mut s, clb) = uniform_scenario();
        let ids: Vec<_> = (0..4)
            .map(|i| s.add_module(RegionSpec::new(format!("f{i}"), vec![(clb, 6)])))
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            s.arrive(i as u64, id);
        }
        // Departures leave two free islands; threshold 0.4 forces compaction.
        s.depart(4, ids[0]);
        s.depart(5, ids[2]);
        s.checkpoint(6);
        let config = OnlineConfig { defrag_threshold: 0.4, ..OnlineConfig::default() };
        let report = simulate(&s, &config).unwrap();
        assert_eq!(report.violations(), 0, "{report:#?}");
        assert!(report.total_moves() > 0, "threshold crossing must trigger moves");
        let last = report.events.last().unwrap();
        assert!(last.fragmentation <= 0.4, "compaction must reach the threshold");
    }

    #[test]
    fn no_break_runs_are_downtime_free_when_shadows_fit() {
        // Same fragmented-arrival scenario as the defragmentation test, but
        // under the no-break policy: the compaction move lands on a disjoint
        // shadow, so the whole run reports zero stopped-module frames.
        let (mut s, clb) = uniform_scenario();
        let ids: Vec<_> = (0..4)
            .map(|i| s.add_module(RegionSpec::new(format!("f{i}"), vec![(clb, 6)])))
            .collect();
        let big = s.add_module(RegionSpec::new("big", vec![(clb, 10)]));
        for (i, &id) in ids.iter().enumerate() {
            s.arrive(i as u64, id);
        }
        s.depart(4, ids[0]);
        s.depart(5, ids[2]);
        s.arrive(6, big);
        s.checkpoint(7);
        let config = OnlineConfig {
            policy: DefragPolicy::NoBreak,
            defrag_threshold: 1.0,
            ..OnlineConfig::default()
        };
        let report = simulate(&s, &config).unwrap();
        assert_eq!(report.violations(), 0, "{report:#?}");
        assert_eq!(report.rejected(), 0, "{report:#?}");
        assert!(report.total_moves() > 0, "the big arrival requires at least one move");
        assert_eq!(report.downtime_frames(), 0, "every no-break move must be buffered");
        assert_eq!(report.policy, "no_break");
    }

    #[test]
    fn same_timestamp_arrivals_are_batched_into_one_escalation() {
        // Fill the device, free two islands, then let *two* modules arrive
        // at the same timestamp: the batch must go through one shared
        // defragmentation (the FitModules goal) and admit both.
        let (mut s, clb) = uniform_scenario();
        let ids: Vec<_> = (0..4)
            .map(|i| s.add_module(RegionSpec::new(format!("f{i}"), vec![(clb, 6)])))
            .collect();
        let a = s.add_module(RegionSpec::new("a", vec![(clb, 6)]));
        let b = s.add_module(RegionSpec::new("b", vec![(clb, 6)]));
        for (i, &id) in ids.iter().enumerate() {
            s.arrive(i as u64, id);
        }
        s.depart(4, ids[0]);
        s.depart(5, ids[2]);
        // Both arrive at t=6; together they need exactly the freed 12 tiles.
        s.arrive(6, a);
        s.arrive(6, b);
        s.checkpoint(7);
        let config = OnlineConfig { defrag_threshold: 1.0, ..OnlineConfig::default() };
        let report = simulate(&s, &config).unwrap();
        assert_eq!(report.violations(), 0, "{report:#?}");
        assert_eq!(report.rejected(), 0, "both same-time arrivals must fit: {report:#?}");
        assert_eq!(report.arrivals(), 6);
        // The two batch records share the post-batch fragmentation snapshot.
        let batch: Vec<_> = report.events.iter().filter(|e| e.time == 6).collect();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].fragmentation, batch[1].fragmentation);
    }

    #[test]
    fn a_batch_with_one_oversized_arrival_still_admits_the_feasible_one() {
        // Two same-timestamp arrivals, one of which can never fit: the
        // joint re-solve fails, the per-arrival fallback admits the
        // feasible module and rejects only the oversized one.
        let (mut s, clb) = uniform_scenario();
        let huge = s.add_module(RegionSpec::new("huge", vec![(clb, 25)]));
        let ok = s.add_module(RegionSpec::new("ok", vec![(clb, 4)]));
        s.arrive(0, huge); // 25 > 24 tiles on the device
        s.arrive(0, ok);
        s.checkpoint(1);
        let report = simulate(&s, &OnlineConfig::default()).unwrap();
        assert_eq!(report.violations(), 0, "{report:#?}");
        assert_eq!(report.rejected(), 1, "{report:#?}");
        let ok_event = report.events.iter().find(|e| e.module == Some(ok)).unwrap();
        assert!(ok_event.accepted, "the feasible member of the batch must be admitted");
    }

    #[test]
    fn zero_lifetime_modules_arrive_and_depart_within_one_batch() {
        // arrive(t, m) followed by depart(t, m) is a valid stream (the
        // validator's state machine runs in stream order); the batch must
        // net the pair out — admit, then release — not fire the departure
        // against a not-yet-running module.
        let (mut s, clb) = uniform_scenario();
        let flash = s.add_module(RegionSpec::new("flash", vec![(clb, 20)]));
        let later = s.add_module(RegionSpec::new("later", vec![(clb, 20)]));
        s.arrive(0, flash);
        s.depart(0, flash);
        // A 20-tile module fits afterwards only if flash's area was freed.
        s.arrive(1, later);
        s.checkpoint(2);
        assert!(s.validate().is_empty(), "{:?}", s.validate());
        let report = simulate(&s, &OnlineConfig::default()).unwrap();
        assert_eq!(report.violations(), 0, "{report:#?}");
        assert_eq!(report.rejected(), 0, "flash's area must be released: {report:#?}");
        assert!(report.events[1].accepted);
        assert_eq!(report.events[1].kind, "depart");
    }

    #[test]
    fn invalid_scenarios_and_unknown_engines_are_errors() {
        let (mut s, clb) = uniform_scenario();
        let a = s.add_module(RegionSpec::new("A", vec![(clb, 2)]));
        s.depart(0, a);
        assert!(matches!(
            simulate(&s, &OnlineConfig::default()),
            Err(SimError::InvalidScenario(_))
        ));
        let (mut s2, clb2) = uniform_scenario();
        let b = s2.add_module(RegionSpec::new("B", vec![(clb2, 2)]));
        s2.arrive(0, b);
        let config = OnlineConfig { engine: "nonsense".into(), ..OnlineConfig::default() };
        assert!(matches!(simulate(&s2, &config), Err(SimError::UnknownEngine(_))));
    }
}
