//! The engine-agnostic solve API.
//!
//! The paper's contribution is that *several* solution strategies — the
//! exact MILP (`O`), the LP-guided heuristic (`HO`), the combinatorial
//! branch-and-bound, and the relocation-unaware baselines — attack the same
//! relocation-aware formulation. This module gives them a single contract:
//!
//! * [`SolveRequest`] — what to solve: the problem, optional objective-weight
//!   overrides, wall-clock/node budgets and a warm-start hint;
//! * [`SolveControl`] — how the run is steered while in flight: a shareable
//!   [`CancelToken`] polled by every engine's inner loop plus an optional
//!   incumbent-progress callback;
//! * [`SolveOutcome`] — the unified result: a four-state status
//!   ([`OutcomeStatus`]), the floorplan/metrics when one was found, and
//!   engine-tagged [`EngineStats`];
//! * [`FloorplanEngine`] — the trait every engine implements;
//! * [`EngineRegistry`] — string-keyed lookup (`"milp"`, `"ho"`,
//!   `"combinatorial"`, plus the baselines registered by `rfp-baselines`).
//!
//! The [`crate::portfolio`] module builds engine racing on top of this
//! contract, and the `rfp` CLI drives it from JSON problem files
//! ([`crate::jsonio`]).
//!
//! # Example
//!
//! ```
//! use rfp_device::{columnar_partition, DeviceBuilder, ResourceVec};
//! use rfp_floorplan::engine::{EngineRegistry, SolveControl, SolveRequest};
//! use rfp_floorplan::problem::{FloorplanProblem, RegionSpec};
//!
//! let mut b = DeviceBuilder::new("demo");
//! let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
//! let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
//! b.rows(3).columns(&[clb, clb, bram, clb]);
//! let mut problem = FloorplanProblem::new(columnar_partition(&b.build().unwrap()).unwrap());
//! problem.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
//!
//! let registry = EngineRegistry::builtin();
//! let engine = registry.get("combinatorial").unwrap();
//! let outcome = engine.solve(&SolveRequest::new(problem), &SolveControl::default());
//! assert!(outcome.is_proven());
//! assert!(outcome.floorplan.is_some());
//! ```

use crate::combinatorial::{solve_combinatorial_with_control, CombinatorialConfig};
use crate::error::FloorplanError;
use crate::heuristic::greedy_floorplan_fast;
use crate::model::{FloorplanMilp, MilpBuildConfig, ModelStats};
use crate::placement::{Floorplan, Metrics};
use crate::problem::{FloorplanProblem, ObjectiveWeights};
use crate::sequence_pair::extract_relations;
use rfp_milp::{Solver as MilpSolver, SolverConfig as MilpSolverConfig};
use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

pub use rfp_milp::CancelToken;

/// A self-contained solve request: the problem plus the run's budgets and
/// hints. The same request can be handed to any engine — or to several at
/// once by [`crate::portfolio::Portfolio`].
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// The problem to solve.
    pub problem: FloorplanProblem,
    /// Objective-weight override; `None` uses the problem's own weights.
    pub weights: Option<ObjectiveWeights>,
    /// Wall-clock budget in seconds; `0` defers to the engine's own
    /// configuration (which may be unlimited).
    pub time_limit_secs: f64,
    /// Search-node budget; `0` defers to the engine's own configuration.
    /// Engines without a node-based search (annealing, tessellation) ignore
    /// it.
    pub node_limit: u64,
    /// Warm-start hint: a known-good floorplan used as the initial incumbent
    /// (MILP engines) or as the HO restriction seed. Invalid hints are
    /// ignored.
    pub warm_start: Option<Floorplan>,
    /// Worker threads for the parallel-capable engines (the MILP
    /// branch-and-bound and the combinatorial DFS); `0` defers to the
    /// engine's own configuration. Engines without a parallel search ignore
    /// it.
    pub threads: usize,
}

impl SolveRequest {
    /// A request with no budgets and no hints.
    pub fn new(problem: FloorplanProblem) -> Self {
        SolveRequest {
            problem,
            weights: None,
            time_limit_secs: 0.0,
            node_limit: 0,
            warm_start: None,
            threads: 0,
        }
    }

    /// Sets the wall-clock budget (seconds).
    pub fn with_time_limit(mut self, secs: f64) -> Self {
        self.time_limit_secs = secs;
        self
    }

    /// Sets the worker thread count for parallel-capable engines.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the search-node budget.
    pub fn with_node_limit(mut self, nodes: u64) -> Self {
        self.node_limit = nodes;
        self
    }

    /// Sets the warm-start hint.
    pub fn with_warm_start(mut self, floorplan: Floorplan) -> Self {
        self.warm_start = Some(floorplan);
        self
    }

    /// Seeds the warm start from a previous solve's outcome — the incremental
    /// re-solve path. Outcomes without a floorplan leave the request
    /// unchanged; hints that do not fit the (possibly edited) problem are
    /// dropped by the engine, so chaining outcomes across solves is always
    /// safe. When the problem's region list changed between the solves, adapt
    /// the floorplan first with [`adapt_floorplan`].
    pub fn with_warm_outcome(mut self, outcome: &SolveOutcome) -> Self {
        if let Some(fp) = &outcome.floorplan {
            self.warm_start = Some(fp.clone());
        }
        self
    }

    /// Sets an objective-weight override.
    pub fn with_weights(mut self, weights: ObjectiveWeights) -> Self {
        self.weights = Some(weights);
        self
    }

    /// The problem with the weight override applied (borrowed when there is
    /// nothing to override).
    pub fn effective_problem(&self) -> Cow<'_, FloorplanProblem> {
        match self.weights {
            None => Cow::Borrowed(&self.problem),
            Some(w) => {
                let mut p = self.problem.clone();
                p.weights = w;
                Cow::Owned(p)
            }
        }
    }
}

/// A new-incumbent notification delivered through
/// [`SolveControl::on_incumbent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncumbentEvent {
    /// Id of the reporting engine.
    pub engine: &'static str,
    /// Engine-scale objective of the new incumbent (lower is better): the
    /// MILP objective for the MILP engines, wasted frames for the
    /// combinatorial engine, the annealing cost for the annealer.
    pub objective: f64,
    /// Seconds since the engine's solve started.
    pub seconds: f64,
}

/// Callback type for incumbent-progress notifications.
pub type IncumbentCallback = Arc<dyn Fn(&IncumbentEvent) + Send + Sync>;

/// The best floorplan found so far across a set of cooperating engine runs.
///
/// The portfolio creates one slot per race and hands a clone to every
/// engine's [`SolveControl`]; when a racer finishes with a feasible (but
/// unproven) floorplan, its result is [`SharedIncumbent::offer`]ed here and
/// the still-running MILP engines adopt it as a genuine incumbent (via
/// [`rfp_milp::ExternalIncumbents`]), pruning their branch-and-bound trees
/// instead of merely waiting to be cancelled.
///
/// Objectives are the composite problem-level objective
/// ([`Metrics::objective`]) and only order competing offers; consumers
/// re-derive their own engine-scale objective from the floorplan itself.
#[derive(Clone, Default)]
pub struct SharedIncumbent {
    inner: Arc<Mutex<SharedIncumbentState>>,
}

#[derive(Default)]
struct SharedIncumbentState {
    /// Bumped on every accepted offer; 0 while empty. Lets consumers poll
    /// cheaply ("anything new since version v?") without cloning.
    version: u64,
    objective: f64,
    floorplan: Option<Floorplan>,
}

impl SharedIncumbent {
    /// An empty slot.
    pub fn new() -> Self {
        SharedIncumbent::default()
    }

    /// Offers a floorplan with composite objective `objective` (lower is
    /// better). The offer is installed — and the version bumped — only when
    /// the slot is empty or the offer is strictly better. Returns whether it
    /// was installed.
    pub fn offer(&self, objective: f64, floorplan: &Floorplan) -> bool {
        let mut s = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if s.floorplan.is_none() || objective < s.objective {
            s.version += 1;
            s.objective = objective;
            s.floorplan = Some(floorplan.clone());
            true
        } else {
            false
        }
    }

    /// Version of the current content (0 = empty, then monotonically
    /// increasing).
    pub fn version(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).version
    }

    /// The best offer so far as `(version, objective, floorplan)`.
    pub fn best(&self) -> Option<(u64, f64, Floorplan)> {
        let s = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        s.floorplan.as_ref().map(|fp| (s.version, s.objective, fp.clone()))
    }
}

impl fmt::Debug for SharedIncumbent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("SharedIncumbent")
            .field("version", &s.version)
            .field("objective", &s.objective)
            .field("has_floorplan", &s.floorplan.is_some())
            .finish()
    }
}

/// Run-time control handed to [`FloorplanEngine::solve`]: cooperative
/// cancellation plus optional progress reporting. Cloning shares the same
/// cancellation flag.
#[derive(Clone, Default)]
pub struct SolveControl {
    /// Cancellation flag polled by the engines' inner loops (including the
    /// branch-and-bound of `rfp-milp` and the combinatorial DFS).
    pub cancel: CancelToken,
    /// Invoked every time the engine finds a strictly better incumbent.
    pub on_incumbent: Option<IncumbentCallback>,
    /// Cross-engine incumbent slot; the MILP engines poll it once per
    /// branch-and-bound node and adopt better floorplans as incumbents.
    pub shared_incumbent: Option<SharedIncumbent>,
}

impl fmt::Debug for SolveControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolveControl")
            .field("cancel", &self.cancel)
            .field("on_incumbent", &self.on_incumbent.as_ref().map(|_| "Fn"))
            .field("shared_incumbent", &self.shared_incumbent)
            .finish()
    }
}

impl SolveControl {
    /// A control whose token is shared with `cancel`.
    pub fn with_cancel(cancel: CancelToken) -> Self {
        SolveControl { cancel, on_incumbent: None, shared_incumbent: None }
    }

    /// Delivers an incumbent event to the callback, if any.
    pub fn report_incumbent(&self, engine: &'static str, objective: f64, seconds: f64) {
        if let Some(cb) = &self.on_incumbent {
            cb(&IncumbentEvent { engine, objective, seconds });
        }
    }
}

/// Final status of an engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeStatus {
    /// A floorplan was found and proven optimal with respect to the engine's
    /// search space (for `ho` that is the restricted space; heuristics never
    /// report this).
    Proven,
    /// A floorplan was found but optimality was not established.
    Feasible,
    /// The engine established that no feasible floorplan exists (exact
    /// engines), or could not produce one at all (heuristics).
    Infeasible,
    /// The node/time budget was exhausted — or the run was cancelled — before
    /// any floorplan was found; feasibility is unknown.
    BudgetExhausted,
}

impl OutcomeStatus {
    /// `true` when a floorplan is available ([`OutcomeStatus::Proven`] or
    /// [`OutcomeStatus::Feasible`]).
    pub fn has_floorplan(self) -> bool {
        matches!(self, OutcomeStatus::Proven | OutcomeStatus::Feasible)
    }
}

impl fmt::Display for OutcomeStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OutcomeStatus::Proven => "proven",
            OutcomeStatus::Feasible => "feasible",
            OutcomeStatus::Infeasible => "infeasible",
            OutcomeStatus::BudgetExhausted => "budget-exhausted",
        };
        f.write_str(s)
    }
}

/// Engine-tagged solve statistics, uniform across engines (LP fields are
/// zero for the non-MILP engines).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// Id of the engine that produced the outcome.
    pub engine: String,
    /// Search nodes explored (annealing reports proposed moves).
    pub nodes: u64,
    /// Wall-clock seconds spent solving.
    pub solve_seconds: f64,
    /// Simplex iterations across all LP relaxations (MILP engines).
    pub lp_iterations: u64,
    /// LP (re-)solves performed (MILP engines).
    pub lp_solves: u64,
    /// Seconds spent inside LP solves (MILP engines).
    pub lp_seconds: f64,
    /// Cutting planes separated at the root (MILP engines).
    pub cuts: u64,
    /// Relative optimality gap at termination (0 when proven,
    /// `f64::INFINITY` when no bound is available).
    pub gap: f64,
    /// `true` when the run observed a cancellation through its
    /// [`SolveControl`] token.
    pub cancelled: bool,
    /// Worker threads the engine effectively ran with (`1` = serial; always
    /// `1` for engines without a parallel search).
    pub threads: usize,
    /// MILP model statistics (MILP engines only).
    pub model_stats: Option<ModelStats>,
}

impl EngineStats {
    /// Zeroed statistics tagged with an engine id.
    pub fn new(engine: impl Into<String>) -> Self {
        EngineStats {
            engine: engine.into(),
            nodes: 0,
            solve_seconds: 0.0,
            lp_iterations: 0,
            lp_solves: 0,
            lp_seconds: 0.0,
            cuts: 0,
            gap: f64::INFINITY,
            cancelled: false,
            threads: 1,
            model_stats: None,
        }
    }
}

/// The unified result of an engine run: the one cross-engine currency of
/// the registry, the portfolio, the service and the `rfp` CLI.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutcome {
    /// Final status.
    pub status: OutcomeStatus,
    /// The floorplan, when [`OutcomeStatus::has_floorplan`] holds.
    pub floorplan: Option<Floorplan>,
    /// Evaluation metrics of the floorplan.
    pub metrics: Option<Metrics>,
    /// Human-readable detail for [`OutcomeStatus::Infeasible`] /
    /// [`OutcomeStatus::BudgetExhausted`].
    pub detail: Option<String>,
    /// Engine-tagged statistics.
    pub stats: EngineStats,
}

impl SolveOutcome {
    /// An outcome with no floorplan.
    pub fn without_floorplan(
        status: OutcomeStatus,
        detail: impl Into<String>,
        stats: EngineStats,
    ) -> Self {
        SolveOutcome { status, floorplan: None, metrics: None, detail: Some(detail.into()), stats }
    }

    /// `true` when the engine proved optimality.
    pub fn is_proven(&self) -> bool {
        self.status == OutcomeStatus::Proven
    }

    /// Wasted frames of the floorplan, if one was found.
    pub fn wasted_frames(&self) -> Option<u64> {
        self.metrics.as_ref().map(|m| m.wasted_frames)
    }

    /// Converts the outcome into a `Result`: the floorplan on success, a
    /// [`FloorplanError`] otherwise.
    pub fn into_result(self) -> Result<Floorplan, FloorplanError> {
        match self.floorplan {
            Some(fp) => Ok(fp),
            None => Err(self.into_error()),
        }
    }

    /// The error equivalent of a floorplan-less outcome.
    pub fn into_error(self) -> FloorplanError {
        match self.status {
            OutcomeStatus::Infeasible => FloorplanError::Infeasible {
                reason: self.detail.unwrap_or_else(|| "no feasible floorplan exists".to_string()),
            },
            _ => FloorplanError::LimitReached,
        }
    }
}

/// Adapts the floorplan of a previous solve to an **edited** problem — the
/// warm-start half of an incremental re-solve.
///
/// `mapping[new_region]` gives the region's index in the previous floorplan,
/// or `None` for regions that did not exist before (e.g. a module arriving in
/// an online scenario). Mapped regions keep their previous rectangles; new
/// regions are placed greedily in the remaining space; requested
/// free-compatible areas are re-reserved greedily. Returns `None` when no
/// complete feasible floorplan can be assembled this way — callers then fall
/// back to a cold solve.
pub fn adapt_floorplan(
    previous: &Floorplan,
    mapping: &[Option<usize>],
    problem: &FloorplanProblem,
) -> Option<Floorplan> {
    use crate::candidates::{enumerate_candidates, CandidateConfig};
    use crate::placement::FcPlacement;
    use crate::problem::RelocationMode;
    use rfp_device::compat::enumerate_free_compatible;

    if mapping.len() != problem.regions.len() {
        return None;
    }
    let partition = &problem.partition;
    let mut regions: Vec<Option<rfp_device::Rect>> = vec![None; problem.regions.len()];
    let mut occupied: Vec<rfp_device::Rect> = Vec::new();
    for (i, old) in mapping.iter().enumerate() {
        if let Some(old) = old {
            let rect = *previous.regions.get(*old)?;
            regions[i] = Some(rect);
            occupied.push(rect);
        }
    }
    // Place the new regions greedily, most demanding first, in the space the
    // retained rectangles leave over.
    let mut todo: Vec<usize> =
        (0..problem.regions.len()).filter(|&i| regions[i].is_none()).collect();
    todo.sort_by_key(|&i| u64::MAX - problem.regions[i].required_frames(partition));
    let cand_cfg = CandidateConfig::default();
    for i in todo {
        let cands = enumerate_candidates(partition, &problem.regions[i], &cand_cfg);
        let chosen = cands.iter().find(|c| !occupied.iter().any(|o| o.overlaps(&c.rect)))?;
        regions[i] = Some(chosen.rect);
        occupied.push(chosen.rect);
    }
    let regions: Vec<rfp_device::Rect> = regions.into_iter().map(|r| r.expect("filled")).collect();

    // Re-reserve the requested free-compatible areas greedily (the previous
    // reservations may be invalid after the edit, so they are not reused).
    let mut fc_areas = Vec::new();
    for (request, region, mode) in problem.fc_areas() {
        let source = regions[region];
        let options = enumerate_free_compatible(partition, &source, &occupied);
        match options.first().copied() {
            Some(rect) => {
                occupied.push(rect);
                fc_areas.push(FcPlacement { request, region, mode, rect: Some(rect) });
            }
            None if matches!(mode, RelocationMode::Constraint) => return None,
            None => fc_areas.push(FcPlacement { request, region, mode, rect: None }),
        }
    }

    let fp = Floorplan { regions, fc_areas };
    fp.validate(problem).is_empty().then_some(fp)
}

/// A floorplanning engine: anything that can turn a [`SolveRequest`] into a
/// [`SolveOutcome`] under a [`SolveControl`].
///
/// Engines are `Send + Sync` so a [`crate::portfolio::Portfolio`] can race
/// them on threads; implementations must poll [`SolveControl::cancel`] in
/// their inner loops and return promptly once it fires.
pub trait FloorplanEngine: Send + Sync {
    /// Stable string id used by [`EngineRegistry`] and the `rfp` CLI.
    fn id(&self) -> &'static str;

    /// One-line human description.
    fn description(&self) -> &'static str;

    /// `true` when the engine honours [`SolveRequest::threads`] with an
    /// internal parallel search. Serial engines ignore the field (their
    /// [`EngineStats::threads`] always reports 1).
    fn parallel(&self) -> bool {
        false
    }

    /// Solves the request. Never panics on infeasible or over-budget runs —
    /// those are [`OutcomeStatus`] values, not errors.
    fn solve(&self, req: &SolveRequest, ctl: &SolveControl) -> SolveOutcome;
}

/// String-keyed engine registry.
///
/// [`EngineRegistry::builtin`] registers the three engines of this crate
/// (`milp`, `ho`, `combinatorial`); `rfp_baselines::engines::full_registry`
/// adds `annealing` and `tessellation`. Registering an engine with an
/// existing id replaces it, so callers can override a default engine with a
/// custom-configured instance.
#[derive(Clone, Default)]
pub struct EngineRegistry {
    engines: Vec<Arc<dyn FloorplanEngine>>,
}

impl fmt::Debug for EngineRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.engines.iter().map(|e| e.id())).finish()
    }
}

impl EngineRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        EngineRegistry::default()
    }

    /// The engines implemented by this crate, with default configurations:
    /// `milp`, `ho` and `combinatorial`.
    pub fn builtin() -> Self {
        let mut r = EngineRegistry::empty();
        r.register(Arc::new(MilpEngine::default()));
        r.register(Arc::new(HeuristicMilpEngine::default()));
        r.register(Arc::new(CombinatorialEngine::default()));
        r
    }

    /// Registers an engine, replacing any previous engine with the same id.
    pub fn register(&mut self, engine: Arc<dyn FloorplanEngine>) {
        self.engines.retain(|e| e.id() != engine.id());
        self.engines.push(engine);
    }

    /// Looks an engine up by id.
    pub fn get(&self, id: &str) -> Option<Arc<dyn FloorplanEngine>> {
        self.engines.iter().find(|e| e.id() == id).cloned()
    }

    /// Registered ids, in registration order.
    pub fn ids(&self) -> Vec<&'static str> {
        self.engines.iter().map(|e| e.id()).collect()
    }

    /// Iterates over the registered engines.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn FloorplanEngine>> {
        self.engines.iter()
    }

    /// Number of registered engines.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// `true` when no engine is registered.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }
}

/// Anything that can resolve an engine id and run a solve: the seam between
/// solve *consumers* (the online simulator, the CLI) and solve *providers*.
///
/// Two canonical implementations: [`EngineRegistry`] dispatches inline on
/// the caller's thread, and `rfp-service`'s `SolveService` routes the
/// request through its job queue and cross-request outcome cache. Consumers
/// written against this trait get caching and queueing for free when the
/// caller wires a service in.
pub trait SolveDispatcher: Send + Sync {
    /// Solves `req` on the engine registered under `engine`. An unknown id
    /// is reported as an [`OutcomeStatus::Infeasible`] outcome (with a
    /// detail message), not a panic, mirroring how engines report their own
    /// failures.
    fn dispatch(&self, engine: &str, req: &SolveRequest, ctl: &SolveControl) -> SolveOutcome;

    /// `true` when `engine` would resolve to a real engine — lets callers
    /// fail fast on typos before queueing work.
    fn knows(&self, engine: &str) -> bool;
}

impl SolveDispatcher for EngineRegistry {
    fn dispatch(&self, engine: &str, req: &SolveRequest, ctl: &SolveControl) -> SolveOutcome {
        match self.get(engine) {
            Some(e) => {
                let _leg = rfp_trace::span(&format!("engine.{}", e.id()));
                let outcome = e.solve(req, ctl);
                if outcome.stats.cancelled {
                    rfp_trace::count("engine.cancelled", 1);
                }
                outcome
            }
            None => SolveOutcome::without_floorplan(
                OutcomeStatus::Infeasible,
                format!("unknown engine `{engine}` (known: {})", self.ids().join(", ")),
                EngineStats::new("registry"),
            ),
        }
    }

    fn knows(&self, engine: &str) -> bool {
        self.get(engine).is_some()
    }
}

// ---------------------------------------------------------------------------
// Built-in engines.
// ---------------------------------------------------------------------------

/// The exact MILP engine (`O`): the full relocation-aware model solved by the
/// from-scratch branch-and-bound of `rfp-milp`, warm-started from a greedy
/// floorplan. Practical for small and mid-size instances.
#[derive(Debug, Clone, Default)]
pub struct MilpEngine {
    /// Base MILP solver configuration; the request's budgets override its
    /// node/time limits.
    pub config: MilpSolverConfig,
}

impl MilpEngine {
    /// An engine with a custom solver configuration.
    pub fn with_config(config: MilpSolverConfig) -> Self {
        MilpEngine { config }
    }
}

impl FloorplanEngine for MilpEngine {
    fn id(&self) -> &'static str {
        "milp"
    }

    fn description(&self) -> &'static str {
        "exact MILP (algorithm O): full relocation-aware model, from-scratch branch and bound"
    }

    fn parallel(&self) -> bool {
        true
    }

    fn solve(&self, req: &SolveRequest, ctl: &SolveControl) -> SolveOutcome {
        solve_milp_engine(self.id(), &self.config, false, req, ctl)
    }
}

/// The LP-guided heuristic engine (`HO`): the MILP restricted by the
/// sequence pair of a greedy seed, which shrinks the search space by orders
/// of magnitude at the cost of possible sub-optimality.
#[derive(Debug, Clone, Default)]
pub struct HeuristicMilpEngine {
    /// Base MILP solver configuration; the request's budgets override its
    /// node/time limits.
    pub config: MilpSolverConfig,
}

impl HeuristicMilpEngine {
    /// An engine with a custom solver configuration.
    pub fn with_config(config: MilpSolverConfig) -> Self {
        HeuristicMilpEngine { config }
    }
}

impl FloorplanEngine for HeuristicMilpEngine {
    fn id(&self) -> &'static str {
        "ho"
    }

    fn description(&self) -> &'static str {
        "LP-guided heuristic (algorithm HO): MILP restricted by a greedy sequence pair"
    }

    fn parallel(&self) -> bool {
        true
    }

    fn solve(&self, req: &SolveRequest, ctl: &SolveControl) -> SolveOutcome {
        solve_milp_engine(self.id(), &self.config, true, req, ctl)
    }
}

/// The exact combinatorial engine: columnar branch-and-bound over candidate
/// rectangles; the engine that solves the full-die SDR instances.
#[derive(Debug, Clone, Default)]
pub struct CombinatorialEngine {
    /// Base search configuration; the request's budgets override its
    /// node/time limits.
    pub config: CombinatorialConfig,
}

impl CombinatorialEngine {
    /// An engine with a custom search configuration.
    pub fn with_config(config: CombinatorialConfig) -> Self {
        CombinatorialEngine { config }
    }
}

impl FloorplanEngine for CombinatorialEngine {
    fn id(&self) -> &'static str {
        "combinatorial"
    }

    fn description(&self) -> &'static str {
        "exact columnar branch and bound over candidate rectangles (full-die scale)"
    }

    fn parallel(&self) -> bool {
        true
    }

    fn solve(&self, req: &SolveRequest, ctl: &SolveControl) -> SolveOutcome {
        let problem = req.effective_problem();
        let mut stats = EngineStats::new(self.id());
        if let Err(e) = problem.validate() {
            stats.cancelled = ctl.cancel.is_cancelled();
            return SolveOutcome::without_floorplan(
                OutcomeStatus::Infeasible,
                e.to_string(),
                stats,
            );
        }
        let mut cfg = self.config.clone();
        if req.time_limit_secs > 0.0 {
            cfg.time_limit_secs = req.time_limit_secs;
        }
        if req.node_limit > 0 {
            cfg.node_limit = req.node_limit;
        }
        if req.threads > 0 {
            cfg.threads = req.threads;
        }
        stats.threads = cfg.threads.max(1);
        let res = match solve_combinatorial_with_control(&problem, &cfg, ctl) {
            Ok(res) => res,
            Err(e) => {
                // Only problem-level errors reach here (validation failures,
                // impossible requirements); an exhausted budget is an `Ok`
                // with no floorplan.
                stats.cancelled = ctl.cancel.is_cancelled();
                return SolveOutcome::without_floorplan(
                    OutcomeStatus::Infeasible,
                    e.to_string(),
                    stats,
                );
            }
        };
        stats.nodes = res.nodes;
        stats.solve_seconds = res.solve_seconds;
        stats.cancelled = res.cancelled;
        stats.gap = if res.proven { 0.0 } else { f64::INFINITY };
        match res.floorplan {
            Some(fp) => {
                let metrics = fp.metrics(&problem);
                SolveOutcome {
                    status: if res.proven {
                        OutcomeStatus::Proven
                    } else {
                        OutcomeStatus::Feasible
                    },
                    floorplan: Some(fp),
                    metrics: Some(metrics),
                    detail: None,
                    stats,
                }
            }
            None if res.proven => SolveOutcome::without_floorplan(
                OutcomeStatus::Infeasible,
                "the combinatorial search exhausted the space without a feasible floorplan",
                stats,
            ),
            None => SolveOutcome::without_floorplan(
                OutcomeStatus::BudgetExhausted,
                "search budget exhausted before any feasible floorplan was found",
                stats,
            ),
        }
    }
}

/// Shared implementation of the two MILP-backed engines.
fn solve_milp_engine(
    engine_id: &'static str,
    base: &MilpSolverConfig,
    restricted: bool,
    req: &SolveRequest,
    ctl: &SolveControl,
) -> SolveOutcome {
    let problem = req.effective_problem();
    let mut stats = EngineStats::new(engine_id);
    if let Err(e) = problem.validate() {
        stats.cancelled = ctl.cancel.is_cancelled();
        return SolveOutcome::without_floorplan(OutcomeStatus::Infeasible, e.to_string(), stats);
    }

    let engine_start = std::time::Instant::now();
    let mut cfg = base.clone();
    if req.node_limit > 0 {
        cfg.max_nodes = req.node_limit as usize;
    }
    if req.threads > 0 {
        cfg.threads = req.threads;
    }
    stats.threads = cfg.threads.max(1);
    cfg.cancel = ctl.cancel.clone();

    // A valid caller-supplied floorplan doubles as warm start and (for HO)
    // restriction seed; invalid hints are dropped.
    let hint = req.warm_start.clone().filter(|fp| fp.validate(&problem).is_empty());

    let seed = if restricted {
        // HO needs a seed whose sequence pair restricts the model. Greedy
        // first, then the complete first-feasible search (which honours the
        // budget and the cancellation token). Incumbents it reports are
        // re-tagged with this engine's id.
        match hint.clone().or_else(|| greedy_floorplan_fast(&problem)) {
            Some(fp) => Some(fp),
            None => {
                let seed_ctl = SolveControl {
                    cancel: ctl.cancel.clone(),
                    on_incumbent: ctl.on_incumbent.clone().map(|cb| {
                        Arc::new(move |e: &IncumbentEvent| {
                            cb(&IncumbentEvent { engine: engine_id, ..*e })
                        }) as IncumbentCallback
                    }),
                    shared_incumbent: None,
                };
                let seed_cfg = CombinatorialConfig {
                    first_feasible: true,
                    time_limit_secs: req.time_limit_secs,
                    threads: req.threads.max(1),
                    ..CombinatorialConfig::default()
                };
                let _seed_span = rfp_trace::span("engine.seed_search");
                match solve_combinatorial_with_control(&problem, &seed_cfg, &seed_ctl) {
                    Ok(res) if res.floorplan.is_some() => res.floorplan,
                    Ok(res) => {
                        stats.nodes = res.nodes;
                        stats.solve_seconds = res.solve_seconds;
                        stats.cancelled = res.cancelled || ctl.cancel.is_cancelled();
                        // A proven empty search means the instance itself is
                        // infeasible; otherwise the budget ran out first.
                        let (status, detail) = if res.proven {
                            (
                                OutcomeStatus::Infeasible,
                                "the seed search exhausted the space without a \
                                 feasible floorplan",
                            )
                        } else {
                            (
                                OutcomeStatus::BudgetExhausted,
                                "no seed floorplan found for the HO restriction \
                                 within the budget",
                            )
                        };
                        return SolveOutcome::without_floorplan(status, detail, stats);
                    }
                    Err(e) => {
                        stats.cancelled = ctl.cancel.is_cancelled();
                        return SolveOutcome::without_floorplan(
                            OutcomeStatus::Infeasible,
                            e.to_string(),
                            stats,
                        );
                    }
                }
            }
        }
    } else {
        None
    };

    // The request's wall-clock budget covers the whole engine run: the MILP
    // search gets whatever the seed phase left over.
    if req.time_limit_secs > 0.0 {
        let remaining = (req.time_limit_secs - engine_start.elapsed().as_secs_f64()).max(0.01);
        cfg.time_limit = Some(Duration::from_secs_f64(remaining));
    }

    // The warm start never restricts the search space — it only gives the
    // branch-and-bound an initial incumbent to prune against, which is what
    // makes the indicator-heavy floorplanning models tractable for the
    // from-scratch solver.
    let warm = hint.or_else(|| seed.clone()).or_else(|| greedy_floorplan_fast(&problem));

    let build_cfg = match &seed {
        None => MilpBuildConfig::optimal(),
        Some(seed) => {
            // The sequence pair covers the regions and, when all requested
            // areas were reserved by the seed, also the free-compatible
            // pseudo-regions (Section II-A). If the seed could not reserve
            // every area, restrict only the region pairs.
            let rects = if seed.fc_found() == problem.n_fc_areas() {
                seed.occupied()
            } else {
                seed.regions.clone()
            };
            MilpBuildConfig::heuristic_optimal(extract_relations(&rects))
        }
    };
    let model = {
        let _build = rfp_trace::span("engine.model_build");
        Arc::new(FloorplanMilp::build(&problem, &build_cfg))
    };
    stats.model_stats = Some(model.stats());

    // Cross-engine cooperation: floorplans offered by racing engines are
    // encoded into this model's variable space and adopted as incumbents by
    // the branch-and-bound, pruning the tree. The version gate keeps the
    // per-node poll allocation-free until something new actually arrives.
    if let Some(shared) = &ctl.shared_incumbent {
        let shared = shared.clone();
        let model = Arc::clone(&model);
        let problem_owned = problem.as_ref().clone();
        let last_seen = AtomicU64::new(0);
        cfg.external_incumbents = rfp_milp::ExternalIncumbents::from_fn(move || {
            let version = shared.version();
            if version == 0 || version == last_seen.load(Ordering::Relaxed) {
                return None;
            }
            last_seen.store(version, Ordering::Relaxed);
            let (_, _, fp) = shared.best()?;
            if !fp.validate(&problem_owned).is_empty() {
                return None;
            }
            model.encode(&problem_owned, &fp)
        });
    }

    let solver = MilpSolver::new(cfg);
    let start = warm.and_then(|fp| model.encode(&problem, &fp));
    rfp_trace::count("engine.warm_starts", start.is_some() as u64);
    let progress = |obj: f64, secs: f64| ctl.report_incumbent(engine_id, obj, secs);
    let mut solution = solver.solve_controlled(&model.milp, start.as_deref(), Some(&progress));

    // Assignment models keep free-compatible areas out of the formulation,
    // so an optimal assignment may leave the greedy reservation pass no room
    // for a constraint-mode request. Ban each such assignment with a no-good
    // cut and re-solve (bounded: each cut removes one assignment point).
    const MAX_FC_NOGOOD_ROUNDS: usize = 16;
    let mut retry_milp: Option<rfp_milp::Model> = None;
    let (floorplan, issues) = loop {
        stats.nodes += solution.nodes as u64;
        stats.solve_seconds += solution.solve_seconds;
        stats.lp_iterations += solution.lp_iterations as u64;
        stats.lp_solves += solution.lp_solves as u64;
        stats.lp_seconds += solution.lp_seconds;
        stats.cuts += solution.cuts as u64;
        stats.gap = solution.gap();
        stats.cancelled = solution.cancelled || ctl.cancel.is_cancelled();

        if !solution.status.has_solution() {
            return match solution.status {
                rfp_milp::SolveStatus::Infeasible => SolveOutcome::without_floorplan(
                    OutcomeStatus::Infeasible,
                    "the MILP model is infeasible",
                    stats,
                ),
                _ => SolveOutcome::without_floorplan(
                    OutcomeStatus::BudgetExhausted,
                    "solver budget exhausted before a feasible floorplan was found",
                    stats,
                ),
            };
        }
        let floorplan = model.extract(&solution);
        let issues = floorplan.validate(&problem);
        let fc_only = !issues.is_empty() && issues.iter().all(|i| i.contains("was not identified"));
        if !fc_only
            || stats.cancelled
            || retry_milp
                .as_ref()
                .is_some_and(|m| m.n_cons() >= model.milp.n_cons() + MAX_FC_NOGOOD_ROUNDS)
        {
            break (floorplan, issues);
        }
        let milp = retry_milp.get_or_insert_with(|| model.milp.clone());
        if !model.ban_assignment(&solution, milp) {
            break (floorplan, issues);
        }
        rfp_trace::count("engine.fc_nogood_retries", 1);
        solution = solver.solve_controlled(milp, None, Some(&progress));
    };
    if !issues.is_empty() {
        // A solution that passes the MILP but fails the independent validator
        // indicates numerical trouble (or an unsatisfiable constraint-mode
        // relocation request); report it rather than returning a bogus
        // floorplan.
        return SolveOutcome::without_floorplan(
            OutcomeStatus::Infeasible,
            format!("extracted floorplan failed validation: {}", issues.join("; ")),
            stats,
        );
    }
    let metrics = floorplan.metrics(&problem);
    SolveOutcome {
        // After a no-good round the optimum is only proven for the cut model:
        // the greedy reservation pass is incomplete, so a banned assignment
        // might still have admitted the areas under a smarter reservation.
        status: if solution.status == rfp_milp::SolveStatus::Optimal && retry_milp.is_none() {
            OutcomeStatus::Proven
        } else {
            OutcomeStatus::Feasible
        },
        floorplan: Some(floorplan),
        metrics: Some(metrics),
        detail: None,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{RegionSpec, RelocationRequest};
    use rfp_device::{columnar_partition, DeviceBuilder, ResourceVec};
    use std::sync::Mutex;

    fn tiny_problem() -> (FloorplanProblem, rfp_device::TileTypeId, rfp_device::TileTypeId) {
        let mut b = DeviceBuilder::new("engine-tiny");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
        b.rows(3).columns(&[clb, clb, bram, clb, clb]);
        let p = columnar_partition(&b.build().unwrap()).unwrap();
        (FloorplanProblem::new(p), clb, bram)
    }

    #[test]
    fn builtin_registry_exposes_three_engines() {
        let r = EngineRegistry::builtin();
        assert_eq!(r.ids(), vec!["milp", "ho", "combinatorial"]);
        assert!(r.get("combinatorial").is_some());
        assert!(r.get("nonsense").is_none());
        assert!(!r.is_empty());
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn registering_an_engine_with_the_same_id_replaces_it() {
        let mut r = EngineRegistry::builtin();
        let custom = CombinatorialEngine::with_config(CombinatorialConfig::feasibility());
        r.register(Arc::new(custom));
        assert_eq!(r.len(), 3);
        assert_eq!(r.ids(), vec!["milp", "ho", "combinatorial"]);
    }

    #[test]
    fn every_builtin_engine_solves_a_tiny_instance() {
        let (mut p, clb, bram) = tiny_problem();
        p.weights = ObjectiveWeights::area_only();
        p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 2)]));
        let req = SolveRequest::new(p.clone()).with_time_limit(60.0);
        let registry = EngineRegistry::builtin();
        for id in registry.ids() {
            let outcome = registry.get(id).unwrap().solve(&req, &SolveControl::default());
            assert!(outcome.status.has_floorplan(), "{id} failed: {:?}", outcome.detail);
            let fp = outcome.floorplan.as_ref().unwrap();
            assert!(fp.validate(&p).is_empty(), "{id} returned an invalid floorplan");
            assert_eq!(outcome.stats.engine, id);
        }
    }

    #[test]
    fn exact_engines_agree_and_report_proven() {
        let (mut p, clb, bram) = tiny_problem();
        p.weights = ObjectiveWeights::area_only();
        p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 2)]));
        let req = SolveRequest::new(p);
        let registry = EngineRegistry::builtin();
        let comb = registry.get("combinatorial").unwrap().solve(&req, &SolveControl::default());
        let milp = registry.get("milp").unwrap().solve(&req, &SolveControl::default());
        assert!(comb.is_proven());
        assert!(milp.is_proven());
        assert_eq!(comb.wasted_frames(), milp.wasted_frames());
        assert!(milp.stats.model_stats.is_some());
        assert!(comb.stats.model_stats.is_none());
    }

    #[test]
    fn ho_is_no_better_than_o_and_both_are_valid() {
        let (mut p, clb, bram) = tiny_problem();
        p.weights = ObjectiveWeights::area_only();
        p.add_region(RegionSpec::new("A", vec![(clb, 1), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 2)]));
        let req = SolveRequest::new(p.clone());
        let o = MilpEngine::default().solve(&req, &SolveControl::default());
        let ho = HeuristicMilpEngine::default().solve(&req, &SolveControl::default());
        assert!(ho.wasted_frames().unwrap() >= o.wasted_frames().unwrap());
        assert!(o.floorplan.unwrap().validate(&p).is_empty());
        assert!(ho.floorplan.unwrap().validate(&p).is_empty());
        assert_eq!(ho.stats.engine, "ho");
    }

    #[test]
    fn relocation_constraint_via_the_combinatorial_engine() {
        let (mut p, clb, bram) = tiny_problem();
        let a = p.add_region(RegionSpec::new("A", vec![(clb, 1), (bram, 1)]));
        p.request_relocation(RelocationRequest::constraint(a, 1));
        let outcome = CombinatorialEngine::default()
            .solve(&SolveRequest::new(p.clone()), &SolveControl::default());
        assert_eq!(outcome.metrics.unwrap().fc_found, 1);
        assert!(outcome.floorplan.unwrap().validate(&p).is_empty());
    }

    #[test]
    fn infeasible_problems_report_infeasible_not_panic() {
        let (mut p, _, bram) = tiny_problem();
        p.add_region(RegionSpec::new("A", vec![(bram, 2)]));
        p.add_region(RegionSpec::new("B", vec![(bram, 2)]));
        let req = SolveRequest::new(p);
        let outcome = EngineRegistry::builtin()
            .get("combinatorial")
            .unwrap()
            .solve(&req, &SolveControl::default());
        assert_eq!(outcome.status, OutcomeStatus::Infeasible);
        assert!(outcome.floorplan.is_none());
        assert!(matches!(outcome.into_result(), Err(FloorplanError::Infeasible { .. })));
    }

    #[test]
    fn request_node_budget_overrides_the_engine_config() {
        let (mut p, clb, bram) = tiny_problem();
        p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 2)]));
        let req = SolveRequest::new(p).with_node_limit(1);
        let outcome = EngineRegistry::builtin()
            .get("combinatorial")
            .unwrap()
            .solve(&req, &SolveControl::default());
        // One node is not enough to reach a leaf of this search.
        assert_eq!(outcome.status, OutcomeStatus::BudgetExhausted);
        assert!(matches!(outcome.into_result(), Err(FloorplanError::LimitReached)));
    }

    #[test]
    fn pre_cancelled_control_stops_every_engine() {
        let (mut p, clb, bram) = tiny_problem();
        p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        let ctl = SolveControl::default();
        ctl.cancel.cancel();
        let registry = EngineRegistry::builtin();
        for id in ["milp", "combinatorial"] {
            let outcome = registry.get(id).unwrap().solve(&SolveRequest::new(p.clone()), &ctl);
            assert!(outcome.stats.cancelled, "{id} must observe the cancellation");
        }
    }

    #[test]
    fn weight_override_is_applied_to_the_metrics() {
        let (mut p, clb, _) = tiny_problem();
        let a = p.add_region(RegionSpec::new("A", vec![(clb, 1)]));
        let b = p.add_region(RegionSpec::new("B", vec![(clb, 1)]));
        p.connect(a, b, 10.0);
        let req = SolveRequest::new(p).with_weights(ObjectiveWeights::wirelength_only());
        let outcome = EngineRegistry::builtin()
            .get("combinatorial")
            .unwrap()
            .solve(&req, &SolveControl::default());
        let m = outcome.metrics.unwrap();
        // With wirelength-only weights the objective is exactly the
        // normalised wire-length term.
        let expected = m.wirelength / req.effective_problem().wl_max();
        assert!((m.objective - expected).abs() < 1e-12);
    }

    #[test]
    fn incumbent_callback_fires_for_the_combinatorial_engine() {
        let (mut p, clb, bram) = tiny_problem();
        p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 2)]));
        let events: Arc<Mutex<Vec<IncumbentEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = events.clone();
        let ctl = SolveControl {
            cancel: CancelToken::new(),
            on_incumbent: Some(Arc::new(move |e: &IncumbentEvent| {
                sink.lock().unwrap().push(*e);
            })),
            shared_incumbent: None,
        };
        let outcome = EngineRegistry::builtin()
            .get("combinatorial")
            .unwrap()
            .solve(&SolveRequest::new(p), &ctl);
        assert!(outcome.is_proven());
        let events = events.lock().unwrap();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.engine == "combinatorial"));
        // Waste-objective improvements are monotone non-increasing.
        for w in events.windows(2) {
            assert!(w[1].objective <= w[0].objective);
        }
    }

    #[test]
    fn ho_reports_infeasible_when_the_seed_search_proves_it() {
        let (mut p, _, bram) = tiny_problem();
        // Two regions each needing 2 of the 3 BRAM tiles cannot coexist, and
        // the greedy pass cannot see that — the complete seed search proves
        // it. A time limit must not turn this proof into BudgetExhausted.
        p.add_region(RegionSpec::new("A", vec![(bram, 2)]));
        p.add_region(RegionSpec::new("B", vec![(bram, 2)]));
        let req = SolveRequest::new(p).with_time_limit(30.0);
        let outcome =
            EngineRegistry::builtin().get("ho").unwrap().solve(&req, &SolveControl::default());
        assert_eq!(outcome.status, OutcomeStatus::Infeasible, "{:?}", outcome.detail);
        assert!(outcome.stats.nodes > 0, "the seed search's work must be reported");
    }

    #[test]
    fn combinatorial_budget_exhaustion_keeps_partial_run_stats() {
        let (mut p, clb, bram) = tiny_problem();
        p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 2)]));
        let req = SolveRequest::new(p).with_node_limit(1);
        let outcome = EngineRegistry::builtin()
            .get("combinatorial")
            .unwrap()
            .solve(&req, &SolveControl::default());
        assert_eq!(outcome.status, OutcomeStatus::BudgetExhausted);
        assert_eq!(outcome.stats.nodes, 1, "the explored node must survive into the stats");
    }

    #[test]
    fn adapt_floorplan_retains_old_regions_and_places_new_ones() {
        let (mut p, clb, bram) = tiny_problem();
        p.weights = ObjectiveWeights::area_only();
        p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        let first = EngineRegistry::builtin()
            .get("combinatorial")
            .unwrap()
            .solve(&SolveRequest::new(p.clone()), &SolveControl::default());
        let prev = first.floorplan.clone().unwrap();

        // Edit: region B arrives, A keeps its index.
        let mut edited = p.clone();
        edited.add_region(RegionSpec::new("B", vec![(clb, 2)]));
        let adapted = adapt_floorplan(&prev, &[Some(0), None], &edited).unwrap();
        assert_eq!(adapted.regions[0], prev.regions[0], "retained region must not move");
        assert!(adapted.validate(&edited).is_empty());

        // The adapted floorplan warm-starts the re-solve.
        let req = SolveRequest::new(edited.clone()).with_warm_start(adapted);
        let second =
            EngineRegistry::builtin().get("milp").unwrap().solve(&req, &SolveControl::default());
        assert!(second.status.has_floorplan(), "{:?}", second.detail);
    }

    #[test]
    fn adapt_floorplan_handles_departures_and_impossible_edits() {
        let (mut p, clb, bram) = tiny_problem();
        let a = p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 2)]));
        let outcome = EngineRegistry::builtin()
            .get("combinatorial")
            .unwrap()
            .solve(&SolveRequest::new(p.clone()), &SolveControl::default());
        let prev = outcome.floorplan.clone().unwrap();

        // Departure of A: only B survives, at its old rectangle.
        let mut smaller = FloorplanProblem::new(p.partition.clone());
        smaller.add_region(p.regions[1].clone());
        let adapted = adapt_floorplan(&prev, &[Some(1)], &smaller).unwrap();
        assert_eq!(adapted.regions, vec![prev.regions[1]]);

        // A mapping of the wrong arity is rejected.
        assert!(adapt_floorplan(&prev, &[Some(0)], &p).is_none());
        // An edit that cannot fit (every BRAM tile demanded twice) fails
        // cleanly instead of producing an invalid floorplan.
        let mut impossible = p.clone();
        impossible.add_region(RegionSpec::new("C", vec![(bram, 3)]));
        assert!(adapt_floorplan(&prev, &[Some(0), Some(1), None], &impossible).is_none());
        let _ = a;
    }

    #[test]
    fn adapt_floorplan_survives_a_warm_outcome_for_a_deleted_module() {
        // The warm outcome's floorplan describes modules that no longer
        // exist in the edited problem: a mapping entry pointing past the end
        // of the previous floorplan must degrade to `None` (→ cold solve),
        // never panic or fabricate a rectangle.
        let (mut p, clb, bram) = tiny_problem();
        p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        let outcome = EngineRegistry::builtin()
            .get("combinatorial")
            .unwrap()
            .solve(&SolveRequest::new(p.clone()), &SolveControl::default());
        let prev = outcome.floorplan.clone().unwrap();
        assert_eq!(prev.regions.len(), 1);
        // The stale mapping references region 3 of a 1-region floorplan.
        assert!(adapt_floorplan(&prev, &[Some(3)], &p).is_none());
        // The cold path still solves the edited problem.
        let cold = EngineRegistry::builtin()
            .get("combinatorial")
            .unwrap()
            .solve(&SolveRequest::new(p), &SolveControl::default());
        assert!(cold.status.has_floorplan(), "{:?}", cold.detail);
    }

    #[test]
    fn adapt_floorplan_survives_a_device_whose_column_count_shrank() {
        // A previous floorplan from an 8-column device, retained onto a
        // 2-column one: the rectangle at columns 5-6 lies entirely outside
        // the shrunken device, so the adapted floorplan is invalid and the
        // adapter must return `None` (→ cold solve) instead of panicking
        // inside candidate or free-compatible enumeration.
        let prev = Floorplan::from_regions(vec![rfp_device::Rect::new(5, 1, 2, 2)]);
        let mut narrow = DeviceBuilder::new("adapt-narrow");
        let nclb = narrow.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        narrow.rows(2).columns(&[nclb, nclb]);
        let mut shrunk =
            FloorplanProblem::new(columnar_partition(&narrow.build().unwrap()).unwrap());
        shrunk.add_region(RegionSpec::new("R", vec![(nclb, 4)]));
        assert!(adapt_floorplan(&prev, &[Some(0)], &shrunk).is_none());

        // An engine handed the stale floorplan as an explicit warm start
        // must drop the invalid hint and degrade to a cold solve — the
        // 4-tile demand still fits the 2x2 device, so the solve succeeds.
        let req = SolveRequest::new(shrunk).with_warm_start(prev);
        let warmed = EngineRegistry::builtin()
            .get("combinatorial")
            .unwrap()
            .solve(&req, &SolveControl::default());
        assert!(warmed.status.has_floorplan(), "{:?}", warmed.detail);
        let fp = warmed.floorplan.unwrap();
        assert!(fp.regions[0].x2() <= 2, "the cold solve must place inside the narrow device");
    }

    #[test]
    fn with_warm_outcome_seeds_the_next_request() {
        let (mut p, clb, bram) = tiny_problem();
        p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        let registry = EngineRegistry::builtin();
        let outcome = registry
            .get("combinatorial")
            .unwrap()
            .solve(&SolveRequest::new(p.clone()), &SolveControl::default());
        let req = SolveRequest::new(p.clone()).with_warm_outcome(&outcome);
        assert_eq!(req.warm_start, outcome.floorplan);
        // An outcome without a floorplan leaves the request untouched.
        let empty = SolveOutcome::without_floorplan(
            OutcomeStatus::BudgetExhausted,
            "no",
            EngineStats::new("milp"),
        );
        let req2 = SolveRequest::new(p).with_warm_outcome(&empty);
        assert!(req2.warm_start.is_none());
    }

    #[test]
    fn ho_uses_a_warm_start_hint_as_its_seed() {
        let (mut p, clb, bram) = tiny_problem();
        p.weights = ObjectiveWeights::area_only();
        let a = p.add_region(RegionSpec::new("A", vec![(clb, 1), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 2)]));
        p.request_relocation(RelocationRequest::metric(a, 1, 1.0));
        let seed = crate::heuristic::greedy_floorplan(&p).unwrap();
        let req = SolveRequest::new(p.clone()).with_warm_start(seed);
        let outcome =
            EngineRegistry::builtin().get("ho").unwrap().solve(&req, &SolveControl::default());
        assert!(outcome.status.has_floorplan(), "{:?}", outcome.detail);
        assert!(outcome.floorplan.unwrap().validate(&p).is_empty());
    }
}
