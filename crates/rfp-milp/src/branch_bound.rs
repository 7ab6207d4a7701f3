//! Branch-and-bound MILP search on top of the revised simplex.
//!
//! One best-first search proves every model, serial or parallel, built
//! around warm-started node re-solves:
//!
//! * the model is tightened by [`crate::presolve`] (bound propagation and
//!   big-M coefficient strengthening) before the root LP is ever built;
//! * the [`crate::simplex::StandardForm`] is built once; every node carries
//!   an `Arc` to its parent's optimal **basis snapshot**, so the child LP is
//!   re-solved with the **dual simplex** in a handful of pivots after the
//!   single bound change of the branch (cold fallback when the snapshot is
//!   unusable); each thread keeps the factors of its last warm start, so a
//!   sibling re-solved right after its twin skips the refactorization;
//! * after the root LP, a **separation loop** adds cover and clique cuts
//!   ([`crate::cuts`]) and re-solves dually — "cut and branch". Only the
//!   best-first driver runs it: it alone owns the mutable standard form;
//! * every node takes the same step wherever it runs: external-incumbent
//!   poll, gap and budget gate, LP, then one expansion — prune by bound
//!   against the incumbent, integral check, an LP-guided diving heuristic
//!   (warm-started along the dive path), a rounding heuristic, and
//!   **pseudo-cost** branching (objective degradation per unit of
//!   fractionality, learned online) with a most-fractional fallback while
//!   the costs are cold;
//! * the best known solution lives in one incumbent slot shared by every
//!   thread of the search;
//! * node order is deterministic (ties broken by node id), so repeated
//!   solves of the same model explore the same tree.
//!
//! With [`SolverConfig::threads`] `<= 1` the best-first loop runs the tree
//! to exhaustion: that is the serial search. With more threads the same
//! loop is the ramp-up: it stops once the open nodes can feed every worker
//! and hands them to the work-stealing pool of the `parallel` module.

use crate::cancel::CancelToken;
use crate::cuts::Separator;
use crate::model::{Model, Sense};
use crate::simplex::{BasisSnapshot, LpConfig, LpResult, LpStatus, LuCache, StandardForm};
use crate::solution::{Solution, SolveStatus};
use crate::tol;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A source of externally-discovered feasible assignments, polled once per
/// branch-and-bound node.
///
/// This is how racing engines cooperate: a portfolio can hand a solution
/// found by one engine to the still-running MILP search, where it is
/// validated and — when feasible, integral and better than the current
/// incumbent — installed as a genuine incumbent, so the normal
/// prune-by-bound machinery cuts the tree. Installing a *solution* rather
/// than a bare objective bound keeps the status accounting sound: a search
/// whose tree empties still holds a feasible assignment to return.
///
/// The closure should be cheap and non-blocking (e.g. a version-gated read
/// of a shared slot returning `None` when nothing new arrived); it is called
/// on the hot path.
#[derive(Clone, Default)]
pub struct ExternalIncumbents {
    source: Option<Arc<dyn Fn() -> Option<Vec<f64>> + Send + Sync>>,
}

impl ExternalIncumbents {
    /// A source that never produces anything (the default).
    pub fn none() -> Self {
        ExternalIncumbents::default()
    }

    /// Wraps a polling closure. Returning `None` means "nothing new";
    /// returning `Some(values)` proposes a full variable assignment, which
    /// the solver validates before adopting.
    pub fn from_fn(f: impl Fn() -> Option<Vec<f64>> + Send + Sync + 'static) -> Self {
        ExternalIncumbents { source: Some(Arc::new(f)) }
    }

    /// Polls the source, if any.
    pub fn poll(&self) -> Option<Vec<f64>> {
        self.source.as_ref().and_then(|f| f())
    }
}

impl fmt::Debug for ExternalIncumbents {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.source.is_some() {
            "ExternalIncumbents(set)"
        } else {
            "ExternalIncumbents(none)"
        })
    }
}

/// Maximum cuts added per root separation round.
const MAX_CUTS_PER_ROUND: usize = 64;

/// Configuration of the MILP solver.
///
/// Tolerances and optimality gaps are not settable: they come from
/// [`crate::tol`], the same constants the model checker uses.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// LP (simplex) parameters.
    pub lp: LpConfig,
    /// Maximum number of branch-and-bound nodes (0 = unlimited).
    pub max_nodes: usize,
    /// Wall-clock time limit.
    pub time_limit: Option<Duration>,
    /// While no incumbent exists, run the diving heuristic every this many
    /// nodes (0 disables diving; it always runs at the root). Tests set 0,
    /// with `cut_rounds` 0, to grow cold trees.
    pub dive_period: usize,
    /// Maximum cut-separation rounds at the root (0 disables cuts). Tests
    /// switch it to isolate or exercise cut separation.
    pub cut_rounds: usize,
    /// Worker threads for the branch-and-bound tree search. `1` (the
    /// default) runs the best-first loop to exhaustion — the serial search,
    /// same node order, same proof on every run. Larger values stop that
    /// loop once the open nodes can feed every worker and explore the rest
    /// with the work-stealing parallel pool: results (proven objective,
    /// status) are deterministic, node *counts* and traversal order are not.
    pub threads: usize,
    /// Run [`crate::presolve`] (bound propagation + big-M coefficient
    /// tightening) on the model before building the root LP. On by default;
    /// tests disable it to reach the raw formulation's search.
    pub presolve: bool,
    /// Cooperative cancellation flag, polled once per node and per dive
    /// step. Share a clone of the token with another thread to abort the
    /// search; a cancelled solve reports [`crate::SolveStatus::Feasible`] or
    /// [`crate::SolveStatus::Unknown`] with [`Solution::cancelled`] set.
    pub cancel: CancelToken,
    /// Externally-discovered incumbents (see [`ExternalIncumbents`]), polled
    /// once per node.
    pub external_incumbents: ExternalIncumbents,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            lp: LpConfig::default(),
            max_nodes: 0,
            time_limit: None,
            dive_period: 256,
            cut_rounds: 10,
            threads: 1,
            presolve: true,
            cancel: CancelToken::default(),
            external_incumbents: ExternalIncumbents::none(),
        }
    }
}

/// The MILP solver.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    /// Solver configuration.
    pub config: SolverConfig,
}

/// Which branch produced a node, for pseudo-cost learning.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BranchInfo {
    /// Branched variable (structural index).
    var: usize,
    /// `true` for the up (`x ≥ ⌈v⌉`) child.
    up: bool,
    /// Parent LP objective in minimisation sense.
    parent_obj: f64,
    /// Fractional part `v − ⌊v⌋` of the branched value.
    frac: f64,
}

/// A node of the branch-and-bound tree.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// Bounds of the structural variables at this node.
    pub(crate) bounds: Vec<(f64, f64)>,
    /// Parent LP bound in minimisation sense (used for ordering).
    pub(crate) bound: f64,
    /// Depth in the tree.
    depth: usize,
    /// Monotone id for deterministic tie-breaking.
    id: usize,
    /// Parent's optimal basis, shared between siblings (and, in the parallel
    /// pool, across worker threads — hence `Arc`).
    pub(crate) snapshot: Option<Arc<BasisSnapshot>>,
    /// Branching decision that created this node.
    branch: Option<BranchInfo>,
}

/// Best-first ordering: smaller bound first, then deeper, then older.
pub(crate) struct OrderedNode(pub(crate) Node);

impl PartialEq for OrderedNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for OrderedNode {}
impl PartialOrd for OrderedNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedNode {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest bound on top.
        other
            .0
            .bound
            .partial_cmp(&self.0.bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.0.depth.cmp(&other.0.depth))
            .then_with(|| other.0.id.cmp(&self.0.id))
    }
}

/// Pseudo-cost observations per direction before a variable's own history
/// is trusted over the global average.
const RELIABILITY: u32 = 1;

/// Online pseudo-cost statistics per integer variable and direction.
#[derive(Debug, Clone)]
pub(crate) struct PseudoCosts {
    up_sum: Vec<f64>,
    up_cnt: Vec<u32>,
    down_sum: Vec<f64>,
    down_cnt: Vec<u32>,
}

impl PseudoCosts {
    pub(crate) fn new(n: usize) -> PseudoCosts {
        PseudoCosts {
            up_sum: vec![0.0; n],
            up_cnt: vec![0; n],
            down_sum: vec![0.0; n],
            down_cnt: vec![0; n],
        }
    }

    /// Records the observed per-unit objective degradation of a branch.
    fn record(&mut self, var: usize, up: bool, per_unit: f64) {
        let per_unit = per_unit.max(0.0);
        if up {
            self.up_sum[var] += per_unit;
            self.up_cnt[var] += 1;
        } else {
            self.down_sum[var] += per_unit;
            self.down_cnt[var] += 1;
        }
    }

    /// Learns from a solved child node (`child_obj` in minimisation sense),
    /// or from an infeasible one (`None`).
    fn observe(&mut self, node: &Node, child_obj: Option<f64>) {
        let Some(info) = node.branch else { return };
        let dist = if info.up { 1.0 - info.frac } else { info.frac };
        if dist <= tol::INTEGRALITY {
            return;
        }
        match child_obj {
            Some(obj) => self.record(info.var, info.up, (obj - info.parent_obj) / dist),
            // An infeasible child is the strongest possible degradation
            // signal; record a large (but finite) per-unit cost.
            None => {
                let scale = info.parent_obj.abs().max(1.0);
                self.record(info.var, info.up, scale / dist);
            }
        }
    }

    fn global_avg(sums: &[f64], cnts: &[u32]) -> Option<f64> {
        let total: u32 = cnts.iter().sum();
        (total > 0).then(|| sums.iter().sum::<f64>() / f64::from(total))
    }

    /// Folds the *delta* between a worker's current table (`newer`) and the
    /// snapshot it started from (`older`) into `self`. The parallel pool
    /// uses this to merge per-thread pseudo-cost learning into the shared
    /// table without double-counting the observations the worker inherited.
    pub(crate) fn merge_diff(&mut self, newer: &PseudoCosts, older: &PseudoCosts) {
        for j in 0..self.up_sum.len() {
            self.up_sum[j] += newer.up_sum[j] - older.up_sum[j];
            self.up_cnt[j] += newer.up_cnt[j] - older.up_cnt[j];
            self.down_sum[j] += newer.down_sum[j] - older.down_sum[j];
            self.down_cnt[j] += newer.down_cnt[j] - older.down_cnt[j];
        }
    }

    /// Picks the branching variable among `candidates` (`(index, value)` of
    /// the fractional integer variables, at least one): the one maximising
    /// the product of the estimated objective degradations of its two
    /// children. Variables with fewer than [`RELIABILITY`] observations per
    /// direction use the global average; while no observation exists at
    /// all, the most fractional candidate wins.
    fn pick(&self, candidates: &[(usize, f64)]) -> (usize, f64) {
        let avg_up = Self::global_avg(&self.up_sum, &self.up_cnt);
        let avg_down = Self::global_avg(&self.down_sum, &self.down_cnt);
        if avg_up.is_none() && avg_down.is_none() {
            return most_fractional(candidates).expect("caller guarantees a fractional candidate");
        }
        let avg_up = avg_up.unwrap_or(1.0);
        let avg_down = avg_down.unwrap_or(1.0);
        let mut best: Option<(usize, f64, f64)> = None; // (var, value, score)
        for &(j, v) in candidates {
            let f = v - v.floor();
            let cost_down = if self.down_cnt[j] >= RELIABILITY {
                self.down_sum[j] / f64::from(self.down_cnt[j])
            } else {
                avg_down
            };
            let cost_up = if self.up_cnt[j] >= RELIABILITY {
                self.up_sum[j] / f64::from(self.up_cnt[j])
            } else {
                avg_up
            };
            let score = (cost_down * f).max(1e-6) * (cost_up * (1.0 - f)).max(1e-6);
            if best.is_none_or(|(_, _, b)| score > b) {
                best = Some((j, v, score));
            }
        }
        best.map(|(j, v, _)| (j, v)).expect("caller guarantees a fractional candidate")
    }
}

/// Bookkeeping of the LP solves of one search (or one worker of it), and
/// that thread's [`LuCache`].
#[derive(Default)]
pub(crate) struct LpStats {
    iterations: usize,
    solves: usize,
    seconds: f64,
    lu: LuCache,
}

impl LpStats {
    /// Adds another tally (a finished worker's) to this one; the caches
    /// stay apart.
    pub(crate) fn add(&mut self, other: &LpStats) {
        self.iterations += other.iterations;
        self.solves += other.solves;
        self.seconds += other.seconds;
    }
}

/// `Incumbent::bits` while no incumbent exists: a NaN payload no objective
/// evaluation produces, so "none" stays distinct from every objective value.
const NO_INCUMBENT: u64 = 0x7ff8_0000_dead_beef;

/// The best known solution of one search, shared by the best-first driver
/// and every parallel worker.
///
/// Installs go through a mutex that also drives the progress callback, so
/// reported improvements stay monotone across threads. The objective is
/// mirrored into an atomic (`f64` bits) so the per-node prune and gap tests
/// take no lock; a stale read only delays a prune.
pub(crate) struct Incumbent<'a> {
    /// `(objective in minimisation sense, values)`.
    slot: Mutex<Option<(f64, Vec<f64>)>>,
    /// `f64::to_bits` of the slot's objective, or [`NO_INCUMBENT`].
    bits: AtomicU64,
    model: &'a Model,
    /// Progress callback: `(objective in the model's sense, seconds)`.
    on_incumbent: Option<&'a (dyn Fn(f64, f64) + Send + Sync)>,
    start: Instant,
}

impl<'a> Incumbent<'a> {
    fn new(
        model: &'a Model,
        on_incumbent: Option<&'a (dyn Fn(f64, f64) + Send + Sync)>,
        start: Instant,
    ) -> Self {
        Incumbent {
            slot: Mutex::new(None),
            bits: AtomicU64::new(NO_INCUMBENT),
            model,
            on_incumbent,
            start,
        }
    }

    /// Converts an objective between the model's sense and the search's
    /// minimisation sense (the map is its own inverse).
    fn flip(&self, obj: f64) -> f64 {
        if self.model.sense == Sense::Maximize {
            -obj
        } else {
            obj
        }
    }

    /// The incumbent objective (minimisation sense) as of the last install.
    fn best(&self) -> Option<f64> {
        let bits = self.bits.load(Relaxed);
        (bits != NO_INCUMBENT).then(|| f64::from_bits(bits))
    }

    /// Installs a strictly better incumbent.
    fn install(&self, obj_min: f64, values: Vec<f64>) {
        let mut slot = self.slot.lock().unwrap();
        if slot.as_ref().is_none_or(|(best, _)| obj_min < *best) {
            *slot = Some((obj_min, values));
            self.bits.store(obj_min.to_bits(), Relaxed);
            rfp_trace::count("milp.incumbents", 1);
            if let Some(cb) = self.on_incumbent {
                cb(self.flip(obj_min), self.start.elapsed().as_secs_f64());
            }
        }
    }

    /// Installs `values` when they are feasible within `tol` and strictly
    /// better than the incumbent.
    fn offer(&self, values: Vec<f64>, tol: f64) {
        if self.model.is_feasible(&values, tol) {
            self.install(self.flip(self.model.objective.eval(&values)), values);
        }
    }

    /// `true` when a node whose LP bound is `bound_min` cannot beat the
    /// incumbent by more than [`tol::GAP_ABS`].
    fn prunes(&self, bound_min: f64) -> bool {
        self.best().is_some_and(|inc| bound_min >= inc - tol::GAP_ABS)
    }

    /// `true` when the gap between the incumbent and `bound_min` is closed,
    /// absolutely or relative to the incumbent.
    fn gap_closed(&self, bound_min: f64) -> bool {
        self.best().is_some_and(|inc| gap_closed(inc, bound_min))
    }

    /// Adopts a warm start that is integral on `int_vars` within
    /// [`tol::INTEGRALITY`], feasible and better than the incumbent.
    fn adopt_warm_start(&self, values: &[f64], int_vars: &[usize]) {
        let integral = values.len() == self.model.n_vars()
            && int_vars.iter().all(|&j| (values[j] - values[j].round()).abs() <= tol::INTEGRALITY);
        if integral {
            self.offer(values.to_vec(), tol::WARM_START);
        }
    }

    /// Polls `source` and adopts its proposal, rounded on `int_vars`, when
    /// it is feasible and strictly better.
    fn poll_external(&self, source: &ExternalIncumbents, int_vars: &[usize]) {
        if let Some(values) = source.poll().filter(|v| v.len() == self.model.n_vars()) {
            self.offer(round_integers(values, int_vars), tol::WARM_START);
        }
    }
}

/// What the gate in front of a node's LP decided.
pub(crate) enum Gate {
    /// Expand the node; carries the node count, this node included.
    Open(usize),
    /// The incumbent closes the gap at the node's bound: drop the node.
    GapClosed,
    /// A node or time budget, or a cancellation, fired: keep the node open
    /// and stop the search.
    Budget,
}

/// What expanding a node produced.
pub(crate) enum Expansion {
    /// No children: the node was infeasible, unbounded, pruned by bound or
    /// an integral leaf.
    Leaf,
    /// The down and up children, in that order (a child outside the
    /// variable's bounds is left out).
    Branch(Vec<Node>),
}

/// One solve's tree search: the state every node step reads and updates,
/// whether it runs in the best-first driver or in a parallel worker.
pub(crate) struct Search<'a> {
    pub(crate) cfg: &'a SolverConfig,
    model: &'a Model,
    /// Indices of the integer variables.
    int_vars: Vec<usize>,
    /// LP parameters, sharing the stop token and the deadline.
    lp_cfg: LpConfig,
    incumbent: Incumbent<'a>,
    /// Internal stop signal: a child of the user's token, so cancelling the
    /// user's token stops every thread while an internal stop (tree
    /// exhausted, budget hit) never reports as a cancellation.
    pub(crate) stop: CancelToken,
    start: Instant,
    /// Nodes expanded, all threads together.
    nodes: AtomicUsize,
    /// Next node id.
    next_id: AtomicUsize,
    /// Set when a budget or cancellation left part of the tree unexplored.
    hit_limit: AtomicBool,
}

impl<'a> Search<'a> {
    fn new(
        cfg: &'a SolverConfig,
        model: &'a Model,
        on_incumbent: Option<&'a (dyn Fn(f64, f64) + Send + Sync)>,
        start: Instant,
    ) -> Self {
        let stop = cfg.cancel.child();
        // The LP layer shares the stop token and the deadline so an abort
        // fires even in the middle of a long relaxation solve.
        let mut lp_cfg = cfg.lp.clone();
        lp_cfg.cancel = stop.clone();
        // A limit too large to represent as an instant means no deadline.
        lp_cfg.deadline = cfg.time_limit.and_then(|limit| start.checked_add(limit));
        Search {
            cfg,
            model,
            int_vars: (0..model.n_vars()).filter(|&j| model.vars()[j].kind.is_integral()).collect(),
            lp_cfg,
            incumbent: Incumbent::new(model, on_incumbent, start),
            stop,
            start,
            nodes: AtomicUsize::new(0),
            next_id: AtomicUsize::new(0),
            hit_limit: AtomicBool::new(false),
        }
    }

    /// The root node: the model's own bounds, no parent.
    fn root(&self) -> Node {
        Node {
            bounds: self.model.vars().iter().map(|v| (v.lb, v.ub)).collect(),
            bound: f64::NEG_INFINITY,
            depth: 0,
            id: self.next_id.fetch_add(1, Relaxed),
            snapshot: None,
            branch: None,
        }
    }

    /// Solves one LP relaxation, warm from `snapshot` (through the thread's
    /// [`LuCache`]) when there is one, and tallies it.
    pub(crate) fn lp(
        &self,
        sf: &StandardForm,
        stats: &mut LpStats,
        snapshot: Option<&BasisSnapshot>,
        bounds: &[(f64, f64)],
    ) -> (LpResult, Option<BasisSnapshot>) {
        let t0 = Instant::now();
        let out = match snapshot {
            Some(s) => sf.solve_warm(s, Some(bounds), &self.lp_cfg, &mut stats.lu),
            None => sf.solve_cold(Some(bounds), &self.lp_cfg),
        };
        stats.seconds += t0.elapsed().as_secs_f64();
        stats.solves += 1;
        stats.iterations += out.0.iterations;
        // LP-solve granularity is the instrumentation floor: per-pivot
        // events would swamp the buffers for no diagnostic gain.
        rfp_trace::count("milp.lp.solves", 1);
        rfp_trace::record("milp.lp.iterations", out.0.iterations as u64);
        out
    }

    /// The gate in front of a popped node's LP: adopt external incumbents
    /// (portfolio cooperation) before any pruning decision, so a fresh one
    /// cuts this very node; then the gap test and the budgets.
    pub(crate) fn gate(&self, node: &Node) -> Gate {
        let cfg = self.cfg;
        self.incumbent.poll_external(&cfg.external_incumbents, &self.int_vars);
        if self.incumbent.gap_closed(node.bound) {
            return Gate::GapClosed;
        }
        let node_budget = cfg.max_nodes > 0 && self.nodes.load(Relaxed) >= cfg.max_nodes;
        let time_budget = cfg.time_limit.is_some_and(|limit| self.start.elapsed() >= limit);
        if node_budget || time_budget || cfg.cancel.is_cancelled() {
            self.hit_limit.store(true, Relaxed);
            return Gate::Budget;
        }
        rfp_trace::count("milp.nodes", 1);
        Gate::Open(self.nodes.fetch_add(1, Relaxed) + 1)
    }

    /// Expands a node whose LP is solved: prune by bound, integral check,
    /// diving and rounding heuristics, then branching. `nodes` is the node
    /// count [`Search::gate`] opened the node with.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn expand(
        &self,
        sf: &StandardForm,
        pseudo: &mut PseudoCosts,
        stats: &mut LpStats,
        node: &Node,
        lp: LpResult,
        snap: Option<BasisSnapshot>,
        nodes: usize,
    ) -> Expansion {
        let cfg = self.cfg;
        let inc = &self.incumbent;
        match lp.status {
            LpStatus::Infeasible => {
                pseudo.observe(node, None);
                return Expansion::Leaf;
            }
            // An unbounded relaxation of a bounded-integer problem is
            // pathological: the node can be neither pruned nor branched. (A
            // pure LP's unbounded root is reported by the finaliser.)
            LpStatus::Unbounded => return Expansion::Leaf,
            // An iteration-limited LP gives no trustworthy bound: keep
            // searching the children under the parent's bound.
            LpStatus::IterationLimit | LpStatus::Optimal => {}
        }
        let optimal = lp.status == LpStatus::Optimal;
        let bound = if optimal { inc.flip(lp.objective) } else { node.bound };
        if optimal {
            pseudo.observe(node, Some(bound));
        }
        if inc.prunes(bound) {
            rfp_trace::count("milp.pruned", 1);
            return Expansion::Leaf;
        }

        let fractional = fractional_vars(&self.int_vars, &lp.values);
        if fractional.is_empty() {
            rfp_trace::count("milp.integral", 1);
            inc.offer(round_integers(lp.values, &self.int_vars), tol::WARM_START);
            return Expansion::Leaf;
        }

        // LP-guided diving until the first incumbent is known (the root
        // always dives).
        let dive_due =
            cfg.dive_period > 0 && (node.depth == 0 || (nodes - 1).is_multiple_of(cfg.dive_period));
        if inc.best().is_none() && dive_due {
            if let Some(values) = self.dive(sf, stats, &node.bounds, &lp.values, snap.as_ref()) {
                inc.offer(values, tol::FEASIBILITY);
            }
        }
        // Rounding heuristic before branching.
        if inc.best().is_none() || nodes % 16 == 1 {
            let mut rounded = lp.values.clone();
            for &j in &self.int_vars {
                rounded[j] = rounded[j].round().clamp(node.bounds[j].0, node.bounds[j].1);
            }
            inc.offer(rounded, tol::FEASIBILITY);
        }

        let (j, v) = pseudo.pick(&fractional);
        let snapshot = snap.map(Arc::new);
        let (lbj, ubj) = node.bounds[j];
        let frac = v - v.floor();
        let mut children = Vec::with_capacity(2);
        let mut child = |range: (f64, f64), up: bool| {
            let mut bounds = node.bounds.clone();
            bounds[j] = range;
            children.push(Node {
                bounds,
                bound,
                depth: node.depth + 1,
                id: self.next_id.fetch_add(1, Relaxed),
                snapshot: snapshot.clone(),
                branch: Some(BranchInfo { var: j, up, parent_obj: bound, frac }),
            });
        };
        if v.floor() >= lbj - 1e-9 {
            child((lbj, v.floor().min(ubj)), false);
        }
        if v.ceil() <= ubj + 1e-9 {
            child((v.ceil().max(lbj), ubj), true);
        }
        Expansion::Branch(children)
    }

    /// LP-guided diving: repeatedly tighten the most fractional integer
    /// variable towards its nearest integer (a one-sided, branch-like bound
    /// change rather than a hard fix) and re-solve the LP — warm-started
    /// from the previous step's basis — flipping the direction once on
    /// infeasibility. Returns the rounded integral point it reaches, for the
    /// caller to check and offer as an incumbent.
    fn dive(
        &self,
        sf: &StandardForm,
        stats: &mut LpStats,
        start_bounds: &[(f64, f64)],
        start_values: &[f64],
        start_snapshot: Option<&BasisSnapshot>,
    ) -> Option<Vec<f64>> {
        let mut bounds = start_bounds.to_vec();
        let mut values = start_values.to_vec();
        let mut snapshot: Option<BasisSnapshot> = start_snapshot.cloned();
        // Each step moves one bound by at least one unit, so the budget is
        // generous for binary-dominated models while still bounded for wide
        // integer ranges.
        for _ in 0..4 * self.int_vars.len() + 16 {
            let out_of_time = self.cfg.time_limit.is_some_and(|l| self.start.elapsed() >= l);
            if self.stop.is_cancelled() || out_of_time {
                return None;
            }
            let frac = fractional_vars(&self.int_vars, &values);
            let Some((j, v)) = most_fractional(&frac) else {
                return Some(round_integers(values, &self.int_vars));
            };
            let (lbj, ubj) = bounds[j];
            // Tighten towards the nearest integer: raise the lower bound when
            // rounding up, lower the upper bound when rounding down.
            let up = v.round() >= v;
            bounds[j] = if up { (v.ceil().min(ubj), ubj) } else { (lbj, v.floor().max(lbj)) };
            let (lp, snap) = self.lp(sf, stats, snapshot.as_ref(), &bounds);
            if lp.status == LpStatus::Optimal {
                values = lp.values;
                snapshot = snap;
                continue;
            }
            // Infeasible (or numerically stuck): flip the direction once,
            // then give up on this dive.
            bounds[j] = if up { (lbj, v.floor().max(lbj)) } else { (v.ceil().min(ubj), ubj) };
            let (lp, snap) = self.lp(sf, stats, snapshot.as_ref(), &bounds);
            if lp.status != LpStatus::Optimal {
                return None;
            }
            values = lp.values;
            snapshot = snap;
        }
        None
    }

    /// Turns the finished search into a [`Solution`]. `open` are the bounds
    /// (minimisation sense) of the nodes left unexplored; `root_unbounded`
    /// tells whether the root relaxation was unbounded.
    fn finish(
        &self,
        open: impl IntoIterator<Item = f64>,
        stats: &LpStats,
        cuts: usize,
        root_unbounded: bool,
    ) -> Solution {
        let cfg = self.cfg;
        let elapsed = self.start.elapsed().as_secs_f64();
        let hit_limit = self.hit_limit.load(Relaxed);
        let mut any_open = false;
        // Unexplored nodes bound the optimum from below (min sense).
        let open_bound =
            open.into_iter().inspect(|_| any_open = true).fold(f64::INFINITY, f64::min);
        let exhausted = !hit_limit && !any_open;
        // A pure LP with an unbounded relaxation has no optimum to report,
        // whatever incumbent a warm start or external source supplied.
        let pure_lp_unbounded = root_unbounded && self.int_vars.is_empty();
        let incumbent = self.incumbent.slot.lock().unwrap().take().filter(|_| !pure_lp_unbounded);
        let mut sol = match incumbent {
            Some((obj_min, values)) => {
                let bound = open_bound.min(obj_min);
                let proven = exhausted || gap_closed(obj_min, bound);
                let status = if proven { SolveStatus::Optimal } else { SolveStatus::Feasible };
                Solution {
                    objective: self.incumbent.flip(obj_min),
                    best_bound: self.incumbent.flip(if exhausted { obj_min } else { bound }),
                    values,
                    ..Solution::empty(status, 0)
                }
            }
            None => {
                let status = if hit_limit {
                    SolveStatus::Unknown
                } else if root_unbounded {
                    SolveStatus::Unbounded
                } else {
                    SolveStatus::Infeasible
                };
                Solution::empty(status, self.model.n_vars())
            }
        };
        sol.nodes = self.nodes.load(Relaxed);
        sol.lp_iterations = stats.iterations;
        sol.lp_solves = stats.solves;
        sol.lp_seconds = stats.seconds;
        sol.cuts = cuts;
        sol.solve_seconds = elapsed;
        sol.cancelled = cfg.cancel.is_cancelled();
        sol
    }
}

impl Solver {
    /// Creates a solver with the given configuration.
    pub fn new(config: SolverConfig) -> Self {
        Solver { config }
    }

    /// Solves a mixed-integer linear program.
    pub fn solve(&self, model: &Model) -> Solution {
        self.solve_with_start(model, None)
    }

    /// Solves a mixed-integer linear program from a warm start.
    ///
    /// `warm_start` is a candidate assignment of every variable; when it is
    /// feasible (within tolerance) and integral on the integer variables it
    /// becomes the initial incumbent, which prunes the search from the first
    /// node. An infeasible or malformed start is silently ignored.
    pub fn solve_with_start(&self, model: &Model, warm_start: Option<&[f64]>) -> Solution {
        self.solve_controlled(model, warm_start, None)
    }

    /// Solves a mixed-integer linear program with full run-time control:
    /// a warm start (see [`Solver::solve_with_start`]) and an
    /// incumbent-progress callback invoked with `(objective, seconds)` —
    /// objective in the model's optimisation sense — every time the search
    /// finds a strictly better feasible solution. Cancellation is configured
    /// through [`SolverConfig::cancel`].
    pub fn solve_controlled(
        &self,
        model: &Model,
        warm_start: Option<&[f64]>,
        on_incumbent: Option<&(dyn Fn(f64, f64) + Send + Sync)>,
    ) -> Solution {
        let start = Instant::now();
        // Presolve up front so the whole search, serial or parallel, runs on
        // the tightened (integer-equivalent) model. Variable indices are
        // unchanged, so warm starts and external incumbents stay valid.
        let pre;
        let model = if self.config.presolve {
            {
                let _presolve = rfp_trace::span("milp.presolve");
                pre = crate::presolve::presolve(model);
            }
            rfp_trace::count("milp.presolve.rounds", pre.stats.rounds as u64);
            rfp_trace::count("milp.presolve.bounds_tightened", pre.stats.bounds_tightened as u64);
            rfp_trace::count("milp.presolve.coeffs_tightened", pre.stats.coeffs_tightened as u64);
            if pre.stats.infeasible {
                rfp_trace::count("milp.presolve.infeasible", 1);
                let mut sol = Solution::empty(SolveStatus::Infeasible, model.n_vars());
                sol.solve_seconds = start.elapsed().as_secs_f64();
                return sol;
            }
            &pre.model
        } else {
            model
        };
        self.best_first(model, warm_start, on_incumbent, start)
    }

    /// The best-first driver. At `threads <= 1` it runs the tree to
    /// exhaustion; otherwise it is the ramp-up, which stops once the open
    /// nodes can feed every worker and hands them to the parallel pool.
    fn best_first(
        &self,
        model: &Model,
        warm_start: Option<&[f64]>,
        on_incumbent: Option<&(dyn Fn(f64, f64) + Send + Sync)>,
        start: Instant,
    ) -> Solution {
        // One span name at every thread count: a root-solved instance never
        // primes the pool, so it traces identically however it was run.
        let _search = rfp_trace::span("milp.search");
        let cfg = &self.config;
        let search = Search::new(cfg, model, on_incumbent, start);
        let mut sf = StandardForm::from_model(model);
        let mut separator = Separator::new(model);
        let mut pseudo = PseudoCosts::new(model.n_vars());
        let mut stats = LpStats::default();
        let mut cuts = 0usize;
        let mut root_unbounded = false;
        let mut heap = BinaryHeap::from([OrderedNode(search.root())]);
        let target =
            if cfg.threads > 1 { cfg.threads * crate::parallel::RAMP_FANOUT } else { usize::MAX };

        if let Some(values) = warm_start {
            search.incumbent.adopt_warm_start(values, &search.int_vars);
        }
        // `true` when the loop stopped only to hand the open nodes over.
        let primed = loop {
            if heap.len() >= target {
                break true;
            }
            let Some(OrderedNode(node)) = heap.pop() else { break false };
            let nodes = match search.gate(&node) {
                Gate::Open(nodes) => nodes,
                // Keep the node's bound visible to the finaliser.
                Gate::Budget => {
                    heap.push(OrderedNode(node));
                    break false;
                }
                // Best-first: every remaining node's bound is at least
                // as large, so a gap closed here is closed everywhere.
                Gate::GapClosed => break false,
            };
            let root_lp_span = (node.depth == 0).then(|| rfp_trace::span("milp.root_lp"));
            let (mut lp, mut snap) =
                search.lp(&sf, &mut stats, node.snapshot.as_deref(), &node.bounds);
            if node.depth == 0 {
                // Root separation loop: add violated cover/clique cuts
                // and re-solve dually from the extended basis.
                for _ in 0..cfg.cut_rounds {
                    if lp.status != LpStatus::Optimal
                        || crate::simplex::is_integral(model, &lp.values, tol::INTEGRALITY)
                    {
                        break;
                    }
                    let new_cuts = separator.separate(&lp.values, MAX_CUTS_PER_ROUND);
                    if new_cuts.is_empty() {
                        break;
                    }
                    let rows: Vec<_> = new_cuts.iter().map(|c| c.as_row()).collect();
                    sf.add_rows(&rows);
                    cuts += new_cuts.len();
                    rfp_trace::count("milp.cuts", new_cuts.len() as u64);
                    let warm = snap.as_ref().and_then(|s| sf.extend_snapshot(s));
                    (lp, snap) = search.lp(&sf, &mut stats, warm.as_ref(), &node.bounds);
                }
                root_unbounded = lp.status == LpStatus::Unbounded;
            }
            drop(root_lp_span);
            match search.expand(&sf, &mut pseudo, &mut stats, &node, lp, snap, nodes) {
                Expansion::Leaf => {}
                Expansion::Branch(children) => {
                    for child in children {
                        heap.push(OrderedNode(child));
                    }
                }
            }
        };
        if primed {
            let workers = crate::parallel::run_workers(&search, &sf, &mut heap, &pseudo);
            stats.add(&workers);
        }
        search.finish(heap.iter().map(|OrderedNode(node)| node.bound), &stats, cuts, root_unbounded)
    }
}

/// `values` with every integer variable rounded to the nearest integer.
fn round_integers(mut values: Vec<f64>, int_vars: &[usize]) -> Vec<f64> {
    for &j in int_vars {
        values[j] = values[j].round();
    }
    values
}

/// `true` when the gap between an incumbent `inc` and a bound `bound_min`
/// (both in minimisation sense) is within [`tol::GAP_ABS`] or, relative to
/// the incumbent, [`tol::GAP_REL`].
fn gap_closed(inc: f64, bound_min: f64) -> bool {
    let gap = inc - bound_min;
    gap <= tol::GAP_ABS || gap <= tol::GAP_REL * inc.abs().max(1.0)
}

/// The integer variables whose LP values are fractional beyond
/// [`tol::INTEGRALITY`], with their values, in index order.
fn fractional_vars(int_vars: &[usize], values: &[f64]) -> Vec<(usize, f64)> {
    int_vars
        .iter()
        .map(|&j| (j, values[j]))
        .filter(|&(_, v)| (v - v.round()).abs() > tol::INTEGRALITY)
        .collect()
}

/// The candidate whose value is farthest from integral (ties broken towards
/// 0.5 then by index, matching the historical branching rule).
fn most_fractional(candidates: &[(usize, f64)]) -> Option<(usize, f64)> {
    candidates
        .iter()
        .map(|&(j, v)| (j, v, (v - v.round()).abs()))
        .max_by(|a, b| {
            let da = (a.2 - 0.5).abs();
            let db = (b.2 - 0.5).abs();
            db.partial_cmp(&da).unwrap_or(Ordering::Equal).then(b.0.cmp(&a.0))
        })
        .map(|(j, v, _)| (j, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{ConOp, Model, Sense};

    fn solver() -> Solver {
        Solver::default()
    }

    #[test]
    fn integer_optimum_differs_from_lp_relaxation() {
        // max x + y s.t. 2x + 3y <= 12, 4x + y <= 10, x,y >= 0 integer.
        // LP optimum is fractional (x=1.8, y=2.8, obj 4.6); ILP optimum is 4.
        let mut m = Model::new("ilp", Sense::Maximize);
        let x = m.int_var("x", 0.0, 10.0);
        let y = m.int_var("y", 0.0, 10.0);
        m.add_con("c1", LinExpr::from(x) * 2.0 + LinExpr::from(y) * 3.0, ConOp::Le, 12.0);
        m.add_con("c2", LinExpr::from(x) * 4.0 + LinExpr::from(y), ConOp::Le, 10.0);
        m.set_objective(LinExpr::from(x) + y);
        let sol = solver().solve(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 4.0).abs() < 1e-6, "objective {}", sol.objective);
        assert!(sol.verify(&m, 1e-6).is_empty());
    }

    /// Classic 0/1 knapsack: values [10, 13, 18, 31, 7, 15],
    /// weights [2, 3, 4, 5, 1, 4], capacity 10 -> optimum 56 (items 2, 3, 4).
    fn knapsack() -> Model {
        let values = [10.0, 13.0, 18.0, 31.0, 7.0, 15.0];
        let weights = [2.0, 3.0, 4.0, 5.0, 1.0, 4.0];
        let mut m = Model::new("knapsack", Sense::Maximize);
        let vars: Vec<_> = (0..6).map(|i| m.bin_var(format!("item{i}"))).collect();
        m.add_con(
            "capacity",
            LinExpr::weighted_sum(vars.iter().zip(weights.iter()).map(|(&v, &w)| (v, w))),
            ConOp::Le,
            10.0,
        );
        m.set_objective(LinExpr::weighted_sum(
            vars.iter().zip(values.iter()).map(|(&v, &c)| (v, c)),
        ));
        m
    }

    #[test]
    fn knapsack_is_solved_to_optimality() {
        let m = knapsack();
        let sol = solver().solve(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 56.0).abs() < 1e-6, "objective {}", sol.objective);
        assert!(sol.verify(&m, 1e-6).is_empty());
    }

    #[test]
    fn mutex_hints_produce_clique_cuts() {
        // max x + y + z with pairwise mutual exclusion declared as hints and
        // enforced by a capacity row the LP relaxation satisfies at 0.5s.
        let mut m = Model::new("cliq", Sense::Maximize);
        let x = m.bin_var("x");
        let y = m.bin_var("y");
        let z = m.bin_var("z");
        // Pairwise "at most one" via big-ish knapsacks the LP can cheat on.
        m.add_con("xy", LinExpr::from(x) * 2.0 + LinExpr::from(y) * 2.0, ConOp::Le, 3.0);
        m.add_con("yz", LinExpr::from(y) * 2.0 + LinExpr::from(z) * 2.0, ConOp::Le, 3.0);
        m.add_con("xz", LinExpr::from(x) * 2.0 + LinExpr::from(z) * 2.0, ConOp::Le, 3.0);
        m.add_mutex_group("xy", vec![x, y]);
        m.add_mutex_group("yz", vec![y, z]);
        m.add_mutex_group("xz", vec![x, z]);
        m.set_objective(LinExpr::from(x) + y + z);
        // Presolve's coefficient tightening reduces these knapsacks to the
        // cliques themselves (no fractional cheat left to separate), so turn
        // it off to exercise the separation machinery.
        let cfg = SolverConfig { presolve: false, ..SolverConfig::default() };
        let sol = Solver::new(cfg).solve(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 1.0).abs() < 1e-6, "objective {}", sol.objective);
        assert!(sol.cuts > 0, "the relaxation is fractional, cuts must fire");

        // With presolve on, the same optimum is proven without needing cuts:
        // the tightened rows already cut off the fractional point.
        let pre = solver().solve(&m);
        assert_eq!(pre.status, SolveStatus::Optimal);
        assert!((pre.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_integer_program() {
        // 2x = 3 with x integer has no solution.
        let mut m = Model::new("inf", Sense::Minimize);
        let x = m.int_var("x", 0.0, 10.0);
        m.add_con("odd", LinExpr::from(x) * 2.0, ConOp::Eq, 3.0);
        m.set_objective(LinExpr::from(x));
        let sol = solver().solve(&m);
        assert_eq!(sol.status, SolveStatus::Infeasible);
    }

    #[test]
    fn pure_lp_model_is_solved_at_the_root() {
        let mut m = Model::new("lp", Sense::Minimize);
        let x = m.cont_var("x", 0.0, 10.0);
        let y = m.cont_var("y", 0.0, 10.0);
        m.add_con("c", LinExpr::from(x) + y, ConOp::Ge, 3.0);
        m.set_objective(LinExpr::from(x) * 2.0 + y);
        let sol = solver().solve(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_eq!(sol.nodes, 1);
        assert!((sol.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // 2-D index math reads clearest as written
    fn equality_constrained_assignment_problem() {
        // 3x3 assignment problem with cost matrix; optimum = 5.
        let cost = [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]];
        let mut m = Model::new("assign", Sense::Minimize);
        let mut x = vec![vec![]; 3];
        for i in 0..3 {
            for j in 0..3 {
                x[i].push(m.bin_var(format!("x{i}{j}")));
            }
        }
        for i in 0..3 {
            m.add_con(
                format!("row{i}"),
                LinExpr::weighted_sum((0..3).map(|j| (x[i][j], 1.0))),
                ConOp::Eq,
                1.0,
            );
        }
        for j in 0..3 {
            m.add_con(
                format!("col{j}"),
                LinExpr::weighted_sum((0..3).map(|i| (x[i][j], 1.0))),
                ConOp::Eq,
                1.0,
            );
        }
        m.set_objective(LinExpr::weighted_sum(
            (0..3).flat_map(|i| (0..3).map(|j| (x[i][j], cost[i][j])).collect::<Vec<_>>()),
        ));
        let sol = solver().solve(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        // Optimal assignment: (0,1)=1, (1,0)=2, (2,2)=2 -> 5.
        assert!((sol.objective - 5.0).abs() < 1e-6, "objective {}", sol.objective);
    }

    #[test]
    fn node_limit_yields_feasible_or_unknown() {
        let cfg = SolverConfig { max_nodes: 1, ..SolverConfig::default() };
        let solver = Solver::new(cfg);
        let mut m = Model::new("limited", Sense::Maximize);
        let x = m.int_var("x", 0.0, 100.0);
        let y = m.int_var("y", 0.0, 100.0);
        m.add_con("c", LinExpr::from(x) * 3.0 + LinExpr::from(y) * 7.0, ConOp::Le, 20.5);
        m.set_objective(LinExpr::from(x) + LinExpr::from(y) * 2.0);
        let sol = solver.solve(&m);
        assert!(matches!(
            sol.status,
            SolveStatus::Feasible | SolveStatus::Unknown | SolveStatus::Optimal
        ));
    }

    #[test]
    fn big_m_indicator_style_model() {
        // Either x >= 5 or y >= 5 (selected by a binary), minimise x + y.
        let mut m = Model::new("bigm", Sense::Minimize);
        let x = m.cont_var("x", 0.0, 100.0);
        let y = m.cont_var("y", 0.0, 100.0);
        let z = m.bin_var("z");
        // x >= 5 - M z  and  y >= 5 - M (1 - z)
        m.add_con("x_on", LinExpr::from(x) + LinExpr::from(z) * 100.0, ConOp::Ge, 5.0);
        m.add_con("y_on", LinExpr::from(y) - LinExpr::from(z) * 100.0, ConOp::Ge, 5.0 - 100.0);
        m.set_objective(LinExpr::from(x) + y);
        let sol = Solver::default().solve(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn maximization_bounds_are_reported_in_model_sense() {
        let mut m = Model::new("sense", Sense::Maximize);
        let x = m.int_var("x", 0.0, 7.0);
        m.add_con("c", LinExpr::from(x) * 2.0, ConOp::Le, 9.0);
        m.set_objective(LinExpr::from(x));
        let sol = Solver::default().solve(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 4.0).abs() < 1e-6);
        assert!(sol.best_bound >= sol.objective - 1e-6);
        assert!(sol.gap() < 1e-6);
    }

    #[test]
    fn pre_cancelled_solve_stops_at_the_first_node() {
        let token = CancelToken::new();
        token.cancel();
        let cfg = SolverConfig { cancel: token, ..SolverConfig::default() };
        let mut m = Model::new("cancelled", Sense::Maximize);
        let x = m.int_var("x", 0.0, 100.0);
        let y = m.int_var("y", 0.0, 100.0);
        m.add_con("c", LinExpr::from(x) * 3.0 + LinExpr::from(y) * 7.0, ConOp::Le, 20.5);
        m.set_objective(LinExpr::from(x) + LinExpr::from(y) * 2.0);
        let sol = Solver::new(cfg).solve(&m);
        assert!(sol.cancelled);
        assert_eq!(sol.nodes, 0);
        assert_eq!(sol.status, SolveStatus::Unknown);
    }

    #[test]
    fn cancelled_token_interrupts_the_lp_layer_itself() {
        // The LP loops must notice the token directly: a multi-minute root
        // relaxation would otherwise run to completion before the node-level
        // cancellation check is ever reached.
        let token = CancelToken::new();
        token.cancel();
        let lp_cfg = LpConfig { cancel: token, ..LpConfig::default() };
        let mut m = Model::new("lp-interrupt", Sense::Minimize);
        let x = m.cont_var("x", 0.0, 10.0);
        let y = m.cont_var("y", 0.0, 10.0);
        m.add_con("c", LinExpr::from(x) + y, ConOp::Ge, 3.0);
        m.set_objective(LinExpr::from(x) * 2.0 + y);
        let sf = StandardForm::from_model(&m);
        let (res, _) = sf.solve_cold(None, &lp_cfg);
        assert_eq!(res.status, LpStatus::IterationLimit);
        // An expired deadline interrupts the same way.
        let deadline_cfg = LpConfig { deadline: Some(Instant::now()), ..LpConfig::default() };
        let (res, _) = sf.solve_cold(None, &deadline_cfg);
        assert_eq!(res.status, LpStatus::IterationLimit);
    }

    #[test]
    fn cancelled_solve_keeps_the_warm_start_incumbent() {
        let token = CancelToken::new();
        token.cancel();
        let cfg = SolverConfig { cancel: token, ..SolverConfig::default() };
        let mut m = Model::new("cancelled-warm", Sense::Maximize);
        let x = m.int_var("x", 0.0, 10.0);
        m.add_con("c", LinExpr::from(x), ConOp::Le, 7.0);
        m.set_objective(LinExpr::from(x));
        let sol = Solver::new(cfg).solve_with_start(&m, Some(&[3.0]));
        assert!(sol.cancelled);
        assert_eq!(sol.status, SolveStatus::Feasible);
        assert!((sol.objective - 3.0).abs() < 1e-9);
    }

    #[test]
    fn incumbent_callback_reports_monotone_improvements() {
        use std::sync::Mutex;
        let seen: Mutex<Vec<f64>> = Mutex::new(Vec::new());
        let mut m = Model::new("progress", Sense::Maximize);
        let vars: Vec<_> = (0..8).map(|i| m.bin_var(format!("b{i}"))).collect();
        m.add_con(
            "cap",
            LinExpr::weighted_sum(vars.iter().enumerate().map(|(i, &v)| (v, (i % 3 + 1) as f64))),
            ConOp::Le,
            6.0,
        );
        m.set_objective(LinExpr::weighted_sum(vars.iter().map(|&v| (v, 1.0))));
        let sol = Solver::default().solve_controlled(
            &m,
            None,
            Some(&|obj, secs| {
                assert!(secs >= 0.0);
                seen.lock().unwrap().push(obj);
            }),
        );
        assert_eq!(sol.status, SolveStatus::Optimal);
        let seen = seen.lock().unwrap();
        assert!(!seen.is_empty(), "at least the final incumbent must be reported");
        // Maximisation: each report strictly improves on the previous one.
        for w in seen.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!((seen.last().unwrap() - sol.objective).abs() < 1e-9);
    }

    #[test]
    fn solutions_are_deterministic() {
        let build = || {
            let mut m = Model::new("det", Sense::Maximize);
            let vars: Vec<_> = (0..10).map(|i| m.bin_var(format!("b{i}"))).collect();
            for k in 0..5 {
                m.add_con(
                    format!("c{k}"),
                    LinExpr::weighted_sum(
                        vars.iter().enumerate().map(|(i, &v)| (v, ((i + k) % 4 + 1) as f64)),
                    ),
                    ConOp::Le,
                    7.0,
                );
            }
            m.set_objective(LinExpr::weighted_sum(
                vars.iter().enumerate().map(|(i, &v)| (v, (i % 3 + 1) as f64)),
            ));
            m
        };
        let s1 = Solver::default().solve(&build());
        let s2 = Solver::default().solve(&build());
        assert_eq!(s1.status, s2.status);
        assert_eq!(s1.values, s2.values);
        assert_eq!(s1.nodes, s2.nodes);
    }

    /// A subset-sum style model with **no integrality gap**: the LP bound
    /// equals the integer optimum, so a best-first search without an
    /// incumbent must wander through bound-tied nodes hunting for an
    /// integral leaf, while a search holding the optimum as incumbent
    /// closes the gap immediately. This is exactly the situation of a MILP
    /// leg in a portfolio race whose sibling has already found the optimum.
    fn pruning_probe_model() -> Model {
        let mut m = Model::new("external-inc", Sense::Maximize);
        let vars: Vec<_> = (0..16).map(|i| m.bin_var(format!("b{i}"))).collect();
        let w = |i: usize| (2 * i + 3) as f64;
        m.add_con(
            "cap",
            LinExpr::weighted_sum(vars.iter().enumerate().map(|(i, &v)| (v, w(i)))),
            ConOp::Le,
            55.0,
        );
        m.set_objective(LinExpr::weighted_sum(vars.iter().enumerate().map(|(i, &v)| (v, w(i)))));
        m
    }

    #[test]
    fn external_incumbents_prune_the_tree() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Disable the incumbent heuristics so the cold run really has to
        // search for its first incumbent — the scenario a racing portfolio
        // engine is in when a sibling finishes first.
        let cold_cfg = SolverConfig { dive_period: 0, cut_rounds: 0, ..SolverConfig::default() };
        let cold = Solver::new(cold_cfg.clone()).solve(&pruning_probe_model());
        assert_eq!(cold.status, SolveStatus::Optimal);
        assert!(cold.nodes > 10, "the cold run must need a real tree, got {}", cold.nodes);

        // Hand the cold run's optimal assignment in through the external
        // source, as a portfolio loser would.
        let optimum = cold.values.clone();
        let polls = Arc::new(AtomicUsize::new(0));
        let polls_probe = polls.clone();
        let warm_cfg = SolverConfig {
            external_incumbents: ExternalIncumbents::from_fn(move || {
                // First poll delivers, later polls report "nothing new".
                if polls_probe.fetch_add(1, Ordering::SeqCst) == 0 {
                    Some(optimum.clone())
                } else {
                    None
                }
            }),
            ..cold_cfg
        };
        let warm = Solver::new(warm_cfg).solve(&pruning_probe_model());
        assert_eq!(warm.status, SolveStatus::Optimal);
        assert!((warm.objective - cold.objective).abs() < 1e-9);
        assert!(polls.load(Ordering::SeqCst) >= 1, "the source must be polled");
        assert!(
            warm.nodes < cold.nodes,
            "an adopted external incumbent must prune the tree ({} vs {} nodes)",
            warm.nodes,
            cold.nodes
        );
    }

    #[test]
    fn malformed_external_incumbents_are_ignored() {
        // Wrong length and infeasible proposals must be rejected without
        // corrupting the solve.
        let junk = Arc::new(std::sync::Mutex::new(vec![
            vec![1.0; 3],  // wrong arity
            vec![1.0; 14], // violates every capacity constraint
        ]));
        let cfg = SolverConfig {
            external_incumbents: ExternalIncumbents::from_fn(move || junk.lock().unwrap().pop()),
            ..SolverConfig::default()
        };
        let sol = Solver::new(cfg).solve(&pruning_probe_model());
        let clean = Solver::default().solve(&pruning_probe_model());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - clean.objective).abs() < 1e-9);
    }
}
