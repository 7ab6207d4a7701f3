//! Exact combinatorial branch-and-bound floorplanning engine.
//!
//! The MILP formulation (module [`crate::model`]) is the faithful
//! reproduction of the paper, but the paper solved it with a commercial
//! branch-and-cut engine; the from-scratch simplex of `rfp-milp` handles the
//! reduced instances comfortably but not the full Virtex-5 FX70T die. This
//! module provides an engine specialised to the columnar structure that
//! solves the same problem exactly:
//!
//! * every region's candidate rectangles are enumerated
//!   ([`crate::candidates`]);
//! * regions are placed one at a time by depth-first search, most-constrained
//!   region first, candidates in increasing-waste order;
//! * the objective is lexicographic — wasted frames first, then weighted wire
//!   length — matching the evaluation methodology of Section VI;
//! * relocation-as-a-constraint prunes any partial placement for which the
//!   requested free-compatible areas can no longer be packed;
//! * relocation-as-a-metric packs as many of the requested areas as possible
//!   and reports the rest as missing;
//! * a leaf packs the constraint-mode areas by backtracking, giving the
//!   areas of one region targets in increasing order: they are
//!   interchangeable, so no reordering of a target set is tried twice;
//! * both relocation modes read one [`TargetTable`]: the candidates of the
//!   relocation sources are grouped into compatibility classes, and a
//!   candidate's targets are its class's members without itself, found by
//!   one device scan per class the first time the search asks for them and
//!   then only filtered by the rects occupied at the time;
//! * occupancy is one bit per tile, kept per tile row in `u64` words
//!   (`RowMasks`): the forward check and the target filter read the words a
//!   rect covers in each of its rows instead of every placed rect;
//! * each node is forward checked when it is opened: every unplaced region
//!   must still have a candidate clear of the placed ones (its *first fit*,
//!   which is its least feasible waste, as candidates come in
//!   increasing-waste order); the waste so far plus the first-fit wastes
//!   must not exceed the incumbent's; and the placed regions' frames plus
//!   the unplaced regions' required and first-fit waste frames must fit in
//!   the device's usable frames. The first fits are kept per depth and
//!   each depth's scan starts from its parent's, since occupancy only grows
//!   down the tree;
//! * an expanded node makes all its children at once, as a bitset over its
//!   region's candidates: each region keeps per column and per row the
//!   bitsets of the candidates that start at or before it and end at or
//!   after it (`Covers`), so the candidates a rect overlaps are the AND of
//!   four bitsets. The children are the candidates clear of the placed regions
//!   that leave every constraint-mode request of a placed region `count`
//!   targets clear (per target, for the other regions' requests; per
//!   candidate, for the region's own);
//! * one node step (`SearchCtx::step`) enters a node, forward checks it,
//!   finishes a leaf or makes its children and visits them, for both the
//!   depth-first search and the parallel prefix expansion.
//!
//! The forward check removes only subtrees that hold no complete placement
//! or only placements no better than the incumbent, and a leaf is installed
//! only when it strictly improves the lexicographic objective, so an
//! unbudgeted search installs the same incumbents and returns the same
//! floorplan as a search without it, in fewer nodes. A node the check
//! prunes is still entered and counted, as one the bound prunes always was,
//! so the node budget still counts every node the search opens. Most of the
//! nodes are children the bound prunes at once: children come in
//! increasing-waste order and the incumbent changes only at leaves, so once
//! one child fails the bound every later one does too, and the step counts
//! them all as entered and bound-pruned in one step instead of entering
//! each. That step applies the node limit and the cancellation poll every
//! 64 nodes as entering them one by one would, so the node counts, and
//! where a node budget stops the search, stay those of the one-by-one
//! search. The parallel prefix expansion reaches no leaf, so it has no
//! incumbent and hands every child on to be entered by a worker.
//! [`SearchCounts`] says what became of each node, and each solve adds it to
//! the trace once.
//!
//! [`solve_combinatorial`] is the search's one entry point: the
//! `combinatorial` engine, the HO seed search and the feasibility analysis
//! all call it. Node and time limits make the engine usable inside
//! benchmarks; the result reports whether optimality was proven, and a
//! budget that stops the search before any floorplan is a result with the
//! nodes searched, not an error.
//!
//! With [`CombinatorialConfig::threads`] > 1 the search runs in parallel:
//! the tree is split serially into placement *prefixes* (level by level,
//! with the same node step as the DFS itself) until there are several
//! prefixes per worker, and scoped threads then exhaust disjoint prefix
//! subtrees against a shared incumbent. Each node is counted once, a prefix
//! by the worker that enters it; a worker starts its first-fit scans from
//! zero, which finds the same first fits. Node counts vary run to run (the
//! shared incumbent prunes at different times; without an incumbent they do
//! not), but the proven waste/wire-length results are deterministic;
//! `threads <= 1` preserves the serial search order exactly.

use crate::candidates::{enumerate_candidates, Candidate};
use crate::engine::SolveControl;
use crate::error::FloorplanError;
use crate::placement::{FcPlacement, Floorplan};
use crate::problem::{FloorplanProblem, RelocationMode};
use rfp_device::{CompatClasses, FabricPartition, Rect};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Configuration of the combinatorial engine.
///
/// The objective is not configurable: it is always lexicographic, wasted
/// frames first, then weighted wire length. There is no time limit here:
/// the wall-clock budget is the deadline of the [`SolveControl`] token
/// (see [`crate::engine::CancelToken::with_deadline`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CombinatorialConfig {
    /// Stop after this many search nodes (0 = unlimited). A request's node
    /// budget sets it, and so does `perfbench`'s `online` workload.
    pub node_limit: u64,
    /// Return the first feasible floorplan found instead of optimising
    /// (the feasibility analysis and the HO seed search set it).
    pub first_feasible: bool,
    /// Worker threads for the prefix-split parallel search (`0` or `1` =
    /// serial). The serial node order — and thus the node count — is
    /// preserved exactly at `threads <= 1`; above that only the *results*
    /// (waste, wire length, proven-ness) are deterministic. The CLI's and
    /// the protocol's `threads` set it.
    pub threads: usize,
}

impl Default for CombinatorialConfig {
    fn default() -> Self {
        CombinatorialConfig { node_limit: 0, first_feasible: false, threads: 1 }
    }
}

/// Outcome of a combinatorial solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CombinatorialResult {
    /// Best floorplan found, if any.
    pub floorplan: Option<Floorplan>,
    /// Wasted frames of the best floorplan.
    pub best_waste: Option<u64>,
    /// Weighted wire length of the best floorplan.
    pub best_wirelength: Option<f64>,
    /// `true` when the search space was exhausted (the result is optimal, or
    /// the instance proven infeasible).
    pub proven: bool,
    /// Search nodes explored.
    pub nodes: u64,
    /// Wall-clock seconds.
    pub solve_seconds: f64,
    /// What the search did with the nodes it explored.
    pub counts: SearchCounts,
}

/// What a search did with each node it entered. Every entered node is
/// exactly one of these, so the five sum to the node count; a node that the
/// budget stops before it is entered is none of them, and no node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCounts {
    /// Nodes whose waste lower bound exceeds the incumbent's waste.
    pub pruned_bound: u64,
    /// Nodes where an unplaced region has no candidate clear of the placed
    /// ones.
    pub pruned_fit: u64,
    /// Nodes whose placed regions and least-waste unplaced regions need more
    /// frames than the device has usable.
    pub pruned_capacity: u64,
    /// Complete placements reached, whether or not their free-compatible
    /// areas pack.
    pub leaves: u64,
    /// Nodes whose children were made.
    pub expanded: u64,
}

impl SearchCounts {
    /// All counted nodes.
    pub fn nodes(&self) -> u64 {
        self.pruned_bound + self.pruned_fit + self.pruned_capacity + self.leaves + self.expanded
    }

    fn add(mut self, other: SearchCounts) -> SearchCounts {
        self.pruned_bound += other.pruned_bound;
        self.pruned_fit += other.pruned_fit;
        self.pruned_capacity += other.pruned_capacity;
        self.leaves += other.leaves;
        self.expanded += other.expanded;
        self
    }

    /// Adds the counts to the current trace track, once per solve.
    fn trace(&self) {
        for (name, n) in [
            ("comb.nodes", self.nodes()),
            ("comb.pruned.bound", self.pruned_bound),
            ("comb.pruned.fit", self.pruned_fit),
            ("comb.pruned.capacity", self.pruned_capacity),
            ("comb.leaves", self.leaves),
            ("comb.expanded", self.expanded),
        ] {
            rfp_trace::count(name, n);
        }
    }
}

/// The incumbent of a parallel solve: `(waste, wirelength, floorplan,
/// path)`, where `path` is its leaf's candidate index per level of the
/// search order.
type SharedIncumbent = (u64, f64, Floorplan, Vec<usize>);

/// State shared by the workers of a parallel solve. The atomic `best_waste`
/// mirrors the mutex-held incumbent so the hot bound check in [`SearchCtx::step`]
/// never takes a lock; it may lag behind (read a stale, too-large value),
/// which only costs a little pruning, never correctness.
struct ParShared {
    /// Wasted frames of the shared incumbent; `u64::MAX` while none exists.
    best_waste: AtomicU64,
    /// The shared incumbent.
    best: Mutex<Option<SharedIncumbent>>,
    /// Global wind-down flag: budget hit, cancellation, or a first-feasible
    /// find. Workers poll it at every node.
    abort: AtomicBool,
    /// Nodes explored across all workers (the node limit is enforced on
    /// this total, so it may overshoot by at most one node per worker).
    nodes: AtomicU64,
}

/// The relocation targets of a solve. For candidate `ci` of a region that a
/// relocation request names as its source, the targets are every rect
/// compatible with that candidate: `enumerate_free_compatible(partition,
/// &rect, &[])`, in row-major order and without the candidate itself.
///
/// The candidates of the source regions are grouped into compatibility
/// classes ([`CompatClasses`]) when the table is made, and a class's members
/// are enumerated the first time one of its candidates is asked for, then
/// only read: a candidate's targets are its class's members without itself.
/// Filtering them by the rects occupied at some point yields exactly
/// `enumerate_free_compatible(partition, &rect, occupied)`, so the
/// relocation pruning, the parallel prefix expansion and the leaf packer
/// never scan the device again. The cells are `OnceLock`s: the workers of a
/// parallel solve share one table. Each class keeps its members' footprints
/// in the search's occupancy masks beside the rects.
pub struct TargetTable<'a> {
    partition: &'a FabricPartition,
    candidates: &'a [Vec<Candidate>],
    /// Words per row of the search's occupancy masks.
    words: usize,
    /// `class[region][ci]`, the class of each candidate of a relocation
    /// source (`None` for one compatible with nothing); empty for regions no
    /// request relocates.
    class: Vec<Vec<Option<usize>>>,
    classes: CompatClasses,
    /// The members of each class.
    members: Vec<OnceLock<Targets>>,
}

/// The members of a compatibility class and their footprints. Wherever the
/// search reads them, the candidate whose targets they are is placed or is
/// tested for overlap, so it never counts as its own target.
struct Targets {
    rects: Vec<Rect>,
    footprints: Vec<Footprint>,
}

/// The targets of a candidate compatible with nothing.
static NO_TARGETS: Targets = Targets { rects: Vec::new(), footprints: Vec::new() };

impl<'a> TargetTable<'a> {
    /// A table over `candidates`, the candidate lists of `problem`'s regions
    /// indexed by region id, with the classes grouped and none enumerated.
    pub fn new(problem: &'a FloorplanProblem, candidates: &'a [Vec<Candidate>]) -> Self {
        let mut sources: Vec<usize> = problem.relocation.iter().map(|req| req.region).collect();
        sources.sort_unstable();
        sources.dedup();
        let rects: Vec<Rect> =
            sources.iter().flat_map(|&r| candidates[r].iter().map(|c| c.rect)).collect();
        let classes = CompatClasses::new(&problem.partition, &rects);
        let mut class = vec![Vec::new(); candidates.len()];
        let mut next = 0;
        for &r in &sources {
            class[r] = (next..next + candidates[r].len()).map(|i| classes.class_of(i)).collect();
            next += candidates[r].len();
        }
        let members = (0..classes.len()).map(|_| OnceLock::new()).collect();
        let words = RowMasks::words(problem);
        TargetTable { partition: &problem.partition, candidates, words, class, classes, members }
    }

    /// The targets of candidate `ci` of `region`.
    ///
    /// # Panics
    /// When no relocation request names `region`, or `ci` is out of range.
    pub fn targets(&self, region: usize, ci: usize) -> Vec<Rect> {
        let own = self.candidates[region][ci].rect;
        self.entry(region, ci).rects.iter().copied().filter(|t| *t != own).collect()
    }

    /// The members of the class of candidate `ci` of `region`.
    fn entry(&self, region: usize, ci: usize) -> &Targets {
        let Some(class) = self.class[region][ci] else { return &NO_TARGETS };
        self.members[class].get_or_init(|| {
            let rects = self.classes.members(self.partition, class);
            let footprints = rects.iter().map(|r| Footprint::new(r, self.words)).collect();
            Targets { rects, footprints }
        })
    }
}

/// Where the candidates of one region lie, as bitsets over its candidates
/// (bit `k % 64` of word `k / 64` is candidate `k`) of `words` words each.
/// Per column `c`, `left` holds the candidates whose first column is at most
/// `c` and `right` those whose last column is at least `c`; `top` and
/// `bottom` do the same per row. A candidate overlaps a rect exactly when it
/// starts at or before the rect's last column and row and ends at or after
/// its first ones, so the candidates a rect overlaps are the AND of four of
/// these bitsets ([`Covers::of`]).
struct Covers {
    words: usize,
    left: Vec<u64>,
    right: Vec<u64>,
    top: Vec<u64>,
    bottom: Vec<u64>,
}

impl Covers {
    /// The covers of `cands` on a device of `cols` columns and `rows` rows.
    fn new(cands: &[Candidate], cols: u32, rows: u32) -> Self {
        let words = cands.len().div_ceil(64);
        let (cols, rows) = (cols as usize, rows as usize);
        let mut c = Covers {
            words,
            left: vec![0; cols * words],
            right: vec![0; cols * words],
            top: vec![0; rows * words],
            bottom: vec![0; rows * words],
        };
        for (k, cand) in cands.iter().enumerate() {
            let (w, bit, r) = (k / 64, 1u64 << (k % 64), &cand.rect);
            c.left[(r.x as usize - 1) * words + w] |= bit;
            c.right[(r.x2() as usize - 1) * words + w] |= bit;
            c.top[(r.y as usize - 1) * words + w] |= bit;
            c.bottom[(r.y2() as usize - 1) * words + w] |= bit;
        }
        // A candidate starting at column `x` starts at or before every
        // column from `x` on, and one ending at `x2` ends at or after every
        // column up to `x2`; the same holds for rows.
        for at in words..cols * words {
            c.left[at] |= c.left[at - words];
        }
        for at in words..rows * words {
            c.top[at] |= c.top[at - words];
        }
        for at in (0..(cols - 1) * words).rev() {
            c.right[at] |= c.right[at + words];
        }
        for at in (0..(rows - 1) * words).rev() {
            c.bottom[at] |= c.bottom[at + words];
        }
        c
    }

    /// The four bitsets whose AND holds the candidates that overlap `r`.
    fn of(&self, r: &Rect) -> [&[u64]; 4] {
        fn line(v: &[u64], i: u32, words: usize) -> &[u64] {
            &v[(i as usize - 1) * words..][..words]
        }
        let w = self.words;
        [
            line(&self.left, r.x2(), w),
            line(&self.right, r.x, w),
            line(&self.top, r.y2(), w),
            line(&self.bottom, r.y, w),
        ]
    }
}

/// The occupied tiles of a partial placement: per tile row, `words` `u64`s
/// whose bit `c - 1` (counting across the row's words) is column `c`.
/// Placed rects never overlap, so [`RowMasks::clear`] exactly undoes
/// [`RowMasks::set`].
#[derive(Clone)]
struct RowMasks {
    words: usize,
    bits: Vec<u64>,
}

/// Where a rect lies in a [`RowMasks`]: `rows` rows of `span` words from
/// word `start` on. Of each row, the rect covers the bits `first` of the
/// first word, `last` of the last word and all of the words between them (a
/// rect within one word has `span == 1` and `first == last`). The footprints
/// of the candidates and of their relocation targets are computed once per
/// solve.
struct Footprint {
    start: usize,
    span: usize,
    rows: usize,
    first: u64,
    last: u64,
}

impl Footprint {
    /// The footprint of `r` in masks of `words` words per row.
    fn new(r: &Rect, words: usize) -> Self {
        let (lo, hi) = ((r.x - 1) as usize, (r.x + r.w - 2) as usize);
        let (mut first, mut last) = (u64::MAX << (lo % 64), u64::MAX >> (63 - hi % 64));
        let span = hi / 64 - lo / 64 + 1;
        if span == 1 {
            first &= last;
            last = first;
        }
        let start = (r.y - 1) as usize * words + lo / 64;
        Footprint { start, span, rows: r.h as usize, first, last }
    }
}

impl RowMasks {
    /// Words per row on `problem`'s device.
    fn words(problem: &FloorplanProblem) -> usize {
        (problem.partition.cols as usize).div_ceil(64)
    }

    /// The masks of `placed` on `problem`'s device.
    fn new(problem: &FloorplanProblem, placed: &[Option<Rect>]) -> Self {
        let words = Self::words(problem);
        let mut masks = RowMasks { words, bits: vec![0; words * problem.partition.rows as usize] };
        for r in placed.iter().flatten() {
            masks.set(&Footprint::new(r, words));
        }
        masks
    }

    /// `true` when `f` covers an occupied tile.
    fn overlaps(&self, f: &Footprint) -> bool {
        let mut at = f.start;
        for _ in 0..f.rows {
            if self.bits[at] & f.first != 0
                || f.span > 1
                    && (self.bits[at + f.span - 1] & f.last != 0
                        || self.bits[at + 1..at + f.span - 1].iter().any(|&w| w != 0))
            {
                return true;
            }
            at += self.words;
        }
        false
    }

    /// Marks `f`'s tiles occupied.
    fn set(&mut self, f: &Footprint) {
        let mut at = f.start;
        for _ in 0..f.rows {
            self.bits[at] |= f.first;
            if f.span > 1 {
                self.bits[at + f.span - 1] |= f.last;
                self.bits[at + 1..at + f.span - 1].fill(u64::MAX);
            }
            at += self.words;
        }
    }

    /// Marks `f`'s tiles free.
    fn clear(&mut self, f: &Footprint) {
        let mut at = f.start;
        for _ in 0..f.rows {
            self.bits[at] &= !f.first;
            if f.span > 1 {
                self.bits[at + f.span - 1] &= !f.last;
                self.bits[at + 1..at + f.span - 1].fill(0);
            }
            at += self.words;
        }
    }
}

/// One search of a solve: the [`SolveParts`] it reads, copied field by field
/// so that the hot path does not chase a pointer to them at every node, and
/// the state of the current partial placement.
struct SearchCtx<'a> {
    problem: &'a FloorplanProblem,
    order: &'a [usize],
    candidates: &'a [Vec<Candidate>],
    footprints: &'a [Vec<Footprint>],
    covers: &'a [Covers],
    need: &'a [usize],
    /// Relocation targets of the candidates.
    table: &'a TargetTable<'a>,
    config: &'a CombinatorialConfig,
    ctl: &'a SolveControl,
    nodes: u64,
    aborted: bool,
    /// Current partial placement, indexed by region id.
    placed: Vec<Option<Rect>>,
    /// Candidate index of each placed region (meaningless where `placed` is
    /// `None`).
    choice: Vec<usize>,
    /// The tiles of `placed`.
    occupied: RowMasks,
    /// The children of the node being expanded at each depth, a bitset
    /// over its region's candidates per row of `stride` words (see
    /// [`SearchCtx::children`]).
    kids: Vec<u64>,
    stride: usize,
    /// Scratch bitsets of [`SearchCtx::children`].
    planes: Vec<u64>,
    /// First fits, one row of `n` candidate indices per depth, indexed by
    /// region id: the node at depth `level` reads row `level` and writes row
    /// `level + 1`. Entry `r` of a written row is the first candidate of
    /// region `r` clear of `occupied`, for the regions not placed at that
    /// node. Occupancy only grows down the tree, so a row is where the
    /// scans of the rows below it may start; all zeros is always such a
    /// start.
    fit: Vec<usize>,
    /// `rest[level]`: the sum of the first-fit wastes of the regions
    /// `order[level..]` in row `level` of `fit`, a lower bound on the waste
    /// they add below the node at depth `level` (0 after `load`).
    rest: Vec<u64>,
    /// Frames the regions need at the least, and frames the device has.
    required_frames: u64,
    usable_frames: u64,
    counts: SearchCounts,
    best: Option<(u64, f64, Floorplan)>,
    /// Present when this context is one worker of a parallel solve; the
    /// incumbent then lives in the shared state, not in `best`.
    shared: Option<&'a ParShared>,
}

impl<'a> SearchCtx<'a> {
    /// A search over `parts` at the root, with nothing placed. `shared` is
    /// the state of a parallel solve this context works for, if any.
    fn new(
        parts: &'a SolveParts<'a>,
        table: &'a TargetTable<'a>,
        shared: Option<&'a ParShared>,
    ) -> Self {
        let (problem, n) = (parts.problem, parts.problem.regions.len());
        SearchCtx {
            problem,
            order: &parts.order,
            candidates: &parts.candidates,
            footprints: &parts.footprints,
            covers: &parts.covers,
            need: &parts.need,
            table,
            config: parts.config,
            ctl: parts.ctl,
            nodes: 0,
            aborted: false,
            placed: vec![None; n],
            choice: vec![0; n],
            occupied: RowMasks::new(problem, &[]),
            kids: vec![0; n * parts.stride],
            stride: parts.stride,
            planes: Vec::new(),
            fit: vec![0; (n + 1) * n],
            rest: vec![0; n + 1],
            required_frames: parts.required_frames,
            usable_frames: parts.usable_frames,
            counts: SearchCounts::default(),
            best: None,
            shared,
        }
    }

    fn time_up(&mut self) -> bool {
        if self.aborted {
            return true;
        }
        let node_limit = self.config.node_limit;
        if let Some(sh) = self.shared {
            if sh.abort.load(Ordering::Relaxed) {
                self.aborted = true;
                return true;
            }
            if node_limit > 0 && sh.nodes.load(Ordering::Relaxed) >= node_limit {
                self.aborted = true;
                sh.abort.store(true, Ordering::Relaxed);
                return true;
            }
        } else if node_limit > 0 && self.nodes >= node_limit {
            self.aborted = true;
            return true;
        }
        // One poll covers the caller's cancellation and the deadline.
        if self.nodes.is_multiple_of(64) && self.ctl.cancel.is_cancelled() {
            self.aborted = true;
            if let Some(sh) = self.shared {
                sh.abort.store(true, Ordering::Relaxed);
            }
            return true;
        }
        false
    }

    /// Waste of the current incumbent — the shared one for a parallel
    /// worker, the local one otherwise.
    fn incumbent_waste(&self) -> Option<u64> {
        match self.shared {
            Some(sh) => {
                let w = sh.best_waste.load(Ordering::Relaxed);
                (w != u64::MAX).then_some(w)
            }
            None => self.best.as_ref().map(|(w, _, _)| *w),
        }
    }

    /// The floorplan of the current leaf: every region placed, plus its
    /// packed free-compatible areas.
    fn floorplan(&self, fc_areas: Vec<FcPlacement>) -> Floorplan {
        Floorplan {
            regions: self.placed.iter().map(|r| r.expect("all regions placed at a leaf")).collect(),
            fc_areas,
        }
    }

    /// Installs the current leaf as the incumbent when it improves the
    /// lexicographic objective; only then is its floorplan built. Parallel
    /// workers compare and install under the shared lock.
    ///
    /// Of leaves with equal objectives the serial search keeps the first it
    /// meets, the one whose choice path (candidate index per level) is
    /// lexicographically smallest. Parallel workers meet leaves in no fixed
    /// order, so on a tie they keep the smaller path, and every thread count
    /// returns the serial floorplan of a proven search.
    fn install(&mut self, waste: u64, wl: f64, fc_areas: Vec<FcPlacement>) {
        let improves = |bw: u64, bwl: f64| waste < bw || (waste == bw && wl + 1e-9 < bwl);
        let ties = |bw: u64, bwl: f64| waste == bw && (wl - bwl).abs() <= 1e-9;
        match self.shared {
            Some(sh) => {
                let path = || self.order.iter().map(|&r| self.choice[r]);
                let mut best = sh.best.lock().unwrap_or_else(|e| e.into_inner());
                let improved = best.as_ref().is_none_or(|&(bw, bwl, ..)| improves(bw, bwl));
                let earlier_tie = best.as_ref().is_some_and(|(bw, bwl, _, best_path)| {
                    ties(*bw, *bwl) && path().lt(best_path.iter().copied())
                });
                if improved || earlier_tie {
                    *best = Some((waste, wl, self.floorplan(fc_areas), path().collect()));
                    sh.best_waste.store(waste, Ordering::Relaxed);
                }
            }
            None => {
                if self.best.as_ref().is_none_or(|&(bw, bwl, _)| improves(bw, bwl)) {
                    self.best = Some((waste, wl, self.floorplan(fc_areas)));
                }
            }
        }
    }

    fn partial_wirelength(&self) -> f64 {
        let mut wl = 0.0;
        for c in &self.problem.connections {
            if let (Some(ra), Some(rb)) = (self.placed[c.a], self.placed[c.b]) {
                wl += c.weight * ra.center_distance_x2(&rb) as f64 / 2.0;
            }
        }
        wl
    }

    /// Packs the requested free-compatible areas given the fully-placed
    /// regions. Returns `None` if a constraint-mode area cannot be packed;
    /// otherwise returns the placements (metric-mode areas may be missing).
    fn pack_fc_areas(&self) -> Option<Vec<FcPlacement>> {
        let fc = self.problem.fc_areas();
        if fc.is_empty() {
            return Some(Vec::new());
        }
        let mut occupied = self.occupied.clone();
        let mut placements: Vec<FcPlacement> = Vec::with_capacity(fc.len());
        // Constraint-mode areas first (they can fail the whole packing),
        // then metric-mode areas greedily.
        let mut order: Vec<usize> = (0..fc.len()).collect();
        order.sort_by_key(|&i| match fc[i].2 {
            RelocationMode::Constraint => 0,
            RelocationMode::Metric { .. } => 1,
        });
        // Backtracking packer over the constraint-mode areas.
        let constraint_idx: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| matches!(fc[i].2, RelocationMode::Constraint))
            .collect();
        let metric_idx: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| matches!(fc[i].2, RelocationMode::Metric { .. }))
            .collect();

        let mut chosen: Vec<Option<Rect>> = vec![None; fc.len()];
        if !self.pack_constraints(&fc, &constraint_idx, 0, 0, &mut occupied, &mut chosen) {
            return None;
        }
        // Greedy packing of the metric-mode areas.
        for &i in &metric_idx {
            let region = fc[i].1;
            let targets = self.table.entry(region, self.choice[region]);
            if let Some((&rect, at)) =
                targets.rects.iter().zip(&targets.footprints).find(|(_, at)| !occupied.overlaps(at))
            {
                occupied.set(at);
                chosen[i] = Some(rect);
            }
        }
        for (i, &(request, region, mode)) in fc.iter().enumerate() {
            placements.push(FcPlacement { request, region, mode, rect: chosen[i] });
        }
        Some(placements)
    }

    /// Depth-first packing of the constraint-mode free-compatible areas,
    /// the one at `depth` taking its targets from index `from` on.
    ///
    /// Areas of one region share its target list and are interchangeable,
    /// so when the next area is of the same region it takes only later
    /// targets than this one. That skips the reorderings of target sets
    /// already tried, and nothing else: the first packing found, the one
    /// with the lexicographically least target indices, takes its targets
    /// in increasing order within a region anyway.
    fn pack_constraints(
        &self,
        fc: &[(usize, usize, RelocationMode)],
        idx: &[usize],
        depth: usize,
        from: usize,
        occupied: &mut RowMasks,
        chosen: &mut Vec<Option<Rect>>,
    ) -> bool {
        if depth == idx.len() {
            return true;
        }
        let i = idx[depth];
        let region = fc[i].1;
        let same_next = idx.get(depth + 1).is_some_and(|&j| fc[j].1 == region);
        let targets = self.table.entry(region, self.choice[region]);
        let tail = targets.rects.iter().zip(&targets.footprints).enumerate().skip(from);
        for (k, (&rect, at)) in tail {
            if occupied.overlaps(at) {
                continue;
            }
            occupied.set(at);
            chosen[i] = Some(rect);
            let next_from = if same_next { k + 1 } else { 0 };
            if self.pack_constraints(fc, idx, depth + 1, next_from, occupied, chosen) {
                return true;
            }
            occupied.clear(at);
            chosen[i] = None;
        }
        false
    }

    /// Counts the node about to be expanded, in the shared total too when
    /// working for a parallel solve; `false`, counting nothing, when the
    /// search must stop instead.
    fn enter(&mut self) -> bool {
        self.enter_many(1) == 1
    }

    /// Counts up to `k` nodes as `k` calls of [`SearchCtx::enter`] would:
    /// the node limit holds before each of them and the cancellation token
    /// is polled before every 64th node, so the nodes between two polls are
    /// counted in one step. Returns the nodes counted, fewer than `k` when
    /// the search must stop. A parallel worker claims its nodes of the
    /// shared total in one update, no more than the node limit leaves.
    fn enter_many(&mut self, k: u64) -> u64 {
        let mut entered = 0;
        while entered < k && !self.time_up() {
            let limit = self.config.node_limit;
            let mut run = (k - entered).min(64 - self.nodes % 64);
            match self.shared {
                Some(sh) => {
                    let claim =
                        |n: u64| if limit > 0 { run.min(limit.saturating_sub(n)) } else { run };
                    let before = sh
                        .nodes
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| Some(n + claim(n)))
                        .unwrap_or_else(|n| n);
                    run = claim(before);
                }
                None if limit > 0 => run = run.min(limit - self.nodes),
                None => {}
            }
            self.nodes += run;
            entered += run;
        }
        entered
    }

    /// Makes `p` the current partial placement.
    fn load(&mut self, p: &Prefix) {
        self.placed.clone_from(&p.placed);
        self.choice.clone_from(&p.choice);
        self.occupied = RowMasks::new(self.problem, &p.placed);
        self.fit.fill(0);
        self.rest.fill(0);
    }

    /// Forward checking at the node of depth `level`, whose placed regions
    /// waste `waste_so_far`. Fills row `level + 1` of `fit` and
    /// `rest[level + 1]`, and prunes the node, counting why, when
    /// * a region of `order[level..]` has no candidate clear of `occupied`
    ///   (fit);
    /// * `waste_so_far` plus those regions' first-fit wastes exceeds the
    ///   incumbent's waste (bound): candidates come in increasing-waste
    ///   order, so a first fit is its region's least feasible waste;
    /// * the placed regions' frames plus `required + first-fit waste` of
    ///   each unplaced region exceed the device's usable frames (capacity).
    ///
    /// Each prune removes only subtrees that hold no complete placement or
    /// only placements worse than the incumbent. `true` when the node
    /// survives.
    fn forward_check(&mut self, level: usize, waste_so_far: u64) -> bool {
        // The parent's first fits bound the node before any scan.
        if self.incumbent_waste().is_some_and(|best| waste_so_far + self.rest[level] > best) {
            self.counts.pruned_bound += 1;
            return false;
        }
        let n = self.placed.len();
        let mut least = waste_so_far;
        for &r in &self.order[level..] {
            let footprints = &self.footprints[r];
            let mut ci = self.fit[level * n + r];
            while ci < footprints.len() && self.occupied.overlaps(&footprints[ci]) {
                ci += 1;
            }
            if ci == footprints.len() {
                self.counts.pruned_fit += 1;
                return false;
            }
            self.fit[(level + 1) * n + r] = ci;
            least += self.candidates[r][ci].waste;
        }
        if self.incumbent_waste().is_some_and(|best| least > best) {
            self.counts.pruned_bound += 1;
            return false;
        }
        if self.required_frames + least > self.usable_frames {
            self.counts.pruned_capacity += 1;
            return false;
        }
        if let Some(&r) = self.order.get(level) {
            self.rest[level + 1] =
                least - waste_so_far - self.candidates[r][self.fit[(level + 1) * n + r]].waste;
        }
        true
    }

    /// A complete placement: packs the free-compatible areas and installs
    /// the floorplan when they pack and it improves the incumbent.
    fn leaf(&mut self, waste: u64) {
        let Some(fc_areas) = self.pack_fc_areas() else { return };
        let wl = self.partial_wirelength();
        self.install(waste, wl, fc_areas);
        if self.config.first_feasible {
            // Unwind the whole search: the result is then not proven.
            self.aborted = true;
            if let Some(sh) = self.shared {
                sh.abort.store(true, Ordering::Relaxed);
            }
        }
    }

    /// The children of the expanded node at depth `level`, whose region
    /// `order[level]` is `region` with first fit `first`, as a bitset over
    /// that region's candidates in row `level` of `kids` (only its words
    /// from `first / 64` on are written): the candidates from `first` on
    /// that are clear of the placed regions and leave every constraint-mode
    /// relocation request of a placed region, the region's own included,
    /// `count` targets clear of them all.
    ///
    /// The placed regions' rects remove what they overlap by their
    /// [`Covers`]. A request of another placed region fails exactly the
    /// candidates that overlap all but fewer than `count` of its targets
    /// clear of the placed regions: `planes` counts, per candidate and up to
    /// `count`, the clear targets it leaves free, one target at a time,
    /// until every child left has `count` of them. The region's own requests
    /// are checked per candidate against its targets.
    fn children(&mut self, level: usize, region: usize, first: usize) {
        let covers = &self.covers[region];
        let (lo, words, n_cands) = (first / 64, covers.words, self.candidates[region].len());
        let kids = &mut self.kids[level * self.stride..][..words];
        kids[lo..].fill(u64::MAX);
        kids[lo] &= u64::MAX << (first % 64);
        if n_cands % 64 != 0 {
            kids[words - 1] &= u64::MAX >> (64 - n_cands % 64);
        }
        for &q in &self.order[..level] {
            let [a, b, c, d] = covers.of(&self.placed[q].expect("placed above the node"));
            for w in lo..words {
                kids[w] &= !(a[w] & b[w] & c[w] & d[w]);
            }
        }
        for &q in &self.order[..level] {
            let need = self.need[q];
            if need == 0 {
                continue;
            }
            let targets = self.table.entry(q, self.choice[q]);
            let planes = &mut self.planes;
            planes.clear();
            planes.resize(need * words, 0);
            let full = (need - 1) * words;
            let mut enough = false;
            for (t, f) in targets.rects.iter().zip(&targets.footprints) {
                if self.occupied.overlaps(f) {
                    continue;
                }
                let [a, b, c, d] = covers.of(t);
                let mut short = 0;
                for w in lo..words {
                    let free = !(a[w] & b[w] & c[w] & d[w]);
                    for j in (1..need).rev() {
                        planes[j * words + w] |= planes[(j - 1) * words + w] & free;
                    }
                    planes[w] |= free;
                    short |= kids[w] & !planes[full + w];
                }
                if short == 0 {
                    enough = true;
                    break;
                }
            }
            if !enough {
                for w in lo..words {
                    kids[w] &= planes[full + w];
                }
            }
        }
        let need = self.need[region];
        if need == 0 {
            return;
        }
        for (w, word) in kids.iter_mut().enumerate().skip(lo) {
            let mut bits = *word;
            while bits != 0 {
                let ci = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let own = self.candidates[region][ci].rect;
                let targets = self.table.entry(region, ci);
                let free = targets
                    .rects
                    .iter()
                    .zip(&targets.footprints)
                    .filter(|(t, f)| !t.overlaps(&own) && !self.occupied.overlaps(f))
                    .take(need)
                    .count();
                if free < need {
                    *word &= !(1 << (ci % 64));
                }
            }
        }
    }

    /// The node step, which the depth-first search and the parallel prefix
    /// expansion share: enters the node of depth `level` (regions
    /// `order[..level]` placed, wasting `waste_so_far`), prunes it by
    /// [`SearchCtx::forward_check`], finishes a leaf, and otherwise makes its
    /// children ([`SearchCtx::children`]) and hands each in turn, in
    /// increasing-waste order, to `visit` with its waste so far, placing its
    /// candidate for the visit and taking it back afterwards.
    ///
    /// A child whose waste plus the first-fit wastes below it exceeds the
    /// incumbent's is one the bound prunes as soon as it is entered. The
    /// incumbent changes only at leaves, which no such child reaches (in a
    /// parallel solve another worker's leaf can only lower it), and later
    /// children waste no less, so every later child is one too: the
    /// step counts them all as entered and bound-pruned in one step
    /// ([`SearchCtx::enter_many`]) instead of visiting them. Stops early
    /// once the search is aborted.
    fn step(&mut self, level: usize, waste_so_far: u64, mut visit: impl FnMut(&mut Self, u64)) {
        if !self.enter() || !self.forward_check(level, waste_so_far) {
            return;
        }
        if level == self.order.len() {
            self.counts.leaves += 1;
            self.leaf(waste_so_far);
            return;
        }
        self.counts.expanded += 1;
        let region = self.order[level];
        let first = self.fit[(level + 1) * self.placed.len() + region];
        self.children(level, region, first);
        let (candidates, footprints) = (&self.candidates[region], &self.footprints[region]);
        let row = level * self.stride;
        let words = self.covers[region].words;
        for w in first / 64..words {
            let mut bits = self.kids[row + w];
            while bits != 0 {
                let ci = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (cand, at) = (&candidates[ci], &footprints[ci]);
                let waste = waste_so_far + cand.waste;
                if self.incumbent_waste().is_some_and(|best| waste + self.rest[level + 1] > best) {
                    let later: u64 = self.kids[row + w + 1..row + words]
                        .iter()
                        .map(|b| b.count_ones() as u64)
                        .sum();
                    let pruned = 1 + bits.count_ones() as u64 + later;
                    self.counts.pruned_bound += self.enter_many(pruned);
                    return;
                }
                self.placed[region] = Some(cand.rect);
                self.choice[region] = ci;
                self.occupied.set(at);
                visit(self, waste);
                self.occupied.clear(at);
                self.placed[region] = None;
                if self.aborted {
                    return;
                }
            }
        }
    }

    fn dfs(&mut self, level: usize, waste_so_far: u64) {
        self.step(level, waste_so_far, |ctx, waste| ctx.dfs(level + 1, waste));
    }
}

/// Solves a floorplanning problem with the combinatorial engine under a
/// [`SolveControl`]: the search polls the control's cancellation token —
/// and with it the token's deadline, the solve's wall-clock budget — in its
/// inner loop.
///
/// A budget (node limit, deadline or cancellation) that stops the search
/// before any floorplan is found is not an error: the result has
/// `floorplan: None` and `proven: false`, and keeps the nodes explored and
/// the wall clock spent; the caller asks its own token whether it fired.
/// `floorplan: None` with `proven: true` means the search space was
/// exhausted: the instance is infeasible. Only a problem that fails
/// validation or a region with no candidate placement is an error.
pub fn solve_combinatorial(
    problem: &FloorplanProblem,
    config: &CombinatorialConfig,
    ctl: &SolveControl,
) -> Result<CombinatorialResult, FloorplanError> {
    problem.validate()?;
    let start = Instant::now();

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

    // Most-constrained region first (fewest candidates), ties by larger
    // requirement.
    let mut order: Vec<usize> = (0..problem.regions.len()).collect();
    order.sort_by_key(|&r| {
        (candidates[r].len(), usize::MAX - problem.regions[r].total_tiles() as usize)
    });
    let words = RowMasks::words(problem);
    let footprints: Vec<Vec<Footprint>> = candidates
        .iter()
        .map(|cands| cands.iter().map(|c| Footprint::new(&c.rect, words)).collect())
        .collect();

    let covers: Vec<Covers> = candidates
        .iter()
        .map(|cands| Covers::new(cands, problem.partition.cols, problem.partition.rows))
        .collect();
    let mut need = vec![0; problem.regions.len()];
    for req in &problem.relocation {
        if matches!(req.mode, RelocationMode::Constraint) {
            need[req.region] = need[req.region].max(req.count as usize);
        }
    }
    let parts = SolveParts {
        problem,
        config,
        ctl,
        start,
        order,
        stride: covers.iter().map(|c| c.words).max().unwrap_or(0),
        candidates,
        footprints,
        covers,
        need,
        required_frames: problem.total_required_frames(),
        usable_frames: problem.partition.total_frames(),
    };
    let table = TargetTable::new(problem, &parts.candidates);
    let res = if config.threads > 1 {
        solve_parallel(&parts, &table)
    } else {
        let mut ctx = SearchCtx::new(&parts, &table, None);
        ctx.dfs(0, 0);
        parts.result(ctx.best, !ctx.aborted, ctx.nodes, ctx.counts)
    };
    res.counts.trace();
    Ok(res)
}

/// The setup of a solve, which every search context of it reads.
struct SolveParts<'a> {
    problem: &'a FloorplanProblem,
    config: &'a CombinatorialConfig,
    ctl: &'a SolveControl,
    start: Instant,
    /// Region order (most constrained first); `order[i]` is a region index.
    order: Vec<usize>,
    /// Candidates per region (indexed by region id).
    candidates: Vec<Vec<Candidate>>,
    /// The footprint of each candidate in the search's `occupied` masks.
    footprints: Vec<Vec<Footprint>>,
    /// The covers of each region's candidates.
    covers: Vec<Covers>,
    /// Words of the largest covers.
    stride: usize,
    /// Per region, the targets its constraint-mode requests need clear: the
    /// largest `count` among them, 0 for a region none names.
    need: Vec<usize>,
    /// Frames the regions require together.
    required_frames: u64,
    /// Usable frames of the device (forbidden tiles excluded).
    usable_frames: u64,
}

impl SolveParts<'_> {
    /// The result of a search that ended with incumbent `best` after
    /// `nodes` nodes, spent as `counts` says; `exhausted` when it searched
    /// the whole tree. A first-feasible search aborts at its first leaf, so
    /// it never claims a proof once it has a floorplan.
    fn result(
        &self,
        best: Option<(u64, f64, Floorplan)>,
        exhausted: bool,
        nodes: u64,
        counts: SearchCounts,
    ) -> CombinatorialResult {
        let (best_waste, best_wirelength, floorplan) = match best {
            Some((waste, wl, floorplan)) => (Some(waste), Some(wl), Some(floorplan)),
            None => (None, None, None),
        };
        CombinatorialResult {
            floorplan,
            best_waste,
            best_wirelength,
            proven: exhausted,
            nodes,
            solve_seconds: self.start.elapsed().as_secs_f64(),
            counts,
        }
    }
}

/// A serially-expanded placement of the first `depth` regions of the search
/// order: the root of one disjoint subtree handed to a parallel worker.
struct Prefix {
    placed: Vec<Option<Rect>>,
    /// Candidate index of each placed region.
    choice: Vec<usize>,
    waste: u64,
}

/// Prefixes generated per worker thread before the parallel phase starts;
/// several per worker so fast subtrees do not leave threads idle.
const PREFIX_FANOUT: usize = 8;

/// The prefix-split parallel search. The expansion phase enumerates, level
/// by level in the serial search order, every placement of the first few
/// regions that survives the node step's overlap and relocation pruning —
/// so the prefixes partition exactly the part of the tree the serial DFS
/// would visit. Workers then exhaust disjoint prefix subtrees against a
/// shared incumbent; an empty expansion level is already a proof of
/// infeasibility. Each node is counted once: the expansion counts the
/// prefixes it expands, a worker the prefixes it enters.
fn solve_parallel(parts: &SolveParts<'_>, table: &TargetTable<'_>) -> CombinatorialResult {
    let threads = parts.config.threads;
    let shared = ParShared {
        best_waste: AtomicU64::new(u64::MAX),
        best: Mutex::new(None),
        abort: AtomicBool::new(false),
        nodes: AtomicU64::new(0),
    };

    let mut ctx = SearchCtx::new(parts, table, Some(&shared));
    let n = parts.problem.regions.len();
    let mut prefixes = vec![Prefix { placed: vec![None; n], choice: vec![0; n], waste: 0 }];
    let mut depth = 0usize;
    'expand: while !prefixes.is_empty()
        && depth < parts.order.len()
        && prefixes.len() < threads * PREFIX_FANOUT
    {
        let mut next = Vec::new();
        for p in &prefixes {
            ctx.load(p);
            ctx.step(depth, p.waste, |ctx, waste| {
                next.push(Prefix { placed: ctx.placed.clone(), choice: ctx.choice.clone(), waste })
            });
            if ctx.aborted {
                break 'expand;
            }
        }
        prefixes = next;
        depth += 1;
    }

    // An expansion stopped by the budget has set `shared.abort`, so the
    // workers then return at once.
    let counts = std::thread::scope(|s| {
        let mut workers = Vec::new();
        for w in 0..threads {
            // Deal the prefixes round-robin: they are generated best-first
            // (increasing-waste candidate order), so every worker gets a
            // spread of promising and less promising subtrees.
            let assigned: Vec<&Prefix> = prefixes.iter().skip(w).step_by(threads).collect();
            if assigned.is_empty() {
                continue;
            }
            let shared = &shared;
            workers.push(s.spawn(move || {
                let mut ctx = SearchCtx::new(parts, table, Some(shared));
                for p in assigned {
                    if shared.abort.load(Ordering::Relaxed) {
                        break;
                    }
                    ctx.load(p);
                    ctx.dfs(depth, p.waste);
                    if ctx.aborted {
                        break;
                    }
                }
                ctx.counts
            }));
        }
        workers.into_iter().fold(ctx.counts, |counts, w| {
            counts.add(w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
        })
    });

    let best = shared.best.into_inner().unwrap_or_else(|e| e.into_inner());
    parts.result(
        best.map(|(waste, wl, floorplan, _)| (waste, wl, floorplan)),
        !shared.abort.load(Ordering::Relaxed),
        shared.nodes.load(Ordering::Relaxed),
        counts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{RegionSpec, RelocationRequest};
    use rfp_device::{columnar_partition, DeviceBuilder, ResourceVec};

    fn small_problem(
    ) -> (FloorplanProblem, rfp_device::TileTypeId, rfp_device::TileTypeId, rfp_device::TileTypeId)
    {
        let mut b = DeviceBuilder::new("small");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
        let dsp = b.tile_type("DSP", ResourceVec::new(0, 0, 1), 28);
        b.rows(4).columns(&[clb, clb, bram, clb, dsp, clb, clb, bram, clb, clb]);
        let p = columnar_partition(&b.build().unwrap()).unwrap();
        (FloorplanProblem::new(p), clb, bram, dsp)
    }

    #[test]
    fn finds_zero_waste_floorplan_when_one_exists() {
        let (mut p, clb, bram, _) = small_problem();
        p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 4)]));
        let res =
            solve_combinatorial(&p, &CombinatorialConfig::default(), &SolveControl::default())
                .unwrap();
        assert!(res.proven);
        let fp = res.floorplan.unwrap();
        assert!(fp.validate(&p).is_empty());
        // A exact fit: 1 CLB col + 1 BRAM col at height... needs 2 CLB,1 BRAM:
        // cols {2,3} height 1 covers 1 CLB + 1 BRAM (not enough CLB) -> h=2
        // over cols {2,3} gives 2 CLB + 2 BRAM (waste 30) or cols {1,2,3} h=1
        // gives 2 CLB + 1 BRAM (waste 0). B: 4 CLB = 0 waste options exist.
        assert_eq!(res.best_waste, Some(0));
    }

    #[test]
    fn respects_non_overlap() {
        let (mut p, clb, _, dsp) = small_problem();
        // Both regions need the single DSP column; they must stack vertically.
        p.add_region(RegionSpec::new("A", vec![(dsp, 2)]));
        p.add_region(RegionSpec::new("B", vec![(dsp, 2)]));
        let res =
            solve_combinatorial(&p, &CombinatorialConfig::default(), &SolveControl::default())
                .unwrap();
        let fp = res.floorplan.unwrap();
        assert!(fp.validate(&p).is_empty());
        assert!(!fp.regions[0].overlaps(&fp.regions[1]));
        let _ = clb;
    }

    #[test]
    fn detects_infeasibility_from_capacity() {
        let (mut p, _, _, dsp) = small_problem();
        // Only 4 DSP tiles exist (1 column x 4 rows); three regions of 2 DSP
        // tiles each cannot fit.
        p.add_region(RegionSpec::new("A", vec![(dsp, 2)]));
        p.add_region(RegionSpec::new("B", vec![(dsp, 2)]));
        p.add_region(RegionSpec::new("C", vec![(dsp, 2)]));
        let res =
            solve_combinatorial(&p, &CombinatorialConfig::default(), &SolveControl::default())
                .unwrap();
        assert!(res.proven);
        assert!(res.floorplan.is_none());
    }

    #[test]
    fn relocation_constraint_is_honoured() {
        let (mut p, clb, bram, _) = small_problem();
        let a = p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 3)]));
        p.request_relocation(RelocationRequest::constraint(a, 1));
        let res =
            solve_combinatorial(&p, &CombinatorialConfig::default(), &SolveControl::default())
                .unwrap();
        let fp = res.floorplan.unwrap();
        assert!(fp.validate(&p).is_empty());
        assert_eq!(fp.fc_found(), 1);
        let m = fp.metrics(&p);
        assert_eq!(m.fc_requested, 1);
        assert_eq!(m.fc_found, 1);
    }

    #[test]
    fn impossible_relocation_constraint_is_reported_infeasible() {
        let (mut p, _, _, dsp) = small_problem();
        // The region needs 3 of the 4 DSP tiles in the single DSP column; a
        // compatible copy would need 3 more -> impossible.
        let a = p.add_region(RegionSpec::new("A", vec![(dsp, 3)]));
        p.request_relocation(RelocationRequest::constraint(a, 1));
        let res =
            solve_combinatorial(&p, &CombinatorialConfig::default(), &SolveControl::default())
                .unwrap();
        assert!(res.proven);
        assert!(res.floorplan.is_none(), "no floorplan should satisfy the relocation constraint");
    }

    #[test]
    fn relocation_metric_reports_missing_areas() {
        let (mut p, _, _, dsp) = small_problem();
        let a = p.add_region(RegionSpec::new("A", vec![(dsp, 3)]));
        p.request_relocation(RelocationRequest::metric(a, 1, 2.0));
        let res =
            solve_combinatorial(&p, &CombinatorialConfig::default(), &SolveControl::default())
                .unwrap();
        let fp = res.floorplan.unwrap();
        assert!(fp.validate(&p).is_empty());
        assert_eq!(fp.fc_found(), 0);
        let m = fp.metrics(&p);
        assert_eq!(m.fc_requested, 1);
        assert!((m.relocation_cost - 2.0).abs() < 1e-12);
    }

    #[test]
    fn wirelength_is_optimised_as_secondary_criterion() {
        let (mut p, clb, _, _) = small_problem();
        let a = p.add_region(RegionSpec::new("A", vec![(clb, 2)]));
        let b = p.add_region(RegionSpec::new("B", vec![(clb, 2)]));
        p.connect(a, b, 10.0);
        let res =
            solve_combinatorial(&p, &CombinatorialConfig::default(), &SolveControl::default())
                .unwrap();
        assert!(res.proven);
        assert_eq!(res.best_waste, Some(0));
        // The least wire length over every non-overlapping zero-waste pair.
        let cands = |r: usize| crate::candidates::enumerate_candidates(&p.partition, &p.regions[r]);
        let mut best = f64::INFINITY;
        for ca in cands(a).iter().filter(|c| c.waste == 0) {
            for cb in cands(b).iter().filter(|c| c.waste == 0 && !c.rect.overlaps(&ca.rect)) {
                let fp = Floorplan { regions: vec![ca.rect, cb.rect], fc_areas: Vec::new() };
                best = best.min(fp.metrics(&p).wirelength);
            }
        }
        let wl = res.floorplan.unwrap().metrics(&p).wirelength;
        assert!((wl - best).abs() < 1e-9, "wire length {wl}, least {best}");
    }

    #[test]
    fn first_feasible_mode_is_fast_and_valid() {
        let (mut p, clb, bram, dsp) = small_problem();
        p.add_region(RegionSpec::new("A", vec![(clb, 3), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 2), (dsp, 1)]));
        p.add_region(RegionSpec::new("C", vec![(clb, 2)]));
        let first_feasible =
            CombinatorialConfig { first_feasible: true, ..CombinatorialConfig::default() };
        let res = solve_combinatorial(&p, &first_feasible, &SolveControl::default()).unwrap();
        let fp = res.floorplan.unwrap();
        assert!(fp.validate(&p).is_empty());
        assert!(!res.proven, "first-feasible mode does not prove optimality");
    }

    #[test]
    fn pre_cancelled_control_aborts_before_searching() {
        let (mut p, clb, bram, _) = small_problem();
        p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        let ctl = SolveControl::default();
        ctl.cancel.cancel();
        let res = solve_combinatorial(&p, &CombinatorialConfig::default(), &ctl)
            .expect("budget exhaustion is not an error under a control");
        assert!(res.floorplan.is_none());
        assert!(!res.proven);
        assert_eq!(res.nodes, 0, "the first poll stops the search");
    }

    #[test]
    fn node_limit_stops_unproven_and_keeps_the_nodes_searched() {
        let (mut p, clb, bram, _) = small_problem();
        p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 4)]));
        // A node limit of 1 gives the search no room to reach a leaf: the
        // stop is not an error, and the node it entered is reported.
        let cfg = CombinatorialConfig { node_limit: 1, ..CombinatorialConfig::default() };
        let res = solve_combinatorial(&p, &cfg, &SolveControl::default()).unwrap();
        assert!(res.floorplan.is_none());
        assert!(!res.proven);
        assert_eq!(res.nodes, 1);
    }

    /// A four-region connected instance busy enough that the parallel phase
    /// genuinely runs (thousands of nodes), yet fast in serial.
    fn busy_problem() -> FloorplanProblem {
        let (mut p, clb, bram, dsp) = small_problem();
        let a = p.add_region(RegionSpec::new("A", vec![(clb, 3), (bram, 1)]));
        let b = p.add_region(RegionSpec::new("B", vec![(clb, 2), (dsp, 1)]));
        let c = p.add_region(RegionSpec::new("C", vec![(clb, 2)]));
        let d = p.add_region(RegionSpec::new("D", vec![(bram, 1)]));
        p.connect(a, b, 3.0);
        p.connect(b, c, 1.0);
        p.connect(c, d, 2.0);
        p
    }

    /// Three CLB regions on a 4x3 all-CLB device with no connections: every
    /// candidate wastes nothing, so the bound never prunes and every thread
    /// count searches the same tree.
    fn zero_waste_problem() -> FloorplanProblem {
        let mut b = DeviceBuilder::new("all-clb");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        b.rows(3).columns(&[clb; 4]);
        let mut p = FloorplanProblem::new(columnar_partition(&b.build().unwrap()).unwrap());
        for (name, n) in [("A", 2), ("B", 2), ("C", 1)] {
            p.add_region(RegionSpec::new(name, vec![(clb, n)]));
        }
        p
    }

    #[test]
    fn parallel_search_proves_the_serial_results_at_every_thread_count() {
        for (p, same_tree) in [(busy_problem(), false), (zero_waste_problem(), true)] {
            let serial =
                solve_combinatorial(&p, &CombinatorialConfig::default(), &SolveControl::default())
                    .unwrap();
            assert!(serial.proven);
            for threads in [2usize, 3, 4, 8] {
                let cfg = CombinatorialConfig { threads, ..CombinatorialConfig::default() };
                let par = solve_combinatorial(&p, &cfg, &SolveControl::default()).unwrap();
                assert!(par.proven, "{threads} threads must exhaust the space");
                assert_eq!(par.best_waste, serial.best_waste, "waste at {threads} threads");
                let (swl, pwl) = (serial.best_wirelength.unwrap(), par.best_wirelength.unwrap());
                assert!(
                    (swl - pwl).abs() < 1e-9,
                    "wirelength at {threads} threads: {pwl} vs {swl}"
                );
                assert!(par.floorplan.unwrap().validate(&p).is_empty());
                if same_tree {
                    // Each node counted once, prefixes included.
                    assert_eq!(par.nodes, serial.nodes, "nodes at {threads} threads");
                }
            }
        }
    }

    /// An infeasible instance whose proof is all forward checking: `A`
    /// (two DSP tiles), `X1` and `X2` (one each) fill the only DSP column,
    /// after which `F` (a DSP tile and two CLB tiles) has no fit. `E` (two
    /// BRAM tiles) comes between them in the search order, so a node the
    /// fit check prunes would otherwise have children.
    fn dsp_blocked_problem() -> FloorplanProblem {
        let (mut p, clb, bram, dsp) = small_problem();
        p.add_region(RegionSpec::new("A", vec![(dsp, 2)]));
        p.add_region(RegionSpec::new("X1", vec![(dsp, 1)]));
        p.add_region(RegionSpec::new("X2", vec![(dsp, 1)]));
        p.add_region(RegionSpec::new("E", vec![(bram, 2)]));
        p.add_region(RegionSpec::new("F", vec![(dsp, 1), (clb, 2)]));
        p
    }

    /// Regions of 5, 5 and 1 tiles on the 12-tile all-CLB device: every
    /// region fits alone, but the two 5-tile regions each cover 6 tiles.
    fn over_capacity_problem() -> FloorplanProblem {
        let mut p = zero_waste_problem();
        let clb = p.regions[0].tile_req()[0].0;
        p.regions.clear();
        for (name, n) in [("A", 5), ("B", 5), ("C", 1)] {
            p.add_region(RegionSpec::new(name, vec![(clb, n)]));
        }
        p
    }

    #[test]
    fn infeasible_search_counts_the_same_nodes_at_every_thread_count() {
        let p = dsp_blocked_problem();
        let serial =
            solve_combinatorial(&p, &CombinatorialConfig::default(), &SolveControl::default())
                .unwrap();
        assert!(serial.proven && serial.floorplan.is_none());
        assert!(serial.counts.pruned_fit > 0, "{:?}", serial.counts);
        for threads in [2usize, 3, 4, 8] {
            let cfg = CombinatorialConfig { threads, ..CombinatorialConfig::default() };
            let par = solve_combinatorial(&p, &cfg, &SolveControl::default()).unwrap();
            assert!(par.proven && par.floorplan.is_none(), "{threads} threads");
            // No incumbent, so no bound: the same nodes are pruned, whether
            // the prefix expansion or a worker opens them.
            assert_eq!(par.nodes, serial.nodes, "nodes at {threads} threads");
            assert_eq!(par.counts, serial.counts, "counts at {threads} threads");
        }
    }

    #[test]
    fn search_counts_sum_to_the_nodes_and_reach_the_trace_once() {
        let mut seen = SearchCounts::default();
        let capped = CombinatorialConfig { node_limit: 40, ..CombinatorialConfig::default() };
        for (p, cfg) in [
            (busy_problem(), CombinatorialConfig::default()),
            (busy_problem(), capped),
            (dsp_blocked_problem(), CombinatorialConfig::default()),
            (over_capacity_problem(), CombinatorialConfig::default()),
        ] {
            let collector = rfp_trace::Collector::new();
            let res = {
                let _scope = collector.install("solve");
                solve_combinatorial(&p, &cfg, &SolveControl::default()).unwrap()
            };
            let c = res.counts;
            assert_eq!(
                res.nodes,
                c.pruned_bound + c.pruned_fit + c.pruned_capacity + c.leaves + c.expanded,
                "{c:?}"
            );
            let traced = collector.counter_snapshot();
            for (name, n) in [
                ("comb.nodes", res.nodes),
                ("comb.pruned.bound", c.pruned_bound),
                ("comb.pruned.fit", c.pruned_fit),
                ("comb.pruned.capacity", c.pruned_capacity),
                ("comb.leaves", c.leaves),
                ("comb.expanded", c.expanded),
            ] {
                assert_eq!(traced.get(name).copied().unwrap_or(0), n, "{name}: {traced:?}");
            }
            seen = seen.add(c);
        }
        assert!(seen.pruned_bound > 0 && seen.pruned_fit > 0 && seen.pruned_capacity > 0);
    }

    /// The tiny golden's device with regions of 6 CLB + 3 BRAM and 6 CLB
    /// tiles, under `copies` copies of the forbidden area `{7,1,1,2}`.
    fn tiny_with_forbidden_copies(copies: usize) -> FloorplanProblem {
        let mut b = DeviceBuilder::new("tiny-copies");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
        b.rows(3).columns(&[clb, clb, bram, clb, clb, bram, clb]);
        for _ in 0..copies {
            b.forbidden("static", Rect::new(7, 1, 1, 2));
        }
        let mut p = FloorplanProblem::new(columnar_partition(&b.build().unwrap()).unwrap());
        p.add_region(RegionSpec::new("A", vec![(clb, 6), (bram, 3)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 6)]));
        p
    }

    #[test]
    fn repeated_forbidden_areas_change_neither_capacity_nor_solve() {
        let once = tiny_with_forbidden_copies(1);
        let solved =
            solve_combinatorial(&once, &CombinatorialConfig::default(), &SolveControl::default())
                .unwrap();
        assert!(solved.proven);
        assert_eq!(solved.best_waste, Some(0));
        for copies in [3, 20] {
            let p = tiny_with_forbidden_copies(copies);
            assert!(p.validate().is_ok(), "{copies} copies");
            assert_eq!(p.partition.total_frames(), once.partition.total_frames());
            assert_eq!(p.partition.total_resources(), once.partition.total_resources());
            let res =
                solve_combinatorial(&p, &CombinatorialConfig::default(), &SolveControl::default())
                    .unwrap();
            assert_eq!(res.floorplan, solved.floorplan, "{copies} copies");
            assert_eq!((res.proven, res.nodes), (solved.proven, solved.nodes), "{copies} copies");
        }
    }

    #[test]
    fn parallel_search_proves_infeasibility() {
        let (mut p, _, _, dsp) = small_problem();
        p.add_region(RegionSpec::new("A", vec![(dsp, 2)]));
        p.add_region(RegionSpec::new("B", vec![(dsp, 2)]));
        p.add_region(RegionSpec::new("C", vec![(dsp, 2)]));
        let cfg = CombinatorialConfig { threads: 4, ..CombinatorialConfig::default() };
        let res = solve_combinatorial(&p, &cfg, &SolveControl::default()).unwrap();
        assert!(res.proven);
        assert!(res.floorplan.is_none());
    }

    #[test]
    fn parallel_first_feasible_returns_a_valid_unproven_floorplan() {
        let p = busy_problem();
        let cfg = CombinatorialConfig {
            threads: 4,
            first_feasible: true,
            ..CombinatorialConfig::default()
        };
        let res = solve_combinatorial(&p, &cfg, &SolveControl::default()).unwrap();
        assert!(!res.proven, "first-feasible mode never claims a proof");
        assert!(res.floorplan.unwrap().validate(&p).is_empty());
    }

    #[test]
    fn parallel_relocation_constraints_match_the_serial_proof() {
        let (mut p, clb, bram, _) = small_problem();
        let a = p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 3)]));
        p.request_relocation(RelocationRequest::constraint(a, 1));
        let serial =
            solve_combinatorial(&p, &CombinatorialConfig::default(), &SolveControl::default())
                .unwrap();
        let cfg = CombinatorialConfig { threads: 4, ..CombinatorialConfig::default() };
        let par = solve_combinatorial(&p, &cfg, &SolveControl::default()).unwrap();
        assert!(par.proven);
        assert_eq!(par.best_waste, serial.best_waste);
        let fp = par.floorplan.unwrap();
        assert!(fp.validate(&p).is_empty());
        assert_eq!(fp.fc_found(), 1);
    }

    #[test]
    fn cancellation_mid_parallel_search_is_reported() {
        // Five chained 3-CLB regions on a 10x4 all-CLB device: 20 million
        // nodes do not prove it (the node limit only ends the test should
        // the cancel be lost), and the first region has more candidates
        // than the 4 x PREFIX_FANOUT prefixes the expansion aims for, so the
        // serial expansion is the root alone and every other node is a
        // worker's.
        let mut b = DeviceBuilder::new("all-clb");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        b.rows(4).columns(&[clb; 10]);
        let mut p = FloorplanProblem::new(columnar_partition(&b.build().unwrap()).unwrap());
        let ids: Vec<_> = (0..5)
            .map(|i| p.add_region(RegionSpec::new(format!("R{i}"), vec![(clb, 3)])))
            .collect();
        for pair in ids.windows(2) {
            p.connect(pair[0], pair[1], 1.0);
        }
        let cfg = CombinatorialConfig {
            threads: 4,
            node_limit: 100_000_000,
            ..CombinatorialConfig::default()
        };
        // The token fires from another thread once the workers are under
        // way. A cancel that beats them stops the search within its first
        // node (the expansion and each worker poll the token at their first
        // node); then the run is repeated with a longer delay.
        for delay_ms in [20, 200, 2_000] {
            let ctl = SolveControl::default();
            let token = ctl.cancel.clone();
            let res = std::thread::scope(|s| {
                s.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                    token.cancel();
                });
                solve_combinatorial(&p, &cfg, &ctl).unwrap()
            });
            if res.nodes <= 1 {
                continue;
            }
            assert!(!res.proven, "a cancelled run must be reported unproven");
            // Whatever was found before the cancel is still a valid floorplan.
            if let Some(fp) = res.floorplan {
                assert!(fp.validate(&p).is_empty());
            }
            return;
        }
        panic!("every cancel landed before the workers started");
    }

    #[test]
    fn parallel_node_limit_is_honoured_across_workers() {
        let p = busy_problem();
        let serial =
            solve_combinatorial(&p, &CombinatorialConfig::default(), &SolveControl::default())
                .unwrap();
        // Deep enough into the search that the workers are running, far from
        // enough to exhaust it.
        let limit = serial.nodes / 2;
        let cfg =
            CombinatorialConfig { threads: 4, node_limit: limit, ..CombinatorialConfig::default() };
        let res = solve_combinatorial(&p, &cfg, &SolveControl::default()).unwrap();
        assert!(!res.proven, "a truncated run must not claim a proof");
        // The workers stop within one node each of the shared limit; the
        // serial expansion phase (well under `limit` nodes here) is included
        // in the count.
        assert!(res.nodes <= limit + 4, "nodes {} vs limit {limit}", res.nodes);
        if let Some(fp) = res.floorplan {
            assert!(fp.validate(&p).is_empty());
        }
    }
}
