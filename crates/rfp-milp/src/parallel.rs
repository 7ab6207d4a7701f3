//! The work-stealing worker pool of the parallel branch-and-bound.
//!
//! The best-first driver in [`crate::branch_bound`] runs the root (cuts
//! included) and the first levels of the tree itself — the ramp-up — and
//! hands the open nodes to this pool once there are enough to feed every
//! worker. A search that ends during ramp-up (infeasible root, gap closed,
//! budget) never spawns a thread. The workers run the same node step as the
//! driver — gate, LP, expansion — against the same incumbent; only the
//! scheduling differs:
//!
//! * **per-thread deques** — open nodes are dealt round-robin into one
//!   deque per worker. An owner pushes its children at the *front* and pops
//!   from the front (LIFO: a best-child dive, maximising warm-start reuse
//!   from the `Arc`-shared parent basis), while idle workers *steal from
//!   the back* — the shallowest, largest subtrees — so stolen work is
//!   coarse and contention stays at the deque ends;
//! * **per-thread pseudo-costs** — each worker learns branching costs
//!   locally and periodically folds its *delta* into a shared table
//!   ([`PseudoCosts::merge_diff`]), picking up everyone else's learning at
//!   the same time;
//! * **termination** — an atomic count of outstanding nodes (queued +
//!   in-hand) reaches zero exactly when the tree is exhausted; budget and
//!   cancellation exits fire the search's internal stop token and leave
//!   unexplored nodes in the deques, which go back to the driver so the
//!   finaliser folds them into an *honest* best bound.
//!
//! Results are deterministic — the proven objective and status match the
//! serial search — but node counts and traversal order are not: whichever
//! worker finds an incumbent first reshapes everyone else's pruning.

use crate::branch_bound::{Expansion, Gate, LpStats, Node, OrderedNode, PseudoCosts, Search};
use crate::simplex::StandardForm;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Mutex;

/// Open nodes per worker the ramp-up aims for before handing over.
pub(crate) const RAMP_FANOUT: usize = 4;

/// Local pseudo-cost observations between merges into the shared table.
const PSEUDO_MERGE_PERIOD: usize = 64;

/// The scheduling state shared by the workers of one parallel search.
struct Pool {
    /// One work deque per worker; owners use the front, thieves the back.
    deques: Vec<Mutex<VecDeque<Node>>>,
    /// Nodes queued in deques plus nodes currently being expanded; the
    /// search is exhausted exactly when this reaches zero.
    outstanding: AtomicUsize,
    /// Shared pseudo-cost table workers merge their deltas into.
    pseudo: Mutex<PseudoCosts>,
}

impl Pool {
    /// Pops work: the worker's own deque front first (LIFO dive), then the
    /// *backs* of the other deques in round-robin order (coarse steals).
    fn pop_or_steal(&self, w: usize) -> Option<Node> {
        if let Some(node) = self.deques[w].lock().unwrap().pop_front() {
            return Some(node);
        }
        let t = self.deques.len();
        for k in 1..t {
            if let Some(node) = self.deques[(w + k) % t].lock().unwrap().pop_back() {
                rfp_trace::count("milp.stolen", 1);
                return Some(node);
            }
        }
        None
    }

    /// Marks one outstanding node as done; stops everyone when it was the
    /// last.
    fn finish_node(&self, search: &Search) {
        if self.outstanding.fetch_sub(1, SeqCst) == 1 {
            search.stop.cancel();
        }
    }
}

/// Explores the open nodes of `heap` with `search.cfg.threads` workers,
/// starting from the ramp-up's pseudo-costs. Nodes a budget or cancellation
/// left unexplored are put back into `heap`; returns the workers' LP tally.
pub(crate) fn run_workers(
    search: &Search,
    sf: &StandardForm,
    heap: &mut BinaryHeap<OrderedNode>,
    pseudo: &PseudoCosts,
) -> LpStats {
    let threads = search.cfg.threads;
    let pool = Pool {
        deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
        outstanding: AtomicUsize::new(heap.len()),
        pseudo: Mutex::new(pseudo.clone()),
    };
    // Deal the open nodes round-robin, best-first, so every worker's deque
    // front holds one of the globally best nodes.
    for (i, OrderedNode(node)) in std::iter::from_fn(|| heap.pop()).enumerate() {
        pool.deques[i % threads].lock().unwrap().push_back(node);
    }

    // Workers inherit the caller's collector explicitly, each under its own
    // track — tracks only materialise for workers that emit.
    let trace = rfp_trace::current();
    let mut stats = LpStats::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let pool = &pool;
                let trace = trace.clone();
                scope.spawn(move || {
                    let _scope = trace.map(|h| h.install(&format!("milp.worker{w}")));
                    worker_loop(w, search, sf, pool)
                })
            })
            .collect();
        for handle in handles {
            stats.add(&handle.join().expect("worker panicked"));
        }
    });
    heap.extend(pool.deques.into_iter().flat_map(|dq| dq.into_inner().unwrap()).map(OrderedNode));
    stats
}

/// One worker thread: pop or steal, run the node step, push children,
/// repeat.
fn worker_loop(w: usize, search: &Search, sf: &StandardForm, pool: &Pool) -> LpStats {
    let mut stats = LpStats::default();
    // Local pseudo-cost table: starts from the shared table and
    // periodically merges its delta back.
    let mut pseudo = pool.pseudo.lock().unwrap().clone();
    let mut pseudo_base = pseudo.clone();
    let mut since_merge = 0usize;

    while !search.stop.is_cancelled() && pool.outstanding.load(SeqCst) > 0 {
        let Some(node) = pool.pop_or_steal(w) else {
            std::thread::yield_now();
            continue;
        };
        let nodes = match search.gate(&node) {
            Gate::Open(nodes) => nodes,
            Gate::Budget => {
                // The node goes *back* so the finaliser sees its bound.
                pool.deques[w].lock().unwrap().push_front(node);
                search.stop.cancel();
                break;
            }
            Gate::GapClosed => {
                rfp_trace::count("milp.pruned", 1);
                pool.finish_node(search);
                continue;
            }
        };
        let (lp, snap) = search.lp(sf, &mut stats, node.snapshot.as_deref(), &node.bounds);
        match search.expand(sf, &mut pseudo, &mut stats, &node, lp, snap, nodes) {
            Expansion::Leaf => {}
            Expansion::Interrupted => {
                // Back, as a refused node goes: the stop already fired.
                pool.deques[w].lock().unwrap().push_front(node);
                break;
            }
            Expansion::Branch(children) => {
                // Children go to the *front* of the owner's deque, down child
                // on top (popped next), so the owner keeps diving while
                // thieves take the shallower work at the back.
                let mut dq = pool.deques[w].lock().unwrap();
                pool.outstanding.fetch_add(children.len(), SeqCst);
                for child in children.into_iter().rev() {
                    dq.push_front(child);
                }
                drop(dq);
                since_merge += 1;
                if since_merge >= PSEUDO_MERGE_PERIOD {
                    since_merge = 0;
                    let mut global = pool.pseudo.lock().unwrap();
                    global.merge_diff(&pseudo, &pseudo_base);
                    pseudo = global.clone();
                    drop(global);
                    pseudo_base = pseudo.clone();
                }
            }
        }
        pool.finish_node(search);
    }

    // Final merge so the table reflects every worker's learning.
    pool.pseudo.lock().unwrap().merge_diff(&pseudo, &pseudo_base);
    stats
}
