//! Look-ahead node LPs: the parallel half of the branch-and-bound.
//!
//! The best-first driver in [`crate::branch_bound`] expands every node
//! itself, in the serial order. With more than one thread it also posts the
//! open nodes next in that order to helper threads, which solve their LPs
//! ahead of time. A node LP is a pure function of the standard form, the
//! parent's basis snapshot and the node's bounds (an [`LuCache`] hands out
//! the factors a refactorization would, bit for bit), so when the driver
//! reaches a posted node it takes the helper's result instead of solving
//! the LP itself, and the search stays the serial one: every thread count
//! returns the `threads: 1` solution, node and LP counts included. Only the
//! LPs of nodes the search ends before reaching are solved in vain. The
//! trace counts both ends: each helper counts the LPs it finishes
//! (`milp.lp.helper_solves`), the driver those it takes (`milp.lp.ahead`)
//! and, at [`LookAhead::close`], those it never took
//! (`milp.lp.ahead_unused`), so the first is the sum of the other two.

use crate::branch_bound::Node;
use crate::simplex::{BasisSnapshot, LpConfig, LpResult, LuCache, StandardForm};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::Scope;
use std::time::Instant;

/// Why a lock of the shared state fails: a thread panicked holding it.
const POISONED: &str = "a look-ahead thread panicked holding the lock";

/// A solved node LP: the result, the optimal basis (when optimal) and the
/// seconds the solve took.
pub(crate) type NodeLp = (LpResult, Option<BasisSnapshot>, f64);

/// Solves the LP of a node with `bounds`, warm from `snapshot` through
/// `lu` when there is one: the one node LP solve, wherever it runs.
pub(crate) fn solve_node_lp(
    sf: &StandardForm,
    cfg: &LpConfig,
    lu: &mut LuCache,
    snapshot: Option<&BasisSnapshot>,
    bounds: &[(f64, f64)],
) -> NodeLp {
    let t0 = Instant::now();
    let (lp, snap) = match snapshot {
        Some(s) => sf.solve_warm(s, Some(bounds), cfg, lu),
        None => sf.solve_cold(Some(bounds), cfg),
    };
    (lp, snap, t0.elapsed().as_secs_f64())
}

/// A posted node: what its LP needs.
struct Job {
    id: usize,
    snapshot: Option<Arc<BasisSnapshot>>,
    bounds: Vec<(f64, f64)>,
}

/// The state the driver and the helpers share.
#[derive(Default)]
struct State {
    /// Posted nodes no helper has taken yet, best first.
    queue: VecDeque<Job>,
    /// Ids of the nodes whose LP a helper is solving.
    running: HashSet<usize>,
    /// Solved LPs by node id.
    done: HashMap<usize, NodeLp>,
    /// Set when the search is over: the helpers return.
    closed: bool,
}

/// The helper threads of one search and the nodes posted to them.
pub(crate) struct LookAhead {
    state: Mutex<State>,
    /// Signalled when a job is posted, an LP is solved or the search ends.
    changed: Condvar,
    /// Nodes posted at a time: the next ones after the driver's.
    window: usize,
}

impl LookAhead {
    /// Starts `helpers` threads in `scope` that solve posted node LPs over
    /// `sf` with `cfg`. They run until [`LookAhead::close`].
    pub(crate) fn start<'scope>(
        scope: &'scope Scope<'scope, '_>,
        helpers: usize,
        sf: &'scope StandardForm,
        cfg: &'scope LpConfig,
    ) -> Arc<LookAhead> {
        let look_ahead = Arc::new(LookAhead {
            state: Mutex::default(),
            changed: Condvar::new(),
            window: 2 * helpers,
        });
        // Helpers inherit the caller's trace collector, each under its own
        // track, so the LP layer's counters stay visible.
        let trace = rfp_trace::current();
        for h in 0..helpers {
            let look_ahead = Arc::clone(&look_ahead);
            let trace = trace.clone();
            scope.spawn(move || {
                let _scope = trace.map(|t| t.install(&format!("milp.helper{h}")));
                look_ahead.serve(sf, cfg);
            });
        }
        look_ahead
    }

    /// One helper: take the best posted node, solve its LP, file and count
    /// the result; until the search is closed.
    fn serve(&self, sf: &StandardForm, cfg: &LpConfig) {
        let mut lu = LuCache::default();
        let mut state = self.lock();
        while !state.closed {
            let Some(job) = state.queue.pop_front() else {
                state = self.changed.wait(state).expect(POISONED);
                continue;
            };
            state.running.insert(job.id);
            drop(state);
            let out = solve_node_lp(sf, cfg, &mut lu, job.snapshot.as_deref(), &job.bounds);
            rfp_trace::count("milp.lp.helper_solves", 1);
            state = self.lock();
            state.running.remove(&job.id);
            state.done.insert(job.id, out);
            self.changed.notify_all();
        }
    }

    /// Makes the queue the nodes among the first of `next` (the open nodes
    /// in search order) that no helper has taken; a queued node that fell
    /// out of that window is withdrawn.
    pub(crate) fn post<'n>(&self, next: impl Iterator<Item = &'n Node>) {
        let mut state = self.lock();
        let state = &mut *state;
        let mut queued = std::mem::take(&mut state.queue);
        for node in next.take(self.window) {
            if let Some(i) = queued.iter().position(|job| job.id == node.id) {
                state.queue.extend(queued.remove(i));
            } else if !state.running.contains(&node.id) && !state.done.contains_key(&node.id) {
                state.queue.push_back(Job {
                    id: node.id,
                    snapshot: node.snapshot.clone(),
                    bounds: node.bounds.clone(),
                });
            }
        }
        self.changed.notify_all();
    }

    /// The LP of node `id` when a helper solved it or is solving it (then
    /// this waits for it); `None` when no helper took it, and the node is
    /// withdrawn from the queue.
    pub(crate) fn take(&self, id: usize) -> Option<NodeLp> {
        let mut state = self.lock();
        state.queue.retain(|job| job.id != id);
        while state.running.contains(&id) {
            state = self.changed.wait(state).expect(POISONED);
        }
        state.done.remove(&id)
    }

    /// The shared state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect(POISONED)
    }

    /// Ends the helpers' loops; the caller's scope then joins them. Waits
    /// for the LPs the helpers are still solving to be filed (the caller has
    /// interrupted them), then counts the solved LPs the driver never took
    /// and drops them.
    pub(crate) fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        self.changed.notify_all();
        while !state.running.is_empty() {
            state = self.changed.wait(state).expect(POISONED);
        }
        rfp_trace::count("milp.lp.ahead_unused", state.done.len() as u64);
        state.done.clear();
    }
}
