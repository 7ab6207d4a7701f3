//! Result-determinism of the work-stealing parallel branch-and-bound.
//!
//! The parallel search is free to explore the tree in any order — node
//! counts differ run to run — but the *results* must be deterministic:
//! at every thread count the proven objective and the `Optimal` status must
//! match the serial search on the same model. A cancelled or time-limited
//! parallel solve must additionally report an *honest* bound: the best-bound
//! side of the gap must still enclose the true optimum.

use proptest::prelude::*;
use rfp_milp::prelude::*;
use rfp_milp::LinExpr;

/// Thread counts the fixed instances are checked at.
const THREADS: [usize; 3] = [2, 4, 8];

fn solve_with_threads(model: &Model, threads: usize) -> Solution {
    let cfg = SolverConfig { threads, ..SolverConfig::default() };
    Solver::new(cfg).solve(model)
}

/// Classic 0/1 knapsack; optimum 56.
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
    m.set_objective(LinExpr::weighted_sum(vars.iter().zip(values.iter()).map(|(&v, &c)| (v, c))));
    m
}

/// Subset-sum probe with no integrality gap: bound-tied nodes everywhere,
/// the hardest shape for parallel pruning to get wrong.
fn subset_sum() -> Model {
    let mut m = Model::new("subset", Sense::Maximize);
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

/// 4x4 assignment problem (equality-constrained, minimisation).
fn assignment() -> Model {
    let cost =
        [[4.0, 1.0, 3.0, 6.0], [2.0, 0.0, 5.0, 4.0], [3.0, 2.0, 2.0, 1.0], [5.0, 3.0, 1.0, 2.0]];
    let mut m = Model::new("assign", Sense::Minimize);
    let x: Vec<Vec<_>> =
        (0..4).map(|i| (0..4).map(|j| m.bin_var(format!("x{i}{j}"))).collect()).collect();
    for (i, row) in x.iter().enumerate() {
        m.add_con(
            format!("row{i}"),
            LinExpr::weighted_sum(row.iter().map(|&v| (v, 1.0))),
            ConOp::Eq,
            1.0,
        );
    }
    #[allow(clippy::needless_range_loop)]
    for j in 0..4 {
        m.add_con(
            format!("col{j}"),
            LinExpr::weighted_sum((0..4).map(|i| (x[i][j], 1.0))),
            ConOp::Eq,
            1.0,
        );
    }
    m.set_objective(LinExpr::weighted_sum(
        (0..4).flat_map(|i| (0..4).map(|j| (x[i][j], cost[i][j])).collect::<Vec<_>>()),
    ));
    m
}

/// Strongly correlated 0/1 knapsack (each value is its weight plus 10),
/// 28 items at half the total weight: a tree of thousands of nodes.
fn correlated_knapsack() -> Model {
    let weight = |i: usize| ((i * 37) % 50 + 10) as f64;
    let capacity = ((0..28).map(weight).sum::<f64>() / 2.0).floor();
    let mut m = Model::new("correlated-knapsack", Sense::Maximize);
    let vars: Vec<_> = (0..28).map(|i| m.bin_var(format!("item{i}"))).collect();
    m.add_con(
        "capacity",
        LinExpr::weighted_sum(vars.iter().enumerate().map(|(i, &v)| (v, weight(i)))),
        ConOp::Le,
        capacity,
    );
    m.set_objective(LinExpr::weighted_sum(
        vars.iter().enumerate().map(|(i, &v)| (v, weight(i) + 10.0)),
    ));
    m
}

/// Subset-sum with 56 items at half the total weight: like [`subset_sum`],
/// bound-tied nodes everywhere, but wide enough to feed 8 workers.
fn wide_subset_sum() -> Model {
    let weight = |i: usize| ((i * 104_729) % 89 + 20) as f64;
    let capacity = ((0..56).map(weight).sum::<f64>() / 2.0).floor();
    let mut m = Model::new("wide-subset", Sense::Maximize);
    let vars: Vec<_> = (0..56).map(|i| m.bin_var(format!("b{i}"))).collect();
    let terms = || vars.iter().enumerate().map(|(i, &v)| (v, weight(i)));
    m.add_con("cap", LinExpr::weighted_sum(terms()), ConOp::Le, capacity);
    m.set_objective(LinExpr::weighted_sum(terms()));
    m
}

/// Generalised assignment: 10 jobs on 5 capacitated agents (equality and
/// knapsack rows, minimisation). Unlike the 4x4 [`assignment`], whose LP
/// relaxation is integral, its root LP is fractional.
fn generalised_assignment() -> Model {
    let (agents, jobs) = (5, 10);
    let size = |a: usize, j: usize| ((a * 7 + j * 11) % 9 + 5) as f64;
    let cost = |a: usize, j: usize| ((a * 13 + j * 5) % 11 + 1) as f64;
    let mut m = Model::new("generalised-assignment", Sense::Minimize);
    let x: Vec<Vec<_>> =
        (0..agents).map(|a| (0..jobs).map(|j| m.bin_var(format!("x{a}_{j}"))).collect()).collect();
    for j in 0..jobs {
        let column = LinExpr::weighted_sum(x.iter().map(|row| (row[j], 1.0)));
        m.add_con(format!("job{j}"), column, ConOp::Eq, 1.0);
    }
    for (a, row) in x.iter().enumerate() {
        let load = LinExpr::weighted_sum(row.iter().enumerate().map(|(j, &v)| (v, size(a, j))));
        let capacity = ((0..jobs).map(|j| size(a, j)).sum::<f64>() / agents as f64 * 1.05).floor();
        m.add_con(format!("agent{a}"), load, ConOp::Le, capacity);
    }
    m.set_objective(LinExpr::weighted_sum(
        x.iter()
            .enumerate()
            .flat_map(|(a, row)| row.iter().enumerate().map(move |(j, &v)| (v, cost(a, j)))),
    ));
    m
}

#[test]
fn fixed_instances_prove_the_serial_objective_at_every_thread_count() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    // Each instance with a setting under which the serial ramp-up hands
    // open nodes to the work-stealing pool at every thread count (the
    // assignment only without dives and cuts, which otherwise end its
    // search in the ramp-up).
    let cold = SolverConfig { dive_period: 0, cut_rounds: 0, ..SolverConfig::default() };
    let cases = [
        (correlated_knapsack(), SolverConfig::default()),
        (wide_subset_sum(), SolverConfig::default()),
        (generalised_assignment(), cold),
    ];
    for (model, base) in cases {
        let serial = Solver::new(base.clone()).solve(&model);
        assert_eq!(serial.status, SolveStatus::Optimal, "{}", model.name);
        for threads in THREADS {
            // The external-incumbent source is polled once per node, by the
            // driver during ramp-up and by the workers after it.
            let worker_polls = Arc::new(AtomicUsize::new(0));
            let caller = std::thread::current().id();
            let cfg = SolverConfig {
                threads,
                external_incumbents: ExternalIncumbents::from_fn({
                    let worker_polls = worker_polls.clone();
                    move || {
                        if std::thread::current().id() != caller {
                            worker_polls.fetch_add(1, Ordering::SeqCst);
                        }
                        None
                    }
                }),
                ..base.clone()
            };
            let par = Solver::new(cfg).solve(&model);
            assert!(
                worker_polls.load(Ordering::SeqCst) > 0,
                "{} at {threads} threads never left the serial ramp-up ({} nodes)",
                model.name,
                par.nodes
            );
            assert_eq!(
                par.status,
                SolveStatus::Optimal,
                "{} at {threads} threads must prove optimality",
                model.name
            );
            assert!(
                (par.objective - serial.objective).abs() < 1e-6,
                "{} at {threads} threads: {} vs serial {}",
                model.name,
                par.objective,
                serial.objective
            );
            assert!(par.verify(&model, 1e-6).is_empty());
            // A proven solve's reported gap is closed in every thread mode.
            assert!(par.gap() < 1e-6, "{} at {threads} threads: gap {}", model.name, par.gap());
        }
    }
}

/// A recorded serial search: everything `threads: 1` must reproduce bit for
/// bit, down to the node order (through the node and LP tallies).
struct SerialPin {
    objective: f64,
    best_bound_bits: u64,
    nodes: usize,
    lp_solves: usize,
    lp_iterations: usize,
    cuts: usize,
    values: &'static [f64],
}

#[test]
fn threads_one_is_the_serial_search_bit_for_bit() {
    let default = SolverConfig { threads: 1, ..SolverConfig::default() };
    let cold = SolverConfig { dive_period: 0, cut_rounds: 0, ..default.clone() };
    let cases = [
        (
            knapsack(),
            default.clone(),
            SerialPin {
                objective: 56.0,
                best_bound_bits: 0x404c_0000_0000_0000,
                nodes: 3,
                lp_solves: 10,
                lp_iterations: 16,
                cuts: 2,
                values: &[0.0, 0.0, 1.0, 1.0, 1.0, 0.0],
            },
        ),
        (
            subset_sum(),
            default.clone(),
            SerialPin {
                objective: 55.0,
                best_bound_bits: 0x404b_8000_0000_0000,
                nodes: 15,
                lp_solves: 34,
                lp_iterations: 36,
                cuts: 3,
                values: &[
                    1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0,
                ],
            },
        ),
        (
            subset_sum(),
            cold,
            SerialPin {
                objective: 55.0,
                best_bound_bits: 0x404b_8000_0000_0000,
                nodes: 93,
                lp_solves: 93,
                lp_iterations: 81,
                cuts: 0,
                values: &[
                    0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                ],
            },
        ),
        (
            assignment(),
            default,
            SerialPin {
                objective: 5.0,
                best_bound_bits: 0x4014_0000_0000_0000,
                nodes: 1,
                lp_solves: 1,
                lp_iterations: 13,
                cuts: 0,
                values: &[
                    0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0,
                ],
            },
        ),
    ];
    for (model, cfg, pin) in cases {
        let sol = Solver::new(cfg).solve(&model);
        let name = &model.name;
        assert_eq!(sol.status, SolveStatus::Optimal, "{name}");
        assert_eq!(sol.objective.to_bits(), pin.objective.to_bits(), "{name}");
        assert_eq!(sol.best_bound.to_bits(), pin.best_bound_bits, "{name}");
        assert_eq!(sol.nodes, pin.nodes, "{name}");
        assert_eq!(sol.lp_solves, pin.lp_solves, "{name}");
        assert_eq!(sol.lp_iterations, pin.lp_iterations, "{name}");
        assert_eq!(sol.cuts, pin.cuts, "{name}");
        assert_eq!(sol.values, pin.values, "{name}");
    }
}

/// Open nodes per worker the parallel ramp-up aims for before handing the
/// tree to the workers (mirrors the solver's private constant).
const RAMP_FANOUT: usize = 4;

#[test]
fn parallel_workers_poll_external_incumbents_at_every_node() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let polls = Arc::new(AtomicUsize::new(0));
    let counter = polls.clone();
    let cfg = SolverConfig {
        threads: 2,
        dive_period: 0,
        cut_rounds: 0,
        external_incumbents: ExternalIncumbents::from_fn(move || {
            counter.fetch_add(1, Ordering::SeqCst);
            None
        }),
        ..SolverConfig::default()
    };
    let sol = Solver::new(cfg).solve(&subset_sum());
    assert_eq!(sol.status, SolveStatus::Optimal);
    assert!(
        sol.nodes > 2 * RAMP_FANOUT,
        "the search must get past ramp-up into the workers, got {} nodes",
        sol.nodes
    );
    let polls = polls.load(Ordering::SeqCst);
    assert!(polls >= sol.nodes, "{polls} polls for {} nodes", sol.nodes);
}

#[test]
fn cancellation_mid_parallel_search_leaves_honest_bounds() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    // The bound reported after a cancel inside the workers must enclose the
    // true optimum (known: 55 for the subset-sum probe).
    let model = subset_sum();
    let token = CancelToken::new();
    // Cancel deterministically *mid-search*. The external-incumbent source
    // is polled once per node; the serial ramp-up of 2 threads hands its
    // open nodes over at poll `2 * RAMP_FANOUT`, so poll `4 * RAMP_FANOUT`
    // runs on a worker that, like its peer, still holds open subtrees. (At
    // 4 threads this probe never fills the ramp-up's 16 open nodes: the
    // whole search stays in the serial ramp-up.)
    let polls = Arc::new(AtomicUsize::new(0));
    let fired_in_a_worker = Arc::new(AtomicBool::new(false));
    let solving_thread = std::thread::current().id();
    let cfg = SolverConfig {
        threads: 2,
        // Slow the pruning down so the search is genuinely mid-flight.
        dive_period: 0,
        cut_rounds: 0,
        cancel: token.clone(),
        external_incumbents: ExternalIncumbents::from_fn({
            let polls = polls.clone();
            let fired_in_a_worker = fired_in_a_worker.clone();
            move || {
                if polls.fetch_add(1, Ordering::SeqCst) + 1 == 4 * RAMP_FANOUT {
                    let worker = std::thread::current().id() != solving_thread;
                    fired_in_a_worker.store(worker, Ordering::SeqCst);
                    token.cancel();
                }
                None
            }
        }),
        ..SolverConfig::default()
    };
    let sol = Solver::new(cfg).solve(&model);
    assert!(sol.cancelled, "the user token must be reported");
    assert!(
        fired_in_a_worker.load(Ordering::SeqCst),
        "the cancel must land after ramp-up, inside the workers"
    );
    // Honest bounds: whatever was proven, the true optimum 55 lies between
    // the incumbent objective and the best bound (maximisation sense).
    if sol.status.has_solution() {
        assert!(sol.objective <= 55.0 + 1e-6, "objective {} overclaims", sol.objective);
        assert!(sol.best_bound >= 55.0 - 1e-6, "bound {} cuts off the optimum", sol.best_bound);
        assert!(sol.verify(&model, 1e-6).is_empty());
    } else {
        assert!(sol.best_bound >= 55.0 - 1e-6 || sol.best_bound.is_infinite());
    }
    if sol.status == SolveStatus::Optimal {
        assert!((sol.objective - 55.0).abs() < 1e-6, "false proof of {}", sol.objective);
    }
}

#[test]
fn node_limited_parallel_search_reports_a_valid_bound() {
    let model = subset_sum();
    let cfg = SolverConfig { threads: 4, max_nodes: 8, ..SolverConfig::default() };
    let sol = Solver::new(cfg).solve(&model);
    // Never a false proof under a budget that cannot close the gap — unless
    // the gap really did close first (heuristics can be that lucky).
    if sol.status == SolveStatus::Optimal {
        assert!((sol.objective - 55.0).abs() < 1e-6);
    }
    if sol.status.has_solution() {
        assert!(sol.objective <= 55.0 + 1e-6);
        assert!(sol.best_bound >= 55.0 - 1e-6);
    }
}

/// Deterministic splitmix64, same idiom as the revised-vs-dense suite.
struct Rng64(u64);

impl Rng64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

/// Random small MILP with bounded integer variables (never unbounded).
fn random_milp(seed: u64) -> Model {
    let mut rng = Rng64(seed);
    let n = rng.int(2, 6) as usize;
    let m = rng.int(1, 5) as usize;
    let sense = if rng.int(0, 1) == 0 { Sense::Minimize } else { Sense::Maximize };
    let mut model = Model::new(format!("pprop{seed}"), sense);
    let vars: Vec<_> = (0..n)
        .map(|j| {
            if rng.int(0, 3) == 0 {
                model.cont_var(format!("x{j}"), 0.0, rng.int(1, 8) as f64)
            } else {
                model.int_var(format!("x{j}"), 0.0, rng.int(1, 4) as f64)
            }
        })
        .collect();
    for i in 0..m {
        let expr = LinExpr::weighted_sum(
            vars.iter().map(|&v| (v, rng.int(-3, 3) as f64)).filter(|&(_, c)| c != 0.0),
        );
        let op = if rng.int(0, 3) == 0 { ConOp::Ge } else { ConOp::Le };
        model.add_con(format!("c{i}"), expr, op, rng.int(-4, 12) as f64);
    }
    model.set_objective(LinExpr::weighted_sum(vars.iter().map(|&v| (v, rng.int(-5, 5) as f64))));
    model
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Serial and parallel agree on status and proven objective on random
    /// small MILPs, at 2 and 4 threads.
    #[test]
    fn parallel_matches_serial_on_random_milps(seed in any::<u64>()) {
        let model = random_milp(seed);
        let serial = Solver::default().solve(&model);
        for threads in [2usize, 4] {
            let par = solve_with_threads(&model, threads);
            prop_assert_eq!(
                par.status, serial.status,
                "status mismatch on seed {} at {} threads: {:?} vs {:?}",
                seed, threads, par.status, serial.status
            );
            if serial.status == SolveStatus::Optimal {
                prop_assert!(
                    (par.objective - serial.objective).abs() <= 1e-6,
                    "objective mismatch on seed {} at {} threads: {} vs {}",
                    seed, threads, par.objective, serial.objective
                );
                prop_assert!(par.verify(&model, 1e-6).is_empty());
            }
        }
    }
}
