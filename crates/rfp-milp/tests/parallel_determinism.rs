//! Determinism of the parallel branch-and-bound.
//!
//! Extra threads solve node LPs ahead of the serial best-first search and
//! change nothing else: at every thread count a solve returns the serial
//! solution — status, objective, bound, values, node, LP and cut counts —
//! and a solve cancelled at the same node stops at the same place. A
//! cancelled or node-limited solve must additionally report an *honest*
//! bound: the best-bound side of the gap must still enclose the true
//! optimum.

use proptest::prelude::*;
use rfp_milp::prelude::*;
use rfp_milp::LinExpr;

/// Thread counts the fixed instances are checked at.
const THREADS: [usize; 3] = [2, 4, 8];

fn solve_with_threads(model: &Model, threads: usize) -> Solution {
    let cfg = SolverConfig { threads, ..SolverConfig::default() };
    Solver::new(cfg).solve(model)
}

/// Everything of a solution but its wall-clock fields, bit for bit.
fn fingerprint(sol: &Solution) -> impl PartialEq + std::fmt::Debug {
    (
        sol.status,
        sol.objective.to_bits(),
        sol.best_bound.to_bits(),
        sol.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        (sol.nodes, sol.lp_solves, sol.lp_iterations, sol.cuts),
    )
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
fn every_thread_count_returns_the_serial_solution() {
    let cold = SolverConfig { dive_period: 0, cut_rounds: 0, ..SolverConfig::default() };
    let cases = [
        (knapsack(), SolverConfig::default()),
        (subset_sum(), SolverConfig::default()),
        (subset_sum(), cold.clone()),
        (assignment(), SolverConfig::default()),
        (correlated_knapsack(), SolverConfig::default()),
        (wide_subset_sum(), SolverConfig::default()),
        (generalised_assignment(), cold),
    ];
    for (model, base) in cases {
        let serial = Solver::new(base.clone()).solve(&model);
        assert_eq!(serial.status, SolveStatus::Optimal, "{}", model.name);
        for threads in THREADS {
            // The driver counts each LP it takes from a look-ahead thread.
            let collector = rfp_trace::Collector::new();
            let par = {
                let _scope = collector.handle().install("main");
                Solver::new(SolverConfig { threads, ..base.clone() }).solve(&model)
            };
            assert_eq!(
                fingerprint(&par),
                fingerprint(&serial),
                "{} at {threads} threads",
                model.name
            );
            // The larger trees must really use the look-ahead threads.
            if serial.nodes > 1000 {
                let doc = collector.drain();
                let ahead = doc.tracks[0].counters.iter().find(|(name, _)| name == "milp.lp.ahead");
                assert!(ahead.is_some(), "{} at {threads} threads took no LP ahead", model.name);
            }
        }
    }
}

/// Every LP a look-ahead thread finishes is either taken by the driver or
/// counted unused when the search closes: over a 2-thread search's trace,
/// `milp.lp.ahead + milp.lp.ahead_unused == milp.lp.helper_solves`. On the
/// correlated knapsack's tree of thousands of nodes the helpers solve some
/// LPs; a small tree may end before a helper takes one.
#[test]
fn look_ahead_lps_are_taken_or_counted_unused() {
    for (model, large) in [(correlated_knapsack(), true), (wide_subset_sum(), false)] {
        let collector = rfp_trace::Collector::new();
        {
            let _scope = collector.handle().install("main");
            Solver::new(SolverConfig { threads: 2, ..SolverConfig::default() }).solve(&model);
        }
        let doc = collector.drain();
        let total = |name: &str| -> u64 {
            doc.tracks
                .iter()
                .flat_map(|t| &t.counters)
                .filter(|(n, _)| n == name)
                .map(|(_, v)| v)
                .sum()
        };
        let (ahead, unused, solved) =
            (total("milp.lp.ahead"), total("milp.lp.ahead_unused"), total("milp.lp.helper_solves"));
        assert!(solved > 0 || !large, "{}: the helpers solved no LP", model.name);
        assert_eq!(ahead + unused, solved, "{}: ahead {ahead}, unused {unused}", model.name);
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

#[test]
fn the_search_polls_external_incumbents_at_every_node() {
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
    assert!(sol.nodes > 10, "the search must need a real tree, got {} nodes", sol.nodes);
    let polls = polls.load(Ordering::SeqCst);
    assert!(polls >= sol.nodes, "{polls} polls for {} nodes", sol.nodes);
}

/// A solve of the subset-sum probe whose token the external-incumbent
/// source cancels at its `at`-th poll (one poll per node), mid-search.
fn cancelled_at_poll(threads: usize, at: usize) -> Solution {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let token = CancelToken::new();
    let polls = Arc::new(AtomicUsize::new(0));
    let cfg = SolverConfig {
        threads,
        // Slow the pruning down so the search is genuinely mid-flight.
        dive_period: 0,
        cut_rounds: 0,
        cancel: token.clone(),
        external_incumbents: ExternalIncumbents::from_fn(move || {
            if polls.fetch_add(1, Ordering::SeqCst) + 1 == at {
                token.cancel();
            }
            None
        }),
        ..SolverConfig::default()
    };
    Solver::new(cfg).solve(&subset_sum())
}

#[test]
fn cancellation_mid_parallel_search_leaves_honest_bounds() {
    // A cancel at the same node leaves the serial search's solution at
    // every thread count.
    let sol = cancelled_at_poll(1, 16);
    assert!(sol.nodes < 93, "the cancel must land mid-search, at {} nodes", sol.nodes);
    for threads in [2, 4] {
        let par = cancelled_at_poll(threads, 16);
        assert_eq!(fingerprint(&par), fingerprint(&sol), "{threads} threads");
    }
    let model = subset_sum();
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
    let limited = |threads| SolverConfig { threads, max_nodes: 8, ..SolverConfig::default() };
    let sol = Solver::new(limited(4)).solve(&model);
    assert_eq!(fingerprint(&sol), fingerprint(&Solver::new(limited(1)).solve(&model)));
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

    /// Serial and parallel return the same solution on random small
    /// MILPs, at 2 and 4 threads.
    #[test]
    fn parallel_matches_serial_on_random_milps(seed in any::<u64>()) {
        let model = random_milp(seed);
        let serial = Solver::default().solve(&model);
        for threads in [2usize, 4] {
            let par = solve_with_threads(&model, threads);
            prop_assert_eq!(
                fingerprint(&par), fingerprint(&serial),
                "seed {} at {} threads", seed, threads
            );
        }
    }
}
