//! Property tests pinning the sparse revised simplex to the dense oracle.
//!
//! Random small LPs (finite bounds, integer data) are solved by both the
//! revised engine and the retired dense tableau (the [`dense`] oracle); the
//! two must agree on status and, when optimal, on the objective within 1e-6.
//! Two more properties check the warm-start path: a dual-simplex re-solve
//! after a bound tightening must match a from-scratch solve of the tightened
//! LP, and so must every step of a chain of branch-style tightenings on
//! larger LPs with binaries, each warm from the previous step's basis (long
//! enough for drift in the dual's updated reduced costs to show). Two more
//! pin the [`LuCache`] that carries a warm start's factors to the next warm
//! start from the same basis: it never serves them to another form, and
//! reusing them changes no pivot. One fixed case pins the cold fallback for
//! a snapshot that rests a column at an infinite upper bound.

mod dense;

use dense::DenseForm;
use proptest::prelude::*;
use rfp_milp::model::{ConOp, Model, Sense, VarId, VarKind};
use rfp_milp::simplex::{LpConfig, LpStatus, LuCache, StandardForm};
use rfp_milp::LinExpr;

/// Tiny deterministic generator so one `u64` seed yields a whole LP.
struct Rng64(u64);

impl Rng64 {
    fn next(&mut self) -> u64 {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[lo, hi]`.
    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

/// Builds a random small LP with finite bounds (never unbounded).
fn random_lp(seed: u64) -> Model {
    let mut rng = Rng64(seed);
    let n = rng.int(1, 5) as usize;
    let m = rng.int(1, 6) as usize;
    let sense = if rng.int(0, 1) == 0 { Sense::Minimize } else { Sense::Maximize };
    let mut model = Model::new(format!("prop{seed}"), sense);
    let vars: Vec<_> =
        (0..n).map(|j| model.cont_var(format!("x{j}"), 0.0, rng.int(1, 10) as f64)).collect();
    for i in 0..m {
        let expr = LinExpr::weighted_sum(
            vars.iter().map(|&v| (v, rng.int(-3, 3) as f64)).filter(|&(_, c)| c != 0.0),
        );
        let op = match rng.int(0, 5) {
            0 => ConOp::Eq, // equalities are rarer: they often force infeasibility
            1 | 2 => ConOp::Ge,
            _ => ConOp::Le,
        };
        model.add_con(format!("c{i}"), expr, op, rng.int(-5, 15) as f64);
    }
    model.set_objective(LinExpr::weighted_sum(vars.iter().map(|&v| (v, rng.int(-5, 5) as f64))));
    model
}

/// Two random small LPs that differ only in their constraint coefficients:
/// sense, bounds, operators, right-hand sides and objective come from
/// `seed`, the coefficients of the second LP from `other`. A basis snapshot
/// of one is a valid (if not dual-feasible) start for the other.
fn random_lp_twins(seed: u64, other: u64) -> (Model, Model) {
    let mut rng = Rng64(seed);
    let mut rng_b = Rng64(other);
    let n = rng.int(1, 5) as usize;
    let m = rng.int(1, 6) as usize;
    let sense = if rng.int(0, 1) == 0 { Sense::Minimize } else { Sense::Maximize };
    let ubs: Vec<f64> = (0..n).map(|_| rng.int(1, 10) as f64).collect();
    let rows: Vec<_> = (0..m)
        .map(|_| {
            let coeffs: Vec<[f64; 2]> =
                (0..n).map(|_| [rng.int(-3, 3) as f64, rng_b.int(-3, 3) as f64]).collect();
            let op = [ConOp::Eq, ConOp::Ge, ConOp::Ge, ConOp::Le, ConOp::Le, ConOp::Le]
                [rng.int(0, 5) as usize];
            (coeffs, op, rng.int(-5, 15) as f64)
        })
        .collect();
    let obj: Vec<f64> = (0..n).map(|_| rng.int(-5, 5) as f64).collect();
    let build = |twin: usize| {
        let mut model = Model::new(format!("twin{seed}-{twin}"), sense);
        let vars: Vec<_> = ubs
            .iter()
            .enumerate()
            .map(|(j, &ub)| model.cont_var(format!("x{j}"), 0.0, ub))
            .collect();
        for (i, (coeffs, op, rhs)) in rows.iter().enumerate() {
            let terms = vars.iter().zip(coeffs).map(|(&v, c)| (v, c[twin])).filter(|t| t.1 != 0.0);
            model.add_con(format!("c{i}"), LinExpr::weighted_sum(terms), *op, *rhs);
        }
        model.set_objective(LinExpr::weighted_sum(vars.iter().copied().zip(obj.iter().copied())));
        model
    };
    (build(0), build(1))
}

/// Builds a random sparse LP of up to 30 rows × 40 columns, about a third
/// of the columns `[0, 1]` of kind `binary` (`Binary`, or `Continuous` for
/// the relaxation), with mixed-sign integer data (never unbounded).
fn random_binary_lp(seed: u64, binary: VarKind) -> Model {
    let mut rng = Rng64(seed);
    let n = rng.int(2, 40) as usize;
    let m = rng.int(1, 30) as usize;
    let sense = if rng.int(0, 1) == 0 { Sense::Minimize } else { Sense::Maximize };
    let mut model = Model::new(format!("chain{seed}"), sense);
    let vars: Vec<_> = (0..n)
        .map(|j| match rng.int(0, 2) {
            0 => model.add_var(format!("b{j}"), binary, 0.0, 1.0),
            _ => model.cont_var(format!("x{j}"), 0.0, rng.int(1, 10) as f64),
        })
        .collect();
    for i in 0..m {
        let mut terms = Vec::new();
        for &v in &vars {
            let c = rng.int(-4, 6);
            if rng.int(0, 3) == 0 && c != 0 {
                terms.push((v, c as f64));
            }
        }
        let (op, rhs) = match rng.int(0, 9) {
            0 => (ConOp::Eq, rng.int(0, 6)),
            1..=3 => (ConOp::Ge, rng.int(-2, 6)),
            _ => (ConOp::Le, rng.int(0, 20)),
        };
        model.add_con(format!("c{i}"), LinExpr::weighted_sum(terms), op, rhs as f64);
    }
    model.set_objective(LinExpr::weighted_sum(vars.iter().map(|&v| (v, rng.int(-5, 5) as f64))));
    model
}

/// A warm start from a snapshot that rests a column at an infinite upper
/// bound falls back to a cold solve. The snapshot is the optimal basis of
/// `random_lp(2696670945296205359)`, whose row 0 is `≥` with its logical
/// column at its upper bound 0. The LP it is applied to has the same shape:
/// the same-bodied twin drawn with 12985016934330093108, its row 0
/// (`-3 x0 ≥ 15`) rewritten as `3 x0 ≤ -15`, whose logical column is
/// unbounded above, and column 1 capped at 0. That LP is infeasible; resting
/// the logical "at upper" would make it `+∞` and let the dual call it optimal.
#[test]
fn warm_start_falls_back_on_a_column_at_an_infinite_upper_bound() {
    let (seed, other) = (2696670945296205359, 12985016934330093108);
    let cfg = LpConfig::default();
    let (root, snap) = StandardForm::from_model(&random_lp(seed)).solve_cold(None, &cfg);
    assert_eq!(root.status, LpStatus::Optimal);
    let snap = snap.expect("optimal cold solve returns a snapshot");

    let twin = random_lp_twins(seed, other).1;
    let mut model = Model::new("twin-le", twin.sense);
    for v in twin.vars() {
        model.add_var(v.name.clone(), v.kind, v.lb, v.ub);
    }
    for (i, c) in twin.constraints().iter().enumerate() {
        match (i, c.op) {
            (0, ConOp::Ge) => model.add_con(&c.name, c.expr.clone() * -1.0, ConOp::Le, -c.rhs),
            (0, op) => panic!("row 0 of the twin is {op:?}, not ≥"),
            _ => model.add_con(&c.name, c.expr.clone(), c.op, c.rhs),
        }
    }
    model.set_objective(twin.objective.clone());
    let mut bounds: Vec<(f64, f64)> = model.vars().iter().map(|v| (v.lb, v.ub)).collect();
    bounds[1].1 = 0.0;

    let sf = StandardForm::from_model(&model);
    let collector = rfp_trace::Collector::new();
    let scope = collector.install("lp");
    let (warm, _) = sf.solve_warm(&snap, Some(&bounds), &cfg, &mut LuCache::default());
    drop(scope);
    let cold = sf.solve_with_bounds(Some(&bounds), &cfg);
    assert_eq!(cold.status, LpStatus::Infeasible);
    assert_eq!(warm.status, cold.status, "warm {:?} at {:?}", warm.status, warm.values);
    let fallbacks = collector.counter_snapshot().get("milp.lp.dual_fallbacks").copied();
    assert_eq!(fallbacks, Some(1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The revised simplex agrees with the dense-tableau oracle on random
    /// LPs: same status, and objectives within 1e-6 when optimal.
    #[test]
    fn revised_simplex_matches_dense_oracle(seed in any::<u64>()) {
        let model = random_lp(seed);
        let cfg = LpConfig::default();
        let revised = StandardForm::from_model(&model).solve(&cfg);
        let dense = DenseForm::from_model(&model).solve(&cfg);
        prop_assert_eq!(
            revised.status, dense.status,
            "status mismatch on seed {}: revised {:?} vs dense {:?}",
            seed, revised.status, dense.status
        );
        if revised.status == LpStatus::Optimal {
            prop_assert!(
                (revised.objective - dense.objective).abs() <= 1e-6,
                "objective mismatch on seed {}: revised {} vs dense {}",
                seed, revised.objective, dense.objective
            );
            // The revised solution must actually satisfy the model.
            prop_assert!(
                model.is_feasible(&revised.values, 1e-6),
                "revised solution infeasible on seed {}: {:?}",
                seed, model.violations(&revised.values, 1e-6)
            );
        }
    }

    /// A dual-simplex warm re-solve after a bound tightening matches a
    /// from-scratch solve of the tightened LP.
    #[test]
    fn dual_resolve_matches_cold_solve(seed in any::<u64>()) {
        let model = random_lp(seed);
        let cfg = LpConfig::default();
        let sf = StandardForm::from_model(&model);
        let (root, snap) = sf.solve_cold(None, &cfg);
        prop_assume!(root.status == LpStatus::Optimal);
        let snap = snap.expect("optimal cold solve returns a snapshot");

        // Tighten one variable's bound through the optimal value, the way a
        // branch-and-bound child would.
        let mut rng = Rng64(seed ^ 0xabcd_ef01);
        let j = rng.int(0, model.n_vars() as i64 - 1) as usize;
        let mut bounds: Vec<(f64, f64)> =
            model.vars().iter().map(|v| (v.lb, v.ub)).collect();
        let v = root.values[j];
        let (lb, ub) = bounds[j];
        bounds[j] = if rng.int(0, 1) == 0 {
            // "down" child: x_j <= floor(v).
            (lb, v.floor().max(lb))
        } else {
            // "up" child: x_j >= ceil(v).
            (v.ceil().min(ub), ub)
        };

        let (warm, _) = sf.solve_warm(&snap, Some(&bounds), &cfg, &mut LuCache::default());
        let cold = sf.solve_with_bounds(Some(&bounds), &cfg);
        prop_assert_eq!(
            warm.status, cold.status,
            "status mismatch on seed {}: warm {:?} vs cold {:?}",
            seed, warm.status, cold.status
        );
        if warm.status == LpStatus::Optimal {
            prop_assert!(
                (warm.objective - cold.objective).abs() <= 1e-6,
                "objective mismatch on seed {}: warm {} vs cold {}",
                seed, warm.objective, cold.objective
            );
        }
    }

    /// A chain of 8–16 branch-style tightenings, each re-solved warm from
    /// the previous step's snapshot, under a refactorization every two
    /// pivots and under the default: at every step the warm result matches
    /// a cold solve of the same bounds in status and objective, and is
    /// feasible for the relaxation under those bounds. A tightening that
    /// makes the LP infeasible is undone (the sibling side of the branch)
    /// and the chain goes on.
    #[test]
    fn chained_dual_resolves_match_cold_solves(seed in any::<u64>()) {
        let model = random_binary_lp(seed, VarKind::Binary);
        let relaxation = random_binary_lp(seed, VarKind::Continuous);
        let sf = StandardForm::from_model(&model);
        for refactor_interval in [2, LpConfig::default().refactor_interval] {
            let cfg = LpConfig { refactor_interval, ..LpConfig::default() };
            let (root, snap) = sf.solve_cold(None, &cfg);
            prop_assume!(root.status == LpStatus::Optimal);
            let mut snap = snap.expect("optimal cold solve returns a snapshot");
            let mut values = root.values;
            let mut bounds: Vec<(f64, f64)> =
                model.vars().iter().map(|v| (v.lb, v.ub)).collect();
            let mut rng = Rng64(seed ^ 0x5eed_c4a1);
            for step in 0..rng.int(8, 16) {
                // Branch on a random column strictly inside its bounds (any
                // column when none is) through its current value: at the
                // fractional part for a fractional value, one unit off an
                // integral one, so the step cuts off the parent optimum.
                let inside: Vec<usize> = (0..model.n_vars())
                    .filter(|&k| values[k] > bounds[k].0 + 1e-9 && values[k] < bounds[k].1 - 1e-9)
                    .collect();
                let j = if inside.is_empty() {
                    rng.int(0, model.n_vars() as i64 - 1) as usize
                } else {
                    inside[rng.int(0, inside.len() as i64 - 1) as usize]
                };
                let (lb, ub) = bounds[j];
                let v = values[j];
                bounds[j] = if rng.int(0, 1) == 0 {
                    (lb, (v.ceil() - 1.0).max(lb))
                } else {
                    ((v.floor() + 1.0).min(ub), ub)
                };
                let (warm, warm_snap) = sf.solve_warm(&snap, Some(&bounds), &cfg, &mut LuCache::default());
                let cold = sf.solve_with_bounds(Some(&bounds), &cfg);
                prop_assert_eq!(
                    warm.status, cold.status,
                    "seed {} refactor {} step {}: warm {:?} vs cold {:?}",
                    seed, refactor_interval, step, warm.status, cold.status
                );
                if warm.status != LpStatus::Optimal {
                    bounds[j] = (lb, ub);
                    continue;
                }
                prop_assert!(
                    (warm.objective - cold.objective).abs() <= 1e-6,
                    "seed {} refactor {} step {}: warm {} vs cold {}",
                    seed, refactor_interval, step, warm.objective, cold.objective
                );
                let mut node = relaxation.clone();
                for (k, &(lb, ub)) in bounds.iter().enumerate() {
                    node.set_bounds(VarId::from_index(k), lb, ub);
                }
                prop_assert!(
                    node.is_feasible(&warm.values, 1e-6),
                    "seed {} refactor {} step {}: warm solution infeasible: {:?}",
                    seed, refactor_interval, step, node.violations(&warm.values, 1e-6)
                );
                snap = warm_snap.expect("optimal warm solve returns a snapshot");
                values = warm.values;
            }
        }
    }

    /// An [`LuCache`] never serves one form's factors to another. Two forms
    /// that differ only in their coefficients, each built in the stack slot
    /// the previous one was dropped from, re-solve warm through one cache
    /// from the same snapshot, so the second start asks for the very basis
    /// the first one left there; each warm answer must match its cold solve.
    #[test]
    fn lu_cache_is_sound_across_forms(seed_a in any::<u64>(), seed_b in any::<u64>()) {
        let (a, b) = random_lp_twins(seed_a, seed_b);
        let cfg = LpConfig::default();
        let (root, snap) = StandardForm::from_model(&a).solve_cold(None, &cfg);
        prop_assume!(root.status == LpStatus::Optimal);
        let snap = snap.expect("optimal cold solve returns a snapshot");
        let j = Rng64(seed_a ^ seed_b).int(0, a.n_vars() as i64 - 1) as usize;
        let mut lu = LuCache::default();
        for (name, model) in [("a", &a), ("b", &b)] {
            let sf = StandardForm::from_model(model);
            // A down branch through the root value of column `j`: every
            // lower bound is 0, so the bounds never cross.
            let mut bounds: Vec<(f64, f64)> =
                model.vars().iter().map(|v| (v.lb, v.ub)).collect();
            bounds[j].1 = bounds[j].1.min(root.values[j].floor());
            let (warm, _) = sf.solve_warm(&snap, Some(&bounds), &cfg, &mut lu);
            let cold = sf.solve_with_bounds(Some(&bounds), &cfg);
            prop_assert_eq!(
                warm.status, cold.status,
                "seeds {} {} form {}: warm {:?} vs cold {:?}",
                seed_a, seed_b, name, warm.status, cold.status
            );
            if warm.status == LpStatus::Optimal {
                prop_assert!(
                    (warm.objective - cold.objective).abs() <= 1e-6,
                    "seeds {} {} form {}: warm {} vs cold {}",
                    seed_a, seed_b, name, warm.objective, cold.objective
                );
            }
        }
    }

    /// Reusing a warm start's factors changes no pivot. A chain of
    /// branchings re-solves both children of every step warm from the
    /// step's snapshot, once through one [`LuCache`] (so the second child
    /// takes the first one's factors) and once through a fresh cache per
    /// solve: status, iteration count, objective and values agree bit for
    /// bit, and every pair of children reused a factorization.
    #[test]
    fn lu_reuse_is_bit_identical_to_refactorizing(seed in any::<u64>()) {
        let model = random_binary_lp(seed, VarKind::Binary);
        let sf = StandardForm::from_model(&model);
        let cfg = LpConfig::default();
        let (root, snap) = sf.solve_cold(None, &cfg);
        prop_assume!(root.status == LpStatus::Optimal);
        let mut snap = snap.expect("optimal cold solve returns a snapshot");
        let mut values = root.values;
        let mut bounds: Vec<(f64, f64)> = model.vars().iter().map(|v| (v.lb, v.ub)).collect();
        let mut rng = Rng64(seed ^ 0x1c4c_4e5e);
        let collector = rfp_trace::Collector::new();
        let scope = collector.install("lp");
        let mut lu = LuCache::default();
        let mut pairs = 0u64;
        for step in 0..12 {
            let inside: Vec<usize> = (0..model.n_vars())
                .filter(|&k| values[k] > bounds[k].0 + 1e-9 && values[k] < bounds[k].1 - 1e-9)
                .collect();
            if inside.is_empty() {
                break;
            }
            let j = inside[rng.int(0, inside.len() as i64 - 1) as usize];
            let ((lb, ub), v) = (bounds[j], values[j]);
            let mut next = None;
            for range in [(lb, (v.ceil() - 1.0).max(lb)), ((v.floor() + 1.0).min(ub), ub)] {
                let mut child = bounds.clone();
                child[j] = range;
                let (reused, reused_snap) = sf.solve_warm(&snap, Some(&child), &cfg, &mut lu);
                let (fresh, _) = sf.solve_warm(&snap, Some(&child), &cfg, &mut LuCache::default());
                let bits = |r: &rfp_milp::simplex::LpResult| {
                    let values: Vec<u64> = r.values.iter().map(|v| v.to_bits()).collect();
                    (r.status, r.iterations, r.objective.to_bits(), values)
                };
                prop_assert_eq!(bits(&reused), bits(&fresh), "seed {} step {}", seed, step);
                if reused.status == LpStatus::Optimal && next.is_none() {
                    let snap = reused_snap.expect("optimal warm solve returns a snapshot");
                    next = Some((child, reused.values, snap));
                }
            }
            pairs += 1;
            let Some(n) = next else { break };
            (bounds, values, snap) = n;
        }
        drop(scope);
        let reuses = collector.counter_snapshot().get("milp.lp.lu_reuses").copied().unwrap_or(0);
        prop_assert!(reuses >= pairs, "seed {}: {} reuses over {} pairs", seed, reuses, pairs);
    }
}
