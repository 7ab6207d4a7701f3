//! The retired dense-tableau simplex, kept as an LP test oracle.
//!
//! This is the bounded-variable two-phase primal simplex that powered the
//! solver before the sparse revised engine ([`rfp_milp::simplex`]) replaced
//! it. It is not part of the library: it lives with the property suite
//! (`revised_vs_dense.rs`), which solves LPs with both engines and requires
//! matching results, guarding the much more intricate revised
//! implementation. It uses only the crate's public API.
//!
//! Implementation notes (unchanged from its time as the production path):
//! every constraint gains a slack, phase 1 minimises the sum of artificial
//! variables from the all-artificial basis, phase 2 minimises the real
//! objective, and Dantzig pricing switches to Bland's rule after a run of
//! degenerate pivots.

use rfp_milp::model::{ConOp, Model, Sense};
use rfp_milp::simplex::{LpConfig, LpResult, LpStatus};
use rfp_milp::tol;

/// Pre-processed standard form of a model for the dense tableau: all
/// constraints as equalities with slack variables.
#[derive(Debug, Clone)]
pub struct DenseForm {
    /// Number of structural (model) variables.
    n_struct: usize,
    /// Number of slack variables (one per inequality constraint).
    n_slack: usize,
    /// Sparse rows over structural+slack columns.
    rows: Vec<Vec<(usize, f64)>>,
    /// Right-hand sides.
    rhs: Vec<f64>,
    /// Default bounds of structural + slack variables.
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Minimisation objective over structural variables (sign-adjusted).
    obj: Vec<f64>,
    /// `true` if the model maximises (objective value is negated back).
    maximize: bool,
    /// Constant term of the objective.
    obj_constant: f64,
}

impl DenseForm {
    /// Builds the dense standard form of a model.
    pub fn from_model(model: &Model) -> DenseForm {
        let n_struct = model.n_vars();
        let maximize = model.sense == Sense::Maximize;

        let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(model.n_cons());
        let mut rhs: Vec<f64> = Vec::with_capacity(model.n_cons());
        let mut slack_bounds: Vec<(f64, f64)> = Vec::new();

        for con in model.constraints() {
            let mut row: Vec<(usize, f64)> = con.expr.iter().map(|(v, c)| (v.index(), c)).collect();
            match con.op {
                ConOp::Le => {
                    // expr + s = rhs, s >= 0
                    let s_col = n_struct + slack_bounds.len();
                    slack_bounds.push((0.0, f64::INFINITY));
                    row.push((s_col, 1.0));
                }
                ConOp::Ge => {
                    // expr - s = rhs, s >= 0
                    let s_col = n_struct + slack_bounds.len();
                    slack_bounds.push((0.0, f64::INFINITY));
                    row.push((s_col, -1.0));
                }
                ConOp::Eq => {}
            }
            rows.push(row);
            rhs.push(con.rhs);
        }

        let n_slack = slack_bounds.len();
        let mut lb = Vec::with_capacity(n_struct + n_slack);
        let mut ub = Vec::with_capacity(n_struct + n_slack);
        for v in model.vars() {
            // The simplex requires finite lower bounds; clamp pathological
            // values rather than failing (floorplanning models never need
            // free variables).
            lb.push(if v.lb.is_finite() { v.lb } else { -tol::INFINITE_BOUND });
            ub.push(v.ub);
        }
        for (l, u) in slack_bounds {
            lb.push(l);
            ub.push(u);
        }

        let mut obj = vec![0.0; n_struct];
        for (v, c) in model.objective.iter() {
            obj[v.index()] = if maximize { -c } else { c };
        }
        let obj_constant = model.objective.constant_term();

        DenseForm { n_struct, n_slack, rows, rhs, lb, ub, obj, maximize, obj_constant }
    }

    /// Solves the LP with the model's own bounds.
    pub fn solve(&self, config: &LpConfig) -> LpResult {
        self.solve_with_bounds(None, config)
    }

    /// Solves the LP overriding the bounds of the structural variables.
    ///
    /// `bounds_override` must contain one `(lb, ub)` pair per structural
    /// variable when provided.
    pub fn solve_with_bounds(
        &self,
        bounds_override: Option<&[(f64, f64)]>,
        config: &LpConfig,
    ) -> LpResult {
        let m = self.rows.len();
        let n = self.n_struct + self.n_slack;
        let total = n + m; // + artificials

        // Working bounds.
        let mut lb = self.lb.clone();
        let mut ub = self.ub.clone();
        if let Some(over) = bounds_override {
            debug_assert_eq!(over.len(), self.n_struct);
            for (j, &(l, u)) in over.iter().enumerate() {
                lb[j] = if l.is_finite() { l } else { -tol::INFINITE_BOUND };
                ub[j] = u;
            }
        }
        // Quick infeasibility check on crossed bounds.
        for j in 0..n {
            if lb[j] > ub[j] + tol::LP_FEAS {
                return LpResult {
                    status: LpStatus::Infeasible,
                    objective: f64::NAN,
                    values: vec![0.0; self.n_struct],
                    iterations: 0,
                };
            }
        }
        // Artificials: fixed later, start in [0, inf).
        lb.extend(std::iter::repeat_n(0.0, m));
        ub.extend(std::iter::repeat_n(f64::INFINITY, m));

        // Dense tableau rows over all columns (structural + slack + artificial).
        let mut tab = vec![0.0f64; m * total];
        let mut b = self.rhs.clone();
        for (i, row) in self.rows.iter().enumerate() {
            for &(j, c) in row {
                tab[i * total + j] = c;
            }
        }

        // Non-basic variables start at the finite bound of smallest magnitude.
        let mut at_upper = vec![false; total];
        let value_of_nonbasic = |j: usize, at_upper: &Vec<bool>, lb: &Vec<f64>, ub: &Vec<f64>| {
            if at_upper[j] {
                ub[j]
            } else {
                lb[j]
            }
        };
        for j in 0..n {
            if !ub[j].is_finite() {
                at_upper[j] = false;
            } else {
                at_upper[j] = lb[j].abs() > ub[j].abs();
            }
        }

        // Residuals r_i = b_i - sum_j a_ij * x_j(nonbasic).
        let mut xb = vec![0.0f64; m];
        for i in 0..m {
            let mut r = b[i];
            for j in 0..n {
                let a = tab[i * total + j];
                if a != 0.0 {
                    r -= a * value_of_nonbasic(j, &at_upper, &lb, &ub);
                }
            }
            xb[i] = r;
        }
        // Negate rows with negative residuals so artificials start >= 0.
        for i in 0..m {
            if xb[i] < 0.0 {
                for j in 0..n {
                    tab[i * total + j] = -tab[i * total + j];
                }
                b[i] = -b[i];
                xb[i] = -xb[i];
            }
            // Artificial column for row i.
            tab[i * total + n + i] = 1.0;
        }
        let mut basis: Vec<usize> = (n..n + m).collect();

        // Phase-1 and phase-2 reduced-cost rows.
        // Phase 1: cost 1 on artificials. With the all-artificial basis the
        // reduced cost of column j is -sum_i tab[i][j] (and 0 on artificials).
        let mut d1 = vec![0.0f64; total];
        for j in 0..n {
            let mut s = 0.0;
            for i in 0..m {
                s += tab[i * total + j];
            }
            d1[j] = -s;
        }
        // Phase 2: artificials have zero cost, so reduced costs start equal to
        // the raw objective coefficients.
        let mut d2 = vec![0.0f64; total];
        for (j, &c) in self.obj.iter().enumerate() {
            d2[j] = c;
        }

        let max_iter = if config.max_iterations > 0 {
            config.max_iterations
        } else {
            20_000 + 60 * (m + total)
        };

        let mut iterations = 0usize;
        let tol = tol::LP_FEAS;
        let mut degenerate_run = 0usize;

        // The main pivoting loop, shared by both phases.
        // phase = 1 uses d1, phase = 2 uses d2.
        let mut phase = 1;
        loop {
            if iterations >= max_iter || config.cancel.is_cancelled() {
                return self.finish(LpStatus::IterationLimit, &basis, &xb, &at_upper, &lb, &ub);
            }

            // Entering variable selection.
            let use_bland = degenerate_run > 2 * (m + 10);
            let d = if phase == 1 { &d1 } else { &d2 };
            let mut enter: Option<(usize, f64, i8)> = None; // (col, score, direction)
            for j in 0..total {
                if basis.contains(&j) {
                    continue;
                }
                // Fixed variables can never improve.
                if (ub[j] - lb[j]).abs() < 1e-15 {
                    continue;
                }
                let dj = d[j];
                let dir: i8 = if !at_upper[j] && dj < -tol {
                    1
                } else if at_upper[j] && dj > tol {
                    -1
                } else {
                    continue;
                };
                let score = dj.abs();
                match (&enter, use_bland) {
                    (_, true) => {
                        enter = Some((j, score, dir));
                        break;
                    }
                    (None, false) => enter = Some((j, score, dir)),
                    (Some((_, best, _)), false) if score > *best => enter = Some((j, score, dir)),
                    _ => {}
                }
            }

            let (j_enter, _, dir) = match enter {
                Some(e) => e,
                None => {
                    // Optimal for the current phase.
                    if phase == 1 {
                        let infeas: f64 = basis
                            .iter()
                            .enumerate()
                            .filter(|(_, &v)| v >= n)
                            .map(|(i, _)| xb[i])
                            .sum();
                        if infeas > 1e-6 {
                            return self.finish(
                                LpStatus::Infeasible,
                                &basis,
                                &xb,
                                &at_upper,
                                &lb,
                                &ub,
                            );
                        }
                        // Fix artificials at zero and move to phase 2.
                        for a in n..total {
                            lb[a] = 0.0;
                            ub[a] = 0.0;
                        }
                        phase = 2;
                        degenerate_run = 0;
                        continue;
                    } else {
                        let mut res =
                            self.finish(LpStatus::Optimal, &basis, &xb, &at_upper, &lb, &ub);
                        res.iterations = iterations;
                        return res;
                    }
                }
            };

            // Ratio test along the entering direction.
            let dirf = dir as f64;
            let range = ub[j_enter] - lb[j_enter]; // may be inf
            let mut t_max = range;
            let mut leave: Option<(usize, bool)> = None; // (row, leaves_at_upper)
            for i in 0..m {
                let a = tab[i * total + j_enter];
                if a.abs() < tol::PIVOT {
                    continue;
                }
                let delta = dirf * a;
                let (limit, goes_upper) = if delta > 0.0 {
                    // Basic variable decreases towards its lower bound.
                    ((xb[i] - lb[basis[i]]) / delta, false)
                } else {
                    // Basic variable increases towards its upper bound.
                    if !ub[basis[i]].is_finite() {
                        continue;
                    }
                    ((ub[basis[i]] - xb[i]) / (-delta), true)
                };
                let limit = limit.max(0.0);
                if limit < t_max - 1e-12 {
                    t_max = limit;
                    leave = Some((i, goes_upper));
                }
            }

            if !t_max.is_finite() {
                // Entering variable can increase forever: unbounded (only
                // meaningful in phase 2; phase 1 objective is bounded below).
                return self.finish(LpStatus::Unbounded, &basis, &xb, &at_upper, &lb, &ub);
            }

            iterations += 1;
            if t_max <= 1e-11 {
                degenerate_run += 1;
            } else {
                degenerate_run = 0;
            }

            match leave {
                None => {
                    // Bound flip: the entering variable moves to its other bound.
                    for i in 0..m {
                        let a = tab[i * total + j_enter];
                        if a != 0.0 {
                            xb[i] -= dirf * t_max * a;
                        }
                    }
                    at_upper[j_enter] = !at_upper[j_enter];
                }
                Some((r, goes_upper)) => {
                    // Update basic values.
                    for i in 0..m {
                        let a = tab[i * total + j_enter];
                        if a != 0.0 {
                            xb[i] -= dirf * t_max * a;
                        }
                    }
                    let entering_value =
                        value_of_nonbasic(j_enter, &at_upper, &lb, &ub) + dirf * t_max;
                    let leaving = basis[r];
                    at_upper[leaving] = goes_upper;
                    basis[r] = j_enter;
                    xb[r] = entering_value;

                    // Pivot the tableau and both cost rows on (r, j_enter).
                    let pivot = tab[r * total + j_enter];
                    let inv = 1.0 / pivot;
                    for j in 0..total {
                        tab[r * total + j] *= inv;
                    }
                    for i in 0..m {
                        if i == r {
                            continue;
                        }
                        let factor = tab[i * total + j_enter];
                        if factor != 0.0 {
                            for j in 0..total {
                                tab[i * total + j] -= factor * tab[r * total + j];
                            }
                        }
                    }
                    let f1 = d1[j_enter];
                    if f1 != 0.0 {
                        for j in 0..total {
                            d1[j] -= f1 * tab[r * total + j];
                        }
                    }
                    let f2 = d2[j_enter];
                    if f2 != 0.0 {
                        for j in 0..total {
                            d2[j] -= f2 * tab[r * total + j];
                        }
                    }
                }
            }
        }
    }

    /// Assembles an [`LpResult`] from the final simplex state.
    fn finish(
        &self,
        status: LpStatus,
        basis: &[usize],
        xb: &[f64],
        at_upper: &[bool],
        lb: &[f64],
        ub: &[f64],
    ) -> LpResult {
        let mut values = vec![0.0f64; self.n_struct];
        for j in 0..self.n_struct {
            values[j] = if at_upper[j] { ub[j] } else { lb[j] };
        }
        for (i, &v) in basis.iter().enumerate() {
            if v < self.n_struct {
                values[v] = xb[i];
            }
        }
        let mut objective = self.obj_constant;
        if status == LpStatus::Optimal || status == LpStatus::IterationLimit {
            let raw: f64 = self.obj.iter().enumerate().map(|(j, &c)| c * values[j]).sum();
            objective += if self.maximize { -raw } else { raw };
        } else {
            objective = f64::NAN;
        }
        LpResult { status, objective, values, iterations: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_milp::LinExpr;

    fn cfg() -> LpConfig {
        LpConfig::default()
    }

    #[test]
    fn oracle_solves_a_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> obj 36 at (2,6).
        let mut m = Model::new("lp1", Sense::Maximize);
        let x = m.cont_var("x", 0.0, f64::INFINITY);
        let y = m.cont_var("y", 0.0, f64::INFINITY);
        m.add_con("c1", LinExpr::from(x), ConOp::Le, 4.0);
        m.add_con("c2", LinExpr::from(y) * 2.0, ConOp::Le, 12.0);
        m.add_con("c3", LinExpr::from(x) * 3.0 + LinExpr::from(y) * 2.0, ConOp::Le, 18.0);
        m.set_objective(LinExpr::from(x) * 3.0 + LinExpr::from(y) * 5.0);
        let r = DenseForm::from_model(&m).solve(&cfg());
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 36.0).abs() < 1e-6);
    }

    #[test]
    fn oracle_detects_infeasibility_and_unboundedness() {
        let mut inf = Model::new("inf", Sense::Minimize);
        let x = inf.cont_var("x", 0.0, 1.0);
        inf.add_con("hi", LinExpr::from(x), ConOp::Ge, 2.0);
        inf.set_objective(LinExpr::from(x));
        assert_eq!(DenseForm::from_model(&inf).solve(&cfg()).status, LpStatus::Infeasible);

        let mut unb = Model::new("unb", Sense::Maximize);
        let x = unb.cont_var("x", 0.0, f64::INFINITY);
        let y = unb.cont_var("y", 0.0, f64::INFINITY);
        unb.add_con("c", LinExpr::from(x) - y, ConOp::Le, 1.0);
        unb.set_objective(LinExpr::from(x) + y);
        assert_eq!(DenseForm::from_model(&unb).solve(&cfg()).status, LpStatus::Unbounded);
    }

    #[test]
    fn oracle_respects_bound_overrides() {
        let mut m = Model::new("bo", Sense::Minimize);
        let x = m.cont_var("x", 0.0, 5.0);
        let y = m.cont_var("y", 0.0, 5.0);
        m.add_con("link", LinExpr::from(x) + y, ConOp::Ge, 3.0);
        m.set_objective(LinExpr::from(x) + LinExpr::from(y) * 10.0);
        let sf = DenseForm::from_model(&m);
        let tightened = sf.solve_with_bounds(Some(&[(0.0, 1.0), (0.0, 5.0)]), &cfg());
        assert_eq!(tightened.status, LpStatus::Optimal);
        assert!((tightened.objective - 21.0).abs() < 1e-6);
    }

    #[test]
    fn oracle_reports_crossed_native_bounds_infeasible() {
        // The model's own bounds crossed via set_bounds, the case
        // `simplex::tests::crossed_native_bounds_are_infeasible_without_override`
        // pins for the revised engine.
        let mut m = Model::new("xbn", Sense::Minimize);
        let x = m.cont_var("x", 0.0, 5.0);
        m.set_bounds(x, 3.0, 2.0);
        m.set_objective(LinExpr::from(x));
        assert_eq!(DenseForm::from_model(&m).solve(&cfg()).status, LpStatus::Infeasible);
    }
}
