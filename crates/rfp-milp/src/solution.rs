//! MILP solution reporting.

use crate::model::{Model, VarId};

/// Status of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// An optimal solution was found and proven.
    Optimal,
    /// A feasible solution was found, but optimality was not proven within
    /// the node/time limits.
    Feasible,
    /// The problem has no feasible solution.
    Infeasible,
    /// The problem is unbounded in the optimisation direction.
    Unbounded,
    /// The search stopped (node/time limit) without finding any feasible
    /// solution; feasibility is unknown.
    Unknown,
}

impl SolveStatus {
    /// Returns `true` if a usable assignment is available
    /// ([`SolveStatus::Optimal`] or [`SolveStatus::Feasible`]).
    pub fn has_solution(self) -> bool {
        matches!(self, SolveStatus::Optimal | SolveStatus::Feasible)
    }
}

/// Result of a MILP solve.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Final status.
    pub status: SolveStatus,
    /// Objective value of the incumbent (meaningful when
    /// [`SolveStatus::has_solution`] is `true`).
    pub objective: f64,
    /// Best proven bound on the optimal objective (in the model's sense).
    pub best_bound: f64,
    /// Values of all model variables, indexed by [`VarId::index`].
    pub values: Vec<f64>,
    /// Number of branch-and-bound nodes explored.
    pub nodes: usize,
    /// Total simplex iterations across all LP relaxations.
    pub lp_iterations: usize,
    /// Number of LP (re-)solves performed (nodes, dives and cut rounds).
    pub lp_solves: usize,
    /// Wall-clock seconds spent inside LP solves.
    pub lp_seconds: f64,
    /// Cutting planes added at the root.
    pub cuts: usize,
    /// Wall-clock solve time in seconds.
    pub solve_seconds: f64,
}

impl Solution {
    /// Creates a solution with no assignment (infeasible/unbounded/unknown).
    pub fn empty(status: SolveStatus, n_vars: usize) -> Self {
        Solution {
            status,
            objective: f64::NAN,
            best_bound: f64::NAN,
            values: vec![0.0; n_vars],
            nodes: 0,
            lp_iterations: 0,
            lp_solves: 0,
            lp_seconds: 0.0,
            cuts: 0,
            solve_seconds: 0.0,
        }
    }

    /// Value of a variable.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// Value of a binary variable as a boolean.
    pub fn bool_value(&self, var: VarId) -> bool {
        self.value(var) > 0.5
    }

    /// Relative optimality gap `|objective - best_bound| / max(|objective|, 1)`.
    ///
    /// Returns `f64::INFINITY` when no incumbent is available.
    pub fn gap(&self) -> f64 {
        if !self.status.has_solution() || !self.best_bound.is_finite() {
            return f64::INFINITY;
        }
        (self.objective - self.best_bound).abs() / self.objective.abs().max(1.0)
    }

    /// Checks the assignment against the model (bounds, integrality and
    /// constraints) within tolerance `tol`.
    pub fn verify(&self, model: &Model, tol: f64) -> Vec<String> {
        if !self.status.has_solution() {
            return vec![format!("no solution available (status {:?})", self.status)];
        }
        model.violations(&self.values, tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{ConOp, Sense};

    #[test]
    fn status_has_solution() {
        assert!(SolveStatus::Optimal.has_solution());
        assert!(SolveStatus::Feasible.has_solution());
        assert!(!SolveStatus::Infeasible.has_solution());
        assert!(!SolveStatus::Unknown.has_solution());
    }

    #[test]
    fn accessors_and_gap() {
        let sol = Solution {
            status: SolveStatus::Feasible,
            objective: 10.0,
            best_bound: 9.0,
            values: vec![1.2, 0.0, 3.0],
            nodes: 5,
            lp_iterations: 42,
            lp_solves: 6,
            lp_seconds: 0.06,
            cuts: 0,
            solve_seconds: 0.1,
        };
        assert_eq!(sol.value(VarId::from_index(0)), 1.2);
        assert!(!sol.bool_value(VarId::from_index(1)));
        assert!((sol.gap() - 0.1).abs() < 1e-12);
        assert_eq!(Solution::empty(SolveStatus::Infeasible, 2).gap(), f64::INFINITY);
    }

    #[test]
    fn verify_reports_violations() {
        let mut m = Model::new("t", Sense::Minimize);
        let x = m.int_var("x", 0.0, 3.0);
        m.add_con("c", LinExpr::from(x), ConOp::Le, 2.0);
        let mut sol = Solution::empty(SolveStatus::Optimal, 1);
        sol.values = vec![2.0];
        assert!(sol.verify(&m, 1e-9).is_empty());
        sol.values = vec![2.5];
        assert_eq!(sol.verify(&m, 1e-9).len(), 2); // non-integral + violated
        sol.status = SolveStatus::Infeasible;
        assert_eq!(sol.verify(&m, 1e-9).len(), 1);
    }
}
