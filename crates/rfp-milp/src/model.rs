//! The MILP model builder.

use crate::expr::LinExpr;
use std::fmt;

/// Identifier of a variable inside a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(u32);

impl VarId {
    /// Builds a `VarId` from a raw index. Intended for tests and internal use.
    pub fn from_index(i: usize) -> Self {
        VarId(i as u32)
    }

    /// Index of the variable inside the model's variable array.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Kind of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Real-valued variable.
    Continuous,
    /// Integer variable.
    Integer,
    /// Binary variable (integer restricted to {0, 1}).
    Binary,
}

impl VarKind {
    /// Returns `true` for [`VarKind::Integer`] and [`VarKind::Binary`].
    pub fn is_integral(self) -> bool {
        matches!(self, VarKind::Integer | VarKind::Binary)
    }
}

/// Objective sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimise the objective.
    Minimize,
    /// Maximise the objective.
    Maximize,
}

/// Comparison operator of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConOp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

impl fmt::Display for ConOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConOp::Le => write!(f, "<="),
            ConOp::Ge => write!(f, ">="),
            ConOp::Eq => write!(f, "="),
        }
    }
}

/// Definition of a decision variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDef {
    /// Name used in exports and error messages.
    pub name: String,
    /// Variable kind.
    pub kind: VarKind,
    /// Lower bound (finite).
    pub lb: f64,
    /// Upper bound (may be `f64::INFINITY`).
    pub ub: f64,
}

/// A linear constraint `expr (op) rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Name used in exports and error messages.
    pub name: String,
    /// Left-hand-side expression (its constant term is folded into `rhs`).
    pub expr: LinExpr,
    /// Comparison operator.
    pub op: ConOp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A mixed-integer linear program.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Model name.
    pub name: String,
    /// Objective sense.
    pub sense: Sense,
    /// Objective expression.
    pub objective: LinExpr,
    vars: Vec<VarDef>,
    constraints: Vec<Constraint>,
    /// Structural hint: groups of binary variables of which at most one can
    /// be 1 in any integral solution. Not constraints — the branch-and-bound
    /// cut separator turns violated groups into clique cutting planes.
    mutex_groups: Vec<(String, Vec<VarId>)>,
}

impl Model {
    /// Creates an empty model.
    pub fn new(name: impl Into<String>, sense: Sense) -> Self {
        Model {
            name: name.into(),
            sense,
            objective: LinExpr::zero(),
            vars: Vec::new(),
            constraints: Vec::new(),
            mutex_groups: Vec::new(),
        }
    }

    /// Adds a variable with explicit kind and bounds.
    pub fn add_var(&mut self, name: impl Into<String>, kind: VarKind, lb: f64, ub: f64) -> VarId {
        debug_assert!(lb <= ub, "variable lower bound must not exceed upper bound");
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarDef { name: name.into(), kind, lb, ub });
        id
    }

    /// Adds a continuous variable in `[lb, ub]`.
    pub fn cont_var(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> VarId {
        self.add_var(name, VarKind::Continuous, lb, ub)
    }

    /// Adds an integer variable in `[lb, ub]`.
    pub fn int_var(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> VarId {
        self.add_var(name, VarKind::Integer, lb, ub)
    }

    /// Adds a binary variable.
    pub fn bin_var(&mut self, name: impl Into<String>) -> VarId {
        self.add_var(name, VarKind::Binary, 0.0, 1.0)
    }

    /// Adds a constraint `expr (op) rhs`. The constant term of `expr` is
    /// moved to the right-hand side.
    pub fn add_con(&mut self, name: impl Into<String>, expr: LinExpr, op: ConOp, rhs: f64) {
        let constant = expr.constant_term();
        let mut e = expr;
        e.add_constant(-constant);
        self.constraints.push(Constraint { name: name.into(), expr: e, op, rhs: rhs - constant });
    }

    /// Sets the objective expression.
    pub fn set_objective(&mut self, objective: LinExpr) {
        self.objective = objective;
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn n_cons(&self) -> usize {
        self.constraints.len()
    }

    /// Number of integer/binary variables.
    pub fn n_integer_vars(&self) -> usize {
        self.vars.iter().filter(|v| v.kind.is_integral()).count()
    }

    /// Total number of non-zero coefficients over all constraints.
    pub fn n_nonzeros(&self) -> usize {
        self.constraints.iter().map(|c| c.expr.n_terms()).sum()
    }

    /// Variable definition by id.
    pub fn var(&self, id: VarId) -> &VarDef {
        &self.vars[id.index()]
    }

    /// All variable definitions, in id order.
    pub fn vars(&self) -> &[VarDef] {
        &self.vars
    }

    /// All constraints, in insertion order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Mutable access to the constraints, for in-place strengthening by the
    /// presolver (coefficient tightening rewrites rows without changing the
    /// integer-feasible set).
    pub(crate) fn constraints_mut(&mut self) -> &mut [Constraint] {
        &mut self.constraints
    }

    /// Declares that at most one of the given binary variables can be 1 in
    /// any integral solution (a *clique* in the conflict graph).
    ///
    /// This is a structural hint, not a constraint: it does not change the
    /// feasible set reported by [`Model::violations`], but the
    /// branch-and-bound cut separator turns groups that the LP relaxation
    /// violates into clique cutting planes, tightening the relaxation. The
    /// caller is responsible for the hint's validity — a wrong hint can cut
    /// off integral solutions.
    pub fn add_mutex_group(&mut self, name: impl Into<String>, vars: Vec<VarId>) {
        debug_assert!(vars.iter().all(|v| self.vars[v.index()].kind == VarKind::Binary));
        if vars.len() >= 2 {
            self.mutex_groups.push((name.into(), vars));
        }
    }

    /// The registered mutual-exclusion hints.
    pub fn mutex_groups(&self) -> &[(String, Vec<VarId>)] {
        &self.mutex_groups
    }

    /// Tightens the bounds of a variable (used by branch and bound).
    pub fn set_bounds(&mut self, id: VarId, lb: f64, ub: f64) {
        let v = &mut self.vars[id.index()];
        v.lb = lb;
        v.ub = ub;
    }

    /// Checks a candidate assignment against every constraint, bound and
    /// integrality requirement. Returns the list of violation descriptions
    /// (empty when feasible).
    pub fn violations(&self, values: &[f64], tol: f64) -> Vec<String> {
        let mut out = Vec::new();
        if values.len() != self.vars.len() {
            out.push(format!(
                "assignment has {} values but the model has {} variables",
                values.len(),
                self.vars.len()
            ));
            return out;
        }
        for (i, v) in self.vars.iter().enumerate() {
            let x = values[i];
            if x < v.lb - tol || x > v.ub + tol {
                out.push(format!("variable {} = {x} outside bounds [{}, {}]", v.name, v.lb, v.ub));
            }
            if v.kind.is_integral() && (x - x.round()).abs() > tol {
                out.push(format!("variable {} = {x} is not integral", v.name));
            }
        }
        for c in &self.constraints {
            let lhs = c.expr.eval(values);
            let ok = match c.op {
                ConOp::Le => lhs <= c.rhs + tol,
                ConOp::Ge => lhs >= c.rhs - tol,
                ConOp::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                out.push(format!("constraint {} violated: {lhs} {} {}", c.name, c.op, c.rhs));
            }
        }
        out
    }

    /// Returns `true` if the assignment satisfies every constraint, bound and
    /// integrality requirement within tolerance `tol`.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        self.violations(values, tol).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variable_helpers_set_kinds_and_bounds() {
        let mut m = Model::new("t", Sense::Minimize);
        let x = m.cont_var("x", -1.0, 2.0);
        let y = m.int_var("y", 0.0, 5.0);
        let z = m.bin_var("z");
        assert_eq!(m.n_vars(), 3);
        assert_eq!(m.var(x).kind, VarKind::Continuous);
        assert_eq!(m.var(y).kind, VarKind::Integer);
        assert_eq!(m.var(z).kind, VarKind::Binary);
        assert_eq!(m.var(z).ub, 1.0);
        assert_eq!(m.n_integer_vars(), 2);
    }

    #[test]
    fn constant_terms_fold_into_rhs() {
        let mut m = Model::new("t", Sense::Minimize);
        let x = m.cont_var("x", 0.0, 10.0);
        m.add_con("c", LinExpr::from(x) + 3.0, ConOp::Le, 5.0);
        let c = &m.constraints()[0];
        assert_eq!(c.rhs, 2.0);
        assert_eq!(c.expr.constant_term(), 0.0);
    }

    #[test]
    fn violations_detects_bound_integrality_and_constraint_breaches() {
        let mut m = Model::new("t", Sense::Minimize);
        let x = m.int_var("x", 0.0, 4.0);
        let y = m.cont_var("y", 0.0, 10.0);
        m.add_con("cap", LinExpr::from(x) + y, ConOp::Le, 5.0);
        assert!(m.is_feasible(&[2.0, 3.0], 1e-9));
        let v = m.violations(&[2.5, 4.0], 1e-9);
        assert_eq!(v.len(), 2); // non-integral x and violated constraint
        assert!(m.violations(&[5.0, 0.0], 1e-9).iter().any(|s| s.contains("outside bounds")));
        assert_eq!(m.violations(&[1.0], 1e-9).len(), 1);
    }

    #[test]
    fn statistics_count_nonzeros() {
        let mut m = Model::new("t", Sense::Minimize);
        let x = m.cont_var("x", 0.0, 1.0);
        let y = m.cont_var("y", 0.0, 1.0);
        m.add_con("a", LinExpr::from(x) + y, ConOp::Le, 1.0);
        m.add_con("b", LinExpr::from(y) * 2.0, ConOp::Ge, 0.5);
        assert_eq!(m.n_cons(), 2);
        assert_eq!(m.n_nonzeros(), 3);
    }

    #[test]
    fn mutex_groups_are_hints_not_constraints() {
        let mut m = Model::new("t", Sense::Minimize);
        let a = m.bin_var("a");
        let b = m.bin_var("b");
        m.add_mutex_group("ab", vec![a, b]);
        // Singleton groups are dropped — a clique needs at least two members.
        m.add_mutex_group("solo", vec![a]);
        assert_eq!(m.mutex_groups().len(), 1);
        assert_eq!(m.mutex_groups()[0].1, vec![a, b]);
        // The hint does not change feasibility checking.
        assert!(m.is_feasible(&[1.0, 1.0], crate::tol::FEASIBILITY));
    }

    #[test]
    fn set_bounds_overwrites() {
        let mut m = Model::new("t", Sense::Minimize);
        let x = m.int_var("x", 0.0, 9.0);
        m.set_bounds(x, 2.0, 3.0);
        assert_eq!(m.var(x).lb, 2.0);
        assert_eq!(m.var(x).ub, 3.0);
    }
}
