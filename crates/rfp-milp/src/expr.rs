//! Sparse linear expressions.
//!
//! A [`LinExpr`] is a sparse linear combination of model variables plus a
//! constant term. Expressions support the natural arithmetic operators so
//! constraints can be written close to the paper's mathematical notation.

use crate::model::VarId;
use std::collections::BTreeMap;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A sparse linear expression `Σ c_j x_j + constant`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    /// Coefficients keyed by variable, kept sorted for determinism.
    terms: BTreeMap<VarId, f64>,
    /// Constant offset.
    constant: f64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        LinExpr::default()
    }

    /// An expression consisting of a single constant.
    pub fn constant(c: f64) -> Self {
        LinExpr { terms: BTreeMap::new(), constant: c }
    }

    /// An expression consisting of `coeff * var`.
    pub fn term(var: VarId, coeff: f64) -> Self {
        let mut e = LinExpr::zero();
        e.add_term(var, coeff);
        e
    }

    /// Adds `coeff * var` to the expression (merging with an existing term).
    pub fn add_term(&mut self, var: VarId, coeff: f64) -> &mut Self {
        if coeff != 0.0 {
            let entry = self.terms.entry(var).or_insert(0.0);
            *entry += coeff;
            if *entry == 0.0 {
                self.terms.remove(&var);
            }
        }
        self
    }

    /// Adds a constant to the expression.
    pub fn add_constant(&mut self, c: f64) -> &mut Self {
        self.constant += c;
        self
    }

    /// The constant term.
    pub fn constant_term(&self) -> f64 {
        self.constant
    }

    /// Number of variables with a non-zero coefficient.
    pub fn n_terms(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` if the expression has no variable terms.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Coefficient of a variable (0 if absent).
    pub fn coeff(&self, var: VarId) -> f64 {
        self.terms.get(&var).copied().unwrap_or(0.0)
    }

    /// Iterates over `(variable, coefficient)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.terms.iter().map(|(&v, &c)| (v, c))
    }

    /// Evaluates the expression for a full assignment of variable values
    /// (indexed by `VarId::index`).
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant + self.terms.iter().map(|(v, c)| c * values[v.index()]).sum::<f64>()
    }

    /// Sums an iterator of expressions.
    pub fn sum<I: IntoIterator<Item = LinExpr>>(exprs: I) -> LinExpr {
        let mut acc = LinExpr::zero();
        for e in exprs {
            acc += e;
        }
        acc
    }

    /// Sums `coeff * var` over an iterator of `(var, coeff)` pairs.
    pub fn weighted_sum<I: IntoIterator<Item = (VarId, f64)>>(pairs: I) -> LinExpr {
        let mut acc = LinExpr::zero();
        for (v, c) in pairs {
            acc.add_term(v, c);
        }
        acc
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        LinExpr::term(v, 1.0)
    }
}

impl From<f64> for LinExpr {
    fn from(c: f64) -> Self {
        LinExpr::constant(c)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self += rhs;
        self
    }
}

impl Add<VarId> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: VarId) -> LinExpr {
        self.add_term(rhs, 1.0);
        self
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: f64) -> LinExpr {
        self.constant += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        self -= rhs;
        self
    }
}

impl Sub<VarId> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: VarId) -> LinExpr {
        self.add_term(rhs, -1.0);
        self
    }
}

impl Sub<f64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: f64) -> LinExpr {
        self.constant -= rhs;
        self
    }
}

impl SubAssign for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, -c);
        }
        self.constant -= rhs.constant;
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: f64) -> LinExpr {
        if rhs == 0.0 {
            return LinExpr::zero();
        }
        for c in self.terms.values_mut() {
            *c *= rhs;
        }
        self.constant *= rhs;
        self
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self * -1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    #[test]
    fn term_merging_and_cancellation() {
        let mut e = LinExpr::term(v(0), 2.0);
        e.add_term(v(0), 3.0);
        assert_eq!(e.coeff(v(0)), 5.0);
        e.add_term(v(0), -5.0);
        assert_eq!(e.coeff(v(0)), 0.0);
        assert_eq!(e.n_terms(), 0);
        assert!(e.is_constant());
    }

    #[test]
    fn arithmetic_operators() {
        let e = LinExpr::from(v(0)) * 3.0 + LinExpr::from(v(1)) * 2.0 + 1.0;
        assert_eq!(e.coeff(v(0)), 3.0);
        assert_eq!(e.coeff(v(1)), 2.0);
        assert_eq!(e.constant_term(), 1.0);
        let f = e.clone() - LinExpr::from(v(1)) * 2.0;
        assert_eq!(f.coeff(v(1)), 0.0);
        let g = -f.clone();
        assert_eq!(g.coeff(v(0)), -3.0);
        assert_eq!(g.constant_term(), -1.0);
        let h = f + v(2) - v(0);
        assert_eq!(h.coeff(v(2)), 1.0);
        assert_eq!(h.coeff(v(0)), 2.0);
    }

    #[test]
    fn eval_uses_values_and_constant() {
        let e = LinExpr::from(v(0)) * 2.0 + LinExpr::from(v(2)) * -1.0 + 5.0;
        let vals = vec![3.0, 100.0, 4.0];
        assert_eq!(e.eval(&vals), 2.0 * 3.0 - 4.0 + 5.0);
    }

    #[test]
    fn weighted_sum_and_sum() {
        let e = LinExpr::weighted_sum([(v(0), 1.0), (v(1), 2.0), (v(0), 3.0)]);
        assert_eq!(e.coeff(v(0)), 4.0);
        let s = LinExpr::sum([LinExpr::from(v(0)), LinExpr::from(v(1)) + 1.0]);
        assert_eq!(s.coeff(v(0)), 1.0);
        assert_eq!(s.constant_term(), 1.0);
    }

    #[test]
    fn mul_by_zero_clears_expression() {
        let e = (LinExpr::from(v(0)) + 4.0) * 0.0;
        assert_eq!(e, LinExpr::zero());
    }

    #[test]
    fn iter_is_sorted_by_variable() {
        let e = LinExpr::weighted_sum([(v(5), 1.0), (v(1), 2.0), (v(3), 3.0)]);
        let order: Vec<usize> = e.iter().map(|(var, _)| var.index()).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }
}
