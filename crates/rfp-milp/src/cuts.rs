//! Cutting-plane separation for branch and bound.
//!
//! Two families of globally valid cuts are separated at the root node
//! ("cut and branch"):
//!
//! * **cover cuts** — for a knapsack row `Σ aⱼxⱼ ≤ b` over binaries with
//!   positive coefficients, any *cover* `C` (a set with `Σ_{C} aⱼ > b`)
//!   yields `Σ_{C} xⱼ ≤ |C| − 1`. Separation is the classic greedy on the
//!   fractional LP point, followed by minimalisation;
//! * **clique cuts** — mutual-exclusion hints registered on the model
//!   ([`crate::model::Model::add_mutex_group`], e.g. the pairwise
//!   left/above relation binaries of the floorplanning MILP) become
//!   `Σ_{G} xⱼ ≤ 1` whenever the LP point violates the group.
//!
//! Cuts are appended to the [`crate::simplex::StandardForm`] only — the
//! original [`crate::model::Model`] is untouched, so incumbent feasibility
//! checks still run against the true constraint set.

use crate::model::{ConOp, Model, VarKind};
use crate::tol;
use std::collections::HashSet;

/// A separated cutting plane `Σ terms ≤ rhs` over structural columns.
#[derive(Debug, Clone)]
pub struct Cut {
    /// Human-readable provenance, for debugging and logs.
    pub name: String,
    /// Sparse left-hand side over structural variable indices.
    pub terms: Vec<(usize, f64)>,
    /// Right-hand side (the operator is always `≤`).
    pub rhs: f64,
}

impl Cut {
    /// The row triple consumed by [`crate::simplex::StandardForm::add_rows`].
    pub fn as_row(&self) -> crate::simplex::CutRow {
        (self.terms.clone(), ConOp::Le, self.rhs)
    }
}

/// Stateful separator: scans the model once for knapsack rows and clique
/// hints, then separates violated cuts per LP point without re-adding
/// duplicates across rounds.
#[derive(Debug)]
pub struct Separator {
    /// Knapsack rows `(terms, rhs)` with positive coefficients on binaries.
    knapsacks: Vec<(Vec<(usize, f64)>, f64)>,
    /// Clique hints as structural indices.
    cliques: Vec<(String, Vec<usize>)>,
    /// Signatures of cuts already emitted (sorted columns + scaled rhs).
    emitted: HashSet<(Vec<usize>, i64)>,
}

impl Separator {
    /// Scans a model for separable structures.
    pub fn new(model: &Model) -> Separator {
        let is_bin = |j: usize| model.vars()[j].kind == VarKind::Binary;
        let mut knapsacks = Vec::new();
        for con in model.constraints() {
            // Normalise to `Σ a x ≤ b`: a `≥` row with all-negative
            // coefficients flips sign.
            let terms: Vec<(usize, f64)> = con.expr.iter().map(|(v, c)| (v.index(), c)).collect();
            let (terms, rhs) = match con.op {
                ConOp::Le => (terms, con.rhs),
                ConOp::Ge if terms.iter().all(|&(_, c)| c < 0.0) => {
                    (terms.into_iter().map(|(j, c)| (j, -c)).collect(), -con.rhs)
                }
                _ => continue,
            };
            if terms.len() < 2 || rhs <= 0.0 || !terms.iter().all(|&(j, c)| c > 0.0 && is_bin(j)) {
                continue;
            }
            // A cover only exists when the items cannot all fit.
            let total: f64 = terms.iter().map(|&(_, c)| c).sum();
            if total > rhs + tol::FEASIBILITY {
                knapsacks.push((terms, rhs));
            }
        }
        let cliques = model
            .mutex_groups()
            .iter()
            .map(|(name, vars)| (name.clone(), vars.iter().map(|v| v.index()).collect()))
            .collect();
        Separator { knapsacks, cliques, emitted: HashSet::new() }
    }

    /// Separates up to `max_cuts` cuts violated by the LP point `x`.
    pub fn separate(&mut self, x: &[f64], max_cuts: usize) -> Vec<Cut> {
        let mut out: Vec<Cut> = Vec::new();

        // Clique cuts first: they are sparse, strong and cheap.
        for (name, group) in &self.cliques {
            if out.len() >= max_cuts {
                break;
            }
            let activity: f64 = group.iter().map(|&j| x[j]).sum();
            if activity <= 1.0 + 1e-6 {
                continue;
            }
            let cut = Cut {
                name: format!("clique[{name}]"),
                terms: group.iter().map(|&j| (j, 1.0)).collect(),
                rhs: 1.0,
            };
            Self::push_if_new(&mut self.emitted, &mut out, cut);
        }

        // Cover cuts from the knapsack rows.
        for (ki, (terms, rhs)) in self.knapsacks.iter().enumerate() {
            if out.len() >= max_cuts {
                break;
            }
            if let Some(cover) = greedy_cover(terms, *rhs, x) {
                let activity: f64 = cover.iter().map(|&j| x[j]).sum();
                if activity > cover.len() as f64 - 1.0 + 1e-6 {
                    let cut = Cut {
                        name: format!("cover[row{ki}]"),
                        terms: cover.iter().map(|&j| (j, 1.0)).collect(),
                        rhs: cover.len() as f64 - 1.0,
                    };
                    Self::push_if_new(&mut self.emitted, &mut out, cut);
                }
            }
        }
        out
    }

    fn push_if_new(emitted: &mut HashSet<(Vec<usize>, i64)>, out: &mut Vec<Cut>, cut: Cut) {
        let mut cols: Vec<usize> = cut.terms.iter().map(|&(j, _)| j).collect();
        cols.sort_unstable();
        let sig = (cols, (cut.rhs * 1024.0).round() as i64);
        if emitted.insert(sig) {
            out.push(cut);
        }
    }
}

/// Greedy minimal cover of a knapsack row at the LP point: items are added in
/// increasing `(1 − x*) / a` order until their weight exceeds the capacity,
/// then items that are not needed for the cover property are dropped.
fn greedy_cover(terms: &[(usize, f64)], rhs: f64, x: &[f64]) -> Option<Vec<usize>> {
    let mut order: Vec<(usize, f64, f64)> =
        terms.iter().map(|&(j, a)| (j, a, (1.0 - x[j].clamp(0.0, 1.0)) / a)).collect();
    order.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
    let mut weight = 0.0;
    let mut cover: Vec<(usize, f64)> = Vec::new();
    for &(j, a, _) in &order {
        if weight > rhs {
            break;
        }
        cover.push((j, a));
        weight += a;
    }
    if weight <= rhs {
        return None;
    }
    // Minimalise: drop items (least attractive last) whose removal keeps the
    // cover property.
    let mut keep: Vec<(usize, f64)> = cover;
    let mut i = keep.len();
    while i > 0 {
        i -= 1;
        let a = keep[i].1;
        if weight - a > rhs {
            weight -= a;
            keep.remove(i);
        }
    }
    if keep.len() < 2 {
        return None;
    }
    let mut cols: Vec<usize> = keep.into_iter().map(|(j, _)| j).collect();
    cols.sort_unstable();
    Some(cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{Model, Sense};

    #[test]
    fn knapsack_rows_are_recognised() {
        let mut m = Model::new("k", Sense::Maximize);
        let vars: Vec<_> = (0..4).map(|i| m.bin_var(format!("b{i}"))).collect();
        m.add_con("cap", LinExpr::weighted_sum(vars.iter().map(|&v| (v, 2.0))), ConOp::Le, 5.0);
        // Not a knapsack: continuous variable involved.
        let c = m.cont_var("c", 0.0, 1.0);
        m.add_con("mixed", LinExpr::from(vars[0]) + c, ConOp::Le, 1.0);
        let sep = Separator::new(&m);
        assert_eq!((sep.knapsacks.len(), sep.cliques.len()), (1, 0));
    }

    #[test]
    fn cover_cut_separates_a_fractional_point() {
        // 3a + 3b + 3c <= 5: any two items form a cover -> x_i + x_j <= 1.
        let mut m = Model::new("cov", Sense::Maximize);
        let a = m.bin_var("a");
        let b = m.bin_var("b");
        let c = m.bin_var("c");
        m.add_con(
            "cap",
            LinExpr::from(a) * 3.0 + LinExpr::from(b) * 3.0 + LinExpr::from(c) * 3.0,
            ConOp::Le,
            5.0,
        );
        let mut sep = Separator::new(&m);
        // LP point x = (0.85, 0.8, 0): a+b is a violated cover (1.65 > 1).
        let cuts = sep.separate(&[0.85, 0.8, 0.0], 10);
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].terms.iter().map(|&(j, _)| j).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(cuts[0].rhs, 1.0);
        // The same cut is not emitted twice.
        assert!(sep.separate(&[0.85, 0.8, 0.0], 10).is_empty());
    }

    #[test]
    fn clique_cut_from_mutex_hint() {
        let mut m = Model::new("cl", Sense::Maximize);
        let a = m.bin_var("a");
        let b = m.bin_var("b");
        m.add_mutex_group("ab", vec![a, b]);
        let mut sep = Separator::new(&m);
        assert!(sep.separate(&[0.5, 0.4], 10).is_empty(), "0.9 <= 1: no violation");
        let cuts = sep.separate(&[0.7, 0.6], 10);
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].rhs, 1.0);
        assert_eq!(cuts[0].terms.len(), 2);
    }

    #[test]
    fn integral_points_are_never_cut() {
        // Valid cover cuts cannot separate a feasible integral point.
        let mut m = Model::new("int", Sense::Maximize);
        let vars: Vec<_> = (0..5).map(|i| m.bin_var(format!("b{i}"))).collect();
        let weights = [2.0, 3.0, 4.0, 5.0, 1.0];
        m.add_con(
            "cap",
            LinExpr::weighted_sum(vars.iter().zip(weights.iter()).map(|(&v, &w)| (v, w))),
            ConOp::Le,
            7.0,
        );
        let mut sep = Separator::new(&m);
        // x = items 1 and 2 (weight 7, feasible).
        let point = [0.0, 1.0, 1.0, 0.0, 0.0];
        for cut in sep.separate(&point, 10) {
            let lhs: f64 = cut.terms.iter().map(|&(j, c)| c * point[j]).sum();
            assert!(lhs <= cut.rhs + 1e-9, "cut {} removes an integral point", cut.name);
        }
    }
}
