//! MILP presolve: bound propagation and big-M coefficient tightening.
//!
//! Run once before the root LP, the presolver rewrites the model into an
//! equivalent one whose LP relaxation is tighter, so every node of the
//! branch-and-bound tree re-solves a smaller, better-bounded LP:
//!
//! * **bound propagation** — for every row, the activity range implied by
//!   the current variable bounds is used to derive implied bounds on each
//!   participating variable; integer bounds are rounded inward. Passes
//!   repeat until a fixpoint (or a small round cap), since one tightened
//!   bound sharpens the activity ranges of every row it appears in;
//! * **big-M coefficient tightening** — an indicator-style row such as
//!   `x + M·z ≥ b` with binary `z` is only *vacuously* satisfied when
//!   `z = 1`; shrinking `M` to the smallest value that keeps it vacuous
//!   (and the analogous right-hand-side shift for activating rows) cuts
//!   off the fractional `z` band the LP relaxation would otherwise exploit.
//!
//! Both transformations preserve the set of *integer-feasible* points
//! exactly — coefficient tightening deliberately cuts LP-only points, which
//! is its purpose — and never add, remove or reorder variables, so variable
//! indices, warm starts and external incumbents all keep working on the
//! presolved model unchanged.
//!
//! Infeasibility discovered during propagation (a variable's bounds cross,
//! or an integer variable's interval contains no integer) is reported so
//! the solver can return [`crate::SolveStatus::Infeasible`] without ever
//! building an LP.

use crate::model::{ConOp, Model, VarKind};

/// Integer rounding / comparison tolerance of the presolver.
const EPS: f64 = 1e-9;

/// Upper bound on propagation passes; floorplanning models reach their
/// fixpoint in two or three.
const MAX_ROUNDS: usize = 8;

/// Outcome of presolving a model.
#[derive(Debug, Clone)]
pub struct Presolved {
    /// The tightened model (same variables, same objective, same
    /// integer-feasible set).
    pub model: Model,
    /// What the presolver did.
    pub stats: PresolveStats,
}

/// Tally of presolve reductions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PresolveStats {
    /// Propagation rounds executed (0 when the model was empty).
    pub rounds: usize,
    /// Variable bounds strictly tightened.
    pub bounds_tightened: usize,
    /// Big-M coefficients (or paired right-hand sides) strengthened.
    pub coeffs_tightened: usize,
    /// `true` when propagation proved the model infeasible outright.
    pub infeasible: bool,
}

/// Presolves a model: returns a tightened copy plus reduction statistics.
pub fn presolve(model: &Model) -> Presolved {
    let mut m = model.clone();
    let mut stats = PresolveStats::default();

    for _ in 0..MAX_ROUNDS {
        stats.rounds += 1;
        let mut changed = propagate_bounds(&mut m, &mut stats);
        if stats.infeasible {
            return Presolved { model: m, stats };
        }
        changed |= tighten_big_m(&mut m, &mut stats);
        if !changed {
            break;
        }
    }
    Presolved { model: m, stats }
}

/// Activity range `[min, max]` of `coeff · x` over the variable's bounds.
fn term_range(coeff: f64, lb: f64, ub: f64) -> (f64, f64) {
    if coeff >= 0.0 {
        (coeff * lb, coeff * ub)
    } else {
        (coeff * ub, coeff * lb)
    }
}

/// One pass of constraint-driven bound propagation. Returns `true` when any
/// bound moved; sets `stats.infeasible` when bounds cross.
fn propagate_bounds(m: &mut Model, stats: &mut PresolveStats) -> bool {
    let mut changed = false;
    let n_cons = m.n_cons();
    for ci in 0..n_cons {
        let con = &m.constraints()[ci];
        let op = con.op;
        let rhs = con.rhs;
        let terms: Vec<(usize, f64)> = con.expr.iter().map(|(v, c)| (v.index(), c)).collect();

        // Row activity range over the current bounds.
        let (mut act_min, mut act_max) = (0.0f64, 0.0f64);
        for &(j, c) in &terms {
            let v = m.var(crate::model::VarId::from_index(j));
            let (tmin, tmax) = term_range(c, v.lb, v.ub);
            act_min += tmin;
            act_max += tmax;
        }

        for &(j, c) in &terms {
            if c == 0.0 {
                continue;
            }
            let id = crate::model::VarId::from_index(j);
            let (lb, ub, integral) = {
                let v = m.var(id);
                (v.lb, v.ub, v.kind.is_integral())
            };
            let (tmin, tmax) = term_range(c, lb, ub);
            // Activity of the *other* terms.
            let rest_min = act_min - tmin;
            let rest_max = act_max - tmax;

            let mut new_lb = lb;
            let mut new_ub = ub;
            // `Σ ≤ b` ⇒ `c·x ≤ b − rest_min`; `Σ ≥ b` ⇒ `c·x ≥ b − rest_max`.
            if (op == ConOp::Le || op == ConOp::Eq) && rest_min.is_finite() {
                let cap = (rhs - rest_min) / c;
                if c > 0.0 {
                    new_ub = new_ub.min(cap);
                } else {
                    new_lb = new_lb.max(cap);
                }
            }
            if (op == ConOp::Ge || op == ConOp::Eq) && rest_max.is_finite() {
                let floor = (rhs - rest_max) / c;
                if c > 0.0 {
                    new_lb = new_lb.max(floor);
                } else {
                    new_ub = new_ub.min(floor);
                }
            }
            if integral {
                if new_lb.is_finite() {
                    new_lb = (new_lb - EPS).ceil();
                }
                if new_ub.is_finite() {
                    new_ub = (new_ub + EPS).floor();
                }
            }
            if new_lb > new_ub + EPS {
                stats.infeasible = true;
                return changed;
            }
            // Guard against creep: only adopt a *meaningful* tightening.
            let moved_lb = new_lb > lb + EPS;
            let moved_ub = new_ub < ub - EPS;
            if moved_lb || moved_ub {
                m.set_bounds(
                    id,
                    if moved_lb { new_lb } else { lb },
                    if moved_ub { new_ub.max(lb) } else { ub },
                );
                stats.bounds_tightened += usize::from(moved_lb) + usize::from(moved_ub);
                changed = true;
                // Refresh the cached activity range with the new bounds.
                let v = m.var(id);
                let (nmin, nmax) = term_range(c, v.lb, v.ub);
                act_min += nmin - tmin;
                act_max += nmax - tmax;
            }
        }
    }
    changed
}

/// Big-M coefficient tightening on binary columns of inequality rows.
/// Returns `true` when any coefficient (or right-hand side) was changed.
fn tighten_big_m(m: &mut Model, stats: &mut PresolveStats) -> bool {
    let mut changed = false;
    // Snapshot the bounds; tightening never changes bounds, so a single
    // read per variable is enough for the whole pass.
    let bounds: Vec<(f64, f64, bool)> = m
        .vars()
        .iter()
        .map(|v| (v.lb, v.ub, v.kind == VarKind::Binary && v.lb == 0.0 && v.ub == 1.0))
        .collect();
    for con in m.constraints_mut() {
        if con.op == ConOp::Eq {
            continue;
        }
        let terms: Vec<(usize, f64)> = con.expr.iter().map(|(v, c)| (v.index(), c)).collect();
        for &(k, a) in &terms {
            if !bounds[k].2 || a == 0.0 {
                continue;
            }
            // Activity range of the row *without* the binary's term.
            let (mut rest_min, mut rest_max) = (0.0f64, 0.0f64);
            for &(j, c) in &terms {
                if j == k {
                    continue;
                }
                let (tmin, tmax) = term_range(c, bounds[j].0, bounds[j].1);
                rest_min += tmin;
                rest_max += tmax;
            }
            let b = con.rhs;
            let var = crate::model::VarId::from_index(k);
            match con.op {
                // `rest + a·z ≥ b`.
                ConOp::Ge => {
                    if a > 0.0 && rest_min.is_finite() {
                        // z = 1 deactivates the row; shrink M to the
                        // smallest deactivating value.
                        let slack = b - rest_min;
                        if slack > EPS && a > slack + EPS {
                            con.expr.add_term(var, slack - a);
                            stats.coeffs_tightened += 1;
                            changed = true;
                        }
                    } else if a < 0.0 && rest_min.is_finite() && rest_min > b + EPS {
                        // z = 1 activates the row, z = 0 is vacuous; shift
                        // rhs (and the coefficient with it) until the
                        // vacuous side is tight: b' = rest_min, b' − a' = b − a.
                        let shift = rest_min - b;
                        con.expr.add_term(var, shift);
                        con.rhs += shift;
                        stats.coeffs_tightened += 1;
                        changed = true;
                    }
                }
                // `rest + a·z ≤ b` — the mirror image.
                ConOp::Le => {
                    if a < 0.0 && rest_max.is_finite() {
                        let slack = b - rest_max; // negative when binding
                        if slack < -EPS && a < slack - EPS {
                            con.expr.add_term(var, slack - a);
                            stats.coeffs_tightened += 1;
                            changed = true;
                        }
                    } else if a > 0.0 && rest_max.is_finite() && rest_max < b - EPS {
                        let shift = rest_max - b; // negative
                        con.expr.add_term(var, shift);
                        con.rhs += shift;
                        stats.coeffs_tightened += 1;
                        changed = true;
                    }
                }
                ConOp::Eq => unreachable!("equality rows are skipped above"),
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{ConOp, Model, Sense};

    #[test]
    fn bound_propagation_tightens_and_rounds_integer_bounds() {
        // x + y <= 4 with x, y integer in [0, 10]: both drop to [0, 4].
        let mut m = Model::new("bp", Sense::Maximize);
        let x = m.int_var("x", 0.0, 10.0);
        let y = m.int_var("y", 0.0, 10.0);
        m.add_con("cap", LinExpr::from(x) + y, ConOp::Le, 4.0);
        let pre = presolve(&m);
        assert!(!pre.stats.infeasible);
        assert_eq!(pre.model.var(x).ub, 4.0);
        assert_eq!(pre.model.var(y).ub, 4.0);
        assert!(pre.stats.bounds_tightened >= 2);
    }

    #[test]
    fn fractional_equality_on_an_integer_is_infeasible() {
        let mut m = Model::new("inf", Sense::Minimize);
        let x = m.int_var("x", 0.0, 10.0);
        m.add_con("odd", LinExpr::from(x) * 2.0, ConOp::Eq, 3.0);
        let pre = presolve(&m);
        assert!(pre.stats.infeasible);
    }

    #[test]
    fn big_m_ge_row_coefficient_shrinks() {
        // x + 100 z >= 5, x in [0, 100], z binary: M shrinks to 5.
        let mut m = Model::new("bigm", Sense::Minimize);
        let x = m.cont_var("x", 0.0, 100.0);
        let z = m.bin_var("z");
        m.add_con("on", LinExpr::from(x) + LinExpr::from(z) * 100.0, ConOp::Ge, 5.0);
        let pre = presolve(&m);
        let con = &pre.model.constraints()[0];
        assert!((con.expr.coeff(z) - 5.0).abs() < 1e-9, "coeff {}", con.expr.coeff(z));
        assert!(pre.stats.coeffs_tightened >= 1);
    }

    #[test]
    fn big_m_activating_row_shifts_rhs() {
        // y - 100 z >= -95 (y in [0, 100], z binary) == "z=1 forces y >= 5";
        // tightens to y - 5 z >= 0.
        let mut m = Model::new("bigm2", Sense::Minimize);
        let y = m.cont_var("y", 0.0, 100.0);
        let z = m.bin_var("z");
        m.add_con("on", LinExpr::from(y) - LinExpr::from(z) * 100.0, ConOp::Ge, -95.0);
        let pre = presolve(&m);
        let con = &pre.model.constraints()[0];
        assert!((con.expr.coeff(z) + 5.0).abs() < 1e-9, "coeff {}", con.expr.coeff(z));
        assert!((con.rhs - 0.0).abs() < 1e-9, "rhs {}", con.rhs);
        // The integer-feasible set is unchanged: z=1 still forces y >= 5,
        // z=0 still allows y = 0.
        assert!(pre.model.is_feasible(&[5.0, 1.0], 1e-9));
        assert!(pre.model.is_feasible(&[0.0, 0.0], 1e-9));
        assert!(!pre.model.is_feasible(&[4.0, 1.0], 1e-9));
    }

    #[test]
    fn pairwise_knapsack_rows_reduce_to_cliques() {
        // 2x + 2y <= 3 on binaries is the LP-weak form of x + y <= 1.
        let mut m = Model::new("cliq", Sense::Maximize);
        let x = m.bin_var("x");
        let y = m.bin_var("y");
        m.add_con("xy", LinExpr::from(x) * 2.0 + LinExpr::from(y) * 2.0, ConOp::Le, 3.0);
        let pre = presolve(&m);
        let con = &pre.model.constraints()[0];
        // After tightening both coefficients the row admits exactly one of
        // x, y — the relaxation can no longer sit at (0.75, 0.75).
        assert!(!pre.model.is_feasible(&[1.0, 1.0], 1e-9));
        assert!(pre.model.is_feasible(&[1.0, 0.0], 1e-9));
        assert!(pre.model.is_feasible(&[0.0, 1.0], 1e-9));
        let lp_cheat = con.expr.coeff(x) * 0.75 + con.expr.coeff(y) * 0.75;
        assert!(lp_cheat > con.rhs + 1e-9, "LP point (0.75, 0.75) must be cut off");
    }

    #[test]
    fn a_satisfied_model_is_untouched() {
        // Wide bounds, slack rows: nothing to do.
        let mut m = Model::new("idle", Sense::Minimize);
        let x = m.cont_var("x", 0.0, 1.0);
        let y = m.cont_var("y", 0.0, 1.0);
        m.add_con("c", LinExpr::from(x) + y, ConOp::Le, 10.0);
        let pre = presolve(&m);
        assert_eq!(pre.stats.bounds_tightened, 0);
        assert_eq!(pre.stats.coeffs_tightened, 0);
        assert_eq!(pre.model, m);
    }

    #[test]
    fn infinite_bounds_do_not_poison_propagation() {
        let mut m = Model::new("inf-bounds", Sense::Minimize);
        let x = m.cont_var("x", 0.0, f64::INFINITY);
        let y = m.cont_var("y", 0.0, 5.0);
        m.add_con("c", LinExpr::from(x) + y, ConOp::Le, 8.0);
        let pre = presolve(&m);
        assert!(!pre.stats.infeasible);
        // x's upper bound is implied by the row: x <= 8.
        assert_eq!(pre.model.var(x).ub, 8.0);
        // y cannot be tightened (8 - 0 > 5).
        assert_eq!(pre.model.var(y).ub, 5.0);
    }
}
