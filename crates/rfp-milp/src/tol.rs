//! Shared numerical tolerances.
//!
//! These constants are the only source of the solver's tolerances and
//! optimality gaps: neither [`crate::SolverConfig`] nor [`crate::simplex::LpConfig`]
//! carries a copy. LP pricing, ratio tests, incumbent acceptance, the gap
//! test and solution verification therefore cannot drift apart.

/// Reduced-cost / LP feasibility tolerance used by the simplex.
pub const LP_FEAS: f64 = 1e-7;

/// Minimum magnitude accepted for a simplex pivot element.
pub const PIVOT: f64 = 1e-9;

/// Integrality tolerance: a value within this distance of an integer is
/// treated as integral by branch-and-bound and by the model checker.
pub const INTEGRALITY: f64 = 1e-6;

/// Constraint/bound feasibility tolerance for checking candidate incumbents
/// and final solutions against the original model.
pub const FEASIBILITY: f64 = 1e-6;

/// Looser feasibility tolerance applied to externally supplied warm starts,
/// which are encoded from geometric data and accumulate more rounding noise
/// than LP-derived assignments.
pub const WARM_START: f64 = 1e-5;

/// Bound value used to clamp infinite lower bounds: the simplex requires
/// finite activation values for non-basic variables.
pub const INFINITE_BOUND: f64 = 1e12;

/// Absolute optimality gap at which branch-and-bound considers a node proven.
pub const GAP_ABS: f64 = 1e-6;

/// Relative optimality gap at which branch-and-bound stops.
pub const GAP_REL: f64 = 1e-6;
