//! # rfp-milp — a from-scratch Mixed-Integer Linear Programming solver
//!
//! The floorplanner of the paper is built on a MILP formulation solved by a
//! commercial branch-and-cut engine. This crate provides the substrate the
//! reproduction needs, implemented entirely in safe Rust with no external
//! solver bindings:
//!
//! * a [`model::Model`] builder with continuous, integer and binary variables,
//!   linear constraints, a linear objective ([`expr::LinExpr`]) and
//!   structural hints (mutual-exclusion groups) for the cut separator;
//! * a sparse **revised simplex** for the LP relaxations ([`simplex`]): CSC
//!   constraint storage ([`sparse`]), an LU basis factorization with eta
//!   updates ([`basis`]), a composite-phase-1 primal and a **dual simplex**
//!   entry point for warm re-solves after bound changes;
//! * a **branch-and-bound** MILP search ([`branch_bound`]) with best-bound
//!   node selection, warm-started node re-solves from the parent basis,
//!   **pseudo-cost branching** (most-fractional fallback while cold), root
//!   **cover/clique cutting planes** ([`cuts`]), LP-guided diving and a
//!   rounding heuristic;
//! * solution reporting and feasibility checking ([`solution`]), with shared
//!   numerical tolerances in [`tol`].
//!
//! The solver is deterministic: identical models produce identical search
//! trees and solutions, which the benchmark harness relies on.
//!
//! ## Scale
//!
//! The revised simplex re-solves a branch-and-bound child from its parent's
//! basis after a single bound change, so per-node cost is a handful of
//! pivots at O(nnz) each instead of a dense from-scratch tableau solve. The
//! retired dense implementation survives only as the LP test oracle of the
//! crate's property tests (`tests/dense/mod.rs`). The full-die SDR2/SDR3
//! instances of the paper are solved by the specialised combinatorial
//! engine in `rfp-floorplan`.
//!
//! ## Example
//!
//! ```
//! use rfp_milp::prelude::*;
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4, x - y >= -2, x,y integer in [0,10]
//! let mut m = Model::new("demo", Sense::Maximize);
//! let x = m.int_var("x", 0.0, 10.0);
//! let y = m.int_var("y", 0.0, 10.0);
//! m.add_con("cap", LinExpr::from(x) + y, ConOp::Le, 4.0);
//! m.add_con("diff", LinExpr::from(x) - y, ConOp::Ge, -2.0);
//! m.set_objective(LinExpr::from(x) * 3.0 + LinExpr::from(y) * 2.0);
//! let sol = Solver::default().solve(&m);
//! assert_eq!(sol.status, SolveStatus::Optimal);
//! assert!((sol.objective - 12.0).abs() < 1e-6); // x=4, y=0
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod basis;
pub mod branch_bound;
pub mod cancel;
pub mod cuts;
pub mod expr;
pub mod model;
pub(crate) mod parallel;
pub mod presolve;
pub mod simplex;
pub mod solution;
pub mod sparse;
pub mod tol;

/// Convenient glob import for users of the solver.
pub mod prelude {
    pub use crate::branch_bound::{ExternalIncumbents, Solver, SolverConfig};
    pub use crate::cancel::CancelToken;
    pub use crate::expr::LinExpr;
    pub use crate::model::{ConOp, Model, Sense, VarId, VarKind};
    pub use crate::solution::{Solution, SolveStatus};
}

pub use branch_bound::{ExternalIncumbents, Solver, SolverConfig};
pub use cancel::CancelToken;
pub use expr::LinExpr;
pub use model::{ConOp, Model, Sense, VarId, VarKind};
pub use solution::{Solution, SolveStatus};
