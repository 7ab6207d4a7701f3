//! # rfp-floorplan — relocation-aware floorplanning for partially-reconfigurable FPGAs
//!
//! This crate implements the paper's contribution: a floorplanner for
//! partially-reconfigurable FPGAs that lets the designer reserve
//! **free-compatible areas** — areas into which the partial bitstream of a
//! reconfigurable region can later be relocated — either as hard constraints
//! (Section IV) or as a soft metric in the objective function (Section V).
//!
//! ## Layout of the crate
//!
//! * [`problem`] — the input description: regions with heterogeneous tile
//!   requirements, inter-region connections, relocation requests, objective
//!   weights.
//! * [`placement`] — floorplan data types, metrics (wasted frames, wire
//!   length, perimeter, identified free-compatible areas) and a full
//!   validator that re-checks every constraint of the formulation.
//! * [`candidates`] — enumeration of the irredundant candidate rectangles of
//!   a region on a columnar-partitioned device.
//! * [`fingerprint`] — stable FNV-1a digests of device structure, demand and
//!   configuration ([`fingerprint::ProblemFingerprint`]); the key of the
//!   solve service's cross-request outcome cache.
//! * [`model`] — the MILP formulation: the base floorplanning model of [10]
//!   restricted to columnar devices, the forbidden-area constraints
//!   (Eqs. 1-2), the portion-offset variables (Eqs. 4-5), relocation as a
//!   constraint (Eqs. 6-10) and as a metric (Eqs. 11-15), and the composite
//!   objective (Eq. 14).
//! * [`sequence_pair`] — sequence-pair extraction used by the HO algorithm.
//! * [`heuristic`] — one greedy first-fit pass that seeds HO and warm-starts
//!   the MILP.
//! * [`combinatorial`] — an exact branch-and-bound search over candidate
//!   rectangles, specialised to the columnar structure; this engine solves
//!   the full-die SDR instances that are out of reach for the from-scratch
//!   MILP solver.
//! * [`engine`] — the engine-agnostic solve API: the
//!   [`engine::FloorplanEngine`] trait, cancellable
//!   [`engine::SolveRequest`]/[`engine::SolveOutcome`], and the string-keyed
//!   [`engine::EngineRegistry`] (`"milp"`, `"ho"`, `"combinatorial"`; the
//!   baselines register `"annealing"` and `"tessellation"`).
//! * [`portfolio`] — races engines on threads and cancels the losers once
//!   one engine proves optimality.
//! * [`jsonio`] — versioned, hand-rolled JSON reader/writer for problems and
//!   floorplans; the interchange format of the `rfp` CLI and the golden-file
//!   tests.
//! * [`binio`] — the length-prefixed little-endian binary twin of `jsonio`
//!   (`rfpb` documents); the fast trace format of the sweep harness.
//! * [`feasibility`] — the per-region free-compatible-area feasibility
//!   analysis of Section VI.
//! * [`render`] — ASCII rendering of floorplans (used to regenerate
//!   Figures 4 and 5).
//! * [`export`] — Vivado-style XDC/Pblock export of a floorplan, so the
//!   result can be handed to the vendor implementation flow.
//!
//! ## Quick start
//!
//! ```
//! use rfp_device::{xc5vfx70t, columnar_partition};
//! use rfp_floorplan::engine::CombinatorialEngine;
//! use rfp_floorplan::prelude::*;
//!
//! let device = xc5vfx70t();
//! let partition = columnar_partition(&device).unwrap();
//! let clb = device.registry.by_name("CLB").unwrap();
//! let dsp = device.registry.by_name("DSP").unwrap();
//!
//! let mut problem = FloorplanProblem::new(partition);
//! let filter = problem.add_region(RegionSpec::new("filter", vec![(clb, 6), (dsp, 1)]));
//! let decoder = problem.add_region(RegionSpec::new("decoder", vec![(clb, 10)]));
//! problem.connect(filter, decoder, 64.0);
//! problem.request_relocation(RelocationRequest::constraint(filter, 1));
//!
//! let request = SolveRequest::new(problem.clone()).with_time_limit(60.0);
//! let outcome = CombinatorialEngine::default().solve(&request, &SolveControl::default());
//! let floorplan = outcome.floorplan.expect("the instance is feasible");
//! assert!(floorplan.validate(&problem).is_empty());
//! assert_eq!(floorplan.metrics(&problem).fc_found, 1);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod binio;
pub mod candidates;
pub mod combinatorial;
pub mod engine;
pub mod error;
pub mod export;
pub mod feasibility;
pub mod fingerprint;
pub mod heuristic;
pub mod jsonio;
pub mod model;
pub mod placement;
pub mod portfolio;
pub mod problem;
pub mod render;
pub mod sequence_pair;

/// Convenient glob import of the public API.
pub mod prelude {
    pub use crate::engine::{
        adapt_floorplan, CancelToken, EngineRegistry, EngineStats, FloorplanEngine, OutcomeStatus,
        SharedIncumbent, SolveControl, SolveDispatcher, SolveOutcome, SolveRequest,
    };
    pub use crate::error::FloorplanError;
    pub use crate::feasibility::{feasibility_analysis, RegionFeasibility};
    pub use crate::fingerprint::ProblemFingerprint;
    pub use crate::placement::{FcPlacement, Floorplan, Metrics};
    pub use crate::portfolio::{Portfolio, RaceOutcome};
    pub use crate::problem::{
        Connection, FloorplanProblem, ObjectiveWeights, RegionId, RegionSpec, RelocationMode,
        RelocationRequest,
    };
}

pub use engine::{
    adapt_floorplan, CancelToken, EngineRegistry, EngineStats, FloorplanEngine, OutcomeStatus,
    SharedIncumbent, SolveControl, SolveDispatcher, SolveOutcome, SolveRequest,
};
pub use error::FloorplanError;
pub use fingerprint::ProblemFingerprint;
pub use placement::{FcPlacement, Floorplan, Metrics};
pub use portfolio::{Portfolio, RaceOutcome};
pub use problem::{
    Connection, FloorplanProblem, ObjectiveWeights, RegionId, RegionSpec, RelocationMode,
    RelocationRequest,
};
