//! # rfp-baselines — baseline floorplanners
//!
//! The paper's Table II compares the relocation-aware floorplanner (PA)
//! against two prior floorplanners:
//!
//! * **\[8\] Vipin & Fahmy** — an architecture-aware, reconfiguration-centric
//!   heuristic whose Columnar Kernel Tessellation mainly minimises the amount
//!   of wasted resources (and therefore bitstream size). It is reproduced
//!   here by [`tessellation`]: regions are grown column-portion by
//!   column-portion (never splitting a portion horizontally), which is
//!   reconfiguration-friendly but wastes the resources of partially-used
//!   portions.
//! * **\[9\] Bolchini et al.** — a simulated-annealing floorplanner that mainly
//!   optimises wire length; reproduced by [`annealing`].
//!
//! Each baseline has one entry point,
//! [`AnnealingFloorplanner::solve_with_control`] and
//! [`tessellation_floorplan`], and one engine ([`engines`]) that wraps it.
//!
//! The `[10]` baseline (MILP without relocation) needs no dedicated code: the
//! paper notes that PA is equivalent to \[10\] when no relocation requirement
//! is given, so the Table II row for \[10\] is produced by running the PA
//! engine on the plain SDR instance.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod annealing;
pub mod engines;
pub mod tessellation;

pub use annealing::{AnnealingConfig, AnnealingFloorplanner, AnnealingRun};
pub use engines::{full_registry, register_baselines, AnnealingEngine, TessellationEngine};
pub use tessellation::tessellation_floorplan;
