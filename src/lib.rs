//! # relocfp — relocation-aware floorplanning for partially-reconfigurable FPGAs
//!
//! This is the facade crate of the workspace: it re-exports the public API of
//! every sub-crate so applications can depend on a single crate. The
//! workspace reproduces the system of
//!
//! > M. Rabozzi, R. Cattaneo, T. Becker, W. Luk, M. D. Santambrogio,
//! > *"Relocation-aware Floorplanning for Partially-Reconfigurable
//! > FPGA-based Systems"*, IPDPSW 2015.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`device`] | `rfp-device` | FPGA device model, columnar partitioning, area compatibility |
//! | [`milp`] | `rfp-milp` | from-scratch LP/MILP solver (simplex + branch and bound) |
//! | [`floorplan`] | `rfp-floorplan` | the relocation-aware floorplanner (O, HO, combinatorial) |
//! | [`baselines`] | `rfp-baselines` | tessellation (\[8\]-style) and simulated annealing (\[9\]-style) |
//! | [`bitstream`] | `rfp-bitstream` | synthetic partial bitstreams, CRC-32, relocation filter |
//! | [`runtime`] | `rfp-runtime` | online reconfiguration simulator: event streams, incremental placement, defragmentation |
//! | [`service`] | `rfp-service` | queue-worker solve service: job queue, worker pool, cross-request outcome cache, `rfp serve` protocol |
//! | [`trace`] | `rfp-trace` | zero-dep structured tracing and metrics: logical-clock span trees, counters, histograms, deterministic `rfp-trace` v1 JSON |
//! | [`workloads`] | `rfp-workloads` | the SDR case study (Table I), synthetic generators and defragmentation traces |
//! | [`sweep`] | `rfp-sweep` | Monte-Carlo fleet sweeps: parameter grids, worker-pool runner, deterministic percentile reports |
//!
//! ## Quick start
//!
//! Solving goes through the engine-agnostic API: look an engine up in the
//! [`floorplan::engine::EngineRegistry`] (or race several with
//! [`floorplan::portfolio::Portfolio`]) and hand it a cancellable
//! [`floorplan::engine::SolveRequest`]. The `rfp` CLI (`rfp solve`,
//! `validate`, `engines`, `convert`) drives the same path from versioned
//! JSON problem files ([`floorplan::jsonio`]).
//!
//! ```
//! use relocfp::prelude::*;
//!
//! // The SDR2 instance of the paper: two free-compatible areas for every
//! // relocatable region of the SDR design on a Virtex-5 FX70T.
//! let problem = relocfp::workloads::sdr2_problem();
//! let registry = relocfp::baselines::engines::full_registry();
//! let outcome = registry
//!     .get("combinatorial")
//!     .expect("registered engine")
//!     .solve(
//!         &SolveRequest::new(problem.clone()).with_time_limit(60.0),
//!         &SolveControl::default(),
//!     );
//! let floorplan = outcome.floorplan.expect("SDR2 is feasible");
//! assert!(floorplan.validate(&problem).is_empty());
//! assert_eq!(floorplan.fc_found(), 6);
//! ```

pub use rfp_baselines as baselines;
pub use rfp_bitstream as bitstream;
pub use rfp_device as device;
pub use rfp_floorplan as floorplan;
pub use rfp_milp as milp;
pub use rfp_runtime as runtime;
pub use rfp_service as service;
pub use rfp_sweep as sweep;
pub use rfp_trace as trace;
pub use rfp_workloads as workloads;

/// One-stop import of the most used types.
pub mod prelude {
    pub use rfp_bitstream::{relocate, Bitstream, ConfigMemory};
    pub use rfp_device::{
        areas_compatible, columnar_partition, enumerate_free_compatible, fabric_partition,
        fabric_partition_with_boundaries, xc5vfx70t, Device, DeviceBuilder, FabricPartition, Rect,
        ResourceVec,
    };
    pub use rfp_floorplan::prelude::*;
    pub use rfp_milp::prelude::*;
    pub use rfp_runtime::{
        simulate, DefragPolicy, OnlineConfig, OnlineFloorplanner, Scenario, SimReport,
    };
    pub use rfp_service::{JobSpec, ServiceConfig, SolveService};
    pub use rfp_sweep::{run_sweep, SweepGrid, SweepOptions, SweepReport};
}
