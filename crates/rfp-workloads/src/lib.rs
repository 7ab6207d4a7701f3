//! # rfp-workloads — case studies and workload generators
//!
//! * [`sdr`] — the software-defined-radio design of the paper's evaluation
//!   (Section VI, Table I): five reconfigurable regions connected in a chain
//!   by a 64-bit bus, plus the SDR2/SDR3 relocation variants.
//! * [`generator`] — reproducible synthetic workloads and devices for the
//!   scaling and ablation benchmarks.
//! * [`defrag`] — Fekete-style online defragmentation traces for the
//!   `rfp-runtime` simulator, plus the deterministic CI-smoke scenario.
//! * [`hetero`] — heterogeneous fabric device families (striped special
//!   columns, hard blocks, die boundaries) and the golden instances of the
//!   CI `hetero-smoke` job.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod defrag;
pub mod generator;
pub mod hetero;
pub mod sdr;

pub use defrag::{smoke_scenario, smoke_scenario_json, DefragWorkloadSpec};
pub use generator::{SyntheticWorkload, WorkloadSpec};
pub use hetero::{
    hetero_constraint_problem, hetero_golden_problem, hetero_problem_json, hetero_scenario_json,
    hetero_smoke_scenario, HeteroDeviceSpec,
};
pub use sdr::{
    sdr2_problem, sdr3_problem, sdr_problem, sdr_problem_json, sdr_region_table, SdrRegionRow,
};
