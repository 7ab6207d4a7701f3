//! # rfp-bench — the paper's evaluation
//!
//! One binary per table/figure of the paper's evaluation (Section VI). The
//! binaries print the regenerated artefact to stdout in a form directly
//! comparable with the paper:
//!
//! | target | artefact |
//! |--------|----------|
//! | `table1` | Table I — SDR resource requirements |
//! | `feasibility` | Section VI feasibility analysis (relocatable regions) |
//! | `table2` | Table II — floorplan comparison ([8], [10], PA on SDR/SDR2/SDR3) |
//! | `figure1` | Figure 1 — compatible vs non-compatible areas |
//! | `figure2` | Figure 2 — columnar partitioning example |
//! | `figure3` | Figure 3 — offset-variable semantics |
//! | `figure4` | Figure 4 — SDR2 floorplan (6 free-compatible areas) |
//! | `figure5` | Figure 5 — SDR3 floorplan (9 free-compatible areas) |
//!
//! The [`reports`] module contains the reusable report builders so that the
//! binaries stay thin and the logic is unit-tested. The online
//! defragmentation policies are compared by `rfp simulate --policy
//! {aware,oblivious,no_break}` and pinned in `tests/runtime_sim.rs`.
//!
//! Timings are not measured here: solve, simulate and serve throughput with
//! per-layer breakdowns come from the `perfbench` package at the repository
//! root.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod reports;

pub use reports::{
    feasibility_report, markdown_table, table1_markdown, table2, table2_markdown, Table2Row,
};
