//! # rfp-runtime — online reconfiguration simulation
//!
//! The paper's relocation-aware cost function only pays off at *runtime*,
//! when modules are loaded, evicted and moved while the device keeps
//! running. This crate provides the event-driven simulator that exercises
//! exactly that scenario class (Fekete et al.'s defragmentation traces):
//!
//! * [`scenario`] — timestamped `Arrive`/`Depart`/`Checkpoint` event
//!   streams plus the `rfp-scenario` v1 JSON format (same `jsonio` family as
//!   `rfp-problem`) and its `rfpb` binary twin
//!   ([`scenario::write_scenario_bin`] / [`scenario::read_scenario_bin`]).
//! * [`frag`] — free-space accounting and the largest-free-rectangle
//!   fragmentation metric.
//! * [`defrag`] — the [`defrag::DefragPlanner`]: relocation-aware
//!   (cheapest-first, compatible targets only) vs relocation-oblivious
//!   (full left-compaction) vs no-break (double-bufferable targets only)
//!   move planning.
//! * [`scheduler`] — the [`scheduler::MoveScheduler`]: Fekete-style
//!   *no-break* move execution as a double-buffered copy-then-switch (zero
//!   stopped-module downtime), with stop-and-move as the measured-downtime
//!   fallback.
//! * [`online`] — the [`online::OnlineFloorplanner`]: incremental placement,
//!   policy-driven defragmentation and engine re-solves warm-started from
//!   the previous outcome, with same-timestamp events handled as one batch,
//!   all replayed through the real [`rfp_bitstream::ConfigMemory`] so
//!   constraint violations are physical configuration conflicts, not
//!   bookkeeping.
//! * [`report`] — per-event latency, rejected modules, relocated frames,
//!   stopped-module downtime and the fragmentation curve, as a
//!   [`report::SimReport`] with deterministic JSON output (v2) and a
//!   back-compatible reader ([`report::read_sim_report`]).
//!
//! The `rfp simulate` CLI subcommand drives this crate end to end; its
//! `--policy` flag selects the defragmentation policy.
//!
//! ## Example
//!
//! ```
//! use rfp_device::{columnar_partition, DeviceBuilder, ResourceVec};
//! use rfp_floorplan::RegionSpec;
//! use rfp_runtime::{simulate, OnlineConfig, Scenario};
//!
//! let mut b = DeviceBuilder::new("demo");
//! let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
//! b.rows(2).repeat_column(clb, 8);
//! let partition = columnar_partition(&b.build().unwrap()).unwrap();
//!
//! let mut scenario = Scenario::new("demo", partition);
//! let a = scenario.add_module(RegionSpec::new("A", vec![(clb, 6)]));
//! let b2 = scenario.add_module(RegionSpec::new("B", vec![(clb, 4)]));
//! scenario.arrive(0, a);
//! scenario.arrive(1, b2);
//! scenario.depart(5, a);
//! scenario.checkpoint(6);
//!
//! let report = simulate(&scenario, &OnlineConfig::default()).unwrap();
//! assert_eq!(report.violations(), 0);
//! assert_eq!(report.rejected(), 0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod defrag;
pub mod frag;
pub mod online;
pub mod report;
pub mod scenario;
pub mod scheduler;

pub use defrag::{CompactionGoal, DefragPlanner, DefragPolicy, LiveModule, PlannedMove};
pub use frag::{frag_metrics, FragMetrics};
pub use online::{simulate, simulate_with_dispatcher, OnlineConfig, OnlineFloorplanner, SimError};
pub use report::{read_sim_report, EventRecord, SimReport};
pub use scenario::{
    read_scenario, read_scenario_bin, read_scenario_value, write_scenario, write_scenario_bin,
    Event, EventKind, ModuleId, Scenario, SCENARIO_FORMAT,
};
pub use scheduler::{ExecutedMove, MoveScheduler};
