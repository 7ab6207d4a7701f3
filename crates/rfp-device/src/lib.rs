//! # rfp-device — FPGA device model substrate
//!
//! This crate models everything the relocation-aware floorplanner needs to
//! know about a partially-reconfigurable FPGA:
//!
//! * **Resources and tiles** ([`resources`], [`tile`]): a *tile* is the
//!   minimal area considered for reconfiguration (Section II of the paper).
//!   Two tiles are of the same [`TileType`] if they carry the same number and
//!   types of resources *and* the same configuration data layout
//!   (Definition .1).
//! * **The tile grid** ([`grid`]): a rectangular array of tiles with optional
//!   hard blocks (embedded processors, PCIe blocks, …).
//! * **Forbidden areas** ([`forbidden`]): rectangular areas that cannot be
//!   crossed by reconfigurable regions nor by free-compatible areas
//!   (Section III-A).
//! * **The fabric partition** ([`fabric`]): the per-tile effective type
//!   grid with forbidden areas and die boundaries. It answers every tile
//!   query: rect accounting, usable totals, compatibility and (in
//!   `rfp-floorplan`) candidate enumeration. Each tile type configures a
//!   fixed number of configuration frames (36 for CLB, 30 for BRAM, 28 for
//!   DSP on the Virtex-5 of the case study); wasted frames are the
//!   evaluation metric of Table II.
//! * **Columnar partitioning** ([`partition`]): the revised partitioning
//!   procedure of Section III-B, producing full-height *columnar portions*
//!   ordered left to right (Properties .3 and .4) plus the forbidden-area
//!   descriptors: the portion view the paper's MILP model reads.
//! * **Area compatibility** ([`compat`]): Definition .1/.2 — two areas are
//!   compatible if they have the same shape, size and relative positioning of
//!   tiles of the same type; an area is *free-compatible* if additionally it
//!   does not overlap other regions or reserved areas.
//! * **Device library** ([`devices`]): ready-made device descriptions,
//!   including the Virtex-5 FX70T model used by the paper's evaluation, the
//!   toy devices of Figures 1-3, and synthetic generators for scaling
//!   studies.
//!
//! The crate is dependency-light and purely descriptive: all placement logic
//! lives in `rfp-floorplan`.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod compat;
pub mod devices;
pub mod error;
pub mod fabric;
pub mod forbidden;
pub mod geometry;
pub mod grid;
pub mod partition;
pub mod resources;
pub mod tile;

pub use compat::{
    areas_compatible, enumerate_free_compatible, fabric_compatible, free_compatible, CompatReport,
};
pub use devices::{
    figure1_device, figure2_device, xc5vfx70t, xc7vx485t, xc7z020, DeviceBuilder, SyntheticSpec,
};
pub use error::DeviceError;
pub use fabric::{fabric_partition, fabric_partition_with_boundaries, FabricPartition};
pub use forbidden::ForbiddenArea;
pub use geometry::Rect;
pub use grid::{Device, TileGrid};
pub use partition::{columnar_partition, ColumnarPartition, Portion, PortionId};
pub use resources::{ResourceKind, ResourceVec, RESOURCE_KINDS};
pub use tile::{TileType, TileTypeId, TileTypeRegistry};
