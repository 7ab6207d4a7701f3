//! # rfp-bitstream — synthetic partial bitstreams and the relocation filter
//!
//! Bitstream relocation is "the capability of moving a task from an area of
//! the FPGA to another one simply by moving the configuration data from the
//! initial location to the corresponding target location"; in practice the
//! frame addresses in the partial bitstream are rewritten and the CRC is
//! recomputed before the bitstream is sent to the configuration interface
//! (Section I of the paper, and the REPLICA/BiRF filters of \[2\]-\[5\]).
//!
//! The real Xilinx bitstream format is proprietary; this crate provides a
//! faithful *synthetic* substitute that exercises exactly the code path the
//! floorplanner enables:
//!
//! * [`mod@format`] — a partial-bitstream container with per-frame addresses
//!   (column / row / minor index), a payload of configuration words per frame
//!   and a CRC-32 trailer;
//! * [`crc`] — a from-scratch CRC-32 (IEEE polynomial) implementation;
//! * [`mod@relocate`] — the software relocation filter: it refuses to relocate
//!   into an area that is not *compatible* (Definition .1) with the source,
//!   rewrites the frame addresses by the column/row offset and recomputes the
//!   CRC;
//! * [`memory`] — a simulated configuration memory that accepts partial
//!   bitstreams, verifies their CRC and detects conflicting writes, used by
//!   the end-to-end examples.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod crc;
pub mod format;
pub mod memory;
pub mod relocate;

pub use crc::crc32;
pub use format::{Bitstream, BitstreamError, FrameAddress, FRAME_WORDS};
pub use memory::ConfigMemory;
pub use relocate::{relocate, relocate_or_regenerate, MoveKind, RelocationError};
