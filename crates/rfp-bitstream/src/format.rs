//! The synthetic partial-bitstream format.
//!
//! A partial bitstream configures a rectangular area of the device. For every
//! tile of the area (one column of one row), the configuration data consists
//! of `frames_per_tile(tile type)` frames of [`FRAME_WORDS`] 32-bit words.
//! Each frame carries an explicit [`FrameAddress`] — device column, tile row
//! and minor frame index — which is what the relocation filter rewrites. The
//! container ends with a CRC-32 over the addresses and payloads.

use crate::crc::crc32_update;
use bytes::{BufMut, Bytes, BytesMut};
use rfp_device::{FabricPartition, Rect};
use std::fmt;

/// Number of 32-bit words per configuration frame (a Virtex-5 frame holds 41
/// words; the synthetic format keeps that flavour).
pub const FRAME_WORDS: usize = 41;

/// Address of one configuration frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameAddress {
    /// Device column of the tile (1-based).
    pub column: u32,
    /// Tile row (1-based).
    pub row: u32,
    /// Minor frame index within the tile (0-based).
    pub minor: u32,
}

impl fmt::Display for FrameAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}r{}m{}", self.column, self.row, self.minor)
    }
}

/// One configuration frame: its address and payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame address.
    pub address: FrameAddress,
    /// Payload words.
    pub words: Vec<u32>,
}

/// Errors reported by the bitstream container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitstreamError {
    /// The area lies outside the device or crosses a forbidden area.
    IllegalArea(Rect),
    /// The stored CRC does not match the recomputed one.
    CrcMismatch {
        /// CRC stored in the container.
        stored: u32,
        /// CRC recomputed over the content.
        computed: u32,
    },
}

impl fmt::Display for BitstreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitstreamError::IllegalArea(r) => {
                write!(f, "area {r} is outside the device or crosses a forbidden area")
            }
            BitstreamError::CrcMismatch { stored, computed } => {
                write!(f, "CRC mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
        }
    }
}

impl std::error::Error for BitstreamError {}

/// A partial bitstream for a rectangular area of a columnar device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitstream {
    /// Name of the device the bitstream was generated for.
    pub device: String,
    /// Name of the module the bitstream implements.
    pub module: String,
    /// The area configured by the bitstream.
    pub area: Rect,
    /// Configuration frames in address order.
    pub frames: Vec<Frame>,
    /// CRC-32 over addresses and payloads.
    pub crc: u32,
}

impl Bitstream {
    /// Generates a partial bitstream for `area` with a deterministic
    /// pseudo-random payload derived from `seed` (stands in for the synthesis
    /// result of the module).
    pub fn generate(
        partition: &FabricPartition,
        module: impl Into<String>,
        area: Rect,
        seed: u64,
    ) -> Result<Bitstream, BitstreamError> {
        if !partition.placement_legal(&area) {
            return Err(BitstreamError::IllegalArea(area));
        }
        let mut frames = Vec::new();
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next_word = || {
            // xorshift64* — deterministic filler payload.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32
        };
        for col in area.columns() {
            for row in area.rows() {
                let ty = partition.tile_type_at(col, row).expect("legal area");
                let minors = partition.frames_per_tile(ty);
                for minor in 0..minors {
                    let words = (0..FRAME_WORDS).map(|_| next_word()).collect();
                    frames.push(Frame { address: FrameAddress { column: col, row, minor }, words });
                }
            }
        }
        let mut bs = Bitstream {
            device: partition.device_name.clone(),
            module: module.into(),
            area,
            frames,
            crc: 0,
        };
        bs.crc = bs.compute_crc();
        Ok(bs)
    }

    /// Number of configuration frames.
    pub fn n_frames(&self) -> usize {
        self.frames.len()
    }

    /// Size of the configuration payload in bytes (addresses excluded), the
    /// quantity the paper's "wasted frames" metric is a proxy for.
    pub fn payload_bytes(&self) -> usize {
        self.frames.len() * FRAME_WORDS * 4
    }

    /// Recomputes the CRC-32 over addresses and payloads: per frame, the
    /// column, row and minor index, then the payload words, all
    /// little-endian. Each frame is hashed as one contiguous buffer.
    pub fn compute_crc(&self) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        let mut buf = Vec::with_capacity(12 + FRAME_WORDS * 4);
        for frame in &self.frames {
            buf.clear();
            buf.extend_from_slice(&frame.address.column.to_le_bytes());
            buf.extend_from_slice(&frame.address.row.to_le_bytes());
            buf.extend_from_slice(&frame.address.minor.to_le_bytes());
            for word in &frame.words {
                buf.extend_from_slice(&word.to_le_bytes());
            }
            state = crc32_update(state, &buf);
        }
        state ^ 0xFFFF_FFFF
    }

    /// Verifies the stored CRC.
    pub fn verify(&self) -> Result<(), BitstreamError> {
        let computed = self.compute_crc();
        if computed == self.crc {
            Ok(())
        } else {
            Err(BitstreamError::CrcMismatch { stored: self.crc, computed })
        }
    }

    /// Serialises the bitstream to a flat byte buffer (header, frames, CRC).
    pub fn to_bytes(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(32 + self.frames.len() * (12 + FRAME_WORDS * 4));
        out.put_u32_le(self.area.x);
        out.put_u32_le(self.area.y);
        out.put_u32_le(self.area.w);
        out.put_u32_le(self.area.h);
        out.put_u32_le(self.frames.len() as u32);
        for frame in &self.frames {
            out.put_u32_le(frame.address.column);
            out.put_u32_le(frame.address.row);
            out.put_u32_le(frame.address.minor);
            for word in &frame.words {
                out.put_u32_le(*word);
            }
        }
        out.put_u32_le(self.crc);
        out.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_device::{fabric_partition, xc5vfx70t};

    fn partition() -> FabricPartition {
        fabric_partition(&xc5vfx70t()).unwrap()
    }

    #[test]
    fn frame_count_matches_the_frame_accounting_of_the_device_model() {
        let p = partition();
        // Columns 1-3 are CLB CLB CLB (36 frames per tile); 2 rows.
        let area = Rect::new(1, 1, 3, 2);
        let bs = Bitstream::generate(&p, "m", area, 1).unwrap();
        assert_eq!(bs.n_frames() as u64, p.frames_in_rect(&area));
        assert_eq!(bs.payload_bytes(), bs.n_frames() * FRAME_WORDS * 4);
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let p = partition();
        let area = Rect::new(1, 1, 2, 1);
        let a = Bitstream::generate(&p, "m", area, 7).unwrap();
        let b = Bitstream::generate(&p, "m", area, 7).unwrap();
        let c = Bitstream::generate(&p, "m", area, 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a.frames[0].words, c.frames[0].words);
    }

    #[test]
    fn crc_round_trip_and_tamper_detection() {
        let p = partition();
        let mut bs = Bitstream::generate(&p, "m", Rect::new(1, 1, 2, 2), 3).unwrap();
        assert!(bs.verify().is_ok());
        bs.frames[0].words[0] ^= 1;
        assert!(matches!(bs.verify(), Err(BitstreamError::CrcMismatch { .. })));
    }

    #[test]
    fn frames_of_any_length_hash_their_address_then_their_words() {
        let p = partition();
        let mut bs = Bitstream::generate(&p, "m", Rect::new(1, 1, 1, 1), 2).unwrap();
        bs.frames[0].words.truncate(7);
        bs.frames[1].words.push(0xDEAD_BEEF);
        bs.frames[2].words.clear();
        let mut bytes = Vec::new();
        for f in &bs.frames {
            for v in [f.address.column, f.address.row, f.address.minor].iter().chain(&f.words) {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        assert_eq!(bs.compute_crc(), crate::crc32(&bytes));
    }

    #[test]
    fn illegal_areas_are_rejected() {
        let p = partition();
        // Crosses the PPC440 forbidden block.
        let err = Bitstream::generate(&p, "m", Rect::new(19, 4, 2, 2), 0);
        assert!(matches!(err, Err(BitstreamError::IllegalArea(_))));
        let oob = Bitstream::generate(&p, "m", Rect::new(42, 8, 2, 2), 0);
        assert!(matches!(oob, Err(BitstreamError::IllegalArea(_))));
    }

    #[test]
    fn serialisation_contains_every_frame() {
        let p = partition();
        let bs = Bitstream::generate(&p, "m", Rect::new(1, 1, 1, 1), 0).unwrap();
        let bytes = bs.to_bytes();
        assert_eq!(bytes.len(), 20 + bs.n_frames() * (12 + FRAME_WORDS * 4) + 4);
    }

    #[test]
    fn addresses_cover_exactly_the_area() {
        let p = partition();
        let area = Rect::new(2, 3, 2, 2);
        let bs = Bitstream::generate(&p, "m", area, 1).unwrap();
        assert!(bs.frames.iter().all(|f| area.contains(f.address.column, f.address.row)));
        // Every tile of the area appears.
        for (c, r) in area.cells() {
            assert!(bs.frames.iter().any(|f| f.address.column == c && f.address.row == r));
        }
    }
}
