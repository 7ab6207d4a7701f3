//! The synthetic partial-bitstream format.
//!
//! A partial bitstream configures a rectangular area of the device. For every
//! tile of the area (one column of one row), the configuration data consists
//! of `frames_per_tile(tile type)` frames of [`FRAME_WORDS`] 32-bit words.
//! Each frame carries an explicit [`FrameAddress`] — device column, tile row
//! and minor frame index — which is what the relocation filter rewrites. The
//! container ends with a CRC-32 over the addresses and payloads.

use crate::crc::crc32_update_words;
use rfp_device::{FabricPartition, Rect};
use std::fmt;

/// Number of 32-bit words per configuration frame (a Virtex-5 frame holds 41
/// words; the synthetic format keeps that flavour).
pub const FRAME_WORDS: usize = 41;

/// Words [`Bitstream::compute_crc`] buffers per call to the CRC kernel
/// (8 KiB on the stack).
const CRC_BUFFER_WORDS: usize = 2048;

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
    /// little-endian. The words reach the word CRC kernel through one
    /// stack buffer, refilled across frame boundaries, so a long bitstream
    /// is hashed in long runs (four CRC registers at once) whatever its
    /// frames' lengths, and nothing is allocated.
    pub fn compute_crc(&self) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        let mut buf = [0u32; CRC_BUFFER_WORDS];
        let mut len = 0;
        let mut feed = |mut words: &[u32]| {
            while !words.is_empty() {
                if len == buf.len() {
                    state = crc32_update_words(state, &buf);
                    len = 0;
                }
                let n = words.len().min(buf.len() - len);
                buf[len..len + n].copy_from_slice(&words[..n]);
                len += n;
                words = &words[n..];
            }
        };
        for frame in &self.frames {
            let a = &frame.address;
            feed(&[a.column, a.row, a.minor]);
            feed(&frame.words);
        }
        crc32_update_words(state, &buf[..len]) ^ 0xFFFF_FFFF
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

    /// Serialises the bitstream to a flat byte buffer, every word
    /// little-endian: the area's x, y, w and h and the frame count, then each
    /// frame's address (column, row, minor) and words, then the CRC.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.frames.len() * (12 + FRAME_WORDS * 4));
        let mut put = |word: u32| out.extend_from_slice(&word.to_le_bytes());
        let area = &self.area;
        for word in [area.x, area.y, area.w, area.h, self.frames.len() as u32] {
            put(word);
        }
        for frame in &self.frames {
            let a = &frame.address;
            for &word in [a.column, a.row, a.minor].iter().chain(&frame.words) {
                put(word);
            }
        }
        put(self.crc);
        out
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

    /// `compute_crc` is the byte CRC of the serialised addresses and
    /// payloads, for bitstreams of no, one and many frames and for frames
    /// of every length near a block and the buffer boundaries.
    #[test]
    fn frames_of_any_length_hash_their_address_then_their_words() {
        let p = partition();
        let base = Bitstream::generate(&p, "m", Rect::new(1, 1, 2, 2), 2).unwrap();
        let byte_crc = |bs: &Bitstream| {
            let mut bytes = Vec::new();
            for f in &bs.frames {
                for v in [f.address.column, f.address.row, f.address.minor].iter().chain(&f.words) {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
            }
            crate::crc32(&bytes)
        };
        let lengths = [0, 1, 40, 41, 42, CRC_BUFFER_WORDS - 3, CRC_BUFFER_WORDS + 5];
        for n_frames in [0, 1, 2, base.n_frames()] {
            for (i, &len) in lengths.iter().enumerate() {
                let mut bs = base.clone();
                bs.frames.truncate(n_frames);
                for (k, f) in bs.frames.iter_mut().enumerate() {
                    let len = lengths[(i + k) % lengths.len()];
                    f.words =
                        (0..len as u32).map(|w| w.wrapping_mul(0x9E37_79B9) ^ k as u32).collect();
                }
                assert_eq!(
                    bs.compute_crc(),
                    byte_crc(&bs),
                    "{n_frames} frames, first of {len} words"
                );
            }
        }
        assert_eq!(base.compute_crc(), byte_crc(&base));
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
        // Distinct x, y, w and h, so a swapped header word shows.
        let bs = Bitstream::generate(&p, "m", Rect::new(3, 2, 1, 4), 0).unwrap();
        let bytes = bs.to_bytes();
        assert_eq!(bytes.len(), 20 + bs.n_frames() * (12 + FRAME_WORDS * 4) + 4);
        let word = |i: usize| u32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().unwrap());
        let header = [bs.area.x, bs.area.y, bs.area.w, bs.area.h, bs.n_frames() as u32];
        assert_eq!((0..5).map(word).collect::<Vec<_>>(), header);
        let a = bs.frames[0].address;
        assert_eq!([word(5), word(6), word(7)], [a.column, a.row, a.minor]);
        assert_eq!(bytes[bytes.len() - 4..], bs.crc.to_le_bytes());
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
