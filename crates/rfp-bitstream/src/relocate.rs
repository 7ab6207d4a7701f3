//! The software relocation filter.
//!
//! In the spirit of REPLICA [2][3] and BiRF [4][5]: relocation only rewrites
//! the frame addresses of the partial bitstream (by the column/row offset
//! between the source and the target area) and recomputes the CRC. The filter
//! refuses to relocate into a target area that is not **compatible** with the
//! source area (Definition .1): same shape, size and relative positioning of
//! tiles of the same type. Whether the target is *free* (Definition .2) is a
//! run-time property checked by the configuration-memory model, not by the
//! filter.

use crate::format::{Bitstream, Frame};
use rfp_device::compat::{fabric_compatible, CompatReport};
use rfp_device::{FabricPartition, Rect};
use std::fmt;

/// Errors reported by the relocation filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelocationError {
    /// The target area is not compatible with the bitstream's source area.
    NotCompatible {
        /// The detailed compatibility report.
        report: CompatReport,
    },
    /// The bitstream failed its CRC check before relocation.
    CorruptSource {
        /// CRC stored in the container.
        stored: u32,
        /// CRC recomputed over the content.
        computed: u32,
    },
}

impl fmt::Display for RelocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelocationError::NotCompatible { report } => {
                write!(f, "target area is not compatible with the source area: {report}")
            }
            RelocationError::CorruptSource { stored, computed } => write!(
                f,
                "source bitstream is corrupt (stored CRC {stored:#010x}, computed {computed:#010x})"
            ),
        }
    }
}

impl std::error::Error for RelocationError {}

/// Relocates a partial bitstream to a compatible target area.
///
/// Returns a new bitstream whose frame addresses point at `target` and whose
/// CRC has been recomputed; the configuration payload is untouched, which is
/// exactly what makes relocation cheap compared to re-implementing the module
/// for the new location.
///
/// The compatibility gate is [`fabric_compatible`], so a move is a relocation
/// only when the areas match tile-for-tile *and* neither spans a die
/// boundary — cross-die moves are refused with
/// [`CompatReport::CrossesDieBoundary`] and must regenerate.
pub fn relocate(
    partition: &FabricPartition,
    bitstream: &Bitstream,
    target: Rect,
) -> Result<Bitstream, RelocationError> {
    if let Err(crate::format::BitstreamError::CrcMismatch { stored, computed }) = bitstream.verify()
    {
        return Err(RelocationError::CorruptSource { stored, computed });
    }
    let report = fabric_compatible(partition, &bitstream.area, &target);
    if !report.is_compatible() {
        return Err(RelocationError::NotCompatible { report });
    }
    let dx = target.x as i64 - bitstream.area.x as i64;
    let dy = target.y as i64 - bitstream.area.y as i64;
    let frames: Vec<Frame> = bitstream
        .frames
        .iter()
        .map(|f| {
            let mut address = f.address;
            address.column = (address.column as i64 + dx) as u32;
            address.row = (address.row as i64 + dy) as u32;
            Frame { address, words: f.words.clone() }
        })
        .collect();
    let mut out = Bitstream {
        device: bitstream.device.clone(),
        module: bitstream.module.clone(),
        area: target,
        frames,
        crc: 0,
    };
    out.crc = out.compute_crc();
    Ok(out)
}

/// How a module was moved to its new area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// The partial bitstream was relocated by rewriting frame addresses —
    /// the cheap path (a pure copy through the relocation filter).
    Relocated,
    /// The target was not compatible; the bitstream had to be regenerated —
    /// the stand-in for a re-implementation of the module for the new
    /// location, which is orders of magnitude more expensive in practice.
    Resynthesized,
}

impl fmt::Display for MoveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MoveKind::Relocated => f.write_str("relocated"),
            MoveKind::Resynthesized => f.write_str("resynthesized"),
        }
    }
}

/// Moves a bitstream to `target`, relocating when the target is compatible
/// and regenerating (re-synthesis-equivalent) when it is not.
///
/// `seed` deterministically parameterises the regenerated payload on the
/// expensive path. Corrupt sources and illegal target areas remain errors —
/// the move either succeeds by one of the two mechanisms or not at all.
pub fn relocate_or_regenerate(
    partition: &FabricPartition,
    bitstream: &Bitstream,
    target: Rect,
    seed: u64,
) -> Result<(Bitstream, MoveKind), RelocationError> {
    match relocate(partition, bitstream, target) {
        Ok(moved) => Ok((moved, MoveKind::Relocated)),
        Err(RelocationError::NotCompatible { report }) => {
            match Bitstream::generate(partition, bitstream.module.clone(), target, seed) {
                Ok(bs) => Ok((bs, MoveKind::Resynthesized)),
                // An illegal target cannot be configured by either mechanism.
                Err(_) => Err(RelocationError::NotCompatible { report }),
            }
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_device::compat::enumerate_free_compatible;
    use rfp_device::{
        fabric_partition, fabric_partition_with_boundaries, figure1_device, xc5vfx70t,
    };

    #[test]
    fn relocation_to_a_compatible_area_preserves_payload_and_fixes_addresses() {
        let p = fabric_partition(&figure1_device()).unwrap();
        let source = Rect::new(1, 1, 2, 2);
        let target = Rect::new(3, 4, 2, 2);
        let bs = Bitstream::generate(&p, "demo", source, 11).unwrap();
        let moved = relocate(&p, &bs, target).unwrap();
        assert_eq!(moved.area, target);
        assert!(moved.verify().is_ok());
        assert_ne!(moved.crc, bs.crc, "addresses changed, so the CRC must change");
        // Payload is untouched, addresses are shifted by (+2, +3).
        for (a, b) in bs.frames.iter().zip(moved.frames.iter()) {
            assert_eq!(a.words, b.words);
            assert_eq!(b.address.column, a.address.column + 2);
            assert_eq!(b.address.row, a.address.row + 3);
            assert_eq!(b.address.minor, a.address.minor);
        }
    }

    #[test]
    fn relocation_to_an_incompatible_area_is_refused() {
        let p = fabric_partition(&figure1_device()).unwrap();
        let source = Rect::new(1, 1, 2, 2);
        let bs = Bitstream::generate(&p, "demo", source, 11).unwrap();
        // Area C of Figure 1: same shape but shifted by one column, so the
        // column types do not line up.
        let err = relocate(&p, &bs, Rect::new(2, 1, 2, 2));
        assert!(matches!(err, Err(RelocationError::NotCompatible { .. })));
        // A different shape is refused too.
        let err2 = relocate(&p, &bs, Rect::new(3, 4, 3, 2));
        assert!(matches!(err2, Err(RelocationError::NotCompatible { .. })));
    }

    #[test]
    fn cross_die_relocation_is_refused_and_regenerates() {
        // Same striped device, but with a die boundary between rows 3 and 4:
        // the A -> B move of Figure 1 now crosses dies and must downgrade
        // from a relocation to a re-synthesis-equivalent regeneration.
        let p = fabric_partition_with_boundaries(&figure1_device(), &[3]).unwrap();
        let source = Rect::new(1, 1, 2, 2);
        let target = Rect::new(1, 3, 2, 2); // spans rows 3-4 across the boundary
        let bs = Bitstream::generate(&p, "demo", source, 11).unwrap();
        let err = relocate(&p, &bs, target).unwrap_err();
        assert!(
            matches!(
                &err,
                RelocationError::NotCompatible { report: CompatReport::CrossesDieBoundary }
            ),
            "{err}"
        );
        let (rebuilt, kind) = relocate_or_regenerate(&p, &bs, target, 3).unwrap();
        assert_eq!(kind, MoveKind::Resynthesized);
        assert_eq!(rebuilt.area, target);
        assert!(rebuilt.verify().is_ok());
    }

    #[test]
    fn corrupt_bitstreams_are_refused() {
        let p = fabric_partition(&figure1_device()).unwrap();
        let mut bs = Bitstream::generate(&p, "demo", Rect::new(1, 1, 2, 2), 11).unwrap();
        bs.frames[0].words[3] ^= 0xFF;
        let err = relocate(&p, &bs, Rect::new(3, 4, 2, 2));
        assert!(matches!(err, Err(RelocationError::CorruptSource { .. })));
    }

    #[test]
    fn every_free_compatible_area_reported_by_the_device_model_accepts_relocation() {
        let p = fabric_partition(&xc5vfx70t()).unwrap();
        let source = Rect::new(1, 1, 3, 2);
        let bs = Bitstream::generate(&p, "demo", source, 5).unwrap();
        let targets = enumerate_free_compatible(&p, &source, &[source]);
        assert!(!targets.is_empty());
        for t in targets.iter().take(20) {
            let moved = relocate(&p, &bs, *t).expect("free-compatible targets must be accepted");
            assert!(moved.verify().is_ok());
        }
    }

    #[test]
    fn relocate_or_regenerate_picks_the_cheap_path_when_compatible() {
        let p = fabric_partition(&figure1_device()).unwrap();
        let bs = Bitstream::generate(&p, "demo", Rect::new(1, 1, 2, 2), 11).unwrap();
        // Compatible target: pure relocation, payload untouched.
        let (moved, kind) = relocate_or_regenerate(&p, &bs, Rect::new(3, 4, 2, 2), 99).unwrap();
        assert_eq!(kind, MoveKind::Relocated);
        assert_eq!(moved.frames[0].words, bs.frames[0].words);
        // Incompatible target: regenerated at the new area.
        let (rebuilt, kind) = relocate_or_regenerate(&p, &bs, Rect::new(2, 1, 2, 2), 99).unwrap();
        assert_eq!(kind, MoveKind::Resynthesized);
        assert_eq!(rebuilt.area, Rect::new(2, 1, 2, 2));
        assert!(rebuilt.verify().is_ok());
        assert_eq!(rebuilt.n_frames(), p.frames_in_rect(&Rect::new(2, 1, 2, 2)) as usize);
        // An out-of-device target fails outright.
        assert!(relocate_or_regenerate(&p, &bs, Rect::new(6, 6, 2, 2), 0).is_err());
        // A corrupt source fails on both paths.
        let mut bad = bs.clone();
        bad.frames[0].words[0] ^= 1;
        assert!(matches!(
            relocate_or_regenerate(&p, &bad, Rect::new(3, 4, 2, 2), 0),
            Err(RelocationError::CorruptSource { .. })
        ));
    }

    /// Literal CRCs recorded from the bit-serial CRC-32: a generated
    /// bitstream on the FX70T and its relocation one column to the right.
    #[test]
    fn generated_and_relocated_crcs_are_pinned() {
        let p = fabric_partition(&xc5vfx70t()).unwrap();
        let bs = Bitstream::generate(&p, "m", Rect::new(1, 1, 2, 2), 1).unwrap();
        assert_eq!(bs.crc, 0xDF43_E889);
        let moved = relocate(&p, &bs, Rect::new(2, 1, 2, 2)).unwrap();
        assert_eq!(moved.crc, 0xFBB3_E98F);
    }

    #[test]
    fn double_relocation_returns_to_the_original() {
        let p = fabric_partition(&figure1_device()).unwrap();
        let source = Rect::new(1, 1, 2, 2);
        let target = Rect::new(3, 4, 2, 2);
        let bs = Bitstream::generate(&p, "demo", source, 11).unwrap();
        let moved = relocate(&p, &bs, target).unwrap();
        let back = relocate(&p, &moved, source).unwrap();
        assert_eq!(back, bs);
    }
}
