//! CRC-32 (IEEE 802.3 polynomial), implemented from scratch.
//!
//! Relocating a bitstream invalidates the CRC embedded by the vendor tools;
//! the relocation filter must recompute it after rewriting the frame
//! addresses ([2]). The synthetic bitstream format uses the ubiquitous
//! reflected CRC-32 with polynomial `0xEDB88320`.
//!
//! The CRC runs on every generate, program, relocation and checkpoint
//! verify of the runtime, so it is table-driven: slice-by-8 folds eight
//! input bytes per step through eight 256-entry tables, each byte's
//! contribution shifted by its distance from the end of the step. The
//! tables are built at compile time by a `const fn`; the result is the same
//! CRC, bit for bit, as the textbook one-bit-at-a-time loop.

/// The reflected CRC-32 (IEEE) polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0][b]` is the CRC register after shifting byte `b` through the
/// polynomial; `TABLES[k][b]` is that value carried `k` further zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Computes the CRC-32 (IEEE) of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming update: feed an intermediate state (start from `0xFFFF_FFFF`)
/// and finish by XOR-ing with `0xFFFF_FFFF`.
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = state ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        state = (state >> 8) ^ t[0][((state ^ byte as u32) & 0xFF) as usize];
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-serial CRC-32 the tables replace: 8 shift/xor steps per byte.
    fn crc32_update_bitwise(mut state: u32, data: &[u8]) -> u32 {
        for &byte in data {
            state ^= byte as u32;
            for _ in 0..8 {
                let mask = (state & 1).wrapping_neg();
                state = (state >> 1) ^ (POLY & mask);
            }
        }
        state
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let (head, tail) = data.split_at(10);
        let streamed = crc32_update(crc32_update(0xFFFF_FFFF, head), tail) ^ 0xFFFF_FFFF;
        assert_eq!(streamed, crc32(data));
    }

    #[test]
    fn single_bit_flip_changes_the_crc() {
        let mut data = vec![0u8; 64];
        let base = crc32(&data);
        data[17] ^= 0x20;
        assert_ne!(crc32(&data), base);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Streaming the table CRC over a random byte string cut at random
        /// points (so chunks of every length and alignment meet the 8-byte
        /// steps and the byte-wise tail) gives the bit-serial reference CRC.
        #[test]
        fn table_crc_matches_the_bit_serial_reference(
            data in proptest::collection::vec(0u8..=255, 0..600),
            cuts in proptest::collection::vec(0usize..600, 0..6),
            start in any::<u32>(),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut state = start;
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                state = crc32_update(state, &data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(state, crc32_update_bitwise(start, &data));
            prop_assert_eq!(crc32(&data), crc32_update_bitwise(0xFFFF_FFFF, &data) ^ 0xFFFF_FFFF);
        }
    }
}
