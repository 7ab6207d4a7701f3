//! CRC-32 (IEEE 802.3 polynomial), implemented from scratch.
//!
//! Relocating a bitstream invalidates the CRC embedded by the vendor tools;
//! the relocation filter must recompute it after rewriting the frame
//! addresses ([2]). The synthetic bitstream format uses the ubiquitous
//! reflected CRC-32 with polynomial `0xEDB88320`.
//!
//! The CRC runs on every generate, program, relocation and checkpoint
//! verify of the runtime, so it is table-driven: slice-by-16 folds one
//! 16-byte block, read as four little-endian words, per step through sixteen
//! 256-entry tables, each byte's contribution shifted by its distance from
//! the end of the block. One register's steps form a chain of dependent
//! loads, so an input of at least `LANE_MIN_BLOCKS` blocks per quarter runs
//! four registers over its four contiguous quarters, one step of each per
//! iteration, and then joins them with the CRC combine of zlib's
//! `crc32_combine`: the register of the earlier part, multiplied by
//! x^(8·len) modulo the polynomial, is the register of that part followed by
//! `len` zero bytes, and XOR-ing in the later part's register (started from
//! zero) gives the register of the two parts together. [`crc32_update`]
//! (bytes) and `crc32_update_words` (words, as the bitstream stores them)
//! share the step and the tables. The tables are built at compile time by a
//! `const fn`; the result is the same CRC, bit for bit, as the textbook
//! one-bit-at-a-time loop.

/// The reflected CRC-32 (IEEE) polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Blocks per quarter from which an input runs four registers; shorter
/// inputs run one, where the combine would cost more than the overlap saves.
const LANE_MIN_BLOCKS: usize = 16;

/// `TABLES[0][b]` is the CRC register after shifting byte `b` through the
/// polynomial; `TABLES[k][b]` is that value carried `k` further zero bytes.
static TABLES: [[u32; 256]; 16] = build_tables();

/// `X2N[k]` is x^(2^k) modulo the polynomial, in the reflected bit order of
/// the register (bit 31 is x^0). x^(2^32) is x again, so 32 entries cover
/// every power.
static X2N: [u32; 32] = build_x2n();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
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
    while k < 16 {
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

const fn build_x2n() -> [u32; 32] {
    let mut x2n = [0u32; 32];
    let mut p = 1 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        x2n[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    x2n
}

/// `a * b` modulo the polynomial, both in the register's reflected order.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
            if a & (m - 1) == 0 {
                break;
            }
        }
        m >>= 1;
        b = (b >> 1) ^ (POLY & (b & 1).wrapping_neg());
    }
    product
}

/// x^(8·len) modulo the polynomial: multiplying a register by it carries
/// the register through `len` zero bytes.
fn x8nmodp(mut len: usize) -> u32 {
    let mut p = 1 << 31; // x^0
    let mut k = 3;
    while len != 0 {
        if len & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        len >>= 1;
        k += 1;
    }
    p
}

/// Folds one 16-byte block, read as four little-endian words, into `state`.
/// Forced inline: called out of line, it makes short byte inputs about 40 %
/// slower.
#[inline(always)]
fn step(state: u32, [w0, w1, w2, w3]: [u32; 4]) -> u32 {
    let t = &TABLES;
    let b = |w: u32, i: u32| ((w >> (8 * i)) & 0xFF) as usize;
    let w0 = w0 ^ state;
    t[15][b(w0, 0)]
        ^ t[14][b(w0, 1)]
        ^ t[13][b(w0, 2)]
        ^ t[12][b(w0, 3)]
        ^ t[11][b(w1, 0)]
        ^ t[10][b(w1, 1)]
        ^ t[9][b(w1, 2)]
        ^ t[8][b(w1, 3)]
        ^ t[7][b(w2, 0)]
        ^ t[6][b(w2, 1)]
        ^ t[5][b(w2, 2)]
        ^ t[4][b(w2, 3)]
        ^ t[3][b(w3, 0)]
        ^ t[2][b(w3, 1)]
        ^ t[1][b(w3, 2)]
        ^ t[0][b(w3, 3)]
}

/// Folds a run of 16-byte blocks into `state`, `read` giving each block's
/// four words: four interleaved registers over the quarters and the combine
/// when the quarters are long enough, then the leftover blocks on one.
fn update_blocks<B>(state: u32, blocks: &[B], read: impl Fn(&B) -> [u32; 4]) -> u32 {
    let lane = blocks.len() / 4;
    if lane < LANE_MIN_BLOCKS {
        return blocks.iter().fold(state, |s, block| step(s, read(block)));
    }
    let (q0, rest) = blocks.split_at(lane);
    let (q1, rest) = rest.split_at(lane);
    let (q2, rest) = rest.split_at(lane);
    let (q3, tail) = rest.split_at(lane);
    let (mut s0, mut s1, mut s2, mut s3) = (state, 0, 0, 0);
    for (((b0, b1), b2), b3) in q0.iter().zip(q1).zip(q2).zip(q3) {
        s0 = step(s0, read(b0));
        s1 = step(s1, read(b1));
        s2 = step(s2, read(b2));
        s3 = step(s3, read(b3));
    }
    let shift = x8nmodp(16 * lane);
    let joined = [s1, s2, s3].into_iter().fold(s0, |s, next| multmodp(shift, s) ^ next);
    tail.iter().fold(joined, |s, block| step(s, read(block)))
}

/// Folds bytes into `state` one at a time (the tail shorter than a block).
fn update_bytes(state: u32, bytes: impl IntoIterator<Item = u8>) -> u32 {
    bytes
        .into_iter()
        .fold(state, |s, byte| (s >> 8) ^ TABLES[0][((s ^ byte as u32) & 0xFF) as usize])
}

/// Computes the CRC-32 (IEEE) of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming update: feed an intermediate state (start from `0xFFFF_FFFF`)
/// and finish by XOR-ing with `0xFFFF_FFFF`.
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    let (blocks, rest) = data.as_chunks::<16>();
    let word = |b: &[u8; 16], i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
    let state = update_blocks(state, blocks, |b| [word(b, 0), word(b, 4), word(b, 8), word(b, 12)]);
    update_bytes(state, rest.iter().copied())
}

/// [`crc32_update`] over the little-endian bytes of `words`, without
/// serialising them.
pub(crate) fn crc32_update_words(state: u32, words: &[u32]) -> u32 {
    let (blocks, rest) = words.as_chunks::<4>();
    let state = update_blocks(state, blocks, |&b| b);
    update_bytes(state, rest.iter().flat_map(|w| w.to_le_bytes()))
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

    /// Streams `update` over `data` cut at `cuts` (clamped and sorted).
    fn streamed<T>(start: u32, data: &[T], cuts: &[usize], update: fn(u32, &[T]) -> u32) -> u32 {
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(data.len())).collect();
        cuts.sort_unstable();
        let mut state = start;
        let mut from = 0;
        for cut in cuts.into_iter().chain([data.len()]) {
            state = update(state, &data[from..cut]);
            from = cut;
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

    #[test]
    fn the_powers_of_x_wrap_after_32_squarings() {
        assert_eq!(multmodp(X2N[31], X2N[31]), X2N[0]);
        // Carrying a register through zero bytes is the bit-serial CRC of
        // those bytes.
        for len in [0, 1, 3, 16, 1000, 65_536] {
            let state = 0x1234_5678;
            assert_eq!(multmodp(x8nmodp(len), state), crc32_update_bitwise(state, &vec![0; len]));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Streaming the table CRC over a random byte string cut at random
        /// points (so chunks of every length and alignment meet the one- and
        /// four-register paths, the 16-byte steps and the byte-wise tail)
        /// gives the bit-serial reference CRC.
        #[test]
        fn table_crc_matches_the_bit_serial_reference(
            data in proptest::collection::vec(0u8..=255, 0..1200),
            cuts in proptest::collection::vec(0usize..1200, 0..6),
            start in any::<u32>(),
        ) {
            prop_assert_eq!(streamed(start, &data, &cuts, crc32_update), crc32_update_bitwise(start, &data));
            prop_assert_eq!(crc32(&data), crc32_update_bitwise(0xFFFF_FFFF, &data) ^ 0xFFFF_FFFF);
        }

        /// The word kernel over 0 to 700 words (one register, four with
        /// every remainder of blocks and words), streamed from a random
        /// state at random cut points, gives the bit-serial CRC of the
        /// words' little-endian bytes.
        #[test]
        fn word_crc_matches_the_bit_serial_reference(
            words in proptest::collection::vec(any::<u32>(), 0..700),
            cuts in proptest::collection::vec(0usize..700, 0..6),
            start in any::<u32>(),
        ) {
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let expected = crc32_update_bitwise(start, &bytes);
            prop_assert_eq!(crc32_update_words(start, &words), expected);
            prop_assert_eq!(streamed(start, &words, &cuts, crc32_update_words), expected);
        }
    }
}
