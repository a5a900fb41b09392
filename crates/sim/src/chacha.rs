//! A self-contained ChaCha12 keystream generator.
//!
//! The simulator previously pinned its RNG to `rand_chacha::ChaCha12Rng`;
//! this module is the same construction implemented in-tree so the
//! workspace has no external runtime dependencies and the stream cannot
//! shift under a dependency upgrade. Determinism is defined by this file
//! alone: same key, same keystream, forever.
//!
//! The generator is the IETF ChaCha block function reduced to 12 rounds
//! (6 double rounds) with a 64-bit block counter, which is more than
//! enough keystream (2^70 bytes) for any campaign.
//!
//! The block is buffered as the 16 words the block function produces, not
//! as their 64 little-endian bytes: a draw on a word boundary — every
//! `next_u32` / `next_u64` unless an unaligned `fill_bytes` came before —
//! reads one or two words, and `next_u64` reads its two at once. The
//! cursor still counts bytes, so the stream any interleaving of the three
//! reads is the byte stream it always was (the tests hold it to the
//! byte-buffered generator this one replaced).

/// ChaCha block constants: "expand 32-byte k".
const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Bytes in one keystream block.
const BLOCK: usize = 64;

/// A ChaCha12 keystream generator with buffered block output.
#[derive(Debug, Clone)]
pub(crate) struct ChaCha12 {
    key: [u32; 8],
    counter: u64,
    /// The current block, word `i` holding keystream bytes `4i..4i + 4`
    /// little-endian.
    buf: [u32; 16],
    /// Byte cursor into `buf`; [`BLOCK`] when the block is used up.
    pos: usize,
}

impl ChaCha12 {
    /// Creates a generator from a 256-bit key (little-endian words).
    pub(crate) fn from_key(key_bytes: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (w, b) in key.iter_mut().zip(key_bytes.chunks_exact(4)) {
            *w = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
        ChaCha12 {
            key,
            counter: 0,
            buf: [0; 16],
            pos: BLOCK,
        }
    }

    fn refill(&mut self) {
        self.buf = block(&self.key, self.counter);
        self.counter = self.counter.wrapping_add(1);
        self.pos = 0;
    }

    /// Next 32 bits of keystream.
    pub(crate) fn next_u32(&mut self) -> u32 {
        if self.pos > BLOCK - 4 {
            self.refill();
        }
        let at = self.pos;
        self.pos += 4;
        let (word, shift) = (at / 4, 8 * (at % 4) as u32);
        if shift == 0 {
            self.buf[word]
        } else {
            // Straddles two words: only after an unaligned `fill_bytes`,
            // and then never past the block (`at` ≤ 59 here).
            (self.buf[word] >> shift) | (self.buf[word + 1] << (32 - shift))
        }
    }

    /// Next 64 bits of keystream (low word first, as rand_chacha did).
    pub(crate) fn next_u64(&mut self) -> u64 {
        if self.pos == BLOCK {
            self.refill();
        }
        let at = self.pos;
        if at.is_multiple_of(4) && at <= BLOCK - 8 {
            self.pos = at + 8;
            let word = at / 4;
            return u64::from(self.buf[word]) | u64::from(self.buf[word + 1]) << 32;
        }
        // The two words straddle a block or a word boundary.
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        lo | (hi << 32)
    }

    /// Fills `dest` with keystream bytes.
    pub(crate) fn fill_bytes(&mut self, dest: &mut [u8]) {
        for byte in dest {
            if self.pos == BLOCK {
                self.refill();
            }
            *byte = (self.buf[self.pos / 4] >> (8 * (self.pos % 4))) as u8;
            self.pos += 1;
        }
    }
}

/// The ChaCha12 block for `key` at block `counter` (nonce zero: one stream
/// per key), as 16 words.
fn block(key: &[u32; 8], counter: u64) -> [u32; 16] {
    let mut s = [0u32; 16];
    s[..4].copy_from_slice(&CONSTANTS);
    s[4..12].copy_from_slice(key);
    s[12] = counter as u32;
    s[13] = (counter >> 32) as u32;
    // s[14], s[15]: nonce, fixed at zero.
    let mut w = s;
    for _ in 0..6 {
        // Column round.
        quarter(&mut w, 0, 4, 8, 12);
        quarter(&mut w, 1, 5, 9, 13);
        quarter(&mut w, 2, 6, 10, 14);
        quarter(&mut w, 3, 7, 11, 15);
        // Diagonal round.
        quarter(&mut w, 0, 5, 10, 15);
        quarter(&mut w, 1, 6, 11, 12);
        quarter(&mut w, 2, 7, 8, 13);
        quarter(&mut w, 3, 4, 9, 14);
    }
    for (out, init) in w.iter_mut().zip(s) {
        *out = out.wrapping_add(init);
    }
    w
}

#[inline]
fn quarter(w: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    w[a] = w[a].wrapping_add(w[b]);
    w[d] = (w[d] ^ w[a]).rotate_left(16);
    w[c] = w[c].wrapping_add(w[d]);
    w[b] = (w[b] ^ w[c]).rotate_left(12);
    w[a] = w[a].wrapping_add(w[b]);
    w[d] = (w[d] ^ w[a]).rotate_left(8);
    w[c] = w[c].wrapping_add(w[d]);
    w[b] = (w[b] ^ w[c]).rotate_left(7);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fnv;
    use proptest::prelude::*;

    /// The byte-buffered generator the word buffer replaced, kept as the
    /// reference for what every read returns: the block as 64 bytes, one
    /// byte cursor, words assembled from bytes.
    struct ByteCursor {
        key: [u32; 8],
        counter: u64,
        buf: [u8; 64],
        pos: usize,
    }

    impl ByteCursor {
        fn new(key_bytes: [u8; 32]) -> Self {
            ByteCursor {
                key: ChaCha12::from_key(key_bytes).key,
                counter: 0,
                buf: [0; 64],
                pos: 64,
            }
        }

        fn refill(&mut self) {
            for (i, word) in block(&self.key, self.counter).iter().enumerate() {
                self.buf[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
            }
            self.counter = self.counter.wrapping_add(1);
            self.pos = 0;
        }

        fn next_u32(&mut self) -> u32 {
            if self.pos + 4 > 64 {
                self.refill();
            }
            let b = &self.buf[self.pos..self.pos + 4];
            self.pos += 4;
            u32::from_le_bytes([b[0], b[1], b[2], b[3]])
        }

        fn next_u64(&mut self) -> u64 {
            let lo = u64::from(self.next_u32());
            let hi = u64::from(self.next_u32());
            lo | (hi << 32)
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            let mut written = 0;
            while written < dest.len() {
                if self.pos >= 64 {
                    self.refill();
                }
                let n = (dest.len() - written).min(64 - self.pos);
                dest[written..written + n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
                self.pos += n;
                written += n;
            }
        }
    }

    #[test]
    fn same_key_same_stream() {
        let mut a = ChaCha12::from_key([7; 32]);
        let mut b = ChaCha12::from_key([7; 32]);
        for _ in 0..200 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_keys_diverge() {
        let mut a = ChaCha12::from_key([1; 32]);
        let mut b = ChaCha12::from_key([2; 32]);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fill_bytes_matches_word_stream_across_blocks() {
        let mut a = ChaCha12::from_key([9; 32]);
        let mut b = ChaCha12::from_key([9; 32]);
        // 200 bytes spans multiple 64-byte blocks.
        let mut bytes = [0u8; 200];
        a.fill_bytes(&mut bytes);
        for chunk in bytes.chunks_exact(4) {
            let w = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            assert_eq!(w, b.next_u32());
        }
    }

    #[test]
    fn keystream_bits_look_balanced() {
        // A crude sanity check, not a statistical test: the population
        // count over 64 KiB of keystream must sit near 50 %.
        let mut g = ChaCha12::from_key([3; 32]);
        let mut ones = 0u64;
        for _ in 0..8192 {
            ones += u64::from(g.next_u64().count_ones());
        }
        let frac = ones as f64 / (8192.0 * 64.0);
        assert!((frac - 0.5).abs() < 0.01, "ones fraction {frac}");
    }

    /// The first 4 KiB of one key's keystream, pinned: the block function
    /// and the byte order of the buffer cannot move without this failing.
    #[test]
    fn first_four_kib_of_one_key_are_pinned() {
        let key: [u8; 32] = std::array::from_fn(|i| i as u8);
        let mut bytes = vec![0u8; 4096];
        ChaCha12::from_key(key).fill_bytes(&mut bytes);
        let mut reference = vec![0u8; 4096];
        ByteCursor::new(key).fill_bytes(&mut reference);
        assert_eq!(bytes, reference);
        let mut fnv = Fnv::default();
        fnv.field(&bytes);
        // Computed by the byte-buffered generator before the word buffer.
        assert_eq!(fnv.finish(), 0x1730_c6ce_a920_6cc1);
    }

    proptest! {
        /// Any interleaving of the three reads — `fill_bytes` of every
        /// length up to 70, aligned or not, across block boundaries —
        /// returns exactly what the byte-buffered generator returns.
        #[test]
        fn word_buffer_reads_the_byte_stream(
            key_seed in any::<u64>(),
            reads in prop::collection::vec((0u8..3, 0usize..70), 1..120),
        ) {
            let key: [u8; 32] = std::array::from_fn(|i| (key_seed >> (8 * (i % 8))) as u8 ^ i as u8);
            let mut words = ChaCha12::from_key(key);
            let mut bytes = ByteCursor::new(key);
            for (i, &(kind, len)) in reads.iter().enumerate() {
                match kind {
                    0 => prop_assert_eq!(words.next_u32(), bytes.next_u32(), "read {}", i),
                    1 => prop_assert_eq!(words.next_u64(), bytes.next_u64(), "read {}", i),
                    _ => {
                        let (mut got, mut want) = ([0u8; 70], [0u8; 70]);
                        words.fill_bytes(&mut got[..len]);
                        bytes.fill_bytes(&mut want[..len]);
                        prop_assert_eq!(&got[..len], &want[..len], "read {}", i);
                    }
                }
            }
        }
    }
}
