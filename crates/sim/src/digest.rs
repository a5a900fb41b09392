//! FNV-1a, 64 bit: the fingerprint `GOLDEN.json` records of everything a
//! campaign printed. Not a cryptographic hash — a deterministic
//! simulator's outputs either repeat exactly or differ plainly.

/// An FNV-1a (64-bit) hasher over delimited fields.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in, followed by a separator (a byte no UTF-8 text
    /// holds), so where one field ends and the next begins counts.
    pub fn field(&mut self, bytes: &[u8]) {
        for b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors_and_counts_field_boundaries() {
        // An empty field is its separator alone: FNV-1a 64 of [0xff].
        let mut h = Fnv::default();
        h.field(b"");
        assert_eq!(h.finish(), 0xaf64_724c_8602_eb6e);
        let digest = |fields: &[&[u8]]| {
            let mut h = Fnv::default();
            fields.iter().for_each(|f| h.field(f));
            h.finish()
        };
        assert_ne!(digest(&[b"ab", b"c"]), digest(&[b"a", b"bc"]));
        assert_eq!(digest(&[b"ab", b"c"]), digest(&[b"ab", b"c"]));
    }
}
