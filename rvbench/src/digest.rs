//! The sim digest: one 64-bit fingerprint of everything a campaign
//! simulated.
//!
//! A deterministic simulator's statistics repeat exactly for one seed, so
//! two commits that claim only a speed-up must print the same digest. It
//! covers the 26 rendered figure bodies, the `Debug` form of the streaming
//! aggregates, and the counter totals — walked generically, never by
//! counter name, so retiring a counter changes the digest (and is seen)
//! without breaking the benchmark's build.

use realvideo_core::FigureOutput;
use rv_study::StudyData;

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in, followed by a separator so field boundaries count.
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

/// Digest of a finished campaign and its rendered figures.
pub fn sim_digest(data: &StudyData, figures: &[FigureOutput]) -> u64 {
    let mut h = Fnv::default();
    for fig in figures {
        h.field(fig.id.as_bytes());
        h.field(fig.body.as_bytes());
    }
    h.field(format!("{:?}", data.aggregates).as_bytes());
    for (counter, value) in data.summary.counters.iter() {
        h.field(counter.name().as_bytes());
        h.field(&value.to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_boundaries_matter() {
        let mut a = Fnv::default();
        a.field(b"ab");
        a.field(b"c");
        let mut b = Fnv::default();
        b.field(b"a");
        b.field(b"bc");
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv::default();
        c.field(b"ab");
        c.field(b"c");
        assert_eq!(a.finish(), c.finish());
    }
}
