//! A small seeded generator (SplitMix64). Every input the benchmark
//! builds — table contents, literals, operation schedules — comes from
//! one of these, so the same `--seed` gives the same inputs.

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// A generator for one named purpose, independent of the others drawn
    /// from the same seed.
    pub fn derive(seed: u64, purpose: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0x100_0000_01B3) ^ purpose);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
