//! The benchmark's own seeded generator (SplitMix64).
//!
//! Inputs must be a pure function of `--seed` and must not change when the
//! repository's vendored `rand` shim does, so the benchmark does not borrow
//! the program's generator.

/// SplitMix64: 64 bits of state, one multiply-xorshift round per draw.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one named input, so adding an input
    /// never shifts the draws of another.
    pub fn fork(seed: u64, stream: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the stream name
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut r = Rng(seed ^ h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Standard normal by Box–Muller (one of the pair is discarded).
    pub fn normal(&mut self) -> f64 {
        let u1 = (1.0 - self.unit()).max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let draw = |seed| -> Vec<u64> {
            let mut r = Rng::fork(seed, "s");
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(Rng::fork(7, "x").next_u64(), Rng::fork(7, "y").next_u64());
        assert_ne!(Rng::fork(7, "x").next_u64(), Rng::fork(8, "x").next_u64());
    }

    #[test]
    fn unit_and_below_stay_in_range() {
        let mut r = Rng::fork(1, "range");
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(7) < 7);
        }
    }
}
