//! Reproducible random-number streams.
//!
//! Simulation science lives and dies by reproducibility: the same run seed
//! must produce the same packet arrivals, back-off draws, shadowing samples
//! and node placements on every machine and every build. We therefore ship
//! our own small, well-known generators — and our own [`Rng`] trait, so the
//! whole workspace builds with **zero external dependencies**:
//!
//! * [`SplitMix64`] — Steele/Lea/Flood's 64-bit mixer; used for seeding and
//!   for cheap hash-like stream derivation.
//! * [`Xoshiro256`] — Blackman/Vigna's `xoshiro256**`, the workhorse
//!   generator for everything statistical.
//!
//! The [`Rng`] trait carries every distribution the stack needs: uniform
//! integers and floats, Bernoulli trials, exponential gaps (Poisson
//! traffic), and Gaussian draws (log-normal shadowing).
//!
//! [`RngDirectory`] derives *independent named streams* from a run seed: node
//! 7's traffic stream never consumes numbers from node 3's back-off stream,
//! so adding a node or reordering events does not perturb unrelated draws.

/// A deterministic pseudo-random generator plus the distribution helpers the
/// simulation stack needs.
///
/// Implementors provide [`Rng::next_u64`]; everything else has a default in
/// terms of it, so all implementors expose identical distributions (a draw
/// depends only on the raw stream, never on which generator produced it).
pub trait Rng {
    /// The next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// The next raw 32-bit output (upper half of a 64-bit draw).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    /// A uniform draw in `[0, 1)` with 53 bits of precision.
    fn uniform01(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform01()
    }

    /// A uniform integer in `[0, n)` via rejection-free Lemire reduction.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// A Bernoulli trial: `true` with probability `p` (clamped to [0, 1]).
    fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform01() < p
    }

    /// An exponential draw with the given rate (mean `1/rate`) — the
    /// inter-arrival law of Poisson traffic.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = 1.0 - self.uniform01(); // in (0, 1]
        -u.ln() / rate
    }

    /// A standard-normal draw (Marsaglia polar method) — the basis of
    /// log-normal shadowing.
    fn standard_normal(&mut self) -> f64 {
        loop {
            let x = self.uniform(-1.0, 1.0);
            let y = self.uniform(-1.0, 1.0);
            let r2 = x * x + y * y;
            if r2 > 0.0 && r2 < 1.0 {
                return x * (-2.0 * r2.ln() / r2).sqrt();
            }
        }
    }
}

/// SplitMix64: tiny, fast, passes BigCrush when used as a mixer.
///
/// Primarily used to expand seeds and derive sub-streams; also a perfectly
/// serviceable [`Rng`] for non-critical uses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    ///
    /// Deliberately named like the generator literature (not an
    /// `Iterator`: the stream is infinite and never yields `None`).
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Stateless mix of a single value — a one-shot hash with the same
    /// avalanche properties as the generator.
    #[inline]
    pub fn mix(v: u64) -> u64 {
        SplitMix64::new(v).next()
    }
}

impl Rng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }
}

/// xoshiro256**: the main statistical generator.
///
/// 256 bits of state, period 2²⁵⁶−1, excellent equidistribution. Seeded via
/// SplitMix64 per the authors' recommendation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator whose 256-bit state is expanded from `seed` with
    /// SplitMix64 (the construction recommended by the xoshiro authors).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next();
        }
        // An all-zero state is the one forbidden fixed point.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256 { s }
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl Rng for Xoshiro256 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }
}

/// Derives independent, named random streams from one run seed.
///
/// Streams are identified by a `(domain, index)` pair — e.g. domain
/// `"traffic"`, index = node id — and are hashed into disjoint seeds, so the
/// consumption pattern of one stream never affects another.
///
/// # Example
///
/// ```
/// use mg_sim::rng::{Rng, RngDirectory};
///
/// let dir = RngDirectory::new(42);
/// let mut a = dir.stream("backoff", 3);
/// let mut b = dir.stream("backoff", 4);
/// assert_ne!(a.uniform01(), b.uniform01());
/// // Re-deriving the same stream replays it exactly.
/// let mut a2 = dir.stream("backoff", 3);
/// let _ = a2; // fresh copy, same sequence from the start
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RngDirectory {
    run_seed: u64,
}

impl RngDirectory {
    /// Creates a directory for the given run seed.
    pub fn new(run_seed: u64) -> Self {
        RngDirectory { run_seed }
    }

    /// The run seed this directory derives from.
    pub fn run_seed(&self) -> u64 {
        self.run_seed
    }

    /// Derives the stream `(domain, index)`.
    pub fn stream(&self, domain: &str, index: u64) -> Xoshiro256 {
        let mut h = SplitMix64::mix(self.run_seed);
        for &b in domain.as_bytes() {
            h = SplitMix64::mix(h ^ b as u64);
        }
        Xoshiro256::new(SplitMix64::mix(
            h ^ index.wrapping_mul(0xA24B_AED4_963E_E407),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain
        // splitmix64.c by Sebastiano Vigna.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next(), 6457827717110365317);
        assert_eq!(rng.next(), 3203168211198807973);
        assert_eq!(rng.next(), 9817491932198370423);
    }

    #[test]
    fn xoshiro_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256::new(99);
        let mut b = Xoshiro256::new(99);
        let mut c = Xoshiro256::new(100);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn uniform01_in_unit_interval() {
        let mut rng = Xoshiro256::new(7);
        for _ in 0..10_000 {
            let u = rng.uniform01();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut rng = Xoshiro256::new(11);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[rng.below(5) as usize] += 1;
        }
        for &c in &counts {
            // Expected 10_000 per bucket; allow 5 sigma of binomial noise.
            assert!((9_550..10_450).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn bernoulli_frequency_matches_p() {
        let mut rng = Xoshiro256::new(12);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.3)).count() as f64;
        assert!(
            (hits / n as f64 - 0.3).abs() < 0.01,
            "rate {}",
            hits / n as f64
        );
        let mut rng = Xoshiro256::new(12);
        assert!(!(0..1000).any(|_| rng.bernoulli(0.0)));
        let mut rng = Xoshiro256::new(12);
        assert!((0..1000).all(|_| rng.bernoulli(1.0)));
    }

    #[test]
    fn exponential_has_right_mean() {
        let mut rng = Xoshiro256::new(13);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.005, "mean={mean}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = Xoshiro256::new(17);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn distributions_depend_only_on_the_raw_stream() {
        // The trait defaults guarantee any two generators with the same raw
        // output produce the same distribution draws; spot-check by replaying
        // a recorded stream.
        struct Replay(Vec<u64>, usize);
        impl Rng for Replay {
            fn next_u64(&mut self) -> u64 {
                let v = self.0[self.1 % self.0.len()];
                self.1 += 1;
                v
            }
        }
        let mut x = Xoshiro256::new(21);
        let raw: Vec<u64> = (0..64).map(|_| x.next_u64()).collect();
        let mut x = Xoshiro256::new(21);
        let mut r = Replay(raw, 0);
        for _ in 0..16 {
            assert_eq!(x.uniform01(), r.uniform01());
        }
    }

    #[test]
    fn directory_streams_are_independent_and_stable() {
        let dir = RngDirectory::new(2024);
        let s1: Vec<u64> = {
            let mut r = dir.stream("traffic", 0);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let s1_again: Vec<u64> = {
            let mut r = dir.stream("traffic", 0);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let s2: Vec<u64> = {
            let mut r = dir.stream("traffic", 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let s3: Vec<u64> = {
            let mut r = dir.stream("shadowing", 0);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(s1, s1_again);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = Xoshiro256::new(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
