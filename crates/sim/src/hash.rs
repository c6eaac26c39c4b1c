//! A fast deterministic hasher for keys the simulation assigns itself.
//!
//! Packet (SDU) ids and spatial-index cell coordinates are small integers
//! the program generates, never input from outside it, so SipHash's
//! resistance to chosen keys buys nothing on the hot path.
//! [`IdHasher`] mixes each word in with one rotate, xor and multiplication
//! by an odd constant (the FxHash scheme): distinct dense keys land on
//! distinct buckets and the high bits the table's control bytes use are
//! well mixed. Do not use it for keys read from outside the program.

use std::hash::{BuildHasherDefault, Hasher};

/// 2⁶⁴ divided by the golden ratio, rounded to odd.
const FIBONACCI: u64 = 0x9e37_79b9_7f4a_7c15;

/// The hasher; see the module docs.
#[derive(Clone, Copy, Default, Debug)]
pub struct IdHasher(u64);

impl IdHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FIBONACCI);
    }
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    // `i64` keys reach this through the default `write_i64`.
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
}

/// Builds [`IdHasher`]s: `HashMap<K, V, IdBuildHasher>`.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn two_word_keys_hash_both_words() {
        let h = |k: (i64, i64)| IdBuildHasher::default().hash_one(k);
        assert_ne!(h((1, 2)), h((2, 2)));
        assert_ne!(h((1, 2)), h((1, 3)));
        assert_ne!(h((1, 2)), h((2, 1)));
    }

    #[test]
    fn dense_keys_spread_over_buckets() {
        // The low 6 bits pick among 64 buckets: 64 dense ids must not pile
        // up.
        let low: HashSet<u64> = (0..64u64)
            .map(|n| IdBuildHasher::default().hash_one(n) & 63)
            .collect();
        assert_eq!(low.len(), 64);
    }
}
