//! Stable, dependency-free 64-bit hashing for state fingerprints.
//!
//! The liveness lasso search keys its state-graph interner on *canonical
//! state digests* of TMs and clients. Those digests must be
//! deterministic within a run but need
//! no cryptographic strength and no DoS resistance (all inputs are
//! machine-generated states, not attacker-controlled keys), so a cheap
//! seedless mixer over the [`std::hash::Hash`] stream is the right tool:
//! allocation-free and identical across threads and runs.
//!
//! [`StableHasher`] mixes one word per integer write (`write_u8` …
//! `write_u64`, `write_usize` and the signed forms): xor the word in,
//! multiply by an odd constant, xor-shift. Each step is a bijection of
//! the state, so two streams that differ in one word still differ after
//! it. Byte slices (`write`, which also carries slices of integers) keep
//! byte-wise FNV-1a. Digests are run-local hash keys: nothing persists
//! them or compares them across runs, so the mixer may change freely.
//!
//! A 64-bit digest makes collisions a real (if astronomically unlikely)
//! possibility; the consumer is therefore *redundantly checked* — the
//! reduced liveness walk is differential-tested against the plain walk,
//! which would surface a collision as a state-count mismatch.

use std::hash::{Hash, Hasher};

/// A deterministic, seedless 64-bit [`Hasher`]: word-wise mixing for
/// integers, byte-wise FNV-1a for byte slices (see the module docs).
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Odd, so multiplying by it is a bijection on `u64`.
const MIX_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl StableHasher {
    /// Creates a hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        StableHasher(FNV_OFFSET)
    }

    /// Mixes one word into the state.
    #[inline]
    fn mix(&mut self, word: u64) {
        let h = (self.0 ^ word).wrapping_mul(MIX_MUL);
        self.0 = h ^ (h >> 32);
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl Hasher for StableHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }

    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }

    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }

    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    fn write_isize(&mut self, i: isize) {
        self.write_usize(i as usize);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The [`StableHasher`] digest of any hashable value.
pub fn digest_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = StableHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn digests_are_deterministic() {
        let a = digest_of(&(1u64, vec![2u8, 3], "x"));
        let b = digest_of(&(1u64, vec![2u8, 3], "x"));
        assert_eq!(a, b);
    }

    #[test]
    fn digests_separate_nearby_values() {
        assert_ne!(digest_of(&1u64), digest_of(&2u64));
        assert_ne!(digest_of(&[1u8, 2]), digest_of(&[2u8, 1]));
        // Structure matters, not just content bytes.
        assert_ne!(
            digest_of(&(vec![1u8], vec![2u8])),
            digest_of(&(vec![1u8, 2u8], Vec::<u8>::new()))
        );
    }

    #[test]
    fn small_word_triples_never_collide() {
        let mut seen = HashSet::new();
        for a in 0..64u64 {
            for b in 0..64u64 {
                for c in 0..64u64 {
                    let mut h = StableHasher::new();
                    h.write_u64(a);
                    h.write_u64(b);
                    h.write_u64(c);
                    assert!(seen.insert(h.finish()), "collision at ({a}, {b}, {c})");
                }
            }
        }
    }

    #[test]
    fn vectors_with_coinciding_contents_never_collide() {
        // Every vector of length 0–4 over a few values, so the same
        // contents recur at different lengths and positions, plus every
        // split of each into two vectors.
        let values = [0, 1, 2, u64::MAX];
        let mut vectors: Vec<Vec<u64>> = vec![Vec::new()];
        let mut last = vectors.clone();
        for _ in 0..4 {
            last = last
                .iter()
                .flat_map(|v| {
                    values.iter().map(move |&x| {
                        let mut w = v.clone();
                        w.push(x);
                        w
                    })
                })
                .collect();
            vectors.extend(last.iter().cloned());
        }
        let mut seen = HashSet::new();
        for v in &vectors {
            assert!(seen.insert(digest_of(v)), "collision at {v:?}");
        }
        let mut splits = HashSet::new();
        for v in &vectors {
            for at in 0..=v.len() {
                let (a, b) = v.split_at(at);
                let digest = digest_of(&(a.to_vec(), b.to_vec()));
                assert!(splits.insert(digest), "collision at {a:?} | {b:?}");
            }
        }
    }

    #[test]
    fn empty_input_hashes_to_offset_basis() {
        assert_eq!(StableHasher::new().finish(), FNV_OFFSET);
    }
}
