//! Seeded byte-string hashing for [`TopK`] and [`KeyedCounterMap`].
//!
//! Both structures find a key through one 64-bit hash of its bytes,
//! computed once per operation. The hash is seeded per structure from
//! the standard library's randomly keyed state, so keys that arrive
//! from the network cannot be crafted to collide.
//!
//! [`TopK`]: crate::TopK
//! [`KeyedCounterMap`]: crate::KeyedCounterMap

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// A fresh seed for [`hash_bytes`], different per call and per process.
pub(crate) fn random_seed() -> u64 {
    RandomState::new().hash_one(0u64)
}

/// The 128-bit product of `a` and `b`, folded to 64 bits.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// Hashes `bytes` eight at a time: each word is mixed into the state
/// with one folded multiply. The length goes in after the words, so a
/// short tail padded with zeros cannot pass for a longer key — and by
/// then the state is a product of the seed, so no choice of bytes
/// cancels the length under every seed (mixed in before the first word,
/// the first word could).
#[inline]
pub(crate) fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    const K0: u64 = 0x9e37_79b9_7f4a_7c15;
    const K1: u64 = 0xd6e8_feb8_6659_fd93;
    let mut state = seed;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8 bytes"));
        state = fold(state ^ word, K0);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        state = fold(state ^ u64::from_le_bytes(word), K0);
    }
    fold(state ^ bytes.len() as u64, K1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_depends_on_seed_length_and_every_byte() {
        let key = b"song/00000042:entry";
        assert_eq!(hash_bytes(7, key), hash_bytes(7, key));
        assert_ne!(hash_bytes(7, key), hash_bytes(8, key));
        assert_ne!(hash_bytes(7, b"ab"), hash_bytes(7, b"ab\0"));
        assert_ne!(hash_bytes(7, b""), hash_bytes(7, b"\0"));
        // A first word chosen to cancel the length must not collide.
        let longer = [28, 235, 24, 230, 148, 182, 233, 145, 120, 0];
        for seed in 0..1000 {
            assert_ne!(hash_bytes(seed, b"song/000x"), hash_bytes(seed, &longer), "seed {seed}");
        }
        for i in 0..key.len() {
            let mut other = key.to_vec();
            other[i] ^= 1;
            assert_ne!(hash_bytes(7, key), hash_bytes(7, &other), "byte {i}");
        }
        assert_ne!(random_seed(), random_seed());
    }
}
