//! The one keyed hash of the in-memory tables (`IndexedSet`, `TopK`,
//! `KeyedCounterMap`), foldhash's construction
//! (<https://github.com/orlp/foldhash>): one 128-bit multiply folded to 64
//! bits per 16 bytes, both operands keyed — by the state, which starts at
//! the seed, and by `splitmix64(seed)`. A tail of 16 bytes or fewer is read
//! in place as two words that may overlap. Those reads cannot tell `ab`
//! from `abb`, so the length is XORed in after the last multiply that reads
//! bytes, where no choice of bytes can cancel it. `finish` multiplies once
//! more: one multiply leaves sequential ids on a lattice in the low bits a
//! table indexes by. Placement and routing, which must agree across
//! processes, use `HashFamily` and `fnv1a64` instead.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

use crate::splitmix64;

/// A structure's hash key: builds a [`FoldHasher`], or hashes bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashSeed {
    seed: u64,
    key: u64,
}

impl HashSeed {
    /// The key of `seed`.
    pub fn new(seed: u64) -> Self {
        HashSeed { seed, key: splitmix64(seed) }
    }

    /// A fresh key, different per call and per process.
    pub fn random() -> Self {
        Self::new(RandomState::new().hash_one(0u64))
    }

    /// `bytes`' hash under this key.
    #[inline]
    pub fn hash_bytes(&self, bytes: &[u8]) -> u64 {
        let mut hasher = self.build_hasher();
        hasher.write(bytes);
        hasher.finish()
    }
}

impl BuildHasher for HashSeed {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { state: self.seed, key: self.key }
    }
}

/// The hash state (module doc).
#[derive(Debug, Clone)]
pub struct FoldHasher {
    state: u64,
    key: u64,
}

/// The 128-bit product of `a` and `b`, folded to 64 bits.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// The `N` bytes at the front of `bytes`, little-endian: one load.
#[inline]
fn le<const N: usize>(bytes: &[u8]) -> u64 {
    let mut word = [0; 8];
    word[..N].copy_from_slice(&bytes[..N]);
    u64::from_le_bytes(word)
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while rest.len() > 16 {
            self.state = fold(self.state ^ le::<8>(rest), self.key ^ le::<8>(&rest[8..]));
            rest = &rest[16..];
        }
        let n = rest.len();
        let (lo, hi) = match n {
            8.. => (le::<8>(rest), le::<8>(&rest[n - 8..])),
            4..=7 => (le::<4>(rest), le::<4>(&rest[n - 4..])),
            1..=3 => (u64::from(rest[0]), u64::from(rest[n / 2]) << 8 | u64::from(rest[n - 1])),
            0 => (0, 0),
        };
        self.state = fold(self.state ^ lo, self.key ^ hi) ^ bytes.len() as u64;
    }

    // A 64-bit id, or a slice's length prefix, is one multiply.
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = fold(self.state ^ n, self.key);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// Under the key XORed with the golden ratio's fraction bits, so not
    /// by the multiplier of a `write_u64` again.
    #[inline]
    fn finish(&self) -> u64 {
        fold(self.state, self.key ^ 0x9e37_79b9_7f4a_7c15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
        HashSeed::new(seed).hash_bytes(bytes)
    }

    #[test]
    fn hash_depends_on_seed_length_and_every_byte() {
        let key = b"song/00000042:entry";
        assert_eq!(hash_bytes(7, key), hash_bytes(7, key));
        assert_ne!(hash_bytes(7, key), hash_bytes(8, key));
        assert_ne!(hash_bytes(7, b"ab"), hash_bytes(7, b"ab\0"));
        assert_ne!(hash_bytes(7, b""), hash_bytes(7, b"\0"));
        // A first word chosen to cancel the length, were it mixed in
        // before the first multiply, must not collide.
        let longer = [28, 235, 24, 230, 148, 182, 233, 145, 120, 0];
        for seed in 0..1000 {
            assert_ne!(hash_bytes(seed, b"song/000x"), hash_bytes(seed, &longer), "seed {seed}");
        }
        // Every length through three blocks, every byte flipped in turn:
        // whole blocks, overlapping words, halves and single bytes.
        let text: Vec<u8> = (0..48u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for len in 0..=48 {
            let original = hash_bytes(7, &text[..len]);
            for i in 0..len {
                let mut other = text[..len].to_vec();
                other[i] ^= 1;
                assert_ne!(original, hash_bytes(7, &other), "length {len}, byte {i}");
            }
        }
        // Runs of one byte read the same words at neighbouring lengths
        // (the overlapping tail): the length alone tells them apart.
        for byte in [0u8, b'x', 0xff] {
            let hashes: Vec<u64> = (8..=32).map(|len| hash_bytes(7, &vec![byte; len])).collect();
            for (i, a) in hashes.iter().enumerate() {
                assert!(!hashes[i + 1..].contains(a), "{byte:#x} run of {} collides", i + 8);
            }
        }
        assert_ne!(HashSeed::random(), HashSeed::random());
    }

    #[test]
    fn integer_writes_are_one_keyed_word() {
        let word = |seed: u64, n: u64| HashSeed::new(seed).hash_one(n);
        let size = |seed: u64, n: usize| HashSeed::new(seed).hash_one(n);
        assert_ne!(word(7, 42), word(8, 42));
        assert_ne!(size(7, 42), size(8, 42));
        assert_eq!(word(7, 42), size(7, 42), "a usize is a 64-bit word");
        assert_ne!(word(7, 42), word(7, 43));
        assert_ne!(word(7, 42), word(7, 42 << 32));
        assert_ne!(word(7, 42), HashSeed::new(7).hash_bytes(&42u64.to_le_bytes()));
    }
}
