//! The damage both mutation tests apply, seeded.

use pls_net::DetRng;

/// Damages `bytes` in place one to three times: a bit flip, a byte
/// overwrite, a truncation, or a run of `0xFF`.
pub fn damage(rng: &mut DetRng, bytes: &mut Vec<u8>) {
    for _ in 0..1 + rng.below(3) {
        if bytes.is_empty() {
            return;
        }
        let at = rng.below(bytes.len());
        match rng.below(4) {
            0 => bytes[at] ^= 1 << rng.below(8),
            1 => bytes[at] = rng.next_u64() as u8,
            2 => bytes.truncate(at),
            _ => {
                let run = 1 + rng.below(8);
                bytes[at..].iter_mut().take(run).for_each(|b| *b = 0xFF);
            }
        }
    }
}

/// `len` random bytes.
pub fn random_bytes(rng: &mut DetRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}
