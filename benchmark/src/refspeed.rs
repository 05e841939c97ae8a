//! The harness's speed reference.
//!
//! The machines this benchmark runs on are small virtual machines on
//! shared hosts. Their speed changes under the program — by 20–40 %, for
//! seconds or minutes at a time, as the host's clock and the neighbours'
//! load change — and raw times from two runs of the same code differ by
//! as much: over ten 16-second runs per workload, raw `ops_per_s` spread
//! (interquartile range over median) by 13–25 % and p50 by up to 30 %,
//! whichever passes were picked; set against the reference, by 4–8 %.
//!
//! So every time the harness reports is set against a reference kernel
//! that is run in slices between the timed passes: fixed harness code
//! doing what the workloads do (hash a 27-byte key, probe a `HashMap`,
//! clone the key, read one cold word from a large table). A pass's times
//! are scaled by how fast the reference ran beside it, relative to
//! [`NOMINAL_RATE`]. What is reported is the time the pass would have
//! taken on a machine running the reference at the nominal rate. The
//! kernel is the harness's own and does not change with the repo, so a
//! change in a reported time is the repo's.

use std::collections::HashMap;
use std::time::Instant;

/// Reference iterations per second and thread that count as speed 1:
/// about what the machine the baseline was recorded on sustains, with
/// one thread running the kernel and with one per virtual CPU.
const NOMINAL_RATE_ALONE: f64 = 4.5e6;
const NOMINAL_RATE_SHARED: f64 = 1.25e6;

const KEYS: usize = 1 << 14;
const TABLE_WORDS: usize = 1 << 21; // 16 MiB: out of the L2 cache
/// Iterations per slice: about 65 ms alone, and as long shared (where
/// the threads contend for the allocator's counters and run slower).
const ITERATIONS_ALONE: u64 = 300_000;
const ITERATIONS_SHARED: u64 = 80_000;

pub struct Reference {
    keys: Vec<Vec<u8>>,
    map: HashMap<Vec<u8>, u32>,
    table: Vec<u64>,
    /// One generator state per thread the kernel can run on.
    states: Vec<u64>,
}

impl Reference {
    /// A reference that can run on up to `threads` threads at once.
    pub fn new(threads: usize) -> Self {
        let keys: Vec<Vec<u8>> = (0..KEYS as u64)
            .map(|i| crate::dirload::entry_bytes(99_999, i * 7_919).to_vec())
            .collect();
        let map = keys.iter().cloned().zip(0u32..).collect();
        let table =
            (0..TABLE_WORDS as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        let states = (1..=threads as u64).map(|t| t.wrapping_mul(0x2545_f491_4f6c_dd1d)).collect();
        Reference { keys, map, table, states }
    }

    /// One slice of the kernel; iterations per second.
    fn slice(&self, state: &mut u64, iterations: u64) -> f64 {
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..iterations {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            let key = self.keys[(*state >> 20) as usize % KEYS].clone();
            acc += u64::from(self.map[&key]);
            acc ^= self.table[(*state >> 33) as usize % TABLE_WORDS];
        }
        std::hint::black_box(acc);
        iterations as f64 / start.elapsed().as_secs_f64()
    }

    /// Runs one slice of the kernel on `threads` threads at once — as
    /// many as run the interval it is set against: a machine state that
    /// slows one busy virtual CPU and one that slows two are not the
    /// same state — and returns the machine's speed during it, as a
    /// share of the nominal rate.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or more than the reference was built for.
    pub fn speed(&mut self, threads: usize) -> f64 {
        let mut all = std::mem::take(&mut self.states);
        let rate = if let [state] = &mut all[..threads] {
            self.slice(state, ITERATIONS_ALONE) / NOMINAL_RATE_ALONE
        } else {
            let this = &*self;
            let rates: Vec<f64> = std::thread::scope(|scope| {
                let workers: Vec<_> = all[..threads]
                    .iter_mut()
                    .map(|state| scope.spawn(move || this.slice(state, ITERATIONS_SHARED)))
                    .collect();
                workers.into_iter().map(|w| w.join().expect("reference thread panicked")).collect()
            });
            rates.iter().sum::<f64>() / rates.len() as f64 / NOMINAL_RATE_SHARED
        };
        self.states = all;
        rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_reports_a_plausible_speed_alone_and_shared() {
        let mut reference = Reference::new(2);
        for threads in [1, 2] {
            let before = reference.states.clone();
            let speed = reference.speed(threads);
            assert!(speed.is_finite() && speed > 0.0, "{speed}");
            // Every key the kernel looks up is in the map (no panic), and
            // the generators of the threads that ran, and only those, moved on.
            let moved = reference.states.iter().zip(&before).filter(|(now, then)| now != then);
            assert_eq!(moved.count(), threads);
        }
    }
}
