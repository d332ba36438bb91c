//! Host-speed normalisation.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of per
//! cent over seconds to minutes as other tenants load the host. The
//! simulator is deterministic, so that drift is nearly all of the
//! run-to-run spread of its host time. A fixed reference computation,
//! timed right before and right after every operation (and after its
//! after-op work), measures how fast the host is at that moment, and
//! every host time the benchmark reports is scaled to the speed at which
//! the reference computation takes [`REFERENCE_MS`].
//!
//! The reference computation is benchmark code: a change to the simulator
//! moves the scaled times exactly as much as it moves the raw ones. It
//! sorts random keys and allocates and frees small boxes, the mix whose
//! slowdown tracked the simulator's best among the probes tried (a pure
//! ALU chain, pointer chasing over 16 MiB, a small `BTreeMap`, sorting
//! alone, allocation alone).

use std::time::Instant;

/// Host time of one reference computation at reference speed, in ms.
pub const REFERENCE_MS: f64 = 1.0;

/// The reference computation and its reused buffer.
pub struct Reference {
    keys: Vec<u64>,
    x: u64,
}

impl Reference {
    const ROUNDS: usize = 2;
    const KEYS: usize = 16 * 1024;
    const BOXES: u64 = 4000;

    pub fn new() -> Self {
        let mut r = Reference { keys: Vec::with_capacity(Self::KEYS), x: 0x9E37_79B9_7F4A_7C15 };
        r.time_ms();
        r
    }

    /// Runs the reference computation once; returns its host time in ms.
    pub fn time_ms(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..Self::ROUNDS {
            self.keys.clear();
            for _ in 0..Self::KEYS {
                self.x ^= self.x << 13;
                self.x ^= self.x >> 7;
                self.x ^= self.x << 17;
                self.keys.push(self.x);
            }
            self.keys.sort_unstable();
            let boxes: Vec<Box<[u64; 4]>> = (0..Self::BOXES).map(|i| Box::new([i; 4])).collect();
            std::hint::black_box((&self.keys, boxes));
        }
        t.elapsed().as_secs_f64() * 1e3
    }

    /// The factor that scales a host time measured between two reference
    /// computations of `before_ms` and `after_ms` to reference speed.
    pub fn scale(before_ms: f64, after_ms: f64) -> f64 {
        2.0 * REFERENCE_MS / (before_ms + after_ms)
    }
}
