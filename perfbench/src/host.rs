//! How fast the host runs. The reference host is a shared 2-vCPU VM whose
//! speed drifts by up to 1.7× between spells that last from seconds to many
//! minutes, with no steal time to show for it: within one spell a run's
//! latency median repeats to 2 %, across spells it does not. A fixed job,
//! run by the benchmark before and after every set-up and every load
//! segment while `seedbd` is idle, times the spell; each segment's times are
//! reported divided by the mean slowdown of the jobs on either side of it,
//! so two runs of the same code agree across spells. The
//! job is the benchmark's own code, so a change to `seedbd` cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// What one job takes on the reference host in a fast spell, in ms.
pub const REFERENCE_MS: f64 = 8.0;

/// Bytes the job scans as UTF-8, like `Json::parse` does an upload body.
const SCAN_BYTES: usize = 64 * 1024;
const SCANS: usize = 600;
/// Slots of the table the job aggregates into at random, like the
/// engine's group-by over a BANK column.
const SLOTS: usize = 1 << 17;
const UPDATES: usize = 3 << 20;

/// The job's buffers, allocated once so page faults stay out of its time,
/// and every job time taken so far.
pub struct Calibration {
    text: Vec<u8>,
    table: Vec<u64>,
    times_ms: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration {
            text: (0..SCAN_BYTES).map(|i| b'a' + (i % 26) as u8).collect(),
            table: vec![0; SLOTS],
            times_ms: Vec::new(),
        }
    }

    /// Times one job; returns the host's slowdown it shows.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let mut valid = 0usize;
        for i in 0..SCANS {
            valid += std::str::from_utf8(black_box(&self.text[i % 64..])).map_or(0, str::len);
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.table[(x as usize) & (SLOTS - 1)] += x & 0xFF;
        }
        black_box((valid, &self.table));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.times_ms.push(ms);
        ms / REFERENCE_MS
    }

    /// Jobs timed so far.
    pub fn jobs(&self) -> usize {
        self.times_ms.len()
    }

    /// The host's slowdown against the reference host's fast spell: the
    /// median job time over [`REFERENCE_MS`].
    pub fn slowdown(&self) -> f64 {
        let mut t = self.times_ms.clone();
        t.sort_by(f64::total_cmp);
        t.get(t.len() / 2).map_or(1.0, |m| m / REFERENCE_MS)
    }
}
