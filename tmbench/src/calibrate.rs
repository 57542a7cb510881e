//! Reference-speed timing: row times scaled by a fixed calibration
//! kernel timed just before each row.
//!
//! On a shared machine the program's speed swings with other tenants'
//! use of the shared last-level cache and memory. On a 2-core x86-64 VM
//! the same untraced `safety` table took 3.4 s in one minute and 6.6 s a
//! few minutes later; the swings last 10–20 s, so no estimator inside
//! one run removes them. A kernel of random read-modify-writes over a
//! table four times the size of L2 slows with the same contention (a
//! cache-resident kernel does not). Each row is scaled by the median of
//! the last [`WINDOW`] kernel times, the latest taken just before the
//! row: over ten 30-s runs per workload on that VM this cut the spread
//! of the verdict time (interquartile range over median) from
//! 9% / 9% / 18% / 6% to 6% / 4% / 5% / 4% for `safety`, `liveness`,
//! `online-hot` and `online-cold`. A sequential pass over the table
//! before each timing keeps a preceding row that evicted the table from
//! inflating the kernel's time.
//!
//! The kernel is the benchmark's own fixed code and shares nothing with
//! the program under test, so a change to the program moves a scaled
//! time exactly as it moves the wall time; only the machine's state is
//! divided out. Scaled times are reported in *reference seconds*: wall
//! seconds times [`REFERENCE_S`] over the kernel's time. Raw wall times
//! stay in the detail line.

use std::collections::VecDeque;
use std::time::Instant;

use crate::stats::median;

/// Kernel time the scaled seconds are expressed against (about the
/// kernel's time on the 2-core VM above when it is quiet).
pub const REFERENCE_S: f64 = 0.005;

/// Kernel times the speed estimate is the median of.
pub const WINDOW: usize = 5;

/// `u64` slots in the table: 8 MiB, past every core's L2.
const SLOTS: usize = 1 << 20;

const ITERATIONS: usize = 1 << 20;

/// The calibration kernel, its table (allocated and touched once, so no
/// timing pays for page faults) and its latest times.
pub struct Calibrator {
    table: Vec<u64>,
    state: u64,
    recent: VecDeque<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            table: vec![1; SLOTS],
            state: 0x9e37_79b9_7f4a_7c15,
            recent: VecDeque::with_capacity(WINDOW),
        }
    }

    /// Runs the kernel once and returns the machine's current speed as
    /// the median kernel time over the last [`WINDOW`] runs.
    pub fn sample(&mut self) -> f64 {
        let warm = self
            .table
            .iter()
            .fold(0, |acc: u64, &x| acc.wrapping_add(x));
        let mut x = self.state ^ (std::hint::black_box(warm) & 1);
        let start = Instant::now();
        for _ in 0..ITERATIONS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[(x as usize) & (SLOTS - 1)];
            *slot = slot.wrapping_add(x);
        }
        let secs = start.elapsed().as_secs_f64();
        self.state = std::hint::black_box(x);
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(secs);
        median(self.recent.make_contiguous())
    }

    /// `secs`, measured at a kernel time of `kernel_s`, in reference
    /// seconds.
    pub fn scale(secs: f64, kernel_s: f64) -> f64 {
        secs * REFERENCE_S / kernel_s
    }
}
