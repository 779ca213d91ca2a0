//! A reference CPU job the benchmark runs between operations, to state
//! CPU time at a reference machine speed.
//!
//! On a shared host the same work takes a different CPU time from one
//! minute to the next: the clock rate, and the core's other hyperthread,
//! change with what the neighbours run. Time the host takes the CPU away
//! is left out of CPU time already, but this slow-down is not. The
//! kernel here runs the same instructions every time and does not touch
//! the system under test or its heap, so the ratio of its CPU time now to
//! its CPU time at a quiet moment is taken as the slow-down the
//! operations around it suffered too; `cpu_ms_per_op` and `setup_s`
//! divide it out. Its own CPU time is not charged to the operations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::stats::thread_cpu_seconds;

/// How often each measuring thread runs the kernel: about 2% of a
/// thread's time, and some 100 samples per slice of a 20 s run.
const EVERY: Duration = Duration::from_millis(20);

/// Numbers the kernel sorts and searches (32 KiB on the stack).
const WORDS: usize = 4096;

/// The kernel's CPU time, in ms, on the machine the benchmark was tuned
/// on (a 2-vCPU VM on an Intel Xeon, family 6 model 143) while it was
/// quiet. `cpu_ms_per_op` is stated at this speed.
pub const REFERENCE_MS: f64 = 0.18;

/// Kernel runs of one measured phase, shared by the threads that issue
/// its operations.
pub struct Calibration {
    start: Instant,
    cpu_ns: AtomicU64,
    samples: Mutex<Vec<(f64, f64)>>,
}

impl Calibration {
    pub fn new(start: Instant) -> Calibration {
        Calibration {
            start,
            cpu_ns: AtomicU64::new(0),
            samples: Mutex::new(Vec::new()),
        }
    }

    /// Run the kernel on this thread if `EVERY` has passed since its
    /// last run here (`last`), and record its thread CPU time.
    pub fn tick(&self, last: &mut Option<Instant>) {
        let now = Instant::now();
        if last.is_some_and(|l| now.duration_since(l) < EVERY) {
            return;
        }
        *last = Some(now);
        let ms = kernel_ms();
        self.cpu_ns.fetch_add((ms * 1e6) as u64, Ordering::Relaxed);
        self.samples
            .lock()
            .expect("a thread panicked while recording a kernel run")
            .push((now.duration_since(self.start).as_secs_f64(), ms / 1e3));
    }

    /// CPU time all kernel runs so far have used, in seconds; operation
    /// CPU marks subtract it, so the kernel is not charged to them.
    pub fn cpu_s(&self) -> f64 {
        self.cpu_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Each run's start (seconds from the phase start) and CPU seconds.
    pub fn samples(&self) -> Vec<(f64, f64)> {
        self.samples
            .lock()
            .expect("a thread panicked while recording a kernel run")
            .clone()
    }
}

/// Run the kernel once; returns the CPU time it took on this thread, in
/// ms.
pub fn kernel_ms() -> f64 {
    let cpu0 = thread_cpu_seconds();
    std::hint::black_box(kernel());
    (thread_cpu_seconds() - cpu0) * 1e3
}

/// Sorting and binary search over a fixed array on the stack. It uses
/// no heap, so the program's heap and allocator state cannot change its
/// speed; only the machine can.
fn kernel() -> u64 {
    let mut a = [0u64; WORDS];
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    for v in a.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *v = x;
    }
    a.sort_unstable();
    (0..WORDS).fold(0u64, |acc, i| {
        let probe = a[(i * 7919) % WORDS];
        acc.wrapping_add(a.binary_search(&probe).unwrap_or(0) as u64)
    })
}
