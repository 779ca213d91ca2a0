//! Percentiles and process resource readings.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The `p`-quantile (0..=1) of `sorted` by the nearest-rank rule.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system) all threads of this process have used, in
/// seconds. On a virtual machine with steal accounting it leaves out time
/// the host ran something else.
pub fn cpu_seconds() -> f64 {
    cpu_clock(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU time the calling thread has used, in seconds.
pub fn thread_cpu_seconds() -> f64 {
    cpu_clock(3) // CLOCK_THREAD_CPUTIME_ID
}

/// `clock_gettime` on a CPU-time clock: nanosecond resolution.
fn cpu_clock(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        0.0
    }
}

/// A stable digest of a value (std's SipHash with fixed keys), for
/// comparing replies with references after the timed region.
pub fn digest<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}
