//! Host speed reference.
//!
//! The shared host this benchmark was built on changes speed by 30–50% for
//! seconds to minutes at a time, for everything running on it, without
//! steal time: the vCPU simply runs slower. The slowdown is not uniform.
//! Register arithmetic barely moves, while code that allocates and writes
//! fresh heap memory (which is what the simulator does) slows the most.
//! So the reference is a fixed kernel of that kind: it builds 50 000 short
//! strings in a vector. It is timed just before each measurement, and the
//! measurement is rescaled by the kernel's speed at that moment.
//!
//! The kernel is chosen by measurement. Over 2.5–5 minutes of back-to-back
//! reps of one workload, the median rep of each 12-second window spread by
//! 3–28% (interquartile range over median). Rescaling each rep by this
//! kernel cut that to 2–5% on every workload. A register-only kernel left
//! 3–29%, a random walk over 32 MiB 7–17%, and a page-touching kernel
//! 13–21%.
//! The kernel runs on the calling thread: run on a thread of its own, it
//! tracked worse. Its time does not depend on what the workload left on the
//! heap; after two different workloads it differed by under 1%.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Strings one kernel run builds, about 6 ms on the reference host.
const STRINGS: usize = 50_000;

/// Kernel runs per speed sample; the sample is their median.
const RUNS_PER_SAMPLE: usize = 3;

/// Seconds one kernel run takes on the reference host (a 2-vCPU Intel Xeon
/// VM in a fast stretch): the speed reported times are rescaled to.
const REFERENCE_S: f64 = 0.006;

fn kernel_s() -> f64 {
    let t0 = Instant::now();
    let mut v: Vec<String> = Vec::new();
    for i in 0..STRINGS {
        v.push(format!("app-{i:05}"));
    }
    black_box(&v);
    drop(v);
    t0.elapsed().as_secs_f64()
}

/// Kernel runs before the first sample. A young heap returns freed memory
/// to the OS, so the first few runs also time page faults (up to twice as
/// long); the allocator stops doing that after a few large frees.
const WARM_UP_RUNS: usize = 10;

/// Brings the allocator to the state the kernel is timed in; call once
/// before the first [`factor`].
pub fn warm_up() {
    for _ in 0..WARM_UP_RUNS {
        kernel_s();
    }
}

/// Samples the host's speed now: the factor that rescales host seconds
/// measured right after to the reference host's. Below 1 while the host
/// runs slow.
pub fn factor() -> f64 {
    let runs: Vec<f64> = (0..RUNS_PER_SAMPLE).map(|_| kernel_s()).collect();
    REFERENCE_S / median(&runs)
}

/// One timed measurement and the host's speed sampled just before it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    pub host_s: f64,
    pub factor: f64,
}

impl Timed {
    /// Samples the host's speed, then times `f`.
    pub fn run<R>(f: impl FnOnce() -> R) -> (R, Timed) {
        let factor = factor();
        let t0 = Instant::now();
        let out = f();
        let host_s = t0.elapsed().as_secs_f64();
        (out, Timed { host_s, factor })
    }

    /// The measurement in seconds on the reference host.
    pub fn reference_s(self) -> f64 {
        self.host_s * self.factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_timed_run_is_rescaled_by_the_speed_sampled_before_it() {
        let (out, t) = Timed::run(|| 7);
        assert_eq!(out, 7);
        assert!(t.host_s >= 0.0 && t.factor > 0.0 && t.factor.is_finite());
        let slow = Timed {
            host_s: 2.0,
            factor: 0.5,
        };
        assert_eq!(slow.reference_s(), 1.0);
    }
}
