//! The timer wheel's speed, as a same-process ratio against the reference
//! heap, so the verdict does not depend on how fast the host is.
//!
//! Both kernels run the steady-state pattern: a queue holding
//! [`RESIDENT`] events in which every pop schedules a replacement up to
//! 50 ms ahead, the shape a simulation's event queue has. They take turns
//! in [`ROUNDS`] rounds (which kernel goes first alternates), so a host
//! slowdown hits both, and the ratio of their median round times is
//! checked against [`MIN_WHEEL_SPEEDUP`].
//!
//! Timing means nothing in a debug build, so the test runs only under
//! `cargo test --release -p slsb-sim` (verify.sh runs it).

use slsb_sim::event::{EventQueue, ReferenceHeap, StoreKind, Wheel};
use slsb_sim::{SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// Pending events held in the queue throughout.
const RESIDENT: u64 = 4_096;
/// Pops (each followed by one schedule) per kernel per round.
const STEPS: u64 = 200_000;
/// Rounds per kernel.
const ROUNDS: usize = 9;

/// Floor on median heap time over median wheel time. Over 114 clean runs
/// on a 2-vCPU VM the ratio read 2.49–3.24 (the heap's time moves with
/// what else the host runs); the floor sits 8% under the lowest. There,
/// a wheel slowed by 45% or more failed every run, by 35% 59 runs in 60,
/// and by 27% 35 in 40.
const MIN_WHEEL_SPEEDUP: f64 = 2.3;

/// Cheap deterministic mix for event delays.
fn mix(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// Seconds one kernel takes for [`STEPS`] steady-state steps.
fn steady_state_s<K: StoreKind>() -> f64 {
    let mut q = EventQueue::<u64, K>::with_store_capacity(RESIDENT as usize);
    for i in 0..RESIDENT {
        q.schedule_at(SimTime::from_micros(mix(i) % 1_000_000), i);
    }
    let t0 = Instant::now();
    for _ in 0..STEPS {
        let (at, ev) = q.pop().expect("queue stays populated");
        let next = mix(ev);
        q.schedule_at(at + SimDuration::from_micros(1 + next % 50_000), next);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    black_box(q.len());
    elapsed
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing: run with --release")]
fn wheel_outpaces_the_reference_heap_on_steady_state() {
    // One untimed pass each to warm the allocator and the caches.
    steady_state_s::<Wheel>();
    steady_state_s::<ReferenceHeap>();
    let (mut wheel, mut heap) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        if round % 2 == 0 {
            wheel.push(steady_state_s::<Wheel>());
            heap.push(steady_state_s::<ReferenceHeap>());
        } else {
            heap.push(steady_state_s::<ReferenceHeap>());
            wheel.push(steady_state_s::<Wheel>());
        }
    }
    let (wheel_s, heap_s) = (median(&mut wheel), median(&mut heap));
    let ratio = heap_s / wheel_s;
    eprintln!(
        "steady state: wheel {:.1} ns/step, heap {:.1} ns/step, ratio {ratio:.3}",
        wheel_s * 1e9 / STEPS as f64,
        heap_s * 1e9 / STEPS as f64
    );
    assert!(
        ratio >= MIN_WHEEL_SPEEDUP,
        "the wheel is only {ratio:.2}x the reference heap's speed on steady state \
         (floor {MIN_WHEEL_SPEEDUP})"
    );
}
