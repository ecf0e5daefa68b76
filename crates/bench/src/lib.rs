//! # slsb-bench — the reproduction harness
//!
//! One regeneration function per table and figure of the paper (plus the
//! extension studies), shared by the `repro` binary and `slsb-benchmark`.
//! See [`experiments`] for the index.

pub mod cli;
pub mod diff;
pub mod experiments;

pub use diff::{diff, ArtifactKind, DiffReport};
pub use experiments::{run_experiment, ExperimentOutput, ReproConfig};

use std::alloc::{GlobalAlloc, Layout, System};

/// A pass-through allocator that counts allocations and follows live heap
/// bytes. Install it with `#[global_allocator]` in a binary or test to
/// make the [`slsb_sim::alloc`] counters live; they use relaxed atomics,
/// so the overhead is a few uncontended atomic updates per allocation
/// (plus one relaxed load for the profiler gate).
pub struct CountingAllocator;

// SAFETY: delegates allocation and deallocation directly to `System`;
// the counters have no effect on the returned memory, and the `note_*`
// hooks never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        slsb_sim::alloc::note_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        slsb_sim::alloc::note_dealloc(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        slsb_sim::alloc::note_realloc(layout.size(), new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
