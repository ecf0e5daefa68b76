//! Allocation accounting shared by the whole workspace.
//!
//! The `slsb` binary installs a counting `#[global_allocator]` (see
//! `slsb-bench`); the counter itself lives here, at the bottom of the crate
//! graph, so any layer can read it and the bench crate does not need to be a
//! dependency of the code it measures.
//!
//! [`allocation_count`] is a single process-wide relaxed counter, always
//! on: one `fetch_add` per allocation. Per-subsystem attribution is the
//! profiler's job: while [`crate::prof`] is enabled, each allocation is
//! also charged to the innermost open [`crate::prof::ProfGuard`] scope on
//! the allocating thread, and the profile tree's per-node `allocs` are the
//! only breakdown there is.

use std::sync::atomic::{AtomicU64, Ordering};

static COUNT: AtomicU64 = AtomicU64::new(0);

/// Records one allocation. Called by the counting global allocator; must not
/// allocate (it runs inside `GlobalAlloc::alloc`).
#[inline]
pub fn note_alloc() {
    COUNT.fetch_add(1, Ordering::Relaxed);
    if crate::prof::enabled() {
        crate::prof::note_thread_alloc();
    }
}

/// Total allocations observed since process start (0 unless a counting
/// allocator is installed).
#[inline]
pub fn allocation_count() -> u64 {
    COUNT.load(Ordering::Relaxed)
}
