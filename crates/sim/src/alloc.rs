//! Allocation accounting shared by the whole workspace.
//!
//! The `slsb` binary installs a counting `#[global_allocator]` (see
//! `slsb-bench`); the counters themselves live here, at the bottom of the
//! crate graph, so any layer can read them and the bench crate does not
//! need to be a dependency of the code it measures.
//!
//! [`allocation_count`] is a single process-wide relaxed counter, always
//! on: one `fetch_add` per allocation. Beside it, [`live_bytes`] follows
//! the bytes currently allocated and [`peak_live_bytes`] their high-water
//! mark since the last [`reset_peak_live_bytes`], which is how memory
//! bounds are pinned. Per-subsystem attribution is the profiler's job:
//! while [`crate::prof`] is enabled, each allocation is also charged to
//! the innermost open [`crate::prof::ProfGuard`] scope on the allocating
//! thread, and the profile tree's per-node `allocs` are the only breakdown
//! there is.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static COUNT: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Records one allocation of `bytes`. Called by the counting global
/// allocator; must not allocate (it runs inside `GlobalAlloc::alloc`).
#[inline]
pub fn note_alloc(bytes: usize) {
    COUNT.fetch_add(1, Ordering::Relaxed);
    grow(bytes);
    if crate::prof::enabled() {
        crate::prof::note_thread_alloc();
    }
}

/// Records the release of an allocation of `bytes`.
#[inline]
pub fn note_dealloc(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// Records a reallocation from `old` to `new` bytes: one allocation, and
/// the live size moves by the difference.
#[inline]
pub fn note_realloc(old: usize, new: usize) {
    note_alloc(new.saturating_sub(old));
    note_dealloc(old.saturating_sub(new));
}

#[inline]
fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Total allocations observed since process start (0 unless a counting
/// allocator is installed).
#[inline]
pub fn allocation_count() -> u64 {
    COUNT.load(Ordering::Relaxed)
}

/// Bytes currently allocated (0 unless a counting allocator is installed).
#[inline]
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of [`live_bytes`] since the last
/// [`reset_peak_live_bytes`] (or process start).
#[inline]
pub fn peak_live_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Restarts the high-water mark from the current live size, so the next
/// [`peak_live_bytes`] covers only what happens after this call.
pub fn reset_peak_live_bytes() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}
