//! Opt-in global-allocator instrumentation (feature `alloc-stats`).
//!
//! A counting wrapper around the system allocator so benchmarks and
//! `repro --bench-out` can report allocation traffic per simulated
//! session, plus a live-bytes gauge with a high-water mark so the
//! constant-memory claim of the streaming results path is measurable
//! without an external profiler. Counters are process-global relaxed
//! atomics: cheap enough to leave in the hot path, and summed correctly
//! across executor worker threads.
//!
//! This is the one module in the workspace that needs `unsafe` (the
//! `GlobalAlloc` contract); the crate-wide `forbid(unsafe_code)` is
//! relaxed to `deny` outside this feature-gated file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Number of power-of-two size classes tracked by the histogram.
pub const SIZE_CLASSES: usize = 20;

/// Allocation counts by power-of-two size class: bucket `i` counts
/// allocations of `2^(i-1) < size <= 2^i` bytes (bucket 0: 0 or 1 byte),
/// with everything `> 2^(SIZE_CLASSES-2)` in the last bucket. A cheap
/// fingerprint of *what* is allocating when no profiler is available.
static BY_SIZE: [AtomicU64; SIZE_CLASSES] = [const { AtomicU64::new(0) }; SIZE_CLASSES];

fn size_class(size: u64) -> usize {
    (64 - size.leading_zeros() as usize).min(SIZE_CLASSES - 1)
}

/// Raises the high-water mark to at least `live`.
fn update_peak(live: u64) {
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Sample one allocation backtrace per this many allocations (0 = off).
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(0);
static SAMPLES: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());
const MAX_SAMPLES: usize = 4096;

std::thread_local! {
    /// Reentrancy guard: capturing/formatting a backtrace allocates, and
    /// those allocations must not recurse into the sampler.
    static IN_SAMPLER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Allocations made by this thread: see [`thread_allocs`].
    static THREAD_ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Allocations the calling thread has made since it started, counted as
/// [`snapshot`] counts them: what a probe of one call reads when other
/// threads (a test harness's, say) allocate beside it.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(std::cell::Cell::get)
}

fn count_thread_alloc() {
    // A thread being torn down has no counter left to bump.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Turns on backtrace sampling: every `every`-th allocation records its
/// backtrace (pass 0 to turn sampling off). An allocation is what
/// [`snapshot`] counts — `alloc`, `alloc_zeroed` and `realloc` alike — so
/// at `every = 1` the samples add up to the counter. A profiler of last
/// resort — expensive while on, so only for targeted probes.
pub fn start_sampling(every: u64) {
    SAMPLE_EVERY.store(every, Ordering::Relaxed);
}

/// Drains and returns the `(size, backtrace)` samples collected so far.
pub fn take_samples() -> Vec<(u64, String)> {
    match SAMPLES.lock() {
        Ok(mut v) => std::mem::take(&mut *v),
        Err(_) => Vec::new(),
    }
}

fn maybe_sample(size: u64, count: u64) {
    let every = SAMPLE_EVERY.load(Ordering::Relaxed);
    if every == 0 || !count.is_multiple_of(every) {
        return;
    }
    IN_SAMPLER.with(|flag| {
        if flag.get() {
            return;
        }
        flag.set(true);
        let bt = std::backtrace::Backtrace::force_capture();
        let text = format!("{bt}");
        if let Ok(mut v) = SAMPLES.lock() {
            if v.len() < MAX_SAMPLES {
                v.push((size, text));
            }
        }
        flag.set(false);
    });
}

fn on_alloc(size: u64) {
    count_thread_alloc();
    let count = ALLOCS.fetch_add(1, Ordering::Relaxed) + 1;
    BYTES.fetch_add(size, Ordering::Relaxed);
    BY_SIZE[size_class(size)].fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    update_peak(live);
    maybe_sample(size, count);
}

/// A [`GlobalAlloc`] that counts allocations and allocated bytes before
/// delegating to [`System`]. Install with `#[global_allocator]`:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: rv_sim::alloc_stats::CountingAlloc = rv_sim::alloc_stats::CountingAlloc;
/// ```
pub struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`, which upholds
// the GlobalAlloc contract; the added atomic counters have no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size() as u64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is a fresh allocation of the new size for accounting
        // purposes (that is what it costs when it cannot grow in place);
        // the live gauge nets out the old block. Sampled like `alloc`, so
        // a census of sites adds up to `ALLOCS`.
        count_thread_alloc();
        let count = ALLOCS.fetch_add(1, Ordering::Relaxed) + 1;
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        BY_SIZE[size_class(new_size as u64)].fetch_add(1, Ordering::Relaxed);
        let old = layout.size() as u64;
        let new = new_size as u64;
        if new >= old {
            let live = LIVE.fetch_add(new - old, Ordering::Relaxed) + (new - old);
            update_peak(live);
        } else {
            // Saturating, like dealloc: the shrunk block may predate a
            // `reset()`.
            let delta = old - new;
            let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
                Some(live.saturating_sub(delta))
            });
        }
        maybe_sample(new, count);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // Saturating: blocks allocated before a `reset()` may outlive the
        // gauge they were counted in.
        let size = layout.size() as u64;
        let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
            Some(live.saturating_sub(size))
        });
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Cumulative allocation counts per power-of-two size class since process
/// start (or the last [`reset`]); bucket `i` covers sizes up to `2^i`
/// bytes (see [`SIZE_CLASSES`]).
pub fn size_histogram() -> [u64; SIZE_CLASSES] {
    let mut out = [0u64; SIZE_CLASSES];
    for (slot, counter) in out.iter_mut().zip(BY_SIZE.iter()) {
        *slot = counter.load(Ordering::Relaxed);
    }
    out
}

/// Cumulative `(allocations, bytes)` since process start (or the last
/// [`reset`]).
pub fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// High-water mark of live heap bytes since process start (or the last
/// [`reset`]) — the number the campaign's flat-memory acceptance check
/// gates on.
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Zeroes the cumulative counters and re-arms the high-water mark at the
/// current live size (the live gauge itself is left alone so frees of
/// pre-reset blocks keep netting out).
pub fn reset() {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    for counter in &BY_SIZE {
        counter.store(0, Ordering::Relaxed);
    }
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}
