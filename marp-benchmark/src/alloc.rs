//! A counting global allocator: heap allocations and peak live bytes,
//! the source of `allocs_per_op` and `peak_live_mb`.
//!
//! The type lives here; the `#[global_allocator]` static is declared by
//! each binary that wants the counts (`marp-benchmark`, the allocator
//! test), because a library must not choose its users' allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// Statistics only: no other data is published through these, so every
// access is `Relaxed`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus three counters.
pub struct CountingAlloc;

impl CountingAlloc {
    fn grew(bytes: usize) {
        let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    /// Count a fresh allocation of `bytes`, unless it failed.
    fn obtained(ptr: *mut u8, bytes: usize) -> *mut u8 {
        if !ptr.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            Self::grew(bytes);
        }
        ptr
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counters never touch
// the memory being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        Self::obtained(unsafe { System.alloc(layout) }, layout.size())
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        Self::obtained(unsafe { System.alloc_zeroed(layout) }, layout.size())
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator with `layout`; the caller
        // guarantees `new_size` is valid for `layout.align()`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            // A realloc is one more trip to the allocator.
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            if new_size >= layout.size() {
                Self::grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed);
            }
        }
        new
    }
}

/// Allocation counts over an interval, from [`HeapMark::since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapDelta {
    /// Calls that obtained memory (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocs: u64,
    /// Highest live-byte count reached, above the count at the mark.
    pub peak_bytes: u64,
}

/// A point to measure heap use from. Reads zeros throughout unless the
/// running binary installed [`CountingAlloc`].
#[derive(Debug, Clone, Copy)]
pub struct HeapMark {
    allocs: u64,
    live: u64,
}

impl HeapMark {
    /// Mark now, and restart the peak from the current live size.
    pub fn now() -> Self {
        let live = LIVE.load(Ordering::Relaxed);
        PEAK.store(live, Ordering::Relaxed);
        HeapMark {
            allocs: ALLOCS.load(Ordering::Relaxed),
            live,
        }
    }

    /// What happened since the mark.
    pub fn since(&self) -> HeapDelta {
        HeapDelta {
            allocs: ALLOCS.load(Ordering::Relaxed) - self.allocs,
            peak_bytes: PEAK.load(Ordering::Relaxed).saturating_sub(self.live),
        }
    }
}
