//! Counting global allocator: a deterministic peak-RSS proxy for benchmarks.
//!
//! `ddp-benchmark`, the `ddp-experiments` binary and the tier-1 allocation
//! gate install this as the `#[global_allocator]` and read back live/peak
//! heap bytes plus allocation counts around a measured region. Unlike OS-level RSS sampling this is
//! exact, portable, and reproducible: the same run produces the same numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System-allocator wrapper that tracks live bytes, peak live bytes, and the
/// number of allocation calls since the last [`CountingAlloc::reset`].
///
/// All counters use relaxed atomics: the benchmarks are single-threaded over
/// the measured region, and even under the worker pool's fan-out the counts
/// stay exact (only the peak may be under-reported by a rarely-lost race,
/// which is acceptable for a proxy metric).
pub struct CountingAlloc {
    current: AtomicUsize,
    peak: AtomicUsize,
    allocs: AtomicUsize,
}

impl CountingAlloc {
    /// A fresh counter set (usable in `static` position).
    pub const fn new() -> Self {
        CountingAlloc {
            current: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            allocs: AtomicUsize::new(0),
        }
    }

    /// Live heap bytes right now.
    pub fn current_bytes(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// High-water mark of live heap bytes since the last reset.
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Allocation calls (alloc + realloc) since the last reset.
    pub fn allocations(&self) -> usize {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Rebase the peak and allocation count to the current live size, so a
    /// measured region reports only its own growth.
    pub fn reset(&self) {
        let live = self.current.load(Ordering::Relaxed);
        self.peak.store(live, Ordering::Relaxed);
        self.allocs.store(0, Ordering::Relaxed);
    }

    fn record_alloc(&self, size: usize) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        let live = self.current.fetch_add(size, Ordering::Relaxed) + size;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn record_dealloc(&self, size: usize) {
        self.current.fetch_sub(size, Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

// SAFETY: delegates every operation to `System`; only side effect is atomic
// counter bookkeeping, which allocates nothing itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        self.record_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                let live = self.current.fetch_add(grow, Ordering::Relaxed) + grow;
                self.peak.fetch_max(live, Ordering::Relaxed);
            } else {
                self.current.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Not installed as the global allocator in unit tests; exercise the
    // bookkeeping through the GlobalAlloc entry points directly.
    #[test]
    fn tracks_live_peak_and_count() {
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(1024, 8).unwrap();
        let p1 = unsafe { a.alloc(layout) };
        let p2 = unsafe { a.alloc(layout) };
        assert_eq!(a.current_bytes(), 2048);
        assert_eq!(a.peak_bytes(), 2048);
        assert_eq!(a.allocations(), 2);
        unsafe { a.dealloc(p1, layout) };
        assert_eq!(a.current_bytes(), 1024);
        assert_eq!(a.peak_bytes(), 2048, "peak is a high-water mark");
        unsafe { a.dealloc(p2, layout) };
        assert_eq!(a.current_bytes(), 0);
    }

    #[test]
    fn reset_rebases_to_live() {
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(64, 8).unwrap();
        let keep = unsafe { a.alloc(layout) };
        let drop_me = unsafe { a.alloc(layout) };
        unsafe { a.dealloc(drop_me, layout) };
        a.reset();
        assert_eq!(a.peak_bytes(), 64, "peak rebased to live bytes");
        assert_eq!(a.allocations(), 0);
        let p = unsafe { a.alloc(layout) };
        assert_eq!(a.peak_bytes(), 128);
        assert_eq!(a.allocations(), 1);
        unsafe { a.dealloc(p, layout) };
        unsafe { a.dealloc(keep, layout) };
    }

    #[test]
    fn realloc_adjusts_live_both_ways() {
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(100, 8).unwrap();
        let p = unsafe { a.alloc(layout) };
        let p = unsafe { a.realloc(p, layout, 300) };
        assert_eq!(a.current_bytes(), 300);
        let big = Layout::from_size_align(300, 8).unwrap();
        let p = unsafe { a.realloc(p, big, 50) };
        assert_eq!(a.current_bytes(), 50);
        assert_eq!(a.peak_bytes(), 300);
        unsafe { a.dealloc(p, Layout::from_size_align(50, 8).unwrap()) };
        assert_eq!(a.current_bytes(), 0);
    }
}
