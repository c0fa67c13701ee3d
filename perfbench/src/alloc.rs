//! A counting global allocator: live bytes, peak live bytes, and the
//! number and total size of allocations.
//!
//! `peak_heap_mb`, the per-report allocation counts and the forest-fit
//! heap peak all read from the one process-wide [`LEDGER`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Allocation counters. Every counter is a statistic that publishes no
/// other data, so `Relaxed` suffices.
pub struct Ledger {
    live: AtomicU64,
    peak: AtomicU64,
    allocs: AtomicU64,
    bytes: AtomicU64,
}

/// A reading of the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Bytes currently allocated.
    pub live: u64,
    /// Highest `live` since start or the last [`Ledger::reset_peak`].
    pub peak: u64,
    /// Allocations and reallocations so far.
    pub allocs: u64,
    /// Bytes requested by those allocations and reallocations.
    pub bytes: u64,
}

impl Ledger {
    /// A ledger with every counter at zero.
    pub const fn new() -> Self {
        Self {
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    fn grow(&self, by: u64) {
        let live = self.live.fetch_add(by, Relaxed) + by;
        self.peak.fetch_max(live, Relaxed);
    }

    /// Records an allocation of `size` bytes.
    pub fn on_alloc(&self, size: usize) {
        self.allocs.fetch_add(1, Relaxed);
        self.bytes.fetch_add(size as u64, Relaxed);
        self.grow(size as u64);
    }

    /// Records the release of `size` bytes.
    pub fn on_dealloc(&self, size: usize) {
        self.live.fetch_sub(size as u64, Relaxed);
    }

    /// Records a reallocation from `old` to `new` bytes.
    pub fn on_realloc(&self, old: usize, new: usize) {
        self.allocs.fetch_add(1, Relaxed);
        self.bytes.fetch_add(new as u64, Relaxed);
        if new >= old {
            self.grow((new - old) as u64);
        } else {
            self.live.fetch_sub((old - new) as u64, Relaxed);
        }
    }

    /// Reads every counter.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            live: self.live.load(Relaxed),
            peak: self.peak.load(Relaxed),
            allocs: self.allocs.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
        }
    }

    /// Restarts peak tracking from the current live bytes.
    pub fn reset_peak(&self) {
        self.peak.store(self.live.load(Relaxed), Relaxed);
    }

    /// Runs `f` and returns its result with the highest live bytes
    /// reached above the live bytes at entry. The enclosing peak is
    /// kept, so nested measurements do not disturb an outer one.
    pub fn peak_above<R>(&self, f: impl FnOnce() -> R) -> (R, u64) {
        let outer = self.peak.load(Relaxed);
        let base = self.live.load(Relaxed);
        self.peak.store(base, Relaxed);
        let out = f();
        let peak = self.peak.load(Relaxed);
        self.peak.fetch_max(outer, Relaxed);
        (out, peak.saturating_sub(base))
    }
}

/// The process-wide ledger behind the global allocator.
pub static LEDGER: Ledger = Ledger::new();

/// `System`, counted into [`LEDGER`].
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the ledger updates are
// plain atomic adds that neither allocate nor touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LEDGER.on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed through.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LEDGER.on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LEDGER.on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller guarantees `new_size` is valid for its alignment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LEDGER.on_realloc(layout.size(), new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes as mebibytes.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_and_peak_follow_alloc_realloc_and_free() {
        let l = Ledger::new();
        l.on_alloc(100);
        l.on_alloc(50);
        assert_eq!(
            l.snapshot(),
            Snapshot {
                live: 150,
                peak: 150,
                allocs: 2,
                bytes: 150
            }
        );
        l.on_dealloc(100);
        assert_eq!((l.snapshot().live, l.snapshot().peak), (50, 150));
        l.on_realloc(50, 400);
        assert_eq!(
            l.snapshot(),
            Snapshot {
                live: 400,
                peak: 400,
                allocs: 3,
                bytes: 550
            }
        );
        l.on_realloc(400, 10);
        assert_eq!((l.snapshot().live, l.snapshot().peak), (10, 400));
        l.reset_peak();
        assert_eq!(l.snapshot().peak, 10);
    }

    #[test]
    fn peak_above_measures_only_its_section_and_keeps_the_outer_peak() {
        let l = Ledger::new();
        l.on_alloc(1000);
        l.on_dealloc(900);
        let ((), above) = l.peak_above(|| {
            l.on_alloc(300);
            l.on_dealloc(300);
            l.on_alloc(20);
        });
        assert_eq!(above, 300);
        assert_eq!(
            l.snapshot().peak,
            1000,
            "outer peak survives the inner section"
        );
        assert_eq!(l.snapshot().live, 120);
    }

    #[test]
    fn the_global_allocator_counts_a_real_allocation() {
        // Other test threads allocate concurrently, so only bounds hold:
        // while the vector lives, the peak covers at least its bytes.
        let before = LEDGER.snapshot();
        let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(1 << 20));
        let during = LEDGER.snapshot();
        assert!(during.allocs > before.allocs);
        assert!(during.bytes >= before.bytes + (1 << 20));
        assert!(during.peak >= 1 << 20);
        drop(v);
    }
}
