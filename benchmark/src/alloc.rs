//! Counting global allocator behind the `host.alloc_*` metrics. Always
//! installed — in both modes and on both sides of any comparison — so its
//! cost (two relaxed atomic adds per allocation) cancels out.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// `(allocations and reallocations, bytes requested)` since process start.
pub fn snapshot() -> (u64, u64) {
    (COUNT.load(Relaxed), BYTES.load(Relaxed))
}

fn count(bytes: usize) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
}

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's obligations are exactly `System`'s and `System` upholds the
// `GlobalAlloc` contract; the counters are statistics that publish no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count(l.size());
        // SAFETY: as stated on the impl.
        unsafe { System.alloc(l) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count(l.size());
        // SAFETY: as stated on the impl.
        unsafe { System.alloc_zeroed(l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as stated on the impl.
        unsafe { System.realloc(p, l, new_size) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: as stated on the impl.
        unsafe { System.dealloc(p, l) }
    }
}
