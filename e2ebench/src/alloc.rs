//! A counting wrapper around the system allocator, installed for the whole
//! benchmark process (server, engine and load generator share it), so a
//! run can report the heap bytes its requests cost.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every byte it hands out (a `realloc`
/// counts its growth).
pub struct Counting;

// SAFETY: every call forwards unchanged to `System`; the counter has no
// bearing on the memory returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap bytes allocated by the process so far.
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}
