//! A global allocator that counts requests and records the largest one,
//! for the tests that bound what a construction may allocate. Each of
//! them is alone in its binary, so the statics see only its own work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static REQUESTS: AtomicUsize = AtomicUsize::new(0);
static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

struct Recording;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only additions are atomic updates.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        LARGEST_REQUEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

/// Runs `f` and returns its result with the number of allocation
/// requests it made and the size of the largest, in bytes.
pub fn record<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    REQUESTS.store(0, Ordering::Relaxed);
    LARGEST_REQUEST.store(0, Ordering::Relaxed);
    let out = f();
    (
        out,
        REQUESTS.load(Ordering::Relaxed),
        LARGEST_REQUEST.load(Ordering::Relaxed),
    )
}
