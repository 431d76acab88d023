//! A key duplicated `k` times on both sides must cost `k` matches, not
//! `k²` candidates.
//!
//! One test in its own binary, under an allocator that records the
//! largest single request: a candidate list of 3000 × 3000 row matches
//! (24 bytes each) cannot exist without a request of a hundred megabytes.

use amalur_integration::{match_rows, ErConfig};
use amalur_relational::{DataType, Table, TableBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

struct Recording;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is an atomic store.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

const COPIES: usize = 3000;

fn repeated(name: &str, key: &str) -> Table {
    let mut b = TableBuilder::new(name, &[("k", DataType::Utf8)]).unwrap();
    for _ in 0..COPIES {
        b = b.row(vec![key.into()]).unwrap();
    }
    b.build()
}

#[test]
fn a_key_duplicated_3000_times_zips_without_a_quadratic_candidate_list() {
    let (l, r) = (repeated("l", "same key"), repeated("r", "same key"));
    LARGEST_REQUEST.store(0, Ordering::Relaxed);
    let matches = match_rows(&l, &r, "k", "k", &ErConfig::default()).unwrap();
    let largest = LARGEST_REQUEST.load(Ordering::Relaxed);

    assert_eq!(matches.len(), COPIES);
    for (i, m) in matches.iter().enumerate() {
        assert_eq!((m.left, m.right, m.score), (i, i, 1.0));
    }
    // Rendered keys, row orders and the matches themselves are a few
    // dozen bytes per row; 9 M candidates would be 216 MB.
    assert!(
        largest < 1 << 20,
        "a single allocation of {largest} bytes for {COPIES} + {COPIES} rows"
    );
}
