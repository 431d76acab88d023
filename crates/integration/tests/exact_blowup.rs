//! A key duplicated `k` times on both sides must cost `k` matches, not
//! `k²` candidates.
//!
//! One test in its own binary, under an allocator that records the
//! largest single request: a candidate list of 3000 × 3000 row matches
//! (24 bytes each) cannot exist without a request of a hundred megabytes.

mod recording;

use amalur_integration::{match_rows, ErConfig};
use amalur_relational::{DataType, Table, TableBuilder};

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
    let (matches, _, largest) =
        recording::record(|| match_rows(&l, &r, "k", "k", &ErConfig::default()).unwrap());

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
