//! The redundancy index is built per *group*, not per row.
//!
//! One test in its own binary, under the recording allocator: a
//! 50 000-row source sharing two columns with the base has one non-empty
//! group, so its index is a handful of flat vectors — not one heap `Vec`
//! per target row.

mod recording;

use amalur_integration::{IndicatorMatrix, MappingMatrix, RedundancyMatrix};

const ROWS: usize = 50_000;
const DIM_ROWS: usize = 500;

#[test]
fn a_50000_row_source_builds_its_index_without_per_row_allocations() {
    // Base: 50 000 × 4, identity rows. Satellite: 500 × 30, every target
    // row matched (fan-out 100), its first two columns shared with the
    // base's — the shape of the benchmark's training table.
    let base_cm: Vec<i64> = (0..32).map(|t| if t < 4 { t } else { -1 }).collect();
    let sat_cm: Vec<i64> = (0..32)
        .map(|t| {
            if t < 2 {
                t
            } else if t < 4 {
                -1
            } else {
                t - 2
            }
        })
        .collect();
    let base_map = MappingMatrix::new(base_cm, 4).unwrap();
    let sat_map = MappingMatrix::new(sat_cm, 30).unwrap();
    let base_ind = IndicatorMatrix::new((0..ROWS as i64).collect(), ROWS).unwrap();
    let sat_ind =
        IndicatorMatrix::new((0..ROWS).map(|i| (i % DIM_ROWS) as i64).collect(), DIM_ROWS).unwrap();

    let (r, requests, largest) = recording::record(|| {
        RedundancyMatrix::against_earlier(&[(&base_ind, &base_map)], &sat_ind, &sat_map).unwrap()
    });

    assert_eq!(r.group_count(), 2);
    assert_eq!(r.zero_count(), ROWS * 2);
    assert_eq!(r.zero_cols(ROWS - 1), &[0, 1]);
    assert_eq!(r.get(7, 1), 0.0);
    assert_eq!(r.get(7, 2), 1.0);
    // One slot per dimension row, two cells each: a hundredth of the
    // redundant target cells.
    assert_eq!(r.slots(&sat_ind).len(), DIM_ROWS);
    assert_eq!(r.slot_correction_cells(&sat_ind), DIM_ROWS * 2);
    // The shared-row list (8 bytes a row, grown by doubling) is the
    // largest buffer; one `Vec` per row would be 50 000 requests.
    assert!(requests < 100, "{requests} allocations for {ROWS} rows");
    assert!(
        largest <= ROWS.next_power_of_two() * 8,
        "largest request {largest} bytes"
    );
}
