//! The redundancy index is built per *group*, not per row.
//!
//! One test in its own binary, under the recording allocator: a
//! 50 000-row source sharing two columns with the base has one non-empty
//! group, so its index is a handful of flat vectors — not one heap `Vec`
//! per target row.

mod recording;

use amalur_integration::DiMetadata;

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
    let names = |n: usize| (0..n).map(|c| format!("c{c}")).collect();
    let mut md = DiMetadata::new(names(32), ROWS);
    md.push_source("base", names(4), base_cm, (0..ROWS as i64).collect(), ROWS)
        .unwrap();
    let (sat_names, sat_ci) = (
        names(30),
        (0..ROWS).map(|i| (i % DIM_ROWS) as i64).collect(),
    );

    // The satellite's push: its vectors are moved in, so what it
    // allocates is its validation and the index of its `Rₖ`.
    let ((), requests, largest) = recording::record(|| {
        md.push_source("sat", sat_names, sat_cm, sat_ci, DIM_ROWS)
            .unwrap()
    });
    let (r, sat_ind) = (md.sources[1].redundancy(), &md.sources[1].indicator);

    assert_eq!(r.group_count(), 2);
    assert_eq!(r.zero_count(), ROWS * 2);
    assert_eq!(r.zero_cols(ROWS - 1), &[0, 1]);
    assert_eq!(r.get(7, 1), 0.0);
    assert_eq!(r.get(7, 2), 1.0);
    // One slot per dimension row, two cells each: a hundredth of the
    // redundant target cells.
    assert_eq!(r.slots(sat_ind).len(), DIM_ROWS);
    assert_eq!(r.slot_correction_cells(sat_ind), DIM_ROWS * 2);
    // The shared-row list (8 bytes a row, grown by doubling) is the
    // largest buffer; one `Vec` per row would be 50 000 requests.
    assert!(requests < 100, "{requests} allocations for {ROWS} rows");
    assert!(
        largest <= ROWS.next_power_of_two() * 8,
        "largest request {largest} bytes"
    );
}
