//! The compressed operators' per-phase work counters, pinned against
//! what the metadata implies.
//!
//! One test in its own binary: the counters are process-wide statics, and
//! a second test running the operators beside this one would move them.

use amalur_data::{generate_two_source, TwoSourceSpec};
use amalur_factorize::{mount_metrics, reference, FactorizedTable};
use amalur_gen::{ScenarioSpec, Topology};
use amalur_matrix::{DenseMatrix, Workspace};
use amalur_obs::MetricsRegistry;

#[test]
fn counters_report_source_level_work() {
    let reg = MetricsRegistry::new();
    mount_metrics(&reg);
    let read = |name: &str| {
        reg.snapshot()
            .counter(&format!("factorize.{name}"))
            .unwrap()
    };
    let delta = |name: &str, f: &mut dyn FnMut()| {
        let before = read(name);
        f();
        read(name) - before
    };

    // Footnote 3 (1000 × 1 base, 200 × 100 dimension under fan-out 5, no
    // shared column): nothing to correct, both sources feed every row.
    let (md, data) = generate_two_source(&TwoSourceSpec::footnote3(1000, true, false, 3)).unwrap();
    let plain = FactorizedTable::new(md, data).unwrap();
    // The same shapes with the base's column shared: 1000 redundant
    // cells, seen through 200 dimension rows.
    let (md, data) = generate_two_source(&TwoSourceSpec {
        shared_cols: 1,
        ..TwoSourceSpec::footnote3(1000, true, false, 3)
    })
    .unwrap();
    let shared = FactorizedTable::new(md, data).unwrap();
    assert_eq!(shared.metadata().sources[1].redundancy().zero_count(), 1000);

    let mut ws = Workspace::new();
    for (ft, slot_cells) in [(&plain, 0), (&shared, 200)] {
        let (rows, cols) = ft.target_shape();
        for n in [1u64, 3] {
            let x = DenseMatrix::filled(cols, n as usize, 0.5);
            let y = DenseMatrix::filled(rows, n as usize, 0.25);
            let mut out = DenseMatrix::zeros(rows, n as usize);
            let mut out_t = DenseMatrix::zeros(cols, n as usize);
            // The base's identity rows are multiplied in place rather
            // than gathered, and still counted.
            let mut lmm = || ft.lmm_into(&x, &mut out, &mut ws).unwrap();
            assert_eq!(delta("lmm.gather_rows", &mut lmm), 2000);
            assert_eq!(delta("lmm.correction_cells", &mut lmm), slot_cells * n);
            let mut lmm_t = || ft.lmm_transpose_into(&y, &mut out_t, &mut ws).unwrap();
            assert_eq!(delta("lmm.gather_rows", &mut lmm_t), 2000);
            assert_eq!(delta("lmm.correction_cells", &mut lmm_t), slot_cells * n);
        }
        // One source pair, every target row covered by both.
        assert_eq!(delta("gram.scatter_rows", &mut || drop(ft.gram())), 1000);
    }
    // The literal Equation (2) does none of this work, and is not
    // counted as a call.
    let x = DenseMatrix::filled(shared.target_shape().1, 2, 0.5);
    let mut literal = || drop(reference::equation2_lmm(&shared, &x).unwrap());
    assert_eq!(delta("lmm.gather_rows", &mut literal), 0);
    assert_eq!(delta("lmm.calls", &mut literal), 0);

    // Inner-join shape (1:1, capped by the 200-row dimension): the base
    // has 800 source rows no target row reads, so it is gathered — and
    // each source counts its 200 matched rows.
    let (md, data) = generate_two_source(&TwoSourceSpec::footnote3(1000, false, false, 3)).unwrap();
    let inner = FactorizedTable::new(md, data).unwrap();
    assert_eq!(inner.target_shape().0, 200);
    let (rows, cols) = inner.target_shape();
    let x = DenseMatrix::filled(cols, 3, 0.5);
    let mut out = DenseMatrix::zeros(rows, 3);
    let mut lmm = || inner.lmm_into(&x, &mut out, &mut ws).unwrap();
    assert_eq!(delta("lmm.gather_rows", &mut lmm), 400);

    // On generated scenarios the correction never exceeds what a
    // per-target-cell correction would pay, and equals the cost model's
    // count.
    for (i, topology) in [
        Topology::Star { satellites: 3 },
        Topology::Snowflake { arms: 2, depth: 2 },
        Topology::Chain { hops: 3 },
        Topology::ManyToMany,
    ]
    .into_iter()
    .enumerate()
    {
        let spec = ScenarioSpec {
            topology,
            base_rows: 120,
            base_cols: 6,
            dim_rows: 9,
            dim_cols: 5,
            skew: 0.5,
            shared_cols: 2,
            coverage: 0.7,
            seed: 40 + i as u64,
            ..ScenarioSpec::default()
        };
        let (md, data) = amalur_gen::generate(&spec).unwrap();
        let ft = FactorizedTable::new(md, data).unwrap();
        let zero_cells: usize = ft
            .metadata()
            .sources
            .iter()
            .map(|s| s.redundancy().zero_count())
            .sum();
        let (rows, cols) = ft.target_shape();
        let n = 4;
        let x = DenseMatrix::filled(cols, n, 0.5);
        let mut out = DenseMatrix::zeros(rows, n);
        let cells = delta("lmm.correction_cells", &mut || {
            ft.lmm_into(&x, &mut out, &mut ws).unwrap()
        });
        assert!(
            cells as usize <= zero_cells * n,
            "{cells} > {zero_cells}·{n}"
        );
        assert_eq!(cells as f64, ft.lmm_op_counts(n).correction_cells);
        if zero_cells > 0 {
            assert!(cells > 0);
        }
    }
}
