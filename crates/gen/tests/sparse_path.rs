//! Sparse-source coverage: the COO → CSR plumbing under a generated
//! mixed sparse/dense scenario, end to end through the factorized path.

use amalur_factorize::FactorizedTable;
use amalur_gen::{generate, ScenarioSpec, Topology};
use amalur_matrix::{CooMatrix, CsrMatrix, DenseMatrix, NO_MATCH};

fn mixed_spec() -> ScenarioSpec {
    ScenarioSpec {
        topology: Topology::Star { satellites: 2 },
        base_rows: 30,
        base_cols: 3,
        dim_rows: 8,
        dim_cols: 4,
        shared_cols: 1,
        // Base dense, satellite 1 sparse, satellite 2 dense.
        sparse_mask: 0b010,
        density: 0.3,
        coverage: 0.9,
        seed: 2718,
        ..ScenarioSpec::default()
    }
}

/// Dense → COO → CSR → dense is the identity on every generated source,
/// sparse-generated or not.
#[test]
fn coo_to_csr_round_trips_generated_sources() {
    let (_, data) = generate(&mixed_spec()).unwrap();
    for (k, d) in data.iter().enumerate() {
        let (rows, cols) = d.shape();
        let mut coo = CooMatrix::new(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                let v = d.get(i, j);
                if v != 0.0 {
                    coo.push(i, j, v).unwrap();
                }
            }
        }
        let csr = coo.to_csr();
        let back = csr.to_dense();
        assert_eq!(back.as_slice(), d.as_slice(), "source {k} round trip");
        // And the direct from_dense constructor agrees with the COO path.
        let direct = CsrMatrix::from_dense(d);
        assert_eq!(direct.to_dense().as_slice(), d.as_slice());
        assert_eq!(direct.nnz(), csr.nnz());
    }
}

/// The sparse-generated satellite really is sparse; its dense siblings
/// are not.
#[test]
fn sparsity_lands_on_the_masked_source_only() {
    let spec = mixed_spec();
    let (_, data) = generate(&spec).unwrap();
    let nnz_ratio = |d: &DenseMatrix| {
        let (r, c) = d.shape();
        d.as_slice().iter().filter(|v| **v != 0.0).count() as f64 / (r * c) as f64
    };
    assert!(
        nnz_ratio(&data[1]) < 0.6,
        "masked satellite should be sparse"
    );
    assert!(
        nnz_ratio(&data[2]) > 0.99,
        "unmasked satellite should be dense"
    );
    // The base is dense except where a sparse satellite's shared window
    // copied zeros in.
    assert!(nnz_ratio(&data[0]) > 0.5);
}

/// Factorized materialization of the mixed scenario equals a naive
/// assembly computed from CSR copies of every source — the sparse path
/// and the factorized path agree cell for cell.
#[test]
fn factorized_path_agrees_with_csr_assembly() {
    let (md, data) = generate(&mixed_spec()).unwrap();
    let (rows, cols) = (md.target_rows, md.target_cols());

    let mut expected = DenseMatrix::zeros(rows, cols);
    for (s, d) in md.sources.iter().zip(&data) {
        let csr = CsrMatrix::from_dense(d);
        let ci = s.indicator.compressed();
        let cm = s.mapping.compressed();
        for (i, &src_row) in ci.iter().enumerate() {
            if src_row == NO_MATCH {
                continue;
            }
            for (t, &src_col) in cm.iter().enumerate() {
                if src_col == NO_MATCH || s.redundancy().get(i, t) == 0.0 {
                    continue;
                }
                let v = csr.get(src_row as usize, src_col as usize);
                expected.set(i, t, expected.get(i, t) + v);
            }
        }
    }

    let ft = FactorizedTable::new(md, data).unwrap();
    assert_eq!(ft.materialize().as_slice(), expected.as_slice());
}
