//! Sparse-source coverage: sources generated at a density below one,
//! their bytes pinned, end to end through the factorized path.

use amalur_factorize::FactorizedTable;
use amalur_gen::{generate, Corpus, ScenarioSpec, Topology};
use amalur_matrix::{DenseMatrix, NO_MATCH};

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

/// FNV-1a over the shape and the `to_bits` of every cell, row-major.
fn digest(d: &DenseMatrix) -> u64 {
    let (rows, cols) = d.shape();
    let words = [rows as u64, cols as u64]
        .into_iter()
        .chain(d.as_slice().iter().map(|v| v.to_bits()));
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The spec whose JSON `spec.rs` pins, once per topology.
fn pinned_json_spec(topology: Topology) -> ScenarioSpec {
    ScenarioSpec {
        topology,
        skew: 0.7,
        shared_cols: 2,
        sparse_mask: 0b10,
        density: 0.25,
        coverage: 0.8,
        seed: 99,
        ..ScenarioSpec::default()
    }
}

/// Every source of every generated scenario keeps its exact bytes: the
/// mixed spec above, the spec whose JSON `spec.rs` pins (sparse source
/// 1 at density 0.25) under every topology, and every entry of the
/// regression corpus (three of them with sparse sources, masks 1, 6
/// and 21). A sparse source draws a keep coin and a value per cell and
/// stores `+0.0` wherever the coin says drop or the value is `±0.0`.
#[test]
fn generated_sources_keep_their_bytes() {
    let mut specs = vec![("mixed".to_owned(), mixed_spec())];
    for topology in [
        Topology::Star { satellites: 2 },
        Topology::Snowflake { arms: 2, depth: 3 },
        Topology::Chain { hops: 2 },
        Topology::ManyToMany,
    ] {
        specs.push((format!("{topology:?}"), pinned_json_spec(topology)));
    }
    for (i, entry) in Corpus::builtin().entries.into_iter().enumerate() {
        specs.push((format!("corpus #{i}"), entry.spec));
    }
    let want: &[(&str, &[u64])] = &[
        (
            "mixed",
            &[0x2b75f7af2fe8837d, 0x73e276a3e0988434, 0x9997f4f85160e5b5],
        ),
        (
            "Star { satellites: 2 }",
            &[0x6cd41ac727fb41bc, 0x6340366166719613, 0x54e002e4480ac291],
        ),
        (
            "Snowflake { arms: 2, depth: 3 }",
            &[
                0xc9a3d31e38335db2,
                0x59a559e41c1b8bcf,
                0x60eedf5675d457b4,
                0xabc7ebd26cd20d93,
                0xc6cff5ca175c5005,
                0x9537b825c22f68b8,
                0x84f0860e6c40b72b,
            ],
        ),
        (
            "Chain { hops: 2 }",
            &[0xf379b8d3cf1c1691, 0x531cd30ab67efe1a, 0xfbe9f7a8e5062606],
        ),
        ("ManyToMany", &[0x3623f299065da4e9, 0xd81ad8bba7f12005]),
        ("corpus #0", &[0x7acc5b3257381673, 0x10da5896de29a2f4]),
        (
            "corpus #1",
            &[0xb26f1bcbee4f9df7, 0x8b01b77f28e70e6b, 0xe3f0e7cd64c0580f],
        ),
        (
            "corpus #2",
            &[
                0x4e029bdec24be332,
                0xf3aef3319abc95df,
                0xa1484b9fd4b8e503,
                0x00e7bff815d59f4e,
                0x185739bb8da40910,
            ],
        ),
        (
            "corpus #3",
            &[
                0xf35b74156bbc6e2a,
                0x7697b84a70d8ec70,
                0x672a4fec9ced0fdd,
                0xbf765bb946833f62,
            ],
        ),
        ("corpus #4", &[0x289ac3886ee5a4b8, 0x3f9b45193daf23f4]),
        ("corpus #5", &[0x54580d86c0cedd26, 0xde2d54f456d197de]),
        (
            "corpus #6",
            &[0x8c0a43290cf60e05, 0x32ad88ccc9a52f06, 0x69c9ab368d975177],
        ),
        (
            "corpus #7",
            &[
                0x8a98aa6d8c003663,
                0xa71ea3fb258fb376,
                0xe336f89f37e4454a,
                0x7f67d49d84acda03,
                0x2c3f0ef8d68b2404,
                0xc84f30ecc3561c23,
                0x4452e677d3373c4f,
            ],
        ),
    ];
    assert_eq!(specs.len(), want.len(), "one pinned row per scenario");
    for ((name, spec), &(want_name, want)) in specs.iter().zip(want) {
        assert_eq!(name, want_name);
        let (_, data) = generate(spec).unwrap();
        let got: Vec<u64> = data.iter().map(digest).collect();
        assert_eq!(got, want, "{name}");
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
/// cell-by-cell assembly from `CIₖ`, `CMₖ` and `Rₖ`.
#[test]
fn factorized_path_agrees_with_cell_by_cell_assembly() {
    let (md, data) = generate(&mixed_spec()).unwrap();
    let (rows, cols) = (md.target_rows, md.target_cols());

    let mut expected = DenseMatrix::zeros(rows, cols);
    for (s, d) in md.sources.iter().zip(&data) {
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
                let v = d.get(src_row as usize, src_col as usize);
                expected.set(i, t, expected.get(i, t) + v);
            }
        }
    }

    let ft = FactorizedTable::new(md, data).unwrap();
    assert_eq!(ft.materialize().as_slice(), expected.as_slice());
}
