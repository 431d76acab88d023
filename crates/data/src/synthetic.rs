//! Matrix-level two-source generator for the footnote-3 experiments.
//!
//! The Table III experiment varies: source shapes (`c_S1 = 1`,
//! `c_S2 = 100`, `r_S2 = 0.2 · r_S1`), whether the *target* table contains
//! redundancy (PK–FK fan-out duplicating dimension tuples) and whether the
//! *sources* contain redundancy (repeated entities within a source).
//! [`TwoSourceSpec`] exposes exactly those knobs and produces DI metadata
//! plus data matrices directly — no relational detour — so the benchmark
//! ladder can scale to hundreds of thousands of rows.

use amalur_integration::{DiMetadata, Result};
use amalur_matrix::{DenseMatrix, NO_MATCH};
use rand::Rng;
use rand::SeedableRng;

/// Parameters of a two-source silo configuration.
#[derive(Debug, Clone)]
pub struct TwoSourceSpec {
    /// Rows of the base (fact/entity) table `S1`.
    pub rows_s1: usize,
    /// Feature columns of `S1`.
    pub cols_s1: usize,
    /// Rows of the joined (dimension/augmenting) table `S2`.
    pub rows_s2: usize,
    /// Feature columns of `S2`.
    pub cols_s2: usize,
    /// Number of feature columns shared by both sources (mapped onto the
    /// same target columns; values kept consistent on matched rows).
    pub shared_cols: usize,
    /// `true` → PK–FK fan-out (left-join shape): the target keeps all
    /// `rows_s1` rows and every `S1` row links to an `S2` row
    /// (`i % rows_s2`), so each `S2` tuple repeats ≈ `rows_s1 / rows_s2`
    /// times in the target — *redundancy in the target table*.
    ///
    /// `false` → inner-join shape with 1:1 matching: the target shrinks to
    /// the matched rows only, so it contains *no more* redundancy than the
    /// sources — the Example IV.1 situation where materialization is
    /// expected to win.
    pub target_redundancy: bool,
    /// Fraction of the potential 1:1 matches realized when
    /// `target_redundancy` is off.
    pub row_coverage: f64,
    /// `true` → half of each source's rows are duplicates of the other
    /// half — *redundancy in the source tables*.
    pub source_redundancy: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TwoSourceSpec {
    fn default() -> Self {
        Self {
            rows_s1: 1000,
            cols_s1: 1,
            rows_s2: 200,
            cols_s2: 100,
            shared_cols: 0,
            target_redundancy: true,
            row_coverage: 1.0,
            source_redundancy: false,
            seed: 42,
        }
    }
}

impl TwoSourceSpec {
    /// The footnote-3 configuration: `c_S1 = 1`, `c_S2 = 100`,
    /// `r_S2 = 0.2 · r_S1`, with the two redundancy flags.
    pub fn footnote3(
        rows_s1: usize,
        target_redundancy: bool,
        source_redundancy: bool,
        seed: u64,
    ) -> Self {
        Self {
            rows_s1,
            cols_s1: 1,
            rows_s2: (rows_s1 / 5).max(1),
            cols_s2: 100,
            shared_cols: 0,
            target_redundancy,
            row_coverage: 1.0,
            source_redundancy,
            seed,
        }
    }
}

/// Generates the DI metadata and source matrices for a [`TwoSourceSpec`].
///
/// Target layout: rows follow `S1` (left-join shape), columns are
/// `S1`'s features followed by `S2`'s non-shared features.
///
/// # Errors
/// Propagates metadata-construction errors (only possible with degenerate
/// specs, e.g. `shared_cols` exceeding a source's column count).
pub fn generate_two_source(spec: &TwoSourceSpec) -> Result<(DiMetadata, Vec<DenseMatrix>)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(spec.seed);
    let shared = spec.shared_cols.min(spec.cols_s1).min(spec.cols_s2);
    let c_t = spec.cols_s1 + spec.cols_s2 - shared;

    // --- data ------------------------------------------------------------
    let mut d1 = random_source(spec.rows_s1, spec.cols_s1, spec.source_redundancy, &mut rng);
    let d2 = random_source(spec.rows_s2, spec.cols_s2, spec.source_redundancy, &mut rng);

    // --- row alignment -----------------------------------------------------
    let (r_t, ci1, ci2): (usize, Vec<i64>, Vec<i64>) = if spec.target_redundancy {
        // Left-join shape with PK–FK fan-out: target = all S1 rows.
        let r_t = spec.rows_s1;
        (
            r_t,
            (0..r_t as i64).collect(),
            (0..r_t).map(|i| (i % spec.rows_s2) as i64).collect(),
        )
    } else {
        // Inner-join shape, 1:1: target = matched rows only.
        let covered = ((spec.rows_s1 as f64 * spec.row_coverage) as usize)
            .min(spec.rows_s1)
            .min(spec.rows_s2)
            .max(1);
        (
            covered,
            (0..covered as i64).collect(),
            (0..covered as i64).collect(),
        )
    };

    // --- column mapping ----------------------------------------------------
    // Target cols [0, cols_s1) ← S1; the first `shared` of them also ← S2;
    // target cols [cols_s1, c_t) ← S2's non-shared columns.
    let cm1: Vec<i64> = (0..c_t)
        .map(|t| if t < spec.cols_s1 { t as i64 } else { NO_MATCH })
        .collect();
    let cm2: Vec<i64> = (0..c_t)
        .map(|t| {
            if t < shared {
                t as i64
            } else if t >= spec.cols_s1 {
                (t - spec.cols_s1 + shared) as i64
            } else {
                NO_MATCH
            }
        })
        .collect();

    // Consistent shared values: matched S1 rows copy S2's shared columns
    // (S2 is authoritative here so fan-out duplicates stay identical).
    for (i, &j) in ci2.iter().enumerate() {
        if j == NO_MATCH {
            continue;
        }
        for c in 0..shared {
            let v = d2.get(j as usize, c);
            d1.set(i, c, v);
        }
    }

    let mut metadata = DiMetadata::new((0..c_t).map(|i| format!("f{i}")).collect(), r_t);
    metadata.push_source(
        "S1",
        (0..spec.cols_s1).map(|i| format!("s1_{i}")).collect(),
        cm1,
        ci1,
        spec.rows_s1,
    )?;
    metadata.push_source(
        "S2",
        (0..spec.cols_s2).map(|i| format!("s2_{i}")).collect(),
        cm2,
        ci2,
        spec.rows_s2,
    )?;
    Ok((metadata, vec![d1, d2]))
}

/// Random matrix; with `duplicated`, the second half repeats the first.
fn random_source(
    rows: usize,
    cols: usize,
    duplicated: bool,
    rng: &mut rand::rngs::StdRng,
) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(rows, cols);
    let distinct = if duplicated { rows.div_ceil(2) } else { rows };
    for i in 0..distinct {
        for j in 0..cols {
            m.set(i, j, rng.gen_range(-1.0..1.0));
        }
    }
    if duplicated {
        for i in distinct..rows {
            for j in 0..cols {
                let v = m.get(i - distinct, j);
                m.set(i, j, v);
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footnote3_shapes() {
        let spec = TwoSourceSpec::footnote3(1000, true, false, 1);
        assert_eq!(spec.rows_s2, 200);
        assert_eq!(spec.cols_s1, 1);
        assert_eq!(spec.cols_s2, 100);
        let (md, data) = generate_two_source(&spec).unwrap();
        assert_eq!(md.target_rows, 1000);
        assert_eq!(md.target_cols(), 101);
        assert_eq!(data[0].shape(), (1000, 1));
        assert_eq!(data[1].shape(), (200, 100));
    }

    #[test]
    fn fanout_repeats_dimension_rows() {
        let spec = TwoSourceSpec::footnote3(100, true, false, 2);
        let (md, _) = generate_two_source(&spec).unwrap();
        let ci2 = md.sources[1].indicator.compressed();
        // Row 0 and row 20 of S2 both appear 5 times.
        assert_eq!(ci2[0], 0);
        assert_eq!(ci2[20], 0);
        assert_eq!(ci2.iter().filter(|&&j| j == 0).count(), 5);
    }

    #[test]
    fn no_target_redundancy_is_one_to_one() {
        let spec = TwoSourceSpec::footnote3(100, false, false, 3);
        let (md, _) = generate_two_source(&spec).unwrap();
        let ci2 = md.sources[1].indicator.compressed();
        let matched: Vec<i64> = ci2.iter().copied().filter(|&j| j != NO_MATCH).collect();
        // Each S2 row used at most once.
        let mut sorted = matched.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), matched.len());
        assert_eq!(matched.len(), 20); // min(rows_s2, coverage·r_t)
    }

    #[test]
    fn source_redundancy_duplicates_rows() {
        let spec = TwoSourceSpec {
            rows_s1: 10,
            cols_s1: 3,
            source_redundancy: true,
            ..TwoSourceSpec::default()
        };
        let (_, data) = generate_two_source(&spec).unwrap();
        let d1 = &data[0];
        for j in 0..3 {
            assert_eq!(d1.get(0, j), d1.get(5, j));
        }
    }

    #[test]
    fn shared_columns_are_consistent() {
        let spec = TwoSourceSpec {
            rows_s1: 50,
            cols_s1: 4,
            rows_s2: 10,
            cols_s2: 6,
            shared_cols: 2,
            target_redundancy: true,
            ..TwoSourceSpec::default()
        };
        let (md, data) = generate_two_source(&spec).unwrap();
        assert_eq!(md.target_cols(), 4 + 6 - 2);
        let ci2 = md.sources[1].indicator.compressed();
        for (i, &j) in ci2.iter().enumerate() {
            if j == NO_MATCH {
                continue;
            }
            for c in 0..2 {
                assert_eq!(data[0].get(i, c), data[1].get(j as usize, c));
            }
        }
        // Redundancy matrix knocks out the shared cells of matched rows.
        assert!(md.sources[1].redundancy().zero_count() > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = TwoSourceSpec::footnote3(100, true, false, 9);
        let (_, a) = generate_two_source(&spec).unwrap();
        let (_, b) = generate_two_source(&spec).unwrap();
        assert_eq!(a[1], b[1]);
    }

    #[test]
    fn coverage_controls_match_count() {
        let spec = TwoSourceSpec {
            rows_s1: 100,
            rows_s2: 100,
            target_redundancy: false,
            row_coverage: 0.3,
            ..TwoSourceSpec::default()
        };
        let (md, _) = generate_two_source(&spec).unwrap();
        let matched = md.sources[1]
            .indicator
            .compressed()
            .iter()
            .filter(|&&j| j != NO_MATCH)
            .count();
        assert_eq!(matched, 30);
    }
}
