//! Turning a [`ScenarioSpec`] into DI metadata plus source matrices.
//!
//! The output contract is exactly `generate_two_source`'s: a validated
//! [`DiMetadata`] and one `DenseMatrix` per source, ready for
//! `FactorizedTable::new`. Generation is a pure function of the spec —
//! a single seeded [`StdRng`] stream drawn in a fixed order — which is
//! what makes shrinking and corpus replay possible.
//!
//! Construction invariants (the reasons generated scenarios satisfy the
//! paper's §IV equivalence guarantee by *construction*, so any observed
//! factorized-vs-materialized divergence is a kernel/rewrite bug):
//!
//! * every target cell has a well-defined value: the base indicator is
//!   the identity (or, for M:N, both endpoints cover every edge up to
//!   `coverage`), and unmatched cells are zero on both paths;
//! * shared columns are *consistent*: each satellite owns a disjoint
//!   window of base columns and the base copies the satellite's value
//!   on matched rows, so duplicated cells carry equal values;
//! * redundancy matrices are derived, never supplied: the metadata is
//!   built by [`DiMetadata::push_source`], the one constructor, which
//!   computes each `Rₖ` from the sources pushed before it.

use crate::spec::{ScenarioSpec, Topology};
use amalur_integration::{DiMetadata, Result};
use amalur_matrix::{DenseMatrix, NO_MATCH};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One non-base source being assembled: its FK column (composed down to
/// the target rows) plus its shared-window assignment.
struct Satellite {
    /// `ci[i]` = source row serving target row `i`, or [`NO_MATCH`].
    ci: Vec<i64>,
    /// First target/base column of this source's shared window.
    shared_offset: usize,
    /// Width of the shared window (0 = no shared columns).
    shared_width: usize,
}

/// Generates the scenario described by `spec`.
///
/// Returns `(metadata, sources)` with `sources[k]` the data matrix of
/// `metadata.sources[k]` — the same contract as
/// `amalur_data::generate_two_source`.
///
/// # Errors
/// Propagates metadata-construction errors; unreachable for specs with
/// all size knobs ≥ 1 and `density`/`coverage` in `(0, 1]`.
pub fn generate(spec: &ScenarioSpec) -> Result<(DiMetadata, Vec<DenseMatrix>)> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    match spec.topology {
        Topology::ManyToMany => generate_many_to_many(spec, &mut rng),
        _ => generate_join(spec, &mut rng),
    }
}

/// Star / snowflake / chain: base rows are the target rows.
fn generate_join(spec: &ScenarioSpec, rng: &mut StdRng) -> Result<(DiMetadata, Vec<DenseMatrix>)> {
    let r_t = spec.base_rows;
    let n_sat = spec.topology.num_sources() - 1;

    // --- row alignment: one composed FK column per satellite -------------
    let mut sats: Vec<Satellite> = Vec::with_capacity(n_sat);
    match spec.topology {
        Topology::Star { satellites } => {
            for _ in 0..satellites {
                sats.push(Satellite {
                    ci: fk_column(r_t, spec.dim_rows, spec, rng),
                    shared_offset: 0,
                    shared_width: 0,
                });
            }
        }
        Topology::Snowflake { arms, depth } => {
            for _ in 0..arms {
                push_chain(&mut sats, depth, r_t, spec, rng);
            }
        }
        Topology::Chain { hops } => push_chain(&mut sats, hops, r_t, spec, rng),
        Topology::ManyToMany => unreachable!("handled by generate_many_to_many"),
    }

    // --- shared-column windows: disjoint slices of the base columns ------
    let mut offset = 0usize;
    for sat in &mut sats {
        let width = spec
            .shared_cols
            .min(spec.dim_cols)
            .min(spec.base_cols.saturating_sub(offset));
        sat.shared_offset = offset;
        sat.shared_width = width;
        offset += width;
    }
    let c_t = spec.base_cols
        + sats
            .iter()
            .map(|s| spec.dim_cols - s.shared_width)
            .sum::<usize>();

    // --- data (drawn in metadata order so the stream is reproducible) ----
    let mut base_data = source_data(spec.base_rows, spec.base_cols, 0, spec, rng);
    let sat_data: Vec<DenseMatrix> = (0..n_sat)
        .map(|k| source_data(spec.dim_rows, spec.dim_cols, k + 1, spec, rng))
        .collect();

    // Shared-value consistency: the satellite is authoritative, the base
    // copies it on matched rows (unmatched rows keep base values — there
    // the satellite contributes nothing).
    for (sat, data) in sats.iter().zip(&sat_data) {
        for (i, &j) in sat.ci.iter().enumerate() {
            if j == NO_MATCH {
                continue;
            }
            for c in 0..sat.shared_width {
                base_data.set(i, sat.shared_offset + c, data.get(j as usize, c));
            }
        }
    }

    // --- metadata ---------------------------------------------------------
    // Base: identity indicator, identity mapping onto target cols 0..base_cols.
    let mut metadata = DiMetadata::new((0..c_t).map(|t| format!("f{t}")).collect(), r_t);
    let base_cm: Vec<i64> = (0..c_t)
        .map(|t| {
            if t < spec.base_cols {
                t as i64
            } else {
                NO_MATCH
            }
        })
        .collect();
    metadata.push_source(
        "base",
        (0..spec.base_cols).map(|c| format!("base_{c}")).collect(),
        base_cm,
        (0..r_t as i64).collect(),
        spec.base_rows,
    )?;

    let mut fresh_start = spec.base_cols;
    for (k, sat) in sats.into_iter().enumerate() {
        // Source cols: [0, shared_width) shared, the rest fresh.
        let fresh = spec.dim_cols - sat.shared_width;
        let cm: Vec<i64> = (0..c_t)
            .map(|t| {
                if t >= sat.shared_offset && t < sat.shared_offset + sat.shared_width {
                    (t - sat.shared_offset) as i64
                } else if t >= fresh_start && t < fresh_start + fresh {
                    (sat.shared_width + t - fresh_start) as i64
                } else {
                    NO_MATCH
                }
            })
            .collect();
        metadata.push_source(
            format!("sat{k}"),
            (0..spec.dim_cols).map(|c| format!("sat{k}_{c}")).collect(),
            cm,
            sat.ci,
            spec.dim_rows,
        )?;
        fresh_start += fresh;
    }

    let mut data = vec![base_data];
    data.extend(sat_data);
    Ok((metadata, data))
}

/// M:N link topology: one target row per edge, fan-out on both sides.
fn generate_many_to_many(
    spec: &ScenarioSpec,
    rng: &mut StdRng,
) -> Result<(DiMetadata, Vec<DenseMatrix>)> {
    let edges = spec.base_rows;
    let c_t = spec.base_cols + spec.dim_cols;

    // Left endpoints always resolve; the right side honours `coverage`
    // (an edge can reference a right entity that failed resolution).
    let ci_a: Vec<i64> = (0..edges)
        .map(|_| skewed_index(rng, spec.dim_rows, spec.skew) as i64)
        .collect();
    let ci_b: Vec<i64> = (0..edges)
        .map(|_| {
            let j = skewed_index(rng, spec.dim_rows, spec.skew) as i64;
            // Draw the coverage coin unconditionally to keep the stream
            // aligned across coverage values.
            if rng.gen_bool(spec.coverage.clamp(f64::MIN_POSITIVE, 1.0)) {
                j
            } else {
                NO_MATCH
            }
        })
        .collect();

    let d_a = source_data(spec.dim_rows, spec.base_cols, 0, spec, rng);
    let d_b = source_data(spec.dim_rows, spec.dim_cols, 1, spec, rng);

    let cm_a: Vec<i64> = (0..c_t)
        .map(|t| {
            if t < spec.base_cols {
                t as i64
            } else {
                NO_MATCH
            }
        })
        .collect();
    let cm_b: Vec<i64> = (0..c_t)
        .map(|t| {
            if t >= spec.base_cols {
                (t - spec.base_cols) as i64
            } else {
                NO_MATCH
            }
        })
        .collect();
    let mut metadata = DiMetadata::new((0..c_t).map(|t| format!("f{t}")).collect(), edges);
    metadata.push_source(
        "left",
        (0..spec.base_cols).map(|c| format!("l_{c}")).collect(),
        cm_a,
        ci_a,
        spec.dim_rows,
    )?;
    metadata.push_source(
        "right",
        (0..spec.dim_cols).map(|c| format!("r_{c}")).collect(),
        cm_b,
        ci_b,
        spec.dim_rows,
    )?;
    Ok((metadata, vec![d_a, d_b]))
}

/// Appends one lookup chain of `depth` tables to `sats`.
///
/// Hop 1 links target rows to the first lookup table (honouring
/// `coverage`); hop ℓ > 1 links table ℓ−1's *rows* to table ℓ, and the
/// target-level indicator is the composition — a NO_MATCH anywhere in
/// the chain propagates down.
fn push_chain(
    sats: &mut Vec<Satellite>,
    depth: usize,
    r_t: usize,
    spec: &ScenarioSpec,
    rng: &mut StdRng,
) {
    let mut level: Vec<i64> = fk_column(r_t, spec.dim_rows, spec, rng);
    sats.push(Satellite {
        ci: level.clone(),
        shared_offset: 0,
        shared_width: 0,
    });
    for _ in 1..depth {
        // Row-level link of this lookup table to the next one (always
        // total: missing links are a base-to-chain phenomenon here).
        let link: Vec<i64> = (0..spec.dim_rows)
            .map(|_| skewed_index(rng, spec.dim_rows, spec.skew) as i64)
            .collect();
        level = level
            .iter()
            .map(|&j| {
                if j == NO_MATCH {
                    NO_MATCH
                } else {
                    link[j as usize]
                }
            })
            .collect();
        sats.push(Satellite {
            ci: level.clone(),
            shared_offset: 0,
            shared_width: 0,
        });
    }
}

/// A base-to-dimension FK column: skewed draw, `coverage` match rate.
fn fk_column(r_t: usize, dim_rows: usize, spec: &ScenarioSpec, rng: &mut StdRng) -> Vec<i64> {
    (0..r_t)
        .map(|_| {
            let j = skewed_index(rng, dim_rows, spec.skew) as i64;
            if rng.gen_bool(spec.coverage.clamp(f64::MIN_POSITIVE, 1.0)) {
                j
            } else {
                NO_MATCH
            }
        })
        .collect()
}

/// Power-law index draw over `0..n`: `skew = 0` is uniform; larger
/// values concentrate mass on low indices (hot dimension rows).
fn skewed_index(rng: &mut StdRng, n: usize, skew: f64) -> usize {
    let u: f64 = rng.gen_range(0.0..1.0);
    let v = u.powf(1.0 + 3.0 * skew.max(0.0));
    ((v * n as f64) as usize).min(n.saturating_sub(1))
}

/// One source's data matrix. Sources whose bit is set in
/// `spec.sparse_mask` are sparse: every cell draws a keep coin at
/// `spec.density` and a value, and holds the value only when the coin
/// keeps it and it is nonzero, so a kept `±0.0` draw is stored as
/// `+0.0`.
fn source_data(
    rows: usize,
    cols: usize,
    source_index: usize,
    spec: &ScenarioSpec,
    rng: &mut StdRng,
) -> DenseMatrix {
    let sparse = source_index < 64 && spec.sparse_mask & (1u64 << source_index) != 0;
    if !sparse {
        return DenseMatrix::random_uniform(rows, cols, -1.0, 1.0, rng);
    }
    let density = spec.density.clamp(f64::MIN_POSITIVE, 1.0);
    let mut out = DenseMatrix::zeros(rows, cols);
    for cell in out.as_mut_slice() {
        // Draw both coins unconditionally: the RNG stream consumed
        // per cell is constant, so `density` shrinks cleanly.
        let keep = rng.gen_bool(density);
        let v = rng.gen_range(-1.0..1.0);
        if keep && v != 0.0 {
            *cell = v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(topology: Topology) -> ScenarioSpec {
        ScenarioSpec {
            topology,
            ..ScenarioSpec::default()
        }
    }

    #[test]
    fn star_shapes_and_validation() {
        let s = ScenarioSpec {
            shared_cols: 1,
            ..spec(Topology::Star { satellites: 3 })
        };
        let (md, data) = generate(&s).unwrap();
        assert_eq!(md.sources.len(), 4);
        assert_eq!(md.target_rows, s.base_rows);
        // 3 satellites, each sharing one base column.
        assert_eq!(md.target_cols(), s.base_cols + 3 * (s.dim_cols - 1));
        assert_eq!(data[0].shape(), (s.base_rows, s.base_cols));
        assert_eq!(data[1].shape(), (s.dim_rows, s.dim_cols));
    }

    #[test]
    fn shared_windows_are_disjoint_and_clamped() {
        // 3 satellites × window 2 > base_cols 3: windows clamp to 2+1+0.
        let s = ScenarioSpec {
            shared_cols: 2,
            ..spec(Topology::Star { satellites: 3 })
        };
        let (md, data) = generate(&s).unwrap();
        assert_eq!(md.target_cols(), s.base_cols + (6 - 2) + (6 - 1) + 6);
        // Shared values are consistent wherever two sources map one cell.
        let ci1 = md.sources[1].indicator.compressed();
        for (i, &j) in ci1.iter().enumerate() {
            if j != NO_MATCH {
                assert_eq!(data[0].get(i, 0), data[1].get(j as usize, 0));
                assert_eq!(data[0].get(i, 1), data[1].get(j as usize, 1));
            }
        }
        let ci2 = md.sources[2].indicator.compressed();
        for (i, &j) in ci2.iter().enumerate() {
            if j != NO_MATCH {
                assert_eq!(data[0].get(i, 2), data[2].get(j as usize, 0));
            }
        }
    }

    #[test]
    fn chain_composes_hops() {
        let s = spec(Topology::Chain { hops: 3 });
        let (md, _) = generate(&s).unwrap();
        assert_eq!(md.sources.len(), 4);
        // Every hop's indicator points into dim_rows.
        for src in &md.sources[1..] {
            for &j in src.indicator.compressed() {
                assert!(j == NO_MATCH || (j as usize) < s.dim_rows);
            }
        }
    }

    #[test]
    fn chain_no_match_propagates() {
        let s = ScenarioSpec {
            coverage: 0.5,
            seed: 7,
            ..spec(Topology::Chain { hops: 2 })
        };
        let (md, _) = generate(&s).unwrap();
        let ci1 = md.sources[1].indicator.compressed();
        let ci2 = md.sources[2].indicator.compressed();
        for (a, b) in ci1.iter().zip(ci2) {
            if *a == NO_MATCH {
                assert_eq!(*b, NO_MATCH);
            }
        }
        assert!(ci1.contains(&NO_MATCH));
    }

    #[test]
    fn many_to_many_has_fanout_on_both_sides() {
        let s = ScenarioSpec {
            base_rows: 120,
            dim_rows: 10,
            ..spec(Topology::ManyToMany)
        };
        let (md, _) = generate(&s).unwrap();
        assert_eq!(md.target_rows, 120);
        for src in &md.sources {
            let ci = src.indicator.compressed();
            let mut counts = vec![0usize; s.dim_rows];
            for &j in ci {
                if j != NO_MATCH {
                    counts[j as usize] += 1;
                }
            }
            assert!(counts.iter().any(|&c| c > 1), "no fan-out in {}", src.name);
        }
    }

    #[test]
    fn skew_concentrates_fanout() {
        let uniform = ScenarioSpec {
            base_rows: 2000,
            dim_rows: 50,
            ..spec(Topology::Star { satellites: 1 })
        };
        let skewed = ScenarioSpec {
            skew: 1.0,
            ..uniform.clone()
        };
        let hot = |s: &ScenarioSpec| {
            let (md, _) = generate(s).unwrap();
            md.sources[1]
                .indicator
                .compressed()
                .iter()
                .filter(|&&j| j == 0)
                .count()
        };
        // Row 0 is the hot row under the power-law draw.
        assert!(hot(&skewed) > 2 * hot(&uniform));
    }

    #[test]
    fn sparse_sources_respect_density() {
        let s = ScenarioSpec {
            sparse_mask: 0b10,
            density: 0.2,
            ..spec(Topology::Star { satellites: 1 })
        };
        let (_, data) = generate(&s).unwrap();
        let nnz = data[1].as_slice().iter().filter(|v| **v != 0.0).count();
        let total = s.dim_rows * s.dim_cols;
        assert!(nnz < total / 2, "density 0.2 produced {nnz}/{total} nnz");
        // The dense source stays dense.
        let nnz0 = data[0].as_slice().iter().filter(|v| **v != 0.0).count();
        assert_eq!(nnz0, s.base_rows * s.base_cols);
    }

    #[test]
    fn generation_is_deterministic() {
        for topology in [
            Topology::Star { satellites: 2 },
            Topology::Snowflake { arms: 2, depth: 2 },
            Topology::Chain { hops: 2 },
            Topology::ManyToMany,
        ] {
            let s = ScenarioSpec {
                skew: 0.5,
                shared_cols: 1,
                sparse_mask: 0b01,
                density: 0.5,
                coverage: 0.9,
                seed: 1234,
                ..spec(topology)
            };
            let (md_a, data_a) = generate(&s).unwrap();
            let (md_b, data_b) = generate(&s).unwrap();
            assert_eq!(md_a, md_b);
            assert_eq!(data_a, data_b);
        }
    }
}
