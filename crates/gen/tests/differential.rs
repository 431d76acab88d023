//! The property-based differential gate: sampled scenarios across every
//! topology family must train identically factorized and materialized.
//!
//! On failure, [`check_and_shrink`] reports a *minimal* failing spec as
//! JSON — paste it into `crates/gen/corpus/regressions.json` alongside
//! the fix (see the corpus workflow in ROADMAP.md).

use amalur_gen::sample::SizeClass;
use amalur_gen::{check_and_shrink, sample_specs, Corpus, ScenarioSpec, ALL_WORKLOADS};

/// Sweep seed for this test — changing it explores a different slice of
/// the grammar; keep it pinned so failures reproduce.
const SWEEP_SEED: u64 = 0xD1FF;

#[test]
fn sampled_scenarios_are_equivalent_under_every_workload() {
    // 32 scenarios × 4 workloads × 2 paths; small sizes keep this under
    // a few seconds while covering all four topology families and every
    // knob region (the sampler forces dense/uniform points in too).
    let mut failures = Vec::new();
    for (i, spec) in sample_specs(SWEEP_SEED, 32, SizeClass::Small)
        .iter()
        .enumerate()
    {
        if let Err(message) = check_and_shrink(spec, &ALL_WORKLOADS) {
            failures.push(format!("scenario #{i}: {message}"));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n\n"));
}

#[test]
fn regression_corpus_replays_green() {
    let violations = Corpus::builtin().replay(&ALL_WORKLOADS);
    assert!(
        violations.is_empty(),
        "{}",
        violations
            .iter()
            .map(|(e, m)| format!("[{}] {m}", e.note))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn generator_spec_plus_seed_is_bit_deterministic() {
    // Determinism property at the harness level: the same sampled spec
    // regenerates bit-identical metadata and source matrices, sparse
    // sources included.
    for spec in sample_specs(SWEEP_SEED ^ 1, 16, SizeClass::Small) {
        let (md_a, data_a) = amalur_gen::generate(&spec).unwrap();
        let (md_b, data_b) = amalur_gen::generate(&spec).unwrap();
        assert_eq!(md_a, md_b, "metadata differs for {spec:?}");
        assert_eq!(data_a.len(), data_b.len());
        for (a, b) in data_a.iter().zip(&data_b) {
            assert_eq!(a.as_slice(), b.as_slice(), "data differs for {spec:?}");
        }
        // A seed change must actually move the scenario (not a constant
        // function of the spec shape).
        let reseeded = ScenarioSpec {
            seed: spec.seed ^ 0xFFFF,
            ..spec.clone()
        };
        let (_, data_c) = amalur_gen::generate(&reseeded).unwrap();
        assert_ne!(
            data_a[0].as_slice(),
            data_c[0].as_slice(),
            "seed had no effect for {spec:?}"
        );
    }
}
