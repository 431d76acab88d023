//! How often a GNMF fit streams the table, as counts.
//!
//! One test in its own binary: `factorize.lmm.calls` and
//! `factorize.lmm_transpose.calls` are process-wide statics, so a second
//! test beside this one would move both.
//!
//! Each iteration makes one `T·Hᵀ` (`lmm`) for the `W` update and one
//! `TᵀW` (`lmm_transpose`) for the loss; that `TᵀW` is also the next `H`
//! update's, so only the first `H` update needs one of its own:
//! `iters` and `iters + 1` calls per fit.

use amalur_data::{generate_two_source, TwoSourceSpec};
use amalur_factorize::FactorizedTable;
use amalur_ml::{Gnmf, GnmfConfig};
use amalur_obs::MetricsRegistry;

#[test]
fn a_fit_makes_two_table_passes_per_iteration_plus_one() {
    let (md, mut data) =
        generate_two_source(&TwoSourceSpec::footnote3(400, true, false, 7)).expect("valid spec");
    for d in &mut data {
        d.map_inplace(f64::abs);
    }
    let ft = FactorizedTable::new(md, data).expect("consistent metadata");
    let registry = MetricsRegistry::new();
    amalur_factorize::mount_metrics(&registry);
    let calls = || {
        let snapshot = registry.snapshot();
        (
            snapshot.counter("factorize.lmm.calls").unwrap_or(0),
            snapshot
                .counter("factorize.lmm_transpose.calls")
                .unwrap_or(0),
        )
    };
    for iters in [1u64, 2, 8] {
        let (lmm, lmm_transpose) = calls();
        let mut model = Gnmf::new(GnmfConfig {
            rank: 4,
            iters: iters as usize,
            seed: 3,
        });
        model.fit(&ft).expect("factorizes");
        let (lmm_after, lmm_transpose_after) = calls();
        assert_eq!(lmm_after - lmm, iters, "T·Hᵀ, {iters} iterations");
        assert_eq!(
            lmm_transpose_after - lmm_transpose,
            iters + 1,
            "TᵀW, {iters} iterations"
        );
    }
}
