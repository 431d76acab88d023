//! Steady-state allocation behaviour of the `Workspace`-backed training
//! loops (the zero-allocation pipeline contract of the kernel layer).
//!
//! `Workspace::fresh_allocations` counts pool misses — i.e. actual heap
//! allocations performed for matrix-sized intermediates. A warm loop
//! must not miss: after one full fit has populated the pool, running
//! further fits (and therefore arbitrarily many more epochs) through the
//! same workspace allocates nothing new.

use amalur::prelude::*;
use amalur_data::TwoSourceSpec;
use amalur_matrix::Workspace;

fn factorized_fixture(seed: u64) -> FactorizedTable {
    let spec = TwoSourceSpec {
        rows_s1: 300,
        cols_s1: 4,
        rows_s2: 75,
        cols_s2: 20,
        shared_cols: 1,
        target_redundancy: true,
        row_coverage: 1.0,
        source_redundancy: false,
        seed,
    };
    let (md, data) = amalur::data::generate_two_source(&spec).expect("valid spec");
    FactorizedTable::new(md, data).expect("consistent")
}

fn labels(ft: &FactorizedTable, binary: bool) -> DenseMatrix {
    let t = ft.materialize();
    let y: Vec<f64> = (0..t.rows())
        .map(|i| {
            let v: f64 = t.row(i).iter().sum::<f64>() * 0.1;
            if binary {
                f64::from(v > 0.0)
            } else {
                v
            }
        })
        .collect();
    DenseMatrix::column_vector(&y)
}

/// Runs `fit` three times through one workspace and asserts the later
/// runs — identical shapes, warm pool — perform zero fresh allocations
/// and leave the scratch high-water mark where the first run put it.
fn assert_steady_state(mut fit: impl FnMut(&mut Workspace)) {
    let mut ws = Workspace::new();
    fit(&mut ws);
    let warm = ws.fresh_allocations();
    let high_water = ws.high_water_elems();
    assert!(warm > 0, "warm-up run must populate the pool");
    fit(&mut ws);
    fit(&mut ws);
    assert_eq!(
        ws.fresh_allocations(),
        warm,
        "steady-state fits must not allocate beyond the warm-up"
    );
    assert_eq!(
        ws.high_water_elems(),
        high_water,
        "steady-state fits must give back what they take"
    );
}

#[test]
fn linreg_factorized_epochs_are_allocation_free() {
    let ft = factorized_fixture(7);
    let y = labels(&ft, false);
    let config = LinRegConfig {
        epochs: 25,
        learning_rate: 0.01,
        ..LinRegConfig::default()
    };
    assert_steady_state(|ws| {
        let mut model = LinearRegression::new(config.clone());
        model.fit_with_workspace(&ft, &y, ws).expect("trains");
        assert_eq!(model.loss_history().len(), 25);
    });
}

#[test]
fn linreg_materialized_epochs_are_allocation_free() {
    let ft = factorized_fixture(8);
    let t = ft.materialize();
    let y = labels(&ft, false);
    let config = LinRegConfig {
        epochs: 25,
        learning_rate: 0.01,
        ..LinRegConfig::default()
    };
    assert_steady_state(|ws| {
        let mut model = LinearRegression::new(config.clone());
        model.fit_with_workspace(&t, &y, ws).expect("trains");
    });
}

#[test]
fn logreg_factorized_epochs_are_allocation_free() {
    let ft = factorized_fixture(9);
    let y = labels(&ft, true);
    let config = LogRegConfig {
        epochs: 20,
        learning_rate: 0.1,
        ..LogRegConfig::default()
    };
    assert_steady_state(|ws| {
        let mut model = LogisticRegression::new(config.clone());
        model.fit_with_workspace(&ft, &y, ws).expect("trains");
    });
}

#[test]
fn kmeans_factorized_iterations_are_allocation_free() {
    let ft = factorized_fixture(10);
    let config = KMeansConfig {
        k: 3,
        max_iters: 15,
        tolerance: 0.0, // run all iterations so both fits do equal work
        seed: 4,
    };
    assert_steady_state(|ws| {
        let mut model = KMeans::new(config.clone());
        model.fit_with_workspace(&ft, ws).expect("clusters");
    });
}

#[test]
fn gnmf_factorized_iterations_are_allocation_free() {
    // GNMF requires non-negative data; shift the fixture up.
    let ft = factorized_fixture(11);
    let t = ft.materialize().map(|v| v.abs() + 0.1);
    let config = GnmfConfig {
        rank: 3,
        iters: 10,
        seed: 5,
    };
    assert_steady_state(|ws| {
        let mut model = Gnmf::new(config.clone());
        model.fit_with_workspace(&t, ws).expect("factorizes");
    });
}

#[test]
fn recording_metrics_does_not_break_the_steady_state() {
    // The obs overhead budget: with the kernel-layer counters mounted,
    // a span timing every fit, and explicit histogram/counter recording
    // in the loop, the steady state must stay allocation-free — the
    // whole point of the lock-free record paths.
    use amalur_obs::{span, Counter, Histogram, MetricsRegistry, VirtualClock};

    let reg = MetricsRegistry::new();
    amalur_matrix::mount_metrics(&reg);
    amalur_factorize::mount_metrics(&reg);
    static FITS: Counter = Counter::new();
    static FIT_US: Histogram = Histogram::new();
    reg.mount_counter("test.fits", &FITS);
    reg.mount_histogram("test.fit_us", &FIT_US);
    let clock = VirtualClock::new();

    let ft = factorized_fixture(13);
    let y = labels(&ft, false);
    let config = LinRegConfig {
        epochs: 25,
        learning_rate: 0.01,
        ..LinRegConfig::default()
    };
    assert_steady_state(|ws| {
        let _fit_span = span(&clock, &FIT_US);
        clock.advance_us(17);
        let mut model = LinearRegression::new(config.clone());
        model.fit_with_workspace(&ft, &y, ws).expect("trains");
        FITS.inc();
    });

    let snap = reg.snapshot();
    assert_eq!(snap.counter("test.fits"), Some(3));
    let fit_us = snap.histogram("test.fit_us").expect("mounted");
    assert_eq!(fit_us.count(), 3);
    // The dispatch counters moved while the steady state held: the
    // kernels recorded without allocating.
    assert!(snap.counter("factorize.lmm.calls").unwrap_or(0) > 0);
}

#[test]
fn workspace_reuse_matches_fresh_results() {
    // Training through a reused workspace must be bit-identical to
    // training with fresh allocations.
    let ft = factorized_fixture(12);
    let y = labels(&ft, false);
    let config = LinRegConfig {
        epochs: 40,
        learning_rate: 0.01,
        ..LinRegConfig::default()
    };
    let mut fresh = LinearRegression::new(config.clone());
    fresh.fit(&ft, &y).expect("trains");
    let mut ws = Workspace::new();
    // Dirty the pool with unrelated shapes first.
    let junk = ws.take_matrix(13, 17);
    ws.give_matrix(junk);
    let mut reused = LinearRegression::new(config);
    reused.fit_with_workspace(&ft, &y, &mut ws).expect("trains");
    assert_eq!(
        fresh.coefficients().unwrap(),
        reused.coefficients().unwrap(),
        "workspace reuse changed the numerics"
    );
}
