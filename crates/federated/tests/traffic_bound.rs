//! What a FedAvg run reads and allocates, as counts.
//!
//! One test in its own binary: `matrix.gradient_pass.calls` is a
//! process-wide static and the recording allocator sees every thread, so
//! a second test beside this one would move both.
//!
//! * Passes over silo data: one per party per round for the loss and the
//!   first local epoch together, plus one per further local epoch of
//!   every update that was actually trained — once per (round, party)
//!   whose request got through, however many attempts were then served.
//! * Allocations: the residual buffer is sized in round 0; after that no
//!   request of a round is as large as one value per row.

#[path = "../../integration/tests/recording/mod.rs"]
mod recording;

use amalur_federated::faults::CrashWindow;
use amalur_federated::hfl::{FedAvgOrchestrator, PartySamples};
use amalur_federated::transport::{Direction, Fate, MessageMeta, Transport};
use amalur_federated::{FaultPlan, FaultyTransport, HflConfig, QuorumPolicy};
use amalur_matrix::DenseMatrix;
use amalur_obs::MetricsRegistry;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const PARTIES: usize = 3;
const ROWS: usize = 20_000;
const FEATURES: usize = 4;
const ROUNDS: usize = 10;

/// Passes a fault plan through and notes every uplink fate it is asked
/// for: the exchange asks once per served attempt, right after serving.
struct UplinkSpy {
    inner: FaultyTransport,
    served_attempts: usize,
    served_party_rounds: BTreeSet<(usize, usize)>,
}

impl Transport for UplinkSpy {
    fn fate(&mut self, meta: &MessageMeta) -> Fate {
        if meta.direction == Direction::Up {
            self.served_attempts += 1;
            self.served_party_rounds.insert((meta.round, meta.party));
        }
        self.inner.fate(meta)
    }

    fn available(&self, party: usize, round: usize) -> bool {
        self.inner.available(party, round)
    }

    fn rtt_ms(&self) -> u64 {
        self.inner.rtt_ms()
    }
}

#[test]
fn a_run_reads_each_silo_once_per_round_and_allocates_nothing_row_sized() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let parties: Vec<PartySamples> = (0..PARTIES)
        .map(|i| {
            let x = DenseMatrix::random_uniform(ROWS, FEATURES, -1.0, 1.0, &mut rng);
            let y: Vec<f64> = (0..ROWS)
                .map(|r| x.row(r).iter().sum::<f64>() + rng.gen_range(-0.01..0.01))
                .collect();
            PartySamples {
                name: format!("silo{i}"),
                x,
                y: DenseMatrix::column_vector(&y),
            }
        })
        .collect();
    let plan = FaultPlan {
        duplicate_prob: 0.1,
        corrupt_prob: 0.05,
        stale_prob: 0.05,
        crashes: vec![CrashWindow {
            party: 2,
            from_round: 4,
            until_round: 6,
        }],
        ..FaultPlan::grid(32, 0.25, 0.1)
    };
    let reg = MetricsRegistry::new();
    amalur_matrix::mount_metrics(&reg);
    let passes = || {
        reg.snapshot()
            .counter("matrix.gradient_pass.calls")
            .unwrap()
    };

    for local_epochs in [1, 3] {
        let config = HflConfig {
            rounds: ROUNDS,
            local_epochs,
            dp: Some((0.01, 1.0)),
            quorum: QuorumPolicy {
                min_fraction: 0.3,
                patience: ROUNDS,
            },
            ..HflConfig::default()
        };
        let mut spy = UplinkSpy {
            inner: FaultyTransport::new(plan.clone()).unwrap(),
            served_attempts: 0,
            served_party_rounds: BTreeSet::new(),
        };
        let passes_before = passes();
        let mut orchestrator = FedAvgOrchestrator::new(&parties, &config, &mut spy).unwrap();
        while !orchestrator.is_done() {
            let round = orchestrator.round();
            let ((), _, largest) = recording::record(|| orchestrator.step().unwrap());
            if round > 0 {
                assert!(
                    largest < ROWS * 8,
                    "round {round} made a {largest}-byte request; a row-sized buffer is {}",
                    ROWS * 8
                );
            }
        }
        drop(orchestrator.finish());

        let trained = spy.served_party_rounds.len();
        // The plan does what the bound is about: some exchanges were
        // never served, others served more than once.
        assert!(trained < ROUNDS * PARTIES, "{trained}");
        assert!(spy.served_attempts > trained, "{}", spy.served_attempts);
        assert_eq!(
            passes() - passes_before,
            (ROUNDS * PARTIES + (local_epochs - 1) * trained) as u64,
            "{local_epochs} local epochs, {trained} updates trained, {} attempts served",
            spy.served_attempts
        );
    }
}
