//! Serving-layer observability: the per-server [`MetricsRegistry`] and
//! the pre-registered handles the hot paths record through.
//!
//! Handles are resolved once at server start; recording through them is
//! a relaxed atomic add and allocates nothing, which keeps instrumented
//! workers inside the steady-state zero-allocation contract
//! (`steady_state_serving_is_workspace_allocation_free` in
//! `crates/serve/tests/serving.rs` pins it on a recording server). The only
//! lazily registered names are the per-dataset request counters, and
//! those are resolved on the *client* thread at admission — never on a
//! worker.
//!
//! Timing uses [`WallClock`] because serving latencies are real
//! durations; the seeded federated paths use
//! [`amalur_obs::VirtualClock`] instead (see the `amalur-obs` crate
//! docs for the rule).

use amalur_obs::{Clock, Counter, Histogram, MetricHandle, MetricsRegistry, WallClock};
use std::sync::Arc;

/// The registry plus the handles the serving hot paths record through.
#[derive(Clone)]
pub(crate) struct ServerMetrics {
    registry: Arc<MetricsRegistry>,
    clock: WallClock,
    /// Admission-to-completion latency of each predict request (µs).
    pub predict_latency_us: MetricHandle<Histogram>,
    /// Admission-to-execution-start wait of each predict request (µs).
    pub queue_wait_us: MetricHandle<Histogram>,
    /// Admission-to-completion latency of each train request (µs).
    pub train_latency_us: MetricHandle<Histogram>,
    /// Admission-to-execution-start wait of each train request (µs).
    pub train_queue_wait_us: MetricHandle<Histogram>,
    /// Total feature columns per executed predict batch.
    pub batch_width_cols: MetricHandle<Histogram>,
    /// Requests coalesced into each executed predict batch.
    pub batch_jobs: MetricHandle<Histogram>,
    /// Predict requests that shared a batch with at least one other.
    pub coalesced_predicts: MetricHandle<Counter>,
    /// Batch width as a percentage of `max_batch_cols` — how much of a
    /// full batch the backlog behind the workers supplied.
    pub fill_pct: MetricHandle<Histogram>,
    /// Predict requests admitted.
    pub predict_requests: MetricHandle<Counter>,
    /// Train requests admitted.
    pub train_requests: MetricHandle<Counter>,
    /// Requests rejected at admission (queue full).
    pub rejected_requests: MetricHandle<Counter>,
    /// Total µs workers spent executing jobs — divide by wall time ×
    /// worker count for pool utilization.
    pub worker_busy_us: MetricHandle<Counter>,
    /// Per-job execution span on a worker (µs), recorded via
    /// [`amalur_obs::SpanGuard`].
    pub worker_exec_us: MetricHandle<Histogram>,
    /// Shard reservations for a full-width batch: one per worker and
    /// dataset version, at start or on a version's first batch.
    pub worker_warmups: MetricHandle<Counter>,
}

impl ServerMetrics {
    /// Builds the registry, mounts the kernel-layer statics, and
    /// resolves every fixed-name handle.
    pub fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        amalur_matrix::mount_metrics(&registry);
        amalur_factorize::mount_metrics(&registry);
        Self {
            clock: WallClock::new(),
            predict_latency_us: registry.histogram("serve.predict.latency_us"),
            queue_wait_us: registry.histogram("serve.predict.queue_wait_us"),
            train_latency_us: registry.histogram("serve.train.latency_us"),
            train_queue_wait_us: registry.histogram("serve.train.queue_wait_us"),
            batch_width_cols: registry.histogram("serve.batch.width_cols"),
            batch_jobs: registry.histogram("serve.batch.jobs"),
            coalesced_predicts: registry.counter("serve.batch.coalesced_predicts"),
            fill_pct: registry.histogram("serve.batch.fill_pct"),
            predict_requests: registry.counter("serve.requests.predict"),
            train_requests: registry.counter("serve.requests.train"),
            rejected_requests: registry.counter("serve.requests.rejected"),
            worker_busy_us: registry.counter("serve.worker.busy_us"),
            worker_exec_us: registry.histogram("serve.worker.exec_us"),
            worker_warmups: registry.counter("serve.worker.warmups"),
            registry,
        }
    }

    /// The shared wall clock all serving timestamps come from.
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// The clock itself, for span guards.
    pub fn clock(&self) -> &WallClock {
        &self.clock
    }

    /// The underlying registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Get-or-register the per-dataset predict counter
    /// `serve.dataset.<name>.predicts`. Called at admission (client
    /// thread), where the name allocation is acceptable.
    pub fn dataset_predicts(&self, dataset: &str) -> MetricHandle<Counter> {
        self.registry
            .counter(&format!("serve.dataset.{dataset}.predicts"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_names_are_registered_up_front() {
        let m = ServerMetrics::new();
        let snap = m.registry().snapshot();
        for name in [
            "serve.predict.latency_us",
            "serve.predict.queue_wait_us",
            "serve.train.latency_us",
            "serve.batch.width_cols",
            "serve.batch.jobs",
            "serve.batch.fill_pct",
        ] {
            assert!(snap.histogram(name).is_some(), "{name} missing");
        }
        for name in [
            "serve.requests.predict",
            "serve.requests.train",
            "serve.requests.rejected",
            "serve.batch.coalesced_predicts",
            "serve.worker.busy_us",
            "serve.worker.warmups",
            "matrix.gemm.packed_dispatches",
            "factorize.lmm.calls",
        ] {
            assert!(snap.counter(name).is_some(), "{name} missing");
        }
    }

    #[test]
    fn dataset_counter_is_get_or_register() {
        let m = ServerMetrics::new();
        m.dataset_predicts("flights").inc();
        m.dataset_predicts("flights").inc();
        let snap = m.registry().snapshot();
        assert_eq!(snap.counter("serve.dataset.flights.predicts"), Some(2));
    }
}
