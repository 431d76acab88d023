//! The serving engine: admission, batching dispatcher, worker pool.
//!
//! ```text
//!  clients ──try_send──▶ bounded admission queue (Overloaded when full)
//!                              │
//!                        dispatcher thread
//!                 (coalesces same-(dataset, version)
//!                  predicts inside `batch_window`)
//!                              │
//!                  bounded work queue (1 slot/worker,
//!                  backpressure onto the admission queue)
//!                              │
//!              N workers, each leasing its own arena shard,
//!              kernel threads capped so N·threads ≤ cores
//! ```

use crate::error::{Result, ServeError};
use crate::metrics::ServerMetrics;
use crate::request::{PredictRequest, PredictResponse, Ticket, TrainRequest, TrainResponse};
use amalur_catalog::DatasetRegistry;
use amalur_factorize::FactorizedTable;
use amalur_matrix::{set_thread_budget, DenseMatrix, Workspace, WorkspaceArena};
use amalur_ml::{LinearRegression, MlError};
use amalur_obs::{span, MetricsRegistry, MetricsSnapshot};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TrySendError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing kernels (clamped to ≥ 1).
    pub workers: usize,
    /// Admission-queue capacity; a full queue rejects with
    /// [`ServeError::Overloaded`] instead of queueing unboundedly.
    pub queue_capacity: usize,
    /// How long the dispatcher holds an admitted predict open for
    /// same-dataset companions before dispatching the batch.
    pub batch_window: Duration,
    /// Maximum GEMM width (total feature columns) per batch; `1`
    /// disables coalescing entirely.
    pub max_batch_cols: usize,
    /// Total kernel-thread budget split evenly across workers so
    /// `workers × per-worker threads` never exceeds it; `None` uses the
    /// machine's available parallelism.
    pub total_threads: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 1024,
            batch_window: Duration::from_micros(200),
            max_batch_cols: 32,
            total_threads: None,
        }
    }
}

/// Monotonic counters exposed by [`ServerHandle::stats`] — a view of
/// the obs registry ([`ServerHandle::metrics`]), which is the only place
/// the serving layer counts anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests admitted past the bounded queue
    /// (`serve.requests.predict` + `serve.requests.train`).
    pub accepted: u64,
    /// Requests rejected with [`ServeError::Overloaded`]
    /// (`serve.requests.rejected`).
    pub rejected: u64,
    /// GEMM dispatches on the predict path, one per batch of any size
    /// (samples of `serve.batch.jobs`).
    pub predict_batches: u64,
    /// Predict requests that shared a GEMM with at least one other
    /// (`serve.batch.coalesced_predicts`).
    pub coalesced_predicts: u64,
    /// Predict requests completed (samples of
    /// `serve.predict.latency_us`).
    pub predicts_done: u64,
    /// Train requests completed (samples of `serve.train.latency_us`).
    pub trains_done: u64,
}

struct PredictJob {
    dataset: String,
    version: u64,
    table: Arc<FactorizedTable>,
    features: DenseMatrix,
    reply: Sender<Result<PredictResponse>>,
    /// Admission timestamp on the server's shared wall clock (µs) —
    /// queue-wait and end-to-end latency both measure from here.
    admitted_us: u64,
}

struct TrainJob {
    dataset: String,
    version: u64,
    table: Arc<FactorizedTable>,
    labels: DenseMatrix,
    config: amalur_ml::LinRegConfig,
    reply: Sender<Result<TrainResponse>>,
    admitted_us: u64,
}

enum Job {
    Predict(PredictJob),
    Train(TrainJob),
    /// Enqueued exactly once by [`Server::shutdown`]; FIFO order
    /// guarantees every previously admitted job is dispatched first.
    Shutdown,
}

enum Work {
    /// One GEMM's worth of predict jobs for the same (dataset, version).
    PredictBatch(Vec<PredictJob>),
    Train(TrainJob),
    Shutdown,
}

struct Inner {
    registry: Arc<DatasetRegistry<FactorizedTable>>,
    queue_tx: Sender<Job>,
    queue_capacity: usize,
    accepting: AtomicBool,
    arena: Arc<WorkspaceArena>,
    metrics: ServerMetrics,
}

/// Cloneable client-side handle: admission control plus observability.
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
}

impl ServerHandle {
    /// Submits a prediction without blocking on its execution.
    ///
    /// Resolution and shape validation happen here, synchronously, so
    /// malformed requests never consume queue slots.
    ///
    /// # Errors
    /// [`ServeError::ShuttingDown`], [`ServeError::Dataset`],
    /// [`ServeError::BadRequest`], or [`ServeError::Overloaded`].
    pub fn submit_predict(&self, req: PredictRequest) -> Result<Ticket<PredictResponse>> {
        let (version, table) = self.resolve(&req.dataset, req.version)?;
        let (_, c_t) = table.target_shape();
        if req.features.rows() != c_t || req.features.cols() == 0 {
            return Err(ServeError::BadRequest(format!(
                "features must be {c_t} × k (k ≥ 1) for dataset '{}', got {:?}",
                req.dataset,
                req.features.shape()
            )));
        }
        let (reply, rx) = channel::bounded(1);
        let dataset_counter = self.inner.metrics.dataset_predicts(&req.dataset);
        self.admit(Job::Predict(PredictJob {
            dataset: req.dataset,
            version,
            table,
            features: req.features,
            reply,
            admitted_us: self.inner.metrics.now_us(),
        }))?;
        self.inner.metrics.predict_requests.inc();
        dataset_counter.inc();
        Ok(Ticket { rx })
    }

    /// Submits a prediction and blocks until its response arrives.
    ///
    /// # Errors
    /// As [`Self::submit_predict`], plus whatever the worker reports.
    pub fn predict(&self, req: PredictRequest) -> Result<PredictResponse> {
        self.submit_predict(req)?.wait()
    }

    /// Submits a training request without blocking on its execution.
    ///
    /// # Errors
    /// As [`Self::submit_predict`].
    pub fn submit_train(&self, req: TrainRequest) -> Result<Ticket<TrainResponse>> {
        let (version, table) = self.resolve(&req.dataset, req.version)?;
        let (r_t, _) = table.target_shape();
        if req.labels.shape() != (r_t, 1) {
            return Err(ServeError::BadRequest(format!(
                "labels must be {r_t} × 1 for dataset '{}', got {:?}",
                req.dataset,
                req.labels.shape()
            )));
        }
        let (reply, rx) = channel::bounded(1);
        self.admit(Job::Train(TrainJob {
            dataset: req.dataset,
            version,
            table,
            labels: req.labels,
            config: req.config,
            reply,
            admitted_us: self.inner.metrics.now_us(),
        }))?;
        self.inner.metrics.train_requests.inc();
        Ok(Ticket { rx })
    }

    /// Submits a training request and blocks until the model is fitted.
    ///
    /// # Errors
    /// As [`Self::submit_train`], plus whatever the worker reports.
    pub fn train(&self, req: TrainRequest) -> Result<TrainResponse> {
        self.submit_train(req)?.wait()
    }

    /// Current counter values, read from the metrics registry.
    pub fn stats(&self) -> StatsSnapshot {
        let m = &self.inner.metrics;
        StatsSnapshot {
            accepted: m.predict_requests.get() + m.train_requests.get(),
            rejected: m.rejected_requests.get(),
            predict_batches: m.batch_jobs.count(),
            coalesced_predicts: m.coalesced_predicts.get(),
            predicts_done: m.predict_latency_us.count(),
            trains_done: m.train_latency_us.count(),
        }
    }

    /// A point-in-time snapshot of the server's metrics registry:
    /// predict/train latency, queue-wait, batch-width and
    /// window-occupancy histograms, request counters (global and
    /// per-dataset), worker busy time, plus the mounted kernel-layer
    /// dispatch counters and workspace high-water gauge.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.registry().snapshot()
    }

    /// The server's metrics registry, for mounting additional metrics
    /// or embedding the `amalur-obs/v1` dump
    /// ([`MetricsSnapshot::to_json`]) into bench reports.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        self.inner.metrics.registry()
    }

    /// Arena-wide workspace pool misses — constant across requests once
    /// every worker's shard is warm (the steady-state zero-allocation
    /// contract the serving tests pin down).
    pub fn fresh_workspace_allocations(&self) -> usize {
        self.inner.arena.fresh_allocations()
    }

    /// The registry this server resolves datasets against.
    pub fn registry(&self) -> &Arc<DatasetRegistry<FactorizedTable>> {
        &self.inner.registry
    }

    fn resolve(&self, dataset: &str, version: Option<u64>) -> Result<(u64, Arc<FactorizedTable>)> {
        let v = match version {
            Some(v) => self.inner.registry.fetch_version(dataset, v)?,
            None => self.inner.registry.fetch(dataset)?,
        };
        Ok((v.version, v.data))
    }

    fn admit(&self, job: Job) -> Result<()> {
        if !self.inner.accepting.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        match self.inner.queue_tx.try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => {
                self.inner.metrics.rejected_requests.inc();
                Err(ServeError::Overloaded {
                    capacity: self.inner.queue_capacity,
                })
            }
            Err(TrySendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
        }
    }
}

/// A running serving engine (dispatcher + worker pool). Dropping it
/// without [`Server::shutdown`] detaches the threads; prefer an
/// explicit shutdown so in-flight requests drain.
pub struct Server {
    handle: ServerHandle,
    dispatcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Boots the dispatcher and worker threads against `registry`.
    ///
    /// # Errors
    /// [`ServeError::Spawn`] when the OS refuses to start a thread; any
    /// workers spawned before the failure observe their channel close
    /// and exit.
    pub fn start(
        registry: Arc<DatasetRegistry<FactorizedTable>>,
        config: ServerConfig,
    ) -> Result<Server> {
        let workers = config.workers.max(1);
        let queue_capacity = config.queue_capacity.max(1);
        let max_batch_cols = config.max_batch_cols.max(1);
        let total_threads = config
            .total_threads
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()));
        let per_worker_threads = (total_threads / workers).max(1);

        let (queue_tx, queue_rx) = channel::bounded::<Job>(queue_capacity);
        // One slot per worker: when every worker is busy the dispatcher
        // blocks here, admission backs up into the bounded queue, and
        // overload becomes visible to clients instead of hiding in an
        // unbounded buffer.
        let (work_tx, work_rx) = channel::bounded::<Work>(workers);

        let arena = Arc::new(WorkspaceArena::new(workers));
        let metrics = ServerMetrics::new();

        let mut worker_handles = Vec::with_capacity(workers);
        for idx in 0..workers {
            let rx = work_rx.clone();
            let arena = Arc::clone(&arena);
            let metrics = metrics.clone();
            worker_handles.push(
                thread::Builder::new()
                    .name(format!("amalur-serve-worker-{idx}"))
                    .spawn(move || run_worker(idx, per_worker_threads, &rx, &arena, &metrics))
                    .map_err(ServeError::Spawn)?,
            );
        }
        drop(work_rx);

        let dispatcher = {
            let metrics = metrics.clone();
            let window = config.batch_window;
            thread::Builder::new()
                .name("amalur-serve-dispatcher".into())
                .spawn(move || {
                    run_dispatcher(
                        &queue_rx,
                        &work_tx,
                        window,
                        max_batch_cols,
                        workers,
                        &metrics,
                    )
                })
                .map_err(ServeError::Spawn)?
        };

        Ok(Server {
            handle: ServerHandle {
                inner: Arc::new(Inner {
                    registry,
                    queue_tx,
                    queue_capacity,
                    accepting: AtomicBool::new(true),
                    arena,
                    metrics,
                }),
            },
            dispatcher: Some(dispatcher),
            workers: worker_handles,
        })
    }

    /// A cloneable client handle.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Graceful shutdown: stops admitting, drains every already-admitted
    /// request to completion, then joins the dispatcher and workers.
    /// Outstanding [`Ticket`]s all resolve before this returns.
    pub fn shutdown(mut self) {
        self.handle.inner.accepting.store(false, Ordering::Release);
        // FIFO: every job admitted before this marker is dispatched
        // ahead of it. The blocking send also waits out a full queue.
        let _ = self.handle.inner.queue_tx.send(Job::Shutdown);
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Pulls admitted jobs, coalescing same-(dataset, version) predicts
/// that arrive within `window` into one column-stable GEMM of at most
/// `max_batch_cols` columns. Jobs that cannot join the open batch are
/// deferred (order across *different* datasets may shift by at most one
/// window; order within a dataset is preserved).
fn run_dispatcher(
    queue_rx: &Receiver<Job>,
    work_tx: &Sender<Work>,
    window: Duration,
    max_batch_cols: usize,
    workers: usize,
    metrics: &ServerMetrics,
) {
    let mut deferred: VecDeque<Job> = VecDeque::new();
    let mut draining = false;
    loop {
        let job = match deferred.pop_front() {
            Some(j) => j,
            None if draining => break,
            None => match queue_rx.recv() {
                Ok(j) => j,
                Err(_) => break,
            },
        };
        match job {
            Job::Shutdown => {
                // Deferred jobs (admitted before the marker) still drain;
                // one more pass flushes them without opening windows.
                draining = true;
            }
            Job::Train(t) => {
                if work_tx.send(Work::Train(t)).is_err() {
                    break;
                }
            }
            Job::Predict(first) => {
                let mut batch = vec![first];
                let mut cols = batch[0].features.cols();
                if !draining && max_batch_cols > 1 {
                    let deadline = Instant::now() + window;
                    while cols < max_batch_cols {
                        let remaining = deadline.saturating_duration_since(Instant::now());
                        if remaining.is_zero() {
                            break;
                        }
                        match queue_rx.recv_timeout(remaining) {
                            Ok(Job::Predict(p))
                                if p.dataset == batch[0].dataset
                                    && p.version == batch[0].version
                                    && cols + p.features.cols() <= max_batch_cols =>
                            {
                                cols += p.features.cols();
                                batch.push(p);
                            }
                            Ok(other) => deferred.push_back(other),
                            Err(RecvTimeoutError::Timeout) => break,
                            Err(RecvTimeoutError::Disconnected) => {
                                draining = true;
                                break;
                            }
                        }
                    }
                }
                if batch.len() > 1 {
                    metrics.coalesced_predicts.add(batch.len() as u64);
                }
                metrics.batch_width_cols.record(cols as u64);
                metrics.batch_jobs.record(batch.len() as u64);
                metrics
                    .window_occupancy_pct
                    .record((cols * 100 / max_batch_cols) as u64);
                if work_tx.send(Work::PredictBatch(batch)).is_err() {
                    break;
                }
            }
        }
    }
    for _ in 0..workers {
        let _ = work_tx.send(Work::Shutdown);
    }
}

fn run_worker(
    idx: usize,
    kernel_threads: usize,
    work_rx: &Receiver<Work>,
    arena: &WorkspaceArena,
    metrics: &ServerMetrics,
) {
    // The satellite guard: each worker caps its kernel parallelism so
    // the pool as a whole never oversubscribes the machine.
    set_thread_budget(kernel_threads);
    while let Ok(work) = work_rx.recv() {
        // Everything recorded below is a relaxed atomic add through a
        // pre-registered handle: no allocation, so instrumented workers
        // stay inside the steady-state zero-allocation contract.
        let exec_start = metrics.now_us();
        match work {
            Work::Shutdown => break,
            Work::Train(job) => {
                metrics
                    .train_queue_wait_us
                    .record(exec_start.saturating_sub(job.admitted_us));
                let _exec = span(metrics.clock(), &metrics.worker_exec_us);
                let mut ws = arena.lease(idx);
                execute_train(job, &mut ws, metrics);
            }
            Work::PredictBatch(jobs) => {
                for job in &jobs {
                    metrics
                        .queue_wait_us
                        .record(exec_start.saturating_sub(job.admitted_us));
                }
                let _exec = span(metrics.clock(), &metrics.worker_exec_us);
                let mut ws = arena.lease(idx);
                execute_predict_batch(jobs, &mut ws, metrics);
            }
        }
        metrics
            .worker_busy_us
            .add(metrics.now_us().saturating_sub(exec_start));
    }
}

fn execute_train(job: TrainJob, ws: &mut Workspace, metrics: &ServerMetrics) {
    let mut model = LinearRegression::new(job.config);
    let result = model
        .fit_with_workspace(&job.table, &job.labels, ws)
        .map_err(ServeError::from)
        .and_then(|()| {
            let coefficients = model
                .coefficients()
                .cloned()
                .ok_or(ServeError::Ml(MlError::NotFitted))?;
            Ok(TrainResponse {
                dataset: job.dataset,
                version: job.version,
                coefficients,
                epochs_run: model.loss_history().len(),
            })
        });
    // Latency records BEFORE the reply goes out, so a client holding
    // its response always finds its request in the histogram — and in
    // `stats()`, whose done counts are this histogram's sample counts.
    metrics
        .train_latency_us
        .record(metrics.now_us().saturating_sub(job.admitted_us));
    let _ = job.reply.send(result);
}

/// Runs one (dataset, version) batch — a lone request is a batch of one
/// — through the single column-stable GEMM and hands each requester its
/// own columns. Column `j` of that product depends on column `j` of the
/// operand alone, so a request's bytes cannot depend on its companions.
/// Scratch (the coalesced rhs/out) comes from the worker's arena shard,
/// so steady-state batches allocate nothing fresh; only the response
/// matrices handed to clients are freshly allocated.
fn execute_predict_batch(jobs: Vec<PredictJob>, ws: &mut Workspace, metrics: &ServerMetrics) {
    // The dispatcher never sends an empty batch; an empty Vec simply has
    // no requester to answer.
    let Some(first) = jobs.first() else { return };
    let (r_t, c_t) = first.table.target_shape();
    let total_cols: usize = jobs.iter().map(|j| j.features.cols()).sum();

    let mut rhs = ws.take_matrix(c_t, total_cols);
    let mut offset = 0;
    for job in &jobs {
        let k = job.features.cols();
        copy_columns(
            (job.features.as_slice(), k, 0),
            (rhs.as_mut_slice(), total_cols, offset),
            k,
        );
        offset += k;
    }
    let mut out = ws.take_matrix(r_t, total_cols);
    // Shapes were validated at admission, so a failure here is
    // exceptional; every requester learns about it, typed.
    let product = first.table.lmm_colstable_into(&rhs, &mut out, ws);

    let mut offset = 0;
    for job in &jobs {
        let k = job.features.cols();
        let reply = match &product {
            Ok(()) => {
                let mut predictions = DenseMatrix::zeros(r_t, k);
                copy_columns(
                    (out.as_slice(), total_cols, offset),
                    (predictions.as_mut_slice(), k, 0),
                    k,
                );
                Ok(PredictResponse {
                    dataset: job.dataset.clone(),
                    version: job.version,
                    predictions,
                    batched_with: jobs.len(),
                })
            }
            Err(e) => Err(ServeError::Factorize(e.clone())),
        };
        offset += k;
        // Recorded BEFORE the reply goes out, as for trains.
        metrics
            .predict_latency_us
            .record(metrics.now_us().saturating_sub(job.admitted_us));
        let _ = job.reply.send(reply);
    }
    ws.give_matrix(rhs);
    ws.give_matrix(out);
}

/// Copies `k` columns between two row-major matrices of equal height,
/// each given as `(cells, width, first column)`. When the `k` columns
/// are the whole of both (a request that is its whole batch) this is one
/// contiguous copy.
fn copy_columns(
    (src, src_width, src_at): (&[f64], usize, usize),
    (dst, dst_width, dst_at): (&mut [f64], usize, usize),
    k: usize,
) {
    if k == src_width && k == dst_width {
        dst.copy_from_slice(src);
        return;
    }
    for (d, s) in dst
        .chunks_exact_mut(dst_width)
        .zip(src.chunks_exact(src_width))
    {
        d[dst_at..dst_at + k].copy_from_slice(&s[src_at..src_at + k]);
    }
}
