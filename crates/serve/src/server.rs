//! The serving engine: admission, one pending queue, worker pool.
//!
//! ```text
//!  clients ──admit──▶ pending queue (`pending.rs`, behind one lock)
//!                     arrival-ordered, at most `queue_capacity` jobs:
//!                     Overloaded when full, ShuttingDown when draining
//!                              │
//!                    an idle worker takes the oldest job and, with a
//!                    predict, every later pending predict of the same
//!                    (dataset, version) up to `max_batch_cols` columns
//!                              │
//!              N workers, each leasing its own arena shard,
//!              kernel threads capped so N·threads ≤ cores
//! ```
//!
//! One hand-off, client to worker, and no holding: batches are whatever
//! backlog built up while every worker was busy. The policy lives in
//! [`crate::pending`]; this file is the threads around it.

use crate::error::{Result, ServeError};
use crate::metrics::ServerMetrics;
use crate::pending::{Batchable, Job, Pending, Work};
use crate::request::{PredictRequest, PredictResponse, Ticket, TrainRequest, TrainResponse};
use amalur_catalog::DatasetRegistry;
use amalur_factorize::{FactorizeError, FactorizedTable};
use amalur_matrix::{set_thread_budget, DenseMatrix, Workspace, WorkspaceArena};
use amalur_ml::{LinearRegression, MlError};
use amalur_obs::{span, MetricsRegistry, MetricsSnapshot};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing kernels (clamped to ≥ 1).
    pub workers: usize,
    /// Most jobs that may be pending (admitted, not yet taken by a
    /// worker) at once; one more is rejected with
    /// [`ServeError::Overloaded`] instead of queueing without bound.
    pub queue_capacity: usize,
    /// Maximum GEMM width (total feature columns) per batch; `1`
    /// disables coalescing entirely. Each worker's arena shard is sized
    /// for this width up front, so batches of any width allocate nothing.
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
    /// Requests admitted into the pending queue
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
    reply: SyncSender<Result<PredictResponse>>,
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
    reply: SyncSender<Result<TrainResponse>>,
    admitted_us: u64,
}

impl Batchable for PredictJob {
    fn key(&self) -> (&str, u64) {
        (&self.dataset, self.version)
    }

    fn cols(&self) -> usize {
        self.features.cols()
    }
}

type Queue = Pending<PredictJob, TrainJob>;

struct Inner {
    registry: Arc<DatasetRegistry<FactorizedTable>>,
    pending: Mutex<Queue>,
    /// Signalled once per admitted job, and to everyone on drain.
    ready: Condvar,
    arena: WorkspaceArena,
    metrics: ServerMetrics,
}

impl Inner {
    /// The queue's methods cannot leave it half-updated, so a lock
    /// poisoned by a panic elsewhere is still good to use.
    fn pending(&self) -> MutexGuard<'_, Queue> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn admit(&self, job: Job<PredictJob, TrainJob>) -> Result<()> {
        let admitted = self.pending().admit(job);
        match &admitted {
            Ok(()) => self.ready.notify_one(),
            Err(ServeError::Overloaded { .. }) => self.metrics.rejected_requests.inc(),
            Err(_) => {}
        }
        admitted
    }

    /// Blocks until there is work; `None` once the queue is drained.
    fn next_work(&self, max_batch_cols: usize) -> Option<Work<PredictJob, TrainJob>> {
        let mut pending = self.pending();
        loop {
            if let Some(work) = pending.take(max_batch_cols) {
                return Some(work);
            }
            if pending.is_draining() {
                return None;
            }
            pending = self
                .ready
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
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
        let (reply, rx) = sync_channel(1);
        let dataset_counter = self.inner.metrics.dataset_predicts(&req.dataset);
        self.inner.admit(Job::Predict(PredictJob {
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
        let (reply, rx) = sync_channel(1);
        self.inner.admit(Job::Train(TrainJob {
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
    /// predict/train latency, queue-wait, batch-width and batch-fill
    /// histograms, request counters (global and
    /// per-dataset), worker busy time, plus the mounted kernel-layer
    /// dispatch counters and workspace high-water gauge.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.registry().snapshot()
    }

    /// The server's metrics registry, for mounting additional metrics
    /// or embedding the `amalur-obs/v1` dump (a [`MetricsSnapshot`],
    /// which serializes to it) into bench reports.
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
}

/// A running serving engine (the worker pool). Dropping it drains like
/// [`Server::shutdown`].
pub struct Server {
    handle: ServerHandle,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Boots the worker threads against `registry`.
    ///
    /// # Errors
    /// [`ServeError::Spawn`] when the OS refuses to start a thread; any
    /// workers spawned before the failure are drained and joined.
    pub fn start(
        registry: Arc<DatasetRegistry<FactorizedTable>>,
        config: ServerConfig,
    ) -> Result<Server> {
        let workers = config.workers.max(1);
        let max_batch_cols = config.max_batch_cols.max(1);
        let total_threads = config
            .total_threads
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()));
        let per_worker_threads = (total_threads / workers).max(1);

        let mut server = Server {
            handle: ServerHandle {
                inner: Arc::new(Inner {
                    registry,
                    pending: Mutex::new(Pending::new(config.queue_capacity.max(1))),
                    ready: Condvar::new(),
                    arena: WorkspaceArena::new(workers),
                    metrics: ServerMetrics::new(),
                }),
            },
            workers: Vec::with_capacity(workers),
        };
        for idx in 0..workers {
            let inner = Arc::clone(&server.handle.inner);
            server.workers.push(
                thread::Builder::new()
                    .name(format!("amalur-serve-worker-{idx}"))
                    .spawn(move || run_worker(idx, per_worker_threads, max_batch_cols, &inner))
                    .map_err(ServeError::Spawn)?,
            );
        }
        Ok(server)
    }

    /// A cloneable client handle.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Graceful shutdown: stops admitting, drains every already-admitted
    /// request to completion, then joins the workers. Outstanding
    /// [`Ticket`]s all resolve before this returns.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let inner = &self.handle.inner;
        inner.pending().begin_drain();
        inner.ready.notify_all();
        for w in self.workers.drain(..) {
            // A worker that panicked already answered `WorkerLost` by
            // dropping its reply senders; there is nothing to add here.
            let _ = w.join();
        }
    }
}

fn run_worker(idx: usize, kernel_threads: usize, max_batch_cols: usize, inner: &Inner) {
    // The satellite guard: each worker caps its kernel parallelism so
    // the pool as a whole never oversubscribes the machine.
    set_thread_budget(kernel_threads);
    let (arena, metrics) = (&inner.arena, &inner.metrics);
    // Batch widths vary with timing, so before a worker serves a dataset
    // version it reserves in its shard every buffer a full-width batch
    // on it takes, rather than allocating on some later, wider batch:
    // everything active now, and datasets registered or republished
    // later when their first batch arrives. The reservation computes
    // nothing and writes no cell. One entry per dataset, holding the
    // version last warmed.
    let mut warmed: Vec<(String, u64)> = Vec::new();
    let mut warm = |dataset: &str, version: u64, table: &FactorizedTable, ws: &mut Workspace| {
        let entry = warmed.iter_mut().find(|(d, _)| d == dataset);
        if entry.as_ref().is_some_and(|(_, v)| *v == version) {
            return;
        }
        ws.reserve(&batch_buffers(table, max_batch_cols));
        metrics.worker_warmups.inc();
        match entry {
            Some((_, v)) => *v = version,
            None => warmed.push((dataset.to_owned(), version)),
        }
    };
    for name in inner.registry.names() {
        if let Ok(active) = inner.registry.fetch(&name) {
            warm(&name, active.version, &active.data, &mut arena.lease(idx));
        }
    }
    while let Some(work) = inner.next_work(max_batch_cols) {
        // Everything recorded below is a relaxed atomic add through a
        // pre-registered handle: no allocation, so instrumented workers
        // stay inside the steady-state zero-allocation contract.
        let exec_start = metrics.now_us();
        let mut ws = arena.lease(idx);
        match work {
            Work::Train(job) => {
                metrics
                    .train_queue_wait_us
                    .record(exec_start.saturating_sub(job.admitted_us));
                let _exec = span(metrics.clock(), &metrics.worker_exec_us);
                execute_train(job, &mut ws, metrics);
            }
            Work::PredictBatch(jobs) => {
                // `take` never returns an empty batch.
                let Some(first) = jobs.first() else { continue };
                let cols: usize = jobs.iter().map(Batchable::cols).sum();
                for job in &jobs {
                    metrics
                        .queue_wait_us
                        .record(exec_start.saturating_sub(job.admitted_us));
                }
                if jobs.len() > 1 {
                    metrics.coalesced_predicts.add(jobs.len() as u64);
                }
                metrics.batch_width_cols.record(cols as u64);
                metrics.batch_jobs.record(jobs.len() as u64);
                metrics
                    .fill_pct
                    .record((cols * 100 / max_batch_cols) as u64);
                let _exec = span(metrics.clock(), &metrics.worker_exec_us);
                warm(&first.dataset, first.version, &first.table, &mut ws);
                execute_predict_batch(&first.table, cols, &jobs, &mut ws, metrics);
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
        .fit_with_workspace(&*job.table, &job.labels, ws)
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

/// Rows of the batch product per step of the reply pass: a 32-wide block
/// is 16 KB, so it stays in L1 while every requester takes its columns.
const REPLY_BLOCK_ROWS: usize = 64;

/// The lengths of the buffers a `cols`-wide batch on `table` checks out
/// of its worker's shard, all at once: the operand (`c_T × cols`) and
/// the product (`r_T × cols`) of [`execute_predict_batch`], then the
/// scratch of `lmm_into` ([`FactorizedTable::lmm_scratch`]). The warm-up
/// reserves this list for `max_batch_cols`, which makes every narrower
/// batch a pool hit.
fn batch_buffers(table: &FactorizedTable, cols: usize) -> [usize; 4] {
    let (r_t, c_t) = table.target_shape();
    let [xk, stacked] = table.lmm_scratch(cols);
    [c_t * cols, r_t * cols, xk, stacked]
}

/// Runs one (dataset, version) batch of `total_cols` operand columns — a
/// lone request is a batch of one — through the one factorized LMM,
/// `FactorizedTable::lmm_into`, and hands each requester its own
/// columns. Column `j` of that product depends on column `j` of the
/// operand alone, so a request's bytes cannot depend on its companions.
/// Scratch (the coalesced rhs/out, [`batch_buffers`]) comes from the
/// worker's arena shard, so steady-state batches allocate nothing fresh;
/// only the response matrices handed to clients are freshly allocated,
/// without a zero fill. The product's buffer is not zero-filled either:
/// `lmm_into` overwrites every cell of it.
///
/// The replies are cut from the row-major product in **one blocked
/// pass**: for each block of [`REPLY_BLOCK_ROWS`] rows, every requester
/// in turn appends its columns of those rows to its own buffer, so the
/// product is streamed once, not once per requester, and each block is
/// read while it is in L1. A request that is its whole batch takes the
/// product in one contiguous copy. Every reply is built before the
/// first goes out.
fn execute_predict_batch(
    table: &FactorizedTable,
    total_cols: usize,
    jobs: &[PredictJob],
    ws: &mut Workspace,
    metrics: &ServerMetrics,
) {
    let (r_t, c_t) = table.target_shape();
    let [rhs_len, out_len, ..] = batch_buffers(table, total_cols);
    let mut rhs = ws.take(rhs_len);
    let mut offset = 0;
    for job in jobs {
        let k = job.features.cols();
        for (dst, src) in rhs
            .chunks_exact_mut(total_cols)
            .zip(job.features.as_slice().chunks_exact(k))
        {
            dst[offset..offset + k].copy_from_slice(src);
        }
        offset += k;
    }
    // Shapes were validated at admission, so a failure here is
    // exceptional; every requester learns about it, typed.
    let mut replies = DenseMatrix::from_vec(c_t, total_cols, rhs)
        .and_then(|rhs| {
            let out = DenseMatrix::from_vec(r_t, total_cols, ws.take_stale(out_len))?;
            Ok((rhs, out))
        })
        .map_err(FactorizeError::from)
        .and_then(|(rhs, mut out)| {
            let product = table.lmm_into(&rhs, &mut out, ws);
            let replies = product.map(|()| cut_replies(out.as_slice(), total_cols, jobs));
            ws.give_matrix(rhs);
            ws.give_matrix(out);
            replies
        })
        .map(Vec::into_iter);
    for job in jobs {
        let reply = match &mut replies {
            Ok(cells) => {
                let cells = cells.next().unwrap_or_default();
                DenseMatrix::from_vec(r_t, job.features.cols(), cells)
                    .map(|predictions| PredictResponse {
                        dataset: job.dataset.clone(),
                        version: job.version,
                        predictions,
                        batched_with: jobs.len(),
                    })
                    .map_err(|e| ServeError::Factorize(e.into()))
            }
            Err(e) => Err(ServeError::Factorize(e.clone())),
        };
        // Recorded BEFORE the reply goes out, as for trains.
        metrics
            .predict_latency_us
            .record(metrics.now_us().saturating_sub(job.admitted_us));
        let _ = job.reply.send(reply);
    }
}

/// The blocked reply pass of [`execute_predict_batch`]: each job's
/// columns of the row-major batch product `out` (`total_cols` wide, in
/// job order), as the row-major cells of its reply.
fn cut_replies(out: &[f64], total_cols: usize, jobs: &[PredictJob]) -> Vec<Vec<f64>> {
    if let [_] = jobs {
        return vec![out.to_vec()];
    }
    let rows = out.len() / total_cols;
    let mut replies: Vec<Vec<f64>> = jobs
        .iter()
        .map(|job| Vec::with_capacity(rows * job.features.cols()))
        .collect();
    for block in out.chunks(REPLY_BLOCK_ROWS * total_cols) {
        let mut offset = 0;
        for (job, reply) in jobs.iter().zip(&mut replies) {
            let k = job.features.cols();
            let block_rows = block.chunks_exact(total_cols);
            if k == 1 {
                reply.extend(block_rows.map(|row| row[offset]));
            } else {
                for row in block_rows {
                    reply.extend_from_slice(&row[offset..offset + k]);
                }
            }
            offset += k;
        }
    }
    replies
}

#[cfg(test)]
mod tests {
    use super::*;
    use amalur_data::{generate_two_source, TwoSourceSpec};
    use std::sync::mpsc::Receiver;

    /// A fully covered pair, and one with uncovered rows and slots.
    fn tables() -> Vec<Arc<FactorizedTable>> {
        [(1.0, false, 3), (0.7, true, 4)]
            .into_iter()
            .map(|(row_coverage, target_redundancy, seed)| {
                let spec = TwoSourceSpec {
                    rows_s1: 150,
                    cols_s1: 4,
                    rows_s2: 40,
                    cols_s2: 7,
                    shared_cols: 1,
                    target_redundancy,
                    row_coverage,
                    source_redundancy: false,
                    seed,
                };
                let (md, data) = generate_two_source(&spec).unwrap();
                Arc::new(FactorizedTable::new(md, data).unwrap())
            })
            .collect()
    }

    /// One job per entry of `widths` on `table`, with distinct features.
    fn jobs(
        table: &Arc<FactorizedTable>,
        widths: &[usize],
    ) -> Vec<(PredictJob, Receiver<Result<PredictResponse>>)> {
        let c_t = table.target_shape().1;
        let mut tag = 0.0;
        widths
            .iter()
            .map(|&k| {
                let cells = (0..c_t * k)
                    .map(|i| {
                        tag += 1.0;
                        (i as f64 * 0.37 + tag * 1.13).sin()
                    })
                    .collect();
                let (reply, rx) = sync_channel(1);
                let job = PredictJob {
                    dataset: "ds".into(),
                    version: 1,
                    table: Arc::clone(table),
                    features: DenseMatrix::from_vec(c_t, k, cells).unwrap(),
                    reply,
                    admitted_us: 0,
                };
                (job, rx)
            })
            .collect()
    }

    /// The reply bits of one batch of `widths` through `ws`.
    fn run(table: &Arc<FactorizedTable>, widths: &[usize], ws: &mut Workspace) -> Vec<Vec<u64>> {
        let (jobs, replies): (Vec<_>, Vec<_>) = jobs(table, widths).into_iter().unzip();
        let cols = widths.iter().sum();
        execute_predict_batch(table, cols, &jobs, ws, &ServerMetrics::new());
        replies
            .iter()
            .map(|rx| {
                let reply = rx.recv().unwrap().unwrap();
                reply
                    .predictions
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect()
    }

    const BATCHES: [&[usize]; 7] = [&[1], &[2], &[8], &[9], &[16], &[3, 1, 5], &[1; 16]];

    /// A batch overwrites every cell of the buffers it takes unzeroed:
    /// served through a shard whose buffers are full of NaN, every reply
    /// has the bits of the requester's own `lmm_into` on fresh scratch.
    #[test]
    fn served_replies_ignore_stale_buffers() {
        for table in tables() {
            let mut stale = Workspace::new();
            let bufs = batch_buffers(&table, 16).map(|len| stale.take(len));
            for mut buf in bufs {
                buf.fill(f64::NAN);
                stale.give(buf);
            }
            for widths in BATCHES {
                let got = run(&table, widths, &mut stale);
                for ((job, _), got) in jobs(&table, widths).iter().zip(got) {
                    let mut want = DenseMatrix::zeros(table.target_shape().0, job.features.cols());
                    table
                        .lmm_into(&job.features, &mut want, &mut Workspace::new())
                        .unwrap();
                    let want: Vec<u64> = want.as_slice().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "batch {widths:?}");
                }
            }
        }
    }

    /// `batch_buffers` is every buffer a batch takes: reserved for the
    /// widest batch, it serves every batch up to that width from the
    /// pool.
    #[test]
    fn a_warmed_shard_serves_every_narrower_batch_from_the_pool() {
        for table in tables() {
            let mut ws = Workspace::new();
            ws.reserve(&batch_buffers(&table, 16));
            let reserved = ws.fresh_allocations();
            for widths in BATCHES {
                run(&table, widths, &mut ws);
            }
            assert_eq!(ws.fresh_allocations(), reserved);
        }
    }
}
