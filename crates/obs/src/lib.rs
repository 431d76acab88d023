//! `amalur-obs`: the workspace's unified metrics and span-tracing layer.
//!
//! The ROADMAP's north star is a production-scale serving system, and
//! production systems fail precisely where they are unobservable. This
//! crate gives every layer — serving, kernels, federated rounds, cost
//! calibration — one vocabulary for runtime measurement, under two hard
//! constraints inherited from the rest of the workspace:
//!
//! 1. **The record path is allocation-free and lock-free.** Recording a
//!    [`Counter`], [`Gauge`] or [`Histogram`] touches only pre-sized
//!    atomics, so instrumentation may legally run inside `_into`
//!    kernels and the zero-fresh-allocation serving steady state
//!    (`recording_metrics_does_not_break_the_steady_state` in the root
//!    `tests/zero_alloc.rs` pins it for training, and
//!    `steady_state_serving_is_workspace_allocation_free` in
//!    `crates/serve/tests/serving.rs` for a recording server;
//!    `amalur-audit` enforces it statically via the `[no_alloc]
//!    record_fns` contract). All
//!    allocation happens at *registration* time, which hot paths never
//!    do — they hold handles.
//! 2. **Seeded paths stay deterministic.** Span timing is generic over
//!    a [`Clock`]: serving and bench paths use [`WallClock`]
//!    (`Instant`-backed), while seeded federated paths use
//!    [`VirtualClock`], whose time only moves when the orchestrator
//!    advances it — so instrumented runs remain bit-replayable and the
//!    `amalur-audit` `[determinism]` rule covers every obs module
//!    except the wall clock.
//!
//! # Architecture
//!
//! * [`MetricsRegistry`] — a named directory of metrics. Handles are
//!   either registry-owned (`Arc`) or mounted `'static`s (the kernel
//!   layer declares `static` counters and mounts them so GEMM dispatch
//!   needs no registry plumbing). Snapshots are deterministic
//!   (BTreeMap order) and dump to a stable JSON shape
//!   (`amalur-obs/v1`) that the bench bins embed in `BENCH_*.json`.
//! * [`Counter`] — monotone, sharded across cache-line-padded atomics
//!   so concurrent workers do not serialize on one line.
//! * [`Gauge`] — last-value or high-water (`set_max`) semantics, e.g.
//!   workspace high-water marks.
//! * [`Histogram`] — fixed-bucket, log-spaced (quarter-octave: bucket
//!   boundaries grow by ~1.19×), values exact below 4. `record` is two
//!   relaxed atomic adds. Snapshots expose bucket-resolution quantiles
//!   and merge associatively across worker shards.
//! * [`SpanGuard`] — scope timing with a fixed-depth thread-local
//!   stack; nested spans accumulate child time so a span can also
//!   report *exclusive* (self) time. Created via [`span`] (total time)
//!   or [`span_with_self`] (total + self).
//!
//! # Metric naming scheme
//!
//! `<layer>.<subsystem>.<metric>[_<unit>]`, all lower-snake within
//! segments: `serve.predict.latency_us`, `matrix.gemm.packed_dispatches`,
//! `federated.round.virtual_us`, `cost.calibrate.fact_epoch_ns`.
//! Dynamic name parts (dataset names) are their own trailing segment:
//! `serve.dataset.<name>.predicts`. Units are always in the name, never
//! implied.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metric;
mod registry;
mod span;
mod vtime;
mod wall;

pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{MetricHandle, MetricsRegistry, MetricsSnapshot};
pub use span::{span, span_depth, span_with_self, Clock, SpanGuard};
pub use vtime::VirtualClock;
pub use wall::WallClock;
