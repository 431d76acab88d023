//! `amalur-serve`: a concurrent serving layer over factorized datasets.
//!
//! The paper's pipeline ends where most deployments begin: once a
//! factorized table is integrated and a plan chosen, something has to
//! *host* it — answer prediction requests, retrain on demand, and stay
//! fast while many clients hammer it at once. This crate is that host.
//!
//! # Architecture
//!
//! A [`Server`] owns no data; datasets live in an
//! [`amalur_catalog::DatasetRegistry`]`<FactorizedTable>` and are
//! resolved to `Arc<FactorizedTable>` at admission, so publishing a new
//! version never disturbs requests already in flight. Three stages sit
//! between a client and a kernel, with one hand-off between threads:
//!
//! 1. **Admission** ([`ServerHandle`]): resolution + shape validation,
//!    then a push onto the pending queue. With
//!    [`ServerConfig::queue_capacity`] jobs already pending the request
//!    is rejected with [`ServeError::Overloaded`] immediately — load
//!    shedding is a typed error, not a growing buffer.
//! 2. **Pending queue**: one arrival-ordered queue behind one lock. An
//!    idle worker takes the oldest job and, if it is a predict, every
//!    later pending predict of the same (dataset, version) in arrival
//!    order, up to [`ServerConfig::max_batch_cols`] columns. Nothing is
//!    held back to wait for companions: a request that finds a worker
//!    idle runs at once, and batches form only out of the backlog that
//!    builds while every worker is busy. Every predict — alone or
//!    coalesced, one column or many — runs the one factorized LMM
//!    (`FactorizedTable::lmm_into`, the same call training makes), in
//!    which column `j` of the product depends on column `j` of the
//!    operand alone, bit for bit. There is no second predict path for a request to
//!    take, so coalescing is purely a throughput decision — it cannot
//!    change a client's answer, whatever the request's width.
//! 3. **Workers**: a fixed pool, each thread leasing its own shard of a
//!    [`amalur_matrix::WorkspaceArena`] and reserving in it, before it
//!    serves a dataset version, every buffer a full-width batch on it
//!    takes — capacity only, no product computed and no cell written —
//!    so steady-state serving performs **zero fresh workspace
//!    allocations** at any batch width (observable via
//!    [`ServerHandle::fresh_workspace_allocations`]).
//!    The requesters' replies are cut out of the batch product in one
//!    blocked pass over it, not one strided walk per requester.
//!    Each worker
//!    caps its kernel parallelism with
//!    [`amalur_matrix::set_thread_budget`] so `workers × kernel threads`
//!    never exceeds the machine.
//!
//! Everything the server counts lives in its obs registry
//! ([`ServerHandle::metrics`]); [`ServerHandle::stats`] is a view of it.
//!
//! [`Server::shutdown`] drains: admission stops (typed
//! [`ServeError::ShuttingDown`], decided under the same lock as the
//! push, so a request is either refused or ahead of the drain), every
//! already-admitted request still completes, and outstanding
//! [`Ticket`]s all resolve.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod metrics;
mod pending;
mod request;
mod server;

pub use error::{Result, ServeError};
pub use request::{PredictRequest, PredictResponse, Ticket, TrainRequest, TrainResponse};
pub use server::{Server, ServerConfig, ServerHandle, StatsSnapshot};

pub use amalur_obs::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
