//! The six workloads. Each runs in a process of its own.

pub mod fedavg;
pub mod serve;
pub mod silo_pipeline;
pub mod train;

use crate::harness::{Outcome, RunConfig};

pub fn run(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match workload {
        "silo_pipeline" => silo_pipeline::run(cfg),
        "fedavg_faulty" => fedavg::run(cfg),
        "serve_steady" => serve::run(cfg, serve::Mix::Steady),
        "serve_burst_mixed" => serve::run(cfg, serve::Mix::BurstMixed),
        "train_factorized" => train::run(cfg, train::Mode::Factorized),
        "train_materialized" => train::run(cfg, train::Mode::Materialized),
        other => Err(format!("unknown workload {other}")),
    }
}
