//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root restates these tables; a test holds the two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
    pub meaning: &'static str,
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "silo_pipeline",
        why: "the paper's pipeline as one job (CSV, matching, ER, metadata, plan, train, serve): the only workload where relational, integration, catalog, cost and core do most of the work",
    },
    WorkloadSpec {
        name: "train_factorized",
        why: "five models on a 50000x60 star table kept factorized: factorize and ml do nearly all the work, with both a bandwidth-bound (x1) and a GEMM-like (x8) use of the rewrites",
    },
    WorkloadSpec {
        name: "train_materialized",
        why: "same table, models and seed after materialize(): bypasses the rewrites so matrix does the work; the control on which a factorize-only change must not move",
    },
    WorkloadSpec {
        name: "serve_steady",
        why: "open loop, evenly spaced single predicts at 1000/s on one dataset: batch width stays 1, so it times admission, the batch window and the solo lmm_into path",
    },
    WorkloadSpec {
        name: "serve_burst_mixed",
        why: "open loop, bursts of 16 over two datasets beside retrains and publishes, then closed-loop saturation: coalesced batches, deferral, version churn, workers contended",
    },
    WorkloadSpec {
        name: "fedavg_faulty",
        why: "FedAvg over 8 parties on a seeded faulty transport (drops, stragglers, duplicates, corruption, a crash): federated does the work and its counts repeat exactly",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    meaning: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        meaning,
    }
}

/// What a user of the system sees. Every workload reports every one; the
/// *operation* is the thing its user waits for (README, "Operations").
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Better::Lower, 0.25,
        "everything before the measured phase (input generation, CSV writing, table building, server boot, warm-up), median of 3 set-ups in the run"),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25,
        "median time a caller waits for one operation; open loop: from the instant the request was due, median over 1-s windows of the per-window p50"),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25,
        "one closed-loop client: the rate the median operation sustains; serve_steady: replies per second of the open loop; serve_burst_mixed: predicts per second of its closed-loop saturation phase"),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    meaning: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        meaning,
    }
}

use Better::{Higher, Lower};

/// Single layers, from the traced run. A workload reports 0 for a layer
/// it does not touch.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("relational.read_csv_ms", "ms", Lower, "csv::read_csv per round (6 files)"),
    layer("relational.csv_mb_per_s", "MB/s", Higher, "CSV bytes parsed per second of read_csv"),
    layer("integration.match_schemas_ms", "ms", Lower, "match_schemas replayed on a round's tables"),
    layer("integration.match_rows_ms", "ms", Lower, "match_rows replayed on a round's tables"),
    layer("integration.metadata_ms", "ms", Lower, "integrate_pair + integrate_star less the two replays: mapping, indicator, redundancy, to_matrix"),
    layer("integration.er_f1", "ratio", Higher, "F1 of the row matching against the planted truth"),
    layer("catalog.to_json_ms", "ms", Lower, "MetadataCatalog::to_json per round"),
    layer("catalog.json_kb", "kB", Lower, "size of that JSON per round"),
    layer("catalog.registry_publish_us", "us", Lower, "median DatasetRegistry::publish beside traffic"),
    layer("catalog.registry_fetch_ns", "ns", Lower, "DatasetRegistry::fetch, replayed 100000 times"),
    layer("cost.plan_us", "us", Lower, "Amalur::plan per round (features + decision)"),
    layer("cost.decisions_factorize", "count", Higher, "plans per round that chose factorization (exact)"),
    layer("cost.regret_pct", "%", Lower, "training time under the chosen plan over the faster of both, replayed"),
    layer("core.facade_self_ms", "ms", Lower, "facade spans less replays: table clones, DiEntry, model registration"),
    layer("factorize.lmm_x1_ms", "ms", Lower, "lmm_into, 1 column, warm workspace"),
    layer("factorize.lmm_x8_ms", "ms", Lower, "lmm_into, 8 columns"),
    layer("factorize.lmm_t_x1_ms", "ms", Lower, "lmm_transpose_into, 1 column"),
    layer("factorize.lmm_t_x8_ms", "ms", Lower, "lmm_transpose_into, 8 columns"),
    layer("factorize.gram_ms", "ms", Lower, "factorized gram()"),
    layer("factorize.lmm_calls", "count", Lower, "lmm calls per pass (exact)"),
    layer("factorize.lmm_transpose_calls", "count", Lower, "lmm_transpose calls per pass (exact)"),
    layer("factorize.compression_ratio", "ratio", Higher, "target cells over source cells"),
    layer("factorize.materialize_ms", "ms", Lower, "materialize()"),
    layer("factorize.lmm_colstable_x16_ms", "ms", Lower, "lmm_colstable_into, 16 columns, on the served dataset"),
    layer("matrix.gemv_ms", "ms", Lower, "matmul_into, 1 column, on the dense table"),
    layer("matrix.gemm_x8_ms", "ms", Lower, "matmul_into, 8 columns"),
    layer("matrix.gemm_t_x8_ms", "ms", Lower, "transpose_matmul_into, 8 columns"),
    layer("matrix.gram_ms", "ms", Lower, "dense gram()"),
    layer("matrix.gemm_gflops", "GFLOP/s", Higher, "2*r*c*8 flops over gemm_x8_ms (computed from shapes)"),
    layer("matrix.gemv_gb_per_s", "GB/s", Higher, "8*r*c bytes over gemv_ms (computed from shapes)"),
    layer("matrix.packed_dispatches", "count", Lower, "packed-kernel GEMM dispatches per pass (exact)"),
    layer("matrix.fallback_dispatches", "count", Lower, "fallback GEMM dispatches per pass (exact)"),
    layer("matrix.ws_fresh_allocs_steady", "count", Lower, "Workspace::fresh_allocations after the first pass"),
    layer("ml.linreg_epoch_ms", "ms", Lower, "linear regression GD, per epoch"),
    layer("ml.logreg_epoch_ms", "ms", Lower, "logistic regression GD, per epoch"),
    layer("ml.kmeans_iter_ms", "ms", Lower, "k-means k=8, per iteration"),
    layer("ml.gnmf_iter_ms", "ms", Lower, "GNMF rank 4, per iteration"),
    layer("ml.normal_eq_ms", "ms", Lower, "fit_normal_equations"),
    layer("ml.epoch_self_pct", "%", Lower, "share of a linreg epoch not in the two replayed operator calls"),
    layer("serve.admit_p50_us", "us", Lower, "submit_predict call, median"),
    layer("serve.queue_wait_p50_us", "us", Lower, "server histogram: admission to execution start"),
    layer("serve.exec_p50_us", "us", Lower, "server histogram: worker execution span"),
    layer("serve.client_server_p50_gap_us", "us", Lower, "client-measured p50 less the server's own latency p50"),
    layer("serve.predict_p95_ms", "ms", Lower, "open-loop p95 from due time, median over windows"),
    layer("serve.predict_p99_ms", "ms", Lower, "open-loop p99 from due time, median over windows"),
    layer("serve.batch_width_mean", "count", Higher, "mean columns per dispatched batch"),
    layer("serve.coalesced_share", "ratio", Higher, "predicts that shared a GEMM over predicts done"),
    layer("serve.worker_busy_share", "ratio", Lower, "worker busy time over wall time x workers"),
    layer("serve.ws_fresh_allocs_steady", "count", Lower, "arena allocations during the measured phase"),
    layer("serve.rejected", "count", Lower, "requests refused at admission"),
    layer("serve.gen_late_p99_us", "us", Lower, "how late the generator fired, p99"),
    layer("serve.retrain_p50_ms", "ms", Lower, "submit to reply of TrainRequests beside the predict traffic"),
    layer("federated.step_p50_ms", "ms", Lower, "FedAvgOrchestrator::step, median"),
    layer("federated.step_p95_ms", "ms", Lower, "the same, p95"),
    layer("federated.checkpoint_ms", "ms", Lower, "checkpoint().to_json(), median"),
    layer("federated.retries", "count", Lower, "CommStats::retries per run (exact)"),
    layer("federated.drops", "count", Lower, "CommStats::drops per run (exact)"),
    layer("federated.timeouts", "count", Lower, "CommStats::timeouts per run (exact)"),
    layer("federated.rounds_degraded", "count", Lower, "rounds aggregated below full participation (exact)"),
    layer("federated.rounds_skipped", "count", Lower, "rounds below quorum (exact)"),
    layer("federated.wire_bytes_per_round", "bytes", Lower, "CommStats::total_bytes over rounds (exact)"),
    layer("federated.virtual_s", "s", Lower, "sum of the virtual round durations: the modelled deployment time (exact)"),
    layer("federated.wire_mb", "MB", Lower, "CommStats::total_bytes per run, attempts and duplicates included (exact)"),
    layer("federated.rounds_to_target", "rounds", Lower, "first round within 1 % of the fault-free final loss (exact)"),
    layer("obs.trace_overhead_pct", "%", Lower, "op_p50 with spans on over spans off, same process"),
    layer("obs.peak_rss_mb", "MB", Lower, "VmHWM of the workload process at exit"),
];

/// `list`: the workloads and both metric tables, for people.
pub fn glossary() -> String {
    let mut text = String::from("workloads\n");
    for w in WORKLOADS {
        text.push_str(&format!("  {:<20} {}\n", w.name, w.why));
    }
    for (title, table) in [
        ("end-to-end metrics", END_TO_END),
        ("per-layer metrics", PER_LAYER),
    ] {
        text.push_str(title);
        text.push('\n');
        for m in table {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(", bound {:.0} %", b * 100.0));
            text.push_str(&format!(
                "  {:<34} {:<8} {} is better{bound}: {}\n",
                m.name,
                m.unit,
                m.better.as_str(),
                m.meaning
            ));
        }
    }
    text
}

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
        v.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
    }

    fn text(v: &Value, key: &str) -> String {
        match field(v, key) {
            Value::Str(s) => s.clone(),
            other => panic!("{key}: expected a string, found {other:?}"),
        }
    }

    fn items<'v>(v: &'v Value, key: &str) -> &'v [Value] {
        match field(v, key) {
            Value::Array(a) => a,
            other => panic!("{key}: expected an array, found {other:?}"),
        }
    }

    fn name_ok(n: &str) -> bool {
        let mut c = n.chars();
        c.next().is_some_and(|f| f.is_ascii_alphanumeric())
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_restates_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&json).expect("valid JSON");

        let workloads = items(&doc, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text(j, "name"), w.name);
            assert_eq!(text(j, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = items(&doc, key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (j, m) in listed.iter().zip(table) {
                assert_eq!(text(j, "name"), m.name);
                assert_eq!(text(j, "unit"), m.unit, "{}", m.name);
                assert_eq!(text(j, "better"), m.better.as_str(), "{}", m.name);
                match (j.get("bound"), m.bound) {
                    (None, None) => {}
                    (Some(Value::Float(b)), Some(bound)) => assert_eq!(*b, bound, "{}", m.name),
                    (j, m) => panic!("bound mismatch: {j:?} vs {m:?}"),
                }
            }
        }
        assert_eq!(items(&doc, "paths"), [Value::Str("benchmark".to_owned())]);
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        assert!(widest <= 0.25);
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
