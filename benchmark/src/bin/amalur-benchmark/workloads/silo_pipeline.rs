//! `silo_pipeline`: the paper's pipeline as one job, CSV bytes in, served
//! prediction out. Closed loop, one client, two job kinds alternating.
//!
//! * **fuzzy_pair** — two silos keyed by misspelt person names, fuzzy
//!   entity resolution, full outer join.
//! * **exact_star** — a label-holding base and three satellites on integer
//!   keys, exact entity resolution, left star.
//!
//! One *round* is one job of each kind; a sample is the round's time per
//! job, so the median is not torn between the two kinds.

use crate::harness::{
    closed_loop, closed_loop_metrics, err, max_rel_diff, repeat_setup, spans_on, split_alternating,
    Outcome, RunConfig,
};
use crate::inputs::{
    exact_star, fuzzy_pair, scoring_vectors, SiloCsv, FUZZY_KEY, FUZZY_LABEL, STAR_KEY, STAR_LABEL,
};
use crate::stats::median;
use crate::trace::{durations_ms, layer_self_ms, Layer, Span, Tracer};
use amalur_catalog::DatasetRegistry;
use amalur_core::{
    Amalur, Constraints, ExecutionPlan, IntegrationHandle, IntegrationOptions, ScenarioKind,
    TrainingConfig, TrainingWorkload,
};
use amalur_factorize::FactorizedTable;
use amalur_integration::{
    integrate_pair, integrate_star, match_rows, match_schemas, IntegrationResult, StarKind,
};
use amalur_matrix::{DenseMatrix, NO_MATCH};
use amalur_ml::{LogRegConfig, LogisticRegression};
use amalur_relational::{csv::read_csv, Table};
use amalur_serve::{PredictRequest, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const FUZZY_ROWS: usize = 8000;
const STAR_PATIENTS: usize = 50_000;
const EPOCHS: usize = 100;
const PREDICTS_PER_JOB: usize = 200;
const JOBS_PER_ROUND: f64 = 2.0;

/// Floors for entity resolution against the planted truth, from this
/// commit's measured values (precision 0.993, recall 0.9998 or better on
/// seeds 1 to 3 at full scale).
const ER_PRECISION_FLOOR: f64 = 0.98;
const ER_RECALL_FLOOR: f64 = 0.99;

fn training_config() -> TrainingConfig {
    // Features are unscaled (blood pressures, ages), hence the small step.
    TrainingConfig {
        epochs: EPOCHS,
        learning_rate: 1e-4,
        l2: 0.0,
    }
}

fn training_workload() -> TrainingWorkload {
    TrainingWorkload {
        epochs: EPOCHS,
        x_cols: 1,
    }
}

/// The files of one job kind plus what its gates compare against.
struct JobInputs {
    files: Vec<PathBuf>,
    csv_bytes: usize,
    /// `(left row, right row)` pairs per non-base source, sorted.
    truth: Vec<Vec<(usize, usize)>>,
    /// Scoring vectors served after the trained model's own coefficients.
    vectors: Vec<Vec<f64>>,
}

struct Inputs {
    fuzzy: JobInputs,
    star: JobInputs,
}

fn write_silo(dir: &Path, silo: &SiloCsv) -> Result<PathBuf, String> {
    let path = dir.join(format!("{}.csv", silo.stem));
    std::fs::write(&path, &silo.text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

fn setup(cfg: &RunConfig) -> Result<Inputs, String> {
    let dir = cfg.scratch.join("silos");
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;

    let pair = fuzzy_pair(cfg.seed, cfg.scale.rows(FUZZY_ROWS, 400));
    let fuzzy = JobInputs {
        files: vec![
            write_silo(&dir, &pair.left)?,
            write_silo(&dir, &pair.right)?,
        ],
        csv_bytes: pair.left.text.len() + pair.right.text.len(),
        truth: vec![pair.truth],
        // 1 label + 5 shared + 24 + 25 own columns, label split off.
        vectors: scoring_vectors(cfg.seed, "fuzzy_vectors", PREDICTS_PER_JOB - 1, 54),
    };

    let star = exact_star(cfg.seed, cfg.scale.rows(STAR_PATIENTS, 1000));
    let mut files = vec![write_silo(&dir, &star.base)?];
    let mut csv_bytes = star.base.text.len();
    for s in &star.satellites {
        files.push(write_silo(&dir, s)?);
        csv_bytes += s.text.len();
    }
    let truth = star
        .truth
        .iter()
        .map(|of_base| {
            of_base
                .iter()
                .enumerate()
                .filter_map(|(b, s)| s.map(|s| (b, s)))
                .collect()
        })
        .collect();
    let star = JobInputs {
        files,
        csv_bytes,
        truth,
        vectors: scoring_vectors(cfg.seed, "star_vectors", PREDICTS_PER_JOB - 1, 8),
    };
    Ok(Inputs { fuzzy, star })
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    FuzzyPair,
    ExactStar,
}

impl Kind {
    fn key(self) -> &'static str {
        match self {
            Kind::FuzzyPair => FUZZY_KEY,
            Kind::ExactStar => STAR_KEY,
        }
    }
    fn label(self) -> &'static str {
        match self {
            Kind::FuzzyPair => FUZZY_LABEL,
            Kind::ExactStar => STAR_LABEL,
        }
    }
    fn options(self) -> IntegrationOptions {
        match self {
            Kind::FuzzyPair => IntegrationOptions::with_key(self.key(), self.key()),
            Kind::ExactStar => IntegrationOptions::with_exact_key(self.key(), self.key()),
        }
    }
}

/// Entity-resolution outcome against the truth, summed over sources.
#[derive(Default, Clone, Copy)]
struct ErScore {
    true_pos: usize,
    found: usize,
    expected: usize,
}

impl ErScore {
    fn precision(&self) -> f64 {
        self.true_pos as f64 / self.found.max(1) as f64
    }
    fn recall(&self) -> f64 {
        self.true_pos as f64 / self.expected.max(1) as f64
    }
    fn f1(&self) -> f64 {
        2.0 * self.true_pos as f64 / (self.found + self.expected).max(1) as f64
    }
    fn add(&mut self, o: ErScore) {
        self.true_pos += o.true_pos;
        self.found += o.found;
        self.expected += o.expected;
    }
}

/// Reads the row matching back out of the indicator matrices: target row
/// `t` pairs base row `CI₀[t]` with source-`k` row `CIₖ[t]`.
fn score_er(table: &FactorizedTable, truth: &[Vec<(usize, usize)>]) -> ErScore {
    let sources = &table.metadata().sources;
    let base = sources[0].indicator.compressed();
    let mut score = ErScore::default();
    for (src, expected) in sources[1..].iter().zip(truth) {
        let mut found: Vec<(usize, usize)> = base
            .iter()
            .zip(src.indicator.compressed())
            .filter(|(&b, &s)| b != NO_MATCH && s != NO_MATCH)
            .map(|(&b, &s)| (b as usize, s as usize))
            .collect();
        found.sort_unstable();
        score.found += found.len();
        score.expected += expected.len();
        score.true_pos += found
            .iter()
            .filter(|p| expected.binary_search(p).is_ok())
            .count();
    }
    score
}

/// What a job (or, summed, a round) found besides its time.
#[derive(Default)]
struct JobReport {
    er: ErScore,
    json_bytes: usize,
    /// Plans that chose factorization.
    factorized: usize,
}

fn integrate(sys: &mut Amalur, kind: Kind, names: &[String]) -> Result<IntegrationHandle, String> {
    match kind {
        Kind::FuzzyPair => sys
            .integrate(
                &names[0],
                &names[1],
                ScenarioKind::FullOuterJoin,
                &kind.options(),
            )
            .map_err(err("integrate")),
        Kind::ExactStar => {
            let sats: Vec<&str> = names[1..].iter().map(String::as_str).collect();
            sys.integrate_star(&names[0], &sats, StarKind::Left, &kind.options())
                .map_err(err("integrate_star"))
        }
    }
}

fn label_column(handle: &IntegrationHandle, kind: Kind) -> Result<usize, String> {
    handle
        .table
        .metadata()
        .target_columns
        .iter()
        .position(|c| c == kind.label())
        .ok_or_else(|| format!("label column {} not in the target schema", kind.label()))
}

fn other_plan(plan: ExecutionPlan) -> ExecutionPlan {
    match plan {
        ExecutionPlan::Factorize => ExecutionPlan::Materialize,
        _ => ExecutionPlan::Factorize,
    }
}

/// One job: CSV files → tables → silos → integration → plan → model →
/// catalog JSON → registered dataset → server → predictions → shutdown.
/// Returns its wall time less gate work, in seconds, and what it found.
fn run_job(
    kind: Kind,
    job: u32,
    inp: &JobInputs,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(f64, JobReport), String> {
    let start = Instant::now();
    let mut gate_s = 0.0;
    let name = match kind {
        Kind::FuzzyPair => "job.fuzzy_pair",
        Kind::ExactStar => "job.exact_star",
    };
    let report = tr.span(Layer::Harness, name, job, |tr| -> Result<JobReport, String> {
        let mut sys = Amalur::new();
        let mut names = Vec::new();
        for path in &inp.files {
            let table = tr
                .span(Layer::Relational, "read_csv", job, |_| read_csv(path))
                .map_err(err("read_csv"))?;
            names.push(table.name().to_owned());
            tr.span(Layer::Core, "register_silo", job, |_| {
                sys.register_silo(table, "file")
            })
            .map_err(err("register_silo"))?;
        }
        let handle = tr.span(Layer::Core, "integrate", job, |_| integrate(&mut sys, kind, &names))?;

        let g = Instant::now();
        let er = score_er(&handle.table, &inp.truth);
        out.gate(er.precision() >= ER_PRECISION_FLOOR, || {
            format!("job {job}: ER precision {:.4} below {ER_PRECISION_FLOOR}", er.precision())
        });
        out.gate(er.recall() >= ER_RECALL_FLOOR, || {
            format!("job {job}: ER recall {:.4} below {ER_RECALL_FLOOR}", er.recall())
        });
        gate_s += g.elapsed().as_secs_f64();

        let label_col = label_column(&handle, kind)?;
        let plan = tr.span(Layer::Cost, "plan", job, |_| {
            sys.plan(&handle, &training_workload(), &Constraints::default())
        });
        let model = tr
            .span(Layer::Core, "train", job, |_| {
                sys.train_logistic_regression(&handle, label_col, &training_config(), plan)
            })
            .map_err(err("train"))?;
        let json = tr
            .span(Layer::Catalog, "to_json", job, |_| sys.catalog().to_json())
            .map_err(err("to_json"))?;

        let (features, _) = tr
            .span(Layer::Factorize, "split_label", job, |_| handle.table.split_label(label_col))
            .map_err(err("split_label"))?;

        // Gates that need a second training run or a materialized table
        // run on each kind's first job only; their time is not counted.
        let reference = if job < 2 {
            let g = Instant::now();
            let other = sys
                .train_logistic_regression(&handle, label_col, &training_config(), other_plan(plan))
                .map_err(err("train under the other plan"))?;
            let (rows, cols) = features.target_shape();
            let tol = amalur_gen::equivalence_tolerance(rows, cols, EPOCHS);
            let diff = max_rel_diff(model.coefficients.as_slice(), other.coefficients.as_slice());
            out.gate(diff <= tol, || {
                format!("job {job}: {plan} vs {} coefficients differ by {diff:e} > {tol:e}", other.plan)
            });
            let reference = features
                .materialize()
                .matmul(&model.coefficients)
                .map_err(err("reference prediction"))?;
            gate_s += g.elapsed().as_secs_f64();
            Some((reference, tol))
        } else {
            None
        };

        let registry = Arc::new(DatasetRegistry::new());
        tr.span(Layer::Catalog, "registry.register", job, |_| {
            registry.register("features", features).map(|_| ())
        })
        .map_err(err("register dataset"))?;
        let server = tr
            .span(Layer::Serve, "start", job, |_| {
                Server::start(Arc::clone(&registry), ServerConfig::default())
            })
            .map_err(err("Server::start"))?;
        let client = server.handle();
        let served = tr.span(Layer::Serve, "predicts", job, |_| -> Result<DenseMatrix, String> {
            let first = serve_one(&client, model.coefficients.clone(), out)?;
            for v in &inp.vectors {
                serve_one(&client, DenseMatrix::column_vector(v), out)?;
            }
            Ok(first)
        })?;
        tr.span(Layer::Serve, "shutdown", job, |_| server.shutdown());

        if let Some((reference, tol)) = reference {
            let g = Instant::now();
            let diff = max_rel_diff(served.as_slice(), reference.as_slice());
            out.gate(diff <= tol, || {
                format!("job {job}: served prediction differs from materialize()·θ by {diff:e} > {tol:e}")
            });
            gate_s += g.elapsed().as_secs_f64();
        }
        Ok(JobReport {
            er,
            json_bytes: json.len(),
            factorized: usize::from(model.plan == ExecutionPlan::Factorize),
        })
    })?;
    out.attempted += 1 + PREDICTS_PER_JOB as u64;
    Ok((start.elapsed().as_secs_f64() - gate_s, report))
}

/// One blocking predict; anything but an answer counts as failed.
fn serve_one(
    client: &amalur_serve::ServerHandle,
    features: DenseMatrix,
    out: &mut Outcome,
) -> Result<DenseMatrix, String> {
    match client.predict(PredictRequest {
        dataset: "features".to_owned(),
        version: None,
        features,
    }) {
        Ok(resp) => Ok(resp.predictions),
        Err(e) => {
            out.failed += 1;
            Err(format!("predict: {e}"))
        }
    }
}

/// The measured phase: rounds of one job of each kind until time is up.
/// A traced run records spans on every other round. Returns the round
/// times and the last round's findings.
fn measure(
    inputs: &Inputs,
    cfg: &RunConfig,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(Vec<f64>, JobReport), String> {
    let mut last = JobReport::default();
    let times = closed_loop(cfg.seconds, 2, |round| {
        tr.set_on(cfg.trace && spans_on(round));
        let (a_s, a) = run_job(Kind::FuzzyPair, 2 * round, &inputs.fuzzy, tr, out)?;
        let (b_s, b) = run_job(Kind::ExactStar, 2 * round + 1, &inputs.star, tr, out)?;
        let mut er = a.er;
        er.add(b.er);
        last = JobReport {
            er,
            json_bytes: a.json_bytes + b.json_bytes,
            factorized: a.factorized + b.factorized,
        };
        Ok(a_s + b_s)
    })?;
    Ok((times, last))
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (inputs, setup_s) = repeat_setup(|| setup(cfg))?;

    if !cfg.trace {
        let (times, _) = measure(&inputs, cfg, &mut Tracer::new(false), &mut out)?;
        closed_loop_metrics(&times, JOBS_PER_ROUND, &mut out);
        out.metrics.insert("setup_s", setup_s);
        return Ok(out);
    }

    let mut tr = Tracer::new(true);
    let (times, stats) = measure(&inputs, cfg, &mut tr, &mut out)?;
    let (_, traced, overhead_pct) = split_alternating(&times);
    let rounds = traced.len() as f64;
    let spans = tr.into_spans();
    let replay = replay(&inputs)?;
    per_layer(&mut out, &spans, rounds, &stats, &inputs, &replay);
    out.metrics.insert("obs.trace_overhead_pct", overhead_pct);
    layer_shares(&mut out, &spans, rounds, &replay, median(&traced) * 1e3);
    out.samples.insert("rounds_traced", traced.len());
    out.spans = spans;
    Ok(out)
}

/// Times of the inner public functions re-invoked standalone on one
/// round's inputs (ms per round). The facade calls them nested, out of
/// the benchmark's sight; replaying them is how time below the facade is
/// attributed without touching the program.
#[derive(Default)]
struct Replay {
    match_schemas_ms: f64,
    match_rows_ms: f64,
    integrate_ms: f64,
    metadata_ms: f64,
    from_integration_ms: f64,
    ml_ms: f64,
    chosen_ms: f64,
    best_ms: f64,
}

/// Adds the faster of two runs of `f` to `acc` (ms): a replay runs once
/// where the job ran it many times, so one cold run would skew it.
fn timed<T>(acc: &mut f64, mut f: impl FnMut() -> T) -> T {
    let t = Instant::now();
    f();
    let first = t.elapsed();
    let t = Instant::now();
    let v = f();
    *acc += first.min(t.elapsed()).as_secs_f64() * 1e3;
    v
}

fn replay(inputs: &Inputs) -> Result<Replay, String> {
    let mut r = Replay::default();
    for (kind, inp) in [
        (Kind::FuzzyPair, &inputs.fuzzy),
        (Kind::ExactStar, &inputs.star),
    ] {
        let tables: Vec<Table> = inp
            .files
            .iter()
            .map(|p| read_csv(p).map_err(err("read_csv")))
            .collect::<Result<_, _>>()?;
        let opts = kind.options();
        let (base, others) = (&tables[0], &tables[1..]);
        let (mut schemas, mut rows, mut whole) = (0.0, 0.0, 0.0);
        for other in others {
            timed(&mut schemas, || match_schemas(base, other, &opts.matching));
            timed(&mut rows, || {
                match_rows(base, other, kind.key(), kind.key(), &opts.er)
            })
            .map_err(err("match_rows"))?;
        }
        let result: IntegrationResult = timed(&mut whole, || match kind {
            Kind::FuzzyPair => integrate_pair(base, &others[0], ScenarioKind::FullOuterJoin, &opts),
            Kind::ExactStar => integrate_star(
                base,
                &others.iter().collect::<Vec<_>>(),
                StarKind::Left,
                &opts,
            ),
        })
        .map_err(err("integrate replay"))?;
        r.match_schemas_ms += schemas;
        r.match_rows_ms += rows;
        r.integrate_ms += whole;
        // What is left of an integration after its two matchers. On a
        // fuzzy_pair job the matchers are 3 s and the rest a few ms, below
        // what a difference of replays resolves, hence the floor per kind.
        r.metadata_ms += (whole - schemas - rows).max(0.0);
        let t = Instant::now();
        let table = FactorizedTable::from_integration(result).map_err(err("from_integration"))?;
        r.from_integration_ms += t.elapsed().as_secs_f64() * 1e3;

        // Train under both plans through the facade for the regret, and
        // once through amalur-ml alone for the facade's own share.
        let mut sys = Amalur::new();
        let handle = IntegrationHandle {
            id: "replay".to_owned(),
            table,
            scenario: ScenarioKind::LeftJoin,
        };
        let label_col = label_column(&handle, kind)?;
        let plan = sys.plan(&handle, &training_workload(), &Constraints::default());
        let mut plan_ms = [0.0f64; 2];
        for (ms, p) in plan_ms.iter_mut().zip([plan, other_plan(plan)]) {
            timed(ms, || {
                sys.train_logistic_regression(&handle, label_col, &training_config(), p)
            })
            .map_err(err("train replay"))?;
        }
        r.chosen_ms += plan_ms[0];
        r.best_ms += plan_ms[0].min(plan_ms[1]);
        timed(&mut r.ml_ms, || -> Result<(), String> {
            let (features, y) = handle
                .table
                .split_label(label_col)
                .map_err(err("split_label"))?;
            let mut model = LogisticRegression::new(LogRegConfig {
                epochs: EPOCHS,
                learning_rate: training_config().learning_rate,
                l2: 0.0,
            });
            if plan == ExecutionPlan::Factorize {
                model.fit(&features, &y).map_err(err("fit"))?;
                model.predict(&features).map_err(err("predict"))?;
            } else {
                let t = features.materialize();
                model.fit(&t, &y).map_err(err("fit"))?;
                model.predict(&t).map_err(err("predict"))?;
            }
            Ok(())
        })?;
    }
    Ok(r)
}

fn per_round(spans: &[Span], name: &str, rounds: f64) -> f64 {
    durations_ms(spans, name).iter().sum::<f64>() / rounds
}

/// Facade spans less the standalone replays of what they call.
fn facade_self_ms(spans: &[Span], rounds: f64, replay: &Replay) -> f64 {
    let facade = per_round(spans, "register_silo", rounds)
        + per_round(spans, "integrate", rounds)
        + per_round(spans, "train", rounds);
    (facade - replay.integrate_ms - replay.from_integration_ms - replay.ml_ms).max(0.0)
}

fn per_layer(
    out: &mut Outcome,
    spans: &[Span],
    rounds: f64,
    stats: &JobReport,
    inputs: &Inputs,
    replay: &Replay,
) {
    let m = &mut out.metrics;
    let read_ms = per_round(spans, "read_csv", rounds);
    let csv_mb = (inputs.fuzzy.csv_bytes + inputs.star.csv_bytes) as f64 / 1e6;
    m.insert("relational.read_csv_ms", read_ms);
    m.insert("relational.csv_mb_per_s", csv_mb / (read_ms / 1e3));
    m.insert("integration.match_schemas_ms", replay.match_schemas_ms);
    m.insert("integration.match_rows_ms", replay.match_rows_ms);
    m.insert("integration.metadata_ms", replay.metadata_ms);
    m.insert("integration.er_f1", stats.er.f1());
    m.insert("catalog.to_json_ms", per_round(spans, "to_json", rounds));
    m.insert("catalog.json_kb", stats.json_bytes as f64 / 1024.0);
    m.insert("cost.plan_us", per_round(spans, "plan", rounds) * 1e3);
    m.insert("cost.decisions_factorize", stats.factorized as f64);
    m.insert(
        "cost.regret_pct",
        (replay.chosen_ms - replay.best_ms) / replay.best_ms * 100.0,
    );
    m.insert("core.facade_self_ms", facade_self_ms(spans, rounds, replay));
    m.insert("factorize.materialize_ms", 0.0);
}

/// Who did the work of a round: spans where the benchmark calls the layer
/// itself, replays where the facade calls it.
fn layer_shares(out: &mut Outcome, spans: &[Span], rounds: f64, replay: &Replay, round_ms: f64) {
    let own = layer_self_ms(spans);
    let span_ms = |l: Layer| own.get(&l).copied().unwrap_or(0.0) / rounds;
    let shares = [
        ("relational", span_ms(Layer::Relational)),
        ("integration", replay.integrate_ms),
        ("catalog", span_ms(Layer::Catalog)),
        ("cost", span_ms(Layer::Cost)),
        ("core", facade_self_ms(spans, rounds, replay)),
        (
            "factorize",
            span_ms(Layer::Factorize) + replay.from_integration_ms,
        ),
        ("ml (with the kernels below it)", replay.ml_ms),
        ("serve (with the kernels below it)", span_ms(Layer::Serve)),
    ];
    out.layer_shares = shares
        .iter()
        .map(|(name, ms)| ((*name).to_owned(), ms / round_ms))
        .collect();
}
