//! The `Amalur` system type: registration → integration → optimization →
//! execution → catalog bookkeeping.

use crate::{AmalurError, Result};
use amalur_catalog::{DiEntry, MetadataCatalog, ModelEntry, SourceEntry};
use amalur_cost::{
    AmalurCostModel, CostFeatures, CostModel, Decision, HardwareProfile, TrainingWorkload,
};
use amalur_factorize::{FactorizedTable, LinOps};
use amalur_federated::hfl::PartySamples;
use amalur_federated::{
    party_views, train_vfl, CommStats, FaultPlan, FaultyTransport, HflConfig, PrivacyMode,
    VflConfig,
};
use amalur_integration::{integrate_pair, IntegrationOptions, IntegrationResult, ScenarioKind};
use amalur_matrix::DenseMatrix;
use amalur_ml::{LinRegConfig, LinearRegression, LogRegConfig, LogisticRegression};
use amalur_relational::Table;
use std::collections::BTreeMap;

/// User constraints attached to a training request (§II-A "there might
/// also be constraints specific to a user and silos, e.g., data privacy
/// regulations such as GDPR").
#[derive(Debug, Clone, Copy, Default)]
pub struct Constraints {
    /// Data may not leave its silo — forces the federated path.
    pub privacy_required: bool,
    /// Wire protection when the federated path is taken.
    pub privacy_mode: Option<PrivacyMode>,
}

/// The optimizer's chosen execution plan (§II-A, "Optimization and
/// coordination": factorization, materialization, or federated learning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionPlan {
    /// Push the model down to the silos via the Eq. 2 rewrites.
    Factorize,
    /// Join the silos and train on the materialized target table.
    Materialize,
    /// Split the learning process across silos.
    Federated(PrivacyMode),
}

impl std::fmt::Display for ExecutionPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutionPlan::Factorize => write!(f, "factorized"),
            ExecutionPlan::Materialize => write!(f, "materialized"),
            ExecutionPlan::Federated(m) => write!(f, "federated({m})"),
        }
    }
}

/// Handle to a completed integration: the factorized table plus its
/// catalog id.
#[derive(Debug, Clone)]
pub struct IntegrationHandle {
    /// Catalog id of the DI metadata entry.
    pub id: String,
    /// The integrated data, kept factorized.
    pub table: FactorizedTable,
    /// The scenario that produced it.
    pub scenario: ScenarioKind,
}

/// Hyper-parameters for facade-level training.
#[derive(Debug, Clone)]
pub struct TrainingConfig {
    /// Gradient-descent epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularization.
    pub l2: f64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self {
            epochs: 200,
            learning_rate: 0.1,
            l2: 0.0,
        }
    }
}

/// A trained model with its provenance.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// Catalog name of the model.
    pub name: String,
    /// Flat coefficient vector over the feature columns (concatenated
    /// per-party for federated runs).
    pub coefficients: DenseMatrix,
    /// The plan that was executed.
    pub plan: ExecutionPlan,
    /// Final training loss.
    pub final_loss: f64,
    /// Evaluation metrics recorded in the catalog.
    pub metrics: BTreeMap<String, f64>,
}

/// A model trained horizontally (FedAvg) across registered silos, with
/// the communication/fault accounting of the run.
#[derive(Debug, Clone)]
pub struct FederatedModel {
    /// Catalog name of the model.
    pub name: String,
    /// Global coefficient vector over the shared feature columns.
    pub coefficients: DenseMatrix,
    /// Final global training loss over the union of silo rows.
    pub final_loss: f64,
    /// Wire and fault accounting (retries, drops, degraded rounds, …).
    pub comm: CommStats,
    /// Evaluation metrics recorded in the catalog.
    pub metrics: BTreeMap<String, f64>,
}

/// The Amalur system: silos + catalog + optimizer + executors.
pub struct Amalur {
    catalog: MetadataCatalog,
    silos: BTreeMap<String, Table>,
    cost_model: AmalurCostModel,
    integration_counter: usize,
    model_counter: usize,
}

impl Default for Amalur {
    fn default() -> Self {
        Self::new()
    }
}

impl Amalur {
    /// Creates an empty system.
    pub fn new() -> Self {
        Self {
            catalog: MetadataCatalog::new(),
            silos: BTreeMap::new(),
            cost_model: AmalurCostModel::default(),
            integration_counter: 0,
            model_counter: 0,
        }
    }

    /// The metadata catalog (read access for inspection and persistence).
    pub fn catalog(&self) -> &MetadataCatalog {
        &self.catalog
    }

    /// Installs a measured [`HardwareProfile`] (e.g. loaded from
    /// `COST_PROFILE.json` or freshly calibrated) into the optimizer, so
    /// [`Self::plan`] decides with this machine's real operation costs
    /// instead of the uncalibrated defaults.
    pub fn set_cost_profile(&mut self, profile: HardwareProfile) {
        self.cost_model = AmalurCostModel::with_profile(profile);
    }

    /// The optimizer's current per-operation cost profile.
    pub fn cost_profile(&self) -> HardwareProfile {
        self.cost_model.profile
    }

    /// Registers a silo's table, recording its basic metadata.
    ///
    /// # Errors
    /// [`AmalurError::Catalog`] when the name is already registered.
    pub fn register_silo(&mut self, table: Table, location: impl Into<String>) -> Result<()> {
        let entry = SourceEntry::from_table(&table, location);
        self.catalog.register_source(entry)?;
        self.silos.insert(table.name().to_owned(), table);
        Ok(())
    }

    /// A registered silo's table.
    ///
    /// # Errors
    /// [`AmalurError::UnknownSilo`].
    pub fn silo(&self, name: &str) -> Result<&Table> {
        self.silos
            .get(name)
            .ok_or_else(|| AmalurError::UnknownSilo(name.to_owned()))
    }

    /// Runs the DI pipeline over two registered silos: schema matching,
    /// entity resolution, metadata-matrix generation — and records the
    /// DI metadata in the catalog.
    ///
    /// # Errors
    /// Unknown silos or integration failures.
    pub fn integrate(
        &mut self,
        left: &str,
        right: &str,
        kind: ScenarioKind,
        opts: &IntegrationOptions,
    ) -> Result<IntegrationHandle> {
        let result = integrate_pair(self.silo(left)?, self.silo(right)?, kind, opts)?;
        self.record_integration(result)
    }

    /// Runs the n-ary star DI pipeline: one base silo aligned with many
    /// satellites on a shared key (the §I drug-risk shape). Records the
    /// DI metadata like [`Self::integrate`].
    ///
    /// # Errors
    /// Unknown silos or integration failures.
    pub fn integrate_star(
        &mut self,
        base: &str,
        satellites: &[&str],
        kind: amalur_integration::StarKind,
        opts: &IntegrationOptions,
    ) -> Result<IntegrationHandle> {
        let base_table = self.silo(base)?;
        let sat_tables: Vec<&Table> = satellites
            .iter()
            .map(|s| self.silo(s))
            .collect::<Result<_>>()?;
        let result = amalur_integration::integrate_star(base_table, &sat_tables, kind, opts)?;
        self.record_integration(result)
    }

    /// The tail every integration shares: take the next catalog id,
    /// record the DI metadata under it, keep the data factorized.
    fn record_integration(&mut self, result: IntegrationResult) -> Result<IntegrationHandle> {
        let scenario = result.kind;
        self.integration_counter += 1;
        let id = format!("integration-{}", self.integration_counter);
        self.catalog.register_integration(DiEntry::from_metadata(
            id.clone(),
            scenario,
            &result.metadata,
            &result.tgds,
        ))?;
        let table = FactorizedTable::from_integration(result)?;
        Ok(IntegrationHandle {
            id,
            table,
            scenario,
        })
    }

    /// The optimizer (§II-A): privacy constraints force the federated
    /// plan; otherwise the metadata-aware cost model decides between
    /// factorization and materialization.
    pub fn plan(
        &self,
        handle: &IntegrationHandle,
        workload: &TrainingWorkload,
        constraints: &Constraints,
    ) -> ExecutionPlan {
        if constraints.privacy_required {
            return ExecutionPlan::Federated(
                constraints
                    .privacy_mode
                    .unwrap_or(PrivacyMode::SecretShared),
            );
        }
        let features = CostFeatures::from_table(&handle.table);
        match self.cost_model.decide(&features, workload) {
            Decision::Factorize => ExecutionPlan::Factorize,
            Decision::Materialize => ExecutionPlan::Materialize,
        }
    }

    /// Trains a linear regression on the integrated data, executing the
    /// given plan and recording the model (with lineage) in the catalog.
    ///
    /// `label_col` indexes the target schema of the integration.
    ///
    /// # Errors
    /// Invalid label column, training failures, federated protocol
    /// failures.
    pub fn train_linear_regression(
        &mut self,
        handle: &IntegrationHandle,
        label_col: usize,
        config: &TrainingConfig,
        plan: ExecutionPlan,
    ) -> Result<TrainedModel> {
        let (features, y) = handle.table.split_label(label_col)?;
        let cfg = self.linreg_config(config);
        let (coefficients, final_loss) = match plan {
            ExecutionPlan::Factorize => fit_linreg(cfg, &features, &y)?,
            ExecutionPlan::Materialize => fit_linreg(cfg, &features.materialize(), &y)?,
            ExecutionPlan::Federated(mode) => {
                let views = party_views(&features)?;
                let xs: Vec<DenseMatrix> = views.iter().map(|v| v.features.clone()).collect();
                let result = train_vfl(
                    &xs,
                    &y,
                    &VflConfig {
                        epochs: config.epochs,
                        learning_rate: config.learning_rate,
                        l2: config.l2,
                        privacy: mode,
                        ..VflConfig::default()
                    },
                )?;
                let mut stacked = result.coefficients[0].clone();
                for c in &result.coefficients[1..] {
                    stacked = stacked
                        .vstack(c)
                        .map_err(amalur_factorize::FactorizeError::from)?;
                }
                (
                    stacked,
                    result.loss_history.last().copied().unwrap_or(f64::NAN),
                )
            }
        };
        let mut metrics = BTreeMap::new();
        metrics.insert("final_loss".to_owned(), final_loss);
        let name =
            self.register_trained("linear_regression", handle, config, plan, metrics.clone())?;
        Ok(TrainedModel {
            name,
            coefficients,
            plan,
            final_loss,
            metrics,
        })
    }

    /// Trains a logistic regression (binary labels required), same
    /// plan-execution semantics as
    /// [`Self::train_linear_regression`]. Federated logistic regression
    /// is approximated by its linear surrogate only in the VFL protocol
    /// literature — here it is executed factorized/materialized only.
    ///
    /// # Errors
    /// Invalid labels/plan or training failure.
    pub fn train_logistic_regression(
        &mut self,
        handle: &IntegrationHandle,
        label_col: usize,
        config: &TrainingConfig,
        plan: ExecutionPlan,
    ) -> Result<TrainedModel> {
        if matches!(plan, ExecutionPlan::Federated(_)) {
            return Err(AmalurError::Invalid(
                "federated logistic regression is not part of the reproduced protocol; \
                 use linear regression or a central plan"
                    .into(),
            ));
        }
        let (features, y) = handle.table.split_label(label_col)?;
        let cfg = LogRegConfig {
            epochs: config.epochs,
            learning_rate: config.learning_rate,
            l2: config.l2,
        };
        let (coefficients, final_loss, accuracy) = match plan {
            ExecutionPlan::Factorize => fit_logreg(cfg, &features, &y)?,
            _ => fit_logreg(cfg, &features.materialize(), &y)?,
        };
        let mut metrics = BTreeMap::new();
        metrics.insert("final_loss".to_owned(), final_loss);
        metrics.insert("train_accuracy".to_owned(), accuracy);
        let name =
            self.register_trained("logistic_regression", handle, config, plan, metrics.clone())?;
        Ok(TrainedModel {
            name,
            coefficients,
            plan,
            final_loss,
            metrics,
        })
    }

    /// Trains a linear regression *horizontally* across registered
    /// silos with FedAvg: every silo holds complete rows of the same
    /// schema (same feature columns, same label), and only model
    /// deltas cross the wire. Pass a [`FaultPlan`] to run the exchange
    /// over the deterministic unreliable transport — retries, quorum
    /// aggregation and fault accounting included; `None` uses the
    /// reliable in-process transport.
    ///
    /// `config.epochs` maps to communication rounds. The feature set
    /// is the first silo's numeric columns minus the label; every silo
    /// must provide them.
    ///
    /// # Errors
    /// Unknown silos, missing columns, non-zero `l2` (not part of the
    /// FedAvg objective here), or federated failures such as
    /// [`amalur_federated::FederatedError::QuorumLost`].
    pub fn train_fedavg(
        &mut self,
        silos: &[&str],
        label: &str,
        config: &TrainingConfig,
        faults: Option<&FaultPlan>,
    ) -> Result<FederatedModel> {
        if config.l2 != 0.0 {
            return Err(AmalurError::Invalid(
                "l2 regularization is not part of the FedAvg objective; use l2 = 0".into(),
            ));
        }
        let mut parties = Vec::with_capacity(silos.len());
        let mut features: Vec<String> = Vec::new();
        for (i, name) in silos.iter().enumerate() {
            let table = self.silo(name)?;
            if i == 0 {
                let numeric = table.numeric_column_names();
                if !numeric.contains(&label) {
                    return Err(AmalurError::Invalid(format!(
                        "silo {name} has no numeric label column {label:?}"
                    )));
                }
                features = numeric
                    .into_iter()
                    .filter(|c| *c != label)
                    .map(str::to_owned)
                    .collect();
                if features.is_empty() {
                    return Err(AmalurError::Invalid(format!(
                        "silo {name} has no numeric feature columns besides the label"
                    )));
                }
            }
            let refs: Vec<&str> = features.iter().map(String::as_str).collect();
            let x = table.to_matrix(&refs, 0.0)?;
            let y = table.to_matrix(&[label], 0.0)?;
            parties.push(PartySamples {
                name: (*name).to_owned(),
                x,
                y,
            });
        }
        let hfl = HflConfig {
            rounds: config.epochs,
            learning_rate: config.learning_rate,
            ..HflConfig::default()
        };
        let result = match faults {
            None => amalur_federated::hfl::train_fedavg(&parties, &hfl)?,
            Some(plan) => {
                let mut transport = FaultyTransport::new(plan.clone())?;
                amalur_federated::train_fedavg_with_transport(&parties, &hfl, &mut transport)?
            }
        };
        let final_loss = result.loss_history.last().copied().unwrap_or(f64::NAN);
        let mut metrics = BTreeMap::new();
        metrics.insert("final_loss".to_owned(), final_loss);
        metrics.insert("wire_bytes".to_owned(), result.comm.total_bytes() as f64);
        metrics.insert("retries".to_owned(), result.comm.retries as f64);
        metrics.insert(
            "rounds_degraded".to_owned(),
            result.comm.rounds_degraded as f64,
        );
        metrics.insert(
            "rounds_skipped".to_owned(),
            result.comm.rounds_skipped as f64,
        );
        let strategy = if faults.is_some() {
            "fedavg(faulty-transport)"
        } else {
            "fedavg"
        };
        let trained_on = silos.iter().map(|s| (*s).to_owned()).collect();
        let name = self.register_model_entry(
            "linear_regression",
            strategy.to_owned(),
            trained_on,
            config,
            metrics.clone(),
        )?;
        Ok(FederatedModel {
            name,
            coefficients: result.global,
            final_loss,
            comm: result.comm,
            metrics,
        })
    }

    fn linreg_config(&self, config: &TrainingConfig) -> LinRegConfig {
        LinRegConfig {
            epochs: config.epochs,
            learning_rate: config.learning_rate,
            l2: config.l2,
            tolerance: 0.0,
        }
    }

    fn register_trained(
        &mut self,
        model_type: &str,
        handle: &IntegrationHandle,
        config: &TrainingConfig,
        plan: ExecutionPlan,
        metrics: BTreeMap<String, f64>,
    ) -> Result<String> {
        self.register_model_entry(
            model_type,
            plan.to_string(),
            vec![handle.id.clone()],
            config,
            metrics,
        )
    }

    fn register_model_entry(
        &mut self,
        model_type: &str,
        strategy: String,
        trained_on: Vec<String>,
        config: &TrainingConfig,
        metrics: BTreeMap<String, f64>,
    ) -> Result<String> {
        self.model_counter += 1;
        let name = format!("{model_type}-{}", self.model_counter);
        let mut hp = BTreeMap::new();
        hp.insert("epochs".to_owned(), config.epochs.to_string());
        hp.insert("learning_rate".to_owned(), config.learning_rate.to_string());
        hp.insert("l2".to_owned(), config.l2.to_string());
        self.catalog.register_model(ModelEntry {
            name: name.clone(),
            model_type: model_type.to_owned(),
            environment: "amalur-native".to_owned(),
            strategy,
            hyperparameters: hp,
            metrics,
            trained_on,
        })?;
        Ok(name)
    }
}

/// Fits a linear regression on either operand of a plan (the factorized
/// table or its materialization): coefficients and final loss.
fn fit_linreg<L: LinOps>(cfg: LinRegConfig, x: &L, y: &DenseMatrix) -> Result<(DenseMatrix, f64)> {
    let mut model = LinearRegression::new(cfg);
    model.fit(x, y)?;
    fit_summary(model.coefficients(), model.loss_history())
}

/// As [`fit_linreg`] for a logistic regression, plus training accuracy.
fn fit_logreg<L: LinOps>(
    cfg: LogRegConfig,
    x: &L,
    y: &DenseMatrix,
) -> Result<(DenseMatrix, f64, f64)> {
    let mut model = LogisticRegression::new(cfg);
    model.fit(x, y)?;
    let accuracy = amalur_ml::metrics::accuracy(&model.predict(x)?, y.as_slice());
    let (coefficients, final_loss) = fit_summary(model.coefficients(), model.loss_history())?;
    Ok((coefficients, final_loss, accuracy))
}

fn fit_summary(coefficients: Option<&DenseMatrix>, losses: &[f64]) -> Result<(DenseMatrix, f64)> {
    let coefficients = coefficients
        .cloned()
        .ok_or(AmalurError::Ml(amalur_ml::MlError::NotFitted))?;
    Ok((coefficients, losses.last().copied().unwrap_or(f64::NAN)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amalur_data::hospital;

    fn system_with_hospital() -> (Amalur, IntegrationHandle) {
        let mut amalur = Amalur::new();
        let (er, pulm) = hospital::scaled_silos(300, 200, 150, 11);
        amalur.register_silo(er, "er-department").unwrap();
        amalur.register_silo(pulm, "pulmonary-department").unwrap();
        let handle = amalur
            .integrate(
                "S1",
                "S2",
                ScenarioKind::FullOuterJoin,
                &IntegrationOptions::with_exact_key("n", "n"),
            )
            .unwrap();
        (amalur, handle)
    }

    #[test]
    fn register_and_lookup_silos() {
        let mut amalur = Amalur::new();
        amalur.register_silo(hospital::s1(), "er").unwrap();
        assert_eq!(amalur.silo("S1").unwrap().num_rows(), 4);
        assert!(amalur.silo("S9").is_err());
        // Re-registration of the same name is rejected by the catalog.
        assert!(amalur.register_silo(hospital::s1(), "er").is_err());
        assert_eq!(amalur.catalog().source_names(), vec!["S1"]);
    }

    #[test]
    fn integrate_records_di_metadata() {
        let (amalur, handle) = system_with_hospital();
        assert_eq!(handle.table.target_shape().1, 4); // m, a, hr, o
        let entry = amalur.catalog().integration(&handle.id).unwrap();
        assert_eq!(entry.scenario, "full outer join");
        assert_eq!(entry.sources, vec!["S1", "S2"]);
        assert_eq!(entry.target_columns, vec!["m", "a", "hr", "o"]);
        assert_eq!(entry.tgds.len(), 3);
        assert!(entry.redundant_cells[1] > 0); // shared patients overlap
    }

    #[test]
    fn plan_respects_privacy_constraint() {
        let (amalur, handle) = system_with_hospital();
        let plan = amalur.plan(
            &handle,
            &TrainingWorkload::default(),
            &Constraints {
                privacy_required: true,
                privacy_mode: None,
            },
        );
        assert_eq!(plan, ExecutionPlan::Federated(PrivacyMode::SecretShared));
        let plan = amalur.plan(
            &handle,
            &TrainingWorkload::default(),
            &Constraints {
                privacy_required: true,
                privacy_mode: Some(PrivacyMode::Plaintext),
            },
        );
        assert_eq!(plan, ExecutionPlan::Federated(PrivacyMode::Plaintext));
    }

    #[test]
    fn plan_uses_cost_model_without_privacy() {
        let (amalur, handle) = system_with_hospital();
        let plan = amalur.plan(
            &handle,
            &TrainingWorkload::default(),
            &Constraints::default(),
        );
        assert!(matches!(
            plan,
            ExecutionPlan::Factorize | ExecutionPlan::Materialize
        ));
    }

    #[test]
    fn installed_cost_profile_steers_the_plan() {
        let (mut amalur, handle) = system_with_hospital();
        assert_eq!(amalur.cost_profile(), HardwareProfile::uncalibrated());
        // A profile where only assembly costs anything makes any
        // materialization plan look infinitely bad → factorize.
        amalur.set_cost_profile(HardwareProfile {
            flop_cost: 1e-9,
            traffic_cost: 0.0,
            correction_cost: 0.0,
            assembly_cost: 1e6,
            dispatch_cost: 0.0,
        });
        let plan = amalur.plan(
            &handle,
            &TrainingWorkload::default(),
            &Constraints::default(),
        );
        assert_eq!(plan, ExecutionPlan::Factorize);
        // The opposite: free assembly, ruinous traffic → materialize.
        amalur.set_cost_profile(HardwareProfile {
            flop_cost: 1e-9,
            traffic_cost: 1e6,
            correction_cost: 1e6,
            assembly_cost: 0.0,
            dispatch_cost: 0.0,
        });
        let plan = amalur.plan(
            &handle,
            &TrainingWorkload::default(),
            &Constraints::default(),
        );
        assert_eq!(plan, ExecutionPlan::Materialize);
    }

    #[test]
    fn factorized_and_materialized_training_agree() {
        let (mut amalur, handle) = system_with_hospital();
        let config = TrainingConfig {
            epochs: 50,
            learning_rate: 1e-4,
            l2: 0.0,
        };
        let fact = amalur
            .train_linear_regression(&handle, 0, &config, ExecutionPlan::Factorize)
            .unwrap();
        let mat = amalur
            .train_linear_regression(&handle, 0, &config, ExecutionPlan::Materialize)
            .unwrap();
        assert!(
            fact.coefficients.approx_eq(&mat.coefficients, 1e-9),
            "max diff {:?}",
            fact.coefficients.max_abs_diff(&mat.coefficients)
        );
        // Both models are in the catalog with lineage to the integration.
        let trained = amalur.catalog().models_trained_on(&handle.id);
        assert_eq!(trained.len(), 2);
    }

    #[test]
    fn federated_training_runs_and_registers() {
        let (mut amalur, handle) = system_with_hospital();
        let config = TrainingConfig {
            epochs: 30,
            learning_rate: 1e-4,
            l2: 0.0,
        };
        let model = amalur
            .train_linear_regression(
                &handle,
                0,
                &config,
                ExecutionPlan::Federated(PrivacyMode::Plaintext),
            )
            .unwrap();
        assert!(model.final_loss.is_finite());
        let entry = amalur.catalog().model(&model.name).unwrap();
        assert!(entry.strategy.starts_with("federated"));
    }

    #[test]
    fn logistic_regression_trains_on_mortality() {
        let (mut amalur, handle) = system_with_hospital();
        let config = TrainingConfig {
            epochs: 100,
            learning_rate: 1e-4,
            l2: 0.0,
        };
        let model = amalur
            .train_logistic_regression(&handle, 0, &config, ExecutionPlan::Factorize)
            .unwrap();
        let acc = model.metrics["train_accuracy"];
        assert!(acc > 0.5, "accuracy {acc} no better than chance");
        // Federated logreg is rejected explicitly.
        assert!(amalur
            .train_logistic_regression(
                &handle,
                0,
                &config,
                ExecutionPlan::Federated(PrivacyMode::Plaintext)
            )
            .is_err());
    }

    #[test]
    fn star_integration_through_the_facade() {
        use amalur_integration::StarKind;
        let mut amalur = Amalur::new();
        for t in amalur_data::workloads::drug_risk_silos(150, 0.15, 5) {
            let location = format!("{}-silo", t.name());
            amalur.register_silo(t, location).unwrap();
        }
        let handle = amalur
            .integrate_star(
                "clinic",
                &["hospital", "pharmacy", "lab"],
                StarKind::Left,
                &IntegrationOptions::with_exact_key("pid", "pid"),
            )
            .unwrap();
        // clinic(label, age, weight) + sbp,dbp + dose,n_drugs + creat,alt.
        assert_eq!(handle.table.target_shape(), (150, 9));
        let di = amalur.catalog().integration(&handle.id).unwrap();
        assert_eq!(di.sources.len(), 4);
        // Train the adverse-event model on the integrated star, both ways.
        let config = TrainingConfig {
            epochs: 40,
            learning_rate: 1e-5,
            l2: 0.0,
        };
        let fact = amalur
            .train_linear_regression(&handle, 0, &config, ExecutionPlan::Factorize)
            .unwrap();
        let mat = amalur
            .train_linear_regression(&handle, 0, &config, ExecutionPlan::Materialize)
            .unwrap();
        assert!(fact.coefficients.approx_eq(&mat.coefficients, 1e-9));
    }

    fn keyboard_system(n_phones: usize) -> (Amalur, Vec<String>) {
        let mut amalur = Amalur::new();
        let mut names = Vec::new();
        for t in amalur_data::workloads::keyboard_silos(n_phones, 40, 9) {
            names.push(t.name().to_owned());
            let location = format!("{}-device", t.name());
            amalur.register_silo(t, location).unwrap();
        }
        (amalur, names)
    }

    #[test]
    fn fedavg_trains_across_horizontal_silos() {
        let (mut amalur, names) = keyboard_system(3);
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let config = TrainingConfig {
            epochs: 60,
            learning_rate: 1e-6,
            l2: 0.0,
        };
        let model = amalur
            .train_fedavg(&refs, "next_flight_ms", &config, None)
            .unwrap();
        assert!(model.final_loss.is_finite());
        // uid + the five keystroke features.
        assert_eq!(model.coefficients.rows(), 6);
        assert_eq!(model.comm.fault_events(), 0);
        assert!(model.comm.messages > 0);
        let entry = amalur.catalog().model(&model.name).unwrap();
        assert_eq!(entry.strategy, "fedavg");
        assert_eq!(entry.trained_on, names);
    }

    #[test]
    fn fedavg_with_fault_plan_survives_and_accounts() {
        use amalur_federated::FaultPlan;
        let (mut amalur, names) = keyboard_system(3);
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let config = TrainingConfig {
            epochs: 40,
            learning_rate: 1e-6,
            l2: 0.0,
        };
        let plan = FaultPlan::grid(17, 0.2, 0.1);
        let model = amalur
            .train_fedavg(&refs, "next_flight_ms", &config, Some(&plan))
            .unwrap();
        assert!(model.final_loss.is_finite());
        assert!(model.comm.drops > 0, "20% drops should register");
        assert!(model.comm.retries > 0);
        let entry = amalur.catalog().model(&model.name).unwrap();
        assert_eq!(entry.strategy, "fedavg(faulty-transport)");
        assert!(entry.metrics["retries"] > 0.0);
    }

    #[test]
    fn fedavg_quorum_loss_is_a_typed_error() {
        use amalur_federated::{FaultPlan, FederatedError};
        let (mut amalur, names) = keyboard_system(3);
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let black_hole = FaultPlan {
            drop_prob: 1.0,
            ..FaultPlan::reliable(3)
        };
        let err = amalur
            .train_fedavg(
                &refs,
                "next_flight_ms",
                &TrainingConfig::default(),
                Some(&black_hole),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            AmalurError::Federated(FederatedError::QuorumLost { .. })
        ));
    }

    #[test]
    fn fedavg_validates_label_and_l2() {
        let (mut amalur, names) = keyboard_system(2);
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        assert!(matches!(
            amalur.train_fedavg(&refs, "no_such_col", &TrainingConfig::default(), None),
            Err(AmalurError::Invalid(_))
        ));
        let with_l2 = TrainingConfig {
            l2: 0.5,
            ..TrainingConfig::default()
        };
        assert!(matches!(
            amalur.train_fedavg(&refs, "next_flight_ms", &with_l2, None),
            Err(AmalurError::Invalid(_))
        ));
        assert!(amalur
            .train_fedavg(
                &["ghost"],
                "next_flight_ms",
                &TrainingConfig::default(),
                None
            )
            .is_err());
    }

    #[test]
    fn invalid_label_column_errors() {
        let (mut amalur, handle) = system_with_hospital();
        assert!(amalur
            .train_linear_regression(
                &handle,
                99,
                &TrainingConfig::default(),
                ExecutionPlan::Factorize
            )
            .is_err());
    }
}
