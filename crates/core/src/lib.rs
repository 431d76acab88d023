//! The Amalur system facade — Figure 3 as an API.
//!
//! ```text
//! user inputs (model, constraints)          data sources S1 … Sn
//!          │                                        │
//!          ▼                                        ▼
//!   ┌─────────────────────────  Amalur  ─────────────────────────┐
//!   │ metadata management: schema matching, entity resolution,   │
//!   │ DI metadata → hybrid metadata catalog                      │
//!   │ optimization: factorization / materialization / federated  │
//!   │ execution: factorized rewrites, joins, FL orchestration    │
//!   └─────────────────────────────────────────────────────────────┘
//!                                │
//!                                ▼
//!                        trained ML model
//! ```
//!
//! [`Amalur`] owns the registered silos and the [`MetadataCatalog`];
//! [`Amalur::integrate`] runs the DI pipeline of
//! [`amalur_integration::integrate_pair`] and records the resulting
//! metadata; [`Amalur::plan`] is the optimizer (§II-A: privacy
//! constraints force federated learning, otherwise the cost model picks
//! factorization or materialization); `Amalur::train_*` execute the
//! plan and register the trained model with its lineage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod system;

pub use error::{AmalurError, Result};
pub use system::{
    Amalur, Constraints, ExecutionPlan, FederatedModel, IntegrationHandle, TrainedModel,
    TrainingConfig,
};

pub use amalur_catalog::MetadataCatalog;
pub use amalur_cost::{Decision, TrainingWorkload};
pub use amalur_factorize::{FactorizedTable, LinOps};
pub use amalur_federated::{CommStats, FaultPlan, FederatedError, PrivacyMode};
pub use amalur_integration::{IntegrationOptions, ScenarioKind};
