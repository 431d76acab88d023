//! # Amalur — Data Integration Meets Machine Learning
//!
//! A from-scratch Rust reproduction of *Amalur: Data Integration Meets
//! Machine Learning* (Hai et al., ICDE 2023): factorized and federated
//! machine learning over data silos, driven by data-integration
//! metadata.
//!
//! ## The idea in one paragraph
//!
//! Training data lives in silos `S1 … Sn`. A data integration system
//! knows how the silos relate — which columns correspond (schema
//! matching), which rows refer to the same entity (entity resolution).
//! Amalur encodes that knowledge as three matrices per source — the
//! **mapping matrix** `Mₖ`, the **indicator matrix** `Iₖ` and the
//! **redundancy matrix** `Rₖ` — and then *rewrites* ML computations over
//! the never-materialized target table `T` into computations over the
//! sources:
//!
//! ```text
//! T·X = I₁D₁M₁ᵀ·X + ((I₂D₂M₂ᵀ) ∘ R₂)·X        (Equation 2)
//! ```
//!
//! The same metadata powers the factorize-vs-materialize cost optimizer
//! and aligns parties for federated learning.
//!
//! ## Quickstart
//!
//! ```
//! use amalur::prelude::*;
//!
//! // The paper's Figure 2 hospital tables.
//! let mut system = Amalur::new();
//! system.register_silo(amalur::data::hospital::s1(), "er").unwrap();
//! system.register_silo(amalur::data::hospital::s2(), "pulmonary").unwrap();
//!
//! // Integrate: schema matching + entity resolution + the three matrices.
//! let handle = system
//!     .integrate("S1", "S2", ScenarioKind::FullOuterJoin,
//!                &IntegrationOptions::with_key("n", "n"))
//!     .unwrap();
//! assert_eq!(handle.table.target_shape(), (6, 4)); // T(m, a, hr, o)
//!
//! // Factorized result ≡ materialized result.
//! let t = handle.table.materialize();
//! let x = DenseMatrix::ones(4, 1);
//! let fact = handle.table.mul_right(&x).unwrap();
//! assert!(fact.approx_eq(&t.matmul(&x).unwrap(), 1e-9));
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`matrix`] | dense linear algebra substrate |
//! | [`relational`] | tables, joins, CSV — the materialization substrate |
//! | [`integration`] | tgds, schema matching, ER, the three matrices |
//! | [`factorize`] | `FactorizedTable` and the rewrite rules |
//! | [`ml`] | linear/logistic regression, K-Means, GNMF over `LinOps` |
//! | [`cost`] | Morpheus heuristic vs Amalur cost model, oracle |
//! | [`crypto`] | bignum, Paillier, secret sharing, differential privacy |
//! | [`federated`] | VFL linear regression, FedAvg, party alignment |
//! | [`catalog`] | the hybrid metadata catalog |
//! | [`data`] | synthetic silo generators |
//! | [`core`] | the `Amalur` system facade |

#![forbid(unsafe_code)]

pub use amalur_catalog as catalog;
pub use amalur_core as core;
pub use amalur_cost as cost;
pub use amalur_crypto as crypto;
pub use amalur_data as data;
pub use amalur_factorize as factorize;
pub use amalur_federated as federated;
pub use amalur_integration as integration;
pub use amalur_matrix as matrix;
pub use amalur_ml as ml;
pub use amalur_relational as relational;

/// The most common imports in one place.
pub mod prelude {
    pub use amalur_catalog::MetadataCatalog;
    pub use amalur_core::{
        Amalur, Constraints, ExecutionPlan, IntegrationHandle, TrainedModel, TrainingConfig,
    };
    pub use amalur_cost::{
        AmalurCostModel, CostFeatures, CostModel, Decision, HardwareProfile, MorpheusHeuristic,
        TrainingWorkload,
    };
    pub use amalur_factorize::{FactorizedTable, LinOps};
    pub use amalur_federated::{PartySamples, PrivacyMode};
    pub use amalur_integration::{IntegrationOptions, ScenarioKind};
    pub use amalur_matrix::DenseMatrix;
    pub use amalur_ml::{
        Gnmf, GnmfConfig, KMeans, KMeansConfig, LinRegConfig, LinearRegression, LogRegConfig,
        LogisticRegression,
    };
    pub use amalur_relational::{DataType, Table, TableBuilder, Value};
}
