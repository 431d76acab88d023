//! The hybrid metadata catalog (§II-A).
//!
//! "One of the fundamental components of Amalur is the metadata catalog.
//! It stores the metadata of data and ML models": basic source metadata
//! (schema, types, provenance, silo location), DI metadata (column and
//! row relationships discovered by schema matching and entity
//! resolution), model metadata (hyper-parameters, metrics, environment)
//! and the lineage between models and the datasets they were trained on.
//!
//! The catalog is thread-safe (`std::sync::RwLock` — many readers, the
//! optimizer and executors query it concurrently) and persists to JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod entries;
mod error;
mod registry;
mod store;

pub use entries::{DiEntry, FieldMeta, ModelEntry, SourceEntry};
pub use error::{CatalogError, Result};
pub use registry::{DatasetRegistry, DatasetStatus, DatasetVersion};
pub use store::MetadataCatalog;
