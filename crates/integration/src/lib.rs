//! Data integration metadata for Amalur.
//!
//! This crate implements §III of the paper — "Representation: a tale of
//! three matrices" — together with the DI processes that produce the
//! metadata those matrices encode:
//!
//! * [`tgd`] — source-to-target tuple-generating dependencies (s-t tgds),
//!   the schema-mapping formalism of the paper, with a small parser,
//!   full/non-full classification and the Table I scenario templates.
//! * [`matching`] — schema matching: discovering column correspondences
//!   between source tables by name, type and value overlap.
//! * [`er`] — entity resolution: discovering row matches between source
//!   tables by key equality or string similarity with blocking.
//! * [`metrics`] — `amalur-obs` work counters of the two matchers, mounted
//!   by hosts with [`mount_metrics`].
//! * [`metadata`] — the three matrices: mapping matrices `Mₖ`/`CMₖ`
//!   (Definitions III.1–III.2), indicator matrices `Iₖ`/`CIₖ`
//!   (Definition III.3) and redundancy matrices `Rₖ` (Definition III.4).
//! * [`scenario`] — the four dataset relationships of Table I (full outer
//!   join, inner join, left join, union) as integration planners that turn
//!   two source [`Table`]s into source data matrices `Dₖ` plus complete DI
//!   metadata.
//!
//! [`Table`]: amalur_relational::Table

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod er;
mod error;
mod jw;
pub mod matching;
pub mod metadata;
pub mod metrics;
#[cfg(test)]
mod reference;
pub mod scenario;
pub mod star;
pub mod tgd;

pub use er::{match_rows, ErConfig, RowMatch};
pub use error::{IntegrationError, Result};
pub use matching::{match_schemas, ColumnMatch, MatchingConfig};
pub use metadata::{
    DiMetadata, DupBlock, IndicatorMatrix, MappingMatrix, RedundancyMatrix, SourceMetadata,
};
pub use metrics::mount_metrics;
pub use scenario::{
    integrate_pair, integrate_union, materialize_relationally, IntegrationOptions,
    IntegrationResult, ScenarioKind,
};
pub use star::{integrate_star, StarKind};
pub use tgd::{Atom, Tgd};
