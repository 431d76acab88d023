//! The thread-safe catalog store with JSON persistence.

use crate::entries::{DiEntry, ModelEntry, SourceEntry};
use crate::{CatalogError, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The serializable catalog state.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
struct State {
    sources: BTreeMap<String, SourceEntry>,
    integrations: BTreeMap<String, DiEntry>,
    models: BTreeMap<String, ModelEntry>,
}

/// Amalur's hybrid metadata catalog (§II-A). All operations are
/// thread-safe; reads never block each other.
#[derive(Debug, Default)]
pub struct MetadataCatalog {
    state: RwLock<State>,
}

impl MetadataCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared access to the state. No caller code runs under the lock, so
    /// a writer that panicked cannot have left it half-updated: a poisoned
    /// lock is entered anyway.
    fn read(&self) -> RwLockReadGuard<'_, State> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access to the state, with [`Self::read`]'s poison policy.
    fn write(&self) -> RwLockWriteGuard<'_, State> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }

    // --- sources -----------------------------------------------------------

    /// Registers a source; errors if the name is taken.
    ///
    /// # Errors
    /// [`CatalogError::AlreadyExists`].
    pub fn register_source(&self, entry: SourceEntry) -> Result<()> {
        let mut s = self.write();
        if s.sources.contains_key(&entry.name) {
            return Err(CatalogError::AlreadyExists(entry.name));
        }
        s.sources.insert(entry.name.clone(), entry);
        Ok(())
    }

    /// Fetches a source entry.
    ///
    /// # Errors
    /// [`CatalogError::NotFound`].
    pub fn source(&self, name: &str) -> Result<SourceEntry> {
        self.read()
            .sources
            .get(name)
            .cloned()
            .ok_or_else(|| CatalogError::NotFound(name.to_owned()))
    }

    /// All registered source names.
    pub fn source_names(&self) -> Vec<String> {
        self.read().sources.keys().cloned().collect()
    }

    /// Removes a source.
    ///
    /// # Errors
    /// [`CatalogError::NotFound`].
    pub fn remove_source(&self, name: &str) -> Result<()> {
        self.write()
            .sources
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| CatalogError::NotFound(name.to_owned()))
    }

    // --- integrations --------------------------------------------------------

    /// Registers DI metadata for an integration task.
    ///
    /// # Errors
    /// [`CatalogError::AlreadyExists`].
    pub fn register_integration(&self, entry: DiEntry) -> Result<()> {
        let mut s = self.write();
        if s.integrations.contains_key(&entry.id) {
            return Err(CatalogError::AlreadyExists(entry.id));
        }
        s.integrations.insert(entry.id.clone(), entry);
        Ok(())
    }

    /// Fetches an integration entry.
    ///
    /// # Errors
    /// [`CatalogError::NotFound`].
    pub fn integration(&self, id: &str) -> Result<DiEntry> {
        self.read()
            .integrations
            .get(id)
            .cloned()
            .ok_or_else(|| CatalogError::NotFound(id.to_owned()))
    }

    /// All integration ids.
    pub fn integration_ids(&self) -> Vec<String> {
        self.read().integrations.keys().cloned().collect()
    }

    // --- models --------------------------------------------------------------

    /// Registers a trained model.
    ///
    /// # Errors
    /// [`CatalogError::AlreadyExists`].
    pub fn register_model(&self, entry: ModelEntry) -> Result<()> {
        let mut s = self.write();
        if s.models.contains_key(&entry.name) {
            return Err(CatalogError::AlreadyExists(entry.name));
        }
        s.models.insert(entry.name.clone(), entry);
        Ok(())
    }

    /// Fetches a model entry.
    ///
    /// # Errors
    /// [`CatalogError::NotFound`].
    pub fn model(&self, name: &str) -> Result<ModelEntry> {
        self.read()
            .models
            .get(name)
            .cloned()
            .ok_or_else(|| CatalogError::NotFound(name.to_owned()))
    }

    /// All model names.
    pub fn model_names(&self) -> Vec<String> {
        self.read().models.keys().cloned().collect()
    }

    /// Lineage query: the models trained on the given dataset or
    /// integration id ("the metadata catalog also keeps track of the
    /// connections between the model and its training datasets").
    pub fn models_trained_on(&self, dataset_id: &str) -> Vec<String> {
        self.read()
            .models
            .values()
            .filter(|m| m.trained_on.iter().any(|d| d == dataset_id))
            .map(|m| m.name.clone())
            .collect()
    }

    // --- persistence ----------------------------------------------------------

    /// Serializes the catalog to pretty JSON.
    ///
    /// # Errors
    /// [`CatalogError::Serde`].
    pub fn to_json(&self) -> Result<String> {
        Ok(serde_json::to_string_pretty(&*self.read())?)
    }

    /// Loads a catalog from JSON.
    ///
    /// # Errors
    /// [`CatalogError::Serde`].
    pub fn from_json(json: &str) -> Result<Self> {
        let state: State = serde_json::from_str(json)?;
        Ok(Self {
            state: RwLock::new(state),
        })
    }

    /// Saves to a file.
    ///
    /// # Errors
    /// [`CatalogError::Io`] / [`CatalogError::Serde`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = BufWriter::new(file);
        w.write_all(self.to_json()?.as_bytes())?;
        w.flush()?;
        Ok(())
    }

    /// Loads from a file.
    ///
    /// # Errors
    /// [`CatalogError::Io`] / [`CatalogError::Serde`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample_source(name: &str) -> SourceEntry {
        SourceEntry {
            name: name.to_owned(),
            silo_location: "er".into(),
            schema: Vec::new(),
            num_rows: 4,
            integrity_constraints: vec!["PRIMARY KEY (n)".into()],
        }
    }

    fn sample_model(name: &str, trained_on: &str) -> ModelEntry {
        ModelEntry {
            name: name.to_owned(),
            model_type: "linreg".into(),
            environment: "native".into(),
            strategy: "factorized".into(),
            hyperparameters: BTreeMap::new(),
            metrics: BTreeMap::new(),
            trained_on: vec![trained_on.to_owned()],
        }
    }

    #[test]
    fn source_crud() {
        let c = MetadataCatalog::new();
        c.register_source(sample_source("S1")).unwrap();
        assert!(matches!(
            c.register_source(sample_source("S1")).unwrap_err(),
            CatalogError::AlreadyExists(_)
        ));
        assert_eq!(c.source("S1").unwrap().num_rows, 4);
        assert!(c.source("S2").is_err());
        assert_eq!(c.source_names(), vec!["S1"]);
        c.remove_source("S1").unwrap();
        assert!(c.remove_source("S1").is_err());
    }

    #[test]
    fn lineage_queries() {
        let c = MetadataCatalog::new();
        c.register_model(sample_model("m1", "hospital-join"))
            .unwrap();
        c.register_model(sample_model("m2", "hospital-join"))
            .unwrap();
        c.register_model(sample_model("m3", "other")).unwrap();
        let mut models = c.models_trained_on("hospital-join");
        models.sort();
        assert_eq!(models, vec!["m1", "m2"]);
        assert!(c.models_trained_on("nothing").is_empty());
    }

    #[test]
    fn json_roundtrip() {
        let c = MetadataCatalog::new();
        c.register_source(sample_source("S1")).unwrap();
        c.register_model(sample_model("m1", "S1")).unwrap();
        let json = c.to_json().unwrap();
        let back = MetadataCatalog::from_json(&json).unwrap();
        assert_eq!(back.source("S1").unwrap().integrity_constraints.len(), 1);
        assert_eq!(back.model("m1").unwrap().model_type, "linreg");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("amalur_catalog_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.json");
        let c = MetadataCatalog::new();
        c.register_source(sample_source("S1")).unwrap();
        c.save(&path).unwrap();
        let back = MetadataCatalog::load(&path).unwrap();
        assert_eq!(back.source_names(), vec!["S1"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(MetadataCatalog::from_json("not json").is_err());
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let c = std::sync::Arc::new(MetadataCatalog::new());
        std::thread::scope(|s| {
            for i in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    c.register_source(sample_source(&format!("S{i}"))).unwrap();
                    for _ in 0..100 {
                        let _ = c.source_names();
                    }
                });
            }
        });
        assert_eq!(c.source_names().len(), 8);
    }
}
