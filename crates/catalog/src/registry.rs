//! Versioned, shared-ownership dataset registry for the serving layer.
//!
//! The metadata catalog ([`crate::MetadataCatalog`]) stores *metadata*
//! and persists to JSON. A long-lived server additionally needs to own
//! the *data itself* — factorized tables workers read concurrently — so
//! [`DatasetRegistry`] keeps each published version behind an
//! `Arc<T>`:
//!
//! * fetching never clones the data, only bumps a reference count;
//! * publishing a new version never disturbs in-flight requests that
//!   hold the previous `Arc` (readers keep the exact version they
//!   started with);
//! * `Arc` identity is stable: two fetches of the same version return
//!   pointers to the same allocation, which the concurrency stress
//!   tests assert via [`std::sync::Arc::ptr_eq`].
//!
//! The registry is generic over the payload so this crate stays free of
//! a dependency on `amalur-factorize`; `amalur-serve` instantiates it
//! as `DatasetRegistry<FactorizedTable>`.

use crate::{CatalogError, Result};
use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Lifecycle state of a registered dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetStatus {
    /// Accepting requests.
    Active,
    /// Unpublished: fetches fail, existing `Arc` holders are unaffected.
    Retired,
}

/// One published version of a dataset.
#[derive(Debug, Clone)]
pub struct DatasetVersion<T> {
    /// 1-based version number (monotonically increasing per name).
    pub version: u64,
    /// Shared handle to the immutable payload.
    pub data: Arc<T>,
}

struct Entry<T> {
    status: DatasetStatus,
    versions: Vec<Arc<T>>, // index i holds version i+1
}

/// Thread-safe name → versioned `Arc<T>` map (see module docs).
pub struct DatasetRegistry<T> {
    entries: RwLock<BTreeMap<String, Entry<T>>>,
}

impl<T> Default for DatasetRegistry<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DatasetRegistry<T> {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self {
            entries: RwLock::new(BTreeMap::new()),
        }
    }

    /// Shared access to the map. No caller code runs under the lock, so a
    /// writer that panicked cannot have left it half-updated: a poisoned
    /// lock is entered anyway.
    fn read(&self) -> RwLockReadGuard<'_, BTreeMap<String, Entry<T>>> {
        self.entries.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access to the map, with [`Self::read`]'s poison policy.
    fn write(&self) -> RwLockWriteGuard<'_, BTreeMap<String, Entry<T>>> {
        self.entries.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a new dataset under `name` as version 1.
    ///
    /// # Errors
    /// [`CatalogError::AlreadyExists`] when the name is taken (use
    /// [`Self::publish`] to add a version to an existing dataset).
    pub fn register(&self, name: &str, data: T) -> Result<DatasetVersion<T>> {
        let mut entries = self.write();
        if entries.contains_key(name) {
            return Err(CatalogError::AlreadyExists(name.to_owned()));
        }
        let data = Arc::new(data);
        entries.insert(
            name.to_owned(),
            Entry {
                status: DatasetStatus::Active,
                versions: vec![Arc::clone(&data)],
            },
        );
        Ok(DatasetVersion { version: 1, data })
    }

    /// Publishes a new version of an existing dataset and returns it.
    /// Holders of older versions are unaffected. Publishing to a retired
    /// dataset re-activates it.
    ///
    /// # Errors
    /// [`CatalogError::NotFound`] when the name was never registered.
    pub fn publish(&self, name: &str, data: T) -> Result<DatasetVersion<T>> {
        let mut entries = self.write();
        let entry = entries
            .get_mut(name)
            .ok_or_else(|| CatalogError::NotFound(name.to_owned()))?;
        let data = Arc::new(data);
        entry.versions.push(Arc::clone(&data));
        entry.status = DatasetStatus::Active;
        Ok(DatasetVersion {
            version: entry.versions.len() as u64,
            data,
        })
    }

    /// Fetches the latest version of an active dataset without cloning
    /// the payload.
    ///
    /// # Errors
    /// [`CatalogError::NotFound`] when the name is unknown **or** the
    /// dataset is retired.
    pub fn fetch(&self, name: &str) -> Result<DatasetVersion<T>> {
        let entries = self.read();
        let entry = entries
            .get(name)
            .filter(|e| e.status == DatasetStatus::Active)
            .ok_or_else(|| CatalogError::NotFound(name.to_owned()))?;
        // Entries always hold >= 1 version (enforced at registration);
        // treat a violated invariant as the dataset being unavailable.
        let data = entry
            .versions
            .last()
            .ok_or_else(|| CatalogError::NotFound(name.to_owned()))?;
        Ok(DatasetVersion {
            version: entry.versions.len() as u64,
            data: Arc::clone(data),
        })
    }

    /// Fetches a specific historical version (1-based). Works on retired
    /// datasets too — in-flight work pinned to a version must be able to
    /// re-resolve it.
    ///
    /// # Errors
    /// [`CatalogError::NotFound`] for unknown names or versions.
    pub fn fetch_version(&self, name: &str, version: u64) -> Result<DatasetVersion<T>> {
        let entries = self.read();
        let entry = entries
            .get(name)
            .ok_or_else(|| CatalogError::NotFound(name.to_owned()))?;
        let data = version
            .checked_sub(1)
            .and_then(|i| entry.versions.get(i as usize))
            .ok_or_else(|| CatalogError::NotFound(format!("{name}@v{version}")))?;
        Ok(DatasetVersion {
            version,
            data: Arc::clone(data),
        })
    }

    /// Retires a dataset: subsequent [`Self::fetch`]es fail, existing
    /// `Arc` holders and [`Self::fetch_version`] keep working.
    ///
    /// # Errors
    /// [`CatalogError::NotFound`] for unknown names.
    pub fn retire(&self, name: &str) -> Result<()> {
        let mut entries = self.write();
        let entry = entries
            .get_mut(name)
            .ok_or_else(|| CatalogError::NotFound(name.to_owned()))?;
        entry.status = DatasetStatus::Retired;
        Ok(())
    }

    /// Lifecycle status of a dataset.
    ///
    /// # Errors
    /// [`CatalogError::NotFound`] for unknown names.
    pub fn status(&self, name: &str) -> Result<DatasetStatus> {
        let entries = self.read();
        entries
            .get(name)
            .map(|e| e.status)
            .ok_or_else(|| CatalogError::NotFound(name.to_owned()))
    }

    /// Latest version number of a dataset (independent of status).
    ///
    /// # Errors
    /// [`CatalogError::NotFound`] for unknown names.
    pub fn latest_version(&self, name: &str) -> Result<u64> {
        let entries = self.read();
        entries
            .get(name)
            .map(|e| e.versions.len() as u64)
            .ok_or_else(|| CatalogError::NotFound(name.to_owned()))
    }

    /// Sorted names of all datasets, active and retired.
    pub fn names(&self) -> Vec<String> {
        self.read().keys().cloned().collect()
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_fetch_roundtrip_shares_the_allocation() {
        let reg = DatasetRegistry::new();
        let v1 = reg.register("hospital", vec![1.0, 2.0]).unwrap();
        assert_eq!(v1.version, 1);
        let fetched = reg.fetch("hospital").unwrap();
        assert_eq!(fetched.version, 1);
        assert!(Arc::ptr_eq(&v1.data, &fetched.data));
        assert!(matches!(
            reg.register("hospital", vec![]),
            Err(CatalogError::AlreadyExists(_))
        ));
    }

    #[test]
    fn publish_bumps_version_and_keeps_old_arcs_alive() {
        let reg = DatasetRegistry::new();
        reg.register("d", 10u32).unwrap();
        let old = reg.fetch("d").unwrap();
        let v2 = reg.publish("d", 20u32).unwrap();
        assert_eq!(v2.version, 2);
        assert_eq!(*old.data, 10); // in-flight holder unaffected
        assert_eq!(*reg.fetch("d").unwrap().data, 20);
        // Historical fetch returns the same allocation the holder has.
        let hist = reg.fetch_version("d", 1).unwrap();
        assert!(Arc::ptr_eq(&old.data, &hist.data));
        assert_eq!(reg.latest_version("d").unwrap(), 2);
        assert!(matches!(
            reg.fetch_version("d", 3),
            Err(CatalogError::NotFound(_))
        ));
        assert!(matches!(
            reg.fetch_version("d", 0),
            Err(CatalogError::NotFound(_))
        ));
    }

    #[test]
    fn retire_blocks_fetch_but_not_pinned_versions() {
        let reg = DatasetRegistry::new();
        reg.register("d", 1u8).unwrap();
        reg.retire("d").unwrap();
        assert_eq!(reg.status("d").unwrap(), DatasetStatus::Retired);
        assert!(reg.fetch("d").is_err());
        assert!(reg.fetch_version("d", 1).is_ok());
        // Publishing re-activates.
        reg.publish("d", 2u8).unwrap();
        assert_eq!(reg.status("d").unwrap(), DatasetStatus::Active);
        assert_eq!(*reg.fetch("d").unwrap().data, 2);
    }

    #[test]
    fn unknown_names_error() {
        let reg: DatasetRegistry<()> = DatasetRegistry::new();
        assert!(reg.fetch("nope").is_err());
        assert!(reg.publish("nope", ()).is_err());
        assert!(reg.retire("nope").is_err());
        assert!(reg.status("nope").is_err());
        assert!(reg.latest_version("nope").is_err());
        assert!(reg.is_empty());
    }

    #[test]
    fn names_are_sorted() {
        let reg = DatasetRegistry::new();
        for n in ["zeta", "alpha", "mid"] {
            reg.register(n, 0u8).unwrap();
        }
        assert_eq!(reg.names(), vec!["alpha", "mid", "zeta"]);
        assert_eq!(reg.len(), 3);
    }
}
