//! Multi-tenant registry of named graphs, each behind an atomically
//! swappable handle so a new index version can be published with zero
//! query downtime.
//!
//! # Hot-swap protocol
//!
//! Each graph name maps to a private slot holding `RwLock<Arc<Tenant>>`.
//! The lock discipline keeps both locks *brief and non-nested around
//! queries*:
//!
//! 1. A request thread takes the registry map's read lock just long
//!    enough to clone the slot `Arc`, then the slot's read lock just
//!    long enough to clone the tenant `Arc` — and answers the query
//!    with **no lock held**.
//! 2. A publisher (background loader, `/admin/load`) builds the new
//!    [`QueryEngine`] entirely outside any lock — preprocessing or
//!    `persist::load` can take seconds while queries keep flowing —
//!    then takes the slot's write lock only for the pointer swap.
//! 3. In-flight queries keep the old engine alive through their cloned
//!    `Arc`; the old worker pool shuts down (via `QueryEngine::drop`)
//!    when the last such clone is dropped.
//!
//! Versions are per-slot and strictly increasing, so a client that
//! tags responses with `X-Graph-Version` observes a monotone sequence
//! for any single connection.

use crate::sync::RwLock;
use bear_core::QueryEngine;
use std::collections::HashMap;
use std::sync::Arc;

/// One published index version of a named graph.
pub struct Tenant {
    /// The serving engine for this version.
    pub engine: Arc<QueryEngine>,
    /// Version number, starting at 1 and incremented on every publish.
    pub version: u64,
}

/// The swappable handle for one graph name.
struct Slot {
    current: RwLock<Arc<Tenant>>,
}

/// Registry of named graphs. Cheap to share (`Arc<Registry>`); all
/// methods take `&self`.
#[derive(Default)]
pub struct Registry {
    graphs: RwLock<HashMap<String, Arc<Slot>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Publishes `engine` as the newest version of `name`, creating the
    /// graph on first publish. Returns the new version number. Queries
    /// already holding the previous version's `Arc` finish on it.
    pub fn publish(&self, name: &str, engine: Arc<QueryEngine>) -> u64 {
        let slot = {
            let mut graphs = self.graphs.write().unwrap_or_else(|e| e.into_inner());
            match graphs.get(name) {
                Some(slot) => Arc::clone(slot),
                None => {
                    let slot = Arc::new(Slot {
                        current: RwLock::new(Arc::new(Tenant {
                            engine: Arc::clone(&engine),
                            version: 1,
                        })),
                    });
                    graphs.insert(name.to_string(), Arc::clone(&slot));
                    return 1;
                }
            }
        };
        let mut current = slot.current.write().unwrap_or_else(|e| e.into_inner());
        let version = current.version + 1;
        *current = Arc::new(Tenant { engine, version });
        version
    }

    /// The current version of `name`, if registered. The returned
    /// `Arc` pins that version for the caller's whole request even if a
    /// publish lands concurrently.
    pub fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        let slot = {
            let graphs = self.graphs.read().unwrap_or_else(|e| e.into_inner());
            Arc::clone(graphs.get(name)?)
        };
        let current = slot.current.read().unwrap_or_else(|e| e.into_inner());
        Some(Arc::clone(&current))
    }

    /// Registered graph names, sorted.
    pub fn names(&self) -> Vec<String> {
        let graphs = self.graphs.read().unwrap_or_else(|e| e.into_inner());
        let mut names: Vec<String> = graphs.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        self.graphs.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether no graphs are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").field("graphs", &self.names()).finish()
    }
}
