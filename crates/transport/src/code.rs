//! The out-of-band code registry shared by every swarm on one fabric.
//!
//! Method bodies are Rust closures and cannot cross a (simulated) wire;
//! the registry keeps a global `path → Assembly` map standing in for the
//! actual code bytes, while the *sizes* of assembly transfers are charged
//! to the network for accounting. It is cheaply cloneable and
//! thread-safe so that every swarm on a fabric — sibling sessions on one
//! thread, or swarms on different shards of a `ShardedHost`, each owning
//! its own peers — resolves downloads from the same store, exactly like
//! independent processes sharing a code server.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use pti_metamodel::Assembly;

/// A shared `download path → Assembly` store.
#[derive(Debug, Clone, Default)]
pub struct CodeRegistry {
    inner: Arc<Mutex<HashMap<String, Assembly>>>,
}

impl CodeRegistry {
    /// Creates an empty registry.
    pub fn new() -> CodeRegistry {
        CodeRegistry::default()
    }

    /// Publishes an assembly under a download path.
    pub fn insert(&self, path: impl Into<String>, assembly: Assembly) {
        self.lock().insert(path.into(), assembly);
    }

    /// The assembly behind a download path, if any.
    pub fn get(&self, path: &str) -> Option<Assembly> {
        self.lock().get(path).cloned()
    }

    /// Number of published paths.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Assembly>> {
        // pti-allow(panic-policy): a poisoned registry lock means an installer panicked; the shared code cache is unrecoverable
        self.inner.lock().expect("code registry lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pti_metamodel::TypeDef;

    #[test]
    fn clones_share_entries() {
        let reg = CodeRegistry::new();
        assert!(reg.is_empty());
        let clone = reg.clone();
        let asm = Assembly::builder("a")
            .ty(TypeDef::class("T", "s").build())
            .build();
        reg.insert("pti://peer-1/asm/a", asm);
        assert_eq!(clone.len(), 1);
        assert!(clone.get("pti://peer-1/asm/a").is_some());
        assert!(clone.get("pti://peer-1/asm/b").is_none());
    }
}
