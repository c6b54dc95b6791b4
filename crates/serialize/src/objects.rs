//! What the binary and SOAP object codecs share: the per-call object-id
//! table and blank allocation by type identity.

use std::collections::HashMap;
use std::hash::Hash;

use pti_metamodel::{Guid, MetamodelError, ObjHandle, Runtime, TypeName};

use crate::error::{Result, SerializeError};

/// The object ids of one encode or decode call. The first entry is kept
/// inline, so a payload holding one object and no back-reference never
/// builds, hashes into or allocates the map; a later entry under an
/// existing key replaces it, as a map insert would.
pub(crate) struct IdTable<K, V> {
    first: Option<(K, V)>,
    rest: Option<HashMap<K, V>>,
}

impl<K: Copy + Eq + Hash, V: Copy> IdTable<K, V> {
    pub(crate) fn new() -> Self {
        IdTable {
            first: None,
            rest: None,
        }
    }

    pub(crate) fn get(&self, key: K) -> Option<V> {
        match self.first {
            Some((k, v)) if k == key => Some(v),
            _ => self.rest.as_ref()?.get(&key).copied(),
        }
    }

    pub(crate) fn insert(&mut self, key: K, value: V) {
        match &mut self.first {
            None => self.first = Some((key, value)),
            Some((k, v)) if *k == key => *v = value,
            Some(_) => {
                self.rest
                    .get_or_insert_with(HashMap::new)
                    .insert(key, value);
            }
        }
    }
}

/// [`Runtime::allocate_raw_guid`], reporting an unregistered `guid` as
/// [`SerializeError::UnknownType`] under the name `name` gives (called
/// only then).
pub(crate) fn allocate(
    rt: &mut Runtime,
    guid: Guid,
    name: impl FnOnce() -> TypeName,
) -> Result<ObjHandle> {
    rt.allocate_raw_guid(guid).map_err(|e| match e {
        MetamodelError::UnknownTypeGuid(guid) => SerializeError::UnknownType { name: name(), guid },
        e => e.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_id_table_answers_as_a_map() {
        let mut table = IdTable::new();
        let mut model = HashMap::new();
        for (i, key) in [3u64, 9, 3, 1, 9, 3, 7].into_iter().enumerate() {
            for probe in 0..10 {
                assert_eq!(table.get(probe), model.get(&probe).copied(), "step {i}");
            }
            table.insert(key, i);
            model.insert(key, i);
        }
        assert_eq!(table.get(3), Some(5));
    }
}
