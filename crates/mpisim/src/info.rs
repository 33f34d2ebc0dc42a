//! `MPI_Info`: the key/value hint dictionaries through which users
//! steer ROMIO (Tables I and II of the paper).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// An MPI info object (handle semantics: clones share state).
#[derive(Clone, Default)]
pub struct Info {
    map: Rc<RefCell<BTreeMap<String, String>>>,
}

impl Info {
    /// An empty info object (`MPI_INFO_NULL` is represented by
    /// `Info::default()` with no keys).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a hint (`MPI_Info_set`).
    pub fn set(&self, key: &str, value: &str) -> &Self {
        self.map
            .borrow_mut()
            .insert(key.to_string(), value.to_string());
        self
    }

    /// Get a hint (`MPI_Info_get`).
    pub fn get(&self, key: &str) -> Option<String> {
        self.map.borrow().get(key).cloned()
    }

    /// Remove a hint (`MPI_Info_delete`).
    pub fn delete(&self, key: &str) -> bool {
        self.map.borrow_mut().remove(key).is_some()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.borrow().len()
    }

    /// True if no hints are set.
    pub fn is_empty(&self) -> bool {
        self.map.borrow().is_empty()
    }

    /// Deep copy (`MPI_Info_dup`).
    pub fn dup(&self) -> Info {
        Info {
            map: Rc::new(RefCell::new(self.map.borrow().clone())),
        }
    }

    /// Sorted `(key, value)` pairs.
    pub fn entries(&self) -> Vec<(String, String)> {
        self.map
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Visit the `(key, value)` pairs in key order, in place: nothing is
    /// copied out. `f` must not touch this object (it is borrowed).
    pub fn for_each(&self, mut f: impl FnMut(&str, &str)) {
        for (k, v) in self.map.borrow().iter() {
            f(k, v);
        }
    }

    /// Build from `(key, value)` pairs.
    pub fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> Info {
        let info = Info::new();
        for (k, v) in pairs {
            info.set(k, v);
        }
        info
    }
}

impl std::fmt::Debug for Info {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.map.borrow().iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_delete() {
        let i = Info::new();
        assert!(i.is_empty());
        i.set("cb_nodes", "16").set("e10_cache", "enable");
        assert_eq!(i.get("cb_nodes").as_deref(), Some("16"));
        assert!(i.delete("cb_nodes"));
        assert!(!i.delete("cb_nodes"));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn clones_share_but_dup_copies() {
        let a = Info::new();
        let b = a.clone();
        b.set("k", "v");
        assert_eq!(a.get("k").as_deref(), Some("v"));
        let c = a.dup();
        c.set("k", "other");
        assert_eq!(a.get("k").as_deref(), Some("v"));
    }

    #[test]
    fn entries_sorted() {
        let i = Info::from_pairs([("z", "1"), ("a", "2")]);
        let e = i.entries();
        assert_eq!(e[0].0, "a");
        assert_eq!(e[1].0, "z");
    }
}
