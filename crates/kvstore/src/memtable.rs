//! The in-memory write buffer (memtable).

use std::collections::{btree_map, BTreeMap};
use std::ops::Bound;

/// A sorted in-memory buffer of recent writes. `None` values are tombstones
/// (deletions that must shadow older SSTable entries).
#[derive(Debug, Default)]
pub struct Memtable {
    entries: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    approx_bytes: usize,
}

impl Memtable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries (including tombstones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate memory footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Inserts or overwrites a key.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.insert(key.to_vec(), Some(value.to_vec()));
    }

    /// Records a deletion (tombstone).
    pub fn delete(&mut self, key: &[u8]) {
        self.insert(key.to_vec(), None);
    }

    fn insert(&mut self, key: Vec<u8>, value: Option<Vec<u8>>) {
        let add = key.len() + value.as_ref().map(|v| v.len()).unwrap_or(0) + 16;
        if let Some(old) = self.entries.insert(key, value) {
            let old_size = old.map(|v| v.len()).unwrap_or(0);
            self.approx_bytes = self.approx_bytes.saturating_sub(old_size);
            self.approx_bytes += add.saturating_sub(16);
        } else {
            self.approx_bytes += add;
        }
    }

    /// Looks up a key. `Some(None)` means "deleted here"; `None` means "not
    /// present in the memtable, check the SSTables".
    pub fn get(&self, key: &[u8]) -> Option<Option<Vec<u8>>> {
        self.entries.get(key).cloned()
    }

    /// Iterates over entries with keys `>= start`, in order.
    pub fn range_from(&self, start: &[u8]) -> btree_map::Range<'_, Vec<u8>, Option<Vec<u8>>> {
        self.entries.range::<[u8], _>((Bound::Included(start), Bound::Unbounded))
    }

    /// Drains the memtable into a sorted vector of `(key, value-or-tombstone)`.
    pub fn drain_sorted(&mut self) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        self.approx_bytes = 0;
        std::mem::take(&mut self.entries).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let mut m = Memtable::new();
        assert!(m.is_empty());
        m.put(b"a", b"1");
        m.put(b"b", b"2");
        assert_eq!(m.get(b"a"), Some(Some(b"1".to_vec())));
        assert_eq!(m.get(b"c"), None);
        m.delete(b"a");
        assert_eq!(m.get(b"a"), Some(None));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn overwrite_replaces_value() {
        let mut m = Memtable::new();
        m.put(b"k", b"old");
        m.put(b"k", b"newer");
        assert_eq!(m.get(b"k"), Some(Some(b"newer".to_vec())));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn size_accounting_grows_with_inserts() {
        let mut m = Memtable::new();
        assert_eq!(m.approx_bytes(), 0);
        m.put(b"key1", &[0u8; 100]);
        let after_one = m.approx_bytes();
        assert!(after_one >= 100);
        m.put(b"key2", &[0u8; 100]);
        assert!(m.approx_bytes() > after_one);
    }

    #[test]
    fn drain_returns_sorted_entries_and_empties() {
        let mut m = Memtable::new();
        m.put(b"zebra", b"3");
        m.put(b"apple", b"1");
        m.delete(b"mango");
        let drained = m.drain_sorted();
        let keys: Vec<&[u8]> = drained.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![b"apple".as_slice(), b"mango".as_slice(), b"zebra".as_slice()]);
        assert!(m.is_empty());
        assert_eq!(m.approx_bytes(), 0);
    }

    #[test]
    fn range_from_starts_at_the_given_key() {
        let mut m = Memtable::new();
        for k in ["a", "c", "e", "g"] {
            m.put(k.as_bytes(), b"v");
        }
        let keys: Vec<&[u8]> = m.range_from(b"c").map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![b"c".as_slice(), b"e".as_slice(), b"g".as_slice()]);
    }
}
