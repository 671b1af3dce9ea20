//! The newest-wins k-way merge behind range scans and compaction.

use std::collections::btree_map;

use fskit::FsResult;

use crate::memtable::Memtable;
use crate::sstable::{Cursor, EntryRef, SsTable};

/// One sorted input of the merge.
enum Run<'a> {
    Memtable { head: Option<EntryRef<'a>>, rest: btree_map::Range<'a, Vec<u8>, Option<Vec<u8>>> },
    Table(Cursor<'a>),
}

impl Run<'_> {
    fn head(&self) -> Option<EntryRef<'_>> {
        match self {
            Run::Memtable { head, .. } => *head,
            Run::Table(cursor) => cursor.head(),
        }
    }

    fn advance(&mut self) -> FsResult<()> {
        match self {
            Run::Memtable { head, rest } => {
                *head = rest.next().map(|(k, v)| (k.as_slice(), v.as_deref()));
                Ok(())
            }
            Run::Table(cursor) => cursor.advance(),
        }
    }

    fn key(&self) -> Option<&[u8]> {
        self.head().map(|(key, _)| key)
    }
}

/// Merges the memtable, when given, with `tables` (oldest first, as the
/// store keeps them) from key `start` on. Calls `f` with the newest version
/// of each key, in key order, until `f` returns `false` or the inputs run
/// out. Tombstones and the versions they or newer values shadow are skipped;
/// nothing is copied on the way.
///
/// # Errors
///
/// Propagates file-system errors from the table cursors.
pub(crate) fn for_each_live(
    memtable: Option<&Memtable>,
    tables: &[SsTable],
    start: &[u8],
    mut f: impl FnMut(&[u8], &[u8]) -> bool,
) -> FsResult<()> {
    // Newest first, so a tie on a key goes to the lowest index.
    let mut runs = Vec::with_capacity(tables.len() + 1);
    if let Some(memtable) = memtable {
        let mut rest = memtable.range_from(start);
        let head = rest.next().map(|(k, v)| (k.as_slice(), v.as_deref()));
        runs.push(Run::Memtable { head, rest });
    }
    for table in tables.iter().rev() {
        runs.push(Run::Table(table.cursor(start)?));
    }
    loop {
        let mut newest: Option<(usize, &[u8])> = None;
        for (i, run) in runs.iter().enumerate() {
            if let Some(key) = run.key() {
                if newest.is_none_or(|(_, min)| key < min) {
                    newest = Some((i, key));
                }
            }
        }
        let Some((winner, _)) = newest else {
            return Ok(());
        };
        // Older runs holding the same key are shadowed by the winner.
        for i in winner + 1..runs.len() {
            if runs[i].key() == runs[winner].key() {
                runs[i].advance()?;
            }
        }
        if let Some((key, Some(value))) = runs[winner].head() {
            if !f(key, value) {
                return Ok(());
            }
        }
        runs[winner].advance()?;
    }
}
