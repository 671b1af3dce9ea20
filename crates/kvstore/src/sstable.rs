//! Immutable sorted-string tables (SSTables).
//!
//! A memtable flush (or a compaction) writes sorted entries to one SSTable
//! file and keeps a sparse in-memory index: the key and byte offset of every
//! `INDEX_INTERVAL`-th (16th) entry. The entries from one anchor up to the
//! next form an *index segment*. A point lookup reads the one segment that
//! may hold its key. A scan opens a [`Cursor`], which binary-searches the
//! index for the anchor at or before its start key and then streams the
//! table one segment at a time, reading the next segment only when the
//! caller advances past the current one. Entries are decoded in place, as
//! slices of the segment buffer, so nothing is copied until a caller keeps
//! a row. Tombstones are stored so that newer tables shadow older values
//! until a compaction drops them.

use std::sync::Arc;

use fskit::{Fd, FileSystem, FsError, FsResult, OpenFlags};

/// One entry decoded in place: the key and the value, `None` for a
/// tombstone.
pub type EntryRef<'a> = (&'a [u8], Option<&'a [u8]>);

/// Bytes of an entry's header: key length, value length, tombstone flag.
const HEADER: usize = 4 + 4 + 1;

/// Every how many entries a sparse-index anchor is kept in memory.
const INDEX_INTERVAL: usize = 16;

fn encoded_len(key: &[u8], value: Option<&[u8]>) -> usize {
    HEADER + key.len() + value.map_or(0, <[u8]>::len)
}

/// Appends one entry: key length, value length, tombstone flag, key, value.
/// WAL records use the same encoding followed by a checksum.
pub(crate) fn encode_entry(out: &mut Vec<u8>, key: &[u8], value: Option<&[u8]>) {
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&(value.map_or(0, <[u8]>::len) as u32).to_le_bytes());
    out.push(value.is_some() as u8);
    out.extend_from_slice(key);
    if let Some(v) = value {
        out.extend_from_slice(v);
    }
}

/// Decodes the entry at the front of `buf` in place. Returns it with its
/// encoded size, or `None` when `buf` does not start with a whole entry.
pub(crate) fn decode_entry(buf: &[u8]) -> Option<(EntryRef<'_>, usize)> {
    let header = buf.get(..HEADER)?;
    let klen = u32::from_le_bytes(header[0..4].try_into().ok()?) as usize;
    let vlen = u32::from_le_bytes(header[4..8].try_into().ok()?) as usize;
    let total = HEADER + klen + vlen;
    if klen == 0 || buf.len() < total {
        return None;
    }
    let key = &buf[HEADER..HEADER + klen];
    let value = (header[8] != 0).then(|| &buf[HEADER + klen..total]);
    Some(((key, value), total))
}

/// Encodes sorted entries into one table image; [`TableWriter::finish`]
/// writes it to a file.
pub(crate) struct TableWriter {
    buf: Vec<u8>,
    index: Vec<(Vec<u8>, u64)>,
    /// Where the last pushed key sits in `buf`.
    last_key: std::ops::Range<usize>,
    entries: usize,
}

impl TableWriter {
    /// An empty table image with room for `bytes` of encoded entries.
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        Self { buf: Vec::with_capacity(bytes), index: Vec::new(), last_key: 0..0, entries: 0 }
    }

    /// Appends one entry; keys must arrive strictly ascending.
    pub(crate) fn push(&mut self, key: &[u8], value: Option<&[u8]>) {
        debug_assert!(self.entries == 0 || &self.buf[self.last_key.clone()] < key);
        if self.entries.is_multiple_of(INDEX_INTERVAL) {
            self.index.push((key.to_vec(), self.buf.len() as u64));
        }
        let key_at = self.buf.len() + HEADER;
        encode_entry(&mut self.buf, key, value);
        self.last_key = key_at..key_at + key.len();
        self.entries += 1;
    }

    /// `true` when no entry was pushed.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Writes the image to `path` (created or truncated) and syncs it.
    pub(crate) fn finish(self, fs: Arc<dyn FileSystem>, path: &str) -> FsResult<SsTable> {
        let fd = fs.open(path, OpenFlags::create_truncate())?;
        fs.write(fd, 0, &self.buf)?;
        fs.fsync(fd)?;
        fs.close(fd)?;
        let bounds =
            self.index.first().map(|(lo, _)| (lo.clone(), self.buf[self.last_key].to_vec()));
        Ok(SsTable {
            fs,
            path: path.to_string(),
            index: self.index,
            bounds,
            size_bytes: self.buf.len() as u64,
            entries: self.entries,
        })
    }
}

/// An immutable, sorted table backed by one file.
pub struct SsTable {
    fs: Arc<dyn FileSystem>,
    path: String,
    /// Sparse index: `(key, byte offset)` of every `INDEX_INTERVAL`-th entry.
    index: Vec<(Vec<u8>, u64)>,
    /// Smallest and largest key in the table.
    bounds: Option<(Vec<u8>, Vec<u8>)>,
    size_bytes: u64,
    entries: usize,
}

impl SsTable {
    /// Writes a new SSTable from sorted `(key, value)` entries and syncs it.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors; returns [`FsError::InvalidArgument`] if
    /// the entries are not strictly sorted by key.
    pub fn write(
        fs: Arc<dyn FileSystem>,
        path: &str,
        entries: &[(Vec<u8>, Option<Vec<u8>>)],
    ) -> FsResult<Self> {
        for pair in entries.windows(2) {
            if pair[0].0 >= pair[1].0 {
                return Err(FsError::InvalidArgument("sstable entries must be sorted".into()));
            }
        }
        let bytes = entries.iter().map(|(k, v)| encoded_len(k, v.as_deref())).sum();
        let mut table = TableWriter::with_capacity(bytes);
        for (key, value) in entries {
            table.push(key, value.as_deref());
        }
        table.finish(fs, path)
    }

    /// Opens an existing SSTable, rebuilding the sparse index by reading the
    /// file once.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn open(fs: Arc<dyn FileSystem>, path: &str) -> FsResult<Self> {
        let fd = fs.open(path, OpenFlags::read_only())?;
        let size = fs.fstat(fd)?.size as usize;
        let buf = fs.read(fd, 0, size)?;
        fs.close(fd)?;
        let mut index = Vec::new();
        let mut last_key: &[u8] = &[];
        let mut pos = 0usize;
        let mut count = 0usize;
        while let Some(((key, _), used)) = decode_entry(&buf[pos..]) {
            if count.is_multiple_of(INDEX_INTERVAL) {
                index.push((key.to_vec(), pos as u64));
            }
            last_key = key;
            pos += used;
            count += 1;
        }
        let bounds = index.first().map(|(lo, _)| (lo.clone(), last_key.to_vec()));
        Ok(Self {
            fs,
            path: path.to_string(),
            index,
            bounds,
            size_bytes: pos as u64,
            entries: count,
        })
    }

    /// The file path backing this table.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Number of entries in the table.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// `true` when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Size of the table file in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Whether `key` falls within this table's key range.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        match &self.bounds {
            Some((lo, hi)) => key >= lo.as_slice() && key <= hi.as_slice(),
            None => false,
        }
    }

    /// The slot of the index anchor at or before `key`, if any.
    fn anchor_at_or_before(&self, key: &[u8]) -> Option<usize> {
        match self.index.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
            Ok(i) => Some(i),
            Err(0) => None,
            Err(i) => Some(i - 1),
        }
    }

    /// Reads index segment `slot` through `fd`.
    fn read_segment(&self, fd: Fd, slot: usize) -> FsResult<Vec<u8>> {
        let start = self.index[slot].1;
        let end = self.index.get(slot + 1).map_or(self.size_bytes, |(_, off)| *off);
        self.fs.read(fd, start, (end - start) as usize)
    }

    /// Point lookup. Reads only the index segment that may hold the key and
    /// copies only the value it returns.
    ///
    /// Returns `Some(Some(v))` for a live value, `Some(None)` for a tombstone,
    /// and `None` if the key is not in this table.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn get(&self, key: &[u8]) -> FsResult<Option<Option<Vec<u8>>>> {
        if !self.may_contain(key) {
            return Ok(None);
        }
        let Some(slot) = self.anchor_at_or_before(key) else {
            return Ok(None);
        };
        let fd = self.fs.open(&self.path, OpenFlags::read_only())?;
        let segment = self.read_segment(fd, slot);
        self.fs.close(fd)?;
        let segment = segment?;
        let mut rest = segment.as_slice();
        while let Some(((k, value), used)) = decode_entry(rest) {
            match k.cmp(key) {
                std::cmp::Ordering::Less => rest = &rest[used..],
                std::cmp::Ordering::Equal => return Ok(Some(value.map(<[u8]>::to_vec))),
                std::cmp::Ordering::Greater => break,
            }
        }
        Ok(None)
    }

    /// A cursor at the first entry whose key is `>= start`. It seeks with
    /// the sparse index, so it reads only the segment that may hold
    /// `start`, and opens no file at all when every key is below `start`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn cursor(&self, start: &[u8]) -> FsResult<Cursor<'_>> {
        let mut cursor =
            Cursor { table: self, fd: None, segment: Vec::new(), pos: 0, next_slot: usize::MAX };
        match &self.bounds {
            Some((_, hi)) if hi.as_slice() >= start => {}
            _ => return Ok(cursor),
        }
        cursor.load(self.anchor_at_or_before(start).unwrap_or(0))?;
        while cursor.head().is_some_and(|(key, _)| key < start) {
            cursor.advance()?;
        }
        Ok(cursor)
    }

    /// Deletes the backing file.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn delete(self) -> FsResult<()> {
        self.fs.unlink(&self.path)
    }
}

/// A forward cursor over one [`SsTable`] that holds one index segment in
/// memory at a time. Its file stays open until the cursor is dropped.
pub struct Cursor<'a> {
    table: &'a SsTable,
    fd: Option<Fd>,
    /// The segment being read, and the offset of the head entry in it.
    segment: Vec<u8>,
    pos: usize,
    next_slot: usize,
}

impl Cursor<'_> {
    /// The entry under the cursor, or `None` once the table is exhausted.
    pub fn head(&self) -> Option<EntryRef<'_>> {
        decode_entry(&self.segment[self.pos..]).map(|(entry, _)| entry)
    }

    /// Moves to the next entry, reading the next segment when the current
    /// one is used up.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn advance(&mut self) -> FsResult<()> {
        if let Some((_, used)) = decode_entry(&self.segment[self.pos..]) {
            self.pos += used;
        }
        if self.pos == self.segment.len() && self.next_slot < self.table.index.len() {
            self.load(self.next_slot)?;
        }
        Ok(())
    }

    fn load(&mut self, slot: usize) -> FsResult<()> {
        let table = self.table;
        let fd = match self.fd {
            Some(fd) => fd,
            None => *self.fd.insert(table.fs.open(&table.path, OpenFlags::read_only())?),
        };
        self.segment = table.read_segment(fd, slot)?;
        self.pos = 0;
        self.next_slot = slot + 1;
        Ok(())
    }
}

impl Drop for Cursor<'_> {
    fn drop(&mut self) {
        if let Some(fd) = self.fd.take() {
            // Closing a descriptor this cursor opened cannot fail.
            let _ = self.table.fs.close(fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfs::{test_fs, CountingFs};

    fn entries(n: usize) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        (0..n)
            .map(|i| {
                let key = format!("key{i:05}").into_bytes();
                let value = (i % 7 != 3).then(|| format!("value-{i}").into_bytes());
                (key, value)
            })
            .collect()
    }

    fn collect(mut cursor: Cursor<'_>) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        let mut out = Vec::new();
        while let Some((key, value)) = cursor.head() {
            out.push((key.to_vec(), value.map(<[u8]>::to_vec)));
            cursor.advance().unwrap();
        }
        out
    }

    #[test]
    fn write_then_get() {
        let fs = test_fs();
        let table = SsTable::write(Arc::clone(&fs), "/sst1", &entries(100)).unwrap();
        assert_eq!(table.len(), 100);
        assert!(table.size_bytes() > 0);
        assert_eq!(table.get(b"key00042").unwrap(), Some(Some(b"value-42".to_vec())));
        assert_eq!(table.get(b"key00003").unwrap(), Some(None), "tombstone is found");
        assert_eq!(table.get(b"missing").unwrap(), None);
        assert_eq!(table.get(b"key99999").unwrap(), None);
    }

    #[test]
    fn open_rebuilds_the_index() {
        let fs = test_fs();
        let written = SsTable::write(Arc::clone(&fs), "/sst2", &entries(64)).unwrap();
        let reopened = SsTable::open(Arc::clone(&fs), "/sst2").unwrap();
        assert_eq!(reopened.len(), 64);
        assert_eq!(reopened.index, written.index);
        assert_eq!(reopened.bounds, written.bounds);
        assert_eq!(reopened.get(b"key00012").unwrap(), Some(Some(b"value-12".to_vec())));
        assert_eq!(reopened.get(b"key00010").unwrap(), Some(None), "tombstone preserved");
        assert!(reopened.may_contain(b"key00000"));
        assert!(!reopened.may_contain(b"zzz"));
    }

    #[test]
    fn cursor_streams_every_entry_from_any_start() {
        let fs = test_fs();
        let all = entries(100);
        let table = SsTable::write(Arc::clone(&fs), "/sst3", &all).unwrap();
        assert_eq!(collect(table.cursor(b"").unwrap()), all, "whole table, tombstones included");
        // On an anchor (entry 32), between anchors, and between two keys.
        for (start, first) in [("key00032", 32), ("key00040", 40), ("key00047x", 48)] {
            assert_eq!(collect(table.cursor(start.as_bytes()).unwrap()), all[first..], "{start}");
        }
        assert!(collect(table.cursor(b"key99999").unwrap()).is_empty());
    }

    #[test]
    fn cursor_past_the_last_key_opens_no_file() {
        let counting = CountingFs::wrap(test_fs());
        let fs: Arc<dyn FileSystem> = counting.clone();
        let table = SsTable::write(fs, "/sst6", &entries(100)).unwrap();
        let opens = counting.opens();
        let cursor = table.cursor(b"zzz").unwrap();
        assert!(cursor.head().is_none());
        drop(cursor);
        assert_eq!(counting.opens(), opens);
    }

    #[test]
    fn unsorted_input_is_rejected() {
        let fs = test_fs();
        let bad = vec![(b"b".to_vec(), Some(b"1".to_vec())), (b"a".to_vec(), Some(b"2".to_vec()))];
        assert!(matches!(
            SsTable::write(Arc::clone(&fs), "/bad", &bad),
            Err(FsError::InvalidArgument(_))
        ));
    }

    #[test]
    fn delete_removes_the_file() {
        let fs = test_fs();
        let table = SsTable::write(Arc::clone(&fs), "/sst4", &entries(8)).unwrap();
        table.delete().unwrap();
        assert!(!fs.exists("/sst4"));
    }

    #[test]
    fn point_lookups_read_only_part_of_the_file() {
        let counting = CountingFs::wrap(test_fs());
        let fs: Arc<dyn FileSystem> = counting.clone();
        let table = SsTable::write(fs, "/sst5", &entries(1000)).unwrap();
        let segment = table
            .index
            .iter()
            .zip(table.index.iter().skip(1))
            .map(|((_, a), (_, b))| b - a)
            .max()
            .unwrap();
        assert!(table.size_bytes() > 10 * segment);

        let before = counting.read_bytes();
        table.get(b"key00500").unwrap();
        let read = counting.read_bytes() - before;
        assert!(read > 0 && read <= segment, "a point get read {read} bytes");

        // 20 rows from mid-segment span two segments.
        let before = counting.read_bytes();
        let mut cursor = table.cursor(b"key00504").unwrap();
        for _ in 0..20 {
            cursor.advance().unwrap();
        }
        drop(cursor);
        let read = counting.read_bytes() - before;
        assert!(read <= 2 * segment, "a 20-row scan read {read} bytes");
    }
}
