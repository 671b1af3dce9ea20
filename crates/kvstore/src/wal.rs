//! The write-ahead log.
//!
//! Every `put`/`delete` is appended to the WAL before it enters the memtable,
//! so committed writes survive a crash of the process even before a memtable
//! flush. The append pattern — many small sequential writes followed by an
//! `fsync` — is exactly the file-system workload the paper's OLTP and YCSB
//! write paths stress.
//!
//! # Crash safety
//!
//! A power failure can tear the final record: the file-system write behind an
//! `append` spans multiple device chunks, and a crash between them leaves a
//! record whose header decodes but whose payload is partly old bytes. Every
//! record therefore carries a checksum over its header and payload.
//! [`Wal::open`] validates the log front to back and **truncates** everything
//! from the first invalid record on — a torn tail is an expected crash
//! artifact, not an error (records after a torn one cannot exist: the log is
//! append-only and synced in order). The crashkit `WalTailChecker` pins this
//! behaviour at every enumerated crash point.

use std::sync::Arc;

use fskit::check::{CrashConsistent, Violation};
use fskit::{Fd, FileSystem, FsResult, OpenFlags};

use crate::sstable::{decode_entry, encode_entry};

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The key.
    pub key: Vec<u8>,
    /// The value; `None` encodes a deletion.
    pub value: Option<Vec<u8>>,
}

/// Fixed bytes per record in addition to key and value: two length words,
/// the tombstone flag and the trailing checksum.
const RECORD_OVERHEAD: usize = 4 + 4 + 1 + 4;

/// Checksum over the record's header and payload; 32 bits is plenty to
/// catch torn-write corruption (this is an integrity check, not
/// cryptography). It consumes eight bytes per step, each step a bijection
/// of the state for a fixed word, so two records that differ in a single
/// word always differ in the 64-bit state before it is folded to 32 bits.
fn checksum(bytes: &[u8]) -> u32 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        h = (h ^ word).wrapping_mul(K).rotate_left(29);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    h ^= h >> 32;
    h = h.wrapping_mul(K);
    (h ^ (h >> 29)) as u32
}

/// Serialized size of a record holding `key` and `value`.
fn record_len(key: &[u8], value: Option<&[u8]>) -> usize {
    RECORD_OVERHEAD + key.len() + value.map_or(0, <[u8]>::len)
}

/// Appends the encoding of one record to `out`: an entry in the SSTable
/// format (header, key, value) and the checksum over it.
fn encode_record(out: &mut Vec<u8>, key: &[u8], value: Option<&[u8]>) {
    let start = out.len();
    out.reserve(record_len(key, value));
    encode_entry(out, key, value);
    let crc = checksum(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

impl WalRecord {
    /// Serialized size of this record in bytes.
    pub fn encoded_len(&self) -> usize {
        record_len(&self.key, self.value.as_deref())
    }

    /// Decodes one record off the front of `buf`. Returns the record and its
    /// encoded size, or `None` when the bytes are incomplete **or fail the
    /// checksum** — the caller treats either as the (torn) end of the log.
    fn decode(buf: &[u8]) -> Option<(WalRecord, usize)> {
        let ((key, value), body) = decode_entry(buf)?;
        let stored = u32::from_le_bytes(buf.get(body..body + 4)?.try_into().ok()?);
        if checksum(&buf[..body]) != stored {
            return None;
        }
        Some((WalRecord { key: key.to_vec(), value: value.map(<[u8]>::to_vec) }, body + 4))
    }
}

/// Parses `buf` front to back; returns every valid record and the byte
/// length of the valid prefix.
fn parse_valid_prefix(buf: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut out = Vec::new();
    let mut pos = 0;
    while let Some((rec, used)) = WalRecord::decode(&buf[pos..]) {
        out.push(rec);
        pos += used;
    }
    (out, pos)
}

/// An append-only write-ahead log on one file.
pub struct Wal {
    fs: Arc<dyn FileSystem>,
    path: String,
    fd: Fd,
    offset: u64,
    torn_tails_truncated: u64,
    /// Encoding buffer reused by every append.
    scratch: Vec<u8>,
}

impl Wal {
    /// Opens (creating if necessary) the WAL at `path`.
    ///
    /// The log is validated front to back; a torn tail (incomplete or
    /// checksum-failing final record, the signature of a crash mid-append)
    /// is truncated away so the log ends at its last whole record and new
    /// appends continue from there.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn open(fs: Arc<dyn FileSystem>, path: &str) -> FsResult<Self> {
        let fd = fs.open(path, OpenFlags::create_rw())?;
        let size = fs.fstat(fd)?.size;
        let buf = fs.read(fd, 0, size as usize)?;
        let (_, valid) = parse_valid_prefix(&buf);
        let valid = valid as u64;
        let mut torn_tails_truncated = 0;
        if valid < size {
            // Torn tail from a crash mid-append: recover by truncation.
            fs.truncate(fd, valid)?;
            torn_tails_truncated = 1;
        }
        Ok(Self {
            fs,
            path: path.to_string(),
            fd,
            offset: valid,
            torn_tails_truncated,
            scratch: Vec::new(),
        })
    }

    /// Number of torn tails this WAL truncated when it was opened (0 or 1;
    /// a counter so callers can sum it across reopens).
    pub fn torn_tails_truncated(&self) -> u64 {
        self.torn_tails_truncated
    }

    /// Current size of the log in bytes.
    pub fn size(&self) -> u64 {
        self.offset
    }

    /// Appends a record of `key` and `value`, `None` for a deletion
    /// (buffered; call [`Wal::sync`] to make it durable).
    pub fn append(&mut self, key: &[u8], value: Option<&[u8]>) -> FsResult<()> {
        self.scratch.clear();
        encode_record(&mut self.scratch, key, value);
        self.fs.write(self.fd, self.offset, &self.scratch)?;
        self.offset += self.scratch.len() as u64;
        Ok(())
    }

    /// Forces appended records to the device (`fdatasync`).
    pub fn sync(&self) -> FsResult<()> {
        self.fs.fdatasync(self.fd)
    }

    /// Truncates the log after a successful memtable flush.
    pub fn reset(&mut self) -> FsResult<()> {
        self.fs.truncate(self.fd, 0)?;
        self.offset = 0;
        Ok(())
    }

    /// Replays every valid record in the log (used at open after a crash).
    /// Stops at the first invalid record — which [`Wal::open`] already
    /// truncated away, so under normal operation this reads the whole file.
    pub fn replay(&self) -> FsResult<Vec<WalRecord>> {
        let size = self.fs.fstat(self.fd)?.size as usize;
        let buf = self.fs.read(self.fd, 0, size)?;
        Ok(parse_valid_prefix(&buf).0)
    }

    /// Validates the on-device log: every byte up to the file size must
    /// parse as checksummed records. Returns the records, or a description
    /// of where validation stopped. (After [`Wal::open`]'s truncation this
    /// only fails if the file was corrupted *behind* the running WAL.)
    pub fn validate(&self) -> FsResult<Result<Vec<WalRecord>, String>> {
        let size = self.fs.fstat(self.fd)?.size as usize;
        let buf = self.fs.read(self.fd, 0, size)?;
        let (records, valid) = parse_valid_prefix(&buf);
        if valid < size {
            return Ok(Err(format!(
                "wal {}: {} trailing bytes after the last valid record (of {})",
                self.path,
                size - valid,
                size
            )));
        }
        Ok(Ok(records))
    }

    /// The WAL file path.
    pub fn path(&self) -> &str {
        &self.path
    }
}

/// The kvstore side of the shared checker API: after a crash and reopen, the
/// WAL must be entirely valid (open truncated any torn tail) and the
/// memtable must contain exactly the WAL's surviving records.
impl CrashConsistent for crate::Db {
    fn check_invariants(&self) -> Vec<Violation> {
        let mut v = Vec::new();
        let (wal_check, memtable_view) = self.wal_and_memtable_view();
        match wal_check {
            Err(e) => v.push(Violation::new("wal-tail", format!("wal unreadable: {e}"))),
            Ok(Err(detail)) => v.push(Violation::new("wal-tail", detail)),
            Ok(Ok(records)) => {
                // Replaying the WAL yields the memtable's exact contents.
                let mut replayed = crate::memtable::Memtable::new();
                for rec in &records {
                    match &rec.value {
                        Some(val) => replayed.put(&rec.key, val),
                        None => replayed.delete(&rec.key),
                    }
                }
                let replayed_view: Vec<_> =
                    replayed.range_from(&[]).map(|(k, val)| (k.clone(), val.clone())).collect();
                if replayed_view != memtable_view {
                    v.push(Violation::new(
                        "wal-tail",
                        format!(
                            "memtable holds {} entries but the WAL replays to {}",
                            memtable_view.len(),
                            replayed_view.len()
                        ),
                    ));
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfs::test_fs;

    fn encode(rec: &WalRecord) -> Vec<u8> {
        let mut out = Vec::new();
        encode_record(&mut out, &rec.key, rec.value.as_deref());
        out
    }

    #[test]
    fn record_roundtrip() {
        let rec = WalRecord { key: b"user1".to_vec(), value: Some(b"value".to_vec()) };
        let encoded = encode(&rec);
        assert_eq!(encoded.len(), rec.encoded_len());
        let (back, used) = WalRecord::decode(&encoded).unwrap();
        assert_eq!(back, rec);
        assert_eq!(used, encoded.len());
        let tomb = WalRecord { key: b"gone".to_vec(), value: None };
        let (back, _) = WalRecord::decode(&encode(&tomb)).unwrap();
        assert_eq!(back.value, None);
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let rec = WalRecord { key: b"key".to_vec(), value: Some(b"payload".to_vec()) };
        let encoded = encode(&rec);
        // Flip bits after the header: it still decodes, the checksum must not.
        for at in 9..encoded.len() {
            for flip in [0x01, 0x80, 0xFF] {
                let mut torn = encoded.clone();
                torn[at] ^= flip;
                assert!(WalRecord::decode(&torn).is_none(), "byte {at} ^ {flip:#x} went unnoticed");
            }
        }
    }

    #[test]
    fn append_sync_replay() {
        let fs = test_fs();
        let mut wal = Wal::open(Arc::clone(&fs), "/wal").unwrap();
        for i in 0..20u32 {
            let value = format!("value{i}").into_bytes();
            wal.append(format!("key{i}").as_bytes(), (i % 3 != 0).then_some(&value[..])).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.size() > 0);
        let records = wal.replay().unwrap();
        assert_eq!(records.len(), 20);
        assert_eq!(records[1].key, b"key1");
        assert_eq!(records[0].value, None);
        assert_eq!(records[1].value, Some(b"value1".to_vec()));
        assert!(wal.validate().unwrap().is_ok());
    }

    #[test]
    fn reset_truncates() {
        let fs = test_fs();
        let mut wal = Wal::open(Arc::clone(&fs), "/wal").unwrap();
        wal.append(b"k", Some(b"v")).unwrap();
        wal.sync().unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.size(), 0);
        assert!(wal.replay().unwrap().is_empty());
    }

    #[test]
    fn reopen_continues_at_the_end() {
        let fs = test_fs();
        {
            let mut wal = Wal::open(Arc::clone(&fs), "/wal").unwrap();
            wal.append(b"a", Some(b"1")).unwrap();
            wal.sync().unwrap();
        }
        let mut wal = Wal::open(Arc::clone(&fs), "/wal").unwrap();
        wal.append(b"b", Some(b"2")).unwrap();
        wal.sync().unwrap();
        let records = wal.replay().unwrap();
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn truncated_tail_is_ignored_and_removed_at_open() {
        let fs = test_fs();
        {
            let mut wal = Wal::open(Arc::clone(&fs), "/wal").unwrap();
            wal.append(b"whole", Some(b"record")).unwrap();
            wal.sync().unwrap();
            // Simulate a torn append: garbage partial header at the end.
            let fd = fs.open("/wal", fskit::OpenFlags::read_write()).unwrap();
            let size = fs.fstat(fd).unwrap().size;
            fs.write(fd, size, &[7u8; 3]).unwrap();
            assert_eq!(wal.replay().unwrap().len(), 1);
        }
        // Reopening truncates the torn bytes and appends continue cleanly.
        let whole_len =
            WalRecord { key: b"whole".to_vec(), value: Some(b"record".to_vec()) }.encoded_len();
        let mut wal = Wal::open(Arc::clone(&fs), "/wal").unwrap();
        assert_eq!(wal.size(), whole_len as u64, "torn tail truncated at open");
        assert_eq!(wal.torn_tails_truncated(), 1, "truncation recorded in the counter");
        wal.append(b"next", Some(b"rec")).unwrap();
        wal.sync().unwrap();
        let records = wal.replay().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].key, b"next");
        assert!(wal.validate().unwrap().is_ok());
    }

    #[test]
    fn torn_final_record_with_valid_header_is_rejected_by_checksum() {
        let fs = test_fs();
        let mut wal = Wal::open(Arc::clone(&fs), "/wal").unwrap();
        wal.append(b"good", Some(b"data")).unwrap();
        wal.sync().unwrap();
        let good_len = wal.size();
        wal.append(b"torn", Some(&[0xAB; 100])).unwrap();
        wal.sync().unwrap();
        // Tear the final record's payload as a mid-record crash would: the
        // header and length fields stay intact, part of the payload reverts.
        let fd = fs.open("/wal", fskit::OpenFlags::read_write()).unwrap();
        fs.write(fd, good_len + 20, &[0u8; 40]).unwrap();
        // Without the checksum this would replay a corrupt record; with it,
        // the torn record is cut off and the first record survives.
        let records = wal.replay().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].key, b"good");
        let reopened = Wal::open(Arc::clone(&fs), "/wal").unwrap();
        assert_eq!(reopened.size(), good_len, "open truncates the torn record");
        assert_eq!(reopened.torn_tails_truncated(), 1, "truncation recorded in the counter");
    }
}
