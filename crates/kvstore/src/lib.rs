//! # kvstore — a small LSM-tree key-value store over any `fskit::FileSystem`
//!
//! The ByteFS paper evaluates real-application behaviour with YCSB running on
//! RocksDB (§5.1, Table 5). RocksDB itself is out of scope for this
//! reproduction, so this crate provides the closest structural equivalent that
//! exercises the same file-system access pattern:
//!
//! * a **write-ahead log** that receives small appends and periodic `fsync`s,
//! * an in-memory **memtable** flushed to immutable, sorted **SSTables**,
//! * tiered **compaction** that rewrites SSTables with large sequential I/O,
//! * point lookups that read one index segment of an SSTable file, and range
//!   scans that seek each table through its sparse index and stream it
//!   segment by segment, merging the tables and the memtable newest-first
//!   and stopping at the last row they return.
//!
//! The store is generic over [`fskit::FileSystem`], so the same YCSB workload
//! runs unmodified on ByteFS and every baseline.
//!
//! ```
//! use kvstore::{Db, DbOptions};
//! use bytefs::{ByteFs, ByteFsConfig};
//! use mssd::{Mssd, MssdConfig, DramMode};
//!
//! # fn main() -> fskit::FsResult<()> {
//! let device = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
//! let fs = ByteFs::format(device, ByteFsConfig::default())?;
//! let db = Db::open(fs, "/db", DbOptions::default())?;
//! db.put(b"user42", b"profile-data")?;
//! assert_eq!(db.get(b"user42")?, Some(b"profile-data".to_vec()));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod db;
pub mod memtable;
mod merge;
pub mod sstable;
#[cfg(test)]
mod testfs;
pub mod wal;

pub use db::{Db, DbOptions, DbStats, WalSync};
