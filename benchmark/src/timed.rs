//! A [`FileSystem`] decorator that times every call into the file system on
//! both clocks, from outside the program.
//!
//! Each call forwards to the same inner method the undecorated run would
//! reach (`append` and `exists` included), so the device sees an identical
//! command stream traced or not.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fskit::{DirEntry, Fd, FileSystem, FsResult, Metadata, OpenFlags};
use mssd::{Clock, Mssd};

/// The file-system operations reported one by one; everything else
/// (`mkdir`, `readdir`, `sync`, ...) is booked under `other`.
pub const FS_OPS: [&str; 9] =
    ["open", "create", "read", "write", "fsync", "close", "unlink", "stat", "other"];

const OPEN: usize = 0;
const CREATE: usize = 1;
const READ: usize = 2;
const WRITE: usize = 3;
const FSYNC: usize = 4;
const CLOSE: usize = 5;
const UNLINK: usize = 6;
const STAT: usize = 7;
const OTHER: usize = 8;

/// Calls, wall time and virtual time of one operation kind.
#[derive(Debug, Default)]
pub struct OpTotals {
    /// Calls made.
    pub calls: AtomicU64,
    /// Wall nanoseconds spent inside the calls.
    pub wall_ns: AtomicU64,
    /// Virtual nanoseconds that elapsed inside the calls.
    pub virt_ns: AtomicU64,
}

/// Times every call into `inner`.
pub struct TimedFs {
    inner: Arc<dyn FileSystem>,
    clock: Arc<Clock>,
    /// Per-operation totals, indexed like [`FS_OPS`].
    pub ops: [OpTotals; FS_OPS.len()],
    /// Bytes returned by `read` calls.
    pub read_bytes: AtomicU64,
}

impl TimedFs {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn FileSystem>) -> Arc<Self> {
        let clock = inner.clock();
        Arc::new(Self { inner, clock, ops: Default::default(), read_bytes: AtomicU64::new(0) })
    }

    /// Zeroes every total (the measured phase starts after set-up).
    pub fn reset(&self) {
        for o in &self.ops {
            o.calls.store(0, Ordering::Relaxed);
            o.wall_ns.store(0, Ordering::Relaxed);
            o.virt_ns.store(0, Ordering::Relaxed);
        }
        self.read_bytes.store(0, Ordering::Relaxed);
    }

    /// Wall nanoseconds spent in all calls so far.
    pub fn total_wall_ns(&self) -> u64 {
        self.ops.iter().map(|o| o.wall_ns.load(Ordering::Relaxed)).sum()
    }

    /// Virtual nanoseconds elapsed in all calls so far.
    pub fn total_virt_ns(&self) -> u64 {
        self.ops.iter().map(|o| o.virt_ns.load(Ordering::Relaxed)).sum()
    }

    fn timed<T>(&self, op: usize, f: impl FnOnce(&dyn FileSystem) -> T) -> T {
        let wall0 = Instant::now();
        let virt0 = self.clock.now_ns();
        let out = f(self.inner.as_ref());
        let totals = &self.ops[op];
        totals.calls.fetch_add(1, Ordering::Relaxed);
        totals.wall_ns.fetch_add(wall0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        totals.virt_ns.fetch_add(self.clock.now_ns() - virt0, Ordering::Relaxed);
        out
    }
}

impl FileSystem for TimedFs {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn device(&self) -> &Arc<Mssd> {
        self.inner.device()
    }

    fn create(&self, path: &str) -> FsResult<Fd> {
        self.timed(CREATE, |fs| fs.create(path))
    }

    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        self.timed(OPEN, |fs| fs.open(path, flags))
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        self.timed(CLOSE, |fs| fs.close(fd))
    }

    fn read(&self, fd: Fd, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let out = self.timed(READ, |fs| fs.read(fd, offset, len));
        if let Ok(data) = &out {
            self.read_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        out
    }

    fn write(&self, fd: Fd, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.timed(WRITE, |fs| fs.write(fd, offset, data))
    }

    fn append(&self, fd: Fd, data: &[u8]) -> FsResult<usize> {
        self.timed(WRITE, |fs| fs.append(fd, data))
    }

    fn fsync(&self, fd: Fd) -> FsResult<()> {
        self.timed(FSYNC, |fs| fs.fsync(fd))
    }

    fn fdatasync(&self, fd: Fd) -> FsResult<()> {
        self.timed(FSYNC, |fs| fs.fdatasync(fd))
    }

    fn truncate(&self, fd: Fd, size: u64) -> FsResult<()> {
        self.timed(OTHER, |fs| fs.truncate(fd, size))
    }

    fn fstat(&self, fd: Fd) -> FsResult<Metadata> {
        self.timed(STAT, |fs| fs.fstat(fd))
    }

    fn stat(&self, path: &str) -> FsResult<Metadata> {
        self.timed(STAT, |fs| fs.stat(path))
    }

    fn exists(&self, path: &str) -> bool {
        self.timed(STAT, |fs| fs.exists(path))
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        self.timed(OTHER, |fs| fs.mkdir(path))
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.timed(OTHER, |fs| fs.rmdir(path))
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        self.timed(UNLINK, |fs| fs.unlink(path))
    }

    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        self.timed(OTHER, |fs| fs.rename(from, to))
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        self.timed(OTHER, |fs| fs.readdir(path))
    }

    fn sync(&self) -> FsResult<()> {
        self.timed(OTHER, |fs| fs.sync())
    }

    fn drop_caches(&self) {
        self.inner.drop_caches();
    }

    fn unmount(&self) -> FsResult<()> {
        self.timed(OTHER, |fs| fs.unmount())
    }
}
