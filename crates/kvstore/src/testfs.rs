//! Test helpers: a small ByteFS volume, and a [`FileSystem`] decorator that
//! counts what the store asks of the file system.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytefs::{ByteFs, ByteFsConfig};
use fskit::{DirEntry, Fd, FileSystem, FsResult, Metadata, OpenFlags};
use mssd::{DramMode, Mssd, MssdConfig};

/// A fresh ByteFS volume on a small device.
pub(crate) fn test_fs() -> Arc<dyn FileSystem> {
    let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
    ByteFs::format(dev, ByteFsConfig::default()).unwrap()
}

/// Forwards every call to `inner`, counting opens and the bytes `read`
/// returns. Unlike device traffic, this also sees reads the host page cache
/// serves.
pub(crate) struct CountingFs {
    inner: Arc<dyn FileSystem>,
    opens: AtomicU64,
    read_bytes: AtomicU64,
}

impl CountingFs {
    pub(crate) fn wrap(inner: Arc<dyn FileSystem>) -> Arc<Self> {
        Arc::new(Self { inner, opens: AtomicU64::new(0), read_bytes: AtomicU64::new(0) })
    }

    pub(crate) fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }

    pub(crate) fn read_bytes(&self) -> u64 {
        self.read_bytes.load(Ordering::Relaxed)
    }
}

impl FileSystem for CountingFs {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn device(&self) -> &Arc<Mssd> {
        self.inner.device()
    }
    fn create(&self, path: &str) -> FsResult<Fd> {
        self.inner.create(path)
    }
    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        self.opens.fetch_add(1, Ordering::Relaxed);
        self.inner.open(path, flags)
    }
    fn close(&self, fd: Fd) -> FsResult<()> {
        self.inner.close(fd)
    }
    fn read(&self, fd: Fd, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let out = self.inner.read(fd, offset, len)?;
        self.read_bytes.fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }
    fn write(&self, fd: Fd, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.inner.write(fd, offset, data)
    }
    fn fsync(&self, fd: Fd) -> FsResult<()> {
        self.inner.fsync(fd)
    }
    fn fdatasync(&self, fd: Fd) -> FsResult<()> {
        self.inner.fdatasync(fd)
    }
    fn truncate(&self, fd: Fd, size: u64) -> FsResult<()> {
        self.inner.truncate(fd, size)
    }
    fn fstat(&self, fd: Fd) -> FsResult<Metadata> {
        self.inner.fstat(fd)
    }
    fn stat(&self, path: &str) -> FsResult<Metadata> {
        self.inner.stat(path)
    }
    fn mkdir(&self, path: &str) -> FsResult<()> {
        self.inner.mkdir(path)
    }
    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.inner.rmdir(path)
    }
    fn unlink(&self, path: &str) -> FsResult<()> {
        self.inner.unlink(path)
    }
    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        self.inner.rename(from, to)
    }
    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        self.inner.readdir(path)
    }
    fn sync(&self) -> FsResult<()> {
        self.inner.sync()
    }
}
