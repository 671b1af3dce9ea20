//! Model-based test: [`PageCache`] and [`ShardedPageCache`] against a naive
//! reference that keeps its pages in a `HashMap` and answers every per-inode
//! operation with a full scan, as the cache itself once did. The reference's
//! `write_with_fallback` installs the page and writes it before making room,
//! so the write cannot evict its own page.
//!
//! Seeded random sequences drive both through the same operations on a small
//! key space with a small capacity, so eviction, dirty-page protection and
//! the CoW originals are exercised constantly. After every step the returned
//! values must be equal (the same pages, in the same order, with the same
//! originals), and so must `len`, `dirty_count`, `dirty_inodes` and
//! `contains` for every key.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{DirtyPage, PageCache, PageKey, PageRef, ShardedPageCache};

/// Small pages keep the test fast; nothing in the cache depends on 4 KiB.
const PS: usize = 64;
const INODES: u64 = 4;
const INDEXES: u64 = 8;
const SEEDS: u64 = 48;
const STEPS: usize = 400;

#[derive(Debug, Clone)]
struct RefPage {
    data: Arc<Vec<u8>>,
    dirty: bool,
    original: Option<Arc<Vec<u8>>>,
    last_use: u64,
}

/// The reference page cache: one `HashMap`, full scans, sorted keys.
#[derive(Debug)]
struct RefCache {
    page_size: usize,
    capacity_pages: usize,
    track_cow: bool,
    pages: HashMap<PageKey, RefPage>,
    tick: u64,
}

impl RefCache {
    fn new(capacity_pages: usize, page_size: usize, track_cow: bool) -> Self {
        Self {
            page_size,
            capacity_pages: capacity_pages.max(1),
            track_cow,
            pages: HashMap::new(),
            tick: 0,
        }
    }

    fn len(&self) -> usize {
        self.pages.len()
    }

    fn dirty_count(&self) -> usize {
        self.pages.values().filter(|p| p.dirty).count()
    }

    fn contains(&self, inode: u64, index: u64) -> bool {
        self.pages.contains_key(&(inode, index))
    }

    fn get(&mut self, inode: u64, index: u64) -> Option<PageRef> {
        let key = (inode, index);
        if self.pages.contains_key(&key) {
            self.tick += 1;
            let tick = self.tick;
            let p = self.pages.get_mut(&key).unwrap();
            p.last_use = tick;
            Some(PageRef(Arc::clone(&p.data)))
        } else {
            None
        }
    }

    fn insert_clean(&mut self, inode: u64, index: u64, data: Vec<u8>) {
        self.tick += 1;
        let entry =
            RefPage { data: Arc::new(data), dirty: false, original: None, last_use: self.tick };
        match self.pages.get_mut(&(inode, index)) {
            Some(existing) if existing.dirty => {}
            Some(existing) => *existing = entry,
            None => {
                self.pages.insert((inode, index), entry);
                self.evict_clean();
            }
        }
    }

    fn write(&mut self, inode: u64, index: u64, offset: usize, bytes: &[u8]) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let track_cow = self.track_cow;
        match self.pages.get_mut(&(inode, index)) {
            Some(p) => {
                if track_cow && !p.dirty && p.original.is_none() {
                    p.original = Some(Arc::clone(&p.data));
                }
                let buf = Arc::make_mut(&mut p.data);
                buf[offset..offset + bytes.len()].copy_from_slice(bytes);
                p.dirty = true;
                p.last_use = tick;
                true
            }
            None => false,
        }
    }

    fn write_full_page(&mut self, inode: u64, index: u64, data: Vec<u8>) {
        if !self.write(inode, index, 0, &data) {
            self.insert_new_dirty(inode, index, data);
        }
    }

    fn write_with_fallback(&mut self, ino: u64, idx: u64, off: usize, bytes: &[u8], base: Vec<u8>) {
        if !self.write(ino, idx, off, bytes) {
            self.tick += 1;
            let entry =
                RefPage { data: Arc::new(base), dirty: false, original: None, last_use: self.tick };
            self.pages.insert((ino, idx), entry);
            assert!(self.write(ino, idx, off, bytes));
            self.evict_clean();
        }
    }

    fn insert_new_dirty(&mut self, inode: u64, index: u64, data: Vec<u8>) {
        self.tick += 1;
        let original =
            if self.track_cow { Some(Arc::new(vec![0u8; self.page_size])) } else { None };
        self.pages.insert(
            (inode, index),
            RefPage { data: Arc::new(data), dirty: true, original, last_use: self.tick },
        );
        self.evict_clean();
    }

    fn take_dirty(&mut self, inode: u64) -> Vec<DirtyPage> {
        let mut keys: Vec<PageKey> = self
            .pages
            .iter()
            .filter(|((ino, _), p)| *ino == inode && p.dirty)
            .map(|(k, _)| *k)
            .collect();
        keys.sort_unstable();
        self.take_keys(&keys)
    }

    fn dirty_inodes(&self) -> BTreeSet<u64> {
        self.pages.iter().filter(|(_, p)| p.dirty).map(|((ino, _), _)| *ino).collect()
    }

    fn take_all_dirty(&mut self) -> Vec<DirtyPage> {
        let mut keys: Vec<PageKey> =
            self.pages.iter().filter(|(_, p)| p.dirty).map(|(k, _)| *k).collect();
        keys.sort_unstable();
        self.take_keys(&keys)
    }

    fn take_keys(&mut self, keys: &[PageKey]) -> Vec<DirtyPage> {
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            if let Some(p) = self.pages.get_mut(key) {
                p.dirty = false;
                let original = p.original.take();
                out.push(DirtyPage {
                    inode: key.0,
                    index: key.1,
                    data: PageRef(Arc::clone(&p.data)),
                    original: original.map(PageRef),
                });
            }
        }
        out
    }

    fn invalidate_inode(&mut self, inode: u64) {
        self.pages.retain(|(ino, _), _| *ino != inode);
    }

    fn invalidate_from(&mut self, inode: u64, from_index: u64) {
        self.pages.retain(|(ino, idx), _| *ino != inode || *idx < from_index);
    }

    fn clear(&mut self) {
        self.pages.clear();
    }

    fn evict_clean(&mut self) {
        while self.pages.len() > self.capacity_pages {
            let victim = self
                .pages
                .iter()
                .filter(|(_, p)| !p.dirty)
                .min_by_key(|(_, p)| p.last_use)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    self.pages.remove(&k);
                }
                None => break,
            }
        }
    }
}

/// The reference sharded cache: the same page hash, every per-inode
/// operation run on every shard, results sorted by key. With one shard it is
/// the reference for a plain [`PageCache`].
#[derive(Debug)]
struct RefSharded {
    shards: Vec<RefCache>,
}

impl RefSharded {
    fn new(shards: usize, capacity_pages: usize, page_size: usize, track_cow: bool) -> Self {
        let per_shard = (capacity_pages / shards).max(1);
        Self {
            shards: (0..shards).map(|_| RefCache::new(per_shard, page_size, track_cow)).collect(),
        }
    }

    fn shard(&mut self, inode: u64, index: u64) -> &mut RefCache {
        let h = (inode ^ index.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let n = self.shards.len();
        &mut self.shards[(h as usize) % n]
    }

    fn take(&mut self, take: impl FnMut(&mut RefCache) -> Vec<DirtyPage>) -> Vec<DirtyPage> {
        let mut out: Vec<DirtyPage> = self.shards.iter_mut().flat_map(take).collect();
        out.sort_unstable_by_key(|dp| (dp.inode, dp.index));
        out
    }
}

fn page(rng: &mut SmallRng) -> Vec<u8> {
    let mut data = vec![0u8; PS];
    rng.fill(&mut data[..]);
    data
}

/// A random in-page write: `(offset, bytes)`.
fn patch(rng: &mut SmallRng) -> (usize, Vec<u8>) {
    let offset = rng.gen_range(0..PS);
    let mut bytes = vec![0u8; rng.gen_range(1..=PS - offset)];
    rng.fill(&mut bytes[..]);
    (offset, bytes)
}

fn key(rng: &mut SmallRng) -> PageKey {
    (rng.gen_range(0..INODES), rng.gen_range(0..INDEXES))
}

/// One step of a random sequence. `ClearClean` is drawn only for the
/// sharded cache, `TakeAllDirty` and `Clear` only for the plain one.
#[derive(Debug)]
enum Op {
    InsertClean(PageKey, Vec<u8>),
    Write(PageKey, usize, Vec<u8>),
    InsertNewDirty(PageKey, Vec<u8>),
    WriteFullPage(PageKey, Vec<u8>),
    WriteWithFallback(PageKey, usize, Vec<u8>, Vec<u8>),
    Get(PageKey),
    TakeDirty(u64),
    InvalidateInode(u64),
    /// The index may lie past the end of the key space.
    InvalidateFrom(u64, u64),
    TakeAllDirty,
    Clear,
    ClearClean,
}

fn draw(rng: &mut SmallRng, sharded: bool) -> Op {
    // Writes and inserts dominate so the cache stays full and dirty.
    loop {
        return match rng.gen_range(0..24u32) {
            0..=4 => Op::InsertClean(key(rng), page(rng)),
            5..=9 => {
                let (offset, bytes) = patch(rng);
                Op::Write(key(rng), offset, bytes)
            }
            10..=11 => Op::InsertNewDirty(key(rng), page(rng)),
            12 => Op::WriteFullPage(key(rng), page(rng)),
            13 => {
                let (offset, bytes) = patch(rng);
                Op::WriteWithFallback(key(rng), offset, bytes, page(rng))
            }
            14..=16 => Op::Get(key(rng)),
            17..=18 => Op::TakeDirty(rng.gen_range(0..INODES)),
            19 => Op::InvalidateInode(rng.gen_range(0..INODES)),
            20 => Op::InvalidateFrom(rng.gen_range(0..INODES), rng.gen_range(0..=INDEXES)),
            21 if !sharded => Op::TakeAllDirty,
            22 if !sharded => Op::Clear,
            23 if sharded => Op::ClearClean,
            _ => continue,
        };
    }
}

/// What one step returned.
#[derive(Debug, PartialEq)]
enum Outcome {
    Unit,
    Applied(bool),
    Page(Option<PageRef>),
    Pages(Vec<DirtyPage>),
}

/// Observable state after a step: `len`, `dirty_count`, `dirty_inodes` and
/// the resident keys.
type State = (usize, usize, BTreeSet<u64>, Vec<PageKey>);

fn all_keys() -> impl Iterator<Item = PageKey> {
    (0..INODES).flat_map(|ino| (0..INDEXES).map(move |idx| (ino, idx)))
}

/// A cache under test, or the reference.
trait Model {
    fn apply(&mut self, op: &Op) -> Outcome;
    fn state(&self) -> State;
}

impl Model for PageCache {
    fn apply(&mut self, op: &Op) -> Outcome {
        match op {
            Op::InsertClean((i, x), data) => self.insert_clean(*i, *x, data.clone()),
            Op::Write((i, x), off, bytes) => {
                return Outcome::Applied(self.write(*i, *x, *off, bytes))
            }
            Op::InsertNewDirty((i, x), data) => self.insert_new_dirty(*i, *x, data.clone()),
            Op::WriteFullPage((i, x), data) => self.write_full_page(*i, *x, data.clone()),
            Op::WriteWithFallback((i, x), off, bytes, base) => {
                self.write_with_fallback(*i, *x, *off, bytes, PageRef::new(base.clone()))
            }
            Op::Get((i, x)) => return Outcome::Page(self.get(*i, *x)),
            Op::TakeDirty(i) => return Outcome::Pages(self.take_dirty(*i)),
            Op::InvalidateInode(i) => self.invalidate_inode(*i),
            Op::InvalidateFrom(i, from) => self.invalidate_from(*i, *from),
            Op::TakeAllDirty => return Outcome::Pages(self.take_all_dirty()),
            Op::Clear => self.clear(),
            Op::ClearClean => unreachable!("not drawn for the plain cache"),
        }
        Outcome::Unit
    }

    fn state(&self) -> State {
        let keys = all_keys().filter(|&(i, x)| self.contains(i, x)).collect();
        (self.len(), self.dirty_count(), self.dirty_inodes(), keys)
    }
}

impl Model for ShardedPageCache {
    fn apply(&mut self, op: &Op) -> Outcome {
        match op {
            Op::InsertClean((i, x), data) => self.insert_clean(*i, *x, data.clone()),
            Op::Write((i, x), off, bytes) => {
                return Outcome::Applied(self.write(*i, *x, *off, bytes))
            }
            Op::InsertNewDirty((i, x), data) => self.insert_new_dirty(*i, *x, data.clone()),
            Op::WriteFullPage((i, x), data) => self.write_full_page(*i, *x, data.clone()),
            Op::WriteWithFallback((i, x), off, bytes, base) => {
                self.write_with_fallback(*i, *x, *off, bytes, PageRef::new(base.clone()))
            }
            Op::Get((i, x)) => return Outcome::Page(self.get(*i, *x)),
            Op::TakeDirty(i) => return Outcome::Pages(self.take_dirty(*i)),
            Op::InvalidateInode(i) => self.invalidate_inode(*i),
            Op::InvalidateFrom(i, from) => self.invalidate_from(*i, *from),
            Op::ClearClean => self.clear_clean(),
            Op::TakeAllDirty | Op::Clear => unreachable!("not drawn for the sharded cache"),
        }
        Outcome::Unit
    }

    fn state(&self) -> State {
        let keys = all_keys().filter(|&(i, x)| self.contains(i, x)).collect();
        (self.len(), self.dirty_count(), self.dirty_inodes(), keys)
    }
}

impl Model for RefSharded {
    fn apply(&mut self, op: &Op) -> Outcome {
        match op {
            Op::InsertClean((i, x), data) => self.shard(*i, *x).insert_clean(*i, *x, data.clone()),
            Op::Write((i, x), off, bytes) => {
                return Outcome::Applied(self.shard(*i, *x).write(*i, *x, *off, bytes));
            }
            Op::InsertNewDirty((i, x), data) => {
                self.shard(*i, *x).insert_new_dirty(*i, *x, data.clone())
            }
            Op::WriteFullPage((i, x), data) => {
                self.shard(*i, *x).write_full_page(*i, *x, data.clone())
            }
            Op::WriteWithFallback((i, x), off, bytes, base) => {
                self.shard(*i, *x).write_with_fallback(*i, *x, *off, bytes, base.clone())
            }
            Op::Get((i, x)) => return Outcome::Page(self.shard(*i, *x).get(*i, *x)),
            Op::TakeDirty(i) => return Outcome::Pages(self.take(|s| s.take_dirty(*i))),
            Op::TakeAllDirty => return Outcome::Pages(self.take(RefCache::take_all_dirty)),
            Op::InvalidateInode(i) => self.shards.iter_mut().for_each(|s| s.invalidate_inode(*i)),
            Op::InvalidateFrom(i, from) => {
                self.shards.iter_mut().for_each(|s| s.invalidate_from(*i, *from))
            }
            Op::Clear => self.shards.iter_mut().for_each(RefCache::clear),
            Op::ClearClean => {
                for shard in &mut self.shards {
                    if shard.dirty_count() == 0 {
                        shard.clear();
                    }
                }
            }
        }
        Outcome::Unit
    }

    fn state(&self) -> State {
        let shards = &self.shards;
        (
            shards.iter().map(RefCache::len).sum(),
            shards.iter().map(RefCache::dirty_count).sum(),
            shards.iter().flat_map(RefCache::dirty_inodes).collect(),
            all_keys().filter(|&(i, x)| shards.iter().any(|s| s.contains(i, x))).collect(),
        )
    }
}

/// Drives `cache` and `reference` through the same random sequence and
/// compares every outcome and the state after every step.
fn check(seed: u64, mut cache: impl Model, mut reference: RefSharded, sharded: bool) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for step in 0..STEPS {
        let op = draw(&mut rng, sharded);
        let expected = reference.apply(&op);
        assert_eq!(cache.apply(&op), expected, "seed {seed} step {step}: {op:?}");
        assert_eq!(cache.state(), reference.state(), "seed {seed} step {step}: {op:?}");
    }
}

#[test]
fn page_cache_matches_full_scan_reference() {
    for seed in 0..SEEDS {
        let cow = seed % 2 == 0;
        check(seed, PageCache::new(6, PS, cow), RefSharded::new(1, 6, PS, cow), false);
    }
}

#[test]
fn sharded_page_cache_matches_full_scan_reference() {
    for seed in 0..SEEDS {
        let cow = seed % 2 == 0;
        check(seed, ShardedPageCache::new(4, 12, PS, cow), RefSharded::new(4, 12, PS, cow), true);
    }
}
