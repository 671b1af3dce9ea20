//! `ycsb-e`: YCSB workload E (95% range scans of 1..=50 rows, 5% inserts)
//! through the `kvstore` LSM store on ByteFS. Every scan is checked against
//! an in-benchmark `BTreeMap` model of the keys, and after the remount the
//! reopened store must hold exactly the model.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use fskit::{FileSystem, FsResult};
use kvstore::{Db, DbOptions, DbStats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workloads::{OpClass, Recorder};

use crate::measure::{Lat, Rep};
use crate::stack::{
    device_layers, fs_layers, ratio, trace_layers, unmount_and_check, FsStack, SetupTimer, Window,
};

/// Records loaded before the measured phase.
pub const RECORDS: usize = 1_000;
/// Measured operations.
pub const OPERATIONS: usize = 2_000;
/// Value bytes per record (YCSB's 1,000).
pub const VALUE_SIZE: usize = 1_000;
/// Longest scan, in rows.
pub const MAX_SCAN: usize = 50;
/// One operation in each block of this many is an insert, at a seeded
/// position: exactly YCSB-E's 5%, so the insert count does not vary with
/// the seed.
const INSERT_EVERY: usize = 20;

/// Bytes of key-value data after the load phase.
pub fn working_set_bytes() -> u64 {
    (RECORDS * (VALUE_SIZE + key(0).len())) as u64
}

fn key(i: usize) -> Vec<u8> {
    format!("user{i:012}").into_bytes()
}

fn value(rng: &mut SmallRng) -> Vec<u8> {
    let mut v = vec![0u8; VALUE_SIZE];
    rng.fill(&mut v[..]);
    v
}

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// Wall and byte totals of the calls into `Db` (traced repetitions).
#[derive(Default)]
struct DbTimes {
    scan_wall_ns: u64,
    scan_fs_wall_ns: u64,
    fs_read_bytes: u64,
    returned_bytes: u64,
    virt_ns: u64,
}

fn stats_delta(now: DbStats, then: DbStats) -> [(&'static str, u64); 3] {
    [
        ("kvstore.scan.calls", now.scans - then.scans),
        ("kvstore.flushes", now.flushes - then.flushes),
        ("kvstore.compactions", now.compactions - then.compactions),
    ]
}

/// One repetition: format, load, measure, then remount and check.
pub fn run(seed: u64, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let setup = SetupTimer::start();
    let stack = FsStack::format(traced);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut model = Model::new();
    let load = (|| -> FsResult<Db> {
        let db = Db::open(Arc::clone(&stack.fs), "/ycsb", DbOptions::default())?;
        for i in 0..RECORDS {
            let v = value(&mut rng);
            db.put(&key(i), &v)?;
            model.insert(key(i), v);
        }
        db.flush()?;
        // Start from an empty write log, so NAND programs count only what
        // the measured phase wrote.
        stack.device.force_clean();
        Ok(db)
    })();
    let db = match load {
        Ok(db) => db,
        Err(e) => {
            rep.attempted = 1;
            rep.fail(format!("load: {e}"));
            return rep;
        }
    };
    setup.finish(&mut rep);

    if let Some(t) = &stack.timed {
        t.reset();
    }
    let device = &stack.device;
    let clock = device.clock();
    let stats0 = db.stats();
    let mut times = DbTimes::default();
    let mut rec = Recorder::new();
    let mut win = Window::open(device, traced);
    let mut inserted = 0;
    let mut insert_at = 0;
    for i in 0..OPERATIONS {
        rep.attempted += 1;
        if i % INSERT_EVERY == 0 {
            insert_at = i + rng.gen_range(0..INSERT_EVERY);
        }
        let (fs_wall0, fs_read0) = stack
            .timed
            .as_ref()
            .map_or((0, 0), |t| (t.total_wall_ns(), t.read_bytes.load(Ordering::Relaxed)));
        let virt0 = clock.now_ns();
        let wall0 = Instant::now();
        if i == insert_at {
            let k = key(RECORDS + inserted);
            inserted += 1;
            let v = value(&mut rng);
            let sw = rec.start(&clock);
            let res = db.put(&k, &v);
            times.virt_ns += clock.now_ns() - virt0;
            rec.finish(&clock, sw, OpClass::Write, v.len());
            match res {
                Ok(()) => {
                    model.insert(k, v);
                }
                Err(e) => rep.fail(format!("insert: {e}")),
            }
        } else {
            let start = key(rng.gen_range(0..RECORDS));
            let len = rng.gen_range(1..=MAX_SCAN);
            let sw = rec.start(&clock);
            let res = db.scan(&start, len);
            times.virt_ns += clock.now_ns() - virt0;
            times.scan_wall_ns += wall0.elapsed().as_nanos() as u64;
            let returned =
                res.as_ref().map_or(0, |rows| rows.iter().map(|(k, v)| k.len() + v.len()).sum());
            rec.finish(&clock, sw, OpClass::Read, returned);
            times.returned_bytes += returned as u64;
            match res {
                Ok(rows) => {
                    let expected = model.range(start.clone()..).take(len);
                    if !rows.iter().map(|(k, v)| (k, v)).eq(expected) {
                        rep.fail(format!(
                            "scan from {} of {len} rows disagrees with the model",
                            String::from_utf8_lossy(&start)
                        ));
                    }
                }
                Err(e) => rep.fail(format!("scan: {e}")),
            }
            if let Some(t) = &stack.timed {
                times.scan_fs_wall_ns += t.total_wall_ns() - fs_wall0;
            }
        }
        if let Some(t) = &stack.timed {
            times.fs_read_bytes += t.read_bytes.load(Ordering::Relaxed) - fs_read0;
        }
    }
    // The last operation makes the measured phase's inserts durable, so
    // write amplification counts every byte they cost.
    rep.attempted += 1;
    let sw = rec.start(&clock);
    let res = db.flush().and_then(|()| stack.fs.sync());
    rec.finish(&clock, sw, OpClass::Write, 0);
    if let Err(e) = res {
        rep.fail(format!("flush: {e}"));
    }
    let delta = win.close(device, &mut rep);
    rep.ops = rec.ops;
    rep.app_write_bytes = rec.app_write_bytes;
    rep.vlat = Lat::of(&rec.read_stats());
    device_layers(&mut rep, device, &delta);
    for (name, v) in stats_delta(db.stats(), stats0) {
        rep.counter(name, v);
    }
    if let (Some(timed), Some(probe)) = (&stack.timed, &win.probe) {
        fs_layers(&mut rep, timed, delta.host_read_bytes());
        trace_layers(&mut rep, probe, &delta);
        rep.layer("kvstore.scan.wall_ns", times.scan_wall_ns as f64);
        rep.layer(
            "kvstore.scan.self_wall_ns",
            times.scan_wall_ns.saturating_sub(times.scan_fs_wall_ns) as f64,
        );
        rep.layer(
            "kvstore.read_bytes_per_returned_byte",
            ratio(times.fs_read_bytes, times.returned_bytes),
        );
        rep.layer("workloads.host_cpu_virt_ns", rep.virt_ns.saturating_sub(times.virt_ns) as f64);
    }

    if let Err(e) = db.close() {
        rep.fail(format!("close: {e}"));
    }
    drop(db);
    if let Some(remounted) = unmount_and_check(&mut rep, device, stack.fs.as_ref(), &win.traffic0) {
        check_reopened(&mut rep, remounted, &model);
    }
    rep.seal_exact();
    rep
}

/// Reopens the store on the remounted volume and requires it to hold
/// exactly the model.
fn check_reopened(rep: &mut Rep, fs: Arc<bytefs::ByteFs>, model: &Model) {
    let fs: Arc<dyn FileSystem> = fs;
    let rows = Db::open(fs, "/ycsb", DbOptions::default()).and_then(|db| db.scan(b"", usize::MAX));
    match rows {
        Ok(rows) => {
            if !rows.iter().map(|(k, v)| (k, v)).eq(model.iter()) {
                rep.fail(format!(
                    "reopened store holds {} rows, the model {}; or their contents differ",
                    rows.len(),
                    model.len()
                ));
            }
        }
        Err(e) => rep.fail(format!("reopen: {e}")),
    }
}
