//! The stack under test, built fresh for every repetition, and the
//! measurements and checks shared by the workloads.

use std::sync::Arc;
use std::time::Instant;

use bytefs::{ByteFs, ByteFsConfig};
use fskit::FileSystem;
use mssd::stats::Direction;
use mssd::{CrashImage, Mssd, TraceKind, TrafficCounter};
use workloads::FsKind;

use crate::alloc;
use crate::measure::Rep;
use crate::probe::{Drainer, Probe, SharedProbe};
use crate::timed::{TimedFs, FS_OPS};

/// ByteFS on the M-SSD model with the figure harness's device config.
pub struct FsStack {
    /// The device.
    pub device: Arc<Mssd>,
    /// The file system the workload drives (the timed decorator when traced).
    pub fs: Arc<dyn FileSystem>,
    /// The timing decorator, when traced.
    pub timed: Option<Arc<TimedFs>>,
}

impl FsStack {
    /// Formats a fresh device with full ByteFS.
    pub fn format(traced: bool) -> Self {
        let (device, inner) = FsKind::ByteFs.build(bench::bench_config());
        let timed = traced.then(|| TimedFs::new(Arc::clone(&inner)));
        let fs = match &timed {
            Some(t) => Arc::clone(t) as Arc<dyn FileSystem>,
            None => inner,
        };
        Self { device, fs, timed }
    }
}

/// Times the set-up phase: wall seconds and the calling thread's
/// allocation calls.
pub struct SetupTimer {
    wall0: Instant,
    allocs0: u64,
}

impl SetupTimer {
    /// Starts timing, before the device is formatted.
    pub fn start() -> Self {
        Self { wall0: Instant::now(), allocs0: alloc::thread_counts().0 }
    }

    /// Ends the set-up phase.
    pub fn finish(self, rep: &mut Rep) {
        rep.setup_s = self.wall0.elapsed().as_secs_f64();
        rep.setup_allocs = alloc::thread_counts().0 - self.allocs0;
    }
}

/// Brackets the measured phase: traffic, virtual time, wall time and the
/// opening thread's allocations at its start, plus the trace drainer when
/// traced.
pub struct Window {
    /// Traffic at the start of the measured phase.
    pub traffic0: TrafficCounter,
    virt0: u64,
    wall0: Instant,
    allocs0: (u64, u64),
    drainer: Option<Drainer>,
    /// What the trace drainer gathered (traced repetitions, after `close`).
    pub probe: Option<Probe>,
}

impl Window {
    /// Starts the measured phase once the log cleaner is idle; turns device
    /// tracing on when traced. With no other thread emitting, the traffic
    /// snapshot and the first traced event bracket the same work.
    pub fn open(device: &Arc<Mssd>, traced: bool) -> Self {
        device.quiesce_cleaning();
        let traffic0 = device.traffic();
        device.set_tracing(traced);
        let drainer = traced.then(|| Drainer::start(Arc::clone(device)));
        Self {
            traffic0,
            virt0: device.clock().now_ns(),
            wall0: Instant::now(),
            allocs0: alloc::thread_counts(),
            drainer,
            probe: None,
        }
    }

    /// The probe the drainer thread drains into (traced repetitions), for
    /// a workload that also drains from the thread that emits.
    pub fn shared_probe(&self) -> Option<Arc<SharedProbe>> {
        self.drainer.as_ref().map(Drainer::probe)
    }

    /// Ends the measured phase: records wall and virtual time and the
    /// calling thread's allocations, waits for the log cleaner to finish the
    /// work the phase gave it, turns tracing off, drains a last time, and
    /// returns the phase's traffic delta, cleaning included. Call it from
    /// the thread that opened the window.
    pub fn close(&mut self, device: &Mssd, rep: &mut Rep) -> TrafficCounter {
        let (allocs, bytes) = alloc::thread_counts();
        rep.allocs = allocs - self.allocs0.0;
        rep.alloc_bytes = bytes - self.allocs0.1;
        rep.wall_s = self.wall0.elapsed().as_secs_f64();
        rep.virt_ns = device.clock().now_ns() - self.virt0;
        device.quiesce_cleaning();
        device.set_tracing(false);
        self.probe = self.drainer.take().map(Drainer::finish);
        let delta = device.traffic().delta_since(&self.traffic0);
        rep.host_write_bytes = delta.host_write_bytes();
        delta
    }
}

/// Per-layer device metrics of the measured phase, from the exact counters.
pub fn device_layers(rep: &mut Rep, device: &Mssd, d: &TrafficCounter) {
    rep.counter("mssd.device.byte_requests", d.byte_requests);
    rep.counter("mssd.device.block_requests", d.block_requests);
    rep.counter("mssd.device.host_write_bytes.meta", d.host_metadata_bytes(Direction::Write));
    rep.counter("mssd.device.host_write_bytes.data", d.host_data_bytes(Direction::Write));
    rep.counter("mssd.device.host_read_bytes", d.host_read_bytes());
    rep.counter("mssd.device.busy_virt_ns", d.device_busy_ns);
    rep.counter("mssd.log.cleanings", d.log_cleanings);
    rep.counter("mssd.log.fg_stalls", d.log_fg_stalls);
    rep.counter("mssd.log.bg_cleaned_pages", d.log_bg_cleaned_pages);
    rep.counter("mssd.log.used_bytes_end", device.snapshot().log_used_bytes as u64);
    rep.counter("mssd.txn.commits", d.tx_commits);
    rep.counter("mssd.flash.read_pages", d.flash_read_pages + d.flash_internal_read_pages);
    rep.counter("mssd.flash.write_pages", d.flash_write_pages + d.flash_internal_write_pages);
    rep.counter("mssd.flash.erase_blocks", d.flash_erase_blocks);
    rep.counter("mssd.flash.internal_write_pages", d.flash_internal_write_pages);
    let ops = d.queue_ops_total();
    let lat: u64 = d.queues.values().map(|q| q.lat_total_ns).sum();
    // Slot 0 is the depth-1 synchronous shim: it rings no doorbells.
    let (doorbell_cmds, doorbells) = d
        .queues
        .iter()
        .filter(|(id, _)| **id != 0)
        .fold((0, 0), |(c, b), (_, q)| (c + q.ops, b + q.batches));
    rep.counter("mssd.queue.ops", ops);
    rep.layer("mssd.queue.avg_lat_virt_ns", ratio(lat, ops));
    rep.layer(
        "mssd.queue.max_lat_virt_ns",
        d.queues.values().map(|q| q.lat_max_ns).max().unwrap_or(0) as f64,
    );
    rep.layer("mssd.queue.cmds_per_doorbell", ratio(doorbell_cmds, doorbells));
    rep.counter("mssd.reactor.spurious_wakeups", d.exec_spurious_wakeups);
    rep.counter("mssd.reactor.productive_wakeups", d.exec_productive_wakeups);
    rep.counter("mssd.ras.retries", d.retries + d.ras_read_retries);
    rep.counter("mssd.ras.timeouts", d.hang_timeouts);
    rep.counter("mssd.ras.aborts", d.aborts);
}

/// The trace kinds the device emits from inside a counter's increment, one
/// event per count, with that count over the traced window `d`.
fn counted_kinds(d: &TrafficCounter) -> [(TraceKind, u64); 9] {
    [
        (TraceKind::FlashRead, d.flash_read_pages + d.flash_internal_read_pages),
        (TraceKind::FlashProgram, d.flash_write_pages + d.flash_internal_write_pages),
        (TraceKind::LogDrain, d.log_cleanings),
        (TraceKind::EccRetry, d.ras_read_retries),
        (TraceKind::BadBlockRetire, d.ras_retired_blocks),
        (TraceKind::DeadlineTimeout, d.hang_timeouts),
        (TraceKind::Abort, d.aborts),
        (TraceKind::LaneReset, d.lane_resets),
        (TraceKind::RetryBackoff, d.retries),
    ]
}

/// Per-layer metrics taken from the drained trace (traced repetitions),
/// and the check that no event they are read from was lost.
///
/// `trace.dropped_events` counts every event the rings overwrote before a
/// drain. Each lost event of a counted kind is a count the seen events fall
/// short of the window's counter `d`; whatever is lost beyond those is
/// `trace.dropped_uncounted_events`, the loss of the kinds the trace-derived
/// metrics read (coalescing, GC victims, parks and wakes). That must be 0.
pub fn trace_layers(rep: &mut Rep, probe: &Probe, d: &TrafficCounter) {
    let t = &probe.totals;
    rep.layer("mssd.log.coalesce_ratio", ratio(t.coalesce_absorbed, t.coalesce_events));
    rep.layer("mssd.ftl.gc_victims", t.gc_victims as f64);
    rep.layer("mssd.reactor.parks", t.parks as f64);
    rep.layer("mssd.reactor.wakes", t.wakes as f64);
    rep.layer("mssd.reactor.park_wall_ns", t.park_wall_ns as f64);
    rep.layer("trace.dropped_events", t.dropped as f64);
    let mut lost_counted = 0i64;
    for (kind, count) in counted_kinds(d) {
        let seen = t.seen.get(&kind).copied().unwrap_or(0);
        if seen > count {
            rep.fail(format!(
                "trace: {seen} {} events seen, the counter counted {count}",
                kind.name()
            ));
        }
        lost_counted += count as i64 - seen as i64;
    }
    let uncounted = t.dropped as i64 - lost_counted;
    if uncounted != 0 {
        rep.fail(format!(
            "trace: {} events lost, {lost_counted} of them of counted kinds; the trace-derived metrics are off by the other {uncounted}",
            t.dropped
        ));
    }
    rep.layer("trace.dropped_uncounted_events", uncounted as f64);
}

/// Per-layer file-system metrics from the timing decorator.
pub fn fs_layers(rep: &mut Rep, timed: &TimedFs, fs_read_bytes_from_device: u64) {
    for (name, totals) in FS_OPS.iter().zip(&timed.ops) {
        let load =
            |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed) as f64;
        rep.layer(&format!("bytefs.{name}.calls"), load(&totals.calls));
        rep.layer(&format!("bytefs.{name}.wall_ns"), load(&totals.wall_ns));
        rep.layer(&format!("bytefs.{name}.virt_ns"), load(&totals.virt_ns));
    }
    let busy = rep.layers.get("mssd.device.busy_virt_ns").copied().unwrap_or(0.0);
    rep.layer("bytefs.self_virt_ns", timed.total_virt_ns() as f64 - busy);
    let returned = timed.read_bytes.load(std::sync::atomic::Ordering::Relaxed);
    rep.layer("fskit.pagecache.device_read_ratio", ratio(fs_read_bytes_from_device, returned));
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Unmounts, remounts and checks the volume: `ByteFs::fsck` and
/// `Mssd::check_consistency` must both come back empty. Then records the NAND
/// bytes programmed since the measured phase began (the unmount drains the
/// write log) and the digest of the device's durable state. Returns the
/// remounted file system.
pub fn unmount_and_check(
    rep: &mut Rep,
    device: &Arc<Mssd>,
    fs: &dyn FileSystem,
    traffic0: &TrafficCounter,
) -> Option<Arc<ByteFs>> {
    if let Err(e) = fs.unmount() {
        rep.fail(format!("unmount: {e}"));
        return None;
    }
    device.quiesce_cleaning();
    let flash = device.traffic().delta_since(traffic0);
    rep.flash_write_bytes = flash.flash_write_bytes(device.page_size());
    let remounted = match ByteFs::mount(Arc::clone(device), ByteFsConfig::full()) {
        Ok(fs) => fs,
        Err(e) => {
            rep.fail(format!("remount: {e}"));
            return None;
        }
    };
    for v in remounted.fsck() {
        rep.fail(format!("fsck: {v}"));
    }
    device.quiesce_cleaning();
    for v in device.check_consistency() {
        rep.fail(format!("device consistency: {v}"));
    }
    rep.digest = device.crash_image().digest();
    Some(remounted)
}

/// Digest of the durable content of `image` that does not depend on the
/// order in which concurrent clients' commands reached the device: the
/// flash, buffer and cache pages by address, the log entries' payloads by
/// address, and the committed transactions as a set.
pub fn content_digest(image: &CrashImage) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for set in [&image.flash_pages, &image.buffered_pages, &image.cache_pages] {
        eat(&(set.len() as u64).to_le_bytes());
        for (lpa, data) in set.iter() {
            eat(&lpa.to_le_bytes());
            eat(data);
        }
    }
    let mut entries: Vec<_> = image
        .log_entries
        .iter()
        .map(|e| (e.lpa, e.offset, e.txid.map(|t| t.0), e.data.as_slice()))
        .collect();
    entries.sort_unstable();
    eat(&(entries.len() as u64).to_le_bytes());
    for (lpa, offset, txid, data) in entries {
        eat(&lpa.to_le_bytes());
        eat(&(offset as u64).to_le_bytes());
        eat(&txid.unwrap_or(0).to_le_bytes());
        eat(data);
    }
    let mut txlog: Vec<u32> = image.txlog.iter().map(|t| t.0).collect();
    txlog.sort_unstable();
    for tx in txlog {
        eat(&tx.to_le_bytes());
    }
    h
}
