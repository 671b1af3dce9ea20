//! `async-clients`: about a thousand closed-loop logical clients, each a
//! future issuing the `c10k` / `qd_sweep` command stream through
//! `mssd::Runtime`. ByteFS and `kvstore` are bypassed; this is the workload
//! on which `mssd::reactor` and `mssd::queue` do the work. The runtime has
//! no worker threads (see [`WORKERS`]), so it measures multiplexing, parking
//! and doorbell batching, not executor scaling.
//!
//! Every client owns a disjoint window of its lane's partition and awaits
//! each batch before building the next, so the device's final content does
//! not depend on how the executor interleaved the clients: the content
//! digest must repeat even though the command order does not.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mssd::log::PARTITION_BYTES;
use mssd::queue::Command;
use mssd::{Category, DramMode, Mssd, Runtime, TxId};
use workloads::Histogram;

use crate::measure::{Lat, Rep};
use crate::probe::SharedProbe;
use crate::stack::{content_digest, device_layers, trace_layers, SetupTimer, Window};

/// Logical clients.
pub const CLIENTS: usize = 1_000;
/// Commands each client issues (`c10k` at scale 0.5: 960k in all).
pub const OPS_PER_CLIENT: usize = 960;
/// Reactor lanes the clients hash onto.
pub const LANES: usize = 32;
/// Submission-queue depth per lane.
pub const DEPTH: usize = 256;
/// Commands per submitted batch.
pub const BATCH: usize = 64;
/// Bytes of each client's private window.
pub const WINDOW_BYTES: u64 = 64 << 10;

/// Bytes the clients' windows cover.
pub fn working_set_bytes() -> u64 {
    CLIENTS as u64 * WINDOW_BYTES
}

/// Executor worker threads besides the `block_on` caller. None: the caller
/// drives every client. With worker threads the run-to-run spread of the
/// wall metrics on a 2-vCPU host was 13% (one worker) and 21% (two) of the
/// median over 4-5 seeds, above any bound the benchmark may set; alone, 5-9%.
pub const WORKERS: usize = 0;

struct XorShift(u64);

impl XorShift {
    fn below(&mut self, bound: u64) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x % bound
    }
}

/// One client's command stream, the `qd_sweep` shape: runs of 8..24
/// adjacent cacheline writes, every 8th run start a 128-byte read, every
/// 4th run transactional with a COMMIT per 32 transactional writes.
struct CmdGen {
    rng: XorShift,
    base: u64,
    slots: u64,
    cursor: u64,
    run_left: u64,
    tag: u8,
    tx: TxId,
    tx_writes: u32,
}

impl CmdGen {
    fn new(seed: u64, client: usize, base: u64) -> Self {
        let mixed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((client as u64) << 24);
        Self {
            rng: XorShift(mixed | 1),
            base,
            slots: WINDOW_BYTES / 64,
            cursor: 0,
            run_left: 0,
            tag: 1,
            // 1024 transaction ids per client, far more than it commits.
            tx: TxId((client as u32 + 1) << 10),
            tx_writes: 0,
        }
    }

    fn next_command(&mut self) -> Command {
        if self.tx_writes >= 32 {
            self.tx_writes = 0;
            let cmd = Command::Commit { txid: self.tx };
            self.tx = TxId(self.tx.0 + 1);
            return cmd;
        }
        if self.run_left == 0 {
            if self.rng.below(8) == 0 {
                let addr = self.base + self.rng.below(self.slots) * 64;
                return Command::ByteRead { addr, len: 128, cat: Category::Inode };
            }
            self.cursor = self.rng.below(self.slots - 32);
            self.run_left = 8 + self.rng.below(16);
            self.tag = self.tag.wrapping_add(1);
        }
        self.run_left -= 1;
        let addr = self.base + self.cursor * 64;
        self.cursor += 1;
        let transactional = self.tag.is_multiple_of(4);
        if transactional {
            self.tx_writes += 1;
        }
        Command::ByteWrite {
            addr,
            data: vec![self.tag; 64],
            txid: transactional.then_some(self.tx),
            cat: Category::Inode,
        }
    }
}

/// What the clients share: latency histograms (virtual per command, wall
/// per batch), counts, and the trace probe of a traced repetition.
#[derive(Default)]
struct Shared {
    latencies: Mutex<(Histogram, Histogram)>,
    submitted: AtomicU64,
    resolved_ok: AtomicU64,
    failed: AtomicU64,
    app_write_bytes: AtomicU64,
    batch_wall_ns: AtomicU64,
    probe: Option<Arc<SharedProbe>>,
}

fn client_base(client: usize) -> u64 {
    let lane = client % LANES;
    lane as u64 * PARTITION_BYTES + (client / LANES) as u64 * WINDOW_BYTES
}

async fn drive_client(rt: Runtime, shared: Arc<Shared>, seed: u64, client: usize) {
    let reactor = Arc::clone(rt.reactor());
    let lane = reactor.lane_for(client);
    let mut gen = CmdGen::new(seed, client, client_base(client));
    let mut issued = 0;
    let (mut ok, mut failed, mut written, mut batch_wall_ns) = (0u64, 0u64, 0u64, 0u64);
    while issued < OPS_PER_CLIENT {
        let n = BATCH.min(OPS_PER_CLIENT - issued);
        let cmds: Vec<Command> = (0..n).map(|_| gen.next_command()).collect();
        written += cmds.iter().filter(|c| matches!(c, Command::ByteWrite { .. })).count() as u64;
        issued += n;
        let t0 = Instant::now();
        let outcomes = match &shared.probe {
            Some(probe) => probe.draining(reactor.submit_batch(lane, cmds)).await,
            None => reactor.submit_batch(lane, cmds).await,
        };
        let wall_ns = t0.elapsed().as_nanos() as u64;
        batch_wall_ns += wall_ns;
        let mut lat = shared.latencies.lock().expect("latency lock poisoned by a panicking client");
        lat.1.record(wall_ns);
        for o in &outcomes {
            match o {
                Ok(c) if c.status.is_ok() => {
                    ok += 1;
                    lat.0.record(c.latency_ns);
                }
                _ => failed += 1,
            }
        }
        drop(lat);
        failed += n.saturating_sub(outcomes.len()) as u64;
    }
    shared.submitted.fetch_add(issued as u64, Ordering::Relaxed);
    shared.resolved_ok.fetch_add(ok, Ordering::Relaxed);
    shared.failed.fetch_add(failed, Ordering::Relaxed);
    shared.app_write_bytes.fetch_add(written * 64, Ordering::Relaxed);
    shared.batch_wall_ns.fetch_add(batch_wall_ns, Ordering::Relaxed);
}

/// One repetition: fresh device and runtime, prefilled windows, the
/// measured fan-in, then a log drain and the checks.
pub fn run(seed: u64, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let setup = SetupTimer::start();
    let device = Mssd::new(bench::bench_config(), DramMode::WriteLog);
    let rt = Runtime::new(&device, WORKERS, LANES, DEPTH);
    let page = device.page_size() as u64;
    for client in 0..CLIENTS {
        let base = client_base(client);
        let fill = vec![(client % 251) as u8; WINDOW_BYTES as usize];
        if let Err(e) = device.try_block_write(base / page, &fill, Category::Data) {
            rep.attempted = 1;
            rep.fail(format!("prefill: {e}"));
            return rep;
        }
    }
    if let Err(e) = device.try_flush() {
        rep.attempted = 1;
        rep.fail(format!("prefill flush: {e}"));
        return rep;
    }
    setup.finish(&mut rep);

    let mut win = Window::open(&device, traced);
    let shared = Arc::new(Shared { probe: win.shared_probe(), ..Shared::default() });
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| rt.spawn(drive_client(rt.clone(), Arc::clone(&shared), seed, c)))
        .collect();
    rt.block_on(async {
        for h in handles {
            h.await;
        }
    });
    let delta = win.close(&device, &mut rep);
    let submitted = shared.submitted.load(Ordering::Relaxed);
    let ok = shared.resolved_ok.load(Ordering::Relaxed);
    let failed = shared.failed.load(Ordering::Relaxed);
    rep.attempted = (CLIENTS * OPS_PER_CLIENT) as u64;
    rep.ops = ok;
    rep.app_write_bytes = shared.app_write_bytes.load(Ordering::Relaxed);
    if submitted != rep.attempted || ok + failed != submitted {
        rep.fail(format!("{submitted} commands submitted, {ok} resolved Ok, {failed} failed"));
    }
    for _ in 0..failed {
        rep.fail("command did not resolve Ok");
    }
    {
        let lat = shared.latencies.lock().expect("latency lock poisoned by a panicking client");
        rep.vlat = Lat::of_histogram(&lat.0);
        rep.wlat = Lat::of_histogram(&lat.1);
    }

    device_layers(&mut rep, &device, &delta);
    rep.layer(
        "mssd.reactor.submit_batch.wall_ns",
        shared.batch_wall_ns.load(Ordering::Relaxed) as f64,
    );
    rep.layer(
        "workloads.host_cpu_virt_ns",
        rep.virt_ns.saturating_sub(delta.device_busy_ns) as f64,
    );
    if let Some(p) = &win.probe {
        trace_layers(&mut rep, p, &delta);
    }
    drop(rt);

    device.quiesce_cleaning();
    device.force_clean();
    rep.flash_write_bytes =
        device.traffic().delta_since(&win.traffic0).flash_write_bytes(device.page_size());
    for v in device.check_consistency() {
        rep.fail(format!("device consistency: {v}"));
    }
    rep.digest = content_digest(&device.crash_image());
    rep.seal_exact();
    rep
}
