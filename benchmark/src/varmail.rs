//! `varmail`: the Filebench mail-server personality on ByteFS, at a scale
//! whose file set outgrows the device's 16 MiB write log. Set-up and the
//! measured loop are `workloads::filebench`'s own.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use workloads::filebench::{Filebench, Personality};
use workloads::{Recorder, Scale, Workload};

use crate::measure::{Lat, Rep};
use crate::stack::{
    device_layers, fs_layers, trace_layers, unmount_and_check, FsStack, SetupTimer, Window,
};

/// Scale of the Filebench personality: 4,000 files of 16 KiB and 6,000
/// iterations.
pub const SCALE: f64 = 10.0;

/// The workload's shape.
pub fn spec() -> Filebench {
    Filebench::new(Personality::Varmail, Scale::new(SCALE))
}

/// Bytes the file set occupies after set-up.
pub fn working_set_bytes() -> u64 {
    let s = spec();
    (s.files * s.file_size) as u64
}

/// One repetition: format, set up, measure, then remount and check.
pub fn run(seed: u64, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let spec = spec();
    let setup = SetupTimer::start();
    let stack = FsStack::format(traced);
    let fs = stack.fs.as_ref();
    let mut rng = SmallRng::seed_from_u64(seed);
    if let Err(e) = spec.setup(fs, &mut rng) {
        rep.attempted = 1;
        rep.fail(format!("setup: {e}"));
        return rep;
    }
    fs.drop_caches();
    // Start from an empty write log, so NAND programs count only what the
    // measured phase wrote.
    stack.device.force_clean();
    setup.finish(&mut rep);

    if let Some(t) = &stack.timed {
        t.reset();
    }
    let device = &stack.device;
    let mut rec = Recorder::new();
    let mut win = Window::open(device, traced);
    let result = spec.run(fs, &mut rng, &mut rec);
    let delta = win.close(device, &mut rep);
    rep.ops = rec.ops;
    rep.attempted = rec.ops + u64::from(result.is_err());
    if let Err(e) = result {
        rep.fail(format!("varmail op: {e}"));
    }
    rep.app_write_bytes = rec.app_write_bytes;
    // The write class: each create or append with its fsync, and the
    // closing sync.
    rep.vlat = Lat::of(&rec.write_stats());
    device_layers(&mut rep, device, &delta);
    if delta.flash_write_pages == 0 {
        rep.fail("varmail programmed no NAND pages: the file set fits the write log");
    }
    if let (Some(timed), Some(probe)) = (&stack.timed, &win.probe) {
        fs_layers(&mut rep, timed, delta.host_read_bytes());
        trace_layers(&mut rep, probe, &delta);
        rep.layer(
            "workloads.host_cpu_virt_ns",
            rep.virt_ns.saturating_sub(timed.total_virt_ns()) as f64,
        );
    }
    unmount_and_check(&mut rep, device, fs, &win.traffic0);
    rep.seal_exact();
    rep
}
