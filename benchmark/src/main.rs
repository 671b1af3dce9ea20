//! The repository's benchmark: three closed-loop workloads on the ByteFS /
//! M-SSD stack, reported on the virtual clock (the modelled device plus
//! host) and the wall clock (how fast the simulator runs).
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload varmail --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One invocation repeats the workload (format, set up, measure, check) with
//! one seed until `--seconds` have passed, at least three times, and reports
//! medians. `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced repetitions and prints the per-layer split. The last
//! line of standard output is one JSON object; any failed operation or check
//! makes it `"correct": false` and the exit code 1. `--print-spec` prints the
//! `BENCHMARK.json` this program implements. See `README.md` for every
//! metric.

mod alloc;
mod async_clients;
mod measure;
mod probe;
mod stack;
mod timed;
mod varmail;
mod ycsb_e;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use measure::{median, peak_rss_mb, Rep, TAIL_SAMPLES};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// A workload the benchmark runs.
struct Workload {
    name: &'static str,
    why: &'static str,
    /// Size of its input, for the run metadata.
    shape: fn() -> String,
    working_set_bytes: fn() -> u64,
    /// Single-threaded: its virtual metrics and device counters must repeat
    /// bit for bit.
    deterministic: bool,
    run: fn(u64, bool) -> Rep,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "varmail",
        why: "fsync-heavy small writes on a file set 4x the 16 MiB device log: ByteFS metadata, txn commits, log cleaning and NAND programs",
        shape: || {
            let s = varmail::spec();
            format!(
                "Filebench varmail scale {}: {} files x {} KiB, {} iterations",
                varmail::SCALE,
                s.files,
                s.file_size >> 10,
                s.iterations
            )
        },
        working_set_bytes: varmail::working_set_bytes,
        deterministic: true,
        run: varmail::run,
    },
    Workload {
        name: "ycsb-e",
        why: "kvstore range scans that fit every cache: the read side of ByteFS and the host page cache, with NAND and the log nearly idle",
        shape: || {
            format!(
                "YCSB-E: {} records x {} B, {} ops, scans of 1..={} rows, 5% inserts",
                ycsb_e::RECORDS,
                ycsb_e::VALUE_SIZE,
                ycsb_e::OPERATIONS,
                ycsb_e::MAX_SCAN
            )
        },
        working_set_bytes: ycsb_e::working_set_bytes,
        deterministic: true,
        run: ycsb_e::run,
    },
    Workload {
        name: "async-clients",
        why: "1000 async clients over 32 reactor lanes with batched commands: the only load on mssd::reactor and mssd::queue; ByteFS bypassed",
        shape: || {
            format!(
                "{} clients x {} commands in batches of {}, {} lanes x depth {}, {} executor workers besides the caller",
                async_clients::CLIENTS,
                async_clients::OPS_PER_CLIENT,
                async_clients::BATCH,
                async_clients::LANES,
                async_clients::DEPTH,
                async_clients::WORKERS
            )
        },
        working_set_bytes: async_clients::working_set_bytes,
        deterministic: false,
        run: async_clients::run,
    },
];

/// An end-to-end metric: name, unit, clock, direction, regression bound.
struct EndToEnd {
    name: &'static str,
    unit: &'static str,
    clock: &'static str,
    better: &'static str,
    /// The share by which the metric may worsen. Metrics without one are
    /// printed only and left out of `BENCHMARK.json` and the JSON result
    /// (see README.md): the virtual latency percentiles read the same on
    /// every seed, and wall time drifts too far between runs on a shared
    /// host; the allocation counts stand in for it.
    bound: Option<f64>,
    /// The one workload the metric applies to, if not all.
    only: Option<&'static str>,
    value: fn(&Rep) -> f64,
}

const END_TO_END: [EndToEnd; 13] = [
    EndToEnd {
        name: "vtput_kops",
        unit: "kops",
        clock: "virtual",
        better: "higher",
        bound: Some(0.15),
        only: None,
        value: Rep::vtput_kops,
    },
    EndToEnd {
        name: "vlat_p50_us",
        unit: "us",
        clock: "virtual",
        better: "lower",
        bound: None,
        only: None,
        value: |r| r.vlat.p50_ns as f64 / 1e3,
    },
    EndToEnd {
        name: "vlat_p99_us",
        unit: "us",
        clock: "virtual",
        better: "lower",
        bound: None,
        only: None,
        value: |r| r.vlat.p99_ns as f64 / 1e3,
    },
    EndToEnd {
        name: "write_amp",
        unit: "ratio",
        clock: "virtual",
        better: "lower",
        bound: Some(0.05),
        only: None,
        value: |r| stack::ratio(r.host_write_bytes, r.app_write_bytes),
    },
    EndToEnd {
        name: "flash_write_amp",
        unit: "ratio",
        clock: "virtual",
        better: "lower",
        bound: Some(0.1),
        only: None,
        value: |r| stack::ratio(r.flash_write_bytes, r.app_write_bytes),
    },
    EndToEnd {
        name: "wall_kops",
        unit: "kops",
        clock: "wall",
        better: "higher",
        bound: None,
        only: None,
        value: Rep::wall_kops,
    },
    EndToEnd {
        name: "wall_lat_p50_us",
        unit: "us",
        clock: "wall",
        better: "lower",
        bound: None,
        only: Some("async-clients"),
        value: |r| r.wlat.p50_ns as f64 / 1e3,
    },
    EndToEnd {
        name: "wall_lat_p99_us",
        unit: "us",
        clock: "wall",
        better: "lower",
        bound: None,
        only: Some("async-clients"),
        value: |r| r.wlat.p99_ns as f64 / 1e3,
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "allocs/op",
        clock: "count",
        better: "lower",
        bound: Some(0.05),
        only: None,
        value: |r| stack::ratio(r.allocs, r.ops),
    },
    EndToEnd {
        name: "alloc_bytes_per_op",
        unit: "B/op",
        clock: "count",
        better: "lower",
        bound: Some(0.05),
        only: None,
        value: |r| stack::ratio(r.alloc_bytes, r.ops),
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        clock: "host",
        better: "lower",
        bound: Some(0.1),
        only: None,
        value: |r| r.peak_rss_mb,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: "wall",
        better: "lower",
        bound: Some(0.25),
        only: None,
        value: |r| r.setup_s,
    },
    EndToEnd {
        name: "setup_allocs",
        unit: "allocs",
        clock: "count",
        better: "lower",
        bound: Some(0.05),
        only: None,
        value: |r| r.setup_allocs as f64,
    },
];

/// Per-layer metrics of the traced run, with their units.
const PER_LAYER: &[(&str, &str)] = &[
    ("kvstore.scan.calls", "count"),
    ("kvstore.scan.wall_ns", "ns"),
    ("kvstore.scan.self_wall_ns", "ns"),
    ("kvstore.read_bytes_per_returned_byte", "ratio"),
    ("kvstore.flushes", "count"),
    ("kvstore.compactions", "count"),
    ("bytefs.open.calls", "count"),
    ("bytefs.open.wall_ns", "ns"),
    ("bytefs.open.virt_ns", "ns"),
    ("bytefs.create.calls", "count"),
    ("bytefs.create.wall_ns", "ns"),
    ("bytefs.create.virt_ns", "ns"),
    ("bytefs.read.calls", "count"),
    ("bytefs.read.wall_ns", "ns"),
    ("bytefs.read.virt_ns", "ns"),
    ("bytefs.write.calls", "count"),
    ("bytefs.write.wall_ns", "ns"),
    ("bytefs.write.virt_ns", "ns"),
    ("bytefs.fsync.calls", "count"),
    ("bytefs.fsync.wall_ns", "ns"),
    ("bytefs.fsync.virt_ns", "ns"),
    ("bytefs.close.calls", "count"),
    ("bytefs.close.wall_ns", "ns"),
    ("bytefs.close.virt_ns", "ns"),
    ("bytefs.unlink.calls", "count"),
    ("bytefs.unlink.wall_ns", "ns"),
    ("bytefs.unlink.virt_ns", "ns"),
    ("bytefs.stat.calls", "count"),
    ("bytefs.stat.wall_ns", "ns"),
    ("bytefs.stat.virt_ns", "ns"),
    ("bytefs.other.calls", "count"),
    ("bytefs.other.wall_ns", "ns"),
    ("bytefs.other.virt_ns", "ns"),
    ("bytefs.self_virt_ns", "ns"),
    ("fskit.pagecache.device_read_ratio", "ratio"),
    ("mssd.device.byte_requests", "count"),
    ("mssd.device.block_requests", "count"),
    ("mssd.device.host_write_bytes.meta", "bytes"),
    ("mssd.device.host_write_bytes.data", "bytes"),
    ("mssd.device.host_read_bytes", "bytes"),
    ("mssd.device.busy_virt_ns", "ns"),
    ("mssd.log.cleanings", "count"),
    ("mssd.log.fg_stalls", "count"),
    ("mssd.log.bg_cleaned_pages", "count"),
    ("mssd.log.used_bytes_end", "bytes"),
    ("mssd.log.coalesce_ratio", "ratio"),
    ("mssd.txn.commits", "count"),
    ("mssd.flash.read_pages", "count"),
    ("mssd.flash.write_pages", "count"),
    ("mssd.flash.erase_blocks", "count"),
    ("mssd.flash.internal_write_pages", "count"),
    ("mssd.ftl.gc_victims", "count"),
    ("mssd.queue.ops", "count"),
    ("mssd.queue.avg_lat_virt_ns", "ns"),
    ("mssd.queue.max_lat_virt_ns", "ns"),
    ("mssd.queue.cmds_per_doorbell", "ratio"),
    ("mssd.reactor.submit_batch.wall_ns", "ns"),
    ("mssd.reactor.parks", "count"),
    ("mssd.reactor.wakes", "count"),
    ("mssd.reactor.park_wall_ns", "ns"),
    ("mssd.reactor.spurious_wakeups", "count"),
    ("mssd.reactor.productive_wakeups", "count"),
    ("workloads.host_cpu_virt_ns", "ns"),
    ("mssd.ras.retries", "count"),
    ("mssd.ras.timeouts", "count"),
    ("mssd.ras.aborts", "count"),
    ("trace.dropped_events", "count"),
    ("trace.dropped_uncounted_events", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Seconds one run measures.
const RUN_SECONDS: u64 = 25;

/// Repetitions an untraced invocation makes at least.
const MIN_REPS: usize = 3;

/// Repetitions an invocation makes at most.
const MAX_REPS: usize = 50;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        print_spec: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-spec" {
            args.print_spec = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The `BENCHMARK.json` this program implements.
fn spec_json() -> String {
    let mut out = String::from("{\n");
    out += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n";
    out += "  \"paths\": [\"benchmark\"],\n";
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out += "  \"workloads\": [\n";
    let items: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", json_str(w.name), json_str(w.why)))
        .collect();
    out += &items.join(",\n");
    out += "\n  ],\n  \"end_to_end\": [\n";
    let items: Vec<String> = END_TO_END
        .iter()
        .filter_map(|m| m.bound.map(|b| (m, b)))
        .map(|(m, bound)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                bound
            )
        })
        .collect();
    out += &items.join(",\n");
    out += "\n  ],\n  \"per_layer\": [\n";
    let items: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(name),
                json_str(unit),
                json_str(better_of(name))
            )
        })
        .collect();
    out += &items.join(",\n");
    out += "\n  ]\n}\n";
    out
}

/// Which way a per-layer metric should move when its layer improves.
fn better_of(name: &str) -> &'static str {
    const HIGHER: [&str; 3] = [
        "mssd.log.coalesce_ratio",
        "mssd.queue.cmds_per_doorbell",
        "mssd.reactor.productive_wakeups",
    ];
    if HIGHER.contains(&name) {
        "higher"
    } else {
        "lower"
    }
}

/// The clock a per-layer metric is read from.
fn clock_of(name: &str) -> &'static str {
    if name.ends_with("wall_ns") || name == "trace.overhead_ratio" {
        "wall"
    } else if name.ends_with("virt_ns") {
        "virtual"
    } else {
        "count"
    }
}

/// The checked-out commit, read from `./.git` only (never from a repository
/// enclosing the working directory), or "unknown".
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

fn print_metadata(w: &Workload, args: &Args) {
    let cfg = bench::bench_config();
    let page_cache = (bytefs::ByteFsConfig::full().page_cache_pages * cfg.page_size) as u64;
    println!("# workload {}: {}", w.name, (w.shape)());
    println!(
        "# seed {}  seconds {}  trace {}  git {}  nproc {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_sha(),
        bench::host_cpus()
    );
    println!(
        "# device: {:.0} MiB, {} B pages, {} channels x {} pages/block, {:.0}% overprovision, {:.0} MiB write log, background cleaning {}",
        mib(cfg.capacity_bytes),
        cfg.page_size,
        cfg.channels,
        cfg.pages_per_block,
        cfg.overprovision * 100.0,
        mib(cfg.dram_region_bytes as u64),
        cfg.background_cleaning
    );
    println!(
        "# working set {:.1} MiB vs device write log {:.0} MiB and host page cache {:.0} MiB",
        mib((w.working_set_bytes)()),
        mib(cfg.dram_region_bytes as u64),
        mib(page_cache)
    );
}

fn print_rep(kind: &str, i: usize, r: &Rep) {
    println!(
        "# {kind} rep {i}: setup {:.3} s / {} allocs, measured {:.3} s wall / {:.3} ms virtual, {} ops, {} failed, digest {:016x}",
        r.setup_s,
        r.setup_allocs,
        r.wall_s,
        r.virt_ns as f64 / 1e6,
        r.ops,
        r.errors.len(),
        r.digest
    );
}

/// Checks the repetitions against each other. Every repetition of one seed
/// must end with the same device digest, traced or not (tracing observes
/// only). On a deterministic workload the exact counters must also repeat;
/// elsewhere their spread is printed.
fn cross_check(w: &Workload, reps: &[&Rep]) -> Vec<String> {
    let mut errors = Vec::new();
    let first = reps[0];
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r.digest != first.digest {
            errors.push(format!(
                "repetition {i} ended with device digest {:016x}, repetition 0 with {:016x}",
                r.digest, first.digest
            ));
        }
        if w.deterministic {
            for (k, v) in &first.exact {
                let got = r.exact.get(k);
                if got != Some(v) {
                    errors.push(format!(
                        "determinism: {k} is {got:?} in repetition {i}, {v} in repetition 0"
                    ));
                }
            }
        }
    }
    if !w.deterministic {
        for (k, v0) in &first.exact {
            let vals: Vec<f64> =
                reps.iter().filter_map(|r| r.exact.get(k)).map(|v| *v as f64).collect();
            let (lo, hi) =
                vals.iter().fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let med = median(&vals);
            if hi > lo && k.starts_with("e2e.") {
                println!(
                    "# spread {k}: {:.2}% of median (min {lo}, max {hi}, rep 0 {v0})",
                    (hi - lo) / med.max(1.0) * 100.0
                );
            }
        }
    }
    errors
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: bytefs-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1> | --print-spec");
            return ExitCode::from(2);
        }
    };
    if args.print_spec {
        print!("{}", spec_json());
        return ExitCode::SUCCESS;
    }
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("error: unknown workload {:?}; one of {}", args.workload, names.join(", "));
        return ExitCode::from(2);
    };
    print_metadata(w, &args);

    // The first repetition warms the allocator, the caches and the CPU up.
    // It is checked like the others but left out of every median.
    let mut warmup = (w.run)(args.seed, false);
    warmup.peak_rss_mb = peak_rss_mb();
    print_rep("warm-up", 0, &warmup);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let min_reps = if args.trace { 1 } else { MIN_REPS };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.len() < MAX_REPS {
        let mut r = (w.run)(args.seed, false);
        r.peak_rss_mb = peak_rss_mb();
        print_rep("untraced", plain.len(), &r);
        plain.push(r);
        if args.trace {
            let r = (w.run)(args.seed, true);
            print_rep("traced", traced.len(), &r);
            traced.push(r);
        }
        if plain.len() >= min_reps && Instant::now() >= deadline {
            break;
        }
    }

    let all: Vec<&Rep> =
        std::iter::once(&warmup).chain(plain.iter()).chain(traced.iter()).collect();
    let mut errors: Vec<String> = all.iter().flat_map(|r| r.errors.iter().cloned()).collect();
    errors.extend(cross_check(w, &all));
    let attempted: u64 = all.iter().map(|r| r.attempted).sum::<u64>().max(1);

    let metrics = if args.trace {
        per_layer_metrics(&plain, &traced)
    } else {
        errors.extend(tail_sample_errors(w, &plain));
        end_to_end_metrics(w, &plain)
    };
    let failed = errors.len() as u64;
    for e in errors.iter().take(20) {
        println!("# FAILED: {e}");
    }
    println!("# {:<40} {:>18}  {:<6} clock", "metric", "value", "unit");
    let error_rate = Metric {
        name: "error_rate".to_string(),
        value: failed as f64 / attempted as f64,
        unit: "ratio",
        clock: "count",
        in_json: false,
    };
    for m in metrics.iter().chain([&error_rate]) {
        println!("# {:<40} {:>18.6}  {:<6} {}", m.name, m.value, m.unit, m.clock);
    }
    let items: Vec<String> = metrics
        .iter()
        .filter(|m| m.in_json)
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        items.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    clock: &'static str,
    /// Part of the JSON result (and so of `BENCHMARK.json`).
    in_json: bool,
}

/// Medians of the end-to-end metrics over the untraced repetitions.
fn end_to_end_metrics(w: &Workload, plain: &[Rep]) -> Vec<Metric> {
    let r = &plain[0];
    println!(
        "# samples per repetition: {} virtual latencies, {} wall latencies",
        r.vlat.samples, r.wlat.samples
    );
    END_TO_END
        .iter()
        .filter(|m| m.only.is_none_or(|name| name == w.name))
        .map(|m| Metric {
            name: m.name.to_string(),
            value: median(&plain.iter().map(m.value).collect::<Vec<_>>()),
            unit: m.unit,
            clock: m.clock,
            in_json: m.bound.is_some(),
        })
        .collect()
}

/// Repetitions whose latency samples cannot support a p99.
fn tail_sample_errors(w: &Workload, plain: &[Rep]) -> Vec<String> {
    let mut errors = Vec::new();
    for r in plain {
        let wall = (w.name == "async-clients").then_some(("wall", r.wlat));
        for (what, lat) in std::iter::once(("virtual", r.vlat)).chain(wall) {
            if !lat.supports_p99() {
                errors.push(format!(
                    "{} {what} latency samples leave fewer than {TAIL_SAMPLES} beyond p99",
                    lat.samples
                ));
            }
        }
    }
    errors
}

/// Medians of the per-layer metrics over the traced repetitions, and the
/// tracing overhead against the untraced ones. Lost trace events are those
/// of the worst traced repetition: a median would hide a lossy one.
fn per_layer_metrics(plain: &[Rep], traced: &[Rep]) -> Vec<Metric> {
    let wall = |reps: &[Rep]| median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let overhead = wall(traced) / wall(plain).max(1e-9);
    PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let value = if *name == "trace.overhead_ratio" {
                overhead
            } else if name.starts_with("trace.dropped") {
                traced.iter().filter_map(|r| r.layers.get(*name)).fold(0.0_f64, |a, b| a.max(*b))
            } else {
                median(
                    &traced
                        .iter()
                        .map(|r| r.layers.get(*name).copied().unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                )
            };
            Metric { name: name.to_string(), value, unit, clock: clock_of(name), in_json: true }
        })
        .collect()
}

/// A finite JSON number with every digit `f64` carries.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
