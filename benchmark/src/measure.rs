//! What one repetition of a workload yields, and the statistics the report
//! derives from it.

use std::collections::BTreeMap;

use workloads::{Histogram, LatencyStats};

/// The tail percentile reported as `*_p99_*`. A run must leave at least
/// [`TAIL_SAMPLES`] samples above it, or the percentile is not supported.
pub const TAIL_Q: f64 = 0.99;

/// Minimum samples beyond the reported tail percentile.
pub const TAIL_SAMPLES: u64 = 10;

/// The summary of one latency distribution that a repetition keeps; the
/// samples themselves are not kept, so a repetition's memory does not grow
/// with its length.
#[derive(Debug, Default, Clone, Copy)]
pub struct Lat {
    /// Samples recorded.
    pub samples: u64,
    /// Median (ns).
    pub p50_ns: u64,
    /// 99th percentile (ns).
    pub p99_ns: u64,
}

impl Lat {
    /// Summarises `workloads::Histogram` statistics (percentiles within one
    /// bucket, 3.1%, of the exact value).
    pub fn of(s: &LatencyStats) -> Self {
        Self { samples: s.count, p50_ns: s.p50_ns, p99_ns: s.p99_ns }
    }

    /// Summarises a histogram.
    pub fn of_histogram(h: &Histogram) -> Self {
        Self::of(&LatencyStats::from_histogram(h))
    }

    /// Whether at least [`TAIL_SAMPLES`] samples lie beyond the p99.
    pub fn supports_p99(&self) -> bool {
        self.samples as f64 * (1.0 - TAIL_Q) >= TAIL_SAMPLES as f64
    }
}

/// Everything one repetition (format, set up, measure, check) produced.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall seconds to format the device and run the set-up or load phase.
    pub setup_s: f64,
    /// Allocation calls the set-up thread made in that time.
    pub setup_allocs: u64,
    /// Wall seconds of the measured phase.
    pub wall_s: f64,
    /// Measured operations completed.
    pub ops: u64,
    /// Measured operations attempted (completed, failed or cut short).
    pub attempted: u64,
    /// Virtual nanoseconds the measured phase took.
    pub virt_ns: u64,
    /// Virtual latency of the workload's defining operation: varmail's
    /// fsync'd appends, ycsb-e's scans, async-clients' commands.
    pub vlat: Lat,
    /// Wall latency of one client batch (async-clients only).
    pub wlat: Lat,
    /// Bytes the application asked to write in the measured phase.
    pub app_write_bytes: u64,
    /// Host-to-device write bytes in the measured phase.
    pub host_write_bytes: u64,
    /// NAND bytes programmed from the start of the measured phase through
    /// the end-of-run log drain, firmware-internal programs included.
    pub flash_write_bytes: u64,
    /// Allocation calls the measuring thread made in the measured phase. Not
    /// bit-exact even single-threaded: the device's log cleaner thread
    /// shifts a few allocations (about 1 in 100,000 on varmail).
    pub allocs: u64,
    /// Bytes those allocation calls asked for.
    pub alloc_bytes: u64,
    /// One line per failed operation or failed output check.
    pub errors: Vec<String>,
    /// The process's resident-set high-water mark after this repetition, MiB.
    pub peak_rss_mb: f64,
    /// Digest of the device's durable state at the end of the run.
    pub digest: u64,
    /// Exact counters that must repeat bit for bit on a deterministic
    /// workload (virtual metrics and `mssd.*` / `kvstore.*` counts).
    pub exact: BTreeMap<String, u64>,
    /// Per-layer metrics (the traced repetitions fill the timed ones).
    pub layers: BTreeMap<String, f64>,
}

impl Rep {
    /// Records a failure: an operation error or a failed output check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.errors.push(what.into());
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Sets an exact counter that is also reported as a per-layer metric.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.exact.insert(name.to_string(), value);
        self.layer(name, value as f64);
    }

    /// Virtual throughput in kops per virtual second.
    pub fn vtput_kops(&self) -> f64 {
        self.ops as f64 / (self.virt_ns.max(1) as f64 / 1e9) / 1e3
    }

    /// Wall throughput in kops per host second.
    pub fn wall_kops(&self) -> f64 {
        self.ops as f64 / self.wall_s.max(1e-9) / 1e3
    }

    /// Fills the exact end-to-end virtual counters the determinism guard
    /// compares across repetitions.
    pub fn seal_exact(&mut self) {
        let fields = [
            ("e2e.ops", self.ops),
            ("e2e.virt_ns", self.virt_ns),
            ("e2e.vlat_samples", self.vlat.samples),
            ("e2e.vlat_p50_ns", self.vlat.p50_ns),
            ("e2e.vlat_p99_ns", self.vlat.p99_ns),
            ("e2e.app_write_bytes", self.app_write_bytes),
            ("e2e.host_write_bytes", self.host_write_bytes),
            ("e2e.flash_write_bytes", self.flash_write_bytes),
        ];
        for (k, v) in fields {
            self.exact.insert(k.to_string(), v);
        }
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let lat = |samples| Lat { samples, ..Lat::default() };
        assert!(lat(1_000).supports_p99());
        assert!(!lat(999).supports_p99());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
