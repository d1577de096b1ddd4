//! Process-level probes (CPU clock, peak RSS, host steal), summary
//! statistics, result digests and the metric set a run prints.

use std::time::Duration;

/// CPU time of the whole process: every thread, including worker
/// threads that have already exited.
#[must_use]
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Returns the allocator's free memory to the OS. A benchmark that
/// repeats a set-up and discards the result calls this in between, so
/// memory the discarded repetitions freed in other threads' malloc
/// arenas does not inflate the peak RSS of the run.
pub fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers and only returns unused
    // heap pages to the OS; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

/// Cumulative CPU steal ticks of the host (`/proc/stat`), so a run the
/// hypervisor slowed down can be told apart from a regression.
#[must_use]
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<u64>()
                .ok()
        })
        .unwrap_or(0)
}

fn proc_field(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Milliseconds of a duration.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of a non-empty sample.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile of a non-empty sample.
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail percentile a sample supports: p99 when at least 10 samples
/// lie beyond it, otherwise the highest quantile that still has 10
/// samples beyond it, and never below the median.
#[must_use]
pub fn tail(xs: &[f64]) -> f64 {
    let q = (1.0 - 10.0 / xs.len() as f64).clamp(0.5, 0.99);
    quantile(xs, q)
}

/// Geometric mean of a non-empty sample of positive values.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of an empty sample");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// FNV-1a digest, fed field by field, for comparing result sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Named measurements with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Appends every metric of `other` under `prefix.`.
    pub fn extend_prefixed(&mut self, prefix: &str, other: Metrics) {
        for (name, value, unit) in other.0 {
            self.0.push((format!("{prefix}.{name}"), value, unit));
        }
    }

    /// Whether every value is a finite number.
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Checked-op tally of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
}

impl Tally {
    /// Records `n` checked ops of which `bad` failed.
    pub fn add(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad.min(n);
    }

    /// Records one checked op.
    pub fn check(&mut self, ok: bool) {
        self.add(1, u64::from(!ok));
    }

    /// Merges another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Everything one run reports: the last line of its standard output.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Checked ops and failures.
    pub tally: Tally,
    /// Reported metrics.
    pub metrics: Metrics,
    /// Samples behind the latency percentiles (0 for a traced run).
    pub latency_samples: usize,
}

impl Outcome {
    /// The outcome of a traced run, which reports no latency sample.
    #[must_use]
    pub fn traced(tally: Tally, metrics: Metrics) -> Self {
        Outcome {
            tally,
            metrics,
            latency_samples: 0,
        }
    }

    /// Whether the run passed its correctness gate.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.tally.attempted > 0 && self.tally.failed == 0 && self.metrics.all_finite()
    }

    /// The result line.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            self.metrics.to_json()
        )
    }
}

/// Host facts recorded next to every run.
#[derive(Debug, Clone, Copy)]
pub struct HostProbe {
    steal_start: u64,
}

impl HostProbe {
    /// Starts recording.
    #[must_use]
    pub fn start() -> Self {
        HostProbe {
            steal_start: steal_ticks(),
        }
    }

    /// One JSON line: core count, threads the workload ran, the number
    /// of latency samples behind `p50_ms`/`p99_ms`, and the steal ticks
    /// the host charged while it ran.
    #[must_use]
    pub fn line(
        &self,
        workload: &str,
        seed: u64,
        trace: bool,
        threads: usize,
        samples: usize,
    ) -> String {
        format!(
            "{{\"run\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
             \"nproc\": {}, \"threads\": {threads}, \"latency_samples\": {samples}, \
             \"steal_ticks\": {}}}}}",
            nproc(),
            steal_ticks().saturating_sub(self.steal_start)
        )
    }
}

/// Cores this process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_falls_back_to_the_supported_quantile() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), 10.0);
        let ys: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&ys), 1980.0);
    }

    #[test]
    fn geomean_weights_each_value_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn process_cpu_counts_exited_threads() {
        let before = process_cpu();
        std::thread::spawn(|| {
            let t = std::time::Instant::now();
            while t.elapsed() < Duration::from_millis(50) {}
        })
        .join()
        .unwrap();
        assert!(process_cpu() - before >= Duration::from_millis(40));
    }
}
