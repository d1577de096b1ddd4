//! The shape every workload shares: repeated set-up, a timed phase of
//! checked ops, and the end-to-end metrics derived from both.

use std::time::{Duration, Instant};

use crate::measure::{
    geomean, median, ms, peak_rss_mib, process_cpu, quantile, tail, Metrics, Outcome, Tally,
};

/// One measured slice of a timed phase: a pass, or a fixed stretch of
/// a closed-loop load.
#[derive(Debug, Default, Clone, Copy)]
pub struct Window {
    /// Wall time of the slice.
    pub wall: Duration,
    /// Process CPU time of the slice (all threads).
    pub cpu: Duration,
    /// Ops completed in the slice.
    pub ops: u64,
}

/// Measurements of one timed phase.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// The slices the phase was measured in. Throughput and CPU per op
    /// are their medians, so a stretch the host slowed down moves them
    /// less than it moves a whole-phase average.
    pub windows: Vec<Window>,
    /// Latency of each unit of work the user waits on, in ms: one
    /// `dse::run` call, one pass over the proof roster, or one daemon
    /// request.
    pub latencies_ms: Vec<f64>,
    /// Parts of very different size that make up a unit (the proofs of
    /// a roster pass): `geomean_ms` weights each part equally. Empty
    /// when `geomean_ms` is taken over the units themselves.
    pub parts_ms: Vec<f64>,
}

impl Phase {
    /// Adds a window whose whole wall time is one unit of work.
    pub fn push(&mut self, window: Window) {
        self.latencies_ms.push(ms(window.wall));
        self.windows.push(window);
    }

    /// Median ops per second of wall time over the windows.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.ops as f64 / w.wall.as_secs_f64())
            .collect();
        median(&rates)
    }

    /// Median CPU milliseconds per op over the windows.
    #[must_use]
    pub fn cpu_ms_per_op(&self) -> f64 {
        let costs: Vec<f64> = self
            .windows
            .iter()
            .map(|w| ms(w.cpu) / w.ops as f64)
            .collect();
        median(&costs)
    }
}

/// Wall and CPU clocks started together.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    wall: Instant,
    cpu: Duration,
}

impl Clock {
    /// Starts both clocks.
    #[must_use]
    pub fn start() -> Self {
        Clock {
            wall: Instant::now(),
            cpu: process_cpu(),
        }
    }

    /// The window from the start until now, holding `ops` ops.
    #[must_use]
    pub fn window(&self, ops: u64) -> Window {
        Window {
            wall: self.wall.elapsed(),
            cpu: process_cpu() - self.cpu,
            ops,
        }
    }
}

/// Runs `f` as one window of `ops` ops.
pub fn measured<T>(ops: u64, f: impl FnOnce() -> T) -> (T, Window) {
    let clock = Clock::start();
    let out = f();
    (out, clock.window(ops))
}

/// Mean wall time of `f` over `items`, in ms per item.
pub fn ms_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t = Instant::now();
    for item in items {
        f(item);
    }
    ms(t.elapsed()) / items.len() as f64
}

/// Set-up time of a run: the interquartile mean of its repetitions
/// (the median of three). The host switches between a fast and a slow
/// state every few tens to hundreds of milliseconds, so a plain median
/// of short repetitions jumps between the two states; the interquartile
/// mean moves smoothly with the share of slow repetitions instead.
#[must_use]
pub fn setup_time(reps_s: &[f64]) -> f64 {
    let mut v = reps_s.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// The outcome of an untraced run: its tally and end-to-end metrics.
#[must_use]
pub fn end_to_end(setup_s: &[f64], phase: &Phase, tally: Tally) -> Outcome {
    let mut m = Metrics::default();
    m.put("setup_s", setup_time(setup_s), "s");
    m.put("peak_rss_mib", peak_rss_mib(), "MiB");
    m.put("ops_per_s", phase.ops_per_s(), "1/s");
    m.put("cpu_ms_per_op", phase.cpu_ms_per_op(), "ms");
    m.put("p50_ms", quantile(&phase.latencies_ms, 0.5), "ms");
    m.put("p99_ms", tail(&phase.latencies_ms), "ms");
    let parts = if phase.parts_ms.is_empty() {
        &phase.latencies_ms
    } else {
        &phase.parts_ms
    };
    m.put("geomean_ms", geomean(parts), "ms");
    Outcome {
        tally,
        metrics: m,
        latency_samples: phase.latencies_ms.len(),
    }
}

/// Untraced/traced order of a traced run's `round`: alternating, so
/// that position in the round cancels out: on a shared virtual machine
/// the second of two back-to-back passes often runs measurably faster.
#[must_use]
pub fn trace_order(round: usize) -> [bool; 2] {
    if round.is_multiple_of(2) {
        [false, true]
    } else {
        [true, false]
    }
}

/// Instrumentation overhead in percent: the throughput the traced
/// passes lost against the untraced passes they were interleaved with
/// (negative when the traced passes happened to run faster).
#[must_use]
pub fn overhead_pct(untraced_s: &[f64], traced_s: &[f64]) -> f64 {
    (1.0 - median(untraced_s) / median(traced_s)) * 100.0
}
