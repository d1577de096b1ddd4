//! Load generator: drives a real server instance over real sockets
//! with a deterministic mixed workload and measures per-request
//! latency, throughput, and the cold-vs-warm effect of the persistent
//! characterization store.
//!
//! The benchmark runs the same workload twice against the same cache
//! directory: a **cold** phase starting from an empty store, then a
//! **warm** phase with a fresh server process-equivalent (new
//! [`Service`], new in-memory cache) over the now-populated store. On a
//! fully persisted roster the warm phase must report **zero** cache
//! builds — every characterization is restored from disk.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use axmul_dse::Config;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::Client;
use crate::json::Value;
use crate::proto::Op;
use crate::server::{serve, Endpoints, ServerOptions};
use crate::service::Service;
use crate::storage::open_store;

/// Benchmark knobs.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Distinct 8×8 configurations in the request roster.
    pub roster: usize,
    /// Requests per phase, across all connections.
    pub requests: usize,
    /// Concurrent client connections.
    pub connections: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Workload seed (fixed → identical cold and warm workloads).
    pub seed: u64,
}

impl LoadgenOptions {
    /// CI-sized run: a couple thousand requests over a dozen configs.
    #[must_use]
    pub fn quick() -> Self {
        LoadgenOptions {
            roster: 12,
            requests: 2_000,
            connections: 4,
            workers: 4,
            seed: 0xD0C5,
        }
    }

    /// Full run: tens of thousands of requests over a broad roster.
    #[must_use]
    pub fn full() -> Self {
        LoadgenOptions {
            roster: 48,
            requests: 20_000,
            connections: 8,
            workers: 4,
            seed: 0xD0C5,
        }
    }
}

/// Latency digest for one request type.
#[derive(Debug, Clone)]
pub struct TypeLatency {
    /// Wire name of the request type.
    pub name: &'static str,
    /// Requests of this type issued.
    pub count: usize,
    /// Median latency in microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: u64,
}

/// One phase (cold or warm) of the benchmark.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// `"cold"` or `"warm"`.
    pub name: &'static str,
    /// Wall time of the request storm in seconds.
    pub elapsed_s: f64,
    /// Requests completed.
    pub requests: usize,
    /// Requests per second.
    pub throughput_rps: f64,
    /// Characterizations computed from scratch during the phase.
    pub builds: u64,
    /// Characterizations restored from the persistent store.
    pub disk_hits: u64,
    /// Overall latency digest.
    pub overall: TypeLatency,
    /// Per-request-type latency digests.
    pub per_type: Vec<TypeLatency>,
}

/// The full cold+warm benchmark result.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Options the run used.
    pub opts: LoadgenOptions,
    /// Cold-store phase.
    pub cold: PhaseReport,
    /// Warm-store phase.
    pub warm: PhaseReport,
}

impl BenchReport {
    /// Characterizations the warm phase computed from scratch; the
    /// headline number, asserted to be zero in CI.
    #[must_use]
    pub fn warm_builds(&self) -> u64 {
        self.warm.builds
    }

    /// Human-readable summary.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "serve-bench: {} requests/phase, {} configs, {} connections, {} workers\n",
            self.opts.requests, self.opts.roster, self.opts.connections, self.opts.workers
        ));
        for phase in [&self.cold, &self.warm] {
            s.push_str(&format!(
                "  {:<4}  {:>8.1} req/s  p50 {:>6} us  p99 {:>6} us  builds {:>4}  disk hits {:>4}\n",
                phase.name,
                phase.throughput_rps,
                phase.overall.p50_us,
                phase.overall.p99_us,
                phase.builds,
                phase.disk_hits
            ));
            for t in &phase.per_type {
                s.push_str(&format!(
                    "        {:<20} x{:<6} p50 {:>6} us  p99 {:>6} us\n",
                    t.name, t.count, t.p50_us, t.p99_us
                ));
            }
        }
        s.push_str(&format!(
            "  warm start: {} rebuilds (cold built {}), cold/warm p50 ratio {:.1}x\n",
            self.warm.builds,
            self.cold.builds,
            self.cold.overall.p50_us.max(1) as f64 / self.warm.overall.p50_us.max(1) as f64
        ));
        s
    }

    /// Machine-readable summary (the contents of `BENCH_serve.json`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let phase = |p: &PhaseReport| {
            let digest = |t: &TypeLatency| {
                Value::obj([
                    ("count", Value::Num(t.count as f64)),
                    ("p50_us", Value::Num(t.p50_us as f64)),
                    ("p99_us", Value::Num(t.p99_us as f64)),
                ])
            };
            let mut types: Vec<(String, Value)> = p
                .per_type
                .iter()
                .map(|t| (t.name.to_string(), digest(t)))
                .collect();
            types.push(("overall".to_string(), digest(&p.overall)));
            Value::obj([
                ("elapsed_s", Value::Num(p.elapsed_s)),
                ("requests", Value::Num(p.requests as f64)),
                ("throughput_rps", Value::Num(p.throughput_rps)),
                ("builds", Value::Num(p.builds as f64)),
                ("disk_hits", Value::Num(p.disk_hits as f64)),
                ("latency_us", Value::Obj(types.into_iter().collect())),
            ])
        };
        Value::obj([
            ("bench", Value::str("serve")),
            ("roster_configs", Value::Num(self.opts.roster as f64)),
            ("requests_per_phase", Value::Num(self.opts.requests as f64)),
            ("connections", Value::Num(self.opts.connections as f64)),
            ("workers", Value::Num(self.opts.workers as f64)),
            ("cold", phase(&self.cold)),
            ("warm", phase(&self.warm)),
            ("cold_builds", Value::Num(self.cold.builds as f64)),
            ("warm_builds", Value::Num(self.warm.builds as f64)),
            ("warm_disk_hits", Value::Num(self.warm.disk_hits as f64)),
        ])
        .to_string()
    }
}

/// Deterministic 8×8 roster: the paper's headline configurations first,
/// then seeded random configurations, deduplicated by key.
#[must_use]
pub fn roster(n: usize, seed: u64) -> Vec<Config> {
    let mut keys = std::collections::BTreeSet::new();
    let mut out: Vec<Config> = Vec::new();
    for key in [
        "(a A A A A)",
        "(c A A A A)",
        "(a X X X X)",
        "(c X T1 T2 T3)",
        "(a T3 A X X)",
    ] {
        let cfg: Config = key.parse().expect("paper config key");
        if keys.insert(cfg.key()) {
            out.push(cfg);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    while out.len() < n {
        let cfg = Config::random(8, &mut rng);
        if keys.insert(cfg.key()) {
            out.push(cfg);
        }
    }
    out.truncate(n);
    out
}

const TYPE_NAMES: [&str; 5] = [
    "characterize-config",
    "dse-query",
    "lint-netlist",
    "nn-classify-batch",
    "server-stats",
];

/// Picks the next operation of the mixed workload:
/// 60% characterize, 15% dse-query, 10% lint, 10% nn, 5% stats.
fn next_op(rng: &mut StdRng, keys: &[String], images: &[Vec<u8>]) -> (usize, Op) {
    let pick = |rng: &mut StdRng, keys: &[String]| keys[rng.random_range(0..keys.len())].clone();
    match rng.random_range(0..100u32) {
        0..=59 => (
            0,
            Op::Characterize {
                config: pick(rng, keys),
            },
        ),
        60..=74 => {
            let mut candidates = Vec::with_capacity(8);
            for _ in 0..8 {
                candidates.push(pick(rng, keys));
            }
            (1, Op::DseQuery { candidates })
        }
        75..=84 => (
            2,
            Op::Lint {
                config: pick(rng, keys),
            },
        ),
        85..=94 => {
            // Restrict NN backends to a handful of keys so product-table
            // tabulation stays a bounded, shared warm-up cost.
            let config = Some(keys[rng.random_range(0..keys.len().min(4))].clone());
            let start = rng.random_range(0..images.len().saturating_sub(4).max(1));
            (
                3,
                Op::NnClassify {
                    config,
                    images: images[start..start + 4].to_vec(),
                },
            )
        }
        _ => (4, Op::Stats),
    }
}

/// Runs one phase against `cache_dir` and digests the measurements.
fn run_phase(
    name: &'static str,
    cache_dir: &Path,
    opts: &LoadgenOptions,
    keys: &[String],
) -> Result<PhaseReport, String> {
    let store = open_store(Some(cache_dir)).map_err(|e| format!("open store: {e}"))?;
    let service = Service::new(Some(store));
    let handle = serve(
        service,
        &Endpoints {
            tcp_port: Some(0),
            unix_path: None,
        },
        &ServerOptions {
            workers: opts.workers,
            ..ServerOptions::default()
        },
    )
    .map_err(|e| format!("start server: {e}"))?;
    let addr = handle.tcp_addr().expect("tcp endpoint requested");

    let images: Vec<Vec<u8>> = axmul_nn::test_set().images[..64].to_vec();
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let samples: Mutex<Vec<Vec<(usize, u64)>>> = Mutex::new(Vec::new());
    let per_client = opts.requests / opts.connections.max(1);
    let started = Instant::now();
    std::thread::scope(|s| {
        for client_idx in 0..opts.connections {
            let failures = &failures;
            let samples = &samples;
            let images = &images;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(opts.seed ^ ((client_idx as u64) << 17));
                let mut local: Vec<(usize, u64)> = Vec::with_capacity(per_client);
                let mut client = match Client::connect_tcp(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        failures
                            .lock()
                            .expect("failure lock")
                            .push(format!("connect: {e}"));
                        return;
                    }
                };
                for _ in 0..per_client {
                    let (ty, op) = next_op(&mut rng, keys, images);
                    let t0 = Instant::now();
                    match client.call(op) {
                        Ok(_) => local.push((ty, t0.elapsed().as_micros() as u64)),
                        Err(e) => {
                            failures
                                .lock()
                                .expect("failure lock")
                                .push(format!("call: {e}"));
                            return;
                        }
                    }
                }
                samples.lock().expect("sample lock").push(local);
            });
        }
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let failures = failures.into_inner().expect("failure lock");
    if let Some(first) = failures.first() {
        return Err(format!(
            "{} request failures, first: {first}",
            failures.len()
        ));
    }

    // Phase counters come straight from the server's own stats op.
    let mut stats_client = Client::connect_tcp(addr).map_err(|e| format!("stats connect: {e}"))?;
    let stats = stats_client
        .call(Op::Stats)
        .map_err(|e| format!("stats call: {e}"))?;
    let cache = stats.get("cache").cloned().unwrap_or(Value::Null);
    let counter = |k: &str| cache.get(k).and_then(Value::as_u64).unwrap_or(0);
    let builds = counter("builds");
    let disk_hits = counter("disk_hits");
    // A worker serves a connection until the client hangs up or the
    // read timeout fires, and shutdown joins the workers: close the
    // stats connection first or shutdown waits out the timeout.
    drop(stats_client);
    handle.shutdown();

    let all: Vec<(usize, u64)> = samples.into_inner().expect("sample lock").concat();
    let digest = |name: &'static str, mut lat: Vec<u64>| {
        lat.sort_unstable();
        let p = |q: f64| {
            if lat.is_empty() {
                0
            } else {
                lat[((lat.len() - 1) as f64 * q) as usize]
            }
        };
        TypeLatency {
            name,
            count: lat.len(),
            p50_us: p(0.50),
            p99_us: p(0.99),
        }
    };
    let per_type = TYPE_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            digest(
                name,
                all.iter()
                    .filter(|(t, _)| *t == i)
                    .map(|&(_, us)| us)
                    .collect(),
            )
        })
        .collect();
    let overall = digest("overall", all.iter().map(|&(_, us)| us).collect());
    let requests = all.len();
    Ok(PhaseReport {
        name,
        elapsed_s,
        requests,
        throughput_rps: requests as f64 / elapsed_s.max(1e-9),
        builds,
        disk_hits,
        overall,
        per_type,
    })
}

/// Runs the full cold+warm benchmark in a scratch cache directory.
///
/// # Errors
///
/// Returns a description of the first failure (bind, connect, or any
/// request-level error — the benchmark tolerates none).
pub fn run(opts: &LoadgenOptions) -> Result<BenchReport, String> {
    let cache_dir = std::env::temp_dir().join(format!("axmul_serve_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let keys: Vec<String> = roster(opts.roster, opts.seed)
        .iter()
        .map(Config::key)
        .collect();
    let result = (|| {
        let cold = run_phase("cold", &cache_dir, opts, &keys)?;
        let warm = run_phase("warm", &cache_dir, opts, &keys)?;
        Ok(BenchReport {
            opts: opts.clone(),
            cold,
            warm,
        })
    })();
    let _ = std::fs::remove_dir_all(&cache_dir);
    result
}

/// One-connection smoke test over a Unix socket: starts a daemon,
/// issues one request of every type, and checks each response. Returns
/// the per-type one-line summaries.
///
/// # Errors
///
/// Returns a description of the first failed step.
pub fn smoke() -> Result<Vec<String>, String> {
    let dir = std::env::temp_dir();
    let socket = dir.join(format!("axmul_serve_smoke_{}.sock", std::process::id()));
    let cache_dir = dir.join(format!("axmul_serve_smoke_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let store = open_store(Some(&cache_dir)).map_err(|e| format!("open store: {e}"))?;
    let handle = serve(
        Service::new(Some(store)),
        &Endpoints {
            tcp_port: None,
            unix_path: Some(socket.clone()),
        },
        &ServerOptions::default(),
    )
    .map_err(|e| format!("start server: {e}"))?;

    let run = || -> Result<Vec<String>, String> {
        let mut client = Client::connect_unix(&socket).map_err(|e| format!("connect: {e}"))?;
        let mut lines = Vec::new();
        let images = axmul_nn::test_set().images[..4].to_vec();
        let ops = [
            Op::Characterize {
                config: "(c X T1 T2 T3)".into(),
            },
            Op::Lint {
                config: "(a A A A A)".into(),
            },
            Op::NnClassify {
                config: Some("(c A A A A)".into()),
                images,
            },
            Op::DseQuery {
                candidates: vec!["(a A A A A)".into(), "(c X X X X)".into()],
            },
            Op::Stats,
        ];
        for op in ops {
            let name = op.type_name();
            let result = client.call(op).map_err(|e| format!("{name}: {e}"))?;
            let note = match name {
                "characterize-config" => format!(
                    "luts={}",
                    result
                        .get("cost")
                        .and_then(|c| c.get("luts"))
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("{name}: missing cost.luts"))?
                ),
                "lint-netlist" => format!(
                    "errors={}",
                    result
                        .get("errors")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("{name}: missing errors"))?
                ),
                "nn-classify-batch" => format!(
                    "predictions={}",
                    result
                        .get("predictions")
                        .and_then(Value::as_arr)
                        .map(<[Value]>::len)
                        .ok_or_else(|| format!("{name}: missing predictions"))?
                ),
                "dse-query" => format!(
                    "reports={}",
                    result
                        .get("reports")
                        .and_then(Value::as_arr)
                        .map(<[Value]>::len)
                        .ok_or_else(|| format!("{name}: missing reports"))?
                ),
                _ => format!(
                    "requests={}",
                    result
                        .get("requests")
                        .and_then(|r| r.get("characterize-config"))
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("{name}: missing request counters"))?
                ),
            };
            lines.push(format!("{name}: ok ({note})"));
        }
        Ok(lines)
    };
    let result = run();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::READ_TIMEOUT;

    #[test]
    fn phase_shuts_down_well_inside_the_read_timeout() {
        let opts = LoadgenOptions {
            roster: 2,
            requests: 40,
            connections: 2,
            workers: 2,
            seed: 7,
        };
        let keys: Vec<String> = roster(opts.roster, opts.seed)
            .iter()
            .map(Config::key)
            .collect();
        let cache_dir =
            std::env::temp_dir().join(format!("axmul_phase_shutdown_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let started = Instant::now();
        let phase = run_phase("cold", &cache_dir, &opts, &keys);
        let elapsed = started.elapsed();
        let _ = std::fs::remove_dir_all(&cache_dir);
        assert_eq!(phase.expect("phase runs").requests, 40);
        assert!(
            elapsed < READ_TIMEOUT / 2,
            "phase took {elapsed:?}: shutdown waited on an open connection"
        );
    }

    #[test]
    fn roster_is_deterministic_and_deduplicated() {
        let a = roster(12, 7);
        let b = roster(12, 7);
        let keys: Vec<String> = a.iter().map(Config::key).collect();
        assert_eq!(keys, b.iter().map(Config::key).collect::<Vec<_>>());
        let set: std::collections::BTreeSet<_> = keys.iter().collect();
        assert_eq!(set.len(), keys.len());
        assert!(a.iter().all(|c| c.bits() == 8));
    }

    #[test]
    fn workload_mix_covers_every_request_type() {
        let keys: Vec<String> = roster(6, 1).iter().map(Config::key).collect();
        let images = vec![vec![0u8; 64]; 8];
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [0usize; 5];
        for _ in 0..1_000 {
            let (ty, _) = next_op(&mut rng, &keys, &images);
            seen[ty] += 1;
        }
        assert!(seen.iter().all(|&c| c > 0), "{seen:?}");
        assert!(seen[0] > seen[1], "characterize dominates: {seen:?}");
    }
}
