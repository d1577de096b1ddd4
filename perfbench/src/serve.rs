//! `serve-mixed`: the characterization daemon under a closed-loop mixed
//! load over TCP — the only workload that runs transport, protocol,
//! lint and NN inference. An op is one answered request.

use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use axmul_dse::{CharCache, Config};
use axmul_fabric::cost::Characterizer;
use axmul_nn::{infer_batch, reference_model, ProductTable};
use axmul_serve::json::Value;
use axmul_serve::proto::{parse_request, render_request, Request};
use axmul_serve::{loadgen, serve, Client, Endpoints, Op, ServerHandle, ServerOptions, Service};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::measure::{median, ms, quantile, release_free_memory, tail, Metrics, Outcome, Tally};
use crate::phase::{end_to_end, overhead_pct, trace_order, Clock, Phase, Window};

/// Distinct 8×8 configurations in the request roster.
const ROSTER: usize = 48;
/// Seed of the roster: loadgen's own, so every run serves the same
/// configurations and `--seed` varies only the request stream.
const ROSTER_SEED: u64 = 0xD0C5;
/// Daemon start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Configurations the NN requests draw their backend from.
const NN_KEYS: usize = 4;
/// Images per NN request.
const BATCH: usize = 4;
/// Daemon worker threads.
pub const WORKERS: usize = 2;

/// Wire names of the request types, in the order `next_op` numbers them.
const TYPES: [&str; 5] = [
    "characterize-config",
    "dse-query",
    "lint-netlist",
    "nn-classify-batch",
    "server-stats",
];

/// Interleaved untraced/traced load phases of a traced run.
const TRACE_ROUNDS: usize = 2;
/// Length of one measured slice of a load phase.
const WINDOW: Duration = Duration::from_millis(500);
/// Length of one traced-run load phase.
const TRACE_PHASE: Duration = Duration::from_millis(1500);

/// The request roster and the in-process answers every response is
/// checked against.
pub struct Workload {
    keys: Vec<String>,
    images: Vec<Vec<u8>>,
    /// Per key: the characterization fields a response must state.
    chars: HashMap<String, [f64; 8]>,
    /// Per NN key: predictions for every image of `images`.
    predictions: HashMap<String, Vec<u8>>,
}

fn char_fields(c: &axmul_dse::BlockChar) -> [f64; 8] {
    [
        c.cost.area.luts as f64,
        c.cost.critical_path_ns,
        c.cost.energy_per_op,
        c.cost.edp,
        c.stats.avg_error,
        c.stats.avg_relative_error,
        c.stats.max_error as f64,
        c.stats.error_probability,
    ]
}

fn value_fields(cost: &Value, stats: &Value) -> Option<[f64; 8]> {
    let c = |k: &str| cost.get(k).and_then(Value::as_f64);
    let s = |k: &str| stats.get(k).and_then(Value::as_f64);
    Some([
        c("luts")?,
        c("critical_path_ns")?,
        c("energy_per_op")?,
        c("edp")?,
        s("avg_error")?,
        s("avg_relative_error")?,
        s("max_error")?,
        s("error_probability")?,
    ])
}

fn report_fields(r: &Value) -> Option<[f64; 8]> {
    value_fields(r, r)
}

impl Workload {
    /// Builds the roster and the expected answers, computed in-process
    /// on a `CharCache` of its own.
    ///
    /// # Errors
    ///
    /// Fails when a roster configuration cannot be characterized.
    pub fn new() -> Result<Self, String> {
        let keys: Vec<String> = loadgen::roster(ROSTER, ROSTER_SEED)
            .iter()
            .map(Config::key)
            .collect();
        let images = axmul_nn::test_set().images[..64].to_vec();
        let cache = CharCache::new(Characterizer::virtex7());
        let mut chars = HashMap::new();
        let mut predictions = HashMap::new();
        for (i, key) in keys.iter().enumerate() {
            let cfg: Config = key.parse().map_err(|e| format!("{key}: {e}"))?;
            let c = cache
                .characterize(&cfg)
                .map_err(|e| format!("characterize {key}: {e}"))?;
            chars.insert(key.clone(), char_fields(&c));
            if i < NN_KEYS {
                let table = ProductTable::new(&c.multiplier()).map_err(|e| e.to_string())?;
                let p = infer_batch(reference_model(), &table, &images, 1)
                    .map_err(|e| e.to_string())?;
                predictions.insert(key.clone(), p);
            }
        }
        Ok(Workload {
            keys,
            images,
            chars,
            predictions,
        })
    }

    /// Loadgen's mix: 60 % characterize, 15 % dse-query, 10 % lint,
    /// 10 % NN batch, 5 % server-stats. Returns the type index, the op
    /// and, for NN batches, the first image.
    fn next_op(&self, rng: &mut StdRng) -> (usize, Op, usize) {
        let keys = &self.keys;
        let pick = |rng: &mut StdRng| keys[rng.random_range(0..keys.len())].clone();
        match rng.random_range(0..100u32) {
            0..=59 => (0, Op::Characterize { config: pick(rng) }, 0),
            60..=74 => (
                1,
                Op::DseQuery {
                    candidates: (0..8).map(|_| pick(rng)).collect(),
                },
                0,
            ),
            75..=84 => (2, Op::Lint { config: pick(rng) }, 0),
            85..=94 => {
                let config = Some(keys[rng.random_range(0..NN_KEYS)].clone());
                let start = rng.random_range(0..self.images.len() - BATCH);
                let images = self.images[start..start + BATCH].to_vec();
                (3, Op::NnClassify { config, images }, start)
            }
            _ => (4, Op::Stats, 0),
        }
    }

    /// Set-up requests: characterize the whole roster, then one NN batch
    /// per NN backend (which tabulates its product table).
    fn warm_up(&self) -> impl Iterator<Item = Op> + '_ {
        let characterize = self
            .keys
            .iter()
            .map(|k| Op::Characterize { config: k.clone() });
        let nn = self.keys[..NN_KEYS].iter().map(|k| Op::NnClassify {
            config: Some(k.clone()),
            images: self.images[..BATCH].to_vec(),
        });
        characterize.chain(nn)
    }

    /// Whether `result` is the right answer to `op`.
    fn check(&self, op: &Op, start: usize, result: &Value) -> bool {
        match op {
            Op::Characterize { config } => {
                let got = result
                    .get("cost")
                    .zip(result.get("stats"))
                    .and_then(|(c, s)| value_fields(c, s));
                got.is_some() && got.as_ref() == self.chars.get(config)
            }
            Op::DseQuery { candidates } => {
                let mut unique = candidates.clone();
                unique.sort();
                unique.dedup();
                result
                    .get("reports")
                    .and_then(Value::as_arr)
                    .is_some_and(|reports| {
                        reports.len() == unique.len()
                            && reports.iter().all(|r| {
                                let key = r.get("key").and_then(Value::as_str).unwrap_or("");
                                report_fields(r).is_some()
                                    && report_fields(r).as_ref() == self.chars.get(key)
                            })
                    })
            }
            Op::Lint { config } => {
                result.get("netlist").and_then(Value::as_str).is_some()
                    && result.get("render_error").is_none()
                    && self.chars.contains_key(config)
            }
            Op::NnClassify { config, .. } => {
                let want = config
                    .as_ref()
                    .and_then(|k| self.predictions.get(k))
                    .map(|p| &p[start..start + BATCH]);
                let got: Option<Vec<u8>> = result
                    .get("predictions")
                    .and_then(Value::as_arr)
                    .and_then(|ps| {
                        ps.iter()
                            .map(|p| p.as_u64().and_then(|v| u8::try_from(v).ok()))
                            .collect()
                    });
                want.is_some() && got.as_deref() == want
            }
            Op::Stats => result.get("uptime_s").is_some(),
            _ => false,
        }
    }
}

/// A running daemon and its connected clients.
pub struct Daemon {
    handle: ServerHandle,
    clients: Vec<Client>,
}

impl Daemon {
    /// Set-up: starts a daemon with no persistent store, connects the
    /// clients, characterizes the whole roster cold over the wire and
    /// warms the NN backends, checking every answer.
    ///
    /// # Errors
    ///
    /// Fails when the daemon cannot start or a client cannot connect.
    pub fn start(w: &Workload, clients: usize, tally: &mut Tally) -> Result<Self, String> {
        let handle = serve(
            Service::new(None),
            &Endpoints {
                tcp_port: Some(0),
                unix_path: None,
            },
            &ServerOptions {
                workers: WORKERS,
                ..ServerOptions::default()
            },
        )
        .map_err(|e| format!("start daemon: {e}"))?;
        let addr: SocketAddr = handle.tcp_addr().ok_or("daemon has no TCP endpoint")?;
        let mut daemon = Daemon {
            handle,
            clients: Vec::new(),
        };
        for _ in 0..clients {
            daemon
                .clients
                .push(Client::connect_tcp(addr).map_err(|e| format!("connect: {e}"))?);
        }
        let client = &mut daemon.clients[0];
        for op in w.warm_up() {
            let ok = client
                .call(op.clone())
                .is_ok_and(|result| w.check(&op, 0, &result));
            tally.check(ok);
        }
        Ok(daemon)
    }

    /// Characterizations the daemon has built so far.
    #[must_use]
    pub fn builds(&self) -> u64 {
        self.handle.service().cache().builds()
    }

    /// Drops every client first, so no open connection holds a worker
    /// through its read timeout, then stops the daemon.
    pub fn stop(self) {
        drop(self.clients);
        self.handle.shutdown();
    }
}

/// One closed-loop load phase.
#[derive(Debug, Default)]
pub struct Load {
    /// Wall time of the phase.
    pub wall: Duration,
    /// The phase cut into `WINDOW`-long slices.
    pub windows: Vec<Window>,
    /// `(type index, latency in ms)` of every answered request.
    pub samples: Vec<(usize, f64)>,
    /// `(type index, request payload)` of every request, when recorded.
    pub payloads: Vec<(usize, Vec<u8>)>,
}

/// Drives every client in a closed loop for `length`, checking each
/// answer. With `record`, every request payload is kept for replay.
pub fn load(
    daemon: &mut Daemon,
    w: &Workload,
    seed: u64,
    length: Duration,
    record: bool,
    tally: &mut Tally,
) -> Load {
    let started = Instant::now();
    let deadline = started + length;
    let answered = AtomicU64::new(0);
    let mut windows = Vec::new();
    let per_client: Vec<(Load, Tally)> = std::thread::scope(|s| {
        let answered = &answered;
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ ((i as u64) << 17));
                    let mut out = Load::default();
                    let mut tally = Tally::default();
                    while Instant::now() < deadline {
                        let (ty, op, start) = w.next_op(&mut rng);
                        if record {
                            let req = Request {
                                id: 1,
                                op: op.clone(),
                            };
                            out.payloads.push((ty, render_request(&req)));
                        }
                        let t = Instant::now();
                        let answer = client.call(op.clone());
                        let took = ms(t.elapsed());
                        let ok = answer.is_ok_and(|result| w.check(&op, start, &result));
                        answered.fetch_add(1, Ordering::Relaxed);
                        tally.check(ok);
                        if ok {
                            out.samples.push((ty, took));
                        }
                    }
                    (out, tally)
                })
            })
            .collect();
        let mut clock = Clock::start();
        let mut counted = 0;
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
            std::thread::sleep(left.min(WINDOW));
            let done = answered.load(Ordering::Relaxed);
            windows.push(clock.window(done - counted));
            counted = done;
            clock = Clock::start();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Load {
        wall: started.elapsed(),
        windows,
        ..Load::default()
    };
    for (l, t) in per_client {
        all.samples.extend(l.samples);
        all.payloads.extend(l.payloads);
        tally.merge(t);
    }
    all
}

/// Whether a response payload is a success envelope.
fn is_success(response: &[u8]) -> bool {
    std::str::from_utf8(response)
        .ok()
        .and_then(|text| axmul_serve::json::parse(text).ok())
        .and_then(|v| v.get("ok").and_then(Value::as_bool))
        == Some(true)
}

/// Client threads: never more than the cores available.
#[must_use]
pub fn clients() -> usize {
    crate::measure::nproc().clamp(1, 2)
}

/// The untraced run: `SETUP_REPS` daemon start-ups (the last one stays
/// up), then the closed-loop mixed load for `seconds`.
///
/// # Errors
///
/// Fails when the daemon cannot start.
pub fn run_untraced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let w = Workload::new()?;
    let mut tally = Tally::default();
    let mut setup = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for _ in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            d.stop();
            release_free_memory();
        }
        let t = Instant::now();
        daemon = Some(Daemon::start(&w, clients(), &mut tally)?);
        setup.push(t.elapsed().as_secs_f64());
    }
    let mut daemon = daemon.expect("at least one set-up");
    let builds = daemon.builds();
    let l = load(
        &mut daemon,
        &w,
        seed,
        Duration::from_secs_f64(seconds),
        false,
        &mut tally,
    );
    let phase = Phase {
        windows: l.windows,
        latencies_ms: l.samples.iter().map(|s| s.1).collect(),
        parts_ms: Vec::new(),
    };
    // A warm daemon serves the whole timed phase from its cache.
    tally.check(daemon.builds() == builds);
    daemon.stop();
    Ok(end_to_end(&setup, &phase, tally))
}

/// The traced run: per-op latency over the wire and inside the service,
/// protocol parse/render cost, builds during the timed load, and the
/// overhead of recording payloads.
///
/// # Errors
///
/// Fails when the daemon cannot start.
pub fn run_traced(seed: u64) -> Result<Outcome, String> {
    let w = Workload::new()?;
    let mut tally = Tally::default();
    let mut daemon = Daemon::start(&w, clients(), &mut tally)?;
    let builds = daemon.builds();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut recorded = Load::default();
    for round in 0..TRACE_ROUNDS {
        for record in trace_order(round) {
            let l = load(
                &mut daemon,
                &w,
                seed ^ round as u64,
                TRACE_PHASE,
                record,
                &mut tally,
            );
            let s_per_op = l.wall.as_secs_f64() / l.samples.len().max(1) as f64;
            if record {
                traced.push(s_per_op);
                recorded.samples.extend(l.samples);
                recorded.payloads.extend(l.payloads);
            } else {
                untraced.push(s_per_op);
            }
        }
    }
    let timed_builds = daemon.builds() - builds;
    daemon.stop();

    // The same payloads through a second, equally warmed service.
    let service = Service::new(None);
    for op in w.warm_up() {
        let payload = render_request(&Request { id: 1, op });
        tally.check(is_success(&service.handle_payload(&payload)));
    }
    let mut service_ms: Vec<(usize, f64)> = Vec::with_capacity(recorded.payloads.len());
    for (ty, payload) in &recorded.payloads {
        let t = Instant::now();
        let response = service.handle_payload(payload);
        service_ms.push((*ty, ms(t.elapsed())));
        tally.check(is_success(&response));
    }

    let mut metrics = Metrics::default();
    let of_type = |xs: &[(usize, f64)], ty: usize| -> Vec<f64> {
        xs.iter().filter(|s| s.0 == ty).map(|s| s.1).collect()
    };
    for (ty, name) in TYPES.iter().enumerate() {
        let wire = of_type(&recorded.samples, ty);
        let inside = of_type(&service_ms, ty);
        if wire.is_empty() || inside.is_empty() {
            tally.check(false);
            continue;
        }
        metrics.put(format!("serve.{name}.p50_ms"), quantile(&wire, 0.5), "ms");
        metrics.put(format!("serve.{name}.p99_ms"), tail(&wire), "ms");
        metrics.put(
            format!("serve.{name}.service_p50_ms"),
            quantile(&inside, 0.5),
            "ms",
        );
    }
    let wire: Vec<f64> = recorded.samples.iter().map(|s| s.1).collect();
    let inside: Vec<f64> = service_ms.iter().map(|s| s.1).collect();
    metrics.put("serve.wire_p50_ms", median(&wire) - median(&inside), "ms");

    let t = Instant::now();
    let requests: Vec<Request> = recorded
        .payloads
        .iter()
        .filter_map(|(_, p)| parse_request(p).ok())
        .collect();
    let parse_us = t.elapsed().as_secs_f64() * 1e6 / recorded.payloads.len() as f64;
    tally.add(
        recorded.payloads.len() as u64,
        recorded.payloads.len().abs_diff(requests.len()) as u64,
    );
    let t = Instant::now();
    for req in &requests {
        black_box(render_request(black_box(req)));
    }
    let render_us = t.elapsed().as_secs_f64() * 1e6 / requests.len() as f64;
    metrics.put("proto.parse_us", parse_us, "us");
    metrics.put("proto.render_us", render_us, "us");
    metrics.put("dse.timed_builds", timed_builds as f64, "count");
    metrics.put("trace.overhead_pct", overhead_pct(&untraced, &traced), "%");
    Ok(Outcome::traced(tally, metrics))
}
