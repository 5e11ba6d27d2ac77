//! The serve probe: an open Poisson loop against an in-process
//! [`Server`] (workers = threads) over `threads` keep-alive connections,
//! run inside the traced `batch_classes` run to measure the wire-format
//! (`sea-cli::manifest`) and service (`sea-serve`) layers.
//!
//! 95% of requests go to a small hot set of 40×40 families (warm-start
//! cache reads); 5% go to fresh families (cold solves, cache inserts, and
//! evictions under a byte budget smaller than the working set).
//!
//! Serving is a probe rather than a workload of its own: on a shared
//! two-vCPU machine its request latencies are dominated by thread
//! wake-ups and host steal, and their medians moved by more than any
//! usable regression bound from one run to the next.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sea_batch::{solve_instance, BatchOptions, WarmStartCache};
use sea_observe::json::parse as parse_json;
use sea_serve::{ServeConfig, Server};

use crate::http::{self, quantile_between, Conn, Scrape};
use crate::report::Outcome;
use crate::{stats, Scale};

/// Stopping tolerance the server is configured with.
pub const EPSILON: f64 = 1e-8;
/// Offered rate of the probe window, requests per second (about a third
/// of what two connections carry on a quiet two-vCPU machine).
pub const RATE: f64 = 1000.0;
/// Lag growth (last quarter of a window against the first) that counts
/// as a growing backlog, milliseconds.
pub const BACKLOG_MS: f64 = 25.0;
/// Share of requests that go to a fresh family.
const FRESH_SHARE: f64 = 0.05;
/// Hot families.
const HOT: usize = 16;
/// Distinct fresh priors (each fresh request still has its own family).
const TEMPLATES: usize = 8;
/// Warm-start cache budget: the hot set plus about eight fresh entries,
/// well below the working set, so fresh families evict each other.
const CACHE_BYTES: usize = 10_000;

/// Matrix order of every request at a scale.
pub fn order(scale: Scale) -> usize {
    match scale {
        Scale::Full => 40,
        Scale::Small => 6,
    }
}

/// A request body's instance fields after `"family"`: a prior with
/// heterogeneous entries and exactly balanced fixed totals.
fn tail(rng: &mut ChaCha8Rng, n: usize) -> String {
    let mut matrix = String::from("[");
    for i in 0..n {
        matrix.push_str(if i > 0 { ",[" } else { "[" });
        for j in 0..n {
            if j > 0 {
                matrix.push(',');
            }
            let phase = (i * n + j) % 7;
            let v: f64 = (1.0 + phase as f64) * rng.random_range(0.9..1.1);
            matrix.push_str(&format!("{v:.6}"));
        }
        matrix.push(']');
    }
    matrix.push(']');
    let s0: Vec<f64> = (0..n)
        .map(|i| (20.0 + 3.0 * (i % 7) as f64) * rng.random_range(0.9..1.1))
        .collect();
    let grand: f64 = s0.iter().sum();
    let mut d0: Vec<f64> = (0..n).map(|j| 30.0 - 4.0 * (j % 7) as f64).collect();
    let dsum: f64 = d0.iter().sum();
    for d in &mut d0 {
        *d *= grand / dsum;
    }
    d0[0] += grand - d0.iter().sum::<f64>();
    // `{x}` round-trips, so the exact balance survives serialization.
    let list = |v: &[f64]| {
        let items: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
        format!("[{}]", items.join(","))
    };
    format!(
        "\"weights\":\"chi2\",\"matrix\":{matrix},\"row_totals\":{},\"col_totals\":{}}}",
        list(&s0),
        list(&d0)
    )
}

/// The request bodies a probe draws from.
pub struct Bodies {
    hot: Vec<String>,
    templates: Vec<String>,
    seed: u64,
}

impl Bodies {
    /// Hot and fresh-template bodies of `order`×`order` priors from `seed`.
    pub fn generate(seed: u64, order: usize) -> Bodies {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Bodies {
            hot: (0..HOT).map(|_| tail(&mut rng, order)).collect(),
            templates: (0..TEMPLATES).map(|_| tail(&mut rng, order)).collect(),
            seed,
        }
    }

    /// The body of request `id` for a pick (hot index, or fresh template).
    fn body(&self, id: usize, pick: Pick) -> String {
        match pick {
            Pick::Hot(h) => format!("{{\"id\":\"r{id}\",\"family\":\"hot-{h}\",{}", self.hot[h]),
            Pick::Fresh(t) => format!(
                "{{\"id\":\"r{id}\",\"family\":\"fresh-{}-{id}\",{}",
                self.seed, self.templates[t]
            ),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Pick {
    Hot(usize),
    Fresh(usize),
}

/// One scheduled request: when it is due (seconds from the window start)
/// and which body it carries.
struct Due {
    at: f64,
    id: usize,
    pick: Pick,
}

/// A Poisson schedule at `rate` over `seconds`; ids continue from
/// `first_id` so fresh families never repeat within a run.
fn schedule(rng: &mut ChaCha8Rng, rate: f64, seconds: f64, first_id: usize) -> Vec<Due> {
    let mut out = Vec::new();
    let mut at = 0.0;
    loop {
        let u: f64 = rng.random_range(f64::EPSILON..1.0);
        at += -u.ln() / rate;
        if at >= seconds {
            return out;
        }
        let pick = if rng.random_range(0.0..1.0) < FRESH_SHARE {
            Pick::Fresh(rng.random_range(0..TEMPLATES))
        } else {
            Pick::Hot(rng.random_range(0..HOT))
        };
        out.push(Due {
            at,
            id: first_id + out.len(),
            pick,
        });
    }
}

/// What one answered request reported.
#[derive(Debug, Clone, Default)]
struct Answer {
    /// Send time − due time, milliseconds.
    lag_ms: f64,
    /// Why the answer failed its check, if it did.
    error: Option<String>,
    kernel_work: f64,
    work_saved: f64,
}

/// The numeric value after `"key":` in a flat JSON body.
fn field(body: &str, key: &str) -> f64 {
    body.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Outcome of one open-loop window.
pub struct Window {
    answers: Vec<Answer>,
    /// Whether the generator fell steadily further behind its schedule:
    /// over the last quarter of the window it ran later than over the
    /// first quarter by more than [`BACKLOG_MS`].
    pub backlog: bool,
}

impl Window {
    /// Generator lag percentile (send time − due time), milliseconds.
    pub fn lag_ms(&self, q: f64) -> f64 {
        let lags: Vec<f64> = self.answers.iter().map(|a| a.lag_ms).collect();
        stats::percentile(&lags, q)
    }
}

/// The load generator: one seeded schedule, fanned out over keep-alive
/// connections that stay open across windows.
pub struct Load<'a> {
    addr: SocketAddr,
    bodies: &'a Bodies,
    rng: ChaCha8Rng,
    next_id: usize,
    pool: Vec<Option<Conn>>,
}

impl<'a> Load<'a> {
    /// A generator against `addr` drawing from `bodies`.
    pub fn new(addr: SocketAddr, bodies: &'a Bodies, seed: u64, conns: usize) -> Load<'a> {
        Load {
            addr,
            bodies,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5E4E_D1C7),
            next_id: HOT,
            pool: (0..conns.max(1))
                .map(|_| Conn::connect(addr).ok())
                .collect(),
        }
    }

    /// Drive one open-loop window of `seconds` at `rate`: each request is
    /// sent when due, or as soon as a connection frees up. Every answer
    /// is checked (200 and converged) and counted into `out`.
    pub fn drive(&mut self, rate: f64, seconds: f64, out: &mut Outcome) -> Window {
        let dues = schedule(&mut self.rng, rate, seconds, self.next_id);
        self.next_id += dues.len();
        let (addr, bodies) = (self.addr, self.bodies);
        let answers = Mutex::new(vec![Answer::default(); dues.len()]);
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for conn in &mut self.pool {
                let (dues, answers, next) = (&dues, &answers, &next);
                scope.spawn(move || {
                    while let Some(due) = dues.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let body = bodies.body(due.id, due.pick);
                        let due_at = start + Duration::from_secs_f64(due.at);
                        if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let mut answer = Answer {
                            lag_ms: 1e3
                                * Instant::now()
                                    .saturating_duration_since(due_at)
                                    .as_secs_f64(),
                            ..Answer::default()
                        };
                        let reply = match conn.as_mut() {
                            Some(c) => c.exchange("POST", "/solve", &body),
                            None => Err(std::io::ErrorKind::NotConnected.into()),
                        };
                        match reply {
                            Ok((200, text)) if text.contains("\"stop\":\"converged\"") => {
                                answer.kernel_work = field(&text, "kernel_work");
                                answer.work_saved = field(&text, "work_saved");
                            }
                            Ok((status, text)) => {
                                answer.error = Some(format!("status {status}: {text}"))
                            }
                            Err(e) => {
                                answer.error = Some(format!("request error: {e}"));
                                *conn = Conn::connect(addr).ok();
                            }
                        }
                        let k = due.id - dues[0].id;
                        answers.lock().expect("answer list lock")[k] = answer;
                    }
                });
            }
        });
        let answers = answers.into_inner().expect("answer list lock");
        for a in &answers {
            out.tally
                .record(a.error.is_none(), || a.error.clone().unwrap_or_default());
        }
        let quarter = answers.len() / 4;
        let lag =
            |part: &[Answer]| stats::median(&part.iter().map(|a| a.lag_ms).collect::<Vec<_>>());
        let backlog = quarter > 0
            && lag(&answers[answers.len() - quarter..]) - lag(&answers[..quarter]) > BACKLOG_MS;
        Window { answers, backlog }
    }
}

/// Bind a server and wait until `/readyz` answers 200.
pub fn bind(threads: usize) -> std::io::Result<Server> {
    let server = Server::bind(ServeConfig {
        workers: threads,
        epsilon: EPSILON,
        cache_bytes: Some(CACHE_BYTES),
        ..ServeConfig::default()
    })?;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok((200, _)) = http::get(server.addr(), "/readyz") {
            return Ok(server);
        }
        if Instant::now() > deadline {
            server.shutdown();
            server.join();
            return Err(std::io::Error::other("server never became ready"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Run the probe for `seconds` and set the serve and wire-format layer
/// metrics in `out`.
pub fn probe(seed: u64, scale: Scale, seconds: f64, threads: usize, out: &mut Outcome) {
    let server = match bind(threads) {
        Ok(s) => s,
        Err(e) => return out.tally.record(false, || format!("bind: {e}")),
    };
    let addr = server.addr();
    let bodies = Bodies::generate(seed, order(scale));
    out.meta_num("serve_order", order(scale) as f64);
    out.meta_num("serve_rate", RATE);
    out.meta_num("serve_fresh_share", FRESH_SHARE);
    out.meta_num("serve_cache_bytes", CACHE_BYTES as f64);

    // Fill the hot set so the window reads the cache.
    match Conn::connect(addr) {
        Ok(mut conn) => {
            for h in 0..HOT {
                let reply = conn.exchange("POST", "/solve", &bodies.body(h, Pick::Hot(h)));
                let ok = matches!(&reply, Ok((200, t)) if t.contains("\"stop\":\"converged\""));
                out.tally.record(ok, || format!("warm-up: {reply:?}"));
            }
        }
        Err(e) => out.tally.record(false, || format!("connect: {e}")),
    }

    let mut load = Load::new(addr, &bodies, seed, threads);
    let before = Scrape::take(addr);
    let w = load.drive(RATE, seconds, out);
    let after = Scrape::take(addr);
    drop(load);
    server.shutdown();
    server.join();

    let delta = |name: &str, label: &str| after.sum(name, label) - before.sum(name, label);
    let (wait_before, wait_after) = (
        before.buckets("sea_serve_queue_wait_seconds"),
        after.buckets("sea_serve_queue_wait_seconds"),
    );
    out.set(
        "queue.wait_p50_ms",
        1e3 * quantile_between(&wait_before, &wait_after, 0.5),
    );
    out.set(
        "queue.wait_p99_ms",
        1e3 * quantile_between(&wait_before, &wait_after, 0.99),
    );
    let solves = delta("sea_solves_total", "");
    if solves > 0.0 {
        out.set(
            "serve.solve_mean_ms",
            1e3 * delta("sea_solve_seconds_total", "") / solves,
        );
    }
    out.set("serve.shed", delta("sea_serve_shed_total", ""));
    out.set(
        "cache.evictions",
        delta("sea_serve_cache_evictions_total", ""),
    );
    let hits = delta("sea_serve_warm_total", "result=\"hit\"");
    let misses = delta("sea_serve_warm_total", "result=\"miss\"");
    out.set("serve.hit_ratio", hits / (hits + misses).max(1.0));
    out.set("client.lag_ms", w.lag_ms(0.99));
    let saved: f64 = w.answers.iter().map(|a| a.work_saved).sum();
    let spent: f64 = w.answers.iter().map(|a| a.kernel_work).sum();
    out.meta_num("serve_work_saved_ratio", saved / (saved + spent).max(1.0));
    out.meta_num("serve_requests", w.answers.len() as f64);
    out.meta_str(
        "serve_backlog",
        if w.backlog { "growing" } else { "steady" },
    );
    wire_format(&bodies, out);
}

/// Time the wire format on the probe's own bodies: parsing a request
/// into an instance, and rendering a solved instance's result line.
fn wire_format(bodies: &Bodies, out: &mut Outcome) {
    const REPS: usize = 20;
    let texts: Vec<String> = (0..HOT)
        .map(|h| bodies.body(h, Pick::Hot(h)))
        .chain((0..TEMPLATES).map(|t| bodies.body(HOT + t, Pick::Fresh(t))))
        .collect();
    let mut parse_us = Vec::new();
    let mut serialize_us = Vec::new();
    let opts = BatchOptions {
        epsilon: EPSILON,
        ..BatchOptions::default()
    };
    let cache = WarmStartCache::new();
    for text in &texts {
        let mut instance = None;
        for _ in 0..REPS {
            let t = Instant::now();
            let parsed = parse_json(text)
                .map_err(|e| e.to_string())
                .and_then(|v| sea_cli::instance_from_json(&v, 1).map_err(|e| e.to_string()));
            parse_us.push(1e6 * t.elapsed().as_secs_f64());
            instance = Some(parsed);
        }
        let inst = match instance.expect("at least one parse") {
            Ok(i) => i,
            Err(e) => {
                out.tally.record(false, || format!("parse: {e}"));
                continue;
            }
        };
        let (report, _) = solve_instance(&inst, &opts, &cache, &mut sea_core::NullObserver);
        out.tally
            .record(report.outcome.as_ref().is_ok_and(|s| s.converged()), || {
                format!("wire-format solve of {}", inst.id)
            });
        for _ in 0..REPS {
            let t = Instant::now();
            std::hint::black_box(sea_cli::result_line(&report));
            serialize_us.push(1e6 * t.elapsed().as_secs_f64());
        }
    }
    out.set("manifest.parse_us", stats::median(&parse_us));
    out.set("manifest.serialize_us", stats::median(&serialize_us));
}
