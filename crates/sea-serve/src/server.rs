//! The serve loop: accept, admit, solve, respond, drain — and survive.
//!
//! ## Threading model
//!
//! One nonblocking accept thread hands each connection to its own
//! handler thread (keep-alive HTTP/1.1, read timeout so idle connections
//! notice a drain). Handlers *parse and admit only* — every solve runs on
//! one of `workers` solver threads feeding from the shared
//! [`FairQueue`], so concurrency of actual solving is bounded by the
//! worker pool no matter how many connections are open, and
//! [`BatchParallelism::InnerThreads`] can additionally split one large
//! solve across the process-wide rayon pool.
//!
//! ## Request lifecycle
//!
//! admission (quarantine check, load shed, bounded queue) → queue wait
//! (fair FIFO per tenant, optional per-tenant quota) → solve
//! (per-request deadline mapped to [`sea_core::SolveBudget`],
//! warm-started from the per-family cache) → response (the same JSON
//! result line the CLI's batch mode writes).
//!
//! ## Resilience
//!
//! Solves run inside `catch_unwind`: a panicking solve answers a typed
//! 500 and the worker survives. A worker thread that dies anyway (the
//! panic escaped containment) drops its job's response channel — the
//! waiting handler answers the typed 500 — and a supervisor thread
//! respawns the slot so the pool never shrinks. Respawns feed the
//! [`RestartBreaker`]; a restart storm flips `/readyz` to 503 so an
//! orchestrator stops routing here, and readiness self-recovers as the
//! window slides. Families whose solves repeatedly panic or NaN-trip
//! are circuit-broken by the [`Quarantine`] (fast 422 + `Retry-After`,
//! half-open probe after cooldown), and the [`WaitEstimator`] sheds
//! requests at admission (429 + `Retry-After`) when the queue wait they
//! would see already exceeds their deadline. With `degraded_epsilon`
//! set, a deadline-stopped solve whose residual is already below that
//! looser tolerance answers 200 with `"degraded":true` instead of 504.
//! All of it is observable in `/metrics` and scriptable by a
//! [`ChaosPlan`] for deterministic fault drills.
//!
//! ## Drain
//!
//! [`Server::shutdown`] (the binary wires SIGTERM/SIGINT to it) stops
//! the accept loop, closes the queue (new requests answer 503), lets the
//! workers finish every already-admitted solve — each bounded by its own
//! deadline budget — and [`Server::join`] returns once all responses are
//! written. The binary then exits 0: a clean drain is indistinguishable
//! from a clean stop by design.

use crate::chaos::{ChaosPlan, ServiceFault};
use crate::http::{read_request, write_response_with, ReadError, Request};
use crate::overload::{BreakerPolicy, RestartBreaker, WaitEstimator};
use crate::quarantine::{Admission, Quarantine, QuarantinePolicy};
use crate::queue::{FairQueue, PushError};
use sea_batch::{
    solve_instance, BatchInstance, BatchItemReport, BatchOptions, BatchParallelism, CacheEntry,
    CacheUpdate, WarmStart, WarmStartCache,
};
use sea_cli::manifest::{instance_from_json, result_line_with};
use sea_core::{FaultKind, FaultPlan, SeaError, StopReason};
use sea_observe::json::{parse as parse_json, JsonValue};
use sea_observe::metrics::PHASE_SECONDS_BUCKETS;
use sea_observe::{Event, MetricsObserver, MetricsRegistry, Observer};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bucket bounds (seconds) for end-to-end request latency: sub-millisecond
/// cache hits through deadline-bounded multi-second solves.
const REQUEST_SECONDS_BUCKETS: [f64; 10] =
    [1e-4, 1e-3, 5e-3, 0.02, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0];

/// How long a handler blocks in `read` before re-checking for drain.
const READ_POLL: Duration = Duration::from_millis(200);

/// How often the supervisor scans worker slots for dead threads.
const SUPERVISOR_POLL: Duration = Duration::from_millis(20);

/// Server configuration (flag surface of the `sea-serve` binary).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 = ephemeral).
    pub addr: String,
    /// Solver worker threads (the solve-concurrency bound).
    pub workers: usize,
    /// Admission queue capacity across all tenants (full → 429).
    pub queue_capacity: usize,
    /// Per-tenant cap on queued jobs (`None` = lanes bounded only by
    /// total capacity); at quota → 429 while other tenants still admit.
    pub tenant_quota: Option<usize>,
    /// Warm-start cache byte budget; `None` = unbounded.
    pub cache_bytes: Option<usize>,
    /// Default stopping tolerance (per-request `epsilon` overrides).
    pub epsilon: f64,
    /// Looser tolerance for graceful degradation: a deadline-stopped
    /// solve whose residual is already ≤ this answers 200 with
    /// `"degraded":true` instead of 504. `None` disables (the default —
    /// a deadline miss is a 504).
    pub degraded_epsilon: Option<f64>,
    /// Iteration cap per solve.
    pub max_iterations: usize,
    /// Thread placement for each solve (`Serial` or `Inner[:K]`;
    /// instance-level parallelism comes from the worker pool itself).
    pub parallelism: BatchParallelism,
    /// Default per-request deadline, measured from *admission* (so it
    /// covers queue wait); per-request `deadline` overrides.
    pub default_deadline: Option<Duration>,
    /// Request body cap in bytes (over → 413).
    pub max_body_bytes: usize,
    /// Poison-family circuit breaker; `None` disables quarantine.
    pub quarantine: Option<QuarantinePolicy>,
    /// Restart-storm breaker driving `/readyz`.
    pub breaker: BreakerPolicy,
    /// Scripted service faults (empty in production; see [`ChaosPlan`]).
    pub chaos: ChaosPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(2),
            queue_capacity: 64,
            tenant_quota: None,
            cache_bytes: Some(64 << 20),
            epsilon: 1e-8,
            degraded_epsilon: None,
            max_iterations: 10_000,
            parallelism: BatchParallelism::Serial,
            default_deadline: Some(Duration::from_secs(30)),
            max_body_bytes: 8 << 20,
            quarantine: Some(QuarantinePolicy::default()),
            breaker: BreakerPolicy::default(),
            chaos: ChaosPlan::new(),
        }
    }
}

/// What a handler enqueues and a worker solves.
enum JobKind {
    /// `POST /solve`: one instance.
    Solve(Box<BatchInstance>),
    /// `POST /batch`: a JSONL manifest, solved sequentially in order.
    Batch(Vec<BatchInstance>),
}

struct Job {
    kind: JobKind,
    /// Deadline for the whole job, measured from admission.
    deadline: Option<Duration>,
    /// Per-request tolerance override.
    epsilon: Option<f64>,
    admitted: Instant,
    respond: mpsc::Sender<(u16, String)>,
}

/// Server + solver metrics behind one lock, rendered together.
struct Metrics {
    server: MetricsRegistry,
    solver: MetricsRegistry,
    /// Last cache-eviction count folded into the counter (so the counter
    /// advances by deltas of the cache's cumulative figure).
    evictions_seen: u64,
    /// Last quarantine counters folded in, same delta scheme.
    quarantine_seen: (u64, u64, u64),
}

struct Shared {
    cfg: ServeConfig,
    queue: FairQueue<Job>,
    cache: Mutex<WarmStartCache>,
    metrics: Mutex<Metrics>,
    /// Set once by `shutdown`; accept loop and idle handlers exit on it.
    draining: AtomicBool,
    /// Jobs admitted and not yet responded to (readiness + drain gauge).
    inflight: AtomicUsize,
    /// Poison-family circuit breaker (`None` = disabled by config).
    quarantine: Option<Quarantine>,
    /// EWMA queue-wait estimator feeding the load shedder.
    estimator: Mutex<WaitEstimator>,
    /// Restart-storm breaker feeding `/readyz`.
    breaker: Mutex<RestartBreaker>,
    /// 1-based solve sequence counter driving the chaos plan.
    solve_seq: AtomicU64,
    /// Worker threads currently running (gauge; respawn keeps it at
    /// `cfg.workers` outside the instant between death and respawn).
    workers_alive: AtomicUsize,
}

/// Lock a mutex, recovering the guard from poisoning: state behind these
/// locks (cache, metrics) stays usable even if some other holder panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Shared {
    fn counter(&self, name: &str, help: &str, labels: Vec<(String, String)>, v: f64) {
        lock(&self.metrics)
            .server
            .counter_add(name, help, labels, v);
    }

    fn count_shed(&self, reason: &str, n: f64) {
        self.counter(
            "sea_serve_shed_total",
            "Requests rejected at admission, by reason (wait|quota|full).",
            vec![("reason".to_string(), reason.to_string())],
            n,
        );
    }

    fn count_panic(&self, n: f64) {
        self.counter(
            "sea_serve_worker_panics_total",
            "Solve panics contained by the per-request boundary (answered 500).",
            vec![],
            n,
        );
    }

    fn set_queue_gauges(&self) {
        let depth = self.queue.depth() as f64;
        let inflight = self.inflight.load(Ordering::SeqCst) as f64;
        let alive = self.workers_alive.load(Ordering::SeqCst) as f64;
        let mut m = lock(&self.metrics);
        m.server.gauge_set(
            "sea_serve_queue_depth",
            "Jobs admitted and waiting for a solver worker.",
            vec![],
            depth,
        );
        m.server.gauge_set(
            "sea_serve_inflight",
            "Jobs admitted and not yet responded to (queued or solving).",
            vec![],
            inflight,
        );
        m.server.gauge_set(
            "sea_serve_workers_alive",
            "Solver worker threads currently running.",
            vec![],
            alive,
        );
    }

    fn count_request(&self, route: &str, code: u16, started: Instant) {
        let mut m = lock(&self.metrics);
        m.server.counter_add(
            "sea_serve_requests_total",
            "HTTP requests served, by route and status code.",
            vec![
                ("route".to_string(), route.to_string()),
                ("code".to_string(), code.to_string()),
            ],
            1.0,
        );
        m.server.histogram_observe(
            "sea_serve_request_seconds",
            "End-to-end request latency (read to response write), by route.",
            vec![("route".to_string(), route.to_string())],
            &REQUEST_SECONDS_BUCKETS,
            &[started.elapsed().as_secs_f64()],
        );
    }

    /// `Retry-After` hint when the queue itself pushed back: roughly one
    /// solve's worth of seconds, floored at 1.
    fn retry_hint(&self) -> u64 {
        let est = lock(&self.estimator).solve_seconds();
        est.ceil().max(1.0) as u64
    }
}

/// One routed response; `retry_after` becomes a `Retry-After` header.
struct Reply {
    status: u16,
    content_type: &'static str,
    body: String,
    retry_after: Option<u64>,
}

impl Reply {
    fn json(status: u16, body: String) -> Reply {
        Reply {
            status,
            content_type: "application/json",
            body,
            retry_after: None,
        }
    }

    fn text(status: u16, body: &str) -> Reply {
        Reply {
            status,
            content_type: "text/plain; version=0.0.4",
            body: body.to_string(),
            retry_after: None,
        }
    }

    fn retry_after(mut self, secs: u64) -> Reply {
        self.retry_after = Some(secs);
        self
    }
}

/// A running server: accept thread, worker pool, and the supervisor
/// that keeps the pool at full strength.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `cfg.addr`, spawn the worker pool, its supervisor, and the
    /// accept thread, and return the running server. Fails only on bind
    /// or spawn errors.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers_n = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            cache: Mutex::new(match cfg.cache_bytes {
                Some(b) => WarmStartCache::with_limit(b),
                None => WarmStartCache::new(),
            }),
            queue: FairQueue::with_tenant_quota(cfg.queue_capacity, cfg.tenant_quota),
            metrics: Mutex::new(Metrics {
                server: MetricsRegistry::new(),
                solver: MetricsRegistry::new(),
                evictions_seen: 0,
                quarantine_seen: (0, 0, 0),
            }),
            draining: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            quarantine: cfg.quarantine.map(Quarantine::new),
            estimator: Mutex::new(WaitEstimator::new()),
            breaker: Mutex::new(RestartBreaker::new(cfg.breaker)),
            solve_seq: AtomicU64::new(0),
            workers_alive: AtomicUsize::new(0),
            cfg,
        });

        let slots = (0..workers_n)
            .map(|i| spawn_worker(&shared, i).map(Some))
            .collect::<std::io::Result<Vec<_>>>()?;
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sea-serve-supervisor".to_string())
                .spawn(move || supervisor_loop(&shared, slots))?
        };

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sea-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))?
        };

        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            supervisor: Some(supervisor),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin a graceful drain: stop accepting, fail new admissions with
    /// 503, let admitted solves finish. Idempotent; `join` waits it out.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue.close();
    }

    /// True once a drain has started.
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Wait for the drain to complete: every admitted solve finished and
    /// every response written. Call after [`Server::shutdown`] (or it
    /// blocks until someone else triggers one).
    pub fn join(mut self) {
        let handlers = match self.accept.take() {
            Some(h) => h.join().unwrap_or_default(),
            None => Vec::new(),
        };
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
        for h in handlers {
            let _ = h.join();
        }
    }
}

/// RAII decrement of `workers_alive`: runs even when the worker thread
/// unwinds from an uncontained panic.
struct AliveGuard(Arc<Shared>);

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.0.workers_alive.fetch_sub(1, Ordering::SeqCst);
    }
}

fn spawn_worker(shared: &Arc<Shared>, slot: usize) -> std::io::Result<JoinHandle<()>> {
    shared.workers_alive.fetch_add(1, Ordering::SeqCst);
    let sh = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("sea-serve-worker-{slot}"))
        .spawn(move || {
            let _alive = AliveGuard(Arc::clone(&sh));
            worker_loop(&sh);
        });
    if handle.is_err() {
        shared.workers_alive.fetch_sub(1, Ordering::SeqCst);
    }
    handle
}

/// Scan worker slots; respawn any thread that died by panic so the pool
/// never shrinks. Respawns feed the restart breaker. Exits once a drain
/// has started and every worker has finished — except that a crash
/// *during* a drain with jobs still queued is respawned anyway, so every
/// admitted request gets its response before the process exits.
fn supervisor_loop(shared: &Arc<Shared>, mut slots: Vec<Option<JoinHandle<()>>>) {
    loop {
        let draining = shared.draining.load(Ordering::SeqCst);
        let mut alive = 0usize;
        for (slot, entry) in slots.iter_mut().enumerate() {
            if entry.as_ref().is_some_and(|h| h.is_finished()) {
                let crashed = match entry.take() {
                    Some(h) => h.join().is_err(),
                    None => false,
                };
                if crashed {
                    shared.counter(
                        "sea_serve_worker_crashes_total",
                        "Worker threads that died to an uncontained panic.",
                        vec![],
                        1.0,
                    );
                    if !draining || shared.queue.depth() > 0 {
                        lock(&shared.breaker).record_restart();
                        shared.counter(
                            "sea_serve_worker_restarts_total",
                            "Worker threads respawned by the supervisor.",
                            vec![],
                            1.0,
                        );
                        if let Ok(h) = spawn_worker(shared, slot) {
                            *entry = Some(h);
                            alive += 1;
                        }
                    }
                    shared.set_queue_gauges();
                }
            } else if entry.is_some() {
                alive += 1;
            }
        }
        if draining && alive == 0 {
            return;
        }
        std::thread::sleep(SUPERVISOR_POLL);
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) -> Vec<JoinHandle<()>> {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return handlers;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                if let Ok(h) = std::thread::Builder::new()
                    .name("sea-serve-conn".to_string())
                    .spawn(move || handle_connection(stream, &shared))
                {
                    handlers.push(h);
                }
                handlers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    // Responses are written whole; waiting for ACKs between keep-alive
    // exchanges only adds Nagle latency.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let started = Instant::now();
        let req = match read_request(&mut reader, shared.cfg.max_body_bytes) {
            Ok(req) => req,
            Err(ReadError::Eof) => return,
            Err(ReadError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle keep-alive poll tick: close only when draining.
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(ReadError::Io(_)) => return,
            Err(ReadError::Malformed(msg)) => {
                let reply = Reply::json(400, error_body(&msg));
                let _ = write_reply(&mut writer, &reply, true);
                shared.count_request("malformed", 400, started);
                return;
            }
            Err(ReadError::BodyTooLarge { declared, limit }) => {
                let reply = Reply::json(
                    413,
                    error_body(&format!("body of {declared} bytes exceeds limit {limit}")),
                );
                let _ = write_reply(&mut writer, &reply, true);
                shared.count_request("oversized", 413, started);
                return;
            }
        };
        let reply = route(&req, shared);
        // During a drain, answer the in-hand request and close so the
        // handler thread exits; otherwise honor keep-alive.
        let close = req.close || shared.draining.load(Ordering::SeqCst);
        shared.count_request(&req.path, reply.status, started);
        if write_reply(&mut writer, &reply, close).is_err() {
            return;
        }
        if close {
            return;
        }
    }
}

fn write_reply<W: std::io::Write>(w: &mut W, reply: &Reply, close: bool) -> std::io::Result<()> {
    let extra: Vec<(&str, String)> = match reply.retry_after {
        Some(secs) => vec![("Retry-After", secs.to_string())],
        None => Vec::new(),
    };
    write_response_with(
        w,
        reply.status,
        reply.content_type,
        &extra,
        reply.body.as_bytes(),
        close,
    )
}

/// Dispatch one request.
fn route(req: &Request, shared: &Arc<Shared>) -> Reply {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Reply::text(200, "ok\n"),
        ("GET", "/readyz") => {
            if shared.draining.load(Ordering::SeqCst) {
                Reply::text(503, "draining\n").retry_after(1)
            } else if lock(&shared.breaker).open() {
                // A restart storm: stop routing traffic here until the
                // breaker window slides past it.
                Reply::text(503, "restart-storm\n").retry_after(1)
            } else {
                Reply::text(200, "ready\n")
            }
        }
        ("GET", "/metrics") => Reply::text(200, &render_metrics(shared)),
        ("POST", "/solve") => handle_solve(&req.body, shared, false),
        ("POST", "/batch") => handle_solve(&req.body, shared, true),
        (_, "/healthz" | "/readyz" | "/metrics" | "/solve" | "/batch") => {
            Reply::json(405, error_body("method not allowed"))
        }
        _ => Reply::json(404, error_body("no such route")),
    }
}

fn render_metrics(shared: &Arc<Shared>) -> String {
    shared.set_queue_gauges();
    {
        // Fold current cache occupancy into the registry at scrape time.
        let (bytes, families, evictions) = {
            let c = lock(&shared.cache);
            (c.bytes() as f64, c.len() as f64, c.evictions())
        };
        let breaker = {
            let mut b = lock(&shared.breaker);
            (b.open(), b.total())
        };
        let mut m = lock(&shared.metrics);
        m.server.gauge_set(
            "sea_serve_cache_bytes",
            "Approximate resident bytes of the warm-start cache.",
            vec![],
            bytes,
        );
        m.server.gauge_set(
            "sea_serve_cache_families",
            "Families resident in the warm-start cache.",
            vec![],
            families,
        );
        let delta = evictions.saturating_sub(m.evictions_seen);
        m.evictions_seen = evictions;
        m.server.counter_add(
            "sea_serve_cache_evictions_total",
            "Warm-start cache families evicted by the byte budget.",
            vec![],
            delta as f64,
        );
        m.server.gauge_set(
            "sea_serve_restart_breaker_open",
            "1 while the restart-storm breaker holds /readyz at 503.",
            vec![],
            if breaker.0 { 1.0 } else { 0.0 },
        );
    }
    if let Some(q) = &shared.quarantine {
        let stats = q.stats();
        let quarantined = q.quarantined() as f64;
        let mut m = lock(&shared.metrics);
        m.server.gauge_set(
            "sea_serve_quarantined_families",
            "Families currently refusing requests (open or half-open circuit).",
            vec![],
            quarantined,
        );
        let (opens, refusals, closes) = m.quarantine_seen;
        m.quarantine_seen = (stats.opens, stats.refusals, stats.closes);
        m.server.counter_add(
            "sea_serve_quarantine_opens_total",
            "Family circuits opened after repeated poison outcomes.",
            vec![],
            stats.opens.saturating_sub(opens) as f64,
        );
        m.server.counter_add(
            "sea_serve_quarantine_refusals_total",
            "Requests refused with 422 by an open family circuit.",
            vec![],
            stats.refusals.saturating_sub(refusals) as f64,
        );
        m.server.counter_add(
            "sea_serve_quarantine_closes_total",
            "Family circuits closed by a successful half-open probe.",
            vec![],
            stats.closes.saturating_sub(closes) as f64,
        );
    }
    // Register the event counters at 0 so dashboards (and the chaos
    // soak's assertions) see them before the first event.
    shared.count_panic(0.0);
    for reason in ["wait", "quota", "full"] {
        shared.count_shed(reason, 0.0);
    }
    shared.counter(
        "sea_serve_worker_crashes_total",
        "Worker threads that died to an uncontained panic.",
        vec![],
        0.0,
    );
    shared.counter(
        "sea_serve_worker_restarts_total",
        "Worker threads respawned by the supervisor.",
        vec![],
        0.0,
    );
    shared.counter(
        "sea_serve_degraded_total",
        "Deadline-stopped solves accepted at the degraded tolerance.",
        vec![],
        0.0,
    );
    let m = lock(&shared.metrics);
    let mut out = m.server.render();
    out.push_str(&m.solver.render());
    out
}

fn error_body(msg: &str) -> String {
    let mut body = JsonValue::Object(vec![(
        "error".to_string(),
        JsonValue::String(msg.to_string()),
    )])
    .render();
    body.push('\n');
    body
}

/// [`error_body`] with one extra boolean flag (`"panic":true`,
/// `"quarantined":true`, `"shed":true`) so clients can branch on the
/// failure class without parsing prose.
fn error_body_tagged(msg: &str, tag: &str) -> String {
    let mut body = JsonValue::Object(vec![
        ("error".to_string(), JsonValue::String(msg.to_string())),
        (tag.to_string(), JsonValue::Bool(true)),
    ])
    .render();
    body.push('\n');
    body
}

/// Distinct families across a job's instances (quarantine bookkeeping).
fn job_families(kind: &JobKind) -> Vec<String> {
    let mut families: Vec<String> = Vec::new();
    let mut add = |inst: &BatchInstance| {
        if let Some(f) = &inst.family {
            if !families.iter().any(|g| g == f) {
                families.push(f.clone());
            }
        }
    };
    match kind {
        JobKind::Solve(inst) => add(inst),
        JobKind::Batch(list) => list.iter().for_each(add),
    }
    families
}

/// Parse, admit, and await one `/solve` or `/batch` request.
fn handle_solve(body: &[u8], shared: &Arc<Shared>, batch: bool) -> Reply {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return Reply::json(400, error_body("body is not UTF-8")),
    };

    // Serve-level extras ride on the first JSON object of the body.
    let mut tenant = "default".to_string();
    let mut deadline = shared.cfg.default_deadline;
    let mut epsilon = None;

    let kind = if batch {
        let mut instances = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            let v = match parse_json(t) {
                Ok(v) => v,
                Err(e) => {
                    return Reply::json(400, error_body(&format!("manifest line {}: {e}", i + 1)))
                }
            };
            if instances.is_empty() {
                read_extras(&v, &mut tenant, &mut deadline, &mut epsilon);
            }
            match instance_from_json(&v, i + 1) {
                Ok(inst) => instances.push(inst),
                Err(e) => return Reply::json(400, error_body(&e.to_string())),
            }
        }
        if instances.is_empty() {
            return Reply::json(400, error_body("batch body holds no instances"));
        }
        JobKind::Batch(instances)
    } else {
        let v = match parse_json(text.trim()) {
            Ok(v) => v,
            Err(e) => return Reply::json(400, error_body(&format!("bad request body: {e}"))),
        };
        read_extras(&v, &mut tenant, &mut deadline, &mut epsilon);
        match instance_from_json(&v, 1) {
            Ok(inst) => JobKind::Solve(Box::new(inst)),
            Err(e) => return Reply::json(400, error_body(&e.to_string())),
        }
    };

    // Quarantine gate: circuit-broken families answer a fast, typed 422
    // without costing a queue slot or a worker.
    let families = job_families(&kind);
    let mut probes: Vec<String> = Vec::new();
    if let Some(q) = &shared.quarantine {
        for family in &families {
            match q.admit(family) {
                Admission::Admit => {}
                Admission::Probe => probes.push(family.clone()),
                Admission::Refuse { retry_after } => {
                    for p in &probes {
                        q.abort_probe(p);
                    }
                    return Reply::json(
                        422,
                        error_body_tagged(
                            &format!(
                                "family {family:?} is quarantined after repeated solver faults"
                            ),
                            "quarantined",
                        ),
                    )
                    .retry_after(retry_after);
                }
            }
        }
    }
    // Any early rejection below must resolve half-open probes admitted
    // above, or the probed circuits wedge.
    let release_probes = || {
        if let Some(q) = &shared.quarantine {
            for p in &probes {
                q.abort_probe(p);
            }
        }
    };

    if shared.draining.load(Ordering::SeqCst) {
        release_probes();
        return Reply::json(503, error_body("draining")).retry_after(1);
    }

    // Load shed: refuse at admission when the queue wait this request
    // would see already exceeds its whole deadline — it could not have
    // been answered in time, and shedding it keeps the queue honest for
    // the requests behind it.
    if let Some(d) = deadline {
        let est =
            lock(&shared.estimator).estimated_wait(shared.queue.depth(), shared.cfg.workers.max(1));
        if est > d.as_secs_f64() {
            release_probes();
            shared.count_shed("wait", 1.0);
            return Reply::json(
                429,
                error_body_tagged(
                    &format!(
                        "estimated queue wait {est:.2}s exceeds the {:.2}s deadline",
                        d.as_secs_f64()
                    ),
                    "shed",
                ),
            )
            .retry_after(est.ceil().max(1.0) as u64);
        }
    }

    let (tx, rx) = mpsc::channel();
    let job = Job {
        kind,
        deadline,
        epsilon,
        admitted: Instant::now(),
        respond: tx,
    };
    shared.inflight.fetch_add(1, Ordering::SeqCst);
    match shared.queue.push(&tenant, job) {
        Ok(()) => {}
        Err(PushError::Full) => {
            shared.inflight.fetch_sub(1, Ordering::SeqCst);
            release_probes();
            shared.count_shed("full", 1.0);
            return Reply::json(429, error_body("queue full, retry later"))
                .retry_after(shared.retry_hint());
        }
        Err(PushError::TenantQuota) => {
            shared.inflight.fetch_sub(1, Ordering::SeqCst);
            release_probes();
            shared.count_shed("quota", 1.0);
            return Reply::json(
                429,
                error_body_tagged(
                    &format!("tenant {tenant:?} is at its admission quota"),
                    "shed",
                ),
            )
            .retry_after(shared.retry_hint());
        }
        Err(PushError::Closed) => {
            shared.inflight.fetch_sub(1, Ordering::SeqCst);
            release_probes();
            return Reply::json(503, error_body("draining")).retry_after(1);
        }
    }
    shared.set_queue_gauges();
    match rx.recv() {
        Ok((status, body)) => {
            shared.inflight.fetch_sub(1, Ordering::SeqCst);
            Reply::json(status, body)
        }
        Err(_) => {
            // The worker died with our job: its panic escaped the
            // per-request containment (or was scripted to). The response
            // is still typed — and the job's families take the strike,
            // since the worker was no longer around to record it.
            shared.inflight.fetch_sub(1, Ordering::SeqCst);
            shared.set_queue_gauges();
            if let Some(q) = &shared.quarantine {
                for f in &families {
                    q.record(f, true);
                }
            }
            Reply::json(
                500,
                error_body_tagged("worker crashed mid-solve; the pool is respawning", "panic"),
            )
        }
    }
}

/// Read serve-level extras (`tenant`, `deadline`, `epsilon`) off a
/// request object; invalid values fall back to server defaults rather
/// than failing the request (they are hints, not the problem statement).
fn read_extras(
    v: &JsonValue,
    tenant: &mut String,
    deadline: &mut Option<Duration>,
    epsilon: &mut Option<f64>,
) {
    if let Some(t) = v.get("tenant").and_then(JsonValue::as_str) {
        if !t.is_empty() {
            *tenant = t.to_string();
        }
    }
    if let Some(d) = v.get("deadline").and_then(|d| d.as_f64()) {
        if d > 0.0 && d.is_finite() {
            *deadline = Some(Duration::from_secs_f64(d));
        }
    }
    if let Some(e) = v.get("epsilon").and_then(|e| e.as_f64()) {
        if e.is_finite() {
            *epsilon = Some(e);
        }
    }
}

/// Human-readable panic payload (matches what the panic would print).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        let wait = job.admitted.elapsed().as_secs_f64();
        {
            let mut m = lock(&shared.metrics);
            m.server.histogram_observe(
                "sea_serve_queue_wait_seconds",
                "Time jobs spent queued before a worker picked them up.",
                vec![],
                &PHASE_SECONDS_BUCKETS,
                &[wait],
            );
        }
        shared.set_queue_gauges();
        let seq = shared.solve_seq.fetch_add(1, Ordering::SeqCst) + 1;
        let faults: Vec<ServiceFault> = shared.cfg.chaos.at_seq(seq).collect();
        if faults.contains(&ServiceFault::Crash) {
            // Deliberately OUTSIDE the per-request containment: the
            // worker thread dies mid-job, the waiting handler answers
            // the typed 500 through the dropped channel, and the
            // supervisor respawns this slot.
            panic!("chaos: scripted worker crash at solve {seq}");
        }
        let solve_started = Instant::now();
        let response = match catch_unwind(AssertUnwindSafe(|| run_job(&job, shared, &faults))) {
            Ok(resp) => {
                lock(&shared.estimator).record(solve_started.elapsed().as_secs_f64());
                resp
            }
            Err(payload) => {
                // Contained: the request answers a typed 500, the worker
                // survives, and the job's families take a poison strike.
                shared.count_panic(1.0);
                if let Some(q) = &shared.quarantine {
                    for f in job_families(&job.kind) {
                        q.record(&f, true);
                    }
                }
                let msg = panic_message(&*payload);
                (
                    500,
                    error_body_tagged(&format!("worker panicked while solving: {msg}"), "panic"),
                )
            }
        };
        let _ = job.respond.send(response);
        shared.set_queue_gauges();
    }
}

/// True when a solve outcome should count as a quarantine strike: the
/// solver panicked (contained by its own supervisor), or the NaN/∞
/// watchdog tripped.
fn is_poison(report: &BatchItemReport) -> bool {
    match &report.outcome {
        Ok(sol) => sol.stop() == StopReason::Breakdown,
        Err(SeaError::WorkerPanic { .. } | SeaError::NumericalBreakdown { .. }) => true,
        Err(_) => false,
    }
}

/// Solve a job's instances in order, sharing the warm-start cache across
/// them, and render the response body (one result line per instance).
fn run_job(job: &Job, shared: &Arc<Shared>, faults: &[ServiceFault]) -> (u16, String) {
    if faults.contains(&ServiceFault::Panic) {
        // Scripted *contained* panic: caught by the worker's
        // catch_unwind, answered as a typed 500.
        panic!("chaos: scripted contained panic");
    }
    let instances: Vec<&BatchInstance> = match &job.kind {
        JobKind::Solve(inst) => vec![inst],
        JobKind::Batch(list) => list.iter().collect(),
    };
    let mut body = String::new();
    let mut deadline_hit = false;
    let mut solver_panic = false;
    for (index, inst) in instances.iter().enumerate() {
        let mut report = solve_with_cache(inst, job, shared, faults);
        report.index = index;
        if let Some(q) = &shared.quarantine {
            if let Some(family) = &inst.family {
                q.record(family, is_poison(&report));
            }
        }
        let mut extras: Vec<(&str, JsonValue)> = Vec::new();
        match &report.outcome {
            Ok(sol) if sol.stop() == StopReason::DeadlineExceeded => {
                let degraded = shared
                    .cfg
                    .degraded_epsilon
                    .is_some_and(|de| sol.residual() <= de);
                if degraded {
                    // Graceful degradation: the partial answer already
                    // meets the looser tolerance, so it is an answer —
                    // flagged, not failed.
                    extras.push(("degraded", JsonValue::Bool(true)));
                    shared.counter(
                        "sea_serve_degraded_total",
                        "Deadline-stopped solves accepted at the degraded tolerance.",
                        vec![],
                        1.0,
                    );
                } else {
                    deadline_hit = true;
                }
            }
            Err(SeaError::WorkerPanic { .. }) => {
                // The solver's own supervisor contained an equilibration
                // worker panic; surface it on the same metric as
                // serve-level containment.
                solver_panic = true;
                shared.count_panic(1.0);
            }
            _ => {}
        }
        body.push_str(&result_line_with(&report, &extras));
        body.push('\n');
    }
    // A deadline miss is the one stop the client cannot see from a 200
    // alone, so it gets the gateway-timeout status; the body still carries
    // the partial result lines with their stop reasons. A panic anywhere
    // in the job outranks it.
    let status = if solver_panic {
        500
    } else if deadline_hit {
        504
    } else {
        200
    };
    (status, body)
}

fn solve_with_cache(
    inst: &BatchInstance,
    job: &Job,
    shared: &Arc<Shared>,
    faults: &[ServiceFault],
) -> BatchItemReport {
    let cfg = &shared.cfg;
    let mut opts = BatchOptions {
        epsilon: job.epsilon.unwrap_or(cfg.epsilon),
        max_iterations: cfg.max_iterations,
        parallelism: cfg.parallelism,
        warm_start: inst.family.is_some(),
        ..BatchOptions::default()
    };
    // The deadline is measured from admission, so queue wait counts
    // against it; a job that waited past its whole deadline still enters
    // the solver, which stops at the first budget check.
    if let Some(total) = job.deadline {
        opts.supervisor.budget.deadline = Some(total.saturating_sub(job.admitted.elapsed()));
    }
    if faults.contains(&ServiceFault::Nan) {
        // Scripted solver fault (the PR 3 idiom): NaN multiplier at
        // iteration 1; the breakdown watchdog must contain it.
        opts.supervisor.faults = FaultPlan::new().at(1, FaultKind::NanLambda { index: 0 });
    }
    if faults.contains(&ServiceFault::CacheCorrupt) {
        // Scripted cache corruption: poison the family's warm seed, λ
        // and μ alike, before the snapshot below reads it.
        if let Some(family) = &inst.family {
            let mut cache = lock(&shared.cache);
            if let Some(entry) = cache.lookup(family) {
                let poisoned = CacheEntry {
                    lambda: vec![f64::NAN; entry.lambda.len()],
                    mu: vec![f64::NAN; entry.mu.len()],
                    cold_kernel_work: entry.cold_kernel_work,
                };
                cache.apply([CacheUpdate {
                    family: family.clone(),
                    entry: poisoned,
                }]);
            }
        }
    }

    // Snapshot the family's entry so the solve itself runs without
    // holding the cache lock.
    let mut local = WarmStartCache::new();
    if let Some(family) = &inst.family {
        let snap = lock(&shared.cache).lookup(family).cloned();
        if let Some(entry) = snap {
            local.apply([CacheUpdate {
                family: family.clone(),
                entry,
            }]);
        }
    }

    let mut local_metrics = SolveMetrics::default();
    let (report, update) = solve_instance(inst, &opts, &local, &mut local_metrics);

    {
        let mut cache = lock(&shared.cache);
        if let Some(family) = &inst.family {
            if matches!(report.warm_start, WarmStart::Hit) && is_poison(&report) {
                // A warm seed that just broke a solve is dropped so the
                // next attempt runs cold instead of re-tripping the
                // watchdog from the same poisoned μ forever.
                cache.remove(family);
            } else {
                cache.touch(family);
            }
        }
        cache.apply(update);
    }
    {
        let mut m = lock(&shared.metrics);
        m.solver.merge(&local_metrics.0.registry);
        m.server.counter_add(
            "sea_serve_warm_total",
            "Solves by warm-start cache outcome (hit/miss/bypass).",
            vec![("result".to_string(), report.warm_start.name().to_string())],
            1.0,
        );
    }
    report
}

/// One solve's metrics, recorded worker-locally so the solve never takes
/// the metrics lock; the worker merges them into the shared registry once
/// afterwards, holding the lock for O(series), not O(events). Span
/// signalling stays off (the trait default), so serve solves record no
/// shard histograms and take no telemetry samples.
#[derive(Default)]
struct SolveMetrics(MetricsObserver);

impl Observer for SolveMetrics {
    fn record(&mut self, event: &Event) {
        self.0.record(event);
    }
}
