//! Request-lifecycle tests against an in-process server, plus
//! SIGTERM-drain E2Es through the real binary. The resilience half
//! drives the chaos plan: scripted worker crashes and panics, poison
//! families, load shedding, tenant quotas, and degraded answers.

use sea_serve::{ChaosPlan, QuarantinePolicy, ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A 2x2 solvable instance body; `extra` splices in serve-level fields.
fn instance_body(id: &str, family: Option<&str>, extra: &str) -> String {
    let family = family
        .map(|f| format!("\"family\":\"{f}\","))
        .unwrap_or_default();
    format!(
        "{{\"id\":\"{id}\",{family}{extra}\"matrix\":[[1.0,2.0],[3.0,4.0]],\
         \"row_totals\":[4.0,6.0],\"col_totals\":[5.0,5.0]}}"
    )
}

/// Minimal HTTP client: one request, whole response, connection closed.
fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut raw = String::new();
    BufReader::new(conn).read_to_string(&mut raw).expect("recv");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Like [`request`], also returning the raw response head (for header
/// assertions like `Retry-After`).
fn request_full(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut raw = String::new();
    BufReader::new(conn).read_to_string(&mut raw).expect("recv");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {raw:?}"));
    match raw.split_once("\r\n\r\n") {
        Some((head, body)) => (status, head.to_string(), body.to_string()),
        None => (status, raw, String::new()),
    }
}

fn quick_server(cfg: ServeConfig) -> Server {
    Server::bind(cfg).expect("bind on an ephemeral port")
}

/// Value of an unlabeled metric line (`name value`) from a scrape.
fn metric_value(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(f64::NAN)
}

/// Poll `/metrics` until `pred` holds (or panic after ~2s): the
/// supervisor respawns workers asynchronously.
fn wait_for_metric(addr: std::net::SocketAddr, name: &str, pred: impl Fn(f64) -> bool) -> f64 {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let (_, metrics) = request(addr, "GET", "/metrics", "");
        let v = metric_value(&metrics, name);
        if pred(v) {
            return v;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {name}; last value {v}:\n{metrics}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn health_ready_and_unknown_routes() {
    let server = quick_server(ServeConfig::default());
    let addr = server.addr();
    assert_eq!(request(addr, "GET", "/healthz", "").0, 200);
    assert_eq!(request(addr, "GET", "/readyz", "").0, 200);
    assert_eq!(request(addr, "GET", "/nope", "").0, 404);
    assert_eq!(request(addr, "GET", "/solve", "").0, 405);
    server.shutdown();
    server.join();
}

#[test]
fn malformed_bodies_answer_400() {
    let server = quick_server(ServeConfig::default());
    let addr = server.addr();

    let (status, body) = request(addr, "POST", "/solve", "this is not json");
    assert_eq!(status, 400);
    assert!(body.contains("\"error\""), "{body}");

    // Valid JSON, invalid instance: missing id.
    let (status, body) = request(addr, "POST", "/solve", "{\"class\":\"fixed\"}");
    assert_eq!(status, 400);
    assert!(
        body.contains("missing string field \\\"id\\\"") || body.contains("missing"),
        "{body}"
    );

    // Batch bodies report the failing line.
    let good = instance_body("a", None, "");
    let (status, body) = request(addr, "POST", "/batch", &format!("{good}\nnot json\n"));
    assert_eq!(status, 400);
    assert!(body.contains("line 2"), "{body}");

    server.shutdown();
    server.join();
}

#[test]
fn oversized_body_answers_413() {
    let server = quick_server(ServeConfig {
        max_body_bytes: 64,
        ..ServeConfig::default()
    });
    let big = instance_body("big", None, "");
    let (status, body) = request(server.addr(), "POST", "/solve", &big);
    assert_eq!(status, 413);
    assert!(body.contains("exceeds limit 64"), "{body}");
    server.shutdown();
    server.join();
}

#[test]
fn solve_solves_and_warm_start_hits_across_requests() {
    let server = quick_server(ServeConfig::default());
    let addr = server.addr();

    let body = instance_body("r1", Some("fam"), "");
    let (status, text) = request(addr, "POST", "/solve", &body);
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"stop\":\"converged\""), "{text}");
    assert!(text.contains("\"cache\":\"miss\""), "{text}");

    let body = instance_body("r2", Some("fam"), "");
    let (status, text) = request(addr, "POST", "/solve", &body);
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"cache\":\"hit\""), "{text}");

    // Sparse storage rides the same schema.
    let body = instance_body("r3", None, "\"storage\":\"sparse\",");
    let (status, text) = request(addr, "POST", "/solve", &body);
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"stop\":\"converged\""), "{text}");

    // Batch: two lines, same family, warmed by the earlier solves.
    let manifest = format!(
        "{}\n{}\n",
        instance_body("b1", Some("fam"), ""),
        instance_body("b2", Some("fam"), "")
    );
    let (status, text) = request(addr, "POST", "/batch", &manifest);
    assert_eq!(status, 200, "{text}");
    assert_eq!(text.lines().count(), 2, "{text}");
    assert!(text.contains("\"id\":\"b1\""), "{text}");

    // Metrics reflect the traffic: well-formed families with queue depth,
    // request latency histogram, warm-start outcomes, solver metrics.
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for needle in [
        "# TYPE sea_serve_requests_total counter",
        "# TYPE sea_serve_queue_depth gauge",
        "# TYPE sea_serve_request_seconds histogram",
        "sea_serve_request_seconds_bucket",
        "sea_serve_warm_total{result=\"hit\"}",
        "sea_serve_cache_families",
        "# TYPE sea_solves_total counter",
    ] {
        assert!(
            metrics.contains(needle),
            "missing {needle:?} in:\n{metrics}"
        );
    }

    server.shutdown();
    server.join();
}

#[test]
fn over_deadline_request_answers_504_with_partial_result() {
    // A huge iteration cap so the deadline is the binding budget.
    let server = quick_server(ServeConfig {
        max_iterations: 1_000_000_000,
        ..ServeConfig::default()
    });
    // epsilon: -1 never converges (residuals are nonnegative), so the
    // request runs exactly to its deadline budget.
    let body = instance_body("slow", None, "\"deadline\":0.2,\"epsilon\":-1.0,");
    let (status, text) = request(server.addr(), "POST", "/solve", &body);
    assert_eq!(status, 504, "{text}");
    assert!(text.contains("\"stop\":\"deadline_exceeded\""), "{text}");
    assert!(text.contains("\"converged\":false"), "{text}");
    server.shutdown();
    server.join();
}

#[test]
fn queue_full_answers_429() {
    // One worker, one queue slot: the first slow request occupies the
    // worker, the second queues, the third bounces with 429.
    let server = quick_server(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        max_iterations: 1_000_000_000,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let slow = instance_body("slow", None, "\"deadline\":1.0,\"epsilon\":-1.0,");
    let mut in_flight = Vec::new();
    for _ in 0..2 {
        let slow = slow.clone();
        in_flight.push(std::thread::spawn(move || {
            request(addr, "POST", "/solve", &slow)
        }));
        // Let the request reach the queue before the next one.
        std::thread::sleep(Duration::from_millis(150));
    }
    let (status, text) = request(addr, "POST", "/solve", &slow);
    assert_eq!(status, 429, "{text}");
    assert!(text.contains("queue full"), "{text}");
    for h in in_flight {
        let (status, _) = h.join().expect("in-flight request completes");
        assert_eq!(status, 504, "slow requests stop at their deadline");
    }
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_rejects_new_work_and_drains() {
    let server = quick_server(ServeConfig::default());
    let addr = server.addr();
    server.shutdown();
    // Admission after drain start answers 503 (the accept loop may also
    // already be closed, in which case connect fails — both are a clean
    // rejection).
    if let Ok(mut conn) = TcpStream::connect(addr) {
        let body = instance_body("late", None, "");
        let sent = write!(
            conn,
            "POST /solve HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        if sent.is_ok() {
            let mut raw = String::new();
            if BufReader::new(conn).read_to_string(&mut raw).is_ok() && !raw.is_empty() {
                assert!(raw.contains("503"), "{raw}");
            }
        }
    }
    server.join();
}

#[test]
fn contained_panic_answers_typed_500_and_worker_survives() {
    // A scripted panic *inside* the per-request boundary: the request
    // answers a typed 500 and the same worker keeps serving.
    let server = quick_server(ServeConfig {
        workers: 1,
        chaos: ChaosPlan::parse("panic@1").expect("valid plan"),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let (status, text) = request(addr, "POST", "/solve", &instance_body("p1", None, ""));
    assert_eq!(status, 500, "{text}");
    assert!(text.contains("\"panic\":true"), "{text}");
    assert!(text.contains("worker panicked"), "{text}");

    let (status, text) = request(addr, "POST", "/solve", &instance_body("p2", None, ""));
    assert_eq!(status, 200, "{text}");

    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(metric_value(&metrics, "sea_serve_worker_panics_total"), 1.0);
    // No thread died: the pool never needed a respawn.
    assert_eq!(
        metric_value(&metrics, "sea_serve_worker_restarts_total"),
        0.0
    );
    assert_eq!(metric_value(&metrics, "sea_serve_workers_alive"), 1.0);
    server.shutdown();
    server.join();
}

#[test]
fn worker_crash_respawns_and_the_pool_recovers() {
    // A scripted panic *outside* the boundary kills the worker thread:
    // the in-flight request still answers a typed 500 (via the dropped
    // response channel) and the supervisor refills the slot.
    let server = quick_server(ServeConfig {
        workers: 1,
        chaos: ChaosPlan::parse("crash@1").expect("valid plan"),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let (status, text) = request(addr, "POST", "/solve", &instance_body("c1", None, ""));
    assert_eq!(status, 500, "{text}");
    assert!(text.contains("\"panic\":true"), "{text}");
    assert!(text.contains("worker crashed"), "{text}");

    wait_for_metric(addr, "sea_serve_worker_restarts_total", |v| v >= 1.0);
    wait_for_metric(addr, "sea_serve_workers_alive", |v| v == 1.0);
    let (status, text) = request(addr, "POST", "/solve", &instance_body("c2", None, ""));
    assert_eq!(status, 200, "service recovered after respawn: {text}");

    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(
        metric_value(&metrics, "sea_serve_worker_crashes_total"),
        1.0
    );
    // One respawn is far below the default breaker threshold.
    assert_eq!(request(addr, "GET", "/readyz", "").0, 200);
    assert_eq!(metric_value(&metrics, "sea_serve_inflight"), 0.0);
    server.shutdown();
    server.join();
}

#[test]
fn restart_storm_flips_readyz_unhealthy() {
    let server = quick_server(ServeConfig {
        workers: 1,
        chaos: ChaosPlan::parse("crash@1").expect("valid plan"),
        breaker: sea_serve::BreakerPolicy {
            max_restarts: 1,
            window: Duration::from_secs(60),
        },
        ..ServeConfig::default()
    });
    let addr = server.addr();
    assert_eq!(request(addr, "GET", "/readyz", "").0, 200);
    let (status, _) = request(addr, "POST", "/solve", &instance_body("s1", None, ""));
    assert_eq!(status, 500);
    wait_for_metric(addr, "sea_serve_worker_restarts_total", |v| v >= 1.0);
    let (status, _, body) = request_full(addr, "GET", "/readyz", "");
    assert_eq!(status, 503);
    assert!(body.contains("restart-storm"), "{body}");
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(
        metric_value(&metrics, "sea_serve_restart_breaker_open"),
        1.0
    );
    server.shutdown();
    server.join();
}

#[test]
fn quarantine_opens_refuses_probes_and_closes() {
    // Two scripted NaN injections poison the family twice; the circuit
    // opens, refuses with a typed 422 + Retry-After, then heals through
    // a half-open probe once the chaos script is exhausted.
    let server = quick_server(ServeConfig {
        workers: 1,
        chaos: ChaosPlan::parse("nan@1-2").expect("valid plan"),
        quarantine: Some(QuarantinePolicy {
            strikes: 2,
            cooldown: Duration::from_millis(300),
        }),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let poison = instance_body("q", Some("toxic"), "");

    for n in 1..=2 {
        let (status, text) = request(addr, "POST", "/solve", &poison);
        assert_eq!(status, 200, "strike {n}: poison is typed, not 5xx: {text}");
        assert!(
            text.contains("breakdown") || text.contains("\"error\""),
            "strike {n} shows the watchdog outcome: {text}"
        );
    }

    let (status, head, text) = request_full(addr, "POST", "/solve", &poison);
    assert_eq!(status, 422, "{text}");
    assert!(text.contains("\"quarantined\":true"), "{text}");
    assert!(head.contains("Retry-After:"), "{head}");

    // Other families are unaffected while "toxic" is circuit-broken.
    let (status, _) = request(
        addr,
        "POST",
        "/solve",
        &instance_body("ok", Some("fine"), ""),
    );
    assert_eq!(status, 200);

    // Past the cooldown the probe is admitted; the chaos plan is spent,
    // so it solves cleanly and the circuit closes.
    std::thread::sleep(Duration::from_millis(350));
    let (status, text) = request(addr, "POST", "/solve", &poison);
    assert_eq!(status, 200, "probe heals the family: {text}");
    assert!(text.contains("\"stop\":\"converged\""), "{text}");
    let (status, _) = request(addr, "POST", "/solve", &poison);
    assert_eq!(status, 200, "circuit closed");

    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert!(metric_value(&metrics, "sea_serve_quarantine_opens_total") >= 1.0);
    assert!(metric_value(&metrics, "sea_serve_quarantine_refusals_total") >= 1.0);
    assert!(metric_value(&metrics, "sea_serve_quarantine_closes_total") >= 1.0);
    assert_eq!(
        metric_value(&metrics, "sea_serve_quarantined_families"),
        0.0
    );
    server.shutdown();
    server.join();
}

#[test]
fn doomed_requests_are_shed_at_admission_with_retry_after() {
    let server = quick_server(ServeConfig {
        workers: 1,
        max_iterations: 1_000_000_000,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // Seed the wait estimator: one solve that runs to its 0.3s deadline.
    let warm = instance_body("warm", None, "\"deadline\":0.3,\"epsilon\":-1.0,");
    assert_eq!(request(addr, "POST", "/solve", &warm).0, 504);

    // Occupy the worker and put one job in the queue.
    let slow = instance_body("slow", None, "\"deadline\":1.2,\"epsilon\":-1.0,");
    let mut in_flight = Vec::new();
    for _ in 0..2 {
        let slow = slow.clone();
        in_flight.push(std::thread::spawn(move || {
            request(addr, "POST", "/solve", &slow)
        }));
        std::thread::sleep(Duration::from_millis(150));
    }

    // ~0.3s of estimated wait ahead of it, 50ms of deadline: shed now,
    // not 504 later.
    let doomed = instance_body("doomed", None, "\"deadline\":0.05,\"epsilon\":-1.0,");
    let started = Instant::now();
    let (status, head, text) = request_full(addr, "POST", "/solve", &doomed);
    assert_eq!(status, 429, "{text}");
    assert!(text.contains("\"shed\":true"), "{text}");
    assert!(text.contains("estimated queue wait"), "{text}");
    assert!(head.contains("Retry-After:"), "{head}");
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "shedding is an admission-time answer, not a timeout"
    );

    for h in in_flight {
        let (status, _) = h.join().expect("in-flight request completes");
        assert_eq!(status, 504);
    }
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert!(metric_value(&metrics, "sea_serve_shed_total{reason=\"wait\"}") >= 1.0);
    server.shutdown();
    server.join();
}

#[test]
fn degraded_epsilon_turns_deadline_miss_into_flagged_200() {
    // Same never-converging request as the 504 test, but the server is
    // configured to accept any residual ≤ 1.0 when the deadline fires —
    // and this 2x2 instance is far below that within 0.2s.
    let server = quick_server(ServeConfig {
        max_iterations: 1_000_000_000,
        degraded_epsilon: Some(1.0),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let body = instance_body("deg", None, "\"deadline\":0.2,\"epsilon\":-1.0,");
    let (status, text) = request(addr, "POST", "/solve", &body);
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"degraded\":true"), "{text}");
    assert!(text.contains("\"stop\":\"deadline_exceeded\""), "{text}");
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(metric_value(&metrics, "sea_serve_degraded_total"), 1.0);
    server.shutdown();
    server.join();
}

#[test]
fn tenant_quota_caps_a_flooding_tenant_not_others() {
    let server = quick_server(ServeConfig {
        workers: 1,
        queue_capacity: 8,
        tenant_quota: Some(1),
        max_iterations: 1_000_000_000,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let flood = instance_body(
        "flood",
        None,
        "\"tenant\":\"flood\",\"deadline\":1.0,\"epsilon\":-1.0,",
    );
    let mut in_flight = Vec::new();
    // First occupies the worker; second fills the tenant's one-slot lane.
    for _ in 0..2 {
        let flood = flood.clone();
        in_flight.push(std::thread::spawn(move || {
            request(addr, "POST", "/solve", &flood)
        }));
        std::thread::sleep(Duration::from_millis(150));
    }
    let (status, head, text) = request_full(addr, "POST", "/solve", &flood);
    assert_eq!(status, 429, "{text}");
    assert!(text.contains("admission quota"), "{text}");
    assert!(head.contains("Retry-After:"), "{head}");

    // A quiet tenant still gets in (and solved once the worker frees).
    let quiet = instance_body("quiet", None, "\"tenant\":\"quiet\",");
    let (status, text) = request(addr, "POST", "/solve", &quiet);
    assert_eq!(status, 200, "{text}");

    for h in in_flight {
        let (status, _) = h.join().expect("flood requests complete");
        assert_eq!(status, 504);
    }
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert!(metric_value(&metrics, "sea_serve_shed_total{reason=\"quota\"}") >= 1.0);
    server.shutdown();
    server.join();
}

#[test]
fn disconnecting_client_does_not_wedge_worker_or_gauges() {
    let server = quick_server(ServeConfig {
        workers: 1,
        max_iterations: 1_000_000_000,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    // Send a solve, then hang up before the response: the worker still
    // finishes (bounded by the deadline) and the write just fails.
    {
        let mut conn = TcpStream::connect(addr).expect("connect");
        let body = instance_body("gone", None, "\"deadline\":0.3,\"epsilon\":-1.0,");
        write!(
            conn,
            "POST /solve HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .expect("send");
        // Dropping the stream here resets the connection mid-solve.
    }
    // The next (patient) client is served normally by the same worker.
    let (status, text) = request(addr, "POST", "/solve", &instance_body("here", None, ""));
    assert_eq!(status, 200, "{text}");
    wait_for_metric(addr, "sea_serve_inflight", |v| v == 0.0);
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(metric_value(&metrics, "sea_serve_workers_alive"), 1.0);
    server.shutdown();
    server.join();
}

/// `--simd` was removed with the vectorized kernels and `--kernel` with
/// the serve kernel selector (every solve runs the library default): the
/// daemon refuses both as unknown flags (usage exit 2) instead of
/// starting.
#[test]
fn removed_flags_are_refused() {
    for (flag, value) in [("--simd", "auto"), ("--kernel", "sortscan")] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_sea-serve"))
            .args(["--addr", "127.0.0.1:0", flag, value])
            .output()
            .expect("run sea-serve");
        assert_eq!(output.status.code(), Some(sea_serve::EXIT_USAGE), "{flag}");
        let err = String::from_utf8_lossy(&output.stderr);
        assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
    }
}

/// SIGTERM-drain E2E through the real binary: an in-flight solve
/// completes, the response arrives, and the process exits 0 (the code
/// documented in docs/OPERATIONS.md).
#[test]
#[cfg(unix)]
fn sigterm_drains_the_binary_cleanly() {
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_sea-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--max-iterations",
            "1000000000",
        ])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sea-serve");
    // The daemon prints `sea-serve: listening on ADDR` once bound.
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("read listen line");
    let addr: std::net::SocketAddr = line
        .rsplit(' ')
        .next()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| panic!("no address in {line:?}"));

    // Park a slow solve in the worker, then deliver SIGTERM mid-flight.
    let slow = instance_body("inflight", None, "\"deadline\":1.0,\"epsilon\":-1.0,");
    let in_flight = std::thread::spawn(move || request(addr, "POST", "/solve", &slow));
    std::thread::sleep(Duration::from_millis(250));
    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("deliver SIGTERM");
    assert!(killed.success());

    // The admitted solve still completes (bounded by its deadline) and
    // its response is written before the process exits.
    let (status, text) = in_flight.join().expect("in-flight response arrives");
    assert_eq!(status, 504, "{text}");
    assert!(text.contains("\"stop\":\"deadline_exceeded\""), "{text}");

    let exit = child.wait().expect("daemon exits");
    assert_eq!(exit.code(), Some(0), "clean drain exits 0");
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).expect("drain log");
    assert!(rest.contains("drained cleanly"), "{rest}");
}

/// Chaos + drain E2E through the real binary: a scripted worker crash
/// mid-solve still answers a typed 500, the supervisor respawns the
/// worker, a follow-up solve succeeds, and SIGTERM drains to exit 0.
#[test]
#[cfg(unix)]
fn chaos_crash_in_the_binary_still_drains_cleanly() {
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_sea-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--chaos",
            "crash@1",
        ])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sea-serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("read listen line");
    let addr: std::net::SocketAddr = line
        .rsplit(' ')
        .next()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| panic!("no address in {line:?}"));

    // First solve hits the scripted crash: typed 500, worker respawned.
    let (status, text) = request(addr, "POST", "/solve", &instance_body("boom", None, ""));
    assert_eq!(status, 500, "{text}");
    assert!(text.contains("\"panic\":true"), "{text}");
    wait_for_metric(addr, "sea_serve_worker_restarts_total", |v| v >= 1.0);

    // Second solve proves the pool healed inside the real process.
    let (status, text) = request(addr, "POST", "/solve", &instance_body("after", None, ""));
    assert_eq!(status, 200, "{text}");

    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("deliver SIGTERM");
    assert!(killed.success());
    let exit = child.wait().expect("daemon exits");
    assert_eq!(exit.code(), Some(0), "clean drain exits 0 after chaos");
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).expect("drain log");
    assert!(rest.contains("drained cleanly"), "{rest}");
}

/// Cache corruption through the real binary: the family's second solve
/// finds its cached λ and μ poisoned with NaN. The answer is typed (the
/// watchdog's breakdown, not a 5xx or a wrong converged result), the
/// poisoned seed is dropped, and the family solves cold, then warm again.
#[test]
#[cfg(unix)]
fn chaos_cachecorrupt_in_the_binary_is_typed_and_the_family_recovers() {
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_sea-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--chaos",
            "cachecorrupt@2",
        ])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sea-serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("read listen line");
    let addr: std::net::SocketAddr = line
        .rsplit(' ')
        .next()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| panic!("no address in {line:?}"));

    let solve = |id: &str| request(addr, "POST", "/solve", &instance_body(id, Some("fam"), ""));
    let (status, text) = solve("seed");
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"cache\":\"miss\""), "{text}");

    // Solve 2 reads the poisoned entry: a typed breakdown, not a 5xx.
    let (status, text) = solve("poisoned");
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"cache\":\"hit\""), "{text}");
    assert!(
        text.contains("breakdown") && !text.contains("\"stop\":\"converged\""),
        "{text}"
    );

    // The poisoned seed was dropped: cold, then warm from the fresh seed.
    let (status, text) = solve("cold-again");
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"cache\":\"miss\""), "{text}");
    assert!(text.contains("\"stop\":\"converged\""), "{text}");
    let (status, text) = solve("warm-again");
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"cache\":\"hit\""), "{text}");
    assert!(text.contains("\"stop\":\"converged\""), "{text}");

    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("deliver SIGTERM");
    assert!(killed.success());
    let exit = child.wait().expect("daemon exits");
    assert_eq!(exit.code(), Some(0), "clean drain exits 0 after chaos");
}
