//! Request-lifecycle tests against an in-process server, plus
//! SIGTERM-drain E2Es through the real binary. The resilience half
//! drives the chaos plan: scripted worker crashes and panics, poison
//! families, load shedding, tenant quotas, and degraded answers. Two
//! end-to-end gates close the file: a keep-alive load smoke over
//! heterogeneous families and a scripted chaos soak.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sea_cli::client::{RetryPolicy, RetryingClient};
use sea_serve::{ChaosPlan, QuarantinePolicy, ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// A client connection with Nagle off: each request goes out as one
/// write, so keep-alive exchanges do not stall on delayed ACKs.
fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    BufReader::new(stream)
}

/// Minimal HTTP client: one request on `conn`, its response read back by
/// `Content-Length`; returns `(status, head, body)`, the head holding
/// the status line and headers. With `close` the request asks the server
/// to hang up after answering, and the connection must then reach EOF;
/// without it the connection stays open for the next request.
fn exchange(
    conn: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: &str,
    close: bool,
) -> (u16, String, String) {
    let connection = if close { "Connection: close\r\n" } else { "" };
    let frame = format!(
        "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n{connection}\r\n{body}",
        body.len()
    );
    conn.get_mut()
        .write_all(frame.as_bytes())
        .expect("send request");
    let mut head = String::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        conn.read_line(&mut line).expect("response head");
        if line.trim().is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content-length value");
            }
        }
        head.push_str(&line);
    }
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response head: {head:?}"));
    let mut bytes = vec![0u8; content_length];
    conn.read_exact(&mut bytes).expect("response body");
    if close {
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest).expect("server hangs up");
        assert!(rest.is_empty(), "bytes after the response: {rest:?}");
    }
    (status, head, String::from_utf8(bytes).expect("utf-8 body"))
}

/// [`exchange`] on a fresh connection that closes after the answer.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    exchange(&mut connect(addr), method, path, body, true)
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
fn wait_for_metric(addr: SocketAddr, name: &str, pred: impl Fn(f64) -> bool) -> f64 {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let (_, _, metrics) = request(addr, "GET", "/metrics", "");
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

    let (status, _, body) = request(addr, "POST", "/solve", "this is not json");
    assert_eq!(status, 400);
    assert!(body.contains("\"error\""), "{body}");

    // Valid JSON, invalid instance: missing id.
    let (status, _, body) = request(addr, "POST", "/solve", "{\"class\":\"fixed\"}");
    assert_eq!(status, 400);
    assert!(
        body.contains("missing string field \\\"id\\\"") || body.contains("missing"),
        "{body}"
    );

    // Batch bodies report the failing line.
    let good = instance_body("a", None, "");
    let (status, _, body) = request(addr, "POST", "/batch", &format!("{good}\nnot json\n"));
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
    let (status, _, body) = request(server.addr(), "POST", "/solve", &big);
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
    let (status, _, text) = request(addr, "POST", "/solve", &body);
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"stop\":\"converged\""), "{text}");
    assert!(text.contains("\"cache\":\"miss\""), "{text}");

    let body = instance_body("r2", Some("fam"), "");
    let (status, _, text) = request(addr, "POST", "/solve", &body);
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"cache\":\"hit\""), "{text}");

    // Sparse storage rides the same schema.
    let body = instance_body("r3", None, "\"storage\":\"sparse\",");
    let (status, _, text) = request(addr, "POST", "/solve", &body);
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"stop\":\"converged\""), "{text}");

    // Batch: two lines, same family, warmed by the earlier solves.
    let manifest = format!(
        "{}\n{}\n",
        instance_body("b1", Some("fam"), ""),
        instance_body("b2", Some("fam"), "")
    );
    let (status, _, text) = request(addr, "POST", "/batch", &manifest);
    assert_eq!(status, 200, "{text}");
    assert_eq!(text.lines().count(), 2, "{text}");
    assert!(text.contains("\"id\":\"b1\""), "{text}");

    // Metrics reflect the traffic: well-formed families with queue depth,
    // request latency histogram, warm-start outcomes, solver metrics.
    let (status, _, metrics) = request(addr, "GET", "/metrics", "");
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

/// A solve's metrics reach `/metrics` whole: a request that never
/// converges runs to the 10 000-iteration cap, well past the 4096
/// per-iteration events a solve could once replay, and every one of its
/// convergence checks is counted.
#[test]
fn capped_solve_counts_every_convergence_check() {
    let cfg = ServeConfig::default();
    let cap = cfg.max_iterations;
    let server = quick_server(cfg);
    let addr = server.addr();
    let body = instance_body("capped", None, "\"epsilon\":-1.0,");
    let (_, _, text) = request(addr, "POST", "/solve", &body);
    assert!(text.contains("\"stop\":\"iteration_cap\""), "{text}");
    assert!(text.contains(&format!("\"iterations\":{cap}")), "{text}");

    let (_, _, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(
        metric_value(&metrics, "sea_convergence_checks_total"),
        cap as f64,
        "{metrics}"
    );
    assert!(!metrics.contains("dropped"), "{metrics}");
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
    let (status, _, text) = request(server.addr(), "POST", "/solve", &body);
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
    let (status, _, text) = request(addr, "POST", "/solve", &slow);
    assert_eq!(status, 429, "{text}");
    assert!(text.contains("queue full"), "{text}");
    for h in in_flight {
        let (status, _, _) = h.join().expect("in-flight request completes");
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
    let (status, _, text) = request(addr, "POST", "/solve", &instance_body("p1", None, ""));
    assert_eq!(status, 500, "{text}");
    assert!(text.contains("\"panic\":true"), "{text}");
    assert!(text.contains("worker panicked"), "{text}");

    let (status, _, text) = request(addr, "POST", "/solve", &instance_body("p2", None, ""));
    assert_eq!(status, 200, "{text}");

    let (_, _, metrics) = request(addr, "GET", "/metrics", "");
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
    let (status, _, text) = request(addr, "POST", "/solve", &instance_body("c1", None, ""));
    assert_eq!(status, 500, "{text}");
    assert!(text.contains("\"panic\":true"), "{text}");
    assert!(text.contains("worker crashed"), "{text}");

    wait_for_metric(addr, "sea_serve_worker_restarts_total", |v| v >= 1.0);
    wait_for_metric(addr, "sea_serve_workers_alive", |v| v == 1.0);
    let (status, _, text) = request(addr, "POST", "/solve", &instance_body("c2", None, ""));
    assert_eq!(status, 200, "service recovered after respawn: {text}");

    let (_, _, metrics) = request(addr, "GET", "/metrics", "");
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
    let (status, _, _) = request(addr, "POST", "/solve", &instance_body("s1", None, ""));
    assert_eq!(status, 500);
    wait_for_metric(addr, "sea_serve_worker_restarts_total", |v| v >= 1.0);
    let (status, _, body) = request(addr, "GET", "/readyz", "");
    assert_eq!(status, 503);
    assert!(body.contains("restart-storm"), "{body}");
    let (_, _, metrics) = request(addr, "GET", "/metrics", "");
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
        let (status, _, text) = request(addr, "POST", "/solve", &poison);
        assert_eq!(status, 200, "strike {n}: poison is typed, not 5xx: {text}");
        assert!(
            text.contains("breakdown") || text.contains("\"error\""),
            "strike {n} shows the watchdog outcome: {text}"
        );
    }

    let (status, head, text) = request(addr, "POST", "/solve", &poison);
    assert_eq!(status, 422, "{text}");
    assert!(text.contains("\"quarantined\":true"), "{text}");
    assert!(head.contains("Retry-After:"), "{head}");

    // Other families are unaffected while "toxic" is circuit-broken.
    let (status, _, _) = request(
        addr,
        "POST",
        "/solve",
        &instance_body("ok", Some("fine"), ""),
    );
    assert_eq!(status, 200);

    // Past the cooldown the probe is admitted; the chaos plan is spent,
    // so it solves cleanly and the circuit closes.
    std::thread::sleep(Duration::from_millis(350));
    let (status, _, text) = request(addr, "POST", "/solve", &poison);
    assert_eq!(status, 200, "probe heals the family: {text}");
    assert!(text.contains("\"stop\":\"converged\""), "{text}");
    let (status, _, _) = request(addr, "POST", "/solve", &poison);
    assert_eq!(status, 200, "circuit closed");

    let (_, _, metrics) = request(addr, "GET", "/metrics", "");
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
    let (status, head, text) = request(addr, "POST", "/solve", &doomed);
    assert_eq!(status, 429, "{text}");
    assert!(text.contains("\"shed\":true"), "{text}");
    assert!(text.contains("estimated queue wait"), "{text}");
    assert!(head.contains("Retry-After:"), "{head}");
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "shedding is an admission-time answer, not a timeout"
    );

    for h in in_flight {
        let (status, _, _) = h.join().expect("in-flight request completes");
        assert_eq!(status, 504);
    }
    let (_, _, metrics) = request(addr, "GET", "/metrics", "");
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
    let (status, _, text) = request(addr, "POST", "/solve", &body);
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"degraded\":true"), "{text}");
    assert!(text.contains("\"stop\":\"deadline_exceeded\""), "{text}");
    let (_, _, metrics) = request(addr, "GET", "/metrics", "");
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
    let (status, head, text) = request(addr, "POST", "/solve", &flood);
    assert_eq!(status, 429, "{text}");
    assert!(text.contains("admission quota"), "{text}");
    assert!(head.contains("Retry-After:"), "{head}");

    // A quiet tenant still gets in (and solved once the worker frees).
    let quiet = instance_body("quiet", None, "\"tenant\":\"quiet\",");
    let (status, _, text) = request(addr, "POST", "/solve", &quiet);
    assert_eq!(status, 200, "{text}");

    for h in in_flight {
        let (status, _, _) = h.join().expect("flood requests complete");
        assert_eq!(status, 504);
    }
    let (_, _, metrics) = request(addr, "GET", "/metrics", "");
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
    let (status, _, text) = request(addr, "POST", "/solve", &instance_body("here", None, ""));
    assert_eq!(status, 200, "{text}");
    wait_for_metric(addr, "sea_serve_inflight", |v| v == 0.0);
    let (_, _, metrics) = request(addr, "GET", "/metrics", "");
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
    let addr: SocketAddr = line
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
    let (status, _, text) = in_flight.join().expect("in-flight response arrives");
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
    let addr: SocketAddr = line
        .rsplit(' ')
        .next()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| panic!("no address in {line:?}"));

    // First solve hits the scripted crash: typed 500, worker respawned.
    let (status, _, text) = request(addr, "POST", "/solve", &instance_body("boom", None, ""));
    assert_eq!(status, 500, "{text}");
    assert!(text.contains("\"panic\":true"), "{text}");
    wait_for_metric(addr, "sea_serve_worker_restarts_total", |v| v >= 1.0);

    // Second solve proves the pool healed inside the real process.
    let (status, _, text) = request(addr, "POST", "/solve", &instance_body("after", None, ""));
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
    let addr: SocketAddr = line
        .rsplit(' ')
        .next()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| panic!("no address in {line:?}"));

    let solve = |id: &str| request(addr, "POST", "/solve", &instance_body(id, Some("fam"), ""));
    let (status, _, text) = solve("seed");
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"cache\":\"miss\""), "{text}");

    // Solve 2 reads the poisoned entry: a typed breakdown, not a 5xx.
    let (status, _, text) = solve("poisoned");
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"cache\":\"hit\""), "{text}");
    assert!(
        text.contains("breakdown") && !text.contains("\"stop\":\"converged\""),
        "{text}"
    );

    // The poisoned seed was dropped: cold, then warm from the fresh seed.
    let (status, _, text) = solve("cold-again");
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"cache\":\"miss\""), "{text}");
    assert!(text.contains("\"stop\":\"converged\""), "{text}");
    let (status, _, text) = solve("warm-again");
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

/// Load-smoke instance order (rows = cols).
const LOAD_N: usize = 40;
/// Families cycled by the load smoke.
const LOAD_FAMILIES: usize = 8;

/// One load-smoke family's request body: weights spanning seven decades
/// (`chi2` over a seven-phase prior), so convergence takes real work and
/// a warm dual seed pays off; exact-balance fixed totals at ε 1e-10.
fn family_body(index: u64) -> String {
    let mut rng = ChaCha8Rng::seed_from_u64(0xBE8C ^ index);
    let rows: Vec<String> = (0..LOAD_N)
        .map(|i| {
            let cells: Vec<String> = (0..LOAD_N)
                .map(|j| {
                    let phase = (i * LOAD_N + j) % 7;
                    let v: f64 = (1.0 + phase as f64) * rng.random_range(0.9..1.1);
                    format!("{v:.6}")
                })
                .collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    let s0: Vec<f64> = (0..LOAD_N)
        .map(|i| (20.0 + 3.0 * (i % 7) as f64) * rng.random_range(0.9..1.1))
        .collect();
    let grand: f64 = s0.iter().sum();
    let mut d0: Vec<f64> = (0..LOAD_N).map(|j| 30.0 - 4.0 * (j % 7) as f64).collect();
    let dsum: f64 = d0.iter().sum();
    for d in &mut d0 {
        *d *= grand / dsum;
    }
    d0[0] += grand - d0.iter().sum::<f64>();
    // `{x}` prints the shortest round-tripping form, so the server parses
    // back the exact f64s and the balance fix above survives.
    let fmt = |v: &[f64]| {
        let items: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
        format!("[{}]", items.join(","))
    };
    format!(
        "{{\"id\":\"req-{index}\",\"family\":\"fam-{index}\",\"epsilon\":1e-10,\
         \"weights\":\"chi2\",\"matrix\":[{}],\"row_totals\":{},\"col_totals\":{}}}",
        rows.join(","),
        fmt(&s0),
        fmt(&d0)
    )
}

/// Drive `total` solves over `clients` keep-alive connections, cycling
/// the family bodies; every answer must be a converged 200. With
/// `scrape`, `/metrics` is read while the clients run and must carry the
/// queue gauge, the latency histogram and the request and solve
/// counters. Returns the warm-start hits.
fn drive(addr: SocketAddr, bodies: &[String], clients: usize, total: usize, scrape: bool) -> usize {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut conn = connect(addr);
                    let mut hits = 0usize;
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= total {
                            return hits;
                        }
                        let body = &bodies[k % bodies.len()];
                        let (status, _, text) = exchange(&mut conn, "POST", "/solve", body, false);
                        assert_eq!(status, 200, "solve failed: {text}");
                        assert!(text.contains("\"stop\":\"converged\""), "{text}");
                        hits += usize::from(text.contains("\"cache\":\"hit\""));
                    }
                })
            })
            .collect();
        if scrape {
            let (status, _, metrics) = request(addr, "GET", "/metrics", "");
            assert_eq!(status, 200);
            for needle in [
                "# TYPE sea_serve_queue_depth gauge",
                "# TYPE sea_serve_request_seconds histogram",
                "sea_serve_request_seconds_bucket",
                "sea_serve_requests_total",
                "# TYPE sea_solves_total counter",
            ] {
                assert!(
                    metrics.contains(needle),
                    "mid-load /metrics missing {needle:?}"
                );
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum()
    })
}

/// Load smoke: 8 heterogeneous 40×40 families against a 4-worker server.
/// A serial cold pass over an empty cache gets no warm-start hits; a
/// concurrent keep-alive warm phase (2 clients, 24 solves) hits on at
/// least 90% of requests, and a `/metrics` scrape taken during it is
/// well-formed.
#[test]
fn load_smoke_cold_misses_then_warm_keep_alive_hits() {
    let server = quick_server(ServeConfig {
        workers: 4,
        queue_capacity: 256,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let bodies: Vec<String> = (0..LOAD_FAMILIES as u64).map(family_body).collect();

    // Serial, so every cold request is a genuine miss rather than racing
    // another request's fill of the same family.
    let cold_hits = drive(addr, &bodies, 1, LOAD_FAMILIES, false);
    assert_eq!(cold_hits, 0, "cold phase must not hit the cache");

    let requests = 3 * LOAD_FAMILIES;
    let warm_hits = drive(addr, &bodies, 2, requests, true);
    assert!(
        warm_hits * 10 >= requests * 9,
        "warm phase should hit the cache on >= 90% of requests ({warm_hits}/{requests})"
    );
    server.shutdown();
    server.join();
}

/// Chaos-soak outcomes: every request issued lands in exactly one bucket,
/// and the soak asserts the buckets sum to the requests issued — nothing
/// hangs, nothing answers twice.
#[derive(Default)]
struct Ledger {
    issued: usize,
    converged: usize,
    degraded: usize,
    breakdown: usize,
    deadline_504: usize,
    panic_500: usize,
    quarantined_422: usize,
    shed_429: usize,
}

impl Ledger {
    fn accounted(&self) -> usize {
        self.converged
            + self.degraded
            + self.breakdown
            + self.deadline_504
            + self.panic_500
            + self.quarantined_422
            + self.shed_429
    }

    /// File a final `(status, body)` under its bucket.
    fn file(&mut self, status: u16, body: &str) {
        self.issued += 1;
        match status {
            200 if body.contains("\"degraded\":true") => self.degraded += 1,
            200 if body.contains("breakdown") => self.breakdown += 1,
            200 => self.converged += 1,
            500 => self.panic_500 += 1,
            422 => self.quarantined_422 += 1,
            429 => self.shed_429 += 1,
            504 => self.deadline_504 += 1,
            other => panic!("unexpected status {other}: {body}"),
        }
    }
}

/// The soak's fault script. Solve sequence numbers are global and
/// 1-based, every scripted request below is serial, and quarantine
/// refusals never reach a worker (so they consume no sequence number),
/// which pins each fault to the request written next to it.
const CHAOS_SPEC: &str = "panic@1,crash@2,nan@3-4,cachecorrupt@6";

/// Deterministic chaos soak against a 2-worker server: a contained panic,
/// a worker crash and respawn, a poison family driven into quarantine
/// and back out, a corrupted warm-cache entry, degraded deadline
/// answers, an overload window shed at admission, a retrying client
/// riding `Retry-After` to success, and a stalled slow client. Every
/// request must get exactly one typed response, the pool must heal to
/// full strength, the quarantine must open and close, `/readyz` must
/// answer 200 again, and the drain must finish.
#[test]
fn chaos_soak_answers_every_request_and_the_service_recovers() {
    const WORKERS: usize = 2;
    let server = quick_server(ServeConfig {
        workers: WORKERS,
        max_iterations: 1_000_000_000,
        degraded_epsilon: Some(1.0),
        quarantine: Some(QuarantinePolicy {
            strikes: 2,
            cooldown: Duration::from_millis(300),
        }),
        chaos: ChaosPlan::parse(CHAOS_SPEC).expect("valid chaos spec"),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let mut ledger = Ledger::default();

    // seq 1 — contained panic: typed 500, the worker thread survives.
    let (status, _, body) = request(
        addr,
        "POST",
        "/solve",
        &instance_body("r1", Some("pan"), ""),
    );
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("\"panic\":true"), "{body}");
    ledger.file(status, &body);

    // seq 2 — worker crash: typed 500 from the dropped channel, then the
    // supervisor respawns the slot and the pool is whole again.
    let (status, _, body) = request(
        addr,
        "POST",
        "/solve",
        &instance_body("r2", Some("crash"), ""),
    );
    assert_eq!(status, 500, "{body}");
    ledger.file(status, &body);
    wait_for_metric(addr, "sea_serve_worker_restarts_total", |v| v >= 1.0);
    wait_for_metric(addr, "sea_serve_workers_alive", |v| v == WORKERS as f64);

    // seqs 3-4 — two scripted NaNs poison family "toxic": strike,
    // strike, circuit open.
    let toxic = instance_body("r3", Some("toxic"), "");
    for _ in 0..2 {
        let (status, _, body) = request(addr, "POST", "/solve", &toxic);
        assert_eq!(status, 200, "poison is typed, not 5xx: {body}");
        ledger.file(status, &body);
    }

    // no seq — the open circuit refuses at admission with 422.
    let (status, head, body) = request(addr, "POST", "/solve", &toxic);
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("\"quarantined\":true"), "{body}");
    assert!(head.contains("Retry-After:"), "{head}");
    ledger.file(status, &body);

    // seqs 5-7 — fill family "victim"'s warm entry, corrupt it with the
    // scripted fault (one poison strike, entry evicted), then watch the
    // next solve run cold and converge: the cache heals itself.
    let victim = instance_body("r6", Some("victim"), "");
    for expect_breakdown in [false, true, false] {
        let (status, _, body) = request(addr, "POST", "/solve", &victim);
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.contains("breakdown"), expect_breakdown, "{body}");
        ledger.file(status, &body);
    }

    // seq 8 — past the cooldown the probe is admitted, the chaos script
    // is spent, and the circuit closes.
    std::thread::sleep(Duration::from_millis(350));
    let (status, _, body) = request(addr, "POST", "/solve", &toxic);
    assert_eq!(status, 200, "probe heals the family: {body}");
    assert!(body.contains("\"stop\":\"converged\""), "{body}");
    ledger.file(status, &body);

    // seqs 9-11 — never-converging solves run to their deadlines and are
    // accepted at the degraded tolerance; they also seed the wait
    // estimator with honest slow-solve samples.
    for (id, deadline) in [("deg", 0.25), ("seed1", 0.3), ("seed2", 0.3)] {
        let extra = format!("\"deadline\":{deadline},\"epsilon\":-1.0,");
        let (status, _, body) = request(
            addr,
            "POST",
            "/solve",
            &instance_body(id, Some("slow"), &extra),
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"degraded\":true"), "{body}");
        ledger.file(status, &body);
    }

    // Overload window: occupy both workers and queue two more slow jobs,
    // then burst doomed short-deadline requests; every one is shed at
    // admission (429 + Retry-After) instead of rotting in the queue.
    let slow = instance_body("fill", Some("slow"), "\"deadline\":0.8,\"epsilon\":-1.0,");
    let mut fills = Vec::new();
    for wave in 0..2 {
        for _ in 0..WORKERS {
            let slow = slow.clone();
            fills.push(std::thread::spawn(move || {
                request(addr, "POST", "/solve", &slow)
            }));
        }
        // The first wave reaches the workers; the second sits in the queue.
        std::thread::sleep(Duration::from_millis(if wave == 0 { 150 } else { 100 }));
    }
    let doomed = instance_body(
        "doomed",
        Some("slow"),
        "\"deadline\":0.05,\"epsilon\":-1.0,",
    );
    for _ in 0..6 {
        let (status, head, body) = request(addr, "POST", "/solve", &doomed);
        assert_eq!(status, 429, "doomed request is shed at admission: {body}");
        assert!(body.contains("\"shed\":true"), "{body}");
        assert!(head.contains("Retry-After:"), "{head}");
        ledger.file(status, &body);
    }

    // A well-behaved client rides the Retry-After hints through the
    // storm: backs off, retries, and lands a (degraded) answer once the
    // overload clears.
    let mut client = RetryingClient::new(
        addr,
        RetryPolicy {
            max_attempts: 12,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(300),
            jitter_seed: 0x5EA_C4405,
        },
    );
    let reply = client
        .post("/solve", &doomed)
        .expect("retries ride out the overload");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(client.retries >= 1, "the storm forced at least one retry");
    ledger.file(reply.status, &reply.body);

    // A slow client stalls mid-head while the soak runs; it must cost a
    // connection thread, never a worker: the service stays live.
    let mut staller = TcpStream::connect(addr).expect("staller connects");
    staller
        .write_all(b"POST /solve HTTP/1.1\r\nContent-Le")
        .expect("partial head");
    std::thread::sleep(Duration::from_millis(250));
    assert_eq!(
        request(addr, "GET", "/healthz", "").0,
        200,
        "live while a client stalls"
    );
    drop(staller);

    for h in fills {
        let (status, _, body) = h.join().expect("fill completes");
        // The queued wave dequeues with its deadline already spent: a
        // degraded 200 when the first residual clears the bar, 504 when
        // the solve never got far enough. Both are typed, final answers.
        assert!(status == 200 || status == 504, "{status}: {body}");
        ledger.file(status, &body);
    }

    // Recovery: queue drained, pool full, breaker closed, ready again.
    wait_for_metric(addr, "sea_serve_queue_depth", |v| v == 0.0);
    wait_for_metric(addr, "sea_serve_inflight", |v| v == 0.0);
    let (_, _, metrics) = request(addr, "GET", "/metrics", "");
    let metric = |name: &str| metric_value(&metrics, name);
    assert!(metric("sea_serve_worker_panics_total") >= 1.0, "{metrics}");
    assert!(metric("sea_serve_worker_crashes_total") >= 1.0, "{metrics}");
    assert!(
        metric("sea_serve_worker_restarts_total") >= 1.0,
        "{metrics}"
    );
    assert!(
        metric("sea_serve_quarantine_opens_total") >= 1.0,
        "{metrics}"
    );
    assert!(
        metric("sea_serve_quarantine_refusals_total") >= 1.0,
        "{metrics}"
    );
    assert!(
        metric("sea_serve_quarantine_closes_total") >= 1.0,
        "{metrics}"
    );
    assert_eq!(metric("sea_serve_quarantined_families"), 0.0);
    assert!(metric("sea_serve_shed_total{reason=\"wait\"}") >= ledger.shed_429 as f64);
    assert!(metric("sea_serve_degraded_total") >= 1.0, "{metrics}");
    assert_eq!(metric("sea_serve_workers_alive"), WORKERS as f64);
    assert_eq!(metric("sea_serve_restart_breaker_open"), 0.0);
    assert_eq!(
        request(addr, "GET", "/readyz", "").0,
        200,
        "ready again after the storm"
    );

    assert_eq!(
        ledger.accounted(),
        ledger.issued,
        "every chaos request got exactly one typed response"
    );
    server.shutdown();
    server.join();
}
