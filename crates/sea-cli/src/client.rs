//! A small retrying HTTP client for the `sea-serve` daemon.
//!
//! The service's overload answers are *advisory*: 429 (shed, quota, or
//! queue full) and 503 (draining) mean "try again shortly", and carry a
//! `Retry-After` header saying when. A well-behaved client honors that
//! hint, backs off exponentially with jitter when there is none, and
//! treats transport errors (connection refused while a daemon restarts)
//! the same way. This module is that client: used by the sea-serve
//! chaos soak (`tests/serve.rs`), and reusable by any tooling that
//! talks to the daemon.
//!
//! Retries are capped by [`RetryPolicy::max_attempts`]; terminal
//! statuses (2xx, 4xx other than 429, 500, 504) are returned to the
//! caller as-is — a quarantined family's 422 or a panic's 500 is an
//! *answer*, not a transient.
//!
//! Jitter is deterministic (a seeded SplitMix64 stream), so a seeded
//! run replays the same backoff schedule.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How a request ultimately failed after all retries.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure on the last attempt.
    Io(std::io::Error),
    /// The response head was not parseable HTTP.
    BadResponse(String),
    /// Every attempt answered a retryable status; the last one is here.
    RetriesExhausted {
        /// Status of the final attempt.
        status: u16,
        /// Body of the final attempt.
        body: String,
        /// Attempts made (== `max_attempts`).
        attempts: usize,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::BadResponse(msg) => write!(f, "bad response: {msg}"),
            ClientError::RetriesExhausted {
                status, attempts, ..
            } => {
                write!(
                    f,
                    "gave up after {attempts} attempts (last status {status})"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// One parsed response.
#[derive(Debug)]
pub struct HttpReply {
    /// Status code.
    pub status: u16,
    /// `Retry-After` header in seconds, when the server sent one.
    pub retry_after: Option<f64>,
    /// Response body.
    pub body: String,
}

/// Backoff configuration.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try + retries); min 1.
    pub max_attempts: usize,
    /// First backoff step; doubles per retry.
    pub base_backoff: Duration,
    /// Cap on any single sleep, including server-provided `Retry-After`
    /// (a bench must not sleep for a production-sized cooldown).
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
            jitter_seed: 0x5EA_C11E47,
        }
    }
}

/// A retrying client bound to one server address. One TCP connection per
/// request (`Connection: close`): robust across worker restarts and
/// drains, which is exactly when this client earns its keep.
#[derive(Debug)]
pub struct RetryingClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    /// SplitMix64 state for jitter.
    rng: u64,
    /// Retries performed over the client's lifetime (bench accounting).
    pub retries: u64,
}

impl RetryingClient {
    /// A client for `addr` under `policy`.
    pub fn new(addr: SocketAddr, policy: RetryPolicy) -> Self {
        RetryingClient {
            addr,
            rng: policy.jitter_seed,
            policy,
            retries: 0,
        }
    }

    /// Next jitter fraction in `[0.5, 1.5)` (SplitMix64).
    fn jitter(&mut self) -> f64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        0.5 + (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Sleep before retry `attempt` (0-based), honoring the server's
    /// `Retry-After` when present, else exponential backoff with jitter.
    fn backoff(&mut self, attempt: usize, retry_after: Option<f64>) {
        let secs = match retry_after {
            Some(s) if s.is_finite() && s > 0.0 => s,
            _ => {
                let exp = self.policy.base_backoff.as_secs_f64() * (1u64 << attempt.min(20)) as f64;
                exp * self.jitter()
            }
        };
        let capped = secs.min(self.policy.max_backoff.as_secs_f64());
        std::thread::sleep(Duration::from_secs_f64(capped));
    }

    /// POST `body` to `path`, retrying on transport errors, 429, and
    /// 503 until a terminal answer or the attempt cap.
    pub fn post(&mut self, path: &str, body: &str) -> Result<HttpReply, ClientError> {
        self.request("POST", path, body)
    }

    /// GET `path` with the same retry behavior as [`RetryingClient::post`].
    pub fn get(&mut self, path: &str) -> Result<HttpReply, ClientError> {
        self.request("GET", path, "")
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<HttpReply, ClientError> {
        let attempts = self.policy.max_attempts.max(1);
        let mut last: Option<HttpReply> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.retries += 1;
                let hint = last.as_ref().and_then(|r| r.retry_after);
                self.backoff(attempt - 1, hint);
            }
            match one_exchange(self.addr, method, path, body) {
                Ok(reply) if reply.status == 429 || reply.status == 503 => {
                    last = Some(reply);
                }
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    // Transport errors retry like a 503 (daemon mid-restart);
                    // surfaced only if the last attempt also fails.
                    if attempt + 1 == attempts {
                        return Err(ClientError::Io(e));
                    }
                    last = None;
                }
            }
        }
        match last {
            Some(reply) => Err(ClientError::RetriesExhausted {
                status: reply.status,
                body: reply.body,
                attempts,
            }),
            None => Err(ClientError::BadResponse(
                "no response after retries".to_string(),
            )),
        }
    }
}

/// One `Connection: close` HTTP/1.1 exchange.
fn one_exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<HttpReply> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let frame = format!(
        "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    writer.write_all(frame.as_bytes())?;
    writer.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line {status_line:?}"),
            )
        })?;
    let mut content_length = 0usize;
    let mut retry_after = None;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header)?;
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            match name.as_str() {
                "content-length" => content_length = value.parse().unwrap_or(0),
                "retry-after" => retry_after = value.parse().ok(),
                _ => {}
            }
        }
    }
    let mut buf = vec![0u8; content_length];
    reader.read_exact(&mut buf)?;
    Ok(HttpReply {
        status,
        retry_after,
        body: String::from_utf8_lossy(&buf).into_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A scripted one-thread server: answers each connection with the
    /// next canned (status, extra-header, body) frame.
    fn scripted_server(frames: Vec<(u16, Option<&'static str>, &'static str)>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let served = Arc::new(AtomicUsize::new(0));
        std::thread::spawn(move || {
            for (status, extra, body) in frames {
                let (mut stream, _) = match listener.accept() {
                    Ok(s) => s,
                    Err(_) => return,
                };
                // Drain the request head + body enough to not reset early.
                let mut buf = [0u8; 4096];
                let _ = stream.read(&mut buf);
                let extra = extra.map(|e| format!("{e}\r\n")).unwrap_or_default();
                let frame = format!(
                    "HTTP/1.1 {status} X\r\nContent-Length: {}\r\nConnection: close\r\n{extra}\r\n{body}",
                    body.len()
                );
                let _ = stream.write_all(frame.as_bytes());
                served.fetch_add(1, Ordering::SeqCst);
            }
        });
        addr
    }

    fn quick_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            jitter_seed: 7,
        }
    }

    #[test]
    fn retries_429_until_success_honoring_retry_after() {
        let addr = scripted_server(vec![
            (429, Some("Retry-After: 0.01"), "{\"error\":\"shed\"}"),
            (429, Some("Retry-After: 0.01"), "{\"error\":\"shed\"}"),
            (200, None, "{\"ok\":true}"),
        ]);
        let mut client = RetryingClient::new(addr, quick_policy());
        let reply = client.post("/solve", "{}").unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(client.retries, 2);
    }

    #[test]
    fn terminal_statuses_are_not_retried() {
        let addr = scripted_server(vec![(422, Some("Retry-After: 5"), "{\"error\":\"q\"}")]);
        let mut client = RetryingClient::new(addr, quick_policy());
        let reply = client.post("/solve", "{}").unwrap();
        assert_eq!(reply.status, 422);
        assert_eq!(reply.retry_after, Some(5.0));
        assert_eq!(client.retries, 0);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let addr = scripted_server(vec![
            (503, None, "draining"),
            (503, None, "draining"),
            (503, None, "draining"),
            (503, None, "draining"),
        ]);
        let mut client = RetryingClient::new(addr, quick_policy());
        match client.post("/solve", "{}") {
            Err(ClientError::RetriesExhausted {
                status, attempts, ..
            }) => {
                assert_eq!(status, 503);
                assert_eq!(attempts, 4);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn jitter_stream_is_deterministic() {
        let mk = || RetryingClient::new("127.0.0.1:1".parse().unwrap(), quick_policy());
        let (mut a, mut b) = (mk(), mk());
        let ja: Vec<f64> = (0..8).map(|_| a.jitter()).collect();
        let jb: Vec<f64> = (0..8).map(|_| b.jitter()).collect();
        assert_eq!(ja, jb);
        assert!(ja.iter().all(|j| (0.5..1.5).contains(j)));
    }
}
