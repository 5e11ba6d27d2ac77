//! Adversarial HTTP framing tests: property-generated malformed input —
//! truncated heads, oversized `Content-Length` declarations, keep-alive
//! garbage, arbitrary bytes — must never panic the parser, and a live
//! server fed the same garbage must answer a clean 4xx (or just close)
//! and keep serving.

use proptest::prelude::*;
use sea_serve::http::{read_request, ReadError, Request};
use sea_serve::{ServeConfig, Server};
use std::io::{BufReader, Cursor, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::OnceLock;

const MAX_BODY: usize = 1024;

/// The vendored proptest implements `Strategy` on exclusive integer
/// ranges only, and `Range<u8>` cannot spell 255 — draw wider and wrap.
fn bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u16>> {
    proptest::collection::vec(0u16..256, len)
}

fn narrow(wide: &[u16]) -> Vec<u8> {
    wide.iter().map(|&b| b as u8).collect()
}

fn parse_bytes(raw: &[u8]) -> Result<Request, ReadError> {
    read_request(&mut BufReader::new(Cursor::new(raw.to_vec())), MAX_BODY)
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_the_parser(raw in bytes(0..2048)) {
        // The only contract on garbage is a typed error or a parse —
        // never a panic, never an unbounded allocation.
        let _ = parse_bytes(&narrow(&raw));
    }

    #[test]
    fn declared_length_over_cap_fails_before_reading_the_body(
        extra in 1usize..10_000
    ) {
        let declared = MAX_BODY + extra;
        let raw = format!("POST /solve HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n");
        match parse_bytes(raw.as_bytes()) {
            Err(ReadError::BodyTooLarge { declared: d, limit }) => {
                prop_assert_eq!(d, declared);
                prop_assert_eq!(limit, MAX_BODY);
            }
            other => prop_assert!(false, "expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_requests_error_cleanly(cut in 0usize..66) {
        let full = "POST /solve HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nabcd";
        let cut = cut.min(full.len() - 1);
        // Every proper prefix is missing bytes somewhere — head, blank
        // line, or body — so parsing must fail, and fail typed.
        prop_assert!(parse_bytes(&full.as_bytes()[..cut]).is_err());
    }

    #[test]
    fn keep_alive_garbage_after_a_valid_request_is_contained(
        garbage in bytes(1..512)
    ) {
        let mut raw = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nok".to_vec();
        raw.extend_from_slice(&narrow(&garbage));
        let mut reader = BufReader::new(Cursor::new(raw));
        let first = read_request(&mut reader, MAX_BODY);
        prop_assert!(first.is_ok(), "the valid frame parses: {first:?}");
        prop_assert_eq!(first.ok().map(|r| r.body), Some(b"ok".to_vec()));
        // The trailing garbage on the same connection parses or errors,
        // but never panics and never bleeds into the first request.
        let _ = read_request(&mut reader, MAX_BODY);
    }
}

/// One shared live server for the socket-level cases (leaked so its
/// threads outlive the proptest loop).
fn live_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let server = Server::bind(ServeConfig {
            max_body_bytes: MAX_BODY,
            ..ServeConfig::default()
        })
        .expect("bind fuzz server");
        let addr = server.addr();
        std::mem::forget(server);
        addr
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn live_server_answers_garbage_with_4xx_or_close_and_keeps_serving(
        raw in bytes(0..1024)
    ) {
        let addr = live_addr();
        if let Ok(mut conn) = TcpStream::connect(addr) {
            let _ = conn.write_all(&narrow(&raw));
            let _ = conn.shutdown(Shutdown::Write);
            let mut out = Vec::new();
            let _ = conn.take(8192).read_to_end(&mut out);
            if !out.is_empty() {
                // Random bytes cannot spell a well-formed solve request;
                // any answer the server gives must be a clean 4xx.
                let head = String::from_utf8_lossy(&out);
                prop_assert!(head.starts_with("HTTP/1.1 4"), "unexpected: {head}");
            }
        }
        // And the server is still healthy for the next client.
        let mut conn = TcpStream::connect(addr).expect("server still accepts");
        conn.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("send healthz");
        let mut reply = String::new();
        BufReader::new(conn)
            .read_to_string(&mut reply)
            .expect("read healthz");
        prop_assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    }
}
