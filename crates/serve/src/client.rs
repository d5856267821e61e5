//! Minimal blocking HTTP/1.1 client for `gmap client` and the tests,
//! plus a retrying wrapper with exponential backoff and decorrelated
//! jitter.
//!
//! Each call opens one connection, writes one request (looping on
//! partial writes), and reads the `Connection: close` response to EOF.
//! The response's `Content-Length` is verified against the bytes
//! actually received, so a connection reset mid-body surfaces as a
//! transport error instead of a silently truncated result.
//!
//! Retry policy: only idempotent requests are retried. Every pipeline
//! endpoint is content-addressed — the same spec always produces the
//! same model — so `GET`s and the `/v1/*` `POST`s all qualify. Transient
//! statuses (408, 429, 500, 503, 504) and transport errors back off
//! exponentially with decorrelated jitter; a server-provided
//! `Retry-After` is honored, clamped to the policy cap. The jitter is
//! seeded (via [`gmap_trace::rng::mix64`]) so a given policy replays the
//! same sleep schedule.

use gmap_trace::rng::mix64;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (UTF-8; the service only emits JSON and text).
    pub body: String,
    /// Seconds from a `Retry-After` header, when the server sent one.
    pub retry_after: Option<u64>,
}

impl Response {
    /// Whether the status is a 2xx.
    pub fn is_ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Statuses worth retrying: timeouts, backpressure, and contained
/// worker failures. 4xx validation errors are deterministic and final.
pub const RETRYABLE_STATUSES: [u16; 5] = [408, 429, 500, 503, 504];

/// Whether `(method, path)` is safe to retry. Every pipeline endpoint is
/// content-addressed (the request body fully determines the result), so
/// replays are harmless.
pub fn is_idempotent(method: &str, path: &str) -> bool {
    method == "GET" || (method == "POST" && path.starts_with("/v1/"))
}

/// Backoff configuration for [`request_with_retry`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = single attempt).
    pub max_retries: u32,
    /// Minimum sleep between attempts.
    pub base: Duration,
    /// Maximum sleep between attempts (also clamps `Retry-After`).
    pub cap: Duration,
    /// Jitter seed: a fixed policy replays a fixed sleep schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(5),
            seed: 0x6761_705f_636c_6965, // "gap_clie", arbitrary fixed seed
        }
    }
}

impl RetryPolicy {
    /// Decorrelated jitter (`sleep = rand(base, prev * 3)`, capped): the
    /// classic scheme that spreads concurrent retriers apart instead of
    /// synchronizing them into waves.
    fn next_sleep(&self, prev: Duration, attempt: u32) -> Duration {
        let lo = self.base.as_millis().max(1) as u64;
        let hi = (prev.as_millis() as u64).saturating_mul(3).max(lo + 1);
        let draw = mix64(self.seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Duration::from_millis((lo + draw % (hi - lo)).min(self.cap.as_millis() as u64))
    }
}

/// Performs one request against `addr` (e.g. `"127.0.0.1:8080"`).
///
/// # Errors
///
/// Transport failures and unparseable responses surface as `io::Error`.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let payload = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        payload.len()
    );
    let mut request = head.into_bytes();
    request.extend_from_slice(payload.as_bytes());
    write_all_looping(&mut stream, &request)?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// Writes the whole buffer, looping on short writes instead of assuming
/// one `write` call moves everything (a stalled or slow server must not
/// silently truncate the request).
fn write_all_looping<W: Write>(writer: &mut W, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match writer.write(buf) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "connection closed mid-request",
                ))
            }
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Performs a request, retrying transient failures when the request is
/// idempotent. Non-idempotent requests get exactly one attempt.
///
/// # Errors
///
/// The last transport error once retries are exhausted.
pub fn request_with_retry(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    policy: &RetryPolicy,
) -> std::io::Result<Response> {
    let attempts = if is_idempotent(method, path) {
        policy.max_retries + 1
    } else {
        1
    };
    let mut sleep = policy.base;
    let mut last_err = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(sleep);
        }
        let hint = match request(addr, method, path, body) {
            Ok(resp) if !RETRYABLE_STATUSES.contains(&resp.status) => return Ok(resp),
            Ok(resp) if attempt + 1 == attempts => return Ok(resp),
            Ok(resp) => resp.retry_after,
            Err(e) => {
                last_err = Some(e);
                None
            }
        };
        sleep = policy.next_sleep(sleep, attempt);
        if let Some(secs) = hint {
            // Honor the server's hint, but never beyond the local cap —
            // the caller's patience bounds the server's request.
            sleep = sleep.max(Duration::from_secs(secs)).min(policy.cap);
        }
    }
    Err(last_err.unwrap_or_else(|| std::io::Error::other("retries exhausted")))
}

/// Convenience `GET`.
///
/// # Errors
///
/// See [`request`].
pub fn get(addr: &str, path: &str) -> std::io::Result<Response> {
    request(addr, "GET", path, None)
}

/// Convenience `POST` with a JSON body.
///
/// # Errors
///
/// See [`request`].
pub fn post_json(addr: &str, path: &str, json: &str) -> std::io::Result<Response> {
    request(addr, "POST", path, Some(json))
}

/// `POST` with a `Transfer-Encoding: chunked` body streamed from
/// `reader` in `chunk_size`-byte pieces — for `/v1/ingest`, where the
/// body is a raw trace that may be too large to hold in memory. Each
/// piece is framed (`<hex len>\r\n<data>\r\n`) and written immediately,
/// so the client's resident buffer is one chunk regardless of trace
/// size.
///
/// # Errors
///
/// Transport failures and unparseable responses surface as `io::Error`.
pub fn post_chunked<R: Read>(
    addr: &str,
    path: &str,
    reader: &mut R,
    chunk_size: usize,
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/octet-stream\r\n\
         Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    );
    write_all_looping(&mut stream, head.as_bytes())?;
    let mut buf = vec![0u8; chunk_size.max(1)];
    loop {
        let n = match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        write_all_looping(&mut stream, format!("{n:x}\r\n").as_bytes())?;
        write_all_looping(&mut stream, &buf[..n])?;
        write_all_looping(&mut stream, b"\r\n")?;
    }
    write_all_looping(&mut stream, b"0\r\n\r\n")?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> std::io::Result<Response> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let text = String::from_utf8_lossy(raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .or_else(|| text.split_once("\n\n"))
        .ok_or_else(|| bad("response has no header/body separator"))?;
    let status_line = head.lines().next().ok_or_else(|| bad("empty response"))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let header = |name: &str| {
        head.lines().skip(1).find_map(|line| {
            let (k, v) = line.split_once(':')?;
            k.trim().eq_ignore_ascii_case(name).then(|| v.trim())
        })
    };
    if let Some(expected) = header("content-length").and_then(|v| v.parse::<usize>().ok()) {
        if body.len() != expected {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!(
                    "response truncated: got {} of {} body bytes",
                    body.len(),
                    expected
                ),
            ));
        }
    }
    let retry_after = header("retry-after").and_then(|v| v.parse().ok());
    Ok(Response {
        status,
        body: body.to_string(),
        retry_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response() {
        let r = parse_response(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}",
        )
        .expect("parses");
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "{}");
        assert!(r.is_ok());
        assert_eq!(r.retry_after, None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http at all").is_err());
        assert!(parse_response(b"HTTP/1.1 abc\r\n\r\nx").is_err());
    }

    #[test]
    fn truncated_body_is_a_transport_error() {
        let r = parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{\"a\"");
        assert!(r.is_err(), "reset mid-body must not parse as success");
    }

    #[test]
    fn retry_after_header_is_parsed() {
        let r = parse_response(b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 7\r\n\r\n")
            .expect("parses");
        assert_eq!(r.retry_after, Some(7));
    }

    #[test]
    fn idempotency_is_method_and_path_aware() {
        assert!(is_idempotent("GET", "/metrics"));
        assert!(is_idempotent("POST", "/v1/profile"));
        assert!(is_idempotent("POST", "/v1/evaluate"));
        assert!(!is_idempotent("POST", "/admin/reset"));
        assert!(!is_idempotent("DELETE", "/v1/profile"));
    }

    #[test]
    fn jitter_schedule_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_retries: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            seed: 42,
        };
        let mut a = policy.base;
        let mut b = policy.base;
        for attempt in 0..5 {
            a = policy.next_sleep(a, attempt);
            b = policy.next_sleep(b, attempt);
            assert_eq!(a, b, "same seed, same schedule");
            assert!(a >= policy.base && a <= policy.cap);
        }
        let other = RetryPolicy { seed: 43, ..policy };
        let mut c = other.base;
        let mut differs = false;
        let mut d = policy.base;
        for attempt in 0..5 {
            c = other.next_sleep(c, attempt);
            d = policy.next_sleep(d, attempt);
            differs |= c != d;
        }
        assert!(differs, "different seeds decorrelate");
    }

    #[test]
    fn partial_writes_are_looped() {
        // A writer that accepts one byte at a time.
        struct OneByte(Vec<u8>);
        impl Write for OneByte {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if buf.is_empty() {
                    return Ok(0);
                }
                self.0.push(buf[0]);
                Ok(1)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = OneByte(Vec::new());
        write_all_looping(&mut w, b"hello world").expect("writes fully");
        assert_eq!(w.0, b"hello world");
    }
}
