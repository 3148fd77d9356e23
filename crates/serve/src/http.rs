//! Hand-rolled HTTP/1.1: request parsing and response writing over
//! `std::net::TcpStream`.
//!
//! This container builds offline, so — exactly like `disp-rng` replaced
//! `rand` and `disp_analysis::json` replaced `serde_json` — this module
//! carries the small HTTP/1.1 subset the campaign service actually needs
//! instead of pulling `hyper`:
//!
//! * request line + headers + `Content-Length` bodies, plus
//!   `Transfer-Encoding: chunked` request bodies (the cluster workers
//!   stream batch results without knowing the length up front);
//! * persistent connections (HTTP/1.1 keep-alive semantics, honoring
//!   `Connection: close`), with pipelined requests handled naturally by
//!   the leftover-buffer design;
//! * fixed-length responses and `Transfer-Encoding: chunked` streaming for
//!   the JSONL results endpoint;
//! * hard limits on header and body size so a confused client cannot make
//!   the server buffer unboundedly.
//!
//! Reads run under a short socket timeout and poll a shutdown latch, which
//! is what makes graceful drain possible: an idle keep-alive connection
//! notices shutdown within one tick instead of holding a worker forever.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Socket read timeout; also the shutdown-poll tick for idle connections.
pub const READ_TICK: Duration = Duration::from_millis(100);
/// Idle keep-alive ticks before the server closes the connection (~30 s).
const MAX_IDLE_TICKS: u32 = 300;
/// Wall-clock deadline for completing a request (first byte to last).
/// Deliberately wall-clock rather than timeout-tick based: a sender
/// dripping one byte per 50 ms never lets a read time out, yet must not
/// hold a worker past this budget either (the slow-loris shape).
const MAX_REQUEST_WALL: Duration = Duration::from_secs(10);
/// Ticks a connection that has not yet sent its first request may hold a
/// worker while other accepted connections are waiting for one (~1 s).
const PRESSURE_FIRST_REQUEST_TICKS: u32 = 10;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Path without the query string (e.g. `/runs/r1/results`).
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`).
    pub fn wants_keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }
}

/// Why [`read_request`] returned without a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// A complete request was parsed.
    Parsed,
    /// The peer closed (or went idle past the budget, or shutdown was
    /// requested while idle) — close the connection without a response.
    Closed,
}

/// Read one request from `stream` into `req_out`, using `buf` as the
/// connection's carry-over buffer (bytes of a pipelined next request stay
/// in it between calls).
///
/// `waiting` is the number of accepted connections no worker has picked up
/// yet. When it is nonzero, a request-less connection returns `Closed` so
/// its worker can serve the queue instead — immediately if `yield_idle` is
/// set (the caller has already served a request on this connection; the
/// client treats the close as ordinary keep-alive expiry and reconnects),
/// and after a short first-request grace (~1 s) otherwise, so a freshly
/// accepted connection that never speaks cannot pin a worker while honest
/// clients — who send their request within the round trip — queue behind
/// it. Without these yields, `http_threads` silent connections would hold
/// every worker for the full idle budget.
///
/// Returns `Ok(ReadOutcome::Closed)` on clean EOF / idle shutdown / idle
/// yield, and `Err(message)` on malformed input (the caller should answer
/// 400 and close).
pub fn read_request(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    shutdown: &AtomicBool,
    waiting: &AtomicUsize,
    yield_idle: bool,
    req_out: &mut Option<Request>,
) -> Result<ReadOutcome, String> {
    *req_out = None;
    let mut idle_ticks = 0u32;
    // Set when the first byte of a request arrives; the whole request must
    // complete within MAX_REQUEST_WALL of it.
    let mut request_started: Option<std::time::Instant> = None;
    let mut chunk = [0u8; 8192];
    loop {
        // Try to parse what we already have.
        if let Some(head_end) = find_head_end(buf) {
            if head_end > MAX_HEAD_BYTES {
                return Err("request head too large".into());
            }
            let (mut req, body) = parse_head(&buf[..head_end])?;
            match body {
                BodyKind::Len(body_len) => {
                    if body_len > MAX_BODY_BYTES {
                        return Err("request body too large".into());
                    }
                    if buf.len() >= head_end + body_len {
                        req.body = buf[head_end..head_end + body_len].to_vec();
                        buf.drain(..head_end + body_len);
                        *req_out = Some(req);
                        return Ok(ReadOutcome::Parsed);
                    }
                }
                BodyKind::Chunked => {
                    if let Some((body, consumed)) = decode_chunked(&buf[head_end..])? {
                        req.body = body;
                        buf.drain(..head_end + consumed);
                        *req_out = Some(req);
                        return Ok(ReadOutcome::Parsed);
                    }
                    // Incomplete chunk stream: cap the raw buffered bytes so
                    // a sender cannot grow the carry-over buffer unboundedly
                    // by never terminating the stream.
                    if buf.len() - head_end > MAX_BODY_BYTES + MAX_HEAD_BYTES {
                        return Err("request body too large".into());
                    }
                }
            }
        } else if buf.len() > MAX_HEAD_BYTES {
            return Err("request head too large".into());
        }
        // The wall-clock deadline applies whether the sender is stalling
        // (timeouts below) or dripping bytes fast enough to dodge them.
        if !buf.is_empty() {
            let started = *request_started.get_or_insert_with(std::time::Instant::now);
            if started.elapsed() > MAX_REQUEST_WALL {
                return Err("timed out mid-request".into());
            }
        }
        // Need more bytes.
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(ReadOutcome::Closed)
                } else {
                    Err("connection closed mid-request".into())
                };
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                // Only the idle budget resets on progress; the wall-clock
                // request deadline never does.
                idle_ticks = 0;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if buf.is_empty() {
                    // Request-less: this is where graceful drain and the
                    // yield-to-the-queue policy take effect.
                    if shutdown.load(Ordering::SeqCst) {
                        return Ok(ReadOutcome::Closed);
                    }
                    idle_ticks += 1;
                    if waiting.load(Ordering::SeqCst) > 0
                        && (yield_idle || idle_ticks > PRESSURE_FIRST_REQUEST_TICKS)
                    {
                        return Ok(ReadOutcome::Closed);
                    }
                    if idle_ticks > MAX_IDLE_TICKS {
                        return Ok(ReadOutcome::Closed);
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}

/// Index just past the `\r\n\r\n` terminating the head, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// How the request's body is delimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BodyKind {
    /// `Content-Length` bytes follow the head (0 when absent).
    Len(usize),
    /// `Transfer-Encoding: chunked` — decode until the 0-chunk.
    Chunked,
}

/// Parse request line + headers; returns the request (body empty) and how
/// its body is delimited.
fn parse_head(head: &[u8]) -> Result<(Request, BodyKind), String> {
    let text = std::str::from_utf8(head).map_err(|_| "request head is not UTF-8".to_string())?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split(' ');
    let method = parts.next().ok_or("missing method")?.to_string();
    let target = parts.next().ok_or("missing request target")?;
    let version = parts.next().ok_or("missing HTTP version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol '{version}'"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the blank line before \r\n\r\n
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed header line '{line}'"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let req = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
    };
    if let Some(te) = req.header("transfer-encoding") {
        if !te.eq_ignore_ascii_case("chunked") {
            return Err(format!("unsupported transfer-encoding '{te}'"));
        }
        if req.header("content-length").is_some() {
            // Smuggling-shaped ambiguity; refuse rather than pick a winner.
            return Err("both content-length and transfer-encoding".into());
        }
        return Ok((req, BodyKind::Chunked));
    }
    let body_len = match req.header("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("bad content-length '{v}'"))?,
        None => 0,
    };
    Ok((req, BodyKind::Len(body_len)))
}

/// Decode a chunked body from the front of `buf`.
///
/// Returns `Ok(None)` when the stream is not yet complete, and
/// `Ok(Some((body, consumed)))` — decoded bytes plus how many raw bytes the
/// stream occupied — once the terminating 0-chunk (and its final CRLF) has
/// arrived. Chunk-size lines may carry extensions after `;` (ignored);
/// trailers are not supported. The decoded body is capped at
/// [`MAX_BODY_BYTES`].
fn decode_chunked(buf: &[u8]) -> Result<Option<(Vec<u8>, usize)>, String> {
    let mut body = Vec::new();
    let mut pos = 0usize;
    loop {
        // Find the CRLF ending the chunk-size line.
        let rest = &buf[pos..];
        let Some(line_end) = rest.windows(2).position(|w| w == b"\r\n") else {
            // A size line cannot legitimately be long; bound the search.
            if rest.len() > 1024 {
                return Err("malformed chunk size line".into());
            }
            return Ok(None);
        };
        let line = std::str::from_utf8(&rest[..line_end])
            .map_err(|_| "chunk size line is not UTF-8".to_string())?;
        let size_str = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_str, 16)
            .map_err(|_| format!("bad chunk size '{size_str}'"))?;
        pos += line_end + 2;
        if size == 0 {
            // Final chunk: expect the terminating CRLF (no trailers).
            if buf.len() < pos + 2 {
                return Ok(None);
            }
            if &buf[pos..pos + 2] != b"\r\n" {
                return Err("trailers are not supported".into());
            }
            return Ok(Some((body, pos + 2)));
        }
        // `body.len() <= MAX_BODY_BYTES` always, so this cannot wrap the
        // way `body.len() + size` does for a size near `usize::MAX`.
        if size > MAX_BODY_BYTES - body.len() {
            return Err("request body too large".into());
        }
        if buf.len() < pos + size + 2 {
            return Ok(None);
        }
        body.extend_from_slice(&buf[pos..pos + size]);
        if &buf[pos + size..pos + size + 2] != b"\r\n" {
            return Err("chunk data not CRLF-terminated".into());
        }
        pos += size + 2;
    }
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect()
}

/// Standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        _ => "",
    }
}

/// Write a complete fixed-length response.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Begin a chunked response (the JSONL streaming path). Follow with any
/// number of [`write_chunk`] calls and one [`finish_chunks`].
pub fn write_chunked_head(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ntransfer-encoding: chunked\r\nconnection: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(head.as_bytes())
}

/// Write one non-empty chunk.
pub fn write_chunk(stream: &mut TcpStream, data: &[u8]) -> std::io::Result<()> {
    if data.is_empty() {
        return Ok(()); // an empty chunk would terminate the stream
    }
    write!(stream, "{:x}\r\n", data.len())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")
}

/// Terminate a chunked response.
pub fn finish_chunks(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_head_with_query_and_headers() {
        let head = b"POST /runs?format=summary&x HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\n";
        let (req, body) = parse_head(&head[..]).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/runs");
        assert_eq!(req.query_param("format"), Some("summary"));
        assert_eq!(req.query_param("x"), Some(""));
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(body, BodyKind::Len(5));
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let head = b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n";
        let (req, _) = parse_head(&head[..]).unwrap();
        assert!(!req.wants_keep_alive());
    }

    #[test]
    fn rejects_malformed_heads() {
        assert!(parse_head(b"GET\r\n\r\n").is_err());
        assert!(parse_head(b"GET / HTTP/2\r\n\r\n").is_err());
        assert!(parse_head(b"GET / HTTP/1.1\r\nbroken line\r\n\r\n").is_err());
        assert!(parse_head(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
        assert!(parse_head(b"GET / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n").is_err());
        let smuggle = b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n";
        assert!(parse_head(&smuggle[..]).is_err());
    }

    #[test]
    fn chunked_request_heads_are_accepted() {
        let head = b"POST /internal/complete HTTP/1.1\r\nTransfer-Encoding: Chunked\r\n\r\n";
        let (_, body) = parse_head(&head[..]).unwrap();
        assert_eq!(body, BodyKind::Chunked);
    }

    #[test]
    fn chunked_bodies_decode_incrementally() {
        let raw = b"5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\n\r\nNEXT";
        // Every strict prefix is incomplete; the full stream decodes.
        for cut in 0..raw.len() - 4 {
            assert_eq!(decode_chunked(&raw[..cut]).unwrap(), None, "cut={cut}");
        }
        let (body, consumed) = decode_chunked(&raw[..]).unwrap().unwrap();
        assert_eq!(body, b"hello world");
        assert_eq!(consumed, raw.len() - 4); // "NEXT" is the pipelined next request
    }

    #[test]
    fn chunked_bodies_reject_malformed_streams() {
        assert!(decode_chunked(b"zz\r\nhello\r\n").is_err());
        assert!(decode_chunked(b"5\r\nhelloXX").is_err());
        assert!(decode_chunked(b"0\r\nx-trailer: 1\r\n\r\n").is_err());
        let oversized = format!("{:x}\r\n", MAX_BODY_BYTES + 1);
        assert!(decode_chunked(oversized.as_bytes()).is_err());
        // A size that wraps `body.len() + size` past `usize::MAX`.
        assert_eq!(
            decode_chunked(b"5\r\nhello\r\nfffffffffffffffd\r\n"),
            Err("request body too large".to_string())
        );
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn reasons_cover_the_emitted_codes() {
        for code in [200u16, 201, 400, 404, 405, 409, 500] {
            assert!(!reason(code).is_empty(), "{code}");
        }
    }
}
