//! Hand-rolled HTTP/1.1 framing for both directions: the server reads
//! requests and writes responses, [`crate::client`] writes requests and
//! reads responses, and both go through this one module.
//!
//! This container builds offline, so — exactly like `disp-rng` replaced
//! `rand` and `disp_analysis::json` replaced `serde_json` — this module
//! carries the small HTTP/1.1 subset the campaign service actually needs
//! instead of pulling `hyper`:
//!
//! * head parsing (request line or status line, then header lines) and
//!   `Content-Length` / `Transfer-Encoding: chunked` body framing, through
//!   one incremental reader, `read_message`, whose chunked decoder
//!   resumes where it stopped instead of rescanning decoded chunks;
//! * persistent connections (HTTP/1.1 keep-alive semantics, honoring
//!   `Connection: close`), with pipelined requests handled naturally by
//!   the leftover-buffer design;
//! * response heads (`write_head`) and one chunk writer
//!   (`ChunkWriter`) over any `Write`, used for streamed responses and
//!   for the cluster workers' chunked uploads alike;
//! * hard limits on head and body size, the body cap chosen by the caller,
//!   so a confused or hostile peer cannot make either side buffer
//!   unboundedly.
//!
//! Server reads run under a short socket timeout and poll a shutdown
//! latch, which is what makes graceful drain possible: an idle keep-alive
//! connection notices shutdown within one tick instead of holding a worker
//! forever.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Upper bound on a message head (start line + headers), either direction.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Payload bytes per chunk [`ChunkWriter`] emits: big enough to amortize
/// framing, small enough that a streamed response holds one chunk in
/// memory and real uploads exercise the receiver's incremental decoder.
pub(crate) const CHUNK_BYTES: usize = 32 * 1024;
/// Longest chunk-size line (hex size plus extensions) the decoder accepts.
const MAX_SIZE_LINE: usize = 1024;
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
    /// The decoded body (empty when the request carried none).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        header(&self.query, name)
    }

    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`).
    pub fn wants_keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }
}

/// Header (or query) name/value pairs, in order of appearance.
pub(crate) type Headers = Vec<(String, String)>;

/// One framed message: its parsed head and its decoded body.
pub(crate) type Message<H> = (H, Vec<u8>);

/// First value stored under `name` in a list of name/value pairs.
pub(crate) fn header<'a>(pairs: &'a [(String, String)], name: &str) -> Option<&'a str> {
    pairs
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// Read one request from `stream`, using `buf` as the connection's
/// carry-over buffer (bytes of a pipelined next request stay in it between
/// calls).
///
/// `waiting` is the number of accepted connections no worker has picked up
/// yet. When it is nonzero, a request-less connection returns `Ok(None)` so
/// its worker can serve the queue instead — immediately if `yield_idle` is
/// set (the caller has already served a request on this connection; the
/// client treats the close as ordinary keep-alive expiry and reconnects),
/// and after a short first-request grace (~1 s) otherwise, so a freshly
/// accepted connection that never speaks cannot pin a worker while honest
/// clients — who send their request within the round trip — queue behind
/// it. Without these yields, `http_threads` silent connections would hold
/// every worker for the full idle budget.
///
/// Returns `Ok(None)` on clean EOF / idle shutdown / idle yield (close the
/// connection without a response), and `Err(message)` on malformed input
/// (the caller should answer 400 and close).
pub(crate) fn read_request(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    shutdown: &AtomicBool,
    waiting: &AtomicUsize,
    yield_idle: bool,
) -> Result<Option<Request>, String> {
    let mut idle_ticks = 0u32;
    // Set when the first byte of a request is buffered; the whole request
    // must complete within MAX_REQUEST_WALL of it.
    let mut request_started: Option<Instant> = None;
    let mut chunk = [0u8; 8192];
    let pull = |buf: &mut Vec<u8>| loop {
        // The wall-clock deadline applies whether the sender is stalling
        // (timeouts below) or dripping bytes fast enough to dodge them.
        if !buf.is_empty() {
            let started = *request_started.get_or_insert_with(Instant::now);
            if started.elapsed() > MAX_REQUEST_WALL {
                return Err("timed out mid-request".to_string());
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(false),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                return Ok(true);
            }
            // Request-less: this is where graceful drain and the
            // yield-to-the-queue policy take effect.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if buf.is_empty() {
                    idle_ticks += 1;
                    let pressured = waiting.load(Ordering::SeqCst) > 0
                        && (yield_idle || idle_ticks > PRESSURE_FIRST_REQUEST_TICKS);
                    if shutdown.load(Ordering::SeqCst) || pressured || idle_ticks > MAX_IDLE_TICKS {
                        return Ok(false);
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    };
    let framed = read_message(buf, "request", MAX_BODY_BYTES, parse_head, pull)?;
    Ok(framed.map(|(mut req, body)| {
        req.body = body;
        req
    }))
}

/// Read one message from the front of `buf`, calling `pull` for more bytes
/// until its framing completes; the bytes past it (a pipelined next
/// request) stay in `buf`.
///
/// `parse_head` reads the head (start line and headers, through the blank
/// line) and says how the body is delimited. `pull` appends whatever
/// arrives and returns `Ok(false)` once no more will: with an empty buffer
/// that is a clean close (`Ok(None)`), mid-message an error. `what`
/// (`"request"` or `"response"`) names the message in errors, and the
/// decoded body may not exceed `body_cap` bytes.
///
/// Every state is a function of the bytes seen so far, never of how they
/// were split across pulls: the head search and the chunk decoder resume
/// where they stopped, and each cap looks only at a fixed-size window, so
/// feeding a stream whole or byte by byte gives the same result.
pub(crate) fn read_message<H>(
    buf: &mut Vec<u8>,
    what: &'static str,
    body_cap: usize,
    parse_head: impl Fn(&[u8]) -> Result<(H, BodyKind), String>,
    mut pull: impl FnMut(&mut Vec<u8>) -> Result<bool, String>,
) -> Result<Option<Message<H>>, String> {
    let mut scanned = 0usize;
    let mut framed: Option<(H, usize, BodyReader)> = None;
    loop {
        if framed.is_none() {
            // Only the first MAX_HEAD_BYTES can hold a head; resume the
            // search three bytes back in case the terminator straddles.
            let window = &buf[..buf.len().min(MAX_HEAD_BYTES)];
            let from = scanned.saturating_sub(3);
            scanned = window.len();
            match find_head_end(&window[from..]) {
                Some(end) => {
                    let head_end = from + end;
                    let (head, kind) = parse_head(&buf[..head_end])?;
                    let body = match kind {
                        BodyKind::Len(len) if len > body_cap => {
                            return Err(format!("{what} body too large"))
                        }
                        BodyKind::Len(len) => BodyReader::Len(len),
                        BodyKind::Chunked => {
                            BodyReader::Chunked(ChunkedDecoder::new(what, body_cap))
                        }
                    };
                    framed = Some((head, head_end, body));
                }
                None if buf.len() >= MAX_HEAD_BYTES => {
                    return Err(format!("{what} head too large"))
                }
                None => {}
            }
        }
        if let Some((_, head_end, body)) = &mut framed {
            let raw = &buf[*head_end..];
            let consumed = match body {
                BodyReader::Len(len) => (raw.len() >= *len).then_some(*len),
                BodyReader::Chunked(decoder) => decoder.feed(raw)?,
            };
            if let Some(consumed) = consumed {
                let (head, head_end, body) = framed.take().expect("framed above");
                let body = match body {
                    BodyReader::Len(len) => buf[head_end..head_end + len].to_vec(),
                    BodyReader::Chunked(decoder) => decoder.body,
                };
                buf.drain(..head_end + consumed);
                return Ok(Some((head, body)));
            }
        }
        if !pull(buf)? {
            return if buf.is_empty() {
                Ok(None)
            } else {
                Err(format!("connection closed mid-{what}"))
            };
        }
    }
}

/// Index just past the `\r\n\r\n` terminating the head, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// How a message's body is delimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BodyKind {
    /// `Content-Length` bytes follow the head (0 when absent).
    Len(usize),
    /// `Transfer-Encoding: chunked` — decode until the 0-chunk.
    Chunked,
}

/// A body being read by [`read_message`].
enum BodyReader {
    Len(usize),
    Chunked(ChunkedDecoder),
}

/// Parse a request head (request line + headers); returns the request
/// (body empty) and how its body is delimited.
fn parse_head(head: &[u8]) -> Result<(Request, BodyKind), String> {
    let (start, headers, body) = parse_fields(head, "request")?;
    let mut parts = start.split(' ');
    let method = parts.next().ok_or("missing method")?;
    let target = parts.next().ok_or("missing request target")?;
    let version = parts.next().ok_or("missing HTTP version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol '{version}'"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, parse_query(q)),
        None => (target, Vec::new()),
    };
    let req = Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
        headers,
        body: Vec::new(),
    };
    Ok((req, body))
}

/// Parse a response head (status line + headers); returns the status, the
/// headers and how the body is delimited.
pub(crate) fn parse_response_head(head: &[u8]) -> Result<((u16, Headers), BodyKind), String> {
    let (start, headers, body) = parse_fields(head, "response")?;
    let mut parts = start.split(' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol '{version}'"));
    }
    let status = parts
        .next()
        .filter(|s| s.len() == 3 && s.bytes().all(|b| b.is_ascii_digit()))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line '{start}'"))?;
    Ok(((status, headers), body))
}

/// Split a head into its start line and lowercased headers, and decide
/// the body framing: `Transfer-Encoding: chunked`, else `Content-Length`
/// (all digits, given at most once), else no body.
fn parse_fields(head: &[u8], what: &str) -> Result<(String, Headers, BodyKind), String> {
    let text = std::str::from_utf8(head).map_err(|_| format!("{what} head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let start = lines.next().unwrap_or("").to_string();
    let mut headers = Vec::new();
    for line in lines.filter(|l| !l.is_empty()) {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed header line '{line}'"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let lengths: Vec<&str> = headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .map(|(_, v)| v.as_str())
        .collect();
    if let Some(te) = header(&headers, "transfer-encoding") {
        if !te.eq_ignore_ascii_case("chunked") {
            return Err(format!("unsupported transfer-encoding '{te}'"));
        }
        if !lengths.is_empty() {
            // Smuggling-shaped ambiguity; refuse rather than pick a winner.
            return Err("both content-length and transfer-encoding".into());
        }
        return Ok((start, headers, BodyKind::Chunked));
    }
    let len = match lengths.as_slice() {
        [] => 0,
        [v] if !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()) => v
            .parse::<usize>()
            .map_err(|_| format!("bad content-length '{v}'"))?,
        [v] => return Err(format!("bad content-length '{v}'")),
        _ => return Err("more than one content-length".into()),
    };
    Ok((start, headers, BodyKind::Len(len)))
}

/// Incremental `Transfer-Encoding: chunked` decoder with a caller-chosen
/// body cap.
///
/// `feed` takes the raw stream from its first
/// byte, as much of it as has arrived; each call resumes at the first
/// chunk not yet decoded, so a body delivered in many reads is scanned
/// once. Chunk-size lines may carry extensions after `;` (ignored);
/// trailers are not supported.
#[derive(Debug)]
struct ChunkedDecoder {
    /// `"request"` or `"response"`, for errors.
    what: &'static str,
    /// Most decoded bytes the body may hold.
    cap: usize,
    /// Raw bytes consumed by the chunks decoded so far.
    pos: usize,
    /// The decoded body so far.
    body: Vec<u8>,
}

impl ChunkedDecoder {
    /// A decoder for a `what` body of at most `cap` decoded bytes.
    fn new(what: &'static str, cap: usize) -> ChunkedDecoder {
        ChunkedDecoder {
            what,
            cap,
            pos: 0,
            body: Vec::new(),
        }
    }

    /// Continue decoding `raw`, the stream so far. Returns `Ok(None)` when
    /// it is not yet complete, and `Ok(Some(consumed))` — how many raw
    /// bytes the stream occupied — once the terminating 0-chunk (and its
    /// final CRLF) has arrived, the decoded body then complete.
    ///
    /// The raw stream may exceed the body cap only by [`MAX_HEAD_BYTES`] of
    /// framing; past that the decoder stops looking and answers "too
    /// large", so a sender cannot grow the receiver's buffer without bound
    /// by never terminating the stream (or by one-byte chunks with long
    /// extensions).
    fn feed(&mut self, raw: &[u8]) -> Result<Option<usize>, String> {
        let raw_cap = self.cap.saturating_add(MAX_HEAD_BYTES);
        let view = &raw[..raw.len().min(raw_cap)];
        loop {
            // Find the CRLF ending the chunk-size line; a size line cannot
            // legitimately be long, so bound the search.
            let rest = &view[self.pos..];
            let window = &rest[..rest.len().min(MAX_SIZE_LINE + 2)];
            let Some(line_end) = window.windows(2).position(|w| w == b"\r\n") else {
                if window.len() > MAX_SIZE_LINE + 1 {
                    return Err("malformed chunk size line".into());
                }
                break;
            };
            let line = std::str::from_utf8(&rest[..line_end])
                .map_err(|_| "chunk size line is not UTF-8".to_string())?;
            let size_str = line.split(';').next().unwrap_or("").trim();
            let size = Some(size_str)
                .filter(|s| !s.is_empty() && s.bytes().all(|b| b.is_ascii_hexdigit()))
                .and_then(|s| usize::from_str_radix(s, 16).ok())
                .ok_or_else(|| format!("bad chunk size '{size_str}'"))?;
            let data = self.pos + line_end + 2;
            if size == 0 {
                // Final chunk: expect the terminating CRLF (no trailers).
                if view.len() < data + 2 {
                    break;
                }
                if &view[data..data + 2] != b"\r\n" {
                    return Err("trailers are not supported".into());
                }
                self.pos = data + 2;
                return Ok(Some(self.pos));
            }
            // `body.len() <= cap` always, so this cannot wrap the way
            // `body.len() + size` does for a size near `usize::MAX`.
            if size > self.cap - self.body.len() {
                return Err(format!("{} body too large", self.what));
            }
            if view.len() < data + size + 2 {
                break;
            }
            if &view[data + size..data + size + 2] != b"\r\n" {
                return Err("chunk data not CRLF-terminated".into());
            }
            self.body.extend_from_slice(&view[data..data + size]);
            self.pos = data + size + 2;
        }
        if raw.len() > raw_cap {
            return Err(format!("{} body too large", self.what));
        }
        Ok(None)
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

/// The header that says how a body is framed: `Some(len)` is
/// `content-length`, `None` is `transfer-encoding: chunked` (follow the
/// head with a [`ChunkWriter`]).
pub(crate) fn framing_header(length: Option<usize>) -> String {
    match length {
        Some(len) => format!("content-length: {len}"),
        None => "transfer-encoding: chunked".to_string(),
    }
}

/// Write a response head; `length` as in [`framing_header`].
pub(crate) fn write_head(
    out: &mut impl Write,
    status: u16,
    content_type: &str,
    length: Option<usize>,
    keep_alive: bool,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\n{}\r\nconnection: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        framing_header(length),
        if keep_alive { "keep-alive" } else { "close" },
    );
    out.write_all(head.as_bytes())
}

/// `Transfer-Encoding: chunked` framing over any writer: bytes written are
/// sent as chunks of [`CHUNK_BYTES`]; [`flush`](Write::flush) sends what
/// is buffered as one (shorter) chunk — a live stream's frame boundary —
/// and [`finish`](ChunkWriter::finish) ends the body.
#[derive(Debug)]
pub(crate) struct ChunkWriter<W: Write> {
    inner: W,
    buf: Vec<u8>,
}

impl<W: Write> ChunkWriter<W> {
    /// Frame a body onto `inner` (its head already written).
    pub(crate) fn new(inner: W) -> ChunkWriter<W> {
        ChunkWriter {
            inner,
            buf: Vec::with_capacity(CHUNK_BYTES),
        }
    }

    fn emit(&mut self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(()); // an empty chunk would terminate the stream
        }
        self.inner
            .write_all(format!("{:x}\r\n", self.buf.len()).as_bytes())?;
        self.inner.write_all(&self.buf)?;
        self.inner.write_all(b"\r\n")?;
        self.buf.clear();
        Ok(())
    }

    /// Send what is buffered, then the terminating 0-chunk, and flush.
    pub(crate) fn finish(mut self) -> std::io::Result<()> {
        self.emit()?;
        self.inner.write_all(b"0\r\n\r\n")?;
        self.inner.flush()
    }
}

impl<W: Write> Write for ChunkWriter<W> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let take = data.len().min(CHUNK_BYTES - self.buf.len());
        self.buf.extend_from_slice(&data[..take]);
        if self.buf.len() == CHUNK_BYTES {
            self.emit()?;
        }
        Ok(take)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.emit()?;
        self.inner.flush()
    }
}

#[cfg(test)]
mod fuzz;

#[cfg(test)]
mod tests {
    use super::*;

    /// Decode a request-side chunked body in one call, as the server's
    /// reader does once the whole stream has arrived.
    fn decode_chunked(buf: &[u8]) -> Result<Option<(Vec<u8>, usize)>, String> {
        let mut decoder = ChunkedDecoder::new("request", MAX_BODY_BYTES);
        Ok(decoder.feed(buf)?.map(|consumed| (decoder.body, consumed)))
    }

    /// Read one message from `input` delivered in one piece.
    fn read_whole<H>(
        input: &[u8],
        parse_head: impl Fn(&[u8]) -> Result<(H, BodyKind), String>,
    ) -> (Result<Option<Message<H>>, String>, Vec<u8>) {
        let mut buf = input.to_vec();
        let result = read_message(&mut buf, "request", 64, parse_head, |_| Ok(false));
        (result, buf)
    }

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

    #[test]
    fn response_heads_parse_status_and_framing() {
        let head =
            b"HTTP/1.1 201 Created\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n";
        let ((status, headers), body) = parse_response_head(&head[..]).unwrap();
        assert_eq!(status, 201);
        assert_eq!(header(&headers, "content-type"), Some("application/json"));
        assert_eq!(body, BodyKind::Len(2));
        let chunked = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n";
        assert_eq!(
            parse_response_head(&chunked[..]).unwrap().1,
            BodyKind::Chunked
        );
        for bad in [
            &b"HTTP/1.1 2000 OK\r\n\r\n"[..],
            b"HTTP/1.1 OK\r\n\r\n",
            b"SPDY/3 200 OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length: +5\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\ncontent-length: 5\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length: 99999999999999999999999\r\n\r\n",
        ] {
            assert!(
                parse_response_head(bad).is_err(),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn read_message_frames_bodies_and_keeps_pipelined_bytes() {
        let raw = b"POST /a HTTP/1.1\r\ncontent-length: 3\r\n\r\nabcGET /b HTTP/1.1\r\n\r\n";
        let (result, rest) = read_whole(&raw[..], parse_head);
        let (req, body) = result.unwrap().unwrap();
        assert_eq!((req.path.as_str(), body.as_slice()), ("/a", &b"abc"[..]));
        assert_eq!(rest, b"GET /b HTTP/1.1\r\n\r\n");
        // A body over the caller's cap is refused from the head alone.
        let big = b"POST /a HTTP/1.1\r\ncontent-length: 65\r\n\r\n";
        assert_eq!(
            read_whole(&big[..], parse_head).0.unwrap_err(),
            "request body too large"
        );
        // An empty buffer at EOF is a clean close; a partial message is not.
        assert!(read_whole(b"", parse_head).0.unwrap().is_none());
        let cut = read_whole(b"GET / HTTP/1.1\r\n", parse_head).0.unwrap_err();
        assert_eq!(cut, "connection closed mid-request");
        let huge = vec![b'a'; MAX_HEAD_BYTES];
        assert_eq!(
            read_whole(&huge, parse_head).0.unwrap_err(),
            "request head too large"
        );
    }

    #[test]
    fn chunk_writer_output_decodes_back_to_the_written_bytes() {
        let data: Vec<u8> = (0..CHUNK_BYTES * 2 + 17).map(|i| (i % 251) as u8).collect();
        let mut wire = Vec::new();
        let mut out = ChunkWriter::new(&mut wire);
        out.write_all(&data[..10]).unwrap();
        out.flush().unwrap(); // a frame boundary: one short chunk
        out.flush().unwrap(); // nothing buffered: no empty (terminating) chunk
        out.write_all(&data[10..]).unwrap();
        out.finish().unwrap();
        assert!(wire.starts_with(b"a\r\n"));
        assert!(wire.ends_with(b"\r\n0\r\n\r\n"));
        let mut decoder = ChunkedDecoder::new("response", data.len());
        assert_eq!(decoder.feed(&wire).unwrap(), Some(wire.len()));
        assert_eq!(decoder.body, data);
        // One byte under the body's length is over the cap.
        let mut tight = ChunkedDecoder::new("response", data.len() - 1);
        assert_eq!(tight.feed(&wire).unwrap_err(), "response body too large");
    }

    #[test]
    fn response_heads_and_chunk_framing_are_byte_stable() {
        let mut wire = Vec::new();
        write_head(&mut wire, 404, "application/json", Some(2), true).unwrap();
        write_head(&mut wire, 200, "application/jsonl", None, false).unwrap();
        assert_eq!(
            String::from_utf8(wire).unwrap(),
            "HTTP/1.1 404 Not Found\r\ncontent-type: application/json\r\ncontent-length: 2\r\n\
             connection: keep-alive\r\n\r\n\
             HTTP/1.1 200 OK\r\ncontent-type: application/jsonl\r\ntransfer-encoding: chunked\r\n\
             connection: close\r\n\r\n"
        );
    }
}
