//! A minimal blocking HTTP/1.1 client over `std::net` — just enough to
//! drive `disp-serve`: keep-alive connection reuse, fixed-length and
//! chunked response bodies, JSON helpers. Shared by the `disp-load`
//! harness, the integration tests and the CI smoke, so the server is
//! always exercised through the same wire code its load numbers are
//! measured with.

use crate::http::{framing_header, header, parse_response_head, read_message, ChunkWriter};
use disp_analysis::json::Json;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Cap on a decoded response body, so a broken or hostile server cannot
/// make the client buffer without bound. The largest bodies `disp-serve`
/// sends belong to a job at the
/// [`MAX_JOB_TRIALS`](crate::server::MAX_JOB_TRIALS) cap of 100 000
/// trials: its results are one record line per trial (about 400 bytes,
/// well under 1 KiB), so under 100 MiB, and its event stream carries a
/// few hundred bytes per trial. 256 MiB holds either with room to spare.
pub(crate) const MAX_RESPONSE_BYTES: usize = 256 * 1024 * 1024;

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// The (de-chunked) body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Body parsed as JSON.
    pub fn json(&self) -> Result<Json, String> {
        Json::parse(self.text().trim())
    }
}

/// A keep-alive client bound to one server address.
#[derive(Debug)]
pub struct Client {
    addr: String,
    stream: Option<TcpStream>,
}

impl Client {
    /// A client for `addr` (`host:port`). Connects lazily.
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            stream: None,
        }
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> Result<HttpResponse, String> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body.
    pub fn post_json(&mut self, path: &str, body: &Json) -> Result<HttpResponse, String> {
        self.request("POST", path, Some(body.to_string_compact().into_bytes()))
    }

    /// `DELETE path`.
    pub fn delete(&mut self, path: &str) -> Result<HttpResponse, String> {
        self.request("DELETE", path, None)
    }

    /// `POST path` with a `Transfer-Encoding: chunked` body — the upload
    /// path for cluster batch results, whose JSONL bodies are assembled
    /// incrementally. Same stale-connection retry policy as [`request`].
    ///
    /// [`request`]: Client::request
    pub fn post_chunked(&mut self, path: &str, body: &[u8]) -> Result<HttpResponse, String> {
        self.send("POST", path, body, None)
    }

    /// One request with a `content-length` body (empty for `None`).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<Vec<u8>>,
    ) -> Result<HttpResponse, String> {
        let body = body.unwrap_or_default();
        self.send(method, path, &body, Some(body.len()))
    }

    /// One request with a single reconnect retry: a server may legally
    /// close a kept-alive connection between requests (idle expiry, yield
    /// under load, drain), which surfaces as an error on the next
    /// write/read and is not a real failure. `length` frames the body as
    /// in [`framing_header`].
    ///
    /// The retry — including for non-idempotent `POST`s — only happens
    /// when the first attempt was on a *reused* connection and failed
    /// before **any** response byte arrived: `disp-serve` answers every
    /// request it parses (even malformed ones get a 400), so
    /// zero-bytes-then-close means the request was never processed. A
    /// failure after response bytes is never retried: the server may have
    /// acted, so double-submitting would be unsound.
    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        length: Option<usize>,
    ) -> Result<HttpResponse, String> {
        let had_connection = self.stream.is_some();
        match self.try_once(method, path, body, length) {
            Ok(resp) => Ok(resp),
            Err((e, retry_safe)) if had_connection && retry_safe => {
                // Stale keep-alive connection: reconnect once.
                self.stream = None;
                self.try_once(method, path, body, length)
                    .map_err(|(e2, _)| format!("{e2} (after stale-connection retry: {e})"))
            }
            Err((e, _)) => Err(e),
        }
    }

    /// The error side carries whether a retry is safe (no response bytes
    /// were received before the failure).
    fn try_once(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        length: Option<usize>,
    ) -> Result<HttpResponse, (String, bool)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)
                .map_err(|e| (format!("connect {}: {e}", self.addr), false))?;
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|e| (e.to_string(), false))?;
            stream
                .set_nodelay(true)
                .map_err(|e| (e.to_string(), false))?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\n{}\r\n\r\n",
            self.addr,
            framing_header(length),
        );
        let sent = stream
            .write_all(head.as_bytes())
            .and_then(|()| match length {
                Some(_) => stream.write_all(body).and_then(|()| stream.flush()),
                None => {
                    let mut chunks = ChunkWriter::new(&mut *stream);
                    chunks.write_all(body)?;
                    chunks.finish()
                }
            });
        let mut got_response_bytes = false;
        let received = sent.map_err(|e| e.to_string()).and_then(|()| {
            let mut chunk = [0u8; 8192];
            let pull = |buf: &mut Vec<u8>| loop {
                match stream.read(&mut chunk) {
                    Ok(0) => return Ok(false),
                    Ok(n) => {
                        got_response_bytes = true;
                        buf.extend_from_slice(&chunk[..n]);
                        return Ok(true);
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.to_string()),
                }
            };
            let mut buf = Vec::new();
            read_message(
                &mut buf,
                "response",
                MAX_RESPONSE_BYTES,
                parse_response_head,
                pull,
            )?
            .ok_or_else(|| "EOF before response head".to_string())
        });
        match received {
            Ok(((status, headers), body)) => {
                let resp = HttpResponse {
                    status,
                    headers,
                    body,
                };
                if resp
                    .header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                {
                    self.stream = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.stream = None;
                Err((format!("{method} {path}: {e}"), !got_response_bytes))
            }
        }
    }
}
