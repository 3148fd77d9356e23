//! A minimal keep-alive HTTP/1.1 client (no retries: every failure is
//! reported to the caller, which counts it) and the `/metrics` parser.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long a request may take before it counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// One response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Response {
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// One kept-alive connection; reconnects lazily after the server closes.
pub struct Conn {
    addr: String,
    reader: Option<BufReader<TcpStream>>,
}

impl Conn {
    pub fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_string(),
            reader: None,
        }
    }

    pub fn get(&mut self, path: &str) -> Result<Response, String> {
        self.request("GET", path, None)
    }

    pub fn post(&mut self, path: &str, body: &str) -> Result<Response, String> {
        self.request("POST", path, Some(body.as_bytes()))
    }

    /// Send one request and read its response. Any error drops the
    /// connection; the request is not retried.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<Response, String> {
        let result = self.exchange(method, path, body);
        if result.is_err() {
            self.reader = None;
        }
        result
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<Response, String> {
        if self.reader.is_none() {
            let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream
                .set_read_timeout(Some(REQUEST_TIMEOUT))
                .map_err(|e| e.to_string())?;
            self.reader = Some(BufReader::new(stream));
        }
        let reader = self.reader.as_mut().expect("connected above");
        let body = body.unwrap_or(&[]);
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
        if method == "POST" {
            head.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        head.push_str("\r\n");
        let mut request = head.into_bytes();
        request.extend_from_slice(body);
        reader
            .get_mut()
            .write_all(&request)
            .map_err(|e| format!("send: {e}"))?;
        let (response, close) = read_response(reader)?;
        if close {
            self.reader = None;
        }
        Ok(response)
    }
}

/// Read one response; also says whether the server will close.
pub fn read_response(reader: &mut impl BufRead) -> Result<(Response, bool), String> {
    let mut line = String::new();
    read_line(reader, &mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let mut length = None;
    let mut chunked = false;
    let mut close = false;
    loop {
        line.clear();
        read_line(reader, &mut line)?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    length = Some(value.parse::<usize>().map_err(|_| "bad content-length")?)
                }
                "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            line.clear();
            read_line(reader, &mut line)?;
            let size = usize::from_str_radix(line.trim().split(';').next().unwrap_or(""), 16)
                .map_err(|_| format!("bad chunk size {line:?}"))?;
            if size == 0 {
                line.clear();
                read_line(reader, &mut line)?; // the blank line after the last chunk
                break;
            }
            let start = body.len();
            body.resize(start + size, 0);
            reader
                .read_exact(&mut body[start..])
                .map_err(|e| format!("chunk: {e}"))?;
            line.clear();
            read_line(reader, &mut line)?;
        }
    } else if let Some(n) = length {
        body.resize(n, 0);
        reader
            .read_exact(&mut body)
            .map_err(|e| format!("body: {e}"))?;
    } else {
        reader
            .read_to_end(&mut body)
            .map_err(|e| format!("body: {e}"))?;
        close = true;
    }
    Ok((Response { status, body }, close))
}

fn read_line(reader: &mut impl BufRead, line: &mut String) -> Result<(), String> {
    match reader.read_line(line) {
        Ok(0) => Err("connection closed".into()),
        Ok(_) => Ok(()),
        Err(e) => Err(format!("receive: {e}")),
    }
}

/// Parse a Prometheus text exposition into `series → value`, where a
/// series is the metric name plus its label set exactly as rendered.
pub fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let (series, value) = l.trim().rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// A value, or 0 when the series is absent.
pub fn metric(m: &BTreeMap<String, f64>, series: &str) -> f64 {
    m.get(series).copied().unwrap_or(0.0)
}

/// Mean of histogram `base` (`_sum ÷ _count`), or 0 with no observations.
pub fn histogram_mean(m: &BTreeMap<String, f64>, base: &str) -> f64 {
    let count = metric(m, &format!("{base}_count"));
    if count == 0.0 {
        0.0
    } else {
        metric(m, &format!("{base}_sum")) / count
    }
}

/// The current value of `name` in a metrics text, found without parsing
/// the whole exposition.
pub fn scrape_one(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .and_then(|l| l[name.len()..].trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# HELP disp_http_requests_total Requests.
# TYPE disp_http_requests_total counter
disp_http_requests_total 42
disp_queue_depth 3
disp_queue_depth_max 9
disp_cluster_worker_trials_total{worker=\"w1\"} 17
disp_http_request_duration_us_bucket{le=\"100\"} 5
disp_http_request_duration_us_bucket{le=\"+Inf\"} 8
disp_http_request_duration_us_sum 1200
disp_http_request_duration_us_count 8
";

    #[test]
    fn metrics_text_parses_into_series() {
        let m = parse_metrics(SAMPLE);
        assert_eq!(metric(&m, "disp_http_requests_total"), 42.0);
        assert_eq!(
            metric(&m, "disp_cluster_worker_trials_total{worker=\"w1\"}"),
            17.0
        );
        assert_eq!(
            metric(&m, "disp_http_request_duration_us_bucket{le=\"+Inf\"}"),
            8.0
        );
        assert_eq!(metric(&m, "absent"), 0.0);
        assert_eq!(histogram_mean(&m, "disp_http_request_duration_us"), 150.0);
        assert_eq!(histogram_mean(&m, "absent"), 0.0);
    }

    #[test]
    fn scrape_one_matches_whole_names_only() {
        assert_eq!(scrape_one(SAMPLE, "disp_queue_depth"), Some(3.0));
        assert_eq!(scrape_one(SAMPLE, "disp_queue_depth_max"), Some(9.0));
        assert_eq!(scrape_one(SAMPLE, "disp_queue"), None);
    }

    #[test]
    fn responses_parse_with_length_and_chunked_bodies() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
        let (r, close) = read_response(&mut &raw[..]).unwrap();
        assert_eq!((r.status, r.text(), close), (200, "hello", false));
        let raw = b"HTTP/1.1 201 Created\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n";
        let (r, close) = read_response(&mut &raw[..]).unwrap();
        assert_eq!((r.status, r.text(), close), (201, "abcde", true));
        assert!(read_response(&mut &b"garbage\r\n\r\n"[..]).is_err());
        assert!(read_response(&mut &b""[..]).is_err());
    }
}
