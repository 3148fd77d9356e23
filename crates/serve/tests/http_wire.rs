//! The HTTP wire, seen from raw sockets: what every `disp-serve` endpoint
//! puts on the wire (status line, `content-type`, and whether the body is
//! framed by `content-length` or chunked), and how the client takes a
//! hostile server's chunked body.
//!
//! The framing table is read with a hand-written parser rather than the
//! crate's own, so a change to the HTTP layer cannot move both sides of
//! the comparison at once; `disp-load`, the benchmark's client and the CI
//! CLI-vs-HTTP `cmp` all depend on these answers staying put.

use disp_serve::{Client, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const LABEL: &str = "star/k8/rooted/sync/probe-dfs";

/// How one response looks on the wire.
#[derive(Debug, PartialEq, Eq)]
struct Framing {
    status_line: String,
    content_type: String,
    chunked: bool,
}

/// Send one raw request with `connection: close` and read the whole reply.
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> (Framing, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("a complete head")
        + 4;
    let head = String::from_utf8(raw[..head_end].to_vec()).unwrap();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap().to_string();
    let mut content_type = String::new();
    let mut length = None;
    let mut chunked = false;
    for line in lines.filter(|l| !l.is_empty()) {
        let (name, value) = line.split_once(':').unwrap();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-type" => content_type = value.trim().to_string(),
            "content-length" => length = Some(value.trim().parse::<usize>().unwrap()),
            "transfer-encoding" => chunked = value.trim() == "chunked",
            _ => {}
        }
    }
    assert!(
        chunked != length.is_some(),
        "{method} {path}: exactly one of content-length and chunked framing"
    );
    let body = match length {
        Some(len) => raw[head_end..head_end + len].to_vec(),
        None => dechunk(&raw[head_end..]),
    };
    let framing = Framing {
        status_line,
        content_type,
        chunked,
    };
    (framing, body)
}

/// Decode a complete, well-formed chunked body.
fn dechunk(mut raw: &[u8]) -> Vec<u8> {
    let mut body = Vec::new();
    loop {
        let line_end = raw.windows(2).position(|w| w == b"\r\n").unwrap();
        let size_text = std::str::from_utf8(&raw[..line_end]).unwrap();
        let size = usize::from_str_radix(size_text, 16).unwrap();
        raw = &raw[line_end + 2..];
        if size == 0 {
            assert_eq!(raw, b"\r\n", "nothing after the last chunk");
            return body;
        }
        body.extend_from_slice(&raw[..size]);
        assert_eq!(&raw[size..size + 2], b"\r\n");
        raw = &raw[size + 2..];
    }
}

fn submit_and_wait(addr: SocketAddr) -> String {
    let body = format!("{{\"scenarios\":[\"{LABEL}\"],\"reps\":2,\"seed\":5}}");
    let (framing, reply) = exchange(addr, "POST", "/runs", &body);
    assert_eq!(framing.status_line, "HTTP/1.1 201 Created");
    let reply = String::from_utf8(reply).unwrap();
    let id = reply
        .split("\"id\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap()
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, status) = exchange(addr, "GET", &format!("/runs/{id}"), "");
        if String::from_utf8(status)
            .unwrap()
            .contains("\"state\":\"done\"")
        {
            return id;
        }
        assert!(Instant::now() < deadline, "run {id} never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn every_endpoint_keeps_its_status_content_type_and_framing() {
    let config = ServeConfig {
        http_threads: 2,
        job_threads: 1,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let addr = server.addr();
    let id = submit_and_wait(addr);
    let (json, jsonl, events) = ("application/json", "application/jsonl", "text/event-stream");
    let trace = format!("/trace?scenario={LABEL}&seed=2");
    let timeline = format!("/timeline?scenario={LABEL}&seed=2");
    let cases: Vec<(&str, String, &str, &str, bool)> = vec![
        ("GET", format!("/runs/{id}"), "200 OK", json, false),
        ("GET", format!("/runs/{id}/results"), "200 OK", jsonl, true),
        (
            "GET",
            format!("/runs/{id}/results?format=summary"),
            "200 OK",
            json,
            false,
        ),
        ("GET", format!("/runs/{id}/events"), "200 OK", events, true),
        ("GET", format!("/runs/{id}/timeline"), "200 OK", jsonl, true),
        ("GET", trace, "200 OK", jsonl, true),
        ("GET", "/trace".into(), "400 Bad Request", json, false),
        ("GET", timeline, "200 OK", jsonl, true),
        (
            "GET",
            "/timeline?scenario=nope".into(),
            "400 Bad Request",
            json,
            false,
        ),
        (
            "GET",
            "/scenarios".into(),
            "200 OK",
            "text/plain; charset=utf-8",
            false,
        ),
        ("GET", "/healthz".into(), "200 OK", json, false),
        ("GET", "/metrics".into(), "200 OK", "text/plain", false),
        ("POST", "/runs".into(), "400 Bad Request", json, false),
        (
            "POST",
            "/internal/lease".into(),
            "404 Not Found",
            json,
            false,
        ),
        ("GET", "/runs/nope".into(), "404 Not Found", json, false),
        ("GET", "/nope".into(), "404 Not Found", json, false),
        ("PUT", "/runs".into(), "405 Method Not Allowed", json, false),
        (
            "POST",
            format!("/runs/{id}"),
            "405 Method Not Allowed",
            json,
            false,
        ),
        ("DELETE", format!("/runs/{id}"), "200 OK", json, false),
    ];
    for (method, path, status, content_type, chunked) in cases {
        let (framing, body) = exchange(addr, method, &path, "");
        let expected = Framing {
            status_line: format!("HTTP/1.1 {status}"),
            content_type: content_type.to_string(),
            chunked,
        };
        assert_eq!(framing, expected, "{method} {path}");
        assert!(!body.is_empty(), "{method} {path}: empty body");
    }
    // A request that is not HTTP is a 400 with a content-length.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GARBAGE\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{raw}");
    assert!(
        raw.contains("\r\ncontent-type: application/json\r\n"),
        "{raw}"
    );
    assert!(raw.contains("\r\ncontent-length: "), "{raw}");
    server.shutdown();
}

/// A one-shot server: read one request head, answer `response`, close.
fn hostile_server(response: &'static [u8]) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") && stream.read(&mut byte).unwrap() == 1 {
            head.push(byte[0]);
        }
        let _ = stream.write_all(response);
    });
    (addr, handle)
}

#[test]
fn a_chunk_size_near_usize_max_is_an_error_not_a_panic() {
    let (addr, server) = hostile_server(
        b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\nfffffffffffffffe\r\nabc",
    );
    let result = Client::new(&addr).get("/");
    server.join().unwrap();
    assert!(result.is_err(), "{result:?}");
}

#[test]
fn chunk_data_without_its_crlf_is_an_error() {
    let (addr, server) = hostile_server(
        b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhelloXX0\r\n\r\n",
    );
    let result = Client::new(&addr).get("/");
    server.join().unwrap();
    assert!(result.is_err(), "{result:?}");
}
