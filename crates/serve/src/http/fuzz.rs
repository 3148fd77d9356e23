//! Seeded-loop fuzzer for the framing module (the workspace's stand-in for
//! proptest, which the offline build cannot fetch).
//!
//! Inputs are generated request heads, response heads and chunked streams
//! — with sizes near `usize::MAX`, chunk extensions, bad CRLFs and
//! trailers — plus random byte mutations of them. Each input is read
//! through [`read_message`] delivered whole, one byte per read, and split
//! in two at every byte boundary. Required of every input: no panic, a
//! decoded body never over its cap, an error that says what went wrong,
//! and the same outcome (including the bytes left for the next message)
//! whichever way the input was split.

use super::*;
use disp_rng::StdRng;

/// Small enough that generated bodies cross it.
const CAP: usize = 48;

const BAD_LENGTHS: [&str; 6] = [
    "content-length: 18446744073709551615",
    "content-length: 99999999999999999999",
    "content-length: +3",
    "content-length: -1",
    "content-length: ",
    "content-length: 3\r\ncontent-length: 3",
];

/// Which start line the input carries.
#[derive(Clone, Copy)]
enum Side {
    Request,
    Response,
}

fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
    items[rng.random_range(0..items.len())]
}

fn chunk_size_line(rng: &mut StdRng, size: usize) -> String {
    match rng.random_range(0..16u32) {
        0 => "fffffffffffffffe".into(),
        1 => "ffffffffffffffffff".into(),
        2 => format!("{:x}", CAP + 1),
        3 => format!("+{size:x}"),
        4 => format!("{size:x};{}", "e".repeat(rng.random_range(1000..1040))),
        5 => format!("{size:X}"),
        6 => format!("{size:x};name=value"),
        7 => format!(" {size:x} "),
        _ => format!("{size:x}"),
    }
}

/// A chunked stream: mostly well formed, with one of the usual defects
/// now and then.
fn chunked_stream(rng: &mut StdRng) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..rng.random_range(0..6usize) {
        let size = rng.random_range(1..20usize);
        out.extend_from_slice(chunk_size_line(rng, size).as_bytes());
        out.extend_from_slice(b"\r\n");
        out.extend((0..size).map(|i| b'a' + (i % 26) as u8));
        let crlf = ["\r\n", "\r\n", "\r\n", "\r\n", "\r\n", "\n", "", "XX"];
        out.extend_from_slice(pick(rng, &crlf).as_bytes());
    }
    let end = [
        "0\r\n\r\n",
        "0\r\n\r\n",
        "0\r\n\r\n",
        "0;ext\r\n\r\n",
        "0\r\nx-trailer: 1\r\n\r\n",
        "0\r\n",
        "",
    ];
    out.extend_from_slice(pick(rng, &end).as_bytes());
    out
}

/// A message whose start line, framing headers and body are each valid
/// most of the time, so the generator reaches the body decoders.
fn message(rng: &mut StdRng, side: Side) -> Vec<u8> {
    let valid = rng.random_bool(0.8);
    let start = match (side, valid) {
        (Side::Request, true) => format!(
            "{} {} HTTP/1.1",
            pick(rng, &["GET", "POST", "DELETE"]),
            pick(rng, &["/", "/runs?format=summary&x", "/internal/complete"]),
        ),
        (Side::Request, false) => pick(rng, &["GET / HTTP/2", "GET /", "", " / HTTP/1.1"]).into(),
        (Side::Response, true) => pick(rng, &["HTTP/1.1 200 OK", "HTTP/1.0 404 Not Found"]).into(),
        (Side::Response, false) => pick(
            rng,
            &["HTTP/2 200 OK", "HTTP/1.1 2000 OK", "HTTP/1.1 OK", ""],
        )
        .into(),
    };
    let mut lines = vec![start];
    if rng.random_bool(0.2) {
        lines.push(pick(rng, &["host: h", "connection: close", "no colon here"]).into());
    }
    let chunked = rng.random_bool(0.5);
    let framing = if chunked {
        pick(
            rng,
            &["transfer-encoding: chunked", "Transfer-Encoding: Chunked"],
        )
        .into()
    } else {
        match rng.random_range(0..10u32) {
            0 => "transfer-encoding: gzip".into(),
            1 => pick(rng, &BAD_LENGTHS).into(),
            2 => "content-length: 3\r\ntransfer-encoding: chunked".into(),
            3 => "host: h".into(), // no framing header: an empty body
            _ => format!("content-length: {}", rng.random_range(0..CAP + 4)),
        }
    };
    lines.push(framing);
    let mut out = (lines.join("\r\n") + "\r\n\r\n").into_bytes();
    if chunked {
        out.extend(chunked_stream(rng));
    } else {
        out.extend((0..rng.random_range(0..CAP + 8)).map(|i| b'0' + (i % 10) as u8));
    }
    out
}

fn mutate(rng: &mut StdRng, input: &mut Vec<u8>) {
    for _ in 0..rng.random_range(1..4usize) {
        let at = rng.random_range(0..input.len() + 1);
        match rng.random_range(0..4u32) {
            0 if at < input.len() => input[at] = rng.next_u64() as u8,
            1 => input.insert(at, *b"\r\n0;:\x00\xff".get(rng.random_range(0..7)).unwrap()),
            2 if at < input.len() => {
                input.remove(at);
            }
            _ => input.truncate(at),
        }
    }
}

/// The outcome of reading one message from `input` delivered in `pieces`
/// (consecutive lengths; the remainder follows as one last read).
fn read_in_pieces(side: Side, input: &[u8], pieces: &[usize]) -> String {
    let mut buf = Vec::new();
    let mut at = 0usize;
    let mut next = pieces.iter();
    let pull = |buf: &mut Vec<u8>| {
        if at == input.len() {
            return Ok(false);
        }
        let len = next.next().copied().unwrap_or(input.len() - at);
        let end = (at + len.max(1)).min(input.len());
        buf.extend_from_slice(&input[at..end]);
        at = end;
        Ok(true)
    };
    let outcome = match side {
        Side::Request => read_message(&mut buf, "request", CAP, parse_head, pull)
            .map(|m| m.map(|(req, body)| (format!("{req:?}"), body))),
        Side::Response => read_message(&mut buf, "response", CAP, parse_response_head, pull)
            .map(|m| m.map(|(head, body)| (format!("{head:?}"), body))),
    };
    match &outcome {
        Ok(Some((_, body))) => assert!(body.len() <= CAP, "body over its cap"),
        Err(e) => assert!(!e.is_empty(), "an error must say what went wrong"),
        Ok(None) => {}
    }
    // What a complete read left behind belongs to the next message.
    let rest = String::from_utf8_lossy(&input[at - buf.len()..]);
    format!("{outcome:?} rest={rest:?}")
}

#[test]
fn framing_survives_hostile_input_and_split_feeding_changes_nothing() {
    let mut rng = StdRng::seed_from_u64(0x0f22);
    let (mut framed, mut refused) = (0, 0);
    for case in 0..1500 {
        let side = if case % 2 == 0 {
            Side::Request
        } else {
            Side::Response
        };
        let mut input = message(&mut rng, side);
        if case % 3 == 0 {
            mutate(&mut rng, &mut input);
        }
        let whole = read_in_pieces(side, &input, &[]);
        framed += whole.starts_with("Ok(Some") as usize;
        refused += whole.starts_with("Err") as usize;
        let show = String::from_utf8_lossy(&input);
        let bytewise = read_in_pieces(side, &input, &vec![1; input.len()]);
        assert_eq!(bytewise, whole, "byte-by-byte feeding of {show:?}");
        if input.len() <= 256 {
            for split in 0..=input.len() {
                let two = read_in_pieces(side, &input, &[split]);
                assert_eq!(two, whole, "split at {split} of {show:?}");
            }
        }
    }
    // The generator reaches both outcomes often, not just errors.
    assert!(
        framed >= 100 && refused >= 100,
        "{framed} framed, {refused} refused"
    );
}

#[test]
fn a_stream_that_never_ends_is_refused_once_framing_outgrows_the_cap() {
    // One-byte chunks with long extensions: tiny body, unbounded raw bytes.
    let head = b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n".to_vec();
    let chunk = format!("1;{}\r\nx\r\n", "e".repeat(1000));
    let mut input = head.clone();
    while input.len() < head.len() + CAP + MAX_HEAD_BYTES + chunk.len() {
        input.extend_from_slice(chunk.as_bytes());
    }
    let whole = read_in_pieces(Side::Request, &input, &[]);
    assert!(
        whole.starts_with("Err(\"request body too large\")"),
        "{whole}"
    );
    assert_eq!(
        read_in_pieces(Side::Request, &input, &vec![1; input.len()]),
        whole
    );
}
