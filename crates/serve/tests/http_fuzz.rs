//! Fuzz the HTTP request parser on mutated bytes. `http::try_parse` runs
//! on the event loop outside the per-request panic catch, on whatever a
//! socket delivered, so no byte string may panic it. Each case starts
//! from a valid pipelined stream and mutates it one way: bit flips,
//! truncation at every length, header counts around [`MAX_HEADERS`],
//! lines around [`MAX_LINE`], or a `Content-Length` that lies (larger or
//! smaller than the body, negative, non-numeric, more digits than
//! `usize`, repeated with different values). Every parse must return,
//! a request it hands back must lie inside the buffer with a body within
//! the cap, and no allocation may be sized from a declared length. A
//! failing case prints its seed; `COLD_PROPTEST_SEED=<seed>` replays it.

use cold_serve::http::{try_parse, ParseError, Request, MAX_HEADERS, MAX_LINE};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The system allocator, recording the largest single request made on
/// the current thread since the last [`take_peak`].
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

fn take_peak() -> usize {
    PEAK.with(|p| p.replace(0))
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// The server's default body cap.
const MAX_BODY: usize = 1024 * 1024;

/// What any allocation while parsing `len` bytes may reach: the body
/// copy, and error messages that quote (and escape) one line. A buffer
/// sized from a declared `Content-Length` of [`MAX_BODY`] or more
/// exceeds it for every buffer these cases build.
fn alloc_bound(len: usize) -> usize {
    2 * len + 32 * MAX_LINE
}

type Parsed = Result<Option<(Request, usize)>, ParseError>;

/// One `try_parse`, with the invariants every outcome must keep.
fn parse(buf: &[u8], max_body: usize) -> Result<Parsed, TestCaseError> {
    take_peak();
    let parsed = catch_unwind(AssertUnwindSafe(|| try_parse(buf, max_body)));
    let peak = take_peak();
    let Ok(parsed) = parsed else {
        return Err(TestCaseError::Fail(format!(
            "try_parse panicked on {:?}",
            String::from_utf8_lossy(&buf[..buf.len().min(300)])
        )));
    };
    prop_assert!(
        peak <= alloc_bound(buf.len()),
        "allocated {} bytes parsing {} bytes",
        peak,
        buf.len()
    );
    if let Ok(Some((req, n))) = &parsed {
        prop_assert!(*n > 0 && *n <= buf.len(), "consumed {} of {}", n, buf.len());
        prop_assert!(req.body.len() <= max_body);
    }
    Ok(parsed)
}

/// Parse the stream the way an event loop drains its read buffer; the
/// request ends it reached, in order.
fn drain(mut buf: &[u8], max_body: usize) -> Result<Vec<usize>, TestCaseError> {
    let (mut ends, mut at) = (Vec::new(), 0);
    while let Ok(Some((_, n))) = parse(buf, max_body)? {
        at += n;
        ends.push(at);
        buf = &buf[n..];
    }
    Ok(ends)
}

/// A valid request with `headers` extra `x-pad-*` headers and, if asked,
/// one header line exactly `line` bytes long (without its CRLF).
fn request(rng: &mut SmallRng, headers: usize, line: Option<usize>) -> Vec<u8> {
    let version = ["HTTP/1.1", "HTTP/1.0"][rng.gen_range(0..2)];
    let body: Vec<u8> = match rng.gen_bool(0.5) {
        true => Vec::new(),
        false => format!(
            "{{\"publisher\":{},\"consumer\":1,\"words\":[0]}}",
            rng.gen_range(0..1000u32)
        )
        .into_bytes(),
    };
    let mut out = match body.is_empty() {
        true => format!("GET /healthz {version}\r\nhost: t\r\n"),
        false => format!(
            "POST /predict {version}\r\n{}: {}\r\n",
            ["content-length", "Content-Length", "CONTENT-LENGTH"][rng.gen_range(0..3)],
            body.len()
        ),
    }
    .into_bytes();
    for i in 0..headers {
        out.extend_from_slice(format!("x-pad-{i}: {}\r\n", rng.gen_range(0..10u32)).as_bytes());
    }
    if let Some(len) = line {
        let name = "x-long: ";
        out.extend_from_slice(name.as_bytes());
        out.extend(std::iter::repeat_n(b'v', len - name.len()));
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&body);
    out
}

/// `first`, then 0–3 more valid requests pipelined behind it; also the
/// offset where each request ends.
fn pipeline(rng: &mut SmallRng, first: Vec<u8>) -> (Vec<u8>, Vec<usize>) {
    let mut stream = first;
    let mut ends = vec![stream.len()];
    for _ in 0..rng.gen_range(0..4) {
        let extra = rng.gen_range(0..4);
        stream.extend_from_slice(&request(rng, extra, None));
        ends.push(stream.len());
    }
    (stream, ends)
}

/// Header values no `Content-Length` may carry.
const BAD_LENGTHS: [&str; 9] = [
    "-1",
    "-0",
    "+4",
    "4a",
    "0x10",
    "",
    "1 2",
    "18446744073709551616",
    "99999999999999999999999999999999",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn try_parse_on_mutated_bytes_returns_and_stays_in_bounds(
        kind in 0u8..5,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        // A cap near `usize::MAX` puts every declared length in bounds,
        // so the framing arithmetic itself meets the lies.
        let max_body = [MAX_BODY, usize::MAX][rng.gen_range(0..2)];
        match kind {
            // Bit flips: anything may come back, but it must come back.
            0 => {
                let pads = rng.gen_range(0..8);
                let first = request(&mut rng, pads, None);
                let (mut stream, _) = pipeline(&mut rng, first);
                for _ in 0..rng.gen_range(1..9) {
                    let i = rng.gen_range(0..stream.len());
                    stream[i] ^= 1 << rng.gen_range(0..8u32);
                }
                drain(&stream, max_body)?;
            }
            // Truncation at every length of a valid stream whose first
            // request sits at the header-count or line-length limit: a
            // proper prefix of a request is "not yet", never an error.
            1 => {
                let (pads, line) = match rng.gen_range(0..3) {
                    0 => (rng.gen_range(0..8), None),
                    1 => (MAX_HEADERS - 1, None),
                    _ => (0, Some(MAX_LINE)),
                };
                let first = request(&mut rng, pads, line);
                let (stream, ends) = pipeline(&mut rng, first);
                for cut in 0..=stream.len() {
                    let parsed = parse(&stream[..cut], max_body)?;
                    match parsed {
                        Ok(None) => prop_assert!(cut < ends[0], "cut {}: not yet", cut),
                        Ok(Some((_, n))) => {
                            prop_assert!(cut >= ends[0], "cut {}: early request", cut);
                            prop_assert_eq!(n, ends[0]);
                        }
                        Err(e) => prop_assert!(false, "cut {}: {:?}", cut, e),
                    }
                }
                prop_assert_eq!(drain(&stream, max_body)?, ends);
            }
            // Header counts around the cap (host or content-length is the
            // first header, then the pads).
            2 => {
                let count = MAX_HEADERS - 2 + rng.gen_range(0..5);
                let first = request(&mut rng, count - 1, None);
                let (stream, ends) = pipeline(&mut rng, first);
                let parsed = parse(&stream, max_body)?;
                match count <= MAX_HEADERS {
                    true => prop_assert_eq!(drain(&stream, max_body)?, ends),
                    false => prop_assert!(
                        matches!(&parsed, Err(ParseError::BadRequest(m)) if m.contains("headers")),
                        "{} headers: {:?}", count, parsed.map(|p| p.map(|(_, n)| n))
                    ),
                }
            }
            // Line lengths around the cap, on a header or the request
            // line itself, cut anywhere from near the line's end onwards.
            3 => {
                let len = MAX_LINE - 2 + rng.gen_range(0..5);
                let (first, start) = match rng.gen_bool(0.5) {
                    true => {
                        let first = request(&mut rng, 0, Some(len));
                        let start = first.windows(8).position(|w| w == b"x-long: ").unwrap();
                        (first, start)
                    }
                    false => {
                        let path = "x".repeat(len - "GET / HTTP/1.1".len());
                        (format!("GET /{path} HTTP/1.1\r\n\r\n").into_bytes(), 0)
                    }
                };
                let (stream, ends) = pipeline(&mut rng, first);
                let cut = rng.gen_range(start + len - 16..stream.len() + 1);
                let parsed = parse(&stream[..cut], max_body)?;
                // The line's bytes the prefix holds, CRLF not counted.
                let present = (cut - start).min(len);
                match (present > MAX_LINE, parsed) {
                    (true, Err(ParseError::BadRequest(m))) => {
                        prop_assert!(m.contains("exceeds"), "{}", m)
                    }
                    (false, Ok(None)) => prop_assert!(cut < ends[0], "complete but not parsed"),
                    (false, Ok(Some((_, n)))) => prop_assert!(cut >= ends[0] && n == ends[0]),
                    (too_long, other) => prop_assert!(
                        false,
                        "line of {} bytes, {} present (too long: {}), cut at {}: {:?}",
                        len, present, too_long, cut, other.map(|p| p.map(|(_, n)| n))
                    ),
                }
            }
            // A Content-Length that lies, in front of valid followers.
            _ => {
                let body = b"{\"publisher\":0,\"consumer\":1,\"words\":[0]}";
                let len = body.len();
                let lengths: Vec<String> = match rng.gen_range(0..7) {
                    0 => vec![(len + rng.gen_range(1..200)).to_string()],
                    1 => vec![rng.gen_range(0..len).to_string()],
                    2 => vec![BAD_LENGTHS[rng.gen_range(0..BAD_LENGTHS.len())].to_owned()],
                    3 => vec![usize::MAX.to_string()],
                    4 => vec![MAX_BODY.to_string()],
                    5 => vec![len.to_string(), (len + 1).to_string()],
                    _ => vec![len.to_string(), len.to_string()],
                };
                let mut first = b"POST /predict HTTP/1.1\r\n".to_vec();
                for v in &lengths {
                    first.extend_from_slice(format!("content-length: {v}\r\n").as_bytes());
                }
                first.extend_from_slice(b"\r\n");
                let head = first.len();
                first.extend_from_slice(body);
                let (stream, _) = pipeline(&mut rng, first);
                let parsed = parse(&stream, max_body)?;
                // A length is digits only, and repeats must agree.
                let valid: Option<Vec<usize>> = lengths
                    .iter()
                    .map(|v| v.parse().ok().filter(|_| v.bytes().all(|b| b.is_ascii_digit())))
                    .collect();
                match valid.filter(|ns| ns.iter().all(|&n| n == ns[0])) {
                    Some(ns) => {
                        let n = ns[0];
                        match (n > max_body, &parsed) {
                            (true, Err(ParseError::BodyTooLarge { declared, .. })) => {
                                prop_assert_eq!(*declared, n)
                            }
                            (false, Ok(None)) => prop_assert!(n > stream.len() - head),
                            (false, Ok(Some((req, used)))) => {
                                prop_assert_eq!(*used, head + n);
                                prop_assert_eq!(req.body.len(), n);
                            }
                            (_, other) => prop_assert!(false, "declared {}: {:?}", n, other),
                        }
                    }
                    None => prop_assert!(
                        matches!(&parsed, Err(ParseError::BadRequest(_))),
                        "content-length {:?}: {:?}", lengths, parsed.map(|p| p.map(|(_, n)| n))
                    ),
                }
                drain(&stream, max_body)?;
            }
        }
    }
}
