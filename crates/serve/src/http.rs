//! Minimal HTTP/1.1 framing over `std::net`.
//!
//! Just enough of RFC 9112 for a JSON API: request-line + headers +
//! `Content-Length` bodies on the way in, fixed-length responses on the
//! way out. No chunked transfer and no TLS. Keep-alive follows the
//! HTTP/1.1 default (persistent unless `Connection: close`; HTTP/1.0 is
//! the reverse).
//!
//! The one parser, [`try_parse`], is resumable: it parses straight out of
//! an accumulated byte buffer and reports how much it consumed, which is
//! what the readiness-driven event loop needs. Feed it whatever the
//! socket had, get back a request or "not yet"; pipelined requests are
//! consumed, strictly in order, from the front of the buffer.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest accepted request line or single header line, in bytes.
const MAX_LINE: usize = 8 * 1024;

/// Largest accepted header count.
const MAX_HEADERS: usize = 64;

/// The per-request deadline, armed by the request's first byte.
///
/// A fresh clock is created for every request on a connection: time spent
/// *idle* on a keep-alive connection costs nothing, but once the client
/// has started sending a request, the whole parse → score → reply span
/// must finish inside the configured timeout. The event loop's timer
/// tick answers whatever is past its [`RequestClock::deadline`].
#[derive(Debug, Clone)]
pub struct RequestClock {
    timeout: Option<Duration>,
    started: Option<Instant>,
}

impl RequestClock {
    /// A clock with the given budget; `None` disables the deadline.
    pub fn new(timeout: Option<Duration>) -> Self {
        Self {
            timeout,
            started: None,
        }
    }

    /// Arm the clock (idempotent) — called when request bytes first land.
    pub fn mark(&mut self) {
        if self.started.is_none() {
            self.started = Some(Instant::now());
        }
    }

    /// The absolute deadline, once armed.
    pub fn deadline(&self) -> Option<Instant> {
        Some(self.started? + self.timeout?)
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method, e.g. `GET`.
    pub method: String,
    /// Path component of the target, e.g. `/communities/3`.
    pub path: String,
    /// Lowercased header name/value pairs, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the connection should persist after the response.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a (lowercase) header name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a buffer does not hold a request.
#[derive(Debug)]
pub enum ParseError {
    /// The bytes were not a parseable HTTP request → respond 400.
    BadRequest(String),
    /// Declared body length exceeds the configured cap → respond 413.
    BodyTooLarge {
        /// What the request declared.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
}

/// Parse `METHOD target HTTP/1.x` → `(method, target, is_http11)`.
fn parse_request_line(text: &str) -> Result<(&str, &str, bool), ParseError> {
    let mut parts = text.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(ParseError::BadRequest(format!(
                "malformed request line: {text:?}"
            )))
        }
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(ParseError::BadRequest(format!(
                "unsupported protocol version {other:?}"
            )))
        }
    };
    Ok((method, target, http11))
}

/// Parse one `Name: value` header line into lowercase-name/trimmed-value.
fn parse_header_line(text: &str) -> Result<(String, String), ParseError> {
    let (name, value) = text
        .split_once(':')
        .ok_or_else(|| ParseError::BadRequest(format!("malformed header line: {text:?}")))?;
    Ok((name.trim().to_ascii_lowercase(), value.trim().to_owned()))
}

/// Declared body length (0 when absent), bounds-checked against the cap.
fn content_length_of(headers: &[(String, String)], max_body: usize) -> Result<usize, ParseError> {
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ParseError::BadRequest(format!("bad content-length: {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(ParseError::BodyTooLarge {
            declared: content_length,
            limit: max_body,
        });
    }
    Ok(content_length)
}

/// Assemble the [`Request`] once method/target/headers/body are in hand.
fn finish_request(
    method: &str,
    target: &str,
    http11: bool,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
) -> Request {
    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => http11,
    };
    // Split the query string off; endpoints here don't use one.
    let path = target.split('?').next().unwrap_or(target).to_owned();
    Request {
        method: method.to_owned(),
        path,
        headers,
        body,
        keep_alive,
    }
}

/// Try to parse one complete request from the front of `buf`.
///
/// The caller accumulates socket bytes in a buffer and re-invokes this after every
/// read. `Ok(None)` means "incomplete — keep the bytes and wait for
/// more"; `Ok(Some((request, consumed)))` hands back the request plus how
/// many bytes it spanned, so the caller can drain them and leave any
/// pipelined follow-up request in place. Errors map onto statuses: 400
/// for grammar violations, 413 via [`ParseError::BodyTooLarge`] for an
/// oversized declared body.
///
/// Grammar limits are enforced *incrementally* — an over-long line or an
/// over-long header block is rejected as soon as the buffer proves it,
/// not once a terminator arrives, so a hostile peer cannot grow the
/// buffer beyond the caps by simply never finishing a line.
pub fn try_parse(buf: &[u8], max_body: usize) -> Result<Option<(Request, usize)>, ParseError> {
    // Walk the header block line by line.
    let mut start = 0usize; // byte offset where the current line begins
    let mut lines: Vec<&[u8]> = Vec::new();
    let head_end = loop {
        let Some(nl) = buf[start..].iter().position(|&b| b == b'\n') else {
            // No terminator yet: partial line. Reject it already if it
            // cannot possibly fit the line cap.
            if buf.len() - start > MAX_LINE {
                return Err(if lines.is_empty() {
                    ParseError::BadRequest(format!("request line exceeds {MAX_LINE} bytes"))
                } else {
                    ParseError::BadRequest(format!("header line exceeds {MAX_LINE} bytes"))
                });
            }
            return Ok(None);
        };
        let end = start + nl;
        let mut line = &buf[start..end];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        if line.len() > MAX_LINE {
            return Err(if lines.is_empty() {
                ParseError::BadRequest(format!("request line exceeds {MAX_LINE} bytes"))
            } else {
                ParseError::BadRequest(format!("header line exceeds {MAX_LINE} bytes"))
            });
        }
        if line.is_empty() && !lines.is_empty() {
            break end + 1; // blank line: end of the header block
        }
        if !lines.is_empty() && lines.len() > MAX_HEADERS {
            return Err(ParseError::BadRequest(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        lines.push(line);
        start = end + 1;
    };

    let text = std::str::from_utf8(lines[0])
        .map_err(|_| ParseError::BadRequest("request line is not UTF-8".into()))?;
    let (method, target, http11) = parse_request_line(text)?;
    let mut headers = Vec::with_capacity(lines.len() - 1);
    for raw in &lines[1..] {
        let text = std::str::from_utf8(raw)
            .map_err(|_| ParseError::BadRequest("header line is not UTF-8".into()))?;
        headers.push(parse_header_line(text)?);
    }

    let content_length = content_length_of(&headers, max_body)?;
    if buf.len() < head_end + content_length {
        return Ok(None); // body still in flight
    }
    let body = buf[head_end..head_end + content_length].to_vec();
    Ok(Some((
        finish_request(method, target, http11, headers, body),
        head_end + content_length,
    )))
}

/// Reason phrase for the handful of statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete fixed-length response to a blocking socket, with an
/// optional `Retry-After` header — the shed path's way of telling
/// well-behaved clients when to come back.
pub fn write_response(
    stream: &TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    retry_after_secs: Option<u64>,
) -> std::io::Result<()> {
    let out = format_response(status, content_type, body, keep_alive, retry_after_secs);
    let mut w = stream;
    w.write_all(&out)?;
    w.flush()
}

/// Serialize a complete fixed-length response into a byte buffer. The
/// event loop queues these bytes on the connection and flushes them as
/// the socket reports writability.
pub fn format_response(
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    retry_after_secs: Option<u64>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + body.len());
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // Writing into a Vec is infallible.
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {connection}\r\n",
        reason(status),
        body.len(),
    );
    if let Some(secs) = retry_after_secs {
        let _ = write!(out, "retry-after: {secs}\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// Parse a buffer that must hold exactly one complete request.
    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        let (request, consumed) = try_parse(raw, 1024)?.expect("a complete request");
        assert_eq!(consumed, raw.len(), "the request spans the whole buffer");
        Ok(request)
    }

    /// The event loop's read path: append each chunk to the connection
    /// buffer, then parse and drain complete requests off its front.
    fn parse_chunks(chunks: &[&[u8]]) -> Vec<Request> {
        let mut buf = Vec::new();
        let mut out = Vec::new();
        for chunk in chunks {
            buf.extend_from_slice(chunk);
            while let Some((request, consumed)) = try_parse(&buf, 1024).unwrap() {
                buf.drain(..consumed);
                out.push(request);
            }
        }
        assert!(buf.is_empty(), "bytes left over: {buf:?}");
        out
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse(b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn connection_close_is_honored() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn malformed_request_line_is_bad_request() {
        let err = try_parse(b"NONSENSE\r\n\r\n", 1024).unwrap_err();
        assert!(matches!(err, ParseError::BadRequest(_)), "{err:?}");
    }

    #[test]
    fn oversized_body_is_rejected_by_declared_length() {
        // Rejected from the headers alone, before any body byte arrives.
        let err = try_parse(
            b"POST /predict HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
            1024,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                ParseError::BodyTooLarge {
                    declared: 999999,
                    limit: 1024
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn query_strings_are_split_off() {
        let req = parse(b"GET /healthz?verbose=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn stalled_request_times_out_once_the_clock_is_armed() {
        // An idle connection (no bytes at all) never arms the clock.
        let mut clock = RequestClock::new(Some(Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(clock.deadline(), None);
        // The first byte arms it; later bytes do not push it back.
        clock.mark();
        let deadline = clock.deadline().expect("armed");
        std::thread::sleep(Duration::from_millis(5));
        clock.mark();
        assert_eq!(clock.deadline(), Some(deadline));
        assert!(Instant::now() >= deadline, "the stalled request is due");
        // A disabled budget never produces a deadline.
        let mut unbounded = RequestClock::new(None);
        unbounded.mark();
        assert_eq!(unbounded.deadline(), None);
    }

    #[test]
    fn retry_after_header_is_emitted_on_request() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        write_response(&server, 503, "application/json", b"{}", false, Some(2)).unwrap();
        drop(server);
        let mut raw = String::new();
        client.read_to_string(&mut raw).unwrap();
        assert!(
            raw.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{raw}"
        );
        assert!(raw.contains("retry-after: 2\r\n"), "{raw}");
        assert!(raw.ends_with("\r\n\r\n{}"), "{raw}");
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain"), "plain");
    }

    const RAW: &[u8] = b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";

    #[test]
    fn try_parse_complete_request() {
        let (req, consumed) = try_parse(RAW, 1024).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive);
        assert_eq!(consumed, RAW.len());
    }

    #[test]
    fn try_parse_is_resumable_byte_by_byte() {
        // Every proper prefix is Partial; the full buffer parses. This is
        // the exact contract the epoll read loop leans on.
        for cut in 0..RAW.len() {
            assert!(
                try_parse(&RAW[..cut], 1024).unwrap().is_none(),
                "prefix of {cut} bytes parsed too early"
            );
        }
        assert!(try_parse(RAW, 1024).unwrap().is_some());
    }

    #[test]
    fn try_parse_leaves_pipelined_bytes_for_the_next_round() {
        let mut two = RAW.to_vec();
        two.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        let (first, consumed) = try_parse(&two, 1024).unwrap().unwrap();
        assert_eq!(first.method, "POST");
        let (second, rest) = try_parse(&two[consumed..], 1024).unwrap().unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/healthz");
        assert_eq!(consumed + rest, two.len());
    }

    #[test]
    fn pipelined_stream_parses_the_same_at_every_split() {
        let stream: &[u8] = b"POST /predict HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd\
            GET /healthz HTTP/1.1\r\n\r\n\
            GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        let summary = |requests: Vec<Request>| -> Vec<(String, String, Vec<u8>, bool)> {
            requests
                .into_iter()
                .map(|r| (r.method, r.path, r.body, r.keep_alive))
                .collect()
        };
        let whole = summary(parse_chunks(&[stream]));
        assert_eq!(
            whole,
            [
                ("POST".into(), "/predict".into(), b"abcd".to_vec(), true),
                ("GET".into(), "/healthz".into(), Vec::new(), true),
                ("GET".into(), "/metrics".into(), Vec::new(), false),
            ]
        );
        for cut in 0..=stream.len() {
            let (head, tail) = stream.split_at(cut);
            assert_eq!(
                summary(parse_chunks(&[head, tail])),
                whole,
                "split at {cut}"
            );
        }
    }

    #[test]
    fn try_parse_rejects_what_the_blocking_parser_rejects() {
        let err = try_parse(b"NONSENSE\r\n\r\n", 1024).unwrap_err();
        assert!(matches!(err, ParseError::BadRequest(_)), "{err:?}");
        let err = try_parse(b"POST /p HTTP/1.1\r\nContent-Length: 9999\r\n\r\n", 1024).unwrap_err();
        assert!(
            matches!(
                err,
                ParseError::BodyTooLarge {
                    declared: 9999,
                    limit: 1024
                }
            ),
            "{err:?}"
        );
        let err = try_parse(b"GET / HTTP/2\r\n\r\n", 1024).unwrap_err();
        assert!(matches!(err, ParseError::BadRequest(_)), "{err:?}");
    }

    #[test]
    fn try_parse_caps_unterminated_lines() {
        // A request line that can no longer fit the cap is rejected even
        // without its terminator — the buffer must not grow unboundedly.
        let flood = vec![b'A'; MAX_LINE + 2];
        let err = try_parse(&flood, 1024).unwrap_err();
        assert!(matches!(err, ParseError::BadRequest(_)), "{err:?}");
        // Just under the cap stays Partial.
        assert!(try_parse(&flood[..MAX_LINE], 1024).unwrap().is_none());
    }

    #[test]
    fn format_response_matches_the_streaming_writer() {
        let bytes = format_response(503, "application/json", b"{}", false, Some(2));
        let text = String::from_utf8(bytes).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("connection: close\r\n"), "{text}");
        assert!(text.contains("retry-after: 2\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }
}
