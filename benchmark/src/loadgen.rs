//! Open-loop HTTP/1.1 load generation.
//!
//! Each generator thread owns its connections and follows a precomputed
//! schedule: a request is written when it falls due, whether or not earlier
//! answers have arrived (HTTP/1.1 pipelining), so a stalled server meets a
//! growing backlog instead of a politely waiting client. At most `window`
//! requests may be outstanding on a connection; a request that falls due
//! while its window is full is not sent and counts as failed. Latency is
//! measured from when a request was *due*, which charges a stall to every
//! request it delayed. Between due times the thread sleeps in `ppoll(2)`.

use crate::sys::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// One scheduled request.
pub struct Planned {
    /// When the request falls due, nanoseconds after the step starts.
    pub due_ns: u64,
    /// Which of the thread's connections carries it.
    pub conn: usize,
    /// The complete request bytes.
    pub bytes: Vec<u8>,
    /// The caller's index for this request.
    pub tag: usize,
}

/// What became of a scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A complete response arrived (any status).
    Answered,
    /// Due while its connection's window was full; never sent.
    WindowDrop,
    /// The connection failed, or no answer came before the drain deadline.
    TransportError,
}

/// The measured fate of one [`Planned`] request. Times are nanoseconds
/// after the step start.
#[derive(Debug, Clone)]
pub struct Record {
    pub tag: usize,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub outcome: Outcome,
    pub status: u16,
    pub body: Vec<u8>,
}

impl Record {
    /// Whether the request was answered with `200`.
    pub fn ok(&self) -> bool {
        self.outcome == Outcome::Answered && self.status == 200
    }

    /// Due-to-answer latency in milliseconds; infinite for a request that
    /// failed, which misses every latency limit.
    pub fn latency_ms(&self) -> f64 {
        if self.ok() {
            (self.done_ns - self.due_ns) as f64 / 1e6
        } else {
            f64::INFINITY
        }
    }
}

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Incremental parser for the fixed-length responses `cold-serve` writes:
/// bytes may arrive split anywhere and several responses may arrive in one
/// read.
#[derive(Default)]
pub struct ResponseParser {
    buf: Vec<u8>,
}

impl ResponseParser {
    /// Append received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, `Ok(None)` until one is complete.
    pub fn next_response(&mut self) -> Result<Option<Response>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| "response head is not UTF-8".to_owned())?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let mut length = None;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| "response without content-length".to_owned())?;
        let total = head_end + 4 + length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Response { status, body }))
    }
}

/// A `POST` request with a JSON body.
pub fn post(path: &str, json: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{json}",
        json.len()
    )
    .into_bytes()
}

/// A `GET` request.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n").into_bytes()
}

struct Conn {
    stream: TcpStream,
    parser: ResponseParser,
    /// Plan indices written and not yet answered, oldest first.
    inflight: VecDeque<usize>,
    /// Bytes handed to this connection but not yet accepted by the socket.
    pending: Vec<u8>,
    broken: bool,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            parser: ResponseParser::default(),
            inflight: VecDeque::new(),
            pending: Vec::new(),
            broken: false,
        })
    }

    /// Fail everything in flight and stop using the connection.
    fn fail(&mut self, records: &mut [Record]) {
        self.broken = true;
        for idx in self.inflight.drain(..) {
            records[idx].outcome = Outcome::TransportError;
        }
    }

    fn flush(&mut self, records: &mut [Record]) {
        while !self.pending.is_empty() && !self.broken {
            match self.stream.write(&self.pending) {
                Ok(0) => self.fail(records),
                Ok(n) => {
                    self.pending.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.fail(records),
            }
        }
    }

    fn read_ready(&mut self, scratch: &mut [u8], start: Instant, records: &mut [Record]) {
        let closed = loop {
            match self.stream.read(scratch) {
                Ok(0) => break true,
                Ok(n) => self.parser.feed(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break true,
            }
        };
        let done_ns = nanos_since(start, Instant::now());
        loop {
            match self.parser.next_response() {
                Ok(Some(response)) => {
                    let Some(idx) = self.inflight.pop_front() else {
                        // An answer nobody asked for: the stream is out of step.
                        self.fail(records);
                        return;
                    };
                    let r = &mut records[idx];
                    r.done_ns = done_ns;
                    r.outcome = Outcome::Answered;
                    r.status = response.status;
                    r.body = response.body;
                }
                Ok(None) => break,
                Err(_) => {
                    self.fail(records);
                    return;
                }
            }
        }
        if closed {
            self.fail(records);
        }
    }
}

fn nanos_since(start: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(start).as_nanos() as u64
}

/// Run one thread's schedule against `addr` over `conns` fresh
/// connections. `plan` must be sorted by due time; the step clock starts at
/// `start` (connections open before it). Requests still unanswered `drain`
/// after the last due time fail. Records come back in plan order.
pub fn drive(
    addr: SocketAddr,
    conns: usize,
    plan: &[Planned],
    start: Instant,
    window: usize,
    drain: Duration,
) -> io::Result<Vec<Record>> {
    let mut conns: Vec<Conn> = (0..conns)
        .map(|_| Conn::open(addr))
        .collect::<io::Result<_>>()?;
    let mut records: Vec<Record> = plan
        .iter()
        .map(|p| Record {
            tag: p.tag,
            due_ns: p.due_ns,
            sent_ns: u64::MAX,
            done_ns: u64::MAX,
            outcome: Outcome::TransportError,
            status: 0,
            body: Vec::new(),
        })
        .collect();
    let last_due = plan.last().map_or(0, |p| p.due_ns);
    let drain_end = start + Duration::from_nanos(last_due) + drain;
    let mut scratch = vec![0u8; 64 * 1024];
    let mut next = 0;
    loop {
        let now = Instant::now();
        while next < plan.len() && start + Duration::from_nanos(plan[next].due_ns) <= now {
            let p = &plan[next];
            let conn = &mut conns[p.conn];
            let r = &mut records[next];
            if conn.broken {
                r.outcome = Outcome::TransportError;
            } else if conn.inflight.len() >= window {
                r.outcome = Outcome::WindowDrop;
            } else {
                conn.pending.extend_from_slice(&p.bytes);
                conn.inflight.push_back(next);
                r.sent_ns = nanos_since(start, now);
            }
            next += 1;
        }
        for conn in &mut conns {
            conn.flush(&mut records);
        }
        if next == plan.len() && conns.iter().all(|c| c.inflight.is_empty()) {
            break;
        }
        let now = Instant::now();
        if now >= drain_end {
            for conn in &mut conns {
                conn.fail(&mut records);
            }
            break;
        }
        let wake = if next < plan.len() {
            start + Duration::from_nanos(plan[next].due_ns)
        } else {
            drain_end
        };
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd {
                fd: if c.broken { -1 } else { c.stream.as_raw_fd() },
                events: POLLIN | if c.pending.is_empty() { 0 } else { POLLOUT },
                revents: 0,
            })
            .collect();
        sys::wait(&mut fds, wake.saturating_duration_since(now))?;
        for (conn, fd) in conns.iter_mut().zip(&fds) {
            if fd.revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                conn.read_ready(&mut scratch, start, &mut records);
            }
        }
    }
    Ok(records)
}

/// Run one schedule per thread concurrently — the calling thread drives the
/// first — all against the same step clock, which is returned with the
/// records. `conns[t]` connections are opened for thread `t`.
pub fn run(
    addr: SocketAddr,
    plans: &[Vec<Planned>],
    conns: &[usize],
    window: usize,
    drain: Duration,
) -> io::Result<(Instant, Vec<Vec<Record>>)> {
    // Leave time to connect before the first request falls due.
    let start = Instant::now() + Duration::from_millis(20);
    let records = std::thread::scope(|scope| {
        let others: Vec<_> = plans[1..]
            .iter()
            .zip(&conns[1..])
            .map(|(plan, &n)| scope.spawn(move || drive(addr, n, plan, start, window, drain)))
            .collect();
        let first = drive(addr, conns[0], &plans[0], start, window, drain);
        // Join every thread before reporting any error.
        let rest: Vec<io::Result<Vec<Record>>> = others
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        std::iter::once(first)
            .chain(rest)
            .collect::<io::Result<Vec<_>>>()
    })?;
    Ok((start, records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: u16, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status} OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    fn drain_all(parser: &mut ResponseParser) -> Vec<Response> {
        let mut out = Vec::new();
        while let Some(r) = parser.next_response().unwrap() {
            out.push(r);
        }
        out
    }

    #[test]
    fn pipelined_responses_split_at_every_byte() {
        let mut stream = response(200, "{\"score\":0.5}");
        stream.extend(response(400, "{\"error\":\"unknown user\"}"));
        stream.extend(response(200, ""));
        let expected = {
            let mut p = ResponseParser::default();
            p.feed(&stream);
            drain_all(&mut p)
        };
        assert_eq!(expected.len(), 3);
        assert_eq!(expected[0].status, 200);
        assert_eq!(expected[0].body, b"{\"score\":0.5}");
        assert_eq!(expected[1].status, 400);
        assert!(expected[2].body.is_empty());
        for cut in 0..=stream.len() {
            let mut p = ResponseParser::default();
            p.feed(&stream[..cut]);
            let mut got = drain_all(&mut p);
            p.feed(&stream[cut..]);
            got.extend(drain_all(&mut p));
            assert_eq!(got, expected, "split at byte {cut}");
        }
        // And one byte at a time.
        let mut p = ResponseParser::default();
        let mut got = Vec::new();
        for b in &stream {
            p.feed(std::slice::from_ref(b));
            got.extend(drain_all(&mut p));
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn malformed_responses_are_errors() {
        let mut p = ResponseParser::default();
        p.feed(b"garbage\r\n\r\n");
        assert!(p.next_response().is_err());
        let mut p = ResponseParser::default();
        p.feed(b"HTTP/1.1 200 OK\r\nconnection: close\r\n\r\n");
        assert!(p.next_response().is_err());
    }

    #[test]
    fn request_framing_carries_the_body_length() {
        let req = String::from_utf8(post("/predict", "{\"a\":1}")).unwrap();
        assert!(req.starts_with("POST /predict HTTP/1.1\r\n"));
        assert!(req.contains("content-length: 7\r\n"));
        assert!(req.ends_with("\r\n\r\n{\"a\":1}"));
        assert!(String::from_utf8(get("/healthz"))
            .unwrap()
            .ends_with("\r\n\r\n"));
    }
}
