//! The readiness-driven transport (Linux): a small pool of epoll event
//! loops owns every socket and answers every request but `/reload`
//! itself; the reloader never touches a socket.
//!
//! ```text
//!                      ┌───────────────┐  /reload (1 slot) ┌──────────┐
//!   listener ─────────▶│ io loop 0..N  │──────────────────▶│ reloader │
//!   (one, shared;      │ accepts, owns │◀── Completion ────│          │
//!    EPOLLEXCLUSIVE)   │ its conns     │    + eventfd      └──────────┘
//!                      └───────────────┘
//! ```
//!
//! No loop is special: each accepts from the shared listener (the kernel
//! wakes one idle loop per connection) and owns what it accepts.
//!
//! Each loop runs a per-connection state machine:
//!
//! ```text
//!            readable: buffer bytes, try_parse
//!   ┌─────────┐──────── complete /reload ─────────▶┌─────────────┐
//!   │ Reading │                                     │ AwaitingJob │
//!   │         │◀─── completion (or deadline) ───────│ (reloading) │
//!   └─────────┘      response queued on write_buf   └─────────────┘
//!        │ any other request (/predict included): route inline,
//!        │ queue response
//!        ▼ writable: flush write_buf, then parse pipelined bytes
//! ```
//!
//! Interest management is deliberately minimal (level-triggered, no
//! `EPOLLET`): every connection is armed `EPOLLIN | EPOLLRDHUP` for its
//! whole life, `EPOLLOUT` is added only while a response is partially
//! written (`serve.io_write_partial` counts those) and dropped as soon
//! as the buffer drains, and the only other `MOD` is a read-side pause
//! when a client pipelines more than [`PIPELINE_CAP`] bytes behind an
//! in-flight reload: TCP backpressure, since the loop stops `read()`ing
//! until the reload is answered.
//!
//! Deadlines live on the epoll timer tick: `epoll_wait` sleeps no longer
//! than the nearest armed deadline (capped by [`POLL_INTERVAL`]) and a
//! sweep then answers expired requests — a stalled upload gets `408`, a
//! reload not finished in time gets `503` + `Retry-After`, a peer that
//! stops reading its response is closed
//! (`serve.write_timeouts`). A slowloris therefore costs one buffer and
//! one timer entry, never a thread.
//!
//! Accounting: `serve.connections_total` counts at accept,
//! `serve.requests_total` at parse, every status through
//! [`count_status`], and each endpoint histogram spans dispatch → reply
//! (`EventLoop::answer`).
//!
//! A panic that escapes `EventLoop::dispatch`'s per-request catch ends
//! its loop; the thread catches it at the top (`EventLoop::run_to_exit`)
//! and flips `/healthz` to degraded. A loop carries live connection
//! state, so it is never restarted; its epoll instance closes with it,
//! so new connections wake only the survivors.

use crate::http::{self, ParseError, RequestClock};
use crate::server::{
    count_status, route, shed_conn, ReloadJob, RouteOutcome, Routed, ServiceCtx,
    FALLBACK_WRITE_TIMEOUT, JSON, POLL_INTERVAL, RELOAD_SECONDS,
};
use crate::sys::{
    Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLEXCLUSIVE, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token for the shared listening socket, registered by every loop.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token for the loop's wakeup eventfd.
const TOKEN_WAKE: u64 = u64::MAX - 1;
/// Bytes read per readiness event; level-triggered epoll re-reports
/// until the socket is drained, so one bounded read per wakeup is fair
/// to the other connections on the loop.
const READ_CHUNK: usize = 64 * 1024;
/// Connections one loop accepts per listener readiness event.
/// Level-triggered epoll re-reports a leftover backlog, so a reconnect
/// storm (shed clients dialling straight back) cannot keep a loop in
/// `accept()` while its admitted connections wait to be read. At the
/// default two loops, 8 keeps one server-wide round at 16; 16 per loop
/// cost overload goodput (DESIGN.md §13).
const ACCEPT_BATCH: usize = 8;
/// Read-side pause threshold while a reload is in flight: a client may
/// pipeline this many buffered bytes before the loop stops reading from
/// it until the reload is answered.
const PIPELINE_CAP: usize = 256 * 1024;

/// Where the reloader posts a finished `/reload` for a loop-owned
/// connection: push the completion, ring the loop's eventfd.
pub(crate) struct CompletionSink {
    shared: Arc<LoopShared>,
    conn: u64,
    seq: u64,
}

impl CompletionSink {
    pub(crate) fn send(self, routed: Routed) {
        self.shared
            .completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Completion {
                conn: self.conn,
                seq: self.seq,
                routed,
            });
        self.shared.wake.wake();
    }

    /// Sinks onto a loop that never runs (one per connection id), plus a
    /// way to take the `(conn, response)` pairs that reached it.
    #[cfg(test)]
    pub(crate) fn detached() -> (impl Fn(u64) -> Self, impl Fn() -> Vec<(u64, Routed)>) {
        let shared = Arc::new(LoopShared::new().unwrap());
        let taker = Arc::clone(&shared);
        let sink = move |conn| CompletionSink {
            shared: Arc::clone(&shared),
            conn,
            seq: 0,
        };
        let take = move || {
            std::mem::take(&mut *taker.completions.lock().unwrap())
                .into_iter()
                .map(|c| (c.conn, c.routed))
                .collect()
        };
        (sink, take)
    }
}

/// The cross-thread face of one event loop: anything that must reach it
/// (reload completions, shutdown) goes through here and rings the
/// eventfd.
struct LoopShared {
    wake: Arc<EventFd>,
    completions: Mutex<Vec<Completion>>,
}

impl LoopShared {
    fn new() -> std::io::Result<Self> {
        Ok(Self {
            wake: Arc::new(EventFd::new()?),
            completions: Mutex::new(Vec::new()),
        })
    }
}

struct Completion {
    conn: u64,
    /// Must match the connection's current sequence number — a reply to
    /// a request the loop already answered (deadline 503) is discarded.
    seq: u64,
    routed: Routed,
}

/// What a connection is doing between readiness events.
enum ConnPhase {
    /// Accumulating request bytes (or idle keep-alive).
    Reading,
    /// A `/reload` is with the reloader; the completion carries the
    /// response, this is what else answering it (or its deadline) needs.
    AwaitingJob { t0: Instant, keep_alive: bool },
}

struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already on the wire.
    written: usize,
    phase: ConnPhase,
    /// Armed by the request's first byte, spanning parse → score → reply.
    clock: RequestClock,
    /// Bumped per answered request; stale completions don't match.
    seq: u64,
    /// Close once `write_buf` drains (`connection: close` responses).
    close_after_write: bool,
    /// `EPOLLOUT` currently armed.
    want_write: bool,
    /// `EPOLLIN` currently armed (dropped only at [`PIPELINE_CAP`]).
    want_read: bool,
    /// Bound on flushing the current `write_buf`.
    write_deadline: Option<Instant>,
    /// Peer sent EOF; serve what is buffered, then close.
    peer_closed: bool,
}

impl Conn {
    fn new(stream: TcpStream, timeout: Option<Duration>) -> Self {
        Self {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            phase: ConnPhase::Reading,
            clock: RequestClock::new(timeout),
            seq: 0,
            close_after_write: false,
            want_write: false,
            want_read: true,
            write_deadline: None,
            peer_closed: false,
        }
    }

    fn interest(&self) -> u32 {
        let mut bits = EPOLLRDHUP;
        if self.want_read {
            bits |= EPOLLIN;
        }
        if self.want_write {
            bits |= EPOLLOUT;
        }
        bits
    }

    fn write_pending(&self) -> bool {
        self.written < self.write_buf.len()
    }
}

struct EventLoop {
    ep: Epoll,
    shared: Arc<LoopShared>,
    /// Shared by every loop; closes when the last one drops it.
    listener: Option<Arc<TcpListener>>,
    svc: Arc<ServiceCtx>,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    live_loops: Arc<AtomicUsize>,
    draining: bool,
    drain_deadline: Option<Instant>,
}

/// Spawn `io_threads` event loops, each accepting from the shared
/// (nonblocking) listener. A loop's eventfd becomes a shutdown waker
/// before its thread starts; a trigger before that leaves the flag set,
/// which the loop checks before it first waits.
pub(crate) fn spawn_loops(
    svc: &Arc<ServiceCtx>,
    listener: TcpListener,
    io_threads: usize,
    live_loops: &Arc<AtomicUsize>,
) -> std::io::Result<Vec<JoinHandle<()>>> {
    let listener = Arc::new(listener);
    let mut handles = Vec::with_capacity(io_threads);
    for idx in 0..io_threads {
        let shared = Arc::new(LoopShared::new()?);
        svc.shutdown.add_waker(Arc::clone(&shared.wake));
        let el = EventLoop {
            ep: Epoll::new()?,
            shared,
            listener: Some(Arc::clone(&listener)),
            svc: Arc::clone(svc),
            conns: HashMap::new(),
            next_conn: 0,
            live_loops: Arc::clone(live_loops),
            draining: false,
            drain_deadline: None,
        };
        handles.push(
            std::thread::Builder::new()
                .name(format!("cold-serve-io-{idx}"))
                .spawn(move || el.run_to_exit())?,
        );
    }
    Ok(handles)
}

impl EventLoop {
    /// The loop thread's body: run until drained, or until a panic
    /// escapes the per-request catch — that one is caught here, counted
    /// and reported through `/healthz`. Either way the loop's
    /// connections are closed before the thread ends. The last loop to
    /// go raises shutdown (a no-op after a drain): with no loop left,
    /// nothing accepts, so the reloader and `Server::join` must not wait.
    fn run_to_exit(mut self) {
        if catch_unwind(AssertUnwindSafe(|| self.run())).is_err() {
            self.svc.metrics.counter_add("serve.io_loop_panics", 1);
            self.svc.degraded.store(true, Ordering::Release);
            self.svc.metrics.gauge_set("serve.degraded", 1.0);
        }
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.close_conn(id);
        }
        if self.live_loops.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.svc.shutdown.trigger();
        }
    }

    fn run(&mut self) {
        // Registration failures here mean epoll itself is broken; the
        // panic surfaces as `serve.io_loop_panics` + degraded.
        self.ep
            .add(self.shared.wake.raw(), EPOLLIN, TOKEN_WAKE)
            .expect("cannot register loop eventfd");
        if let Some(l) = &self.listener {
            self.ep
                .add(l.as_raw_fd(), EPOLLIN | EPOLLEXCLUSIVE, TOKEN_LISTENER)
                .expect("cannot register listener");
        }
        let mut events = vec![EpollEvent::empty(); 256];
        loop {
            if self.svc.shutdown.is_set() && !self.draining {
                self.begin_drain();
            }
            if self.draining
                && (self.conns.is_empty()
                    || self.drain_deadline.is_some_and(|d| Instant::now() >= d))
            {
                break;
            }
            let timeout = self.next_timeout();
            let n = match self.ep.wait(&mut events, Some(timeout)) {
                Ok(n) => n,
                Err(_) => continue,
            };
            self.svc.metrics.counter_add("serve.epoll_wakeups", 1);
            // Serve the connections this loop owns before accepting more.
            let mut accept = false;
            for ev in &events[..n] {
                // Copy out of the (possibly packed) struct before use.
                let (token, bits) = (ev.data, ev.events);
                match token {
                    TOKEN_WAKE => self.on_wake(),
                    TOKEN_LISTENER => accept = true,
                    id => self.on_conn_event(id, bits),
                }
            }
            if accept {
                self.on_accept();
            }
            self.expire_deadlines();
        }
        // `run_to_exit` force-closes whatever the drain deadline cut off.
    }

    /// The nearest armed deadline bounds the sleep (timer-tick
    /// discipline); [`POLL_INTERVAL`] is the ceiling either way.
    fn next_timeout(&self) -> Duration {
        let mut nearest: Option<Instant> = self.drain_deadline;
        let mut consider = |d: Option<Instant>| {
            if let Some(d) = d {
                nearest = Some(match nearest {
                    Some(n) => n.min(d),
                    None => d,
                });
            }
        };
        for conn in self.conns.values() {
            consider(conn.clock.deadline());
            if conn.write_pending() {
                consider(conn.write_deadline);
            }
        }
        match nearest {
            Some(d) => d
                .saturating_duration_since(Instant::now())
                .min(POLL_INTERVAL),
            None => POLL_INTERVAL,
        }
    }

    fn on_accept(&mut self) {
        for _ in 0..ACCEPT_BATCH {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let metrics = &self.svc.metrics;
                    metrics.counter_add("serve.connections_total", 1);
                    // The live open-connection count is the shed bound
                    // here — the epoll analogue of a full accept queue.
                    if !self.svc.open_conns.try_inc(self.svc.max_conns) {
                        shed_conn(metrics, &stream);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.next_conn;
                    let conn = Conn::new(stream, self.svc.request_timeout);
                    let fd = conn.stream.as_raw_fd();
                    if conn.stream.set_nonblocking(true).is_err()
                        || self.ep.add(fd, conn.interest(), id).is_err()
                    {
                        self.svc.open_conns.dec();
                        continue;
                    }
                    self.next_conn += 1;
                    self.conns.insert(id, conn);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return, // WouldBlock: drained the backlog
            }
        }
    }

    fn on_wake(&mut self) {
        self.shared.wake.drain();
        let done: Vec<Completion> = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for completion in done {
            self.on_completion(completion);
        }
    }

    fn on_conn_event(&mut self, id: u64, bits: u32) {
        if !self.conns.contains_key(&id) {
            return; // stale event for a connection closed this batch
        }
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(id);
            return;
        }
        if bits & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.on_readable(id);
        } else if bits & EPOLLOUT != 0 {
            self.advance(id, false);
        }
    }

    /// One bounded read; level-triggered epoll re-reports leftovers.
    fn on_readable(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let mut scratch = [0u8; READ_CHUNK];
        match (&conn.stream).read(&mut scratch) {
            Ok(0) => conn.peer_closed = true,
            Ok(n) => {
                conn.read_buf.extend_from_slice(&scratch[..n]);
                conn.clock.mark();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                return
            }
            Err(_) => {
                // Transport failure mid-request: close without an answer.
                self.close_conn(id);
                return;
            }
        }
        self.advance(id, true);
    }

    /// The per-connection driver: flush, parse, dispatch, repeat. One
    /// iterative loop (never recursion) so a pipelined burst of requests
    /// costs stack O(1).
    fn advance(&mut self, id: u64, after_read: bool) {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };

            // 1. Flush queued response bytes.
            if conn.write_pending() {
                loop {
                    match (&conn.stream).write(&conn.write_buf[conn.written..]) {
                        Ok(0) => {
                            self.close_conn(id);
                            return;
                        }
                        Ok(n) => {
                            conn.written += n;
                            if !conn.write_pending() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            // Socket buffer full: arm EPOLLOUT and come
                            // back when the peer drains it.
                            self.svc.metrics.counter_add("serve.io_write_partial", 1);
                            if !conn.want_write {
                                conn.want_write = true;
                                let fd = conn.stream.as_raw_fd();
                                let interest = conn.interest();
                                let _ = self.ep.modify(fd, interest, id);
                            }
                            return;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            self.close_conn(id);
                            return;
                        }
                    }
                }
                conn.write_buf.clear();
                conn.written = 0;
                conn.write_deadline = None;
                if conn.want_write {
                    conn.want_write = false;
                    let fd = conn.stream.as_raw_fd();
                    let interest = conn.interest();
                    let _ = self.ep.modify(fd, interest, id);
                }
                if conn.close_after_write {
                    self.close_conn(id);
                    return;
                }
                continue; // re-fetch: state may allow the next request now
            }

            // 2. A pending reload answers this connection, not the
            // parser.
            if matches!(conn.phase, ConnPhase::AwaitingJob { .. }) {
                if conn.read_buf.len() >= PIPELINE_CAP && conn.want_read {
                    // Backpressure a hyper-pipeliner: stop reading until
                    // the in-flight reload is answered.
                    conn.want_read = false;
                    let fd = conn.stream.as_raw_fd();
                    let interest = conn.interest();
                    let _ = self.ep.modify(fd, interest, id);
                }
                return;
            }

            // Draining: requests not yet parsed are dropped with their
            // connection.
            if self.draining {
                self.close_conn(id);
                return;
            }

            // 3. Parse the next request out of the buffer.
            if conn.read_buf.is_empty() {
                if conn.peer_closed {
                    self.close_conn(id);
                }
                return;
            }
            conn.clock.mark();
            match http::try_parse(&conn.read_buf, self.svc.max_body) {
                Ok(Some((request, consumed))) => {
                    conn.read_buf.drain(..consumed);
                    self.svc.metrics.counter_add("serve.requests_total", 1);
                    self.dispatch(id, request);
                }
                Ok(None) => {
                    if conn.peer_closed {
                        // EOF mid-request: 400.
                        count_status(&self.svc.metrics, 400);
                        self.queue_response(
                            id,
                            400,
                            JSON,
                            b"{\"error\":\"connection closed mid-request\"}",
                            false,
                            None,
                        );
                        continue;
                    }
                    if after_read {
                        self.svc.metrics.counter_add("serve.io_read_partial", 1);
                    }
                    return;
                }
                Err(ParseError::BadRequest(msg)) => {
                    count_status(&self.svc.metrics, 400);
                    let body = format!("{{\"error\":\"{}\"}}", http::json_escape(&msg));
                    self.queue_response(id, 400, JSON, body.as_bytes(), false, None);
                }
                Err(ParseError::BodyTooLarge { declared, limit }) => {
                    count_status(&self.svc.metrics, 413);
                    let body = format!(
                        "{{\"error\":\"body of {declared} bytes exceeds the {limit}-byte limit\"}}"
                    );
                    self.queue_response(id, 413, JSON, body.as_bytes(), false, None);
                }
            }
        }
    }

    /// Route one parsed request: every endpoint but `/reload` answers
    /// immediately; `/reload` goes to the reloader and parks the
    /// connection.
    fn dispatch(&mut self, id: u64, request: http::Request) {
        let svc = Arc::clone(&self.svc);
        let app = svc.slot.current();
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| route(&svc, &app, &request)));
        // Once shutdown is underway (perhaps by this very request),
        // answer but stop keeping alive.
        let keep_alive = request.keep_alive && !svc.shutdown.is_set();
        match outcome {
            Err(_) => {
                // A panicking handler costs this connection a 500, never
                // the loop.
                svc.metrics.counter_add("serve.worker_panics", 1);
                svc.metrics.counter_add("serve.responses_500", 1);
                self.queue_response(
                    id,
                    500,
                    JSON,
                    b"{\"error\":\"internal error; the request was aborted\"}",
                    false,
                    None,
                );
            }
            Ok(RouteOutcome::Ready(routed)) => self.answer(id, t0, routed, keep_alive),
            Ok(RouteOutcome::Reload(path)) => {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                let job = ReloadJob {
                    path,
                    deadline: conn.clock.deadline(),
                    reply: CompletionSink {
                        shared: Arc::clone(&self.shared),
                        conn: id,
                        seq: conn.seq,
                    },
                };
                let refused = match svc.reload_tx.try_send(job) {
                    Ok(()) => {
                        conn.phase = ConnPhase::AwaitingJob { t0, keep_alive };
                        return;
                    }
                    Err(mpsc::TrySendError::Full(_)) => {
                        svc.metrics.counter_add("serve.shed", 1);
                        Routed::shed(RELOAD_SECONDS, "a reload is already waiting")
                    }
                    Err(mpsc::TrySendError::Disconnected(_)) => {
                        Routed::error(RELOAD_SECONDS, 503, "the reloader is gone")
                    }
                };
                self.answer(id, t0, refused, keep_alive);
            }
            // Outside the catch above: the unwind ends this loop.
            Ok(RouteOutcome::KillLoop) => panic!("chaos: injected event-loop kill"),
        }
    }

    /// The reloader finished a `/reload` for one of our connections.
    fn on_completion(&mut self, completion: Completion) {
        let Some(conn) = self.conns.get_mut(&completion.conn) else {
            return; // connection closed while the reload was in flight
        };
        if completion.seq != conn.seq {
            return; // already answered (deadline 503); stale response
        }
        let ConnPhase::AwaitingJob { t0, keep_alive, .. } =
            std::mem::replace(&mut conn.phase, ConnPhase::Reading)
        else {
            return;
        };
        conn.seq += 1;
        self.answer(completion.conn, t0, completion.routed, keep_alive);
        self.advance(completion.conn, false);
    }

    /// Time and count one routed response (dispatched at `t0`), then
    /// queue it.
    fn answer(&mut self, id: u64, t0: Instant, routed: Routed, keep_alive: bool) {
        let metrics = &self.svc.metrics;
        metrics.observe(routed.endpoint, t0.elapsed().as_secs_f64());
        count_status(metrics, routed.status);
        self.queue_response(
            id,
            routed.status,
            routed.content_type,
            routed.body.as_bytes(),
            keep_alive,
            routed.retry_after,
        );
    }

    /// Queue one response on the connection's write buffer and reset its
    /// per-request state; `advance` does the actual flushing.
    fn queue_response(
        &mut self,
        id: u64,
        status: u16,
        content_type: &str,
        body: &[u8],
        keep_alive: bool,
        retry_after: Option<u64>,
    ) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        conn.write_buf.extend_from_slice(&http::format_response(
            status,
            content_type,
            body,
            keep_alive,
            retry_after,
        ));
        conn.close_after_write = !keep_alive;
        conn.clock = RequestClock::new(self.svc.request_timeout);
        conn.write_deadline =
            Some(Instant::now() + self.svc.request_timeout.unwrap_or(FALLBACK_WRITE_TIMEOUT));
        if !conn.want_read {
            // Re-arm reads paused at the pipeline cap.
            conn.want_read = true;
            let fd = conn.stream.as_raw_fd();
            let interest = conn.interest();
            let _ = self.ep.modify(fd, interest, id);
        }
    }

    /// Timer tick: answer every expired deadline.
    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            if conn.write_pending() {
                // A peer not reading its response: bounded patience.
                if conn.write_deadline.is_some_and(|d| now >= d) {
                    self.svc.metrics.counter_add("serve.write_timeouts", 1);
                    self.close_conn(id);
                }
                continue;
            }
            if conn.clock.deadline().is_none_or(|d| now < d) {
                continue;
            }
            match &conn.phase {
                ConnPhase::Reading => {
                    // Stalled mid-upload (slowloris): 408, close.
                    self.svc.metrics.counter_add("serve.request_timeouts", 1);
                    self.svc.metrics.counter_add("serve.responses_408", 1);
                    self.queue_response(
                        id,
                        408,
                        JSON,
                        b"{\"error\":\"request not completed within the deadline\"}",
                        false,
                        None,
                    );
                    self.advance(id, false);
                }
                &ConnPhase::AwaitingJob { t0, keep_alive } => {
                    // The reload did not finish in time: 503 +
                    // Retry-After, keep-alive preserved; a late
                    // completion is stale.
                    conn.seq += 1;
                    conn.phase = ConnPhase::Reading;
                    self.svc.metrics.counter_add("serve.request_timeouts", 1);
                    let routed =
                        Routed::shed(RELOAD_SECONDS, "the reload missed the request deadline");
                    self.answer(id, t0, routed, keep_alive);
                    self.advance(id, false);
                }
            }
        }
    }

    /// Shutdown raised: stop accepting, drop idle and mid-read
    /// connections, flush what is answerable, and bound the rest with a
    /// hard deadline.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + FALLBACK_WRITE_TIMEOUT);
        if let Some(listener) = self.listener.take() {
            self.ep.delete(listener.as_raw_fd());
        }
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let Some(conn) = self.conns.get(&id) else {
                continue;
            };
            // In-flight reloads get answered; queued writes get flushed;
            // everything else (idle keep-alive, partial reads) closes
            // now.
            if matches!(conn.phase, ConnPhase::Reading) && !conn.write_pending() {
                self.close_conn(id);
            }
        }
    }

    fn close_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            self.ep.delete(conn.stream.as_raw_fd());
            self.svc.open_conns.dec();
        }
    }
}
