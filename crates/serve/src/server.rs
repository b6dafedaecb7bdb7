//! The service around the sockets: configuration, routing, the reloader
//! (which also watches the artifact), and shutdown. The sockets
//! themselves belong to the epoll event loops in `crate::epoll` (Linux
//! only; elsewhere [`Server::start`] returns an `Unsupported` error).
//!
//! ```text
//!                    ┌──────────────┐  /reload (1 slot)  ┌──────────┐
//!   listener ───────▶│ io loop 0..N │───────────────────▶│ reloader │
//!   (sheds 503)      │   (epoll)    │◀── Completion ─────│ (+watch) │
//!                    └──────────────┘     + eventfd      └──────────┘
//! ```
//!
//! * **Event loops** — `io_threads` loops share the one listener; each
//!   accepts for itself and owns what it accepts as a nonblocking state
//!   machine. They shed connections beyond `max_conns` at accept with
//!   `503` + `Retry-After`, parse, and answer every endpoint but
//!   `/reload` themselves. That includes `/predict`: its
//!   Eq. 7 score reads tables precomputed at load (a few µs), and
//!   [`crate::app::MAX_PREDICT_WORDS`] bounds the work one request can
//!   put on a loop. A panicking handler costs its connection a `500`;
//!   a panic that escapes that catch kills its loop, which counts itself
//!   in `serve.io_loop_panics` and flips `/healthz` to `503 degraded`;
//!   the surviving loops keep accepting.
//!   Each request runs against the app the [`AppSlot`] held at dispatch,
//!   and under a deadline ([`ServeConfig::request_timeout`]) spanning
//!   parse → score → reply.
//! * **Reloader** — one thread runs every reload. `POST /reload` reaches
//!   it through a one-slot queue: one reload runs, at most one waits,
//!   and a third is shed with `503` + `Retry-After`. Loading an artifact
//!   takes long enough (about 0.25 s for a million users) that running
//!   it on a loop would stall every connection that loop owns. With
//!   `--watch-model` the reloader also polls the serving artifact
//!   between requests and reloads it when it changes.
//! * **Shutdown** — `POST /shutdown` (or [`Server::shutdown`]) raises a
//!   flag and rings every loop's eventfd. The loops stop accepting, close
//!   idle connections, answer what is in flight, and exit; the reloader
//!   exits once the last loop is gone; [`Server::join`] joins them all.
//!   The last loop to die raises the flag itself, so a server whose
//!   every loop has died stops instead of running on unreachable.
#![cfg_attr(not(target_os = "linux"), allow(dead_code))]

use crate::app::{App, AppSlot, ServeError};
use crate::http::{self, Request};
use cold_obs::Metrics;
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

#[cfg(target_os = "linux")]
pub(crate) use crate::epoll::CompletionSink;

/// Without the epoll transport no connection exists to answer, so no
/// reload request is ever created.
#[cfg(not(target_os = "linux"))]
pub(crate) enum CompletionSink {}

#[cfg(not(target_os = "linux"))]
impl CompletionSink {
    fn send(self, _: Routed) {
        match self {}
    }
}

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8391` (port 0 picks a free port).
    pub addr: String,
    /// Event-loop threads; each accepts from the shared listener and
    /// answers the requests of the connections it accepted.
    pub io_threads: usize,
    /// Request body cap in bytes (`413` beyond it).
    pub max_body: usize,
    /// Cap on concurrently open connections. Beyond it, connections are
    /// shed at accept with `503` + `Retry-After` (`serve.shed_conns`).
    pub max_conns: usize,
    /// Per-request deadline covering parse → score → reply, armed by the
    /// request's first byte. `Duration::ZERO` disables it. A stalled
    /// upload gets `408`; a `/reload` not answered in time gets `503` +
    /// `Retry-After`; a peer that stops reading its response is closed
    /// once the same budget runs out.
    pub request_timeout: Duration,
    /// Expose `POST /chaos/panic` and `POST /chaos/panic-loop`
    /// (fault-injection hooks for the chaos harness). Never enable in
    /// production.
    pub chaos_endpoints: bool,
    /// Poll the serving artifact at this interval and hot-reload it when
    /// the file changes (after re-verification). `None` disables.
    pub watch_model: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8391".to_owned(),
            io_threads: 2,
            max_body: 1024 * 1024,
            max_conns: 1024,
            request_timeout: Duration::from_secs(10),
            chaos_endpoints: false,
            watch_model: None,
        }
    }
}

/// The event loops' timer-tick ceiling, and how often the reloader looks
/// at the shutdown flag.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Write bound used when the request deadline is disabled; also the
/// drain deadline at shutdown.
pub(crate) const FALLBACK_WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// Write bound for a shed response, which must never stall the accept
/// path.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(250);

pub(crate) const JSON: &str = "application/json";
const RETRY_AFTER_SECS: u64 = 1;

const PREDICT_SECONDS: &str = "serve.predict_seconds";
pub(crate) const RELOAD_SECONDS: &str = "serve.reload_endpoint_seconds";

fn shed_body(what: &str) -> String {
    format!("{{\"error\":\"server overloaded: {what}; retry shortly\"}}")
}

/// One `POST /reload` handed to the reloader.
pub(crate) struct ReloadJob {
    /// The artifact to load; `None` re-reads the serving path.
    pub(crate) path: Option<String>,
    /// Request deadline; the reloader skips a job that expired while it
    /// waited.
    pub(crate) deadline: Option<Instant>,
    /// The owning event loop, which writes the response.
    pub(crate) reply: CompletionSink,
}

/// Shared shutdown signal; `trigger` is idempotent.
pub(crate) struct ShutdownFlag {
    flag: AtomicBool,
    /// Eventfds of the event loops; rung on trigger so a loop parked in
    /// `epoll_wait` notices shutdown immediately.
    #[cfg(target_os = "linux")]
    wakers: Mutex<Vec<Arc<crate::sys::EventFd>>>,
}

impl ShutdownFlag {
    fn new() -> Self {
        Self {
            flag: AtomicBool::new(false),
            #[cfg(target_os = "linux")]
            wakers: Mutex::new(Vec::new()),
        }
    }

    #[cfg(target_os = "linux")]
    pub(crate) fn add_waker(&self, wake: Arc<crate::sys::EventFd>) {
        self.wakers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(wake);
    }

    pub(crate) fn trigger(&self) {
        if !self.flag.swap(true, Ordering::AcqRel) {
            #[cfg(target_os = "linux")]
            for w in self
                .wakers
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
            {
                w.wake();
            }
        }
    }

    pub(crate) fn is_set(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Live open-connection accounting behind the `serve.open_conns` gauge
/// (with a monotonic `serve.open_conns_peak` high-water mark). The live
/// count is also the `max_conns` shed bound.
pub(crate) struct ConnGauge {
    metrics: Metrics,
    open: AtomicI64,
    peak: AtomicI64,
}

impl ConnGauge {
    fn new(metrics: Metrics) -> Self {
        metrics.gauge_set("serve.open_conns", 0.0);
        metrics.gauge_set("serve.open_conns_peak", 0.0);
        Self {
            metrics,
            open: AtomicI64::new(0),
            peak: AtomicI64::new(0),
        }
    }

    /// Count one more open connection, unless `cap` are open already.
    /// One atomic step: every loop accepts, so a separate check and
    /// increment could let two loops pass the cap together.
    pub(crate) fn try_inc(&self, cap: usize) -> bool {
        let Ok(prev) = self
            .open
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                (v < cap as i64).then_some(v + 1)
            })
        else {
            return false;
        };
        let v = prev + 1;
        self.metrics.gauge_set("serve.open_conns", v as f64);
        if v > self.peak.fetch_max(v, Ordering::AcqRel) {
            self.metrics.gauge_set("serve.open_conns_peak", v as f64);
        }
        true
    }

    pub(crate) fn dec(&self) {
        let v = self.open.fetch_sub(1, Ordering::AcqRel) - 1;
        self.metrics.gauge_set("serve.open_conns", v as f64);
    }
}

/// Everything routing and the reloader need, shared by the event loops
/// and the reloader.
pub(crate) struct ServiceCtx {
    pub(crate) slot: Arc<AppSlot>,
    pub(crate) metrics: Metrics,
    pub(crate) shutdown: Arc<ShutdownFlag>,
    /// Set for good once an event loop has died: `/healthz` answers
    /// `503 degraded`.
    pub(crate) degraded: AtomicBool,
    /// The reloader's one-slot queue.
    pub(crate) reload_tx: mpsc::SyncSender<ReloadJob>,
    pub(crate) max_body: usize,
    pub(crate) max_conns: usize,
    pub(crate) request_timeout: Option<Duration>,
    pub(crate) chaos_endpoints: bool,
    pub(crate) open_conns: ConnGauge,
}

impl ServiceCtx {
    /// The service state for `app` under `config`, plus the receiving
    /// end of the reloader's queue.
    fn new(config: &ServeConfig, app: App) -> (Arc<ServiceCtx>, mpsc::Receiver<ReloadJob>) {
        let slot = Arc::new(AppSlot::new(app));
        let metrics = slot.metrics().clone();
        metrics.gauge_set("serve.degraded", 0.0);
        // One reload runs (already taken off the queue) and one waits;
        // a third finds the slot full and is shed.
        let (reload_tx, reload_rx) = mpsc::sync_channel::<ReloadJob>(1);
        let svc = Arc::new(ServiceCtx {
            slot,
            metrics: metrics.clone(),
            shutdown: Arc::new(ShutdownFlag::new()),
            degraded: AtomicBool::new(false),
            reload_tx,
            max_body: config.max_body,
            max_conns: config.max_conns.max(1),
            request_timeout: (config.request_timeout > Duration::ZERO)
                .then_some(config.request_timeout),
            chaos_endpoints: config.chaos_endpoints,
            open_conns: ConnGauge::new(metrics),
        });
        (svc, reload_rx)
    }
}

/// A running service; dropping it without calling [`Server::shutdown`]
/// or [`Server::join`] detaches the threads.
pub struct Server {
    addr: SocketAddr,
    slot: Arc<AppSlot>,
    shutdown: Arc<ShutdownFlag>,
    /// The event loops, then the reloader (which exits after them).
    threads: Vec<JoinHandle<()>>,
}

/// Accept-queue length asked of the kernel, which caps it at
/// `net.core.somaxconn`. `TcpListener::bind` asks for 128: a burst of more
/// new connections than that overflows the queue, and each dropped SYN is
/// resent only after the client's 1 s retransmit timeout.
#[cfg(target_os = "linux")]
const LISTEN_BACKLOG: i32 = 4096;

/// Bind `addr` and widen the listener's accept queue to [`LISTEN_BACKLOG`].
#[cfg(target_os = "linux")]
fn bind_listener(addr: &str) -> std::io::Result<std::net::TcpListener> {
    use std::os::unix::io::AsRawFd;
    let listener = std::net::TcpListener::bind(addr)?;
    crate::sys::set_backlog(listener.as_raw_fd(), LISTEN_BACKLOG)?;
    Ok(listener)
}

impl Server {
    /// Bind, spawn the event loops and the reloader, and start serving
    /// `app`. Needs Linux: elsewhere this returns [`ServeError::Io`] with
    /// an `Unsupported` source.
    pub fn start(config: ServeConfig, app: App) -> Result<Server, ServeError> {
        #[cfg(not(target_os = "linux"))]
        {
            let _ = (config, app);
            Err(ServeError::Io {
                context: "cold-serve's transport needs Linux".to_owned(),
                source: std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "epoll syscalls unavailable on this platform",
                ),
            })
        }
        #[cfg(target_os = "linux")]
        {
            let io_err = |context: &str| {
                let context = context.to_owned();
                move |source| ServeError::Io { context, source }
            };
            let listener = bind_listener(&config.addr)
                .map_err(io_err(&format!("cannot bind {}", config.addr)))?;
            let addr = listener
                .local_addr()
                .map_err(io_err("cannot read bound address"))?;
            listener
                .set_nonblocking(true)
                .map_err(io_err("cannot set listener nonblocking"))?;
            let (svc, reload_rx) = ServiceCtx::new(&config, app);
            let io_threads = config.io_threads.max(1);
            svc.metrics.gauge_set("serve.io_threads", io_threads as f64);

            // Event loops first: they register their eventfds as shutdown
            // wakers and share the listener.
            let live_loops = Arc::new(AtomicUsize::new(io_threads));
            let mut threads = crate::epoll::spawn_loops(&svc, listener, io_threads, &live_loops)
                .map_err(io_err("cannot start epoll event loops"))?;

            // Capture the watch baseline before the reloader exists: a
            // freshly spawned thread can be scheduled arbitrarily late,
            // and an artifact replaced in that window would be mistaken
            // for the baseline and never reloaded.
            let watch = config
                .watch_model
                .map(|interval| Watch::new(interval, &svc.slot));
            let reloader = {
                let svc = Arc::clone(&svc);
                std::thread::Builder::new()
                    .name("cold-serve-reloader".into())
                    .spawn(move || reloader_loop(&svc, &reload_rx, &live_loops, watch))
                    .map_err(io_err("cannot spawn reloader thread"))?
            };
            threads.push(reloader);

            Ok(Server {
                addr,
                slot: Arc::clone(&svc.slot),
                shutdown: Arc::clone(&svc.shutdown),
                threads,
            })
        }
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving slot — current model generation, programmatic reload.
    pub fn app_slot(&self) -> &Arc<AppSlot> {
        &self.slot
    }

    /// Raise the shutdown flag and wait for every thread to finish its
    /// in-flight work and exit.
    pub fn shutdown(self) {
        self.shutdown.trigger();
        self.join();
    }

    /// Block until shutdown is triggered elsewhere (`POST /shutdown`, or
    /// the last event loop dying), then reap the threads.
    pub fn join(self) {
        for handle in self.threads {
            let _ = handle.join();
        }
    }
}

/// Shed one connection at accept time: count it, answer `503` +
/// `Retry-After` with a bounded write, close.
pub(crate) fn shed_conn(metrics: &Metrics, stream: &TcpStream) {
    metrics.counter_add("serve.shed", 1);
    metrics.counter_add("serve.shed_conns", 1);
    metrics.counter_add("serve.responses_503", 1);
    let _ = stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT));
    let _ = http::write_response(
        stream,
        503,
        JSON,
        shed_body("connection queue full").as_bytes(),
        false,
        Some(RETRY_AFTER_SECS),
    );
}

/// Change signature for the watch's cheap polling: `(mtime, len)` plus
/// the file's trailing 8 bytes. The tail matters: file mtimes come from
/// the kernel's coarse clock (one scheduler tick of granularity), and a
/// retrained same-shape artifact has the same byte length, so `(mtime,
/// len)` alone can read as unchanged when the file is replaced quickly.
/// For `cold-model/v1` the tail is the FNV-1a64 checksum footer — a true
/// content fingerprint.
type StatSig = (SystemTime, u64, [u8; 8]);

fn stat_sig(path: &str) -> Option<StatSig> {
    use std::io::{Read, Seek, SeekFrom};
    let mut file = std::fs::File::open(path).ok()?;
    let meta = file.metadata().ok()?;
    let mut tail = [0u8; 8];
    if meta.len() >= 8 {
        file.seek(SeekFrom::End(-8)).ok()?;
        file.read_exact(&mut tail).ok()?;
    }
    Some((meta.modified().ok()?, meta.len(), tail))
}

/// `--watch-model`: the reloader's artifact poll.
struct Watch {
    interval: Duration,
    /// When the next poll is due.
    due: Instant,
    last: Option<StatSig>,
    last_rejected: Option<StatSig>,
}

impl Watch {
    fn new(interval: Duration, slot: &AppSlot) -> Self {
        Self {
            interval,
            due: Instant::now() + interval,
            last: stat_sig(slot.current().model_path()),
            last_rejected: None,
        }
    }

    /// When the serving artifact changed, hot-reload it through
    /// [`AppSlot::reload`], which opens it once. A half-copied or corrupt
    /// file counts as a failed reload and is retried on the next change
    /// of its stat signature, never swapped in.
    fn poll(&mut self, slot: &AppSlot) {
        self.due = Instant::now() + self.interval;
        let now = stat_sig(slot.current().model_path());
        if now.is_none() || now == self.last || now == self.last_rejected {
            return;
        }
        match slot.reload(None) {
            Ok(_) => {
                slot.metrics().counter_add("serve.watch_reloads", 1);
                self.last = now;
                self.last_rejected = None;
            }
            Err(_) => self.last_rejected = now,
        }
    }
}

/// Run every reload, one at a time: `POST /reload` jobs as they arrive,
/// and (with `watch`) an artifact poll whenever one is due.
///
/// The event loops are the only producers and exit first at shutdown,
/// so the reloader leaves once shutdown is up, the last loop is gone,
/// and the queue has run dry.
fn reloader_loop(
    svc: &ServiceCtx,
    jobs: &mpsc::Receiver<ReloadJob>,
    live_loops: &AtomicUsize,
    mut watch: Option<Watch>,
) {
    loop {
        let wait = watch.as_ref().map_or(POLL_INTERVAL, |w| {
            w.due
                .saturating_duration_since(Instant::now())
                .min(POLL_INTERVAL)
        });
        match jobs.recv_timeout(wait) {
            Ok(job) => run_reload(svc, job),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if svc.shutdown.is_set() && live_loops.load(Ordering::Acquire) == 0 {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
        if let Some(w) = &mut watch {
            // A watch reload that panics is contained like a `/reload`:
            // the reloader must outlive it to serve the next one.
            if Instant::now() >= w.due
                && !svc.shutdown.is_set()
                && catch_unwind(AssertUnwindSafe(|| w.poll(&svc.slot))).is_err()
            {
                svc.metrics.counter_add("serve.worker_panics", 1);
            }
        }
    }
}

/// Answer one `/reload`, unless its client already got a 503: a job
/// that expired while it waited behind another reload is dead weight.
fn run_reload(svc: &ServiceCtx, job: ReloadJob) {
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        // The name predates the reloader; the benchmark reads it.
        svc.metrics.counter_add("serve.batch_expired", 1);
        return;
    }
    // Contain a panicking reload to its own request: the client gets a
    // 500, the reloader lives on.
    let routed = catch_unwind(AssertUnwindSafe(|| {
        match svc.slot.reload(job.path.as_deref()) {
            Ok(outcome) => Routed::new(
                RELOAD_SECONDS,
                200,
                JSON,
                format!(
                    "{{\"status\":\"reloaded\",\"generation\":{},\"model\":\"{}\",\"users\":{}}}",
                    outcome.generation,
                    http::json_escape(&outcome.model_path),
                    outcome.users,
                ),
            ),
            // Any failure leaves the old model serving.
            Err(msg) => Routed::error(RELOAD_SECONDS, 409, &msg),
        }
    }))
    .unwrap_or_else(|_| {
        svc.metrics.counter_add("serve.worker_panics", 1);
        Routed::error(
            RELOAD_SECONDS,
            500,
            "internal error; the request was aborted",
        )
    });
    job.reply.send(routed);
}

/// One routed response.
pub(crate) struct Routed {
    pub(crate) endpoint: &'static str,
    pub(crate) status: u16,
    pub(crate) content_type: &'static str,
    pub(crate) body: String,
    pub(crate) retry_after: Option<u64>,
}

impl Routed {
    fn new(endpoint: &'static str, status: u16, content_type: &'static str, body: String) -> Self {
        Self {
            endpoint,
            status,
            content_type,
            body,
            retry_after: None,
        }
    }

    /// A JSON `{"error": msg}` answer.
    pub(crate) fn error(endpoint: &'static str, status: u16, msg: &str) -> Self {
        let body = format!("{{\"error\":\"{}\"}}", http::json_escape(msg));
        Self::new(endpoint, status, JSON, body)
    }

    /// `503` + `Retry-After`: the server is overloaded, come back shortly.
    pub(crate) fn shed(endpoint: &'static str, what: &str) -> Self {
        let mut routed = Self::new(endpoint, 503, JSON, shed_body(what));
        routed.retry_after = Some(RETRY_AFTER_SECS);
        routed
    }
}

/// Map a response status onto its `serve.responses_*` counter.
pub(crate) fn count_status(metrics: &Metrics, status: u16) {
    match status {
        400 => metrics.counter_add("serve.responses_400", 1),
        404 | 405 => metrics.counter_add("serve.responses_404", 1),
        408 => metrics.counter_add("serve.responses_408", 1),
        409 => metrics.counter_add("serve.responses_409", 1),
        413 => metrics.counter_add("serve.responses_413", 1),
        500 => metrics.counter_add("serve.responses_500", 1),
        503 => metrics.counter_add("serve.responses_503", 1),
        _ => metrics.counter_add("serve.responses_200", 1),
    }
}

/// What routing decided.
pub(crate) enum RouteOutcome {
    /// Answer now.
    Ready(Routed),
    /// Hand `POST /reload` (with its optional new path) to the reloader;
    /// the loop answers when the reload completes.
    Reload(Option<String>),
    /// Chaos `POST /chaos/panic-loop`: the loop panics outside the
    /// per-request catch, so its thread dies.
    KillLoop,
}

/// Dispatch one request against the pinned `app`, on the event loop.
/// Everything but `/reload` is answered here.
pub(crate) fn route(ctx: &ServiceCtx, app: &App, request: &Request) -> RouteOutcome {
    let ready =
        |endpoint, (status, body)| RouteOutcome::Ready(Routed::new(endpoint, status, JSON, body));
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/predict") => match app.parse_predict(&request.body) {
            Ok((publisher, consumer, words)) => {
                let t0 = Instant::now();
                let score = app.predictor().diffusion_score(publisher, consumer, &words);
                ctx.metrics
                    .observe("serve.stage.score_seconds", t0.elapsed().as_secs_f64());
                ready(
                    PREDICT_SECONDS,
                    app.predict_response(publisher, consumer, score),
                )
            }
            Err(msg) => RouteOutcome::Ready(Routed::error(PREDICT_SECONDS, 400, &msg)),
        },
        ("POST", "/reload") => match App::parse_reload(&request.body) {
            Ok(path) => RouteOutcome::Reload(path),
            Err(msg) => RouteOutcome::Ready(Routed::error(RELOAD_SECONDS, 400, &msg)),
        },
        ("POST", "/rank-influencers") => {
            ready("serve.rank_seconds", app.rank_influencers(&request.body))
        }
        ("GET", path) if path.starts_with("/communities/") => {
            let segment = &path["/communities/".len()..];
            ready("serve.communities_seconds", app.communities(segment))
        }
        ("GET", "/healthz") => ready(
            "serve.healthz_seconds",
            app.healthz(ctx.slot.generation(), ctx.degraded.load(Ordering::Acquire)),
        ),
        ("GET", "/metrics") => RouteOutcome::Ready(Routed::new(
            "serve.metrics_seconds",
            200,
            "application/jsonl",
            ctx.metrics.snapshot().to_jsonl(),
        )),
        ("POST", "/shutdown") => {
            ctx.shutdown.trigger();
            ready(
                "serve.shutdown_seconds",
                (200, "{\"status\":\"shutting down\"}".to_owned()),
            )
        }
        ("POST", "/chaos/panic") if ctx.chaos_endpoints => {
            // Injected handler panic: must be contained by the loop's
            // catch_unwind, costing only this connection.
            panic!("chaos: injected handler panic");
        }
        ("POST", "/chaos/panic-loop") if ctx.chaos_endpoints => RouteOutcome::KillLoop,
        (
            _,
            "/predict" | "/rank-influencers" | "/healthz" | "/metrics" | "/reload" | "/shutdown",
        ) => RouteOutcome::Ready(Routed::error(
            "serve.other_seconds",
            405,
            "method not allowed",
        )),
        _ => RouteOutcome::Ready(Routed::error(
            "serve.other_seconds",
            404,
            "no such endpoint",
        )),
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use cold_core::{ColdConfig, GibbsSampler};
    use cold_graph::CsrGraph;
    use cold_text::CorpusBuilder;

    /// A burst of 200 connections that nobody accepts yet must all finish
    /// their handshakes: the accept queue holds more than std's default
    /// 128 (up to `net.core.somaxconn`, which caps the request).
    #[test]
    fn listener_queues_a_burst_beyond_the_default_backlog() {
        let listener = bind_listener("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let somaxconn = std::fs::read_to_string("/proc/sys/net/core/somaxconn")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(4096);
        let want = 200.min(somaxconn + 1);
        let mut open = Vec::with_capacity(want);
        for _ in 0..want {
            // A connect whose SYN was dropped would wait out the 1 s
            // retransmit; the short timeout turns that into a miss.
            match TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
                Ok(stream) => open.push(stream),
                Err(_) => break,
            }
        }
        assert_eq!(open.len(), want, "connects completed without an accept");
    }

    #[test]
    fn reloader_skips_expired_requests_and_answers_live_ones() {
        // A tiny two-block model, trained and opened the way `cold serve`
        // opens an artifact; the file stays for the reload to re-read.
        let mut b = CorpusBuilder::new();
        for u in 0..3u32 {
            b.push_text(u, 0, &["football", "goal", "match"]);
        }
        for u in 3..6u32 {
            b.push_text(u, 1, &["film", "oscar", "actor"]);
        }
        let corpus = b.build();
        let graph = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let config = ColdConfig::builder(2, 2)
            .iterations(10)
            .build(&corpus, &graph);
        let model = GibbsSampler::new(&corpus, &graph, config, 3).run();
        let dir = std::env::temp_dir().join(format!("cold_reloader_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.cold");
        model.save(&path).unwrap();
        let app = App::load(&path, 2, 4, None, Metrics::enabled()).unwrap();

        let (svc, reload_rx) = ServiceCtx::new(&ServeConfig::default(), app);
        let (sink, answered) = CompletionSink::detached();
        let reloader = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || reloader_loop(&svc, &reload_rx, &AtomicUsize::new(0), None))
        };
        // The first deadline is already due when the reloader takes it.
        // The second send waits until the first job left the slot.
        let job = |deadline, reply| ReloadJob {
            path: None,
            deadline,
            reply,
        };
        svc.reload_tx
            .send(job(Some(Instant::now()), sink(0)))
            .unwrap();
        svc.reload_tx.send(job(None, sink(1))).unwrap();
        // No loop ever ran, so none is live: with shutdown raised the
        // reloader drains the queue and returns.
        svc.shutdown.trigger();
        reloader.join().unwrap();

        // Expired: skipped and counted, never answered. Live: reloaded.
        let answers = answered();
        assert_eq!(answers.len(), 1, "only the live job is answered");
        let (conn, routed) = &answers[0];
        assert_eq!(*conn, 1);
        assert_eq!(routed.status, 200, "{}", routed.body);
        assert!(routed.body.contains("\"generation\":1"), "{}", routed.body);
        assert_eq!(svc.slot.generation(), 1);

        let snap = svc.metrics.snapshot();
        assert_eq!(snap.counter("serve.batch_expired"), 1);
        assert_eq!(snap.counter("serve.reloads_ok"), 1);
        assert_eq!(snap.counter("serve.worker_panics"), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
