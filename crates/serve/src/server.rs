//! The transport layer: listener, worker pool, scorer, supervisor,
//! shutdown.
//!
//! Two transports share this module's routing and accounting
//! ([`IoMode`]). Below is the default thread transport; the epoll
//! transport (`crate::epoll`, Linux) replaces the acceptor + pinned
//! workers with a few event loops over nonblocking connection state
//! machines and reuses the same scorer loop, shed policy, supervisor,
//! and status counters — the integration suites assert both modes keep
//! bit-identical metric accounting.
//!
//! ```text
//!                    ┌─────────┐  TcpStream   ┌──────────┐
//!   accept() loop ──▶│ bounded │─────────────▶│ worker 0 │──┐
//!    (sheds 503)     │ channel │              │   ...    │  │ PredictJob
//!                    └─────────┘              │ worker N │──┤ (bounded)
//!                                             └──────────┘  ▼
//!                                               ▲       ┌────────┐
//!                                    supervisor ┘       │ scorer │
//!                                  (respawns on panic)  └────────┘
//! ```
//!
//! * **Acceptor** — one thread on `accept()`; accepted connections go
//!   down a *bounded* channel (`max_conns`). When it is full the server
//!   is saturated: the acceptor sheds the connection immediately with
//!   `503` + `Retry-After` instead of buffering without bound — memory
//!   stays flat and well-behaved clients back off.
//! * **Workers** — a fixed pool; each pulls a connection and serves it to
//!   completion (keep-alive: many requests per connection). Per-connection
//!   handling runs under `catch_unwind`: a panicking handler costs that
//!   connection a `500`, never the worker. Each request runs against the
//!   app the [`AppSlot`] held at dispatch, and under a deadline
//!   ([`ServeConfig::request_timeout`]) spanning parse → score → reply.
//! * **Supervisor** — watches the pool and respawns workers whose panics
//!   escape the per-connection catch (`serve.worker_respawns`). A capped
//!   respawn breaker ([`ServeConfig::respawn_limit`]) stops a
//!   crash-loop: past the cap the pool is left shrunken and `/healthz`
//!   flips to `503 degraded` so load balancers route away.
//! * **Scorer** — one thread that takes `/predict` jobs off the bounded
//!   queue one at a time, scores each as soon as it takes it, and answers
//!   the job's reply channel. Jobs carry their dispatch-time `Arc<App>`,
//!   so a hot reload cannot change what a queued job scores against.
//! * **Watcher** (optional) — polls the serving artifact for changes
//!   (`--watch-model`) and triggers the same verified reload as
//!   `POST /reload`.
//! * **Shutdown** — `POST /shutdown` (or [`Server::shutdown`]) raises a
//!   flag; the acceptor is woken by a self-connection and stops; workers
//!   finish their in-flight request, answer with `connection: close`, and
//!   exit; the supervisor joins them; the scorer drains and exits when
//!   the last job sender hangs up.

use crate::app::{App, AppSlot, ServeError};
use crate::http::{self, ReadError, Request, RequestClock};
use cold_core::{ModelView, PredictError};
use cold_obs::Metrics;
use cold_text::WordId;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

/// Which transport carries connections to the compute pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoMode {
    /// Thread per in-flight connection: an acceptor feeds a bounded
    /// channel drained by `workers` threads, each owning one connection
    /// end to end. Portable, simple, and the measured baseline — but a
    /// keep-alive connection pins a thread even while idle, so
    /// concurrency is capped at the pool size.
    #[default]
    Threads,
    /// Readiness-driven event loops (Linux only): `io_threads` epoll
    /// loops own all sockets via nonblocking state machines and hand
    /// `/predict` work to `workers` scorer threads. Connections scale
    /// past the thread count; idle or slow sockets cost a buffer, not a
    /// thread.
    Epoll,
}

impl std::str::FromStr for IoMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "threads" | "thread" => Ok(IoMode::Threads),
            "epoll" => Ok(IoMode::Epoll),
            other => Err(format!(
                "unknown io mode {other:?} (expected \"threads\" or \"epoll\")"
            )),
        }
    }
}

impl std::fmt::Display for IoMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IoMode::Threads => "threads",
            IoMode::Epoll => "epoll",
        })
    }
}

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8391` (port 0 picks a free port).
    pub addr: String,
    /// Transport selection; see [`IoMode`].
    pub io_mode: IoMode,
    /// Event-loop threads in [`IoMode::Epoll`]; ignored by
    /// [`IoMode::Threads`].
    pub io_threads: usize,
    /// Scoring threads. In [`IoMode::Threads`] each also owns the
    /// connection it is serving (the concurrency bound); in
    /// [`IoMode::Epoll`] they form a pure CPU pool scoring `/predict`
    /// jobs.
    pub workers: usize,
    /// Request body cap in bytes (`413` beyond it).
    pub max_body: usize,
    /// Open-connection bound. In [`IoMode::Threads`] it bounds the
    /// accepted-but-unserved queue; in [`IoMode::Epoll`] it caps
    /// concurrently open connections. Beyond it, connections are shed
    /// with `503` + `Retry-After` (`serve.shed_conns`).
    pub max_conns: usize,
    /// Predict-job queue bound: jobs beyond this are shed with `503` +
    /// `Retry-After` (`serve.shed_jobs`).
    pub max_queue: usize,
    /// Per-request deadline covering parse → score → reply, armed by the
    /// request's first byte. `Duration::ZERO` disables it. A stalled
    /// upload gets `408`; a reply the scorers cannot produce in time gets
    /// `503` + `Retry-After`; response writes are bounded by the same
    /// budget via `set_write_timeout`.
    pub request_timeout: Duration,
    /// Respawn breaker: after this many worker respawns the supervisor
    /// stops replacing crashed workers and flips `/healthz` to
    /// `503 degraded` rather than crash-looping.
    pub respawn_limit: u32,
    /// Expose `POST /chaos/panic` and `POST /chaos/panic-worker`
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
            io_mode: IoMode::default(),
            io_threads: 2,
            workers: 8,
            max_body: 1024 * 1024,
            max_conns: 1024,
            max_queue: 1024,
            request_timeout: Duration::from_secs(10),
            respawn_limit: 8,
            chaos_endpoints: false,
            watch_model: None,
        }
    }
}

/// How often blocked reads wake up to check the shutdown flag; also the
/// epoll loops' timer-tick ceiling for deadline scans.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Write bound used when the request deadline is disabled, and for the
/// acceptor's shed responses (which must never block the accept loop).
pub(crate) const FALLBACK_WRITE_TIMEOUT: Duration = Duration::from_secs(10);
pub(crate) const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(250);

pub(crate) const JSON: &str = "application/json";
pub(crate) const RETRY_AFTER_SECS: u64 = 1;

pub(crate) fn shed_body(what: &str) -> String {
    format!("{{\"error\":\"server overloaded: {what}; retry shortly\"}}")
}

/// One queued `/predict` computation, pinned to the app that dispatched
/// it — a concurrent hot reload never changes what an in-flight job
/// scores against.
pub(crate) struct PredictJob {
    pub(crate) app: Arc<App>,
    pub(crate) publisher: u32,
    pub(crate) consumer: u32,
    pub(crate) words: Vec<WordId>,
    /// Request deadline; the scorer skips jobs that expired in-queue.
    pub(crate) deadline: Option<Instant>,
    /// When the job entered the queue (`serve.stage.queue_seconds`).
    pub(crate) enqueued: Instant,
    pub(crate) reply: ReplySink,
}

/// Where a scored `/predict` result goes back to.
pub(crate) enum ReplySink {
    /// Thread transport: the dispatching worker blocks on a rendezvous
    /// channel.
    Channel(mpsc::SyncSender<Result<f64, PredictError>>),
    /// Epoll transport: push onto the owning event loop's completion
    /// queue and ring its eventfd.
    #[cfg(target_os = "linux")]
    Loop(crate::epoll::CompletionSink),
}

impl ReplySink {
    fn send(self, result: Result<f64, PredictError>) {
        match self {
            ReplySink::Channel(tx) => {
                let _ = tx.send(result);
            }
            #[cfg(target_os = "linux")]
            ReplySink::Loop(sink) => sink.send(result),
        }
    }
}

/// Work for the scorer pool.
pub(crate) enum Job {
    Predict(PredictJob),
    /// Chaos `POST /chaos/panic-worker` under the epoll transport: the
    /// scorer that drains this panics *outside* its per-job catch, so
    /// the supervisor's respawn path is exercised with the same metric
    /// accounting as a thread-transport worker kill.
    Poison,
}

/// Shared shutdown signal; `trigger` is idempotent.
pub(crate) struct ShutdownFlag {
    pub(crate) flag: AtomicBool,
    addr: SocketAddr,
    /// Eventfds of running epoll loops; rung on trigger so a loop parked
    /// in `epoll_wait` notices shutdown immediately.
    #[cfg(target_os = "linux")]
    wakers: Mutex<Vec<Arc<crate::sys::EventFd>>>,
}

impl ShutdownFlag {
    fn new(addr: SocketAddr) -> Self {
        Self {
            flag: AtomicBool::new(false),
            addr,
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
            {
                let wakers = self.wakers.lock().unwrap_or_else(PoisonError::into_inner);
                if !wakers.is_empty() {
                    for w in wakers.iter() {
                        w.wake();
                    }
                    return;
                }
            }
            // Wake the acceptor out of its blocking accept().
            let _ = TcpStream::connect(self.addr);
        }
    }

    pub(crate) fn is_set(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Live open-connection accounting behind the `serve.open_conns` gauge
/// (with a monotonic `serve.open_conns_peak` high-water mark). Both
/// transports feed it; the epoll transport also uses the live count as
/// its `max_conns` shed bound.
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

    pub(crate) fn inc(&self) {
        let v = self.open.fetch_add(1, Ordering::AcqRel) + 1;
        self.metrics.gauge_set("serve.open_conns", v as f64);
        if v > self.peak.fetch_max(v, Ordering::AcqRel) {
            self.metrics.gauge_set("serve.open_conns_peak", v as f64);
        }
    }

    pub(crate) fn dec(&self) {
        let v = self.open.fetch_sub(1, Ordering::AcqRel) - 1;
        self.metrics.gauge_set("serve.open_conns", v as f64);
    }

    pub(crate) fn count(&self) -> i64 {
        self.open.load(Ordering::Acquire)
    }
}

/// Transport-agnostic service state: everything routing and scoring
/// need, shared by the thread workers and the epoll loops alike.
pub(crate) struct ServiceCtx {
    pub(crate) slot: Arc<AppSlot>,
    pub(crate) metrics: Metrics,
    pub(crate) shutdown: Arc<ShutdownFlag>,
    pub(crate) degraded: Arc<AtomicBool>,
    pub(crate) job_tx: mpsc::SyncSender<Job>,
    pub(crate) max_body: usize,
    pub(crate) max_conns: usize,
    pub(crate) request_timeout: Option<Duration>,
    pub(crate) chaos_endpoints: bool,
    pub(crate) open_conns: ConnGauge,
}

/// Everything a thread-transport worker (or its supervisor-spawned
/// replacement) needs: the shared service state plus the connection
/// queue.
struct WorkerCtx {
    svc: Arc<ServiceCtx>,
    conn_rx: Mutex<mpsc::Receiver<TcpStream>>,
}

/// A running service; dropping it without calling [`Server::shutdown`]
/// or [`Server::join`] detaches the threads.
pub struct Server {
    addr: SocketAddr,
    slot: Arc<AppSlot>,
    shutdown: Arc<ShutdownFlag>,
    acceptor: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    scorer: Option<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the transport and compute threads, and start serving
    /// `app` under the configured [`IoMode`].
    pub fn start(config: ServeConfig, app: App) -> Result<Server, ServeError> {
        match config.io_mode {
            IoMode::Threads => Self::start_threads(config, app),
            #[cfg(target_os = "linux")]
            IoMode::Epoll => Self::start_epoll(config, app),
            #[cfg(not(target_os = "linux"))]
            IoMode::Epoll => Err(ServeError::Io {
                context: "io-mode epoll is only available on Linux; use io-mode threads".to_owned(),
                source: std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "epoll syscalls unavailable on this platform",
                ),
            }),
        }
    }

    /// Bind and build the pieces both transports share: app slot,
    /// metrics, shutdown flag, job queue, service context.
    fn start_common(
        config: &ServeConfig,
        app: App,
    ) -> Result<
        (
            TcpListener,
            SocketAddr,
            Arc<ServiceCtx>,
            mpsc::Receiver<Job>,
        ),
        ServeError,
    > {
        let listener = TcpListener::bind(&config.addr).map_err(|source| ServeError::Io {
            context: format!("cannot bind {}", config.addr),
            source,
        })?;
        let addr = listener.local_addr().map_err(|source| ServeError::Io {
            context: "cannot read bound address".to_owned(),
            source,
        })?;
        let slot = Arc::new(AppSlot::new(app));
        let metrics = slot.metrics().clone();
        metrics.gauge_set("serve.workers", config.workers.max(1) as f64);
        metrics.gauge_set("serve.degraded", 0.0);
        let shutdown = Arc::new(ShutdownFlag::new(addr));
        let degraded = Arc::new(AtomicBool::new(false));
        // Bounded job queue: saturation shows up as fast sheds, not as
        // unbounded buffering.
        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(config.max_queue.max(1));
        let svc = Arc::new(ServiceCtx {
            slot,
            metrics: metrics.clone(),
            shutdown,
            degraded,
            job_tx,
            max_body: config.max_body,
            max_conns: config.max_conns.max(1),
            request_timeout: (config.request_timeout > Duration::ZERO)
                .then_some(config.request_timeout),
            chaos_endpoints: config.chaos_endpoints,
            open_conns: ConnGauge::new(metrics),
        });
        Ok((listener, addr, svc, job_rx))
    }

    fn spawn_watcher(
        svc: &Arc<ServiceCtx>,
        watch_model: Option<Duration>,
    ) -> Result<Option<JoinHandle<()>>, ServeError> {
        let Some(interval) = watch_model else {
            return Ok(None);
        };
        let slot = Arc::clone(&svc.slot);
        let shutdown = Arc::clone(&svc.shutdown);
        // Capture the baseline signature before the thread exists: a
        // freshly spawned thread can be scheduled arbitrarily late, and an
        // artifact replaced in that window would be mistaken for the
        // baseline and never reloaded.
        let baseline = stat_sig(slot.current().model_path());
        let handle = std::thread::Builder::new()
            .name("cold-serve-watcher".into())
            .spawn(move || watcher_loop(&slot, &shutdown, interval, baseline))
            .map_err(|source| ServeError::Io {
                context: "cannot spawn watcher thread".to_owned(),
                source,
            })?;
        Ok(Some(handle))
    }

    /// The thread-per-connection transport (the portable baseline).
    fn start_threads(config: ServeConfig, app: App) -> Result<Server, ServeError> {
        let (listener, addr, svc, job_rx) = Self::start_common(&config, app)?;

        // Bounded connection queue, drained by the worker pool.
        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(config.max_conns.max(1));

        let scorer = {
            let metrics = svc.metrics.clone();
            let job_rx = Mutex::new(job_rx);
            std::thread::Builder::new()
                .name("cold-serve-scorer".into())
                .spawn(move || scorer_loop(&metrics, &job_rx, None))
                .map_err(|source| ServeError::Io {
                    context: "cannot spawn scorer thread".to_owned(),
                    source,
                })?
        };

        let ctx = Arc::new(WorkerCtx {
            svc: Arc::clone(&svc),
            conn_rx: Mutex::new(conn_rx),
        });

        let worker_names = Arc::new(AtomicUsize::new(0));
        let mut workers = Vec::with_capacity(config.workers.max(1));
        for _ in 0..config.workers.max(1) {
            workers.push(
                spawn_worker(&ctx, &worker_names).map_err(|source| ServeError::Io {
                    context: "cannot spawn worker thread".to_owned(),
                    source,
                })?,
            );
        }

        let supervisor = {
            let svc = Arc::clone(&svc);
            let respawn_limit = config.respawn_limit;
            let respawn = {
                let ctx = Arc::clone(&ctx);
                let worker_names = Arc::clone(&worker_names);
                move || spawn_worker(&ctx, &worker_names)
            };
            std::thread::Builder::new()
                .name("cold-serve-supervisor".into())
                .spawn(move || supervisor_loop(&svc, workers, respawn_limit, respawn, Vec::new()))
                .map_err(|source| ServeError::Io {
                    context: "cannot spawn supervisor thread".to_owned(),
                    source,
                })?
        };

        let watcher = Self::spawn_watcher(&svc, config.watch_model)?;

        let acceptor = {
            let svc = Arc::clone(&svc);
            let write_timeout = if config.request_timeout > Duration::ZERO {
                config.request_timeout
            } else {
                FALLBACK_WRITE_TIMEOUT
            };
            std::thread::Builder::new()
                .name("cold-serve-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &svc, &conn_tx, write_timeout))
                .map_err(|source| ServeError::Io {
                    context: "cannot spawn acceptor thread".to_owned(),
                    source,
                })?
        };

        Ok(Server {
            addr,
            slot: Arc::clone(&svc.slot),
            shutdown: Arc::clone(&svc.shutdown),
            acceptor: Some(acceptor),
            supervisor: Some(supervisor),
            scorer: Some(scorer),
            watcher,
        })
    }

    /// The readiness-driven transport: epoll event loops own every
    /// socket; the worker pool becomes a pure scorer pool.
    #[cfg(target_os = "linux")]
    fn start_epoll(config: ServeConfig, app: App) -> Result<Server, ServeError> {
        let (listener, addr, svc, job_rx) = Self::start_common(&config, app)?;
        listener
            .set_nonblocking(true)
            .map_err(|source| ServeError::Io {
                context: "cannot set listener nonblocking".to_owned(),
                source,
            })?;
        let io_threads = config.io_threads.max(1);
        svc.metrics.gauge_set("serve.io_threads", io_threads as f64);

        // Event loops first: they register their eventfds as shutdown
        // wakers and own the listener.
        let live_loops = Arc::new(AtomicUsize::new(io_threads));
        let loop_handles = crate::epoll::spawn_loops(&svc, listener, io_threads, &live_loops)
            .map_err(|source| ServeError::Io {
                context: "cannot start epoll event loops".to_owned(),
                source,
            })?;

        // Scorer pool: `workers` threads taking jobs off the shared
        // queue, each respawnable by the supervisor under the same
        // breaker as the thread transport's workers.
        let job_rx = Arc::new(Mutex::new(job_rx));
        let scorer_names = Arc::new(AtomicUsize::new(0));
        let spawn_scorer = {
            let metrics = svc.metrics.clone();
            let shutdown = Arc::clone(&svc.shutdown);
            let live_loops = Arc::clone(&live_loops);
            move || -> std::io::Result<JoinHandle<()>> {
                let id = scorer_names.fetch_add(1, Ordering::Relaxed);
                let metrics = metrics.clone();
                let job_rx = Arc::clone(&job_rx);
                let shutdown = Arc::clone(&shutdown);
                let live_loops = Arc::clone(&live_loops);
                std::thread::Builder::new()
                    .name(format!("cold-serve-scorer-{id}"))
                    .spawn(move || scorer_loop(&metrics, &job_rx, Some((&shutdown, &live_loops))))
            }
        };
        let mut scorers = Vec::with_capacity(config.workers.max(1));
        for _ in 0..config.workers.max(1) {
            scorers.push(spawn_scorer().map_err(|source| ServeError::Io {
                context: "cannot spawn scorer thread".to_owned(),
                source,
            })?);
        }

        let supervisor = {
            let svc = Arc::clone(&svc);
            let respawn_limit = config.respawn_limit;
            std::thread::Builder::new()
                .name("cold-serve-supervisor".into())
                .spawn(move || {
                    supervisor_loop(&svc, scorers, respawn_limit, spawn_scorer, loop_handles)
                })
                .map_err(|source| ServeError::Io {
                    context: "cannot spawn supervisor thread".to_owned(),
                    source,
                })?
        };

        let watcher = Self::spawn_watcher(&svc, config.watch_model)?;

        Ok(Server {
            addr,
            slot: Arc::clone(&svc.slot),
            shutdown: Arc::clone(&svc.shutdown),
            acceptor: None,
            supervisor: Some(supervisor),
            scorer: None,
            watcher,
        })
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
    pub fn shutdown(mut self) {
        self.shutdown.trigger();
        self.join_threads();
    }

    /// Block until shutdown is triggered elsewhere (`POST /shutdown`),
    /// then reap the threads.
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // The supervisor joins every worker (original or respawned).
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.watcher.take() {
            let _ = h.join();
        }
        if let Some(h) = self.scorer.take() {
            let _ = h.join();
        }
    }
}

fn spawn_worker(ctx: &Arc<WorkerCtx>, names: &AtomicUsize) -> std::io::Result<JoinHandle<()>> {
    let id = names.fetch_add(1, Ordering::Relaxed);
    let ctx = Arc::clone(ctx);
    std::thread::Builder::new()
        .name(format!("cold-serve-worker-{id}"))
        .spawn(move || worker_loop(&ctx))
}

fn acceptor_loop(
    listener: &TcpListener,
    svc: &ServiceCtx,
    conn_tx: &mpsc::SyncSender<TcpStream>,
    write_timeout: Duration,
) {
    let metrics = &svc.metrics;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if svc.shutdown.is_set() {
                    // The wake-up connection (or a straggler): drop it.
                    return;
                }
                metrics.counter_add("serve.connections_total", 1);
                let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
                let _ = stream.set_write_timeout(Some(write_timeout));
                let _ = stream.set_nodelay(true);
                match conn_tx.try_send(stream) {
                    Ok(()) => svc.open_conns.inc(),
                    Err(mpsc::TrySendError::Full(stream)) => {
                        // Saturated: shed now, with a bounded write so a
                        // dead peer cannot stall the accept loop.
                        shed_conn(metrics, &stream);
                    }
                    Err(mpsc::TrySendError::Disconnected(_)) => return,
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                if svc.shutdown.is_set() {
                    return;
                }
            }
        }
    }
}

/// Shed one connection at accept time: count it, answer `503` +
/// `Retry-After` with a bounded write, close. Shared by both transports.
pub(crate) fn shed_conn(metrics: &Metrics, stream: &TcpStream) {
    metrics.counter_add("serve.shed", 1);
    metrics.counter_add("serve.shed_conns", 1);
    metrics.counter_add("serve.responses_503", 1);
    let _ = stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT));
    let _ = http::write_response_ext(
        stream,
        503,
        JSON,
        shed_body("connection queue full").as_bytes(),
        false,
        Some(RETRY_AFTER_SECS),
    );
}

/// Watch every worker (thread transport: connection workers; epoll
/// transport: scorers) and replace the ones whose panics escape the
/// per-connection / per-job catch. The breaker caps total respawns: past
/// `respawn_limit` the pool stays shrunken and `/healthz` goes degraded —
/// a persistently crashing handler must not turn into a crash-loop.
///
/// `io_loops` (epoll transport) are watched but never respawned: an
/// event loop carries live connection state that cannot be rebuilt, so a
/// loop death flips straight to degraded. At shutdown the loops are
/// joined first — the scorers only exit once the last loop (job
/// producer) is gone and the queue has drained.
fn supervisor_loop(
    svc: &ServiceCtx,
    mut workers: Vec<JoinHandle<()>>,
    respawn_limit: u32,
    respawn: impl Fn() -> std::io::Result<JoinHandle<()>>,
    mut io_loops: Vec<JoinHandle<()>>,
) {
    let mut respawns = 0u32;
    loop {
        let mut i = 0;
        while i < workers.len() {
            if !workers[i].is_finished() {
                i += 1;
                continue;
            }
            let panicked = workers.swap_remove(i).join().is_err();
            if svc.shutdown.is_set() || !panicked {
                // Clean exits (drain, or channel teardown) need no action.
                continue;
            }
            // A panic that escaped the per-connection / per-job catch
            // killed the whole thread (chaos worker-kill, or a bug in
            // the loop itself).
            svc.metrics.counter_add("serve.worker_panics", 1);
            if respawns >= respawn_limit {
                if !svc.degraded.swap(true, Ordering::AcqRel) {
                    svc.metrics.gauge_set("serve.degraded", 1.0);
                }
            } else if let Ok(handle) = respawn() {
                respawns += 1;
                svc.metrics.counter_add("serve.worker_respawns", 1);
                workers.push(handle);
            }
            svc.metrics.gauge_set("serve.workers", workers.len() as f64);
        }
        let mut i = 0;
        while i < io_loops.len() {
            if !io_loops[i].is_finished() {
                i += 1;
                continue;
            }
            let panicked = io_loops.swap_remove(i).join().is_err();
            if panicked && !svc.shutdown.is_set() {
                svc.metrics.counter_add("serve.io_loop_panics", 1);
                if !svc.degraded.swap(true, Ordering::AcqRel) {
                    svc.metrics.gauge_set("serve.degraded", 1.0);
                }
            }
        }
        if svc.shutdown.is_set() {
            for handle in io_loops {
                let _ = handle.join();
            }
            for handle in workers {
                let _ = handle.join();
            }
            return;
        }
        std::thread::sleep(POLL_INTERVAL);
    }
}

/// Poll the serving artifact; when the file changes, re-verify and
/// hot-reload it through the [`AppSlot`]. A half-copied or corrupt file
/// is retried on the next change of its stat signature, never swapped in.
/// Change signature for the watcher's cheap polling: `(mtime, len)` plus
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

fn watcher_loop(
    slot: &AppSlot,
    shutdown: &ShutdownFlag,
    interval: Duration,
    baseline: Option<StatSig>,
) {
    let metrics = slot.metrics().clone();
    let mut last = baseline;
    let mut last_rejected: Option<StatSig> = None;
    loop {
        // Sleep `interval` in short slices so shutdown stays responsive.
        let mut slept = Duration::ZERO;
        while slept < interval {
            if shutdown.is_set() {
                return;
            }
            let step = POLL_INTERVAL.min(interval - slept);
            std::thread::sleep(step);
            slept += step;
        }
        if shutdown.is_set() {
            return;
        }
        let path = slot.current().model_path().to_owned();
        let now = stat_sig(&path);
        if now.is_none() || now == last || now == last_rejected {
            continue;
        }
        // Cheap verification first: a copy still in flight fails the
        // checksum and is retried once its stat signature changes again.
        match ModelView::verify_file(&path) {
            Ok(_) => match slot.reload(None) {
                Ok(outcome) => {
                    metrics.counter_add("serve.watch_reloads", 1);
                    last = now;
                    last_rejected = None;
                    let _ = outcome;
                }
                Err(_) => last_rejected = now,
            },
            Err(_) => last_rejected = now,
        }
    }
}

fn worker_loop(ctx: &WorkerCtx) {
    let svc = &*ctx.svc;
    loop {
        // Hold the lock only long enough to poll; holding it across a
        // blocking recv() would serialize the pool on one mutex. A
        // poisoned mutex just means some worker panicked while holding
        // it — the receiver inside is still sound, so recover instead of
        // cascading the panic through the whole pool.
        let next = {
            let rx = ctx.conn_rx.lock().unwrap_or_else(PoisonError::into_inner);
            rx.recv_timeout(POLL_INTERVAL)
        };
        match next {
            Ok(stream) => {
                let outcome = catch_unwind(AssertUnwindSafe(|| serve_connection(svc, &stream)));
                svc.open_conns.dec();
                match outcome {
                    Ok(ConnOutcome::Done) => {}
                    Ok(ConnOutcome::KillWorker) => {
                        // Chaos hook: die *outside* the catch so the
                        // supervisor's respawn path gets exercised.
                        panic!("chaos: injected worker kill");
                    }
                    Err(_) => {
                        // The handler panicked: this connection is lost,
                        // the worker is not.
                        svc.metrics.counter_add("serve.worker_panics", 1);
                        svc.metrics.counter_add("serve.responses_500", 1);
                        let _ = http::write_response(
                            &stream,
                            500,
                            JSON,
                            b"{\"error\":\"internal error; the request was aborted\"}",
                            false,
                        );
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if svc.shutdown.is_set() {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// What serving a connection asks of the worker afterwards.
enum ConnOutcome {
    Done,
    /// Chaos `POST /chaos/panic-worker`: panic outside the catch.
    KillWorker,
}

/// One routed response, plus its transport side effects.
pub(crate) struct Routed {
    pub(crate) endpoint: &'static str,
    pub(crate) status: u16,
    pub(crate) content_type: &'static str,
    pub(crate) body: String,
    pub(crate) retry_after: Option<u64>,
    pub(crate) close: bool,
    pub(crate) kill_worker: bool,
}

impl Routed {
    fn new(endpoint: &'static str, status: u16, content_type: &'static str, body: String) -> Self {
        Self {
            endpoint,
            status,
            content_type,
            body,
            retry_after: None,
            close: false,
            kill_worker: false,
        }
    }
}

/// Map a response status onto its `serve.responses_*` counter. Both
/// transports report through this, which is what keeps their metric
/// accounting bit-identical.
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

/// Serve one connection until it closes, errors, times out, or shutdown.
fn serve_connection(ctx: &ServiceCtx, stream: &TcpStream) -> ConnOutcome {
    let metrics = &ctx.metrics;
    let mut reader = BufReader::new(stream);
    loop {
        // A fresh deadline per request: idle keep-alive time is free, but
        // once the first byte lands the whole parse → score → reply span
        // runs on the clock.
        let mut clock = RequestClock::new(ctx.request_timeout);
        let request =
            match http::read_request(&mut reader, ctx.max_body, &ctx.shutdown.flag, &mut clock) {
                Ok(r) => r,
                Err(ReadError::Closed) => return ConnOutcome::Done,
                Err(ReadError::TimedOut) => {
                    metrics.counter_add("serve.request_timeouts", 1);
                    metrics.counter_add("serve.responses_408", 1);
                    let _ = http::write_response(
                        stream,
                        408,
                        JSON,
                        b"{\"error\":\"request not completed within the deadline\"}",
                        false,
                    );
                    return ConnOutcome::Done;
                }
                Err(ReadError::BadRequest(msg)) => {
                    metrics.counter_add("serve.responses_400", 1);
                    let body = format!("{{\"error\":\"{}\"}}", http::json_escape(&msg));
                    let _ = http::write_response(stream, 400, JSON, body.as_bytes(), false);
                    return ConnOutcome::Done;
                }
                Err(ReadError::BodyTooLarge { declared, limit }) => {
                    metrics.counter_add("serve.responses_413", 1);
                    let body = format!(
                        "{{\"error\":\"body of {declared} bytes exceeds the {limit}-byte limit\"}}"
                    );
                    let _ = http::write_response(stream, 413, JSON, body.as_bytes(), false);
                    return ConnOutcome::Done;
                }
                Err(ReadError::Io(_)) => return ConnOutcome::Done,
            };
        metrics.counter_add("serve.requests_total", 1);

        // Pin the serving app for this request: a concurrent hot reload
        // swaps the slot, not anything this request can observe.
        let app = ctx.slot.current();

        let t0 = Instant::now();
        let routed = route(ctx, &app, &request, &clock);
        metrics.observe(routed.endpoint, t0.elapsed().as_secs_f64());
        count_status(metrics, routed.status);

        // Once shutdown is underway, answer but stop keeping alive.
        let keep_alive =
            request.keep_alive && !routed.close && !routed.kill_worker && !ctx.shutdown.is_set();
        if let Err(e) = http::write_response_ext(
            stream,
            routed.status,
            routed.content_type,
            routed.body.as_bytes(),
            keep_alive,
            routed.retry_after,
        ) {
            // A peer that stopped reading hits the socket write timeout;
            // dropping the connection here is the slowloris-write
            // equivalent of the read-side poll discipline.
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                metrics.counter_add("serve.write_timeouts", 1);
            }
            return ConnOutcome::Done;
        }
        if routed.kill_worker {
            return ConnOutcome::KillWorker;
        }
        if !keep_alive {
            return ConnOutcome::Done;
        }
    }
}

/// What routing decided, for transports that score asynchronously.
pub(crate) enum RouteOutcome {
    /// Answer now.
    Ready(Routed),
    /// A parseable `POST /predict`: hand it to the scorer pool however
    /// the transport likes.
    Predict {
        publisher: u32,
        consumer: u32,
        words: Vec<WordId>,
    },
}

/// Dispatch one request against the pinned `app`, stopping short of the
/// scoring rendezvous — the transport decides how to wait for a score.
pub(crate) fn route_async(ctx: &ServiceCtx, app: &Arc<App>, request: &Request) -> RouteOutcome {
    if request.method == "POST" && request.path == "/predict" {
        return match app.parse_predict(&request.body) {
            Ok((publisher, consumer, words)) => RouteOutcome::Predict {
                publisher,
                consumer,
                words,
            },
            Err(msg) => RouteOutcome::Ready(Routed::new(
                "serve.predict_seconds",
                400,
                JSON,
                format!("{{\"error\":\"{}\"}}", http::json_escape(&msg)),
            )),
        };
    }
    RouteOutcome::Ready(route_inline(ctx, app, request))
}

/// Dispatch one request against the pinned `app` (blocking transport).
fn route(ctx: &ServiceCtx, app: &Arc<App>, request: &Request, clock: &RequestClock) -> Routed {
    match route_async(ctx, app, request) {
        RouteOutcome::Ready(routed) => routed,
        RouteOutcome::Predict {
            publisher,
            consumer,
            words,
        } => predict(ctx, app, clock, publisher, consumer, words),
    }
}

/// Every endpoint except `/predict` — answered inline on whichever
/// thread routed it.
fn route_inline(ctx: &ServiceCtx, app: &Arc<App>, request: &Request) -> Routed {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/rank-influencers") => {
            let (status, body) = app.rank_influencers(&request.body);
            Routed::new("serve.rank_seconds", status, JSON, body)
        }
        ("GET", path) if path.starts_with("/communities/") => {
            let segment = &path["/communities/".len()..];
            let (status, body) = app.communities(segment);
            Routed::new("serve.communities_seconds", status, JSON, body)
        }
        ("GET", "/healthz") => {
            let (status, body) =
                app.healthz(ctx.slot.generation(), ctx.degraded.load(Ordering::Acquire));
            Routed::new("serve.healthz_seconds", status, JSON, body)
        }
        ("GET", "/metrics") => Routed::new(
            "serve.metrics_seconds",
            200,
            "application/jsonl",
            ctx.metrics.snapshot().to_jsonl(),
        ),
        ("POST", "/reload") => reload(ctx, request),
        ("POST", "/shutdown") => {
            ctx.shutdown.trigger();
            Routed::new(
                "serve.shutdown_seconds",
                200,
                JSON,
                "{\"status\":\"shutting down\"}".to_owned(),
            )
        }
        ("POST", "/chaos/panic") if ctx.chaos_endpoints => {
            // Injected handler panic: must be contained by the worker's
            // catch_unwind, costing only this connection.
            panic!("chaos: injected handler panic");
        }
        ("POST", "/chaos/panic-worker") if ctx.chaos_endpoints => {
            // Answer first, then die outside the catch (the worker loop
            // panics after the response is on the wire) so the
            // supervisor's respawn path is exercised end to end.
            let mut routed = Routed::new(
                "serve.chaos_seconds",
                200,
                JSON,
                "{\"status\":\"worker will panic\"}".to_owned(),
            );
            routed.close = true;
            routed.kill_worker = true;
            routed
        }
        (
            _,
            "/predict" | "/rank-influencers" | "/healthz" | "/metrics" | "/reload" | "/shutdown",
        ) => Routed::new(
            "serve.other_seconds",
            405,
            JSON,
            "{\"error\":\"method not allowed\"}".to_owned(),
        ),
        _ => Routed::new(
            "serve.other_seconds",
            404,
            JSON,
            "{\"error\":\"no such endpoint\"}".to_owned(),
        ),
    }
}

/// `POST /reload` — verify and swap in a new artifact; any failure leaves
/// the old model serving and reports `409`.
fn reload(ctx: &ServiceCtx, request: &Request) -> Routed {
    let path = match App::parse_reload(&request.body) {
        Ok(p) => p,
        Err(msg) => {
            return Routed::new(
                "serve.reload_endpoint_seconds",
                400,
                JSON,
                format!("{{\"error\":\"{}\"}}", http::json_escape(&msg)),
            )
        }
    };
    match ctx.slot.reload(path.as_deref()) {
        Ok(outcome) => Routed::new(
            "serve.reload_endpoint_seconds",
            200,
            JSON,
            format!(
                "{{\"status\":\"reloaded\",\"generation\":{},\"model\":\"{}\",\"users\":{}}}",
                outcome.generation,
                http::json_escape(&outcome.model_path),
                outcome.users,
            ),
        ),
        Err(msg) => Routed::new(
            "serve.reload_endpoint_seconds",
            409,
            JSON,
            format!("{{\"error\":\"{}\"}}", http::json_escape(&msg)),
        ),
    }
}

/// Enqueue on the scorer pool (bounded) and block for the score
/// (bounded) — the thread transport's `/predict` rendezvous.
fn predict(
    ctx: &ServiceCtx,
    app: &Arc<App>,
    clock: &RequestClock,
    publisher: u32,
    consumer: u32,
    words: Vec<WordId>,
) -> Routed {
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    let deadline = clock.deadline();
    let job = Job::Predict(PredictJob {
        app: Arc::clone(app),
        publisher,
        consumer,
        words,
        deadline,
        enqueued: Instant::now(),
        reply: ReplySink::Channel(reply_tx),
    });
    match ctx.job_tx.try_send(job) {
        Ok(()) => {}
        Err(mpsc::TrySendError::Full(_)) => {
            ctx.metrics.counter_add("serve.shed", 1);
            ctx.metrics.counter_add("serve.shed_jobs", 1);
            let mut routed = Routed::new(
                "serve.predict_seconds",
                503,
                JSON,
                shed_body("predict queue full"),
            );
            routed.retry_after = Some(RETRY_AFTER_SECS);
            return routed;
        }
        Err(mpsc::TrySendError::Disconnected(_)) => {
            return Routed::new(
                "serve.predict_seconds",
                503,
                JSON,
                "{\"error\":\"scoring queue is gone\"}".to_owned(),
            )
        }
    }
    // Wait no longer than the request deadline allows: a stalled scorer
    // becomes a clean 503, never a hung client slot.
    let wait = clock.remaining().unwrap_or(Duration::from_secs(3600));
    match reply_rx.recv_timeout(wait) {
        Ok(result) => {
            let (status, body) = app.predict_response(publisher, consumer, result);
            Routed::new("serve.predict_seconds", status, JSON, body)
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            ctx.metrics.counter_add("serve.request_timeouts", 1);
            let mut routed = Routed::new(
                "serve.predict_seconds",
                503,
                JSON,
                shed_body("scoring missed the request deadline"),
            );
            routed.retry_after = Some(RETRY_AFTER_SECS);
            routed
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => Routed::new(
            "serve.predict_seconds",
            503,
            JSON,
            "{\"error\":\"scoring queue is gone\"}".to_owned(),
        ),
    }
}

/// Take jobs off the queue one at a time and score each as soon as it is
/// taken, against the app it was dispatched with. One body serves both
/// transports: the thread transport runs a single instance, the epoll
/// transport runs `workers` instances contending on the shared receiver.
///
/// Exit discipline differs by transport. The thread transport's scorer
/// exits only when every job sender hangs up (`Disconnected`): workers
/// still submit jobs while draining in-flight requests, so shutdown
/// alone must not stop scoring. The epoll transport's scorers pass
/// `drain_exit`: the event loops are the only producers and exit first,
/// so a scorer leaves once shutdown is up, the last loop is gone, and
/// the queue has run dry.
fn scorer_loop(
    metrics: &Metrics,
    job_rx: &Mutex<mpsc::Receiver<Job>>,
    drain_exit: Option<(&ShutdownFlag, &AtomicUsize)>,
) {
    loop {
        // The lock is held only while waiting for the next job; scoring
        // runs outside it, so another scorer can take the job behind.
        let next = job_rx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv_timeout(POLL_INTERVAL);
        let job = match next {
            Ok(Job::Predict(job)) => job,
            // Chaos worker-kill under the epoll transport: die *outside*
            // the per-job catch so the supervisor respawn path runs.
            Ok(Job::Poison) => panic!("chaos: injected worker kill"),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if let Some((shutdown, live_loops)) = drain_exit {
                    if shutdown.is_set() && live_loops.load(Ordering::Acquire) == 0 {
                        return;
                    }
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        let taken = Instant::now();
        metrics.observe(
            "serve.stage.queue_seconds",
            taken.saturating_duration_since(job.enqueued).as_secs_f64(),
        );
        // A job that expired while queued is dead weight: its client
        // already got a 503, so scoring it would only delay live jobs
        // further. Dropping the reply sink unblocks any straggler
        // receiver.
        if job.deadline.is_some_and(|d| taken >= d) {
            metrics.counter_add("serve.batch_expired", 1);
            continue;
        }
        // Contain scoring panics to the one job: the reply sink drops,
        // its client gets a 503, and the scorer lives on.
        let result = catch_unwind(AssertUnwindSafe(|| {
            job.app
                .predictor()
                .diffusion_score(job.publisher, job.consumer, &job.words)
        }));
        metrics.observe("serve.stage.score_seconds", taken.elapsed().as_secs_f64());
        match result {
            Ok(score) => job.reply.send(score),
            Err(_) => metrics.counter_add("serve.worker_panics", 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cold_core::{ColdConfig, GibbsSampler, ModelFormat};
    use cold_graph::CsrGraph;
    use cold_text::CorpusBuilder;

    /// A tiny two-block model, trained and opened the way `cold serve`
    /// opens an artifact.
    fn tiny_app(metrics: Metrics) -> Arc<App> {
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
        let dir = std::env::temp_dir().join(format!("cold_scorer_loop_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.cold");
        model.save_as(&path, ModelFormat::Binary).unwrap();
        let app = App::load(&path, 2, 4, None, metrics).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        Arc::new(app)
    }

    #[test]
    fn scorer_skips_expired_answers_live_and_dies_on_poison_last() {
        let metrics = Metrics::enabled();
        let app = tiny_app(metrics.clone());
        let job = |deadline, reply| {
            Job::Predict(PredictJob {
                app: Arc::clone(&app),
                publisher: 0,
                consumer: 1,
                words: vec![0, 1],
                deadline,
                enqueued: Instant::now(),
                reply: ReplySink::Channel(reply),
            })
        };
        let (job_tx, job_rx) = mpsc::sync_channel(4);
        let (expired_tx, expired_rx) = mpsc::sync_channel(1);
        let (live_tx, live_rx) = mpsc::sync_channel(1);
        // The deadline is already due by the time the scorer takes the job.
        job_tx.send(job(Some(Instant::now()), expired_tx)).unwrap();
        job_tx.send(job(None, live_tx)).unwrap();
        job_tx.send(Job::Poison).unwrap();
        // With every sender gone, a scorer that ignored the poison would
        // return instead of hanging the test.
        drop(job_tx);

        let scorer = {
            let metrics = metrics.clone();
            std::thread::spawn(move || scorer_loop(&metrics, &Mutex::new(job_rx), None))
        };
        let panic = scorer.join().expect_err("the poison kills the scorer");
        assert_eq!(
            panic.downcast_ref::<&str>(),
            Some(&"chaos: injected worker kill")
        );

        // Expired: skipped, counted, its reply sink dropped unanswered.
        assert!(matches!(
            expired_rx.try_recv(),
            Err(mpsc::TryRecvError::Disconnected)
        ));
        // Live: answered before the poison, bit-identical to the predictor.
        let want = app.predictor().diffusion_score(0, 1, &[0, 1]).unwrap();
        let got = live_rx.try_recv().unwrap().unwrap();
        assert_eq!(got.to_bits(), want.to_bits());

        let snap = metrics.snapshot();
        assert_eq!(snap.counter("serve.batch_expired"), 1);
        assert_eq!(snap.counter("serve.worker_panics"), 0);
        let count = |name| snap.histogram(name).map_or(0, |h| h.count);
        assert_eq!(count("serve.stage.queue_seconds"), 2);
        assert_eq!(count("serve.stage.score_seconds"), 1);
    }
}
