//! The service around the sockets: configuration, routing, the scorer
//! pool, the supervisor, the artifact watcher, and shutdown. The sockets
//! themselves belong to the epoll event loops in `crate::epoll` (Linux
//! only; elsewhere [`Server::start`] returns an `Unsupported` error).
//!
//! ```text
//!                    ┌──────────────┐   Job (bounded)   ┌──────────┐
//!   listener ───────▶│ io loop 0..N │──────────────────▶│ scorer 0 │
//!   (sheds 503)      │   (epoll)    │◀── Completion ────│   ...    │
//!                    └──────────────┘     + eventfd     │ scorer N │
//!                                                       └──────────┘
//!                              supervisor: respawns scorers on panic
//! ```
//!
//! * **Event loops** — `io_threads` loops own every connection as a
//!   nonblocking state machine. They shed connections beyond `max_conns`
//!   at accept with `503` + `Retry-After`, parse, answer the cheap
//!   endpoints inline, and queue the slow ones on the scorer pool. A
//!   panicking handler costs its connection a `500`, never the loop.
//!   Each request runs against the app the [`AppSlot`] held at dispatch,
//!   and under a deadline ([`ServeConfig::request_timeout`]) spanning
//!   parse → score → reply.
//! * **Scorers** — `workers` threads take [`Job`]s off the bounded queue
//!   (`max_queue`), run each as soon as they take it, and post the
//!   finished response back to the owning loop. A `/predict` job carries
//!   its dispatch-time `Arc<App>`, so a hot reload cannot change what a
//!   queued job scores against. `POST /reload` runs here too: loading an
//!   artifact takes long enough (about 0.2 s for a million users) that
//!   running it on a loop would stall every connection that loop owns.
//! * **Supervisor** — respawns scorers whose panics escape the per-job
//!   catch. A capped respawn breaker ([`ServeConfig::respawn_limit`])
//!   stops a crash-loop: past the cap the pool is left shrunken and
//!   `/healthz` flips to `503 degraded` so load balancers route away.
//! * **Watcher** (optional) — polls the serving artifact for changes
//!   (`--watch-model`) and triggers the same verified reload as
//!   `POST /reload`.
//! * **Shutdown** — `POST /shutdown` (or [`Server::shutdown`]) raises a
//!   flag and rings every loop's eventfd. The loops stop accepting, close
//!   idle connections, answer what is in flight, and exit; the scorers
//!   drain the queue and exit once the last loop is gone; the supervisor
//!   joins them all.
#![cfg_attr(not(target_os = "linux"), allow(dead_code))]

use crate::app::{App, AppSlot, ServeError};
use crate::http::{self, Request};
use cold_core::ModelView;
use cold_obs::Metrics;
use cold_text::WordId;
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

#[cfg(target_os = "linux")]
pub(crate) use crate::epoll::CompletionSink;

/// Without the epoll transport no connection exists to answer, so no job
/// is ever created.
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
    /// Event-loop threads; each owns a round-robin share of the open
    /// connections.
    pub io_threads: usize,
    /// Scorer threads: a CPU pool running `/predict` and `/reload` jobs.
    pub workers: usize,
    /// Request body cap in bytes (`413` beyond it).
    pub max_body: usize,
    /// Cap on concurrently open connections. Beyond it, connections are
    /// shed at accept with `503` + `Retry-After` (`serve.shed_conns`).
    pub max_conns: usize,
    /// Job queue bound: `/predict` and `/reload` jobs beyond it are shed
    /// with `503` + `Retry-After` (`serve.shed_jobs`).
    pub max_queue: usize,
    /// Per-request deadline covering parse → score → reply, armed by the
    /// request's first byte. `Duration::ZERO` disables it. A stalled
    /// upload gets `408`; a job the scorers cannot finish in time gets
    /// `503` + `Retry-After`; a peer that stops reading its response is
    /// closed once the same budget runs out.
    pub request_timeout: Duration,
    /// Respawn breaker: after this many scorer respawns the supervisor
    /// stops replacing crashed scorers and flips `/healthz` to
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

/// The event loops' timer-tick ceiling, and how often the scorers,
/// supervisor and watcher look at the shutdown flag.
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
const RELOAD_SECONDS: &str = "serve.reload_endpoint_seconds";

fn shed_body(what: &str) -> String {
    format!("{{\"error\":\"server overloaded: {what}; retry shortly\"}}")
}

/// Work too slow for an event loop, run on the scorer pool.
pub(crate) enum Task {
    /// Score one `/predict` against the app that dispatched it.
    Predict {
        app: Arc<App>,
        publisher: u32,
        consumer: u32,
        words: Vec<WordId>,
    },
    /// `POST /reload`: verify and swap in an artifact (`None` re-reads
    /// the serving path).
    Reload(Option<String>),
}

impl Task {
    /// The histogram that times this endpoint from dispatch to reply.
    pub(crate) fn endpoint(&self) -> &'static str {
        match self {
            Task::Predict { .. } => PREDICT_SECONDS,
            Task::Reload(_) => RELOAD_SECONDS,
        }
    }

    fn run(self, svc: &ServiceCtx) -> Routed {
        match self {
            Task::Predict {
                app,
                publisher,
                consumer,
                words,
            } => {
                let t0 = Instant::now();
                let score = app.predictor().diffusion_score(publisher, consumer, &words);
                svc.metrics
                    .observe("serve.stage.score_seconds", t0.elapsed().as_secs_f64());
                let (status, body) = app.predict_response(publisher, consumer, score);
                Routed::new(PREDICT_SECONDS, status, JSON, body)
            }
            Task::Reload(path) => match svc.slot.reload(path.as_deref()) {
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
            },
        }
    }
}

/// One entry on the scorer pool's bounded queue.
pub(crate) enum Job {
    Run {
        task: Task,
        /// Request deadline; the scorer skips jobs that expired in-queue.
        deadline: Option<Instant>,
        /// When the job entered the queue (`serve.stage.queue_seconds`).
        enqueued: Instant,
        /// The owning event loop, which writes the response.
        reply: CompletionSink,
    },
    /// Chaos `POST /chaos/panic-worker`: the scorer that drains this
    /// panics *outside* its per-job catch, so the supervisor's respawn
    /// path runs.
    Poison,
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

/// Everything routing and the scorers need, shared by the event loops,
/// the scorers and the supervisor.
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

impl ServiceCtx {
    /// The service state for `app` under `config`, plus the receiving
    /// end of its job queue.
    fn new(config: &ServeConfig, app: App) -> (Arc<ServiceCtx>, mpsc::Receiver<Job>) {
        let slot = Arc::new(AppSlot::new(app));
        let metrics = slot.metrics().clone();
        metrics.gauge_set("serve.workers", config.workers.max(1) as f64);
        metrics.gauge_set("serve.degraded", 0.0);
        // Bounded job queue: saturation shows up as fast sheds, not as
        // unbounded buffering.
        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(config.max_queue.max(1));
        let svc = Arc::new(ServiceCtx {
            slot,
            metrics: metrics.clone(),
            shutdown: Arc::new(ShutdownFlag::new()),
            degraded: Arc::new(AtomicBool::new(false)),
            job_tx,
            max_body: config.max_body,
            max_conns: config.max_conns.max(1),
            request_timeout: (config.request_timeout > Duration::ZERO)
                .then_some(config.request_timeout),
            chaos_endpoints: config.chaos_endpoints,
            open_conns: ConnGauge::new(metrics),
        });
        (svc, job_rx)
    }
}

/// A running service; dropping it without calling [`Server::shutdown`]
/// or [`Server::join`] detaches the threads.
pub struct Server {
    addr: SocketAddr,
    slot: Arc<AppSlot>,
    shutdown: Arc<ShutdownFlag>,
    supervisor: JoinHandle<()>,
    watcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the event loops, scorers, supervisor and (optional)
    /// watcher, and start serving `app`. Needs Linux: elsewhere this
    /// returns [`ServeError::Io`] with an `Unsupported` source.
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
            let listener = std::net::TcpListener::bind(&config.addr)
                .map_err(io_err(&format!("cannot bind {}", config.addr)))?;
            let addr = listener
                .local_addr()
                .map_err(io_err("cannot read bound address"))?;
            listener
                .set_nonblocking(true)
                .map_err(io_err("cannot set listener nonblocking"))?;
            let (svc, job_rx) = ServiceCtx::new(&config, app);
            let io_threads = config.io_threads.max(1);
            svc.metrics.gauge_set("serve.io_threads", io_threads as f64);

            // Event loops first: they register their eventfds as shutdown
            // wakers and own the listener.
            let live_loops = Arc::new(AtomicUsize::new(io_threads));
            let loop_handles = crate::epoll::spawn_loops(&svc, listener, io_threads, &live_loops)
                .map_err(io_err("cannot start epoll event loops"))?;

            // Scorer pool: `workers` threads taking jobs off the shared
            // queue, each respawnable by the supervisor.
            let job_rx = Arc::new(Mutex::new(job_rx));
            let scorer_names = AtomicUsize::new(0);
            let spawn_scorer = {
                let svc = Arc::clone(&svc);
                move || -> std::io::Result<JoinHandle<()>> {
                    let id = scorer_names.fetch_add(1, Ordering::Relaxed);
                    let svc = Arc::clone(&svc);
                    let job_rx = Arc::clone(&job_rx);
                    let live_loops = Arc::clone(&live_loops);
                    std::thread::Builder::new()
                        .name(format!("cold-serve-scorer-{id}"))
                        .spawn(move || scorer_loop(&svc, &job_rx, &live_loops))
                }
            };
            let scorers = (0..config.workers.max(1))
                .map(|_| spawn_scorer())
                .collect::<Result<Vec<_>, _>>()
                .map_err(io_err("cannot spawn scorer thread"))?;

            let supervisor = {
                let svc = Arc::clone(&svc);
                let respawn_limit = config.respawn_limit;
                std::thread::Builder::new()
                    .name("cold-serve-supervisor".into())
                    .spawn(move || {
                        supervisor_loop(&svc, scorers, respawn_limit, spawn_scorer, loop_handles)
                    })
                    .map_err(io_err("cannot spawn supervisor thread"))?
            };

            let watcher = match config.watch_model {
                None => None,
                Some(interval) => {
                    let slot = Arc::clone(&svc.slot);
                    let shutdown = Arc::clone(&svc.shutdown);
                    // Capture the baseline signature before the thread
                    // exists: a freshly spawned thread can be scheduled
                    // arbitrarily late, and an artifact replaced in that
                    // window would be mistaken for the baseline and never
                    // reloaded.
                    let baseline = stat_sig(slot.current().model_path());
                    Some(
                        std::thread::Builder::new()
                            .name("cold-serve-watcher".into())
                            .spawn(move || watcher_loop(&slot, &shutdown, interval, baseline))
                            .map_err(io_err("cannot spawn watcher thread"))?,
                    )
                }
            };

            Ok(Server {
                addr,
                slot: Arc::clone(&svc.slot),
                shutdown: Arc::clone(&svc.shutdown),
                supervisor,
                watcher,
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

    /// Block until shutdown is triggered elsewhere (`POST /shutdown`),
    /// then reap the threads.
    pub fn join(self) {
        // The supervisor joins every loop and scorer (original or
        // respawned).
        let _ = self.supervisor.join();
        if let Some(h) = self.watcher {
            let _ = h.join();
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

/// Watch every scorer and replace the ones whose panics escape the
/// per-job catch. The breaker caps total respawns: past `respawn_limit`
/// the pool stays shrunken and `/healthz` goes degraded — a persistently
/// crashing handler must not turn into a crash-loop.
///
/// `io_loops` are watched but never respawned: an event loop carries
/// live connection state that cannot be rebuilt, so a loop death flips
/// straight to degraded. At shutdown the loops are joined first — the
/// scorers only exit once the last loop (job producer) is gone and the
/// queue has drained.
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
                // Clean exits (drain) need no action.
                continue;
            }
            // A panic that escaped the per-job catch killed the whole
            // thread (chaos worker-kill, or a bug in the loop itself).
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

/// Poll the serving artifact; when the file changes, re-verify and
/// hot-reload it through the [`AppSlot`]. A half-copied or corrupt file
/// is retried on the next change of its stat signature, never swapped in.
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
        match ModelView::verify_file(&path).map(|_| slot.reload(None)) {
            Ok(Ok(_)) => {
                metrics.counter_add("serve.watch_reloads", 1);
                last = now;
                last_rejected = None;
            }
            _ => last_rejected = now,
        }
    }
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
    /// Queue on the scorer pool; the loop answers when the job completes.
    Offload(Task),
}

/// Dispatch one request against the pinned `app`. Only the cheap
/// endpoints are answered here, on the event loop; `/predict` and
/// `/reload` come back as a [`Task`] for the scorer pool.
pub(crate) fn route(ctx: &ServiceCtx, app: &Arc<App>, request: &Request) -> RouteOutcome {
    let ready =
        |endpoint, (status, body)| RouteOutcome::Ready(Routed::new(endpoint, status, JSON, body));
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/predict") => match app.parse_predict(&request.body) {
            Ok((publisher, consumer, words)) => RouteOutcome::Offload(Task::Predict {
                app: Arc::clone(app),
                publisher,
                consumer,
                words,
            }),
            Err(msg) => RouteOutcome::Ready(Routed::error(PREDICT_SECONDS, 400, &msg)),
        },
        ("POST", "/reload") => match App::parse_reload(&request.body) {
            Ok(path) => RouteOutcome::Offload(Task::Reload(path)),
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
        ("POST", "/chaos/panic-worker") if ctx.chaos_endpoints => {
            // Answer first, then poison one scorer so the supervisor's
            // respawn path is exercised end to end.
            let mut routed = Routed::new(
                "serve.chaos_seconds",
                200,
                JSON,
                "{\"status\":\"worker will panic\"}".to_owned(),
            );
            routed.close = true;
            routed.kill_worker = true;
            RouteOutcome::Ready(routed)
        }
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

/// Take jobs off the queue one at a time, run each as soon as it is
/// taken, and post the response to the loop that owns the connection.
/// `workers` instances contend on the shared receiver.
///
/// The event loops are the only producers and exit first at shutdown,
/// so a scorer leaves once shutdown is up, the last loop is gone, and
/// the queue has run dry.
fn scorer_loop(svc: &ServiceCtx, job_rx: &Mutex<mpsc::Receiver<Job>>, live_loops: &AtomicUsize) {
    loop {
        // The lock is held only while waiting for the next job; the job
        // runs outside it, so another scorer can take the job behind.
        let next = job_rx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv_timeout(POLL_INTERVAL);
        let (task, deadline, enqueued, reply) = match next {
            Ok(Job::Run {
                task,
                deadline,
                enqueued,
                reply,
            }) => (task, deadline, enqueued, reply),
            // Chaos worker-kill: die *outside* the per-job catch so the
            // supervisor respawn path runs.
            Ok(Job::Poison) => panic!("chaos: injected worker kill"),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if svc.shutdown.is_set() && live_loops.load(Ordering::Acquire) == 0 {
                    return;
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        let taken = Instant::now();
        svc.metrics.observe(
            "serve.stage.queue_seconds",
            taken.saturating_duration_since(enqueued).as_secs_f64(),
        );
        // A job that expired while queued is dead weight: its client
        // already got a 503, so running it would only delay live jobs
        // further.
        if deadline.is_some_and(|d| taken >= d) {
            svc.metrics.counter_add("serve.batch_expired", 1);
            continue;
        }
        // Contain a panicking job to its own request: the client gets a
        // 500, the scorer lives on.
        let endpoint = task.endpoint();
        let routed = catch_unwind(AssertUnwindSafe(|| task.run(svc))).unwrap_or_else(|_| {
            svc.metrics.counter_add("serve.worker_panics", 1);
            Routed::error(endpoint, 500, "internal error; the request was aborted")
        });
        reply.send(routed);
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use cold_core::{ColdConfig, GibbsSampler, ModelFormat};
    use cold_graph::CsrGraph;
    use cold_text::CorpusBuilder;

    /// A tiny two-block model, trained and opened the way `cold serve`
    /// opens an artifact.
    fn tiny_app() -> App {
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
        let app = App::load(&path, 2, 4, None, Metrics::enabled()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        app
    }

    #[test]
    fn scorer_skips_expired_answers_live_and_dies_on_poison_last() {
        let (svc, job_rx) = ServiceCtx::new(&ServeConfig::default(), tiny_app());
        let app = svc.slot.current();
        let (sink, answered) = CompletionSink::detached();
        let job = |deadline, reply| Job::Run {
            task: Task::Predict {
                app: Arc::clone(&app),
                publisher: 0,
                consumer: 1,
                words: vec![0, 1],
            },
            deadline,
            enqueued: Instant::now(),
            reply,
        };
        // The deadline is already due by the time the scorer takes the job.
        svc.job_tx.send(job(Some(Instant::now()), sink(0))).unwrap();
        svc.job_tx.send(job(None, sink(1))).unwrap();
        svc.job_tx.send(Job::Poison).unwrap();

        let scorer = {
            let svc = Arc::clone(&svc);
            // No loop ever ran, so none is live: a scorer that ignored
            // the poison would find the queue dry and return.
            svc.shutdown.trigger();
            std::thread::spawn(move || scorer_loop(&svc, &Mutex::new(job_rx), &AtomicUsize::new(0)))
        };
        let panic = scorer.join().expect_err("the poison kills the scorer");
        assert_eq!(
            panic.downcast_ref::<&str>(),
            Some(&"chaos: injected worker kill")
        );

        // Expired: skipped and counted, never answered. Live: answered
        // before the poison, bit-identical to the predictor.
        let answers = answered();
        assert_eq!(answers.len(), 1, "only the live job is answered");
        let (conn, routed) = &answers[0];
        assert_eq!(*conn, 1);
        let want = app.predictor().diffusion_score(0, 1, &[0, 1]);
        let (status, body) = app.predict_response(0, 1, want);
        assert_eq!(
            (routed.status, routed.body.as_str()),
            (status, body.as_str())
        );

        let snap = svc.metrics.snapshot();
        assert_eq!(snap.counter("serve.batch_expired"), 1);
        assert_eq!(snap.counter("serve.worker_panics"), 0);
        let count = |name| snap.histogram(name).map_or(0, |h| h.count);
        assert_eq!(count("serve.stage.queue_seconds"), 2);
        assert_eq!(count("serve.stage.score_seconds"), 1);
    }
}
