//! The serving workloads: the shipped `cold serve` binary, started cold
//! with default flags on a 1M-user artifact, under open-loop traffic.
//!
//! * `serve_predict` — `/predict` only: fixed rates of 1000 and 2000 qps,
//!   then a capacity search. Exercises transport, batcher and predictor.
//! * `serve_reload` — 70% `/predict`, 20% `/communities/:user`, 10%
//!   `/rank-influencers` at 1000 qps while `POST /reload` alternates the
//!   served artifact between two fits of the same shape; then a capacity
//!   search of the same mix without reloads.
//!
//! `/predict` queries are the audiences of the world's retweet cascades,
//! so the diffusion AUC of the answers the server gave can be measured.
//! Every answer is parsed; one in eight is checked against an in-process
//! [`App`] opened on the same artifact (either artifact, under reload).

use crate::capacity::find_capacity;
use crate::loadgen::{self, Outcome, Planned, Record};
use crate::stats::{median, quantile, quantile_beyond, sorted};
use crate::sys;
use crate::trace::Spans;
use crate::{number, RunOpts, RunOutput};
use cold_bench::workloads::cold_hyper;
use cold_core::predict::DEFAULT_TOP_COMM;
use cold_core::{ColdConfig, GibbsSampler, Metrics, ModelFormat};
use cold_data::{generate, SocialDataset, WorldConfig};
use cold_eval::averaged_auc;
use cold_math::rng::{seeded_rng, Rng};
use cold_serve::{App, HttpClient};
use rand::seq::SliceRandom;
use rand::Rng as _;
use serde::Value;
use std::collections::HashMap;
use std::io::{BufRead, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    Predict,
    Reload,
}

/// The fitted world: small enough to train in about a second, large enough
/// that its cascades give a steady AUC; its `π` rows are then tiled to
/// deployment size.
const BASE_USERS: u32 = 1000;
const COMMUNITIES: usize = 6;
const TOPICS: usize = 16;
/// Outstanding requests allowed per connection.
const WINDOW: usize = 64;
/// The latency limit a capacity step must meet, on p90.
const SLO_P90_MS: f64 = 5.0;
const MAX_ERROR_RATE: f64 = 0.001;
/// A step is judged in this many consecutive windows (by due time).
const SLO_WINDOWS: usize = 5;
/// One answer in this many is checked against the in-process app.
const CHECK_EVERY: usize = 8;
const NOMINAL_QPS: f64 = 1000.0;
const RANK_LIMIT: usize = 10;
/// `cold serve`'s default `--rank-depth`.
const RANK_DEPTH: usize = 100;
const RELOADS: usize = 4;
/// How long unanswered requests may linger after a step's last due time.
const DRAIN: Duration = Duration::from_secs(5);
/// `/predict` bodies kept per step for the in-process stage timings.
const TIMED_BODIES: usize = 500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mix {
    PredictOnly,
    Mixed,
}

/// One request of a step, as the benchmark knows it.
#[derive(Debug, Clone)]
enum Query {
    /// A cascade audience member; `index` points into the cascade list.
    Predict {
        publisher: u32,
        consumer: u32,
        post: u32,
        index: usize,
    },
    Communities {
        user: u32,
    },
    Rank {
        topic: usize,
    },
    /// Hot-swap to artifact `to`; `generation` is the expected new one.
    Reload {
        to: usize,
        generation: u64,
    },
}

/// One audience member of a scorable cascade, in base-world ids.
struct CascadeQuery {
    publisher: u32,
    consumer: u32,
    post: u32,
    group: usize,
    retweeted: bool,
}

/// A measured step: fixed offered rate, fixed duration.
#[derive(Default)]
struct Step {
    /// Latency of every non-reload request, ms ascending; failures infinite.
    latency_ms: Vec<f64>,
    /// Per endpoint, answered requests only, ms ascending.
    endpoint_ms: HashMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
    window_drops: u64,
    late_max_ms: f64,
    /// Answered non-reload requests.
    answered: u64,
    /// `(sent, done)` of each successful reload, step clock ns.
    reloads: Vec<(u64, u64)>,
    /// Every non-reload request as `(due ns, latency ms, dropped)`, the
    /// latency infinite for a failure.
    samples: Vec<(u64, f64, bool)>,
    /// The span of due times, ns.
    duration_ns: u64,
    /// Some answered `/predict` bodies, for the in-process stage timings.
    predict_bodies: Vec<String>,
}

impl Step {
    /// A step meets the limit when most of its consecutive windows each
    /// do: p90 ≤ 5 ms, nothing dropped, at most 0.1% failed. A host stall
    /// spoils one window; a backlog that grows through the step spoils the
    /// later ones, and they are the majority.
    fn meets_slo(&self) -> bool {
        let mut windows: Vec<Vec<(f64, bool)>> = vec![Vec::new(); SLO_WINDOWS];
        for &(due, ms, dropped) in &self.samples {
            let w = (due as u128 * SLO_WINDOWS as u128 / self.duration_ns.max(1) as u128) as usize;
            windows[w.min(SLO_WINDOWS - 1)].push((ms, dropped));
        }
        let passing = windows
            .iter()
            .filter(|w| {
                let failed = w.iter().filter(|(ms, _)| !ms.is_finite()).count();
                let latency = sorted(w.iter().map(|&(ms, _)| ms).collect());
                !w.is_empty()
                    && quantile(&latency, 0.9) <= SLO_P90_MS
                    && w.iter().all(|&(_, dropped)| !dropped)
                    && failed as f64 <= MAX_ERROR_RATE * w.len() as f64
            })
            .count();
        2 * passing > SLO_WINDOWS
    }

    fn p(&self, q: f64) -> f64 {
        quantile(&self.latency_ms, q)
    }

    fn endpoint_p50(&self, endpoint: &str) -> f64 {
        self.endpoint_ms
            .get(endpoint)
            .map_or(0.0, |v| quantile(v, 0.5))
    }
}

/// A `cold serve` child process; killed and reaped if dropped while running.
struct ServerProc {
    child: Child,
    stdout: std::io::BufReader<ChildStdout>,
    addr: SocketAddr,
    running: bool,
}

impl ServerProc {
    fn spawn(bin: &Path, model: &Path) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .arg("--model")
            .arg(model)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        sys::die_with_parent(&mut cmd);
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = std::io::BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = ServerProc {
            child,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            running: true,
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading server output: {e}"))?;
        server.addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("server did not report a listen address: {line:?}"))?;
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `POST /shutdown`, then wait for the process to drain and exit.
    fn shutdown(mut self) -> Result<(), String> {
        let _ = HttpClient::connect(self.addr, Duration::from_secs(2))
            .and_then(|mut c| c.post("/shutdown", "{}"));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.running = false;
                    let _ = self.stdout.read_to_end(&mut Vec::new());
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("server exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => return Err("server did not stop within 10 s of /shutdown".into()),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.running {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Counters and histogram `(count, sum)` pairs from one `/metrics` read.
#[derive(Default)]
struct Scrape {
    counters: HashMap<String, f64>,
    histograms: HashMap<String, (f64, f64)>,
}

impl Scrape {
    fn read(addr: SocketAddr) -> Result<Scrape, String> {
        let body = HttpClient::connect(addr, Duration::from_secs(5))
            .and_then(|mut c| c.get("/metrics"))
            .map_err(|e| format!("GET /metrics: {e}"))?
            .body;
        let mut scrape = Scrape::default();
        for line in body.lines() {
            let v: Value = serde_json::from_str(line).map_err(|e| format!("/metrics: {e}"))?;
            let (Some(Value::Str(kind)), Some(Value::Str(name))) = (v.get("type"), v.get("name"))
            else {
                continue;
            };
            match kind.as_str() {
                "counter" => {
                    scrape.counters.insert(name.clone(), number(v.get("value")));
                }
                "histogram" => {
                    let pair = (number(v.get("count")), number(v.get("sum")));
                    scrape.histograms.insert(name.clone(), pair);
                }
                _ => {}
            }
        }
        Ok(scrape)
    }

    fn counter_since(&self, before: &Scrape, name: &str) -> f64 {
        let get = |s: &Scrape| s.counters.get(name).copied().unwrap_or(0.0);
        get(self) - get(before)
    }

    /// Mean of the observations recorded between `before` and `self`.
    fn mean_since(&self, before: &Scrape, name: &str) -> f64 {
        let get = |s: &Scrape| s.histograms.get(name).copied().unwrap_or((0.0, 0.0));
        let ((c1, s1), (c0, s0)) = (get(self), get(before));
        if c1 > c0 {
            (s1 - s0) / (c1 - c0)
        } else {
            0.0
        }
    }
}

fn parse_json(body: &[u8]) -> Option<Value> {
    serde_json::from_str(std::str::from_utf8(body).ok()?).ok()
}

/// Structural JSON equality, numbers to a relative 1e-9: a server may sum
/// in another order and still be right.
fn same_json(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Array(x), Value::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same_json(x, y))
        }
        (Value::Object(x), Value::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kx, vx), (ky, vy))| kx == ky && same_json(vx, vy))
        }
        (Value::Float(_) | Value::Int(_) | Value::UInt(_), _) => {
            let (x, y) = (number(Some(a)), number(Some(b)));
            x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

fn base_world(seed: u64) -> SocialDataset {
    let config = WorldConfig {
        num_users: BASE_USERS,
        num_communities: COMMUNITIES,
        num_topics: TOPICS,
        num_time_slices: 24,
        vocab_size: 6000,
        posts_per_user: 12.0,
        words_per_post: 10.0,
        ..WorldConfig::default()
    };
    generate(&config, seed)
}

/// Fit the base world, tile `π` to `users`, write the binary artifact.
fn build_artifact(data: &SocialDataset, fit_seed: u64, users: u32, path: &Path) {
    let config = ColdConfig::builder(COMMUNITIES, TOPICS)
        .iterations(40)
        .burn_in(30)
        .sample_lag(2)
        .explicit_negatives(3.0)
        .hyperparams(cold_hyper(COMMUNITIES, TOPICS, data))
        .build(&data.corpus, &data.graph);
    GibbsSampler::new(&data.corpus, &data.graph, config, fit_seed)
        .run()
        .tile_users(users)
        .save_as(path, ModelFormat::Binary)
        .expect("write serving artifact");
}

/// Sizes and phase lengths of one run.
struct Plan {
    /// One fifteenth of the run's measurement time, seconds. Warm-up takes
    /// one unit, the fixed-rate phases eight and a half, and each of at
    /// most eight capacity probes two thirds of a unit.
    unit: f64,
    cold_starts: usize,
    users: u32,
    ladder_steps: usize,
    bisect_steps: usize,
}

/// Everything one run measured, before it becomes metrics.
struct Phases {
    setup_s: Vec<f64>,
    to_listen_s: Vec<f64>,
    to_answer_s: Vec<f64>,
    /// The step at the nominal 1000 qps (with reloads, for `serve_reload`).
    nominal: Step,
    at_2000: Option<Step>,
    server_cpu_s: f64,
    capacity: f64,
    probes: Vec<(f64, f64, bool)>,
    peak_rss_mib: f64,
    /// `/metrics` at boot, around the measured steps, and at the end;
    /// traced runs only.
    scrapes: Option<[Scrape; 4]>,
}

struct Session<'o> {
    opts: &'o RunOpts,
    kind: ServeKind,
    spans: Spans,
    world: SocialDataset,
    users: u32,
    artifacts: Vec<PathBuf>,
    /// In-process apps on the same artifacts: the reference answers.
    refs: Vec<App>,
    cascade: Vec<CascadeQuery>,
    cursor: usize,
    rng: Rng,
    /// Served score per cascade query (first answer wins).
    served: Vec<Option<f64>>,
    threads: usize,
    reloads_sent: u64,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
}

pub fn run(kind: ServeKind, opts: &RunOpts) -> RunOutput {
    let plan = Plan {
        unit: opts.seconds / 15.0,
        cold_starts: if opts.smoke { 1 } else { 5 },
        users: if opts.smoke { 50_000 } else { 1_000_000 },
        ladder_steps: if opts.smoke { 2 } else { 4 },
        bisect_steps: if opts.smoke { 0 } else { 4 },
    };
    let mut out = RunOutput::default();
    let mut session = match Session::new(kind, opts, &plan) {
        Ok(s) => s,
        Err(e) => {
            out.errors.push(e);
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    match session.measure(&plan) {
        Ok(phases) => {
            session.end_to_end(&phases, &mut out);
            if let Some(scrapes) = &phases.scrapes {
                session.per_layer(&phases, scrapes, &mut out);
            }
        }
        Err(e) => session.errors.push(e),
    }
    if let Some(path) = &opts.spans_path {
        if let Err(e) = session.spans.write_jsonl(path, opts.workload.name()) {
            session.errors.push(format!("cannot write spans: {e}"));
        }
    }
    for path in &session.artifacts {
        let _ = std::fs::remove_file(path);
    }
    out.attempted += session.attempted;
    out.failed += session.failed;
    out.errors.append(&mut session.errors);
    out
}

impl<'o> Session<'o> {
    fn new(kind: ServeKind, opts: &'o RunOpts, plan: &Plan) -> Result<Session<'o>, String> {
        let world = base_world(opts.seed);
        let fits = match kind {
            ServeKind::Predict => 1,
            ServeKind::Reload => 2,
        };
        let mut artifacts = Vec::new();
        let mut refs = Vec::new();
        for fit in 0..fits {
            let path = opts.work_dir.join(format!("serve-{fit}.cold"));
            build_artifact(&world, opts.seed.wrapping_add(1 + fit), plan.users, &path);
            refs.push(
                App::load(
                    &path,
                    DEFAULT_TOP_COMM,
                    RANK_DEPTH,
                    None,
                    Metrics::disabled(),
                )
                .map_err(|e| format!("in-process app: {e}"))?,
            );
            artifacts.push(path);
        }
        let mut rng = seeded_rng(opts.seed ^ 0xc0de);
        let mut groups: Vec<usize> = (0..world.cascades.len())
            .filter(|&g| world.cascades[g].is_scorable())
            .collect();
        groups.shuffle(&mut rng);
        let mut cascade = Vec::new();
        for g in groups {
            let t = &world.cascades[g];
            let audience = t.retweeters.iter().map(|&u| (u, true));
            for (consumer, retweeted) in audience.chain(t.ignorers.iter().map(|&u| (u, false))) {
                cascade.push(CascadeQuery {
                    publisher: t.publisher,
                    consumer,
                    post: t.post,
                    group: g,
                    retweeted,
                });
            }
        }
        if cascade.is_empty() {
            return Err("the generated world has no scorable cascade".into());
        }
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2);
        Ok(Session {
            opts,
            kind,
            spans: Spans::new(),
            served: vec![None; cascade.len()],
            world,
            users: plan.users,
            artifacts,
            refs,
            cascade,
            cursor: 0,
            rng,
            threads,
            reloads_sent: 0,
            errors: Vec::new(),
            attempted: 0,
            failed: 0,
        })
    }

    /// Map a base-world user onto a random copy of it in the served model.
    fn tiled(&mut self, base: u32) -> u32 {
        base + BASE_USERS * self.rng.gen_range(0..self.users / BASE_USERS)
    }

    fn next_query(&mut self, mix: Mix) -> Query {
        let roll: f64 = if mix == Mix::Mixed {
            self.rng.gen()
        } else {
            0.0
        };
        if roll < 0.7 {
            let index = self.cursor % self.cascade.len();
            self.cursor += 1;
            let (p, c, post) = {
                let q = &self.cascade[index];
                (q.publisher, q.consumer, q.post)
            };
            Query::Predict {
                publisher: self.tiled(p),
                consumer: self.tiled(c),
                post,
                index,
            }
        } else if roll < 0.9 {
            Query::Communities {
                user: self.rng.gen_range(0..self.users),
            }
        } else {
            Query::Rank {
                topic: self.rng.gen_range(0..TOPICS),
            }
        }
    }

    fn words(&self, post: u32) -> &[u32] {
        &self.world.corpus.post(post).words
    }

    /// The request for `q`: its path and, for a `POST`, its JSON body.
    fn request(&self, q: &Query) -> (String, Option<String>) {
        match q {
            Query::Predict {
                publisher,
                consumer,
                post,
                ..
            } => {
                let words: Vec<String> = self.words(*post).iter().map(u32::to_string).collect();
                let body = format!(
                    "{{\"publisher\":{publisher},\"consumer\":{consumer},\"words\":[{}]}}",
                    words.join(",")
                );
                ("/predict".into(), Some(body))
            }
            Query::Communities { user } => (format!("/communities/{user}"), None),
            Query::Rank { topic } => (
                "/rank-influencers".into(),
                Some(format!("{{\"topic\":{topic},\"limit\":{RANK_LIMIT}}}")),
            ),
            Query::Reload { to, .. } => {
                let path = Value::Str(self.artifacts[*to].display().to_string());
                let path = serde_json::to_string(&path).expect("strings serialize");
                ("/reload".into(), Some(format!("{{\"model\":{path}}}")))
            }
        }
    }

    fn render(&self, q: &Query) -> Vec<u8> {
        match self.request(q) {
            (path, Some(body)) => loadgen::post(&path, &body),
            (path, None) => loadgen::get(&path),
        }
    }

    /// Whether `body` is the answer one of the reference apps gives to `q`.
    fn check(&self, q: &Query, body: &[u8]) -> Result<(), String> {
        let served = parse_json(body).ok_or_else(|| format!("unparseable answer to {q:?}"))?;
        let matches = self.refs.iter().any(|app| {
            let (status, json) = match *q {
                Query::Predict {
                    publisher,
                    consumer,
                    post,
                    ..
                } => app.predict_response(
                    publisher,
                    consumer,
                    app.predictor()
                        .diffusion_score(publisher, consumer, self.words(post)),
                ),
                Query::Communities { user } => app.communities(&user.to_string()),
                Query::Rank { .. } => {
                    app.rank_influencers(self.request(q).1.unwrap_or_default().as_bytes())
                }
                Query::Reload { .. } => return false,
            };
            status == 200 && parse_json(json.as_bytes()).is_some_and(|e| same_json(&e, &served))
        });
        if matches {
            Ok(())
        } else {
            Err(format!(
                "wrong answer to {q:?}: {}",
                String::from_utf8_lossy(body)
            ))
        }
    }

    /// Run one open-loop step at `rate` for `secs`, with `reloads` as
    /// `(offset seconds, artifact)` on a control connection. `counted` steps
    /// add to the run's attempted/failed totals; warm-up and capacity
    /// probes only add wrong answers (as check errors).
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        server: &ServerProc,
        label: &'static str,
        rate: f64,
        secs: f64,
        mix: Mix,
        reloads: &[(f64, usize)],
        counted: bool,
    ) -> Result<Step, String> {
        let n = (rate * secs).round().max(1.0) as usize;
        let mut queries = Vec::with_capacity(n + reloads.len());
        let mut plans: Vec<Vec<Planned>> = (0..self.threads).map(|_| Vec::new()).collect();
        for i in 0..n {
            let q = self.next_query(mix);
            plans[i % self.threads].push(Planned {
                due_ns: (i as f64 * 1e9 / rate) as u64,
                conn: 0,
                bytes: self.render(&q),
                tag: queries.len(),
            });
            queries.push(q);
        }
        for &(offset, to) in reloads {
            self.reloads_sent += 1;
            let q = Query::Reload {
                to,
                generation: self.reloads_sent,
            };
            plans[0].push(Planned {
                due_ns: (offset * 1e9) as u64,
                conn: 1,
                bytes: self.render(&q),
                tag: queries.len(),
            });
            queries.push(q);
        }
        plans[0].sort_by_key(|p| p.due_ns);
        let mut conns = vec![1; self.threads];
        conns[0] += usize::from(!reloads.is_empty());
        let (start, per_thread) = loadgen::run(server.addr, &plans, &conns, WINDOW, DRAIN)
            .map_err(|e| format!("load generator: {e}"))?;
        let step_start = self.spans.at(start);
        let step_span = self
            .spans
            .add_ns(label, 0, step_start, self.spans.at(Instant::now()));
        let records: Vec<Record> = per_thread.into_iter().flatten().collect();
        let mut step = self.evaluate(&queries, &records, step_span, step_start, counted);
        step.duration_ns = (n as f64 * 1e9 / rate) as u64;
        if counted {
            self.attempted += step.attempted + reloads.len() as u64;
            self.failed += step.failed + (reloads.len() - step.reloads.len()) as u64;
        }
        Ok(step)
    }

    fn evaluate(
        &mut self,
        queries: &[Query],
        records: &[Record],
        step_span: u64,
        step_start: u64,
        counted: bool,
    ) -> Step {
        let mut step = Step::default();
        let mut wrong = 0usize;
        for r in records {
            let q = &queries[r.tag];
            if r.sent_ns != u64::MAX {
                step.late_max_ms = step.late_max_ms.max((r.sent_ns - r.due_ns) as f64 / 1e6);
            }
            if let Query::Reload { generation, .. } = *q {
                let generation_ok = parse_json(&r.body)
                    .is_some_and(|v| number(v.get("generation")) == generation as f64);
                if r.ok() && generation_ok {
                    step.reloads.push((r.sent_ns, r.done_ns));
                    self.spans.add_ns(
                        "serve.reload",
                        step_span,
                        step_start + r.sent_ns,
                        step_start + r.done_ns,
                    );
                } else {
                    self.errors.push(format!(
                        "reload to generation {generation} failed: {} {}",
                        r.status,
                        String::from_utf8_lossy(&r.body)
                    ));
                }
                continue;
            }
            step.attempted += 1;
            let mut ok = r.ok();
            if let (true, Query::Predict { index, .. }) = (ok, q) {
                match parse_json(&r.body).map(|v| number(v.get("score"))) {
                    // Only the fixed-rate phases feed the AUC, so every run
                    // scores the same queries.
                    Some(score) if score.is_finite() => {
                        if counted {
                            self.served[*index].get_or_insert(score);
                        }
                    }
                    _ => ok = false,
                }
            }
            if ok && r.tag % CHECK_EVERY == 0 {
                if let Err(e) = self.check(q, &r.body) {
                    ok = false;
                    wrong += 1;
                    if wrong <= 3 {
                        self.errors.push(e);
                    }
                }
            }
            let dropped = r.outcome == Outcome::WindowDrop;
            step.window_drops += u64::from(dropped);
            if !ok {
                step.failed += 1;
                step.latency_ms.push(f64::INFINITY);
                step.samples.push((r.due_ns, f64::INFINITY, dropped));
                continue;
            }
            let latency = r.latency_ms();
            step.answered += 1;
            step.latency_ms.push(latency);
            step.samples.push((r.due_ns, latency, false));
            let endpoint = match q {
                Query::Predict { .. } => "predict",
                Query::Communities { .. } => "communities",
                _ => "rank",
            };
            step.endpoint_ms.entry(endpoint).or_default().push(latency);
            if endpoint == "predict" && step.predict_bodies.len() < TIMED_BODIES {
                step.predict_bodies
                    .push(self.request(q).1.unwrap_or_default());
            }
            if self.opts.traced {
                let [due, sent, done] = [r.due_ns, r.sent_ns, r.done_ns].map(|t| step_start + t);
                let id = self.spans.add_ns("request", step_span, due, done);
                self.spans.add_ns("request.wait", id, due, sent);
                self.spans.add_ns("request.io", id, sent, done);
            }
        }
        if wrong > 3 {
            self.errors
                .push(format!("{} more wrong answers", wrong - 3));
        }
        step.latency_ms = sorted(std::mem::take(&mut step.latency_ms));
        for v in step.endpoint_ms.values_mut() {
            *v = sorted(std::mem::take(v));
        }
        step
    }

    /// Spawn `cold serve` on artifact 0 and wait for its first correct
    /// answer; returns the server and `(spawn→listen, listen→answer)` s.
    fn cold_start(&mut self, bin: &Path) -> Result<(ServerProc, f64, f64), String> {
        let first = &self.cascade[0];
        let canary = Query::Predict {
            publisher: first.publisher,
            consumer: first.consumer,
            post: first.post,
            index: 0,
        };
        let body = self.request(&canary).1.unwrap_or_default();
        let t0 = Instant::now();
        let server = ServerProc::spawn(bin, &self.artifacts[0])?;
        let listening = Instant::now();
        let deadline = listening + Duration::from_secs(30);
        loop {
            let answer = HttpClient::connect(server.addr, Duration::from_secs(2))
                .and_then(|mut c| c.post("/predict", &body));
            if let Ok(r) = answer {
                if r.status == 200 && self.check(&canary, r.body.as_bytes()).is_ok() {
                    break;
                }
            }
            if Instant::now() > deadline {
                return Err("no correct /predict answer within 30 s of listening".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let answered = Instant::now();
        let id = self.spans.add("serve.cold_start", 0, t0, answered);
        self.spans.add("serve.spawn_to_listen", id, t0, listening);
        self.spans
            .add("serve.listen_to_first_answer", id, listening, answered);
        Ok((
            server,
            (listening - t0).as_secs_f64(),
            (answered - listening).as_secs_f64(),
        ))
    }

    fn measure(&mut self, plan: &Plan) -> Result<Phases, String> {
        let bin = std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name("cold");
        let (mut setup_s, mut to_listen_s, mut to_answer_s) = (Vec::new(), Vec::new(), Vec::new());
        let mut server = None;
        for _ in 0..plan.cold_starts {
            if let Some(previous) = server.take() {
                ServerProc::shutdown(previous)?;
            }
            let (s, listen, answer) = self.cold_start(&bin)?;
            setup_s.push(listen + answer);
            to_listen_s.push(listen);
            to_answer_s.push(answer);
            server = Some(s);
        }
        let server = server.expect("at least one cold start");
        self.attempted += plan.cold_starts as u64;
        let pid = server.pid();
        let traced = self.opts.traced;
        let scrape = |server: &ServerProc| -> Result<Option<Scrape>, String> {
            traced.then(|| Scrape::read(server.addr)).transpose()
        };
        let boot = scrape(&server)?;

        let u = plan.unit;
        let mix = match self.kind {
            ServeKind::Predict => Mix::PredictOnly,
            ServeKind::Reload => Mix::Mixed,
        };
        self.step(&server, "serve.warm_up", NOMINAL_QPS, u, mix, &[], false)?;
        let before = scrape(&server)?;
        let cpu0 = sys::cpu_seconds(pid).map_err(|e| e.to_string())?;
        let (nominal, at_2000) = match self.kind {
            ServeKind::Predict => (
                self.step(
                    &server,
                    "serve.fixed_1000qps",
                    NOMINAL_QPS,
                    5.0 * u,
                    mix,
                    &[],
                    true,
                )?,
                Some(self.step(
                    &server,
                    "serve.fixed_2000qps",
                    2000.0,
                    3.5 * u,
                    mix,
                    &[],
                    true,
                )?),
            ),
            ServeKind::Reload => {
                let secs = 8.5 * u;
                // Alternate B, A, B, A; each reload falls mid-interval.
                let reloads: Vec<(f64, usize)> = (0..RELOADS)
                    .map(|i| ((i as f64 + 0.5) * secs / RELOADS as f64, (i + 1) % 2))
                    .collect();
                let step = self.step(
                    &server,
                    "serve.fixed_1000qps_reloading",
                    NOMINAL_QPS,
                    secs,
                    mix,
                    &reloads,
                    true,
                )?;
                self.check_generation(&server)?;
                (step, None)
            }
        };
        let server_cpu_s = sys::cpu_seconds(pid).map_err(|e| e.to_string())? - cpu0;
        let after = scrape(&server)?;

        let mut probes = Vec::new();
        let capacity = find_capacity(
            2000.0,
            plan.ladder_steps,
            plan.bisect_steps,
            |rate| match self.step(
                &server,
                "serve.capacity_probe",
                rate,
                u * 2.0 / 3.0,
                mix,
                &[],
                false,
            ) {
                Ok(step) => {
                    probes.push((rate, step.p(0.9), step.meets_slo()));
                    step.meets_slo()
                }
                Err(e) => {
                    self.errors.push(e);
                    false
                }
            },
        );
        let peak_rss_mib = sys::peak_rss_mib(pid).map_err(|e| e.to_string())?;
        let last = scrape(&server)?;
        server.shutdown()?;
        Ok(Phases {
            setup_s,
            to_listen_s,
            to_answer_s,
            nominal,
            at_2000,
            server_cpu_s,
            capacity,
            probes,
            peak_rss_mib,
            scrapes: match (boot, before, after, last) {
                (Some(a), Some(b), Some(c), Some(d)) => Some([a, b, c, d]),
                _ => None,
            },
        })
    }

    /// `/healthz` after the reload phase must report one generation per
    /// reload sent.
    fn check_generation(&mut self, server: &ServerProc) -> Result<(), String> {
        let health = HttpClient::connect(server.addr, Duration::from_secs(5))
            .and_then(|mut c| c.get("/healthz"))
            .map_err(|e| format!("GET /healthz: {e}"))?;
        let generation = parse_json(health.body.as_bytes()).map(|v| number(v.get("generation")));
        if generation != Some(self.reloads_sent as f64) {
            self.errors.push(format!(
                "/healthz generation {generation:?} after {} reloads",
                self.reloads_sent
            ));
        }
        Ok(())
    }

    /// Served scores grouped by cascade, for the averaged AUC.
    fn served_groups(&self) -> Vec<Vec<(f64, bool)>> {
        let mut by_group: HashMap<usize, Vec<(f64, bool)>> = HashMap::new();
        for (q, score) in self.cascade.iter().zip(&self.served) {
            if let Some(s) = score {
                by_group.entry(q.group).or_default().push((*s, q.retweeted));
            }
        }
        let mut groups: Vec<(usize, Vec<(f64, bool)>)> = by_group.into_iter().collect();
        groups.sort_by_key(|(g, _)| *g);
        groups.into_iter().map(|(_, v)| v).collect()
    }

    fn measured_steps<'p>(&self, ph: &'p Phases) -> impl Iterator<Item = &'p Step> {
        std::iter::once(&ph.nominal).chain(ph.at_2000.as_ref())
    }

    fn end_to_end(&mut self, ph: &Phases, out: &mut RunOutput) {
        let answered: u64 = self.measured_steps(ph).map(|s| s.answered).sum();
        let groups = self.served_groups();
        let diffusion_auc = averaged_auc(&groups).unwrap_or(f64::NAN);
        if !(0.0..=1.0).contains(&diffusion_auc) {
            self.errors
                .push(format!("served diffusion AUC is {diffusion_auc}"));
        }
        let e2e = &mut out.end_to_end;
        e2e.insert("setup_s".into(), median(&ph.setup_s));
        e2e.insert("p50_ms".into(), ph.nominal.p(0.5));
        e2e.insert("p90_ms".into(), ph.nominal.p(0.9));
        e2e.insert("throughput_per_s".into(), ph.capacity);
        e2e.insert("peak_rss_mib".into(), ph.peak_rss_mib);
        e2e.insert("diffusion_auc".into(), diffusion_auc);

        let x = &mut out.extra;
        let (p99, beyond) = quantile_beyond(&ph.nominal.latency_ms, 0.99).unwrap_or((0.0, 0));
        x.insert("p99_ms".into(), p99);
        x.insert("p99_samples_beyond".into(), beyond as f64);
        x.insert("served_auc_groups".into(), groups.len() as f64);
        x.insert(
            "server_cpu_ms_per_request".into(),
            1e3 * ph.server_cpu_s / answered.max(1) as f64,
        );
        if let Some(s) = &ph.at_2000 {
            x.insert("p50_ms_at_2000qps".into(), s.p(0.5));
            x.insert("p90_ms_at_2000qps".into(), s.p(0.9));
        }
        if let Some(reload_s) = self.reload_s(ph) {
            x.insert("reload_s".into(), reload_s);
        }
        for (i, &(rate, p90, pass)) in ph.probes.iter().enumerate() {
            x.insert(format!("capacity_probe.{i}.qps"), rate);
            x.insert(format!("capacity_probe.{i}.p90_ms"), p90);
            x.insert(
                format!("capacity_probe.{i}.pass"),
                f64::from(u8::from(pass)),
            );
        }
    }

    /// Median client-observed `POST /reload` time, seconds.
    fn reload_s(&self, ph: &Phases) -> Option<f64> {
        let times: Vec<f64> = ph
            .nominal
            .reloads
            .iter()
            .map(|&(sent, done)| (done - sent) as f64 / 1e9)
            .collect();
        (!times.is_empty()).then(|| median(&times))
    }

    fn per_layer(&self, ph: &Phases, scrapes: &[Scrape; 4], out: &mut RunOutput) {
        let [boot, before, after, last] = scrapes;
        let none = Scrape::default();
        let nominal = &ph.nominal;
        let pl = &mut out.per_layer;
        let mut set = |k: &str, v: f64| {
            pl.insert(k.to_owned(), v);
        };
        set(
            "core.view_open_s",
            boot.mean_since(&none, "serve.model_open_seconds"),
        );
        set(
            "core.predictor_precompute_s",
            boot.mean_since(&none, "serve.precompute_seconds"),
        );
        set(
            "serve.rank_precompute_s",
            boot.mean_since(&none, "serve.rank_precompute_seconds"),
        );
        set("serve.spawn_to_listen_s", median(&ph.to_listen_s));
        set("serve.listen_to_first_answer_s", median(&ph.to_answer_s));
        let (parse_us, score_us, response_us) = self.app_timings(nominal);
        set("serve.app.parse_predict_us.p50", parse_us);
        set("core.predict.diffusion_score_us.p50", score_us);
        set("serve.app.predict_response_us.p50", response_us);
        // What the client waited beyond the three compute stages: reading,
        // queueing, batch wait and writing.
        let client_us = 1e3 * nominal.endpoint_p50("predict");
        set(
            "serve.transport_us.p50",
            client_us - parse_us - score_us - response_us,
        );
        set(
            "serve.predict_server_ms.mean",
            1e3 * after.mean_since(before, "serve.predict_seconds"),
        );
        set(
            "serve.batch_size.mean",
            after.mean_since(before, "serve.batch_size"),
        );
        let answered: u64 = self.measured_steps(ph).map(|s| s.answered).sum();
        set(
            "serve.cpu_us_per_req",
            1e6 * ph.server_cpu_s / answered.max(1) as f64,
        );
        for counter in [
            "serve.shed",
            "serve.batch_expired",
            "serve.request_timeouts",
        ] {
            set(counter, after.counter_since(before, counter));
        }
        if let Some(s) = &ph.at_2000 {
            set("serve.client.p50_ms_at_2000qps", s.p(0.5));
            set("serve.client.p90_ms_at_2000qps", s.p(0.9));
        }
        let (p99, beyond) = quantile_beyond(&nominal.latency_ms, 0.99).unwrap_or((0.0, 0));
        set("serve.client.p99_ms", p99);
        set("serve.client.p99_samples", beyond as f64);
        let measured = || self.measured_steps(ph);
        set(
            "serve.client.late_max_ms",
            measured().map(|s| s.late_max_ms).fold(0.0, f64::max),
        );
        set(
            "serve.client.window_drops",
            measured().map(|s| s.window_drops).sum::<u64>() as f64,
        );
        if self.kind == ServeKind::Reload {
            set("serve.reload_client_s", self.reload_s(ph).unwrap_or(0.0));
            set(
                "serve.reload_server_s",
                after.mean_since(before, "serve.reload_seconds"),
            );
            set(
                "serve.reloads_ok",
                last.counter_since(&none, "serve.reloads_ok"),
            );
            set(
                "serve.reloads_failed",
                last.counter_since(&none, "serve.reloads_failed"),
            );
            let (mut during, mut between) = (Vec::new(), Vec::new());
            for &(due, ms, _) in nominal.samples.iter().filter(|s| s.1.is_finite()) {
                let done = due + (ms * 1e6) as u64;
                if nominal.reloads.iter().any(|&(s, e)| due < e && done > s) {
                    during.push(ms);
                } else {
                    between.push(ms);
                }
            }
            set(
                "serve.mixed.p90_ms.during_reload",
                quantile(&sorted(during), 0.9),
            );
            set(
                "serve.mixed.p90_ms.between_reloads",
                quantile(&sorted(between), 0.9),
            );
            set(
                "serve.mixed.predict_p50_ms",
                nominal.endpoint_p50("predict"),
            );
            set(
                "serve.mixed.communities_p50_ms",
                nominal.endpoint_p50("communities"),
            );
            set("serve.mixed.rank_p50_ms", nominal.endpoint_p50("rank"));
        }
    }

    /// Medians (µs) of the three compute stages of `/predict` — parse,
    /// score, render — timed on the in-process app with bodies the server
    /// answered during `step`.
    fn app_timings(&self, step: &Step) -> (f64, f64, f64) {
        let app = &self.refs[0];
        let (mut parse, mut score, mut render) = (Vec::new(), Vec::new(), Vec::new());
        for body in &step.predict_bodies {
            let t0 = Instant::now();
            let parsed = app.parse_predict(body.as_bytes());
            let t1 = Instant::now();
            let Ok((p, c, words)) = parsed else { continue };
            let s = app.predictor().diffusion_score(p, c, &words);
            let t2 = Instant::now();
            std::hint::black_box(app.predict_response(p, c, s));
            let t3 = Instant::now();
            parse.push((t1 - t0).as_secs_f64() * 1e6);
            score.push((t2 - t1).as_secs_f64() * 1e6);
            render.push((t3 - t2).as_secs_f64() * 1e6);
        }
        (median(&parse), median(&score), median(&render))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_comparison_tolerates_rounding_only() {
        let parse = |s: &str| parse_json(s.as_bytes()).unwrap();
        let a = parse("{\"s\":0.1,\"l\":[1,2.5]}");
        assert!(same_json(
            &a,
            &parse("{\"s\":0.10000000000000002,\"l\":[1,2.5]}")
        ));
        assert!(!same_json(&a, &parse("{\"s\":0.1001,\"l\":[1,2.5]}")));
        assert!(!same_json(&a, &parse("{\"s\":0.1,\"l\":[1]}")));
        assert!(!same_json(&a, &parse("{\"t\":0.1,\"l\":[1,2.5]}")));
    }

    /// A 5 ms step whose windows are slow (9 ms) or dropping where listed.
    fn step(slow: &[usize], dropping: &[usize]) -> Step {
        let mut step = Step {
            duration_ns: 5_000,
            ..Step::default()
        };
        for due in 0..5_000u64 {
            let w = (due / 1_000) as usize;
            let ms = if slow.contains(&w) { 9.0 } else { 1.0 };
            step.samples
                .push((due, ms, dropping.contains(&w) && due % 1_000 == 0));
        }
        step
    }

    #[test]
    fn a_step_meets_the_limit_when_most_windows_do() {
        assert!(step(&[], &[]).meets_slo());
        // A stall spoils a window or two, not the step.
        assert!(step(&[1], &[]).meets_slo());
        assert!(step(&[0], &[4]).meets_slo());
        // A backlog growing through the step spoils the later windows.
        assert!(!step(&[2, 3, 4], &[]).meets_slo());
        assert!(!step(&[3, 4], &[2]).meets_slo());
    }
}
