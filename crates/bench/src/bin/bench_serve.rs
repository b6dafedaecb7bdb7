//! Serving-path load study: `cold-serve` over a million-user model.
//!
//! Fits COLD on the quality-experiment world, tiles the fitted `π` rows to
//! one million users (`ColdModel::tile_users` — the community/topic
//! structure stays exactly what training produced; the user axis, which is
//! what serving memory and the `TopComm`/ranking precomputes scale with,
//! grows to deployment size), saves the `cold-model/v1` binary artifact,
//! and opens it through the zero-copy [`cold_core::ModelView`] behind a
//! real [`cold_serve::Server`] on a loopback socket.
//!
//! The load generator then sweeps client concurrency over every endpoint
//! with persistent keep-alive connections ([`cold_serve::HttpClient`]),
//! measuring client-side latency per request. Per (endpoint, concurrency)
//! point it reports QPS and p50/p99 milliseconds.
//!
//! Writes `BENCH_serve.json` at the workspace root; `--quick` drives a
//! 50k-user model with a reduced sweep and writes `BENCH_serve_quick.json`
//! so CI smoke runs never clobber the committed headline.

use cold_bench::workloads::{cold_hyper, BASE_SEED};
use cold_core::{ColdConfig, CounterStorage, GibbsSampler, Metrics, ModelFormat};
use cold_data::{generate, WorldConfig};
use cold_math::rng::RngFactory;
use cold_serve::{App, HttpClient, ServeConfig, Server};
use rand::Rng;
use serde::Serialize;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Latent dimensions: the quality-run shape (C=6), with the wider topic
/// axis the prediction path actually iterates over.
const C: usize = 6;
const K: usize = 16;
/// Event-loop threads.
const IO_THREADS: usize = 2;

#[derive(Serialize)]
struct LoadPoint {
    endpoint: String,
    concurrency: usize,
    requests: usize,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
}

/// One saturation point: connection-per-request clients at an offered
/// load far beyond the deliberately small constrained server.
#[derive(Serialize)]
struct OverloadPoint {
    clients: usize,
    duration_seconds: f64,
    /// Requests attempted per second (connects included).
    offered_qps: f64,
    /// `200`s per second — what the server actually delivered.
    goodput_qps: f64,
    /// Fraction of attempts shed with `503` + `Retry-After`.
    shed_rate: f64,
    /// Fraction of attempts that failed at the transport level.
    error_rate: f64,
    /// Latency of *successful* requests: bounded by the deadline even
    /// at saturation — overload degrades into sheds, not into collapse.
    p50_ms: f64,
    p99_ms: f64,
}

#[derive(Serialize)]
struct BenchReport {
    world: String,
    num_users: u32,
    communities: usize,
    topics: usize,
    vocab_size: usize,
    io_threads: usize,
    artifact_bytes: u64,
    /// `ModelView::open` + ζ/TopComm/ranking precompute, seconds.
    app_load_seconds: f64,
    points: Vec<LoadPoint>,
    /// Saturation study against a constrained server (a small
    /// open-connection cap) — goodput and tail latency under offered
    /// load ≫ capacity.
    overload: Vec<OverloadPoint>,
    headline: String,
}

/// Train on the base world, tile `π` to `num_users`, save binary.
fn build_artifact(num_users: u32, dir: &std::path::Path) -> (std::path::PathBuf, usize) {
    let config = WorldConfig {
        num_users: 240,
        num_communities: C,
        num_topics: K,
        num_time_slices: 24,
        vocab_size: 6000,
        posts_per_user: 12.0,
        words_per_post: 10.0,
        ..WorldConfig::default()
    };
    let data = generate(&config, BASE_SEED + 9400);
    let fit = ColdConfig::builder(C, K)
        .iterations(40)
        .burn_in(30)
        .sample_lag(2)
        .explicit_negatives(3.0)
        .hyperparams(cold_hyper(C, K, &data))
        .counter_storage(CounterStorage::Auto)
        .build(&data.corpus, &data.graph);
    let t = Instant::now();
    let model = GibbsSampler::new(&data.corpus, &data.graph, fit, BASE_SEED + 9401).run();
    let tiled = model.tile_users(num_users);
    let path = dir.join("serve_model.cold");
    tiled
        .save_as(path.to_str().unwrap(), ModelFormat::Binary)
        .expect("save binary artifact");
    println!(
        "trained 240-user model and tiled to {num_users} users in {:.1}s ({:.1} MiB artifact)",
        t.elapsed().as_secs_f64(),
        std::fs::metadata(&path).expect("stat").len() as f64 / (1 << 20) as f64,
    );
    (path, data.corpus.vocab_size())
}

/// What one client thread sends, over and over.
#[derive(Clone, Copy)]
enum Workload {
    Predict,
    RankInfluencers,
    Communities,
    Healthz,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Predict => "/predict",
            Workload::RankInfluencers => "/rank-influencers",
            Workload::Communities => "/communities/:user",
            Workload::Healthz => "/healthz",
        }
    }

    /// Issue one request with randomized-but-valid parameters; return the
    /// client-observed latency.
    fn fire(
        self,
        client: &mut HttpClient,
        rng: &mut cold_math::rng::Rng,
        num_users: u32,
        vocab: usize,
    ) -> Duration {
        let t = Instant::now();
        let response = match self {
            Workload::Predict => {
                let words: Vec<String> = (0..8)
                    .map(|_| rng.gen_range(0..vocab as u32).to_string())
                    .collect();
                let body = format!(
                    "{{\"publisher\":{},\"consumer\":{},\"words\":[{}]}}",
                    rng.gen_range(0..num_users),
                    rng.gen_range(0..num_users),
                    words.join(",")
                );
                client.post("/predict", &body)
            }
            Workload::RankInfluencers => {
                let body = format!("{{\"topic\":{},\"limit\":10}}", rng.gen_range(0..K));
                client.post("/rank-influencers", &body)
            }
            Workload::Communities => {
                client.get(&format!("/communities/{}", rng.gen_range(0..num_users)))
            }
            Workload::Healthz => client.get("/healthz"),
        };
        let response = response.expect("request failed");
        assert_eq!(response.status, 200, "{}", response.body);
        t.elapsed()
    }
}

/// Drive `endpoint` with `concurrency` keep-alive clients, `per_thread`
/// requests each, all released together. Latencies are client-observed.
fn run_point(
    addr: SocketAddr,
    endpoint: Workload,
    concurrency: usize,
    per_thread: usize,
    num_users: u32,
    vocab: usize,
) -> LoadPoint {
    let barrier = Arc::new(Barrier::new(concurrency + 1));
    let rngs = RngFactory::new(BASE_SEED + 9402);
    let handles: Vec<_> = (0..concurrency)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            let mut rng = rngs.stream(t as u64);
            std::thread::spawn(move || {
                let mut client =
                    HttpClient::connect(addr, Duration::from_secs(30)).expect("connect");
                // Warm the connection (and the server's code paths) off
                // the clock.
                endpoint.fire(&mut client, &mut rng, num_users, vocab);
                barrier.wait();
                let mut latencies = Vec::with_capacity(per_thread);
                for _ in 0..per_thread {
                    latencies.push(endpoint.fire(&mut client, &mut rng, num_users, vocab));
                }
                latencies
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .map(|d| 1e3 * d.as_secs_f64())
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    latencies.sort_by(f64::total_cmp);
    let q = |p: f64| latencies[((latencies.len() - 1) as f64 * p).round() as usize];
    let point = LoadPoint {
        endpoint: endpoint.name().to_owned(),
        concurrency,
        requests: latencies.len(),
        qps: latencies.len() as f64 / wall,
        p50_ms: q(0.50),
        p99_ms: q(0.99),
        max_ms: latencies[latencies.len() - 1],
    };
    println!(
        "  {:<20} c={:<3} {:>8.0} qps  p50 {:.3} ms  p99 {:.3} ms",
        point.endpoint, point.concurrency, point.qps, point.p50_ms, point.p99_ms
    );
    point
}

/// Constrained-server shape for the overload study: an open-connection
/// cap small enough that the sweep's offered load is far beyond it.
const OVERLOAD_MAX_CONNS: usize = 16;

/// Hammer the constrained server with `clients` connection-per-request
/// threads for `duration`, classifying every attempt.
fn run_overload_point(
    addr: SocketAddr,
    clients: usize,
    duration: Duration,
    num_users: u32,
    vocab: usize,
) -> OverloadPoint {
    let barrier = Arc::new(Barrier::new(clients + 1));
    let rngs = RngFactory::new(BASE_SEED + 9403);
    let handles: Vec<_> = (0..clients)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            let mut rng = rngs.stream(t as u64);
            std::thread::spawn(move || {
                barrier.wait();
                let deadline = Instant::now() + duration;
                let (mut ok, mut shed, mut err) = (0usize, 0usize, 0usize);
                let mut latencies = Vec::new();
                while Instant::now() < deadline {
                    let t0 = Instant::now();
                    // A fresh connection per request: every attempt goes
                    // through accept admission, so saturation is
                    // exercised where the shed policy lives.
                    let outcome =
                        HttpClient::connect(addr, Duration::from_secs(5)).and_then(|mut client| {
                            let body = format!(
                                "{{\"publisher\":{},\"consumer\":{},\"words\":[{}]}}",
                                rng.gen_range(0..num_users),
                                rng.gen_range(0..num_users),
                                rng.gen_range(0..vocab as u32),
                            );
                            client.post("/predict", &body)
                        });
                    match outcome {
                        Ok(r) if r.status == 200 => {
                            ok += 1;
                            latencies.push(1e3 * t0.elapsed().as_secs_f64());
                        }
                        Ok(r) if r.status == 503 => shed += 1,
                        Ok(_) | Err(_) => err += 1,
                    }
                }
                (ok, shed, err, latencies)
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    let (mut ok, mut shed, mut err) = (0usize, 0usize, 0usize);
    let mut latencies = Vec::new();
    for h in handles {
        let (o, s, e, l) = h.join().expect("overload client thread");
        ok += o;
        shed += s;
        err += e;
        latencies.extend(l);
    }
    let wall = t0.elapsed().as_secs_f64();
    let attempts = (ok + shed + err).max(1);
    latencies.sort_by(f64::total_cmp);
    let q = |p: f64| {
        if latencies.is_empty() {
            0.0
        } else {
            latencies[((latencies.len() - 1) as f64 * p).round() as usize]
        }
    };
    let point = OverloadPoint {
        clients,
        duration_seconds: wall,
        offered_qps: attempts as f64 / wall,
        goodput_qps: ok as f64 / wall,
        shed_rate: shed as f64 / attempts as f64,
        error_rate: err as f64 / attempts as f64,
        p50_ms: q(0.50),
        p99_ms: q(0.99),
    };
    println!(
        "  overload c={:<4} offered {:>7.0} qps  goodput {:>6.0} qps  shed {:>5.1}%  err {:>4.1}%  p99 {:.1} ms",
        point.clients,
        point.offered_qps,
        point.goodput_qps,
        100.0 * point.shed_rate,
        100.0 * point.error_rate,
        point.p99_ms
    );
    point
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (num_users, levels, per_thread): (u32, &[usize], usize) = if quick {
        (50_000, &[1, 4], 150)
    } else {
        (1_000_000, &[1, 2, 4, 8], 500)
    };
    let out_file = if quick {
        "../BENCH_serve_quick.json"
    } else {
        "../BENCH_serve.json"
    };

    let dir = std::env::temp_dir().join("cold_bench_serve");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (path, vocab) = build_artifact(num_users, &dir);
    let artifact_bytes = std::fs::metadata(&path).expect("stat").len();

    let t = Instant::now();
    let app = App::load(
        &path,
        cold_core::predict::DEFAULT_TOP_COMM,
        100,
        None,
        Metrics::enabled(),
    )
    .expect("load model");
    let app_load_seconds = t.elapsed().as_secs_f64();
    println!(
        "opened {} users zero-copy and precomputed ζ/TopComm/rankings in {app_load_seconds:.2}s",
        num_users
    );
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            io_threads: IO_THREADS,
            ..ServeConfig::default()
        },
        app,
    )
    .expect("start server");
    let addr = server.addr();

    let endpoints = [
        Workload::Predict,
        Workload::RankInfluencers,
        Workload::Communities,
        Workload::Healthz,
    ];
    let mut points = Vec::new();
    for &endpoint in &endpoints {
        for &concurrency in levels {
            points.push(run_point(
                addr,
                endpoint,
                concurrency,
                per_thread,
                num_users,
                vocab,
            ));
        }
    }
    server.shutdown();

    // Overload study: a deliberately undersized server (16 open
    // connections, 2s deadline) under offered load far beyond capacity.
    // The claim: goodput holds and p99 stays deadline-bounded while the
    // excess is shed with 503 — degradation, not collapse.
    let (overload_levels, overload_secs): (&[usize], f64) = if quick {
        (&[8, 32], 2.0)
    } else {
        (&[16, 64, 256], 4.0)
    };
    println!(
        "\noverload sweep against a constrained server \
         ({OVERLOAD_MAX_CONNS} open connections at most):"
    );
    let app = App::load(
        &path,
        cold_core::predict::DEFAULT_TOP_COMM,
        100,
        None,
        Metrics::enabled(),
    )
    .expect("reload model for overload sweep");
    let constrained = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_conns: OVERLOAD_MAX_CONNS,
            request_timeout: Duration::from_secs(2),
            ..ServeConfig::default()
        },
        app,
    )
    .expect("start constrained server");
    let overload: Vec<OverloadPoint> = overload_levels
        .iter()
        .map(|&clients| {
            run_overload_point(
                constrained.addr(),
                clients,
                Duration::from_secs_f64(overload_secs),
                num_users,
                vocab,
            )
        })
        .collect();
    constrained.shutdown();
    let _ = std::fs::remove_file(&path);

    let best_predict = points
        .iter()
        .filter(|p| p.endpoint == "/predict")
        .max_by(|a, b| a.qps.total_cmp(&b.qps))
        .expect("predict points");
    let headline = format!(
        "cold-serve answers /predict on a {}-user zero-copy model at {:.0} qps \
         (p50 {:.2} ms, p99 {:.2} ms at concurrency {}) after a {:.2}s cold start",
        num_users,
        best_predict.qps,
        best_predict.p50_ms,
        best_predict.p99_ms,
        best_predict.concurrency,
        app_load_seconds,
    );
    println!("\n{headline}");

    let report = BenchReport {
        world: "quality world fit, π tiled to deployment size".to_owned(),
        num_users,
        communities: C,
        topics: K,
        vocab_size: vocab,
        io_threads: IO_THREADS,
        artifact_bytes,
        app_load_seconds,
        points,
        overload,
        headline,
    };
    let out = cold_bench::results_dir().join(out_file);
    let json = serde_json::to_string_pretty(&report).expect("report serialization");
    std::fs::write(&out, json + "\n").expect("write bench report");
    println!("(saved {})", out.display());
}
