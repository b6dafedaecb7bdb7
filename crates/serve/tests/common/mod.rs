//! Shared scaffolding for the serve integration tests: tiny trained
//! worlds, a configurable in-process server, and `/metrics` accessors.

#![allow(dead_code)]

use cold_core::{ColdConfig, ColdModel, GibbsSampler, ModelFormat};
use cold_graph::CsrGraph;
use cold_obs::Metrics;
use cold_serve::{App, HttpClient, ServeConfig, Server};
use cold_text::CorpusBuilder;
use serde::Value;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

pub const WORDS: [&str; 6] = ["football", "goal", "match", "film", "oscar", "actor"];

/// Train the standard two-block world with `seed` and save it as a
/// binary artifact at `dir/name`. Different seeds give models whose
/// `/predict` scores differ — what the reload tests key on.
pub fn model_file(dir: &Path, name: &str, seed: u64) -> PathBuf {
    save(&train(seed), dir, name)
}

/// [`model_file`] with the users tiled out to `users`: the same answers
/// for users 0..6, but an artifact whose load takes real time.
pub fn tiled_model_file(dir: &Path, name: &str, seed: u64, users: u32) -> PathBuf {
    save(&train(seed).tile_users(users), dir, name)
}

fn save(model: &ColdModel, dir: &Path, name: &str) -> PathBuf {
    let path = dir.join(name);
    model.save_as(&path, ModelFormat::Binary).unwrap();
    path
}

fn train(seed: u64) -> ColdModel {
    let mut b = CorpusBuilder::new();
    let sports = &WORDS[..3];
    let movie = &WORDS[3..];
    for u in 0..3u32 {
        for rep in 0..4u16 {
            b.push_text(u, rep % 2, sports);
        }
    }
    for u in 3..6u32 {
        for rep in 0..4u16 {
            b.push_text(u, 2 + rep % 2, movie);
        }
    }
    let corpus = b.build();
    let edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)];
    let graph = CsrGraph::from_edges(6, &edges);
    let config = ColdConfig::builder(2, 2)
        .iterations(30)
        .build(&corpus, &graph);
    GibbsSampler::new(&corpus, &graph, config, seed).run()
}

/// A world whose vocabulary has one extra word — its artifact has a
/// skewed vocab axis and must be rejected by `/reload`.
pub fn skewed_model_file(dir: &Path, name: &str) -> PathBuf {
    let mut b = CorpusBuilder::new();
    let sports = ["football", "goal", "match", "referee"];
    let movie = ["film", "oscar", "actor"];
    for u in 0..3u32 {
        for rep in 0..4u16 {
            b.push_text(u, rep % 2, &sports);
        }
    }
    for u in 3..6u32 {
        for rep in 0..4u16 {
            b.push_text(u, 2 + rep % 2, &movie);
        }
    }
    let corpus = b.build();
    let edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)];
    let graph = CsrGraph::from_edges(6, &edges);
    let config = ColdConfig::builder(2, 2)
        .iterations(10)
        .build(&corpus, &graph);
    let model = GibbsSampler::new(&corpus, &graph, config, 5).run();
    let path = dir.join(name);
    model.save_as(&path, ModelFormat::Binary).unwrap();
    path
}

pub fn vocab() -> HashMap<String, u32> {
    // Matches CorpusBuilder's insertion order in `model_file`.
    WORDS
        .iter()
        .enumerate()
        .map(|(i, w)| ((*w).to_owned(), i as u32))
        .collect()
}

pub struct TestServer {
    pub server: Option<Server>,
    pub addr: SocketAddr,
    pub dir: PathBuf,
    /// The artifact the server booted from.
    pub model: PathBuf,
}

impl TestServer {
    /// Start a server on a fresh tiny world; `configure` tweaks the
    /// defaults (port 0, everything else stock).
    pub fn start(tag: &str, configure: impl FnOnce(&mut ServeConfig)) -> Self {
        let dir = std::env::temp_dir().join(format!("cold_serve_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let model = model_file(&dir, "current.cold", 5);
        let app = App::load(&model, 2, 16, Some(vocab()), Metrics::enabled()).unwrap();
        let mut config = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..ServeConfig::default()
        };
        configure(&mut config);
        let server = Server::start(config, app).unwrap();
        let addr = server.addr();
        Self {
            server: Some(server),
            addr,
            dir,
            model,
        }
    }

    pub fn client(&self) -> HttpClient {
        HttpClient::connect(self.addr, Duration::from_secs(10)).unwrap()
    }

    /// Fetch `/metrics` and return the named counter (0 when absent —
    /// counters only appear after their first increment).
    pub fn counter(&self, name: &str) -> u64 {
        let body = self.client().get("/metrics").unwrap().body;
        counter_in(&body, name)
    }

    /// Poll until `counter(name)` reaches `want` or the timeout passes;
    /// returns the final value either way.
    pub fn wait_counter(&self, name: &str, want: u64, timeout: Duration) -> u64 {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let v = self.counter(name);
            if v >= want || std::time::Instant::now() >= deadline {
                return v;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Extract one counter from a `cold-obs/v1` JSONL snapshot body.
pub fn counter_in(metrics_body: &str, name: &str) -> u64 {
    let needle = format!("\"name\":\"{name}\"");
    for line in metrics_body.lines() {
        if line.contains("\"type\":\"counter\"") && line.contains(&needle) {
            let v = json(line);
            return num(v.get("value").unwrap()) as u64;
        }
    }
    0
}

/// Observation count of one histogram in a `cold-obs/v1` JSONL snapshot
/// body (0 when absent — histograms only appear after their first
/// observation).
pub fn histogram_count_in(metrics_body: &str, name: &str) -> u64 {
    let needle = format!("\"name\":\"{name}\"");
    metrics_body
        .lines()
        .find(|l| l.contains("\"type\":\"histogram\"") && l.contains(&needle))
        .map_or(0, |l| num(json(l).get("count").unwrap()) as u64)
}

pub fn json(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"))
}

pub fn num(v: &Value) -> f64 {
    match v {
        Value::Int(n) => *n as f64,
        Value::UInt(n) => *n as f64,
        Value::Float(f) => *f,
        other => panic!("expected number, got {other:?}"),
    }
}

pub const PREDICT: &str = "{\"publisher\":0,\"consumer\":1,\"words\":[0,1]}";

/// `POST /predict` with the canonical body and return the score.
pub fn predict_score(c: &mut HttpClient) -> f64 {
    let r = c.post("/predict", PREDICT).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    num(json(&r.body).get("score").unwrap())
}
