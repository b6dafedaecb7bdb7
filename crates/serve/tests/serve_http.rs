//! End-to-end tests of `cold-serve` over a real TCP socket: every
//! endpoint, keep-alive reuse, malformed and oversized requests,
//! concurrent clients, metrics consistency, and graceful shutdown.

mod common;

use cold_core::{ColdConfig, GibbsSampler, ModelFormat};
use cold_graph::CsrGraph;
use cold_obs::Metrics;
use cold_serve::{App, HttpClient, IoMode, ServeConfig, Server};
use cold_text::CorpusBuilder;
use serde::Value;
use std::collections::HashMap;
use std::time::Duration;

/// Train a small two-block model and save it as a binary artifact.
fn model_file(dir: &std::path::Path) -> std::path::PathBuf {
    let mut b = CorpusBuilder::new();
    let sports = ["football", "goal", "match"];
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
        .iterations(30)
        .build(&corpus, &graph);
    let model = GibbsSampler::new(&corpus, &graph, config, 5).run();
    let path = dir.join("model.cold");
    model.save_as(&path, ModelFormat::Binary).unwrap();
    path
}

fn vocab() -> HashMap<String, u32> {
    // Matches CorpusBuilder's insertion order above.
    ["football", "goal", "match", "film", "oscar", "actor"]
        .iter()
        .enumerate()
        .map(|(i, w)| ((*w).to_owned(), i as u32))
        .collect()
}

struct TestServer {
    server: Option<Server>,
    addr: std::net::SocketAddr,
    dir: std::path::PathBuf,
}

impl TestServer {
    fn start(tag: &str, mode: IoMode, max_body: usize) -> Self {
        let dir =
            std::env::temp_dir().join(format!("cold_serve_{tag}_{mode}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = model_file(&dir);
        let app = App::load(&path, 2, 16, Some(vocab()), Metrics::enabled()).unwrap();
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            io_mode: mode,
            workers: 4,
            max_body,
            ..ServeConfig::default()
        };
        let server = Server::start(config, app).unwrap();
        let addr = server.addr();
        Self {
            server: Some(server),
            addr,
            dir,
        }
    }

    fn client(&self) -> HttpClient {
        HttpClient::connect(self.addr, Duration::from_secs(10)).unwrap()
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

fn json(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"))
}

fn num(v: &Value) -> f64 {
    match v {
        Value::Int(n) => *n as f64,
        Value::UInt(n) => *n as f64,
        Value::Float(f) => *f,
        other => panic!("expected number, got {other:?}"),
    }
}

fn all_endpoints_answer_on_one_keepalive_connection(mode: IoMode) {
    let ts = TestServer::start("endpoints", mode, 64 * 1024);
    let mut c = ts.client();

    let health = c.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let h = json(&health.body);
    assert_eq!(h.get("status"), Some(&Value::Str("ok".into())));
    assert_eq!(h.get("backing"), Some(&Value::Str("mapped".into())));
    assert_eq!(num(h.get("users").unwrap()) as u32, 6);

    let predict = c
        .post(
            "/predict",
            "{\"publisher\":0,\"consumer\":1,\"words\":[0,1]}",
        )
        .unwrap();
    assert_eq!(predict.status, 200, "{}", predict.body);
    let p = json(&predict.body);
    let score = num(p.get("score").unwrap());
    assert!(score.is_finite() && score >= 0.0);

    // String words resolve through the vocabulary and give the same score.
    let by_name = c
        .post(
            "/predict",
            "{\"publisher\":0,\"consumer\":1,\"words\":[\"football\",\"goal\"]}",
        )
        .unwrap();
    assert_eq!(by_name.status, 200);
    assert_eq!(num(json(&by_name.body).get("score").unwrap()), score);

    let rank = c
        .post("/rank-influencers", "{\"topic\":0,\"limit\":3}")
        .unwrap();
    assert_eq!(rank.status, 200, "{}", rank.body);
    let r = json(&rank.body);
    let influencers = r.get("influencers").unwrap().as_array().unwrap();
    assert_eq!(influencers.len(), 3);
    let scores: Vec<f64> = influencers
        .iter()
        .map(|e| num(e.get("influence").unwrap()))
        .collect();
    assert!(scores.windows(2).all(|w| w[0] >= w[1]), "{scores:?}");

    let communities = c.get("/communities/2").unwrap();
    assert_eq!(communities.status, 200);
    let cm = json(&communities.body);
    assert_eq!(num(cm.get("user").unwrap()) as u32, 2);
    assert_eq!(
        cm.get("top_communities").unwrap().as_array().unwrap().len(),
        2
    );
    let pi: Vec<f64> = cm
        .get("memberships")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(num)
        .collect();
    assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);

    let metrics = c.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("serve.predict_seconds"));

    // Every one of those answers arrived on the same connection.
    assert!(metrics.keep_alive);
}

#[test]
fn all_endpoints_answer_on_one_keepalive_connection_threads() {
    all_endpoints_answer_on_one_keepalive_connection(IoMode::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn all_endpoints_answer_on_one_keepalive_connection_epoll() {
    all_endpoints_answer_on_one_keepalive_connection(IoMode::Epoll);
}

fn caller_mistakes_are_400_not_panics(mode: IoMode) {
    let ts = TestServer::start("badreq", mode, 64 * 1024);
    let mut c = ts.client();

    // Unknown user id.
    let r = c
        .post(
            "/predict",
            "{\"publisher\":999,\"consumer\":1,\"words\":[0]}",
        )
        .unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body.contains("unknown user id 999"), "{}", r.body);

    // Out-of-vocabulary word id.
    let r = c
        .post(
            "/predict",
            "{\"publisher\":0,\"consumer\":1,\"words\":[4096]}",
        )
        .unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body.contains("unknown word id"), "{}", r.body);

    // Unknown string word.
    let r = c
        .post(
            "/predict",
            "{\"publisher\":0,\"consumer\":1,\"words\":[\"zyzzy\"]}",
        )
        .unwrap();
    assert_eq!(r.status, 400);

    // Empty word list is a defined score, not an error.
    let r = c
        .post("/predict", "{\"publisher\":0,\"consumer\":0,\"words\":[]}")
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);

    // Malformed JSON.
    let r = c.post("/predict", "{not json").unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body.contains("error"));

    // Missing field.
    let r = c.post("/predict", "{\"publisher\":0}").unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body.contains("consumer"), "{}", r.body);

    // Unknown topic on the ranking endpoint.
    let r = c.post("/rank-influencers", "{\"topic\":42}").unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body.contains("unknown topic 42"), "{}", r.body);

    // Non-numeric user segment.
    let r = c.get("/communities/bob").unwrap();
    assert_eq!(r.status, 400);

    // Unknown path and wrong method.
    assert_eq!(c.get("/nope").unwrap().status, 404);
    assert_eq!(c.get("/predict").unwrap().status, 405);

    // The server is still healthy after all of that.
    assert_eq!(c.get("/healthz").unwrap().status, 200);
}

#[test]
fn caller_mistakes_are_400_not_panics_threads() {
    caller_mistakes_are_400_not_panics(IoMode::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn caller_mistakes_are_400_not_panics_epoll() {
    caller_mistakes_are_400_not_panics(IoMode::Epoll);
}

fn oversized_body_gets_413(mode: IoMode) {
    let ts = TestServer::start("oversize", mode, 256);
    let mut c = ts.client();
    let huge = format!(
        "{{\"publisher\":0,\"consumer\":1,\"words\":[{}]}}",
        vec!["0"; 400].join(",")
    );
    let r = c.post("/predict", &huge).unwrap();
    assert_eq!(r.status, 413, "{}", r.body);
    assert!(!r.keep_alive, "oversized requests close the connection");
}

#[test]
fn oversized_body_gets_413_threads() {
    oversized_body_gets_413(IoMode::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn oversized_body_gets_413_epoll() {
    oversized_body_gets_413(IoMode::Epoll);
}

fn concurrent_clients_all_get_consistent_answers(mode: IoMode) {
    let ts = TestServer::start("concurrent", mode, 64 * 1024);
    // Reference answer on a warm connection.
    let mut c = ts.client();
    let reference = num(json(
        &c.post(
            "/predict",
            "{\"publisher\":0,\"consumer\":1,\"words\":[0,1]}",
        )
        .unwrap()
        .body,
    )
    .get("score")
    .unwrap());

    let addr = ts.addr;
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(addr, Duration::from_secs(10)).unwrap();
                let mut scores = Vec::new();
                for _ in 0..25 {
                    let r = c
                        .post(
                            "/predict",
                            "{\"publisher\":0,\"consumer\":1,\"words\":[0,1]}",
                        )
                        .unwrap();
                    assert_eq!(r.status, 200);
                    scores.push(num(json(&r.body).get("score").unwrap()));
                }
                scores
            })
        })
        .collect();
    for h in handles {
        for s in h.join().unwrap() {
            assert_eq!(s, reference, "same query must give the same score");
        }
    }

    // Metrics saw every request: 4 threads × 25 + the reference call.
    let m = c.get("/metrics").unwrap().body;
    let predict_line = m
        .lines()
        .find(|l| l.contains("serve.predict_seconds"))
        .expect("predict histogram present");
    let parsed = json(predict_line);
    assert_eq!(num(parsed.get("count").unwrap()) as u64, 101);
    // Every one of those 200s passed through both scorer stages once.
    for stage in ["serve.stage.queue_seconds", "serve.stage.score_seconds"] {
        assert_eq!(common::histogram_count_in(&m, stage), 101, "{stage}");
    }
    // The snapshot is valid cold-obs/v1 JSONL.
    cold_obs::schema::validate_jsonl(&m).unwrap();
}

#[test]
fn concurrent_clients_all_get_consistent_answers_threads() {
    concurrent_clients_all_get_consistent_answers(IoMode::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn concurrent_clients_all_get_consistent_answers_epoll() {
    concurrent_clients_all_get_consistent_answers(IoMode::Epoll);
}

fn shutdown_endpoint_stops_the_server_cleanly(mode: IoMode) {
    let mut ts = TestServer::start("shutdown", mode, 64 * 1024);
    let mut c = ts.client();
    assert_eq!(c.get("/healthz").unwrap().status, 200);
    let r = c.post("/shutdown", "").unwrap();
    assert_eq!(r.status, 200);
    assert!(!r.keep_alive, "shutdown response closes the connection");
    // join() returns only after every thread exited.
    ts.server.take().unwrap().join();
    // New connections are refused (or immediately closed) afterwards.
    let after = HttpClient::connect(ts.addr, Duration::from_millis(500))
        .and_then(|mut c| c.get("/healthz"));
    assert!(after.is_err(), "server still answering after shutdown");
}

#[test]
fn shutdown_endpoint_stops_the_server_cleanly_threads() {
    shutdown_endpoint_stops_the_server_cleanly(IoMode::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn shutdown_endpoint_stops_the_server_cleanly_epoll() {
    shutdown_endpoint_stops_the_server_cleanly(IoMode::Epoll);
}
