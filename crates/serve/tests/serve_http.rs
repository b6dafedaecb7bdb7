//! End-to-end tests of `cold-serve` over a real TCP socket: every
//! endpoint, keep-alive reuse, malformed and oversized requests,
//! concurrent clients, metrics consistency, and graceful shutdown.
#![cfg(target_os = "linux")]

mod common;

use cold_serve::app::MAX_PREDICT_WORDS;
use cold_serve::HttpClient;
use common::{json, num, TestServer};
use serde::Value;
use std::time::Duration;

#[test]
fn all_endpoints_answer_on_one_keepalive_connection_epoll() {
    let ts = TestServer::start("endpoints", |_| {});
    let mut c = ts.client();

    let health = c.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let h = json(&health.body);
    assert_eq!(h.get("status"), Some(&Value::Str("ok".into())));
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
fn caller_mistakes_are_400_not_panics_epoll() {
    let ts = TestServer::start("badreq", |_| {});
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
fn oversized_body_gets_413_epoll() {
    let ts = TestServer::start("oversize", |c| c.max_body = 256);
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
fn predict_scores_up_to_the_word_cap_and_refuses_one_past_it_epoll() {
    let ts = TestServer::start("word_cap", |_| {});
    let mut c = ts.client();
    let body = |n| {
        format!(
            "{{\"publisher\":0,\"consumer\":1,\"words\":[{}]}}",
            vec!["0"; n].join(",")
        )
    };

    let r = c.post("/predict", &body(MAX_PREDICT_WORDS)).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    // One more word is the caller's mistake, and the answer names the cap.
    let r = c.post("/predict", &body(MAX_PREDICT_WORDS + 1)).unwrap();
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("at most 1024"), "{}", r.body);
    assert!(r.keep_alive, "a refused request keeps the connection");
    // Only the request within the cap was scored.
    let m = c.get("/metrics").unwrap().body;
    assert_eq!(
        common::histogram_count_in(&m, "serve.stage.score_seconds"),
        1
    );
}

#[test]
fn concurrent_clients_all_get_consistent_answers_epoll() {
    let ts = TestServer::start("concurrent", |_| {});
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
    // Every one of those 200s was scored exactly once.
    assert_eq!(
        common::histogram_count_in(&m, "serve.stage.score_seconds"),
        101
    );
    // The snapshot is valid cold-obs/v1 JSONL.
    cold_obs::schema::validate_jsonl(&m).unwrap();
}

#[test]
fn shutdown_endpoint_stops_the_server_cleanly_epoll() {
    let mut ts = TestServer::start("shutdown", |_| {});
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
