//! Hot model reload: `POST /reload` and `--watch-model` against a live
//! server. The claims under test: a valid artifact swaps in atomically
//! under concurrent load (every in-flight request finishes on the model
//! it started with, and per-connection score streams are a clean
//! old-prefix/new-suffix); a corrupt or dimension-skewed artifact is
//! rejected with the old model still serving.
#![cfg(target_os = "linux")]

mod common;

use cold_serve::HttpClient;
use common::{json, model_file, num, predict_score, skewed_model_file, TestServer, PREDICT};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn reload_swaps_models_atomically_under_load_epoll() {
    let ts = TestServer::start("reload_load", |_| {});
    let next = model_file(&ts.dir, "next.cold", 77);
    let mut c = ts.client();
    let score_a = predict_score(&mut c);

    let stop = Arc::new(AtomicBool::new(false));
    let addr = ts.addr;
    let hammers: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(addr, Duration::from_secs(10)).unwrap();
                let mut scores = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let r = c.post("/predict", PREDICT).unwrap();
                    assert_eq!(r.status, 200, "{}", r.body);
                    scores.push(num(json(&r.body).get("score").unwrap()));
                }
                scores
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(100));
    let r = c
        .post("/reload", &format!("{{\"model\":\"{}\"}}", next.display()))
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let outcome = json(&r.body);
    assert_eq!(num(outcome.get("generation").unwrap()) as u64, 1);
    std::thread::sleep(Duration::from_millis(200));
    stop.store(true, Ordering::Relaxed);

    let score_b = predict_score(&mut ts.client());
    assert_ne!(score_a, score_b, "retrained model must score differently");

    for h in hammers {
        let scores = h.join().unwrap();
        assert!(!scores.is_empty());
        // Atomicity, as seen from one connection: a prefix of old-model
        // scores, then only new-model scores — nothing else, no
        // interleaving back.
        let flip = scores
            .iter()
            .position(|&s| s == score_b)
            .unwrap_or(scores.len());
        for (i, &s) in scores.iter().enumerate() {
            if i < flip {
                assert_eq!(s, score_a, "pre-swap request scored on the wrong model");
            } else {
                assert_eq!(s, score_b, "post-swap request reverted to the old model");
            }
        }
    }

    // /healthz reports the new generation.
    let h = json(&ts.client().get("/healthz").unwrap().body);
    assert_eq!(num(h.get("generation").unwrap()) as u64, 1);
    assert_eq!(ts.counter("serve.reloads_ok"), 1);
}

#[test]
fn corrupt_and_skewed_reloads_are_rejected_epoll() {
    let ts = TestServer::start("reload_bad", |_| {});
    let mut c = ts.client();
    let score_a = predict_score(&mut c);

    // Truncated artifact: fails verification before any swap.
    let bytes = std::fs::read(&ts.model).unwrap();
    let corrupt = ts.dir.join("corrupt.cold");
    std::fs::write(&corrupt, &bytes[..200.min(bytes.len())]).unwrap();
    let r = c
        .post(
            "/reload",
            &format!("{{\"model\":\"{}\"}}", corrupt.display()),
        )
        .unwrap();
    assert_eq!(r.status, 409, "{}", r.body);
    assert!(r.body.contains("artifact rejected"), "{}", r.body);

    // Vocab-axis skew: verifies fine, but the serving vocabulary would
    // silently mis-resolve words — rejected.
    let skewed = skewed_model_file(&ts.dir, "skewed.cold");
    let r = c
        .post(
            "/reload",
            &format!("{{\"model\":\"{}\"}}", skewed.display()),
        )
        .unwrap();
    assert_eq!(r.status, 409, "{}", r.body);
    assert!(r.body.contains("vocab axis changed"), "{}", r.body);

    // Nonexistent path.
    let r = c
        .post("/reload", "{\"model\":\"/nope/missing.cold\"}")
        .unwrap();
    assert_eq!(r.status, 409, "{}", r.body);

    // Malformed body is the caller's fault, not a reload failure.
    let r = c.post("/reload", "{\"model\":42}").unwrap();
    assert_eq!(r.status, 400, "{}", r.body);

    // Through all of it the old model kept serving, bit-identically.
    assert_eq!(predict_score(&mut c), score_a);
    let h = json(&ts.client().get("/healthz").unwrap().body);
    assert_eq!(num(h.get("generation").unwrap()) as u64, 0);
    assert_eq!(ts.counter("serve.reloads_failed"), 3);
    assert_eq!(ts.counter("serve.reloads_ok"), 0);
}

#[test]
fn watch_model_picks_up_a_replaced_artifact_epoll() {
    let ts = TestServer::start("watch", |c| {
        c.watch_model = Some(Duration::from_millis(150));
    });
    let mut c = ts.client();
    let score_a = predict_score(&mut c);

    // Stage the retrained artifact next to the live one, then swap it in
    // with an atomic rename — the reloader's watch must verify and
    // reload it.
    let staged = model_file(&ts.dir, "staged.cold", 77);
    std::fs::rename(&staged, &ts.model).unwrap();

    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    let score_b = loop {
        let s = predict_score(&mut ts.client());
        if s != score_a {
            break s;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the watch never picked up the replaced artifact"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    assert_ne!(score_b, score_a);
    assert_eq!(ts.counter("serve.watch_reloads"), 1);
    let h = json(&ts.client().get("/healthz").unwrap().body);
    assert_eq!(num(h.get("generation").unwrap()) as u64, 1);
}
