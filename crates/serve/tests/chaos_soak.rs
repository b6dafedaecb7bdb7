//! Chaos soak: seeded network faults and injected panics against a live
//! server, with healthy traffic interleaved. The claims under test:
//! hostile peers cost the server one connection each, never a worker and
//! never a healthy client's answer; overload sheds exactly; panics are
//! contained, counted, and survived; a crash-looping pool degrades
//! loudly instead of dying.
#![cfg(target_os = "linux")]

mod common;

use cold_serve::chaos::ChaosPlan;
use cold_serve::HttpClient;
use common::{json, num, predict_score, TestServer, PREDICT};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

#[test]
fn healthy_traffic_survives_chaos_mix_epoll() {
    let ts = TestServer::start("soak", |_| {});
    let mut c = ts.client();
    let reference = predict_score(&mut c);
    drop(c);

    let addr = ts.addr;
    let healthy: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(addr, Duration::from_secs(10)).unwrap();
                let mut scores = Vec::new();
                for _ in 0..50 {
                    let r = c.post("/predict", PREDICT).unwrap();
                    assert_eq!(r.status, 200, "healthy request failed: {}", r.body);
                    scores.push(num(json(&r.body).get("score").unwrap()));
                }
                scores
            })
        })
        .collect();
    let chaos: Vec<_> = (0..3u64)
        .map(|seed| {
            std::thread::spawn(move || {
                let mut plan = ChaosPlan::new(0xC0FFEE ^ seed);
                plan.stall = Duration::from_millis(150);
                for _ in 0..10 {
                    let fault = plan.next_fault();
                    plan.run(addr, fault);
                }
            })
        })
        .collect();

    for h in chaos {
        h.join().unwrap();
    }
    for h in healthy {
        for s in h.join().unwrap() {
            assert_eq!(s, reference, "score drifted under chaos");
        }
    }

    // The process took every fault on the chin: no worker died, nothing
    // was shed (the healthy load is far below the queue bounds), and the
    // server still answers.
    let m = ts.client().get("/metrics").unwrap();
    assert_eq!(m.status, 200);
    cold_obs::schema::validate_jsonl(&m.body).unwrap();
    assert_eq!(common::counter_in(&m.body, "serve.worker_panics"), 0);
    assert_eq!(common::counter_in(&m.body, "serve.shed"), 0);
    assert_eq!(ts.client().get("/healthz").unwrap().status, 200);
}

#[test]
fn handler_panic_is_contained_to_one_connection_epoll() {
    let ts = TestServer::start("panic", |c| c.chaos_endpoints = true);
    let mut c = ts.client();
    let reference = predict_score(&mut c);

    // The injected panic unwinds out of the handler; the event loop's
    // catch_unwind turns it into a 500 on this connection only.
    let r = ts.client().post("/chaos/panic", "").unwrap();
    assert_eq!(r.status, 500, "{}", r.body);
    assert!(!r.keep_alive);

    // Same pool, same answers, exact accounting: one contained panic,
    // zero respawns (no thread died).
    assert_eq!(predict_score(&mut ts.client()), reference);
    assert_eq!(ts.counter("serve.worker_panics"), 1);
    assert_eq!(ts.counter("serve.worker_respawns"), 0);
    assert_eq!(ts.client().get("/healthz").unwrap().status, 200);
}

#[test]
fn killed_workers_are_respawned_by_the_supervisor_epoll() {
    let ts = TestServer::start("respawn", |c| c.chaos_endpoints = true);
    let mut c = ts.client();
    let reference = predict_score(&mut c);

    for round in 1..=3u64 {
        let r = ts.client().post("/chaos/panic-worker", "").unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        // A poisoned scorer panics after the response is queued; the
        // supervisor notices within its poll interval and replaces it.
        let respawns = ts.wait_counter("serve.worker_respawns", round, Duration::from_secs(5));
        assert_eq!(respawns, round, "supervisor did not respawn worker");
    }

    assert_eq!(ts.counter("serve.worker_panics"), 3);
    let health = ts.client().get("/healthz").unwrap();
    assert_eq!(health.status, 200, "{}", health.body);
    assert_eq!(predict_score(&mut ts.client()), reference);
}

#[test]
fn respawn_breaker_flips_healthz_to_degraded_epoll() {
    let ts = TestServer::start("breaker", |c| {
        c.chaos_endpoints = true;
        c.workers = 2;
        c.respawn_limit = 1;
    });
    let mut c = ts.client();
    let reference = predict_score(&mut c);

    // First kill: within budget, respawned.
    assert_eq!(
        ts.client().post("/chaos/panic-worker", "").unwrap().status,
        200
    );
    assert_eq!(
        ts.wait_counter("serve.worker_respawns", 1, Duration::from_secs(5)),
        1
    );
    // Second kill: over budget — no respawn, the breaker trips instead.
    assert_eq!(
        ts.client().post("/chaos/panic-worker", "").unwrap().status,
        200
    );
    assert_eq!(
        ts.wait_counter("serve.worker_panics", 2, Duration::from_secs(5)),
        2
    );

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let health = loop {
        let h = ts.client().get("/healthz").unwrap();
        if h.status == 503 || std::time::Instant::now() >= deadline {
            break h;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(health.status, 503, "{}", health.body);
    assert!(health.body.contains("degraded"), "{}", health.body);
    assert_eq!(
        ts.counter("serve.worker_respawns"),
        1,
        "breaker respawned past the cap"
    );

    // Degraded, not dead: the surviving worker still answers correctly.
    assert_eq!(predict_score(&mut ts.client()), reference);
}

#[test]
fn stalled_request_times_out_with_408_and_frees_the_worker_epoll() {
    let ts = TestServer::start("stall408", |c| {
        c.workers = 1;
        c.request_timeout = Duration::from_millis(300);
    });
    let mut warm = ts.client();
    let reference = predict_score(&mut warm);

    // Arm the clock with a partial request, then stall.
    let mut stall = TcpStream::connect(ts.addr).unwrap();
    stall
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stall.write_all(b"POST /pre").unwrap();
    stall.flush().unwrap();
    let mut buf = [0u8; 256];
    let n = stall.read(&mut buf).unwrap();
    let head = String::from_utf8_lossy(&buf[..n]).to_string();
    assert!(head.starts_with("HTTP/1.1 408"), "{head}");

    // The server still answers, and correctly.
    assert_eq!(predict_score(&mut ts.client()), reference);
    assert!(ts.counter("serve.request_timeouts") >= 1);
}
