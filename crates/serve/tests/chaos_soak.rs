//! Chaos soak: seeded network faults and injected panics against a live
//! server, with healthy traffic interleaved. The claims under test:
//! hostile peers cost the server one connection each, never a thread and
//! never a healthy client's answer; a handler panic is contained to its
//! connection, counted, and survived; an event loop that dies anyway
//! degrades `/healthz` loudly while the other loops keep serving.
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

    // The process took every fault on the chin: no handler panicked,
    // nothing was shed (the healthy load is far below the connection
    // cap), and the server still answers.
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

    // Same loops, same answers, exact accounting: one contained panic,
    // and no loop died.
    assert_eq!(predict_score(&mut ts.client()), reference);
    assert_eq!(ts.counter("serve.worker_panics"), 1);
    assert_eq!(ts.counter("serve.io_loop_panics"), 0);
    assert_eq!(ts.client().get("/healthz").unwrap().status, 200);
}

#[test]
fn a_dead_io_loop_flips_healthz_to_degraded_epoll() {
    let ts = TestServer::start("loop_death", |c| {
        c.chaos_endpoints = true;
        c.io_threads = 2;
    });
    // Connections are handed out round-robin from loop 0: A lands on
    // loop 0, B on loop 1. B is a raw socket, so nothing retries its
    // request on a fresh connection (which would land on loop 0).
    let mut a = ts.client();
    let reference = predict_score(&mut a);
    let mut b = TcpStream::connect(ts.addr).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // The panic escapes the per-request catch and ends loop 1, which
    // closes B unanswered on its way out.
    b.write_all(b"POST /chaos/panic-loop HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n")
        .unwrap();
    let mut buf = [0u8; 256];
    match b.read(&mut buf) {
        Ok(n) => assert_eq!(n, 0, "{:?}", String::from_utf8_lossy(&buf[..n])),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }

    // Loop 0 lives on: A still scores, and /healthz reports the loss.
    let health = a.get("/healthz").unwrap();
    assert_eq!(health.status, 503, "{}", health.body);
    assert!(
        health.body.contains("\"status\":\"degraded\""),
        "{}",
        health.body
    );
    assert_eq!(predict_score(&mut a), reference);
    let m = a.get("/metrics").unwrap().body;
    assert_eq!(common::counter_in(&m, "serve.io_loop_panics"), 1);
    assert_eq!(common::counter_in(&m, "serve.worker_panics"), 0);
    assert_eq!(a.reconnects(), 0, "A stayed on loop 0 throughout");
}

#[test]
fn stalled_request_times_out_with_408_and_frees_the_worker_epoll() {
    let ts = TestServer::start("stall408", |c| {
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
