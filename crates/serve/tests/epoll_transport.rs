//! Epoll-transport-specific behavior (Linux only): the open-connection
//! cap, cross-loop connection handoff, incremental parsing of split and
//! pipelined requests, and the transport's own metrics
//! (`serve.open_conns`, `serve.epoll_wakeups`, `serve.io_read_partial`,
//! `serve.io_write_partial`). Transport-agnostic semantics are covered
//! by the parameterized chaos/reload/http suites.
#![cfg(target_os = "linux")]

mod common;

use cold_serve::IoMode;
use common::{json, num, predict_score, TestServer, PREDICT};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Extract one gauge from a `cold-obs/v1` JSONL snapshot body.
fn gauge_in(metrics_body: &str, name: &str) -> Option<f64> {
    let needle = format!("\"name\":\"{name}\"");
    metrics_body
        .lines()
        .find(|l| l.contains("\"type\":\"gauge\"") && l.contains(&needle))
        .map(|l| num(json(l).get("value").unwrap()))
}

#[test]
fn open_connection_cap_sheds_with_503() {
    let ts = TestServer::start_with_mode("epoll_cap", IoMode::Epoll, |c| {
        c.max_conns = 2;
    });
    // Two live connections occupy the cap.
    let mut a = ts.client();
    let mut b = ts.client();
    assert_eq!(a.get("/healthz").unwrap().status, 200);
    assert_eq!(b.get("/healthz").unwrap().status, 200);

    // Beyond the cap: shed at accept with 503 + Retry-After, before the
    // client sends a single byte.
    for _ in 0..3 {
        let mut s = TcpStream::connect(ts.addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1024];
        let n = s.read(&mut buf).unwrap();
        let head = String::from_utf8_lossy(&buf[..n]).to_string();
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert!(
            head.to_ascii_lowercase().contains("retry-after: 1"),
            "shed response lacks Retry-After: {head}"
        );
    }

    // Release a slot so the metrics fetch itself isn't shed, and give
    // the loop a tick to notice the close.
    drop(b);
    std::thread::sleep(Duration::from_millis(200));

    let m = ts.client().get("/metrics").unwrap().body;
    cold_obs::schema::validate_jsonl(&m).unwrap();
    assert_eq!(common::counter_in(&m, "serve.shed_conns"), 3);
    assert_eq!(common::counter_in(&m, "serve.shed"), 3);
    assert!(
        gauge_in(&m, "serve.open_conns_peak").unwrap_or(0.0) >= 2.0,
        "peak gauge never saw the cap"
    );
    // The capped connections still answer.
    assert_eq!(a.get("/healthz").unwrap().status, 200);
}

#[test]
fn connections_are_handed_across_io_loops() {
    let ts = TestServer::start_with_mode("epoll_handoff", IoMode::Epoll, |c| {
        c.io_threads = 2;
        c.workers = 2;
    });
    let mut c = ts.client();
    let reference = predict_score(&mut c);

    // More concurrent connections than loops: round-robin handoff puts
    // some on loop 1, whose completions travel back over its eventfd.
    let addr = ts.addr;
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = cold_serve::HttpClient::connect(addr, Duration::from_secs(10)).unwrap();
                let mut scores = Vec::new();
                for _ in 0..10 {
                    let r = c.post("/predict", PREDICT).unwrap();
                    assert_eq!(r.status, 200, "{}", r.body);
                    scores.push(num(json(&r.body).get("score").unwrap()));
                }
                (scores, c.reconnects())
            })
        })
        .collect();
    for h in handles {
        let (scores, reconnects) = h.join().unwrap();
        for s in scores {
            assert_eq!(s, reference, "score drifted across io loops");
        }
        assert_eq!(reconnects, 0, "keep-alive reuse must hold under epoll");
    }
    let m = ts.client().get("/metrics").unwrap().body;
    assert_eq!(common::counter_in(&m, "serve.worker_panics"), 0);
    // 1 + 4 × 10 answers, each timed once per stage by whichever of the
    // two scorers took it.
    for stage in ["serve.stage.queue_seconds", "serve.stage.score_seconds"] {
        assert_eq!(common::histogram_count_in(&m, stage), 41, "{stage}");
    }
}

#[test]
fn split_and_pipelined_requests_parse_incrementally() {
    let ts = TestServer::start_with_mode("epoll_pipeline", IoMode::Epoll, |_| {});

    // Two complete requests in one write: both answered, in order, on
    // the same connection.
    let mut s = TcpStream::connect(ts.addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.set_nodelay(true).unwrap();
    let one = "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n";
    s.write_all(format!("{one}{one}").as_bytes()).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while buf.windows(12).filter(|w| w == b"HTTP/1.1 200").count() < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "pipelined responses never arrived: {:?}",
            String::from_utf8_lossy(&buf)
        );
        if let Ok(n) = s.read(&mut chunk) {
            assert!(n > 0, "connection closed mid-pipeline");
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    // One request split mid-header across two writes: the loop buffers
    // the partial (`serve.io_read_partial`) and finishes the parse when
    // the rest lands.
    let request = format!(
        "POST /predict HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{PREDICT}",
        PREDICT.len()
    );
    let (head, tail) = request.split_at(20);
    s.write_all(head.as_bytes()).unwrap();
    s.flush().unwrap();
    std::thread::sleep(Duration::from_millis(150));
    s.write_all(tail.as_bytes()).unwrap();
    let mut buf = [0u8; 4096];
    let n = s.read(&mut buf).unwrap();
    let head = String::from_utf8_lossy(&buf[..n]).to_string();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");

    let m = ts.client().get("/metrics").unwrap().body;
    cold_obs::schema::validate_jsonl(&m).unwrap();
    // The one /predict 200 passed through both scorer stages once.
    assert_eq!(common::histogram_count_in(&m, "serve.predict_seconds"), 1);
    for stage in ["serve.stage.queue_seconds", "serve.stage.score_seconds"] {
        assert_eq!(common::histogram_count_in(&m, stage), 1, "{stage}");
    }
    assert!(
        common::counter_in(&m, "serve.io_read_partial") >= 1,
        "split request never counted as a partial read"
    );
    assert!(
        common::counter_in(&m, "serve.epoll_wakeups") >= 1,
        "event loop wakeups not visible in /metrics"
    );
    assert!(
        gauge_in(&m, "serve.open_conns").is_some(),
        "open-connection gauge missing"
    );
    assert!(
        gauge_in(&m, "serve.open_conns_peak").unwrap_or(0.0) >= 1.0,
        "open-connection peak never moved"
    );
}

#[test]
fn io_mode_parses_and_displays() {
    assert_eq!("epoll".parse::<IoMode>().unwrap(), IoMode::Epoll);
    assert_eq!("threads".parse::<IoMode>().unwrap(), IoMode::Threads);
    assert_eq!("THREAD".parse::<IoMode>().unwrap(), IoMode::Threads);
    assert!("kqueue".parse::<IoMode>().is_err());
    assert_eq!(IoMode::Epoll.to_string(), "epoll");
    assert_eq!(IoMode::Threads.to_string(), "threads");
}
