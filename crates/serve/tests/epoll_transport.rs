//! The event loops' own behavior: the open-connection cap, concurrent
//! keep-alive clients across loops, incremental parsing of split and
//! pipelined requests, reloads kept off the loop, the reloader's one-slot queue
//! and the reload deadline, and the transport's own metrics
//! (`serve.open_conns`, `serve.epoll_wakeups`, `serve.io_read_partial`).
//! Endpoint semantics are covered by the chaos/reload/http suites.
#![cfg(target_os = "linux")]

mod common;

use common::{
    gauge_in, json, model_file, num, predict_score, tiled_model_file, TestServer, PREDICT,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Users in the artifact the slow-reload tests load: enough that loading
/// it (predictor and influencer-ranking precompute) takes far longer
/// than answering a `/predict`.
const SLOW_LOAD_USERS: u32 = 1_000_000;

#[test]
fn open_connection_cap_sheds_with_503() {
    let ts = TestServer::start("epoll_cap", |c| {
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
fn concurrent_keep_alive_clients_get_identical_scores_each_scored_once() {
    let ts = TestServer::start("epoll_concurrent", |c| {
        c.io_threads = 2;
    });
    let mut c = ts.client();
    let reference = predict_score(&mut c);

    // More concurrent keep-alive connections than loops, each owned by
    // whichever loop accepted it and scored there.
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
            assert_eq!(s, reference, "score drifted between connections");
        }
        assert_eq!(reconnects, 0, "keep-alive reuse must hold under epoll");
    }
    let m = ts.client().get("/metrics").unwrap().body;
    assert_eq!(common::counter_in(&m, "serve.worker_panics"), 0);
    // 1 + 4 × 10 answers, each scored once by the loop that owns its
    // connection.
    assert_eq!(
        common::histogram_count_in(&m, "serve.stage.score_seconds"),
        41
    );
}

#[test]
fn split_and_pipelined_requests_parse_incrementally() {
    let ts = TestServer::start("epoll_pipeline", |_| {});

    // Two complete requests in one write: both answered, in order, on
    // the same connection.
    let mut s = TcpStream::connect(ts.addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.set_nodelay(true).unwrap();
    let one = "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n";
    s.write_all(format!("{one}{one}").as_bytes()).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(5);
    while buf.windows(12).filter(|w| w == b"HTTP/1.1 200").count() < 2 {
        assert!(
            Instant::now() < deadline,
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
    // The one /predict 200 was scored once.
    assert_eq!(common::histogram_count_in(&m, "serve.predict_seconds"), 1);
    assert_eq!(
        common::histogram_count_in(&m, "serve.stage.score_seconds"),
        1
    );
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

/// Send a raw `POST` on a fresh connection without reading the answer.
fn post_unread(addr: std::net::SocketAddr, path: &str, body: &str) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    let request = format!(
        "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(request.as_bytes()).unwrap();
    s
}

/// Read one whole response (headers + `content-length` body).
fn read_response(s: &mut TcpStream, timeout: Duration) -> String {
    s.set_read_timeout(Some(timeout)).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let text = String::from_utf8_lossy(&buf).to_string();
        if let Some((head, body)) = text.split_once("\r\n\r\n") {
            let len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length: "))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0);
            if body.len() >= len {
                return text;
            }
        }
        let n = s.read(&mut chunk).expect("response within the timeout");
        assert!(n > 0, "connection closed mid-response: {text:?}");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn reload_runs_off_the_event_loop() {
    // One event loop owns both connections: a reload run on it would
    // hold up the other connection's /predict until the load finished.
    let ts = TestServer::start("offloop_reload", |c| {
        c.io_threads = 1;
    });
    let big = tiled_model_file(&ts.dir, "big.cold", 5, SLOW_LOAD_USERS);
    let reference = predict_score(&mut ts.client());

    // A: the reload, unread. B: a /predict on another connection.
    let t0 = Instant::now();
    let mut a = post_unread(
        ts.addr,
        "/reload",
        &format!("{{\"model\":\"{}\"}}", big.display()),
    );
    assert_eq!(predict_score(&mut ts.client()), reference);
    let b_done = t0.elapsed();

    // B was answered while A's reload was still loading.
    a.set_nonblocking(true).unwrap();
    let pending = a.read(&mut [0u8; 64]);
    assert!(
        matches!(&pending, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
        "the reload answered before the /predict on the other connection ({b_done:?}): {pending:?}"
    );
    a.set_nonblocking(false).unwrap();

    // A then gets its 200 with the new generation.
    let answer = read_response(&mut a, Duration::from_secs(120));
    assert!(answer.starts_with("HTTP/1.1 200"), "{answer}");
    let body = answer.split("\r\n\r\n").nth(1).unwrap();
    assert_eq!(num(json(body).get("generation").unwrap()) as u64, 1);
    assert_eq!(
        num(json(body).get("users").unwrap()) as u32,
        SLOW_LOAD_USERS
    );
    assert_eq!(ts.counter("serve.reloads_ok"), 1);
}

#[test]
fn a_job_that_misses_its_deadline_gets_503() {
    // A reload of the 10⁶-user artifact cannot finish within a 10 ms
    // deadline: the loop answers 503 + Retry-After on time, and the
    // reloader, which took the job before it expired, still swaps the
    // model in.
    let ts = TestServer::start("reload_deadline", |c| {
        c.request_timeout = Duration::from_millis(10);
    });
    let big = tiled_model_file(&ts.dir, "big.cold", 5, SLOW_LOAD_USERS);
    let r = ts
        .client()
        .post("/reload", &format!("{{\"model\":\"{}\"}}", big.display()))
        .unwrap();
    assert_eq!(r.status, 503, "{}", r.body);
    assert_eq!(r.retry_after, Some(1));
    assert!(r.body.contains("missed the request deadline"), "{}", r.body);
    assert!(r.keep_alive, "a missed deadline keeps the connection");

    let deadline = Instant::now() + Duration::from_secs(120);
    while ts.counter("serve.reloads_ok") < 1 {
        assert!(Instant::now() < deadline, "the reload never finished");
        std::thread::sleep(Duration::from_millis(50));
    }
    let h = json(&ts.client().get("/healthz").unwrap().body);
    assert_eq!(num(h.get("generation").unwrap()) as u64, 1);
    assert_eq!(num(h.get("users").unwrap()) as u32, SLOW_LOAD_USERS);
    assert!(ts.counter("serve.request_timeouts") >= 1);
    assert!(ts.counter("serve.responses_503") >= 1);
}

#[test]
fn concurrent_reloads_beyond_one_waiting_are_shed() {
    // No deadline: only the queue bound is at work.
    let ts = TestServer::start("reload_slot", |c| c.request_timeout = Duration::ZERO);
    let big = tiled_model_file(&ts.dir, "big.cold", 5, SLOW_LOAD_USERS);
    let next = model_file(&ts.dir, "next.cold", 77);
    let reload = |path: &std::path::Path| format!("{{\"model\":\"{}\"}}", path.display());

    // A: the slow reload. Once its artifact is open (the boot load was
    // the first open), the reloader is busy with it.
    let mut a = post_unread(ts.addr, "/reload", &reload(&big));
    let deadline = Instant::now() + Duration::from_secs(120);
    while common::histogram_count_in(
        &ts.client().get("/metrics").unwrap().body,
        "serve.model_open_seconds",
    ) < 2
    {
        assert!(Instant::now() < deadline, "the reloader never took A");
        std::thread::sleep(Duration::from_millis(20));
    }
    // B and C: whichever is dispatched first waits in the one slot, the
    // other finds it full.
    let mut b = post_unread(ts.addr, "/reload", &reload(&next));
    let mut c = post_unread(ts.addr, "/reload", &reload(&next));

    let body = |answer: &str| json(answer.split("\r\n\r\n").nth(1).unwrap());
    let answer = read_response(&mut a, Duration::from_secs(120));
    assert!(answer.starts_with("HTTP/1.1 200"), "{answer}");
    assert_eq!(num(body(&answer).get("generation").unwrap()) as u64, 1);
    let mut rest = [&mut b, &mut c].map(|s| read_response(s, Duration::from_secs(120)));
    rest.sort(); // "HTTP/1.1 200" before "HTTP/1.1 503"
    assert!(rest[0].starts_with("HTTP/1.1 200"), "{}", rest[0]);
    assert_eq!(num(body(&rest[0]).get("generation").unwrap()) as u64, 2);
    assert!(rest[1].starts_with("HTTP/1.1 503"), "{}", rest[1]);
    assert!(rest[1].contains("retry-after: 1"), "{}", rest[1]);
    assert!(
        rest[1].contains("a reload is already waiting"),
        "{}",
        rest[1]
    );
    assert_eq!(ts.counter("serve.shed"), 1);
    assert_eq!(ts.counter("serve.reloads_ok"), 2);
}
