//! Chaos load mix for a live `cold-serve` — the CI face of the fault
//! harness (`scripts/check.sh` chaos-smoke stage).
//!
//! Runs healthy keep-alive clients concurrently with seeded network
//! chaos ([`cold_serve::chaos`]) against an already-running server, and
//! exits nonzero on any robustness violation: a healthy request that
//! gets anything but `200` (bounded `503`-with-`Retry-After` retries are
//! tolerated — that is the shed contract working) or a score that is not
//! bit-identical to the reference. Alongside the chaos it injects one
//! handler panic, which must come back as a contained `500`, so the
//! server must run with `--chaos true`.
//!
//! ```text
//! chaos_client --addr 127.0.0.1:8396 [--healthy 3] [--chaos 3]
//!              [--requests 50] [--faults 12] [--seed 9] [--stall-ms 150]
//! ```

use cold_serve::chaos::ChaosPlan;
use cold_serve::HttpClient;
use std::net::SocketAddr;
use std::time::Duration;

const PREDICT: &str = "{\"publisher\":0,\"consumer\":1,\"words\":[0]}";
/// How many shed retries a healthy client tolerates per request.
const MAX_RETRIES: usize = 50;

fn arg(name: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("bad value for {name}: {v}"))
        })
        .unwrap_or(default)
}

fn score_of(body: &str) -> f64 {
    // `{"publisher":0,"consumer":1,"score":X}` — cut the number out
    // without a JSON dependency so the comparison is on the exact bytes
    // the server emitted.
    let tail = body
        .split("\"score\":")
        .nth(1)
        .unwrap_or_else(|| panic!("no score in {body}"));
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c)))
        .unwrap_or(tail.len());
    tail[..end]
        .parse()
        .unwrap_or_else(|_| panic!("bad score in {body}"))
}

/// One healthy request with bounded shed retries; returns the score.
fn healthy_predict(client: &mut HttpClient, addr: SocketAddr) -> Result<f64, String> {
    let mut reconnects = 0;
    for _ in 0..MAX_RETRIES {
        let r = match client.post("/predict", PREDICT) {
            Ok(r) => r,
            Err(e) => {
                // The connection may have died to a neighboring fault —
                // reconnect a bounded number of times rather than
                // failing the run.
                reconnects += 1;
                if reconnects > 5 {
                    return Err(format!("request error after {reconnects} reconnects: {e}"));
                }
                std::thread::sleep(Duration::from_millis(20));
                *client = HttpClient::connect(addr, Duration::from_secs(10))
                    .map_err(|e| format!("reconnect failed: {e}"))?;
                continue;
            }
        };
        match r.status {
            200 => return Ok(score_of(&r.body)),
            503 => {
                if r.retry_after.is_none() {
                    return Err(format!("503 without Retry-After: {}", r.body));
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            other => return Err(format!("healthy request got {other}: {}", r.body)),
        }
    }
    Err("healthy request shed beyond the retry budget".to_owned())
}

fn counter(addr: SocketAddr, name: &str) -> u64 {
    let mut c = HttpClient::connect(addr, Duration::from_secs(10)).expect("metrics connect");
    let body = c.get("/metrics").expect("metrics fetch").body;
    let needle = format!("\"name\":\"{name}\"");
    for line in body.lines() {
        if line.contains("\"type\":\"counter\"") && line.contains(&needle) {
            if let Some(tail) = line.split("\"value\":").nth(1) {
                let end = tail
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(tail.len());
                return tail[..end].parse().unwrap_or(0);
            }
        }
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr: SocketAddr = args
        .iter()
        .position(|a| a == "--addr")
        .and_then(|i| args.get(i + 1))
        .expect("--addr HOST:PORT is required")
        .parse()
        .expect("bad --addr");
    let healthy = arg("--healthy", 3) as usize;
    let chaos = arg("--chaos", 3) as usize;
    let requests = arg("--requests", 50) as usize;
    let faults = arg("--faults", 12) as usize;
    let seed = arg("--seed", 9);
    let stall = Duration::from_millis(arg("--stall-ms", 150));

    // Reference answer before any chaos.
    let mut c = HttpClient::connect(addr, Duration::from_secs(10)).expect("connect");
    let reference = healthy_predict(&mut c, addr).expect("reference request");
    drop(c);

    let healthy_threads: Vec<_> = (0..healthy)
        .map(|_| {
            std::thread::spawn(move || -> Result<u64, String> {
                let mut client = HttpClient::connect(addr, Duration::from_secs(10))
                    .map_err(|e| format!("connect: {e}"))?;
                for i in 0..requests {
                    let score = healthy_predict(&mut client, addr)?;
                    if score != reference {
                        return Err(format!(
                            "request {i}: score {score} != reference {reference}"
                        ));
                    }
                }
                // Keep-alive reuse held except where chaos killed the
                // connection under us — worth reporting either way.
                Ok(client.reconnects())
            })
        })
        .collect();
    let chaos_threads: Vec<_> = (0..chaos as u64)
        .map(|t| {
            std::thread::spawn(move || {
                let mut plan = ChaosPlan::new(seed ^ t.wrapping_mul(0x9E37_79B9));
                plan.stall = stall;
                for _ in 0..faults {
                    let fault = plan.next_fault();
                    plan.run(addr, fault);
                }
            })
        })
        .collect();

    // A handler panic amid the chaos: contained to its own connection.
    let mut k = HttpClient::connect(addr, Duration::from_secs(10)).expect("connect");
    let r = k.post("/chaos/panic", "").expect("handler panic request");
    assert_eq!(
        r.status, 500,
        "handler panic must answer 500, got {}",
        r.status
    );

    for h in chaos_threads {
        h.join().expect("chaos thread panicked");
    }
    let mut failures = Vec::new();
    let mut client_reconnects = 0u64;
    for (i, h) in healthy_threads.into_iter().enumerate() {
        match h.join() {
            Ok(Ok(reconnects)) => client_reconnects += reconnects,
            Ok(Err(e)) => failures.push(format!("healthy client {i}: {e}")),
            Err(_) => failures.push(format!("healthy client {i} panicked")),
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("VIOLATION: {f}");
        }
        std::process::exit(1);
    }

    // The server must still be answering, bit-identically.
    let mut c = HttpClient::connect(addr, Duration::from_secs(10)).expect("final connect");
    let after = healthy_predict(&mut c, addr).expect("final request");
    assert_eq!(after, reference, "score drifted across the chaos run");
    println!(
        "chaos_client: OK ({} healthy x {} requests, {} chaos x {} faults, \
         panics={} shed={} client_reconnects={})",
        healthy,
        requests,
        chaos,
        faults,
        counter(addr, "serve.worker_panics"),
        counter(addr, "serve.shed"),
        client_reconnects,
    );
}
