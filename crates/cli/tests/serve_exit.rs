//! How `cold serve` ends, through the real binary: `POST /shutdown`
//! drains to exit 0, and a server whose every io loop has died exits
//! nonzero on its own, naming the panic count, so a supervisor restarts
//! it instead of keeping an unreachable process alive.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cold"))
}

/// A tiny trained model in a fresh temp dir.
fn model(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("cold-serve-exit-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let world = dir.join("world.json");
    let model = dir.join("model.cold");
    let gen = bin()
        .args(["generate", "--out"])
        .arg(&world)
        .args(["--users", "40", "--communities", "2", "--topics", "2"])
        .args(["--vocab", "60", "--slices", "6", "--seed", "5"])
        .output()
        .expect("run generate");
    assert!(gen.status.success(), "generate failed: {gen:?}");
    let train = bin()
        .args(["train", "--data"])
        .arg(&world)
        .arg("--out")
        .arg(&model)
        .args(["--communities", "2", "--topics", "2", "--iterations", "10"])
        .args(["--seed", "5"])
        .output()
        .expect("run train");
    assert!(train.status.success(), "train failed: {train:?}");
    (dir, model)
}

/// Start `cold serve` on a free port with the chaos endpoints on, and
/// return it with the address its banner names.
fn serve(model: &Path, io_threads: &str) -> (Child, String) {
    let mut child = bin()
        .args(["serve", "--model"])
        .arg(model)
        .args(["--port", "0", "--io-threads", io_threads, "--chaos", "true"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cold serve");
    let mut banner = String::new();
    BufReader::new(child.stdout.as_mut().unwrap())
        .read_line(&mut banner)
        .expect("read banner");
    let addr = banner
        .strip_prefix("cold-serve listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
        .to_owned();
    (child, addr)
}

/// One `POST` on a fresh connection; the raw answer (empty when the
/// server closed the connection without one).
fn post(addr: &str, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(
        s,
        "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\nconnection: close\r\n\r\n"
    )
    .unwrap();
    let mut answer = Vec::new();
    let _ = s.read_to_end(&mut answer);
    String::from_utf8_lossy(&answer).into_owned()
}

/// Wait for the process to exit, killing it after `within`.
fn exit_within(child: &mut Child, within: Duration) -> ExitStatus {
    let deadline = Instant::now() + within;
    loop {
        if let Some(status) = child.try_wait().expect("poll cold serve") {
            return status;
        }
        if Instant::now() >= deadline {
            child.kill().ok();
            panic!("cold serve still running {within:?} later");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn output(child: &mut Child) -> String {
    let mut text = String::new();
    child.stdout.take().unwrap().read_to_string(&mut text).ok();
    child.stderr.take().unwrap().read_to_string(&mut text).ok();
    text
}

#[test]
fn serve_exits_nonzero_once_every_io_loop_has_died() {
    let (dir, model) = model("dead");
    let (mut child, addr) = serve(&model, "1");
    let answer = post(&addr, "/chaos/panic-loop");
    assert!(answer.is_empty(), "the dying loop answered: {answer:?}");
    let status = exit_within(&mut child, Duration::from_secs(5));
    let text = output(&mut child);
    assert_eq!(status.code(), Some(1), "{text}");
    assert!(
        text.contains("every io loop died (serve.io_loop_panics = 1)"),
        "{text}"
    );
    assert!(!text.contains("drained and stopped"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_exits_zero_on_shutdown_with_a_loop_still_alive() {
    let (dir, model) = model("drain");
    let (mut child, addr) = serve(&model, "2");
    // One of the two loops dies; the other drains on `/shutdown`.
    assert!(post(&addr, "/chaos/panic-loop").is_empty());
    assert!(post(&addr, "/shutdown").contains("shutting down"));
    let status = exit_within(&mut child, Duration::from_secs(15));
    let text = output(&mut child);
    assert!(status.success(), "{text}");
    assert!(text.contains("drained and stopped"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
