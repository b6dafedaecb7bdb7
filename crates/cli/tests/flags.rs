//! Flag validation through the real binary: a flag no subcommand reads —
//! misspelled, or retired — stops the run with an error instead of
//! running on defaults.

use std::process::{Command, Output};

fn cold(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cold"))
        .args(args)
        .output()
        .expect("run cold")
}

fn assert_refused(out: &Output, flag: &str) {
    assert!(!out.status.success(), "accepted {flag}: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("unknown flag {flag}")),
        "stderr does not name {flag}: {stderr}"
    );
}

#[test]
fn serve_refuses_the_retired_batcher_flags() {
    // Refused before the model is opened, so no artifact is needed.
    for flag in ["--batch-max", "--batch-wait-us"] {
        let out = cold(&["serve", "--model", "absent.cold", flag, "8"]);
        assert_refused(&out, flag);
    }
}

#[test]
fn serve_refuses_the_retired_transport_flag() {
    // One transport is left, so there is nothing to select.
    let out = cold(&["serve", "--model", "absent.cold", "--io-mode", "epoll"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert_refused(&out, "--io-mode");
}

#[test]
fn serve_refuses_the_retired_pool_flags() {
    // The event loops score /predict themselves and one thread runs
    // reloads: no scorer pool, job queue or respawn breaker to size.
    for flag in ["--workers", "--max-queue", "--respawn-limit"] {
        let out = cold(&["serve", "--model", "absent.cold", flag, "2"]);
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        assert_refused(&out, flag);
    }
}

#[test]
fn every_subcommand_refuses_an_unknown_flag() {
    for command in [
        "generate",
        "train",
        "topics",
        "communities",
        "predict",
        "influence",
        "eval",
        "serve",
        "metrics-check",
        "ckpt-inspect",
        "replay-check",
        "help",
    ] {
        let out = cold(&[command, "--no-such-flag", "1"]);
        assert_refused(&out, "--no-such-flag");
    }
}
