//! End-to-end metrics smoke test: generate a tiny world, train with
//! `--metrics-out`, then validate the emitted JSONL both with the
//! `metrics-check` subcommand and directly against the schema validator.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cold"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cold-metrics-smoke-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn train_emits_valid_metrics_jsonl() {
    let dir = tmp_dir("train");
    let world = dir.join("world.json");
    let model = dir.join("model.cold");
    let metrics = dir.join("metrics.jsonl");

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
        .args(["--out"])
        .arg(&model)
        .args(["--communities", "2", "--topics", "2"])
        .args(["--iterations", "30", "--seed", "5", "--metrics-out"])
        .arg(&metrics)
        .output()
        .expect("run train");
    assert!(train.status.success(), "train failed: {train:?}");
    let stdout = String::from_utf8_lossy(&train.stdout);
    // The summary table must surface the headline sections.
    assert!(stdout.contains("train.sweeps"), "table missing: {stdout}");
    assert!(stdout.contains("span.sweep"), "table missing: {stdout}");

    // The JSONL sink must parse and self-validate.
    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let stats = cold_obs::schema::validate_jsonl(&text).expect("schema-valid JSONL");
    assert!(stats.counters > 0);
    assert!(stats.gauges > 0);
    assert!(stats.histograms > 0);

    // And `metrics-check` must agree.
    let check = bin()
        .args(["metrics-check", "--file"])
        .arg(&metrics)
        .output()
        .expect("run metrics-check");
    assert!(check.status.success(), "metrics-check failed: {check:?}");
    assert!(String::from_utf8_lossy(&check.stdout).contains("ok"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_train_emits_per_shard_counters() {
    let dir = tmp_dir("shards");
    let world = dir.join("world.json");
    let model = dir.join("model.cold");
    let metrics = dir.join("metrics.jsonl");

    let gen = bin()
        .args(["generate", "--out"])
        .arg(&world)
        .args(["--users", "40", "--communities", "2", "--topics", "2"])
        .args(["--vocab", "60", "--slices", "6", "--seed", "6"])
        .output()
        .expect("run generate");
    assert!(gen.status.success(), "generate failed: {gen:?}");

    let train = bin()
        .args(["train", "--data"])
        .arg(&world)
        .args(["--out"])
        .arg(&model)
        .args(["--communities", "2", "--topics", "2"])
        .args(["--iterations", "20", "--seed", "6", "--shards", "3"])
        .args(["--metrics-out"])
        .arg(&metrics)
        .output()
        .expect("run train");
    assert!(train.status.success(), "train failed: {train:?}");

    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    cold_obs::schema::validate_jsonl(&text).expect("schema-valid JSONL");
    for s in 0..3 {
        assert!(
            text.contains(&format!("parallel.shard.{s}.post_draws")),
            "missing shard {s} counters"
        );
    }
    assert!(text.contains("parallel.sync_bytes"));
    assert!(text.contains("parallel.wall_seconds"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_check_rejects_corrupt_files() {
    let dir = tmp_dir("corrupt");
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, "{\"not\": \"a metrics file\"}\n").unwrap();
    let check = bin()
        .args(["metrics-check", "--file"])
        .arg(&bad)
        .output()
        .expect("run metrics-check");
    assert!(!check.status.success(), "corrupt file accepted");
    let _ = std::fs::remove_dir_all(&dir);
}
