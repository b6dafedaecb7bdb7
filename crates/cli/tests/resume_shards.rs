//! `cold train --resume` takes its shard count from `--shards`, never from
//! the checkpoint file alone: a checkpoint written with another shard
//! count is refused with an error naming both values, and the same flags
//! resume it.

use std::path::Path;
use std::process::{Command, Output};

fn cold(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cold"))
        .args(args)
        .output()
        .expect("run cold")
}

/// `cold train` on `world` with checkpoints in `ckpts`, plus `extra`.
fn train(world: &str, model: &str, ckpts: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "train",
        "--data",
        world,
        "--out",
        model,
        "--communities",
        "2",
        "--topics",
        "2",
        "--iterations",
        "12",
        "--seed",
        "3",
        "--checkpoint-dir",
        ckpts,
        "--checkpoint-every",
        "4",
    ];
    args.extend_from_slice(extra);
    cold(&args)
}

#[test]
fn resume_refuses_a_checkpoint_written_with_another_shard_count() {
    let dir = std::env::temp_dir().join(format!("cold-resume-shards-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_owned();
    let (world, model, ckpts) = (path("world.json"), path("model.cold"), path("ckpts"));
    let gen = cold(&[
        "generate",
        "--out",
        &world,
        "--users",
        "30",
        "--communities",
        "2",
        "--topics",
        "2",
        "--vocab",
        "50",
        "--slices",
        "4",
        "--seed",
        "3",
    ]);
    assert!(gen.status.success(), "generate failed: {gen:?}");

    let crashed = train(
        &world,
        &model,
        &ckpts,
        &["--shards", "2", "--crash-after", "6"],
    );
    assert_eq!(crashed.status.code(), Some(137), "{crashed:?}");

    for (flags, other) in [(&[][..], "1"), (&["--shards", "3"][..], "3")] {
        let out = train(
            &world,
            &model,
            &ckpts,
            &[flags, &["--resume", "true"]].concat(),
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--shards {other}: {out:?}");
        assert!(
            stderr.contains("--shards 2") && stderr.contains(&format!("--shards {other}")),
            "the error must name both shard counts: {stderr}"
        );
        assert!(
            !Path::new(&model).exists(),
            "a refused resume wrote a model"
        );
    }

    let resumed = train(
        &world,
        &model,
        &ckpts,
        &["--shards", "2", "--resume", "true"],
    );
    assert!(
        resumed.status.success(),
        "same-flags resume failed: {resumed:?}"
    );
    assert!(Path::new(&model).exists());
    std::fs::remove_dir_all(&dir).ok();
}
