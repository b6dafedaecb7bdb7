//! The read side opens `cold-model/v1` only: a model file in the retired
//! JSON format fails every subcommand that takes `--model` with an error
//! naming the format, and never panics.

use std::process::Command;

#[test]
fn a_json_model_is_refused_with_an_error_naming_the_format() {
    let dir = std::env::temp_dir().join(format!("cold-model-file-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let json = dir.join("model.json");
    std::fs::write(
        &json,
        r#"{"dims":{"num_users":2},"pi":[0.5,0.5],"samples":1}"#,
    )
    .expect("write json model");
    let json = json.to_str().expect("utf-8 temp path");
    for args in [
        &["topics", "--model", json, "--data", json][..],
        &["communities", "--model", json, "--data", json],
        &["predict", "--model", json, "--data", json],
        &["influence", "--model", json],
        &["eval", "--model", json, "--data", json],
        &["serve", "--model", json, "--port", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cold"))
            .args(args)
            .output()
            .expect("run cold");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{}: {out:?}", args[0]);
        assert!(stderr.contains("cold-model/v1"), "{}: {stderr}", args[0]);
        assert!(!stderr.contains("panicked"), "{}: {stderr}", args[0]);
    }
    std::fs::remove_dir_all(&dir).ok();
}
