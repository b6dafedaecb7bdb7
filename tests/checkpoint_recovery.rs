//! Crash-injection tests for the `cold-ckpt/v1` durability contract:
//! a run killed mid-flight whose newest checkpoint was torn (truncated)
//! or corrupted (bit-flipped) must fall back to the newest *verifying*
//! checkpoint and, once resumed, converge to a model bit-identical to an
//! uninterrupted run.

use cold::core::{Checkpoint, Checkpointer, CkptError, ColdConfig, GibbsSampler, SamplerKernel};
use cold::data::{generate, SocialDataset, WorldConfig};
use std::path::PathBuf;

const SEED: u64 = 131;

fn world() -> SocialDataset {
    generate(&WorldConfig::tiny(), 9090)
}

fn config(data: &SocialDataset, kernel: SamplerKernel) -> ColdConfig {
    ColdConfig::builder(3, 3)
        .iterations(24)
        .burn_in(12)
        .sample_lag(2)
        .kernel(kernel)
        .checkpoint_every(8)
        .build(&data.corpus, &data.graph)
}

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cold_recovery_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Train uninterrupted and return the model artifact (the bitwise
/// reference).
fn reference_model(data: &SocialDataset, kernel: SamplerKernel) -> Vec<u8> {
    GibbsSampler::new(&data.corpus, &data.graph, config(data, kernel), SEED)
        .run()
        .to_binary()
}

/// Simulate a crash: train up to sweep 23 of 24 with checkpoints every 8
/// sweeps, so checkpoints exist at sweeps 8 and 16 but the run never
/// finished. Returns the checkpoint directory.
fn crashed_run(data: &SocialDataset, kernel: SamplerKernel, tag: &str) -> Checkpointer {
    let dir = unique_dir(tag);
    let ckptr = Checkpointer::new(&dir).expect("create checkpoint dir");
    let mut sampler = GibbsSampler::new(&data.corpus, &data.graph, config(data, kernel), SEED);
    sampler
        .run_sweeps(23, Some(&ckptr))
        .expect("train to crash point");
    // The sampler is dropped here without finishing — that's the crash.
    ckptr
}

/// Resume from whatever `load_latest` recovers and train to completion.
fn resume_to_completion(
    data: &SocialDataset,
    kernel: SamplerKernel,
    ckptr: &Checkpointer,
) -> Vec<u8> {
    let ckpt = ckptr.load_latest().expect("recover a checkpoint");
    let mut resumed =
        GibbsSampler::resume(&data.corpus, config(data, kernel), ckpt).expect("resume");
    resumed
        .run_sweeps(usize::MAX, Some(ckptr))
        .expect("finish resumed run");
    resumed.finish().to_binary()
}

#[test]
fn truncated_checkpoint_falls_back_and_resumes_bit_identical() {
    let data = world();
    let kernel = SamplerKernel::Exact;
    let reference = reference_model(&data, kernel);
    // Torn writes of several severities: almost-empty, header-only,
    // mid-payload, and one byte short of complete.
    for (i, keep) in [12u64, 64, 2000, u64::MAX].into_iter().enumerate() {
        let ckptr = crashed_run(&data, kernel, &format!("torn{i}"));
        let newest = ckptr.dir().join("ckpt-00000016.json");
        let full = std::fs::metadata(&newest).expect("newest checkpoint").len();
        let keep = keep.min(full - 1);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&newest)
            .expect("open newest checkpoint");
        file.set_len(keep).expect("truncate checkpoint");
        drop(file);
        // The torn file must not verify...
        assert!(
            matches!(
                Checkpoint::read(&newest),
                Err(CkptError::Corrupt(_) | CkptError::Format(_))
            ),
            "truncation to {keep} bytes went undetected"
        );
        // ...so recovery falls back to the sweep-8 checkpoint...
        let recovered = ckptr.load_latest().expect("fall back to older checkpoint");
        assert_eq!(recovered.sweeps_done, 8, "expected fallback to sweep 8");
        // ...and the resumed run is bit-identical to the uninterrupted one.
        let resumed = resume_to_completion(&data, kernel, &ckptr);
        assert_eq!(
            reference, resumed,
            "resume after torn-checkpoint fallback diverged (keep={keep})"
        );
        std::fs::remove_dir_all(ckptr.dir()).ok();
    }
}

#[test]
fn bit_flip_is_detected_by_checksum_and_survived() {
    let data = world();
    let kernel = SamplerKernel::CachedLog;
    let reference = reference_model(&data, kernel);
    let ckptr = crashed_run(&data, kernel, "bitflip");
    let newest = ckptr.dir().join("ckpt-00000016.json");
    // Flip one bit deep inside the payload; the length still matches, so
    // only the checksum can catch it.
    let mut bytes = std::fs::read(&newest).expect("read newest checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&newest, &bytes).expect("write corrupted checkpoint");
    assert!(
        matches!(Checkpoint::read(&newest), Err(CkptError::Corrupt(_))),
        "bit flip went undetected"
    );
    let recovered = ckptr.load_latest().expect("fall back");
    assert_eq!(recovered.sweeps_done, 8);
    let resumed = resume_to_completion(&data, kernel, &ckptr);
    assert_eq!(
        reference, resumed,
        "resume after bit-flip fallback diverged"
    );
    std::fs::remove_dir_all(ckptr.dir()).ok();
}

#[test]
fn all_checkpoints_corrupt_is_a_hard_error() {
    let data = world();
    let ckptr = crashed_run(&data, SamplerKernel::Exact, "allcorrupt");
    for entry in ckptr.list().expect("list checkpoints") {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&entry.path)
            .expect("open checkpoint");
        file.set_len(7).expect("truncate");
    }
    assert!(
        matches!(ckptr.load_latest(), Err(CkptError::NoCheckpoint(_))),
        "recovery from an all-corrupt directory must fail loudly"
    );
    std::fs::remove_dir_all(ckptr.dir()).ok();
}

/// `retain = 1` with a corrupt file at a *higher* sweep than anything the
/// run writes: retention must not let the stale corrupt file push the
/// only fresh checkpoint out of the window, and recovery must skip the
/// corrupt file and land on the valid one.
#[test]
fn retain_one_keeps_fresh_checkpoint_despite_corrupt_newer_file() {
    let data = world();
    let kernel = SamplerKernel::Exact;
    let dir = unique_dir("retain1");
    let ckptr = Checkpointer::new(&dir)
        .expect("create checkpoint dir")
        .retain(1);
    // A leftover from some imagined future run, unreadable: it sorts
    // newest, so naive retention would evict every real checkpoint.
    std::fs::write(dir.join("ckpt-00000099.json"), b"not a checkpoint").expect("plant corrupt");
    let mut sampler = GibbsSampler::new(&data.corpus, &data.graph, config(&data, kernel), SEED);
    sampler
        .run_sweeps(23, Some(&ckptr))
        .expect("train to crash point");
    drop(sampler);
    // The fresh sweep-16 checkpoint must have survived its own retention pass…
    assert!(
        dir.join("ckpt-00000016.json").exists(),
        "retention evicted the checkpoint the run just wrote"
    );
    // …and recovery must fall back past the corrupt sweep-99 file onto it.
    let recovered = ckptr.load_latest().expect("skip corrupt file and recover");
    assert_eq!(recovered.sweeps_done, 16);
    let resumed = resume_to_completion(&data, kernel, &ckptr);
    assert_eq!(reference_model(&data, kernel), resumed);
    std::fs::remove_dir_all(&dir).ok();
}

/// Resuming from a directory that has no checkpoints at all must fail
/// loudly with `NoCheckpoint`, not fabricate a fresh run.
#[test]
fn empty_directory_resume_is_a_hard_error() {
    let dir = unique_dir("empty");
    let ckptr = Checkpointer::new(&dir).expect("create checkpoint dir");
    assert!(
        matches!(ckptr.load_latest(), Err(CkptError::NoCheckpoint(_))),
        "empty directory must be a hard resume error"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// An intact crash directory (no corruption at all) resumes from the
/// newest checkpoint and still reproduces the reference bit for bit.
#[test]
fn clean_crash_resumes_from_newest_checkpoint() {
    let data = world();
    let kernel = SamplerKernel::AliasMh;
    let reference = reference_model(&data, kernel);
    let ckptr = crashed_run(&data, kernel, "clean");
    let recovered = ckptr.load_latest().expect("load newest");
    assert_eq!(recovered.sweeps_done, 16, "newest checkpoint is sweep 16");
    let resumed = resume_to_completion(&data, kernel, &ckptr);
    assert_eq!(reference, resumed, "clean resume diverged");
    std::fs::remove_dir_all(ckptr.dir()).ok();
}
