//! Crash-injection tests for the `cold-ckpt/v1` durability contract:
//! a run killed mid-flight whose newest checkpoint was torn (truncated)
//! or corrupted (bit-flipped) must fall back to the newest *verifying*
//! checkpoint and, once resumed, converge to a model bit-identical to an
//! uninterrupted run.

use cold::core::checkpoint::fnv1a64;
use cold::core::{Checkpoint, Checkpointer, CkptError, ColdConfig, GibbsSampler, SamplerKernel};
use cold::data::{generate, SocialDataset, WorldConfig};
use cold::engine::ParallelGibbs;
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

/// The world and configuration that wrote `tests/fixtures/ckpt_batch_parent.ckpt`:
/// a sequential run with seed 26, checkpointed by `Checkpointer` at sweep
/// 8 of 16 (after burn-in, so partial averages ride along).
fn fixture_world() -> SocialDataset {
    let world = WorldConfig {
        num_users: 12,
        vocab_size: 30,
        num_time_slices: 4,
        posts_per_user: 3.0,
        words_per_post: 4.0,
        link_candidates_per_user: 4,
        ..WorldConfig::tiny()
    };
    generate(&world, 2626)
}

fn fixture_config(data: &SocialDataset) -> ColdConfig {
    ColdConfig::builder(2, 2)
        .iterations(16)
        .burn_in(6)
        .sample_lag(2)
        .ll_every(4)
        .checkpoint_every(4)
        .build(&data.corpus, &data.graph)
}

fn fixture_path() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/ckpt_batch_parent.ckpt")
}

/// A checkpoint written by an earlier build of the format is still read,
/// and resuming it reproduces the uninterrupted run bit for bit. The
/// fixture file is never regenerated: it pins what `cold-ckpt/v1` files
/// already on disk contain.
#[test]
fn stored_batch_checkpoint_resumes_bit_identical() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/ckpt_batch_parent.ckpt");
    let ckpt = Checkpoint::read(&path).expect("the stored batch checkpoint decodes");
    assert_eq!(ckpt.sweeps_done, 8);
    let data = fixture_world();
    let mut resumed =
        GibbsSampler::resume(&data.corpus, fixture_config(&data), ckpt).expect("resume");
    resumed.run_sweeps(usize::MAX, None).expect("finish");
    let reference = GibbsSampler::new(&data.corpus, &data.graph, fixture_config(&data), 26)
        .run()
        .to_binary();
    assert_eq!(resumed.finish().to_binary(), reference);
}

/// `cold train` resumes every checkpoint through `ParallelGibbs`, so a
/// sequential checkpoint already on disk must resume there too: one shard
/// is the same chain, with the same RNG words, state and partial averages.
#[test]
fn stored_batch_checkpoint_resumes_bit_identical_through_the_engine() {
    let ckpt = Checkpoint::read(fixture_path()).expect("the stored batch checkpoint decodes");
    let data = fixture_world();
    let mut resumed =
        ParallelGibbs::resume(&data.corpus, fixture_config(&data), ckpt).expect("resume");
    assert_eq!(resumed.shards(), 1);
    resumed.run_sweeps(usize::MAX, None).expect("finish");
    let reference = GibbsSampler::new(&data.corpus, &data.graph, fixture_config(&data), 26)
        .run()
        .to_binary();
    assert_eq!(resumed.finish().to_binary(), reference);
}

/// The JSON payload of the stored fixture.
fn fixture_payload() -> String {
    let text = std::fs::read_to_string(fixture_path()).expect("read the stored fixture");
    let (_header, payload) = text.split_once('\n').expect("header line");
    payload.trim_end_matches('\n').to_owned()
}

/// `payload` under a freshly stamped header: only the decoder's and the
/// resume's own checks stand between it and a sampler.
fn stamped(payload: &str) -> Vec<u8> {
    format!(
        "cold-ckpt/v1 {} {:016x}\n{payload}\n",
        payload.len(),
        fnv1a64(payload.as_bytes())
    )
    .into_bytes()
}

/// The stored fixture with the JSON array after `"key":` rewritten by
/// `edit`, re-stamped.
fn tampered_fixture(key: &str, edit: impl Fn(&str) -> String) -> Vec<u8> {
    let payload = fixture_payload();
    let field = format!("\"{key}\":");
    let start = payload.find(&field).expect("field present") + field.len();
    let mut depth = 0;
    let len = payload[start..]
        .char_indices()
        .find_map(|(i, ch)| {
            match ch {
                '[' => depth += 1,
                ']' => depth -= 1,
                _ => {}
            }
            (depth == 0).then_some(i + 1)
        })
        .expect("a closed array");
    let edited = edit(&payload[start..start + len]);
    stamped(&format!(
        "{}{edited}{}",
        &payload[..start],
        &payload[start + len..]
    ))
}

/// `array` (a JSON array of numbers or of number pairs) with its first
/// number replaced by `value`.
fn first_number(value: &'static str) -> impl Fn(&str) -> String {
    move |array| {
        let at = array
            .find(|ch: char| ch.is_ascii_digit())
            .expect("a number");
        let end = at
            + array[at..]
                .find(|ch: char| !ch.is_ascii_digit())
                .expect("more");
        format!("{}{value}{}", &array[..at], &array[end..])
    }
}

/// A checksum is no proof of origin: a checkpoint whose assignments point
/// outside the configured dims, or whose counters disagree with its
/// assignments, decodes (its shapes are right) but must be refused by
/// both resumes as a typed error, before a sweep indexes a counter with
/// it. Run in the debug build, a missed case panics here.
#[test]
fn tampered_checkpoint_contents_are_refused_by_both_resumes() {
    let data = fixture_world();
    // C = 2, K = 2, U = 12; the fixture has links but no negative pairs.
    let cases = [
        ("post_comm", first_number("7"), "post_comm[0] = 7"),
        ("post_topic", first_number("2"), "post_topic[0] = 2"),
        ("link_src_comm", first_number("2"), "link_src_comm[0] = 2"),
        ("link_dst_comm", first_number("9"), "link_dst_comm[0] = 9"),
        ("links", first_number("12"), "link (12, "),
    ];
    let cases = cases
        .into_iter()
        .map(|(key, edit, want)| (tampered_fixture(key, edit), want))
        .chain([(tampered_fixture("n_c", |_| "[0,0]".into()), "n_c drifted")]);
    for (bytes, want) in cases {
        let ckpt = || Checkpoint::decode(&bytes).expect("shapes are intact, so it decodes");
        let outcomes = [
            (
                "GibbsSampler",
                GibbsSampler::resume(&data.corpus, fixture_config(&data), ckpt()).map(drop),
            ),
            (
                "ParallelGibbs",
                ParallelGibbs::resume(&data.corpus, fixture_config(&data), ckpt()).map(drop),
            ),
        ];
        for (sampler, outcome) in outcomes {
            match outcome {
                Err(CkptError::Format(msg)) => assert!(msg.contains(want), "{sampler}: {msg}"),
                Err(other) => panic!("{sampler}: {want}: wrong error {other}"),
                Ok(()) => panic!("{sampler} resumed a checkpoint with {want}"),
            }
        }
    }
}

/// A sequential run has exactly one shard, so a sequential checkpoint
/// claiming more is malformed: `ParallelGibbs::resume` would otherwise
/// size its worker set from the file.
#[test]
fn sequential_checkpoint_with_several_shards_is_refused() {
    let payload = fixture_payload().replacen("\"shards\":1,", "\"shards\":3,", 1);
    let bytes = stamped(&payload);
    match Checkpoint::decode(&bytes) {
        Err(CkptError::Format(msg)) => {
            assert!(msg.contains("Sequential checkpoint with 3 shards"), "{msg}")
        }
        other => panic!("expected a format error, got {other:?}"),
    }
}
