//! Trace-replay verification of the delta-sync and checkpoint protocols:
//! record real runs through a trace-enabled metrics handle, replay the
//! `cold-trace/v1` stream through the `cold-replay` state machine, and
//! require (a) every recorded run to replay clean — including crash/resume
//! and all three sampler kernels — and (b) every seeded fault class to be
//! rejected with the violation it plants.

use cold::core::{Checkpointer, ColdConfig, GibbsSampler, Metrics, SamplerKernel};
use cold::data::{generate, SocialDataset, WorldConfig};
use cold::engine::ParallelGibbs;
use cold::obs::trace::{parse_jsonl, to_jsonl, TraceEvent, TraceValue};
use cold_replay::fault::{inject, permute_schedule, FaultClass};
use cold_replay::{verify, ViolationKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::PathBuf;

const SEED: u64 = 2213;
const SHARDS: usize = 4;
const ITERATIONS: usize = 16;
const CKPT_EVERY: usize = 4;

fn world() -> SocialDataset {
    generate(&WorldConfig::tiny(), 7171)
}

fn config(data: &SocialDataset, kernel: SamplerKernel, metrics: &Metrics) -> ColdConfig {
    ColdConfig::builder(3, 3)
        .iterations(ITERATIONS)
        .burn_in(ITERATIONS / 2)
        .sample_lag(2)
        .kernel(kernel)
        .checkpoint_every(CKPT_EVERY)
        .metrics(metrics.clone())
        .build(&data.corpus, &data.graph)
}

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cold_replay_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A complete 4-shard checkpointed run, recorded through a shared trace
/// buffer; returns the recorded events.
fn record_full_run(kernel: SamplerKernel, tag: &str) -> Vec<TraceEvent> {
    let data = world();
    let metrics = Metrics::disabled().with_trace();
    let dir = unique_dir(tag);
    let ckptr = Checkpointer::new(&dir)
        .expect("create checkpoint dir")
        .with_metrics(metrics.clone());
    let mut pg = ParallelGibbs::new(
        &data.corpus,
        &data.graph,
        config(&data, kernel, &metrics),
        SHARDS,
        SEED,
    );
    pg.run_sweeps(usize::MAX, Some(&ckptr)).expect("train");
    std::fs::remove_dir_all(&dir).ok();
    metrics.trace_events()
}

/// A 4-shard run crashed mid-flight, then resumed from its newest
/// checkpoint through the *same* trace buffer — the in-process equivalent
/// of chaining two per-process trace segments.
fn record_crash_resume_run(tag: &str) -> Vec<TraceEvent> {
    let data = world();
    let metrics = Metrics::disabled().with_trace();
    let dir = unique_dir(tag);
    let ckptr = Checkpointer::new(&dir)
        .expect("create checkpoint dir")
        .with_metrics(metrics.clone());
    let kernel = SamplerKernel::Exact;
    let mut pg = ParallelGibbs::new(
        &data.corpus,
        &data.graph,
        config(&data, kernel, &metrics),
        SHARDS,
        SEED,
    );
    pg.run_sweeps(10, Some(&ckptr)).expect("train to crash");
    drop(pg); // the crash
    let ckpt = ckptr.load_latest().expect("recover");
    let mut resumed =
        ParallelGibbs::resume(&data.corpus, config(&data, kernel, &metrics), ckpt).expect("resume");
    resumed
        .run_sweeps(usize::MAX, Some(&ckptr))
        .expect("finish resumed run");
    std::fs::remove_dir_all(&dir).ok();
    metrics.trace_events()
}

#[test]
fn four_shard_checkpointed_run_replays_clean_under_every_kernel() {
    for kernel in [
        SamplerKernel::Exact,
        SamplerKernel::CachedLog,
        SamplerKernel::AliasMh,
    ] {
        let events = record_full_run(kernel, kernel.name());
        let report = verify(&events)
            .unwrap_or_else(|v| panic!("kernel {}: replay rejected: {v}", kernel.name()));
        assert_eq!(report.supersteps, ITERATIONS, "kernel {}", kernel.name());
        assert_eq!(report.deltas, ITERATIONS * SHARDS);
        assert_eq!(report.applies, ITERATIONS * SHARDS);
        assert_eq!(report.checkpoints, ITERATIONS / CKPT_EVERY);
        assert_eq!(report.resumes, 0);
    }
}

#[test]
fn crash_resume_trace_replays_clean() {
    let events = record_crash_resume_run("crash");
    let report = verify(&events).unwrap_or_else(|v| panic!("replay rejected: {v}"));
    assert_eq!(report.loads, 1);
    assert_eq!(report.resumes, 1);
    // 10 sweeps before the crash, 8 replayed after resuming from sweep 8.
    assert_eq!(report.supersteps, 10 + (ITERATIONS - 8));
    assert!(report.checkpoints >= ITERATIONS / CKPT_EVERY);
}

#[test]
fn recorded_trace_round_trips_through_jsonl() {
    let events = record_crash_resume_run("jsonl");
    let parsed = parse_jsonl(&to_jsonl(&events)).expect("parse recorded trace");
    assert_eq!(parsed.len(), events.len());
    let direct = verify(&events).expect("direct replay");
    let reparsed = verify(&parsed).expect("re-parsed replay");
    assert_eq!(direct, reparsed);
}

#[test]
fn every_fault_class_is_rejected_with_its_planted_violation() {
    let events = record_crash_resume_run("faults");
    let expected = [
        (FaultClass::DroppedDelta, ViolationKind::MissingDelta),
        (FaultClass::DroppedApply, ViolationKind::UnappliedDelta),
        (FaultClass::DuplicatedApply, ViolationKind::DuplicateApply),
        (FaultClass::ReorderedApply, ViolationKind::ApplyOrder),
        (FaultClass::StaleEpochReplay, ViolationKind::StaleEpoch),
        (FaultClass::TornCheckpoint, ViolationKind::DigestMismatch),
        (FaultClass::RetiredNewest, ViolationKind::RetentionNewest),
        (FaultClass::CorruptResume, ViolationKind::CorruptLoad),
        (FaultClass::DoubleResume, ViolationKind::ResumeMismatch),
    ];
    assert_eq!(expected.len(), FaultClass::ALL.len());
    for (case, (class, kind)) in expected.into_iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(0xFA_u64 + case as u64);
        let (mutated, detail) = inject(&events, class, &mut rng)
            .unwrap_or_else(|| panic!("{} not injectable on a real trace", class.name()));
        let err = verify(&mutated)
            .err()
            .unwrap_or_else(|| panic!("{} survived replay: {detail}", class.name()));
        assert_eq!(err.kind, kind, "{}: {err} ({detail})", class.name());
    }
}

/// The engine has two superstep modes, `seq` (one shard) and `delta`;
/// a superstep announcing any other mode, such as `clone`, is malformed.
#[test]
fn unknown_sync_mode_is_malformed() {
    let mut events = record_full_run(SamplerKernel::Exact, "sync_mode");
    let i = events
        .iter()
        .position(|e| e.kind == "superstep_begin")
        .expect("a recorded superstep");
    events[i].set("sync", TraceValue::Str("clone".to_owned()));
    let err = verify(&events).expect_err("a clone superstep replayed clean");
    assert_eq!(err.kind, ViolationKind::Malformed, "{err}");
}

#[test]
fn permuted_delivery_schedules_still_replay_clean() {
    let events = record_full_run(SamplerKernel::Exact, "permute");
    let reference = verify(&events).expect("clean base trace");
    for seed in 0..8 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let permuted = permute_schedule(&events, &mut rng);
        let report = verify(&permuted)
            .unwrap_or_else(|v| panic!("legal permutation rejected (seed {seed}): {v}"));
        assert_eq!(report, reference);
    }
}

#[test]
fn sequential_checkpointed_trace_replays_clean() {
    let data = world();
    let metrics = Metrics::disabled().with_trace();
    let dir = unique_dir("seq");
    let ckptr = Checkpointer::new(&dir)
        .expect("create checkpoint dir")
        .with_metrics(metrics.clone());
    let kernel = SamplerKernel::Exact;
    let mut sampler = GibbsSampler::new(
        &data.corpus,
        &data.graph,
        config(&data, kernel, &metrics),
        SEED,
    );
    sampler
        .run_sweeps(10, Some(&ckptr))
        .expect("train to crash");
    drop(sampler);
    let ckpt = ckptr.load_latest().expect("recover");
    let mut resumed =
        GibbsSampler::resume(&data.corpus, config(&data, kernel, &metrics), ckpt).expect("resume");
    resumed
        .run_sweeps(usize::MAX, Some(&ckptr))
        .expect("finish resumed run");
    std::fs::remove_dir_all(&dir).ok();
    // The sequential sampler traces only the checkpoint lifecycle (no
    // superstep barrier exists), and the replay model still validates it.
    let report = verify(&metrics.trace_events()).expect("sequential replay");
    assert_eq!(report.supersteps, 0);
    assert_eq!(report.loads, 1);
    assert_eq!(report.resumes, 1);
    assert!(report.checkpoints >= ITERATIONS / CKPT_EVERY);
}
