//! Golden-trace regression tests: every sampler kernel's full training
//! trajectory — the log-likelihood trace plus the fitted model's top words
//! and hard community assignments — is pinned against a checked-in
//! fixture. Any change to RNG consumption order, conditional arithmetic,
//! or cache behaviour shows up here as a bit-level diff.
//!
//! The sharded engine is pinned the same way: at shards {2, 4} under
//! every kernel, the per-superstep log-likelihood of the authoritative
//! barrier state plus the fitted model's top words and hard communities
//! (`golden_sharded<N>_<kernel>.json`). Any change to which stale counts
//! a shard reads, to the barrier's apply order or to the per-(superstep,
//! shard) RNG streams shows up in them.
//!
//! To refresh the fixtures after an *intentional* trajectory change run
//! `scripts/regen_golden.sh` (sets `REGEN_GOLDEN=1`) and review the
//! resulting diff like any other code change.

use cold::core::{
    Checkpoint, Checkpointer, ColdConfig, ColdModel, CounterStorage, GibbsSampler, Hyperparams,
    SamplerKernel,
};
use cold::data::{generate, SocialDataset, WorldConfig};
use cold::engine::ParallelGibbs;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenTrace {
    kernel: String,
    seed: u64,
    /// Sweeps at which the log-likelihood was evaluated.
    ll_sweeps: Vec<u64>,
    /// The log-likelihood values, printed with `{:.17e}` so the decimal
    /// text round-trips `f64` exactly (bit-level pin without hex).
    ll_values: Vec<String>,
    /// Top 8 words of each topic, most probable first.
    top_words: Vec<String>,
    /// Hard community assignment per user.
    hard_communities: Vec<u32>,
}

const SEED: u64 = 97;

fn world() -> SocialDataset {
    generate(&WorldConfig::tiny(), 4242)
}

fn config(data: &SocialDataset) -> ColdConfig {
    ColdConfig::builder(3, 3)
        .iterations(24)
        .burn_in(16)
        .sample_lag(2)
        .ll_every(4)
        .hyperparams(Hyperparams {
            alpha: 1.0,
            beta: 0.01,
            epsilon: 0.01,
            rho: 1.0,
            lambda0: 0.1,
            lambda1: 0.1,
        })
        .build(&data.corpus, &data.graph)
}

fn trace_kernel(kernel: SamplerKernel) -> GoldenTrace {
    trace_kernel_with_storage(kernel, CounterStorage::Dense)
}

fn trace_kernel_with_storage(
    kernel: SamplerKernel,
    counter_storage: CounterStorage,
) -> GoldenTrace {
    let data = world();
    let base = config(&data);
    let cfg = ColdConfig {
        kernel,
        counter_storage,
        ..base
    };
    let (model, trace) = GibbsSampler::new(&data.corpus, &data.graph, cfg, SEED).run_traced();
    golden(kernel, &data, &model, &trace.log_likelihood)
}

/// Assemble a trace record from a finished run's model and its
/// `(sweep, log-likelihood)` monitor points.
fn golden(
    kernel: SamplerKernel,
    data: &SocialDataset,
    model: &ColdModel,
    ll: &[(usize, f64)],
) -> GoldenTrace {
    let top_words = (0..3)
        .map(|k| {
            model
                .top_words(k, 8, data.corpus.vocab())
                .into_iter()
                .map(|(w, _)| w.to_owned())
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    GoldenTrace {
        kernel: kernel.name().to_owned(),
        seed: SEED,
        ll_sweeps: ll.iter().map(|&(s, _)| s as u64).collect(),
        ll_values: ll.iter().map(|&(_, ll)| format!("{ll:.17e}")).collect(),
        top_words,
        hard_communities: model.hard_user_communities(),
    }
}

fn fixture_path(kernel: SamplerKernel) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(format!("golden_{}.json", kernel.name()))
}

/// Re-run a kernel's golden trajectory with every counter family forced
/// onto the sparse backend. The fixtures were recorded dense: matching
/// them is the storage abstraction's bit-identity acceptance test — the
/// hashed backend must feed the conditionals the exact same counts in the
/// exact same order, so the trajectory (RNG consumption included) cannot
/// drift by even one draw.
fn check_kernel_sparse(kernel: SamplerKernel) {
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        return; // fixtures are regenerated from the dense default only
    }
    let text = std::fs::read_to_string(fixture_path(kernel))
        .unwrap_or_else(|e| panic!("missing fixture for {} ({e})", kernel.name()));
    let expected: GoldenTrace = serde_json::from_str(&text).expect("parse fixture");
    let actual = trace_kernel_with_storage(kernel, CounterStorage::Sparse);
    assert_eq!(
        expected,
        actual,
        "{}: sparse-backed trajectory diverged from the dense golden fixture",
        kernel.name()
    );
}

fn check_kernel(kernel: SamplerKernel) {
    check_fixture(&fixture_path(kernel), kernel.name(), &trace_kernel(kernel));
}

/// Compare `actual` with the fixture at `path`, field by field so the
/// first drifting sweep is named — or, under `REGEN_GOLDEN`, rewrite the
/// fixture from `actual`.
fn check_fixture(path: &std::path::Path, label: &str, actual: &GoldenTrace) {
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        let json = serde_json::to_string_pretty(actual).expect("serialize trace");
        std::fs::write(path, json + "\n").expect("write fixture");
        println!("regenerated {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run scripts/regen_golden.sh",
            path.display()
        )
    });
    let expected: GoldenTrace = serde_json::from_str(&text).expect("parse fixture");
    assert_eq!(
        expected.ll_sweeps, actual.ll_sweeps,
        "{label}: ll checkpoint sweeps drifted"
    );
    for (i, (e, a)) in expected.ll_values.iter().zip(&actual.ll_values).enumerate() {
        assert_eq!(
            e, a,
            "{label}: log-likelihood at sweep {} drifted (intentional? run \
             scripts/regen_golden.sh and commit the diff)",
            expected.ll_sweeps[i]
        );
    }
    assert_eq!(
        expected.top_words, actual.top_words,
        "{label}: top words drifted"
    );
    assert_eq!(
        expected.hard_communities, actual.hard_communities,
        "{label}: hard community assignments drifted"
    );
    assert_eq!(&expected, actual, "{label}: trace drifted");
}

/// Train the golden config on the sharded engine, evaluating the
/// authoritative state's log-likelihood at every superstep barrier.
fn trace_sharded(kernel: SamplerKernel, shards: usize) -> GoldenTrace {
    let data = world();
    let cfg = ColdConfig {
        kernel,
        ..config(&data)
    };
    let iterations = cfg.iterations;
    let mut pg = ParallelGibbs::new(&data.corpus, &data.graph, cfg, shards, SEED);
    let mut ll = Vec::with_capacity(iterations);
    for sweep in 0..iterations {
        pg.run_sweeps(sweep + 1, None)
            .expect("checkpoint-free sweep");
        ll.push((sweep, pg.log_likelihood()));
    }
    golden(kernel, &data, &pg.finish(), &ll)
}

fn sharded_fixture_path(kernel: SamplerKernel, shards: usize) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(format!("golden_sharded{shards}_{}.json", kernel.name()))
}

fn check_sharded(kernel: SamplerKernel, shards: usize) {
    let label = format!("{} at {shards} shards", kernel.name());
    check_fixture(
        &sharded_fixture_path(kernel, shards),
        &label,
        &trace_sharded(kernel, shards),
    );
}

/// Re-run a kernel's golden trajectory with mid-run checkpointing, then
/// throw the sampler away at sweep 16 and resume from the on-disk
/// checkpoint. The resumed trace must match the uninterrupted fixture
/// bit for bit — this is the acceptance test for `cold-ckpt/v1` resume.
fn trace_kernel_resumed(kernel: SamplerKernel, counter_storage: CounterStorage) -> GoldenTrace {
    let data = world();
    let base = config(&data);
    let cfg = || ColdConfig {
        kernel,
        counter_storage,
        checkpoint_every: Some(8),
        ..base.clone()
    };
    let dir = std::env::temp_dir().join(format!(
        "cold_golden_resume_{}_{}_{}",
        kernel.name(),
        if counter_storage == CounterStorage::Sparse {
            "sparse"
        } else {
            "dense"
        },
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let ckptr = Checkpointer::new(&dir).expect("create checkpoint dir");
    // Checkpointed run to completion: checkpoints land at sweeps 8, 16, 24.
    let sampler = GibbsSampler::new(&data.corpus, &data.graph, cfg(), SEED);
    sampler
        .run_traced_checkpointed(&ckptr)
        .expect("checkpointed golden run");
    // Resume from the *middle* checkpoint, as if the run had died at
    // sweep 16, and train the remaining 8 sweeps.
    let ckpt = Checkpoint::read(dir.join("ckpt-00000016.json")).expect("read sweep-16 checkpoint");
    assert_eq!(ckpt.sweeps_done, 16, "mid-run checkpoint sweep");
    let mut resumed =
        GibbsSampler::resume(&data.corpus, cfg(), ckpt).expect("resume from sweep 16");
    resumed
        .run_sweeps(usize::MAX, None)
        .expect("finish resumed run");
    let (model, trace) = resumed.finish_traced();
    std::fs::remove_dir_all(&dir).ok();
    golden(kernel, &data, &model, &trace.log_likelihood)
}

fn check_kernel_resumed_with_storage(kernel: SamplerKernel, counter_storage: CounterStorage) {
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        return;
    }
    let text = std::fs::read_to_string(fixture_path(kernel))
        .unwrap_or_else(|e| panic!("missing fixture for {} ({e})", kernel.name()));
    let expected: GoldenTrace = serde_json::from_str(&text).expect("parse fixture");
    let actual = trace_kernel_resumed(kernel, counter_storage);
    assert_eq!(
        expected,
        actual,
        "{}: resume from a mid-run checkpoint ({} counters) diverged from \
         the uninterrupted golden trajectory",
        kernel.name(),
        if counter_storage == CounterStorage::Sparse {
            "sparse"
        } else {
            "dense"
        },
    );
}

fn check_kernel_resumed(kernel: SamplerKernel) {
    check_kernel_resumed_with_storage(kernel, CounterStorage::Dense);
}

#[test]
fn golden_trace_exact() {
    check_kernel(SamplerKernel::Exact);
}

#[test]
fn golden_trace_cached_log() {
    check_kernel(SamplerKernel::CachedLog);
}

#[test]
fn golden_trace_alias_mh() {
    check_kernel(SamplerKernel::AliasMh);
}

#[test]
fn resumed_trace_matches_golden_exact() {
    check_kernel_resumed(SamplerKernel::Exact);
}

#[test]
fn resumed_trace_matches_golden_cached_log() {
    check_kernel_resumed(SamplerKernel::CachedLog);
}

#[test]
fn resumed_trace_matches_golden_alias_mh() {
    check_kernel_resumed(SamplerKernel::AliasMh);
}

#[test]
fn sharded2_trace_exact() {
    check_sharded(SamplerKernel::Exact, 2);
}

#[test]
fn sharded2_trace_cached_log() {
    check_sharded(SamplerKernel::CachedLog, 2);
}

#[test]
fn sharded2_trace_alias_mh() {
    check_sharded(SamplerKernel::AliasMh, 2);
}

#[test]
fn sharded4_trace_exact() {
    check_sharded(SamplerKernel::Exact, 4);
}

#[test]
fn sharded4_trace_cached_log() {
    check_sharded(SamplerKernel::CachedLog, 4);
}

#[test]
fn sharded4_trace_alias_mh() {
    check_sharded(SamplerKernel::AliasMh, 4);
}

/// Sparse-backed runs replay the dense golden fixtures bit for bit: the
/// counter-storage backend is observationally invisible to the chain.
#[test]
fn sparse_trace_matches_golden_exact() {
    check_kernel_sparse(SamplerKernel::Exact);
}

#[test]
fn sparse_trace_matches_golden_cached_log() {
    check_kernel_sparse(SamplerKernel::CachedLog);
}

#[test]
fn sparse_trace_matches_golden_alias_mh() {
    check_kernel_sparse(SamplerKernel::AliasMh);
}

/// Checkpoint → resume with sparse counters: the checkpoint bytes are
/// backend-agnostic (dense JSON), resume re-selects the sparse backend,
/// and the finished trajectory still matches the dense golden fixture.
#[test]
fn sparse_resumed_trace_matches_golden_cached_log() {
    check_kernel_resumed_with_storage(SamplerKernel::CachedLog, CounterStorage::Sparse);
}

/// The cached-log kernel is *pure memoization*: its golden trace must be
/// byte-identical to the exact kernel's (only the `kernel` tag differs),
/// sequentially and at every pinned shard count.
#[test]
fn cached_log_fixture_matches_exact_fixture() {
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        return;
    }
    let read = |path: std::path::PathBuf| -> GoldenTrace {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {} ({e})", path.display()));
        serde_json::from_str(&text).expect("parse fixture")
    };
    let pairs = [
        (
            fixture_path(SamplerKernel::Exact),
            fixture_path(SamplerKernel::CachedLog),
        ),
        (
            sharded_fixture_path(SamplerKernel::Exact, 2),
            sharded_fixture_path(SamplerKernel::CachedLog, 2),
        ),
        (
            sharded_fixture_path(SamplerKernel::Exact, 4),
            sharded_fixture_path(SamplerKernel::CachedLog, 4),
        ),
    ];
    for (exact, cached) in pairs {
        let (exact, cached) = (read(exact), read(cached));
        assert_eq!(exact.ll_values, cached.ll_values);
        assert_eq!(exact.top_words, cached.top_words);
        assert_eq!(exact.hard_communities, cached.hard_communities);
    }
}
