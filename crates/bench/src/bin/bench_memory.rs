//! Memory-footprint study of the counter-storage backends.
//!
//! Scales the wide-vocabulary bench world 10×–100× and records, per scale,
//! the peak counter bytes under the dense, sparse, and auto backends, the
//! per-family breakdown (cells, occupancy, bytes per backend), bytes per
//! user / per post, and the sparse-vs-dense ms/sweep ratio. The latent
//! dimensions are deliberately larger than the quality experiments use
//! (`C = 16`, `K = 64`): million-user deployments run wide models, and a
//! wide `K × V` block is exactly where occupancy collapses and the sparse
//! backend pays off.
//!
//! Also times `ColdModel` artifact loading — JSON vs the `cold-model/v1`
//! binary — on the 10× world's model.
//!
//! Writes `BENCH_memory.json` at the workspace root; `--quick` runs the 1×
//! world only and writes `BENCH_memory_quick.json` so CI smoke runs never
//! clobber the committed headline.

use cold_bench::workloads::{cold_hyper, BASE_SEED};
use cold_core::{ColdConfig, ColdModel, CounterStorage, GibbsSampler, ModelFormat, SamplerKernel};
use cold_data::{generate, SocialDataset, WorldConfig};
use serde::Serialize;
use std::time::Instant;

/// Latent dimensions for the memory study (wide, unlike the C=6/K=16
/// quality runs — see module docs).
const C: usize = 16;
const K: usize = 64;

#[derive(Serialize)]
struct FamilyRow {
    family: String,
    cells: u64,
    nonzero: u64,
    occupancy: f64,
    dense_bytes: u64,
    sparse_bytes: u64,
    /// Bytes under the `auto` policy, with the backend it picked.
    auto_bytes: u64,
    auto_backend: String,
}

#[derive(Serialize)]
struct ScalePoint {
    scale: f64,
    num_users: u32,
    num_posts: usize,
    num_tokens: usize,
    vocab_size: usize,
    /// Peak counter bytes per backend (post-init; counts only move between
    /// cells afterwards, so init occupancy is the steady-state footprint).
    dense_counter_bytes: u64,
    sparse_counter_bytes: u64,
    auto_counter_bytes: u64,
    dense_over_sparse: f64,
    dense_over_auto: f64,
    bytes_per_user_dense: f64,
    bytes_per_user_auto: f64,
    bytes_per_post_dense: f64,
    bytes_per_post_auto: f64,
    ms_per_sweep_dense: f64,
    ms_per_sweep_sparse: f64,
    ms_per_sweep_auto: f64,
    /// Sweep-time cost of the all-sparse backend (1.0 = free).
    sweep_ratio_sparse_vs_dense: f64,
    /// Sweep-time cost of the auto policy — sparse only where occupancy
    /// says it pays (the configuration a memory-lean deployment runs).
    sweep_ratio_auto_vs_dense: f64,
    families: Vec<FamilyRow>,
}

#[derive(Serialize)]
struct ModelLoadTiming {
    scale: f64,
    json_bytes: u64,
    binary_bytes: u64,
    json_load_ms: f64,
    binary_load_ms: f64,
    /// JSON load time over binary load time (higher = binary wins).
    speedup: f64,
}

#[derive(Serialize)]
struct BenchReport {
    world: String,
    communities: usize,
    topics: usize,
    points: Vec<ScalePoint>,
    model_load: ModelLoadTiming,
    headline: String,
}

/// A wide-vocabulary world (240 users, V = 12 000, K = 16, C = 6) at
/// `scale`: the K × V word counts dominate the counter footprint.
fn world(scale: f64) -> SocialDataset {
    let config = WorldConfig {
        num_users: 240,
        num_communities: 6,
        num_topics: 16,
        num_time_slices: 24,
        vocab_size: 12000,
        posts_per_user: 12.0,
        words_per_post: 10.0,
        ..WorldConfig::default()
    }
    .scaled(scale);
    generate(&config, BASE_SEED + 9300)
}

fn config_for(data: &SocialDataset, storage: CounterStorage) -> ColdConfig {
    ColdConfig::builder(C, K)
        .iterations(1_000_000) // driven manually, never run to completion
        .explicit_negatives(3.0)
        .hyperparams(cold_hyper(C, K, data))
        .kernel(SamplerKernel::CachedLog)
        .counter_storage(storage)
        .build(&data.corpus, &data.graph)
}

/// ms per sweep for the dense, sparse, and auto backends, measured
/// *interleaved*: all three samplers are built and warmed, then timed
/// sweeps alternate dense → sparse → auto for `timed` rounds and each
/// backend reports its minimum. Sequential per-backend blocks are useless
/// for ratios on shared machines — CPU frequency, allocator warm-up and
/// neighbour load drift by tens of percent over a run, and whichever
/// backend is measured first eats the cold phase. Interleaving puts every
/// backend in the same weather; the min damps the residual noise.
///
/// Each timed sweep is preceded by one untimed sweep of the *same*
/// sampler: the three samplers share the LLC, so without it the dense
/// sampler's ~60 MiB counter stream evicts the lean backends' counters
/// between their turns and charges them a re-fault bill a single-backend
/// deployment never pays. The warm sweep restores each backend's natural
/// cache state before its measurement.
fn sweep_times(data: &SocialDataset, burn_in: usize, timed: usize) -> (f64, f64, f64) {
    let storages = [
        CounterStorage::Dense,
        CounterStorage::Sparse,
        CounterStorage::Auto,
    ];
    let mut samplers: Vec<_> = storages
        .iter()
        .map(|&s| {
            GibbsSampler::new(
                &data.corpus,
                &data.graph,
                config_for(data, s),
                BASE_SEED + 9301,
            )
        })
        .collect();
    for sampler in &mut samplers {
        for _ in 0..burn_in {
            sampler.sweep();
        }
    }
    let mut best = [f64::INFINITY; 3];
    for _ in 0..timed {
        for (i, sampler) in samplers.iter_mut().enumerate() {
            sampler.sweep(); // untimed: restore this backend's cache state
            let start = Instant::now();
            sampler.sweep();
            best[i] = best[i].min(1e3 * start.elapsed().as_secs_f64());
        }
    }
    (best[0], best[1], best[2])
}

fn measure_scale(scale: f64, burn_in: usize, timed: usize) -> ScalePoint {
    let data = world(scale);
    println!(
        "scale {scale}: {} users, {} posts, {} tokens, vocab {}",
        data.corpus.num_users(),
        data.corpus.num_posts(),
        data.corpus.num_tokens(),
        data.corpus.vocab_size()
    );

    // One dense state for the footprint census; re-backed clones measure
    // the other policies on bit-identical counts.
    let probe = GibbsSampler::new(
        &data.corpus,
        &data.graph,
        config_for(&data, CounterStorage::Dense),
        BASE_SEED + 9301,
    );
    let dense_state = probe.state();
    let mut alt = dense_state.clone();
    alt.select_storage(CounterStorage::Sparse);
    let sparse_bytes_by_family: Vec<u64> = alt
        .families()
        .iter()
        .map(|(_, s)| s.heap_bytes() as u64)
        .collect();
    alt.select_storage(CounterStorage::Auto);

    let mut families = Vec::new();
    for (i, &(name, dense)) in dense_state.families().iter().enumerate() {
        let (_, auto) = alt.families()[i];
        families.push(FamilyRow {
            family: name.to_owned(),
            cells: dense.len() as u64,
            nonzero: dense.nnz() as u64,
            occupancy: dense.occupancy(),
            dense_bytes: dense.heap_bytes() as u64,
            sparse_bytes: sparse_bytes_by_family[i],
            auto_bytes: auto.heap_bytes() as u64,
            auto_backend: if auto.is_sparse() { "sparse" } else { "dense" }.to_owned(),
        });
    }
    let dense_counter_bytes: u64 = families.iter().map(|f| f.dense_bytes).sum();
    let sparse_counter_bytes: u64 = families.iter().map(|f| f.sparse_bytes).sum();
    let auto_counter_bytes: u64 = families.iter().map(|f| f.auto_bytes).sum();
    drop(alt);
    drop(probe);

    let (ms_dense, ms_sparse, ms_auto) = sweep_times(&data, burn_in, timed);

    let users = data.corpus.num_users();
    let posts = data.corpus.num_posts();
    let point = ScalePoint {
        scale,
        num_users: users,
        num_posts: posts,
        num_tokens: data.corpus.num_tokens(),
        vocab_size: data.corpus.vocab_size(),
        dense_counter_bytes,
        sparse_counter_bytes,
        auto_counter_bytes,
        dense_over_sparse: dense_counter_bytes as f64 / sparse_counter_bytes as f64,
        dense_over_auto: dense_counter_bytes as f64 / auto_counter_bytes as f64,
        bytes_per_user_dense: dense_counter_bytes as f64 / users as f64,
        bytes_per_user_auto: auto_counter_bytes as f64 / users as f64,
        bytes_per_post_dense: dense_counter_bytes as f64 / posts as f64,
        bytes_per_post_auto: auto_counter_bytes as f64 / posts as f64,
        ms_per_sweep_dense: ms_dense,
        ms_per_sweep_sparse: ms_sparse,
        ms_per_sweep_auto: ms_auto,
        sweep_ratio_sparse_vs_dense: ms_sparse / ms_dense,
        sweep_ratio_auto_vs_dense: ms_auto / ms_dense,
        families,
    };
    println!(
        "  counters: dense {:.1} MiB, sparse {:.1} MiB ({:.1}x), auto {:.1} MiB ({:.1}x); \
         sweep {:.0} ms dense, {:.0} ms sparse ({:.2}x), {:.0} ms auto ({:.2}x)",
        point.dense_counter_bytes as f64 / (1 << 20) as f64,
        point.sparse_counter_bytes as f64 / (1 << 20) as f64,
        point.dense_over_sparse,
        point.auto_counter_bytes as f64 / (1 << 20) as f64,
        point.dense_over_auto,
        point.ms_per_sweep_dense,
        point.ms_per_sweep_sparse,
        point.sweep_ratio_sparse_vs_dense,
        point.ms_per_sweep_auto,
        point.sweep_ratio_auto_vs_dense,
    );
    point
}

/// Fit a short-run model on `data`, save it both ways, time both loads.
fn model_load_timing(data: &SocialDataset, scale: f64) -> ModelLoadTiming {
    let config = ColdConfig::builder(C, K)
        .iterations(6)
        .burn_in(4)
        .sample_lag(1)
        .explicit_negatives(3.0)
        .hyperparams(cold_hyper(C, K, data))
        .counter_storage(CounterStorage::Auto)
        .build(&data.corpus, &data.graph);
    let model = GibbsSampler::new(&data.corpus, &data.graph, config, BASE_SEED + 9302).run();

    let dir = std::env::temp_dir().join("cold_bench_memory");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json_path = dir.join("model.json");
    let bin_path = dir.join("model.bin");
    model
        .save_as(json_path.to_str().unwrap(), ModelFormat::Json)
        .expect("save json");
    model
        .save_as(bin_path.to_str().unwrap(), ModelFormat::Binary)
        .expect("save binary");
    let json_bytes = std::fs::metadata(&json_path).expect("stat").len();
    let binary_bytes = std::fs::metadata(&bin_path).expect("stat").len();

    // One JSON rep (it is the slow path by construction), best of three
    // binary reps.
    let t = Instant::now();
    let from_json = ColdModel::load(json_path.to_str().unwrap()).expect("load json");
    let json_load_ms = 1e3 * t.elapsed().as_secs_f64();
    let mut binary_load_ms = f64::INFINITY;
    let mut from_bin = None;
    for _ in 0..3 {
        let t = Instant::now();
        from_bin = Some(ColdModel::load(bin_path.to_str().unwrap()).expect("load binary"));
        binary_load_ms = binary_load_ms.min(1e3 * t.elapsed().as_secs_f64());
    }
    assert!(
        from_bin.expect("loaded").to_json() == from_json.to_json(),
        "binary and JSON artifacts disagree"
    );
    let _ = std::fs::remove_file(&json_path);
    let _ = std::fs::remove_file(&bin_path);

    let timing = ModelLoadTiming {
        scale,
        json_bytes,
        binary_bytes,
        json_load_ms,
        binary_load_ms,
        speedup: json_load_ms / binary_load_ms,
    };
    println!(
        "model artifact: json {:.1} MiB loads in {:.0} ms, binary {:.1} MiB in {:.0} ms ({:.1}x)",
        json_bytes as f64 / (1 << 20) as f64,
        json_load_ms,
        binary_bytes as f64 / (1 << 20) as f64,
        binary_load_ms,
        timing.speedup,
    );
    timing
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // (scale, warm-up sweeps, timed sweeps): fewer sweeps as worlds grow.
    let grid: &[(f64, usize, usize)] = if quick {
        &[(1.0, 1, 2)]
    } else {
        &[(10.0, 3, 5), (30.0, 2, 3), (100.0, 1, 2)]
    };
    let out_file = if quick {
        "../BENCH_memory_quick.json"
    } else {
        "../BENCH_memory.json"
    };

    let points: Vec<ScalePoint> = grid
        .iter()
        .map(|&(scale, burn_in, timed)| measure_scale(scale, burn_in, timed))
        .collect();

    // Artifact timing on the first (headline) scale's world.
    let timing_scale = grid[0].0;
    let model_load = model_load_timing(&world(timing_scale), timing_scale);

    let head = &points[0];
    let headline = format!(
        "at {}x the bench world the occupancy-selected (auto) backend holds the counters in \
         {:.1}x fewer bytes than dense ({:.1} MiB vs {:.1} MiB, {:.0} B/user vs {:.0} B/user) \
         at {:.2}x the sweep time; the cold-model/v1 binary artifact loads {:.1}x faster than JSON",
        head.scale,
        head.dense_over_auto,
        head.auto_counter_bytes as f64 / (1 << 20) as f64,
        head.dense_counter_bytes as f64 / (1 << 20) as f64,
        head.bytes_per_user_auto,
        head.bytes_per_user_dense,
        head.sweep_ratio_auto_vs_dense,
        model_load.speedup,
    );
    println!("\n{headline}");
    if !quick {
        if head.dense_over_auto < 4.0 {
            eprintln!("warning: counter-byte reduction below the 4x target");
        }
        // The acceptance bar applies to the auto policy — sparse only for
        // the families occupancy selects it for, i.e. the configuration a
        // memory-lean deployment actually runs. The all-sparse ratio is
        // reported alongside as the stress ceiling.
        if head.sweep_ratio_auto_vs_dense > 1.15 {
            eprintln!("warning: auto-policy sweep-time overhead above the 1.15x target");
        }
        if model_load.speedup < 10.0 {
            eprintln!("warning: binary load speedup below the 10x target");
        }
    }

    let report = BenchReport {
        world: format!("wide-vocab bench world, C={C} K={K}"),
        communities: C,
        topics: K,
        points,
        model_load,
        headline,
    };
    let path = cold_bench::results_dir().join(out_file);
    let json = serde_json::to_string_pretty(&report).expect("report serialization");
    std::fs::write(&path, json + "\n").expect("write bench report");
    println!("(saved {})", path.display());
}
