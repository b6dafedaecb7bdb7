//! The `Auto` counter-storage policy on a wide model: with `K × V` past
//! the 2^20-cell floor and a few tokens per cell, the word–topic
//! families go sparse and nothing else does, and counter memory drops at
//! least 4× against all-dense. The sparse backend's sweep cost and the
//! footprint at training scale are the benchmark's `train_wide` workload
//! (`core.state_bytes`, `core.state_bytes.n_kv`).

use cold_core::state::CountState;
use cold_core::{ColdConfig, CounterStorage, GibbsSampler};
use cold_data::{generate, WorldConfig};

fn counter_bytes(state: &CountState) -> usize {
    state.families().iter().map(|(_, s)| s.heap_bytes()).sum()
}

#[test]
fn auto_goes_sparse_on_the_word_topic_families_only_and_saves_4x() {
    // 240 users × 12 posts × 10 words over V = 12 000, fit with C = 16,
    // K = 128: K × V ≈ 1.5M cells holding under 29k tokens.
    let world = WorldConfig {
        num_users: 240,
        num_communities: 6,
        num_topics: 16,
        num_time_slices: 24,
        vocab_size: 12_000,
        posts_per_user: 12.0,
        words_per_post: 10.0,
        ..WorldConfig::default()
    };
    let data = generate(&world, 20_159_831);
    let config = ColdConfig::builder(16, 128)
        .explicit_negatives(3.0)
        .counter_storage(CounterStorage::Dense)
        .build(&data.corpus, &data.graph);
    let dense = GibbsSampler::new(&data.corpus, &data.graph, config, 20_159_832)
        .state()
        .clone();
    let mut auto = dense.clone();
    auto.select_storage(CounterStorage::Auto);

    let sparse: Vec<&str> = auto
        .families()
        .iter()
        .filter(|(_, store)| store.is_sparse())
        .map(|&(name, _)| name)
        .collect();
    assert_eq!(sparse, ["n_kv", "n_vk"]);
    let (dense_bytes, auto_bytes) = (counter_bytes(&dense), counter_bytes(&auto));
    assert!(
        auto_bytes * 4 <= dense_bytes,
        "auto keeps {auto_bytes} counter bytes against {dense_bytes} dense"
    );
}
