//! Property tests for the sparse delta-sync machinery: for *arbitrary*
//! data shapes and resampling-op sequences, accumulating counter updates
//! in a `DeltaAcc` and applying the drained `CountDelta` to the starting
//! state must reproduce direct mutation exactly — the invariant the
//! parallel engine's delta barrier rests on — and the wire format's
//! advertised length must be exact.

use cold_core::conditionals::{resample_link, resample_negative_link, resample_post, Scratch};
use cold_core::state::{CountState, DeltaAcc, PostsView};
use cold_core::ColdConfig;
use cold_graph::CsrGraph;
use cold_math::rng::seeded_rng;
use cold_text::{CorpusBuilder, Post};
use proptest::prelude::*;

/// Arbitrary small social dataset: up to 8 users, 30 posts, 20 links.
fn arb_dataset() -> impl Strategy<Value = (cold_text::Corpus, CsrGraph)> {
    let posts = prop::collection::vec(
        (0u32..8, 0u16..5, prop::collection::vec(0u32..30, 1..6)),
        1..30,
    );
    let edges = prop::collection::vec((0u32..8, 0u32..8), 0..20);
    (posts, edges).prop_map(|(posts, edges)| {
        let mut b = CorpusBuilder::with_vocab(cold_text::Vocabulary::synthetic(30));
        b.ensure_users(8);
        for (author, time, words) in posts {
            b.push(Post::new(author, time, words));
        }
        let corpus = b.build();
        let graph = CsrGraph::from_edges(8, &edges);
        (corpus, graph)
    })
}

/// A raw op script: (kind, index) pairs resolved modulo the actual item
/// counts at run time. Kind 0 = post, 1 = link, 2 = negative pair.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, u32)>> {
    prop::collection::vec((0u8..3, 0u32..1_000), 1..60)
}

/// Run `ops` against `state`, optionally mirroring into an accumulator
/// attached to the scratch. Identical op resolution and RNG consumption on
/// both arms, so trajectories are comparable draw for draw.
fn run_ops(
    state: &mut CountState,
    posts: &PostsView,
    config: &ColdConfig,
    ops: &[(u8, u32)],
    seed: u64,
    acc: Option<Box<DeltaAcc>>,
) -> Option<Box<DeltaAcc>> {
    let mut rng = seeded_rng(seed);
    let mut scratch = Scratch::for_config(config);
    scratch.begin_sweep(state);
    if let Some(acc) = acc {
        scratch.attach_delta(acc);
    }
    let h = &config.hyper;
    for &(kind, raw) in ops {
        match kind {
            0 => {
                let d = raw as usize % posts.len();
                resample_post(state, posts, d, h, h.rho, &mut rng, &mut scratch);
            }
            1 if !state.links.is_empty() => {
                let e = raw as usize % state.links.len();
                resample_link(state, e, h, h.rho, &mut rng, &mut scratch);
            }
            2 if !state.neg_links.is_empty() => {
                let e = raw as usize % state.neg_links.len();
                resample_negative_link(state, e, h, h.rho, &mut rng, &mut scratch);
            }
            _ => {}
        }
    }
    scratch.detach_delta()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// apply ∘ accumulate == direct mutation: replaying the drained delta
    /// onto the starting state reproduces the mutated state bit for bit
    /// (all counters, derived mirrors, and assignments) — and recording
    /// never perturbs the draws themselves.
    #[test]
    fn delta_replay_equals_direct_mutation(
        (corpus, graph) in arb_dataset(),
        ops in arb_ops(),
        seed in 0u64..1_000,
    ) {
        let config = ColdConfig::builder(3, 3)
            .iterations(4)
            .explicit_negatives(1.0)
            .build(&corpus, &graph);
        let posts = PostsView::from_corpus(&corpus);
        let mut init_rng = seeded_rng(seed ^ 0xA5A5);
        let base = CountState::init_random(&config, &posts, &graph, &mut init_rng);

        // Arm 1: direct mutation, no recording.
        let mut direct = base.clone();
        run_ops(&mut direct, &posts, &config, &ops, seed, None);

        // Arm 2: same ops with a delta accumulator attached.
        let mut recorded = base.clone();
        let acc = Box::new(DeltaAcc::for_state(&base));
        let mut acc = run_ops(&mut recorded, &posts, &config, &ops, seed, Some(acc))
            .expect("accumulator returned");
        prop_assert_eq!(&recorded, &direct, "recording perturbed the trajectory");

        // Replay: base + delta == mutated state.
        let delta = acc.drain();
        let mut replayed = base.clone();
        replayed.apply_delta(&delta);
        prop_assert_eq!(&replayed, &direct, "delta replay diverged");

        // The wire format's advertised length is exact.
        prop_assert_eq!(delta.encode().len() as u64, delta.encoded_len());

        // Draining left the accumulator reusable: a second, empty drain.
        prop_assert!(acc.drain().is_empty());
    }

    /// Splitting an op sequence into two supersteps and merging the two
    /// drained deltas is equivalent to one combined delta: merge composes.
    #[test]
    fn merged_deltas_compose_sequentially(
        (corpus, graph) in arb_dataset(),
        ops in arb_ops(),
        split in 0usize..60,
        seed in 0u64..1_000,
    ) {
        let config = ColdConfig::builder(2, 3)
            .iterations(4)
            .explicit_negatives(1.0)
            .build(&corpus, &graph);
        let posts = PostsView::from_corpus(&corpus);
        let mut init_rng = seeded_rng(seed ^ 0x5A5A);
        let base = CountState::init_random(&config, &posts, &graph, &mut init_rng);
        let split = split.min(ops.len());
        let (first, second) = ops.split_at(split);

        let mut state = base.clone();
        let acc = Box::new(DeltaAcc::for_state(&base));
        let mut acc = run_ops(&mut state, &posts, &config, first, seed, Some(acc))
            .expect("accumulator returned");
        let d1 = acc.drain();
        let acc = run_ops(&mut state, &posts, &config, second, seed + 1, Some(acc));
        let mut acc = acc.expect("accumulator returned");
        let d2 = acc.drain();

        let mut merged = d1.clone();
        merged.merge(&d2);
        let mut replayed = base.clone();
        replayed.apply_delta(&merged);
        prop_assert_eq!(&replayed, &state, "merged delta replay diverged");
    }
}
