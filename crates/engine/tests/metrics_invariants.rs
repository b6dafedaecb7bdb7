//! Metrics invariants for the parallel engine: the observability layer
//! must tell a story that is *arithmetically consistent* with the work the
//! sampler actually did — per-shard draw counters sum to the corpus size,
//! synced bytes match the serialized counter footprint, MH bookkeeping
//! balances, and wall-clock accounting adds up.

use cold_core::{ColdConfig, Metrics, SamplerKernel};
use cold_engine::ParallelGibbs;
use cold_graph::CsrGraph;
use cold_text::{Corpus, CorpusBuilder};

fn data() -> (Corpus, CsrGraph) {
    let mut b = CorpusBuilder::new();
    let sports = ["football", "goal", "match"];
    let movie = ["film", "oscar", "actor"];
    for u in 0..4u32 {
        for rep in 0..5u16 {
            b.push_text(u, rep % 2, &sports);
        }
    }
    for u in 4..8u32 {
        for rep in 0..5u16 {
            b.push_text(u, 2 + rep % 2, &movie);
        }
    }
    let corpus = b.build();
    let mut edges = Vec::new();
    for a in 0..4u32 {
        for bb in 0..4u32 {
            if a != bb {
                edges.push((a, bb));
                edges.push((a + 4, bb + 4));
            }
        }
    }
    (corpus, CsrGraph::from_edges(8, &edges))
}

fn config(corpus: &Corpus, graph: &CsrGraph, metrics: Metrics) -> ColdConfig {
    ColdConfig::builder(2, 2)
        .iterations(12)
        .burn_in(8)
        .metrics(metrics)
        .hyperparams(cold_core::Hyperparams {
            alpha: 0.5,
            beta: 0.01,
            epsilon: 0.05,
            rho: 1.0,
            lambda0: 5.0,
            lambda1: 0.1,
        })
        .build(corpus, graph)
}

/// Per-shard post/link counters must sum to the corpus totals each sweep,
/// and the synced-bytes accounting must be internally consistent: the
/// `parallel.sync_bytes` counter equals the sum over supersteps of the
/// per-superstep measured totals, which in turn equal the sum of the
/// per-shard serialized delta sizes (`parallel.shard.<s>.sync_bytes`).
#[test]
fn shard_counters_and_sync_bytes_account_for_all_work() {
    let (corpus, graph) = data();
    let metrics = Metrics::enabled();
    let cfg = config(&corpus, &graph, metrics.clone());
    let mut pg = ParallelGibbs::new(&corpus, &graph, cfg, 3, 7);
    let n_posts = corpus.num_posts() as u64;
    let n_links = (pg.state().links.len() + pg.state().neg_links.len()) as u64;
    let sweeps = 5u64;
    let mut work_sync_total = 0u64;
    for sweep in 0..sweeps as usize {
        let work = pg.superstep(sweep);
        // The delta strategy measures real wire sizes per shard; they must
        // sum to the superstep total.
        assert_eq!(work.shard_sync_bytes.len(), 3);
        assert_eq!(work.sync_bytes, work.shard_sync_bytes.iter().sum::<u64>());
        work_sync_total += work.sync_bytes;
    }
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("parallel.supersteps"), sweeps);
    assert_eq!(snap.counter("parallel.sync_bytes"), work_sync_total);
    let mut shard_sync = 0u64;
    let mut post_draws = 0;
    let mut link_draws = 0;
    for s in 0..3 {
        shard_sync += snap.counter(&format!("parallel.shard.{s}.sync_bytes"));
        post_draws += snap.counter(&format!("parallel.shard.{s}.post_draws"));
        link_draws += snap.counter(&format!("parallel.shard.{s}.link_draws"));
    }
    assert_eq!(shard_sync, work_sync_total);
    // Deltas are sparse but never empty while the chain is moving, and a
    // shard's serialized delta is bounded by (a small multiple of) the
    // counter cells its items can touch.
    assert!(work_sync_total > 0);
    assert!(snap.counter("parallel.delta_cells") > 0);
    assert_eq!(post_draws, sweeps * n_posts);
    assert_eq!(link_draws, sweeps * n_links);
    // Every shard owns users, so every shard reports work.
    for s in 0..3 {
        assert!(snap.counter(&format!("parallel.shard.{s}.post_draws")) > 0);
    }
    // The imbalance gauge is published and sane (max/mean ≥ 1).
    let imbalance = snap.gauge("parallel.shard_imbalance").unwrap();
    assert!((1.0..3.0).contains(&imbalance), "{imbalance}");
}

/// The MH bookkeeping must balance even when proposals are drawn
/// concurrently across shards: accepted + rejected == proposals, and each
/// post draw pays exactly MH_STEPS_PER_DRAW proposals.
#[test]
fn mh_counters_balance_across_shards() {
    let (corpus, graph) = data();
    let metrics = Metrics::enabled();
    let cfg = {
        let base = config(&corpus, &graph, metrics.clone());
        ColdConfig {
            kernel: SamplerKernel::AliasMh,
            ..base
        }
    };
    let mut pg = ParallelGibbs::new(&corpus, &graph, cfg, 3, 11);
    for sweep in 0..4 {
        pg.superstep(sweep);
    }
    let snap = metrics.snapshot();
    let proposals = snap.counter("kernel.alias_mh.mh_proposals");
    let accepted = snap.counter("kernel.alias_mh.mh_accepted");
    let rejected = snap.counter("kernel.alias_mh.mh_rejected");
    assert!(proposals > 0);
    assert_eq!(accepted + rejected, proposals);
    let topic_draws = snap.counter("kernel.alias_mh.topic_draws");
    assert_eq!(topic_draws, 4 * corpus.num_posts() as u64);
    assert_eq!(
        proposals,
        topic_draws * cold_core::conditionals::MH_STEPS_PER_DRAW as u64
    );
}

/// `ParallelStats.wall_seconds` must be populated, positive, and
/// consistent with both the per-superstep timings and the
/// `parallel.wall_seconds` gauge.
#[test]
fn wall_seconds_is_populated_and_consistent() {
    let (corpus, graph) = data();
    let metrics = Metrics::enabled();
    let cfg = config(&corpus, &graph, metrics.clone());
    let iterations = cfg.iterations;
    let (_model, stats) = ParallelGibbs::new(&corpus, &graph, cfg, 3, 9).run();
    assert!(stats.wall_seconds > 0.0);
    assert_eq!(stats.superstep_seconds.len(), iterations);
    assert_eq!(stats.supersteps.len(), iterations);
    let summed: f64 = stats.superstep_seconds.iter().sum();
    assert!(
        summed <= stats.wall_seconds + 1e-6,
        "superstep timings {summed} exceed wall time {}",
        stats.wall_seconds
    );
    let snap = metrics.snapshot();
    assert_eq!(
        snap.gauge("parallel.wall_seconds"),
        Some(stats.wall_seconds)
    );
    assert_eq!(snap.gauge("parallel.shards"), Some(3.0));
    let hist = snap
        .histogram("parallel.superstep_seconds")
        .expect("superstep histogram recorded");
    assert_eq!(hist.count, iterations as u64);
    assert!(hist.sum <= stats.wall_seconds + 1e-6);
}

/// The shards=1 degenerate path reports its work under shard 0 and keeps
/// the same global invariants. It has no barrier, so it ships no bytes.
#[test]
fn single_shard_metrics_cover_the_whole_corpus() {
    let (corpus, graph) = data();
    let metrics = Metrics::enabled();
    let cfg = config(&corpus, &graph, metrics.clone());
    let iterations = cfg.iterations as u64;
    let (_model, stats) = ParallelGibbs::new(&corpus, &graph, cfg, 1, 5).run();
    assert!(stats.wall_seconds > 0.0);
    let snap = metrics.snapshot();
    assert_eq!(
        snap.counter("parallel.shard.0.post_draws"),
        iterations * corpus.num_posts() as u64
    );
    assert_eq!(snap.counter("parallel.supersteps"), iterations);
    assert_eq!(snap.gauge("parallel.shards"), Some(1.0));
    assert_eq!(snap.counter("parallel.sync_bytes"), 0);
    assert_eq!(stats.supersteps.len() as u64, iterations);
    for work in &stats.supersteps {
        assert_eq!(work.sync_bytes, 0, "{work:?}");
        assert!(work.shard_sync_bytes.is_empty(), "{work:?}");
    }
    // The exact kernel draws one community and one topic per post draw.
    assert_eq!(
        snap.counter("kernel.cached_log.comm_draws"),
        iterations * corpus.num_posts() as u64
    );
}
