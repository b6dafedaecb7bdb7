//! Full persistence pipeline: generate → train → save → load → predict,
//! with the loaded model behaving identically to the in-memory one, and
//! a stored `cold-model/v1` artifact that every later build must still
//! decode and reproduce byte for byte.

use cold::core::predict::{link_probability, post_log_likelihood, predict_time_slice};
use cold::core::{ColdConfig, ColdModel, DiffusionPredictor, GibbsSampler};
use cold::data::{generate, WorldConfig};
use cold::graph::CsrGraph;
use cold::text::CorpusBuilder;
use std::path::PathBuf;

fn world() -> cold::data::SocialDataset {
    let mut config = WorldConfig::tiny();
    config.num_users = 80;
    generate(&config, 909)
}

fn fit(data: &cold::data::SocialDataset) -> ColdModel {
    let config = ColdConfig::builder(3, 3)
        .iterations(80)
        .burn_in(70)
        .small_data_defaults()
        .build(&data.corpus, &data.graph);
    GibbsSampler::new(&data.corpus, &data.graph, config, 17).run()
}

#[test]
fn saved_and_loaded_models_predict_identically() {
    let data = world();
    let model = fit(&data);
    let path = std::env::temp_dir().join("cold_persistence_pipeline.cold");
    model.save(&path).expect("save");
    let loaded = ColdModel::open(&path).expect("open");
    std::fs::remove_file(&path).ok();

    // Every prediction surface must agree bit-for-bit.
    let post = data.corpus.post(0);
    assert_eq!(
        post_log_likelihood(&model, post.author, &post.words),
        post_log_likelihood(&loaded, post.author, &post.words)
    );
    assert_eq!(
        predict_time_slice(&model, post.author, &post.words),
        predict_time_slice(&loaded, post.author, &post.words)
    );
    assert_eq!(
        link_probability(&model, 0, 1),
        link_probability(&loaded, 0, 1)
    );
    let p1 = DiffusionPredictor::new(&model, 3).expect("top_comm >= 1");
    let p2 = DiffusionPredictor::new(&loaded, 3).expect("top_comm >= 1");
    assert_eq!(
        p1.diffusion_score(0, 1, &post.words).expect("valid ids"),
        p2.diffusion_score(0, 1, &post.words).expect("valid ids")
    );
    for k in 0..3 {
        assert_eq!(
            model.top_words(k, 5, data.corpus.vocab()),
            loaded.top_words(k, 5, data.corpus.vocab())
        );
    }
}

#[test]
fn dataset_round_trips_through_json() {
    let data = world();
    let json = serde_json::to_string(&data).expect("serialize dataset");
    let back: cold::data::SocialDataset = serde_json::from_str(&json).expect("parse dataset");
    assert_eq!(back.corpus.num_posts(), data.corpus.num_posts());
    assert_eq!(back.graph.num_edges(), data.graph.num_edges());
    assert_eq!(back.cascades.len(), data.cascades.len());
    assert_eq!(back.truth.pi, data.truth.pi);
    // Training on the round-tripped dataset gives the same model.
    let m1 = fit(&data);
    let m2 = fit(&back);
    assert_eq!(m1.user_memberships(0), m2.user_memberships(0));
}

/// The world, configuration and seed that wrote
/// `tests/fixtures/model_parent.cold` through `ColdModel::save`: four
/// users in two planted blocks, C = K = 2, T = 2, V = 4, 12 sweeps with
/// seed 28 (a 328-byte artifact).
fn fixture_fit() -> ColdModel {
    let mut b = CorpusBuilder::new();
    for u in 0..2u32 {
        b.push_text(u, 0, &["goal", "match"]);
        b.push_text(u, 1, &["goal", "goal"]);
    }
    for u in 2..4u32 {
        b.push_text(u, 1, &["film", "actor"]);
        b.push_text(u, 0, &["actor", "film"]);
    }
    let corpus = b.build();
    let graph = CsrGraph::from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (0, 2)]);
    let config = ColdConfig::builder(2, 2)
        .iterations(12)
        .burn_in(6)
        .sample_lag(2)
        .build(&corpus, &graph);
    GibbsSampler::new(&corpus, &graph, config, 28).run()
}

fn model_fixture_path() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/model_parent.cold")
}

/// An artifact written by an earlier build still decodes, re-encodes to
/// the same bytes, and refitting its world gives those bytes again. The
/// fixture file is never regenerated: it pins what `cold-model/v1` files
/// already on disk contain.
#[test]
fn stored_model_artifact_decodes_and_refits_byte_identical() {
    let bytes = std::fs::read(model_fixture_path()).expect("read the stored artifact");
    let stored = ColdModel::from_binary(&bytes).expect("the stored artifact decodes");
    assert_eq!(stored.dims().num_users, 4);
    assert_eq!(stored.to_binary(), bytes, "re-encoding changed the bytes");
    assert_eq!(fixture_fit().to_binary(), bytes, "refit changed the bytes");
}
