//! Full persistence pipeline: generate → train → save → load → predict,
//! with the loaded model behaving identically to the in-memory one.

use cold::core::predict::{link_probability, post_log_likelihood, predict_time_slice};
use cold::core::{ColdConfig, ColdModel, DiffusionPredictor, GibbsSampler};
use cold::data::{generate, WorldConfig};

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
    let loaded = ColdModel::load(&path).expect("load");
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
