//! # COLD — COmmunity Level Diffusion
//!
//! A from-scratch Rust implementation of the model of *"Community Level
//! Diffusion Extraction"* (Hu, Yao, Cui, Xing — SIGMOD 2015): a generative
//! latent-variable model jointly over **text, time and network** that
//! uncovers overlapping communities, topics, community-specific topic
//! dynamics, and inter-community influence.
//!
//! ## Model recap (paper §3, Table 1)
//!
//! * each user `i` has a community-membership multinomial `π_i`;
//! * each community `c` has a topic-interest multinomial `θ_c` and a row of
//!   Bernoulli link strengths `η_c·`;
//! * each topic `k` has a word multinomial `φ_k` and, per community, a
//!   temporal multinomial `ψ_kc` over `T` discrete time slices;
//! * a post `d_ij` draws a community `c_ij ~ π_i`, a topic `z_ij ~ θ_{c_ij}`,
//!   words `w ~ φ_{z_ij}` and a time stamp `t ~ ψ_{z_ij c_ij}`;
//! * a positive link `(i, i')` draws endpoint communities `s ~ π_i`,
//!   `s' ~ π_{i'}` and materializes with probability `η_{s s'}`.
//!
//! Inference is the collapsed Gibbs sampler of the paper's Appendix A
//! ([`sampler::GibbsSampler`]); absent links enter only through the
//! calibrated Beta prior `η_cc' ~ Beta(λ0, λ1)` with
//! `λ0 = κ·ln(n_neg / C²)`, keeping the sweep linear in positive links.
//!
//! ## What you can do with a fitted [`ColdModel`]
//!
//! * derive the topic-sensitive community influence `ζ_kcc' = θ_ck θ_c'k η_cc'`
//!   (Eq. 4) and the community-level diffusion graph of Fig. 5
//!   ([`diffusion`]);
//! * predict message diffusion `P(i → i', d)` via Eqs. 5–7
//!   ([`predict::DiffusionPredictor`]);
//! * predict held-out links and time stamps, and score held-out text
//!   ([`predict`]);
//! * run the §5.3 diffusion-pattern analyses — interest-vs-fluctuation and
//!   peak time lag ([`patterns`]).
//!
//! ## Quick example
//!
//! ```
//! use cold_core::{ColdConfig, GibbsSampler};
//! use cold_graph::CsrGraph;
//! use cold_text::CorpusBuilder;
//!
//! // Three users, two of them talking football, linked together.
//! let mut b = CorpusBuilder::new();
//! b.push_text(0, 0, &["football", "goal"]);
//! b.push_text(1, 0, &["football", "match"]);
//! b.push_text(2, 1, &["movie", "oscar"]);
//! let corpus = b.build();
//! let graph = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (0, 2)]);
//!
//! let config = ColdConfig::builder(2, 2)
//!     .iterations(20)
//!     .build(&corpus, &graph);
//! let model = GibbsSampler::new(&corpus, &graph, config, 7).run();
//! assert_eq!(model.dims().num_communities, 2);
//! let pi0 = model.user_memberships(0);
//! assert!((pi0.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! ```

// Latent-variable code indexes parallel flat arrays by semantically
// meaningful ids (community c, topic k, user i); iterator rewrites of
// those loops obscure the math they mirror.
#![allow(clippy::needless_range_loop)]

pub mod checkpoint;
pub mod conditionals;
pub mod diagnostics;
pub mod diffusion;
pub mod estimates;
pub mod params;
pub mod patterns;
pub mod persist;
pub mod predict;
pub mod sampler;
pub mod state;
pub mod storage;

pub use checkpoint::{Checkpoint, CheckpointKind, Checkpointer, CkptError, CKPT_FORMAT};
pub use cold_obs::Metrics;
pub use conditionals::KernelCounters;
pub use diffusion::{CommunityDiffusionGraph, DiffusionEdge};
pub use estimates::{ColdModel, ModelRead};
pub use params::{ColdConfig, ColdConfigBuilder, Dims, Hyperparams, MetricsHandle, SamplerKernel};
pub use persist::{ModelFormat, PersistError};
pub use predict::{DiffusionPredictor, PredictError};
pub use sampler::GibbsSampler;
pub use storage::{CounterStorage, CounterStore};

/// [`ColdModel`] under the name the repository benchmark still opens
/// artifacts through (`ModelView::open` is [`ColdModel::open`]); it
/// exists only for the benchmark.
pub type ModelView = ColdModel;
