//! Prediction with a fitted COLD model (paper §5.2, §6.2–6.3).
//!
//! * [`DiffusionPredictor`] — the two-step diffusion prediction of Eqs. 5–7:
//!   community-level strengths `ζ` combined with `TopComm`-truncated user
//!   memberships. Per-user topical profiles **and** the full
//!   `ζ_kcc' = θ_ck·θ_c'k·η_cc'` tensor are precomputed offline exactly as
//!   §5.2 prescribes, making the online score `O(K·|w_d|)` with no
//!   per-query multiplies through `θ`/`η`.
//! * [`link_probability`] — `P_{i→i'} = Σ_{s,s'} π_is π_i's' η_ss'`, the
//!   link-prediction score of §6.2.
//! * [`post_log_likelihood`] — `p(w_d)` for held-out perplexity (§6.2).
//! * [`predict_time_slice`] — the arg-max time-stamp prediction of §6.3.
//!
//! The predictor is generic over [`ModelRead`], so it runs identically over
//! an owned [`ColdModel`](crate::estimates::ColdModel), a borrowed one, or
//! an `Arc`-shared one inside a server. Every id that reaches a query method is validated and rejected
//! with a [`PredictError`] — nothing on this path panics on untrusted
//! input, which is what lets `cold-serve` map failures to HTTP 400 instead
//! of dying.

use crate::estimates::ModelRead;
use cold_math::stats::log_sum_exp;
use cold_obs::Metrics;
use cold_text::WordId;

/// The paper fixes `|TopComm| = 5` (§5.2).
pub const DEFAULT_TOP_COMM: usize = 5;

/// A query (or predictor construction) referenced something the model
/// does not contain. These are *caller* errors — the model itself is
/// fine — so servers map them to 4xx, not 5xx.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictError {
    /// `TopComm` truncation must keep at least one community.
    TopCommZero,
    /// User id at or beyond `num_users`.
    UnknownUser {
        /// The offending id.
        user: u32,
        /// Exclusive bound: valid ids are `0..num_users`.
        num_users: u32,
    },
    /// Word id at or beyond the vocabulary.
    UnknownWord {
        /// The offending word id.
        word: WordId,
        /// Exclusive bound: valid ids are `0..vocab_size`.
        vocab_size: usize,
    },
    /// Topic index at or beyond `num_topics`.
    UnknownTopic {
        /// The offending topic index.
        topic: usize,
        /// Exclusive bound: valid indices are `0..num_topics`.
        num_topics: usize,
    },
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::TopCommZero => {
                write!(f, "TopComm must keep at least one community")
            }
            PredictError::UnknownUser { user, num_users } => {
                write!(f, "unknown user id {user} (model has users 0..{num_users})")
            }
            PredictError::UnknownWord { word, vocab_size } => {
                write!(f, "unknown word id {word} (vocabulary has 0..{vocab_size})")
            }
            PredictError::UnknownTopic { topic, num_topics } => {
                write!(
                    f,
                    "unknown topic {topic} (model has topics 0..{num_topics})"
                )
            }
        }
    }
}

impl std::error::Error for PredictError {}

/// Precomputed, `TopComm`-truncated diffusion predictor.
#[derive(Debug)]
pub struct DiffusionPredictor<M: ModelRead> {
    model: M,
    /// Effective truncation: `min(requested, C)`, at least 1.
    top_comm: usize,
    /// Per-user top communities (offline step of §5.2), flattened
    /// row-major `U × top_comm`.
    top: Vec<u32>,
    /// Per-user prior topic preference `P(k|i) = Σ_{c∈Top(i)} π_ic θ_ck`,
    /// row-major `U×K`.
    user_topics: Vec<f64>,
    /// `ζ_kcc'` (Eq. 4), row-major `K×C×C` at `(k·C + c)·C + c'`.
    zeta: Vec<f64>,
    /// Per-query latency histograms (`predict.*_seconds`); disabled by
    /// default.
    metrics: Metrics,
}

impl<M: ModelRead> DiffusionPredictor<M> {
    /// Run the offline precomputation for all users.
    ///
    /// `top_comm` larger than the model's community count is clamped to
    /// `C` (the truncation can't keep more communities than exist);
    /// `top_comm == 0` is rejected with [`PredictError::TopCommZero`].
    pub fn new(model: M, top_comm: usize) -> Result<Self, PredictError> {
        Self::with_metrics(model, top_comm, Metrics::default())
    }

    /// Like [`DiffusionPredictor::new`], additionally recording per-query
    /// latency into `metrics` (`predict.post_topics_seconds` and
    /// `predict.diffusion_score_seconds` — the histogram count doubles as
    /// the query count).
    pub fn with_metrics(model: M, top_comm: usize, metrics: Metrics) -> Result<Self, PredictError> {
        if top_comm == 0 {
            return Err(PredictError::TopCommZero);
        }
        let dims = model.dims();
        let u = dims.num_users as usize;
        let c = dims.num_communities;
        let k = dims.num_topics;
        let top_comm = top_comm.min(c);
        let mut top = Vec::with_capacity(u * top_comm);
        let mut user_topics = vec![0.0f64; u * k];
        for i in 0..u {
            let strongest = model.top_communities(i as u32, top_comm);
            let pi = model.user_memberships(i as u32);
            for &cc in &strongest {
                let theta = model.community_topics(cc);
                for kk in 0..k {
                    user_topics[i * k + kk] += pi[cc] * theta[kk];
                }
                top.push(cc as u32);
            }
        }
        // Materialize ζ once: K·C·C cells, so every pairwise influence is
        // pure table lookups.
        let mut zeta = vec![0.0f64; k * c * c];
        for ci in 0..c {
            let theta_i = model.community_topics(ci);
            for cj in 0..c {
                let theta_j = model.community_topics(cj);
                let e = model.eta(ci, cj);
                for kk in 0..k {
                    zeta[(kk * c + ci) * c + cj] = theta_i[kk] * theta_j[kk] * e;
                }
            }
        }
        Ok(Self {
            model,
            top_comm,
            top,
            user_topics,
            zeta,
            metrics,
        })
    }

    /// The truncation size in effect (after clamping to `C`).
    pub fn top_comm(&self) -> usize {
        self.top_comm
    }

    /// The model this predictor reads from.
    pub fn model(&self) -> &M {
        &self.model
    }

    fn check_user(&self, user: u32) -> Result<(), PredictError> {
        let num_users = self.model.dims().num_users;
        if user < num_users {
            Ok(())
        } else {
            Err(PredictError::UnknownUser { user, num_users })
        }
    }

    fn check_words(&self, words: &[WordId]) -> Result<(), PredictError> {
        let vocab_size = self.model.dims().vocab_size;
        for &w in words {
            if w as usize >= vocab_size {
                return Err(PredictError::UnknownWord {
                    word: w,
                    vocab_size,
                });
            }
        }
        Ok(())
    }

    fn check_topic(&self, topic: usize) -> Result<(), PredictError> {
        let num_topics = self.model.dims().num_topics;
        if topic < num_topics {
            Ok(())
        } else {
            Err(PredictError::UnknownTopic { topic, num_topics })
        }
    }

    /// `TopComm(i)` as computed offline, for callers that want to show it.
    ///
    /// # Errors
    /// [`PredictError::UnknownUser`] for an out-of-range id.
    pub fn top_communities(&self, user: u32) -> Result<&[u32], PredictError> {
        self.check_user(user)?;
        let i = user as usize;
        Ok(&self.top[i * self.top_comm..(i + 1) * self.top_comm])
    }

    /// Posterior topic distribution of a post: Eq. (5),
    /// `P(k|d,i) ∝ Π_l φ_k,w_l · Σ_{c∈TopComm(i)} π_ic θ_ck`.
    ///
    /// An empty word list is well-defined: the likelihood term vanishes
    /// and the posterior falls back to the user's prior topic profile.
    ///
    /// # Errors
    /// [`PredictError::UnknownUser`] / [`PredictError::UnknownWord`] for
    /// ids the model doesn't contain.
    pub fn post_topics(&self, publisher: u32, words: &[WordId]) -> Result<Vec<f64>, PredictError> {
        self.check_user(publisher)?;
        self.check_words(words)?;
        Ok(self.post_topics_unchecked(publisher, words))
    }

    /// [`post_topics`](Self::post_topics) after validation.
    fn post_topics_unchecked(&self, publisher: u32, words: &[WordId]) -> Vec<f64> {
        let t0 = self.metrics.start();
        let k = self.model.dims().num_topics;
        let mut logw = vec![0.0f64; k];
        for (kk, lw) in logw.iter_mut().enumerate() {
            let phi = self.model.topic_words(kk);
            let mut acc = 0.0;
            for &w in words {
                acc += phi[w as usize].max(f64::MIN_POSITIVE).ln();
            }
            let prior = self.user_topics[publisher as usize * k + kk];
            *lw = acc + prior.max(f64::MIN_POSITIVE).ln();
        }
        // Normalize in log space.
        let lse = log_sum_exp(&logw);
        let out = logw.iter().map(|&lw| (lw - lse).exp()).collect();
        self.metrics
            .observe_since("predict.post_topics_seconds", t0);
        out
    }

    /// Topic-conditional influence of `i` on `i'`: Eq. (6),
    /// `P(i,i'|k) = Σ_{c∈Top(i), c'∈Top(i')} π_ic π_i'c' ζ_kcc'`.
    ///
    /// `i == i'` is allowed (self-influence is a defined quantity).
    ///
    /// # Errors
    /// [`PredictError::UnknownTopic`] / [`PredictError::UnknownUser`] for
    /// indices the model doesn't contain.
    pub fn pairwise_influence(&self, topic: usize, i: u32, i2: u32) -> Result<f64, PredictError> {
        self.check_topic(topic)?;
        self.check_user(i)?;
        self.check_user(i2)?;
        Ok(self.pairwise_influence_unchecked(topic, i, i2))
    }

    /// [`pairwise_influence`](Self::pairwise_influence) after validation.
    fn pairwise_influence_unchecked(&self, topic: usize, i: u32, i2: u32) -> f64 {
        let c = self.model.dims().num_communities;
        let pi_i = self.model.user_memberships(i);
        let pi_j = self.model.user_memberships(i2);
        let zk = &self.zeta[topic * c * c..(topic + 1) * c * c];
        let ti = &self.top[i as usize * self.top_comm..(i as usize + 1) * self.top_comm];
        let tj = &self.top[i2 as usize * self.top_comm..(i2 as usize + 1) * self.top_comm];
        let mut acc = 0.0;
        for &ci in ti {
            let row = &zk[ci as usize * c..(ci as usize + 1) * c];
            for &cj in tj {
                acc += pi_i[ci as usize] * pi_j[cj as usize] * row[cj as usize];
            }
        }
        acc
    }

    /// Full diffusion score: Eq. (7),
    /// `P(i,i',d) = Σ_k P(k|d,i) · P(i,i'|k)`.
    ///
    /// # Errors
    /// [`PredictError::UnknownUser`] / [`PredictError::UnknownWord`] for
    /// ids the model doesn't contain.
    pub fn diffusion_score(
        &self,
        publisher: u32,
        consumer: u32,
        words: &[WordId],
    ) -> Result<f64, PredictError> {
        self.check_user(publisher)?;
        self.check_user(consumer)?;
        self.check_words(words)?;
        let t0 = self.metrics.start();
        let topics = self.post_topics_unchecked(publisher, words);
        let score = topics
            .iter()
            .enumerate()
            .map(|(k, &pk)| pk * self.pairwise_influence_unchecked(k, publisher, consumer))
            .sum();
        self.metrics
            .observe_since("predict.diffusion_score_seconds", t0);
        Ok(score)
    }
}

/// Link-prediction score `P_{i→i'} = Σ_s Σ_s' π_is π_i's' η_ss'` (§6.2).
///
/// Offline evaluation helper: ids are trusted (panics on out-of-range,
/// like any slice index). Request paths go through [`DiffusionPredictor`].
pub fn link_probability<M: ModelRead + ?Sized>(model: &M, i: u32, i2: u32) -> f64 {
    let c = model.dims().num_communities;
    let pi_i = model.user_memberships(i);
    let pi_j = model.user_memberships(i2);
    let mut acc = 0.0;
    for s in 0..c {
        if pi_i[s] == 0.0 {
            continue;
        }
        for s2 in 0..c {
            acc += pi_i[s] * pi_j[s2] * model.eta(s, s2);
        }
    }
    acc
}

/// Held-out post likelihood `p(w_d) = Σ_c π_ic Σ_k θ_ck Π_l φ_k,w_l`
/// (§6.2's perplexity integrand), computed stably in log space.
///
/// Offline evaluation helper: ids are trusted (panics on out-of-range).
pub fn post_log_likelihood<M: ModelRead + ?Sized>(model: &M, author: u32, words: &[WordId]) -> f64 {
    let cdim = model.dims().num_communities;
    let kdim = model.dims().num_topics;
    let pi = model.user_memberships(author);
    // Word log-likelihood per topic is shared across communities.
    let mut word_ll = vec![0.0f64; kdim];
    for (k, wll) in word_ll.iter_mut().enumerate() {
        let phi = model.topic_words(k);
        for &w in words {
            *wll += phi[w as usize].max(f64::MIN_POSITIVE).ln();
        }
    }
    let mut terms = Vec::with_capacity(cdim * kdim);
    for c in 0..cdim {
        let theta = model.community_topics(c);
        let lpi = pi[c].max(f64::MIN_POSITIVE).ln();
        for k in 0..kdim {
            terms.push(lpi + theta[k].max(f64::MIN_POSITIVE).ln() + word_ll[k]);
        }
    }
    log_sum_exp(&terms)
}

/// Time-stamp prediction (§6.3):
/// `t̂ = argmax_t Σ_c π_ic Σ_k θ_ck ψ_kct Π_l φ_k,w_l`.
///
/// The per-topic word likelihood is exponentiated after a shared shift so
/// the mixture weights stay in a safe dynamic range.
///
/// Offline evaluation helper: ids are trusted (panics on out-of-range).
pub fn predict_time_slice<M: ModelRead + ?Sized>(model: &M, author: u32, words: &[WordId]) -> u16 {
    let cdim = model.dims().num_communities;
    let kdim = model.dims().num_topics;
    let tdim = model.dims().num_time_slices;
    let pi = model.user_memberships(author);
    let mut word_ll = vec![0.0f64; kdim];
    for (k, wll) in word_ll.iter_mut().enumerate() {
        let phi = model.topic_words(k);
        for &w in words {
            *wll += phi[w as usize].max(f64::MIN_POSITIVE).ln();
        }
    }
    let shift = word_ll.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let word_lik: Vec<f64> = word_ll.iter().map(|&l| (l - shift).exp()).collect();
    let mut scores = vec![0.0f64; tdim];
    for c in 0..cdim {
        let theta = model.community_topics(c);
        for k in 0..kdim {
            let weight = pi[c] * theta[k] * word_lik[k];
            if weight == 0.0 {
                continue;
            }
            let psi = model.temporal(k, c);
            for (t, score) in scores.iter_mut().enumerate() {
                *score += weight * psi[t];
            }
        }
    }
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(t, _)| t as u16)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimates::ColdModel;
    use crate::params::ColdConfig;
    use crate::sampler::GibbsSampler;
    use cold_graph::CsrGraph;
    use cold_text::CorpusBuilder;

    /// Sports block (0–2) and movie block (3–5) with bursty times: sports
    /// posts early (t 0–1), movie posts late (t 2–3).
    fn fitted() -> (ColdModel, cold_text::Corpus) {
        let mut b = CorpusBuilder::new();
        let sports = ["football", "goal", "match"];
        let movie = ["film", "oscar", "actor"];
        for u in 0..3u32 {
            for rep in 0..6u16 {
                b.push_text(u, rep % 2, &sports);
            }
        }
        for u in 3..6u32 {
            for rep in 0..6u16 {
                b.push_text(u, 2 + rep % 2, &movie);
            }
        }
        let corpus = b.build();
        let edges = [
            (0, 1),
            (1, 0),
            (1, 2),
            (2, 1),
            (0, 2),
            (2, 0),
            (3, 4),
            (4, 3),
            (4, 5),
            (5, 4),
            (3, 5),
            (5, 3),
        ];
        let graph = CsrGraph::from_edges(6, &edges);
        // The paper's ρ = 50/C prior is calibrated for C ≈ 100; on this
        // six-user fixture it would swamp the data, so use sharp priors.
        // Single-sample estimate: on data this tiny the chain hops between
        // the two label-permuted modes, and averaging across a hop washes
        // out the block structure.
        let config = ColdConfig::builder(2, 2)
            .iterations(150)
            .burn_in(149)
            .hyperparams(crate::params::Hyperparams {
                alpha: 0.1,
                beta: 0.01,
                epsilon: 0.05,
                rho: 1.0,
                lambda0: 5.0,
                lambda1: 0.1,
            })
            .build(&corpus, &graph);
        (GibbsSampler::new(&corpus, &graph, config, 11).run(), corpus)
    }

    #[test]
    fn post_topics_normalize_and_discriminate() {
        let (model, corpus) = fitted();
        let pred = DiffusionPredictor::new(&model, 2).unwrap();
        let fb = corpus.vocab().id_of("football").unwrap();
        let goal = corpus.vocab().id_of("goal").unwrap();
        let topics = pred.post_topics(0, &[fb, goal]).unwrap();
        assert!((topics.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // A sports message from a sports user should be confidently topical.
        assert!(topics.iter().cloned().fold(0.0, f64::max) > 0.8);
    }

    #[test]
    fn diffusion_score_prefers_same_community_pairs() {
        let (model, corpus) = fitted();
        let pred = DiffusionPredictor::new(&model, 2).unwrap();
        let fb = corpus.vocab().id_of("football").unwrap();
        let words = [fb];
        let within = pred.diffusion_score(0, 1, &words).unwrap();
        let across = pred.diffusion_score(0, 4, &words).unwrap();
        assert!(
            within > across,
            "sports post should spread within sports block: {within} vs {across}"
        );
    }

    #[test]
    fn link_probability_separates_blocks() {
        let (model, _) = fitted();
        let within = link_probability(&model, 0, 2);
        let across = link_probability(&model, 0, 5);
        assert!(within > across, "{within} vs {across}");
        assert!((0.0..=1.0 + 1e-9).contains(&within));
    }

    #[test]
    fn held_out_likelihood_prefers_topical_text() {
        let (model, corpus) = fitted();
        let fb = corpus.vocab().id_of("football").unwrap();
        let film = corpus.vocab().id_of("film").unwrap();
        // User 0 (sports) explains a sports post better than a movie post.
        let ll_sports = post_log_likelihood(&model, 0, &[fb, fb]);
        let ll_movie = post_log_likelihood(&model, 0, &[film, film]);
        assert!(ll_sports > ll_movie);
    }

    #[test]
    fn time_prediction_matches_planted_burst() {
        let (model, corpus) = fitted();
        let fb = corpus.vocab().id_of("football").unwrap();
        let film = corpus.vocab().id_of("film").unwrap();
        let t_sports = predict_time_slice(&model, 0, &[fb, fb, fb]);
        let t_movie = predict_time_slice(&model, 3, &[film, film, film]);
        assert!(t_sports <= 1, "sports burst is early, predicted {t_sports}");
        assert!(t_movie >= 2, "movie burst is late, predicted {t_movie}");
    }

    #[test]
    fn empty_word_list_is_handled() {
        let (model, _) = fitted();
        let pred = DiffusionPredictor::new(&model, 2).unwrap();
        let topics = pred.post_topics(0, &[]).unwrap();
        assert!((topics.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let score = pred.diffusion_score(0, 1, &[]).unwrap();
        assert!(score.is_finite() && score >= 0.0);
    }

    #[test]
    fn top_comm_one_and_overlarge_are_usable() {
        let (model, corpus) = fitted();
        let fb = corpus.vocab().id_of("football").unwrap();
        // top_comm = 1: the tightest legal truncation still scores.
        let tight = DiffusionPredictor::new(&model, 1).unwrap();
        assert_eq!(tight.top_comm(), 1);
        assert!(tight.diffusion_score(0, 1, &[fb]).unwrap().is_finite());
        // top_comm > C clamps to C rather than walking off the π row.
        let wide = DiffusionPredictor::new(&model, 99).unwrap();
        assert_eq!(wide.top_comm(), model.dims().num_communities);
        assert!(wide.diffusion_score(0, 1, &[fb]).unwrap() >= 0.0);
    }

    #[test]
    fn top_comm_zero_is_rejected() {
        let (model, _) = fitted();
        let err = DiffusionPredictor::new(&model, 0).unwrap_err();
        assert_eq!(err, PredictError::TopCommZero);
    }

    #[test]
    fn self_influence_is_defined() {
        let (model, _) = fitted();
        let pred = DiffusionPredictor::new(&model, 2).unwrap();
        let own = pred.pairwise_influence(0, 1, 1).unwrap();
        assert!(own.is_finite() && own >= 0.0);
    }

    #[test]
    fn unknown_ids_are_errors_not_panics() {
        let (model, _) = fitted();
        let pred = DiffusionPredictor::new(&model, 2).unwrap();
        let v = model.dims().vocab_size;
        assert!(matches!(
            pred.post_topics(999, &[]),
            Err(PredictError::UnknownUser { user: 999, .. })
        ));
        assert!(matches!(
            pred.diffusion_score(0, 999, &[]),
            Err(PredictError::UnknownUser { user: 999, .. })
        ));
        assert!(matches!(
            pred.post_topics(0, &[v as u32]),
            Err(PredictError::UnknownWord { .. })
        ));
        assert!(matches!(
            pred.pairwise_influence(42, 0, 1),
            Err(PredictError::UnknownTopic { topic: 42, .. })
        ));
        assert!(matches!(
            pred.top_communities(6),
            Err(PredictError::UnknownUser { user: 6, .. })
        ));
        // Error text is actionable.
        let msg = pred.post_topics(999, &[]).unwrap_err().to_string();
        assert!(msg.contains("999") && msg.contains("0..6"), "{msg}");
    }

    #[test]
    fn predictor_matches_across_model_handles() {
        use std::sync::Arc;
        let (model, corpus) = fitted();
        let fb = corpus.vocab().id_of("football").unwrap();
        let by_ref = DiffusionPredictor::new(&model, 2).unwrap();
        let shared = DiffusionPredictor::new(Arc::new(model.clone()), 2).unwrap();
        assert_eq!(
            by_ref.diffusion_score(0, 1, &[fb]).unwrap(),
            shared.diffusion_score(0, 1, &[fb]).unwrap()
        );
    }
}
