//! Point estimation of the collapsed distributions (Appendix A) and the
//! fitted-model container.
//!
//! After burn-in the sampler collects one point estimate per `sample_lag`
//! sweeps and averages them — "the final predictive distributions are
//! obtained by integrating across all the samples".

use crate::params::{ColdConfig, Dims};
use crate::state::CountState;
use cold_text::Vocabulary;
use serde::{Deserialize, Serialize};

/// Read-only access to a fitted model's probability tables.
///
/// Two storage strategies implement it: the owned [`ColdModel`] (five
/// `Vec<f64>` tables, the training-side representation) and the zero-copy
/// [`crate::view::ModelView`] (in-place reads over one aligned artifact
/// buffer, the serving-side representation). Prediction code
/// ([`crate::predict`]) is generic over this trait, so the same Eq. 5–7
/// implementation runs against either backing.
///
/// Implementations must uphold the [`ColdModel`] layout contract: `π` is
/// `U×C` row-major, `θ` is `C×K`, `η` is `C×C`, `φ` is `K×V`, `ψ` is
/// `C×K×T`. Accessors may assume in-range indices (callers validate at
/// the API boundary — see [`crate::predict::PredictError`]).
pub trait ModelRead {
    /// Model dimensions.
    fn dims(&self) -> Dims;
    /// Number of averaged Gibbs samples.
    fn num_samples(&self) -> usize;
    /// `π_i` — user `i`'s distribution over communities.
    fn user_memberships(&self, user: u32) -> &[f64];
    /// `θ_c` — community `c`'s interest over topics.
    fn community_topics(&self, community: usize) -> &[f64];
    /// `η_cc'` — general influence strength of community `c` on `c'`.
    fn eta(&self, c: usize, c2: usize) -> f64;
    /// `φ_k` — topic `k`'s distribution over words.
    fn topic_words(&self, topic: usize) -> &[f64];
    /// `ψ_kc` — topic `k`'s temporal distribution within community `c`.
    fn temporal(&self, topic: usize, community: usize) -> &[f64];

    /// `ζ_kcc' = θ_ck · θ_c'k · η_cc'` — Eq. (4), the topic-sensitive
    /// community-level influence strength.
    fn zeta(&self, topic: usize, c: usize, c2: usize) -> f64 {
        self.community_topics(c)[topic] * self.community_topics(c2)[topic] * self.eta(c, c2)
    }

    /// `TopComm(i)` — the user's `n` strongest communities by `π_i`
    /// (paper §5.2 fixes `n = 5`). Total order on the weights, so a
    /// model carrying NaN cells (possible only through a hand-crafted
    /// binary artifact) still ranks deterministically instead of
    /// panicking.
    fn top_communities(&self, user: u32, n: usize) -> Vec<usize> {
        let row = self.user_memberships(user);
        let mut idx: Vec<usize> = (0..row.len()).collect();
        idx.sort_by(|&a, &b| row[b].total_cmp(&row[a]));
        idx.truncate(n);
        idx
    }
}

/// Borrowed and shared handles read straight through, so prediction code
/// can own an `Arc<ModelView>` (a server) or borrow a `&ColdModel` (an
/// experiment) with the same generic bounds.
impl<M: ModelRead + ?Sized> ModelRead for &M {
    fn dims(&self) -> Dims {
        (**self).dims()
    }
    fn num_samples(&self) -> usize {
        (**self).num_samples()
    }
    fn user_memberships(&self, user: u32) -> &[f64] {
        (**self).user_memberships(user)
    }
    fn community_topics(&self, community: usize) -> &[f64] {
        (**self).community_topics(community)
    }
    fn eta(&self, c: usize, c2: usize) -> f64 {
        (**self).eta(c, c2)
    }
    fn topic_words(&self, topic: usize) -> &[f64] {
        (**self).topic_words(topic)
    }
    fn temporal(&self, topic: usize, community: usize) -> &[f64] {
        (**self).temporal(topic, community)
    }
}

impl<M: ModelRead + ?Sized> ModelRead for std::sync::Arc<M> {
    fn dims(&self) -> Dims {
        (**self).dims()
    }
    fn num_samples(&self) -> usize {
        (**self).num_samples()
    }
    fn user_memberships(&self, user: u32) -> &[f64] {
        (**self).user_memberships(user)
    }
    fn community_topics(&self, community: usize) -> &[f64] {
        (**self).community_topics(community)
    }
    fn eta(&self, c: usize, c2: usize) -> f64 {
        (**self).eta(c, c2)
    }
    fn topic_words(&self, topic: usize) -> &[f64] {
        (**self).topic_words(topic)
    }
    fn temporal(&self, topic: usize, community: usize) -> &[f64] {
        (**self).temporal(topic, community)
    }
}

/// A fitted COLD model: averaged posterior point estimates of
/// `π, θ, η, φ, ψ` (Table 1), all row-major flat matrices.
#[derive(Debug, Clone)]
pub struct ColdModel {
    pub(crate) dims: Dims,
    /// `π`, `U×C`.
    pub(crate) pi: Vec<f64>,
    /// `θ`, `C×K`.
    pub(crate) theta: Vec<f64>,
    /// `η`, `C×C`.
    pub(crate) eta: Vec<f64>,
    /// `φ`, `K×V`.
    pub(crate) phi: Vec<f64>,
    /// `ψ`, `C×K×T` (duplicated across communities in shared-temporal mode).
    pub(crate) psi: Vec<f64>,
    /// Number of Gibbs samples averaged into the estimates.
    pub(crate) samples: usize,
}

impl ColdModel {
    /// Model dimensions.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Number of averaged Gibbs samples.
    pub fn num_samples(&self) -> usize {
        self.samples
    }

    /// `π_i` — user `i`'s distribution over communities.
    pub fn user_memberships(&self, user: u32) -> &[f64] {
        let c = self.dims.num_communities;
        &self.pi[user as usize * c..(user as usize + 1) * c]
    }

    /// A copy of this model scaled to `num_users` by cycling the fitted
    /// `π` rows; `θ`, `η`, `φ`, `ψ` carry over unchanged.
    ///
    /// This is a *load-scaling* harness, not training at scale: the
    /// community/topic structure stays exactly what the fit produced,
    /// while the user axis — which is what serving-path memory, `TopComm`
    /// caches and influencer rankings scale with — grows to deployment
    /// size. `bench_serve` uses it to drive a million-user model through
    /// the HTTP API without a million-user Gibbs run.
    ///
    /// # Panics
    /// Panics if the model has no users to tile from.
    pub fn tile_users(&self, num_users: u32) -> ColdModel {
        assert!(self.dims.num_users > 0, "cannot tile an empty model");
        let c = self.dims.num_communities;
        let mut pi = Vec::with_capacity(num_users as usize * c);
        for i in 0..num_users {
            let src = (i % self.dims.num_users) as usize;
            pi.extend_from_slice(&self.pi[src * c..(src + 1) * c]);
        }
        ColdModel {
            dims: Dims {
                num_users,
                ..self.dims
            },
            pi,
            theta: self.theta.clone(),
            eta: self.eta.clone(),
            phi: self.phi.clone(),
            psi: self.psi.clone(),
            samples: self.samples,
        }
    }

    /// `θ_c` — community `c`'s interest over topics.
    pub fn community_topics(&self, community: usize) -> &[f64] {
        let k = self.dims.num_topics;
        &self.theta[community * k..(community + 1) * k]
    }

    /// `η_cc'` — general influence strength of community `c` on `c'`.
    pub fn eta(&self, c: usize, c2: usize) -> f64 {
        self.eta[c * self.dims.num_communities + c2]
    }

    /// `φ_k` — topic `k`'s distribution over words.
    pub fn topic_words(&self, topic: usize) -> &[f64] {
        let v = self.dims.vocab_size;
        &self.phi[topic * v..(topic + 1) * v]
    }

    /// `ψ_kc` — topic `k`'s temporal distribution within community `c`.
    pub fn temporal(&self, topic: usize, community: usize) -> &[f64] {
        let t = self.dims.num_time_slices;
        let k = self.dims.num_topics;
        let base = (community * k + topic) * t;
        &self.psi[base..base + t]
    }

    /// `ζ_kcc' = θ_ck · θ_c'k · η_cc'` — Eq. (4), the topic-sensitive
    /// community-level influence strength.
    pub fn zeta(&self, topic: usize, c: usize, c2: usize) -> f64 {
        self.community_topics(c)[topic] * self.community_topics(c2)[topic] * self.eta(c, c2)
    }

    /// The `n` most probable words of topic `k`, as `(word, probability)`.
    /// This is the data behind the word clouds of Fig. 8.
    pub fn top_words<'v>(
        &self,
        topic: usize,
        n: usize,
        vocab: &'v Vocabulary,
    ) -> Vec<(&'v str, f64)> {
        let row = self.topic_words(topic);
        let mut idx: Vec<usize> = (0..row.len()).collect();
        idx.sort_by(|&a, &b| row[b].total_cmp(&row[a]));
        idx.truncate(n);
        idx.into_iter()
            .map(|v| (vocab.word(v as u32), row[v]))
            .collect()
    }

    /// `TopComm(i)` — the user's `n` strongest communities by `π_i`
    /// (paper §5.2 fixes `n = 5`).
    pub fn top_communities(&self, user: u32, n: usize) -> Vec<usize> {
        ModelRead::top_communities(self, user, n)
    }

    /// Communities ranked by interest in `topic` (for the §5.3 analyses).
    pub fn communities_by_interest(&self, topic: usize) -> Vec<(usize, f64)> {
        let mut out: Vec<(usize, f64)> = (0..self.dims.num_communities)
            .map(|c| (c, self.community_topics(c)[topic]))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// Hardened (arg-max) community per user; used for NMI against planted
    /// ground truth in recovery tests.
    pub fn hard_user_communities(&self) -> Vec<u32> {
        (0..self.dims.num_users)
            .map(|i| {
                let row = self.user_memberships(i);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(c, _)| c as u32)
                    .unwrap_or(0)
            })
            .collect()
    }
}

impl ModelRead for ColdModel {
    fn dims(&self) -> Dims {
        self.dims
    }
    fn num_samples(&self) -> usize {
        self.samples
    }
    fn user_memberships(&self, user: u32) -> &[f64] {
        ColdModel::user_memberships(self, user)
    }
    fn community_topics(&self, community: usize) -> &[f64] {
        ColdModel::community_topics(self, community)
    }
    fn eta(&self, c: usize, c2: usize) -> f64 {
        ColdModel::eta(self, c, c2)
    }
    fn topic_words(&self, topic: usize) -> &[f64] {
        ColdModel::topic_words(self, topic)
    }
    fn temporal(&self, topic: usize, community: usize) -> &[f64] {
        ColdModel::temporal(self, topic, community)
    }
}

/// Accumulates per-sample point estimates; finalized into a [`ColdModel`].
/// Serializable so checkpoints capture the partial averages collected
/// before an interruption (resume must not lose post-burn-in samples).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimateAccumulator {
    dims: Dims,
    hyper_rho: f64,
    hyper_alpha: f64,
    hyper_beta: f64,
    hyper_epsilon: f64,
    lambda0: f64,
    lambda1: f64,
    pi: Vec<f64>,
    theta: Vec<f64>,
    eta: Vec<f64>,
    phi: Vec<f64>,
    psi: Vec<f64>,
    samples: usize,
}

impl EstimateAccumulator {
    /// Fresh accumulator for a configuration.
    pub fn new(config: &ColdConfig) -> Self {
        let d = config.dims;
        let (c, k, t, v, u) = (
            d.num_communities,
            d.num_topics,
            d.num_time_slices,
            d.vocab_size,
            d.num_users as usize,
        );
        Self {
            dims: d,
            hyper_rho: config.hyper.rho,
            hyper_alpha: config.hyper.alpha,
            hyper_beta: config.hyper.beta,
            hyper_epsilon: config.hyper.epsilon,
            lambda0: config.hyper.lambda0,
            lambda1: config.hyper.lambda1,
            pi: vec![0.0; u * c],
            theta: vec![0.0; c * k],
            eta: vec![0.0; c * c],
            phi: vec![0.0; k * v],
            psi: vec![0.0; c * k * t],
            samples: 0,
        }
    }

    /// Check that these partial averages have `config`'s dims and the
    /// table lengths those dims imply. A checkpoint's accumulator comes
    /// from a file, so a product of dims that overflows is an error too.
    pub(crate) fn check_shape(&self, config: &ColdConfig) -> Result<(), String> {
        let d = config.dims;
        if self.dims != d {
            return Err(format!(
                "accumulator dims {:?} do not match the configured {d:?}",
                self.dims
            ));
        }
        let (c, k, t, v, u) = (
            d.num_communities,
            d.num_topics,
            d.num_time_slices,
            d.vocab_size,
            d.num_users as usize,
        );
        for (name, got, factors) in [
            ("pi", self.pi.len(), [u, c, 1]),
            ("theta", self.theta.len(), [c, k, 1]),
            ("eta", self.eta.len(), [c, c, 1]),
            ("phi", self.phi.len(), [k, v, 1]),
            ("psi", self.psi.len(), [c, k, t]),
        ] {
            let want = factors
                .iter()
                .try_fold(1usize, |acc, &f| acc.checked_mul(f));
            if want != Some(got) {
                return Err(format!(
                    "accumulator {name}: length {got} does not match dims {factors:?}"
                ));
            }
        }
        Ok(())
    }

    /// Number of Gibbs samples folded in so far.
    pub fn samples_collected(&self) -> usize {
        self.samples
    }

    /// Fold in the point estimates computed from the current counts
    /// (Appendix A "Distribution Estimation").
    pub fn collect(&mut self, state: &CountState) {
        let (c, k, t, v) = (
            self.dims.num_communities,
            self.dims.num_topics,
            self.dims.num_time_slices,
            self.dims.vocab_size,
        );
        let u = self.dims.num_users as usize;
        for i in 0..u {
            let denom = state.n_i[i] as f64 + c as f64 * self.hyper_rho;
            for cc in 0..c {
                self.pi[i * c + cc] += (state.n_ic[i * c + cc] as f64 + self.hyper_rho) / denom;
            }
        }
        for cc in 0..c {
            let denom = state.n_c[cc] as f64 + k as f64 * self.hyper_alpha;
            for kk in 0..k {
                self.theta[cc * k + kk] +=
                    (state.n_ck[cc * k + kk] as f64 + self.hyper_alpha) / denom;
            }
        }
        // η̂: Definition 2 defines η_cc' as the *rate* of link formation
        // between a user of c and a user of c'. The appendix's point
        // estimate (n_cc' + λ1)/(n_cc' + λ0 + λ1) saturates once counts
        // exceed λ0 and ranks cells by raw counts, which conflates strength
        // with community size; we therefore normalize by the expected
        // number of ordered user pairs in the cell, m_c·m_c' with
        // m_c = Σ_i π̂_ic (the MLE denominator of the Bernoulli rate).
        // This is the one deliberate deviation from Appendix A; see
        // DESIGN.md.
        let mut community_mass = vec![0.0f64; c];
        for i in 0..u {
            let denom = state.n_i[i] as f64 + c as f64 * self.hyper_rho;
            for (cc, mass) in community_mass.iter_mut().enumerate() {
                *mass += (state.n_ic[i * c + cc] as f64 + self.hyper_rho) / denom;
            }
        }
        for cc in 0..c {
            for c2 in 0..c {
                let n = state.n_cc[cc * c + c2] as f64;
                let pairs = community_mass[cc] * community_mass[c2];
                self.eta[cc * c + c2] +=
                    ((n + self.lambda1) / (pairs + self.lambda0 + self.lambda1)).min(1.0);
            }
        }
        for kk in 0..k {
            let denom = state.n_k[kk] as f64 + v as f64 * self.hyper_beta;
            for vv in 0..v {
                self.phi[kk * v + vv] += (state.n_kv[kk * v + vv] as f64 + self.hyper_beta) / denom;
            }
        }
        for cc in 0..c {
            for kk in 0..k {
                let row = state.time_row(cc) * k * t + kk * t;
                let n_ck_time = (0..t).map(|tt| state.n_ckt[row + tt] as f64).sum::<f64>();
                let denom = n_ck_time + t as f64 * self.hyper_epsilon;
                for tt in 0..t {
                    self.psi[(cc * k + kk) * t + tt] +=
                        (state.n_ckt[state.ckt_index(cc, kk, tt)] as f64 + self.hyper_epsilon)
                            / denom;
                }
            }
        }
        self.samples += 1;
    }

    /// Average the collected samples into a model.
    ///
    /// # Panics
    /// Panics if no sample was ever collected.
    pub fn finalize(mut self) -> ColdModel {
        assert!(self.samples > 0, "no Gibbs samples collected");
        let scale = 1.0 / self.samples as f64;
        for buf in [
            &mut self.pi,
            &mut self.theta,
            &mut self.eta,
            &mut self.phi,
            &mut self.psi,
        ] {
            for x in buf.iter_mut() {
                *x *= scale;
            }
        }
        ColdModel {
            dims: self.dims,
            pi: self.pi,
            theta: self.theta,
            eta: self.eta,
            phi: self.phi,
            psi: self.psi,
            samples: self.samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ColdConfig;
    use crate::state::PostsView;
    use cold_graph::CsrGraph;
    use cold_math::rng::seeded_rng;
    use cold_text::CorpusBuilder;

    fn fitted() -> (ColdModel, cold_text::Corpus) {
        let mut b = CorpusBuilder::new();
        b.push_text(0, 0, &["a", "b"]);
        b.push_text(1, 1, &["c"]);
        let corpus = b.build();
        let graph = CsrGraph::from_edges(2, &[(0, 1)]);
        let config = ColdConfig::builder(2, 3)
            .iterations(4)
            .build(&corpus, &graph);
        let posts = PostsView::from_corpus(&corpus);
        let mut rng = seeded_rng(8);
        let state = crate::state::CountState::init_random(&config, &posts, &graph, &mut rng);
        let mut acc = EstimateAccumulator::new(&config);
        acc.collect(&state);
        acc.collect(&state);
        (acc.finalize(), corpus)
    }

    #[test]
    fn estimates_are_normalized() {
        let (m, _) = fitted();
        for i in 0..2 {
            assert!((m.user_memberships(i).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        for c in 0..2 {
            assert!((m.community_topics(c).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        for k in 0..3 {
            assert!((m.topic_words(k).iter().sum::<f64>() - 1.0).abs() < 1e-9);
            for c in 0..2 {
                assert!((m.temporal(k, c).iter().sum::<f64>() - 1.0).abs() < 1e-9);
            }
        }
        assert_eq!(m.num_samples(), 2);
    }

    #[test]
    fn eta_is_a_probability() {
        let (m, _) = fitted();
        for c in 0..2 {
            for c2 in 0..2 {
                let e = m.eta(c, c2);
                assert!((0.0..=1.0).contains(&e), "eta {e}");
            }
        }
    }

    #[test]
    fn zeta_combines_factors() {
        let (m, _) = fitted();
        let z = m.zeta(1, 0, 1);
        let manual = m.community_topics(0)[1] * m.community_topics(1)[1] * m.eta(0, 1);
        assert!((z - manual).abs() < 1e-15);
    }

    #[test]
    fn top_words_are_sorted() {
        let (m, corpus) = fitted();
        let top = m.top_words(0, 3, corpus.vocab());
        assert_eq!(top.len(), 3);
        assert!(top[0].1 >= top[1].1 && top[1].1 >= top[2].1);
    }

    #[test]
    fn top_communities_ranked_by_pi() {
        let (m, _) = fitted();
        let top = m.top_communities(0, 2);
        assert_eq!(top.len(), 2);
        let row = m.user_memberships(0);
        assert!(row[top[0]] >= row[top[1]]);
        // Truncation below C.
        assert_eq!(m.top_communities(0, 1).len(), 1);
    }

    #[test]
    #[should_panic(expected = "no Gibbs samples")]
    fn finalize_without_samples_panics() {
        let mut b = CorpusBuilder::new();
        b.push_text(0, 0, &["a"]);
        let corpus = b.build();
        let graph = CsrGraph::from_edges(2, &[(0, 1)]);
        let config = ColdConfig::builder(2, 2)
            .iterations(4)
            .build(&corpus, &graph);
        let _ = EstimateAccumulator::new(&config).finalize();
    }
}
