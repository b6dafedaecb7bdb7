//! Model dimensions, hyper-parameters and training configuration.
//!
//! Mirrors Table 1 of the paper. Hyper-parameter defaults follow §6.5:
//! `ρ = 50/C`, `α = 50/K`, `β = ε = 0.01`, `λ1 = 0.1`, and
//! `λ0 = κ·ln(n_neg/C²)` with tunable weight `κ` (the implicit treatment of
//! negative links from §3.3).

use crate::storage::CounterStorage;
use cold_graph::CsrGraph;
use cold_obs::Metrics;
use cold_text::Corpus;
use serde::{Deserialize, Serialize};

/// Latent-space and data dimensions (`U, T, C, K, V` of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dims {
    /// Number of users `U`.
    pub num_users: u32,
    /// Number of communities `C`.
    pub num_communities: usize,
    /// Number of topics `K`.
    pub num_topics: usize,
    /// Number of time slices `T`.
    pub num_time_slices: usize,
    /// Vocabulary size `V`.
    pub vocab_size: usize,
}

/// Dirichlet / Beta hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Hyperparams {
    /// Dirichlet prior on community topic interest `θ_c` (paper: `50/K`).
    pub alpha: f64,
    /// Dirichlet prior on topic word distributions `φ_k` (paper: `0.01`).
    pub beta: f64,
    /// Dirichlet prior on temporal distributions `ψ_kc` (paper: `0.01`).
    pub epsilon: f64,
    /// Dirichlet prior on user memberships `π_i` (paper: `50/C`).
    pub rho: f64,
    /// Beta pseudo-count for *absent* links: `λ0 = κ·ln(n_neg/C²)`.
    pub lambda0: f64,
    /// Beta pseudo-count for *present* links (paper: `0.1`).
    pub lambda1: f64,
}

impl Hyperparams {
    /// The paper's default settings for the given latent dimensions.
    ///
    /// `n_neg` is the number of absent ordered pairs (`U(U−1) − |E|`);
    /// `kappa` is the paper's tunable weight on the negative-link prior.
    pub fn paper_defaults(
        num_communities: usize,
        num_topics: usize,
        n_neg: u64,
        kappa: f64,
    ) -> Self {
        let c2 = (num_communities * num_communities) as f64;
        // Guard the log for tiny test graphs where n_neg < C².
        let lambda0 = (kappa * ((n_neg as f64 / c2).max(std::f64::consts::E)).ln()).max(0.1);
        Self {
            alpha: 50.0 / num_topics as f64,
            beta: 0.01,
            epsilon: 0.01,
            rho: 50.0 / num_communities as f64,
            lambda0,
            lambda1: 0.1,
        }
    }

    /// Validate positivity; the collapsed conditionals divide by these.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("alpha", self.alpha),
            ("beta", self.beta),
            ("epsilon", self.epsilon),
            ("rho", self.rho),
            ("lambda0", self.lambda0),
            ("lambda1", self.lambda1),
        ] {
            #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN-aware
            if !(v > 0.0) || !v.is_finite() {
                return Err(format!("hyper-parameter {name} must be positive, got {v}"));
            }
        }
        Ok(())
    }
}

/// Which implementation evaluates the collapsed conditionals in the Gibbs
/// hot path. All kernels target the *same* stationary distribution; they
/// differ only in how the per-draw arithmetic is carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SamplerKernel {
    /// Evaluate every log directly, exactly as written in Eqs. 1–3. The
    /// reference implementation; slowest, kept for differential testing.
    Exact,
    /// Memoize `ln(n + const)` over the integer counters and cache the
    /// Eq. 2 rate matrix, producing draws **bit-identical** to [`Exact`]
    /// (the caches are pure memoization — see `cold_math::logcache`).
    /// The default.
    ///
    /// [`Exact`]: SamplerKernel::Exact
    #[default]
    CachedLog,
    /// Alias-table Metropolis–Hastings topic draws: per-sweep stale alias
    /// tables over the per-word topic predictive propose topics in O(1);
    /// an MH accept step against the exact Eq. 3 conditional keeps the
    /// stationary distribution unchanged. Opt-in; wins at large `K`. The
    /// community (Eq. 1) and link (Eq. 2) draws use the cached-log path.
    AliasMh,
}

impl SamplerKernel {
    /// Stable lower-case identifier, used for metric names
    /// (`kernel.<name>.<counter>`) and benchmark reports.
    pub fn name(self) -> &'static str {
        match self {
            SamplerKernel::Exact => "exact",
            SamplerKernel::CachedLog => "cached_log",
            SamplerKernel::AliasMh => "alias_mh",
        }
    }
}

/// A [`Metrics`] handle embedded in [`ColdConfig`].
///
/// The newtype exists so the config can keep its `PartialEq` /
/// `Serialize` / `Deserialize` derives: two configs compare equal
/// regardless of instrumentation, and the handle (runtime state, not
/// configuration) serializes as `null` and deserializes to disabled.
#[derive(Debug, Clone, Default)]
pub struct MetricsHandle(pub Metrics);

impl std::ops::Deref for MetricsHandle {
    type Target = Metrics;

    fn deref(&self) -> &Metrics {
        &self.0
    }
}

impl PartialEq for MetricsHandle {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Serialize for MetricsHandle {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for MetricsHandle {
    fn from_value(_v: &serde::Value) -> Result<Self, String> {
        Ok(Self::default())
    }
}

/// Full training configuration for the Gibbs sampler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColdConfig {
    /// Data / latent dimensions.
    pub dims: Dims,
    /// Priors.
    pub hyper: Hyperparams,
    /// Total Gibbs sweeps.
    pub iterations: usize,
    /// Sweeps discarded before collecting samples.
    pub burn_in: usize,
    /// Collect an estimate every `sample_lag` sweeps after burn-in.
    pub sample_lag: usize,
    /// Whether to model the network component at all. `false` reproduces
    /// the paper's **COLD-NoLink** ablation (§6.1 method 4).
    pub use_links: bool,
    /// Whether temporal distributions are community-specific (`ψ_kc`, the
    /// paper's model) or shared across communities (`ψ_k`) — an ablation of
    /// Definition 4 discussed in §3.5.
    pub community_specific_time: bool,
    /// Sweeps over which the membership prior `ρ` is annealed from
    /// `anneal_boost·ρ` down to `ρ`. A flattened membership factor early in
    /// the chain lets communities nucleate instead of collapsing into one —
    /// an implementation aid (not in the paper) that matters on small and
    /// mid-sized data; set to 0 to disable.
    pub anneal_sweeps: usize,
    /// Initial multiplier on `ρ` during annealing (default 10).
    pub anneal_boost: f64,
    /// Observed *negative* pairs per positive link (0 disables). The paper
    /// folds all negative links into the Beta prior `λ0` (§3.3); setting a
    /// positive ratio instead subsamples that many absent pairs and models
    /// them explicitly — the exact version of the approximation, at the
    /// cost of proportional extra work per sweep. When enabled, `λ0`
    /// should be a small smoothing constant (the builder handles this for
    /// paper-default hyper-parameters).
    pub negative_link_ratio: f64,
    /// Which conditional-evaluation kernel the samplers use (default:
    /// [`SamplerKernel::CachedLog`]).
    pub kernel: SamplerKernel,
    /// Log-likelihood evaluation cadence: `Some(n)` computes the §4.3
    /// convergence monitor every `n`-th sweep (plus the final sweep) in
    /// both [`run`] and [`run_traced`]. `None` keeps the historical
    /// cadences — every 10th sweep in `run`, every sweep in `run_traced`.
    /// The monitor costs a full O(data) pass, so on large corpora a sparse
    /// cadence meaningfully shortens training.
    ///
    /// [`run`]: crate::sampler::GibbsSampler::run
    /// [`run_traced`]: crate::sampler::GibbsSampler::run_traced
    pub ll_every: Option<usize>,
    /// Checkpoint cadence: `Some(n)` writes a `cold-ckpt/v1` checkpoint
    /// after every `n`-th sweep (plus the final sweep) whenever the run is
    /// driven with a [`Checkpointer`] attached. `None` falls back to the
    /// checkpointing entry points' default cadence (every 10th sweep).
    /// Checkpoint writes never consume sampler randomness, so a
    /// checkpointed run stays bit-identical to an unchecked one.
    ///
    /// [`Checkpointer`]: crate::checkpoint::Checkpointer
    pub checkpoint_every: Option<usize>,
    /// Counter storage backend policy (default [`CounterStorage::Auto`]:
    /// measure occupancy per family and go sparse only where it saves
    /// ≥ 4×). `Dense`/`Sparse` force one backend everywhere — for
    /// benchmarks and equivalence tests. Either way the sampled chain is
    /// bit-identical; only the memory/speed trade moves.
    pub counter_storage: CounterStorage,
    /// Observability handle the samplers report into (disabled by
    /// default; enable via [`ColdConfigBuilder::metrics`]). Ignored by
    /// equality and persistence — see [`MetricsHandle`].
    pub metrics: MetricsHandle,
}

impl ColdConfig {
    /// Start building a configuration with `C` communities and `K` topics;
    /// data dimensions are filled in from the corpus and graph at
    /// [`ColdConfigBuilder::build`].
    pub fn builder(num_communities: usize, num_topics: usize) -> ColdConfigBuilder {
        ColdConfigBuilder::new(num_communities, num_topics)
    }

    /// The membership prior for sweep `sweep`: linearly decays from
    /// `anneal_boost·ρ` to `ρ` over the annealing window.
    pub fn annealed_rho(&self, sweep: usize) -> f64 {
        let rho = self.hyper.rho;
        if sweep >= self.anneal_sweeps || self.anneal_sweeps == 0 {
            return rho;
        }
        let progress = sweep as f64 / self.anneal_sweeps as f64;
        rho * (self.anneal_boost + (1.0 - self.anneal_boost) * progress)
    }

    /// Check internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.dims.num_communities == 0 || self.dims.num_topics == 0 {
            return Err("need at least one community and one topic".into());
        }
        if self.dims.num_time_slices == 0 {
            return Err("need at least one time slice".into());
        }
        if self.dims.vocab_size == 0 {
            return Err("empty vocabulary".into());
        }
        if self.burn_in >= self.iterations {
            return Err(format!(
                "burn_in ({}) must be below iterations ({})",
                self.burn_in, self.iterations
            ));
        }
        if self.sample_lag == 0 {
            return Err("sample_lag must be at least 1".into());
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN-aware
        if !(self.anneal_boost >= 1.0) {
            return Err(format!(
                "anneal_boost must be >= 1, got {}",
                self.anneal_boost
            ));
        }
        if self.negative_link_ratio < 0.0 || !self.negative_link_ratio.is_finite() {
            return Err("negative_link_ratio must be finite and non-negative".into());
        }
        // A zero cadence silently degenerates `should_monitor` (every
        // sweep passes `is_multiple_of(0)` only at sweep 0, so the monitor
        // would fire once and never again); reject it loudly, and apply
        // the same guard to the checkpoint cadence.
        if self.ll_every == Some(0) {
            return Err("ll_every must be at least 1 sweep".into());
        }
        if self.checkpoint_every == Some(0) {
            return Err("checkpoint_every must be at least 1 sweep".into());
        }
        if self.anneal_sweeps > self.burn_in {
            return Err(format!(
                "anneal_sweeps ({}) must not exceed burn_in ({}): annealed sweeps are not posterior samples",
                self.anneal_sweeps, self.burn_in
            ));
        }
        self.hyper.validate()
    }
}

/// Builder for [`ColdConfig`].
#[derive(Debug, Clone)]
pub struct ColdConfigBuilder {
    num_communities: usize,
    num_topics: usize,
    iterations: usize,
    burn_in: Option<usize>,
    sample_lag: usize,
    kappa: f64,
    use_links: bool,
    community_specific_time: bool,
    anneal_sweeps: Option<usize>,
    anneal_boost: f64,
    negative_link_ratio: f64,
    hyper_override: Option<Hyperparams>,
    kernel: SamplerKernel,
    ll_every: Option<usize>,
    checkpoint_every: Option<usize>,
    counter_storage: CounterStorage,
    metrics: Metrics,
}

impl ColdConfigBuilder {
    fn new(num_communities: usize, num_topics: usize) -> Self {
        Self {
            num_communities,
            num_topics,
            iterations: 200,
            burn_in: None,
            sample_lag: 5,
            kappa: 1.0,
            use_links: true,
            community_specific_time: true,
            anneal_sweeps: None,
            anneal_boost: 10.0,
            negative_link_ratio: 0.0,
            hyper_override: None,
            kernel: SamplerKernel::default(),
            ll_every: None,
            checkpoint_every: None,
            counter_storage: CounterStorage::default(),
            metrics: Metrics::default(),
        }
    }

    /// Total Gibbs sweeps (default 200). Burn-in defaults to half of this.
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Explicit burn-in sweep count.
    pub fn burn_in(mut self, burn_in: usize) -> Self {
        self.burn_in = Some(burn_in);
        self
    }

    /// Collect an estimate every `lag` post-burn-in sweeps (default 5).
    pub fn sample_lag(mut self, lag: usize) -> Self {
        self.sample_lag = lag;
        self
    }

    /// Weight `κ` of the negative-link Beta prior (default 1.0).
    pub fn kappa(mut self, kappa: f64) -> Self {
        self.kappa = kappa;
        self
    }

    /// Disable the network component (COLD-NoLink).
    pub fn without_links(mut self) -> Self {
        self.use_links = false;
        self
    }

    /// Share one temporal distribution per topic across communities
    /// (ablation of Definition 4).
    pub fn shared_temporal(mut self) -> Self {
        self.community_specific_time = false;
        self
    }

    /// Anneal the membership prior over the first `sweeps` sweeps starting
    /// from `boost·ρ` (default: disabled). Helpful on very small corpora
    /// where the membership rich-get-richer effect traps the chain in the
    /// all-one-community mode; neutral-to-harmful at realistic scale.
    pub fn annealing(mut self, sweeps: usize, boost: f64) -> Self {
        self.anneal_sweeps = Some(sweeps);
        self.anneal_boost = boost;
        self
    }

    /// Recommended settings for small and mid-sized corpora (up to a few
    /// hundred thousand posts): O(1) Dirichlet priors instead of the
    /// paper's `50/C`, `50/K` (which assume `C = K = 100`), and explicit
    /// modeling of 3 subsampled negative pairs per positive link instead
    /// of the prior-only treatment (see `explicit_negatives`).
    pub fn small_data_defaults(mut self) -> Self {
        self.hyper_override = Some(Hyperparams {
            alpha: 1.0,
            beta: 0.01,
            epsilon: 0.01,
            rho: 1.0,
            lambda0: 0.1,
            lambda1: 0.1,
        });
        self.negative_link_ratio = 3.0;
        self
    }

    /// Model `ratio` explicitly-observed negative pairs per positive link
    /// instead of folding all negatives into the Beta prior — the exact
    /// version of the paper's §3.3 approximation.
    pub fn explicit_negatives(mut self, ratio: f64) -> Self {
        assert!(ratio >= 0.0);
        self.negative_link_ratio = ratio;
        self
    }

    /// Override all hyper-parameters (instead of the paper defaults).
    pub fn hyperparams(mut self, hyper: Hyperparams) -> Self {
        self.hyper_override = Some(hyper);
        self
    }

    /// Select the conditional-evaluation kernel (default:
    /// [`SamplerKernel::CachedLog`]). All kernels sample from the same
    /// stationary distribution; see the enum docs for the trade-offs.
    pub fn kernel(mut self, kernel: SamplerKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Compute the training log-likelihood every `n`-th sweep (plus the
    /// final sweep) in both `run` and `run_traced`. Without this call the
    /// historical cadences apply: every 10th sweep in `run`, every sweep
    /// in `run_traced`.
    pub fn ll_every(mut self, n: usize) -> Self {
        self.ll_every = Some(n);
        self
    }

    /// Write a checkpoint after every `n`-th sweep (plus the final sweep)
    /// when training runs with a [`Checkpointer`] attached. Without this
    /// call the checkpointing entry points default to every 10th sweep.
    ///
    /// [`Checkpointer`]: crate::checkpoint::Checkpointer
    pub fn checkpoint_every(mut self, n: usize) -> Self {
        self.checkpoint_every = Some(n);
        self
    }

    /// Select the counter storage backend policy (default
    /// [`CounterStorage::Auto`]). See [`crate::storage`] for the
    /// occupancy heuristic and the memory/speed trade-offs.
    pub fn counter_storage(mut self, storage: CounterStorage) -> Self {
        self.counter_storage = storage;
        self
    }

    /// Attach an observability handle; the samplers, kernels and parallel
    /// engine record counters, timing histograms and spans into it during
    /// training. Pass [`Metrics::enabled`] (keeping a clone to snapshot
    /// afterwards); the default is a disabled handle with no overhead.
    pub fn metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Finalize against a concrete corpus and graph.
    ///
    /// # Panics
    /// Panics if the assembled configuration fails validation; training with
    /// an invalid configuration is a programming error.
    pub fn build(self, corpus: &Corpus, graph: &CsrGraph) -> ColdConfig {
        let dims = Dims {
            num_users: corpus.num_users().max(graph.num_nodes()),
            num_communities: self.num_communities,
            num_topics: self.num_topics,
            num_time_slices: corpus.num_time_slices() as usize,
            vocab_size: corpus.vocab_size(),
        };
        let hyper = self.hyper_override.unwrap_or_else(|| {
            let mut h = Hyperparams::paper_defaults(
                self.num_communities,
                self.num_topics,
                graph.num_negative_links(),
                self.kappa,
            );
            if self.negative_link_ratio > 0.0 {
                // Explicit negatives carry the repulsion; λ0 reverts to a
                // small smoothing constant.
                h.lambda0 = 0.1;
            }
            h
        });
        let iterations = self.iterations;
        let config = ColdConfig {
            dims,
            hyper,
            iterations,
            burn_in: self.burn_in.unwrap_or(iterations / 2),
            sample_lag: self.sample_lag,
            use_links: self.use_links,
            community_specific_time: self.community_specific_time,
            anneal_sweeps: self.anneal_sweeps.unwrap_or(0),
            anneal_boost: self.anneal_boost,
            negative_link_ratio: self.negative_link_ratio,
            kernel: self.kernel,
            ll_every: self.ll_every,
            checkpoint_every: self.checkpoint_every,
            counter_storage: self.counter_storage,
            metrics: MetricsHandle(self.metrics),
        };
        config.validate().expect("invalid COLD configuration");
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cold_text::CorpusBuilder;

    fn tiny() -> (Corpus, CsrGraph) {
        let mut b = CorpusBuilder::new();
        b.push_text(0, 0, &["alpha", "beta"]);
        b.push_text(1, 1, &["gamma"]);
        (b.build(), CsrGraph::from_edges(2, &[(0, 1)]))
    }

    #[test]
    fn paper_defaults_match_formulas() {
        let h = Hyperparams::paper_defaults(100, 50, 1_000_000, 1.0);
        assert!((h.rho - 0.5).abs() < 1e-12);
        assert!((h.alpha - 1.0).abs() < 1e-12);
        assert_eq!(h.beta, 0.01);
        assert_eq!(h.epsilon, 0.01);
        assert_eq!(h.lambda1, 0.1);
        // λ0 = ln(1e6 / 1e4) = ln(100)
        assert!((h.lambda0 - 100.0f64.ln()).abs() < 1e-9);
        h.validate().unwrap();
    }

    #[test]
    fn lambda0_guard_for_tiny_graphs() {
        // n_neg smaller than C² would make ln negative; the guard keeps λ0 > 0.
        let h = Hyperparams::paper_defaults(100, 10, 5, 1.0);
        assert!(h.lambda0 > 0.0);
        h.validate().unwrap();
    }

    #[test]
    fn builder_sets_kernel_and_ll_every() {
        let (corpus, graph) = tiny();
        let cfg = ColdConfig::builder(2, 2)
            .iterations(4)
            .build(&corpus, &graph);
        assert_eq!(
            cfg.kernel,
            SamplerKernel::CachedLog,
            "cached-log is the default"
        );
        assert_eq!(cfg.ll_every, None);
        let cfg = ColdConfig::builder(2, 2)
            .iterations(4)
            .kernel(SamplerKernel::AliasMh)
            .ll_every(7)
            .build(&corpus, &graph);
        assert_eq!(cfg.kernel, SamplerKernel::AliasMh);
        assert_eq!(cfg.ll_every, Some(7));
        cfg.validate().unwrap();
        // A zero cadence is meaningless and rejected — for the likelihood
        // monitor and the checkpoint writer alike.
        let mut bad = cfg.clone();
        bad.ll_every = Some(0);
        assert!(bad.validate().is_err());
        let mut bad = cfg;
        bad.checkpoint_every = Some(0);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn builder_sets_checkpoint_every() {
        let (corpus, graph) = tiny();
        let cfg = ColdConfig::builder(2, 2)
            .iterations(4)
            .build(&corpus, &graph);
        assert_eq!(cfg.checkpoint_every, None);
        let cfg = ColdConfig::builder(2, 2)
            .iterations(4)
            .checkpoint_every(3)
            .build(&corpus, &graph);
        assert_eq!(cfg.checkpoint_every, Some(3));
    }

    #[test]
    fn builder_fills_dims_from_data() {
        let (corpus, graph) = tiny();
        let cfg = ColdConfig::builder(3, 4)
            .iterations(10)
            .build(&corpus, &graph);
        assert_eq!(cfg.dims.num_users, 2);
        assert_eq!(cfg.dims.num_communities, 3);
        assert_eq!(cfg.dims.num_topics, 4);
        assert_eq!(cfg.dims.num_time_slices, 2);
        assert_eq!(cfg.dims.vocab_size, 3);
        assert_eq!(cfg.burn_in, 5);
        assert!(cfg.use_links);
        cfg.validate().unwrap();
    }

    #[test]
    fn builder_variants() {
        let (corpus, graph) = tiny();
        let cfg = ColdConfig::builder(2, 2)
            .iterations(8)
            .burn_in(2)
            .sample_lag(3)
            .without_links()
            .shared_temporal()
            .build(&corpus, &graph);
        assert!(!cfg.use_links);
        assert!(!cfg.community_specific_time);
        assert_eq!(cfg.burn_in, 2);
        assert_eq!(cfg.sample_lag, 3);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let (corpus, graph) = tiny();
        let mut cfg = ColdConfig::builder(2, 2)
            .iterations(10)
            .build(&corpus, &graph);
        cfg.burn_in = 10;
        assert!(cfg.validate().is_err());
        cfg.burn_in = 2;
        cfg.hyper.alpha = 0.0;
        assert!(cfg.validate().is_err());
    }
}
