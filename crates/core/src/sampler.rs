//! The collapsed Gibbs sampler (paper §4.1, Appendix A).
//!
//! One sweep resamples, in order:
//!
//! 1. for every post `d_ij`: the community `c_ij` (Eq. 1) and then the topic
//!    `z_ij` (Eq. 3), with the post's own contribution excluded from all
//!    counters while sampling;
//! 2. for every positive link `(i, i')`: the endpoint-community pair
//!    `(s_ii', s'_ii')` *jointly* over the `C²` cells (Eq. 2).
//!
//! Each conditional is evaluated from cached counters in O(C), O(K·|d|) and
//! O(C²) respectively, so a sweep is linear in posts + words + positive
//! links — the §4.2 complexity claim, which the scaling bench (Fig. 13a)
//! verifies empirically.

use crate::checkpoint::{
    collects_after_sweep, due_after_sweep, Checkpoint, CheckpointKind, Checkpointer, CkptError,
    ResumePoint,
};
use crate::conditionals::{resample_links, resample_negative_links, resample_posts, Scratch};
use crate::estimates::{ColdModel, EstimateAccumulator};
use crate::params::{ColdConfig, Hyperparams};
use crate::state::{CountState, PostsView};
use cold_graph::CsrGraph;
use cold_math::rng::{seeded_rng, Rng};
use serde::{Deserialize, Serialize};

/// Progress of one training run, for convergence monitoring (§4.3 monitors
/// "the likelihood of training data").
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainTrace {
    /// `(sweep index, complete-data log-likelihood)` checkpoints.
    pub log_likelihood: Vec<(usize, f64)>,
    /// Total posts × sweeps sampled (work metric for the scaling bench).
    pub post_draws: u64,
    /// Total links × sweeps sampled.
    pub link_draws: u64,
}

/// The sequential collapsed Gibbs sampler.
///
/// For the parallel (GraphLab-style) implementation see the `cold-engine`
/// crate, which reuses this crate's [`CountState`] and conditionals; at one
/// shard it runs this sampler's chain through [`sweep_in_place`].
pub struct GibbsSampler {
    config: ColdConfig,
    posts: PostsView,
    state: CountState,
    rng: Rng,
    trace: TrainTrace,
    /// Reusable weight buffers for the conditionals.
    scratch: Scratch,
    /// Completed sweeps, drives the annealing schedule.
    sweeps_done: usize,
    /// Partial posterior averages collected after burn-in. A field (not a
    /// `run`-local) so checkpoints capture it and resume loses no samples.
    acc: EstimateAccumulator,
    /// The base seed, recorded into checkpoints for provenance.
    seed: u64,
}

impl GibbsSampler {
    /// Prepare a sampler with random initial assignments. The graph is only
    /// read during initialization (its positive links are copied into the
    /// count state).
    pub fn new(
        corpus: &cold_text::Corpus,
        graph: &CsrGraph,
        config: ColdConfig,
        seed: u64,
    ) -> Self {
        config.validate().expect("invalid COLD configuration");
        let posts = PostsView::from_corpus(corpus);
        let mut rng = seeded_rng(seed);
        let state = CountState::init_random(&config, &posts, graph, &mut rng);
        Self {
            posts,
            state,
            rng,
            trace: TrainTrace::default(),
            scratch: Scratch::for_config(&config),
            sweeps_done: 0,
            acc: EstimateAccumulator::new(&config),
            seed,
            config,
        }
    }

    /// Rebuild a sampler from a `cold-ckpt/v1` checkpoint, positioned to
    /// continue exactly where the checkpointed run stopped. The resumed
    /// chain is **bit-identical** to the uninterrupted one: assignments,
    /// counters, partial averages, trace and the RNG stream position are
    /// all restored, and the kernel caches are rebuilt deterministically
    /// from the counters at the next sweep.
    ///
    /// `config` must equal the checkpointed configuration (a fresh
    /// [`Metrics`](cold_obs::Metrics) handle may be attached — it is
    /// ignored by config equality); `corpus` must be the training corpus.
    /// Accepts [`CheckpointKind::Sequential`] only; every check is
    /// [`Checkpoint::resume_point`]'s.
    pub fn resume(
        corpus: &cold_text::Corpus,
        config: ColdConfig,
        ckpt: Checkpoint,
    ) -> Result<Self, CkptError> {
        let ResumePoint { ckpt, posts, rng } =
            ckpt.resume_point(corpus, &config, &[CheckpointKind::Sequential])?;
        Ok(Self {
            posts,
            state: ckpt.state,
            rng: rng.expect("a sequential checkpoint has one shard"),
            trace: ckpt.trace,
            scratch: Scratch::for_config(&config),
            sweeps_done: ckpt.sweeps_done,
            acc: ckpt.acc,
            seed: ckpt.seed,
            config,
        })
    }

    /// Snapshot the complete training state at the current sweep boundary.
    /// Never consumes randomness, so checkpointed and plain runs stay
    /// bit-identical.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            kind: CheckpointKind::Sequential,
            seed: self.seed,
            shards: 1,
            sweeps_done: self.sweeps_done,
            rng: self.rng.raw_state().to_vec(),
            config: self.config.clone(),
            state: self.state.clone(),
            trace: self.trace.clone(),
            acc: self.acc.clone(),
        }
    }

    /// Read access to the mutable state (for tests and the engine crate).
    pub fn state(&self) -> &CountState {
        &self.state
    }

    /// The training trace recorded so far.
    pub fn trace(&self) -> &TrainTrace {
        &self.trace
    }

    /// Whether the convergence monitor should run after sweep `sweep`.
    /// `ll_every = Some(n)` evaluates every `n`-th sweep plus the final one;
    /// `None` keeps the historical cadence (`default_every`-th + final).
    fn should_monitor(&self, sweep: usize, default_every: usize) -> bool {
        let every = self.config.ll_every.unwrap_or(default_every);
        sweep.is_multiple_of(every) || sweep + 1 == self.config.iterations
    }

    /// The shared training loop: sweep → monitor → collect → checkpoint,
    /// from the current position up to sweep `upto` (capped at the
    /// configured iteration count). Resume-safe because every cadence is a
    /// pure function of the sweep index.
    fn run_loop(
        &mut self,
        upto: usize,
        default_every: usize,
        ckpt: Option<&Checkpointer>,
    ) -> Result<(), CkptError> {
        let metrics = self.config.metrics.0.clone();
        let upto = upto.min(self.config.iterations);
        while self.sweeps_done < upto {
            let sweep = self.sweeps_done;
            self.sweep();
            if self.should_monitor(sweep, default_every) {
                let _monitor = metrics.span("ll_monitor");
                let ll = self.log_likelihood();
                self.trace.log_likelihood.push((sweep, ll));
            }
            if collects_after_sweep(&self.config, sweep) {
                self.acc.collect(&self.state);
            }
            if let Some(ckptr) = ckpt {
                if due_after_sweep(&self.config, sweep) {
                    ckptr.write(&self.checkpoint())?;
                }
            }
        }
        Ok(())
    }

    /// Run the configured number of sweeps and return the averaged model.
    pub fn run(self) -> ColdModel {
        let (model, _) = self
            .run_to_end(10, None)
            .expect("checkpoint-free run cannot fail");
        model
    }

    /// Run and also return the trace (for convergence tests / benches).
    pub fn run_traced(self) -> (ColdModel, TrainTrace) {
        self.run_to_end(1, None)
            .expect("checkpoint-free run cannot fail")
    }

    /// [`run_traced`](Self::run_traced) with checkpointing.
    pub fn run_traced_checkpointed(
        self,
        ckpt: &Checkpointer,
    ) -> Result<(ColdModel, TrainTrace), CkptError> {
        self.run_to_end(1, Some(ckpt))
    }

    /// [`run_loop`](Self::run_loop) to the last sweep, then the end-of-run
    /// gauges.
    fn run_to_end(
        mut self,
        default_every: usize,
        ckpt: Option<&Checkpointer>,
    ) -> Result<(ColdModel, TrainTrace), CkptError> {
        let metrics = self.config.metrics.0.clone();
        let t0 = metrics.start();
        self.run_loop(self.config.iterations, default_every, ckpt)?;
        if let Some(t0) = t0 {
            metrics.gauge_set("train.wall_seconds", t0.elapsed().as_secs_f64());
        }
        metrics.gauge_set("train.sweeps", self.sweeps_done as f64);
        self.state.publish_storage_gauges(&metrics);
        Ok((self.acc.finalize(), self.trace))
    }

    /// Advance to sweep `upto` (capped at the configured iterations)
    /// without finalizing, optionally checkpointing along the way. Lets
    /// callers interleave training with inspection, and lets tests stop a
    /// run mid-flight exactly where a crash would.
    pub fn run_sweeps(
        &mut self,
        upto: usize,
        ckpt: Option<&Checkpointer>,
    ) -> Result<(), CkptError> {
        self.run_loop(upto, 10, ckpt)
    }

    /// Average the samples collected so far into a model.
    ///
    /// # Panics
    /// Panics if no post-burn-in sample was ever collected.
    pub fn finish(self) -> ColdModel {
        self.acc.finalize()
    }

    /// [`finish`](Self::finish), also returning the training trace.
    pub fn finish_traced(self) -> (ColdModel, TrainTrace) {
        (self.acc.finalize(), self.trace)
    }

    /// One full Gibbs sweep over all posts and links.
    pub fn sweep(&mut self) {
        sweep_in_place(
            &mut self.state,
            &self.posts,
            &self.config,
            self.sweeps_done,
            &mut self.rng,
            &mut self.scratch,
        );
        self.trace.post_draws += self.posts.len() as u64;
        self.trace.link_draws += (self.state.links.len() + self.state.neg_links.len()) as u64;
        self.sweeps_done += 1;
    }

    /// Complete-data log-likelihood of the training data under the current
    /// point estimates — the convergence monitor of §4.3.
    pub fn log_likelihood(&self) -> f64 {
        complete_log_likelihood(&self.state, &self.posts, &self.config.hyper)
    }
}

/// Sweep number `sweep` of the sequential chain, in place: every post,
/// then every link, then every negative pair of `state`, each with the
/// sweep's annealed `ρ`, one RNG stream and one set of kernel caches. Both
/// [`GibbsSampler`] and a one-shard `ParallelGibbs` run their sweeps
/// through here. Records the `sweep` span (with `posts`, `links` and
/// `neg_links` inside it) and flushes the kernel counters once.
pub fn sweep_in_place(
    state: &mut CountState,
    posts: &PostsView,
    config: &ColdConfig,
    sweep: usize,
    rng: &mut Rng,
    scratch: &mut Scratch,
) {
    let metrics = &config.metrics.0;
    let _sweep_span = metrics.span("sweep");
    let (hyper, rho) = (&config.hyper, config.annealed_rho(sweep));
    scratch.begin_sweep(state);
    {
        let _posts_span = metrics.span("posts");
        resample_posts(state, posts, 0..posts.len(), hyper, rho, rng, scratch);
    }
    {
        let _links_span = metrics.span("links");
        let links = 0..state.links.len();
        resample_links(state, links, hyper, rho, rng, scratch);
    }
    {
        let _neg_span = metrics.span("neg_links");
        let neg_links = 0..state.neg_links.len();
        resample_negative_links(state, neg_links, hyper, rho, rng, scratch);
    }
    if metrics.is_enabled() {
        scratch.take_counters().flush_into(metrics, config.kernel);
    }
}

/// Complete-data log-likelihood of the training data under the point
/// estimates implied by `state`'s counters — the convergence monitor of
/// §4.3. A free function so the sequential and parallel engines score
/// against exactly the same definition.
pub fn complete_log_likelihood(state: &CountState, posts: &PostsView, h: &Hyperparams) -> f64 {
    let cdim = state.num_communities;
    let kdim = state.num_topics;
    let tdim = state.num_time_slices as f64;
    let vdim = state.vocab_size as f64;
    let mut ll = 0.0;
    for d in 0..posts.len() {
        let i = posts.authors[d] as usize;
        let t = posts.times[d] as usize;
        let c = state.post_comm[d] as usize;
        let k = state.post_topic[d] as usize;
        // π̂, θ̂, ψ̂ factors for the assigned pair.
        ll += ((state.n_ic[i * cdim + c] as f64 + h.rho)
            / (state.n_i[i] as f64 + cdim as f64 * h.rho))
            .ln();
        ll += ((state.n_ck[c * kdim + k] as f64 + h.alpha)
            / (state.n_c[c] as f64 + kdim as f64 * h.alpha))
            .ln();
        let temporal_denom = if state.time_comm_rows == 1 {
            // Shared-temporal mode: Σ_c n_c^(k) is the maintained
            // posts-per-topic counter — O(1) instead of O(C).
            state.n_post_k[k] as f64
        } else {
            state.n_ck[c * kdim + k] as f64
        };
        ll += ((state.n_ckt[state.ckt_index(c, k, t)] as f64 + h.epsilon)
            / (temporal_denom + tdim * h.epsilon))
            .ln();
        for &(w, cnt) in &posts.multisets[d] {
            ll += cnt as f64
                * ((state.n_kv[k * state.vocab_size + w as usize] as f64 + h.beta)
                    / (state.n_k[k] as f64 + vdim * h.beta))
                    .ln();
        }
    }
    for e in 0..state.links.len() {
        let s = state.link_src_comm[e] as usize;
        let s2 = state.link_dst_comm[e] as usize;
        let n = state.n_cc[s * cdim + s2] as f64;
        ll += ((n + h.lambda1) / (n + h.lambda0 + h.lambda1)).ln();
    }
    ll
}

#[cfg(test)]
mod tests {
    use super::*;
    use cold_text::CorpusBuilder;

    /// Two clear communities: sports users 0–2 link among themselves and use
    /// sports words; movie users 3–5 likewise.
    fn two_block_data() -> (cold_text::Corpus, CsrGraph) {
        let mut b = CorpusBuilder::new();
        let sports = ["football", "goal", "match", "league", "score"];
        let movie = ["film", "oscar", "actor", "scene", "cinema"];
        for u in 0..3u32 {
            for t in 0..4u16 {
                b.push_text(u, t, &sports[..3 + (t as usize % 2)]);
            }
        }
        for u in 3..6u32 {
            for t in 0..4u16 {
                b.push_text(u, t, &movie[..3 + (t as usize % 2)]);
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
            (0, 3), // one weak tie
        ];
        (corpus, CsrGraph::from_edges(6, &edges))
    }

    #[test]
    fn counters_stay_consistent_across_sweeps() {
        let (corpus, graph) = two_block_data();
        let config = ColdConfig::builder(2, 2)
            .iterations(6)
            .build(&corpus, &graph);
        let mut s = GibbsSampler::new(&corpus, &graph, config, 5);
        for _ in 0..3 {
            s.sweep();
            s.state().check_consistency(&s.posts).unwrap();
        }
        assert_eq!(s.trace().post_draws, 3 * 24);
        assert_eq!(s.trace().link_draws, 3 * 13);
    }

    #[test]
    fn likelihood_improves_from_random_start() {
        let (corpus, graph) = two_block_data();
        let config = ColdConfig::builder(2, 2)
            .iterations(40)
            .burn_in(20)
            .build(&corpus, &graph);
        let (_, trace) = GibbsSampler::new(&corpus, &graph, config, 6).run_traced();
        let first = trace.log_likelihood.first().unwrap().1;
        let last = trace.log_likelihood.last().unwrap().1;
        assert!(
            last > first,
            "log-likelihood did not improve: {first} -> {last}"
        );
    }

    #[test]
    fn recovers_planted_topics() {
        let (corpus, graph) = two_block_data();
        let config = ColdConfig::builder(2, 2)
            .iterations(60)
            .burn_in(30)
            .build(&corpus, &graph);
        let model = GibbsSampler::new(&corpus, &graph, config, 7).run();
        // The two topics should separate sports from movie vocabulary:
        // "football" and "film" should not share a dominant topic.
        let fb = corpus.vocab().id_of("football").unwrap() as usize;
        let film = corpus.vocab().id_of("film").unwrap() as usize;
        let top_fb = (0..2).max_by(|&a, &b| {
            model.topic_words(a)[fb]
                .partial_cmp(&model.topic_words(b)[fb])
                .unwrap()
        });
        let top_film = (0..2).max_by(|&a, &b| {
            model.topic_words(a)[film]
                .partial_cmp(&model.topic_words(b)[film])
                .unwrap()
        });
        assert_ne!(top_fb, top_film, "topics failed to separate");
    }

    #[test]
    fn nolink_sampler_runs_without_network() {
        let (corpus, graph) = two_block_data();
        let config = ColdConfig::builder(2, 2)
            .iterations(10)
            .without_links()
            .build(&corpus, &graph);
        let model = GibbsSampler::new(&corpus, &graph, config, 8).run();
        assert_eq!(model.dims().num_topics, 2);
    }

    #[test]
    fn shared_temporal_sampler_runs() {
        let (corpus, graph) = two_block_data();
        let config = ColdConfig::builder(2, 2)
            .iterations(10)
            .shared_temporal()
            .build(&corpus, &graph);
        let model = GibbsSampler::new(&corpus, &graph, config, 9).run();
        // In shared mode the temporal rows coincide across communities.
        for k in 0..2 {
            assert_eq!(model.temporal(k, 0), model.temporal(k, 1));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        use crate::params::SamplerKernel;
        let (corpus, graph) = two_block_data();
        for kernel in [
            SamplerKernel::Exact,
            SamplerKernel::CachedLog,
            SamplerKernel::AliasMh,
        ] {
            let config = ColdConfig::builder(2, 2)
                .iterations(12)
                .kernel(kernel)
                .build(&corpus, &graph);
            let m1 = GibbsSampler::new(&corpus, &graph, config.clone(), 42).run();
            let m2 = GibbsSampler::new(&corpus, &graph, config, 42).run();
            assert_eq!(m1.user_memberships(0), m2.user_memberships(0), "{kernel:?}");
            assert_eq!(m1.topic_words(1), m2.topic_words(1), "{kernel:?}");
        }
    }

    /// The cached-log kernel is a pure memoization: full training runs must
    /// produce bit-identical models to the Exact kernel for the same seed.
    #[test]
    fn cached_log_run_matches_exact_bitwise() {
        use crate::params::SamplerKernel;
        let (corpus, graph) = two_block_data();
        let models: Vec<ColdModel> = [SamplerKernel::Exact, SamplerKernel::CachedLog]
            .into_iter()
            .map(|kernel| {
                let config = ColdConfig::builder(2, 2)
                    .iterations(25)
                    .burn_in(10)
                    .explicit_negatives(1.0)
                    .kernel(kernel)
                    .build(&corpus, &graph);
                GibbsSampler::new(&corpus, &graph, config, 42).run()
            })
            .collect();
        for u in 0..6 {
            assert_eq!(
                models[0].user_memberships(u),
                models[1].user_memberships(u),
                "membership diverged for user {u}"
            );
        }
        for k in 0..2 {
            assert_eq!(models[0].topic_words(k), models[1].topic_words(k));
        }
    }

    /// Planted-structure recovery must hold under every kernel — the alias
    /// chain targets the same stationary distribution even though its
    /// trajectory differs.
    #[test]
    fn all_kernels_recover_planted_topics() {
        use crate::params::SamplerKernel;
        let (corpus, graph) = two_block_data();
        let fb = corpus.vocab().id_of("football").unwrap() as usize;
        let film = corpus.vocab().id_of("film").unwrap() as usize;
        for kernel in [
            SamplerKernel::Exact,
            SamplerKernel::CachedLog,
            SamplerKernel::AliasMh,
        ] {
            let config = ColdConfig::builder(2, 2)
                .iterations(60)
                .burn_in(30)
                .kernel(kernel)
                .build(&corpus, &graph);
            let model = GibbsSampler::new(&corpus, &graph, config, 7).run();
            let top = |w: usize| {
                (0..2).max_by(|&a, &b| {
                    model.topic_words(a)[w]
                        .partial_cmp(&model.topic_words(b)[w])
                        .unwrap()
                })
            };
            assert_ne!(top(fb), top(film), "{kernel:?} failed to separate topics");
        }
    }

    /// `ll_every` controls the convergence-monitor cadence of both `run`
    /// and `run_traced` (the final sweep is always evaluated).
    #[test]
    fn ll_every_sets_monitor_cadence() {
        let (corpus, graph) = two_block_data();
        let config = ColdConfig::builder(2, 2)
            .iterations(12)
            .ll_every(5)
            .build(&corpus, &graph);
        let (_, trace) = GibbsSampler::new(&corpus, &graph, config.clone(), 3).run_traced();
        let sweeps: Vec<usize> = trace.log_likelihood.iter().map(|&(s, _)| s).collect();
        assert_eq!(sweeps, vec![0, 5, 10, 11]);
        // `run` records into its internal trace with the same cadence; a
        // sampler driven manually shows the default cadence is preserved.
        let config_default = ColdConfig::builder(2, 2)
            .iterations(12)
            .build(&corpus, &graph);
        let (_, trace_default) = GibbsSampler::new(&corpus, &graph, config_default, 3).run_traced();
        assert_eq!(
            trace_default.log_likelihood.len(),
            12,
            "None keeps per-sweep tracing"
        );
    }
}
