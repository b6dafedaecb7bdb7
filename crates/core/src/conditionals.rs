//! The collapsed conditionals (Eqs. 1–3) as free functions over
//! [`CountState`], shared by the sequential sampler and the parallel
//! engine (`cold-engine`), so both implementations sample from *exactly*
//! the same distributions.
//!
//! ## Sampler kernels
//!
//! Three interchangeable kernels evaluate the conditionals
//! ([`SamplerKernel`], selected via `ColdConfigBuilder::kernel`); all
//! target the same stationary distribution:
//!
//! * **Exact** — every log evaluated directly, in the canonical
//!   integer-plus-constant form. The reference implementation.
//! * **CachedLog** (default) — the same arithmetic with `ln(n + const)`
//!   memoized per hyper-parameter constant (`cold_math::logcache`) and the
//!   Eq. 2 rate matrix cached in [`Scratch`] with single-cell patching.
//!   Draws are **bit-identical** to Exact: the caches memoize the exact
//!   expressions, and patched rate cells are recomputed from the live
//!   counters rather than adjusted incrementally.
//! * **AliasMh** — topic draws by Metropolis–Hastings against per-sweep
//!   stale alias tables over the per-word topic predictive
//!   `(n_v^(k) + β)/(n^(k) + Vβ)`: amortized O(1) proposals instead of the
//!   O(K·|d|) exact scan, with the accept step evaluating the exact Eq. 3
//!   conditional at just the two candidate topics (O(|d|)). Staleness only
//!   affects proposal *efficiency*, never correctness — the accept ratio
//!   uses the same stale proposal density that generated the draw, so each
//!   step is a valid MH kernel for the exact conditional
//!   (Metropolis-within-Gibbs). Communities (Eq. 1) and links (Eq. 2) use
//!   the cached-log path.
//!
//! Every topic-weight evaluation walks the word-major counter `n_vk`
//! (maintained by [`CountState`] as a transpose of `n_kv`) so the
//! word-outer / topic-inner loop reads each word's topic column
//! contiguously.

use crate::params::{ColdConfig, Hyperparams, SamplerKernel};
use crate::state::{CountState, DeltaAcc, PostsView};
use cold_math::categorical::{sample_categorical, sample_log_categorical, AliasTable};
use cold_math::logcache::{lgamma_shifted, ln_shifted, ShiftedLogTable};
use cold_math::rng::Rng;
use cold_obs::Metrics;
use rand::Rng as _;

/// Metropolis–Hastings proposal steps per topic draw in the
/// [`SamplerKernel::AliasMh`] kernel. Each step costs O(|d|); a handful of
/// steps mixes the whole-post topic well because the proposals are drawn
/// from (stale) word evidence.
pub const MH_STEPS_PER_DRAW: usize = 4;

/// Evaluation strategy for the Eq. 3 log terms. Implemented directly
/// (Exact kernel) and via memo tables (CachedLog / AliasMh); monomorphized
/// into both loops so the cached path pays no dispatch.
trait LogEval {
    /// `ln(n + α)` — the topic-interest numerator.
    fn ln_alpha(&mut self, n: u32) -> f64;
    /// `ln(n + ε)` — the temporal numerator.
    fn ln_eps(&mut self, n: u32) -> f64;
    /// `ln(n + T·ε)` — the temporal denominator.
    fn ln_teps(&mut self, n: u32) -> f64;
    /// Log ascending factorial over `n + β` — the per-word evidence.
    fn laf_beta(&mut self, n: u32, cnt: u32) -> f64;
    /// Log ascending factorial over `n + V·β` — the post-length term.
    fn laf_vbeta(&mut self, n: u32, cnt: u32) -> f64;
}

/// Direct evaluation (the Exact kernel).
struct DirectEval {
    alpha: f64,
    epsilon: f64,
    teps: f64,
    beta: f64,
    vbeta: f64,
}

impl DirectEval {
    fn new(hyper: &Hyperparams, num_time_slices: usize, vocab_size: usize) -> Self {
        Self {
            alpha: hyper.alpha,
            epsilon: hyper.epsilon,
            teps: num_time_slices as f64 * hyper.epsilon,
            beta: hyper.beta,
            vbeta: vocab_size as f64 * hyper.beta,
        }
    }
}

/// Direct log ascending factorial in the canonical integer-plus-shift
/// order — must stay the exact uncached mirror of
/// [`ShiftedLogTable::log_ascending_factorial`].
#[inline]
fn laf_direct(n: u32, cnt: u32, shift: f64) -> f64 {
    if cnt == 0 {
        return 0.0;
    }
    if cnt <= 8 {
        let mut acc = 0.0;
        for q in 0..cnt {
            acc += ln_shifted(n + q, shift);
        }
        acc
    } else {
        lgamma_shifted(n + cnt, shift) - lgamma_shifted(n, shift)
    }
}

impl LogEval for DirectEval {
    #[inline]
    fn ln_alpha(&mut self, n: u32) -> f64 {
        ln_shifted(n, self.alpha)
    }
    #[inline]
    fn ln_eps(&mut self, n: u32) -> f64 {
        ln_shifted(n, self.epsilon)
    }
    #[inline]
    fn ln_teps(&mut self, n: u32) -> f64 {
        ln_shifted(n, self.teps)
    }
    #[inline]
    fn laf_beta(&mut self, n: u32, cnt: u32) -> f64 {
        laf_direct(n, cnt, self.beta)
    }
    #[inline]
    fn laf_vbeta(&mut self, n: u32, cnt: u32) -> f64 {
        laf_direct(n, cnt, self.vbeta)
    }
}

impl LogEval for KernelCaches {
    #[inline]
    fn ln_alpha(&mut self, n: u32) -> f64 {
        self.t_alpha.ln(n)
    }
    #[inline]
    fn ln_eps(&mut self, n: u32) -> f64 {
        self.t_eps.ln(n)
    }
    #[inline]
    fn ln_teps(&mut self, n: u32) -> f64 {
        self.t_teps.ln(n)
    }
    #[inline]
    fn laf_beta(&mut self, n: u32, cnt: u32) -> f64 {
        self.t_beta.log_ascending_factorial(n, cnt)
    }
    #[inline]
    fn laf_vbeta(&mut self, n: u32, cnt: u32) -> f64 {
        self.t_vbeta.log_ascending_factorial(n, cnt)
    }
}

/// Per-sweep stale alias proposals for the AliasMh kernel.
struct AliasState {
    /// One alias table per word over the K topics.
    tables: Vec<AliasTable>,
    /// Log proposal probabilities, row-major `V×K` (matching the stale
    /// snapshot the tables were built from).
    qlog: Vec<f64>,
    /// Built at least once (by [`Scratch::begin_sweep`]).
    ready: bool,
}

/// Memo tables and cached matrices backing the CachedLog / AliasMh kernels.
struct KernelCaches {
    hyper: Hyperparams,
    t_alpha: ShiftedLogTable,
    t_eps: ShiftedLogTable,
    t_teps: ShiftedLogTable,
    t_beta: ShiftedLogTable,
    t_vbeta: ShiftedLogTable,
    /// Eq. 2 link predictive `(n1+λ1)/(n1+n0+λ0+λ1)` per `(c,c')` cell.
    rate_pos: Vec<f64>,
    /// Eq. 2 failure predictive `(n0+λ0)/(n1+n0+λ0+λ1)` per cell.
    rate_neg: Vec<f64>,
    rates_ready: bool,
    /// Present only for the AliasMh kernel.
    alias: Option<AliasState>,
}

impl KernelCaches {
    fn new(config: &ColdConfig) -> Self {
        let h = config.hyper;
        let c = config.dims.num_communities;
        let tdim = config.dims.num_time_slices as f64;
        let vdim = config.dims.vocab_size as f64;
        Self {
            hyper: h,
            t_alpha: ShiftedLogTable::new(h.alpha),
            t_eps: ShiftedLogTable::new(h.epsilon),
            t_teps: ShiftedLogTable::new(tdim * h.epsilon),
            t_beta: ShiftedLogTable::new(h.beta),
            t_vbeta: ShiftedLogTable::new(vdim * h.beta),
            rate_pos: vec![0.0; c * c],
            rate_neg: vec![0.0; c * c],
            rates_ready: false,
            alias: (config.kernel == SamplerKernel::AliasMh).then_some(AliasState {
                tables: Vec::new(),
                qlog: Vec::new(),
                ready: false,
            }),
        }
    }

    /// Recompute one rate cell from the live counters. Recomputing (rather
    /// than adjusting) keeps the cached values bit-identical to the Exact
    /// kernel's inline evaluation.
    #[inline]
    fn patch_rate(&mut self, state: &CountState, cell: usize) {
        let n1 = state.n_cc[cell] as f64;
        let n0 = state.n0_cc[cell] as f64;
        let denom = n1 + n0 + self.hyper.lambda0 + self.hyper.lambda1;
        self.rate_pos[cell] = (n1 + self.hyper.lambda1) / denom;
        self.rate_neg[cell] = (n0 + self.hyper.lambda0) / denom;
    }

    fn refresh_rates(&mut self, state: &CountState) {
        for cell in 0..state.num_communities * state.num_communities {
            self.patch_rate(state, cell);
        }
        self.rates_ready = true;
    }

    /// Total log-table cache misses across the five memo tables.
    fn logcache_misses(&self) -> u64 {
        self.t_alpha.misses()
            + self.t_eps.misses()
            + self.t_teps.misses()
            + self.t_beta.misses()
            + self.t_vbeta.misses()
    }

    /// Rebuild the per-word alias tables from the current (about to become
    /// stale) topic-word counters. Returns whether a rebuild happened
    /// (false for kernels without alias state).
    fn refresh_alias(&mut self, state: &CountState) -> bool {
        let Some(alias) = &mut self.alias else {
            return false;
        };
        let kdim = state.num_topics;
        let vdim = state.vocab_size;
        let beta = self.hyper.beta;
        let vbeta = vdim as f64 * beta;
        alias.qlog.resize(vdim * kdim, 0.0);
        alias.tables.clear();
        alias.tables.reserve(vdim);
        let mut weights = vec![0.0f64; kdim];
        let mut vk_row = vec![0u32; kdim];
        // Denominators are shared across words; hoist them.
        let denoms: Vec<f64> = state.n_k.iter().map(|n| n as f64 + vbeta).collect();
        for w in 0..vdim {
            let row = w * kdim;
            // Bulk-read the row: same values as per-cell indexing, without
            // a per-topic hash probe when `n_vk` is sparse.
            state.n_vk.gather_row(row, &mut vk_row);
            let mut total = 0.0;
            for k in 0..kdim {
                let q = (vk_row[k] as f64 + beta) / denoms[k];
                weights[k] = q;
                total += q;
            }
            let log_total = total.ln();
            for k in 0..kdim {
                alias.qlog[row + k] = weights[k].ln() - log_total;
            }
            alias.tables.push(AliasTable::new(&weights));
        }
        alias.ready = true;
        true
    }
}

/// Per-kernel work counters, accumulated as plain integers in [`Scratch`]
/// (no atomics, no locks in the draw loop) and flushed to a
/// [`Metrics`] registry once per sweep via
/// [`KernelCounters::flush_into`]. All counts are exact except
/// `logcache_lookups`, which tallies the *evaluations requested* of the
/// memo tables (each Eq. 3 topic evaluation requests `4 + distinct_words`
/// of them) rather than instrumenting the nanosecond-scale lookup itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Eq. 1 community draws.
    pub comm_draws: u64,
    /// Eq. 3 topic draws (one per post resample, whatever the kernel).
    pub topic_draws: u64,
    /// MH proposal steps taken (AliasMh only).
    pub mh_proposals: u64,
    /// MH proposals accepted — self-proposals (`k_new == k_cur`) count as
    /// accepted, so `mh_accepted + mh_rejected == mh_proposals`.
    pub mh_accepted: u64,
    /// MH proposals rejected.
    pub mh_rejected: u64,
    /// Per-sweep stale alias-table rebuilds (AliasMh only).
    pub alias_rebuilds: u64,
    /// Memoized-log evaluations requested (CachedLog / AliasMh).
    pub logcache_lookups: u64,
    /// Memoized-log cache misses (table-growth events).
    pub logcache_misses: u64,
    /// Eq. 2 positive-link pair draws.
    pub link_draws: u64,
    /// Eq. 2 explicit-negative pair draws.
    pub neg_link_draws: u64,
}

impl KernelCounters {
    /// Accumulate another batch of counts (used by the parallel engine to
    /// combine per-shard tallies).
    pub fn merge(&mut self, other: &KernelCounters) {
        self.comm_draws += other.comm_draws;
        self.topic_draws += other.topic_draws;
        self.mh_proposals += other.mh_proposals;
        self.mh_accepted += other.mh_accepted;
        self.mh_rejected += other.mh_rejected;
        self.alias_rebuilds += other.alias_rebuilds;
        self.logcache_lookups += other.logcache_lookups;
        self.logcache_misses += other.logcache_misses;
        self.link_draws += other.link_draws;
        self.neg_link_draws += other.neg_link_draws;
    }

    /// Publish the non-zero counts as `kernel.<kernel>.<field>` counters.
    /// No-op when `metrics` is disabled or nothing was counted.
    pub fn flush_into(&self, metrics: &Metrics, kernel: SamplerKernel) {
        if !metrics.is_enabled() || *self == KernelCounters::default() {
            return;
        }
        let prefix = kernel.name();
        for (field, value) in [
            ("comm_draws", self.comm_draws),
            ("topic_draws", self.topic_draws),
            ("mh_proposals", self.mh_proposals),
            ("mh_accepted", self.mh_accepted),
            ("mh_rejected", self.mh_rejected),
            ("alias_rebuilds", self.alias_rebuilds),
            ("logcache_lookups", self.logcache_lookups),
            ("logcache_misses", self.logcache_misses),
            ("link_draws", self.link_draws),
            ("neg_link_draws", self.neg_link_draws),
        ] {
            if value > 0 {
                metrics.counter_add(&format!("kernel.{prefix}.{field}"), value);
            }
        }
    }
}

/// Reusable weight buffers plus kernel state for the conditionals (avoids
/// per-draw allocs; carries the memo tables of the cached kernels).
pub struct Scratch {
    /// Per-community weights (Eq. 1).
    pub comm_weights: Vec<f64>,
    /// Per-topic log-weights (Eq. 3).
    pub topic_logw: Vec<f64>,
    /// One gathered `n_vk` row (Eq. 3's word loop bulk-reads sparse rows
    /// through this instead of probing per topic).
    pub vk_row: Vec<u32>,
    /// Gathered `n_ic` membership rows for the two endpoints of a draw
    /// (Eqs. 1–2 bulk-read sparse rows instead of probing per community —
    /// the Eq. 2 pair loop would otherwise probe `C×C` times per link).
    pub ic_row_i: Vec<u32>,
    pub ic_row_j: Vec<u32>,
    /// Per-(c,c') weights (Eq. 2).
    pub pair_weights: Vec<f64>,
    kernel: SamplerKernel,
    /// `None` for the Exact kernel.
    caches: Option<KernelCaches>,
    /// Work counters accumulated since the last [`Scratch::take_counters`].
    counters: KernelCounters,
    /// Log-table miss total already reported by earlier `take_counters`
    /// calls (the tables count cumulatively).
    logcache_miss_base: u64,
    /// When attached (the parallel engine's delta-sync mode), every
    /// counter mutation the conditionals perform is mirrored into this
    /// accumulator so the barrier can ship a sparse [`CountDelta`] instead
    /// of diffing full states. `None` (zero cost) everywhere else.
    ///
    /// [`CountDelta`]: crate::state::CountDelta
    delta: Option<Box<DeltaAcc>>,
}

impl Scratch {
    /// Buffers sized for `C` communities and `K` topics, using the
    /// [`SamplerKernel::Exact`] kernel (no caches). Kept for differential
    /// tests and callers that predate the kernel layer; samplers should
    /// use [`Scratch::for_config`].
    pub fn new(num_communities: usize, num_topics: usize) -> Self {
        Self {
            comm_weights: vec![0.0; num_communities],
            topic_logw: vec![0.0; num_topics],
            vk_row: vec![0; num_topics],
            ic_row_i: vec![0; num_communities],
            ic_row_j: vec![0; num_communities],
            pair_weights: vec![0.0; num_communities * num_communities],
            kernel: SamplerKernel::Exact,
            caches: None,
            counters: KernelCounters::default(),
            logcache_miss_base: 0,
            delta: None,
        }
    }

    /// Buffers and kernel caches for a concrete training configuration.
    /// The caches bake in the hyper-parameter constants of `config`, so a
    /// `Scratch` must not be reused across configs with different
    /// hyper-parameters (a fresh sampler builds a fresh `Scratch`).
    pub fn for_config(config: &ColdConfig) -> Self {
        let c = config.dims.num_communities;
        let k = config.dims.num_topics;
        Self {
            comm_weights: vec![0.0; c],
            topic_logw: vec![0.0; k],
            vk_row: vec![0; k],
            ic_row_i: vec![0; c],
            ic_row_j: vec![0; c],
            pair_weights: vec![0.0; c * c],
            kernel: config.kernel,
            caches: (config.kernel != SamplerKernel::Exact).then(|| KernelCaches::new(config)),
            counters: KernelCounters::default(),
            logcache_miss_base: 0,
            delta: None,
        }
    }

    /// The kernel this scratch drives.
    pub fn kernel(&self) -> SamplerKernel {
        self.kernel
    }

    /// Attach a delta accumulator: until [`Scratch::detach_delta`], every
    /// `resample_*` call records its counter updates and assignment flips
    /// into it. Recording never changes what is sampled — draws stay
    /// bit-identical with or without an attached accumulator.
    pub fn attach_delta(&mut self, acc: Box<DeltaAcc>) {
        debug_assert!(self.delta.is_none(), "delta accumulator already attached");
        self.delta = Some(acc);
    }

    /// Detach the delta accumulator (if one is attached), returning it to
    /// the caller for draining.
    pub fn detach_delta(&mut self) -> Option<Box<DeltaAcc>> {
        self.delta.take()
    }

    /// Per-sweep cache maintenance: builds the Eq. 2 rate matrices on
    /// first use and (for AliasMh) re-snapshots the per-word alias
    /// proposals. Samplers call this at the start of every sweep; for the
    /// Exact kernel it is a no-op.
    pub fn begin_sweep(&mut self, state: &CountState) {
        if let Some(caches) = &mut self.caches {
            if !caches.rates_ready {
                caches.refresh_rates(state);
            }
            if caches.refresh_alias(state) {
                self.counters.alias_rebuilds += 1;
            }
        }
    }

    /// Drain the kernel work counters accumulated since the last call
    /// (including the log-table miss delta). Samplers call this once per
    /// sweep and [`KernelCounters::flush_into`] the result, keeping the
    /// draw loop free of any metrics plumbing.
    pub fn take_counters(&mut self) -> KernelCounters {
        let mut out = self.counters;
        if let Some(caches) = &self.caches {
            let total = caches.logcache_misses();
            out.logcache_misses = total - self.logcache_miss_base;
            self.logcache_miss_base = total;
        }
        self.counters = KernelCounters::default();
        out
    }

    /// Verify the cached Eq. 2 rate matrices against a from-scratch
    /// recomputation (tests' counterpart to `CountState::check_consistency`
    /// for the kernel caches). `Ok` for kernels without caches.
    pub fn check_rate_consistency(&self, state: &CountState) -> Result<(), String> {
        let Some(caches) = &self.caches else {
            return Ok(());
        };
        if !caches.rates_ready {
            return Ok(());
        }
        let h = &caches.hyper;
        for cell in 0..state.num_communities * state.num_communities {
            let n1 = state.n_cc[cell] as f64;
            let n0 = state.n0_cc[cell] as f64;
            let denom = n1 + n0 + h.lambda0 + h.lambda1;
            let pos = (n1 + h.lambda1) / denom;
            let neg = (n0 + h.lambda0) / denom;
            if caches.rate_pos[cell].to_bits() != pos.to_bits() {
                return Err(format!("cached positive rate drifted at cell {cell}"));
            }
            if caches.rate_neg[cell].to_bits() != neg.to_bits() {
                return Err(format!("cached negative rate drifted at cell {cell}"));
            }
        }
        Ok(())
    }
}

/// Eq. 3 log-weights for all topics, with the word-outer / topic-inner
/// loop over the word-major counter `n_vk`. The per-topic accumulation
/// order (base terms, then words in multiset order, then the length term)
/// is fixed so every kernel produces bit-identical sums.
#[allow(clippy::too_many_arguments)]
fn topic_logweights<E: LogEval>(
    eval: &mut E,
    state: &CountState,
    posts: &PostsView,
    d: usize,
    c: usize,
    t: usize,
    logw: &mut [f64],
    vk_row: &mut [u32],
) {
    let kdim = state.num_topics;
    let shared = state.time_comm_rows == 1;
    let words = &posts.multisets[d];
    // Hide the first row's random access behind the base-term loop.
    if let Some(&(w0, _)) = words.first() {
        state.n_vk.prefetch_row(w0 as usize * kdim, kdim);
    }
    for (k, lw) in logw.iter_mut().enumerate() {
        let n_ck = state.n_ck[c * kdim + k];
        let denom = if shared { state.n_post_k[k] } else { n_ck };
        *lw = eval.ln_alpha(n_ck) + eval.ln_eps(state.n_ckt[state.ckt_index(c, k, t)])
            - eval.ln_teps(denom);
    }
    for (j, &(w, cnt)) in words.iter().enumerate() {
        // Hide the next row's random access behind this word's topic
        // loop (a hint only — values and order are unchanged).
        if let Some(&(w_next, _)) = words.get(j + 1) {
            state.n_vk.prefetch_row(w_next as usize * kdim, kdim);
        }
        let row = w as usize * kdim;
        // Same values either way; the sparse arm bulk-gathers the row so
        // the inner loop never pays a per-topic hash probe.
        match state.n_vk.as_dense_slice() {
            Some(vk) => {
                for (k, lw) in logw.iter_mut().enumerate() {
                    *lw += eval.laf_beta(vk[row + k], cnt);
                }
            }
            None => {
                state.n_vk.gather_row(row, vk_row);
                for (k, lw) in logw.iter_mut().enumerate() {
                    *lw += eval.laf_beta(vk_row[k], cnt);
                }
            }
        }
    }
    let len = posts.lens[d];
    for (k, lw) in logw.iter_mut().enumerate() {
        *lw -= eval.laf_vbeta(state.n_k[k], len);
    }
}

/// Eq. 3 log-weight of a single topic (the MH accept step's target
/// evaluation), in the same term order as [`topic_logweights`].
fn topic_logweight_one<E: LogEval>(
    eval: &mut E,
    state: &CountState,
    posts: &PostsView,
    d: usize,
    c: usize,
    t: usize,
    k: usize,
) -> f64 {
    let kdim = state.num_topics;
    let n_ck = state.n_ck[c * kdim + k];
    let denom = if state.time_comm_rows == 1 {
        state.n_post_k[k]
    } else {
        n_ck
    };
    let mut lw = eval.ln_alpha(n_ck) + eval.ln_eps(state.n_ckt[state.ckt_index(c, k, t)])
        - eval.ln_teps(denom);
    for &(w, cnt) in &posts.multisets[d] {
        lw += eval.laf_beta(state.n_vk[w as usize * kdim + k], cnt);
    }
    lw - eval.laf_vbeta(state.n_k[k], posts.lens[d])
}

/// Alias/MH topic draw: cycle word-evidence proposals (stale alias tables)
/// with uniform-topic proposals, accepting each against the exact
/// conditional. Returns the new topic.
///
/// Each word proposal is a state-independent MH kernel in detailed balance
/// with the exact Eq. 3 conditional; the interleaved uniform proposals
/// bound the worst-case mixing when the stale word evidence disagrees with
/// the community/temporal prior (the cycle-proposal construction of
/// alias-based LDA samplers).
#[allow(clippy::too_many_arguments)]
fn mh_topic_draw(
    caches: &mut KernelCaches,
    counters: &mut KernelCounters,
    state: &CountState,
    posts: &PostsView,
    d: usize,
    c: usize,
    t: usize,
    rng: &mut Rng,
) -> usize {
    let kdim = state.num_topics;
    let len = posts.lens[d];
    // Memo-table evaluations per single-topic Eq. 3 evaluation: three `ln`
    // terms, the length term, and one per distinct word.
    let eval_cost = 4 + posts.multisets[d].len() as u64;
    let mut k_cur = state.post_topic[d] as usize;
    counters.logcache_lookups += eval_cost;
    let mut lw_cur = topic_logweight_one(caches, state, posts, d, c, t, k_cur);
    for step in 0..MH_STEPS_PER_DRAW {
        // Log proposal-density correction q(k_cur) − q(k_new); zero for the
        // symmetric uniform proposal.
        let (k_new, q_diff) = if step % 2 == 0 {
            // Pick a token uniformly, walk the multiset to its word.
            let mut r = rng.gen_range(0..len);
            let mut w = posts.multisets[d][0].0 as usize;
            for &(word, cnt) in &posts.multisets[d] {
                if r < cnt {
                    w = word as usize;
                    break;
                }
                r -= cnt;
            }
            let alias = caches
                .alias
                .as_ref()
                .expect("AliasMh kernel has alias state");
            let k_new = alias.tables[w].sample(rng);
            (
                k_new,
                alias.qlog[w * kdim + k_cur] - alias.qlog[w * kdim + k_new],
            )
        } else {
            (rng.gen_range(0..kdim), 0.0)
        };
        counters.mh_proposals += 1;
        if k_new == k_cur {
            // A self-proposal is trivially accepted, keeping
            // accepted + rejected == proposals.
            counters.mh_accepted += 1;
            continue;
        }
        counters.logcache_lookups += eval_cost;
        let lw_new = topic_logweight_one(caches, state, posts, d, c, t, k_new);
        let log_accept = (lw_new - lw_cur) + q_diff;
        if log_accept >= 0.0 || rng.gen::<f64>() < log_accept.exp() {
            counters.mh_accepted += 1;
            k_cur = k_new;
            lw_cur = lw_new;
        } else {
            counters.mh_rejected += 1;
        }
    }
    k_cur
}

/// One user's `n_ic` membership row: a direct slice when dense, a bulk
/// gather into `buf` when sparse. Same cell values either way — callers
/// read identical numbers, they just stop paying a hash probe per
/// community (the Eq. 2 pair loop reads each row `C` times).
#[inline]
fn membership_row<'a>(
    n_ic: &'a crate::storage::CounterStore,
    user: usize,
    cdim: usize,
    buf: &'a mut [u32],
) -> &'a [u32] {
    match n_ic.as_dense_slice() {
        Some(s) => &s[user * cdim..(user + 1) * cdim],
        None => {
            n_ic.gather_row(user * cdim, buf);
            buf
        }
    }
}

/// Resample `c_ij` (Eq. 1) then `z_ij` (Eq. 3) for post `d`, updating
/// `state` in place. `rho` is passed separately from `hyper` so callers can
/// anneal the membership prior.
pub fn resample_post(
    state: &mut CountState,
    posts: &PostsView,
    d: usize,
    hyper: &Hyperparams,
    rho: f64,
    rng: &mut Rng,
    scratch: &mut Scratch,
) {
    debug_assert!(
        scratch.caches.as_ref().is_none_or(|c| c.hyper == *hyper
            || Hyperparams {
                rho: c.hyper.rho,
                ..*hyper
            } == c.hyper),
        "Scratch caches were built for different hyper-parameters"
    );
    let old_assign = (state.post_comm[d], state.post_topic[d]);
    if let Some(acc) = scratch.delta.as_deref_mut() {
        acc.record_post(state, posts, d, -1);
    }
    state.remove_post(d, posts);
    let i = posts.authors[d] as usize;
    let t = posts.times[d] as usize;
    let cdim = state.num_communities;
    let kdim = state.num_topics;
    let tdim = state.num_time_slices as f64;
    let teps = tdim * hyper.epsilon;

    // --- Eq. (1): community, with the current topic fixed. ---
    let k_cur = state.post_topic[d] as usize;
    let shared = state.time_comm_rows == 1;
    // Shared-temporal mode: the denominator Σ_c' n_c'^(k_cur) is the same
    // for every community — hoisted out of the loop (it is the maintained
    // posts-per-topic counter).
    let shared_denom = state.n_post_k[k_cur] as f64;
    let mi_row = membership_row(&state.n_ic, i, cdim, &mut scratch.ic_row_i);
    for c in 0..cdim {
        let member = mi_row[c] as f64 + rho;
        let interest = (state.n_ck[c * kdim + k_cur] as f64 + hyper.alpha)
            / (state.n_c[c] as f64 + kdim as f64 * hyper.alpha);
        let temporal_denom = if shared {
            shared_denom
        } else {
            state.n_ck[c * kdim + k_cur] as f64
        };
        let temporal = (state.n_ckt[state.ckt_index(c, k_cur, t)] as f64 + hyper.epsilon)
            / (temporal_denom + teps);
        scratch.comm_weights[c] = member * interest * temporal;
    }
    let new_c = sample_categorical(rng, &scratch.comm_weights)
        .expect("community weights must have positive mass");
    state.post_comm[d] = new_c as u32;
    scratch.counters.comm_draws += 1;
    scratch.counters.topic_draws += 1;

    // --- Eq. (3): topic, with the (new) community fixed. ---
    let c = new_c;
    let new_k = match (scratch.kernel, &mut scratch.caches) {
        (SamplerKernel::AliasMh, Some(caches))
            if posts.lens[d] > 0 && caches.alias.as_ref().is_some_and(|a| a.ready) =>
        {
            mh_topic_draw(caches, &mut scratch.counters, state, posts, d, c, t, rng)
        }
        (_, Some(caches)) => {
            scratch.counters.logcache_lookups +=
                kdim as u64 * (4 + posts.multisets[d].len() as u64);
            topic_logweights(
                caches,
                state,
                posts,
                d,
                c,
                t,
                &mut scratch.topic_logw,
                &mut scratch.vk_row,
            );
            sample_log_categorical(rng, &scratch.topic_logw)
                .expect("topic weights must have finite mass")
        }
        (_, None) => {
            let mut eval = DirectEval::new(hyper, state.num_time_slices, state.vocab_size);
            topic_logweights(
                &mut eval,
                state,
                posts,
                d,
                c,
                t,
                &mut scratch.topic_logw,
                &mut scratch.vk_row,
            );
            sample_log_categorical(rng, &scratch.topic_logw)
                .expect("topic weights must have finite mass")
        }
    };
    state.post_topic[d] = new_k as u32;

    if let Some(acc) = scratch.delta.as_deref_mut() {
        acc.record_post(state, posts, d, 1);
        if (new_c as u32, new_k as u32) != old_assign {
            acc.note_post_assign(d, new_c as u32, new_k as u32);
        }
    }
    state.add_post(d, posts);
}

/// Resample `(s_ii', s'_ii')` jointly for link `e` (Eq. 2).
pub fn resample_link(
    state: &mut CountState,
    e: usize,
    hyper: &Hyperparams,
    rho: f64,
    rng: &mut Rng,
    scratch: &mut Scratch,
) {
    let cdim = state.num_communities;
    // Sweeps walk the edge list in order: hint the next pair's
    // membership rows so their random accesses overlap this draw.
    if let Some(&(ni, nj)) = state.links.get(e + 1) {
        state.n_ic.prefetch_row(ni as usize * cdim, cdim);
        state.n_ic.prefetch_row(nj as usize * cdim, cdim);
    }
    let old_cell = state.link_src_comm[e] as usize * cdim + state.link_dst_comm[e] as usize;
    if let Some(acc) = scratch.delta.as_deref_mut() {
        acc.record_link(state, e, -1);
    }
    state.remove_link(e);
    let (i, j) = state.links[e];
    let use_cache = scratch
        .caches
        .as_ref()
        .is_some_and(|caches| caches.rates_ready);
    let mi_row = membership_row(&state.n_ic, i as usize, cdim, &mut scratch.ic_row_i);
    let mj_row = membership_row(&state.n_ic, j as usize, cdim, &mut scratch.ic_row_j);
    if use_cache {
        let caches = scratch.caches.as_mut().expect("checked above");
        caches.patch_rate(state, old_cell);
        for c in 0..cdim {
            let mi = mi_row[c] as f64 + rho;
            let rates = &caches.rate_pos[c * cdim..(c + 1) * cdim];
            for c2 in 0..cdim {
                let mj = mj_row[c2] as f64 + rho;
                scratch.pair_weights[c * cdim + c2] = mi * mj * rates[c2];
            }
        }
    } else {
        for c in 0..cdim {
            let mi = mi_row[c] as f64 + rho;
            for c2 in 0..cdim {
                let mj = mj_row[c2] as f64 + rho;
                let n1 = state.n_cc[c * cdim + c2] as f64;
                // With explicit negatives, n0 carries the per-cell absence
                // evidence; without them it is zero and λ0 alone stands in
                // for the negatives (the paper's approximation).
                let n0 = state.n0_cc[c * cdim + c2] as f64;
                let link = (n1 + hyper.lambda1) / (n1 + n0 + hyper.lambda0 + hyper.lambda1);
                scratch.pair_weights[c * cdim + c2] = mi * mj * link;
            }
        }
    }
    let cell = sample_categorical(rng, &scratch.pair_weights)
        .expect("pair weights must have positive mass");
    state.link_src_comm[e] = (cell / cdim) as u32;
    state.link_dst_comm[e] = (cell % cdim) as u32;
    scratch.counters.link_draws += 1;
    if let Some(acc) = scratch.delta.as_deref_mut() {
        acc.record_link(state, e, 1);
        if cell != old_cell {
            acc.note_link_assign(e, state.link_src_comm[e], state.link_dst_comm[e]);
        }
    }
    state.add_link(e);
    if use_cache {
        let caches = scratch.caches.as_mut().expect("checked above");
        caches.patch_rate(state, cell);
    }
}

/// Resample `(s, s')` jointly for explicitly-observed negative pair `e`:
/// the Eq. 2 shape with the Bernoulli *failure* predictive.
pub fn resample_negative_link(
    state: &mut CountState,
    e: usize,
    hyper: &Hyperparams,
    rho: f64,
    rng: &mut Rng,
    scratch: &mut Scratch,
) {
    let cdim = state.num_communities;
    // Same next-pair hint as `resample_link`.
    if let Some(&(ni, nj)) = state.neg_links.get(e + 1) {
        state.n_ic.prefetch_row(ni as usize * cdim, cdim);
        state.n_ic.prefetch_row(nj as usize * cdim, cdim);
    }
    let old_cell = state.neg_src_comm[e] as usize * cdim + state.neg_dst_comm[e] as usize;
    if let Some(acc) = scratch.delta.as_deref_mut() {
        acc.record_neg_link(state, e, -1);
    }
    state.remove_neg_link(e);
    let (i, j) = state.neg_links[e];
    let use_cache = scratch
        .caches
        .as_ref()
        .is_some_and(|caches| caches.rates_ready);
    let mi_row = membership_row(&state.n_ic, i as usize, cdim, &mut scratch.ic_row_i);
    let mj_row = membership_row(&state.n_ic, j as usize, cdim, &mut scratch.ic_row_j);
    if use_cache {
        let caches = scratch.caches.as_mut().expect("checked above");
        caches.patch_rate(state, old_cell);
        for c in 0..cdim {
            let mi = mi_row[c] as f64 + rho;
            let rates = &caches.rate_neg[c * cdim..(c + 1) * cdim];
            for c2 in 0..cdim {
                let mj = mj_row[c2] as f64 + rho;
                scratch.pair_weights[c * cdim + c2] = mi * mj * rates[c2];
            }
        }
    } else {
        for c in 0..cdim {
            let mi = mi_row[c] as f64 + rho;
            for c2 in 0..cdim {
                let mj = mj_row[c2] as f64 + rho;
                let n1 = state.n_cc[c * cdim + c2] as f64;
                let n0 = state.n0_cc[c * cdim + c2] as f64;
                let no_link = (n0 + hyper.lambda0) / (n1 + n0 + hyper.lambda0 + hyper.lambda1);
                scratch.pair_weights[c * cdim + c2] = mi * mj * no_link;
            }
        }
    }
    let cell = sample_categorical(rng, &scratch.pair_weights)
        .expect("pair weights must have positive mass");
    state.neg_src_comm[e] = (cell / cdim) as u32;
    state.neg_dst_comm[e] = (cell % cdim) as u32;
    scratch.counters.neg_link_draws += 1;
    if let Some(acc) = scratch.delta.as_deref_mut() {
        acc.record_neg_link(state, e, 1);
        if cell != old_cell {
            acc.note_neg_assign(e, state.neg_src_comm[e], state.neg_dst_comm[e]);
        }
    }
    state.add_neg_link(e);
    if use_cache {
        let caches = scratch.caches.as_mut().expect("checked above");
        caches.patch_rate(state, cell);
    }
}

/// [`resample_post`] for each post in `ids`, in order: every post of the
/// corpus, or the posts one shard owns.
pub fn resample_posts(
    state: &mut CountState,
    posts: &PostsView,
    ids: impl IntoIterator<Item = usize>,
    hyper: &Hyperparams,
    rho: f64,
    rng: &mut Rng,
    scratch: &mut Scratch,
) {
    for d in ids {
        resample_post(state, posts, d, hyper, rho, rng, scratch);
    }
}

/// [`resample_link`] for each link in `ids`, in order.
pub fn resample_links(
    state: &mut CountState,
    ids: impl IntoIterator<Item = usize>,
    hyper: &Hyperparams,
    rho: f64,
    rng: &mut Rng,
    scratch: &mut Scratch,
) {
    for e in ids {
        resample_link(state, e, hyper, rho, rng, scratch);
    }
}

/// [`resample_negative_link`] for each negative pair in `ids`, in order.
pub fn resample_negative_links(
    state: &mut CountState,
    ids: impl IntoIterator<Item = usize>,
    hyper: &Hyperparams,
    rho: f64,
    rng: &mut Rng,
    scratch: &mut Scratch,
) {
    for e in ids {
        resample_negative_link(state, e, hyper, rho, rng, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ColdConfig;
    use cold_graph::CsrGraph;
    use cold_math::rng::seeded_rng;
    use cold_text::CorpusBuilder;

    fn fixture() -> (cold_text::Corpus, CsrGraph) {
        let mut b = CorpusBuilder::new();
        b.push_text(0, 0, &["a", "b"]);
        b.push_text(1, 1, &["c", "a"]);
        b.push_text(2, 2, &["b"]);
        let corpus = b.build();
        let graph = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        (corpus, graph)
    }

    #[test]
    fn conditionals_preserve_counter_consistency() {
        let (corpus, graph) = fixture();
        let config = ColdConfig::builder(2, 2)
            .iterations(4)
            .build(&corpus, &graph);
        let posts = crate::state::PostsView::from_corpus(&corpus);
        let mut rng = seeded_rng(9);
        let mut state = CountState::init_random(&config, &posts, &graph, &mut rng);
        let mut scratch = Scratch::new(2, 2);
        for _ in 0..5 {
            for d in 0..posts.len() {
                resample_post(
                    &mut state,
                    &posts,
                    d,
                    &config.hyper,
                    config.hyper.rho,
                    &mut rng,
                    &mut scratch,
                );
            }
            for e in 0..state.links.len() {
                resample_link(
                    &mut state,
                    e,
                    &config.hyper,
                    config.hyper.rho,
                    &mut rng,
                    &mut scratch,
                );
            }
            state.check_consistency(&posts).unwrap();
        }
    }

    /// The cached kernel's draws must be bit-identical to the Exact
    /// kernel's: same seeds, same trajectory, same final assignments.
    #[test]
    fn cached_log_trajectory_is_bit_identical_to_exact() {
        let (corpus, graph) = fixture();
        let mut states = Vec::new();
        for kernel in [SamplerKernel::Exact, SamplerKernel::CachedLog] {
            let config = ColdConfig::builder(2, 2)
                .iterations(4)
                .kernel(kernel)
                .build(&corpus, &graph);
            let posts = crate::state::PostsView::from_corpus(&corpus);
            let mut rng = seeded_rng(17);
            let mut state = CountState::init_random(&config, &posts, &graph, &mut rng);
            let mut scratch = Scratch::for_config(&config);
            for _ in 0..6 {
                scratch.begin_sweep(&state);
                for d in 0..posts.len() {
                    resample_post(
                        &mut state,
                        &posts,
                        d,
                        &config.hyper,
                        config.hyper.rho,
                        &mut rng,
                        &mut scratch,
                    );
                }
                for e in 0..state.links.len() {
                    resample_link(
                        &mut state,
                        e,
                        &config.hyper,
                        config.hyper.rho,
                        &mut rng,
                        &mut scratch,
                    );
                }
            }
            scratch.check_rate_consistency(&state).unwrap();
            states.push((
                state.post_comm.clone(),
                state.post_topic.clone(),
                state.link_src_comm.clone(),
            ));
        }
        assert_eq!(states[0], states[1], "CachedLog diverged from Exact");
    }

    /// The cached rate matrix stays exact across incremental patches, for
    /// both positive links and explicit negatives.
    #[test]
    fn rate_cache_survives_link_resampling() {
        let (corpus, graph) = fixture();
        let config = ColdConfig::builder(2, 2)
            .iterations(4)
            .explicit_negatives(1.0)
            .kernel(SamplerKernel::CachedLog)
            .build(&corpus, &graph);
        let posts = crate::state::PostsView::from_corpus(&corpus);
        let mut rng = seeded_rng(23);
        let mut state = CountState::init_random(&config, &posts, &graph, &mut rng);
        assert!(
            !state.neg_links.is_empty(),
            "fixture should sample negatives"
        );
        let mut scratch = Scratch::for_config(&config);
        for _ in 0..4 {
            scratch.begin_sweep(&state);
            for d in 0..posts.len() {
                resample_post(
                    &mut state,
                    &posts,
                    d,
                    &config.hyper,
                    config.hyper.rho,
                    &mut rng,
                    &mut scratch,
                );
            }
            for e in 0..state.links.len() {
                resample_link(
                    &mut state,
                    e,
                    &config.hyper,
                    config.hyper.rho,
                    &mut rng,
                    &mut scratch,
                );
            }
            for e in 0..state.neg_links.len() {
                resample_negative_link(
                    &mut state,
                    e,
                    &config.hyper,
                    config.hyper.rho,
                    &mut rng,
                    &mut scratch,
                );
            }
            state.check_consistency(&posts).unwrap();
            scratch.check_rate_consistency(&state).unwrap();
        }
    }

    /// Attaching a delta accumulator must not perturb the trajectory, and
    /// replaying the drained delta onto the pre-sweep state must land on
    /// exactly the post-sweep state (counters, mirrors, assignments).
    #[test]
    fn delta_recording_is_transparent_and_exact() {
        let (corpus, graph) = fixture();
        let config = ColdConfig::builder(2, 2)
            .iterations(4)
            .explicit_negatives(1.0)
            .kernel(SamplerKernel::CachedLog)
            .build(&corpus, &graph);
        let posts = crate::state::PostsView::from_corpus(&corpus);
        let mut rng = seeded_rng(41);
        let base = CountState::init_random(&config, &posts, &graph, &mut rng);
        let sweep = |state: &mut CountState, scratch: &mut Scratch, seed: u64| {
            let mut rng = seeded_rng(seed);
            scratch.begin_sweep(state);
            for d in 0..posts.len() {
                resample_post(
                    state,
                    &posts,
                    d,
                    &config.hyper,
                    config.hyper.rho,
                    &mut rng,
                    scratch,
                );
            }
            for e in 0..state.links.len() {
                resample_link(state, e, &config.hyper, config.hyper.rho, &mut rng, scratch);
            }
            for e in 0..state.neg_links.len() {
                resample_negative_link(
                    state,
                    e,
                    &config.hyper,
                    config.hyper.rho,
                    &mut rng,
                    scratch,
                );
            }
        };
        // Recorded arm.
        let mut recorded = base.clone();
        let mut scratch = Scratch::for_config(&config);
        scratch.attach_delta(Box::new(crate::state::DeltaAcc::for_state(&recorded)));
        sweep(&mut recorded, &mut scratch, 77);
        let delta = scratch.detach_delta().expect("attached above").drain();
        // Plain arm, same seed: identical trajectory.
        let mut plain = base.clone();
        let mut plain_scratch = Scratch::for_config(&config);
        sweep(&mut plain, &mut plain_scratch, 77);
        assert_eq!(recorded, plain, "recording perturbed the draws");
        // Replay arm.
        let mut replayed = base.clone();
        replayed.apply_delta(&delta);
        assert_eq!(replayed, recorded, "delta replay drifted");
        replayed.check_consistency(&posts).unwrap();
        // The wire form's advertised length is exact.
        assert_eq!(delta.encode().len() as u64, delta.encoded_len());
    }

    /// AliasMh keeps every counter and cache invariant intact.
    #[test]
    fn alias_mh_preserves_invariants() {
        let (corpus, graph) = fixture();
        let config = ColdConfig::builder(2, 3)
            .iterations(4)
            .kernel(SamplerKernel::AliasMh)
            .build(&corpus, &graph);
        let posts = crate::state::PostsView::from_corpus(&corpus);
        let mut rng = seeded_rng(31);
        let mut state = CountState::init_random(&config, &posts, &graph, &mut rng);
        let mut scratch = Scratch::for_config(&config);
        for _ in 0..6 {
            scratch.begin_sweep(&state);
            for d in 0..posts.len() {
                resample_post(
                    &mut state,
                    &posts,
                    d,
                    &config.hyper,
                    config.hyper.rho,
                    &mut rng,
                    &mut scratch,
                );
            }
            for e in 0..state.links.len() {
                resample_link(
                    &mut state,
                    e,
                    &config.hyper,
                    config.hyper.rho,
                    &mut rng,
                    &mut scratch,
                );
            }
            state.check_consistency(&posts).unwrap();
            scratch.check_rate_consistency(&state).unwrap();
        }
    }
}
