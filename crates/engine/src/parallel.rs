//! The parallel COLD Gibbs sampler: sharded supersteps with stale global
//! counters, reconciled at each barrier (Alg. 2's GAS program expressed as
//! bulk-synchronous shards).
//!
//! Shard assignment follows the paper's Fig. 4 partitioning intent:
//! a user's posts (her user–time edges) and her *outgoing* links live on
//! the shard that owns the user, so the membership counters `n_i` are
//! mostly shard-local; the low-dimensional global counters (`n_ck`,
//! `n_ckt`, `n_kv`, `n_k`, `n_cc`) are stale within a superstep and
//! reconciled at the barrier — each worker therefore samples against
//! counts that are stale by at most one superstep for other shards' items,
//! the standard AD-LDA approximation.
//!
//! ## Delta synchronization
//!
//! Each shard keeps a *persistent* dense replica of the state across
//! supersteps. While sampling, the conditionals mirror every counter
//! update into a sparse [`DeltaAcc`](cold_core::state::DeltaAcc); the
//! barrier drains each shard's [`CountDelta`], applies them to the
//! authoritative state in shard order, and broadcasts each delta to the
//! *other* replicas. Per-superstep traffic is O(shards × changed cells) —
//! the measured serialized delta bytes are reported as `sync_bytes` —
//! instead of O(shards × full state).
//!
//! The trajectory is a pure function of `(seed, shards)`: a replica's
//! counters equal the authoritative barrier state at every superstep
//! start (integer delta addition is commutative and exact), the
//! per-(superstep, shard) RNG streams derive from the seed, and each
//! worker rebuilds its kernel caches per superstep. The golden-trace suite
//! (`tests/golden_trace.rs`) pins that trajectory at shards {2, 4} under
//! every kernel.

use crate::cluster::{ClusterCostModel, SuperstepWork};
use cold_core::checkpoint::{
    collects_after_sweep, due_after_sweep, fnv1a64, Checkpoint, CheckpointKind, Checkpointer,
    CkptError, ResumePoint,
};
use cold_core::conditionals::{
    resample_links, resample_negative_links, resample_posts, KernelCounters, Scratch,
};
use cold_core::estimates::EstimateAccumulator;
use cold_core::params::ColdConfig;
use cold_core::sampler::{complete_log_likelihood, sweep_in_place, TrainTrace};
use cold_core::state::{CountDelta, CountState, DeltaAcc, PostsView};
use cold_core::ColdModel;
use cold_graph::CsrGraph;
use cold_math::rng::{seeded_rng, Rng, RngFactory};
use cold_obs::trace::{field, hex_digest};
use cold_text::Corpus;

/// Work and timing records of a parallel training run.
#[derive(Debug, Clone, Default)]
pub struct ParallelStats {
    /// Metered work per superstep (input to the cluster cost model).
    pub supersteps: Vec<SuperstepWork>,
    /// Measured wall time of each superstep, seconds (same indexing as
    /// `supersteps`; their sum is bounded by `wall_seconds`). Covers the
    /// sampling + barrier work only: posterior-sample collection and
    /// checkpoint writes at the barrier are timed separately
    /// (`ckpt.snapshot_seconds` / `ckpt.write_seconds`), never here.
    pub superstep_seconds: Vec<f64>,
    /// Real single-machine wall time of the run, seconds.
    pub wall_seconds: f64,
}

impl ParallelStats {
    /// Simulated wall time on a cluster of `nodes` machines.
    pub fn simulated_seconds(&self, model: &ClusterCostModel, nodes: usize) -> f64 {
        model.total_seconds(&self.supersteps, nodes)
    }
}

/// Persistent per-shard worker state of the delta-sync barrier.
struct ShardWorker {
    /// Dense replica of the authoritative state. Counters equal the
    /// barrier state at every superstep start; assignment entries are
    /// current for owned items only (non-owned assignments are never read
    /// by sampling, so they are not synced).
    replica: CountState,
    /// Reusable sparse accumulator (epoch-stamped, so draining between
    /// supersteps is O(touched cells), not O(state)). `None` only while
    /// lent to the worker thread's `Scratch` during a superstep.
    acc: Option<Box<DeltaAcc>>,
}

impl ShardWorker {
    fn new(global: &CountState) -> Self {
        Self {
            replica: global.clone(),
            acc: Some(Box::new(DeltaAcc::for_state(global))),
        }
    }
}

/// The state that differs between one shard and several.
enum ShardMode {
    /// Two or more shards: the factory of per-(superstep, shard) RNG
    /// streams and one replica per shard, reconciled by delta sync at the
    /// barrier (the AD-LDA approximation).
    Sharded {
        factory: RngFactory,
        /// One entry per shard.
        workers: Vec<ShardWorker>,
    },
    /// Exactly one shard: the persistent RNG stream and kernel caches of
    /// the sequential chain, swept in place by
    /// [`sweep_in_place`] as `GibbsSampler` does. Seeded like
    /// `GibbsSampler::new` and resumable from its checkpoints, so shards=1
    /// is the sequential chain itself, bit for bit.
    Sequential { rng: Rng, scratch: Box<Scratch> },
}

/// The sharded parallel sampler.
pub struct ParallelGibbs {
    config: ColdConfig,
    posts: PostsView,
    shards: usize,
    /// Post ids per shard (by author ownership).
    shard_posts: Vec<Vec<usize>>,
    /// Link indices per shard (by source-user ownership).
    shard_links: Vec<Vec<usize>>,
    /// Negative-pair indices per shard (by source-user ownership).
    shard_neg_links: Vec<Vec<usize>>,
    /// Authoritative state between supersteps.
    global: CountState,
    mode: ShardMode,
    /// Completed supersteps (checkpoints are cut at these barriers).
    sweeps_done: usize,
    /// Partial posterior averages collected after burn-in. A field (not a
    /// `run`-local) so checkpoints capture it and resume loses no samples.
    acc: EstimateAccumulator,
    /// The base seed; sharded resume re-derives its per-(sweep, shard)
    /// RNG streams from it.
    seed: u64,
}

impl ParallelGibbs {
    /// Prepare a parallel sampler with `shards` partitions.
    pub fn new(
        corpus: &Corpus,
        graph: &CsrGraph,
        config: ColdConfig,
        shards: usize,
        seed: u64,
    ) -> Self {
        assert!(shards >= 1, "need at least one shard");
        config.validate().expect("invalid COLD configuration");
        let posts = PostsView::from_corpus(corpus);
        let (global, mode) = if shards == 1 {
            // One stream draws the initial assignments and then every
            // sweep: the sequential chain's start (`GibbsSampler::new`).
            let mut rng = seeded_rng(seed);
            let global = CountState::init_random(&config, &posts, graph, &mut rng);
            let scratch = Box::new(Scratch::for_config(&config));
            (global, ShardMode::Sequential { rng, scratch })
        } else {
            let factory = RngFactory::new(seed);
            let mut init_rng = factory.stream(u64::MAX);
            let global = CountState::init_random(&config, &posts, graph, &mut init_rng);
            let workers = (0..shards).map(|_| ShardWorker::new(&global)).collect();
            (global, ShardMode::Sharded { factory, workers })
        };
        let (shard_posts, shard_links, shard_neg_links) =
            Self::build_partitions(&posts, &global, shards);
        let this = Self {
            acc: EstimateAccumulator::new(&config),
            config,
            posts,
            shards,
            shard_posts,
            shard_links,
            shard_neg_links,
            global,
            mode,
            sweeps_done: 0,
            seed,
        };
        this.publish_partition_gauges();
        this
    }

    /// Deterministic shard assignment by greedy LPT on per-user post
    /// counts: users are placed in descending post-count order (ties:
    /// ascending user id) onto the least-loaded shard (ties: lowest shard
    /// id), and a user's links and negative pairs follow her shard. A pure
    /// function of posts, links and the shard count, so resume rebuilds
    /// the identical partition. Compared with the round-robin placement it
    /// replaces, LPT keeps heavy-tailed author distributions balanced
    /// (`parallel.shard_imbalance` tracks the achieved max/mean ratio).
    #[allow(clippy::type_complexity)]
    fn build_partitions(
        posts: &PostsView,
        global: &CountState,
        shards: usize,
    ) -> (Vec<Vec<usize>>, Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let num_users = global.n_i.len();
        let mut post_count = vec![0u64; num_users];
        for &a in &posts.authors {
            post_count[a as usize] += 1;
        }
        let mut order: Vec<u32> = (0..num_users as u32).collect();
        order.sort_by(|&a, &b| {
            post_count[b as usize]
                .cmp(&post_count[a as usize])
                .then(a.cmp(&b))
        });
        let mut load = vec![0u64; shards];
        let mut user_shard = vec![0u32; num_users];
        for &i in &order {
            let s = (0..shards)
                .min_by_key(|&s| (load[s], s))
                .expect("at least one shard");
            user_shard[i as usize] = s as u32;
            load[s] += post_count[i as usize];
        }
        let mut shard_posts: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for d in 0..posts.len() {
            shard_posts[user_shard[posts.authors[d] as usize] as usize].push(d);
        }
        let mut shard_links: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (e, &(i, _)) in global.links.iter().enumerate() {
            shard_links[user_shard[i as usize] as usize].push(e);
        }
        let mut shard_neg_links: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (e, &(i, _)) in global.neg_links.iter().enumerate() {
            shard_neg_links[user_shard[i as usize] as usize].push(e);
        }
        (shard_posts, shard_links, shard_neg_links)
    }

    /// Max/mean owned post ops across shards (1.0 = perfectly balanced).
    fn shard_imbalance(&self) -> f64 {
        let mean = self.posts.len() as f64 / self.shards as f64;
        if mean == 0.0 {
            return 1.0;
        }
        let max = self.shard_posts.iter().map(|p| p.len()).max().unwrap_or(0) as f64;
        max / mean
    }

    /// Publish the partition-shape gauges (idempotent; called at
    /// construction and resume so dashboards see them even for runs driven
    /// by `superstep` directly).
    fn publish_partition_gauges(&self) {
        let metrics = &self.config.metrics.0;
        metrics.gauge_set("parallel.shards", self.shards as f64);
        metrics.gauge_set("parallel.shard_imbalance", self.shard_imbalance());
    }

    /// Rebuild a parallel sampler from a `cold-ckpt/v1` checkpoint,
    /// positioned at the superstep barrier where it was written. The shard
    /// count is pinned by the checkpoint (resharding would change both the
    /// partition and the RNG streams). Resume is **bit-identical**: the
    /// single-shard mode restores its sequential RNG stream, and the
    /// sharded mode's per-(superstep, shard) streams are pure functions of
    /// the base seed, so they need no serialized state at all. Shard
    /// replicas are barrier-local (each equals the checkpointed state's
    /// counters), so the checkpoint format carries nothing extra for them.
    ///
    /// Accepts a [`CheckpointKind::Parallel`] checkpoint at any shard
    /// count, and a [`CheckpointKind::Sequential`] one (always one shard):
    /// a one-shard `ParallelGibbs` runs the sequential chain. Every check
    /// is [`Checkpoint::resume_point`]'s.
    ///
    /// [`ParallelStats`] restart at zero — work metering is per-process,
    /// not part of the training state.
    pub fn resume(
        corpus: &Corpus,
        config: ColdConfig,
        ckpt: Checkpoint,
    ) -> Result<Self, CkptError> {
        let kinds = [CheckpointKind::Parallel, CheckpointKind::Sequential];
        let ResumePoint { ckpt, posts, rng } = ckpt.resume_point(corpus, &config, &kinds)?;
        let mode = match rng {
            Some(rng) => ShardMode::Sequential {
                rng,
                scratch: Box::new(Scratch::for_config(&config)),
            },
            None => ShardMode::Sharded {
                factory: RngFactory::new(ckpt.seed),
                workers: (0..ckpt.shards)
                    .map(|_| ShardWorker::new(&ckpt.state))
                    .collect(),
            },
        };
        let (shard_posts, shard_links, shard_neg_links) =
            Self::build_partitions(&posts, &ckpt.state, ckpt.shards);
        let this = Self {
            config,
            posts,
            shards: ckpt.shards,
            shard_posts,
            shard_links,
            shard_neg_links,
            global: ckpt.state,
            mode,
            sweeps_done: ckpt.sweeps_done,
            acc: ckpt.acc,
            seed: ckpt.seed,
        };
        this.publish_partition_gauges();
        Ok(this)
    }

    /// Snapshot the complete training state at the current superstep
    /// barrier. Never consumes sampler randomness.
    pub fn checkpoint(&self) -> Checkpoint {
        let rng = match &self.mode {
            ShardMode::Sequential { rng, .. } => rng.raw_state().to_vec(),
            // Sharded streams are derived per (superstep, shard) from the
            // base seed — nothing to serialize. Delta replicas equal the
            // barrier state, so they are rebuilt on resume, not stored.
            ShardMode::Sharded { .. } => Vec::new(),
        };
        Checkpoint {
            kind: CheckpointKind::Parallel,
            seed: self.seed,
            shards: self.shards,
            sweeps_done: self.sweeps_done,
            rng,
            config: self.config.clone(),
            state: self.global.clone(),
            trace: TrainTrace::default(),
            acc: self.acc.clone(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Completed supersteps so far.
    pub fn sweeps_done(&self) -> usize {
        self.sweeps_done
    }

    /// Read access to the authoritative state.
    pub fn state(&self) -> &CountState {
        &self.global
    }

    /// Complete-data log-likelihood of the training data at the current
    /// barrier — the same §4.3 convergence monitor the sequential sampler
    /// reports, evaluated on the authoritative state.
    pub fn log_likelihood(&self) -> f64 {
        complete_log_likelihood(&self.global, &self.posts, &self.config.hyper)
    }

    /// One superstep + the bookkeeping that belongs to its barrier:
    /// timing, sample collection, and (if a checkpointer is attached and
    /// the cadence hits) a durable checkpoint.
    fn step_once(
        &mut self,
        stats: Option<&mut ParallelStats>,
        ckpt: Option<&Checkpointer>,
    ) -> Result<(), CkptError> {
        let sweep = self.sweeps_done;
        let t_step = std::time::Instant::now();
        let work = self.superstep(sweep);
        // Superstep timing stops here: sample collection and checkpoint
        // I/O below are barrier add-ons, not superstep work, and are
        // accounted under their own metrics (`ckpt.*`).
        if let Some(stats) = stats {
            stats.superstep_seconds.push(t_step.elapsed().as_secs_f64());
            stats.supersteps.push(work);
        }
        if collects_after_sweep(&self.config, sweep) {
            self.acc.collect(&self.global);
        }
        if let Some(ckptr) = ckpt {
            if due_after_sweep(&self.config, sweep) {
                let metrics = self.config.metrics.0.clone();
                let t_snap = metrics.start();
                let snapshot = self.checkpoint();
                metrics.observe_since("ckpt.snapshot_seconds", t_snap);
                ckptr.write(&snapshot)?;
            }
        }
        Ok(())
    }

    /// Publish the end-of-run gauges (`parallel.wall_seconds`,
    /// `train.sweeps` and the partition shape). [`run`](Self::run) calls
    /// this itself; callers driving the sampler manually via
    /// [`run_sweeps`](Self::run_sweeps) should call it once training ends.
    pub fn publish_final_gauges(&self, wall_seconds: f64) {
        let metrics = &self.config.metrics.0;
        metrics.gauge_set("parallel.wall_seconds", wall_seconds);
        metrics.gauge_set("train.sweeps", self.sweeps_done as f64);
        self.publish_partition_gauges();
        self.global.publish_storage_gauges(metrics);
    }

    /// Run the configured sweeps, from wherever the sampler currently is
    /// (fresh or resumed); returns the fitted model and work stats.
    pub fn run(mut self) -> (ColdModel, ParallelStats) {
        let mut stats = ParallelStats::default();
        let start = std::time::Instant::now();
        while self.sweeps_done < self.config.iterations {
            self.step_once(Some(&mut stats), None)
                .expect("checkpoint-free run cannot fail");
        }
        stats.wall_seconds = start.elapsed().as_secs_f64();
        self.publish_final_gauges(stats.wall_seconds);
        (self.acc.finalize(), stats)
    }

    /// Advance to superstep `upto` (capped at the configured iterations)
    /// without finalizing, optionally checkpointing at the barriers. Lets
    /// tests stop a run exactly where a crash would.
    pub fn run_sweeps(
        &mut self,
        upto: usize,
        ckpt: Option<&Checkpointer>,
    ) -> Result<(), CkptError> {
        let upto = upto.min(self.config.iterations);
        while self.sweeps_done < upto {
            self.step_once(None, ckpt)?;
        }
        Ok(())
    }

    /// Average the samples collected so far into a model.
    ///
    /// # Panics
    /// Panics if no post-burn-in sample was ever collected.
    pub fn finish(self) -> ColdModel {
        self.acc.finalize()
    }

    /// One bulk-synchronous superstep: every shard resamples its items
    /// against stale counters + its own updates; the barrier reconciles
    /// them by delta sync. With a single shard it is one sweep of the
    /// sequential chain (see [`ShardMode`]).
    pub fn superstep(&mut self, sweep: usize) -> SuperstepWork {
        let metrics = self.config.metrics.0.clone();
        let sync = match &self.mode {
            ShardMode::Sequential { .. } => "seq",
            ShardMode::Sharded { .. } => "delta",
        };
        self.trace_superstep("superstep_begin", sweep, sync);
        let t_step = metrics.start();
        let work = match &self.mode {
            ShardMode::Sequential { .. } => self.superstep_single(sweep),
            ShardMode::Sharded { .. } => self.superstep_delta(sweep),
        };
        metrics.observe_since("parallel.superstep_seconds", t_step);
        metrics.counter_add("parallel.supersteps", 1);
        metrics.counter_add("parallel.sync_bytes", work.sync_bytes);
        self.trace_superstep("superstep_end", sweep, sync);
        self.sweeps_done += 1;
        work
    }

    /// Emit one `cold-trace/v1` superstep boundary event: the sweep, shard
    /// count, sync mode and the eleven per-family counter sums of the
    /// authoritative state — the values the replay model checks delta
    /// conservation against. No-op (and sum-free) when tracing is off.
    fn trace_superstep(&self, kind: &str, sweep: usize, sync: &str) {
        let metrics = &self.config.metrics.0;
        if !metrics.trace_enabled() {
            return;
        }
        let mut fields = vec![
            field("sweep", sweep),
            field("shards", self.shards),
            field("sync", sync),
        ];
        for (name, store) in self.global.families() {
            fields.push(field(format!("sum_{name}"), store.sum()));
        }
        metrics.trace_event(kind, fields);
    }

    /// The shards=1 superstep: one sweep of the sequential chain. There is
    /// no barrier, so nothing is synchronized: `sync_bytes` is 0.
    fn superstep_single(&mut self, sweep: usize) -> SuperstepWork {
        let metrics = self.config.metrics.0.clone();
        let ShardMode::Sequential { rng, scratch } = &mut self.mode else {
            unreachable!("dispatched on mode");
        };
        let t_apply = metrics.start();
        sweep_in_place(
            &mut self.global,
            &self.posts,
            &self.config,
            sweep,
            rng,
            scratch,
        );
        metrics.observe_since("parallel.apply_seconds", t_apply);
        if metrics.is_enabled() {
            self.publish_shard_draw_counters(&metrics);
        }
        debug_assert!(self.global.check_consistency(&self.posts).is_ok());
        self.superstep_work(0, Vec::new())
    }

    /// The delta-sync superstep: persistent replicas sample in place,
    /// recording sparse [`CountDelta`]s; the barrier applies them in shard
    /// order and broadcasts each to the other replicas.
    fn superstep_delta(&mut self, sweep: usize) -> SuperstepWork {
        let metrics = self.config.metrics.0.clone();
        let hyper = self.config.hyper;
        let rho = self.config.annealed_rho(sweep);
        let ShardMode::Sharded {
            factory, workers, ..
        } = &mut self.mode
        else {
            unreachable!("dispatched on mode");
        };
        let factory = &*factory;
        let deltas: Vec<(CountDelta, KernelCounters)> = std::thread::scope(|scope| {
            let posts = &self.posts;
            let shard_posts = &self.shard_posts;
            let shard_links = &self.shard_links;
            let shard_neg_links = &self.shard_neg_links;
            let config = &self.config;
            let handles: Vec<_> = workers
                .iter_mut()
                .enumerate()
                .map(|(s, worker)| {
                    let metrics = metrics.clone();
                    scope.spawn(move || {
                        // Gather phase: the replica's counters already
                        // equal the barrier state, so there is nothing to
                        // copy — only the kernel caches are rebuilt, per
                        // superstep (the AliasMh proposals are
                        // re-snapshotted against the stale counters,
                        // matching the sequential sampler's per-sweep
                        // refresh).
                        let t_gather = metrics.start();
                        let mut rng = factory.stream((sweep as u64) << 16 | s as u64);
                        let mut scratch = Scratch::for_config(config);
                        scratch.begin_sweep(&worker.replica);
                        scratch.attach_delta(
                            worker.acc.take().expect("accumulator parked at barrier"),
                        );
                        metrics.observe_since("parallel.gather_seconds", t_gather);
                        // Apply phase: resample every owned item in place,
                        // mirroring each counter update into the delta.
                        let t_apply = metrics.start();
                        let (replica, rng, scratch) = (&mut worker.replica, &mut rng, &mut scratch);
                        let owned_posts = shard_posts[s].iter().copied();
                        resample_posts(replica, posts, owned_posts, &hyper, rho, rng, scratch);
                        let owned_links = shard_links[s].iter().copied();
                        resample_links(replica, owned_links, &hyper, rho, rng, scratch);
                        let owned_neg = shard_neg_links[s].iter().copied();
                        resample_negative_links(replica, owned_neg, &hyper, rho, rng, scratch);
                        metrics.observe_since("parallel.apply_seconds", t_apply);
                        let mut acc = scratch.detach_delta().expect("attached above");
                        let delta = acc.drain();
                        worker.acc = Some(acc);
                        (delta, scratch.take_counters())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });

        // Trace announcements: one `shard_delta` summary per shard —
        // epoch, per-family cell counts and net changes, and an FNV digest
        // of the `cold-delta/v1` wire bytes — emitted before any apply, as
        // a distributed barrier would receive them.
        let traced = metrics.trace_enabled();
        let mut digests: Vec<u64> = Vec::new();
        if traced {
            for (s, (delta, _)) in deltas.iter().enumerate() {
                let encoded = delta.encode();
                let digest = fnv1a64(&encoded);
                digests.push(digest);
                let mut fields = vec![
                    field("sweep", sweep),
                    field("shard", s),
                    field("cells", delta.cells()),
                    field("bytes", encoded.len()),
                    field("digest", hex_digest(digest)),
                ];
                for (name, cells) in delta_families(delta) {
                    let net: i64 = cells.iter().map(|&(_, d)| i64::from(d)).sum();
                    fields.push(field(format!("cells_{name}"), cells.len()));
                    fields.push(field(format!("net_{name}"), net));
                }
                metrics.trace_event("shard_delta", fields);
            }
        }

        // Barrier, step 1: apply each shard's delta to the authoritative
        // state in ascending shard order. The order is fixed (and cell
        // updates are exact integer addition), so the result is
        // deterministic: the barrier state is the previous one plus every
        // shard's changes.
        let t_merge = metrics.start();
        let mut kernel_counters = KernelCounters::default();
        let mut shard_sync_bytes = Vec::with_capacity(self.shards);
        let mut delta_cells = 0u64;
        for (s, (delta, counters)) in deltas.iter().enumerate() {
            self.global.apply_delta(delta);
            if traced {
                metrics.trace_event(
                    "delta_apply",
                    vec![
                        field("sweep", sweep),
                        field("shard", s),
                        field("digest", hex_digest(digests[s])),
                    ],
                );
            }
            shard_sync_bytes.push(delta.encoded_len());
            delta_cells += delta.cells();
            kernel_counters.merge(counters);
        }
        metrics.observe_since("parallel.merge.apply_seconds", t_merge);
        // Barrier, step 2: broadcast every delta's counter cells to the
        // *other* shards' replicas. Addition commutes, so each replica
        // lands on exactly the authoritative counters regardless of
        // order. Assignments are not broadcast: a replica only ever reads
        // the assignments of items it owns, and those it wrote itself.
        let t_broadcast = metrics.start();
        for (r, worker) in workers.iter_mut().enumerate() {
            for (s, (delta, _)) in deltas.iter().enumerate() {
                if s != r {
                    delta.apply_counters(&mut worker.replica);
                }
            }
        }
        metrics.observe_since("parallel.merge.broadcast_seconds", t_broadcast);
        metrics.observe_since("parallel.merge_seconds", t_merge);
        metrics.counter_add("parallel.delta_cells", delta_cells);
        #[cfg(debug_assertions)]
        for worker in workers.iter() {
            debug_assert_eq!(worker.replica.n_ic, self.global.n_ic);
            debug_assert_eq!(worker.replica.n_kv, self.global.n_kv);
            debug_assert_eq!(worker.replica.n_vk, self.global.n_vk);
            debug_assert_eq!(worker.replica.n_post_k, self.global.n_post_k);
            debug_assert_eq!(worker.replica.n_ckt, self.global.n_ckt);
            debug_assert_eq!(worker.replica.n_cc, self.global.n_cc);
        }
        if metrics.is_enabled() {
            for (s, &bytes) in shard_sync_bytes.iter().enumerate() {
                metrics.counter_add(&format!("parallel.shard.{s}.sync_bytes"), bytes);
            }
            self.publish_shard_draw_counters(&metrics);
            kernel_counters.flush_into(&metrics, self.config.kernel);
        }
        debug_assert!(self.global.check_consistency(&self.posts).is_ok());
        let total: u64 = shard_sync_bytes.iter().sum();
        self.superstep_work(total, shard_sync_bytes)
    }

    /// Per-shard draw counters of a superstep.
    fn publish_shard_draw_counters(&self, metrics: &cold_core::Metrics) {
        for s in 0..self.shards {
            metrics.counter_add(
                &format!("parallel.shard.{s}.post_draws"),
                self.shard_posts[s].len() as u64,
            );
            metrics.counter_add(
                &format!("parallel.shard.{s}.link_draws"),
                (self.shard_links[s].len() + self.shard_neg_links[s].len()) as u64,
            );
        }
    }

    /// The metered work of one superstep.
    fn superstep_work(&self, sync_bytes: u64, shard_sync_bytes: Vec<u64>) -> SuperstepWork {
        SuperstepWork {
            post_ops: self.shard_posts.iter().map(|p| p.len() as u64).collect(),
            // Explicitly-modeled negative pairs cost the same O(C²) draw as
            // positive links; meter them together.
            link_ops: self
                .shard_links
                .iter()
                .zip(&self.shard_neg_links)
                .map(|(l, n)| (l.len() + n.len()) as u64)
                .collect(),
            sync_bytes,
            shard_sync_bytes,
        }
    }
}

/// The nine independent counter families a [`CountDelta`] carries, with
/// their wire names in `cold-delta/v1` declaration order. The trace
/// recorder summarizes each family per shard (`cells_*` / `net_*`), which
/// is what lets the replay model check per-epoch conservation without the
/// full cell lists.
fn delta_families(delta: &CountDelta) -> [(&'static str, &Vec<(u32, i32)>); 9] {
    [
        ("n_ic", &delta.n_ic),
        ("n_i", &delta.n_i),
        ("n_ck", &delta.n_ck),
        ("n_c", &delta.n_c),
        ("n_ckt", &delta.n_ckt),
        ("n_kv", &delta.n_kv),
        ("n_k", &delta.n_k),
        ("n_cc", &delta.n_cc),
        ("n0_cc", &delta.n0_cc),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cold_text::CorpusBuilder;

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

    fn config(corpus: &Corpus, graph: &CsrGraph) -> ColdConfig {
        ColdConfig::builder(2, 2)
            .iterations(60)
            .burn_in(50)
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

    #[test]
    fn counters_stay_consistent_across_supersteps() {
        let (corpus, graph) = data();
        let mut pg = ParallelGibbs::new(&corpus, &graph, config(&corpus, &graph), 3, 7);
        for sweep in 0..3 {
            pg.superstep(sweep);
            pg.state().check_consistency(&pg.posts).unwrap();
        }
    }

    #[test]
    fn single_shard_behaves_like_a_valid_sampler() {
        let (corpus, graph) = data();
        let (model, stats) =
            ParallelGibbs::new(&corpus, &graph, config(&corpus, &graph), 1, 8).run();
        assert_eq!(stats.supersteps.len(), 60);
        for i in 0..8 {
            assert!((model.user_memberships(i).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sharded_run_separates_planted_topics() {
        let (corpus, graph) = data();
        let (model, _) = ParallelGibbs::new(&corpus, &graph, config(&corpus, &graph), 4, 9).run();
        let fb = corpus.vocab().id_of("football").unwrap() as usize;
        let film = corpus.vocab().id_of("film").unwrap() as usize;
        let k_fb = if model.topic_words(0)[fb] > model.topic_words(1)[fb] {
            0
        } else {
            1
        };
        assert!(model.topic_words(1 - k_fb)[film] > model.topic_words(k_fb)[film]);
    }

    /// Delta-mode sync accounting is honest: per-shard bytes are reported,
    /// they sum to the superstep total, and each is the serialized size of
    /// an actual wire message (non-zero while the chain is still moving).
    #[test]
    fn delta_sync_bytes_are_measured_per_shard() {
        let (corpus, graph) = data();
        let mut pg = ParallelGibbs::new(&corpus, &graph, config(&corpus, &graph), 4, 10);
        let work = pg.superstep(0);
        assert_eq!(work.shard_sync_bytes.len(), 4);
        assert_eq!(work.sync_bytes, work.shard_sync_bytes.iter().sum::<u64>());
        // Sweep 0 starts from a random init, so every shard changes state.
        for (s, &bytes) in work.shard_sync_bytes.iter().enumerate() {
            assert!(bytes > 0, "shard {s} reported an empty delta at sweep 0");
        }
    }

    #[test]
    fn work_metering_is_complete_and_balanced() {
        let (corpus, graph) = data();
        let mut pg = ParallelGibbs::new(&corpus, &graph, config(&corpus, &graph), 4, 10);
        let work = pg.superstep(0);
        assert_eq!(work.post_ops.iter().sum::<u64>(), corpus.num_posts() as u64);
        assert_eq!(work.link_ops.iter().sum::<u64>(), graph.num_edges() as u64);
        assert!(work.sync_bytes > 0);
        // LPT placement on per-user post counts keeps shards balanced.
        let max = *work.post_ops.iter().max().unwrap();
        let min = *work.post_ops.iter().min().unwrap();
        assert!(max - min <= 10, "{work:?}");
    }

    /// Greedy LPT packs a heavy-tailed author distribution much tighter
    /// than round-robin user placement would.
    #[test]
    fn lpt_partition_balances_heavy_tailed_authors() {
        let mut b = CorpusBuilder::new();
        // User 0 posts 16×; users 1..8 post twice each — round-robin over
        // 4 shards would put users {0, 4} (18 posts) against {3, 7}
        // (4 posts). LPT packs to at most 8 per shard (30 posts total).
        for rep in 0..16u16 {
            b.push_text(0, rep % 4, &["alpha", "beta"]);
        }
        for u in 1..8u32 {
            for rep in 0..2u16 {
                b.push_text(u, rep % 4, &["gamma", "delta"]);
            }
        }
        let corpus = b.build();
        let graph = CsrGraph::from_edges(8, &[(0, 1), (2, 3), (4, 5), (6, 7)]);
        let cfg = ColdConfig::builder(2, 2)
            .iterations(4)
            .build(&corpus, &graph);
        let mut pg = ParallelGibbs::new(&corpus, &graph, cfg, 4, 3);
        let work = pg.superstep(0);
        let max = *work.post_ops.iter().max().unwrap();
        assert_eq!(work.post_ops.iter().sum::<u64>(), 30);
        assert!(max <= 16, "heaviest user bounds the heaviest shard");
        // The heavy user sits alone; the small users pack the other shards
        // to ~5 posts each, so max/mean stays close to the LPT bound.
        let imbalance = max as f64 / (30.0 / 4.0);
        assert!(imbalance < 2.2, "imbalance {imbalance}");
    }

    #[test]
    fn deterministic_given_seed_and_shards() {
        let (corpus, graph) = data();
        let (m1, _) = ParallelGibbs::new(&corpus, &graph, config(&corpus, &graph), 3, 11).run();
        let (m2, _) = ParallelGibbs::new(&corpus, &graph, config(&corpus, &graph), 3, 11).run();
        assert_eq!(m1.user_memberships(0), m2.user_memberships(0));
        assert_eq!(m1.topic_words(0), m2.topic_words(0));
    }

    /// Stop a run at a superstep barrier, round-trip the checkpoint
    /// through the on-disk byte format, resume, and finish: the model must
    /// be bit-identical to the uninterrupted run — for the single-shard
    /// (persistent RNG stream) and sharded (derived streams) modes alike.
    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let (corpus, graph) = data();
        for shards in [1usize, 3] {
            let cfg = config(&corpus, &graph);
            let (full, _) = ParallelGibbs::new(&corpus, &graph, cfg.clone(), shards, 13).run();
            let mut pg = ParallelGibbs::new(&corpus, &graph, cfg.clone(), shards, 13);
            // Stop after burn-in so the accumulator already holds partial
            // averages that the checkpoint must not lose.
            pg.run_sweeps(55, None).unwrap();
            let ckpt = Checkpoint::decode(&pg.checkpoint().encode()).unwrap();
            drop(pg);
            let resumed = ParallelGibbs::resume(&corpus, cfg, ckpt).unwrap();
            let (model, _) = resumed.run();
            assert_eq!(
                model.to_binary(),
                full.to_binary(),
                "{shards}-shard resume diverged from the uninterrupted run"
            );
        }
    }

    /// A parallel checkpoint refuses to resume under a different
    /// configuration or kind.
    #[test]
    fn resume_rejects_mismatches() {
        let (corpus, graph) = data();
        let cfg = config(&corpus, &graph);
        let mut pg = ParallelGibbs::new(&corpus, &graph, cfg.clone(), 2, 14);
        pg.run_sweeps(10, None).unwrap();
        let ckpt = pg.checkpoint();
        let other = ColdConfig::builder(2, 2)
            .iterations(61)
            .burn_in(50)
            .build(&corpus, &graph);
        assert!(matches!(
            ParallelGibbs::resume(&corpus, other, ckpt.clone()),
            Err(CkptError::ConfigMismatch(_))
        ));
        let mut wrong_kind = ckpt;
        wrong_kind.kind = CheckpointKind::Sequential;
        assert!(matches!(
            ParallelGibbs::resume(&corpus, cfg, wrong_kind),
            Err(CkptError::Format(_))
        ));
    }

    #[test]
    fn simulated_time_decreases_with_nodes_on_large_work() {
        // The test fixture is tiny, so scale the metered work to a size
        // where compute dominates synchronization (as in Fig. 13b's
        // regime); at the fixture's raw size sync dominates and more nodes
        // rightly do not help.
        let (corpus, graph) = data();
        let (_, mut stats) =
            ParallelGibbs::new(&corpus, &graph, config(&corpus, &graph), 8, 12).run();
        for w in &mut stats.supersteps {
            for ops in w.post_ops.iter_mut().chain(w.link_ops.iter_mut()) {
                *ops *= 50_000;
            }
        }
        let model = ClusterCostModel::default();
        let t1 = stats.simulated_seconds(&model, 1);
        let t4 = stats.simulated_seconds(&model, 4);
        let t8 = stats.simulated_seconds(&model, 8);
        assert!(t4 < t1 / 2.0, "{t4} vs {t1}");
        assert!(t8 < t4, "{t8} vs {t4}");
    }
}
