//! Collapsed-sampler count state.
//!
//! Holds the latent assignments (`c_ij`, `z_ij`, `s_ii'`, `s'_ii'`) and all
//! sufficient-statistic counters of Eqs. (1–3):
//!
//! * `n_i^(c)` — posts *and* link endpoints of user `i` in community `c`;
//! * `n_c^(k)` — posts of community `c` on topic `k`;
//! * `n_ck^(t)` — time stamps from community `c`, topic `k` at slice `t`;
//! * `n_k^(v)` — occurrences of word `v` under topic `k`;
//! * `n_cc'` — positive links with endpoint communities `(c, c')`.
//!
//! Counters are flat row-major arrays behind a [`CounterStore`] (dense
//! `Vec<u32>` or a sparse hash backend, chosen per family — see
//! [`crate::storage`]), updated in O(1) per assignment flip — that is what
//! makes each Gibbs sweep linear in the data size (§4.2).

use crate::params::ColdConfig;
use crate::storage::{CounterStorage, CounterStore};
use cold_graph::sampling::sample_negative_links;
use cold_graph::CsrGraph;
use cold_math::rng::Rng;
use cold_text::Corpus;
use rand::Rng as _;
use serde::{Deserialize, Serialize};

/// Immutable, sampler-friendly view of the posts: authors, times, and
/// precomputed word multisets (Eq. 3 iterates distinct words with counts).
#[derive(Debug, Clone)]
pub struct PostsView {
    /// Author of each post.
    pub authors: Vec<u32>,
    /// Time slice of each post.
    pub times: Vec<u16>,
    /// Sorted `(word, count)` multiset of each post.
    pub multisets: Vec<Vec<(u32, u32)>>,
    /// Token count of each post.
    pub lens: Vec<u32>,
}

impl PostsView {
    /// Extract the view from a corpus.
    pub fn from_corpus(corpus: &Corpus) -> Self {
        let posts = corpus.posts();
        Self {
            authors: posts.iter().map(|p| p.author).collect(),
            times: posts.iter().map(|p| p.time).collect(),
            multisets: posts.iter().map(|p| p.word_multiset()).collect(),
            lens: posts.iter().map(|p| p.len() as u32).collect(),
        }
    }

    /// Number of posts.
    pub fn len(&self) -> usize {
        self.authors.len()
    }

    /// Whether there are no posts.
    pub fn is_empty(&self) -> bool {
        self.authors.is_empty()
    }
}

/// The mutable Gibbs state: assignments plus counters. Serializable as the
/// core of a `cold-ckpt/v1` checkpoint (all counters are integers, so the
/// JSON round-trip is exact).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountState {
    /// Number of communities `C`.
    pub num_communities: usize,
    /// Number of topics `K`.
    pub num_topics: usize,
    /// Number of time slices `T`.
    pub num_time_slices: usize,
    /// Vocabulary size `V`.
    pub vocab_size: usize,
    /// Number of community rows in the time counter: `C`, or `1` when the
    /// shared-temporal ablation is active.
    pub time_comm_rows: usize,

    /// `c_ij` per post.
    pub post_comm: Vec<u32>,
    /// `z_ij` per post.
    pub post_topic: Vec<u32>,
    /// `s_ii'` per positive link (source-endpoint community).
    pub link_src_comm: Vec<u32>,
    /// `s'_ii'` per positive link (target-endpoint community).
    pub link_dst_comm: Vec<u32>,
    /// The positive links, parallel to the two vectors above.
    pub links: Vec<(u32, u32)>,
    /// Explicitly-observed negative pairs (empty unless
    /// `negative_link_ratio > 0`): the exact treatment of absent links.
    pub neg_links: Vec<(u32, u32)>,
    /// `s` per negative pair.
    pub neg_src_comm: Vec<u32>,
    /// `s'` per negative pair.
    pub neg_dst_comm: Vec<u32>,

    /// `n_i^(c)`, row-major `U×C`.
    pub n_ic: CounterStore,
    /// `n_i^(·)` per user (posts + link endpoints).
    pub n_i: CounterStore,
    /// `n_c^(k)`, row-major `C×K`.
    pub n_ck: CounterStore,
    /// `n_c^(·)` — posts per community.
    pub n_c: CounterStore,
    /// `n_ck^(t)`, row-major `time_comm_rows×K×T`.
    pub n_ckt: CounterStore,
    /// `n_k^(v)`, row-major `K×V`.
    pub n_kv: CounterStore,
    /// Word-major transpose of `n_kv`, row-major `V×K`. Maintained in
    /// lock-step with `n_kv` so the topic conditional (Eq. 3) can walk the
    /// per-word topic column contiguously (word-outer / topic-inner loop).
    pub n_vk: CounterStore,
    /// `n_k^(·)` — tokens per topic.
    pub n_k: CounterStore,
    /// Posts per topic (`Σ_c n_c^(k)`), the shared-temporal denominator of
    /// Eqs. 1 and 3 maintained in O(1) instead of an O(C) column sum.
    pub n_post_k: CounterStore,
    /// `n_cc'` (positive links), row-major `C×C`.
    pub n_cc: CounterStore,
    /// Observed negative pairs per cell, row-major `C×C` (all zero unless
    /// explicit negatives are enabled).
    pub n0_cc: CounterStore,
}

/// The eleven counter families by name — the nine independent families of
/// the model plus the two derived mirrors (`n_vk`, `n_post_k`). Order is
/// the declaration order in [`CountState`].
pub const COUNTER_FAMILIES: [&str; 11] = [
    "n_ic", "n_i", "n_ck", "n_c", "n_ckt", "n_kv", "n_vk", "n_k", "n_post_k", "n_cc", "n0_cc",
];

impl CountState {
    /// Initialize with uniformly-random assignments (the standard Gibbs
    /// start), counting everything in.
    pub fn init_random(
        config: &ColdConfig,
        posts: &PostsView,
        graph: &CsrGraph,
        rng: &mut Rng,
    ) -> Self {
        let c = config.dims.num_communities;
        let k = config.dims.num_topics;
        let t = config.dims.num_time_slices;
        let v = config.dims.vocab_size;
        let u = config.dims.num_users as usize;
        let time_rows = if config.community_specific_time { c } else { 1 };
        let links: Vec<(u32, u32)> = if config.use_links {
            graph.edges().collect()
        } else {
            Vec::new()
        };
        let neg_links: Vec<(u32, u32)> = if config.use_links && config.negative_link_ratio > 0.0 {
            let wanted = ((links.len() as f64 * config.negative_link_ratio) as usize)
                .min(graph.num_negative_links() as usize);
            if wanted > 0 && graph.num_nodes() >= 2 {
                sample_negative_links(rng, graph, wanted)
            } else {
                Vec::new()
            }
        } else {
            Vec::new()
        };
        let mut state = Self {
            num_communities: c,
            num_topics: k,
            num_time_slices: t,
            vocab_size: v,
            time_comm_rows: time_rows,
            post_comm: vec![0; posts.len()],
            post_topic: vec![0; posts.len()],
            link_src_comm: vec![0; links.len()],
            link_dst_comm: vec![0; links.len()],
            links,
            neg_src_comm: vec![0; neg_links.len()],
            neg_dst_comm: vec![0; neg_links.len()],
            neg_links,
            n_ic: CounterStore::dense(u * c),
            n_i: CounterStore::dense(u),
            n_ck: CounterStore::dense(c * k),
            n_c: CounterStore::dense(c),
            n_ckt: CounterStore::dense(time_rows * k * t),
            n_kv: CounterStore::dense(k * v),
            n_vk: CounterStore::dense(v * k),
            n_k: CounterStore::dense(k),
            n_post_k: CounterStore::dense(k),
            n_cc: CounterStore::dense(c * c),
            n0_cc: CounterStore::dense(c * c),
        };
        // User-coherent initialization: every item of a user starts in one
        // random community. A per-item random start tends to fall into the
        // "communities = topics" mode, splitting multi-topic users across
        // communities; starting user-coherent biases the chain toward
        // user-level block structure, which is the model's intent.
        let user_comm: Vec<u32> = (0..u).map(|_| rng.gen_range(0..c) as u32).collect();
        for d in 0..posts.len() {
            state.post_comm[d] = user_comm[posts.authors[d] as usize];
            state.post_topic[d] = rng.gen_range(0..k) as u32;
            state.add_post(d, posts);
        }
        for e in 0..state.links.len() {
            let (i, j) = state.links[e];
            state.link_src_comm[e] = user_comm[i as usize];
            state.link_dst_comm[e] = user_comm[j as usize];
            state.add_link(e);
        }
        for e in 0..state.neg_links.len() {
            let (i, j) = state.neg_links[e];
            state.neg_src_comm[e] = user_comm[i as usize];
            state.neg_dst_comm[e] = user_comm[j as usize];
            state.add_neg_link(e);
        }
        // Occupancy is only meaningful once everything is counted in, so
        // backends are selected last.
        state.select_storage(config.counter_storage);
        state
    }

    /// Re-pick each family's storage backend per `policy`. `Auto` measures
    /// occupancy and goes sparse only where that saves ≥ 4× (see
    /// [`CounterStore::auto_prefers_sparse`]); `Dense`/`Sparse` force one
    /// backend everywhere. Idempotent, and safe at any quiescent point
    /// (init, resume, before a benchmark) — cell values never change.
    pub fn select_storage(&mut self, policy: CounterStorage) {
        for (_, store) in self.families_mut() {
            let sparse = match policy {
                CounterStorage::Dense => false,
                CounterStorage::Sparse => true,
                CounterStorage::Auto => CounterStore::auto_prefers_sparse(store.len(), store.nnz()),
            };
            if sparse {
                store.make_sparse();
            } else {
                store.make_dense();
            }
        }
    }

    /// The eleven counter families with their [`COUNTER_FAMILIES`] names.
    pub fn families(&self) -> [(&'static str, &CounterStore); 11] {
        [
            ("n_ic", &self.n_ic),
            ("n_i", &self.n_i),
            ("n_ck", &self.n_ck),
            ("n_c", &self.n_c),
            ("n_ckt", &self.n_ckt),
            ("n_kv", &self.n_kv),
            ("n_vk", &self.n_vk),
            ("n_k", &self.n_k),
            ("n_post_k", &self.n_post_k),
            ("n_cc", &self.n_cc),
            ("n0_cc", &self.n0_cc),
        ]
    }

    fn families_mut(&mut self) -> [(&'static str, &mut CounterStore); 11] {
        [
            ("n_ic", &mut self.n_ic),
            ("n_i", &mut self.n_i),
            ("n_ck", &mut self.n_ck),
            ("n_c", &mut self.n_c),
            ("n_ckt", &mut self.n_ckt),
            ("n_kv", &mut self.n_kv),
            ("n_vk", &mut self.n_vk),
            ("n_k", &mut self.n_k),
            ("n_post_k", &mut self.n_post_k),
            ("n_cc", &mut self.n_cc),
            ("n0_cc", &mut self.n0_cc),
        ]
    }

    /// Total heap bytes held by all counter families under their current
    /// backends.
    pub fn counter_heap_bytes(&self) -> usize {
        self.families().iter().map(|(_, s)| s.heap_bytes()).sum()
    }

    /// Publish `state.bytes.<family>` / `state.occupancy.<family>` gauges
    /// plus the `state.bytes.total` roll-up to `metrics`.
    pub fn publish_storage_gauges(&self, metrics: &cold_obs::Metrics) {
        if !metrics.is_enabled() {
            return;
        }
        for (name, store) in self.families() {
            metrics.gauge_set(&format!("state.bytes.{name}"), store.heap_bytes() as f64);
            metrics.gauge_set(&format!("state.occupancy.{name}"), store.occupancy());
        }
        metrics.gauge_set("state.bytes.total", self.counter_heap_bytes() as f64);
    }

    /// Row index into the time counter for community `c` (collapses to 0 in
    /// shared-temporal mode).
    #[inline]
    pub fn time_row(&self, community: usize) -> usize {
        if self.time_comm_rows == 1 {
            0
        } else {
            community
        }
    }

    /// Index into `n_ckt`.
    #[inline]
    pub fn ckt_index(&self, community: usize, topic: usize, time: usize) -> usize {
        (self.time_row(community) * self.num_topics + topic) * self.num_time_slices + time
    }

    /// Add post `d`'s current assignment to all counters.
    pub fn add_post(&mut self, d: usize, posts: &PostsView) {
        self.apply_post(d, posts, true);
    }

    /// Remove post `d`'s current assignment from all counters.
    pub fn remove_post(&mut self, d: usize, posts: &PostsView) {
        self.apply_post(d, posts, false);
    }

    fn apply_post(&mut self, d: usize, posts: &PostsView, add: bool) {
        let i = posts.authors[d] as usize;
        let t = posts.times[d] as usize;
        let c = self.post_comm[d] as usize;
        let k = self.post_topic[d] as usize;
        let ckt = self.ckt_index(c, k, t);
        if add {
            self.n_ic.inc(i * self.num_communities + c);
            self.n_i.inc(i);
            self.n_ck.inc(c * self.num_topics + k);
            self.n_c.inc(c);
            self.n_ckt.inc(ckt);
            for &(w, cnt) in &posts.multisets[d] {
                self.n_kv.add_u32(k * self.vocab_size + w as usize, cnt);
                self.n_vk.add_u32(w as usize * self.num_topics + k, cnt);
            }
            self.n_k.add_u32(k, posts.lens[d]);
            self.n_post_k.inc(k);
        } else {
            self.n_ic.dec(i * self.num_communities + c);
            self.n_i.dec(i);
            self.n_ck.dec(c * self.num_topics + k);
            self.n_c.dec(c);
            self.n_ckt.dec(ckt);
            for &(w, cnt) in &posts.multisets[d] {
                self.n_kv.sub_u32(k * self.vocab_size + w as usize, cnt);
                self.n_vk.sub_u32(w as usize * self.num_topics + k, cnt);
            }
            self.n_k.sub_u32(k, posts.lens[d]);
            self.n_post_k.dec(k);
        }
    }

    /// Add link `e`'s current endpoint-community assignment.
    pub fn add_link(&mut self, e: usize) {
        self.apply_link(e, true);
    }

    /// Remove link `e`'s current endpoint-community assignment.
    pub fn remove_link(&mut self, e: usize) {
        self.apply_link(e, false);
    }

    /// Add negative pair `e`'s endpoint-community assignment.
    pub fn add_neg_link(&mut self, e: usize) {
        self.apply_neg_link(e, true);
    }

    /// Remove negative pair `e`'s endpoint-community assignment.
    pub fn remove_neg_link(&mut self, e: usize) {
        self.apply_neg_link(e, false);
    }

    fn apply_neg_link(&mut self, e: usize, add: bool) {
        let (i, j) = self.neg_links[e];
        let s = self.neg_src_comm[e] as usize;
        let s2 = self.neg_dst_comm[e] as usize;
        let c = self.num_communities;
        if add {
            self.n_ic.inc(i as usize * c + s);
            self.n_i.inc(i as usize);
            self.n_ic.inc(j as usize * c + s2);
            self.n_i.inc(j as usize);
            self.n0_cc.inc(s * c + s2);
        } else {
            self.n_ic.dec(i as usize * c + s);
            self.n_i.dec(i as usize);
            self.n_ic.dec(j as usize * c + s2);
            self.n_i.dec(j as usize);
            self.n0_cc.dec(s * c + s2);
        }
    }

    fn apply_link(&mut self, e: usize, add: bool) {
        let (i, j) = self.links[e];
        let s = self.link_src_comm[e] as usize;
        let s2 = self.link_dst_comm[e] as usize;
        let c = self.num_communities;
        if add {
            self.n_ic.inc(i as usize * c + s);
            self.n_i.inc(i as usize);
            self.n_ic.inc(j as usize * c + s2);
            self.n_i.inc(j as usize);
            self.n_cc.inc(s * c + s2);
        } else {
            self.n_ic.dec(i as usize * c + s);
            self.n_i.dec(i as usize);
            self.n_ic.dec(j as usize * c + s2);
            self.n_i.dec(j as usize);
            self.n_cc.dec(s * c + s2);
        }
    }

    /// Apply a sparse [`CountDelta`] (counters *and* assignments) produced
    /// by another replica's superstep. Equivalent to replaying that
    /// replica's mutations here.
    pub fn apply_delta(&mut self, delta: &CountDelta) {
        delta.apply_counters(self);
        delta.apply_assignments(self);
    }

    /// Recompute every counter from scratch and compare with the maintained
    /// values. Used by tests to prove the O(1) incremental updates never
    /// drift from the definition.
    pub fn check_consistency(&self, posts: &PostsView) -> Result<(), String> {
        let mut fresh = Self {
            post_comm: self.post_comm.clone(),
            post_topic: self.post_topic.clone(),
            link_src_comm: self.link_src_comm.clone(),
            link_dst_comm: self.link_dst_comm.clone(),
            links: self.links.clone(),
            neg_links: self.neg_links.clone(),
            neg_src_comm: self.neg_src_comm.clone(),
            neg_dst_comm: self.neg_dst_comm.clone(),
            n_ic: CounterStore::dense(self.n_ic.len()),
            n_i: CounterStore::dense(self.n_i.len()),
            n_ck: CounterStore::dense(self.n_ck.len()),
            n_c: CounterStore::dense(self.n_c.len()),
            n_ckt: CounterStore::dense(self.n_ckt.len()),
            n_kv: CounterStore::dense(self.n_kv.len()),
            n_vk: CounterStore::dense(self.n_vk.len()),
            n_k: CounterStore::dense(self.n_k.len()),
            n_post_k: CounterStore::dense(self.n_post_k.len()),
            n_cc: CounterStore::dense(self.n_cc.len()),
            n0_cc: CounterStore::dense(self.n0_cc.len()),
            ..*self
        };
        for d in 0..posts.len() {
            fresh.add_post(d, posts);
        }
        for e in 0..fresh.links.len() {
            fresh.add_link(e);
        }
        for e in 0..fresh.neg_links.len() {
            fresh.add_neg_link(e);
        }
        for (name, a, b) in [
            ("n_ic", &self.n_ic, &fresh.n_ic),
            ("n_i", &self.n_i, &fresh.n_i),
            ("n_ck", &self.n_ck, &fresh.n_ck),
            ("n_c", &self.n_c, &fresh.n_c),
            ("n_ckt", &self.n_ckt, &fresh.n_ckt),
            ("n_kv", &self.n_kv, &fresh.n_kv),
            ("n_vk", &self.n_vk, &fresh.n_vk),
            ("n_k", &self.n_k, &fresh.n_k),
            ("n_post_k", &self.n_post_k, &fresh.n_post_k),
            ("n_cc", &self.n_cc, &fresh.n_cc),
            ("n0_cc", &self.n0_cc, &fresh.n0_cc),
        ] {
            if a != b {
                return Err(format!("counter {name} drifted from definition"));
            }
        }
        Ok(())
    }
}

/// Sparse summary of the counter and assignment changes one shard made
/// during a superstep: per counter family the net-changed `(index, ±delta)`
/// cells (an item that lands back on its old assignment contributes
/// nothing), plus the owned assignment entries that changed. This is what
/// a distributed deployment puts on the wire at the barrier (`cold-delta/v1`,
/// see [`CountDelta::encode`]) and what the in-process engine applies to
/// the authoritative state and to the other shards' replicas.
///
/// Only the nine *independent* families are carried. The word-major mirror
/// `n_vk` and the posts-per-topic sum `n_post_k` are derived from the
/// `n_kv` / `n_ck` cells at apply time, so they cost no wire bytes and can
/// never fall out of lock-step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CountDelta {
    /// `n_i^(c)` cells (`U×C` indexing).
    pub n_ic: Vec<(u32, i32)>,
    /// `n_i^(·)` cells.
    pub n_i: Vec<(u32, i32)>,
    /// `n_c^(k)` cells (`C×K` indexing).
    pub n_ck: Vec<(u32, i32)>,
    /// `n_c^(·)` cells.
    pub n_c: Vec<(u32, i32)>,
    /// `n_ck^(t)` cells (`time_comm_rows×K×T` indexing).
    pub n_ckt: Vec<(u32, i32)>,
    /// `n_k^(v)` cells (`K×V` indexing).
    pub n_kv: Vec<(u32, i32)>,
    /// `n_k^(·)` cells.
    pub n_k: Vec<(u32, i32)>,
    /// `n_cc'` cells (`C×C` indexing).
    pub n_cc: Vec<(u32, i32)>,
    /// Negative-pair `n0_cc'` cells (`C×C` indexing).
    pub n0_cc: Vec<(u32, i32)>,
    /// Changed post assignments `(d, c_ij, z_ij)`.
    pub post_assign: Vec<(u32, u32, u32)>,
    /// Changed link assignments `(e, s_ii', s'_ii')`.
    pub link_assign: Vec<(u32, u32, u32)>,
    /// Changed negative-pair assignments `(e, s, s')`.
    pub neg_assign: Vec<(u32, u32, u32)>,
}

/// Wire magic of the `cold-delta/v1` format.
const DELTA_MAGIC: u32 = 0xC01D_DE17;

impl CountDelta {
    /// Whether the delta carries no changes at all.
    pub fn is_empty(&self) -> bool {
        self.cells() == 0
            && self.post_assign.is_empty()
            && self.link_assign.is_empty()
            && self.neg_assign.is_empty()
    }

    /// Total touched counter cells across all nine families.
    pub fn cells(&self) -> u64 {
        (self.n_ic.len()
            + self.n_i.len()
            + self.n_ck.len()
            + self.n_c.len()
            + self.n_ckt.len()
            + self.n_kv.len()
            + self.n_k.len()
            + self.n_cc.len()
            + self.n0_cc.len()) as u64
    }

    /// Apply the counter cells (including the derived `n_vk` / `n_post_k`
    /// mirrors) to `state`. Pure integer addition, so applying several
    /// shards' deltas commutes cell-exactly in any order.
    pub fn apply_counters(&self, state: &mut CountState) {
        for (cells, dst) in [
            (&self.n_ic, &mut state.n_ic),
            (&self.n_i, &mut state.n_i),
            (&self.n_ck, &mut state.n_ck),
            (&self.n_c, &mut state.n_c),
            (&self.n_ckt, &mut state.n_ckt),
            (&self.n_kv, &mut state.n_kv),
            (&self.n_k, &mut state.n_k),
            (&self.n_cc, &mut state.n_cc),
            (&self.n0_cc, &mut state.n0_cc),
        ] {
            for &(idx, d) in cells {
                dst.add_i64(idx as usize, i64::from(d));
            }
        }
        // Derived mirrors: the transpose of each n_kv cell and the
        // per-topic column sum of each n_ck cell.
        let kdim = state.num_topics;
        let vdim = state.vocab_size;
        for &(idx, d) in &self.n_kv {
            let (k, w) = (idx as usize / vdim, idx as usize % vdim);
            state.n_vk.add_i64(w * kdim + k, i64::from(d));
        }
        for &(idx, d) in &self.n_ck {
            state.n_post_k.add_i64(idx as usize % kdim, i64::from(d));
        }
    }

    /// Overwrite the assignment entries carried by this delta.
    pub fn apply_assignments(&self, state: &mut CountState) {
        for &(d, c, k) in &self.post_assign {
            state.post_comm[d as usize] = c;
            state.post_topic[d as usize] = k;
        }
        for &(e, s, s2) in &self.link_assign {
            state.link_src_comm[e as usize] = s;
            state.link_dst_comm[e as usize] = s2;
        }
        for &(e, s, s2) in &self.neg_assign {
            state.neg_src_comm[e as usize] = s;
            state.neg_dst_comm[e as usize] = s2;
        }
    }

    /// Fold `other` into `self` so that applying the merged delta equals
    /// applying `self` then `other` (cells coalesce by addition, dropping
    /// zeros; assignments take the later write per item).
    pub fn merge(&mut self, other: &CountDelta) {
        fn merge_cells(a: &mut Vec<(u32, i32)>, b: &[(u32, i32)]) {
            let mut acc = std::collections::BTreeMap::new();
            for &(idx, d) in a.iter().chain(b) {
                *acc.entry(idx).or_insert(0i64) += d as i64;
            }
            *a = acc
                .into_iter()
                .filter(|&(_, d)| d != 0)
                .map(|(idx, d)| (idx, d as i32))
                .collect();
        }
        fn merge_assign(a: &mut Vec<(u32, u32, u32)>, b: &[(u32, u32, u32)]) {
            let mut acc = std::collections::BTreeMap::new();
            for &(item, x, y) in a.iter().chain(b) {
                acc.insert(item, (x, y));
            }
            *a = acc.into_iter().map(|(item, (x, y))| (item, x, y)).collect();
        }
        merge_cells(&mut self.n_ic, &other.n_ic);
        merge_cells(&mut self.n_i, &other.n_i);
        merge_cells(&mut self.n_ck, &other.n_ck);
        merge_cells(&mut self.n_c, &other.n_c);
        merge_cells(&mut self.n_ckt, &other.n_ckt);
        merge_cells(&mut self.n_kv, &other.n_kv);
        merge_cells(&mut self.n_k, &other.n_k);
        merge_cells(&mut self.n_cc, &other.n_cc);
        merge_cells(&mut self.n0_cc, &other.n0_cc);
        merge_assign(&mut self.post_assign, &other.post_assign);
        merge_assign(&mut self.link_assign, &other.link_assign);
        merge_assign(&mut self.neg_assign, &other.neg_assign);
    }

    /// Exact byte length of [`encode`](Self::encode)'s output: a 4-byte
    /// magic, a 4-byte count per family, 8 bytes per counter cell and 12
    /// per assignment entry. The engine reports this as the superstep's
    /// true `sync_bytes`.
    pub fn encoded_len(&self) -> u64 {
        4 + 12 * 4
            + 8 * self.cells()
            + 12 * (self.post_assign.len() + self.link_assign.len() + self.neg_assign.len()) as u64
    }

    /// Serialize as `cold-delta/v1`: little-endian magic, then the nine
    /// counter families in declaration order (`u32` count, then
    /// `(u32 index, i32 delta)` pairs), then the three assignment families
    /// (`u32` count, then `(u32 item, u32, u32)` triples).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len() as usize);
        out.extend_from_slice(&DELTA_MAGIC.to_le_bytes());
        for cells in self.cell_families() {
            out.extend_from_slice(&(cells.len() as u32).to_le_bytes());
            for &(idx, d) in cells {
                out.extend_from_slice(&idx.to_le_bytes());
                out.extend_from_slice(&d.to_le_bytes());
            }
        }
        for entries in [&self.post_assign, &self.link_assign, &self.neg_assign] {
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for &(item, x, y) in entries {
                out.extend_from_slice(&item.to_le_bytes());
                out.extend_from_slice(&x.to_le_bytes());
                out.extend_from_slice(&y.to_le_bytes());
            }
        }
        debug_assert_eq!(out.len() as u64, self.encoded_len());
        out
    }

    /// The nine counter families in wire order.
    fn cell_families(&self) -> [&Vec<(u32, i32)>; 9] {
        [
            &self.n_ic,
            &self.n_i,
            &self.n_ck,
            &self.n_c,
            &self.n_ckt,
            &self.n_kv,
            &self.n_k,
            &self.n_cc,
            &self.n0_cc,
        ]
    }
}

/// One counter family of a [`DeltaAcc`]. The dense variant is an
/// accumulator with an epoch stamp per cell, so clearing between
/// supersteps is O(touched) instead of O(family size); the sparse
/// variant (used when the family itself is sparse, so a dense 8-byte
/// per-cell accumulator would dwarf the store it shadows) keeps only
/// the touched entries in a hash map. Both drain the coalesced
/// non-zero cells in **first-touch order**, which keeps the engine's
/// delta wire bytes and merge order backend-independent.
enum FamAcc {
    Dense {
        acc: Vec<i32>,
        stamp: Vec<u32>,
        touched: Vec<u32>,
    },
    Sparse {
        /// Cell index → position in `entries`.
        slots: std::collections::HashMap<u32, u32>,
        /// `(idx, accumulated delta)` in first-touch order.
        entries: Vec<(u32, i32)>,
    },
}

impl FamAcc {
    /// An accumulator sized/shaped for `store`.
    fn for_store(store: &CounterStore) -> Self {
        if store.is_sparse() {
            FamAcc::Sparse {
                slots: std::collections::HashMap::new(),
                entries: Vec::new(),
            }
        } else {
            FamAcc::Dense {
                acc: vec![0; store.len()],
                stamp: vec![0; store.len()],
                touched: Vec::new(),
            }
        }
    }

    #[inline]
    fn add(&mut self, epoch: u32, idx: usize, delta: i32) {
        match self {
            FamAcc::Dense {
                acc,
                stamp,
                touched,
            } => {
                if stamp[idx] != epoch {
                    stamp[idx] = epoch;
                    acc[idx] = 0;
                    touched.push(idx as u32);
                }
                acc[idx] += delta;
            }
            FamAcc::Sparse { slots, entries } => {
                let pos = *slots.entry(idx as u32).or_insert_with(|| {
                    entries.push((idx as u32, 0));
                    (entries.len() - 1) as u32
                });
                entries[pos as usize].1 += delta;
            }
        }
    }

    /// Emit the non-zero cells in first-touch order and reset.
    fn drain(&mut self) -> Vec<(u32, i32)> {
        match self {
            FamAcc::Dense { acc, touched, .. } => {
                let mut out = Vec::with_capacity(touched.len());
                for &idx in touched.iter() {
                    let d = acc[idx as usize];
                    if d != 0 {
                        out.push((idx, d));
                    }
                }
                touched.clear();
                out
            }
            FamAcc::Sparse { slots, entries } => {
                slots.clear();
                let mut out = std::mem::take(entries);
                out.retain(|&(_, d)| d != 0);
                out
            }
        }
    }

    /// Clear dense epoch stamps on wrap-around (no-op for sparse).
    fn reset_stamps(&mut self) {
        if let FamAcc::Dense { stamp, .. } = self {
            stamp.fill(0);
        }
    }
}

/// Sparse delta accumulator: the write-side counterpart of [`CountDelta`].
/// The sampler records the same `±` updates it applies to its own replica;
/// [`DeltaAcc::drain`] then emits the coalesced net change of the
/// superstep. Reused across supersteps — draining bumps an epoch instead
/// of clearing the dense buffers.
pub struct DeltaAcc {
    epoch: u32,
    n_ic: FamAcc,
    n_i: FamAcc,
    n_ck: FamAcc,
    n_c: FamAcc,
    n_ckt: FamAcc,
    n_kv: FamAcc,
    n_k: FamAcc,
    n_cc: FamAcc,
    n0_cc: FamAcc,
    post_assign: Vec<(u32, u32, u32)>,
    link_assign: Vec<(u32, u32, u32)>,
    neg_assign: Vec<(u32, u32, u32)>,
}

impl DeltaAcc {
    /// An accumulator sized for `state`'s counter families.
    pub fn for_state(state: &CountState) -> Self {
        Self {
            epoch: 1,
            n_ic: FamAcc::for_store(&state.n_ic),
            n_i: FamAcc::for_store(&state.n_i),
            n_ck: FamAcc::for_store(&state.n_ck),
            n_c: FamAcc::for_store(&state.n_c),
            n_ckt: FamAcc::for_store(&state.n_ckt),
            n_kv: FamAcc::for_store(&state.n_kv),
            n_k: FamAcc::for_store(&state.n_k),
            n_cc: FamAcc::for_store(&state.n_cc),
            n0_cc: FamAcc::for_store(&state.n0_cc),
            post_assign: Vec::new(),
            link_assign: Vec::new(),
            neg_assign: Vec::new(),
        }
    }

    /// Record post `d`'s *current* assignment with weight `sign` (−1
    /// before a removal, +1 after the new assignment is written). Mirrors
    /// `CountState::apply_post`, minus the derived mirrors.
    pub fn record_post(&mut self, state: &CountState, posts: &PostsView, d: usize, sign: i32) {
        let i = posts.authors[d] as usize;
        let t = posts.times[d] as usize;
        let c = state.post_comm[d] as usize;
        let k = state.post_topic[d] as usize;
        let e = self.epoch;
        self.n_ic.add(e, i * state.num_communities + c, sign);
        self.n_i.add(e, i, sign);
        self.n_ck.add(e, c * state.num_topics + k, sign);
        self.n_c.add(e, c, sign);
        self.n_ckt.add(e, state.ckt_index(c, k, t), sign);
        for &(w, cnt) in &posts.multisets[d] {
            self.n_kv
                .add(e, k * state.vocab_size + w as usize, sign * cnt as i32);
        }
        self.n_k.add(e, k, sign * posts.lens[d] as i32);
    }

    /// Record link `e`'s current endpoint assignment with weight `sign`.
    pub fn record_link(&mut self, state: &CountState, e: usize, sign: i32) {
        let (i, j) = state.links[e];
        let s = state.link_src_comm[e] as usize;
        let s2 = state.link_dst_comm[e] as usize;
        let c = state.num_communities;
        let ep = self.epoch;
        self.n_ic.add(ep, i as usize * c + s, sign);
        self.n_i.add(ep, i as usize, sign);
        self.n_ic.add(ep, j as usize * c + s2, sign);
        self.n_i.add(ep, j as usize, sign);
        self.n_cc.add(ep, s * c + s2, sign);
    }

    /// Record negative pair `e`'s current endpoint assignment with `sign`.
    pub fn record_neg_link(&mut self, state: &CountState, e: usize, sign: i32) {
        let (i, j) = state.neg_links[e];
        let s = state.neg_src_comm[e] as usize;
        let s2 = state.neg_dst_comm[e] as usize;
        let c = state.num_communities;
        let ep = self.epoch;
        self.n_ic.add(ep, i as usize * c + s, sign);
        self.n_i.add(ep, i as usize, sign);
        self.n_ic.add(ep, j as usize * c + s2, sign);
        self.n_i.add(ep, j as usize, sign);
        self.n0_cc.add(ep, s * c + s2, sign);
    }

    /// Note that post `d`'s assignment changed to `(comm, topic)`.
    pub fn note_post_assign(&mut self, d: usize, comm: u32, topic: u32) {
        self.post_assign.push((d as u32, comm, topic));
    }

    /// Note that link `e`'s assignment changed to `(src, dst)`.
    pub fn note_link_assign(&mut self, e: usize, src: u32, dst: u32) {
        self.link_assign.push((e as u32, src, dst));
    }

    /// Note that negative pair `e`'s assignment changed to `(src, dst)`.
    pub fn note_neg_assign(&mut self, e: usize, src: u32, dst: u32) {
        self.neg_assign.push((e as u32, src, dst));
    }

    /// Emit everything recorded since the last drain as a [`CountDelta`]
    /// and reset for the next superstep.
    pub fn drain(&mut self) -> CountDelta {
        let delta = CountDelta {
            n_ic: self.n_ic.drain(),
            n_i: self.n_i.drain(),
            n_ck: self.n_ck.drain(),
            n_c: self.n_c.drain(),
            n_ckt: self.n_ckt.drain(),
            n_kv: self.n_kv.drain(),
            n_k: self.n_k.drain(),
            n_cc: self.n_cc.drain(),
            n0_cc: self.n0_cc.drain(),
            post_assign: std::mem::take(&mut self.post_assign),
            link_assign: std::mem::take(&mut self.link_assign),
            neg_assign: std::mem::take(&mut self.neg_assign),
        };
        if self.epoch == u32::MAX {
            // Stamp wrap-around: reset so no stale cell can alias epoch 1.
            for fam in [
                &mut self.n_ic,
                &mut self.n_i,
                &mut self.n_ck,
                &mut self.n_c,
                &mut self.n_ckt,
                &mut self.n_kv,
                &mut self.n_k,
                &mut self.n_cc,
                &mut self.n0_cc,
            ] {
                fam.reset_stamps();
            }
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ColdConfig;
    use cold_math::rng::seeded_rng;
    use cold_text::CorpusBuilder;

    fn setup() -> (Corpus, CsrGraph, ColdConfig) {
        let mut b = CorpusBuilder::new();
        b.push_text(0, 0, &["a", "b", "a"]);
        b.push_text(1, 1, &["c", "d"]);
        b.push_text(2, 2, &["a", "c"]);
        b.push_text(0, 1, &["d"]);
        let corpus = b.build();
        let graph = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0), (0, 2)]);
        let config = ColdConfig::builder(3, 2)
            .iterations(4)
            .build(&corpus, &graph);
        (corpus, graph, config)
    }

    #[test]
    fn random_init_is_consistent() {
        let (corpus, graph, config) = setup();
        let posts = PostsView::from_corpus(&corpus);
        let mut rng = seeded_rng(1);
        let state = CountState::init_random(&config, &posts, &graph, &mut rng);
        state.check_consistency(&posts).unwrap();
        // Totals: 4 posts, 4 links -> Σ n_i = 4 + 2*4 = 12.
        assert_eq!(state.n_i.iter().sum::<u32>(), 12);
        assert_eq!(state.n_c.iter().sum::<u32>(), 4);
        assert_eq!(state.n_k.iter().sum::<u32>(), 8); // 8 tokens
        assert_eq!(state.n_cc.iter().sum::<u32>(), 4);
    }

    #[test]
    fn add_remove_round_trips() {
        let (corpus, graph, config) = setup();
        let posts = PostsView::from_corpus(&corpus);
        let mut rng = seeded_rng(2);
        let mut state = CountState::init_random(&config, &posts, &graph, &mut rng);
        let snapshot = state.clone();
        // Remove and re-add a post with a different assignment, then revert.
        state.remove_post(2, &posts);
        let old = (state.post_comm[2], state.post_topic[2]);
        state.post_comm[2] = (old.0 + 1) % 3;
        state.post_topic[2] = (old.1 + 1) % 2;
        state.add_post(2, &posts);
        state.check_consistency(&posts).unwrap();
        state.remove_post(2, &posts);
        state.post_comm[2] = old.0;
        state.post_topic[2] = old.1;
        state.add_post(2, &posts);
        assert_eq!(state.n_ic, snapshot.n_ic);
        assert_eq!(state.n_ckt, snapshot.n_ckt);
        assert_eq!(state.n_kv, snapshot.n_kv);
    }

    #[test]
    fn link_updates_touch_both_endpoints() {
        let (corpus, graph, config) = setup();
        let posts = PostsView::from_corpus(&corpus);
        let mut rng = seeded_rng(3);
        let mut state = CountState::init_random(&config, &posts, &graph, &mut rng);
        let (i, j) = state.links[0];
        let before_i = state.n_i[i as usize];
        let before_j = state.n_i[j as usize];
        state.remove_link(0);
        assert_eq!(state.n_i[i as usize], before_i - 1);
        assert_eq!(state.n_i[j as usize], before_j - 1);
        state.add_link(0);
        state.check_consistency(&posts).unwrap();
    }

    #[test]
    fn nolink_config_has_no_link_state() {
        let (corpus, graph, _) = setup();
        let config = ColdConfig::builder(3, 2)
            .iterations(4)
            .without_links()
            .build(&corpus, &graph);
        let posts = PostsView::from_corpus(&corpus);
        let mut rng = seeded_rng(4);
        let state = CountState::init_random(&config, &posts, &graph, &mut rng);
        assert!(state.links.is_empty());
        assert_eq!(state.n_cc.iter().sum::<u32>(), 0);
        assert_eq!(state.n_i.iter().sum::<u32>(), 4); // posts only
    }

    /// Accumulate a handful of reassignments through a `DeltaAcc`, apply
    /// the drained delta to a pristine copy of the base state, and compare
    /// with the directly-mutated state — counters (including the derived
    /// mirrors) and assignments must match exactly.
    #[test]
    fn delta_accumulate_then_apply_equals_direct_mutation() {
        let (corpus, graph, config) = setup();
        let posts = PostsView::from_corpus(&corpus);
        let mut rng = seeded_rng(11);
        let base = CountState::init_random(&config, &posts, &graph, &mut rng);
        let mut live = base.clone();
        let mut acc = DeltaAcc::for_state(&live);
        // Reassign every post and link once, recording each flip.
        for d in 0..posts.len() {
            acc.record_post(&live, &posts, d, -1);
            live.remove_post(d, &posts);
            let (c, k) = ((live.post_comm[d] + 1) % 3, (live.post_topic[d] + 1) % 2);
            live.post_comm[d] = c;
            live.post_topic[d] = k;
            acc.record_post(&live, &posts, d, 1);
            acc.note_post_assign(d, c, k);
            live.add_post(d, &posts);
        }
        for e in 0..live.links.len() {
            acc.record_link(&live, e, -1);
            live.remove_link(e);
            let (s, s2) = ((live.link_src_comm[e] + 2) % 3, live.link_dst_comm[e]);
            live.link_src_comm[e] = s;
            acc.record_link(&live, e, 1);
            acc.note_link_assign(e, s, s2);
            live.add_link(e);
        }
        let delta = acc.drain();
        assert!(!delta.is_empty());
        let mut replayed = base.clone();
        replayed.apply_delta(&delta);
        assert_eq!(replayed, live);
        replayed.check_consistency(&posts).unwrap();
        // A second drain with no recordings is empty (epoch advanced).
        assert!(acc.drain().is_empty());
    }

    /// A post resampled back onto its old assignment coalesces to nothing.
    #[test]
    fn unchanged_reassignment_produces_empty_delta() {
        let (corpus, graph, config) = setup();
        let posts = PostsView::from_corpus(&corpus);
        let mut rng = seeded_rng(12);
        let mut state = CountState::init_random(&config, &posts, &graph, &mut rng);
        let mut acc = DeltaAcc::for_state(&state);
        acc.record_post(&state, &posts, 0, -1);
        state.remove_post(0, &posts);
        // ... the draw lands on the same (c, k) ...
        acc.record_post(&state, &posts, 0, 1);
        state.add_post(0, &posts);
        assert!(acc.drain().is_empty());
    }

    #[test]
    fn delta_encode_round_trips_and_len_matches() {
        let delta = CountDelta {
            n_ic: vec![(3, -2), (7, 2)],
            n_kv: vec![(0, 5), (9, -5)],
            n_k: vec![(1, 17)],
            post_assign: vec![(4, 1, 0)],
            link_assign: vec![(2, 0, 2)],
            ..CountDelta::default()
        };
        let bytes = delta.encode();
        assert_eq!(bytes.len() as u64, delta.encoded_len());
    }

    /// Merging two deltas equals applying them in sequence.
    #[test]
    fn delta_merge_composes_sequentially() {
        let a = CountDelta {
            n_ck: vec![(0, 1), (3, -1)],
            post_assign: vec![(0, 1, 1)],
            ..CountDelta::default()
        };
        let b = CountDelta {
            n_ck: vec![(3, 1), (5, 2)],
            post_assign: vec![(0, 2, 0), (1, 1, 0)],
            ..CountDelta::default()
        };
        let mut merged = a.clone();
        merged.merge(&b);
        // (3, −1) and (3, +1) cancel; the later assignment write wins.
        assert_eq!(merged.n_ck, vec![(0, 1), (5, 2)]);
        assert_eq!(merged.post_assign, vec![(0, 2, 0), (1, 1, 0)]);
    }

    #[test]
    fn shared_temporal_collapses_rows() {
        let (corpus, graph, _) = setup();
        let config = ColdConfig::builder(3, 2)
            .iterations(4)
            .shared_temporal()
            .build(&corpus, &graph);
        let posts = PostsView::from_corpus(&corpus);
        let mut rng = seeded_rng(5);
        let state = CountState::init_random(&config, &posts, &graph, &mut rng);
        assert_eq!(state.time_comm_rows, 1);
        assert_eq!(state.n_ckt.len(), 2 * 3); // K*T
        assert_eq!(state.ckt_index(2, 1, 1), 3 + 1);
        state.check_consistency(&posts).unwrap();
    }
}
