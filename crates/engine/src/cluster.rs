//! Deterministic cluster cost model.
//!
//! The paper's Fig. 13 measures training time on a physical GraphLab
//! cluster. This host has a single CPU core, so multi-node speedup cannot
//! be observed physically; instead the parallel sampler **meters** its work
//! (sampling operations per shard, counter bytes exchanged per barrier) and
//! this model converts the meters into simulated wall time:
//!
//! ```text
//! time = Σ_supersteps [ max_shard(ops_shard · per_op) + sync(bytes, nodes) ]
//! ```
//!
//! The two properties Fig. 13 demonstrates — linear scaling in data size
//! (13a) and ~1/N scaling in node count until synchronization dominates
//! (13b) — both fall out of the measured quantities, not of assumptions:
//! load balance determines `max_shard`, and the global counters' size (low-
//! dimensional latent spaces, §4.3) determines the sync term.

use serde::{Deserialize, Serialize};

/// Cost parameters of the simulated cluster, loosely calibrated to the
/// paper's hardware (2.4 GHz cores, commodity gigabit interconnect).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterCostModel {
    /// Seconds per sampling operation (one post ≈ one operation; one link
    /// ≈ one operation; includes the O(C) / O(C²) inner loops via the
    /// per-op weights below).
    pub seconds_per_post_op: f64,
    /// Seconds per link operation.
    pub seconds_per_link_op: f64,
    /// Interconnect throughput, bytes/second, for counter exchange.
    pub network_bytes_per_second: f64,
    /// Per-barrier fixed latency (seconds) — scales with node count as
    /// `latency · ln(nodes + 1)` (tree reduction).
    pub barrier_latency: f64,
}

impl Default for ClusterCostModel {
    fn default() -> Self {
        Self {
            seconds_per_post_op: 2.0e-6,
            seconds_per_link_op: 1.0e-6,
            network_bytes_per_second: 100.0e6,
            barrier_latency: 2.0e-3,
        }
    }
}

/// Work metered for one superstep.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SuperstepWork {
    /// Post-sampling operations per shard.
    pub post_ops: Vec<u64>,
    /// Link-sampling operations per shard.
    pub link_ops: Vec<u64>,
    /// Bytes of global counters exchanged at the barrier: the measured
    /// serialized size of the shards' `CountDelta`s. A single-shard
    /// superstep has no barrier and reports 0.
    pub sync_bytes: u64,
    /// Measured serialized delta bytes contributed by each shard at the
    /// barrier (empty for a single-shard superstep, which ships nothing).
    pub shard_sync_bytes: Vec<u64>,
}

impl ClusterCostModel {
    /// Simulated wall time of one superstep on `nodes` machines, with the
    /// shards distributed round-robin over the nodes. The sync term ships
    /// the superstep's `sync_bytes` to every node and adds the barrier
    /// latency; a single-shard superstep reports 0 bytes, so only the
    /// latency remains.
    pub fn superstep_seconds(&self, work: &SuperstepWork, nodes: usize) -> f64 {
        assert!(nodes >= 1);
        let shards = work.post_ops.len().max(work.link_ops.len());
        // Round-robin shard placement: node n executes shards n, n+nodes, …
        let mut node_time = vec![0.0f64; nodes];
        for s in 0..shards {
            let post = work.post_ops.get(s).copied().unwrap_or(0) as f64;
            let link = work.link_ops.get(s).copied().unwrap_or(0) as f64;
            node_time[s % nodes] +=
                post * self.seconds_per_post_op + link * self.seconds_per_link_op;
        }
        let compute = node_time.iter().copied().fold(0.0, f64::max);
        // Each node exchanges the global counters with the coordinator.
        let sync = work.sync_bytes as f64 * nodes as f64 / self.network_bytes_per_second
            + self.barrier_latency * ((nodes + 1) as f64).ln();
        compute + sync
    }

    /// Simulated total for a training run.
    pub fn total_seconds(&self, supersteps: &[SuperstepWork], nodes: usize) -> f64 {
        supersteps
            .iter()
            .map(|w| self.superstep_seconds(w, nodes))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balanced(shards: usize, ops: u64) -> SuperstepWork {
        SuperstepWork {
            post_ops: vec![ops; shards],
            link_ops: vec![ops / 2; shards],
            sync_bytes: 1_000_000,
            shard_sync_bytes: Vec::new(),
        }
    }

    #[test]
    fn more_nodes_reduce_compute_time() {
        let model = ClusterCostModel::default();
        let work = balanced(16, 1_000_000);
        let t1 = model.superstep_seconds(&work, 1);
        let t4 = model.superstep_seconds(&work, 4);
        let t16 = model.superstep_seconds(&work, 16);
        assert!(t4 < t1, "{t4} vs {t1}");
        assert!(t16 < t4, "{t16} vs {t4}");
        // Speedup is sublinear because of the sync term.
        assert!(t1 / t16 < 16.0);
        assert!(t1 / t4 > 2.0, "speedup {}", t1 / t4);
    }

    #[test]
    fn sync_dominates_at_high_node_counts() {
        let model = ClusterCostModel::default();
        // Tiny compute, so communication dominates quickly.
        let work = balanced(64, 100);
        let t2 = model.superstep_seconds(&work, 2);
        let t64 = model.superstep_seconds(&work, 64);
        assert!(t64 > t2, "sync should dominate: {t64} vs {t2}");
    }

    #[test]
    fn time_scales_linearly_with_work() {
        let model = ClusterCostModel::default();
        let small = balanced(4, 100_000);
        let big = balanced(4, 400_000);
        let ts = model.superstep_seconds(&small, 4);
        let tb = model.superstep_seconds(&big, 4);
        // Compute part scales 4×; sync is constant — ratio below 4 but well
        // above 1.
        assert!(tb > 2.0 * ts, "{tb} vs {ts}");
    }

    #[test]
    fn imbalanced_shards_bound_the_superstep() {
        let model = ClusterCostModel::default();
        let mut work = balanced(4, 100_000);
        work.post_ops[0] = 1_000_000; // straggler shard
        let balanced_t = model.superstep_seconds(&balanced(4, 100_000), 4);
        let straggler_t = model.superstep_seconds(&work, 4);
        assert!(straggler_t > 5.0 * balanced_t);
    }

    #[test]
    fn totals_accumulate() {
        let model = ClusterCostModel::default();
        let w = balanced(2, 1000);
        let one = model.superstep_seconds(&w, 2);
        let total = model.total_seconds(&[w.clone(), w], 2);
        assert!((total - 2.0 * one).abs() < 1e-12);
    }
}
