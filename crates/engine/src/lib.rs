//! GraphLab-substitute parallel inference engine.
//!
//! The paper parallelizes its collapsed Gibbs sampler on distributed
//! GraphLab (§4.3): the data is abstracted as a bipartite user/time-stamp
//! graph fused with the user–user network (Fig. 4), a vertex program in the
//! **gather–apply–scatter** (GAS) model maintains the counters and draws
//! new assignments (Alg. 2), and global counters — which live in the
//! low-dimensional latent spaces — are exchanged periodically.
//!
//! GraphLab itself is long unmaintained and a physical cluster is out of
//! scope, so this crate rebuilds the same execution model:
//!
//! * [`parallel`] — the COLD Gibbs sampler expressed as sharded supersteps
//!   with **stale global counters** folded at each barrier. This is the
//!   standard approximation (AD-LDA and every GraphLab-hosted collapsed
//!   sampler make it): within a superstep each shard samples against a
//!   snapshot plus its own updates; the barrier reconciles deltas. The
//!   GAS structure of Alg. 2 lives here directly: gather and apply run
//!   per shard inside a superstep, and the barrier merges and broadcasts.
//! * [`cluster`] — a deterministic cost model that converts the measured
//!   per-shard work and synchronized bytes into simulated cluster wall
//!   time, reproducing the load-balance and communication-volume behaviour
//!   of Fig. 13 on a single machine. Real threads still run the shards, so
//!   single-machine wall time is measured too.

pub mod cluster;
pub mod parallel;

pub use cluster::ClusterCostModel;
pub use parallel::{ParallelGibbs, ParallelStats};
