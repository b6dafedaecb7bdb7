//! Social interaction-network substrate for the COLD reproduction.
//!
//! The paper's Definition 1 models the input as a directed *interaction
//! network* `G = (U, E)` where a link `(i, i')` means information flowed
//! from user `i` to `i'` (e.g. `i'` retweeted `i`). This crate provides:
//!
//! * [`csr::CsrGraph`] — a compact compressed-sparse-row directed graph with
//!   both out- and in-adjacency, the storage every model in the workspace
//!   trains against.
//! * [`builder::GraphBuilder`] — incremental, deduplicating construction.
//! * [`sampling`] — positive/negative link sampling for the link-prediction
//!   evaluation (§6.2 of the paper holds out 20% of positives and 1% of
//!   negatives).
//! * [`stats`] — degree and density summaries used by dataset reports.

pub mod builder;
pub mod csr;
pub mod sampling;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;

/// A user identifier: dense indices `0..U`.
pub type UserId = u32;

/// A directed interaction link `(source, target)`: target consumed content
/// from source (e.g. target retweeted source).
pub type Link = (UserId, UserId);
