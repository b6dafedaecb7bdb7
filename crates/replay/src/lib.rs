//! Trace-replay verification for the delta-sync and checkpoint protocols.
//!
//! [`ReplayModel`] is a pure state machine (no I/O) that consumes a
//! `cold-trace/v1` event stream — as recorded by a trace-enabled
//! [`cold_obs::Metrics`] handle — and checks every event against the
//! protocol's preconditions plus a set of global invariants:
//!
//! - **Delta conservation**: within each `delta`-synced superstep, the
//!   per-family counter sums observed at the barrier equal the sums at
//!   superstep begin plus the nets announced by every shard (including the
//!   derived mirrors `n_vk` ← `n_kv` and `n_post_k` ← `n_ck`).
//! - **Apply-order determinism**: every announced delta is applied exactly
//!   once, in ascending shard order, within the superstep that announced
//!   it, with a byte digest matching its announcement.
//! - **Checkpoint monotonicity**: within a process segment, checkpoint
//!   writes advance strictly in sweep order past the resume point.
//! - **Retention safety**: retention never deletes the newest live
//!   (written, not removed, not corrupt) checkpoint.
//! - **Resume soundness**: a resume consumes exactly one prior load, the
//!   load targets a file that is neither retired nor known-corrupt, and
//!   the loaded bytes digest-match what was written.
//!
//! Crash/resume runs record one trace segment per process; chain the
//! segments (in order) into a single event slice before verifying, so the
//! model can carry checkpoint knowledge across the crash.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use cold_obs::trace::TraceEvent;

pub mod fault;
pub mod synth;

/// The nine counter families carried per shard inside a `CountDelta`.
pub const DELTA_FAMILIES: [&str; 9] = [
    "n_ic", "n_i", "n_ck", "n_c", "n_ckt", "n_kv", "n_k", "n_cc", "n0_cc",
];

/// All eleven counter families summed at superstep boundaries.
pub const STATE_FAMILIES: [&str; 11] = [
    "n_ic", "n_i", "n_ck", "n_c", "n_ckt", "n_kv", "n_vk", "n_k", "n_post_k", "n_cc", "n0_cc",
];

/// Mirror stores that are not shipped in deltas but must track a shipped
/// family exactly: `(mirror, source)`.
pub const DERIVED_FAMILIES: [(&str, &str); 2] = [("n_vk", "n_kv"), ("n_post_k", "n_ck")];

/// Most missing shards a `MissingDelta` violation names.
const MISSING_LISTED: usize = 8;

/// What a trace did wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Structurally bad event: missing/mistyped field, inconsistent
    /// summary, or unknown sync label.
    Malformed,
    /// An event kind the `cold-trace/v1` protocol does not define.
    UnknownEvent,
    /// An event arrived in a state that forbids it (superstep already
    /// open, checkpoint op inside a superstep, unconsumed load, …).
    UnexpectedEvent,
    /// A superstep boundary carries the wrong sweep number.
    EpochMismatch,
    /// The shard count changed mid-run without a resume.
    ShardMismatch,
    /// A delta event names a shard outside the partition.
    UnknownShard,
    /// A shard announced two deltas in one superstep.
    DuplicateDelta,
    /// A delta event carries a sweep number from a different (stale) epoch.
    StaleEpoch,
    /// An apply for a shard that never announced a delta this superstep.
    UnannouncedApply,
    /// A shard's delta was applied twice in one superstep.
    DuplicateApply,
    /// Applies departed from ascending shard order.
    ApplyOrder,
    /// A shard never announced a delta in a `delta`-synced superstep.
    MissingDelta,
    /// An announced delta was never applied before the barrier closed.
    UnappliedDelta,
    /// An apply's or load's digest does not match the recorded bytes.
    DigestMismatch,
    /// Per-family sums at the barrier do not equal begin + announced nets.
    Conservation,
    /// A checkpoint write did not advance past the segment's floor.
    CkptMonotonicity,
    /// Retention removed a checkpoint the trace never saw written (or
    /// removed one twice).
    RetentionUnknown,
    /// Retention removed the newest live checkpoint.
    RetentionNewest,
    /// A load targeted a checkpoint previously skipped as corrupt.
    CorruptLoad,
    /// A load targeted a checkpoint that retention had removed.
    RetiredLoad,
    /// A resume without a matching pending load.
    ResumeMismatch,
    /// The trace ended mid-superstep or with an unconsumed load.
    TruncatedTrace,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One rejected event, with the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Sequence number of the offending event (per-segment numbering).
    pub seq: u64,
    /// The invariant or precondition that failed.
    pub kind: ViolationKind,
    /// Human-readable evidence.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seq {}: {}: {}", self.seq, self.kind, self.detail)
    }
}

/// What a clean replay covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Report {
    /// Events consumed.
    pub events: usize,
    /// Completed supersteps (begin/end pairs).
    pub supersteps: usize,
    /// Shard delta announcements checked.
    pub deltas: usize,
    /// Delta applies checked.
    pub applies: usize,
    /// Checkpoint writes observed.
    pub checkpoints: usize,
    /// Checkpoint loads observed.
    pub loads: usize,
    /// Resumes observed.
    pub resumes: usize,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events: {} supersteps, {} deltas announced, {} applied, \
             {} checkpoints, {} loads, {} resumes",
            self.events,
            self.supersteps,
            self.deltas,
            self.applies,
            self.checkpoints,
            self.loads,
            self.resumes
        )
    }
}

struct DeltaSummary {
    digest: u64,
    nets: BTreeMap<String, i64>,
}

struct OpenSuperstep {
    sweep: u64,
    shards: u64,
    sync: String,
    begin_sums: BTreeMap<String, u64>,
    announced: BTreeMap<u64, DeltaSummary>,
    applied: BTreeSet<u64>,
    last_applied: Option<u64>,
}

/// The replay state machine. Feed events with [`ReplayModel::apply`]; the
/// first violation ends the replay. Call [`ReplayModel::finish`] after the
/// last event to check end-of-trace invariants and obtain the [`Report`].
#[derive(Default)]
pub struct ReplayModel {
    shards: Option<u64>,
    expected_sweep: Option<u64>,
    open: Option<OpenSuperstep>,
    /// Checkpoint digests by sweep, as written during the trace.
    written: BTreeMap<u64, u64>,
    removed: BTreeSet<u64>,
    corrupt: BTreeSet<u64>,
    /// Highest sweep durably written or resumed-from in the current
    /// process segment; writes must move strictly past it.
    segment_floor: Option<u64>,
    pending_load: Option<u64>,
    report: Report,
}

fn violation(ev: &TraceEvent, kind: ViolationKind, detail: impl Into<String>) -> Violation {
    Violation {
        seq: ev.seq,
        kind,
        detail: detail.into(),
    }
}

fn req_uint(ev: &TraceEvent, name: &str) -> Result<u64, Violation> {
    ev.uint(name).ok_or_else(|| {
        violation(
            ev,
            ViolationKind::Malformed,
            format!("{} missing uint field \"{name}\"", ev.kind),
        )
    })
}

fn req_int(ev: &TraceEvent, name: &str) -> Result<i64, Violation> {
    ev.int(name).ok_or_else(|| {
        violation(
            ev,
            ViolationKind::Malformed,
            format!("{} missing int field \"{name}\"", ev.kind),
        )
    })
}

fn req_hex(ev: &TraceEvent, name: &str) -> Result<u64, Violation> {
    ev.hex(name).ok_or_else(|| {
        violation(
            ev,
            ViolationKind::Malformed,
            format!("{} missing hex field \"{name}\"", ev.kind),
        )
    })
}

fn req_str<'e>(ev: &'e TraceEvent, name: &str) -> Result<&'e str, Violation> {
    ev.str_field(name).ok_or_else(|| {
        violation(
            ev,
            ViolationKind::Malformed,
            format!("{} missing string field \"{name}\"", ev.kind),
        )
    })
}

impl ReplayModel {
    /// A fresh model, expecting the first event of a trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume one event; `Err` means the trace violated the protocol.
    pub fn apply(&mut self, ev: &TraceEvent) -> Result<(), Violation> {
        self.report.events += 1;
        match ev.kind.as_str() {
            "superstep_begin" => self.superstep_begin(ev),
            "superstep_end" => self.superstep_end(ev),
            "shard_delta" => self.shard_delta(ev),
            "delta_apply" => self.delta_apply(ev),
            "ckpt_write" => self.ckpt_write(ev),
            "ckpt_retain" => self.ckpt_retain(ev),
            "ckpt_skip" => self.ckpt_skip(ev),
            "ckpt_load" => self.ckpt_load(ev),
            "resume" => self.resume(ev),
            other => Err(violation(
                ev,
                ViolationKind::UnknownEvent,
                format!("\"{other}\" is not a cold-trace/v1 event"),
            )),
        }
    }

    /// Check end-of-trace invariants and return the coverage report.
    pub fn finish(self) -> Result<Report, Violation> {
        if let Some(open) = &self.open {
            return Err(Violation {
                seq: u64::MAX,
                kind: ViolationKind::TruncatedTrace,
                detail: format!("trace ends inside superstep {}", open.sweep),
            });
        }
        if let Some(sweep) = self.pending_load {
            return Err(Violation {
                seq: u64::MAX,
                kind: ViolationKind::TruncatedTrace,
                detail: format!("checkpoint for sweep {sweep} loaded but never resumed"),
            });
        }
        Ok(self.report)
    }

    fn superstep_begin(&mut self, ev: &TraceEvent) -> Result<(), Violation> {
        if let Some(open) = &self.open {
            return Err(violation(
                ev,
                ViolationKind::UnexpectedEvent,
                format!("superstep {} is still open", open.sweep),
            ));
        }
        if let Some(pending) = self.pending_load {
            return Err(violation(
                ev,
                ViolationKind::UnexpectedEvent,
                format!("checkpoint load for sweep {pending} not consumed by a resume"),
            ));
        }
        let sweep = req_uint(ev, "sweep")?;
        let shards = req_uint(ev, "shards")?;
        let sync = req_str(ev, "sync")?.to_owned();
        if !matches!(sync.as_str(), "seq" | "delta") {
            return Err(violation(
                ev,
                ViolationKind::Malformed,
                format!("unknown sync mode \"{sync}\""),
            ));
        }
        if sweep == u64::MAX {
            return Err(violation(
                ev,
                ViolationKind::Malformed,
                "superstep_begin at sweep u64::MAX leaves no next sweep",
            ));
        }
        if let Some(expected) = self.expected_sweep {
            if sweep != expected {
                return Err(violation(
                    ev,
                    ViolationKind::EpochMismatch,
                    format!("superstep_begin sweep {sweep}, expected {expected}"),
                ));
            }
        }
        match self.shards {
            Some(known) if known != shards => {
                return Err(violation(
                    ev,
                    ViolationKind::ShardMismatch,
                    format!("shard count changed {known} -> {shards} without a resume"),
                ));
            }
            _ => self.shards = Some(shards),
        }
        let mut begin_sums = BTreeMap::new();
        for fam in STATE_FAMILIES {
            begin_sums.insert(fam.to_owned(), req_uint(ev, &format!("sum_{fam}"))?);
        }
        self.expected_sweep = Some(sweep);
        self.open = Some(OpenSuperstep {
            sweep,
            shards,
            sync,
            begin_sums,
            announced: BTreeMap::new(),
            applied: BTreeSet::new(),
            last_applied: None,
        });
        Ok(())
    }

    fn shard_delta(&mut self, ev: &TraceEvent) -> Result<(), Violation> {
        let sweep = req_uint(ev, "sweep")?;
        let shard = req_uint(ev, "shard")?;
        let cells = req_uint(ev, "cells")?;
        req_uint(ev, "bytes")?;
        let digest = req_hex(ev, "digest")?;
        let mut nets = BTreeMap::new();
        let mut cell_total = Some(0u64);
        for fam in DELTA_FAMILIES {
            let fam_cells = req_uint(ev, &format!("cells_{fam}"))?;
            cell_total = cell_total.and_then(|total| total.checked_add(fam_cells));
            nets.insert(fam.to_owned(), req_int(ev, &format!("net_{fam}"))?);
        }
        if cell_total != Some(cells) {
            return Err(violation(
                ev,
                ViolationKind::Malformed,
                match cell_total {
                    Some(total) => format!("per-family cells sum to {total}, summary says {cells}"),
                    None => "per-family cells overflow a 64-bit count".to_owned(),
                },
            ));
        }
        let open = self.open.as_mut().ok_or_else(|| {
            violation(
                ev,
                ViolationKind::UnexpectedEvent,
                "shard_delta outside any superstep",
            )
        })?;
        if open.sync != "delta" {
            return Err(violation(
                ev,
                ViolationKind::UnexpectedEvent,
                format!("shard_delta in a \"{}\"-synced superstep", open.sync),
            ));
        }
        if sweep != open.sweep {
            return Err(violation(
                ev,
                ViolationKind::StaleEpoch,
                format!(
                    "delta for sweep {sweep} announced in superstep {}",
                    open.sweep
                ),
            ));
        }
        if shard >= open.shards {
            return Err(violation(
                ev,
                ViolationKind::UnknownShard,
                format!("shard {shard} outside partition of {}", open.shards),
            ));
        }
        if open.announced.contains_key(&shard) {
            return Err(violation(
                ev,
                ViolationKind::DuplicateDelta,
                format!("shard {shard} already announced a delta for sweep {sweep}"),
            ));
        }
        open.announced.insert(shard, DeltaSummary { digest, nets });
        self.report.deltas += 1;
        Ok(())
    }

    fn delta_apply(&mut self, ev: &TraceEvent) -> Result<(), Violation> {
        let sweep = req_uint(ev, "sweep")?;
        let shard = req_uint(ev, "shard")?;
        let digest = req_hex(ev, "digest")?;
        let open = self.open.as_mut().ok_or_else(|| {
            violation(
                ev,
                ViolationKind::UnexpectedEvent,
                "delta_apply outside any superstep",
            )
        })?;
        if sweep != open.sweep {
            return Err(violation(
                ev,
                ViolationKind::StaleEpoch,
                format!(
                    "apply for sweep {sweep} replayed in superstep {}",
                    open.sweep
                ),
            ));
        }
        let summary = open.announced.get(&shard).ok_or_else(|| {
            violation(
                ev,
                ViolationKind::UnannouncedApply,
                format!("shard {shard} applied without announcing a delta"),
            )
        })?;
        if open.applied.contains(&shard) {
            return Err(violation(
                ev,
                ViolationKind::DuplicateApply,
                format!("shard {shard} delta applied twice in sweep {sweep}"),
            ));
        }
        if let Some(last) = open.last_applied {
            if shard <= last {
                return Err(violation(
                    ev,
                    ViolationKind::ApplyOrder,
                    format!("shard {shard} applied after shard {last}; order must ascend"),
                ));
            }
        }
        if summary.digest != digest {
            return Err(violation(
                ev,
                ViolationKind::DigestMismatch,
                format!(
                    "shard {shard} applied digest {digest:016x}, announced {:016x}",
                    summary.digest
                ),
            ));
        }
        open.applied.insert(shard);
        open.last_applied = Some(shard);
        self.report.applies += 1;
        Ok(())
    }

    fn superstep_end(&mut self, ev: &TraceEvent) -> Result<(), Violation> {
        let sweep = req_uint(ev, "sweep")?;
        let shards = req_uint(ev, "shards")?;
        let sync = req_str(ev, "sync")?;
        let open = self.open.as_ref().ok_or_else(|| {
            violation(
                ev,
                ViolationKind::UnexpectedEvent,
                "superstep_end without a matching begin",
            )
        })?;
        if sweep != open.sweep {
            return Err(violation(
                ev,
                ViolationKind::EpochMismatch,
                format!(
                    "superstep_end sweep {sweep}, open superstep is {}",
                    open.sweep
                ),
            ));
        }
        if shards != open.shards || sync != open.sync {
            return Err(violation(
                ev,
                ViolationKind::Malformed,
                format!(
                    "superstep_end ({shards} shards, \"{sync}\") disagrees with begin \
                     ({} shards, \"{}\")",
                    open.shards, open.sync
                ),
            ));
        }
        if open.sync == "delta" {
            if open.announced.len() as u64 != open.shards {
                // The shard count comes from the trace: name the first few
                // missing shards rather than walk all of them.
                let missing: Vec<u64> = (0..open.shards)
                    .filter(|s| !open.announced.contains_key(s))
                    .take(MISSING_LISTED)
                    .collect();
                return Err(violation(
                    ev,
                    ViolationKind::MissingDelta,
                    format!(
                        "{} of {} shards never announced a delta for sweep {sweep}; first {missing:?}",
                        open.shards - open.announced.len() as u64,
                        open.shards
                    ),
                ));
            }
            if open.applied.len() != open.announced.len() {
                let unapplied: Vec<u64> = open
                    .announced
                    .keys()
                    .filter(|s| !open.applied.contains(s))
                    .copied()
                    .collect();
                return Err(violation(
                    ev,
                    ViolationKind::UnappliedDelta,
                    format!("deltas from shards {unapplied:?} never applied in sweep {sweep}"),
                ));
            }
            // Conservation: end sum == begin sum + Σ announced nets, per
            // family, including the derived mirror stores.
            let net_of = |fam: &str| -> i128 {
                open.announced
                    .values()
                    .map(|d| d.nets.get(fam).copied().unwrap_or(0) as i128)
                    .sum()
            };
            let mut expected_net: BTreeMap<&str, i128> =
                DELTA_FAMILIES.iter().map(|f| (*f, net_of(f))).collect();
            for (mirror, source) in DERIVED_FAMILIES {
                expected_net.insert(mirror, net_of(source));
            }
            for fam in STATE_FAMILIES {
                let begin = open.begin_sums[fam] as i128;
                let end = req_uint(ev, &format!("sum_{fam}"))? as i128;
                let net = expected_net[fam];
                if begin + net != end {
                    return Err(violation(
                        ev,
                        ViolationKind::Conservation,
                        format!(
                            "family {fam}: begin {begin} + announced net {net} = {} \
                             but barrier observed {end}",
                            begin + net
                        ),
                    ));
                }
            }
        }
        self.open = None;
        self.expected_sweep = Some(sweep + 1);
        self.report.supersteps += 1;
        Ok(())
    }

    fn no_open_superstep(&self, ev: &TraceEvent) -> Result<(), Violation> {
        match &self.open {
            Some(open) => Err(violation(
                ev,
                ViolationKind::UnexpectedEvent,
                format!("{} inside open superstep {}", ev.kind, open.sweep),
            )),
            None => Ok(()),
        }
    }

    fn ckpt_write(&mut self, ev: &TraceEvent) -> Result<(), Violation> {
        self.no_open_superstep(ev)?;
        let sweep = req_uint(ev, "sweep")?;
        req_uint(ev, "bytes")?;
        let digest = req_hex(ev, "digest")?;
        if let Some(floor) = self.segment_floor {
            if sweep <= floor {
                return Err(violation(
                    ev,
                    ViolationKind::CkptMonotonicity,
                    format!("checkpoint write at sweep {sweep} does not advance past {floor}"),
                ));
            }
        }
        self.written.insert(sweep, digest);
        self.removed.remove(&sweep);
        self.corrupt.remove(&sweep);
        self.segment_floor = Some(sweep);
        self.report.checkpoints += 1;
        Ok(())
    }

    fn ckpt_retain(&mut self, ev: &TraceEvent) -> Result<(), Violation> {
        let sweep = req_uint(ev, "sweep")?;
        if !self.written.contains_key(&sweep) || self.removed.contains(&sweep) {
            return Err(violation(
                ev,
                ViolationKind::RetentionUnknown,
                format!("retention removed sweep {sweep}, which is not a live written checkpoint"),
            ));
        }
        let newest_live = self
            .written
            .keys()
            .filter(|s| !self.removed.contains(s) && !self.corrupt.contains(s))
            .max()
            .copied();
        if newest_live == Some(sweep) {
            return Err(violation(
                ev,
                ViolationKind::RetentionNewest,
                format!("retention removed sweep {sweep}, the newest valid checkpoint"),
            ));
        }
        self.removed.insert(sweep);
        Ok(())
    }

    fn ckpt_skip(&mut self, ev: &TraceEvent) -> Result<(), Violation> {
        let sweep = req_uint(ev, "sweep")?;
        // Corruption can strike any file (torn write, external damage), so
        // a skip is always admissible; it only narrows what may be loaded.
        self.corrupt.insert(sweep);
        Ok(())
    }

    fn ckpt_load(&mut self, ev: &TraceEvent) -> Result<(), Violation> {
        self.no_open_superstep(ev)?;
        if let Some(pending) = self.pending_load {
            return Err(violation(
                ev,
                ViolationKind::UnexpectedEvent,
                format!("load while the load for sweep {pending} is still unconsumed"),
            ));
        }
        let sweep = req_uint(ev, "sweep")?;
        let digest = req_hex(ev, "digest")?;
        req_uint(ev, "skipped")?;
        if self.removed.contains(&sweep) {
            return Err(violation(
                ev,
                ViolationKind::RetiredLoad,
                format!("loaded checkpoint for sweep {sweep}, which retention removed"),
            ));
        }
        if self.corrupt.contains(&sweep) {
            return Err(violation(
                ev,
                ViolationKind::CorruptLoad,
                format!("loaded checkpoint for sweep {sweep}, previously skipped as corrupt"),
            ));
        }
        if let Some(&written) = self.written.get(&sweep) {
            if written != digest {
                return Err(violation(
                    ev,
                    ViolationKind::DigestMismatch,
                    format!(
                        "loaded sweep {sweep} with digest {digest:016x}, \
                         but {written:016x} was written"
                    ),
                ));
            }
        }
        self.pending_load = Some(sweep);
        self.report.loads += 1;
        Ok(())
    }

    fn resume(&mut self, ev: &TraceEvent) -> Result<(), Violation> {
        self.no_open_superstep(ev)?;
        let sweep = req_uint(ev, "sweep")?;
        let shards = req_uint(ev, "shards")?;
        if self.pending_load != Some(sweep) {
            return Err(violation(
                ev,
                ViolationKind::ResumeMismatch,
                match self.pending_load {
                    Some(pending) => {
                        format!("resume at sweep {sweep}, but the loaded checkpoint is {pending}")
                    }
                    None => format!("resume at sweep {sweep} without a loaded checkpoint"),
                },
            ));
        }
        self.pending_load = None;
        self.expected_sweep = Some(sweep);
        self.shards = Some(shards);
        // A new process segment begins: writes must advance past the
        // resume point, but may legitimately rewrite sweeps the crashed
        // segment had reached.
        self.segment_floor = Some(sweep);
        self.report.resumes += 1;
        Ok(())
    }
}

/// Replay a full event slice through a fresh model.
pub fn verify(events: &[TraceEvent]) -> Result<Report, Violation> {
    let mut model = ReplayModel::new();
    for ev in events {
        model.apply(ev)?;
    }
    model.finish()
}

#[cfg(test)]
mod tests {
    use super::synth::SynthTrace;
    use super::*;
    use cold_obs::trace::{field, hex_digest, TraceValue};

    fn two_shard_trace() -> SynthTrace {
        let mut t = SynthTrace::new(2);
        t.superstep(&[
            vec![("n_ck", 3), ("n_kv", -1)],
            vec![("n_ck", -2), ("n_i", 4)],
        ]);
        t.superstep(&[vec![("n_cc", 1)], vec![("n_c", -1), ("n_kv", 2)]]);
        t
    }

    #[test]
    fn clean_synthetic_trace_verifies() {
        let mut t = two_shard_trace();
        t.checkpoint();
        t.superstep(&[vec![("n_k", 1)], vec![]]);
        let report = verify(&t.events()).unwrap();
        assert_eq!(report.supersteps, 3);
        assert_eq!(report.deltas, 6);
        assert_eq!(report.applies, 6);
        assert_eq!(report.checkpoints, 1);
    }

    #[test]
    fn crash_resume_chain_verifies() {
        let mut t = two_shard_trace();
        t.checkpoint();
        t.superstep(&[vec![("n_ic", 2)], vec![("n_ic", -1)]]);
        t.crash_and_resume();
        t.superstep(&[vec![("n_ic", 2)], vec![("n_ic", -1)]]);
        t.checkpoint();
        let report = verify(&t.events()).unwrap();
        assert_eq!(report.resumes, 1);
        assert_eq!(report.loads, 1);
        assert_eq!(report.checkpoints, 2);
    }

    #[test]
    fn retention_of_old_checkpoint_is_legal() {
        let mut t = two_shard_trace();
        t.checkpoint();
        t.superstep(&[vec![], vec![]]);
        t.checkpoint();
        let old = t.checkpoint_sweeps()[0];
        t.retain(old);
        verify(&t.events()).unwrap();
    }

    fn expect_kind(events: &[TraceEvent], kind: ViolationKind) {
        let err = verify(events).unwrap_err();
        assert_eq!(err.kind, kind, "got {err}");
    }

    #[test]
    fn conservation_violation_is_caught() {
        let mut events = two_shard_trace().events();
        let end = events
            .iter()
            .position(|e| e.kind == "superstep_end")
            .unwrap();
        let sum = events[end].uint("sum_n_ck").unwrap();
        events[end].set("sum_n_ck", TraceValue::Uint(sum + 1));
        expect_kind(&events, ViolationKind::Conservation);
    }

    #[test]
    fn derived_mirror_conservation_is_checked() {
        let mut events = two_shard_trace().events();
        let end = events
            .iter()
            .position(|e| e.kind == "superstep_end")
            .unwrap();
        let sum = events[end].uint("sum_n_vk").unwrap();
        events[end].set("sum_n_vk", TraceValue::Uint(sum + 1));
        expect_kind(&events, ViolationKind::Conservation);
    }

    #[test]
    fn dropped_announcement_is_caught() {
        let mut events = two_shard_trace().events();
        let i = events.iter().position(|e| e.kind == "shard_delta").unwrap();
        let (sweep, shard) = (events[i].uint("sweep"), events[i].uint("shard"));
        events.remove(i);
        events.retain(|e| {
            !(e.kind == "delta_apply" && e.uint("sweep") == sweep && e.uint("shard") == shard)
        });
        expect_kind(&events, ViolationKind::MissingDelta);
    }

    #[test]
    fn dropped_apply_is_caught() {
        let mut events = two_shard_trace().events();
        let i = events.iter().position(|e| e.kind == "delta_apply").unwrap();
        events.remove(i);
        expect_kind(&events, ViolationKind::UnappliedDelta);
    }

    #[test]
    fn duplicate_apply_is_caught() {
        let mut events = two_shard_trace().events();
        let i = events.iter().position(|e| e.kind == "delta_apply").unwrap();
        let dup = events[i].clone();
        events.insert(i + 1, dup);
        expect_kind(&events, ViolationKind::DuplicateApply);
    }

    #[test]
    fn reordered_applies_are_caught() {
        let mut events = two_shard_trace().events();
        let i = events.iter().position(|e| e.kind == "delta_apply").unwrap();
        events.swap(i, i + 1);
        expect_kind(&events, ViolationKind::ApplyOrder);
    }

    #[test]
    fn apply_digest_mismatch_is_caught() {
        let mut events = two_shard_trace().events();
        let i = events.iter().position(|e| e.kind == "delta_apply").unwrap();
        let digest = events[i].hex("digest").unwrap();
        events[i].set("digest", TraceValue::Str(hex_digest(digest ^ 1)));
        expect_kind(&events, ViolationKind::DigestMismatch);
    }

    #[test]
    fn stale_epoch_apply_is_caught() {
        let mut events = two_shard_trace().events();
        let first_apply = events.iter().position(|e| e.kind == "delta_apply").unwrap();
        let stale = events[first_apply].clone();
        let later_begin = events
            .iter()
            .rposition(|e| e.kind == "superstep_begin")
            .unwrap();
        assert!(later_begin > first_apply);
        events.insert(later_begin + 1, stale);
        expect_kind(&events, ViolationKind::StaleEpoch);
    }

    #[test]
    fn duplicate_announcement_is_caught() {
        let mut events = two_shard_trace().events();
        let i = events.iter().position(|e| e.kind == "shard_delta").unwrap();
        let dup = events[i].clone();
        events.insert(i + 1, dup);
        expect_kind(&events, ViolationKind::DuplicateDelta);
    }

    #[test]
    fn announcement_order_is_free() {
        let mut events = two_shard_trace().events();
        let i = events.iter().position(|e| e.kind == "shard_delta").unwrap();
        events.swap(i, i + 1);
        verify(&events).unwrap();
    }

    #[test]
    fn epoch_mismatch_on_begin_is_caught() {
        let mut events = two_shard_trace().events();
        let later_begin = events
            .iter()
            .rposition(|e| e.kind == "superstep_begin")
            .unwrap();
        events[later_begin].set("sweep", TraceValue::Uint(99));
        expect_kind(&events, ViolationKind::EpochMismatch);
    }

    #[test]
    fn retention_of_newest_checkpoint_is_caught() {
        let mut t = two_shard_trace();
        t.checkpoint();
        let newest = *t.checkpoint_sweeps().last().unwrap();
        t.retain(newest);
        expect_kind(&t.events(), ViolationKind::RetentionNewest);
    }

    #[test]
    fn retention_of_unknown_checkpoint_is_caught() {
        let mut t = two_shard_trace();
        t.checkpoint();
        t.retain(12345);
        expect_kind(&t.events(), ViolationKind::RetentionUnknown);
    }

    #[test]
    fn retention_skips_corrupt_files_when_picking_newest() {
        // Two checkpoints; the newer one is corrupt. Removing the older
        // (only valid) one must be rejected.
        let mut t = two_shard_trace();
        t.checkpoint();
        t.superstep(&[vec![], vec![]]);
        t.checkpoint();
        let sweeps = t.checkpoint_sweeps();
        t.skip(sweeps[1]);
        t.retain(sweeps[0]);
        expect_kind(&t.events(), ViolationKind::RetentionNewest);
    }

    #[test]
    fn torn_checkpoint_load_is_caught() {
        let mut t = two_shard_trace();
        t.checkpoint();
        t.superstep(&[vec![], vec![]]);
        t.crash_and_resume();
        let mut events = t.events();
        let i = events.iter().position(|e| e.kind == "ckpt_load").unwrap();
        let digest = events[i].hex("digest").unwrap();
        events[i].set("digest", TraceValue::Str(hex_digest(digest ^ 1)));
        expect_kind(&events, ViolationKind::DigestMismatch);
    }

    #[test]
    fn loading_a_corrupt_checkpoint_is_caught() {
        let mut t = two_shard_trace();
        t.checkpoint();
        t.superstep(&[vec![], vec![]]);
        t.crash_and_resume();
        let mut events = t.events();
        let i = events.iter().position(|e| e.kind == "ckpt_load").unwrap();
        let sweep = events[i].uint("sweep").unwrap();
        let mut skip = events[i].clone();
        skip.kind = "ckpt_skip".into();
        skip.fields = vec![field("sweep", sweep)];
        events.insert(i, skip);
        expect_kind(&events, ViolationKind::CorruptLoad);
    }

    #[test]
    fn loading_a_retired_checkpoint_is_caught() {
        let mut t = two_shard_trace();
        t.checkpoint();
        t.superstep(&[vec![], vec![]]);
        t.checkpoint();
        let old = t.checkpoint_sweeps()[0];
        t.retain(old);
        t.superstep(&[vec![], vec![]]);
        t.crash_and_resume();
        let mut events = t.events();
        let i = events.iter().position(|e| e.kind == "ckpt_load").unwrap();
        // Redirect the load at the retired sweep (keep a digest that matches
        // what was written there, so only retirement can reject it).
        let digest = t.checkpoint_digest(old).unwrap();
        events[i].set("sweep", TraceValue::Uint(old));
        events[i].set("digest", TraceValue::Str(hex_digest(digest)));
        expect_kind(&events, ViolationKind::RetiredLoad);
    }

    #[test]
    fn resume_without_load_is_caught() {
        let mut t = two_shard_trace();
        t.checkpoint();
        t.crash_and_resume();
        let mut events = t.events();
        let i = events.iter().position(|e| e.kind == "resume").unwrap();
        let dup = events[i].clone();
        events.insert(i + 1, dup);
        expect_kind(&events, ViolationKind::ResumeMismatch);
    }

    #[test]
    fn nonmonotonic_checkpoint_write_is_caught() {
        let mut t = two_shard_trace();
        t.checkpoint();
        let mut events = t.events();
        let i = events.iter().position(|e| e.kind == "ckpt_write").unwrap();
        let dup = events[i].clone();
        events.insert(i + 1, dup);
        expect_kind(&events, ViolationKind::CkptMonotonicity);
    }

    #[test]
    fn truncated_trace_is_caught() {
        let mut events = two_shard_trace().events();
        let last_end = events
            .iter()
            .rposition(|e| e.kind == "superstep_end")
            .unwrap();
        events.truncate(last_end);
        expect_kind(&events, ViolationKind::TruncatedTrace);
    }

    #[test]
    fn unconsumed_load_at_end_is_caught() {
        let mut t = two_shard_trace();
        t.checkpoint();
        t.crash_and_resume();
        let mut events = t.events();
        let i = events.iter().position(|e| e.kind == "resume").unwrap();
        events.remove(i);
        expect_kind(&events, ViolationKind::TruncatedTrace);
    }

    #[test]
    fn unknown_event_kind_is_rejected() {
        let events = vec![TraceEvent {
            seq: 0,
            kind: "mystery".into(),
            fields: Vec::new(),
        }];
        expect_kind(&events, ViolationKind::UnknownEvent);
    }

    #[test]
    fn inconsistent_cell_summary_is_rejected() {
        let mut events = two_shard_trace().events();
        let i = events.iter().position(|e| e.kind == "shard_delta").unwrap();
        let cells = events[i].uint("cells").unwrap();
        events[i].set("cells", TraceValue::Uint(cells + 7));
        expect_kind(&events, ViolationKind::Malformed);
    }
}
