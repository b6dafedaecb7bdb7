//! Crash-safe checkpoint/resume for Gibbs training — the `cold-ckpt/v1`
//! on-disk format and the durable writer behind it.
//!
//! Training on real data takes hours (the paper's Fig. 14), so a crash at
//! sweep 999/1000 must not cost the run. A [`Checkpoint`] captures the
//! *complete* sampler state at a sweep boundary — counters and
//! assignments ([`CountState`]), the RNG stream position, annealing
//! progress (implied by the sweep index), the partial posterior averages
//! ([`EstimateAccumulator`]) and the convergence trace — so resuming is
//! **bit-identical** to never having stopped (the golden-trace suite
//! proves this for every sampler kernel).
//!
//! ## File format (`cold-ckpt/v1`)
//!
//! ```text
//! cold-ckpt/v1 <payload-bytes> <fnv1a64-hex>\n
//! <payload JSON>\n
//! ```
//!
//! One ASCII header line — format tag, payload length, FNV-1a 64-bit
//! checksum of the payload bytes — followed by the JSON payload. Length
//! catches truncation (torn writes), the checksum catches corruption, and
//! the JSON keeps the state transparent and diffable like the model and
//! `cold-obs/v1` metrics formats. Floats round-trip bit-exactly (shortest
//! round-trip formatting), integers trivially so.
//!
//! ## Durability protocol
//!
//! [`Checkpointer::write`] never touches the destination in place:
//! write temp file → `fsync` file → `rename` over the destination →
//! `fsync` directory, with bounded retry/backoff on transient I/O errors.
//! A crash at any point leaves either the old complete file or the new
//! complete file. The last `retain` checkpoints are kept, so a latest
//! checkpoint that *still* reads back corrupt (e.g. media failure) falls
//! back to its predecessor with a warning ([`Checkpointer::load_latest`]).

use crate::estimates::EstimateAccumulator;
use crate::params::ColdConfig;
use crate::sampler::TrainTrace;
use crate::state::{CountState, PostsView};
use cold_math::rng::Rng;
use cold_obs::{trace, Metrics};
use cold_text::Corpus;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Format tag stamped into every checkpoint header.
pub const CKPT_FORMAT: &str = "cold-ckpt/v1";

/// Which batch sampler wrote a checkpoint. Both rebuild their post view
/// from the training corpus, so a checkpoint carries no posts. Any other
/// kind in a stored file is a [`CkptError::Format`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckpointKind {
    /// The sequential [`GibbsSampler`](crate::sampler::GibbsSampler):
    /// always one shard with 4 RNG words. `GibbsSampler::resume` and a
    /// one-shard `ParallelGibbs::resume` both accept it: they run the same
    /// chain.
    Sequential,
    /// The parallel engine (`cold-engine`'s `ParallelGibbs`) at any shard
    /// count, also what `cold train` writes. Only `ParallelGibbs::resume`
    /// accepts it.
    Parallel,
}

/// Errors from checkpoint persistence.
#[derive(Debug)]
pub enum CkptError {
    /// Underlying filesystem error (after retries).
    Io(std::io::Error),
    /// The bytes are not a `cold-ckpt/v1` document.
    Format(String),
    /// The document is torn or corrupt (length or checksum mismatch).
    Corrupt(String),
    /// The checkpoint's training configuration does not match the caller's.
    ConfigMismatch(String),
    /// No readable checkpoint exists in the directory.
    NoCheckpoint(PathBuf),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CkptError::Format(msg) => write!(f, "invalid checkpoint: {msg}"),
            CkptError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CkptError::ConfigMismatch(msg) => write!(f, "checkpoint config mismatch: {msg}"),
            CkptError::NoCheckpoint(dir) => {
                write!(f, "no readable checkpoint in {}", dir.display())
            }
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// FNV-1a 64-bit over `bytes` — a fast, dependency-free integrity check.
/// This guards against torn writes and bit rot, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A complete training snapshot at a sweep boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Which sampler wrote this (resume dispatches on it).
    pub kind: CheckpointKind,
    /// The run's base seed (the sharded parallel engine re-derives its
    /// per-(sweep, shard) streams from this, so it needs no RNG words).
    pub seed: u64,
    /// Shard count of a parallel run (1 otherwise). Resuming with a
    /// different shard count would change the partition and the streams,
    /// so it is pinned here.
    pub shards: usize,
    /// Completed sweeps. Resume continues at this sweep index; the
    /// annealing schedule and monitor/collect cadences are pure functions
    /// of it, so no further schedule state is needed.
    pub sweeps_done: usize,
    /// Raw xoshiro256++ state words of the sequential RNG (4 words), or
    /// empty for sharded-parallel checkpoints.
    pub rng: Vec<u64>,
    /// The training configuration (metrics handle excluded — it
    /// serializes as null and never participates in equality).
    pub config: ColdConfig,
    /// Assignments and sufficient-statistic counters.
    pub state: CountState,
    /// Convergence-monitor trace collected so far.
    pub trace: TrainTrace,
    /// Partial posterior averages collected after burn-in so far.
    pub acc: EstimateAccumulator,
}

impl Checkpoint {
    /// Serialize to the on-disk `cold-ckpt/v1` byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let payload = serde_json::to_string(self).expect("checkpoint serialization cannot fail");
        let mut out = format!(
            "{CKPT_FORMAT} {} {:016x}\n",
            payload.len(),
            fnv1a64(payload.as_bytes())
        )
        .into_bytes();
        out.extend_from_slice(payload.as_bytes());
        out.push(b'\n');
        out
    }

    /// Parse and verify the `cold-ckpt/v1` byte layout: header, length,
    /// checksum, JSON payload, then semantic validation.
    pub fn decode(bytes: &[u8]) -> Result<Self, CkptError> {
        let newline = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| CkptError::Format("missing header line".into()))?;
        let header = std::str::from_utf8(&bytes[..newline])
            .map_err(|_| CkptError::Format("header is not UTF-8".into()))?;
        let mut parts = header.split_ascii_whitespace();
        let tag = parts.next().unwrap_or("");
        if tag != CKPT_FORMAT {
            return Err(CkptError::Format(format!(
                "expected format tag {CKPT_FORMAT}, found '{tag}'"
            )));
        }
        let len: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| CkptError::Format("header missing payload length".into()))?;
        let checksum = parts
            .next()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| CkptError::Format("header missing checksum".into()))?;
        let body = &bytes[newline + 1..];
        if body.len() < len {
            return Err(CkptError::Corrupt(format!(
                "truncated: header promises {len} payload bytes, file has {}",
                body.len()
            )));
        }
        // The payload is terminated by exactly one `\n`; anything else
        // means the write was torn mid-terminator or garbage was appended.
        if body[len..] != [b'\n'] {
            return Err(CkptError::Corrupt(format!(
                "torn or dirty tail: expected a single newline after {len} payload bytes, \
                 found {} trailing byte(s)",
                body.len() - len
            )));
        }
        let payload = &body[..len];
        let actual = fnv1a64(payload);
        if actual != checksum {
            return Err(CkptError::Corrupt(format!(
                "checksum mismatch: header {checksum:016x}, payload {actual:016x}"
            )));
        }
        let text = std::str::from_utf8(payload)
            .map_err(|_| CkptError::Format("payload is not UTF-8".into()))?;
        let ckpt: Checkpoint =
            serde_json::from_str(text).map_err(|e| CkptError::Format(e.to_string()))?;
        ckpt.validate()?;
        Ok(ckpt)
    }

    /// Read and verify a checkpoint file.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, CkptError> {
        Self::decode(&std::fs::read(path)?)
    }

    /// Semantic sanity beyond the byte-level checks: configuration
    /// validity, state and accumulator dims equal to the configured ones,
    /// and table shapes consistent with those dims. The dims come from
    /// the file, so every product of them is checked: one that overflows
    /// `usize` is a format error, never a length to compare against.
    pub fn validate(&self) -> Result<(), CkptError> {
        let fail = |msg: String| Err(CkptError::Format(msg));
        self.config.validate().map_err(CkptError::Format)?;
        if self.sweeps_done > self.config.iterations {
            return fail(format!(
                "sweeps_done {} exceeds configured iterations {}",
                self.sweeps_done, self.config.iterations
            ));
        }
        if !(self.rng.is_empty() || self.rng.len() == 4) {
            return fail(format!(
                "rng must hold 0 or 4 words, got {}",
                self.rng.len()
            ));
        }
        if self.shards == 0 || (self.kind == CheckpointKind::Sequential && self.shards != 1) {
            return fail(format!(
                "{:?} checkpoint with {} shards",
                self.kind, self.shards
            ));
        }
        if self.shards == 1 && self.rng.len() != 4 {
            return fail("single-shard checkpoint needs 4 RNG words".into());
        }
        let d = self.config.dims;
        let s = &self.state;
        let (u, c, k, t, v) = (
            d.num_users as usize,
            d.num_communities,
            d.num_topics,
            d.num_time_slices,
            d.vocab_size,
        );
        let rows = if self.config.community_specific_time {
            c
        } else {
            1
        };
        let state_dims = (
            s.num_communities,
            s.num_topics,
            s.num_time_slices,
            s.vocab_size,
            s.time_comm_rows,
        );
        if state_dims != (c, k, t, v, rows) {
            return fail(format!(
                "state dims (C, K, T, V, time rows) {state_dims:?} do not match the \
                 configured ({c}, {k}, {t}, {v}, {rows})"
            ));
        }
        let cells = |name: &str, factors: &[usize]| {
            factors
                .iter()
                .try_fold(1usize, |acc, &f| acc.checked_mul(f))
                .ok_or_else(|| CkptError::Format(format!("{name}: dims {factors:?} overflow")))
        };
        let shape_checks = [
            (
                "post_comm vs post_topic",
                s.post_comm.len(),
                s.post_topic.len(),
            ),
            ("n_ic", s.n_ic.len(), cells("n_ic", &[u, c])?),
            ("n_i", s.n_i.len(), u),
            ("n_ck", s.n_ck.len(), cells("n_ck", &[c, k])?),
            ("n_c", s.n_c.len(), c),
            ("n_ckt", s.n_ckt.len(), cells("n_ckt", &[rows, k, t])?),
            ("n_kv", s.n_kv.len(), cells("n_kv", &[k, v])?),
            ("n_vk", s.n_vk.len(), cells("n_vk", &[v, k])?),
            ("n_k", s.n_k.len(), k),
            ("n_post_k", s.n_post_k.len(), k),
            ("n_cc", s.n_cc.len(), cells("n_cc", &[c, c])?),
            ("n0_cc", s.n0_cc.len(), cells("n0_cc", &[c, c])?),
            ("link assignments", s.link_src_comm.len(), s.links.len()),
            ("link assignments", s.link_dst_comm.len(), s.links.len()),
            (
                "neg-link assignments",
                s.neg_src_comm.len(),
                s.neg_links.len(),
            ),
            (
                "neg-link assignments",
                s.neg_dst_comm.len(),
                s.neg_links.len(),
            ),
        ];
        for (name, got, want) in shape_checks {
            if got != want {
                return fail(format!("{name}: length {got} does not match dims ({want})"));
            }
        }
        self.acc
            .check_shape(&self.config)
            .map_err(CkptError::Format)
    }

    /// The preamble of every resume. Checks, in order: the shapes
    /// ([`validate`](Self::validate)), that the kind is one of `accepts`,
    /// the configuration ([`check_config`](Self::check_config)), the
    /// corpus's post count, and the contents (a checksum is no proof of
    /// origin, and a sweep indexes counters by these values). Then it
    /// restores a one-shard run's RNG stream, re-applies the configured
    /// storage policy (checkpoints carry dense counters; the chain is
    /// unaffected) and records the `resume` trace event, which consumes
    /// the preceding `ckpt_load` in the replay model.
    pub fn resume_point(
        self,
        corpus: &Corpus,
        config: &ColdConfig,
        accepts: &[CheckpointKind],
    ) -> Result<ResumePoint, CkptError> {
        self.validate()?;
        if !accepts.contains(&self.kind) {
            return Err(CkptError::Format(format!(
                "expected a {accepts:?} checkpoint, found {:?}",
                self.kind
            )));
        }
        self.check_config(config)?;
        let posts = PostsView::from_corpus(corpus);
        if posts.len() != self.state.post_comm.len() {
            return Err(CkptError::ConfigMismatch(format!(
                "corpus has {} posts but the checkpoint assigns {}",
                posts.len(),
                self.state.post_comm.len()
            )));
        }
        self.check_contents(&posts)?;
        let rng = (self.shards == 1).then(|| {
            let words = self.rng.as_slice().try_into();
            Rng::from_raw_state(words.expect("validated: one shard carries 4 RNG words"))
        });
        let mut ckpt = self;
        ckpt.state.select_storage(config.counter_storage);
        let metrics = &config.metrics.0;
        if metrics.trace_enabled() {
            metrics.trace_event(
                "resume",
                vec![
                    trace::field("sweep", ckpt.sweeps_done),
                    trace::field("shards", ckpt.shards),
                ],
            );
        }
        Ok(ResumePoint { ckpt, posts, rng })
    }

    /// Every assignment and link endpoint is in range, and every counter
    /// equals its definition over the assignments. Runs after the shape
    /// checks, so every table it reads has its configured length.
    fn check_contents(&self, posts: &PostsView) -> Result<(), CkptError> {
        let s = &self.state;
        let (c, k) = (s.num_communities, s.num_topics);
        let ranges: [(&str, &[u32], usize); 6] = [
            ("post_comm", &s.post_comm, c),
            ("post_topic", &s.post_topic, k),
            ("link_src_comm", &s.link_src_comm, c),
            ("link_dst_comm", &s.link_dst_comm, c),
            ("neg_src_comm", &s.neg_src_comm, c),
            ("neg_dst_comm", &s.neg_dst_comm, c),
        ];
        for (name, values, bound) in ranges {
            if let Some((i, v)) = values
                .iter()
                .enumerate()
                .find(|(_, &v)| v as usize >= bound)
            {
                return Err(CkptError::Format(format!(
                    "{name}[{i}] = {v} is out of range (must be below {bound})"
                )));
            }
        }
        let users = self.config.dims.num_users;
        let mut pairs = s.links.iter().chain(&s.neg_links);
        if let Some((i, j)) = pairs.find(|&&(i, j)| i.max(j) >= users) {
            return Err(CkptError::Format(format!(
                "link ({i}, {j}) names a user outside the {users} users"
            )));
        }
        s.check_consistency(posts).map_err(CkptError::Format)
    }

    /// Guard a resume: the live configuration must equal the checkpointed
    /// one (the metrics handle is ignored by `ColdConfig` equality, so a
    /// resumed run may attach fresh instrumentation; `checkpoint_every`
    /// may differ too — checkpoint writes consume no randomness, so the
    /// cadence never affects the trajectory).
    pub fn check_config(&self, config: &ColdConfig) -> Result<(), CkptError> {
        let pinned = ColdConfig {
            checkpoint_every: config.checkpoint_every,
            ..self.config.clone()
        };
        if &pinned != config {
            return Err(CkptError::ConfigMismatch(
                "the resume configuration differs from the checkpointed one; \
                 rebuild it with identical dimensions, hyper-parameters, \
                 schedule and kernel"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// Whether an I/O error is worth retrying (scheduler noise, signal
/// interruption, overloaded storage) as opposed to a hard failure.
fn is_transient(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// Run `op` with bounded retry/backoff on transient I/O errors.
fn retry_io<T>(mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    const ATTEMPTS: u32 = 3;
    let mut delay = std::time::Duration::from_millis(10);
    let mut attempt = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(e.kind()) && attempt + 1 < ATTEMPTS => {
                attempt += 1;
                std::thread::sleep(delay);
                delay *= 5;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Write `bytes` to `path` atomically: temp file in the same directory →
/// `fsync` → `rename` → `fsync` the directory, with retry/backoff on
/// transient errors. A crash at any point leaves either the previous file
/// intact or the new file complete — never a torn destination.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp-{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let result = retry_io(|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = dir {
            // Persist the rename itself (the directory entry).
            std::fs::File::open(dir)?.sync_all()?;
        }
        Ok(())
    });
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// One checkpoint file in a [`Checkpointer`] directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptEntry {
    /// Sweep index parsed from the filename.
    pub sweep: usize,
    /// Full path.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
}

/// Writes, retains and reloads checkpoints in one directory.
///
/// Files are named `ckpt-<sweep:08>.json`; only the newest `retain`
/// (default 3) are kept. Write latency/bytes and load outcomes flow into
/// the attached `cold-obs` registry (`ckpt.*` metrics).
#[derive(Debug, Clone)]
pub struct Checkpointer {
    dir: PathBuf,
    retain: usize,
    metrics: Metrics,
}

impl Checkpointer {
    /// Open (creating if needed) a checkpoint directory.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, CkptError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            retain: 3,
            metrics: Metrics::default(),
        })
    }

    /// Keep the newest `n` checkpoints (minimum 1; default 3). Retaining
    /// more than one is what makes corrupt-latest fallback possible.
    pub fn retain(mut self, n: usize) -> Self {
        self.retain = n.max(1);
        self
    }

    /// Attach an observability handle; writes and loads record into it.
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// The directory this checkpointer manages.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, sweep: usize) -> PathBuf {
        self.dir.join(format!("ckpt-{sweep:08}.json"))
    }

    /// Durably write `ckpt` and apply retention. Returns the file path.
    pub fn write(&self, ckpt: &Checkpoint) -> Result<PathBuf, CkptError> {
        let t0 = self.metrics.start();
        let bytes = ckpt.encode();
        let path = self.path_for(ckpt.sweeps_done);
        atomic_write(&path, &bytes)?;
        self.metrics.observe_since("ckpt.write_seconds", t0);
        self.metrics.counter_add("ckpt.writes", 1);
        self.metrics
            .counter_add("ckpt.bytes_written", bytes.len() as u64);
        self.metrics
            .gauge_set("ckpt.last_sweep", ckpt.sweeps_done as f64);
        if self.metrics.trace_enabled() {
            self.metrics.trace_event(
                "ckpt_write",
                vec![
                    trace::field("sweep", ckpt.sweeps_done),
                    trace::field("bytes", bytes.len()),
                    trace::field("digest", trace::hex_digest(fnv1a64(&bytes))),
                ],
            );
        }
        // Retention: drop the oldest beyond `retain`, but never the file
        // this very call just wrote — a stale corrupt file with a higher
        // sweep number (bit rot on a future-sweep leftover) must not be
        // able to push the only fresh checkpoint out of the window.
        // Best-effort — a failed unlink must not fail the checkpoint that
        // just landed.
        let entries = self.list()?;
        for stale in entries.iter().skip(self.retain) {
            if stale.path == path {
                continue;
            }
            if std::fs::remove_file(&stale.path).is_ok() {
                self.metrics.counter_add("ckpt.retention_removed", 1);
                if self.metrics.trace_enabled() {
                    self.metrics
                        .trace_event("ckpt_retain", vec![trace::field("sweep", stale.sweep)]);
                }
            }
        }
        Ok(path)
    }

    /// All checkpoint files, newest (highest sweep) first.
    pub fn list(&self) -> Result<Vec<CkptEntry>, CkptError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(sweep) = name
                .strip_prefix("ckpt-")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|digits| digits.parse().ok())
            else {
                continue;
            };
            out.push(CkptEntry {
                sweep,
                path: entry.path(),
                bytes: entry.metadata()?.len(),
            });
        }
        out.sort_by_key(|entry| std::cmp::Reverse(entry.sweep));
        Ok(out)
    }

    /// Load the newest checkpoint that verifies, falling back across
    /// corrupt/torn files with a warning. `Err(NoCheckpoint)` if nothing
    /// in the directory reads back.
    pub fn load_latest(&self) -> Result<Checkpoint, CkptError> {
        let t0 = self.metrics.start();
        let mut skipped = 0usize;
        for entry in self.list()? {
            // Read bytes first so the trace can digest exactly what was
            // on disk (the replay model matches this against the digest
            // the writer recorded).
            let decoded = match std::fs::read(&entry.path) {
                Ok(bytes) => Checkpoint::decode(&bytes).map(|ckpt| (ckpt, fnv1a64(&bytes))),
                Err(e) => Err(e.into()),
            };
            match decoded {
                Ok((ckpt, digest)) => {
                    if skipped > 0 {
                        eprintln!(
                            "warning: fell back to checkpoint at sweep {} ({} newer \
                             checkpoint{} unreadable)",
                            ckpt.sweeps_done,
                            skipped,
                            if skipped == 1 { "" } else { "s" }
                        );
                        self.metrics.counter_add("ckpt.fallbacks", 1);
                    }
                    self.metrics.observe_since("ckpt.load_seconds", t0);
                    self.metrics.counter_add("ckpt.loads", 1);
                    self.metrics
                        .counter_add("ckpt.corrupt_skipped", skipped as u64);
                    if self.metrics.trace_enabled() {
                        self.metrics.trace_event(
                            "ckpt_load",
                            vec![
                                trace::field("sweep", ckpt.sweeps_done),
                                trace::field("digest", trace::hex_digest(digest)),
                                trace::field("skipped", skipped),
                            ],
                        );
                    }
                    return Ok(ckpt);
                }
                Err(CkptError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                    // Raced with retention; just move on.
                }
                Err(e) => {
                    eprintln!(
                        "warning: skipping unreadable checkpoint {}: {e}",
                        entry.path.display()
                    );
                    if self.metrics.trace_enabled() {
                        self.metrics
                            .trace_event("ckpt_skip", vec![trace::field("sweep", entry.sweep)]);
                    }
                    skipped += 1;
                }
            }
        }
        self.metrics
            .counter_add("ckpt.corrupt_skipped", skipped as u64);
        Err(CkptError::NoCheckpoint(self.dir.clone()))
    }
}

/// A checkpoint that passed every check of [`Checkpoint::resume_point`],
/// with what a sampler is rebuilt from besides it.
#[derive(Debug)]
pub struct ResumePoint {
    /// The checkpoint, its state on the configured storage backends.
    pub ckpt: Checkpoint,
    /// The training corpus's posts.
    pub posts: PostsView,
    /// The sequential RNG stream: `Some` exactly when the run has one
    /// shard. A sharded run re-derives its streams from the seed.
    pub rng: Option<Rng>,
}

/// Whether sweep `sweep` (0-based) contributes a posterior sample: every
/// `sample_lag`-th sweep from `burn_in` on.
pub fn collects_after_sweep(config: &ColdConfig, sweep: usize) -> bool {
    sweep >= config.burn_in && (sweep - config.burn_in).is_multiple_of(config.sample_lag)
}

/// The effective checkpoint cadence for a run: the configured
/// `checkpoint_every`, or every 10th sweep by default. A checkpoint is due
/// after sweep `sweep` (0-based) when the cadence divides the completed
/// count, and always after the final sweep.
pub fn due_after_sweep(config: &ColdConfig, sweep: usize) -> bool {
    let every = config.checkpoint_every.unwrap_or(10);
    (sweep + 1).is_multiple_of(every) || sweep + 1 == config.iterations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ColdConfig;
    use crate::sampler::GibbsSampler;
    use cold_graph::CsrGraph;
    use cold_text::CorpusBuilder;

    fn unique_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cold_ckpt_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn small_fit() -> (cold_text::Corpus, CsrGraph, ColdConfig) {
        let mut b = CorpusBuilder::new();
        b.push_text(0, 0, &["a", "b", "a"]);
        b.push_text(1, 1, &["c", "d"]);
        b.push_text(2, 0, &["a", "d"]);
        let corpus = b.build();
        let graph = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let config = ColdConfig::builder(2, 2)
            .iterations(8)
            .burn_in(4)
            .checkpoint_every(2)
            .build(&corpus, &graph);
        (corpus, graph, config)
    }

    fn sample_checkpoint() -> Checkpoint {
        let (corpus, graph, config) = small_fit();
        let mut sampler = GibbsSampler::new(&corpus, &graph, config, 3);
        sampler.run_sweeps(4, None).unwrap();
        sampler.checkpoint()
    }

    #[test]
    fn encode_decode_round_trip_is_exact() {
        let ckpt = sample_checkpoint();
        let back = Checkpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn truncated_file_is_detected() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.encode();
        for cut in [bytes.len() / 4, bytes.len() / 2, bytes.len() - 2] {
            let err = Checkpoint::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CkptError::Corrupt(_) | CkptError::Format(_)),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bit_flip_is_detected_by_checksum() {
        let ckpt = sample_checkpoint();
        let mut bytes = ckpt.encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = Checkpoint::decode(&bytes).unwrap_err();
        assert!(matches!(err, CkptError::Corrupt(_)), "{err}");
    }

    #[test]
    fn wrong_format_tag_is_a_format_error() {
        let err =
            Checkpoint::decode(b"cold-ckpt/v2 10 0000000000000000\nxxxxxxxxxx\n").unwrap_err();
        assert!(matches!(err, CkptError::Format(_)), "{err}");
    }

    #[test]
    fn retention_keeps_newest_and_fallback_loads_predecessor() {
        let dir = unique_dir("retention");
        let ckptr = Checkpointer::new(&dir).unwrap().retain(2);
        let mut ckpt = sample_checkpoint();
        for sweep in [2usize, 4, 6] {
            ckpt.sweeps_done = sweep;
            ckptr.write(&ckpt).unwrap();
        }
        let entries = ckptr.list().unwrap();
        assert_eq!(
            entries.iter().map(|e| e.sweep).collect::<Vec<_>>(),
            vec![6, 4],
            "retention should keep the newest 2"
        );
        // Tear the newest file mid-payload; load falls back to sweep 4.
        let newest = &entries[0].path;
        let bytes = std::fs::read(newest).unwrap();
        std::fs::write(newest, &bytes[..bytes.len() / 2]).unwrap();
        let loaded = ckptr.load_latest().unwrap();
        assert_eq!(loaded.sweeps_done, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_reports_no_checkpoint() {
        let dir = unique_dir("empty");
        let ckptr = Checkpointer::new(&dir).unwrap();
        assert!(matches!(
            ckptr.load_latest().unwrap_err(),
            CkptError::NoCheckpoint(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = unique_dir("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target.json");
        atomic_write(&path, b"first").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers.len(), 1, "temp file left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retry_recovers_from_transient_errors() {
        let mut failures = 2;
        let result = retry_io(|| {
            if failures > 0 {
                failures -= 1;
                Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "flaky",
                ))
            } else {
                Ok(42)
            }
        });
        assert_eq!(result.unwrap(), 42);
        // Hard errors surface immediately.
        let hard = retry_io(|| -> std::io::Result<()> {
            Err(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                "nope",
            ))
        });
        assert!(hard.is_err());
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let (corpus, graph, _) = small_fit();
        let ckpt = sample_checkpoint();
        let other = ColdConfig::builder(2, 2)
            .iterations(12)
            .burn_in(4)
            .checkpoint_every(2)
            .build(&corpus, &graph);
        assert!(matches!(
            ckpt.check_config(&other),
            Err(CkptError::ConfigMismatch(_))
        ));
        // A different checkpoint cadence alone is fine: checkpoint writes
        // consume no randomness, so the trajectory is unaffected.
        let recadenced = ColdConfig {
            checkpoint_every: Some(5),
            ..ckpt.config.clone()
        };
        ckpt.check_config(&recadenced).unwrap();
    }
}
