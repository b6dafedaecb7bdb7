//! Model persistence.
//!
//! A fitted [`ColdModel`] is a set of dense probability tables; training it
//! on real data can take hours (the paper's Fig. 14), so the model must
//! outlive the process. It has one on-disk format, the **`cold-model/v1`**
//! artifact that serving opens in milliseconds: a fixed 64-byte header
//! (magic `COLDMDL1`, version, the six dimensions as little-endian `u64`s),
//! the five probability tables as back-to-back little-endian `f64`
//! sections in declaration order (`π, θ, η, φ, ψ` — every section starts
//! 8-byte aligned, so the zero-copy [`crate::view::ModelView`] reads the
//! file in place), and an FNV-1a64 checksum footer over everything before
//! it (computed over little-endian 64-bit words — see [`fnv1a64_words`]),
//! following the `cold-ckpt/v1` durability conventions. Loading is one
//! read plus `f64::from_le_bytes` per cell — no parsing, bit-exact.
//!
//! The checksum catches torn and corrupted files, not crafted ones, so
//! [`verify_artifact`] treats the header dimensions as untrusted: every
//! section length is computed with checked arithmetic and must add up to
//! the bytes actually present.

use crate::checkpoint::atomic_write;
use crate::estimates::ColdModel;
use crate::params::Dims;
use std::path::Path;

/// Errors from model persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file did not contain a valid model.
    Format(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "model persistence I/O error: {e}"),
            PersistError::Format(msg) => write!(f, "invalid model file: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Format(_) => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// On-disk encoding of a [`ColdModel`]: `cold-model/v1` is the only one.
/// This enum exists only because the repository benchmark still names it
/// in [`ColdModel::save_as`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelFormat {
    /// The `cold-model/v1` artifact.
    Binary,
}

/// 8-byte magic opening every `cold-model/v1` artifact.
pub const MODEL_MAGIC: [u8; 8] = *b"COLDMDL1";

/// FNV-1a64 over the body viewed as little-endian 64-bit words (a short
/// tail, only possible in corrupt files, is zero-padded). Same offset
/// basis and prime as `cold-ckpt`'s byte-wise `fnv1a64`, but consuming
/// 8 bytes per multiply: the hash is a serial dependency chain, and at
/// artifact sizes (hundreds of MiB) a byte-at-a-time walk would dominate
/// the very load path this format exists to make fast.
fn fnv1a64_words(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        hash ^= u64::from_le_bytes(ch.try_into().expect("8-byte chunk"));
        hash = hash.wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        hash ^= u64::from_le_bytes(tail);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Format version written into (and required of) the header.
const MODEL_VERSION: u32 = 1;

/// Header bytes: magic, version `u32`, reserved `u32`, six `u64` dims.
pub(crate) const MODEL_HEADER_LEN: usize = 8 + 4 + 4 + 6 * 8;

/// Verified shape of a `cold-model/v1` artifact: where each probability
/// table lives, in f64 cells from the start of the payload.
///
/// Produced only by [`verify_artifact`], so holding one means the bytes
/// passed magic, version, checksum and section-length validation — the
/// zero-copy [`crate::view::ModelView`] relies on that to hand out
/// slices without per-read checks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArtifactLayout {
    /// Model dimensions from the header.
    pub dims: Dims,
    /// Number of averaged Gibbs samples from the header.
    pub samples: usize,
    /// Section lengths in f64 cells, in `π, θ, η, φ, ψ` order.
    pub section_lens: [usize; 5],
}

impl ArtifactLayout {
    /// Start of section `s` in f64 cells from the payload start.
    pub fn section_start(&self, s: usize) -> usize {
        self.section_lens[..s].iter().sum()
    }
}

/// Validate a `cold-model/v1` byte string end to end — magic, truncation,
/// version, checksum footer, then header dims and the section lengths
/// they imply — and return the layout. Shared by the parsing loader
/// ([`ColdModel::from_binary`]) and the zero-copy view, so the two paths
/// can never drift in what they accept.
pub(crate) fn verify_artifact(bytes: &[u8]) -> Result<ArtifactLayout, PersistError> {
    let bad = |msg: String| PersistError::Format(msg);
    if !bytes.starts_with(&MODEL_MAGIC) {
        return Err(bad("bad magic: not a cold-model/v1 artifact".into()));
    }
    if bytes.len() < MODEL_HEADER_LEN + 8 {
        return Err(bad(format!(
            "cold-model/v1 artifact truncated: {} bytes is below the \
             {}-byte header + footer minimum",
            bytes.len(),
            MODEL_HEADER_LEN + 8
        )));
    }
    let u32_at =
        |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4-byte slice"));
    let u64_at =
        |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8-byte slice"));
    let version = u32_at(8);
    if version != MODEL_VERSION {
        return Err(bad(format!(
            "unsupported cold-model version {version} (expected {MODEL_VERSION})"
        )));
    }
    // Checksum before trusting any length derived from the header.
    let body = &bytes[..bytes.len() - 8];
    let expected = u64_at(bytes.len() - 8);
    let actual = fnv1a64_words(body);
    if actual != expected {
        return Err(bad(format!(
            "checksum mismatch: footer says {expected:#018x}, body hashes to {actual:#018x}"
        )));
    }
    let [u, c, k, t, v] = [0, 1, 2, 3, 4].map(|i| u64_at(16 + 8 * i));
    let samples = u64_at(56) as usize;
    if [u, c, k, t, v].contains(&0) {
        return Err(bad(format!(
            "zero dimension in header: U={u} C={c} K={k} T={t} V={v}"
        )));
    }
    if u > u64::from(u32::MAX) {
        return Err(bad(format!("user count {u} exceeds the u32 id space")));
    }
    // Checked: a product or sum past u64 is a crafted header, and a
    // wrapped one could land on the real length.
    let layout = (|| {
        let ck = c.checked_mul(k)?;
        let lens = [
            u.checked_mul(c)?,
            ck,
            c.checked_mul(c)?,
            k.checked_mul(v)?,
            ck.checked_mul(t)?,
        ];
        let cells = lens
            .iter()
            .try_fold(0u64, |sum, &len| sum.checked_add(len))?;
        Some((lens, cells.checked_mul(8)?))
    })();
    let Some((lens, payload)) = layout else {
        return Err(bad(format!(
            "header dims U={u} C={c} K={k} T={t} V={v} overflow a 64-bit payload length"
        )));
    };
    let carried = (body.len() - MODEL_HEADER_LEN) as u64;
    if payload != carried {
        return Err(bad(format!(
            "section length mismatch: dims imply {payload} payload bytes, file carries {carried}"
        )));
    }
    // Every section fits in the bytes present, so each narrows losslessly.
    let dims = Dims {
        num_users: u as u32,
        num_communities: c as usize,
        num_topics: k as usize,
        num_time_slices: t as usize,
        vocab_size: v as usize,
    };
    let section_lens = lens.map(|len| len as usize);
    Ok(ArtifactLayout {
        dims,
        samples,
        section_lens,
    })
}

impl ColdModel {
    /// The five probability tables in artifact section order.
    fn sections(&self) -> [&Vec<f64>; 5] {
        [&self.pi, &self.theta, &self.eta, &self.phi, &self.psi]
    }

    /// Serialize as a `cold-model/v1` byte string (see the module docs
    /// for the layout).
    pub fn to_binary(&self) -> Vec<u8> {
        let cells: usize = self.sections().iter().map(|s| s.len()).sum();
        let mut out = Vec::with_capacity(MODEL_HEADER_LEN + 8 * cells + 8);
        out.extend_from_slice(&MODEL_MAGIC);
        out.extend_from_slice(&MODEL_VERSION.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // reserved
        for dim in [
            self.dims.num_users as u64,
            self.dims.num_communities as u64,
            self.dims.num_topics as u64,
            self.dims.num_time_slices as u64,
            self.dims.vocab_size as u64,
            self.samples as u64,
        ] {
            out.extend_from_slice(&dim.to_le_bytes());
        }
        for section in self.sections() {
            for &x in section.iter() {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        let checksum = fnv1a64_words(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parse a `cold-model/v1` byte string, verifying magic, version,
    /// section lengths and the checksum footer. Bit-exact: every `f64`
    /// comes back from `from_le_bytes` untouched.
    pub fn from_binary(bytes: &[u8]) -> Result<Self, PersistError> {
        let layout = verify_artifact(bytes)?;
        let mut off = MODEL_HEADER_LEN;
        let mut section = |len: usize| -> Vec<f64> {
            let out = bytes[off..off + 8 * len]
                .chunks_exact(8)
                .map(|ch| f64::from_le_bytes(ch.try_into().expect("8-byte chunk")))
                .collect();
            off += 8 * len;
            out
        };
        Ok(ColdModel {
            dims: layout.dims,
            pi: section(layout.section_lens[0]),
            theta: section(layout.section_lens[1]),
            eta: section(layout.section_lens[2]),
            phi: section(layout.section_lens[3]),
            psi: section(layout.section_lens[4]),
            samples: layout.samples,
        })
    }

    /// Write the model to `path` as a `cold-model/v1` artifact,
    /// atomically: the bytes land in a temp file which is fsynced and
    /// renamed over the destination (the `cold-ckpt` durability protocol),
    /// so a crash mid-save can never leave a torn model file where a good
    /// one used to be.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        atomic_write(path, &self.to_binary())?;
        Ok(())
    }

    /// [`save`](Self::save) under the name the repository benchmark still
    /// calls; it exists only for the benchmark.
    pub fn save_as(
        &self,
        path: impl AsRef<Path>,
        _format: ModelFormat,
    ) -> Result<(), PersistError> {
        self.save(path)
    }

    /// Read a `cold-model/v1` artifact back from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        Self::from_binary(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ColdConfig;
    use crate::sampler::GibbsSampler;
    use cold_graph::CsrGraph;
    use cold_text::CorpusBuilder;

    fn fitted() -> ColdModel {
        let mut b = CorpusBuilder::new();
        b.push_text(0, 0, &["a", "b"]);
        b.push_text(1, 1, &["c", "d"]);
        let corpus = b.build();
        let graph = CsrGraph::from_edges(2, &[(0, 1)]);
        let config = ColdConfig::builder(2, 2)
            .iterations(10)
            .build(&corpus, &graph);
        GibbsSampler::new(&corpus, &graph, config, 1).run()
    }

    #[test]
    fn file_round_trip() {
        let model = fitted();
        // Unique per-process path: a fixed name races when multiple test
        // processes (e.g. `cargo test` across crates) run concurrently.
        let path = std::env::temp_dir().join(format!(
            "cold_model_persist_test_{}.cold",
            std::process::id()
        ));
        model.save(&path).unwrap();
        let back = ColdModel::load(&path).unwrap();
        assert_eq!(back.user_memberships(0), model.user_memberships(0));
        std::fs::remove_file(&path).ok();
    }

    /// `save` is atomic: overwriting an existing model either fully
    /// succeeds or leaves the old file intact, and no temp file lingers.
    #[test]
    fn save_overwrites_atomically() {
        let model = fitted();
        let dir = std::env::temp_dir().join(format!("cold_persist_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.cold");
        std::fs::write(&path, "{stale garbage").unwrap();
        model.save(&path).unwrap();
        let back = ColdModel::load(&path).unwrap();
        assert_eq!(back.num_samples(), model.num_samples());
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names.len(), 1, "temp file left behind: {names:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = ColdModel::load("/definitely/not/here.cold").unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }

    /// Binary round-trip is bit-exact. (The name predates the removal of
    /// the JSON model format it was once compared against.)
    #[test]
    fn binary_round_trip_matches_json_path() {
        let model = fitted();
        let back = ColdModel::from_binary(&model.to_binary()).unwrap();
        assert_eq!(back.dims(), model.dims());
        assert_eq!(back.num_samples(), model.num_samples());
        for i in 0..2 {
            assert_eq!(back.user_memberships(i), model.user_memberships(i));
        }
        for k in 0..2 {
            assert_eq!(back.topic_words(k), model.topic_words(k));
            for c in 0..2 {
                assert_eq!(back.temporal(k, c), model.temporal(k, c));
            }
        }
        for c in 0..2 {
            for c2 in 0..2 {
                assert_eq!(back.eta(c, c2), model.eta(c, c2));
            }
        }
    }

    #[test]
    fn binary_bad_magic_fails_loudly() {
        let model = fitted();
        let mut bytes = model.to_binary();
        bytes[0] ^= 0xFF;
        let err = ColdModel::from_binary(&bytes).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)));
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn binary_truncation_fails_loudly() {
        let model = fitted();
        let bytes = model.to_binary();
        // Sub-header truncation.
        let err = ColdModel::from_binary(&bytes[..16]).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // A lost tail invalidates the checksum (the footer is now section
        // bytes, and the hashed body shrank).
        let err = ColdModel::from_binary(&bytes[..bytes.len() - 8]).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)));
    }

    #[test]
    fn binary_bit_flip_fails_the_checksum() {
        let model = fitted();
        let mut bytes = model.to_binary();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let err = ColdModel::from_binary(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn binary_wrong_version_is_rejected() {
        let model = fitted();
        let mut bytes = model.to_binary();
        bytes[8] = 9; // version little-endian low byte
                      // Re-stamp the checksum so the version check itself is exercised.
        let body_len = bytes.len() - 8;
        let sum = super::fnv1a64_words(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        let err = ColdModel::from_binary(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }
}
