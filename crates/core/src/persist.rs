//! Model persistence.
//!
//! A fitted [`ColdModel`] is a set of dense probability tables; training it
//! on real data can take hours (the paper's Fig. 14), so the model must
//! outlive the process. It has one on-disk format, the **`cold-model/v1`**
//! artifact: a fixed 64-byte header (magic `COLDMDL1`, version, the six
//! dimensions as little-endian `u64`s), the five probability tables as
//! back-to-back little-endian `f64` sections in declaration order
//! (`π, θ, η, φ, ψ`), and an FNV-1a64 checksum footer over everything
//! before it (computed over little-endian 64-bit words — see
//! [`fnv1a64_words`]), following the `cold-ckpt/v1` durability
//! conventions.
//!
//! One decoder reads it, for [`ColdModel::open`] (a file) and
//! [`ColdModel::from_binary`] (a byte slice) alike. It treats the header
//! dimensions as untrusted — the checksum catches torn and corrupted
//! files, not crafted ones — so every section length is computed with
//! checked arithmetic and must add up to the bytes actually present
//! before anything sized from the header is allocated. It then streams
//! each section straight into its table, hashing as it goes: the file's
//! bytes are copied once, into the tables, bit-exact.

use crate::checkpoint::atomic_write;
use crate::estimates::ColdModel;
use crate::params::Dims;
use std::io::{ErrorKind, Read};
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a64 step over a whole 64-bit word. Same offset basis and
/// prime as `cold-ckpt`'s byte-wise `fnv1a64`, but consuming 8 bytes per
/// multiply: the hash is a serial dependency chain, and at artifact sizes
/// (hundreds of MiB) a byte-at-a-time walk would dominate the load.
fn fnv1a64_step(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// FNV-1a64 over `bytes` viewed as little-endian 64-bit words. An
/// artifact is always whole words, so there is no tail to pad.
fn fnv1a64_words(bytes: &[u8]) -> u64 {
    debug_assert_eq!(bytes.len() % 8, 0, "artifact bodies are whole words");
    bytes.chunks_exact(8).fold(FNV_OFFSET, |hash, ch| {
        fnv1a64_step(
            hash,
            u64::from_le_bytes(ch.try_into().expect("8-byte chunk")),
        )
    })
}

/// Format version written into (and required of) the header.
const MODEL_VERSION: u32 = 1;

/// Header bytes: magic, version `u32`, reserved `u32`, six `u64` dims.
const MODEL_HEADER_LEN: usize = 8 + 4 + 4 + 6 * 8;

/// Bytes read from the source per call while streaming the sections.
const READ_CHUNK: usize = 1 << 16;

/// Decode a `cold-model/v1` artifact of `len` bytes from `src`.
///
/// The one decoder behind [`ColdModel::open`] and
/// [`ColdModel::from_binary`]. In order: the header (magic, version,
/// non-zero dims, `U ≤ u32::MAX`); the section lengths the dims imply, in
/// checked arithmetic, against `len` minus header and footer — nothing is
/// allocated from the header before that check passes; each section
/// streamed into its table while the words are hashed; and finally the
/// checksum footer, after which the source must be exhausted.
fn decode(mut src: impl Read, len: u64) -> Result<ColdModel, PersistError> {
    let bad = |msg: String| PersistError::Format(msg);
    let mut header = [0u8; MODEL_HEADER_LEN];
    let head = len.min(MODEL_HEADER_LEN as u64) as usize;
    read_exact(&mut src, &mut header[..head])?;
    if !header[..head].starts_with(&MODEL_MAGIC) {
        return Err(bad("bad magic: not a cold-model/v1 artifact".into()));
    }
    if len < (MODEL_HEADER_LEN + 8) as u64 {
        return Err(bad(format!(
            "cold-model/v1 artifact truncated: {len} bytes is below the \
             {}-byte header + footer minimum",
            MODEL_HEADER_LEN + 8
        )));
    }
    let u32_at =
        |off: usize| u32::from_le_bytes(header[off..off + 4].try_into().expect("4-byte slice"));
    let u64_at =
        |off: usize| u64::from_le_bytes(header[off..off + 8].try_into().expect("8-byte slice"));
    let version = u32_at(8);
    if version != MODEL_VERSION {
        return Err(bad(format!(
            "unsupported cold-model version {version} (expected {MODEL_VERSION})"
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
    let carried = len - (MODEL_HEADER_LEN + 8) as u64;
    if payload != carried {
        return Err(bad(format!(
            "section length mismatch: dims imply {payload} payload bytes, file carries {carried}"
        )));
    }

    // Every section fits in the bytes present, so each narrows losslessly
    // and each allocation is bounded by the source's real length.
    let mut hash = fnv1a64_words(&header);
    let mut chunk = vec![0u8; payload.min(READ_CHUNK as u64) as usize];
    let mut tables: [Vec<f64>; 5] = Default::default();
    for (table, &cells) in tables.iter_mut().zip(&lens) {
        table.reserve_exact(cells as usize);
        let mut left = 8 * cells as usize;
        while left > 0 {
            let bytes = &mut chunk[..left.min(READ_CHUNK)];
            read_exact(&mut src, bytes)?;
            for word in bytes.chunks_exact(8) {
                let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
                hash = fnv1a64_step(hash, word);
                table.push(f64::from_bits(word));
            }
            left -= bytes.len();
        }
    }
    let mut footer = [0u8; 8];
    read_exact(&mut src, &mut footer)?;
    let expected = u64::from_le_bytes(footer);
    if hash != expected {
        return Err(bad(format!(
            "checksum mismatch: footer says {expected:#018x}, body hashes to {hash:#018x}"
        )));
    }
    if src.read(&mut [0u8; 1])? != 0 {
        return Err(bad(format!(
            "section length mismatch: the source holds more than its {len} bytes"
        )));
    }
    let [pi, theta, eta, phi, psi] = tables;
    Ok(ColdModel {
        dims: Dims {
            num_users: u as u32,
            num_communities: c as usize,
            num_topics: k as usize,
            num_time_slices: t as usize,
            vocab_size: v as usize,
        },
        pi,
        theta,
        eta,
        phi,
        psi,
        samples,
    })
}

/// `read_exact` that reports a source ending early — a file cut short
/// while it was read — as a truncated artifact rather than an I/O fault.
fn read_exact(src: &mut impl Read, buf: &mut [u8]) -> Result<(), PersistError> {
    src.read_exact(buf).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => PersistError::Format(
            "cold-model/v1 artifact truncated: the source ended before its length".into(),
        ),
        _ => PersistError::Io(e),
    })
}

impl ColdModel {
    /// Serialize as a `cold-model/v1` byte string (see the module docs
    /// for the layout).
    pub fn to_binary(&self) -> Vec<u8> {
        let sections = [&self.pi, &self.theta, &self.eta, &self.phi, &self.psi];
        let cells: usize = sections.iter().map(|s| s.len()).sum();
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
        for section in sections {
            for &x in section.iter() {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        let checksum = fnv1a64_words(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decode a `cold-model/v1` byte string, verifying magic, version,
    /// section lengths and the checksum footer. Bit-exact: every `f64`
    /// comes back from its little-endian bits untouched.
    pub fn from_binary(bytes: &[u8]) -> Result<Self, PersistError> {
        decode(bytes, bytes.len() as u64)
    }

    /// Open the `cold-model/v1` artifact at `path`, streaming it into the
    /// tables with the same checks as [`from_binary`](Self::from_binary).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        decode(file, len)
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
        let back = ColdModel::open(&path).unwrap();
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
        let back = ColdModel::open(&path).unwrap();
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
        let err = ColdModel::open("/definitely/not/here.cold").unwrap_err();
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
        // A lost footer fails the length check, before any section is
        // read or allocated.
        let err = ColdModel::from_binary(&bytes[..bytes.len() - 8]).unwrap_err();
        assert!(err.to_string().contains("section length"), "{err}");
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

    /// The decoder reads exactly the promised bytes: a source that ends
    /// early is a truncated artifact, and one that runs past its length
    /// (a file that grew while it was read) is rejected too.
    #[test]
    fn the_source_must_hold_exactly_its_length() {
        let bytes = fitted().to_binary();
        let short = &bytes[..bytes.len() - 3];
        let err = decode(short, bytes.len() as u64).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        let mut long = bytes.clone();
        long.push(0);
        let err = decode(&long[..], bytes.len() as u64).unwrap_err();
        assert!(err.to_string().contains("section length"), "{err}");
        assert!(decode(&bytes[..], bytes.len() as u64).is_ok());
    }
}
