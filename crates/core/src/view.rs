//! Zero-copy read-only model views for serving.
//!
//! Training hands back an owned [`ColdModel`](crate::ColdModel); a server
//! wants the opposite trade: open a multi-gigabyte `cold-model/v1`
//! artifact in roughly the time it takes to read the file, with no
//! per-cell parse and no second copy of the tables. [`ModelView`] delivers
//! that by loading the artifact into **one 8-byte-aligned buffer** (a
//! `Vec<u64>`, whose alignment guarantee is exactly the f64 sections'
//! requirement) and serving every probability row as a slice straight
//! into that buffer — the in-place read the artifact layout was designed
//! for (every section starts 8-byte aligned behind the 64-byte header).
//! It implements [`ModelRead`], so a `DiffusionPredictor<Arc<ModelView>>`
//! runs the same Eq. 5–7 code as one over an owned model.

use crate::estimates::ModelRead;
use crate::params::Dims;
use crate::persist::{verify_artifact, PersistError, MODEL_HEADER_LEN};
use std::io::Read;
use std::path::Path;

/// A `cold-model/v1` artifact held verbatim in memory, read in place.
///
/// The five probability tables are slices into the load buffer — opening
/// a model allocates once and never walks the cells (except for the
/// checksum pass that every load performs).
#[derive(Debug)]
pub struct ModelView {
    /// The whole artifact, as little-endian 64-bit words converted to
    /// native endianness at load. `Vec<u64>` rather than `Vec<u8>` so the
    /// allocation is 8-byte aligned and the f64 reinterpret below is
    /// layout-sound on every platform.
    buf: Vec<u64>,
    dims: Dims,
    samples: usize,
    /// Section starts in f64 cells from the payload start, `π θ η φ ψ`.
    starts: [usize; 5],
    /// Section lengths in f64 cells.
    lens: [usize; 5],
}

/// Payload start in u64 words (the 64-byte header).
const PAYLOAD_WORD: usize = MODEL_HEADER_LEN / 8;

impl ModelView {
    /// Open and verify an artifact file.
    ///
    /// The bytes are read into the aligned buffer, checksummed and
    /// length-checked by the same [`verify_artifact`] the parsing loader
    /// uses, then served in place.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let mut file = std::fs::File::open(path)?;
        let len = file.metadata()?.len() as usize;
        let mut buf = vec![0u64; len.div_ceil(8)];
        // SAFETY: viewing the u64 buffer as bytes; `len` never exceeds
        // `buf.len() * 8`, and u8 has no alignment or validity
        // requirements. A sub-word tail (only possible in a corrupt file)
        // leaves the final word zero-padded, which `verify_artifact`
        // rejects via the checksum/length checks.
        let bytes = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), len) };
        file.read_exact(bytes)?;
        Self::from_words(buf, len)
    }

    /// Verify an artifact already sitting in an aligned buffer. `len` is
    /// the artifact's byte length (the final word may be padding).
    fn from_words(buf: Vec<u64>, len: usize) -> Result<Self, PersistError> {
        // SAFETY: same cast as in `open`, immutable this time.
        let bytes = unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), len) };
        let layout = verify_artifact(bytes)?;
        // The artifact is little-endian on disk; on big-endian targets
        // convert in place once so section reads are native loads.
        #[cfg(target_endian = "big")]
        let buf = {
            let mut buf = buf;
            for w in buf.iter_mut() {
                *w = u64::from_le(*w);
            }
            buf
        };
        let starts = [0, 1, 2, 3, 4].map(|s| layout.section_start(s));
        Ok(Self {
            buf,
            dims: layout.dims,
            samples: layout.samples,
            starts,
            lens: layout.section_lens,
        })
    }

    /// Verify that `path` holds a loadable model and return its
    /// dimensions, without keeping the view.
    ///
    /// This is the artifact re-verification gate the serving layer runs
    /// before committing to a hot reload: the full header/length/checksum
    /// pass, so a torn or half-copied file is rejected before any
    /// expensive predictor precompute. The buffer is dropped on return —
    /// the caller re-opens only once the bytes are known good.
    pub fn verify_file(path: impl AsRef<Path>) -> Result<Dims, PersistError> {
        Ok(Self::open(path)?.dims)
    }

    /// Bytes held resident for this model (the whole artifact).
    pub fn resident_bytes(&self) -> usize {
        self.buf.len() * 8
    }

    /// Section `s` (`π θ η φ ψ` order) as f64 cells, in place.
    fn section(&self, s: usize) -> &[f64] {
        let start = PAYLOAD_WORD + self.starts[s];
        let words = &self.buf[start..start + self.lens[s]];
        // SAFETY: u64 and f64 agree in size and alignment, every 64-bit
        // pattern is a valid f64 (NaNs included — ranking code uses
        // `total_cmp` for exactly that reason), and the slice stays
        // borrowed from `self`, so the buffer outlives the view.
        unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<f64>(), words.len()) }
    }
}

impl ModelRead for ModelView {
    fn dims(&self) -> Dims {
        self.dims
    }

    fn num_samples(&self) -> usize {
        self.samples
    }

    fn user_memberships(&self, user: u32) -> &[f64] {
        let c = self.dims.num_communities;
        &self.section(0)[user as usize * c..(user as usize + 1) * c]
    }

    fn community_topics(&self, community: usize) -> &[f64] {
        let k = self.dims.num_topics;
        &self.section(1)[community * k..(community + 1) * k]
    }

    fn eta(&self, c: usize, c2: usize) -> f64 {
        self.section(2)[c * self.dims.num_communities + c2]
    }

    fn topic_words(&self, topic: usize) -> &[f64] {
        let v = self.dims.vocab_size;
        &self.section(3)[topic * v..(topic + 1) * v]
    }

    fn temporal(&self, topic: usize, community: usize) -> &[f64] {
        let t = self.dims.num_time_slices;
        let k = self.dims.num_topics;
        let base = (community * k + topic) * t;
        &self.section(4)[base..base + t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimates::ColdModel;
    use crate::params::ColdConfig;
    use crate::sampler::GibbsSampler;
    use cold_graph::CsrGraph;
    use cold_text::CorpusBuilder;

    fn fitted() -> ColdModel {
        let mut b = CorpusBuilder::new();
        b.push_text(0, 0, &["a", "b"]);
        b.push_text(1, 1, &["c", "d"]);
        b.push_text(2, 2, &["a", "c"]);
        let corpus = b.build();
        let graph = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let config = ColdConfig::builder(2, 2)
            .iterations(10)
            .build(&corpus, &graph);
        GibbsSampler::new(&corpus, &graph, config, 3).run()
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cold_view_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every cell read through the mapped view is bit-identical to the
    /// owned model that wrote the artifact.
    #[test]
    fn mapped_reads_are_bit_exact() {
        let model = fitted();
        let dir = tmpdir("bitexact");
        let path = dir.join("model.cold");
        model.save(&path).unwrap();
        let view = ModelView::open(&path).unwrap();
        assert_eq!(view.dims(), model.dims());
        assert_eq!(view.num_samples(), model.num_samples());
        for i in 0..3 {
            assert_eq!(view.user_memberships(i), model.user_memberships(i));
        }
        for c in 0..2 {
            assert_eq!(view.community_topics(c), model.community_topics(c));
            for c2 in 0..2 {
                assert_eq!(ModelRead::eta(&view, c, c2), ColdModel::eta(&model, c, c2));
            }
        }
        for k in 0..2 {
            assert_eq!(view.topic_words(k), model.topic_words(k));
            for c in 0..2 {
                assert_eq!(view.temporal(k, c), model.temporal(k, c));
            }
        }
        assert!(view.resident_bytes() >= MODEL_HEADER_LEN);
        assert_eq!(ModelView::verify_file(&path).unwrap(), model.dims());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Corruption fails loudly through the shared verifier.
    #[test]
    fn view_rejects_corrupt_artifacts() {
        let model = fitted();
        let dir = tmpdir("corrupt");
        let path = dir.join("model.cold");
        let mut bytes = model.to_binary();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = ModelView::open(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // Truncation (drops the footer) is also rejected.
        std::fs::write(&path, &model.to_binary()[..40]).unwrap();
        let err = ModelView::open(&path).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // The pre-reload verification gate rejects the same corruption.
        assert!(ModelView::verify_file(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A predictor over an `Arc<ModelView>` scores identically to one
    /// over the owned model — the serving path changes storage, not math.
    #[test]
    fn predictor_over_view_matches_owned() {
        use crate::predict::DiffusionPredictor;
        use std::sync::Arc;
        let model = fitted();
        let dir = tmpdir("pred");
        let path = dir.join("model.cold");
        model.save(&path).unwrap();
        let view = Arc::new(ModelView::open(&path).unwrap());
        let owned = DiffusionPredictor::new(&model, 2).unwrap();
        let mapped = DiffusionPredictor::new(view, 2).unwrap();
        for (i, i2) in [(0u32, 1u32), (1, 2), (2, 0)] {
            assert_eq!(
                owned.diffusion_score(i, i2, &[0, 1]).unwrap(),
                mapped.diffusion_score(i, i2, &[0, 1]).unwrap()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
