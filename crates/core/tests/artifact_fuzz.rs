//! Fuzz the `cold-model/v1` decoder. Artifacts arrive from disk and from
//! `/reload` requests, and the FNV-1a footer catches torn files, not
//! crafted ones: anyone can re-stamp it over any header. So no byte
//! string may panic either entry point, `ColdModel::from_binary` (a
//! slice) or `ColdModel::open` (a file), or make it allocate more than
//! the input's own length. Each case starts from a valid artifact and
//! mutates it one way: bit flips, truncation, or header dims rewritten
//! under a re-stamped checksum (products that overflow, products that
//! wrap onto the real payload length, a user count past `u32::MAX`,
//! zeros, and other factorizations of the real length). Every input
//! must either fail both entry points with a typed error, or round-trip
//! bit-exact through both and then build a `DiffusionPredictor` (or fail
//! with a `PredictError`). A failing case prints its seed;
//! `COLD_PROPTEST_SEED=<seed>` replays it.

use cold_core::{ColdConfig, ColdModel, DiffusionPredictor, GibbsSampler, PersistError};
use cold_graph::CsrGraph;
use cold_text::CorpusBuilder;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};

/// The system allocator, recording the largest single request made on
/// the current thread since the last [`take_peak`].
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

fn take_peak() -> usize {
    PEAK.with(|p| p.replace(0))
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// What any single allocation while decoding `len` bytes may reach: a
/// table or the read buffer (each at most `len`), or a short error
/// message. A buffer sized from a hostile header exceeds it.
fn alloc_bound(len: usize) -> usize {
    len.max(1024)
}

/// Header bytes before the payload; the dims sit at 16, 24, …, 56.
const HEADER: usize = 64;

/// A small fitted model's artifact, built once.
fn good() -> &'static [u8] {
    static GOOD: OnceLock<Vec<u8>> = OnceLock::new();
    GOOD.get_or_init(|| {
        let mut b = CorpusBuilder::new();
        b.push_text(0, 0, &["a", "b"]);
        b.push_text(1, 1, &["c", "d"]);
        b.push_text(2, 2, &["a", "c"]);
        let corpus = b.build();
        let graph = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let config = ColdConfig::builder(2, 2)
            .iterations(10)
            .build(&corpus, &graph);
        GibbsSampler::new(&corpus, &graph, config, 3)
            .run()
            .to_binary()
    })
}

/// The format's footer: FNV-1a64 over little-endian words, zero-padded.
fn restamp(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in bytes[..body].chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        hash ^= u64::from_le_bytes(word);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    bytes[body..].copy_from_slice(&hash.to_le_bytes());
}

/// `bytes` with the header dims `[U, C, K, T, V]` replaced and the
/// footer re-stamped, so only the dims checks stand between it and the
/// tables.
fn with_dims(bytes: &[u8], dims: [u64; 5]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for (i, d) in dims.into_iter().enumerate() {
        out[16 + 8 * i..24 + 8 * i].copy_from_slice(&d.to_le_bytes());
    }
    restamp(&mut out);
    out
}

/// Header dims that a checked decoder must reject but that unchecked
/// `usize` arithmetic maps onto `cells` payload cells, or overflows.
fn hostile_dims(rng: &mut SmallRng, cells: u64) -> [u64; 5] {
    match rng.gen_range(0..6) {
        // C·C wraps to 0, and C·K·T = 2^32·(2^32 − 2)… wraps so that the
        // sum lands exactly on the real length.
        0 => [1, 1 << 32, 1, (1 << 32) - 2, cells],
        // The byte count `8·sum` wraps onto the real length.
        1 => [1, 1, 1, 1, cells + (1 << 61) - 4],
        // The sum of sections wraps onto the real length.
        2 => [1, 1, 1, u64::MAX - cells - 2, 2 * cells],
        // A plain overflow somewhere.
        3 => {
            let mut dims = [0u64; 5].map(|_| rng.gen_range(1..1 << 20));
            dims[rng.gen_range(0..5)] = rng.gen_range(1 << 33..u64::MAX);
            dims
        }
        // More users than the u32 id space holds.
        4 => [u64::from(u32::MAX) + rng.gen_range(1..1 << 20), 1, 1, 1, 1],
        // Zeros, the rest small.
        _ => {
            let mut dims = [0u64; 5].map(|_| rng.gen_range(0..8));
            dims[rng.gen_range(0..5)] = 0;
            dims
        }
    }
}

/// Another factorization of the real payload: small C, K, T, V and the
/// U that makes the section lengths add up, if one exists.
fn refactored_dims(rng: &mut SmallRng, cells: u64) -> [u64; 5] {
    let [c, k, t, v] = [0; 4].map(|_| rng.gen_range(1..5u64));
    let rest = c * k + c * c + k * v + c * k * t;
    let u = cells.saturating_sub(rest) / c;
    [u, c, k, t, v]
}

fn mutate(rng: &mut SmallRng, good: &[u8]) -> Vec<u8> {
    let cells = ((good.len() - HEADER - 8) / 8) as u64;
    match rng.gen_range(0..5) {
        0 => {
            let mut bytes = good.to_vec();
            for _ in 0..rng.gen_range(1..8) {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8);
            }
            bytes
        }
        1 => good[..rng.gen_range(0..good.len())].to_vec(),
        2 => with_dims(good, hostile_dims(rng, cells)),
        // A header-only artifact (no payload) with hostile dims.
        3 => {
            let mut bytes = good[..HEADER + 8].to_vec();
            bytes[HEADER..].fill(0);
            with_dims(&bytes, hostile_dims(rng, 0))
        }
        _ => with_dims(good, refactored_dims(rng, cells)),
    }
}

/// Decode `bytes` both ways and check the outcome.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    // One file per test thread: the two tests run concurrently.
    let path = std::env::temp_dir().join(format!(
        "cold_artifact_fuzz_{}_{:?}.cold",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, bytes).expect("write artifact");
    take_peak();
    let from_slice = ColdModel::from_binary(bytes);
    let slice_peak = take_peak();
    let from_file = ColdModel::open(&path);
    let file_peak = take_peak();
    std::fs::remove_file(&path).ok();
    for (entry, peak) in [("from_binary", slice_peak), ("open", file_peak)] {
        prop_assert!(
            peak <= alloc_bound(bytes.len()),
            "{} allocated {} bytes at once for a {}-byte input",
            entry,
            peak,
            bytes.len()
        );
    }
    match (from_slice, from_file) {
        (Err(PersistError::Format(_)), Err(PersistError::Format(_))) => Ok(()),
        (Ok(sliced), Ok(opened)) => {
            prop_assert!(sliced.to_binary() == bytes, "from_binary is not bit-exact");
            prop_assert!(opened.to_binary() == bytes, "open is not bit-exact");
            let users = opened.dims().num_users;
            // A `PredictError` is a typed outcome too; only a panic fails.
            let _ = DiffusionPredictor::new(Arc::new(opened), 2)
                .and_then(|predictor| predictor.diffusion_score(0, users - 1, &[0]));
            Ok(())
        }
        (sliced, opened) => Err(TestCaseError::Fail(format!(
            "entry points disagree or fail untyped: from_binary {:?}, open {:?}",
            sliced.map(|m| m.dims()),
            opened.map(|m| m.dims())
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_artifacts_fail_typed_or_round_trip(seed in any::<u32>()) {
        let mut rng = SmallRng::seed_from_u64(u64::from(seed));
        check(&mutate(&mut rng, good()))?;
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    let good = good();
    for len in 0..good.len() {
        if let Err(e) = check(&good[..len]) {
            panic!("truncation to {len} bytes: {e:?}");
        }
    }
    check(good).expect("the untouched artifact round-trips");
}
