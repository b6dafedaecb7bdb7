//! Fuzz the `cold-ckpt/v1` decoder. `cold train --resume` reads
//! checkpoints from disk, and the FNV-1a header checksum catches torn
//! files, not crafted ones: anyone can re-stamp it over any payload. So no
//! byte string may panic `Checkpoint::decode`. Each case starts from a
//! stored sequential checkpoint and mutates it one way: bit flips, a
//! header payload length that lies, dims rewritten under a re-stamped
//! checksum (products that overflow, products that wrap onto the real
//! table lengths, dims that disagree between the config, the state and
//! the partial averages), other numbers made huge or negative, a payload
//! cut short, or deeply nested JSON. Every input must either fail with a
//! typed error or decode to a checkpoint that re-encodes and decodes to
//! itself. A failing case prints its seed; `COLD_PROPTEST_SEED=<seed>`
//! replays it.

use cold_core::checkpoint::fnv1a64;
use cold_core::{Checkpoint, CkptError};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A sequential checkpoint (U = 12, C = 2, K = 2, T = 4, V = 30) as an
/// earlier build wrote it, read once.
fn good() -> &'static [u8] {
    static GOOD: OnceLock<Vec<u8>> = OnceLock::new();
    GOOD.get_or_init(|| fixture("ckpt_batch_parent.ckpt"))
}

/// The JSON payload of the stored checkpoint.
fn payload() -> &'static str {
    let bytes = good();
    let newline = bytes.iter().position(|&b| b == b'\n').expect("header line");
    std::str::from_utf8(&bytes[newline + 1..bytes.len() - 1]).expect("UTF-8 payload")
}

/// `payload` under a freshly stamped header, so only the decoder's own
/// checks stand between it and a `Checkpoint`.
fn stamped(payload: &str) -> Vec<u8> {
    format!(
        "cold-ckpt/v1 {} {:016x}\n{payload}\n",
        payload.len(),
        fnv1a64(payload.as_bytes())
    )
    .into_bytes()
}

/// `payload` with the integer after the `nth` `"key":` replaced by
/// `value`, or after every one when `nth` is `None`.
fn set_int(payload: &str, key: &str, nth: Option<usize>, value: &str) -> String {
    let pat = format!("\"{key}\":");
    let (mut out, mut rest, mut seen) = (String::new(), payload, 0);
    while let Some(at) = rest.find(&pat) {
        let start = at + pat.len();
        let end = rest[start..]
            .find(|ch: char| !ch.is_ascii_digit())
            .map_or(rest.len(), |n| start + n);
        out.push_str(&rest[..start]);
        out.push_str(if nth.is_none_or(|n| n == seen) {
            value
        } else {
            &rest[start..end]
        });
        seen += 1;
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

/// The dim fields: `num_users` sits in the config and the accumulator,
/// the other four also in the state, `time_comm_rows` in the state only.
const DIMS: [&str; 6] = [
    "num_users",
    "num_communities",
    "num_topics",
    "num_time_slices",
    "vocab_size",
    "time_comm_rows",
];

/// Dims whose every product wraps mod 2⁶⁴ onto the stored table
/// lengths (K·V = 60, C·K = 4, U·C = 24, …), so unchecked `usize`
/// arithmetic accepts them; the first overflows K·V to 0.
const WRAPPING_DIMS: [(&str, u128); 5] = [
    ("vocab_size", 1 << 63),
    ("vocab_size", (1 << 63) + 30),
    ("num_topics", (1 << 63) + 2),
    ("num_communities", (1 << 63) + 2),
    ("num_time_slices", (1 << 62) + 4),
];

/// A dim that wraps onto the stored lengths, overflows outright, does
/// not fit the field, or is merely small.
fn hostile_dim(rng: &mut SmallRng) -> (&'static str, String) {
    let any = DIMS[rng.gen_range(0..DIMS.len())];
    let (key, value) = match rng.gen_range(0..5) {
        0 | 1 => WRAPPING_DIMS[rng.gen_range(0..WRAPPING_DIMS.len())],
        2 => (any, u128::from(rng.gen_range(1u64 << 31..u64::MAX))),
        3 => (any, 1 << 64),
        _ => (any, rng.gen_range(0..4u64).into()),
    };
    (key, value.to_string())
}

/// A number no table length or dim can hold.
fn huge_number(rng: &mut SmallRng) -> String {
    match rng.gen_range(0..5) {
        0 => u64::MAX.to_string(),
        1 => format!("{}", u128::MAX),
        2 => "-1".to_owned(),
        3 => "1e400".to_owned(),
        _ => "9".repeat(rng.gen_range(20..400)),
    }
}

fn mutate(rng: &mut SmallRng) -> Vec<u8> {
    let payload = payload();
    match rng.gen_range(0..6) {
        0 => {
            let mut bytes = good().to_vec();
            for _ in 0..rng.gen_range(1..8) {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8);
            }
            bytes
        }
        // A header whose payload length lies.
        1 => {
            let real = payload.len();
            let len = match rng.gen_range(0..6) {
                0 => (real + rng.gen_range(1..64)).to_string(),
                1 => (real - rng.gen_range(1..64)).to_string(),
                2 => "0".to_owned(),
                3 => usize::MAX.to_string(),
                4 => format!("+{real}"),
                _ => huge_number(rng),
            };
            let mut bytes =
                format!("cold-ckpt/v1 {len} {:016x}\n", fnv1a64(payload.as_bytes())).into_bytes();
            bytes.extend_from_slice(payload.as_bytes());
            bytes.push(b'\n');
            bytes
        }
        // Dims rewritten everywhere they appear, or in one place only.
        2 => {
            let (key, value) = hostile_dim(rng);
            let nth = rng.gen_bool(0.5).then(|| rng.gen_range(0..3));
            stamped(&set_int(payload, key, nth, &value))
        }
        // Some other number made huge or negative.
        3 => {
            let starts: Vec<usize> = payload
                .match_indices([':', ',', '['])
                .map(|(i, _)| i + 1)
                .filter(|&i| payload[i..].starts_with(|ch: char| ch.is_ascii_digit() || ch == '-'))
                .collect();
            let at = starts[rng.gen_range(0..starts.len())];
            let end = payload[at..]
                .find(|ch: char| !(ch.is_ascii_digit() || "-+.eE".contains(ch)))
                .map_or(payload.len(), |n| at + n);
            let huge = huge_number(rng);
            stamped(&format!("{}{huge}{}", &payload[..at], &payload[end..]))
        }
        // A payload cut short, with a checksum that matches the cut.
        4 => stamped(&payload[..rng.gen_range(0..payload.len())]),
        // The training trace nested far deeper than any real document.
        _ => {
            let depth = rng.gen_range(100..20_000);
            let trace = payload.find("\"trace\":").expect("trace field") + "\"trace\":".len();
            let nested = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            stamped(&format!(
                "{}{nested}{}",
                &payload[..trace],
                &payload[trace..]
            ))
        }
    }
}

/// Decode `bytes`: a typed error, or a checkpoint that round-trips.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    match Checkpoint::decode(bytes) {
        Err(CkptError::Format(_) | CkptError::Corrupt(_)) => Ok(()),
        Err(other) => Err(TestCaseError::Fail(format!(
            "decode failed with a non-format error: {other}"
        ))),
        Ok(ckpt) => {
            let again = Checkpoint::decode(&ckpt.encode());
            prop_assert!(
                again.as_ref().is_ok_and(|back| *back == ckpt),
                "the decoded checkpoint does not round-trip: {:?}",
                again.err()
            );
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_checkpoints_fail_typed_or_round_trip(seed in any::<u32>()) {
        let mut rng = SmallRng::seed_from_u64(u64::from(seed));
        check(&mutate(&mut rng))?;
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    let good = good();
    for len in 0..good.len() {
        assert!(
            matches!(
                Checkpoint::decode(&good[..len]),
                Err(CkptError::Format(_) | CkptError::Corrupt(_))
            ),
            "truncation to {len} bytes"
        );
    }
    check(good).expect("the stored checkpoint round-trips");
}

/// Dims whose products overflow `usize`, or wrap onto the stored table
/// lengths, are format errors: they used to panic the debug build and
/// pass the release build's shape checks.
#[test]
fn overflowing_dims_are_format_errors() {
    for (key, value) in WRAPPING_DIMS {
        let bytes = stamped(&set_int(payload(), key, None, &value.to_string()));
        match Checkpoint::decode(&bytes) {
            Err(CkptError::Format(_)) => {}
            other => panic!("{key} = {value}: {other:?}"),
        }
    }
}

/// A streaming snapshot from an earlier build names its retired kind.
#[test]
fn a_stored_online_checkpoint_is_a_format_error_naming_its_kind() {
    match Checkpoint::decode(&fixture("ckpt_online_parent.ckpt")) {
        Err(CkptError::Format(msg)) => assert!(msg.contains("Online"), "{msg}"),
        other => panic!("expected a format error, got {other:?}"),
    }
}
