//! Fuzz the `cold-trace/v1` decoder. `cold replay-check` feeds a file's
//! text to `cold_obs::trace::parse_jsonl` and the events to
//! `cold_replay::verify`, and a trace file is whatever is on disk: torn,
//! hand-edited or crafted. So no text may panic either stage or make
//! `verify` run in time or memory that scales with a number the file
//! claims. Each case starts from a protocol-conformant `SynthTrace`
//! stream and mutates it one way: bit flips, truncation, huge or
//! non-integral numbers, lying `seq` / `sweep` / `shards` / `shard` /
//! `cells` values, nested values, or lines duplicated and swapped. Every
//! input must either fail to parse with a typed error, or parse to events
//! that `verify` accepts or rejects with a `Violation`. A failing case
//! prints its seed; `COLD_PROPTEST_SEED=<seed>` replays it.

use cold_obs::trace::{parse_jsonl, to_jsonl, TraceEvent, TraceValue};
use cold_replay::synth::SynthTrace;
use cold_replay::{verify, ViolationKind, DELTA_FAMILIES};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A conformant trace: a few supersteps on 1–3 shards, checkpoints, and
/// sometimes a crash and resume.
fn synth(rng: &mut SmallRng) -> Vec<TraceEvent> {
    let shards = rng.gen_range(1..4u64);
    let mut t = SynthTrace::new(shards);
    let step = |t: &mut SynthTrace, rng: &mut SmallRng| {
        let nets: Vec<Vec<(&'static str, i64)>> = (0..shards)
            .map(|_| {
                (0..rng.gen_range(0..3))
                    .map(|_| {
                        let fam = DELTA_FAMILIES[rng.gen_range(0..DELTA_FAMILIES.len())];
                        (fam, rng.gen_range(-5..6i64))
                    })
                    .collect()
            })
            .collect();
        t.superstep(&nets);
    };
    for _ in 0..rng.gen_range(1..5) {
        step(&mut t, rng);
        if rng.gen_bool(0.5) {
            t.checkpoint();
        }
    }
    if !t.checkpoint_sweeps().is_empty() && rng.gen_bool(0.5) {
        t.crash_and_resume();
        step(&mut t, rng);
    }
    t.events()
}

/// Numbers no writer emits: past `u64`, past `i64`, past `f64`, and
/// fractions.
const HOSTILE_NUMBERS: [&str; 9] = [
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
    "1e308",
    "1e999",
    "-1e999",
    "0.5",
    "-0",
    "4503599627370497",
];

/// Values that are not scalars, or not the scalar a field needs.
const NESTED_VALUES: [&str; 6] = ["{\"x\":1}", "[1,2]", "[]", "{}", "true", "null"];

/// Field values that lie: past any real sweep or shard count, or off by
/// one from the truth.
fn lie(rng: &mut SmallRng, truth: Option<u64>) -> TraceValue {
    match rng.gen_range(0..6) {
        0 => TraceValue::Uint(u64::MAX),
        1 => TraceValue::Uint(1 << rng.gen_range(32..63)),
        2 => TraceValue::Uint(0),
        3 => TraceValue::Int(-rng.gen_range(1..1000i64)),
        4 => TraceValue::Uint(truth.unwrap_or(0).wrapping_add(1)),
        _ => TraceValue::Uint(truth.unwrap_or(1).wrapping_sub(1)),
    }
}

/// Replace the value of one `"name":value` pair in a JSON line with
/// `value`. Lines are flat objects, so a value ends at the next `,` or
/// `}`.
fn replace_value(line: &str, rng: &mut SmallRng, value: &str) -> String {
    let colons: Vec<usize> = line.match_indices("\":").map(|(i, _)| i + 2).collect();
    if colons.is_empty() {
        return line.to_owned();
    }
    let start = colons[rng.gen_range(0..colons.len())];
    let end = line[start..]
        .find([',', '}'])
        .map_or(line.len(), |i| start + i);
    format!("{}{value}{}", &line[..start], &line[end..])
}

fn mutate(rng: &mut SmallRng, events: &mut [TraceEvent]) -> String {
    match rng.gen_range(0..6) {
        // Lying numbers in the events themselves.
        0 => {
            for _ in 0..rng.gen_range(1..4) {
                let ev = &mut events[rng.gen_range(0..events.len())];
                let name =
                    ["seq", "sweep", "shards", "shard", "cells", "sum_n_ck"][rng.gen_range(0..6)];
                if name == "seq" {
                    ev.seq = match lie(rng, Some(ev.seq)) {
                        TraceValue::Uint(v) => v,
                        _ => u64::MAX,
                    };
                } else {
                    let truth = ev.uint(name);
                    ev.set(name, lie(rng, truth));
                }
            }
            to_jsonl(events)
        }
        // Bit flips anywhere in the text.
        1 => {
            let mut bytes = to_jsonl(events).into_bytes();
            for _ in 0..rng.gen_range(1..8) {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8);
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // Truncation at any byte.
        2 => {
            let text = to_jsonl(events);
            let mut cut = rng.gen_range(0..text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text[..cut].to_owned()
        }
        // Huge and non-integral numbers, or nested values, in the text.
        3 | 4 => {
            let text = to_jsonl(events);
            let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
            for _ in 0..rng.gen_range(1..3) {
                let i = rng.gen_range(0..lines.len());
                let value = if rng.gen_bool(0.5) {
                    HOSTILE_NUMBERS[rng.gen_range(0..HOSTILE_NUMBERS.len())]
                } else {
                    NESTED_VALUES[rng.gen_range(0..NESTED_VALUES.len())]
                };
                lines[i] = replace_value(&lines[i], rng, value);
            }
            lines.join("\n")
        }
        // Lines duplicated or swapped: events out of protocol order.
        _ => {
            let text = to_jsonl(events);
            let mut lines: Vec<&str> = text.lines().collect();
            let (a, b) = (rng.gen_range(0..lines.len()), rng.gen_range(0..lines.len()));
            if rng.gen_bool(0.5) {
                lines.swap(a, b);
            } else {
                lines.insert(b, lines[a]);
            }
            lines.join("\n")
        }
    }
}

/// Parse and verify `text`; only a panic fails (or a hang, which the
/// test harness reports as a timeout).
fn check(text: &str) {
    if let Ok(events) = parse_jsonl(text) {
        let _ = verify(&events);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_traces_fail_typed_or_verify(seed in any::<u32>()) {
        let mut rng = SmallRng::seed_from_u64(u64::from(seed));
        let mut events = synth(&mut rng);
        let clean = to_jsonl(&events);
        prop_assert!(
            verify(&parse_jsonl(&clean).expect("a written trace parses")).is_ok(),
            "the unmutated trace must verify"
        );
        check(&mutate(&mut rng, &mut events));
    }
}

/// One superstep on `shards` shards, with `edit` applied to its events.
fn one_superstep(shards: u64, edit: impl FnOnce(&mut Vec<TraceEvent>)) -> Vec<TraceEvent> {
    let mut t = SynthTrace::new(shards);
    t.superstep(&vec![vec![("n_ck", 1)]; shards as usize]);
    let mut events = t.events();
    edit(&mut events);
    events
}

/// Kept case: per-family cell counts that add past `u64::MAX` are a
/// malformed summary, not an overflow panic.
#[test]
fn cell_counts_that_overflow_are_malformed() {
    let events = one_superstep(1, |events| {
        let delta = &mut events[1];
        delta.set("cells_n_ic", TraceValue::Uint(u64::MAX));
        delta.set("cells_n_i", TraceValue::Uint(2));
    });
    let err = verify(&events).unwrap_err();
    assert_eq!(err.kind, ViolationKind::Malformed, "{err}");
}

/// Kept case: a superstep at sweep `u64::MAX`, which has no next sweep,
/// is malformed, not an overflow panic.
#[test]
fn the_last_sweep_number_is_malformed() {
    let events = one_superstep(1, |events| {
        for ev in events.iter_mut() {
            ev.set("sweep", TraceValue::Uint(u64::MAX));
        }
    });
    let err = verify(&events).unwrap_err();
    assert_eq!(err.kind, ViolationKind::Malformed, "{err}");
}

/// Kept case: a superstep claiming 2^62 shards, with one delta announced,
/// fails at once, naming a few missing shards rather than walking all
/// the claimed ones.
#[test]
fn a_lying_shard_count_fails_without_listing_every_shard() {
    let events = one_superstep(1, |events| {
        for ev in events.iter_mut() {
            if ev.get("shards").is_some() {
                ev.set("shards", TraceValue::Uint(1 << 62));
            }
        }
    });
    let err = verify(&events).unwrap_err();
    assert_eq!(err.kind, ViolationKind::MissingDelta, "{err}");
    assert!(err.detail.len() < 200, "{}", err.detail);
}
