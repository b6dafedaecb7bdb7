//! Fuzz the `/predict` body decoder. `App::parse_predict` runs on the
//! event loop that read the request, so no byte string may panic it or
//! overflow its stack: every input must come back as `Ok` or as an `Err`
//! the loop answers with `400`. Each case mutates a valid body one way:
//! bit flips, truncation, deep nesting, huge and negative numbers, or a
//! word array either side of [`MAX_PREDICT_WORDS`]. A failing case
//! prints its seed; `COLD_PROPTEST_SEED=<seed>` replays it.

mod common;

use cold_obs::Metrics;
use cold_serve::app::MAX_PREDICT_WORDS;
use cold_serve::App;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// The standard two-block world with its vocabulary, loaded once.
fn app() -> &'static App {
    static APP: OnceLock<App> = OnceLock::new();
    APP.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("cold_predict_fuzz_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = common::model_file(&dir, "model.cold", 5);
        let app = App::load(&path, 2, 4, Some(common::vocab()), Metrics::enabled()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        app
    })
}

/// Numbers no `u32` slot may accept.
const HOSTILE_NUMBERS: [&str; 10] = [
    "-1",
    "4294967296",
    "-9223372036854775808",
    "18446744073709551616",
    "1e308",
    "1e400",
    "-1e400",
    "-2.5e-7",
    "0.5",
    "99999999999999999999999999999999999999999999999999",
];

/// A valid body with `n` words, each an id or a vocabulary string.
fn valid_body(rng: &mut SmallRng, n: usize) -> String {
    let words: Vec<String> = (0..n)
        .map(|_| {
            let w = rng.gen_range(0..common::WORDS.len());
            match rng.gen_bool(0.5) {
                true => w.to_string(),
                false => format!("\"{}\"", common::WORDS[w]),
            }
        })
        .collect();
    let (p, c) = (rng.gen_range(0..6u32), rng.gen_range(0..6u32));
    format!(
        "{{\"publisher\":{p},\"consumer\":{c},\"words\":[{}]}}",
        words.join(",")
    )
}

/// One mutated body, and whether it must parse (`None`: either way).
fn mutated_body(kind: u8, seed: u64) -> (Vec<u8>, Option<bool>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(0..64usize);
    let mut body = valid_body(&mut rng, n).into_bytes();
    match kind {
        0 => {
            for _ in 0..rng.gen_range(1..9usize) {
                let i = rng.gen_range(0..body.len());
                body[i] ^= 1 << rng.gen_range(0..8u32);
            }
            (body, None)
        }
        // Every proper prefix of a JSON object is incomplete.
        1 => {
            body.truncate(rng.gen_range(0..body.len()));
            (body, Some(false))
        }
        // Deep nesting as the first word, closed or left open.
        2 => {
            let depth = rng.gen_range(1..200_000usize);
            let (open, close) = [("[", "]"), ("{\"a\":", "}")][rng.gen_range(0..2usize)];
            let close = if rng.gen_bool(0.5) { close } else { "" };
            let nested = format!("{}[0]{}", open.repeat(depth), close.repeat(depth));
            let body = String::from_utf8(body).unwrap();
            let body = body.replacen("\"words\":[", &format!("\"words\":[{nested},"), 1);
            (body.into_bytes(), Some(false))
        }
        3 => {
            let x = HOSTILE_NUMBERS[rng.gen_range(0..HOSTILE_NUMBERS.len())];
            let body = match rng.gen_range(0..3u32) {
                0 => format!("{{\"publisher\":{x},\"consumer\":1,\"words\":[0]}}"),
                1 => format!("{{\"publisher\":0,\"consumer\":{x},\"words\":[0]}}"),
                _ => format!("{{\"publisher\":0,\"consumer\":1,\"words\":[0,{x}]}}"),
            };
            (body.into_bytes(), Some(false))
        }
        _ => {
            let n = MAX_PREDICT_WORDS - 2 + rng.gen_range(0..5usize);
            (
                valid_body(&mut rng, n).into_bytes(),
                Some(n <= MAX_PREDICT_WORDS),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn predict_decoder_returns_ok_or_err_and_never_panics(
        kind in 0u8..5,
        seed in 0u64..u64::MAX,
    ) {
        let (body, must_parse) = mutated_body(kind, seed);
        let parsed = app().parse_predict(&body);
        if let Some(ok) = must_parse {
            prop_assert_eq!(
                parsed.is_ok(),
                ok,
                "mutation {}: {:?} (publisher, consumer, word count) on {:?}",
                kind,
                parsed.as_ref().map(|(p, c, words)| (p, c, words.len())),
                String::from_utf8_lossy(&body[..body.len().min(200)])
            );
        }
        match &parsed {
            Ok((_, _, words)) => prop_assert!(words.len() <= MAX_PREDICT_WORDS),
            Err(msg) if kind == 4 => prop_assert!(msg.contains("at most 1024"), "{}", msg),
            Err(_) => {}
        }
    }
}
