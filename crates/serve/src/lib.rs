//! # cold-serve — an HTTP prediction API over a fitted COLD model
//!
//! Turns a trained model (ideally the `cold-model/v1` binary artifact,
//! opened zero-copy through [`cold_core::ModelView`]) into a long-running
//! prediction service, hand-rolled over `std::net` — the build
//! environment has no crates.io, and the workspace's no-external-deps
//! rule holds for the server too.
//!
//! ## Endpoints
//!
//! | Route | Method | Body | Answer |
//! |---|---|---|---|
//! | `/predict` | POST | `{"publisher":u,"consumer":u,"words":[...]}` | Eq. 7 diffusion score |
//! | `/rank-influencers` | POST | `{"topic":k,"limit":n}` | top users by outgoing influence on `k` |
//! | `/communities/:user` | GET | — | `TopComm(i)` + full `π_i` row |
//! | `/healthz` | GET | — | model shape, backing, uptime, generation, degraded state |
//! | `/metrics` | GET | — | `cold-obs/v1` JSONL snapshot |
//! | `/reload` | POST | `{}` or `{"model": path}` | verify + atomically swap in a new artifact |
//! | `/shutdown` | POST | — | graceful stop (in-band SIGTERM) |
//!
//! `words` entries are word ids, or strings when the server was started
//! with a vocabulary; one `/predict` carries at most
//! [`app::MAX_PREDICT_WORDS`] (1024) of them. Caller mistakes (unknown
//! user/word/topic, malformed JSON, too many words) come back as HTTP
//! 400 with `{"error": ...}` — the predict path is `Result`-typed end to
//! end ([`cold_core::PredictError`]), so no request can panic the server.
//!
//! ## Shape
//!
//! [`app::App`] holds the loaded state (model view, predictor with the
//! precomputed `ζ` tensor and `TopComm` caches, per-topic influencer
//! rankings); [`server::Server`] owns the sockets. A few epoll event loops
//! ([`ServeConfig::io_threads`], Linux) multiplex every connection over a
//! hand-rolled `epoll`/`eventfd` binding — nonblocking per-connection
//! state machines, buffered writes, deadlines enforced by timer ticks —
//! so thread count does not scale with connections. The loops answer
//! every request themselves, `/predict` included (a few µs of
//! precomputed-table lookups); only `POST /reload` goes to the one
//! reloader thread, so the server runs `io_threads + 1` threads:
//!
//! ```text
//!   listener ──▶ io loop 0..N ── parse → route → score → reply (inline)
//!   (epoll)          │    ▲
//!        /reload ────┘    └──── completion + eventfd ──── reloader (+watch)
//! ```
//!
//! [`client::HttpClient`] is the minimal persistent keep-alive client
//! used by the integration tests and the `bench_serve` load generator
//! (reconnects are counted, not silent). Latency lands in
//! `serve.*_seconds` histograms (p50/p95/p99) via `cold-obs`; every
//! `/predict` also records its score time (`serve.stage.score_seconds`).
//!
//! ## Robustness
//!
//! The transport layer is built to survive hostile networks and its own
//! bugs: connections beyond [`ServeConfig::max_conns`] and reloads beyond
//! the one waiting are shed with `503` + `Retry-After`, a per-request
//! deadline covers parse → score → reply
//! ([`ServeConfig::request_timeout`]), panicking handlers are contained
//! per-connection, an event loop that dies anyway flips `/healthz` to
//! `503 degraded`, and `POST /reload` atomically swaps a verified new
//! artifact into the [`app::AppSlot`] without dropping traffic. The
//! [`chaos`] module (feature `chaos`, always on in tests) injects seeded
//! network faults to prove all of it.

pub mod app;
#[cfg(any(test, feature = "chaos"))]
pub mod chaos;
pub mod client;
#[cfg(target_os = "linux")]
mod epoll;
pub mod http;
pub mod server;
#[cfg(target_os = "linux")]
mod sys;

pub use app::{App, AppSlot, ReloadOutcome, ServeError};
pub use client::{HttpClient, Response};
pub use server::{ServeConfig, Server};
