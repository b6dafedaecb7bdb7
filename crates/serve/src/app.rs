//! Endpoint logic: the model-facing half of `cold-serve`.
//!
//! [`App`] owns everything request handlers need — the shared
//! [`ColdModel`], the precomputed [`DiffusionPredictor`], the per-topic
//! influencer rankings, the optional vocabulary, and the metrics handle —
//! and exposes one method per endpoint returning `(status, json)`.
//! Transport (sockets, framing, the reloader) lives in
//! [`crate::server`]; this module never touches a socket, which is what
//! makes it unit-testable.

use crate::http::json_escape;
use cold_core::{ColdModel, DiffusionPredictor, ModelRead, PersistError, PredictError};
use cold_obs::Metrics;
use cold_text::WordId;
use serde::{Deserialize, Value};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// How the service failed to come up (never used on the request path).
#[derive(Debug)]
pub enum ServeError {
    /// The model file could not be opened or failed verification.
    Model {
        /// The path we tried.
        path: String,
        /// The underlying persistence failure.
        source: PersistError,
    },
    /// The predictor rejected its configuration.
    Predict(PredictError),
    /// Socket-level failure (bind, accept).
    Io {
        /// What we were doing.
        context: String,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Model { path, source } => {
                write!(f, "cannot open model {path}: {source}")
            }
            ServeError::Predict(e) => write!(f, "cannot build predictor: {e}"),
            ServeError::Io { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Model { source, .. } => Some(source),
            ServeError::Predict(e) => Some(e),
            ServeError::Io { source, .. } => Some(source),
        }
    }
}

/// A JSON response: status code plus body.
pub type JsonResponse = (u16, String);

fn error_json(status: u16, msg: &str) -> JsonResponse {
    (status, format!("{{\"error\":\"{}\"}}", json_escape(msg)))
}

fn f64_json(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        // JSON has no Infinity/NaN literals; degrade to null rather than
        // emit an unparseable document.
        "null".to_owned()
    }
}

/// Most words one `/predict` may carry. Requests are scored on the event
/// loop that read them, at `K` logarithms per word, so this bounds how
/// long one request can hold up every other connection on its loop:
/// a 1 MiB body could otherwise carry about 10⁵ word ids.
pub const MAX_PREDICT_WORDS: usize = 1024;

/// Per-topic influencer ranking entry.
#[derive(Debug, Clone, Copy)]
struct RankedUser {
    user: u32,
    score: f64,
}

/// The loaded service state shared by the event loops and the reloader.
///
/// An `App` is immutable once built — hot reload builds a *new* `App`
/// and swaps it into the serving [`AppSlot`]; requests hold an
/// `Arc<App>` for their whole lifetime, so in-flight work always
/// finishes on the model it started with.
pub struct App {
    model: Arc<ColdModel>,
    predictor: DiffusionPredictor<Arc<ColdModel>>,
    /// Per-topic top users by aggregate outgoing influence, best first.
    rank: Vec<Vec<RankedUser>>,
    /// `top_comm` this app was built with (reload reuses it).
    top_comm: usize,
    /// Ranking depth each entry of `rank` was truncated to.
    rank_depth: usize,
    /// Optional word → id lookup, enabling string words in `/predict`.
    vocab: Option<HashMap<String, WordId>>,
    metrics: Metrics,
    model_path: String,
    started: Instant,
}

impl App {
    /// Open `model_path`, precompute the predictor tables and the
    /// per-topic influencer rankings, and return the ready state.
    ///
    /// `top_comm` follows [`DiffusionPredictor`] semantics (clamped to
    /// `C`); `rank_depth` bounds `/rank-influencers` answers.
    pub fn load(
        model_path: impl AsRef<Path>,
        top_comm: usize,
        rank_depth: usize,
        vocab: Option<HashMap<String, WordId>>,
        metrics: Metrics,
    ) -> Result<Self, ServeError> {
        let path = model_path.as_ref().display().to_string();
        let model = Self::open_model(&path, &metrics)?;
        Self::build(model, path, top_comm, rank_depth, vocab, metrics)
    }

    /// Open and verify the artifact at `path`, timed into
    /// `serve.model_open_seconds`.
    fn open_model(path: &str, metrics: &Metrics) -> Result<ColdModel, ServeError> {
        let t0 = metrics.start();
        let model = ColdModel::open(path).map_err(|source| ServeError::Model {
            path: path.to_owned(),
            source,
        })?;
        metrics.observe_since("serve.model_open_seconds", t0);
        Ok(model)
    }

    /// Precompute the predictor tables and the per-topic influencer
    /// rankings over an opened model.
    fn build(
        model: ColdModel,
        model_path: String,
        top_comm: usize,
        rank_depth: usize,
        vocab: Option<HashMap<String, WordId>>,
        metrics: Metrics,
    ) -> Result<Self, ServeError> {
        let model = Arc::new(model);
        let t0 = metrics.start();
        let predictor =
            DiffusionPredictor::with_metrics(Arc::clone(&model), top_comm, metrics.clone())
                .map_err(ServeError::Predict)?;
        metrics.observe_since("serve.precompute_seconds", t0);

        let t0 = metrics.start();
        let rank = build_rankings(&model, &predictor, rank_depth);
        metrics.observe_since("serve.rank_precompute_seconds", t0);

        let dims = model.dims();
        metrics.gauge_set("serve.model_users", f64::from(dims.num_users));
        metrics.gauge_set("serve.model_communities", dims.num_communities as f64);
        metrics.gauge_set("serve.model_topics", dims.num_topics as f64);

        Ok(Self {
            model,
            predictor,
            rank,
            top_comm,
            rank_depth,
            vocab,
            metrics,
            model_path,
            started: Instant::now(),
        })
    }

    /// The metrics handle shared with the transport layer.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The path this app's model was opened from.
    pub fn model_path(&self) -> &str {
        &self.model_path
    }

    /// The predictor (the event loops score through it directly).
    pub fn predictor(&self) -> &DiffusionPredictor<Arc<ColdModel>> {
        &self.predictor
    }

    /// Parse a `/predict` body into `(publisher, consumer, words)`.
    ///
    /// Words may be numeric ids, or strings when a vocabulary was
    /// provided at load; at most [`MAX_PREDICT_WORDS`] of them.
    pub fn parse_predict(&self, body: &[u8]) -> Result<(u32, u32, Vec<WordId>), String> {
        let v = parse_json_object(body)?;
        let publisher = field_u32(&v, "publisher")?;
        let consumer = field_u32(&v, "consumer")?;
        let words_v = v
            .get("words")
            .ok_or_else(|| "missing field `words`".to_owned())?;
        let items = words_v
            .as_array()
            .ok_or_else(|| format!("`words` must be an array, got {}", words_v.kind()))?;
        if items.len() > MAX_PREDICT_WORDS {
            return Err(format!(
                "`words` has {} entries; at most {MAX_PREDICT_WORDS} are allowed per request",
                items.len()
            ));
        }
        let mut words = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            match item {
                Value::Int(n) if *n >= 0 && *n <= u32::MAX as i64 => words.push(*n as u32),
                Value::Int(n) => return Err(format!("words[{i}] = {n} is not a valid word id")),
                Value::Str(s) => match &self.vocab {
                    Some(vocab) => match vocab.get(s.as_str()) {
                        Some(&id) => words.push(id),
                        None => return Err(format!("unknown word {s:?}")),
                    },
                    None => {
                        return Err(format!(
                            "words[{i}] is a string but the server was started without \
                             a vocabulary (pass --data at `cold serve` time)"
                        ))
                    }
                },
                other => {
                    return Err(format!(
                        "words[{i}] must be a word id or string, got {}",
                        other.kind()
                    ))
                }
            }
        }
        Ok((publisher, consumer, words))
    }

    /// Render a `/predict` result (the caller scored it through
    /// [`App::predictor`]).
    pub fn predict_response(
        &self,
        publisher: u32,
        consumer: u32,
        result: Result<f64, PredictError>,
    ) -> JsonResponse {
        match result {
            Ok(score) => (
                200,
                format!(
                    "{{\"publisher\":{publisher},\"consumer\":{consumer},\"score\":{}}}",
                    f64_json(score)
                ),
            ),
            Err(e) => error_json(400, &e.to_string()),
        }
    }

    /// `POST /rank-influencers` — body `{"topic": k, "limit": n}`.
    pub fn rank_influencers(&self, body: &[u8]) -> JsonResponse {
        let parsed = (|| -> Result<(usize, usize), String> {
            let v = parse_json_object(body)?;
            let topic = field_u32(&v, "topic")? as usize;
            let limit = match v.get("limit") {
                None | Some(Value::Null) => 10,
                Some(x) => u32::from_value(x).map_err(|e| format!("field `limit`: {e}"))? as usize,
            };
            Ok((topic, limit))
        })();
        let (topic, limit) = match parsed {
            Ok(p) => p,
            Err(msg) => return error_json(400, &msg),
        };
        let num_topics = self.model.dims().num_topics;
        if topic >= num_topics {
            return error_json(
                400,
                &PredictError::UnknownTopic { topic, num_topics }.to_string(),
            );
        }
        let limit = limit.min(self.rank_depth);
        let entries: Vec<String> = self.rank[topic]
            .iter()
            .take(limit)
            .map(|r| {
                format!(
                    "{{\"user\":{},\"influence\":{}}}",
                    r.user,
                    f64_json(r.score)
                )
            })
            .collect();
        (
            200,
            format!(
                "{{\"topic\":{topic},\"limit\":{limit},\"influencers\":[{}]}}",
                entries.join(",")
            ),
        )
    }

    /// `GET /communities/:user`.
    pub fn communities(&self, user_segment: &str) -> JsonResponse {
        let user: u32 = match user_segment.parse() {
            Ok(u) => u,
            Err(_) => {
                return error_json(400, &format!("user id {user_segment:?} is not an integer"))
            }
        };
        let top = match self.predictor.top_communities(user) {
            Ok(t) => t,
            Err(e) => return error_json(400, &e.to_string()),
        };
        let memberships = self.model.user_memberships(user);
        let top_json: Vec<String> = top.iter().map(|c| c.to_string()).collect();
        let pi_json: Vec<String> = memberships.iter().map(|&p| f64_json(p)).collect();
        (
            200,
            format!(
                "{{\"user\":{user},\"top_communities\":[{}],\"memberships\":[{}]}}",
                top_json.join(","),
                pi_json.join(",")
            ),
        )
    }

    /// `GET /healthz`.
    ///
    /// `generation` counts completed hot reloads; `degraded` (an event
    /// loop has died, taking its connections with it) turns the answer
    /// into a `503` so load balancers stop routing here — the surviving
    /// loops keep answering what they still can.
    pub fn healthz(&self, generation: u64, degraded: bool) -> JsonResponse {
        let d = self.model.dims();
        let (status, word) = if degraded {
            (503, "degraded")
        } else {
            (200, "ok")
        };
        (
            status,
            format!(
                "{{\"status\":\"{word}\",\"model\":\"{}\",\
                 \"generation\":{generation},\
                 \"users\":{},\"communities\":{},\"topics\":{},\
                 \"time_slices\":{},\"vocab\":{},\"samples\":{},\
                 \"uptime_seconds\":{}}}",
                json_escape(&self.model_path),
                d.num_users,
                d.num_communities,
                d.num_topics,
                d.num_time_slices,
                d.vocab_size,
                self.model.num_samples(),
                f64_json(self.started.elapsed().as_secs_f64()),
            ),
        )
    }

    /// Parse a `/reload` body: empty (or `{}`) re-opens the current
    /// artifact path, `{"model": "path"}` switches to a new one.
    pub fn parse_reload(body: &[u8]) -> Result<Option<String>, String> {
        if body.iter().all(|b| b.is_ascii_whitespace()) {
            return Ok(None);
        }
        let v = parse_json_object(body)?;
        match v.get("model") {
            None | Some(Value::Null) => Ok(None),
            Some(Value::Str(s)) => Ok(Some(s.clone())),
            Some(other) => Err(format!(
                "`model` must be a path string, got {}",
                other.kind()
            )),
        }
    }
}

/// What a successful hot reload swapped in.
#[derive(Debug)]
pub struct ReloadOutcome {
    /// Completed-reload count after this swap (starts at 0 at boot).
    pub generation: u64,
    /// The artifact path now being served.
    pub model_path: String,
    /// User axis of the new model.
    pub users: u32,
}

/// The hot-swappable serving slot.
///
/// Holds the current [`App`] behind a mutex-guarded `Arc` (the
/// ArcSwap pattern with std parts): request dispatch takes the lock just
/// long enough to clone the `Arc`, so a swap is atomic from the event
/// loops' point of view and in-flight requests keep the model they
/// started with. [`AppSlot::reload`] builds the replacement *outside*
/// that lock — traffic keeps flowing on the old model during the
/// (potentially seconds-long) open + precompute — and only a fully
/// validated app is ever swapped in. A corrupt, truncated, or
/// dimension-skewed artifact is rejected with the old model still
/// serving. Every reload the server runs itself (`POST /reload`,
/// `--watch-model`) runs on its one reloader thread.
pub struct AppSlot {
    current: Mutex<Arc<App>>,
    /// Completed reloads; also published as the `serve.model_generation`
    /// gauge and in `/healthz`.
    generation: AtomicU64,
    /// Serializes reloads end to end (open → build → swap) so two
    /// concurrent `/reload`s cannot interleave their swaps.
    reload_lock: Mutex<()>,
    metrics: Metrics,
}

impl AppSlot {
    /// Wrap the boot-time app as generation 0.
    pub fn new(app: App) -> Self {
        let metrics = app.metrics().clone();
        metrics.gauge_set("serve.model_generation", 0.0);
        Self {
            current: Mutex::new(Arc::new(app)),
            generation: AtomicU64::new(0),
            reload_lock: Mutex::new(()),
            metrics,
        }
    }

    /// The app serving right now. Callers hold the returned `Arc` for the
    /// whole request, pinning the model across any concurrent swap.
    pub fn current(&self) -> Arc<App> {
        Arc::clone(&self.current.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Completed reload count.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The metrics handle shared across generations.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Re-open the serving artifact (or `new_path`) into a fresh [`App`]
    /// and atomically swap it in.
    ///
    /// The artifact is opened once ([`ColdModel::open`] checks the
    /// `cold-model/v1` header, length and checksum) and, when a
    /// vocabulary is attached, must keep the old model's vocab axis —
    /// `/predict`'s string→id map would otherwise silently mis-resolve.
    /// Only then are the predictor and ranking tables built. Any failure
    /// leaves the old model serving and returns the reason (the transport
    /// answers `409`).
    pub fn reload(&self, new_path: Option<&str>) -> Result<ReloadOutcome, String> {
        let _guard = self
            .reload_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let t0 = self.metrics.start();
        let old = self.current();
        let path = new_path.unwrap_or_else(|| old.model_path()).to_owned();
        let outcome = self.reload_inner(&old, &path);
        match &outcome {
            Ok(_) => {
                self.metrics.counter_add("serve.reloads_ok", 1);
                self.metrics.observe_since("serve.reload_seconds", t0);
            }
            Err(_) => self.metrics.counter_add("serve.reloads_failed", 1),
        }
        outcome
    }

    fn reload_inner(&self, old: &App, path: &str) -> Result<ReloadOutcome, String> {
        let rejected = |e: ServeError| format!("artifact rejected: {e}");
        let model = App::open_model(path, &self.metrics).map_err(rejected)?;
        let (old_vocab, new_vocab) = (old.model.dims().vocab_size, model.dims().vocab_size);
        if old.vocab.is_some() && new_vocab != old_vocab {
            return Err(format!(
                "artifact rejected: vocab axis changed from {old_vocab} to {new_vocab} but the \
                 server's word→id vocabulary is fixed at startup (restart with matching --data)",
            ));
        }
        let app = App::build(
            model,
            path.to_owned(),
            old.top_comm,
            old.rank_depth,
            old.vocab.clone(),
            self.metrics.clone(),
        )
        .map_err(rejected)?;
        let users = app.model.dims().num_users;
        *self.current.lock().unwrap_or_else(PoisonError::into_inner) = Arc::new(app);
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        self.metrics
            .gauge_set("serve.model_generation", generation as f64);
        Ok(ReloadOutcome {
            generation,
            model_path: path.to_owned(),
            users,
        })
    }
}

/// Build the per-topic influencer rankings.
///
/// A user's aggregate outgoing influence on topic `k` is
/// `Σ_{c∈Top(i)} π_ic · z_kc` with `z_kc = Σ_c' ζ_kcc'` — the expected
/// community-level influence their `TopComm` mass exerts, marginalized
/// over receiving communities. Coarse work (the `z` table, the per-user
/// fold, the top-`depth` selection) happens once at load; `/rank-
/// influencers` then answers from the table (the ADR-style
/// coarse-at-load / fine-per-request split).
fn build_rankings(
    model: &ColdModel,
    predictor: &DiffusionPredictor<Arc<ColdModel>>,
    depth: usize,
) -> Vec<Vec<RankedUser>> {
    let dims = model.dims();
    let (u, c, k) = (
        dims.num_users as usize,
        dims.num_communities,
        dims.num_topics,
    );
    // z_kc = Σ_c' ζ_kcc'
    let mut z = vec![0.0f64; k * c];
    for ci in 0..c {
        let theta_i = model.community_topics(ci);
        for cj in 0..c {
            let theta_j = model.community_topics(cj);
            let e = model.eta(ci, cj);
            for (kk, zk) in z.chunks_exact_mut(c).enumerate() {
                zk[ci] += theta_i[kk] * theta_j[kk] * e;
            }
        }
    }
    // One scratch row of every user's score, reused across topics; each
    // topic keeps an exact-size copy of its top `depth` (0 keeps all).
    let mut scored: Vec<RankedUser> = Vec::with_capacity(u);
    let mut rank = Vec::with_capacity(k);
    for kk in 0..k {
        let zk = &z[kk * c..(kk + 1) * c];
        scored.clear();
        scored.extend((0..u).map(|i| {
            let pi = model.user_memberships(i as u32);
            let top = predictor
                .top_communities(i as u32)
                .expect("user index in range");
            let score = top
                .iter()
                .map(|&cc| pi[cc as usize] * zk[cc as usize])
                .sum();
            RankedUser {
                user: i as u32,
                score,
            }
        }));
        let keep = match depth.min(u) {
            0 => u,
            keep => keep,
        };
        if keep < u {
            scored.select_nth_unstable_by(keep - 1, |a, b| b.score.total_cmp(&a.score));
        }
        let mut top = scored[..keep].to_vec();
        top.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.user.cmp(&b.user)));
        rank.push(top);
    }
    rank
}

fn parse_json_object(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let v: Value =
        serde_json::from_str(text).map_err(|e| format!("body is not valid JSON: {e}"))?;
    if v.as_object().is_none() {
        return Err(format!("body must be a JSON object, got {}", v.kind()));
    }
    Ok(v)
}

fn field_u32(v: &Value, key: &str) -> Result<u32, String> {
    let field = v.get(key).ok_or_else(|| format!("missing field `{key}`"))?;
    u32::from_value(field).map_err(|e| format!("field `{key}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cold_core::{ColdConfig, GibbsSampler};
    use cold_graph::CsrGraph;
    use cold_text::CorpusBuilder;

    #[test]
    fn rankings_hold_only_the_top_depth_users() {
        let mut b = CorpusBuilder::new();
        for u in 0..6u32 {
            b.push_text(u, 0, &["football", "goal", "film"]);
        }
        let corpus = b.build();
        let graph = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let config = ColdConfig::builder(2, 2)
            .iterations(5)
            .build(&corpus, &graph);
        let model = GibbsSampler::new(&corpus, &graph, config, 3).run();
        let dir = std::env::temp_dir().join(format!("cold_app_rank_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.cold");
        model.save(&path).unwrap();
        let load = |depth| App::load(&path, 2, depth, None, Metrics::enabled()).unwrap();

        // Each topic keeps exactly its top entries, not a full-size row.
        for ranking in &load(2).rank {
            assert_eq!((ranking.len(), ranking.capacity()), (2, 2));
        }
        // Depth 0 keeps every user, best first.
        for ranking in &load(0).rank {
            assert_eq!(ranking.len(), 6);
            assert!(ranking.windows(2).all(|w| w[0].score >= w[1].score));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
