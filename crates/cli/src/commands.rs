//! CLI subcommands.

use crate::args::Args;
use cold_core::checkpoint::{Checkpoint, Checkpointer};
use cold_core::{ColdConfig, ColdModel, CounterStorage, DiffusionPredictor, Metrics};
use cold_data::{SocialDataset, WorldConfig};
use cold_engine::ParallelGibbs;
use cold_math::rng::seeded_rng;

/// Top-level usage text.
pub const USAGE: &str = "\
cold — Community Level Diffusion (SIGMOD'15) toolkit

USAGE:
  cold generate  --out <world.json> [--users N] [--communities C] [--topics K]
                 [--slices T] [--vocab V] [--seed S]
  cold train     --data <world.json> --out <model.cold>
                 [--communities C] [--topics K] [--iterations N] [--seed S]
                 [--shards N] [--metrics-out <metrics.jsonl>]
                 [--counter-storage auto|dense|sparse]
                 [--checkpoint-dir <dir>] [--checkpoint-every N]
                 [--checkpoint-retain N] [--resume true]
                 [--crash-after N] [--trace-out <trace.jsonl>]
  cold topics    --model <model.cold> --data <world.json> [--top N] [--topic K]
  cold communities --model <model.cold> --data <world.json>
  cold predict   --model <model.cold> --data <world.json>
                 --publisher I --consumer J --post D [--metrics-out <m.jsonl>]
  cold influence --model <model.cold> [--topic K] [--simulations N] [--seed S]
  cold eval      --model <model.cold> --data <world.json> [--seed S]
  cold serve     --model <model.cold> [--addr HOST:PORT | --port P]
                 [--top-comm N] [--rank-depth N]
                 [--data <world.json>] [--max-body BYTES]
                 [--max-conns N] [--io-threads N]
                 [--request-timeout-ms MS]
                 [--watch-model-ms MS] [--chaos true]
  cold metrics-check --file <metrics.jsonl>
  cold ckpt-inspect  --dir <checkpoint-dir>
  cold replay-check  --trace <t1.jsonl[,t2.jsonl,…]> [--fuzz N] [--seed S]
  cold help";

/// The flags `cold <command>` accepts: exactly those its `USAGE` entry
/// lists, so the help text and the parser cannot disagree. `None` for an
/// unknown command.
pub fn flags(command: &str) -> Option<Vec<&'static str>> {
    let command = if matches!(command, "--help" | "-h") {
        "help"
    } else {
        command
    };
    let entry = USAGE
        .split("\n  cold ")
        .skip(1)
        .find(|entry| entry.split_whitespace().next() == Some(command))?;
    let flags = entry.split_whitespace().filter_map(|word| {
        let flag = word.trim_start_matches('[').strip_prefix("--")?;
        Some(flag.trim_end_matches(']'))
    });
    Some(flags.collect())
}

type CliResult = Result<(), String>;

fn load_dataset(path: &str) -> Result<SocialDataset, String> {
    let data = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&data).map_err(|e| format!("parsing {path}: {e}"))
}

fn load_model(path: &str) -> Result<ColdModel, String> {
    ColdModel::load(path).map_err(|e| format!("reading {path}: {e}"))
}

/// `cold generate` — sample a synthetic world and write it to disk.
pub fn generate(args: &Args) -> CliResult {
    let out = args.required("out")?;
    let config = WorldConfig {
        num_users: args.get_or("users", 300u32)?,
        num_communities: args.get_or("communities", 6usize)?,
        num_topics: args.get_or("topics", 6usize)?,
        num_time_slices: args.get_or("slices", 24u16)?,
        vocab_size: args.get_or("vocab", 900usize)?,
        ..WorldConfig::default()
    };
    config.validate()?;
    let seed = args.get_or("seed", 42u64)?;
    let data = cold_data::generate(&config, seed);
    let json = serde_json::to_string(&data).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
    println!("generated {} -> {out}", data.summary());
    Ok(())
}

/// `cold train` — fit COLD on a stored world.
///
/// With `--checkpoint-dir` the run writes `cold-ckpt/v1` checkpoints every
/// `--checkpoint-every` sweeps (default 10, newest `--checkpoint-retain`
/// kept, default 3); `--resume true` continues from the newest readable
/// checkpoint in that directory — the resumed run is bit-identical to an
/// uninterrupted one, provided the same training flags are passed (a
/// checkpoint written with another `--shards` is refused). Every shard
/// count runs through `ParallelGibbs`; at `--shards 1` that is the
/// sequential chain itself.
/// `--crash-after N` aborts the process (exit code 137) after sweep `N`,
/// for crash-recovery drills.
///
/// `--counter-storage` picks the counter backend (`auto` measures occupancy
/// at build time; `dense`/`sparse` force one for benchmarking) — results are
/// bit-identical either way. The model is written as a `cold-model/v1`
/// artifact, which every read-side subcommand and `cold serve` open.
pub fn train(args: &Args) -> CliResult {
    let data = load_dataset(args.required("data")?)?;
    let out = args.required("out")?;
    let c = args.get_or("communities", 6usize)?;
    let k = args.get_or("topics", 6usize)?;
    let iterations = args.get_or("iterations", 200usize)?;
    let seed = args.get_or("seed", 1u64)?;
    let shards = args.get_or("shards", 1usize)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let checkpoint_every: Option<usize> = args.get_optional("checkpoint-every")?;
    let checkpoint_retain = args.get_or("checkpoint-retain", 3usize)?;
    let resume = args.get_or("resume", false)?;
    let crash_after: Option<usize> = args.get_optional("crash-after")?;
    let counter_storage = args.get_or("counter-storage", CounterStorage::Auto)?;
    let metrics_out = args.optional("metrics-out");
    let trace_out = args.optional("trace-out");
    // Instrumentation is only switched on when a sink was requested; a
    // disabled registry keeps the hot path free of metric work. The trace
    // buffer is independent of the metrics registry.
    let mut metrics = if metrics_out.is_some() {
        Metrics::enabled()
    } else {
        Metrics::disabled()
    };
    if trace_out.is_some() {
        metrics = metrics.with_trace();
    }
    let trace = trace_out.map(|path| (metrics.clone(), path.to_owned()));
    let ckptr = match args.optional("checkpoint-dir") {
        Some(dir) => Some(
            Checkpointer::new(dir)
                .map_err(|e| e.to_string())?
                .retain(checkpoint_retain)
                .with_metrics(metrics.clone()),
        ),
        None => None,
    };
    let mut builder = ColdConfig::builder(c, k)
        .iterations(iterations)
        .burn_in(iterations.saturating_sub(20).max(1))
        .sample_lag(4)
        .counter_storage(counter_storage)
        .small_data_defaults();
    if let Some(n) = checkpoint_every {
        builder = builder.checkpoint_every(n);
    }
    let config = builder
        .metrics(metrics.clone())
        .build(&data.corpus, &data.graph);
    let started = std::time::Instant::now();
    let pg = if resume {
        let ckptr = ckptr
            .as_ref()
            .ok_or("--resume true requires --checkpoint-dir")?;
        let ckpt = ckptr.load_latest().map_err(|e| e.to_string())?;
        if ckpt.shards != shards {
            return Err(format!(
                "the checkpoint in {} was written with --shards {}, but this run has \
                 --shards {shards}; resume with the same flags",
                ckptr.dir().display(),
                ckpt.shards
            ));
        }
        println!(
            "resuming {:?} run from sweep {}/{iterations} in {}…",
            ckpt.kind,
            ckpt.sweeps_done,
            ckptr.dir().display()
        );
        // The config is rebuilt from the flags above; `resume` verifies it
        // matches the checkpointed one, so pass the same training flags.
        ParallelGibbs::resume(&data.corpus, config, ckpt).map_err(|e| e.to_string())?
    } else {
        println!(
            "training C={c} K={k} on {} ({iterations} sweeps, {shards} shard{})…",
            data.summary(),
            if shards == 1 { "" } else { "s" }
        );
        ParallelGibbs::new(&data.corpus, &data.graph, config, shards, seed)
    };
    let model = run_training(pg, ckptr.as_ref(), crash_after, trace.as_ref())?;
    println!("trained in {:.1}s", started.elapsed().as_secs_f64());
    model.save(out).map_err(|e| e.to_string())?;
    println!("model -> {out}");
    if let Some(path) = metrics_out {
        write_metrics(&metrics, path)?;
    }
    if let Some((metrics, path)) = &trace {
        write_trace(metrics, path)?;
    }
    Ok(())
}

/// Flush the recorded `cold-trace/v1` events to `path`.
fn write_trace(metrics: &Metrics, path: &str) -> CliResult {
    let events = metrics.trace_events();
    cold_obs::trace::write_jsonl(&events, path).map_err(|e| format!("writing {path}: {e}"))?;
    println!("trace -> {path} ({} events)", events.len());
    Ok(())
}

/// Drive the sampler to completion (or to the injected crash).
fn run_training(
    mut pg: ParallelGibbs,
    ckptr: Option<&Checkpointer>,
    crash_after: Option<usize>,
    trace: Option<&(Metrics, String)>,
) -> Result<ColdModel, String> {
    if let Some(n) = crash_after {
        pg.run_sweeps(n, ckptr).map_err(|e| e.to_string())?;
        crash_now(n, trace);
    }
    let start = std::time::Instant::now();
    pg.run_sweeps(usize::MAX, ckptr)
        .map_err(|e| e.to_string())?;
    pg.publish_final_gauges(start.elapsed().as_secs_f64());
    println!(
        "wall time {:.1}s over {} supersteps ({} shard{}); \
         final complete-data log-likelihood {:.4}",
        start.elapsed().as_secs_f64(),
        pg.sweeps_done(),
        pg.shards(),
        if pg.shards() == 1 { "" } else { "s" },
        pg.log_likelihood()
    );
    Ok(pg.finish())
}

/// Abort the process the way a crash would (no model written, nonzero
/// exit). 137 mirrors a SIGKILL'd process so recovery drills look real.
/// The trace segment, if one was requested, is flushed first: a real
/// crash loses its tail too, but replay verification needs the events up
/// to the crash point to chain with the resume segment.
fn crash_now(after_sweep: usize, trace: Option<&(Metrics, String)>) -> ! {
    if let Some((metrics, path)) = trace {
        if let Err(err) = write_trace(metrics, path) {
            eprintln!("error: {err}");
        }
    }
    eprintln!("crash injection: aborting after sweep {after_sweep}");
    std::process::exit(137);
}

/// `cold ckpt-inspect` — list a checkpoint directory: sweep, size, and
/// integrity verdict per file (corrupt files are reported, not fatal).
pub fn ckpt_inspect(args: &Args) -> CliResult {
    let dir = args.required("dir")?;
    if !std::path::Path::new(dir).is_dir() {
        return Err(format!("{dir} is not a directory"));
    }
    let ckptr = Checkpointer::new(dir).map_err(|e| e.to_string())?;
    let entries = ckptr.list().map_err(|e| e.to_string())?;
    if entries.is_empty() {
        println!("{dir}: no checkpoints");
        return Ok(());
    }
    for entry in &entries {
        match Checkpoint::read(&entry.path) {
            Ok(ckpt) => {
                let d = ckpt.config.dims;
                println!(
                    "sweep {:>6}  {:>9} B  ok       {:?} kernel={} C={} K={} samples={}",
                    entry.sweep,
                    entry.bytes,
                    ckpt.kind,
                    ckpt.config.kernel.name(),
                    d.num_communities,
                    d.num_topics,
                    ckpt.acc.samples_collected(),
                );
            }
            Err(err) => {
                println!(
                    "sweep {:>6}  {:>9} B  CORRUPT  {err}",
                    entry.sweep, entry.bytes
                );
            }
        }
    }
    println!(
        "{dir}: {} checkpoint(s), newest at sweep {}",
        entries.len(),
        entries[0].sweep
    );
    Ok(())
}

/// `cold replay-check` — verify a recorded `cold-trace/v1` stream against
/// the replay model, then (with `--fuzz N`) require the model to reject
/// seeded protocol faults and accept legal schedule permutations.
///
/// `--trace` takes a comma-separated list of segment files; a crash/resume
/// pair records one segment per process, and chaining them lets the model
/// carry checkpoint knowledge across the crash.
pub fn replay_check(args: &Args) -> CliResult {
    let spec = args.required("trace")?;
    let fuzz_cases = args.get_or("fuzz", 0usize)?;
    let base_seed = args.get_or("seed", 0xC0_1Du64)?;
    let mut events = Vec::new();
    for path in spec.split(',').filter(|p| !p.is_empty()) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let segment =
            cold_obs::trace::parse_jsonl(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        println!("loaded {path}: {} events", segment.len());
        events.extend(segment);
    }
    let report = cold_replay::verify(&events)
        .map_err(|v| format!("replay rejected the recorded trace: {v}"))?;
    println!("replay clean: {report}");
    if fuzz_cases == 0 {
        return Ok(());
    }
    let outcomes = cold_replay::fault::fuzz(&events, fuzz_cases, base_seed);
    let mut wrong = 0usize;
    for out in &outcomes {
        let label = out.fault.map_or("schedule", |c| c.name());
        let answer = match (&out.fault, &out.rejection) {
            (Some(_), Some(v)) => format!("rejected ({})", v.kind),
            (Some(_), None) => "NOT REJECTED".to_owned(),
            (None, None) => "accepted".to_owned(),
            (None, Some(v)) => format!("WRONGLY REJECTED ({})", v.kind),
        };
        if !out.ok() {
            wrong += 1;
        }
        println!(
            "fuzz seed {:#018x}  {label:<18} {answer:<28} {}",
            out.seed, out.detail
        );
    }
    let classes: std::collections::BTreeSet<&str> = outcomes
        .iter()
        .filter_map(|o| o.fault.map(|c| c.name()))
        .collect();
    println!(
        "fuzz: {}/{} cases answered correctly ({} fault classes covered)",
        outcomes.len() - wrong,
        outcomes.len(),
        classes.len()
    );
    if wrong > 0 {
        return Err(format!("{wrong} fuzz case(s) answered wrong"));
    }
    if outcomes.is_empty() {
        return Err("no fuzz cases could be generated from this trace".into());
    }
    Ok(())
}

/// Dump a metrics snapshot: JSONL sink to `path`, summary table to stdout.
fn write_metrics(metrics: &Metrics, path: &str) -> CliResult {
    let snapshot = metrics.snapshot();
    snapshot
        .write_jsonl(path)
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!("{}", snapshot.render_table());
    println!("metrics -> {path}");
    Ok(())
}

/// `cold metrics-check` — validate a metrics JSONL file against the
/// `cold-obs/v1` schema.
pub fn metrics_check(args: &Args) -> CliResult {
    let path = args.required("file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let stats = cold_obs::schema::validate_jsonl(&text)?;
    println!(
        "{path}: ok ({} counters, {} gauges, {} histograms)",
        stats.counters, stats.gauges, stats.histograms
    );
    print_storage_table(&text);
    Ok(())
}

/// Summarize `state.*` gauges (counter-storage footprints) from validated
/// JSONL: one row per counter family, bytes alongside occupancy.
fn print_storage_table(text: &str) {
    let mut bytes: Vec<(String, f64)> = Vec::new();
    let mut occupancy: Vec<(String, f64)> = Vec::new();
    let mut total: Option<f64> = None;
    for (name, value) in cold_obs::schema::gauges(text) {
        if name == "state.bytes.total" {
            total = Some(value);
        } else if let Some(fam) = name.strip_prefix("state.bytes.") {
            bytes.push((fam.to_owned(), value));
        } else if let Some(fam) = name.strip_prefix("state.occupancy.") {
            occupancy.push((fam.to_owned(), value));
        }
    }
    if bytes.is_empty() {
        return;
    }
    bytes.sort_by(|a, b| a.0.cmp(&b.0));
    println!("\ncounter storage (state.* gauges):");
    println!("  {:<10} {:>14} {:>11}", "family", "bytes", "occupancy");
    for (fam, b) in &bytes {
        let occ = occupancy
            .iter()
            .find(|(f, _)| f == fam)
            .map(|&(_, o)| format!("{:>10.1}%", o * 100.0))
            .unwrap_or_else(|| format!("{:>11}", "-"));
        println!("  {fam:<10} {b:>14.0} {occ}");
    }
    if let Some(t) = total {
        println!("  {:<10} {t:>14.0}", "total");
    }
}

/// `cold topics` — print each topic's top words.
pub fn topics(args: &Args) -> CliResult {
    let model = load_model(args.required("model")?)?;
    let data = load_dataset(args.required("data")?)?;
    let top = args.get_or("top", 10usize)?;
    // Optional single-topic filter: `--topic K`.
    let only: Option<usize> = match args.optional("topic") {
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("--topic: cannot parse '{raw}'"))?,
        ),
        None => None,
    };
    for k in 0..model.dims().num_topics {
        if only.is_some_and(|t| t != k) {
            continue;
        }
        let words: Vec<String> = model
            .top_words(k, top, data.corpus.vocab())
            .into_iter()
            .map(|(w, p)| format!("{w} ({p:.3})"))
            .collect();
        println!("topic {k}: {}", words.join(", "));
    }
    Ok(())
}

/// `cold communities` — print community interests and sizes.
pub fn communities(args: &Args) -> CliResult {
    let model = load_model(args.required("model")?)?;
    let data = load_dataset(args.required("data")?)?;
    let hard = model.hard_user_communities();
    for c in 0..model.dims().num_communities {
        let members = hard.iter().filter(|&&x| x == c as u32).count();
        let theta = model.community_topics(c);
        let mut ranked: Vec<(usize, f64)> = theta.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        let interests: Vec<String> = ranked
            .iter()
            .take(3)
            .map(|&(k, p)| format!("k{k}:{:.0}%", p * 100.0))
            .collect();
        println!(
            "community {c}: {members} primary members, interests [{}]",
            interests.join(" ")
        );
    }
    let _ = data; // dataset kept for symmetry; membership needs only the model
    Ok(())
}

/// `cold predict` — diffusion probability of one post between two users.
pub fn predict(args: &Args) -> CliResult {
    let model = load_model(args.required("model")?)?;
    let data = load_dataset(args.required("data")?)?;
    let publisher: u32 = args.get_required("publisher")?;
    let consumer: u32 = args.get_required("consumer")?;
    let post_id: u32 = args.get_required("post")?;
    if post_id as usize >= data.corpus.num_posts() {
        return Err(format!(
            "post {post_id} out of range (dataset has {} posts)",
            data.corpus.num_posts()
        ));
    }
    let metrics_out = args.optional("metrics-out");
    let metrics = if metrics_out.is_some() {
        Metrics::enabled()
    } else {
        Metrics::disabled()
    };
    let predictor = DiffusionPredictor::with_metrics(
        &model,
        cold_core::predict::DEFAULT_TOP_COMM,
        metrics.clone(),
    )
    .map_err(|e| format!("cannot build predictor: {e}"))?;
    let words = &data.corpus.post(post_id).words;
    let score = predictor
        .diffusion_score(publisher, consumer, words)
        .map_err(|e| format!("cannot score {publisher} -> {consumer}: {e}"))?;
    let topics = predictor
        .post_topics(publisher, words)
        .map_err(|e| format!("cannot infer topics for post {post_id}: {e}"))?;
    let best = topics
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(k, p)| (k, *p))
        .unwrap_or((0, 0.0));
    println!(
        "P({publisher} -> {consumer}, post {post_id}) = {score:.6}  (dominant topic {} at {:.0}%)",
        best.0,
        best.1 * 100.0
    );
    if let Some(path) = metrics_out {
        write_metrics(&metrics, path)?;
    }
    Ok(())
}

/// `cold influence` — rank communities by IC influence on one topic.
pub fn influence(args: &Args) -> CliResult {
    let model = load_model(args.required("model")?)?;
    let topic = args.get_or("topic", 0usize)?;
    if topic >= model.dims().num_topics {
        return Err(format!("topic {topic} out of range"));
    }
    let simulations = args.get_or("simulations", 3000usize)?;
    let mut rng = seeded_rng(args.get_or("seed", 7u64)?);
    let ranking = cold_cascade::community_influence(&model, topic, simulations, &mut rng);
    for r in &ranking {
        println!(
            "community {:>3}: influence {:.3}, interest {:.4}",
            r.community, r.influence, r.interest
        );
    }
    Ok(())
}

/// `cold eval` — quick quality report: perplexity + link AUC.
pub fn eval(args: &Args) -> CliResult {
    let model = load_model(args.required("model")?)?;
    let data = load_dataset(args.required("data")?)?;
    let mut rng = seeded_rng(args.get_or("seed", 9u64)?);

    // Perplexity over all posts (in-sample report, labelled as such).
    let per_post: Vec<(f64, usize)> = data
        .corpus
        .posts()
        .iter()
        .map(|p| {
            (
                cold_core::predict::post_log_likelihood(&model, p.author, &p.words),
                p.len(),
            )
        })
        .collect();
    let perplexity =
        cold_eval::perplexity(&per_post).ok_or("perplexity undefined for empty corpus")?;
    println!(
        "in-sample perplexity: {perplexity:.1} (uniform baseline {})",
        data.corpus.vocab_size()
    );

    // Link AUC: all positives vs equally many sampled negatives.
    let positives: Vec<(u32, u32)> = data.graph.edges().collect();
    if !positives.is_empty() {
        let negatives = cold_graph::sampling::sample_negative_links(
            &mut rng,
            &data.graph,
            positives
                .len()
                .min(data.graph.num_negative_links() as usize),
        );
        let mut scored: Vec<(f64, bool)> = Vec::new();
        for &(i, j) in &positives {
            scored.push((cold_core::predict::link_probability(&model, i, j), true));
        }
        for &(i, j) in &negatives {
            scored.push((cold_core::predict::link_probability(&model, i, j), false));
        }
        let auc = cold_eval::ranking_auc(&scored).ok_or("AUC undefined")?;
        println!("link AUC (in-sample positives vs sampled negatives): {auc:.3}");
    }
    Ok(())
}

/// `cold serve` — long-running HTTP prediction API over a trained model.
///
/// Loads the model once (zero-copy for `cold-model/v1` binaries), builds
/// the predictor's `ζ` tensor and per-topic influencer rankings up front,
/// then blocks answering requests until `POST /shutdown`. With `--data`
/// the dataset's vocabulary is attached so `/predict` accepts word
/// strings, not just ids. Startup failures (missing model, occupied
/// port) exit nonzero with the underlying error in context.
pub fn serve(args: &Args) -> CliResult {
    let model_path = args.required("model")?;
    let defaults = cold_serve::ServeConfig::default();
    let addr = match (args.optional("addr"), args.optional("port")) {
        (Some(addr), _) => addr.to_owned(),
        (None, Some(_)) => format!("127.0.0.1:{}", args.get_required::<u16>("port")?),
        (None, None) => defaults.addr.clone(),
    };
    let top_comm = args.get_or("top-comm", cold_core::predict::DEFAULT_TOP_COMM)?;
    let rank_depth = args.get_or("rank-depth", 100usize)?;
    let vocab = match args.optional("data") {
        Some(data_path) => {
            let data = load_dataset(data_path)?;
            let v = data.corpus.vocab();
            Some(
                (0..v.len() as u32)
                    .map(|id| (v.word(id).to_owned(), id))
                    .collect(),
            )
        }
        None => None,
    };
    let config = cold_serve::ServeConfig {
        addr,
        io_threads: args.get_or("io-threads", defaults.io_threads)?,
        max_body: args.get_or("max-body", defaults.max_body)?,
        max_conns: args.get_or("max-conns", defaults.max_conns)?,
        // 0 disables the per-request deadline.
        request_timeout: std::time::Duration::from_millis(args.get_or(
            "request-timeout-ms",
            defaults.request_timeout.as_millis() as u64,
        )?),
        chaos_endpoints: args.get_or("chaos", defaults.chaos_endpoints)?,
        // 0 disables artifact watching.
        watch_model: match args.get_or(
            "watch-model-ms",
            defaults.watch_model.map_or(0, |d| d.as_millis() as u64),
        )? {
            0 => None,
            ms => Some(std::time::Duration::from_millis(ms)),
        },
    };
    if config.chaos_endpoints {
        eprintln!("cold-serve: WARNING: /chaos/* fault-injection endpoints are enabled");
    }

    let app = cold_serve::App::load(model_path, top_comm, rank_depth, vocab, Metrics::enabled())
        .map_err(|e| format!("cannot load {model_path}: {e}"))?;
    let io_threads = config.io_threads;
    let server = cold_serve::Server::start(config, app).map_err(|e| e.to_string())?;
    println!(
        "cold-serve listening on {} ({io_threads} io threads); stop with: curl -X POST http://{}/shutdown",
        server.addr(),
        server.addr()
    );
    let slot = std::sync::Arc::clone(server.app_slot());
    server.join();
    // A loop exits by draining or by dying, and each death is counted:
    // as many deaths as loops means nothing drained, so no shutdown was
    // asked for and a supervisor should restart the process.
    let panics = slot.metrics().snapshot().counter("serve.io_loop_panics");
    if panics >= io_threads.max(1) as u64 {
        return Err(format!(
            "every io loop died (serve.io_loop_panics = {panics}); the server stopped"
        ));
    }
    println!("cold-serve: drained and stopped");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::flags;

    #[test]
    fn flags_come_from_each_commands_usage_entry() {
        assert_eq!(flags("ckpt-inspect").unwrap(), ["dir"]);
        assert_eq!(flags("replay-check").unwrap(), ["trace", "fuzz", "seed"]);
        assert_eq!(flags("serve").unwrap()[..3], ["model", "addr", "port"]);
        assert!(flags("serve").unwrap().contains(&"chaos"));
        assert!(flags("-h").unwrap().is_empty());
        assert!(flags("nope").is_none());
    }
}
