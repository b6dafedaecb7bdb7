//! `benchmark` — the repository benchmark for COLD's two kinds of users:
//! analysts who fit the Gibbs sampler, and operators who serve the
//! diffusion queries. See `README.md` next to this file.
//!
//! ```text
//! benchmark --workload W --seed S --seconds T --trace 0|1 [--smoke] [--spans FILE]
//! benchmark --seed S --reps R --out FILE [--seconds T] [--smoke] [--spans FILE]
//! benchmark compare PARENT.json CHANGE.json
//! ```
//!
//! The first form runs one workload and ends its output with one JSON line
//! holding the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The second runs every workload `R` times, each repetition
//! in its own child process, round-robin, plus one traced pass, and writes
//! medians to `FILE`. The third compares two such files.

mod capacity;
mod loadgen;
mod serve;
mod spec;
mod stats;
mod suite;
mod sys;
mod trace;
mod train;

use serde::Value;
use spec::Spec;
use std::collections::BTreeMap;
use std::path::PathBuf;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainSharded,
    TrainWide,
    ServePredict,
    ServeReload,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TrainSharded,
        Workload::TrainWide,
        Workload::ServePredict,
        Workload::ServeReload,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainSharded => "train_sharded",
            Workload::TrainWide => "train_wide",
            Workload::ServePredict => "serve_predict",
            Workload::ServeReload => "serve_reload",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one workload run is configured.
pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Turn on the program's own instrumentation and report per-layer
    /// metrics instead of end-to-end ones.
    pub traced: bool,
    /// Tiny inputs, for a quick check that everything works.
    pub smoke: bool,
    /// Append this run's spans here as JSON lines.
    pub spans_path: Option<PathBuf>,
    /// Scratch space for artifacts, removed when the run ends.
    pub work_dir: PathBuf,
}

/// What one workload run measured.
#[derive(Default)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; any makes the run incorrect.
    pub errors: Vec<String>,
    pub end_to_end: BTreeMap<String, f64>,
    pub per_layer: BTreeMap<String, f64>,
    /// Numbers reported for reading, not gated.
    pub extra: BTreeMap<String, f64>,
}

/// Command-line flags shared by the single-run and suite forms.
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub traced: bool,
    pub smoke: bool,
    pub spans: Option<PathBuf>,
    pub reps: usize,
    pub out: Option<PathBuf>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            workload: None,
            seed: 1,
            seconds: None,
            traced: false,
            smoke: false,
            spans: None,
            reps: 3,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                parsed.smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
            match flag.as_str() {
                "--workload" => {
                    parsed.workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload"))?)
                }
                "--seed" => parsed.seed = value.parse().map_err(|_| bad("a seed"))?,
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("a duration"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("a duration in (0, 600]"));
                    }
                    parsed.seconds = Some(s);
                }
                "--trace" => {
                    parsed.traced = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--spans" => parsed.spans = Some(PathBuf::from(value)),
                "--reps" => {
                    parsed.reps = value.parse().map_err(|_| bad("a count"))?;
                    if parsed.reps == 0 {
                        return Err(bad("a positive count"));
                    }
                }
                "--out" => parsed.out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(parsed)
    }

    /// Measurement time per run: `--seconds`, else the contract's
    /// `run_seconds` (1.5 s for smoke runs).
    pub fn seconds(&self, spec: &Spec) -> f64 {
        self.seconds
            .unwrap_or(if self.smoke { 1.5 } else { spec.run_seconds })
    }
}

/// A per-process scratch directory next to the binary, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let exe = std::env::current_exe()?;
        let dir = exe
            .with_file_name("benchmark-work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Prefix of the line, just before the result line, that carries a run's
/// checks and unreported numbers to the suite.
pub const DETAIL_PREFIX: &str = "detail ";

fn run_one(args: &Args, workload: Workload) -> i32 {
    let spec = Spec::load();
    let work = match WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("benchmark: cannot create a work directory: {e}");
            return 1;
        }
    };
    let opts = RunOpts {
        workload,
        seed: args.seed,
        seconds: args.seconds(&spec),
        traced: args.traced,
        smoke: args.smoke,
        spans_path: args.spans.clone(),
        work_dir: work.0.clone(),
    };
    let calib_ms = sys::calib_ms();
    let mut out = match workload {
        Workload::TrainSharded => train::run(train::TrainKind::Sharded, &opts),
        Workload::TrainWide => train::run(train::TrainKind::Wide, &opts),
        Workload::ServePredict => serve::run(serve::ServeKind::Predict, &opts),
        Workload::ServeReload => serve::run(serve::ServeKind::Reload, &opts),
    };
    out.extra.insert("host.calib_ms".into(), calib_ms);
    if opts.traced {
        out.per_layer.insert("host.calib_ms".into(), calib_ms);
    }

    // Every metric the contract names, by name and unit. A layer the
    // workload does not exercise did no work: zero.
    let measured = if opts.traced {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let mut metrics = Vec::new();
    for m in spec.metrics(opts.traced) {
        let value = match measured.get(&m.name) {
            Some(v) => *v,
            None if opts.traced => 0.0,
            None => panic!("{} did not measure {}", workload.name(), m.name),
        };
        let value = if value.is_finite() {
            value
        } else {
            out.errors.push(format!("{} is {value}", m.name));
            0.0
        };
        println!("{:<40} {:>16.6} {}", m.name, value, m.unit);
        metrics.push((
            m.name.clone(),
            Value::Object(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(m.unit.clone())),
            ]),
        ));
    }
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    let numbers = |map: &BTreeMap<String, f64>| {
        Value::Object(
            map.iter()
                .filter(|(_, v)| v.is_finite())
                .map(|(k, v)| (k.clone(), Value::Float(*v)))
                .collect(),
        )
    };
    let detail = Value::Object(vec![
        ("workload".into(), Value::Str(workload.name().into())),
        ("seed".into(), Value::Int(args.seed as i64)),
        ("seconds".into(), Value::Float(opts.seconds)),
        ("traced".into(), Value::Bool(opts.traced)),
        (
            "errors".into(),
            Value::Array(out.errors.iter().cloned().map(Value::Str).collect()),
        ),
        ("end_to_end".into(), numbers(&out.end_to_end)),
        ("extra".into(), numbers(&out.extra)),
    ]);
    println!("{DETAIL_PREFIX}{}", to_json(&detail));
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(out.errors.is_empty())),
        ("attempted".into(), Value::Int(out.attempted.max(1) as i64)),
        ("failed".into(), Value::Int(out.failed as i64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", to_json(&result));
    0
}

pub fn to_json(v: &Value) -> String {
    serde_json::to_string(v).expect("values serialize")
}

/// A JSON number as `f64`; NaN for anything else.
pub fn number(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::Float(f)) => *f,
        Some(Value::Int(i)) => *i as f64,
        Some(Value::UInt(u)) => *u as f64,
        _ => f64::NAN,
    }
}

const USAGE: &str = "usage:
  benchmark --workload W --seed S --seconds T --trace 0|1 [--smoke] [--spans FILE]
  benchmark --seed S --reps R --out FILE [--seconds T] [--smoke] [--spans FILE]
  benchmark compare PARENT.json CHANGE.json
workloads: train_sharded, train_wide, serve_predict, serve_reload";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [parent, change] => suite::compare(parent.as_ref(), change.as_ref()),
            _ => {
                eprintln!("{USAGE}");
                2
            }
        }
    } else {
        match Args::parse(&args) {
            Ok(a) => match a.workload {
                Some(w) => run_one(&a, w),
                None => suite::run(&a),
            },
            Err(e) => {
                eprintln!("benchmark: {e}\n{USAGE}");
                2
            }
        }
    };
    std::process::exit(code);
}
