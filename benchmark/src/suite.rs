//! The suite form: every workload, repeated, each repetition in its own
//! child process; and `compare`, which judges two suite files against the
//! bounds in `BENCHMARK.json`.

use crate::spec::{Better, MetricSpec, Spec};
use crate::stats::{median, quartiles};
use crate::{number, to_json, Args, Workload, DETAIL_PREFIX};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// One child run: the result line and the detail line.
struct ChildRun {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
    detail: Value,
}

impl ChildRun {
    fn metric(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(f64::NAN)
    }
}

fn child(args: &Args, spec: &Spec, w: Workload, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds(spec).to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let (true, Some(spans)) = (traced, &args.spans) {
        cmd.arg("--spans").arg(spans);
    }
    crate::sys::die_with_parent(&mut cmd);
    let output = cmd.output().map_err(|e| format!("cannot run child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{} exited with {}", w.name(), output.status));
    }
    let parse = |line: &str| serde_json::from_str::<Value>(line).map_err(|e| e.to_string());
    let result = parse(stdout.lines().last().unwrap_or_default())?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .map(parse)
        .transpose()?
        .unwrap_or(Value::Null);
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .unwrap_or_default()
        .iter()
        .map(|(name, m)| (name.clone(), number(m.get("value"))))
        .collect();
    Ok(ChildRun {
        correct: result.get("correct") == Some(&Value::Bool(true)),
        attempted: number(result.get("attempted")),
        failed: number(result.get("failed")),
        metrics,
        detail,
    })
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn header(args: &Args, spec: &Spec, calib: Value) -> Value {
    let rev = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = command_line("git", &["status", "--porcelain", "--untracked-files=no"])
        .map(|s| !s.is_empty());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Object(vec![
        ("git_rev".into(), rev.map_or(Value::Null, Value::Str)),
        ("git_dirty".into(), dirty.map_or(Value::Null, Value::Bool)),
        ("nproc".into(), Value::Int(nproc as i64)),
        (
            "rustc".into(),
            command_line("rustc", &["-V"]).map_or(Value::Null, Value::Str),
        ),
        ("seed".into(), Value::Int(args.seed as i64)),
        ("reps".into(), Value::Int(args.reps as i64)),
        ("seconds".into(), Value::Float(args.seconds(spec))),
        ("smoke".into(), Value::Bool(args.smoke)),
        ("host_calib_ms".into(), calib),
    ])
}

/// Run the suite: `reps` untraced repetitions of every workload, rotated so
/// no workload always runs first, then one traced pass each.
pub fn run(args: &Args) -> i32 {
    let Some(out_path) = &args.out else {
        eprintln!("benchmark: the suite needs --out FILE (or --workload for one run)");
        return 2;
    };
    let spec = Spec::load();
    if let Some(spans) = &args.spans {
        if let Err(e) = std::fs::write(spans, "") {
            eprintln!("benchmark: cannot create {}: {e}", spans.display());
            return 1;
        }
    }
    let mut runs: BTreeMap<&str, Vec<ChildRun>> = BTreeMap::new();
    let mut failures = Vec::new();
    for rep in 0..args.reps {
        for i in 0..Workload::ALL.len() {
            let w = Workload::ALL[(rep + i) % Workload::ALL.len()];
            eprintln!("benchmark: {} rep {}/{}", w.name(), rep + 1, args.reps);
            match child(args, &spec, w, false) {
                Ok(r) => runs.entry(w.name()).or_default().push(r),
                Err(e) => failures.push(e),
            }
        }
    }
    let mut traced: BTreeMap<&str, ChildRun> = BTreeMap::new();
    for w in Workload::ALL {
        eprintln!("benchmark: {} traced pass", w.name());
        match child(args, &spec, w, true) {
            Ok(r) => {
                traced.insert(w.name(), r);
            }
            Err(e) => failures.push(e),
        }
    }

    let mut correct = failures.is_empty();
    let mut calib = Vec::new();
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let reps = runs.get(w.name()).map_or(&[][..], Vec::as_slice);
        let t = traced.get(w.name());
        correct &= reps.iter().chain(t).all(|r| r.correct);
        calib.push((
            w.name().to_owned(),
            Value::Array(
                reps.iter()
                    .map(|r| Value::Float(number(extra(&r.detail).get("host.calib_ms"))))
                    .collect(),
            ),
        ));
        workloads.push((w.name().to_owned(), summarize(&spec, reps, t)));
    }
    let report = Value::Object(vec![
        ("schema".into(), Value::Str("cold-benchmark/v1".into())),
        ("header".into(), header(args, &spec, Value::Object(calib))),
        ("correct".into(), Value::Bool(correct)),
        (
            "failures".into(),
            Value::Array(failures.iter().cloned().map(Value::Str).collect()),
        ),
        ("workloads".into(), Value::Object(workloads)),
    ]);
    print_report(&spec, &report);
    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Err(e) = std::fs::write(out_path, text + "\n") {
        eprintln!("benchmark: cannot write {}: {e}", out_path.display());
        return 1;
    }
    for f in &failures {
        eprintln!("benchmark: {f}");
    }
    if correct {
        0
    } else {
        eprintln!("benchmark: a correctness check failed");
        1
    }
}

fn extra(detail: &Value) -> &Value {
    detail.get("extra").unwrap_or(&Value::Null)
}

/// Medians and quartiles of each end-to-end metric over the repetitions,
/// the traced pass's per-layer metrics, and the tracing overhead on the
/// headline `p50_ms`.
fn summarize(spec: &Spec, reps: &[ChildRun], traced: Option<&ChildRun>) -> Value {
    let mut e2e = Vec::new();
    for m in &spec.end_to_end {
        let values: Vec<f64> = reps.iter().map(|r| r.metric(&m.name)).collect();
        let (q1, med, q3) = quartiles(&values);
        e2e.push((
            m.name.clone(),
            Value::Object(vec![
                ("unit".into(), Value::Str(m.unit.clone())),
                ("median".into(), Value::Float(med)),
                ("q1".into(), Value::Float(q1)),
                ("q3".into(), Value::Float(q3)),
                (
                    "values".into(),
                    Value::Array(values.into_iter().map(Value::Float).collect()),
                ),
            ]),
        ));
    }
    let per_layer = spec
        .per_layer
        .iter()
        .map(|m| {
            let v = traced.map_or(f64::NAN, |t| t.metric(&m.name));
            (
                m.name.clone(),
                Value::Object(vec![
                    ("unit".into(), Value::Str(m.unit.clone())),
                    ("value".into(), Value::Float(v)),
                ]),
            )
        })
        .collect();
    let untraced_p50 = median(&reps.iter().map(|r| r.metric("p50_ms")).collect::<Vec<_>>());
    let traced_p50 = traced.map_or(f64::NAN, |t| {
        number(t.detail.get("end_to_end").and_then(|e| e.get("p50_ms")))
    });
    let errors: Vec<Value> = reps
        .iter()
        .chain(traced)
        .flat_map(|r| {
            r.detail
                .get("errors")
                .and_then(Value::as_array)
                .unwrap_or_default()
        })
        .cloned()
        .collect();
    Value::Object(vec![
        ("end_to_end".into(), Value::Object(e2e)),
        ("per_layer".into(), Value::Object(per_layer)),
        (
            "trace_overhead_pct".into(),
            Value::Float(100.0 * (traced_p50 / untraced_p50 - 1.0)),
        ),
        (
            "attempted".into(),
            Value::Float(reps.iter().map(|r| r.attempted).sum()),
        ),
        (
            "failed".into(),
            Value::Float(reps.iter().map(|r| r.failed).sum()),
        ),
        ("errors".into(), Value::Array(errors)),
        (
            "extra".into(),
            Value::Array(
                reps.iter()
                    .chain(traced)
                    .map(|r| extra(&r.detail).clone())
                    .collect(),
            ),
        ),
    ])
}

fn print_report(spec: &Spec, report: &Value) {
    let Some(workloads) = report.get("workloads").and_then(Value::as_object) else {
        return;
    };
    for (w, body) in workloads {
        println!("== {w}");
        for m in &spec.end_to_end {
            let s = body.get("end_to_end").and_then(|e| e.get(&m.name));
            let get = |k: &str| number(s.and_then(|s| s.get(k)));
            println!(
                "  {:<34} {:>14.6} {:<6} [{:.6}, {:.6}]",
                m.name,
                get("median"),
                m.unit,
                get("q1"),
                get("q3")
            );
        }
        for m in &spec.per_layer {
            let v = number(
                body.get("per_layer")
                    .and_then(|p| p.get(&m.name))
                    .and_then(|p| p.get("value")),
            );
            println!("  {:<34} {:>14.6} {}", m.name, v, m.unit);
        }
        println!(
            "  {:<34} {:>14.2} %",
            "trace.overhead_pct",
            number(body.get("trace_overhead_pct"))
        );
    }
    println!(
        "correct: {}",
        to_json(report.get("correct").unwrap_or(&Value::Null))
    );
}

/// How a change's runs of one metric compare with its parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// The no-regression rule: a change is worse when its median is worse than
/// the parent's by more than `bound` (a share of the parent's median). When
/// either side's quartile spread is wider than the bound the comparison is
/// unresolved — unless every change run reads better than every parent run
/// by more than the parent's own spread, which is a gain.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (pq1, pm, pq3) = quartiles(parent);
    let (cq1, cm, cq3) = quartiles(change);
    let parent_spread = (pq3 - pq1) / pm.abs();
    let spread = parent_spread.max((cq3 - cq1) / cm.abs());
    let range = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        (lo, v.iter().copied().fold(f64::NEG_INFINITY, f64::max))
    };
    let ((p_lo, p_hi), (c_lo, c_hi)) = (range(parent), range(change));
    // Worsening as a share of the parent's median; negative is a gain.
    let (worse_by, all_better) = match better {
        Better::Lower => ((cm - pm) / pm.abs(), c_hi < p_lo),
        Better::Higher => ((pm - cm) / pm.abs(), c_lo > p_hi),
    };
    if all_better && -worse_by > parent_spread {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// `compare PARENT CHANGE`: one row per (workload, end-to-end metric).
/// Exits 1 when any metric is worse.
pub fn compare(parent: &Path, change: &Path) -> i32 {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = match (load(parent), load(change)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            return 2;
        }
    };
    let spec = Spec::load();
    let values = |report: &Value, w: &str, m: &MetricSpec| -> Vec<f64> {
        report
            .get("workloads")
            .and_then(|ws| ws.get(w))
            .and_then(|x| x.get("end_to_end"))
            .and_then(|e| e.get(&m.name))
            .and_then(|s| s.get("values"))
            .and_then(Value::as_array)
            .unwrap_or_default()
            .iter()
            .map(|v| number(Some(v)))
            .collect()
    };
    println!(
        "{:<14} {:<17} {:>30} {:>30} {:>8}  verdict (bound)",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change"
    );
    let mut any_worse = false;
    for w in Workload::ALL {
        for m in &spec.end_to_end {
            let (pv, cv) = (values(&a, w.name(), m), values(&b, w.name(), m));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let v = verdict(&pv, &cv, m.better, bound);
            any_worse |= v == Verdict::Worse;
            let (pq1, pm, pq3) = quartiles(&pv);
            let (cq1, cm, cq3) = quartiles(&cv);
            println!(
                "{:<14} {:<17} {:>30} {:>30} {:>+7.1}%  {:?} ({:.0}%)",
                w.name(),
                m.name,
                format!("{pm:.4} [{pq1:.4}, {pq3:.4}]"),
                format!("{cm:.4} [{cq1:.4}, {cq3:.4}]"),
                100.0 * (cm / pm - 1.0),
                v,
                100.0 * bound
            );
        }
    }
    i32::from(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_rule() {
        let base = [100.0, 101.0, 99.0];
        // Within the bound either way: same.
        assert_eq!(
            verdict(&base, &[104.0, 105.0, 103.0], Better::Lower, 0.1),
            Verdict::Same
        );
        // Median worse by more than the bound, spreads tight: worse.
        assert_eq!(
            verdict(&base, &[115.0, 116.0, 114.0], Better::Lower, 0.1),
            Verdict::Worse
        );
        // The same numbers are a gain when higher is better.
        assert_eq!(
            verdict(&base, &[115.0, 116.0, 114.0], Better::Higher, 0.1),
            Verdict::Better
        );
        // Spread wider than the bound: unresolved, even if the median moved.
        assert_eq!(
            verdict(&base, &[80.0, 130.0, 160.0], Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ... unless every change run beats every parent run by more than
        // the parent's spread.
        assert_eq!(
            verdict(
                &[100.0, 150.0, 200.0],
                &[10.0, 20.0, 30.0],
                Better::Lower,
                0.1
            ),
            Verdict::Better
        );
        // Every run better, but by less than the parent's own spread: same.
        assert_eq!(
            verdict(&base, &[98.5, 98.6, 98.4], Better::Lower, 0.1),
            Verdict::Same
        );
    }
}
