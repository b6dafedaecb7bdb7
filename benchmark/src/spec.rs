//! The benchmark's contract, read from `BENCHMARK.json` at compile time:
//! workload names, metric names, units, directions and regression bounds.
//! Keeping one copy means the printed units and the `compare` verdicts can
//! never drift from the contract.

use serde::Value;

const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

/// Whether a larger or a smaller value of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen; per-layer
    /// metrics carry none.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The spec this binary was built with.
    pub fn load() -> Spec {
        parse(SPEC_JSON).expect("BENCHMARK.json is well formed")
    }

    /// The metric table a run prints: end-to-end untraced, per-layer traced.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn parse(text: &str) -> Result<Spec, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let run_seconds = match root.get("run_seconds") {
        Some(Value::Int(n)) => *n as f64,
        other => return Err(format!("run_seconds: {other:?}")),
    };
    let workloads = array(&root, "workloads")?
        .iter()
        .map(|w| string(w, "name"))
        .collect::<Result<_, _>>()?;
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        array(&root, key)?
            .iter()
            .map(|m| {
                let better = match string(m, "better")?.as_str() {
                    "higher" => Better::Higher,
                    "lower" => Better::Lower,
                    other => return Err(format!("better: {other}")),
                };
                let bound = match m.get("bound") {
                    Some(Value::Float(b)) => Some(*b),
                    Some(Value::Int(b)) => Some(*b as f64),
                    _ => None,
                };
                Ok(MetricSpec {
                    name: string(m, "name")?,
                    unit: string(m, "unit")?,
                    better,
                    bound,
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds,
        workloads,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

fn array<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing array `{key}`"))
}

fn string(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        other => Err(format!("`{key}`: {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_every_end_to_end_metric_has_a_bound() {
        let spec = Spec::load();
        let names: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
    }
}
