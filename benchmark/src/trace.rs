//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a name, an interval on one clock, and the span that caused it.
//! Spans stay in memory and are written as JSON lines when the run ends.
//! A span's self time is its duration minus the part of it that its
//! children cover; per-layer numbers that are times come from these spans.

use serde::Value;
use std::borrow::Cow;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The causing span's id; 0 for a root.
    pub parent: u64,
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span log of one run.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// `t` on this log's clock.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span given on this log's clock; returns its id.
    pub fn add_ns(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Record a span between two instants; returns its id.
    pub fn add(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let (s, e) = (self.at(start), self.at(end));
        self.add_ns(name, parent, s, e)
    }

    /// End a span opened earlier (recorded with its start as its end).
    pub fn close(&mut self, id: u64, end: Instant) {
        let end_ns = self.at(end);
        self.spans[(id - 1) as usize].end_ns = end_ns;
    }

    /// Run `f` inside a span and return its value.
    pub fn time<T>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.add(name, parent, start, Instant::now());
        value
    }

    /// Durations in seconds of every span called `name`, in record order.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Self time of every span, nanoseconds, in record order.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let covered = children
                    .get_mut(&s.id)
                    .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Append every span to `path` as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        let mut out = std::io::BufWriter::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?,
        );
        for (s, own) in self.spans.iter().zip(self_ns) {
            let line = Value::Object(vec![
                ("workload".into(), Value::Str(workload.to_owned())),
                ("name".into(), Value::Str(s.name.to_string())),
                ("id".into(), Value::Int(s.id as i64)),
                ("parent".into(), Value::Int(s.parent as i64)),
                ("start_us".into(), Value::Float(s.start_ns as f64 / 1e3)),
                ("end_us".into(), Value::Float(s.end_ns as f64 / 1e3)),
                ("self_us".into(), Value::Float(own as f64 / 1e3)),
            ]);
            writeln!(
                out,
                "{}",
                serde_json::to_string(&line).expect("span serializes")
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = Spans::new();
        let root = spans.add_ns("step", 0, 0, 100);
        // Overlapping children (pipelined requests) count once.
        spans.add_ns("request", root, 10, 40);
        spans.add_ns("request", root, 30, 50);
        spans.add_ns("request", root, 90, 120);
        let own = spans.self_ns();
        assert_eq!(own[0], 100 - 40 - 10);
        assert_eq!(own[1], 30);
        assert_eq!(spans.seconds("request").len(), 3);
    }
}
