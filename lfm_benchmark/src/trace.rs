//! Benchmark-owned spans: recorded around calls into the product, kept in
//! a `Vec`, written once at exit as Chrome trace JSON. Spans inside the
//! product are a later change; these measure every layer from outside.

use crate::json::{obj, str, Value};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            origin: Instant::now(),
            workload,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`, child of the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time of the spans named `name`: their duration minus the part
    /// their direct children cover.
    pub fn self_secs(&self, name: &str) -> f64 {
        let mut total = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let children: f64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(Span::secs)
                .sum();
            total += s.secs() - children;
        }
        total
    }

    /// Chrome trace-event JSON (`chrome://tracing`, ui.perfetto.dev).
    pub fn chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                obj([
                    ("name", str(s.name)),
                    ("cat", str("lfm_benchmark")),
                    ("ph", str("X")),
                    ("ts", Value::Num(s.start_us)),
                    ("dur", Value::Num(s.end_us - s.start_us)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(1.0)),
                    (
                        "args",
                        obj([
                            ("id", Value::Num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                            ),
                            ("workload", str(self.workload)),
                        ]),
                    ),
                ])
            })
            .collect();
        obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", str("ms")),
        ])
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_self_time_and_export() {
        let mut t = Tracer::new("unit");
        t.span("run", |t| {
            t.span("submit", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("submit", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(t.durations("submit").len(), 2);
        let run = t.durations("run")[0];
        let children: f64 = t.durations("submit").iter().sum();
        assert!(children >= 0.002 && run >= children);
        assert!((t.self_secs("run") - (run - children)).abs() < 1e-9);
        let json = t.chrome_json();
        lfm_core::telemetry::export::validate_json(&json).unwrap();
        assert!(json.contains("\"traceEvents\"") && json.contains("\"workload\": \"unit\""));
    }
}
