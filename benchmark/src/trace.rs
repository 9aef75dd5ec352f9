//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The library has no timers of its own yet, so the spans live here: one per
//! public call, kept in memory and written out as JSON lines when the run
//! ends. A disabled tracer records nothing, so the untraced run pays only a
//! branch per call site; the difference between the two runs is reported as
//! `trace.overhead_pct`.

use crate::json::{Value, ValueExt};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one request.
    pub request: u64,
    /// `<layer>.<call>`, e.g. `plan.plan_with`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 while open.
    pub end_ns: u64,
}

/// An open span; close it with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Open {
    /// The span's index, for use as a parent.
    pub fn id(self) -> Option<usize> {
        self.0
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Switch recording on or off (spans already recorded are kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            request,
            name,
            start_ns,
            end_ns: 0,
        });
        Open(Some(self.spans.len() - 1))
    }

    /// Close a span.
    pub fn end(&mut self, open: Open) {
        if let Some(i) = open.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Time `f` under a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, parent, request);
        let out = f();
        self.end(open);
        out
    }

    /// Time `f` under a span and return its duration in microseconds, which
    /// is measured whether or not the tracer records.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin(name, parent, request);
        let start = Instant::now();
        let out = f();
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.end(open);
        (out, us)
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the `preamble` objects (what the request ids refer to), then one
    /// JSON object per span: `id`, `parent`, `request`, `name`, `start_ns`,
    /// `end_ns`.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn write_jsonl(&self, path: &Path, preamble: &[Value]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for line in preamble {
            writeln!(out, "{}", line.to_json())?;
        }
        for (id, s) in self.spans.iter().enumerate() {
            let line = Value::obj([
                ("id", Value::Num(id as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("request", Value::Num(s.request as f64)),
                ("name", Value::str(s.name)),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.to_json())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_a_request_id() {
        let mut t = Tracer::new(true);
        let root = t.begin("request", None, 7);
        let v = t.span("expr.parse", root.id(), 7, || 41 + 1);
        t.end(root);
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.begin("request", None, 1);
        assert!(root.id().is_none());
        t.end(root);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let mut t = Tracer::new(true);
        let root = t.begin("request", None, 3);
        t.span("plan.plan_with", root.id(), 3, || ());
        t.end(root);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        t.write_jsonl(&path, &[Value::obj([("position", Value::Num(0.0))])])
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<Value> = text.lines().map(|l| Value::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].get("position").is_some());
        let lines = &lines[1..];
        assert_eq!(lines[1].get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(
            lines[1].get("name").and_then(Value::as_str),
            Some("plan.plan_with")
        );
        assert_eq!(lines[0].get("parent"), Some(&Value::Null));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
