//! In-memory spans for the traced run.
//!
//! Each span has a name, start and end (nanoseconds since the tracer was
//! created), the span that caused it, and an optional request id. Spans
//! stay in memory and are written out as JSON lines when the run ends. A
//! disabled tracer records nothing, so the untraced run pays only a branch.

use crate::report::json_str;
use std::time::{Duration, Instant};

/// Identifies a recorded span (its index), for use as a parent.
pub type SpanId = usize;

/// One recorded span.
pub struct Span {
    /// Layer and call, e.g. `core.solver.optimize`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request (or iteration) id shared by the spans of one request.
    pub req: Option<u64>,
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        req: Option<u64>,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, req });
        Some(self.spans.len() - 1)
    }

    /// Time `f` and record it as a span named `name`; returns the result,
    /// the elapsed time, and the span id (for children recorded after).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration, Option<SpanId>) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.record(name, start, end, parent, None);
        (out, end - start, id)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as JSON lines.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}\n",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.req),
            ));
        }
        out
    }
}
