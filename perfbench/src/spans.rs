//! In-memory spans around the calls into each layer, written out as a
//! Chrome-trace (Perfetto) document when the run ends.

use std::time::Instant;
use symla_obs::json;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `engine.execute`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one solve.
    pub solve: usize,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Collects spans; nothing is written until [`Spans::to_chrome_trace`].
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, solve: usize) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            solve,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in milliseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.ms()
    }

    /// Runs `f` inside a span named `name` and returns its result and the
    /// span's duration in milliseconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let solve = self.spans[parent].solve;
        let id = self.begin(name, Some(parent), solve);
        let out = f();
        (out, self.end(id))
    }

    /// Total duration of the direct children of span `id`, in ms.
    pub fn children_ms(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ms)
            .sum()
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome-trace JSON document (complete `X` events on
    /// one track, microsecond timestamps), loadable in Perfetto next to
    /// the `symla-obs` run-trace exports.
    pub fn to_chrome_trace(&self, process: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
            json::escape(process)
        ));
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"{}\",\"ts\":{},\"dur\":{},\
                 \"args\":{{\"span\":{id},\"parent\":{parent},\"solve\":{}}}}}",
                json::escape(s.name),
                json::number(s.start_ns as f64 / 1e3),
                json::number(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                s.solve
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_export_as_valid_chrome_trace() {
        let mut spans = Spans::new();
        let root = spans.begin("solve", None, 7);
        let (x, _) = spans.time("core.build", root, || 2 + 2);
        assert_eq!(x, 4);
        spans.end(root);
        assert_eq!(spans.spans()[1].solve, 7);
        assert!(spans.children_ms(root) <= spans.spans()[root].ms());
        let doc = spans.to_chrome_trace("test");
        assert_eq!(json::validate(&doc), Ok(()));
        assert!(doc.contains("\"name\":\"core.build\""));
    }
}
