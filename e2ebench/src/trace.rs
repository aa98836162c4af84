//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions (the program itself is not instrumented).

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request the span belongs to (`u64::MAX`: a standalone kernel probe).
    pub req: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// `layer.call` name.
    pub name: &'static str,
    /// Offsets from the tracer's creation, ns.
    pub start_ns: u64,
    /// See `start_ns`; 0 while open.
    pub end_ns: u64,
}

/// Span recorder; spans stay in memory until [`Tracer::dump`].
pub struct Tracer {
    t0: Instant,
    /// Every span, in opening order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, req: u64, parent: Option<usize>, name: &'static str) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            req,
            parent,
            name,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Times `f` as one span; returns its value and the span id.
    pub fn time<T>(
        &mut self,
        req: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(req, parent, name);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Span duration, µs.
    pub fn dur_us(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3
    }

    /// Durations (µs) of every span named `name` — only those directly
    /// under a span named `parent`, when given.
    pub fn durations_us(&self, name: &str, parent: Option<&str>) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .filter(|&i| {
                parent.is_none_or(|p| {
                    self.spans[i]
                        .parent
                        .is_some_and(|q| self.spans[q].name == p)
                })
            })
            .map(|i| self.dur_us(i))
            .collect()
    }

    /// One JSON object per line: id, parent, request, name, start, end.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let req = if s.req == u64::MAX {
                "null".to_string()
            } else {
                s.req.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"req\":{req},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
