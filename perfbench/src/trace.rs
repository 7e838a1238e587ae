//! In-memory spans recorded around calls into the router's layers.
//!
//! A span has a name, a start and an end (µs since the tracer was made),
//! the span that caused it, and the request it belongs to. Spans stay in
//! memory until the run ends and are then written out in one piece.

use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
struct Span {
    /// Layer call, e.g. `sequential` or `eco.plan`.
    name: &'static str,
    /// Start, µs since the tracer's origin.
    start_us: f64,
    /// End, µs since the tracer's origin (NaN while open).
    end_us: f64,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// Request the span belongs to (0: set-up work outside any request).
    request: u64,
}

impl Span {
    /// Duration in ms.
    fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    requests: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            requests: 0,
        }
    }
}

impl Tracer {
    /// A fresh request id (never 0).
    pub fn request(&mut self) -> u64 {
        self.requests += 1;
        self.requests
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: f64::NAN,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Runs `f` inside a span of its own.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Durations in ms of every closed span called `name`.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_us.is_finite())
            .map(Span::ms)
            .collect()
    }

    /// Self time in ms of every span called `name`: its duration minus the
    /// time its direct children cover (children never overlap here — each
    /// span's calls run one after another).
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name && self.spans[i].end_us.is_finite())
            .map(|i| {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(Span::ms)
                    .sum();
                self.spans[i].ms() - children
            })
            .collect()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{},\"request\":{}}}",
                    s.name, s.start_us, s.end_us, parent, s.request
                )
            })
            .collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }
}
