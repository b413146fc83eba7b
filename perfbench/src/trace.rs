//! In-memory spans recorded around calls into each layer's public entry
//! points. Spans are kept until the run ends, then summarised and
//! written out as tab-separated rows.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(1 << 14) }
    }

    /// Opens a span that ends at [`Tracer::close`]; children name its
    /// id as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.spans.push(Span { name, start: now, end: now, parent, request });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
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

    /// Records a span timed by the caller.
    pub fn record(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::micros).collect()
    }

    /// Writes one row per span: name, start and end (µs since the run
    /// began), parent id, request id.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_us\tend_us\tparent\trequest")?;
        for (id, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{:.3}\t{:.3}\t{parent}\t{}",
                s.name,
                us(s.start),
                us(s.end),
                s.request
            )?;
        }
        out.flush()
    }
}
