//! In-memory spans recorded around calls into each layer's public
//! functions, on the process CPU clock. Spans of one round share the round
//! index as their id; the parent of a span is fixed by its name (see
//! [`parent_of`]).

use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub round: usize,
    /// CPU nanoseconds since the pass epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The span that causes `name`, when it has one. The engine calls the
/// release sink from inside `step`, and a refresh is made of its queries.
pub fn parent_of(name: &str) -> Option<&'static str> {
    match name {
        "serve.store_ingest" => Some("engine.step"),
        "serve.query_hit" | "serve.query_miss" => Some("refresh"),
        _ => None,
    }
}

/// Records spans when enabled; a disabled tracer records nothing and
/// costs one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Duration,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Duration) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn record(&mut self, name: &'static str, round: usize, start: Duration, end: Duration) {
        if self.enabled {
            self.spans.push(Span {
                name,
                round,
                start_ns: ns_since(self.epoch, start),
                end_ns: ns_since(self.epoch, end),
            });
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

fn ns_since(epoch: Duration, at: Duration) -> u64 {
    at.saturating_sub(epoch).as_nanos() as u64
}

/// Writes every span as one JSON object per line, passes in order.
pub fn write_jsonl(path: &Path, passes: &[(usize, &[Span])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (pass, spans) in passes {
        for s in spans.iter() {
            let parent = parent_of(s.name).map_or("null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                out,
                "{{\"pass\":{pass},\"name\":\"{}\",\"parent\":{parent},\
                 \"id\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.round, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

/// Self time of every span named `name` among the spans of one pass: its
/// duration minus the durations of its children (same round, child named
/// per [`parent_of`]). Children lie inside their parent, so a negative
/// self time means the spans are not of one pass, and is an error.
pub fn self_times_ms(spans: &[Span], name: &str) -> Result<Vec<f64>, String> {
    let mut children = std::collections::HashMap::<usize, u64>::new();
    for s in spans.iter().filter(|s| parent_of(s.name) == Some(name)) {
        *children.entry(s.round).or_default() += s.end_ns - s.start_ns;
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let child = children.get(&s.round).copied().unwrap_or(0);
            (s.end_ns - s.start_ns)
                .checked_sub(child)
                .map(|ns| ns as f64 / 1e6)
                .ok_or_else(|| format!("{name} of round {} is shorter than its children", s.round))
        })
        .collect()
}

/// Durations of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}
