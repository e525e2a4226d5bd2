//! Spans the benchmark records around its own calls into each layer.
//!
//! Spans stay in memory during the run and are written out as JSON lines
//! when it ends. With tracing off, `open` and `close` record nothing and
//! read no clock.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The request, round or batch a span belongs to; spans of one trace share
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceId {
    /// One singleton request, by its index in the arrival script.
    Request(u64),
    /// One `Frontend::dispatch` round.
    Round(u64),
    /// One dispatched micro-batch, by flush sequence number (written out
    /// as the flush's own trace id).
    Flush(u64),
    /// One bulk `classify_batches` call.
    Call(u64),
    /// A standalone probe after the timed phase.
    Probe(u64),
}

/// Index of an open or closed span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    trace: TraceId,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, trace: TraceId) -> SpanId {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            trace,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// End a span; returns its duration (0 with tracing off).
    pub fn close(&mut self, id: SpanId) -> u64 {
        if !self.on {
            return 0;
        }
        let end_ns = self.now_ns();
        self.spans.get_mut(id).map_or(0, |span| {
            span.end_ns = end_ns;
            end_ns - span.start_ns
        })
    }

    /// Durations in nanoseconds of every span called `name`, in recording
    /// order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON line; `flush_trace_id` names the
    /// micro-batch behind a [`TraceId::Flush`].
    pub fn write_jsonl(
        &self,
        path: &Path,
        flush_trace_id: impl Fn(u64) -> Option<String>,
    ) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let trace = match s.trace {
                TraceId::Request(n) => format!("request-{n}"),
                TraceId::Round(n) => format!("round-{n}"),
                TraceId::Flush(n) => flush_trace_id(n).unwrap_or_else(|| format!("flush-{n}")),
                TraceId::Call(n) => format!("call-{n}"),
                TraceId::Probe(n) => format!("probe-{n}"),
            };
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"trace\": \"{trace}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.open("serve", None, TraceId::Flush(7));
        let child = t.open("open", Some(root), TraceId::Flush(7));
        let inner = t.close(child);
        let outer = t.close(root);
        assert!(outer >= inner);
        assert_eq!(t.durations_ns("serve"), vec![outer]);

        let mut off = Tracer::new(false);
        let s = off.open("serve", None, TraceId::Call(0));
        off.close(s);
        assert_eq!(off.len(), 0);
    }
}
