//! The span store of a traced run.
//!
//! Spans are recorded by the benchmark's own files around calls into
//! the product (nothing inside the product is instrumented), kept in
//! memory, and written to `out/trace-<workload>.json` when the run
//! ends. Each span carries its name, start and end (nanoseconds since
//! the tracer was created), the span that caused it, and the iteration
//! it belongs to. A disabled tracer records nothing, so an untraced run
//! pays one branch per call site.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; [`ROOT`] marks "no parent".
pub type SpanId = u32;

/// The parent of a top-level span.
pub const ROOT: SpanId = u32::MAX;

/// Spans kept per run. Hot loops sample (every n-th iteration) so the
/// cap is a backstop; spans past it are counted, not stored.
const SPAN_CAP: usize = 400_000;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    iteration: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether this run is traced.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`]. Returns [`ROOT`]
    /// when disabled or full (children of a dropped span attach to the
    /// root rather than to a stranger).
    pub fn open(&mut self, name: &'static str, parent: SpanId, iteration: u64) -> SpanId {
        if !self.enabled {
            return ROOT;
        }
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return ROOT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            iteration,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Records a span whose endpoints were taken elsewhere (the timed
    /// transport stamps calls made deep inside `MeshRuntime::step`).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        iteration: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
            parent,
            iteration,
        });
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if id != ROOT {
            let end_ns = self.now_ns();
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span and returns its result with the elapsed
    /// seconds (timed even when disabled: callers report the duration
    /// as a metric either way).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        iteration: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent, iteration);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.close(id);
        (out, secs)
    }

    /// Writes every span as one JSON document. A disabled tracer writes
    /// nothing.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"dropped\":{},\"spans\":[",
            self.dropped
        )?;
        let mut line = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                line,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"iteration\":{}}}",
                s.name, s.start_ns, s.end_ns, s.iteration
            )
            .expect("writing to a String cannot fail");
            if i + 1 < self.spans.len() {
                line.push(',');
            }
            writeln!(out, "{line}")?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }

    /// Spans recorded so far.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let id = t.open("a", ROOT, 0);
        assert_eq!(id, ROOT);
        t.close(id);
        let (v, secs) = t.time("b", ROOT, 1, || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer", ROOT, 7);
        let ((), _) = t.time("inner", outer, 7, || ());
        t.close(outer);
        assert_eq!(t.len(), 2);
        let (o, i) = (t.spans[0], t.spans[1]);
        assert_eq!(i.parent, outer);
        assert_eq!(o.parent, ROOT);
        assert!(o.start_ns <= i.start_ns && i.end_ns <= o.end_ns);
        assert_eq!(i.iteration, 7);
    }
}
