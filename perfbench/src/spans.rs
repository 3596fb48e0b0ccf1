//! Benchmark-side spans for the traced run: one span (name, start, end,
//! parent) around each call the benchmark makes into a layer's public
//! functions, kept in memory and written at exit as Chrome trace-event
//! JSON (`ph: "X"` complete events on one thread), the format the
//! workspace's `tracecheck` validates. The file's timeline is the wall
//! clock; the durations handed back to the caller are on-CPU seconds,
//! the clock every reported time uses.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::report::{cpu_ns, cpu_since, json_str};

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    args: Vec<(&'static str, u64)>,
}

/// An in-memory span recorder. Single-threaded: the benchmark drives
/// every layer from its own thread (the pool is pinned to one worker).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last, with their [`cpu_ns`] start.
    open: Vec<(usize, u64)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().map(|&(id, _)| id),
            args: Vec::new(),
        });
        self.open.push((id, cpu_ns()));
        id
    }

    /// Closes span `id` (which must be the innermost open span) with
    /// `args`, returning its on-CPU seconds.
    pub fn end(&mut self, id: usize, args: &[(&'static str, u64)]) -> f64 {
        let (closed, cpu_start) = self.open.pop().expect("a span is open");
        assert_eq!(closed, id, "spans close innermost first");
        let seconds = cpu_since(cpu_start);
        let span = &mut self.spans[id];
        span.end = Instant::now();
        span.args.extend_from_slice(args);
        seconds
    }

    /// Runs `f` inside a span named `name`, returning its value and
    /// on-CPU seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        args: &[(&'static str, u64)],
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let id = self.begin(name);
        let value = f(self);
        let seconds = self.end(id, args);
        (value, seconds)
    }

    /// Records an already-timed interval as a child of the innermost
    /// open span (used where one span stands for many short calls).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        args: &[(&'static str, u64)],
    ) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().map(|&(id, _)| id),
            args: args.to_vec(),
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as Chrome trace-event JSON, sorted by start.
    pub fn export(&self, path: &Path) -> std::io::Result<()> {
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| (self.spans[i].start, i));
        let micros = |t: Instant| (t - self.origin).as_nanos() as f64 / 1000.0;
        let mut out = String::from(
            "{\"traceEvents\": [\n{\"name\": \"thread_name\", \"ph\": \"M\", \"ts\": 0, \
             \"pid\": 1, \"tid\": 1, \"args\": {\"name\": \"perfbench\"}}",
        );
        for i in order {
            let span = &self.spans[i];
            let _ = write!(
                out,
                ",\n{{\"name\": {}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {i}",
                json_str(span.name),
                micros(span.start),
                (span.end - span.start).as_nanos() as f64 / 1000.0,
            );
            if let Some(parent) = span.parent {
                let _ = write!(out, ", \"parent\": {parent}");
            }
            for (key, value) in &span.args {
                let _ = write!(out, ", {}: {value}", json_str(key));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        let ((), _) = t.span("inner", &[("n", 3)], |_| {});
        t.end(outer, &[]);
        assert_eq!(t.spans[1].parent, Some(outer));
        assert_eq!(t.spans[1].args, vec![("n", 3)]);
        assert_eq!(t.spans[0].parent, None);
    }
}
