//! Harness-side spans around calls into each layer.
//!
//! The benchmark measures every layer *from outside*: a span is opened
//! around a public call (`serve`, `run_algorithm`, a feed loop, …), never
//! inside the program. Spans nest by call structure; a span's **self time**
//! is its duration minus the part its child spans cover. They are kept in
//! memory and written as JSON lines when the run ends. With the tracer off
//! (`--trace 0`) [`Tracer::time`] still returns durations — the harness needs
//! them for throughput — but records nothing.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run`.
    pub name: &'static str,
    /// Which repetition of the workload's unit of work this belongs to; all
    /// spans of one repetition share it.
    pub run: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Span recorder for the harness thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), run: 0 }
    }

    /// Switch recording on or off (the traced run alternates the two to
    /// measure the tracing overhead itself).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Start the next repetition: later spans carry a new run id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Run `f` inside a span named `name`; returns its result and duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        let slot = self.enabled.then(|| {
            let start_ns = self.origin.elapsed().as_nanos() as u64;
            self.spans.push(Span {
                name,
                run: self.run,
                parent: self.open.last().copied(),
                start_ns,
                end_ns: start_ns,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = Instant::now();
        let result = f(self);
        let took = start.elapsed();
        if let Some(idx) = slot {
            self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
            self.open.pop();
        }
        (result, took)
    }

    /// Record a span measured elsewhere (a consumer thread times its own
    /// work and reports it after the join), as a child of the innermost open
    /// span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                run: self.run,
                parent: self.open.last().copied(),
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in nanoseconds: each span's duration minus
    /// the part of it its direct children cover (children on another thread
    /// may overlap each other; coverage is the union of their intervals).
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let (lo, hi) = (self.spans[p].start_ns, self.spans[p].end_ns);
                children[p].push((span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi)));
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            *out.entry(span.name).or_default() += (span.end_ns - span.start_ns) - covered;
        }
        out
    }

    /// Write the spans as JSON lines (`name`, `run`, `id`, `parent`,
    /// `start_ns`, `end_ns`), creating the directory if needed.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                file,
                "{{\"name\": \"{}\", \"run\": {}, \"id\": {id}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.run, s.start_ns, s.end_ns
            )?;
        }
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, run: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60), // overlaps a by 10
            span("a", Some(0), 70, 80),
            span("leaf", Some(1), 15, 20),
        ];
        let st = t.self_times();
        assert_eq!(st["root"], 100 - (50 + 10));
        assert_eq!(st["a"], (30 - 5) + 10);
        assert_eq!(st["b"], 30);
        assert_eq!(st["leaf"], 5);
    }

    #[test]
    fn nesting_follows_call_structure_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let ((), outer) = t.time("outer", |t| {
            t.time("inner", |_| std::thread::sleep(Duration::from_millis(2)));
            t.next_run();
            t.time("inner", |_| ());
        });
        assert!(outer >= Duration::from_millis(2));
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!((spans[1].run, spans[2].run), (0, 1));
        assert!(spans[0].end_ns >= spans[2].end_ns);

        let mut off = Tracer::new(false);
        let (x, took) = off.time("quiet", |_| 7);
        assert_eq!(x, 7);
        assert!(took < Duration::from_secs(1));
        assert!(off.spans().is_empty());
    }
}
