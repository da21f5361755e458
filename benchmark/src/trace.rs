//! Spans around the benchmark's calls into each crate.
//!
//! A span is recorded from outside the crate it measures: the harness
//! opens it before calling a public function and closes it on return.
//! Spans are kept in memory and written out when the run ends; spans
//! inside the crates are a later change (the ROADMAP `probe` item).

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
pub struct Span {
    /// `<crate>.<call>`; the crate is the layer.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// The operation (step, pass, request) the call belongs to; spans of
    /// one operation share it.
    pub op: u64,
    /// The harness thread that made the call (one per connection).
    pub thread: u32,
}

/// An open span, closed by [`Tracer::end`].
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

/// The span recorder of one harness thread. Disabled, it records
/// nothing and [`Tracer::end`] still returns the elapsed time, so timed
/// code reads the same with tracing on and off.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    thread: u32,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            thread: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder for another harness thread, on the same clock.
    pub fn fork(&self, thread: u32) -> Tracer {
        Tracer {
            enabled: self.enabled,
            origin: self.origin,
            thread,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Takes over the spans a forked recorder collected.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        let started = Instant::now();
        let index = self.enabled.then(|| {
            let start_ns = started.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
                op,
                thread: self.thread,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, started }
    }

    /// Closes `open` and returns the call's duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(index) = open.index {
            self.spans[index].end_ns = now.duration_since(self.origin).as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans close innermost first");
        }
        now.duration_since(open.started).as_secs_f64()
    }

    /// Times one call under a span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name, op);
        let result = std::hint::black_box(f());
        (result, self.end(open))
    }

    /// Each span's self time: its duration minus what its child spans
    /// cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The span file: every span with its self time, then self time
    /// summed by name.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let own = self.self_times_ns();
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(&own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\
                 \"parent\":{parent},\"op\":{},\"thread\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.thread
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("],\"self_ns_by_name\":{");
        let mut totals: Vec<(&str, u64, u64)> = Vec::new();
        for (s, self_ns) in self.spans.iter().zip(&own) {
            match totals.iter_mut().find(|t| t.0 == s.name) {
                Some(t) => {
                    t.1 += self_ns;
                    t.2 += 1;
                }
                None => totals.push((s.name, *self_ns, 1)),
            }
        }
        for (i, (name, self_ns, calls)) in totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n\"{name}\":{{\"self_ns\":{self_ns},\"calls\":{calls}}}"
            );
        }
        out.push_str("\n}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("a.outer", 1);
        let inner = t.begin("b.inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        let own = t.self_times_ns();
        let inner_ns = t.spans[1].end_ns - t.spans[1].start_ns;
        assert_eq!(own[0], t.spans[0].end_ns - t.spans[0].start_ns - inner_ns);
        assert_eq!(own[1], inner_ns);
        assert!(t.to_json("w", 1).contains("\"b.inner\":{\"self_ns\""));
    }

    #[test]
    fn disabled_tracer_still_times() {
        let mut t = Tracer::new(false);
        let ((), dt) = t.time("a.call", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(dt >= 0.001);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let mut main = Tracer::new(true);
        main.time("a.x", 0, || ());
        let mut side = main.fork(1);
        let outer = side.begin("a.outer", 7);
        side.time("a.inner", 7, || ());
        side.end(outer);
        main.merge(side);
        assert_eq!(main.spans[2].parent, Some(1));
        assert_eq!(main.spans[2].thread, 1);
    }
}
