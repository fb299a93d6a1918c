//! The benchmark's own tracing, recorded from outside the library: a
//! span around each call the benchmark makes into a layer (name, start,
//! end, parent), and per-call timings aggregated by kind rather than
//! stored one per call. Everything stays in memory until the run ends
//! and is then written out as one JSON document.

use std::fmt::Write as _;
use std::time::Instant;

/// One completed (or still open, `end_ns == 0`) span. Times are
/// nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the benchmark was calling.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// Calls of one kind: how many, and their summed wall-clock time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Calls {
    /// Calls timed.
    pub count: u64,
    /// Their total wall-clock time, ns.
    pub total_ns: u64,
}

impl Calls {
    /// Mean ns per call; 0 when no call was timed.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Span recorder plus per-kind call aggregation.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    calls: Vec<(&'static str, Calls)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            calls: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Add one call of `kind` that took `ns`.
    pub fn add(&mut self, kind: &'static str, ns: u64) {
        let slot = match self.calls.iter().position(|(k, _)| *k == kind) {
            Some(i) => i,
            None => {
                self.calls.push((kind, Calls::default()));
                self.calls.len() - 1
            }
        };
        let c = &mut self.calls[slot].1;
        c.count += 1;
        c.total_ns += ns;
    }

    /// Aggregated calls of `kind` (zero when none were timed).
    pub fn calls(&self, kind: &str) -> Calls {
        self.calls
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(Calls::default(), |(_, c)| *c)
    }

    /// Durations (s) of every completed span named `name`, in start
    /// order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Self time of span `i`: its duration minus the part covered by
    /// its direct children (children never overlap one another).
    fn self_ns(&self, i: usize) -> u64 {
        let own = self.spans[i].end_ns.saturating_sub(self.spans[i].start_ns);
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum();
        own.saturating_sub(children)
    }

    /// The whole trace as one JSON document: spans (with self time) and
    /// the per-kind call aggregates.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(i)
            );
        }
        out.push_str("],\"calls\":{");
        for (i, (kind, c)) in self.calls.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{kind}\":{{\"count\":{},\"total_ns\":{}}}",
                c.count, c.total_ns
            );
        }
        out.push_str("}}");
        out
    }
}

/// An optional tracer threaded through a workload's loop: times a call
/// when tracing is on, and only makes the call when it is off.
pub struct Probe<'a>(pub Option<&'a mut Tracer>);

impl Probe<'_> {
    /// Call `f`, timing it under `kind` when tracing.
    #[inline]
    pub fn time<T>(&mut self, kind: &'static str, f: impl FnOnce() -> T) -> T {
        match self.0.as_deref_mut() {
            None => f(),
            Some(tr) => {
                let t0 = Instant::now();
                let out = f();
                tr.add(kind, t0.elapsed().as_nanos() as u64);
                out
            }
        }
    }

    /// Run `f` inside a span when tracing.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Probe<'_>) -> T) -> T {
        match self.0.as_deref_mut() {
            None => f(&mut Probe(None)),
            Some(tr) => tr.span(name, |tr| f(&mut Probe(Some(tr)))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::new();
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert!(tr.self_ns(0) < tr.spans[1].end_ns - tr.spans[1].start_ns);
        let json = tr.to_json();
        assert!(json.contains("\"name\":\"inner\""), "{json}");
        assert!(json.contains("\"parent\":0"), "{json}");
    }

    #[test]
    fn calls_aggregate_by_kind() {
        let mut tr = Tracer::new();
        tr.add("a", 10);
        tr.add("a", 30);
        tr.add("b", 5);
        assert_eq!(
            tr.calls("a"),
            Calls {
                count: 2,
                total_ns: 40
            }
        );
        assert_eq!(tr.calls("a").mean_ns(), 20.0);
        assert_eq!(tr.calls("missing").mean_ns(), 0.0);
    }
}
