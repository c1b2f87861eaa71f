//! In-memory spans recorded by the benchmark around its own calls into
//! each layer, written out as JSON lines when the run ends.

use iis_obs::{Json, ToJson as _};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name (`tasks.parse_spec`, `client.request`, …).
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request id shared by every span of one question.
    pub req: u64,
}

/// A span recorder; records nothing when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being kept.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a closed span; returns its index (0 when off).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        if !self.on {
            return 0;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        };
        let mut spans = self.spans.lock().expect("span buffer lock");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span to be closed with [`Tracer::close`]; its children can
    /// name it as parent in between.
    pub fn open(&self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let now = Instant::now();
        let idx = self.record(name, now, now, parent, req);
        if self.on {
            self.spans.lock().expect("span buffer lock")[idx].end_ns = 0;
        }
        idx
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&self, idx: usize) {
        if self.on {
            let end = self.ns(Instant::now());
            self.spans.lock().expect("span buffer lock")[idx].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// elapsed time in µs (measured whether or not spans are kept).
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.record(name, start, end, parent, req);
        (out, (end - start).as_secs_f64() * 1e6)
    }

    /// A copy of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| p.to_json());
            let line = Json::obj([
                ("id", i.to_json()),
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", s.start_ns.to_json()),
                ("end_ns", s.end_ns.to_json()),
                ("parent", parent),
                ("req", s.req.to_json()),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span, in µs: its duration minus the part of its
/// interval its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered) as f64 / 1e3
        })
        .collect()
}

/// Self-time samples grouped by span name.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        out.entry(s.name).or_default().push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 10_000, None),
            span("a", 1_000, 4_000, Some(0)),
            span("b", 3_000, 6_000, Some(0)),  // overlaps a
            span("c", 9_000, 12_000, Some(0)), // runs past the parent
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![4.0, 3.0, 3.0, 3.0]);
        let by = self_times_by_name(&spans);
        assert_eq!(by["a"], vec![3.0]);
    }

    #[test]
    fn an_off_tracer_keeps_nothing_but_still_times() {
        let t = Tracer::new(false);
        let (v, us) = t.time("x", None, 0, || 41 + 1);
        assert_eq!(v, 42);
        assert!(us >= 0.0);
        assert!(t.spans().is_empty());
    }
}
