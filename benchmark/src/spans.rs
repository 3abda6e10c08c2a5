//! Spans recorded by the harness around each call into a front door.
//!
//! Spans live in memory and are written out once, at exit, as Chrome
//! trace-event JSON. Nothing inside the program is instrumented: a span
//! is a pair of clock reads in the harness, so the traced and untraced
//! runs execute the same library code.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// The crate whose front door the span wraps.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Which pass of the workload the span belongs to (the identifier the
    /// spans of one operation share).
    pub pass: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle to an open span; closing it yields the span's duration.
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open(usize);

#[derive(Debug)]
pub struct Tracer {
    /// An untraced run carries a tracer that is switched off: `begin` and
    /// `end` then return at once, without reading the clock.
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, layer: &'static str, name: &str) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes `span` (and, defensively, anything opened after it) and
    /// returns its duration in seconds (0 when switched off).
    pub fn end(&mut self, span: Open) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let end_ns = self.now_ns();
        while let Some(id) = self.open.pop() {
            self.spans[id].end_ns = end_ns;
            if id == span.0 {
                break;
            }
        }
        self.spans[span.0].secs()
    }

    /// Times one call: `begin`, `f`, `end`.
    pub fn time<T>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.begin(layer, name);
        let out = f();
        (out, self.end(span))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in seconds: its duration minus the part
    /// of that interval its child spans cover.
    pub fn self_secs(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9
            })
            .collect()
    }

    /// Self seconds summed per layer, in first-seen order.
    pub fn layer_self_secs(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, secs) in self.spans.iter().zip(self.self_secs()) {
            match out.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, total)) => *total += secs,
                None => out.push((s.layer, secs)),
            }
        }
        out
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto): complete events, microsecond timestamps.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::str(s.name.as_str())),
                    ("cat", Json::str(s.layer)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("pass", Json::Num(s.pass as f64)),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>, layer: &'static str) -> Span {
        Span {
            name: "s".into(),
            layer,
            start_ns,
            end_ns,
            parent,
            pass: 0,
        }
    }

    fn tracer_with(spans: Vec<Span>) -> Tracer {
        Tracer {
            spans,
            ..Tracer::new(true)
        }
    }

    #[test]
    fn nesting_records_the_causing_span() {
        let mut t = Tracer::new(true);
        t.set_pass(3);
        let outer = t.begin("harness", "pass");
        let inner = t.begin("qsim", "wtp");
        t.end(inner);
        let (x, secs) = t.time("sched", "micro", || 7);
        assert_eq!(x, 7);
        assert!(secs >= 0.0);
        t.end(outer);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s.iter().all(|s| s.pass == 3 && s.end_ns >= s.start_ns));
        assert!(s[0].end_ns >= s[2].end_ns);
    }

    #[test]
    fn a_tracer_switched_off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("qsim", "wtp");
        assert_eq!(t.end(s), 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // parent 0..100; children 10..40 and 30..60 overlap, 80..120
        // sticks out past the parent: cover = 50 + 20.
        let t = tracer_with(vec![
            span(0, 100, None, "harness"),
            span(10, 40, Some(0), "netsim"),
            span(30, 60, Some(0), "netsim"),
            span(80, 120, Some(0), "qsim"),
        ]);
        let secs = t.self_secs();
        assert!((secs[0] - 30e-9).abs() < 1e-15);
        assert!((secs[1] - 30e-9).abs() < 1e-15);
        let layers = t.layer_self_secs();
        assert_eq!(layers[0].0, "harness");
        assert_eq!(layers[1].0, "netsim");
        assert!((layers[1].1 - 60e-9).abs() < 1e-15);
    }

    #[test]
    fn chrome_trace_lists_every_span() {
        let t = tracer_with(vec![span(1_000, 3_000, None, "qsim")]);
        let doc = t.chrome_trace();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("cat").and_then(Json::as_str), Some("qsim"));
        assert_eq!(events[0].get("ts").and_then(Json::as_f64), Some(1.0));
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(2.0));
        assert!(Json::parse(&doc.pretty()).is_ok());
    }
}
