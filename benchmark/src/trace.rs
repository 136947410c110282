//! In-memory span recorder for the `--trace 1` run.
//!
//! The harness opens a span around each call it makes into a crate's public
//! functions; nothing inside the crates is instrumented. Spans nest by call
//! order on the recording thread, carry the id of the operation that caused
//! them, stay in memory while the run measures, and are written out once at
//! the end. A layer's self time is its span minus the part its children
//! cover. With tracing off every method is a branch on one bool.

use std::time::Instant;

use uniclean_model::Json;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (clean call, ingest, restart cycle…) this belongs to.
    pub op_id: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder; single-threaded by design (the load generator's second
/// thread reports raw latencies instead of spans).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new operation; spans opened from now on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op_id += 1;
        self.op_id
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = now;
        }
    }

    /// Run `f` inside a span called `name` and return its result with the
    /// wall seconds it took (measured whether or not tracing is on).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.begin(name);
        let started = Instant::now();
        let out = f();
        let secs = started.elapsed().as_secs_f64();
        self.end();
        (out, secs)
    }

    /// Durations in seconds of every closed span called `name`.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Per span name: `(name, count, total seconds, self seconds)`, sorted
    /// by name. Self time is the span minus what its direct children cover.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let selfs = self_ns(&self.spans);
        let mut by_name: std::collections::BTreeMap<&'static str, (usize, u64, u64)> =
            Default::default();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += self_ns;
        }
        by_name
            .into_iter()
            .map(|(name, (n, total, own))| (name, n, total as f64 * 1e-9, own as f64 * 1e-9))
            .collect()
    }

    /// Every span plus the per-name self-time table, for the trace file.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::str(s.name)),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op_id".into(), Json::Num(s.op_id as f64)),
                ])
            })
            .collect();
        let layers = self
            .self_times()
            .into_iter()
            .map(|(name, n, total, own)| {
                Json::Obj(vec![
                    ("name".into(), Json::str(name)),
                    ("spans".into(), Json::Num(n as f64)),
                    ("total_s".into(), Json::Num(total)),
                    ("self_s".into(), Json::Num(own)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("self_times".into(), Json::Arr(layers)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

/// Self nanoseconds per span: its duration minus its direct children's.
fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
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
            op_id: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span("clean", 0, 100, None),
            span("crepair", 10, 30, Some(0)),
            span("hrepair", 40, 90, Some(0)),
            span("probe", 50, 60, Some(2)),
        ];
        // clean: 100 - 20 - 50; hrepair: 50 - 10; grandchildren are not
        // subtracted twice.
        assert_eq!(self_ns(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn spans_nest_by_call_order_and_share_the_op_id() {
        let mut t = Tracer::new(true);
        let op = t.next_op();
        t.begin("outer");
        let ((), secs) = t.time("inner", || ());
        t.end();
        assert!(secs >= 0.0);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans.iter().all(|s| s.op_id == op));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        let table = t.self_times();
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].0, "inner");
        assert_eq!(t.seconds_of("inner").len(), 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.time("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans.is_empty());
        assert!(t.seconds_of("x").is_empty());
    }
}
