//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span carries a name, start and end (nanoseconds since the tracer's
//! epoch), the index of the span that caused it and the job it belongs
//! to. Spans stay in memory and are written once, with the result, when
//! the run ends.
//!
//! In the layer replay the child of a span is the *same input* run one
//! layer down, timed on its own rather than nested inside the parent's
//! interval, so a layer's self time is its duration minus the durations
//! of its children.

use la_core::json::JsonBuf;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a new span and returns its result with the span's
    /// index, to be passed as `parent` to the spans it causes.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        (r, self.record(name, job, parent, start, end))
    }

    /// Records a span timed by the caller and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.push(Span {
            name,
            job,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.spans.len() - 1
    }

    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the durations of its
    /// children. Negative where run-to-run noise makes a replayed child
    /// slower than its parent.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut out: Vec<i64> = self.spans.iter().map(|s| s.dur_ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.dur_ns() as i64;
            }
        }
        out
    }

    pub fn write_json(&self, j: &mut JsonBuf) {
        j.begin_arr();
        for s in &self.spans {
            j.begin_obj();
            j.field_str("name", s.name);
            j.field_uint("job", s.job);
            j.key("parent");
            match s.parent {
                Some(p) => j.uint(p as u64),
                None => j.null(),
            }
            j.field_uint("start_ns", s.start_ns);
            j.field_uint("end_ns", s.end_ns);
            j.end_obj();
        }
        j.end_arr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            job: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        t.push(span("serve", None, 0, 1000));
        t.push(span("la90", Some(0), 1000, 1700));
        t.push(span("lapack", Some(1), 1700, 2300));
        t.push(span("blas", Some(2), 2300, 2700));
        t.push(span("other", None, 0, 50));
        assert_eq!(t.self_ns(), vec![300, 100, 200, 400, 50]);
    }

    #[test]
    fn self_time_goes_negative_when_a_child_is_slower() {
        let mut t = Tracer::new();
        t.push(span("la90", None, 0, 100));
        t.push(span("lapack", Some(0), 100, 230));
        assert_eq!(t.self_ns(), vec![-30, 130]);
    }

    #[test]
    fn timed_spans_link_parents() {
        let mut t = Tracer::new();
        let (x, p) = t.time("outer", 7, None, || 2 + 2);
        let (_, c) = t.time("inner", 7, Some(p), || ());
        assert_eq!(x, 4);
        assert_eq!(t.spans()[c].parent, Some(p));
        assert!(t.spans()[p].end_ns <= t.spans()[c].start_ns);
        let mut j = JsonBuf::new();
        t.write_json(&mut j);
        let doc = la_core::json::Json::parse(&j.into_string()).unwrap();
        let arr = doc.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(
            arr[1].get("parent").and_then(|v| v.as_f64()),
            Some(p as f64)
        );
        assert_eq!(arr[0].get("parent"), Some(&la_core::json::Json::Null));
    }
}
