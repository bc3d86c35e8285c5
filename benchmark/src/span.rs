//! In-memory spans for the traced run. A span is one call into a layer
//! made from the benchmark's own files; spans of one request share its
//! `request_id` and point at the span that caused them.

use h2o_expr::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub request_id: u64,
    /// Index of the causing span in the trace, `None` for a root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.into())),
            ("request_id".into(), Json::Int(self.request_id as i64)),
            (
                "parent".into(),
                self.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
            ),
            ("start_ns".into(), Json::Int(self.start_ns as i64)),
            ("end_ns".into(), Json::Int(self.end_ns as i64)),
        ])
    }
}

/// Spans kept in memory until the workload ends.
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span with explicit bounds and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        request_id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            request_id,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a child of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request_id: u64,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(name, request_id, Some(parent), start, end);
        out
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children count once, parts of a child
/// outside the parent not at all).
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut cuts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    cuts.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in cuts {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.dur_ns() - covered
}

/// Self time of every span of a trace, by index.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<&Span>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push(s);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, c)| self_time_ns(s, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            request_id: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_nested_adjacent_overlapping() {
        let root = span(None, 0, 100);
        // No children: all self.
        assert_eq!(self_time_ns(&root, &[]), 100);
        // Adjacent children cover 10..30 and 30..60.
        let (a, b) = (span(Some(0), 10, 30), span(Some(0), 30, 60));
        assert_eq!(self_time_ns(&root, &[&a, &b]), 50);
        // Overlapping children 10..50 and 40..70 cover 60, not 70.
        let (c, d) = (span(Some(0), 10, 50), span(Some(0), 40, 70));
        assert_eq!(self_time_ns(&root, &[&d, &c]), 40);
        // A child sticking out of its parent is clipped; one fully
        // outside covers nothing.
        let (e, f) = (span(Some(0), 90, 140), span(Some(0), 200, 300));
        assert_eq!(self_time_ns(&root, &[&e, &f]), 90);
    }

    #[test]
    fn self_times_follow_parent_links() {
        // root 0..100 > mid 20..80 > leaf 30..50; grandchildren do not
        // reduce the root's self time twice.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 20, 80),
            span(Some(1), 30, 50),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 20]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, spans[0].dur_ns());
    }
}
