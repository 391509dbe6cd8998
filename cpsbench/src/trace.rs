//! In-memory spans for the traced replay: name, start, end, parent and
//! request id, written out as JSONL once the run ends.

use std::io::{self, Write};
use std::time::Instant;

/// One closed (or still open) interval of the replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `arena.parse`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to (0 outside requests).
    pub req: u64,
}

/// Records nested spans; the open stack supplies each new span's parent.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    /// Tags every span begun from now on with request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.req = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let at = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: at,
            end_ns: at,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx`, which must be the innermost open span.
    pub fn end(&mut self, idx: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Times `$body` as a span named `$name` on tracer `$tr`.
macro_rules! span {
    ($tr:expr, $name:literal, $body:expr) => {{
        let idx = $tr.begin($name);
        let out = $body;
        $tr.end(idx);
        out
    }};
}
pub(crate) use span;

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children are clipped to the parent and
/// overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
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
    fn self_time_subtracts_covered_child_intervals() {
        // req [0,100) ⊃ handle [10,90) ⊃ {parse [10,30), solve [40,80) ⊃ lower [40,50)}
        let spans = vec![
            span("req", 0, 100, None),
            span("handle", 10, 90, Some(0)),
            span("parse", 10, 30, Some(1)),
            span("solve", 40, 80, Some(1)),
            span("lower", 40, 50, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 20, 30, 10]);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("p", 0, 50, None),
            span("a", 5, 20, Some(0)),
            span("b", 15, 30, Some(0)),
            span("c", 45, 70, Some(0)),
        ];
        // Covered: [5,30) and [45,50) = 30 of 50.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_by_open_stack() {
        let mut tr = Tracer::new();
        tr.set_request(7);
        let total: u64 = span!(tr, "outer", { span!(tr, "inner", (1..=10u64).sum()) });
        assert_eq!(total, 55);
        let s = tr.spans();
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent, s[1].req), ("inner", Some(0), 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut out = Vec::new();
        tr.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\": \"inner\"") && text.contains("\"parent\": 0"));
    }
}
