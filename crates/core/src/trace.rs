//! Structured trace/metrics layer for the analysis stack.
//!
//! Every fixpoint engine in this crate produces cost evidence: the sparse
//! [`WorklistSolver`](crate::solver::WorklistSolver) counts firings and delta
//! sizes, the [`DeltaNodes`](crate::setpool::DeltaNodes) store counts
//! committed sets and commit-memo hits, the abstract interpreters count goals and cycle cuts,
//! and the concrete interpreters meter fuel. This module gives all of them a
//! single outlet: a [`TraceSink`] that accepts **counters** (monotone tallies),
//! **gauges** (high-water marks), **timers** (externally measured durations),
//! and **spans** (named begin/end pairs that double as wall-clock timers).
//!
//! Three sinks are provided:
//!
//! * [`NoopSink`] — the disabled path. Every method is an empty
//!   `#[inline(always)]` body and sinks are threaded through generics
//!   (`&mut impl TraceSink`), so a monomorphized call against `NoopSink`
//!   compiles away entirely. This is what keeps tracing out of the E16
//!   paired-measurement noise floor.
//! * [`AggSink`] — in-memory aggregation: counters sum, gauges take the max,
//!   spans and timers accumulate `(count, total time)`. Two `AggSink`s can be
//!   [`merge`](AggSink::merge)d, and one can be rebuilt from a JSONL trace
//!   file with [`AggSink::from_jsonl`], which is how `experiments -- E16`
//!   regenerates its table from a recorded trace.
//! * [`JsonlSink`] — streams one JSON object per event to any [`io::Write`],
//!   timestamped in microseconds since the sink was created.
//!
//! Emission happens at phase boundaries, not inside hot loops: the solver and
//! analyzers keep their cheap `SolverStats`/`AnalysisStats` field increments
//! and flush them into the sink once per run via `emit_into`. The sink trait
//! therefore never appears on the per-firing path, only the per-run path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// A destination for trace events.
///
/// Implementations must tolerate arbitrary event names; the names used by
/// this crate form a dotted hierarchy (`solver.fired`, `pool.interned`,
/// `e16.0cfa.dispatch.320.sparse_ns`, …) documented in DESIGN.md §7.
pub trait TraceSink {
    /// Cheap global gate. Callers may skip expensive name formatting when
    /// this returns `false`; the no-op sink returns `false` so that guarded
    /// emission blocks vanish after monomorphization.
    fn enabled(&self) -> bool {
        true
    }

    /// Add `delta` to the monotone counter `name`.
    fn counter(&mut self, name: &str, delta: u64);

    /// Record `value` for the high-water gauge `name` (aggregates by max).
    fn gauge(&mut self, name: &str, value: u64);

    /// Record one externally measured duration of `ns` nanoseconds under the
    /// timer `name`. Use this when the caller already holds a measurement
    /// (e.g. a paired-sampling median); use spans when the sink should clock
    /// the interval itself.
    fn time_ns(&mut self, name: &str, ns: u64);

    /// Open a named span. Spans nest; close them LIFO with
    /// [`span_end`](TraceSink::span_end).
    fn span_start(&mut self, name: &str);

    /// Close the innermost open span named `name`, recording its wall-clock
    /// duration. Any spans opened inside it that are still open are closed
    /// (and recorded) with it.
    fn span_end(&mut self, name: &str);
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    fn counter(&mut self, name: &str, delta: u64) {
        (**self).counter(name, delta)
    }
    fn gauge(&mut self, name: &str, value: u64) {
        (**self).gauge(name, value)
    }
    fn time_ns(&mut self, name: &str, ns: u64) {
        (**self).time_ns(name, ns)
    }
    fn span_start(&mut self, name: &str) {
        (**self).span_start(name)
    }
    fn span_end(&mut self, name: &str) {
        (**self).span_end(name)
    }
}

impl<S: TraceSink + ?Sized> TraceSink for Box<S> {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    fn counter(&mut self, name: &str, delta: u64) {
        (**self).counter(name, delta)
    }
    fn gauge(&mut self, name: &str, value: u64) {
        (**self).gauge(name, value)
    }
    fn time_ns(&mut self, name: &str, ns: u64) {
        (**self).time_ns(name, ns)
    }
    fn span_start(&mut self, name: &str) {
        (**self).span_start(name)
    }
    fn span_end(&mut self, name: &str) {
        (**self).span_end(name)
    }
}

/// Run `f` inside a `name` span on `sink`.
pub fn with_span<S: TraceSink, R>(sink: &mut S, name: &str, f: impl FnOnce(&mut S) -> R) -> R {
    sink.span_start(name);
    let out = f(sink);
    sink.span_end(name);
    out
}

/// The zero-overhead disabled sink. All methods are empty and
/// `#[inline(always)]`; code paths generic over `impl TraceSink` instantiated
/// with `NoopSink` contain no trace residue after optimization.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
    #[inline(always)]
    fn counter(&mut self, _name: &str, _delta: u64) {}
    #[inline(always)]
    fn gauge(&mut self, _name: &str, _value: u64) {}
    #[inline(always)]
    fn time_ns(&mut self, _name: &str, _ns: u64) {}
    #[inline(always)]
    fn span_start(&mut self, _name: &str) {}
    #[inline(always)]
    fn span_end(&mut self, _name: &str) {}
}

/// Aggregate for a span or timer: how many times it closed and the total
/// time spent inside it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpanAgg {
    pub count: u64,
    pub total_ns: u64,
}

/// In-memory aggregating sink. Counters sum, gauges max, spans/timers
/// accumulate count + total nanoseconds. Deterministic iteration order
/// (BTreeMap) so reports built from it are stable.
#[derive(Debug, Default)]
pub struct AggSink {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanAgg>,
    timers: BTreeMap<String, SpanAgg>,
    open: Vec<(String, Instant)>,
}

impl AggSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of a counter (0 if never emitted).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge (0 if never emitted).
    pub fn gauge_value(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Aggregate for a closed span, if any closed under this name.
    pub fn span_agg(&self, name: &str) -> Option<SpanAgg> {
        self.spans.get(name).copied()
    }

    /// Aggregate for a timer, if any measurement was recorded.
    pub fn timer_agg(&self, name: &str) -> Option<SpanAgg> {
        self.timers.get(name).copied()
    }

    /// Number of spans started but not yet ended.
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All timers, in name order.
    pub fn timers(&self) -> impl Iterator<Item = (&str, SpanAgg)> {
        self.timers.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Fold another aggregation into this one: counters add, gauges take the
    /// max, spans and timers add both count and total time. Open spans in
    /// `other` are ignored (they have no duration yet).
    pub fn merge(&mut self, other: &AggSink) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_default();
            *slot = (*slot).max(*v);
        }
        for (k, v) in &other.spans {
            let slot = self.spans.entry(k.clone()).or_default();
            slot.count += v.count;
            slot.total_ns += v.total_ns;
        }
        for (k, v) in &other.timers {
            let slot = self.timers.entry(k.clone()).or_default();
            slot.count += v.count;
            slot.total_ns += v.total_ns;
        }
    }

    /// Rebuild an aggregation from a JSONL trace (the format written by
    /// [`JsonlSink`]). Lines that do not parse as trace events are skipped,
    /// so a trace with interleaved foreign output still aggregates.
    pub fn from_jsonl(text: &str) -> Self {
        let mut agg = Self::new();
        for line in text.lines() {
            match parse_event(line) {
                Some(TraceEvent::Counter { name, delta }) => agg.counter(&name, delta),
                Some(TraceEvent::Gauge { name, value }) => agg.gauge(&name, value),
                Some(TraceEvent::Time { name, ns }) => agg.time_ns(&name, ns),
                // A JSONL span_end carries its measured duration, so the
                // aggregate does not depend on replay timing.
                Some(TraceEvent::SpanEnd { name, ns }) => {
                    let slot = agg.spans.entry(name).or_default();
                    slot.count += 1;
                    slot.total_ns += ns;
                }
                Some(TraceEvent::SpanStart { .. }) | None => {}
            }
        }
        agg
    }

    /// Replays the aggregated counters, gauges, and timer measurements
    /// into another sink, in deterministic (name-sorted) order. Spans are
    /// not replayed — their nesting structure is gone after aggregation —
    /// and a timer's measurements collapse to one emission carrying the
    /// preserved total (counter and gauge values replay exactly).
    ///
    /// This is the service's per-request flush path: each request
    /// aggregates into a private `AggSink` (so cumulative process-wide
    /// counters are never double-counted), then replays that delta into
    /// the shared streaming [`JsonlSink`] under the request's span.
    pub fn replay_into(&self, sink: &mut impl TraceSink) {
        if !sink.enabled() {
            return;
        }
        for (name, value) in &self.counters {
            sink.counter(name, *value);
        }
        for (name, value) in &self.gauges {
            sink.gauge(name, *value);
        }
        for (name, agg) in &self.timers {
            sink.time_ns(name, agg.total_ns);
        }
    }

    fn close_one(&mut self, name: String, started: Instant) {
        let ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let slot = self.spans.entry(name).or_default();
        slot.count += 1;
        slot.total_ns += ns;
    }
}

impl TraceSink for AggSink {
    fn counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_owned()).or_default() += delta;
    }

    fn gauge(&mut self, name: &str, value: u64) {
        let slot = self.gauges.entry(name.to_owned()).or_default();
        *slot = (*slot).max(value);
    }

    fn time_ns(&mut self, name: &str, ns: u64) {
        let slot = self.timers.entry(name.to_owned()).or_default();
        slot.count += 1;
        slot.total_ns += ns;
    }

    fn span_start(&mut self, name: &str) {
        self.open.push((name.to_owned(), Instant::now()));
    }

    fn span_end(&mut self, name: &str) {
        let Some(pos) = self.open.iter().rposition(|(n, _)| n == name) else {
            return; // unmatched end: drop rather than corrupt the stack
        };
        // Closing an outer span force-closes anything still open inside it;
        // those children ended no later than their parent.
        while self.open.len() > pos {
            let (n, t) = self.open.pop().expect("len > pos implies nonempty");
            self.close_one(n, t);
        }
    }
}

/// Streaming JSONL sink: one JSON object per event.
///
/// Event shapes (all timestamps are µs since sink creation):
///
/// ```text
/// {"t":"counter","name":"solver.fired","delta":42,"at_us":10}
/// {"t":"gauge","name":"solver.queue_peak","value":7,"at_us":11}
/// {"t":"time","name":"e16...sparse_ns","ns":152000,"at_us":12}
/// {"t":"span_start","name":"E16","at_us":13}
/// {"t":"span_end","name":"E16","ns":900,"at_us":14}
/// ```
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    epoch: Instant,
    open: Vec<(String, Instant)>,
    line: String,
}

impl JsonlSink<BufWriter<std::fs::File>> {
    /// Create (truncating) a JSONL trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    pub fn new(out: W) -> Self {
        Self {
            out,
            epoch: Instant::now(),
            open: Vec::new(),
            line: String::new(),
        }
    }

    /// Flush and return the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }

    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    fn at_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    fn emit(&mut self, kind: &str, name: &str, field: Option<(&str, u64)>) {
        self.line.clear();
        self.line.push_str("{\"t\":\"");
        self.line.push_str(kind);
        self.line.push_str("\",\"name\":\"");
        escape_into(&mut self.line, name);
        self.line.push('"');
        if let Some((key, value)) = field {
            let _ = write!(self.line, ",\"{key}\":{value}");
        }
        let _ = write!(self.line, ",\"at_us\":{}}}", self.at_us());
        self.line.push('\n');
        let _ = self.out.write_all(self.line.as_bytes());
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn counter(&mut self, name: &str, delta: u64) {
        self.emit("counter", name, Some(("delta", delta)));
    }

    fn gauge(&mut self, name: &str, value: u64) {
        self.emit("gauge", name, Some(("value", value)));
    }

    fn time_ns(&mut self, name: &str, ns: u64) {
        self.emit("time", name, Some(("ns", ns)));
    }

    fn span_start(&mut self, name: &str) {
        self.open.push((name.to_owned(), Instant::now()));
        self.emit("span_start", name, None);
    }

    fn span_end(&mut self, name: &str) {
        let Some(pos) = self.open.iter().rposition(|(n, _)| n == name) else {
            return;
        };
        while self.open.len() > pos {
            let (n, t) = self.open.pop().expect("len > pos implies nonempty");
            let ns = t.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.emit("span_end", &n, Some(("ns", ns)));
        }
    }
}

/// One parsed JSONL trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    Counter { name: String, delta: u64 },
    Gauge { name: String, value: u64 },
    Time { name: String, ns: u64 },
    SpanStart { name: String },
    SpanEnd { name: String, ns: u64 },
}

fn escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// Extract `"key":<value>` from a flat JSON object line. Returns the raw
/// value slice (string contents without quotes, or the number text).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        // Scan for the closing quote, honoring backslash escapes.
        let bytes = stripped.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => return Some(&stripped[..i]),
                _ => i += 1,
            }
        }
        None
    } else {
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        (end > 0).then(|| &rest[..end])
    }
}

/// Parse one JSONL trace line; `None` for anything that is not a trace event.
pub fn parse_event(line: &str) -> Option<TraceEvent> {
    let line = line.trim();
    if !line.starts_with('{') {
        return None;
    }
    let kind = field(line, "t")?;
    let name = unescape(field(line, "name")?);
    let num = |key: &str| field(line, key).and_then(|v| v.parse::<u64>().ok());
    match kind {
        "counter" => Some(TraceEvent::Counter {
            name,
            delta: num("delta")?,
        }),
        "gauge" => Some(TraceEvent::Gauge {
            name,
            value: num("value")?,
        }),
        "time" => Some(TraceEvent::Time {
            name,
            ns: num("ns")?,
        }),
        "span_start" => Some(TraceEvent::SpanStart { name }),
        "span_end" => Some(TraceEvent::SpanEnd {
            name,
            ns: num("ns")?,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_is_disabled_and_accepts_everything() {
        let mut sink = NoopSink;
        assert!(!sink.enabled());
        sink.counter("a", 1);
        sink.gauge("b", 2);
        sink.time_ns("c", 3);
        sink.span_start("d");
        sink.span_end("d");
    }

    #[test]
    fn counters_sum_and_gauges_take_max() {
        let mut agg = AggSink::new();
        agg.counter("solver.fired", 3);
        agg.counter("solver.fired", 4);
        agg.gauge("queue_peak", 9);
        agg.gauge("queue_peak", 5);
        assert_eq!(agg.counter_value("solver.fired"), 7);
        assert_eq!(agg.gauge_value("queue_peak"), 9);
        assert_eq!(agg.counter_value("absent"), 0);
    }

    #[test]
    fn span_nesting_closes_lifo_and_outer_end_closes_children() {
        let mut agg = AggSink::new();
        agg.span_start("outer");
        agg.span_start("inner");
        agg.span_end("inner");
        assert_eq!(agg.open_spans(), 1);
        agg.span_start("leaked");
        agg.span_end("outer"); // force-closes "leaked"
        assert_eq!(agg.open_spans(), 0);
        assert_eq!(agg.span_agg("outer").unwrap().count, 1);
        assert_eq!(agg.span_agg("inner").unwrap().count, 1);
        assert_eq!(agg.span_agg("leaked").unwrap().count, 1);
        // Unmatched end is ignored.
        agg.span_end("never-opened");
        assert_eq!(agg.open_spans(), 0);
    }

    #[test]
    fn merge_adds_counters_and_spans_and_maxes_gauges() {
        let mut a = AggSink::new();
        a.counter("c", 1);
        a.gauge("g", 10);
        a.time_ns("t", 100);
        let mut b = AggSink::new();
        b.counter("c", 2);
        b.counter("only-b", 5);
        b.gauge("g", 3);
        b.time_ns("t", 50);
        a.merge(&b);
        assert_eq!(a.counter_value("c"), 3);
        assert_eq!(a.counter_value("only-b"), 5);
        assert_eq!(a.gauge_value("g"), 10);
        let t = a.timer_agg("t").unwrap();
        assert_eq!((t.count, t.total_ns), (2, 150));
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.counter("solver.fired", 42);
        sink.gauge("queue \"peak\"", 7);
        sink.time_ns("e16.sparse_ns", 152_000);
        sink.span_start("E16");
        sink.counter("pool.interned", 3);
        sink.span_end("E16");
        let text = String::from_utf8(sink.into_inner()).unwrap();

        let events: Vec<TraceEvent> = text.lines().filter_map(parse_event).collect();
        assert_eq!(events.len(), 6);
        assert_eq!(
            events[0],
            TraceEvent::Counter {
                name: "solver.fired".into(),
                delta: 42
            }
        );
        assert_eq!(
            events[1],
            TraceEvent::Gauge {
                name: "queue \"peak\"".into(),
                value: 7
            }
        );
        assert!(matches!(&events[5], TraceEvent::SpanEnd { name, .. } if name == "E16"));

        let agg = AggSink::from_jsonl(&text);
        assert_eq!(agg.counter_value("solver.fired"), 42);
        assert_eq!(agg.counter_value("pool.interned"), 3);
        assert_eq!(agg.gauge_value("queue \"peak\""), 7);
        assert_eq!(agg.timer_agg("e16.sparse_ns").unwrap().total_ns, 152_000);
        assert_eq!(agg.span_agg("E16").unwrap().count, 1);
    }

    #[test]
    fn from_jsonl_skips_foreign_lines() {
        let text = "# a comment\n{\"t\":\"counter\",\"name\":\"x\",\"delta\":1}\nnot json\n";
        let agg = AggSink::from_jsonl(text);
        assert_eq!(agg.counter_value("x"), 1);
    }

    #[test]
    fn with_span_wraps_and_closes() {
        let mut agg = AggSink::new();
        let out = with_span(&mut agg, "phase", |s| {
            s.counter("inside", 1);
            27
        });
        assert_eq!(out, 27);
        assert_eq!(agg.open_spans(), 0);
        assert_eq!(agg.span_agg("phase").unwrap().count, 1);
        assert_eq!(agg.counter_value("inside"), 1);
    }
}
