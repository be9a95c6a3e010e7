//! Trace reading and run reports.
//!
//! A trace is a JSONL file (one [`Event`] per line) written by
//! [`crate::JsonlSink`]. This module reads traces back, validates span
//! pairing and nesting (the checks behind `pstore-verify`'s `TEL-01` and
//! `TEL-02`), splits a trace into simulator runs ([`runs`]) and
//! reconfiguration windows ([`reconfig_windows`]) for the `slo`, `prov`
//! and `timeline` analyzers, and renders the run report printed by the
//! `pstore-trace` binary.

use crate::event::{kinds, span_names, Event};
use crate::json;
use crate::metrics::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::path::Path;

/// A line that failed to parse: line number (1-based) and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    /// 1-based line number in the trace file.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

/// Reads a JSONL trace. Blank lines are skipped; malformed lines are
/// collected as [`LineError`]s rather than aborting the read, so a
/// truncated trace still yields its prefix.
///
/// # Errors
/// Returns `Err` only for I/O failures (missing/unreadable file).
pub fn read_jsonl(path: &Path) -> std::io::Result<(Vec<Event>, Vec<LineError>)> {
    let text = std::fs::read_to_string(path)?;
    let mut events = Vec::new();
    let mut errors = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = json::parse(line)
            .map_err(|e| e.to_string())
            .and_then(|v| Event::from_json(&v));
        match parsed {
            Ok(ev) => events.push(ev),
            Err(msg) => errors.push(LineError { line: idx + 1, msg }),
        }
    }
    Ok((events, errors))
}

/// A structural problem with the spans in a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanError {
    /// `span_end` whose id was never opened (or already closed).
    EndWithoutBegin {
        /// Offending event's sequence number.
        seq: u64,
        /// The unmatched span id.
        id: u64,
    },
    /// `span_begin` reusing an id that is still open.
    DuplicateBegin {
        /// Offending event's sequence number.
        seq: u64,
        /// The reused span id.
        id: u64,
    },
    /// `span_end` that closes a span other than the innermost open one
    /// (spans must nest LIFO).
    BadNesting {
        /// Offending event's sequence number.
        seq: u64,
        /// The id that was closed.
        closed: u64,
        /// The innermost open id that should have closed first.
        expected: u64,
    },
    /// Span still open at end of trace.
    Unclosed {
        /// The dangling span id.
        id: u64,
        /// The span's name, for the report.
        name: String,
    },
    /// Span event missing its `id` field.
    MissingId {
        /// Offending event's sequence number.
        seq: u64,
    },
}

impl std::fmt::Display for SpanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpanError::EndWithoutBegin { seq, id } => {
                write!(f, "seq {seq}: span_end for id {id} which is not open")
            }
            SpanError::DuplicateBegin { seq, id } => {
                write!(f, "seq {seq}: span_begin reuses open id {id}")
            }
            SpanError::BadNesting {
                seq,
                closed,
                expected,
            } => write!(
                f,
                "seq {seq}: span {closed} closed while span {expected} is still innermost"
            ),
            SpanError::Unclosed { id, name } => {
                write!(f, "span {id} (\"{name}\") never closed")
            }
            SpanError::MissingId { seq } => {
                write!(f, "seq {seq}: span event without an \"id\" field")
            }
        }
    }
}

/// Validates span pairing and LIFO nesting over a trace.
///
/// Every `span_begin` must have exactly one matching `span_end`, ends
/// must close the innermost open span, and no span may remain open at
/// end of trace. This is the shared implementation behind `TEL-01`
/// (pairing) and `TEL-02` (nesting) in `pstore-verify`.
pub fn span_errors(events: &[Event]) -> Vec<SpanError> {
    let mut errors = Vec::new();
    // Stack of (id, name) for open spans, in open order.
    let mut stack: Vec<(u64, String)> = Vec::new();
    for ev in events {
        match ev.kind.as_str() {
            kinds::SPAN_BEGIN => match ev.field_u64("id") {
                None => errors.push(SpanError::MissingId { seq: ev.seq }),
                Some(id) => {
                    if stack.iter().any(|(open, _)| *open == id) {
                        errors.push(SpanError::DuplicateBegin { seq: ev.seq, id });
                    } else {
                        let name = ev.field_str("name").unwrap_or("?").to_string();
                        stack.push((id, name));
                    }
                }
            },
            kinds::SPAN_END => match ev.field_u64("id") {
                None => errors.push(SpanError::MissingId { seq: ev.seq }),
                Some(id) => match stack.last() {
                    Some((top, _)) if *top == id => {
                        stack.pop();
                    }
                    Some((top, _)) if stack.iter().any(|(open, _)| *open == id) => {
                        errors.push(SpanError::BadNesting {
                            seq: ev.seq,
                            closed: id,
                            expected: *top,
                        });
                        stack.retain(|(open, _)| *open != id);
                    }
                    _ => errors.push(SpanError::EndWithoutBegin { seq: ev.seq, id }),
                },
            },
            _ => {}
        }
    }
    for (id, name) in stack {
        errors.push(SpanError::Unclosed { id, name });
    }
    errors
}

/// An ordering problem in a trace (the `TEL-04` invariant).
#[derive(Debug, Clone, PartialEq)]
pub enum OrderError {
    /// `seq` did not strictly increase between consecutive events.
    SeqNotIncreasing {
        /// Previous event's sequence number.
        prev: u64,
        /// Offending event's sequence number.
        seq: u64,
    },
    /// `t` went backwards while spans were still open.
    TimeRegression {
        /// Offending event's sequence number.
        seq: u64,
        /// The previous timestamp.
        prev_t: f64,
        /// The regressed timestamp.
        t: f64,
    },
}

impl std::fmt::Display for OrderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrderError::SeqNotIncreasing { prev, seq } => {
                write!(f, "seq {seq} follows seq {prev}: not strictly increasing")
            }
            OrderError::TimeRegression { seq, prev_t, t } => {
                write!(f, "seq {seq}: t={t} regresses below t={prev_t} mid-run")
            }
        }
    }
}

/// Validates trace ordering (`TEL-04` in `pstore-verify`): `seq` must
/// strictly increase, and the sim clock `t` must be non-decreasing —
/// except that `t` may reset when no span is open, because a merged
/// sweep trace restarts simulated time at 0 for each cell (cell
/// boundaries always coincide with an empty span stack).
pub fn order_errors(events: &[Event]) -> Vec<OrderError> {
    let mut errors = Vec::new();
    let mut prev_seq: Option<u64> = None;
    let mut prev_t: Option<f64> = None;
    let mut open_depth: usize = 0;
    for ev in events {
        if let Some(prev) = prev_seq {
            if ev.seq <= prev {
                errors.push(OrderError::SeqNotIncreasing { prev, seq: ev.seq });
            }
        }
        prev_seq = Some(ev.seq);
        if let Some(t) = ev.t {
            match prev_t {
                Some(p) if t < p => {
                    if open_depth == 0 {
                        prev_t = Some(t); // legitimate per-cell clock reset
                    } else {
                        errors.push(OrderError::TimeRegression {
                            seq: ev.seq,
                            prev_t: p,
                            t,
                        });
                    }
                }
                _ => prev_t = Some(t),
            }
        }
        match ev.kind.as_str() {
            kinds::SPAN_BEGIN => open_depth += 1,
            kinds::SPAN_END => open_depth = open_depth.saturating_sub(1),
            _ => {}
        }
    }
    errors
}

/// Splits a trace into simulator runs, returning each run's label and
/// its contiguous slice of events.
///
/// A `detailed_sim`/`fast_sim` `span_begin` seen while no run is open
/// starts a run, at any span depth: a merged sweep trace that wraps each
/// cell in an outer span still yields one run per cell. The run's slice
/// runs through the matching `span_end`, both included; sim spans nested
/// inside it belong to it. Runs are labelled `{index}:{span name}`.
///
/// Outside any run, the first event for which `starts_implicit_run`
/// holds opens an implicit run labelled `{index}:trace` (a trace written
/// without sim spans). It lasts until a top-level sim span begins, or to
/// the end of the trace. Events outside every run are dropped.
pub fn runs(
    events: &[Event],
    starts_implicit_run: impl Fn(&Event) -> bool,
) -> Vec<(String, &[Event])> {
    let mut runs: Vec<(String, &[Event])> = Vec::new();
    // The open run: label, index of its first event, and the depth of its
    // sim span (`None` for an implicit run).
    let mut current: Option<(String, usize, Option<usize>)> = None;
    let mut depth: usize = 0;
    for (i, ev) in events.iter().enumerate() {
        let name = ev.field_str("name").unwrap_or("");
        let is_sim = name == span_names::DETAILED_SIM || name == span_names::FAST_SIM;
        if ev.kind == kinds::SPAN_BEGIN {
            let starts_run = match &current {
                None => is_sim,
                Some((_, _, None)) => is_sim && depth == 0,
                Some(_) => false,
            };
            if starts_run {
                if let Some((label, first, _)) = current.take() {
                    runs.push((label, &events[first..i]));
                }
                current = Some((format!("{}:{name}", runs.len()), i, Some(depth)));
            }
            depth += 1;
        }
        if current.is_none() && starts_implicit_run(ev) {
            current = Some((format!("{}:trace", runs.len()), i, None));
        }
        if ev.kind == kinds::SPAN_END {
            depth = depth.saturating_sub(1);
            if is_sim && current.as_ref().is_some_and(|c| c.2 == Some(depth)) {
                if let Some((label, first, _)) = current.take() {
                    runs.push((label, &events[first..=i]));
                }
            }
        }
    }
    if let Some((label, first, _)) = current {
        runs.push((label, &events[first..]));
    }
    runs
}

/// One reconfiguration: a `reconfig` span pair and the chunk moves seen
/// while it was open.
#[derive(Debug, Clone)]
pub struct ReconfigWindow {
    /// Sim time of the `span_begin`.
    pub start: f64,
    /// Sim time of the matching `span_end`; for an unclosed window, the
    /// latest timestamp in the analysed events.
    pub end: f64,
    /// Whether a matching `span_end` was seen.
    pub closed: bool,
    /// Machine count before, if the begin recorded it.
    pub from: Option<u64>,
    /// Machine count after, if the begin recorded it.
    pub to: Option<u64>,
    /// Chunk-move events seen while the window was open.
    pub chunk_moves: u64,
    /// Bytes moved across those chunk moves.
    pub bytes_moved: u64,
    /// Indices into the analysed events from the `span_begin` up to (not
    /// including) the matching `span_end`, or to the end when unclosed.
    pub events: Range<usize>,
}

/// Pairs the `reconfig` spans in `events` into windows, in begin order,
/// and counts each `chunk_move` toward every window open at that point
/// in the trace.
///
/// Rules for malformed input:
/// - A `reconfig` begin or end without `t` is ignored: it opens or
///   closes nothing. Chunk moves are attributed by trace order, so they
///   count with or without `t`.
/// - A begin without `from`/`to` still opens a window; the missing
///   counts stay `None`.
/// - A begin that reuses the id of a window still open opens a second
///   window; an end closes the most recently opened window with its id.
/// - A window never closed ends at the latest timestamp in `events`,
///   with `closed == false`.
pub fn reconfig_windows(events: &[Event]) -> Vec<ReconfigWindow> {
    let mut windows: Vec<ReconfigWindow> = Vec::new();
    // (span id, index into `windows`) of the open windows, in open order.
    let mut open: Vec<(u64, usize)> = Vec::new();
    let mut t_max = f64::NEG_INFINITY;
    for (i, ev) in events.iter().enumerate() {
        if ev.kind == kinds::CHUNK_MOVE {
            let bytes = ev.field_u64("bytes").unwrap_or(0);
            for &(_, w) in &open {
                windows[w].chunk_moves += 1;
                windows[w].bytes_moved += bytes;
            }
        }
        let Some(t) = ev.t else { continue };
        t_max = t_max.max(t);
        if ev.field_str("name") != Some(kinds::SPAN_RECONFIG) {
            continue;
        }
        let id = ev.field_u64("id");
        match ev.kind.as_str() {
            kinds::SPAN_BEGIN => {
                if let Some(id) = id {
                    open.push((id, windows.len()));
                    windows.push(ReconfigWindow {
                        start: t,
                        end: t,
                        closed: false,
                        from: ev.field_u64("from"),
                        to: ev.field_u64("to"),
                        chunk_moves: 0,
                        bytes_moved: 0,
                        events: i..events.len(),
                    });
                }
            }
            kinds::SPAN_END => {
                if let Some(pos) = open.iter().rposition(|&(open_id, _)| Some(open_id) == id) {
                    let w = &mut windows[open.remove(pos).1];
                    w.end = t;
                    w.closed = true;
                    w.events.end = i;
                }
            }
            _ => {}
        }
    }
    for (_, w) in open {
        windows[w].end = t_max;
    }
    windows
}

/// Aggregated view of a whole trace, renderable as a text report.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Total events in the trace.
    pub events: usize,
    /// Reconfiguration windows, in start order.
    pub reconfigs: Vec<ReconfigWindow>,
    /// Event counts by kind, descending.
    pub kind_counts: Vec<(String, usize)>,
    /// p99 histogram of `second` events outside reconfigurations.
    pub stable_p99: Histogram,
    /// p99 histogram of `second` events during reconfigurations.
    pub reconfig_p99: Histogram,
    /// Throughput histogram over all `second` events.
    pub throughput: Histogram,
    /// Count of `sla_violation` events.
    pub sla_violations: u64,
    /// Count of `planner` events.
    pub planner_calls: u64,
    /// Count of feasible `planner` events.
    pub planner_feasible: u64,
    /// Count of `forecast_predict` events.
    pub forecasts: u64,
    /// Count of `chunk_move` events (anywhere in the trace).
    pub chunk_moves: u64,
    /// Structural span problems (also reported by `pstore-verify`).
    pub span_errors: Vec<SpanError>,
    /// The trailing `metrics_snapshot` event, if the run emitted one.
    pub metrics_snapshot: Option<Event>,
}

impl RunReport {
    /// Builds a report from parsed trace events.
    pub fn from_events(events: &[Event]) -> Self {
        let mut report = RunReport {
            events: events.len(),
            reconfigs: reconfig_windows(events),
            ..RunReport::default()
        };
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for (i, ev) in events.iter().enumerate() {
            *counts.entry(ev.kind.as_str()).or_insert(0) += 1;
            match ev.kind.as_str() {
                kinds::CHUNK_MOVE => report.chunk_moves += 1,
                kinds::SECOND => {
                    if let Some(p99) = ev.field_f64("p99") {
                        let during = ev
                            .field("reconfiguring")
                            .and_then(crate::Value::as_bool)
                            .unwrap_or_else(|| {
                                report.reconfigs.iter().any(|r| r.events.contains(&i))
                            });
                        if during {
                            report.reconfig_p99.record(p99);
                        } else {
                            report.stable_p99.record(p99);
                        }
                    }
                    if let Some(tp) = ev.field_f64("throughput") {
                        report.throughput.record(tp);
                    }
                }
                kinds::SLA_VIOLATION => report.sla_violations += 1,
                kinds::PLANNER => {
                    report.planner_calls += 1;
                    if ev.field("feasible").and_then(crate::Value::as_bool) == Some(true) {
                        report.planner_feasible += 1;
                    }
                }
                kinds::FORECAST_PREDICT => report.forecasts += 1,
                kinds::METRICS_SNAPSHOT => report.metrics_snapshot = Some(ev.clone()),
                _ => {}
            }
        }

        let mut kind_counts: Vec<(String, usize)> = counts
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        kind_counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        report.kind_counts = kind_counts;
        report.span_errors = span_errors(events);
        report
    }

    /// Renders the human-readable report text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace: {} events", self.events);
        let _ = writeln!(out);

        let _ = writeln!(out, "== event kinds ==");
        for (kind, n) in self.kind_counts.iter().take(12) {
            let _ = writeln!(out, "  {kind:<20} {n:>8}");
        }
        let _ = writeln!(out);

        let _ = writeln!(
            out,
            "== reconfigurations ({} total, {} chunk moves) ==",
            self.reconfigs.len(),
            self.chunk_moves
        );
        for (i, r) in self.reconfigs.iter().enumerate() {
            let from = r.from.map_or("?".to_string(), |v| v.to_string());
            let to = r.to.map_or("?".to_string(), |v| v.to_string());
            let (s, e) = (r.start, r.end);
            let window = if r.closed {
                format!("t={s:.1}s..{e:.1}s ({:.1}s)", e - s)
            } else {
                format!("t={s:.1}s.. (unfinished)")
            };
            let _ = writeln!(
                out,
                "  #{i:<3} {from:>3} -> {to:<3} machines  {window}  {} chunks, {} bytes",
                r.chunk_moves, r.bytes_moved
            );
        }
        let _ = writeln!(out);

        let _ = writeln!(out, "== per-second latency (p99, seconds) ==");
        let _ = writeln!(
            out,
            "  phase        seconds     p50      p95      p99      max"
        );
        for (label, h) in [
            ("stable", &self.stable_p99),
            ("reconfig", &self.reconfig_p99),
        ] {
            let _ = writeln!(
                out,
                "  {label:<10} {:>8} {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
                h.count(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                h.max()
            );
        }
        let _ = writeln!(out, "  SLA-violation seconds: {}", self.sla_violations);
        let _ = writeln!(out);

        let _ = writeln!(out, "== counters ==");
        let _ = writeln!(
            out,
            "  planner calls: {} ({} feasible)   forecasts: {}   throughput seconds: {}",
            self.planner_calls,
            self.planner_feasible,
            self.forecasts,
            self.throughput.count()
        );
        if let Some(snap) = &self.metrics_snapshot {
            let _ = writeln!(out, "  metrics snapshot ({} fields):", snap.fields.len());
            for (k, v) in snap.fields.iter().take(24) {
                let rendered = match v {
                    crate::Value::U64(n) => n.to_string(),
                    crate::Value::I64(n) => n.to_string(),
                    crate::Value::F64(n) => format!("{n:.4}"),
                    crate::Value::Bool(b) => b.to_string(),
                    crate::Value::Str(s) => s.clone(),
                };
                let _ = writeln!(out, "    {k:<32} {rendered}");
            }
        }

        if !self.span_errors.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "== span errors ({}) ==", self.span_errors.len());
            for e in &self.span_errors {
                let _ = writeln!(out, "  {e}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn span(kind: &str, seq: u64, id: u64, name: &str) -> Event {
        let mut ev = Event::new(kind).with("id", id).with("name", name);
        ev.seq = seq;
        ev
    }

    #[test]
    fn well_nested_spans_pass() {
        let events = vec![
            span(kinds::SPAN_BEGIN, 1, 1, "outer"),
            span(kinds::SPAN_BEGIN, 2, 2, "inner"),
            span(kinds::SPAN_END, 3, 2, "inner"),
            span(kinds::SPAN_END, 4, 1, "outer"),
        ];
        assert!(span_errors(&events).is_empty());
    }

    #[test]
    fn detects_unmatched_and_misnested_spans() {
        let unclosed = vec![span(kinds::SPAN_BEGIN, 1, 1, "a")];
        assert!(matches!(
            span_errors(&unclosed)[0],
            SpanError::Unclosed { id: 1, .. }
        ));

        let stray_end = vec![span(kinds::SPAN_END, 1, 9, "a")];
        assert!(matches!(
            span_errors(&stray_end)[0],
            SpanError::EndWithoutBegin { id: 9, .. }
        ));

        let crossed = vec![
            span(kinds::SPAN_BEGIN, 1, 1, "a"),
            span(kinds::SPAN_BEGIN, 2, 2, "b"),
            span(kinds::SPAN_END, 3, 1, "a"),
            span(kinds::SPAN_END, 4, 2, "b"),
        ];
        let errs = span_errors(&crossed);
        assert!(errs.iter().any(|e| matches!(
            e,
            SpanError::BadNesting {
                closed: 1,
                expected: 2,
                ..
            }
        )));

        let dup = vec![
            span(kinds::SPAN_BEGIN, 1, 1, "a"),
            span(kinds::SPAN_BEGIN, 2, 1, "a"),
        ];
        assert!(span_errors(&dup)
            .iter()
            .any(|e| matches!(e, SpanError::DuplicateBegin { id: 1, .. })));
    }

    #[test]
    fn report_reconstructs_reconfig_timeline() {
        let mut events = Vec::new();
        let mut begin = span(kinds::SPAN_BEGIN, 1, 5, kinds::SPAN_RECONFIG)
            .with("from", 2u64)
            .with("to", 4u64);
        begin.t = Some(10.0);
        events.push(begin);
        let mut mv = Event::new(kinds::CHUNK_MOVE).with("bytes", 1000u64);
        mv.seq = 2;
        events.push(mv);
        let mut end = span(kinds::SPAN_END, 3, 5, kinds::SPAN_RECONFIG);
        end.t = Some(25.0);
        events.push(end);
        let mut sec = Event::new(kinds::SECOND)
            .with("p99", 0.04)
            .with("throughput", 500.0)
            .with("reconfiguring", false);
        sec.seq = 4;
        events.push(sec);

        let report = RunReport::from_events(&events);
        assert_eq!(report.reconfigs.len(), 1);
        let r = &report.reconfigs[0];
        assert_eq!(r.from, Some(2));
        assert_eq!(r.to, Some(4));
        assert_eq!(r.chunk_moves, 1);
        assert_eq!(r.bytes_moved, 1000);
        assert_eq!((r.start, r.end, r.closed), (10.0, 25.0, true));
        assert_eq!(report.stable_p99.count(), 1);
        assert_eq!(report.reconfig_p99.count(), 0);
        assert!(report.span_errors.is_empty());
        let text = report.render();
        assert!(text.contains("reconfigurations (1 total"));
    }

    /// A `span_begin`/`span_end` for span `id` named `name` at sim time `t`.
    fn span_at(kind: &str, t: Option<f64>, id: u64, name: &str) -> Event {
        let mut ev = span(kind, 0, id, name);
        ev.t = t;
        ev
    }

    /// An event of `kind` at sim time `t`.
    fn event_at(kind: &str, t: Option<f64>) -> Event {
        let mut ev = Event::new(kind);
        ev.t = t;
        ev
    }

    #[test]
    fn runs_segment_sim_spans_and_implicit_runs() {
        let (b, e) = (kinds::SPAN_BEGIN, kinds::SPAN_END);
        let (sim, fast) = (span_names::DETAILED_SIM, span_names::FAST_SIM);
        let second = || event_at(kinds::SECOND, Some(1.0));
        let prov = || event_at(kinds::PROV_INTERVAL, Some(1.0));
        // Expected runs as (label, first seq, last seq).
        type Want = Vec<(&'static str, u64, u64)>;
        let cases: Vec<(&str, Vec<Event>, Want)> = vec![
            (
                "sim spans nested in an outer sweep span",
                vec![
                    span_at(b, Some(0.0), 1, "sweep"),
                    span_at(b, Some(0.0), 2, sim),
                    second(),
                    span_at(e, Some(2.0), 2, sim),
                    span_at(b, Some(0.0), 3, sim),
                    span_at(e, Some(2.0), 3, sim),
                    span_at(e, Some(2.0), 1, "sweep"),
                ],
                vec![("0:detailed_sim", 2, 4), ("1:detailed_sim", 5, 6)],
            ),
            (
                "a sim span nested in a run belongs to it",
                vec![
                    span_at(b, Some(0.0), 1, sim),
                    span_at(b, Some(0.0), 2, fast),
                    span_at(e, Some(1.0), 2, fast),
                    second(),
                    span_at(e, Some(2.0), 1, sim),
                ],
                vec![("0:detailed_sim", 1, 5)],
            ),
            (
                "implicit run closed by a later top-level sim span",
                vec![
                    event_at("note", Some(0.0)),
                    second(),
                    second(),
                    span_at(b, Some(0.0), 1, fast),
                    second(),
                    span_at(e, Some(1.0), 1, fast),
                ],
                vec![("0:trace", 2, 3), ("1:fast_sim", 4, 6)],
            ),
            (
                "a prov-less run keeps its number",
                vec![
                    span_at(b, Some(0.0), 1, sim),
                    second(),
                    span_at(e, Some(1.0), 1, sim),
                    span_at(b, Some(0.0), 2, sim),
                    prov(),
                    span_at(e, Some(1.0), 2, sim),
                ],
                vec![("0:detailed_sim", 1, 3), ("1:detailed_sim", 4, 6)],
            ),
        ];
        for (case, mut events, expected) in cases {
            for (i, ev) in events.iter_mut().enumerate() {
                ev.seq = u64::try_from(i).unwrap_or(u64::MAX) + 1;
            }
            let got: Vec<(String, u64, u64)> = runs(&events, |ev| ev.kind == kinds::SECOND)
                .into_iter()
                .map(|(label, run)| (label, run[0].seq, run[run.len() - 1].seq))
                .collect();
            let want: Vec<(String, u64, u64)> = expected
                .iter()
                .map(|&(label, first, last)| (label.to_string(), first, last))
                .collect();
            assert_eq!(got, want, "{case}");
            if case == "a prov-less run keeps its number" {
                let prov_labels: Vec<String> = crate::prov::analyze(&events)
                    .into_iter()
                    .map(|r| r.label)
                    .collect();
                assert_eq!(prov_labels, ["1:detailed_sim"], "{case}");
            }
        }
    }

    #[test]
    fn reconfig_windows_pin_the_malformed_input_rules() {
        let rc = kinds::SPAN_RECONFIG;
        let (b, e) = (kinds::SPAN_BEGIN, kinds::SPAN_END);
        let begin =
            |t: Option<f64>, id: u64| span_at(b, t, id, rc).with("from", 2u64).with("to", 3u64);
        let chunk = |t: Option<f64>| event_at(kinds::CHUNK_MOVE, t).with("bytes", 10u64);
        // (case, trace, expected windows as (start, end, closed, from,
        // to, chunk moves)).
        type Want = (f64, f64, bool, Option<u64>, Option<u64>, u64);
        let cases: Vec<(&str, Vec<Event>, Vec<Want>)> = vec![
            (
                "events without t: spans ignored, chunk moves counted",
                vec![
                    begin(None, 1),
                    begin(Some(1.0), 2),
                    chunk(None),
                    span_at(e, None, 2, rc),
                    event_at(kinds::SECOND, Some(4.0)),
                ],
                vec![(1.0, 4.0, false, Some(2), Some(3), 1)],
            ),
            (
                "begin without from/to",
                vec![span_at(b, Some(1.0), 1, rc), span_at(e, Some(2.0), 1, rc)],
                vec![(1.0, 2.0, true, None, None, 0)],
            ),
            (
                "duplicate open id: the end closes the latest begin",
                vec![
                    begin(Some(1.0), 7),
                    chunk(Some(1.5)),
                    begin(Some(2.0), 7),
                    chunk(Some(2.5)),
                    span_at(e, Some(3.0), 7, rc),
                    event_at(kinds::SECOND, Some(5.0)),
                ],
                vec![
                    (1.0, 5.0, false, Some(2), Some(3), 2),
                    (2.0, 3.0, true, Some(2), Some(3), 1),
                ],
            ),
            (
                "unclosed window ends at the latest timestamp",
                vec![
                    begin(Some(1.0), 1),
                    event_at(kinds::SECOND, Some(9.0)),
                    event_at(kinds::SECOND, Some(8.0)),
                ],
                vec![(1.0, 9.0, false, Some(2), Some(3), 0)],
            ),
        ];
        for (case, events, expected) in cases {
            let got: Vec<Want> = reconfig_windows(&events)
                .iter()
                .map(|w| (w.start, w.end, w.closed, w.from, w.to, w.chunk_moves))
                .collect();
            assert_eq!(got, expected, "{case}");
        }
    }

    #[test]
    fn order_errors_flags_seq_and_time_regressions() {
        let at = |seq: u64, t: f64, kind: &str| {
            let mut ev = Event::new(kind);
            ev.seq = seq;
            ev.t = Some(t);
            ev
        };
        // Clean, monotone trace.
        let clean = vec![at(1, 0.0, "a"), at(2, 1.0, "b"), at(3, 1.0, "c")];
        assert!(order_errors(&clean).is_empty());

        // Duplicate / regressing seq.
        let dup_seq = vec![at(5, 0.0, "a"), at(5, 1.0, "b"), at(3, 2.0, "c")];
        let errs = order_errors(&dup_seq);
        assert_eq!(errs.len(), 2);
        assert!(matches!(
            errs[0],
            OrderError::SeqNotIncreasing { prev: 5, seq: 5 }
        ));

        // t regression while a span is open is an error...
        let mid_span = vec![
            {
                let mut ev = span(kinds::SPAN_BEGIN, 1, 1, "run");
                ev.t = Some(5.0);
                ev
            },
            at(2, 3.0, "x"),
        ];
        assert!(matches!(
            order_errors(&mid_span)[0],
            OrderError::TimeRegression { seq: 2, .. }
        ));

        // ...but a reset at an empty span stack (sweep cell boundary) is fine.
        let cell_boundary = vec![
            {
                let mut ev = span(kinds::SPAN_BEGIN, 1, 1, "run");
                ev.t = Some(0.0);
                ev
            },
            at(2, 9.0, "x"),
            {
                let mut ev = span(kinds::SPAN_END, 3, 1, "run");
                ev.t = Some(9.0);
                ev
            },
            at(4, 0.0, "next_cell_start"),
        ];
        assert!(order_errors(&cell_boundary).is_empty());
    }

    #[test]
    #[cfg_attr(miri, ignore = "miri isolation rejects real file I/O")]
    fn read_jsonl_collects_line_errors() {
        let path = std::env::temp_dir().join("pstore_telemetry_trace_test.jsonl");
        std::fs::write(
            &path,
            "{\"seq\":1,\"kind\":\"a\"}\nnot json\n\n{\"seq\":2,\"kind\":\"b\"}\n",
        )
        .unwrap();
        let (events, errors) = read_jsonl(&path).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].line, 2);
        let _ = std::fs::remove_file(&path);
    }
}
