//! The traced repeat's per-layer ledger as spans in the `pstore-telemetry`
//! JSONL event schema, so `pstore-trace profile --wall` renders the layer
//! tree. Spans are kept in memory and written when the benchmark ends.
//!
//! The replayed layers have no position on the run's timeline, so every
//! layer is laid out as one span whose length is the layer's total time,
//! children back to back from their parent's start. The `run` span's self
//! time is then `sim.other_s`.

use pstore_telemetry::{kinds, Event};
use std::io::Write;
use std::path::Path;

/// A span to lay out: name, whole microseconds, children. Durations are
/// truncated to whole microseconds, so children that fit their parent in
/// seconds still fit it after truncation.
pub struct Span {
    pub name: &'static str,
    pub us: u64,
    pub children: Vec<Span>,
}

impl Span {
    pub fn leaf(name: &'static str, seconds: f64) -> Span {
        Span::node(name, seconds, Vec::new())
    }

    pub fn node(name: &'static str, seconds: f64, children: Vec<Span>) -> Span {
        let us = (seconds * 1e6).max(0.0) as u64;
        Span { name, us, children }
    }
}

/// Lays `roots` out back to back and returns the events.
pub fn events(roots: &[Span]) -> Vec<Event> {
    let mut out = Vec::new();
    let mut id = 0u64;
    let mut at = 0;
    for root in roots {
        emit(root, at, &mut id, &mut out);
        at += root.us;
    }
    for (seq, ev) in out.iter_mut().enumerate() {
        ev.seq = seq as u64;
    }
    out
}

fn emit(span: &Span, start_us: u64, next_id: &mut u64, out: &mut Vec<Event>) {
    *next_id += 1;
    let id = *next_id;
    out.push(stamped(kinds::SPAN_BEGIN, id, span.name, start_us));
    let mut at = start_us;
    for child in &span.children {
        emit(child, at, next_id, out);
        at += child.us;
    }
    out.push(stamped(kinds::SPAN_END, id, span.name, start_us + span.us));
}

fn stamped(kind: &str, id: u64, name: &str, wall_us: u64) -> Event {
    let mut ev = Event::new(kind).with("id", id).with("name", name);
    ev.wall_us = Some(wall_us);
    ev
}

/// Writes the events as JSONL.
pub fn write(path: &Path, events: &[Event]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for ev in events {
        writeln!(f, "{}", ev.to_json_line())?;
    }
    f.flush()
}
