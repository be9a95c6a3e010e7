//! Live run metrics: a ring-buffered time-series view of the event
//! stream, updated as events are emitted.
//!
//! [`TimeSeriesSink`] wraps (optionally tees to) another [`Sink`] and
//! folds every event into a shared [`LiveMetrics`] behind an
//! `Arc<Mutex<..>>`. The simulator thread pays one short lock per event;
//! the exposition thread ([`crate::expose::Exposer`]) locks the same
//! state to render the Prometheus text format, so a long run can be
//! scraped mid-flight.

use crate::event::{kinds, Event, Value};
use crate::sink::Sink;
use crate::sync::{Arc, Mutex};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// Default ring capacity for per-second series (~8.5 simulated minutes).
const DEFAULT_RING: usize = 512;

/// A fixed-capacity ring buffer of `(t, value)` samples.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    samples: Vec<(f64, f64)>,
    capacity: usize,
    next: usize,
    pushed: u64,
}

impl TimeSeries {
    /// An empty series holding at most `capacity` samples (min 1).
    pub fn new(capacity: usize) -> Self {
        TimeSeries {
            samples: Vec::new(),
            capacity: capacity.max(1),
            next: 0,
            pushed: 0,
        }
    }

    /// Appends a sample, evicting the oldest once at capacity.
    pub fn push(&mut self, t: f64, value: f64) {
        if self.samples.len() < self.capacity {
            self.samples.push((t, value));
        } else {
            self.samples[self.next] = (t, value);
        }
        self.next = (self.next + 1) % self.capacity;
        self.pushed += 1;
    }

    /// Samples currently retained, oldest first.
    pub fn samples(&self) -> Vec<(f64, f64)> {
        if self.samples.len() < self.capacity {
            self.samples.clone()
        } else {
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&self.samples[self.next..]);
            out.extend_from_slice(&self.samples[..self.next]);
            out
        }
    }

    /// The most recently pushed sample.
    pub fn latest(&self) -> Option<(f64, f64)> {
        if self.samples.is_empty() {
            None
        } else {
            let idx = (self.next + self.capacity - 1) % self.capacity;
            self.samples.get(idx).or(self.samples.last()).copied()
        }
    }

    /// Mean over the retained window (0 when empty).
    pub fn window_mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.samples.iter().map(|(_, v)| v).sum();
        #[allow(clippy::cast_precision_loss)] // ring sizes are small
        {
            sum / self.samples.len() as f64
        }
    }

    /// Samples retained right now.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total samples ever pushed (including evicted ones).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }
}

/// Aggregated live view of a run, scrapeable while the run is going.
#[derive(Debug, Default)]
pub struct LiveMetrics {
    events_by_kind: BTreeMap<String, u64>,
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    series: BTreeMap<String, TimeSeries>,
}

impl LiveMetrics {
    /// Fresh, empty state.
    pub fn new() -> Self {
        LiveMetrics::default()
    }

    /// Folds one event into the live view.
    pub fn observe(&mut self, ev: &Event) {
        *self.events_by_kind.entry(ev.kind.clone()).or_insert(0) += 1;
        if let Some(t) = ev.t {
            self.set_gauge("sim_time_seconds", t);
        }
        match ev.kind.as_str() {
            kinds::SECOND => {
                let t = ev.t.unwrap_or(0.0);
                for key in [
                    "p99",
                    "p95",
                    "throughput",
                    "machines",
                    "win_p50",
                    "win_p95",
                    "win_p99",
                    "attr_queue",
                    "attr_exec",
                    "attr_stall",
                ] {
                    if let Some(v) = ev.field_f64(key) {
                        self.set_gauge(key, v);
                        self.push_series(key, t, v);
                    }
                }
                // Migration interference accumulates so operators can
                // alert on its rate, not just the instantaneous gauge.
                if let Some(stall) = ev.field_f64("attr_stall") {
                    self.inc_counter("migration_stall_seconds", stall);
                }
                if let Some(r) = ev.field("reconfiguring") {
                    let v = match r {
                        Value::Bool(b) => {
                            if *b {
                                1.0
                            } else {
                                0.0
                            }
                        }
                        other => other.as_f64().unwrap_or(0.0),
                    };
                    self.set_gauge("reconfiguring", v);
                }
            }
            kinds::SLA_VIOLATION => self.inc_counter("sla_violation_seconds", 1.0),
            kinds::CHUNK_MOVE => {
                self.inc_counter("chunk_moves", 1.0);
                if let Some(bytes) = ev.field_f64("bytes") {
                    self.inc_counter("bytes_moved", bytes);
                }
            }
            kinds::SPAN_BEGIN if ev.field_str("name") == Some(kinds::SPAN_RECONFIG) => {
                self.inc_counter("reconfigurations", 1.0);
            }
            kinds::PLANNER => {
                self.inc_counter("planner_calls", 1.0);
                if ev.field("feasible").and_then(Value::as_bool) == Some(true) {
                    self.inc_counter("planner_feasible", 1.0);
                }
            }
            kinds::FORECAST_PREDICT => self.inc_counter("forecasts", 1.0),
            // Provisioning observatory: surface the decision/reconfig
            // stream and per-interval capacity as prov.* metrics so the
            // exposition endpoint can alert on provisioning drift.
            kinds::PROV_DECISION => {
                self.inc_counter("prov.decisions", 1.0);
                if let Some(m) = ev.field_f64("target") {
                    self.set_gauge("prov.target_machines", m);
                }
            }
            kinds::PROV_RECONFIG => self.inc_counter("prov.reconfigs", 1.0),
            kinds::PROV_FORECAST => self.inc_counter("prov.forecast_scores", 1.0),
            kinds::PROV_INTERVAL => {
                if let Some(m) = ev.field_f64("machines") {
                    self.set_gauge("prov.machines", m);
                }
                if let Some(o) = ev.field_f64("observed") {
                    self.set_gauge("prov.observed_load", o);
                }
            }
            kinds::METRICS_SNAPSHOT => {
                // End-of-run registry dump: publish every scalar field.
                for (k, v) in &ev.fields {
                    if let Some(v) = v.as_f64() {
                        self.set_gauge(k, v);
                    }
                }
            }
            _ => {}
        }
    }

    /// Adds `delta` to a named counter.
    pub fn inc_counter(&mut self, name: &str, delta: f64) {
        *self.counters.entry(name.to_string()).or_insert(0.0) += delta;
    }

    /// Sets a named gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// A counter's current value (0 when never incremented).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// A gauge's current value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The ring-buffered series for `name`, if any samples arrived.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// Events observed of `kind`.
    pub fn events_of_kind(&self, kind: &str) -> u64 {
        self.events_by_kind.get(kind).copied().unwrap_or(0)
    }

    fn push_series(&mut self, name: &str, t: f64, value: f64) {
        self.series
            .entry(name.to_string())
            .or_insert_with(|| TimeSeries::new(DEFAULT_RING))
            .push(t, value);
    }

    /// Renders the Prometheus text exposition format (version 0.0.4):
    /// `pstore_events_total{kind="..."}` per event kind, one
    /// `pstore_<name>_total` counter per accumulated counter, one
    /// `pstore_<name>` gauge per gauge, and `_window_mean` gauges over
    /// each ring-buffered series. Output order is deterministic.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("# HELP pstore_events_total Telemetry events observed, by kind.\n");
        out.push_str("# TYPE pstore_events_total counter\n");
        for (kind, n) in &self.events_by_kind {
            let _ = writeln!(
                out,
                "pstore_events_total{{kind=\"{}\"}} {n}",
                sanitize(kind)
            );
        }
        for (name, v) in &self.counters {
            let name = sanitize(name);
            let _ = writeln!(out, "# TYPE pstore_{name}_total counter");
            let _ = writeln!(out, "pstore_{name}_total {}", fmt_value(*v));
        }
        for (name, v) in &self.gauges {
            let name = sanitize(name);
            let _ = writeln!(out, "# TYPE pstore_{name} gauge");
            let _ = writeln!(out, "pstore_{name} {}", fmt_value(*v));
        }
        for (name, series) in &self.series {
            let name = sanitize(name);
            let _ = writeln!(out, "# TYPE pstore_{name}_window_mean gauge");
            let _ = writeln!(
                out,
                "pstore_{name}_window_mean {}",
                fmt_value(series.window_mean())
            );
        }
        out
    }
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; everything else
/// (dots in registry names, dashes) becomes `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Integral values print without a fraction so counters read naturally.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// A [`Sink`] that folds events into a shared [`LiveMetrics`] and
/// optionally tees them to an inner sink (usually a
/// [`crate::sink::JsonlSink`], so `--trace` and `--expose-metrics`
/// compose).
pub struct TimeSeriesSink {
    shared: Arc<Mutex<LiveMetrics>>,
    inner: Option<Rc<dyn Sink>>,
}

impl TimeSeriesSink {
    /// Creates a sink feeding `shared`, teeing to `inner` when given.
    pub fn new(shared: Arc<Mutex<LiveMetrics>>, inner: Option<Rc<dyn Sink>>) -> Self {
        TimeSeriesSink { shared, inner }
    }

    /// Convenience: fresh shared state plus a sink feeding it.
    pub fn create(inner: Option<Rc<dyn Sink>>) -> (Self, Arc<Mutex<LiveMetrics>>) {
        let shared = Arc::new(Mutex::new(LiveMetrics::new()));
        (TimeSeriesSink::new(Arc::clone(&shared), inner), shared)
    }
}

impl Sink for TimeSeriesSink {
    fn record(&self, event: &Event) {
        // A poisoned lock means the exposition thread panicked while
        // holding it; the run's trace matters more, so keep going.
        if let Ok(mut live) = self.shared.lock() {
            live.observe(event);
        }
        if let Some(inner) = &self.inner {
            inner.record(event);
        }
    }

    fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    fn second(t: f64, p99: f64, thr: f64, machines: u64, reconf: bool) -> Event {
        let mut ev = Event::new(kinds::SECOND)
            .with("second", t)
            .with("throughput", thr)
            .with("p99", p99)
            .with("machines", machines)
            .with("reconfiguring", reconf);
        ev.t = Some(t);
        ev
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut ts = TimeSeries::new(3);
        for i in 0..5 {
            ts.push(f64::from(i), f64::from(i) * 10.0);
        }
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.total_pushed(), 5);
        let samples = ts.samples();
        assert_eq!(samples, vec![(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]);
        assert_eq!(ts.latest(), Some((4.0, 40.0)));
        assert!((ts.window_mean() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn observe_folds_seconds_and_counters() {
        let mut live = LiveMetrics::new();
        live.observe(&second(1.0, 0.02, 5000.0, 4, false));
        live.observe(&second(2.0, 0.09, 4000.0, 5, true));
        live.observe(&Event::new(kinds::SLA_VIOLATION).with("second", 2u64));
        live.observe(
            &Event::new(kinds::CHUNK_MOVE)
                .with("from", 0u64)
                .with("to", 1u64)
                .with("bytes", 1024u64),
        );
        assert_eq!(live.events_of_kind(kinds::SECOND), 2);
        assert!((live.counter("sla_violation_seconds") - 1.0).abs() < 1e-9);
        assert!((live.counter("bytes_moved") - 1024.0).abs() < 1e-9);
        assert_eq!(live.gauge("p99"), Some(0.09));
        assert_eq!(live.gauge("reconfiguring"), Some(1.0));
        let series = live.series("p99").map(TimeSeries::samples);
        assert_eq!(series, Some(vec![(1.0, 0.02), (2.0, 0.09)]));
    }

    #[test]
    fn prov_events_surface_as_prov_metrics() {
        let mut live = LiveMetrics::new();
        live.observe(
            &Event::new(kinds::PROV_INTERVAL)
                .with("interval", 3u64)
                .with("observed", 512.0)
                .with("machines", 2u64),
        );
        live.observe(
            &Event::new(kinds::PROV_DECISION)
                .with("id", 1u64)
                .with("target", 4u64),
        );
        live.observe(&Event::new(kinds::PROV_RECONFIG).with("id", 1u64));
        live.observe(&Event::new(kinds::PROV_FORECAST).with("horizon", 2u64));
        assert_eq!(live.gauge("prov.machines"), Some(2.0));
        assert_eq!(live.gauge("prov.observed_load"), Some(512.0));
        assert_eq!(live.gauge("prov.target_machines"), Some(4.0));
        assert!((live.counter("prov.decisions") - 1.0).abs() < 1e-9);
        assert!((live.counter("prov.reconfigs") - 1.0).abs() < 1e-9);
        assert!((live.counter("prov.forecast_scores") - 1.0).abs() < 1e-9);
        // Dots sanitize to underscores in the exposition text.
        let text = live.render_prometheus();
        assert!(text.contains("pstore_prov_decisions_total 1"));
        assert!(text.contains("pstore_prov_machines 2"));
    }

    #[test]
    fn attribution_fields_become_gauges_and_a_stall_counter() {
        let mut live = LiveMetrics::new();
        let mut sec = second(1.0, 0.02, 5000.0, 4, false)
            .with("win_p99", 0.7)
            .with("attr_queue", 3.0)
            .with("attr_exec", 8.0)
            .with("attr_stall", 1.5);
        sec.t = Some(1.0);
        live.observe(&sec);
        let mut sec2 = second(2.0, 0.02, 5000.0, 4, false).with("attr_stall", 0.5);
        sec2.t = Some(2.0);
        live.observe(&sec2);
        assert_eq!(live.gauge("win_p99"), Some(0.7));
        assert_eq!(live.gauge("attr_queue"), Some(3.0));
        assert_eq!(live.gauge("attr_stall"), Some(0.5));
        assert!((live.counter("migration_stall_seconds") - 2.0).abs() < 1e-9);
        let series = live.series("attr_stall").map(TimeSeries::samples);
        assert_eq!(series, Some(vec![(1.0, 1.5), (2.0, 0.5)]));
        let prom = live.render_prometheus();
        assert!(prom.contains("pstore_migration_stall_seconds_total 2"));
        assert!(prom.contains("# TYPE pstore_attr_stall gauge"));
    }

    #[test]
    fn reconfig_span_begin_counts_reconfigurations() {
        let mut live = LiveMetrics::new();
        live.observe(
            &Event::new(kinds::SPAN_BEGIN)
                .with("id", 1u64)
                .with("name", kinds::SPAN_RECONFIG),
        );
        live.observe(
            &Event::new(kinds::SPAN_BEGIN)
                .with("id", 2u64)
                .with("name", "tick"),
        );
        assert!((live.counter("reconfigurations") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prometheus_rendering_is_wellformed_and_deterministic() {
        let mut live = LiveMetrics::new();
        live.observe(&second(1.0, 0.02, 5000.0, 4, false));
        live.observe(&Event::new(kinds::SLA_VIOLATION).with("second", 1u64));
        live.set_gauge("stable.p99", 0.025);
        let a = live.render_prometheus();
        let b = live.render_prometheus();
        assert_eq!(a, b);
        assert!(a.contains("pstore_events_total{kind=\"second\"} 1"));
        assert!(a.contains("# TYPE pstore_sla_violation_seconds_total counter"));
        assert!(a.contains("pstore_sla_violation_seconds_total 1"));
        // Dots sanitize to underscores.
        assert!(a.contains("pstore_stable_p99 0.025"));
        // Every non-comment line is `name[{labels}] value`.
        for line in a.lines() {
            if line.starts_with('#') {
                continue;
            }
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            assert!(!name.is_empty(), "bad line: {line}");
            assert!(value.parse::<f64>().is_ok(), "bad value in line: {line}");
        }
    }

    #[test]
    fn sink_tees_to_inner_and_updates_shared() {
        let (mem, handle) = MemorySink::new();
        let (sink, shared) = TimeSeriesSink::create(Some(Rc::new(mem)));
        sink.record(&second(1.0, 0.02, 5000.0, 4, false));
        sink.flush();
        assert_eq!(handle.len(), 1);
        let live = shared.lock().unwrap();
        assert_eq!(live.events_of_kind(kinds::SECOND), 1);
    }
}
