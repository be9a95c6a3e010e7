//! Provisioning observatory: decision provenance, forecast accuracy, and
//! the capacity ledger over a trace.
//!
//! The control loop — forecast, plan, decide, migrate — emits the
//! `prov_*` event family (opt-in via
//! [`set_prov_enabled`](crate::set_prov_enabled)): `prov_run` describes
//! the run (capacity `Q`, lead time `D`, monitoring interval),
//! `prov_interval` records each interval's observed demand and active
//! machine count, `prov_forecast` joins every prediction with the
//! observation it targeted, `prov_decision` records why the controller
//! asked for a new machine count, and `prov_reconfig`/`prov_chunk` carry
//! the migration cost of acting on it. This module reads a trace back,
//! segments it into simulator runs (like [`slo`](crate::slo)), and
//! produces three artifacts per run:
//!
//! 1. a **capacity ledger**: machine-seconds provisioned vs the ideal
//!    demand curve `ceil(observed / Q)`, split into over- and
//!    under-provision areas — the quantity behind the paper's Fig 9;
//! 2. a **forecast-accuracy report**: MAPE and signed bias per
//!    (model, horizon), plus *under-forecast windows* — maximal interval
//!    stretches where demand exceeded even the most generous prediction
//!    by more than the planner's 15% inflation headroom — correlated
//!    with SLA-violation seconds;
//! 3. a **decision audit**: every decision joined with the
//!    reconfiguration it caused and the SLA effect around it.
//!
//! The `PRV-01..03` invariants in `pstore-verify` re-derive the ledger
//! and the decision/forecast joins from the raw events and require them
//! to reconcile with this module's output.

use crate::event::{kinds, span_names, Event};
use crate::slo::SLA_THRESHOLD_S;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Headroom an observation must exceed the best prediction by before the
/// interval counts as under-forecast — mirrors the controller's 15%
/// prediction inflation (§6): demand inside the inflated envelope was,
/// by construction, provisioned for.
pub const UNDER_FORECAST_MARGIN: f64 = 0.15;

/// One provisioning decision (a `prov_decision` event).
#[derive(Debug, Clone)]
pub struct ProvDecision {
    /// Per-controller decision id (> 0).
    pub id: u64,
    /// Monitoring interval the decision was made in.
    pub interval: u64,
    /// Machines at decision time.
    pub machines: u64,
    /// Machines requested.
    pub target: u64,
    /// Controller's stated reason (`planned`, `emergency`, ...).
    pub reason: String,
    /// Load that tripped the decision.
    pub trigger: f64,
    /// Predicted peak demand driving the size.
    pub peak: f64,
    /// DP plan cost (0 when no plan was involved).
    pub cost: f64,
    /// Seconds between the decision and its target interval (0 for
    /// reactive and emergency decisions).
    pub lead_s: f64,
    /// Migration-rate multiplier requested.
    pub rate: f64,
    /// Sim time of the decision.
    pub t: f64,
}

/// One completed reconfiguration (a `prov_reconfig` event).
#[derive(Debug, Clone)]
pub struct ProvReconfig {
    /// Decision id this move traces back to (0 = unattributed).
    pub id: u64,
    /// Machines before.
    pub from: u64,
    /// Machines after.
    pub to: u64,
    /// Sim time the move started.
    pub start: f64,
    /// Sim seconds the move took.
    pub duration_s: f64,
    /// Chunks migrated.
    pub chunks: u64,
    /// Rows migrated.
    pub rows: u64,
    /// Bytes migrated.
    pub bytes: u64,
}

/// One scored forecast (a `prov_forecast` event): a prediction joined
/// with the observation for its target interval.
#[derive(Debug, Clone)]
pub struct ForecastScore {
    /// Forecasting model name.
    pub model: String,
    /// Intervals ahead the prediction was made.
    pub horizon: u64,
    /// Target interval.
    pub interval: u64,
    /// Predicted demand (raw, uninflated).
    pub predicted: f64,
    /// Observed demand for the target interval.
    pub observed: f64,
}

/// Accuracy of one (model, horizon) cell.
#[derive(Debug, Clone)]
pub struct HorizonAccuracy {
    /// Forecasting model name.
    pub model: String,
    /// Horizon in intervals.
    pub horizon: u64,
    /// Scored samples.
    pub samples: u64,
    /// Mean absolute percentage error; `None` when every observation was
    /// ~zero (MAPE is undefined on zero-demand intervals).
    pub mape: Option<f64>,
    /// Mean signed error `predicted - observed` (negative = the model
    /// under-forecasts).
    pub bias: f64,
}

/// A maximal stretch of under-forecast intervals (observation above the
/// best prediction by more than [`UNDER_FORECAST_MARGIN`]), tolerating
/// single-interval gaps like SLA windows do.
#[derive(Debug, Clone)]
pub struct UnderForecastWindow {
    /// First under-forecast interval (inclusive).
    pub start: u64,
    /// Last under-forecast interval (inclusive).
    pub end: u64,
    /// Under-forecast intervals inside the window (gaps excluded).
    pub intervals: u64,
    /// Worst `observed / predicted` ratio inside the window.
    pub worst_ratio: f64,
    /// SLA-violating seconds inside the window's time range.
    pub sla_seconds: u64,
}

/// Capacity-ledger totals (all in machine-seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LedgerTotals {
    /// Machine-seconds actually provisioned.
    pub provisioned: f64,
    /// Machine-seconds the ideal demand curve needed.
    pub ideal: f64,
    /// Area where provisioned exceeded ideal.
    pub over: f64,
    /// Area where ideal exceeded provisioned.
    pub under: f64,
}

/// Integrates the capacity ledger over `(machines, observed)` interval
/// samples: ideal machines per interval are `ceil(observed / q)`,
/// clamped to at least 1 (a running cluster never drops to zero). The
/// conservation identity `provisioned - ideal == over - under` holds
/// exactly up to floating-point reassociation — PRV-01 checks it.
pub fn ledger_areas(intervals: &[(u64, f64)], q: f64, interval_s: f64) -> LedgerTotals {
    let mut totals = LedgerTotals::default();
    for &(machines, observed) in intervals {
        #[allow(clippy::cast_precision_loss)] // machine counts far below 2^53
        let have = machines as f64;
        let ideal = if q > 0.0 {
            (observed / q).ceil().max(1.0)
        } else {
            1.0
        };
        totals.provisioned += have * interval_s;
        totals.ideal += ideal * interval_s;
        totals.over += (have - ideal).max(0.0) * interval_s;
        totals.under += (ideal - have).max(0.0) * interval_s;
    }
    totals
}

/// Per-(model, horizon) accuracy over scored forecasts. Zero-demand
/// observations (|observed| < 1e-9) are excluded from MAPE — relative
/// error is undefined there — but still count toward bias and samples.
pub fn horizon_accuracy(scores: &[ForecastScore]) -> Vec<HorizonAccuracy> {
    let mut cells: BTreeMap<(String, u64), (u64, u64, f64, f64)> = BTreeMap::new();
    for s in scores {
        let cell = cells
            .entry((s.model.clone(), s.horizon))
            .or_insert((0, 0, 0.0, 0.0));
        cell.0 += 1;
        cell.3 += s.predicted - s.observed;
        if s.observed.abs() >= 1e-9 {
            cell.1 += 1;
            cell.2 += (s.predicted - s.observed).abs() / s.observed.abs();
        }
    }
    cells
        .into_iter()
        .map(
            |((model, horizon), (samples, mape_n, mape_sum, bias_sum))| {
                #[allow(clippy::cast_precision_loss)] // sample counts far below 2^53
                HorizonAccuracy {
                    model,
                    horizon,
                    samples,
                    mape: (mape_n > 0).then(|| 100.0 * mape_sum / mape_n as f64),
                    bias: if samples > 0 {
                        bias_sum / samples as f64
                    } else {
                        0.0
                    },
                }
            },
        )
        .collect()
}

/// Provisioning analysis of one simulator run.
#[derive(Debug, Clone, Default)]
pub struct RunProv {
    /// Run label: `{index}:{span name}` (or `{index}:trace`).
    pub label: String,
    /// Policy name from `prov_run`, if recorded.
    pub policy: String,
    /// Per-machine capacity `Q` (txn/s).
    pub q: f64,
    /// Migration lead time `D` in seconds.
    pub d_s: f64,
    /// Monitoring interval in seconds.
    pub interval_s: f64,
    /// `prov_interval` events observed.
    pub intervals: u64,
    /// The capacity ledger.
    pub ledger: LedgerTotals,
    /// Decisions, in time order.
    pub decisions: Vec<ProvDecision>,
    /// Completed reconfigurations, in completion order.
    pub reconfigs: Vec<ProvReconfig>,
    /// Scored forecasts.
    pub scores: Vec<ForecastScore>,
    /// Per-(model, horizon) accuracy (derived from `scores`).
    pub accuracy: Vec<HorizonAccuracy>,
    /// Under-forecast windows, in interval order.
    pub under_forecast: Vec<UnderForecastWindow>,
    /// SLA-violating seconds in the run (`second` events with
    /// `p99 > SLA_THRESHOLD_S`).
    pub violation_seconds: u64,
}

impl RunProv {
    /// The reconfiguration a decision caused, if one completed.
    pub fn reconfig_of(&self, decision_id: u64) -> Option<&ProvReconfig> {
        if decision_id == 0 {
            return None;
        }
        self.reconfigs.iter().find(|r| r.id == decision_id)
    }
}

/// Working state while a run is being scanned.
#[derive(Default)]
struct RunBuilder {
    label: String,
    policy: String,
    q: f64,
    d_s: f64,
    interval_s: f64,
    /// `(interval, machines, observed)` in event order.
    intervals: Vec<(u64, u64, f64)>,
    decisions: Vec<ProvDecision>,
    reconfigs: Vec<ProvReconfig>,
    scores: Vec<ForecastScore>,
    /// Sim times of SLA-violating `second` events.
    violation_times: Vec<f64>,
}

impl RunBuilder {
    fn new(label: String) -> Self {
        RunBuilder {
            label,
            interval_s: 1.0,
            ..RunBuilder::default()
        }
    }

    fn observe(&mut self, ev: &Event) {
        match ev.kind.as_str() {
            kinds::PROV_RUN => {
                self.q = ev.field_f64("q").unwrap_or(0.0);
                self.d_s = ev.field_f64("d_s").unwrap_or(0.0);
                self.interval_s = ev.field_f64("interval_s").unwrap_or(1.0);
                self.policy = ev.field_str("policy").unwrap_or("").to_string();
            }
            kinds::PROV_INTERVAL => {
                self.intervals.push((
                    ev.field_u64("interval").unwrap_or(0),
                    ev.field_u64("machines").unwrap_or(0),
                    ev.field_f64("observed").unwrap_or(0.0),
                ));
            }
            kinds::PROV_FORECAST => {
                self.scores.push(ForecastScore {
                    model: ev.field_str("model").unwrap_or("?").to_string(),
                    horizon: ev.field_u64("horizon").unwrap_or(0),
                    interval: ev.field_u64("interval").unwrap_or(0),
                    predicted: ev.field_f64("predicted").unwrap_or(0.0),
                    observed: ev.field_f64("observed").unwrap_or(0.0),
                });
            }
            kinds::PROV_DECISION => {
                // Controllers report lead in monitoring intervals (they
                // don't know wall seconds); the run header's interval
                // length converts it.
                #[allow(clippy::cast_precision_loss)] // interval counts far below 2^53
                let lead_s = ev.field_u64("lead").unwrap_or(0) as f64 * self.interval_s;
                self.decisions.push(ProvDecision {
                    id: ev.field_u64("id").unwrap_or(0),
                    interval: ev.field_u64("interval").unwrap_or(0),
                    machines: ev.field_u64("machines").unwrap_or(0),
                    target: ev.field_u64("target").unwrap_or(0),
                    reason: ev.field_str("reason").unwrap_or("?").to_string(),
                    trigger: ev.field_f64("trigger").unwrap_or(0.0),
                    peak: ev.field_f64("peak").unwrap_or(0.0),
                    cost: ev.field_f64("cost").unwrap_or(0.0),
                    lead_s,
                    rate: ev.field_f64("rate").unwrap_or(1.0),
                    t: ev.t.unwrap_or(0.0),
                });
            }
            kinds::PROV_RECONFIG => {
                self.reconfigs.push(ProvReconfig {
                    id: ev.field_u64("id").unwrap_or(0),
                    from: ev.field_u64("from").unwrap_or(0),
                    to: ev.field_u64("to").unwrap_or(0),
                    start: ev.field_f64("start").unwrap_or(0.0),
                    duration_s: ev.field_f64("duration_s").unwrap_or(0.0),
                    chunks: ev.field_u64("chunks").unwrap_or(0),
                    rows: ev.field_u64("rows").unwrap_or(0),
                    bytes: ev.field_u64("bytes").unwrap_or(0),
                });
            }
            kinds::SECOND if ev.field_f64("p99").unwrap_or(0.0) > SLA_THRESHOLD_S => {
                if let Some(t) = ev.t {
                    self.violation_times.push(t);
                }
            }
            _ => {}
        }
    }

    /// Merges under-forecast intervals into windows and counts the
    /// SLA-violating seconds inside each window's time range.
    fn under_forecast_windows(&self) -> Vec<UnderForecastWindow> {
        // Best (largest) prediction per target interval, joined with the
        // observation the score already carries.
        let mut per_interval: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for s in &self.scores {
            let cell = per_interval
                .entry(s.interval)
                .or_insert((f64::NEG_INFINITY, s.observed));
            cell.0 = cell.0.max(s.predicted);
            cell.1 = s.observed;
        }
        let mut windows: Vec<UnderForecastWindow> = Vec::new();
        for (&interval, &(predicted, observed)) in &per_interval {
            if observed <= predicted * (1.0 + UNDER_FORECAST_MARGIN) {
                continue;
            }
            let ratio = if predicted > 0.0 {
                observed / predicted
            } else {
                f64::INFINITY
            };
            match windows.last_mut() {
                Some(w) if interval <= w.end + 2 => {
                    w.end = interval;
                    w.intervals += 1;
                    w.worst_ratio = w.worst_ratio.max(ratio);
                }
                _ => windows.push(UnderForecastWindow {
                    start: interval,
                    end: interval,
                    intervals: 1,
                    worst_ratio: ratio,
                    sla_seconds: 0,
                }),
            }
        }
        #[allow(clippy::cast_precision_loss)] // interval indices far below 2^53
        for w in &mut windows {
            let lo = w.start as f64 * self.interval_s;
            let hi = (w.end + 1) as f64 * self.interval_s;
            w.sla_seconds = u64::try_from(
                self.violation_times
                    .iter()
                    .filter(|&&t| t >= lo && t < hi)
                    .count(),
            )
            .unwrap_or(u64::MAX);
        }
        windows
    }

    fn finish(self) -> RunProv {
        let samples: Vec<(u64, f64)> = self
            .intervals
            .iter()
            .map(|&(_, machines, observed)| (machines, observed))
            .collect();
        let ledger = ledger_areas(&samples, self.q, self.interval_s);
        let under_forecast = self.under_forecast_windows();
        let accuracy = horizon_accuracy(&self.scores);
        RunProv {
            label: self.label,
            policy: self.policy,
            q: self.q,
            d_s: self.d_s,
            interval_s: self.interval_s,
            intervals: u64::try_from(self.intervals.len()).unwrap_or(u64::MAX),
            ledger,
            decisions: self.decisions,
            reconfigs: self.reconfigs,
            scores: self.scores,
            accuracy,
            under_forecast,
            violation_seconds: u64::try_from(self.violation_times.len()).unwrap_or(u64::MAX),
        }
    }
}

/// True for kinds that should start an implicit run in a trace without
/// simulator spans.
fn is_prov_kind(kind: &str) -> bool {
    matches!(
        kind,
        kinds::PROV_RUN
            | kinds::PROV_INTERVAL
            | kinds::PROV_FORECAST
            | kinds::PROV_DECISION
            | kinds::PROV_RECONFIG
            | kinds::PROV_CHUNK
    )
}

/// Segments a trace into simulator runs and analyzes each — the same
/// segmentation as [`slo::analyze`](crate::slo::analyze): a run is
/// everything between a top-level `detailed_sim`/`fast_sim` span pair;
/// traces without simulator spans yield one implicit `{i}:trace` run
/// when they contain any `prov_*` events.
pub fn analyze(events: &[Event]) -> Vec<RunProv> {
    let mut runs: Vec<RunProv> = Vec::new();
    let mut current: Option<(RunBuilder, usize)> = None; // builder + base depth
    let mut depth: usize = 0;
    for ev in events {
        let begins = ev.kind == kinds::SPAN_BEGIN;
        let ends = ev.kind == kinds::SPAN_END;
        let name = ev.field_str("name").unwrap_or("");
        let is_sim = name == span_names::DETAILED_SIM || name == span_names::FAST_SIM;
        if begins && is_sim && current.as_ref().is_none_or(|&(_, base)| depth == base) {
            if let Some((b, _)) = current.take() {
                runs.push(b.finish());
            }
            current = Some((RunBuilder::new(format!("{}:{name}", runs.len())), depth + 1));
        }
        if begins {
            depth += 1;
        }
        if let Some((b, _)) = current.as_mut() {
            b.observe(ev);
        } else if is_prov_kind(&ev.kind) {
            let mut b = RunBuilder::new(format!("{}:trace", runs.len()));
            b.observe(ev);
            current = Some((b, 0));
        }
        if ends {
            depth = depth.saturating_sub(1);
            let closes_run = matches!(&current, Some((_, base)) if is_sim && depth + 1 == *base);
            if closes_run {
                if let Some((b, _)) = current.take() {
                    runs.push(b.finish());
                }
            }
        }
    }
    if let Some((b, _)) = current.take() {
        runs.push(b.finish());
    }
    // Drop sim runs that carried no prov events at all (prov disabled):
    // they would only add all-zero metric rows.
    runs.retain(|r| r.intervals > 0 || !r.decisions.is_empty() || !r.scores.is_empty());
    runs
}

/// Flattens the analysis into `pstore-run-summary/v1` metrics:
/// `prov.run{i}.*` per run plus `prov.total.*`.
pub fn metrics(runs: &[RunProv]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    #[allow(clippy::cast_precision_loss)] // counts far below 2^53
    for (i, r) in runs.iter().enumerate() {
        out.push((
            format!("prov.run{i}.provisioned_machine_s"),
            r.ledger.provisioned,
        ));
        out.push((format!("prov.run{i}.ideal_machine_s"), r.ledger.ideal));
        out.push((
            format!("prov.run{i}.over_provision_machine_s"),
            r.ledger.over,
        ));
        out.push((
            format!("prov.run{i}.under_provision_machine_s"),
            r.ledger.under,
        ));
        out.push((format!("prov.run{i}.decisions"), r.decisions.len() as f64));
        out.push((format!("prov.run{i}.reconfigs"), r.reconfigs.len() as f64));
        out.push((
            format!("prov.run{i}.under_forecast_windows"),
            r.under_forecast.len() as f64,
        ));
        out.push((
            format!("prov.run{i}.bytes_moved"),
            // fold from +0.0: an empty `sum::<f64>()` is -0.0, which
            // would print as "-0" in the summary JSON.
            r.reconfigs.iter().fold(0.0, |a, m| a + m.bytes as f64),
        ));
        let scored: Vec<&HorizonAccuracy> =
            r.accuracy.iter().filter(|a| a.mape.is_some()).collect();
        if !scored.is_empty() {
            let mape = scored.iter().filter_map(|a| a.mape).sum::<f64>() / scored.len() as f64;
            out.push((format!("prov.run{i}.mape"), mape));
        }
    }
    #[allow(clippy::cast_precision_loss)] // counts far below 2^53
    if !runs.is_empty() {
        out.push((
            "prov.total.over_provision_machine_s".to_string(),
            runs.iter().map(|r| r.ledger.over).sum::<f64>(),
        ));
        out.push((
            "prov.total.under_provision_machine_s".to_string(),
            runs.iter().map(|r| r.ledger.under).sum::<f64>(),
        ));
        out.push((
            "prov.total.decisions".to_string(),
            runs.iter().map(|r| r.decisions.len()).sum::<usize>() as f64,
        ));
        out.push((
            "prov.total.under_forecast_windows".to_string(),
            runs.iter().map(|r| r.under_forecast.len()).sum::<usize>() as f64,
        ));
    }
    out
}

/// `(t, lead_s)` of every decision across runs, for timeline overlays:
/// `lead_s > 0` marks a predictive decision whose effect lands later.
pub fn decision_times(runs: &[RunProv]) -> Vec<(f64, f64)> {
    let mut times: Vec<(f64, f64)> = runs
        .iter()
        .flat_map(|r| r.decisions.iter().map(|d| (d.t, d.lead_s)))
        .collect();
    times.sort_by(|a, b| a.0.total_cmp(&b.0));
    times
}

/// Renders the decision audit, ledger totals, and forecast-error report.
pub fn render(runs: &[RunProv]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== capacity ledger (machine-seconds) ==");
    let _ = writeln!(
        out,
        "  {:<16} {:<22} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "run", "policy", "intervals", "provisioned", "ideal", "over", "under"
    );
    for r in runs {
        let _ = writeln!(
            out,
            "  {:<16} {:<22} {:>9} {:>12.0} {:>12.0} {:>12.0} {:>12.0}",
            r.label,
            r.policy,
            r.intervals,
            r.ledger.provisioned,
            r.ledger.ideal,
            r.ledger.over,
            r.ledger.under
        );
    }

    let _ = writeln!(out);
    let _ = writeln!(out, "== decisions (forecast -> decision -> cost -> SLA) ==");
    let mut any = false;
    for r in runs {
        for d in &r.decisions {
            any = true;
            let cost = match r.reconfig_of(d.id) {
                Some(m) => format!(
                    "{} chunks / {} rows / {} bytes in {:.0}s",
                    m.chunks, m.rows, m.bytes, m.duration_s
                ),
                None => "no completed reconfig".to_string(),
            };
            let sla = sla_effect(r, d);
            let _ = writeln!(
                out,
                "  {:<16} t={:<8.0} #{:<3} {:<20} {}->{} trigger {:.0} peak {:.0} lead {:.0}s  {cost}  {sla}",
                r.label, d.t, d.id, d.reason, d.machines, d.target, d.trigger, d.peak, d.lead_s
            );
        }
    }
    if !any {
        let _ = writeln!(out, "  (none)");
    }

    let _ = writeln!(out);
    let _ = writeln!(out, "== forecast error by horizon ==");
    any = false;
    for r in runs {
        for a in &r.accuracy {
            any = true;
            let mape = a.mape.map_or("n/a".to_string(), |m| format!("{m:.1}%"));
            let _ = writeln!(
                out,
                "  {:<16} {:<14} h={:<3} samples {:<5} MAPE {:<8} bias {:+.1}",
                r.label, a.model, a.horizon, a.samples, mape, a.bias
            );
        }
    }
    if !any {
        let _ = writeln!(out, "  (none)");
    }

    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "== under-forecast windows (observed > best prediction x {:.2}) ==",
        1.0 + UNDER_FORECAST_MARGIN
    );
    any = false;
    for r in runs {
        for w in &r.under_forecast {
            any = true;
            let _ = writeln!(
                out,
                "  {:<16} intervals {}..{} ({} under)  worst obs/pred {:.2}  SLA-violating seconds inside: {}",
                r.label, w.start, w.end, w.intervals, w.worst_ratio, w.sla_seconds
            );
        }
    }
    if !any {
        let _ = writeln!(out, "  (none)");
    }
    out
}

/// Counts SLA-violating seconds from the decision until its
/// reconfiguration settled (plus a one-interval tail), a rough per-move
/// SLA effect.
fn sla_effect(r: &RunProv, d: &ProvDecision) -> String {
    let end = r.reconfig_of(d.id).map_or(d.t + r.interval_s, |m| {
        m.start + m.duration_s + r.interval_s
    });
    // Recompute from the windows' sla counts is lossy; use decisions'
    // surrounding window over the run's recorded violating seconds.
    let hits = r
        .under_forecast
        .iter()
        .filter(|w| {
            #[allow(clippy::cast_precision_loss)] // interval indices far below 2^53
            let lo = w.start as f64 * r.interval_s;
            lo >= d.t && lo < end
        })
        .map(|w| w.sla_seconds)
        .sum::<u64>();
    if hits > 0 {
        format!("SLA hit ({hits}s violating)")
    } else {
        "SLA held".to_string()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp)] // tests assert exact arithmetic
    use super::*;

    fn seq(events: &mut [Event]) {
        for (i, ev) in events.iter_mut().enumerate() {
            ev.seq = u64::try_from(i).unwrap_or(u64::MAX) + 1;
        }
    }

    fn at(mut ev: Event, t: f64) -> Event {
        ev.t = Some(t);
        ev
    }

    fn span(kind: &str, t: f64, id: u64, name: &str) -> Event {
        at(Event::new(kind).with("id", id).with("name", name), t)
    }

    fn run_header(q: f64, interval_s: f64) -> Event {
        at(
            Event::new(kinds::PROV_RUN)
                .with("q", q)
                .with("d_s", 300.0)
                .with("interval_s", interval_s)
                .with("initial", 2u64)
                .with("policy", "test"),
            0.0,
        )
    }

    #[allow(clippy::cast_precision_loss)] // test interval indices are tiny
    fn interval(k: u64, observed: f64, machines: u64, interval_s: f64) -> Event {
        at(
            Event::new(kinds::PROV_INTERVAL)
                .with("interval", k)
                .with("observed", observed)
                .with("machines", machines),
            k as f64 * interval_s,
        )
    }

    #[allow(clippy::cast_precision_loss)] // test interval indices are tiny
    fn forecast(k: u64, horizon: u64, predicted: f64, observed: f64) -> Event {
        at(
            Event::new(kinds::PROV_FORECAST)
                .with("interval", k)
                .with("horizon", horizon)
                .with("model", "persistence")
                .with("predicted", predicted)
                .with("observed", observed),
            k as f64 * 30.0,
        )
    }

    #[test]
    fn ledger_areas_integrate_over_and_under() {
        // Q=100, 30s intervals: demand 150 needs 2, demand 450 needs 5.
        let totals = ledger_areas(&[(2, 150.0), (2, 450.0), (6, 450.0)], 100.0, 30.0);
        assert_eq!(totals.provisioned, (2 + 2 + 6) as f64 * 30.0);
        assert_eq!(totals.ideal, (2 + 5 + 5) as f64 * 30.0);
        assert_eq!(totals.over, 30.0); // 6 vs 5 on the last interval
        assert_eq!(totals.under, 90.0); // 2 vs 5 on the middle interval
                                        // Conservation identity.
        assert!((totals.provisioned - totals.ideal - (totals.over - totals.under)).abs() < 1e-9);
    }

    #[test]
    fn ledger_zero_demand_interval_still_needs_one_machine() {
        let totals = ledger_areas(&[(1, 0.0), (3, 0.0)], 100.0, 10.0);
        assert_eq!(totals.ideal, 20.0);
        assert_eq!(totals.under, 0.0);
        assert_eq!(totals.over, 20.0);
    }

    #[test]
    fn mape_on_single_sample_and_zero_demand() {
        // Single sample: MAPE is just that sample's relative error.
        let one = horizon_accuracy(&[ForecastScore {
            model: "m".into(),
            horizon: 1,
            interval: 0,
            predicted: 110.0,
            observed: 100.0,
        }]);
        assert_eq!(one.len(), 1);
        assert!((one[0].mape.unwrap_or(f64::NAN) - 10.0).abs() < 1e-9);
        assert!((one[0].bias - 10.0).abs() < 1e-9);

        // All-zero demand: MAPE undefined, bias still defined.
        let zero = horizon_accuracy(&[ForecastScore {
            model: "m".into(),
            horizon: 1,
            interval: 0,
            predicted: 50.0,
            observed: 0.0,
        }]);
        assert!(zero[0].mape.is_none());
        assert_eq!(zero[0].samples, 1);
        assert!((zero[0].bias - 50.0).abs() < 1e-9);
    }

    #[test]
    fn horizon_longer_than_run_scores_nothing() {
        // A horizon that never gets an observation simply produces no
        // scores — the accuracy table has no cell for it.
        let acc = horizon_accuracy(&[]);
        assert!(acc.is_empty());
        let runs = analyze(&[]);
        assert!(runs.is_empty());
        assert!(metrics(&runs).is_empty());
    }

    #[test]
    fn under_forecast_windows_merge_and_respect_margin() {
        let mut events = vec![
            span(kinds::SPAN_BEGIN, 0.0, 1, span_names::DETAILED_SIM),
            run_header(100.0, 30.0),
            // Within the 15% envelope: not under-forecast.
            forecast(1, 1, 100.0, 110.0),
            // Truly under-forecast, adjacent intervals merge.
            forecast(2, 1, 100.0, 200.0),
            forecast(3, 1, 100.0, 180.0),
            // Far away: a second window.
            forecast(8, 1, 100.0, 300.0),
            span(kinds::SPAN_END, 300.0, 1, span_names::DETAILED_SIM),
        ];
        seq(&mut events);
        let runs = analyze(&events);
        assert_eq!(runs.len(), 1);
        let w = &runs[0].under_forecast;
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].start, w[0].end, w[0].intervals), (2, 3, 2));
        assert_eq!(w[0].worst_ratio, 2.0);
        assert_eq!((w[1].start, w[1].end), (8, 8));
    }

    #[test]
    fn under_forecast_windows_count_sla_seconds_inside() {
        let mut events = vec![
            span(kinds::SPAN_BEGIN, 0.0, 1, span_names::DETAILED_SIM),
            run_header(100.0, 30.0),
            forecast(2, 1, 100.0, 250.0),
            // Violating seconds at t=65 and t=70 fall inside interval 2's
            // range [60, 90); t=100 falls outside.
            at(Event::new(kinds::SECOND).with("p99", 0.9), 65.0),
            at(Event::new(kinds::SECOND).with("p99", 0.8), 70.0),
            at(Event::new(kinds::SECOND).with("p99", 0.7), 100.0),
            span(kinds::SPAN_END, 300.0, 1, span_names::DETAILED_SIM),
        ];
        seq(&mut events);
        let runs = analyze(&events);
        assert_eq!(runs[0].under_forecast.len(), 1);
        assert_eq!(runs[0].under_forecast[0].sla_seconds, 2);
        assert_eq!(runs[0].violation_seconds, 3);
    }

    #[test]
    fn decisions_join_their_reconfigs() {
        let mut events = vec![
            span(kinds::SPAN_BEGIN, 0.0, 1, span_names::DETAILED_SIM),
            run_header(100.0, 30.0),
            interval(0, 150.0, 2, 30.0),
            at(
                Event::new(kinds::PROV_DECISION)
                    .with("id", 1u64)
                    .with("interval", 0u64)
                    .with("machines", 2u64)
                    .with("target", 4u64)
                    .with("reason", "planned")
                    .with("trigger", 150.0)
                    .with("peak", 380.0)
                    .with("cost", 12.5)
                    .with("lead", 10u64)
                    .with("rate", 1.0),
                10.0,
            ),
            at(
                Event::new(kinds::PROV_RECONFIG)
                    .with("id", 1u64)
                    .with("from", 2u64)
                    .with("to", 4u64)
                    .with("start", 10.0)
                    .with("duration_s", 50.0)
                    .with("chunks", 64u64)
                    .with("rows", 4096u64)
                    .with("bytes", 1_000_000u64),
                60.0,
            ),
            span(kinds::SPAN_END, 300.0, 1, span_names::DETAILED_SIM),
        ];
        seq(&mut events);
        let runs = analyze(&events);
        let r = &runs[0];
        assert_eq!(r.decisions.len(), 1);
        assert_eq!(r.reconfigs.len(), 1);
        let joined = r.reconfig_of(1).map(|m| (m.chunks, m.bytes));
        assert_eq!(joined, Some((64, 1_000_000)));
        assert!(r.reconfig_of(0).is_none());
        let text = render(&runs);
        assert!(text.contains("capacity ledger"));
        assert!(text.contains("planned"));
        assert!(text.contains("64 chunks"));
        let times = decision_times(&runs);
        assert_eq!(times, vec![(10.0, 300.0)]);
    }

    #[test]
    fn metrics_cover_ledger_decisions_and_accuracy() {
        let mut events = vec![
            span(kinds::SPAN_BEGIN, 0.0, 1, span_names::DETAILED_SIM),
            run_header(100.0, 30.0),
            interval(0, 150.0, 2, 30.0),
            interval(1, 450.0, 2, 30.0),
            forecast(1, 1, 400.0, 450.0),
            span(kinds::SPAN_END, 60.0, 1, span_names::DETAILED_SIM),
        ];
        seq(&mut events);
        let runs = analyze(&events);
        let m = metrics(&runs);
        let get = |k: &str| {
            m.iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| *v)
                .unwrap_or(f64::NAN)
        };
        assert_eq!(get("prov.run0.provisioned_machine_s"), 120.0);
        assert_eq!(get("prov.run0.ideal_machine_s"), 210.0);
        assert_eq!(get("prov.run0.under_provision_machine_s"), 90.0);
        assert_eq!(get("prov.run0.decisions"), 0.0);
        assert!((get("prov.run0.mape") - 100.0 / 9.0).abs() < 1e-6);
        assert_eq!(get("prov.total.under_provision_machine_s"), 90.0);
    }

    #[test]
    fn sim_runs_without_prov_events_are_dropped() {
        let mut events = vec![
            span(kinds::SPAN_BEGIN, 0.0, 1, span_names::DETAILED_SIM),
            at(Event::new(kinds::SECOND).with("p99", 0.1), 1.0),
            span(kinds::SPAN_END, 10.0, 1, span_names::DETAILED_SIM),
        ];
        seq(&mut events);
        assert!(analyze(&events).is_empty());
    }

    #[test]
    fn prov_events_without_sim_spans_form_an_implicit_run() {
        let mut events = vec![run_header(100.0, 30.0), interval(0, 50.0, 1, 30.0)];
        seq(&mut events);
        let runs = analyze(&events);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].label, "0:trace");
        assert_eq!(runs[0].intervals, 1);
    }
}
