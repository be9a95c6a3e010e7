//! Provisioning-observatory checkers: the `PRV-*` invariant family.
//!
//! The control loop narrates itself through `prov_*` events (see
//! docs/observability.md): one `prov_run` header per simulated run, a
//! `prov_interval` per monitor tick, a `prov_forecast` per scored
//! (model, horizon, target-interval) triple, a `prov_decision` per
//! controller decision and a `prov_reconfig` (plus `prov_chunk`s) per
//! completed migration. This module re-parses those events *raw* —
//! independently of the production analyzer in
//! [`pstore_telemetry::prov`] — and cross-checks the two:
//!
//! - `PRV-01` (ledger conservation): the capacity ledger's provisioned
//!   machine-seconds equal the integral of the per-interval machine
//!   counts, `provisioned - ideal == over - under` holds exactly, every
//!   interval is recorded once, an attributed reconfiguration's
//!   `from`/`to` machine counts reconcile with its decision's
//!   `machines`/`target`, and per-move chunk bytes/counts sum to the
//!   move's ledger row;
//! - `PRV-02` (decision causality): decision ids are unique and
//!   positive, every reconfiguration traces to exactly one decision, no
//!   decision drives two moves, no move starts before its decision, and
//!   a predictive decision with lead `L` starts its migration at least
//!   `L - 1` intervals before the demand rise it targets;
//! - `PRV-03` (forecast bookkeeping): every scored (model, horizon,
//!   target-interval) triple appears exactly once, and each score's
//!   `observed` matches the demand the monitor recorded for that
//!   interval.
//!
//! The `pstore-verify` binary replays fixed-seed reactive and
//! predictive runs through these checkers (the
//! `prov` sweep in `main.rs`).

use pstore_core::{InvariantId, Violation};
use pstore_telemetry::{kinds, prov, Event};
use std::collections::BTreeMap;

/// Relative tolerance for machine-second and load comparisons (the
/// quantities are sums of well-conditioned products, so anything beyond
/// accumulated rounding is a real bookkeeping error).
const REL_TOL: f64 = 1e-6;

/// Whether two floats agree to within [`REL_TOL`] (relative, with an
/// absolute floor of `REL_TOL` near zero).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// One `prov_decision` event, raw.
#[derive(Debug, Clone)]
pub struct RawDecision {
    /// Per-controller decision id (1-based; 0 = unattributed).
    pub id: u64,
    /// Monitoring interval the decision was taken in.
    pub interval: u64,
    /// Machines active when the decision was taken.
    pub machines: u64,
    /// Machines the decision moves to.
    pub target: u64,
    /// Lead in monitoring intervals (0 = reactive / emergency).
    pub lead: u64,
    /// Simulated decision time in seconds.
    pub t: f64,
}

/// One `prov_reconfig` event, raw.
#[derive(Debug, Clone)]
pub struct RawReconfig {
    /// Decision id the move is attributed to (0 = unattributed).
    pub id: u64,
    /// Machine count the move started from.
    pub from: u64,
    /// Machine count the move ended at.
    pub to: u64,
    /// Simulated start time in seconds.
    pub start: f64,
    /// Chunks the move transferred.
    pub chunks: u64,
    /// Bytes the move transferred.
    pub bytes: u64,
}

/// One `prov_forecast` event, raw.
#[derive(Debug, Clone)]
pub struct RawScore {
    /// Forecast model name.
    pub model: String,
    /// Horizon in intervals the prediction was made at.
    pub horizon: u64,
    /// Target interval the prediction was scored against.
    pub interval: u64,
    /// Measured load of the target interval, as the score recorded it.
    pub observed: f64,
}

/// One run's provisioning events, re-parsed independently of
/// [`pstore_telemetry::prov::analyze`]. Runs are segmented on
/// `prov_run` headers; prov events before the first header form an
/// implicit run with default units.
#[derive(Debug, Clone)]
pub struct RawRun {
    /// Display label (`run{i}`).
    pub label: String,
    /// Per-machine capacity `Q` from the run header (0 when absent).
    pub q: f64,
    /// Monitoring interval length in seconds (1 when absent).
    pub interval_s: f64,
    /// `(interval, machines, observed load)` per monitor tick.
    pub intervals: Vec<(u64, u64, f64)>,
    /// Controller decisions in emission order.
    pub decisions: Vec<RawDecision>,
    /// Completed reconfigurations in emission order.
    pub reconfigs: Vec<RawReconfig>,
    /// Forecast scores in emission order.
    pub scores: Vec<RawScore>,
    /// `(decision id, bytes)` per migrated chunk.
    pub chunks: Vec<(u64, u64)>,
}

impl RawRun {
    fn new(label: String) -> Self {
        RawRun {
            label,
            q: 0.0,
            interval_s: 1.0,
            intervals: Vec::new(),
            decisions: Vec::new(),
            reconfigs: Vec::new(),
            scores: Vec::new(),
            chunks: Vec::new(),
        }
    }

    /// Whether the run carries any provisioning evidence at all.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
            && self.decisions.is_empty()
            && self.reconfigs.is_empty()
            && self.scores.is_empty()
            && self.chunks.is_empty()
    }
}

/// Splits a trace into runs on `prov_run` headers and decodes the raw
/// provisioning events of each. Non-prov events are ignored, so this
/// segmentation is independent of the span-based one in
/// [`pstore_telemetry::prov::analyze`] — two differently-derived views
/// of the same trace for the checkers to reconcile.
pub fn raw_runs(events: &[Event]) -> Vec<RawRun> {
    let mut runs: Vec<RawRun> = Vec::new();
    let mut current: Option<RawRun> = None;
    for ev in events {
        if ev.kind == kinds::PROV_RUN {
            if let Some(run) = current.take() {
                runs.push(run);
            }
            let mut run = RawRun::new(format!("run{}", runs.len()));
            run.q = ev.field_f64("q").unwrap_or(0.0);
            run.interval_s = ev.field_f64("interval_s").unwrap_or(1.0);
            current = Some(run);
            continue;
        }
        let decodes = matches!(
            ev.kind.as_str(),
            kinds::PROV_INTERVAL
                | kinds::PROV_FORECAST
                | kinds::PROV_DECISION
                | kinds::PROV_RECONFIG
                | kinds::PROV_CHUNK
        );
        if !decodes {
            continue;
        }
        let run = current.get_or_insert_with(|| RawRun::new(format!("run{}", runs.len())));
        match ev.kind.as_str() {
            kinds::PROV_INTERVAL => run.intervals.push((
                ev.field_u64("interval").unwrap_or(0),
                ev.field_u64("machines").unwrap_or(0),
                ev.field_f64("observed").unwrap_or(0.0),
            )),
            kinds::PROV_FORECAST => run.scores.push(RawScore {
                model: ev.field_str("model").unwrap_or("?").to_string(),
                horizon: ev.field_u64("horizon").unwrap_or(0),
                interval: ev.field_u64("interval").unwrap_or(0),
                observed: ev.field_f64("observed").unwrap_or(0.0),
            }),
            kinds::PROV_DECISION => run.decisions.push(RawDecision {
                id: ev.field_u64("id").unwrap_or(0),
                interval: ev.field_u64("interval").unwrap_or(0),
                machines: ev.field_u64("machines").unwrap_or(0),
                target: ev.field_u64("target").unwrap_or(0),
                lead: ev.field_u64("lead").unwrap_or(0),
                t: ev.t.unwrap_or(0.0),
            }),
            kinds::PROV_RECONFIG => run.reconfigs.push(RawReconfig {
                id: ev.field_u64("id").unwrap_or(0),
                from: ev.field_u64("from").unwrap_or(0),
                to: ev.field_u64("to").unwrap_or(0),
                start: ev.field_f64("start").unwrap_or(0.0),
                chunks: ev.field_u64("chunks").unwrap_or(0),
                bytes: ev.field_u64("bytes").unwrap_or(0),
            }),
            kinds::PROV_CHUNK => run.chunks.push((
                ev.field_u64("id").unwrap_or(0),
                ev.field_u64("bytes").unwrap_or(0),
            )),
            _ => unreachable!("filtered above"),
        }
    }
    if let Some(run) = current.take() {
        runs.push(run);
    }
    runs.retain(|r| !r.is_empty());
    runs
}

/// Joins each attributed reconfiguration to its decision (`id > 0` and
/// the id exists). Attribution *failures* are PRV-02's business; the
/// joined pairs feed both PRV-01 (machine-count reconciliation) and
/// PRV-02 (ordering).
fn joined(run: &RawRun) -> Vec<(&RawReconfig, &RawDecision)> {
    run.reconfigs
        .iter()
        .filter_map(|r| {
            run.decisions
                .iter()
                .find(|d| d.id == r.id && r.id > 0)
                .map(|d| (r, d))
        })
        .collect()
}

/// `PRV-01`: the capacity ledger conserves machine-seconds.
///
/// Re-derives the provisioned/ideal integrals from the raw
/// `prov_interval` stream and requires the production ledger
/// ([`pstore_telemetry::prov::ledger_areas`]) to match them, requires
/// the ledger's own conservation identity
/// `provisioned - ideal == over - under`, requires every interval to be
/// recorded exactly once, reconciles each attributed move's `from`/`to`
/// with its decision's `machines`/`target`, and (when the trace carries
/// `prov_chunk` events) sums per-move chunk bytes and counts against
/// the move's ledger row.
pub fn check_prov_ledger(artifact: &str, events: &[Event]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for run in raw_runs(events) {
        let v = |detail: String| {
            Violation::new(
                InvariantId::ProvLedgerConservation,
                format!("{artifact}/{}", run.label),
                detail,
            )
        };

        // Every interval recorded exactly once — the integral below is
        // meaningless over a stuttering or duplicated tick stream.
        let mut seen: BTreeMap<u64, u64> = BTreeMap::new();
        for &(interval, _, _) in &run.intervals {
            *seen.entry(interval).or_insert(0) += 1;
        }
        for (interval, count) in seen.iter().filter(|&(_, &c)| c > 1) {
            violations.push(v(format!(
                "interval {interval} recorded {count} times in the prov_interval stream"
            )));
        }

        if !run.intervals.is_empty() && run.q > 0.0 {
            // Independent integrals of the raw per-interval stream.
            #[allow(clippy::cast_precision_loss)] // machine counts far below 2^53
            let (mut provisioned, mut ideal, mut over, mut under) = (0.0f64, 0.0f64, 0.0, 0.0);
            for &(_, machines, observed) in &run.intervals {
                let need = (observed / run.q).ceil().max(1.0);
                #[allow(clippy::cast_precision_loss)] // machine counts far below 2^53
                let have = machines as f64;
                provisioned += have * run.interval_s;
                ideal += need * run.interval_s;
                over += (have - need).max(0.0) * run.interval_s;
                under += (need - have).max(0.0) * run.interval_s;
            }
            let samples: Vec<(u64, f64)> = run
                .intervals
                .iter()
                .map(|&(_, machines, observed)| (machines, observed))
                .collect();
            let ledger = prov::ledger_areas(&samples, run.q, run.interval_s);
            for (name, got, want) in [
                ("provisioned", ledger.provisioned, provisioned),
                ("ideal", ledger.ideal, ideal),
                ("over", ledger.over, over),
                ("under", ledger.under, under),
            ] {
                if !close(got, want) {
                    violations.push(v(format!(
                        "ledger {name} machine-seconds = {got}, but the integral of the \
                         raw prov_interval stream is {want}"
                    )));
                }
            }
            if !close(
                ledger.provisioned - ledger.ideal,
                ledger.over - ledger.under,
            ) {
                violations.push(v(format!(
                    "conservation identity broken: provisioned - ideal = {} but \
                     over - under = {}",
                    ledger.provisioned - ledger.ideal,
                    ledger.over - ledger.under
                )));
            }
        }

        // An attributed move must execute exactly the machine delta its
        // decision recorded.
        for (r, d) in joined(&run) {
            if r.from != d.machines || r.to != d.target {
                violations.push(v(format!(
                    "reconfig (decision {}) moved {} -> {} machines, but the decision \
                     recorded {} -> {}",
                    r.id, r.from, r.to, d.machines, d.target
                )));
            }
        }

        // Chunk-level byte conservation, when the trace has chunk events
        // at all (the fast simulator's moves are not chunked).
        if !run.chunks.is_empty() {
            let mut per_move: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
            for &(id, bytes) in &run.chunks {
                let cell = per_move.entry(id).or_insert((0, 0));
                cell.0 += 1;
                cell.1 += bytes;
            }
            for r in &run.reconfigs {
                let (chunks, bytes) = per_move.get(&r.id).copied().unwrap_or((0, 0));
                if chunks != r.chunks || bytes != r.bytes {
                    violations.push(v(format!(
                        "reconfig (decision {}) claims {} chunks / {} bytes, but its \
                         prov_chunk events sum to {} chunks / {} bytes",
                        r.id, r.chunks, r.bytes, chunks, bytes
                    )));
                }
            }
        }
    }
    violations
}

/// `PRV-02`: every reconfiguration traces to exactly one decision.
///
/// Decision ids must be positive and unique, each move's id must name
/// an existing decision, no decision may drive two moves, no move may
/// start before its decision was taken, and a predictive decision with
/// lead `L >= 1` must start its migration at least `L - 1` intervals
/// before the target interval it provisioned for (one interval of slack
/// absorbs tick alignment).
pub fn check_prov_causality(artifact: &str, events: &[Event]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for run in raw_runs(events) {
        let v = |detail: String| {
            Violation::new(
                InvariantId::ProvDecisionCausality,
                format!("{artifact}/{}", run.label),
                detail,
            )
        };

        let mut ids: BTreeMap<u64, u64> = BTreeMap::new();
        for d in &run.decisions {
            if d.id == 0 {
                violations.push(v(format!(
                    "decision at interval {} has id 0 (ids are 1-based)",
                    d.interval
                )));
            }
            *ids.entry(d.id).or_insert(0) += 1;
        }
        for (id, count) in ids.iter().filter(|&(_, &c)| c > 1) {
            violations.push(v(format!("decision id {id} emitted {count} times")));
        }

        let mut moves_per_decision: BTreeMap<u64, u64> = BTreeMap::new();
        for r in &run.reconfigs {
            if r.id == 0 || !ids.contains_key(&r.id) {
                violations.push(v(format!(
                    "reconfig starting at t={} ({} -> {} machines) is not attributed \
                     to any decision (id {})",
                    r.start, r.from, r.to, r.id
                )));
                continue;
            }
            *moves_per_decision.entry(r.id).or_insert(0) += 1;
        }
        for (id, count) in moves_per_decision.iter().filter(|&(_, &c)| c > 1) {
            violations.push(v(format!("decision {id} drove {count} reconfigurations")));
        }

        for (r, d) in joined(&run) {
            if r.start < d.t - REL_TOL {
                violations.push(v(format!(
                    "reconfig (decision {}) started at t={} before its decision at t={}",
                    r.id, r.start, d.t
                )));
            }
            if d.lead >= 1 {
                // The decision provisioned for demand at
                // `interval + lead`; starting any later than one interval
                // after the decision tick forfeits the predicted lead.
                #[allow(clippy::cast_precision_loss)] // interval indices far below 2^53
                let latest = (d.interval + 1) as f64 * run.interval_s;
                if r.start > latest + REL_TOL {
                    violations.push(v(format!(
                        "predictive decision {} (lead {} intervals, taken at interval {}) \
                         started its migration at t={}, after the latest lead-preserving \
                         start t={latest}",
                        r.id, d.lead, d.interval, r.start
                    )));
                }
            }
        }
    }
    violations
}

/// `PRV-03`: forecast scoring is exactly-once and joins real
/// observations.
///
/// Every scored (model, horizon, target-interval) triple must appear
/// exactly once, and each score's `observed` must equal the demand the
/// monitor recorded for that interval in the `prov_interval` stream.
pub fn check_prov_forecast_bookkeeping(artifact: &str, events: &[Event]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for run in raw_runs(events) {
        let v = |detail: String| {
            Violation::new(
                InvariantId::ProvForecastBookkeeping,
                format!("{artifact}/{}", run.label),
                detail,
            )
        };

        let mut triples: BTreeMap<(String, u64, u64), u64> = BTreeMap::new();
        for s in &run.scores {
            *triples
                .entry((s.model.clone(), s.horizon, s.interval))
                .or_insert(0) += 1;
        }
        for ((model, horizon, interval), count) in triples.iter().filter(|&(_, &c)| c > 1) {
            violations.push(v(format!(
                "({model}, horizon {horizon}, interval {interval}) scored {count} times"
            )));
        }

        let observed: BTreeMap<u64, f64> = run
            .intervals
            .iter()
            .map(|&(interval, _, load)| (interval, load))
            .collect();
        for s in &run.scores {
            match observed.get(&s.interval) {
                None => violations.push(v(format!(
                    "score for ({}, horizon {}) targets interval {} which has no \
                     prov_interval observation",
                    s.model, s.horizon, s.interval
                ))),
                Some(&load) if !close(load, s.observed) => violations.push(v(format!(
                    "score for ({}, horizon {}, interval {}) recorded observed = {}, \
                     but the monitor measured {load}",
                    s.model, s.horizon, s.interval, s.observed
                ))),
                Some(_) => {}
            }
        }
    }
    violations
}

/// Runs the whole `PRV-01..03` family over one trace.
pub fn check_events(artifact: &str, events: &[Event]) -> Vec<Violation> {
    let mut violations = check_prov_ledger(artifact, events);
    violations.extend(check_prov_causality(artifact, events));
    violations.extend(check_prov_forecast_bookkeeping(artifact, events));
    violations
}

/// One fixed-seed detailed run with provisioning events on, under a
/// capturing sink: the reactive ramp shared with the iso sweep, or (for
/// `predictive`) a flat-then-step load under the P-Store controller with
/// an oracle forecaster, so the trace contains planned decisions with a
/// real lead. Shared with the prov sweep in `main.rs`.
#[cfg(feature = "telemetry")]
pub fn captured_prov_run(
    predictive: bool,
) -> (pstore_sim::detailed::DetailedSimResult, Vec<Event>) {
    use pstore_core::controller::forecaster::OracleForecaster;
    use pstore_core::controller::pstore::{PStoreConfig, PStoreController};
    use pstore_core::controller::reactive::{ReactiveConfig, ReactiveController};
    use pstore_core::controller::Strategy;
    use pstore_core::planner::{Planner, PlannerConfig};
    use pstore_sim::detailed::{per_interval_load, run_detailed, DetailedSimConfig};

    let load: Vec<f64> = if predictive {
        // Flat 250 txn/s, then a step to 800: the oracle sees the step a
        // full horizon ahead, so the planner issues lead >= 1 decisions.
        let mut l = vec![250.0; 120];
        l.extend(vec![800.0; 120]);
        l
    } else {
        // The iso sweep's ramp: 300 -> 700 over 60 s, then steady.
        let mut l: Vec<f64> = (0..60)
            .map(|s| 300.0 + 400.0 * f64::from(s) / 60.0)
            .collect();
        l.extend(vec![700.0; 120]);
        l
    };
    let mut cfg = DetailedSimConfig::paper_defaults(load, 0xBEEF);
    cfg.params.interval = std::time::Duration::from_secs(30);
    cfg.params.d = std::time::Duration::from_secs(300);
    cfg.workload.num_skus = 2_000;
    cfg.workload.initial_carts = 600;
    cfg.num_slots = 360;
    cfg.warmup_txns = 20_000;
    cfg.prov_events = true;

    let mut reactive;
    let mut pstore;
    let strategy: &mut dyn Strategy = if predictive {
        let per_interval = per_interval_load(&cfg.load, cfg.monitor_interval_s);
        pstore = PStoreController::new(
            Planner::new(PlannerConfig {
                q: 285.0,
                d_intervals: 300.0 / 30.0,
                partitions_per_node: 6,
                max_machines: 10,
            }),
            OracleForecaster::new(per_interval),
            PStoreConfig {
                horizon: 10,
                prediction_inflation: 1.0,
                scale_in_confirmations: 3,
                emergency_rate_multiplier: 1.0,
                initial_machines: 1,
            },
        );
        &mut pstore
    } else {
        reactive = ReactiveController::new(ReactiveConfig {
            q: 285.0,
            q_hat: 350.0,
            trigger_fraction: 0.9,
            headroom: 0.2,
            smoothing_window: 2,
            scale_in_patience: 10,
            max_machines: 10,
            initial_machines: 2,
        });
        &mut reactive
    };
    let (sink, handle) = pstore_telemetry::MemorySink::new();
    let guard = pstore_telemetry::install(std::rc::Rc::new(sink));
    let result = run_detailed(&cfg, strategy);
    drop(guard);
    (result, handle.events())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.invariant.code()).collect()
    }

    fn ev(kind: &str) -> Event {
        Event::new(kind)
    }

    fn header(q: f64, interval_s: f64) -> Event {
        ev(kinds::PROV_RUN)
            .with("q", q)
            .with("d_s", 300.0)
            .with("interval_s", interval_s)
            .with("policy", "test")
    }

    fn interval(k: u64, machines: u64, observed: f64) -> Event {
        ev(kinds::PROV_INTERVAL)
            .with("interval", k)
            .with("machines", machines)
            .with("observed", observed)
    }

    fn decision(id: u64, interval: u64, machines: u64, target: u64, lead: u64, t: f64) -> Event {
        let mut e = ev(kinds::PROV_DECISION)
            .with("id", id)
            .with("interval", interval)
            .with("machines", machines)
            .with("target", target)
            .with("reason", if lead > 0 { "planned" } else { "reactive" })
            .with("lead", lead);
        e.t = Some(t);
        e
    }

    fn reconfig(id: u64, from: u64, to: u64, start: f64, chunks: u64, bytes: u64) -> Event {
        ev(kinds::PROV_RECONFIG)
            .with("id", id)
            .with("from", from)
            .with("to", to)
            .with("start", start)
            .with("duration_s", 25.0)
            .with("chunks", chunks)
            .with("rows", chunks * 10)
            .with("bytes", bytes)
    }

    fn score(model: &str, horizon: u64, interval: u64, observed: f64) -> Event {
        ev(kinds::PROV_FORECAST)
            .with("model", model)
            .with("horizon", horizon)
            .with("interval", interval)
            .with("predicted", observed * 1.1)
            .with("observed", observed)
    }

    fn chunk(id: u64, bytes: u64) -> Event {
        ev(kinds::PROV_CHUNK)
            .with("id", id)
            .with("from", 1u64)
            .with("to", 2u64)
            .with("bytes", bytes)
    }

    /// A coherent little trace: 3 intervals, one lead-1 decision whose
    /// move starts at the decision tick and whose chunks sum correctly,
    /// one scored forecast joining interval 1's observation.
    fn clean_trace() -> Vec<Event> {
        vec![
            header(100.0, 30.0),
            interval(0, 1, 90.0),
            decision(1, 0, 1, 2, 1, 0.0),
            chunk(1, 700),
            chunk(1, 300),
            reconfig(1, 1, 2, 0.0, 2, 1000),
            interval(1, 2, 150.0),
            score("m", 1, 1, 150.0),
            interval(2, 2, 160.0),
        ]
    }

    #[test]
    fn clean_trace_passes_every_checker() {
        let events = clean_trace();
        assert_eq!(check_events("t", &events), vec![]);
    }

    #[test]
    fn traces_without_prov_events_are_vacuously_clean() {
        let events = vec![ev(kinds::SECOND).with("p99", 0.01)];
        assert!(raw_runs(&events).is_empty());
        assert_eq!(check_events("t", &events), vec![]);
    }

    #[test]
    fn duplicated_interval_fails_prv01() {
        let mut events = clean_trace();
        events.push(interval(2, 2, 160.0));
        assert!(codes(&check_prov_ledger("t", &events)).contains(&"PRV-01"));
    }

    #[test]
    fn reconfig_machine_mismatch_fails_prv01() {
        let mut events = clean_trace();
        // The move claims it went to 3 machines; the decision said 2.
        events.retain(|e| e.kind != kinds::PROV_RECONFIG);
        events.push(reconfig(1, 1, 3, 0.0, 2, 1000));
        let violations = check_prov_ledger("t", &events);
        assert_eq!(codes(&violations), vec!["PRV-01"]);
        assert!(violations[0].detail.contains("decision recorded 1 -> 2"));
    }

    #[test]
    fn chunk_byte_shortfall_fails_prv01() {
        let mut events = clean_trace();
        events.retain(|e| e.kind != kinds::PROV_CHUNK);
        events.push(chunk(1, 700)); // 300 bytes vanish
        let violations = check_prov_ledger("t", &events);
        assert_eq!(codes(&violations), vec!["PRV-01"]);
        assert!(violations[0].detail.contains("1 chunks / 700 bytes"));
    }

    #[test]
    fn unattributed_reconfig_fails_prv02() {
        let mut events = clean_trace();
        events.push(reconfig(9, 2, 3, 60.0, 1, 10));
        let violations = check_prov_causality("t", &events);
        assert_eq!(codes(&violations), vec!["PRV-02"]);
        assert!(violations[0].detail.contains("not attributed"));
    }

    #[test]
    fn duplicate_decision_ids_and_double_driven_moves_fail_prv02() {
        let mut events = clean_trace();
        events.push(decision(1, 2, 2, 3, 0, 60.0));
        events.push(reconfig(1, 2, 3, 60.0, 1, 10));
        let violations = check_prov_causality("t", &events);
        let found = codes(&violations);
        assert!(found.iter().all(|&c| c == "PRV-02"));
        assert!(violations
            .iter()
            .any(|v| v.detail.contains("emitted 2 times")));
        assert!(violations
            .iter()
            .any(|v| v.detail.contains("drove 2 reconfigurations")));
    }

    #[test]
    fn move_before_its_decision_fails_prv02() {
        let mut events = clean_trace();
        events.retain(|e| e.kind != kinds::PROV_RECONFIG);
        events.push(reconfig(1, 1, 2, -5.0, 2, 1000));
        let violations = check_prov_causality("t", &events);
        assert_eq!(codes(&violations), vec!["PRV-02"]);
        assert!(violations[0].detail.contains("before its decision"));
    }

    #[test]
    fn late_start_forfeiting_the_lead_fails_prv02() {
        let mut events = clean_trace();
        events.retain(|e| e.kind != kinds::PROV_RECONFIG);
        // Lead-1 decision at interval 0 (30 s intervals): any start after
        // t = 30 gives up the lead entirely.
        events.push(reconfig(1, 1, 2, 45.0, 2, 1000));
        let violations = check_prov_causality("t", &events);
        assert_eq!(codes(&violations), vec!["PRV-02"]);
        assert!(violations[0].detail.contains("lead-preserving"));
    }

    #[test]
    fn double_scored_triple_fails_prv03() {
        let mut events = clean_trace();
        events.push(score("m", 1, 1, 150.0));
        let violations = check_prov_forecast_bookkeeping("t", &events);
        assert_eq!(codes(&violations), vec!["PRV-03"]);
        assert!(violations[0].detail.contains("scored 2 times"));
    }

    #[test]
    fn score_without_observation_or_with_wrong_observation_fails_prv03() {
        let mut events = clean_trace();
        events.push(score("m", 2, 7, 100.0)); // interval 7 never observed
        events.push(score("n", 1, 2, 400.0)); // monitor measured 160
        let violations = check_prov_forecast_bookkeeping("t", &events);
        assert_eq!(codes(&violations), vec!["PRV-03", "PRV-03"]);
        assert!(violations
            .iter()
            .any(|v| v.detail.contains("has no") && v.detail.contains("observation")));
        assert!(violations
            .iter()
            .any(|v| v.detail.contains("the monitor measured 160")));
    }

    #[test]
    fn runs_segment_on_prov_run_headers() {
        let mut events = clean_trace();
        events.extend(clean_trace());
        let runs = raw_runs(&events);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].label, "run0");
        assert_eq!(runs[1].label, "run1");
        assert_eq!(check_events("t", &events), vec![]);
    }
}
