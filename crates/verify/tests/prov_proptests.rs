//! Property tests for the PRV-01..03 provisioning checkers, plus
//! forecast-error edge cases for the accuracy/ledger arithmetic.
//!
//! Two properties pin the checkers' discriminating power from both
//! sides:
//!
//! 1. **Soundness on faithful narrations**: any trace generated by a
//!    consistent control-loop story — every move attributed to its own
//!    decision with matching machine counts, chunk bytes summing to the
//!    move's ledger row, every score joining the observation the
//!    monitor recorded — passes every checker, and the capacity
//!    ledger's conservation identity holds on the raw stream. No false
//!    alarms.
//! 2. **Detection of injected bookkeeping bugs**: corrupting one link
//!    of a faithful trace (double-counted interval, mismatched move,
//!    vanished chunk, orphaned move, double-scored forecast, fabricated
//!    observation) always trips the expected `PRV-*` invariant.

use proptest::prelude::*;
use pstore_telemetry::{kinds, prov::ledger_areas, Event};
use pstore_verify::prov::{
    check_events, check_prov_causality, check_prov_forecast_bookkeeping, check_prov_ledger,
    raw_runs,
};
use pstore_verify::Violation;

/// One interval of the story: machines active, load observed.
#[derive(Debug, Clone)]
struct IntervalSpec {
    machines: u64,
    observed: f64,
}

/// One decision of the story: taken at `interval`, moving to `target`
/// with `lead` intervals of foresight, its move split into
/// `chunk_bytes`.
#[derive(Debug, Clone)]
struct DecisionSpec {
    interval: usize,
    target: u64,
    lead: u64,
    chunk_bytes: Vec<u64>,
}

#[derive(Debug, Clone)]
struct StorySpec {
    q: f64,
    interval_s: f64,
    intervals: Vec<IntervalSpec>,
    decisions: Vec<DecisionSpec>,
    /// Scored forecasts: `(horizon, target interval index)`.
    scores: Vec<(u64, usize)>,
}

/// Raw generator output, folded into a consistent [`StorySpec`]: the
/// vendored proptest has no `prop_flat_map`, so decision/score indices
/// are generated over a wide range and reduced modulo the interval
/// count here, then deduplicated (one decision per interval, one score
/// per (horizon, interval) triple).
fn fold_story(
    q: f64,
    interval_s: f64,
    raw_intervals: Vec<(u64, f64)>,
    raw_decisions: Vec<(usize, u64, u64, Vec<u64>)>,
    raw_scores: Vec<(u64, usize)>,
) -> StorySpec {
    let n = raw_intervals.len();
    let intervals = raw_intervals
        .into_iter()
        .map(|(machines, observed)| IntervalSpec { machines, observed })
        .collect();
    let mut seen_intervals = std::collections::BTreeSet::new();
    let decisions = raw_decisions
        .into_iter()
        .map(|(k, target, lead, chunk_bytes)| DecisionSpec {
            interval: k % n,
            target,
            lead: lead % 4,
            chunk_bytes,
        })
        .filter(|d| seen_intervals.insert(d.interval))
        .collect();
    let horizons = [1u64, 2, 4, 8];
    let mut seen_scores = std::collections::BTreeSet::new();
    let scores = raw_scores
        .into_iter()
        .map(|(h, k)| (horizons[(h % 4) as usize], k % n))
        .filter(|s| seen_scores.insert(*s))
        .collect();
    StorySpec {
        q,
        interval_s,
        intervals,
        decisions,
        scores,
    }
}

fn stories() -> impl Strategy<Value = StorySpec> {
    (
        50.0f64..500.0,
        prop_oneof![Just(1.0f64), Just(30.0), Just(60.0)],
        prop::collection::vec((1u64..=10, 0.0f64..3000.0), 2..30),
        prop::collection::vec(
            (
                any::<usize>(),
                1u64..=10,
                any::<u64>(),
                prop::collection::vec(1u64..100_000, 1..5),
            ),
            0..4,
        ),
        prop::collection::vec((any::<u64>(), any::<usize>()), 0..12),
    )
        .prop_map(|(q, interval_s, intervals, decisions, scores)| {
            fold_story(q, interval_s, intervals, decisions, scores)
        })
}

/// Renders a consistent `prov_*` trace from the story: sequential
/// decision ids, moves starting at the decision tick with matching
/// machine counts, chunks summing exactly, scores joining the monitor's
/// observations.
fn faithful_trace(story: &StorySpec) -> Vec<Event> {
    #[allow(clippy::cast_precision_loss)] // interval indices far below 2^53
    let t_of = |k: usize| k as f64 * story.interval_s;
    let mut events = vec![Event::new(kinds::PROV_RUN)
        .with("q", story.q)
        .with("d_s", 300.0)
        .with("interval_s", story.interval_s)
        .with("policy", "story")];
    let mut next_id = 0u64;
    for (k, iv) in story.intervals.iter().enumerate() {
        events.push(
            Event::new(kinds::PROV_INTERVAL)
                .with("interval", k)
                .with("observed", iv.observed)
                .with("machines", iv.machines),
        );
        for &(horizon, target) in story.scores.iter().filter(|&&(_, target)| target == k) {
            events.push(
                Event::new(kinds::PROV_FORECAST)
                    .with("model", "story")
                    .with("horizon", horizon)
                    .with("interval", target)
                    .with("predicted", iv.observed * 1.2)
                    .with("observed", iv.observed),
            );
        }
        for d in story.decisions.iter().filter(|d| d.interval == k) {
            next_id += 1;
            let mut ev = Event::new(kinds::PROV_DECISION)
                .with("id", next_id)
                .with("interval", k)
                .with("machines", iv.machines)
                .with("target", d.target)
                .with("reason", if d.lead > 0 { "planned" } else { "reactive" })
                .with("lead", d.lead);
            ev.t = Some(t_of(k));
            events.push(ev);
            let mut total = 0u64;
            for &bytes in &d.chunk_bytes {
                total += bytes;
                events.push(
                    Event::new(kinds::PROV_CHUNK)
                        .with("id", next_id)
                        .with("from", iv.machines)
                        .with("to", d.target)
                        .with("bytes", bytes),
                );
            }
            events.push(
                Event::new(kinds::PROV_RECONFIG)
                    .with("id", next_id)
                    .with("from", iv.machines)
                    .with("to", d.target)
                    .with("start", t_of(k))
                    .with("duration_s", story.interval_s / 2.0)
                    .with("chunks", d.chunk_bytes.len())
                    .with("rows", total / 16)
                    .with("bytes", total),
            );
        }
    }
    events
}

/// Index of a `pick`-selected event of the given kind (caller
/// guarantees at least one exists).
fn pick_kind(events: &[Event], kind: &str, pick: usize) -> usize {
    let all: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind == kind)
        .map(|(i, _)| i)
        .collect();
    all[pick % all.len()]
}

fn set_u64_field(ev: &mut Event, key: &str, value: u64) {
    for (k, v) in &mut ev.fields {
        if k == key {
            *v = pstore_telemetry::Value::from(value);
        }
    }
}

fn bump_u64_field(ev: &mut Event, key: &str) {
    let current = ev.field_u64(key).unwrap_or(0);
    set_u64_field(ev, key, current + 1);
}

proptest! {
    /// Soundness: faithful narrations never alarm, and the production
    /// ledger conserves machine-seconds on the raw stream (PRV-01's
    /// core identity, checked here directly against `ledger_areas`).
    #[test]
    fn faithful_stories_pass_every_checker(story in stories()) {
        let events = faithful_trace(&story);
        prop_assert_eq!(check_events("story", &events), vec![]);

        let samples: Vec<(u64, f64)> = story
            .intervals
            .iter()
            .map(|iv| (iv.machines, iv.observed))
            .collect();
        let ledger = ledger_areas(&samples, story.q, story.interval_s);
        let lhs = ledger.provisioned - ledger.ideal;
        let rhs = ledger.over - ledger.under;
        prop_assert!(
            (lhs - rhs).abs() <= 1e-6 * lhs.abs().max(rhs.abs()).max(1.0),
            "conservation identity broken: {} vs {}", lhs, rhs
        );
        prop_assert!(ledger.provisioned >= 0.0 && ledger.ideal > 0.0);

        // The raw parse round-trips the story.
        let runs = raw_runs(&events);
        prop_assert_eq!(runs.len(), 1);
        prop_assert_eq!(runs[0].intervals.len(), story.intervals.len());
        prop_assert_eq!(runs[0].decisions.len(), story.decisions.len());
        prop_assert_eq!(runs[0].scores.len(), story.scores.len());
    }

    /// Detection: corrupting one bookkeeping link always trips the
    /// matching invariant.
    #[test]
    fn corrupted_stories_trip_the_matching_invariant(
        story in stories(),
        corruption in 0usize..6,
        pick in any::<usize>(),
    ) {
        let mut events = faithful_trace(&story);
        let has_decisions = !story.decisions.is_empty();
        let has_scores = !story.scores.is_empty();
        type Checker = fn(&str, &[Event]) -> Vec<Violation>;
        let (expect, checker): (&str, Checker) = match corruption {
            // Double-count an interval in the ledger stream.
            0 => {
                let i = pick_kind(&events, kinds::PROV_INTERVAL, pick);
                let dup = events[i].clone();
                events.push(dup);
                ("PRV-01", check_prov_ledger)
            }
            // A move that executes a different delta than its decision.
            1 if has_decisions => {
                let i = pick_kind(&events, kinds::PROV_RECONFIG, pick);
                bump_u64_field(&mut events[i], "to");
                ("PRV-01", check_prov_ledger)
            }
            // Bytes appear in the move's ledger row that no chunk moved.
            2 if has_decisions => {
                let i = pick_kind(&events, kinds::PROV_RECONFIG, pick);
                bump_u64_field(&mut events[i], "bytes");
                ("PRV-01", check_prov_ledger)
            }
            // A move attributed to a decision that never happened.
            3 if has_decisions => {
                let i = pick_kind(&events, kinds::PROV_RECONFIG, pick);
                set_u64_field(&mut events[i], "id", 999_999);
                ("PRV-02", check_prov_causality)
            }
            // A forecast scored twice for the same triple.
            4 if has_scores => {
                let i = pick_kind(&events, kinds::PROV_FORECAST, pick);
                let dup = events[i].clone();
                events.push(dup);
                ("PRV-03", check_prov_forecast_bookkeeping)
            }
            // A score whose observation the monitor never made.
            5 if has_scores => {
                let i = pick_kind(&events, kinds::PROV_FORECAST, pick);
                set_u64_field(&mut events[i], "interval", 999_999);
                ("PRV-03", check_prov_forecast_bookkeeping)
            }
            // Story too small for this corruption; nothing to assert.
            _ => return,
        };
        let violations = checker("story", &events);
        prop_assert!(
            violations.iter().any(|v| v.invariant.code() == expect),
            "expected a {} violation, got {:?}", expect, violations
        );
    }
}

mod forecast_error_edges {
    //! Edge cases of the forecast-error arithmetic the accuracy tracker
    //! and the under-forecast detector rest on.

    use pstore_telemetry::prov::{horizon_accuracy, ledger_areas, ForecastScore};

    fn score(horizon: u64, predicted: f64, observed: f64) -> ForecastScore {
        ForecastScore {
            model: "m".to_string(),
            horizon,
            interval: 1,
            predicted,
            observed,
        }
    }

    #[test]
    fn empty_scores_produce_no_accuracy_rows() {
        assert!(horizon_accuracy(&[]).is_empty());
    }

    #[test]
    fn systematic_under_forecast_shows_negative_bias() {
        let scores: Vec<ForecastScore> = (0..8).map(|_| score(1, 80.0, 100.0)).collect();
        let acc = horizon_accuracy(&scores);
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[0].samples, 8);
        // Bias is predicted - observed: under-forecasting is negative.
        assert!(acc[0].bias < 0.0, "bias = {}", acc[0].bias);
        let mape = acc[0].mape.expect("observed > 0 everywhere");
        assert!((mape - 20.0).abs() < 1e-9, "mape = {mape}");
    }

    #[test]
    fn all_zero_observations_leave_mape_undefined_but_keep_bias() {
        let acc = horizon_accuracy(&[score(2, 5.0, 0.0), score(2, 7.0, 0.0)]);
        assert_eq!(acc.len(), 1);
        assert!(acc[0].mape.is_none(), "MAPE over zero demand is undefined");
        assert!(acc[0].bias > 0.0);
    }

    #[test]
    fn mixed_zero_and_nonzero_observations_score_mape_on_the_nonzero_part() {
        let acc = horizon_accuracy(&[score(1, 50.0, 0.0), score(1, 110.0, 100.0)]);
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[0].samples, 2);
        let mape = acc[0].mape.expect("one scorable sample");
        assert!((mape - 10.0).abs() < 1e-9, "mape = {mape}");
    }

    #[test]
    fn ledger_over_empty_stream_is_all_zero() {
        let l = ledger_areas(&[], 285.0, 30.0);
        assert_eq!(
            (l.provisioned, l.ideal, l.over, l.under),
            (0.0, 0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn ledger_with_zero_q_never_divides_by_zero() {
        // A run header can be missing (implicit trace runs): q = 0 must
        // not poison the integrals — the ideal falls back to the
        // one-machine floor instead of dividing by zero.
        let l = ledger_areas(&[(2, 100.0)], 0.0, 30.0);
        assert!(l.provisioned.is_finite());
        assert!((l.ideal - 30.0).abs() < 1e-12, "ideal = {}", l.ideal);
    }
}
