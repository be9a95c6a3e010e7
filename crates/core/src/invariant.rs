//! Structured invariant diagnostics shared by the library and the
//! `pstore-verify` static checker.
//!
//! Every paper-specified invariant the system relies on has a stable
//! identifier here, anchored to the section of the SIGMOD 2018 paper that
//! states it (see `docs/invariants.md` for the full catalogue). Checkers —
//! both the in-library `check_*` methods and the `pstore-verify` sweep —
//! report failures as [`Violation`] values instead of ad-hoc strings, so
//! the library and the verifier can never drift apart on what "valid"
//! means.

use std::fmt;

/// Codes of retired invariants. A retired code stays reserved: no
/// [`InvariantId`] may take it again, and `docs/invariants.md` keeps
/// documenting it as retired. CON-04/05 checked the threaded engine's
/// mailbox handoff and reconfiguration fence, which were deleted with
/// that engine.
pub const RETIRED_CODES: [&str; 2] = ["CON-04", "CON-05"];

/// Identifier of one paper-specified invariant.
///
/// The `SCH-*` family covers migration schedules (§4.4.1, Table 1), the
/// `MOV-*` family move sequences (Algorithm 2), the `PLN-*` family planner
/// output (Algorithms 1–3, Fig 4), and the `FOR-*` family forecaster
/// output (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum InvariantId {
    /// SCH-01: a `B -> A` schedule has exactly `max(s, Δ)` rounds, the
    /// theoretical minimum (§4.4.1).
    ScheduleRoundCount,
    /// SCH-02: every round is a matching — no machine appears in two
    /// transfers of the same round (§4.4.1).
    ScheduleRoundMatching,
    /// SCH-03: every (sender, receiver) pair transfers exactly once, so
    /// exactly `1/(A*B)` of the database moves per pair and data stays
    /// evenly spread (§4.4.1, data conservation).
    SchedulePairCoverage,
    /// SCH-04: transfers only involve machines that are allocated during
    /// that round (just-in-time allocation, Table 1).
    SchedulePresence,
    /// SCH-05: on scale-out only pre-existing machines send and only new
    /// machines receive; scale-in mirrors this (§4.4.1).
    ScheduleRoleDirection,
    /// SCH-06: the `B == A` no-op schedule has no rounds.
    ScheduleNoopEmpty,
    /// SCH-07: the scale-in schedule is the exact time-reverse of the
    /// corresponding scale-out schedule (§4.4.2).
    ScheduleReversal,
    /// SCH-08: the schedule-derived average machine allocation equals
    /// Algorithm 4's closed form.
    ScheduleAvgMachines,
    /// SCH-09: per-round parallelism never exceeds Equation 2's bound and
    /// is reached by at least one round.
    SchedulePeakParallelism,
    /// MOV-01: a move sequence tiles the planning horizon contiguously —
    /// each move starts where the previous one ended (Algorithm 2).
    MoveTiling,
    /// MOV-02: every move has positive duration (`end > start`).
    MoveDuration,
    /// MOV-03: "do nothing" moves last exactly one interval (Algorithm 2,
    /// line 9).
    MoveNoopUnit,
    /// MOV-04: machine counts chain across consecutive moves
    /// (`moves[i].to == moves[i+1].from`).
    MoveChaining,
    /// PLN-01: predicted load never exceeds capacity, including the
    /// *effective* capacity of Equation 7 while a move is in flight
    /// (Fig 4).
    PlanCapacity,
    /// PLN-02: a plan starts at the requested machine count at `t = 0`
    /// and spans exactly the prediction horizon (Algorithm 1).
    PlanStart,
    /// PLN-03: on small horizons the DP's cost equals a brute-force
    /// enumeration oracle over all feasible move sequences (Algorithm 2's
    /// optimal substructure).
    PlanOptimality,
    /// FOR-01: predictions are finite, non-NaN and non-negative (loads are
    /// rates; a negative or non-finite prediction would corrupt every
    /// downstream planner decision).
    ForecastFinite,
    /// FOR-02: SPAR reproduces a strictly periodic signal — predictions
    /// over future periods stay close to the periodic continuation (§5.1).
    ForecastPeriodicity,
    /// TEL-01: every `span_begin` in a telemetry trace has exactly one
    /// matching `span_end` (reconfigurations in particular always
    /// terminate).
    TelemetryReconfigPairing,
    /// TEL-02: span events nest LIFO — an end always closes the innermost
    /// open span, ids are unique among open spans, and no span dangles at
    /// end of trace.
    TelemetrySpanNesting,
    /// TEL-03: merging latency histograms is associative and
    /// order-insensitive on bucket contents, so per-phase histograms can
    /// be combined in any order without changing percentile readouts.
    TelemetryHistogramMerge,
    /// TEL-04: trace events are totally ordered — `seq` strictly
    /// increases and sim-time `t` never regresses while any span is open
    /// (a reset to an earlier `t` is only legal at the boundary between
    /// independent runs, where the span stack is empty).
    TelemetryOrdering,
    /// TEL-05: the span-tree profiler conserves time — a parent's total
    /// time is at least the sum of its children's totals (self time is
    /// never negative), and the flamegraph-folded output re-sums to the
    /// tree it was rendered from.
    TelemetryProfileConservation,
    /// TEL-06: per-transaction lifecycle events are well-formed — every
    /// `txn_arrive` is terminally resolved by exactly one `txn_commit` or
    /// `txn_abort` before end of trace, lifecycle events never reference
    /// a transaction id that is not currently open, and the terminal
    /// event's latency attribution sums (`queue + exec + stall == total`
    /// within tolerance).
    TelemetryTxnLifecycle,
    /// CON-01: the sweep pool's work queue executes every cell exactly
    /// once and reassembles results in cell order, at any thread count
    /// and under any interleaving (loom model: claim counter + take-once
    /// slots; runtime check: fault-injected sweeps lose no cell).
    ConcurrencyQueueIntegrity,
    /// CON-02: every cell's result (and captured telemetry) is fully
    /// visible to the merging thread before the ordered merge starts —
    /// the join barrier publishes all worker writes.
    ConcurrencyMergeBarrier,
    /// CON-03: a cell never observes telemetry-registry state from
    /// another cell, including the previous cell run back-to-back on the
    /// same reused worker thread.
    ConcurrencyRegistryIsolation,
    // CON-04/05 are retired (see `RETIRED_CODES`).
    /// TXN-01: a transaction's recorded read/write set is consistent with
    /// its declared partition access — destination-side accesses (and
    /// Squall-style restarts) only occur while the slot's partition is
    /// migrating, and the rwset record carries the slot the transaction
    /// arrived on (§4.2).
    TxnReadWriteSets,
    /// ISO-01: the direct serialization graph over sampled key-level
    /// version histories (WR edges from versions read, WW edges from
    /// version order, RW anti-dependencies from the version a read
    /// missed) is acyclic — the history is conflict-serializable
    /// (IsoPredict-style checking; §4.2, migrations are transparent to
    /// transaction semantics).
    IsoDsgAcyclic,
    /// ISO-02: every read observes a version installed by a transaction
    /// at or before the reader in the commit order — no read from the
    /// future, and the serialization order is equivalent to the commit
    /// order.
    IsoReadCommitOrder,
    /// ISO-03: Squall-style restarts leave no orphan versions — each
    /// (key, version) has exactly one installer, per-key versions are
    /// installed in strictly increasing order, and a restarted
    /// transaction's reads are consistent with its own writes
    /// (read-your-restart; §4.2).
    IsoRestartIntegrity,
    /// PRV-01: the provisioning capacity ledger conserves machine-time —
    /// machine-seconds provisioned equal the integral of per-interval
    /// active machines, `provisioned - ideal == over - under` holds over
    /// the `prov_interval` record (the Fig 9 area accounting), and every
    /// attributed reconfiguration's machine delta matches its decision's
    /// `machines -> target`.
    ProvLedgerConservation,
    /// PRV-02: decision causality — every `prov_reconfig` traces back to
    /// exactly one `prov_decision` (ids unique, no decision drives two
    /// moves, no move precedes its decision), and a predictive decision
    /// with lead `L` starts its migration at least `L - 1` intervals
    /// before the target interval it provisioned for.
    ProvDecisionCausality,
    /// PRV-03: forecast bookkeeping — every scored (model, horizon,
    /// target-interval) triple appears exactly once in the
    /// `prov_forecast` record, and each score's observation matches the
    /// demand the `prov_interval` record holds for that interval.
    ProvForecastBookkeeping,
}

impl InvariantId {
    /// The stable short code used in reports and `docs/invariants.md`.
    pub fn code(self) -> &'static str {
        match self {
            InvariantId::ScheduleRoundCount => "SCH-01",
            InvariantId::ScheduleRoundMatching => "SCH-02",
            InvariantId::SchedulePairCoverage => "SCH-03",
            InvariantId::SchedulePresence => "SCH-04",
            InvariantId::ScheduleRoleDirection => "SCH-05",
            InvariantId::ScheduleNoopEmpty => "SCH-06",
            InvariantId::ScheduleReversal => "SCH-07",
            InvariantId::ScheduleAvgMachines => "SCH-08",
            InvariantId::SchedulePeakParallelism => "SCH-09",
            InvariantId::MoveTiling => "MOV-01",
            InvariantId::MoveDuration => "MOV-02",
            InvariantId::MoveNoopUnit => "MOV-03",
            InvariantId::MoveChaining => "MOV-04",
            InvariantId::PlanCapacity => "PLN-01",
            InvariantId::PlanStart => "PLN-02",
            InvariantId::PlanOptimality => "PLN-03",
            InvariantId::ForecastFinite => "FOR-01",
            InvariantId::ForecastPeriodicity => "FOR-02",
            InvariantId::TelemetryReconfigPairing => "TEL-01",
            InvariantId::TelemetrySpanNesting => "TEL-02",
            InvariantId::TelemetryHistogramMerge => "TEL-03",
            InvariantId::TelemetryOrdering => "TEL-04",
            InvariantId::TelemetryProfileConservation => "TEL-05",
            InvariantId::TelemetryTxnLifecycle => "TEL-06",
            InvariantId::ConcurrencyQueueIntegrity => "CON-01",
            InvariantId::ConcurrencyMergeBarrier => "CON-02",
            InvariantId::ConcurrencyRegistryIsolation => "CON-03",
            InvariantId::TxnReadWriteSets => "TXN-01",
            InvariantId::IsoDsgAcyclic => "ISO-01",
            InvariantId::IsoReadCommitOrder => "ISO-02",
            InvariantId::IsoRestartIntegrity => "ISO-03",
            InvariantId::ProvLedgerConservation => "PRV-01",
            InvariantId::ProvDecisionCausality => "PRV-02",
            InvariantId::ProvForecastBookkeeping => "PRV-03",
        }
    }

    /// The paper section (or figure/table/algorithm) stating the
    /// invariant.
    pub fn paper_ref(self) -> &'static str {
        match self {
            InvariantId::ScheduleRoundCount => "§4.4.1, Table 1",
            InvariantId::ScheduleRoundMatching => "§4.4.1",
            InvariantId::SchedulePairCoverage => "§4.4.1 (1/(A·B) conservation)",
            InvariantId::SchedulePresence => "§4.4.1, Table 1 (JIT allocation)",
            InvariantId::ScheduleRoleDirection => "§4.4.1",
            InvariantId::ScheduleNoopEmpty => "§4.3",
            InvariantId::ScheduleReversal => "§4.4.2",
            InvariantId::ScheduleAvgMachines => "Algorithm 4",
            InvariantId::SchedulePeakParallelism => "Equation 2",
            InvariantId::MoveTiling => "Algorithm 2",
            InvariantId::MoveDuration => "Algorithm 2",
            InvariantId::MoveNoopUnit => "Algorithm 2, line 9",
            InvariantId::MoveChaining => "Algorithm 1",
            InvariantId::PlanCapacity => "Equation 7, Fig 4",
            InvariantId::PlanStart => "Algorithm 1",
            InvariantId::PlanOptimality => "Algorithms 1–3",
            InvariantId::ForecastFinite => "§5",
            InvariantId::ForecastPeriodicity => "§5.1",
            InvariantId::TelemetryReconfigPairing => "§4.4 (moves terminate)",
            InvariantId::TelemetrySpanNesting => "docs/observability.md",
            InvariantId::TelemetryHistogramMerge => "docs/observability.md",
            InvariantId::TelemetryOrdering => "docs/observability.md",
            InvariantId::TelemetryProfileConservation => "docs/observability.md",
            InvariantId::TelemetryTxnLifecycle => "docs/observability.md",
            InvariantId::ConcurrencyQueueIntegrity => "§8 (experiment grids)",
            InvariantId::ConcurrencyMergeBarrier => "§8 (determinism contract)",
            InvariantId::ConcurrencyRegistryIsolation => "docs/observability.md",
            InvariantId::TxnReadWriteSets => "§4.2 (Squall reconfiguration)",
            InvariantId::IsoDsgAcyclic => "§4.2 (transparent migration; IsoPredict DSG)",
            InvariantId::IsoReadCommitOrder => "§4.2 (commit-order equivalence)",
            InvariantId::IsoRestartIntegrity => "§4.2 (Squall restart semantics)",
            InvariantId::ProvLedgerConservation => "Fig 9 (capacity over/under-provision areas)",
            InvariantId::ProvDecisionCausality => "§6 (decisions start D ahead of demand)",
            InvariantId::ProvForecastBookkeeping => "§5 (per-horizon forecast scoring)",
        }
    }
}

impl fmt::Display for InvariantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One invariant violation: which artifact broke which invariant, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The invariant that failed.
    pub invariant: InvariantId,
    /// The artifact being checked, e.g. `schedule 3->14` or
    /// `plan horizon=20 n0=2`.
    pub artifact: String,
    /// Human-readable explanation of the failure.
    pub detail: String,
}

impl Violation {
    /// Builds a violation record.
    pub fn new(
        invariant: InvariantId,
        artifact: impl Into<String>,
        detail: impl Into<String>,
    ) -> Self {
        Violation {
            invariant,
            artifact: artifact.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {}] {}: {}",
            self.invariant.code(),
            self.invariant.paper_ref(),
            self.artifact,
            self.detail
        )
    }
}

/// Formats violations one per line; `Ok` summary when the list is empty.
pub fn report(violations: &[Violation]) -> String {
    if violations.is_empty() {
        return "ok: no invariant violations".to_string();
    }
    let lines: Vec<String> = violations.iter().map(ToString::to_string).collect();
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_code_section_and_artifact() {
        let v = Violation::new(
            InvariantId::ScheduleRoundCount,
            "schedule 3->14",
            "expected 11 rounds, found 12",
        );
        let s = v.to_string();
        assert!(s.contains("SCH-01"));
        assert!(s.contains("Table 1"));
        assert!(s.contains("schedule 3->14"));
        assert!(s.contains("12"));
    }

    #[test]
    fn concurrency_codes_follow_family_convention() {
        let family = [
            InvariantId::ConcurrencyQueueIntegrity,
            InvariantId::ConcurrencyMergeBarrier,
            InvariantId::ConcurrencyRegistryIsolation,
        ];
        for (i, id) in family.iter().enumerate() {
            assert_eq!(id.code(), format!("CON-{:02}", i + 1));
            assert!(!id.paper_ref().is_empty());
        }
        for id in family {
            assert!(!RETIRED_CODES.contains(&id.code()));
        }
        let v = Violation::new(
            InvariantId::ConcurrencyQueueIntegrity,
            "sweep threads=4",
            "cell 3 missing from results",
        );
        assert!(v.to_string().contains("CON-01"));
    }

    #[test]
    fn telemetry_codes_follow_family_convention() {
        let family = [
            InvariantId::TelemetryReconfigPairing,
            InvariantId::TelemetrySpanNesting,
            InvariantId::TelemetryHistogramMerge,
            InvariantId::TelemetryOrdering,
            InvariantId::TelemetryProfileConservation,
            InvariantId::TelemetryTxnLifecycle,
        ];
        for (i, id) in family.iter().enumerate() {
            assert_eq!(id.code(), format!("TEL-{:02}", i + 1));
            assert!(!id.paper_ref().is_empty());
        }
    }

    #[test]
    fn prov_codes_follow_family_convention() {
        let family = [
            InvariantId::ProvLedgerConservation,
            InvariantId::ProvDecisionCausality,
            InvariantId::ProvForecastBookkeeping,
        ];
        for (i, id) in family.iter().enumerate() {
            assert_eq!(id.code(), format!("PRV-{:02}", i + 1));
            assert!(!id.paper_ref().is_empty());
        }
        let v = Violation::new(
            InvariantId::ProvDecisionCausality,
            "prov reactive run",
            "reconfig id 3 has no matching decision",
        );
        assert!(v.to_string().contains("PRV-02"));
    }

    #[test]
    fn txn_family_has_code_and_paper_ref() {
        assert_eq!(InvariantId::TxnReadWriteSets.code(), "TXN-01");
        assert!(InvariantId::TxnReadWriteSets.paper_ref().contains("Squall"));
        let v = Violation::new(
            InvariantId::TxnReadWriteSets,
            "txn 42",
            "dest write outside migration",
        );
        assert!(v.to_string().contains("TXN-01"));
    }

    #[test]
    fn iso_codes_follow_family_convention() {
        let family = [
            InvariantId::IsoDsgAcyclic,
            InvariantId::IsoReadCommitOrder,
            InvariantId::IsoRestartIntegrity,
        ];
        for (i, id) in family.iter().enumerate() {
            assert_eq!(id.code(), format!("ISO-{:02}", i + 1));
            assert!(!id.paper_ref().is_empty());
        }
        let v = Violation::new(
            InvariantId::IsoDsgAcyclic,
            "detailed sim key history",
            "cycle T5 -WW(k)-> T7 -RW(k)-> T5",
        );
        assert!(v.to_string().contains("ISO-01"));
    }

    #[test]
    fn report_joins_lines() {
        assert!(report(&[]).starts_with("ok"));
        let vs = vec![
            Violation::new(InvariantId::MoveTiling, "seq", "gap at t=3"),
            Violation::new(InvariantId::MoveChaining, "seq", "2 then 4"),
        ];
        assert_eq!(report(&vs).lines().count(), 2);
    }
}
