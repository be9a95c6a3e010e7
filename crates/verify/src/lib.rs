//! Workspace-wide invariant checking for the P-Store reproduction.
//!
//! Every artifact family the system produces has a checker module here:
//!
//! * [`schedule`] — migration schedules ([`MigrationSchedule`]): round-count
//!   minimality, matching validity, `1/(A*B)` data conservation, scale-in =
//!   time-reverse of scale-out, and agreement with the closed forms of
//!   Algorithm 4 (average machines) and Equation 2 (peak parallelism).
//! * [`moves`] — move sequences ([`MoveSeq`]): contiguous horizon tiling,
//!   positive durations, single-interval no-ops, machine-count chaining.
//! * [`plan`] — planner output: capacity ≥ predicted load at all times
//!   *including mid-move effective capacity* (Eq 7), correct endpoints, and
//!   optimality against a brute-force oracle on small horizons.
//! * [`forecast`] — load predictions: finite and (on the production path)
//!   non-negative values, SPAR periodicity sanity.
//! * [`telemetry`] — telemetry traces and metrics: span pairing and LIFO
//!   nesting over event streams, histogram-merge associativity
//!   (`TEL-01..03`, see docs/observability.md).
//! * [`concurrency`] — the parallel sweep surface: fault-injected pools
//!   lose no cell and attribute failures deterministically, the ordered
//!   merge observes every cell's results and telemetry, cells never see
//!   another cell's registry state (`CON-01..03`; exhaustive
//!   interleaving layer in `vendor/rayon/tests/loom_models.rs`).
//! * [`prov`] — the provisioning observatory's `prov_*` event family:
//!   the capacity ledger conserves machine-seconds against the raw
//!   per-interval stream (`PRV-01`), every reconfiguration traces to
//!   exactly one decision and predictive decisions keep their lead
//!   (`PRV-02`), and forecast scoring is exactly-once against real
//!   observations (`PRV-03`).
//! * [`iso`] — serializability of sampled key-level histories
//!   (IsoPredict-style): the direct serialization graph over captured
//!   `(key, version)` read/write sets is acyclic (`ISO-01`), reads
//!   observe versions installed at or before the reader in commit order
//!   (`ISO-02`), and Squall restarts leave no orphan versions — unique
//!   installers, monotone per-key version order, read-your-restart
//!   (`ISO-03`).
//!
//! Each checker returns structured [`Violation`] diagnostics naming the
//! artifact, the invariant id (`SCH-01` ...) and an explanation, so a single
//! run can report every broken invariant at once. The invariant ids and the
//! [`Violation`] type are shared with `pstore-core`, whose producers also
//! self-check under the `check-invariants` feature — the checkers here are
//! the *cross-artifact* layer on top (they compare schedules against their
//! mirrors, plans against oracles, closed forms against constructions).
//!
//! The `pstore-verify` binary sweeps every `(A, B)` pair up to 64 machines
//! plus randomized planner and forecast scenarios and exits non-zero on any
//! violation; `scripts/static_analysis.sh` runs it as part of CI. The full
//! catalogue of invariants lives in `docs/invariants.md`.
//!
//! [`MigrationSchedule`]: pstore_core::schedule::MigrationSchedule
//! [`MoveSeq`]: pstore_core::MoveSeq

#![warn(missing_docs)]

pub mod concurrency;
pub mod forecast;
pub mod iso;
pub mod moves;
pub mod plan;
pub mod prov;
pub mod schedule;
pub mod telemetry;

pub use pstore_core::{InvariantId, Violation};

/// Outcome of one checker sweep: artifacts examined and violations found.
#[derive(Debug, Clone, Default)]
pub struct CheckStats {
    /// Number of artifacts (schedules, plans, curves, ...) examined.
    pub artifacts: usize,
    /// Violations collected across all artifacts.
    pub violations: Vec<Violation>,
}

impl CheckStats {
    /// Folds one artifact's violations into the running stats.
    pub fn absorb(&mut self, violations: Vec<Violation>) {
        self.artifacts += 1;
        self.violations.extend(violations);
    }

    /// Whether the sweep found no violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}
