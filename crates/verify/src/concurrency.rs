//! Concurrency checkers for the sweep surface (`CON-01..CON-03`).
//!
//! Two complementary layers enforce these invariants:
//!
//! * **Model checking** — `vendor/rayon/tests/loom_models.rs` explores
//!   *every* interleaving of the pool's claim/execute/store protocol,
//!   the merge happens-before edge and the registry-isolation
//!   discipline under `RUSTFLAGS="--cfg loom"` (the pool's primitives
//!   swap to `loom` types there). That layer proves the protocols.
//! * **Runtime checking (this module)** — drives the *production*
//!   [`Sweep`] runner on real threads: no cell is lost or
//!   mis-attributed (CON-01), the ordered merge observes every cell's
//!   results and telemetry exactly as a serial run does (CON-02), and
//!   no cell sees another cell's registry state (CON-03).
//!
//! The runtime layer cannot enumerate schedules, but it covers what the
//! models abstract away: the real telemetry machinery, panicking and
//! stalling cells, and the full result path of `pstore-bench`.

use std::rc::Rc;

use pstore_bench::sweep::{Cell, CellFailure, Sweep};
use pstore_core::{InvariantId, Violation};
use pstore_telemetry as tel;

/// Cells in the fault-injection grid (indices 2 and 4 fail, index 5
/// stalls; the rest return `index * 100`).
const FAULT_GRID: u64 = 6;
/// Instrumented cells in the merge-barrier comparison.
const MERGE_CELLS: u64 = 6;
/// Probe cells in the registry-isolation check.
const PROBE_CELLS: usize = 8;

/// CON-01: a fault-injected sweep at `threads` must return one entry
/// per cell, in cell order, with failures attributed to the right cell
/// — identically to the serial run.
pub fn check_queue_integrity(threads: usize) -> Vec<Violation> {
    let artifact = format!("fault-injected sweep threads={threads}");
    let mut violations = Vec::new();

    // Injected panics are expected; keep them off the report output.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let results = Sweep::new(threads).run_fallible(fault_grid());
    let serial = Sweep::new(1).run_fallible(fault_grid());
    std::panic::set_hook(prev_hook);

    let expected = expected_fault_outcomes();
    if results.len() != expected.len() {
        violations.push(Violation::new(
            InvariantId::ConcurrencyQueueIntegrity,
            artifact.clone(),
            format!("{} cells in, {} results out", expected.len(), results.len()),
        ));
        return violations;
    }
    for (i, (got, want)) in results.iter().zip(&expected).enumerate() {
        if got != want {
            violations.push(Violation::new(
                InvariantId::ConcurrencyQueueIntegrity,
                artifact.clone(),
                format!("cell {i}: expected {want:?}, got {got:?}"),
            ));
        }
    }
    if results != serial {
        violations.push(Violation::new(
            InvariantId::ConcurrencyQueueIntegrity,
            artifact,
            "failure reporting differs from the serial run".to_string(),
        ));
    }
    violations
}

/// CON-02: after a capturing sweep at `threads`, the merged telemetry
/// (events, counters, gauges, histograms) and the results must be
/// indistinguishable from the serial run — evidence that the merge only
/// starts once every cell's writes are visible.
pub fn check_merge_barrier(threads: usize) -> Vec<Violation> {
    let artifact = format!("capturing sweep threads={threads} vs serial");
    let mut violations = Vec::new();
    let (r_ser, e_ser, m_ser) = capture_run(1);
    let (r_par, e_par, m_par) = capture_run(threads);

    if r_par != r_ser {
        violations.push(Violation::new(
            InvariantId::ConcurrencyMergeBarrier,
            artifact.clone(),
            "cell results differ from the serial run".to_string(),
        ));
    }
    if normalised(&e_par) != normalised(&e_ser) {
        violations.push(Violation::new(
            InvariantId::ConcurrencyMergeBarrier,
            artifact.clone(),
            format!(
                "forwarded event streams differ ({} serial vs {} parallel events)",
                e_ser.len(),
                e_par.len()
            ),
        ));
    }
    if m_par.counter("con_ticks") != m_ser.counter("con_ticks") {
        violations.push(Violation::new(
            InvariantId::ConcurrencyMergeBarrier,
            artifact.clone(),
            format!(
                "merged counter differs: serial {} vs parallel {}",
                m_ser.counter("con_ticks"),
                m_par.counter("con_ticks")
            ),
        ));
    }
    if m_par.gauge("con_last_seed").map(f64::to_bits)
        != m_ser.gauge("con_last_seed").map(f64::to_bits)
    {
        violations.push(Violation::new(
            InvariantId::ConcurrencyMergeBarrier,
            artifact.clone(),
            "merged gauge differs from the serial run (ordered merge broken)".to_string(),
        ));
    }
    let histograms_match = match (m_ser.histogram("con_lat"), m_par.histogram("con_lat")) {
        (Some(s), Some(p)) => s.content_eq(p),
        (None, None) => true,
        _ => false,
    };
    if !histograms_match {
        violations.push(Violation::new(
            InvariantId::ConcurrencyMergeBarrier,
            artifact,
            "merged histogram differs from the serial run".to_string(),
        ));
    }
    violations
}

/// CON-03: probe cells that read the registry before touching it must
/// all observe a clean state, including cells run back-to-back on a
/// reused worker (`threads == 1` forces maximal reuse).
pub fn check_registry_isolation(threads: usize) -> Vec<Violation> {
    let artifact = format!("registry probe sweep threads={threads}");
    let (sink, _handle) = tel::MemorySink::new();
    tel::reset_registry();
    let guard = tel::install(Rc::new(sink));
    let cells: Vec<Cell<u64>> = (0..PROBE_CELLS)
        .map(|_| {
            Cell::new("probe", || {
                let before = tel::with_registry(|r| r.counter("con_probe"));
                tel::with_registry(|r| r.inc_counter("con_probe", 1));
                before
            })
        })
        .collect();
    let observed = Sweep::new(threads).run(cells);
    drop(guard);
    tel::reset_registry();

    let mut violations = Vec::new();
    for (i, before) in observed.iter().enumerate() {
        if *before != 0 {
            violations.push(Violation::new(
                InvariantId::ConcurrencyRegistryIsolation,
                artifact.clone(),
                format!("cell {i} observed {before} leaked probe increment(s)"),
            ));
        }
    }
    if observed.len() != PROBE_CELLS {
        violations.push(Violation::new(
            InvariantId::ConcurrencyRegistryIsolation,
            artifact,
            format!("{PROBE_CELLS} probes in, {} results out", observed.len()),
        ));
    }
    violations
}

/// The fault-injection grid: healthy, panicking (str and `String`
/// payloads) and stalling cells.
fn fault_grid() -> Vec<Cell<u64>> {
    (0..FAULT_GRID)
        .map(|i| {
            Cell::new(format!("fault-cell-{i}"), move || match i {
                2 => panic!("injected fault in cell 2"),
                4 => std::panic::panic_any(format!("injected String fault in cell {i}")),
                5 => {
                    // Stalling cell: completes well after its neighbours.
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    i * 100
                }
                _ => i * 100,
            })
        })
        .collect()
}

/// What [`fault_grid`] must deterministically produce.
fn expected_fault_outcomes() -> Vec<Result<u64, CellFailure>> {
    (0..FAULT_GRID)
        .map(|i| match i {
            2 => Err(CellFailure {
                index: 2,
                label: "fault-cell-2".to_string(),
                message: "injected fault in cell 2".to_string(),
            }),
            4 => Err(CellFailure {
                index: 4,
                label: "fault-cell-4".to_string(),
                message: "injected String fault in cell 4".to_string(),
            }),
            _ => Ok(i * 100),
        })
        .collect()
}

/// An instrumented cell: a span, per-tick events, and counter /
/// histogram / gauge traffic derived from the seed.
fn instrumented_cell(seed: u64) -> Cell<u64> {
    Cell::new(format!("con-cell-{seed}"), move || {
        let span = tel::begin_span("con_work", &[("seed", tel::Value::U64(seed))]);
        for i in 0..4u64 {
            tel::emit(tel::Event::new("con_tick").with("i", i).with("seed", seed));
            tel::with_registry(|r| {
                r.inc_counter("con_ticks", 1);
                #[allow(clippy::cast_precision_loss)] // tiny probe values
                r.record_histogram("con_lat", 1e-3 * (seed + 1) as f64 * (i + 1) as f64);
            });
        }
        #[allow(clippy::cast_precision_loss)] // tiny probe values
        tel::with_registry(|r| r.set_gauge("con_last_seed", seed as f64));
        tel::end_span("con_work", span, &[]);
        seed * 7
    })
}

/// Runs the instrumented grid under a fresh sink/registry and returns
/// (results, forwarded events, merged registry).
fn capture_run(threads: usize) -> (Vec<u64>, Vec<tel::Event>, tel::MetricsRegistry) {
    let (sink, handle) = tel::MemorySink::new();
    tel::reset_registry();
    let guard = tel::install(Rc::new(sink));
    let cells: Vec<Cell<u64>> = (0..MERGE_CELLS).map(instrumented_cell).collect();
    let results = Sweep::new(threads).run(cells);
    drop(guard);
    let registry = tel::with_registry(|r| r.clone());
    tel::reset_registry();
    (results, handle.events(), registry)
}

/// An event's deterministic content: kind, timestamp (bit pattern) and
/// payload fields, with the process-global `seq` dropped.
type EventKey = (String, Option<u64>, Vec<(String, tel::Value)>);

/// Projects events onto their deterministic content.
fn normalised(events: &[tel::Event]) -> Vec<EventKey> {
    events
        .iter()
        .map(|e| (e.kind.clone(), e.t.map(f64::to_bits), e.fields.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The runtime checkers spawn real OS threads and drive full sweep
    // runs — far beyond what miri can execute in reasonable
    // time (the pure ISO/TEL/TXN checker logic has its own miri-clean
    // unit tests).
    #[test]
    #[cfg_attr(miri, ignore)]
    fn all_three_checkers_are_clean_at_one_and_four_threads() {
        for threads in [1, 4] {
            assert_eq!(check_queue_integrity(threads), Vec::new());
            assert_eq!(check_merge_barrier(threads), Vec::new());
            assert_eq!(check_registry_isolation(threads), Vec::new());
        }
    }
}
