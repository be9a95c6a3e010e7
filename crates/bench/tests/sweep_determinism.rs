//! Serial-vs-parallel determinism of the sweep runner on *real*
//! simulator cells (the synthetic-cell contract lives in
//! `src/sweep.rs`): the same cell grid must produce bit-identical
//! results at any thread count, because every figure binary now fans
//! its runs through [`Sweep`].

#![allow(clippy::expect_used, clippy::unwrap_used)] // tests abort loudly
use pstore_b2w::generator::WorkloadConfig;
use pstore_bench::fig9::{run_all_sweep, Fig9Config};
use pstore_bench::sweep::{Cell, Sweep};
use pstore_core::controller::baselines::StaticController;
use pstore_core::params::SystemParams;
use pstore_sim::detailed::{run_detailed, DetailedSimConfig, DetailedSimResult};
use std::time::Duration;

/// A deliberately tiny detailed-sim cell (runs in debug-mode test time).
fn tiny_cfg(nodes_hint: u64, load_txn_s: f64, seed: u64) -> DetailedSimConfig {
    DetailedSimConfig {
        params: SystemParams {
            q: 285.0,
            q_hat: 350.0,
            d: Duration::from_secs(300),
            partitions_per_node: 6,
            interval: Duration::from_secs(30),
            max_machines: 10,
        },
        load: vec![load_txn_s; 20],
        seed: seed ^ (nodes_hint << 8),
        workload: WorkloadConfig {
            num_skus: 1_000,
            initial_carts: 200,
            ..WorkloadConfig::default()
        },
        num_slots: 360,
        monitor_interval_s: 30.0,
        service_mean_s: 6.0 / 490.0,
        service_jitter: 0.3,
        chunk_pacing_s: 2.0,
        migration_cpu_fraction: 0.05,
        max_queue_delay_s: 2.0,
        warmup_txns: 1_000,
        txn_sample_every: 0,
        shards: 1,
        shard_spans: false,
        prov_events: false,
    }
}

/// The grid every test below runs: varied cluster sizes, loads and seeds,
/// including a saturated single node (exercises the drop path).
fn grid_cells() -> Vec<Cell<DetailedSimResult>> {
    let grid: [(u32, f64, u64); 6] = [
        (4, 300.0, 1),
        (4, 300.0, 2),
        (2, 250.0, 3),
        (1, 600.0, 4),
        (6, 500.0, 5),
        (3, 350.0, 6),
    ];
    grid.iter()
        .map(|&(nodes, load, seed)| {
            let cfg = tiny_cfg(u64::from(nodes), load, seed);
            Cell::new(format!("static{nodes}/seed{seed}"), move || {
                run_detailed(&cfg, &mut StaticController::new(nodes))
            })
        })
        .collect()
}

/// Full-fidelity fingerprint of a result vector: the `Debug` rendering
/// covers every per-second metric, violation counter and procedure-mix
/// entry, so two fingerprints match iff the runs were bit-identical.
fn fingerprint(results: &[DetailedSimResult]) -> String {
    format!("{results:?}")
}

#[test]
fn detailed_sim_cells_are_identical_serial_vs_parallel() {
    let serial = fingerprint(&Sweep::new(1).run(grid_cells()));
    let parallel = fingerprint(&Sweep::new(8).run(grid_cells()));
    assert_eq!(
        serial, parallel,
        "sweep results diverged between --threads 1 and --threads 8"
    );
}

#[test]
fn repeated_parallel_runs_are_identical() {
    // Thread scheduling differs run to run; the merged output must not.
    let a = fingerprint(&Sweep::new(4).run(grid_cells()));
    let b = fingerprint(&Sweep::new(4).run(grid_cells()));
    assert_eq!(a, b, "two --threads 4 sweeps of the same grid diverged");
}

/// The real thing, scaled to one day: `fig9 --quick --threads 1` vs
/// `--threads 8` must agree byte-for-byte. Minutes-long in debug builds,
/// so ignored by default; CI's bench-smoke job covers the binary-level
/// equivalent on every push, and `scripts/static_analysis.sh` runs this
/// via `cargo test --release -- --ignored`.
#[test]
#[ignore = "expensive: run with --release -- --ignored (covered by CI bench-smoke)"]
fn fig9_quick_is_identical_serial_vs_parallel() {
    let cfg = Fig9Config {
        days: 1,
        seed: 42,
        quick: true,
    };
    let (_, serial) = run_all_sweep(&cfg, &Sweep::new(1));
    let (_, parallel) = run_all_sweep(&cfg, &Sweep::new(8));
    assert_eq!(fingerprint(&serial), fingerprint(&parallel));
}
