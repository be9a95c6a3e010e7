//! Tracked performance baseline: times a fixed grid of detailed-sim
//! cells through the [`pstore_bench::sweep`] runner and writes
//! `BENCH_sim.json` — cells/s, simulated-txns/s and peak RSS — so
//! regressions in the simulator hot path show up as a diff against the
//! committed file.
//!
//! Usage: `bench_baseline [--quick] [--threads N] [--out PATH]
//! [--check-against PATH]`
//!
//! `--quick` runs a smaller grid for CI smoke (numbers are not
//! comparable to the committed full-run baseline). Default output path
//! is `BENCH_sim.json` in the current directory.
//!
//! `--check-against PATH` reads a previously committed baseline and
//! fails (exit 1) if this run's `sim_txns_per_wall_s` fell below 95% of
//! the committed value. The gate is best-of-3 — the grid is re-timed up
//! to twice before failing, so transient host-scheduler noise doesn't
//! masquerade as a regression.

#![allow(clippy::expect_used, clippy::unwrap_used)] // experiment bin aborts loudly

use pstore_bench::sweep::{Cell, Sweep};
use pstore_bench::RunReporter;
use pstore_core::controller::baselines::StaticController;
use pstore_core::params::SystemParams;
use pstore_sim::detailed::{run_detailed, DetailedSimConfig, DetailedSimResult};
use std::io::Write;
use std::time::Duration;
use std::time::Instant;

/// One baseline cell: a static-allocation detailed run, fully determined
/// by `(nodes, seconds, load, seed)`.
fn cell_cfg(seconds: usize, load_txn_s: f64, seed: u64) -> DetailedSimConfig {
    DetailedSimConfig {
        params: SystemParams {
            q: 285.0,
            q_hat: 350.0,
            d: Duration::from_secs(300),
            partitions_per_node: 6,
            interval: Duration::from_secs(30),
            max_machines: 10,
        },
        load: vec![load_txn_s; seconds],
        seed,
        workload: pstore_b2w::generator::WorkloadConfig {
            num_skus: 4_000,
            initial_carts: 800,
            ..pstore_b2w::generator::WorkloadConfig::default()
        },
        num_slots: 360,
        monitor_interval_s: 30.0,
        service_mean_s: 6.0 / 490.0,
        service_jitter: 0.3,
        chunk_pacing_s: 2.0,
        migration_cpu_fraction: 0.05,
        max_queue_delay_s: 2.0,
        warmup_txns: 5_000,
        txn_sample_every: 0,
        shards: 1,
        shard_spans: false,
        prov_events: false,
    }
}

/// Peak resident set size in kB from `/proc/self/status` (`VmHWM`).
#[cfg(target_os = "linux")]
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(not(target_os = "linux"))]
fn peak_rss_kb() -> Option<u64> {
    None
}

/// Pulls `sim_txns_per_wall_s` out of a committed baseline file (the
/// first occurrence, should the file hold several rows).
fn baseline_txns_per_s(text: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.split("\"sim_txns_per_wall_s\":").nth(1)?;
        rest.trim().trim_end_matches(',').parse().ok()
    })
}

/// Runs every grid cell through `sweep`; returns the results and the
/// wall time the sweep took.
fn run_grid(
    sweep: &Sweep,
    seconds: usize,
    grid: &[(u32, f64, u64)],
) -> (Vec<DetailedSimResult>, f64) {
    let cells: Vec<Cell<DetailedSimResult>> = grid
        .iter()
        .map(|&(nodes, load, seed)| {
            let cfg = cell_cfg(seconds, load, seed);
            Cell::new(format!("static{nodes}@{load}tps/seed{seed}"), move || {
                run_detailed(&cfg, &mut StaticController::new(nodes))
            })
        })
        .collect();
    let start = Instant::now();
    let results = sweep.run(cells);
    (results, start.elapsed().as_secs_f64())
}

/// Committed simulated transactions per wall second.
fn txns_per_wall_s(results: &[DetailedSimResult], wall_s: f64) -> f64 {
    let committed: u64 = results.iter().map(|r| r.committed).sum();
    #[allow(clippy::cast_precision_loss)] // counters far below 2^52
    let committed = committed as f64;
    committed / wall_s
}

fn main() {
    let reporter = RunReporter::from_args();
    let args: Vec<String> = std::env::args().collect();
    let out_path = args.iter().position(|a| a == "--out").map_or_else(
        || std::path::PathBuf::from("BENCH_sim.json"),
        |i| match args.get(i + 1) {
            Some(p) => std::path::PathBuf::from(p),
            None => {
                eprintln!("error: --out requires a file path argument");
                std::process::exit(2);
            }
        },
    );
    let check_against =
        args.iter()
            .position(|a| a == "--check-against")
            .map(|i| match args.get(i + 1) {
                Some(p) => std::path::PathBuf::from(p),
                None => {
                    eprintln!("error: --check-against requires a baseline file path");
                    std::process::exit(2);
                }
            });

    // The grid: static clusters at varied sizes/loads/seeds, covering the
    // uncontended dispatch path, a migrating-free steady state, and a
    // saturated node (drop path). Each cell is independent — the same
    // shape the figure binaries fan out.
    let (seconds, grid): (usize, Vec<(u32, f64, u64)>) = if reporter.quick() {
        (45, vec![(4, 400.0, 1), (1, 600.0, 2)])
    } else {
        (
            180,
            vec![
                (4, 400.0, 1),
                (4, 400.0, 2),
                (6, 900.0, 3),
                (6, 900.0, 4),
                (2, 500.0, 5),
                (1, 600.0, 6),
                (8, 1_500.0, 7),
                (3, 700.0, 8),
            ],
        )
    };

    let mode = if reporter.quick() { "quick" } else { "full" };
    let sweep = Sweep::from_reporter(&reporter);
    let threads = sweep.threads();
    reporter.progress(&format!(
        "bench_baseline: {} cells x {seconds}s ({mode}), {threads} thread(s)",
        grid.len()
    ));

    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let n_cells = grid.len();
    let (results, wall_s) = run_grid(&sweep, seconds, &grid);
    let committed: u64 = results.iter().map(|r| r.committed).sum();
    let dropped: u64 = results.iter().map(|r| r.dropped).sum();
    let txns_per_s = txns_per_wall_s(&results, wall_s);
    #[allow(clippy::cast_precision_loss)] // cell counts are tiny
    let cells_per_s = n_cells as f64 / wall_s;
    let rss_json = peak_rss_kb().map_or_else(|| "null".to_string(), |kb| kb.to_string());
    let json = format!(
        "{{\n  \"benchmark\": \"bench_baseline\",\n  \"mode\": \"{mode}\",\n  \
         \"threads\": {threads},\n  \"host_cpus\": {host_cpus},\n  \
         \"cells\": {n_cells},\n  \"sim_seconds_per_cell\": {seconds},\n  \
         \"committed_txns\": {committed},\n  \"dropped_txns\": {dropped},\n  \
         \"wall_s\": {wall_s:.3},\n  \"cells_per_s\": {cells_per_s:.4},\n  \
         \"sim_txns_per_wall_s\": {txns_per_s:.0},\n  \"peak_rss_kb\": {rss_json}\n}}\n"
    );
    let mut file = std::fs::File::create(&out_path).expect("create BENCH_sim.json");
    file.write_all(json.as_bytes())
        .expect("write BENCH_sim.json");
    print!("{json}");
    reporter.progress(&format!(
        "bench_baseline: {wall_s:.1}s wall, {txns_per_s:.0} sim txns/s; wrote {}",
        out_path.display()
    ));

    if let Some(baseline_path) = check_against {
        let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {}: {e}", baseline_path.display());
            std::process::exit(2);
        });
        let Some(committed_baseline) = baseline_txns_per_s(&text) else {
            eprintln!(
                "error: no sim_txns_per_wall_s in {}",
                baseline_path.display()
            );
            std::process::exit(2);
        };
        let floor = 0.95 * committed_baseline;
        // Best-of-3: wall-clock throughput on a shared host can dip well
        // below 95% from scheduler noise alone, and a genuine regression
        // slows every attempt, so retry the grid before failing.
        let mut best = txns_per_s;
        for attempt in 2..=3 {
            if best >= floor {
                break;
            }
            reporter.progress(&format!(
                "bench_baseline: throughput {best:.0} below floor {floor:.0}, \
                 retrying (attempt {attempt}/3, host noise vs real regression)"
            ));
            let (results, wall_s) = run_grid(&sweep, seconds, &grid);
            best = best.max(txns_per_wall_s(&results, wall_s));
        }
        if best < floor {
            eprintln!(
                "FAIL: throughput {best:.0} sim txns/s (best of 3) is below 95% of \
                 the committed baseline {committed_baseline:.0} (floor {floor:.0}) — the \
                 simulator regressed"
            );
            std::process::exit(1);
        }
        reporter.progress(&format!(
            "bench_baseline: throughput {best:.0} >= 95% of committed \
             {committed_baseline:.0} — ok"
        ));
    }
    reporter.finish();
}
