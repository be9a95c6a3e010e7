//! Table 2: SLA violations (seconds with 50th/95th/99th percentile latency
//! above 500 ms) and average machines allocated, for the four elasticity
//! approaches (same runs as Fig 9).

// Experiment binary: aborting with a clear message on setup failure is the
// desired behaviour, so `expect`/`unwrap` are permitted here (the workspace
// lint policy only bans them in library code).
#![allow(clippy::expect_used, clippy::unwrap_used)]
use pstore_bench::fig9::{run_all_sweep, Fig9Config};
use pstore_bench::sweep::Sweep;
use pstore_bench::{section, RunReporter};

fn main() {
    let reporter = RunReporter::from_args();
    let quick = reporter.quick();
    let cfg = Fig9Config {
        days: if quick { 1 } else { 3 },
        seed: 0x0709,
        quick,
    };
    reporter.progress("running the Fig 9 comparison to derive Table 2...");
    let (_, results) = run_all_sweep(&cfg, &Sweep::from_reporter(&reporter));

    section("Table 2: SLA violations and average machines allocated");
    println!(
        "{:<36} {:>8} {:>8} {:>8} {:>10}",
        "Elasticity Approach", "50th", "95th", "99th", "Avg Mach"
    );
    for r in &results {
        println!(
            "{:<36} {:>8} {:>8} {:>8} {:>10.2}",
            r.strategy, r.violations.p50, r.violations.p95, r.violations.p99, r.avg_machines
        );
    }
    println!();
    println!("paper (3 days, 10x speed):");
    println!("  Static 10 servers : 0 / 13 / 25   @ 10.00 machines");
    println!("  Static 4 servers  : 0 / 157 / 249 @ 4.00 machines");
    println!("  Reactive          : 35 / 220 / 327 @ 4.02 machines");
    println!("  P-Store           : 0 / 37 / 92   @ 5.05 machines");
    println!();

    let (static10, reactive, pstore) = (&results[0], &results[2], &results[3]);
    println!("headline checks:");
    println!(
        "  P-Store vs reactive p99 violations : {} vs {} ({}% fewer; paper: ~72% fewer)",
        pstore.violations.p99,
        reactive.violations.p99,
        (100.0 * (reactive.violations.p99 as f64 - pstore.violations.p99 as f64)
            / reactive.violations.p99.max(1) as f64)
            .round()
    );
    println!(
        "  P-Store machines vs peak static    : {:.2} vs {:.2} ({:.0}%; paper: ~50%)",
        pstore.avg_machines,
        static10.avg_machines,
        100.0 * pstore.avg_machines / static10.avg_machines
    );
    println!(
        "  dropped arrivals (client timeouts) : static-4 {}, reactive {}, P-Store {}",
        results[1].dropped, reactive.dropped, pstore.dropped
    );

    reporter.finish();
}
