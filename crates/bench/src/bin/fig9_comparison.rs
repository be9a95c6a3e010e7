//! Fig 9: the elasticity comparison — throughput, latency and machines
//! allocated over three days of B2W traffic (10x speed) under static-10,
//! static-4, reactive and P-Store provisioning. Also prints the Fig 10
//! CDF summary and Table 2, which are derived from the same runs.

// Experiment binary: aborting with a clear message on setup failure is the
// desired behaviour, so `expect`/`unwrap` are permitted here (the workspace
// lint policy only bans them in library code).
#![allow(clippy::expect_used, clippy::unwrap_used)]
use pstore_bench::fig9::{run_all_sweep, Fig9Config};
use pstore_bench::sweep::Sweep;
use pstore_bench::{ascii_plot, ascii_plot2, hms, section, RunReporter};
use pstore_sim::latency::{cdf_points, top_fraction, SLA_THRESHOLD_S};

fn main() {
    let reporter = RunReporter::from_args();
    let quick = reporter.quick();
    let cfg = Fig9Config {
        days: if quick { 1 } else { 3 },
        seed: 0x0709,
        quick,
    };
    let sweep = Sweep::from_reporter(&reporter);
    reporter.progress(&format!(
        "running {} day(s) x 4 approaches on {} thread(s) (this is the paper's 7.2-hour experiment)...",
        cfg.days,
        sweep.threads().min(4)
    ));
    let (trace, results) = run_all_sweep(&cfg, &sweep);

    // Plot-friendly dumps: one per-second CSV per approach.
    for r in &results {
        let slug: String = r
            .strategy
            .to_lowercase()
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        let path = std::path::PathBuf::from(format!("results/fig9_{slug}.csv"));
        let rows = r.seconds.iter().map(|s| {
            vec![
                s.second as f64,
                s.throughput as f64,
                s.p50,
                s.p95,
                s.p99,
                s.machines,
                f64::from(u8::from(s.reconfiguring)),
            ]
        });
        if let Err(e) = pstore_bench::write_csv(
            &path,
            &[
                "second",
                "throughput",
                "p50",
                "p95",
                "p99",
                "machines",
                "reconfiguring",
            ],
            rows,
        ) {
            eprintln!("could not write {}: {e}", path.display());
        } else {
            reporter.progress(&format!("wrote {}", path.display()));
        }
    }

    section("Offered load (txn/s, trace compressed 10x)");
    println!("{}", ascii_plot(&trace.wall_seconds, 96, 10));

    for r in &results {
        section(&format!("Fig 9: {}", r.strategy));
        let thr: Vec<f64> = r.seconds.iter().map(|s| s.throughput as f64).collect();
        let machines_cap: Vec<f64> = r.seconds.iter().map(|s| s.machines * 350.0).collect();
        println!("throughput (#) vs allocated capacity Q̂*machines (*):");
        println!("{}", ascii_plot2(&thr, &machines_cap, 96, 10));
        let p99ms: Vec<f64> = r.seconds.iter().map(|s| s.p99 * 1000.0).collect();
        println!("p99 latency (ms):");
        println!("{}", ascii_plot(&p99ms, 96, 8));
        println!(
            "reconfigurations: {}   avg machines: {:.2}   committed txns: {}",
            r.reconfig_spans.len(),
            r.avg_machines,
            r.committed
        );
        if !r.reconfig_spans.is_empty() {
            let spans: Vec<String> = r
                .reconfig_spans
                .iter()
                .map(|(s, e)| format!("{}..{}", hms(*s), hms(*e)))
                .collect();
            println!("moves: {}", spans.join(", "));
        }
    }

    section("Fig 10: CDFs of the top 1% of per-second percentile latencies");
    for (pct, pick) in [("50th", 0usize), ("95th", 1), ("99th", 2)] {
        println!("\n{pct} percentile — latency (ms) at CDF 0.25/0.50/0.75/0.95:");
        println!(
            "{:<36} {:>8} {:>8} {:>8} {:>8}",
            "approach", "25%", "50%", "75%", "95%"
        );
        for r in &results {
            let series: Vec<f64> = r
                .seconds
                .iter()
                .map(|s| match pick {
                    0 => s.p50,
                    1 => s.p95,
                    _ => s.p99,
                })
                .collect();
            let top = top_fraction(series, 0.01);
            let cdf = cdf_points(&top, 100);
            let at = |q: f64| -> f64 {
                cdf.iter()
                    .find(|(_, p)| *p >= q)
                    .map(|(v, _)| *v * 1000.0)
                    .unwrap_or(0.0)
            };
            println!(
                "{:<36} {:>8.0} {:>8.0} {:>8.0} {:>8.0}",
                r.strategy,
                at(0.25),
                at(0.50),
                at(0.75),
                at(0.95)
            );
        }
    }
    println!("\n(lower is better; the reactive approach dominates the tail)");

    section("Table 2: SLA violations (>500 ms) and average machines");
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
    println!("paper Table 2:            static-10: 0/13/25 @ 10.00");
    println!("                          static-4 : 0/157/249 @ 4.00");
    println!("                          reactive : 35/220/327 @ 4.02");
    println!("                          P-Store  : 0/37/92 @ 5.05");
    println!();
    let pstore = &results[3];
    let reactive = &results[2];
    let static10 = &results[0];
    if pstore.violations.p99 < reactive.violations.p99
        && pstore.avg_machines < 0.7 * static10.avg_machines
    {
        println!(
            "shape reproduced: P-Store causes {}% fewer p99 violations than \
             reactive at {:.0}% of peak provisioning's machines",
            (100.0 * (reactive.violations.p99 as f64 - pstore.violations.p99 as f64)
                / reactive.violations.p99.max(1) as f64)
                .round(),
            100.0 * pstore.avg_machines / static10.avg_machines
        );
    } else {
        println!("WARNING: headline shape not reproduced on this seed");
    }
    let _ = SLA_THRESHOLD_S;

    reporter.finish();
}
