//! The repository benchmark: runs one named workload of the P-Store
//! simulators for a fixed time, checks its outputs and prints end-to-end
//! metrics (`--trace 0`) or the per-layer ledger (`--trace 1`). The last
//! line of standard output is one JSON object; see README.md.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady --seed 1 --seconds 10 --trace 0
//! ```

mod alloc;
mod host;
mod ledger;
mod spans;
mod timed;
mod workload;

use ledger::{EngineReplay, Layers, TOP_PROCEDURES};
use spans::Span;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Repeat, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Fewest repeats a run measures, however long they take: the median of
/// three is the least that rejects one outlier.
const MIN_REPEATS: usize = 3;

/// Deterministic outputs recorded per (workload, seed).
const EXPECTED: &str = include_str!("../expected.tsv");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if s == 0 || s > 600 {
                    return Err(format!("--seconds must be in 1..=600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let mut failures: Vec<String> = Vec::new();

    // Untraced repeats for the measured time.
    let budget = Duration::from_secs(args.seconds);
    let h0 = host::Sample::now();
    let start = Instant::now();
    let mut reps: Vec<Repeat> = Vec::new();
    let mut peak_rss_mb = 0.0;
    // Host speed (the reference kernel's time) after every repeat, so that
    // two readings bracket each repeat but the first, which has one.
    let mut ref_ms: Vec<f64> = Vec::new();
    while reps.len() < MIN_REPEATS || start.elapsed() < budget {
        let rep = workload::run_once(w, args.seed, false);
        if reps.is_empty() {
            // Read before the reference kernel first runs, so that the
            // kernel's own memory cannot set the high-water mark; later
            // repeats reuse freed memory and may fragment it, which moves
            // the mark from run to run.
            peak_rss_mb = host::peak_rss_mb();
        }
        ref_ms.push(host::reference_ms());
        failures.extend(check_repeat(&rep));
        if let Some(prev) = reps.last_mut() {
            // Only the last repeat's per-second data is kept.
            prev.detailed = None;
        }
        if let Some(first) = reps.first() {
            if rep.counters != first.counters {
                failures.push(format!(
                    "repeat {} is not deterministic: {:?} vs {:?}",
                    reps.len() + 1,
                    rep.counters,
                    first.counters
                ));
            }
        }
        reps.push(rep);
    }
    let noise = host::between(&h0, &host::Sample::now());
    let counters = reps[0].counters.clone();
    // The first repeat pays for lazy initialisation; later ones must agree
    // exactly on their allocation counts.
    let settled = &reps[1];
    for (i, r) in reps.iter().enumerate().skip(2) {
        if (r.setup_allocs, r.run_allocs) != (settled.setup_allocs, settled.run_allocs) {
            failures.push(format!(
                "allocation counts of repeat {} ({}, {}) differ from repeat 2 ({}, {})",
                i + 1,
                r.setup_allocs,
                r.run_allocs,
                settled.setup_allocs,
                settled.run_allocs
            ));
        }
    }
    let recorded = format!("{}\t{}\t{}", w.name(), args.seed, counters.record());
    match expected(w, args.seed) {
        Some(line) if line != recorded => failures.push(format!(
            "outputs differ from expected.tsv:\n  expected {line}\n  got      {recorded}"
        )),
        Some(_) => println!("expected: outputs match expected.tsv"),
        None => println!("expected: no entry for this seed; repeats checked against each other"),
    }
    println!("record: {recorded}");

    let run_s: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let setup_s: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    // Each repeat's wall time at the reference host speed, measured by the
    // kernel runs just before and just after it.
    let at_reference = |wall: &[f64]| -> f64 {
        let scaled: Vec<f64> = wall
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let before = ref_ms[i.saturating_sub(1)];
                w * host::REFERENCE_MS * 2.0 / (before + ref_ms[i])
            })
            .collect();
        median(&scaled)
    };
    println!(
        "repeats: {} run_s {} setup_s {} ref_ms {}",
        reps.len(),
        fmt_list(&run_s),
        fmt_list(&setup_s),
        fmt_list(&ref_ms)
    );
    println!(
        "outcome: fail_pct {:.4} %, sla_violation_s {} s, short_slot_pct {:.4} %, avg_machines {:.4}",
        counters.fail_pct, counters.sla_violation_s, counters.short_slot_pct, counters.avg_machines
    );
    let ref_med = median(&ref_ms);
    println!(
        "host: wall_s {:.3} oncpu_pct {:.2} runq_wait_s {:.4} steal_s {:.2} cpus {} ref_ms {ref_med:.3}",
        noise.wall_s, noise.oncpu_pct, noise.runq_wait_s, noise.steal_s, noise.cpus
    );

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        metrics = traced_metrics(w, args.seed, &reps, &noise, ref_med, &mut failures);
    } else {
        metrics.push(("run_s".into(), at_reference(&run_s), "s"));
        metrics.push(("setup_s".into(), at_reference(&setup_s), "s"));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb, "MB"));
        metrics.push(("avg_machines".into(), counters.avg_machines, "machines"));
    }

    for f in &failures {
        eprintln!("check failed: {f}");
    }
    let attempted: u64 = reps.iter().map(|r| r.counters.arrivals).sum();
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{",
        failures.is_empty(),
        if failures.is_empty() { 0 } else { attempted }
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        );
    }
    json.push_str("}}");
    println!("{json}");
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Output checks on one repeat.
fn check_repeat(rep: &Repeat) -> Vec<String> {
    let mut out = Vec::new();
    let c = &rep.counters;
    if let Some(d) = &rep.detailed {
        if c.arrivals != c.committed + c.aborted + c.dropped {
            out.push(format!(
                "arrivals {} != committed {} + aborted {} + dropped {}",
                c.arrivals, c.committed, c.aborted, c.dropped
            ));
        }
        // TEL-06: on every second the queue, execution and stall parts sum
        // to the latency the recorder measured, mean × completions (the
        // recorder sums the parts and the samples separately).
        if let Some(s) = d.result.seconds.iter().find(|s| {
            let recorded = s.mean * s.throughput as f64;
            let parts = s.attr_queue + s.attr_exec + s.attr_stall;
            (parts - recorded).abs() >= 1e-6 * recorded.max(1.0)
        }) {
            out.push(format!("TEL-06 broken in second {}: {s:?}", s.second));
        }
    }
    // Every completed move was accepted; at most one is cut by the horizon.
    if c.reconfigs > c.moves || c.moves > c.reconfigs + 1 {
        out.push(format!(
            "{} moves accepted but {} completed",
            c.moves, c.reconfigs
        ));
    }
    out
}

/// The recorded line for (workload, seed), if any.
fn expected(w: Workload, seed: u64) -> Option<&'static str> {
    let prefix = format!("{}\t{}\t", w.name(), seed);
    EXPECTED.lines().find(|l| l.starts_with(&prefix))
}

/// Traced repeats and layer replays alternate this many times and the
/// ledger takes the median of each layer, so that a host changing speed
/// during the traced phase moves both sides alike.
const TRACED_ROUNDS: usize = 3;

/// The traced rounds, the layer replays, and the per-layer metrics.
fn traced_metrics(
    w: Workload,
    seed: u64,
    reps: &[Repeat],
    noise: &host::Noise,
    ref_ms: f64,
    failures: &mut Vec<String>,
) -> Vec<(String, f64, &'static str)> {
    let untraced_run = median(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let c = reps[0].counters.clone();
    let executed = c.committed + c.aborted;
    let mut rounds: Vec<(Repeat, Option<EngineReplay>)> = Vec::new();
    for _ in 0..TRACED_ROUNDS {
        let rep = workload::run_once(w, seed, true);
        failures.extend(check_repeat(&rep));
        if rep.counters != c {
            failures.push("a traced repeat disagrees with the untraced ones".into());
        }
        let engine = rep
            .detailed
            .as_ref()
            .map(|d| ledger::replay_detailed(d, c.arrivals, executed));
        if let Some(e) = &engine {
            failures.extend(e.failures.iter().cloned());
        }
        rounds.push((rep, engine));
    }
    let per_round: Vec<Layers> = rounds
        .iter()
        .map(|(rep, e)| Layers::of(rep, e.as_ref()))
        .collect();
    let l = Layers::median(&per_round);
    // The layers and the run are timed apart, so on a drifting host they
    // may disagree by as much as the traced runs disagree among
    // themselves; beyond that the layers claim time the run never spent.
    let runs: Vec<f64> = per_round.iter().map(|r| r.run_s).collect();
    let drift = runs.iter().copied().fold(f64::MIN, f64::max)
        - runs.iter().copied().fold(f64::MAX, f64::min);
    if l.other_s() < -drift {
        failures.push(format!(
            "layers exceed run_s by {:.4} s, more than the {drift:.4} s the traced runs \
             spread: the ledger does not conserve",
            -l.other_s()
        ));
    }
    let engines: Vec<&EngineReplay> = rounds.iter().filter_map(|(_, e)| e.as_ref()).collect();
    let pooled = |f: fn(&EngineReplay) -> &Vec<u64>| -> Vec<u64> {
        engines.iter().flat_map(|e| f(e).iter().copied()).collect()
    };
    let first = engines.first().copied();

    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.push((name.to_string(), value, unit));
    };
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    let arrivals = if w.is_detailed() { c.arrivals } else { 0 };
    let executed = if w.is_detailed() { executed } else { 0 };

    put("b2w.next_txn_ns", per(l.b2w_s * 1e9, arrivals), "ns");
    let gen_allocs = first.map_or(0, |e| e.gen_allocs);
    put(
        "b2w.allocs_per_txn",
        per(gen_allocs as f64, arrivals),
        "allocs/txn",
    );
    put("b2w.total_s", l.b2w_s, "s");

    put("dbms.route_ns", per(l.route_s * 1e9, arrivals), "ns");
    let exec = pooled(|e| &e.exec_ns);
    put("dbms.exec_ns_p50", quantile(&exec, 0.5), "ns");
    put("dbms.exec_ns_p99", quantile(&exec, 0.99), "ns");
    let exec_allocs = first.map_or(0, |e| e.exec_allocs);
    put(
        "dbms.exec_allocs_per_txn",
        per(exec_allocs as f64, executed),
        "allocs/txn",
    );
    let mut by_proc: std::collections::BTreeMap<&str, u64> = Default::default();
    for e in &engines {
        for (name, ns) in &e.exec_by_proc {
            *by_proc.entry(name).or_default() += ns;
        }
    }
    let exec_total: u64 = by_proc.values().sum();
    for name in TOP_PROCEDURES {
        let ns = by_proc.get(name).copied().unwrap_or(0);
        put(
            &format!("dbms.exec_share.{name}"),
            100.0 * per(ns as f64, exec_total),
            "%",
        );
    }
    put(
        "dbms.exec_migrating_ns_p50",
        quantile(&pooled(|e| &e.exec_migrating_ns), 0.5),
        "ns",
    );
    put(
        "dbms.chunk_us_p50",
        quantile(&pooled(|e| &e.chunk_ns), 0.5) / 1e3,
        "us",
    );
    let moved = first.map_or(0, |e| e.moved_bytes) as f64;
    let rate = if l.chunk_s > 0.0 {
        moved / 1e6 / l.chunk_s
    } else {
        0.0
    };
    put("dbms.migrate_mb_per_s", rate, "MB/s");
    put(
        "dbms.chunks",
        first.map_or(0, |e| e.chunk_ns.len()) as f64,
        "count",
    );
    put("dbms.load_s", l.load_s, "s");
    put("dbms.total_s", l.dbms_s(), "s");

    put("sim.recorder_ns", per(l.recorder_s * 1e9, arrivals), "ns");
    put("sim.other_s", l.other_s(), "s");
    put("sim.total_s", l.recorder_s + l.other_s(), "s");
    put("sim.arrivals", arrivals as f64, "count");
    put("sim.executed", executed as f64, "count");
    put("sim.dropped", c.dropped as f64, "count");
    put(
        "sim.useful_pct",
        100.0 * per(executed as f64, arrivals),
        "%",
    );
    put("fail_pct", c.fail_pct, "%");
    put("sla_violation_s", c.sla_violation_s, "s");
    put("short_slot_pct", c.short_slot_pct, "%");

    let ticks: Vec<&timed::TickSample> = rounds.iter().flat_map(|(r, _)| &r.ticks).collect();
    let tick_ns: Vec<u64> = ticks.iter().map(|t| t.tick_ns).collect();
    let plan_ns: Vec<u64> = ticks
        .iter()
        .filter(|t| t.planned)
        .map(|t| t.tick_ns - t.forecast_ns)
        .collect();
    put("core.tick_us_p50", quantile(&tick_ns, 0.5) / 1e3, "us");
    put("core.tick_us_p99", quantile(&tick_ns, 0.99) / 1e3, "us");
    put("core.plan_us_p50", quantile(&plan_ns, 0.5) / 1e3, "us");
    put("core.ticks", c.ticks as f64, "count");
    put("core.reconfigs", c.moves as f64, "count");
    put("core.total_s", l.core_s, "s");

    let fc: Vec<u64> = rounds
        .iter()
        .filter_map(|(r, _)| r.forecast_log.as_ref())
        .flat_map(|log| log.forecast_ns())
        .collect();
    put("forecast.forecast_us_p50", quantile(&fc, 0.5) / 1e3, "us");
    put("forecast.forecast_us_p99", quantile(&fc, 0.99) / 1e3, "us");
    put("forecast.seed_s", l.forecast_seed_s, "s");
    put("forecast.total_s", l.forecast_s, "s");

    let settled = &reps[1];
    put(
        "proc.allocs_per_arrival",
        per(settled.run_allocs as f64, arrivals),
        "allocs/arrival",
    );
    put(
        "proc.allocs_per_tick",
        per(settled.run_allocs as f64, c.ticks),
        "allocs/tick",
    );
    put("trace.run_s", l.run_s, "s");
    put(
        "trace.overhead_pct",
        100.0 * (l.run_s - untraced_run) / untraced_run,
        "%",
    );
    put("host.oncpu_pct", noise.oncpu_pct, "%");
    put("host.runq_wait_s", noise.runq_wait_s, "s");
    put("host.steal_s", noise.steal_s, "s");
    put("host.cpus", noise.cpus as f64, "count");
    put("host.ref_ms", ref_ms, "ms");

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{seed}.trace.jsonl", w.name()));
    if let Err(e) = spans::write(&path, &spans::events(&layer_tree(&l))) {
        failures.push(format!("writing {}: {e}", path.display()));
    }
    println!("trace: {}", path.display());
    println!(
        "layers: b2w {:.4} s, dbms {:.4} s, sim {:.4} s (recorder {:.4}, other {:.4}), \
         core {:.4} s, forecast {:.4} s, run {:.4} s",
        l.b2w_s,
        l.dbms_s(),
        l.recorder_s + l.other_s(),
        l.recorder_s,
        l.other_s(),
        l.core_s,
        l.forecast_s,
        l.run_s
    );
    m
}

/// The ledger as a span tree: `setup` and `run` roots, one child per
/// layer; the `run` span's self time is `sim.other_s`.
fn layer_tree(l: &Layers) -> Vec<Span> {
    let run = vec![
        Span::node(
            "core.tick",
            l.core_s + l.forecast_s,
            vec![Span::leaf("forecast", l.forecast_s)],
        ),
        Span::leaf("b2w.next_txn", l.b2w_s),
        Span::node(
            "dbms",
            l.dbms_s(),
            vec![
                Span::leaf("dbms.route", l.route_s),
                Span::leaf("dbms.exec", l.exec_s),
                Span::leaf("dbms.exec_migrating", l.exec_migrating_s),
                Span::leaf("dbms.migrate_chunk", l.chunk_s),
            ],
        ),
        Span::leaf("sim.recorder", l.recorder_s),
    ];
    vec![
        Span::node(
            "setup",
            l.setup_s,
            vec![Span::leaf("forecast.seed", l.forecast_seed_s)],
        ),
        // Within the drift tolerance the layers may exceed the run; the
        // span then covers them and its self time reads 0.
        Span::node("run", l.run_s.max(l.run_s - l.other_s()), run),
    ]
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of integer samples, as `f64` (0 when empty).
fn quantile(v: &[u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((s.len() as f64 * q).ceil() as usize).clamp(1, s.len());
    s[rank - 1] as f64
}

fn fmt_list(v: &[f64]) -> String {
    let parts: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
    format!("[{}]", parts.join(", "))
}

/// A JSON number with every digit the measurement has.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
