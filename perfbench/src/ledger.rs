//! The per-layer ledger of a traced repeat.
//!
//! The control-loop layers (`core`, `forecast`) are timed inside the real
//! run by the decorators in `timed`. The other layers are replayed through
//! their public functions with the run's configuration and seed, each with
//! the call counts the run reported:
//!
//! * `b2w`: `WorkloadGenerator::next_txn` once per arrival;
//! * `dbms`: `Cluster::slot_of_routing` once per arrival, `submit` +
//!   `drain_fates_into` once per executed transaction, and the run's moves
//!   replayed chunk by chunk through `migrate_chunk` at the simulator's
//!   chunk budget, between the same arrivals as in the run;
//! * `sim`: `LatencyRecorder::record_attributed` once per arrival and
//!   `advance_to` once per second.
//!
//! Whatever the run spent outside these layers (event heap, per-second
//! arrival sort, queue model) is `sim.other_s`.

use crate::alloc;
use crate::workload::{DetailedRun, Repeat};
use pstore_b2w::generator::WorkloadGenerator;
use pstore_b2w::procedures::B2wTxn;
use pstore_b2w::schema::b2w_catalog;
use pstore_dbms::cluster::{Cluster, ClusterConfig};
use pstore_dbms::shard::TxnFate;
use pstore_dbms::txn::Procedure;
use pstore_sim::latency::LatencyRecorder;
use std::collections::BTreeMap;
use std::time::Instant;

/// Procedures whose share of engine time the ledger reports: the five
/// that take most of it on the detailed workloads.
pub const TOP_PROCEDURES: [&str; 5] = [
    "GetCart",
    "AddLineToCart",
    "DeleteCheckout",
    "GetCheckout",
    "ReserveCart",
];

/// Arrivals generated, routed and executed per replay batch.
const BATCH: usize = 1024;

/// Engine-side numbers of a detailed replay.
#[derive(Default)]
pub struct EngineReplay {
    pub load_s: f64,
    pub gen_s: f64,
    pub gen_allocs: u64,
    pub route_s: f64,
    /// Execution time of each transaction, split by whether a
    /// reconfiguration was in flight.
    pub exec_ns: Vec<u64>,
    pub exec_migrating_ns: Vec<u64>,
    pub exec_allocs: u64,
    pub exec_by_proc: BTreeMap<&'static str, u64>,
    pub chunk_ns: Vec<u64>,
    pub moved_bytes: u64,
    pub recorder_s: f64,
    /// Output-check failures found while replaying.
    pub failures: Vec<String>,
}

/// A move being replayed.
struct Move {
    /// Arrival index at which the move must be complete.
    end_idx: u64,
    chunk_bytes: usize,
    /// Arrivals between two chunk events.
    every: f64,
    next_at: f64,
    next_pair: usize,
    /// Timer overhead to subtract from each timed chunk.
    timer_ns: u64,
}

pub fn replay_detailed(run: &DetailedRun, arrivals: u64, executed: u64) -> EngineReplay {
    let cfg = &run.cfg;
    let mut out = EngineReplay::default();
    let mut cluster = Cluster::new(
        b2w_catalog(),
        ClusterConfig {
            partitions_per_node: cfg.params.partitions_per_node,
            num_slots: cfg.num_slots,
        },
        run.initial_machines,
    );
    let mut gen = WorkloadGenerator::new(cfg.workload.clone());
    let mut fates: Vec<TxnFate> = Vec::new();
    let overhead = timer_overhead_ns();

    // The simulator's set-up, step for step.
    let t = Instant::now();
    for proc in gen.seed_stock_procedures() {
        let slot = cluster.slot_of_routing(&proc.routing_key());
        cluster.submit(proc, slot);
    }
    cluster.drain_fates_into(&mut fates);
    for txn in gen.initial_load() {
        let slot = cluster.slot_of_routing(&txn.routing_key());
        cluster.submit(txn, slot);
    }
    cluster.drain_fates_into(&mut fates);
    if fates.iter().any(|f| f.result.is_err()) {
        out.failures.push("replayed database load aborted".into());
    }
    for _ in 0..cfg.warmup_txns {
        let txn = gen.next_txn();
        let slot = cluster.slot_of_routing(&txn.routing_key());
        cluster.submit(txn, slot);
        if cluster.pending_fates() >= 4096 {
            fates.clear();
            cluster.drain_fates_into(&mut fates);
        }
    }
    fates.clear();
    cluster.drain_fates_into(&mut fates);
    fates.clear();
    out.load_s = t.elapsed().as_secs_f64();

    // Arrival index at which each simulated second begins.
    let mut second_start = Vec::with_capacity(run.result.seconds.len() + 1);
    let mut acc = 0u64;
    for s in &run.result.seconds {
        second_start.push(acc);
        acc += s.throughput;
    }
    second_start.push(acc);
    let index_at = |time: f64| -> u64 {
        let s = time.max(0.0) as usize;
        second_start[s.min(second_start.len() - 1)]
    };
    // (start index, end index, target) of each move the run accepted; a
    // move still running at the horizon is replayed to completion.
    let moves: Vec<(u64, u64, u32)> = run
        .moves
        .iter()
        .enumerate()
        .map(|(i, &(start, _, to))| {
            let end = run
                .result
                .reconfig_spans
                .get(i)
                .map_or(f64::INFINITY, |&(_, end)| end);
            (index_at(start), index_at(end), to)
        })
        .collect();
    let mut next_move = 0usize;
    let mut active: Option<Move> = None;

    let mut batch: Vec<B2wTxn> = Vec::with_capacity(BATCH);
    let mut slots: Vec<u64> = Vec::with_capacity(BATCH);
    let mut idx = 0u64;
    while idx < arrivals {
        let n = usize::try_from((arrivals - idx).min(BATCH as u64)).unwrap_or(BATCH);
        let a = alloc::allocs();
        let t = Instant::now();
        for _ in 0..n {
            batch.push(gen.next_txn());
        }
        out.gen_s += t.elapsed().as_secs_f64();
        out.gen_allocs += alloc::allocs() - a;
        let t = Instant::now();
        for txn in &batch {
            slots.push(cluster.slot_of_routing(&txn.routing_key()));
        }
        out.route_s += t.elapsed().as_secs_f64();
        for (txn, slot) in batch.drain(..).zip(slots.drain(..)) {
            if let Some(&(start, end, to)) = moves.get(next_move) {
                if idx >= start {
                    if let Some(mut m) = active.take() {
                        finish_move(&mut cluster, &mut m, &mut out);
                    }
                    active = begin_move(&mut cluster, run, idx, end, to, overhead, &mut out);
                    next_move += 1;
                }
            }
            let mut done = false;
            if let Some(m) = active.as_mut() {
                let due = idx as f64 >= m.next_at;
                if idx >= m.end_idx {
                    finish_move(&mut cluster, m, &mut out);
                    done = true;
                } else if due {
                    m.next_at += m.every;
                    done = chunk_event(&mut cluster, m, &mut out);
                }
            }
            if done {
                active = None;
            }
            // Bresenham: exactly `executed` of `arrivals` run, evenly
            // spread, as the simulator's queue model lets them through.
            let run_it = (idx + 1) * executed / arrivals > idx * executed / arrivals;
            idx += 1;
            if !run_it {
                continue;
            }
            let migrating = cluster.reconfiguring();
            let a = alloc::allocs();
            let t = Instant::now();
            cluster.submit(txn, slot);
            cluster.drain_fates_into(&mut fates);
            let ns = nanos(t).saturating_sub(overhead);
            out.exec_allocs += alloc::allocs() - a;
            if let Some(f) = fates.first() {
                *out.exec_by_proc.entry(f.proc).or_default() += ns;
            }
            fates.clear();
            if migrating {
                out.exec_migrating_ns.push(ns);
            } else {
                out.exec_ns.push(ns);
            }
        }
    }
    if let Some(mut m) = active.take() {
        finish_move(&mut cluster, &mut m, &mut out);
    }
    while let Some(&(_, end, to)) = moves.get(next_move) {
        if let Some(mut m) = begin_move(&mut cluster, run, idx, end, to, overhead, &mut out) {
            finish_move(&mut cluster, &mut m, &mut out);
        }
        next_move += 1;
    }
    out.recorder_s = replay_recorder(run);
    out
}

fn begin_move(
    cluster: &mut Cluster,
    run: &DetailedRun,
    idx: u64,
    end_idx: u64,
    to: u32,
    timer_ns: u64,
    out: &mut EngineReplay,
) -> Option<Move> {
    let cfg = &run.cfg;
    if to == cluster.active_nodes() {
        return None;
    }
    let db_bytes = cluster.total_bytes() as f64;
    let to_move = cluster.bytes_to_move(to) as f64;
    if let Err(e) = cluster.begin_reconfiguration(to) {
        out.failures
            .push(format!("replayed move to {to} machines refused: {e}"));
        return None;
    }
    // The simulator's chunk budget: one machine-pair stream is P partition
    // streams, each at db / D (Equation 3), paced every chunk interval.
    let stream_rate =
        f64::from(cfg.params.partitions_per_node) * db_bytes / cfg.params.d.as_secs_f64();
    let chunk = (stream_rate * cfg.chunk_pacing_s).max(1.0);
    let events = (to_move / chunk).ceil().max(1.0);
    let span = end_idx.saturating_sub(idx) as f64;
    let next_at = idx as f64;
    let chunk_bytes = chunk as usize;
    Some(Move {
        end_idx,
        chunk_bytes,
        timer_ns,
        every: span / events,
        next_at,
        next_pair: 0,
    })
}

/// Runs the remaining chunk events of a move back to back.
fn finish_move(cluster: &mut Cluster, m: &mut Move, out: &mut EngineReplay) {
    while !chunk_event(cluster, m, out) {}
}

/// One chunk event: up to the chunk budget of the next live pair, as the
/// simulator's `Chunk` event moves it. Returns whether the move completed.
fn chunk_event(cluster: &mut Cluster, m: &mut Move, out: &mut EngineReplay) -> bool {
    if !cluster.reconfiguring() {
        return true;
    }
    let pairs = cluster.pair_transfers().len();
    let Some(pair) = (0..pairs)
        .map(|k| (m.next_pair + k) % pairs.max(1))
        .find(|&i| !cluster.pair_transfers()[i].is_done())
    else {
        out.failures
            .push("replayed move has no live pair but did not complete".into());
        return true;
    };
    m.next_pair = pair + 1;
    let (rows0, bytes0) = (cluster.total_rows(), cluster.total_bytes());
    let mut remaining = m.chunk_bytes;
    let mut moved = 0usize;
    let mut done = false;
    let t = Instant::now();
    loop {
        let r = match cluster.migrate_chunk(pair, remaining.max(1)) {
            Ok(r) => r,
            Err(e) => {
                out.failures.push(format!("replayed chunk failed: {e}"));
                return true;
            }
        };
        moved += r.bytes;
        if r.reconfig_done {
            done = true;
            break;
        }
        if r.pair_done || r.bytes >= remaining || !r.slot_completed {
            break;
        }
        remaining -= r.bytes;
    }
    out.chunk_ns.push(nanos(t).saturating_sub(m.timer_ns));
    out.moved_bytes += moved as u64;
    let (rows1, bytes1) = (cluster.total_rows(), cluster.total_bytes());
    if (rows0, bytes0) != (rows1, bytes1) {
        out.failures.push(format!(
            "chunk did not conserve data: {rows0} rows / {bytes0} bytes before, \
             {rows1} / {bytes1} after"
        ));
    }
    if done {
        if let Err(e) = cluster.verify_integrity() {
            out.failures
                .push(format!("integrity check after replayed move: {e}"));
        }
    }
    done
}

/// Feeds the run's per-second arrival counts through a fresh recorder.
/// Latencies follow each second's recorded queue/exec/stall means with a
/// deterministic spread, so the per-second sort sees realistic input.
fn replay_recorder(run: &DetailedRun) -> f64 {
    let mut rec = LatencyRecorder::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let t = Instant::now();
    for s in &run.result.seconds {
        let n = s.throughput;
        let nf = n.max(1) as f64;
        let base = s.second as f64;
        for j in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = 0.5 + (x >> 11) as f64 / (1u64 << 53) as f64;
            let at = base + (j as f64 + 0.5) / nf;
            rec.record_attributed(
                at,
                s.attr_queue / nf * f,
                s.attr_exec / nf * f,
                s.attr_stall / nf,
            );
        }
        rec.advance_to(base + 1.0);
    }
    std::hint::black_box(rec.finish());
    t.elapsed().as_secs_f64()
}

/// Layer totals of one traced repeat and its replay, in seconds.
#[derive(Clone, Copy, Default)]
pub struct Layers {
    pub setup_s: f64,
    pub forecast_seed_s: f64,
    pub load_s: f64,
    pub run_s: f64,
    pub b2w_s: f64,
    pub route_s: f64,
    pub exec_s: f64,
    pub exec_migrating_s: f64,
    pub chunk_s: f64,
    pub recorder_s: f64,
    pub core_s: f64,
    pub forecast_s: f64,
}

impl Layers {
    pub fn of(rep: &Repeat, engine: Option<&EngineReplay>) -> Layers {
        let forecast_ns: u64 = rep.ticks.iter().map(|t| t.forecast_ns).sum();
        let tick_ns: u64 = rep.ticks.iter().map(|t| t.tick_ns).sum();
        let secs = |v: &[u64]| v.iter().sum::<u64>() as f64 / 1e9;
        let mut l = Layers {
            setup_s: rep.setup_s,
            forecast_seed_s: rep.forecast_seed_s,
            run_s: rep.run_s,
            core_s: (tick_ns - forecast_ns) as f64 / 1e9,
            forecast_s: forecast_ns as f64 / 1e9,
            ..Layers::default()
        };
        if let Some(e) = engine {
            l.load_s = e.load_s;
            l.b2w_s = e.gen_s;
            l.route_s = e.route_s;
            l.exec_s = secs(&e.exec_ns);
            l.exec_migrating_s = secs(&e.exec_migrating_ns);
            l.chunk_s = secs(&e.chunk_ns);
            l.recorder_s = e.recorder_s;
        }
        l
    }

    /// Field-wise median over rounds.
    pub fn median(rounds: &[Layers]) -> Layers {
        let m = |f: fn(&Layers) -> f64| crate::median(&rounds.iter().map(f).collect::<Vec<_>>());
        Layers {
            setup_s: m(|l| l.setup_s),
            forecast_seed_s: m(|l| l.forecast_seed_s),
            load_s: m(|l| l.load_s),
            run_s: m(|l| l.run_s),
            b2w_s: m(|l| l.b2w_s),
            route_s: m(|l| l.route_s),
            exec_s: m(|l| l.exec_s),
            exec_migrating_s: m(|l| l.exec_migrating_s),
            chunk_s: m(|l| l.chunk_s),
            recorder_s: m(|l| l.recorder_s),
            core_s: m(|l| l.core_s),
            forecast_s: m(|l| l.forecast_s),
        }
    }

    pub fn dbms_s(&self) -> f64 {
        self.route_s + self.exec_s + self.exec_migrating_s + self.chunk_s
    }

    /// What the run spent outside every measured layer.
    pub fn other_s(&self) -> f64 {
        self.run_s - (self.b2w_s + self.dbms_s() + self.recorder_s + self.core_s + self.forecast_s)
    }
}

/// Cost of an `Instant::now()` + `elapsed()` pair, subtracted from every
/// individually timed call.
fn timer_overhead_ns() -> u64 {
    let mut v: Vec<u64> = (0..10_001)
        .map(|_| {
            let t = Instant::now();
            nanos(t)
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2]
}

fn nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
