//! The four workloads and one measured repeat of each. Every input is
//! generated here from the workload seed; the simulators only ever see
//! the generated load curves, configurations and controllers.

use crate::alloc;
use crate::timed::{ForecastLog, TimedForecaster, TimedStrategy};
use pstore_core::controller::forecaster::SparForecaster;
use pstore_core::controller::pstore::{PStoreConfig, PStoreController};
use pstore_core::controller::Strategy;
use pstore_core::params::SystemParams;
use pstore_forecast::generators::B2wLoadModel;
use pstore_sim::detailed::{run_detailed, DetailedSimConfig, DetailedSimResult};
use pstore_sim::fast::{run_fast, FastSimConfig, FastSimResult};
use pstore_sim::scenarios::{
    compressed_planner, per_tick, realtime_planner, static_alloc, tick_spar_config,
    ExperimentTrace, TICKS_PER_DAY, TRACE_MINUTE_S, TRAINING_DAYS,
};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Steady,
    Overload,
    ElasticDay,
    CapacityMonths,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Steady,
        Workload::Overload,
        Workload::ElasticDay,
        Workload::CapacityMonths,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Overload => "overload",
            Workload::ElasticDay => "elastic_day",
            Workload::CapacityMonths => "capacity_months",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_detailed(self) -> bool {
        self != Workload::CapacityMonths
    }
}

/// Measured saturation of one node (Fig 7), in txn/s.
const NODE_SATURATION: f64 = 438.0;

/// `steady`: a static 4-machine cluster at 70% of its saturation.
const STEADY_MACHINES: u32 = 4;
const STEADY_RATE: f64 = 0.7 * 4.0 * NODE_SATURATION;
const STEADY_SECONDS: usize = 240;
/// Ten times the paper-default SKU count: a database several times L2.
const STEADY_SKUS: usize = 50_000;

/// `overload`: one machine at nine times its saturation.
const OVERLOAD_RATE: f64 = 9.0 * NODE_SATURATION;
const OVERLOAD_SECONDS: usize = 360;

/// `elastic_day`: trace hours [2, 8) of the first evaluation day, which
/// hold the scale-in into the overnight trough and the scale-out of the
/// morning ramp.
const ELASTIC_FROM_H: usize = 2;
const ELASTIC_TO_H: usize = 8;
/// The B2W day is the one `fig9_comparison` replays. The workload seed
/// drives arrivals, service times and transactions, not the load curve:
/// a window this short holds one or two moves, and where they fall on a
/// differently shaped day swings the mean machine count by more than 10%.
const ELASTIC_TRACE_SEED: u64 = 0x0709;

/// `capacity_months`: the Fig 12/13 evaluation window of the 4.5-month
/// model (Black Friday is day 115 of 135).
const CAPACITY_EVAL_DAYS: usize = 107;
/// Mean load of the evaluation window (txn/s). The workload seed shapes
/// the months (noise, promotions); every seed's trace is scaled to this
/// mean so that seeds do not change the amount of work.
const CAPACITY_MEAN: f64 = 1_000.0;

/// Seed of the generated B2W transaction stream, derived from the
/// workload seed so that one argument fixes every input.
fn txn_seed(seed: u64) -> u64 {
    seed ^ 0xB2D1_0000
}

/// Deterministic outputs of one repeat. Every repeat of a run, and every
/// run with the same seed, must reproduce them exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Counters {
    /// Simulated arrivals (detailed) or load slots (fast).
    pub arrivals: u64,
    pub committed: u64,
    pub aborted: u64,
    pub dropped: u64,
    pub ticks: u64,
    /// Moves the simulator accepted.
    pub moves: u64,
    /// Moves that completed within the horizon.
    pub reconfigs: u64,
    pub sla_violation_s: f64,
    pub avg_machines: f64,
    pub short_slot_pct: f64,
    pub fail_pct: f64,
}

impl Counters {
    /// One line of `expected.tsv` (without the workload and seed).
    pub fn record(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.9}\t{:.9}\t{:.9}\t{:.9}",
            self.arrivals,
            self.committed,
            self.aborted,
            self.dropped,
            self.ticks,
            self.moves,
            self.reconfigs,
            self.sla_violation_s,
            self.avg_machines,
            self.short_slot_pct,
            self.fail_pct
        )
    }
}

/// Everything a detailed repeat leaves for the per-layer replays.
pub struct DetailedRun {
    pub cfg: DetailedSimConfig,
    pub result: DetailedSimResult,
    pub initial_machines: u32,
    /// Simulated start time of each accepted move, with its endpoints.
    pub moves: Vec<(f64, u32, u32)>,
}

/// One measured repeat: set-up plus a full horizon.
pub struct Repeat {
    pub setup_s: f64,
    pub run_s: f64,
    pub setup_allocs: u64,
    pub run_allocs: u64,
    pub counters: Counters,
    /// SPAR seeding time inside the set-up (0 without a forecaster).
    pub forecast_seed_s: f64,
    /// Per-tick timings and forecaster log (traced repeats only).
    pub ticks: Vec<crate::timed::TickSample>,
    pub forecast_log: Option<Arc<ForecastLog>>,
    pub detailed: Option<DetailedRun>,
}

/// Runs one repeat of `workload`. `traced` times every controller and
/// forecaster call.
pub fn run_once(workload: Workload, seed: u64, traced: bool) -> Repeat {
    let start = (Instant::now(), alloc::allocs());
    match workload {
        Workload::Steady => {
            let mut cfg = detailed_config(vec![STEADY_RATE; STEADY_SECONDS], seed);
            cfg.workload.num_skus = STEADY_SKUS;
            let strategy = static_alloc(STEADY_MACHINES);
            detailed(cfg, strategy, None, start, 0.0, traced)
        }
        Workload::Overload => {
            let mut cfg = detailed_config(vec![OVERLOAD_RATE; OVERLOAD_SECONDS], seed);
            // The fig9 --quick population (about 2.4 MB, fits in L2).
            cfg.workload.num_skus = 2_000;
            cfg.workload.initial_carts = 600;
            cfg.num_slots = 3_600;
            cfg.warmup_txns = 40_000;
            detailed(cfg, static_alloc(1), None, start, 0.0, traced)
        }
        Workload::ElasticDay => {
            let params = SystemParams::b2w_paper();
            let trace = ExperimentTrace::b2w(1, ELASTIC_TRACE_SEED);
            let per_min = TRACE_MINUTE_S as usize;
            let (from_min, to_min) = (ELASTIC_FROM_H * 60, ELASTIC_TO_H * 60);
            let load = trace.wall_seconds[from_min * per_min..to_min * per_min].to_vec();
            // The forecaster has seen every tick before the window opens.
            let history = &trace.minutes.values()[..trace.eval_start_min + from_min];
            let (forecaster, seed_s) = spar(&per_tick(history));
            let log = traced.then(|| Arc::new(ForecastLog::default()));
            let first = trace.eval_minutes()[from_min];
            let controller = PStoreController::new(
                compressed_planner(&params, params.q),
                TimedForecaster::new(forecaster, log.clone()),
                pstore_config(first, &params),
            );
            let cfg = detailed_config(load, seed);
            detailed(cfg, controller, log, start, seed_s, traced)
        }
        Workload::CapacityMonths => capacity_months(seed, start, traced),
    }
}

/// The paper's detailed-sim calibration with every environment-driven
/// switch pinned: one engine shard, no provisioning events.
fn detailed_config(load: Vec<f64>, seed: u64) -> DetailedSimConfig {
    let mut cfg = DetailedSimConfig::paper_defaults(load, seed);
    cfg.workload.seed = txn_seed(seed);
    cfg.shards = 1;
    cfg.shard_spans = false;
    cfg.prov_events = false;
    cfg.txn_sample_every = 0;
    cfg
}

/// A SPAR forecaster seeded with `ticks` of history, and the seeding time.
fn spar(ticks: &[f64]) -> (SparForecaster, f64) {
    let mut f = SparForecaster::new(tick_spar_config(), 7 * TICKS_PER_DAY, 40 * TICKS_PER_DAY);
    let t = Instant::now();
    f.seed(ticks);
    (f, t.elapsed().as_secs_f64())
}

/// The paper-default P-Store settings (`pstore_spar`), starting with
/// enough machines for `first_load`.
fn pstore_config(first_load: f64, params: &SystemParams) -> PStoreConfig {
    let initial = ((first_load * 1.15 / params.q).ceil() as u32).clamp(1, params.max_machines);
    PStoreConfig {
        horizon: 48,
        prediction_inflation: 1.15,
        scale_in_confirmations: 3,
        emergency_rate_multiplier: 1.0,
        initial_machines: initial,
    }
}

fn detailed<S: Strategy>(
    cfg: DetailedSimConfig,
    strategy: S,
    log: Option<Arc<ForecastLog>>,
    (t0, a0): (Instant, u64),
    forecast_seed_s: f64,
    traced: bool,
) -> Repeat {
    let max = cfg.params.max_machines;
    let initial_machines = strategy.initial_machines().clamp(1, max);
    let mut timed = TimedStrategy::new(strategy, max, log.clone(), traced);
    let result = run_detailed(&cfg, &mut timed);
    let end = Instant::now();
    let a_end = alloc::allocs();
    let (run_start, a_run) = timed
        .run_start
        .expect("the detailed simulator ticks at time zero");
    let arrivals: u64 = result.seconds.iter().map(|s| s.throughput).sum();
    let short = result
        .seconds
        .iter()
        .filter(|s| {
            // Seconds past the horizon only drain the queues.
            let offered = usize::try_from(s.second)
                .ok()
                .and_then(|i| cfg.load.get(i))
                .copied()
                .unwrap_or(0.0);
            offered > s.machines * cfg.params.q_hat
        })
        .count();
    let counters = Counters {
        arrivals,
        committed: result.committed,
        aborted: result.aborted,
        dropped: result.dropped,
        ticks: timed.ticks,
        moves: timed.moves.len() as u64,
        reconfigs: result.reconfig_spans.len() as u64,
        sla_violation_s: result.violations.p99 as f64,
        avg_machines: result.avg_machines,
        short_slot_pct: pct(short as f64, result.seconds.len() as f64),
        fail_pct: pct(
            (arrivals - result.committed.min(arrivals)) as f64,
            arrivals as f64,
        ),
    };
    // Monitor ticks fire every `monitor_interval_s` from time zero, so the
    // n-th accepted tick's simulated time follows from its index.
    let moves = timed
        .moves
        .iter()
        .map(|&(interval, from, to)| (interval as f64 * cfg.monitor_interval_s, from, to))
        .collect();
    Repeat {
        setup_s: run_start.duration_since(t0).as_secs_f64(),
        run_s: end.duration_since(run_start).as_secs_f64(),
        setup_allocs: a_run - a0,
        run_allocs: a_end - a_run,
        counters,
        forecast_seed_s,
        ticks: std::mem::take(&mut timed.samples),
        forecast_log: log,
        detailed: Some(DetailedRun {
            cfg,
            result,
            initial_machines,
            moves,
        }),
    }
}

fn capacity_months(seed: u64, (t0, a0): (Instant, u64), traced: bool) -> Repeat {
    let params = SystemParams::b2w_paper();
    let (model, _) = B2wLoadModel::four_and_a_half_months(seed);
    let raw = model.generate(TRAINING_DAYS + CAPACITY_EVAL_DAYS);
    let eval_start = TRAINING_DAYS * 1440;
    let scaled = raw.scaled(CAPACITY_MEAN / mean(&raw.values()[eval_start..]));
    let (train, eval) = scaled.values().split_at(eval_start);
    let (forecaster, seed_s) = spar(&per_tick(train));
    let log = traced.then(|| Arc::new(ForecastLog::default()));
    let controller = PStoreController::new(
        realtime_planner(&params, params.q),
        TimedForecaster::new(forecaster, log.clone()),
        pstore_config(eval[0], &params),
    );
    let cfg = FastSimConfig {
        params: params.clone(),
        slot_duration_s: 60.0,
        tick_every_slots: 5,
        record_timeline: true,
        prov_events: false,
    };
    let mut timed = TimedStrategy::new(controller, params.max_machines, log.clone(), traced);
    let a_run = alloc::allocs();
    let run_start = Instant::now();
    let r: FastSimResult = run_fast(&cfg, eval, &mut timed);
    let run_s = run_start.elapsed().as_secs_f64();
    let a_end = alloc::allocs();
    // Load above effective capacity is load the cluster could not serve:
    // the slot model's counterpart of arrivals that do not commit.
    let (mut unserved, mut offered) = (0.0, 0.0);
    for (&load, &cap) in eval.iter().zip(&r.capacity_timeline) {
        unserved += (load - f64::from(cap)).max(0.0);
        offered += load;
    }
    let counters = Counters {
        arrivals: r.total_slots,
        committed: 0,
        aborted: 0,
        dropped: 0,
        ticks: timed.ticks,
        moves: timed.moves.len() as u64,
        reconfigs: r.reconfigurations,
        // A slot short of capacity violates the SLA for its whole length.
        sla_violation_s: r.insufficient_slots as f64 * cfg.slot_duration_s,
        avg_machines: r.avg_machines(),
        short_slot_pct: r.pct_insufficient(),
        fail_pct: pct(unserved, offered),
    };
    Repeat {
        setup_s: run_start.duration_since(t0).as_secs_f64(),
        run_s,
        setup_allocs: a_run - a0,
        run_allocs: a_end - a_run,
        counters,
        forecast_seed_s: seed_s,
        ticks: std::mem::take(&mut timed.samples),
        forecast_log: log,
        detailed: None,
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}
