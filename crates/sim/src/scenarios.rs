//! Canned experiment scenarios shared by the benchmark binaries and the
//! integration tests.
//!
//! The §8.2 experiments replay B2W traffic at 10x speed: one trace minute
//! becomes [`TRACE_MINUTE_S`] wall seconds, while `D`, `Q`, `Q̂` keep their
//! wall-clock values — exactly the compression the paper applies so three
//! trace days fit in a 7.2-hour experiment. Helpers here build the
//! compressed load curves and the paper-configured controllers.

// Scenario construction quantises trace time into whole slots.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
use pstore_core::controller::baselines::{SimpleController, StaticController};
use pstore_core::controller::forecaster::{OracleForecaster, SparForecaster};
use pstore_core::controller::pstore::{PStoreConfig, PStoreController};
use pstore_core::controller::reactive::{ReactiveConfig, ReactiveController};
use pstore_core::params::SystemParams;
use pstore_core::planner::{Planner, PlannerConfig};
use pstore_forecast::generators::B2wLoadModel;
use pstore_forecast::spar::SparConfig;
use pstore_forecast::TimeSeries;

/// Wall seconds per trace minute under the paper's 10x speed-up.
pub const TRACE_MINUTE_S: f64 = 6.0;

/// Peak transaction rate of the compressed benchmark (txn/s); the paper's
/// Fig 9 peaks near 2 500 txn/s.
pub const PEAK_TXN_RATE: f64 = 2_500.0;

/// Training days used to fit SPAR before the evaluation window (§7).
pub const TRAINING_DAYS: usize = 28;

/// A full experiment trace: per-minute request curve plus the derived
/// wall-second transaction curve and per-tick series.
#[derive(Debug, Clone)]
pub struct ExperimentTrace {
    /// Per-trace-minute load (txn/s units after scaling), training + eval.
    pub minutes: TimeSeries,
    /// First evaluation minute (end of the training prefix).
    pub eval_start_min: usize,
    /// Per-wall-second txn/s curve for the evaluation window, compressed
    /// 10x (6 wall-seconds per trace minute).
    pub wall_seconds: Vec<f64>,
}

impl ExperimentTrace {
    /// Builds a trace with `eval_days` of evaluation data after the
    /// standard training prefix, using the synthetic B2W model.
    pub fn b2w(eval_days: usize, seed: u64) -> Self {
        Self::from_model(
            &B2wLoadModel {
                seed,
                ..B2wLoadModel::default()
            },
            eval_days,
        )
    }

    /// Builds a trace from a custom load model.
    pub fn from_model(model: &B2wLoadModel, eval_days: usize) -> Self {
        let total_days = TRAINING_DAYS + eval_days;
        let raw = model.generate(total_days);
        // Scale requests/minute to txn/s so the evaluation peak lands at
        // PEAK_TXN_RATE.
        let eval_start_min = TRAINING_DAYS * 1440;
        let peak = raw.values()[eval_start_min..]
            .iter()
            .copied()
            .fold(0.0, f64::max);
        let minutes = raw.scaled(PEAK_TXN_RATE / peak);
        let wall_seconds = compress_minutes(&minutes.values()[eval_start_min..]);
        ExperimentTrace {
            minutes,
            eval_start_min,
            wall_seconds,
        }
    }

    /// The per-minute training prefix (txn/s units).
    pub fn training_minutes(&self) -> &[f64] {
        &self.minutes.values()[..self.eval_start_min]
    }

    /// The per-minute evaluation window (txn/s units).
    pub fn eval_minutes(&self) -> &[f64] {
        &self.minutes.values()[self.eval_start_min..]
    }
}

/// Expands a per-trace-minute curve into a per-wall-second curve under the
/// 10x compression (each minute becomes [`TRACE_MINUTE_S`] seconds).
pub fn compress_minutes(minutes: &[f64]) -> Vec<f64> {
    let per_min = TRACE_MINUTE_S as usize;
    let mut out = Vec::with_capacity(minutes.len() * per_min);
    for w in minutes.windows(2) {
        for k in 0..per_min {
            let f = k as f64 / per_min as f64;
            out.push(w[0] * (1.0 - f) + w[1] * f);
        }
    }
    if let Some(&last) = minutes.last() {
        out.extend(std::iter::repeat_n(last, per_min));
    }
    out
}

/// Ticks (controller intervals) per trace day in the compressed detailed
/// simulation: one tick per 5 trace minutes.
pub const TICKS_PER_DAY: usize = 288;

/// The planner configured for the compressed timeline (30-second wall
/// intervals).
pub fn compressed_planner(params: &SystemParams, q: f64) -> Planner {
    Planner::new(PlannerConfig {
        q,
        d_intervals: params.d.as_secs_f64() / 30.0,
        partitions_per_node: params.partitions_per_node,
        max_machines: params.max_machines,
    })
}

/// SPAR configured for 5-trace-minute ticks (period = 288 ticks per day,
/// `n = 7` days, `m = 6` ticks = 30 trace minutes — the paper's n/m scaled
/// to tick units).
pub fn tick_spar_config() -> SparConfig {
    SparConfig {
        period: TICKS_PER_DAY,
        n_periods: 7,
        m_recent: 6,
        taus: vec![1, 3, 6, 12],
        ridge_lambda: 1e-4,
        max_rows: 20_000,
    }
}

/// The paper-default P-Store controller with a live SPAR forecaster, seeded
/// with the trace's training prefix.
pub fn pstore_spar(
    trace: &ExperimentTrace,
    params: &SystemParams,
) -> PStoreController<SparForecaster> {
    let mut forecaster =
        SparForecaster::new(tick_spar_config(), 7 * TICKS_PER_DAY, 40 * TICKS_PER_DAY);
    let train_ticks = per_tick(trace.training_minutes());
    forecaster.seed(&train_ticks);
    PStoreController::new(
        compressed_planner(params, params.q),
        forecaster,
        PStoreConfig {
            horizon: 48,
            prediction_inflation: 1.15,
            scale_in_confirmations: 3,
            emergency_rate_multiplier: 1.0,
            initial_machines: initial_machines_for(trace, params),
        },
    )
}

/// The P-Store controller with a perfect-prediction oracle over the
/// evaluation window.
pub fn pstore_oracle(
    trace: &ExperimentTrace,
    params: &SystemParams,
) -> PStoreController<OracleForecaster> {
    let eval_ticks = per_tick(trace.eval_minutes());
    PStoreController::new(
        compressed_planner(params, params.q),
        OracleForecaster::new(eval_ticks),
        PStoreConfig {
            horizon: 48,
            prediction_inflation: 1.15,
            scale_in_confirmations: 3,
            emergency_rate_multiplier: 1.0,
            initial_machines: initial_machines_for(trace, params),
        },
    )
}

/// The E-Store-style reactive baseline with the paper's parameters.
pub fn reactive_default(trace: &ExperimentTrace, params: &SystemParams) -> ReactiveController {
    ReactiveController::new(ReactiveConfig {
        q: params.q,
        q_hat: params.q_hat,
        trigger_fraction: 0.95,
        headroom: 0.10,
        smoothing_window: 3,
        scale_in_patience: 6,
        max_machines: params.max_machines,
        initial_machines: initial_machines_for(trace, params),
    })
}

/// Static allocation at `n` machines.
pub fn static_alloc(n: u32) -> StaticController {
    StaticController::new(n)
}

/// The "Simple" day/night schedule in tick units: `day` machines between
/// 08:00 and 23:00 trace time, `night` otherwise.
pub fn simple_schedule(day: u32, night: u32) -> SimpleController {
    SimpleController::new(TICKS_PER_DAY, 8 * 12, 23 * 12, day, night)
}

/// The planner configured for real-time 5-minute intervals (no 10x
/// compression), as used by the long-horizon §8.3 simulations.
pub fn realtime_planner(params: &SystemParams, q: f64) -> Planner {
    Planner::new(PlannerConfig {
        q,
        d_intervals: params.d.as_secs_f64() / 300.0,
        partitions_per_node: params.partitions_per_node,
        max_machines: params.max_machines,
    })
}

/// P-Store with live SPAR for the slot-based fast simulator: ticks are
/// five real minutes; the forecaster is seeded with `train_minutes`.
pub fn pstore_spar_fast(
    train_minutes: &[f64],
    eval_first_load: f64,
    params: &SystemParams,
    q: f64,
) -> PStoreController<SparForecaster> {
    let mut forecaster =
        SparForecaster::new(tick_spar_config(), 7 * TICKS_PER_DAY, 40 * TICKS_PER_DAY);
    forecaster.seed(&per_tick(train_minutes));
    PStoreController::new(
        realtime_planner(params, q),
        forecaster,
        PStoreConfig {
            horizon: 48,
            prediction_inflation: 1.15,
            scale_in_confirmations: 3,
            emergency_rate_multiplier: 1.0,
            initial_machines: ((eval_first_load * 1.15 / q).ceil() as u32)
                .clamp(1, params.max_machines),
        },
    )
}

/// P-Store for the fast simulator with an explicit planner (ablation
/// studies pass planners with modified options).
pub fn pstore_with_planner_fast(
    train_minutes: &[f64],
    eval_first_load: f64,
    params: &SystemParams,
    planner: Planner,
) -> PStoreController<SparForecaster> {
    let q = planner.config().q;
    let mut forecaster =
        SparForecaster::new(tick_spar_config(), 7 * TICKS_PER_DAY, 40 * TICKS_PER_DAY);
    forecaster.seed(&per_tick(train_minutes));
    PStoreController::new(
        planner,
        forecaster,
        PStoreConfig {
            horizon: 48,
            prediction_inflation: 1.15,
            scale_in_confirmations: 3,
            emergency_rate_multiplier: 1.0,
            initial_machines: ((eval_first_load * 1.15 / q).ceil() as u32)
                .clamp(1, params.max_machines),
        },
    )
}

/// A greedy-lookahead controller (DP ablation) for the fast simulator.
pub fn greedy_fast(
    train_minutes: &[f64],
    eval_first_load: f64,
    params: &SystemParams,
    q: f64,
) -> pstore_core::controller::GreedyLookahead<SparForecaster> {
    let mut forecaster =
        SparForecaster::new(tick_spar_config(), 7 * TICKS_PER_DAY, 40 * TICKS_PER_DAY);
    forecaster.seed(&per_tick(train_minutes));
    pstore_core::controller::GreedyLookahead::new(
        forecaster,
        48,
        q,
        1.15,
        params.max_machines,
        ((eval_first_load * 1.15 / q).ceil() as u32).clamp(1, params.max_machines),
    )
}

/// P-Store with a perfect oracle for the fast simulator.
pub fn pstore_oracle_fast(
    eval_minutes: &[f64],
    params: &SystemParams,
    q: f64,
) -> PStoreController<OracleForecaster> {
    let first = eval_minutes.first().copied().unwrap_or(0.0);
    PStoreController::new(
        realtime_planner(params, q),
        OracleForecaster::new(per_tick(eval_minutes)),
        PStoreConfig {
            horizon: 48,
            prediction_inflation: 1.15,
            scale_in_confirmations: 3,
            emergency_rate_multiplier: 1.0,
            initial_machines: ((first * 1.15 / q).ceil() as u32).clamp(1, params.max_machines),
        },
    )
}

/// Reactive baseline for the fast simulator with a configurable headroom
/// buffer (the knob swept in Fig 12).
pub fn reactive_fast(
    eval_first_load: f64,
    params: &SystemParams,
    headroom: f64,
) -> ReactiveController {
    ReactiveController::new(ReactiveConfig {
        q: params.q,
        q_hat: params.q_hat,
        trigger_fraction: 0.95,
        headroom,
        smoothing_window: 3,
        scale_in_patience: 6,
        max_machines: params.max_machines,
        initial_machines: ((eval_first_load * (1.0 + headroom) / params.q).ceil() as u32)
            .clamp(1, params.max_machines),
    })
}

/// Machines needed for the load at the start of the evaluation window.
fn initial_machines_for(trace: &ExperimentTrace, params: &SystemParams) -> u32 {
    let first = trace.eval_minutes().first().copied().unwrap_or(0.0);
    ((first * 1.15 / params.q).ceil() as u32).clamp(1, params.max_machines)
}

/// Averages a per-minute series into per-tick (5-minute) values.
pub fn per_tick(minutes: &[f64]) -> Vec<f64> {
    minutes
        .chunks(5)
        .map(|w| w.iter().sum::<f64>() / w.len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp)] // tests assert exact rational arithmetic
    use super::*;

    #[test]
    fn trace_compression_preserves_shape() {
        let trace = ExperimentTrace::b2w(1, 77);
        assert_eq!(trace.eval_minutes().len(), 1440);
        assert_eq!(trace.wall_seconds.len(), 1440 * 6);
        // Peak scaled to the target rate.
        let peak = trace.eval_minutes().iter().copied().fold(0.0, f64::max);
        assert!((peak - PEAK_TXN_RATE).abs() < 1e-6);
        // Compressed curve interpolates between the minute values.
        let peak_wall = trace.wall_seconds.iter().copied().fold(0.0, f64::max);
        assert!((peak_wall - PEAK_TXN_RATE).abs() / PEAK_TXN_RATE < 0.01);
    }

    #[test]
    fn training_prefix_is_four_weeks() {
        let trace = ExperimentTrace::b2w(2, 3);
        assert_eq!(trace.training_minutes().len(), TRAINING_DAYS * 1440);
        assert_eq!(trace.eval_minutes().len(), 2 * 1440);
    }

    #[test]
    fn pstore_spar_controller_is_ready_after_seeding() {
        let trace = ExperimentTrace::b2w(1, 5);
        let params = SystemParams::b2w_paper();
        let mut c = pstore_spar(&trace, &params);
        assert!(c.forecaster_mut().is_ready());
    }

    #[test]
    fn per_tick_downsampling() {
        let mins: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ticks = per_tick(&mins);
        assert_eq!(ticks, vec![2.0, 7.0]);
    }

    #[test]
    fn fast_sim_builders_produce_working_controllers() {
        use crate::fast::{run_fast, FastSimConfig};
        let params = SystemParams::b2w_paper();
        let cfg = FastSimConfig {
            params: params.clone(),
            slot_duration_s: 60.0,
            tick_every_slots: 5,
            record_timeline: false,
            prov_events: false,
        };
        // Short synthetic month: train + 3 eval days.
        let raw = pstore_forecast::generators::B2wLoadModel {
            seed: 8,
            ..Default::default()
        }
        .generate(TRAINING_DAYS + 3);
        let eval_start = TRAINING_DAYS * 1440;
        let scaled = raw.scaled(
            2_500.0
                / raw.values()[eval_start..]
                    .iter()
                    .copied()
                    .fold(0.0, f64::max),
        );
        let train = &scaled.values()[..eval_start];
        let eval = &scaled.values()[eval_start..];

        let spar = run_fast(
            &cfg,
            eval,
            &mut pstore_spar_fast(train, eval[0], &params, params.q),
        );
        assert!(spar.reconfigurations > 0);
        let planner = realtime_planner(&params, params.q);
        let custom = run_fast(
            &cfg,
            eval,
            &mut pstore_with_planner_fast(train, eval[0], &params, planner),
        );
        assert!(custom.reconfigurations > 0);
        // Same planner/forecaster settings -> same behaviour.
        assert_eq!(spar.cost_machine_slots, custom.cost_machine_slots);

        let greedy = run_fast(
            &cfg,
            eval,
            &mut greedy_fast(train, eval[0], &params, params.q),
        );
        assert!(
            greedy.cost_machine_slots >= spar.cost_machine_slots,
            "greedy {} should cost at least the DP {}",
            greedy.cost_machine_slots,
            spar.cost_machine_slots
        );

        let reactive = run_fast(&cfg, eval, &mut reactive_fast(eval[0], &params, 0.1));
        assert!(reactive.total_slots == eval.len() as u64);
    }

    #[test]
    fn initial_machines_cover_the_starting_load() {
        let trace = ExperimentTrace::b2w(1, 9);
        let params = SystemParams::b2w_paper();
        let n = initial_machines_for(&trace, &params);
        let first = trace.eval_minutes()[0];
        assert!(n as f64 * params.q >= first);
    }
}
