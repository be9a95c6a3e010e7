//! Decorators around the real controller and forecaster. They time the
//! control-loop layers from inside the real run without touching the
//! simulators. A detailed simulation ticks its controller first right
//! after its set-up, so the first tick also splits a run into set-up and
//! run phases.
//!
//! Untraced, a wrapper takes two clock readings per run and otherwise
//! forwards. Traced, it also times every call, keeping the samples in
//! memory.

use crate::alloc;
use pstore_core::controller::{Action, LoadForecaster, Observation, Strategy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Forecaster timings shared between a [`TimedForecaster`] and the
/// [`TimedStrategy`] whose controller owns it.
#[derive(Default)]
pub struct ForecastLog {
    /// Cumulative nanoseconds spent in `observe` and `forecast`.
    total_ns: AtomicU64,
    /// Duration of each `forecast` call, in nanoseconds.
    forecast_ns: Mutex<Vec<u64>>,
}

impl ForecastLog {
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    pub fn forecast_ns(&self) -> Vec<u64> {
        self.forecast_ns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

pub struct TimedForecaster<F> {
    inner: F,
    log: Option<Arc<ForecastLog>>,
}

impl<F: LoadForecaster> TimedForecaster<F> {
    /// Wraps `inner`; with `log` set, every call is timed into it.
    pub fn new(inner: F, log: Option<Arc<ForecastLog>>) -> Self {
        TimedForecaster { inner, log }
    }
}

impl<F: LoadForecaster> LoadForecaster for TimedForecaster<F> {
    fn observe(&mut self, load: f64) {
        let Some(log) = &self.log else {
            return self.inner.observe(load);
        };
        let t = Instant::now();
        self.inner.observe(load);
        log.total_ns.fetch_add(nanos(t), Ordering::Relaxed);
    }

    fn forecast(&mut self, horizon: usize) -> Option<Vec<f64>> {
        let Some(log) = &self.log else {
            return self.inner.forecast(horizon);
        };
        let t = Instant::now();
        let out = self.inner.forecast(horizon);
        let ns = nanos(t);
        log.total_ns.fetch_add(ns, Ordering::Relaxed);
        log.forecast_ns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(ns);
        out
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// One timed controller tick.
#[derive(Clone, Copy)]
pub struct TickSample {
    pub tick_ns: u64,
    /// Part of the tick spent in the forecaster.
    pub forecast_ns: u64,
    /// Whether the controller reached its planner (asked for a forecast).
    pub planned: bool,
}

pub struct TimedStrategy<S> {
    inner: S,
    max_machines: u32,
    log: Option<Arc<ForecastLog>>,
    trace: bool,
    /// Clock and allocation counter at the first tick (end of set-up).
    pub run_start: Option<(Instant, u64)>,
    pub ticks: u64,
    /// Moves the simulator accepted, as `(interval, from, to)`.
    pub moves: Vec<(usize, u32, u32)>,
    /// Per-tick timings (traced runs only).
    pub samples: Vec<TickSample>,
}

impl<S: Strategy> TimedStrategy<S> {
    /// Wraps `inner`. `log` is the forecaster's log if the controller has
    /// a timed forecaster; `trace` turns per-tick timing on.
    pub fn new(inner: S, max_machines: u32, log: Option<Arc<ForecastLog>>, trace: bool) -> Self {
        TimedStrategy {
            inner,
            max_machines,
            log,
            trace,
            run_start: None,
            ticks: 0,
            moves: Vec::new(),
            samples: Vec::new(),
        }
    }
}

impl<S: Strategy> Strategy for TimedStrategy<S> {
    fn tick(&mut self, obs: &Observation) -> Action {
        self.ticks += 1;
        if self.run_start.is_none() {
            self.run_start = Some((Instant::now(), alloc::allocs()));
        }
        let action = if self.trace {
            let f0 = self.log.as_ref().map_or(0, |l| l.total_ns());
            let calls0 = self.log.as_ref().map_or(0, |l| calls(l));
            let t = Instant::now();
            let action = self.inner.tick(obs);
            let tick_ns = nanos(t);
            let f1 = self.log.as_ref().map_or(0, |l| l.total_ns());
            let calls1 = self.log.as_ref().map_or(0, |l| calls(l));
            self.samples.push(TickSample {
                tick_ns,
                forecast_ns: f1 - f0,
                planned: calls1 > calls0,
            });
            action
        } else {
            self.inner.tick(obs)
        };
        // The simulators accept a request only when idle, after clamping
        // the target to the hardware cap.
        if let Action::Reconfigure(req) = &action {
            let target = req.target.clamp(1, self.max_machines);
            if !obs.reconfiguring && target != obs.machines {
                self.moves.push((obs.interval, obs.machines, target));
            }
        }
        action
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initial_machines(&self) -> u32 {
        self.inner.initial_machines()
    }
}

fn calls(log: &ForecastLog) -> usize {
    log.forecast_ns
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .len()
}

fn nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
