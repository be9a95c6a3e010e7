//! Online prediction with periodic refitting ("active learning", §6).
//!
//! The paper's Predictor component learns SPAR coefficients offline when
//! training data exists, otherwise it monitors the live system and fits once
//! enough measurements accumulate; coefficients are refreshed periodically
//! (weekly in the paper's deployment). [`OnlinePredictor`] implements that
//! life-cycle around any [`LoadPredictor`] fit function.

use crate::model::{FitError, LoadPredictor};

/// Function that fits a predictor to a training window.
pub type FitFn = Box<dyn Fn(&[f64]) -> Result<Box<dyn LoadPredictor>, FitError> + Send + Sync>;

/// A self-(re)fitting predictor fed by a stream of load measurements.
pub struct OnlinePredictor {
    fit: FitFn,
    history: Vec<f64>,
    model: Option<Box<dyn LoadPredictor>>,
    min_train: usize,
    refit_every: usize,
    observations_since_fit: usize,
    max_history: usize,
    fit_failures: u64,
}

impl OnlinePredictor {
    /// Creates an online predictor.
    ///
    /// * `fit` — fitting function invoked on the accumulated history.
    /// * `min_train` — observations required before the first fit.
    /// * `refit_every` — observations between refits (the paper refreshes
    ///   weekly; per-minute slots make that 10 080).
    /// * `max_history` — cap on retained history (oldest samples dropped).
    pub fn new(fit: FitFn, min_train: usize, refit_every: usize, max_history: usize) -> Self {
        assert!(refit_every > 0, "refit_every must be positive");
        assert!(
            max_history >= min_train,
            "max_history must cover the training window"
        );
        OnlinePredictor {
            fit,
            history: Vec::new(),
            model: None,
            min_train,
            refit_every,
            observations_since_fit: 0,
            max_history,
            fit_failures: 0,
        }
    }

    /// Seeds the predictor with offline training data (fits immediately if
    /// long enough).
    pub fn seed(&mut self, data: &[f64]) {
        self.history.extend_from_slice(data);
        self.trim();
        self.try_fit();
    }

    /// Records a new load measurement and refits on schedule.
    pub fn observe(&mut self, value: f64) {
        self.history.push(value);
        self.trim();
        self.observations_since_fit += 1;
        let due = self.model.is_none() || self.observations_since_fit >= self.refit_every;
        if due && self.history.len() >= self.min_train {
            self.try_fit();
        }
    }

    fn trim(&mut self) {
        if self.history.len() > self.max_history {
            let excess = self.history.len() - self.max_history;
            self.history.drain(..excess);
        }
    }

    fn try_fit(&mut self) {
        if self.history.len() < self.min_train {
            return;
        }
        match (self.fit)(&self.history) {
            Ok(m) => {
                self.model = Some(m);
                self.observations_since_fit = 0;
                pstore_telemetry::tel_event!(
                    pstore_telemetry::kinds::FORECAST_RETRAIN,
                    "history" => self.history.len(),
                    "ok" => true,
                );
            }
            Err(_) => {
                self.fit_failures += 1;
                pstore_telemetry::tel_event!(
                    pstore_telemetry::kinds::FORECAST_RETRAIN,
                    "history" => self.history.len(),
                    "ok" => false,
                );
            }
        }
    }

    /// Whether a model has been fitted and can forecast.
    pub fn is_ready(&self) -> bool {
        self.model
            .as_ref()
            .is_some_and(|m| self.history.len() >= m.min_history())
    }

    /// Forecasts the next `h` slots, or `None` until enough data has been
    /// observed.
    ///
    /// Load is a non-negative rate, but the linear models can dip below
    /// zero near troughs; negative predictions are clamped to zero here so
    /// every forecast the Predictor hands downstream satisfies invariant
    /// `FOR-01`. Non-finite values are passed through unmasked (they would
    /// indicate a broken fit and must stay visible to the checkers).
    pub fn forecast(&self, h: usize) -> Option<Vec<f64>> {
        let model = self.model.as_ref()?;
        if self.history.len() < model.min_history() {
            return None;
        }
        let raw = model.predict_horizon(&self.history, h);
        let curve: Vec<f64> = raw
            .into_iter()
            .map(|v| if v < 0.0 { 0.0 } else { v })
            .collect();
        pstore_telemetry::tel_event!(
            pstore_telemetry::kinds::FORECAST_PREDICT,
            "horizon" => h,
            "peak" => curve.iter().copied().fold(0.0, f64::max),
        );
        Some(curve)
    }

    /// Number of retained measurements.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// Number of failed fit attempts (diagnostic).
    pub fn fit_failures(&self) -> u64 {
        self.fit_failures
    }
}

impl std::fmt::Debug for OnlinePredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlinePredictor")
            .field("history_len", &self.history.len())
            .field("ready", &self.is_ready())
            .field("fit_failures", &self.fit_failures)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spar::{SparConfig, SparModel};

    fn spar_fit(cfg: SparConfig) -> FitFn {
        Box::new(move |data: &[f64]| {
            SparModel::fit(data, &cfg).map(|m| Box::new(m) as Box<dyn LoadPredictor>)
        })
    }

    fn cfg() -> SparConfig {
        SparConfig {
            period: 24,
            n_periods: 2,
            m_recent: 4,
            taus: vec![1, 2],
            ridge_lambda: 1e-6,
            max_rows: 2_000,
        }
    }

    fn signal(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| 50.0 + 20.0 * (2.0 * std::f64::consts::PI * (i % 24) as f64 / 24.0).sin())
            .collect()
    }

    #[test]
    fn not_ready_until_min_train() {
        let c = cfg();
        let mut p = OnlinePredictor::new(spar_fit(c.clone()), c.min_history() + 48, 24, 10_000);
        for v in signal(10) {
            p.observe(v);
        }
        assert!(!p.is_ready());
        assert_eq!(p.forecast(4), None);
    }

    #[test]
    fn becomes_ready_and_forecasts_after_seeding() {
        let c = cfg();
        let mut p = OnlinePredictor::new(spar_fit(c.clone()), c.min_history() + 48, 24, 10_000);
        p.seed(&signal(24 * 10));
        assert!(p.is_ready());
        let f = p.forecast(6).unwrap();
        assert_eq!(f.len(), 6);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn refits_on_schedule() {
        let c = cfg();
        let mut p = OnlinePredictor::new(spar_fit(c.clone()), c.min_history() + 24, 24, 10_000);
        let data = signal(24 * 12);
        p.seed(&data[..24 * 9]);
        assert!(p.is_ready());
        // Keep observing; refits should not fail and stay ready.
        for &v in &data[24 * 9..] {
            p.observe(v);
        }
        assert!(p.is_ready());
        assert_eq!(p.fit_failures(), 0);
    }

    #[test]
    fn history_is_capped() {
        let c = cfg();
        let cap = c.min_history() + 100;
        let mut p = OnlinePredictor::new(spar_fit(c.clone()), c.min_history() + 10, 24, cap);
        p.seed(&signal(cap + 500));
        assert_eq!(p.history_len(), cap);
        assert!(p.is_ready());
    }

    #[test]
    fn online_forecast_tracks_periodic_signal() {
        let c = cfg();
        let data = signal(24 * 12);
        let mut p = OnlinePredictor::new(spar_fit(c.clone()), c.min_history() + 24, 9999, 10_000);
        p.seed(&data[..24 * 10]);
        let mut errs = Vec::new();
        for (i, &v) in data[24 * 10..24 * 12 - 1].iter().enumerate() {
            p.observe(v);
            if let Some(f) = p.forecast(1) {
                let actual = data[24 * 10 + i + 1];
                errs.push((f[0] - actual).abs() / actual);
            }
        }
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean_err < 0.01, "online MRE too high: {mean_err}");
    }
}
