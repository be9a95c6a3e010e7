//! Sparse Periodic Auto-Regression (SPAR), the default P-Store predictor.
//!
//! Equation (8) of the paper models the load `tau` slots ahead as a linear
//! combination of the values at the same phase in the `n` previous periods
//! plus the offset of the `m` most recent observations from their expected
//! (periodic-average) level:
//!
//! ```text
//! y(t + tau) = sum_{k=1..n} a_k * y(t + tau - k*T)
//!            + sum_{j=1..m} b_j * dy(t - j)
//!
//! dy(t - j)  = y(t - j) - (1/n) * sum_{k=1..n} y(t - j - k*T)
//! ```
//!
//! The periodic terms capture the diurnal shape; the offset terms capture
//! how far today deviates from an average day. Coefficients are fit with
//! linear least squares over the training window, pooling rows across a
//! configurable set of forecast offsets so one coefficient vector serves
//! the whole planning horizon.
//!
//! ```
//! use pstore_forecast::spar::{SparConfig, SparModel};
//! use pstore_forecast::model::LoadPredictor;
//! // A perfectly daily signal is predicted exactly.
//! let cfg = SparConfig { period: 48, n_periods: 2, m_recent: 4,
//!                        taus: vec![1], ridge_lambda: 1e-6, max_rows: 4000 };
//! let data: Vec<f64> = (0..48 * 8)
//!     .map(|i| 100.0 + ((i % 48) as f64))
//!     .collect();
//! let model = SparModel::fit(&data[..48 * 6], &cfg).unwrap();
//! let pred = model.predict(&data, 1);
//! assert!((pred - data[data.len() - 48]).abs() < 1e-6);
//! ```

use crate::linalg::{ridge, Matrix};
use crate::model::{FitError, LoadPredictor};

/// Configuration for a SPAR fit.
#[derive(Debug, Clone)]
pub struct SparConfig {
    /// Period `T` in slots (1440 for per-minute data with a daily cycle,
    /// 168 for hourly data with a weekly cycle, ...).
    pub period: usize,
    /// Number of previous periods `n` used by the periodic component.
    pub n_periods: usize,
    /// Number of recent offsets `m` used by the transient component.
    pub m_recent: usize,
    /// Forecast offsets pooled into the training set. Empty means `{1}`.
    pub taus: Vec<usize>,
    /// Ridge regularisation strength (periodic lag columns of a strongly
    /// periodic signal are highly correlated).
    pub ridge_lambda: f64,
    /// Upper bound on training rows; origins are subsampled with a uniform
    /// stride to respect it.
    pub max_rows: usize,
}

impl SparConfig {
    /// The paper's B2W setting: per-minute slots, daily period `T = 1440`,
    /// `n = 7`, `m = 30` (§5).
    pub fn b2w_default() -> Self {
        SparConfig {
            period: 1440,
            n_periods: 7,
            m_recent: 30,
            taus: vec![1, 15, 30, 45, 60],
            ridge_lambda: 1e-4,
            max_rows: 20_000,
        }
    }

    /// Minimum history length required for fitting or predicting.
    pub fn min_history(&self) -> usize {
        self.n_periods * self.period + self.m_recent + 1
    }
}

impl Default for SparConfig {
    fn default() -> Self {
        Self::b2w_default()
    }
}

/// A fitted SPAR model.
#[derive(Debug, Clone)]
pub struct SparModel {
    config: SparConfig,
    /// `a_k` coefficients, `a[k-1]` multiplies `y(t + tau - k*T)`.
    a: Vec<f64>,
    /// `b_j` coefficients, `b[j-1]` multiplies `dy(t - j)`.
    b: Vec<f64>,
}

impl SparModel {
    /// Fits SPAR coefficients on `train` with least squares (Eq 8).
    ///
    /// # Errors
    /// Returns [`FitError::NotEnoughData`] if the training window is shorter
    /// than `n*T + m` plus the largest pooled `tau`, or
    /// [`FitError::Numerical`] if the regression is degenerate.
    pub fn fit(train: &[f64], config: &SparConfig) -> Result<Self, FitError> {
        let cfg = config.clone();
        validate(&cfg);
        let taus = if cfg.taus.is_empty() {
            vec![1]
        } else {
            cfg.taus.clone()
        };
        let max_tau = taus.iter().max().copied().unwrap_or(1);
        let p = cfg.n_periods * cfg.period;
        // Forecast origin t needs: t - m - n*T >= 0 and t + tau < len and
        // t + tau - n*T >= 0. The first condition dominates.
        let first_origin = p + cfg.m_recent;
        let required = first_origin + max_tau + cfg.n_periods + cfg.m_recent + 1;
        if train.len() < required {
            return Err(FitError::NotEnoughData {
                required,
                available: train.len(),
            });
        }

        let last_origin = train.len() - 1 - max_tau;
        let origins_available = last_origin - first_origin + 1;
        let rows_wanted = cfg.max_rows.max(cfg.n_periods + cfg.m_recent + 1);
        let stride = (origins_available * taus.len())
            .div_ceil(rows_wanted)
            .max(1);

        let cols = cfg.n_periods + cfg.m_recent;
        let mut rows_feat: Vec<f64> = Vec::new();
        let mut targets: Vec<f64> = Vec::new();
        for t in (first_origin..=last_origin).step_by(stride) {
            let offsets = recent_offsets(train, t, &cfg);
            for &tau in &taus {
                for k in 1..=cfg.n_periods {
                    rows_feat.push(train[t + tau - k * cfg.period]);
                }
                rows_feat.extend_from_slice(&offsets);
                targets.push(train[t + tau]);
            }
        }
        let nrows = targets.len();
        if nrows < cols {
            return Err(FitError::NotEnoughData {
                required,
                available: train.len(),
            });
        }
        let a = Matrix::from_rows(nrows, cols, &rows_feat);
        let x = ridge(&a, &targets, cfg.ridge_lambda)
            .map_err(|e| FitError::Numerical(e.to_string()))?;
        Ok(SparModel {
            a: x[..cfg.n_periods].to_vec(),
            b: x[cfg.n_periods..].to_vec(),
            config: cfg,
        })
    }

    /// The periodic coefficients `a_k`.
    pub fn periodic_coefficients(&self) -> &[f64] {
        &self.a
    }

    /// The recent-offset coefficients `b_j`.
    pub fn recent_coefficients(&self) -> &[f64] {
        &self.b
    }

    /// The configuration the model was fitted with.
    pub fn config(&self) -> &SparConfig {
        &self.config
    }
}

fn validate(cfg: &SparConfig) {
    assert!(cfg.period > 0, "period must be positive");
    assert!(cfg.n_periods > 0, "n_periods must be positive");
    assert!(cfg.m_recent > 0, "m_recent must be positive");
    assert!(
        cfg.taus.iter().all(|&t| t >= 1 && t <= cfg.period),
        "all taus must be in 1..=period"
    );
}

/// The `dy(t - j)` features for `j = 1..=m` at forecast origin `t`
/// (an index into `data`, with `data[t]` the latest observation).
fn recent_offsets(data: &[f64], t: usize, cfg: &SparConfig) -> Vec<f64> {
    (1..=cfg.m_recent)
        .map(|j| {
            let idx = t - j;
            let periodic_mean = (1..=cfg.n_periods)
                .map(|k| data[idx - k * cfg.period])
                .sum::<f64>()
                / cfg.n_periods as f64;
            data[idx] - periodic_mean
        })
        .collect()
}

impl LoadPredictor for SparModel {
    fn min_history(&self) -> usize {
        self.config.min_history()
    }

    fn predict(&self, history: &[f64], tau: usize) -> f64 {
        assert!(tau >= 1, "tau must be at least 1");
        assert!(
            tau <= self.config.period,
            "tau ({tau}) beyond one period ({}) is not supported by SPAR",
            self.config.period
        );
        assert!(
            history.len() >= self.min_history(),
            "history ({}) shorter than required ({})",
            history.len(),
            self.min_history()
        );
        let t = history.len() - 1; // forecast origin index
        let mut y = 0.0;
        for (k, a_k) in self.a.iter().enumerate() {
            // Periodic lag y(t + tau - k*T); k*T >= T >= tau keeps it in
            // the past.
            let idx = t + tau - (k + 1) * self.config.period;
            y += a_k * history[idx];
        }
        let offsets = recent_offsets(history, t, &self.config);
        for (b_j, dy) in self.b.iter().zip(&offsets) {
            y += b_j * dy;
        }
        y
    }

    fn predict_horizon(&self, history: &[f64], h: usize) -> Vec<f64> {
        // Offsets are shared by every tau; compute them once.
        assert!(
            h <= self.config.period,
            "horizon beyond one period is not supported by SPAR"
        );
        assert!(
            history.len() >= self.min_history(),
            "history shorter than required"
        );
        let t = history.len() - 1;
        let offsets = recent_offsets(history, t, &self.config);
        let transient: f64 = self.b.iter().zip(&offsets).map(|(b, d)| b * d).sum();
        (1..=h)
            .map(|tau| {
                let periodic: f64 = self
                    .a
                    .iter()
                    .enumerate()
                    .map(|(k, a_k)| a_k * history[t + tau - (k + 1) * self.config.period])
                    .sum();
                periodic + transient
            })
            .collect()
    }

    fn name(&self) -> &str {
        "SPAR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mre;

    /// A noiseless signal that is exactly periodic with period `t`.
    fn periodic_signal(t: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let phase = (i % t) as f64 / t as f64;
                100.0 + 50.0 * (2.0 * std::f64::consts::PI * phase).sin()
            })
            .collect()
    }

    fn small_cfg() -> SparConfig {
        SparConfig {
            period: 48,
            n_periods: 3,
            m_recent: 6,
            taus: vec![1, 4, 8],
            ridge_lambda: 1e-6,
            max_rows: 5_000,
        }
    }

    #[test]
    fn exact_on_noiseless_periodic_signal() {
        let cfg = small_cfg();
        let data = periodic_signal(cfg.period, cfg.period * 10);
        let train_len = cfg.period * 8;
        let model = SparModel::fit(&data[..train_len], &cfg).unwrap();
        // predict(history = ..t, tau) targets data[t - 1 + tau].
        let mut preds = Vec::new();
        let mut actuals = Vec::new();
        for t in train_len..data.len() - 8 {
            for tau in [1usize, 8] {
                preds.push(model.predict(&data[..t], tau));
                actuals.push(data[t - 1 + tau]);
            }
        }
        let err = mre(&preds, &actuals).unwrap();
        assert!(err < 1e-6, "MRE on noiseless periodic signal: {err}");
    }

    #[test]
    fn transient_offsets_improve_shifted_days() {
        // Periodic base with day-level amplitude variation in training (so
        // the offset terms carry signal), plus a +20% shift on the final
        // day: the offset terms should pull predictions up. Compare against
        // a purely periodic model (b = 0).
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let cfg = small_cfg();
        let mut rng = StdRng::seed_from_u64(9);
        let mut data = periodic_signal(cfg.period, cfg.period * 10);
        for day in 0..10 {
            let factor: f64 = 1.0 + rng.random_range(-0.1..0.1);
            for v in &mut data[day * cfg.period..(day + 1) * cfg.period] {
                *v *= factor;
            }
        }
        let shift_start = cfg.period * 9;
        for v in &mut data[shift_start..] {
            *v *= 1.2;
        }
        let train_len = cfg.period * 8;
        let model = SparModel::fit(&data[..train_len], &cfg).unwrap();

        let mut zeroed = model.clone();
        zeroed.b.iter_mut().for_each(|b| *b = 0.0);

        let origin = shift_start + cfg.m_recent + 2;
        let (mut err_full, mut err_periodic) = (0.0, 0.0);
        for t in origin..data.len() - 4 {
            let actual = data[t - 1 + 4];
            err_full += (model.predict(&data[..t], 4) - actual).abs();
            err_periodic += (zeroed.predict(&data[..t], 4) - actual).abs();
        }
        assert!(
            err_full < err_periodic,
            "offset terms should help: {err_full} vs {err_periodic}"
        );
    }

    #[test]
    fn horizon_matches_point_predictions() {
        let cfg = small_cfg();
        let data = periodic_signal(cfg.period, cfg.period * 9);
        let model = SparModel::fit(&data[..cfg.period * 7], &cfg).unwrap();
        let hist = &data[..cfg.period * 8];
        let horizon = model.predict_horizon(hist, 12);
        for (i, v) in horizon.iter().enumerate() {
            let point = model.predict(hist, i + 1);
            assert!((point - v).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_insufficient_history() {
        let cfg = small_cfg();
        let data = periodic_signal(cfg.period, cfg.period * 2);
        assert!(matches!(
            SparModel::fit(&data, &cfg),
            Err(FitError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn periodic_coefficients_sum_near_one_for_periodic_signal() {
        // For a purely periodic signal the periodic terms must reproduce the
        // signal, so sum(a_k) ~ 1 (any convex combination of identical
        // periodic lags works; ridge pulls towards the symmetric one).
        let cfg = small_cfg();
        let data = periodic_signal(cfg.period, cfg.period * 10);
        let model = SparModel::fit(&data[..cfg.period * 8], &cfg).unwrap();
        let sum: f64 = model.periodic_coefficients().iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "sum(a_k) = {sum}");
    }

    #[test]
    #[should_panic(expected = "beyond one period")]
    fn predict_rejects_tau_beyond_period() {
        let cfg = small_cfg();
        let data = periodic_signal(cfg.period, cfg.period * 9);
        let model = SparModel::fit(&data[..cfg.period * 8], &cfg).unwrap();
        let _ = model.predict(&data, cfg.period + 1);
    }

    #[test]
    fn accuracy_decays_gracefully_with_tau_on_noisy_signal() {
        // Add mild noise; MRE at tau=1 should be <= MRE at tau=16 (stale
        // offsets), and both should stay small. Mirrors Fig 5b's trend.
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let cfg = small_cfg();
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<f64> = periodic_signal(cfg.period, cfg.period * 12)
            .into_iter()
            .map(|v| v * (1.0 + rng.random_range(-0.05..0.05)))
            .collect();
        let train_len = cfg.period * 9;
        let model = SparModel::fit(&data[..train_len], &cfg).unwrap();
        let eval = |tau: usize| {
            let mut preds = Vec::new();
            let mut actuals = Vec::new();
            for t in train_len..data.len() - tau {
                preds.push(model.predict(&data[..t], tau));
                actuals.push(data[t - 1 + tau]);
            }
            mre(&preds, &actuals).unwrap()
        };
        let short = eval(1);
        let long = eval(16);
        assert!(short < 0.1, "tau=1 MRE too high: {short}");
        assert!(long < 0.15, "tau=16 MRE too high: {long}");
        assert!(short <= long + 0.01, "short {short} vs long {long}");
    }
}
