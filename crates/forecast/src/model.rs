//! The [`ForecastModel`] abstraction, model specifications and
//! serializable model state.

use crate::arima::{Arima, ArimaOrder, Sarima, SeasonalOrder};
use crate::series::TimeSeries;
use crate::smoothing::{DampedHolt, Holt, HoltWinters, SimpleExponentialSmoothing};
use fdc_obs::bytes::{DecodeError, Reader, Writer};

/// Errors raised while fitting or using forecast models.
#[derive(Debug, Clone, PartialEq)]
pub enum ForecastError {
    /// The training series is too short for the requested model.
    SeriesTooShort {
        /// Minimum number of observations the model needs.
        required: usize,
        /// Number of observations supplied.
        got: usize,
    },
    /// A parameter was outside its legal domain.
    InvalidParameter(String),
    /// Numerical optimization failed to produce a usable estimate.
    EstimationFailed(String),
    /// The model state in storage is incompatible with the requested
    /// operation (e.g. deserialized state of a different model type).
    InvalidState(String),
}

impl std::fmt::Display for ForecastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForecastError::SeriesTooShort { required, got } => {
                write!(
                    f,
                    "series too short: need {required} observations, got {got}"
                )
            }
            ForecastError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            ForecastError::EstimationFailed(msg) => write!(f, "estimation failed: {msg}"),
            ForecastError::InvalidState(msg) => write!(f, "invalid model state: {msg}"),
        }
    }
}

impl std::error::Error for ForecastError {}

/// Kind of seasonal component for triple exponential smoothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeasonalKind {
    /// Seasonal effect added to the level (robust for series containing
    /// zeros).
    Additive,
    /// Seasonal effect scales the level.
    Multiplicative,
}

/// Options controlling model fitting.
#[derive(Debug, Clone)]
pub struct FitOptions {
    /// Which optimizer estimates smoothing/ARMA parameters.
    pub optimizer: OptimizerKind,
    /// Maximum optimizer iterations.
    pub max_iterations: usize,
    /// Seed for stochastic optimizers (simulated annealing).
    pub seed: u64,
    /// Artificial extra model-creation time, in microseconds of busy work —
    /// used only by the Fig. 8(c,d) experiments that "artificially vary the
    /// time that is required to create a single forecast model" (§VI-C).
    pub artificial_cost_us: u64,
    /// Artificial extra model-creation time, in microseconds of *sleep* —
    /// models the I/O portion of a (re-)fit: inside the DBMS, re-estimating
    /// a model scans the stored base history, during which the CPU is idle.
    /// Used by the concurrency benchmarks to expose lock-hold cost.
    pub artificial_stall_us: u64,
}

impl FitOptions {
    /// Burns the configured artificial model-creation cost: busy work
    /// first, then the I/O-style sleep. Every fit and re-fit entry point
    /// pays this once per model.
    pub fn apply_artificial_cost(&self) {
        if self.artificial_cost_us > 0 {
            busy_wait_us(self.artificial_cost_us);
        }
        if self.artificial_stall_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.artificial_stall_us));
        }
    }
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            optimizer: OptimizerKind::NelderMead,
            max_iterations: 200,
            seed: 0x5eed,
            artificial_cost_us: 0,
            artificial_stall_us: 0,
        }
    }
}

/// Which numerical optimizer estimates model parameters (§IV-B.1:
/// "standard local (e.g., Hill-Climbing) or global (e.g., Simulated
/// Annealing) optimization algorithms").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptimizerKind {
    /// Nelder–Mead simplex (default; robust for the ≤3-parameter smoothing
    /// models and small ARMA orders).
    NelderMead,
    /// Local coordinate hill climbing.
    HillClimbing,
    /// Global simulated annealing.
    SimulatedAnnealing,
}

/// Declarative specification of a model type plus structural
/// hyper-parameters. The advisor and the baselines fit models through this
/// type so the forecast method stays "independent of our approach"
/// (§II-B).
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// Simple exponential smoothing.
    Ses,
    /// Holt's linear trend (double exponential smoothing).
    Holt,
    /// Holt's method with a damped trend (the trend flattens out at long
    /// horizons — often more robust than the plain linear trend).
    HoltDamped,
    /// Holt–Winters triple exponential smoothing.
    HoltWinters {
        /// Length of the seasonal cycle.
        period: usize,
        /// Additive or multiplicative seasonality.
        seasonal: SeasonalKind,
    },
    /// Non-seasonal ARIMA(p, d, q).
    Arima {
        /// Autoregressive order.
        p: usize,
        /// Degree of differencing.
        d: usize,
        /// Moving-average order.
        q: usize,
    },
    /// Seasonal ARIMA(p, d, q)(P, D, Q)ₛ.
    Sarima {
        /// Non-seasonal order.
        order: (usize, usize, usize),
        /// Seasonal order.
        seasonal: (usize, usize, usize),
        /// Seasonal period.
        period: usize,
    },
}

impl ModelSpec {
    /// The minimum series length this spec can be fitted on.
    pub fn min_observations(&self) -> usize {
        match self {
            ModelSpec::Ses => 2,
            ModelSpec::Holt => 3,
            ModelSpec::HoltDamped => 3,
            ModelSpec::HoltWinters { period, .. } => 2 * period.max(&1) + 1,
            ModelSpec::Arima { p, d, q } => (p + d + q + 2).max(4),
            ModelSpec::Sarima {
                order: (p, d, q),
                seasonal: (sp, sd, sq),
                period,
            } => (p + d + q + (sp + sd + sq) * period + 2).max(4),
        }
    }

    /// Fits a model of this spec on `series`.
    pub fn fit(
        &self,
        series: &TimeSeries,
        options: &FitOptions,
    ) -> crate::Result<Box<dyn ForecastModel>> {
        options.apply_artificial_cost();
        match self {
            ModelSpec::Ses => Ok(Box::new(SimpleExponentialSmoothing::fit(series, options)?)),
            ModelSpec::Holt => Ok(Box::new(Holt::fit(series, options)?)),
            ModelSpec::HoltDamped => Ok(Box::new(DampedHolt::fit(series, options)?)),
            ModelSpec::HoltWinters { period, seasonal } => Ok(Box::new(HoltWinters::fit(
                series, *period, *seasonal, options,
            )?)),
            ModelSpec::Arima { p, d, q } => Ok(Box::new(Arima::fit(
                series,
                ArimaOrder::new(*p, *d, *q),
                options,
            )?)),
            ModelSpec::Sarima {
                order,
                seasonal,
                period,
            } => Ok(Box::new(Sarima::fit(
                series,
                ArimaOrder::new(order.0, order.1, order.2),
                SeasonalOrder::new(seasonal.0, seasonal.1, seasonal.2, *period),
                options,
            )?)),
        }
    }

    /// A reasonable default spec for a given seasonal period: triple
    /// exponential smoothing when a season exists (the paper found it
    /// "worked best in most cases", §VI-A), Holt otherwise.
    pub fn default_for_period(period: usize) -> ModelSpec {
        if period > 1 {
            ModelSpec::HoltWinters {
                period,
                seasonal: SeasonalKind::Additive,
            }
        } else {
            ModelSpec::Holt
        }
    }

    /// Like [`ModelSpec::default_for_period`], but degrades to simpler
    /// specs when the (training) history is too short for the seasonal
    /// model — so short data sets get Holt or SES instead of nothing.
    pub fn default_for_history(period: usize, history_len: usize) -> ModelSpec {
        let preferred = Self::default_for_period(period);
        if preferred.min_observations() <= history_len {
            preferred
        } else if ModelSpec::Holt.min_observations() <= history_len {
            ModelSpec::Holt
        } else {
            ModelSpec::Ses
        }
    }

    /// Appends the spec: a tag byte, then the structural fields as
    /// `u64`s (Holt–Winters adds a seasonal-kind byte).
    pub fn write(&self, w: &mut Writer) {
        match self {
            ModelSpec::Ses => w.u8(0),
            ModelSpec::Holt => w.u8(1),
            ModelSpec::HoltDamped => w.u8(5),
            ModelSpec::HoltWinters { period, seasonal } => {
                w.u8(2);
                w.u64(*period as u64);
                w.u8(match seasonal {
                    SeasonalKind::Additive => 0,
                    SeasonalKind::Multiplicative => 1,
                });
            }
            ModelSpec::Arima { p, d, q } => {
                w.u8(3);
                for v in [p, d, q] {
                    w.u64(*v as u64);
                }
            }
            ModelSpec::Sarima {
                order,
                seasonal,
                period,
            } => {
                w.u8(4);
                let (o, s) = (order, seasonal);
                for v in [o.0, o.1, o.2, s.0, s.1, s.2, *period] {
                    w.u64(v as u64);
                }
            }
        }
    }

    /// Reads a spec written by [`ModelSpec::write`].
    pub fn read(r: &mut Reader<'_>) -> Result<ModelSpec, DecodeError> {
        fn n(r: &mut Reader<'_>) -> Result<usize, DecodeError> {
            r.u64().map(|v| v as usize)
        }
        Ok(match r.u8()? {
            0 => ModelSpec::Ses,
            1 => ModelSpec::Holt,
            5 => ModelSpec::HoltDamped,
            2 => {
                let period = n(r)?;
                let seasonal = match r.u8()? {
                    0 => SeasonalKind::Additive,
                    1 => SeasonalKind::Multiplicative,
                    k => return Err(r.invalid(format!("bad seasonal kind {k}"))),
                };
                ModelSpec::HoltWinters { period, seasonal }
            }
            3 => ModelSpec::Arima {
                p: n(r)?,
                d: n(r)?,
                q: n(r)?,
            },
            4 => ModelSpec::Sarima {
                order: (n(r)?, n(r)?, n(r)?),
                seasonal: (n(r)?, n(r)?, n(r)?),
                period: n(r)?,
            },
            t => return Err(r.invalid(format!("bad model spec tag {t}"))),
        })
    }
}

/// Burns roughly `us` microseconds of CPU. Deliberately a busy loop (not a
/// sleep) so it contributes to measured model *creation time* the way real
/// parameter estimation would.
fn busy_wait_us(us: u64) {
    let start = std::time::Instant::now();
    let dur = std::time::Duration::from_micros(us);
    let mut sink = 0u64;
    while start.elapsed() < dur {
        // Mix the counter so the loop cannot be optimized away.
        sink = sink.wrapping_mul(6364136223846793005).wrapping_add(1);
        std::hint::black_box(sink);
    }
}

/// Serializable snapshot of a fitted model: what F²DB's second catalog
/// table stores ("the forecast models itself including state and parameter
/// values", §V).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelState {
    /// Structural specification the state belongs to.
    pub spec: ModelSpec,
    /// Estimated parameters (meaning depends on `spec`).
    pub params: Vec<f64>,
    /// Internal smoothing / residual state needed to resume forecasting.
    pub state: Vec<f64>,
    /// Number of observations the model has absorbed.
    pub observations: usize,
}

impl ModelState {
    /// Smallest encoding of a state: a tag-only spec, two empty vectors
    /// and the observation count.
    pub const MIN_ENCODED_BYTES: usize = 1 + 8 + 8 + 8;

    /// Appends the state as the catalog and the `FDCA` plane store it:
    /// the spec, `u64`-counted params and state, then the observation
    /// count.
    pub fn write(&self, w: &mut Writer) {
        self.spec.write(w);
        w.f64s(&self.params);
        w.f64s(&self.state);
        w.u64(self.observations as u64);
    }

    /// Reads a state written by [`ModelState::write`].
    pub fn read(r: &mut Reader<'_>) -> Result<ModelState, DecodeError> {
        Ok(ModelState {
            spec: ModelSpec::read(r)?,
            params: r.f64s()?,
            state: r.f64s()?,
            observations: r.u64()? as usize,
        })
    }
}

/// A fitted forecast model over a single time series of a node (§II-B).
///
/// Implementations capture "the dependency of future on past data". The
/// trait supports both query-time forecasting and the incremental
/// maintenance performed by F²DB when new values arrive. Models are
/// `Send + Sync` so a catalog shard can serve `forecast` calls from many
/// reader threads behind a shared lock.
pub trait ForecastModel: Send + Sync {
    /// Human-readable model family name.
    fn name(&self) -> &'static str;

    /// Forecasts the next `horizon` values after the end of the absorbed
    /// history.
    fn forecast(&self, horizon: usize) -> Vec<f64>;

    /// Absorbs one new actual observation, updating internal state
    /// *without* re-estimating parameters (cheap incremental maintenance).
    fn update(&mut self, value: f64);

    /// Fully re-estimates parameters on `series` (expensive maintenance,
    /// triggered lazily by F²DB when a model was marked invalid).
    fn refit(&mut self, series: &TimeSeries, options: &FitOptions) -> crate::Result<()>;

    /// Estimated parameters (for diagnostics and storage).
    fn params(&self) -> Vec<f64>;

    /// Serializable state snapshot.
    fn state(&self) -> ModelState;

    /// Number of observations absorbed so far.
    fn observations(&self) -> usize;

    /// Clones the model behind the trait object.
    fn boxed_clone(&self) -> Box<dyn ForecastModel>;
}

impl Clone for Box<dyn ForecastModel> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// Restores a model from its serialized [`ModelState`].
pub fn restore_model(state: &ModelState) -> crate::Result<Box<dyn ForecastModel>> {
    match &state.spec {
        ModelSpec::Ses => Ok(Box::new(SimpleExponentialSmoothing::from_state(state)?)),
        ModelSpec::Holt => Ok(Box::new(Holt::from_state(state)?)),
        ModelSpec::HoltDamped => Ok(Box::new(DampedHolt::from_state(state)?)),
        ModelSpec::HoltWinters { .. } => Ok(Box::new(HoltWinters::from_state(state)?)),
        ModelSpec::Arima { .. } => Ok(Box::new(Arima::from_state(state)?)),
        ModelSpec::Sarima { .. } => Ok(Box::new(Sarima::from_state(state)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::Granularity;

    fn series(n: usize) -> TimeSeries {
        let values = (0..n).map(|i| 10.0 + (i as f64) * 0.5).collect();
        TimeSeries::new(values, Granularity::Monthly)
    }

    #[test]
    fn min_observations_scale_with_structure() {
        assert_eq!(ModelSpec::Ses.min_observations(), 2);
        assert!(
            ModelSpec::HoltWinters {
                period: 12,
                seasonal: SeasonalKind::Additive
            }
            .min_observations()
                > 24
        );
        assert!(
            ModelSpec::Sarima {
                order: (1, 0, 1),
                seasonal: (1, 1, 0),
                period: 12
            }
            .min_observations()
                >= 26
        );
    }

    #[test]
    fn default_for_period_picks_seasonal_model() {
        assert!(matches!(
            ModelSpec::default_for_period(12),
            ModelSpec::HoltWinters { period: 12, .. }
        ));
        assert_eq!(ModelSpec::default_for_period(1), ModelSpec::Holt);
    }

    #[test]
    fn fit_dispatches_to_each_family() {
        let s = series(40);
        let opts = FitOptions::default();
        for spec in [
            ModelSpec::Ses,
            ModelSpec::Holt,
            ModelSpec::HoltWinters {
                period: 4,
                seasonal: SeasonalKind::Additive,
            },
            ModelSpec::Arima { p: 1, d: 1, q: 1 },
            ModelSpec::Sarima {
                order: (1, 0, 0),
                seasonal: (1, 0, 0),
                period: 4,
            },
        ] {
            let model = spec.fit(&s, &opts).unwrap();
            let fc = model.forecast(3);
            assert_eq!(fc.len(), 3);
            assert!(fc.iter().all(|v| v.is_finite()), "{spec:?} produced {fc:?}");
        }
    }

    #[test]
    fn state_round_trips_through_restore() {
        let s = series(30);
        let opts = FitOptions::default();
        let model = ModelSpec::Holt.fit(&s, &opts).unwrap();
        let state = model.state();
        let restored = restore_model(&state).unwrap();
        assert_eq!(restored.forecast(5), model.forecast(5));
        assert_eq!(restored.observations(), model.observations());
    }

    #[test]
    fn artificial_cost_burns_time() {
        let s = series(20);
        let opts = FitOptions {
            artificial_cost_us: 3_000,
            ..FitOptions::default()
        };
        let start = std::time::Instant::now();
        ModelSpec::Ses.fit(&s, &opts).unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_micros(3_000));
    }

    #[test]
    fn clone_box_preserves_behavior() {
        let s = series(25);
        let model = ModelSpec::Ses.fit(&s, &FitOptions::default()).unwrap();
        let cloned = model.clone();
        assert_eq!(cloned.forecast(4), model.forecast(4));
    }

    #[test]
    fn model_states_round_trip() {
        let states = vec![
            ModelState {
                spec: ModelSpec::Ses,
                params: vec![0.4],
                state: vec![10.0],
                observations: 20,
            },
            ModelState {
                spec: ModelSpec::HoltWinters {
                    period: 12,
                    seasonal: SeasonalKind::Multiplicative,
                },
                params: vec![0.3, 0.1, 0.2],
                state: vec![1.0; 14],
                observations: 48,
            },
            ModelState {
                spec: ModelSpec::Sarima {
                    order: (1, 1, 1),
                    seasonal: (0, 1, 0),
                    period: 4,
                },
                params: vec![0.5, -0.2],
                state: vec![0.1; 9],
                observations: 60,
            },
        ];
        let mut w = Writer::default();
        for s in &states {
            s.write(&mut w);
        }
        let bytes = w.finish();
        let mut r = Reader::new("model state", &bytes);
        for s in &states {
            assert_eq!(&ModelState::read(&mut r).unwrap(), s);
        }
        r.finish().unwrap();
    }

    #[test]
    fn bad_tags_are_typed_errors() {
        for bytes in [&[9u8][..], &[2, 4, 0, 0, 0, 0, 0, 0, 0, 7]] {
            let err = ModelSpec::read(&mut Reader::new("model state", bytes)).unwrap_err();
            assert!(
                matches!(err.kind, fdc_obs::bytes::DecodeErrorKind::Invalid(_)),
                "{err}"
            );
        }
    }

    #[test]
    fn forged_orders_do_not_size_allocations() {
        // Orders far beyond the stored vectors must be rejected before
        // anything is sized by them.
        let forged = [
            ModelSpec::Sarima {
                order: (0, usize::MAX, 0),
                seasonal: (0, 1 << 40, 0),
                period: 4,
            },
            ModelSpec::Sarima {
                order: (0, 0, 0),
                seasonal: (1, 0, 0),
                period: 1 << 40,
            },
            ModelSpec::Arima {
                p: usize::MAX,
                d: 0,
                q: 1,
            },
            ModelSpec::HoltWinters {
                period: usize::MAX,
                seasonal: SeasonalKind::Additive,
            },
        ];
        for spec in forged {
            let state = ModelState {
                spec,
                params: vec![0.1],
                state: vec![0.0; 3],
                observations: 10,
            };
            assert!(restore_model(&state).is_err(), "{:?}", state.spec);
        }
    }
}
