//! Binomial logistic regression, fitted by IRLS with an L2 ridge.
//!
//! The model is `P(y = 1 | x) = σ(β₀ + βᵀ x)`. IRLS (Newton's method on
//! the penalized log-likelihood) solves
//! `(Xᵀ W X + λI) δ = Xᵀ (y − p) − λβ` per iteration via Cholesky; when a
//! Newton step fails (separation, degenerate weights) the fitter falls
//! back to plain gradient ascent, so training always returns a model.
//! Each iteration is one pass over the rows; its accumulation order is
//! pinned on [`LogisticRegression::fit`], so fits are bit-reproducible.

use crate::dataset::Dataset;
use eqimpact_linalg::cholesky::solve_spd_with_ridge;
use eqimpact_linalg::{kernels, Matrix, Vector};
use std::fmt;

/// Most feature columns [`LogisticRegression::fit`] accepts. Each IRLS
/// iteration keeps its gradient and Hessian in fixed-size stack arrays of
/// this many coefficients plus the intercept; a wider dataset gets
/// [`TrainError::TooManyFeatures`].
pub const MAX_FEATURES: usize = 15;

/// Coefficients of the widest model: [`MAX_FEATURES`] plus the intercept.
const MAX_COEFFICIENTS: usize = MAX_FEATURES + 1;

/// Training-time failures.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The dataset has no rows yet.
    EmptyDataset,
    /// All labels identical: the MLE does not exist without regularization.
    DegenerateLabels,
    /// The dataset has more feature columns than the fitter holds.
    TooManyFeatures {
        /// Feature columns in the dataset.
        features: usize,
        /// The most the fitter accepts, [`MAX_FEATURES`].
        max: usize,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::EmptyDataset => write!(f, "dataset has no rows"),
            TrainError::DegenerateLabels => {
                write!(f, "all labels identical; add regularization or more data")
            }
            TrainError::TooManyFeatures { features, max } => {
                write!(
                    f,
                    "dataset has {features} feature columns; at most {max} are supported"
                )
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// The numerically safe sigmoid `σ(t) = 1/(1+e^{-t})`.
pub fn sigmoid(t: f64) -> f64 {
    if t >= 0.0 {
        1.0 / (1.0 + (-t).exp())
    } else {
        let e = t.exp();
        e / (1.0 + e)
    }
}

/// Hyper-parameters of the logistic fitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogisticRegression {
    /// L2 ridge strength `λ ≥ 0` (applied to all coefficients including
    /// the intercept; keeps the MLE finite under separation).
    pub ridge: f64,
    /// Maximum IRLS iterations.
    pub max_iter: usize,
    /// Convergence tolerance on the coefficient step (∞-norm).
    pub tol: f64,
}

impl Default for LogisticRegression {
    fn default() -> Self {
        LogisticRegression {
            ridge: 1e-4,
            max_iter: 100,
            tol: 1e-10,
        }
    }
}

/// Largest allowed ∞-norm of a single Newton step. Under (quasi-)complete
/// separation the IRLS Hessian degenerates to the ridge and raw Newton
/// steps explode; clamping keeps the iteration a damped ascent that still
/// converges to the penalized MLE.
const MAX_STEP_INF_NORM: f64 = 2.0;

/// A fitted logistic model: intercept plus one coefficient per feature.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticModel {
    /// Intercept `β₀`.
    pub intercept: f64,
    /// Feature coefficients `β`.
    pub coefficients: Vec<f64>,
    /// IRLS iterations actually used.
    pub iterations: usize,
    /// Whether the coefficient step converged below tolerance.
    pub converged: bool,
}

impl LogisticModel {
    /// The linear predictor `β₀ + βᵀ x`.
    ///
    /// # Panics
    /// Panics when `x` has the wrong length.
    pub fn linear_score(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.coefficients.len(),
            "linear_score: feature length mismatch"
        );
        // `dot_seq` matches the scalar `zip().map().sum()` fold bitwise
        // (see linalg::kernels), keeping scores reproducible while the
        // reduction stays inside the documented kernel home (rule R6).
        self.intercept + kernels::dot_seq(&self.coefficients, x)
    }

    /// The predicted probability `P(y = 1 | x)`.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        sigmoid(self.linear_score(x))
    }

    /// Hard 0/1 prediction at probability threshold 0.5.
    pub fn predict(&self, x: &[f64]) -> f64 {
        if self.predict_proba(x) >= 0.5 {
            1.0
        } else {
            0.0
        }
    }

    /// Batched linear predictor over columnar features:
    /// `out[i] = β₀ + Σⱼ βⱼ · colsⱼ[i]`.
    ///
    /// This is the hot-path twin of [`Self::linear_score`]: one
    /// `kernels::axpy` pass per feature column plus a `kernels::offset`
    /// for the intercept, bit-identical to calling `linear_score` on each
    /// gathered row (same per-element fold, no reassociation).
    ///
    /// # Panics
    /// Panics when the number of columns differs from the number of
    /// coefficients, or when any column's length differs from `out`'s.
    pub fn linear_scores_into(&self, cols: &[&[f64]], out: &mut [f64]) {
        assert_eq!(
            cols.len(),
            self.coefficients.len(),
            "linear_scores_into: column count mismatch"
        );
        kernels::fill(out, 0.0);
        for (b, col) in self.coefficients.iter().zip(cols) {
            kernels::axpy(out, *b, col);
        }
        kernels::offset(out, self.intercept);
    }

    /// Batched predicted probabilities: [`Self::linear_scores_into`]
    /// followed by an in-place sigmoid.
    pub fn predict_probas_into(&self, cols: &[&[f64]], out: &mut [f64]) {
        self.linear_scores_into(cols, out);
        for v in out.iter_mut() {
            *v = sigmoid(*v);
        }
    }

    /// Average log-loss on a dataset, scored through the batch kernels.
    pub fn log_loss(&self, data: &Dataset) -> f64 {
        let n = data.len();
        let mut scores = vec![0.0; n];
        self.linear_scores_into(&data.feature_columns(), &mut scores);
        let y = data.labels();
        let mut total = 0.0;
        for (i, &s) in scores.iter().enumerate() {
            let p = sigmoid(s).clamp(1e-12, 1.0 - 1e-12);
            total -= y[i] * p.ln() + (1.0 - y[i]) * (1.0 - p).ln();
        }
        total / n as f64
    }
}

impl LogisticRegression {
    /// Fits the model to a dataset.
    ///
    /// Returns [`TrainError::EmptyDataset`] when the dataset has no rows,
    /// [`TrainError::TooManyFeatures`] when it has more than
    /// [`MAX_FEATURES`] feature columns, and
    /// [`TrainError::DegenerateLabels`] when every label is identical
    /// **and** no ridge is configured; with a positive ridge the penalized
    /// MLE exists and is returned instead.
    ///
    /// # Accumulation contract
    /// Each iteration makes one pass over the rows in ascending order and
    /// adds every row into the gradient `Xᵀ(y − p)` and the Hessian `XᵀWX`
    /// at once, so each entry is a left fold over the rows in row order,
    /// starting from +0.0. Per row, with `x₀ = 1` the intercept column:
    /// - `η = ((0.0 + β₀) + β₁x₁) + β₂x₂ + …`, `p = σ(η)`,
    ///   `w = max(p(1 − p), 1e-10)` and `r = y − p`;
    /// - gradient entry `a` adds `r·x_a`;
    /// - Hessian entry `(a, b)` adds `(x_a·w)·x_b`, upper triangle
    ///   included: `(x_a·w)·x_b` can round differently from `(x_b·w)·x_a`,
    ///   and the ridge retry in `solve_spd_with_ridge` reads every entry.
    ///
    /// After the pass the gradient gets `−λβ` and the Hessian diagonal
    /// `max(λ, 1e-12)`. Any change to this order changes the fitted bits.
    ///
    /// A row whose `r` or `x_a·w` is zero adds a signed zero, and that
    /// leaves a sum unchanged: features are finite, so the term is ±0, and
    /// a sum that starts at +0.0 never becomes −0.0 under round-to-nearest.
    /// Adding such terms thus gives the same bits as skipping them, and
    /// adding them unconditionally keeps the pass free of the branch
    /// mispredictions that the corpus's many zero features would cause.
    pub fn fit(&self, data: &Dataset) -> Result<LogisticModel, TrainError> {
        let n = data.len();
        if n == 0 {
            return Err(TrainError::EmptyDataset);
        }
        let d = data.feature_count();
        if d > MAX_FEATURES {
            return Err(TrainError::TooManyFeatures {
                features: d,
                max: MAX_FEATURES,
            });
        }
        let pos = data.positive_rate();
        if (pos == 0.0 || pos == 1.0) && self.ridge == 0.0 {
            return Err(TrainError::DegenerateLabels);
        }

        // The design matrix stays implicit: the intercept column is all
        // ones, and the feature columns come straight from the columnar
        // dataset storage.
        let cols = data.feature_columns();
        let y = data.labels();
        let k = d + 1;

        let mut beta = Vector::zeros(k);
        // Warm start the intercept at the log-odds of the base rate.
        let p0 = pos.clamp(1e-6, 1.0 - 1e-6);
        beta[0] = (p0 / (1.0 - p0)).ln();

        let mut iterations = 0usize;
        let mut converged = false;

        for _ in 0..self.max_iter {
            iterations += 1;
            let b = beta.as_slice();
            let mut grad = [0.0; MAX_COEFFICIENTS];
            let mut hess = [[0.0; MAX_COEFFICIENTS]; MAX_COEFFICIENTS];
            let (grad_k, hess_k) = (&mut grad[..k], &mut hess[..k]);
            // The design row (x₀ = 1, then the features), reused per row.
            let mut design = [1.0; MAX_COEFFICIENTS];
            for (i, &yi) in y.iter().enumerate() {
                let x = &mut design[..k];
                // `0.0 + β₀`, not `β₀`: the sum turns β₀ = −0.0 into +0.0.
                let mut eta = 0.0 + b[0];
                for ((xj, col), &bj) in x[1..].iter_mut().zip(&cols).zip(&b[1..]) {
                    *xj = col[i];
                    eta += bj * *xj;
                }
                let x = &*x;
                let p = sigmoid(eta);
                let w = (p * (1.0 - p)).max(1e-10);
                let r = yi - p;
                for (g, &xa) in grad_k.iter_mut().zip(x) {
                    *g += r * xa;
                }
                for (h_row, &xa) in hess_k.iter_mut().zip(x) {
                    let wa = xa * w;
                    for (h, &xb) in h_row[..k].iter_mut().zip(x) {
                        *h += wa * xb;
                    }
                }
            }
            // Penalized gradient Xᵀ(y − p) − λβ and Hessian XᵀWX + λI.
            let mut grad = Vector::from_slice(&grad[..k]);
            grad.axpy(-self.ridge, &beta).expect("same length");
            let ridge = self.ridge.max(1e-12);
            let h = Matrix::from_fn(k, k, |a, c| {
                if a == c {
                    hess[a][c] + ridge
                } else {
                    hess[a][c]
                }
            });

            let step = match solve_spd_with_ridge(&h, &grad, 1e3) {
                Ok((s, _)) => s,
                Err(_) => {
                    // Newton failed outright: take a small gradient step.
                    grad.scaled(1e-3)
                }
            };
            // Damping: keep the step finite and clamp its length so the
            // iteration cannot explode under separation.
            let mut damped = step;
            let mut tries = 0;
            while damped.has_non_finite() && tries < 40 {
                damped.scale_mut(0.5);
                tries += 1;
            }
            let norm = damped.norm_inf();
            if norm > MAX_STEP_INF_NORM {
                damped.scale_mut(MAX_STEP_INF_NORM / norm);
            }
            beta += &damped;
            if beta.has_non_finite() {
                // Retreat: undo and stop with the last finite iterate.
                beta -= &damped;
                break;
            }
            if damped.norm_inf() < self.tol {
                converged = true;
                break;
            }
        }

        Ok(LogisticModel {
            intercept: beta[0],
            coefficients: beta.as_slice()[1..].to_vec(),
            iterations,
            converged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqimpact_stats::SimRng;

    /// Generates a dataset from known coefficients for recovery tests.
    fn synthetic(n: usize, intercept: f64, coefs: &[f64], seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x: Vec<f64> = coefs.iter().map(|_| rng.uniform_in(-2.0, 2.0)).collect();
            let eta: f64 = intercept + coefs.iter().zip(&x).map(|(b, v)| b * v).sum::<f64>();
            let y = if rng.bernoulli(sigmoid(eta)) {
                1.0
            } else {
                0.0
            };
            rows.push(x);
            labels.push(y);
        }
        Dataset::new(&rows, &labels).unwrap()
    }

    #[test]
    fn sigmoid_basics() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!(sigmoid(10.0) > 0.9999);
        assert!(sigmoid(-10.0) < 0.0001);
        assert!((sigmoid(700.0) - 1.0).abs() < 1e-15);
        assert!(sigmoid(-700.0) >= 0.0);
        // Symmetry.
        for &t in &[0.3, 1.7, 4.0] {
            assert!((sigmoid(t) + sigmoid(-t) - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn recovers_known_coefficients() {
        let data = synthetic(20_000, 0.5, &[2.0, -1.0], 1);
        let model = LogisticRegression::default().fit(&data).unwrap();
        assert!(model.converged);
        assert!(
            (model.intercept - 0.5).abs() < 0.1,
            "b0 = {}",
            model.intercept
        );
        assert!(
            (model.coefficients[0] - 2.0).abs() < 0.1,
            "b1 = {}",
            model.coefficients[0]
        );
        assert!(
            (model.coefficients[1] + 1.0).abs() < 0.1,
            "b2 = {}",
            model.coefficients[1]
        );
    }

    #[test]
    fn prediction_api() {
        let data = synthetic(5_000, 0.0, &[3.0], 2);
        let model = LogisticRegression::default().fit(&data).unwrap();
        assert!(model.predict_proba(&[2.0]) > 0.9);
        assert!(model.predict_proba(&[-2.0]) < 0.1);
        assert_eq!(model.predict(&[2.0]), 1.0);
        assert_eq!(model.predict(&[-2.0]), 0.0);
    }

    #[test]
    fn log_loss_better_than_chance() {
        let data = synthetic(5_000, 0.0, &[2.0], 3);
        let model = LogisticRegression::default().fit(&data).unwrap();
        // Chance log-loss is ln 2 ≈ 0.693.
        assert!(model.log_loss(&data) < 0.55);
    }

    #[test]
    fn separation_is_tamed_by_ridge() {
        // Perfectly separated data: unpenalized MLE diverges; the ridge
        // keeps coefficients finite.
        let data = Dataset::new(
            &[vec![-2.0], vec![-1.0], vec![1.0], vec![2.0]],
            &[0.0, 0.0, 1.0, 1.0],
        )
        .unwrap();
        let model = LogisticRegression {
            ridge: 0.1,
            ..Default::default()
        }
        .fit(&data)
        .unwrap();
        assert!(model.coefficients[0].is_finite());
        assert!(model.coefficients[0] > 0.5);
        assert!(model.predict_proba(&[2.0]) > 0.7);
    }

    #[test]
    fn degenerate_labels_rejected_without_ridge() {
        let data = Dataset::new(&[vec![1.0], vec![2.0]], &[1.0, 1.0]).unwrap();
        let err = LogisticRegression {
            ridge: 0.0,
            ..Default::default()
        }
        .fit(&data)
        .unwrap_err();
        assert_eq!(err, TrainError::DegenerateLabels);
        // With a ridge the fit succeeds and predicts high probability.
        let model = LogisticRegression::default().fit(&data).unwrap();
        assert!(model.predict_proba(&[1.5]) > 0.9);
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let err = LogisticRegression::default()
            .fit(&Dataset::with_width(1))
            .unwrap_err();
        assert_eq!(err, TrainError::EmptyDataset);
    }

    #[test]
    fn too_wide_dataset_is_rejected() {
        let wide = |width: usize| {
            Dataset::new(&[vec![0.5; width], vec![-0.5; width]], &[1.0, 0.0]).unwrap()
        };
        let fitter = LogisticRegression::default();
        assert!(fitter.fit(&wide(MAX_FEATURES)).unwrap().converged);
        assert_eq!(
            fitter.fit(&wide(MAX_FEATURES + 1)).unwrap_err(),
            TrainError::TooManyFeatures {
                features: MAX_FEATURES + 1,
                max: MAX_FEATURES
            }
        );
    }

    #[test]
    fn refit_on_a_grown_dataset_matches_a_fresh_one_bitwise() {
        let all = synthetic(600, 0.3, &[1.2, -0.8], 11);
        let fitter = LogisticRegression::default();
        let mut grown = Dataset::with_width(2);
        for i in 0..200 {
            grown.push_row(&all.row(i), all.labels()[i]).unwrap();
        }
        fitter.fit(&grown).unwrap();
        for i in 200..all.len() {
            grown.push_row(&all.row(i), all.labels()[i]).unwrap();
        }
        let refit = fitter.fit(&grown).unwrap();
        let fresh = fitter.fit(&all).unwrap();
        assert_eq!(refit.intercept.to_bits(), fresh.intercept.to_bits());
        let bits = |m: &LogisticModel| -> Vec<u64> {
            m.coefficients.iter().map(|b| b.to_bits()).collect()
        };
        assert_eq!(bits(&refit), bits(&fresh));
        assert_eq!(refit.iterations, fresh.iterations);
        assert_eq!(refit.converged, fresh.converged);
    }

    #[test]
    fn paper_scorecard_shape_negative_history_positive_income() {
        // Simulate the paper's feature pattern: income code in {0, 1},
        // average default rate in [0, 1]; repayment more likely with income,
        // less likely with default history.
        let mut rng = SimRng::new(4);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..10_000 {
            let income = if rng.bernoulli(0.7) { 1.0 } else { 0.0 };
            let adr = rng.uniform();
            let eta = -8.0 * adr + 5.5 * income + 1.0;
            let y = if rng.bernoulli(sigmoid(eta)) {
                1.0
            } else {
                0.0
            };
            rows.push(vec![adr, income]);
            labels.push(y);
        }
        let data = Dataset::new(&rows, &labels).unwrap();
        let model = LogisticRegression::default().fit(&data).unwrap();
        // Table I shape: history (ADR) negative, income positive.
        assert!(
            model.coefficients[0] < -5.0,
            "adr coef = {}",
            model.coefficients[0]
        );
        assert!(
            model.coefficients[1] > 3.0,
            "income coef = {}",
            model.coefficients[1]
        );
    }

    #[test]
    fn batch_scores_match_per_row_bitwise() {
        let data = synthetic(500, 0.25, &[1.5, -0.75], 9);
        let model = LogisticRegression::default().fit(&data).unwrap();
        let cols = data.feature_columns();
        let mut scores = vec![f64::NAN; data.len()];
        model.linear_scores_into(&cols, &mut scores);
        let mut probas = vec![f64::NAN; data.len()];
        model.predict_probas_into(&cols, &mut probas);
        for i in 0..data.len() {
            let row = data.row(i);
            assert_eq!(scores[i].to_bits(), model.linear_score(&row).to_bits());
            assert_eq!(probas[i].to_bits(), model.predict_proba(&row).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn batch_scores_check_column_count() {
        let model = LogisticModel {
            intercept: 0.0,
            coefficients: vec![1.0, 2.0],
            iterations: 0,
            converged: true,
        };
        let mut out = [0.0; 2];
        model.linear_scores_into(&[&[1.0, 2.0]], &mut out);
    }

    #[test]
    #[should_panic(expected = "feature length mismatch")]
    fn linear_score_checks_length() {
        let model = LogisticModel {
            intercept: 0.0,
            coefficients: vec![1.0, 2.0],
            iterations: 0,
            converged: true,
        };
        model.linear_score(&[1.0]);
    }

    /// The fit's output as bits: intercept, coefficients, iterations and
    /// the convergence flag.
    fn fit_bits(fitter: LogisticRegression, data: &Dataset) -> (u64, Vec<u64>, usize, bool) {
        let m = fitter.fit(data).unwrap();
        let coefficients = m.coefficients.iter().map(|b| b.to_bits()).collect();
        (
            m.intercept.to_bits(),
            coefficients,
            m.iterations,
            m.converged,
        )
    }

    /// Shaped like the retrained learner's corpus: a memory in [0, 1]
    /// with five distinct values (zero included) and a 0/1 code.
    fn learner_shaped(n: usize, seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut data = Dataset::with_width(2);
        for _ in 0..n {
            let memory = rng.index(5) as f64 / 4.0;
            let code = if rng.bernoulli(0.7) { 1.0 } else { 0.0 };
            let p = sigmoid(1.0 - 4.0 * memory + 2.5 * code);
            let y = if rng.bernoulli(p) { 1.0 } else { 0.0 };
            data.push_row(&[memory, code], y).unwrap();
        }
        data
    }

    /// Three features, each exactly zero on about half the rows.
    fn sparse_features(n: usize, seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut data = Dataset::with_width(3);
        for _ in 0..n {
            let mut x = [0.0; 3];
            for v in &mut x {
                if rng.bernoulli(0.5) {
                    *v = rng.uniform_in(-2.0, 2.0);
                }
            }
            let y = if rng.bernoulli(sigmoid(0.2 + x[0] - 0.5 * x[1])) {
                1.0
            } else {
                0.0
            };
            data.push_row(&x, y).unwrap();
        }
        data
    }

    /// One feature: a noisy middle in [-1, 1] and saturated rows at
    /// x = ±60, labelled by sign, whose |η| ends far past 40.
    fn saturated(seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut data = Dataset::with_width(1);
        for i in 0..2_000 {
            let x = rng.uniform_in(-1.0, 1.0);
            let y = if rng.bernoulli(sigmoid(2.0 * x)) {
                1.0
            } else {
                0.0
            };
            data.push_row(&[x], y).unwrap();
            if i % 40 == 0 {
                data.push_row(&[60.0], 1.0).unwrap();
                data.push_row(&[-60.0], 0.0).unwrap();
            }
        }
        data
    }

    /// Two columns equal up to one part in 10¹³, with values up to 100,
    /// so that without a ridge `XᵀWX` is singular to working precision.
    fn near_collinear(seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut data = Dataset::with_width(2);
        for _ in 0..2_000 {
            let x = rng.uniform_in(-100.0, 100.0);
            let y = if rng.bernoulli(sigmoid(0.03 * x)) {
                1.0
            } else {
                0.0
            };
            data.push_row(&[x, x * (1.0 + 1e-13)], y).unwrap();
        }
        data
    }

    /// Pins `fit`'s output bits on six datasets. The values were recorded
    /// with the earlier column-at-a-time iteration, which skipped zero
    /// terms where the single pass adds them. The cases reach zero
    /// `x_a·w` terms (learner, zero features), residuals of exactly 0
    /// (saturated), the step clamp (learner, first iteration), and the
    /// ridge retry in `solve_spd_with_ridge` (ridge retry, which also
    /// never reaches the tolerance).
    #[test]
    fn fit_output_bits_are_pinned() {
        let ridge_free = LogisticRegression {
            ridge: 0.0,
            ..Default::default()
        };
        let separated = Dataset::new(
            &[vec![-2.0], vec![-1.0], vec![1.0], vec![2.0]],
            &[0.0, 0.0, 1.0, 1.0],
        )
        .unwrap();
        let default = LogisticRegression::default();
        let cases = [
            (
                "learner",
                default,
                learner_shaped(19_000, 21),
                (
                    0x3ff109bfdd232965,
                    vec![0xc010961737756094, 0x4004215ee16f2b49],
                    7,
                    true,
                ),
            ),
            (
                "one feature",
                default,
                synthetic(3_000, -0.4, &[1.3], 22),
                (0xbfdd288ca66419ac, vec![0x3ff5b7a3e8f2f871], 6, true),
            ),
            (
                "zero features",
                default,
                sparse_features(3_000, 23),
                (
                    0x3fc3d8c814947b89,
                    vec![0x3ff029784d5410d2, 0xbfdd6aa20844e5ae, 0xbfa69d256eb89e78],
                    6,
                    true,
                ),
            ),
            (
                "saturated",
                default,
                saturated(24),
                (0xbfb79440eaab3fb5, vec![0x40002e66e494310f], 10, true),
            ),
            (
                "separated",
                LogisticRegression {
                    ridge: 0.1,
                    ..Default::default()
                },
                separated,
                (0xbca12ba16dfe8060, vec![0x4002379b34f7b59c], 7, true),
            ),
            (
                "ridge retry",
                ridge_free,
                near_collinear(25),
                (
                    0xbf9d9d27792b0e43,
                    vec![0x3fc72f1461a3e250, 0xbfc3917fb12802c3],
                    100,
                    false,
                ),
            ),
        ];
        for (name, fitter, data, want) in cases {
            assert_eq!(fit_bits(fitter, &data), want, "{name}");
        }
    }

    #[test]
    fn train_error_display() {
        assert!(TrainError::DegenerateLabels
            .to_string()
            .contains("identical"));
        assert!(TrainError::EmptyDataset.to_string().contains("no rows"));
        let wide = TrainError::TooManyFeatures {
            features: 16,
            max: 15,
        };
        assert_eq!(
            wide.to_string(),
            "dataset has 16 feature columns; at most 15 are supported"
        );
    }
}
