//! Probability distributions used by the closed-loop simulations.
//!
//! Everything is implemented from first principles: the normal CDF uses our
//! own `erf` (Abramowitz & Stegun 7.1.26 refined to double precision via
//! the W. J. Cody rational approximations is overkill here; we use the
//! high-accuracy series/continued-fraction split), and the normal quantile
//! uses Acklam's rational approximation polished with one Halley step.

use crate::rng::SimRng;

/// Common sampling interface for scalar distributions.
pub trait Sample {
    /// Draws one sample using the provided stream.
    fn sample(&self, rng: &mut SimRng) -> f64;
}

// ---------------------------------------------------------------------------
// Error function and normal distribution
// ---------------------------------------------------------------------------

/// The error function `erf(x)`, accurate to ~1e-15 in absolute terms
/// (at most 4 ulp measured on a step-1/8 grid over [−6, 6]).
///
/// Series expansion for `|x| <= 2.0`, continued-fraction complement above.
pub fn erf(x: f64) -> f64 {
    if x < 0.0 {
        return -erf(-x);
    }
    if x == 0.0 {
        return 0.0;
    }
    if x > 6.0 {
        return 1.0;
    }
    if x <= 2.0 {
        // Maclaurin series: erf(x) = 2/sqrt(pi) * sum (-1)^n x^(2n+1)/(n!(2n+1)).
        let mut term = x;
        let mut sum = x;
        let x2 = x * x;
        let mut n = 0u32;
        loop {
            n += 1;
            term *= -x2 / n as f64;
            let contribution = term / (2 * n + 1) as f64;
            sum += contribution;
            if contribution.abs() < 1e-17 * sum.abs() {
                break;
            }
            if n > 200 {
                break;
            }
        }
        (2.0 / std::f64::consts::PI.sqrt()) * sum
    } else {
        1.0 - erfc_cf(x)
    }
}

/// Complementary error function `erfc(x) = 1 - erf(x)`.
///
/// From 2 up it is a continued fraction, within 10 ulp down into the
/// subnormals. Below 2 it is computed as `1 - erf(x)`, so for positive `x`
/// its relative error grows as the result shrinks: up to ~770 ulp just
/// below 2. For negative `x` it is within a few ulp.
pub fn erfc(x: f64) -> f64 {
    if x < 2.0 {
        1.0 - erf(x)
    } else {
        erfc_cf(x)
    }
}

/// Continued-fraction evaluation of erfc for x >= 2 (Lentz's algorithm).
fn erfc_cf(x: f64) -> f64 {
    // erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + 1/(2x + 2/(x + 3/(2x + ...))))
    let mut f = x;
    let mut c = x;
    let mut d = 0.0;
    let tiny = 1e-300;
    for k in 1..300 {
        // erfc(x)·√π·exp(x²) = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...)))),
        // i.e. partial numerators a_k = k/2 with constant denominator x.
        let an = k as f64 / 2.0;
        let bn = x;
        d = bn + an * d;
        if d.abs() < tiny {
            d = tiny;
        }
        c = bn + an / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    // f now approximates x + CF, so erfc = exp(-x^2)/sqrt(pi) / f.
    (-x * x).exp() / (std::f64::consts::PI.sqrt() * f)
}

/// Standard normal cumulative distribution function `Φ(x)`.
///
/// Computed as `erfc(−x/√2)/2`, so it inherits [`erfc`]'s loss near
/// `x ≈ −2.8` (up to ~1250 ulp); further into the left tail the relative
/// error grows as about x² ulp. From −2 up it is within ~60 ulp.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal density `φ(x)`.
pub fn std_normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal quantile (inverse CDF) via Acklam's approximation plus
/// one Halley refinement step; accurate to ~1e-13 on (0, 1).
///
/// Returns `-inf` at 0 and `+inf` at 1.
///
/// # Panics
/// Panics for `p` outside `[0, 1]` or NaN.
pub fn std_normal_quantile(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "quantile: p = {p} outside [0,1]");
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }

    // Acklam coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley step against our own CDF.
    let e = std_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// A normal distribution `N(mean, sd²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates `N(mean, sd²)`.
    ///
    /// # Panics
    /// Panics if `sd <= 0` or either parameter is non-finite.
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(
            sd > 0.0 && sd.is_finite() && mean.is_finite(),
            "Normal: invalid parameters mean={mean}, sd={sd}"
        );
        Normal { mean, sd }
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Normal { mean: 0.0, sd: 1.0 }
    }

    /// Mean parameter.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation parameter.
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// CDF at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        std_normal_cdf((x - self.mean) / self.sd)
    }

    /// Density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        std_normal_pdf((x - self.mean) / self.sd) / self.sd
    }

    /// Quantile at probability `p`.
    pub fn quantile(&self, p: f64) -> f64 {
        self.mean + self.sd * std_normal_quantile(p)
    }
}

impl Sample for Normal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.mean + self.sd * rng.standard_normal()
    }
}

// ---------------------------------------------------------------------------
// Bernoulli
// ---------------------------------------------------------------------------

/// A Bernoulli distribution over `{0.0, 1.0}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Creates a Bernoulli with success probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]` or NaN.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "Bernoulli: p = {p} outside [0,1]");
        Bernoulli { p }
    }

    /// Success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Mean (= p).
    pub fn mean(&self) -> f64 {
        self.p
    }

    /// Variance `p (1 - p)`.
    pub fn variance(&self) -> f64 {
        self.p * (1.0 - self.p)
    }

    /// Draws a boolean.
    pub fn sample_bool(&self, rng: &mut SimRng) -> bool {
        rng.bernoulli(self.p)
    }
}

impl Sample for Bernoulli {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        if self.sample_bool(rng) {
            1.0
        } else {
            0.0
        }
    }
}

// ---------------------------------------------------------------------------
// Uniform
// ---------------------------------------------------------------------------

/// A continuous uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates `U[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or bounds are non-finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "Uniform: invalid range [{lo}, {hi})"
        );
        Uniform { lo, hi }
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Mean `(lo + hi) / 2`.
    pub fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

impl Sample for Uniform {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        rng.uniform_in(self.lo, self.hi)
    }
}

// ---------------------------------------------------------------------------
// Categorical
// ---------------------------------------------------------------------------

/// A categorical distribution over indices `0..k` with given probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    /// Normalized probabilities.
    probs: Vec<f64>,
    /// Cumulative sums for inverse-CDF sampling.
    cumulative: Vec<f64>,
}

impl Categorical {
    /// Creates a categorical distribution from non-negative weights
    /// (normalized internally).
    ///
    /// # Panics
    /// Panics on empty, negative, non-finite, or all-zero weights.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "Categorical: empty weights");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w >= 0.0 && w.is_finite(), "Categorical: bad weight {w}");
                w
            })
            .sum();
        assert!(total > 0.0, "Categorical: zero total weight");
        let probs: Vec<f64> = weights.iter().map(|&w| w / total).collect();
        let mut cumulative = Vec::with_capacity(probs.len());
        let mut acc = 0.0;
        for &p in &probs {
            acc += p;
            cumulative.push(acc);
        }
        *cumulative.last_mut().expect("non-empty") = 1.0;
        Categorical { probs, cumulative }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether there are zero categories (never true for a constructed
    /// value; included for API completeness).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Probability of category `i`.
    pub fn prob(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// Normalized probability vector.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Draws a category index by inverse-CDF binary search.
    pub fn sample_index(&self, rng: &mut SimRng) -> usize {
        let u = rng.uniform();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("no NaN in cumulative"))
        {
            Ok(i) => (i + 1).min(self.probs.len() - 1),
            Err(i) => i.min(self.probs.len() - 1),
        }
    }
}

impl Sample for Categorical {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sample_index(rng) as f64
    }
}

// ---------------------------------------------------------------------------
// Empirical
// ---------------------------------------------------------------------------

/// An empirical distribution backed by observed samples.
///
/// Supports the exact empirical CDF and bootstrap resampling. Used to
/// compare a trajectory's empirical law against the invariant measure.
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical {
    /// Sorted observations.
    sorted: Vec<f64>,
}

impl Empirical {
    /// Builds an empirical distribution from observations (NaNs rejected).
    ///
    /// # Panics
    /// Panics if `samples` is empty or contains NaN.
    pub fn new(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "Empirical: no samples");
        let mut sorted = samples.to_vec();
        assert!(
            sorted.iter().all(|x| !x.is_nan()),
            "Empirical: NaN in samples"
        );
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Empirical { sorted }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the distribution holds zero observations (never true for a
    /// constructed value).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Empirical CDF at `x`: fraction of samples `<= x`.
    pub fn cdf(&self, x: f64) -> f64 {
        // partition_point gives the count of elements <= x.
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Empirical quantile (inverted CDF, lower interpolation).
    ///
    /// # Panics
    /// Panics for `p` outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile: p outside [0,1]");
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let idx = (p * (self.sorted.len() - 1) as f64).round() as usize;
        self.sorted[idx.min(self.sorted.len() - 1)]
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Sorted observations.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

impl Sample for Empirical {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sorted[rng.index(self.sorted.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // Reference values from standard tables.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778130465),
            (1.0, 0.8427007929497149),
            (2.0, 0.9953222650189527),
            (3.0, 0.9999779095030014),
            (-1.0, -0.8427007929497149),
        ];
        for (x, expected) in cases {
            assert!(
                (erf(x) - expected).abs() < 1e-12,
                "erf({x}) = {}, expected {expected}",
                erf(x)
            );
        }
    }

    #[test]
    fn erfc_complements_erf() {
        for &x in &[0.1, 0.7, 1.5, 2.5, 4.0] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-14);
        assert!((std_normal_cdf(1.959963984540054) - 0.975).abs() < 1e-10);
        assert!((std_normal_cdf(-1.959963984540054) - 0.025).abs() < 1e-10);
        assert!((std_normal_cdf(1.0) - 0.8413447460685429).abs() < 1e-12);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[0.001, 0.025, 0.1, 0.3, 0.5, 0.7, 0.9, 0.975, 0.999] {
            let x = std_normal_quantile(p);
            assert!(
                (std_normal_cdf(x) - p).abs() < 1e-10,
                "p = {p}, x = {x}, cdf = {}",
                std_normal_cdf(x)
            );
        }
        assert_eq!(std_normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(std_normal_quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn normal_distribution_api() {
        let n = Normal::new(2.0, 3.0);
        assert_eq!(n.mean(), 2.0);
        assert_eq!(n.sd(), 3.0);
        assert!((n.cdf(2.0) - 0.5).abs() < 1e-14);
        assert!((n.quantile(0.5) - 2.0).abs() < 1e-10);
        assert!(n.pdf(2.0) > n.pdf(5.0));
        let mut rng = SimRng::new(1);
        let samples: Vec<f64> = (0..20_000).map(|_| n.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 2.0).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "invalid parameters")]
    fn normal_rejects_bad_sd() {
        Normal::new(0.0, 0.0);
    }

    #[test]
    fn bernoulli_api() {
        let b = Bernoulli::new(0.25);
        assert_eq!(b.p(), 0.25);
        assert_eq!(b.mean(), 0.25);
        assert!((b.variance() - 0.1875).abs() < 1e-15);
        let mut rng = SimRng::new(2);
        let mean: f64 = (0..20_000).map(|_| b.sample(&mut rng)).sum::<f64>() / 20_000.0;
        assert!((mean - 0.25).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn bernoulli_rejects_bad_p() {
        Bernoulli::new(1.5);
    }

    #[test]
    fn uniform_api() {
        let u = Uniform::new(-1.0, 3.0);
        assert_eq!(u.mean(), 1.0);
        let mut rng = SimRng::new(3);
        for _ in 0..100 {
            let x = u.sample(&mut rng);
            assert!((-1.0..3.0).contains(&x));
        }
    }

    #[test]
    fn categorical_sampling_matches_probs() {
        let c = Categorical::new(&[1.0, 2.0, 7.0]);
        assert!((c.prob(0) - 0.1).abs() < 1e-15);
        assert!((c.prob(2) - 0.7).abs() < 1e-15);
        assert_eq!(c.len(), 3);
        let mut rng = SimRng::new(4);
        let n = 30_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[c.sample_index(&mut rng)] += 1;
        }
        for (i, &cnt) in counts.iter().enumerate() {
            let f = cnt as f64 / n as f64;
            assert!((f - c.prob(i)).abs() < 0.02, "category {i}: {f}");
        }
    }

    #[test]
    fn categorical_race_distribution_of_the_paper() {
        // The paper's race sampling distribution.
        let c = Categorical::new(&[0.1235, 0.8406, 0.0359]);
        let total: f64 = c.probs().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero total weight")]
    fn categorical_rejects_zero_weights() {
        Categorical::new(&[0.0, 0.0]);
    }

    #[test]
    fn empirical_cdf_and_quantile() {
        let e = Empirical::new(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(e.len(), 4);
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.0), 0.75);
        assert_eq!(e.cdf(10.0), 1.0);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 3.0);
        assert_eq!(e.mean(), 2.0);
    }

    #[test]
    fn empirical_resampling_stays_in_support() {
        let e = Empirical::new(&[1.0, 5.0, 9.0]);
        let mut rng = SimRng::new(6);
        for _ in 0..100 {
            let x = e.sample(&mut rng);
            assert!(x == 1.0 || x == 5.0 || x == 9.0);
        }
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empirical_rejects_empty() {
        Empirical::new(&[]);
    }

    /// Distance in units in the last place: the number of doubles between
    /// `got` and `want`, counted across zero and the subnormals.
    fn ulps(got: f64, want: f64) -> u64 {
        let ordered = |v: f64| {
            let b = v.to_bits() as i64;
            if b < 0 {
                i64::MIN - b
            } else {
                b
            }
        };
        ordered(got).abs_diff(ordered(want))
    }

    /// Checks `f` against reference values on the grid `start + i·step`:
    /// `refs[i]` holds the bits of the correctly rounded value at point
    /// `i`, and the error there may be at most `bound(x)` ulp.
    fn check_ulps(
        name: &str,
        f: fn(f64) -> f64,
        (start, step): (f64, f64),
        refs: &[u64],
        bound: impl Fn(f64) -> u64,
    ) {
        for (i, &bits) in refs.iter().enumerate() {
            let x = start + i as f64 * step;
            let err = ulps(f(x), f64::from_bits(bits));
            assert!(
                err <= bound(x),
                "{name}({x}): {err} ulp, bound {}",
                bound(x)
            );
        }
    }

    /// The accuracy of `erf`, `erfc` and `Φ` against references computed
    /// with mpmath at 256-bit precision and rounded to nearest: step 1/8
    /// over the ranges, plus a denser patch where `erfc(x)` is computed as
    /// `1 − erf(x)` just below 2. The bounds are the worst errors measured
    /// on these grids plus a small margin: erf 4; erfc 2 below 0, 767 at
    /// 1.926 and 9 from 2 up; Φ 53 from −2 up, 1251 at −2.80 and 1794 at
    /// −37.4. Φ's relative condition number is about x² in the left tail,
    /// so there its error grows with the rounding of `−x/√2`.
    #[test]
    fn erf_erfc_and_normal_cdf_accuracy() {
        let coarse = (-6.0, 0.125);
        check_ulps("erf", erf, coarse, &ERF_GRID, |_| 5);
        let erfc_bound = |x: f64| match x {
            x if x < 0.0 => 3,
            x if x < 2.0 => 850,
            _ => 10,
        };
        check_ulps("erfc", erfc, coarse, &ERFC_GRID, erfc_bound);
        check_ulps("erfc", erfc, (1.75, 1.0 / 256.0), &ERFC_DENSE, erfc_bound);
        let phi_bound = |x: f64| {
            if x >= -2.0 {
                60
            } else {
                (1.4 * x * x).max(1400.0) as u64
            }
        };
        check_ulps("phi", std_normal_cdf, (-38.0, 0.125), &PHI_GRID, phi_bound);
        let dense = (-2.875, 1.0 / 128.0);
        check_ulps("phi", std_normal_cdf, dense, &PHI_DENSE, phi_bound);
    }

    // Reference values for `erf_erfc_and_normal_cdf_accuracy`, as f64 bits.
    // ERF_GRID, ERFC_GRID: x = −6 + i/8. ERFC_DENSE: x = 1.75 + i/256.
    // PHI_GRID: x = −38 + i/8. PHI_DENSE: x = −2.875 + i/128.
    #[rustfmt::skip]
    const ERF_GRID: [u64; 97] = [
        0xbff0000000000000, 0xbfefffffffffffff, 0xbfeffffffffffffc, 0xbfeffffffffffff0,
        0xbfefffffffffffbe, 0xbfeffffffffffef8, 0xbfeffffffffffc05, 0xbfeffffffffff11a,
        0xbfefffffffffc9e8, 0xbfefffffffff4188, 0xbfeffffffffd759d, 0xbfeffffffff79626,
        0xbfefffffffe4fa30, 0xbfefffffffabd229, 0xbfefffffff01a8b6, 0xbfeffffffd169d0c,
        0xbfeffffff7b91176, 0xbfefffffe92ced93, 0xbfefffffc2f171e3, 0xbfefffff618c3da6,
        0xbfeffffe710d565e, 0xbfeffffc316d9ed0, 0xbfeffff6f9f67e55, 0xbfefffeb3ebb267b,
        0xbfefffd1ac4135f9, 0xbfefff9ba420e834, 0xbfefff2cfb0453d9, 0xbfeffe514bbdc197,
        0xbfeffcaa8f4c9bea, 0xbfeff9960f3eb327, 0xbfeff404760319b4, 0xbfefea4218d6594a,
        0xbfefd9ae142795e3, 0xbfefbe61eef4cf6a, 0xbfef92d077f8d56d, 0xbfef4f693b67bd77,
        0xbfeeea5557137ae0, 0xbfee5768c3b4a3fc, 0xbfed8865d98abe01, 0xbfec6dad2829ec62,
        0xbfeaf767a741088b, 0xbfe91724951b8fc6, 0xbfe6c1c9759d0e5f, 0xbfe3f196dcd0f135,
        0xbfe0a7ef5c18edd2, 0xbfd9dd0d2b721f39, 0xbfd1af54e232d609, 0xbfc1f5e1a35c3b89,
        0x0000000000000000, 0x3fc1f5e1a35c3b89, 0x3fd1af54e232d609, 0x3fd9dd0d2b721f39,
        0x3fe0a7ef5c18edd2, 0x3fe3f196dcd0f135, 0x3fe6c1c9759d0e5f, 0x3fe91724951b8fc6,
        0x3feaf767a741088b, 0x3fec6dad2829ec62, 0x3fed8865d98abe01, 0x3fee5768c3b4a3fc,
        0x3feeea5557137ae0, 0x3fef4f693b67bd77, 0x3fef92d077f8d56d, 0x3fefbe61eef4cf6a,
        0x3fefd9ae142795e3, 0x3fefea4218d6594a, 0x3feff404760319b4, 0x3feff9960f3eb327,
        0x3feffcaa8f4c9bea, 0x3feffe514bbdc197, 0x3fefff2cfb0453d9, 0x3fefff9ba420e834,
        0x3fefffd1ac4135f9, 0x3fefffeb3ebb267b, 0x3feffff6f9f67e55, 0x3feffffc316d9ed0,
        0x3feffffe710d565e, 0x3fefffff618c3da6, 0x3fefffffc2f171e3, 0x3fefffffe92ced93,
        0x3feffffff7b91176, 0x3feffffffd169d0c, 0x3fefffffff01a8b6, 0x3fefffffffabd229,
        0x3fefffffffe4fa30, 0x3feffffffff79626, 0x3feffffffffd759d, 0x3fefffffffff4188,
        0x3fefffffffffc9e8, 0x3feffffffffff11a, 0x3feffffffffffc05, 0x3feffffffffffef8,
        0x3fefffffffffffbe, 0x3feffffffffffff0, 0x3feffffffffffffc, 0x3fefffffffffffff,
        0x3ff0000000000000,
    ];
    #[rustfmt::skip]
    const ERFC_GRID: [u64; 265] = [
        0x4000000000000000, 0x4000000000000000, 0x3ffffffffffffffe, 0x3ffffffffffffff8,
        0x3fffffffffffffdf, 0x3fffffffffffff7c, 0x3ffffffffffffe03, 0x3ffffffffffff88d,
        0x3fffffffffffe4f4, 0x3fffffffffffa0c4, 0x3ffffffffffebacf, 0x3ffffffffffbcb13,
        0x3ffffffffff27d18, 0x3fffffffffd5e914, 0x3fffffffff80d45b, 0x3ffffffffe8b4e86,
        0x3ffffffffbdc88bb, 0x3ffffffff49676c9, 0x3fffffffe178b8f2, 0x3fffffffb0c61ed3,
        0x3fffffff3886ab2f, 0x3ffffffe18b6cf68, 0x3ffffffb7cfb3f2b, 0x3ffffff59f5d933e,
        0x3fffffe8d6209afd, 0x3fffffcdd210741a, 0x3fffff967d8229ed, 0x3fffff28a5dee0cb,
        0x3ffffe5547a64df5, 0x3ffffccb079f5993, 0x3ffffa023b018cda, 0x3ffff5210c6b2ca5,
        0x3fffecd70a13caf2, 0x3fffdf30f77a67b5, 0x3fffc9683bfc6ab7, 0x3fffa7b49db3debb,
        0x3fff752aab89bd70, 0x3fff2bb461da51fe, 0x3ffec432ecc55f00, 0x3ffe36d69414f631,
        0x3ffd7bb3d3a08445, 0x3ffc8b924a8dc7e3, 0x3ffb60e4bace8730, 0x3ff9f8cb6e68789a,
        0x3ff853f7ae0c76e9, 0x3ff677434adc87ce, 0x3ff46bd5388cb582, 0x3ff23ebc346b8771,
        0x3ff0000000000000, 0x3feb82879728f11e, 0x3fe728558ee694fc, 0x3fe311796a46f064,
        0x3fdeb02147ce245c, 0x3fd81cd2465e1d96, 0x3fd27c6d14c5e341, 0x3fcba36dab91c0e9,
        0x3fc4226162fbddd5, 0x3fbc9296beb09cf1, 0x3fb3bcd133aa0ffc, 0x3faa8973c4b5c03e,
        0x3fa15aaa8ec85205, 0x3f9612d893085125, 0x3f8b4be201caa4b4, 0x3f80678442cc256f,
        0x3f7328f5ec350e67, 0x3f65bde729a6b60f, 0x3f57f713f9cc9784, 0x3f49a7c305336484,
        0x3f3aab859b20ac9e, 0x3f2aeb4423e690e7, 0x3f1a609f7584d32b, 0x3f0916f7c5f2f764,
        0x3ef729df6503422a, 0x3ee4c144d984e1b8, 0x3ed20c1303550f0e, 0x3ebe749309831666,
        0x3ea8ef2a9a18d857, 0x3e93ce784b411931, 0x3e7e87470e4f4246, 0x3e66d3126d74b6cc,
        0x3e508ddd13bd35e7, 0x3e374b179d1eba81, 0x3e1fcae93fb7323c, 0x3e050b75c536f927,
        0x3deb05cfe2e99435, 0x3dd0d3b35021d695, 0x3db453141082302a, 0x3d97cef42e9a617d,
        0x3d7b0c1a759f7739, 0x3d5dcc4fabf32f1c, 0x3d3fd5f08ad2b29a, 0x3d207dd6833bb380,
        0x3d009182b326b229, 0x3ce0241de6c31e5b, 0x3cbe7eea02e4ed88, 0x3c9bef1b1a12823e,
        0x3c78cf81557d20b6, 0x3c555df1790f2f61, 0x3c31d791bb1324a1, 0x3c0ce42dd8e4fa23,
        0x3be6ae172414ceba, 0x3bc1432649c86c4d, 0x3b997a3dc62119c8, 0x3b723a85891dc72b,
        0x3b494a28136fa731, 0x3b21022313b11381, 0x3af62e225ebca190, 0x3acc0aee6d6b1406,
        0x3aa12fc6cdafd10d, 0x3a746c779ebb14ae, 0x3a47879eb52380ed, 0x3a1a47db588b15cf,
        0x39ec74fc41217dfb, 0x39bddf56913a541e, 0x398e667d9a8bcd9e, 0x395dfe0c1b8af1f3,
        0x392caf8458ad2a12, 0x38fa98e26924c6c8, 0x38c7e82cde922833, 0x3894d4ec8ea8ee67,
        0x386198d422be3f8c, 0x382cd1db96a6c6ef, 0x37f6e0c8fadbb050, 0x37c19b0f23241b88,
        0x378a4480db60fe17, 0x3752feeed430b87b, 0x371aa222a98ba953, 0x36e219685023e1be,
        0x36a7d8a7f2a8a2d0, 0x366e74cb7ebdea0a, 0x3632da83d59392f5, 0x35f6a0956d7d1b63,
        0x35ba53148c3fc482, 0x357db0100ef385d3, 0x35403a3b07cf84b0, 0x3501324c9f973607,
        0x34c1aa3b4e8f3caa, 0x34819712f23cae3d, 0x3440fa934555eb5a, 0x33ffc5d8e0519af3,
        0x33bcd13f7b7c3414, 0x337955ea2f392221, 0x333597757e14e4e8, 0x32f1d636b1da2b46,
        0x32ac90f21d2d475f, 0x32662c6642f5d4b9, 0x3220aef9bffa708d, 0x31d855f0a34582a6,
        0x3191345b1de4a541, 0x314794741d4d28c6, 0x30ff53937c26236e, 0x30b42bb0eedd3fb2,
        0x30692da9c960076a, 0x301e77117811a7d2, 0x2fd1dd90a3522c75, 0x2f844f853ca3d2a1,
        0x2f3661c59f17fae0, 0x2ee7e859d0226582, 0x2e98c0f08dff4e68, 0x2e48d7d80e14b910,
        0x2df82af24bbe81dd, 0x2da6ca07adb2cabe, 0x2d54d4668bc3c638, 0x2d02744e94597df0,
        0x2cafb22b934b9930, 0x2c5a624c67aa97df, 0x2c0549be08e15927, 0x2bb0a62b7d92f095,
        0x2b593e1b371520a1, 0x2b028c6164ec1235, 0x2aaa6c038fdf5aed, 0x2a523db7a001a935,
        0x29f869c2824b4b6b, 0x299fab995891c153, 0x2943e9611e821800, 0x28e844cb59a101a9,
        0x288cabc2c3d98d7c, 0x28306a7030db71fb, 0x27d2387f5f4b712e, 0x27739a5d07601e71,
        0x27147143aa78b5fe, 0x26b4a9c33e05809a, 0x26543ea7a73d5cf0, 0x25f339c31e0d51b7,
        0x2591b271db151968, 0x252f944d95c81983, 0x24cb4f6c22875415, 0x2466e4903f595976,
        0x240299b80ea6bb7f, 0x239d4c1f7c67dd18, 0x23365d3aea4b609e, 0x22d08c1bf3c985fa,
        0x2267bc0a6e57fbc5, 0x22007fb3b2ff1602, 0x21963bbbf78651cc, 0x212d0a5ff60b92cf,
        0x20c2621d65152a67, 0x20568f1646f450cc, 0x1fead523512d80ae, 0x1f7eef6b8bfa9225,
        0x1f1148e1d96c299e, 0x1ea2b8c63e7468c1, 0x1e33a7bfb4be9962, 0x1dc40052c8ba04b4,
        0x1d53ba5b5279aa24, 0x1ce2dc48781056c9, 0x1c717a22cd2a508f, 0x1bff65222fadfc00,
        0x1b8b54f244df93df, 0x1b171033226bf0af, 0x1aa2dd03980220ac, 0x1a2de8817c6f33b9,
        0x19b6fb3ff8ccf41c, 0x19411dc1d57f7df8, 0x18c8b65a792fe140, 0x18514a9f8443d058,
        0x17d774577e1faf4f, 0x175ed615f7bfd7d2, 0x16e3a5cfae5998ec, 0x1668449e977fef01,
        0x15ed0dbced86364c, 0x1570db636a632668, 0x14f2f5af68314ac2, 0x1474ab57affd05a9,
        0x13f5d72aff4768da, 0x13765e6590135a00, 0x12f634a1f3bd0d7e, 0x12755db8f7b445c6,
        0x11f3ed2c02828af5, 0x117203396b14a770, 0x10ef906bdc779cfc, 0x106ace321e309c7b,
        0x0fe61080de06bfb0, 0x0f619a8e3da77fbe, 0x0edb39e83951bdaa, 0x0e546833ee262b10,
        0x0dcda6bba883d22a, 0x0d44e120315adc06, 0x0cbc804c1d0522eb, 0x0c32dac758984610,
        0x0ba82de1daeb9c47, 0x0b1e0dea55db81c4, 0x0a921ab51a49a640, 0x0a05241d71eb6e19,
        0x0977eda37d26ae66, 0x08ea4017c5ace0de, 0x085be99935f38c42, 0x07ccc4774fe05a13,
        0x073cbcb3935e8707, 0x06abd304de355d85, 0x061a1cbbab815b4c, 0x0587c08d08f2ccbb,
        0x04f4f0ef77c81a6f, 0x0461e52cde409267, 0x03cda4f3c5b8c56f, 0x0337cc7edd2bedd1,
        0x02a284bfe1cdea24, 0x020bef014f36ffa9, 0x01746b841565ab3e, 0x00dcefd7b19fc691,
        0x0043df6725a60cf5, 0x000034e99b1e9251, 0x0000001111ab5ef8, 0x0000000005564512,
        0x0000000000019e0f,
    ];
    #[rustfmt::skip]
    const ERFC_DENSE: [u64; 64] = [
        0x3f8b4be201caa4b4, 0x3f8ae08922c1463d, 0x3f8a76a63fc95c79, 0x3f8a0e3512dafd54,
        0x3f89a7315f1d6a55, 0x3f894196f0e036b1, 0x3f88dd619d943ca1, 0x3f887a8d43c462dc,
        0x3f881915cb0e3323, 0x3f87b8f7241a42e1, 0x3f875a2d48946eb1, 0x3f86fcb43b23e9d3,
        0x3f86a08807632262, 0x3f8645a4c1d77b42, 0x3f85ec0687e8dcb2, 0x3f8593a97fd91c5d,
        0x3f853c89d8bb3ddb, 0x3f84e6a3ca6a8c7d, 0x3f8491f395818f54, 0x3f843e758350d843,
        0x3f83ec25e5d5af12, 0x3f839b0117b09948, 0x3f834b037c1bbfc5, 0x3f82fc297ee132db,
        0x3f82ae6f94510dd8, 0x3f8261d239377acb, 0x3f82164df2d29765, 0x3f81cbdf4ec83bbf,
        0x3f818282e31ba3e8, 0x3f813a354e22fcfc, 0x3f80f2f3367cd6aa, 0x3f80acb94b0579dd,
        0x3f80678442cc256f, 0x3f802350dd08319c, 0x3f7fc037c21c3622, 0x3f7f3bc43c88ec93,
        0x3f7eb940d8319831, 0x3f7e38a753e8c01d, 0x3f7db9f17e61c310, 0x3f7d3d19361a1042,
        0x3f7cc218694238a2, 0x3f7c48e915a6d9c4, 0x3f7bd18548996419, 0x3f7b5be71ed8bdbe,
        0x3f7ae808c479c371, 0x3f7a75e474cfa901, 0x3f7a05747a543aa7, 0x3f7996b32e9000aa,
        0x3f79299afa0246a6, 0x3f78be26540907dc, 0x3f78544fc2c8c1da, 0x3f77ec11db142ec9,
        0x3f7785674053e8b9, 0x3f77204aa46df734, 0x3f76bcb6c7ad4854, 0x3f765aa678a916b1,
        0x3f75fa14942c3d54, 0x3f759afc051c7af2, 0x3f753d57c461a5a7, 0x3f74e122d8ccd062,
        0x3f74865856ff632a, 0x3f742cf361522775, 0x3f73d4ef27bc49a6, 0x3f737e46e7ba50e6,
    ];
    #[rustfmt::skip]
    const PHI_GRID: [u64; 377] = [
        0x00000000037b23b8, 0x000000019088fc4a, 0x000000b13ca9ea51, 0x00004d365e75bd33,
        0x00208eda98086fd1, 0x008bf770238c6fe1, 0x00f7407c86b70752, 0x0163085519c7dca5,
        0x01ceaccc6bfeb0af, 0x0238562fe3c0ae20, 0x02a30246f0e0f87f, 0x030d3c23169a9e87,
        0x037621fd7ce0bf53, 0x03e07f140499ddaa, 0x044835b751a809f0, 0x04b17d60261668b9,
        0x0518e0e76581e5ae, 0x05816b97d1c01943, 0x05e80495ab1decac, 0x06504cf67e8f18b3,
        0x06b5c88567adc006, 0x071ca8b736be0780, 0x07828f7cc2eefae1, 0x07e7ab15c2717fb4,
        0x084db6d661d5b3ee, 0x08b25d01c567eb65, 0x0916586995763dc0, 0x097ac50b526010ca,
        0x09df92c1b8ba4028, 0x0a4254ba286d2a28, 0x0aa4f4a50aa0b258, 0x0b0795c4f9b49c5c,
        0x0b6a22175280770e, 0x0bcc820fc84b8742, 0x0c2e9df5d13d6477, 0x0c902fb412355a56,
        0x0cf0d97238b948c2, 0x0d5144971f0e4f6c, 0x0db16c3887f2aff7, 0x0e114e7fe9bebfcb,
        0x0e70ecce9daf5033, 0x0ed04ba2aa8df2a7, 0x0f2ee47e2b76118e, 0x0f8cd44214a866e7,
        0x0fea7ca08e3a10cb, 0x1047f538f2347552, 0x10a555b4343ce71f, 0x1102b46033c5a075,
        0x11602508b8e2624c, 0x11bb704224276e03, 0x1216f48dee2f5b80, 0x1272e83a8f9b5986,
        0x12cea9d2dc531c77, 0x13287ac9396f44c3, 0x13833d817a76ebe3, 0x13ddc6aecd5d0390,
        0x1436af0e389373a7, 0x1491035f4ac886a0, 0x14e91fff15c3e96c, 0x154243d166125c93,
        0x159a24ff9fa77826, 0x15f26c04154b46df, 0x16498f10b5aa062b, 0x16a174acc67f533b,
        0x16f7795ad05ea397, 0x174f1411c2e55b35, 0x17a441255e59efea, 0x17f9fde218b29465,
        0x18506b3603285095, 0x18a46c0ad7d04eae, 0x18f9020c6d7d037e, 0x194e26492791f1ce,
        0x19a1e485467b3945, 0x19f4e88d9878babc, 0x1a480dda8477c6b9, 0x1a9b3e9c9588b9a3,
        0x1aee616028d3d3c8, 0x1b40ad1f3a4454ad, 0x1b9206339b470c98, 0x1be32df370f34350,
        0x1c3417c1ac70680d, 0x1c84b941b0f375bc, 0x1cd50b1a1e2d4d1a, 0x1d250982c211352d,
        0x1d74b48ec7af6477, 0x1dc4102b3875dfe4, 0x1e1323d1f9698a93, 0x1e61f9f97c62c50b,
        0x1eb09f504c96d386, 0x1efe43b107e43267, 0x1f4b1ff2fe98649c, 0x1f97ef3b4f80dc92,
        0x1fe4cade40b0496a, 0x2031c88266cb2c67, 0x207df2b93b70f3c1, 0x20c8d3b086762ce2,
        0x211443474117911f, 0x2160481f7d5fe798, 0x21a9c2b5b8d692f7, 0x21f4103cf8a6ce1e,
        0x223ec4c900ce5ab9, 0x22873a4ea3f1c5ab, 0x22d1437888ea7247, 0x231943abac6e1708,
        0x2362334bd061877e, 0x23a9d12e4d208241, 0x23f206fb49aa09fa, 0x2438c93b16cf64de,
        0x2480c692fef0bac0, 0x24c65b5247901cae, 0x250d55565d996feb, 0x2552f2198affbc0a,
        0x259818282d7ca7a3, 0x25de2affb0a943d6, 0x2622980f6e6eb907, 0x266690e6ddd6cf54,
        0x26aaf674f3061110, 0x26efb7ad230b6880, 0x27325ddd7cc4e6fb, 0x2774f12720dc00b5,
        0x27b78249810921d5, 0x27f9fb6bd4e42c32, 0x283c456814c28bc2, 0x287e4928498fa672,
        0x28bff12411c9c474, 0x2900956e4735c9fc, 0x2940f41936f122a1, 0x29811039db7cb36d,
        0x29c0e882a5423636, 0x2a007ecb109ea548, 0x2a3fafd6ca7150ef, 0x2a7df6bcef451c42,
        0x2abbe566cd3c1a85, 0x2af991bc16490916, 0x2b3712ef3bc6a78f, 0x2b7480034b517cac,
        0x2bb1ee774feb43cd, 0x2beee262bde85112, 0x2c2a2f7499e13f8f, 0x2c65dba1d2a2e8f4,
        0x2ca1f6a3f82871ec, 0x2cdd11a8feebf6a6, 0x2d172807f4327171, 0x2d52293c5b695a9f,
        0x2d8c0bd0f1880783, 0x2dc55227f442978b, 0x2dffea54b087e2a3, 0x2e378487504db356,
        0x2e710fc891f9c590, 0x2ea85f7e2f54772e, 0x2ee123b9b222e6cc, 0x2f17bba2d097bd12,
        0x2f502d64a74714f3, 0x2f85b69456ffbc23, 0x2fbcb1605adc1ce6, 0x2ff2aa3bef1c9bb7,
        0x3027e87625f04303, 0x305e26877df99921, 0x3092b7b100784439, 0x30c6e16eb4f5247b,
        0x30fb8987b8ecde7a, 0x3130508d06da0561, 0x3163085f0c7c1821, 0x3195dc43cdd26b85,
        0x31c8b85e385a96a4, 0x31fb85a67826b46e, 0x322e2b02b27c8edc, 0x326047566c66a420,
        0x32914be5c581bcb8, 0x32c2180dc8acf266, 0x32f2a2c14ffcfac9, 0x3322e5b1ecc78bf5,
        0x3352ddc99e42a754, 0x33828b673591611d, 0x33b1f256f91068ae, 0x33e1198852a95618,
        0x34100a8872bb365a, 0x343da19fb62bd500, 0x346af1e9e33ed4ff, 0x34981faf18756b42,
        0x34c543b1842c894e, 0x34f2745ee59ea866, 0x351f8995c26bb651, 0x354a880f3c587c5a,
        0x3575f9bd44cdd4f4, 0x35a1ebc41a534f7c, 0x35ccc71b2e2b102c, 0x35f6bfcf111ac44d,
        0x3621b4c176e39cf0, 0x364b22ee9b3419a1, 0x3674794f69afec6f, 0x369e6ae0677fbb33,
        0x36c63f222737e58f, 0x36f005060a081c86, 0x3716b71fb8dac463, 0x373fb67a6d1a60a3,
        0x3765cbaff5bbf4b5, 0x378d7f5cbc7a2d23, 0x37b3a715a56dfa9a, 0x37d9c88a3aad8ccf,
        0x3800a70a98ce1d9d, 0x38252dc9dd2e1246, 0x384a8535e3df879c, 0x3870593d8948a34f,
        0x3893d880d577329b, 0x38b7b83de7347604, 0x38dbe9c1975636c8, 0x39002bc225d4b8fc,
        0x392272b313666239, 0x3944b8c0678fc115, 0x3966eac8cb7fadb0, 0x3988f476e8f34d06,
        0x39aac170cfdee0fc, 0x39cc3ea4f53f6074, 0x39ed5b979780fac9, 0x3a0e0b90f99cfaf9,
        0x3a2e468e575e1ccd, 0x3a4e09dcbbf038e4, 0x3a6d584d711e03e0, 0x3a8c39fe7c0dee60,
        0x3aaabbbd1ab8143d, 0x3ac8ee12e2e6635a, 0x3ae6e416925807a3, 0x3b04b21ebffd394e,
        0x3b226c75e84fb10d, 0x3b40262cd22e07da, 0x3b5be04543a446c6, 0x3b77b0a441470d5d,
        0x3b93d2d60a5c14aa, 0x3bb0556b305e7759, 0x3bca80dfeb2b1c64, 0x3be52c3d0bd10215,
        0x3c00a7afbb1ee67c, 0x3c19cd063226c868, 0x3c33ada639cabc7a, 0x3c4d8eb99f7f7726,
        0x3c65dbbaccf1a4e0, 0x3c7fd59ae3f7142e, 0x3c96d3ba010ac799, 0x3cb01e30a1d54c78,
        0x3cc669d2c90d55ce, 0x3cdeb0fed119b102, 0x3cf4b13ea9a9f5c3, 0x3d0b79cff2b8cab9,
        0x3d21f68f3dbb818a, 0x3d3721278ef40b1f, 0x3d4d53e3e82da9c6, 0x3d624f60a258d235,
        0x3d7683c36759a444, 0x3d8b437009ea26dd, 0x3da041789eb749a0, 0x3db317156a77fb3b,
        0x3dc61404b2da0191, 0x3dd9256fc30ef212, 0x3dec34c28f35ea26, 0x3dff289d4870f466,
        0x3e10f30ef0092d48, 0x3e22293637785101, 0x3e332a35e335e12b, 0x3e43eb34524706c6,
        0x3e5463cfa9c7fce7, 0x3e648eb8caab7cc6, 0x3e746a16cd7b7555, 0x3e83f7a8d8ed2701,
        0x3e933ca2f2133831, 0x3ea241499db1b218, 0x3eb11056da03cb85, 0x3ebf6c707d24b099,
        0x3ecc80728dd3b03a, 0x3ed9775b45c268bc, 0x3ee66a5bcbf244ea, 0x3ef36feaecd8d1e3,
        0x3f009ad7954afff8, 0x3f0bf37663a4a43b, 0x3f172d9564b2dce0, 0x3f22eff7fc311e78,
        0x3f2e7dbc92b77dd5, 0x3f38301be4097ac0, 0x3f42e86fd7d03406, 0x3f4d21af4ae0dd6d,
        0x3f561de1f985b5d7, 0x3f608c890e7cdbf7, 0x3f686904349ec803, 0x3f71bee6c07df146,
        0x3f796f4e57e49ce4, 0x3f81f85a1c9b297e, 0x3f890924f21d3612, 0x3f913243b7f38028,
        0x3f974bcf82c9d860, 0x3f9f20394ecbf67b, 0x3fa482a2414556dd, 0x3faaaa65bfa4f82e,
        0x3fb11a46d89647ef, 0x3fb5a61963dc9206, 0x3fbb0bdd12ba9c29, 0x3fc0ad7da0f9b0b9,
        0x3fc44ed0bb7cb20b, 0x3fc86bb4f580a4ba, 0x3fcd0220056b3a4e, 0x3fd105e82b1e4ca0,
        0x3fd3bf143b9aa712, 0x3fd6a527901e8243, 0x3fd9aecba9d22528, 0x3fdcd116c3bf96a6,
        0x3fe0000000000000, 0x3fe197749e2034ad, 0x3fe3289a2b16ed6c, 0x3fe4ad6c37f0bede,
        0x3fe62075e232ac77, 0x3fe77d0bea70d9b0, 0x3fe8bf77fea5316d, 0x3fe9e512c29fd6d2,
        0x3feaec4bd120d37d, 0x3febd4a097c193d2, 0x3fec9e845da8ac7b, 0x3fed4b3cd3846dbf,
        0x3feddcb724ed3702, 0x3fee5559a405b07d, 0x3feeb7d5dbebaa92, 0x3fef06fe3589a04c,
        0x3fef45a183e9b13d, 0x3fef766de24063ff, 0x3fef9bdb6c378b28, 0x3fefb81e978d935a,
        0x3fefcd21635036c6, 0x3fefdc82327f041d, 0x3fefe796fbcb6138, 0x3fefef7376f18324,
        0x3feff4f10f033d25, 0x3feff8b7942d47c9, 0x3feffb45e40a0bf3, 0x3feffcf9fc837ed1,
        0x3feffe182436d488, 0x3feffed100803cee, 0x3fefff469354da69, 0x3fefff903226716d,
        0x3fefffbd94a1aad4, 0x3fefffd9202a264e, 0x3fefffe995a4340e, 0x3feffff344525d1f,
        0x3feffff8dfe35c8b, 0x3feffffc1271f05b, 0x3feffffdddf524c0, 0x3feffffedbeb6625,
        0x3fefffff661ae86f, 0x3fefffffb0215c9c, 0x3fefffffd72bd265, 0x3fefffffeb714735,
        0x3feffffff5ce182b, 0x3feffffffb0532eb, 0x3feffffffd9ab944, 0x3feffffffedd6c9d,
        0x3fefffffff786788, 0x3fefffffffc1aec5, 0x3fefffffffe3cb3d, 0x3feffffffff36d48,
        0x3feffffffffa7aff, 0x3feffffffffd9d1d, 0x3feffffffffefbe8, 0x3fefffffffff92f2,
        0x3fefffffffffd2f8, 0x3fefffffffffedb1, 0x3feffffffffff8ab, 0x3feffffffffffd1c,
        0x3feffffffffffee1, 0x3fefffffffffff92, 0x3fefffffffffffd7, 0x3feffffffffffff1,
        0x3feffffffffffffa, 0x3feffffffffffffe, 0x3fefffffffffffff, 0x3ff0000000000000,
        0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000,
        0x3ff0000000000000,
    ];
    #[rustfmt::skip]
    const PHI_DENSE: [u64; 48] = [
        0x3f608c890e7cdbf7, 0x3f60f68c1636984a, 0x3f6162f5e296f233, 0x3f61d1d2a53a9561,
        0x3f62432ec27285c0, 0x3f62b716d1d292e2, 0x3f632d979ebfc39c, 0x3f63a6be28feae5e,
        0x3f642297a541b29d, 0x3f64a1317db70763, 0x3f652299529692d7, 0x3f65a6dcfaaf7e54,
        0x3f662e0a83f57a52, 0x3f66b830340da547, 0x3f67455c88db0848, 0x3f67d59e390a9bf2,
        0x3f686904349ec803, 0x3f68ff9da57a4f9b, 0x3f699979efea9c0b, 0x3f6a36a8b33157b1,
        0x3f6ad739ca0d4a46, 0x3f6b7b3d4b42679e, 0x3f6c22c38a2101bb, 0x3f6ccddd170c0ec0,
        0x3f6d7c9abffe731c, 0x3f6e2f0d910f400a, 0x3f6ee546d4f4d63d, 0x3f6f9f581586dc4c,
        0x3f702ea98e1f7c2d, 0x3f708fa4f95c1dff, 0x3f70f2a7719698b9, 0x3f7157ba3c7a3c4e,
        0x3f71bee6c07df146, 0x3f7228368520fcbd, 0x3f7293b33326f1ba, 0x3f73016694d2c6b4,
        0x3f73715a96210619, 0x3f73e39945011081, 0x3f74582cd18d6723, 0x3f74cf1f8e42f504,
        0x3f75487bf0374d49, 0x3f75c44c8f4dd4e7, 0x3f76429c266bcdef, 0x3f76c37593ab3a84,
        0x3f7746e3d88c8d7a, 0x3f77ccf21a271e98, 0x3f7855aba1585834, 0x3f78e11bdaf1940c,
    ];
}
