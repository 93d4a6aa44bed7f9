//! Ordinary least squares on small design matrices.
//!
//! Fitting happens once per stepwise candidate over at most a handful of
//! bootstrap samples, so normal equations with a small ridge term (for the
//! rank-deficient cases stepwise inevitably probes) are exactly right.

use aic_model::linalg::solve;

/// A fitted linear model `y ≈ β₀ + Σ βⱼ·xⱼ`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearFit {
    /// Coefficients; index 0 is the intercept.
    pub beta: Vec<f64>,
    /// Residual sum of squares on the training data.
    pub rss: f64,
    /// Coefficient of determination on the training data.
    pub r2: f64,
}

/// Fit `y ≈ β₀ + β·x` by ridge-stabilized least squares.
///
/// `xs[i]` is the i-th sample's feature vector (all the same length);
/// `ys[i]` its target. Returns `None` if there are no samples or the
/// (regularized) normal equations are singular.
pub fn fit(xs: &[Vec<f64>], ys: &[f64], ridge: f64) -> Option<LinearFit> {
    if xs.is_empty() || xs.len() != ys.len() {
        return None;
    }
    let k = xs[0].len();
    assert!(xs.iter().all(|x| x.len() == k), "ragged design matrix");
    let d = k + 1; // + intercept

    // Normal equations: (XᵀX + λI) β = Xᵀy with X including a 1s column;
    // XᵀX is row-major d×d.
    let mut xtx = vec![0.0; d * d];
    let mut xty = vec![0.0; d];
    for (x, &y) in xs.iter().zip(ys) {
        let mut row = Vec::with_capacity(d);
        row.push(1.0);
        row.extend_from_slice(x);
        for i in 0..d {
            xty[i] += row[i] * y;
            for j in 0..d {
                xtx[i * d + j] += row[i] * row[j];
            }
        }
    }
    // Do not penalize the intercept.
    for i in 1..d {
        xtx[i * d + i] += ridge;
    }
    solve(&mut xtx, &mut xty)?;
    let beta = xty;

    let mean_y: f64 = ys.iter().sum::<f64>() / ys.len() as f64;
    let mut rss = 0.0;
    let mut tss = 0.0;
    for (x, &y) in xs.iter().zip(ys) {
        let pred = predict(&beta, x);
        rss += (y - pred).powi(2);
        tss += (y - mean_y).powi(2);
    }
    let r2 = if tss > 0.0 { 1.0 - rss / tss } else { 1.0 };
    Some(LinearFit { beta, rss, r2 })
}

/// Evaluate a fitted model on a feature vector.
pub fn predict(beta: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(beta.len(), x.len() + 1);
    beta[0] + beta[1..].iter().zip(x).map(|(b, v)| b * v).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        // y = 2 + 3x
        let xs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..5).map(|i| 2.0 + 3.0 * i as f64).collect();
        let f = fit(&xs, &ys, 1e-9).unwrap();
        assert!((f.beta[0] - 2.0).abs() < 1e-6);
        assert!((f.beta[1] - 3.0).abs() < 1e-6);
        assert!(f.r2 > 0.999999);
    }

    #[test]
    fn two_features() {
        // y = 1 + 2a − 4b
        let xs = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![2.0, 1.0],
            vec![3.0, 2.0],
        ];
        let ys: Vec<f64> = xs.iter().map(|x| 1.0 + 2.0 * x[0] - 4.0 * x[1]).collect();
        let f = fit(&xs, &ys, 1e-9).unwrap();
        assert!((f.beta[1] - 2.0).abs() < 1e-5);
        assert!((f.beta[2] + 4.0).abs() < 1e-5);
    }

    #[test]
    fn collinear_features_survive_via_ridge() {
        // Second feature is a copy of the first: rank-deficient without ridge.
        let xs: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64, i as f64]).collect();
        let ys: Vec<f64> = (0..6).map(|i| 5.0 * i as f64).collect();
        let f = fit(&xs, &ys, 1e-6).unwrap();
        // Combined effect ≈ 5.
        assert!((f.beta[1] + f.beta[2] - 5.0).abs() < 1e-2);
    }

    #[test]
    fn noisy_fit_has_partial_r2() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..20)
            .map(|i| i as f64 + if i % 2 == 0 { 3.0 } else { -3.0 })
            .collect();
        let f = fit(&xs, &ys, 1e-9).unwrap();
        assert!(f.r2 > 0.5 && f.r2 < 1.0, "r2={}", f.r2);
    }

    #[test]
    fn empty_returns_none() {
        assert!(fit(&[], &[], 1e-9).is_none());
    }

    #[test]
    fn constant_target_fits_intercept() {
        let xs: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        let ys = vec![7.0; 4];
        let f = fit(&xs, &ys, 1e-9).unwrap();
        assert!((f.beta[0] - 7.0).abs() < 1e-6);
        assert!(f.beta[1].abs() < 1e-6);
    }

    #[test]
    fn non_finite_features_return_none() {
        // A NaN or infinite feature reaches the normal equations' pivot
        // column: the fit reports no solution instead of panicking.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut xs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64, 1.0]).collect();
            xs[2][0] = bad;
            let ys: Vec<f64> = (0..5).map(|i| i as f64).collect();
            assert!(fit(&xs, &ys, 1e-9).is_none(), "feature {bad}");
        }
    }
}
