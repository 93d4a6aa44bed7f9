//! Exponential failure processes split across checkpoint levels.
//!
//! The paper (Section III.A) assumes failure inter-arrival times are
//! exponential with system rate `λ = Σ λ_k`, failures are independent, and a
//! level-k failure can be recovered by any level-j checkpoint with `j ≥ k`.
//! This module provides the edge quantities the Markov models need for a
//! state of nominal duration `τ`:
//!
//! * `P(no failure in τ) = e^{−λτ}`,
//! * `P(level-k failure occurs first) = (λ_k/λ)(1 − e^{−λτ})` (competing
//!   exponentials),
//! * `E[elapsed time | a failure occurred within τ] = 1/λ − τ·e^{−λτ}/(1 − e^{−λτ})`.

/// Per-level failure rates (events per second). Index 0 is level 1.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRates {
    rates: Vec<f64>,
}

impl FailureRates {
    /// Construct from per-level rates. All rates must be finite and ≥ 0,
    /// and at least one must be positive.
    pub fn new(rates: Vec<f64>) -> Self {
        assert!(!rates.is_empty(), "at least one level required");
        assert!(
            rates.iter().all(|r| r.is_finite() && *r >= 0.0),
            "rates must be finite and non-negative"
        );
        FailureRates { rates }
    }

    /// Three-level constructor (the common case in the paper).
    pub fn three(l1: f64, l2: f64, l3: f64) -> Self {
        Self::new(vec![l1, l2, l3])
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.rates.len()
    }

    /// Rate of level `k` (1-based, as in the paper).
    pub fn rate(&self, k: usize) -> f64 {
        self.rates[k - 1]
    }

    /// Total system rate `λ`.
    pub fn total(&self) -> f64 {
        self.rates.iter().sum()
    }

    /// Scale every level by `factor` (system-size scaling for MPI jobs).
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor >= 0.0);
        FailureRates {
            rates: self.rates.iter().map(|r| r * factor).collect(),
        }
    }

    /// Split a given total rate across levels *in proportion to* this
    /// profile's rates (used by the paper's testbed experiments, which set
    /// λ = 10⁻³ split in Coastal proportions, Section V.C).
    pub fn with_total(&self, total: f64) -> Self {
        let sum = self.total();
        assert!(sum > 0.0, "cannot re-proportion an all-zero profile");
        FailureRates {
            rates: self.rates.iter().map(|r| r / sum * total).collect(),
        }
    }

    /// The failure quantities of one exposure window of duration `τ`.
    pub fn exposure(&self, tau: f64) -> Exposure<'_> {
        debug_assert!(tau >= 0.0);
        let total = self.total();
        // `(−λ)·τ` and `−(λ·τ)` are the same float (negation is exact and
        // rounding is sign-symmetric), so one `exp` and one `exp_m1` of
        // `−λτ` serve every quantity below.
        let x = total * tau;
        let survive = (-x).exp();
        let fail_any = -(-x).exp_m1(); // 1 - e^{-x}
        let time_to_fail = if x < 1e-8 {
            // Series: τ/2 · (1 − x/6 + O(x²))
            tau / 2.0 * (1.0 - x / 6.0)
        } else {
            1.0 / total - tau * survive / fail_any
        };
        Exposure {
            rates: self,
            total,
            survive,
            fail_any,
            time_to_fail,
        }
    }
}

/// One exposure window of duration `τ` under a [`FailureRates`]: the
/// success probability, the per-level failure split and the conditional
/// time to failure, all derived from a single `e^{−λτ}` and `1 − e^{−λτ}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exposure<'a> {
    rates: &'a FailureRates,
    total: f64,
    survive: f64,
    fail_any: f64,
    time_to_fail: f64,
}

impl Exposure<'_> {
    /// Number of failure levels.
    pub fn levels(&self) -> usize {
        self.rates.levels()
    }

    /// `P(no failure within τ) = e^{−λτ}`.
    pub fn p_survive(&self) -> f64 {
        self.survive
    }

    /// `P(the first failure within τ is level k) = (λ_k/λ)(1 − e^{−λτ})`
    /// (1-based `k`).
    pub fn p_fail_level(&self, k: usize) -> f64 {
        if self.total == 0.0 {
            return 0.0;
        }
        (self.rates.rate(k) / self.total) * self.fail_any
    }

    /// `E[elapsed time | some failure occurred within τ]`.
    ///
    /// Exact expression `1/λ − τ·e^{−λτ}/(1−e^{−λτ})`; for `λτ → 0` this
    /// tends to `τ/2`, which is used directly below numerical noise.
    pub fn expected_time_to_fail(&self) -> f64 {
        self.time_to_fail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_rates() {
        let f = FailureRates::three(1e-7, 2e-7, 3e-7);
        assert!((f.total() - 6e-7).abs() < 1e-20);
        assert_eq!(f.rate(2), 2e-7);
        assert_eq!(f.levels(), 3);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let f = FailureRates::three(1e-4, 5e-4, 2e-4);
        let ex = f.exposure(1234.5);
        let sum = ex.p_survive() + ex.p_fail_level(1) + ex.p_fail_level(2) + ex.p_fail_level(3);
        assert!((sum - 1.0).abs() < 1e-12, "sum={sum}");
    }

    #[test]
    fn survive_monotone_decreasing_in_tau() {
        let f = FailureRates::three(1e-4, 1e-4, 1e-4);
        assert!(f.exposure(10.0).p_survive() > f.exposure(100.0).p_survive());
        assert_eq!(f.exposure(0.0).p_survive(), 1.0);
    }

    #[test]
    fn expected_time_to_fail_small_rate_is_half_tau() {
        let f = FailureRates::three(1e-12, 0.0, 0.0);
        let tau = 100.0;
        let e = f.exposure(tau).expected_time_to_fail();
        assert!((e - 50.0).abs() < 1e-3, "e={e}");
    }

    #[test]
    fn expected_time_to_fail_large_rate_tends_to_mtbf() {
        // λτ ≫ 1: conditioning barely matters; E → 1/λ.
        let f = FailureRates::three(1.0, 0.0, 0.0);
        let e = f.exposure(1000.0).expected_time_to_fail();
        assert!((e - 1.0).abs() < 1e-6, "e={e}");
    }

    #[test]
    fn expected_time_to_fail_bounded_by_tau() {
        let f = FailureRates::three(1e-3, 2e-3, 0.5e-3);
        for tau in [0.1, 1.0, 10.0, 1000.0] {
            let e = f.exposure(tau).expected_time_to_fail();
            assert!(e > 0.0 && e < tau, "tau={tau} e={e}");
        }
    }

    #[test]
    fn expected_time_continuous_at_series_switch() {
        // Check continuity around the x = 1e-8 switch point.
        let tau = 1.0;
        let lam_lo = 0.99e-8;
        let lam_hi = 1.01e-8;
        let f_lo = FailureRates::new(vec![lam_lo]);
        let f_hi = FailureRates::new(vec![lam_hi]);
        let d = (f_lo.exposure(tau).expected_time_to_fail()
            - f_hi.exposure(tau).expected_time_to_fail())
        .abs();
        assert!(d < 1e-6, "discontinuity {d}");
    }

    #[test]
    fn shared_exposure_terms_equal_the_direct_formulas_bit_for_bit() {
        // One `exp` and one `exp_m1` of −(λτ) must give exactly the bits of
        // the per-quantity formulas written with (−λ)·τ, on both sides of
        // the series switch and into underflow.
        let f = FailureRates::three(2e-4, 1.8e-3, 4e-4);
        let lam = f.total();
        for tau in [0.0, 1e-9, 4e-6, 4.5e-6, 0.5, 7.0, 1234.5, 1e5, 1e7] {
            let ex = f.exposure(tau);
            assert_eq!(ex.p_survive().to_bits(), (-lam * tau).exp().to_bits());
            for k in 1..=3 {
                let direct = (f.rate(k) / lam) * (-(-lam * tau).exp_m1());
                assert_eq!(ex.p_fail_level(k).to_bits(), direct.to_bits());
            }
            let x = lam * tau;
            let direct = if x < 1e-8 {
                tau / 2.0 * (1.0 - x / 6.0)
            } else {
                1.0 / lam - tau * (-x).exp() / -(-x).exp_m1()
            };
            assert_eq!(ex.expected_time_to_fail().to_bits(), direct.to_bits());
        }
    }

    #[test]
    fn with_total_preserves_proportions() {
        let coastal = FailureRates::three(2e-7, 1.8e-6, 4e-7);
        let f = coastal.with_total(1e-3);
        assert!((f.total() - 1e-3).abs() < 1e-15);
        // λ2 should be 75% of total (1.8e-6 / 2.4e-6).
        assert!((f.rate(2) / f.total() - 0.75).abs() < 1e-12);
        // λ1 should be ~8.33%.
        assert!((f.rate(1) / f.total() - 2.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_multiplies_everything() {
        let f = FailureRates::three(1.0, 2.0, 3.0).scaled(10.0);
        assert_eq!(f.rate(1), 10.0);
        assert_eq!(f.total(), 60.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_rejected() {
        let _ = FailureRates::three(-1.0, 0.0, 0.0);
    }
}
