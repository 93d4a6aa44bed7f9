//! The non-static (per-interval) concurrent checkpoint model of Fig. 8.
//!
//! With incremental checkpointing and delta compression, the level costs
//! vary interval to interval: `c_k(i)` depends on the dirty set and its
//! compressibility *at the moment interval i's checkpoint is cut*. The
//! model of an interval therefore mixes parameters of interval `i` (the
//! checkpoint being taken) and interval `i−1` (the checkpoint recovery
//! falls back on — the grey states of Fig. 8).
//!
//! AIC's online decider evaluates this model with *predicted* `c_k(i)` to
//! pick the locally optimal work span `w*_L`; the experiment harness
//! re-evaluates it with *measured* parameters to score a finished run
//! (Eq. (1): `NET² = Σ T_int(i) / t`).

use crate::concurrent::SpanChain;
use crate::failure::FailureRates;
use crate::markov::{Chain, ChainBuilder};
use crate::optimize::{evt_minimize, Minimum};

/// Level costs of one specific interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalParams {
    /// `c_k(i)`: level-k checkpoint latency this interval (1-indexed k−1).
    pub c: [f64; 3],
    /// `r_k(i)`: recovery time from this interval's level-k checkpoint.
    pub r: [f64; 3],
}

impl IntervalParams {
    /// Costs with `r_k = c_k` (the paper's evaluation setting).
    pub fn symmetric(c1: f64, c2: f64, c3: f64) -> Self {
        assert!(
            c1 >= 0.0 && c2 >= c1 && c3 >= c1,
            "need c1 ≤ c2 and c1 ≤ c3, got {c1}, {c2}, {c3}"
        );
        IntervalParams {
            c: [c1, c2, c3],
            r: [c1, c2, c3],
        }
    }

    /// Build interval costs from an incremental-checkpoint measurement or
    /// prediction (Section IV.D):
    ///
    /// * `c2(i) = c1 + dl(i) + ds(i)/B2` — local write, delta compression on
    ///   the checkpointing core, transmission to the RAID-5 group;
    /// * `c3(i) = c1 + dl(i) + ds(i)/B3` — compression is shared with L2;
    ///   the L3 transfer sends the same delta to remote storage.
    pub fn from_measurement(c1: f64, dl: f64, ds_bytes: f64, b2: f64, b3: f64) -> Self {
        Self::from_measurement_with_cores(c1, dl, ds_bytes, b2, b3, 1)
    }

    /// [`IntervalParams::from_measurement`] for a deployment whose
    /// checkpointing core is a *pool* of `cores` compression workers.
    ///
    /// `dl` must be the **single-core** compression latency; pages are
    /// independent delta units, so a pool shards the encode page-wise and
    /// the compression term scales as `dl / cores`. The bandwidth terms are
    /// link-bound and unaffected. With the compression term shrunk, `c2`
    /// and `c3` drop — and with them the drain lower bound — so the
    /// Newton–Raphson `w*_L` search is free to pick shorter work spans on
    /// wider pools.
    pub fn from_measurement_with_cores(
        c1: f64,
        dl: f64,
        ds_bytes: f64,
        b2: f64,
        b3: f64,
        cores: usize,
    ) -> Self {
        assert!(b2 > 0.0 && b3 > 0.0, "bandwidths must be positive");
        assert!(c1 >= 0.0 && dl >= 0.0 && ds_bytes >= 0.0);
        let dl = dl / cores.max(1) as f64;
        let c2 = c1 + dl + ds_bytes / b2;
        let c3 = c1 + dl + ds_bytes / b3;
        IntervalParams {
            c: [c1, c2, c3],
            r: [c1, c2, c3],
        }
    }

    /// Transfer window for level k (`c_k − c_1`), 1-based.
    pub fn transfer(&self, k: usize) -> f64 {
        (self.c[k - 1] - self.c[0]).max(0.0)
    }

    /// Lower bound the next work span must respect: the next local
    /// checkpoint may not start before this interval's L3 transfer has
    /// drained the (single) checkpointing core (Section III.B).
    pub fn w_lower_bound(&self) -> f64 {
        self.transfer(3).max(1.0)
    }
}

/// Expected runtime `T_int(i)` of interval `i` under the non-static L2L3
/// concurrent model: work span `w`, this interval's costs `cur`, previous
/// interval's costs `prev` (recovery before this interval's L2 completes
/// falls back to interval `i−1`'s checkpoints).
pub fn interval_time_l2l3(
    w: f64,
    cur: &IntervalParams,
    prev: &IntervalParams,
    rates: &FailureRates,
) -> f64 {
    // An unreachable absorption (survival probability underflowed for a
    // hopelessly long span) is an infinite expected time, which the
    // optimizers treat as "never pick this w".
    span_chain_l2l3_nonstatic(cur, prev, rates).interval_time(w)
}

/// Per-interval NET² contribution: `T_int(i) / w` (the interval performs
/// `w` seconds of useful work).
pub fn net2_interval(
    w: f64,
    cur: &IntervalParams,
    prev: &IntervalParams,
    rates: &FailureRates,
) -> f64 {
    span_chain_l2l3_nonstatic(cur, prev, rates).net2(w)
}

/// The paper's online `w*_L` search (Section III.E): Extreme Value Theorem
/// over `[w_lo, w_hi]` with a Newton–Raphson interior candidate seeded at
/// `seed`. Returns the locally optimal work span and its NET².
pub fn optimal_w(
    cur: &IntervalParams,
    prev: &IntervalParams,
    rates: &FailureRates,
    w_lo: f64,
    w_hi: f64,
    seed: f64,
) -> Minimum {
    let chain = span_chain_l2l3_nonstatic(cur, prev, rates);
    evt_minimize(
        |w| chain.net2(w),
        w_lo.max(prev.w_lower_bound()),
        w_hi,
        seed,
    )
}

/// [`optimal_w`] with an explicit Newton–Raphson budget and tolerance, for
/// the online decider (called every decision second; the paper caps NR at
/// 200 iterations but observes < 5 in practice).
#[allow(clippy::too_many_arguments)]
pub fn optimal_w_budgeted(
    cur: &IntervalParams,
    prev: &IntervalParams,
    rates: &FailureRates,
    w_lo: f64,
    w_hi: f64,
    seed: f64,
    max_iter: usize,
    tol: f64,
) -> Minimum {
    let chain = span_chain_l2l3_nonstatic(cur, prev, rates);
    crate::optimize::evt_minimize_with(
        |w| chain.net2(w),
        w_lo.max(prev.w_lower_bound()),
        w_hi,
        seed,
        max_iter,
        tol,
    )
}

/// Build the non-static L2L3 chain (Fig. 8). Same topology as the static
/// [`crate::concurrent::ConcurrentModel::L2L3`] chain, with the recovery
/// and rerun states that reference the previous interval (grey in Fig. 8)
/// using `prev`'s parameters.
pub fn chain_l2l3_nonstatic(
    w: f64,
    cur: &IntervalParams,
    prev: &IntervalParams,
    rates: &FailureRates,
) -> Chain {
    span_chain_l2l3_nonstatic(cur, prev, rates).chain(w)
}

/// [`chain_l2l3_nonstatic`] with every state whose exposure does not depend
/// on the work span already wired (see [`SpanChain`]).
pub fn span_chain_l2l3_nonstatic<'a>(
    cur: &IntervalParams,
    prev: &IntervalParams,
    rates: &'a FailureRates,
) -> SpanChain<'a> {
    assert_eq!(rates.levels(), 3);
    // Interval i's serial path is `w + c1(i)`; everything that can fail it
    // over is recovered from interval i−1's checkpoints (the grey Fig. 8
    // states), so the window length and recovery times come from `prev`.
    // `cur`'s transfer window becomes the *next* interval's exposure —
    // mirroring the static chain's attribution (see `concurrent.rs`).
    let win_prev = prev.transfer(3);
    let r2_prev = prev.r[1];
    let r3_prev = prev.r[2];

    // 11 states; each of the 10 live ones has at most 1 + 3 edges.
    let mut b = ChainBuilder::with_capacity(11, 40);
    // The six recovery states share two exposure durations.
    let ex2 = rates.exposure(r2_prev);
    let ex3 = rates.exposure(r3_prev);

    let s1a = b.state("S1a:window(i-1)");
    let s1b = b.state("S1b:landed");
    let redo = b.state("REDO:span");
    let rerun = b.state("RERUN:prev-window(i-1)");
    let rec3_deep = b.state("R3:deep(i-1)");
    let rec2a = b.state("R2a(i-1)");
    let rec2b = b.state("R2b(i-1)");
    let rec3b = b.state("R3b(i-1)");
    let rec2rr = b.state("R2rr(i-1)");
    let rec3rr = b.state("R3rr(i-1)");
    let done = b.absorbing("DONE");

    // During the window, f1/f2 recover from the previous RAID copy; f3 is
    // deep (the previous checkpoint has not reached L3 yet).
    let window_dests = [rec2a, rec2a, rec3_deep];
    let span_dests = [rec2b, rec2b, rec3b];
    let rerun_dests = [rec2rr, rec2rr, rec3rr];
    // S1a, S1b and REDO depend on `w`: `SpanChain::chain` wires them.
    b.exposure(rerun, win_prev, win_prev, s1a, &rerun_dests, rates);
    b.exposure_with(rec3_deep, &ex3, r3_prev, rerun, &[rec3_deep; 3]);
    b.exposure_with(rec2a, &ex2, r2_prev, s1a, &window_dests);
    b.exposure_with(rec2b, &ex2, r2_prev, redo, &span_dests);
    b.exposure_with(rec3b, &ex3, r3_prev, redo, &span_dests);
    b.exposure_with(rec2rr, &ex2, r2_prev, rerun, &rerun_dests);
    b.exposure_with(rec3rr, &ex3, r3_prev, rerun, &rerun_dests);

    SpanChain {
        fixed: b,
        rates,
        c1: cur.c[0],
        win: win_prev,
        s1a,
        s1b,
        redo,
        done,
        window_dests,
        span_dests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::{net2_at, ConcurrentModel};
    use crate::params::{CoastalProfile, LevelCosts};

    fn rates() -> FailureRates {
        CoastalProfile::default().rates().with_total(1e-3)
    }

    #[test]
    fn reduces_to_static_when_intervals_equal() {
        let p = IntervalParams::symmetric(0.5, 4.5, 1052.0);
        let costs = LevelCosts::symmetric(0.5, 4.5, 1052.0);
        let r = rates();
        let w = 2_000.0;
        let ns = net2_interval(w, &p, &p, &r);
        let st = net2_at(ConcurrentModel::L2L3, w, &costs, &r);
        assert!((ns - st).abs() < 1e-12, "nonstatic={ns} static={st}");
    }

    #[test]
    fn cheaper_previous_checkpoint_lowers_interval_time() {
        // The interval's exposure comes from the *previous* checkpoint's
        // transfer window and recovery costs (the current one burdens the
        // next interval) — so a cheaper prev must lower T_int.
        let r = rates();
        let cur = IntervalParams::symmetric(0.5, 4.5, 1052.0);
        let cheap_prev = IntervalParams::symmetric(0.5, 1.0, 50.0);
        let expensive_prev = IntervalParams::symmetric(0.5, 10.0, 3000.0);
        let w = 4_000.0;
        let t_cheap = interval_time_l2l3(w, &cur, &cheap_prev, &r);
        let t_exp = interval_time_l2l3(w, &cur, &expensive_prev, &r);
        assert!(t_cheap < t_exp, "cheap={t_cheap} expensive={t_exp}");
    }

    #[test]
    fn from_measurement_formulas() {
        // c1 = 0.5, dl = 2, ds = 10 MB, B2 = 100 MB/s, B3 = 2 MB/s.
        let p = IntervalParams::from_measurement(0.5, 2.0, 10e6, 100e6, 2e6);
        assert!((p.c[0] - 0.5).abs() < 1e-12);
        assert!((p.c[1] - (0.5 + 2.0 + 0.1)).abs() < 1e-12);
        assert!((p.c[2] - (0.5 + 2.0 + 5.0)).abs() < 1e-12);
    }

    #[test]
    fn cores_scale_the_compression_term_only() {
        // Same measurement, pool of 4: dl shrinks 4×, transfers unchanged.
        let serial = IntervalParams::from_measurement(0.5, 2.0, 10e6, 100e6, 2e6);
        let pooled = IntervalParams::from_measurement_with_cores(0.5, 2.0, 10e6, 100e6, 2e6, 4);
        assert!((pooled.c[0] - serial.c[0]).abs() < 1e-12);
        assert!((pooled.c[1] - (0.5 + 0.5 + 0.1)).abs() < 1e-12);
        assert!((pooled.c[2] - (0.5 + 0.5 + 5.0)).abs() < 1e-12);
        // cores = 1 (and a degenerate 0) reproduce the serial params.
        let one = IntervalParams::from_measurement_with_cores(0.5, 2.0, 10e6, 100e6, 2e6, 1);
        assert_eq!(one, serial);
    }

    #[test]
    fn wider_pool_shortens_optimal_w() {
        // Compression dominates the checkpoint cost here, so shrinking dl
        // with a wider pool makes checkpoints cheaper and the NR search
        // must settle on a shorter work span.
        let r = rates();
        let mut last_w = f64::INFINITY;
        for cores in [1usize, 4, 16] {
            let p = IntervalParams::from_measurement_with_cores(0.1, 30.0, 1e6, 100e6, 2e6, cores);
            let m = optimal_w(&p, &p, &r, 1.0, 1e6, 500.0);
            assert!(
                m.x < last_w,
                "cores={cores}: w*={} did not shrink from {last_w}",
                m.x
            );
            last_w = m.x;
        }
    }

    #[test]
    fn optimal_w_respects_lower_bound() {
        let r = rates();
        let prev = IntervalParams::symmetric(0.5, 4.5, 500.0);
        let cur = IntervalParams::symmetric(0.5, 4.5, 500.0);
        let m = optimal_w(&cur, &prev, &r, 1.0, 1e6, 100.0);
        assert!(m.x >= prev.w_lower_bound());
        assert!(m.value > 1.0);
    }

    #[test]
    fn optimal_w_close_to_grid_search() {
        let r = rates();
        let prev = IntervalParams::symmetric(0.5, 4.5, 300.0);
        let cur = IntervalParams::symmetric(0.5, 3.0, 200.0);
        let evt = optimal_w(&cur, &prev, &r, 10.0, 2e5, 1_000.0);
        let grid = crate::optimize::grid_minimize(
            |w| net2_interval(w, &cur, &prev, &r),
            prev.w_lower_bound(),
            2e5,
            4_000,
        );
        assert!(
            evt.value <= grid.value * 1.002,
            "evt={} grid={}",
            evt.value,
            grid.value
        );
    }

    #[test]
    fn heavier_failure_rate_prefers_shorter_w() {
        let prev = IntervalParams::symmetric(0.5, 4.5, 100.0);
        let cur = prev;
        let light = CoastalProfile::default().rates().with_total(1e-5);
        let heavy = CoastalProfile::default().rates().with_total(1e-2);
        let w_light = optimal_w(&cur, &prev, &light, 10.0, 1e6, 1_000.0).x;
        let w_heavy = optimal_w(&cur, &prev, &heavy, 10.0, 1e6, 1_000.0).x;
        assert!(w_heavy < w_light, "heavy={w_heavy} light={w_light}");
    }

    #[test]
    fn w_lower_bound_is_transfer_window() {
        let p = IntervalParams::symmetric(0.5, 4.5, 100.5);
        assert!((p.w_lower_bound() - 100.0).abs() < 1e-12);
        let tiny = IntervalParams::symmetric(0.1, 0.2, 0.3);
        assert_eq!(tiny.w_lower_bound(), 1.0);
    }
}
