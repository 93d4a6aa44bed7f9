//! The paper's concurrent multi-level checkpoint models (Fig. 3(a), Fig. 4).
//!
//! One checkpoint interval proceeds as: the application works for `w`
//! seconds, halts for the blocking local phase `c1` (the checkpoint file is
//! written), then resumes **while** the checkpointing core transfers the
//! file remotely — to the RAID-5 partner group (finishing at `c2 − c1`) and
//! to remote storage (finishing at `c3 − c1`). On the success path the
//! interval therefore costs only `w + c1`; the transfer windows contribute
//! *failure exposure*, not serial time. A failure during the transfer of
//! interval *i* forces recovery from interval *i−1*'s remote checkpoint and
//! a rerun of the overlapped window.
//!
//! Three enabled-level configurations are modelled, mirroring Fig. 4:
//! [`ConcurrentModel::L1L3`], [`ConcurrentModel::L2L3`] (the one AIC
//! adopts), and [`ConcurrentModel::L1L2L3`]. Each maps a failure level to
//! the cheapest enabled checkpoint able to recover it:
//!
//! * `L1L3`: `f1 → r1` (local file survives a transient), `f2, f3 → r3`;
//! * `L2L3`: `f1, f2 → r2`, `f3 → r3`;
//! * `L1L2L3`: `f_k → r_k`.
//!
//! During the transfer window the model distinguishes whether the *current*
//! interval's remote copy is already complete (recovery from the fresh copy
//! re-enters the window) or not (recovery falls back to the previous
//! interval's copy and re-runs the lost work, the grey path of Fig. 8).

use crate::failure::{Exposure, FailureRates};
use crate::markov::{Chain, ChainBuilder, StateId};
use crate::params::LevelCosts;

/// Which checkpoint levels are enabled (L3 always is — Section III.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConcurrentModel {
    /// Local + remote storage.
    L1L3,
    /// RAID-5 group + remote storage (the configuration AIC adopts).
    L2L3,
    /// All three levels.
    L1L2L3,
}

impl ConcurrentModel {
    /// All three configurations, in Fig. 4 order.
    pub const ALL: [ConcurrentModel; 3] = [
        ConcurrentModel::L1L3,
        ConcurrentModel::L2L3,
        ConcurrentModel::L1L2L3,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ConcurrentModel::L1L3 => "L1L3",
            ConcurrentModel::L2L3 => "L2L3",
            ConcurrentModel::L1L2L3 => "L1L2L3",
        }
    }

    /// The interval chain with every state whose exposure does not depend
    /// on the work span already wired (see [`SpanChain`]).
    pub fn span_chain<'a>(&self, costs: &LevelCosts, rates: &'a FailureRates) -> SpanChain<'a> {
        assert_eq!(rates.levels(), 3, "concurrent models are 3-level");
        let spec = match self {
            // f1: the local file survives a transient even mid-window.
            // f2/f3: only L3 can absorb them, and the fresh copy is still
            // in flight.
            ConcurrentModel::L1L3 => ChainSpec {
                window_rec: [Some(1), None, None],
                span_rec: [1, 3, 3],
            },
            // f1/f2 recover from the RAID group (the previous checkpoint's
            // L2 copy lands within c2 − c1 ≪ w); f3 during the window is
            // deep.
            ConcurrentModel::L2L3 => ChainSpec {
                window_rec: [Some(2), Some(2), None],
                span_rec: [2, 2, 3],
            },
            ConcurrentModel::L1L2L3 => ChainSpec {
                window_rec: [Some(1), Some(2), None],
                span_rec: [1, 2, 3],
            },
        };
        build_interval_chain(costs, &spec, rates)
    }

    /// Build the interval Markov chain for work span `w`.
    pub fn chain(&self, w: f64, costs: &LevelCosts, rates: &FailureRates) -> Chain {
        self.span_chain(costs, rates).chain(w)
    }

    /// Expected runtime of one interval, `T_int`. Returns `f64::INFINITY`
    /// when the interval cannot complete (survival probability underflows —
    /// the work span is hopeless at this failure rate).
    pub fn interval_time(&self, w: f64, costs: &LevelCosts, rates: &FailureRates) -> f64 {
        self.span_chain(costs, rates).interval_time(w)
    }
}

/// NET² at work span `w`: `T_int / w` (each interval completes `w` seconds
/// of useful work, so the per-interval normalized turnaround equals the
/// whole-run NET² for the static model).
pub fn net2_at(model: ConcurrentModel, w: f64, costs: &LevelCosts, rates: &FailureRates) -> f64 {
    model.span_chain(costs, rates).net2(w)
}

/// An interval chain with every state whose exposure does not depend on
/// the work span already wired: the rerun, deep and recovery states. Only
/// the three span states (`S1a`, `S1b`, `REDO`) are wired per `w`, so a
/// search that evaluates dozens of spans computes the other exposures once.
/// Each state keeps its edges in the same order as a chain wired in one go,
/// and the solve accumulates every row from its own edges only, so the
/// expected times are the same bits.
#[derive(Debug, Clone)]
pub struct SpanChain<'a> {
    pub(crate) fixed: ChainBuilder,
    pub(crate) rates: &'a FailureRates,
    /// Blocking local checkpoint: the span's serial path is `w + c1`.
    pub(crate) c1: f64,
    /// The previous checkpoint's transfer window overlapping the span.
    pub(crate) win: f64,
    pub(crate) s1a: StateId,
    pub(crate) s1b: StateId,
    pub(crate) redo: StateId,
    pub(crate) done: StateId,
    pub(crate) window_dests: [StateId; 3],
    pub(crate) span_dests: [StateId; 3],
}

impl SpanChain<'_> {
    /// The full chain for work span `w`.
    pub fn chain(&self, w: f64) -> Chain {
        assert!(w > 0.0 && w.is_finite(), "work span must be positive");
        let mut b = self.fixed.clone();
        let span = w + self.c1;
        let win_a = self.win.min(span);
        let win_b = (span - win_a).max(0.0);
        b.exposure(
            self.s1a,
            win_a,
            win_a,
            self.s1b,
            &self.window_dests,
            self.rates,
        );
        b.exposure(
            self.s1b,
            win_b,
            win_b,
            self.done,
            &self.span_dests,
            self.rates,
        );
        b.exposure(
            self.redo,
            span,
            span,
            self.done,
            &self.span_dests,
            self.rates,
        );
        b.build(self.s1a)
    }

    /// Expected runtime of the interval at work span `w`, `f64::INFINITY`
    /// when absorption is unreachable (see
    /// [`ConcurrentModel::interval_time`]).
    pub fn interval_time(&self, w: f64) -> f64 {
        self.chain(w).expected_time().unwrap_or(f64::INFINITY)
    }

    /// NET² at work span `w`: `T_int / w`.
    pub fn net2(&self, w: f64) -> f64 {
        self.interval_time(w) / w
    }
}

// Chain construction notes (shared by all three configurations).
//
// One interval covers the serial path "start of span i's work" → "start of
// span i+1's work": exactly `w + c1` on the success path. The *previous*
// checkpoint's remote transfer overlaps the first `c3 − c1` seconds of the
// span (the paper's Fig. 3(a)); attributing the window's failure exposure
// to the span it overlaps — rather than to its own interval — is what
// keeps the chain in agreement with the operational Monte-Carlo simulator
// (`aic-ckpt::sim`): each wall-clock second is failure-exposed exactly
// once. The span therefore splits into
//
// * `S1a` (the first `c3 − c1` seconds): the previous checkpoint is not on
//   L3 yet. A failure only its L3 copy could absorb falls back one more
//   checkpoint and re-runs the previous window (the paper's State 5);
// * `S1b` (the remainder): the previous checkpoint is fully landed, so
//   every recovery is shallow and only this span is redone (state REDO,
//   which no longer carries window exposure).
//
// Recovery levels per configuration: L1L3 maps f1 → r1 and f2, f3 → r3;
// L2L3 maps f1, f2 → r2 and f3 → r3; L1L2L3 maps f_k → r_k.

/// Shared topology: build the interval chain given, per failure level, the
/// checkpoint level that recovers it during the window and after it, and
/// which failure levels are *deep* during the window (cannot be absorbed
/// until the previous checkpoint reaches L3).
struct ChainSpec {
    /// Recovery level for failure level k during the window (None = deep
    /// path).
    window_rec: [Option<usize>; 3],
    /// Recovery level for failure level k after the window (always
    /// shallow).
    span_rec: [usize; 3],
}

fn build_interval_chain<'a>(
    costs: &LevelCosts,
    spec: &ChainSpec,
    rates: &'a FailureRates,
) -> SpanChain<'a> {
    // 15 states; each of the 14 live ones has at most 1 + 3 edges.
    let mut b = ChainBuilder::with_capacity(15, 56);
    let win = costs.transfer(3);
    // Every recovery state is exposed for one of the three recovery
    // times: their failure terms are computed once per chain.
    let rec_ex: [Exposure; 3] = std::array::from_fn(|k| rates.exposure(costs.r(k + 1)));

    let s1a = b.state("S1a:window");
    let s1b = b.state("S1b:landed");
    let redo = b.state("REDO:span");
    let rerun = b.state("RERUN:prev-window");
    let rec3_deep = b.state("R3:deep");
    let done = b.absorbing("DONE");

    // Recovery states per (context, level): window-context recoveries
    // re-enter S1a (the restarted transfer overlaps the redone span),
    // post-window recoveries re-enter REDO, rerun-context recoveries
    // re-enter RERUN.
    let rec_a: [StateId; 3] = std::array::from_fn(|k| b.state(["Ra0", "Ra1", "Ra2"][k]));
    let rec_b: [StateId; 3] = std::array::from_fn(|k| b.state(["Rb0", "Rb1", "Rb2"][k]));
    let rec_rr: [StateId; 3] = std::array::from_fn(|k| b.state(["Rrr0", "Rrr1", "Rrr2"][k]));

    // Failure destinations during the window: shallow recovery where a
    // surviving copy exists, the deep path otherwise.
    let window_dests: [StateId; 3] = std::array::from_fn(|k| match spec.window_rec[k] {
        Some(_) => rec_a[k],
        None => rec3_deep,
    });
    let span_dests = rec_b;
    let rerun_dests = rec_rr;

    // S1a, S1b and REDO depend on `w`: `SpanChain::chain` wires them.
    // The paper's State 5: re-run the previous interval's window work, then
    // restart the span (the re-cut checkpoint's transfer overlaps again).
    b.exposure(rerun, win, win, s1a, &rerun_dests, rates);
    let r3 = costs.r(3);
    b.exposure_with(rec3_deep, &rec_ex[2], r3, rerun, &[rec3_deep; 3]);

    for k in 0..3 {
        let ra = spec.window_rec[k].unwrap_or(3);
        let rb = spec.span_rec[k];
        let (ra_time, rb_time) = (costs.r(ra), costs.r(rb));
        b.exposure_with(rec_a[k], &rec_ex[ra - 1], ra_time, s1a, &window_dests);
        b.exposure_with(rec_b[k], &rec_ex[rb - 1], rb_time, redo, &span_dests);
        b.exposure_with(rec_rr[k], &rec_ex[rb - 1], rb_time, rerun, &rerun_dests);
    }

    SpanChain {
        fixed: b,
        rates,
        c1: costs.c(1),
        win,
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
    use crate::params::CoastalProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn coastal() -> (LevelCosts, FailureRates) {
        let p = CoastalProfile::default();
        (p.costs(), p.rates())
    }

    #[test]
    fn no_failure_limit_is_w_plus_c1() {
        let (costs, _) = coastal();
        let rates = FailureRates::three(1e-15, 1e-15, 1e-15);
        let w = 10_000.0;
        for m in ConcurrentModel::ALL {
            let t = m.interval_time(w, &costs, &rates);
            assert!(
                (t - (w + costs.c(1))).abs() < 1.0,
                "{}: T_int={t}",
                m.name()
            );
        }
    }

    #[test]
    fn net2_above_one_with_failures() {
        let (costs, rates) = coastal();
        for m in ConcurrentModel::ALL {
            let n = net2_at(m, 5_000.0, &costs, &rates);
            assert!(n > 1.0 && n < 2.0, "{}: {n}", m.name());
        }
    }

    #[test]
    fn l2l3_close_to_l1l2l3() {
        // Paper Fig. 5/6: L2L3 and L1L2L3 are consistently very close.
        let (costs, rates) = coastal();
        for scale in [1.0, 5.0, 10.0] {
            let s = crate::params::SystemScale {
                size: scale,
                app: crate::params::AppType::Mpi,
            };
            let c = s.costs(&costs);
            let r = s.rates(&rates);
            let w = (c.c(3) - c.c(1)).max(5_000.0);
            let a = net2_at(ConcurrentModel::L2L3, w, &c, &r);
            let b = net2_at(ConcurrentModel::L1L2L3, w, &c, &r);
            assert!(
                (a - b).abs() / b < 0.02,
                "scale {scale}: L2L3={a} L1L2L3={b}"
            );
        }
    }

    #[test]
    fn l1l3_much_worse_at_large_scale() {
        // Paper Fig. 5: L1L3 suffers because every f2 (the dominant rate)
        // must be recovered from slow L3.
        let (costs, rates) = coastal();
        let s = crate::params::SystemScale {
            size: 10.0,
            app: crate::params::AppType::Mpi,
        };
        let c = s.costs(&costs);
        let r = s.rates(&rates);
        let w = (c.c(3) - c.c(1)).max(5_000.0);
        let l13 = net2_at(ConcurrentModel::L1L3, w, &c, &r);
        let l23 = net2_at(ConcurrentModel::L2L3, w, &c, &r);
        assert!(l13 > 1.2 * l23, "L1L3={l13} L2L3={l23}");
    }

    #[test]
    fn interval_time_increases_with_failure_rate() {
        let (costs, rates) = coastal();
        let w = 5_000.0;
        let t1 = ConcurrentModel::L2L3.interval_time(w, &costs, &rates);
        let t2 = ConcurrentModel::L2L3.interval_time(w, &costs, &rates.scaled(20.0));
        assert!(t2 > t1, "t1={t1} t2={t2}");
    }

    #[test]
    fn chain_solver_matches_monte_carlo() {
        let (costs, rates) = coastal();
        let rates = rates.with_total(1e-3); // testbed rate so failures occur
        let chain = ConcurrentModel::L2L3.chain(2_000.0, &costs, &rates);
        let exact = chain.expected_time().unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 40_000;
        let mean: f64 = (0..n).map(|_| chain.sample(&mut rng)).sum::<f64>() / n as f64;
        let rel = (mean - exact).abs() / exact;
        assert!(rel < 0.02, "exact={exact} mc={mean}");
    }

    #[test]
    fn net2_has_interior_minimum_in_w() {
        // Too-small w pays c1 too often; too-large w loses too much work on
        // failure: NET²(w) must dip in between. Probed within the feasible
        // region (w ≥ c3 − c1, the drain rule) with a c1 big enough that
        // the Young/Daly optimum √(2·c1/λ) lies in the interior.
        let costs = LevelCosts::symmetric(20.0, 40.0, 200.0);
        let rates = CoastalProfile::default().rates().with_total(1e-4);
        let lo = net2_at(ConcurrentModel::L2L3, 200.0, &costs, &rates);
        let mid = net2_at(ConcurrentModel::L2L3, 650.0, &costs, &rates);
        let hi = net2_at(ConcurrentModel::L2L3, 100_000.0, &costs, &rates);
        assert!(mid < lo, "mid={mid} lo={lo}");
        assert!(mid < hi, "mid={mid} hi={hi}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_w_rejected() {
        let (costs, rates) = coastal();
        let _ = ConcurrentModel::L2L3.chain(0.0, &costs, &rates);
    }
}
