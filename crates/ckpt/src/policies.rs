//! Static checkpoint policies: the paper's SIC and Moody baselines.
//!
//! Both compute their (fixed) checkpoint interval offline from the *mean*
//! checkpoint cost — SIC via the concurrent L2L3 model, Moody via its
//! sequential model — exactly as Section V.A describes ("Both Moody and SIC
//! require the average checkpoint latency beforehand").

use aic_model::concurrent::ConcurrentModel;
use aic_model::moody::{moody_optimize, MoodyOptimum};
use aic_model::nonstatic::IntervalParams;
use aic_model::optimize::golden_minimize;
use aic_model::params::LevelCosts;
use aic_model::FailureRates;

use crate::engine::{CheckpointPolicy, Decision, DecisionCtx, EngineConfig, IntervalRecord};

/// Checkpoint every `w` virtual seconds of work.
#[derive(Debug, Clone)]
pub struct FixedIntervalPolicy {
    w: f64,
    name: String,
}

impl FixedIntervalPolicy {
    /// Policy cutting a checkpoint every `w` seconds.
    pub fn new(w: f64) -> Self {
        assert!(w > 0.0);
        FixedIntervalPolicy {
            w,
            name: format!("fixed[w={w:.1}s]"),
        }
    }

    /// The configured interval.
    pub fn interval(&self) -> f64 {
        self.w
    }
}

impl CheckpointPolicy for FixedIntervalPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        if ctx.elapsed + 1e-9 >= self.w {
            Decision::Checkpoint
        } else {
            Decision::Continue
        }
    }
}

/// Compute SIC's static optimal work span from calibration measurements:
/// mean `c1`, `dl`, `ds` over observed intervals define static level costs,
/// and the concurrent L2L3 model is minimized over `w` (Section V.A).
///
/// The means must come from a calibration run at the *same* pool width as
/// the deployment (the engine records `dl` at its configured `cores`, so
/// `calibration_means` of such a run is already in deployment units — no
/// rescaling happens here). To plan a different pool width from a
/// single-core calibration, use [`sic_optimal_w_pooled`].
pub fn sic_optimal_w(
    mean_c1: f64,
    mean_dl: f64,
    mean_ds_bytes: f64,
    config: &EngineConfig,
    base_time: f64,
) -> f64 {
    sic_optimal_w_pooled(mean_c1, mean_dl, mean_ds_bytes, config, base_time, 1)
}

/// [`sic_optimal_w`] for a deployment whose checkpointing core is a pool of
/// `cores` compression workers, calibrated from a **single-core** run:
/// `mean_dl` is the serial compression latency, which the interval model
/// scales by `1/cores` (pages are independent delta units) before the `w`
/// search — so a wider pool plans cheaper checkpoints and shorter spans.
pub fn sic_optimal_w_pooled(
    mean_c1: f64,
    mean_dl: f64,
    mean_ds_bytes: f64,
    config: &EngineConfig,
    base_time: f64,
    cores: usize,
) -> f64 {
    let sf = config.sharing_factor;
    let params = IntervalParams::from_measurement_with_cores(
        mean_c1,
        mean_dl * sf,
        mean_ds_bytes * sf,
        config.b2,
        config.b3,
        cores,
    );
    let costs = LevelCosts {
        c: params.c,
        r: params.r,
    };
    let w_lo = params.w_lower_bound();
    let w_hi = (base_time * 4.0).max(w_lo * 2.0);
    let chain = ConcurrentModel::L2L3.span_chain(&costs, &config.rates);
    golden_minimize(|w| chain.net2(w), w_lo, w_hi, 1e-6).x
}

/// Mean interval measurements from a calibration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationMeans {
    /// Mean local checkpoint latency.
    pub c1: f64,
    /// Mean delta latency.
    pub dl: f64,
    /// Mean compressed size, bytes.
    pub ds: f64,
    /// Mean uncompressed incremental size, bytes.
    pub raw: f64,
}

/// Average the checkpointed intervals of a run (calibration for SIC/Moody).
pub fn calibration_means(records: &[IntervalRecord]) -> CalibrationMeans {
    let cks: Vec<&IntervalRecord> = records.iter().filter(|r| r.raw_bytes > 0).collect();
    assert!(!cks.is_empty(), "calibration needs at least one checkpoint");
    let n = cks.len() as f64;
    CalibrationMeans {
        c1: cks.iter().map(|r| r.c1).sum::<f64>() / n,
        dl: cks.iter().map(|r| r.dl).sum::<f64>() / n,
        ds: cks.iter().map(|r| r.ds_bytes as f64).sum::<f64>() / n,
        raw: cks.iter().map(|r| r.raw_bytes as f64).sum::<f64>() / n,
    }
}

/// Compute the Moody baseline's optimal configuration for a full-checkpoint
/// payload of `full_bytes` (Moody ships the entire footprint every time).
pub fn moody_config(full_bytes: u64, config: &EngineConfig, rates: &FailureRates) -> MoodyOptimum {
    // Sequential level costs: c1 = local write; c2/c3 add the transfer at
    // the level's bandwidth (blocking, Fig. 3(c)).
    let c1 = config.cost_model.raw_io_latency(full_bytes);
    let c2 = c1 + full_bytes as f64 / config.b2;
    let c3 = c1 + full_bytes as f64 / config.b3;
    let costs = LevelCosts::symmetric(c1, c2, c3);
    // Cap the search at ~10 MTBFs: beyond that the interval never survives
    // and the chain solver degenerates (probability underflow).
    let w_lo = c3.max(1.0);
    let w_hi = (10.0 / rates.total().max(1e-12)).clamp(w_lo * 1.5, 5.0e7);
    moody_optimize(&costs, rates, w_lo, w_hi)
}

/// A dirty-page budget policy (simple adaptive baseline used in ablations):
/// checkpoint when the interval has accumulated `max_dirty` pages or
/// `max_elapsed` seconds, whichever first.
#[derive(Debug, Clone)]
pub struct DirtyBudgetPolicy {
    max_dirty: usize,
    max_elapsed: f64,
    name: String,
}

impl DirtyBudgetPolicy {
    /// Policy checkpointing at `max_dirty` pages or `max_elapsed` seconds.
    pub fn new(max_dirty: usize, max_elapsed: f64) -> Self {
        assert!(max_dirty > 0 && max_elapsed > 0.0);
        DirtyBudgetPolicy {
            max_dirty,
            max_elapsed,
            name: format!("dirty-budget[{max_dirty}p/{max_elapsed:.0}s]"),
        }
    }
}

impl CheckpointPolicy for DirtyBudgetPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        if ctx.dirty_pages >= self.max_dirty || ctx.elapsed + 1e-9 >= self.max_elapsed {
            Decision::Checkpoint
        } else {
            Decision::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_engine, Compressor, EngineConfig};
    use aic_memsim::workloads::generic::StreamingWorkload;
    use aic_memsim::workloads::WriteStyle;
    use aic_memsim::{SimProcess, SimTime};

    fn testbed() -> EngineConfig {
        EngineConfig::testbed(FailureRates::three(2e-7, 1.8e-6, 4e-7).with_total(1e-3))
    }

    fn proc(secs: f64) -> SimProcess {
        SimProcess::new(Box::new(StreamingWorkload::new(
            "cal",
            3,
            256,
            2,
            WriteStyle::PartialEntropy(400),
            SimTime::from_secs(secs),
        )))
    }

    #[test]
    fn fixed_interval_fires_on_schedule() {
        let mut p = FixedIntervalPolicy::new(3.0);
        let space = aic_memsim::AddressSpace::new();
        let prev = aic_memsim::Snapshot::new();
        let ctx_at = |elapsed| DecisionCtx {
            now: 10.0,
            elapsed,
            interval_index: 0,
            dirty_pages: 5,
            space: &space,
            prev_pages: &prev,
            last_record: None,
        };
        assert_eq!(p.decide(&ctx_at(1.0)), Decision::Continue);
        assert_eq!(p.decide(&ctx_at(3.0)), Decision::Checkpoint);
    }

    #[test]
    fn calibration_means_skip_tail() {
        let mut policy = FixedIntervalPolicy::new(5.0);
        let report = run_engine(proc(22.0), &mut policy, &testbed());
        let means = calibration_means(&report.intervals);
        assert!(means.c1 > 0.0);
        assert!(means.ds > 0.0 && means.ds <= means.raw * 1.05);
    }

    #[test]
    fn sic_optimal_w_reasonable() {
        let cfg = testbed();
        // 10 MB deltas at the testbed rate λ=1e-3.
        let w = sic_optimal_w(0.1, 0.5, 10e6, &cfg, 800.0);
        // Must respect the drain bound (c3−c1 ≈ 0.5 + 5 s) and not exceed
        // the search ceiling.
        assert!((5.0..4.0 * 800.0 + 1.0).contains(&w), "w={w}");
    }

    #[test]
    fn pooled_sic_plans_shorter_spans_on_wider_pools() {
        let cfg = testbed();
        // Compression-dominated regime: dl = 30 s per checkpoint.
        let w1 = sic_optimal_w_pooled(0.1, 30.0, 1e6, &cfg, 800.0, 1);
        let w4 = sic_optimal_w_pooled(0.1, 30.0, 1e6, &cfg, 800.0, 4);
        assert!(w4 < w1, "w4={w4} w1={w1}");
        // cores = 1 matches the plain SIC path exactly.
        assert_eq!(w1, sic_optimal_w(0.1, 30.0, 1e6, &cfg, 800.0));
    }

    /// w* bits over a sweep of calibration means, links, horizons, pool
    /// widths, sharing factors and failure profiles, folded into one FNV-1a
    /// digest. The pins are the bits of the straightforward solver that
    /// `aic-model`'s `solver_bit_identity` test keeps as its reference: a
    /// faster solver must not move a single bit of any w*.
    #[test]
    fn sic_w_star_sweep_bits_are_pinned() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut n = 0;
        let mut first = None;
        for rates in [
            FailureRates::three(2e-7, 1.8e-6, 4e-7).with_total(1e-3),
            FailureRates::three(2e-7, 1.8e-6, 4e-7),
        ] {
            for b3 in [1.5e5, 2.0e6, 1.0e10] {
                for sf in [1.0, 3.0] {
                    let mut cfg = EngineConfig::testbed(rates.clone());
                    cfg.b3 = b3;
                    cfg.sharing_factor = sf;
                    for base_time in [10.0, 800.0, 1e4] {
                        for c1 in [1e-4, 2e-3, 0.1] {
                            for dl in [1e-4, 1.5e-3, 0.5, 30.0] {
                                for ds in [1e3, 24e3, 1e6, 10e6] {
                                    for cores in [1, 4] {
                                        let w = sic_optimal_w_pooled(
                                            c1, dl, ds, &cfg, base_time, cores,
                                        );
                                        first.get_or_insert(w);
                                        for byte in w.to_bits().to_le_bytes() {
                                            h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
                                        }
                                        n += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(n, 3456);
        assert_eq!(first, Some(1.0000009450770186), "first w* moved");
        assert_eq!(h, 0x72BC_AB80_4639_B0DE, "w* sweep digest moved");
    }

    #[test]
    fn moody_config_scales_with_footprint() {
        let cfg = testbed();
        let rates = cfg.rates.with_total(1e-3);
        let small = moody_config(100 << 20, &cfg, &rates);
        let large = moody_config(1 << 30, &cfg, &rates);
        // Bigger checkpoints → longer optimal intervals.
        assert!(large.w > small.w, "large={} small={}", large.w, small.w);
    }

    #[test]
    fn dirty_budget_policy_fires_on_pages() {
        let mut policy = DirtyBudgetPolicy::new(100, 1e9);
        let mut cfg = testbed();
        cfg.compressor = Compressor::IncrementalRaw;
        let report = run_engine(proc(20.0), &mut policy, &cfg);
        let cks: Vec<_> = report
            .intervals
            .iter()
            .filter(|r| r.raw_bytes > 0)
            .collect();
        assert!(!cks.is_empty());
        for rec in cks {
            // Fires shortly after crossing 100 dirty pages (decision ticks
            // are 1 s apart; the stream dirties ~200 pages/s).
            assert!(rec.dirty_pages >= 100, "{}", rec.dirty_pages);
        }
    }
}
