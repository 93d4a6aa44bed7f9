//! The `engine-aic` workload, untraced: the paper's single-process
//! scenario — a Table 3 persona run to completion by
//! [`run_engine_with_faults`] under [`AicPolicy`], committing every
//! checkpoint write-behind through a [`StorageHierarchy`], with periodic
//! full anchors and one mid-run level-2 failure. The hierarchy runs
//! without the dedup store, as the paper's engine does (with it, every
//! first-seen page of a 768-page anchor becomes its own log append, and
//! one commit takes seconds).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use aic_bench::experiments::{scaled_persona, testbed_rates, RunScale};
use aic_ckpt::engine::{CheckpointPolicy, Decision, DecisionCtx, EngineConfig, IntervalRecord};
use aic_ckpt::harness::{FailureSchedule, FaultEvent};
use aic_ckpt::recovery::StorageHierarchy;
use aic_ckpt::{run_engine_with_faults, WriteBehindConfig};
use aic_core::policy::{AicConfig, AicPolicy};
use aic_memsim::{SimProcess, SimTime, Snapshot};

use crate::stats::Outcome;

/// Persona and its scale. milc rewrites most of its 24 MiB lattice every
/// sweep: the highest dirty rate among the Table 3 personas.
pub const PERSONA: &str = "milc";
pub const FOOTPRINT: f64 = 0.125;
pub const DURATION: f64 = 0.25;
/// A full anchor every `FULL_EVERY` checkpoints bounds restore chains.
pub const FULL_EVERY: u64 = 4;
/// RAID-5 group width of the L2 level.
pub const RAID_NODES: usize = 4;
/// The mid-run failure: level 2, somewhere in this share of the base time.
pub const FAULT_LEVEL: usize = 2;
pub const FAULT_WINDOW: (f64, f64) = (0.3, 0.7);
/// Restores timed on each run's final hierarchy, levels cycled 1, 2, 3.
pub const RESTORES_PER_RUN: usize = 12;

/// Wraps the policy under test: stamps the end of every decide tick, so the
/// wall time of each checkpoint cut is the span from the decide that chose
/// it to the `observe` that reports it, and records the cut's virtual time
/// so a replay can follow the same schedule. With `time_decide` it also
/// times each `decide` call.
pub struct Timed<P> {
    inner: P,
    time_decide: bool,
    decided_at: Option<Instant>,
    decided_now: f64,
    pub cut_ms: Vec<f64>,
    pub cut_times: Vec<f64>,
    pub decide_ns: Vec<f64>,
}

impl<P> Timed<P> {
    pub fn new(inner: P, time_decide: bool) -> Self {
        Timed {
            inner,
            time_decide,
            decided_at: None,
            decided_now: 0.0,
            cut_ms: Vec::new(),
            cut_times: Vec::new(),
            decide_ns: Vec::new(),
        }
    }
}

impl<P: CheckpointPolicy> CheckpointPolicy for Timed<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        let t0 = self.time_decide.then(Instant::now);
        let d = self.inner.decide(ctx);
        let end = Instant::now();
        if let Some(t0) = t0 {
            self.decide_ns.push((end - t0).as_nanos() as f64);
        }
        self.decided_at = Some(end);
        self.decided_now = ctx.now;
        d
    }

    fn observe(&mut self, rec: &IntervalRecord) {
        if let Some(t) = self.decided_at.take() {
            self.cut_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        self.cut_times.push(self.decided_now);
        self.inner.observe(rec);
    }

    fn decision_cost(&self) -> f64 {
        self.inner.decision_cost()
    }
}

/// Everything one engine run needs, built by [`setup`].
pub struct Setup {
    pub process: SimProcess,
    pub config: EngineConfig,
    pub storage: Arc<Mutex<StorageHierarchy>>,
    pub policy: Timed<AicPolicy>,
    pub schedule: FailureSchedule,
}

/// The persona as the engine receives it, initialized (footprint
/// allocated and filled) at virtual time 0.
pub fn persona(seed: u64) -> SimProcess {
    let scale = RunScale {
        footprint: FOOTPRINT,
        duration: DURATION,
        seed,
    };
    let mut process = scaled_persona(PERSONA, &scale);
    process.run_until(SimTime::from_secs(0.0));
    process
}

/// The engine configuration, without its storage hierarchy.
pub fn config(cores: usize) -> EngineConfig {
    let mut config = EngineConfig::testbed(testbed_rates());
    config.cores = cores;
    config.full_every = Some(FULL_EVERY);
    config.keep_files = true;
    config.transport = Some(WriteBehindConfig::default());
    config
}

/// When the failure strikes, as a share of the base time. The forced full
/// anchor after it shifts the anchor cadence, so moving it from run to run
/// varies how many deltas the final chain holds — which is what a restore
/// replays — instead of every run of a seed ending on the same chain.
fn fault_frac(seed: u64) -> f64 {
    // SplitMix64 finalizer: neighbouring seeds land far apart.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let (lo, hi) = FAULT_WINDOW;
    lo + (hi - lo) * (z >> 11) as f64 / (1u64 << 53) as f64
}

pub fn setup(seed: u64, cores: usize, time_decide: bool) -> Setup {
    let process = persona(seed);
    let storage = Arc::new(Mutex::new(StorageHierarchy::coastal(RAID_NODES)));
    let mut config = config(cores);
    config.storage = Some(Arc::clone(&storage));
    let policy = Timed::new(
        AicPolicy::new(AicConfig::testbed(config.rates.clone()), &config),
        time_decide,
    );
    let at = process.base_time().as_secs() * fault_frac(seed);
    Setup {
        process,
        config,
        storage,
        policy,
        schedule: FailureSchedule::single(at, FAULT_LEVEL, 1),
    }
}

/// One completed engine run, kept for the traced replay and its checks.
pub struct RunLog {
    pub cut_times: Vec<f64>,
    pub faults: Vec<FaultEvent>,
    pub intervals: Vec<IntervalRecord>,
    /// The latest checkpoint's image, replayed from the engine's own chain.
    pub latest: Snapshot,
}

#[derive(Default)]
pub struct EngineRun {
    pub setup_s: Vec<f64>,
    pub cut_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    pub decide_ns: Vec<f64>,
    /// Wall seconds inside `run_engine_with_faults`.
    pub run_s: f64,
    pub raw_bytes: u64,
    pub ds_bytes: u64,
    pub net2: Vec<f64>,
    pub runs: usize,
    pub first: Option<RunLog>,
    pub outcome: Outcome,
}

/// The persona seed of the `k`-th engine run of a benchmark run: the
/// adaptive policy cuts a seed-dependent schedule, so the chain a restore
/// replays differs from seed to seed; pooling several seeds per run keeps
/// one benchmark run's figures from hanging on one schedule.
pub fn run_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Run the persona to completion again and again for about `seconds` (at
/// least once), each time with the next derived seed; after each run, time
/// restores from every level of its final hierarchy and check each against
/// the engine's own chain.
pub fn run(
    seed: u64,
    cores: usize,
    seconds: f64,
    process_start: Instant,
    trace: bool,
) -> EngineRun {
    let mut out = EngineRun::default();
    let start = Instant::now();
    // A new run starts only while the runs so far say it will end in time.
    while out.runs == 0 || {
        let elapsed = start.elapsed().as_secs_f64();
        elapsed + elapsed / out.runs as f64 <= seconds
    } {
        let t0 = if out.runs == 0 {
            process_start
        } else {
            Instant::now()
        };
        let mut s = setup(run_seed(seed, out.runs), cores, trace);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let result = run_engine_with_faults(s.process, &mut s.policy, &s.config, &s.schedule);
        out.run_s += t0.elapsed().as_secs_f64();
        out.runs += 1;
        let Ok((report, faults)) = result else {
            out.outcome.fail();
            continue;
        };
        out.cut_ms.extend_from_slice(&s.policy.cut_ms);
        out.decide_ns.extend_from_slice(&s.policy.decide_ns);
        for rec in &report.intervals {
            out.raw_bytes += rec.raw_bytes;
            out.ds_bytes += rec.ds_bytes;
            out.outcome.ok();
        }
        out.net2.push(report.net2);
        out.outcome.check(faults.len() == 1);
        let Ok(latest) = report.restore_latest() else {
            out.outcome.fail();
            continue;
        };
        let hier = s.storage.lock().expect("engine released the hierarchy");
        for i in 0..RESTORES_PER_RUN {
            let level = 1 + i % 3;
            let t0 = Instant::now();
            let img = hier.recover_from(level);
            out.restore_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            out.outcome
                .check(img.is_ok_and(|img| img.snapshot == latest));
        }
        drop(hier);
        if out.first.is_none() {
            out.first = Some(RunLog {
                cut_times: std::mem::take(&mut s.policy.cut_times),
                faults,
                intervals: report.intervals,
                latest,
            });
        }
    }
    out
}
