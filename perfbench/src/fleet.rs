//! Fleet workloads, untraced: tenants of the wall-clock `aicd` server
//! ([`FleetServer`] / [`TenantSession`]) cutting checkpoints in a closed
//! loop. One client thread serves every session round-robin and waits for
//! each cut (or crash + recover) to return before it issues the next one,
//! as an application blocked in its checkpoint window does. The server's
//! own threads — the encode pool, sized to the host's parallelism, and the
//! transport drainer — run concurrently with it.
//!
//! One client, not one per core: on a 2-vCPU host two closed-loop clients
//! plus two encode workers and the drainer oversubscribe the CPU, and the
//! resulting scheduling noise moved the run-to-run median cut latency by
//! 40% while adding no throughput.
//!
//! A run is a series of identical episodes: start a server, join every
//! tenant, cut `EPISODE_COMMITS` checkpoints per tenant with the crash
//! cadence, depart. The logs and chunk stores grow and compact as an
//! episode proceeds, so a fixed amount of work per episode — not a time
//! window — keeps every run measuring the same state trajectory.

use std::time::Instant;

use aic_ckpt::fleet::SharedDatasetFleet;
use aic_ckpt::recovery::{RecoveredImage, RecoveryLevel};
use aic_ckpt::script::{image_digest, StreamEvent};
use aic_ckpt::service::{ServiceConfig, TenantPolicy};
use aic_ckpt::wallclock::{FleetServer, TenantSession};
use aic_memsim::PAGE_SIZE;
use bytes::Bytes;

use crate::stats::Outcome;

/// Tenant geometry of one fleet workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub tenants: usize,
    pub pages: usize,
    pub overlap_pct: u32,
}

/// Every `CRASH_EVERY`-th commit of a tenant is followed by a crash at the
/// next level of [`CRASH_LEVELS`] and a recovery.
pub const CRASH_EVERY: u64 = 8;
pub const CRASH_LEVELS: [usize; 3] = [1, 2, 3];
/// Commits per tenant in one episode: nine crashes, three per level.
pub const EPISODE_COMMITS: u64 = 9 * CRASH_EVERY;
/// L3 link bandwidth, bytes/s. High enough that neither a cut nor a
/// level-3 drain barrier waits on the modelled link: the benchmark
/// measures the code, not a paced sleep.
pub const LINK_BPS: f64 = 1.0e10;
/// Per-attempt link setup latency, seconds (zero for the same reason).
pub const LINK_LATENCY_S: f64 = 0.0;
/// Adaptive policy bootstrap interval and calibration horizon. The closed
/// loop cuts back to back, so w* steers nothing here; it is still solved
/// after every commit, as a real tenant's is.
pub const BOOTSTRAP_W: f64 = 10.0;
pub const HORIZON_ROUNDS: u64 = 1000;

/// The server configuration every fleet workload runs with.
pub fn service_config(cores: usize) -> ServiceConfig {
    let mut cfg = ServiceConfig::fleet_default(aic_bench::experiments::testbed_rates());
    cfg.cores = cores;
    cfg.b3 = LINK_BPS;
    cfg.link_latency = LINK_LATENCY_S;
    cfg
}

pub fn policy() -> TenantPolicy {
    TenantPolicy::Adaptive {
        bootstrap: BOOTSTRAP_W,
    }
}

/// The digest a correct recovery of `persona` at `round` must carry: the
/// persona's pure-function state plus the round's cpu-state blob.
pub fn expected_image_digest(fleet: &SharedDatasetFleet, persona: usize, round: u64) -> u64 {
    image_digest(&RecoveredImage {
        snapshot: fleet.snapshot(persona, round),
        cpu_state: Bytes::copy_from_slice(&round.to_le_bytes()),
        level: RecoveryLevel::Local,
        seq: 0,
        read_seconds: 0.0,
        degraded: false,
    })
}

/// What one untraced fleet run measured, over all its episodes.
#[derive(Debug, Default)]
pub struct FleetRun {
    pub episodes: usize,
    pub setup_s: Vec<f64>,
    pub cut_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    /// Time spent cutting and restoring, seconds (setup and departures
    /// excluded).
    pub window_s: f64,
    /// Dirty tenant state checkpointed in that time, bytes.
    pub dirty_bytes: u64,
    /// Server counters over that time, summed over episodes.
    pub cuts: u64,
    pub wire_bytes: u64,
    pub shards: u64,
    pub preemptions: u64,
    /// The first episode's record streams, by tenant id.
    pub streams: Vec<Vec<StreamEvent>>,
    pub outcome: Outcome,
}

struct Tenant<'s> {
    sess: Option<TenantSession<'s>>,
    commits: u64,
    crashes: u64,
}

/// Join every tenant and commit its first full anchor.
fn join_all<'s>(server: &'s FleetServer, shape: Shape, outcome: &mut Outcome) -> Vec<Tenant<'s>> {
    (0..shape.tenants)
        .map(|persona| {
            let mut sess = server.join(persona, policy(), HORIZON_ROUNDS);
            let ok = sess.cut().is_ok();
            outcome.check(ok);
            Tenant {
                sess: ok.then_some(sess),
                commits: 1,
                crashes: 0,
            }
        })
        .collect()
}

/// Every tenant leaves; each departure must verify and leak nothing.
fn depart(tenants: Vec<Tenant<'_>>, outcome: &mut Outcome) -> Vec<Vec<StreamEvent>> {
    tenants
        .into_iter()
        .map(|t| match t.sess {
            Some(sess) => {
                let events = sess.leave();
                let verified = matches!(
                    events.last(),
                    Some(StreamEvent::Leave {
                        verified: Some(true),
                        leaked: 0
                    })
                );
                outcome.check(verified);
                events
            }
            None => Vec::new(),
        })
        .collect()
}

/// The closed loop: every live tenant in turn cuts, and every
/// `CRASH_EVERY`-th commit of a tenant is followed by a crash + recover,
/// until each tenant has `EPISODE_COMMITS` commits.
fn drive(tenants: &mut [Tenant<'_>], pages: usize, run: &mut FleetRun) {
    loop {
        let mut live = 0;
        for t in tenants.iter_mut() {
            let Some(sess) = t.sess.as_mut().filter(|_| t.commits < EPISODE_COMMITS) else {
                continue;
            };
            live += 1;
            let t0 = Instant::now();
            let cut = sess.cut().is_ok();
            run.cut_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            run.outcome.check(cut);
            if !cut {
                // A failed session is dropped, not left: its Drop releases
                // whatever it still holds.
                t.sess = None;
                continue;
            }
            run.dirty_bytes += (pages * PAGE_SIZE) as u64;
            t.commits += 1;
            if t.commits % CRASH_EVERY == 0 {
                let level = CRASH_LEVELS[(t.crashes % 3) as usize];
                t.crashes += 1;
                let t0 = Instant::now();
                let ok = sess.crash(level).is_ok() && sess.recover().is_ok();
                run.restore_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                run.outcome.check(ok);
                if !ok {
                    t.sess = None;
                }
            }
        }
        if live == 0 {
            return;
        }
    }
}

/// One episode: set up (timed from `t0`), drive, depart, check.
fn episode(
    fleet: &SharedDatasetFleet,
    shape: Shape,
    cfg: &ServiceConfig,
    t0: Instant,
    run: &mut FleetRun,
) {
    let server = FleetServer::start(fleet.clone(), cfg.clone());
    let mut tenants = join_all(&server, shape, &mut run.outcome);
    run.setup_s.push(t0.elapsed().as_secs_f64());
    let before = server.stats();
    let start = Instant::now();
    drive(&mut tenants, shape.pages, run);
    run.window_s += start.elapsed().as_secs_f64();
    let after = server.stats();
    run.cuts += after.cuts - before.cuts;
    run.wire_bytes += after.wire_bytes - before.wire_bytes;
    run.shards += after.shards - before.shards;
    run.preemptions += after.preemptions - before.preemptions;
    let streams = depart(tenants, &mut run.outcome);
    for _ in 0..server.violations() {
        run.outcome.flag();
    }
    // Every recovery must have restored the persona's exact state.
    for (persona, events) in streams.iter().enumerate() {
        for e in events {
            if let StreamEvent::Recover {
                level,
                round,
                image_digest,
            } = *e
            {
                if level == 0 || image_digest != expected_image_digest(fleet, persona, round) {
                    run.outcome.flag();
                }
            }
        }
    }
    if run.episodes == 0 {
        run.streams = streams;
    }
    run.episodes += 1;
}

/// Run episodes for about `seconds`: a new one starts only while the
/// episodes so far say it will end in time, and at least one runs. The
/// first episode's setup is timed from process start.
pub fn run(
    fleet: &SharedDatasetFleet,
    shape: Shape,
    cfg: &ServiceConfig,
    seconds: f64,
    process_start: Instant,
) -> FleetRun {
    let mut run = FleetRun::default();
    let start = Instant::now();
    loop {
        let t0 = if run.episodes == 0 {
            process_start
        } else {
            Instant::now()
        };
        episode(fleet, shape, cfg, t0, &mut run);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / run.episodes as f64 > seconds {
            return run;
        }
    }
}
