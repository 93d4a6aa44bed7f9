//! The traced replay: the untraced run's operation sequence performed
//! again, single-threaded, by calling each layer's public functions in the
//! program's order (see [`crate::mirror`]), one span per call. It checks
//! its own outputs against the untraced run's — payload digests, w*, live
//! sets and recovered images for the fleet; per-interval sizes and the
//! restored image for the engine — and derives the per-layer metrics from
//! the spans.
//!
//! With tracing off the same replay runs over a bounded prefix of the
//! operation sequence as a correctness gate only.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::{Duration, Instant};

use aic_ckpt::engine::{Compressor, EngineConfig};
use aic_ckpt::fleet::SharedDatasetFleet;
use aic_ckpt::format::{CheckpointFile, CheckpointKind};
use aic_ckpt::policies::sic_optimal_w_pooled;
use aic_ckpt::recovery::{RecoveredImage, RecoveryLevel};
use aic_ckpt::script::{image_digest, payload_digest, StreamEvent};
use aic_ckpt::service::ServiceConfig;
use aic_ckpt::storage::BandwidthModel;
use aic_ckpt::transport::{LinkConfig, WriteBehindConfig};
use aic_delta::pa::{
    effective_parallel_plan, pa_encode_cached, pa_encode_parallel_cached, PaDeltaFile, PageRecord,
    SourceIndexCache,
};
use aic_delta::stats::{CostModel, EncodeReport};
use aic_memsim::{SimTime, Snapshot, PAGE_SIZE};
use bytes::Bytes;

use crate::mirror::{Image, Levels, Mirror};
use crate::stats::{mean, ratio, Metrics, Outcome};
use crate::tracer::Tracer;
use crate::{engine, fleet};

/// Per-layer metrics, in report order, with their units.
///
/// Every layer timed per unit of work runs on every workload; a count or
/// share a workload cannot have (no dedup store or NET² outside its
/// workloads, no preemption with one client) reads 0. The dedup store is
/// off on the engine, so dedup cost is a share of cut and restore time
/// (its per-call times are in the report's self-time table). The persona
/// layer is the workload's state source: `SharedDatasetFleet` for the
/// fleet, the memsim process for the engine.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("persona.step_ns_per_dirty_page", "ns/page"),
    ("persona.snapshot_ns_per_page", "ns/page"),
    ("pa.encode_ns_per_page", "ns/page"),
    ("pa.raw_page_frac", "ratio"),
    ("pa.delta_bytes_per_page", "B/page"),
    ("pa.index_hit_ratio", "ratio"),
    ("pa.cost_model_ratio", "ratio"),
    ("format.serialize_ns_per_byte", "ns/B"),
    ("format.parse_ns_per_byte", "ns/B"),
    ("dedup.cut_frac", "ratio"),
    ("dedup.restore_frac", "ratio"),
    ("dedup.hit_ratio", "ratio"),
    ("dedup.verify_failures", "count"),
    ("log.l1_append_ns_per_byte", "ns/B"),
    ("log.l2_append_ns_per_byte", "ns/B"),
    ("log.l3_append_ns_per_byte", "ns/B"),
    ("log.read_ns_per_byte", "ns/B"),
    ("log.compact_ms", "ms"),
    ("log.compact_bytes_per_user_byte", "ratio"),
    ("storage.l2_write_amplification", "ratio"),
    ("recovery.commit_us", "us"),
    ("recovery.ack_us", "us"),
    ("recovery.recover_us", "us"),
    ("transport.enqueue_ns", "ns"),
    ("transport.advance_ns", "ns"),
    ("transport.backpressure_frac", "ratio"),
    ("chain.replay_ns_per_page", "ns/page"),
    ("chain.records_per_restore", "records"),
    ("wallclock.shards_per_cut", "shards"),
    ("wallclock.preemptions_per_cut", "count"),
    ("wallclock.unattributed_frac", "ratio"),
    ("policy.decide_us", "us"),
    ("policy.net2", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Operations per tenant the untraced-mode gate replays: one crash at
/// each level.
const GATE_OPS: usize = 3 * (fleet::CRASH_EVERY as usize + 1);
/// How often the level-3 drain barrier re-polls the transport.
const POLL: Duration = Duration::from_micros(200);

/// Encode-layer counters, measured where the encode happens.
#[derive(Default)]
struct EncodeCounts {
    calls: u64,
    pages: u64,
    raw_pages: u64,
    delta_bytes: u64,
    index_hits: u64,
    index_lookups: u64,
    /// Compute seconds the cost model predicts for the measured encodes.
    predicted_s: f64,
}

impl EncodeCounts {
    fn add(
        &mut self,
        file: &PaDeltaFile,
        report: &EncodeReport,
        cm: &CostModel,
        cores: usize,
        hits: u64,
        misses: u64,
    ) {
        self.calls += 1;
        self.pages += file.records.len() as u64;
        self.raw_pages += file
            .records
            .iter()
            .filter(|r| matches!(r, PageRecord::Raw { .. }))
            .count() as u64;
        self.delta_bytes += report.delta_bytes;
        self.index_hits += hits;
        self.index_lookups += hits + misses;
        let scan = (report.source_bytes + report.target_bytes) as f64 / cm.scan_bw;
        let literal = report.literal_bytes as f64 / cm.literal_bw;
        self.predicted_s +=
            (report.pages as f64 * cm.page_overhead_s + scan + literal) / cores.max(1) as f64;
    }
}

fn state_of(round: u64) -> Bytes {
    Bytes::copy_from_slice(&round.to_le_bytes())
}

fn round_of(cpu_state: &[u8]) -> Option<u64> {
    cpu_state.try_into().ok().map(u64::from_le_bytes)
}

fn digest_of(img: &Image) -> u64 {
    image_digest(&RecoveredImage {
        snapshot: img.snapshot.clone(),
        cpu_state: img.cpu_state.clone(),
        level: RecoveryLevel::Local,
        seq: 0,
        read_seconds: 0.0,
        degraded: false,
    })
}

// ---------------------------------------------------------------------------
// Fleet
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Cmd {
    Cut,
    Crash(usize),
}

/// One tenant's replay state: the same bookkeeping a session keeps.
struct Tenant {
    persona: usize,
    job: u64,
    cmds: Vec<Cmd>,
    expected: Vec<StreamEvent>,
    next_event: usize,
    round: u64,
    has_anchor: bool,
    cuts_since_full: u64,
    ordinal_next: u64,
    seqs: HashSet<u64>,
    seq_ordinal: HashMap<u64, u64>,
    n: f64,
    sum_c1: f64,
    sum_dl: f64,
    sum_ds: f64,
    w: f64,
}

impl Tenant {
    fn expect(&mut self, got: StreamEvent, outcome: &mut Outcome) {
        let want = self.expected.get(self.next_event);
        self.next_event += 1;
        if want != Some(&got) {
            eprintln!(
                "replay mismatch, tenant {}: expected {want:?}, replayed {got:?}",
                self.job - 1
            );
            outcome.flag();
        }
    }

    fn live_ordinals(&self, m: &Mirror, level: usize) -> Vec<u64> {
        let mut v: Vec<u64> = m
            .live_seqs(level)
            .into_iter()
            .filter_map(|s| self.seq_ordinal.get(&s).copied())
            .collect();
        v.sort_unstable();
        v
    }
}

struct FleetReplay<'a> {
    fleet: &'a SharedDatasetFleet,
    cfg: ServiceConfig,
    solver: EngineConfig,
    pages: usize,
    mirror: Mirror,
    cache: SourceIndexCache,
    seq_next: u64,
    epoch: Instant,
    enc: EncodeCounts,
    cuts: u64,
}

fn fleet_levels(cfg: &ServiceConfig) -> Levels {
    Levels {
        l1: BandwidthModel::new(100e6, 1e-3),
        raid_nodes: 4,
        l2: BandwidthModel::new(471.7e6, 1e-3),
        l3: BandwidthModel::new(cfg.b3, cfg.link_latency),
        seg_capacity: cfg.seg_capacity,
        dedup: cfg.dedup,
        link: LinkConfig::new(cfg.b3, cfg.link_latency, cfg.sharing_factor),
        write_behind: WriteBehindConfig {
            queue_depth: cfg.queue_depth,
            faults: None,
            ..WriteBehindConfig::default()
        },
    }
}

/// The engine view the tenants' adaptive solver sees (the service's own
/// solver configuration, rebuilt from the public config).
fn solver_config(cfg: &ServiceConfig) -> EngineConfig {
    let mut s = EngineConfig::testbed(cfg.rates.clone());
    s.b3 = cfg.b3;
    s.sharing_factor = cfg.sharing_factor;
    s.cores = cfg.cores;
    s.cost_model = cfg.cost_model;
    s.compressor = Compressor::PaDelta(cfg.pa);
    s
}

impl FleetReplay<'_> {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn cut(&mut self, t: &mut Tenant, tr: &mut Tracer, outcome: &mut Outcome) {
        tr.begin_op();
        let root = tr.enter("cut");
        let round = t.round + 1;
        let full = !t.has_anchor || t.cuts_since_full + 1 >= self.cfg.full_every;
        let cm = self.cfg.cost_model;
        let (mut file, c1, dl, ds) = if full {
            let snap = tr.span("persona.snapshot", self.pages as u64, || {
                self.fleet.snapshot(t.persona, round)
            });
            let raw = snap.bytes();
            (
                CheckpointFile::full(t.job, 0, snap, state_of(round)),
                cm.raw_io_latency(raw),
                0.0,
                raw as f64,
            )
        } else {
            let prev = tr.span("persona.snapshot", self.pages as u64, || {
                self.fleet.snapshot(t.persona, round - 1)
            });
            let dirty = tr.span("persona.step", self.pages as u64, || {
                self.fleet.dirty(t.persona, round)
            });
            // Serial, through the shared index cache: the server's encode
            // pool runs the same shard work on persistent workers, which a
            // per-call thread fan-out would misprice on 8-page jobs.
            let (h0, m0) = (self.cache.hits(), self.cache.misses());
            let (pa_file, report) = tr.span("pa.encode", dirty.len() as u64, || {
                pa_encode_cached(&prev, &dirty, &self.cfg.pa, &self.cache)
            });
            self.enc.add(
                &pa_file,
                &report,
                &cm,
                1,
                self.cache.hits() - h0,
                self.cache.misses() - m0,
            );
            (
                CheckpointFile::delta(
                    t.job,
                    0,
                    pa_file,
                    (0..self.pages as u64).collect(),
                    state_of(round),
                ),
                cm.raw_io_latency((self.pages * PAGE_SIZE) as u64),
                cm.pooled_delta_latency(&report, self.cfg.cores),
                report.delta_bytes as f64,
            )
        };
        let now = self.now();
        self.mirror.advance(tr, now);
        let seq = self.seq_next;
        self.seq_next += 1;
        file.seq = seq;
        let (raid, wire) = self.mirror.commit_write_behind(tr, &file);
        if full {
            let stale: Vec<u64> = self
                .mirror
                .transport
                .pending_seqs()
                .into_iter()
                .filter(|s| *s < seq && t.seqs.contains(s))
                .collect();
            tr.span("transport.cancel", stale.len() as u64, || {
                self.mirror.transport.cancel_seqs(&stale)
            });
        }
        self.mirror.enqueue(tr, seq, wire, now + raid.seconds);

        // The tenant's own bookkeeping: ordinal, calibration, w* re-solve,
        // live sets, payload digest.
        let ordinal = t.ordinal_next;
        t.ordinal_next += 1;
        t.seqs.insert(seq);
        t.seq_ordinal.insert(seq, ordinal);
        t.round = round;
        if full {
            t.has_anchor = true;
            t.cuts_since_full = 0;
        } else {
            t.cuts_since_full += 1;
        }
        t.n += 1.0;
        t.sum_c1 += c1;
        t.sum_dl += dl;
        t.sum_ds += ds;
        let base_time = fleet::HORIZON_ROUNDS as f64 * fleet::BOOTSTRAP_W;
        t.w = tr.span("policy.decide", 1, || {
            sic_optimal_w_pooled(
                t.sum_c1 / t.n,
                t.sum_dl / t.n,
                t.sum_ds / t.n,
                &self.solver,
                base_time,
                self.cfg.cores,
            )
        });
        let open = tr.enter("log.live_seqs");
        let live_l1 = t.live_ordinals(&self.mirror, 1);
        let live_l2 = t.live_ordinals(&self.mirror, 2);
        tr.exit(open, 2);
        let digest = tr.span("script.payload_digest", 1, || {
            payload_digest(&file, ordinal)
        });
        tr.exit(root, 1);
        self.cuts += 1;
        outcome.ok();
        t.expect(
            StreamEvent::Commit {
                ordinal,
                round,
                full,
                payload_digest: digest,
                w_bits: t.w.to_bits(),
                live_l1,
                live_l2,
            },
            outcome,
        );
    }

    fn snapshot_matches(&self, tr: &mut Tracer, persona: usize, img: &Image) -> Option<u64> {
        let round = round_of(&img.cpu_state)?;
        let want = tr.span("persona.snapshot", self.pages as u64, || {
            self.fleet.snapshot(persona, round)
        });
        let same = tr.span("recovery.verify", self.pages as u64, || {
            want == img.snapshot
        });
        same.then_some(round)
    }

    fn crash_recover(
        &mut self,
        t: &mut Tenant,
        level: usize,
        tr: &mut Tracer,
        outcome: &mut Outcome,
    ) {
        tr.begin_op();
        let root = tr.enter("restore");
        if level == 3 {
            // Drain barrier: the tenant's L3 drains must land first.
            loop {
                let now = self.now();
                self.mirror.advance(tr, now);
                if !self.mirror.any_pending(&t.seqs) {
                    break;
                }
                tr.span("transport.drain_wait", 0, || std::thread::sleep(POLL));
            }
        }
        let lost = self.mirror.fail_job(tr, t.job, level);
        if !lost.is_empty() {
            tr.span("transport.cancel", lost.len() as u64, || {
                self.mirror.transport.cancel_seqs(&lost)
            });
        }
        let recovered = (level..=3).find_map(|lvl| self.mirror.recover(tr, lvl, Some(t.job)));
        let mut ok = true;
        let event = match recovered {
            Some(img) => {
                let round = self.snapshot_matches(tr, t.persona, &img);
                ok &= round.is_some();
                let round = round.unwrap_or(u64::MAX);
                let digest = tr.span("script.image_digest", self.pages as u64, || digest_of(&img));
                // The pinned read window a down session holds until it
                // recovers: every served location must stay readable.
                let pins = self.mirror.pin();
                let locs: Vec<_> = self
                    .mirror
                    .live_seqs(img.level)
                    .into_iter()
                    .filter(|s| t.seqs.contains(s))
                    .filter_map(|s| self.mirror.loc_of(img.level, s))
                    .collect();
                for loc in locs {
                    ok &= self.mirror.read_at(tr, img.level, loc);
                }
                self.mirror.unpin(pins);
                t.round = round;
                StreamEvent::Recover {
                    level: img.level,
                    round,
                    image_digest: digest,
                }
            }
            None => {
                t.round = 0;
                t.has_anchor = false;
                t.cuts_since_full = 0;
                StreamEvent::Recover {
                    level: 0,
                    round: 0,
                    image_digest: 0,
                }
            }
        };
        tr.exit(root, 1);
        outcome.check(ok);
        t.expect(StreamEvent::Crash { level }, outcome);
        t.expect(event, outcome);
    }

    fn leave(&mut self, t: &mut Tenant, tr: &mut Tracer, outcome: &mut Outcome) {
        tr.begin_op();
        let root = tr.enter("leave");
        let verified = (1..=3)
            .find_map(|lvl| self.mirror.recover(tr, lvl, Some(t.job)))
            .map(|img| self.snapshot_matches(tr, t.persona, &img).is_some());
        let lost = self.mirror.remove_job(tr, t.job);
        let mine: Vec<u64> = self
            .mirror
            .transport
            .pending_seqs()
            .into_iter()
            .filter(|s| t.seqs.contains(s) || lost.contains(s))
            .collect();
        tr.span("transport.cancel", mine.len() as u64, || {
            self.mirror.transport.cancel_seqs(&mine)
        });
        let leaked = (1..=3)
            .map(|lvl| {
                self.mirror
                    .live_seqs(lvl)
                    .iter()
                    .filter(|s| t.seqs.contains(s))
                    .count() as u64
            })
            .sum();
        tr.exit(root, 1);
        outcome.check(verified == Some(true) && leaked == 0);
        t.expect(StreamEvent::Leave { verified, leaked }, outcome);
    }
}

/// The fleet replay: every tenant's recorded command sequence (a bounded
/// prefix when `trace` is off), interleaved round-robin, then departures.
pub fn fleet(
    fl: &SharedDatasetFleet,
    shape: fleet::Shape,
    run: &fleet::FleetRun,
    trace: bool,
    outcome: &mut Outcome,
) -> Metrics {
    let cfg = fleet::service_config(crate::cores());
    let mut tenants: Vec<Tenant> = run
        .streams
        .iter()
        .enumerate()
        .map(|(id, events)| {
            let mut cmds: Vec<Cmd> = events
                .iter()
                .filter_map(|e| match e {
                    StreamEvent::Commit { .. } => Some(Cmd::Cut),
                    StreamEvent::Crash { level } => Some(Cmd::Crash(*level)),
                    _ => None,
                })
                .collect();
            let mut expected: Vec<StreamEvent> = events
                .iter()
                .filter(|e| !matches!(e, StreamEvent::Leave { .. }))
                .cloned()
                .collect();
            if !trace {
                cmds.truncate(GATE_OPS);
                let keep = cmds
                    .iter()
                    .map(|c| 1 + matches!(c, Cmd::Crash(_)) as usize)
                    .sum();
                expected.truncate(keep);
            }
            // Departure is always verified and leak-free.
            expected.push(StreamEvent::Leave {
                verified: Some(true),
                leaked: 0,
            });
            Tenant {
                persona: id,
                job: id as u64 + 1,
                cmds,
                expected,
                next_event: 0,
                round: 0,
                has_anchor: false,
                cuts_since_full: 0,
                ordinal_next: 1,
                seqs: HashSet::new(),
                seq_ordinal: HashMap::new(),
                n: 0.0,
                sum_c1: 0.0,
                sum_dl: 0.0,
                sum_ds: 0.0,
                w: fleet::BOOTSTRAP_W,
            }
        })
        .collect();
    let mut rp = FleetReplay {
        fleet: fl,
        solver: solver_config(&cfg),
        pages: shape.pages,
        mirror: Mirror::new(fleet_levels(&cfg)),
        cfg,
        cache: SourceIndexCache::new(),
        seq_next: 1,
        epoch: Instant::now(),
        enc: EncodeCounts::default(),
        cuts: 0,
    };
    let mut tr = Tracer::new(trace);
    let longest = tenants.iter().map(|t| t.cmds.len()).max().unwrap_or(0);
    for i in 0..longest {
        for t in tenants.iter_mut() {
            match t.cmds.get(i).copied() {
                Some(Cmd::Cut) => rp.cut(t, &mut tr, outcome),
                Some(Cmd::Crash(level)) => rp.crash_recover(t, level, &mut tr, outcome),
                None => {}
            }
        }
    }
    for t in tenants.iter_mut() {
        rp.leave(t, &mut tr, outcome);
        if t.next_event != t.expected.len() {
            outcome.flag();
        }
    }
    println!(
        "# replay gate: {} tenants, {} cuts replayed through the layer pipeline, digests {}",
        tenants.len(),
        rp.cuts,
        if outcome.failed == 0 {
            "match"
        } else {
            "MISMATCH"
        }
    );
    if !trace {
        return Metrics::default();
    }
    let untraced_cut_ms = mean(&run.cut_ms);
    let mut m = layer_metrics(&tr, &rp.mirror, &rp.enc, untraced_cut_ms);
    let cuts = run.cuts;
    set(
        &mut m,
        "wallclock.shards_per_cut",
        ratio(run.shards as f64, cuts as f64),
        cuts,
    );
    set(
        &mut m,
        "wallclock.preemptions_per_cut",
        ratio(run.preemptions as f64, cuts as f64),
        cuts,
    );
    finish(&tr, m, "fleet")
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// The engine replay: the persona re-run tick by tick, cutting at the
/// untraced run's checkpoint times, with the same mid-run failure; every
/// checkpoint is encoded and committed through the layer pipeline.
pub fn engine(seed: u64, run: &engine::EngineRun, trace: bool, outcome: &mut Outcome) -> Metrics {
    let Some(log) = &run.first else {
        outcome.flag();
        return Metrics::default();
    };
    let cores = crate::cores();
    let mut tr = Tracer::new(trace);
    let cfg = engine::config(cores);
    let Compressor::PaDelta(params) = cfg.compressor else {
        unreachable!("the engine workload runs Xdelta3-PA");
    };
    // `StorageHierarchy::coastal`'s channel models.
    let mut mirror = Mirror::new(Levels {
        l1: BandwidthModel::new(100e6, 1e-3),
        raid_nodes: engine::RAID_NODES,
        l2: BandwidthModel::new(471.7e6, 1e-3),
        l3: BandwidthModel::new(2e6, 10e-3),
        seg_capacity: aic_ckpt::log::DEFAULT_SEGMENT_CAPACITY,
        dedup: false,
        link: LinkConfig::new(cfg.b3, 0.0, cfg.sharing_factor),
        write_behind: cfg.transport.expect("write-behind engine"),
    });
    let mut process = engine::persona(engine::run_seed(seed, 0));
    let full0 = process.snapshot();
    let file0 = CheckpointFile::full(
        cfg.job,
        0,
        full0.clone(),
        Bytes::from(process.save_cpu_state()),
    );
    tr.begin_op();
    mirror.commit(&mut tr, &file0);
    let mut prev_state = full0;
    process.cut_interval();

    let cache = SourceIndexCache::new();
    let fault = log.faults.first();
    let mut fault_pending = fault.is_some();
    let mut force_full = false;
    let mut stall_offset = 0.0;
    let mut seq = 0u64;
    let mut cut_i = 0usize;
    // `observe` saw exactly the checkpoint intervals; a trailing interval
    // without a checkpoint follows them.
    let mut checkpoints = log.intervals.iter().take(log.cut_times.len());
    let mut enc = EncodeCounts::default();
    let mut dirty_pages = 0u64;
    let mut shards = 0u64;
    loop {
        let tick = process.now() + SimTime::from_secs(cfg.decision_period);
        tr.begin_op();
        tr.span("persona.step", 1, || process.run_until(tick));
        let now = process.now().as_secs();
        mirror.advance(&mut tr, now + stall_offset);
        if let Some(f) = fault.filter(|f| fault_pending && f.at <= now) {
            fault_pending = false;
            let root = tr.enter("restore");
            mirror.inject_f2(1);
            let img = (1..=3).find_map(|lvl| mirror.recover(&mut tr, lvl, None));
            mirror.repair_raid();
            tr.exit(root, 1);
            let Some(img) = img else {
                outcome.fail();
                break;
            };
            let served = [
                RecoveryLevel::Local,
                RecoveryLevel::Raid,
                RecoveryLevel::Remote,
            ][img.level - 1];
            outcome.check(
                served == f.served
                    && process.restore_from_checkpoint(&img.snapshot, &img.cpu_state),
            );
            process.cut_interval();
            prev_state = img.snapshot;
            cache.invalidate_all();
            force_full = true;
            continue;
        }
        let done = process.is_done();
        // A cut time recurs when the restore rewinds the clock: cuts past
        // the restored checkpoint belong to the rewound timeline.
        let cut_due = log.cut_times.get(cut_i) == Some(&now)
            && (!fault_pending || fault.is_none_or(|f| (cut_i as u64) < f.restored_seq));
        if !done && cut_due {
            cut_i += 1;
            let root = tr.enter("cut");
            let compact = force_full || (seq + 1).is_multiple_of(engine::FULL_EVERY);
            let open = tr.enter("persona.snapshot");
            let dirty_log = process.cut_interval();
            let dirty: Snapshot = process.snapshot_pages(dirty_log.iter().map(|d| d.page));
            tr.exit(open, dirty.len() as u64);
            dirty_pages += dirty.len() as u64;
            let raw_bytes = dirty.bytes();
            let live: Vec<u64> = process.space().page_indices().collect();
            let cpu_state = Bytes::from(process.save_cpu_state());
            let (ds_bytes, file) = if compact {
                let full = tr.span("persona.snapshot", live.len() as u64, || process.snapshot());
                let bytes = full.bytes();
                (
                    bytes,
                    CheckpointFile::full(cfg.job, seq + 1, full, cpu_state),
                )
            } else {
                let (h0, m0) = (cache.hits(), cache.misses());
                shards += effective_parallel_plan(dirty.len(), cores).1 as u64;
                let (pf, report) = tr.span("pa.encode", dirty.len() as u64, || {
                    pa_encode_parallel_cached(&prev_state, &dirty, &params, cores, Some(&cache))
                });
                enc.add(
                    &pf,
                    &report,
                    &cfg.cost_model,
                    cores,
                    cache.hits() - h0,
                    cache.misses() - m0,
                );
                let ds = pf.wire_len();
                (
                    ds,
                    CheckpointFile::delta(cfg.job, seq + 1, pf, live.clone(), cpu_state),
                )
            };
            let (_, wire) = mirror.commit_write_behind(&mut tr, &file);
            if file.kind == CheckpointKind::Full {
                tr.span("transport.cancel", 0, || {
                    mirror.transport.cancel_below(file.seq)
                });
            }
            stall_offset += mirror.enqueue(&mut tr, file.seq, wire, now + stall_offset);
            prev_state.overlay(&dirty);
            let keep: std::collections::BTreeSet<u64> = live.iter().copied().collect();
            prev_state.retain_indices(&keep);
            tr.exit(root, 1);
            force_full = false;
            seq += 1;
            // The replayed checkpoint must be the one the engine cut.
            let want = checkpoints.next();
            let same = want.is_some_and(|r| r.raw_bytes == raw_bytes && r.ds_bytes == ds_bytes);
            if !same {
                eprintln!(
                    "engine replay mismatch at checkpoint {seq}: expected {want:?}, replayed raw={raw_bytes} ds={ds_bytes}"
                );
            }
            outcome.check(same);
        }
        if done {
            break;
        }
    }
    let (events, _) = mirror.transport.quiesce();
    mirror.apply(&mut tr, &events);
    // Every level of the replayed hierarchy must restore the engine's
    // latest checkpoint image.
    for i in 0..engine::RESTORES_PER_RUN {
        tr.begin_op();
        let root = tr.enter("restore");
        let img = mirror.recover(&mut tr, 1 + i % 3, None);
        tr.exit(root, 1);
        outcome.check(img.is_some_and(|img| img.snapshot == log.latest));
    }
    let left = checkpoints.count();
    if cut_i != log.cut_times.len() || left != 0 {
        eprintln!(
            "engine replay cut {cut_i} of {} scheduled checkpoints, {left} recorded ones unmatched",
            log.cut_times.len()
        );
    }
    outcome.check(cut_i == log.cut_times.len() && left == 0);
    println!(
        "# replay gate: {} engine checkpoints replayed through the layer pipeline, images {}",
        cut_i,
        if outcome.failed == 0 {
            "match"
        } else {
            "MISMATCH"
        }
    );
    if !trace {
        return Metrics::default();
    }
    let mut m = layer_metrics(&tr, &mirror, &enc, mean(&run.cut_ms));
    let agg = tr.by_name();
    // The engine steps its persona once per decision tick: per page it
    // checkpoints, not per tick.
    let step = agg.get("persona.step").copied().unwrap_or_default();
    set(
        &mut m,
        "persona.step_ns_per_dirty_page",
        ratio(step.self_ns as f64, dirty_pages as f64),
        step.calls,
    );
    let cuts = cut_i as u64;
    set(
        &mut m,
        "wallclock.shards_per_cut",
        ratio(shards as f64, cuts as f64),
        cuts,
    );
    set(
        &mut m,
        "policy.decide_us",
        mean(&run.decide_ns) / 1e3,
        run.decide_ns.len() as u64,
    );
    set(
        &mut m,
        "policy.net2",
        crate::stats::median(&run.net2),
        run.net2.len() as u64,
    );
    finish(&tr, m, "engine")
}

// ---------------------------------------------------------------------------
// Layer metrics and the reconciliation report
// ---------------------------------------------------------------------------

fn set(m: &mut Metrics, name: &str, value: f64, samples: u64) {
    if let Some(x) = m.0.iter_mut().find(|x| x.name == name) {
        x.value = value;
        x.samples = samples;
    }
}

fn layer_metrics(
    tr: &Tracer,
    mirror: &Mirror,
    enc: &EncodeCounts,
    untraced_cut_ms: f64,
) -> Metrics {
    let agg = tr.by_name();
    let get = |n: &str| agg.get(n).copied().unwrap_or_default();
    let per_work = |n: &str| {
        let a = get(n);
        ratio(a.self_ns as f64, a.work as f64)
    };
    let mean_total = |n: &str| {
        let a = get(n);
        ratio(a.total_ns as f64, a.calls as f64)
    };
    let c = mirror.counts;
    let encode_ns = get("pa.encode").self_ns as f64;
    let reads = get("log.read");
    let read_at = get("log.read_at");
    let reassemble = get("dedup.reassemble");
    let spans = |names: &[&str]| names.iter().map(|n| get(n).calls).sum::<u64>();
    let restores = get("recovery.recover").calls;
    // name -> (value, samples behind it)
    let mut values: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    let mut put = |name: &'static str, value: f64, samples: u64| {
        values.insert(name, (value, samples));
    };
    put(
        "persona.step_ns_per_dirty_page",
        per_work("persona.step"),
        spans(&["persona.step"]),
    );
    put(
        "persona.snapshot_ns_per_page",
        per_work("persona.snapshot"),
        spans(&["persona.snapshot"]),
    );
    put(
        "pa.encode_ns_per_page",
        per_work("pa.encode"),
        spans(&["pa.encode"]),
    );
    put(
        "pa.raw_page_frac",
        ratio(enc.raw_pages as f64, enc.pages as f64),
        enc.calls,
    );
    put(
        "pa.delta_bytes_per_page",
        ratio(enc.delta_bytes as f64, enc.pages as f64),
        enc.calls,
    );
    put(
        "pa.index_hit_ratio",
        ratio(enc.index_hits as f64, enc.index_lookups as f64),
        enc.index_lookups,
    );
    put(
        "pa.cost_model_ratio",
        ratio(encode_ns, enc.predicted_s * 1e9),
        enc.calls,
    );
    put(
        "format.serialize_ns_per_byte",
        per_work("format.serialize"),
        spans(&["format.serialize"]),
    );
    put(
        "format.parse_ns_per_byte",
        per_work("format.parse"),
        spans(&["format.parse"]),
    );
    put(
        "dedup.cut_frac",
        share_of_op(tr, &["dedup.quote", "dedup.install"], "cut"),
        spans(&["dedup.quote", "dedup.install"]),
    );
    put(
        "dedup.restore_frac",
        share_of_op(tr, &["dedup.decode", "dedup.reassemble"], "restore"),
        reassemble.calls,
    );
    put(
        "dedup.hit_ratio",
        ratio(c.dedup_hits as f64, (c.dedup_hits + c.dedup_misses) as f64),
        c.dedup_hits + c.dedup_misses,
    );
    put(
        "dedup.verify_failures",
        c.dedup_verify_failures as f64,
        c.dedup_hits,
    );
    put(
        "log.l1_append_ns_per_byte",
        per_work("log.l1_append"),
        spans(&["log.l1_append"]),
    );
    put(
        "log.l2_append_ns_per_byte",
        per_work("log.l2_append"),
        spans(&["log.l2_append"]),
    );
    put(
        "log.l3_append_ns_per_byte",
        per_work("log.l3_append"),
        spans(&["log.l3_append"]),
    );
    put(
        "log.read_ns_per_byte",
        ratio(
            (reads.self_ns + read_at.self_ns) as f64,
            (reads.work + read_at.work) as f64,
        ),
        reads.calls + read_at.calls,
    );
    put(
        "log.compact_ms",
        mean_total("log.compact") / 1e6,
        spans(&["log.compact"]),
    );
    put(
        "log.compact_bytes_per_user_byte",
        ratio(c.compact_bytes as f64, c.user_bytes as f64),
        spans(&["log.compact"]),
    );
    put(
        "storage.l2_write_amplification",
        ratio(c.l2_receipt_bytes as f64, c.l2_payload_bytes as f64),
        spans(&["log.l2_append"]),
    );
    put(
        "recovery.commit_us",
        mean_total("recovery.commit") / 1e3,
        spans(&["recovery.commit"]),
    );
    put(
        "recovery.ack_us",
        mean_total("recovery.ack") / 1e3,
        spans(&["recovery.ack"]),
    );
    put(
        "recovery.recover_us",
        mean_total("recovery.recover") / 1e3,
        restores,
    );
    put(
        "transport.enqueue_ns",
        mean_total("transport.enqueue"),
        spans(&["transport.enqueue"]),
    );
    put(
        "transport.advance_ns",
        mean_total("transport.advance"),
        spans(&["transport.advance"]),
    );
    // Share of the transport's clock its callers spent blocked on a full
    // write-behind queue.
    put(
        "transport.backpressure_frac",
        ratio(mirror.transport.backpressure_wait(), mirror.transport.now()),
        spans(&["transport.enqueue"]),
    );
    put(
        "chain.replay_ns_per_page",
        per_work("chain.replay"),
        spans(&["chain.replay"]),
    );
    put(
        "chain.records_per_restore",
        ratio(c.restore_records as f64, c.restores as f64),
        c.restores,
    );
    put(
        "policy.decide_us",
        mean_total("policy.decide") / 1e3,
        spans(&["policy.decide"]),
    );

    // Reconciliation: the layer spans under each cut against the untraced
    // cut latency.
    let cuts = spans(&["cut"]);
    let covered_ms = cut_children_ms(tr);
    put(
        "wallclock.unattributed_frac",
        ratio(untraced_cut_ms - covered_ms, untraced_cut_ms),
        cuts,
    );
    let ops_ns: u64 = tr
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns())
        .sum();
    let n_spans = tr.spans.len() as u64;
    put(
        "trace.overhead_frac",
        ratio(n_spans as f64 * Tracer::span_cost_ns(), ops_ns as f64),
        n_spans,
    );

    let mut m = Metrics::default();
    for (name, unit) in PER_LAYER {
        let (value, samples) = values.get(name).copied().unwrap_or((0.0, 0));
        m.put(name, value, unit, samples);
    }
    println!(
        "# reconciliation: untraced cut mean {untraced_cut_ms:.3} ms, traced layer sum per cut {covered_ms:.3} ms, unattributed {:.3}",
        ratio(untraced_cut_ms - covered_ms, untraced_cut_ms)
    );
    if enc.calls > 0 {
        let cm_ratio = ratio(encode_ns, enc.predicted_s * 1e9);
        println!(
            "# cost model: measured encode / CostModel compute prediction = {cm_ratio:.3} over {} encodes{}",
            enc.calls,
            if !(0.5..=2.0).contains(&cm_ratio) {
                " — WARNING: more than 2x drift"
            } else {
                ""
            }
        );
    }
    m
}

/// Self time of the `names` spans inside `op` operations, as a share of
/// those operations' time.
fn share_of_op(tr: &Tracer, names: &[&str], op: &str) -> f64 {
    let self_ns = tr.self_ns();
    let mut root_of: BTreeMap<u64, &str> = BTreeMap::new();
    let mut op_ns = 0u64;
    for s in tr.spans.iter().filter(|s| s.parent.is_none()) {
        root_of.insert(s.op, s.name);
        if s.name == op {
            op_ns += s.dur_ns();
        }
    }
    let part: u64 = tr
        .spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| names.contains(&s.name) && root_of.get(&s.op) == Some(&op))
        .map(|(_, ns)| ns)
        .sum();
    ratio(part as f64, op_ns as f64)
}

/// Mean time per cut covered by the cut's direct child spans, ms.
fn cut_children_ms(tr: &Tracer) -> f64 {
    let mut covered = 0u64;
    let mut cuts = 0u64;
    let mut is_cut = vec![false; tr.spans.len()];
    for (i, s) in tr.spans.iter().enumerate() {
        match s.parent {
            None if s.name == "cut" => {
                is_cut[i] = true;
                cuts += 1;
            }
            Some(p) if is_cut[p] => covered += s.dur_ns(),
            _ => {}
        }
    }
    ratio(covered as f64, cuts as f64) / 1e6
}

/// Print the per-op layer breakdown, write the spans out, return `m`.
fn finish(tr: &Tracer, m: Metrics, kind: &str) -> Metrics {
    let cuts = tr
        .spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "cut")
        .count();
    println!("# layer self time per cut ({kind}, {cuts} cuts), us:");
    let mut rows: Vec<(&str, f64, u64)> = tr
        .by_name()
        .into_iter()
        .map(|(n, a)| (n, ratio(a.self_ns as f64, cuts as f64) / 1e3, a.calls))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (n, us, calls) in rows {
        println!("#   {n:<28} {us:>12.3} us/cut  calls={calls}");
    }
    println!(
        "# per-layer (traced replay, {} spans; 0 = layer not on this workload's path)",
        tr.spans.len()
    );
    print!("{}", m.render());
    write_spans(tr);
    m
}

fn write_spans(tr: &Tracer) {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()),
    )
    .join("perfbench-spans");
    let path = dir.join(format!("spans-{}.tsv", std::process::id()));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tr.dump())) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# spans not written: {e}"),
    }
}
