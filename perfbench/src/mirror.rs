//! The storage pipeline of the traced replay.
//!
//! `StorageHierarchy` runs its commit, drain, failure, recovery and
//! retirement paths behind single calls. To time each layer the replay
//! performs the same steps itself, in the same order, by calling the
//! layers' public functions — `CheckpointFile` serialization, `LevelDedup`
//! quote/install, `CheckpointLog` appends over `FlatStore`/`Raid5Group`,
//! liveness marks, compaction and reclamation, reference-frame decoding
//! and reassembly, parsing and chain replay — one span per call. The
//! replay's digests are checked against the untraced run's, so a drift
//! between this pipeline and the program's shows as a failed run.

use std::collections::{BTreeMap, HashSet};

use aic_ckpt::dedup::{is_frame, Frame, LevelDedup};
use aic_ckpt::format::{CheckpointFile, CheckpointKind};
use aic_ckpt::log::{CheckpointLog, RecordLoc};
use aic_ckpt::storage::{BandwidthModel, FlatStore, Raid5Group, Receipt, Store};
use aic_ckpt::transport::{LinkConfig, NetworkTransport, TransportEvent, WriteBehindConfig};
use aic_ckpt::CheckpointChain;
use aic_memsim::Snapshot;
use bytes::Bytes;

use crate::tracer::Tracer;

/// Garbage ratio past which a level compacts (the hierarchy's default
/// `CompactionPolicy`).
const GARBAGE_THRESHOLD: f64 = 0.5;

#[derive(Debug, Clone, Copy)]
struct Entry {
    seq: u64,
    job: u64,
    kind: CheckpointKind,
    l3_durable: bool,
    l12_live: bool,
}

struct Pending {
    job: u64,
    kind: CheckpointKind,
    payload: Bytes,
    spans: Vec<usize>,
}

/// Counters the layer metrics divide by.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Payload bytes appended to L2 and the RAID receipt bytes they cost.
    pub l2_payload_bytes: u64,
    pub l2_receipt_bytes: u64,
    /// Bytes the user asked the logs to store, and compaction copy traffic.
    pub user_bytes: u64,
    pub compact_bytes: u64,
    /// Dedup outcomes over every install.
    pub dedup_hits: u64,
    pub dedup_misses: u64,
    pub dedup_verify_failures: u64,
    /// Restores served and the records they replayed.
    pub restores: u64,
    pub restore_records: u64,
}

/// A recovered image.
pub struct Image {
    pub snapshot: Snapshot,
    pub cpu_state: Bytes,
    pub level: usize,
}

/// The three logs, the L2/L3 chunk stores, the commit bookkeeping and the
/// write-behind transport of one hierarchy.
pub struct Mirror {
    l1: CheckpointLog<FlatStore>,
    l2: CheckpointLog<Raid5Group>,
    l3: CheckpointLog<FlatStore>,
    dedup: Option<(LevelDedup, LevelDedup)>,
    committed: Vec<Entry>,
    pending: BTreeMap<u64, Pending>,
    pub transport: NetworkTransport,
    pub counts: Counts,
}

/// Store models and geometry of a hierarchy.
pub struct Levels {
    pub l1: BandwidthModel,
    pub raid_nodes: usize,
    pub l2: BandwidthModel,
    pub l3: BandwidthModel,
    pub seg_capacity: usize,
    pub dedup: bool,
    pub link: LinkConfig,
    pub write_behind: WriteBehindConfig,
}

/// Append `payload` (or, with a chunk store, its chunks and then its
/// reference frame) to `log`, one span per append.
#[allow(clippy::too_many_arguments)]
fn append_installed<S: Store>(
    tr: &mut Tracer,
    name: &'static str,
    log: &mut CheckpointLog<S>,
    dedup: Option<&mut LevelDedup>,
    counts: &mut Counts,
    seq: u64,
    kind: CheckpointKind,
    payload: &Bytes,
    spans: &[usize],
) -> Receipt {
    let mut total = Receipt {
        bytes: 0,
        seconds: 0.0,
    };
    let mut add = |r: Receipt| {
        total.bytes += r.bytes;
        total.seconds += r.seconds;
    };
    let frame = match dedup {
        Some(dd) => {
            let out = tr.span("dedup.install", spans.len() as u64, || {
                dd.install(seq, payload, spans)
            });
            counts.dedup_hits += out.hits;
            counts.dedup_misses += out.misses;
            counts.dedup_verify_failures += out.verify_failures;
            for (cseq, bytes) in &out.new_chunks {
                counts.user_bytes += bytes.len() as u64;
                add(tr.span(name, bytes.len() as u64, || {
                    log.append(*cseq, CheckpointKind::Chunk, bytes).1
                }));
            }
            out.payload
        }
        None => payload.clone(),
    };
    counts.user_bytes += frame.len() as u64;
    add(tr.span(name, frame.len() as u64, || log.append(seq, kind, &frame).1));
    total
}

/// Compact `log` once its garbage ratio passes the threshold, then
/// reclaim what no pin protects.
fn maybe_compact<S: Store>(tr: &mut Tracer, log: &mut CheckpointLog<S>, counts: &mut Counts) {
    if log.garbage_ratio() < GARBAGE_THRESHOLD {
        return;
    }
    let open = tr.enter("log.compact");
    let res = log.compact(None);
    let copied = res.as_ref().map_or(0, |r| r.bytes);
    tr.exit(open, copied);
    counts.compact_bytes += copied;
    if res.is_ok() {
        tr.span("log.reclaim", 0, || log.try_reclaim());
    }
}

fn mark_dead<S: Store>(tr: &mut Tracer, log: &mut CheckpointLog<S>, seq: u64) {
    tr.span("log.mark_dead", 1, || log.mark_dead(seq));
}

/// Read one record, resolving a reference frame through its chunks.
fn read_resolved<S: Store>(tr: &mut Tracer, log: &CheckpointLog<S>, seq: u64) -> Option<Bytes> {
    let open = tr.enter("log.read");
    let bytes = log.read(seq);
    tr.exit(open, bytes.as_ref().map_or(0, |b| b.len() as u64));
    let bytes = bytes?;
    let framed = tr.span("dedup.is_frame", 0, || is_frame(&bytes));
    if !framed {
        return Some(bytes);
    }
    let frame = tr.span("dedup.decode", bytes.len() as u64, || Frame::decode(&bytes));
    let frame = frame.ok()?;
    let mut chunks = Vec::with_capacity(frame.spans.len());
    for &(_, cseq) in &frame.spans {
        let open = tr.enter("log.read");
        let chunk = log.read(cseq);
        tr.exit(open, chunk.as_ref().map_or(0, |b| b.len() as u64));
        chunks.push(chunk?);
    }
    tr.span("dedup.reassemble", frame.total_len as u64, || {
        frame.reassemble(&chunks)
    })
    .ok()
}

impl Mirror {
    pub fn new(levels: Levels) -> Self {
        Mirror {
            l1: CheckpointLog::new(FlatStore::new(levels.l1), levels.seg_capacity),
            l2: CheckpointLog::new(
                Raid5Group::new(levels.raid_nodes, 256 << 10, levels.l2),
                levels.seg_capacity,
            ),
            l3: CheckpointLog::new(FlatStore::new(levels.l3), levels.seg_capacity),
            dedup: levels.dedup.then(|| (LevelDedup::new(), LevelDedup::new())),
            committed: Vec::new(),
            pending: BTreeMap::new(),
            transport: NetworkTransport::new(levels.link, levels.write_behind),
            counts: Counts::default(),
        }
    }

    fn serialize(&self, tr: &mut Tracer, file: &CheckpointFile) -> (Bytes, Vec<usize>) {
        let open = tr.enter("format.serialize");
        let out = if self.dedup.is_some() {
            file.to_bytes_with_page_spans()
        } else {
            (file.to_bytes(), Vec::new())
        };
        tr.exit(open, out.0.len() as u64);
        out
    }

    /// Synchronous commit to all three levels: the engine's initial full
    /// checkpoint, the first record of its hierarchy, so no older chain
    /// needs truncating.
    pub fn commit(&mut self, tr: &mut Tracer, file: &CheckpointFile) {
        let open = tr.enter("recovery.commit");
        let (payload, spans) = self.serialize(tr, file);
        self.counts.user_bytes += payload.len() as u64;
        tr.span("log.l1_append", payload.len() as u64, || {
            self.l1.append(file.seq, file.kind, &payload)
        });
        let (d2, d3) = match &mut self.dedup {
            Some((a, b)) => (Some(a), Some(b)),
            None => (None, None),
        };
        let r2 = append_installed(
            tr,
            "log.l2_append",
            &mut self.l2,
            d2,
            &mut self.counts,
            file.seq,
            file.kind,
            &payload,
            &spans,
        );
        self.counts.l2_payload_bytes += payload.len() as u64;
        self.counts.l2_receipt_bytes += r2.bytes;
        append_installed(
            tr,
            "log.l3_append",
            &mut self.l3,
            d3,
            &mut self.counts,
            file.seq,
            file.kind,
            &payload,
            &spans,
        );
        self.committed.push(Entry {
            seq: file.seq,
            job: file.job,
            kind: file.kind,
            l3_durable: true,
            l12_live: true,
        });
        tr.exit(open, 1);
    }

    /// Write-behind commit: L1 and L2 now, the L3 payload parked until its
    /// drain is acknowledged. Returns the L2 receipt and the wire bytes.
    pub fn commit_write_behind(
        &mut self,
        tr: &mut Tracer,
        file: &CheckpointFile,
    ) -> (Receipt, u64) {
        let open = tr.enter("recovery.commit");
        let (payload, spans) = self.serialize(tr, file);
        let wire = match &self.dedup {
            Some((_, remote)) => tr.span("dedup.quote", spans.len() as u64, || {
                remote.quote(&payload, &spans)
            }),
            None => payload.len() as u64,
        };
        self.counts.user_bytes += payload.len() as u64;
        tr.span("log.l1_append", payload.len() as u64, || {
            self.l1.append(file.seq, file.kind, &payload)
        });
        let raid = append_installed(
            tr,
            "log.l2_append",
            &mut self.l2,
            self.dedup.as_mut().map(|(a, _)| a),
            &mut self.counts,
            file.seq,
            file.kind,
            &payload,
            &spans,
        );
        self.counts.l2_payload_bytes += payload.len() as u64;
        self.counts.l2_receipt_bytes += raid.bytes;
        self.pending.insert(
            file.seq,
            Pending {
                job: file.job,
                kind: file.kind,
                payload,
                spans,
            },
        );
        if file.kind == CheckpointKind::Full {
            self.truncate_l12_before(tr, file.seq, file.job);
        }
        self.committed.push(Entry {
            seq: file.seq,
            job: file.job,
            kind: file.kind,
            l3_durable: false,
            l12_live: true,
        });
        tr.exit(open, 1);
        (raid, wire)
    }

    fn truncate_l12_before(&mut self, tr: &mut Tracer, anchor: u64, job: u64) {
        let mut doomed = Vec::new();
        for e in &mut self.committed {
            if e.job == job && e.seq < anchor && e.l12_live {
                e.l12_live = false;
                doomed.push(e.seq);
            }
        }
        for s in doomed {
            mark_dead(tr, &mut self.l1, s);
            mark_dead(tr, &mut self.l2, s);
            if let Some((raid, _)) = &mut self.dedup {
                for c in raid.forget_record(s) {
                    mark_dead(tr, &mut self.l2, c);
                }
            }
        }
        maybe_compact(tr, &mut self.l1, &mut self.counts);
        maybe_compact(tr, &mut self.l2, &mut self.counts);
    }

    /// The drain of `seq` landed: append its parked payload to L3; an
    /// acknowledged full anchor runs its deferred L3 truncation.
    fn ack_remote(&mut self, tr: &mut Tracer, seq: u64) {
        let Some(p) = self.pending.remove(&seq) else {
            return;
        };
        let open = tr.enter("recovery.ack");
        append_installed(
            tr,
            "log.l3_append",
            &mut self.l3,
            self.dedup.as_mut().map(|(_, b)| b),
            &mut self.counts,
            seq,
            p.kind,
            &p.payload,
            &p.spans,
        );
        for e in &mut self.committed {
            if e.seq == seq {
                e.l3_durable = true;
            }
        }
        if p.kind == CheckpointKind::Full {
            let stale: Vec<u64> = self
                .committed
                .iter()
                .filter(|e| e.job == p.job && e.seq < seq)
                .map(|e| e.seq)
                .collect();
            for s in stale {
                mark_dead(tr, &mut self.l3, s);
                if let Some((_, remote)) = &mut self.dedup {
                    for c in remote.forget_record(s) {
                        mark_dead(tr, &mut self.l3, c);
                    }
                }
            }
            maybe_compact(tr, &mut self.l3, &mut self.counts);
            self.committed.retain(|e| e.job != p.job || e.seq >= seq);
            self.pending.retain(|&s, q| q.job != p.job || s >= seq);
        }
        tr.exit(open, 1);
    }

    /// Land the acks among `events`.
    pub fn apply(&mut self, tr: &mut Tracer, events: &[TransportEvent]) {
        for ev in events {
            if let TransportEvent::Acked { seq, .. } = ev {
                self.ack_remote(tr, *seq);
            }
        }
    }

    /// Advance the transport to `now` and land what completed.
    pub fn advance(&mut self, tr: &mut Tracer, now: f64) {
        let events = tr.span("transport.advance", 0, || self.transport.advance_to(now));
        self.apply(tr, &events);
    }

    /// Hand `wire` bytes of `seq` to the transport at `at`; returns the
    /// back-pressure stall, seconds.
    pub fn enqueue(&mut self, tr: &mut Tracer, seq: u64, wire: u64, at: f64) -> f64 {
        let out = tr.span("transport.enqueue", wire, || {
            self.transport.enqueue(seq, wire, at)
        });
        self.apply(tr, &out.events);
        out.stalled_for
    }

    /// Is any of `seqs` still on the wire or parked for L3?
    pub fn any_pending(&self, seqs: &HashSet<u64>) -> bool {
        self.transport
            .pending_seqs()
            .iter()
            .chain(self.pending.keys())
            .any(|s| seqs.contains(s))
    }

    /// A tenant crash at `level`: destroy what that failure destroys.
    /// Returns the tenant's lost in-flight drains.
    pub fn fail_job(&mut self, tr: &mut Tracer, job: u64, level: usize) -> Vec<u64> {
        let owned: Vec<u64> = self
            .committed
            .iter()
            .filter(|e| e.job == job)
            .map(|e| e.seq)
            .collect();
        match level {
            2 => {
                for s in owned {
                    mark_dead(tr, &mut self.l1, s);
                }
                maybe_compact(tr, &mut self.l1, &mut self.counts);
                Vec::new()
            }
            3 => {
                for s in owned {
                    mark_dead(tr, &mut self.l1, s);
                    mark_dead(tr, &mut self.l2, s);
                    if let Some((raid, _)) = &mut self.dedup {
                        for c in raid.forget_record(s) {
                            mark_dead(tr, &mut self.l2, c);
                        }
                    }
                }
                let mut lost = Vec::new();
                self.pending.retain(|&s, p| {
                    let mine = p.job == job;
                    if mine {
                        lost.push(s);
                    }
                    !mine
                });
                // Cut the tenant's remote chain at its contiguous
                // acknowledged prefix; survivors lost their L1/L2 copies.
                let mut stopped = false;
                let mut orphans = Vec::new();
                self.committed.retain_mut(|e| {
                    if e.job != job {
                        return true;
                    }
                    if !stopped && e.l3_durable {
                        e.l12_live = false;
                        true
                    } else {
                        stopped = true;
                        orphans.push(e.seq);
                        false
                    }
                });
                for s in orphans {
                    mark_dead(tr, &mut self.l3, s);
                    if let Some((_, remote)) = &mut self.dedup {
                        for c in remote.forget_record(s) {
                            mark_dead(tr, &mut self.l3, c);
                        }
                    }
                }
                maybe_compact(tr, &mut self.l1, &mut self.counts);
                maybe_compact(tr, &mut self.l2, &mut self.counts);
                maybe_compact(tr, &mut self.l3, &mut self.counts);
                lost
            }
            _ => Vec::new(),
        }
    }

    /// A node failure at level 2 (the engine's fault): L1 is gone and one
    /// RAID node loses its data.
    pub fn inject_f2(&mut self, victim: usize) {
        self.l1.wipe();
        let n = self.l2.store().node_count();
        self.l2.store_mut().fail_node_losing_data(victim % n);
    }

    pub fn repair_raid(&mut self) {
        self.l2.store_mut().repair_node();
    }

    /// Retire a departed tenant. Returns its dropped in-flight drains.
    pub fn remove_job(&mut self, tr: &mut Tracer, job: u64) -> Vec<u64> {
        let owned: Vec<u64> = self
            .committed
            .iter()
            .filter(|e| e.job == job)
            .map(|e| e.seq)
            .collect();
        for s in owned {
            mark_dead(tr, &mut self.l1, s);
            mark_dead(tr, &mut self.l2, s);
            mark_dead(tr, &mut self.l3, s);
            if let Some((raid, remote)) = &mut self.dedup {
                for c in raid.forget_record(s) {
                    mark_dead(tr, &mut self.l2, c);
                }
                for c in remote.forget_record(s) {
                    mark_dead(tr, &mut self.l3, c);
                }
            }
        }
        self.committed.retain(|e| e.job != job);
        let mut lost = Vec::new();
        self.pending.retain(|&s, p| {
            let mine = p.job == job;
            if mine {
                lost.push(s);
            }
            !mine
        });
        maybe_compact(tr, &mut self.l1, &mut self.counts);
        maybe_compact(tr, &mut self.l2, &mut self.counts);
        maybe_compact(tr, &mut self.l3, &mut self.counts);
        lost
    }

    /// Recover the newest image of `job` (every job when `None`) from
    /// `level`, replaying from its latest full anchor.
    pub fn recover(&mut self, tr: &mut Tracer, level: usize, job: Option<u64>) -> Option<Image> {
        let open = tr.enter("recovery.recover");
        let out = self.recover_inner(tr, level, job);
        tr.exit(open, 1);
        if out.is_some() {
            self.counts.restores += 1;
        }
        out
    }

    fn recover_inner(&mut self, tr: &mut Tracer, level: usize, job: Option<u64>) -> Option<Image> {
        let visible: Vec<Entry> = if level == 3 {
            let mut stopped = HashSet::new();
            self.committed
                .iter()
                .filter(|e| {
                    if stopped.contains(&e.job) {
                        return false;
                    }
                    if !e.l3_durable {
                        stopped.insert(e.job);
                        return false;
                    }
                    job.is_none_or(|j| e.job == j)
                })
                .copied()
                .collect()
        } else {
            self.committed
                .iter()
                .filter(|e| e.l12_live && job.is_none_or(|j| e.job == j))
                .copied()
                .collect()
        };
        let anchor = visible
            .iter()
            .rposition(|e| e.kind == CheckpointKind::Full)?;
        let mut chain = CheckpointChain::new();
        let mut cpu_state = Bytes::new();
        for e in &visible[anchor..] {
            let bytes = match level {
                1 => read_resolved(tr, &self.l1, e.seq),
                2 => read_resolved(tr, &self.l2, e.seq),
                _ => read_resolved(tr, &self.l3, e.seq),
            }?;
            let len = bytes.len() as u64;
            let file = tr.span("format.parse", len, || CheckpointFile::from_bytes(bytes));
            let file = file.ok()?;
            cpu_state = file.cpu_state.clone();
            tr.span("chain.push", 1, || chain.push(file));
            self.counts.restore_records += 1;
        }
        let open = tr.enter("chain.replay");
        let snapshot = chain.restore_latest();
        tr.exit(open, snapshot.as_ref().map_or(0, |s| s.len() as u64));
        Some(Image {
            snapshot: snapshot.ok()?,
            cpu_state,
            level,
        })
    }

    /// Pin every log's reclamation epoch.
    pub fn pin(&mut self) -> [u64; 3] {
        [self.l1.pin(), self.l2.pin(), self.l3.pin()]
    }

    pub fn unpin(&mut self, pins: [u64; 3]) {
        self.l1.unpin(pins[0]);
        self.l2.unpin(pins[1]);
        self.l3.unpin(pins[2]);
    }

    pub fn live_seqs(&self, level: usize) -> Vec<u64> {
        match level {
            1 => self.l1.live_seqs(),
            2 => self.l2.live_seqs(),
            _ => self.l3.live_seqs(),
        }
    }

    pub fn loc_of(&self, level: usize, seq: u64) -> Option<RecordLoc> {
        match level {
            1 => self.l1.loc_of(seq),
            2 => self.l2.loc_of(seq),
            _ => self.l3.loc_of(seq),
        }
    }

    /// Read at a pinned location, one span per read.
    pub fn read_at(&self, tr: &mut Tracer, level: usize, loc: RecordLoc) -> bool {
        tr.span("log.read_at", loc.len as u64, || match level {
            1 => self.l1.read_at(loc),
            2 => self.l2.read_at(loc),
            _ => self.l3.read_at(loc),
        })
        .is_some()
    }
}
