//! The multi-level storage hierarchy and the recovery manager.
//!
//! Ties the storage levels together the way the paper's system would at
//! restart time: every committed checkpoint lives on L1 (local disk), L2
//! (RAID-5 node group) and L3 (remote storage); a failure destroys some of
//! those copies; recovery reads the cheapest level that survived,
//! reconstructs the chain, and replays it into a process image.
//!
//! Each level persists through an **append-only checkpoint log**
//! ([`crate::log`]): checkpoints are records appended to fixed-capacity
//! segments, truncation marks superseded records *dead* instead of
//! deleting named objects, and a compaction pass rewrites the survivors
//! into fresh segments so the dead bytes can be reclaimed. Reclamation is
//! epoch-based — a recovery reader that pinned the logs
//! ([`StorageHierarchy::pin_readers`]) never observes a segment freed
//! under it, even when a compaction pass runs (or crashes) mid-recovery.
//!
//! Failure semantics (paper Section III.A):
//!
//! * **f1** (transient): nothing is lost — recover from the local disk;
//! * **f2** (partial node failure): the local disk of the failed node is
//!   gone and one RAID peer may be down — recover from the (possibly
//!   degraded) RAID group;
//! * **f3** (total node failure): local disk and the node's RAID share are
//!   gone — recover from remote storage.
//!
//! Every **full** checkpoint is a *chain anchor*: restart only ever replays
//! the anchor plus its incremental/delta suffix, so committing a full
//! checkpoint garbage-collects the superseded prefix from all three levels
//! (dead marks now, compaction when the [`CompactionPolicy`] fires) and
//! keeps `stored_bytes` bounded by one chain.
//!
//! # Write-behind commits
//!
//! [`StorageHierarchy::commit_write_behind`] makes an interval *locally
//! durable* (L1 + L2 appended synchronously) while the L3 copy is only
//! *pending*: the serialized payload is parked until the network transport
//! acknowledges the drain and the engine calls
//! [`StorageHierarchy::ack_remote`], which appends it to the remote log.
//! Invariants:
//!
//! * a full anchor truncates the **L1/L2** prefix at commit time, but may
//!   only truncate the **L3** prefix once its *own* drain is acknowledged —
//!   until then L3 keeps serving the superseded chain (the degraded-commit
//!   path);
//! * an **f3** failure loses the pending queue with the node (there is no
//!   surviving replica to drain from), so L3 recovery replays the longest
//!   *contiguous acknowledged prefix* of the chain; f1/f2 keep the queue
//!   (the drain resumes from the surviving L1/L2 copies);
//! * sequence numbers still strictly increase across both commit paths
//!   (acks may land out of order — the log's index is seq-keyed, so a
//!   late-draining base slots in before an already-acked successor).

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;

use crate::chain::CheckpointChain;
use crate::dedup::{is_frame, DedupStats, Frame, LevelDedup};
use crate::format::{CheckpointFile, CheckpointKind};
use crate::log::{CheckpointLog, LogError, LogStats, RecordLoc, DEFAULT_SEGMENT_CAPACITY};
use crate::storage::{BandwidthModel, FlatStore, Raid5Group, Receipt, Store};
use aic_delta::strong::wide_filter;
use aic_memsim::Snapshot;
use aic_obs::{Counter, Obs};

/// Which level a recovery was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryLevel {
    /// L1, the local disk.
    Local,
    /// L2, the RAID-5 node group (possibly in degraded mode).
    Raid,
    /// L3, remote storage.
    Remote,
}

impl RecoveryLevel {
    /// Static label for metrics and span fields.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryLevel::Local => "local",
            RecoveryLevel::Raid => "raid",
            RecoveryLevel::Remote => "remote",
        }
    }
}

/// A recovered process image plus provenance.
#[derive(Debug)]
pub struct RecoveredImage {
    /// The reconstructed memory image.
    pub snapshot: Snapshot,
    /// CPU/process state blob of the newest checkpoint replayed (clock +
    /// workload control state — what a resume needs beyond memory).
    pub cpu_state: Bytes,
    /// Which level served the recovery.
    pub level: RecoveryLevel,
    /// Sequence number of the newest checkpoint recovered.
    pub seq: u64,
    /// Simulated read time, charged through the serving store's own
    /// channel model (degraded RAID reads cost extra parity traffic).
    pub read_seconds: f64,
    /// True if the serving RAID group was running degraded.
    pub degraded: bool,
}

/// Recovery failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// No checkpoint has ever been committed.
    NothingCommitted,
    /// A checkpoint record was missing or corrupt at the serving level.
    BadObject(String),
    /// Chain replay failed.
    Restore(String),
    /// A failure level outside 1..=3 was requested (injection or recovery).
    BadLevel(usize),
    /// A commit arrived with a sequence number not past the newest one.
    OutOfOrderCommit {
        /// Newest committed sequence number.
        prev: u64,
        /// The offending commit's sequence number.
        next: u64,
    },
    /// An injected crash point fired mid-compaction
    /// ([`StorageHierarchy::compact_level`]): the pass left orphan output
    /// segments behind but the addressable log is untouched.
    CompactionCrashed,
    /// The shared storage handle could not be used (e.g. its mutex was
    /// poisoned by a panicking holder).
    StorageUnavailable(String),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::NothingCommitted => write!(f, "no checkpoints committed"),
            RecoveryError::BadObject(n) => write!(f, "missing/corrupt checkpoint object {n}"),
            RecoveryError::Restore(e) => write!(f, "chain restore failed: {e}"),
            RecoveryError::BadLevel(l) => {
                write!(f, "unknown failure level {l} (valid levels are 1..=3)")
            }
            RecoveryError::OutOfOrderCommit { prev, next } => {
                write!(f, "commit out of order: {next} after {prev}")
            }
            RecoveryError::CompactionCrashed => {
                write!(f, "compaction pass crashed at the injected crash point")
            }
            RecoveryError::StorageUnavailable(why) => {
                write!(f, "storage hierarchy unavailable: {why}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Per-commit transfer receipts, one per level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommitReceipt {
    /// L1 write.
    pub local: Receipt,
    /// L2 write (striping + parity included).
    pub raid: Receipt,
    /// L3 write.
    pub remote: Receipt,
    /// Superseded prefix records garbage-collected (marked dead) by this
    /// commit (non-zero only when the commit was a full checkpoint that
    /// anchored a new chain).
    pub truncated: usize,
}

/// Acknowledgement receipt for one write-behind L3 drain
/// ([`StorageHierarchy::ack_remote`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemoteAck {
    /// The L3 write the ack materialized.
    pub remote: Receipt,
    /// L3 prefix records garbage-collected because this ack completed a
    /// full anchor's deferred truncation (zero for non-anchor acks).
    pub truncated: usize,
}

/// When the hierarchy folds its logs.
///
/// Truncation only *marks* records dead; the bytes are reclaimed when a
/// compaction pass rewrites the survivors. With `auto` on, every
/// truncation point (anchor commit, anchor ack, f3 gap-cut) checks each
/// affected level's garbage ratio and compacts it past the threshold —
/// which is what keeps `stored_bytes` bounded by one chain, exactly as
/// the old delete-per-object stores behaved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Compact automatically when a truncation pushes a level's garbage
    /// ratio past `garbage_threshold`.
    pub auto: bool,
    /// Dead-byte fraction that triggers an automatic pass.
    pub garbage_threshold: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            auto: true,
            garbage_threshold: 0.5,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct CommittedEntry {
    seq: u64,
    /// Owning job/tenant — anchor truncation and per-job recovery are
    /// scoped by it, so one rank's full checkpoint never collects another
    /// rank's chain when several jobs share a hierarchy.
    job: u64,
    kind: CheckpointKind,
    /// The L3 copy exists (synchronous commit, or write-behind drain
    /// acknowledged). Pending entries recover from L1/L2 only.
    l3_durable: bool,
    /// The L1/L2 copies have not been truncated by a newer anchor. A
    /// superseded entry can outlive its L1/L2 copies on L3 while the
    /// anchor's own drain is still in flight.
    l12_live: bool,
}

/// A write-behind payload parked until its L3 drain acknowledges, plus the
/// page spans the remote dedup store will split it at when the ack
/// installs it (empty when dedup is off).
#[derive(Debug, Clone)]
struct PendingDrain {
    job: u64,
    kind: CheckpointKind,
    payload: Bytes,
    spans: Vec<usize>,
}

/// The two dedup-backed levels. L1 stays raw: the local disk is the fast
/// recovery path and the savings live where bytes are expensive — RAID
/// capacity and the remote wire.
#[derive(Debug, Default)]
struct DedupPair {
    raid: LevelDedup,
    remote: LevelDedup,
}

/// Registered per-level traffic metrics (see [`StorageHierarchy::attach_obs`]).
#[derive(Debug, Clone)]
struct StorageObs {
    commits: Counter,
    /// Bytes written per level, `[L1, L2, L3]`.
    written: [Counter; 3],
    /// Bytes read back per level during recovery probes, `[L1, L2, L3]`.
    read: [Counter; 3],
    gc_objects: Counter,
    gc_bytes: Counter,
    recoveries: Counter,
    degraded_reads: Counter,
    wb_commits: Counter,
    wb_acks: Counter,
    wb_dropped: Counter,
    /// Dedup chunk-store counters — registered even while dedup is off, so
    /// replay artifacts always carry the `dedup.*` series (at zero).
    dedup_hits: Counter,
    dedup_misses: Counter,
    dedup_verify_failures: Counter,
    dedup_reclaims: Counter,
    dedup_stored_saved: Counter,
}

impl StorageObs {
    fn new(obs: &Arc<Obs>) -> Self {
        let m = &obs.metrics;
        StorageObs {
            commits: m.counter("storage.commits"),
            written: [
                m.counter("storage.l1.bytes_written"),
                m.counter("storage.l2.bytes_written"),
                m.counter("storage.l3.bytes_written"),
            ],
            read: [
                m.counter("storage.l1.bytes_read"),
                m.counter("storage.l2.bytes_read"),
                m.counter("storage.l3.bytes_read"),
            ],
            gc_objects: m.counter("storage.gc_objects"),
            gc_bytes: m.counter("storage.gc_bytes"),
            recoveries: m.counter("storage.recoveries"),
            degraded_reads: m.counter("storage.degraded_reads"),
            wb_commits: m.counter("storage.wb_commits"),
            wb_acks: m.counter("storage.wb_acks"),
            wb_dropped: m.counter("storage.wb_dropped"),
            dedup_hits: m.counter("dedup.hits"),
            dedup_misses: m.counter("dedup.misses"),
            dedup_verify_failures: m.counter("dedup.verify_failures"),
            dedup_reclaims: m.counter("dedup.reclaims"),
            dedup_stored_saved: m.counter("dedup.stored_bytes_saved"),
        }
    }
}

/// Install a record into one level's dedup store and append the result
/// as one commit: new chunk records first (so a log scan never sees a
/// dangling reference), then the reference frame at the record's own seq.
/// The batch costs one store write per segment it touches, as a commit
/// without dedup does. Returns the append receipt.
fn append_installed<S: Store>(
    log: &mut CheckpointLog<S>,
    dedup: &mut LevelDedup,
    obs: Option<&StorageObs>,
    seq: u64,
    kind: CheckpointKind,
    payload: &Bytes,
    spans: &[usize],
) -> Receipt {
    let out = dedup.install(seq, payload, spans);
    let chunks = out
        .new_chunks
        .iter()
        .map(|(cseq, bytes)| (*cseq, CheckpointKind::Chunk, bytes));
    let (_, total) = log.append_batch(chunks.chain([(seq, kind, &out.payload)]));
    if let Some(o) = obs {
        o.dedup_hits.add(out.hits);
        o.dedup_misses.add(out.misses);
        o.dedup_verify_failures.add(out.verify_failures);
        o.dedup_stored_saved.add(out.stored_saved);
    }
    total
}

/// Read one record from a level's log, resolving a dedup reference frame
/// back into the original payload by reading its chunk records. Returns
/// `(payload, read seconds, bytes read)`; `None` when the record or any
/// referenced chunk is missing/corrupt at this level.
fn read_resolved<S: Store>(log: &CheckpointLog<S>, seq: u64) -> Option<(Bytes, f64, u64)> {
    let bytes = log.read(seq)?;
    let mut seconds = log.read_receipt(seq).map_or(0.0, |r| r.seconds);
    let mut read_bytes = bytes.len() as u64;
    if !is_frame(&bytes) {
        return Some((bytes, seconds, read_bytes));
    }
    let frame = Frame::decode(&bytes).ok()?;
    let mut chunks = Vec::with_capacity(frame.spans.len());
    for &(_, cseq) in &frame.spans {
        let cb = log.read(cseq)?;
        seconds += log.read_receipt(cseq).map_or(0.0, |r| r.seconds);
        read_bytes += cb.len() as u64;
        chunks.push(cb);
    }
    let payload = frame.reassemble(&chunks).ok()?;
    Some((payload, seconds, read_bytes))
}

/// Compact one level's log when the auto policy says so. A macro because
/// the three logs have different backing-store types.
macro_rules! maybe_compact {
    ($log:expr, $policy:expr) => {
        if $policy.auto && $log.garbage_ratio() >= $policy.garbage_threshold {
            if $log.compact(None).is_ok() {
                $log.try_reclaim();
            }
        }
    };
}

/// The three-level checkpoint store of one job, each level an append-only
/// [`CheckpointLog`] over that level's bandwidth-modeled store.
#[derive(Debug)]
pub struct StorageHierarchy {
    local: CheckpointLog<FlatStore>,
    raid: CheckpointLog<Raid5Group>,
    remote: CheckpointLog<FlatStore>,
    committed: Vec<CommittedEntry>,
    /// Write-behind payloads parked until their L3 drain is acknowledged,
    /// keyed by sequence number. The wire cost of a drain is the payload
    /// (or its dedup quote) — the record frame is added when the ack
    /// appends to the remote log.
    pending_remote: BTreeMap<u64, PendingDrain>,
    compaction: CompactionPolicy,
    /// Content-addressed chunk stores for L2/L3 ([`Self::enable_dedup`]);
    /// `None` keeps the pre-dedup byte-for-byte behavior.
    dedup: Option<DedupPair>,
    obs: Option<StorageObs>,
}

impl StorageHierarchy {
    /// Build a hierarchy with the paper's testbed channel models: local
    /// SATA disk ≈ 100 MB/s, RAID partner group at the per-node share of
    /// 483 GB/s aggregate, Lustre share 2 MB/s.
    pub fn coastal(raid_nodes: usize) -> Self {
        Self::new(
            FlatStore::new(BandwidthModel::new(100e6, 1e-3)),
            Raid5Group::new(raid_nodes, 256 << 10, BandwidthModel::new(471.7e6, 1e-3)),
            FlatStore::new(BandwidthModel::new(2e6, 10e-3)),
        )
    }

    /// Custom channel models, default segment capacity.
    pub fn new(local: FlatStore, raid: Raid5Group, remote: FlatStore) -> Self {
        Self::with_segments(local, raid, remote, DEFAULT_SEGMENT_CAPACITY)
    }

    /// Custom channel models and log segment capacity.
    pub fn with_segments(
        local: FlatStore,
        raid: Raid5Group,
        remote: FlatStore,
        seg_capacity: usize,
    ) -> Self {
        StorageHierarchy {
            local: CheckpointLog::new(local, seg_capacity),
            raid: CheckpointLog::new(raid, seg_capacity),
            remote: CheckpointLog::new(remote, seg_capacity),
            committed: Vec::new(),
            pending_remote: BTreeMap::new(),
            compaction: CompactionPolicy::default(),
            dedup: None,
            obs: None,
        }
    }

    /// Turn on content-addressed dedup for L2 and L3: commits split their
    /// payloads at page spans, identical page versions are stored once per
    /// level as refcounted [`CheckpointKind::Chunk`] records, and records
    /// become reference frames. L1 stays raw. Enable before the first
    /// commit — records written earlier are plain payloads and stay
    /// readable, but never become chunk donors.
    pub fn enable_dedup(&mut self) {
        if self.dedup.is_none() {
            self.dedup = Some(DedupPair {
                raid: LevelDedup::new(),
                remote: LevelDedup::new(),
            });
        }
    }

    /// Is dedup active?
    pub fn dedup_enabled(&self) -> bool {
        self.dedup.is_some()
    }

    /// Cumulative dedup statistics per dedup-backed level, `[L2, L3]`.
    /// `None` while dedup is off.
    pub fn dedup_stats(&self) -> Option<[DedupStats; 2]> {
        self.dedup
            .as_ref()
            .map(|d| [d.raid.stats(), d.remote.stats()])
    }

    /// Byte-verified membership probe for the encoder's short-circuit: is
    /// this exact page content already a live chunk on L3 (or, for content
    /// committed this round but not yet drained, on L2)? A `true` answer
    /// means committing the page raw will dedup into a reference — encoding
    /// a delta for it is wasted work.
    pub fn dedup_contains_page(&self, page: &[u8]) -> bool {
        let Some(d) = &self.dedup else { return false };
        // Hash once: this probe sits on the encoder's critical path.
        let digest = wide_filter(page);
        d.remote.contains_page_hashed(digest, page) || d.raid.contains_page_hashed(digest, page)
    }

    /// Register this hierarchy's traffic metrics (bytes written/read per
    /// level, GC'd bytes, degraded-read reconstructions) and the shared
    /// `log.*` counters in `obs`. The engine calls this once per run when
    /// configured with an observability bundle.
    pub fn attach_obs(&mut self, obs: &Arc<Obs>) {
        self.obs = Some(StorageObs::new(obs));
        self.local.attach_obs(&obs.metrics);
        self.raid.attach_obs(&obs.metrics);
        self.remote.attach_obs(&obs.metrics);
    }

    /// Replace the compaction policy (`auto` off leaves every truncation
    /// as dead marks until [`StorageHierarchy::compact`] runs manually).
    pub fn set_compaction(&mut self, policy: CompactionPolicy) {
        self.compaction = policy;
    }

    /// The active compaction policy.
    pub fn compaction(&self) -> CompactionPolicy {
        self.compaction
    }

    /// Display name for a checkpoint record in errors and metrics.
    fn name(seq: u64) -> String {
        format!("ckpt-{seq:08}")
    }

    /// Commit a checkpoint to all three levels. A **full** checkpoint
    /// anchors a new chain: every older record is superseded — marked dead
    /// on all levels and compacted away per the [`CompactionPolicy`].
    ///
    /// Sequence numbers must strictly increase; a stale or duplicate
    /// sequence is rejected as [`RecoveryError::OutOfOrderCommit`] without
    /// touching any level.
    pub fn commit(&mut self, file: &CheckpointFile) -> Result<CommitReceipt, RecoveryError> {
        self.check_order(file.seq)?;
        let (payload, spans) = if self.dedup.is_some() {
            file.to_bytes_with_page_spans()
        } else {
            (file.to_bytes(), Vec::new())
        };
        let (_, local) = self.local.append(file.seq, file.kind, &payload);
        let (raid, remote) = match &mut self.dedup {
            Some(dd) => (
                append_installed(
                    &mut self.raid,
                    &mut dd.raid,
                    self.obs.as_ref(),
                    file.seq,
                    file.kind,
                    &payload,
                    &spans,
                ),
                append_installed(
                    &mut self.remote,
                    &mut dd.remote,
                    self.obs.as_ref(),
                    file.seq,
                    file.kind,
                    &payload,
                    &spans,
                ),
            ),
            None => (
                self.raid.append(file.seq, file.kind, &payload).1,
                self.remote.append(file.seq, file.kind, &payload).1,
            ),
        };
        let mut receipt = CommitReceipt {
            local,
            raid,
            remote,
            truncated: 0,
        };
        if let Some(obs) = &self.obs {
            obs.commits.inc();
            obs.written[0].add(receipt.local.bytes);
            obs.written[1].add(receipt.raid.bytes);
            obs.written[2].add(receipt.remote.bytes);
        }
        if file.kind == CheckpointKind::Full {
            receipt.truncated = self.truncate_before(file.seq, file.job);
        }
        self.committed.push(CommittedEntry {
            seq: file.seq,
            job: file.job,
            kind: file.kind,
            l3_durable: true,
            l12_live: true,
        });
        Ok(receipt)
    }

    /// Commit a checkpoint **write-behind**: L1 and L2 are appended now
    /// (the interval is locally durable), the serialized L3 payload is
    /// parked until [`Self::ack_remote`] confirms the network drain.
    /// Returns the receipt (with a zero L3 leg) and the wire size of the
    /// pending payload — the byte count the caller must enqueue on the
    /// transport.
    ///
    /// A full anchor truncates the L1/L2 prefix immediately, but defers the
    /// L3 truncation to its own ack: until the anchor is remotely durable,
    /// L3 keeps the superseded chain it would otherwise recover from.
    pub fn commit_write_behind(
        &mut self,
        file: &CheckpointFile,
    ) -> Result<(CommitReceipt, u64), RecoveryError> {
        self.check_order(file.seq)?;
        let (payload, spans) = if self.dedup.is_some() {
            file.to_bytes_with_page_spans()
        } else {
            (file.to_bytes(), Vec::new())
        };
        // Quote the wire before any install mutates state: what must cross
        // the network is what the *remote* store does not already hold.
        // Chunks installed by other acks between quote and drain can only
        // shrink the real append, so the quote is a conservative overcount.
        let wire = match &self.dedup {
            Some(dd) => dd.remote.quote(&payload, &spans),
            None => payload.len() as u64,
        };
        let (_, local) = self.local.append(file.seq, file.kind, &payload);
        let raid = match &mut self.dedup {
            Some(dd) => append_installed(
                &mut self.raid,
                &mut dd.raid,
                self.obs.as_ref(),
                file.seq,
                file.kind,
                &payload,
                &spans,
            ),
            None => self.raid.append(file.seq, file.kind, &payload).1,
        };
        let mut receipt = CommitReceipt {
            local,
            raid,
            remote: Receipt {
                bytes: 0,
                seconds: 0.0,
            },
            truncated: 0,
        };
        self.pending_remote.insert(
            file.seq,
            PendingDrain {
                job: file.job,
                kind: file.kind,
                payload,
                spans,
            },
        );
        if let Some(obs) = &self.obs {
            obs.commits.inc();
            obs.wb_commits.inc();
            obs.written[0].add(receipt.local.bytes);
            obs.written[1].add(receipt.raid.bytes);
        }
        if file.kind == CheckpointKind::Full {
            receipt.truncated = self.truncate_l12_before(file.seq, file.job);
        }
        self.committed.push(CommittedEntry {
            seq: file.seq,
            job: file.job,
            kind: file.kind,
            l3_durable: false,
            l12_live: true,
        });
        Ok((receipt, wire))
    }

    /// Acknowledge the L3 drain of a pending write-behind commit: the
    /// parked payload is appended to the remote log and the entry becomes
    /// remotely durable. If the acknowledged checkpoint is a full anchor,
    /// its deferred L3 truncation runs now — the superseded prefix (and
    /// any still-pending superseded drains) is dropped.
    ///
    /// Acknowledging a sequence with no pending payload (never committed
    /// write-behind, already acknowledged, or superseded by an anchored
    /// ack) is a [`RecoveryError::BadObject`].
    pub fn ack_remote(&mut self, seq: u64) -> Result<RemoteAck, RecoveryError> {
        let Some(drain) = self.pending_remote.remove(&seq) else {
            return Err(RecoveryError::BadObject(format!(
                "no pending write-behind object for seq {seq}"
            )));
        };
        let PendingDrain {
            job,
            kind,
            payload,
            spans,
        } = drain;
        // Install against the remote store *now*, not at enqueue time:
        // the durable chunk index is what the frame may reference.
        let remote = match &mut self.dedup {
            Some(dd) => append_installed(
                &mut self.remote,
                &mut dd.remote,
                self.obs.as_ref(),
                seq,
                kind,
                &payload,
                &spans,
            ),
            None => self.remote.append(seq, kind, &payload).1,
        };
        for e in &mut self.committed {
            if e.seq == seq {
                e.l3_durable = true;
            }
        }
        if let Some(obs) = &self.obs {
            obs.wb_acks.inc();
            obs.written[2].add(remote.bytes);
        }
        let mut truncated = 0;
        if kind == CheckpointKind::Full {
            // Deferred anchor GC: this job's L3 records below the anchor
            // are now superseded by a remotely durable full image, and its
            // superseded drains still in the queue will never be needed.
            let stale: Vec<u64> = self
                .committed
                .iter()
                .filter(|e| e.job == job && e.seq < seq)
                .map(|e| e.seq)
                .collect();
            let held_before = self.remote.store().stored_bytes();
            let mut reclaimed = 0u64;
            for s in &stale {
                self.remote.mark_dead(*s);
                if let Some(dd) = &mut self.dedup {
                    for c in dd.remote.forget_record(*s) {
                        self.remote.mark_dead(c);
                        reclaimed += 1;
                    }
                }
            }
            maybe_compact!(self.remote, self.compaction);
            self.committed.retain(|e| e.job != job || e.seq >= seq);
            let mut dropped = 0u64;
            self.pending_remote.retain(|&s, p| {
                if p.job == job && s < seq {
                    dropped += 1;
                    false
                } else {
                    true
                }
            });
            truncated = stale.len();
            if let Some(obs) = &self.obs {
                obs.gc_objects.add(stale.len() as u64);
                obs.gc_bytes
                    .add(held_before.saturating_sub(self.remote.store().stored_bytes()));
                obs.wb_dropped.add(dropped);
                obs.dedup_reclaims.add(reclaimed);
            }
        }
        Ok(RemoteAck { remote, truncated })
    }

    fn check_order(&self, next: u64) -> Result<(), RecoveryError> {
        if let Some(last) = self.committed.last() {
            if next <= last.seq {
                return Err(RecoveryError::OutOfOrderCommit {
                    prev: last.seq,
                    next,
                });
            }
        }
        Ok(())
    }

    /// Mark this job's committed records with `seq < anchor` dead on all
    /// three levels and compact per policy; returns how many records were
    /// collected. Dedup references are dropped with their records —
    /// a chunk is marked dead only when its *last* reference goes, so a
    /// chunk still serving another job (or a newer record) survives the
    /// truncation untouched. (The synchronous anchor is durable everywhere
    /// at once, so this job's superseded pending drains are dropped too —
    /// nothing will ever need them.)
    fn truncate_before(&mut self, anchor: u64, job: u64) -> usize {
        let stale: Vec<u64> = self
            .committed
            .iter()
            .filter(|e| e.job == job && e.seq < anchor)
            .map(|e| e.seq)
            .collect();
        let held_before: u64 = self.stored_bytes().iter().sum();
        self.committed.retain(|e| e.job != job || e.seq >= anchor);
        let mut dropped = 0u64;
        self.pending_remote.retain(|&s, p| {
            if p.job == job && s < anchor {
                dropped += 1;
                false
            } else {
                true
            }
        });
        let mut reclaimed = 0u64;
        for s in &stale {
            self.local.mark_dead(*s);
            self.raid.mark_dead(*s);
            self.remote.mark_dead(*s);
            if let Some(dd) = &mut self.dedup {
                for c in dd.raid.forget_record(*s) {
                    self.raid.mark_dead(c);
                    reclaimed += 1;
                }
                for c in dd.remote.forget_record(*s) {
                    self.remote.mark_dead(c);
                    reclaimed += 1;
                }
            }
        }
        maybe_compact!(self.local, self.compaction);
        maybe_compact!(self.raid, self.compaction);
        maybe_compact!(self.remote, self.compaction);
        if let Some(obs) = &self.obs {
            let held_after: u64 = self.stored_bytes().iter().sum();
            obs.gc_objects.add(stale.len() as u64);
            obs.gc_bytes.add(held_before.saturating_sub(held_after));
            obs.wb_dropped.add(dropped);
            obs.dedup_reclaims.add(reclaimed);
        }
        stale.len()
    }

    /// Write-behind anchor GC, part one: truncate the **L1/L2** prefix now
    /// (the anchor is locally durable, so local restarts never need it) but
    /// leave the L3 records in place — they are the only remotely durable
    /// chain until the anchor's own drain is acknowledged. Superseded
    /// entries stay in the commit log, marked dead on L1/L2.
    fn truncate_l12_before(&mut self, anchor: u64, job: u64) -> usize {
        let mut collected = 0;
        let mut reclaimed = 0u64;
        let held_before = self.local.store().stored_bytes() + self.raid.store().stored_bytes();
        for e in &mut self.committed {
            if e.job == job && e.seq < anchor && e.l12_live {
                e.l12_live = false;
                collected += 1;
                self.local.mark_dead(e.seq);
                self.raid.mark_dead(e.seq);
                if let Some(dd) = &mut self.dedup {
                    for c in dd.raid.forget_record(e.seq) {
                        self.raid.mark_dead(c);
                        reclaimed += 1;
                    }
                }
            }
        }
        maybe_compact!(self.local, self.compaction);
        maybe_compact!(self.raid, self.compaction);
        if let Some(obs) = &self.obs {
            let held_after = self.local.store().stored_bytes() + self.raid.store().stored_bytes();
            obs.gc_objects.add(collected as u64);
            obs.gc_bytes.add(held_before.saturating_sub(held_after));
            obs.dedup_reclaims.add(reclaimed);
        }
        collected
    }

    /// Sequence numbers still retained (the current chain).
    pub fn committed(&self) -> Vec<u64> {
        self.committed.iter().map(|e| e.seq).collect()
    }

    /// Sequence numbers committed write-behind whose L3 drain has not been
    /// acknowledged yet, in order.
    pub fn pending_remote_seqs(&self) -> Vec<u64> {
        self.pending_remote.keys().copied().collect()
    }

    /// Bytes parked in the write-behind queue (not yet on any remote
    /// level).
    pub fn pending_remote_bytes(&self) -> u64 {
        self.pending_remote
            .values()
            .map(|p| p.payload.len() as u64)
            .sum()
    }

    /// Newest sequence number any job's contiguous remotely durable prefix
    /// reaches — what an f3 failure right now would recover to. `None`
    /// while nothing (or only a gapped suffix) is acknowledged. Contiguity
    /// is per job, matching the recovery and gap-cut semantics.
    pub fn remote_frontier(&self) -> Option<u64> {
        let mut stopped = std::collections::HashSet::new();
        let mut newest = None;
        for e in &self.committed {
            if stopped.contains(&e.job) {
                continue;
            }
            if e.l3_durable {
                newest = Some(e.seq);
            } else {
                stopped.insert(e.job);
            }
        }
        newest
    }

    /// [`StorageHierarchy::remote_frontier`] scoped to one job's chain.
    pub fn remote_frontier_of(&self, job: u64) -> Option<u64> {
        self.committed
            .iter()
            .filter(|e| e.job == job)
            .take_while(|e| e.l3_durable)
            .last()
            .map(|e| e.seq)
    }

    /// Bytes held on each level, `[L1, L2, L3]`. Bounded by one chain once
    /// full checkpoints recur and compaction keeps up (L2 additionally
    /// holds parity + padding; dead records linger until their segment is
    /// compacted).
    pub fn stored_bytes(&self) -> [u64; 3] {
        [
            self.local.store().stored_bytes(),
            self.raid.store().stored_bytes(),
            self.remote.store().stored_bytes(),
        ]
    }

    /// Per-level log statistics, `[L1, L2, L3]` (the `aicctl log` surface).
    pub fn log_stats(&self) -> [LogStats; 3] {
        [self.local.stats(), self.raid.stats(), self.remote.stats()]
    }

    /// The RAID group (L2), e.g. to check degraded state.
    pub fn raid(&self) -> &Raid5Group {
        self.raid.store()
    }

    /// Force-compact all three levels and reclaim what no pin protects.
    /// Returns the combined copy-traffic receipt.
    pub fn compact(&mut self) -> Result<Receipt, RecoveryError> {
        let mut total = Receipt {
            bytes: 0,
            seconds: 0.0,
        };
        for level in 1..=3 {
            let r = self.compact_level(level, None)?;
            total.bytes += r.bytes;
            total.seconds += r.seconds;
        }
        Ok(total)
    }

    /// Compact one level (1 = local, 2 = RAID, 3 = remote), optionally
    /// crashing after `crash_after` record copies
    /// ([`RecoveryError::CompactionCrashed`] — the fault-injection hook
    /// for crash-mid-compaction recovery tests). On success the level's
    /// retired segments are reclaimed where no pin protects them.
    pub fn compact_level(
        &mut self,
        level: usize,
        crash_after: Option<usize>,
    ) -> Result<Receipt, RecoveryError> {
        let res = match level {
            1 => self.local.compact(crash_after),
            2 => self.raid.compact(crash_after),
            3 => self.remote.compact(crash_after),
            other => return Err(RecoveryError::BadLevel(other)),
        };
        match res {
            Ok(r) => {
                match level {
                    1 => self.local.try_reclaim(),
                    2 => self.raid.try_reclaim(),
                    _ => self.remote.try_reclaim(),
                };
                Ok(r)
            }
            Err(LogError::CompactionCrashed) => Err(RecoveryError::CompactionCrashed),
            Err(e) => Err(RecoveryError::BadObject(e.to_string())),
        }
    }

    /// Pin all three logs' reclamation epochs (a recovery reader is about
    /// to walk record locations). Pass the ids to
    /// [`StorageHierarchy::unpin_readers`] when the walk is done.
    pub fn pin_readers(&mut self) -> [u64; 3] {
        [self.local.pin(), self.raid.pin(), self.remote.pin()]
    }

    /// Release pins taken by [`StorageHierarchy::pin_readers`].
    pub fn unpin_readers(&mut self, pins: [u64; 3]) {
        self.local.unpin(pins[0]);
        self.raid.unpin(pins[1]);
        self.remote.unpin(pins[2]);
    }

    /// Reclaim every retired segment no pin protects, on all levels.
    /// Returns `(segments, physical bytes)` freed.
    pub fn try_reclaim_all(&mut self) -> (u64, u64) {
        let a = self.local.try_reclaim();
        let b = self.raid.try_reclaim();
        let c = self.remote.try_reclaim();
        (a.0 + b.0 + c.0, a.1 + b.1 + c.1)
    }

    /// Inject a failure: destroy the copies that level-k failures destroy.
    /// `raid_victim` selects which RAID node a partial failure takes down.
    /// A level outside 1..=3 is rejected as [`RecoveryError::BadLevel`]
    /// without destroying anything.
    pub fn inject_failure(
        &mut self,
        level: usize,
        raid_victim: usize,
    ) -> Result<(), RecoveryError> {
        match level {
            1 => {} // transient: nothing durable is lost
            2 => {
                // Partial node failure: local disk contents of the failed
                // node are unavailable; one RAID peer goes down with it.
                // The peer's disk dies with it: its chunks are genuinely
                // lost, so the eventual repair rebuilds (and bills) them.
                self.local.wipe();
                let victim = raid_victim % self.raid.store().node_count();
                self.raid.store_mut().fail_node_losing_data(victim);
            }
            3 => {
                // Total node failure: local disk gone and the RAID group's
                // data for this job is lost with the node's share — and so
                // is the write-behind queue, whose drains were fed from
                // those copies. Entries that never reached L3 are lost for
                // good; the chain is cut back to what was acknowledged.
                self.local.wipe();
                self.raid.wipe();
                // The RAID chunk index died with the group's data; chunk
                // seqs keep advancing so stale frames can never alias.
                if let Some(dd) = &mut self.dedup {
                    dd.raid.reset();
                }
                let dropped = self.pending_remote.len();
                self.pending_remote.clear();
                // Only each job's *contiguous* acknowledged prefix is
                // usable: an acknowledged delta whose base never drained
                // can only be orphaned, so it is collected along with the
                // pending tail — and its dedup references go with it.
                // Contiguity is per job: one job's gap must not cut another
                // job's acknowledged suffix.
                let mut stopped = std::collections::HashSet::new();
                let mut kept = Vec::with_capacity(self.committed.len());
                let mut orphans = Vec::new();
                for e in self.committed.drain(..) {
                    if !stopped.contains(&e.job) && e.l3_durable {
                        kept.push(e);
                    } else {
                        stopped.insert(e.job);
                        orphans.push(e);
                    }
                }
                self.committed = kept;
                let mut any_dead = false;
                for e in orphans {
                    any_dead |= self.remote.mark_dead(e.seq);
                    if let Some(dd) = &mut self.dedup {
                        for c in dd.remote.forget_record(e.seq) {
                            any_dead |= self.remote.mark_dead(c);
                        }
                    }
                }
                if any_dead {
                    // The gap-cut must free the orphans now — an f3 restart
                    // reads only the acknowledged prefix, and nothing pins
                    // the dead suffix (the node that might have is gone).
                    if self.remote.compact(None).is_ok() {
                        self.remote.try_reclaim();
                    }
                }
                if let Some(obs) = &self.obs {
                    obs.wb_dropped.add(dropped as u64);
                }
            }
            other => return Err(RecoveryError::BadLevel(other)),
        }
        Ok(())
    }

    /// Destroy one tenant's copies the way a level-`level` failure on
    /// *its* node would, leaving every other job untouched — the
    /// per-tenant analogue of [`StorageHierarchy::inject_failure`] for a
    /// shared hierarchy:
    ///
    /// * **f1**: transient — nothing durable is lost;
    /// * **f2**: the tenant's local-disk records are gone (its L1 marks go
    ///   dead); the RAID group itself stays healthy for the other tenants,
    ///   so the job recovers from L2;
    /// * **f3**: the tenant's L1 and L2 records are gone, its pending
    ///   write-behind drains die with the node, and its remote chain is
    ///   gap-cut back to its *own* contiguous acknowledged prefix — other
    ///   jobs' acknowledged records are untouched.
    ///
    /// Returns the sequence numbers of the job's pending drains that were
    /// lost (non-empty only for f3); the caller must cancel their
    /// in-flight transfers on the transport.
    pub fn fail_job(&mut self, job: u64, level: usize) -> Result<Vec<u64>, RecoveryError> {
        let owned: Vec<u64> = self
            .committed
            .iter()
            .filter(|e| e.job == job)
            .map(|e| e.seq)
            .collect();
        match level {
            1 => Ok(Vec::new()),
            2 => {
                for s in &owned {
                    self.local.mark_dead(*s);
                }
                maybe_compact!(self.local, self.compaction);
                Ok(Vec::new())
            }
            3 => {
                let mut reclaimed = 0u64;
                for s in &owned {
                    self.local.mark_dead(*s);
                    self.raid.mark_dead(*s);
                    if let Some(dd) = &mut self.dedup {
                        for c in dd.raid.forget_record(*s) {
                            self.raid.mark_dead(c);
                            reclaimed += 1;
                        }
                    }
                }
                // The pending drains were fed from the dead node's copies.
                let mut lost = Vec::new();
                self.pending_remote.retain(|&s, p| {
                    if p.job == job {
                        lost.push(s);
                        false
                    } else {
                        true
                    }
                });
                // Gap-cut this job's remote chain at its own contiguous
                // acknowledged prefix; orphans (acked past a gap) go too.
                // Survivors lose their L1/L2 copies with the node, so L1/L2
                // recovery must not try to replay them.
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
                for s in &orphans {
                    self.remote.mark_dead(*s);
                    if let Some(dd) = &mut self.dedup {
                        for c in dd.remote.forget_record(*s) {
                            self.remote.mark_dead(c);
                            reclaimed += 1;
                        }
                    }
                }
                maybe_compact!(self.local, self.compaction);
                maybe_compact!(self.raid, self.compaction);
                maybe_compact!(self.remote, self.compaction);
                if let Some(obs) = &self.obs {
                    obs.wb_dropped.add(lost.len() as u64);
                    obs.gc_objects.add(orphans.len() as u64);
                    obs.dedup_reclaims.add(reclaimed);
                }
                Ok(lost)
            }
            other => Err(RecoveryError::BadLevel(other)),
        }
    }

    /// Retire a departed tenant: every record it still holds on any level
    /// is marked dead (dedup chunks follow their refcounts), its pending
    /// drains are dropped, and each level compacts per policy — so a
    /// departed tenant leaks no live bytes into [`Self::log_stats`].
    /// Returns the retired record count and the dropped pending-drain
    /// seqs (the caller cancels their in-flight transfers).
    pub fn remove_job(&mut self, job: u64) -> (usize, Vec<u64>) {
        let owned: Vec<u64> = self
            .committed
            .iter()
            .filter(|e| e.job == job)
            .map(|e| e.seq)
            .collect();
        let held_before: u64 = self.stored_bytes().iter().sum();
        let mut reclaimed = 0u64;
        for s in &owned {
            self.local.mark_dead(*s);
            self.raid.mark_dead(*s);
            self.remote.mark_dead(*s);
            if let Some(dd) = &mut self.dedup {
                for c in dd.raid.forget_record(*s) {
                    self.raid.mark_dead(c);
                    reclaimed += 1;
                }
                for c in dd.remote.forget_record(*s) {
                    self.remote.mark_dead(c);
                    reclaimed += 1;
                }
            }
        }
        self.committed.retain(|e| e.job != job);
        let mut lost = Vec::new();
        self.pending_remote.retain(|&s, p| {
            if p.job == job {
                lost.push(s);
                false
            } else {
                true
            }
        });
        maybe_compact!(self.local, self.compaction);
        maybe_compact!(self.raid, self.compaction);
        maybe_compact!(self.remote, self.compaction);
        if let Some(obs) = &self.obs {
            let held_after: u64 = self.stored_bytes().iter().sum();
            obs.gc_objects.add(owned.len() as u64);
            obs.gc_bytes.add(held_before.saturating_sub(held_after));
            obs.wb_dropped.add(lost.len() as u64);
            obs.dedup_reclaims.add(reclaimed);
        }
        (owned.len(), lost)
    }

    /// Location of `seq`'s live record in `level`'s log — the pinned-reader
    /// handle ([`crate::log::CheckpointLog::loc_of`]). `None` for dead or
    /// unknown records, or a level outside 1..=3.
    pub fn loc_of(&self, level: usize, seq: u64) -> Option<RecordLoc> {
        match level {
            1 => self.local.loc_of(seq),
            2 => self.raid.loc_of(seq),
            3 => self.remote.loc_of(seq),
            _ => None,
        }
    }

    /// Read a record at an explicit location on `level`. For a pinned
    /// reader the location stays readable even after the record is marked
    /// dead and its segment retired by a concurrent compaction — the
    /// epoch-isolation guarantee the fleet-isolation suite asserts.
    pub fn read_at(&self, level: usize, loc: RecordLoc) -> Option<Bytes> {
        match level {
            1 => self.local.read_at(loc),
            2 => self.raid.read_at(loc),
            3 => self.remote.read_at(loc),
            _ => None,
        }
    }

    /// Live record seqs on one level's log, dedup chunk records included.
    pub fn live_record_seqs(&self, level: usize) -> Vec<u64> {
        match level {
            1 => self.local.live_seqs(),
            2 => self.raid.live_seqs(),
            3 => self.remote.live_seqs(),
            _ => Vec::new(),
        }
    }

    /// Repair the RAID group (rebuild a failed node from parity); no-op
    /// receipt when the group is healthy.
    pub fn repair_raid(&mut self) -> Receipt {
        self.raid.store_mut().repair_node()
    }

    /// Re-commit the current chain to L1 from another surviving level —
    /// how a replacement node repopulates its local disk after recovery.
    /// Returns the bytes written back.
    pub fn repopulate_local(&mut self) -> u64 {
        let mut bytes = 0;
        let entries: Vec<CommittedEntry> = self.committed.clone();
        for e in entries {
            if !e.l12_live {
                // Superseded by an anchor: only L3 still needs it (until
                // the anchor's drain acks); resurrecting it on L1 would
                // corrupt the local replay order.
                continue;
            }
            if self.local.read(e.seq).is_some() {
                continue;
            }
            // L2/L3 records may be dedup reference frames — resolve them
            // back to the plain payload; L1 always stores records raw.
            let Some(data) = read_resolved(&self.raid, e.seq)
                .or_else(|| read_resolved(&self.remote, e.seq))
                .map(|(b, _, _)| b)
            else {
                continue;
            };
            bytes += data.len() as u64;
            self.local.append(e.seq, e.kind, &data);
        }
        bytes
    }

    /// Recover the newest image reading from the cheapest level that still
    /// serves the whole chain: L1, then (possibly degraded) L2, then L3.
    pub fn recover(&self) -> Result<RecoveredImage, RecoveryError> {
        if self.committed.is_empty() {
            return Err(RecoveryError::NothingCommitted);
        }
        let mut last_err = RecoveryError::NothingCommitted;
        for level in 1..=3 {
            match self.recover_from(level) {
                Ok(img) => return Ok(img),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Recover the newest image from the log backing failure level
    /// `level` (1 = local, 2 = RAID, 3 = remote), replaying from the latest
    /// full-checkpoint anchor only.
    ///
    /// L1/L2 serve every live entry (write-behind makes an interval locally
    /// durable the moment it commits). L3 serves only the longest
    /// **contiguous acknowledged prefix** of the chain: a pending drain has
    /// no remote record, and anything after the first gap has no base to
    /// replay onto — the degraded-commit path loses exactly the un-drained
    /// tail.
    pub fn recover_from(&self, level: usize) -> Result<RecoveredImage, RecoveryError> {
        self.recover_inner(level, None)
    }

    /// [`StorageHierarchy::recover_from`] scoped to one job's chain — the
    /// per-tenant recovery path when several jobs share a hierarchy. Only
    /// `job`'s records are replayed; other tenants' interleaved records
    /// (and the chunks their frames reference) are invisible.
    pub fn recover_job(&self, level: usize, job: u64) -> Result<RecoveredImage, RecoveryError> {
        self.recover_inner(level, Some(job))
    }

    fn recover_inner(
        &self,
        level: usize,
        job: Option<u64>,
    ) -> Result<RecoveredImage, RecoveryError> {
        if self.committed.is_empty() {
            return Err(RecoveryError::NothingCommitted);
        }
        let recovery_level = match level {
            1 => RecoveryLevel::Local,
            2 => RecoveryLevel::Raid,
            3 => RecoveryLevel::Remote,
            other => return Err(RecoveryError::BadLevel(other)),
        };
        let visible: Vec<&CommittedEntry> = match recovery_level {
            RecoveryLevel::Local | RecoveryLevel::Raid => self
                .committed
                .iter()
                .filter(|e| e.l12_live && job.is_none_or(|j| e.job == j))
                .collect(),
            // L3 serves each job's own contiguous acknowledged prefix: a
            // job's chain ends at *its* first un-acked record. Contiguity
            // is per job, not global — tenant B's pending drain must not
            // truncate tenant A's acknowledged prefix when several jobs
            // share the hierarchy.
            RecoveryLevel::Remote => {
                let mut stopped = std::collections::HashSet::new();
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
                    .collect()
            }
        };
        let Some(newest) = visible.last() else {
            return Err(RecoveryError::BadObject(format!(
                "no {} checkpoint is durable yet",
                recovery_level.label()
            )));
        };
        let newest_seq = newest.seq;

        // Replay from the newest full anchor; older retained records (there
        // are none once GC has run, but be robust to mixed histories) are
        // skipped. No anchor at all means this level cannot serve the
        // chain — e.g. a level-3 failure took the L1/L2 copies with the
        // node and the only cuts since recovery were deltas.
        let Some(anchor) = visible.iter().rposition(|e| e.kind == CheckpointKind::Full) else {
            return Err(RecoveryError::BadObject(format!(
                "no full anchor is {}",
                recovery_level.label()
            )));
        };

        let mut chain = CheckpointChain::new();
        let mut read_seconds = 0.0;
        let mut cpu_state = Bytes::new();
        for e in &visible[anchor..] {
            let name = Self::name(e.seq);
            // L2/L3 records may be dedup reference frames: resolve them by
            // reading their chunk records from the same level's log. A
            // missing record, a tripped frame checksum, or a missing chunk
            // is the same outcome: this level cannot serve the chain.
            let resolved = match recovery_level {
                RecoveryLevel::Local => read_resolved(&self.local, e.seq),
                RecoveryLevel::Raid => read_resolved(&self.raid, e.seq),
                RecoveryLevel::Remote => read_resolved(&self.remote, e.seq),
            };
            let (bytes, seconds, bytes_read) =
                resolved.ok_or_else(|| RecoveryError::BadObject(name.clone()))?;
            // Charge the read through the serving store's own channel
            // model — the record's (and its chunks') share of their
            // segments, so degraded RAID reconstruction premiums carry
            // through.
            read_seconds += seconds;
            // Partial probes count too: a failed attempt at a cheap level
            // still read these bytes before it gave up.
            if let Some(obs) = &self.obs {
                obs.read[level - 1].add(bytes_read);
            }
            let file = CheckpointFile::from_bytes(bytes)
                .map_err(|e| RecoveryError::BadObject(format!("{name}: {e}")))?;
            cpu_state = file.cpu_state.clone();
            chain.push(file);
        }
        let snapshot = chain
            .restore_latest()
            .map_err(|e| RecoveryError::Restore(e.to_string()))?;
        let degraded = recovery_level == RecoveryLevel::Raid && self.raid.store().is_degraded();
        if let Some(obs) = &self.obs {
            obs.recoveries.inc();
            if degraded {
                obs.degraded_reads.inc();
            }
        }
        Ok(RecoveredImage {
            snapshot,
            cpu_state,
            level: recovery_level,
            seq: newest_seq,
            read_seconds,
            degraded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aic_delta::pa::{pa_encode, PaParams};
    use aic_memsim::{Page, PAGE_SIZE};
    use bytes::Bytes;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn page(seed: u64) -> Page {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = vec![0u8; PAGE_SIZE];
        rng.fill(&mut b[..]);
        Page::from_bytes(&b)
    }

    /// A hierarchy with the coastal channel models but a fine-grained
    /// (1 KiB chunk) RAID stripe, so stored-byte assertions are not
    /// swamped by the 256 KiB row quantization of the testbed group.
    fn fine_hierarchy() -> StorageHierarchy {
        StorageHierarchy::new(
            FlatStore::new(BandwidthModel::new(100e6, 1e-3)),
            Raid5Group::new(4, 1024, BandwidthModel::new(471.7e6, 1e-3)),
            FlatStore::new(BandwidthModel::new(2e6, 10e-3)),
        )
    }

    /// Build a hierarchy with a 3-checkpoint chain (full, incremental,
    /// delta) and return it with the expected final state.
    fn committed_hierarchy() -> (StorageHierarchy, Snapshot) {
        let mut h = fine_hierarchy();

        let full = Snapshot::from_pages([(0, page(1)), (1, page(2)), (2, page(3))]);
        h.commit(&CheckpointFile::full(1, 0, full.clone(), Bytes::new()))
            .unwrap();

        let mut state1 = full.clone();
        state1.insert(1, page(20));
        let dirty1 = Snapshot::from_pages([(1, page(20))]);
        h.commit(&CheckpointFile::incremental(
            1,
            1,
            dirty1,
            vec![0, 1, 2],
            Bytes::new(),
        ))
        .unwrap();

        let mut state2 = state1.clone();
        state2.insert(0, page(30));
        let dirty2 = Snapshot::from_pages([(0, page(30))]);
        let (df, _) = pa_encode(&state1, &dirty2, &PaParams::default());
        h.commit(&CheckpointFile::delta(
            1,
            2,
            df,
            vec![0, 1, 2],
            Bytes::new(),
        ))
        .unwrap();

        (h, state2)
    }

    #[test]
    fn f1_recovers_from_local() {
        let (mut h, truth) = committed_hierarchy();
        h.inject_failure(1, 0).unwrap();
        let img = h.recover_from(1).unwrap();
        assert_eq!(img.level, RecoveryLevel::Local);
        assert_eq!(img.snapshot, truth);
        assert_eq!(img.seq, 2);
        assert!(!img.degraded);
    }

    #[test]
    fn f2_recovers_from_degraded_raid() {
        let (mut h, truth) = committed_hierarchy();
        h.inject_failure(2, 1).unwrap();
        // Local is gone.
        assert!(matches!(
            h.recover_from(1),
            Err(RecoveryError::BadObject(_))
        ));
        // Degraded RAID still serves.
        let img = h.recover_from(2).unwrap();
        assert_eq!(img.level, RecoveryLevel::Raid);
        assert_eq!(img.snapshot, truth);
        assert!(img.degraded);
    }

    #[test]
    fn f3_recovers_from_remote_only() {
        let (mut h, truth) = committed_hierarchy();
        h.inject_failure(3, 0).unwrap();
        assert!(h.recover_from(1).is_err());
        assert!(h.recover_from(2).is_err());
        let img = h.recover_from(3).unwrap();
        assert_eq!(img.level, RecoveryLevel::Remote);
        assert_eq!(img.snapshot, truth);
        // Remote reads are slow: 2 MB/s.
        assert!(img.read_seconds > 0.0);
    }

    #[test]
    fn recover_probes_cheapest_surviving_level() {
        let (h, truth) = committed_hierarchy();
        let img = h.recover().unwrap();
        assert_eq!(img.level, RecoveryLevel::Local);
        assert_eq!(img.snapshot, truth);

        let (mut h, truth) = committed_hierarchy();
        h.inject_failure(2, 0).unwrap();
        let img = h.recover().unwrap();
        assert_eq!(img.level, RecoveryLevel::Raid);
        assert_eq!(img.snapshot, truth);

        let (mut h, truth) = committed_hierarchy();
        h.inject_failure(3, 0).unwrap();
        let img = h.recover().unwrap();
        assert_eq!(img.level, RecoveryLevel::Remote);
        assert_eq!(img.snapshot, truth);
    }

    #[test]
    fn read_cost_comes_from_store_models() {
        let (h, _) = committed_hierarchy();
        let local = h.recover_from(1).unwrap().read_seconds;
        let raid = h.recover_from(2).unwrap().read_seconds;
        let remote = h.recover_from(3).unwrap().read_seconds;
        // Coastal models: remote is by far the slowest channel.
        assert!(remote > local, "remote {remote} vs local {local}");
        assert!(local > 0.0 && raid > 0.0);

        // The cost must track the store's own model, not a constant table:
        // rebuild the same chain on a deliberately slow local disk and the
        // local read must get slower by the bandwidth ratio.
        let slow = StorageHierarchy::new(
            FlatStore::new(BandwidthModel::new(1e6, 0.0)),
            Raid5Group::new(4, 256 << 10, BandwidthModel::new(471.7e6, 1e-3)),
            FlatStore::new(BandwidthModel::new(2e6, 10e-3)),
        );
        let mut slow = slow;
        let full = Snapshot::from_pages([(0, page(1)), (1, page(2)), (2, page(3))]);
        slow.commit(&CheckpointFile::full(1, 0, full, Bytes::new()))
            .unwrap();
        let fast_local = {
            let mut h = StorageHierarchy::coastal(4);
            let full = Snapshot::from_pages([(0, page(1)), (1, page(2)), (2, page(3))]);
            h.commit(&CheckpointFile::full(1, 0, full, Bytes::new()))
                .unwrap();
            h.recover_from(1).unwrap().read_seconds
        };
        let slow_local = slow.recover_from(1).unwrap().read_seconds;
        assert!(
            slow_local > 10.0 * fast_local,
            "slow {slow_local} fast {fast_local}"
        );
    }

    #[test]
    fn degraded_raid_read_costs_more_than_healthy() {
        let (h, _) = committed_hierarchy();
        let healthy = h.recover_from(2).unwrap().read_seconds;
        let (mut h, _) = committed_hierarchy();
        h.inject_failure(2, 0).unwrap();
        let degraded = h.recover_from(2).unwrap().read_seconds;
        assert!(degraded > healthy, "degraded {degraded} healthy {healthy}");
    }

    #[test]
    fn full_commit_truncates_chain_on_all_levels() {
        let (mut h, _) = committed_hierarchy();
        assert_eq!(h.committed(), vec![0, 1, 2]);
        let before = h.stored_bytes();

        let anchor = Snapshot::from_pages([(0, page(40)), (1, page(41))]);
        let r = h
            .commit(&CheckpointFile::full(1, 3, anchor.clone(), Bytes::new()))
            .unwrap();
        assert_eq!(r.truncated, 3);
        assert_eq!(h.committed(), vec![3]);

        // The prefix is dead on every level and the auto-compaction pass
        // reclaimed it: stored bytes dropped below the 3-checkpoint total
        // even though we just added a full image.
        let after = h.stored_bytes();
        for (lvl, (b, a)) in before.iter().zip(after.iter()).enumerate() {
            assert!(a < b, "level {lvl} grew: {b} -> {a}");
        }

        // Recovery replays only the anchor.
        let img = h.recover().unwrap();
        assert_eq!(img.seq, 3);
        assert_eq!(img.snapshot, anchor);
    }

    #[test]
    fn manual_compaction_reclaims_what_auto_would_have() {
        let (mut h, _) = committed_hierarchy();
        h.set_compaction(CompactionPolicy {
            auto: false,
            garbage_threshold: 0.5,
        });
        let anchor = Snapshot::from_pages([(0, page(40))]);
        h.commit(&CheckpointFile::full(1, 3, anchor.clone(), Bytes::new()))
            .unwrap();
        // With auto off, the dead prefix lingers physically...
        let stats = h.log_stats();
        assert!(stats[0].garbage_ratio > 0.0, "nothing marked dead");
        let before = h.stored_bytes();
        // ...until a manual pass folds it away on every level.
        let r = h.compact().unwrap();
        assert!(r.bytes > 0);
        let after = h.stored_bytes();
        for (lvl, (b, a)) in before.iter().zip(after.iter()).enumerate() {
            assert!(a < b, "level {lvl} did not shrink: {b} -> {a}");
        }
        assert_eq!(h.recover().unwrap().snapshot, anchor);
    }

    #[test]
    fn recovery_is_identical_before_during_and_after_compaction() {
        let (mut h, truth) = committed_hierarchy();
        h.set_compaction(CompactionPolicy {
            auto: false,
            garbage_threshold: 0.5,
        });
        let before = h.recover().unwrap().snapshot;
        assert_eq!(before, truth);

        // Mid-flight: a compaction pass crashes after one record copy
        // while a reader holds the epoch pins.
        let pins = h.pin_readers();
        assert_eq!(
            h.compact_level(1, Some(1)).unwrap_err(),
            RecoveryError::CompactionCrashed
        );
        let during = h.recover().unwrap();
        assert_eq!(during.snapshot, truth, "mid-compaction recovery drifted");
        assert_eq!(during.level, RecoveryLevel::Local);
        h.unpin_readers(pins);

        // After a clean pass (and reclaim), still identical.
        h.compact().unwrap();
        h.try_reclaim_all();
        let after = h.recover().unwrap();
        assert_eq!(after.snapshot, truth, "post-compaction recovery drifted");
    }

    #[test]
    fn stored_bytes_stay_bounded_across_many_chains() {
        let mut h = StorageHierarchy::coastal(4);
        let mut peak_after_gc = [0u64; 3];
        for round in 0..6u64 {
            let seq0 = round * 3;
            let full = Snapshot::from_pages([(0, page(round)), (1, page(round + 100))]);
            h.commit(&CheckpointFile::full(1, seq0, full, Bytes::new()))
                .unwrap();
            for k in 1..3 {
                let dirty = Snapshot::from_pages([(0, page(seq0 + k))]);
                h.commit(&CheckpointFile::incremental(
                    1,
                    seq0 + k,
                    dirty,
                    vec![0, 1],
                    Bytes::new(),
                ))
                .unwrap();
            }
            peak_after_gc = h.stored_bytes();
        }
        // Six chains of identical shape: storage equals one chain, not six.
        assert_eq!(h.committed().len(), 3);
        let final_bytes = h.stored_bytes();
        assert_eq!(final_bytes, peak_after_gc);
    }

    #[test]
    fn raid_repair_restores_redundancy() {
        let (mut h, truth) = committed_hierarchy();
        h.inject_failure(2, 0).unwrap();
        let r = h.repair_raid();
        assert!(r.bytes > 0);
        // A second, different node can now fail and RAID still serves.
        h.inject_failure(2, 2).unwrap();
        let img = h.recover_from(2).unwrap();
        assert_eq!(img.snapshot, truth);
    }

    #[test]
    fn repopulate_local_restores_l1_after_wipe() {
        let (mut h, truth) = committed_hierarchy();
        h.inject_failure(3, 0).unwrap();
        assert!(h.recover_from(1).is_err());
        let written = h.repopulate_local();
        assert!(written > 0);
        let img = h.recover_from(1).unwrap();
        assert_eq!(img.snapshot, truth);
    }

    #[test]
    fn cpu_state_of_newest_checkpoint_travels_with_recovery() {
        let mut h = StorageHierarchy::coastal(4);
        let full = Snapshot::from_pages([(0, page(1))]);
        h.commit(&CheckpointFile::full(
            1,
            0,
            full.clone(),
            Bytes::from_static(b"old"),
        ))
        .unwrap();
        let dirty = Snapshot::from_pages([(0, page(2))]);
        h.commit(&CheckpointFile::incremental(
            1,
            1,
            dirty,
            vec![0],
            Bytes::from_static(b"new"),
        ))
        .unwrap();
        let img = h.recover().unwrap();
        assert_eq!(&img.cpu_state[..], b"new");
    }

    #[test]
    fn empty_hierarchy_reports_nothing_committed() {
        let h = StorageHierarchy::coastal(3);
        assert_eq!(
            h.recover_from(1).unwrap_err(),
            RecoveryError::NothingCommitted
        );
        assert_eq!(h.recover().unwrap_err(), RecoveryError::NothingCommitted);
    }

    #[test]
    fn out_of_order_commit_is_a_typed_error() {
        let mut h = StorageHierarchy::coastal(3);
        let snap = Snapshot::from_pages([(0, page(1))]);
        h.commit(&CheckpointFile::full(1, 5, snap.clone(), Bytes::new()))
            .unwrap();
        let err = h
            .commit(&CheckpointFile::full(1, 4, snap.clone(), Bytes::new()))
            .unwrap_err();
        assert_eq!(err, RecoveryError::OutOfOrderCommit { prev: 5, next: 4 });
        assert!(err.to_string().contains("out of order"));
        // A duplicate sequence number is rejected the same way.
        let dup = h
            .commit(&CheckpointFile::full(1, 5, snap, Bytes::new()))
            .unwrap_err();
        assert_eq!(dup, RecoveryError::OutOfOrderCommit { prev: 5, next: 5 });
        // Nothing was committed by the rejected calls.
        assert_eq!(h.committed(), vec![5]);
    }

    #[test]
    fn unknown_injection_level_is_a_typed_error_and_destroys_nothing() {
        let (mut h, truth) = committed_hierarchy();
        let before = h.stored_bytes();
        assert_eq!(
            h.inject_failure(0, 0).unwrap_err(),
            RecoveryError::BadLevel(0)
        );
        assert_eq!(
            h.inject_failure(4, 1).unwrap_err(),
            RecoveryError::BadLevel(4)
        );
        assert_eq!(h.stored_bytes(), before, "rejected injection wiped data");
        assert_eq!(h.recover().unwrap().snapshot, truth);
    }

    #[test]
    fn unknown_recovery_level_is_a_typed_error() {
        let (h, _) = committed_hierarchy();
        let err = h.recover_from(7).unwrap_err();
        assert_eq!(err, RecoveryError::BadLevel(7));
        assert!(err.to_string().contains("unknown failure level 7"));
    }

    #[test]
    fn receipts_reflect_bandwidths() {
        let mut h = StorageHierarchy::coastal(4);
        // Large enough (4 MiB) that stripe padding amortizes and the
        // channel speeds dominate the ordering.
        let snap = Snapshot::from_pages((0..1024u64).map(|i| (i, page(i))));
        let r = h
            .commit(&CheckpointFile::full(1, 0, snap, Bytes::new()))
            .unwrap();
        // Remote is the slowest channel by far.
        assert!(r.remote.seconds > r.local.seconds);
        assert!(r.local.seconds > r.raid.seconds);
        // L2 ships parity + stripe padding on top of the payload.
        assert!(r.raid.bytes > r.local.bytes);
        // L1 and L3 append the identical record frame.
        assert_eq!(r.local.bytes, r.remote.bytes);
    }

    #[test]
    fn corrupt_record_surfaces_as_bad_object() {
        let mut h = StorageHierarchy::coastal(4);
        let snap = Snapshot::from_pages([(0, page(1))]);
        h.commit(&CheckpointFile::full(1, 0, snap, Bytes::new()))
            .unwrap();
        // Flip a byte inside the first log segment at L1 only: the
        // record's frame CRC trips and the level refuses to serve it.
        use crate::storage::Store;
        let seg = "seg-00000000";
        let mut data = h.local.store().get(seg).unwrap().to_vec();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        h.local.store_mut().put(seg, Bytes::from(data));
        assert!(matches!(
            h.recover_from(1),
            Err(RecoveryError::BadObject(_))
        ));
        // The probing recover() falls through to a healthy level.
        assert!(h.recover().is_ok());
    }

    /// Full(0) committed synchronously, incremental(1) committed
    /// write-behind. Returns the hierarchy and the post-increment state.
    fn write_behind_hierarchy() -> (StorageHierarchy, Snapshot) {
        let mut h = StorageHierarchy::coastal(4);
        let full = Snapshot::from_pages([(0, page(1)), (1, page(2))]);
        h.commit(&CheckpointFile::full(1, 0, full.clone(), Bytes::new()))
            .unwrap();
        let mut state = full;
        state.insert(1, page(20));
        let dirty = Snapshot::from_pages([(1, page(20))]);
        let (r, wire) = h
            .commit_write_behind(&CheckpointFile::incremental(
                1,
                1,
                dirty,
                vec![0, 1],
                Bytes::new(),
            ))
            .unwrap();
        assert!(wire > 0);
        assert_eq!(r.remote.bytes, 0, "L3 leg must be deferred");
        assert!(r.local.bytes > 0 && r.raid.bytes > 0);
        (h, state)
    }

    #[test]
    fn write_behind_is_locally_durable_before_the_ack() {
        let (h, truth) = write_behind_hierarchy();
        // L1 and L2 already serve the newest interval...
        assert_eq!(h.recover_from(1).unwrap().snapshot, truth);
        assert_eq!(h.recover_from(2).unwrap().snapshot, truth);
        // ...but L3 only serves the acknowledged prefix (the initial full).
        let img = h.recover_from(3).unwrap();
        assert_eq!(img.seq, 0);
        assert_eq!(h.pending_remote_seqs(), vec![1]);
        assert_eq!(h.remote_frontier(), Some(0));
        assert!(h.pending_remote_bytes() > 0);
    }

    #[test]
    fn ack_materializes_the_remote_copy() {
        let (mut h, truth) = write_behind_hierarchy();
        let ack = h.ack_remote(1).unwrap();
        assert!(ack.remote.bytes > 0);
        assert_eq!(ack.truncated, 0, "non-anchor acks must not GC");
        let img = h.recover_from(3).unwrap();
        assert_eq!(img.seq, 1);
        assert_eq!(img.snapshot, truth);
        assert!(h.pending_remote_seqs().is_empty());
        assert_eq!(h.remote_frontier(), Some(1));
        // Double-ack (or an unknown seq) is a typed error.
        assert!(matches!(h.ack_remote(1), Err(RecoveryError::BadObject(_))));
        assert!(matches!(h.ack_remote(99), Err(RecoveryError::BadObject(_))));
    }

    #[test]
    fn anchor_truncates_l12_now_but_l3_only_after_its_own_ack() {
        let (mut h, old_truth) = write_behind_hierarchy();
        h.ack_remote(1).unwrap();

        let anchor = Snapshot::from_pages([(0, page(40)), (1, page(41))]);
        let (r, _) = h
            .commit_write_behind(&CheckpointFile::full(1, 2, anchor.clone(), Bytes::new()))
            .unwrap();
        // L1/L2 prefix collected immediately: local restarts replay only
        // the anchor.
        assert_eq!(r.truncated, 2);
        assert_eq!(h.recover_from(1).unwrap().snapshot, anchor);
        assert_eq!(h.recover_from(2).unwrap().snapshot, anchor);
        // L3 untouched: the superseded chain is the only remotely durable
        // image until the anchor's drain is acknowledged.
        let img = h.recover_from(3).unwrap();
        assert_eq!(img.seq, 1);
        assert_eq!(img.snapshot, old_truth);
        assert_eq!(h.committed(), vec![0, 1, 2]);

        // The ack runs the deferred L3 GC.
        let ack = h.ack_remote(2).unwrap();
        assert_eq!(ack.truncated, 2);
        assert_eq!(h.committed(), vec![2]);
        let img = h.recover_from(3).unwrap();
        assert_eq!(img.seq, 2);
        assert_eq!(img.snapshot, anchor);
    }

    #[test]
    fn f3_mid_drain_recovers_the_acknowledged_prefix() {
        let (mut h, _) = write_behind_hierarchy();
        h.inject_failure(3, 0).unwrap();
        // The pending interval died with the node; the chain is cut back.
        assert!(h.pending_remote_seqs().is_empty());
        assert_eq!(h.committed(), vec![0]);
        let img = h.recover().unwrap();
        assert_eq!(img.level, RecoveryLevel::Remote);
        assert_eq!(img.seq, 0);
    }

    #[test]
    fn f3_discards_acknowledged_entries_after_a_gap() {
        let mut h = StorageHierarchy::coastal(4);
        let full = Snapshot::from_pages([(0, page(1))]);
        h.commit(&CheckpointFile::full(1, 0, full, Bytes::new()))
            .unwrap();
        for seq in 1..=2u64 {
            let dirty = Snapshot::from_pages([(0, page(seq + 10))]);
            h.commit_write_behind(&CheckpointFile::incremental(
                1,
                seq,
                dirty,
                vec![0],
                Bytes::new(),
            ))
            .unwrap();
        }
        // The smaller/later transfer acked first: 2 is remotely durable
        // but its base 1 is not — the frontier stays at the full.
        h.ack_remote(2).unwrap();
        assert_eq!(h.remote_frontier(), Some(0));
        let l3_before = h.stored_bytes()[2];
        h.inject_failure(3, 0).unwrap();
        // The orphaned record after the gap is collected with the tail:
        // the gap-cut marks it dead and compacts the remote log.
        assert_eq!(h.committed(), vec![0]);
        assert!(h.stored_bytes()[2] < l3_before);
        assert_eq!(h.recover().unwrap().seq, 0);
    }

    #[test]
    fn f2_keeps_the_pending_queue_alive() {
        let (mut h, truth) = write_behind_hierarchy();
        h.inject_failure(2, 0).unwrap();
        // RAID (degraded) still serves the locally durable interval and
        // the drain can still complete from the surviving copies.
        let img = h.recover().unwrap();
        assert_eq!(img.level, RecoveryLevel::Raid);
        assert_eq!(img.snapshot, truth);
        assert_eq!(h.pending_remote_seqs(), vec![1]);
        h.ack_remote(1).unwrap();
        assert_eq!(h.recover_from(3).unwrap().seq, 1);
    }

    #[test]
    fn sync_anchor_drops_superseded_pending_drains() {
        let (mut h, _) = write_behind_hierarchy();
        let anchor = Snapshot::from_pages([(0, page(50))]);
        h.commit(&CheckpointFile::full(1, 2, anchor.clone(), Bytes::new()))
            .unwrap();
        // The synchronous anchor is durable everywhere at once: the
        // pending drain of seq 1 will never be needed.
        assert!(h.pending_remote_seqs().is_empty());
        assert_eq!(h.committed(), vec![2]);
        assert_eq!(h.recover_from(3).unwrap().snapshot, anchor);
    }

    #[test]
    fn write_behind_obs_counts_commits_acks_and_drops() {
        let obs = Arc::new(Obs::new());
        let mut h = StorageHierarchy::coastal(4);
        h.attach_obs(&obs);
        let full = Snapshot::from_pages([(0, page(1))]);
        h.commit(&CheckpointFile::full(1, 0, full, Bytes::new()))
            .unwrap();
        for seq in 1..=3u64 {
            let dirty = Snapshot::from_pages([(0, page(seq + 10))]);
            h.commit_write_behind(&CheckpointFile::incremental(
                1,
                seq,
                dirty,
                vec![0],
                Bytes::new(),
            ))
            .unwrap();
        }
        h.ack_remote(1).unwrap();
        h.inject_failure(3, 0).unwrap();
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("storage.wb_commits"), Some(3));
        assert_eq!(snap.counter("storage.wb_acks"), Some(1));
        // Two drains (2 and 3) died with the node.
        assert_eq!(snap.counter("storage.wb_dropped"), Some(2));
        // Deferred L3 legs: only the sync full and the acked record ever
        // reached the remote log — exactly what it still holds after f3
        // cut the chain back to the acknowledged prefix [0, 1].
        let l3 = snap.counter("storage.l3.bytes_written").unwrap();
        assert_eq!(l3, h.stored_bytes()[2]);
        assert_eq!(h.committed(), vec![0, 1]);
    }

    #[test]
    fn attached_obs_counts_traffic_gc_and_recoveries() {
        let obs = Arc::new(Obs::new());
        let mut h = StorageHierarchy::coastal(4);
        h.attach_obs(&obs);
        let full = Snapshot::from_pages([(0, page(1)), (1, page(2))]);
        h.commit(&CheckpointFile::full(1, 0, full, Bytes::new()))
            .unwrap();
        let dirty = Snapshot::from_pages([(0, page(9))]);
        h.commit(&CheckpointFile::incremental(
            1,
            1,
            dirty,
            vec![0, 1],
            Bytes::new(),
        ))
        .unwrap();
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("storage.commits"), Some(2));
        let l1_written = snap.counter("storage.l1.bytes_written").unwrap();
        assert!(l1_written > 0);
        // L2 ships parity + stripe padding on top of the payload.
        assert!(snap.counter("storage.l2.bytes_written").unwrap() > l1_written);
        assert_eq!(snap.counter("storage.gc_objects"), Some(0));
        // The log layer counted the same appends.
        assert_eq!(snap.counter("log.appends"), Some(6));

        // A fresh full anchor GCs the prefix and counts the freed bytes
        // (the auto-compaction pass physically reclaims them).
        let anchor = Snapshot::from_pages([(0, page(40))]);
        h.commit(&CheckpointFile::full(1, 2, anchor, Bytes::new()))
            .unwrap();
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("storage.gc_objects"), Some(2));
        assert!(snap.counter("storage.gc_bytes").unwrap() > 0);
        assert!(snap.counter("log.compactions").unwrap() > 0);
        assert!(snap.counter("log.segments_reclaimed").unwrap() > 0);

        // A degraded RAID recovery bumps both recovery counters; the wiped
        // L1 is probed but serves no bytes.
        h.inject_failure(2, 0).unwrap();
        let img = h.recover().unwrap();
        assert_eq!(img.level.label(), "raid");
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("storage.recoveries"), Some(1));
        assert_eq!(snap.counter("storage.degraded_reads"), Some(1));
        assert_eq!(snap.counter("storage.l1.bytes_read"), Some(0));
        assert!(snap.counter("storage.l2.bytes_read").unwrap() > 0);
    }

    #[test]
    fn degraded_dedup_reference_commit_bills_no_payload_stripes() {
        // The degraded-commit matrix covers payload commits while a RAID
        // node is down. A dedup *reference* commit is the missing row:
        // every page already lives as a chunk on L2, so the only stripe
        // traffic a degraded commit may bill is the survivors' share of
        // the reference frame — zero payload rows.
        let mut h = fine_hierarchy();
        h.enable_dedup();
        let image = Snapshot::from_pages([(0, page(1)), (1, page(2)), (2, page(3))]);
        let first = h
            .commit(&CheckpointFile::full(1, 1, image.clone(), Bytes::new()))
            .unwrap();
        // Chunk donors stripe the full pages: page-scale L2 traffic.
        assert!(
            first.raid.bytes >= 3 * PAGE_SIZE as u64,
            "donor commit billed {} B",
            first.raid.bytes
        );

        // Transient node outage: the group keeps accepting writes, billing
        // only the surviving nodes' chunks.
        h.raid.store_mut().fail_node(2);
        assert!(h.raid.store().is_degraded());

        // A second tenant checkpoints the same shared image. Every page
        // byte-verifies against a live chunk, so the degraded group stripes
        // one reference frame and nothing else.
        let second = h
            .commit(&CheckpointFile::full(2, 2, image.clone(), Bytes::new()))
            .unwrap();
        assert!(
            second.raid.bytes < PAGE_SIZE as u64,
            "degraded reference commit billed payload stripes: {} B (donor commit {} B)",
            second.raid.bytes,
            first.raid.bytes
        );
        let stats = h.dedup_stats().unwrap();
        assert!(stats[0].hits >= 3, "L2 hits {}", stats[0].hits);
        assert_eq!(stats[0].verify_failures, 0);

        // Degraded parity reconstruction must still resolve the reference
        // frame through the donor's chunks, for both tenants.
        for job in [1, 2] {
            let img = h.recover_job(2, job).unwrap();
            assert_eq!(img.snapshot, image, "job {job} image diverged");
            assert!(img.degraded);
        }

        // Repair rebuilds the appended-to segment on the replacement node
        // (an overwrite-while-degraded discards its stale copy, so the
        // rebuild is segment-scale, not frame-scale) and the group serves
        // both tenants healthy again.
        let rebuilt = h.repair_raid();
        assert!(rebuilt.bytes > 0);
        for job in [1, 2] {
            let img = h.recover_job(2, job).unwrap();
            assert_eq!(img.snapshot, image);
            assert!(!img.degraded);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        // Two tenants share a 4-content page pool, so their chunks
        // cross-reference. Any interleaving of put (sync and write-behind
        // anchors), reference, mark-dead (anchor truncation + deferred ack
        // truncation), compact, and reclaim must keep every tenant's chain
        // byte-identical — in particular no chunk may be reclaimed while
        // another tenant's frame still references it, and pinned readers
        // must see identical images across a compaction + reclaim.
        #[test]
        fn dedup_interleavings_keep_tenant_chains_byte_identical(
            ops in prop_vec((0u8..8, 0u8..4, 0u8..4), 6..32)
        ) {
            let mut h = fine_hierarchy();
            h.enable_dedup();
            h.set_compaction(CompactionPolicy {
                auto: false,
                garbage_threshold: 0.5,
            });
            let mut seq = 0u64;
            let mut truth: [Option<Snapshot>; 2] = [None, None];
            for &(op, a, b) in &ops {
                match op {
                    // Full anchor for one tenant: chunk puts/references plus
                    // the job-scoped mark-dead of its own superseded prefix.
                    0..=3 => {
                        let t = (op % 2) as usize;
                        let img = Snapshot::from_pages([
                            (0, page(a as u64)),
                            (1, page(b as u64)),
                            (2, page(((a + b) % 4) as u64)),
                        ]);
                        seq += 1;
                        let file =
                            CheckpointFile::full(t as u64 + 1, seq, img.clone(), Bytes::new());
                        if op < 2 {
                            h.commit(&file).unwrap();
                        } else {
                            h.commit_write_behind(&file).unwrap();
                        }
                        truth[t] = Some(img);
                    }
                    // Ack the oldest parked drain (the deferred-truncation
                    // mark-dead path); superseded drains may have been
                    // dropped, so consult the hierarchy's own queue.
                    4 => {
                        if let Some(&s) = h.pending_remote_seqs().first() {
                            h.ack_remote(s).unwrap();
                        }
                    }
                    5 => {
                        h.compact().unwrap();
                    }
                    6 => {
                        h.try_reclaim_all();
                    }
                    // Pinned readers observe byte-identical images across a
                    // concurrent compaction + reclamation attempt.
                    7 => {
                        let pins = h.pin_readers();
                        let before: Vec<Option<Snapshot>> = (0..2)
                            .map(|t| {
                                truth[t].as_ref().map(|_| {
                                    h.recover_job(2, t as u64 + 1).unwrap().snapshot
                                })
                            })
                            .collect();
                        h.compact().unwrap();
                        h.try_reclaim_all();
                        for (t, want) in before.iter().enumerate() {
                            if let Some(want) = want {
                                let got = h.recover_job(2, t as u64 + 1).unwrap().snapshot;
                                prop_assert_eq!(&got, want, "pinned reader tenant {} diverged", t);
                            }
                        }
                        h.unpin_readers(pins);
                    }
                    _ => unreachable!(),
                }
                // After every step, L2 serves each tenant's current image
                // byte-identically (a chunk freed under a live reference
                // would corrupt exactly this read).
                for (t, want) in truth.iter().enumerate() {
                    if let Some(want) = want {
                        let got = h.recover_job(2, t as u64 + 1).unwrap().snapshot;
                        prop_assert_eq!(&got, want, "tenant {} L2 image diverged", t);
                    }
                }
            }
            // Drain the queue in order, then a final compact + reclaim: both
            // tenants must be byte-identical on L2 and L3, with zero verify
            // failures anywhere.
            for s in h.pending_remote_seqs() {
                h.ack_remote(s).unwrap();
            }
            h.compact().unwrap();
            h.try_reclaim_all();
            for (t, want) in truth.iter().enumerate() {
                if let Some(want) = want {
                    for level in [2, 3] {
                        let got = h.recover_job(level, t as u64 + 1).unwrap().snapshot;
                        prop_assert_eq!(&got, want, "tenant {} L{} final image", t, level);
                    }
                }
            }
            let stats = h.dedup_stats().unwrap();
            prop_assert_eq!(stats[0].verify_failures, 0);
            prop_assert_eq!(stats[1].verify_failures, 0);
        }
    }
}
