//! Append-only checkpoint log with segment rotation, compaction, and
//! epoch-based reclamation.
//!
//! The per-object stores of [`crate::storage`] answer "where is checkpoint
//! N?" with a name-keyed map, so truncating a superseded chain deletes
//! whole objects one name at a time. This module layers a WAL-style log
//! over any [`Store`]: checkpoint records (full anchors and delta links,
//! still framed by [`crate::format`]) are appended to fixed-capacity
//! **segments** (`seg-00000042` objects in the backing store), each record
//! wrapped in a 25-byte header carrying its sequence number, kind tag,
//! payload length, and an FNV-1a checksum. Superseding a record marks it
//! *dead* in the in-memory index; the bytes stay on disk until a
//! **compaction** pass copies the surviving records into fresh segments
//! and retires the old ones.
//!
//! Retired segments are not freed immediately: a recovery reader that is
//! mid-chain holds a **pin** on the log's epoch, and [`CheckpointLog::try_reclaim`]
//! only frees segments whose retire epoch predates every live pin. The
//! protocol is the classic epoch-based reclamation triple:
//!
//! 1. reader: `pin()` → walk record locations → `unpin()`;
//! 2. compactor: copy live records, retire old segments *at the current
//!    epoch*, then `advance()`;
//! 3. anyone: `try_reclaim()` frees retired segments with
//!    `retire_epoch < min(pinned epochs)`.
//!
//! A pinned reader therefore never observes a segment freed under it: the
//! segment it can reach was retired at an epoch ≥ its pin.
//!
//! Crash-consistency model: the log's logical state (index + segment
//! metadata) lives beside the store and is exported via
//! [`CheckpointLog::manifest_bytes`]; [`CheckpointLog::reopen`] re-attaches
//! it to a store and re-validates every segment against its manifest
//! length, scanning a short tail for torn records (partial final write)
//! and dropping index entries that point past the last intact frame.

use std::collections::BTreeMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use aic_delta::strong::fnv1a;
use aic_obs::MetricsRegistry;

use crate::format::CheckpointKind;
use crate::storage::{Receipt, Store};

/// Record-frame magic: "AILR" (AIC Log Record).
const RECORD_MAGIC: [u8; 4] = *b"AILR";
/// Manifest magic: "AILM" (AIC Log Manifest).
const MANIFEST_MAGIC: [u8; 4] = *b"AILM";
/// Record header: magic(4) + seq(8) + kind(1) + payload_len(4) + crc(8).
pub const RECORD_HEADER_BYTES: usize = 25;
/// Manifest format version.
const MANIFEST_VERSION: u32 = 1;

/// Default segment capacity used by the storage hierarchy: large enough
/// that a quick-scale run seals a handful of segments, small enough that
/// compaction has segments to retire.
pub const DEFAULT_SEGMENT_CAPACITY: usize = 4 << 20;

/// Where a record lives: segment id + byte offset + framed length.
///
/// A `RecordLoc` stays valid for as long as its segment is physically
/// present — in particular, a pinned reader may keep using locations into
/// *retired* segments until it unpins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordLoc {
    /// Segment id (the `seg-{id:08}` object).
    pub segment: u64,
    /// Byte offset of the record frame inside the segment.
    pub offset: usize,
    /// Framed length: header + payload.
    pub len: usize,
}

/// Errors surfaced by the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// A live record could not be read back (segment missing or checksum
    /// mismatch); compaction aborts without changing anything.
    Unreadable(u64),
    /// The injected crash point fired mid-compaction: the partially
    /// written output segments are orphans awaiting reclamation and the
    /// logical index is untouched.
    CompactionCrashed,
    /// A frame or manifest failed structural validation.
    Corrupt(&'static str),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Unreadable(seq) => write!(f, "record {seq} unreadable"),
            LogError::CompactionCrashed => write!(f, "crash injected mid-compaction"),
            LogError::Corrupt(what) => write!(f, "corrupt {what}"),
        }
    }
}

impl std::error::Error for LogError {}

/// Encode one record frame: header + payload.
pub fn encode_record(seq: u64, kind: CheckpointKind, payload: &Bytes) -> Bytes {
    let mut b = BytesMut::with_capacity(RECORD_HEADER_BYTES + payload.len());
    put_record(&mut b, seq, kind, payload);
    b.freeze()
}

/// Append one record frame to `b`.
fn put_record(b: &mut BytesMut, seq: u64, kind: CheckpointKind, payload: &Bytes) {
    b.put_slice(&RECORD_MAGIC);
    b.put_u64_le(seq);
    b.put_u8(kind.tag());
    b.put_u32_le(payload.len() as u32);
    b.put_u64_le(fnv1a(payload));
    b.put_slice(payload);
}

/// A record frame decoded back out of a segment.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedRecord {
    /// Sequence number from the header.
    pub seq: u64,
    /// Payload kind.
    pub kind: CheckpointKind,
    /// The payload bytes (checksum already verified).
    pub payload: Bytes,
    /// Total framed length consumed.
    pub frame_len: usize,
}

/// Decode the record frame starting at `buf[offset..]`. Fails on torn
/// tails (frame extends past the buffer), bad magic, unknown kind tags,
/// and checksum mismatches — exactly the checks the reopen scan relies on
/// to find the last intact record.
pub fn decode_record(buf: &Bytes, offset: usize) -> Result<DecodedRecord, LogError> {
    if buf.len() < offset + RECORD_HEADER_BYTES {
        return Err(LogError::Corrupt("torn record header"));
    }
    let mut h = buf.slice(offset..offset + RECORD_HEADER_BYTES);
    let mut magic = [0u8; 4];
    h.copy_to_slice(&mut magic);
    if magic != RECORD_MAGIC {
        return Err(LogError::Corrupt("record magic"));
    }
    let seq = h.get_u64_le();
    let kind = CheckpointKind::from_tag(h.get_u8()).ok_or(LogError::Corrupt("record kind"))?;
    let payload_len = h.get_u32_le() as usize;
    let crc = h.get_u64_le();
    let start = offset + RECORD_HEADER_BYTES;
    if buf.len() < start + payload_len {
        return Err(LogError::Corrupt("torn record payload"));
    }
    let payload = buf.slice(start..start + payload_len);
    if fnv1a(&payload) != crc {
        return Err(LogError::Corrupt("record checksum"));
    }
    Ok(DecodedRecord {
        seq,
        kind,
        payload,
        frame_len: RECORD_HEADER_BYTES + payload_len,
    })
}

/// Per-segment bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SegMeta {
    /// Logical byte length (sum of framed records).
    len: usize,
    /// Records ever appended.
    records: u64,
    /// Records still live.
    live_records: u64,
    /// Framed bytes of the live records.
    live_bytes: u64,
    /// Sealed segments accept no further appends.
    sealed: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexEntry {
    loc: RecordLoc,
    kind: CheckpointKind,
    live: bool,
}

/// A retired segment awaiting epoch-safe reclamation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Retired {
    segment: u64,
    retire_epoch: u64,
}

/// `log.*` observability counters.
#[derive(Debug, Clone)]
struct LogObs {
    appends: aic_obs::Counter,
    append_bytes: aic_obs::Counter,
    seals: aic_obs::Counter,
    compactions: aic_obs::Counter,
    records_copied: aic_obs::Counter,
    segments_reclaimed: aic_obs::Counter,
    bytes_reclaimed: aic_obs::Counter,
    torn_records_dropped: aic_obs::Counter,
}

impl LogObs {
    fn attach(metrics: &MetricsRegistry) -> Self {
        LogObs {
            appends: metrics.counter("log.appends"),
            append_bytes: metrics.counter("log.append_bytes"),
            seals: metrics.counter("log.segments_sealed"),
            compactions: metrics.counter("log.compactions"),
            records_copied: metrics.counter("log.records_copied"),
            segments_reclaimed: metrics.counter("log.segments_reclaimed"),
            bytes_reclaimed: metrics.counter("log.bytes_reclaimed"),
            torn_records_dropped: metrics.counter("log.torn_records_dropped"),
        }
    }
}

/// Point-in-time log statistics (the `aicctl log` surface).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogStats {
    /// Segments currently addressable (active + sealed, not retired).
    pub segments: u64,
    /// Retired segments not yet reclaimed.
    pub retired_segments: u64,
    /// Records ever appended to addressable segments.
    pub records: u64,
    /// Records still live.
    pub live_records: u64,
    /// Framed bytes of the live records.
    pub live_bytes: u64,
    /// Physical bytes in the backing store (includes retired segments and,
    /// for RAID backings, parity and padding).
    pub stored_bytes: u64,
    /// Current reclamation epoch.
    pub epoch: u64,
    /// Live reader pins.
    pub pins: u64,
    /// Dead-byte fraction of the addressable segments (0.0 when empty).
    pub garbage_ratio: f64,
}

/// An append-only checkpoint log over any [`Store`].
///
/// Billing discipline: every mutation returns the backing store's
/// [`Receipt`], so the log inherits the level's bandwidth model — appends
/// bill only the appended frames, one store write per segment a call
/// touches (RAID backings bill the touched stripe rows), reads bill the
/// record's share of its segment, and compaction bills the full copy
/// traffic it generates.
#[derive(Debug, Clone)]
pub struct CheckpointLog<S: Store> {
    store: S,
    seg_capacity: usize,
    /// Addressable segments: the active one plus sealed ones.
    segments: BTreeMap<u64, SegMeta>,
    /// Retired segments: physically present until reclaimed.
    retired: Vec<Retired>,
    /// seq → location/liveness. Dead entries are dropped at compaction.
    index: BTreeMap<u64, IndexEntry>,
    active: u64,
    next_segment: u64,
    epoch: u64,
    pins: BTreeMap<u64, u64>,
    next_pin: u64,
    /// Records dropped by torn-tail detection at the last reopen.
    torn_dropped: u64,
    obs: Option<LogObs>,
}

impl<S: Store> CheckpointLog<S> {
    /// A fresh log over `store` with the given segment capacity.
    pub fn new(store: S, seg_capacity: usize) -> Self {
        assert!(seg_capacity > RECORD_HEADER_BYTES);
        let mut segments = BTreeMap::new();
        segments.insert(0, SegMeta::empty());
        CheckpointLog {
            store,
            seg_capacity,
            segments,
            retired: Vec::new(),
            index: BTreeMap::new(),
            active: 0,
            next_segment: 1,
            epoch: 0,
            pins: BTreeMap::new(),
            next_pin: 0,
            torn_dropped: 0,
            obs: None,
        }
    }

    /// Register the `log.*` counters on `metrics`.
    pub fn attach_obs(&mut self, metrics: &MetricsRegistry) {
        self.obs = Some(LogObs::attach(metrics));
    }

    /// The backing store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable access to the backing store (fault injection).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    fn seg_name(id: u64) -> String {
        format!("seg-{id:08}")
    }

    /// Append a record, rotating the active segment when the frame does
    /// not fit. Returns where it landed and the store's transfer receipt.
    pub fn append(
        &mut self,
        seq: u64,
        kind: CheckpointKind,
        payload: &Bytes,
    ) -> (RecordLoc, Receipt) {
        self.append_frame(seq, kind, encode_record(seq, kind, payload))
    }

    /// Append an already-encoded frame (the write-behind drain ships the
    /// exact framed bytes it queued). The header must decode and match
    /// `seq`/`kind`; this is debug-asserted, not re-verified on release.
    pub fn append_frame(
        &mut self,
        seq: u64,
        kind: CheckpointKind,
        frame: Bytes,
    ) -> (RecordLoc, Receipt) {
        debug_assert!(matches!(
            decode_record(&frame, 0),
            Ok(DecodedRecord { seq: s, kind: k, .. }) if s == seq && k == kind
        ));
        let need = frame.len();
        let (locs, receipt) = self.append_frames(frame, &[(seq, kind, need)]);
        (locs[0], receipt)
    }

    /// Append several records as one commit: each lands exactly where
    /// [`CheckpointLog::append`] would put it (same rotation points, same
    /// [`RecordLoc`]s, same segment bytes), but the frames bound for one
    /// segment go to the store in a single write. The receipt therefore
    /// bills one transfer per segment touched, not one per record.
    pub fn append_batch<'a>(
        &mut self,
        records: impl IntoIterator<Item = (u64, CheckpointKind, &'a Bytes)>,
    ) -> (Vec<RecordLoc>, Receipt) {
        let mut frames = BytesMut::new();
        let mut heads = Vec::new();
        for (seq, kind, payload) in records {
            heads.push((seq, kind, RECORD_HEADER_BYTES + payload.len()));
            put_record(&mut frames, seq, kind, payload);
        }
        self.append_frames(frames.freeze(), &heads)
    }

    /// Place the frames laid end to end in `frames` (`heads[i]` is the
    /// seq, kind and framed length of the i-th), rotating the active
    /// segment when a frame does not fit, and write each segment's run of
    /// frames with one store append. Returns the locations and the summed
    /// receipt.
    fn append_frames(
        &mut self,
        frames: Bytes,
        heads: &[(u64, CheckpointKind, usize)],
    ) -> (Vec<RecordLoc>, Receipt) {
        let mut locs = Vec::with_capacity(heads.len());
        let mut total = Receipt {
            bytes: 0,
            seconds: 0.0,
        };
        // `frames[run..pos]` is bound for the active segment.
        let (mut run, mut pos) = (0, 0);
        for &(seq, kind, need) in heads {
            let active_len = self.segments[&self.active].len;
            if active_len > 0 && active_len + need > self.seg_capacity {
                self.write_run(&frames, run..pos, &mut total);
                run = pos;
                self.seal_active();
            }
            let meta = self.segments.get_mut(&self.active).expect("active meta");
            let loc = RecordLoc {
                segment: self.active,
                offset: meta.len,
                len: need,
            };
            meta.len += need;
            meta.records += 1;
            meta.live_records += 1;
            meta.live_bytes += need as u64;
            self.index.insert(
                seq,
                IndexEntry {
                    loc,
                    kind,
                    live: true,
                },
            );
            if let Some(obs) = &self.obs {
                obs.appends.inc();
                obs.append_bytes.add(need as u64);
            }
            locs.push(loc);
            pos += need;
        }
        self.write_run(&frames, run..pos, &mut total);
        (locs, total)
    }

    /// Append `frames[range]` to the active segment (nothing if empty).
    fn write_run(&mut self, frames: &Bytes, range: std::ops::Range<usize>, total: &mut Receipt) {
        if range.is_empty() {
            return;
        }
        let r = self
            .store
            .append(&Self::seg_name(self.active), frames.slice(range));
        total.bytes += r.bytes;
        total.seconds += r.seconds;
    }

    fn seal_active(&mut self) {
        self.segments
            .get_mut(&self.active)
            .expect("active meta")
            .sealed = true;
        let id = self.next_segment;
        self.next_segment += 1;
        self.segments.insert(id, SegMeta::empty());
        self.active = id;
        if let Some(obs) = &self.obs {
            obs.seals.inc();
        }
    }

    /// Location of a live record.
    pub fn loc_of(&self, seq: u64) -> Option<RecordLoc> {
        let e = self.index.get(&seq)?;
        e.live.then_some(e.loc)
    }

    /// Kind tag of a live record.
    pub fn kind_of(&self, seq: u64) -> Option<CheckpointKind> {
        let e = self.index.get(&seq)?;
        e.live.then_some(e.kind)
    }

    /// Live sequence numbers, ascending.
    pub fn live_seqs(&self) -> Vec<u64> {
        self.index
            .iter()
            .filter(|(_, e)| e.live)
            .map(|(s, _)| *s)
            .collect()
    }

    /// Read a live record's payload (checksum-verified). `None` if the
    /// frame at its location carries a different sequence number.
    pub fn read(&self, seq: u64) -> Option<Bytes> {
        let r = self.decode_at(self.loc_of(seq)?)?;
        (r.seq == seq).then_some(r.payload)
    }

    /// Read the payload at an explicit location — the pinned-reader path:
    /// the location stays valid for retired-but-unreclaimed segments, which
    /// is exactly what the epoch pin guarantees. Returns `None` if the
    /// segment is gone or the frame fails validation.
    pub fn read_at(&self, loc: RecordLoc) -> Option<Bytes> {
        self.decode_at(loc).map(|r| r.payload)
    }

    /// Read exactly the `loc.len` bytes at `loc` and decode them as one
    /// whole frame; a frame of any other length means the location points
    /// somewhere else.
    fn decode_at(&self, loc: RecordLoc) -> Option<DecodedRecord> {
        let frame = self
            .store
            .read_range(&Self::seg_name(loc.segment), loc.offset, loc.len)?;
        let r = decode_record(&frame, 0).ok()?;
        (r.frame_len == loc.len).then_some(r)
    }

    /// Simulated cost of reading a live record: the record's proportional
    /// share of its segment's read receipt, so a degraded RAID backing
    /// charges its reconstruction premium on log reads too.
    pub fn read_receipt(&self, seq: u64) -> Option<Receipt> {
        let loc = self.loc_of(seq)?;
        self.read_receipt_at(loc)
    }

    /// [`CheckpointLog::read_receipt`] for an explicit location.
    pub fn read_receipt_at(&self, loc: RecordLoc) -> Option<Receipt> {
        let seg = self.store.read_receipt(&Self::seg_name(loc.segment))?;
        let seg_len = self.store.object_len(&Self::seg_name(loc.segment))?;
        if seg_len == 0 {
            return None;
        }
        let share = loc.len as f64 / seg_len as f64;
        Some(Receipt {
            bytes: (seg.bytes as f64 * share).ceil() as u64,
            seconds: seg.seconds * share,
        })
    }

    /// Mark a record dead (logically deleted). Returns true if it was
    /// live. The bytes remain until compaction rewrites the segment.
    pub fn mark_dead(&mut self, seq: u64) -> bool {
        let Some(e) = self.index.get_mut(&seq) else {
            return false;
        };
        if !e.live {
            return false;
        }
        e.live = false;
        let loc = e.loc;
        if let Some(meta) = self.segments.get_mut(&loc.segment) {
            meta.live_records -= 1;
            meta.live_bytes -= loc.len as u64;
        }
        true
    }

    /// Mark every record with sequence `< seq` dead. Returns the count
    /// and framed bytes newly marked — the GC accounting the hierarchy
    /// reports through its `storage.gc_*` counters.
    pub fn mark_dead_before(&mut self, seq: u64) -> (u64, u64) {
        let doomed: Vec<u64> = self
            .index
            .range(..seq)
            .filter(|(_, e)| e.live)
            .map(|(s, _)| *s)
            .collect();
        let mut bytes = 0u64;
        for s in &doomed {
            let len = self.index[s].loc.len as u64;
            self.mark_dead(*s);
            bytes += len;
        }
        (doomed.len() as u64, bytes)
    }

    /// Dead-byte fraction of the addressable segments.
    pub fn garbage_ratio(&self) -> f64 {
        let total: u64 = self.segments.values().map(|m| m.len as u64).sum();
        if total == 0 {
            return 0.0;
        }
        let live: u64 = self.segments.values().map(|m| m.live_bytes).sum();
        (total - live) as f64 / total as f64
    }

    /// Pin the current epoch; the returned id must be passed to
    /// [`CheckpointLog::unpin`]. While pinned, no segment retired at or
    /// after this epoch is reclaimed, so every [`RecordLoc`] observed
    /// after the pin stays readable.
    pub fn pin(&mut self) -> u64 {
        let id = self.next_pin;
        self.next_pin += 1;
        self.pins.insert(id, self.epoch);
        id
    }

    /// Release a pin.
    pub fn unpin(&mut self, pin: u64) {
        self.pins.remove(&pin);
    }

    /// Advance the reclamation epoch (compaction does this after retiring
    /// the segments it superseded).
    pub fn advance(&mut self) {
        self.epoch += 1;
    }

    /// Free retired segments whose retire epoch predates every live pin.
    /// Returns `(segments, physical bytes)` reclaimed.
    pub fn try_reclaim(&mut self) -> (u64, u64) {
        let safe = self.pins.values().min().copied().unwrap_or(self.epoch);
        let mut segs = 0u64;
        let mut bytes = 0u64;
        self.retired.retain(|r| {
            if r.retire_epoch < safe {
                let name = Self::seg_name(r.segment);
                if let Some(len) = self.store.object_len(&name) {
                    bytes += len as u64;
                }
                self.store.delete(&name);
                segs += 1;
                false
            } else {
                true
            }
        });
        if segs > 0 {
            if let Some(obs) = &self.obs {
                obs.segments_reclaimed.add(segs);
                obs.bytes_reclaimed.add(bytes);
            }
        }
        (segs, bytes)
    }

    /// Copy every live record into fresh segments, retire the old ones at
    /// the current epoch, and advance. Dead index entries are dropped.
    ///
    /// `crash_after` injects a crash after that many record copies: the
    /// partially written output segments become retired orphans (reclaimed
    /// once safe) and the logical index is untouched, so recovery reads
    /// the exact same bytes it would have before the pass started.
    ///
    /// The receipt bills the copy traffic (reads of the live records plus
    /// appends into the new segments). If any live record is unreadable
    /// the pass aborts with [`LogError::Unreadable`] and changes nothing.
    pub fn compact(&mut self, crash_after: Option<usize>) -> Result<Receipt, LogError> {
        let live: Vec<u64> = self.live_seqs();
        // Read phase: everything must be intact before we move anything.
        let mut records = Vec::with_capacity(live.len());
        let mut total = Receipt {
            bytes: 0,
            seconds: 0.0,
        };
        for &seq in &live {
            let loc = self.loc_of(seq).expect("live seq has loc");
            let payload = self.read_at(loc).ok_or(LogError::Unreadable(seq))?;
            if let Some(r) = self.read_receipt_at(loc) {
                total.bytes += r.bytes;
                total.seconds += r.seconds;
            }
            records.push((seq, self.index[&seq].kind, payload));
        }

        // Write phase: fresh segments, ids after every existing one.
        let mut out_segs: Vec<u64> = Vec::new();
        let mut out_meta: BTreeMap<u64, SegMeta> = BTreeMap::new();
        let mut out_index: BTreeMap<u64, IndexEntry> = BTreeMap::new();
        let mut copied = 0usize;
        let mut crashed = false;
        for (seq, kind, payload) in &records {
            if crash_after == Some(copied) {
                crashed = true;
                break;
            }
            let frame = encode_record(*seq, *kind, payload);
            let need = frame.len();
            let cur = out_segs.last().copied();
            let start_new = match cur {
                None => true,
                Some(id) => {
                    let len = out_meta[&id].len;
                    len > 0 && len + need > self.seg_capacity
                }
            };
            let id = if start_new {
                let id = self.next_segment;
                self.next_segment += 1;
                out_segs.push(id);
                out_meta.insert(id, SegMeta::empty());
                id
            } else {
                cur.expect("have segment")
            };
            let loc = RecordLoc {
                segment: id,
                offset: out_meta[&id].len,
                len: need,
            };
            let r = self.store.append(&Self::seg_name(id), frame);
            total.bytes += r.bytes;
            total.seconds += r.seconds;
            let meta = out_meta.get_mut(&id).expect("out meta");
            meta.len += need;
            meta.records += 1;
            meta.live_records += 1;
            meta.live_bytes += need as u64;
            out_index.insert(
                *seq,
                IndexEntry {
                    loc,
                    kind: *kind,
                    live: true,
                },
            );
            copied += 1;
        }

        if crashed {
            // The torn output segments are orphans: physically present,
            // logically unreachable. Queue them for epoch-safe cleanup and
            // leave the addressable log exactly as it was.
            for id in out_segs {
                self.retired.push(Retired {
                    segment: id,
                    retire_epoch: self.epoch,
                });
            }
            self.advance();
            return Err(LogError::CompactionCrashed);
        }

        // Swap: retire every old segment at the current epoch, install the
        // new map, and open a fresh active segment for future appends.
        for (&id, _) in self.segments.iter() {
            self.retired.push(Retired {
                segment: id,
                retire_epoch: self.epoch,
            });
        }
        self.segments = out_meta;
        self.index = out_index;
        let active = self.next_segment;
        self.next_segment += 1;
        self.segments.insert(active, SegMeta::empty());
        self.active = active;
        // Output segments are sealed; only the fresh one accepts appends.
        for id in &out_segs {
            self.segments.get_mut(id).expect("out seg").sealed = true;
        }
        self.advance();
        if let Some(obs) = &self.obs {
            obs.compactions.inc();
            obs.records_copied.add(copied as u64);
        }
        Ok(total)
    }

    /// Wipe the log: delete every physical segment (addressable and
    /// retired) and reset the logical state to a fresh active segment.
    /// Failure injection, not GC — pins are ignored and cleared.
    pub fn wipe(&mut self) {
        for &id in self.segments.keys() {
            self.store.delete(&Self::seg_name(id));
        }
        for r in &self.retired {
            self.store.delete(&Self::seg_name(r.segment));
        }
        self.retired.clear();
        self.segments.clear();
        self.index.clear();
        self.pins.clear();
        let id = self.next_segment;
        self.next_segment += 1;
        self.segments.insert(id, SegMeta::empty());
        self.active = id;
    }

    /// Current statistics.
    pub fn stats(&self) -> LogStats {
        LogStats {
            segments: self.segments.len() as u64,
            retired_segments: self.retired.len() as u64,
            records: self.segments.values().map(|m| m.records).sum(),
            live_records: self.segments.values().map(|m| m.live_records).sum(),
            live_bytes: self.segments.values().map(|m| m.live_bytes).sum(),
            stored_bytes: self.store.stored_bytes(),
            epoch: self.epoch,
            pins: self.pins.len() as u64,
            garbage_ratio: self.garbage_ratio(),
        }
    }

    /// Serialize the logical state (segment map + index + epochs) to a
    /// side-channel manifest. This is the metadata a real deployment would
    /// keep in the log superblock; here it lives beside the store so that
    /// segment objects hold nothing but record frames.
    pub fn manifest_bytes(&self) -> Bytes {
        let mut b = BytesMut::new();
        b.put_slice(&MANIFEST_MAGIC);
        b.put_u32_le(MANIFEST_VERSION);
        b.put_u64_le(self.epoch);
        b.put_u64_le(self.next_segment);
        b.put_u64_le(self.active);
        b.put_u32_le(self.seg_capacity as u32);
        b.put_u32_le(self.segments.len() as u32);
        for (&id, m) in &self.segments {
            b.put_u64_le(id);
            b.put_u64_le(m.len as u64);
            b.put_u64_le(m.records);
            b.put_u8(m.sealed as u8);
        }
        b.put_u32_le(self.retired.len() as u32);
        for r in &self.retired {
            b.put_u64_le(r.segment);
            b.put_u64_le(r.retire_epoch);
        }
        let entries: Vec<_> = self.index.iter().collect();
        b.put_u32_le(entries.len() as u32);
        for (&seq, e) in entries {
            b.put_u64_le(seq);
            b.put_u64_le(e.loc.segment);
            b.put_u64_le(e.loc.offset as u64);
            b.put_u32_le(e.loc.len as u32);
            b.put_u8(e.kind.tag());
            b.put_u8(e.live as u8);
        }
        b.freeze()
    }

    /// Re-attach a manifest to a store, validating every segment: a
    /// segment shorter than its manifest length (or with a torn/corrupt
    /// tail) is truncated to its last intact record and the index entries
    /// pointing past the cut are dropped. This is the crash-recovery open
    /// path; pins never survive a reopen.
    pub fn reopen(store: S, manifest: &Bytes) -> Result<Self, LogError> {
        let mut m = manifest.clone();
        if m.len() < 4 + 4 + 8 + 8 + 8 + 4 + 4 {
            return Err(LogError::Corrupt("manifest header"));
        }
        let mut magic = [0u8; 4];
        m.copy_to_slice(&mut magic);
        if magic != MANIFEST_MAGIC {
            return Err(LogError::Corrupt("manifest magic"));
        }
        if m.get_u32_le() != MANIFEST_VERSION {
            return Err(LogError::Corrupt("manifest version"));
        }
        let epoch = m.get_u64_le();
        let next_segment = m.get_u64_le();
        let active = m.get_u64_le();
        let seg_capacity = m.get_u32_le() as usize;
        let nsegs = m.get_u32_le() as usize;
        let mut segments = BTreeMap::new();
        for _ in 0..nsegs {
            if m.remaining() < 8 + 8 + 8 + 1 {
                return Err(LogError::Corrupt("manifest segment"));
            }
            let id = m.get_u64_le();
            let len = m.get_u64_le() as usize;
            let records = m.get_u64_le();
            let sealed = m.get_u8() != 0;
            segments.insert(
                id,
                SegMeta {
                    len,
                    records,
                    live_records: 0,
                    live_bytes: 0,
                    sealed,
                },
            );
        }
        if m.remaining() < 4 {
            return Err(LogError::Corrupt("manifest retired count"));
        }
        let nretired = m.get_u32_le() as usize;
        let mut retired = Vec::with_capacity(nretired);
        for _ in 0..nretired {
            if m.remaining() < 16 {
                return Err(LogError::Corrupt("manifest retired"));
            }
            retired.push(Retired {
                segment: m.get_u64_le(),
                retire_epoch: m.get_u64_le(),
            });
        }
        if m.remaining() < 4 {
            return Err(LogError::Corrupt("manifest index count"));
        }
        let nindex = m.get_u32_le() as usize;
        let mut index = BTreeMap::new();
        for _ in 0..nindex {
            if m.remaining() < 8 + 8 + 8 + 4 + 1 + 1 {
                return Err(LogError::Corrupt("manifest index entry"));
            }
            let seq = m.get_u64_le();
            let segment = m.get_u64_le();
            let offset = m.get_u64_le() as usize;
            let len = m.get_u32_le() as usize;
            let kind =
                CheckpointKind::from_tag(m.get_u8()).ok_or(LogError::Corrupt("manifest kind"))?;
            let live = m.get_u8() != 0;
            index.insert(
                seq,
                IndexEntry {
                    loc: RecordLoc {
                        segment,
                        offset,
                        len,
                    },
                    kind,
                    live,
                },
            );
        }

        let mut log = CheckpointLog {
            store,
            seg_capacity,
            segments,
            retired,
            index,
            active,
            next_segment,
            epoch,
            pins: BTreeMap::new(),
            next_pin: 0,
            torn_dropped: 0,
            obs: None,
        };
        log.validate_tails();
        log.rebuild_live_counts();
        Ok(log)
    }

    /// Torn-tail detection: walk each addressable segment's frames from
    /// the front and truncate the logical length at the first frame that
    /// fails to decode (torn header, torn payload, bad checksum). Index
    /// entries pointing past the cut are dropped.
    fn validate_tails(&mut self) {
        let ids: Vec<u64> = self.segments.keys().copied().collect();
        let mut dropped = 0u64;
        for id in ids {
            let manifest_len = self.segments[&id].len;
            let seg = self
                .store
                .get(&Self::seg_name(id))
                .unwrap_or_else(Bytes::new);
            let mut good = 0usize;
            let mut records = 0u64;
            while good < manifest_len {
                match decode_record(&seg, good) {
                    Ok(r) => {
                        good += r.frame_len;
                        records += 1;
                    }
                    Err(_) => break,
                }
            }
            if good < seg.len() {
                // Discard the torn bytes physically too, so the next
                // append lands exactly at the logical tail.
                self.store.put(&Self::seg_name(id), seg.slice(..good));
            }
            if good < manifest_len {
                let meta = self.segments.get_mut(&id).expect("seg meta");
                meta.len = good;
                meta.records = records;
                let doomed: Vec<u64> = self
                    .index
                    .iter()
                    .filter(|(_, e)| e.loc.segment == id && e.loc.offset + e.loc.len > good)
                    .map(|(s, _)| *s)
                    .collect();
                dropped += doomed.len() as u64;
                for s in doomed {
                    self.index.remove(&s);
                }
            }
        }
        if dropped > 0 {
            if let Some(obs) = &self.obs {
                obs.torn_records_dropped.add(dropped);
            }
        }
        self.torn_dropped = dropped;
    }

    fn rebuild_live_counts(&mut self) {
        for m in self.segments.values_mut() {
            m.live_records = 0;
            m.live_bytes = 0;
        }
        for e in self.index.values() {
            if e.live {
                if let Some(m) = self.segments.get_mut(&e.loc.segment) {
                    m.live_records += 1;
                    m.live_bytes += e.loc.len as u64;
                }
            }
        }
    }

    /// Records dropped by torn-tail detection at the last reopen.
    pub fn torn_dropped(&self) -> u64 {
        self.torn_dropped
    }
}

impl SegMeta {
    fn empty() -> Self {
        SegMeta {
            len: 0,
            records: 0,
            live_records: 0,
            live_bytes: 0,
            sealed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{BandwidthModel, FlatStore, Raid5Group};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn flat() -> FlatStore {
        FlatStore::new(BandwidthModel::new(1e6, 0.0))
    }

    fn payload(len: usize, seed: u64) -> Bytes {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = vec![0u8; len];
        rng.fill(&mut v[..]);
        Bytes::from(v)
    }

    #[test]
    fn frame_roundtrip_and_corruption_detection() {
        let p = payload(300, 1);
        let frame = encode_record(7, CheckpointKind::DeltaCompressed, &p);
        let dec = decode_record(&frame, 0).unwrap();
        assert_eq!(dec.seq, 7);
        assert_eq!(dec.kind, CheckpointKind::DeltaCompressed);
        assert_eq!(dec.payload, p);
        assert_eq!(dec.frame_len, frame.len());

        // Flip a payload byte: checksum trips.
        let mut bad = frame.to_vec();
        bad[RECORD_HEADER_BYTES + 10] ^= 0xFF;
        assert_eq!(
            decode_record(&Bytes::from(bad), 0).unwrap_err(),
            LogError::Corrupt("record checksum")
        );
        // Truncate mid-payload: torn.
        let torn = frame.slice(..frame.len() - 5);
        assert_eq!(
            decode_record(&torn, 0).unwrap_err(),
            LogError::Corrupt("torn record payload")
        );
    }

    #[test]
    fn append_read_roundtrip_and_billing() {
        let mut log = CheckpointLog::new(flat(), 1 << 16);
        let p0 = payload(500, 2);
        let p1 = payload(700, 3);
        let (_, r0) = log.append(0, CheckpointKind::Full, &p0);
        let (_, r1) = log.append(1, CheckpointKind::DeltaCompressed, &p1);
        assert_eq!(r0.bytes, 500 + RECORD_HEADER_BYTES as u64);
        assert_eq!(r1.bytes, 700 + RECORD_HEADER_BYTES as u64);
        assert_eq!(log.read(0).unwrap(), p0);
        assert_eq!(log.read(1).unwrap(), p1);
        assert_eq!(log.kind_of(1), Some(CheckpointKind::DeltaCompressed));
        assert!(log.read(2).is_none());
        // Both landed in one segment.
        assert_eq!(log.stats().segments, 1);
    }

    #[test]
    fn segments_rotate_at_capacity() {
        let mut log = CheckpointLog::new(flat(), 2048);
        for seq in 0..10 {
            log.append(seq, CheckpointKind::Incremental, &payload(500, seq));
        }
        let st = log.stats();
        assert!(st.segments > 2, "no rotation happened: {st:?}");
        for seq in 0..10 {
            assert_eq!(log.read(seq).unwrap(), payload(500, seq), "seq {seq}");
        }
    }

    #[test]
    fn oversize_record_gets_its_own_segment() {
        let mut log = CheckpointLog::new(flat(), 1024);
        log.append(0, CheckpointKind::Full, &payload(100, 10));
        let big = payload(5000, 11);
        log.append(1, CheckpointKind::Full, &big);
        log.append(2, CheckpointKind::Incremental, &payload(100, 12));
        assert_eq!(log.read(1).unwrap(), big);
        assert_eq!(log.read(2).unwrap(), payload(100, 12));
    }

    #[test]
    fn read_receipt_is_proportional_share_of_segment() {
        let mut log = CheckpointLog::new(flat(), 1 << 20);
        log.append(0, CheckpointKind::Full, &payload(975, 20)); // frame 1000
        log.append(1, CheckpointKind::Full, &payload(2975, 21)); // frame 3000
        let r0 = log.read_receipt(0).unwrap();
        let r1 = log.read_receipt(1).unwrap();
        assert_eq!(r0.bytes, 1000);
        assert_eq!(r1.bytes, 3000);
        assert!(r1.seconds > r0.seconds);
    }

    #[test]
    fn misdirected_locations_read_nothing() {
        let mut log = CheckpointLog::new(flat(), 1 << 20);
        let (loc0, _) = log.append(0, CheckpointKind::Full, &payload(500, 22));
        let (loc1, _) = log.append(1, CheckpointKind::Full, &payload(300, 23));
        log.append(2, CheckpointKind::Full, &payload(500, 24));
        // In-bounds locations whose length is not the frame's own: record
        // 1's frame is shorter than record 0's length, and record 0's
        // frame is longer than record 1's.
        let long = RecordLoc {
            len: loc0.len,
            ..loc1
        };
        let short = RecordLoc {
            len: loc1.len,
            ..loc0
        };
        assert!(log.read_at(long).is_none());
        assert!(log.read_at(short).is_none());
        // An index entry pointing at another valid record of the same
        // length: the frame decodes, but its seq is not the one asked for.
        log.index.get_mut(&2).unwrap().loc = loc0;
        assert_eq!(log.read_at(loc0).unwrap(), payload(500, 22));
        assert!(log.read(2).is_none());
        assert_eq!(log.read(0).unwrap(), payload(500, 22));
    }

    #[test]
    fn append_batch_matches_per_record_appends() {
        // Latency 1 s per store write makes the transfer count visible in
        // the receipt's seconds.
        let bw = BandwidthModel::new(1e6, 1.0);
        let sizes = [300usize, 975, 10, 2_000, 0, 1_500, 700, 700, 5_000, 40];
        let records: Vec<(u64, CheckpointKind, Bytes)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as u64, CheckpointKind::Chunk, payload(n, i as u64 + 200)))
            .collect();
        let mut single = CheckpointLog::new(FlatStore::new(bw), 2048);
        let mut batched = CheckpointLog::new(FlatStore::new(bw), 2048);
        // A record already in the active segment: the batch continues it.
        single.append(99, CheckpointKind::Full, &payload(100, 199));
        batched.append(99, CheckpointKind::Full, &payload(100, 199));
        let mut locs = Vec::new();
        for (seq, kind, p) in &records {
            locs.push(single.append(*seq, *kind, p).0);
        }
        let (batch_locs, receipt) =
            batched.append_batch(records.iter().map(|(s, k, p)| (*s, *k, p)));
        assert_eq!(batch_locs, locs);
        assert_eq!(batched.manifest_bytes(), single.manifest_bytes());
        let touched: std::collections::BTreeSet<u64> = locs.iter().map(|l| l.segment).collect();
        assert!(touched.len() > 2, "batch never rotated: {touched:?}");
        for id in 0..single.next_segment {
            let name = CheckpointLog::<FlatStore>::seg_name(id);
            assert_eq!(
                batched.store().get(&name),
                single.store().get(&name),
                "{name}"
            );
        }
        let framed: usize = locs.iter().map(|l| l.len).sum();
        assert_eq!(receipt.bytes, framed as u64);
        let transfers = touched.len() as f64 + framed as f64 / 1e6;
        assert!((receipt.seconds - transfers).abs() < 1e-9, "{receipt:?}");
        for (seq, _, p) in &records {
            assert_eq!(batched.read(*seq).unwrap(), *p);
        }
    }

    #[test]
    fn mark_dead_and_garbage_ratio() {
        let mut log = CheckpointLog::new(flat(), 1 << 20);
        for seq in 0..4 {
            log.append(seq, CheckpointKind::Incremental, &payload(975, seq));
        }
        assert_eq!(log.garbage_ratio(), 0.0);
        let (n, bytes) = log.mark_dead_before(2);
        assert_eq!(n, 2);
        assert_eq!(bytes, 2000);
        assert!((log.garbage_ratio() - 0.5).abs() < 1e-12);
        assert!(log.read(0).is_none(), "dead record still served");
        assert!(log.read(2).is_some());
        // Idempotent.
        assert_eq!(log.mark_dead_before(2), (0, 0));
        assert!(!log.mark_dead(1));
    }

    #[test]
    fn compaction_drops_dead_bytes_and_preserves_live_reads() {
        let mut store_log = CheckpointLog::new(flat(), 4096);
        for seq in 0..8 {
            store_log.append(seq, CheckpointKind::Incremental, &payload(900, seq + 30));
        }
        store_log.mark_dead_before(6);
        let before = store_log.store().stored_bytes();
        let live_before: Vec<_> = (6..8).map(|s| store_log.read(s).unwrap()).collect();

        let r = store_log.compact(None).unwrap();
        assert!(r.bytes > 0);
        // Old segments are retired, not yet freed.
        assert!(
            store_log.store().stored_bytes() > before,
            "retired freed early"
        );
        let (segs, bytes) = store_log.try_reclaim();
        assert!(segs > 0 && bytes > 0);
        assert!(
            store_log.store().stored_bytes() < before,
            "compaction did not shrink the store: {} vs {}",
            store_log.store().stored_bytes(),
            before
        );
        for (i, s) in (6..8).enumerate() {
            assert_eq!(store_log.read(s).unwrap(), live_before[i]);
        }
        assert_eq!(store_log.garbage_ratio(), 0.0);
        // The log still accepts appends afterwards.
        store_log.append(8, CheckpointKind::Full, &payload(100, 99));
        assert_eq!(store_log.read(8).unwrap(), payload(100, 99));
    }

    #[test]
    fn pinned_reader_survives_compaction_and_reclaim() {
        let mut log = CheckpointLog::new(flat(), 2048);
        for seq in 0..6 {
            log.append(seq, CheckpointKind::Incremental, &payload(700, seq + 40));
        }
        let pin = log.pin();
        let locs: Vec<RecordLoc> = (0..6).map(|s| log.loc_of(s).unwrap()).collect();
        log.mark_dead_before(5);
        log.compact(None).unwrap();
        // Reclaim with the pin held: the pinned reader's segments survive.
        let (segs, _) = log.try_reclaim();
        assert_eq!(segs, 0, "reclaimed under a live pin");
        for (s, loc) in locs.iter().enumerate() {
            assert_eq!(
                log.read_at(*loc).unwrap(),
                payload(700, s as u64 + 40),
                "pinned loc {s} unreadable"
            );
        }
        log.unpin(pin);
        let (segs, _) = log.try_reclaim();
        assert!(segs > 0, "nothing reclaimed after unpin");
        // Live record still readable through the index after reclaim.
        assert_eq!(log.read(5).unwrap(), payload(700, 45));
    }

    #[test]
    fn crash_mid_compaction_leaves_the_log_untouched() {
        let mut log = CheckpointLog::new(flat(), 4096);
        for seq in 0..6 {
            log.append(seq, CheckpointKind::Incremental, &payload(800, seq + 50));
        }
        log.mark_dead_before(2);
        let live_before: Vec<_> = (2..6).map(|s| log.read(s).unwrap()).collect();
        let stats_before = log.stats();

        for crash_at in 0..4 {
            let mut l = log.clone();
            assert_eq!(
                l.compact(Some(crash_at)).unwrap_err(),
                LogError::CompactionCrashed
            );
            // Logical state identical: same live records, same bytes.
            for (i, s) in (2..6).enumerate() {
                assert_eq!(
                    l.read(s).unwrap(),
                    live_before[i],
                    "crash@{crash_at} seq {s}"
                );
            }
            assert_eq!(l.stats().live_records, stats_before.live_records);
            // The orphaned output segments are reclaimable once no pin
            // predates the crash epoch.
            l.try_reclaim();
            assert_eq!(l.stats().retired_segments, 0);
            // And a later, uncrashed pass completes normally.
            l.compact(None).unwrap();
            l.try_reclaim();
            for (i, s) in (2..6).enumerate() {
                assert_eq!(l.read(s).unwrap(), live_before[i], "post-retry seq {s}");
            }
        }
    }

    #[test]
    fn compaction_aborts_cleanly_on_unreadable_record() {
        let mut log = CheckpointLog::new(flat(), 1 << 20);
        log.append(0, CheckpointKind::Full, &payload(500, 60));
        log.append(1, CheckpointKind::Incremental, &payload(500, 61));
        // Corrupt the segment under the log's feet.
        let seg = log.store().get("seg-00000000").unwrap();
        let mut v = seg.to_vec();
        v[RECORD_HEADER_BYTES + 3] ^= 0x55;
        log.store_mut().put("seg-00000000", Bytes::from(v));
        assert_eq!(log.compact(None).unwrap_err(), LogError::Unreadable(0));
        // Nothing moved, nothing retired.
        assert_eq!(log.stats().retired_segments, 0);
        assert_eq!(log.read(1).unwrap(), payload(500, 61));
    }

    #[test]
    fn wipe_clears_physical_and_logical_state() {
        let mut log = CheckpointLog::new(flat(), 2048);
        for seq in 0..5 {
            log.append(seq, CheckpointKind::Incremental, &payload(600, seq + 70));
        }
        log.mark_dead_before(3);
        log.compact(None).unwrap();
        log.wipe();
        assert_eq!(log.store().stored_bytes(), 0);
        assert_eq!(log.stats().live_records, 0);
        assert!(log.read(4).is_none());
        // Post-wipe appends land at offset 0 of a fresh segment.
        let (loc, _) = log.append(9, CheckpointKind::Full, &payload(100, 77));
        assert_eq!(loc.offset, 0);
        assert_eq!(log.read(9).unwrap(), payload(100, 77));
    }

    #[test]
    fn manifest_reopen_roundtrips() {
        let mut log = CheckpointLog::new(flat(), 2048);
        for seq in 0..6 {
            log.append(seq, CheckpointKind::Incremental, &payload(650, seq + 80));
        }
        log.mark_dead_before(2);
        let manifest = log.manifest_bytes();
        let reopened = CheckpointLog::reopen(log.store().clone(), &manifest).unwrap();
        assert_eq!(reopened.torn_dropped(), 0);
        assert_eq!(reopened.live_seqs(), log.live_seqs());
        for s in 2..6 {
            assert_eq!(reopened.read(s).unwrap(), log.read(s).unwrap());
        }
        assert_eq!(reopened.stats().live_bytes, log.stats().live_bytes);
    }

    #[test]
    fn torn_tail_is_detected_and_dropped_on_reopen() {
        let mut log = CheckpointLog::new(flat(), 1 << 20);
        for seq in 0..3 {
            log.append(seq, CheckpointKind::Incremental, &payload(400, seq + 90));
        }
        let manifest = log.manifest_bytes();
        // Tear the last record: the segment loses its final 100 bytes, as
        // if the node died mid-write.
        let mut store = log.store().clone();
        let seg = store.get("seg-00000000").unwrap();
        store.put("seg-00000000", seg.slice(..seg.len() - 100));

        let reopened = CheckpointLog::reopen(store, &manifest).unwrap();
        assert_eq!(reopened.torn_dropped(), 1);
        assert_eq!(reopened.live_seqs(), vec![0, 1]);
        assert_eq!(reopened.read(0).unwrap(), payload(400, 90));
        assert_eq!(reopened.read(1).unwrap(), payload(400, 91));
        assert!(reopened.read(2).is_none());
        // The log keeps working: the torn segment's tail is reused.
        let mut reopened = reopened;
        let (loc, _) = reopened.append(3, CheckpointKind::Full, &payload(100, 93));
        assert_eq!(loc.segment, 0);
        assert_eq!(reopened.read(3).unwrap(), payload(100, 93));
    }

    #[test]
    fn reopen_rejects_garbage_manifests() {
        assert!(CheckpointLog::<FlatStore>::reopen(flat(), &Bytes::from_static(b"nope")).is_err());
        let mut junk = MANIFEST_MAGIC.to_vec();
        junk.extend_from_slice(&99u32.to_le_bytes());
        junk.extend_from_slice(&[0u8; 40]);
        assert!(CheckpointLog::<FlatStore>::reopen(flat(), &Bytes::from(junk)).is_err());
    }

    #[test]
    fn raid_backed_log_survives_node_failure_and_charges_premium() {
        let raid = Raid5Group::new(4, 256, BandwidthModel::new(1e6, 0.0));
        let mut log = CheckpointLog::new(raid, 1 << 16);
        for seq in 0..4 {
            log.append(seq, CheckpointKind::Incremental, &payload(900, seq + 100));
        }
        let healthy = log.read_receipt(2).unwrap();
        log.store_mut().fail_node(1);
        for seq in 0..4 {
            assert_eq!(
                log.read(seq).unwrap(),
                payload(900, seq + 100),
                "degraded {seq}"
            );
        }
        let degraded = log.read_receipt(2).unwrap();
        assert!(
            degraded.seconds > healthy.seconds,
            "no reconstruction premium: {degraded:?} vs {healthy:?}"
        );
        log.store_mut().repair_node();
        assert_eq!(log.read(3).unwrap(), payload(900, 103));
    }

    #[test]
    fn obs_counters_track_log_activity() {
        let metrics = MetricsRegistry::new();
        let mut log = CheckpointLog::new(flat(), 2048);
        log.attach_obs(&metrics);
        for seq in 0..6 {
            log.append(seq, CheckpointKind::Incremental, &payload(700, seq));
        }
        log.mark_dead_before(4);
        log.compact(None).unwrap();
        log.try_reclaim();
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("log.appends"), Some(6));
        assert!(snap.counter("log.append_bytes").unwrap() > 6 * 700);
        assert!(snap.counter("log.segments_sealed").unwrap() > 0);
        assert_eq!(snap.counter("log.compactions"), Some(1));
        assert_eq!(snap.counter("log.records_copied"), Some(2));
        assert!(snap.counter("log.segments_reclaimed").unwrap() > 0);
        assert!(snap.counter("log.bytes_reclaimed").unwrap() > 0);
    }
}
