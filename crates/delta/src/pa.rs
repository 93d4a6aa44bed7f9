//! **Xdelta3-PA** — the paper's page-aligned delta compressor — plus the
//! whole-file (non-aligned) mode it is compared against in Table 3.
//!
//! Page-aligned differencing encodes *each* dirty page against its own
//! previous version (a *hot page* is a dirty page that also existed in the
//! previous checkpoint, Section IV.C). Pages without a previous version —
//! or whose delta would not actually be smaller — are stored raw. Being
//! per-page is what lets AIC's predictor estimate the compression cost at
//! page granularity and lets decompression touch only the pages it needs.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use bytes::{BufMut, Bytes, BytesMut};

use aic_memsim::{Page, PageIdx, Snapshot, PAGE_SIZE};

use crate::decode::{decode, DecodeError};
use crate::encode::{encode_into, encode_with_report, Delta, EncodeParams};
use crate::index::{SourceIndex, WeakSet};
use crate::rolling::RollingHash;
use crate::stats::EncodeReport;

/// Parameters for page-aligned encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaParams {
    /// Block size for per-page matching. The paper uses fine blocks so that
    /// small in-page edits are found; 16 bytes is the crate default.
    pub block_size: usize,
    /// Candidate probe bound per weak-hash bucket.
    pub max_probe: usize,
}

impl Default for PaParams {
    fn default() -> Self {
        PaParams {
            block_size: 16,
            max_probe: 8,
        }
    }
}

impl PaParams {
    fn encode_params(&self) -> EncodeParams {
        EncodeParams {
            block_size: self.block_size,
            max_probe: self.max_probe,
        }
    }
}

/// One cached per-page index: the exact source page version it was built
/// from, plus the prebuilt [`SourceIndex`] over that version's blocks.
///
/// Holding a [`Page`] clone pins the CoW buffer the index describes, so the
/// address can never be recycled while the entry lives — pointer equality
/// against it is an ABA-safe version check.
#[derive(Debug)]
pub struct CachedIndex {
    source: Page,
    index: SourceIndex,
}

impl CachedIndex {
    /// The prebuilt block index.
    pub fn index(&self) -> &SourceIndex {
        &self.index
    }
}

/// Cross-interval cache of per-page source indexes, shared by every worker
/// of a compressor pool.
///
/// The source of a page's delta is that page's previous checkpointed
/// version; whenever that version is unchanged since the last encode
/// (checkpoint of a page whose content was rewritten identically, repeated
/// encodes during recovery replay, benchmark steady state), the index
/// built for it is still valid and the per-page indexing pass can be
/// skipped entirely.
///
/// **Hit rule (exact, never probabilistic):** an entry is used only if the
/// cached source page equals the requested source — pointer equality on the
/// CoW buffer (O(1), the common hit) or a full byte compare (catches
/// rewritten-identical buffers). A hash shortcut would risk a collision
/// silently changing encoder output; equality cannot. Consequently a cache
/// hit is *guaranteed* to leave the wire bytes bit-identical.
///
/// **Invalidation (sharded-cache rule):** entries self-invalidate on source
/// change (the equality check fails and the entry is rebuilt in place).
/// [`SourceIndexCache::invalidate_all`] exists for state discontinuities —
/// restore/recovery rolls `prev` back to an older version wholesale, so the
/// engine drops the cache rather than trusting per-entry checks it no
/// longer needs (defense in depth, and it returns the memory). Because the
/// map is sharded, `invalidate_all` takes the shard locks one at a time and
/// is therefore **not atomic across shards**: it must only run at a
/// pipeline barrier with no encode jobs in flight (which is the only place
/// the engine calls it). A racing encode would not be *wrong* — the
/// per-entry exact-equality hit rule rejects stale entries on its own — it
/// would merely re-cache entries the barrier meant to drop.
///
/// **Contention:** the map is split into [`CACHE_SHARDS`] independently
/// locked shards keyed by a mix of the page index, so concurrent workers
/// encoding different pages land on different locks. Size and hit/miss
/// accounting live in atomics *outside* the shard locks, so
/// [`SourceIndexCache::len`], [`SourceIndexCache::heap_bytes`] and the
/// stats accessors never touch a lock — obs polling cannot stall encoders.
#[derive(Debug)]
pub struct SourceIndexCache {
    shards: [Mutex<HashMap<PageIdx, Arc<CachedIndex>>>; CACHE_SHARDS],
    len: AtomicUsize,
    heap: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Number of independently locked map shards in a [`SourceIndexCache`].
/// A small power of two: enough to spread an 8-worker pool across distinct
/// locks, small enough that `invalidate_all` stays cheap.
pub const CACHE_SHARDS: usize = 16;

impl Default for SourceIndexCache {
    fn default() -> Self {
        SourceIndexCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            len: AtomicUsize::new(0),
            heap: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl SourceIndexCache {
    /// An empty cache.
    pub fn new() -> Self {
        SourceIndexCache::default()
    }

    /// The shard holding page `idx` (Fibonacci-mixed so that the contiguous
    /// page runs a shard plan produces spread across locks).
    fn shard(&self, idx: PageIdx) -> &Mutex<HashMap<PageIdx, Arc<CachedIndex>>> {
        let mixed = idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> (64 - CACHE_SHARDS.trailing_zeros() as u64)) as usize]
    }

    /// Heap accounting charge for one entry.
    fn entry_heap(entry: &CachedIndex) -> usize {
        entry.index.heap_bytes() + PAGE_SIZE
    }

    /// Probe for a valid entry *without building on miss* — the hit half of
    /// [`SourceIndexCache::get_or_build`]. Returns `None` (counting
    /// nothing) when no valid entry exists, so callers that may bail out of
    /// encoding entirely (the match-rate probe) can defer the expensive
    /// index build until they know they need it.
    pub fn lookup(
        &self,
        idx: PageIdx,
        source: &Page,
        block_size: usize,
    ) -> Option<Arc<CachedIndex>> {
        let bs = block_size.max(4);
        let entries = self.shard(idx).lock().unwrap();
        if let Some(entry) = entries.get(&idx) {
            if entry.index.block_size() == bs
                && (entry.source.ptr_eq(source) || entry.source == *source)
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(Arc::clone(entry));
            }
        }
        None
    }

    /// Build the index for `(idx, source)` and insert it, counting a miss.
    /// The build runs outside any lock — indexing is the expensive part,
    /// and a racing duplicate build is harmless (last insert wins). Callers
    /// that already weak-hashed every source block (the match-rate probe)
    /// pass those hashes as `weaks` so the build skips that pass.
    pub fn insert_built(
        &self,
        idx: PageIdx,
        source: &Page,
        block_size: usize,
        weaks: Option<&[u32]>,
    ) -> Arc<CachedIndex> {
        let bs = block_size.max(4);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut index = SourceIndex::new();
        match weaks {
            Some(w) => index.rebuild_with_weaks(source.as_slice(), bs, w),
            None => index.rebuild(source.as_slice(), bs),
        }
        let entry = Arc::new(CachedIndex {
            source: source.clone(),
            index,
        });
        let heap = Self::entry_heap(&entry);
        let old = self
            .shard(idx)
            .lock()
            .unwrap()
            .insert(idx, Arc::clone(&entry));
        self.heap.fetch_add(heap, Ordering::Relaxed);
        match old {
            Some(old) => {
                self.heap
                    .fetch_sub(Self::entry_heap(&old), Ordering::Relaxed);
            }
            None => {
                self.len.fetch_add(1, Ordering::Relaxed);
            }
        }
        entry
    }

    /// Fetch the index for page `idx` with source version `source`,
    /// building (and caching) it on miss. See the type docs for the exact
    /// hit rule; the returned entry is shared, lock-free to use, and valid
    /// for as long as the caller holds it even if the cache moves on.
    pub fn get_or_build(&self, idx: PageIdx, source: &Page, block_size: usize) -> Arc<CachedIndex> {
        self.lookup(idx, source, block_size)
            .unwrap_or_else(|| self.insert_built(idx, source, block_size, None))
    }

    /// Drop every cached index. Called on restore/recovery: the engine's
    /// `prev` state jumps to an older version, so nothing cached about the
    /// abandoned timeline may survive. Not atomic across shards — see the
    /// invalidation rule in the type docs (barrier-only).
    pub fn invalidate_all(&self) {
        for shard in &self.shards {
            let mut entries = shard.lock().unwrap();
            for (_, entry) in entries.drain() {
                self.heap
                    .fetch_sub(Self::entry_heap(&entry), Ordering::Relaxed);
                self.len.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Drop the entry for a single page (e.g. when the page is freed).
    pub fn invalidate(&self, idx: PageIdx) {
        if let Some(entry) = self.shard(idx).lock().unwrap().remove(&idx) {
            self.heap
                .fetch_sub(Self::entry_heap(&entry), Ordering::Relaxed);
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Number of cached page indexes. Lock-free (maintained atomically at
    /// insert/remove), so pollers never contend with encoders.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True if nothing is cached. Lock-free.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit count (index reused). Lock-free.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count (index built). Lock-free.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Approximate heap footprint of the cached indexes in bytes.
    /// Lock-free (maintained atomically at insert/remove).
    pub fn heap_bytes(&self) -> usize {
        self.heap.load(Ordering::Relaxed)
    }
}

/// One page in a page-aligned delta file.
#[derive(Debug, Clone, PartialEq)]
pub enum PageRecord {
    /// Full page contents (new page, or delta would not shrink it).
    Raw {
        /// Virtual page number.
        idx: PageIdx,
        /// The complete page bytes.
        data: Bytes,
    },
    /// Delta against the same page in the previous checkpoint.
    Delta {
        /// Virtual page number.
        idx: PageIdx,
        /// Per-page delta.
        delta: Delta,
    },
}

impl PageRecord {
    /// The page number this record reconstructs.
    pub fn idx(&self) -> PageIdx {
        match self {
            PageRecord::Raw { idx, .. } | PageRecord::Delta { idx, .. } => *idx,
        }
    }

    /// On-the-wire size of this record.
    pub fn wire_len(&self) -> u64 {
        // 1 tag byte + 8-byte page index + payload
        match self {
            PageRecord::Raw { data, .. } => 9 + data.len() as u64,
            PageRecord::Delta { delta, .. } => 9 + delta.wire_len(),
        }
    }
}

/// A page-aligned delta file: the compressed payload of one incremental
/// checkpoint, ready for transmission to L2/L3.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PaDeltaFile {
    /// Per-page records, ascending page order.
    pub records: Vec<PageRecord>,
}

impl PaDeltaFile {
    /// Total wire size — the paper's delta size `ds`.
    pub fn wire_len(&self) -> u64 {
        8 + self.records.iter().map(PageRecord::wire_len).sum::<u64>()
    }

    /// Number of pages stored as deltas (vs raw).
    pub fn delta_page_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r, PageRecord::Delta { .. }))
            .count()
    }
}

/// Page-aligned encode: compress the `dirty` snapshot against `prev`.
///
/// *Hot* pages (present in `prev`) are delta-encoded; a delta that fails to
/// beat the raw page is discarded in favour of the raw bytes, so
/// `ds ≤ incremental checkpoint size + per-page overhead` always holds.
///
/// Every PA path — this serial encode, [`pa_encode_cached`], the sharded
/// and pooled variants — runs the same per-page decisions through the one
/// shard encoder ([`pa_encode_shard_cached`]), which is what makes their
/// outputs bit-identical by construction.
pub fn pa_encode(
    prev: &Snapshot,
    dirty: &Snapshot,
    params: &PaParams,
) -> (PaDeltaFile, EncodeReport) {
    let shard = Shard {
        start: 0,
        end: dirty.len(),
    };
    pa_assemble(std::iter::once(pa_encode_shard_cached(
        prev, dirty, shard, params, None,
    )))
}

/// Spread segments sampled by the match-rate probe.
pub const PROBE_SEGMENTS: usize = 3;

/// Rolled windows per probe segment. Must be at least the block size so a
/// segment covers a full block-alignment cycle: if the segment's span of
/// the target is unmodified, one of its windows necessarily lines up with
/// a source block and the probe cannot miss it.
pub const PROBE_WINDOWS: usize = 128;

/// The first-N-windows match-rate probe: roll [`PROBE_WINDOWS`] windows at
/// [`PROBE_SEGMENTS`] evenly spread starting points (first segment at the
/// start of the target, last ending at its final window) and report whether
/// *any* sampled window's weak hash occurs in the source's block set,
/// short-circuiting on the first hit.
///
/// `contains` must answer exact weak-set membership over the source —
/// either `WeakSet::contains` or `!SourceIndex::candidates(w).is_empty()`,
/// which are equivalent by construction — so the verdict is a deterministic
/// function of `(source, target, block_size)` alone, independent of cache
/// state or shard boundaries. That is what keeps every PA path's bail
/// decision, and therefore their output bytes, identical.
///
/// A `false` verdict means a full scan would almost certainly end in the
/// raw fallback anyway (hot pages with *any* surviving aligned content hit
/// within one alignment cycle); bailing out skips the index build and the
/// full rolling scan, which is what makes the cold path cheaper than the
/// reference encoder even on fresh (incompressible) pages.
///
/// Segments advance **breadth-first** — one window per segment per round —
/// rather than each segment rolling to exhaustion before the next starts.
/// The verdict ("does *any* probed window hit") depends only on the set of
/// probed windows, which is identical either way; the order just moves the
/// short-circuit earlier when only one segment lands in surviving content
/// (a partially rewritten page hits within one alignment cycle ≈ `bs`
/// rounds instead of after a full segment's [`PROBE_WINDOWS`] misses).
fn probe_finds_match(target: &[u8], bs: usize, contains: impl Fn(u32) -> bool) -> bool {
    if target.len() < bs {
        return false;
    }
    let last = target.len() - bs; // last valid window start
    let spread = last.saturating_sub(PROBE_WINDOWS - 1);
    let mut pos = [0usize; PROBE_SEGMENTS];
    let mut end = [0usize; PROBE_SEGMENTS];
    let mut rolls: [RollingHash; PROBE_SEGMENTS] = std::array::from_fn(|s| {
        let start = spread * s / (PROBE_SEGMENTS - 1);
        pos[s] = start;
        end[s] = (start + PROBE_WINDOWS - 1).min(last);
        RollingHash::new(&target[start..start + bs])
    });
    // Round 0: every segment's initial window.
    for roll in &rolls {
        if contains(roll.digest()) {
            return true;
        }
    }
    // Later rounds: each unexhausted segment rolls forward one window.
    loop {
        let mut advanced = false;
        for s in 0..PROBE_SEGMENTS {
            if pos[s] < end[s] {
                let p = pos[s];
                rolls[s].roll(target[p], target[p + bs]);
                pos[s] = p + 1;
                advanced = true;
                if contains(rolls[s].digest()) {
                    return true;
                }
            }
        }
        if !advanced {
            return false;
        }
    }
}

/// Page-aligned decode: reconstruct the dirty snapshot given the previous
/// checkpoint's pages.
pub fn pa_decode(prev: &Snapshot, file: &PaDeltaFile) -> Result<Snapshot, DecodeError> {
    let mut out = Snapshot::new();
    for rec in &file.records {
        match rec {
            PageRecord::Raw { idx, data } => {
                out.insert(*idx, Page::from_bytes(data));
            }
            PageRecord::Delta { idx, delta } => {
                let old = prev.get(*idx).ok_or(DecodeError::SourceLenMismatch {
                    expected: PAGE_SIZE as u64,
                    actual: 0,
                })?;
                // A page record must rebuild exactly one page.
                if delta.target_len != PAGE_SIZE as u64 {
                    return Err(DecodeError::TargetLenMismatch {
                        expected: PAGE_SIZE as u64,
                        actual: delta.target_len,
                    });
                }
                let bytes = decode(old.as_slice(), delta)?;
                out.insert(*idx, Page::from_bytes(&bytes));
            }
        }
    }
    Ok(out)
}

/// A contiguous run of dirty-page positions (in snapshot iteration order)
/// compressed as one unit by a single worker.
///
/// Shards — not single pages — are the scheduling granule: a page encodes in
/// tens of microseconds, so per-page dispatch would drown the pool in channel
/// traffic. Contiguous runs also keep the reassembled record order identical
/// to [`pa_encode`]'s by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// First dirty-page position covered (inclusive).
    pub start: usize,
    /// One past the last dirty-page position covered.
    pub end: usize,
}

impl Shard {
    /// Number of pages in the shard.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the shard covers no pages.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Minimum pages per shard: below this, dispatch overhead beats the win
/// from overlapping compression.
pub const MIN_SHARD_PAGES: usize = 4;

/// Shards handed out per worker, for load balancing when page encode cost
/// is skewed (raw fallbacks are much cheaper than dense deltas).
pub const SHARDS_PER_WORKER: usize = 4;

/// Plan the shard decomposition of an `n_pages`-page encode across
/// `workers` workers.
///
/// Contiguous, covering, non-overlapping, sizes differing by at most one
/// page; at most `workers * SHARDS_PER_WORKER` shards and never smaller
/// than [`MIN_SHARD_PAGES`] (except when fewer pages exist in total). With
/// `workers == 1` the plan is a single shard, so a one-worker pool degrades
/// to exactly the serial encode.
pub fn plan_shards(n_pages: usize, workers: usize) -> Vec<Shard> {
    if n_pages == 0 {
        return Vec::new();
    }
    let workers = workers.max(1);
    // Capping at n/MIN keeps every shard at or above the size floor.
    let by_floor = (n_pages / MIN_SHARD_PAGES).max(1);
    let count = (workers * SHARDS_PER_WORKER).min(by_floor);
    let count = if workers == 1 { 1 } else { count };

    let base = n_pages / count;
    let extra = n_pages % count; // first `extra` shards get one more page
    let mut shards = Vec::with_capacity(count);
    let mut start = 0;
    for i in 0..count {
        let len = base + usize::from(i < extra);
        shards.push(Shard {
            start,
            end: start + len,
        });
        start += len;
    }
    debug_assert_eq!(start, n_pages);
    shards
}

/// Encode one shard: the dirty pages at positions `[shard.start, shard.end)`
/// of `dirty`'s iteration order, each against its previous version in `prev`.
///
/// Same per-page decisions as [`pa_encode`] restricted to the shard, so
/// concatenating shard outputs in shard order reproduces the serial encode
/// byte for byte (see [`pa_assemble`]). Alias for
/// [`pa_encode_shard_cached`] without a cache.
pub fn pa_encode_shard(
    prev: &Snapshot,
    dirty: &Snapshot,
    shard: Shard,
    params: &PaParams,
) -> (Vec<PageRecord>, EncodeReport) {
    pa_encode_shard_cached(prev, dirty, shard, params, None)
}

/// A record whose payload range in the shard arena is known but whose
/// `Bytes` cannot exist until the arena is frozen.
struct PendingRec {
    idx: PageIdx,
    range: Range<usize>,
    /// `Some(target_checksum)` for a delta record, `None` for raw bytes.
    delta_checksum: Option<u64>,
}

/// Reusable per-worker scratch for the shard encoder: the uncached source
/// index and the weak-hash set consulted by the match-rate probe. Pool
/// workers hold one per thread and reuse it across every shard of every
/// job, so steady-state encoding allocates nothing per page and the
/// buffers' high-water capacity is paid once per worker, not per shard.
#[derive(Debug, Default)]
pub struct ShardScratch {
    index: SourceIndex,
    weaks: WeakSet,
}

impl ShardScratch {
    /// Fresh (empty) scratch buffers.
    pub fn new() -> Self {
        ShardScratch::default()
    }
}

/// [`pa_encode_shard_scratch`] with throwaway scratch buffers — the
/// convenience form for one-shot callers. Hot paths (pool workers, the
/// parallel encode) hold a [`ShardScratch`] per thread instead.
pub fn pa_encode_shard_cached(
    prev: &Snapshot,
    dirty: &Snapshot,
    shard: Shard,
    params: &PaParams,
    cache: Option<&SourceIndexCache>,
) -> (Vec<PageRecord>, EncodeReport) {
    pa_encode_shard_scratch(prev, dirty, shard, params, cache, &mut ShardScratch::new())
}

/// The allocation-free shard encoder behind every PA path.
///
/// All page payloads — delta instruction streams and raw fallbacks — are
/// emitted into **one** `BytesMut` arena, frozen once per shard; each
/// record's `Bytes` is a zero-copy slice of that arena. (The arena itself
/// cannot be recycled across shards: the delivered records keep zero-copy
/// slices of it alive, so its memory *is* the output.) Source indexes come
/// from `cache` when provided (hitting across intervals whenever the source
/// version is unchanged) or from the scratch index reused across pages,
/// shards and jobs. Steady state allocates nothing per page: no per-call
/// hash map, no `Vec<Inst>`, no literal double-copy.
///
/// Before paying for an index build or a full rolling scan, every hot page
/// runs the match-rate probe (see [`PROBE_WINDOWS`]): if none of the
/// sampled windows' weak hashes occur in the source's block set, the page
/// is stored raw immediately — same record and report as the raw fallback
/// below, but without the index-build + scan cost that made cold encodes of
/// incompressible pages slower than the reference encoder. The verdict
/// depends only on `(source, target, block_size)`, so cached and uncached
/// paths always agree.
///
/// A delta that fails to beat the raw page is *rewound* — the arena is
/// truncated back to the record start and the raw bytes are appended
/// instead — so the failed attempt costs no memory either.
pub fn pa_encode_shard_scratch(
    prev: &Snapshot,
    dirty: &Snapshot,
    shard: Shard,
    params: &PaParams,
    cache: Option<&SourceIndexCache>,
    scratch: &mut ShardScratch,
) -> (Vec<PageRecord>, EncodeReport) {
    let ep = params.encode_params();
    let bs = ep.block_size.max(4);
    let mut total = EncodeReport::default();
    let mut pending: Vec<PendingRec> = Vec::with_capacity(shard.len());
    let mut arena = BytesMut::with_capacity(shard.len() * (PAGE_SIZE / 4) + 64);

    for (idx, page) in dirty.iter().skip(shard.start).take(shard.len()) {
        let Some(old) = prev.get(idx) else {
            // New page: no previous version to difference against.
            let start = arena.len();
            arena.put_slice(page.as_slice());
            pending.push(PendingRec {
                idx,
                range: start..arena.len(),
                delta_checksum: None,
            });
            total.merge(&EncodeReport {
                target_bytes: PAGE_SIZE as u64,
                literal_bytes: PAGE_SIZE as u64,
                delta_bytes: PAGE_SIZE as u64,
                pages: 1,
                ..Default::default()
            });
            continue;
        };

        // Hold the cache entry (if any) only as long as the encode.
        let entry = cache.and_then(|c| c.lookup(idx, old, bs));
        let feasible = match &entry {
            // A prebuilt index answers the probe directly.
            Some(e) => {
                probe_finds_match(page.as_slice(), bs, |w| !e.index().candidates(w).is_empty())
            }
            // No index yet: the weak set costs a fraction of a full build
            // (no strong hashes, no table) and answers identically.
            None => {
                scratch.weaks.rebuild(old.as_slice(), bs);
                let weaks = &scratch.weaks;
                probe_finds_match(page.as_slice(), bs, |w| weaks.contains(w))
            }
        };
        if !feasible {
            // Bail: store raw without building an index or scanning. Same
            // record and report as the raw fallback below, so the only
            // observable difference is the time saved.
            let start = arena.len();
            arena.put_slice(page.as_slice());
            pending.push(PendingRec {
                idx,
                range: start..arena.len(),
                delta_checksum: None,
            });
            total.merge(&EncodeReport {
                source_bytes: PAGE_SIZE as u64,
                target_bytes: PAGE_SIZE as u64,
                literal_bytes: PAGE_SIZE as u64,
                delta_bytes: PAGE_SIZE as u64,
                pages: 1,
                ..Default::default()
            });
            continue;
        }

        // On a cache miss or the uncached path, the probe above just
        // weak-hashed every source block — hand those hashes to the index
        // build so it only pays the strong-hash and table passes.
        let (range, checksum, mut report) = match cache {
            Some(c) => {
                let entry = entry.unwrap_or_else(|| {
                    c.insert_built(idx, old, bs, Some(scratch.weaks.block_weaks()))
                });
                encode_into(
                    old.as_slice(),
                    page.as_slice(),
                    entry.index(),
                    &ep,
                    &mut arena,
                )
            }
            None => {
                scratch
                    .index
                    .rebuild_with_weaks(old.as_slice(), bs, scratch.weaks.block_weaks());
                encode_into(
                    old.as_slice(),
                    page.as_slice(),
                    &scratch.index,
                    &ep,
                    &mut arena,
                )
            }
        };
        if report.delta_bytes < PAGE_SIZE as u64 {
            pending.push(PendingRec {
                idx,
                range,
                delta_checksum: Some(checksum),
            });
        } else {
            // Delta did not pay off: rewind the arena over the
            // failed attempt and store the raw page (paper keeps
            // the incremental page as-is in this case).
            report.delta_bytes = PAGE_SIZE as u64;
            report.literal_bytes = PAGE_SIZE as u64;
            report.matched_bytes = 0;
            arena.truncate(range.start);
            let start = arena.len();
            arena.put_slice(page.as_slice());
            pending.push(PendingRec {
                idx,
                range: start..arena.len(),
                delta_checksum: None,
            });
        }
        total.merge(&report);
    }

    // One freeze per shard; every record shares the arena allocation.
    let frozen = arena.freeze();
    let records = pending
        .into_iter()
        .map(|rec| match rec.delta_checksum {
            Some(target_checksum) => PageRecord::Delta {
                idx: rec.idx,
                delta: Delta {
                    source_len: PAGE_SIZE as u64,
                    target_len: PAGE_SIZE as u64,
                    target_checksum,
                    payload: frozen.slice(rec.range),
                },
            },
            None => PageRecord::Raw {
                idx: rec.idx,
                data: frozen.slice(rec.range),
            },
        })
        .collect();
    (records, total)
}

/// Serial page-aligned encode through the cache: identical output to
/// [`pa_encode`], but source indexes are fetched from (and stored into)
/// `cache` and payloads share one arena.
pub fn pa_encode_cached(
    prev: &Snapshot,
    dirty: &Snapshot,
    params: &PaParams,
    cache: &SourceIndexCache,
) -> (PaDeltaFile, EncodeReport) {
    let shard = Shard {
        start: 0,
        end: dirty.len(),
    };
    pa_assemble(std::iter::once(pa_encode_shard_cached(
        prev,
        dirty,
        shard,
        params,
        Some(cache),
    )))
}

/// Reassemble shard outputs — supplied in shard order — into the final
/// delta file and report, identical to what [`pa_encode`] produces.
pub fn pa_assemble(
    parts: impl IntoIterator<Item = (Vec<PageRecord>, EncodeReport)>,
) -> (PaDeltaFile, EncodeReport) {
    let mut file = PaDeltaFile::default();
    let mut total = EncodeReport::default();
    for (records, report) in parts {
        total.merge(&report);
        file.records.extend(records);
    }
    total.delta_bytes = file.wire_len();
    (file, total)
}

/// Parallel page-aligned encode: identical output to [`pa_encode`], with
/// shard compression fanned out over `workers` OS threads.
///
/// The paper dedicates a *single* spare core to compression; this is the
/// natural multi-core extension (its Section VI hints at "more aggressive
/// compression" being affordable) — page-aligned differencing is
/// embarrassingly parallel precisely because every page is encoded against
/// only its own previous version. Work is partitioned by [`plan_shards`]
/// and threads pull shards from a shared cursor (cheap work stealing), but
/// results are written back by shard position, so the output order is the
/// page order regardless of completion order.
pub fn pa_encode_parallel_with(
    prev: &Snapshot,
    dirty: &Snapshot,
    params: &PaParams,
    workers: usize,
) -> (PaDeltaFile, EncodeReport) {
    pa_encode_parallel_cached(prev, dirty, params, workers, None)
}

/// How many encode threads and shards a parallel encode of `n_pages` under
/// a requested worker count will *actually* use.
///
/// The thread count is the requested `workers` clamped to the shard count
/// (no idle threads) and to the machine's available parallelism — spawning
/// eight encode threads on one core buys nothing but context-switch and
/// contention overhead, which is exactly the anti-scaling the pool sweep
/// used to show. The shard plan itself stays keyed by the *requested*
/// worker count so outputs and deterministic obs counters (`pool.shards`)
/// are machine-independent; only the thread fan-out adapts to the host.
///
/// Returns `(threads, shards)`. `threads == 1` means the caller should
/// encode inline (single full-range shard) rather than spawn at all.
pub fn effective_parallel_plan(n_pages: usize, workers: usize) -> (usize, usize) {
    let shards = plan_shards(n_pages, workers).len();
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = workers.max(1).min(shards.max(1)).min(hw);
    if threads <= 1 {
        (1, 1)
    } else {
        (threads, shards)
    }
}

/// [`pa_encode_parallel_with`] with an optional shared [`SourceIndexCache`]
/// consulted (and warmed) by every worker thread.
pub fn pa_encode_parallel_cached(
    prev: &Snapshot,
    dirty: &Snapshot,
    params: &PaParams,
    workers: usize,
    cache: Option<&SourceIndexCache>,
) -> (PaDeltaFile, EncodeReport) {
    let (threads, _) = effective_parallel_plan(dirty.len(), workers);
    if threads <= 1 {
        // One effective thread: skip thread spawn, shared slots, and shard
        // bookkeeping entirely. Shard concatenation is associative, so one
        // full-range shard produces bit-identical output to any shard plan.
        let shard = Shard {
            start: 0,
            end: dirty.len(),
        };
        return pa_assemble(std::iter::once(pa_encode_shard_cached(
            prev, dirty, shard, params, cache,
        )));
    }

    type ShardSlot = Mutex<Option<(Vec<PageRecord>, EncodeReport)>>;
    let shards = plan_shards(dirty.len(), workers);
    let cursor = AtomicUsize::new(0);
    // Per-slot mutexes: a worker finishing shard i touches only slot i, so
    // result write-back never contends with other workers (the old single
    // Mutex<Vec<..>> serialized every write-back behind one lock).
    let slots: Vec<ShardSlot> = (0..shards.len()).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = ShardScratch::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&shard) = shards.get(i) else { break };
                    let part =
                        pa_encode_shard_scratch(prev, dirty, shard, params, cache, &mut scratch);
                    *slots[i].lock().unwrap() = Some(part);
                }
            });
        }
    });

    let parts = slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every shard encoded"));
    pa_assemble(parts)
}

/// [`pa_encode_parallel_with`] using all available CPUs.
pub fn pa_encode_parallel(
    prev: &Snapshot,
    dirty: &Snapshot,
    params: &PaParams,
) -> (PaDeltaFile, EncodeReport) {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    pa_encode_parallel_with(prev, dirty, params, workers)
}

/// Whole-file (non-page-aligned) delta: the stand-in for stock **Xdelta3**.
///
/// Source = concatenation of every page in `prev`; target = concatenation of
/// the dirty pages. Finds cross-page matches PA cannot, but provides no
/// per-page cost visibility — which is why the paper builds PA despite
/// comparable compression (Table 3).
pub fn full_encode(
    prev: &Snapshot,
    dirty: &Snapshot,
    params: &EncodeParams,
) -> (Delta, EncodeReport) {
    let mut source = Vec::with_capacity(prev.len() * PAGE_SIZE);
    for (_, page) in prev.iter() {
        source.extend_from_slice(page.as_slice());
    }
    let mut target = Vec::with_capacity(dirty.len() * PAGE_SIZE);
    for (_, page) in dirty.iter() {
        target.extend_from_slice(page.as_slice());
    }
    let (delta, mut report) = encode_with_report(&source, &target, params);
    report.pages = dirty.len() as u64;
    (delta, report)
}

/// Whole-file decode: reconstruct the dirty snapshot (page indices are taken
/// from `indices`, which must match the encode-time dirty set order).
pub fn full_decode(
    prev: &Snapshot,
    delta: &Delta,
    indices: &[PageIdx],
) -> Result<Snapshot, DecodeError> {
    let mut source = Vec::with_capacity(prev.len() * PAGE_SIZE);
    for (_, page) in prev.iter() {
        source.extend_from_slice(page.as_slice());
    }
    let bytes = decode(&source, delta)?;
    if bytes.len() != indices.len() * PAGE_SIZE {
        return Err(DecodeError::TargetLenMismatch {
            expected: (indices.len() * PAGE_SIZE) as u64,
            actual: bytes.len() as u64,
        });
    }
    let mut out = Snapshot::new();
    for (i, &idx) in indices.iter().enumerate() {
        out.insert(
            idx,
            Page::from_bytes(&bytes[i * PAGE_SIZE..(i + 1) * PAGE_SIZE]),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_page(rng: &mut StdRng) -> Page {
        let mut buf = vec![0u8; PAGE_SIZE];
        rng.fill(&mut buf[..]);
        Page::from_bytes(&buf)
    }

    fn mutated(page: &Page, from: usize, to: usize, rng: &mut StdRng) -> Page {
        let mut bytes = page.as_slice().to_vec();
        for b in &mut bytes[from..to] {
            *b = rng.gen();
        }
        Page::from_bytes(&bytes)
    }

    #[test]
    fn hot_pages_are_delta_encoded() {
        let mut rng = StdRng::seed_from_u64(1);
        let p0 = random_page(&mut rng);
        let prev = Snapshot::from_pages([(0, p0.clone())]);
        let p0_new = mutated(&p0, 0, 256, &mut rng); // 6% changed
        let dirty = Snapshot::from_pages([(0, p0_new.clone())]);

        let (file, report) = pa_encode(&prev, &dirty, &PaParams::default());
        assert_eq!(file.delta_page_count(), 1);
        assert!(report.delta_bytes < PAGE_SIZE as u64 / 2);
        let restored = pa_decode(&prev, &file).unwrap();
        assert_eq!(restored.get(0).unwrap(), &p0_new);
    }

    #[test]
    fn delta_record_that_rebuilds_a_non_page_is_an_error() {
        // A self-consistent delta (length and checksum agree) whose target
        // is 10 bytes, not a page: decoding it would panic building the
        // page, so it must be rejected up front.
        let mut rng = StdRng::seed_from_u64(4);
        let p0 = random_page(&mut rng);
        let prev = Snapshot::from_pages([(0, p0.clone())]);
        let delta = crate::encode::encode(p0.as_slice(), b"0123456789", &EncodeParams::default());
        assert_eq!(decode(p0.as_slice(), &delta).unwrap(), b"0123456789");
        let file = PaDeltaFile {
            records: vec![PageRecord::Delta { idx: 0, delta }],
        };
        assert_eq!(
            pa_decode(&prev, &file),
            Err(DecodeError::TargetLenMismatch {
                expected: PAGE_SIZE as u64,
                actual: 10,
            })
        );
    }

    #[test]
    fn new_pages_are_stored_raw() {
        let mut rng = StdRng::seed_from_u64(2);
        let prev = Snapshot::new();
        let dirty = Snapshot::from_pages([(5, random_page(&mut rng))]);
        let (file, report) = pa_encode(&prev, &dirty, &PaParams::default());
        assert_eq!(file.delta_page_count(), 0);
        assert_eq!(report.literal_bytes, PAGE_SIZE as u64);
        let restored = pa_decode(&prev, &file).unwrap();
        assert_eq!(restored, dirty);
    }

    #[test]
    fn incompressible_page_falls_back_to_raw() {
        let mut rng = StdRng::seed_from_u64(3);
        let old = random_page(&mut rng);
        let new = random_page(&mut rng); // completely unrelated
        let prev = Snapshot::from_pages([(0, old)]);
        let dirty = Snapshot::from_pages([(0, new.clone())]);
        let (file, _) = pa_encode(&prev, &dirty, &PaParams::default());
        assert_eq!(file.delta_page_count(), 0);
        assert!(file.wire_len() <= PAGE_SIZE as u64 + 32);
        assert_eq!(pa_decode(&prev, &file).unwrap().get(0).unwrap(), &new);
    }

    #[test]
    fn mixed_file_roundtrips() {
        let mut rng = StdRng::seed_from_u64(4);
        let pages: Vec<Page> = (0..8).map(|_| random_page(&mut rng)).collect();
        let prev = Snapshot::from_pages(
            pages
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, p)| (i as u64, p)),
        );
        let mut dirty = Snapshot::new();
        dirty.insert(0, mutated(&pages[0], 0, 64, &mut rng)); // hot, small edit
        dirty.insert(3, random_page(&mut rng)); // hot, full rewrite
        dirty.insert(100, random_page(&mut rng)); // new page
        let (file, _) = pa_encode(&prev, &dirty, &PaParams::default());
        assert_eq!(pa_decode(&prev, &file).unwrap(), dirty);
    }

    #[test]
    fn identical_page_shrinks_to_almost_nothing() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = random_page(&mut rng);
        let prev = Snapshot::from_pages([(0, p.clone())]);
        let dirty = Snapshot::from_pages([(0, p)]);
        let (file, report) = pa_encode(&prev, &dirty, &PaParams::default());
        assert!(file.wire_len() < 64, "wire={}", file.wire_len());
        assert!(report.ratio() < 0.02);
    }

    #[test]
    fn full_encode_roundtrips() {
        let mut rng = StdRng::seed_from_u64(6);
        let pages: Vec<Page> = (0..6).map(|_| random_page(&mut rng)).collect();
        let prev = Snapshot::from_pages(
            pages
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, p)| (i as u64, p)),
        );
        let mut dirty = Snapshot::new();
        dirty.insert(1, mutated(&pages[1], 100, 300, &mut rng));
        dirty.insert(4, mutated(&pages[4], 0, 50, &mut rng));
        let (delta, report) = full_encode(&prev, &dirty, &EncodeParams::default());
        assert!(report.matched_bytes > 0);
        let indices: Vec<_> = dirty.indices().collect();
        let restored = full_decode(&prev, &delta, &indices).unwrap();
        assert_eq!(restored, dirty);
    }

    #[test]
    fn full_encode_finds_cross_page_duplication() {
        // A page whose content equals a *different* page of prev: PA cannot
        // compress it (indexes differ) but the whole-file codec can.
        let mut rng = StdRng::seed_from_u64(7);
        let p = random_page(&mut rng);
        let prev = Snapshot::from_pages([(0, p.clone())]);
        let dirty = Snapshot::from_pages([(9, p.clone())]); // same bytes, new index
        let (pa_file, _) = pa_encode(&prev, &dirty, &PaParams::default());
        let (full, _) = full_encode(&prev, &dirty, &EncodeParams::default());
        assert!(full.wire_len() < 64);
        assert!(pa_file.wire_len() >= PAGE_SIZE as u64);
    }

    #[test]
    fn parallel_encode_is_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(44);
        let pages: Vec<Page> = (0..32).map(|_| random_page(&mut rng)).collect();
        let prev = Snapshot::from_pages(
            pages
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, p)| (i as u64, p)),
        );
        let mut dirty = Snapshot::new();
        for i in (0..32).step_by(3) {
            dirty.insert(i as u64, mutated(&pages[i], 0, 200 + i * 10, &mut rng));
        }
        dirty.insert(100, random_page(&mut rng)); // fresh page

        let (serial, serial_report) = pa_encode(&prev, &dirty, &PaParams::default());
        for workers in [1, 2, 4, 8] {
            let (parallel, parallel_report) =
                pa_encode_parallel_with(&prev, &dirty, &PaParams::default(), workers);
            assert_eq!(serial, parallel, "workers={workers}");
            assert_eq!(serial_report, parallel_report, "workers={workers}");
            assert_eq!(pa_decode(&prev, &parallel).unwrap(), dirty);
        }
        let (auto, auto_report) = pa_encode_parallel(&prev, &dirty, &PaParams::default());
        assert_eq!(serial, auto);
        assert_eq!(serial_report, auto_report);
    }

    #[test]
    fn shard_plan_is_contiguous_covering_and_balanced() {
        for n_pages in [0usize, 1, 3, 4, 5, 17, 64, 257, 1000] {
            for workers in [1usize, 2, 3, 4, 8, 64] {
                let shards = plan_shards(n_pages, workers);
                if n_pages == 0 {
                    assert!(shards.is_empty());
                    continue;
                }
                // Contiguous cover of [0, n_pages).
                assert_eq!(shards[0].start, 0);
                assert_eq!(shards.last().unwrap().end, n_pages);
                for w in shards.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                // Balanced: sizes differ by at most one page.
                let min = shards.iter().map(Shard::len).min().unwrap();
                let max = shards.iter().map(Shard::len).max().unwrap();
                assert!(
                    max - min <= 1,
                    "n={n_pages} w={workers} min={min} max={max}"
                );
                // Bounded fan-out and shard-size floor.
                assert!(shards.len() <= workers * SHARDS_PER_WORKER);
                if shards.len() > 1 {
                    assert!(min >= MIN_SHARD_PAGES.min(n_pages));
                }
            }
        }
    }

    #[test]
    fn single_worker_plan_is_one_shard() {
        // N=1 must reproduce the serial path exactly: one shard, no split.
        let shards = plan_shards(1000, 1);
        assert_eq!(
            shards,
            vec![Shard {
                start: 0,
                end: 1000
            }]
        );
    }

    #[test]
    fn sharded_encode_assembles_to_serial_output() {
        let mut rng = StdRng::seed_from_u64(45);
        let pages: Vec<Page> = (0..24).map(|_| random_page(&mut rng)).collect();
        let prev = Snapshot::from_pages(
            pages
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, p)| (i as u64, p)),
        );
        let mut dirty = Snapshot::new();
        for (i, page) in pages.iter().enumerate() {
            dirty.insert(i as u64, mutated(page, 0, 32 + i * 7, &mut rng));
        }

        let (serial, serial_report) = pa_encode(&prev, &dirty, &PaParams::default());
        let shards = plan_shards(dirty.len(), 4);
        assert!(shards.len() > 1);
        let parts: Vec<_> = shards
            .iter()
            .map(|&s| pa_encode_shard(&prev, &dirty, s, &PaParams::default()))
            .collect();
        let (assembled, assembled_report) = pa_assemble(parts);
        assert_eq!(serial, assembled);
        assert_eq!(serial_report, assembled_report);
    }

    #[test]
    fn cached_encode_is_bit_identical_and_hits_on_unchanged_source() {
        let mut rng = StdRng::seed_from_u64(60);
        let pages: Vec<Page> = (0..12).map(|_| random_page(&mut rng)).collect();
        let prev = Snapshot::from_pages(
            pages
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, p)| (i as u64, p)),
        );
        let mut dirty = Snapshot::new();
        for (i, page) in pages.iter().enumerate() {
            dirty.insert(i as u64, mutated(page, 0, 64 + i * 13, &mut rng));
        }
        dirty.insert(50, random_page(&mut rng)); // new page: no index needed

        let cache = SourceIndexCache::new();
        let (serial, serial_report) = pa_encode(&prev, &dirty, &PaParams::default());
        let (cached, cached_report) = pa_encode_cached(&prev, &dirty, &PaParams::default(), &cache);
        assert_eq!(serial, cached);
        assert_eq!(serial_report, cached_report);
        assert_eq!(cache.misses(), 12, "one build per hot page");
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 12);

        // Same prev, same dirty: every hot page hits, output unchanged.
        let (again, again_report) = pa_encode_cached(&prev, &dirty, &PaParams::default(), &cache);
        assert_eq!(serial, again);
        assert_eq!(serial_report, again_report);
        assert_eq!(cache.hits(), 12);
        assert_eq!(cache.misses(), 12);
    }

    #[test]
    fn cache_rebuilds_when_source_version_changes() {
        let mut rng = StdRng::seed_from_u64(61);
        let p_v1 = random_page(&mut rng);
        let p_v2 = mutated(&p_v1, 100, 200, &mut rng);
        let target = mutated(&p_v2, 3000, 3100, &mut rng);

        let cache = SourceIndexCache::new();
        let prev1 = Snapshot::from_pages([(0, p_v1.clone())]);
        let dirty = Snapshot::from_pages([(0, target.clone())]);
        let (f1, _) = pa_encode_cached(&prev1, &dirty, &PaParams::default(), &cache);
        assert_eq!(cache.misses(), 1);

        // Source rolled forward: stale entry must not be consulted.
        let prev2 = Snapshot::from_pages([(0, p_v2.clone())]);
        let (f2, _) = pa_encode_cached(&prev2, &dirty, &PaParams::default(), &cache);
        assert_eq!(cache.misses(), 2, "version change forces a rebuild");
        let (expect2, _) = pa_encode(&prev2, &dirty, &PaParams::default());
        assert_eq!(f2, expect2);
        assert_eq!(pa_decode(&prev2, &f2).unwrap(), dirty);
        // And the two encodes genuinely differ (different sources).
        assert_ne!(f1, f2);

        // A rewritten-identical source (new buffer, same bytes) still hits.
        let prev2_copy = Snapshot::from_pages([(0, Page::from_bytes(p_v2.as_slice()))]);
        let hits_before = cache.hits();
        let (f3, _) = pa_encode_cached(&prev2_copy, &dirty, &PaParams::default(), &cache);
        assert_eq!(cache.hits(), hits_before + 1, "content-equal source hits");
        assert_eq!(f3, expect2);
    }

    #[test]
    fn stale_index_never_consulted_after_rollback() {
        // Simulates the engine's recovery barrier: the previous-state
        // mirror rolls FORWARD to v2 (cache warms against v2), then a
        // recovery rolls it BACK to v1. A stale v2 index must never serve
        // the post-rollback encode — with invalidation (the engine's
        // behaviour) and even without it (the equality check is the
        // backstop).
        let mut rng = StdRng::seed_from_u64(65);
        let v1 = random_page(&mut rng);
        let v2 = mutated(&v1, 0, 2048, &mut rng);
        let dirty = Snapshot::from_pages([(0, mutated(&v1, 3000, 3200, &mut rng))]);
        let prev_v2 = Snapshot::from_pages([(0, v2)]);
        let prev_v1 = Snapshot::from_pages([(0, v1)]); // rollback target
        let (oracle, oracle_report) = pa_encode(&prev_v1, &dirty, &PaParams::default());

        // Path 1: engine behaviour — invalidate at the rollback barrier.
        let cache = SourceIndexCache::new();
        let _ = pa_encode_cached(&prev_v2, &dirty, &PaParams::default(), &cache);
        assert_eq!(cache.len(), 1, "warm v2 entry");
        cache.invalidate_all();
        let (file, report) = pa_encode_cached(&prev_v1, &dirty, &PaParams::default(), &cache);
        assert_eq!(file, oracle);
        assert_eq!(report, oracle_report);
        assert_eq!(cache.hits(), 0, "nothing stale was ever served");

        // Path 2: defense in depth — even WITHOUT invalidation, the v2
        // entry fails the exact source-equality check and is rebuilt.
        let cache = SourceIndexCache::new();
        let _ = pa_encode_cached(&prev_v2, &dirty, &PaParams::default(), &cache);
        let (file, report) = pa_encode_cached(&prev_v1, &dirty, &PaParams::default(), &cache);
        assert_eq!(file, oracle);
        assert_eq!(report, oracle_report);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2, "stale entry rejected, index rebuilt");
    }

    #[test]
    fn invalidate_all_clears_and_forces_rebuild() {
        let mut rng = StdRng::seed_from_u64(62);
        let p = random_page(&mut rng);
        let prev = Snapshot::from_pages([(0, p.clone())]);
        let dirty = Snapshot::from_pages([(0, mutated(&p, 0, 50, &mut rng))]);

        let cache = SourceIndexCache::new();
        let _ = pa_encode_cached(&prev, &dirty, &PaParams::default(), &cache);
        assert_eq!(cache.len(), 1);
        cache.invalidate_all();
        assert!(cache.is_empty());
        let (file, _) = pa_encode_cached(&prev, &dirty, &PaParams::default(), &cache);
        assert_eq!(cache.misses(), 2, "post-invalidation encode rebuilds");
        let (expect, _) = pa_encode(&prev, &dirty, &PaParams::default());
        assert_eq!(file, expect);
    }

    #[test]
    fn parallel_cached_encode_matches_serial_across_widths() {
        let mut rng = StdRng::seed_from_u64(63);
        let pages: Vec<Page> = (0..40).map(|_| random_page(&mut rng)).collect();
        let prev = Snapshot::from_pages(
            pages
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, p)| (i as u64, p)),
        );
        let mut dirty = Snapshot::new();
        for (i, page) in pages.iter().enumerate() {
            // Mix of small edits, rewrites (raw fallback), and untouched-copy.
            let p = match i % 3 {
                0 => mutated(page, 0, 100, &mut rng),
                1 => random_page(&mut rng),
                _ => page.clone(),
            };
            dirty.insert(i as u64, p);
        }

        let (serial, serial_report) = pa_encode(&prev, &dirty, &PaParams::default());
        for workers in [1, 2, 4, 8] {
            let cache = SourceIndexCache::new();
            for round in 0..2 {
                let (parallel, parallel_report) = pa_encode_parallel_cached(
                    &prev,
                    &dirty,
                    &PaParams::default(),
                    workers,
                    Some(&cache),
                );
                assert_eq!(serial, parallel, "workers={workers} round={round}");
                assert_eq!(serial_report, parallel_report);
            }
            // Round two ran entirely from cache (identical dirty set).
            assert_eq!(cache.hits(), cache.misses(), "workers={workers}");
        }
    }

    #[test]
    fn raw_fallback_rewind_keeps_neighbouring_records_intact() {
        // A shard mixing [compressible, incompressible, compressible] pages
        // exercises the arena truncate-and-append rewind between records.
        let mut rng = StdRng::seed_from_u64(64);
        let pages: Vec<Page> = (0..3).map(|_| random_page(&mut rng)).collect();
        let prev = Snapshot::from_pages(
            pages
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, p)| (i as u64, p)),
        );
        let mut dirty = Snapshot::new();
        dirty.insert(0, mutated(&pages[0], 0, 64, &mut rng));
        dirty.insert(1, random_page(&mut rng)); // unrelated: raw fallback
        dirty.insert(2, mutated(&pages[2], 2000, 2100, &mut rng));

        let shard = Shard { start: 0, end: 3 };
        let (records, report) =
            pa_encode_shard_cached(&prev, &dirty, shard, &PaParams::default(), None);
        assert!(matches!(records[0], PageRecord::Delta { .. }));
        assert!(matches!(records[1], PageRecord::Raw { .. }));
        assert!(matches!(records[2], PageRecord::Delta { .. }));
        let (expect_records, expect_report) = pa_encode(&prev, &dirty, &PaParams::default());
        let (file, _) = pa_assemble(std::iter::once((records, report)));
        assert_eq!(file, expect_records);
        assert_eq!(
            {
                let mut r = report;
                r.delta_bytes = file.wire_len();
                r
            },
            expect_report
        );
        assert_eq!(pa_decode(&prev, &file).unwrap(), dirty);
    }

    #[test]
    fn probe_bail_stores_raw_without_building_index() {
        // An incompressible hot page must be stored raw WITHOUT the cache
        // ever building (or even counting) an index: the match-rate probe
        // bails before the build, which is the whole cold-path fix.
        let mut rng = StdRng::seed_from_u64(70);
        let old = random_page(&mut rng);
        let new = random_page(&mut rng); // unrelated content: zero matches
        let prev = Snapshot::from_pages([(0, old)]);
        let dirty = Snapshot::from_pages([(0, new.clone())]);

        let cache = SourceIndexCache::new();
        let (file, report) = pa_encode_cached(&prev, &dirty, &PaParams::default(), &cache);
        assert_eq!(cache.misses(), 0, "bail must skip the index build");
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 0);
        assert_eq!(file.delta_page_count(), 0);
        assert_eq!(report.matched_bytes, 0);
        assert_eq!(report.source_bytes, PAGE_SIZE as u64, "hot page, not new");
        assert_eq!(pa_decode(&prev, &file).unwrap().get(0).unwrap(), &new);
    }

    #[test]
    fn probe_bail_is_identical_across_every_encode_path() {
        // The bail verdict is a pure function of (source, target,
        // block_size), so serial/cached/parallel at any width must produce
        // the same bytes AND the same report for a bailing mix.
        let mut rng = StdRng::seed_from_u64(71);
        let pages: Vec<Page> = (0..20).map(|_| random_page(&mut rng)).collect();
        let prev = Snapshot::from_pages(
            pages
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, p)| (i as u64, p)),
        );
        let mut dirty = Snapshot::new();
        for (i, page) in pages.iter().enumerate() {
            let p = match i % 3 {
                0 => random_page(&mut rng),           // bails (no matches)
                1 => mutated(page, 0, 256, &mut rng), // compresses
                _ => page.clone(),                    // compresses to nothing
            };
            dirty.insert(i as u64, p);
        }

        let (serial, serial_report) = pa_encode(&prev, &dirty, &PaParams::default());
        let cache = SourceIndexCache::new();
        let (cached, cached_report) = pa_encode_cached(&prev, &dirty, &PaParams::default(), &cache);
        assert_eq!(serial, cached);
        assert_eq!(serial_report, cached_report);
        for workers in [1, 2, 4, 8] {
            let (par, par_report) = pa_encode_parallel_cached(
                &prev,
                &dirty,
                &PaParams::default(),
                workers,
                Some(&cache),
            );
            assert_eq!(serial, par, "workers={workers}");
            assert_eq!(serial_report, par_report, "workers={workers}");
        }
        assert_eq!(pa_decode(&prev, &serial).unwrap(), dirty);
    }

    #[test]
    fn cache_len_and_heap_accounting_survive_insert_and_invalidate() {
        let mut rng = StdRng::seed_from_u64(72);
        let cache = SourceIndexCache::new();
        let pages: Vec<Page> = (0..9).map(|_| random_page(&mut rng)).collect();
        for (i, p) in pages.iter().enumerate() {
            cache.insert_built(i as u64, p, 16, None);
        }
        assert_eq!(cache.len(), 9);
        assert_eq!(cache.misses(), 9);
        let heap_full = cache.heap_bytes();
        assert!(heap_full > 9 * PAGE_SIZE, "heap accounts index + page pin");

        // Replacing an entry must not double-count it.
        cache.insert_built(0, &random_page(&mut rng), 16, None);
        assert_eq!(cache.len(), 9, "replacement keeps len");

        cache.invalidate(3);
        assert_eq!(cache.len(), 8);
        assert!(cache.heap_bytes() < heap_full);
        cache.invalidate(3); // double-invalidate is a no-op
        assert_eq!(cache.len(), 8);

        cache.invalidate_all();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.heap_bytes(), 0, "all heap accounting returned");
        assert!(cache.is_empty());
    }

    #[test]
    fn effective_plan_clamps_threads_and_preserves_shard_plan() {
        for n_pages in [0usize, 1, 8, 64, 1024] {
            for workers in [1usize, 2, 4, 8] {
                let (threads, shards) = effective_parallel_plan(n_pages, workers);
                assert!(threads >= 1);
                assert!(threads <= workers.max(1));
                let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
                assert!(threads <= hw.max(1));
                if threads == 1 {
                    assert_eq!(shards, 1, "inline path is a single shard");
                } else {
                    // Shard plan stays keyed by the REQUESTED worker count
                    // so outputs and obs counters are machine-independent.
                    assert_eq!(shards, plan_shards(n_pages, workers).len());
                }
            }
        }
    }

    #[test]
    fn pa_decode_missing_source_page_errors() {
        let mut rng = StdRng::seed_from_u64(8);
        let p = random_page(&mut rng);
        let prev = Snapshot::from_pages([(0, p.clone())]);
        let dirty = Snapshot::from_pages([(0, mutated(&p, 0, 10, &mut rng))]);
        let (file, _) = pa_encode(&prev, &dirty, &PaParams::default());
        let empty = Snapshot::new();
        assert!(pa_decode(&empty, &file).is_err());
    }
}
