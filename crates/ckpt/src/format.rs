//! Checkpoint file format.
//!
//! A checkpoint file records (paper Section II.A, Fig. 1):
//!
//! * the **payload** — every resident page (full), only the dirty pages
//!   (incremental), or the page-aligned delta of the dirty pages against
//!   the previous checkpoint (delta-compressed);
//! * the **live-page set** — which pages exist at checkpoint time, so a
//!   restore can apply page frees (page C of Scenario 1);
//! * a small **CPU-state blob** (registers, linkage, descriptors) which the
//!   paper notes is a minor fraction and is never compressed;
//! * a header with job id, sequence number, kind, and an FNV checksum over
//!   the serialized body.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use aic_delta::inst::{get_varint, put_varint};
use aic_delta::pa::{PaDeltaFile, PageRecord};
use aic_delta::strong::fnv1a;
use aic_memsim::{Page, PageIdx, Snapshot, PAGE_SIZE};

/// What the payload contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// Every resident page (the very first checkpoint is always full).
    Full,
    /// Only pages dirtied since the previous checkpoint, stored raw.
    Incremental,
    /// Dirty pages delta-compressed against the previous checkpoint.
    DeltaCompressed,
    /// A content-addressed dedup chunk: one page's raw bytes, referenced by
    /// checkpoint records in the same log (see `aic_ckpt::dedup`). Chunk
    /// records hold bare page bytes, **not** a serialized
    /// [`CheckpointFile`] — [`CheckpointFile::from_bytes`] rejects the tag.
    Chunk,
}

impl CheckpointKind {
    /// Single-byte wire tag, also reused by the checkpoint log's record
    /// headers so a log scan can classify records without decoding bodies.
    pub fn tag(self) -> u8 {
        match self {
            CheckpointKind::Full => 0,
            CheckpointKind::Incremental => 1,
            CheckpointKind::DeltaCompressed => 2,
            CheckpointKind::Chunk => 3,
        }
    }

    /// Inverse of [`CheckpointKind::tag`]; `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(CheckpointKind::Full),
            1 => Some(CheckpointKind::Incremental),
            2 => Some(CheckpointKind::DeltaCompressed),
            3 => Some(CheckpointKind::Chunk),
            _ => None,
        }
    }
}

/// Payload variants.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Raw pages (full or incremental checkpoints).
    Pages(Snapshot),
    /// Page-aligned delta file (delta-compressed checkpoints).
    Delta(PaDeltaFile),
}

/// A checkpoint file, in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointFile {
    /// Job identifier.
    pub job: u64,
    /// Sequence number within the job (0 = first, always full).
    pub seq: u64,
    /// Payload kind.
    pub kind: CheckpointKind,
    /// Page payload.
    pub payload: Payload,
    /// Sorted indices of every page resident at checkpoint time.
    pub live_pages: Vec<PageIdx>,
    /// Uncompressed CPU/process state (registers, linkage, fds).
    pub cpu_state: Bytes,
}

/// File magic: "AICK".
const MAGIC: [u8; 4] = *b"AICK";

/// Bytes before the body: magic (4) + body checksum (8).
const HEADER_LEN: usize = 12;

/// Errors from [`CheckpointFile::from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Wrong magic or truncated header.
    BadHeader,
    /// Unknown kind tag or malformed section.
    Malformed,
    /// Body checksum mismatch — the file is corrupt.
    Corrupt,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader => write!(f, "bad checkpoint header"),
            ParseError::Malformed => write!(f, "malformed checkpoint body"),
            ParseError::Corrupt => write!(f, "checkpoint checksum mismatch"),
        }
    }
}

impl std::error::Error for ParseError {}

impl CheckpointFile {
    /// Construct a full checkpoint from a snapshot of all resident pages.
    pub fn full(job: u64, seq: u64, snap: Snapshot, cpu_state: Bytes) -> Self {
        let live_pages = snap.indices().collect();
        CheckpointFile {
            job,
            seq,
            kind: CheckpointKind::Full,
            payload: Payload::Pages(snap),
            live_pages,
            cpu_state,
        }
    }

    /// Construct an incremental checkpoint from the dirty-page snapshot and
    /// the live-page set at checkpoint time.
    pub fn incremental(
        job: u64,
        seq: u64,
        dirty: Snapshot,
        live_pages: Vec<PageIdx>,
        cpu_state: Bytes,
    ) -> Self {
        CheckpointFile {
            job,
            seq,
            kind: CheckpointKind::Incremental,
            payload: Payload::Pages(dirty),
            live_pages,
            cpu_state,
        }
    }

    /// Construct a delta-compressed checkpoint.
    pub fn delta(
        job: u64,
        seq: u64,
        delta: PaDeltaFile,
        live_pages: Vec<PageIdx>,
        cpu_state: Bytes,
    ) -> Self {
        CheckpointFile {
            job,
            seq,
            kind: CheckpointKind::DeltaCompressed,
            payload: Payload::Delta(delta),
            live_pages,
            cpu_state,
        }
    }

    /// Serialize to bytes (what gets written to L1 and shipped to L2/L3).
    pub fn to_bytes(&self) -> Bytes {
        self.to_bytes_with_page_spans().0
    }

    /// [`CheckpointFile::to_bytes`] plus the absolute byte offsets of every
    /// `PAGE_SIZE`-long run of verbatim page bytes in the output — the
    /// snapshot pages of a `Payload::Pages` file and the
    /// [`PageRecord::Raw`] payloads of a `Payload::Delta` file (delta
    /// instruction streams are never page-verbatim and are not reported).
    /// These spans are exactly the dedupable units the chunk store
    /// (`aic_ckpt::dedup`) extracts; the serialized bytes are identical to
    /// [`CheckpointFile::to_bytes`] by construction (same code path).
    pub fn to_bytes_with_page_spans(&self) -> (Bytes, Vec<usize>) {
        let mut spans = Vec::new();
        let mut body = BytesMut::with_capacity(1024);
        put_varint(&mut body, self.job);
        put_varint(&mut body, self.seq);
        body.put_u8(self.kind.tag());

        put_varint(&mut body, self.live_pages.len() as u64);
        let mut prev = 0u64;
        for (i, &p) in self.live_pages.iter().enumerate() {
            // Delta-encode the sorted page list.
            let d = if i == 0 { p } else { p - prev };
            put_varint(&mut body, d);
            prev = p;
        }

        put_varint(&mut body, self.cpu_state.len() as u64);
        body.put_slice(&self.cpu_state);

        match &self.payload {
            Payload::Pages(snap) => {
                body.put_u8(0);
                put_varint(&mut body, snap.len() as u64);
                for (idx, page) in snap.iter() {
                    put_varint(&mut body, idx);
                    spans.push(HEADER_LEN + body.len());
                    body.put_slice(page.as_slice());
                }
            }
            Payload::Delta(file) => {
                body.put_u8(1);
                put_varint(&mut body, file.records.len() as u64);
                for rec in &file.records {
                    match rec {
                        PageRecord::Raw { idx, data } => {
                            body.put_u8(0);
                            put_varint(&mut body, *idx);
                            spans.push(HEADER_LEN + body.len());
                            body.put_slice(data);
                        }
                        PageRecord::Delta { idx, delta } => {
                            body.put_u8(1);
                            put_varint(&mut body, *idx);
                            put_varint(&mut body, delta.source_len);
                            put_varint(&mut body, delta.target_len);
                            body.put_u64_le(delta.target_checksum);
                            put_varint(&mut body, delta.payload.len() as u64);
                            body.put_slice(&delta.payload);
                        }
                    }
                }
            }
        }

        let body = body.freeze();
        let mut out = BytesMut::with_capacity(body.len() + 16);
        out.put_slice(&MAGIC);
        out.put_u64_le(fnv1a(&body));
        out.put_slice(&body);
        (out.freeze(), spans)
    }

    /// Parse a serialized checkpoint, validating magic and checksum.
    pub fn from_bytes(mut data: Bytes) -> Result<Self, ParseError> {
        if data.len() < 12 || data[0..4] != MAGIC {
            return Err(ParseError::BadHeader);
        }
        data.advance(4);
        let checksum = data.get_u64_le();
        if fnv1a(&data) != checksum {
            return Err(ParseError::Corrupt);
        }

        let mut buf = data;
        let job = get_varint(&mut buf).ok_or(ParseError::Malformed)?;
        let seq = get_varint(&mut buf).ok_or(ParseError::Malformed)?;
        if !buf.has_remaining() {
            return Err(ParseError::Malformed);
        }
        let kind = CheckpointKind::from_tag(buf.get_u8()).ok_or(ParseError::Malformed)?;
        if kind == CheckpointKind::Chunk {
            // Chunk records are bare page bytes in the log, never a
            // serialized checkpoint file.
            return Err(ParseError::Malformed);
        }

        let live_count = get_varint(&mut buf).ok_or(ParseError::Malformed)?;
        // Every page gap takes at least one varint byte, so a count past
        // the remaining input is malformed — checked before it sizes an
        // allocation.
        if live_count > buf.remaining() as u64 {
            return Err(ParseError::Malformed);
        }
        let mut live_pages = Vec::with_capacity(live_count as usize);
        let mut prev = 0u64;
        for i in 0..live_count {
            let d = get_varint(&mut buf).ok_or(ParseError::Malformed)?;
            let p = if i == 0 {
                d
            } else {
                prev.checked_add(d).ok_or(ParseError::Malformed)?
            };
            live_pages.push(p);
            prev = p;
        }

        let cpu_len = get_varint(&mut buf).ok_or(ParseError::Malformed)? as usize;
        if buf.remaining() < cpu_len {
            return Err(ParseError::Malformed);
        }
        let cpu_state = buf.copy_to_bytes(cpu_len);

        if !buf.has_remaining() {
            return Err(ParseError::Malformed);
        }
        let payload = match buf.get_u8() {
            0 => {
                let count = get_varint(&mut buf).ok_or(ParseError::Malformed)? as usize;
                let mut snap = Snapshot::new();
                for _ in 0..count {
                    let idx = get_varint(&mut buf).ok_or(ParseError::Malformed)?;
                    if buf.remaining() < PAGE_SIZE {
                        return Err(ParseError::Malformed);
                    }
                    let bytes = buf.copy_to_bytes(PAGE_SIZE);
                    snap.insert(idx, Page::from_bytes(&bytes));
                }
                Payload::Pages(snap)
            }
            1 => {
                let count = get_varint(&mut buf).ok_or(ParseError::Malformed)? as usize;
                let mut file = PaDeltaFile::default();
                for _ in 0..count {
                    if !buf.has_remaining() {
                        return Err(ParseError::Malformed);
                    }
                    match buf.get_u8() {
                        0 => {
                            let idx = get_varint(&mut buf).ok_or(ParseError::Malformed)?;
                            if buf.remaining() < PAGE_SIZE {
                                return Err(ParseError::Malformed);
                            }
                            let data = buf.copy_to_bytes(PAGE_SIZE);
                            file.records.push(PageRecord::Raw { idx, data });
                        }
                        1 => {
                            let idx = get_varint(&mut buf).ok_or(ParseError::Malformed)?;
                            let source_len = get_varint(&mut buf).ok_or(ParseError::Malformed)?;
                            let target_len = get_varint(&mut buf).ok_or(ParseError::Malformed)?;
                            if buf.remaining() < 8 {
                                return Err(ParseError::Malformed);
                            }
                            let target_checksum = buf.get_u64_le();
                            let plen = get_varint(&mut buf).ok_or(ParseError::Malformed)? as usize;
                            if buf.remaining() < plen {
                                return Err(ParseError::Malformed);
                            }
                            let payload = buf.copy_to_bytes(plen);
                            file.records.push(PageRecord::Delta {
                                idx,
                                delta: aic_delta::encode::Delta {
                                    source_len,
                                    target_len,
                                    target_checksum,
                                    payload,
                                },
                            });
                        }
                        _ => return Err(ParseError::Malformed),
                    }
                }
                Payload::Delta(file)
            }
            _ => return Err(ParseError::Malformed),
        };
        if buf.has_remaining() {
            return Err(ParseError::Malformed);
        }

        Ok(CheckpointFile {
            job,
            seq,
            kind,
            payload,
            live_pages,
            cpu_state,
        })
    }

    /// Serialized size in bytes (what bandwidth models charge for).
    pub fn wire_len(&self) -> u64 {
        self.to_bytes().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aic_delta::pa::{pa_encode, PaParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_snapshot(n: usize, seed: u64) -> Snapshot {
        let mut rng = StdRng::seed_from_u64(seed);
        Snapshot::from_pages((0..n).map(|i| {
            let mut buf = vec![0u8; PAGE_SIZE];
            rng.fill(&mut buf[..]);
            (i as u64 * 3, Page::from_bytes(&buf))
        }))
    }

    #[test]
    fn full_roundtrip() {
        let snap = random_snapshot(5, 1);
        let f = CheckpointFile::full(7, 0, snap.clone(), Bytes::from_static(b"cpu"));
        let parsed = CheckpointFile::from_bytes(f.to_bytes()).unwrap();
        assert_eq!(parsed, f);
        assert_eq!(parsed.kind, CheckpointKind::Full);
        match parsed.payload {
            Payload::Pages(s) => assert_eq!(s, snap),
            _ => panic!("wrong payload"),
        }
    }

    #[test]
    fn incremental_roundtrip_preserves_live_pages() {
        let dirty = random_snapshot(3, 2);
        let live = vec![0u64, 3, 6, 9, 100];
        let f = CheckpointFile::incremental(1, 4, dirty, live.clone(), Bytes::new());
        let parsed = CheckpointFile::from_bytes(f.to_bytes()).unwrap();
        assert_eq!(parsed.live_pages, live);
        assert_eq!(parsed.seq, 4);
    }

    #[test]
    fn delta_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let prev = random_snapshot(4, 4);
        let mut dirty = Snapshot::new();
        // One hot page with a small edit, one new page.
        let mut bytes = prev.get(0).unwrap().as_slice().to_vec();
        for b in &mut bytes[0..100] {
            *b = rng.gen();
        }
        dirty.insert(0, Page::from_bytes(&bytes));
        dirty.insert(50, random_snapshot(1, 5).get(0).unwrap().clone());

        let (file, _) = pa_encode(&prev, &dirty, &PaParams::default());
        let f = CheckpointFile::delta(9, 2, file, vec![0, 3, 6, 9, 50], Bytes::new());
        let parsed = CheckpointFile::from_bytes(f.to_bytes()).unwrap();
        assert_eq!(parsed, f);
        // And the payload still decodes.
        match parsed.payload {
            Payload::Delta(df) => {
                let restored = aic_delta::pa::pa_decode(&prev, &df).unwrap();
                assert_eq!(restored, dirty);
            }
            _ => panic!("wrong payload"),
        }
    }

    #[test]
    fn corruption_detected() {
        let f = CheckpointFile::full(1, 0, random_snapshot(2, 6), Bytes::new());
        let bytes = f.to_bytes();
        let mut corrupt = BytesMut::from(&bytes[..]);
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        assert_eq!(
            CheckpointFile::from_bytes(corrupt.freeze()),
            Err(ParseError::Corrupt)
        );
    }

    #[test]
    fn truncation_detected() {
        let f = CheckpointFile::full(1, 0, random_snapshot(2, 7), Bytes::new());
        let bytes = f.to_bytes();
        let truncated = bytes.slice(0..bytes.len() - 10);
        assert!(CheckpointFile::from_bytes(truncated).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            CheckpointFile::from_bytes(Bytes::from_static(b"NOPE00000000")),
            Err(ParseError::BadHeader)
        );
    }

    /// Build one file of each payload kind for corruption sweeps.
    fn sample_files() -> Vec<CheckpointFile> {
        let full = CheckpointFile::full(1, 0, random_snapshot(2, 30), Bytes::from_static(b"cpu"));
        let inc = CheckpointFile::incremental(
            1,
            1,
            random_snapshot(1, 31),
            vec![0, 3, 6],
            Bytes::from_static(b"cpu"),
        );
        let prev = random_snapshot(3, 32);
        let mut dirty = Snapshot::new();
        let mut edited = prev.get(0).unwrap().as_slice().to_vec();
        edited[0] ^= 1;
        dirty.insert(0, Page::from_bytes(&edited));
        let (df, _) = pa_encode(&prev, &dirty, &PaParams::default());
        let delta = CheckpointFile::delta(1, 2, df, vec![0, 3, 6], Bytes::from_static(b"cpu"));
        vec![full, inc, delta]
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        for f in sample_files() {
            let bytes = f.to_bytes();
            for len in 0..bytes.len() {
                let err = CheckpointFile::from_bytes(bytes.slice(0..len));
                assert!(err.is_err(), "kind {:?}: prefix of {len} parsed", f.kind);
            }
        }
    }

    #[test]
    fn every_flipped_byte_is_a_typed_error() {
        for f in sample_files() {
            let bytes = f.to_bytes();
            for pos in 0..bytes.len() {
                let mut corrupt = BytesMut::from(&bytes[..]);
                corrupt[pos] ^= 0xFF;
                // Must never panic; a flip in the body is a checksum
                // mismatch, a flip in the header fails header or checksum
                // validation. (A flip inside the stored checksum itself
                // also mismatches the recomputed one.)
                let err = CheckpointFile::from_bytes(corrupt.freeze());
                assert!(err.is_err(), "kind {:?}: flip at {pos} parsed", f.kind);
            }
        }
    }

    #[test]
    fn bad_kind_tag_is_malformed_even_with_valid_checksum() {
        let f = CheckpointFile::full(1, 0, random_snapshot(1, 33), Bytes::new());
        let bytes = f.to_bytes();
        // Body starts after magic (4) + checksum (8); job=1 and seq=0 are
        // 1-byte varints, so the kind tag sits at offset 14.
        let mut raw = bytes.to_vec();
        assert_eq!(raw[14], 0, "expected the Full tag");
        raw[14] = 9;
        // Recompute the checksum so only the tag is wrong.
        let sum = fnv1a(&raw[12..]);
        raw[4..12].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            CheckpointFile::from_bytes(Bytes::from(raw)),
            Err(ParseError::Malformed)
        );
    }

    #[test]
    fn trailing_garbage_is_malformed_even_with_valid_checksum() {
        let f = CheckpointFile::full(1, 0, random_snapshot(1, 34), Bytes::new());
        let mut raw = f.to_bytes().to_vec();
        raw.push(0xAB);
        let sum = fnv1a(&raw[12..]);
        raw[4..12].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            CheckpointFile::from_bytes(Bytes::from(raw)),
            Err(ParseError::Malformed)
        );
    }

    #[test]
    fn chunk_kind_tag_is_rejected_even_with_valid_checksum() {
        let f = CheckpointFile::full(1, 0, random_snapshot(1, 35), Bytes::new());
        let mut raw = f.to_bytes().to_vec();
        assert_eq!(raw[14], 0, "expected the Full tag");
        raw[14] = CheckpointKind::Chunk.tag();
        let sum = fnv1a(&raw[12..]);
        raw[4..12].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            CheckpointFile::from_bytes(Bytes::from(raw)),
            Err(ParseError::Malformed)
        );
    }

    /// Frame a hand-built body with the magic and its valid checksum, so
    /// only the body's structure is on trial.
    fn sealed(body: &BytesMut) -> Bytes {
        let mut out = BytesMut::new();
        out.put_slice(&MAGIC);
        out.put_u64_le(fnv1a(body));
        out.put_slice(body);
        out.freeze()
    }

    /// job=1, seq=0, kind=Full, then the live-page count.
    fn body_with_live_count(count: u64) -> BytesMut {
        let mut body = BytesMut::new();
        put_varint(&mut body, 1);
        put_varint(&mut body, 0);
        body.put_u8(CheckpointKind::Full.tag());
        put_varint(&mut body, count);
        body
    }

    #[test]
    fn huge_live_count_is_malformed_not_an_allocation() {
        let mut body = body_with_live_count(1 << 40);
        body.put_slice(&[0u8; 16]);
        assert_eq!(
            CheckpointFile::from_bytes(sealed(&body)),
            Err(ParseError::Malformed)
        );
    }

    #[test]
    fn overflowing_page_gap_is_malformed() {
        let mut body = body_with_live_count(2);
        put_varint(&mut body, 1);
        put_varint(&mut body, u64::MAX);
        // An empty CPU blob and an empty page payload follow.
        put_varint(&mut body, 0);
        body.put_u8(0);
        put_varint(&mut body, 0);
        assert_eq!(
            CheckpointFile::from_bytes(sealed(&body)),
            Err(ParseError::Malformed)
        );
    }

    #[test]
    fn huge_delta_target_len_is_a_typed_error_not_an_allocation() {
        // A sealed AICK body (valid FNV checksum) whose delta record
        // declares a target of ~2^63 bytes. The body is structurally valid,
        // so it parses; applying it must be a typed error, never an
        // attempt to reserve the declared length.
        let mut rng = StdRng::seed_from_u64(36);
        let prev = random_snapshot(1, 36);
        let mut bytes = prev.get(0).unwrap().as_slice().to_vec();
        for b in &mut bytes[0..64] {
            *b = rng.gen();
        }
        let dirty = Snapshot::from_pages([(0, Page::from_bytes(&bytes))]);
        let (mut file, _) = pa_encode(&prev, &dirty, &PaParams::default());
        let huge = (1u64 << 63) + 11;
        match &mut file.records[0] {
            PageRecord::Delta { delta, .. } => delta.target_len = huge,
            PageRecord::Raw { .. } => panic!("expected a delta record"),
        }
        let sealed = CheckpointFile::delta(1, 1, file, vec![0], Bytes::new()).to_bytes();
        let parsed = CheckpointFile::from_bytes(sealed).unwrap();
        let Payload::Delta(df) = parsed.payload else {
            panic!("wrong payload")
        };
        let PageRecord::Delta { delta, .. } = &df.records[0] else {
            panic!("expected a delta record")
        };
        assert_eq!(delta.target_len, huge);
        let expected = aic_delta::decode::DecodeError::TargetLenMismatch {
            expected: huge,
            actual: PAGE_SIZE as u64,
        };
        assert_eq!(
            aic_delta::decode::decode(prev.get(0).unwrap().as_slice(), delta),
            Err(expected)
        );
        assert!(aic_delta::pa::pa_decode(&prev, &df).is_err());
    }

    #[test]
    fn page_spans_cover_exactly_the_verbatim_page_runs() {
        for f in sample_files() {
            let plain = f.to_bytes();
            let (bytes, spans) = f.to_bytes_with_page_spans();
            assert_eq!(bytes, plain, "kind {:?}: spans variant diverged", f.kind);
            let expected = match &f.payload {
                Payload::Pages(snap) => snap.iter().map(|(_, p)| p.clone()).collect::<Vec<_>>(),
                Payload::Delta(df) => df
                    .records
                    .iter()
                    .filter_map(|r| match r {
                        PageRecord::Raw { data, .. } => Some(Page::from_bytes(data)),
                        PageRecord::Delta { .. } => None,
                    })
                    .collect(),
            };
            assert_eq!(spans.len(), expected.len(), "kind {:?}", f.kind);
            for (off, page) in spans.iter().zip(&expected) {
                assert_eq!(
                    &bytes[*off..*off + PAGE_SIZE],
                    page.as_slice(),
                    "kind {:?}: span at {off}",
                    f.kind
                );
            }
        }
    }

    #[test]
    fn wire_len_tracks_payload() {
        let small = CheckpointFile::full(1, 0, random_snapshot(1, 8), Bytes::new());
        let big = CheckpointFile::full(1, 0, random_snapshot(10, 9), Bytes::new());
        assert!(big.wire_len() > 9 * small.wire_len() / 2);
    }
}
