//! Checkpoint storage levels with bandwidth models.
//!
//! The paper's testbed (Fig. 10) keeps L1 on the physical node's disk and
//! *simulates* L2 (RAID-5 node group) and L3 (remote storage) through their
//! bandwidth parameters. We do the same — but the RAID-5 group is a real
//! implementation: checkpoint bytes are striped across a node group with
//! rotating XOR parity, a node can be failed, and reads reconstruct the
//! missing stripe chunks from parity (degraded mode), which is exactly the
//! resilience L2 buys against a single total-node failure.
//!
//! Both backends cost O(bytes moved) per operation: appends write only the
//! new bytes in place, and ranged reads copy (or, degraded, rebuild) only
//! the bytes asked for — never the whole object.

use std::collections::HashMap;

use bytes::Bytes;

/// Simulated transfer timing for a store operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Receipt {
    /// Bytes written.
    pub bytes: u64,
    /// Seconds the transfer occupied the store's channel.
    pub seconds: f64,
}

/// A bandwidth-limited channel: fixed setup latency plus bytes/bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthModel {
    /// Sustained bandwidth, bytes per second.
    pub bytes_per_sec: f64,
    /// Per-operation setup latency, seconds.
    pub latency: f64,
}

impl BandwidthModel {
    /// Construct; bandwidth must be positive.
    pub fn new(bytes_per_sec: f64, latency: f64) -> Self {
        assert!(bytes_per_sec > 0.0 && latency >= 0.0);
        BandwidthModel {
            bytes_per_sec,
            latency,
        }
    }

    /// Transfer time for `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bytes_per_sec
    }
}

/// A named checkpoint object store.
pub trait Store {
    /// Write an object, returning the simulated transfer receipt.
    fn put(&mut self, name: &str, data: Bytes) -> Receipt;
    /// Append bytes to an object (creating it if absent), billing only the
    /// appended traffic — the substrate operation of the append-only
    /// checkpoint log, where per-object `put` would re-bill the whole
    /// segment on every record.
    fn append(&mut self, name: &str, data: Bytes) -> Receipt;
    /// Logical byte length of an object (None if absent). An object the
    /// store can no longer reconstruct keeps its length; reading it
    /// reports the loss.
    fn object_len(&self, name: &str) -> Option<usize>;
    /// Read `len` bytes starting at byte `offset` of an object. None if the
    /// object is absent or unrecoverable, or the range runs past its end.
    fn read_range(&self, name: &str, offset: usize, len: usize) -> Option<Bytes>;
    /// Read a whole object back (None if absent or unrecoverable).
    fn get(&self, name: &str) -> Option<Bytes> {
        self.read_range(name, 0, self.object_len(name)?)
    }
    /// Simulated cost of reading the object through this store's own
    /// channel model (None if absent). A degraded store may charge more
    /// than a healthy one for the same object.
    fn read_receipt(&self, name: &str) -> Option<Receipt>;
    /// Delete an object; returns true if it existed.
    fn delete(&mut self, name: &str) -> bool;
    /// Total bytes held.
    fn stored_bytes(&self) -> u64;
}

/// L1 / L3: a flat object store behind a bandwidth model (local disk or
/// remote parallel file system — same mechanics, different constants).
#[derive(Debug, Clone)]
pub struct FlatStore {
    bw: BandwidthModel,
    /// Growable per-object buffers: an append extends one in place.
    objects: HashMap<String, Vec<u8>>,
}

impl FlatStore {
    /// New store with the given channel model.
    pub fn new(bw: BandwidthModel) -> Self {
        FlatStore {
            bw,
            objects: HashMap::new(),
        }
    }

    fn receipt(&self, bytes: usize) -> Receipt {
        Receipt {
            bytes: bytes as u64,
            seconds: self.bw.transfer_time(bytes as u64),
        }
    }
}

impl Store for FlatStore {
    fn put(&mut self, name: &str, data: Bytes) -> Receipt {
        self.objects.insert(name.to_string(), data.to_vec());
        self.receipt(data.len())
    }

    fn append(&mut self, name: &str, data: Bytes) -> Receipt {
        match self.objects.get_mut(name) {
            Some(existing) => existing.extend_from_slice(&data),
            None => {
                self.objects.insert(name.to_string(), data.to_vec());
            }
        }
        self.receipt(data.len())
    }

    fn object_len(&self, name: &str) -> Option<usize> {
        self.objects.get(name).map(Vec::len)
    }

    fn read_range(&self, name: &str, offset: usize, len: usize) -> Option<Bytes> {
        let obj = self.objects.get(name)?;
        obj.get(offset..offset.checked_add(len)?)
            .map(Bytes::copy_from_slice)
    }

    fn read_receipt(&self, name: &str) -> Option<Receipt> {
        Some(self.receipt(self.object_len(name)?))
    }

    fn delete(&mut self, name: &str) -> bool {
        self.objects.remove(name).is_some()
    }

    fn stored_bytes(&self) -> u64 {
        self.objects.values().map(|b| b.len() as u64).sum()
    }
}

/// L2: a RAID-5 group of `n` nodes. Objects are split into stripe rows of
/// `n − 1` data chunks plus one parity chunk; the parity position rotates
/// per row. Any single failed node can be reconstructed from the others.
#[derive(Debug, Clone)]
pub struct Raid5Group {
    bw: BandwidthModel,
    chunk_size: usize,
    /// Per-node object buffers: `nodes[i][name]` holds node i's chunks of
    /// the object end to end, stripe row r at bytes
    /// `r·chunk_size..(r+1)·chunk_size`.
    nodes: Vec<HashMap<String, Vec<u8>>>,
    /// Object sizes, needed to strip padding on read.
    sizes: HashMap<String, usize>,
    /// Currently failed node, if any.
    failed: Option<usize>,
}

impl Raid5Group {
    /// Create a group of `n ≥ 3` nodes with the given stripe chunk size.
    pub fn new(n: usize, chunk_size: usize, bw: BandwidthModel) -> Self {
        assert!(n >= 3, "RAID-5 needs at least 3 nodes");
        assert!(chunk_size > 0);
        Raid5Group {
            bw,
            chunk_size,
            nodes: vec![HashMap::new(); n],
            sizes: HashMap::new(),
            failed: None,
        }
    }

    /// Number of nodes in the group.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Fail a node: its chunks become unreadable until
    /// [`Raid5Group::repair_node`].
    pub fn fail_node(&mut self, node: usize) {
        assert!(node < self.nodes.len());
        assert!(self.failed.is_none(), "RAID-5 tolerates one failure");
        self.failed = Some(node);
    }

    /// Fail a node **and** lose its contents — the disk died with it, so
    /// every chunk it held becomes genuinely missing and the eventual
    /// [`Raid5Group::repair_node`] rebuilds (and bills) the full set onto
    /// the replacement. [`Raid5Group::fail_node`] alone models a transient
    /// outage where the data survives the downtime. This is the f2
    /// semantics of the storage hierarchy.
    pub fn fail_node_losing_data(&mut self, node: usize) {
        self.fail_node(node);
        self.nodes[node].clear();
    }

    /// True while a node is failed and reads run in degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.failed.is_some()
    }

    /// Repair the failed node: reconstruct exactly the chunks it is
    /// *missing* from the surviving nodes and mark it healthy again. An
    /// object written (or overwritten) while the node was down left no copy
    /// on it — those are the chunks the rebuild recreates and bills; chunks
    /// the node still holds from before the failure were never lost and
    /// cost nothing. The receipt bills one read of the n−1 surviving chunks
    /// plus one write of the reconstruction per missing chunk.
    pub fn repair_node(&mut self) -> Receipt {
        let Some(dead) = self.failed else {
            return Receipt {
                bytes: 0,
                seconds: 0.0,
            };
        };
        let cs = self.chunk_size;
        let mut rebuilt_chunks = 0u64;
        let names: Vec<String> = self.sizes.keys().cloned().collect();
        for name in names {
            // Row count comes from whichever surviving node holds the
            // object — per-node absence must not panic (a peer that missed
            // a degraded write simply contributes no rows).
            let rows = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != dead)
                .filter_map(|(_, node)| node.get(&name))
                .map(|buf| buf.len() / cs)
                .max()
                .unwrap_or(0);
            if self.nodes[dead].get(&name).map_or(0, |buf| buf.len() / cs) == rows {
                // The node kept its pre-failure copy intact: nothing to
                // rebuild, nothing to bill.
                continue;
            }
            let mut rebuilt = vec![0u8; rows * cs];
            if self.xor_survivors(&name, 0, &mut rebuilt, dead).is_some() {
                rebuilt_chunks += rows as u64;
                self.nodes[dead].insert(name, rebuilt);
            }
            // else: some surviving chunk was itself absent — leave the
            // entry missing rather than store a partial reconstruction;
            // reads will fall through to the next storage level.
        }
        self.failed = None;
        let bytes = rebuilt_chunks * self.nodes.len() as u64 * cs as u64;
        Receipt {
            bytes,
            seconds: self.bw.transfer_time(bytes),
        }
    }

    /// XOR every node's bytes `at..at + dst.len()` of the object, except
    /// node `skip`'s, into `dst` — rebuilding node `skip`'s bytes there
    /// from the survivors. None if a survivor lacks them.
    fn xor_survivors(&self, name: &str, at: usize, dst: &mut [u8], skip: usize) -> Option<()> {
        for (i, node) in self.nodes.iter().enumerate() {
            if i == skip {
                continue;
            }
            let src = node.get(name)?.get(at..at + dst.len())?;
            for (d, s) in dst.iter_mut().zip(src) {
                *d ^= s;
            }
        }
        Some(())
    }

    /// The node holding row `row`'s parity chunk (rotates per row).
    fn parity_node(&self, row: usize) -> usize {
        let n = self.nodes.len();
        (n - 1) - (row % n)
    }

    /// Where logical byte `pos` of an object lives: its stripe row, the
    /// node holding its data chunk, and its offset in that node's buffer.
    fn locate(&self, pos: usize) -> (usize, usize, usize) {
        let row_bytes = self.chunk_size * (self.nodes.len() - 1);
        let row = pos / row_bytes;
        let d = pos % row_bytes / self.chunk_size;
        let node = if d < self.parity_node(row) { d } else { d + 1 };
        (row, node, row * self.chunk_size + pos % self.chunk_size)
    }

    /// Stripe rows an object of `len` bytes occupies (an empty object
    /// still writes one padded row).
    fn rows_for(&self, len: usize) -> usize {
        len.div_ceil(self.chunk_size * (self.nodes.len() - 1))
            .max(1)
    }

    /// Every reachable node holds all `rows_for(len)` rows of the object,
    /// so each data chunk reads directly or, on the failed node, rebuilds
    /// from parity.
    fn recoverable(&self, name: &str, len: usize) -> bool {
        let want = self.rows_for(len) * self.chunk_size;
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| Some(*i) != self.failed)
            .all(|(_, node)| node.get(name).is_some_and(|buf| buf.len() >= want))
    }

    /// Write `data` at logical offset `start` of the object, into bytes
    /// that are zero padding: each byte lands in its data chunk and is
    /// XORed into its row's parity chunk. The parity of zeros needs no old
    /// data, so this is RAID-5's small write without the read. The failed
    /// node receives nothing; its share stays recoverable from parity.
    fn write_padding(&mut self, name: &str, start: usize, data: &[u8]) {
        let mut done = 0;
        while done < data.len() {
            let (row, node, at) = self.locate(start + done);
            let take = (self.chunk_size - at % self.chunk_size).min(data.len() - done);
            let piece = &data[done..done + take];
            let parity = self.parity_node(row);
            if Some(node) != self.failed {
                let buf = self.nodes[node]
                    .get_mut(name)
                    .expect("reachable node holds object");
                buf[at..at + take].copy_from_slice(piece);
            }
            if Some(parity) != self.failed {
                let buf = self.nodes[parity]
                    .get_mut(name)
                    .expect("reachable node holds object");
                for (p, b) in buf[at..at + take].iter_mut().zip(piece) {
                    *p ^= b;
                }
            }
            done += take;
        }
    }

    /// Size every node's copy of the object to `rows` rows, growing it
    /// with zero padding (a node without a copy gets an all-zero one).
    /// While a node is failed its copy is dropped instead — it cannot
    /// accept writes, and a stale copy must never resurface after a write
    /// while degraded; [`Raid5Group::repair_node`] rebuilds exactly that
    /// missing set later.
    fn size_rows(&mut self, name: &str, rows: usize) {
        let len = rows * self.chunk_size;
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if Some(i) == self.failed {
                node.remove(name);
            } else if let Some(buf) = node.get_mut(name) {
                buf.resize(len, 0);
            } else {
                node.insert(name.to_string(), vec![0; len]);
            }
        }
    }

    /// Stripe `data` across the group, replacing any previous version.
    /// Returns the total stripe-row count.
    fn stripe(&mut self, name: &str, data: &[u8]) -> usize {
        let rows = self.rows_for(data.len());
        self.sizes.insert(name.to_string(), data.len());
        for node in &mut self.nodes {
            node.remove(name);
        }
        self.size_rows(name, rows);
        self.write_padding(name, 0, data);
        rows
    }

    /// Receipt for `rows` stripe rows: every row writes one chunk per
    /// *reachable* node (n-1 data, possibly zero-padded, plus one parity —
    /// minus the failed node's share while degraded), not just the
    /// caller's payload bytes.
    fn row_receipt(&self, rows: usize) -> Receipt {
        let writes_per_row = self.nodes.len() - usize::from(self.failed.is_some());
        let bytes = (rows * writes_per_row * self.chunk_size) as u64;
        Receipt {
            bytes,
            seconds: self.bw.transfer_time(bytes),
        }
    }
}

impl Store for Raid5Group {
    fn put(&mut self, name: &str, data: Bytes) -> Receipt {
        let rows = self.stripe(name, &data);
        self.row_receipt(rows)
    }

    fn append(&mut self, name: &str, data: Bytes) -> Receipt {
        let Some(&old_len) = self.sizes.get(name) else {
            return self.put(name, data);
        };
        // Only the rows from the append point onward change on disk, so
        // only they are billed.
        let first_dirty_row = old_len / (self.chunk_size * (self.nodes.len() - 1));
        let total_rows = if self.recoverable(name, old_len) {
            let new_len = old_len + data.len();
            let rows = self.rows_for(new_len);
            self.sizes.insert(name.to_string(), new_len);
            self.size_rows(name, rows);
            self.write_padding(name, old_len, &data);
            rows
        } else {
            // The object is unrecoverable at this level (e.g. it straddles
            // a wipe); overwrite with the new bytes rather than corrupt.
            self.stripe(name, &data)
        };
        self.row_receipt(total_rows.saturating_sub(first_dirty_row).max(1))
    }

    fn object_len(&self, name: &str) -> Option<usize> {
        self.sizes.get(name).copied()
    }

    fn read_range(&self, name: &str, offset: usize, len: usize) -> Option<Bytes> {
        let size = *self.sizes.get(name)?;
        if offset.checked_add(len)? > size || !self.recoverable(name, size) {
            return None;
        }
        let mut out = vec![0u8; len];
        let mut done = 0;
        while done < len {
            let (_, node, at) = self.locate(offset + done);
            let take = (self.chunk_size - at % self.chunk_size).min(len - done);
            let dst = &mut out[done..done + take];
            if Some(node) == self.failed {
                // Degraded read: rebuild just these bytes from the row's
                // surviving chunks.
                self.xor_survivors(name, at, dst, node)?;
            } else {
                dst.copy_from_slice(self.nodes[node].get(name)?.get(at..at + take)?);
            }
            done += take;
        }
        Some(Bytes::from(out))
    }

    fn read_receipt(&self, name: &str) -> Option<Receipt> {
        self.sizes.get(name)?;
        let n = self.nodes.len();
        // Row count comes from a *reachable* node that holds the object —
        // the failed node's map is unreadable, and an object written while
        // degraded has no entry there at all.
        let rows = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| Some(*i) != self.failed)
            .find_map(|(_, node)| node.get(name))
            .map(|buf| buf.len() / self.chunk_size)?;
        // A healthy read pulls the n-1 data chunks of each row. When the
        // failed node held a data chunk for a row (i.e. it was not that
        // row's parity position), reconstruction additionally reads the
        // row's parity chunk.
        let mut chunks = rows as u64 * (n as u64 - 1);
        if let Some(dead) = self.failed {
            chunks += (0..rows)
                .filter(|&row| self.parity_node(row) != dead)
                .count() as u64;
        }
        let bytes = chunks * self.chunk_size as u64;
        Some(Receipt {
            bytes,
            seconds: self.bw.transfer_time(bytes),
        })
    }

    fn delete(&mut self, name: &str) -> bool {
        let existed = self.sizes.remove(name).is_some();
        for node in &mut self.nodes {
            node.remove(name);
        }
        existed
    }

    fn stored_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .flat_map(|n| n.values())
            .map(|buf| buf.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_bytes(len: usize, seed: u64) -> Bytes {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = vec![0u8; len];
        rng.fill(&mut v[..]);
        Bytes::from(v)
    }

    #[test]
    fn bandwidth_math() {
        let bw = BandwidthModel::new(100.0, 0.5);
        assert!((bw.transfer_time(1000) - 10.5).abs() < 1e-12);
    }

    #[test]
    fn flat_store_roundtrip() {
        let mut s = FlatStore::new(BandwidthModel::new(1e6, 0.0));
        let data = random_bytes(1234, 1);
        let r = s.put("ckpt", data.clone());
        assert_eq!(r.bytes, 1234);
        assert_eq!(s.get("ckpt").unwrap(), data);
        assert!(s.delete("ckpt"));
        assert!(s.get("ckpt").is_none());
    }

    #[test]
    fn raid5_roundtrip_various_sizes() {
        for (i, len) in [0usize, 1, 100, 1024, 4096, 10_000, 65_537]
            .iter()
            .enumerate()
        {
            let mut g = Raid5Group::new(4, 1024, BandwidthModel::new(1e9, 0.0));
            let data = random_bytes(*len, i as u64);
            g.put("x", data.clone());
            assert_eq!(g.get("x").unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn raid5_survives_any_single_node_failure() {
        let data = random_bytes(50_000, 9);
        for dead in 0..5 {
            let mut g = Raid5Group::new(5, 512, BandwidthModel::new(1e9, 0.0));
            g.put("ckpt", data.clone());
            g.fail_node(dead);
            assert_eq!(g.get("ckpt").unwrap(), data, "failed node {dead}");
        }
    }

    #[test]
    fn raid5_repair_then_second_failure() {
        let data = random_bytes(20_000, 10);
        let mut g = Raid5Group::new(4, 256, BandwidthModel::new(1e9, 0.0));
        g.put("ckpt", data.clone());
        g.fail_node(1);
        g.repair_node();
        g.fail_node(3); // a different node fails after repair
        assert_eq!(g.get("ckpt").unwrap(), data);
    }

    #[test]
    #[should_panic(expected = "one failure")]
    fn raid5_double_failure_rejected() {
        let mut g = Raid5Group::new(3, 256, BandwidthModel::new(1e9, 0.0));
        g.fail_node(0);
        g.fail_node(1);
    }

    #[test]
    fn raid5_overwrite_replaces() {
        let mut g = Raid5Group::new(3, 128, BandwidthModel::new(1e9, 0.0));
        g.put("x", random_bytes(1000, 11));
        let newer = random_bytes(500, 12);
        g.put("x", newer.clone());
        assert_eq!(g.get("x").unwrap(), newer);
    }

    #[test]
    fn raid5_storage_overhead_is_parity_fraction() {
        let mut g = Raid5Group::new(5, 1000, BandwidthModel::new(1e9, 0.0));
        let data = random_bytes(40_000, 13); // exactly 10 rows of 4 chunks
        g.put("x", data);
        // 40k data + 10 rows × 1k parity = 50k total.
        assert_eq!(g.stored_bytes(), 50_000);
    }

    #[test]
    fn flat_read_receipt_uses_channel_model() {
        let mut s = FlatStore::new(BandwidthModel::new(100.0, 0.5));
        s.put("x", random_bytes(1000, 20));
        let r = s.read_receipt("x").unwrap();
        assert_eq!(r.bytes, 1000);
        assert!((r.seconds - 10.5).abs() < 1e-12);
        assert!(s.read_receipt("missing").is_none());
    }

    #[test]
    fn raid5_put_bills_parity_and_padding() {
        let mut g = Raid5Group::new(5, 1000, BandwidthModel::new(1e6, 0.0));
        // Exactly 10 rows of 4 data chunks: 40k payload → 50k on the wire.
        let r = g.put("x", random_bytes(40_000, 21));
        assert_eq!(r.bytes, 50_000);
        assert!((r.seconds - 0.05).abs() < 1e-12);
        // A 1-byte object still writes one full stripe row.
        let r = g.put("tiny", random_bytes(1, 22));
        assert_eq!(r.bytes, 5_000);
    }

    #[test]
    fn raid5_read_receipt_healthy_vs_degraded() {
        let mut g = Raid5Group::new(4, 1000, BandwidthModel::new(1e6, 0.0));
        g.put("x", random_bytes(12_000, 23)); // 4 rows of 3 data chunks
        let healthy = g.read_receipt("x").unwrap();
        assert_eq!(healthy.bytes, 12_000);

        // Node 3 is parity for row 0 only; rows 1-3 need the extra parity
        // chunk to reconstruct its data chunks.
        g.fail_node(3);
        let degraded = g.read_receipt("x").unwrap();
        assert_eq!(degraded.bytes, 12_000 + 3 * 1000);
        assert!(degraded.seconds > healthy.seconds);

        // The node still holds its pre-failure chunks — nothing was lost,
        // so the repair reconstructs (and bills) nothing.
        let repair = g.repair_node();
        assert_eq!(repair.bytes, 0);
        assert!(!g.is_degraded());
        assert_eq!(g.read_receipt("x").unwrap(), healthy);
    }

    #[test]
    fn raid5_repair_on_healthy_group_is_free() {
        let mut g = Raid5Group::new(3, 128, BandwidthModel::new(1e9, 0.0));
        g.put("x", random_bytes(1000, 24));
        let r = g.repair_node();
        assert_eq!(r.bytes, 0);
        assert_eq!(r.seconds, 0.0);
    }

    #[test]
    fn degraded_put_leaves_failed_node_empty_and_bills_survivors() {
        let mut g = Raid5Group::new(4, 1000, BandwidthModel::new(1e6, 0.0));
        g.fail_node(2);
        // 4 rows of 3 data chunks.
        let data = random_bytes(12_000, 30);
        let r = g.put("x", data.clone());
        // Only the 3 reachable nodes receive chunks: 4 rows × 3 × 1000.
        assert_eq!(r.bytes, 12_000);
        assert!(!g.nodes[2].contains_key("x"), "dead node took a write");
        // Degraded reads reconstruct the absent chunks from parity.
        assert_eq!(g.get("x").unwrap(), data);
    }

    #[test]
    fn overwrite_while_degraded_discards_the_stale_copy() {
        let mut g = Raid5Group::new(4, 256, BandwidthModel::new(1e9, 0.0));
        g.put("x", random_bytes(5_000, 31));
        g.fail_node(1);
        let newer = random_bytes(5_000, 32);
        g.put("x", newer.clone());
        // The dead node's pre-failure chunks are dropped, not refreshed:
        // nothing written during degradation may "survive" on it.
        assert!(!g.nodes[1].contains_key("x"), "stale copy resurrected");
        assert_eq!(g.get("x").unwrap(), newer);
        // Repair rebuilds the overwritten object from parity; a different
        // node can then fail and the *new* data still reads back.
        g.repair_node();
        g.fail_node(3);
        assert_eq!(g.get("x").unwrap(), newer);
    }

    #[test]
    fn repair_bills_only_genuinely_missing_chunks() {
        let mut g = Raid5Group::new(4, 1000, BandwidthModel::new(1e6, 0.0));
        // "kept" is written while healthy: the failed node retains its
        // copy, so repair must not re-reconstruct (or re-bill) it.
        g.put("kept", random_bytes(12_000, 33)); // 4 rows
        g.fail_node(2);
        // "lost" is written while degraded: every one of its rows is
        // missing on the dead node.
        g.put("lost", random_bytes(6_000, 34)); // 2 rows
        let r = g.repair_node();
        // Each missing chunk reads n-1 survivors + writes 1 rebuild:
        // 2 rows × 4 nodes × 1000 B — the 4 "kept" rows cost nothing.
        assert_eq!(r.bytes, 2 * 4 * 1000);
        assert!(!g.is_degraded());
        // Both objects survive a different node's failure afterwards.
        g.fail_node(0);
        assert_eq!(g.get("kept").unwrap().len(), 12_000);
        assert_eq!(g.get("lost").unwrap().len(), 6_000);
    }

    #[test]
    fn repair_tolerates_per_node_absence_without_panicking() {
        let mut g = Raid5Group::new(4, 256, BandwidthModel::new(1e9, 0.0));
        g.fail_node(0);
        let data = random_bytes(2_000, 35);
        g.put("x", data.clone());
        // Simulate a survivor that also lost the object (e.g. a partial
        // wipe): reconstruction is impossible, but repair must degrade
        // gracefully — no panic, entry left absent, nothing billed for it.
        g.nodes[1].remove("x");
        let r = g.repair_node();
        assert_eq!(r.bytes, 0);
        assert!(!g.nodes[0].contains_key("x"));
        // The object is unrecoverable at this level; get reports that
        // instead of panicking, so callers fall through to the next level.
        assert!(g.get("x").is_none());
        // An append cannot extend what it cannot read: it overwrites.
        let fresh = random_bytes(300, 36);
        g.append("x", fresh.clone());
        assert_eq!(g.get("x").unwrap(), fresh);
    }

    #[test]
    fn flat_append_bills_only_the_new_bytes() {
        let mut s = FlatStore::new(BandwidthModel::new(100.0, 0.5));
        let a = random_bytes(600, 36);
        let b = random_bytes(400, 37);
        let r1 = s.append("seg", a.clone());
        assert_eq!(r1.bytes, 600);
        let r2 = s.append("seg", b.clone());
        assert_eq!(r2.bytes, 400);
        assert!((r2.seconds - (0.5 + 4.0)).abs() < 1e-12);
        let mut want = a.to_vec();
        want.extend_from_slice(&b);
        assert_eq!(s.get("seg").unwrap().to_vec(), want);
        assert_eq!(s.stored_bytes(), 1000);
    }

    #[test]
    fn raid_append_bills_only_touched_rows_and_roundtrips() {
        let mut g = Raid5Group::new(4, 1000, BandwidthModel::new(1e6, 0.0));
        // 2 full rows (6000 B of data capacity per 2 rows × 3 chunks).
        let a = random_bytes(6_000, 38);
        let r = g.append("seg", a.clone());
        assert_eq!(r.bytes, 2 * 4 * 1000, "first append bills like put");
        // Appending 1 KiB lands entirely in row 2: one new row touched.
        let b = random_bytes(1_000, 39);
        let r = g.append("seg", b.clone());
        assert_eq!(r.bytes, 4 * 1000);
        // Appending 2.5 KiB rewrites the partial row 2 and adds row 3.
        let c = random_bytes(2_500, 40);
        let r = g.append("seg", c.clone());
        assert_eq!(r.bytes, 2 * 4 * 1000);
        let mut want = a.to_vec();
        want.extend_from_slice(&b);
        want.extend_from_slice(&c);
        assert_eq!(g.get("seg").unwrap().to_vec(), want);
        // The appended object survives any single-node failure.
        for dead in 0..4 {
            let mut g2 = g.clone();
            g2.fail_node(dead);
            assert_eq!(g2.get("seg").unwrap().to_vec(), want, "node {dead}");
        }
    }

    #[test]
    fn raid_append_while_degraded_skips_the_dead_node() {
        let mut g = Raid5Group::new(4, 1000, BandwidthModel::new(1e6, 0.0));
        let a = random_bytes(3_000, 41); // 1 row
        g.append("seg", a.clone());
        g.fail_node(1);
        let b = random_bytes(3_000, 42); // adds row 1
        let r = g.append("seg", b.clone());
        assert_eq!(r.bytes, 3 * 1000, "degraded append writes n-1 chunks");
        assert!(!g.nodes[1].contains_key("seg"));
        let mut want = a.to_vec();
        want.extend_from_slice(&b);
        assert_eq!(g.get("seg").unwrap().to_vec(), want);
        // Repair rebuilds the whole (re-striped) object on the dead node.
        let rep = g.repair_node();
        assert_eq!(rep.bytes, 2 * 4 * 1000);
        g.fail_node(3);
        assert_eq!(g.get("seg").unwrap().to_vec(), want);
    }

    #[test]
    fn ranged_reads_match_whole_object_slices() {
        let data = random_bytes(10_000, 43);
        let mut flat = FlatStore::new(BandwidthModel::new(1e6, 0.0));
        flat.put("x", data.clone());
        let mut g = Raid5Group::new(4, 256, BandwidthModel::new(1e6, 0.0));
        g.put("x", data.clone());
        let ranges = [
            (0, 0),
            (0, 1),
            (255, 2),
            (700, 900),
            (9_999, 1),
            (0, 10_000),
        ];
        for (o, l) in ranges {
            assert_eq!(flat.read_range("x", o, l).unwrap(), data.slice(o..o + l));
            assert_eq!(g.read_range("x", o, l).unwrap(), data.slice(o..o + l));
        }
        for dead in 0..4 {
            let mut d = g.clone();
            d.fail_node(dead);
            for (o, l) in ranges {
                assert_eq!(
                    d.read_range("x", o, l).unwrap(),
                    data.slice(o..o + l),
                    "node {dead}"
                );
            }
        }
        for (o, l) in [(10_000, 1), (9_000, 1_001), (usize::MAX, 2)] {
            assert!(flat.read_range("x", o, l).is_none());
            assert!(g.read_range("x", o, l).is_none());
        }
        assert_eq!(flat.object_len("x"), Some(10_000));
        assert_eq!(g.object_len("x"), Some(10_000));
        assert!(g.read_range("missing", 0, 0).is_none());
    }

    #[test]
    fn raid5_delete() {
        let mut g = Raid5Group::new(3, 128, BandwidthModel::new(1e9, 0.0));
        g.put("x", random_bytes(100, 14));
        assert!(g.delete("x"));
        assert!(g.get("x").is_none());
        assert_eq!(g.stored_bytes(), 0);
    }

    /// The RAID-5 group as it stood before in-place appends: chunk lists
    /// per node, and every append reassembles and re-stripes the whole
    /// object. The in-place group must match it byte for byte.
    #[derive(Clone)]
    struct RestripeRaid5 {
        bw: BandwidthModel,
        chunk_size: usize,
        nodes: Vec<HashMap<String, Vec<Bytes>>>,
        sizes: HashMap<String, usize>,
        failed: Option<usize>,
    }

    impl RestripeRaid5 {
        fn new(n: usize, chunk_size: usize, bw: BandwidthModel) -> Self {
            RestripeRaid5 {
                bw,
                chunk_size,
                nodes: vec![HashMap::new(); n],
                sizes: HashMap::new(),
                failed: None,
            }
        }

        fn fail_node(&mut self, node: usize) {
            self.failed = Some(node);
        }

        fn fail_node_losing_data(&mut self, node: usize) {
            self.fail_node(node);
            self.nodes[node].clear();
        }

        fn repair_node(&mut self) -> Receipt {
            let Some(dead) = self.failed else {
                return Receipt {
                    bytes: 0,
                    seconds: 0.0,
                };
            };
            let mut rebuilt_chunks = 0u64;
            let names: Vec<String> = self.sizes.keys().cloned().collect();
            for name in names {
                let rows = self
                    .nodes
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != dead)
                    .filter_map(|(_, node)| node.get(&name))
                    .map(Vec::len)
                    .max()
                    .unwrap_or(0);
                if self.nodes[dead].get(&name).map_or(0, Vec::len) == rows {
                    continue;
                }
                let mut rebuilt = Vec::with_capacity(rows);
                for row in 0..rows {
                    match self.reconstruct_chunk(&name, row, dead) {
                        Some(c) => rebuilt.push(c),
                        None => break,
                    }
                }
                if rebuilt.len() == rows {
                    rebuilt_chunks += rows as u64;
                    self.nodes[dead].insert(name, rebuilt);
                }
            }
            self.failed = None;
            let bytes = rebuilt_chunks * self.nodes.len() as u64 * self.chunk_size as u64;
            Receipt {
                bytes,
                seconds: self.bw.transfer_time(bytes),
            }
        }

        fn reconstruct_chunk(&self, name: &str, row: usize, dead: usize) -> Option<Bytes> {
            let mut acc = vec![0u8; self.chunk_size];
            for (i, node) in self.nodes.iter().enumerate() {
                if i == dead {
                    continue;
                }
                let chunk = node.get(name)?.get(row)?;
                for (a, b) in acc.iter_mut().zip(chunk.iter()) {
                    *a ^= b;
                }
            }
            Some(Bytes::from(acc))
        }

        fn stripe(&mut self, name: &str, data: &Bytes) -> usize {
            let n = self.nodes.len();
            let data_chunks_per_row = n - 1;
            self.sizes.insert(name.to_string(), data.len());
            for (i, node) in self.nodes.iter_mut().enumerate() {
                if Some(i) == self.failed {
                    node.remove(name);
                } else {
                    node.insert(name.to_string(), Vec::new());
                }
            }
            let row_bytes = self.chunk_size * data_chunks_per_row;
            let total_rows = if data.is_empty() {
                1
            } else {
                data.len().div_ceil(row_bytes)
            };
            for row in 0..total_rows {
                let mut chunks: Vec<Vec<u8>> = Vec::with_capacity(data_chunks_per_row);
                for d in 0..data_chunks_per_row {
                    let start = (row * row_bytes + d * self.chunk_size).min(data.len());
                    let end = (start + self.chunk_size).min(data.len());
                    let mut c = vec![0u8; self.chunk_size];
                    c[..end - start].copy_from_slice(&data[start..end]);
                    chunks.push(c);
                }
                let mut parity = vec![0u8; self.chunk_size];
                for c in &chunks {
                    for (p, b) in parity.iter_mut().zip(c.iter()) {
                        *p ^= b;
                    }
                }
                let parity_node = (n - 1) - (row % n);
                let mut data_iter = chunks.into_iter();
                for node_idx in 0..n {
                    let chunk = if node_idx == parity_node {
                        Bytes::from(parity.clone())
                    } else {
                        Bytes::from(data_iter.next().expect("one data chunk per node"))
                    };
                    if Some(node_idx) == self.failed {
                        continue;
                    }
                    self.nodes[node_idx]
                        .get_mut(name)
                        .expect("initialized above")
                        .push(chunk);
                }
            }
            total_rows
        }

        fn writes_per_row(&self) -> usize {
            self.nodes.len() - usize::from(self.failed.is_some())
        }

        fn put(&mut self, name: &str, data: Bytes) -> Receipt {
            let total_rows = self.stripe(name, &data);
            let wire_bytes = (total_rows * self.writes_per_row() * self.chunk_size) as u64;
            Receipt {
                bytes: wire_bytes,
                seconds: self.bw.transfer_time(wire_bytes),
            }
        }

        fn append(&mut self, name: &str, data: Bytes) -> Receipt {
            let Some(&old_len) = self.sizes.get(name) else {
                return self.put(name, data);
            };
            let row_bytes = self.chunk_size * (self.nodes.len() - 1);
            let combined = match self.get(name) {
                Some(existing) => {
                    let mut v = existing.to_vec();
                    v.extend_from_slice(&data);
                    Bytes::from(v)
                }
                None => data,
            };
            let first_dirty_row = old_len / row_bytes;
            let total_rows = self.stripe(name, &combined);
            let touched = total_rows.saturating_sub(first_dirty_row).max(1);
            let wire_bytes = (touched * self.writes_per_row() * self.chunk_size) as u64;
            Receipt {
                bytes: wire_bytes,
                seconds: self.bw.transfer_time(wire_bytes),
            }
        }

        fn get(&self, name: &str) -> Option<Bytes> {
            let size = *self.sizes.get(name)?;
            let n = self.nodes.len();
            let rows = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(i, _)| Some(*i) != self.failed)
                .find_map(|(_, node)| node.get(name))
                .map(Vec::len)?;
            let mut out = Vec::with_capacity(size);
            for row in 0..rows {
                let parity_node = (n - 1) - (row % n);
                for node_idx in 0..n {
                    if node_idx == parity_node {
                        continue;
                    }
                    let chunk: Bytes = if Some(node_idx) == self.failed {
                        self.reconstruct_chunk(name, row, node_idx)?
                    } else {
                        self.nodes[node_idx].get(name)?.get(row)?.clone()
                    };
                    out.extend_from_slice(&chunk);
                }
            }
            if out.len() < size {
                return None;
            }
            out.truncate(size);
            Some(Bytes::from(out))
        }

        fn read_receipt(&self, name: &str) -> Option<Receipt> {
            self.sizes.get(name)?;
            let n = self.nodes.len();
            let rows = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(i, _)| Some(*i) != self.failed)
                .find_map(|(_, node)| node.get(name))
                .map(Vec::len)?;
            let mut chunks = rows as u64 * (n as u64 - 1);
            if let Some(dead) = self.failed {
                chunks += (0..rows).filter(|row| (n - 1) - (row % n) != dead).count() as u64;
            }
            let bytes = chunks * self.chunk_size as u64;
            Some(Receipt {
                bytes,
                seconds: self.bw.transfer_time(bytes),
            })
        }

        fn delete(&mut self, name: &str) -> bool {
            let existed = self.sizes.remove(name).is_some();
            for node in &mut self.nodes {
                node.remove(name);
            }
            existed
        }

        fn stored_bytes(&self) -> u64 {
            self.nodes
                .iter()
                .flat_map(|n| n.values())
                .flat_map(|rows| rows.iter())
                .map(|c| c.len() as u64)
                .sum()
        }

        /// Node `i`'s chunks of `name`, end to end.
        fn node_bytes(&self, i: usize, name: &str) -> Option<Vec<u8>> {
            self.nodes[i]
                .get(name)
                .map(|rows| rows.iter().flat_map(|c| c.to_vec()).collect())
        }
    }

    /// Assert the in-place group and the re-striping reference hold the
    /// same bytes on every node and read back the same objects.
    fn assert_same_group(g: &Raid5Group, r: &RestripeRaid5, names: &[&str], rng: &mut StdRng) {
        assert_eq!(g.stored_bytes(), r.stored_bytes());
        assert_eq!(g.failed, r.failed);
        for name in names {
            for i in 0..g.node_count() {
                assert_eq!(
                    g.nodes[i].get(*name).cloned(),
                    r.node_bytes(i, name),
                    "node {i} object {name}"
                );
            }
            let whole = g.get(name);
            assert_eq!(whole, r.get(name), "object {name}");
            assert_eq!(g.read_receipt(name), r.read_receipt(name), "object {name}");
            assert_eq!(g.object_len(name), r.sizes.get(*name).copied());
            let Some(whole) = whole else { continue };
            for _ in 0..4 {
                let o = rng.gen_range(0..whole.len() + 1);
                let l = rng.gen_range(0..whole.len() - o + 1);
                assert_eq!(g.read_range(name, o, l).unwrap(), whole.slice(o..o + l));
            }
            assert!(g.read_range(name, whole.len(), 1).is_none());
            assert!(g.read_range(name, 0, whole.len() + 1).is_none());
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Random put / append / fail / repair / delete schedules over two
        // objects: the in-place group must stay byte-identical to the
        // full re-stripe on every node, in stored bytes and in receipts,
        // with ranged reads equal to slices of the whole object on healthy
        // and degraded groups alike.
        #[test]
        fn in_place_raid5_matches_full_restripe(
            n in 3usize..6,
            ops in prop_vec((0u8..8, 0u8..2, 0u8..4, 0u16..400, 0u8..6), 1..40)
        ) {
            let bw = BandwidthModel::new(1e6, 1e-3);
            let chunk = 16;
            let row = chunk * (n - 1);
            let mut g = Raid5Group::new(n, chunk, bw);
            let mut r = RestripeRaid5::new(n, chunk, bw);
            let names = ["a", "b"];
            let mut rng = StdRng::seed_from_u64(n as u64);
            for (step, &(op, which, shape, len, node)) in ops.iter().enumerate() {
                let name = names[which as usize];
                // Empty, exact-row-multiple, sub-row and multi-row sizes.
                let len = match shape {
                    0 => 0,
                    1 => row * (1 + len as usize % 3),
                    2 => len as usize % row,
                    _ => len as usize,
                };
                let data = random_bytes(len, step as u64);
                let node = node as usize % n;
                match op {
                    0 | 1 => prop_assert_eq!(g.put(name, data.clone()), r.put(name, data)),
                    2..=4 => prop_assert_eq!(g.append(name, data.clone()), r.append(name, data)),
                    5 if !g.is_degraded() => {
                        g.fail_node(node);
                        r.fail_node(node);
                    }
                    6 if !g.is_degraded() => {
                        g.fail_node_losing_data(node);
                        r.fail_node_losing_data(node);
                    }
                    5 | 6 => prop_assert_eq!(g.repair_node(), r.repair_node()),
                    _ => prop_assert_eq!(g.delete(name), r.delete(name)),
                }
                assert_same_group(&g, &r, &names, &mut rng);
            }
        }
    }
}
