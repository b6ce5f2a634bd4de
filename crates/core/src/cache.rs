//! Coordinator-side decomposition cache: an exact-hit memo with one
//! eviction order.
//!
//! ADCD decomposition is the full-sync hot path: every violation that
//! lazy sync cannot absorb pays a QL or Lanczos eigendecomposition at
//! the new reference point `x0`. The coordinator can remember
//! `(x0, r) → Decomposition` and skip the eigensolve entirely when an
//! identical sync recurs — a periodic stream, or a fleet whose leaves
//! share one cache — at ~0.2 µs against 0.6–2.5 ms.
//!
//! # Keying and the bit-identity contract
//!
//! Entries are indexed by [`CacheKey`]: the function id, the quantized
//! `x0` cell (`floor(x0_i / cell)` per coordinate), and the radius
//! bucket (`floor(log2 r)`). The key is only an *index*; correctness
//! never depends on the quantization. A **hit** additionally requires
//! the stored `x0`, `r`, and neighborhood box to be bit-identical to
//! the query — and since [`crate::adcd::decompose`] is deterministic,
//! replaying the stored [`DcDecomposition`] is bit-for-bit what a fresh
//! decomposition would have produced. This is what makes cache-on runs
//! byte-identical to cache-off runs. Nothing but an exact hit is ever
//! reused.
//!
//! # Eviction
//!
//! One order, segmented LRU: new entries land in a probationary
//! segment and only a hit promotes them into the protected segment
//! (capped at 4/5 of capacity); victims come from the probationary LRU
//! end, so one-shot violation probes wash through without displacing a
//! key that has recurred. It is built on ordered structures only
//! (`BTreeMap`-backed recency lists, no `HashMap` iteration), so the
//! same operation sequence always produces the same eviction sequence,
//! keeping the simulator's determinism contract intact.
//!
//! Why one order and exact hits only: on every trace measured so far
//! a drifting stream never returns to a bit-identical reference point,
//! so there is no recurrence for a smarter policy or a near-hit seed
//! to exploit (DESIGN.md §3.11 has the numbers).
//!
//! This module also hosts [`SlotList`], the intrusive slot-index
//! recency list backing the coordinator's lazy-sync node LRU (§3.5):
//! same iteration order as the `VecDeque` it replaces, but touch is
//! O(1) instead of an O(n) scan.

use std::collections::BTreeMap;
use std::sync::{Arc, MutexGuard};

use parking_lot::Mutex;

use crate::adcd::DcDecomposition;
use crate::safezone::NeighborhoodBox;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Configuration for the coordinator decomposition cache.
#[derive(Debug, Clone, PartialEq)]
pub struct DecompCacheConfig {
    /// Maximum resident entries (≥ 1).
    pub capacity: usize,
    /// Quantization cell width for the `x0` grid (> 0).
    pub cell: f64,
}

impl Default for DecompCacheConfig {
    fn default() -> Self {
        Self {
            capacity: 64,
            cell: 1e-3,
        }
    }
}

// ---------------------------------------------------------------------------
// Cache key
// ---------------------------------------------------------------------------

/// Index key: `(function id, quantized x0 cell, radius bucket)`.
///
/// Two different `(x0, r)` pairs may share a key; the key only routes
/// a lookup to a candidate entry, and [`DecompCache::lookup`] then
/// compares the stored exact inputs bitwise before declaring a hit.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// Identifies the monitored function (coordinators sharing a cache
    /// across a fleet must use distinct ids per function).
    pub fn_id: u64,
    /// `floor(x0_i / cell)` per coordinate.
    pub cell: Vec<i64>,
    /// `floor(log2 r)`.
    pub radius_bucket: i32,
}

impl CacheKey {
    /// Quantize `(fn_id, x0, r)` into its cache cell. The cell and
    /// radius arithmetic is the shared [`crate::quant`] helper, so the
    /// fleet's shard router buckets reference points onto exactly this
    /// grid.
    pub fn quantize(fn_id: u64, x0: &[f64], r: f64, cell: f64) -> Self {
        Self {
            fn_id,
            cell: crate::quant::quantize_cell(x0, cell),
            radius_bucket: crate::quant::radius_bucket(r),
        }
    }
}

// ---------------------------------------------------------------------------
// Eviction order
// ---------------------------------------------------------------------------

/// An ordered set with O(log n) LRU→MRU operations, backed by
/// `BTreeMap`s so iteration order is deterministic.
#[derive(Debug, Default)]
struct RecencyList {
    /// seq → key, ascending seq = LRU → MRU.
    order: BTreeMap<u64, CacheKey>,
    /// key → seq.
    seq_of: BTreeMap<CacheKey, u64>,
    next_seq: u64,
}

impl RecencyList {
    fn len(&self) -> usize {
        self.order.len()
    }

    fn contains(&self, key: &CacheKey) -> bool {
        self.seq_of.contains_key(key)
    }

    /// Insert or refresh `key` at the MRU end.
    fn push_mru(&mut self, key: &CacheKey) {
        if let Some(seq) = self.seq_of.remove(key) {
            self.order.remove(&seq);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.order.insert(seq, key.clone());
        self.seq_of.insert(key.clone(), seq);
    }

    /// Remove and return the LRU key.
    fn pop_lru(&mut self) -> Option<CacheKey> {
        let (&seq, _) = self.order.iter().next()?;
        let key = self.order.remove(&seq).expect("seq present");
        self.seq_of.remove(&key);
        Some(key)
    }

    /// Remove `key` if present; reports whether it was.
    fn remove(&mut self, key: &CacheKey) -> bool {
        match self.seq_of.remove(key) {
            Some(seq) => {
                self.order.remove(&seq);
                true
            }
            None => false,
        }
    }
}

/// Segmented LRU over the resident keys: a probationary segment
/// absorbs first-time entries; a hit promotes into the protected
/// segment (capped at 4/5 of capacity, overflow demoting back to
/// probationary MRU). Victims come from the probationary LRU end, so
/// scan traffic cannot displace the protected working set. Tracks
/// residency order only; [`DecompCache`] owns the entries.
#[derive(Debug)]
struct SegmentedLru {
    capacity: usize,
    protected_cap: usize,
    probationary: RecencyList,
    protected: RecencyList,
}

impl SegmentedLru {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            protected_cap: capacity * 4 / 5,
            probationary: RecencyList::default(),
            protected: RecencyList::default(),
        }
    }

    /// A resident key was accessed.
    fn on_hit(&mut self, key: &CacheKey) {
        if self.probationary.remove(key) {
            self.protected.push_mru(key);
            while self.protected.len() > self.protected_cap {
                let demoted = self.protected.pop_lru().expect("overflowing");
                self.probationary.push_mru(&demoted);
            }
        } else if self.protected.contains(key) {
            self.protected.push_mru(key);
        }
    }

    /// A non-resident key is being inserted; returns the resident key
    /// to evict when that overflows the capacity.
    fn on_insert(&mut self, key: &CacheKey) -> Option<CacheKey> {
        self.probationary.push_mru(key);
        if self.probationary.len() + self.protected.len() > self.capacity {
            // Probationary holds at least the key just inserted, and
            // protected ≤ protected_cap < capacity keeps the new key
            // from being its own victim.
            let victim = self.probationary.pop_lru().expect("non-empty");
            debug_assert_ne!(&victim, key, "insert evicted itself");
            Some(victim)
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// The decomposition cache
// ---------------------------------------------------------------------------

/// Hit/miss bookkeeping, mirrored into `automon_coord_decomp_cache_*`
/// metrics by the coordinator. Never part of `CoordinatorStats`, so
/// monitoring output stays bit-identical with the cache on or off.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Hits (decomposition reused outright).
    pub hits: u64,
    /// Lookups that found nothing reusable.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted.
    pub evictions: u64,
}

/// One cached decomposition with the exact inputs that produced it.
#[derive(Debug)]
struct CacheEntry {
    x0: Vec<f64>,
    r: f64,
    /// Captures domain clamping.
    neighborhood: NeighborhoodBox,
    dec: DcDecomposition,
}

/// Outcome of a [`DecompCache::lookup`].
#[derive(Debug, Clone)]
pub enum CacheLookup {
    /// Stored inputs are bit-identical: reuse the decomposition.
    Exact(DcDecomposition),
    /// Nothing reusable.
    Miss,
}

/// Type of [`DecompCache::insert`]'s vestigial sixth parameter. The
/// cross-sync Lanczos warm start it carried is gone, but the frozen
/// benchmark package (`crates/bench/src/bin/benchmark/src/layers.rs`)
/// still passes `None` there; uninhabited, so `None` is all a caller
/// can pass. Goes away with the parameter once a `benchmark` PR drops
/// the argument.
#[derive(Debug, Clone, PartialEq)]
pub enum RitzSeeds {}

/// The coordinator decomposition cache. See the module docs for the
/// keying scheme and the bit-identity contract.
#[derive(Debug)]
pub struct DecompCache {
    cfg: DecompCacheConfig,
    order: SegmentedLru,
    entries: BTreeMap<CacheKey, CacheEntry>,
    stats: CacheStats,
}

impl DecompCache {
    /// An empty cache under `cfg`.
    pub fn new(cfg: DecompCacheConfig) -> Self {
        let order = SegmentedLru::new(cfg.capacity.max(1));
        Self {
            cfg,
            order,
            entries: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum resident entries.
    pub fn capacity(&self) -> usize {
        self.order.capacity
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats.clone()
    }

    /// Look up `(fn_id, x0, r)` with neighborhood `b`. A hit requires
    /// the stored `x0`, `r`, and box to be bit-identical.
    pub fn lookup(
        &mut self,
        fn_id: u64,
        x0: &[f64],
        r: f64,
        b: &NeighborhoodBox,
    ) -> CacheLookup {
        let key = CacheKey::quantize(fn_id, x0, r, self.cfg.cell);
        if let Some(e) = self.entries.get(&key) {
            if bits_eq(&e.x0, x0) && e.r.to_bits() == r.to_bits() && e.neighborhood == *b {
                let dec = e.dec.clone();
                self.order.on_hit(&key);
                self.stats.hits += 1;
                return CacheLookup::Exact(dec);
            }
        }
        self.stats.misses += 1;
        CacheLookup::Miss
    }

    /// Insert (or refresh) the decomposition computed for
    /// `(fn_id, x0, r, b)`; reports whether a resident entry was
    /// evicted to make room. The last parameter is ignored (see
    /// [`RitzSeeds`]).
    pub fn insert(
        &mut self,
        fn_id: u64,
        x0: &[f64],
        r: f64,
        b: NeighborhoodBox,
        dec: DcDecomposition,
        _: Option<RitzSeeds>,
    ) -> bool {
        let key = CacheKey::quantize(fn_id, x0, r, self.cfg.cell);
        let entry = CacheEntry {
            x0: x0.to_vec(),
            r,
            neighborhood: b,
            dec,
        };
        let mut evicted = false;
        if self.entries.contains_key(&key) {
            // Same cell, fresher exact inputs: refresh in place.
            self.order.on_hit(&key);
        } else {
            if let Some(victim) = self.order.on_insert(&key) {
                let removed = self.entries.remove(&victim);
                debug_assert!(removed.is_some(), "evicted a non-resident key");
                self.stats.evictions += 1;
                evicted = true;
            }
            self.stats.insertions += 1;
        }
        self.entries.insert(key, entry);
        debug_assert!(self.entries.len() <= self.capacity());
        evicted
    }
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A [`DecompCache`] behind `Arc<Mutex<…>>`, cloneable across the
/// coordinators of a fleet so leaf coordinators share one cache.
#[derive(Debug, Clone)]
pub struct SharedDecompCache(Arc<Mutex<DecompCache>>);

impl SharedDecompCache {
    /// Wrap `cache` for sharing.
    pub fn new(cache: DecompCache) -> Self {
        Self(Arc::new(Mutex::new(cache)))
    }

    /// Build a fresh cache under `cfg` and wrap it.
    pub fn from_config(cfg: DecompCacheConfig) -> Self {
        Self::new(DecompCache::new(cfg))
    }

    /// Lock the underlying cache.
    pub fn lock(&self) -> MutexGuard<'_, DecompCache> {
        self.0.lock()
    }
}

// ---------------------------------------------------------------------------
// Intrusive slot-index recency list (lazy-sync node LRU)
// ---------------------------------------------------------------------------

const NIL: usize = usize::MAX;

/// An intrusive doubly-linked recency list over slot indices
/// `0..n`, backing the coordinator's lazy-sync node LRU (§3.5).
///
/// `touch` is O(1) — unlink (if present) plus push-back — replacing
/// the `VecDeque` + `iter().position()` scan it superseded, with
/// identical front-(least recent)-to-back iteration order.
#[derive(Debug, Clone)]
pub struct SlotList {
    prev: Vec<usize>,
    next: Vec<usize>,
    linked: Vec<bool>,
    head: usize,
    tail: usize,
    len: usize,
}

impl SlotList {
    /// An empty list over `n` slots.
    pub fn new(n: usize) -> Self {
        Self {
            prev: vec![NIL; n],
            next: vec![NIL; n],
            linked: vec![false; n],
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// A list over `n` slots containing `0, 1, …, n-1` in order
    /// (slot 0 least recent).
    pub fn with_all(n: usize) -> Self {
        let mut list = Self::new(n);
        for i in 0..n {
            list.push_back(i);
        }
        list
    }

    /// A list over `n` slots restored from an explicit
    /// front-to-back order (snapshot restore).
    pub fn from_order(n: usize, order: &[usize]) -> Self {
        let mut list = Self::new(n);
        for &i in order {
            list.touch(i);
        }
        list
    }

    /// Linked slot count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slots are linked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `slot` is currently linked.
    pub fn contains(&self, slot: usize) -> bool {
        self.linked.get(slot).copied().unwrap_or(false)
    }

    /// The least recently touched slot.
    pub fn front(&self) -> Option<usize> {
        (self.head != NIL).then_some(self.head)
    }

    /// Move `slot` to the most-recent end (linking it if absent). O(1).
    pub fn touch(&mut self, slot: usize) {
        self.remove(slot);
        self.push_back(slot);
    }

    /// Append `slot` at the most-recent end; it must not be linked.
    pub fn push_back(&mut self, slot: usize) {
        debug_assert!(slot < self.linked.len() && !self.linked[slot]);
        self.prev[slot] = self.tail;
        self.next[slot] = NIL;
        if self.tail != NIL {
            self.next[self.tail] = slot;
        } else {
            self.head = slot;
        }
        self.tail = slot;
        self.linked[slot] = true;
        self.len += 1;
    }

    /// Unlink `slot` if present; reports whether it was linked. O(1).
    pub fn remove(&mut self, slot: usize) -> bool {
        if slot >= self.linked.len() || !self.linked[slot] {
            return false;
        }
        let (p, n) = (self.prev[slot], self.next[slot]);
        if p != NIL {
            self.next[p] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n] = p;
        } else {
            self.tail = p;
        }
        self.prev[slot] = NIL;
        self.next[slot] = NIL;
        self.linked[slot] = false;
        self.len -= 1;
        true
    }

    /// Iterate front (least recent) to back (most recent).
    pub fn iter(&self) -> SlotIter<'_> {
        SlotIter {
            list: self,
            cursor: self.head,
        }
    }
}

/// Iterator over a [`SlotList`], front to back.
#[derive(Debug)]
pub struct SlotIter<'a> {
    list: &'a SlotList,
    cursor: usize,
}

impl Iterator for SlotIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.cursor == NIL {
            return None;
        }
        let slot = self.cursor;
        self.cursor = self.list.next[slot];
        Some(slot)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::adcd::{AdcdKind, SpectralStats};
    use crate::safezone::{Curvature, DcKind};

    fn dummy_dec(tag: f64) -> DcDecomposition {
        DcDecomposition {
            kind: AdcdKind::X,
            dc: DcKind::ConvexDiff,
            curvature: Curvature::Scalar(tag.abs()),
            lambda_min_hat: -tag,
            lambda_max_hat: tag,
            spectral: SpectralStats::default(),
        }
    }

    fn nb(x0: &[f64], r: f64) -> NeighborhoodBox {
        NeighborhoodBox {
            lo: x0.iter().map(|v| v - r).collect(),
            hi: x0.iter().map(|v| v + r).collect(),
        }
    }

    #[test]
    fn quantization_routes_nearby_points_to_one_cell() {
        let a = CacheKey::quantize(7, &[0.50012, -0.25001], 0.5, 1e-3);
        let b = CacheKey::quantize(7, &[0.50098, -0.25099], 0.5, 1e-3);
        let c = CacheKey::quantize(7, &[0.50212, -0.25001], 0.5, 1e-3);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.radius_bucket, -1); // floor(log2 0.5)
        assert_eq!(CacheKey::quantize(7, &[0.0], 1.5, 1e-3).radius_bucket, 0);
    }

    #[test]
    fn exact_hit_requires_bitwise_inputs() {
        let mut cache = DecompCache::new(DecompCacheConfig::default());
        let x0 = [0.5001, 0.5002];
        let b = nb(&x0, 0.25);
        cache.insert(1, &x0, 0.25, b.clone(), dummy_dec(1.0), None);

        assert!(matches!(
            cache.lookup(1, &x0, 0.25, &b),
            CacheLookup::Exact(_)
        ));
        // Same cell, different exact point: not an exact hit.
        let x1 = [0.5001 + 1e-7, 0.5002];
        assert!(matches!(
            cache.lookup(1, &x1, 0.25, &nb(&x1, 0.25)),
            CacheLookup::Miss
        ));
        // Different function id: different key entirely.
        assert!(matches!(cache.lookup(2, &x0, 0.25, &b), CacheLookup::Miss));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut cache = DecompCache::new(DecompCacheConfig {
            capacity: 4,
            ..DecompCacheConfig::default()
        });
        for i in 0..32 {
            let x0 = [i as f64];
            cache.insert(1, &x0, 0.5, nb(&x0, 0.5), dummy_dec(i as f64), None);
            assert!(cache.len() <= 4);
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().evictions, 32 - 4);
    }

    #[test]
    fn recurring_entry_survives_a_scan() {
        let mut cache = DecompCache::new(DecompCacheConfig {
            capacity: 5, // protected cap 4
            ..DecompCacheConfig::default()
        });
        let hot = [100.0];
        let b = nb(&hot, 0.5);
        cache.insert(1, &hot, 0.5, b.clone(), dummy_dec(1.0), None);
        // One hit promotes it out of the probationary segment.
        assert!(matches!(cache.lookup(1, &hot, 0.5, &b), CacheLookup::Exact(_)));
        // A scan of one-shot keys ten capacities long must not evict it.
        for i in 0..50 {
            let x0 = [i as f64];
            cache.insert(1, &x0, 0.5, nb(&x0, 0.5), dummy_dec(0.0), None);
        }
        assert!(matches!(cache.lookup(1, &hot, 0.5, &b), CacheLookup::Exact(_)));
    }

    #[test]
    fn slot_list_matches_vecdeque_reference() {
        use std::collections::VecDeque;
        let n = 8;
        let mut list = SlotList::with_all(n);
        let mut reference: VecDeque<usize> = (0..n).collect();
        assert_eq!(list.iter().collect::<Vec<_>>(), Vec::from(reference.clone()));

        // A deterministic op mix: touch, remove, re-touch.
        let ops: &[(u8, usize)] = &[
            (0, 3),
            (0, 3),
            (0, 0),
            (1, 5),
            (0, 7),
            (1, 3),
            (0, 3),
            (0, 1),
            (1, 0),
            (0, 0),
        ];
        for &(op, slot) in ops {
            match op {
                0 => {
                    if let Some(pos) = reference.iter().position(|&x| x == slot) {
                        reference.remove(pos);
                    }
                    reference.push_back(slot);
                    list.touch(slot);
                }
                _ => {
                    if let Some(pos) = reference.iter().position(|&x| x == slot) {
                        reference.remove(pos);
                    }
                    list.remove(slot);
                }
            }
            assert_eq!(
                list.iter().collect::<Vec<_>>(),
                Vec::from(reference.clone()),
                "diverged after ({op}, {slot})"
            );
            assert_eq!(list.len(), reference.len());
            assert_eq!(list.front(), reference.front().copied());
        }
        let order: Vec<usize> = list.iter().collect();
        let restored = SlotList::from_order(n, &order);
        assert_eq!(restored.iter().collect::<Vec<_>>(), order);
    }
}
