//! Benchmark-only residue of the retired coordinator decomposition
//! cache: an exact-hit memo of `(x0, r, B) → DcDecomposition` with one
//! eviction order. No run path consults it; it survives only because the
//! frozen benchmark package (`crates/bench/src/bin/benchmark`) replays its
//! recorded full-sync keys through it for the `core.cache.*` rows
//! (DESIGN.md §3.11; EXPERIMENTS.md has the measurements that retired it).
//!
//! Entries are indexed by [`CacheKey`] (function id, `floor(x0_i / cell)`
//! per coordinate, `floor(log2 r)`); a hit additionally requires the
//! stored `x0`, `r` and box to be bit-identical to the query. Eviction is
//! segmented LRU on ordered structures only, so the same operation
//! sequence always gives the same eviction sequence.

use std::collections::BTreeMap;

use crate::adcd::DcDecomposition;
use crate::safezone::NeighborhoodBox;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Configuration for [`DecompCache`].
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
            cell: DEFAULT_CELL,
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
struct CacheKey {
    /// Identifies the monitored function.
    fn_id: u64,
    /// `floor(x0_i / cell)` per coordinate.
    cell: Vec<i64>,
    /// `floor(log2 r)`.
    radius_bucket: i32,
}

impl CacheKey {
    /// Quantize `(fn_id, x0, r)` into its cache cell.
    fn quantize(fn_id: u64, x0: &[f64], r: f64, cell: f64) -> Self {
        Self {
            fn_id,
            cell: quantize_cell(x0, cell),
            radius_bucket: radius_bucket(r),
        }
    }
}

/// Default cell width of the `x0` grid.
const DEFAULT_CELL: f64 = 1e-3;

/// Quantize a vector onto the cell grid: `floor(x_i / cell)` per
/// coordinate. Non-positive `cell` widths fall back to [`DEFAULT_CELL`].
fn quantize_cell(x: &[f64], cell: f64) -> Vec<i64> {
    let cell = sanitize_cell(cell);
    x.iter().map(|&v| (v / cell).floor() as i64).collect()
}

/// The sanitized cell width [`quantize_cell`] actually divides by.
fn sanitize_cell(cell: f64) -> f64 {
    if cell > 0.0 {
        cell
    } else {
        DEFAULT_CELL
    }
}

/// Bucket a neighborhood radius: `floor(log2 r)`, with non-finite or
/// non-positive radii collapsed into a single sentinel bucket.
fn radius_bucket(r: f64) -> i32 {
    if r.is_finite() && r > 0.0 {
        r.log2().floor() as i32
    } else {
        i32::MIN
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

/// Hit/miss bookkeeping.
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

/// The exact-hit decomposition memo. See the module docs.
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
    fn quantization_floors_per_coordinate() {
        assert_eq!(quantize_cell(&[0.0, 1.0, -1.0], 1.0), vec![0, 1, -1]);
        // floor, not truncate: negative values round away from zero.
        assert_eq!(quantize_cell(&[-0.0001], 1e-3), vec![-1]);
        assert_eq!(quantize_cell(&[0.0029, 0.0031], 1e-3), vec![2, 3]);
    }

    #[test]
    fn bad_cell_widths_fall_back_to_default() {
        assert_eq!(
            quantize_cell(&[0.5], 0.0),
            quantize_cell(&[0.5], DEFAULT_CELL)
        );
        assert_eq!(
            quantize_cell(&[0.5], -2.0),
            quantize_cell(&[0.5], DEFAULT_CELL)
        );
        assert_eq!(sanitize_cell(f64::NAN.min(0.0)), DEFAULT_CELL);
    }

    #[test]
    fn radius_buckets_are_log2_floors() {
        assert_eq!(radius_bucket(1.0), 0);
        assert_eq!(radius_bucket(2.0), 1);
        assert_eq!(radius_bucket(3.9), 1);
        assert_eq!(radius_bucket(0.5), -1);
        assert_eq!(radius_bucket(0.0), i32::MIN);
        assert_eq!(radius_bucket(-1.0), i32::MIN);
        assert_eq!(radius_bucket(f64::INFINITY), i32::MIN);
        assert_eq!(radius_bucket(f64::NAN), i32::MIN);
    }
}
