//! The MR registration cache.
//!
//! `ibv_reg_mr` pins pages and installs MTT/MPT entries — a control-
//! plane cost that scales with region size and dominates connection
//! setup for ring-buffer-sized registrations (Swift, PAPERS.md). The
//! cache parks deregistration candidates instead of tearing them down,
//! keyed by *layout* (`(len, access bits)`): a connection being built
//! reuses a parked region of identical layout and pays only a buffer
//! zeroing ([`CostModel::memset_time`](crate::CostModel)) instead of the
//! full registration penalty
//! ([`CostModel::reg_mr_time`](crate::CostModel)).
//!
//! Zeroing on reuse is not an optimization detail — it is required for
//! correctness: Flock rings validate slot canaries, and a recycled
//! buffer still holds the previous connection's canary sequence.
//!
//! Bookkeeping rides the existing [`ConnCache`] LRU infrastructure: each
//! parked region is an entry keyed by its lkey. Acquire records exactly
//! one hit (warm reuse) or miss (cold registration) through
//! [`ConnCache::access`]; parking uses the stats-neutral
//! [`ConnCache::insert_quiet`]; capacity is enforced with
//! [`ConnCache::pop_lru`], which names the region to actually
//! deregister.

use std::collections::HashMap;
use std::sync::Arc;

use crate::cache::ConnCache;
use crate::mr::{Access, MemoryRegion};

/// Configuration for a node's MR registration cache.
#[derive(Debug, Clone, Default)]
pub struct MrCacheConfig {
    /// Maximum parked regions retained across all layouts. `0` (the
    /// default) turns the cache off: every acquire registers cold and
    /// every release deregisters.
    pub capacity: usize,
}

/// Layout key: regions are interchangeable iff length and rights match.
type Layout = (usize, u8);

/// A layout-keyed cache of parked (registered but unleased) regions.
#[derive(Debug)]
pub struct MrCache {
    cfg: MrCacheConfig,
    /// Parked regions per layout, LIFO (most recently parked reused
    /// first — its pages are warmest).
    layouts: HashMap<Layout, Vec<Arc<MemoryRegion>>>,
    /// Parked regions by lkey, so [`ConnCache::pop_lru`] victims can be
    /// resolved back to a region.
    by_key: HashMap<u64, Arc<MemoryRegion>>,
    /// LRU order + hit/miss statistics over parked regions. Sized with
    /// slack above `cfg.capacity` (capacity is enforced here, via
    /// `pop_lru`) so the inner cache never silently evicts on its own.
    index: ConnCache,
}

impl MrCache {
    /// Build a cache from its configuration.
    pub fn new(cfg: MrCacheConfig) -> MrCache {
        let slack = cfg.capacity.max(1) + 2;
        MrCache {
            cfg,
            layouts: HashMap::new(),
            by_key: HashMap::new(),
            index: ConnCache::new(slack),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &MrCacheConfig {
        &self.cfg
    }

    /// Warm acquires so far (reused a parked region).
    pub fn hits(&self) -> u64 {
        self.index.hits()
    }

    /// Cold acquires so far (fresh registration).
    pub fn misses(&self) -> u64 {
        self.index.misses()
    }

    /// Parked regions deregistered to enforce capacity.
    pub fn evictions(&self) -> u64 {
        self.index.evictions()
    }

    /// Number of parked regions.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether no regions are parked.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Try to reuse a parked region of layout `(len, access)`. On
    /// success the region leaves the cache and a hit is recorded; on
    /// `None` a miss is recorded (the caller registers cold).
    pub(crate) fn take(&mut self, len: usize, access: Access) -> Option<Arc<MemoryRegion>> {
        if self.cfg.capacity == 0 {
            return None;
        }
        let layout: Layout = (len, access.bits());
        let mr = self.layouts.get_mut(&layout).and_then(|v| v.pop());
        match mr {
            Some(mr) => {
                let key = mr.lkey().0 as u64;
                self.by_key.remove(&key);
                self.index.access(key); // hit: parked at release
                self.index.invalidate(key); // leased out, leaves LRU
                Some(mr)
            }
            None => {
                // Record the miss against a key that is guaranteed
                // absent, then drop it again: the cold region being
                // registered by the caller is leased, not parked.
                let probe = u64::MAX ^ (len as u64);
                self.index.access(probe);
                self.index.invalidate(probe);
                None
            }
        }
    }

    /// Park a region for reuse. Returns the regions evicted to enforce
    /// capacity — the caller owns their teardown (deregistration and
    /// cost accounting). When the cache is off the offered region itself
    /// comes back as the single "eviction".
    pub(crate) fn put(&mut self, mr: Arc<MemoryRegion>) -> Vec<Arc<MemoryRegion>> {
        if self.cfg.capacity == 0 {
            return vec![mr];
        }
        let key = mr.lkey().0 as u64;
        let layout: Layout = (mr.len(), mr.access().bits());
        self.layouts.entry(layout).or_default().push(Arc::clone(&mr));
        self.by_key.insert(key, mr);
        self.index.insert_quiet(key);
        let mut evicted = Vec::new();
        while self.by_key.len() > self.cfg.capacity {
            let Some(victim_key) = self.index.pop_lru() else {
                break;
            };
            if let Some(victim) = self.by_key.remove(&victim_key) {
                let vl: Layout = (victim.len(), victim.access().bits());
                if let Some(list) = self.layouts.get_mut(&vl) {
                    if let Some(pos) = list.iter().position(|m| m.lkey() == victim.lkey()) {
                        list.swap_remove(pos);
                    }
                }
                evicted.push(victim);
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mr::MrTable;

    fn cache(capacity: usize) -> MrCache {
        MrCache::new(MrCacheConfig { capacity })
    }

    #[test]
    fn cold_then_warm_roundtrip() {
        let t = MrTable::new();
        let mut c = cache(8);
        assert!(c.take(1024, Access::REMOTE_WRITE).is_none());
        assert_eq!(c.misses(), 1);
        let mr = t.register(1024, Access::REMOTE_WRITE);
        assert!(c.put(mr).is_empty());
        let back = c.take(1024, Access::REMOTE_WRITE).expect("warm");
        assert_eq!(back.len(), 1024);
        assert_eq!(c.hits(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn layouts_do_not_cross() {
        let t = MrTable::new();
        let mut c = cache(8);
        c.put(t.register(1024, Access::REMOTE_WRITE));
        // Different length and different rights both miss.
        assert!(c.take(2048, Access::REMOTE_WRITE).is_none());
        assert!(c.take(1024, Access::LOCAL).is_none());
        assert_eq!(c.misses(), 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_evicts_lru_region() {
        let t = MrTable::new();
        let mut c = cache(2);
        let a = t.register(64, Access::LOCAL);
        let b = t.register(64, Access::LOCAL);
        let d = t.register(64, Access::LOCAL);
        let a_lkey = a.lkey();
        assert!(c.put(a).is_empty());
        assert!(c.put(b).is_empty());
        let evicted = c.put(d);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].lkey(), a_lkey, "oldest parked region goes");
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn disabled_cache_returns_region_to_caller() {
        let t = MrTable::new();
        let mut c = MrCache::new(MrCacheConfig::default());
        assert!(c.take(64, Access::LOCAL).is_none());
        let mr = t.register(64, Access::LOCAL);
        let back = c.put(mr);
        assert_eq!(back.len(), 1);
        assert!(c.is_empty());
        // Off (capacity 0): stats stay silent.
        assert_eq!(c.hits() + c.misses(), 0);
    }

    #[test]
    fn lifo_reuse_prefers_most_recently_parked() {
        let t = MrTable::new();
        let mut c = cache(8);
        let a = t.register(64, Access::LOCAL);
        let b = t.register(64, Access::LOCAL);
        let b_lkey = b.lkey();
        c.put(a);
        c.put(b);
        assert_eq!(c.take(64, Access::LOCAL).unwrap().lkey(), b_lkey);
    }
}
