//! The per-node queue-pair pool.
//!
//! QP creation is a control-plane operation orders of magnitude slower
//! than the data path (Swift, PAPERS.md): the NIC allocates connection
//! state over PCIe config cycles and the driver round-trips the kernel.
//! Under connect/disconnect churn that cost lands on every arriving
//! client's time-to-first-RPC. The pool removes it from the hot path:
//! released QPs are *reset* (verbs modify-to-RESET — state back to
//! `Init`, peer cleared, lease epoch bumped) instead of destroyed, and
//! the next lease recycles one by rebinding its CQs — paying
//! [`CostModel::ctrl_reset_qp_ns`](crate::CostModel) instead of
//! [`CostModel::ctrl_create_qp_ns`](crate::CostModel).
//!
//! A background refill task (spawned through the clock seam when
//! `low_watermark > 0`) tops the pool back up off the connect path, so a
//! connect storm that drains the free list returns to warm leases
//! without any client paying the creation cost.
//!
//! `take`/`put` are allocation-free (`cargo xtask lint` hot-alloc entry
//! points via [`Node::lease_qp`](crate::Node::lease_qp) /
//! [`Node::release_qp`](crate::Node::release_qp)): the free list is a
//! `Vec` preallocated to `capacity` and never grown past it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::qp::Qp;

/// Configuration for a node's QP pool.
#[derive(Debug, Clone)]
pub struct QpPoolConfig {
    /// Maximum recycled QPs retained; releases beyond this destroy. `0`
    /// (the default) turns the pool off: every lease cold-creates and
    /// every release destroys — the un-elastic baseline.
    pub capacity: usize,
    /// Background refill threshold: when the free list drops below this,
    /// the node's refill task cold-creates QPs into the pool (off the
    /// connect path). `0` disables the refill task.
    pub low_watermark: usize,
    /// QPs created per refill round.
    pub refill_batch: usize,
    /// Interval between refill checks (virtual or wall nanoseconds).
    pub refill_interval_ns: u64,
}

impl Default for QpPoolConfig {
    fn default() -> Self {
        QpPoolConfig {
            capacity: 0,
            low_watermark: 0,
            refill_batch: 8,
            refill_interval_ns: 50_000,
        }
    }
}

/// Pool counters (atomically updated; `Relaxed` — statistics only).
#[derive(Debug, Default)]
pub struct QpPoolStats {
    /// Total leases served.
    pub leases: AtomicU64,
    /// Leases served from the free list (reset + rebind, no creation).
    pub warm: AtomicU64,
    /// Leases that fell through to a cold `create_qp`.
    pub cold: AtomicU64,
    /// QPs released back into the pool.
    pub recycled: AtomicU64,
    /// Releases that found the pool full (QP destroyed instead).
    pub discarded: AtomicU64,
    /// QPs created by the background refill task.
    pub refilled: AtomicU64,
}

impl QpPoolStats {
    pub(crate) fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A LIFO free list of reset queue pairs.
///
/// LIFO keeps the most recently used QP's NIC-cache state warmest, and
/// makes lease order deterministic under the virtual lab.
#[derive(Debug)]
pub struct QpPool {
    cfg: QpPoolConfig,
    free: Mutex<Vec<Arc<Qp>>>,
    stats: QpPoolStats,
}

impl QpPool {
    /// Build a pool from its configuration.
    pub fn new(cfg: QpPoolConfig) -> QpPool {
        QpPool {
            free: Mutex::new(Vec::with_capacity(cfg.capacity)),
            cfg,
            stats: QpPoolStats::default(),
        }
    }

    /// The pool's configuration.
    pub fn config(&self) -> &QpPoolConfig {
        &self.cfg
    }

    /// Pool counters.
    pub fn stats(&self) -> &QpPoolStats {
        &self.stats
    }

    /// Number of QPs currently pooled.
    pub fn len(&self) -> usize {
        self.free.lock().len()
    }

    /// Whether the free list is empty.
    pub fn is_empty(&self) -> bool {
        self.free.lock().is_empty()
    }

    /// Pop the most recently released QP, if any. Allocation-free.
    pub(crate) fn take(&self) -> Option<Arc<Qp>> {
        self.free.lock().pop()
    }

    /// Offer a reset QP back to the pool. Returns `false` (caller must
    /// destroy) when the pool is off or full. Allocation-free: the free
    /// list never grows past its preallocated capacity.
    pub(crate) fn put(&self, qp: Arc<Qp>) -> bool {
        let mut free = self.free.lock();
        if free.len() >= self.cfg.capacity {
            return false;
        }
        free.push(qp);
        true
    }

    /// Whether the refill task should create more QPs right now.
    pub(crate) fn below_watermark(&self) -> bool {
        self.cfg.capacity > 0
            && self.cfg.low_watermark > 0
            && self.free.lock().len() < self.cfg.low_watermark
    }
}
