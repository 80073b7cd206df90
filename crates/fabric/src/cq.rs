//! Completion queues.
//!
//! A [`CompletionQueue`] buffers [`Completion`] entries DMA-ed by the NIC
//! engine; applications poll it (`ibv_poll_cq` style).
//!
//! # Design: a lock-free bounded ring with a spill lane
//!
//! The seed implementation was a `Mutex<VecDeque>` plus a condition
//! variable, which charged every completion one lock round-trip and a
//! `notify_all` — the dominant per-completion cost once the NIC engine
//! went multi-lane. The queue is now a bounded MPMC ring in the style of
//! Vyukov's array queue: each cell carries a sequence number, producers
//! claim a slot with one CAS on the enqueue cursor, and the consumer's
//! batched [`CompletionQueue::poll`] claims a whole *run* of ready cells
//! with a single CAS on the dequeue cursor — one synchronization edge
//! per sweep instead of one lock per entry.
//!
//! The common topology is SPSC (one NIC lane completing into a CQ owned
//! by one dispatcher), but nothing enforces it: several lanes may share
//! a CQ (e.g. the server's immediate CQ, or one connection's send CQ
//! covering QPs spread across lanes), so the protocol is MPMC-safe and
//! merely *fast* in the SPSC case.
//!
//! Real CQ overflow is fatal; the seed modeled that by growing without
//! bound and tracking a high-water mark. To preserve those semantics
//! without letting a full ring wedge a NIC lane (completions are pushed
//! from the lane thread; blocking it would deadlock the whole node), a
//! producer that finds the ring full spills into a mutex-protected side
//! deque. The spill is drained — FIFO after everything already in the
//! ring — once the consumer empties the ring, and `high_water` exposes
//! ring + spill depth so tests can still assert on sizing. Entries are
//! never dropped. Once a spill begins, producers keep spilling until the
//! consumer has drained it, so entries pushed by one thread stay ordered
//! in steady state; across producers the queue (like hardware) promises
//! delivery, not a global order, and consumers route by `wr_id`.
//!
//! # Memory-ordering contract
//!
//! * Producer: `Acquire` on the cell sequence (observes the consumer's
//!   recycle of the slot, so writing the payload cannot race the
//!   consumer's read of the previous lap), `Relaxed` CAS on the enqueue
//!   cursor (the cursor only arbitrates *which* producer gets the slot;
//!   the payload handoff rides the cell sequence), `Release` on the
//!   final sequence store (publishes the payload write).
//! * Consumer: `Acquire` per cell sequence while scanning the ready run
//!   (pairs with the producer's `Release`; after it, reading the payload
//!   is ordered), `Relaxed` CAS on the dequeue cursor (monotonic, so no
//!   ABA; claiming is again pure arbitration), `Release` on the recycle
//!   store (publishes the payload *read* — a producer that acquires the
//!   recycled sequence cannot overwrite the slot early).
//!
//! The whole protocol is built on `flock_sync` atomics, so `cargo loom`
//! model-checks it exhaustively (`crates/fabric/tests/loom_cq.rs`).

use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::time::Duration;

use flock_sync::atomic::{AtomicU64, Ordering};
use flock_sync::{AdaptiveBackoff, Arc, CachePadded, UnsafeCell};
use parking_lot::Mutex;

use crate::verbs::Completion;

/// One ring slot: a sequence number driving the Vyukov protocol and the
/// payload it publishes.
struct Cell {
    seq: AtomicU64,
    val: UnsafeCell<MaybeUninit<Completion>>,
}

/// A completion queue shared between the NIC engine (producer) and
/// application threads (consumers). See the module docs for the
/// lock-free design and its memory-ordering contract.
pub struct CompletionQueue {
    /// Ring cells; length is a power of two.
    cells: Box<[Cell]>,
    /// Index mask (`cells.len() - 1`).
    mask: u64,
    /// Next slot producers will claim.
    enqueue_pos: CachePadded<AtomicU64>,
    /// Next slot the consumer will claim.
    dequeue_pos: CachePadded<AtomicU64>,
    /// Total completions ever pushed.
    pushed: AtomicU64,
    /// Maximum queue depth observed (ring + spill).
    high_water: AtomicU64,
    /// Overflow spill: only touched when the ring is full (slow path).
    spill: Mutex<VecDeque<Completion>>,
    /// Cheap "the spill is non-empty" hint so the fast paths skip the
    /// spill mutex entirely. Set under the spill lock by producers,
    /// cleared under it by the consumer when the spill drains dry.
    spill_active: AtomicU64,
}

// SAFETY: the Vyukov cell protocol guarantees exclusive access to
// `val` between the claim and the sequence publication on both the
// produce and consume side (see the module docs); `Completion` itself
// is `Copy + Send`. The spill deque is mutex-protected.
unsafe impl Send for CompletionQueue {}
// SAFETY: as above — all shared mutation goes through the cell
// sequence protocol or the spill mutex.
unsafe impl Sync for CompletionQueue {}

impl std::fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionQueue")
            .field("capacity", &self.cells.len())
            .field("len", &self.len())
            .field("pushed", &self.pushed.load(Ordering::Relaxed))
            .finish()
    }
}

impl CompletionQueue {
    /// Create an empty CQ. `capacity` is rounded up to a power of two
    /// (minimum 2) and sizes the lock-free ring; if a burst ever exceeds
    /// it, entries spill to a mutexed side queue rather than being
    /// dropped, and the high-water mark records the excursion.
    pub fn new(capacity: usize) -> Arc<CompletionQueue> {
        let cap = capacity.next_power_of_two().max(2);
        let cells: Box<[Cell]> = (0..cap)
            .map(|i| Cell {
                seq: AtomicU64::new(i as u64),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Arc::new(CompletionQueue {
            cells,
            mask: (cap - 1) as u64,
            enqueue_pos: CachePadded::new(AtomicU64::new(0)),
            dequeue_pos: CachePadded::new(AtomicU64::new(0)),
            pushed: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
            spill: Mutex::new(VecDeque::new()),
            spill_active: AtomicU64::new(0),
        })
    }

    /// NIC-side: enqueue a completion. Never blocks and never drops; a
    /// full ring spills to the side queue (see module docs).
    pub fn push(&self, c: Completion) {
        self.pushed.fetch_add(1, Ordering::Relaxed);
        // Once a spill has started, later pushes must join it so the
        // consumer can drain in order; the ring is only rejoined after
        // the consumer empties the spill.
        if self.spill_active.load(Ordering::Acquire) != 0 || !self.try_push_ring(c) {
            let mut spill = self.spill.lock();
            self.spill_active.store(1, Ordering::Release);
            spill.push_back(c);
        }
        let depth = self.len() as u64;
        self.high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// Vyukov enqueue: claim a slot with one CAS, publish with one
    /// `Release` store. Returns `false` if the ring is full.
    fn try_push_ring(&self, c: Completion) -> bool {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let cell = &self.cells[(pos & self.mask) as usize];
            let seq = cell.seq.load(Ordering::Acquire);
            let diff = seq as i64 - pos as i64;
            if diff == 0 {
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        cell.val.with_mut(|p| {
                            // SAFETY: the successful CAS above grants this
                            // producer exclusive ownership of the cell until
                            // the `Release` store below publishes it.
                            unsafe { (*p).write(c) };
                        });
                        cell.seq.store(pos + 1, Ordering::Release);
                        return true;
                    }
                    Err(cur) => pos = cur,
                }
            } else if diff < 0 {
                // The slot is still occupied from one lap ago: full.
                return false;
            } else {
                // Another producer advanced past us; re-read the cursor.
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Consumer side: claim the contiguous run of ready cells with one
    /// CAS; returns how many entries were appended to `out`.
    fn poll_ring(&self, out: &mut Vec<Completion>, max: usize) -> usize {
        loop {
            let pos = self.dequeue_pos.load(Ordering::Relaxed);
            // Scan the ready prefix: one Acquire edge per cell, no
            // stores, so an empty poll is a read-only sweep.
            let mut n = 0u64;
            while (n as usize) < max {
                let cell = &self.cells[((pos + n) & self.mask) as usize];
                if cell.seq.load(Ordering::Acquire) != pos + n + 1 {
                    break;
                }
                n += 1;
            }
            if n == 0 {
                return 0;
            }
            // One CAS claims the whole run. Monotonic cursor => no ABA:
            // if it still equals `pos`, none of the scanned cells can
            // have been consumed or recycled since the scan.
            match self.dequeue_pos.compare_exchange(
                pos,
                pos + n,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    for k in 0..n {
                        let cell = &self.cells[((pos + k) & self.mask) as usize];
                        let c = cell.val.with(|p| {
                            // SAFETY: the CAS gave this consumer exclusive
                            // ownership of the claimed run; the Acquire scan
                            // ordered the producer's payload write before
                            // this read. `Completion` is `Copy`.
                            unsafe { (*p).assume_init() }
                        });
                        out.push(c);
                        // Recycle the slot for the producer one lap ahead.
                        cell.seq
                            .store(pos + k + self.cells.len() as u64, Ordering::Release);
                    }
                    return n as usize;
                }
                Err(_) => continue, // another consumer claimed first; rescan
            }
        }
    }

    /// Poll up to `max` completions into `out`; returns how many were
    /// moved. Never blocks (the spill mutex is only taken when a spill
    /// is actually active, i.e. after a ring-overflow excursion).
    pub fn poll(&self, out: &mut Vec<Completion>, max: usize) -> usize {
        let mut n = self.poll_ring(out, max);
        if n < max && self.spill_active.load(Ordering::Acquire) != 0 {
            let mut spill = self.spill.lock();
            while n < max {
                match spill.pop_front() {
                    Some(c) => {
                        out.push(c);
                        n += 1;
                    }
                    None => break,
                }
            }
            if spill.is_empty() {
                self.spill_active.store(0, Ordering::Release);
            }
        }
        n
    }

    /// Poll a single completion without blocking. Allocation-free: the
    /// single-entry case claims one cell directly instead of routing
    /// through the `Vec`-based batch path (`wait_one` calls this in its
    /// inner loop, so a per-call `Vec` would allocate on every empty
    /// poll).
    pub fn poll_one(&self) -> Option<Completion> {
        loop {
            let pos = self.dequeue_pos.load(Ordering::Relaxed);
            let cell = &self.cells[(pos & self.mask) as usize];
            if cell.seq.load(Ordering::Acquire) != pos + 1 {
                break; // ring empty (or the head cell not yet published)
            }
            match self.dequeue_pos.compare_exchange(
                pos,
                pos + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    let c = cell.val.with(|p| {
                        // SAFETY: the CAS gave this consumer exclusive
                        // ownership of the claimed cell; the Acquire load
                        // of `seq` ordered the producer's payload write
                        // before this read. `Completion` is `Copy`.
                        unsafe { (*p).assume_init() }
                    });
                    // Recycle the slot for the producer one lap ahead.
                    cell.seq
                        .store(pos + self.cells.len() as u64, Ordering::Release);
                    return Some(c);
                }
                Err(_) => continue, // another consumer claimed first; rescan
            }
        }
        if self.spill_active.load(Ordering::Acquire) != 0 {
            let mut spill = self.spill.lock();
            let c = spill.pop_front();
            if spill.is_empty() {
                self.spill_active.store(0, Ordering::Release);
            }
            if c.is_some() {
                return c;
            }
        }
        None
    }

    /// Block until a completion is available or `timeout` elapses.
    ///
    /// The seed used a condition variable; completions now arrive
    /// lock-free, so this polls on an [`AdaptiveBackoff`] ladder (spin,
    /// yield, then sleeps of up to 100 µs) until the deadline. Under a
    /// virtual-time executor the deadline is virtual and each empty
    /// round is a 500 ns virtual sleep.
    pub fn wait_one(&self, timeout: Duration) -> Option<Completion> {
        let deadline = flock_sync::clock::deadline(timeout);
        let mut idle = AdaptiveBackoff::new(Duration::from_micros(100)).with_virtual_period(500);
        loop {
            if let Some(c) = self.poll_one() {
                return Some(c);
            }
            if flock_sync::clock::expired(deadline) {
                return self.poll_one();
            }
            idle.idle();
        }
    }

    /// Number of queued completions (ring + spill; approximate under
    /// concurrent pushes, exact when quiescent).
    pub fn len(&self) -> usize {
        let enq = self.enqueue_pos.load(Ordering::Relaxed);
        let deq = self.dequeue_pos.load(Ordering::Relaxed);
        let ring = enq.saturating_sub(deq) as usize;
        let spill = if self.spill_active.load(Ordering::Acquire) != 0 {
            self.spill.lock().len()
        } else {
            0
        };
        ring + spill
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum queue depth observed.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed) as usize
    }

    /// Total completions ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::types::{QpNum, WrId};
    use crate::verbs::{CqOpcode, CqStatus};

    fn comp(id: u64) -> Completion {
        Completion {
            wr_id: WrId(id),
            status: CqStatus::Success,
            opcode: CqOpcode::Send,
            byte_len: 0,
            imm: None,
            src: None,
            qpn: QpNum(0),
        }
    }

    #[test]
    fn poll_drains_fifo() {
        let cq = CompletionQueue::new(8);
        for i in 0..5 {
            cq.push(comp(i));
        }
        let mut out = Vec::new();
        assert_eq!(cq.poll(&mut out, 3), 3);
        assert_eq!(out.iter().map(|c| c.wr_id.0).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(cq.len(), 2);
        assert_eq!(cq.poll(&mut out, 10), 2);
        assert!(cq.is_empty());
    }

    #[test]
    fn poll_one_and_counters() {
        let cq = CompletionQueue::new(2);
        assert!(cq.poll_one().is_none());
        cq.push(comp(9));
        cq.push(comp(10));
        assert_eq!(cq.poll_one().unwrap().wr_id, WrId(9));
        assert_eq!(cq.total_pushed(), 2);
        assert_eq!(cq.high_water(), 2);
    }

    #[test]
    fn wait_one_times_out_when_empty() {
        let cq = CompletionQueue::new(1);
        assert!(cq.wait_one(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn wait_one_wakes_on_push() {
        let cq = CompletionQueue::new(1);
        let cq2 = Arc::clone(&cq);
        let t = std::thread::spawn(move || cq2.wait_one(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        cq.push(comp(77));
        let got = t.join().unwrap();
        assert_eq!(got.unwrap().wr_id, WrId(77));
    }

    #[test]
    fn ring_wraps_many_laps() {
        let cq = CompletionQueue::new(4);
        let mut out = Vec::new();
        for lap in 0..100u64 {
            for i in 0..4 {
                cq.push(comp(lap * 4 + i));
            }
            out.clear();
            assert_eq!(cq.poll(&mut out, 8), 4);
            assert_eq!(out[0].wr_id.0, lap * 4);
            assert_eq!(out[3].wr_id.0, lap * 4 + 3);
        }
        assert!(cq.is_empty());
        assert_eq!(cq.total_pushed(), 400);
    }

    #[test]
    fn overflow_spills_without_loss() {
        // Capacity 4, push 100 without polling: the seed grew a
        // VecDeque; the ring must spill and deliver everything, FIFO.
        let cq = CompletionQueue::new(4);
        for i in 0..100 {
            cq.push(comp(i));
        }
        assert_eq!(cq.len(), 100);
        assert!(cq.high_water() >= 100);
        let mut out = Vec::new();
        let mut got = 0;
        while got < 100 {
            let n = cq.poll(&mut out, 7);
            assert!(n > 0, "lost completions after {got}");
            got += n;
        }
        let ids: Vec<u64> = out.iter().map(|c| c.wr_id.0).collect();
        assert_eq!(ids, (0..100).collect::<Vec<u64>>());
        assert!(cq.is_empty());
        // After the spill drains, traffic returns to the ring fast path.
        cq.push(comp(500));
        assert_eq!(cq.poll_one().unwrap().wr_id, WrId(500));
    }

    #[test]
    fn concurrent_producers_deliver_everything() {
        let cq = CompletionQueue::new(64);
        let producers = 4;
        let per = 5000u64;
        let mut joins = Vec::new();
        for p in 0..producers {
            let cq = Arc::clone(&cq);
            joins.push(std::thread::spawn(move || {
                for i in 0..per {
                    cq.push(comp(p * per + i));
                }
            }));
        }
        let mut seen = vec![false; (producers * per) as usize];
        let mut out = Vec::new();
        let mut got = 0u64;
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while got < producers * per {
            out.clear();
            let n = cq.poll(&mut out, 256);
            for c in &out {
                assert!(!seen[c.wr_id.0 as usize], "duplicate {}", c.wr_id.0);
                seen[c.wr_id.0 as usize] = true;
            }
            got += n as u64;
            assert!(std::time::Instant::now() < deadline, "stalled at {got}");
            if n == 0 {
                std::thread::yield_now();
            }
        }
        for j in joins {
            j.join().unwrap();
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(cq.total_pushed(), producers * per);
    }

    #[test]
    fn per_producer_order_is_fifo_on_the_fast_path() {
        // One producer, one consumer, ring never full: strict FIFO. FIFO
        // across the spill lane is not promised, so the producer keeps
        // its lead over the consumer below the ring's 256 entries: it
        // waits while one more push could fill the ring.
        const CAP: u64 = 256;
        let cq = CompletionQueue::new(CAP as usize);
        let consumed = Arc::new(AtomicU64::new(0));
        let (cq2, consumed2) = (Arc::clone(&cq), Arc::clone(&consumed));
        let t = std::thread::spawn(move || {
            for i in 0..10_000u64 {
                while i - consumed2.load(Ordering::Acquire) >= CAP {
                    std::thread::yield_now();
                }
                cq2.push(comp(i));
            }
        });
        let mut next = 0u64;
        let mut out = Vec::new();
        while next < 10_000 {
            out.clear();
            let n = cq.poll(&mut out, 64);
            for c in &out {
                assert_eq!(c.wr_id.0, next);
                next += 1;
            }
            consumed.store(next, Ordering::Release);
            if n == 0 {
                std::hint::spin_loop();
            }
        }
        assert!(
            cq.high_water() <= CAP as usize,
            "ring filled: the spill lane was used"
        );
        t.join().unwrap();
    }
}
