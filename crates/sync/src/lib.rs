//! Synchronization facade: `std` primitives normally, `loom` under
//! `cfg(loom)`.
//!
//! Every concurrent module in the workspace (`tcq`, `ring`, `credit`,
//! `sched::qp` in `flock-core`; the completion-queue ring in
//! `flock-fabric`; `lockshare` in `flock-baselines`) imports its atomics,
//! threads, and unsafe cells from this crate instead of `std` directly.
//! A normal build resolves to the real `std` types with zero overhead.
//! Building with `RUSTFLAGS="--cfg loom"` swaps in the `loom` model
//! checker's instrumented equivalents, so the loom suites can
//! exhaustively explore thread interleavings of the lock-free protocols
//! (see DESIGN.md, "Memory ordering and verification", and `cargo loom`).
//!
//! This crate sits below `flock-fabric` in the dependency graph (the
//! facade started life as `flock_core::sync`, which still re-exports it
//! for compatibility, but `flock-core` depends on `flock-fabric`, so the
//! fabric's lock-free CQ needs the facade from a lower layer).
//!
//! Three deliberate API choices keep the two worlds identical:
//!
//! * [`UnsafeCell`] exposes only loom's closure-based `with`/`with_mut`
//!   accessors (no bare `get`), so every raw access site reads the same
//!   under both backends.
//! * [`backoff`] is the one blessed way to spin-wait. Under `std` it
//!   spins with a periodic OS yield; under loom every call is a
//!   *voluntary* yield, which the model scheduler uses to deprioritize
//!   the spinner — that is what makes spin loops terminate during
//!   bounded-exhaustive exploration.
//! * [`AdaptiveBackoff`] is the blessed way to *idle-wait* (spin, then
//!   yield, then park with escalating timeouts). Under loom it degrades
//!   to plain yields: parking is an OS-scheduler concern, invisible to
//!   the memory model.

pub mod clock;

#[cfg(loom)]
pub use loom::{cell::UnsafeCell, hint, sync::atomic, sync::Arc, thread};

#[cfg(not(loom))]
pub use std::{hint, sync::atomic, sync::Arc, thread};

/// `std` counterpart of loom's closure-based `UnsafeCell`.
#[cfg(not(loom))]
#[derive(Debug, Default)]
pub struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

#[cfg(not(loom))]
impl<T> UnsafeCell<T> {
    /// Create a cell.
    pub const fn new(value: T) -> UnsafeCell<T> {
        UnsafeCell(std::cell::UnsafeCell::new(value))
    }

    /// Immutable access to the contents via raw pointer.
    ///
    /// The pointer must not escape the closure; callers uphold the usual
    /// `UnsafeCell` aliasing rules inside `f`.
    pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        f(self.0.get())
    }

    /// Mutable access to the contents via raw pointer.
    ///
    /// The pointer must not escape the closure; callers guarantee no
    /// concurrent access for the duration of `f`.
    pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        f(self.0.get())
    }
}

/// Pads and aligns a value to a 64-byte cache line (destructive
/// interference range on x86-64 and most aarch64 parts).
///
/// Used to keep hot atomics that different threads write (e.g. the TCQ
/// `tail`, the CQ ring's enqueue/dequeue cursors) off the cache lines of
/// fields that are merely read or updated by one thread (stats
/// counters), eliminating false sharing.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

impl<T> CachePadded<T> {
    /// Wrap `value` on its own cache line.
    pub const fn new(value: T) -> CachePadded<T> {
        CachePadded(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// One iteration of a bounded spin-wait.
///
/// `spins` is the caller's iteration counter. Under `std` this emits a
/// `spin_loop` hint and yields to the OS every 128 iterations; under
/// loom it always yields to the model scheduler so exploration makes
/// progress past the spin.
#[inline]
pub fn backoff(spins: u32) {
    #[cfg(loom)]
    {
        let _ = spins;
        thread::yield_now();
    }
    #[cfg(not(loom))]
    {
        if clock::is_virtual() {
            // A virtual task spinning never lets the peer it waits on
            // run; every spin iteration must be a virtual yield.
            clock::yield_now();
        } else if spins.is_multiple_of(128) || single_cpu() {
            thread::yield_now();
        } else {
            hint::spin_loop();
        }
    }
}

/// Whether the host exposes exactly one logical CPU (computed once).
/// Spin-waiting can never overlap with the thread being waited on
/// there, so the spin tiers of [`backoff`] and [`AdaptiveBackoff`]
/// degrade to immediate yields.
#[cfg(not(loom))]
fn single_cpu() -> bool {
    use std::sync::OnceLock;
    static SINGLE: OnceLock<bool> = OnceLock::new();
    *SINGLE.get_or_init(|| {
        thread::available_parallelism()
            .map(|n| n.get() == 1)
            .unwrap_or(false)
    })
}

/// Adaptive spin-then-park idle-waiting, shared by the server
/// dispatchers, the QP scheduler, and CQ blocking waits.
///
/// The escalation ladder on an idle poll:
///
/// 1. first [`AdaptiveBackoff::SPIN_LIMIT`] idle rounds: `spin_loop`
///    hint (stay hot, nanoseconds of latency);
/// 2. next [`AdaptiveBackoff::YIELD_LIMIT`] idle rounds: `yield_now`
///    (let a runnable peer in — on a loaded box this is what keeps a
///    polling thread from starving the thread that would feed it);
/// 3. after that: `thread::sleep` with an exponentially growing
///    duration, capped at `max_park`.
///
/// Any successful poll calls [`AdaptiveBackoff::reset`], snapping back
/// to the spin tier. Under `cfg(loom)` every tier is a voluntary yield;
/// sleeping is invisible to the memory model and only throttles the OS
/// scheduler.
#[derive(Debug)]
pub struct AdaptiveBackoff {
    idle_rounds: u32,
    // Unread under cfg(loom), where every tier is a voluntary yield.
    #[cfg_attr(loom, allow(dead_code))]
    max_park: std::time::Duration,
    // First rung and cap of the virtual ladder; unread under cfg(loom)
    // for the same reason as `max_park`.
    #[cfg_attr(loom, allow(dead_code))]
    virtual_first_ns: u64,
    #[cfg_attr(loom, allow(dead_code))]
    virtual_cap_ns: u64,
}

impl AdaptiveBackoff {
    /// Idle rounds spent in the busy-spin tier.
    pub const SPIN_LIMIT: u32 = 64;
    /// Additional idle rounds spent in the yield tier.
    pub const YIELD_LIMIT: u32 = 64;
    /// First park duration once spinning and yielding are exhausted.
    pub const FIRST_PARK: std::time::Duration = std::time::Duration::from_micros(5);
    /// First poll period of the *virtual* ladder (spinning a virtual core
    /// is pure waste — the ladder escalates from here straight to
    /// [`Self::VIRTUAL_MAX_POLL_NS`]-capped virtual sleeps).
    pub const VIRTUAL_FIRST_POLL_NS: u64 = 250;
    /// Deep-idle cap of the virtual ladder (~1 ms). Deliberately larger
    /// than typical `max_park` values: wall parks are sized to bound
    /// *detection latency per burned host core*, but a virtual sleeping
    /// task costs lab *events*, and thousands of idle tasks (unused NIC
    /// lanes at paper scale) polling every 2 µs of virtual time would
    /// swamp the event heap. Busy tasks reset the ladder, so steady-state
    /// detection stays at [`Self::VIRTUAL_FIRST_POLL_NS`] scale.
    pub const VIRTUAL_MAX_POLL_NS: u64 = Self::VIRTUAL_FIRST_POLL_NS << 12;

    /// A backoff whose park tier never sleeps longer than `max_park`.
    pub fn new(max_park: std::time::Duration) -> AdaptiveBackoff {
        AdaptiveBackoff {
            idle_rounds: 0,
            max_park,
            virtual_first_ns: Self::VIRTUAL_FIRST_POLL_NS,
            virtual_cap_ns: Self::VIRTUAL_MAX_POLL_NS,
        }
    }

    /// Cap the *virtual* ladder at `ns` instead of the deep-idle default
    /// ([`Self::VIRTUAL_MAX_POLL_NS`]).
    ///
    /// The wall ladder parks to save host CPU; detection latency is the
    /// price and deepening it is always safe. The virtual ladder has no
    /// such trade — a virtual sleep is free host-wise — so its cap is a
    /// *modeling* choice: dedicated polling actors (server dispatchers,
    /// client response dispatchers, NIC engines) never sleep tens of
    /// microseconds between bursts on real hardware, and letting them do
    /// so in the lab inflates burst-detection latency with dispatcher
    /// count, masking the sharding win the lab exists to measure. Such
    /// actors set a tight cap here; incidental waiters keep the deep
    /// default so thousands of idle tasks don't swamp the event heap.
    pub fn with_virtual_cap(mut self, ns: u64) -> AdaptiveBackoff {
        self.virtual_cap_ns = ns.max(self.virtual_first_ns);
        self
    }

    /// Poll at a fixed virtual period of `ns` instead of climbing the
    /// virtual ladder (the threaded ladder is unchanged).
    pub fn with_virtual_period(mut self, ns: u64) -> AdaptiveBackoff {
        self.virtual_first_ns = ns;
        self.virtual_cap_ns = ns;
        self
    }

    /// Work was found: snap back to the spin tier.
    #[inline]
    pub fn reset(&mut self) {
        self.idle_rounds = 0;
    }

    /// Nothing to do this round: spin, yield, or park per the ladder.
    ///
    /// On a single-CPU host the spin tier is skipped: the thread that
    /// would hand us work cannot be running concurrently, so burning the
    /// only core on `spin_loop` hints just delays it — yielding is
    /// strictly better from the first idle round.
    #[inline]
    pub fn idle(&mut self) {
        self.idle_rounds = self.idle_rounds.saturating_add(1);
        #[cfg(loom)]
        {
            thread::yield_now();
        }
        #[cfg(not(loom))]
        {
            if clock::is_virtual() {
                // Virtual ladder: each idle round is a charged virtual
                // sleep whose period doubles from the first rung
                // (VIRTUAL_FIRST_POLL_NS by default) up to the cap,
                // mirroring the park tier's shape without burning wall
                // time or host CPU.
                let exp = self.idle_rounds.saturating_sub(1).min(12);
                let poll = self
                    .virtual_first_ns
                    .saturating_mul(1 << exp)
                    .min(self.virtual_cap_ns);
                clock::sleep_ns(poll);
            } else if self.idle_rounds <= Self::SPIN_LIMIT && !single_cpu() {
                hint::spin_loop();
            } else if self.idle_rounds <= Self::SPIN_LIMIT + Self::YIELD_LIMIT {
                thread::yield_now();
            } else {
                let over = self.idle_rounds - Self::SPIN_LIMIT - Self::YIELD_LIMIT;
                let exp = over.min(10); // 5 µs << 10 ≈ 5 ms, before the cap
                let park = Self::FIRST_PARK
                    .saturating_mul(1u32 << exp)
                    .min(self.max_park);
                thread::sleep(park);
            }
        }
    }

    /// Whether the next [`AdaptiveBackoff::idle`] call would park (used
    /// by callers that must not sleep while holding work).
    pub fn would_park(&self) -> bool {
        self.idle_rounds >= Self::SPIN_LIMIT + Self::YIELD_LIMIT
    }
}

/// A wait through the seam idles one ladder round per step; the caller
/// resets the ladder when it makes progress.
impl clock::Pace for AdaptiveBackoff {
    fn step(&mut self) {
        self.idle();
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unsafe_cell_roundtrip() {
        let c = UnsafeCell::new(7u32);
        // SAFETY-free by construction: single-threaded access.
        c.with_mut(|p| unsafe {
            // SAFETY: exclusive access inside the closure on one thread.
            *p = 9;
        });
        let v = c.with(|p| unsafe {
            // SAFETY: no concurrent writers; pointer valid for the read.
            *p
        });
        assert_eq!(v, 9);
    }

    #[test]
    fn cache_padded_is_aligned() {
        let v = CachePadded::new(1u8);
        assert_eq!(std::mem::align_of_val(&v), 64);
        assert_eq!(*v, 1);
    }

    #[test]
    fn adaptive_backoff_ladder_escalates_and_resets() {
        let mut b = AdaptiveBackoff::new(Duration::from_micros(50));
        for _ in 0..(AdaptiveBackoff::SPIN_LIMIT + AdaptiveBackoff::YIELD_LIMIT) {
            assert!(!b.would_park());
            b.idle();
        }
        assert!(b.would_park());
        b.idle(); // parks (5 µs), must not hang
        b.reset();
        assert!(!b.would_park());
    }
}
