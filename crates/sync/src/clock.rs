//! The virtual-time execution seam.
//!
//! Every fabric/runtime site that touches *time* or the *OS scheduler* —
//! spawning a worker thread, yielding, parking, reading a clock, arming
//! a deadline — goes through this module instead of `std` directly.
//!
//! Two executors implement the seam:
//!
//! * **Threaded** (the default, when no [`Executor`] is installed):
//!   behaves exactly like the direct `std` calls the code used to make.
//!   `now_ns` is wall time since a process-wide epoch, `spawn` is
//!   `std::thread::spawn`, `sleep`/`yield` hit the OS scheduler, and
//!   [`charge`] is a no-op. This path adds one thread-local read to the
//!   call sites and nothing else.
//!
//! * **Virtual** (installed per task by `flock_sim::vtime::VirtualLab`):
//!   tasks are *cooperatively scheduled virtual cores*. Exactly one task
//!   runs at any wall instant; `now_ns` is the lab's virtual clock;
//!   `sleep`/`yield` hand the core back to the lab's virtual-time event
//!   heap, and [`charge`] accrues virtual CPU cost that is applied at
//!   the task's next yield point. Because only one task runs at a time
//!   and wake-ups are ordered by `(virtual time, sequence)`, a whole
//!   multi-threaded run — real server, real NIC lanes, real clients —
//!   is deterministic and can simulate any degree of parallelism on a
//!   single host CPU (see DESIGN.md §5e).
//!
//! Blocking waits go through the seam too: [`wait_until`] stands in for
//! `Condvar::wait_until` and [`recv_until`] for a channel's blocking
//! receive. Threaded, they are those OS waits. In the lab a blocked OS
//! thread would hold the one running core, so they poll instead, one
//! [`Pace`] step of virtual time between polls. Call sites never branch
//! on [`is_virtual`]; the `determinism` lint rejects such a branch
//! outside this crate.
//!
//! House rule for virtual tasks: **never yield while holding a lock
//! another task can contend**. The threaded code already obeys this (all
//! its spin/park sites drop locks first); conversions must preserve it,
//! otherwise the lab deadlocks (the lock holder is parked and the next
//! task blocks the one OS thread that could release it).

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};
use parking_lot::{Condvar, MutexGuard};

/// A cooperative scheduler driving virtual tasks. Implemented by
/// `flock_sim::vtime::VirtualLab`; installed per task via [`install`].
pub trait Executor: Send + Sync {
    /// Current virtual time in nanoseconds.
    fn now_ns(&self) -> u64;

    /// Yield the virtual core, charging `ns` of virtual time before the
    /// task becomes runnable again. Implementations clamp `ns` to at
    /// least their yield cost so every yield makes virtual progress
    /// (a zero-cost yield could spin forever at one instant).
    fn advance(&self, ns: u64);

    /// Spawn a new cooperative task. The child begins runnable at the
    /// current virtual instant and inherits this executor.
    fn spawn_task(&self, name: String, f: Box<dyn FnOnce() + Send>) -> TaskHandle;

    /// The minimum virtual cost of one yield.
    fn yield_cost_ns(&self) -> u64;
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<dyn Executor>>> = const { RefCell::new(None) };
    /// Virtual CPU time accrued by [`charge`] since the last yield.
    static PENDING_NS: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide epoch for threaded-mode `now_ns`.
fn wall_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Install `exec` as the calling thread's executor (the thread becomes a
/// virtual task). Returns a guard that uninstalls on drop.
pub fn install(exec: Arc<dyn Executor>) -> InstallGuard {
    CURRENT.with(|c| *c.borrow_mut() = Some(exec));
    PENDING_NS.with(|p| p.set(0));
    InstallGuard { _priv: () }
}

/// Uninstalls the thread's executor when dropped.
pub struct InstallGuard {
    _priv: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = None);
        PENDING_NS.with(|p| p.set(0));
    }
}

/// The calling thread's executor, if it is a virtual task.
pub fn current() -> Option<Arc<dyn Executor>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Whether the calling thread runs under a virtual-time executor.
#[inline]
pub fn is_virtual() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Current time in nanoseconds: virtual time under an executor, wall
/// time since a process-wide epoch otherwise.
#[inline]
pub fn now_ns() -> u64 {
    match current() {
        Some(e) => e.now_ns(),
        None => wall_epoch().elapsed().as_nanos() as u64,
    }
}

/// Accrue `ns` of virtual CPU cost against the calling task, applied at
/// its next yield point ([`yield_now`], [`sleep_ns`], or an
/// [`crate::AdaptiveBackoff::idle`] round). Charging instead of
/// immediately yielding keeps the call legal inside critical sections.
/// No-op in threaded mode.
#[inline]
pub fn charge(ns: u64) {
    if is_virtual() {
        PENDING_NS.with(|p| p.set(p.get().saturating_add(ns)));
    }
}

fn take_pending() -> u64 {
    PENDING_NS.with(|p| p.replace(0))
}

/// Apply any pending [`charge`]d cost now (a yield whose length is the
/// accrued work). No-op in threaded mode or with nothing pending; used
/// by poll loops on their *progressed* edge, where they would otherwise
/// never yield.
#[inline]
pub fn flush_charge() {
    if let Some(e) = current() {
        let pending = take_pending();
        if pending > 0 {
            e.advance(pending);
        }
    }
}

/// Yield the core: `std::thread::yield_now` in threaded mode; in
/// virtual mode a minimum-cost virtual yield that also applies pending
/// charges.
#[inline]
pub fn yield_now() {
    match current() {
        Some(e) => {
            let ns = take_pending().saturating_add(e.yield_cost_ns());
            e.advance(ns);
        }
        None => std::thread::yield_now(),
    }
}

/// Sleep for `ns` nanoseconds of (virtual or wall) time, plus any
/// pending charges in virtual mode.
#[inline]
pub fn sleep_ns(ns: u64) {
    match current() {
        Some(e) => {
            let total = take_pending().saturating_add(ns);
            e.advance(total);
        }
        None => std::thread::sleep(Duration::from_nanos(ns)),
    }
}

/// Sleep for a [`Duration`] of (virtual or wall) time.
#[inline]
pub fn sleep(d: Duration) {
    sleep_ns(d.as_nanos().min(u64::MAX as u128) as u64);
}

/// An absolute deadline `d` from now, in the calling task's clock
/// domain. Compare with [`expired`].
#[inline]
pub fn deadline(d: Duration) -> u64 {
    now_ns().saturating_add(d.as_nanos().min(u64::MAX as u128) as u64)
}

/// A deadline that never passes: a wait given it blocks until woken.
pub const NEVER: u64 = u64::MAX;

/// Whether a [`deadline`] has passed ([`NEVER`] never does).
#[inline]
pub fn expired(deadline_ns: u64) -> bool {
    deadline_ns != NEVER && now_ns() > deadline_ns
}

/// How a virtual task spaces the polls that stand in for a blocking wait
/// in the lab. Each site keeps its own pace, a modeling constant like
/// any other virtual cost: a `u64` is a fixed poll period in virtual
/// nanoseconds, and a [`crate::AdaptiveBackoff`] steps its virtual
/// ladder (the caller resets it on progress). Unused in threaded mode.
pub trait Pace {
    /// Spend one idle round between polls.
    fn step(&mut self);
}

impl Pace for u64 {
    fn step(&mut self) {
        sleep_ns(*self);
    }
}

impl<P: Pace + ?Sized> Pace for &mut P {
    fn step(&mut self) {
        (**self).step();
    }
}

/// Wait on `cond` until notified or until `deadline_ns` ([`deadline`],
/// or [`NEVER`]) passes; returns whether the wait timed out. The seam's
/// `Condvar::wait_until`.
///
/// Threaded, this is the condvar wait. In the lab it returns `true` at
/// once if the deadline has passed; otherwise it releases the guard for
/// one `pace` step, relocks, and returns `false`. That wake may be
/// spurious, so callers re-check their condition in a loop, as with any
/// condvar.
pub fn wait_until<T>(
    cond: &Condvar,
    guard: &mut MutexGuard<'_, T>,
    deadline_ns: u64,
    mut pace: impl Pace,
) -> bool {
    if is_virtual() {
        if expired(deadline_ns) {
            return true;
        }
        MutexGuard::unlocked(guard, || pace.step());
        return false;
    }
    if deadline_ns == NEVER {
        cond.wait(guard);
        return false;
    }
    cond.wait_until(guard, wall_epoch() + Duration::from_nanos(deadline_ns))
        .timed_out()
}

/// Receive from `rx`, waiting until `deadline_ns` ([`deadline`], or
/// [`NEVER`]) at the latest. The seam's `recv_timeout` (and `recv`).
///
/// Threaded, this is the blocking receive. In the lab it polls with
/// `try_recv`: while the channel is empty it returns `Timeout` once the
/// deadline has passed, and otherwise takes one `pace` step and polls
/// again.
pub fn recv_until<T>(
    rx: &Receiver<T>,
    deadline_ns: u64,
    mut pace: impl Pace,
) -> Result<T, RecvTimeoutError> {
    if is_virtual() {
        loop {
            match rx.try_recv() {
                Ok(v) => return Ok(v),
                Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) if expired(deadline_ns) => {
                    return Err(RecvTimeoutError::Timeout)
                }
                Err(TryRecvError::Empty) => pace.step(),
            }
        }
    }
    if deadline_ns == NEVER {
        return rx.recv().map_err(|_| RecvTimeoutError::Disconnected);
    }
    rx.recv_timeout(Duration::from_nanos(deadline_ns.saturating_sub(now_ns())))
}

/// Handle to a task spawned through the seam.
///
/// In threaded mode this is a plain `JoinHandle`. In virtual mode
/// [`TaskHandle::join`] first waits — in virtual time, yielding turns to
/// the joinee — for the task to deregister from the lab, then joins the
/// underlying OS thread (which by then runs no scheduled code). Joining
/// a virtual task with a bare `JoinHandle::join` would deadlock: the
/// joiner holds the virtual core the joinee needs to finish.
#[derive(Debug)]
pub struct TaskHandle {
    inner: std::thread::JoinHandle<()>,
    /// `Some` for virtual tasks: set (with `Release`, under the lab
    /// lock, before the core is handed over) when the task deregisters.
    finished: Option<Arc<AtomicBool>>,
}

impl TaskHandle {
    /// Wrap a plain OS thread (threaded mode).
    pub fn threaded(inner: std::thread::JoinHandle<()>) -> TaskHandle {
        TaskHandle {
            inner,
            finished: None,
        }
    }

    /// Wrap a virtual task and its deregistration flag (virtual mode;
    /// called by executor implementations).
    pub fn virtualized(
        inner: std::thread::JoinHandle<()>,
        finished: Arc<AtomicBool>,
    ) -> TaskHandle {
        TaskHandle {
            inner,
            finished: Some(finished),
        }
    }

    /// Wait for the task to finish.
    pub fn join(self) -> std::thread::Result<()> {
        if let Some(f) = &self.finished {
            // Poll in virtual time so the joinee keeps getting the core.
            // The flag is published before the handover that follows the
            // joinee's deregistration, so the poll count is deterministic.
            while !f.load(Ordering::Acquire) {
                sleep_ns(1_000);
            }
        }
        self.inner.join()
    }

    /// Whether the task has already finished (virtual tasks only;
    /// threaded handles report via `JoinHandle::is_finished`).
    pub fn is_finished(&self) -> bool {
        match &self.finished {
            Some(f) => f.load(Ordering::Acquire),
            None => self.inner.is_finished(),
        }
    }
}

/// Spawn a worker through the seam: a named OS thread in threaded mode,
/// a cooperative virtual task when the caller is one. Panics if the OS
/// refuses the thread (matching the `.expect` the direct call sites
/// used).
pub fn spawn(name: &str, f: impl FnOnce() + Send + 'static) -> TaskHandle {
    match current() {
        Some(e) => e.spawn_task(name.to_string(), Box::new(f)),
        None => TaskHandle::threaded(
            std::thread::Builder::new()
                .name(name.to_string())
                .spawn(f)
                .expect("spawn worker thread"),
        ),
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn threaded_mode_is_the_default() {
        assert!(!is_virtual());
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
        charge(1_000_000); // must be a no-op
        flush_charge();
        yield_now();
        let d = deadline(Duration::from_secs(3600));
        assert!(!expired(d));
    }

    #[test]
    fn threaded_wait_until_wakes_on_notify_and_times_out_at_the_deadline() {
        use parking_lot::{Condvar, Mutex};
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let notifier = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                *pair.0.lock() = true;
                pair.1.notify_one();
            })
        };
        // Notified long before the deadline: returns early, not timed out.
        let far = deadline(Duration::from_secs(60));
        let mut flag = pair.0.lock();
        while !*flag {
            assert!(!wait_until(&pair.1, &mut flag, far, 500), "timed out early");
        }
        assert!(!expired(far));
        notifier.join().unwrap();

        // No notify: timed out, and no earlier than the deadline.
        let near = deadline(Duration::from_millis(20));
        while !wait_until(&pair.1, &mut flag, near, 500) {}
        assert!(now_ns() >= near);
    }

    #[test]
    fn threaded_recv_until_wakes_on_send_and_times_out_at_the_deadline() {
        let (tx, rx) = crossbeam::channel::unbounded();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(5u32).unwrap();
            tx
        });
        let far = deadline(Duration::from_secs(60));
        assert_eq!(recv_until(&rx, far, 500), Ok(5));
        assert!(!expired(far));
        let tx = sender.join().unwrap();

        let near = deadline(Duration::from_millis(20));
        assert_eq!(recv_until(&rx, near, 500), Err(RecvTimeoutError::Timeout));
        assert!(now_ns() >= near);

        drop(tx);
        assert_eq!(
            recv_until(&rx, NEVER, 500),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn threaded_spawn_and_join() {
        let h = spawn("clock-test", || {});
        assert!(h.join().is_ok());
    }
}
