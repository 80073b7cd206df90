//! Virtual-time execution of *real* threaded code.
//!
//! [`VirtualLab`] implements the [`flock_sync::clock::Executor`] seam:
//! it runs ordinary multi-threaded code — the actual server dispatch
//! loops, NIC engine lanes, and client threads from `flock-core` /
//! `flock-fabric` — as **cooperatively scheduled virtual cores** under a
//! deterministic virtual clock.
//!
//! ## How it works
//!
//! Every task spawned through `clock::spawn` gets its own OS thread, but
//! the lab guarantees that **exactly one task executes at any wall
//! instant**. All other tasks are parked on per-task condvars. A task
//! runs until it yields through the seam (`yield_now`, `sleep_ns`, an
//! [`flock_sync::AdaptiveBackoff::idle`] round, a [`flock_sync::backoff`]
//! spin, …). The yield:
//!
//! 1. pushes the task back onto a binary heap keyed by
//!    `(wake_time, sequence)` — wake time is `now + charged cost`,
//!    clamped to strictly advance;
//! 2. pops the earliest entry, advances the virtual clock to its wake
//!    time, and hands it the core (waking its parked thread);
//! 3. parks itself until its own entry is popped.
//!
//! Because execution is serialized and wake-ups follow a total
//! `(time, sequence)` order, the interleaving — and therefore every
//! counter, histogram, and byte of benchmark output — is a pure function
//! of the program and its seeds. The scheme is the cooperative-task twin
//! of the event-closure engine in [`crate::engine`]: same heap
//! discipline, but the "events" are suspension points of real code
//! instead of boxed closures, so the production hot path runs unmodified
//! with any simulated degree of parallelism on a single host CPU.
//!
//! ## Rules for code running under the lab
//!
//! * Never block on an OS primitive (channel `recv`, condvar wait, bare
//!   `thread::sleep`) — the core would never be handed over and the lab
//!   deadlocks. Blocking sites wait through the seam instead
//!   (`clock::wait_until`, `clock::recv_until`, `AdaptiveBackoff`),
//!   which polls and yields between polls under the lab.
//! * Never yield while holding a lock another task can contend (the
//!   holder parks; the contender then spins forever as the only runnable
//!   task). All converted sites drop locks before yielding, as the
//!   threaded code already did.
//! * Join tasks through [`flock_sync::clock::TaskHandle::join`], which
//!   polls in virtual time, never via a bare `JoinHandle`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use flock_sync::clock::{self, Executor, TaskHandle};

/// Virtual cost of one bare yield, and the minimum advance of any
/// suspension: no task can occupy the core for zero virtual time, so
/// same-instant yield livelocks (producer spinning on a consumer
/// scheduled later) are impossible by construction.
pub const YIELD_COST_NS: u64 = 50;

/// Go-flag parker for one task's OS thread.
///
/// Stateful on purpose: a wake that races ahead of the park (the core is
/// handed to a task whose thread has not reached `park` yet, e.g. right
/// after spawn) is remembered by the flag.
struct TaskSlot {
    run: Mutex<bool>,
    cv: Condvar,
}

impl TaskSlot {
    fn new() -> TaskSlot {
        TaskSlot {
            run: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn park(&self) {
        let mut go = self.run.lock().expect("task slot poisoned");
        while !*go {
            go = self.cv.wait(go).expect("task slot poisoned");
        }
        *go = false;
    }

    fn wake(&self) {
        *self.run.lock().expect("task slot poisoned") = true;
        self.cv.notify_one();
    }
}

struct LabState {
    now: u64,
    seq: u64,
    /// `Reverse((wake_ns, seq, task_id))`: min-heap on (time, sequence).
    /// Invariant: every live task except `current` has exactly one entry.
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Slot per task id; `None` = id free (on `free_ids`).
    slots: Vec<Option<Arc<TaskSlot>>>,
    free_ids: Vec<usize>,
    /// The task currently holding the core.
    current: usize,
    /// Registered tasks, including the root.
    live: usize,
    handovers: u64,
    tasks_spawned: u64,
}

struct LabInner {
    state: Mutex<LabState>,
}

/// Deterministic virtual-time executor; see the module docs.
///
/// Cheap to clone (shared interior). Install into a run with
/// [`VirtualLab::run`].
#[derive(Clone)]
pub struct VirtualLab {
    inner: Arc<LabInner>,
}

/// Summary of a completed [`VirtualLab::run_report`].
#[derive(Debug, Clone, Copy)]
pub struct LabReport {
    /// Final virtual clock value.
    pub virtual_ns: u64,
    /// Core handovers (suspension points crossed) — the virtual analogue
    /// of the event count in [`crate::engine::Sim::executed`].
    pub handovers: u64,
    /// Tasks spawned over the run (excluding the root).
    pub tasks_spawned: u64,
}

impl VirtualLab {
    fn new() -> VirtualLab {
        VirtualLab {
            inner: Arc::new(LabInner {
                state: Mutex::new(LabState {
                    now: 0,
                    seq: 0,
                    heap: BinaryHeap::new(),
                    slots: Vec::new(),
                    free_ids: Vec::new(),
                    current: 0,
                    live: 0,
                    handovers: 0,
                    tasks_spawned: 0,
                }),
            }),
        }
    }

    /// Run `f` as the root task of a fresh lab and return its result.
    ///
    /// `f` executes on the calling thread with the lab installed as its
    /// executor; everything it spawns through `clock::spawn` becomes a
    /// virtual task. `f` must join all tasks it spawned before
    /// returning (the production shutdown paths already do), otherwise
    /// this panics — a leaked virtual task would block on a core that no
    /// longer exists.
    pub fn run<R>(f: impl FnOnce() -> R) -> R {
        Self::run_report(f).0
    }

    /// Like [`VirtualLab::run`], but also return run statistics.
    pub fn run_report<R>(f: impl FnOnce() -> R) -> (R, LabReport) {
        let lab = VirtualLab::new();
        {
            let mut st = lab.inner.state.lock().expect("lab poisoned");
            st.slots.push(Some(Arc::new(TaskSlot::new())));
            st.live = 1;
            st.current = 0;
        }
        let guard = clock::install(Arc::new(lab.clone()));
        let result = f();
        drop(guard);
        let st = lab.inner.state.lock().expect("lab poisoned");
        assert_eq!(
            st.live, 1,
            "VirtualLab::run returned with {} spawned task(s) still live; join all tasks before returning",
            st.live - 1
        );
        let report = LabReport {
            virtual_ns: st.now,
            handovers: st.handovers,
            tasks_spawned: st.tasks_spawned,
        };
        (result, report)
    }

    /// Deregister the calling (current) task and hand the core to the
    /// next scheduled one. Called by the spawn wrapper after the task
    /// body returns; `finished` is published under the lab lock, before
    /// the handover, so joiners observe it at a deterministic virtual
    /// instant.
    fn exit_current(&self, finished: &AtomicBool) {
        let next = {
            let mut st = self.inner.state.lock().expect("lab poisoned");
            let me = st.current;
            st.slots[me] = None;
            st.free_ids.push(me);
            st.live -= 1;
            finished.store(true, Ordering::Release);
            if st.live == 0 {
                None
            } else {
                let Reverse((t, _, id)) = st
                    .heap
                    .pop()
                    .expect("virtual-time deadlock: live tasks but none runnable");
                st.now = st.now.max(t);
                st.current = id;
                st.handovers += 1;
                Some(st.slots[id].clone().expect("scheduled task has no slot"))
            }
        };
        if let Some(slot) = next {
            slot.wake();
        }
    }
}

impl Executor for VirtualLab {
    fn now_ns(&self) -> u64 {
        self.inner.state.lock().expect("lab poisoned").now
    }

    fn advance(&self, ns: u64) {
        // Strictly positive advance: see YIELD_COST_NS.
        let ns = ns.max(1);
        let (next, mine) = {
            let mut st = self.inner.state.lock().expect("lab poisoned");
            let me = st.current;
            let wake = st.now.saturating_add(ns);
            let seq = st.seq;
            st.seq += 1;
            st.heap.push(Reverse((wake, seq, me)));
            let Reverse((t, _, id)) = st
                .heap
                .pop()
                .expect("virtual-time deadlock: no runnable task");
            st.now = st.now.max(t);
            st.current = id;
            st.handovers += 1;
            if id == me {
                // Fast path: we are still the earliest task; keep the core.
                return;
            }
            (
                st.slots[id].clone().expect("scheduled task has no slot"),
                st.slots[me].clone().expect("running task has no slot"),
            )
        };
        next.wake();
        mine.park();
    }

    fn spawn_task(&self, name: String, f: Box<dyn FnOnce() + Send>) -> TaskHandle {
        let slot = Arc::new(TaskSlot::new());
        {
            let mut st = self.inner.state.lock().expect("lab poisoned");
            let id = match st.free_ids.pop() {
                Some(id) => id,
                None => {
                    st.slots.push(None);
                    st.slots.len() - 1
                }
            };
            st.slots[id] = Some(slot.clone());
            st.live += 1;
            st.tasks_spawned += 1;
            // First wake-up at the current instant, in spawn order; the
            // spawner keeps the core until its own next yield.
            let seq = st.seq;
            st.seq += 1;
            let now = st.now;
            st.heap.push(Reverse((now, seq, id)));
        }
        let lab = self.clone();
        let finished = Arc::new(AtomicBool::new(false));
        let fin = finished.clone();
        let thread = std::thread::Builder::new()
            .name(name)
            // Virtual tasks number in the hundreds at paper scale; keep
            // their address-space reservation small.
            .stack_size(512 * 1024)
            .spawn(move || {
                let _guard = clock::install(Arc::new(lab.clone()));
                slot.park(); // wait to be scheduled for the first time
                f();
                lab.exit_current(&fin);
            })
            .expect("spawn virtual task thread");
        TaskHandle::virtualized(thread, finished)
    }

    fn yield_cost_ns(&self) -> u64 {
        YIELD_COST_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn clock_starts_at_zero_and_sleep_advances() {
        let report = VirtualLab::run_report(|| {
            assert!(clock::is_virtual());
            assert_eq!(clock::now_ns(), 0);
            clock::sleep_ns(1_000);
            assert_eq!(clock::now_ns(), 1_000);
            clock::yield_now();
            assert_eq!(clock::now_ns(), 1_000 + YIELD_COST_NS);
        })
        .1;
        assert_eq!(report.virtual_ns, 1_000 + YIELD_COST_NS);
        assert_eq!(report.tasks_spawned, 0);
    }

    #[test]
    fn charge_applies_at_next_yield() {
        VirtualLab::run(|| {
            clock::charge(300);
            clock::charge(200);
            assert_eq!(clock::now_ns(), 0); // not yet applied
            clock::flush_charge();
            assert_eq!(clock::now_ns(), 500);
            clock::flush_charge(); // nothing pending: no advance
            assert_eq!(clock::now_ns(), 500);
        });
    }

    #[test]
    fn tasks_interleave_in_virtual_time_order() {
        let order = Arc::new(Mutex::new(Vec::new()));
        VirtualLab::run({
            let order = order.clone();
            move || {
                let mk = |tag: &'static str,
                          period: u64,
                          order: Arc<Mutex<Vec<(u64, &'static str)>>>| {
                    clock::spawn(tag, move || {
                        for _ in 0..3 {
                            clock::sleep_ns(period);
                            order.lock().unwrap().push((clock::now_ns(), tag));
                        }
                    })
                };
                let a = mk("a", 100, order.clone());
                let b = mk("b", 70, order.clone());
                a.join().unwrap();
                b.join().unwrap();
            }
        });
        let got = order.lock().unwrap().clone();
        assert_eq!(
            got,
            vec![
                (70, "b"),
                (100, "a"),
                (140, "b"),
                (200, "a"),
                (210, "b"),
                (300, "a"),
            ]
        );
    }

    #[test]
    fn runs_are_deterministic() {
        fn run_once() -> (Vec<u64>, u64) {
            let log = Arc::new(Mutex::new(Vec::new()));
            let counter = Arc::new(AtomicU64::new(0));
            let report = VirtualLab::run_report({
                let log = log.clone();
                move || {
                    let handles: Vec<_> = (0..8)
                        .map(|i| {
                            let log = log.clone();
                            let counter = counter.clone();
                            clock::spawn(&format!("w{i}"), move || {
                                for _ in 0..20 {
                                    clock::sleep_ns(37 + i * 13);
                                    let v = counter.fetch_add(1, Ordering::Relaxed);
                                    log.lock().unwrap().push(v * 1_000_000 + clock::now_ns());
                                }
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join().unwrap();
                    }
                }
            })
            .1;
            let log = log.lock().unwrap().clone();
            (log, report.handovers)
        }
        let (log1, h1) = run_once();
        let (log2, h2) = run_once();
        assert_eq!(log1, log2);
        assert_eq!(h1, h2);
    }

    #[test]
    fn spawned_task_starts_at_spawn_instant() {
        VirtualLab::run(|| {
            clock::sleep_ns(500);
            let started = Arc::new(AtomicU64::new(u64::MAX));
            let s = started.clone();
            let h = clock::spawn("child", move || {
                s.store(clock::now_ns(), Ordering::Relaxed);
            });
            h.join().unwrap();
            // The child's first schedule is at the spawn instant (the
            // joiner's poll sleeps past it, but the child ran at 500).
            assert_eq!(started.load(Ordering::Relaxed), 500);
        });
    }

    #[test]
    fn backoff_and_adaptive_backoff_advance_virtual_time() {
        VirtualLab::run(|| {
            let t0 = clock::now_ns();
            flock_sync::backoff(0);
            assert!(clock::now_ns() > t0);
            let mut b = flock_sync::AdaptiveBackoff::new(std::time::Duration::from_micros(5));
            let t1 = clock::now_ns();
            for _ in 0..32 {
                b.idle();
            }
            // Escalates to the cap without wall-clock sleeping.
            assert!(clock::now_ns() - t1 >= 5_000);
        });
    }

    #[test]
    #[should_panic(expected = "still live")]
    fn leaked_task_panics_at_run_end() {
        VirtualLab::run(|| {
            // Spawn a task that idles forever, and leak its handle.
            std::mem::forget(clock::spawn("leak", || loop {
                clock::sleep_ns(1_000_000);
            }));
            clock::sleep_ns(10_000);
        });
    }
}
