//! The clock seam's blocking waits inside the virtual-time lab.
//!
//! `clock::wait_until` (condvar) and `clock::recv_until` (channel) poll
//! in the lab, one pace step between polls. A condition set at virtual
//! time `t` is seen at the first poll tick at or after `t`, and a
//! deadline fires at the first tick past it. Each scenario also runs
//! the per-site loop the seam replaced (poll, give up once the deadline
//! has passed, else sleep one period), which must return at the same
//! virtual instant with the same outcome.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, RecvTimeoutError};
use flock_sim::vtime::VirtualLab;
use flock_sync::clock::{self, Pace};
use flock_sync::AdaptiveBackoff;
use parking_lot::{Condvar, Mutex};

/// The per-site virtual arm the seam replaced.
fn legacy_poll(mut ready: impl FnMut() -> bool, deadline: u64, mut pace: impl Pace) -> bool {
    loop {
        if ready() {
            return true;
        }
        if clock::expired(deadline) {
            return false;
        }
        pace.step();
    }
}

/// Which wait a scenario runs.
#[derive(Clone, Copy)]
enum Wait {
    Condvar,
    Channel,
    Legacy,
}

/// One lab run: a setter task raises the condition (flag + notify, and
/// a message) at `set_at`, unless `None`; the root task waits with
/// `timeout` at `pace`. Returns whether the wait saw the condition and
/// the virtual instant it returned.
fn scenario(
    wait: Wait,
    set_at: Option<u64>,
    timeout: Duration,
    mut pace: impl Pace + Send + 'static,
) -> (bool, u64) {
    VirtualLab::run(move || {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let (tx, rx) = unbounded::<u32>();
        // Keeps the channel open when the setter never sends.
        let _open = tx.clone();
        let setter = {
            let state = Arc::clone(&state);
            clock::spawn("setter", move || {
                if let Some(t) = set_at {
                    clock::sleep_ns(t);
                    *state.0.lock() = true;
                    state.1.notify_one();
                    tx.send(7).unwrap();
                }
            })
        };
        let deadline = clock::deadline(timeout);
        let seen = match wait {
            Wait::Condvar => {
                let mut flag = state.0.lock();
                loop {
                    if *flag {
                        break true;
                    }
                    if clock::wait_until(&state.1, &mut flag, deadline, &mut pace) {
                        break false;
                    }
                }
            }
            Wait::Channel => match clock::recv_until(&rx, deadline, pace) {
                Ok(v) => {
                    assert_eq!(v, 7);
                    true
                }
                Err(RecvTimeoutError::Timeout) => false,
                Err(RecvTimeoutError::Disconnected) => unreachable!("a sender is alive"),
            },
            Wait::Legacy => legacy_poll(|| *state.0.lock(), deadline, pace),
        };
        let at = clock::now_ns();
        setter.join().unwrap();
        (seen, at)
    })
}

#[test]
fn condition_is_seen_at_the_first_tick_at_or_after_it_is_set() {
    // Ticks every 500 ns from 0: set at 1 234, seen at 1 500.
    assert_eq!(
        scenario(Wait::Condvar, Some(1_234), Duration::from_micros(10), 500),
        (true, 1_500)
    );
    // Ticks every 1 µs: set at 1 234, seen at 2 000.
    assert_eq!(
        scenario(Wait::Channel, Some(1_234), Duration::from_micros(10), 1_000),
        (true, 2_000)
    );
}

#[test]
fn timeout_fires_at_the_first_tick_past_the_deadline() {
    // Deadline 2 µs: the tick at 2 000 is the deadline itself, not past
    // it, so the wait gives up at 2 500.
    assert_eq!(
        scenario(Wait::Condvar, None, Duration::from_micros(2), 500),
        (false, 2_500)
    );
    // Every 5 µs against a 12 µs deadline: gives up at 15 µs.
    assert_eq!(
        scenario(Wait::Channel, None, Duration::from_micros(12), 5_000),
        (false, 15_000)
    );
    // Set after the deadline: still a timeout, at the same tick.
    assert_eq!(
        scenario(Wait::Condvar, Some(2_700), Duration::from_micros(2), 500),
        (false, 2_500)
    );
}

#[test]
fn ladder_pace_steps_the_virtual_ladder() {
    // AdaptiveBackoff's virtual ladder sleeps 250, 500, 1 000, then
    // 2 000 ns (capped here): ticks at 0, 250, 750, 1 750, 3 750.
    let ladder = AdaptiveBackoff::new(Duration::from_micros(2)).with_virtual_cap(2_000);
    assert_eq!(
        scenario(
            Wait::Channel,
            Some(1_800),
            Duration::from_micros(50),
            ladder
        ),
        (true, 3_750)
    );
    // A fixed virtual period keeps one step length throughout.
    let fixed = AdaptiveBackoff::new(Duration::from_micros(2)).with_virtual_period(500);
    assert_eq!(
        scenario(Wait::Channel, Some(1_800), Duration::from_micros(50), fixed),
        (true, 2_000)
    );
}

#[test]
fn seam_waits_match_the_loops_they_replaced() {
    let sets = [
        None,
        Some(0),
        Some(1),
        Some(499),
        Some(500),
        Some(1_750),
        Some(3_000),
    ];
    for timeout_ns in [0, 999, 1_000, 2_000, 4_321] {
        let timeout = Duration::from_nanos(timeout_ns);
        for set_at in sets {
            for period in [500u64, 1_000, 5_000] {
                let legacy = scenario(Wait::Legacy, set_at, timeout, period);
                for wait in [Wait::Condvar, Wait::Channel] {
                    assert_eq!(
                        scenario(wait, set_at, timeout, period),
                        legacy,
                        "timeout {timeout_ns} ns, set at {set_at:?}, period {period} ns"
                    );
                }
            }
            let ladder =
                || AdaptiveBackoff::new(Duration::from_micros(50)).with_virtual_cap(50_000);
            assert_eq!(
                scenario(Wait::Channel, set_at, timeout, ladder()),
                scenario(Wait::Legacy, set_at, timeout, ladder()),
                "ladder: timeout {timeout_ns} ns, set at {set_at:?}"
            );
        }
    }
}

#[test]
fn never_deadline_waits_until_woken() {
    let (got, at) = VirtualLab::run(|| {
        let (tx, rx) = unbounded::<u32>();
        let sender = clock::spawn("late-sender", move || {
            clock::sleep_ns(1_000_000);
            tx.send(1).unwrap();
        });
        let got = clock::recv_until(&rx, clock::NEVER, 5_000u64);
        let at = clock::now_ns();
        sender.join().unwrap();
        // Every sender is gone: the wait reports the disconnect.
        assert_eq!(
            clock::recv_until(&rx, clock::NEVER, 5_000u64),
            Err(RecvTimeoutError::Disconnected)
        );
        (got, at)
    });
    assert_eq!((got, at), (Ok(1), 1_000_000));
}
