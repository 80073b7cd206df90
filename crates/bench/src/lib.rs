//! # flock-bench
//!
//! Benchmark harnesses regenerating every table and figure of the Flock
//! paper (SOSP 2021). Each `benches/figN*.rs` target (run via
//! `cargo bench`) prints the same rows/series the paper reports;
//! `benches/micro.rs` holds Criterion microbenchmarks of the core data
//! structures. See EXPERIMENTS.md for paper-vs-measured values.

pub mod arrival;
pub mod churn;
pub mod onesided;
pub mod report;
pub mod scale;
pub mod tenant;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flock_core::tcq::{Outcome, Tcq};
use flock_sim::Ns;

/// Pre-spawned worker pool hammering one shared TCQ in barrier-gated
/// rounds, shared between the Criterion `micro` bench and the
/// `bench_baseline` binary so both measure the identical contended
/// scenario.
///
/// Spawning threads inside the timed region would dwarf the per-op cost
/// being measured (and allocate, muddying the zero-allocation story);
/// here the workers live across rounds, parked on a barrier between
/// them. On a single-core host the scenario is oversubscribed, but the
/// per-op allocation savings are scheduler-independent.
pub struct ContendedTcq {
    tcq: Arc<Tcq<u64>>,
    barrier: Arc<Barrier>,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    ops_per_thread: u64,
}

impl ContendedTcq {
    /// Spawn `threads` workers against a fresh TCQ (batch limit 16).
    /// Each round every worker submits `ops_per_thread` requests,
    /// driving any batch it leads to completion.
    pub fn new(pooled: bool, threads: usize, ops_per_thread: u64) -> Self {
        let tcq: Arc<Tcq<u64>> = Arc::new(Tcq::with_pooling(16, pooled));
        let barrier = Arc::new(Barrier::new(threads + 1));
        let stop = Arc::new(AtomicBool::new(false));
        let workers = (0..threads as u64)
            .map(|t| {
                let tcq = Arc::clone(&tcq);
                let barrier = Arc::clone(&barrier);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || loop {
                    barrier.wait();
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    for i in 0..ops_per_thread {
                        match tcq.join(t * ops_per_thread + i) {
                            Outcome::Lead(mut batch) => {
                                let mut sum = 0u64;
                                for it in batch.drain_items() {
                                    sum = sum.wrapping_add(it);
                                }
                                std::hint::black_box(sum);
                                tcq.complete(batch);
                            }
                            Outcome::Sent => {}
                        }
                    }
                    barrier.wait();
                })
            })
            .collect();
        ContendedTcq {
            tcq,
            barrier,
            stop,
            workers,
            threads,
            ops_per_thread,
        }
    }

    /// Run one round (every worker submits its quota), returning its
    /// wall time.
    pub fn round(&self) -> Duration {
        self.barrier.wait();
        let start = Instant::now();
        self.barrier.wait();
        start.elapsed()
    }

    /// Mean wall nanoseconds per `join`/`complete` op over `rounds`.
    pub fn ns_per_op(&self, rounds: u32) -> f64 {
        let mut total = Duration::ZERO;
        for _ in 0..rounds {
            total += self.round();
        }
        let ops = u64::from(rounds) * self.threads as u64 * self.ops_per_thread;
        total.as_nanos() as f64 / ops.max(1) as f64
    }

    /// Mean coalescing degree observed so far (requests per batch).
    pub fn mean_degree(&self) -> f64 {
        self.tcq.mean_degree()
    }
}

impl Drop for ContendedTcq {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Workers park on the round-start barrier between rounds; one
        // more wait releases them into the stop check.
        self.barrier.wait();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Measurement window per point, scaled by `FLOCK_SIM_MS` (default 8 ms).
pub fn sim_duration() -> Ns {
    let ms = std::env::var("FLOCK_SIM_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(8);
    Ns::from_millis(ms)
}

/// Warmup per point (default: half the measurement window, min 2 ms).
pub fn sim_warmup() -> Ns {
    Ns(sim_duration().as_nanos() / 2).max(Ns::from_millis(2))
}

/// Print a standard series header.
pub fn header(title: &str, cols: &[&str]) {
    println!("\n=== {title} ===");
    println!("{}", cols.join("\t"));
}
