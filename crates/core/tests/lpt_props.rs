//! Property tests for the greedy-LPT dispatch partition
//! (`flock_core::lpt_partition`), the function behind
//! `rebalance_dispatch`, and for the lane placement built on it
//! (`flock_core::lane_worker`). The invariants here are what the sharded
//! receive path relies on: every connection lands on exactly one base
//! worker, no out-of-range worker index (even when workers exceed
//! connections or are zero), the classic LPT load bound holds, and a
//! connection's lanes spread from its base across distinct workers.

use flock_core::{lane_worker, lpt_partition};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    /// Every connection is assigned exactly once, to an in-range worker.
    #[test]
    fn assigns_every_connection_in_range(
        weights in vec(0usize..10_000, 0..64),
        workers in 0usize..16,
    ) {
        let assign = lpt_partition(&weights, workers);
        prop_assert_eq!(assign.len(), weights.len());
        let effective = workers.max(1);
        for &t in &assign {
            prop_assert!(t < effective, "worker {} out of range {}", t, effective);
        }
    }

    /// More workers than connections (including zero connections) must
    /// not panic and must leave the surplus workers empty-but-valid.
    #[test]
    fn workers_exceeding_connections_is_safe(
        weights in vec(1usize..100, 0..4),
        extra in 1usize..32,
    ) {
        let workers = weights.len() + extra;
        let assign = lpt_partition(&weights, workers);
        prop_assert_eq!(assign.len(), weights.len());
        // With more workers than items, greedy LPT gives every item its
        // own worker: no two items share one.
        let mut seen = std::collections::HashSet::new();
        for &t in &assign {
            prop_assert!(seen.insert(t), "worker {} assigned twice", t);
        }
    }

    /// Greedy-LPT bound: max load <= min load + max single weight. A
    /// violation means some connection could move to a lighter worker,
    /// i.e. the rebalancer left avoidable imbalance on the table.
    #[test]
    fn load_within_lpt_bound(
        weights in vec(1usize..10_000, 1..64),
        workers in 1usize..16,
    ) {
        let assign = lpt_partition(&weights, workers);
        let mut load = vec![0usize; workers];
        for (i, &t) in assign.iter().enumerate() {
            load[t] += weights[i];
        }
        let max_load = *load.iter().max().unwrap();
        let min_load = *load.iter().min().unwrap();
        let max_w = *weights.iter().max().unwrap();
        prop_assert!(
            max_load <= min_load + max_w,
            "max {} > min {} + heaviest {}",
            max_load, min_load, max_w
        );
    }

    /// Determinism: the partition is a pure function of its inputs (the
    /// virtual-time sweep depends on this — rebalance must not inject
    /// scheduling noise).
    #[test]
    fn partition_is_deterministic(
        weights in vec(0usize..1_000, 0..48),
        workers in 0usize..12,
    ) {
        prop_assert_eq!(
            lpt_partition(&weights, workers),
            lpt_partition(&weights, workers)
        );
    }

    /// Every lane lands on an in-range worker, whatever the base and
    /// lane count (zero workers clamp to one).
    #[test]
    fn lane_worker_is_in_range(
        base in 0usize..64,
        lanes in 1usize..64,
        workers in 0usize..32,
        pick in 0usize..64,
    ) {
        let w = lane_worker(base, pick % lanes, lanes, workers);
        prop_assert!(w < workers.max(1), "worker {} out of range {}", w, workers.max(1));
    }

    /// Lane 0 runs on the base worker, so single-lane connections keep
    /// the connection-granular partition exactly.
    #[test]
    fn lane_zero_is_the_base(
        workers in 1usize..32,
        base_pick in 0usize..32,
        lanes in 1usize..64,
    ) {
        let base = base_pick % workers;
        prop_assert_eq!(lane_worker(base, 0, lanes, workers), base);
    }

    /// With no more lanes than workers, a connection's lanes land on
    /// distinct workers: no two of its lanes share a dispatcher.
    #[test]
    fn lanes_spread_over_distinct_workers(
        workers in 1usize..32,
        base_pick in 0usize..32,
        lanes_pick in 1usize..32,
    ) {
        let base = base_pick % workers;
        let lanes = 1 + (lanes_pick - 1) % workers;
        let mut seen = std::collections::HashSet::new();
        for lane in 0..lanes {
            let w = lane_worker(base, lane, lanes, workers);
            prop_assert!(seen.insert(w), "lane {} reuses worker {}", lane, w);
        }
    }

    /// One worker owns everything.
    #[test]
    fn single_worker_takes_every_lane(
        base in 0usize..8,
        lanes in 1usize..64,
        pick in 0usize..64,
    ) {
        prop_assert_eq!(lane_worker(base, pick % lanes, lanes, 1), 0);
    }
}
