//! Two runs of the churn suite must render byte-identical JSON, and that
//! JSON must match the checked-in quick baseline
//! (`golden/churn.quick.json`) — so a diff in `BENCH_churn.json` always
//! means a code change, never scheduling noise.

use flock_bench::churn::{run_churn_load, run_churn_suite, run_storm, ChurnWorkload};

#[test]
fn quick_suite_is_byte_identical_across_runs() {
    let a = run_churn_suite(true, false);
    let b = run_churn_suite(true, false);
    assert_eq!(a, b, "churn suite must be deterministic");
    assert_eq!(
        a,
        include_str!("../golden/churn.quick.json"),
        "quick suite drifted from its golden file"
    );
}

#[test]
fn warm_wave_beats_cold_wave() {
    // The headline acceptance property at smoke scale: reconnecting into
    // pooled QPs and cached MRs must be an order of magnitude faster
    // than the cold control path.
    let mut w = ChurnWorkload::preset(true);
    w.storm_clients = 4;
    let storm = run_storm(w);
    assert!(
        storm.warm_speedup >= 10.0,
        "warm TTFR should be >=10x faster than cold, got {:.1}x (cold {:.1} us, warm {:.1} us)",
        storm.warm_speedup,
        storm.cold_median_us,
        storm.warm_median_us
    );
    assert!(storm.server_warm_leases >= w.storm_clients as u64);
}

#[test]
fn churn_disturbance_is_bounded() {
    // Steady-cohort p99 under connect/disconnect churn stays within 20%
    // of the no-churn baseline (quiescence never stalls dispatch).
    let mut w = ChurnWorkload::preset(true);
    w.steady_clients = 2;
    w.reqs_per_steady = 16;
    w.churners = 2;
    w.churn_rounds = 2;
    let churn = run_churn_load(w);
    assert!(churn.churn_events >= 4);
    assert!(
        churn.disturbance_ratio <= 1.2,
        "churn p99 within 20% of baseline, got {:.3}x ({:.1} us vs {:.1} us)",
        churn.disturbance_ratio,
        churn.churn_p99_us,
        churn.baseline_p99_us
    );
}
