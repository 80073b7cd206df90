//! Two runs of the crossover suite must render byte-identical JSON, and
//! that JSON must match the checked-in quick baseline
//! (`golden/onesided.quick.json`) — so a diff in `BENCH_onesided.json`
//! always means a code change, never scheduling noise.

use flock_bench::onesided::run_onesided_suite;

#[test]
fn quick_suite_is_byte_identical_across_runs() {
    let a = run_onesided_suite(true, false);
    let b = run_onesided_suite(true, false);
    assert_eq!(a, b, "onesided suite must be deterministic");
    assert_eq!(
        a,
        include_str!("../golden/onesided.quick.json"),
        "quick suite drifted from its golden file"
    );
}
