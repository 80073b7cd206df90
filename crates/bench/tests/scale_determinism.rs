//! Two runs of the seeded virtual-time sweep must render byte-identical
//! JSON, and that JSON must match the checked-in quick baseline
//! (`golden/scale.quick.json`) — so a diff in `BENCH_scale.json` always
//! means a code change, never scheduling noise, and a code change that
//! moves any number shows up here first.

use flock_bench::scale::run_scale_suite;

#[test]
fn quick_sweep_is_byte_identical_across_runs() {
    let a = run_scale_suite(true, false);
    let b = run_scale_suite(true, false);
    assert_eq!(a, b, "virtual-time sweep must be deterministic");
    assert_eq!(
        a,
        include_str!("../golden/scale.quick.json"),
        "quick sweep drifted from its golden file"
    );
}
