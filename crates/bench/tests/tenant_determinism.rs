//! Two runs of the multi-tenant gateway suite must render byte-identical
//! JSON, and that JSON must match the checked-in quick baseline
//! (`golden/tenant.quick.json`) — so a diff in `BENCH_tenant.json`
//! always means a code change, never scheduling noise.

use flock_bench::tenant::run_tenant_suite;

#[test]
fn quick_suite_is_byte_identical_across_runs() {
    let a = run_tenant_suite(true, false);
    let b = run_tenant_suite(true, false);
    assert_eq!(a, b, "tenant suite must be deterministic");
    assert_eq!(
        a,
        include_str!("../golden/tenant.quick.json"),
        "quick suite drifted from its golden file"
    );
}
