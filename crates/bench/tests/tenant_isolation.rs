//! End-to-end tenant-isolation battery: an aggressor tenant hammering
//! the server through the gateway must not degrade a well-behaved
//! victim's p99 beyond a fixed bound — *when its active-QP share is
//! capped*. Uncapped, the same aggressor visibly hurts the victims,
//! which is what makes the capped bound meaningful rather than vacuous.
//!
//! Runs the same deterministic virtual-time scenarios as
//! `BENCH_tenant.json` (quick preset), so a failure here reproduces
//! exactly under `scripts/bench.sh tenant --quick`.

use flock_bench::tenant::{run_hot_key_storm, run_interference, run_zipf_mix, TenantWorkload};

/// A capped aggressor may cost victims at most 30% p99 over running
/// alone — the acceptance bound for receiver-side tenant isolation.
const CAPPED_DISTURBANCE_BOUND: f64 = 1.3;

#[test]
fn capped_aggressor_bounds_victim_p99_disturbance() {
    let out = run_interference(TenantWorkload::preset(true));
    assert!(
        out.baseline_p99_us > 0.0,
        "baseline must measure something, got {:?}",
        out
    );
    assert!(
        out.capped_ratio <= CAPPED_DISTURBANCE_BOUND,
        "capped aggressor must not degrade victim p99 beyond {CAPPED_DISTURBANCE_BOUND}x \
         baseline, got {:.3}x ({:.1} us vs {:.1} us baseline)",
        out.capped_ratio,
        out.capped_p99_us,
        out.baseline_p99_us
    );
    // The cap is what does the work: the same aggressor left uncapped
    // must hurt the victims more than the capped one does.
    assert!(
        out.uncapped_ratio > out.capped_ratio,
        "uncapped aggressor should disturb victims more than a capped one, \
         got uncapped {:.3}x vs capped {:.3}x",
        out.uncapped_ratio,
        out.capped_ratio
    );
    // And the scheduler actually enforced the share: mid-run the
    // aggressor holds no more than its cap.
    assert!(
        out.capped_aggr_lanes <= out.aggr_cap,
        "capped aggressor held {} active lanes, cap is {}",
        out.capped_aggr_lanes,
        out.aggr_cap
    );
    // Uncapped, the aggressor's wide connection out-earns every victim
    // (utilization-proportional sharing working as designed — just not
    // what a multi-tenant operator wants).
    assert!(
        out.uncapped_aggr_lanes > out.aggr_cap,
        "uncapped aggressor should hold more lanes than the cap would allow, got {}",
        out.uncapped_aggr_lanes
    );
}

#[test]
fn equal_load_tenants_get_equal_service() {
    // Zipf mix: same offered load per tenant -> Jain's index near 1 on
    // both bench-side throughput and the server's own completed counts.
    let mix = run_zipf_mix(TenantWorkload::preset(true));
    assert!(
        mix.jains_tput >= 0.9,
        "per-tenant throughput under equal load should be fair, Jain's = {:.3}",
        mix.jains_tput
    );
    assert!(
        mix.jains_completed >= 0.99,
        "server-side completed counts should match equal offered load, Jain's = {:.3}",
        mix.jains_completed
    );
    // Server accounting and bench accounting agree op-for-op.
    for t in &mix.tenants {
        assert_eq!(
            t.ops, t.completed,
            "tenant {} bench ops vs server completed",
            t.tenant
        );
    }
}

#[test]
fn hot_key_contention_does_not_break_tenant_fairness() {
    let storm = run_hot_key_storm(TenantWorkload::preset(true));
    assert!(
        storm.jains_tput >= 0.9,
        "hot-key storm should stay fair across tenants, Jain's = {:.3}",
        storm.jains_tput
    );
    // Single-key workload really did collapse onto one key.
    assert_eq!(storm.store_keys, 1, "storm writes one key");
}
