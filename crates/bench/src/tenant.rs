//! Multi-tenant gateway benchmark: edge sessions speaking real wire
//! protocols fan into a kvstore-backed Flock server over *shared,
//! capped* per-tenant connections, inside the deterministic
//! virtual-time lab ([`VirtualLab`]).
//!
//! Three scenarios, each a pure function of its configuration (two runs
//! render byte-identical JSON — the CI determinism diff):
//!
//! 1. **Zipf-skewed GET/SET mix** — every tenant drives a 90/10
//!    GET/SET mix over a shared key space with Zipf(0.99) popularity.
//!    Reported per tenant: throughput, p99, server-side completed
//!    count; plus Jain's fairness index over per-tenant throughput
//!    (equal offered load, so fair means ≈ 1.0).
//! 2. **Hot-key storm** — the same cohort collapses onto a single key
//!    (80/20 GET/SET). Key-level contention must not break tenant-level
//!    fairness.
//! 3. **Tenant interference** — one aggressor tenant (many busy edge
//!    sessions over a wide connection) against N well-behaved victims,
//!    run three ways: victims alone (baseline), aggressor uncapped, and
//!    aggressor under a per-tenant AQP share cap. The victim p99
//!    disturbance ratio (vs baseline) is the headline: caps must hold
//!    it near 1, while the uncapped run shows what lane-stealing costs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use flock_core::sched::jains_index;
use flock_core::server::{FlockServer, ServerConfig};
use flock_core::FlockDomain;
use flock_gateway::proto::{MemcachedText, Request, WireProtocol};
use flock_gateway::{register_kv_backend, Gateway, GatewayConfig};
use flock_kvstore::{KvConfig, KvStore};
use flock_sim::rng::{SimRng, ZipfTable};
use flock_sim::vtime::VirtualLab;
use flock_sync::clock;

use crate::arrival::RateRamp;
use crate::report::{elastic_fabric, percentile_us, Obj};

/// Knobs shared by the three scenarios.
#[derive(Debug, Clone, Copy)]
pub struct TenantWorkload {
    /// Tenants in the mix/storm scenarios (equal offered load each).
    pub tenants: usize,
    /// Edge sessions per tenant.
    pub sessions_per_tenant: usize,
    /// Requests each edge session issues.
    pub reqs_per_session: u64,
    /// Key-space size for the Zipf mix.
    pub keys: usize,
    /// SET value bytes.
    pub payload: usize,
    /// Root seed for the per-session workload RNGs.
    pub seed: u64,
    /// Well-behaved tenants in the interference scenario.
    pub victims: usize,
    /// Target requests per victim session in the interference scenario,
    /// split equally across the three stages of the arrival-rate ramp
    /// (the realized count is the ramp schedule's draw, identical in
    /// all three runs).
    pub victim_reqs: u64,
    /// Busy edge sessions the aggressor tenant drives.
    pub aggr_sessions: usize,
    /// Per-tenant AQP cap applied to the aggressor in the capped run.
    pub aggr_cap: usize,
    /// Server MAX_AQP budget for the interference scenario.
    pub max_aqp: usize,
}

impl TenantWorkload {
    /// Scenario sizes for a sweep: CI smoke (`quick`) or the checked-in
    /// `BENCH_tenant.json`.
    pub fn preset(quick: bool) -> TenantWorkload {
        if quick {
            TenantWorkload {
                tenants: 3,
                sessions_per_tenant: 2,
                reqs_per_session: 24,
                keys: 16,
                payload: 32,
                seed: 42,
                victims: 3,
                victim_reqs: 96,
                aggr_sessions: 6,
                aggr_cap: 2,
                max_aqp: 8,
            }
        } else {
            TenantWorkload {
                tenants: 4,
                sessions_per_tenant: 2,
                reqs_per_session: 96,
                keys: 64,
                payload: 32,
                seed: 42,
                victims: 3,
                victim_reqs: 128,
                aggr_sessions: 6,
                aggr_cap: 2,
                max_aqp: 8,
            }
        }
    }
}

/// NIC lanes per node on the elastic fabric: enough that per-tenant
/// fairness is decided by the receiver's QP scheduler, not by which NIC
/// lane a connection happens to share.
const NIC_LANES: usize = 6;

/// Mean inter-request gap for mix-scenario sessions (virtual ns).
/// Open-loop pacing: tenants are latency-sensitive clients, and paced
/// arrivals are what the receiver-side scheduler's utilization
/// accounting is designed around.
const MIX_GAP_NS: f64 = 5_000.0;

/// Nominal mean inter-request gap for victim sessions in the
/// interference scenario (virtual ns) — the middle stage of the ramp.
const VICTIM_GAP_NS: f64 = 2_000.0;

/// The victims' open-loop arrival-rate ramp: each session walks slow →
/// nominal → fast offered load (mean gaps 2x, 1x, 0.5x the nominal), an
/// equal target share of `victim_reqs` per stage. The p99 comparison
/// then covers the whole rate range rather than one operating point, so
/// a cap that only holds at light load cannot pass. The schedule is
/// drawn from each session's own RNG, identically in all three runs.
fn victim_ramp(victim_reqs: u64) -> RateRamp {
    RateRamp::per_stage_target(
        &[2.0 * VICTIM_GAP_NS, VICTIM_GAP_NS, 0.5 * VICTIM_GAP_NS],
        victim_reqs / 3,
    )
}

/// Edge sessions per victim tenant: enough concurrency that the
/// tenant's AQP share translates into batching delay when squeezed.
const VICTIM_SESSIONS: usize = 4;

/// Virtual ns after `go` before the aggressor's sessions start
/// hammering: deep into the victims' slow ramp stage, so the burst
/// lands on a converged worker cut (see the aggressor task body).
/// Scaled with the ramp so the burst hits the same *phase* of the
/// victims' slow stage at every `victim_reqs` (the realized stage span
/// grows linearly: each arrival's round-trip serializes after its
/// drawn gap). 250 µs is the calibrated quick-scale (96-request)
/// phase; a fixed delay instead lands at a different point of the
/// re-cut cycle at full scale and the measured ratios stop comparing
/// like with like.
fn aggr_burst_delay_ns(victim_reqs: u64) -> u64 {
    victim_reqs * 250_000 / 96
}

/// Virtual ns after `go` at which lane shares are sampled: one
/// scheduler epoch (and change) past the burst, inside the victims'
/// nominal-rate middle stage, so the snapshot shows the re-cut that
/// responded to the burst.
fn share_snapshot_ns(victim_reqs: u64) -> u64 {
    aggr_burst_delay_ns(victim_reqs) + 200_000
}

/// Client-side thread-scheduler interval for gateway connections. The
/// default (10 ms) never fires inside a sub-millisecond scenario; this
/// keeps thread→lane assignment tracking the server's AQP grants.
const CLIENT_SCHED_INTERVAL: Duration = Duration::from_micros(100);

// ---------------------------------------------------------------------
// Scenarios 1 + 2: protocol mix through the gateway
// ---------------------------------------------------------------------

/// One tenant's measured row in a mix scenario.
#[derive(Debug, Clone)]
pub struct TenantStat {
    /// Tenant id.
    pub tenant: u32,
    /// Requests the tenant's sessions completed.
    pub ops: u64,
    /// Throughput over the tenant's active span (ops per virtual ms).
    pub tput_ops_per_ms: f64,
    /// Median request latency (virtual µs), wire-in to wire-out.
    pub median_us: f64,
    /// p99 request latency (virtual µs).
    pub p99_us: f64,
    /// Completed requests the *server's* per-tenant accounting saw —
    /// ties the bench numbers to the scheduler's books.
    pub completed: u64,
}

/// Measured outcome of a mix scenario (Zipf mix or hot-key storm).
#[derive(Debug, Clone)]
pub struct MixOutcome {
    /// Per-tenant rows, ascending tenant id.
    pub tenants: Vec<TenantStat>,
    /// Jain's fairness index over per-tenant throughput.
    pub jains_tput: f64,
    /// Jain's fairness index over server-side completed counts.
    pub jains_completed: f64,
    /// Keys left in the store at the end.
    pub store_keys: usize,
    /// Lab handovers — a determinism fingerprint.
    pub handovers: u64,
    /// Virtual tasks spawned.
    pub tasks: u64,
}

/// Run a GET/SET mix through the gateway: `keys` hot keys with Zipf
/// skew `zipf_s`, SET probability `set_ratio`, every tenant driving the
/// same offered load over memcached-text edge sessions.
pub fn run_mix(w: TenantWorkload, label: &'static str, keys: usize, zipf_s: f64, set_ratio: f64) -> MixOutcome {
    let (mut outcome, report) = VirtualLab::run_report(move || {
        let domain = Arc::new(FlockDomain::new(elastic_fabric(NIC_LANES)));
        let server_node = domain.add_node(&format!("{label}-srv"));
        let mut scfg = ServerConfig::default();
        scfg.dispatch_threads = 2;
        scfg.sched_interval = Duration::from_micros(100);
        let server = FlockServer::listen(&domain, &server_node, label, scfg);
        let kv = Arc::new(KvStore::new(KvConfig::default()));
        register_kv_backend(&server, Arc::clone(&kv));

        let gw_node = domain.add_node(&format!("{label}-gw"));
        let mut gcfg = GatewayConfig::default();
        gcfg.handle.n_qps = 2;
        gcfg.handle.mem_threads = w.sessions_per_tenant + 1;
        gcfg.handle.sched_interval = CLIENT_SCHED_INTERVAL;
        let gw = Gateway::new(Arc::clone(&domain), gw_node, label, gcfg);

        // Open every session up front, in tenant order, so connection
        // creation is deterministic and outside the measured window.
        let mut sessions = Vec::new();
        for t in 1..=w.tenants as u32 {
            for s in 0..w.sessions_per_tenant {
                let sess = gw
                    .open_session(t, Arc::new(MemcachedText))
                    .expect("open session");
                sessions.push((t, s, sess));
            }
        }

        let go = Arc::new(AtomicBool::new(false));
        type Rows = Arc<Mutex<Vec<(u32, usize, u64, u64, Vec<u64>)>>>;
        let rows: Rows = Arc::new(Mutex::new(Vec::new()));

        let mut root = SimRng::new(w.seed);
        let mut tasks = Vec::with_capacity(sessions.len());
        for (tenant, s, mut sess) in sessions {
            let go = Arc::clone(&go);
            let rows = Arc::clone(&rows);
            let mut rng = root.fork((u64::from(tenant) << 8) | s as u64);
            let table = ZipfTable::new(keys, zipf_s);
            tasks.push(clock::spawn(&format!("{label}-t{tenant}-s{s}"), move || {
                while !go.load(Ordering::Acquire) {
                    clock::sleep_ns(5_000);
                }
                let value = vec![b'v'; w.payload];
                let mut wire = Vec::new();
                let mut out = Vec::new();
                let mut lats = Vec::with_capacity(w.reqs_per_session as usize);
                let t0 = clock::now_ns();
                for _ in 0..w.reqs_per_session {
                    // Open-loop pacing with exponential jitter: arrivals
                    // don't self-synchronize into lockstep rounds.
                    clock::sleep_ns(rng.exp(MIX_GAP_NS) as u64);
                    let key = format!("k{}", rng.zipf(&table));
                    wire.clear();
                    if rng.chance(set_ratio) {
                        MemcachedText.encode_request(
                            &Request::Set {
                                key: key.as_bytes(),
                                value: &value,
                            },
                            &mut wire,
                        );
                    } else {
                        MemcachedText
                            .encode_request(&Request::Get { key: key.as_bytes() }, &mut wire);
                    }
                    out.clear();
                    let at = clock::now_ns();
                    let n = sess.pump(&wire, &mut out).expect("pump");
                    debug_assert_eq!(n, 1);
                    debug_assert!(!out.is_empty());
                    lats.push(clock::now_ns().saturating_sub(at));
                }
                let t1 = clock::now_ns();
                rows.lock().unwrap().push((tenant, s, t0, t1, lats));
            }));
        }
        go.store(true, Ordering::Release);
        for t in tasks {
            let _ = t.join();
        }

        let snap = server.fairness_snapshot();
        let store_keys = kv.len();
        gw.close().expect("gateway close");
        drop(gw);
        server.shutdown(&domain);
        drop(server);
        drop(
            Arc::try_unwrap(domain)
                .ok()
                .expect("all domain users joined"),
        );

        // Aggregate per tenant: merged latencies, span-based throughput.
        let mut collected = std::mem::take(&mut *rows.lock().unwrap());
        collected.sort_unstable_by_key(|(t, s, ..)| (*t, *s));
        let mut stats = Vec::with_capacity(w.tenants);
        for tenant in 1..=w.tenants as u32 {
            let mut lats: Vec<u64> = Vec::new();
            let (mut start, mut end) = (u64::MAX, 0u64);
            for (t, _s, t0, t1, l) in &collected {
                if *t == tenant {
                    start = start.min(*t0);
                    end = end.max(*t1);
                    lats.extend_from_slice(l);
                }
            }
            lats.sort_unstable();
            let span_ns = end.saturating_sub(start).max(1);
            let completed = snap.tenant(tenant).map_or(0, |row| row.completed);
            stats.push(TenantStat {
                tenant,
                ops: lats.len() as u64,
                tput_ops_per_ms: lats.len() as f64 / (span_ns as f64 / 1e6),
                median_us: percentile_us(&lats, 0.5),
                p99_us: percentile_us(&lats, 0.99),
                completed,
            });
        }
        MixOutcome {
            jains_tput: jains_index(stats.iter().map(|s| s.tput_ops_per_ms)),
            jains_completed: jains_index(stats.iter().map(|s| s.completed as f64)),
            tenants: stats,
            store_keys,
            handovers: 0,
            tasks: 0,
        }
    });
    outcome.handovers = report.handovers;
    outcome.tasks = report.tasks_spawned;
    outcome
}

/// Scenario 1: Zipf(0.99) key popularity, 90/10 GET/SET.
pub fn run_zipf_mix(w: TenantWorkload) -> MixOutcome {
    run_mix(w, "ten-zipf", w.keys, 0.99, 0.10)
}

/// Scenario 2: every tenant hammers one hot key, 80/20 GET/SET.
pub fn run_hot_key_storm(w: TenantWorkload) -> MixOutcome {
    run_mix(w, "ten-hot", 1, 0.0, 0.20)
}

// ---------------------------------------------------------------------
// Scenario 3: tenant interference (aggressor vs victims)
// ---------------------------------------------------------------------

/// How the aggressor participates in an interference run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggrMode {
    /// Victims alone — the baseline.
    Absent,
    /// Aggressor present, no per-tenant cap.
    Uncapped,
    /// Aggressor present, capped to `TenantWorkload::aggr_cap` AQPs.
    Capped,
}

/// The aggressor's tenant id (victims are `1..=victims`).
pub const AGGRESSOR_TENANT: u32 = 9;

/// Measured outcome of the interference scenario.
#[derive(Debug, Clone)]
pub struct InterferenceOutcome {
    /// Well-behaved tenants.
    pub victims: usize,
    /// Busy aggressor edge sessions.
    pub aggr_sessions: usize,
    /// Server MAX_AQP budget.
    pub max_aqp: usize,
    /// The cap applied in the capped run.
    pub aggr_cap: usize,
    /// Mean inter-arrival gaps of the victims' rate ramp, slow → fast
    /// (virtual ns).
    pub victim_ramp_gaps_ns: [f64; 3],
    /// Realized victim arrivals per run — a pure function of the ramp
    /// schedule's draws, so identical in all three runs (asserted).
    pub victim_ops: u64,
    /// Victim p99 with no aggressor (virtual µs).
    pub baseline_p99_us: f64,
    /// Victim p99 with the aggressor uncapped (virtual µs).
    pub uncapped_p99_us: f64,
    /// Victim p99 with the aggressor capped (virtual µs).
    pub capped_p99_us: f64,
    /// `uncapped_p99 / baseline_p99` — what lane-stealing costs.
    pub uncapped_ratio: f64,
    /// `capped_p99 / baseline_p99` — the isolation headline (≤ 1.3).
    pub capped_ratio: f64,
    /// Victim active AQPs (summed) mid-run, uncapped.
    pub uncapped_victim_lanes: usize,
    /// Aggressor active AQPs mid-run, uncapped.
    pub uncapped_aggr_lanes: usize,
    /// Victim active AQPs (summed) mid-run, capped.
    pub capped_victim_lanes: usize,
    /// Aggressor active AQPs mid-run, capped.
    pub capped_aggr_lanes: usize,
    /// Requests the aggressor completed while uncapped.
    pub aggr_ops_uncapped: u64,
    /// Requests the aggressor completed while capped.
    pub aggr_ops_capped: u64,
    /// Lab handovers summed over the three runs.
    pub handovers: u64,
    /// Virtual tasks summed over the three runs.
    pub tasks: u64,
}

/// One interference run. Returns (sorted middle-half victim latencies
/// ns, total victim ops, aggressor ops, victim lanes mid-run, aggressor
/// lanes mid-run, handovers, tasks).
type InterferenceRun = (Vec<u64>, u64, u64, usize, usize, u64, u64);

fn interference_run(w: TenantWorkload, mode: AggrMode) -> InterferenceRun {
    let (run, report) = VirtualLab::run_report(move || {
        let domain = Arc::new(FlockDomain::new(elastic_fabric(NIC_LANES)));
        let server_node = domain.add_node("ten-int-srv");
        let mut scfg = ServerConfig::default();
        // Four dispatch workers for the four connections (three victim
        // tenants, one aggressor). Placement is per lane: each
        // connection's lanes stride across the workers from its base
        // (`flock_core::lane_worker`), so the aggressor's six lanes reach
        // every worker, and what shields the victims is the cap on how
        // many of those lanes stay active, not the partition.
        scfg.dispatch_threads = 4;
        scfg.sched.max_aqp = w.max_aqp;
        scfg.sched_interval = Duration::from_micros(100);
        let server = FlockServer::listen(&domain, &server_node, "ten-int", scfg);
        let kv = Arc::new(KvStore::new(KvConfig::default()));
        register_kv_backend(&server, Arc::clone(&kv));

        if mode == AggrMode::Capped {
            server.set_tenant_cap(AGGRESSOR_TENANT, w.aggr_cap);
        }

        // Victims: narrow shared connections (2 eager lanes each), four
        // paced sessions per tenant — enough concurrency that losing a
        // lane shows up as batching delay.
        let gw_v_node = domain.add_node("ten-int-gw-v");
        let mut vcfg = GatewayConfig::default();
        vcfg.handle.n_qps = 2;
        vcfg.handle.eager_qps = true;
        vcfg.handle.mem_threads = VICTIM_SESSIONS + 1;
        vcfg.handle.sched_interval = CLIENT_SCHED_INTERVAL;
        let gw_v = Gateway::new(Arc::clone(&domain), gw_v_node, "ten-int", vcfg);

        // Aggressor: one wide connection (6 eager lanes) carrying many
        // busy sessions — exactly the tenant a cap is for.
        let gw_a_node = domain.add_node("ten-int-gw-a");
        let mut acfg = GatewayConfig::default();
        acfg.handle.n_qps = 6;
        acfg.handle.eager_qps = true;
        acfg.handle.mem_threads = w.aggr_sessions + 1;
        acfg.handle.sched_interval = CLIENT_SCHED_INTERVAL;
        let gw_a = Gateway::new(Arc::clone(&domain), gw_a_node, "ten-int", acfg);

        let mut victim_sessions = Vec::new();
        for t in 1..=w.victims as u32 {
            for s in 0..VICTIM_SESSIONS {
                let sess = gw_v
                    .open_session(t, Arc::new(MemcachedText))
                    .expect("victim session");
                victim_sessions.push((t, s, sess));
            }
        }
        let mut aggr_sessions = Vec::new();
        if mode != AggrMode::Absent {
            for s in 0..w.aggr_sessions {
                aggr_sessions.push((
                    s,
                    gw_a.open_session(AGGRESSOR_TENANT, Arc::new(MemcachedText))
                        .expect("aggressor session"),
                ));
            }
        }

        let go = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let aggr_ops = Arc::new(AtomicU64::new(0));
        type Rows = Arc<Mutex<Vec<(u32, usize, Vec<u64>)>>>;
        let rows: Rows = Arc::new(Mutex::new(Vec::new()));

        let mut root = SimRng::new(w.seed);
        let ramp = victim_ramp(w.victim_reqs);
        let mut victim_tasks = Vec::new();
        for (tenant, s, mut sess) in victim_sessions {
            let go = Arc::clone(&go);
            let rows = Arc::clone(&rows);
            let ramp = ramp.clone();
            let mut rng = root.fork((u64::from(tenant) << 8) | s as u64);
            victim_tasks.push(clock::spawn(&format!("victim-{tenant}-{s}"), move || {
                while !go.load(Ordering::Acquire) {
                    clock::sleep_ns(5_000);
                }
                let key = format!("v{tenant}s{s}");
                let mut wire = Vec::new();
                MemcachedText.encode_request(&Request::Get { key: key.as_bytes() }, &mut wire);
                let mut out = Vec::new();
                let mut lats = Vec::with_capacity(ramp.expected_arrivals() as usize + 8);
                // Walk the arrival-rate ramp on the *scheduled* timeline
                // (cumulative drawn gaps), not the wall clock: the number
                // and spacing of arrivals is then a pure function of the
                // session's RNG, so all three runs offer the same load
                // and only the measured latencies differ.
                let mut sched_ns = 0u64;
                while let Some(gap) = ramp.gap_at(sched_ns, &mut rng) {
                    sched_ns += gap;
                    clock::sleep_ns(gap);
                    out.clear();
                    let at = clock::now_ns();
                    sess.pump(&wire, &mut out).expect("victim pump");
                    lats.push(clock::now_ns().saturating_sub(at));
                }
                rows.lock().unwrap().push((tenant, s, lats));
            }));
        }

        let mut aggr_tasks = Vec::new();
        let burst_delay = aggr_burst_delay_ns(w.victim_reqs);
        for (s, mut sess) in aggr_sessions {
            let go = Arc::clone(&go);
            let stop = Arc::clone(&stop);
            let aggr_ops = Arc::clone(&aggr_ops);
            let payload = w.payload;
            aggr_tasks.push(clock::spawn(&format!("aggr-{s}"), move || {
                while !go.load(Ordering::Acquire) {
                    clock::sleep_ns(5_000);
                }
                let value = vec![b'a'; payload];
                let key = format!("a{s}");
                let mut wire = Vec::new();
                MemcachedText.encode_request(
                    &Request::Set {
                        key: key.as_bytes(),
                        value: &value,
                    },
                    &mut wire,
                );
                let mut out = Vec::new();
                // Burst in mid-ramp: the victims' slow first stage lets
                // the receiver's worker cut converge on a quiet cohort,
                // and the aggressor then arrives at full blast into that
                // converged state -- the lane-stealing scenario a cap
                // exists for. (An aggressor present from t=0 just gets
                // packed separately by the first cut and never hurts.)
                clock::sleep_ns(burst_delay);
                while !stop.load(Ordering::Acquire) {
                    out.clear();
                    sess.pump(&wire, &mut out).expect("aggressor pump");
                    aggr_ops.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }

        go.store(true, Ordering::Release);
        // Sample lane shares mid-run (see `share_snapshot_ns`).
        clock::sleep_ns(share_snapshot_ns(w.victim_reqs));
        let snap = server.fairness_snapshot();
        let victim_lanes: usize = (1..=w.victims as u32)
            .filter_map(|t| snap.tenant(t).map(|r| r.active_qps))
            .sum();
        let aggr_lanes = snap
            .tenant(AGGRESSOR_TENANT)
            .map_or(0, |r| r.active_qps);

        for t in victim_tasks {
            let _ = t.join();
        }
        stop.store(true, Ordering::Release);
        for t in aggr_tasks {
            let _ = t.join();
        }

        gw_v.close().expect("victim gateway close");
        gw_a.close().expect("aggressor gateway close");
        drop(gw_v);
        drop(gw_a);
        server.shutdown(&domain);
        drop(server);
        drop(
            Arc::try_unwrap(domain)
                .ok()
                .expect("all domain users joined"),
        );

        // Keep each session's middle *stage* of the arrival ramp: the
        // slow first stage doubles as scheduler warm-up, and the fast
        // last stage self-queues (arrivals outpace one session's
        // round-trips) and overlaps cohort wind-down, both of which
        // inflate p99 identically in *every* mode and would wash out
        // the aggressor's effect. The nominal-rate stage, same cut
        // everywhere, is where the ratios compare converged states.
        let mut collected = std::mem::take(&mut *rows.lock().unwrap());
        collected.sort_unstable_by_key(|(t, s, _)| (*t, *s));
        let mut all: Vec<u64> = Vec::new();
        let mut victim_ops = 0u64;
        for (_t, _s, l) in &collected {
            victim_ops += l.len() as u64;
            all.extend_from_slice(&l[l.len() / 3..2 * l.len() / 3]);
        }
        all.sort_unstable();
        (
            all,
            victim_ops,
            aggr_ops.load(Ordering::Relaxed),
            victim_lanes,
            aggr_lanes,
        )
    });
    let (lats, victim_ops, aggr_ops, victim_lanes, aggr_lanes) = run;
    (
        lats,
        victim_ops,
        aggr_ops,
        victim_lanes,
        aggr_lanes,
        report.handovers,
        report.tasks_spawned,
    )
}

/// Run the interference scenario: baseline, uncapped, capped — same
/// victim workload in each.
pub fn run_interference(w: TenantWorkload) -> InterferenceOutcome {
    let (base, base_ops, _, _, _, h0, t0) = interference_run(w, AggrMode::Absent);
    let (unc, unc_ops, aggr_unc, unc_vl, unc_al, h1, t1) = interference_run(w, AggrMode::Uncapped);
    let (cap, cap_ops, aggr_cap, cap_vl, cap_al, h2, t2) = interference_run(w, AggrMode::Capped);
    // The ramp schedule is drawn from per-session RNGs, never the
    // server: every mode must offer the exact same load.
    assert_eq!(base_ops, unc_ops, "offered load differs across runs");
    assert_eq!(base_ops, cap_ops, "offered load differs across runs");
    let baseline_p99_us = percentile_us(&base, 0.99);
    let uncapped_p99_us = percentile_us(&unc, 0.99);
    let capped_p99_us = percentile_us(&cap, 0.99);
    let ratio = |x: f64| if baseline_p99_us > 0.0 { x / baseline_p99_us } else { 0.0 };
    InterferenceOutcome {
        victims: w.victims,
        aggr_sessions: w.aggr_sessions,
        max_aqp: w.max_aqp,
        aggr_cap: w.aggr_cap,
        victim_ramp_gaps_ns: [2.0 * VICTIM_GAP_NS, VICTIM_GAP_NS, 0.5 * VICTIM_GAP_NS],
        victim_ops: base_ops,
        baseline_p99_us,
        uncapped_p99_us,
        capped_p99_us,
        uncapped_ratio: ratio(uncapped_p99_us),
        capped_ratio: ratio(capped_p99_us),
        uncapped_victim_lanes: unc_vl,
        uncapped_aggr_lanes: unc_al,
        capped_victim_lanes: cap_vl,
        capped_aggr_lanes: cap_al,
        aggr_ops_uncapped: aggr_unc,
        aggr_ops_capped: aggr_cap,
        handovers: h0 + h1 + h2,
        tasks: t0 + t1 + t2,
    }
}

// ---------------------------------------------------------------------
// Sweep + JSON
// ---------------------------------------------------------------------

/// Run all three scenarios and render the stable-order JSON document.
pub fn run_tenant_suite(quick: bool, log: bool) -> String {
    let w = TenantWorkload::preset(quick);
    if log {
        eprintln!(
            "bench tenant: zipf mix ({} tenants x {} sessions x {} reqs)...",
            w.tenants, w.sessions_per_tenant, w.reqs_per_session
        );
    }
    let zipf = run_zipf_mix(w);
    if log {
        eprintln!(
            "  -> jains(tput) {:.3}, jains(completed) {:.3}, {} store keys",
            zipf.jains_tput, zipf.jains_completed, zipf.store_keys
        );
        eprintln!("bench tenant: hot-key storm...");
    }
    let hot = run_hot_key_storm(w);
    if log {
        eprintln!(
            "  -> jains(tput) {:.3}, jains(completed) {:.3}",
            hot.jains_tput, hot.jains_completed
        );
        eprintln!(
            "bench tenant: interference ({} victims vs {} aggressor sessions, cap {})...",
            w.victims, w.aggr_sessions, w.aggr_cap
        );
    }
    let intf = run_interference(w);
    if log {
        eprintln!(
            "  -> victim p99 {:.1} us baseline, {:.1} us uncapped ({:.3}x), {:.1} us capped ({:.3}x)",
            intf.baseline_p99_us,
            intf.uncapped_p99_us,
            intf.uncapped_ratio,
            intf.capped_p99_us,
            intf.capped_ratio
        );
        eprintln!(
            "  -> mid-run lanes: uncapped {}v/{}a, capped {}v/{}a",
            intf.uncapped_victim_lanes,
            intf.uncapped_aggr_lanes,
            intf.capped_victim_lanes,
            intf.capped_aggr_lanes
        );
    }
    render_json(quick, w, &zipf, &hot, &intf)
}

fn mix_json(m: &MixOutcome) -> Obj {
    let tenants = m.tenants.iter().map(|t| {
        Obj::new()
            .int("tenant", t.tenant)
            .int("ops", t.ops)
            .float("tput_ops_per_ms", t.tput_ops_per_ms, 2)
            .float("median_us", t.median_us, 2)
            .float("p99_us", t.p99_us, 2)
            .int("completed", t.completed)
    });
    Obj::new()
        .rows("tenants", tenants)
        .float("jains_tput", m.jains_tput, 3)
        .float("jains_completed", m.jains_completed, 3)
        .int("store_keys", m.store_keys)
        .int("handovers", m.handovers)
        .int("tasks", m.tasks)
}

/// Render the suite's JSON document.
pub fn render_json(
    quick: bool,
    w: TenantWorkload,
    zipf: &MixOutcome,
    hot: &MixOutcome,
    intf: &InterferenceOutcome,
) -> String {
    Obj::doc("flock-bench-tenant/v1", quick)
        .int("payload_bytes", w.payload)
        .int("seed", w.seed)
        .int("sessions_per_tenant", w.sessions_per_tenant)
        .int("reqs_per_session", w.reqs_per_session)
        .int("zipf_keys", w.keys)
        .obj("zipf_mix", mix_json(zipf))
        .obj("hot_key_storm", mix_json(hot))
        .obj(
            "interference",
            Obj::new()
                .int("victims", intf.victims)
                .int("victim_reqs", w.victim_reqs)
                .floats("victim_ramp_gaps_ns", &intf.victim_ramp_gaps_ns, 0)
                .int("victim_ops", intf.victim_ops)
                .int("aggr_sessions", intf.aggr_sessions)
                .int("max_aqp", intf.max_aqp)
                .int("aggr_cap", intf.aggr_cap)
                .float("baseline_p99_us", intf.baseline_p99_us, 2)
                .float("uncapped_p99_us", intf.uncapped_p99_us, 2)
                .float("capped_p99_us", intf.capped_p99_us, 2)
                .float("uncapped_ratio", intf.uncapped_ratio, 3)
                .float("capped_ratio", intf.capped_ratio, 3)
                .int("uncapped_victim_lanes", intf.uncapped_victim_lanes)
                .int("uncapped_aggr_lanes", intf.uncapped_aggr_lanes)
                .int("capped_victim_lanes", intf.capped_victim_lanes)
                .int("capped_aggr_lanes", intf.capped_aggr_lanes)
                .int("aggr_ops_uncapped", intf.aggr_ops_uncapped)
                .int("aggr_ops_capped", intf.aggr_ops_capped)
                .int("handovers", intf.handovers)
                .int("tasks", intf.tasks),
        )
        .render()
}
