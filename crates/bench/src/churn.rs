//! Connection-churn benchmark: the elastic control plane (pooled QPs,
//! cached MRs, lazy lanes, graceful detach) measured inside the
//! deterministic virtual-time lab ([`VirtualLab`]).
//!
//! Three scenarios, each a pure function of its configuration (two runs
//! render byte-identical JSON — the CI determinism diff):
//!
//! 1. **Connect storm** — a cohort of clients dials one server at once,
//!    twice. The first wave hits empty pools (every QP created, every MR
//!    registered at Swift cost); the second wave reuses what the first
//!    wave's `fl_disconnect` recycled. Reported as time-to-first-RPC
//!    (TTFR: connect + thread registration + first echo), cold vs warm.
//! 2. **Steady churn under load** — a fixed cohort drives pipelined RPCs
//!    while churner clients connect, issue a few requests, and detach in
//!    a loop. The same workload runs once more without churners; the p99
//!    disturbance ratio says what connection churn costs established
//!    traffic.
//! 3. **Server scale-out** — two eager multi-QP senders split a MAX_AQP
//!    budget; one departs mid-run. The survivor's active-QP share before
//!    and after shows the departing sender's share migrating at detach
//!    (not at the next utilization epoch).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use flock_core::api::fl_connect;
use flock_core::client::HandleConfig;
use flock_core::server::{FlockServer, ServerConfig};
use flock_core::FlockDomain;
use flock_sim::vtime::VirtualLab;
use flock_sync::clock;

use crate::report::{elastic_fabric, percentile_us, Obj};

/// Knobs shared by the three scenarios.
#[derive(Debug, Clone, Copy)]
pub struct ChurnWorkload {
    /// Clients in each connect-storm wave.
    pub storm_clients: usize,
    /// Established clients driving load during the churn scenario.
    pub steady_clients: usize,
    /// Requests each steady client issues.
    pub reqs_per_steady: u64,
    /// Pipelined requests in flight per steady client.
    pub window: usize,
    /// Churner clients cycling connect → RPC → disconnect.
    pub churners: usize,
    /// Connect/disconnect cycles per churner.
    pub churn_rounds: usize,
    /// Request payload bytes (echoed back).
    pub payload: usize,
}

impl ChurnWorkload {
    /// Scenario sizes for a sweep: CI smoke (`quick`) or the checked-in
    /// `BENCH_churn.json`.
    pub fn preset(quick: bool) -> ChurnWorkload {
        if quick {
            ChurnWorkload {
                storm_clients: 6,
                steady_clients: 3,
                reqs_per_steady: 24,
                window: 4,
                churners: 2,
                churn_rounds: 2,
                payload: 32,
            }
        } else {
            ChurnWorkload {
                storm_clients: 24,
                steady_clients: 6,
                reqs_per_steady: 96,
                window: 4,
                churners: 4,
                churn_rounds: 5,
                payload: 32,
            }
        }
    }
}

/// NIC lanes per node. The pools are on (the configuration under test;
/// the cold wave measures the miss path through the same code).
const NIC_LANES: usize = 2;

/// Handle configuration for short-lived churn clients: lazy lanes (the
/// default) and a minimal one-sided scratch region, so connection setup
/// is dominated by the control-plane work under test.
fn churn_handle_cfg() -> HandleConfig {
    let mut cfg = HandleConfig::default();
    cfg.mem_threads = 1;
    cfg
}

// ---------------------------------------------------------------------
// Scenario 1: connect storm
// ---------------------------------------------------------------------

/// Measured outcome of the connect-storm scenario.
#[derive(Debug, Clone)]
pub struct StormOutcome {
    /// Clients per wave.
    pub clients: usize,
    /// Cold-wave TTFR median/p99 (virtual µs): empty pools, every
    /// control verb at full Swift cost, storm queueing included.
    pub cold_median_us: f64,
    /// Cold-wave p99 TTFR (virtual µs).
    pub cold_p99_us: f64,
    /// Warm-wave TTFR median/p99 (virtual µs): QPs leased from the
    /// pool, rings from the MR cache.
    pub warm_median_us: f64,
    /// Warm-wave p99 TTFR (virtual µs).
    pub warm_p99_us: f64,
    /// `cold_median / warm_median` — the headline speedup.
    pub warm_speedup: f64,
    /// Warm QP leases observed on the server node (pool hits).
    pub server_warm_leases: u64,
    /// Lab handovers — a determinism fingerprint.
    pub handovers: u64,
    /// Virtual tasks spawned.
    pub tasks: u64,
}

/// One storm wave: every client dials, registers a thread, and completes
/// one echo RPC; TTFR is the whole span. Clients then disconnect
/// gracefully so the next wave finds warm pools.
fn storm_wave(
    domain: &Arc<FlockDomain>,
    nodes: &[Arc<flock_fabric::Node>],
    wave: usize,
    payload: usize,
) -> Vec<u64> {
    let ttfrs: Arc<Mutex<Vec<(usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut tasks = Vec::with_capacity(nodes.len());
    for (c, node) in nodes.iter().enumerate() {
        let domain = Arc::clone(domain);
        let node = Arc::clone(node);
        let ttfrs = Arc::clone(&ttfrs);
        tasks.push(clock::spawn(&format!("storm-{wave}-{c}"), move || {
            let t0 = clock::now_ns();
            let mut handle =
                fl_connect(&domain, &node, "churn-storm", churn_handle_cfg()).expect("connect");
            let t = handle.register_thread();
            let req = vec![c as u8; payload];
            let resp = t.call(1, &req).expect("first rpc");
            debug_assert_eq!(resp.len(), payload);
            let ttfr = clock::now_ns().saturating_sub(t0);
            drop(t);
            handle.close().expect("disconnect");
            ttfrs.lock().unwrap().push((c, ttfr));
        }));
    }
    for t in tasks {
        let _ = t.join();
    }
    let mut collected = std::mem::take(&mut *ttfrs.lock().unwrap());
    // Sort by client index: completion order is deterministic, but the
    // rendered JSON should not depend on it.
    collected.sort_unstable();
    collected.into_iter().map(|(_, ns)| ns).collect()
}

/// Run the connect-storm scenario in a fresh lab.
pub fn run_storm(w: ChurnWorkload) -> StormOutcome {
    let (mut outcome, report) = VirtualLab::run_report(move || {
        let domain = Arc::new(FlockDomain::new(elastic_fabric(NIC_LANES)));
        let server_node = domain.add_node("storm-srv");
        let mut scfg = ServerConfig::default();
        scfg.dispatch_threads = 1;
        let server = FlockServer::listen(&domain, &server_node, "churn-storm", scfg);
        server.reg_handler(1, |req| req.to_vec());

        let nodes: Vec<_> = (0..w.storm_clients)
            .map(|c| domain.add_node(&format!("storm-c{c}")))
            .collect();

        // Wave 1: every pool empty — the full Swift control-plane cost,
        // serialized through the server's control loop like a real
        // connect storm. Wave 2: the same clients reconnect into the
        // resources wave 1 recycled.
        let mut cold = storm_wave(&domain, &nodes, 0, w.payload);
        let mut warm = storm_wave(&domain, &nodes, 1, w.payload);
        cold.sort_unstable();
        warm.sort_unstable();

        let server_warm_leases = server_node.pool().stats().warm.load(Ordering::Relaxed);
        server.shutdown(&domain);
        drop(server);
        drop(nodes);
        drop(
            Arc::try_unwrap(domain)
                .ok()
                .expect("all domain users joined"),
        );

        let cold_median_us = percentile_us(&cold, 0.5);
        let warm_median_us = percentile_us(&warm, 0.5);
        StormOutcome {
            clients: w.storm_clients,
            cold_median_us,
            cold_p99_us: percentile_us(&cold, 0.99),
            warm_median_us,
            warm_p99_us: percentile_us(&warm, 0.99),
            warm_speedup: if warm_median_us > 0.0 {
                cold_median_us / warm_median_us
            } else {
                0.0
            },
            server_warm_leases,
            handovers: 0,
            tasks: 0,
        }
    });
    outcome.handovers = report.handovers;
    outcome.tasks = report.tasks_spawned;
    outcome
}

// ---------------------------------------------------------------------
// Scenario 2: steady traffic under connection churn
// ---------------------------------------------------------------------

/// Measured outcome of the churn-under-load scenario.
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// Established clients driving load.
    pub steady_clients: usize,
    /// Churner clients cycling connect/disconnect.
    pub churners: usize,
    /// Completed connect → RPC → disconnect cycles.
    pub churn_events: u64,
    /// Steady-cohort p99 latency with no churn (virtual µs).
    pub baseline_p99_us: f64,
    /// Steady-cohort p99 latency under churn (virtual µs).
    pub churn_p99_us: f64,
    /// Steady-cohort median with no churn (virtual µs).
    pub baseline_median_us: f64,
    /// Steady-cohort median under churn (virtual µs).
    pub churn_median_us: f64,
    /// `churn_p99 / baseline_p99` — the disturbance headline.
    pub disturbance_ratio: f64,
    /// Lab handovers of the churn run — a determinism fingerprint.
    pub handovers: u64,
    /// Virtual tasks spawned in the churn run.
    pub tasks: u64,
}

/// One measured run: steady cohort latencies, optionally with churners.
/// Returns (sorted latencies ns, churn events).
fn churn_run(w: ChurnWorkload, with_churn: bool) -> (Vec<u64>, u64, u64, u64) {
    let ((lats, events), report) = VirtualLab::run_report(move || {
        let domain = Arc::new(FlockDomain::new(elastic_fabric(NIC_LANES)));
        let server_node = domain.add_node("churn-srv");
        let mut scfg = ServerConfig::default();
        scfg.dispatch_threads = 2;
        scfg.sched_interval = std::time::Duration::from_micros(200);
        let server = FlockServer::listen(&domain, &server_node, "churn-load", scfg);
        server.reg_handler(1, |req| req.to_vec());

        let go = Arc::new(AtomicBool::new(false));
        let ready = Arc::new(AtomicUsize::new(0));
        type SteadyResults = Arc<Mutex<Vec<(usize, Vec<u64>)>>>;
        let results: SteadyResults = Arc::new(Mutex::new(Vec::new()));

        let mut tasks = Vec::new();
        for c in 0..w.steady_clients {
            let domain = Arc::clone(&domain);
            let go = Arc::clone(&go);
            let ready = Arc::clone(&ready);
            let results = Arc::clone(&results);
            tasks.push(clock::spawn(&format!("steady-{c}"), move || {
                let node = domain.add_node(&format!("steady-c{c}"));
                let handle =
                    fl_connect(&domain, &node, "churn-load", churn_handle_cfg()).expect("connect");
                let t = handle.register_thread();
                ready.fetch_add(1, Ordering::Release);
                while !go.load(Ordering::Acquire) {
                    clock::sleep_ns(5_000);
                }
                let payload = vec![c as u8; w.payload];
                let mut lats = Vec::with_capacity(w.reqs_per_steady as usize);
                let mut window: Vec<(u64, u64)> = Vec::with_capacity(w.window);
                let mut left = w.reqs_per_steady;
                while left > 0 {
                    let burst = (w.window as u64).min(left);
                    left -= burst;
                    window.clear();
                    for _ in 0..burst {
                        let at = clock::now_ns();
                        let seq = t.send_rpc(1, &payload).expect("send");
                        window.push((seq, at));
                    }
                    for &(seq, at) in &window {
                        let resp = t.recv_res(seq).expect("recv");
                        debug_assert_eq!(resp.len(), w.payload);
                        lats.push(clock::now_ns().saturating_sub(at));
                    }
                }
                results.lock().unwrap().push((c, lats));
            }));
        }

        let churn_events = Arc::new(AtomicUsize::new(0));
        if with_churn {
            for k in 0..w.churners {
                let domain = Arc::clone(&domain);
                let go = Arc::clone(&go);
                let churn_events = Arc::clone(&churn_events);
                tasks.push(clock::spawn(&format!("churner-{k}"), move || {
                    let node = domain.add_node(&format!("churner-c{k}"));
                    while !go.load(Ordering::Acquire) {
                        clock::sleep_ns(5_000);
                    }
                    for round in 0..w.churn_rounds {
                        let mut handle =
                            fl_connect(&domain, &node, "churn-load", churn_handle_cfg())
                                .expect("churner connect");
                        let t = handle.register_thread();
                        let payload = vec![(k + round) as u8; w.payload];
                        for _ in 0..4 {
                            let resp = t.call(1, &payload).expect("churner rpc");
                            debug_assert_eq!(resp.len(), w.payload);
                        }
                        drop(t);
                        handle.close().expect("churner disconnect");
                        churn_events.fetch_add(1, Ordering::Relaxed);
                        clock::sleep_ns(20_000);
                    }
                }));
            }
        }

        while ready.load(Ordering::Acquire) < w.steady_clients {
            clock::sleep_ns(10_000);
        }
        go.store(true, Ordering::Release);
        for t in tasks {
            let _ = t.join();
        }
        server.shutdown(&domain);
        drop(server);
        drop(
            Arc::try_unwrap(domain)
                .ok()
                .expect("all domain users joined"),
        );

        let mut collected = std::mem::take(&mut *results.lock().unwrap());
        collected.sort_unstable_by_key(|(c, _)| *c);
        let mut all: Vec<u64> = collected.into_iter().flat_map(|(_, l)| l).collect();
        all.sort_unstable();
        (all, churn_events.load(Ordering::Relaxed) as u64)
    });
    (lats, events, report.handovers, report.tasks_spawned)
}

/// Run the churn-under-load scenario: once with churners, once without,
/// same steady workload.
pub fn run_churn_load(w: ChurnWorkload) -> ChurnOutcome {
    let (churn_lats, events, handovers, tasks) = churn_run(w, true);
    let (base_lats, _, _, _) = churn_run(w, false);
    let baseline_p99_us = percentile_us(&base_lats, 0.99);
    let churn_p99_us = percentile_us(&churn_lats, 0.99);
    ChurnOutcome {
        steady_clients: w.steady_clients,
        churners: w.churners,
        churn_events: events,
        baseline_p99_us,
        churn_p99_us,
        baseline_median_us: percentile_us(&base_lats, 0.5),
        churn_median_us: percentile_us(&churn_lats, 0.5),
        disturbance_ratio: if baseline_p99_us > 0.0 {
            churn_p99_us / baseline_p99_us
        } else {
            0.0
        },
        handovers,
        tasks,
    }
}

// ---------------------------------------------------------------------
// Scenario 3: server scale-out / AQP migration on departure
// ---------------------------------------------------------------------

/// Measured outcome of the scale-out scenario.
#[derive(Debug, Clone)]
pub struct ScaleOutOutcome {
    /// The server's MAX_AQP budget.
    pub max_aqp: usize,
    /// QPs per sender.
    pub n_qps: usize,
    /// Survivor's active QPs while both senders share the budget.
    pub survivor_active_before: usize,
    /// Total active QPs while both senders run.
    pub total_active_before: usize,
    /// Survivor's active QPs after the other sender detached.
    pub survivor_active_after: usize,
    /// Total active QPs after the departure.
    pub total_active_after: usize,
    /// Lab handovers — a determinism fingerprint.
    pub handovers: u64,
    /// Virtual tasks spawned.
    pub tasks: u64,
}

/// Run the scale-out scenario: two eager 4-QP senders under a 4-QP
/// budget; the second departs mid-run and the survivor's share grows.
pub fn run_scaleout(payload: usize) -> ScaleOutOutcome {
    const MAX_AQP: usize = 4;
    const N_QPS: usize = 4;
    let (mut outcome, report) = VirtualLab::run_report(move || {
        let domain = Arc::new(FlockDomain::new(elastic_fabric(NIC_LANES)));
        let server_node = domain.add_node("so-srv");
        let mut scfg = ServerConfig::default();
        scfg.dispatch_threads = 1;
        scfg.sched.max_aqp = MAX_AQP;
        scfg.sched_interval = std::time::Duration::from_micros(100);
        let server = FlockServer::listen(&domain, &server_node, "scaleout", scfg);
        server.reg_handler(1, |req| req.to_vec());

        let mut hcfg = churn_handle_cfg();
        hcfg.n_qps = N_QPS;
        hcfg.eager_qps = true;
        hcfg.mem_threads = 4;

        // Two symmetric senders, four threads each, driving until told
        // to stop; the budget forces a 2/2 active-QP split. The
        // survivor's handle stays in this task (it is only dropped, not
        // closed) so its active-QP view can be sampled directly; the
        // departing sender owns its handle so it can `close` it.
        let stop_a = Arc::new(AtomicBool::new(false));
        let stop_b = Arc::new(AtomicBool::new(false));

        let node_a = domain.add_node("so-a");
        let handle_a =
            Arc::new(fl_connect(&domain, &node_a, "scaleout", hcfg.clone()).expect("connect a"));
        let mut a_workers = Vec::new();
        for i in 0..4 {
            let t = handle_a.register_thread();
            let stop = Arc::clone(&stop_a);
            a_workers.push(clock::spawn(&format!("so-a-{i}"), move || {
                let buf = vec![0xAA; payload];
                while !stop.load(Ordering::Acquire) {
                    let resp = t.call(1, &buf).expect("a rpc");
                    debug_assert_eq!(resp.len(), buf.len());
                }
            }));
        }

        let node_b = domain.add_node("so-b");
        let b_task = {
            let domain = Arc::clone(&domain);
            let hcfg = hcfg.clone();
            let stop = Arc::clone(&stop_b);
            clock::spawn("so-b", move || {
                let mut handle = fl_connect(&domain, &node_b, "scaleout", hcfg).expect("connect b");
                let threads: Vec<_> = (0..4).map(|_| handle.register_thread()).collect();
                let mut workers = Vec::new();
                for (i, t) in threads.into_iter().enumerate() {
                    let stop = Arc::clone(&stop);
                    workers.push(clock::spawn(&format!("so-b-{i}"), move || {
                        let buf = vec![0xBB; payload];
                        while !stop.load(Ordering::Acquire) {
                            let resp = t.call(1, &buf).expect("b rpc");
                            debug_assert_eq!(resp.len(), buf.len());
                        }
                    }));
                }
                for w in workers {
                    let _ = w.join();
                }
                handle.close().expect("disconnect b");
            })
        };

        // Sample while both senders are live and several redistribution
        // epochs have passed.
        clock::sleep_ns(500_000);
        let survivor_active_before = handle_a.active_qps();
        let total_active_before = server.active_qps();

        // B departs: its workers stop, then its handle detaches
        // gracefully, releasing its AQP share at the detach.
        stop_b.store(true, Ordering::Release);
        let _ = b_task.join();
        // Give the scheduler a few epochs to re-grant the freed share to
        // the survivor (the client's view updates on the next grant).
        clock::sleep_ns(600_000);
        let survivor_active_after = handle_a.active_qps();
        let total_active_after = server.active_qps();

        stop_a.store(true, Ordering::Release);
        for w in a_workers {
            let _ = w.join();
        }
        drop(
            Arc::try_unwrap(handle_a)
                .ok()
                .expect("survivor workers joined"),
        );
        server.shutdown(&domain);
        drop(server);
        drop(
            Arc::try_unwrap(domain)
                .ok()
                .expect("all domain users joined"),
        );

        ScaleOutOutcome {
            max_aqp: MAX_AQP,
            n_qps: N_QPS,
            survivor_active_before,
            total_active_before,
            survivor_active_after,
            total_active_after,
            handovers: 0,
            tasks: 0,
        }
    });
    outcome.handovers = report.handovers;
    outcome.tasks = report.tasks_spawned;
    outcome
}

// ---------------------------------------------------------------------
// Sweep + JSON
// ---------------------------------------------------------------------

/// Run all three scenarios and render the stable-order JSON document.
pub fn run_churn_suite(quick: bool, log: bool) -> String {
    let w = ChurnWorkload::preset(quick);
    if log {
        eprintln!("bench churn: connect storm ({} clients x 2 waves)...", w.storm_clients);
    }
    let storm = run_storm(w);
    if log {
        eprintln!(
            "  -> cold median {:.1} us, warm median {:.1} us ({:.1}x), {} warm leases",
            storm.cold_median_us, storm.warm_median_us, storm.warm_speedup, storm.server_warm_leases
        );
        eprintln!(
            "bench churn: steady load ({} clients) under churn ({} churners x {} rounds)...",
            w.steady_clients, w.churners, w.churn_rounds
        );
    }
    let churn = run_churn_load(w);
    if log {
        eprintln!(
            "  -> p99 {:.1} us under churn vs {:.1} us baseline ({:.3}x), {} churn events",
            churn.churn_p99_us, churn.baseline_p99_us, churn.disturbance_ratio, churn.churn_events
        );
        eprintln!("bench churn: scale-out / AQP migration...");
    }
    let so = run_scaleout(w.payload);
    if log {
        eprintln!(
            "  -> survivor active QPs {} -> {} (total {} -> {}) across the departure",
            so.survivor_active_before,
            so.survivor_active_after,
            so.total_active_before,
            so.total_active_after
        );
    }
    render_json(quick, w, &storm, &churn, &so)
}

/// Render the suite's JSON document.
pub fn render_json(
    quick: bool,
    w: ChurnWorkload,
    storm: &StormOutcome,
    churn: &ChurnOutcome,
    so: &ScaleOutOutcome,
) -> String {
    Obj::doc("flock-bench-churn/v1", quick)
        .int("payload_bytes", w.payload)
        .obj(
            "storm",
            Obj::new()
                .int("clients", storm.clients)
                .float("cold_ttfr_median_us", storm.cold_median_us, 2)
                .float("cold_ttfr_p99_us", storm.cold_p99_us, 2)
                .float("warm_ttfr_median_us", storm.warm_median_us, 2)
                .float("warm_ttfr_p99_us", storm.warm_p99_us, 2)
                .float("warm_speedup", storm.warm_speedup, 3)
                .int("server_warm_leases", storm.server_warm_leases)
                .int("handovers", storm.handovers)
                .int("tasks", storm.tasks),
        )
        .obj(
            "churn",
            Obj::new()
                .int("steady_clients", churn.steady_clients)
                .int("reqs_per_steady", w.reqs_per_steady)
                .int("window", w.window)
                .int("churners", churn.churners)
                .int("churn_events", churn.churn_events)
                .float("baseline_median_us", churn.baseline_median_us, 2)
                .float("baseline_p99_us", churn.baseline_p99_us, 2)
                .float("churn_median_us", churn.churn_median_us, 2)
                .float("churn_p99_us", churn.churn_p99_us, 2)
                .float("disturbance_ratio", churn.disturbance_ratio, 3)
                .int("handovers", churn.handovers)
                .int("tasks", churn.tasks),
        )
        .obj(
            "scaleout",
            Obj::new()
                .int("max_aqp", so.max_aqp)
                .int("n_qps", so.n_qps)
                .int("survivor_active_before", so.survivor_active_before)
                .int("total_active_before", so.total_active_before)
                .int("survivor_active_after", so.survivor_active_after)
                .int("total_active_after", so.total_active_after)
                .int("handovers", so.handovers)
                .int("tasks", so.tasks),
        )
        .render()
}
