//! Virtual-time scaling sweep: the *real* receive path — TCQ combining,
//! ring encode/poll, sharded dispatch with LPT rebalance, multi-lane NIC,
//! QP scheduler — executed inside `flock_sim`'s deterministic virtual-time
//! lab ([`VirtualLab`]) so paper-scale parallelism (dozens of dispatchers
//! and NIC lanes, hundreds of client threads) can be measured on any
//! host, including a single CPU.
//!
//! Every configuration point spawns one virtual task per client thread,
//! per dispatcher, per NIC lane etc.; exactly one runs at a wall instant,
//! scheduled by `(virtual time, sequence)`, so a run is a pure function
//! of its configuration: two runs produce byte-identical JSON (the CI
//! determinism check, and the `scale_determinism` test).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use flock_core::api::fl_connect;
use flock_core::client::HandleConfig;
use flock_core::server::{FlockServer, ServerConfig};
use flock_core::FlockDomain;
use flock_fabric::FabricConfig;
use flock_sim::vtime::VirtualLab;
use flock_sync::clock;

use crate::report::{percentile_us, Obj};

/// One configuration of the scaling surface.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Client machines (each its own fabric node with its own NIC lanes).
    pub clients: usize,
    /// Application threads per client machine (sharing the node's QPs).
    pub threads_per_node: usize,
    /// QPs per connection handle.
    pub n_qps: usize,
    /// Server dispatcher workers.
    pub dispatch_threads: usize,
    /// NIC lanes per node.
    pub nic_lanes: usize,
    /// QP-scheduler redistribution interval override in virtual µs
    /// (0 = the server default). Short runs need a short interval for
    /// the MAX_AQP cap to engage at all — the fan-in point sets this so
    /// the checked-in JSON shows the scheduler clawing back the
    /// registration-time overshoot (every sender keeps ≥ 1 QP, so
    /// registration may exceed the cap until the first redistribution).
    pub sched_interval_us: u64,
}

impl ScalePoint {
    /// Total issuing client threads at this point.
    pub fn client_threads(&self) -> usize {
        self.clients * self.threads_per_node
    }
}

/// Measured outcome of one point.
#[derive(Debug, Clone)]
pub struct ScaleOutcome {
    /// The configuration measured.
    pub point: ScalePoint,
    /// RPCs completed inside the measured window.
    pub total_ops: u64,
    /// Virtual time from the go signal to the last client finishing.
    pub virtual_ms: f64,
    /// Throughput in RPCs per virtual second.
    pub ops_per_vsec: f64,
    /// Median request latency (virtual µs).
    pub median_us: f64,
    /// p99 request latency (virtual µs).
    pub p99_us: f64,
    /// Mean coalescing degree the server observed (requests/message).
    pub mean_degree: f64,
    /// Active QPs under the server's scheduler at the end of the run
    /// (shows the MAX_AQP cap engaging in the fan-in points).
    pub active_qps: usize,
    /// Total QPs the clients opened (`clients * n_qps`).
    pub total_qps: usize,
    /// Lab handovers (scheduling decisions) — a determinism fingerprint.
    pub handovers: u64,
    /// Virtual tasks spawned over the run.
    pub tasks: u64,
}

/// Workload parameters shared by every point of a sweep.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Requests each client thread issues.
    pub reqs_per_thread: u64,
    /// Pipelined requests in flight per thread.
    pub window: usize,
    /// Request payload bytes (echoed back).
    pub payload: usize,
}

impl Workload {
    /// Workload for a sweep: CI smoke (`quick`) or the checked-in
    /// `BENCH_scale.json`.
    pub fn preset(quick: bool) -> Workload {
        Workload {
            reqs_per_thread: if quick { 8 } else { 24 },
            window: 8,
            payload: 32,
        }
    }
}

/// Run one configuration point inside a fresh [`VirtualLab`].
pub fn run_point(p: ScalePoint, w: Workload) -> ScaleOutcome {
    let (mut outcome, report) = VirtualLab::run_report(move || {
        let mut fab_cfg = FabricConfig::default();
        fab_cfg.nic_lanes = p.nic_lanes;
        let domain = Arc::new(FlockDomain::new(fab_cfg));

        let server_node = domain.add_node("scale-srv");
        let mut scfg = ServerConfig::default();
        scfg.dispatch_threads = p.dispatch_threads;
        if p.sched_interval_us > 0 {
            scfg.sched_interval = std::time::Duration::from_micros(p.sched_interval_us);
        }
        let server = FlockServer::listen(&domain, &server_node, "scale", scfg);
        server.reg_handler(1, |req| req.to_vec());

        let go = Arc::new(AtomicBool::new(false));
        let ready = Arc::new(AtomicUsize::new(0));
        // (ops, latencies_ns, start_ns, finish_ns) per client thread.
        type ThreadResult = (u64, Vec<u64>, u64, u64);
        let results: Arc<Mutex<Vec<ThreadResult>>> = Arc::new(Mutex::new(Vec::new()));

        let mut node_tasks = Vec::with_capacity(p.clients);
        for c in 0..p.clients {
            let domain = Arc::clone(&domain);
            let go = Arc::clone(&go);
            let ready = Arc::clone(&ready);
            let results = Arc::clone(&results);
            node_tasks.push(clock::spawn(&format!("scale-node-{c}"), move || {
                let node = domain.add_node(&format!("scale-c{c}"));
                let mut cfg = HandleConfig::default();
                cfg.n_qps = p.n_qps;
                // The sweep measures the steady-state data plane: every
                // lane up front (connect cost falls outside the measured
                // window), not the lazy-attach default.
                cfg.eager_qps = true;
                let handle = fl_connect(&domain, &node, "scale", cfg).expect("connect");
                let fl_threads: Vec<_> = (0..p.threads_per_node)
                    .map(|_| handle.register_thread())
                    .collect();
                ready.fetch_add(1, Ordering::Release);
                while !go.load(Ordering::Acquire) {
                    clock::sleep_ns(5_000);
                }
                let mut workers = Vec::with_capacity(fl_threads.len());
                for (i, t) in fl_threads.into_iter().enumerate() {
                    let results = Arc::clone(&results);
                    workers.push(clock::spawn(&format!("scale-w-{c}/{i}"), move || {
                        let start = clock::now_ns();
                        let payload = vec![c as u8; w.payload];
                        let mut lats: Vec<u64> = Vec::with_capacity(w.reqs_per_thread as usize);
                        let mut ops = 0u64;
                        let mut window: Vec<(u64, u64)> = Vec::with_capacity(w.window);
                        let mut left = w.reqs_per_thread;
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
                                ops += 1;
                            }
                        }
                        results
                            .lock()
                            .unwrap()
                            .push((ops, lats, start, clock::now_ns()));
                    }));
                }
                for h in workers {
                    let _ = h.join();
                }
                drop(handle); // joins the handle's dispatcher + scheduler
            }));
        }

        while ready.load(Ordering::Acquire) < p.clients {
            clock::sleep_ns(10_000);
        }
        go.store(true, Ordering::Release);
        for h in node_tasks {
            let _ = h.join();
        }

        let mean_degree = server.stats().mean_coalescing_degree();
        let active_qps = server.active_qps();
        server.shutdown(&domain);

        // Window: first worker send to last worker finish. Client tasks
        // carry their connection's control-plane charge (QP creation, MR
        // registration) on their own clocks, so anchoring at the
        // workers' start instants keeps setup cost out of the
        // steady-state throughput figure — `bench churn` measures it.
        let collected = std::mem::take(&mut *results.lock().unwrap());
        let mut total_ops = 0u64;
        let mut all_lat: Vec<u64> = Vec::new();
        let mut t0 = u64::MAX;
        let mut t_end = 0u64;
        for (ops, lats, start, finish) in collected {
            total_ops += ops;
            all_lat.extend(lats);
            t0 = t0.min(start);
            t_end = t_end.max(finish);
        }
        let t0 = if t0 == u64::MAX { t_end } else { t0 };
        all_lat.sort_unstable();

        // Last domain reference: dropping it stops and joins the NIC
        // lane tasks, so the lab ends with only the root task live.
        drop(server);
        drop(
            Arc::try_unwrap(domain)
                .ok()
                .expect("all domain users joined"),
        );

        let elapsed_ns = t_end.saturating_sub(t0).max(1);
        ScaleOutcome {
            point: p,
            total_ops,
            virtual_ms: elapsed_ns as f64 / 1e6,
            ops_per_vsec: total_ops as f64 * 1e9 / elapsed_ns as f64,
            median_us: percentile_us(&all_lat, 0.5),
            p99_us: percentile_us(&all_lat, 0.99),
            mean_degree,
            active_qps,
            total_qps: p.clients * p.n_qps,
            handovers: 0, // filled from the lab report below
            tasks: 0,
        }
    });
    outcome.handovers = report.handovers;
    outcome.tasks = report.tasks_spawned;
    outcome
}

/// The sweep: quick (CI smoke) or full (checked-in `BENCH_scale.json`).
pub fn sweep_points(quick: bool) -> Vec<ScalePoint> {
    let pt = |clients, threads_per_node, n_qps, dispatch_threads, nic_lanes| ScalePoint {
        clients,
        threads_per_node,
        n_qps,
        dispatch_threads,
        nic_lanes,
        sched_interval_us: 0,
    };
    if quick {
        vec![pt(4, 1, 1, 1, 1), pt(4, 1, 1, 2, 2)]
    } else {
        vec![
            // 16 client threads: does sharding win once it can run?
            pt(16, 1, 1, 1, 1),
            pt(16, 1, 1, 2, 2),
            pt(16, 1, 1, 4, 4),
            // Mixed: each knob alone at 16 clients.
            pt(16, 1, 1, 4, 1),
            pt(16, 1, 1, 1, 4),
            // 64 client threads over 8x8.
            pt(32, 2, 2, 8, 8),
            // Paper scale: 24 dispatchers x 32 lanes, 384 client threads.
            pt(24, 16, 4, 24, 32),
            // Fan-in past MAX_AQP: 512 QPs against the 256-QP cap, with
            // a redistribution interval short enough (100 µs virtual) to
            // fire several times within the run.
            ScalePoint {
                sched_interval_us: 100,
                ..pt(256, 1, 2, 8, 8)
            },
        ]
    }
}

/// Run the sweep and render the stable-order JSON document.
pub fn run_scale_suite(quick: bool, log: bool) -> String {
    let w = Workload::preset(quick);
    let points = sweep_points(quick);
    let mut outcomes = Vec::with_capacity(points.len());
    for p in points {
        if log {
            eprintln!(
                "bench scale: clients={}x{} qps={} dispatch={} lanes={} ...",
                p.clients, p.threads_per_node, p.n_qps, p.dispatch_threads, p.nic_lanes
            );
        }
        let o = run_point(p, w);
        if log {
            eprintln!(
                "  -> {:.0} ops/vsec over {:.2} virtual ms (median {:.1} us, p99 {:.1} us, \
                 degree {:.2}, active {}/{} QPs)",
                o.ops_per_vsec,
                o.virtual_ms,
                o.median_us,
                o.p99_us,
                o.mean_degree,
                o.active_qps,
                o.total_qps
            );
        }
        outcomes.push(o);
    }
    render_json(quick, w, &outcomes)
}

/// Render the sweep's JSON document.
pub fn render_json(quick: bool, w: Workload, outcomes: &[ScaleOutcome]) -> String {
    let speedup = |d: usize, l: usize| -> f64 {
        let at_16 = |d: usize, l: usize| {
            outcomes
                .iter()
                .find(|o| {
                    o.point.client_threads() == 16
                        && o.point.dispatch_threads == d
                        && o.point.nic_lanes == l
                })
                .map_or(0.0, |o| o.ops_per_vsec)
        };
        let base = at_16(1, 1);
        if base > 0.0 {
            at_16(d, l) / base
        } else {
            0.0
        }
    };
    let points = outcomes.iter().map(|o| {
        Obj::new()
            .int("clients", o.point.clients)
            .int("threads_per_node", o.point.threads_per_node)
            .int("n_qps", o.point.n_qps)
            .int("dispatch_threads", o.point.dispatch_threads)
            .int("nic_lanes", o.point.nic_lanes)
            .int("sched_interval_us", o.point.sched_interval_us)
            .int("total_ops", o.total_ops)
            .float("virtual_ms", o.virtual_ms, 3)
            .float("ops_per_vsec", o.ops_per_vsec, 0)
            .float("median_us", o.median_us, 2)
            .float("p99_us", o.p99_us, 2)
            .float("mean_degree", o.mean_degree, 3)
            .int("active_qps", o.active_qps)
            .int("total_qps", o.total_qps)
            .int("handovers", o.handovers)
            .int("tasks", o.tasks)
    });
    Obj::doc("flock-bench-scale/v1", quick)
        .int("reqs_per_thread", w.reqs_per_thread)
        .int("window", w.window)
        .int("payload_bytes", w.payload)
        .rows("points", points)
        .float("speedup_2x2_over_1x1_at_16", speedup(2, 2), 3)
        .float("speedup_4x4_over_1x1_at_16", speedup(4, 4), 3)
        .render()
}
