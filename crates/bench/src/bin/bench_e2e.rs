//! End-to-end fan-in harness: many client nodes hammer one Flock server
//! with pipelined RPCs over the threaded runtime and the simulated
//! fabric, emitting `BENCH_e2e.json` (see EXPERIMENTS.md "Fan-in
//! trajectory").
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p flock-bench --bin bench_e2e -- \
//!     [--quick] [--clients N] [--secs S] [--out PATH]
//! ```
//!
//! Each configuration point runs the same workload — `--clients` nodes,
//! one issuing thread per node, a window of pipelined requests per
//! thread — against a server configured with a given number of dispatch
//! threads and a fabric with a given number of NIC lanes. `--quick`
//! shrinks the measurement window for CI smoke runs. The JSON is
//! written by hand (the offline workspace has no serde) with a stable
//! field order.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flock_bench::report::percentile_us;
use flock_core::api::fl_connect;
use flock_core::client::HandleConfig;
use flock_core::server::{FlockServer, ServerConfig};
use flock_core::FlockDomain;
use flock_fabric::FabricConfig;

/// Requests in flight per issuing thread (the paper's pipelined client).
const WINDOW: usize = 8;
/// Request payload size in bytes.
const PAYLOAD: usize = 32;

struct Point {
    dispatch_threads: usize,
    nic_lanes: usize,
    ops_per_sec: f64,
    total_ops: u64,
    median_us: f64,
    p99_us: f64,
}

/// Run one fan-in configuration and measure throughput + latency.
fn run_config(clients: usize, dispatch_threads: usize, nic_lanes: usize, secs: f64) -> Point {
    let mut fab_cfg = FabricConfig::default();
    fab_cfg.nic_lanes = nic_lanes;
    let domain = Arc::new(FlockDomain::new(fab_cfg));

    let node = domain.add_node("bench-srv");
    let mut scfg = ServerConfig::default();
    scfg.dispatch_threads = dispatch_threads;
    let server = FlockServer::listen(&domain, &node, "bench", scfg);
    server.reg_handler(1, |req| req.to_vec());

    let stop = Arc::new(AtomicBool::new(false));
    let mut joins = Vec::new();
    for c in 0..clients {
        let domain = Arc::clone(&domain);
        let stop = Arc::clone(&stop);
        joins.push(std::thread::spawn(move || {
            let client = domain.add_node(&format!("bench-c{c}"));
            let mut cfg = HandleConfig::default();
            cfg.n_qps = 1;
            let handle = fl_connect(&domain, &client, "bench", cfg).expect("connect");
            let t = handle.register_thread();
            let payload = [c as u8; PAYLOAD];
            let mut lat_ns: Vec<u64> = Vec::with_capacity(64 * 1024);
            let mut ops: u64 = 0;
            let mut window: Vec<(u64, Instant)> = Vec::with_capacity(WINDOW);
            while !stop.load(Ordering::Relaxed) {
                window.clear();
                for _ in 0..WINDOW {
                    let at = Instant::now();
                    let seq = t.send_rpc(1, &payload).expect("send");
                    window.push((seq, at));
                }
                for &(seq, at) in &window {
                    let resp = t.recv_res(seq).expect("recv");
                    debug_assert_eq!(resp.len(), PAYLOAD);
                    lat_ns.push(at.elapsed().as_nanos() as u64);
                    ops += 1;
                }
            }
            (ops, lat_ns)
        }));
    }

    // Warmup: let connections settle and credit flow start.
    std::thread::sleep(Duration::from_millis((secs * 100.0) as u64));
    let t0 = Instant::now();
    let ops_before: u64 = server.stats().requests.load(Ordering::Relaxed);
    std::thread::sleep(Duration::from_secs_f64(secs));
    let ops_after: u64 = server.stats().requests.load(Ordering::Relaxed);
    let elapsed = t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);

    let mut all_lat: Vec<u64> = Vec::new();
    let mut total_ops = 0u64;
    for j in joins {
        let (ops, lat) = j.join().expect("client thread");
        total_ops += ops;
        all_lat.extend(lat);
    }
    server.shutdown(&domain);
    all_lat.sort_unstable();

    Point {
        dispatch_threads,
        nic_lanes,
        ops_per_sec: (ops_after - ops_before) as f64 / elapsed,
        total_ops,
        median_us: percentile_us(&all_lat, 0.5),
        p99_us: percentile_us(&all_lat, 0.99),
    }
}

fn main() {
    let mut quick = false;
    let mut clients = 8usize;
    let mut secs = 2.0f64;
    let mut out = String::from("BENCH_e2e.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--clients" => clients = args.next().expect("--clients N").parse().expect("N"),
            "--secs" => secs = args.next().expect("--secs S").parse().expect("S"),
            "--out" => out = args.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_e2e [--quick] [--clients N] [--secs S] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    if quick {
        secs = 0.3;
    }

    // Sweep the two scaling knobs: (dispatch_threads, nic_lanes).
    let configs: &[(usize, usize)] = if quick {
        &[(1, 1), (4, 4)]
    } else {
        &[(1, 1), (2, 2), (4, 4), (4, 1), (1, 4)]
    };

    let mut points = Vec::new();
    for &(d, l) in configs {
        eprintln!("bench_e2e: {clients} clients, dispatch={d}, lanes={l} ...");
        let p = run_config(clients, d, l, secs);
        eprintln!(
            "  -> {:.0} ops/s (median {:.1} us, p99 {:.1} us, {} client ops)",
            p.ops_per_sec, p.median_us, p.p99_us, p.total_ops
        );
        points.push(p);
    }

    let base = points
        .iter()
        .find(|p| p.dispatch_threads == 1 && p.nic_lanes == 1)
        .map(|p| p.ops_per_sec)
        .unwrap_or(0.0);
    let best_4x4 = points
        .iter()
        .find(|p| p.dispatch_threads == 4 && p.nic_lanes == 4)
        .map(|p| p.ops_per_sec)
        .unwrap_or(0.0);

    // Host parallelism is the dominant variable for the sharded
    // configurations: on a single-CPU host extra dispatchers and lanes
    // can only time-share, so record it next to the numbers.
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);

    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"quick\": {quick},");
    let _ = writeln!(j, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(j, "  \"clients\": {clients},");
    let _ = writeln!(j, "  \"window\": {WINDOW},");
    let _ = writeln!(j, "  \"payload_bytes\": {PAYLOAD},");
    let _ = writeln!(j, "  \"secs_per_point\": {secs},");
    j.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"dispatch_threads\": {}, \"nic_lanes\": {}, \"ops_per_sec\": {:.0}, \
             \"median_us\": {:.2}, \"p99_us\": {:.2}}}{comma}",
            p.dispatch_threads, p.nic_lanes, p.ops_per_sec, p.median_us, p.p99_us
        );
    }
    j.push_str("  ],\n");
    let _ = writeln!(
        j,
        "  \"speedup_4x4_over_1x1\": {:.3}",
        if base > 0.0 { best_4x4 / base } else { 0.0 }
    );
    j.push_str("}\n");

    std::fs::write(&out, &j).expect("write bench JSON");
    eprintln!("bench_e2e: wrote {out}");
    print!("{j}");
}
