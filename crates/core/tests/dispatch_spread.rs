//! Lane-granular dispatcher placement on the real stack inside the
//! deterministic virtual-time lab: a connection's lanes stride across
//! dispatcher workers from its base worker (`flock_core::lane_worker`),
//! so a few connections carrying many threads still use every worker.
//!
//! * Two connections × two lanes × eight threads: four dispatchers give
//!   at least 1.5× the throughput of two. With connection-granular
//!   placement both counts leave each connection on one worker, and the
//!   throughput is the same.
//! * A manual-path (`recv_rpc` / `send_res`) backlog on a connection
//!   whose lanes sit on different workers completes every request
//!   exactly once, byte-exact.
//! * `close()` of such a connection quiesces every worker that owns one
//!   of its lanes and recycles them, while a surviving connection keeps
//!   completing.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use flock_core::api::*;
use flock_core::{
    lane_worker, ConnectionHandle, FlockDomain, FlockServer, HandleConfig, ServerConfig,
};
use flock_fabric::{FabricConfig, Node};
use flock_sim::vtime::VirtualLab;
use flock_sync::clock;

const ECHO: u32 = 1;
/// No handler registered: served through `recv_rpc` / `send_res`.
const MANUAL: u32 = 9;
const LANES: usize = 2;

fn lab_server(domain: &FlockDomain, dispatchers: usize) -> FlockServer {
    let node = domain.add_node("spread-srv");
    let mut cfg = ServerConfig::default();
    cfg.dispatch_threads = dispatchers;
    let server = FlockServer::listen(domain, &node, "spread", cfg);
    server.reg_handler(ECHO, |req| req.to_vec());
    server
}

/// A connection with both lanes up front, so the placement under test
/// holds from the first request.
fn lab_client(domain: &FlockDomain, name: &str) -> (Arc<Node>, ConnectionHandle) {
    let node = domain.add_node(name);
    let mut cfg = HandleConfig::default();
    cfg.n_qps = LANES;
    cfg.eager_qps = true;
    let handle = fl_connect(domain, &node, "spread", cfg).expect("connect");
    (node, handle)
}

/// A distinct payload per (caller, op), so a misrouted reply cannot match.
fn payload(caller: usize, op: usize) -> Vec<u8> {
    (0..64)
        .map(|b| (caller * 131 + op * 31 + b * 7) as u8)
        .collect()
}

/// Echo RPCs per virtual µs for 2 connections × `LANES` lanes × 8
/// threads, each thread keeping a window of 4 in flight.
fn echo_rate(dispatchers: usize) -> f64 {
    const THREADS: usize = 8;
    const ROUNDS: usize = 48;
    const WINDOW: usize = 4;
    VirtualLab::run(move || {
        let mut fc = FabricConfig::default();
        fc.nic_lanes = 2;
        let domain = FlockDomain::new(fc);
        let server = lab_server(&domain, dispatchers);
        let handles: Vec<_> = (0..2)
            .map(|c| lab_client(&domain, &format!("spread-c{c}")).1)
            .collect();
        // The window closes at the last reply: tearing the callers down
        // is not part of the measured work.
        let last = Arc::new(AtomicU64::new(0));
        let t0 = clock::now_ns();
        let callers: Vec<_> = (0..2 * THREADS)
            .map(|caller| {
                let t = handles[caller / THREADS].register_thread();
                let last = Arc::clone(&last);
                clock::spawn(&format!("spread-caller{caller}"), move || {
                    for round in 0..ROUNDS {
                        let sent: Vec<_> = (0..WINDOW)
                            .map(|w| {
                                let body = payload(caller, round * WINDOW + w);
                                (t.send_rpc(ECHO, &body).expect("send"), body)
                            })
                            .collect();
                        for (seq, body) in sent {
                            assert!(t.recv_res(seq).expect("recv") == body, "echo mismatch");
                        }
                    }
                    last.fetch_max(clock::now_ns(), Ordering::Relaxed);
                })
            })
            .collect();
        for c in callers {
            c.join().expect("caller");
        }
        let elapsed_us = (last.load(Ordering::Relaxed) - t0) as f64 / 1_000.0;
        drop(handles);
        server.shutdown(&domain);
        (2 * THREADS * ROUNDS * WINDOW) as f64 / elapsed_us
    })
}

#[test]
fn lanes_spread_over_every_dispatcher() {
    let two = echo_rate(2);
    let four = echo_rate(4);
    assert!(
        four >= 1.5 * two,
        "4 dispatchers: {four:.3} ops/µs, 2 dispatchers: {two:.3} ops/µs"
    );
}

#[test]
fn manual_backlog_across_workers_completes_exactly_once() {
    const PER_THREAD: usize = 12;
    VirtualLab::run(|| {
        let domain = FlockDomain::new(FabricConfig::default());
        let server = Arc::new(lab_server(&domain, LANES));
        // Lanes 0 and 1 sit on different workers whatever the base.
        assert_ne!(
            lane_worker(0, 0, LANES, LANES),
            lane_worker(0, 1, LANES, LANES)
        );
        let (_, handle) = lab_client(&domain, "spread-manual");
        // Threads 0 and 1 hash onto lanes 0 and 1.
        let threads: Vec<_> = (0..LANES).map(|_| handle.register_thread()).collect();
        let total = LANES * PER_THREAD;

        // The responder starts once the whole backlog is queued, then
        // answers with the request reversed, so a reply routed through
        // the wrong path cannot pass for the right one.
        let seen: Arc<Mutex<Vec<Vec<u8>>>> = Arc::default();
        let responder = {
            let (server, seen) = (Arc::clone(&server), Arc::clone(&seen));
            clock::spawn("spread-manual", move || {
                clock::sleep_ns(100_000);
                for _ in 0..total {
                    let rpc = server
                        .recv_rpc(Duration::from_millis(50))
                        .expect("manual request");
                    assert_eq!(rpc.rpc_id, MANUAL);
                    seen.lock().unwrap().push(rpc.data.to_vec());
                    let reply: Vec<u8> = rpc.data.iter().rev().copied().collect();
                    server.send_res(rpc.token, &reply).expect("send_res");
                }
            })
        };

        let sent: Vec<Vec<(u64, Vec<u8>)>> = threads
            .iter()
            .enumerate()
            .map(|(caller, t)| {
                (0..PER_THREAD)
                    .map(|op| {
                        let body = payload(caller, op);
                        (t.send_rpc(MANUAL, &body).expect("send"), body)
                    })
                    .collect()
            })
            .collect();
        for (t, sent) in threads.iter().zip(&sent) {
            for (seq, body) in sent {
                let mut want = body.clone();
                want.reverse();
                assert!(
                    t.recv_res(*seq).expect("recv") == want,
                    "reply does not answer its request"
                );
            }
        }
        responder.join().expect("responder");

        let per_qp = handle.metrics().per_qp;
        assert!(
            per_qp.iter().all(|q| q.requests == PER_THREAD as u64),
            "backlog did not cover both lanes: {per_qp:?}"
        );
        let seen = seen.lock().unwrap();
        let distinct: HashSet<&Vec<u8>> = seen.iter().collect();
        assert_eq!(
            distinct.len(),
            total,
            "a manual request was delivered twice"
        );
        clock::sleep_ns(100_000);
        for (t, sent) in threads.iter().zip(&sent) {
            for (seq, _) in sent {
                assert!(t.try_recv_res(*seq).is_none(), "seq {seq} answered twice");
            }
        }
        let tenant = server.fairness_snapshot().tenants[0].clone();
        assert_eq!(
            (tenant.issued, tenant.completed),
            (total as u64, total as u64)
        );
        drop(threads);
        drop(handle);
        server.shutdown(&domain);
    });
}

#[test]
fn close_of_a_spread_connection_quiesces_while_a_survivor_runs() {
    VirtualLab::run(|| {
        // Elastic pools on: the closed connection's QPs go back to the
        // node instead of being destroyed.
        let mut fc = FabricConfig::default();
        fc.qpool.enabled = true;
        fc.mr_cache.enabled = true;
        let domain = FlockDomain::new(fc);
        // Two workers, two two-lane connections: every worker owns a
        // lane of each connection, so both must quiesce for the close.
        let server = lab_server(&domain, LANES);
        let (_, keeper) = lab_client(&domain, "spread-keeper");
        let (goner_node, mut goner) = lab_client(&domain, "spread-goner");

        let stop = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicU64::new(0));
        let survivors: Vec<_> = (0..LANES)
            .map(|caller| {
                let t = keeper.register_thread();
                let (stop, done) = (Arc::clone(&stop), Arc::clone(&done));
                clock::spawn(&format!("spread-survivor{caller}"), move || {
                    let mut op = 0;
                    while !stop.load(Ordering::Acquire) {
                        let body = payload(caller, op);
                        assert!(t.call(ECHO, &body).expect("survivor call") == body);
                        done.fetch_add(1, Ordering::Release);
                        op += 1;
                    }
                })
            })
            .collect();

        let goner_threads: Vec<_> = (0..LANES).map(|_| goner.register_thread()).collect();
        for (caller, t) in goner_threads.iter().enumerate() {
            for op in 0..8 {
                let body = payload(10 + caller, op);
                assert!(t.call(ECHO, &body).expect("goner call") == body);
            }
        }
        let per_qp = goner.metrics().per_qp;
        assert!(
            per_qp.iter().all(|q| q.requests > 0),
            "goner used one lane: {per_qp:?}"
        );
        drop(goner_threads);

        assert!(done.load(Ordering::Acquire) > 0, "survivor never completed");
        fl_disconnect(&mut goner).expect("close");
        let recycled = goner_node.pool().stats().recycled.load(Ordering::Relaxed);
        assert!(
            recycled >= LANES as u64,
            "closed handle recycled {recycled} QPs"
        );

        // The survivor keeps completing after the close.
        let after_close = done.load(Ordering::Acquire);
        clock::sleep_ns(200_000);
        let later = done.load(Ordering::Acquire);
        assert!(later > after_close, "survivor stalled after the close");

        stop.store(true, Ordering::Release);
        for s in survivors {
            s.join().expect("survivor");
        }
        drop(keeper);
        server.shutdown(&domain);
    });
}
