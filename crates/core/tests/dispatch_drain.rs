//! The dispatcher's per-visit drain (paper §4.3) on the real stack inside
//! the deterministic virtual-time lab: every request message already
//! landed in a lane's ring is answered with one coalesced response,
//! bounded by a quarter ring.
//!
//! * One caller with 8 RPCs outstanding sends degree-1 request messages,
//!   yet the server answers them several at a time.
//! * A backlog larger than a quarter ring splits into several response
//!   messages, none larger than the bound, each reply exactly once.
//! * A backlog mixing handler-path and manual-path (`recv_rpc` /
//!   `send_res`) requests completes every request exactly once and keeps
//!   the client's view of the request head within a quarter ring plus
//!   one message.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use flock_core::api::*;
use flock_core::msg;
use flock_core::ring::align_up;
use flock_core::{ConnectionHandle, FlockDomain, FlockServer, HandleConfig, ServerConfig};
use flock_fabric::FabricConfig;
use flock_sim::vtime::VirtualLab;
use flock_sync::clock;

const ECHO: u32 = 1;
/// Handler that parks the dispatcher long enough for a backlog to land.
const GATE: u32 = 2;
/// No handler registered: served through `recv_rpc` / `send_res`.
const MANUAL: u32 = 9;
const GATE_NS: u64 = 200_000;
const PAYLOAD: usize = 2048;

/// The server's request rings. Clients get response rings four times as
/// large, so the drain bound — a quarter of the smaller ring — is
/// `RING / 4`, and a backlog's replies never wait on response-ring space
/// (the client reports its response-ring head only on requests, and the
/// backlog is its last one).
const RING: usize = 32 << 10;

fn lab_server(domain: &FlockDomain, ring: usize) -> FlockServer {
    let node = domain.add_node("drain-srv");
    let mut cfg = ServerConfig::default();
    cfg.dispatch_threads = 1;
    cfg.ring_capacity = ring;
    let server = FlockServer::listen(domain, &node, "drain", cfg);
    server.reg_handler(ECHO, |req| req.to_vec());
    server.reg_handler(GATE, |_| {
        clock::sleep_ns(GATE_NS);
        b"gate".to_vec()
    });
    server
}

fn lab_client(domain: &FlockDomain, ring: usize) -> ConnectionHandle {
    let node = domain.add_node("drain-cli");
    let mut cfg = HandleConfig::default();
    cfg.n_qps = 1;
    cfg.ring_capacity = ring;
    fl_connect(domain, &node, "drain", cfg).expect("connect")
}

/// A distinct 2 KB payload per request, so a misrouted or torn reply
/// cannot match.
fn payload(i: usize) -> Vec<u8> {
    (0..PAYLOAD).map(|b| (i * 31 + b * 7) as u8).collect()
}

/// Encoded size of a one-request message carrying a 2 KB payload.
fn one_request_msg() -> u64 {
    align_up(msg::encoded_size([PAYLOAD])) as u64
}

#[test]
fn outstanding_window_is_answered_by_coalesced_responses() {
    let (req_degree, resp_degree, requests) = VirtualLab::run(|| {
        let domain = FlockDomain::new(FabricConfig::default());
        let server = lab_server(&domain, 1 << 16);
        let handle = lab_client(&domain, 1 << 16);
        let t = handle.register_thread();
        for round in 0..16u32 {
            let seqs: Vec<(u64, Vec<u8>)> = (0..8u32)
                .map(|i| {
                    let body = (round * 8 + i).to_le_bytes().to_vec();
                    (t.send_rpc(ECHO, &body).expect("send"), body)
                })
                .collect();
            for (seq, body) in seqs {
                assert_eq!(t.recv_res(seq).expect("recv"), body);
            }
        }
        let stats = server.stats();
        let out = (
            stats.mean_coalescing_degree(),
            stats.mean_response_degree(),
            stats.requests.load(Ordering::Relaxed),
        );
        drop(handle);
        server.shutdown(&domain);
        out
    });
    assert_eq!(requests, 128);
    // One thread per handle: every request travels in its own message.
    assert_eq!(req_degree, 1.0);
    assert!(
        resp_degree > 1.0,
        "dispatcher answered message by message (response degree {resp_degree})"
    );
}

#[test]
fn backlog_beyond_a_quarter_ring_splits_at_the_bound() {
    const N: usize = 12;
    VirtualLab::run(|| {
        let domain = FlockDomain::new(FabricConfig::default());
        let server = lab_server(&domain, RING);
        let handle = lab_client(&domain, 4 * RING);
        let t = handle.register_thread();
        let bound = (RING / 4) as u64;
        assert!(
            N as u64 * one_request_msg() > bound,
            "backlog must exceed the drain bound"
        );

        // The gate parks the dispatcher mid-visit while the backlog lands.
        let gate = t.send_rpc(GATE, b"").expect("send gate");
        let seqs: Vec<u64> = (0..N)
            .map(|i| t.send_rpc(ECHO, &payload(i)).expect("send"))
            .collect();
        assert_eq!(t.recv_res(gate).expect("gate"), &b"gate"[..]);
        for (i, &seq) in seqs.iter().enumerate() {
            let reply = t.recv_res(seq).expect("recv");
            assert!(reply == payload(i), "reply {i} differs from its request");
        }
        // Exactly once: nothing more arrives for any sequence number.
        clock::sleep_ns(100_000);
        for &seq in seqs.iter().chain([&gate]) {
            assert!(t.try_recv_res(seq).is_none(), "seq {seq} answered twice");
        }

        let stats = server.stats();
        let resp_msgs = stats.response_messages.load(Ordering::Relaxed);
        let peak = stats.peak_response_bytes.load(Ordering::Relaxed);
        assert_eq!(stats.requests.load(Ordering::Relaxed), N as u64 + 1);
        assert!(
            peak <= bound,
            "response message of {peak} B exceeds {bound} B"
        );
        // At most three 2 KB replies fit under the bound, so the backlog
        // needs several messages, yet fewer than one per request.
        assert!(
            (N as u64 / 3..N as u64).contains(&resp_msgs),
            "{resp_msgs} response messages for {} requests",
            N + 1
        );
        let tenant = server.fairness_snapshot().tenants[0].clone();
        assert_eq!(
            (tenant.issued, tenant.completed),
            (N as u64 + 1, N as u64 + 1)
        );
        drop(handle);
        server.shutdown(&domain);
    });
}

#[test]
fn mixed_handler_and_manual_backlog_completes_exactly_once() {
    const N: usize = 24;
    VirtualLab::run(|| {
        let domain = FlockDomain::new(FabricConfig::default());
        let server = Arc::new(lab_server(&domain, RING));
        let handle = lab_client(&domain, 4 * RING);
        let t = handle.register_thread();
        let manual = |i: usize| !i.is_multiple_of(3);
        let n_manual = (0..N).filter(|&i| manual(i)).count();

        // Manual responder: answers with the request reversed, so a reply
        // routed through the wrong path cannot pass for the right one.
        let seen: Arc<Mutex<Vec<Vec<u8>>>> = Arc::default();
        let responder = {
            let (server, seen) = (Arc::clone(&server), Arc::clone(&seen));
            clock::spawn("drain-manual", move || {
                for _ in 0..n_manual {
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

        let gate = t.send_rpc(GATE, b"").expect("send gate");
        let seqs: Vec<u64> = (0..N)
            .map(|i| {
                let rpc = if manual(i) { MANUAL } else { ECHO };
                t.send_rpc(rpc, &payload(i)).expect("send")
            })
            .collect();
        assert_eq!(t.recv_res(gate).expect("gate"), &b"gate"[..]);
        for (i, &seq) in seqs.iter().enumerate() {
            let reply = t.recv_res(seq).expect("recv");
            let mut want = payload(i);
            if manual(i) {
                want.reverse();
            }
            assert!(reply == want, "reply {i} does not answer its request");
        }
        responder.join().expect("responder");
        let seen = seen.lock().unwrap();
        let distinct: HashSet<&Vec<u8>> = seen.iter().collect();
        assert_eq!(
            distinct.len(),
            n_manual,
            "a manual request was delivered twice"
        );
        clock::sleep_ns(100_000);
        for &seq in seqs.iter().chain([&gate]) {
            assert!(t.try_recv_res(seq).is_none(), "seq {seq} answered twice");
        }

        let stats = server.stats();
        assert_eq!(stats.requests.load(Ordering::Relaxed), N as u64 + 1);
        let debt = stats.peak_head_debt.load(Ordering::Relaxed);
        let limit = (RING / 4) as u64 + one_request_msg();
        assert!(debt <= limit, "head debt {debt} B exceeds {limit} B");
        let tenant = server.fairness_snapshot().tenants[0].clone();
        assert_eq!(
            (tenant.issued, tenant.completed),
            (N as u64 + 1, N as u64 + 1)
        );
        drop(handle);
        server.shutdown(&domain);
    });
}
