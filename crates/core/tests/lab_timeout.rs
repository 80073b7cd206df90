//! Deadlines inside the deterministic virtual-time lab: a `recv_res`
//! whose request is never answered returns `Timeout` at the first poll
//! tick past its deadline, not one tick later and never early.

use std::time::Duration;

use flock_core::api::*;
use flock_core::{FlockDomain, FlockError, FlockServer, HandleConfig, ServerConfig};
use flock_fabric::FabricConfig;
use flock_sim::vtime::VirtualLab;
use flock_sync::clock;

/// No handler and nobody calling `recv_rpc`: never answered.
const UNANSWERED: u32 = 9;

#[test]
fn recv_res_times_out_at_the_first_tick_past_the_deadline() {
    VirtualLab::run(|| {
        let domain = FlockDomain::new(FabricConfig::default());
        let snode = domain.add_node("silent-srv");
        let server = FlockServer::listen(&domain, &snode, "silent", ServerConfig::default());
        let cnode = domain.add_node("silent-c");
        let mut cfg = HandleConfig::default();
        cfg.timeout = Duration::from_micros(200);
        let handle = fl_connect(&domain, &cnode, "silent", cfg).expect("connect");
        let t = handle.register_thread();
        let seq = t.send_rpc(UNANSWERED, b"hello").expect("send");
        // Apply the send path's charged cost so the wait starts clean.
        clock::flush_charge();
        let t0 = clock::now_ns();
        assert!(matches!(t.recv_res(seq), Err(FlockError::Timeout)));
        // The wait polls every 500 ns from t0. The tick at t0 + 200 µs is
        // the deadline itself, not past it; the next one gives up.
        assert_eq!(clock::now_ns() - t0, 200_000 + 500);
        drop(t);
        drop(handle);
        server.shutdown(&domain);
    });
}
