//! FaRM-style lock-based QP sharing (and the no-sharing special case).
//!
//! Threads share an RC QP behind a plain lock: each thread encodes its own
//! single-request message and posts its own RDMA write while holding the
//! QP lock. No coalescing, no leader — the configuration the paper's
//! Figure 9 compares against (2 or 4 threads per QP via spinlock;
//! 1 thread per QP is the *no sharing* configuration).
//!
//! The client speaks the Flock ring/message protocol, so the peer is an
//! unmodified [`flock_core::server::FlockServer`].

use std::collections::HashMap;

use flock_core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use flock_core::sync::Arc;
use std::time::Duration;

use flock_sync::clock;
use flock_sync::clock::TaskHandle;

use crossbeam::channel::bounded;
use flock_core::credit::CreditState;
use flock_core::domain::{ConnectRequest, FlockDomain, RingInfo};
use flock_core::msg::{self, EntryMeta, EntryRef, MsgHeader, FLAG_CREDIT_GRANT};
use flock_core::ring::{RingConsumer, RingLayout, RingProducer};
use flock_core::{FlockError, Result};
use flock_fabric::{Access, MemoryRegion, Node, RemoteAddr, SendWr, Sge, Transport, WrId};
use parking_lot::{Condvar, Mutex};

/// Configuration for the lock-sharing client.
#[derive(Debug, Clone)]
pub struct LockShareConfig {
    /// Number of RC QPs.
    pub n_qps: usize,
    /// Ring capacity per QP.
    pub ring_capacity: usize,
    /// Blocking-wait timeout.
    pub timeout: Duration,
}

impl Default for LockShareConfig {
    fn default() -> Self {
        LockShareConfig {
            n_qps: 4,
            ring_capacity: 1 << 16,
            timeout: Duration::from_secs(10),
        }
    }
}

/// Per-QP state, all guarded by one lock (the FaRM-style spinlock; we use
/// a parking-lot mutex, which spins before parking).
struct Lane {
    prod: RingProducer,
    credits: CreditState,
    canary_seq: u64,
}

struct QpCtx {
    index: usize,
    qp: Arc<flock_fabric::Qp>,
    lane: Mutex<Lane>,
    lane_cond: Condvar,
    req_remote: RingInfo,
    staging: Arc<MemoryRegion>,
    resp_mr: Arc<MemoryRegion>,
    resp_cons: Mutex<RingConsumer>,
    server_head: AtomicU64,
    resp_head_shared: AtomicU64,
    messages_sent: AtomicU64,
}

struct ThreadSlot {
    inbox: Mutex<HashMap<u64, Vec<u8>>>,
    cond: Condvar,
}

struct Inner {
    cfg: LockShareConfig,
    qps: Vec<Arc<QpCtx>>,
    threads: Mutex<Vec<Arc<ThreadSlot>>>,
    stop: AtomicBool,
}

/// The lock-based QP-sharing RPC client.
pub struct LockSharedClient {
    inner: Arc<Inner>,
    dispatcher: Option<TaskHandle>,
}

/// A per-thread context for [`LockSharedClient`].
pub struct LockThread {
    inner: Arc<Inner>,
    thread_id: u32,
    qp_idx: usize,
    seq: std::cell::Cell<u64>,
    slot: Arc<ThreadSlot>,
}

impl LockSharedClient {
    /// Connect to a Flock server (same handshake as the Flock client).
    pub fn connect(
        domain: &FlockDomain,
        node: &Arc<Node>,
        server_name: &str,
        cfg: LockShareConfig,
    ) -> Result<LockSharedClient> {
        let mut client_qps = Vec::new();
        let mut resp_mrs = Vec::new();
        let mut response_rings = Vec::new();
        for _ in 0..cfg.n_qps {
            let cq = node.create_cq(256);
            let qp = node.create_qp(Transport::Rc, &cq, &cq);
            let resp_mr = node.register_mr(cfg.ring_capacity, Access::REMOTE_WRITE);
            response_rings.push(RingInfo {
                rkey: resp_mr.rkey(),
                addr: resp_mr.addr(),
                capacity: cfg.ring_capacity,
            });
            resp_mrs.push(resp_mr);
            client_qps.push(qp);
        }
        let (reply_tx, _r) = bounded(1);
        let reply = domain.dial(
            server_name,
            ConnectRequest {
                client_node: node.id(),
                client_qps: client_qps.clone(),
                response_rings,
                tenant: 0,
                reply: reply_tx,
            },
        )?;
        let mut qps = Vec::new();
        for (i, qp) in client_qps.into_iter().enumerate() {
            let req_remote = reply.request_rings[i];
            qps.push(Arc::new(QpCtx {
                index: i,
                qp,
                lane: Mutex::new(Lane {
                    prod: RingProducer::new(RingLayout::new(0, req_remote.capacity)),
                    credits: CreditState::new(reply.initial_credits),
                    canary_seq: 0,
                }),
                lane_cond: Condvar::new(),
                req_remote,
                staging: node.register_mr(cfg.ring_capacity, Access::LOCAL),
                resp_mr: Arc::clone(&resp_mrs[i]),
                resp_cons: Mutex::new(RingConsumer::new(RingLayout::new(0, cfg.ring_capacity))),
                server_head: AtomicU64::new(0),
                resp_head_shared: AtomicU64::new(0),
                messages_sent: AtomicU64::new(0),
            }));
        }
        let inner = Arc::new(Inner {
            cfg,
            qps,
            threads: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let dispatcher = {
            let inner = Arc::clone(&inner);
            clock::spawn("lockshare-dispatch", move || dispatcher_loop(&inner))
        };
        Ok(LockSharedClient {
            inner,
            dispatcher: Some(dispatcher),
        })
    }

    /// Register a thread; it is pinned to QP `thread_id % n_qps` (static
    /// FaRM-style assignment; no thread scheduler).
    pub fn register_thread(&self) -> LockThread {
        let mut threads = self.inner.threads.lock();
        let thread_id = threads.len() as u32;
        let slot = Arc::new(ThreadSlot {
            inbox: Mutex::new(HashMap::new()),
            cond: Condvar::new(),
        });
        threads.push(Arc::clone(&slot));
        LockThread {
            inner: Arc::clone(&self.inner),
            thread_id,
            qp_idx: thread_id as usize % self.inner.qps.len(),
            seq: std::cell::Cell::new(1),
            slot,
        }
    }

    /// Messages sent (equals requests: no coalescing).
    pub fn messages_sent(&self) -> u64 {
        self.inner
            .qps
            .iter()
            .map(|q| q.messages_sent.load(Ordering::Relaxed))
            .sum()
    }

    /// Stop the dispatcher.
    pub fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for LockSharedClient {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl LockThread {
    /// Blocking RPC: encode one single-request message under the QP lock,
    /// post it, and wait for the response.
    pub fn call(&self, rpc_id: u32, payload: &[u8]) -> Result<Vec<u8>> {
        let qp = &self.inner.qps[self.qp_idx];
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let meta = EntryMeta {
            len: payload.len() as u32,
            thread_id: self.thread_id,
            seq,
            rpc_id,
        };
        let need = msg::encoded_size([payload.len()]);
        let deadline = clock::deadline(self.inner.cfg.timeout);

        // ---- The whole send path holds the QP lock (FaRM model). ----
        {
            let mut lane = qp.lane.lock();
            // Credits: 1 per request; renew at half.
            loop {
                if lane.credits.try_consume(1) {
                    break;
                }
                if !lane.credits.renewal_in_flight() {
                    lane.credits.mark_requested();
                    send_credit_request(qp);
                }
                if self.inner.stop.load(Ordering::Relaxed) {
                    return Err(FlockError::Disconnected);
                }
                if clock::wait_until(&qp.lane_cond, &mut lane, deadline, 500) {
                    return Err(FlockError::Timeout);
                }
            }
            if lane.credits.should_request_renewal() {
                lane.credits.mark_requested();
                send_credit_request(qp);
            }
            lane.canary_seq += 1;
            let canary = 0xFA12_0000_0000_0000 + lane.canary_seq;
            let header = MsgHeader {
                total_len: 0,
                count: 0,
                flags: 0,
                canary,
                head: qp.resp_head_shared.load(Ordering::Acquire),
                aux: 0,
            };
            let reservation = loop {
                lane.prod
                    .update_head(qp.server_head.load(Ordering::Acquire));
                match lane.prod.reserve(need) {
                    Ok(r) => break r,
                    Err(FlockError::RingFull { .. }) => {
                        if clock::expired(deadline) {
                            return Err(FlockError::Timeout);
                        }
                        parking_lot::MutexGuard::unlocked(&mut lane, clock::yield_now);
                    }
                    Err(e) => return Err(e),
                }
            };
            if let Some((woff, wlen)) = reservation.wrap {
                let rec = RingProducer::wrap_record(wlen, canary);
                qp.staging.write(woff, &rec)?;
                qp.qp.post_send(
                    SendWr::write(
                        WrId(0),
                        Sge {
                            lkey: qp.staging.lkey(),
                            addr: qp.staging.addr() + woff as u64,
                            len: wlen,
                        },
                        RemoteAddr {
                            rkey: qp.req_remote.rkey,
                            addr: qp.req_remote.addr + woff as u64,
                        },
                    )
                    .unsignaled(),
                )?;
            }
            qp.staging.with_write(|buf| {
                msg::encode(
                    &mut buf[reservation.offset..reservation.offset + need],
                    &header,
                    &[EntryRef {
                        meta,
                        data: payload,
                    }],
                )
                .map(|_| ())
            })?;
            qp.qp.post_send(
                SendWr::write(
                    WrId(u64::MAX),
                    Sge {
                        lkey: qp.staging.lkey(),
                        addr: qp.staging.addr() + reservation.offset as u64,
                        len: need,
                    },
                    RemoteAddr {
                        rkey: qp.req_remote.rkey,
                        addr: qp.req_remote.addr + reservation.offset as u64,
                    },
                )
                .unsignaled(),
            )?;
            qp.messages_sent.fetch_add(1, Ordering::Relaxed);
        }

        // ---- Wait for the response outside the lock. ----
        let mut inbox = self.slot.inbox.lock();
        loop {
            if let Some(data) = inbox.remove(&seq) {
                return Ok(data);
            }
            if self.inner.stop.load(Ordering::Relaxed) {
                return Err(FlockError::Disconnected);
            }
            if clock::wait_until(&self.slot.cond, &mut inbox, deadline, 500) {
                return Err(FlockError::Timeout);
            }
        }
    }
}

fn send_credit_request(qp: &QpCtx) {
    let imm = ((qp.index as u32) << 16) | 1; // degree is always 1 here
    let _ = qp.qp.post_send(
        SendWr::write_imm(
            WrId(u64::MAX - 1),
            Sge {
                lkey: qp.staging.lkey(),
                addr: qp.staging.addr(),
                len: 0,
            },
            RemoteAddr {
                rkey: qp.req_remote.rkey,
                addr: qp.req_remote.addr,
            },
            imm,
        )
        .unsignaled(),
    );
}

fn dispatcher_loop(inner: &Inner) {
    while !inner.stop.load(Ordering::Relaxed) {
        let mut progressed = false;
        for qp in &inner.qps {
            while qp.qp.send_cq().poll_one().is_some() {}
            let polled = { qp.resp_cons.lock().poll(&qp.resp_mr) };
            if let Ok(Some(m)) = polled {
                progressed = true;
                let head_after = { qp.resp_cons.lock().head() };
                qp.resp_head_shared.store(head_after, Ordering::Release);
                let view = m.view();
                qp.server_head.fetch_max(view.header.head, Ordering::AcqRel);
                if view.header.flags & FLAG_CREDIT_GRANT != 0 {
                    let (granted, _) = msg::unpack_aux(view.header.aux);
                    let mut lane = qp.lane.lock();
                    if granted > 0 {
                        lane.credits.grant(granted);
                    } else {
                        // The Flock server only declines QPs its scheduler
                        // deactivated; the FaRM-style client has no
                        // migration, so treat it as a fresh grant request
                        // opportunity (keeps the baseline simple).
                        lane.credits.grant(1);
                    }
                    qp.lane_cond.notify_all();
                }
                let threads = inner.threads.lock();
                for (meta, data) in view.entries() {
                    if let Some(slot) = threads.get(meta.thread_id as usize) {
                        slot.inbox.lock().insert(meta.seq, data.to_vec());
                        slot.cond.notify_all();
                    }
                }
            }
        }
        if progressed {
            // Charge per-batch CPU cost so a busy virtual dispatcher
            // still advances time and yields the core (no-ops in
            // threaded mode).
            clock::charge(1_000);
            clock::flush_charge();
        } else {
            clock::yield_now();
        }
    }
    for slot in inner.threads.lock().iter() {
        slot.cond.notify_all();
    }
}
