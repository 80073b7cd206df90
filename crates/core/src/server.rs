//! The server side of Flock: accepting connections, the request
//! dispatcher (paper §4.3), response coalescing, and the receiver-side QP
//! scheduler with credit renewal over write-with-imm (§5.1, §7).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use flock_fabric::{
    Access, CompletionQueue, CostModel, CqOpcode, MemoryRegion, Node, NodeId, Qp, RecvWr,
    RemoteAddr, SendWr, Sge, Transport, WrId,
};
use flock_sync::clock::{self, TaskHandle};
use parking_lot::{Mutex, RwLock};

use crate::domain::{
    AttachMemReply, AttachMemRequest, AttachReply, AttachRequest, ConnectReply, ConnectRequest,
    CtrlMsg, ExportReply, FlockDomain, MemRegionInfo, RingInfo, SegmentLease,
};
use crate::error::{FlockError, Result};
use crate::msg::{self, EntryMeta, EntryRef, MsgHeader, FLAG_CREDIT_GRANT};
use crate::ring::{RingConsumer, RingLayout, RingProducer};
use crate::sched::qp::{QpScheduler, QpSchedulerConfig, SenderQp};
use crate::sched::tenant::{FairnessSnapshot, TenantCounters};

/// Receive buffers posted per QP for credit-renewal immediates.
const IMM_RECV_DEPTH: usize = 64;
/// Signal every Nth response write.
const SIGNAL_EVERY: u64 = 64;

/// Server configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Request/response ring capacity per QP (bytes).
    pub ring_capacity: usize,
    /// Receiver-side QP scheduler parameters.
    pub sched: QpSchedulerConfig,
    /// QP redistribution interval.
    pub sched_interval: Duration,
    /// Blocking-wait timeout.
    pub timeout: Duration,
    /// Dispatcher worker threads. Each owns a disjoint set of lanes
    /// (re-cut when the QP scheduler redistributes active QPs; see
    /// [`lane_worker`]); `1` is the single-dispatcher degenerate case.
    /// Defaults to [`auto_dispatch_threads`].
    pub dispatch_threads: usize,
}

/// Default dispatcher worker count: the host's available parallelism,
/// clamped to `1..=8`. Sharding the dispatch only wins when the workers
/// can actually run in parallel; on a 1-CPU host extra workers just
/// time-slice the same core through the idle ladder (the honest 0.78×
/// of the pre-seam 4/4 BENCH_e2e point), so the degenerate 1-worker
/// path is chosen automatically there.
pub fn auto_dispatch_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            ring_capacity: 1 << 16,
            sched: QpSchedulerConfig::default(),
            sched_interval: Duration::from_millis(10),
            timeout: Duration::from_secs(10),
            dispatch_threads: auto_dispatch_threads(),
        }
    }
}

/// An RPC handler: bytes in, bytes out.
pub type Handler = Arc<dyn Fn(&[u8]) -> Vec<u8> + Send + Sync>;

/// A request pulled via the manual API (`fl_recv_rpc`).
pub struct IncomingRpc {
    /// The registered RPC id.
    pub rpc_id: u32,
    /// Request payload: a zero-copy slice of the coalesced request
    /// message.
    pub data: Bytes,
    /// Token to pass to [`FlockServer::send_res`].
    pub token: RpcToken,
}

/// Identifies the request's origin for `fl_send_res`.
#[derive(Debug, Clone, Copy)]
pub struct RpcToken {
    conn: usize,
    qp: usize,
    meta: EntryMeta,
}

struct ServerQpCtx {
    qp: Arc<Qp>,
    req_mr: Arc<MemoryRegion>,
    req_cons: Mutex<RingConsumer>,
    resp_prod: Mutex<RingProducer>,
    resp_remote: RingInfo,
    staging: Arc<MemoryRegion>,
    /// Client's response-ring consumed head (piggybacked on requests).
    client_resp_head: AtomicU64,
    /// Our request-ring consumed head as of the last successful
    /// `flush_response` (any kind — every response message piggybacks
    /// it). Lets the dispatcher skip redundant zero-entry head-only
    /// writes while the client is not actually short of ring space.
    last_flushed_head: AtomicU64,
    write_count: AtomicU64,
    canary_seq: AtomicU64,
    /// Mirror of the QP scheduler's active bit (updated on
    /// redistribution). Dispatchers poll deactivated QPs only every
    /// [`INACTIVE_POLL_PERIOD`]th sweep: clients drain in-flight
    /// requests on a deactivated QP but send new ones elsewhere, so at
    /// high connection counts (QPs ≫ MAX_AQP) polling every ring every
    /// sweep burns the dispatch budget on empty probes.
    active: AtomicBool,
}

impl ServerQpCtx {
    fn next_canary(&self) -> u64 {
        0xC0DE_0000_0000_0001 + self.canary_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Head debt: request-ring bytes consumed since the head was last
    /// published to the client.
    fn head_debt(&self) -> u64 {
        let consumed = { self.req_cons.lock().head() };
        consumed.saturating_sub(self.last_flushed_head.load(Ordering::Relaxed))
    }
}

struct ServerConn {
    sender_id: u32,
    #[allow(dead_code)]
    client_node: NodeId,
    /// Tenant this connection acts for (from the connect handshake).
    #[allow(dead_code)]
    tenant: u32,
    /// The tenant's shared counter block, cloned out of the scheduler's
    /// registry at accept time so the dispatch hot path bumps per-tenant
    /// issued/completed statistics without any lock.
    counters: Arc<TenantCounters>,
    /// Send CQ shared by this connection's QPs. Drained once per sweep
    /// by every dispatcher that owns one of the connection's lanes
    /// (sibling lanes may sit on different workers; the CQ is MPMC and
    /// the drained completions are discarded).
    send_cq: Arc<CompletionQueue>,
    /// The connection's QP lanes. Behind a lock because lanes attach
    /// lazily (`CtrlMsg::Attach`) and leave in one batch at detach;
    /// dispatchers never take it on the hot path — they clone the list
    /// into their generation-stamped partition snapshot.
    qps: RwLock<Vec<Arc<ServerQpCtx>>>,
    /// Passive peers of the client's dedicated one-sided QPs
    /// ([`CtrlMsg::AttachMem`]). Never polled or dispatched — one-sided
    /// verbs complete on the requester's CQ — but each one is live NIC
    /// connection state on this node, competing for the connection
    /// cache exactly as the paper's crossover argument describes.
    mem_qps: Mutex<Vec<Arc<Qp>>>,
    /// Graceful-teardown tombstone: a departed connection stays in the
    /// `conns` slot (indices are stable) but leaves every snapshot.
    departed: AtomicBool,
}

/// Aggregate server statistics.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Coalesced request messages received.
    pub messages: AtomicU64,
    /// Response messages posted that carry at least one reply (head-only
    /// and credit-control messages are not counted).
    pub response_messages: AtomicU64,
    /// Largest response message posted, encoded bytes.
    pub peak_response_bytes: AtomicU64,
    /// Largest head debt a response message paid off: request-ring bytes
    /// consumed but not yet published to the client when it was posted.
    pub peak_head_debt: AtomicU64,
    /// Individual RPC requests processed.
    pub requests: AtomicU64,
    /// Credit renewals granted.
    pub grants: AtomicU64,
    /// Credit renewals declined.
    pub declines: AtomicU64,
    /// Redundant head-only response writes elided because the client's
    /// view of the consumed head was still fresh (within a quarter ring).
    pub head_flushes_skipped: AtomicU64,
}

impl ServerStats {
    /// Observed mean coalescing degree (requests per message).
    pub fn mean_coalescing_degree(&self) -> f64 {
        let m = self.messages.load(Ordering::Relaxed);
        if m == 0 {
            0.0
        } else {
            self.requests.load(Ordering::Relaxed) as f64 / m as f64
        }
    }

    /// Observed mean response degree (requests per reply-carrying
    /// response message). Exceeds the request-side degree when the
    /// dispatcher answers several landed request messages at once.
    pub fn mean_response_degree(&self) -> f64 {
        let m = self.response_messages.load(Ordering::Relaxed);
        if m == 0 {
            0.0
        } else {
            self.requests.load(Ordering::Relaxed) as f64 / m as f64
        }
    }
}

/// A registered one-sided export: `(name, mem_mrs index, stride,
/// slots, meta)`.
type ExportEntry = (String, usize, u32, u32, u64);

struct ServerInner {
    node: Arc<Node>,
    cfg: ServerConfig,
    /// Fabric cost model, used to charge virtual CPU time for host-side
    /// work (polling, codec, handlers, doorbells) when running under a
    /// virtual-time executor. Charges are no-ops in threaded mode.
    cost: CostModel,
    handlers: RwLock<HashMap<u32, Handler>>,
    /// Handler-table generation: bumped (under the write lock) on every
    /// registration so dispatchers refresh their handler snapshot only
    /// when it actually changed, instead of taking the read lock per
    /// polled message.
    handlers_gen: AtomicU64,
    conns: RwLock<Vec<Arc<ServerConn>>>,
    /// Connection → *base* dispatcher worker, indexed by connection
    /// slot. Seeded round-robin at accept time and rebalanced by the QP
    /// scheduler using active-QP weights (see `rebalance_dispatch`).
    /// Lane 0 runs on the base; sibling lanes stride across the other
    /// workers (see [`lane_worker`]).
    dispatch_assign: RwLock<Vec<usize>>,
    /// Topology generation: bumped (under the respective write lock)
    /// whenever connection membership *or* the dispatcher assignment
    /// changes; lets each dispatcher cache its partition snapshot
    /// instead of re-reading the shared tables on every sweep.
    topo_gen: AtomicU64,
    /// Quiescence acknowledgements: `dispatch_acks[w]` is the latest
    /// topology generation worker `w` has folded into its partition
    /// snapshot. Graceful teardown publishes a new generation and waits
    /// for every worker's ack before recycling the departing
    /// connection's QPs and rings — the only point where teardown
    /// synchronizes with dispatch, and it blocks only the control plane.
    dispatch_acks: Vec<AtomicU64>,
    qpn_map: RwLock<HashMap<u32, (usize, usize)>>,
    qp_sched: Mutex<QpScheduler>,
    mem_mrs: RwLock<Vec<Arc<MemoryRegion>>>,
    /// One-sided segment exports. Registered by the application via
    /// [`FlockServer::export_segment`]; served to clients as
    /// [`SegmentLease`]s over [`CtrlMsg::Export`].
    exports: RwLock<Vec<ExportEntry>>,
    imm_cq: Arc<flock_fabric::CompletionQueue>,
    manual_tx: Sender<IncomingRpc>,
    manual_rx: Receiver<IncomingRpc>,
    stats: ServerStats,
    stop: AtomicBool,
}

/// A Flock RPC server bound to one node.
pub struct FlockServer {
    inner: Arc<ServerInner>,
    name: String,
    threads: Mutex<Vec<TaskHandle>>,
}

impl FlockServer {
    /// Start a server on `node`, listening in the domain registry as
    /// `name`. Spawns the accept, dispatcher, and QP-scheduler threads.
    pub fn listen(
        domain: &FlockDomain,
        node: &Arc<Node>,
        name: &str,
        cfg: ServerConfig,
    ) -> FlockServer {
        let (manual_tx, manual_rx) = unbounded();
        let imm_cq = node.create_cq(4096);
        let inner = Arc::new(ServerInner {
            node: Arc::clone(node),
            cfg: cfg.clone(),
            cost: domain.fabric().config().cost.clone(),
            handlers: RwLock::new(HashMap::new()),
            handlers_gen: AtomicU64::new(0),
            conns: RwLock::new(Vec::new()),
            dispatch_assign: RwLock::new(Vec::new()),
            topo_gen: AtomicU64::new(0),
            dispatch_acks: (0..cfg.dispatch_threads.max(1))
                .map(|_| AtomicU64::new(0))
                .collect(),
            qpn_map: RwLock::new(HashMap::new()),
            qp_sched: Mutex::new(QpScheduler::new(cfg.sched.clone())),
            mem_mrs: RwLock::new(Vec::new()),
            exports: RwLock::new(Vec::new()),
            imm_cq,
            manual_tx,
            manual_rx,
            stats: ServerStats::default(),
            stop: AtomicBool::new(false),
        });

        let (accept_tx, accept_rx) = unbounded::<CtrlMsg>();
        domain.register_listener(name, accept_tx);

        let mut threads = Vec::new();
        {
            let inner = Arc::clone(&inner);
            threads.push(clock::spawn(&format!("fl-accept-{name}"), move || {
                accept_loop(&inner, accept_rx)
            }));
        }
        for worker in 0..cfg.dispatch_threads.max(1) {
            let inner = Arc::clone(&inner);
            threads.push(clock::spawn(
                &format!("fl-dispatch-{name}/{worker}"),
                move || dispatch_loop(&inner, worker),
            ));
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(clock::spawn(&format!("fl-qpsched-{name}"), move || {
                qp_sched_loop(&inner)
            }));
        }

        FlockServer {
            inner,
            name: name.to_string(),
            threads: Mutex::new(threads),
        }
    }

    /// Register the handler for `rpc_id` (`fl_reg_handler`).
    pub fn reg_handler(&self, rpc_id: u32, f: impl Fn(&[u8]) -> Vec<u8> + Send + Sync + 'static) {
        let mut handlers = self.inner.handlers.write();
        handlers.insert(rpc_id, Arc::new(f));
        // Publish under the write lock: a dispatcher that observes the
        // new generation and re-reads the table sees the registration.
        self.inner.handlers_gen.fetch_add(1, Ordering::Release);
    }

    /// Register a memory region of `len` bytes for one-sided operations
    /// (`fl_attach_mreg`). Must be called before clients connect. Returns
    /// the region index clients use.
    pub fn attach_mreg(&self, len: usize) -> usize {
        let mr = self.inner.node.register_mr(len, Access::REMOTE_ALL);
        let mut mrs = self.inner.mem_mrs.write();
        mrs.push(mr);
        mrs.len() - 1
    }

    /// Direct access to an attached region (server-local reads/writes).
    pub fn mem_region(&self, idx: usize) -> Option<Arc<MemoryRegion>> {
        self.inner.mem_mrs.read().get(idx).cloned()
    }

    /// Export a slotted view of an attached region for one-sided reads:
    /// `slots` records of `stride` bytes each, starting at the region
    /// base. Clients discover exports by name over the control path
    /// ([`crate::client::ConnectionHandle::fetch_exports`]) and read
    /// slots with zero further server CPU involvement. `meta` is
    /// layout-specific (e.g. the value capacity inside a versioned
    /// slot). Fails if the geometry overruns the region.
    pub fn export_segment(
        &self,
        name: &str,
        mr_idx: usize,
        stride: u32,
        slots: u32,
        meta: u64,
    ) -> Result<()> {
        let mrs = self.inner.mem_mrs.read();
        let mr = mrs.get(mr_idx).ok_or(FlockError::Disconnected)?;
        let need = stride as u64 * slots as u64;
        if stride == 0 || need > mr.len() as u64 {
            return Err(FlockError::CorruptMessage("export overruns its region"));
        }
        drop(mrs);
        self.inner
            .exports
            .write()
            .push((name.to_string(), mr_idx, stride, slots, meta));
        Ok(())
    }

    /// Pull a request with no registered handler (`fl_recv_rpc`).
    pub fn recv_rpc(&self, timeout: Duration) -> Option<IncomingRpc> {
        clock::recv_until(&self.inner.manual_rx, clock::deadline(timeout), 1_000).ok()
    }

    /// Respond to a request obtained via [`FlockServer::recv_rpc`]
    /// (`fl_send_res`).
    pub fn send_res(&self, token: RpcToken, data: &[u8]) -> Result<()> {
        let (qp, counters) = {
            let conns = self.inner.conns.read();
            let conn = conns.get(token.conn).ok_or(FlockError::Disconnected)?;
            if conn.departed.load(Ordering::Relaxed) {
                return Err(FlockError::Disconnected);
            }
            let qp = conn.qps.read().get(token.qp).cloned();
            (qp.ok_or(FlockError::Disconnected)?, Arc::clone(&conn.counters))
        };
        let meta = EntryMeta {
            len: data.len() as u32,
            rpc_id: 0,
            ..token.meta
        };
        // `flush_response` is generic over the payload, so the response
        // bytes go straight from the caller's slice into the staging ring.
        flush_response(&self.inner, &qp, &[(meta, data)], 0, 0)?;
        counters.note_completed(1);
        Ok(())
    }

    /// Server statistics.
    pub fn stats(&self) -> &ServerStats {
        &self.inner.stats
    }

    /// Number of QPs currently active under the scheduler.
    pub fn active_qps(&self) -> usize {
        self.inner.qp_sched.lock().total_active()
    }

    /// Cap `tenant`'s total active QPs (takes effect at the next
    /// scheduler redistribution). See
    /// [`crate::sched::QpScheduler::set_tenant_cap`].
    pub fn set_tenant_cap(&self, tenant: u32, cap: usize) {
        self.inner.qp_sched.lock().set_tenant_cap(tenant, cap);
    }

    /// Remove `tenant`'s active-QP cap.
    pub fn clear_tenant_cap(&self, tenant: u32) {
        self.inner.qp_sched.lock().clear_tenant_cap(tenant);
    }

    /// Point-in-time per-tenant fairness view (shares, caps, request
    /// counters, Jain's index helpers).
    pub fn fairness_snapshot(&self) -> FairnessSnapshot {
        self.inner.qp_sched.lock().fairness_snapshot()
    }

    /// Stop all server threads and unregister from `domain`.
    pub fn shutdown(&self, domain: &FlockDomain) {
        if let Some(ctrl) = domain.unregister_listener(&self.name) {
            // The accept loop blocks on the control channel until this.
            let _ = ctrl.send(CtrlMsg::Shutdown);
        }
        self.inner.stop.store(true, Ordering::SeqCst);
        for h in self.threads.lock().drain(..) {
            let _ = h.join();
        }
    }
}

/// Control-plane loop: connection handshakes (paper §3's `fl_connect`
/// server side), lazy lane attach, and graceful detach — the server end
/// of the out-of-band control channel.
fn accept_loop(inner: &Arc<ServerInner>, rx: Receiver<CtrlMsg>) {
    while let Ok(msg) = clock::recv_until(&rx, clock::NEVER, 5_000) {
        match msg {
            CtrlMsg::Connect(req) => {
                let reply = accept_one(inner, &req);
                let _ = req.reply.send(reply);
            }
            CtrlMsg::Attach(req) => {
                let reply = attach_one(inner, &req);
                let _ = req.reply.send(reply);
            }
            CtrlMsg::AttachMem(req) => {
                let reply = attach_mem_one(inner, &req);
                let _ = req.reply.send(reply);
            }
            CtrlMsg::Detach(req) => {
                let reply = detach_one(inner, req.sender_id);
                let _ = req.reply.send(reply);
            }
            CtrlMsg::Export(req) => {
                let mrs = inner.mem_mrs.read();
                let segments = inner
                    .exports
                    .read()
                    .iter()
                    .filter(|(name, ..)| {
                        req.filter.as_deref().is_none_or(|f| f == name.as_str())
                    })
                    .filter_map(|(name, mr_idx, stride, slots, meta)| {
                        mrs.get(*mr_idx).map(|mr| SegmentLease {
                            name: name.clone(),
                            region: MemRegionInfo {
                                rkey: mr.rkey(),
                                addr: mr.addr(),
                                len: mr.len(),
                            },
                            stride: *stride,
                            slots: *slots,
                            meta: *meta,
                        })
                    })
                    .collect();
                let _ = req.reply.send(Ok(ExportReply { segments }));
            }
            CtrlMsg::Shutdown => return,
        }
    }
}

/// Lease a server QP paired to `client_qp` and build its lane context.
/// The QP comes from the node's pool (warm path: reset + reuse instead
/// of the full creation penalty) and its rings from the MR cache.
fn build_server_lane(
    inner: &ServerInner,
    send_cq: &Arc<CompletionQueue>,
    client_qp: &Arc<Qp>,
    response_ring: RingInfo,
) -> Result<Arc<ServerQpCtx>> {
    let qp = inner.node.lease_qp(Transport::Rc, send_cq, &inner.imm_cq);
    flock_fabric::connect_qps(client_qp, &qp)?;
    let req_mr = inner
        .node
        .acquire_mr(inner.cfg.ring_capacity, Access::REMOTE_WRITE);
    // Staging mirrors the client's response ring, whose capacity the
    // response producer lays messages out in — not our request ring's.
    let staging = inner.node.acquire_mr(response_ring.capacity, Access::LOCAL);
    // Post receive slots for credit-renewal write-with-imm.
    for _ in 0..IMM_RECV_DEPTH {
        qp.post_recv(RecvWr {
            wr_id: WrId(0),
            local: Sge {
                lkey: req_mr.lkey(),
                addr: req_mr.addr(),
                len: 0,
            },
        })?;
    }
    Ok(Arc::new(ServerQpCtx {
        qp,
        req_mr,
        req_cons: Mutex::new(RingConsumer::new(RingLayout::new(
            0,
            inner.cfg.ring_capacity,
        ))),
        resp_prod: Mutex::new(RingProducer::new(RingLayout::new(0, response_ring.capacity))),
        resp_remote: response_ring,
        staging,
        client_resp_head: AtomicU64::new(0),
        last_flushed_head: AtomicU64::new(0),
        write_count: AtomicU64::new(0),
        canary_seq: AtomicU64::new(0),
        active: AtomicBool::new(true),
    }))
}

fn accept_one(inner: &Arc<ServerInner>, req: &ConnectRequest) -> Result<ConnectReply> {
    let n = req.client_qps.len();
    if n == 0 || req.response_rings.len() != n {
        return Err(FlockError::CorruptMessage("malformed connect request"));
    }
    let mut conns = inner.conns.write();
    let conn_idx = conns.len();
    let sender_id = conn_idx as u32;

    let send_cq = inner.node.create_cq(1024);
    let mut qps = Vec::with_capacity(n);
    let mut server_qpns = Vec::with_capacity(n);
    let mut request_rings = Vec::with_capacity(n);
    for (i, client_qp) in req.client_qps.iter().enumerate() {
        let ctx = build_server_lane(inner, &send_cq, client_qp, req.response_rings[i])?;
        server_qpns.push(ctx.qp.qpn());
        request_rings.push(RingInfo {
            rkey: ctx.req_mr.rkey(),
            addr: ctx.req_mr.addr(),
            capacity: inner.cfg.ring_capacity,
        });
        inner.qpn_map.write().insert(ctx.qp.qpn().0, (conn_idx, i));
        qps.push(ctx);
    }

    let counters = {
        let mut sched = inner.qp_sched.lock();
        sched.register_sender_tenant(sender_id, n, req.tenant);
        sched.accounting().counters(req.tenant)
    };
    conns.push(Arc::new(ServerConn {
        sender_id,
        client_node: req.client_node,
        tenant: req.tenant,
        counters,
        send_cq,
        qps: RwLock::new(qps),
        mem_qps: Mutex::new(Vec::new()),
        departed: AtomicBool::new(false),
    }));
    // Seed the new connection's dispatcher round-robin; the QP scheduler
    // rebalances by active-QP weight as traffic develops.
    inner
        .dispatch_assign
        .write()
        .push(conn_idx % inner.cfg.dispatch_threads.max(1));
    // Publish the membership change while still holding the write lock:
    // a dispatcher that observes the new generation and re-reads `conns`
    // is guaranteed to see the pushed connection.
    inner.topo_gen.fetch_add(1, Ordering::Release);

    let memory_regions: Vec<MemRegionInfo> = inner
        .mem_mrs
        .read()
        .iter()
        .map(|mr| MemRegionInfo {
            rkey: mr.rkey(),
            addr: mr.addr(),
            len: mr.len(),
        })
        .collect();

    Ok(ConnectReply {
        server_node: inner.node.id(),
        server_qps: server_qpns,
        request_rings,
        memory_regions,
        initial_credits: inner.cfg.sched.grant_size,
        sender_id,
    })
}

/// Materialize one more lane on a live connection (the server half of
/// lazy QP creation): lease a QP, pair it with the client's, and grow
/// both the scheduler's view of the sender and the dispatch snapshot.
fn attach_one(inner: &Arc<ServerInner>, req: &AttachRequest) -> Result<AttachReply> {
    let conns = inner.conns.read();
    let (conn_idx, conn) = conns
        .iter()
        .enumerate()
        .find(|(_, c)| c.sender_id == req.sender_id && !c.departed.load(Ordering::Relaxed))
        .ok_or(FlockError::Disconnected)?;

    let ctx = build_server_lane(inner, &conn.send_cq, &req.client_qp, req.response_ring)?;
    let server_qp = ctx.qp.qpn();
    let request_ring = RingInfo {
        rkey: ctx.req_mr.rkey(),
        addr: ctx.req_mr.addr(),
        capacity: inner.cfg.ring_capacity,
    };

    let mut qps = conn.qps.write();
    if req.lane != qps.len() {
        // Lanes attach densely in order; a mismatch means the client and
        // server disagree about the connection's shape.
        inner.node.release_qp(&ctx.qp);
        inner.node.release_mr(&ctx.req_mr);
        inner.node.release_mr(&ctx.staging);
        return Err(FlockError::CorruptMessage("attach lane out of order"));
    }
    inner
        .qpn_map
        .write()
        .insert(server_qp.0, (conn_idx, req.lane));
    // Grow the sender in the scheduler; the lane starts active only if
    // the AQP budget has room (the next redistribution arbitrates).
    {
        let mut sched = inner.qp_sched.lock();
        sched.add_qp(req.sender_id);
        ctx.active.store(
            sched.is_active(SenderQp {
                sender: req.sender_id,
                qp: req.lane,
            }),
            Ordering::Relaxed,
        );
    }
    qps.push(ctx);
    // Publish while holding the lane write lock, mirroring `accept_one`.
    inner.topo_gen.fetch_add(1, Ordering::Release);

    Ok(AttachReply {
        server_qp,
        request_ring,
        initial_credits: inner.cfg.sched.grant_size,
    })
}

/// Pair a dedicated one-sided QP with a live connection (the client
/// half is a per-thread "mem QP", the FaRM/HERD-style baseline). The
/// server side is passive: the QP joins no dispatch shard and no
/// scheduler sender — it is raw per-client connection state, outside
/// every coordination mechanism Flock layers over the shared lanes.
fn attach_mem_one(inner: &Arc<ServerInner>, req: &AttachMemRequest) -> Result<AttachMemReply> {
    // Clone the connection out of the registry before touching its
    // mem_qps lock: never hold `conns` and `mem_qps` together (the
    // detach path orders them the other way around).
    let conn = {
        let conns = inner.conns.read();
        conns
            .iter()
            .find(|c| c.sender_id == req.sender_id && !c.departed.load(Ordering::Relaxed))
            .map(Arc::clone)
            .ok_or(FlockError::Disconnected)?
    };
    // Tiny CQ: nothing ever completes on the passive side (one-sided
    // verbs signal only the requester), but a QP needs one to exist.
    let cq = inner.node.create_cq(8);
    let qp = inner.node.lease_qp(Transport::Rc, &cq, &cq);
    if let Err(e) = flock_fabric::connect_qps(&req.client_qp, &qp) {
        inner.node.release_qp(&qp);
        return Err(e.into());
    }
    let server_qp = qp.qpn();
    conn.mem_qps.lock().push(qp);
    Ok(AttachMemReply { server_qp })
}

/// Gracefully tear down a sender: release its AQP share immediately,
/// tombstone the connection out of every dispatcher's next snapshot,
/// wait for all workers to acknowledge the new topology (quiescence —
/// no shard still holds the departing QPs), then recycle the QPs and
/// rings into the node's pools. Established connections only ever see
/// a republished generation, never a stalled dispatcher.
fn detach_one(inner: &Arc<ServerInner>, sender_id: u32) -> Result<()> {
    let conn = {
        let conns = inner.conns.read();
        let Some(conn) = conns.iter().find(|c| c.sender_id == sender_id) else {
            return Ok(()); // unknown or already detached: idempotent
        };
        if conn.departed.swap(true, Ordering::Relaxed) {
            return Ok(());
        }
        Arc::clone(conn)
    };
    // Tombstone published: the Release RMW on `topo_gen` orders the
    // `departed` store before any dispatcher's Acquire load of the new
    // generation.
    let target_gen = inner.topo_gen.fetch_add(1, Ordering::Release) + 1;

    // The departing sender's whole AQP share returns to the pool now —
    // survivors pick it up at the next redistribution.
    inner.qp_sched.lock().unregister_sender(sender_id);
    {
        let qps = conn.qps.read();
        let mut map = inner.qpn_map.write();
        for qp in qps.iter() {
            map.remove(&qp.qp.qpn().0);
        }
    }

    // Quiesce: every dispatcher must fold the tombstoned topology into
    // its snapshot before the QPs and rings can be recycled (a stale
    // shard would otherwise post into a ring another lessee now owns).
    let deadline = clock::deadline(inner.cfg.timeout);
    for ack in &inner.dispatch_acks {
        while ack.load(Ordering::Acquire) < target_gen {
            if inner.stop.load(Ordering::Relaxed) {
                return Err(FlockError::Disconnected);
            }
            if clock::expired(deadline) {
                return Err(FlockError::Timeout);
            }
            clock::sleep_ns(1_000);
        }
    }

    let drained: Vec<Arc<ServerQpCtx>> = std::mem::take(&mut *conn.qps.write());
    for ctx in drained {
        inner.node.release_qp(&ctx.qp);
        inner.node.release_mr(&ctx.req_mr);
        inner.node.release_mr(&ctx.staging);
    }
    // Dedicated one-sided QPs leave with the sender too (no quiescence
    // needed: no dispatcher ever touches them). Take the list in its
    // own statement so the mem_qps guard is dropped before the release
    // calls and the re-cut below.
    let mem_qps = std::mem::take(&mut *conn.mem_qps.lock());
    for qp in mem_qps {
        inner.node.release_qp(&qp);
    }
    // Re-cut the dispatcher partition without the departed connection.
    rebalance_dispatch(inner);
    Ok(())
}

/// Empty response slice with a concrete payload type, for head-only and
/// credit-control messages (the generic [`flush_response`] cannot infer
/// `B` from a bare `&[]`).
const NO_RESPONSES: &[(EntryMeta, &[u8])] = &[];

/// Sweep period on which dispatchers still probe *deactivated* QPs (see
/// [`ServerQpCtx::active`]): bounded drain latency for in-flight requests
/// without paying an empty ring probe per inactive QP per sweep.
const INACTIVE_POLL_PERIOD: u64 = 16;

/// A dispatcher's partition snapshot entry: connection slot, the
/// connection, and the lanes of it this worker owns, each with its true
/// lane index (the manual path's [`RpcToken`] names lanes by index).
type ConnShard = (usize, Arc<ServerConn>, Vec<(usize, Arc<ServerQpCtx>)>);

/// One request-dispatcher worker: sweeps the request rings of the lanes
/// assigned to it, visiting each with [`drain_lane`].
///
/// With `cfg.dispatch_threads == 1` a single worker owns every lane —
/// the seed's single-dispatcher behaviour. With more workers each owns
/// a disjoint set of lanes: every connection has a base worker, re-cut
/// by the QP scheduler as active-QP weights shift (`rebalance_dispatch`),
/// and its lanes stride across workers from that base ([`lane_worker`]).
fn dispatch_loop(inner: &Arc<ServerInner>, worker: usize) {
    // Generation-stamped partition snapshot: cloning the `Arc` vector on
    // every sweep made each idle poll O(conns) in refcount traffic; the
    // snapshot is refreshed only when `accept_one`, `attach_one`,
    // `detach_one` or the rebalancer publishes a new topology
    // generation. Each entry carries its owned lanes so the sweep never
    // touches `conn.qps`' lock.
    let workers = inner.cfg.dispatch_threads.max(1);
    let mut conns: Vec<ConnShard> = Vec::new();
    let mut conns_seen = u64::MAX;
    // Handler snapshot, same gen-stamped scheme: the seed took
    // `handlers.read()` per polled message, putting a shared rwlock on
    // the hottest path. `reg_handler` bumps `handlers_gen`; the sweep
    // clones the table only when that moves.
    let mut handlers: HashMap<u32, Handler> = HashMap::new();
    let mut handlers_seen = u64::MAX;
    // Response scratch, reused across visits (cleared, not freed).
    let mut responses: Vec<(EntryMeta, Vec<u8>)> = Vec::new();
    // Send-CQ drain scratch: batched poll, one sync edge per sweep.
    let mut drained: Vec<flock_fabric::Completion> = Vec::new();
    // Dispatchers are dedicated polling cores (paper §4.3): the wall
    // ladder may park up to 100 µs to spare a shared host, but in the
    // lab a deep ladder would charge burst-detection latency that grows
    // with dispatcher count (fewer conns each → deeper idle between
    // bursts), inverting the sharding win. 1 µs models a polling core.
    let mut idler =
        flock_sync::AdaptiveBackoff::new(Duration::from_micros(100)).with_virtual_cap(1_000);
    let mut sweep: u64 = 0;
    while !inner.stop.load(Ordering::Relaxed) {
        sweep = sweep.wrapping_add(1);
        let gen = inner.topo_gen.load(Ordering::Acquire);
        if gen != conns_seen {
            // Lock order: `conns` before `dispatch_assign` before
            // `conn.qps`, matching `accept_one` and
            // `rebalance_dispatch`.
            let all = inner.conns.read();
            let assign = inner.dispatch_assign.read();
            conns = all
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.departed.load(Ordering::Relaxed))
                .filter_map(|(idx, c)| {
                    let base = assign.get(idx).copied().unwrap_or(0);
                    let lanes = c.qps.read();
                    let owned: Vec<_> = lanes
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| lane_worker(base, *i, lanes.len(), workers) == worker)
                        .map(|(i, qp)| (i, Arc::clone(qp)))
                        .collect();
                    (!owned.is_empty()).then(|| (idx, Arc::clone(c), owned))
                })
                .collect();
            conns_seen = gen;
            // Quiescence ack: once this store is visible, no departed
            // QP is referenced by this worker's snapshot, so
            // `detach_one` may recycle the connection's resources.
            inner.dispatch_acks[worker].fetch_max(gen, Ordering::Release);
        }
        let hgen = inner.handlers_gen.load(Ordering::Acquire);
        if hgen != handlers_seen {
            handlers = inner.handlers.read().clone();
            handlers_seen = hgen;
        }
        let mut progressed = false;
        for &(conn_idx, ref conn, ref qps) in conns.iter() {
            // Drain signaled response-write completions for the whole
            // connection in one batched sweep (the send CQ is shared by
            // the connection's QPs, and by every worker owning one).
            drained.clear();
            conn.send_cq.poll(&mut drained, usize::MAX);
            for &(qp_idx, ref qp) in qps.iter() {
                // Deactivated QPs drain at a reduced probe rate.
                if !qp.active.load(Ordering::Relaxed) && !sweep.is_multiple_of(INACTIVE_POLL_PERIOD)
                {
                    continue;
                }
                progressed |=
                    drain_lane(inner, conn_idx, conn, qp_idx, qp, &handlers, &mut responses);
            }
        }
        if progressed {
            idler.reset();
            // Busy sweeps never reach `idle()`, so apply the accrued
            // virtual CPU cost here — otherwise a saturated dispatcher
            // would freeze virtual time for every other task.
            clock::flush_charge();
        } else {
            idler.idle();
        }
    }
}

/// One dispatcher visit to a lane (paper §4.3): poll every request
/// message already landed in its ring, run the handlers, and answer the
/// whole backlog with one coalesced response — one doorbell and one head
/// piggyback per visit instead of one per request message.
///
/// The drain is bounded by a quarter ring, the same bound the head-debt
/// deferral uses: a reply that would grow the batch past a quarter of the
/// response ring posts the batch first, and the visit ends after that
/// message, or once the consumed-but-unpublished request bytes reach a
/// quarter of the request ring. Every response message therefore fits
/// its ring with room to spare, the client's view of the request head
/// lags by at most a quarter ring plus one message, and one busy lane
/// cannot monopolize its dispatcher. `conn_idx`/`qp_idx` locate the lane
/// for the manual path's [`RpcToken`]. Returns whether the visit consumed
/// anything.
fn drain_lane(
    inner: &ServerInner,
    conn_idx: usize,
    conn: &ServerConn,
    qp_idx: usize,
    qp: &ServerQpCtx,
    handlers: &HashMap<u32, Handler>,
    responses: &mut Vec<(EntryMeta, Vec<u8>)>,
) -> bool {
    let head_quarter = (inner.cfg.ring_capacity as u64) / 4;
    let batch_bound = inner.cfg.ring_capacity.min(qp.resp_remote.capacity) / 4;
    let empty_batch = msg::encoded_size(std::iter::empty());
    let mut batch = empty_batch;
    let mut progressed = false;
    responses.clear();
    loop {
        let polled = { qp.req_cons.lock().poll(&qp.req_mr) };
        let m = match polled {
            Ok(Some(m)) => m,
            Ok(None) => {
                clock::charge(inner.cost.cpu_poll_empty_ns);
                break;
            }
            Err(_) => {
                // Corrupt request ring: drop the message stream.
                progressed = true;
                break;
            }
        };
        progressed = true;
        clock::charge(inner.cost.cpu_ring_poll_ns);
        let view = m.view();
        qp.client_resp_head
            .fetch_max(view.header.head, Ordering::AcqRel);
        inner.stats.messages.fetch_add(1, Ordering::Relaxed);
        // Per-tenant accounting: lock-free Relaxed bumps on the shared
        // counter block (never through the scheduler mutex), issued
        // before any of these requests can complete below.
        conn.counters.note_issued(u64::from(view.header.count));
        let mut full = false;
        for (meta, range) in view.entry_ranges() {
            inner.stats.requests.fetch_add(1, Ordering::Relaxed);
            if let Some(h) = handlers.get(&meta.rpc_id) {
                clock::charge(inner.cost.cpu_codec_ns + inner.cost.app_handler_ns);
                // The handler's output Vec is the one per-request
                // allocation the server keeps: the `Handler` signature
                // owns its result.
                let out = h(&m.bytes()[range]);
                let grow = msg::META_SIZE + out.len();
                if !responses.is_empty() && batch + grow > batch_bound {
                    flush_responses(inner, conn, qp, responses);
                    batch = empty_batch;
                    full = true;
                }
                batch += grow;
                responses.push((
                    EntryMeta {
                        len: out.len() as u32,
                        thread_id: meta.thread_id,
                        seq: meta.seq,
                        rpc_id: 0,
                    },
                    out,
                ));
            } else {
                clock::charge(inner.cost.cpu_codec_ns);
                let _ = inner.manual_tx.send(IncomingRpc {
                    rpc_id: meta.rpc_id,
                    // Zero-copy slice of the shared request-message
                    // buffer.
                    data: m.bytes().slice(range),
                    token: RpcToken {
                        conn: conn_idx,
                        qp: qp_idx,
                        meta,
                    },
                });
            }
        }
        if full || qp.head_debt() >= head_quarter {
            break;
        }
    }
    if !responses.is_empty() {
        flush_responses(inner, conn, qp, responses);
    } else if progressed {
        // Manual-path-only visit: nothing to send now, but the consumed
        // head must still reach the client eventually. A head-only write
        // per visit is redundant while the client still sees plenty of
        // free ring, so defer until its view lags by a quarter ring (head
        // debt). Every data-carrying flush republishes the head too, and
        // the drain above stops once the debt reaches the threshold, so
        // the client's stale view is bounded at cap/4 plus one message
        // and never wedges the producer.
        if qp.head_debt() >= head_quarter {
            let _ = flush_response(inner, qp, NO_RESPONSES, 0, 0);
        } else {
            inner
                .stats
                .head_flushes_skipped
                .fetch_add(1, Ordering::Relaxed);
        }
    }
    progressed
}

/// Post a visit's handler replies as one coalesced response message
/// (paper §4.3) and leave the batch empty.
fn flush_responses(
    inner: &ServerInner,
    conn: &ServerConn,
    qp: &ServerQpCtx,
    responses: &mut Vec<(EntryMeta, Vec<u8>)>,
) {
    if flush_response(inner, qp, responses, 0, 0).is_ok() {
        conn.counters.note_completed(responses.len() as u64);
    }
    responses.clear();
}

/// Encode and post one coalesced response message on `qp`.
///
/// Generic over the payload type so handler outputs (`Vec<u8>`), manual
/// responses (`&[u8]`), and head-only messages all encode without an
/// intermediate copy into an owned buffer.
fn flush_response<B: AsRef<[u8]>>(
    inner: &ServerInner,
    qp: &ServerQpCtx,
    responses: &[(EntryMeta, B)],
    extra_flags: u16,
    aux: u64,
) -> Result<()> {
    let need = msg::encoded_size(responses.iter().map(|(_, d)| d.as_ref().len()));
    let canary = qp.next_canary();
    let consumed_head = { qp.req_cons.lock().head() };
    let header = MsgHeader {
        total_len: 0,
        count: 0,
        flags: extra_flags,
        canary,
        head: consumed_head,
        aux,
    };

    let deadline = clock::deadline(inner.cfg.timeout);
    let reservation = loop {
        let mut prod = qp.resp_prod.lock();
        prod.update_head(qp.client_resp_head.load(Ordering::Acquire));
        match prod.reserve(need) {
            Ok(r) => break r,
            Err(FlockError::RingFull { .. }) => {
                drop(prod);
                if inner.stop.load(Ordering::Relaxed) {
                    return Err(FlockError::Disconnected);
                }
                if clock::expired(deadline) {
                    return Err(FlockError::Timeout);
                }
                clock::yield_now();
            }
            Err(e) => return Err(e),
        }
    };

    if let Some((woff, wlen)) = reservation.wrap {
        // Write the wrap record directly into the staging ring; the old
        // `wrap_record` helper allocated a scratch Vec per ring wrap.
        qp.staging.with_write(|buf| {
            RingProducer::write_wrap_record(&mut buf[woff..woff + wlen], canary);
        });
        qp.qp.post_send(
            SendWr::write(
                WrId(0),
                Sge {
                    lkey: qp.staging.lkey(),
                    addr: qp.staging.addr() + woff as u64,
                    len: wlen,
                },
                RemoteAddr {
                    rkey: qp.resp_remote.rkey,
                    addr: qp.resp_remote.addr + woff as u64,
                },
            )
            .unsignaled(),
        )?;
    }

    // `encode_iter` walks the responses twice (size, then write) instead
    // of materialising a `Vec<EntryRef>` per flush.
    qp.staging.with_write(|buf| {
        msg::encode_iter(
            &mut buf[reservation.offset..reservation.offset + need],
            &header,
            responses.iter().map(|(meta, data)| EntryRef {
                meta: *meta,
                data: data.as_ref(),
            }),
        )
        .map(|_| ())
    })?;

    let nwrite = qp.write_count.fetch_add(1, Ordering::Relaxed);
    let mut wr = SendWr::write(
        WrId(u64::MAX),
        Sge {
            lkey: qp.staging.lkey(),
            addr: qp.staging.addr() + reservation.offset as u64,
            len: need,
        },
        RemoteAddr {
            rkey: qp.resp_remote.rkey,
            addr: qp.resp_remote.addr + reservation.offset as u64,
        },
    );
    if !nwrite.is_multiple_of(SIGNAL_EVERY) {
        wr = wr.unsignaled();
    }
    qp.qp.post_send(wr)?;
    let stats = &inner.stats;
    if !responses.is_empty() {
        stats.response_messages.fetch_add(1, Ordering::Relaxed);
        stats
            .peak_response_bytes
            .fetch_max(need as u64, Ordering::Relaxed);
    }
    // Every response message piggybacks the consumed head; remember the
    // last one published so dispatchers can elide redundant head-only
    // writes (`fetch_max`: concurrent flushers never move it backwards).
    let published = qp
        .last_flushed_head
        .fetch_max(consumed_head, Ordering::Relaxed);
    stats
        .peak_head_debt
        .fetch_max(consumed_head.saturating_sub(published), Ordering::Relaxed);
    // Host cost of staging the message and ringing the doorbell.
    clock::charge(inner.cost.cpu_doorbell_ns + inner.cost.memcpy_time(need).as_nanos());
    Ok(())
}

/// QP scheduler loop: polls the shared receive CQ for credit-renewal
/// immediates, grants or declines, and periodically redistributes active
/// QPs (paper §5.1, §7) — re-cutting the dispatcher partition to match.
fn qp_sched_loop(inner: &Arc<ServerInner>) {
    let sched_interval_ns = inner.cfg.sched_interval.as_nanos().min(u64::MAX as u128) as u64;
    let mut last_redistribution = clock::now_ns();
    // Batched immediate sweep: one sync edge per sweep instead of one
    // `poll_one` per credit request.
    let mut imms: Vec<flock_fabric::Completion> = Vec::new();
    // The park cap matches the seed's fixed 200 µs sleep, but the ladder
    // reaches it only after spinning and yielding through idle rounds —
    // a credit request arriving at a busy server is now picked up in
    // microseconds instead of a fixed 200 µs snooze. Under virtual time
    // the cap is 1 µs like the dispatch loop's: the model is a dedicated
    // polling core, and a 200 µs virtual nap would turn every credit
    // renewal that lands in it into a hundreds-of-µs client stall.
    let mut idler = flock_sync::AdaptiveBackoff::new(Duration::from_micros(200))
        .with_virtual_cap(1_000);
    while !inner.stop.load(Ordering::Relaxed) {
        let mut progressed = false;
        imms.clear();
        inner.imm_cq.poll(&mut imms, 1024);
        for c in imms.drain(..) {
            progressed = true;
            clock::charge(inner.cost.cpu_poll_cqe_ns);
            if c.opcode != CqOpcode::RecvImm {
                continue;
            }
            let Some(imm) = c.imm else { continue };
            let lookup = { inner.qpn_map.read().get(&c.qpn.0).copied() };
            let Some((conn_idx, qp_idx)) = lookup else {
                continue;
            };
            // Clone the lane context out of the locks: `flush_response`
            // below can spin in virtual time on a full ring, and holding
            // `conns` across that would stall connect/teardown.
            let looked_up = {
                let conns = inner.conns.read();
                conns.get(conn_idx).and_then(|conn| {
                    if conn.departed.load(Ordering::Relaxed) {
                        return None;
                    }
                    let qps = conn.qps.read();
                    qps.get(qp_idx).map(|q| (conn.sender_id, Arc::clone(q)))
                })
            };
            let Some((sender_id, qp)) = looked_up else {
                continue;
            };
            let qp = &qp;
            // Re-post the consumed receive slot.
            clock::charge(inner.cost.cpu_post_recv_ns);
            let _ = qp.qp.post_recv(RecvWr {
                wr_id: WrId(0),
                local: Sge {
                    lkey: qp.req_mr.lkey(),
                    addr: qp.req_mr.addr(),
                    len: 0,
                },
            });
            let median_degree = (imm & 0xFFFF) as u16;
            let decision = inner.qp_sched.lock().on_credit_request(
                SenderQp {
                    sender: sender_id,
                    qp: qp_idx,
                },
                median_degree,
            );
            let (granted, flag) = match decision {
                Some(credits) => {
                    inner.stats.grants.fetch_add(1, Ordering::Relaxed);
                    (credits, FLAG_CREDIT_GRANT)
                }
                None => {
                    inner.stats.declines.fetch_add(1, Ordering::Relaxed);
                    (0, FLAG_CREDIT_GRANT)
                }
            };
            let _ = flush_response(inner, qp, NO_RESPONSES, flag, msg::pack_aux(granted, 0));
        }

        if clock::now_ns().saturating_sub(last_redistribution) >= sched_interval_ns {
            last_redistribution = clock::now_ns();
            let changes = inner.qp_sched.lock().redistribute();
            if !changes.is_empty() {
                for (sq, now_active) in changes {
                    // Clone the lane out of the locks (same rationale as
                    // the credit path above).
                    let looked_up = {
                        let conns = inner.conns.read();
                        conns
                            .iter()
                            .find(|c| {
                                c.sender_id == sq.sender && !c.departed.load(Ordering::Relaxed)
                            })
                            .and_then(|conn| conn.qps.read().get(sq.qp).cloned())
                    };
                    let Some(qp) = looked_up else {
                        continue;
                    };
                    // Mirror the scheduler's decision for the dispatchers'
                    // inactive-QP poll throttle.
                    qp.active.store(now_active, Ordering::Relaxed);
                    // Proactively notify the client: reactivation carries a
                    // fresh grant, deactivation a zero grant.
                    let credits = if now_active {
                        inner.cfg.sched.grant_size
                    } else {
                        0
                    };
                    let _ = flush_response(
                        inner,
                        &qp,
                        NO_RESPONSES,
                        FLAG_CREDIT_GRANT,
                        msg::pack_aux(credits, 0),
                    );
                }
                // Active-QP weights just shifted: re-cut the dispatcher
                // partition so handler capacity follows the traffic.
                rebalance_dispatch(inner);
            }
        }
        if progressed {
            idler.reset();
            clock::flush_charge();
        } else {
            idler.idle();
        }
    }
}

/// Re-cut the connection → base-worker map using active-QP weights from
/// the scheduler: heaviest connections first, each placed on the
/// least-loaded worker (greedy LPT binning); each connection's lanes
/// then stride from its base ([`lane_worker`]). No-op with a single
/// worker. Publishes a new topology generation only when the assignment
/// actually changes.
fn rebalance_dispatch(inner: &ServerInner) {
    let workers = inner.cfg.dispatch_threads.max(1);
    if workers == 1 {
        return;
    }
    let conns = inner.conns.read();
    // Weight = active QPs, floored at 1 so idle connections keep an
    // owner (lock order: `conns` before `qp_sched`, as everywhere).
    let sched = inner.qp_sched.lock();
    let weights: Vec<usize> = conns
        .iter()
        .map(|c| {
            // Departed connections are invisible to dispatch snapshots;
            // give them zero weight so survivors split the capacity.
            if c.departed.load(Ordering::Relaxed) {
                return 0;
            }
            sched
                .active_map(c.sender_id)
                .map(|m| m.iter().filter(|a| **a).count())
                .unwrap_or(0)
                .max(1)
        })
        .collect();
    drop(sched);
    let new_assign = lpt_partition(&weights, workers);
    let mut assign = inner.dispatch_assign.write();
    if *assign != new_assign {
        *assign = new_assign;
        // Publish under the write lock, mirroring `accept_one`: a
        // dispatcher that observes the new generation and re-reads the
        // assignment sees a consistent partition.
        inner.topo_gen.fetch_add(1, Ordering::Release);
    }
}

/// Dispatcher worker of lane `lane` of a connection with `lanes` lanes
/// whose base worker is `base`: `(base + ⌊lane·workers/lanes⌋) mod
/// workers`. Lane 0 always runs on the base, so single-lane connections
/// keep the connection-granular partition; with `lanes ≤ workers` the
/// lanes land on distinct workers. `workers` is clamped to at least 1.
pub fn lane_worker(base: usize, lane: usize, lanes: usize, workers: usize) -> usize {
    let workers = workers.max(1);
    (base + lane * workers / lanes.max(1)) % workers
}

/// Greedy LPT binning: place each item, heaviest first (ties broken by
/// lower index), on the currently least-loaded worker. Returns the
/// item → worker assignment. `workers` is clamped to at least 1, so the
/// result is total even when callers ask for zero workers or have more
/// workers than items.
///
/// Classic LPT bound: the max worker load is within `max(weights)` of
/// the min worker load, because the last item placed on the heaviest
/// worker went there when it was the lightest.
pub fn lpt_partition(weights: &[usize], workers: usize) -> Vec<usize> {
    let workers = workers.max(1);
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| weights[b].cmp(&weights[a]).then(a.cmp(&b)));
    let mut load = vec![0usize; workers];
    let mut assign = vec![0usize; weights.len()];
    for idx in order {
        let target = (0..workers).min_by_key(|&t| load[t]).unwrap_or(0);
        load[target] += weights[idx];
        assign[idx] = target;
    }
    assign
}
