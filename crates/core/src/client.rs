//! The client side of Flock: the connection handle (paper §3), the
//! leader's send path over the TCQ (§4.2), the response dispatcher (§4.3),
//! sender-side thread scheduling (§5.2), and one-sided memory operations
//! (§6).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{bounded, Sender};
use flock_fabric::{
    Access, CompletionQueue, CostModel, CqOpcode, MemoryRegion, Node, NodeId, Qp, RemoteAddr,
    SendWr, Sge, Transport, WrId,
};
use flock_sync::clock::{self, TaskHandle};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::credit::{CreditState, MedianWindow};
use crate::domain::{
    await_reply, AttachMemRequest, AttachRequest, ConnectRequest, CtrlMsg, DetachRequest,
    ExportRequest, FlockDomain, MemRegionInfo, RingInfo, SegmentLease,
};
use crate::error::{FlockError, Result};
use crate::msg::{self, EntryMeta, EntryRef, MsgHeader, FLAG_CREDIT_GRANT};
use crate::ring::{RingConsumer, RingLayout, RingProducer};
use crate::sched::thread::{assign_threads, ThreadLoadStats};
use crate::tcq::{Outcome, Tcq};

/// Per-thread scratch slot size for one-sided operation payloads/results.
pub const MEM_SCRATCH: usize = 4096;
/// Maximum registered threads per connection handle.
pub const MAX_THREADS: usize = 256;
/// Signal every Nth request write (selective signaling, paper §7).
const SIGNAL_EVERY: u64 = 64;

/// Client-side configuration for a connection handle.
#[derive(Debug, Clone)]
pub struct HandleConfig {
    /// Number of RC QPs multiplexed under this handle.
    pub n_qps: usize,
    /// Ring buffer capacity per QP (bytes).
    pub ring_capacity: usize,
    /// TCQ batch bound (coalesced requests per message).
    pub batch_limit: usize,
    /// Disable coalescing (ablation: every request is its own message).
    pub coalescing: bool,
    /// Sender-side thread scheduling interval.
    pub sched_interval: Duration,
    /// Run the sender-side thread scheduler (ablation switch).
    pub auto_thread_sched: bool,
    /// Default timeout for blocking waits.
    pub timeout: Duration,
    /// Materialize all `n_qps` lanes during `fl_connect` instead of
    /// lazily on first use. Connection setup is control-plane bound
    /// (QP creation + MR registration, Swift in PAPERS.md), so the
    /// default gets to the first RPC after a single control QP and
    /// attaches the remaining data lanes as threads land on them.
    pub eager_qps: bool,
    /// Threads the one-sided scratch region is sized for (its MR is
    /// `mem_threads * MEM_SCRATCH` bytes, registered at connect — the
    /// dominant MR-registration cost of the handle). Lower it for
    /// connection-churn workloads that never issue one-sided ops.
    pub mem_threads: usize,
    /// Tenant this handle connects on behalf of (gateway topology;
    /// [`crate::sched::DEFAULT_TENANT`] = 0 for single-tenant use). The
    /// server groups senders by tenant for AQP share caps and
    /// per-tenant accounting.
    pub tenant: u32,
    /// Give every registered thread a dedicated RC QP for its one-sided
    /// operations (the conventional FaRM/HERD design) instead of riding
    /// the shared RPC lanes' doorbells. This is the faithful one-sided
    /// baseline for the crossover experiments: per-thread QPs multiply
    /// per-client NIC connection state with fan-in — the state Flock's
    /// QP sharing amortizes away — so the responder's connection cache
    /// starts missing once total readers exceed its reach. Default off:
    /// Flock proper coalesces memory ops onto the shared lanes.
    pub dedicated_mem_qps: bool,
}

impl Default for HandleConfig {
    fn default() -> Self {
        HandleConfig {
            n_qps: 4,
            ring_capacity: 1 << 16,
            batch_limit: 16,
            coalescing: true,
            sched_interval: Duration::from_millis(10),
            auto_thread_sched: true,
            timeout: Duration::from_secs(10),
            eager_qps: false,
            mem_threads: MAX_THREADS,
            tenant: crate::sched::DEFAULT_TENANT,
            dedicated_mem_qps: false,
        }
    }
}

/// A request item travelling through the TCQ.
pub(crate) enum ClientReq {
    /// An RPC request: metadata plus payload. The payload is a shared
    /// [`Bytes`] so handing it from the submitting thread to the leader
    /// (and retrying/re-batching) never copies the bytes — the only copy
    /// on the send path is the encode into the staging ring.
    Rpc(EntryMeta, Bytes),
    /// A pre-built one-sided work request.
    Mem(SendWr),
}

/// Per-QP client context.
pub(crate) struct ClientQpCtx {
    index: usize,
    qp: Arc<flock_fabric::Qp>,
    tcq: Tcq<ClientReq>,
    req_prod: Mutex<RingProducer>,
    req_remote: RingInfo,
    staging: Arc<MemoryRegion>,
    /// Consumed head of the *server's request ring*, piggybacked on
    /// responses; read by the leader before reserving.
    server_head: AtomicU64,
    resp_mr: Arc<MemoryRegion>,
    resp_cons: Mutex<RingConsumer>,
    /// Consumed head of our response ring (piggybacked on requests).
    resp_head_shared: AtomicU64,
    credits: Mutex<CreditState>,
    credit_cond: Condvar,
    degree: Mutex<MedianWindow>,
    active: AtomicBool,
    canary_seq: AtomicU64,
    write_count: AtomicU64,
    messages_sent: AtomicU64,
    requests_sent: AtomicU64,
}

impl ClientQpCtx {
    fn next_canary(&self) -> u64 {
        // Nonzero, unique per message on this QP.
        0x5EED_0000_0000_0001 + self.canary_seq.fetch_add(1, Ordering::Relaxed)
    }
}

/// Number of scratch sub-slots per thread (concurrent one-sided ops).
pub const MEM_SUBSLOTS: usize = 8;
/// Bytes per scratch sub-slot.
pub const MEM_SUBSLOT_SIZE: usize = MEM_SCRATCH / MEM_SUBSLOTS;

/// Bookkeeping for one pending one-sided operation.
struct MemPending {
    /// Sub-slot bitmask held by the operation.
    mask: u8,
    /// Absolute offset of the result bytes in the handle's scratch MR.
    scratch_off: usize,
    /// Bytes to copy out on success.
    result_len: usize,
    /// Deferred completion: the dispatcher publishes only a marker and
    /// leaves the payload in scratch until the issuing thread copies it
    /// out with [`FlThread::take_deferred`] — the one-sided fast path
    /// stays allocation-free this way.
    defer: bool,
}

/// A point-in-time snapshot of one QP lane's counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QpMetrics {
    /// Coalesced messages sent on the lane.
    pub messages: u64,
    /// Individual requests sent on the lane.
    pub requests: u64,
    /// Credits currently available.
    pub credits: u32,
    /// Whether the server's scheduler keeps the lane active.
    pub active: bool,
}

/// A point-in-time snapshot of a connection handle's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct HandleMetrics {
    /// Total coalesced messages sent.
    pub messages: u64,
    /// Total requests sent.
    pub requests: u64,
    /// Mean coalescing degree (requests per message; 0 before traffic).
    pub degree: f64,
    /// Lanes currently active.
    pub active_qps: usize,
    /// Registered application threads.
    pub threads: usize,
    /// Per-lane breakdown.
    pub per_qp: Vec<QpMetrics>,
}

/// A handle to an in-flight one-sided operation (coroutine-style
/// pipelining, paper §8.5.2). Obtain via [`FlThread::read_async`],
/// [`FlThread::write_async`], or [`FlThread::read_batch`]; poll with
/// [`FlThread::try_mem`], block with [`FlThread::wait_mem`], or — for
/// deferred batch reads — copy out with [`FlThread::take_deferred`].
#[derive(Debug, Clone, Copy)]
pub struct MemToken {
    wr_id: u64,
    /// Scratch sub-slots held until the result is consumed (deferred
    /// reads free them in `take_deferred`, everything else in the
    /// dispatcher).
    mask: u8,
    /// Absolute scratch offset of the landing zone.
    scratch_off: usize,
    /// Bytes the operation reads back.
    len: usize,
}

/// Per-application-thread context.
pub(crate) struct ThreadCtx {
    id: u32,
    next_seq: AtomicU64,
    outstanding: AtomicU64,
    current_qp: AtomicUsize,
    target_qp: AtomicUsize,
    inbox: Mutex<HashMap<u64, Bytes>>,
    inbox_cond: Condvar,
    // Stats for Algorithm 1 (since last scheduling interval).
    req_sizes: Mutex<MedianWindow>,
    bytes: AtomicU64,
    reqs: AtomicU64,
    // In-flight one-sided operations (up to MEM_SUBSLOTS concurrently).
    mem_pending: Mutex<HashMap<u64, MemPending>>,
    mem_results: Mutex<HashMap<u64, std::result::Result<Vec<u8>, &'static str>>>,
    mem_cond: Condvar,
    /// Bitmap of free scratch sub-slots.
    mem_free: Mutex<u8>,
    /// This thread's dedicated one-sided QP
    /// ([`HandleConfig::dedicated_mem_qps`]); empty when memory ops
    /// coalesce onto the shared lanes (the default), or when the
    /// mem-QP attach failed and the thread fell back to them.
    mem_qp: OnceLock<Arc<Qp>>,
}

/// Shared state behind a [`ConnectionHandle`].
pub(crate) struct HandleInner {
    node: Arc<Node>,
    #[allow(dead_code)]
    server_node: NodeId,
    sender_id: u32,
    cfg: HandleConfig,
    /// Control channel to the server (attach/detach after connect).
    ctrl: Sender<CtrlMsg>,
    /// QP lanes, a dense prefix of which is materialized: slot `i` is set
    /// iff `i < lane_count`. Slots are write-once, so the send path reads
    /// a lane with no lock at all.
    lanes: Vec<OnceLock<Arc<ClientQpCtx>>>,
    /// Materialized-lane count. Stored with `Release` *after* the slot is
    /// set; readers `Acquire` it before touching `lanes[..count]`.
    lane_count: AtomicUsize,
    /// Single-flight guard for lane attach (a `Mutex` would be held
    /// across the control-plane round trip, which virtual-time tasks must
    /// never do — losers spin through the clock seam instead).
    attach_busy: AtomicBool,
    threads: RwLock<Vec<Arc<ThreadCtx>>>,
    /// Registered-thread count mirror of `threads.len()` (lock-free read
    /// on the send hot path, see [`HandleInner::boarding_window`]).
    thread_count: AtomicUsize,
    mem_regions: Vec<MemRegionInfo>,
    mem_mr: Arc<MemoryRegion>,
    mem_wr_seq: AtomicU64,
    /// Send CQ shared by the dedicated mem QPs (when
    /// [`HandleConfig::dedicated_mem_qps`] is set): one poll point for
    /// the dispatcher regardless of how many threads attached a QP.
    mem_cq: Option<Arc<CompletionQueue>>,
    /// Fabric cost model: charges virtual CPU time for host-side work
    /// (doorbells, memcpys, polling) under a virtual-time executor;
    /// charges are no-ops in threaded mode.
    cost: CostModel,
    stop: AtomicBool,
    /// Resources returned to the node's QP pool / MR cache (graceful
    /// close); guards against double release.
    released: AtomicBool,
}

impl HandleInner {
    /// The materialized lane at `idx` (must be `< lane_count`).
    fn lane(&self, idx: usize) -> &Arc<ClientQpCtx> {
        self.lanes[idx].get().expect("lane not materialized")
    }

    /// Iterate the materialized lanes (the dense prefix).
    fn lanes_live(&self) -> impl Iterator<Item = &Arc<ClientQpCtx>> {
        let n = self.lane_count.load(Ordering::Acquire);
        self.lanes[..n]
            .iter()
            .map(|slot| slot.get().expect("dense lane prefix"))
    }

    /// TCQ boarding window (see [`crate::tcq::Tcq::join_with`]): a leader
    /// yields once before collecting its batch so that concurrently
    /// sending threads land in *this* batch. On real hardware the
    /// combining window exists for free (doorbell + DMA latency); in the
    /// simulator the flush is pure CPU work, so without this the window
    /// is a few nanoseconds and coalescing would depend on preemption
    /// luck. Gated off for single-threaded handles and when coalescing
    /// is disabled, where the yield would be pure overhead.
    fn boarding_window(&self) {
        if self.cfg.coalescing
            && self.cfg.batch_limit > 1
            && self.thread_count.load(Ordering::Relaxed) > 1
        {
            // Under a virtual executor the yield hands the core to peer
            // client tasks at the same virtual instant — the combining
            // window the doorbell+DMA latency provides on hardware.
            clock::yield_now();
        }
    }
}

/// A Flock connection to one remote node (`fl_connect`, paper Table 2).
///
/// The handle owns a set of RC QPs, their rings, TCQs and credit state,
/// plus the response-dispatcher and thread-scheduler threads. Application
/// threads register via [`ConnectionHandle::register_thread`] and interact
/// through the returned [`FlThread`].
pub struct ConnectionHandle {
    inner: Arc<HandleInner>,
    dispatcher: Option<TaskHandle>,
    scheduler: Option<TaskHandle>,
}

/// A per-application-thread handle (cheap to clone is intentionally *not*
/// provided: one `FlThread` per OS thread).
pub struct FlThread {
    ctx: Arc<ThreadCtx>,
    inner: Arc<HandleInner>,
}

impl ConnectionHandle {
    /// Establish a connection to the server listening as `server_name`
    /// (the `fl_connect` API).
    pub fn connect(
        domain: &FlockDomain,
        node: &Arc<Node>,
        server_name: &str,
        cfg: HandleConfig,
    ) -> Result<ConnectionHandle> {
        assert!(cfg.n_qps >= 1);
        assert!(cfg.mem_threads >= 1 && cfg.mem_threads <= MAX_THREADS);
        let ctrl = domain.control(server_name)?;

        // Lease QPs and response rings for the eagerly-created lanes: all
        // of them in eager mode, only lane 0 (the control QP) otherwise.
        let init_lanes = if cfg.eager_qps { cfg.n_qps } else { 1 };
        let mut client_qps = Vec::with_capacity(init_lanes);
        let mut resp_mrs = Vec::with_capacity(init_lanes);
        let mut response_rings = Vec::with_capacity(init_lanes);
        for _ in 0..init_lanes {
            let cq = node.create_cq(256);
            let qp = node.lease_qp(Transport::Rc, &cq, &cq);
            let resp_mr = node.acquire_mr(cfg.ring_capacity, Access::REMOTE_WRITE);
            response_rings.push(RingInfo {
                rkey: resp_mr.rkey(),
                addr: resp_mr.addr(),
                capacity: cfg.ring_capacity,
            });
            resp_mrs.push(resp_mr);
            client_qps.push(qp);
        }

        let (reply_tx, _unused) = bounded(1);
        let reply = domain.dial(
            server_name,
            ConnectRequest {
                client_node: node.id(),
                client_qps: client_qps.clone(),
                response_rings,
                tenant: cfg.tenant,
                reply: reply_tx,
            },
        )?;

        let mut lanes: Vec<OnceLock<Arc<ClientQpCtx>>> = Vec::with_capacity(cfg.n_qps);
        lanes.resize_with(cfg.n_qps, OnceLock::new);
        for (i, (qp, resp_mr)) in client_qps.into_iter().zip(resp_mrs).enumerate() {
            let ctx = build_lane_ctx(
                node,
                &cfg,
                i,
                qp,
                resp_mr,
                reply.request_rings[i],
                reply.initial_credits,
            );
            lanes[i].set(ctx).ok().expect("fresh lane slot");
        }

        let mem_mr = node.acquire_mr(cfg.mem_threads * MEM_SCRATCH, Access::LOCAL);
        let inner = Arc::new(HandleInner {
            node: Arc::clone(node),
            server_node: reply.server_node,
            sender_id: reply.sender_id,
            cfg: cfg.clone(),
            ctrl,
            lanes,
            lane_count: AtomicUsize::new(init_lanes),
            attach_busy: AtomicBool::new(false),
            threads: RwLock::new(Vec::new()),
            thread_count: AtomicUsize::new(0),
            mem_regions: reply.memory_regions,
            mem_mr,
            mem_wr_seq: AtomicU64::new(1),
            mem_cq: cfg.dedicated_mem_qps.then(|| node.create_cq(1024)),
            cost: domain.fabric().config().cost.clone(),
            stop: AtomicBool::new(false),
            released: AtomicBool::new(false),
        });

        let dispatcher = {
            let inner = Arc::clone(&inner);
            clock::spawn("fl-resp-dispatch", move || dispatcher_loop(&inner))
        };
        let scheduler = if cfg.auto_thread_sched {
            let inner = Arc::clone(&inner);
            Some(clock::spawn("fl-thread-sched", move || {
                scheduler_loop(&inner)
            }))
        } else {
            None
        };

        Ok(ConnectionHandle {
            inner,
            dispatcher: Some(dispatcher),
            scheduler,
        })
    }

    /// The sender id the server assigned to this connection.
    pub fn sender_id(&self) -> u32 {
        self.inner.sender_id
    }

    /// Memory regions the server advertised for one-sided operations.
    pub fn memory_regions(&self) -> &[MemRegionInfo] {
        &self.inner.mem_regions
    }

    /// Fetch the server's exported one-sided segment leases
    /// ([`CtrlMsg::Export`]), optionally filtered by exact name.
    ///
    /// One control-plane round trip; the returned leases are
    /// self-contained (slot `i` of a segment lives at
    /// `region.addr + i * stride` under `region.rkey`), so every
    /// subsequent read is a pure one-sided verb with no further
    /// control traffic.
    pub fn fetch_exports(&self, filter: Option<&str>) -> Result<Vec<SegmentLease>> {
        if self.inner.stop.load(Ordering::Relaxed) {
            return Err(FlockError::Disconnected);
        }
        let (reply_tx, reply_rx) = bounded(1);
        self.inner
            .ctrl
            .send(CtrlMsg::Export(ExportRequest {
                filter: filter.map(str::to_string),
                reply: reply_tx,
            }))
            .map_err(|_| FlockError::Disconnected)?;
        await_reply(&reply_rx).map(|r| r.segments)
    }

    /// Register the calling application thread; returns its `FlThread`.
    ///
    /// First use of a not-yet-materialized QP lane happens here: the
    /// thread's round-robin lane (`id % n_qps`) is attached through the
    /// control channel on demand (lazy QP creation — `fl_connect` paid
    /// for one control QP only). If the attach fails, the thread falls
    /// back onto an existing lane instead of failing registration.
    pub fn register_thread(&self) -> FlThread {
        let ctx = {
            let mut threads = self.inner.threads.write();
            let id = threads.len() as u32;
            assert!((id as usize) < MAX_THREADS, "too many registered threads");
            assert!(
                (id as usize) < self.inner.cfg.mem_threads,
                "more threads than cfg.mem_threads scratch slots"
            );
            let ctx = Arc::new(ThreadCtx {
                id,
                next_seq: AtomicU64::new(1),
                outstanding: AtomicU64::new(0),
                current_qp: AtomicUsize::new(0),
                target_qp: AtomicUsize::new(0),
                inbox: Mutex::new(HashMap::new()),
                inbox_cond: Condvar::new(),
                req_sizes: Mutex::new(MedianWindow::new(64)),
                bytes: AtomicU64::new(0),
                reqs: AtomicU64::new(0),
                mem_pending: Mutex::new(HashMap::new()),
                mem_results: Mutex::new(HashMap::new()),
                mem_cond: Condvar::new(),
                mem_free: Mutex::new(0xFF),
                mem_qp: OnceLock::new(),
            });
            threads.push(Arc::clone(&ctx));
            self.inner
                .thread_count
                .store(threads.len(), Ordering::Relaxed);
            ctx
        };
        // Outside the `threads` lock: the attach blocks on a control-plane
        // round trip, and the dispatcher reads `threads` on its hot path.
        let wanted = ctx.id as usize % self.inner.cfg.n_qps;
        let lane = match ensure_lanes(&self.inner, wanted) {
            Ok(()) => wanted,
            Err(_) => ctx.id as usize % self.inner.lane_count.load(Ordering::Acquire).max(1),
        };
        ctx.current_qp.store(lane, Ordering::Relaxed);
        ctx.target_qp.store(lane, Ordering::Relaxed);
        // Dedicated mem QP, best-effort like the lane attach above: a
        // thread that cannot get one falls back to the shared-lane TCQ
        // path for its one-sided ops.
        if self.inner.cfg.dedicated_mem_qps {
            if let Ok(qp) = attach_mem_qp(&self.inner) {
                assert!(ctx.mem_qp.set(qp).is_ok(), "fresh thread ctx");
            }
        }
        FlThread {
            ctx,
            inner: Arc::clone(&self.inner),
        }
    }

    /// Number of QPs currently marked active by the server's scheduler
    /// (unmaterialized lanes are not active — they do not exist yet).
    pub fn active_qps(&self) -> usize {
        self.inner
            .lanes_live()
            .filter(|q| q.active.load(Ordering::Relaxed))
            .count()
    }

    /// Number of lanes actually materialized so far (≤ `cfg.n_qps`).
    pub fn materialized_qps(&self) -> usize {
        self.inner.lane_count.load(Ordering::Acquire)
    }

    /// Mean coalescing degree observed across this handle's QPs.
    pub fn mean_coalescing_degree(&self) -> f64 {
        let (reqs, msgs) = self.inner.lanes_live().fold((0u64, 0u64), |(r, m), q| {
            (
                r + q.requests_sent.load(Ordering::Relaxed),
                m + q.messages_sent.load(Ordering::Relaxed),
            )
        });
        if msgs == 0 {
            0.0
        } else {
            reqs as f64 / msgs as f64
        }
    }

    /// Snapshot the handle's counters (observability; cheap, lock-light).
    /// `per_qp` always has `cfg.n_qps` entries; lanes not yet
    /// materialized report zeros and `active: false`.
    pub fn metrics(&self) -> HandleMetrics {
        let mut per_qp: Vec<QpMetrics> = self
            .inner
            .lanes_live()
            .map(|q| QpMetrics {
                messages: q.messages_sent.load(Ordering::Relaxed),
                requests: q.requests_sent.load(Ordering::Relaxed),
                credits: q.credits.lock().credits(),
                active: q.active.load(Ordering::Relaxed),
            })
            .collect();
        per_qp.resize(
            self.inner.cfg.n_qps,
            QpMetrics {
                messages: 0,
                requests: 0,
                credits: 0,
                active: false,
            },
        );
        let messages: u64 = per_qp.iter().map(|q| q.messages).sum();
        let requests: u64 = per_qp.iter().map(|q| q.requests).sum();
        HandleMetrics {
            messages,
            requests,
            degree: if messages == 0 {
                0.0
            } else {
                requests as f64 / messages as f64
            },
            active_qps: per_qp.iter().filter(|q| q.active).count(),
            threads: self.inner.threads.read().len(),
            per_qp,
        }
    }

    /// Shut down the handle's background threads.
    pub fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        for qp in self.inner.lanes_live() {
            qp.credit_cond.notify_all();
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
    }

    /// Gracefully close the connection (`fl_disconnect`).
    ///
    /// Tells the server to quiesce this sender — its QPs leave the
    /// dispatch shards and its AQP share returns to the scheduler —
    /// waits for the acknowledgement, stops the handle's background
    /// tasks, and returns every leased QP and cached MR to the node's
    /// pools. The caller should have drained outstanding requests; any
    /// still in flight are dropped by the QP epoch guard.
    pub fn close(&mut self) -> Result<()> {
        // Graceful detach first, while the dispatcher still runs (the
        // server replies only after its shards stopped touching us).
        let detach = if self.inner.stop.load(Ordering::Relaxed) {
            Err(FlockError::Disconnected)
        } else {
            let (reply_tx, reply_rx) = bounded(1);
            self.inner
                .ctrl
                .send(CtrlMsg::Detach(DetachRequest {
                    sender_id: self.inner.sender_id,
                    reply: reply_tx,
                }))
                .map_err(|_| FlockError::Disconnected)
                .and_then(|()| await_reply(&reply_rx))
        };
        self.shutdown();
        // Recycle: QPs back to the node's pool (reset, not destroyed),
        // rings and scratch back to the MR cache. Guarded so a second
        // `close` cannot double-insert into the pool.
        if !self.inner.released.swap(true, Ordering::AcqRel) {
            for lane in self.inner.lanes_live() {
                self.inner.node.release_qp(&lane.qp);
                self.inner.node.release_mr(&lane.resp_mr);
                self.inner.node.release_mr(&lane.staging);
            }
            for t in self.inner.threads.read().iter() {
                if let Some(qp) = t.mem_qp.get() {
                    self.inner.node.release_qp(qp);
                }
            }
            self.inner.node.release_mr(&self.inner.mem_mr);
        }
        detach
    }
}

impl Drop for ConnectionHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl FlThread {
    /// This thread's id within the handle.
    pub fn id(&self) -> u32 {
        self.ctx.id
    }

    /// The QP this thread currently sends on.
    pub fn current_qp(&self) -> usize {
        self.ctx.current_qp.load(Ordering::Relaxed)
    }

    /// Send an RPC request (`fl_send_rpc`); returns the sequence number to
    /// pass to [`FlThread::recv_res`].
    ///
    /// Copies `payload` once into a shared buffer. Callers that reuse the
    /// same payload (or already hold one as [`Bytes`]) should use
    /// [`FlThread::send_rpc_bytes`], which is copy-free.
    pub fn send_rpc(&self, rpc_id: u32, payload: &[u8]) -> Result<u64> {
        self.send_rpc_bytes(rpc_id, Bytes::copy_from_slice(payload))
    }

    /// Send an RPC request whose payload is already a shared buffer:
    /// the bytes are never copied until the leader encodes them into the
    /// staging ring (cloning `Bytes` is a refcount bump, so resending the
    /// same payload allocates nothing).
    pub fn send_rpc_bytes(&self, rpc_id: u32, payload: Bytes) -> Result<u64> {
        let inner = &self.inner;
        if inner.stop.load(Ordering::Relaxed) {
            return Err(FlockError::Disconnected);
        }
        let qp_idx = self.migrate_if_idle();
        let qp = inner.lane(qp_idx);
        let seq = self.ctx.next_seq.fetch_add(1, Ordering::Relaxed);
        self.ctx.outstanding.fetch_add(1, Ordering::Relaxed);
        self.ctx.req_sizes.lock().record(payload.len() as u32);
        self.ctx
            .bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.ctx.reqs.fetch_add(1, Ordering::Relaxed);

        let meta = EntryMeta {
            len: payload.len() as u32,
            thread_id: self.ctx.id,
            seq,
            rpc_id,
        };
        // TCQ enqueue: one uncontended atomic RMW of host CPU.
        clock::charge(inner.cost.cpu_sync_ns);
        match qp
            .tcq
            .join_with(ClientReq::Rpc(meta, payload), || inner.boarding_window())
        {
            Outcome::Lead(batch) => leader_flush(inner, qp, batch)?,
            Outcome::Sent => {}
        }
        Ok(seq)
    }

    /// Wait for the response to sequence `seq` (`fl_recv_res`).
    ///
    /// The returned [`Bytes`] is a zero-copy slice of the coalesced
    /// response message; it keeps that message's buffer alive until
    /// dropped.
    pub fn recv_res(&self, seq: u64) -> Result<Bytes> {
        let deadline = clock::deadline(self.inner.cfg.timeout);
        let mut inbox = self.ctx.inbox.lock();
        loop {
            if let Some(data) = inbox.remove(&seq) {
                self.ctx.outstanding.fetch_sub(1, Ordering::Relaxed);
                return Ok(data);
            }
            if self.inner.stop.load(Ordering::Relaxed) {
                return Err(FlockError::Disconnected);
            }
            if clock::wait_until(&self.ctx.inbox_cond, &mut inbox, deadline, 500) {
                return Err(FlockError::Timeout);
            }
        }
    }

    /// Non-blocking check for the response to `seq` (coroutine-style
    /// pipelining, paper §8.5.2: a thread runs many concurrent
    /// transactions and polls instead of blocking).
    pub fn try_recv_res(&self, seq: u64) -> Option<Bytes> {
        let data = self.ctx.inbox.lock().remove(&seq)?;
        self.ctx.outstanding.fetch_sub(1, Ordering::Relaxed);
        Some(data)
    }

    /// Convenience: send and wait.
    pub fn call(&self, rpc_id: u32, payload: &[u8]) -> Result<Bytes> {
        let seq = self.send_rpc(rpc_id, payload)?;
        self.recv_res(seq)
    }

    /// Convenience: send a shared-buffer payload and wait (copy-free send
    /// path; see [`FlThread::send_rpc_bytes`]).
    pub fn call_bytes(&self, rpc_id: u32, payload: Bytes) -> Result<Bytes> {
        let seq = self.send_rpc_bytes(rpc_id, payload)?;
        self.recv_res(seq)
    }

    /// One-sided read (`fl_read`) from advertised region `mem_idx`.
    pub fn read(&self, mem_idx: usize, offset: u64, len: usize) -> Result<Vec<u8>> {
        let region = self.mem_region(mem_idx)?;
        if len > MEM_SCRATCH {
            return Err(FlockError::MessageTooLarge {
                need: len,
                capacity: MEM_SCRATCH,
            });
        }
        let scratch = self.scratch_off();
        let wr = SendWr::read(
            WrId(0), // assigned in submit_mem
            Sge {
                lkey: self.inner.mem_mr.lkey(),
                addr: self.inner.mem_mr.addr() + scratch as u64,
                len,
            },
            RemoteAddr {
                rkey: region.rkey,
                addr: region.addr + offset,
            },
        );
        self.submit_mem(wr, scratch, len)
    }

    /// One-sided write (`fl_write`) into advertised region `mem_idx`.
    pub fn write(&self, mem_idx: usize, offset: u64, data: &[u8]) -> Result<()> {
        let region = self.mem_region(mem_idx)?;
        if data.len() > MEM_SCRATCH {
            return Err(FlockError::MessageTooLarge {
                need: data.len(),
                capacity: MEM_SCRATCH,
            });
        }
        let scratch = self.scratch_off();
        self.inner.mem_mr.write(scratch, data)?;
        let wr = SendWr::write(
            WrId(0),
            Sge {
                lkey: self.inner.mem_mr.lkey(),
                addr: self.inner.mem_mr.addr() + scratch as u64,
                len: data.len(),
            },
            RemoteAddr {
                rkey: region.rkey,
                addr: region.addr + offset,
            },
        );
        self.submit_mem(wr, scratch, 0).map(|_| ())
    }

    /// One-sided fetch-and-add (`fl_fetch_and_add`); returns the old value.
    pub fn fetch_add(&self, mem_idx: usize, offset: u64, delta: u64) -> Result<u64> {
        let region = self.mem_region(mem_idx)?;
        let scratch = self.scratch_off();
        let wr = SendWr::fetch_add(
            WrId(0),
            Sge {
                lkey: self.inner.mem_mr.lkey(),
                addr: self.inner.mem_mr.addr() + scratch as u64,
                len: 8,
            },
            RemoteAddr {
                rkey: region.rkey,
                addr: region.addr + offset,
            },
            delta,
        );
        let old = self.submit_mem(wr, scratch, 8)?;
        Ok(u64::from_le_bytes(old[..8].try_into().expect("8 bytes")))
    }

    /// One-sided compare-and-swap (`fl_cmp_and_swap`); returns the old
    /// value (the swap happened iff it equals `expect`).
    pub fn cmp_swap(&self, mem_idx: usize, offset: u64, expect: u64, swap: u64) -> Result<u64> {
        let region = self.mem_region(mem_idx)?;
        let scratch = self.scratch_off();
        let wr = SendWr::cmp_swap(
            WrId(0),
            Sge {
                lkey: self.inner.mem_mr.lkey(),
                addr: self.inner.mem_mr.addr() + scratch as u64,
                len: 8,
            },
            RemoteAddr {
                rkey: region.rkey,
                addr: region.addr + offset,
            },
            expect,
            swap,
        );
        let old = self.submit_mem(wr, scratch, 8)?;
        Ok(u64::from_le_bytes(old[..8].try_into().expect("8 bytes")))
    }

    fn mem_region(&self, idx: usize) -> Result<MemRegionInfo> {
        self.inner
            .mem_regions
            .get(idx)
            .copied()
            .ok_or(FlockError::RemoteOpFailed("unknown memory region index"))
    }

    fn scratch_off(&self) -> usize {
        self.ctx.id as usize * MEM_SCRATCH
    }

    /// Acquire scratch sub-slots covering `len` bytes. Returns the slot
    /// bitmask and the byte offset within the thread's scratch region, or
    /// `None` if the space is not currently free.
    fn try_acquire_scratch(&self, len: usize) -> Option<(u8, usize)> {
        let mut free = self.ctx.mem_free.lock();
        if len <= MEM_SUBSLOT_SIZE {
            for i in 0..MEM_SUBSLOTS {
                let bit = 1u8 << i;
                if *free & bit != 0 {
                    *free &= !bit;
                    return Some((bit, i * MEM_SUBSLOT_SIZE));
                }
            }
            None
        } else {
            // Large ops take the whole scratch region exclusively.
            if *free == 0xFF {
                *free = 0;
                Some((0xFF, 0))
            } else {
                None
            }
        }
    }

    fn acquire_scratch_blocking(&self, len: usize) -> Result<(u8, usize)> {
        let deadline = clock::deadline(self.inner.cfg.timeout);
        loop {
            if let Some(got) = self.try_acquire_scratch(len) {
                return Ok(got);
            }
            if self.inner.stop.load(Ordering::Relaxed) {
                return Err(FlockError::Disconnected);
            }
            if clock::expired(deadline) {
                return Err(FlockError::Timeout);
            }
            clock::yield_now();
        }
    }

    /// Submit a one-sided op through the TCQ without waiting. The `wr`'s
    /// local SGE must point at `scratch_off` within the thread's scratch.
    fn start_mem(
        &self,
        mut wr: SendWr,
        mask: u8,
        scratch_off: usize,
        result_len: usize,
    ) -> Result<MemToken> {
        let wr_seq = self.inner.mem_wr_seq.fetch_add(1, Ordering::Relaxed);
        let wr_id = ((self.ctx.id as u64) << 32) | (wr_seq & 0xFFFF_FFFF);
        wr.wr_id = WrId(wr_id);
        self.ctx.mem_pending.lock().insert(
            wr_id,
            MemPending {
                mask,
                scratch_off,
                result_len,
                defer: false,
            },
        );
        if let Some(mqp) = self.ctx.mem_qp.get() {
            // Dedicated mem QP: the conventional one-sided design pays a
            // verb and a doorbell per op — a per-thread QP has no
            // combining partner.
            if let Err(e) = mqp.post_send(wr) {
                self.ctx.mem_pending.lock().remove(&wr_id);
                *self.ctx.mem_free.lock() |= mask;
                return Err(e.into());
            }
            clock::charge(self.inner.cost.cpu_doorbell_ns);
        } else {
            // Memory ops also coalesce through Flock synchronization (§6):
            // the leader links the batch's work requests into one doorbell.
            let qp_idx = self.migrate_if_idle();
            let qp = self.inner.lane(qp_idx);
            match qp
                .tcq
                .join_with(ClientReq::Mem(wr), || self.inner.boarding_window())
            {
                Outcome::Lead(batch) => leader_flush(&self.inner, qp, batch)?,
                Outcome::Sent => {}
            }
        }
        Ok(MemToken {
            wr_id,
            mask,
            scratch_off,
            len: result_len,
        })
    }

    /// Non-blocking poll of an in-flight one-sided op.
    pub fn try_mem(&self, token: MemToken) -> Option<Result<Vec<u8>>> {
        let r = self.ctx.mem_results.lock().remove(&token.wr_id)?;
        Some(r.map_err(FlockError::RemoteOpFailed))
    }

    /// Block until an in-flight one-sided op completes.
    pub fn wait_mem(&self, token: MemToken) -> Result<Vec<u8>> {
        let deadline = clock::deadline(self.inner.cfg.timeout);
        let mut results = self.ctx.mem_results.lock();
        loop {
            if let Some(r) = results.remove(&token.wr_id) {
                return r.map_err(FlockError::RemoteOpFailed);
            }
            if self.inner.stop.load(Ordering::Relaxed) {
                return Err(FlockError::Disconnected);
            }
            if clock::wait_until(&self.ctx.mem_cond, &mut results, deadline, 500) {
                // Abandon: free the scratch when the completion arrives.
                return Err(FlockError::Timeout);
            }
        }
    }

    /// Start a non-blocking one-sided read of up to one sub-slot
    /// ([`MEM_SUBSLOT_SIZE`] bytes); poll with [`FlThread::try_mem`].
    pub fn read_async(&self, mem_idx: usize, offset: u64, len: usize) -> Result<MemToken> {
        let region = self.mem_region(mem_idx)?;
        if len > MEM_SUBSLOT_SIZE {
            return Err(FlockError::MessageTooLarge {
                need: len,
                capacity: MEM_SUBSLOT_SIZE,
            });
        }
        let (mask, off) = self.acquire_scratch_blocking(len)?;
        let scratch = self.scratch_off() + off;
        let wr = SendWr::read(
            WrId(0),
            Sge {
                lkey: self.inner.mem_mr.lkey(),
                addr: self.inner.mem_mr.addr() + scratch as u64,
                len,
            },
            RemoteAddr {
                rkey: region.rkey,
                addr: region.addr + offset,
            },
        );
        self.start_mem(wr, mask, scratch, len)
    }

    /// Start a non-blocking one-sided write of up to one sub-slot.
    pub fn write_async(&self, mem_idx: usize, offset: u64, data: &[u8]) -> Result<MemToken> {
        let region = self.mem_region(mem_idx)?;
        if data.len() > MEM_SUBSLOT_SIZE {
            return Err(FlockError::MessageTooLarge {
                need: data.len(),
                capacity: MEM_SUBSLOT_SIZE,
            });
        }
        let (mask, off) = self.acquire_scratch_blocking(data.len())?;
        let scratch = self.scratch_off() + off;
        self.inner.mem_mr.write(scratch, data)?;
        let wr = SendWr::write(
            WrId(0),
            Sge {
                lkey: self.inner.mem_mr.lkey(),
                addr: self.inner.mem_mr.addr() + scratch as u64,
                len: data.len(),
            },
            RemoteAddr {
                rkey: region.rkey,
                addr: region.addr + offset,
            },
        );
        self.start_mem(wr, mask, scratch, 0)
    }

    /// Issue up to [`MEM_SUBSLOTS`] one-sided READs against raw
    /// [`RemoteAddr`]es as one doorbell-batched chain.
    ///
    /// This is the one-sided fast path: the caller is its own combining
    /// leader, so the work requests bypass the TCQ and go straight to
    /// the lane's QP with `post_send_many` — N verbs, one doorbell
    /// (exactly what `flush_parts` does for TCQ-coalesced memory ops).
    /// Each read lands in its own scratch sub-slot and **stays there**:
    /// the dispatcher publishes only a completion marker, and the bytes
    /// are copied out by [`FlThread::take_deferred`] into a
    /// caller-provided buffer. With a reused `tokens` vector the whole
    /// issue/validate loop allocates nothing in steady state.
    ///
    /// Each read must fit one sub-slot ([`MEM_SUBSLOT_SIZE`] bytes).
    pub fn read_batch(
        &self,
        reads: &[(RemoteAddr, usize)],
        tokens: &mut Vec<MemToken>,
    ) -> Result<()> {
        let n = reads.len();
        if n == 0 {
            return Ok(());
        }
        if n > MEM_SUBSLOTS {
            return Err(FlockError::RemoteOpFailed(
                "read batch exceeds scratch sub-slots",
            ));
        }
        let mut masks = [0u8; MEM_SUBSLOTS];
        let mut offs = [0usize; MEM_SUBSLOTS];
        for (i, &(_, len)) in reads.iter().enumerate() {
            let got = if len > MEM_SUBSLOT_SIZE {
                Err(FlockError::MessageTooLarge {
                    need: len,
                    capacity: MEM_SUBSLOT_SIZE,
                })
            } else {
                self.acquire_scratch_blocking(len)
            };
            match got {
                Ok((m, o)) => {
                    masks[i] = m;
                    offs[i] = o;
                }
                Err(e) => {
                    let mut free = self.ctx.mem_free.lock();
                    for &m in &masks[..i] {
                        *free |= m;
                    }
                    return Err(e);
                }
            }
        }
        // Dedicated mem QP when configured; otherwise the thread's shared
        // RPC lane, whose doorbell the chain shares with coalesced traffic.
        let lane;
        let post_qp: &Arc<Qp> = match self.ctx.mem_qp.get() {
            Some(q) => q,
            None => {
                lane = self.inner.lane(self.migrate_if_idle());
                &lane.qp
            }
        };
        let base_seq = self.inner.mem_wr_seq.fetch_add(n as u64, Ordering::Relaxed);
        // Fixed-size WR chain on the stack; indices past `n` duplicate
        // the last real read and are never posted.
        let wrs: [SendWr; MEM_SUBSLOTS] = std::array::from_fn(|i| {
            let j = i.min(n - 1);
            let wr_id = ((self.ctx.id as u64) << 32) | ((base_seq + j as u64) & 0xFFFF_FFFF);
            let scratch = self.scratch_off() + offs[j];
            SendWr::read(
                WrId(wr_id),
                Sge {
                    lkey: self.inner.mem_mr.lkey(),
                    addr: self.inner.mem_mr.addr() + scratch as u64,
                    len: reads[j].1,
                },
                reads[j].0,
            )
        });
        {
            let mut pending = self.ctx.mem_pending.lock();
            for i in 0..n {
                pending.insert(
                    wrs[i].wr_id.0,
                    MemPending {
                        mask: masks[i],
                        scratch_off: self.scratch_off() + offs[i],
                        result_len: reads[i].1,
                        defer: true,
                    },
                );
            }
        }
        if let Err(e) = post_qp.post_send_many(&wrs[..n]) {
            let mut pending = self.ctx.mem_pending.lock();
            for wr in &wrs[..n] {
                pending.remove(&wr.wr_id.0);
            }
            drop(pending);
            let mut free = self.ctx.mem_free.lock();
            for &m in &masks[..n] {
                *free |= m;
            }
            return Err(e.into());
        }
        clock::charge(self.inner.cost.cpu_doorbell_ns);
        for (i, wr) in wrs[..n].iter().enumerate() {
            tokens.push(MemToken {
                wr_id: wr.wr_id.0,
                mask: masks[i],
                scratch_off: self.scratch_off() + offs[i],
                len: reads[i].1,
            });
        }
        Ok(())
    }

    /// Copy a deferred read's bytes out of the scratch MR into `out`
    /// (no allocation) and release its sub-slot. Blocks until the
    /// completion arrives; returns the number of bytes copied.
    pub fn take_deferred(&self, token: MemToken, out: &mut [u8]) -> Result<usize> {
        match self.wait_marker(token)? {
            Ok(()) => {
                let n = token.len.min(out.len());
                let copied = self.inner.mem_mr.read(token.scratch_off, &mut out[..n]);
                *self.ctx.mem_free.lock() |= token.mask;
                copied.map_err(|_| FlockError::RemoteOpFailed("scratch read failed"))?;
                Ok(n)
            }
            Err(e) => {
                *self.ctx.mem_free.lock() |= token.mask;
                Err(FlockError::RemoteOpFailed(e))
            }
        }
    }

    /// Block until a deferred op's completion marker is published.
    /// Outer `Err` is a local failure (timeout/disconnect); the inner
    /// result is the remote completion status.
    fn wait_marker(&self, token: MemToken) -> Result<std::result::Result<(), &'static str>> {
        let deadline = clock::deadline(self.inner.cfg.timeout);
        let mut results = self.ctx.mem_results.lock();
        loop {
            if let Some(r) = results.remove(&token.wr_id) {
                return Ok(r.map(|_| ()));
            }
            if self.inner.stop.load(Ordering::Relaxed) {
                return Err(FlockError::Disconnected);
            }
            if clock::wait_until(&self.ctx.mem_cond, &mut results, deadline, 500) {
                drop(results);
                return self.abandon_deferred(token);
            }
        }
    }

    /// Deadline hit on a deferred op: downgrade its pending entry so
    /// the late completion releases the scratch itself — unless the
    /// completion landed between the last poll and now, in which case
    /// consume it as a success.
    fn abandon_deferred(&self, token: MemToken) -> Result<std::result::Result<(), &'static str>> {
        let mut pending = self.ctx.mem_pending.lock();
        if let Some(p) = pending.get_mut(&token.wr_id) {
            p.defer = false;
            p.result_len = 0;
            return Err(FlockError::Timeout);
        }
        drop(pending);
        match self.ctx.mem_results.lock().remove(&token.wr_id) {
            Some(r) => Ok(r.map(|_| ())),
            None => Err(FlockError::Timeout),
        }
    }

    /// Submit a one-sided op through the TCQ and wait for its completion.
    fn submit_mem(&self, wr: SendWr, _scratch_off: usize, result_len: usize) -> Result<Vec<u8>> {
        // `wr` was built against the start of the thread's scratch region;
        // blocking ops take the whole region so the layout is unchanged.
        let len = wr.op.byte_len();
        let (mask, off) = self.acquire_scratch_blocking(len.max(MEM_SCRATCH - 1))?;
        debug_assert_eq!((mask, off), (0xFF, 0));
        let token = self.start_mem(wr, mask, self.scratch_off(), result_len)?;
        self.wait_mem(token)
    }

    /// Adopt the scheduler's target QP if no requests are outstanding
    /// (migration safety, §5.2).
    fn migrate_if_idle(&self) -> usize {
        let current = self.ctx.current_qp.load(Ordering::Relaxed);
        let target = self.ctx.target_qp.load(Ordering::Relaxed);
        if target != current && self.ctx.outstanding.load(Ordering::Relaxed) == 0 {
            self.ctx.current_qp.store(target, Ordering::Relaxed);
            return target;
        }
        current
    }
}

/// Build one lane's client-side context around a leased QP and its
/// cached-MR rings.
fn build_lane_ctx(
    node: &Arc<Node>,
    cfg: &HandleConfig,
    index: usize,
    qp: Arc<Qp>,
    resp_mr: Arc<MemoryRegion>,
    req_remote: RingInfo,
    initial_credits: u32,
) -> Arc<ClientQpCtx> {
    let batch_limit = if cfg.coalescing { cfg.batch_limit } else { 1 };
    // Staging mirrors the server's request ring, whose capacity the
    // request producer lays messages out in — not our response ring's.
    let staging = node.acquire_mr(req_remote.capacity, Access::LOCAL);
    Arc::new(ClientQpCtx {
        index,
        qp,
        tcq: Tcq::new(batch_limit),
        req_prod: Mutex::new(RingProducer::new(RingLayout::new(0, req_remote.capacity))),
        req_remote,
        staging,
        server_head: AtomicU64::new(0),
        resp_mr,
        resp_cons: Mutex::new(RingConsumer::new(RingLayout::new(0, cfg.ring_capacity))),
        resp_head_shared: AtomicU64::new(0),
        credits: Mutex::new(CreditState::new(initial_credits)),
        credit_cond: Condvar::new(),
        degree: Mutex::new(MedianWindow::new(64)),
        active: AtomicBool::new(true),
        canary_seq: AtomicU64::new(0),
        write_count: AtomicU64::new(0),
        messages_sent: AtomicU64::new(0),
        requests_sent: AtomicU64::new(0),
    })
}

/// Materialize lanes up to and including `want_idx` (clamped to
/// `n_qps - 1`). Lanes attach densely in index order; concurrent callers
/// single-flight through `attach_busy`, spinning via the clock seam
/// rather than holding a lock across the control-plane round trip.
fn ensure_lanes(inner: &Arc<HandleInner>, want_idx: usize) -> Result<()> {
    let want = (want_idx + 1).min(inner.cfg.n_qps);
    loop {
        if inner.lane_count.load(Ordering::Acquire) >= want {
            return Ok(());
        }
        if inner.stop.load(Ordering::Relaxed) {
            return Err(FlockError::Disconnected);
        }
        if inner
            .attach_busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            let mut result = Ok(());
            while inner.lane_count.load(Ordering::Relaxed) < want {
                result = attach_one_lane(inner);
                if result.is_err() {
                    break;
                }
            }
            inner.attach_busy.store(false, Ordering::Release);
            return result;
        }
        clock::yield_now();
    }
}

/// Attach the next lane: lease a QP and a cached response ring locally,
/// round-trip the control channel, and publish the materialized lane.
/// Caller holds the `attach_busy` single-flight flag.
fn attach_one_lane(inner: &Arc<HandleInner>) -> Result<()> {
    let idx = inner.lane_count.load(Ordering::Relaxed);
    let cq = inner.node.create_cq(256);
    let qp = inner.node.lease_qp(Transport::Rc, &cq, &cq);
    let resp_mr = inner.node.acquire_mr(inner.cfg.ring_capacity, Access::REMOTE_WRITE);
    let (reply_tx, reply_rx) = bounded(1);
    let sent = inner
        .ctrl
        .send(CtrlMsg::Attach(AttachRequest {
            sender_id: inner.sender_id,
            lane: idx,
            client_qp: Arc::clone(&qp),
            response_ring: RingInfo {
                rkey: resp_mr.rkey(),
                addr: resp_mr.addr(),
                capacity: inner.cfg.ring_capacity,
            },
            reply: reply_tx,
        }))
        .map_err(|_| FlockError::Disconnected)
        .and_then(|()| await_reply(&reply_rx));
    let reply = match sent {
        Ok(r) => r,
        Err(e) => {
            // The lane never went live: recycle its resources.
            inner.node.release_qp(&qp);
            inner.node.release_mr(&resp_mr);
            return Err(e);
        }
    };
    let ctx = build_lane_ctx(
        &inner.node,
        &inner.cfg,
        idx,
        qp,
        resp_mr,
        reply.request_ring,
        reply.initial_credits,
    );
    inner.lanes[idx].set(ctx).ok().expect("attach single-flight");
    inner.lane_count.store(idx + 1, Ordering::Release);
    Ok(())
}

/// Lease a dedicated per-thread one-sided QP and pair it with the
/// server (`CtrlMsg::AttachMem`): one control-plane round trip per
/// registered thread. All mem QPs share the handle's `mem_cq`, so the
/// dispatcher gains one poll point, not one per thread.
fn attach_mem_qp(inner: &Arc<HandleInner>) -> Result<Arc<Qp>> {
    let cq = inner.mem_cq.as_ref().expect("mem CQ exists when dedicated_mem_qps");
    let qp = inner.node.lease_qp(Transport::Rc, cq, cq);
    let (reply_tx, reply_rx) = bounded(1);
    let sent = inner
        .ctrl
        .send(CtrlMsg::AttachMem(AttachMemRequest {
            sender_id: inner.sender_id,
            client_qp: Arc::clone(&qp),
            reply: reply_tx,
        }))
        .map_err(|_| FlockError::Disconnected)
        .and_then(|()| await_reply(&reply_rx));
    match sent {
        Ok(_reply) => Ok(qp),
        Err(e) => {
            inner.node.release_qp(&qp);
            Err(e)
        }
    }
}

/// Leader-side flush scratch, reused across batches by each thread: any
/// thread can transiently become a leader, and recycling these buffers
/// (plus the TCQ's pooled batch scratch) keeps the steady-state flush
/// allocation-free.
#[derive(Default)]
struct FlushScratch {
    rpcs: Vec<(EntryMeta, Bytes)>,
    mem_wrs: Vec<SendWr>,
}

thread_local! {
    static FLUSH_SCRATCH: RefCell<FlushScratch> = RefCell::new(FlushScratch::default());
}

/// The leader's flush: partition the batch, post one-sided work requests,
/// encode the coalesced RPC message, manage credits and ring space, and
/// issue the RDMA write(s) (paper §4.2, Figure 5).
fn leader_flush(
    inner: &HandleInner,
    qp: &ClientQpCtx,
    mut batch: crate::tcq::Batch<ClientReq>,
) -> Result<()> {
    let result = FLUSH_SCRATCH
        .try_with(|cell| flush_batch(inner, qp, &mut batch, &mut cell.borrow_mut()))
        // TLS destructor already ran (thread teardown): fall back to
        // fresh buffers rather than abandoning the batch.
        .unwrap_or_else(|_| flush_batch(inner, qp, &mut batch, &mut FlushScratch::default()));
    // Always release followers, even on error: stranding them would
    // deadlock unrelated threads. Their requests time out instead.
    qp.tcq.complete(batch);
    result
}

fn flush_batch(
    inner: &HandleInner,
    qp: &ClientQpCtx,
    batch: &mut crate::tcq::Batch<ClientReq>,
    scratch: &mut FlushScratch,
) -> Result<()> {
    scratch.rpcs.clear();
    scratch.mem_wrs.clear();
    // Drain in place: the batch keeps its (pooled) buffers for
    // `Tcq::complete` to recycle, and the payload `Bytes` move without
    // copying.
    for item in batch.drain_items() {
        match item {
            ClientReq::Rpc(meta, data) => scratch.rpcs.push((meta, data)),
            ClientReq::Mem(wr) => scratch.mem_wrs.push(wr),
        }
    }
    let result = flush_parts(inner, qp, &scratch.rpcs, &scratch.mem_wrs);
    // Drop payload refcounts promptly (the encode into staging is done);
    // the buffers themselves are retained for the next batch.
    scratch.rpcs.clear();
    scratch.mem_wrs.clear();
    result
}

fn flush_parts(
    inner: &HandleInner,
    qp: &ClientQpCtx,
    rpcs: &[(EntryMeta, Bytes)],
    mem_wrs: &[SendWr],
) -> Result<()> {
    // One-sided ops are linked into a single chain and posted with one
    // doorbell by the leader (paper §6).
    if !mem_wrs.is_empty() {
        qp.qp.post_send_many(mem_wrs)?;
        clock::charge(inner.cost.cpu_doorbell_ns);
    }
    if rpcs.is_empty() {
        return Ok(());
    }
    let degree = rpcs.len() as u32;
    qp.degree.lock().record(degree);

    wait_for_credits(inner, qp, degree)?;

    let need = msg::encoded_size(rpcs.iter().map(|(_, d)| d.len()));
    let canary = qp.next_canary();
    let header = MsgHeader {
        total_len: 0,
        count: 0,
        flags: 0,
        canary,
        head: qp.resp_head_shared.load(Ordering::Acquire),
        aux: 0,
    };

    // Reserve ring space, refreshing the cached server head while full.
    let deadline = clock::deadline(inner.cfg.timeout);
    let reservation = loop {
        let mut prod = qp.req_prod.lock();
        prod.update_head(qp.server_head.load(Ordering::Acquire));
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

    // Stage and post the wrap record first, if needed (written directly
    // into the staging mirror: no temporary buffer).
    if let Some((woff, wlen)) = reservation.wrap {
        qp.staging
            .with_write(|buf| RingProducer::write_wrap_record(&mut buf[woff..woff + wlen], canary));
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

    // Encode the coalesced message into the staging mirror, straight from
    // the scratch pairs (no intermediate `Vec<EntryRef>`).
    qp.staging.with_write(|buf| {
        msg::encode_iter(
            &mut buf[reservation.offset..reservation.offset + need],
            &header,
            rpcs.iter()
                .map(|(meta, data)| EntryRef { meta: *meta, data }),
        )
        .map(|_| ())
    })?;

    // One RDMA write, one doorbell for the whole batch. Selective
    // signaling: only every Nth write generates a completion.
    let n = qp.write_count.fetch_add(1, Ordering::Relaxed);
    let mut wr = SendWr::write(
        WrId(u64::MAX), // distinguishes plain ring writes in the CQ
        Sge {
            lkey: qp.staging.lkey(),
            addr: qp.staging.addr() + reservation.offset as u64,
            len: need,
        },
        RemoteAddr {
            rkey: qp.req_remote.rkey,
            addr: qp.req_remote.addr + reservation.offset as u64,
        },
    );
    if !n.is_multiple_of(SIGNAL_EVERY) {
        wr = wr.unsignaled();
    }
    qp.qp.post_send(wr)?;
    // Leader's host cost: encode each entry, stage the message, ring the
    // doorbell — amortized over the whole batch (the coalescing win).
    clock::charge(
        inner.cost.cpu_doorbell_ns
            + inner.cost.memcpy_time(need).as_nanos()
            + inner.cost.cpu_codec_ns * degree as u64,
    );
    qp.messages_sent.fetch_add(1, Ordering::Relaxed);
    qp.requests_sent.fetch_add(degree as u64, Ordering::Relaxed);
    Ok(())
}

/// Consume `n` credits, requesting renewal when at half (paper §5.1).
fn wait_for_credits(inner: &HandleInner, qp: &ClientQpCtx, n: u32) -> Result<()> {
    let deadline = clock::deadline(inner.cfg.timeout);
    loop {
        let mut send_renewal = false;
        {
            let mut credits = qp.credits.lock();
            if !qp.active.load(Ordering::Acquire) {
                // Deactivated QP: drain without credits; threads migrate
                // away for future requests.
                break;
            }
            let consumed = credits.try_consume(n);
            if credits.should_request_renewal() {
                credits.mark_requested();
                send_renewal = true;
            }
            if consumed {
                if send_renewal {
                    drop(credits);
                    send_credit_request(qp)?;
                }
                return Ok(());
            }
            if !send_renewal {
                if inner.stop.load(Ordering::Relaxed) {
                    return Err(FlockError::Disconnected);
                }
                if clock::wait_until(&qp.credit_cond, &mut credits, deadline, 1_000) {
                    return Err(FlockError::Timeout);
                }
                continue;
            }
        }
        send_credit_request(qp)?;
    }
    Ok(())
}

/// Post the credit renewal as RDMA write-with-imm (paper §7): the imm word
/// carries the QP index and the median coalescing degree since the last
/// renewal.
fn send_credit_request(qp: &ClientQpCtx) -> Result<()> {
    let median = {
        let mut w = qp.degree.lock();
        let m = w.median().clamp(1, u16::MAX as u32) as u16;
        w.clear();
        m
    };
    let imm = ((qp.index as u32) << 16) | median as u32;
    qp.qp.post_send(
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
    )?;
    Ok(())
}

/// The response dispatcher (paper §4.3): polls every QP's response ring,
/// routes entries to threads by thread id, folds in piggybacked heads and
/// credit grants, and routes one-sided completions.
fn dispatcher_loop(inner: &HandleInner) {
    // Send-CQ drain scratch: batched poll, one sync edge per sweep.
    let mut drained: Vec<flock_fabric::Completion> = Vec::new();
    // Polling core in the lab: see the matching cap in the server's
    // dispatch_loop for why the virtual ladder stays tight.
    let mut idler =
        flock_sync::AdaptiveBackoff::new(Duration::from_micros(100)).with_virtual_cap(1_000);
    while !inner.stop.load(Ordering::Relaxed) {
        let mut progressed = false;
        for qp in inner.lanes_live() {
            // Send-CQ: one-sided completions and (rare) ring-write errors.
            drained.clear();
            if qp.qp.send_cq().poll(&mut drained, usize::MAX) > 0 {
                progressed = true;
                clock::charge(inner.cost.cpu_poll_cqe_ns * drained.len() as u64);
                for c in &drained {
                    route_completion(inner, c);
                }
            }
            // Response ring.
            let polled = { qp.resp_cons.lock().poll(&qp.resp_mr) };
            handle_ring_poll(inner, qp, polled, &mut progressed);
        }
        // Dedicated mem QPs share one send CQ; their one-sided
        // completions route exactly like the lanes' do.
        if let Some(cq) = &inner.mem_cq {
            drained.clear();
            if cq.poll(&mut drained, usize::MAX) > 0 {
                progressed = true;
                clock::charge(inner.cost.cpu_poll_cqe_ns * drained.len() as u64);
                for c in &drained {
                    route_completion(inner, c);
                }
            }
        }
        if progressed {
            idler.reset();
            // Apply accrued virtual CPU cost on busy sweeps, which never
            // reach `idle()` (see the server dispatcher).
            clock::flush_charge();
        } else {
            idler.idle();
        }
    }
    // Wake any waiting threads so they observe the stop flag.
    for t in inner.threads.read().iter() {
        t.inbox_cond.notify_all();
        t.mem_cond.notify_all();
    }
}

/// Fold one lane's response-ring poll result into the dispatcher sweep:
/// piggybacked heads, credit grants, and per-thread response routing.
fn handle_ring_poll(
    inner: &HandleInner,
    qp: &ClientQpCtx,
    polled: Result<Option<crate::ring::OwnedMsg>>,
    progressed: &mut bool,
) {
    match polled {
        Ok(Some(m)) => {
            *progressed = true;
            clock::charge(inner.cost.cpu_ring_poll_ns);
            let head_after = { qp.resp_cons.lock().head() };
            qp.resp_head_shared.store(head_after, Ordering::Release);
            let view = m.view();
            let h = view.header;
            qp.server_head.fetch_max(h.head, Ordering::AcqRel);
            if h.flags & FLAG_CREDIT_GRANT != 0 {
                let (granted, _) = msg::unpack_aux(h.aux);
                let mut credits = qp.credits.lock();
                if granted == 0 {
                    credits.decline();
                    qp.active.store(false, Ordering::Release);
                } else {
                    credits.grant(granted);
                    qp.active.store(true, Ordering::Release);
                }
                qp.credit_cond.notify_all();
            }
            let threads = inner.threads.read();
            for (meta, range) in view.entry_ranges() {
                clock::charge(inner.cost.cpu_codec_ns);
                if let Some(t) = threads.get(meta.thread_id as usize) {
                    // Zero-copy: each response entry is a slice of
                    // the shared coalesced-message buffer; the one
                    // copy out of the ring happened in `poll`.
                    t.inbox.lock().insert(meta.seq, m.bytes().slice(range));
                    t.inbox_cond.notify_all();
                }
            }
        }
        Ok(None) => {
            clock::charge(inner.cost.cpu_poll_empty_ns);
        }
        Err(_) => {
            // Corrupt ring: fatal for this connection.
            inner.stop.store(true, Ordering::SeqCst);
        }
    }
}

fn route_completion(inner: &HandleInner, c: &flock_fabric::Completion) {
    // Ring writes use sentinel wr_ids; one-sided ops encode the thread id.
    if c.wr_id.0 == u64::MAX || c.wr_id.0 == u64::MAX - 1 {
        return; // signaled ring write or credit imm; errors surface below
    }
    if !matches!(
        c.opcode,
        CqOpcode::Read | CqOpcode::Write | CqOpcode::Atomic
    ) {
        return;
    }
    let thread_id = (c.wr_id.0 >> 32) as u32;
    let threads = inner.threads.read();
    let Some(t) = threads.get(thread_id as usize) else {
        return;
    };
    let Some(p) = t.mem_pending.lock().remove(&c.wr_id.0) else {
        return; // stale completion from a timed-out, abandoned op
    };
    let result = if c.is_ok() {
        if p.defer {
            // Deferred op: publish only a marker. The payload stays in
            // scratch until the issuing thread copies it out with
            // `take_deferred` — no allocation on this path.
            Ok(Vec::new())
        } else if p.result_len > 0 {
            inner
                .mem_mr
                .read_vec(p.scratch_off, p.result_len)
                .map_err(|_| "scratch read failed")
        } else {
            Ok(Vec::new())
        }
    } else {
        Err("remote operation completed with error status")
    };
    // Release the scratch sub-slots, then publish the result. Deferred
    // ops keep their sub-slots until `take_deferred` consumes the bytes.
    if !p.defer {
        *t.mem_free.lock() |= p.mask;
    }
    t.mem_results.lock().insert(c.wr_id.0, result);
    t.mem_cond.notify_all();
}

/// Sender-side thread scheduler loop (paper §5.2, Algorithm 1).
fn scheduler_loop(inner: &HandleInner) {
    while !inner.stop.load(Ordering::Relaxed) {
        clock::sleep(inner.cfg.sched_interval);
        run_thread_scheduling(inner);
    }
}

/// One scheduling pass; factored out for tests and ablations.
pub(crate) fn run_thread_scheduling(inner: &HandleInner) {
    let active: Vec<usize> = inner
        .lanes_live()
        .filter(|q| q.active.load(Ordering::Relaxed))
        .map(|q| q.index)
        .collect();
    let active = if active.is_empty() { vec![0] } else { active };
    let threads = inner.threads.read();
    if threads.is_empty() {
        return;
    }
    let stats: Vec<ThreadLoadStats> = threads
        .iter()
        .map(|t| ThreadLoadStats {
            thread_id: t.id,
            median_req_size: t.req_sizes.lock().median(),
            requests: t.reqs.swap(0, Ordering::Relaxed),
            bytes: t.bytes.swap(0, Ordering::Relaxed),
        })
        .collect();
    for (tid, rank) in assign_threads(&stats, active.len()) {
        if let Some(t) = threads.get(tid as usize) {
            t.target_qp.store(active[rank], Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_config_defaults_are_sane() {
        let cfg = HandleConfig::default();
        assert!(cfg.n_qps >= 1);
        assert!(cfg.ring_capacity % 64 == 0);
        assert!(cfg.coalescing);
    }
}
