//! The three VirtualLab workloads: the real client, server, NIC and
//! kvstore code run as virtual tasks of one deterministic lab.
//!
//! Every workload is closed loop over a fixed virtual window: callers
//! start at the go signal, warm up for `warm_ns`, are measured for
//! `measure_ns`, then drain what they have in flight. The root task
//! snapshots every counter at the window edges, so all per-layer counts
//! cover the same operations as the end-to-end numbers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flock_core::api::fl_connect;
use flock_core::client::HandleConfig;
use flock_core::server::{FlockServer, ServerConfig};
use flock_core::{ConnectionHandle, FlThread, FlockDomain};
use flock_fabric::{FabricConfig, Node};
use flock_gateway::{register_kv_mirror_backend, KvReadClient, ReadMode};
use flock_kvstore::{KvConfig, KvStore};
use flock_sim::rng::{splitmix64, SimRng};
use flock_sim::vtime::VirtualLab;
use flock_sync::clock;

/// Echo RPC id.
const ECHO: u32 = 1;
/// Writer id stamped into preloaded kv values.
const PRELOAD_WRITER: u32 = u32::MAX;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 24 single-thread, single-QP callers against one server.
    Fanin,
    /// 2 nodes x 16 threads sharing 2 QPs each: TCQ combining.
    Combine,
    /// 32 readers: one-sided GETs beside RPC SETs through the gateway
    /// mirror backend.
    KvOnesided,
}

impl Kind {
    /// Parse a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "fanin" => Some(Kind::Fanin),
            "combine" => Some(Kind::Combine),
            "kv_onesided" => Some(Kind::KvOnesided),
            _ => None,
        }
    }

    /// The fixed shape of this workload.
    pub fn shape(self) -> Shape {
        match self {
            Kind::Fanin => Shape {
                nodes: 24,
                threads_per_node: 1,
                n_qps: 1,
                window: 8,
                dispatch_threads: 4,
                nic_lanes: 2,
                nic_cache_entries: None,
                client_sched_interval: None,
                server_sched_interval: None,
                warm_ns: 100_000,
                measure_ns: 1_000_000,
            },
            Kind::Combine => Shape {
                nodes: 2,
                threads_per_node: 16,
                n_qps: 2,
                window: 4,
                dispatch_threads: 4,
                nic_lanes: 2,
                nic_cache_entries: None,
                // Short enough that the sender-side thread scheduler
                // runs several times inside the measured window.
                client_sched_interval: Some(Duration::from_micros(50)),
                server_sched_interval: None,
                warm_ns: 300_000,
                measure_ns: 4_000_000,
            },
            Kind::KvOnesided => Shape {
                nodes: 8,
                threads_per_node: 4,
                n_qps: 2,
                window: 1,
                dispatch_threads: 4,
                nic_lanes: 2,
                // 32 per-thread mem QPs plus 16 shared lanes against a
                // 24-entry responder cache: the one-sided path's NIC
                // state does not fit.
                nic_cache_entries: Some(24),
                client_sched_interval: Some(Duration::from_micros(100)),
                server_sched_interval: Some(Duration::from_micros(100)),
                warm_ns: 100_000,
                measure_ns: 3_000_000,
            },
        }
    }
}

/// Topology and window of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Client nodes, each with one connection handle.
    pub nodes: usize,
    /// Application threads per client node, sharing its handle.
    pub threads_per_node: usize,
    /// QPs per handle.
    pub n_qps: usize,
    /// Requests in flight per thread (closed loop).
    pub window: usize,
    /// Server dispatcher workers.
    pub dispatch_threads: usize,
    /// NIC lanes per node.
    pub nic_lanes: usize,
    /// Responder connection-cache entries (`None` = fabric default).
    pub nic_cache_entries: Option<usize>,
    /// Client thread-scheduler interval (`None` = default).
    pub client_sched_interval: Option<Duration>,
    /// Server QP-scheduler interval (`None` = default).
    pub server_sched_interval: Option<Duration>,
    /// Virtual warm-up after the go signal.
    pub warm_ns: u64,
    /// Virtual measured window after the warm-up.
    pub measure_ns: u64,
}

/// kv_onesided knobs.
const KV_KEYS: u64 = 16;
const KV_VALUE: usize = 32;
const KV_SET_FRAC: f64 = 0.10;
const KV_GAP_NS: f64 = 2_000.0;

/// Virtual and wall time accumulated over the calls of one span.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Span {
    /// Calls timed.
    pub calls: u64,
    /// Virtual ns summed over the calls.
    pub vns: u64,
    /// Wall ns summed over the calls.
    pub wall_ns: u64,
}

impl Span {
    fn add(&mut self, o: &Span) {
        self.calls += o.calls;
        self.vns += o.vns;
        self.wall_ns += o.wall_ns;
    }

    /// Mean virtual ns per call (0 without calls).
    pub fn vns_per_call(&self) -> f64 {
        self.vns as f64 / self.calls.max(1) as f64
    }

    /// Mean wall ns per call (0 without calls).
    pub fn wall_per_call(&self) -> f64 {
        self.wall_ns as f64 / self.calls.max(1) as f64
    }
}

/// Time `f` into `span` when tracing; a bare call otherwise. Reading the
/// lab clock takes its lock but never yields, so tracing leaves the
/// schedule untouched.
#[inline]
fn timed<R>(traced: bool, span: &mut Span, f: impl FnOnce() -> R) -> R {
    if !traced {
        return f();
    }
    let (v0, w0) = (clock::now_ns(), Instant::now());
    let r = f();
    span.calls += 1;
    span.vns += clock::now_ns() - v0;
    span.wall_ns += w0.elapsed().as_nanos() as u64;
    r
}

/// Lock-free span for the server-side handler (runs on dispatchers).
#[derive(Default)]
struct SharedSpan {
    calls: AtomicU64,
    vns: AtomicU64,
    wall_ns: AtomicU64,
}

impl SharedSpan {
    fn snapshot(&self) -> Span {
        Span {
            calls: self.calls.load(Ordering::Relaxed),
            vns: self.vns.load(Ordering::Relaxed),
            wall_ns: self.wall_ns.load(Ordering::Relaxed),
        }
    }
}

/// Spans recorded in a traced run.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Spans {
    /// `FlThread::send_rpc`.
    pub send_rpc: Span,
    /// `FlThread::recv_res`.
    pub recv_res: Span,
    /// The registered echo handler, as run by the dispatchers.
    pub handler: Span,
    /// `KvReadClient::get`.
    pub get: Span,
    /// `KvReadClient::set`.
    pub set: Span,
}

impl Spans {
    fn add(&mut self, o: &Spans) {
        self.send_rpc.add(&o.send_rpc);
        self.recv_res.add(&o.recv_res);
        self.handler.add(&o.handler);
        self.get.add(&o.get);
        self.set.add(&o.set);
    }
}

/// Layer counters read from public stats at one instant.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Snap {
    pub srv_msgs: u64,
    pub srv_reqs: u64,
    pub grants: u64,
    pub declines: u64,
    pub head_skips: u64,
    pub cli_msgs: u64,
    pub cli_reqs: u64,
    pub verbs: u64,
    pub bytes: u64,
    pub reads: u64,
    pub rnr: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Snap {
    fn take(server: &FlockServer, handles: &[ConnectionHandle], nodes: &[Arc<Node>]) -> Snap {
        let st = server.stats();
        let mut s = Snap {
            srv_msgs: st.messages.load(Ordering::Relaxed),
            srv_reqs: st.requests.load(Ordering::Relaxed),
            grants: st.grants.load(Ordering::Relaxed),
            declines: st.declines.load(Ordering::Relaxed),
            head_skips: st.head_flushes_skipped.load(Ordering::Relaxed),
            ..Snap::default()
        };
        for h in handles {
            let m = h.metrics();
            s.cli_msgs += m.messages;
            s.cli_reqs += m.requests;
        }
        for n in nodes {
            let ns = n.stats();
            s.verbs += ns.verbs.load(Ordering::Relaxed);
            s.bytes += ns.bytes.load(Ordering::Relaxed);
            s.reads += ns.reads.load(Ordering::Relaxed);
            s.rnr += ns.rnr_failures.load(Ordering::Relaxed);
        }
        // The server node is first: its cache is the responder's.
        let cache = nodes[0].cache().lock();
        s.cache_hits = cache.hits();
        s.cache_misses = cache.misses();
        s
    }

    fn minus(self, a: Snap) -> Snap {
        Snap {
            srv_msgs: self.srv_msgs - a.srv_msgs,
            srv_reqs: self.srv_reqs - a.srv_reqs,
            grants: self.grants - a.grants,
            declines: self.declines - a.declines,
            head_skips: self.head_skips - a.head_skips,
            cli_msgs: self.cli_msgs - a.cli_msgs,
            cli_reqs: self.cli_reqs - a.cli_reqs,
            verbs: self.verbs - a.verbs,
            bytes: self.bytes - a.bytes,
            reads: self.reads - a.reads,
            rnr: self.rnr - a.rnr,
            cache_hits: self.cache_hits - a.cache_hits,
            cache_misses: self.cache_misses - a.cache_misses,
        }
    }
}

/// Everything deterministic a run measures: a pure function of the
/// workload and its seed. Two runs with one seed must agree exactly.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Virtual {
    /// Operations completed inside the measured window.
    pub window_ops: u64,
    /// Latency samples (operations issued inside the window).
    pub samples: u64,
    /// Completed operations per virtual second, in millions.
    pub tput_mops: f64,
    /// Median issue-to-reply latency, virtual µs.
    pub p50_us: f64,
    /// p99 issue-to-reply latency, virtual µs.
    pub p99_us: f64,
    /// Request plus reply payload bytes per virtual second, in MB.
    pub goodput_mb_s: f64,
    /// Operations attempted over the whole run.
    pub attempted: u64,
    /// Failed operations (API error, timeout, or content mismatch).
    pub failed: u64,
    /// Replies that failed the content check.
    pub mismatches: u64,
    /// Layer counters over the measured window.
    pub window: Snap,
    /// Active QPs under the server scheduler at the window's end.
    pub server_active_qps: u64,
    /// Active QPs summed over client handles at the window's end.
    pub client_active_qps: u64,
    /// One-sided reader counters over the whole run.
    pub os_reads: u64,
    pub os_verbs: u64,
    pub os_retries: u64,
    pub os_failures: u64,
    /// One-sided GETs that fell back to RPC.
    pub kv_fallbacks: u64,
    /// Lab handovers over the whole run.
    pub handovers: u64,
    /// Virtual tasks spawned.
    pub tasks: u64,
    /// Digest of the generated inputs (changes with the seed).
    pub input_digest: u64,
}

/// One run: the deterministic part plus what the wall clock saw.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub virt: Virtual,
    /// Spans (all zero in an untraced run).
    pub spans: Spans,
    /// Wall s from workload start to the go signal.
    pub setup_s: f64,
    /// Wall s from the go signal until every caller has finished.
    pub run_s: f64,
    /// Wall s from then until the lab has ended.
    pub teardown_s: f64,
    /// Wall s for the whole workload.
    pub lab_wall_s: f64,
    /// Wall ns per connect call.
    pub connect_wall_ns: f64,
    /// Wall ns per preload SET (0 without a preload).
    pub preload_wall_ns: f64,
}

/// What one caller task hands back.
#[derive(Default)]
struct CallerResult {
    lat_ns: Vec<u64>,
    window_ops: u64,
    window_bytes: u64,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    spans: Spans,
    digest: u64,
    os: flock_core::onesided::ReadStats,
    kv_fallbacks: u64,
}

/// The window edges, in virtual ns.
#[derive(Clone, Copy)]
struct Window {
    warm: u64,
    stop: u64,
}

impl Window {
    fn record(&self, r: &mut CallerResult, issued: u64, done: u64, bytes: u64) {
        if issued >= self.warm && issued < self.stop {
            r.lat_ns.push(done - issued);
        }
        if done >= self.warm && done < self.stop {
            r.window_ops += 1;
            r.window_bytes += bytes;
        }
    }
}

/// Fill `buf` with seeded bytes behind an 8-byte (caller, op) tag.
fn fill_payload(buf: &mut [u8], caller: u32, op: u32, rng: &mut SimRng) {
    buf[..4].copy_from_slice(&caller.to_le_bytes());
    buf[4..8].copy_from_slice(&op.to_le_bytes());
    for chunk in buf[8..].chunks_mut(8) {
        let r = rng.u64().to_le_bytes();
        chunk.copy_from_slice(&r[..chunk.len()]);
    }
}

/// The value a kv writer stores: `[key][writer][counter][16 B check]`,
/// where the check is a hash of the first three fields, so a GET can
/// tell a value some writer really wrote from a torn mix.
fn kv_value(key: u64, writer: u32, counter: u32) -> [u8; KV_VALUE] {
    let mut v = [0u8; KV_VALUE];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..12].copy_from_slice(&writer.to_le_bytes());
    v[12..16].copy_from_slice(&counter.to_le_bytes());
    let h = splitmix64(key ^ (u64::from(writer) << 32 | u64::from(counter)));
    v[16..24].copy_from_slice(&h.to_le_bytes());
    v[24..32].copy_from_slice(&splitmix64(h).to_le_bytes());
    v
}

/// Whether `got` is a value some writer wrote for `key`: well formed,
/// for this key, and no newer than that writer has issued.
fn kv_value_ok(key: u64, got: &[u8], issued: &[AtomicU64]) -> bool {
    if got.len() != KV_VALUE {
        return false;
    }
    let writer = u32::from_le_bytes(got[8..12].try_into().expect("4 bytes"));
    let counter = u32::from_le_bytes(got[12..16].try_into().expect("4 bytes"));
    if got != kv_value(key, writer, counter) {
        return false;
    }
    writer == PRELOAD_WRITER
        || issued
            .get(writer as usize)
            .is_some_and(|n| u64::from(counter) < n.load(Ordering::Acquire))
}

/// Run one workload in a fresh lab.
pub fn run(kind: Kind, seed: u64, traced: bool) -> Outcome {
    let wall0 = Instant::now();
    let ((mut virt, spans, marks), report) =
        VirtualLab::run_report(move || run_in_lab(kind, seed, traced, wall0));
    let lab_wall_s = wall0.elapsed().as_secs_f64();
    virt.handovers = report.handovers;
    virt.tasks = report.tasks_spawned;
    Outcome {
        virt,
        spans,
        setup_s: marks.go_s,
        run_s: marks.done_s - marks.go_s,
        teardown_s: lab_wall_s - marks.done_s,
        lab_wall_s,
        connect_wall_ns: marks.connect_wall_ns,
        preload_wall_ns: marks.preload_wall_ns,
    }
}

/// Wall marks taken by the root task, in s since workload start.
struct Marks {
    go_s: f64,
    done_s: f64,
    connect_wall_ns: f64,
    preload_wall_ns: f64,
}

fn run_in_lab(kind: Kind, seed: u64, traced: bool, wall0: Instant) -> (Virtual, Spans, Marks) {
    let sh = kind.shape();
    let mut fab = FabricConfig::default();
    fab.nic_lanes = sh.nic_lanes;
    if let Some(n) = sh.nic_cache_entries {
        fab.nic_cache_entries = n;
    }
    let domain = Arc::new(FlockDomain::new(fab));
    let server_node = domain.add_node("bench-srv");
    let mut scfg = ServerConfig::default();
    scfg.dispatch_threads = sh.dispatch_threads;
    if let Some(i) = sh.server_sched_interval {
        scfg.sched_interval = i;
    }
    let server = FlockServer::listen(&domain, &server_node, "bench", scfg);

    let handler_span = Arc::new(SharedSpan::default());
    if kind == Kind::KvOnesided {
        let kv = Arc::new(KvStore::new(KvConfig::default()));
        register_kv_mirror_backend(&server, kv, KV_VALUE as u32, KV_KEYS as u32)
            .expect("mirror backend");
    } else {
        let span = Arc::clone(&handler_span);
        server.reg_handler(ECHO, move |req| {
            if !traced {
                return req.to_vec();
            }
            let (v0, w0) = (clock::now_ns(), Instant::now());
            let out = req.to_vec();
            span.calls.fetch_add(1, Ordering::Relaxed);
            span.vns.fetch_add(clock::now_ns() - v0, Ordering::Relaxed);
            span.wall_ns
                .fetch_add(w0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            out
        });
    }

    // Every client node connects at once, as independent processes
    // would; each task hands its handle back through its own slot.
    type Slot = Mutex<Option<(Arc<Node>, ConnectionHandle)>>;
    let slots: Arc<Vec<Slot>> = Arc::new((0..sh.nodes).map(|_| Mutex::new(None)).collect());
    let connect_t0 = Instant::now();
    let connectors: Vec<_> = (0..sh.nodes)
        .map(|n| {
            let domain = Arc::clone(&domain);
            let slots = Arc::clone(&slots);
            clock::spawn(&format!("bench-connect{n}"), move || {
                let node = domain.add_node(&format!("bench-c{n}"));
                let mut cfg = HandleConfig::default();
                cfg.n_qps = sh.n_qps;
                cfg.eager_qps = true;
                if let Some(i) = sh.client_sched_interval {
                    cfg.sched_interval = i;
                }
                if kind == Kind::KvOnesided {
                    cfg.mem_threads = sh.threads_per_node + 2;
                    cfg.dedicated_mem_qps = true;
                }
                let h = fl_connect(&domain, &node, "bench", cfg).expect("connect");
                *slots[n].lock().expect("slot") = Some((node, h));
            })
        })
        .collect();
    for c in connectors {
        c.join().expect("connect task");
    }
    let connect_wall_ns = connect_t0.elapsed().as_nanos() as f64 / sh.nodes as f64;
    let mut nodes = vec![Arc::clone(&server_node)];
    let mut handles = Vec::with_capacity(sh.nodes);
    for slot in slots.iter() {
        let (node, h) = slot.lock().expect("slot").take().expect("connected");
        nodes.push(node);
        handles.push(h);
    }

    let callers = sh.nodes * sh.threads_per_node;
    let issued: Arc<Vec<AtomicU64>> = Arc::new((0..callers).map(|_| AtomicU64::new(0)).collect());
    let mut preload_wall_ns = 0.0;
    enum Client {
        Rpc(FlThread),
        Kv(Box<KvReadClient>),
    }
    let clients: Vec<Client> = if kind == Kind::KvOnesided {
        let t0 = Instant::now();
        let mut loader = KvReadClient::new(&handles[0], ReadMode::Rpc).expect("loader");
        for key in 0..KV_KEYS {
            loader
                .set(key, &kv_value(key, PRELOAD_WRITER, 0))
                .expect("preload");
        }
        preload_wall_ns = t0.elapsed().as_nanos() as f64 / KV_KEYS as f64;
        drop(loader);
        (0..callers)
            .map(|u| {
                let c = KvReadClient::new(&handles[u / sh.threads_per_node], ReadMode::OneSided)
                    .expect("kv client");
                Client::Kv(Box::new(c))
            })
            .collect()
    } else {
        (0..callers)
            .map(|u| Client::Rpc(handles[u / sh.threads_per_node].register_thread()))
            .collect()
    };

    // Go: the window is fixed in virtual time from here.
    let go_s = wall0.elapsed().as_secs_f64();
    let go_ns = clock::now_ns();
    let win = Window {
        warm: go_ns + sh.warm_ns,
        stop: go_ns + sh.warm_ns + sh.measure_ns,
    };
    let results: Arc<Mutex<Vec<CallerResult>>> = Arc::new(Mutex::new(Vec::new()));
    let mut root_rng = SimRng::new(seed);
    let mut tasks = Vec::with_capacity(callers);
    for (u, client) in clients.into_iter().enumerate() {
        let rng = root_rng.fork(u as u64);
        let results = Arc::clone(&results);
        let issued = Arc::clone(&issued);
        tasks.push(clock::spawn(&format!("bench-w{u}"), move || {
            let r = match client {
                Client::Rpc(t) => echo_caller(kind, u as u32, t, rng, win, sh.window, traced),
                Client::Kv(c) => kv_caller(u as u32, *c, rng, win, &issued, traced),
            };
            results.lock().expect("results").push(r);
        }));
    }

    // Monitor the window edges from the root.
    clock::sleep_ns(win.warm.saturating_sub(clock::now_ns()).max(1));
    let at_warm = Snap::take(&server, &handles, &nodes);
    clock::sleep_ns(win.stop.saturating_sub(clock::now_ns()).max(1));
    let at_stop = Snap::take(&server, &handles, &nodes);
    let server_active_qps = server.active_qps() as u64;
    let client_active_qps: u64 = handles.iter().map(|h| h.active_qps() as u64).sum();
    for t in tasks {
        t.join().expect("caller task");
    }
    let done_s = wall0.elapsed().as_secs_f64();

    // Teardown: every client process exits at once, then the server.
    let closers: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(n, h)| clock::spawn(&format!("bench-close{n}"), move || drop(h)))
        .collect();
    for c in closers {
        c.join().expect("close task");
    }
    server.shutdown(&domain);
    drop(server);
    drop(nodes);
    drop(
        Arc::try_unwrap(domain)
            .ok()
            .expect("all domain users joined"),
    );

    let collected = std::mem::take(&mut *results.lock().expect("results"));
    let mut lat: Vec<u64> = Vec::new();
    let mut virt = Virtual {
        window: at_stop.minus(at_warm),
        server_active_qps,
        client_active_qps,
        ..Virtual::default()
    };
    let mut spans = Spans::default();
    let mut window_bytes = 0u64;
    for (u, r) in collected.iter().enumerate() {
        lat.extend_from_slice(&r.lat_ns);
        virt.window_ops += r.window_ops;
        window_bytes += r.window_bytes;
        virt.attempted += r.attempted;
        virt.failed += r.failed;
        virt.mismatches += r.mismatches;
        virt.os_reads += r.os.reads;
        virt.os_verbs += r.os.verbs;
        virt.os_retries += r.os.retries;
        virt.os_failures += r.os.failures;
        virt.kv_fallbacks += r.kv_fallbacks;
        virt.input_digest ^= splitmix64(r.digest ^ u as u64);
        spans.add(&r.spans);
    }
    spans.handler = handler_span.snapshot();
    lat.sort_unstable();
    virt.samples = lat.len() as u64;
    let secs = sh.measure_ns as f64 / 1e9;
    virt.tput_mops = virt.window_ops as f64 / secs / 1e6;
    virt.goodput_mb_s = window_bytes as f64 / secs / 1e6;
    virt.p50_us = percentile_us(&lat, 0.50);
    virt.p99_us = percentile_us(&lat, 0.99);
    let marks = Marks {
        go_s,
        done_s,
        connect_wall_ns,
        preload_wall_ns,
    };
    (virt, spans, marks)
}

/// Quantile `q` of sorted ns samples, in µs, read off the
/// piecewise-linear CDF through the distinct sample values.
///
/// A caller sees its reply only at its next poll, so lab latencies sit
/// on a coarse grid of poll ticks, and a plain order statistic jumps
/// from grid point to grid point. The true completion lies somewhere
/// between the previous distinct value and the observed one; spreading
/// each value's mass over that gap gives an estimate that moves smoothly
/// with the inputs. With all samples distinct it is the usual quantile.
fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    let Some(&first) = sorted_ns.first() else {
        return 0.0;
    };
    let rank = q * sorted_ns.len() as f64;
    let (mut prev_v, mut prev_c) = (first as f64, 0usize);
    let mut i = 0;
    while i < sorted_ns.len() {
        let v = sorted_ns[i];
        let j = i + sorted_ns[i..].partition_point(|&x| x == v);
        if j as f64 >= rank {
            if i == 0 {
                return v as f64 / 1000.0;
            }
            let frac = (rank - prev_c as f64) / (j - prev_c) as f64;
            return (prev_v + frac * (v as f64 - prev_v)) / 1000.0;
        }
        (prev_v, prev_c, i) = (v as f64, j, j);
    }
    prev_v / 1000.0
}

/// Picks one operation in every ten, at a seeded position in each
/// block of ten. Exactly one in ten keeps every caller's byte load the
/// same, so the seed moves where the large requests fall, not how many
/// a caller gets.
#[derive(Default)]
struct OneInTen {
    op: u64,
    at: u64,
}

impl OneInTen {
    fn next(&mut self, rng: &mut SimRng) -> bool {
        if self.op.is_multiple_of(10) {
            self.at = rng.below(10);
        }
        let hit = self.op % 10 == self.at;
        self.op += 1;
        hit
    }
}

/// A closed-loop echo caller: bursts of `window` RPCs, each reply
/// compared byte for byte with its request.
fn echo_caller(
    kind: Kind,
    caller: u32,
    t: FlThread,
    mut rng: SimRng,
    win: Window,
    window: usize,
    traced: bool,
) -> CallerResult {
    let mut r = CallerResult::default();
    // Seeded start offset: callers do not fire in lockstep.
    clock::sleep_ns(1 + rng.below(2_000));
    let mut inflight: Vec<(u64, u64, Vec<u8>)> = Vec::with_capacity(window);
    let (mut op, mut large) = (0u32, OneInTen::default());
    while clock::now_ns() < win.stop {
        inflight.clear();
        for _ in 0..window {
            // combine: 64 B, one request in ten 2 KB; fan-in: 32 B.
            let size = match kind {
                Kind::Combine if large.next(&mut rng) => 2048,
                Kind::Combine => 64,
                _ => 32,
            };
            let mut payload = vec![0u8; size];
            fill_payload(&mut payload, caller, op, &mut rng);
            op += 1;
            r.digest = splitmix64(
                r.digest
                    ^ u64::from_le_bytes(payload[8..16].try_into().expect("8"))
                    ^ payload.len() as u64,
            );
            r.attempted += 1;
            let at = clock::now_ns();
            match timed(traced, &mut r.spans.send_rpc, || t.send_rpc(ECHO, &payload)) {
                Ok(seq) => inflight.push((seq, at, payload)),
                Err(e) => {
                    eprintln!("perfbench: caller {caller}: send_rpc failed: {e}");
                    r.failed += 1;
                }
            }
        }
        for (seq, at, payload) in inflight.drain(..) {
            match timed(traced, &mut r.spans.recv_res, || t.recv_res(seq)) {
                Ok(reply) if reply[..] == payload[..] => {
                    win.record(&mut r, at, clock::now_ns(), 2 * payload.len() as u64);
                }
                Ok(_) => {
                    eprintln!("perfbench: caller {caller}: echo reply differs from request");
                    r.failed += 1;
                    r.mismatches += 1;
                }
                Err(e) => {
                    eprintln!("perfbench: caller {caller}: recv_res failed: {e}");
                    r.failed += 1;
                }
            }
        }
    }
    r
}

/// A closed-loop kv reader: exponential think gap, then a GET (90%,
/// one-sided) or a SET (10%, RPC) of a tagged value.
fn kv_caller(
    caller: u32,
    mut client: KvReadClient,
    mut rng: SimRng,
    win: Window,
    issued: &[AtomicU64],
    traced: bool,
) -> CallerResult {
    let mut r = CallerResult::default();
    let mut out = Vec::with_capacity(KV_VALUE);
    let mut writes = 0u32;
    while clock::now_ns() < win.stop {
        clock::sleep_ns(1 + rng.exp(KV_GAP_NS) as u64);
        let key = rng.below(KV_KEYS);
        let set = rng.chance(KV_SET_FRAC);
        r.digest = splitmix64(r.digest ^ key ^ (u64::from(set) << 63));
        r.attempted += 1;
        let at = clock::now_ns();
        let ok = if set {
            let value = kv_value(key, caller, writes);
            // Published before the SET leaves, so a reader that sees
            // the value in flight accepts it.
            writes += 1;
            issued[caller as usize].store(u64::from(writes), Ordering::Release);
            match timed(traced, &mut r.spans.set, || client.set(key, &value)) {
                Ok(()) => true,
                Err(e) => {
                    eprintln!("perfbench: caller {caller}: set failed: {e}");
                    false
                }
            }
        } else {
            match timed(traced, &mut r.spans.get, || client.get(key, &mut out)) {
                Ok(true) if kv_value_ok(key, &out, issued) => true,
                Ok(_) => {
                    eprintln!(
                        "perfbench: caller {caller}: GET {key} missed or returned a value never written"
                    );
                    r.mismatches += 1;
                    false
                }
                Err(e) => {
                    eprintln!("perfbench: caller {caller}: get failed: {e}");
                    false
                }
            }
        };
        if ok {
            // Key plus value, whichever way the value travels.
            win.record(&mut r, at, clock::now_ns(), (8 + KV_VALUE) as u64);
        } else {
            r.failed += 1;
        }
    }
    r.os = client.reader_stats();
    r.kv_fallbacks = client.stats().fallbacks;
    r
}
