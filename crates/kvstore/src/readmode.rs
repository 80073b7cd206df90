//! Read-path selection: RPC, one-sided, or adaptive.
//!
//! The store itself is access-path agnostic; this module is the *policy*
//! layer consumed by clients (the gateway's `KvClient`) that can reach a
//! value either through a coalesced Flock RPC or through a raw one-sided
//! READ of an exported value segment (`flock_core::onesided`). Which
//! path wins is exactly the crossover this repo measures (`bench onesided`,
//! EXPERIMENTS.md "RPC vs one-sided crossover"):
//!
//! * **One-sided** pays one NIC verb and zero server CPU per read, but
//!   every read moves the whole slot (header + value capacity), cannot
//!   coalesce with neighbors, and must retry when a concurrent writer
//!   holds the slot's seqlock.
//! * **RPC** pays two verbs amortized over the coalescing degree plus a
//!   server dispatch, but moves only the live bytes and is immune to
//!   torn reads.
//!
//! [`AdaptivePolicy`] tracks the client-observable quantities those
//! costs hinge on — value size, validation retry rate, and per-path
//! read latency — as EWMAs and picks the path per read. Latency is the
//! only signal that reflects the *responder's* state: past the fan-in
//! crossover the server NIC's connection cache no longer holds every
//! client's one-sided QP and each READ pays a state fetch, which a
//! client sees purely as one-sided reads slowing down relative to RPC.
//! A deterministic probe (every [`AdaptivePolicy::PROBE_PERIOD`]-th
//! read takes the currently losing path) keeps both latency EWMAs live
//! so the policy can cross back. The defaults mirror the measured
//! thresholds in EXPERIMENTS.md.
//!
//! A measured honesty note (EXPERIMENTS.md, "Adaptive and the limits
//! of client-side signals"): past the fan-in crossover the latency
//! latch does *not* rescue a whole cohort running Adaptive. The thrash
//! is a commons problem — the responder cache miss inflates the tail
//! (p99) and stretches everyone's run, but each client's *typical*
//! one-sided read still completes faster than an RPC probe, because
//! the probe's response ride shares the same evicted connection cache.
//! A greedy per-client latency comparison therefore keeps choosing
//! one-sided even while aggregate throughput is ~2x worse; escaping
//! the equilibrium needs coordination, which is precisely Flock's
//! argument for designing around shared-QP RPCs rather than adapting
//! per client. The latch still earns its keep against *visible*
//! degradation (a genuinely slow remote path, gross oversubscription),
//! and the size and retry axes track the crossover exactly.

/// How a client reads a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadMode {
    /// Always through the coalesced Flock RPC path.
    #[default]
    Rpc,
    /// Always through one-sided READ + version validation.
    OneSided,
    /// Per-read choice from an [`AdaptivePolicy`].
    Adaptive,
}

/// EWMA-driven policy behind [`ReadMode::Adaptive`].
///
/// Deterministic: the state is two `f64` EWMAs updated in call order, so
/// a `VirtualLab` run replays identically.
#[derive(Debug, Clone)]
pub struct AdaptivePolicy {
    ewma_size: f64,
    ewma_retries: f64,
    /// Per-path read latency EWMAs (ns); 0.0 until first observation.
    ewma_lat_os: f64,
    ewma_lat_rpc: f64,
    /// Hysteresis latch: set when one-sided latency crossed
    /// [`Self::LAT_RATIO_UP`] × RPC, cleared only below
    /// [`Self::LAT_RATIO_DOWN`] ×. Without the latch the policy
    /// oscillates: the moment a cohort abandons one-sided reads the
    /// responder cache recovers, probes look healthy again, and
    /// everyone piles back in (see the module doc).
    lat_rpc_latched: bool,
    /// Reads decided so far (drives the probe cadence).
    reads: u64,
    alpha: f64,
    size_cutover: f64,
    retry_cutover: f64,
}

impl AdaptivePolicy {
    /// Smoothing factor: ~1/32 weight per observation, long enough to
    /// ride out bursts, short enough to track a phase change within a
    /// few hundred reads.
    pub const ALPHA: f64 = 1.0 / 32.0;
    /// Value size (bytes) above which the RPC path is preferred: the
    /// bench geometry's slot stride. EXPERIMENTS.md's oversize rows pin
    /// the measured size threshold at the mirror's inline capacity
    /// (448 B inline / 512 B stride): past it every one-sided READ is a
    /// wasted verb before the RPC fallback, and RPC wins at *all*
    /// client counts.
    pub const SIZE_CUTOVER: f64 = 512.0;
    /// Validation retries per read above which the RPC path is
    /// preferred: retries multiply the one-sided verb count while the
    /// RPC path is immune to torn reads.
    pub const RETRY_CUTOVER: f64 = 0.125;
    /// One-sided reads beyond this factor of the RPC latency EWMA trip
    /// the latch: the responder is visibly struggling to keep the
    /// one-sided QPs resident. Generous enough that the small-fan-in
    /// regime (where one-sided is *faster*) never trips it by noise.
    pub const LAT_RATIO_UP: f64 = 1.5;
    /// The latch clears only when one-sided probes run decisively
    /// faster than RPC. Asymmetric on purpose: once a cohort retreats
    /// to RPC the responder cache recovers and a lone probe looks
    /// merely "not terrible" (its own QP went cold, so it still pays a
    /// state fetch) — crossing back on parity would re-thrash.
    pub const LAT_RATIO_DOWN: f64 = 0.75;
    /// Every `PROBE_PERIOD`-th read takes the currently losing path so
    /// its latency EWMA stays live and the policy can cross back —
    /// without probes, the first flip would be permanent. ~6% of reads.
    pub const PROBE_PERIOD: u64 = 16;

    /// Policy with the default thresholds.
    pub fn new() -> AdaptivePolicy {
        AdaptivePolicy::with_cutovers(Self::SIZE_CUTOVER, Self::RETRY_CUTOVER)
    }

    /// Policy with explicit size/retry thresholds (benchmarks sweep
    /// these; deployments tune them from measured crossovers).
    pub fn with_cutovers(size_cutover: f64, retry_cutover: f64) -> AdaptivePolicy {
        AdaptivePolicy {
            ewma_size: 0.0,
            ewma_retries: 0.0,
            ewma_lat_os: 0.0,
            ewma_lat_rpc: 0.0,
            lat_rpc_latched: false,
            reads: 0,
            alpha: Self::ALPHA,
            size_cutover,
            retry_cutover,
        }
    }

    /// Record a completed one-sided read: the value size observed, how
    /// many validation retries it took, and how long it took end to end
    /// (0 = not measured; the latency EWMA is left alone).
    pub fn observe_one_sided(&mut self, value_len: usize, retries: u32, lat_ns: u64) {
        self.observe_size(value_len);
        self.ewma_retries += self.alpha * (retries as f64 - self.ewma_retries);
        if lat_ns > 0 {
            self.ewma_lat_os = ewma_or_seed(self.ewma_lat_os, lat_ns as f64, self.alpha);
            self.update_latch();
        }
    }

    /// Record a completed RPC read (sizes still steer the choice; the
    /// retry EWMA decays since RPC reads cannot be torn).
    pub fn observe_rpc(&mut self, value_len: usize, lat_ns: u64) {
        self.observe_size(value_len);
        self.ewma_retries += self.alpha * (0.0 - self.ewma_retries);
        if lat_ns > 0 {
            self.ewma_lat_rpc = ewma_or_seed(self.ewma_lat_rpc, lat_ns as f64, self.alpha);
            self.update_latch();
        }
    }

    /// Re-evaluate the hysteresis latch after a latency observation.
    fn update_latch(&mut self) {
        if self.ewma_lat_os == 0.0 || self.ewma_lat_rpc == 0.0 {
            return;
        }
        if self.lat_rpc_latched {
            if self.ewma_lat_os < Self::LAT_RATIO_DOWN * self.ewma_lat_rpc {
                self.lat_rpc_latched = false;
            }
        } else if self.ewma_lat_os > Self::LAT_RATIO_UP * self.ewma_lat_rpc {
            self.lat_rpc_latched = true;
        }
    }

    fn observe_size(&mut self, value_len: usize) {
        self.ewma_size += self.alpha * (value_len as f64 - self.ewma_size);
    }

    /// The steady-state preference: one-sided while observed values
    /// stay small, validation retries rare, and one-sided latency
    /// competitive with RPC (the fan-in signal — see the module doc).
    pub fn use_one_sided(&self) -> bool {
        self.ewma_size <= self.size_cutover
            && self.ewma_retries <= self.retry_cutover
            && !self.latency_prefers_rpc()
    }

    /// The latched latency verdict (see [`Self::LAT_RATIO_UP`] /
    /// [`Self::LAT_RATIO_DOWN`]).
    fn latency_prefers_rpc(&self) -> bool {
        self.lat_rpc_latched
    }

    /// The per-read decision: the steady-state preference, except that
    /// every [`Self::PROBE_PERIOD`]-th read deliberately takes the
    /// losing path to keep its latency EWMA live. Deterministic — a
    /// plain read counter, no randomness.
    pub fn decide(&mut self) -> bool {
        self.reads += 1;
        let preferred = self.use_one_sided();
        if self.reads.is_multiple_of(Self::PROBE_PERIOD) {
            // Probing the losing path is only meaningful once the size
            // and retry axes allow one-sided at all: a 4 KiB value or a
            // retry storm loses regardless of responder cache state.
            if preferred || self.latency_prefers_rpc() {
                return !preferred;
            }
        }
        preferred
    }

    /// Observed mean value size (bytes).
    pub fn mean_size(&self) -> f64 {
        self.ewma_size
    }

    /// Observed mean retries per one-sided read.
    pub fn mean_retries(&self) -> f64 {
        self.ewma_retries
    }

    /// Observed mean one-sided read latency (ns; 0 before the first
    /// measured read).
    pub fn mean_lat_one_sided(&self) -> f64 {
        self.ewma_lat_os
    }

    /// Observed mean RPC read latency (ns; 0 before the first measured
    /// read).
    pub fn mean_lat_rpc(&self) -> f64 {
        self.ewma_lat_rpc
    }
}

/// EWMA update that seeds from the first observation instead of pulling
/// up from 0 over 1/alpha samples (latencies start unobserved, and a
/// slow warm-up would mask a real 1.5x gap for hundreds of reads).
fn ewma_or_seed(current: f64, sample: f64, alpha: f64) -> f64 {
    if current == 0.0 {
        sample
    } else {
        current + alpha * (sample - current)
    }
}

impl Default for AdaptivePolicy {
    fn default() -> AdaptivePolicy {
        AdaptivePolicy::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_policy_prefers_one_sided() {
        assert!(AdaptivePolicy::new().use_one_sided());
    }

    #[test]
    fn large_values_flip_to_rpc_and_back() {
        let mut p = AdaptivePolicy::new();
        for _ in 0..256 {
            p.observe_one_sided(4096, 0, 0);
        }
        assert!(!p.use_one_sided(), "4 KiB values must steer to RPC");
        for _ in 0..512 {
            p.observe_rpc(64, 0);
        }
        assert!(p.use_one_sided(), "small values steer back");
    }

    #[test]
    fn retry_storms_flip_to_rpc() {
        let mut p = AdaptivePolicy::new();
        for _ in 0..256 {
            p.observe_one_sided(64, 3, 0);
        }
        assert!(!p.use_one_sided(), "torn-read storms must steer to RPC");
        // Retry EWMA decays once the contention passes.
        for _ in 0..512 {
            p.observe_one_sided(64, 0, 0);
        }
        assert!(p.use_one_sided());
    }

    #[test]
    fn slow_one_sided_reads_latch_to_rpc_with_hysteresis() {
        let mut p = AdaptivePolicy::new();
        // Small values, no retries — but each READ pays a responder
        // cache miss while RPC stays fast: the fan-in signature.
        for _ in 0..64 {
            p.observe_one_sided(64, 0, 6_000);
            p.observe_rpc(64, 3_000);
        }
        assert!(!p.use_one_sided(), "a 2x latency gap must steer to RPC");
        // Parity is NOT enough to cross back (hysteresis: parity is
        // what a recovered cache shows a lone probe).
        for _ in 0..256 {
            p.observe_one_sided(64, 0, 3_000);
            p.observe_rpc(64, 3_000);
        }
        assert!(!p.use_one_sided(), "parity must not clear the latch");
        // Decisively faster one-sided probes do clear it.
        for _ in 0..256 {
            p.observe_one_sided(64, 0, 1_800);
            p.observe_rpc(64, 3_000);
        }
        assert!(p.use_one_sided());
    }

    #[test]
    fn decide_probes_the_losing_path() {
        let mut p = AdaptivePolicy::new();
        for _ in 0..64 {
            p.observe_one_sided(64, 0, 1_000);
            p.observe_rpc(64, 3_000);
        }
        assert!(p.use_one_sided());
        let choices: Vec<bool> = (0..AdaptivePolicy::PROBE_PERIOD * 2)
            .map(|_| p.decide())
            .collect();
        let probes = choices.iter().filter(|&&c| !c).count();
        assert_eq!(probes, 2, "one probe per PROBE_PERIOD reads");
    }

    #[test]
    fn cutovers_are_configurable() {
        let mut p = AdaptivePolicy::with_cutovers(16.0, 10.0);
        for _ in 0..256 {
            p.observe_one_sided(64, 0, 0);
        }
        assert!(!p.use_one_sided(), "custom size cutover respected");
    }
}
