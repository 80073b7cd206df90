//! The repository benchmark: one workload of the real Flock stack under
//! `flock_sim::vtime::VirtualLab`, printed as one JSON result line.
//!
//! ```text
//! perfbench --workload fanin|combine|kv_onesided --seed N --seconds S --trace 0|1
//!           [--cpu C --nproc P]
//! ```
//!
//! `--trace 0` runs the untraced workload once per trial seed, repeats
//! those runs until `--seconds` of wall time have passed, and prints the
//! end-to-end metrics. `--trace 1` prints the
//! per-layer metrics: it alternates untraced and traced runs, and adds
//! the wall-clock micro timings. `--cpu`/`--nproc` are host facts the
//! launcher (`run.py`) recorded when it confined the process to one CPU.
//! See README.md for every metric and what should move it.

mod micro;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use workload::{Kind, Outcome};

/// Wall budget after which a run stops starting repetitions, whatever
/// `--seconds` says, so one invocation stays well inside three minutes.
const MAX_MEASURE: Duration = Duration::from_secs(120);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    cpu: i64,
    nproc: i64,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        cpu: -1,
        nproc: -1,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<i64>()
                .map_err(|_| format!("{flag}: not a number: {val}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = num()? as u64,
            "--seconds" => a.seconds = num()?.max(1) as u64,
            "--trace" => a.trace = num()? != 0,
            "--cpu" => a.cpu = num()?,
            "--nproc" => a.nproc = num()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// Metrics in print order: (name, unit, value).
#[derive(Default)]
struct Metrics(Vec<(&'static str, &'static str, f64)>);

impl Metrics {
    fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push((name, unit, value));
    }

    fn json(&self) -> String {
        let mut j = String::from("{");
        for (i, (name, unit, value)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                j,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        j.push('}');
        j
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-workload request sizes for the micro timings: (request bytes,
/// requests per message, kv value bytes).
fn micro_sizes(kind: Kind) -> (usize, usize, usize) {
    match kind {
        Kind::Fanin => (32, 1, 32),
        Kind::Combine => (64, 4, 64),
        Kind::KvOnesided => (40, 1, 32),
    }
}

/// Runs of one invocation and the verdict of their cross-checks.
struct Tally {
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }

    fn add(&mut self, o: &Outcome) {
        self.attempted += o.virt.attempted;
        self.failed += o.virt.failed;
        if o.virt.mismatches > 0 {
            eprintln!(
                "perfbench: {} replies failed the content check",
                o.virt.mismatches
            );
            self.correct = false;
        }
    }

    fn fail(&mut self, why: &str) {
        eprintln!("perfbench: FAILED: {why}");
        self.correct = false;
    }
}

/// Independent trials per run: the seed derives one input seed per
/// trial, and virtual metrics are the median over the trials, so a
/// metric whose value hinges on one seed's regime (combine's thread
/// packing, kv_onesided's cache residency) is steadied by measuring
/// more work rather than a longer window, which does not help.
const TRIALS: u64 = 9;

/// Input seed of trial `t` of a run with seed `seed`.
fn trial_seed(seed: u64, t: u64) -> u64 {
    flock_sim::rng::splitmix64(seed ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// What one invocation measured: its metrics, how many lab runs it
/// made, and the fewest latency samples any reported trial had.
struct Measured {
    metrics: Metrics,
    runs: usize,
    samples: u64,
}

fn end_to_end(kind: Kind, args: &Args, tally: &mut Tally) -> Measured {
    let (seed, seconds) = (args.seed, args.seconds);
    let start = Instant::now();
    let budget = Duration::from_secs(seconds).min(MAX_MEASURE);
    // Every trial once, then repeats of them while time is left: a
    // repeat must reproduce its trial exactly.
    let mut runs: Vec<Outcome> = Vec::new();
    while (runs.len() as u64) < TRIALS || start.elapsed() < budget {
        let t = runs.len() as u64 % TRIALS;
        let o = workload::run(kind, trial_seed(seed, t), false);
        eprintln!(
            "perfbench: trial {t}: {:.4} Mops/s, p50 {:.3} us, p99 {:.3} us; \
             setup {:.4} s, run {:.4} s, teardown {:.4} s",
            o.virt.tput_mops, o.virt.p50_us, o.virt.p99_us, o.setup_s, o.run_s, o.teardown_s
        );
        tally.add(&o);
        if let Some(first) = runs.get(t as usize) {
            if o.virt != first.virt {
                tally.fail("two runs with one seed disagree on virtual metrics or counts");
            }
        }
        runs.push(o);
    }
    let trials = &runs[..TRIALS as usize];
    let over_trials = |f: fn(&Outcome) -> f64| median(trials.iter().map(f).collect());
    let over_runs = |f: fn(&Outcome) -> f64| median(runs.iter().map(f).collect());
    let mut m = Metrics::default();
    m.put("tput_mops", "Mops/s", over_trials(|o| o.virt.tput_mops));
    m.put("p50_us", "us", over_trials(|o| o.virt.p50_us));
    m.put("p99_us", "us", over_trials(|o| o.virt.p99_us));
    m.put("goodput_mb_s", "MB/s", over_trials(|o| o.virt.goodput_mb_s));
    m.put("setup_s", "s", over_runs(|o| o.setup_s));
    let samples = trials.iter().map(|o| o.virt.samples).min().unwrap_or(0);
    Measured {
        metrics: m,
        runs: runs.len(),
        samples,
    }
}

fn per_layer(kind: Kind, args: &Args, tally: &mut Tally) -> Measured {
    let (seed, seconds) = (args.seed, args.seconds);
    let start = Instant::now();
    let (entry, entries, value) = micro_sizes(kind);
    let mc = micro::measure(entry, entries, value, Duration::from_millis(40));

    // Untraced/traced pairs: tracing must leave every virtual metric and
    // count, handovers included, exactly as the untraced run had them.
    let budget = Duration::from_secs(seconds).min(MAX_MEASURE);
    let mut pairs: Vec<(Outcome, Outcome)> = Vec::new();
    while pairs.is_empty() || start.elapsed() < budget {
        let plain = workload::run(kind, trial_seed(seed, 0), false);
        let traced = workload::run(kind, trial_seed(seed, 0), true);
        tally.add(&plain);
        tally.add(&traced);
        if traced.virt != plain.virt {
            tally.fail("the traced run's virtual metrics or counts differ from the untraced run's");
        }
        if let Some((first, _)) = pairs.first() {
            if plain.virt != first.virt {
                tally.fail("two runs with one seed disagree on virtual metrics or counts");
            }
        }
        pairs.push((plain, traced));
    }
    // A second seed changes only the inputs and still runs clean.
    let other = workload::run(kind, trial_seed(seed, 1), false);
    tally.add(&other);
    if other.virt.input_digest == pairs[0].0.virt.input_digest {
        tally.fail("a second seed generated the same inputs");
    }
    if other.virt.failed > 0 {
        tally.fail("a second seed had failed operations");
    }

    let (plain, t) = (&pairs[0].0, &pairs[0].1);
    let v = &t.virt;
    let w = &v.window;
    let ops = v.window_ops.max(1) as f64;
    let per_op = |x: u64| x as f64 / ops;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let s = &t.spans;
    let wall = |f: fn(&(Outcome, Outcome)) -> f64| median(pairs.iter().map(f).collect());

    let mut m = Metrics::default();
    // sim::vtime
    m.put("lab_wall_s", "s", wall(|p| p.0.lab_wall_s));
    m.put("lab.handovers", "count", v.handovers as f64);
    m.put(
        "lab.handovers_per_op",
        "count/op",
        ratio(v.handovers, v.attempted),
    );
    m.put("lab.tasks", "count", v.tasks as f64);
    m.put("lab.run_s", "s", wall(|p| p.0.run_s));
    m.put("lab.teardown_s", "s", wall(|p| p.0.teardown_s));
    m.put("micro.lab_handover_ns", "ns", mc.lab_handover_ns);
    // core::tcq / client / msg
    m.put("client.degree", "req/msg", ratio(w.cli_reqs, w.cli_msgs));
    m.put("client.msgs_per_op", "msg/op", per_op(w.cli_msgs));
    m.put("span.send_rpc", "vns", s.send_rpc.vns_per_call());
    m.put("span.send_rpc.wall", "ns", s.send_rpc.wall_per_call());
    m.put("micro.tcq_join_complete_ns", "ns", mc.tcq_join_complete_ns);
    m.put("micro.msg_encode_ns", "ns", mc.msg_encode_ns);
    m.put("micro.msg_decode_ns", "ns", mc.msg_decode_ns);
    // core::server / ring / credit
    m.put("server.degree", "req/msg", ratio(w.srv_reqs, w.srv_msgs));
    m.put("server.msgs_per_op", "msg/op", per_op(w.srv_msgs));
    m.put("server.grants", "count", w.grants as f64);
    m.put("server.declines", "count", w.declines as f64);
    m.put("server.head_flushes_skipped", "count", w.head_skips as f64);
    m.put("span.recv_res", "vns", s.recv_res.vns_per_call());
    m.put(
        "span.recv_res.self",
        "vns",
        s.recv_res.vns_per_call() - s.handler.vns_per_call(),
    );
    m.put("span.recv_res.wall", "ns", s.recv_res.wall_per_call());
    m.put("span.handler", "vns", s.handler.vns_per_call());
    m.put("span.handler.wall", "ns", s.handler.wall_per_call());
    m.put("micro.ring_reserve_poll_ns", "ns", mc.ring_reserve_poll_ns);
    // core::sched
    m.put("server.active_qps", "count", v.server_active_qps as f64);
    m.put("client.active_qps", "count", v.client_active_qps as f64);
    // fabric::nic / cache / cq
    m.put("nic.verbs_per_op", "verb/op", per_op(w.verbs));
    m.put("nic.bytes_per_op", "B/op", per_op(w.bytes));
    m.put("nic.reads", "count", w.reads as f64);
    m.put("nic.rnr_failures", "count", w.rnr as f64);
    m.put("cache.misses", "count", w.cache_misses as f64);
    m.put("cache.misses_per_op", "miss/op", per_op(w.cache_misses));
    m.put(
        "cache.hit_ratio",
        "ratio",
        ratio(w.cache_hits, w.cache_hits + w.cache_misses),
    );
    m.put("micro.cq_push_poll_ns", "ns", mc.cq_push_poll_ns);
    // core::onesided / kvstore
    m.put(
        "onesided.verbs_per_read",
        "verb/read",
        ratio(v.os_verbs, v.os_reads),
    );
    m.put("onesided.retries", "count", v.os_retries as f64);
    m.put("onesided.failures", "count", v.os_failures as f64);
    m.put("kv.fallbacks", "count", v.kv_fallbacks as f64);
    m.put("span.get", "vns", s.get.vns_per_call());
    m.put("span.get.wall", "ns", s.get.wall_per_call());
    m.put("span.set", "vns", s.set.vns_per_call());
    m.put("span.set.wall", "ns", s.set.wall_per_call());
    m.put("micro.kv_get_ns", "ns", mc.kv_get_ns);
    m.put("micro.kv_put_ns", "ns", mc.kv_put_ns);
    // set-up
    m.put("span.connect.wall", "ns", wall(|p| p.0.connect_wall_ns));
    m.put("span.preload.wall", "ns", wall(|p| p.0.preload_wall_ns));
    // the measurement itself
    m.put(
        "trace.wall_overhead_s",
        "s",
        wall(|p| p.1.lab_wall_s - p.0.lab_wall_s),
    );
    m.put(
        "err_frac",
        "ratio",
        ratio(plain.virt.failed, plain.virt.attempted),
    );
    m.put("samples", "count", v.samples as f64);
    m.put("host.nproc", "count", args.nproc as f64);
    m.put("host.lab_cpu", "index", args.cpu as f64);
    Measured {
        metrics: m,
        runs: 2 * pairs.len() + 1,
        samples: v.samples,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(kind) = Kind::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let mut tally = Tally::new();
    let measured = if args.trace {
        per_layer(kind, &args, &mut tally)
    } else {
        end_to_end(kind, &args, &mut tally)
    };
    if tally.failed > 0 {
        tally.fail("operations failed");
    }
    // Host facts and run shape, so two results can be judged comparable.
    let sh = kind.shape();
    println!(
        "{{\"info\": {{\"workload\": \"{}\", \"seed\": {}, \"executor\": \"virtual\", \
         \"nproc\": {}, \"lab_cpu\": {}, \"runs\": {}, \"samples\": {}, \"trace\": {}, \
         \"warm_ns\": {}, \"measure_ns\": {}}}}}",
        args.workload,
        args.seed,
        args.nproc,
        args.cpu,
        measured.runs,
        measured.samples,
        args.trace,
        sh.warm_ns,
        sh.measure_ns
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.correct,
        tally.attempted.max(1),
        tally.failed,
        measured.metrics.json()
    );
    ExitCode::SUCCESS
}
