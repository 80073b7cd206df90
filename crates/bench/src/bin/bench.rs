//! The virtual-time bench suites, each emitting its `BENCH_<suite>.json`
//! (see EXPERIMENTS.md):
//!
//! ```text
//! cargo run --release -p flock-bench --bin bench -- \
//!     <scale|churn|tenant|onesided> [--quick] [--out PATH]
//! ```
//!
//! - `scale`: the real receive path swept over client, dispatcher and
//!   NIC-lane counts ("Virtual-time scaling surface").
//! - `churn`: the elastic control plane under a connect storm, steady
//!   churn and server scale-out ("Connection churn").
//! - `tenant`: the multi-tenant gateway's Zipf mix, hot-key storm and
//!   aggressor-vs-victims interference ("Multi-tenancy").
//! - `onesided`: RPC vs one-sided reads vs the adaptive policy across
//!   fan-in, value size and write mix ("RPC vs one-sided crossover").
//!
//! Every suite runs inside the deterministic virtual-time lab, so two
//! runs render byte-identical JSON and `--quick` output matches
//! `crates/bench/golden/<suite>.quick.json` on any host.

use flock_bench::{churn, onesided, scale, tenant};

const USAGE: &str = "usage: bench <scale|churn|tenant|onesided> [--quick] [--out PATH]";

fn main() {
    let mut args = std::env::args().skip(1);
    let suite = args.next().unwrap_or_default();
    let mut quick = false;
    let mut out = format!("BENCH_{suite}.json");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let json = match suite.as_str() {
        "scale" => scale::run_scale_suite(quick, true),
        "churn" => churn::run_churn_suite(quick, true),
        "tenant" => tenant::run_tenant_suite(quick, true),
        "onesided" => onesided::run_onesided_suite(quick, true),
        _ => {
            eprintln!("unknown suite: {suite:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::fs::write(&out, &json).expect("write bench JSON");
    eprintln!("bench {suite}: wrote {out}");
    print!("{json}");
}
