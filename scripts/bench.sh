#!/usr/bin/env sh
# The virtual-time bench suites, each written to BENCH_<suite>.json
# inside the deterministic virtual-time lab (see EXPERIMENTS.md):
#
#   scale     receive-path scaling surface
#   churn     elastic control plane under connection churn
#   tenant    multi-tenant gateway fairness and isolation
#   onesided  RPC vs one-sided read crossover
#
# Usage:
#   scripts/bench.sh <suite>            full suite (the checked-in file)
#   scripts/bench.sh <suite> --quick    CI smoke; byte-identical to
#                                       crates/bench/golden/<suite>.quick.json
#
# Extra arguments are passed through, e.g. `--out /tmp/churn.json`.
set -eu
cd "$(dirname "$0")/.."

exec cargo run --release -p flock-bench --bin bench -- "$@"
