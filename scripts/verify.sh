#!/usr/bin/env sh
# Local counterpart of CI: release build, the whole workspace's tests in
# both codec kernel legs (DESIGN.md §7), the invariant lint (§9), and the
# perfbench smoke runs. Tier-1 `cargo test -q` covers only the root
# package; this covers everything CI does that decides correctness.
#
# The smoke runs are 1%-size runs of every BENCHMARK.json workload. Each
# exits 1 when a run's RunMetrics digest differs from perfbench/golden.txt,
# so a change that moves any simulated byte fails here. The traced runs
# (`--trace 1`) also checkpoint every run at its midpoint and require the
# resumed digest to equal the straight one. Nothing is timed.
#
# Usage: scripts/verify.sh    (stops at the first failing step)

set -eu

cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test --workspace
cargo test --workspace --features wom-code/force-scalar
cargo lint-invariants
cargo test --manifest-path perfbench/Cargo.toml
for workload in paper_mix verified_kv dc_saturated service_churn; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --smoke --trace "$trace"
    done
done
echo "verify: all steps passed"
