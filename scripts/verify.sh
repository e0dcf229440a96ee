#!/usr/bin/env sh
# Local counterpart of CI: release build, the whole workspace's tests,
# the invariant lint (DESIGN.md §9), the warning-free rustdoc build, the
# bench-harness checks, and the perfbench smoke runs. Tier-1 `cargo test -q` covers only the root package; this
# covers everything CI does that decides correctness.
#
# The harness checks drive the bench runner end to end: the observed
# `sim_throughput` epoch series must equal its committed fixture byte for
# byte, and a `womsim run` interrupted after a snapshot and then resumed
# must print the same report as a straight run: a PCM-refresh run, and
# PCM-refresh and WCPCM runs under the functional data checker.
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
cargo lint-invariants
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --document-private-items

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cargo run --release --offline --quiet -p wom-pcm-bench --bin sim_throughput -- \
    --records 2000 --observe "$tmp/throughput_epochs.jsonl" > /dev/null
diff -u crates/bench/fixtures/sim_throughput_observed.jsonl "$tmp/throughput_epochs.jsonl"
womsim="target/release/womsim"
$womsim run refresh qsort:6000 > "$tmp/straight.txt"
$womsim run refresh qsort:3000 --resume "$tmp/run.womsnap" --snapshot-every 1000 > /dev/null
test -s "$tmp/run.womsnap"
$womsim run refresh qsort:6000 --resume "$tmp/run.womsnap" > "$tmp/resumed.txt"
diff -u "$tmp/straight.txt" "$tmp/resumed.txt"
for arch in refresh wcpcm; do
    $womsim run "$arch" kv_zipf:6000 --verify > "$tmp/straight-$arch.txt"
    $womsim run "$arch" kv_zipf:3000 --verify --resume "$tmp/$arch.womsnap" --snapshot-every 1000 > /dev/null
    test -s "$tmp/$arch.womsnap"
    $womsim run "$arch" kv_zipf:6000 --verify --resume "$tmp/$arch.womsnap" > "$tmp/resumed-$arch.txt"
    diff -u "$tmp/straight-$arch.txt" "$tmp/resumed-$arch.txt"
done

cargo test --manifest-path perfbench/Cargo.toml
for workload in paper_mix verified_kv dc_saturated service_churn; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --smoke --trace "$trace"
    done
done
echo "verify: all steps passed"
