#!/usr/bin/env sh
# Local counterpart of CI: every deterministic check CI runs. Formatting
# and clippy, the release build, the whole workspace's tests, the
# invariant lint (DESIGN.md §9) and its self-lint canary, the
# warning-free rustdoc build, a run of every example, the figure and
# trace-CLI smoke runs, the bench-harness checks, the womd service checks, and the perfbench smoke
# runs. Tier-1 `cargo test -q` covers only the root package; this covers
# everything CI does that decides correctness. Only CI's timing gates
# stay CI-only: the `bench_compare` checks against the committed
# BENCH_*.json baselines, the `throughput` bench target, and
# `service_throughput`'s per-worker throughput floor.
#
# The trace-CLI smoke converts a binary trace to text and back and
# requires the two binaries to be byte-identical. The harness checks
# drive the bench runner end to end: the observed `sim_throughput`
# epoch series must equal its committed fixture byte for byte,
# `shard_scaling` asserts that its serial and pooled shard merges are
# byte-identical, and a `womsim run` interrupted after a snapshot and
# then resumed must print the same report as a straight run: a
# PCM-refresh run, and a run of each architecture under the functional
# data checker. `service_throughput --floor 0` checks only that 16
# interleaved womd tenants match their solo runs, and the wire smoke
# diffs a tenant's streamed epochs against the committed fixture.
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

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release --workspace
cargo test --workspace
cargo lint-invariants
# The canary: the lint must still fire on its seeded trees and pass the
# clean ones. (`set -e` ignores a failing `!` command, hence the `if`s.)
fixtures=crates/womlint/tests
for seeded in fixtures fixtures_structural fixtures_shadowing; do
    if cargo run -q -p womlint -- --root "$fixtures/$seeded" > /dev/null; then
        echo "verify: womlint found nothing in its seeded $seeded tree" >&2
        exit 1
    fi
done
for clean in fixtures_clean fixtures_structural_clean fixtures_shadowing_clean; do
    cargo run -q -p womlint -- --root "$fixtures/$clean" > /dev/null
done
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --document-private-items
# `cargo test` builds the examples but runs none of them.
for example in examples/*.rs; do
    cargo run --release --offline --quiet --example "$(basename "$example" .rs)" > /dev/null
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bench="cargo run --release --offline --quiet -p wom-pcm-bench --bin"
$bench table1 > /dev/null
$bench bounds > /dev/null
$bench fig5 -- 2000 7 --threads 4 > /dev/null

womsim="target/release/womsim"
$womsim gen kv_zipf 5000 7 --binary > "$tmp/kv.womtrc"
$womsim convert "$tmp/kv.womtrc" "$tmp/kv.trace" --stats > /dev/null
$womsim convert "$tmp/kv.trace" "$tmp/kv2.womtrc" > /dev/null
cmp "$tmp/kv.womtrc" "$tmp/kv2.womtrc"
$womsim run refresh "$tmp/kv.womtrc" > /dev/null

$bench sim_throughput -- --records 2000 --observe "$tmp/throughput_epochs.jsonl" > /dev/null
diff -u crates/bench/fixtures/sim_throughput_observed.jsonl "$tmp/throughput_epochs.jsonl"
$bench shard_scaling -- --records 4000 --json "$tmp/shard.json" > /dev/null
$womsim run refresh qsort:6000 > "$tmp/straight.txt"
$womsim run refresh qsort:3000 --resume "$tmp/run.womsnap" --snapshot-every 1000 > /dev/null
test -s "$tmp/run.womsnap"
$womsim run refresh qsort:6000 --resume "$tmp/run.womsnap" > "$tmp/resumed.txt"
diff -u "$tmp/straight.txt" "$tmp/resumed.txt"
for arch in baseline wom refresh wcpcm; do
    $womsim run "$arch" kv_zipf:6000 --verify > "$tmp/straight-$arch.txt"
    $womsim run "$arch" kv_zipf:3000 --verify --resume "$tmp/$arch.womsnap" --snapshot-every 1000 > /dev/null
    test -s "$tmp/$arch.womsnap"
    $womsim run "$arch" kv_zipf:6000 --verify --resume "$tmp/$arch.womsnap" > "$tmp/resumed-$arch.txt"
    diff -u "$tmp/straight-$arch.txt" "$tmp/resumed-$arch.txt"
done

$bench service_throughput -- --floor 0 > /dev/null
$bench service_throughput -- --smoke --womd target/release/womd --records 6000 \
    --epochs-out "$tmp/service_epochs.jsonl" > /dev/null
diff -u crates/womd/fixtures/service_smoke_epochs.jsonl "$tmp/service_epochs.jsonl"

cargo test --manifest-path perfbench/Cargo.toml
for workload in paper_mix verified_kv dc_saturated service_churn; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --smoke --trace "$trace"
    done
done
echo "verify: all steps passed"
