#!/usr/bin/env bash
# CI gate: build, tests, formatting, lints. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

# The root Cargo.toml's `default-members` lists every crate, so these two
# build and test the whole workspace.
cargo build --release
cargo test -q
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc stage: every intra-doc link resolves, and none points at a
# private item or is ambiguous.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Benchmark build-contract stage: the benchmark package (its own workspace
# under benchmark/) must stay formatted and lint-clean against the repo's
# current public APIs, and `--locked` fails if a repo change would rewrite
# benchmark/Cargo.lock.
cargo fmt --check --manifest-path benchmark/Cargo.toml
cargo clippy --locked --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

# Example stage: every example runs once, so the assertions inside them
# gate CI. alexa_smart_home is the one path that turns telemetry recording
# on; it writes alexa_trace.json (git-ignored) to the repo root. Trace and
# span ids are process-global, so it runs a second time and the two traces
# must match byte for byte.
for example in examples/*.rs; do
    cargo run --release -q --example "$(basename "$example" .rs)"
done
trace_dir=$(mktemp -d)
cp alexa_trace.json "$trace_dir/first.json"
cargo run --release -q --example alexa_smart_home >/dev/null
cmp "$trace_dir/first.json" alexa_trace.json
rm -rf "$trace_dir"

# Bench JSON summaries land at the repo root so plotting scripts and the
# gates below read the same committed artifacts.
export MOLECULE_BENCH_DIR="$PWD"

# A jq gate whose `col("name")` is the row's cell under that column of the
# file's own header: a reordered column still gates the right number, and a
# renamed one fails the gate ("Cannot index array with null").
gate() { jq -e ".header as \$h | def col(\$n): .[\$h | index(\$n)]; $1" "$2" >/dev/null; }

# Paper figures: every table and figure of the evaluation, plus the seeded
# crash-recovery scenario. Their BENCH files are checked by the artifact
# gate below.
cargo run --release -q -p molecule-bench --bin all_experiments
cargo run --release -q -p molecule-bench --bin fig_fault

# Scheduling stage: a fig_sched run that must export BENCH_sched.json with
# nothing shed or lost at the low-load points.
cargo run --release -q -p molecule-bench --bin fig_sched
test -f BENCH_sched.json
gate '[.rows[] | select(col("load (rps)").value <= 160)] | length > 0
      and all(col("shed").value == 0 and col("lost").value == 0)' BENCH_sched.json

# Data-plane stage: a fig_comm run. Gates: the adaptive data plane never
# loses to the best pinned transport at any payload size, and the
# shared-segment descriptor path buys >=2x on 64 KiB+ cross-PU payloads.
cargo run --release -q -p molecule-bench --bin fig_comm
test -f BENCH_comm.json
gate '[.rows[]] | length > 0 and all(col("adaptive").value <= col("best pinned").value)' BENCH_comm.json
gate '[.rows[] | select(col("payload").value >= 65536)] | length > 0
      and all(col("speedup").value >= 2)' BENCH_comm.json

# Shared-state stage: a fig_state run. Gates: at 8 co-located sandboxes
# the shared-weights fleet costs at most half the copy-per-instance
# baseline's memory, and the shared-region shuffle beats the inline-copy
# baseline by >=2x at 64 KiB partitions.
cargo run --release -q -p molecule-bench --bin fig_state
test -f BENCH_state.json
gate '[.rows[] | select(col("sandboxes").value == 8)] | length > 0
      and all(col("memory ratio").value <= 0.5)' BENCH_state.json
test -f BENCH_state_shuffle.json
gate '[.rows[] | select(col("partition").value >= 65536)] | length > 0
      and all(col("speedup").value >= 2)' BENCH_state_shuffle.json

# Rack stage: a fig_rack run. Gates: zero lost requests at every point of
# the scaling sweep, the 16-node rack sustains >= 10x the single node's
# best point, and descriptor-eligible cross-node DAG edges elide their
# payload bytes from the fabric hand-off.
cargo run --release -q -p molecule-bench --bin fig_rack
test -f BENCH_rack.json
gate '[.rows[]] | length > 0 and all(col("lost").value == 0)' BENCH_rack.json
gate 'def best($n): [.rows[] | select(col("nodes").value == $n and col("sustained").raw == "yes")
                  | col("load (rps)").value] | max;
      best(16) >= 10 * best(1)' BENCH_rack.json
test -f BENCH_rack_edges.json
gate '[.rows[] | select(col("payload (B)").value >= 16384)] | length > 0
      and all(col("bytes elided").value > 0)' BENCH_rack_edges.json

# Tenancy stage: a fig_tenancy run (one tenant floods at 10x the machine's
# drain capacity). Gates: every victim row keeps loss at 0 and p99 within
# 1.2x of its unloaded baseline, and the antagonist is rate-denied and held
# to its weight share (+10pp) of delivered service.
cargo run --release -q -p molecule-bench --bin fig_tenancy
test -f BENCH_tenancy.json
gate '[.rows[] | select(col("role").raw == "victim")] | length == 3
      and all(col("loss").value == 0 and col("p99 ratio").value <= 1.2)' BENCH_tenancy.json
gate '[.rows[] | select(col("role").raw == "antagonist")] | length == 1
      and all(col("rate-denied").value > 0 and col("share").value <= 0.35)' BENCH_tenancy.json

# High-density stage: a fig_density run sweeping 100 -> 10k resident
# sandboxes. Gates: per-sandbox PSS at 10k stays <= 0.25x the
# copy-per-instance baseline, offloaded I/O p99 stays within 1.2x of its
# 100-sandbox point at every density, and no offload request is lost.
cargo run --release -q -p molecule-bench --bin fig_density
test -f BENCH_density.json
gate '[.rows[] | select(col("sandboxes").value == 10000)] | length > 0
      and all(col("ratio").value <= 0.25)' BENCH_density.json
gate '[.rows[]] | length > 0 and all(col("vs 100").value <= 1.2 and col("lost").value == 0)' \
    BENCH_density.json

# Artifact gate: the bench stages above rewrote the committed virtual-time
# BENCH files at the repo root. Any byte of drift is a behaviour change,
# and so is a BENCH file no commit has seen (`git diff` ignores untracked
# files).
git diff --exit-code -- 'BENCH_*.json'
untracked=$(git status --porcelain -- 'BENCH_*.json' | grep '^??' || true)
[ -z "$untracked" ] || { echo "untracked BENCH files: $untracked" >&2; exit 1; }

# Flake detector: the whole workspace suite — engine fiber switches, density,
# simcheck exploration and the state/rack coherence suites included — twice
# under different host-thread counts. Virtual time must be immune to host
# parallelism — any diff between the two outcome lists is a real
# nondeterminism bug, not a flake to retry.
flake_outcomes() {
    # Wall-clock times differ run to run; the pass/fail ledger must not.
    { RUST_TEST_THREADS="$1" cargo test -q 2>&1 || true; } \
        | grep -E '^(test result:|failures:)' \
        | sed 's/; finished in .*//' | sort
}
# The ledgers go to a private directory, so concurrent runs cannot
# overwrite each other's.
flake_dir=$(mktemp -d)
trap 'rm -rf "$flake_dir"' EXIT
flake_outcomes 1 > "$flake_dir/t1.txt"
flake_outcomes 8 > "$flake_dir/t8.txt"
diff -u "$flake_dir/t1.txt" "$flake_dir/t8.txt"
