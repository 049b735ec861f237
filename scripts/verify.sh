#!/usr/bin/env bash
# Full verification gate: the tier-1 test suite plus formatting, lint,
# the public-API snapshot, the release-only gates and a short run of
# the benchmark harness. Run from anywhere
# inside the repository; CI and pre-merge checks should pass this
# script exactly as-is.
set -euo pipefail
cd "$(dirname "$0")/.."

# The `pub` surface of the smlc crate, one canonical line per item
# (see docs/API.md and the snapshot gate below).
api_snapshot() {
  grep -rhoE '^[[:space:]]*pub (fn|struct|enum|trait|const|type) [A-Za-z_][A-Za-z0-9_]*' crates/core/src \
    | sed -E 's/^[[:space:]]+//' | LC_ALL=C sort -u
}

if [[ "${1:-}" == "--update-api-surface" ]]; then
  api_snapshot > tests/api_surface.txt
  echo "updated tests/api_surface.txt ($(wc -l < tests/api_surface.txt) items)"
  exit 0
fi

# The emitted code of the 12x6 figure matrix is pinned in
# crates/bench/tests/codegen_golden.txt, and its CPS sizes and optimizer
# counters in crates/bench/tests/middle_end_golden.txt; a change meant
# to alter them regenerates both files here.
if [[ "${1:-}" == "--update-codegen-golden" ]]; then
  cargo test -q --release -p smlc-bench --test codegen_golden -- --ignored --exact regenerate_codegen_golden
  echo "updated crates/bench/tests/codegen_golden.txt ($(grep -vc '^#' crates/bench/tests/codegen_golden.txt) cells)"
  echo "updated crates/bench/tests/middle_end_golden.txt ($(grep -vc '^#' crates/bench/tests/middle_end_golden.txt) cells)"
  exit 0
fi

echo "== tier-1: build (release) =="
cargo build --release

# Every test binary of the workspace, once, in the dev profile: debug
# assertions are live and VerifyIr::Debug runs every IR verifier. That
# includes the verifier mutation harness (crates/core/tests/verify_ir.rs),
# the differential suites over collectors, dispatch engines, the
# scheduler, batch compiles and hostile bytecode, the compile server,
# the 40-program seeded batch sweep (crates/core/tests/fuzz_programs.rs)
# and the documentation link check (crates/bench/tests/docs_lint.rs).
echo "== tier-1: tests =="
cargo test -q

echo "== rustfmt =="
cargo fmt --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

# Public-API snapshot: the `pub` surface of the smlc crate is pinned in
# tests/api_surface.txt (see docs/API.md). An intentional surface change
# regenerates the file with the same recipe; an accidental one fails
# here.
echo "== public API surface =="
if ! diff -u tests/api_surface.txt <(api_snapshot); then
  echo "error: public API surface drifted from tests/api_surface.txt" >&2
  echo "  regenerate with: scripts/verify.sh --update-api-surface" >&2
  exit 1
fi

# Release-only gates over the figure benchmarks and seeded generated
# corpora (crates/bench/tests/gates.rs): the artifact cache, the
# collectors and the two dispatch engines are outcome-invisible, no GC
# pause exceeds its budget, a hostile tenant exhausts only its own
# quota, and 1000-tenant storms stay solo-identical under every
# policy with EDF meeting every feasible deadline. run_stats_golden
# pins every run's counters: crates/bench/tests/run_stats_golden.txt
# holds a digest of the result, the output and the full RunStats of
# the 72 figure cells under each variant's default VmConfig and of the
# 12 sml.ffb programs under five heap configurations (the storm
# geometry under both engines, a 1,024-word nursery promoting after
# three minors, semispace, a 2,000-cycle pause budget), so any change
# to copy order, promotion, the remembered set or a charge fails it.
# codegen_golden pins the emitted code, CPS sizes and optimizer
# counters of the 72 figure cells (crates/bench/tests/codegen_golden.txt
# and middle_end_golden.txt) in the profile the benchmark compiles in
# too, so a release-only difference in the compiler cannot hide there.
# The seeded batch sweep runs its 200-program release legs
# (docs/ROBUSTNESS.md): once in the default mode and once with every IR
# verifier forced on. The VM's engine and scheduler differentials run
# again in release, the profile the benchmark runs: there an arithmetic
# slip in the threaded engine's accounting (a refund that underflows)
# wraps silently where the dev profile panics, so only a counter
# comparison catches it. The global allocator's unit tests run again in
# release too, the profile the benchmark allocates through: their
# multi-threaded stress test makes 200,000 operations per thread there
# (20,000 in the dev profile). The type store's, the elaborator's and
# the lambda translator's tests run again in release too: types are
# handles indexing the store's arrays, and handle arithmetic is not
# overflow-checked there.
echo "== release gates =="
cargo test -q --release -p smlc-bench --test gates --test run_stats_golden --test codegen_golden
cargo test -q --release -p smlc --test fuzz_programs -- seeded_batch
cargo test -q --release -p sml-vm --test dispatch --test sched
cargo test -q --release -p smlc --lib -- alloc::tests
cargo test -q --release -p sml-types -p sml-elab -p sml-lambda

# The benchmark harness, smlc-bench/, is a package outside the
# workspace that builds the compiler crates from source and names their
# types, so an API change can break it without breaking any workspace
# build. Build it unchanged and run each workload for about a second,
# untraced and traced (the traced run also replays every compile phase
# and prices solo runs); the harness exits 1 on a wrong output. An
# offline build rewrites smlc-bench/Cargo.lock, so the lock is restored
# on exit, and the run records go to a temporary directory.
echo "== smlc-bench harness =="
repo=$(pwd)
bench_tmp=$(mktemp -d)
cp smlc-bench/Cargo.lock "$bench_tmp/Cargo.lock"
trap 'cp "$bench_tmp/Cargo.lock" "$repo/smlc-bench/Cargo.lock"; rm -rf "$bench_tmp"' EXIT
cargo build --release --offline --manifest-path smlc-bench/Cargo.toml
for workload in figure-run compile-cold serve-edit tenant-storm; do
  for trace in 0 1; do
    log="$bench_tmp/$workload-$trace.log"
    if ! (cd "$bench_tmp" && cargo run --release --offline --quiet \
        --manifest-path "$repo/smlc-bench/Cargo.toml" --bin smlc-bench -- \
        --workload "$workload" --seconds 1 --trace "$trace" > "$log" 2>&1); then
      cat "$log" >&2
      echo "error: smlc-bench --workload $workload --trace $trace failed" >&2
      exit 1
    fi
    echo "$workload (trace $trace): ok"
  done
done

echo "verify: all gates passed"
