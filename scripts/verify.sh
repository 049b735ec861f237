#!/usr/bin/env bash
# Full verification gate: the tier-1 test suite plus formatting, lint,
# and fuzz checks. Run from anywhere inside the repository; CI and
# pre-merge checks should pass this script exactly as-is.
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
# crates/bench/tests/codegen_golden.txt; a change meant to alter it
# regenerates the file here.
if [[ "${1:-}" == "--update-codegen-golden" ]]; then
  cargo test -q --release -p smlc-bench --test codegen_golden -- --ignored --exact regenerate_codegen_golden
  echo "updated crates/bench/tests/codegen_golden.txt ($(grep -vc '^#' crates/bench/tests/codegen_golden.txt) cells)"
  exit 0
fi

# Bench binaries write their trajectory documents here, never over the
# committed BENCH_pr*.json history.
bench_out="$(mktemp -d)"
trap 'rm -rf "$bench_out"' EXIT

echo "== tier-1: build (release) =="
cargo build --release

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

# Typed-IR verification gate (docs/VERIFY_IR.md). Tier-1 tests already
# run with VerifyIr::Debug active (dev profile); here the fuzz smoke is
# repeated in release with every verifier forced on, the mutation
# harness proves the seeded IR corruptions are rejected at their
# introducing phase, and the overhead benchmark writes BENCH_pr5.json
# while asserting VerifyIr::Off runs zero checks and never changes the
# emitted code.
echo "== verify-ir: mutation harness =="
cargo test -q -p smlc --test verify_ir

echo "== verify-ir: fuzz smoke (release, 200 seeds, VerifyIr::Always) =="
SMLC_VERIFY_IR=always cargo run -q --release -p smlc-bench --bin fuzz_smoke

echo "== verify-ir: overhead bench (BENCH_pr5.json) =="
cargo run -q --release -p smlc-bench --bin verify_bench -- --json="$bench_out/BENCH_pr5.json"

# Differential fuzz smoke (docs/ROBUSTNESS.md): seeded well-typed
# programs under all six variants, demanding no panic, no trap, and
# identical output. First a short dev-profile pass so debug assertions
# in the compiler and VM are live, then the full release sweep.
echo "== fuzz smoke (dev profile, debug assertions) =="
cargo run -q -p smlc-bench --bin fuzz_smoke -- --seeds=40

echo "== fuzz smoke (release, 200 seeds) =="
cargo run -q --release -p smlc-bench --bin fuzz_smoke

# Artifact-cache benchmark: runs the 12x6 matrix cache-off, cold, and
# warm in one reused session, asserts the warm pass is served entirely
# from cache with outcomes byte-identical to the serial cold path, and
# writes the BENCH_pr3.json trajectory.
echo "== cache bench (BENCH_pr3.json) =="
cargo run -q --release -p smlc-bench --bin cache_bench -- --json="$bench_out/BENCH_pr3.json"

# Generational-GC benchmark: sweeps nursery sizes over the figure
# benchmarks against the semispace baseline collector, asserts outputs
# stay byte-identical and that the generational default copies fewer
# total words, and writes the BENCH_pr4.json trajectory.
echo "== gc bench (BENCH_pr4.json) =="
cargo run -q --release -p smlc-bench --bin gc_bench -- --json="$bench_out/BENCH_pr4.json"

# Bounded-pause / tenant-isolation gate (docs/ROBUSTNESS.md): the
# figure benchmarks and a 200-seed progen corpus are run three ways —
# generational stop-the-world, generational with a pause budget, and
# the semispace baseline — demanding byte-identical outputs, identical
# promotion traffic, and zero over-budget pauses; a 16-tenant storm
# with one hostile tenant must exhaust only that tenant's quota while
# the other fifteen finish with their solo results. Writes the
# BENCH_pr7.json trajectory.
echo "== gc pause bench (BENCH_pr7.json) =="
cargo run -q --release -p smlc-bench --bin gc_pause_bench -- --json="$bench_out/BENCH_pr7.json"

echo "== incremental GC / scheduler differential =="
cargo test -q -p sml-vm --test incremental

# Shared LTY arena gate (docs/ARCHITECTURE.md): the scheduling-
# permutation differential test pins that warm parallel batches are
# byte-identical to the serial cold reference across worker counts and
# shuffled job orders; the intern-storm property test pins exact arena
# accounting under contention; the benchmark asserts warm interning
# beats cold and writes the BENCH_pr6.json trajectory.
echo "== arena: scheduling-permutation differential =="
cargo test -q -p smlc --test arena_determinism

echo "== arena: intern-storm accounting =="
cargo test -q -p sml-lambda --test intern_storm

echo "== arena bench (BENCH_pr6.json) =="
cargo run -q --release -p smlc-bench --bin arena_bench -- --json="$bench_out/BENCH_pr6.json"

# Component partition and compile-server gate (docs/ARCHITECTURE.md
# §5, docs/SERVER.md): partitioner edge cases and the disabled v5
# `components` object; the server suite drives concurrent clients, the
# wire protocol's error taxonomy (including the nesting-depth cap), and
# EOF/SIGTERM shutdown of the `smlc serve` binary.
echo "== scc: components + server =="
cargo test -q -p smlc --test components --test server

# Dispatch-engine gate (docs/ARCHITECTURE.md §7): the threaded engine's
# differential suite (trap parity, fault injection and active majors,
# fuel sweeps and slice edges inside every kind of record, stream
# verification), the hostile-bytecode differential (every bytecode
# corruption in the mutation catalog plus seeded operand perturbations,
# allocation operand lists included, unverified, on the figure
# programs: no panic, engines identical), then the bench gate
# proving decode/threaded observational identity over the figure
# benchmarks × all six variants plus a 200-seed progen corpus and
# recording the threaded engine's wall-time geomean. Writes the
# BENCH_pr9.json trajectory.
echo "== dispatch: engine differential =="
cargo test -q -p sml-vm --test dispatch
cargo test -q -p smlc-bench --test hostile_bytecode

echo "== dispatch bench (BENCH_pr9.json) =="
cargo run -q --release -p smlc-bench --bin dispatch_bench -- --json="$bench_out/BENCH_pr9.json"

# Scheduler gate (docs/SCHEDULER.md): the policy suite (builder
# validation, typed admission errors, EDF feasibility, starvation
# aging, overshoot accounting, a fault-injected 1000-tenant isolation
# storm), then the bench gate. sched_bench's round-robin storm is the
# no-regression baseline — every well-behaved tenant must stay
# byte-identical to its solo run under each policy — and its deadline
# curves must show EDF missing nothing on the feasible workload while
# round-robin misses under load. Writes the BENCH_pr10.json trajectory.
echo "== sched: policy suite =="
cargo test -q -p sml-vm --test sched

echo "== sched bench (BENCH_pr10.json) =="
cargo run -q --release -p smlc-bench --bin sched_bench -- --json="$bench_out/BENCH_pr10.json"

# Documentation gate: every relative Markdown link in README.md and
# docs/*.md must resolve (first-party checker, no external deps).
echo "== docs: relative-link check =="
cargo run -q --release -p smlc-bench --bin docs_lint

echo "verify: all gates passed"
