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
# run with VerifyIr::Debug active (dev profile), and codegen_golden
# asserts there that VerifyIr::Off runs zero checks and that
# VerifyIr::Always never changes the emitted code; here the fuzz smoke
# is repeated in release with every verifier forced on, and the
# mutation harness proves the seeded IR corruptions are rejected at
# their introducing phase.
echo "== verify-ir: mutation harness =="
cargo test -q -p smlc --test verify_ir

echo "== verify-ir: fuzz smoke (release, 200 seeds, VerifyIr::Always) =="
SMLC_VERIFY_IR=always cargo run -q --release -p smlc-bench --bin fuzz_smoke

# Differential fuzz smoke (docs/ROBUSTNESS.md): seeded well-typed
# programs under all six variants, demanding no panic, no trap, and
# identical output. First a short dev-profile pass so debug assertions
# in the compiler and VM are live, then the full release sweep.
echo "== fuzz smoke (dev profile, debug assertions) =="
cargo run -q -p smlc-bench --bin fuzz_smoke -- --seeds=40

echo "== fuzz smoke (release, 200 seeds) =="
cargo run -q --release -p smlc-bench --bin fuzz_smoke

echo "== incremental GC / scheduler differential =="
cargo test -q -p sml-vm --test incremental

# Shared LTY arena gate (docs/ARCHITECTURE.md): the scheduling-
# permutation differential test pins that warm parallel batches are
# byte-identical to the serial cold reference across worker counts and
# shuffled job orders; the intern-storm property test pins exact arena
# accounting under contention.
echo "== arena: scheduling-permutation differential =="
cargo test -q -p smlc --test arena_determinism

echo "== arena: intern-storm accounting =="
cargo test -q -p sml-lambda --test intern_storm

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
# verification) and the hostile-bytecode differential (every bytecode
# corruption in the mutation catalog plus seeded operand perturbations,
# allocation operand lists included, unverified, on the figure
# programs: no panic, engines identical).
echo "== dispatch: engine differential =="
cargo test -q -p sml-vm --test dispatch
cargo test -q -p smlc-bench --test hostile_bytecode

# Scheduler gate (docs/SCHEDULER.md): builder validation, typed
# admission errors, EDF feasibility, starvation aging, overshoot
# accounting, a fault-injected 1000-tenant isolation storm.
echo "== sched: policy suite =="
cargo test -q -p sml-vm --test sched

# Release-only gates over the figure benchmarks and seeded generated
# corpora (crates/bench/tests/gates.rs): the artifact cache, the
# collectors and the two dispatch engines are outcome-invisible, no GC
# pause exceeds its budget, a hostile tenant exhausts only its own
# quota, and 1000-tenant storms stay solo-identical under every
# policy with EDF meeting every feasible deadline. arena_gate times the
# shared LTY arena against per-compile tables; it is a test binary of
# its own, so nothing shares the CPU while it times.
echo "== release gates =="
cargo test -q --release -p smlc-bench --test gates --test arena_gate

# Documentation gate: every relative Markdown link in README.md and
# docs/*.md must resolve (first-party checker, no external deps).
echo "== docs: relative-link check =="
cargo run -q --release -p smlc-bench --bin docs_lint

echo "verify: all gates passed"
