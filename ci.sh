#!/usr/bin/env bash
# Repo CI gate. Run from the repo root before pushing:
#
#   ./ci.sh            # full gate: format, lints, build, every test
#   ./ci.sh --quick    # skip the release build (iteration loop)
#
# Everything here runs offline against the vendored workspace (the
# proptest/criterion shims in crates/ — no network, no external deps).
set -euo pipefail
cd "$(dirname "$0")"

quick=0
[ "${1:-}" = "--quick" ] && quick=1

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Protocol-invariant lint (crates/lint): the per-file textual rules plus
# the call-graph semantic passes — PANIC-REACH (no panic reachable from a
# protocol entry point), SECRET-FLOW (key material never reaches a
# formatting/observability sink), ALLOC-HOT (allocation discipline on the
# fixed-limb kernel path and the evidence hot loop; subsumes the old
# limbs.rs allocation grep and the E4 deep-copy grep). The binary exits
# nonzero on any finding not justified in lint-allow.toml AND on stale
# allowlist entries, so no wrapper grep is needed. Full mode also writes
# the SARIF artifact code-scanning UIs ingest.
echo "==> tpnr-lint (rules + semantic passes)"
if [ "$quick" -eq 0 ]; then
    mkdir -p target/artifacts
    cargo run -q -p tpnr-lint -- --sarif target/artifacts/lint.sarif
    echo "    sarif: target/artifacts/lint.sarif"
else
    cargo run -q -p tpnr-lint
fi

if [ "$quick" -eq 0 ]; then
    echo "==> cargo build --release"
    cargo build --release
fi

echo "==> cargo test --workspace"
cargo test --workspace -q

# Bench targets have `test = false` (the criterion shim runs no harness),
# so the test sweep above never compiles them — check they still build.
echo "==> cargo check --benches --workspace"
cargo check --benches --workspace

# Bench smokes: each quick sweep's export must stay machine-readable, and
# the binary itself exits 1 after writing it when a row fails one of its
# gates (the `Gated` impls beside the row structs in
# crates/bench/src/experiments.rs: no lost evidence, conservation, eviction
# engaged, RSA floors, scaling and determinism, §5 attacks rejected). The
# E8 sweep is seeded and all-integer, so a rerun must be byte-identical.
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
for e in e4 e8 e10 e12 e13 e14; do
    echo "==> experiments --bench-$e --quick"
    cargo run -q -p tpnr-bench --bin experiments -- "--bench-$e" "$tmp" --quick
    cargo run -q -p tpnr-bench --bin experiments -- --validate-jsonl "$tmp"
    if [ "$e" = e8 ]; then
        cargo run -q -p tpnr-bench --bin experiments -- --bench-e8 - --quick | cmp - "$tmp"
    fi
done

if [ "$quick" -eq 0 ]; then
    # The observability export must stay machine-readable: produce a trace
    # and re-validate it with the binary's own JSONL checker.
    echo "==> experiments --trace-jsonl / --validate-jsonl"
    cargo run --release -q -p tpnr-bench --bin experiments -- --trace-jsonl "$tmp"
    cargo run --release -q -p tpnr-bench --bin experiments -- --validate-jsonl "$tmp"
fi

echo "CI green."
