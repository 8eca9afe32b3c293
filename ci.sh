#!/usr/bin/env bash
# CI entry point: build everything, run the full test pyramid, check style.
#
# The build is fully offline — external dependencies are vendored under
# vendor/ (see README.md) — so this runs in a network-less container.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --release

# The benchmark (perfbench/) is a separate Cargo package that calls only the
# public API of the workspace crates. Build it and run its unit tests here,
# so removing or renaming a public function it uses fails CI rather than the
# benchmark run.
echo "== perfbench: build + unit tests =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --offline --manifest-path perfbench/Cargo.toml

# The whole suite runs twice: single-threaded and on a 4-thread pool. The
# execution layer's determinism contract says results are bit-identical, so
# both runs must pass the *same* assertions.
echo "== cargo test -q (TUCKER_THREADS=1) =="
TUCKER_THREADS=1 cargo test -q

echo "== cargo test -q (TUCKER_THREADS=4) =="
TUCKER_THREADS=4 cargo test -q

# The microkernel determinism contract (ISSUE 8) says the TUCKER_SIMD tier is
# invisible in the result bits. Re-run the kernel-level suites and the
# pipeline determinism suites under a forced-scalar tier and under explicit
# auto-dispatch; both must pass the same bitwise assertions. (The in-process
# force_tier sweeps inside `microkernel`/`simd_tiers` additionally compare
# the tiers directly against each other.)
echo "== linalg + determinism suites (TUCKER_SIMD=scalar) =="
TUCKER_SIMD=scalar cargo test -q -p tucker-linalg
TUCKER_SIMD=scalar cargo test -q --test determinism --test simd_tiers
echo "== linalg + determinism suites (TUCKER_SIMD=auto) =="
TUCKER_SIMD=auto cargo test -q -p tucker-linalg
TUCKER_SIMD=auto cargo test -q --test determinism --test simd_tiers

# The blocking contract (ISSUE 9) says MC/KC/NC only schedule the packed tile
# grid — a TUCKER_BLOCK override must be invisible in the result bits, for
# the raw kernels and for the blocked factorizations built on them. Re-run
# the same suites under a deliberately tiny blocking so every tile-grid edge
# case fires. (The in-process force_blocking sweeps inside `factorizations`/
# `simd_tiers` additionally compare overridden runs against the default.)
echo "== linalg + determinism suites (TUCKER_BLOCK=16,16,16) =="
TUCKER_BLOCK=16,16,16 cargo test -q -p tucker-linalg
TUCKER_BLOCK=16,16,16 cargo test -q --test determinism --test simd_tiers

echo "== cargo test -q --test service (TUCKER_THREADS=1 and 4) =="
# The daemon's concurrency suite under both pool shapes: 8-client
# byte-identity, graceful-shutdown drain, typed-Busy backpressure, and
# both fault-injection batteries must hold on a single-thread pool too.
TUCKER_THREADS=1 cargo test -q --test service
TUCKER_THREADS=4 cargo test -q --test service

echo "== cargo test -q --test streaming (TUCKER_THREADS=32, oversubscribed) =="
# The streaming determinism suite again, on a pool far larger than any CI
# machine has cores: slab decomposition and oversubscription must both be
# invisible in the bits.
TUCKER_THREADS=32 cargo test -q --test streaming

# The transport contract (ISSUE 10) says the backend behind the distmem
# Communicator — in-process threads or TCP-connected spawned processes — is
# invisible in the result bits. Re-run the transport, determinism, and
# distributed-equivalence suites with the TCP backend at 2 and 4 real
# worker processes; the env-driven tests in each suite re-exec this very
# test binary as the worker fleet.
echo "== transport suites (TUCKER_TRANSPORT=tcp, TUCKER_RANKS=2) =="
TUCKER_TRANSPORT=tcp TUCKER_RANKS=2 cargo test -q \
  --test transport --test transport_faults \
  --test determinism --test distributed_equivalence
echo "== transport suites (TUCKER_TRANSPORT=tcp, TUCKER_RANKS=4) =="
TUCKER_TRANSPORT=tcp TUCKER_RANKS=4 cargo test -q \
  --test transport --test transport_faults \
  --test determinism --test distributed_equivalence

echo "== table7_transport (cross-backend artifact-identity gate) =="
# Runs the same distributed ST-HOSVD grid over the in-process and TCP
# backends and diffs the serialized .tkr artifacts byte-for-byte; also
# checks the TCP run moved real bytes on the wire and the in-process run
# moved none. Exits non-zero on any mismatch; the watchdog turns a wedged
# transport into exit code 3.
TUCKER_RANKS=2 cargo run --release -p tucker-bench --bin table7_transport
TUCKER_RANKS=4 cargo run --release -p tucker-bench --bin table7_transport

echo "== table3_storage (storage-layer shape check) =="
# The binary asserts finite compression ratios and round-trip errors within
# the declared eps + quantization budget; any violation exits non-zero.
cargo run --release -p tucker-bench --bin table3_storage

echo "== table4_threads (kernel determinism across thread counts) =="
# Exits non-zero if any multi-threaded kernel produces different results
# than the single-threaded run (smoke shape keeps this fast).
TUCKER_TABLE4_SMOKE=1 cargo run --release -p tucker-bench --bin table4_threads

echo "== table5_memory (out-of-core peak-memory gate) =="
# Tracking-allocator measurement of the compress-and-store pipelines; exits
# non-zero if the streaming path peaks at >= 50% of the in-memory path or
# the two artifacts are not byte-identical.
cargo run --release -p tucker-bench --bin table5_memory

echo "== table6_service (daemon byte-identity + liveness gate) =="
# In-process load generation against the tucker-serve daemon: 8 concurrent
# clients, mixed workload, every response compared bit-for-bit against a
# direct reader. Exits non-zero on any mismatch, lost reply, or deadlock
# (the watchdog turns a wedged service into exit code 3).
TUCKER_TABLE6_SMOKE=1 cargo run --release -p tucker-bench --bin table6_service

echo "== obs_overhead (observability overhead gate) =="
# Full compress→store→query pipeline on the SP surrogate, alternating
# metrics-off / metrics-on trials; exits non-zero if the metrics-on median
# breaks the 5%-plus-jitter-floor budget (ARCHITECTURE §9 contract).
TUCKER_OBS_SMOKE=1 cargo run --release -p tucker-bench --bin obs_overhead

echo "== cargo doc -p tucker-api (missing/broken docs are errors) =="
# The facade crate carries #![deny(missing_docs)]; this pass additionally
# promotes rustdoc warnings (broken intra-doc links, bad code fences) to
# errors so the documented surface cannot rot.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p tucker-api --quiet

echo "== panic-grep gate on the fallible-surface modules =="
# The typed-error surfaces promise "every failure is a returned value":
# the tucker-api facade (Compressor::plan validates everything the core
# drivers would panic on), the shared core validators, the .tkr writer and
# store errors, and the serve/obs/net wire and metrics layers.
# The microkernel hot-path modules (pack/microkernel/simd) make the same
# promise: misconfiguration warns and falls back, it never aborts a kernel.
# Fail CI if a panic!/unwrap/expect/assert lands in them (doc comments and
# #[cfg(test)] modules are stripped before grepping).
gate_ok=1
for f in crates/api/src/lib.rs crates/api/src/error.rs \
         crates/api/src/compressor.rs crates/api/src/query.rs \
         crates/core/src/validate.rs crates/store/src/error.rs \
         crates/store/src/writer.rs \
         crates/serve/src/proto.rs crates/serve/src/client.rs \
         crates/serve/src/metrics.rs crates/obs/src/lib.rs \
         crates/obs/src/metrics.rs crates/obs/src/trace.rs \
         crates/linalg/src/pack.rs crates/linalg/src/microkernel.rs \
         crates/linalg/src/simd.rs crates/linalg/src/blocking.rs \
         crates/net/src/frame.rs crates/net/src/error.rs; do
  if [ ! -f "$f" ]; then
    echo "panic-grep gate: fallible-surface file $f is missing (renamed? update ci.sh)"
    gate_ok=0
    continue
  fi
  if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" \
      | grep -v '^[[:space:]]*//' \
      | grep -nE 'panic!|\.unwrap\(\)|\.expect\(|unreachable!|todo!|unimplemented!|assert!|assert_eq!|assert_ne!' ; then
    echo "panic-grep gate: forbidden pattern in fallible-surface file $f"
    gate_ok=0
  fi
done
if [ "$gate_ok" -ne 1 ]; then
  echo "panic-grep gate FAILED"
  exit 1
fi
echo "panic-grep gate OK"

echo "== cargo fmt --check =="
cargo fmt --check

echo "CI OK"
