#!/usr/bin/env bash
# Full local gate: release build, workspace tests, strict clippy.
# Run from the repository root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release --examples"
cargo build --release --examples

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> benchmark tests: every workload pinned on both seeds, a perturbed pin is caught"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> llama3sim lint (hygiene LINT001-007 + concurrency LOCK001-003: lock hierarchy, condvar discipline, no compute under a guard)"
cargo run --release -q --bin llama3sim -- lint

echo "==> interleave battery: exhaustive bounded-schedule model check of the coalescing protocol"
cargo test -q -p interleave --features interleave_check

# -Z build-std rebuilds std with the sanitizer and needs the nightly's
# rust-src component; without it the stage is skipped, never faked.
if ! cargo +nightly --version >/dev/null 2>&1; then
  echo "==> ThreadSanitizer pass SKIPPED: no nightly toolchain installed"
elif [ ! -f "$(rustc +nightly --print sysroot)/lib/rustlib/src/rust/library/Cargo.lock" ]; then
  echo "==> ThreadSanitizer pass SKIPPED: nightly has no rust-src"
else
  echo "==> ThreadSanitizer pass over the serve tests (nightly)"
  RUSTFLAGS="-Z sanitizer=thread" cargo +nightly test -q -p serve \
    -Z build-std --target x86_64-unknown-linux-gnu
fi

echo "==> serve smoke: start, 4 queries over a socket, clean shutdown"
cargo run --release -q --bin llama3sim -- serve --self-test

echo "==> pre-flight analysis across the conformance grid (zero errors expected)"
cargo run --release -q --bin llama3sim -- analyze --grid

echo "==> conformance fuzz smoke (200 cases)"
cargo run --release -q --bin llama3sim -- fuzz --cases 200 --seed 0xC0FFEE

echo "==> trace smoke: 24 h 405B/16K run in O(log N) memory, three window seeks replay-exact vs the O(N) reference"
cargo run --release -q --bin llama3sim -- trace --smoke

echo "==> goodput: seeded 24 h 405B/16K run under production fault rates"
cargo run --release -q --bin llama3sim -- goodput

echo "==> infer smoke: 405B/16K continuous-batching day across all three traffic shapes, thread-count invariant"
cargo run --release -q --bin llama3sim -- infer --grid

echo "==> auto-parallelism search smoke: Table 2's 405B/16K mesh must be on the cp=1 frontier"
cargo run --release -q --bin llama3sim -- search --max-cp 1 --expect 8,1,16,128

echo "==> guided search smoke: gradient-guided strategy must recover the same cp=1 frontier point"
cargo run --release -q --bin llama3sim -- search --guided --max-cp 1 --expect 8,1,16,128

echo "==> all checks passed"
