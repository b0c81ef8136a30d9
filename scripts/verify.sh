#!/usr/bin/env bash
# Repo verification gate: formatting, lints (workspace and benchmark
# package), doc links, tier-1 build+test, full workspace tests. Run from
# anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Broken intra-doc links (an entry point renamed or deleted under a doc
# that still names it) fail here. The vendored shims are not this repo's
# code and are left out.
echo "==> cargo doc --workspace (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps \
  --exclude proptest --exclude rand --exclude criterion

# The benchmark package is its own workspace, so the workspace commands above
# stop short of it; lint it here so a crate API change that breaks it
# fails verification, not only the benchmark smoke job.
echo "==> benchmark: cargo fmt --check"
cargo fmt --manifest-path benchmark/Cargo.toml --check

echo "==> benchmark: cargo clippy -- -D warnings"
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q (debug)"
cargo test -q

echo "==> tier-1: cargo test --release -q"
cargo test --release -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "verify: OK"
