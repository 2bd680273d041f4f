#!/usr/bin/env bash
# Tier-1 gate: build, tests, lints, formatting.
#
# `cargo test` covers every jmb crate (the root manifest's default-members).
# Clippy is the only static gate: the repo invariants (panic-free hot paths,
# no host clock or hash containers in simulation code, no ambient
# parallelism, no unsafe, reasoned #[expect]s) live in clippy.toml and the
# [workspace.lints] table, and tests/repo_invariants.rs checks the two that
# no lint expresses (trace taxonomy, ordered merges). See DESIGN.md §3.10.
# Their dynamic counterpart, the schedule-perturbation harness, is CI's
# det-matrix job; run it locally with
#   cargo run --release -p jmb-bench --bin det_harness -- --quick
# The release-only tests and the benchmark's digest pins run in CI's check
# and perfbench jobs; run them locally with
#   cargo test --release --workspace
#   cargo test --release --offline --manifest-path perfbench/Cargo.toml
#   python3 perfbench/selftest.py --seconds 1
#
# The jmb-* packages must be rustfmt-clean; the vendored stand-in crates
# under vendor/ (rand, proptest) are kept byte-comparable to their
# upstreams and are exempt from formatting.
set -euo pipefail
cd "$(dirname "$0")/.."

JMB_PKGS=(-p jmb -p jmb-bench -p jmb-channel -p jmb-city -p jmb-core -p jmb-dsp -p jmb-obs -p jmb-phy -p jmb-scenario -p jmb-sim -p jmb-traffic)

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt "${JMB_PKGS[@]}" -- --check

echo "tier-1 checks passed"
