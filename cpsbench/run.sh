#!/bin/sh
# Builds the daemon (a binary of the repository's workspace) and the load
# generator (a package of its own) into one target directory, then runs
# the load generator, which finds the daemon next to itself. Run it from
# the repository root:
#   sh cpsbench/run.sh --workload cold-miss --seed 1 --seconds 12 --trace 0
set -eu
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR
cargo build --release --offline --quiet -p cpsdfa-service --bin cpsdfad
cargo build --release --offline --quiet --manifest-path cpsbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/cpsbench" "$@"
