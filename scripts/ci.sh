#!/usr/bin/env bash
# The repository's CI gate: formatting, lints, build, and the full test
# suite. Run from the repository root; fails fast on the first problem.
set -euo pipefail

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release

echo "== cargo test (every suite, once; tests/docs.rs is the doc-link and doc-presence gate, tests/lock_sites.rs the lock-discipline scan)"
cargo test -q --workspace

echo "== cargo doc (first-party crates, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
  -p zmail -p zmail-ap -p zmail-core -p zmail-bench -p zmail-crypto \
  -p zmail-smtp -p zmail-sim -p zmail-econ -p zmail-baselines -p zmail-obs \
  -p zmail-fault -p zmail-store -p zmail-load

echo "== speclint (static analysis of the bundled AP specs)"
cargo run --release -q -p zmail-bench --bin speclint -- --threads 0

echo "== independence artifact (model-vs-harness footprint cross-check)"
cargo run --release -q -p zmail-bench --bin speclint -- --independence-json > /dev/null

echo "== obs smoke (metrics/tracing/exporters end to end)"
cargo run --release -q -p zmail-obs --bin obs_smoke > /dev/null

echo "== SMTP gateway example (real TCP, a mailbox attached: the one place accepted mail is handed on end to end)"
cargo run --release -q --example smtp_gateway > /dev/null

echo "== durability (E16 smoke: every recovery exact, checkpoint bytes <= WAL bytes at every population, a plain engine holds no more log than its older image's tail plus a segment; exits non-zero otherwise)"
cargo run --release -q -p zmail-bench --bin e16_durability -- --smoke > /dev/null

echo "== sharding (E17 smoke)"
cargo run --release -q -p zmail-bench --bin e17_million_users -- --smoke > /dev/null

echo "== parallel equivalence (serial vs threaded E17 runs byte-identical)"
cargo run --release -q -p zmail-bench --bin e17_million_users -- --equivalence > /dev/null

echo "== racecheck (E18 smoke: both worlds checked)"
cargo run --release -q -p zmail-bench --bin e18_racecheck -- --smoke > /dev/null

echo "== flight recorder (E19 smoke)"
cargo run --release -q -p zmail-bench --bin e19_tracing -- --smoke > /dev/null

echo "== adversary campaign smoke (every attack class held, weakened verifiers convicted)"
cargo run --release -q -p zmail-bench --bin e20_adversary -- --smoke > /dev/null

echo "== open-loop overload smoke (sweep shape, liveness, seq conservation)"
cargo run --release -q -p zmail-bench --bin e21_open_loop -- --smoke > /dev/null

echo "== repo benchmark smoke (own workspace: builds against this tree, --locked pins the dependency graph)"
cargo run --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml -- --smoke

echo "== perf records (scripts/bench_diff.sh reads every committed BENCH_*.json; a malformed one fails)"
scripts/bench_diff.sh > /dev/null

echo "CI: all green"
echo "first-party Rust lines (scripts/loc.sh): $(scripts/loc.sh); source outside #[cfg(test)] items, then integration tests and benches (--src): $(scripts/loc.sh --src | awk '$2 == "total" { s = $1 } $2 == "tests" { t = $1 } END { print s ", " t }')"
wire_path=(crates/smtp/src/threaded.rs crates/core/src/backpressure.rs crates/core/src/bridge.rs crates/load/src/runner.rs)
echo "wire path outside #[cfg(test)] (scripts/loc.sh --src): $(scripts/loc.sh --src "${wire_path[@]}" | awk '$2 != "tests" { printf "%s%s %s", sep, $1, $2; sep = ", " }')"
