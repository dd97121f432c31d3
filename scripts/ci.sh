#!/usr/bin/env bash
# The full local gate: formatting, lints as errors, the rustdoc link
# check, every test, and the smoke runs:
#  * bench_core --smoke gates the active-set engine: on the
#    converged-regime 160-node case (demand x0.2, long warmup)
#    sparsity=true must at least match the dense engine's
#    iterations/sec — the sparse engine wins by skipping work;
#  * chaos_recovery --smoke is the seed-fixed chaos soak — a short run
#    under message loss + staleness + two transient node failures that
#    fails if any NaN escapes into iteration state, if an injected fault
#    is not reported through the incident log, or if utility does not
#    recover to >=95% of the noise-only equilibrium;
#  * churn_soak --smoke is the seed-fixed admission-churn soak — 500
#    iterations with commodity arrivals/departures reshaping the live
#    run every 10 iterations, dense and sparse engines in lockstep;
#    fails if utility goes non-finite, the engines' event logs diverge,
#    or any checkpoint-period utility / final routing table differs in
#    a single bit. bench_core --smoke additionally gates the admission
#    path: incremental admit at 400 nodes must reach 99% of settled
#    utility at least 1.2x faster than a from-scratch rebuild;
#  * scale_smoke --smoke is the scale-tier gate — the sparse-by-default
#    engine on a seeded 10,000-node hierarchical instance, stepped
#    alternately with the same instance padded by 40,000 isolated
#    servers: the two trajectories must be bit-equal (idle nodes change
#    nothing), the padded median step must stay within 1.25x the
#    unpadded one (2.8x when the cost probe and the totals reduction
#    walked all V nodes; SKIP on a 1-core host), an idle server may
#    cost at most 128 bytes of algorithm state whatever the commodity
#    count (72 B; 664 B at J = 16 when the per-commodity node tables
#    were J·V slabs), and neither may allocate in steady state
#    (counting allocator) — catching an O(V) lane or a J·V table
#    creeping back in and per-step allocation storms; after the timed
#    windows it checks ARCHITECTURE invariants 1–4 on the 10,000-node
#    state (validate + every pass-through row bitwise 1.0 — the rows
#    the sparse Γ skips — loop-freedom, flow balance, and finite-
#    difference marginals at 32 seeded routers, half pass-throughs and
#    half deciders) and prints deciders/routers in its TSV line;
#  * mesh_smoke --smoke is the region-sharded mesh gate — a 4-region
#    mesh over the in-process transport must stay bit-identical to the
#    monolithic algorithm with zero incidents under Lossless, produce
#    identical incident logs and reports across same-seed Chaotic runs,
#    reach the lossless convergence verdict under the fault plan, ship
#    ≤0.5× the full-broadcast bytes/iteration once past the bitwise
#    fixed point (delta wire gate), perform zero allocations per
#    converged steady-state step (counting-allocator gate), and on the
#    160-node/16-commodity case cost at most 2 × regions × one
#    monolithic sparse step per iteration (density gate: the workers
#    sweep live arcs, not the dense mirror; SKIP on a 1-core host);
#  * mesh_smoke --socket --smoke is the real-socket gate (ARCHITECTURE
#    invariant 21) — a 2-region loopback Unix-domain mesh must be
#    report-identical to Lossless with zero incidents, a same-seed
#    fault-injected socket mesh must be report- and incident-identical
#    to Chaotic (reads chopped into seeded 1..=31-byte chunks), the
#    lossless UDS run must stay within 2·R·(R−1) syscalls per tick
#    (SocketTransport::io_stats — the demand-driven I/O schedule), and
#    the B9 bench must ship identical bytes/iteration on in-process,
#    UDS, and TCP (syscalls/tick printed per leg); wall-clock p50 tick latency prints SKIP on a degraded
#    single-core host instead of a misleading number. Bounded: the
#    smoke run is a few hundred fixed iterations, no settle loops.
#  * benchmark/run.sh --smoke builds and runs the repository benchmark
#    (its own cargo workspace, so neither clippy nor `cargo test` above
#    compiles it): a PR that breaks the public surface it drives — the
#    dense compute_{tags,flows,marginals}_into replay leg, the mesh
#    runtime, the transports — fails here instead of at the driver.
# On a single-core host the soak bins trim themselves to fit the smoke
# budget (chaos_recovery halves its iteration budget, churn_soak skips
# the ungated post-churn settle leg) and print visible SKIP lines.
# Run from anywhere; always operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo fmt --all -- --check
# `unsafe` may not spread: spn-core forbids it, and only the two
# counting-allocator bins allow it.
diff <(grep -rl 'allow(unsafe_code)' crates/*/src | LC_ALL=C sort) <(printf '%s\n' crates/bench/src/bin/{mesh_smoke,scale_smoke}.rs)
cargo clippy --workspace --all-targets -- -D warnings
# A deleted type must not leave a dangling [`Name`] behind.
RUSTDOCFLAGS='-D rustdoc::broken_intra_doc_links' cargo doc --workspace --no-deps --offline -q
# Dev profile = debug-assertions on: this pass exercises the watchdog /
# checkpoint / chaos invariant checks (including the debug-only internal
# asserts) across the whole workspace.
cargo test --workspace -q
cargo run --release -q -p spn-bench --bin bench_core -- --smoke
cargo run --release -q -p spn-bench --bin chaos_recovery -- --smoke
cargo run --release -q -p spn-bench --bin churn_soak -- --smoke
cargo run --release -q -p spn-bench --bin scale_smoke -- --smoke
cargo run --release -q -p spn-bench --bin mesh_smoke -- --smoke
cargo run --release -q -p spn-bench --bin mesh_smoke -- --socket --smoke
bash benchmark/run.sh --smoke
