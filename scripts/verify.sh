#!/usr/bin/env bash
# Full verification gate: release build, the complete test suite, and a
# warnings-as-errors clippy pass over every workspace crate (including the
# vendored dependency shims) — then the same test + clippy gate again with
# the deterministic fault-injection harness compiled in, which unlocks the
# serving stack's robustness acceptance suite (tests/fault_injection.rs).
#
# On top of the blanket suites, the observability layer gets targeted runs
# (golden traces + diagnostics under both feature sets) and an end-to-end
# determinism check: the trace_dump binary is run twice with one seed and
# the JSONL streams must be byte-identical.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --workspace -- -D warnings

# Workspace invariant linter: determinism, panic-freedom on serving paths,
# unsafe hygiene, atomic orderings, fault-site registration. The JSON
# report is kept as a build artifact; any violation fails the gate.
mkdir -p results
if ! cargo run --release -q -p osr-lint -- --format json > results/lint_report.json; then
    echo "verify: FAIL — osr-lint found invariant violations:" >&2
    cargo run --release -q -p osr-lint || true
    exit 1
fi

# Observability lock-in: golden traces, convergence diagnostics, and the
# metrics registry, under the default features...
cargo test -q --test trace_determinism
cargo test -q -p osr-stats --test observability

cargo test -q --features fault-inject
cargo clippy --workspace --all-targets --features fault-inject -- -D warnings

# ...and again with fault injection compiled in (the watchdog hooks sit on
# the traced sweep path, so the stream must not change shape).
cargo test -q --features fault-inject --test trace_determinism
cargo test -q -p osr-stats --features fault-inject --test observability

# Kernel parity: the struct-of-arrays dish bank must replay the legacy
# per-dish arithmetic (bit-exact one-vs-all, tolerance-checked block ratio)
# under both feature sets — the property suite that guards the SoA layout.
cargo test -q -p osr-stats --test bank_equivalence
cargo test -q -p osr-stats --features fault-inject --test bank_equivalence

# Serving benchmark package (its own workspace, not covered by the suites
# above): the unit tests of its percentile, window and report helpers.
cargo test -q --manifest-path perfbench/Cargo.toml

# Method-agnostic serving: CD-OSR through `&dyn CollectiveModel` must be
# bit-identical to the direct path, and every baseline must serve through
# the production BatchServer — under both feature sets, since the fault
# hooks sit on the trait seam.
cargo test -q --test collective_parity
cargo test -q --features fault-inject --test collective_parity
cargo test -q -p osr-baselines
cargo test -q -p osr-baselines --features fault-inject
cargo test -q -p osr-eval

# Durable snapshots: round-trip byte identity, the corruption taxonomy
# (truncation / bit flips / version skew → typed errors, never a panic),
# and the replica-fleet byte-identity suite — under both feature sets,
# since the snapshot fault sites sit on the save/load path.
cargo test -q --test snapshot_persistence
cargo test -q --features fault-inject --test snapshot_persistence

# Multi-tenant front-end: the coalescing invariants (exactly-once answers,
# no cross-tenant mixing, size/deadline flush conditions) and the golden
# coalescing stream at 1/2/8 workers — under both feature sets, since the
# frontend fault sites sit on the enqueue/flush path.
cargo test -q --test frontend_invariants
cargo test -q --features fault-inject --test frontend_invariants
cargo test -q --test frontend_golden
cargo test -q --features fault-inject --test frontend_golden

# Bench-schema staleness: the committed serving benchmark report must carry
# the kernel-invocation counters the SoA refactor added (PR 6) and the
# method tag + serve counters of the method-agnostic schema (v2). A missing
# field means BENCH_serving.json predates the current schema — regenerate it
# with `cargo bench -p osr-bench --bench serving`.
for field in one_vs_all_kernels_per_batch batch_vs_one_kernels_per_batch \
             schema method serve_retries degraded_batches; do
    if ! grep -q "\"$field\"" BENCH_serving.json; then
        echo "verify: FAIL — BENCH_serving.json lacks '$field'; the report is stale," >&2
        echo "        regenerate with: cargo bench -p osr-bench --bench serving" >&2
        exit 1
    fi
done

# Same staleness gate for the snapshot persistence report (save/load
# latency and bytes-on-disk vs. posterior size).
for field in schema snapshot_format_version n_dishes bytes_on_disk save_median_us load_median_us; do
    if ! grep -q "\"$field\"" BENCH_snapshot.json; then
        echo "verify: FAIL — BENCH_snapshot.json lacks '$field'; the report is stale," >&2
        echo "        regenerate with: cargo bench -p osr-bench --bench snapshot" >&2
        exit 1
    fi
done
# A report of an older container format has every field but measures a
# layout the code no longer writes: its version must be the code's.
want=$(sed -n 's/^pub const SNAPSHOT_FORMAT_VERSION: u32 = \([0-9]*\);$/\1/p' crates/stats/src/snapshot.rs)
got=$(sed -n 's/^ *"snapshot_format_version": *\([0-9]*\),*$/\1/p' BENCH_snapshot.json)
if [ -z "$want" ] || [ "$got" != "$want" ]; then
    echo "verify: FAIL — BENCH_snapshot.json reports snapshot_format_version '$got' but" >&2
    echo "        crates/stats/src/snapshot.rs writes '$want'; the report is stale," >&2
    echo "        regenerate with: cargo bench -p osr-bench --bench snapshot" >&2
    exit 1
fi

# Same staleness gate for the front-end load report (sustained open-loop
# throughput and end-to-end latency percentiles through the coalescing
# micro-batch path).
for field in schema sustained_rps p50_ms p99_ms flushes_size flushes_deadline shed; do
    if ! grep -q "\"$field\"" BENCH_frontend.json; then
        echo "verify: FAIL — BENCH_frontend.json lacks '$field'; the report is stale," >&2
        echo "        regenerate with: cargo bench -p osr-bench --bench frontend" >&2
        exit 1
    fi
done

# The committed coalescing golden must match what the front-end emits today:
# the frontend_golden suite regenerates nothing, so byte-diff the file's
# in-repo copy against a fresh UPDATE_GOLDENS run in a scratch checkout of
# the golden only.
cp tests/goldens/frontend_stream.jsonl results/frontend_stream_committed.jsonl
UPDATE_GOLDENS=1 cargo test -q --test frontend_golden coalesced_stream_matches_committed_golden
if ! diff -q tests/goldens/frontend_stream.jsonl results/frontend_stream_committed.jsonl; then
    cp results/frontend_stream_committed.jsonl tests/goldens/frontend_stream.jsonl
    echo "verify: FAIL — regenerated coalescing golden differs from the committed one" >&2
    exit 1
fi

# Two identical seeded serving runs must write byte-identical trace streams.
# (The root `cargo build` above builds only the facade package; the trace and
# fleet binaries live in osr-bench.)
cargo build --release -q -p osr-bench --bin trace_dump --bin replica_fleet
./target/release/trace_dump --seed 2026 --out results/trace_verify_a.jsonl
./target/release/trace_dump --seed 2026 --out results/trace_verify_b.jsonl
if ! diff -q results/trace_verify_a.jsonl results/trace_verify_b.jsonl; then
    echo "verify: FAIL — trace stream is not deterministic across identical runs" >&2
    exit 1
fi

# ...and the CD-OSR batch records of that stream must byte-match the
# committed golden: the CollectiveModel seam is not allowed to change a
# single byte of the CD-OSR trace schema (no `method` key, same field
# order). trace_dump serves the golden suite's exact scene, so its Batch
# lines ARE the golden stream. (`echo` supplies the golden's missing
# trailing newline.)
if ! diff <(tail -n +2 results/trace_verify_a.jsonl) \
          <(cat tests/goldens/batch_stream.jsonl; echo); then
    echo "verify: FAIL — CD-OSR trace stream drifted from tests/goldens/batch_stream.jsonl" >&2
    exit 1
fi

# Replica fleet: one snapshot file, three servers with different worker
# counts. The binary itself asserts save → load → re-save byte identity and
# writes the re-encoded container next to the snapshot; here we re-check
# that on disk, demand every replica's stream byte-matches replica 0's, and
# pin replica 0 to the committed golden (the same truth the golden-trace
# suite serves, so a drift here is a snapshot-codec bug, not a new scene).
./target/release/replica_fleet --seed 2026 --replicas 3 \
    --snapshot results/replica_snapshot.bin --out-dir results
if ! cmp -s results/replica_snapshot.bin results/replica_snapshot.bin.resaved; then
    echo "verify: FAIL — re-saved snapshot container is not byte-identical" >&2
    exit 1
fi
for r in 1 2; do
    if ! diff -q "results/replica_${r}.jsonl" results/replica_0.jsonl; then
        echo "verify: FAIL — replica ${r} trace stream diverged from replica 0" >&2
        exit 1
    fi
done
if ! diff results/replica_0.jsonl tests/goldens/replica_stream.jsonl; then
    echo "verify: FAIL — replica stream drifted from tests/goldens/replica_stream.jsonl" >&2
    exit 1
fi

echo "verify: build + tests + clippy + trace determinism + snapshot durability green (default and fault-inject)"
