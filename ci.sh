#!/usr/bin/env bash
# CI gate for the cake-rs workspace.
#
#   ./ci.sh                full gate: tier-1, all tests, clippy, rustdoc, audit, verify,
#                          the scale and sim smokes, the figure diff against results/,
#                          3 passes of the per-layer DNN sizing example, the
#                          quickstart example, a short ukr_bench run (the
#                          microkernel rates and the edge-tile probe),
#                          cake-verify's warm_alloc tests again under
#                          CAKE_KERNEL=avx2 (the capped kernel selection
#                          must stay allocation-free), and cake-dnn's tests
#                          again under CAKE_KERNEL=avx512 (on an AMX host the
#                          int8 convs read B in place; capped, they pack B
#                          for the VNNI kernel, which must meet the same
#                          pinned output hashes)
#   ./ci.sh --fast         tier-1 + clippy + rustdoc only (skip audit, verify, the
#                          smokes, the figure diff and the examples)
#   ./ci.sh --verify       verification suite only (cakectl verify, 256 fuzz cases)
#   ./ci.sh --scale-smoke  one p=4 GEMM sweep asserting pack counters match p=1
#   ./ci.sh --sim-smoke    one deterministic + one fuzzed-ordering event-
#                          simulator run per Table-2 CPU; exits 1 if any
#                          same-tick permutation moves a traffic counter
#   ./ci.sh --audit        static analysis only (cakectl audit, five passes:
#                          unsafe ratchet with transmute/static-mut ratchets,
#                          symbolic bounds proofs, and the call-graph dataflow
#                          passes — warm-path alloc-freedom, hot-path
#                          panic-freedom, atomics ordering with the barrier
#                          facts)
#   ./ci.sh --miri         Miri pass over the pointer-heavy crates (needs a
#                          nightly toolchain with the miri component; skips
#                          gracefully when unavailable so the gate stays green
#                          on the stable-only container)
#   ./ci.sh --tsan         ThreadSanitizer pass over cake-core's sync and
#                          executor tests (needs a nightly toolchain with the
#                          rust-src component; skips gracefully on stable-only
#                          hosts)
#
# The figure diff regenerates every paper table and figure with
# `cakectl fig all` into a temp dir and diffs it against the committed
# results/, so committed figure data cannot go stale. The simulator has
# no wall clock, so the output is identical on every host.
#
# The verify stage runs the cake-verify harness: 256-case differential
# fuzzing (CAKE vs GOTO vs naive; seed via CAKE_TEST_SEED), the
# model-conformance oracle (measured executor counters == analytic traffic
# == simulator, Eq. 4 p-invariance; the counters on every kernel tier of
# f32, f64, bf16 and int8), the deterministic interleaving checker for the
# panel-ring protocol, and the pre-packed-A check (every dtype and tier:
# counters and C bits equal to the row-major run).
#
# The scale-smoke gate is the CB-block bandwidth claim in one command:
# the executor at p=4 must move exactly the same packed elements as p=1
# (measured element counters, fixed block grid), or cakectl exits 1. It
# also runs the same-host scaling sanity check (cores >= 2p must yield
# speedup > 1). On a single-core host the smoke is skipped with an
# explicit message — the topology clamp would run every p at
# effective_p=1, proving nothing.
#
# The tsan stage (./ci.sh --tsan) covers cake-core's sync module and the
# pipelined executor — the sense-reversing SpinBarrier's tests drive
# multi-threaded episodes under an oversubscribed pool, exactly the
# schedule TSan needs to observe the Release/Acquire pairs. TSan's
# happens-before model is the runtime complement of the static
# atomics-ordering pass in cake-audit: the audit proves the declared
# protocol is the one written in the source; TSan checks the protocol the
# hardware actually executes. Needs nightly + rust-src (for -Zbuild-std);
# the pinned stable container has neither, so the stage skips gracefully.
set -euo pipefail
cd "$(dirname "$0")"

run_verify() {
    echo "==> verification suite (cakectl verify)"
    cargo run --release -p cake-bench --bin cakectl -- verify --cases 256
}

run_scale_smoke() {
    # The counter half of the gate is meaningful at any core count, but a
    # single-core host cannot exercise real parallelism (the topology
    # clamp runs every p at effective_p=1), so say why we skip instead of
    # reporting a vacuous pass.
    local cores
    cores=$(nproc 2>/dev/null || echo 1)
    if [[ "$cores" -lt 2 ]]; then
        echo "==> scale smoke: SKIPPED — host has $cores core(s); the p-sweep" \
             "would run entirely clamped to effective_p=1"
        return 0
    fi
    echo "==> scale smoke: p in {1,4} sweep on $cores core(s), pack counters must be p-invariant"
    cargo run --release -p cake-bench --bin cakectl -- \
        gemm --m 192 --k 192 --n 192 --threads 1,4 --check-counters
}

run_sim_smoke() {
    # The discrete-event simulator gate: for each Table-2 CPU, one
    # deterministic run (FIFO tie-break) and one 64-seed fuzzed-ordering
    # sweep. cakectl exits 1 on any counter divergence, printing the
    # diverging seed, counter, and event-trace witness — a schedule race
    # in the event machine, caught the same way cake-verify's
    # interleaving DFS catches executor races.
    echo "==> sim smoke (event simulator determinism + ordering fuzz)"
    for cpu in intel amd arm; do
        cargo run --release -p cake-bench --bin cakectl -- \
            sim --cpu "$cpu" --m 600 --k 480 --n 552 --fuzz-orderings 64
        cargo run --release -p cake-bench --bin cakectl -- \
            sim --cpu "$cpu" --m 600 --k 480 --n 552 --algo goto --fuzz-orderings 64
    done
}

run_fig_diff() {
    # fig7 included: the cakectl_cli golden test skips it for time.
    echo "==> figures (cakectl fig all, diffed against results/)"
    local out status=0
    out=$(mktemp -d /tmp/cake-fig.XXXXXX)
    CAKE_RESULTS_DIR="$out" cargo run --release -p cake-bench --bin cakectl -- fig all >/dev/null
    diff -r "$out" results || status=$?
    rm -rf "$out"
    return "$status"
}

run_dnn_inference() {
    # The per-layer sizing tool for DNN changes: three warm passes of the
    # benchmark's net, f32 and int8, so the example keeps running.
    echo "==> dnn_inference (3 warm passes per net)"
    cargo run --release --example dnn_inference -- 3
}

run_quickstart() {
    # The README's first stop: one self-verifying GEMM, then the CB block
    # it ran and the model's promises for that block.
    echo "==> quickstart example"
    cargo run --release --example quickstart
}

run_ukr_bench() {
    # Kernel-only rates, then the best f32 kernel's partial tiles through
    # edge::run_tile next to the full tile: kc = 64, two rounds, so the
    # probe keeps running.
    echo "==> ukr_bench (kc = 64, 2 rounds)"
    cargo run --release -p cake-kernels --example ukr_bench -- 64 2
}

run_warm_alloc_capped() {
    # `cargo test --workspace` already ran warm_alloc with the full kernel
    # ladder; a CAKE_KERNEL cap takes another selection path, which must
    # not allocate on a warm call either.
    echo "==> warm_alloc under CAKE_KERNEL=avx2"
    CAKE_KERNEL=avx2 cargo test -p cake-verify --test warm_alloc -q
}

run_dnn_packed_int8() {
    # `cargo test --workspace` ran cake-dnn with the full ladder, where an
    # AMX host reads the int8 convs' B in place; under the cap the same
    # nets pack B for the VNNI kernel and must meet the same pinned hashes.
    echo "==> cake-dnn tests under CAKE_KERNEL=avx512 (int8 B packed)"
    CAKE_KERNEL=avx512 cargo test -p cake-dnn -q
}

run_audit() {
    echo "==> static analysis (cakectl audit)"
    cargo run --release -p cake-bench --bin cakectl -- audit
}

run_miri() {
    # Interpret the pointer-heavy unit tests under Miri to catch UB the
    # static bounds checker cannot see (uninit reads, provenance misuse).
    # The spin barrier drops to a tiny spin limit under cfg(miri) and the
    # sched_setaffinity syscalls are compiled out, so the executor tests
    # terminate. Requires nightly + the miri component; the pinned stable
    # container has neither, so skip (not fail) when they are missing.
    echo "==> miri (cake-matrix, cake-kernels, cake-core unit tests)"
    if ! cargo +nightly miri --version >/dev/null 2>&1; then
        echo "    miri unavailable (no nightly toolchain with miri component); skipping"
        return 0
    fi
    MIRIFLAGS="-Zmiri-many-seeds=0..4" cargo +nightly miri test \
        -p cake-matrix -p cake-kernels -p cake-core -q
}

run_tsan() {
    # Run the barrier/pool/executor tests under ThreadSanitizer: the
    # multi-threaded episodes those tests drive are exactly the schedules
    # TSan needs to observe the barrier's Release/Acquire pairs and the
    # panel ring's pack/compute handoff. Requires nightly (for
    # -Zsanitizer=thread) and the rust-src component (for -Zbuild-std,
    # which rebuilds std with instrumentation so std sync primitives are
    # visible to the race detector). The pinned stable container has
    # neither, so skip (not fail) when they are missing.
    echo "==> tsan (cake-core sync + executor tests under ThreadSanitizer)"
    if ! cargo +nightly --version >/dev/null 2>&1; then
        echo "    nightly toolchain unavailable; skipping"
        return 0
    fi
    local sysroot
    sysroot=$(rustc +nightly --print sysroot 2>/dev/null || true)
    if [[ -z "$sysroot" || ! -d "$sysroot/lib/rustlib/src/rust/library" ]]; then
        echo "    rust-src component unavailable (needed for -Zbuild-std); skipping"
        return 0
    fi
    local target
    target=$(rustc +nightly -vV | sed -n 's/^host: //p')
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -Zbuild-std \
        --target "$target" -p cake-core --lib -q -- sync:: pool:: executor::
}

if [[ "${1:-}" == "--verify" ]]; then
    run_verify
    echo "==> ci.sh: verification passed"
    exit 0
fi

if [[ "${1:-}" == "--scale-smoke" ]]; then
    run_scale_smoke
    echo "==> ci.sh: scale smoke passed"
    exit 0
fi

if [[ "${1:-}" == "--sim-smoke" ]]; then
    run_sim_smoke
    echo "==> ci.sh: sim smoke passed"
    exit 0
fi

if [[ "${1:-}" == "--audit" ]]; then
    run_audit
    echo "==> ci.sh: audit passed"
    exit 0
fi

if [[ "${1:-}" == "--miri" ]]; then
    run_miri
    echo "==> ci.sh: miri pass done"
    exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
    run_tsan
    echo "==> ci.sh: tsan pass done"
    exit 0
fi

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> full workspace tests"
cargo test --workspace -q

# The benchmark of record is an example, which `cargo test --workspace`
# only builds: run its unit tests (Freivalds check, part minima, self-time
# arithmetic, quantiles) explicitly, in the release profile it runs in.
echo "==> benchmark unit tests (examples/bench)"
cargo test --release --example bench -q

echo "==> clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (deny warnings: broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

if [[ "${1:-}" != "--fast" ]]; then
    run_audit
    run_verify
    run_scale_smoke
    run_sim_smoke
    run_fig_diff
    run_dnn_inference
    run_quickstart
    run_ukr_bench
    run_warm_alloc_capped
    run_dnn_packed_int8
fi

echo "==> ci.sh: all gates passed"
