#!/usr/bin/env bash
# CI gate for the cake-rs workspace.
#
#   ./ci.sh                full gate: tier-1, all tests, clippy, rustdoc, audit, verify,
#                          the smoke gates, the figure diff against results/,
#                          and 3 passes of the per-layer DNN sizing example
#   ./ci.sh --fast         tier-1 + clippy + rustdoc only (skip audit, verify, the
#                          smoke gates, the figure diff and the DNN example)
#   ./ci.sh --verify       verification suite only (cakectl verify, 256 fuzz cases)
#   ./ci.sh --scale-smoke  one p=4 GEMM sweep asserting pack counters match p=1
#   ./ci.sh --kernel-smoke one f32 GEMM per available kernel tier (portable/
#                          avx2/avx512) and one int8 GEMM per int8 tier (also
#                          amx), asserting pack counters are tier-invariant
#                          and int8 results bit-identical
#   ./ci.sh --dtype-smoke  one GEMM per supported dtype (f32/f64/bf16/int8)
#                          asserting element counters are dtype-invariant and
#                          every dtype's warm path runs allocation-free
#   ./ci.sh --sim-smoke    one deterministic + one fuzzed-ordering event-
#                          simulator run per Table-2 CPU; exits 1 if any
#                          same-tick permutation moves a traffic counter
#   ./ci.sh --tune-smoke   one small-shape autotune run (candidate grid ->
#                          sim ranking -> micro-bench refinement) with
#                          --check: asserts the tuned winner is >= the
#                          closed-form default and that the persisted
#                          cache round-trips through
#                          CakeConfig::autotuned_for
#   ./ci.sh --audit        static analysis only (cakectl audit: unsafe ratchet
#                          with transmute/static-mut ratchets, symbolic bounds
#                          proofs, executor phase checker, and the call-graph
#                          dataflow passes — warm-path alloc-freedom, hot-path
#                          panic-freedom, atomics-ordering protocol)
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
# == simulator, Eq. 4 p-invariance), and the deterministic interleaving
# checker for the panel-ring protocol.
#
# The scale-smoke gate is the CB-block bandwidth claim in one command:
# the executor at p=4 must move exactly the same packed elements as p=1
# (measured traffic-counters, fixed block grid), or cakectl exits 1. It
# also runs the same-host scaling sanity check (cores >= 2p must yield
# speedup > 1). On a single-core host the smoke is skipped with an
# explicit message — the topology clamp would run every p at
# effective_p=1, proving nothing.
#
# The kernel-smoke gate is the dispatch-tier counterpart: one GEMM per
# kernel tier the host supports (always at least portable), same fixed
# block grid for all of them. Pack counters tally live source elements,
# which depend on the block grid and never on the microkernel tile shape
# — so every tier must report identical a/b/c counters or cakectl exits
# 1. This catches a tier whose edge handling silently reads or packs a
# different footprint. A second table runs every int8 tier (AMX included),
# whose exact i32 results must also agree bit for bit.
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

run_kernel_smoke() {
    echo "==> kernel smoke: one GEMM per available tier, pack counters must be tier-invariant"
    cargo run --release -p cake-bench --bin cakectl -- \
        gemm --m 192 --k 192 --n 192 --kernel-smoke
}

run_dtype_smoke() {
    # The narrow-dtype gate: every dtype (f32/f64/bf16/int8) must move
    # exactly the same packed *elements* on one fixed block grid — element
    # movement is a schedule property, only bytes-per-element changes —
    # and every dtype's post-warmup iterations must run allocation-free.
    echo "==> dtype smoke: one GEMM per dtype, element counters must be dtype-invariant"
    cargo run --release -p cake-bench --bin cakectl -- \
        gemm --m 192 --k 192 --n 192 --dtype-smoke
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

run_tune_smoke() {
    # The tuning-loop gate in one command: autotune a small shape end to
    # end (deterministic candidate grid, host-shaped sim ranking, top-K
    # micro-bench with the closed-form default competing), write the
    # winner to a throwaway cache, and --check that (a) the winner never
    # measured below the default and (b) a fresh CakeConfig::autotuned_for
    # sees exactly the persisted entry. Uses a temp cache path so the
    # smoke never pollutes the user's target/cake-tune.json.
    echo "==> tune smoke (cakectl tune --check on a small shape)"
    local cache
    cache=$(mktemp -u /tmp/cake-tune-smoke.XXXXXX.json)
    cargo run --release -p cake-bench --bin cakectl -- \
        tune --m 128 --k 128 --n 128 --dtype f32 --top-k 2 --reps 2 \
        --cache "$cache" --check
    rm -f "$cache"
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

if [[ "${1:-}" == "--kernel-smoke" ]]; then
    run_kernel_smoke
    echo "==> ci.sh: kernel smoke passed"
    exit 0
fi

if [[ "${1:-}" == "--dtype-smoke" ]]; then
    run_dtype_smoke
    echo "==> ci.sh: dtype smoke passed"
    exit 0
fi

if [[ "${1:-}" == "--sim-smoke" ]]; then
    run_sim_smoke
    echo "==> ci.sh: sim smoke passed"
    exit 0
fi

if [[ "${1:-}" == "--tune-smoke" ]]; then
    run_tune_smoke
    echo "==> ci.sh: tune smoke passed"
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
    run_kernel_smoke
    run_dtype_smoke
    run_sim_smoke
    run_tune_smoke
    run_fig_diff
    run_dnn_inference
fi

echo "==> ci.sh: all gates passed"
