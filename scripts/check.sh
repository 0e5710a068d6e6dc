#!/usr/bin/env bash
# Configure + build + test, with warnings-as-errors for src/.
# This is the tier-1 verification command; CI runs exactly this.
#
# SANITIZE=address runs the AddressSanitizer leg instead: build + ctest
# under -fsanitize=address (guards the pooled storage arena against
# overflow/use-after-free), skipping the smoke legs — those measure,
# the sanitizer leg verifies.
#
# SANITIZE=thread runs the ThreadSanitizer leg: the serve dispatcher,
# stage scheduler and fault/runner plumbing under -fsanitize=thread.
# The subset runs serially (-j1): TSan slows execution ~10x, and the
# open-loop dispatch tests assert wall-clock dispatch latency that an
# oversubscribed runner would violate for reasons TSan doesn't care
# about.
#
# SANITIZE=undefined runs the UBSan leg: full ctest under
# -fsanitize=undefined with -fno-sanitize-recover=all, pointed at the
# bit-level dtype converters (bf16/f16 shift-and-round, i8
# quantization) and the rest of the kernel library. The CI matrix
# runs all four legs.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
SANITIZE="${SANITIZE:-}"

if [[ "$SANITIZE" == "address" ]]; then
    BUILD_DIR="${BUILD_DIR:-build-asan}"
    cmake -B "$BUILD_DIR" -S . \
        -DCMAKE_BUILD_TYPE=Release \
        -DMMBENCH_WERROR=ON \
        -DMMBENCH_ASAN=ON
    cmake --build "$BUILD_DIR" -j "$JOBS"
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
    echo "asan leg OK"
    exit 0
fi

if [[ "$SANITIZE" == "thread" ]]; then
    BUILD_DIR="${BUILD_DIR:-build-tsan}"
    cmake -B "$BUILD_DIR" -S . \
        -DCMAKE_BUILD_TYPE=Release \
        -DMMBENCH_WERROR=ON \
        -DMMBENCH_TSAN=ON
    cmake --build "$BUILD_DIR" -j "$JOBS"
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j 1 \
        -R '^(test_core|test_pipeline|test_serve|test_runner)$'
    # Races show only in some interleavings, so repeat the tests that
    # provoke them: the pool's back-to-back, two-submitter and
    # capped-concurrency tests, and the concurrent-serve tests, whose
    # slots run forwardGraph side by side on one workload under mixed
    # drop masks. On a 4-vCPU host the repeats take about 6 s (pool)
    # and 20 s (concurrent serve).
    "$BUILD_DIR/test_core" --gtest_filter='Parallel.*' --gtest_repeat=50 \
        --gtest_brief=1
    "$BUILD_DIR/test_pipeline" --gtest_filter='ConcurrentServe.*' \
        --gtest_repeat=10 --gtest_brief=1
    echo "tsan leg OK"
    exit 0
fi

if [[ "$SANITIZE" == "undefined" ]]; then
    BUILD_DIR="${BUILD_DIR:-build-ubsan}"
    cmake -B "$BUILD_DIR" -S . \
        -DCMAKE_BUILD_TYPE=Release \
        -DMMBENCH_WERROR=ON \
        -DMMBENCH_UBSAN=ON
    cmake --build "$BUILD_DIR" -j "$JOBS"
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
    echo "ubsan leg OK"
    exit 0
fi

BUILD_DIR="${BUILD_DIR:-build-check}"

cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DMMBENCH_WERROR=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# The benchmark's output checks (benchmark/run.sh exits 1 when its
# "correct" field is false): outputs bitwise against a 1-thread
# reference and against the seed-42 fingerprints in
# benchmark/reference.json, the StagePipe adapter bitwise against
# forwardGraph at the benchmark geometries, and outcome counts that
# sum to requests.
bash benchmark/run.sh --quick

# The JSONL sinks append (trajectory files accumulate across runs),
# but the smoke legs below are a health check validated line by line:
# start them from clean files so stale records from a previous
# check.sh run in the same workspace can't fail (or mask) the checks.
rm -f "$BUILD_DIR"/BENCH_smoke.jsonl "$BUILD_DIR"/BENCH_smoke.csv \
      "$BUILD_DIR"/BENCH_serve.jsonl \
      "$BUILD_DIR"/BENCH_serve_openloop.jsonl \
      "$BUILD_DIR"/BENCH_serve_batch.jsonl \
      "$BUILD_DIR"/BENCH_faults.jsonl \
      "$BUILD_DIR"/BENCH_ops_micro.jsonl \
      "$BUILD_DIR"/BENCH_fusion.jsonl \
      "$BUILD_DIR"/BENCH_precision.jsonl \
      "$BUILD_DIR"/perfdb_fusion.json

# CI smoke run of the kernel microbenchmarks (also exercises the
# parallel runtime end to end). The --json output shares the runner's
# "mmbench-result-v1" schema so kernels and workloads land in one
# per-PR perf trajectory file. Three passes land in the same file so
# the fused-vs-unfused perf guard below can judge each kernel at its
# best-of-three p50 — a single --quick pass is preemption-noisy on a
# loaded CI host.
for _ in 1 2 3; do
    "$BUILD_DIR/ops_micro" --quick \
        --csv "$BUILD_DIR/ops_micro.csv" \
        --json "$BUILD_DIR/BENCH_ops_micro.jsonl"
done

# CI smoke run of the unified runner: one tiny RunSpec per registered
# workload through the JSON sink, plus a registry/CLI sanity check.
"$BUILD_DIR/mmbench" list > /dev/null
"$BUILD_DIR/mmbench" run --smoke --quiet \
    --json "$BUILD_DIR/BENCH_smoke.jsonl" \
    --csv "$BUILD_DIR/BENCH_smoke.csv"

# Serve-mode leg: the same per-workload smoke sweep through the
# stage-graph serving path (4 concurrent in-flight requests), with
# its own JSONL trajectory artifact.
MMBENCH_NUM_THREADS=4 "$BUILD_DIR/mmbench" run --smoke \
    --mode serve --inflight 4 --quiet \
    --json "$BUILD_DIR/BENCH_serve.jsonl"

# Open-loop serving leg: the latency-vs-load experiment sweeps a
# Poisson arrival process across fractions of the measured closed-loop
# capacity and appends raw workload records (queue wait + service
# time, offered vs achieved rate) next to the figure table.
MMBENCH_NUM_THREADS=4 "$BUILD_DIR/mmbench" fig --id load --smoke \
    --json "$BUILD_DIR/BENCH_serve_openloop.jsonl"

# Batched-serve leg: the same saturating arrival stream on a
# multi-encoder workload, served one request per call (static) and
# with the dispatcher batching up to 8 queued requests into one call
# (--max-batch 8), run as 60 paired passes. Pair i runs static first
# when i is even and batched first when i is odd, so neither side
# always meets the warmer host. Validated below: every clean run
# completes every request Ok, the batched side forms multi-request
# batches, and batched p99 must not exceed static's at the same
# offered load (batches amortize per-request graph overhead precisely
# when the backlog is deepest). Per-request outputs do not depend on
# how requests share the slots (test_pipeline's bitwise tests).
#
# Gate rule (a sign test on the paired p99s): batched p99 must be
# strictly lower than static's in at least half of the pairs.
# On a 4-vCPU host batched won 319 of 480 such pairs (8 batches of
# 60; win rate 0.66), 36 of 60 in its weakest batch (0.60). The
# 60-pair gate fails by chance with probability 0.3% at a 0.66 win
# rate and 4.4% at 0.60. A batcher no better than static (win rate
# 0.5) fails it 45% of the time, and one clearly worse (win rate 0.1
# or less) essentially always.
pairs=60
static_args=(--workload transfuser --mode serve --scale 0.25 --batch 2
    --inflight 2 --requests 48 --arrival fixed --rate 8000)
batched_args=("${static_args[@]}" --max-batch 8)
serve_pair_run() {
    MMBENCH_NUM_THREADS=4 "$BUILD_DIR/mmbench" run "$@" --quiet \
        --json "$BUILD_DIR/BENCH_serve_batch.jsonl"
}
for ((pair = 0; pair < pairs; pair++)); do
    if ((pair % 2)); then
        serve_pair_run "${batched_args[@]}"
        serve_pair_run "${static_args[@]}"
    else
        serve_pair_run "${static_args[@]}"
        serve_pair_run "${batched_args[@]}"
    fi
done

python3 - "$BUILD_DIR/BENCH_serve_batch.jsonl" "$pairs" <<'EOF'
import json, statistics, sys
records = [json.loads(line) for line in open(sys.argv[1])]
pairs = int(sys.argv[2])
assert len(records) == 2 * pairs, (
    f"expected {pairs} static + {pairs} batched runs, got {len(records)}")
wins = 0
static_p99, batched_p99 = [], []
for i in range(pairs):
    pair = records[2 * i:2 * i + 2]
    static = [r for r in pair if r["serve"]["coalesce"] == 1]
    batched = [r for r in pair if r["serve"]["coalesce"] == 8]
    assert len(static) == 1 and len(batched) == 1, (
        f"pair {i} is not one static and one batched run")
    for record in pair:
        serve = record["serve"]
        assert serve["ok"] == serve["requests"], (
            f"clean run lost requests: ok={serve['ok']} of {serve['requests']}")
    static, batched = static[0], batched[0]
    assert batched["serve"]["batches"] < batched["serve"]["requests"], (
        "batching formed no multi-request batches at saturation")
    static_p99.append(static["latency_us"]["p99"])
    batched_p99.append(batched["latency_us"]["p99"])
    wins += batched_p99[-1] < static_p99[-1]
need = (pairs + 1) // 2
summary = (f"batched p99 lower in {wins} of {pairs} pairs (need {need}); "
           f"median p99 static {statistics.median(static_p99):.0f} us -> "
           f"batched {statistics.median(batched_p99):.0f} us")
assert wins >= need, "batched-serve gate failed: " + summary
print("batched-serve gate OK:", summary)
EOF

# Fault-injection leg: the fault_tolerance experiment sweeps offered
# load under a fixed fault cocktail, three ways per load point (clean /
# faulted shed=on / faulted shed=off). Validated below: clean configs
# must report identically-zero lifecycle counters (the inert path is
# inert), and at the highest faulted load shedding must not lose
# goodput versus servicing everything late.
MMBENCH_NUM_THREADS=4 "$BUILD_DIR/mmbench" fig --id faults --smoke \
    --json "$BUILD_DIR/BENCH_faults.jsonl"

python3 - "$BUILD_DIR/BENCH_faults.jsonl" <<'EOF'
import json, sys
clean = faulted = 0
by_rate = {}
with open(sys.argv[1]) as fh:
    for line in fh:
        record = json.loads(line)
        assert record["schema"] == "mmbench-result-v1"
        if record.get("kind") == "figure":
            continue
        spec, serve = record["spec"], record["serve"]
        outcomes = (serve["ok"] + serve["degraded"] + serve["shed"] +
                    serve["timeouts"] + serve["failed"])
        assert outcomes == serve["requests"], (
            f"outcomes {outcomes} != requests {serve['requests']}")
        if not spec["faults"]:
            # Zero-fault config: the inert path must report every
            # request Ok and every new counter zero.
            clean += 1
            for key in ("degraded", "shed", "timeouts", "failed",
                        "retries", "faults_injected"):
                assert serve[key] == 0, f"clean run has {key}={serve[key]}"
            assert serve["ok"] == serve["requests"]
        else:
            faulted += 1
            assert serve["faults_injected"] > 0 or serve["retries"] == 0
            by_rate.setdefault(serve["offered_rps"], {})[
                bool(spec["shed"])] = serve["goodput_rps"]
assert clean >= 2 and faulted >= 4, (clean, faulted)
top = by_rate[max(by_rate)]
assert top[True] >= top[False], (
    f"shedding lost goodput at the highest load: "
    f"shed=on {top[True]:.1f} < shed=off {top[False]:.1f} req/s")
print(f"fault-injection smoke OK: {clean} clean + {faulted} faulted runs, "
      f"goodput shed=on {top[True]:.1f} >= shed=off {top[False]:.1f} req/s")
EOF

# Kernel-fusion leg, run as 20 pairs. Each pair starts from an empty
# perf-db: a cold run with the solver registry on must autotune and
# persist it, and a warm run with it must take every solver choice
# from the cache (zero searches, zero search time). The warm run is
# paired with a fusion-off run, the reference timing the fused path is
# compared against; pair i runs fused first when i is even and unfused
# first when i is odd.
#
# Gate rule (a sign test on the paired p50s): fused p50 must be within
# 1.10x of unfused in at least half of the pairs. The epilogue saving
# is a modest fraction of av-mnist's time at this scale, so the gate
# guards against regression rather than demanding a win. A fresh
# perf-db per pair matters: the autotuner's pick can vary between cold
# runs, and a bad pick makes every warm run of that process slow. The
# search warms each candidate once and keeps its best of 3 timed calls;
# in 16 cold runs on an idle host every 5x5 conv key got the implicit
# GEMM lowering, but beside three busy loops the 1-channel 10x10 conv
# still took the 4x slower direct loop in 4 of 16.
# Measured false-fail rate, on a 4-vCPU host at commit 78a4ec7: 0 of
# 50 gates failed (at least 16 of 20 pairs within the bound; 63 of
# 1000 pairs over it, a rate at which chance alone fails the gate with
# probability about 1e-8). With one cold run shared by all 20 pairs
# the gate failed 4 of 40 times, each time with all 20 pairs over.
fusion_pairs=20
fusion_args=(--workload av-mnist --batch 4 --scale 0.5 --warmup 2
    --repeat 20 --quiet)
fused_args=("${fusion_args[@]}" --fusion on --autotune on
    --perfdb "$BUILD_DIR/perfdb_fusion.json")
fusion_run() {
    MMBENCH_NUM_THREADS=4 "$BUILD_DIR/mmbench" run "$@" \
        --json "$BUILD_DIR/BENCH_fusion.jsonl"
}
for ((pair = 0; pair < fusion_pairs; pair++)); do
    rm -f "$BUILD_DIR/perfdb_fusion.json"
    fusion_run "${fused_args[@]}"
    if ((pair % 2)); then
        fusion_run "${fusion_args[@]}"
        fusion_run "${fused_args[@]}"
    else
        fusion_run "${fused_args[@]}"
        fusion_run "${fusion_args[@]}"
    fi
done

python3 - "$BUILD_DIR/BENCH_fusion.jsonl" \
    "$BUILD_DIR/BENCH_ops_micro.jsonl" "$fusion_pairs" <<'EOF'
import json, statistics, sys
records = [json.loads(line) for line in open(sys.argv[1])]
pairs = int(sys.argv[3])
assert len(records) == 3 * pairs, (
    f"expected {pairs} cold/warm/unfused triples, got {len(records)} runs")
within = 0
searches = 0
fused_p50, base_p50 = [], []
for i in range(pairs):
    cold, *pair = records[3 * i:3 * i + 3]
    warm = [r for r in pair if r["spec"].get("fusion_kernels")]
    unfused = [r for r in pair if not r["spec"].get("fusion_kernels")]
    assert len(warm) == 1 and len(unfused) == 1, (
        f"pair {i} is not one fused and one unfused run")
    warm, unfused = warm[0], unfused[0]
    for record in (cold, warm):
        assert record["spec"]["fusion_kernels"] is True
        assert record["spec"]["autotune"] == "on"
        assert record["solver"]["fused_ops"] > 0
        assert record["solver"]["fused_groups"] > 0
    assert cold["solver"]["searches"] > 0, "cold run must autotune"
    searches += cold["solver"]["searches"]
    assert warm["solver"]["searches"] == 0, (
        f"warm run searched {warm['solver']['searches']} times despite "
        f"the populated perf-db")
    assert warm["solver"]["search_ms"] == 0, warm["solver"]["search_ms"]
    assert warm["solver"]["perfdb_hits"] > 0, "warm run must hit the perf-db"
    assert "solver" not in unfused and "fusion_kernels" not in unfused["spec"]
    fused_p50.append(warm["latency_us"]["p50"])
    base_p50.append(unfused["latency_us"]["p50"])
    within += fused_p50[-1] <= base_p50[-1] * 1.10
need = (pairs + 1) // 2
summary = (f"fused p50 within 1.10x of unfused in {within} of {pairs} "
           f"pairs (need {need}); median p50 unfused "
           f"{statistics.median(base_p50):.0f} us -> fused "
           f"{statistics.median(fused_p50):.0f} us")
assert within >= need, "kernel-fusion gate failed: " + summary
ops = {}
for line in open(sys.argv[2]):
    record = json.loads(line)
    if record.get("kind") != "micro":
        continue
    ops.setdefault(record["name"], []).append(record["latency_us"]["p50"])
# Regression guard, not a benchmark: the GEMM/conv epilogue saving is
# a single-digit percentage while CPU-steal noise on a virtualized CI
# host swings single measurements 2x. Fused and unfused p50s from the
# same ops_micro pass are measured seconds apart (same steal weather),
# so judge the per-pass ratio, best pass of three: a genuinely broken
# fused kernel (an extra pass over the tensor) is slower in EVERY
# pass and still trips the bound.
for fused_name, base_name in (
        ("fused_linear_bias_relu_512", "linear_bias_relu_512_unfused"),
        ("fused_conv_bias_relu_56", "conv_bias_relu_56_unfused"),
        ("fused_batchnorm_relu", "batchnorm_relu_unfused")):
    ratios = [f / b for f, b in zip(ops[fused_name], ops[base_name])]
    assert len(ratios) >= 3, f"expected 3 ops_micro passes, got {len(ratios)}"
    assert min(ratios) <= 1.15, (
        f"{fused_name} slower than {base_name} in every pass: "
        f"ratios {[round(r, 2) for r in ratios]}")
print(f"kernel-fusion gate OK: cold searches={searches // pairs} per pair, "
      f"{summary}")
EOF

# Reduced-precision leg: every workload under f32/bf16/f16/i8 via the
# precision experiment. Validated below: all nine workloads emit a
# bf16 record, every reduced record carries the precision error block,
# f32 records carry neither a dtype key nor a precision block (the
# byte-identical default-path contract), and bf16's relative L2 error
# against the identically-seeded f32 reference stays below 1e-2
# everywhere — the headline accuracy claim of the dtype axis.
MMBENCH_NUM_THREADS=4 "$BUILD_DIR/mmbench" fig --id precision --smoke \
    --json "$BUILD_DIR/BENCH_precision.jsonl"

python3 - "$BUILD_DIR/BENCH_precision.jsonl" <<'EOF'
import json, sys
bf16_workloads = {}
f32 = reduced = 0
with open(sys.argv[1]) as fh:
    for line in fh:
        record = json.loads(line)
        assert record["schema"] == "mmbench-result-v1"
        if record.get("kind") == "figure":
            continue
        spec = record["spec"]
        dtype = spec.get("dtype", "f32")
        if dtype == "f32":
            f32 += 1
            assert "dtype" not in spec, "f32 spec must omit the dtype key"
            assert "precision" not in record, "f32 record grew a precision block"
            continue
        reduced += 1
        prec = record["precision"]
        assert prec["dtype"] == dtype, (prec["dtype"], dtype)
        assert prec["max_abs_err"] >= 0 and prec["rel_l2_err"] >= 0
        if dtype == "bf16":
            bf16_workloads[record["name"]] = prec["rel_l2_err"]
assert f32 >= 9 and reduced >= 27, (f32, reduced)
assert len(bf16_workloads) >= 9, (
    f"expected bf16 records for all 9 workloads, got {sorted(bf16_workloads)}")
worst = max(bf16_workloads, key=bf16_workloads.get)
assert bf16_workloads[worst] < 1e-2, (
    f"bf16 rel-L2 {bf16_workloads[worst]:.4f} on {worst} breaches 1e-2")
print(f"precision smoke OK: {len(bf16_workloads)} workloads, "
      f"worst bf16 rel-L2 {bf16_workloads[worst]:.2e} ({worst})")
EOF

# Every emitted line must be valid JSON with the shared schema tag;
# serve records must carry the serve aggregates, open-loop records
# the queue accounting, and the open-loop sweep a p99 that grows
# monotonically with offered load.
python3 - "$BUILD_DIR/BENCH_smoke.jsonl" "$BUILD_DIR/BENCH_serve.jsonl" \
    "$BUILD_DIR/BENCH_serve_openloop.jsonl" \
    "$BUILD_DIR/BENCH_serve_batch.jsonl" \
    "$BUILD_DIR/BENCH_ops_micro.jsonl" \
    "$BUILD_DIR/BENCH_precision.jsonl" <<'EOF'
import json, sys
load_points = []
for path in sys.argv[1:]:
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            assert record["schema"] == "mmbench-result-v1", path
            if record.get("kind") == "figure":
                continue
            assert "latency_us" in record and "p50" in record["latency_us"], path
            if record.get("spec", {}).get("mode") == "serve":
                serve = record["serve"]
                assert serve["inflight"] >= 1 and serve["requests"] >= 1, path
                assert serve["wall_us"] > 0, path
                assert serve["queue_us"]["count"] == serve["requests"], path
                assert serve["queue_us"]["min"] >= 0, path
                assert serve["service_us"]["p50"] > 0, path
                if serve["arrival"] == "closed":
                    assert serve["queue_us"]["max"] == 0, path
                    assert serve["offered_rps"] == 0, path
                else:
                    assert serve["offered_rps"] > 0, path
                    assert serve["achieved_rps"] > 0, path
                if (serve["arrival"] == "poisson"
                        and serve["coalesce"] == 1
                        and record["spec"]["workload"] == "av-mnist"):
                    # The av-mnist rate sweep only: other workloads'
                    # p99s are not comparable on one monotonicity axis.
                    load_points.append(
                        (serve["offered_rps"], record["latency_us"]["p99"]))
assert len(load_points) >= 3, "expected an open-loop rate sweep"
load_points.sort()
for (lo_rate, lo_p99), (hi_rate, hi_p99) in zip(load_points, load_points[1:]):
    assert hi_p99 >= lo_p99, (
        f"p99 not monotone in offered load: {lo_rate:.0f} rps -> {lo_p99:.0f} us "
        f"but {hi_rate:.0f} rps -> {hi_p99:.0f} us")
print("json trajectory files OK:", ", ".join(sys.argv[1:]))
print("open-loop p99 monotone across", len(load_points), "rate points")
EOF
