#!/usr/bin/env bash
# Repository CI entry point: formatting, lints, tests, the fault / crash /
# chaos smokes, and perf no-regression gates on the smoke benchmarks.
# Everything builds with cargo alone; the workspace has no registry
# dependencies, so it runs offline.
#
#   scripts/ci.sh             full run
#   BENCH_GATE_TOL=0.15       tighten the perf gate (default 0.25 = the
#                             fresh indexed-vs-scan speedup may be at most
#                             25% below the committed BENCH_ffd.json)
#   SKIP_BENCH_GATE=1         skip the benchmark gates entirely (e.g. on
#                             noisy shared runners)
#
# A second gate covers the incremental admission engine
# (BENCH_incremental.json): the steady-state churn speedup over
# from-scratch re-runs must stay >= INCR_GATE_MIN (default 5) and may be
# at most BENCH_GATE_TOL below the committed speedup (both sides of the
# ratio run on the same host, so it holds across machines where absolute
# ops/sec would not). The streaming replay's digest must equal the
# committed one. The worker scaling ratio is gated only when the host has
# >= 8 CPUs — on smaller hosts it is reported but not enforced.
#
# A third gate covers the branch-and-bound exact solver (BENCH_bnb.json):
# the number of grid instances the solver decides within its node budget
# (`bnb_solved`) must not drop below the committed baseline. Solved-count
# is capability, not wall-clock, so this gate holds on noisy runners;
# nodes/sec figures are trajectory data only.
#
# A fourth gate covers the supervised admission service
# (BENCH_service.json): the 8-shard panic-recovery phase must stay
# bit-exact, and the batching speedup (pipelined over awaited ops/sec,
# machine-relative) must stay within SVC_GATE_TOL (default 0.5) of the
# committed baseline. On hosts with >= 8 CPUs the TCP connection
# concurrency ratio (8 conns over 1) must reach 2x; below that it is
# reported, not gated. The smoke stage also runs scripts/chaos_smoke.sh —
# the seeded fault storms, the network-chaos exactly-once matrix, and
# both cross-process kill -9 stages (stdin session and TCP with a
# retrying `call` client).
#
# Before the gates, the benchmark package (perfbench/) is built the way
# perfbench/run.py builds it and each workload runs for 1 s; the stage
# fails unless the result line reports `"correct": true` and
# `"failed": 0`.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

echo "== cargo fmt --check" >&2
cargo fmt --all --check
echo "== cargo clippy -D warnings" >&2
cargo clippy --workspace --all-targets -- -D warnings
echo "== cargo test -q (includes the prop_no_panic battery)" >&2
cargo test -q
echo "== fault-injection smoke (scripts/fault_smoke.sh)" >&2
cargo build -q --bins
HETFEAS_BIN=target/debug/hetfeas \
    RUN_EXPERIMENTS_BIN=target/debug/run-experiments \
    bash scripts/fault_smoke.sh
echo "== crash-recovery smoke (scripts/crash_smoke.sh)" >&2
HETFEAS_BIN=target/debug/hetfeas bash scripts/crash_smoke.sh
echo "== chaos smoke (scripts/chaos_smoke.sh)" >&2
HETFEAS_BIN=target/debug/hetfeas bash scripts/chaos_smoke.sh
echo "== benchmark build + 1 s run per workload (perfbench/run.py)" >&2
# run.py builds perfbench/ in release, offline, into its own
# CARGO_TARGET_DIR (default .bench_build) and prints one JSON result line
# last. This stage gates correctness only: every replayed digest and
# verdict must check out, with no failed operation.
for workload in batch-feasibility trace-replay; do
    if ! result="$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
        --trace 0 | tail -n1)"; then
        echo "ci: FAIL — perfbench $workload did not run to a result" >&2
        exit 1
    fi
    if ! grep -q '"correct": true' <<<"$result" || ! grep -Eq '"failed": 0[,}]' <<<"$result"; then
        echo "ci: FAIL — perfbench $workload: ${result:0:300}" >&2
        exit 1
    fi
    echo "ci: perfbench $workload correct, 0 failed — ok" >&2
done

if [[ -n "${SKIP_BENCH_GATE:-}" ]]; then
    echo "== bench gate skipped (SKIP_BENCH_GATE set)" >&2
    exit 0
fi

echo "== bench smoke + no-regression gate" >&2
baseline="$repo/BENCH_ffd.json"
if [[ ! -f "$baseline" ]]; then
    echo "ci: no committed BENCH_ffd.json — nothing to gate against" >&2
    exit 0
fi
fresh="$(mktemp)"
fresh_incr="$(mktemp)"
fresh_bnb="$(mktemp)"
fresh_svc="$(mktemp)"
trap 'rm -f "$fresh" "$fresh_incr" "$fresh_bnb" "$fresh_svc"' EXIT
BENCH_OUT="$fresh" BENCH_INCR_OUT="$fresh_incr" BENCH_BNB_OUT="$fresh_bnb" \
    BENCH_SVC_OUT="$fresh_svc" \
    bash scripts/bench_smoke.sh

# One "m speedup" pair per result row (the row format is emitted by
# the bench_ffd_smoke harness and stable across PRs).
rows() {
    sed -n 's/.*"m": *\([0-9]*\),.*"speedup": *\([0-9.]*\).*/\1 \2/p' "$1"
}

rows "$baseline" | while read -r m base; do
    now="$(rows "$fresh" | awk -v m="$m" '$1 == m { print $2 }')"
    if [[ -z "$now" ]]; then
        echo "ci: FAIL — fresh benchmark lost the m=$m row" >&2
        exit 1
    fi
    awk -v m="$m" -v base="$base" -v now="$now" \
        -v tol="${BENCH_GATE_TOL:-0.25}" 'BEGIN {
        floor = base * (1 - tol)
        if (now < floor) {
            printf "ci: FAIL — m=%s speedup %.2f below gate %.2f (baseline %.2f)\n",
                m, now, floor, base > "/dev/stderr"
            exit 1
        }
        printf "ci: m=%s speedup %.2f vs baseline %.2f — ok\n",
            m, now, base > "/dev/stderr"
    }'
done

echo "== kernel-vs-indexed gate" >&2
# The SoA kernel's speedup over the indexed engine at the headline cell
# (n = 4096, m = 1024) must not regress below the committed baseline
# (modulo BENCH_GATE_TOL). `"kernel_speedup"` has no quote directly
# before the plain-speedup pattern's `s`, so the two fields cannot alias.
krows() {
    sed -n 's/.*"m": *\([0-9]*\),.*"kernel_speedup": *\([0-9.]*\).*/\1 \2/p' "$1"
}
base_kernel="$(krows "$baseline" | awk '$1 == 1024 { print $2 }')"
now_kernel="$(krows "$fresh" | awk '$1 == 1024 { print $2 }')"
if [[ -z "$base_kernel" ]]; then
    echo "ci: baseline has no m=1024 kernel_speedup — kernel gate skipped" >&2
elif [[ -z "$now_kernel" ]]; then
    echo "ci: FAIL — fresh benchmark lost the m=1024 kernel_speedup" >&2
    exit 1
else
    awk -v base="$base_kernel" -v now="$now_kernel" \
        -v tol="${BENCH_GATE_TOL:-0.25}" 'BEGIN {
        floor = base * (1 - tol)
        if (now < floor) {
            printf "ci: FAIL — kernel speedup %.2f at m=1024 below gate %.2f (baseline %.2f)\n",
                now, floor, base > "/dev/stderr"
            exit 1
        }
        printf "ci: kernel speedup %.2f at m=1024 vs baseline %.2f — ok\n",
            now, base > "/dev/stderr"
    }'
fi

echo "== incremental engine gate" >&2
# `"speedup"` only matches the single_thread field ("worker_speedup" has
# no quote directly before the s, so the pattern cannot alias it).
incr_speedup="$(sed -n 's/.*"speedup": *\([0-9.]*\).*/\1/p' "$fresh_incr" | head -n1)"
worker_speedup="$(sed -n 's/.*"worker_speedup": *\([0-9.]*\).*/\1/p' "$fresh_incr" | head -n1)"
host_cpus="$(sed -n 's/.*"host_cpus": *\([0-9]*\).*/\1/p' "$fresh_incr" | head -n1)"
if [[ -z "$incr_speedup" ]]; then
    echo "ci: FAIL — BENCH_incremental.json has no single_thread speedup" >&2
    exit 1
fi
awk -v s="$incr_speedup" -v min="${INCR_GATE_MIN:-5}" 'BEGIN {
    if (s < min) {
        printf "ci: FAIL — incremental churn only %.1fx over from-scratch (gate %sx)\n",
            s, min > "/dev/stderr"
        exit 1
    }
    printf "ci: incremental churn %.1fx over from-scratch (gate %sx) — ok\n",
        s, min > "/dev/stderr"
}'
if [[ -n "$host_cpus" && "$host_cpus" -ge 8 && -n "$worker_speedup" ]]; then
    awk -v s="$worker_speedup" -v cpus="$host_cpus" 'BEGIN {
        if (s < 3) {
            printf "ci: FAIL — ops sharding only %.2fx from 1 to 8 workers on %s cpus\n",
                s, cpus > "/dev/stderr"
            exit 1
        }
        printf "ci: ops sharding %.2fx from 1 to 8 workers on %s cpus — ok\n",
            s, cpus > "/dev/stderr"
    }'
else
    echo "ci: worker scaling ${worker_speedup:-?}x on ${host_cpus:-?} cpus — reported, not gated (< 8 cpus)" >&2
fi

echo "== streaming replay gate" >&2
# The million-op binary-trace replay must stay memory-bounded: the bench
# harness replays it through the pull-based OpStream path and reports the
# process peak RSS (VmHWM). A materialized replay would hold the whole
# decoded op vector and blow through the ceiling.
stream_rss="$(sed -n 's/.*"peak_rss_bytes": *\([0-9]*\).*/\1/p' "$fresh_incr" | head -n1)"
stream_ops_sec="$(sed -n 's/.*"replay_ops_per_sec": *\([0-9.]*\).*/\1/p' "$fresh_incr" | head -n1)"
compact_ns="$(sed -n 's/.*"compaction_amortized_ns_per_op": *\([0-9.]*\).*/\1/p' "$fresh_incr" | head -n1)"
if [[ -z "$stream_rss" || -z "$stream_ops_sec" ]]; then
    echo "ci: FAIL — BENCH_incremental.json has no streaming row (peak_rss_bytes / replay_ops_per_sec)" >&2
    exit 1
fi
if [[ "$stream_rss" == "0" ]]; then
    echo "ci: streaming replay ${stream_ops_sec} ops/s — RSS unreadable on this host, not gated" >&2
else
    awk -v rss="$stream_rss" -v max="${STREAM_RSS_MAX:-134217728}" -v ops="$stream_ops_sec" 'BEGIN {
        if (rss + 0 > max + 0) {
            printf "ci: FAIL — streaming replay peak RSS %d bytes exceeds %d ceiling\n",
                rss, max > "/dev/stderr"
            exit 1
        }
        printf "ci: streaming replay %.0f ops/s at %.1f MiB peak RSS (ceiling %.0f MiB) — ok\n",
            ops, rss / 1048576, max / 1048576 > "/dev/stderr"
    }'
fi
if [[ -n "$compact_ns" ]]; then
    echo "ci: sliced compaction amortized ${compact_ns} ns/op — reported" >&2
else
    echo "ci: FAIL — BENCH_incremental.json has no compaction_amortized_ns_per_op" >&2
    exit 1
fi
# The streamed replay is deterministic: its digest pins the online
# engine's outcomes on a million synthesized ops.
incr_baseline="$repo/BENCH_incremental.json"
stream_digest() {
    sed -n 's/.*"digest": *"\([0-9a-f]*\)".*/\1/p' "$1" | head -n1
}
# Churn speedup no-regression vs the committed baseline (same tolerance
# as the first-fit gate). The speedup divides two throughputs measured on
# the same host, so unlike absolute ops/sec it is comparable across hosts.
churn_speedup() {
    sed -n 's/.*"speedup": *\([0-9.]*\).*/\1/p' "$1" | head -n1
}
if [[ ! -f "$incr_baseline" ]]; then
    echo "ci: no committed BENCH_incremental.json — digest and churn no-regression gates skipped" >&2
else
    base_digest="$(stream_digest "$incr_baseline")"
    now_digest="$(stream_digest "$fresh_incr")"
    if [[ -z "$now_digest" || "$now_digest" != "$base_digest" ]]; then
        echo "ci: FAIL — streaming replay digest '${now_digest:-}' differs from committed '${base_digest:-}'" >&2
        exit 1
    fi
    echo "ci: streaming replay digest $now_digest matches the committed baseline — ok" >&2
    base_churn="$(churn_speedup "$incr_baseline")"
    if [[ -z "$base_churn" ]]; then
        echo "ci: FAIL — committed BENCH_incremental.json has no single_thread speedup" >&2
        exit 1
    fi
    awk -v now="$incr_speedup" -v base="$base_churn" -v tol="${BENCH_GATE_TOL:-0.25}" 'BEGIN {
        if (now < base * (1 - tol)) {
            printf "ci: FAIL — incremental churn speedup %.1fx regressed below baseline %.1fx (tol %.2f)\n",
                now, base, tol > "/dev/stderr"
            exit 1
        }
        printf "ci: incremental churn speedup %.1fx vs baseline %.1fx (tol %.2f) — ok\n",
            now, base, tol > "/dev/stderr"
    }'
fi

echo "== branch-and-bound solved-count gate" >&2
bnb_baseline="$repo/BENCH_bnb.json"
solved() {
    sed -n 's/.*"bnb_solved": *\([0-9]*\).*/\1/p' "$1" | head -n1
}
if [[ ! -f "$bnb_baseline" ]]; then
    echo "ci: no committed BENCH_bnb.json — B&B gate skipped" >&2
else
    base_solved="$(solved "$bnb_baseline")"
    now_solved="$(solved "$fresh_bnb")"
    if [[ -z "$now_solved" ]]; then
        echo "ci: FAIL — fresh BENCH_bnb.json has no bnb_solved count" >&2
        exit 1
    fi
    if (( now_solved < base_solved )); then
        echo "ci: FAIL — B&B decides $now_solved/$(sed -n 's/.*\"grid_size\": *\([0-9]*\).*/\1/p' "$fresh_bnb" | head -n1) grid instances, baseline decided $base_solved" >&2
        exit 1
    fi
    echo "ci: B&B decides $now_solved grid instances (baseline $base_solved) — ok" >&2
fi

echo "== supervised-service gate" >&2
# The service benchmark gates on (a) recovery correctness — 8/8 shards
# must restart bit-exactly after an injected panic storm, the harness
# itself fails otherwise — and (b) the batching speedup (pipelined over
# awaited ops/sec). The speedup is machine-relative, so it holds on
# noisy 1-CPU runners where absolute ops/sec would not.
svc_baseline="$repo/BENCH_service.json"
batching() {
    sed -n 's/.*"batching_speedup": *\([0-9.]*\).*/\1/p' "$1" | head -n1
}
if [[ ! -f "$svc_baseline" ]]; then
    echo "ci: no committed BENCH_service.json — service gate skipped" >&2
else
    grep -q '"bit_exact": true' "$fresh_svc" || {
        echo "ci: FAIL — service recovery was not bit-exact" >&2
        cat "$fresh_svc" >&2
        exit 1
    }
    grep -q '"shards_recovered": 8' "$fresh_svc" || {
        echo "ci: FAIL — service bench recovered fewer than 8 shards" >&2
        cat "$fresh_svc" >&2
        exit 1
    }
    base_batch="$(batching "$svc_baseline")"
    now_batch="$(batching "$fresh_svc")"
    if [[ -z "$now_batch" ]]; then
        echo "ci: FAIL — fresh BENCH_service.json has no batching_speedup" >&2
        exit 1
    fi
    awk -v base="$base_batch" -v now="$now_batch" \
        -v tol="${SVC_GATE_TOL:-0.5}" 'BEGIN {
        floor = base * (1 - tol)
        if (now < floor) {
            printf "ci: FAIL — service batching speedup %.2f below gate %.2f (baseline %.2f)\n",
                now, floor, base > "/dev/stderr"
            exit 1
        }
        printf "ci: service batching speedup %.2f vs baseline %.2f — ok\n",
            now, base > "/dev/stderr"
    }'
    # Connection concurrency: 8 TCP connections must beat 1 by >= 2x —
    # but only where the hardware can overlap them. On a 1-CPU runner
    # the connections time-slice one core, so the ratio is reported
    # trajectory data, not a gate.
    svc_cpus="$(sed -n 's/.*"host_cpus": *\([0-9]*\).*/\1/p' "$fresh_svc" | head -n1)"
    conn_speedup="$(sed -n 's/.*"conn_speedup": *\([0-9.]*\).*/\1/p' "$fresh_svc" | head -n1)"
    if [[ -z "$conn_speedup" ]]; then
        echo "ci: FAIL — fresh BENCH_service.json has no conn_speedup" >&2
        exit 1
    fi
    if [[ -n "$svc_cpus" && "$svc_cpus" -ge 8 ]]; then
        awk -v s="$conn_speedup" -v cpus="$svc_cpus" 'BEGIN {
            if (s < 2.0) {
                printf "ci: FAIL — conn speedup %.2fx on %d cpus, gate needs >= 2x\n",
                    s, cpus > "/dev/stderr"
                exit 1
            }
            printf "ci: conn speedup %.2fx on %d cpus — ok\n", s, cpus > "/dev/stderr"
        }'
    else
        echo "ci: conn speedup ${conn_speedup}x on ${svc_cpus:-?} cpus — reported, not gated (< 8 cpus)" >&2
    fi
fi

echo "ci: all gates passed" >&2
