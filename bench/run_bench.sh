#!/bin/sh
# Benchmark runner: produces the repo's perf-trajectory artifacts.
#
#   bench/run_bench.sh [BENCH_BIN_DIR] [JSON_OUT]
#
#   BENCH_BIN_DIR  directory with the built bench binaries
#                  (default: build/bench)
#   JSON_OUT       where to write the throughput metrics JSON
#                  (default: BENCH_micro.json in the repo root)
#
# Runs, in order:
#   1. bench_json         -> JSON_OUT (uniform get / insert / update / YCSB-A)
#   2. micro_gbench       -> BENCH_gbench.json next to JSON_OUT (if built)
#   3. fig10_scalability  -> BENCH_fig10.txt next to JSON_OUT
#
# Scale knobs (see bench/common.h): MT_BENCH_KEYS, MT_BENCH_THREADS,
# MT_BENCH_SECS. CI/container defaults keep the run under a few minutes.
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
bin_dir=${1:-"$repo_root/build/bench"}
json_out=${2:-"$repo_root/BENCH_micro.json"}
out_dir=$(cd "$(dirname "$json_out")" && pwd)

if [ ! -x "$bin_dir/bench_json" ]; then
    echo "run_bench.sh: $bin_dir/bench_json not built (cmake --build build)" >&2
    exit 1
fi

echo "== bench_json -> $json_out"
"$bin_dir/bench_json" "$json_out"

# Headline gates, one row per check: "metric predicate". Each metric must
# be present in the JSON, and the awk predicate over its value v must hold.
# Rows, by path:
#   batched reads/writes   multiget/multiput throughput and batch non-zero;
#                          net_batched_puts > 0 means the server coalesces
#                          write runs across connections into Store::multiput
#   range scans            scan_mops non-zero
#   logged writes (§5)     put_logged_mops non-zero; log_overhead_pct finite
#                          (a dead unlogged denominator reads as 0, a dead
#                          logged path as ~100) and at most ov_max, which
#                          catches a pessimized fault-injection seam on the
#                          append path (historical values sit near 0;
#                          override with MT_LOG_OVERHEAD_MAX_PCT);
#                          log_bytes_per_op at most 35 B (the compact framing
#                          measures about 30.5 B for the 8-byte-value duel)
#   1 KiB values           overhead finite (the <10% paper budget is tracked,
#                          but too noisy to hard-gate on one core);
#                          compression ratio > 1 (these values are built to
#                          compress, so 1.0 means the lz path is dead);
#                          arena bytes per 1 KiB key at most 1300 (a 1,048 B
#                          row in the 1088 B class reads ~1146 at
#                          MT_BENCH_KEYS=50000; a 1536 B class reads ~1621)
#   served gets (§6.1)     net_get_mops and net_conns non-zero
#   record cache (Fig. 11) zipf_get_mops non-zero, cache_hit_pct a
#                          percentage, cache_capacity recorded
ov_max=${MT_LOG_OVERHEAD_MAX_PCT:-50}
while read -r metric pred; do
    [ -n "$metric" ] || continue
    # Only a real number counts: nan, -nan or inf reads as missing.
    v=$(sed -n "s/.*\"$metric\": \(-\{0,1\}[0-9][0-9.]*\).*/\1/p" "$json_out")
    if [ -z "$v" ]; then
        echo "run_bench.sh: $metric missing or not a number in $json_out" >&2
        exit 1
    fi
    if ! awk -v v="$v" "BEGIN { v += 0; exit !($pred) }"; then
        echo "run_bench.sh: $metric = $v fails gate: $pred" >&2
        exit 1
    fi
    echo "== $metric = $v ($pred)"
done <<EOF
multiget_mops             v > 0
multiput_mops             v > 0
multiput_batch            v > 0
net_batched_puts          v > 0
scan_mops                 v > 0
put_logged_mops           v > 0
log_overhead_pct          v > -1000 && v < 1000
log_overhead_pct          v <= $ov_max
log_bytes_per_op          v > 0 && v <= 35
log_overhead_1kb_pct      v > -1000 && v < 1000
log_1kb_compression_ratio v > 1.0 && v < 10000
mem_1kb_bytes_per_key     v > 0 && v <= 1300
net_get_mops              v > 0
net_conns                 v > 0
zipf_get_mops             v > 0
cache_hit_pct             v >= 0 && v <= 100
cache_capacity            1
EOF

if [ -x "$bin_dir/micro_gbench" ]; then
    echo "== micro_gbench -> $out_dir/BENCH_gbench.json"
    "$bin_dir/micro_gbench" --benchmark_format=json \
        --benchmark_out="$out_dir/BENCH_gbench.json" \
        --benchmark_out_format=json >/dev/null
else
    echo "== micro_gbench not built (Google Benchmark missing); skipping"
fi

echo "== fig10_scalability -> $out_dir/BENCH_fig10.txt"
"$bin_dir/fig10_scalability" | tee "$out_dir/BENCH_fig10.txt"

# Range-scan sweep (Tree::scan at lengths 10/100/1000) plus the
# allocation-free steady-state check — sec3_scan exits non-zero if the chain
# walk ever allocates per node visit.
echo "== sec3_scan -> $out_dir/BENCH_sec3_scan.txt"
# No pipe to tee here: the pipeline would return tee's status and swallow
# sec3_scan's enforcement exit code under plain POSIX sh.
"$bin_dir/sec3_scan" > "$out_dir/BENCH_sec3_scan.txt"
cat "$out_dir/BENCH_sec3_scan.txt"

echo "== done; headline metrics:"
cat "$json_out"
