#!/usr/bin/env bash
# Regenerate every deterministic file under results/ from the current
# source, then fail unless git sees no change there.
#
# Usage: scripts/check-results.sh   (no arguments; run from any directory)
#
# What it regenerates, in place:
#   - results/<bin>.txt: the stdout of each experiment binary (a1, e1-e6,
#     f1, p1_hotpath, x2-x13);
#   - the JSON reports that p1_hotpath, m1_scenario_matrix, serve_load and
#     trace_profile_gate write (BENCH_hotpath*, BENCH_scenarios*,
#     BENCH_serve*, PROFILE_e5_baseline);
#   - results/serve_example{.jsonl,_prom.txt,_flight.jsonl}: the
#     responses, Prometheus rendering and flight dumps of the
#     `ira serve --example` batch at one worker (runs at 4 and 8 workers
#     must be byte-identical to them; `diff -u` names any that is not);
#   - results/perfbench_digests.txt: the output digests of one-second
#     seed-1 runs of the three perfbench workloads.
# The binaries' own assertions run along the way: m1's per-scenario
# floor, serve_load's worker-invariance and degradation-path checks, and
# the trace query/profile/summarize commands over the E5 trace. The E5
# profile is written twice, at 1 and at 4 threads, so a total that
# depends on the thread count fails the check.
#
# Two files are left alone: results/BENCH_memo_rows.txt and
# results/BENCH_memory_retrieve.txt record host time.
#
# To accept a deliberate change, run this script and commit results/.
set -euo pipefail
export LC_ALL=C
unset CARGO_TARGET_DIR
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet
B=target/release
R=results
T=target/check-results
rm -rf "$T"
mkdir -p "$T"

for bin in a1_ablations e1_conclusions e2_cable_trajectory \
  e3_datacenter_trajectory e4_planning e5_threshold_sweep e6_training_cost \
  f1_pipeline_stages p1_hotpath x2_incidents x3_committee x4_questions \
  x5_poisoning x6_bgp_outage x7_crawler x8_longterm x9_shutdown_policy \
  x10_economics x11_seed_robustness x12_calibration x13_chaos; do
  "$B/$bin" >"$R/$bin.txt"
done
"$B/p1_hotpath" --smoke >/dev/null
"$B/m1_scenario_matrix" >/dev/null
"$B/m1_scenario_matrix" --smoke >/dev/null
"$B/serve_load" >/dev/null
"$B/serve_load" --smoke >/dev/null
"$B/trace_profile_gate" --trace-out "$T/trace_e5.jsonl" >/dev/null
# The profile must not depend on the thread count: the 4-thread run
# rewrites PROFILE_e5_baseline.json, which must equal the 1-thread one.
cp "$R/PROFILE_e5_baseline.json" "$T/profile_t1.json"
"$B/trace_profile_gate" --threads 4 >/dev/null
diff -u "$T/profile_t1.json" "$R/PROFILE_e5_baseline.json"

# The query output is itself a trace, so it must profile; and the whole
# E5 trace must summarize from stdin.
"$B/ira" trace query "$T/trace_e5.jsonl" --stage llm --session 0 >"$T/llm_session0.jsonl"
"$B/ira" trace profile "$T/llm_session0.jsonl" >/dev/null
"$B/ira" trace summarize - <"$T/trace_e5.jsonl" >/dev/null

"$B/ira" serve --example >"$T/serve_requests.jsonl"
serve_example() { # <workers> <responses> <prom> <flight>
  "$B/ira" serve --input "$T/serve_requests.jsonl" --workers "$1" \
    --flight "$T/flight_w$1" >"$2"
  "$B/ira" obs render "$2" --prom >"$3"
  cat "$T/flight_w$1"/*.jsonl >"$4"
}
serve_example 1 "$R/serve_example.jsonl" "$R/serve_example_prom.txt" "$R/serve_example_flight.jsonl"
for w in 4 8; do
  serve_example "$w" "$T/serve_w$w.jsonl" "$T/prom_w$w.txt" "$T/flight_w$w.jsonl"
  diff -u "$R/serve_example.jsonl" "$T/serve_w$w.jsonl"
  diff -u "$R/serve_example_prom.txt" "$T/prom_w$w.txt"
  diff -u "$R/serve_example_flight.jsonl" "$T/flight_w$w.jsonl"
done

for workload in serve_mix bigweb longlived; do
  digests=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 |
    grep -o '"digest[a-z_0-9]*": "[0-9a-f]*"' | paste -sd ' ')
  echo "$workload $digests"
done >"$R/perfbench_digests.txt"

if [ -n "$(git status --porcelain -- "$R")" ]; then
  git status --porcelain -- "$R"
  git --no-pager diff HEAD --stat -- "$R"
  git --no-pager diff HEAD -- "$R"
  echo "check-results: $R/ differs from the committed files above;" \
    "commit $R/ if the change is deliberate" >&2
  exit 1
fi
echo "check-results: every file under $R/ regenerated byte-identical"
