#!/usr/bin/env bash
# Sanitizer check harness. Builds the library and tests under
# ThreadSanitizer and runs the evaluation-engine suites (the ones that
# exercise the parallel evaluator's frozen-snapshot contract; eval_test
# includes the relation storage-conformance suite and the VM's
# plan-by-plan oracle checks, and integration_test includes the
# differential fuzzer, which compares greedy x index x multiway x
# {sequential, parallel, incremental} with the test-only oracle),
# then repeats the incremental-maintenance fuzzer under ASan+UBSan. Also
# smoke-tests the observability layer: the CLI's --trace/--metrics
# output must be valid JSON, runs a deterministic work-counter
# regression gate (eval.tuples_scanned / eval.index_lookups /
# eval.dedup_probes / eval.plans_compiled on a fixed corpus must stay at
# or below tools/work_counters.baseline, dedup_probes must equal the
# emitted rows -- one dedup probe per derived fact -- and every baseline
# row must name a measured case), and runs
# the datalog lint gate (tools/lint.sh: `datalog-opt check` over every
# checked-in .dl program must report no error diagnostics).
#
#   tools/check.sh            # TSan gate + ASan/UBSan incremental fuzzer
#   tools/check.sh thread     # TSan gate only, explicit
#   tools/check.sh address,undefined   # ASan+UBSan suites instead
#   DATALOG_CHECK_ALL=1 tools/check.sh # run the full ctest suite
#   DATALOG_CHECK_INCR_ASAN=0 tools/check.sh  # skip the extra ASan pass
#
# Benchmarks and examples are skipped: sanitizer builds are for
# correctness, not measurement.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"

configure_and_build() {
  local sanitize="$1"
  local build_dir="${ROOT}/build-sanitize-${sanitize//,/-}"

  echo "== configuring (${sanitize}) into ${build_dir}"
  cmake -B "${build_dir}" -S "${ROOT}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDATALOG_SANITIZE="${sanitize}" \
    -DDATALOG_BUILD_BENCHMARKS=OFF

  echo "== building (${sanitize})"
  cmake --build "${build_dir}" -j "${JOBS}" \
    --target util_test eval_test incr_test obs_test core_test \
             integration_test server_test server_oracle_test datalog-opt
}

# The tracer and metrics registry write their own JSON; make sure a real
# CLI run produces files that actually parse.
validate_obs_json() {
  local build_dir="$1"
  if ! command -v python3 >/dev/null 2>&1; then
    echo "== skipping trace/metrics JSON validation (no python3)"
    return 0
  fi
  local tmp
  tmp="$(mktemp -d)"
  printf 't(x, y) :- e(x, y).\nt(x, z) :- t(x, y), e(y, z).\n' \
    > "${tmp}/p.dl"
  printf 'e(1, 2).\ne(2, 3).\ne(3, 1).\n' > "${tmp}/f.dl"
  "${build_dir}/tools/datalog-opt" eval "${tmp}/p.dl" "${tmp}/f.dl" \
    --trace="${tmp}/trace.json" --metrics="${tmp}/metrics.json" \
    > /dev/null
  python3 -m json.tool "${tmp}/trace.json" > /dev/null
  python3 -m json.tool "${tmp}/metrics.json" > /dev/null
  rm -rf "${tmp}"
  echo "== OK (trace/metrics JSON parses)"
}

# Deterministic work-counter regression gate. Join-order plans are
# resolved once per (rule, delta position) against whole-round sizes, so
# eval.tuples_scanned / eval.index_lookups / eval.dedup_probes /
# eval.plans_compiled are exactly reproducible on a fixed corpus; any
# increase over the checked-in baseline (tools/work_counters.baseline) is
# a planner, matcher, write-path or plan-cache regression, not noise.
# Every emitted row costs exactly one dedup probe, and on these
# negation-free cases every substitution is emitted, so the gate also
# fails unless dedup_probes equals eval.substitutions. Regenerate the
# baseline by pasting this gate's "measured" output after a deliberate
# change.
run_work_counter_gate() {
  local build_dir="$1"
  if ! command -v python3 >/dev/null 2>&1; then
    echo "== skipping work-counter gate (no python3)"
    return 0
  fi
  echo "== running work-counter regression gate"
  local tmp
  tmp="$(mktemp -d)"

  # tc: linear transitive closure over a 48-node chain.
  printf 't(x, y) :- e(x, y).\nt(x, z) :- t(x, y), e(y, z).\n' \
    > "${tmp}/tc.dl"
  : > "${tmp}/tc_facts.dl"
  for i in $(seq 1 47); do
    printf 'e(%d, %d).\n' "$i" $((i + 1)) >> "${tmp}/tc_facts.dl"
  done

  # sg: the classic two-sided same-generation join over a 31-node
  # complete binary tree.
  printf 'sg(x, y) :- flat(x, y).\nsg(x, y) :- up(x, u), sg(u, v), down(v, y).\n' \
    > "${tmp}/sg.dl"
  : > "${tmp}/sg_facts.dl"
  for i in $(seq 2 31); do
    printf 'up(%d, %d).\ndown(%d, %d).\n' "$i" $((i / 2)) $((i / 2)) "$i" \
      >> "${tmp}/sg_facts.dl"
  done
  for i in $(seq 1 31); do
    printf 'flat(%d, %d).\n' "$i" "$i" >> "${tmp}/sg_facts.dl"
  done

  # sel: a selective constant probe next to an unselective scan; greedy
  # ordering must keep the probe first.
  printf 'out(x, y) :- big(x, y), tiny(0, x).\n' > "${tmp}/sel.dl"
  : > "${tmp}/sel_facts.dl"
  for i in $(seq 0 63); do
    printf 'big(%d, %d).\n' "$i" $(((i * 7 + 3) % 64)) >> "${tmp}/sel_facts.dl"
  done
  printf 'tiny(0, 5).\n' >> "${tmp}/sel_facts.dl"

  # tri: a hub-skewed triangle query over a 25-node ring plus one hub
  # connected in both directions. The body's join hypergraph is cyclic
  # with width 2, so the planner selects the worst-case-optimal multiway
  # intersection; this case pins that executor's work counters.
  printf 'tri(x, y, z) :- e(x, y), e(y, z), e(z, x).\n' > "${tmp}/tri.dl"
  : > "${tmp}/tri_facts.dl"
  for i in $(seq 1 24); do
    printf 'e(%d, %d).\ne(0, %d).\ne(%d, 0).\n' "$i" $((i % 24 + 1)) "$i" "$i" \
      >> "${tmp}/tri_facts.dl"
  done

  # min: Fig. 2 minimization (`datalog-opt minimize`) of a fixed
  # planted-redundancy program -- MakePlantedProgram with 2 extensional
  # and 2 intentional predicates, 3 chain rules of 3 atoms, 3 planted
  # atoms, 2 planted rules, seed 3. Its counters sum over all 22
  # containment-test fixpoints, which share one plan cache, so
  # plans_compiled pins the cache's reuse across tests.
  cat > "${tmp}/min.dl" <<'DLEOF'
i0(v0, v1) :- e1(v0, v1).
i0(v0, v3) :- i0(v0, v1), i0(v1, v2), i0(v2, v3).
i0(v0, v3) :- e1(v0, v1), i0(v1, v2), e1(v2, v3).
i0(v0, v3) :- e0(v0, v1), i0(v1, v2), e1(v2, v3), i0(v1, w_1).
i1(v0, v1) :- e0(v0, v1).
i1(v0, v3) :- i0(v0, v1), i0(v1, v2), e0(v2, v3), i0(v1, w_0).
i1(v0, v3) :- i0(v0, v1), e1(v1, v2), i1(v2, v3).
i1(v0, v3) :- i0(v0, v1), e1(v1, v2), e0(v2, v3), e1(v1, w).
i1(v0_2, v1_3) :- e0(v0_2, v1_3).
i1(v0_4, v3_5) :- i0(v0_4, v1_6), e1(v1_6, v2_7), e0(v2_7, v3_5),
                  e1(v1_6, w_8), e1(v1_6, w_8).
DLEOF

  local case_name
  local -a run
  : > "${tmp}/measured.txt"
  for case_name in tc sg sel tri min; do
    if [ "${case_name}" = "min" ]; then
      run=(minimize "${tmp}/min.dl")
    else
      run=(eval "${tmp}/${case_name}.dl" "${tmp}/${case_name}_facts.dl")
    fi
    # minimize narrates its deletions on stderr; show it only on failure.
    if ! "${build_dir}/tools/datalog-opt" "${run[@]}" \
        --metrics="${tmp}/${case_name}_m.json" \
        > /dev/null 2> "${tmp}/stderr"; then
      cat "${tmp}/stderr" >&2
      return 1
    fi
    python3 - "${case_name}" "${tmp}/${case_name}_m.json" \
      >> "${tmp}/measured.txt" <<'PYEOF'
import json, sys
name, path = sys.argv[1], sys.argv[2]
counters = {"eval.tuples_scanned": 0, "eval.index_lookups": 0,
            "eval.dedup_probes": 0, "eval.plans_compiled": 0,
            "eval.substitutions": 0}
with open(path) as f:
    for m in json.load(f)["metrics"]:
        if m["name"] in counters:
            counters[m["name"]] += m["value"]
print(name, counters["eval.tuples_scanned"], counters["eval.index_lookups"],
      counters["eval.dedup_probes"], counters["eval.plans_compiled"],
      counters["eval.substitutions"])
PYEOF
  done

  python3 - "${ROOT}/tools/work_counters.baseline" "${tmp}/measured.txt" <<'PYEOF'
import sys
def load(path):
    rows = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            name, *values = line.split()
            rows[name] = tuple(int(v) for v in values)
    return rows
baseline = load(sys.argv[1])
measured = load(sys.argv[2])
failed = False
for name, (scanned, lookups, dedup, plans, substitutions) in sorted(
        measured.items()):
    if name not in baseline:
        print(f"work-counter gate: no baseline for case '{name}'")
        failed = True
        continue
    base_scanned, base_lookups, base_dedup, base_plans = baseline[name][:4]
    tag = "OK"
    if (scanned > base_scanned or lookups > base_lookups or
            dedup > base_dedup or plans > base_plans):
        tag = "REGRESSION"
        failed = True
    if dedup != substitutions:
        tag = "DEDUP != EMITTED ROWS"
        failed = True
    print(f"  {name}: tuples_scanned {scanned} (baseline {base_scanned}), "
          f"index_lookups {lookups} (baseline {base_lookups}), "
          f"dedup_probes {dedup} (baseline {base_dedup}, emitted rows "
          f"{substitutions}), plans_compiled {plans} (baseline "
          f"{base_plans}) {tag}")
# A baseline row no case measured would otherwise stop gating silently
# when its case leaves the loop above.
for name in sorted(baseline.keys() - measured.keys()):
    print(f"work-counter gate: baseline case '{name}' was not measured")
    failed = True
sys.exit(1 if failed else 0)
PYEOF
  rm -rf "${tmp}"
  echo "== OK (work counters at or below baseline, one dedup probe per row)"
}

# Datalog lint gate: every checked-in .dl program must be free of
# error-severity analyzer diagnostics (tools/lint.sh; warnings allowed,
# corpus inputs carry planted redundancy by design).
run_lint_gate() {
  local build_dir="$1"
  echo "== running datalog lint gate"
  "${ROOT}/tools/lint.sh" "${build_dir}" | tail -1
  echo "== OK (datalog lint)"
}

run_gate() {
  local sanitize="$1"
  local build_dir="${ROOT}/build-sanitize-${sanitize//,/-}"

  echo "== running tests under -fsanitize=${sanitize}"
  cd "${build_dir}"
  if [ "${DATALOG_CHECK_ALL:-0}" = "1" ]; then
    ctest --output-on-failure -j "${JOBS}"
  else
    # The thread-pool, parallel-evaluator, concurrent-relation,
    # incremental-maintenance, and differential tests all live in
    # these suites; eval_test's concurrent-relation tests include row
    # decoding of a frozen relation while another thread interns into
    # the dictionary (the server's query-during-commit pattern).
    # obs_test runs the trace-invariant checks (which drive the parallel
    # engines with tracing enabled), and core_test's metamorphic filter
    # runs the minimizer fuzzer.
    ./tests/util_test
    ./tests/eval_test
    ./tests/incr_test
    ./tests/obs_test
    # The server suites are the epoch-snapshot concurrency gate: pinned
    # readers racing commit publication, worker pools racing the I/O
    # loop, and the 50-seed snapshot-isolation differential oracle.
    ./tests/server_test
    ./tests/server_oracle_test
    ./tests/core_test --gtest_filter='*MinimizeMetamorphic*'
    ./tests/integration_test \
      --gtest_filter='*DifferentialEngine*:*MethodsAgree*:*Incremental*:*TabledTopDown*'
  fi
  cd "${ROOT}"
  validate_obs_json "${build_dir}"
  run_work_counter_gate "${build_dir}"
  run_lint_gate "${build_dir}"

  echo "== OK (${sanitize})"
}

SANITIZE="${1:-thread}"
configure_and_build "${SANITIZE}"
run_gate "${SANITIZE}"

# With the default TSan gate, also fuzz the incremental engine under
# ASan+UBSan: EraseAll invalidates lazy indexes and DRed erases and
# re-adds rows within one commit, which is exactly the churn that
# use-after-free bugs hide in. TSan cannot see those; ASan can.
if [ "${SANITIZE}" = "thread" ] && [ "${DATALOG_CHECK_INCR_ASAN:-1}" = "1" ]; then
  configure_and_build "address,undefined"
  build_dir="${ROOT}/build-sanitize-address-undefined"
  echo "== running incremental fuzzer under -fsanitize=address,undefined"
  cd "${build_dir}"
  ./tests/incr_test
  # *Multiway* adds the worst-case-optimal join matrix (cyclic bodies,
  # multiway x left-deep) to the ASan pass; its id-space scratch buffers
  # and sorted-key caches churn on every replan. *Bytecode* adds the VM's
  # plan-by-plan oracle checks, which run every lowered program shape.
  ./tests/integration_test --gtest_filter='*Incremental*:*Multiway*:*Bytecode*'
  ./tests/eval_test --gtest_filter='*Multiway*:*Hypergraph*:*Bytecode*'
  cd "${ROOT}"
  echo "== OK (address,undefined incremental fuzzer)"
fi
