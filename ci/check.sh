#!/usr/bin/env bash
# Full local gate: configure + build (warnings as errors), unit tests,
# gclint over src/, clang-tidy (when installed), and the three sanitizer
# smoke suites. Everything a PR must survive, runnable on a laptop:
#
#   ci/check.sh            # default build + tests + lint + tidy
#   ci/check.sh --full     # also tsan/asan/ubsan smoke builds (slow)
#
# Exits non-zero on the first failing stage.
set -euo pipefail

cd "$(dirname "$0")/.."

FULL=0
[[ "${1:-}" == "--full" ]] && FULL=1

step() { printf '\n== %s ==\n' "$*"; }

step "configure + build (default preset, -Werror)"
cmake --preset default
cmake --build --preset default -j "$(nproc)"

step "no __muldc3 in the numerics libraries"
# std::complex operator* keeps a call to the C99 Annex G NaN-recovery
# routine behind every product; the FFT, GRAFIC and PM code multiply with
# math::mul (src/math/fft.hpp) instead. Fail if the slow path comes back.
for lib in math grafic ramses; do
  if nm -u "build/src/libgc_${lib}.a" | grep '__muldc3' > /dev/null; then
    echo "libgc_${lib}.a calls __muldc3: use math::mul for complex products" >&2
    exit 1
  fi
done
echo "libgc_math.a, libgc_grafic.a, libgc_ramses.a: no __muldc3"

step "no fused multiply-add in the numerics libraries"
# The AVX-512F instances of the FFT and the PM force gather
# (math/isa.hpp) must round like the SSE2 reference, and AVX-512F has FMA:
# GCC contracts a * b + c into one instruction by default in C++.
# src/CMakeLists.txt compiles these libraries with -ffp-contract=off. Fail
# if a fused multiply-add appears anyway.
for lib in math grafic ramses; do
  if objdump -d "build/src/libgc_${lib}.a" | grep -E 'vfn?m(add|sub)' > /dev/null; then
    echo "libgc_${lib}.a contains a fused multiply-add: build it with -ffp-contract=off" >&2
    exit 1
  fi
done
echo "libgc_math.a, libgc_grafic.a, libgc_ramses.a: no vfmadd/vfmsub/vfnmadd/vfnmsub"

step "no libm floor in the AVX-512 deposit and wrap"
# The baseline x86-64 build has no rounding instruction, so the scalar CIC
# deposit calls libm floor three times per particle. Its AVX-512F
# instance and the wrap's (src/ramses/pm.cpp deposit_avx512,
# src/ramses/particles.cpp wrap_avx512) floor by round-to-minus-infinity.
# Fail if either symbol, or a lambda inside it (which does not inherit the
# target), calls floor, or if either symbol is gone.
objdump -dr -C build/src/libgc_ramses.a | awk '
  /^[0-9a-f]+ </ { inst = ($0 ~ /::(deposit|wrap)_avx512\(/) }
  /^[0-9a-f]+ <.*::deposit_avx512\(/ { deposit = 1 }
  /^[0-9a-f]+ <.*::wrap_avx512\(/ { wrap = 1 }
  inst && /R_X86_64_[A-Z0-9]+[[:space:]]+floor/ { print; bad = 1 }
  END {
    if (!deposit || !wrap) { print "deposit_avx512 or wrap_avx512 not found" > "/dev/stderr"; exit 1 }
    if (bad) { print "an AVX-512 deposit or wrap instance calls floor" > "/dev/stderr"; exit 1 }
  }'
echo "libgc_ramses.a: deposit_avx512 and wrap_avx512 call no floor"

step "no double-modulo index wrap outside math::wrap"
# ((x % n) + n) % n costs two integer divisions per wrapped index. Every
# periodic wrap in the numerics goes through math::wrap
# (src/math/grid3.hpp), whose fallback line is the one place the idiom may
# stand. Fail if it comes back anywhere else in src/ (comments aside).
MODWRAP='%[[:space:]]*[[:alnum:]_]+[[:space:]]*\)?[[:space:]]*\+[[:space:]]*[[:alnum:]_]+[[:space:]]*\)[[:space:]]*%'
if grep -rnE "$MODWRAP" src | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
    grep -vxE 'src/math/grid3.hpp:[0-9]+:  return \(\(x % n\) \+ n\) % n;'; then
  echo "double-modulo wrap in src/: use math::wrap" >&2
  exit 1
fi
echo "src/: every periodic wrap goes through math::wrap"

step "pm_simulation stdout pinned (GRAFIC -> PM -> AMR -> FoF bytes)"
# The whole physics pipeline at 4 pool threads in under a second: a
# change to the ICs, the PM leapfrog or FoF that shows in the printed AMR
# counts or halo catalog (6 significant digits) moves this digest, well
# before the campaign_real stage below. Last-bit drift that the printed
# digits hide is left to the byte oracles in test_ramses.
PM_SHA=$(./build/examples/pm_simulation --n 16 --steps 8 --zoom 2 --threads 4 |
  sha256sum | cut -d' ' -f1)
[[ "$PM_SHA" == "3638841311b4d849bd66a34db06d496c6be216fd4aeb353886629375ff14509d" ]] || {
  echo "pm_simulation stdout moved: sha256 $PM_SHA" >&2
  exit 1
}
echo "pm_simulation --n 16 --steps 8 --zoom 2 --threads 4: sha256 pinned"
# The same pipeline on a 64^3 mesh: 64-point FFT lines and an axis-0
# stride of 4096, shapes the 32^3 mesh above never runs.
PM64_SHA=$(./build/examples/pm_simulation --n 32 --steps 12 --zoom 2 --threads 4 |
  sha256sum | cut -d' ' -f1)
[[ "$PM64_SHA" == "4ef9f607862806f3650aad2f56b4d0187b2f630c3847c6273f86e49349e366b2" ]] || {
  echo "pm_simulation --n 32 stdout moved: sha256 $PM64_SHA" >&2
  exit 1
}
echo "pm_simulation --n 32 --steps 12 --zoom 2 --threads 4: sha256 pinned"

step "galaxy_pipeline results tarball pinned (FoF on five snapshots)"
# HaloMaker on every output, TreeMaker and GalaxyMaker, packed as a
# ramsesZoom2 call ships them: the FoF cell table and pair sweep must
# leave every catalog byte where it was.
GPD=$(mktemp -d)
./build/examples/galaxy_pipeline --out "$GPD/results.tar" > /dev/null
GP_SHA=$(sha256sum "$GPD/results.tar" | cut -d' ' -f1)
rm -rf "$GPD"
[[ "$GP_SHA" == "e1d6131199bc03105f6fa757f829c7f59cdb2b8720b9aa9fc1c513603d789a61" ]] || {
  echo "galaxy_pipeline results tarball moved: sha256 $GP_SHA" >&2
  exit 1
}
echo "galaxy_pipeline --out <tmp>/results.tar: sha256 pinned"

step "quickstart stdout pinned (the paper's C API driving the DES)"
# Section 4's server and client code through the DIET C API: diet_call
# runs the engine until the call completes, and the solve function runs
# GRAFIC -> PM -> FoF at its completion event. Nothing in CI ran it before.
# TMPDIR is unset because the printed paths come from
# temp_directory_path().
QS_SHA=$(env -u TMPDIR ./build/examples/quickstart | sha256sum | cut -d' ' -f1)
[[ "$QS_SHA" == "bb995585d2f728967829c1f0e14cc21907c035b34933caae36bc4dada5fb9916" ]] || {
  echo "quickstart stdout moved: sha256 $QS_SHA" >&2
  exit 1
}
echo "quickstart: sha256 pinned"

step "no thread pool in src/halo/"
# FoF is one serial sweep: in a campaign it runs inside a pool job, where
# regions run inline anyway.
if grep -rn 'parallel::' src/halo; then
  echo "src/halo/ references parallel::: FoF runs serially" >&2
  exit 1
fi
echo "src/halo/: no parallel::"

step "unit tests"
ctest --preset default --output-on-failure -j "$(nproc)"

step "chaos fault-injection suite (ctest -L chaos)"
ctest --preset default -L chaos --output-on-failure

step "no getenv in examples/ or bench/"
# Example and bench binaries are set up by their flags; the only
# environment variables are the library's (GC_THREADS, GC_LOG_LEVEL and the
# GC_TRACE-style observability fallbacks in src/).
if grep -rn 'getenv' examples bench; then
  echo "getenv in examples/ or bench/: add a flag instead" >&2
  exit 1
fi
echo "examples/, bench/: no getenv"

step "gclint over src/"
./build/tools/gclint/gclint src

step "model-checker smoke (ctest -L mc-smoke + mc_explore sweep)"
# Exhaustive DPOR verification of the bounded scenarios (src/mc): every
# inequivalent schedule of each scenario is executed and the invariant
# layer checked on all of them, plus the seeded-mutation detection proofs.
ctest --preset default -L mc-smoke --output-on-failure
./build/examples/mc_explore --json build/BENCH_mc.json
# Tripwires on the sweep: every scenario must explore to completion with
# no violation, and sleep-set reduction must actually prune.
python3 - build/BENCH_mc.json <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
for s in report["scenarios"]:
    print(f'{s["name"]}: explored={s["explored"]} pruned={s["pruned"]}')
    assert s["complete"], f'{s["name"]} hit the execution cap'
    assert not s["violation"], f'{s["name"]} violated an invariant'
    assert s["pruned"] > 0, f'{s["name"]}: sleep sets pruned nothing'
PY

step "bench-smoke (bench_des --quick)"
# Not a benchmark run — a regression tripwire. The floor is set ~10x below
# what this container sustains (see BENCH_des.json) so only a catastrophic
# DES-kernel slowdown, not machine noise, fails the gate.
./build/bench/bench_des --quick --floor 250000 --json build/BENCH_des_smoke.json
# Sampler-on lane tripwire: the full-run record in BENCH_des.json puts the
# time-series sampler under 5% on pingstorm; in the noisy quick run only a
# blowout past 10% fails the gate. bench_des alternates the sampler-off and
# sampler-on lanes five times and records the median of the five per-pair
# ratios as pingstorm_sampled's speedup, so one run slowed by outside load
# cannot trip the gate on its own.
python3 - build/BENCH_des_smoke.json <<'PY'
import json, sys
lanes = {w["name"]: w for w in json.load(open(sys.argv[1]))["workloads"]}
ratio = lanes["pingstorm_sampled"]["speedup"]
print(f"pingstorm with sampler on: {100 * ratio:.1f}% of sampler-off "
      f"(median of alternating pairs)")
assert ratio > 0.90, "time-series sampler overhead blew past 10% on pingstorm"
PY

step "V1 smoke (run_simulation byte identity at 1/2/4 pool threads)"
# End-to-end determinism of the RAMSES run on the pool: bench V1 exits 1
# when a 2- or 4-thread run's snapshots differ from the 1-thread run.
./build/bench/bench_v1_ramses_scaling --json build/BENCH_v1_smoke.json

step "network smoke (bench_network --quick --floor + compat digest gate)"
# The contention-aware flow model, end to end: the congested campaign must
# keep the volatile vs persistent+mct-data makespan separation above 20%,
# MPWide-style striping must beat a single stream on the lossy WAN, and
# the compat row (contention off) must land on the stock paper digest —
# the flow model has to be invisible when disabled.
./build/bench/bench_network --quick --floor \
  --json build/BENCH_network_smoke.json
python3 - build/BENCH_network_smoke.json <<'PY'
import json, sys
rows = json.load(open(sys.argv[1]))
summary = next(r for r in rows if r["table"] == "summary")
compat = next(r for r in rows if r["table"] == "compat")
congested = [r for r in rows if r["table"] == "congested"]
assert summary["separation"] >= 0.20, \
    f'separation {summary["separation"]:.2%} < 20%'
assert summary["striping_gain"] >= 1.05, \
    f'striping gain {summary["striping_gain"]:.2f}x < 1.05x'
assert compat["flows_completed"] == 0, "contention off but flows ran"
assert all(r["flows_completed"] > 0 for r in congested), \
    "contention on but a congested row ran no flows"
assert all(r.get("failed_calls", 0) == 0 for r in rows), \
    "a campaign lost calls"
# Striping is the one WAN-engine path left: pin both rows outright so a
# drift cannot hide behind the ratio gate above.
pinned = {"1-stream": (2308.961, 23626734138, 12),
          "4-stream": (1943.806, 23626736918, 42)}
for r in rows:
    if r["table"] != "striping":
        continue
    got = (r["makespan_s"], r["total_bytes"], r["flows_completed"])
    assert got == pinned[r["mode"]], \
        f'striping {r["mode"]} moved: (makespan_s, total_bytes, ' \
        f'flows_completed) = {got}, pinned {pinned[r["mode"]]}'
    del pinned[r["mode"]]
assert not pinned, f"striping rows missing: {sorted(pinned)}"
print(f'separation {summary["separation"]:.1%}, '
      f'striping gain {summary["striping_gain"]:.2f}x, '
      f'compat digest {compat["science_digest"]}')
PY
# Contention-off digest gate: with the flow model compiled in but
# disabled, the stock 22-sub-sim campaign must still produce the exact
# pre-flow-model science digest.
DN=$(./build/examples/zoom_campaign --subsims 22 --digest | grep 'science digest')
[[ "${DN#*: }" == "f4a58abe6945215d" ]]
echo "contention-off campaign digest pinned (${DN#*: })"
# The scripted single-SED crash (--fault-sed/--fault-at) goes through the
# same process-fault path as fault plans; the campaign must still lose no
# call and land on the stock digest.
DF=$(./build/examples/zoom_campaign --subsims 22 --fault-sed 7 --fault-at 600 --digest)
grep -qF 'failed calls             : 0 (0 resubmissions)' <<<"$DF"
DF=$(grep 'science digest' <<<"$DF")
[[ "${DF#*: }" == "f4a58abe6945215d" ]]
echo "scripted SED crash: 0 failed calls, digest pinned (${DF#*: })"

step "serving smoke (bench_serving --quick + federated digest gate)"
# Same tripwire philosophy as bench-smoke: the quick sweep sustains ~400
# req/s single-MA on this container, so only a serving-path collapse trips
# the 300 floor. bench_serving itself asserts 0 failed calls and digest
# equality across the 1- and 2-MA sweep points.
./build/bench/bench_serving --quick --floor 300 \
  --json build/BENCH_serving_smoke.json
python3 - build/BENCH_serving_smoke.json <<'PY'
import json, sys
runs = json.load(open(sys.argv[1]))["runs"]
assert len(runs) >= 2, "quick sweep lost its MA points"
assert all(r["failed"] == 0 for r in runs), "serving run failed calls"
assert len({r["science_digest"] for r in runs}) == 1, \
    "science digest depends on the MA count"
# Pinned, not only MA-count-invariant: a serving-path change that shifted
# every MA count alike would keep the digests equal to each other.
assert runs[0]["science_digest"] == "1d18977e06011158", \
    f'serving science digest moved: {runs[0]["science_digest"]}'
# The digest sees only what each call computed. The 1-MA state hash also
# covers every call's virtual timestamps and chosen SED, so a change to
# discovery timing or choice (a CPU charge, a tie order) fails here.
assert runs[0]["mas"] == 1 and runs[0]["state_hash"] == "71fd5d1948b39379", \
    f'serving state hash moved: {runs[0]["state_hash"]}'
fed = [r for r in runs if r["mas"] > 1]
assert fed and all(r["peer_forwards"] > 0 for r in fed), \
    "federated run never exercised peer forwarding"
print(f"{len(runs)} serving runs, 0 failed, digest "
      f"{runs[0]['science_digest']} across mas="
      f"{sorted(r['mas'] for r in runs)}, 1-MA state hash "
      f"{runs[0]['state_hash']}")
PY
# The campaign itself must also be MA-count-invariant: the paper's 22
# sub-simulation experiment split across a 2-MA federation has to land on
# the same science digest as the stock single-MA run.
D1=$(./build/examples/zoom_campaign --subsims 22 --digest | grep 'science digest')
D2=$(./build/examples/zoom_campaign --subsims 22 --mas 2 --digest | grep 'science digest')
[[ -n "$D1" && "${D1#*: }" == "${D2#*: }" ]]
echo "campaign digest single-MA == 2-MA federation (${D1#*: })"

step "gcprof over a 22-sub-sim campaign (schema + determinism)"
# Two campaigns, different tie-break seeds: the journal and time-series
# exports must be byte-identical (virtual-time sampling, trace-id-sorted
# export), and gcprof --strict must give every request a complete
# client->MA->LA->SED path whose phases telescope to the latency.
GCP=build/gcprof_ci
mkdir -p "$GCP"
./build/examples/zoom_campaign --subsims 22 \
  --journal "$GCP/j1.jsonl" --timeseries "$GCP/t1.jsonl" \
  --metrics-interval 120 > /dev/null
./build/examples/zoom_campaign --subsims 22 --tie-seed 97 \
  --journal "$GCP/j2.jsonl" --timeseries "$GCP/t2.jsonl" \
  --metrics-interval 120 > /dev/null
cmp "$GCP/j1.jsonl" "$GCP/j2.jsonl"
cmp "$GCP/t1.jsonl" "$GCP/t2.jsonl"
# Schema spot-checks: journal lines carry the path and phase boundaries,
# series lines carry the sampled registry.
grep -q '"path": {"ma": ' "$GCP/j1.jsonl"
grep -q '"phases": {"submitted": ' "$GCP/j1.jsonl"
grep -q '"counters": {' "$GCP/t1.jsonl"
[[ "$(wc -l < "$GCP/j1.jsonl")" == "23" ]]   # zoom1 + 22 zoom2
./build/tools/gcprof/gcprof --journal "$GCP/j1.jsonl" \
  --timeseries "$GCP/t1.jsonl" --strict --json "$GCP/report1.json" \
  > "$GCP/report1.txt"
./build/tools/gcprof/gcprof --journal "$GCP/j2.jsonl" \
  --timeseries "$GCP/t2.jsonl" --strict --json "$GCP/report2.json" \
  > /dev/null
cmp "$GCP/report1.json" "$GCP/report2.json"
grep -q '"complete_paths": 23' "$GCP/report1.json"
grep -q '"violations": \[\]' "$GCP/report1.json"

step "campaign_real smoke (perfbench, 5 s, traced)"
# The real-numerics campaign with its jobs running side by side on the
# pool: the only end-to-end check of concurrent jobs against the pinned
# catalog hash. Every gate (catalog hash, replayed outputs, 1-thread
# bytes, paper campaign) must pass, so the JSON line must read correct.
python3 perfbench/run.py --workload campaign_real --seconds 5 --trace 1 \
  > build/perfbench_campaign_real.txt
tail -n 1 build/perfbench_campaign_real.txt | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
assert result["correct"] is True, "campaign_real: a perfbench gate failed"
print("campaign_real correct:", result["attempted"], "calls,",
      result["failed"], "failed")
'

step "clang-tidy (src/common + src/des)"
if command -v clang-tidy >/dev/null 2>&1; then
  # Focused pass over the foundational modules; the GC_CLANG_TIDY=ON
  # configure option runs it build-wide instead.
  clang-tidy -p build --quiet \
    src/common/*.cpp src/des/*.cpp
else
  echo "clang-tidy not installed; skipping (config: .clang-tidy)"
fi

step "line counts (git ls-files src tests bench examples perfbench tools)"
# Tracked across changes: a PR that adds code should say what it deletes.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  for dir in src tests bench examples perfbench tools; do
    printf '%-9s %7d lines\n' "$dir" "$(git ls-files -z "$dir" | xargs -0 cat | wc -l)"
  done
else
  echo "not a git checkout; skipping"
fi

if [[ "$FULL" == "1" ]]; then
  for san in tsan asan ubsan; do
    step "${san} smoke"
    cmake --preset "${san}"
    cmake --build --preset "${san}" -j "$(nproc)"
    ctest --preset "${san}-smoke"
  done
else
  echo
  echo "Skipped sanitizer smoke suites (run with --full)."
fi

echo
echo "All checks passed."
