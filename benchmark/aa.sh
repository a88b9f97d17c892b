#!/usr/bin/env bash
# A/A check: two sets of N runs of every workload on one build, each run
# with another seed. Prints, per workload and end-to-end metric, both sets'
# medians and quartiles, the spread inside each set (distance between the
# quartiles over the median) and the gap between the medians in the worse
# direction. Exits 1 when a gap or a spread (setup_s' spread excepted)
# exceeds the metric's bound in BENCHMARK.json.
#
#   benchmark/aa.sh [N]        # N >= 3, default 3; 10 is what the driver runs
#   benchmark/aa.sh 10 > benchmark/AA.md
set -euo pipefail
cd "$(dirname "$0")/.."
N="${1:-3}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/reads-benchmark"
exec python3 - "$BIN" "$N" <<'EOF'
import json, statistics, subprocess, sys

binary, n = sys.argv[1], int(sys.argv[2])
if n < 3:
    sys.exit("N must be at least 3")
contract = json.load(open("BENCHMARK.json"))
seconds = str(contract["run_seconds"])
metrics = contract["end_to_end"]

def run(workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}

def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med

print(f"# A/A: two sets of {n} runs of {seconds} s on one build, seeds 1..{n} and {n + 1}..{2 * n}\n")
print("| workload | metric | median A | Q1..Q3 A | spread A | median B | Q1..Q3 B | spread B | gap (worse) | bound | |")
print("|---|---|---|---|---|---|---|---|---|---|---|")
bad = 0
for w in contract["workloads"]:
    name = w["name"]
    sets = [[run(name, seed) for seed in range(first, first + n)] for first in (1, n + 1)]
    for m in metrics:
        (ma, a1, a3, sa), (mb, b1, b3, sb) = (summary([r[m["name"]] for r in s]) for s in sets)
        gap = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        spread_ok = m["name"] == "setup_s" or max(sa, sb) <= m["bound"]
        ok = abs(gap) <= m["bound"] and spread_ok
        bad += not ok
        print(f"| {name} | {m['name']} ({m['unit']}) | {ma:.5g} | {a1:.5g}..{a3:.5g} | {sa:.2%} "
              f"| {mb:.5g} | {b1:.5g}..{b3:.5g} | {sb:.2%} | {gap:+.2%} | {m['bound']:.0%} | {'ok' if ok else 'FAIL'} |",
              flush=True)
print(f"\n{bad} of {len(contract['workloads']) * len(metrics)} workload x metric pairs outside their bound.")
sys.exit(1 if bad else 0)
EOF
