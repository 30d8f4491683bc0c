#!/usr/bin/env bash
# A/A check of the benchmark: two sets of five runs of the same code, seeds
# alternating 1 and 2, every workload with tracing off, each run the command
# BENCHMARK.json names. For every end-to-end metric and workload it prints
# both sets' medians and spreads (interquartile range / median) and checks
# them against the metric's bound in BENCHMARK.json: the medians may differ
# by at most the bound, and the spread of all ten runs must stay within it.
# (A bound is set against the spread of ten runs; for normal noise the
# interquartile range of five runs reads about 10% higher than that of ten
# and varies a third more, so the per-set spreads are printed but not
# checked.) Exits 1 on any disagreement or failed output check.
#
# usage (from anywhere): examples/bench/aa.sh [seconds per run]
set -euo pipefail
cd "$(dirname "$0")/../.."

spec=BENCHMARK.json
field() { python3 -c "import json, sys; v = json.load(open('$spec'))['$1']; print('\n'.join(v) if isinstance(v, list) else v)"; }
mapfile -t cmd < <(field command)
mapfile -t workloads < <(python3 -c "import json; print('\n'.join(w['name'] for w in json.load(open('$spec'))['workloads']))")
secs=${1:-$(field run_seconds)}
out="${CARGO_TARGET_DIR:-target}/bench/aa"
mkdir -p "$out"
rm -f "$out"/set1.jsonl "$out"/set2.jsonl

for set in 1 2; do
  for i in 1 2 3 4 5; do
    seed=$(( (i + set) % 2 + 1 ))
    for w in "${workloads[@]}"; do
      # A run whose checks failed exits 1 but still prints its result line.
      line=$("${cmd[@]}" --workload "$w" --seed "$seed" --seconds "$secs" --trace 0 | tail -n 1) || true
      echo "{\"workload\": \"$w\", \"seed\": $seed, \"result\": $line}" >> "$out/set$set.jsonl"
      echo "set $set run $i $w seed $seed done" >&2
    done
  done
done

python3 - "$spec" "$out/set1.jsonl" "$out/set2.jsonl" <<'EOF'
import collections, json, statistics, sys

spec = json.load(open(sys.argv[1]))
sets = []
ok = True
for path in sys.argv[2:]:
    vals = collections.defaultdict(list)
    for row in map(json.loads, open(path)):
        r = row["result"]
        if not r["correct"] or r["failed"]:
            print(f"FAIL output check: {row['workload']} seed {row['seed']}: {r['failed']} of {r['attempted']} failed")
            ok = False
        for name, m in r["metrics"].items():
            vals[(row["workload"], name)].append(m["value"])
    sets.append(vals)

def spread(xs):
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)

print(f"{'workload':12} {'metric':9} {'median 1':>11} {'iqr 1':>7} {'median 2':>11} {'iqr 2':>7} {'diff':>7} {'iqr 10':>7} {'bound':>6}")
for w in (w["name"] for w in spec["workloads"]):
    for m in spec["end_to_end"]:
        a, b = sets[0][(w, m["name"])], sets[1][(w, m["name"])]
        ma, mb = statistics.median(a), statistics.median(b)
        diff = (mb - ma) / ma
        both = spread(a + b)
        bad = max(abs(diff), both) > m["bound"]
        ok = ok and not bad
        print(f"{w:12} {m['name']:9} {ma:11.4f} {spread(a):7.3f} {mb:11.4f} {spread(b):7.3f} {diff:+7.3f} {both:7.3f} {m['bound']:6.2f} {'FAIL' if bad else 'ok'}")
print("A/A:", "PASS" if ok else "FAIL")
sys.exit(0 if ok else 1)
EOF
