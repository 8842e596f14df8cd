#!/usr/bin/env bash
# Parent/change pairs of one serving-benchmark workload: the protocol
# benchmark/README.md § "Comparing two runs" asks of a claim. Run from the
# root of the checkout holding the change:
#
#   scripts/serving-pairs.sh <parent checkout> <workload> <seed> [pairs=10]
#
# Each pair runs both checkouts' OWN `benchmark/run.sh -workload W -seed S
# -seconds <run_seconds of BENCHMARK.json> -trace 0`, the parent first in
# odd pairs and the change first in even ones. Every run's correct/failed
# is printed as it ends and its JSON line is kept in $RUNS (the run's own
# table, on stderr, is shown only if it fails); the table at the end
# gives, per end-to-end metric, each side's median [q1, q3] (quartiles as
# in benchmark/stats.go), the ratio of the medians with its base, and the
# pairs the change won (ties count for neither side). A gain is claimed
# only when the change wins at least nine tenths of the pairs and the
# medians differ by more than q3 - q1 of the parent. Needs jq.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: $0 <parent checkout> <workload> <seed> [pairs=10]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$PWD
workload=$2 seed=$3 pairs=${4:-10}
for dir in "$parent" "$change"; do
	if [ ! -f "$dir/benchmark/run.sh" ]; then
		echo "$0: $dir is not a checkout with benchmark/run.sh" >&2
		exit 2
	fi
done
command -v jq >/dev/null || { echo "$0: needs jq" >&2; exit 2; }

seconds=$(jq .run_seconds BENCHMARK.json)
runs=${RUNS:-/tmp/ltr-serving-pairs.$workload.$seed.jsonl}
: >"$runs"

# run <side> <checkout> <pair>: one run, its JSON line tagged and kept.
run() {
	local line
	if ! line=$(cd "$2" && bash benchmark/run.sh -workload "$workload" -seed "$seed" -seconds "$seconds" -trace 0 2>"$runs.stderr" | tail -n 1); then
		cat "$runs.stderr" >&2
		echo "$0: pair $3 $1: benchmark/run.sh failed in $2" >&2
		exit 1
	fi
	jq -c --arg side "$1" --argjson pair "$3" '. + {side: $side, pair: $pair}' <<<"$line" >>"$runs"
	jq -r --arg side "$1" --argjson pair "$3" \
		'"pair \($pair) \($side): correct \(.correct) failed \(.failed) of \(.attempted)"' <<<"$line"
}

for pair in $(seq 1 "$pairs"); do
	if [ $((pair % 2)) -eq 1 ]; then
		run parent "$parent" "$pair"
		run change "$change" "$pair"
	else
		run change "$change" "$pair"
		run parent "$parent" "$pair"
	fi
done

rm -f "$runs.stderr"

echo
echo "$workload, seed $seed, $pairs pairs of $seconds s (runs kept in $runs)"
jq -rs --slurpfile manifest BENCHMARK.json '
	def quartile(k): sort as $s | ($s | length) as $n | (k * ($n + 1) / 4) as $pos | ($pos | floor) as $lo |
		if $lo < 1 then $s[0] elif $lo >= $n then $s[$n - 1]
		else $s[$lo - 1] + ($s[$lo] - $s[$lo - 1]) * ($pos - $lo) end;
	def r: if . == 0 then 0 else (fabs | log10 | floor) as $e | pow(10; 3 - $e) as $k | (. * $k | round) / $k end; # 4 digits
	def summary: "\(quartile(2) | r) [\(quartile(1) | r), \(quartile(3) | r)]";
	def pad(n): . + (" " * (n - length) // "");
	. as $runs
	| [["metric", "unit", "better", "parent median [q1, q3]", "change median [q1, q3]", "change/parent", "pairs won"],
	   ($manifest[0].end_to_end[] | . as $m
		| [$runs[] | select(.side == "parent")] | sort_by(.pair) | map(.metrics[$m.name].value) as $p
		| [$runs[] | select(.side == "change")] | sort_by(.pair) | map(.metrics[$m.name].value) as $c
		| [range($p | length) | if $m.better == "lower" then $p[.] - $c[.] else $c[.] - $p[.] end] as $lead
		| [$m.name, $m.unit, $m.better, ($p | summary), ($c | summary),
		   "\(($c | quartile(2)) / ($p | quartile(2)) | r) of \($p | quartile(2) | r)",
		   "\($lead | map(select(. > 0)) | length) of \($lead | length), \($lead | map(select(. == 0)) | length) tied"])]
	| . as $rows
	| [range(7) as $col | $rows | map(.[$col] | length) | max] as $width
	| $rows[] | [range(7) as $col | .[$col] | pad($width[$col])] | join("  ")' "$runs"
