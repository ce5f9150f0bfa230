#!/usr/bin/env bash
# Compares the working tree against a base revision on one workload of
# the repository benchmark (perfbench), in alternating pairs:
#
#   bash scripts/perf-pairs.sh BASE WORKLOAD PAIRS SEED
#   make perf-pairs BASE=HEAD~1 WORKLOAD=cluster PAIRS=10 SEED=52001
#
# `git archive BASE` is extracted into a temporary directory. Pair i
# (0-based) runs `bash perfbench/run.sh --workload WORKLOAD --seed
# SEED+i --seconds 10 --trace 0` once there ("base") and once in the
# working tree ("change"), the base first on even pairs and the change
# first on odd ones, so neither side always runs on a warmer or cooler
# host. Every result line is kept in perf-pairs-WORKLOAD.txt, prefixed
# with its side and seed. The summary gives, for each end-to-end metric
# of the result lines, both sides' medians, the base's quartiles and
# their spread as a share of its median, and the pairs the change wins. Every end-to-end metric in
# BENCHMARK.json is better when lower, so a win is a lower value.
set -euo pipefail

usage='usage: perf-pairs.sh BASE WORKLOAD PAIRS SEED'
base=${1:?$usage}
workload=${2:?$usage}
pairs=${3:?$usage}
seed=${4:?$usage}
out=perf-pairs-$workload.txt

tree=$PWD
basedir=$(mktemp -d)
trap 'rm -rf "$basedir"' EXIT
git archive "$base" | tar -x -C "$basedir"

# run SIDE SEED runs one benchmark on SIDE and appends its labelled
# result line to the output file. A run that fails still reports its result line.
run() {
	local dir=$tree line
	[ "$1" = base ] && dir=$basedir
	line=$(cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$2" --seconds 10 --trace 0 2>/dev/null | tail -n 1) || true
	[ -n "$line" ] || line='{}'
	echo "$1 seed=$2 $line" | tee -a "$out"
}

: >"$out"
echo "perf-pairs: $workload, $pairs pairs, base $(git rev-parse --short "$base") against the working tree, seeds $seed..$((seed + pairs - 1))"
for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		run base $((seed + i))
		run change $((seed + i))
	else
		run change $((seed + i))
		run base $((seed + i))
	fi
done

awk '
# q returns the p-quantile of the n sorted values in v, interpolating
# linearly between order statistics.
function q(v, n, p,    h, lo) {
	h = 1 + (n - 1) * p
	lo = int(h)
	return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
# sorted copies the values of side s for metric m into v, ascending, and
# returns their count.
function sorted(s, m, v,    n, k, j, x) {
	n = 0
	for (k = 1; k <= nseeds; k++) {
		if ((s, m, seeds[k]) in val) {
			x = val[s, m, seeds[k]]
			for (j = n; j > 0 && v[j] > x; j--) v[j + 1] = v[j]
			v[j + 1] = x
			n++
		}
	}
	return n
}
{
	side = $1; sd = $2
	if (!(sd in seen)) { seen[sd] = 1; seeds[++nseeds] = sd }
	runs[side]++
	if ($0 ~ /"correct":true/) ok[side]++
	if (match($0, /"failed":[0-9]+/)) failed[side] += substr($0, RSTART + 9, RLENGTH - 9)
	rest = $0
	while (match(rest, /"[a-z_.]+":\{"unit":"[^"]*","value":[^}]*\}/)) {
		m = substr(rest, RSTART, RLENGTH)
		rest = substr(rest, RSTART + RLENGTH)
		name = m; sub(/^"/, "", name); sub(/".*/, "", name)
		unit = m; sub(/.*"unit":"/, "", unit); sub(/".*/, "", unit)
		v = m; sub(/.*"value":/, "", v); sub(/\}$/, "", v)
		if (!(name in units)) { units[name] = unit; names[++nnames] = name }
		val[side, name, sd] = v + 0
	}
}
END {
	printf "%-12s %-5s %12s %12s %12s %8s %14s %12s\n", "metric", "unit", "base median", "base Q1", "base Q3", "IQR/med", "change median", "change wins"
	for (k = 1; k <= nnames; k++) {
		m = names[k]
		nb = sorted("base", m, b)
		nc = sorted("change", m, c)
		if (nb == 0 || nc == 0) continue
		wins = 0; both = 0
		for (j = 1; j <= nseeds; j++) {
			if ((("base", m, seeds[j]) in val) && (("change", m, seeds[j]) in val)) {
				both++
				if (val["change", m, seeds[j]] < val["base", m, seeds[j]]) wins++
			}
		}
		med = q(b, nb, 0.5)
		printf "%-12s %-5s %12.5g %12.5g %12.5g %7.1f%% %14.5g %9d/%d\n", m, units[m], med, q(b, nb, 0.25), q(b, nb, 0.75), med ? 100 * (q(b, nb, 0.75) - q(b, nb, 0.25)) / med : 0, q(c, nc, 0.5), wins, both
	}
	printf "correct runs: base %d/%d, change %d/%d; failed operations: base %d, change %d\n", ok["base"], runs["base"], ok["change"], runs["change"], failed["base"], failed["change"]
}' "$out"
