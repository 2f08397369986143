#!/usr/bin/env bash
# Alternating benchmark pairs of two revisions, judged pair by pair.
#
#   scripts/bench-pairs.sh PARENT CHANGE WORKLOAD SEED PAIRS [SECONDS]
#   make bench-pairs PARENT=<rev> [CHANGE=HEAD] WORKLOAD=tier_zipf SEED=7 PAIRS=10
#
# Each revision is exported with `git archive` into its own directory
# outside the checkout (under $BENCH_PAIRS_DIR, default a new directory in
# ${TMPDIR:-/tmp}), so neither side runs from the working tree. Each pair
# runs `bash bench/run.sh --workload W --seed S --seconds SECONDS --trace 0`
# once per side, the parent first in even pairs and the change first in odd
# ones. For every end-to-end metric it prints each side's median and
# quartiles, the pairs the change won (ties count for neither side), and the
# parent's interquartile range. A gain is claimed where the change wins at
# least nine pairs in ten and the medians differ by more than the parent's
# IQR; a metric whose change median is worse than the parent's by more than
# its BENCHMARK.json bound is flagged. Raw result lines stay in
# results.txt beside the two trees.
set -euo pipefail

if [ $# -lt 5 ]; then
	echo "usage: $0 PARENT CHANGE WORKLOAD SEED PAIRS [SECONDS]" >&2
	exit 2
fi
parent=$1 change=$2 workload=$3 seed=$4 pairs=$5 seconds=${6:-30}

root="$(git rev-parse --show-toplevel)"
work="${BENCH_PAIRS_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")}"
case "${work}/" in
"${root}"/*)
	echo "$0: BENCH_PAIRS_DIR must lie outside the checkout" >&2
	exit 2
	;;
esac
mkdir -p "${work}"
for side in parent change; do
	rev=${parent}
	[ "${side}" = change ] && rev=${change}
	rm -rf "${work:?}/${side}"
	mkdir -p "${work}/${side}"
	git -C "${root}" archive "${rev}" | tar -x -C "${work}/${side}"
	echo "${side}: $(git -C "${root}" rev-parse --short "${rev}") in ${work}/${side}" >&2
done

results="${work}/results.txt"
: >"${results}"
for ((i = 0; i < pairs; i++)); do
	order="parent change"
	((i % 2 == 1)) && order="change parent"
	for side in ${order}; do
		line=$(cd "${work}/${side}" && bash bench/run.sh --workload "${workload}" --seed "${seed}" \
			--seconds "${seconds}" --trace 0 2>/dev/null | tail -n 1)
		echo "${i} ${side} ${line}" >>"${results}"
		echo "pair $((i + 1))/${pairs} ${side} done" >&2
	done
done

# BENCHMARK.json gives each end-to-end metric its direction and bound.
awk '
FNR == NR {
	if ($0 ~ /"name":/) { name = $0; gsub(/.*"name": *"|".*/, "", name) }
	if ($0 ~ /"better":/) { b = $0; gsub(/.*"better": *"|".*/, "", b); better[name] = b }
	if ($0 ~ /"bound":/) { v = $0; sub(/.*"bound": */, "", v); bound[name] = v + 0 }
	next
}
{
	pair = $1; side = $2; rest = $0
	while (match(rest, /"[a-z0-9_]+":\{"value":[-0-9.eE+]+/)) {
		tok = substr(rest, RSTART, RLENGTH)
		rest = substr(rest, RSTART + RLENGTH)
		m = tok; sub(/^"/, "", m); sub(/".*/, "", m)
		v = tok; sub(/.*"value":/, "", v)
		if (!(m in seen)) { seen[m] = 1; names[++nm] = m }
		val[m, side, pair] = v + 0
		if (pair + 1 > np) np = pair + 1
	}
}
function sortside(m, side, a,    n, i, j, t) {
	n = 0
	for (i = 0; i < np; i++) if ((m, side, i) in val) a[++n] = val[m, side, i]
	for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
	return n
}
function q(a, n, p,    h, lo) {
	if (n == 0) return 0
	h = 1 + (n - 1) * p; lo = int(h)
	if (lo >= n) return a[n]
	return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
END {
	printf "%-22s %-32s %-32s %7s %11s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "parent IQR", "verdict"
	for (k = 1; k <= nm; k++) {
		m = names[k]
		np1 = sortside(m, "parent", pa); nc = sortside(m, "change", ca)
		pm = q(pa, np1, 0.5); cm = q(ca, nc, 0.5); iqr = q(pa, np1, 0.75) - q(pa, np1, 0.25)
		lower = (better[m] != "higher")
		wins = 0; played = 0
		for (i = 0; i < np; i++) {
			if (!(((m, "parent", i) in val) && ((m, "change", i) in val))) continue
			played++
			d = val[m, "change", i] - val[m, "parent", i]
			if ((lower && d < 0) || (!lower && d > 0)) wins++
		}
		gap = cm - pm; if (gap < 0) gap = -gap
		improved = (lower && cm < pm) || (!lower && cm > pm)
		verdict = "-"
		if (improved && wins * 10 >= 9 * played && gap > iqr) verdict = "gain"
		if (!improved && pm != 0 && (m in bound) && gap / (pm < 0 ? -pm : pm) > bound[m]) verdict = "worse than bound " bound[m]
		printf "%-22s %-32s %-32s %3d/%-3d %11.4g  %s\n", m,
			sprintf("%.6g [%.6g, %.6g]", pm, q(pa, np1, 0.25), q(pa, np1, 0.75)),
			sprintf("%.6g [%.6g, %.6g]", cm, q(ca, nc, 0.25), q(ca, nc, 0.75)),
			wins, played, iqr, verdict
	}
}
' "${work}/change/BENCHMARK.json" "${results}"
echo "raw results: ${results}" >&2
