#!/bin/sh
# bench_baseline.sh — record or compare benchmark baselines.
#
#   scripts/bench_baseline.sh record [-pkg PATTERN] [-out FILE]
#       run the benchmarks once and write FILE (default
#       BENCH_baseline.json at the repo root): one line per benchmark
#       with ns/op and allocs/op
#   scripts/bench_baseline.sh record-columnar [-out FILE]
#       run only the columnar-engine benchmarks (the two headline
#       benchmarks and the conversion micro-benchmark) and write FILE
#       (default BENCH_columnar.json)
#   scripts/bench_baseline.sh record-streaming [-out FILE]
#       run only the standing-diagnosis streaming benchmark (both window
#       sizes) and write FILE (default BENCH_streaming.json)
#   scripts/bench_baseline.sh compare [-pkg PATTERN] [-compare OLD.json]
#       run the benchmarks once and warn for every benchmark whose ns/op
#       regressed more than 20% against OLD.json (default
#       BENCH_baseline.json); exits 1 when any regressed (CI runs this
#       as a non-blocking step)
#
# -pkg restricts the run to one package pattern (e.g. -pkg ./internal/rules)
# so a focused baseline doesn't pay for the full evaluation suite.
# -benchtime N passes through to go test (default 1x; use e.g. 10x for
# steady-state numbers that exclude one-time warmup such as script
# compilation).
#
# The JSON is one benchmark per line so the comparison can be done with awk
# alone — no jq dependency.
set -eu

cd "$(dirname "$0")/.."
mode="${1:-record}"
[ $# -gt 0 ] && shift
baseline="BENCH_baseline.json"
out=""
pkg="./..."
benchtime="1x"

while [ $# -gt 0 ]; do
	case "$1" in
	-pkg)
		pkg="$2"
		shift 2
		;;
	-benchtime)
		benchtime="$2"
		shift 2
		;;
	-out)
		out="$2"
		shift 2
		;;
	-compare)
		baseline="$2"
		shift 2
		;;
	*)
		echo "unknown option: $1" >&2
		exit 2
		;;
	esac
done
bench="."
if [ "$mode" = "record-columnar" ]; then
	mode="record"
	baseline="BENCH_columnar.json"
	pkg="."
	bench='^(BenchmarkFig5bScaling|BenchmarkParallelSpeedup|BenchmarkColumnarConvert)$'
fi
if [ "$mode" = "record-streaming" ]; then
	mode="record"
	baseline="BENCH_streaming.json"
	pkg="."
	bench='^BenchmarkStandingDiagnosis$'
fi
[ -n "$out" ] || out="$baseline"

run_benchmarks() {
	go test -bench="$bench" -benchmem -benchtime="$benchtime" -run='^$' "$pkg" 2>/dev/null |
		awk '$1 ~ /^Benchmark/ && $4 == "ns/op" {
			name = $1
			sub(/-[0-9]+$/, "", name)   # strip -GOMAXPROCS suffix
			allocs = "0"
			for (i = 5; i <= NF; i++)
				if ($i == "allocs/op") allocs = $(i - 1)
			print name, $3, allocs
		}'
}

to_json() {
	awk 'BEGIN { print "{" }
		{ lines[NR] = sprintf("  \"%s\": {\"ns_per_op\": %s, \"allocs_per_op\": %s}", $1, $2, $3) }
		END {
			for (i = 1; i <= NR; i++)
				print lines[i] (i < NR ? "," : "")
			print "}"
		}'
}

case "$mode" in
record)
	run_benchmarks | to_json >"$out"
	echo "wrote $out ($(grep -c ns_per_op "$out") benchmarks)"
	;;
compare)
	if [ ! -f "$baseline" ]; then
		echo "no $baseline found — run 'scripts/bench_baseline.sh record' first" >&2
		exit 0
	fi
	current="$(mktemp)"
	trap 'rm -f "$current"' EXIT
	run_benchmarks >"$current"
	awk -v cur="$current" '
		# Pass 1 (baseline JSON): one benchmark per line.
		/ns_per_op/ {
			name = $1
			gsub(/[":]/, "", name)
			ns = $3; sub(/,$/, "", ns)
			base[name] = ns + 0
		}
		END {
			bad = 0
			while ((getline line < cur) > 0) {
				split(line, f, " ")
				name = f[1]; ns = f[2] + 0
				if (!(name in base)) {
					printf "NEW      %-50s %12.0f ns/op (no baseline)\n", name, ns
					continue
				}
				ratio = base[name] > 0 ? ns / base[name] : 1
				if (ratio > 1.20) {
					printf "WARNING  %-50s %12.0f ns/op vs baseline %.0f (%.0f%% slower)\n",
						name, ns, base[name], (ratio - 1) * 100
					bad = 1
				} else {
					printf "ok       %-50s %12.0f ns/op vs baseline %.0f\n", name, ns, base[name]
				}
			}
			exit bad
		}' "$baseline"
	;;
*)
	echo "usage: $0 [record|compare] [-pkg PATTERN] [-benchtime N] [-out FILE] [-compare OLD.json]" >&2
	exit 2
	;;
esac
