#!/usr/bin/env bash
# Every workload once, untraced and then traced, at BENCHMARK.json's run
# length: about 4 x 30 s + 4 x 35 s. Prints each run's JSON line; the traces
# land in benchmark/out/.
#
#   bash benchmark/all.sh [seed]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
for trace in 0 1; do
	for w in tm-sets serve-read serve-write serve-durable; do
		echo "== $w trace=$trace" >&2
		bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
	done
done
