#!/usr/bin/env bash
# bench-gate.sh BASE — the end-to-end benchmark as a gate.
#
# Checks BASE (a commit) out into a git worktree, then runs the benchmark
# three times on each side, alternating base and change so that both
# meet the same runner conditions, merges each side's runs into one
# result file, and applies BENCHMARK.json's bounds with `bench -compare`:
# the script fails when any end-to-end metric of any workload is worse
# than the base by more than its bound, or an operation failed.
#
# Run it from the root of the change's checkout:
#
#	.github/bench-gate.sh origin/main
set -euo pipefail

base=${1:?usage: .github/bench-gate.sh BASE}
work=$(mktemp -d)
cleanup() {
	git worktree remove --force "$work/base" >/dev/null 2>&1 || true
	rm -rf "$work"
}
trap cleanup EXIT

git worktree add --detach "$work/base" "$base" >/dev/null
for i in 1 2 3; do
	go run -C "$work/base/bench" . -seconds 10 -trace 0 -out "$work/base-$i.json"
	go run -C bench . -seconds 10 -trace 0 -out "$work/change-$i.json"
done
jq -s '{runs:[.[].runs[]]}' "$work"/base-*.json >"$work/base.json"
jq -s '{runs:[.[].runs[]]}' "$work"/change-*.json >"$work/change.json"
go run -C bench . -compare "$work/base.json" "$work/change.json"
