#!/usr/bin/env bash
# Build the cost-ledger benchmark from source and run it (see README.md).
#
#   bench/ledger/run.sh > set.json
#       every workload untraced, then traced, one process each; the run
#       documents are merged into one JSON list on stdout
#   bench/ledger/run.sh --workload W [--seed S] [--seconds T] [--trace 0|1]
#       one run; the last line of stdout is the result object
#   bench/ledger/run.sh compare A.json B.json
#
# It runs from the repository root, builds under _build/ and keeps the
# full set's temporary run documents there until they are merged.
set -euo pipefail
cd "$(dirname "$0")/../.."
unset BA_JOBS BA_INTRA_JOBS
dune build --root . --cache=disabled --display=quiet bench/ledger/ledger.exe >&2
ledger=_build/default/bench/ledger/ledger.exe

if [ "$#" -gt 0 ]; then
  exec "$ledger" "$@"
fi

dir=$(mktemp -d _build/ledger.XXXXXX)
trap 'rm -rf "$dir"' EXIT
i=0
for trace in 0 1; do
  for w in dense-n801 real-n201 sparse-n10k splitvote-n2001; do
    i=$((i + 1))
    "$ledger" --workload "$w" --trace "$trace" --out "$dir/$i.json" >&2
  done
done
sep='['
for j in $(seq 1 "$i"); do
  printf '%s' "$sep"
  cat "$dir/$j.json"
  sep=','
done
printf ']\n'
