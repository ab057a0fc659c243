#!/bin/sh
# Every workload in turn, each in its own process: all end-to-end metrics
# (trace 0, the default) or all per-module metrics (trace 1).
# Usage, from the repository root: sh perfbench/all.sh [seed] [trace]
set -e
for w in hyp-sweep pol-ladder verify-sweep poset-export; do
    python3 perfbench/run.py --workload "$w" --seed "${1:-1}" --seconds 25 --trace "${2:-0}"
done
