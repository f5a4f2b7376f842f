#!/usr/bin/env bash
# Runs the served-system benchmark. From the repository root:
#
#   bash perfbench/run.sh --workload oltp --seed 1 --seconds 20 --trace 0
#
# The benchmark is its own Go module (go.mod here, the repository
# replaced in from ..), so it runs from this directory.
set -euo pipefail
cd "$(dirname "$0")"
exec go run . "$@"
