#!/bin/sh
# Full-scale reproduction of the two built-in benchmarks (100 runs each).
# Each spreads its five 20-run blocks over one process per usable CPU by
# default (their wall time is recorded in CHANGES.md, "One sampled `advance`
# for any horizon; `--workers` defaults to the usable CPUs; criterion 7
# reaches the pool").  Pass --workers N to set the process count, or --runs N
# for a quicker look.
set -e

OUT="${GSLMS_OUTPUT_DIR:-results}"

gslms paper-exp1 --output-dir "$OUT/exp1" "$@"
gslms paper-exp2 --output-dir "$OUT/exp2" "$@"
