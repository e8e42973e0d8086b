#!/bin/sh
# Full-scale reproduction of the two built-in benchmarks (100 runs each).
# Each spreads its five 20-run blocks over one process per usable CPU by
# default.  Both commands together took 15-16 s (two runs) that way on a
# shared 2-vCPU Xeon host (Python 3.11, numpy 2.4.6); pass --workers N to
# set the process count, or --runs N for a quicker look.
set -e

OUT="${GSLMS_OUTPUT_DIR:-results}"

gslms paper-exp1 --output-dir "$OUT/exp1" "$@"
gslms paper-exp2 --output-dir "$OUT/exp2" "$@"
