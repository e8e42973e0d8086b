#!/bin/sh
# Full-scale reproduction of the two built-in benchmarks (100 runs each).
# Both commands together took 35 s, each in one process, in one run on a
# shared 2-vCPU Xeon host (Python 3.11, numpy 2.4.6); pass --workers N to
# spread the five 20-run blocks of each over N processes, or --runs N for a
# quicker look.
set -e

OUT="${GSLMS_OUTPUT_DIR:-results}"

gslms paper-exp1 --output-dir "$OUT/exp1" "$@"
gslms paper-exp2 --output-dir "$OUT/exp2" "$@"
