#!/usr/bin/env bash
# Runs every radialborn command once on small inputs, writing under DIR, and
# checks that a desk-grid Born reconstruction stays bounded in the ball.
#
#     tests/cli_smoke.sh DIR
#
# The spectrum cache is RADIALBORN_CACHE_DIR if set, else DIR/cache.
set -euo pipefail
mkdir -p "${1:?usage: tests/cli_smoke.sh DIR}"
run=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
export RADIALBORN_CACHE_DIR=${RADIALBORN_CACHE_DIR:-$run/cache}

printf 'kind conductivity\nradius 1\nbreakpoints 0 0.5 1\nvalues 2 1\n' > "$run/gamma.txt"
python -m radialborn.cli dtn --profile "$run/gamma.txt" --terms 30 --precision 128 --out "$run"
python -m radialborn.cli born --spectrum "$run/spectrum.csv" --kind conductivity --precision 128 --grid 64 --out "$run"
python -m radialborn.cli invert-fourier --input "$run/fourier.csv" --out "$run"
python -m radialborn.cli moments --profile "$run/gamma.txt" --terms 20 --precision 128 --out "$run"
python -m radialborn.cli reconstruct --profile "$run/gamma.txt" --terms 20 --precision 128 --grid 32 --iterations 1 --out "$run"
python -m radialborn.cli ensemble --samples 2 --terms 20 --precision 128 --grid 32 --out "$run"
python -m radialborn.cli experiment 1 --terms 20 --precision 128 --grid 32 --out "$run"
python -m radialborn.cli experiment 12 --terms 20 --precision 128 --grid 32 --iterations 1 --out "$run"
printf 'kind potential\nradius 1\nbreakpoints 0 0.4 0.7 1\nvalues 6 -3 0\n' > "$run/q.txt"
python -m radialborn.cli dtn --profile "$run/q.txt" --terms 30 --precision 128 --out "$run/q"
python -m radialborn.cli born --spectrum "$run/q/spectrum.csv" --kind potential --mode scattering --precision 128 --grid 64 --out "$run/q"
# the desk grid lies inside the band of the series: no truncation garbage in the ball
printf 'kind potential\nradius 1\nbreakpoints 0 0.25 0.5 0.75 1\nvalues 2 1.5 1 0.5\n' > "$run/qfull.txt"
python -m radialborn.cli born --profile "$run/qfull.txt" --precision 256 --out "$run/qfull"
python -c "import csv, sys; rows = [r for r in csv.DictReader(open(sys.argv[1])) if r['in_ball'] == '1']; assert rows and all(abs(float(r['value'])) < 10 for r in rows), max(abs(float(r['value'])) for r in rows)" "$run/qfull/reconstruction.csv"
