"""Digests of every experiment output at the SMALL sizes, checked by tier-1.

``tests/experiment_digests.json`` holds one sha256 per file written by the twelve
experiments at ``SMALL`` from a cold cache, keyed ``experiment_<id>/<file>``.
``manifest.json`` and every ``*_fourier_*.csv`` are hashed as raw bytes: their
values are exact mpmath decimals.  Every other CSV is hashed after rounding each
number to 12 significant digits, since its values pass through numpy and libm
and may move by an ulp between library versions.

    python tests/experiment_digests.py

reruns the twelve experiments, prints every file whose digest moved, appeared or
vanished, and rewrites the JSON.
"""

import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from radialborn.experiments import EXPERIMENT_IDS, run_experiment  # noqa: E402

SMALL = dict(terms=40, prec=128, grid_n=48, pieces=120, iterations=2, samples=2)
DIGESTS = Path(__file__).with_name("experiment_digests.json")


def _rounded(cell):
    try:
        x = float(cell)
    except ValueError:
        return cell
    return f"{x + 0.0:.11e}"  # + 0.0 turns -0.0 into 0.0


def file_digest(path):
    """sha256 of a file's bytes, or of its CSV rows with every number at 12 digits."""
    path = Path(path)
    data = path.read_bytes()
    if path.suffix == ".csv" and "_fourier_" not in path.name:
        rows = csv.reader(io.StringIO(data.decode()))
        data = "\n".join(",".join(map(_rounded, row)) for row in rows).encode()
    return hashlib.sha256(data).hexdigest()


def experiment_digests(exp_id, files):
    """{"experiment_<id>/<name>": digest} of the files one experiment wrote."""
    return {f"experiment_{exp_id}/{Path(p).name}": file_digest(p) for p in files}


def recorded_digests(exp_id):
    """The checked-in digests of one experiment."""
    prefix = f"experiment_{exp_id}/"
    return {k: v for k, v in json.loads(DIGESTS.read_text()).items() if k.startswith(prefix)}


def main():
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    new = {}
    with tempfile.TemporaryDirectory() as tmp:
        for exp_id in EXPERIMENT_IDS:
            out = Path(tmp) / f"experiment_{exp_id}"
            files = run_experiment(exp_id, out, cache_dir=out / "cache", **SMALL)
            new.update(experiment_digests(exp_id, files))
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            print(f"vanished: {key}")
        elif key not in old:
            print(f"appeared: {key}")
        elif old[key] != new[key]:
            print(f"moved:    {key}")
    DIGESTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"{len(new)} digests written to {DIGESTS}")


if __name__ == "__main__":
    main()
