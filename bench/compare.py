"""Summarize benchmark runs, or compare two sets of them.

    python3 bench/compare.py RUNS [--write SUMMARY.json]
    python3 bench/compare.py OLD NEW

RUNS, OLD and NEW are either directories of run records, as run.py writes
them to .bench_out/ (copy them elsewhere between commits), or summaries
written with --write, such as BENCH_0.json.  For each workload and metric
the comparison prints both medians with their quartiles and the change of
the median as a share of OLD's; an end-to-end change worse than its bound
in BENCHMARK.json is marked REGRESSION.  Runs on different mpmath backends
or Python or mpmath versions are not comparable: the comparison then prints
NOT COMPARABLE and exits with status 1.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("python", "mpmath", "mpmath_backend")


def summarize(directory):
    """Values of every metric, per workload, over the full-size records in a directory."""
    out = {"env": {}, "workloads": {}}
    for path in sorted(Path(directory).glob("*-trace[01]-full.json")):
        record = json.loads(path.read_text())
        for key in ENV_KEYS:
            out["env"].setdefault(key, [])
            if record["env"][key] not in out["env"][key]:
                out["env"][key].append(record["env"][key])
        w = out["workloads"].setdefault(record["workload"], {"end_to_end": {}, "per_layer": {},
                                                             "seeds": []})
        w["seeds"].append(record["seed"])
        block = "per_layer" if record["trace"] else "end_to_end"
        for name, value in record.get(block, {}).items():
            w[block].setdefault(name, []).append(value)
    return out


def load(path):
    path = Path(path)
    return summarize(path) if path.is_dir() else json.loads(path.read_text())


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(old, new, bounds):
    """Print the comparison; returns False when the two sides are not comparable."""
    comparable = all(old["env"].get(k) == new["env"].get(k) and len(new["env"].get(k, [])) == 1
                     for k in ENV_KEYS)
    if not comparable:
        print("NOT COMPARABLE: " + ", ".join(
            f"{k} {old['env'].get(k)} vs {new['env'].get(k)}" for k in ENV_KEYS))
    for workload in sorted(set(old["workloads"]) & set(new["workloads"])):
        for block in ("end_to_end", "per_layer"):
            a, b = old["workloads"][workload][block], new["workloads"][workload][block]
            for name in [n for n in a if n in b]:
                (q1a, ma, q3a), (q1b, mb, q3b) = _quartiles(a[name]), _quartiles(b[name])
                change = (mb - ma) / abs(ma) if ma else 0.0
                flag = ""
                if name in bounds:
                    better, bound = bounds[name]
                    worse = -change if better == "higher" else change
                    flag = "REGRESSION" if worse > bound else ""
                print(f"{workload:<18} {name:<32} {ma:>12.6g} [{q1a:.4g}, {q3a:.4g}] -> "
                      f"{mb:>12.6g} [{q1b:.4g}, {q3b:.4g}] {change:+8.2%} {flag}")
    return comparable


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--write", help="write the summary of OLD to this file")
    args = parser.parse_args(argv)
    old = load(args.old)
    if args.write:
        Path(args.write).write_text(json.dumps(old, indent=1) + "\n")
    if args.new is None:
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    return 0 if compare(old, load(args.new), bounds) else 1


if __name__ == "__main__":
    sys.exit(main())
