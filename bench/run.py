"""Run one radialborn benchmark workload and print its metrics.

    python3 bench/run.py --workload forward_sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --seed 1 --seconds 15            # all four workloads

Untraced (``--trace 0``): set-up runs several times, then timed passes over
the workload's seeded inputs repeat for ``--seconds``; every output is checked
against the same call at prec+64.  Prints the end-to-end metrics.

Traced (``--trace 1``): half the time untraced, half with the module-boundary
wrappers installed.  Prints the per-layer metrics and the tracing overhead,
and writes the spans to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The workloads run
on one thread in this process; only the import time is probed in three
short-lived interpreters, one after another.  Everything is read and written
inside the checkout (``.bench_out/``).
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
E2E_UNITS = {"wall_ref_s": "s", "setup_s": "s", "accuracy_bits_min": "bits", "peak_rss_mb": "MB"}


def pin_environment():
    """One thread for the numerical libraries; no user cache or precision settings."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("RADIALBORN_CACHE_DIR", None)
    os.environ.pop("RADIALBORN_PRECISION", None)


def import_package():
    """Import radialborn from this checkout's src/ and the benchmark modules."""
    src = ROOT / "src"
    if not (src / "radialborn" / "__init__.py").is_file():
        raise ImportError(f"no radialborn package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("radialborn")
    if Path(package.__file__).resolve().parent != (src / "radialborn").resolve():
        raise ImportError(f"radialborn imported from {package.__file__}, not {src}")
    importlib.import_module("workloads")
    return package


# Runs in a fresh interpreter: the import time of the package (numpy, scipy and
# mpmath included), then calibration slices in the same process for its speed.
_IMPORT_PROBE = """
import statistics, sys, time
sys.path[:0] = sys.argv[1:3]
t0 = time.perf_counter()
import radialborn
seconds = time.perf_counter() - t0
import refclock
speed = statistics.mean(refclock.slice_seconds() for _ in range(5))
print(seconds * refclock.NOMINAL_SLICE_S / speed)
"""


def import_ref_seconds():
    """Median package import time at reference speed, over fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"),
                               str(Path(__file__).resolve().parent)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def environment_stamp():
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _run_op(op, scratch):
    try:
        return op.run(0, scratch)
    except (ArithmeticError, ValueError) as exc:
        return exc


def _timed_passes(workload, budget, min_passes, scratch_root, tracer, first_pass_id):
    """Run passes until ``budget`` seconds are used; returns per-pass records.

    A pass's ``wall`` is the sum of its operations' wall times and ``wall_ref``
    the sum at reference speed.  The tracer learns when calibration slices ran
    inside its spans, so span durations exclude them.
    """
    from refclock import ReferenceClock

    records = []
    start = last = time.perf_counter()
    while len(records) < min_passes or 2 * time.perf_counter() - start - last <= budget:
        last = time.perf_counter()
        pass_id = first_pass_id + len(records)
        scratch = Path(tempfile.mkdtemp(prefix=f"pass{pass_id}-", dir=scratch_root))
        gc.collect()
        outputs, op_wall, wall_ref = {}, {}, 0.0
        clock = ReferenceClock()
        for op in workload.ops:
            if tracer is not None:
                tracer.pass_id = pass_id
            outputs[op.name], op_wall[op.name], ref = clock.measure(
                lambda: _run_op(op, scratch))
            if tracer is not None:
                tracer.pass_id = None
            wall_ref += ref
        if tracer is not None:
            tracer.pauses.extend(clock.pauses)
        values, failed = {}, set()
        for op in workload.ops:
            if isinstance(outputs[op.name], Exception):
                failed.add(op.name)
            else:
                values[op.name] = op.collect(outputs[op.name])
        failed.update(workload.pass_failures(scratch))
        shutil.rmtree(scratch)
        records.append({"id": pass_id, "wall": sum(op_wall.values()), "wall_ref": wall_ref,
                        "op_wall": op_wall, "values": values, "failed": failed,
                        "errors": {n: repr(e) for n, e in outputs.items() if isinstance(e, Exception)}})
    return records


def _check_outputs(workload, records, scratch_root):
    """Determinism against the first pass, then the prec+64 oracle and ODE spot checks."""
    import oracle

    first = records[0]["values"]
    for rec in records[1:]:
        for op in workload.ops:
            if op.name in rec["values"] and op.name in first and \
                    op.digest(rec["values"][op.name]) != op.digest(first[op.name]):
                rec["failed"].add(op.name)
    bits, bad, notes = [], set(), {}
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch_root))
    try:
        for op in workload.ops:
            if op.name not in first:
                continue
            try:
                ref = op.collect(op.run(oracle.REFERENCE_EXTRA_BITS, scratch))
            except (ArithmeticError, ValueError) as exc:
                bad.add(op.name)
                notes[op.name] = f"reference failed: {exc!r}"
                continue
            checks = op.accuracy(first[op.name], ref)
            op_bits = min(oracle.normalized_bits(b, cap) for b, cap, _ in checks)
            bits.append(op_bits)
            notes[op.name] = {"normalized": round(op_bits, 2),
                              "lost": max(round(cap - b, 2) for b, cap, _ in checks)}
            if any(b < oracle.floor_for(cap, kind) for b, cap, kind in checks):
                bad.add(op.name)
            ode_error = getattr(op, "ode_error", None)
            if ode_error is not None:
                gap = ode_error(first[op.name])
                if gap is not None and gap > oracle.ODE_TOLERANCE:
                    bad.add(op.name)
                    notes[op.name + ":ode"] = gap
    finally:
        shutil.rmtree(scratch)
    for rec in records:
        rec["failed"].update(bad)
    return (min(bits) if bits else 0.0), notes


def run_workload(name, seed, seconds, trace, size="full"):
    """Set up, time and check one workload; returns the result record."""
    import spans
    import workloads
    from refclock import ReferenceClock

    package = sys.modules["radialborn"]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        import_ref_s = 0.0 if trace else import_ref_seconds()
        setup_ref = []
        clock = ReferenceClock()
        for i in range(SETUP_REPEATS):
            workload = workloads.WORKLOADS[name](seed, size, workdir / f"setup{i}")
            _, _, ref = clock.measure(workload.setup)
            setup_ref.append(ref)

        result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "size": size, "env": environment_stamp(), "inputs": workload.summary()}
        if trace:
            plain = _timed_passes(workload, seconds / 2, MIN_TRACED_PASSES, workdir, None, 0)
            tracer = spans.Tracer()
            tracer.install(package)
            try:
                traced = _timed_passes(workload, seconds / 2, MIN_TRACED_PASSES, workdir,
                                       tracer, len(plain))
            finally:
                restored = tracer.uninstall()
            records = plain + traced
            per_pass = [tracer.pass_metrics(r["id"]) for r in traced]
            layer = spans.summarize(per_pass)
            layer["trace.wall_ref_s"] = statistics.median(r["wall_ref"] for r in traced)
            layer["trace.overhead_ref_s"] = layer["trace.wall_ref_s"] - statistics.median(
                r["wall_ref"] for r in plain)
            problems = []
            if any(getattr(m, a) is not orig for m, a, orig in restored):
                problems.append("a wrapped attribute was not restored")
            for r, m in zip(traced, per_pass):
                if any(m[c] != per_pass[0][c] for c in spans.EXACT_COUNTS):
                    problems.append(f"pass {r['id']}: exact counts differ from pass {traced[0]['id']}")
                    r["failed"].add("trace-counts")
                for key, want in workload.expected_trace.items():
                    if m[key] != want:
                        problems.append(f"pass {r['id']}: {key} = {m[key]}, expected {want}")
                        r["failed"].add(f"trace:{key}")
            tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
            result.update(per_layer=layer, trace_problems=problems,
                          wrapped_attributes=len(restored))
        else:
            records = _timed_passes(workload, seconds, MIN_PASSES, workdir, None, 0)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        accuracy, notes = _check_outputs(workload, records, workdir)
        attempted = len(workload.ops) * len(records)
        failed = sum(len(r["failed"]) for r in records)
        result.update(
            passes=len(records), pass_wall_s=[r["wall"] for r in records],
            pass_wall_ref_s=[r["wall_ref"] for r in records],
            op_wall_s=[r["op_wall"] for r in records],
            setup_ref_s=setup_ref, import_ref_s=import_ref_s, accuracy_bits=notes,
            errors=[e for r in records for e in r["errors"].items()],
            attempted=attempted, failed=failed, failed_frac=failed / attempted)
        if not trace:
            result["wall_s"] = statistics.median(r["wall"] for r in records)
            result["end_to_end"] = {
                "wall_ref_s": statistics.median(r["wall_ref"] for r in records),
                "setup_s": import_ref_s + statistics.median(setup_ref),
                "accuracy_bits_min": accuracy,
                "peak_rss_mb": peak_rss_mb,
            }
        result["correct"] = failed == 0 and not result.get("trace_problems")
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _report(result):
    """Human-readable lines for one workload."""
    import spans

    env = result["env"]
    lines = [f"# {result['workload']} seed={result['seed']} size={result['size']} "
             f"passes={result['passes']} python={env['python']} mpmath={env['mpmath']} "
             f"backend={env['mpmath_backend']} numpy={env['numpy']} scipy={env['scipy']} "
             f"nproc={env['nproc']} threads={env['threads']}"]
    if env["mpmath_backend"] != "python":
        lines.append(f"# WARNING: mpmath backend is {env['mpmath_backend']!r}; figures are "
                     "not comparable with runs on the python backend")
    for op in result["inputs"]["ops"]:
        lines.append("#   input " + " ".join(f"{k}={v}" for k, v in op.items()))
    metrics = dict(result.get("end_to_end", {}))
    if "wall_s" in result:
        metrics["wall_s"] = result["wall_s"]
    metrics["failed_frac"] = result["failed_frac"]
    units = dict(E2E_UNITS, wall_s="s", failed_frac="fraction")
    for name, value in metrics.items():
        lines.append(f"{result['workload']:<18} {name:<32} {value:>14.6g} {units[name]}")
    for name, value in result.get("per_layer", {}).items():
        lines.append(f"{result['workload']:<18} {name:<32} {value:>14.6g} "
                     f"{spans.PER_LAYER_METRICS[name]}")
    for problem in result.get("trace_problems", []) + [f"{n}: {e}" for n, e in result["errors"]]:
        lines.append(f"# PROBLEM {problem}")
    return lines


def _metric_block(result):
    import spans

    if "per_layer" in result:
        units = spans.PER_LAYER_METRICS
        return {k: {"value": v, "unit": units[k]} for k, v in result["per_layer"].items()}
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in result["end_to_end"].items()}


def main(argv=None):
    pin_environment()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"bench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"--workload must be 'all' or one of {sorted(workloads.WORKLOADS)}")
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, args.size)
        record = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}-{args.size}.json"
        record.write_text(json.dumps(result, indent=1, default=str))
        for line in _report(result):
            print(line)
        results.append(result)
    if len(results) == 1:
        metrics = _metric_block(results[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in _metric_block(r).items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
