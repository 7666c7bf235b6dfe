"""Tests of the benchmark itself, at smoke size (seconds, not minutes).

    python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys

import pytest
from mpmath import mp, mpf

import radialborn
import oracle
import run
import spans
import workloads

SMOKE_SECONDS = 0.2
NAMES = sorted(workloads.WORKLOADS)


def _run(name, trace, seed=3):
    return run.run_workload(name, seed, SMOKE_SECONDS, trace, size="smoke")


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_is_correct_and_reports_every_metric(name):
    result = _run(name, trace=0)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 3 * len(result["inputs"]["ops"])
    e2e = result["end_to_end"]
    assert set(e2e) == set(run.E2E_UNITS)
    assert all(v > 0 for v in e2e.values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_runs_repeat_exact_counts_and_restore_the_package(name):
    modules = [radialborn] + [getattr(radialborn, layer) for layer in spans.LAYER_FUNCTIONS]
    before = [dict(vars(m)) for m in modules]
    first, second = _run(name, trace=1), _run(name, trace=1)
    for module, attrs in zip(modules, before):
        for attr, value in attrs.items():
            assert getattr(module, attr) is value, f"{module.__name__}.{attr} not restored"
    for result in (first, second):
        assert result["correct"], result.get("trace_problems")
        assert set(result["per_layer"]) == set(spans.PER_LAYER_METRICS)
    for key in spans.EXACT_COUNTS:
        assert first["per_layer"][key] == second["per_layer"][key], key


def test_tracer_wraps_every_caller_lookup():
    tracer = spans.Tracer()
    original = radialborn.forward.spectrum_of
    original_cached = radialborn.cache.cached_spectrum_of
    original_ladder = radialborn.highprec.mod_sph_i_ladder
    tracer.install(radialborn)
    try:
        for module in (radialborn, radialborn.forward, radialborn.reconstruct):
            assert module.spectrum_of is not original
        assert radialborn.forward.mod_sph_i_ladder is not original_ladder
        assert radialborn.experiments.cached_spectrum_of is not original_cached
    finally:
        restored = tracer.uninstall()
    assert radialborn.forward.spectrum_of is original
    assert all(getattr(m, a) is f for m, a, f in restored)
    wrapped = {(m.__name__, a) for m, a, _ in restored}
    assert ("radialborn.experiments", "cached_spectrum_of") in wrapped
    assert ("radialborn.cache", "load_spectrum") in wrapped


def test_layer_mix_matches_the_design():
    fs = _run("forward_sweep", trace=1)["per_layer"]
    assert fs["born.calls"] == 0 and fs["forward.solves"] == 6 and fs["highprec.ladder_calls"] > 0
    bs = _run("born_from_spectra", trace=1)["per_layer"]
    assert bs["forward.solves"] == 0 and bs["born.calls"] == 12 and bs["born.unique_ratio"] == 1.0
    er = _run("experiment_rerun", trace=1)["per_layer"]
    # today's _born_bundle transforms every spectrum twice (ROADMAP item 4);
    # the run itself reports the ratio without gating on it
    assert er["born.unique_ratio"] == 0.5
    assert (er["cache.hits"], er["cache.misses"]) == (5, 4)
    fp = _run("fixed_point", trace=1)["per_layer"]
    assert fp["reconstruct.iterations"] > 0 and fp["cache.hits"] + fp["cache.misses"] == 0


def test_seed_changes_values_but_not_shapes(tmp_path):
    a = workloads.ForwardSweep(1, "smoke", tmp_path / "a")
    b = workloads.ForwardSweep(2, "smoke", tmp_path / "b")
    a.setup()
    b.setup()
    assert a.summary()["ops"] == b.summary()["ops"]
    assert [op.profile for op in a.ops] != [op.profile for op in b.ops]
    again = workloads.ForwardSweep(1, "smoke", tmp_path / "c")
    again.setup()
    assert [op.profile for op in a.ops] == [op.profile for op in again.ops]


def test_experiment_seed_picks_the_bump_experiment(tmp_path):
    picked = []
    for seed in range(6):
        w = workloads.ExperimentRerun(seed, "smoke", tmp_path / str(seed))
        w.setup()
        picked.append(w.ops[1].exp_id)
        assert w.expected_trace == {"cache.hits": 5, "cache.misses": 4}
    assert set(picked) == {6, 10}


def test_generated_potentials_stay_above_the_collision_floor(tmp_path):
    for seed in range(20):
        w = workloads.ForwardSweep(seed, "smoke", tmp_path / str(seed))
        w.setup()
        for op in w.ops:
            if op.profile.kind is radialborn.ProfileKind.POTENTIAL:
                assert min(op.profile.values) > workloads.NEG_FLOOR - 1e-12


def test_agreement_in_bits():
    spec = radialborn.spectrum_of(
        radialborn.PiecewiseProfile(radialborn.ProfileKind.CONDUCTIVITY, 1.0,
                                    (0.0, 0.5, 1.0), (2.0, 1.0)), 10, 128)
    assert oracle.spectrum_bits(spec, spec) == 128
    with mp.workprec(128):
        shifted = radialborn.DtnSpectrum(spec.kind, spec.radius,
                                         [x + mpf(2) ** -60 for x in spec.lambdas], spec.prec)
    assert oracle.spectrum_bits(spec, shifted) == pytest.approx(60, abs=0.01)
    assert oracle.samples_bits([1.0, 2.0], [1.0, 2.0]) == 53
    assert oracle.samples_bits([1.0, 2.0], [1.0, 2.0 + 2.0 ** -20]) == pytest.approx(21, abs=0.1)
    assert oracle.samples_bits([1.0, float("nan")], [1.0, 2.0]) == 0.0
    assert oracle.decimal_column_bits(["1.5", "2"], ["1.5", "2"], 200) == 200
    assert oracle.normalized_bits(480, 512) == pytest.approx(49.6875)
    assert oracle.floor_for(256, "exact") == 224 and oracle.floor_for(256, "series") == 128


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER_METRICS


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "forward_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
