"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The quadrature test launches two traced quadrature iterations (about two
minutes on a 2-core x86 box); the others take seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_workload_configs_depend_only_on_the_seed():
    for build in workloads.WORKLOADS.values():
        assert build(3) == build(3)
    assert workloads.routes(3) != workloads.routes(4)


def test_mul_terms_counts_every_multiply_add():
    from crkernel.jets import Jet, random_jet
    from crkernel.rng import spawn_rng

    a = random_jet(spawn_rng(1, "a"), 3, 4, (0.0,) * 3, min_degree=1)
    b = Jet(3, 4, (0.0,) * 3, {(0, 0, 0): 1.0, (1, 0, 0): 2.0, (0, 2, 1): 3.0})
    tracer = Tracer()
    tracer.install()
    try:
        product = a * b
    finally:
        tracer.uninstall()
    assert product == b * a
    assert not hasattr(Jet._mul_jet, "__wrapped__")
    want = sum(
        1 for ia in a.coeffs for ib in b.coeffs if sum(ia) + sum(ib) <= 4
    )
    summary = tracer.summary()
    assert summary["mul_terms"] == want
    assert summary["group_calls"]["jets.mul"] == 1
    full = math.comb(3 + 4, 4)
    assert summary["mul_density"] == pytest.approx((len(a.coeffs) + len(b.coeffs)) / 2 / full)


def test_raising_check_fails_its_unfinished_checks_and_the_loop_goes_on(tmp_path):
    """A perturbed-chart quadrature_leading scenario raises OracleFitError and
    aborts run_scenarios; the untraced and the traced iteration both still run
    and count all their checks as failed."""
    doc = {
        "seed": 0,
        "jet_order": 6,
        "scenarios": [
            {
                "name": "geometry",
                "chart": {"model": "heisenberg", "n": 1},
                "checks": ["christoffel_table"],
                "tolerances": {"absolute": 1e-10, "relative": 0.0},
            },
            {
                "name": "quadrature-perturbed",
                "chart": {"model": "perturbed", "n": 1, "r_synth": 0.7, "seed": 3},
                "checks": ["quadrature_leading"],
                "tolerances": {"absolute": 0.0, "relative": 1e-2},
            },
        ],
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = run.run_workload(None, 0, 0, trace=True, config=config)
    result, samples = out["result"], out["samples"]
    assert result["correct"] is False
    assert result["attempted"] == 4
    assert result["failed"] == 4
    assert len(samples["verdict_s"]) == 2
    assert len(samples["errors"]) == 2
    assert all(e.startswith("OracleFitError") for e in samples["errors"])
    assert result["metrics"]["harness.check_errors"]["value"] == 1


def test_traced_counters_repeat_for_a_seed():
    runs = [run.launch("routes", 5, None, 0, traced=True) for _ in range(2)]
    assert all(r["error"] is None and r["failed"] == 0 for r in runs)
    assert run._counters(runs[0]["trace"]) == run._counters(runs[1]["trace"])
    assert runs[0]["digest"] == runs[1]["digest"]


def test_quadrature_starts_cold_and_repeats():
    """Each traced quadrature iteration sweeps the grid once per t sample and
    calls the oracle once per amplitude, so no memo survives between runs."""
    t_samples = workloads.QUADRATURE_ORACLE["t_samples"]
    nodes = math.prod(workloads.QUADRATURE_ORACLE["nodes_per_axis"])
    runs = [run.launch("quadrature", 2, None, 0, traced=True) for _ in range(2)]
    for r in runs:
        assert r["error"] is None and r["failed"] == 0
        trace = r["trace"]
        assert trace["moment_sweeps"] == len(t_samples)
        assert trace["grid_nodes"] == len(t_samples) * nodes
        assert trace["group_calls"]["stationary.oracle"] == 5
    assert run._counters(runs[0]["trace"]) == run._counters(runs[1]["trace"])
    assert runs[0]["digest"] == runs[1]["digest"]


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "routes", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
