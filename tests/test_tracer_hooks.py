"""The benchmark hooks crkernel functions and ``Jet`` methods by name, and
feeds ``parse_config`` the documents of its workloads.

``perfbench/tracer.py`` and ``perfbench/workloads.py`` are read here, never
edited: a rename in ``src/`` that drops one of the tracer's names, or a
parse-time rule that refuses a workload's document, would otherwise only
show when a benchmark run fails.  The workloads' reports are pinned too, so a
change that moves one of their bytes shows here.
"""

import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crkernel.harness import parse_config
from crkernel.jets import Jet
from test_harness import _cpu_dispatch

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_perfbench("tracer")


@pytest.mark.parametrize("module_name", sorted(TRACER.FUNCTIONS))
def test_hooked_functions_exist(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in TRACER.FUNCTIONS[module_name] if not callable(getattr(module, name, None))]
    assert not missing, f"{module_name} lacks {missing}"


def test_hooked_jet_methods_exist():
    missing = [name for name in ("_mul_jet", *TRACER.JET_METHODS) if not callable(getattr(Jet, name, None))]
    assert not missing, f"Jet lacks {missing}"


def test_traced_check_ids_exist():
    from crkernel.harness import CHECKS

    assert set(TRACER.PIPELINE_CHECKS) <= set(CHECKS)


@pytest.mark.parametrize("workload", ["routes", "quadrature"])
def test_workload_documents_parse(workload):
    workloads = load_perfbench("workloads")
    for seed in (0, 1, 77):
        parse_config(workloads.WORKLOADS[workload](seed))


#: sha256 of the timings-off report of each benchmark workload document
WORKLOAD_REPORT_SHA256 = {
    ("routes", 11): "46bfcf85eaa0e09ff397113706d711011f62d5726d1bb301b31738a1a25ca75b",
    ("routes", 12): "284741d8813879c97936920882dc21201ff012799ecdebd6f3b42ae4c1e77302",
    ("routes", 7001): "1e91958e0bcf3144086065cc3a0e1d3f7d874e34b8c2bf82aec581484455299b",
    ("quadrature", 7): "aab3501c2cfa100fe9e437dc9777911aa3ab407edda150742d8109f20ec5ffc9",
}


@pytest.mark.parametrize("workload, seed", sorted(WORKLOAD_REPORT_SHA256))
def test_workload_reports_are_pinned(workload, seed):
    from crkernel.harness import emit_report, run_scenarios

    doc = load_perfbench("workloads").WORKLOADS[workload](seed)
    blob = emit_report(run_scenarios(parse_config(doc), timings=False))
    assert hashlib.sha256(blob).hexdigest() == WORKLOAD_REPORT_SHA256[(workload, seed)]


#: prints the timings-off report digest of each (workload, seed) in argv[2],
#: from the workload documents of the file in argv[1]
_WORKLOAD_DIGESTS = """
import hashlib, importlib.util, json, sys
from crkernel.harness import emit_report, parse_config, run_scenarios
spec = importlib.util.spec_from_file_location("perfbench_workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
for workload, seed in json.loads(sys.argv[2]):
    doc = workloads.WORKLOADS[workload](seed)
    print(hashlib.sha256(emit_report(run_scenarios(parse_config(doc), timings=False))).hexdigest())
"""


@pytest.mark.parametrize("coretype, feature", [("Prescott", "SSE3"), ("Sandybridge", "AVX")])
def test_workload_reports_are_pinned_under_other_blas_kernels(coretype, feature):
    # OPENBLAS_CORETYPE makes OpenBLAS run the kernels of an older core in place
    # of the ones it picks for this CPU; no workload record reads a BLAS result
    # that they round otherwise, so every pinned report keeps its bytes
    if not _cpu_dispatch()[1].get(feature):
        pytest.skip(f"this CPU cannot run OpenBLAS's {coretype} kernels")
    pins = sorted(WORKLOAD_REPORT_SHA256)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_CORETYPE=coretype)
    args = [sys.executable, "-c", _WORKLOAD_DIGESTS, str(PERFBENCH / "workloads.py"), json.dumps(pins)]
    child = subprocess.run(args, env=env, capture_output=True, text=True, check=True)
    assert child.stdout.split() == [WORKLOAD_REPORT_SHA256[pin] for pin in pins]


def test_traced_products_accept_a_batch():
    # three fields: a batch with fewer rows than the 7 coefficients of its order-1 products
    from crkernel.harness import run_scenarios

    doc = {
        "seed": 5,
        "scenarios": [{
            "name": "p-operator",
            "chart": {"model": "heisenberg", "n": 1},
            "checks": ["p_operator_routes"],
            "tolerances": {"absolute": 1e-12, "relative": 0.0},
            "params": {"num_fields": 3},
        }],
    }
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        reports = run_scenarios(parse_config(doc), timings=False)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["errors"] == {}
    assert summary["group_calls"]["jets.mul"] > 0 and summary["group_calls"]["symbols.p_operator"] == 2
    assert reports[0].all_passed
