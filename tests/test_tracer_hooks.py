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
from pathlib import Path

import pytest

from crkernel.harness import parse_config
from crkernel.jets import Jet

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
    ("quadrature", 7): "63b1ed736e8c140095e7cbe27891a0777aa118ca4b91f557def673fa5e7de44d",
}


@pytest.mark.parametrize("workload, seed", sorted(WORKLOAD_REPORT_SHA256))
def test_workload_reports_are_pinned(workload, seed):
    from crkernel.harness import emit_report, run_scenarios

    doc = load_perfbench("workloads").WORKLOADS[workload](seed)
    blob = emit_report(run_scenarios(parse_config(doc), timings=False))
    assert hashlib.sha256(blob).hexdigest() == WORKLOAD_REPORT_SHA256[(workload, seed)]


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
