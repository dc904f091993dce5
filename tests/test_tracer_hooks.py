"""The benchmark tracer hooks crkernel functions and ``Jet`` methods by name.

``perfbench/tracer.py`` is read here, never edited: a rename in ``src/`` that
drops one of its names would otherwise only show when a traced benchmark run
fails to install.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from crkernel.jets import Jet

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


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
