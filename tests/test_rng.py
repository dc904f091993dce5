"""The keyed streams behind every seeded draw."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crkernel.rng import spawn_rng


@pytest.mark.parametrize("method", ["random", "standard_normal"])
@pytest.mark.parametrize("count", [1, 2, 7, 64, 333])
def test_scalar_draws_read_what_one_draw_reads(method, count):
    scalars = spawn_rng(5, "chunks", method, count)
    batch = spawn_rng(5, "chunks", method, count)
    got = [getattr(scalars, method)() for _ in range(count)] + [scalars.random()]
    want = getattr(batch, method)(count).tolist() + [batch.random()]
    assert got == want
    assert getattr(spawn_rng(5, "chunks", method, count), method)((count, 1)).ravel().tolist() == want[:-1]


def test_labels_and_seeds_key_different_streams():
    draws = [spawn_rng(*key).random(4).tolist() for key in [(1, "a"), (1, "b"), (2, "a"), (1, "a", 0), (1,)]]
    assert all(draws[i] != draws[j] for i in range(len(draws)) for j in range(i))
    assert spawn_rng(1, "a").random(4).tolist() == draws[0]


def test_uniform_and_integers_stay_in_range():
    rng = spawn_rng(3, "ranges")
    uniforms = [rng.uniform(-1.0, 2.0) for _ in range(2000)]
    assert all(-1.0 <= u < 2.0 for u in uniforms)
    assert min(uniforms) < -0.99 and max(uniforms) > 1.99
    for low, high in [(0, 3), (-2, 5), (4, None), (10, 11)]:
        values = [rng.integers(low, high) for _ in range(500)]
        want = set(range(low, high)) if high is not None else set(range(low))
        assert set(values) == want
        assert all(isinstance(v, int) for v in values)
    assert 0 <= rng.integers(1 << 30) < 1 << 30


def test_seeded_normals_have_unit_moments():
    z = spawn_rng(0, "moments").standard_normal(10**5)
    # the standard errors are 0.0032 (mean) and 0.0045 (variance)
    assert abs(float(np.mean(z))) < 0.02
    assert abs(float(np.var(z)) - 1.0) < 0.03
    assert np.all(np.isfinite(z))


def test_default_suite_runs_without_numpy_random(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; from crkernel import cli; "
        f"code = cli.main(['--no-timings', '--out', {str(tmp_path / 'report.json')!r}]); "
        "print(code, 'numpy.random' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "False"]
