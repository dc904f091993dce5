"""Mutation gate: the default suite's two-route checks must catch a wrong term.

Each mutant scales one quantity of the closed b1 formula, or one coefficient
of the projector amplitude, by 1 + 1e-6 in the ``crkernel.pipeline``
namespace, and the filtered n = 1 default-suite runs must fail at least one
record for it (mutation analysis: DeMillo, Lipton and Sayward, "Hints on test
data selection", IEEE Computer 11, 1978).  The n-dependent mutants (R -> nR,
the Kohn term's -i n T -> -i T, pi^{n+1} -> pi^{2n}) are invisible at n = 1
and wait for n = 2 scenarios in the default suite.
"""

import dataclasses

import crkernel.pipeline as pipeline
from crkernel.harness import default_config, run_scenarios

FACTOR = 1.0 + 1e-6

#: the random-homogeneous group spreads over all six default charts (the
#: exact one and five perturbed); the multiplication group adds b1_reference
FILTERS = ("homogeneous-m+0.5-0*", "multiplication-0*")


def _scaled(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) * FACTOR


def _scaled_subprincipal(fn):
    def mutant(*args, **kwargs):
        esub, rest = fn(*args, **kwargs)
        return esub * FACTOR, rest

    return mutant


def _scaled_amplitude(fn, j):
    def mutant(*args, **kwargs):
        A = fn(*args, **kwargs)
        coeffs = list(A.coeffs)
        coeffs[j] = coeffs[j].scale(FACTOR)
        return dataclasses.replace(A, coeffs=tuple(coeffs))

    return mutant


#: mutant label -> (name patched in crkernel.pipeline, mutant of the original)
MUTANTS = {
    "tw_scalar_curvature": ("tw_scalar_curvature", _scaled),
    "kohn_laplacian_at0": ("kohn_laplacian_at0", _scaled),
    "p_operator_canonical": ("p_operator_canonical", _scaled),
    "reeb_derivative_at0": ("reeb_derivative_at0", _scaled),
    "subprincipal_symbol": ("subprincipal_symbol", _scaled_subprincipal),
    "szego_amplitude A_0": ("szego_amplitude", lambda fn: _scaled_amplitude(fn, 0)),
    "szego_amplitude A_1": ("szego_amplitude", lambda fn: _scaled_amplitude(fn, 1)),
}


def _failed_records(config):
    records = [
        r
        for pattern in FILTERS
        for report in run_scenarios(config, name_filter=pattern, timings=False)
        for r in report.records
    ]
    assert records
    return sum(not r.passed for r in records)


def test_every_mutant_fails_a_record(monkeypatch):
    config = default_config()
    assert _failed_records(config) == 0
    escaped = []
    for label, (name, mutate) in MUTANTS.items():
        with monkeypatch.context() as m:
            m.setattr(pipeline, name, mutate(getattr(pipeline, name)))
            if _failed_records(config) == 0:
                escaped.append(label)
    assert escaped == []
