"""Mutation gate: the default suite's checks must catch a wrong term.

Each closed-form mutant scales one quantity of the closed b1 formula, or one
coefficient of the projector amplitude, by 1 + 1e-6 in the
``crkernel.pipeline`` namespace, and the filtered n = 1 default-suite runs
must fail at least one record for it (mutation analysis: DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer 11, 1978).  The
n-dependent mutants (R -> nR, the Kohn term's -i n T -> -i T, pi^{n+1} ->
pi^{2n}) are invisible at n = 1 and wait for n = 2 scenarios in the default
suite.  The Kohn and Reeb mutants must also fail a record of the
composition scenarios, whose closed formula reads the same two operators.
Each frame mutant breaks the Levi frame's coframe in every module that holds
the patched name, and the geometry-table and P-operator scenarios must fail a
record for it.  Each reader mutant breaks ``Jet.derivative_at``, which every
route reads its base-point derivatives through, and the scenarios whose
reference route never calls it (the exact expansion, the Kohn oracle, the
geometric P route, the quadrature oracle) must fail a record for it, so a
reader fault that both b1 routes share cannot hide.  Reader mutants touch
second derivatives only: a wrong first derivative breaks a chart invariant
before any record exists.  The expansion mutant scales L_1 by n, which is
invisible at n = 1, and the exact-expansion scenarios at n = 1..5 must fail a
record for it.  Each oracle mutant breaks the quadrature moments that the
oracle fits, conjugated (the sign of the Fourier axis) or halved (the factor 2
of the mirror fold), and the quadrature scenarios must fail a record for it.
Every filter must match at least one scenario, so a renamed scenario cannot
drop out of a gate unnoticed.
"""

import dataclasses

import numpy as np

import crkernel.charts as charts
import crkernel.pipeline as pipeline
import crkernel.stationary as stationary
import crkernel.symbols as symbols
from crkernel.harness import default_config, run_scenarios
from crkernel.jets import Jet

FACTOR = 1.0 + 1e-6

#: the random-homogeneous group spreads over all six default charts (the
#: exact one and five perturbed); the multiplication group adds b1_reference
FILTERS = ("homogeneous-m+0.5-0*", "multiplication-0*")


def _scaled(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) * FACTOR


def _scaled_amplitude(fn, part):
    """Scale the ``leading`` jet or the ``subleading`` value of the amplitude."""

    def mutant(*args, **kwargs):
        A = fn(*args, **kwargs)
        return dataclasses.replace(A, **{part: getattr(A, part) * FACTOR})

    return mutant


#: mutant label -> (name patched in crkernel.pipeline, mutant of the original)
MUTANTS = {
    "tw_scalar_curvature": ("tw_scalar_curvature", _scaled),
    "kohn_laplacian_at0": ("kohn_laplacian_at0", _scaled),
    "p_operator_canonical": ("p_operator_canonical", _scaled),
    "reeb_derivative_at0": ("reeb_derivative_at0", _scaled),
    "subprincipal_symbol": ("subprincipal_symbol", _scaled),
    "szego_amplitude A_0": ("szego_amplitude", lambda fn: _scaled_amplitude(fn, "leading")),
    "szego_amplitude A_1": ("szego_amplitude", lambda fn: _scaled_amplitude(fn, "subleading")),
}

#: the composition scenarios on the exact and a perturbed chart
COMPOSITION_FILTERS = ("composition-cross-route*",)
COMPOSITION_MUTANTS = {label: MUTANTS[label] for label in ("kohn_laplacian_at0", "reeb_derivative_at0")}


#: the Christoffel tables at n = 1 and 2, and the P operator's two routes
FRAME_FILTERS = ("geometry-tables*", "cotangent-operators")


def _scaled_coframe(fn):
    def mutant(*args, **kwargs):
        frame, coframe = fn(*args, **kwargs)
        return frame, [[w.scale(FACTOR) for w in row] for row in coframe]

    return mutant


def _one_pass_solve(fn):
    def mutant(amat, rhs):
        """The first pass of the jet solve alone: A(0)^{-1} rhs."""
        a0inv = np.linalg.inv(np.array([[a.constant_term() for a in row] for row in amat]))
        out = []
        for r in range(len(rhs)):
            acc = rhs[0].scale(complex(a0inv[r, 0]))
            for c in range(1, len(rhs)):
                acc = acc + rhs[c].scale(complex(a0inv[r, c]))
            out.append(acc)
        return out

    return mutant


#: mutant label -> (name patched in crkernel.charts and, where it is imported,
#: crkernel.symbols; mutant of the original)
FRAME_MUTANTS = {
    "levi_frame coframe": ("levi_frame", _scaled_coframe),
    "_solve_jet_linear one pass": ("_solve_jet_linear", _one_pass_solve),
}


#: the scenarios whose reference route reads no derivative through the jet reader
READER_FILTERS = ("expansion-exact*", "geometry-tables*", "cotangent-operators", "quadrature-oracle*")


def _second_derivative_mutant(pure, scale):
    """Scale the reader's pure (d_v d_v) or mixed (d_v d_w) second derivatives."""

    def mutate(fn):
        def mutant(self, *variables):
            value = fn(self, *variables)
            if len(variables) == 2 and (variables[0] == variables[1]) == pure:
                return value * scale
            return value

        return mutant

    return mutate


#: mutant label -> (name patched on Jet, mutant of the original)
READER_MUTANTS = {
    "pure second derivatives lose their 2!": ("derivative_at", _second_derivative_mutant(True, 0.5)),
    "mixed second derivatives scaled": ("derivative_at", _second_derivative_mutant(False, FACTOR)),
}


#: the exact-expansion scenarios at n = 1..5
EXPANSION_FILTERS = ("expansion-exact*",)


def _scaled_by_n(fn):
    return lambda data, v: fn(data, v) * data.n


#: mutant label -> (name patched in crkernel.stationary, mutant of the original)
EXPANSION_MUTANTS = {"apply_L scaled by n": ("apply_L", _scaled_by_n)}


#: the quadrature-oracle scenarios, leading and subleading
ORACLE_FILTERS = ("quadrature-oracle*",)


#: mutant label -> (name patched in crkernel.stationary, mutant of the original)
ORACLE_MUTANTS = {
    "moments conjugated": ("oscillatory_monomial_moments", lambda fn: lambda *args: np.conj(fn(*args))),
    "moments halved": ("oscillatory_monomial_moments", lambda fn: lambda *args: 0.5 * fn(*args)),
}


def _failed_records(config, filters):
    failed = 0
    for pattern in filters:
        records = [r for report in run_scenarios(config, name_filter=pattern, timings=False) for r in report.records]
        assert records, f"filter {pattern!r} matches no scenario"
        failed += sum(not r.passed for r in records)
    return failed


def _escaped(monkeypatch, mutants, modules, filters):
    """Labels of the mutants that fail no record of the filtered runs."""
    config = default_config()
    assert _failed_records(config, filters) == 0
    escaped = []
    for label, (name, mutate) in mutants.items():
        with monkeypatch.context() as m:
            for module in modules:
                if hasattr(module, name):
                    m.setattr(module, name, mutate(getattr(module, name)))
            if _failed_records(config, filters) == 0:
                escaped.append(label)
    return escaped


def test_every_mutant_fails_a_record(monkeypatch):
    assert _escaped(monkeypatch, MUTANTS, (pipeline,), FILTERS) == []


def test_every_composition_mutant_fails_a_record(monkeypatch):
    assert _escaped(monkeypatch, COMPOSITION_MUTANTS, (pipeline,), COMPOSITION_FILTERS) == []


def test_every_frame_mutant_fails_a_record(monkeypatch):
    assert _escaped(monkeypatch, FRAME_MUTANTS, (charts, symbols), FRAME_FILTERS) == []


def test_every_reader_mutant_fails_a_record(monkeypatch):
    assert _escaped(monkeypatch, READER_MUTANTS, (Jet,), READER_FILTERS) == []


def test_every_expansion_mutant_fails_a_record(monkeypatch):
    assert _escaped(monkeypatch, EXPANSION_MUTANTS, (stationary,), EXPANSION_FILTERS) == []


def test_every_oracle_mutant_fails_a_record(monkeypatch):
    assert _escaped(monkeypatch, ORACLE_MUTANTS, (stationary,), ORACLE_FILTERS) == []
