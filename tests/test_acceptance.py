"""Acceptance criteria, each at its stated tolerance and runtime budget.

Every test prints one PASS/FAIL line (visible with pytest -s or on failure);
tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from crkernel.charts import (
    christoffel_at,
    heisenberg_chart,
    kohn_laplacian_at0,
    perturbed_chart,
    random_perturbation,
    tw_scalar_curvature,
)
from crkernel.harness import parse_config, run_scenarios
from crkernel.jets import Jet, random_jet
from crkernel.pipeline import (
    compose_amplitudes_closed,
    compose_amplitudes_sp,
    random_amplitude,
    toeplitz_b1_closed_form,
    toeplitz_b1_pipeline,
)
from crkernel.rng import spawn_rng
from crkernel.stationary import (
    build_phase_data,
    expansion_coeffs,
    numeric_expansion_oracle,
    oracle_sweep,
)
from crkernel.symbols import (
    euler_check,
    identity_symbol,
    invert_map,
    make_multiplication_symbol,
    p_operator_canonical,
    p_operator_geometric,
    random_classical_symbol,
    subprincipal_symbol,
    transform_density,
    transform_symbol_under_diffeo,
    xi_base,
)

PI2 = math.pi**2
D = 3
NV = 6


def _verdict(num: int, label: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} criterion {num}: {label} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {label}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"


@pytest.fixture(scope="module")
def chart():
    return heisenberg_chart(1, 6)


@pytest.fixture(scope="module")
def curved_charts(chart):
    charts = []
    for i, r in enumerate((0.3, -0.3, 0.7, -0.7, 1.1)):
        q, table = random_perturbation(1, r, seed=10 + i)
        charts.append(perturbed_chart(chart, r, q, table))
    return charts


def test_criterion_1_identity_case(chart):
    t0 = time.perf_counter()
    b0, b1 = toeplitz_b1_pipeline(identity_symbol(1), chart)
    ok = abs(b0 - 1.0 / (2.0 * PI2)) < 1e-12 and abs(b1) < 1e-10
    _verdict(1, "identity symbol reproduces the projector coefficients", ok, time.perf_counter() - t0, 5.0)


def test_criterion_2_multiplication_case(chart):
    t0 = time.perf_counter()
    ok = True
    for k in range(10):
        rng = spawn_rng(k, "acceptance-mult")
        f = random_jet(rng, D, 6, (0.0,) * D, decay=0.5)
        E = make_multiplication_symbol(f)
        _, b1 = toeplitz_b1_pipeline(E, chart)
        want = (
            tw_scalar_curvature(chart) * f.constant_term() - kohn_laplacian_at0(chart, f)
        ) / (4.0 * PI2)
        ok = ok and abs(b1 - want) <= 1e-10 * (1.0 + abs(want))
    E = make_multiplication_symbol(Jet(D, 6, (0.0,) * D, {(2, 0, 0): 1.0}))
    _, b1 = toeplitz_b1_pipeline(E, chart)
    ok = ok and abs(b1 - 1.0 / (4.0 * PI2)) < 1e-12
    _verdict(2, "multiplication symbols match [R f - box_b f]/(4 pi^2)", ok, time.perf_counter() - t0, 30.0)


def test_criterion_3_general_symbols(chart, curved_charts):
    t0 = time.perf_counter()
    charts = [chart] + curved_charts
    phase_data = {id(ch): build_phase_data(ch) for ch in charts}
    symbols = []
    sym_id = 0
    for m in (-1.0, 0.0, 0.5, 1.0):
        for _ in range(10):
            symbols.append(random_classical_symbol(1, m, 2, seed=1000 + sym_id))
            sym_id += 1
    worst = 0.0
    for E in symbols:
        for ch in charts:
            pb = toeplitz_b1_pipeline(E, ch, phase_data=phase_data[id(ch)])
            cb = toeplitz_b1_closed_form(E, ch)
            worst = max(worst, abs(pb[1] - cb[1]) / (1.0 + abs(cb[1])))
    ok = worst < 1e-9
    elapsed = time.perf_counter() - t0
    _verdict(3, f"40 symbols x 6 charts, two routes agree (worst {worst:.2e})", ok, elapsed, 300.0)


def test_criterion_4_composition_formula(chart, curved_charts):
    t0 = time.perf_counter()
    charts = [chart] + curved_charts
    phase_data = {id(ch): build_phase_data(ch) for ch in charts}
    worst = 0.0
    for k in range(50):
        rng = spawn_rng(k, "acceptance-pairs")
        A = random_amplitude(1, float(rng.uniform(-1.0, 2.0)), seed=2000 + k)
        C = random_amplitude(1, float(rng.uniform(-1.0, 2.0)), seed=3000 + k)
        ch = charts[k % len(charts)]
        sp0, sp1 = compose_amplitudes_sp(A, C, ch, phase_data=phase_data[id(ch)])
        c0, c1 = compose_amplitudes_closed(A, C, ch)
        worst = max(
            worst,
            abs(sp0 - c0) / (1.0 + abs(c0)),
            abs(sp1 - c1) / (1.0 + abs(c1)),
        )
    ok = worst < 1e-10
    _verdict(4, f"50 amplitude pairs, both coefficients (worst {worst:.2e})", ok, time.perf_counter() - t0, 60.0)


def test_criterion_5_quadrature(chart):
    t0 = time.perf_counter()
    data = build_phase_data(chart)
    # display checks at 1e-12
    want_h = np.zeros((4, 4), dtype=complex)
    want_h[0, 0] = want_h[1, 1] = 2j
    want_h[2, 3] = want_h[3, 2] = 1.0
    ok = float(np.max(np.abs(data.hessian - want_h))) < 1e-12
    ok = ok and abs(data.det_normalized - 1.0 / (4.0 * math.pi**4)) < 1e-12
    table = data.inv_op
    ok = ok and abs(table[(0, 0)] - 0.5j) < 1e-12
    ok = ok and abs(table[(1, 1)] - 0.5j) < 1e-12
    ok = ok and abs(table[(2, 3)] + 2.0) < 1e-12
    worst0 = worst1 = 0.0
    sweep = oracle_sweep(data, 2)
    for k in range(5):
        rng = spawn_rng(k, "acceptance-quadrature")
        amp = random_jet(rng, 4, 2, (0.0,) * 4, decay=0.6)
        fit0, fit1 = numeric_expansion_oracle(sweep, amp)
        ref0, ref1 = expansion_coeffs(data, amp)
        worst0 = max(worst0, abs(fit0 - ref0) / abs(ref0))
        worst1 = max(worst1, abs(fit1 - ref1) / abs(ref1))
    ok = ok and worst0 < 1e-2 and worst1 < 5e-2
    elapsed = time.perf_counter() - t0
    _verdict(
        5,
        f"quadrature oracle (leading {worst0:.2e} < 1e-2, subleading {worst1:.2e} < 5e-2)",
        ok,
        elapsed,
        600.0,
    )


def test_criterion_6_subprincipal_and_p(chart):
    t0 = time.perf_counter()
    worst_sub = 0.0
    for k in range(20):
        rng = spawn_rng(k, "acceptance-diffeo")
        sym = random_classical_symbol(1, 0.7, 2, seed=4000 + k, homogeneous=False)
        lam = random_jet(rng, D, 6, (0.0,) * D, real=True, decay=0.4, min_degree=1).scale(0.5).exp()
        s_val = float(rng.uniform(0.5, 2.0))
        kappa = []
        for c in range(D):
            bump = random_jet(rng, D, 6, (0.0,) * D, real=True, decay=0.3, min_degree=2)
            kappa.append(
                Jet.displacement(c, D, 6, (0.0,) * D)
                + bump.truncated(3).with_order(6).scale(0.3)
            )
        psi = invert_map(kappa)
        tsym = transform_symbol_under_diffeo(sym, kappa, psi)
        tlam = transform_density(lam, kappa, s_val, psi)
        direct, _ = subprincipal_symbol(sym, lam, s_val)
        transported, _ = subprincipal_symbol(tsym, tlam, s_val)
        worst_sub = max(worst_sub, abs(direct - transported))
    worst_p = 0.0
    for k in range(20):
        rng = spawn_rng(k, "acceptance-pfield")
        F = random_jet(rng, NV, 4, xi_base(1), decay=0.5)
        worst_p = max(worst_p, abs(p_operator_canonical(F) - p_operator_geometric(chart, F)))
    ok = worst_sub < 1e-10 and worst_p < 1e-12
    _verdict(
        6,
        f"subprincipal invariance ({worst_sub:.2e}) and P-operator routes ({worst_p:.2e})",
        ok,
        time.perf_counter() - t0,
        30.0,
    )


def test_criterion_7_geometry_table(chart):
    t0 = time.perf_counter()
    gammas = christoffel_at(chart)
    ok = True
    for j in range(D):
        for k in range(D):
            for l in range(D):
                want = 0.0
                if k == 2 and j == 1 and l == 0:
                    want = -1.0
                elif k == 2 and j == 0 and l == 1:
                    want = 1.0
                ok = ok and gammas[(j, k, l)].constant_term() == want
    # Kohn point formula against the value-based derivative oracle
    for k in range(10):
        rng = spawn_rng(k, "acceptance-kohn")
        f = random_jet(rng, D, 4, (0.0,) * D, decay=0.5)
        got = kohn_laplacian_at0(chart, f)
        want = 0.0 + 0.0j
        for j in range(2):
            ts = np.linspace(-0.5, 0.5, 5)
            pts = np.zeros((5, D), dtype=complex)
            pts[:, j] = ts
            co = np.polynomial.polynomial.polyfit(ts, f.eval_many(pts), 4)
            want += -0.5 * 2.0 * complex(co[2])
        ts = np.linspace(-0.5, 0.5, 5)
        pts = np.zeros((5, D), dtype=complex)
        pts[:, D - 1] = ts
        co = np.polynomial.polynomial.polyfit(ts, f.eval_many(pts), 4)
        want += -1j * complex(co[1])
        ok = ok and abs(got - want) < 1e-10
    # Euler and principal-symbol identities over seeded symbols
    for k, m in enumerate((-1.0, 0.0, 0.5, 1.0, 2.0)):
        sym = random_classical_symbol(1, m, 2, seed=5000 + k)
        for j, comp in enumerate(sym.components):
            ok = ok and euler_check(comp, m - j) < 1e-10
        e0 = sym.components[0]
        lhs = m * (-e0.derivative_value((0, 0, 1, 0, 0, 0)))
        rhs = e0.derivative_value((0, 0, 1, 0, 0, 1))
        ok = ok and abs(lhs - rhs) < 1e-10
    _verdict(7, "Christoffel integers, Kohn formula, Euler identities", ok, time.perf_counter() - t0, 10.0)


def test_criterion_9_two_routes_beyond_n1():
    t0 = time.perf_counter()
    charts = (
        {"model": "heisenberg", "n": 2},
        {"model": "perturbed", "n": 2, "r_synth": 0.7, "seed": 3},
        {"model": "heisenberg", "n": 3},
    )
    scenarios = [
        {
            "name": f"homogeneous-n{chart['n']}-{k}",
            "chart": chart,
            "symbol": {"kind": "random-homogeneous", "order_m": 0.5, "num_components": 2, "seed": 1000 + k},
            "checks": ["b0_leading", "b1_two_routes"],
            "tolerances": {"absolute": 1e-12, "relative": 1e-9},
        }
        for k, chart in enumerate(charts)
    ]
    reports = run_scenarios(parse_config({"seed": 0, "scenarios": scenarios}), timings=False)
    records = [r for rep in reports for r in rep.records]
    ok = len(records) == 6 and all(r.passed for r in records)
    _verdict(9, "random homogeneous symbols at n = 2, 3, two routes agree", ok, time.perf_counter() - t0, 10.0)
