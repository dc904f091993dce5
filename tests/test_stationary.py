import math

import numpy as np
import pytest

from crkernel.charts import heisenberg_chart, perturbed_chart, random_perturbation
from crkernel.errors import OracleFitError, OrderShortfallError
from crkernel.jets import Jet, iter_multi_indices, random_jet
from crkernel.rng import spawn_rng
from crkernel.stationary import (
    apply_L,
    build_phase_data,
    expansion_coeffs,
    mu2_vanishing_values,
    WIDTH_FRACTION,
    numeric_expansion_oracle,
    oscillatory_integral_value,
    oscillatory_monomial_moments,
)

NV = 4
BASE = (0.0,) * NV


@pytest.fixture(scope="module")
def data():
    return build_phase_data(heisenberg_chart(1, 6))


def test_hessian_matches_block_display(data):
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = want[1, 1] = 2j
    want[2, 3] = want[3, 2] = 1.0
    assert np.max(np.abs(data.hessian - want)) < 1e-12


def test_remainder_is_exact_cubic(data):
    # h = (i/2)(sigma - 1)(u_1^2 + u_2^2) with nothing else
    assert data.h.coeffs == {(2, 0, 0, 1): 0.5j, (0, 2, 0, 1): 0.5j}


def test_determinant_display(data):
    # det(t Psi''/(2 pi i)) = t^{2n+2} / (2^2 pi^{2n+2}) -> normalized value at t=1
    assert data.det_normalized == pytest.approx(1.0 / (4.0 * math.pi**4), abs=1e-18)
    assert data.sqrt_det == pytest.approx(1.0 / (2.0 * math.pi**2), abs=1e-16)


def test_inverse_hessian_table(data):
    table = data.inv_op
    assert table[(0, 0)] == pytest.approx(0.5j)
    assert table[(1, 1)] == pytest.approx(0.5j)
    assert table[(2, 3)] == pytest.approx(-2.0)
    assert (0, 1) not in table


def test_apply_L_constant_vanishes(data):
    one = Jet.constant(NV, 2, BASE, 1.0)
    assert apply_L(data, 1, one) == 0.0


def test_apply_L_single_pathway(data):
    # v = (sigma - 1) u_{2n+1}: only the -2 d_u d_sigma pathway fires
    v = Jet(NV, 2, BASE, {(0, 0, 1, 1): 1.0})
    assert apply_L(data, 1, v) == pytest.approx(1j)


def test_apply_L_order_requirements(data):
    v = Jet.constant(NV, 1, BASE, 1.0)
    with pytest.raises(OrderShortfallError):
        apply_L(data, 1, v)
    v4 = Jet.constant(NV, 4, BASE, 1.0)
    with pytest.raises(OrderShortfallError):
        apply_L(data, 3, v4)  # phase order 6 < 2j + 2 = 8


def test_apply_L_linear(data):
    rng = spawn_rng(3, "linear-L")
    v = random_jet(rng, NV, 2, BASE)
    w = random_jet(rng, NV, 2, BASE)
    a, b = 1.3 - 0.2j, -0.4 + 2.1j
    lhs = apply_L(data, 1, v.scale(a) + w.scale(b))
    rhs = a * apply_L(data, 1, v) + b * apply_L(data, 1, w)
    assert abs(lhs - rhs) < 1e-12


def test_expansion_constant_amplitude(data):
    c = 0.7 - 0.2j
    got = expansion_coeffs(data, Jet.constant(NV, 2, BASE, c))
    assert got[0] == pytest.approx(2.0 * math.pi**2 * c)
    assert got[1] == pytest.approx(0.0, abs=1e-14)


def test_expansion_zero_amplitude(data):
    got = expansion_coeffs(data, Jet.zero(NV, 2, BASE))
    assert got == [0.0, 0.0]


def test_expansion_perturbed_consistency():
    # gamma_0 = kappa = lambda(u) sigma^l must reproduce -(pi^{n+1}) R
    base = heisenberg_chart(1, 6)
    r_val = 0.7
    q, table = random_perturbation(1, r_val, seed=5)
    pch = perturbed_chart(base, r_val, q, table)
    pdata = build_phase_data(pch)
    d = 3
    order = 6
    ucoords = [Jet.coordinate(i, NV, order, BASE) for i in range(d)]
    lam = pch.volume_density.compose(ucoords)
    sigma = Jet.constant(NV, order, BASE, 1.0) + Jet.displacement(3, NV, order, BASE)
    kappa = lam * sigma  # l = n = 1
    got = expansion_coeffs(pdata, kappa)
    assert got[1] == pytest.approx(-math.pi**2 * r_val, abs=1e-12)
    assert 1j * apply_L(pdata, 1, kappa) == pytest.approx(-0.5j * r_val, abs=1e-13)


def test_mu2_case_analysis_vanishes(data):
    rng = spawn_rng(2, "mu2")
    gamma0 = random_jet(rng, NV, 2, BASE)
    vals = mu2_vanishing_values(data, gamma0)
    for name, v in vals.items():
        assert abs(v) < 1e-12, name


def test_gradient_must_vanish():
    # a phase that is not critical at (0,1) is rejected at build time
    import dataclasses

    from crkernel.errors import ChartError

    chart = heisenberg_chart(1, 6)
    tilt = Jet.displacement(0, 6, 6, (0.0,) * 6).scale(0.1)
    broken = chart.phase + tilt
    fake = dataclasses.replace(chart, phase=broken)
    with pytest.raises(ChartError):
        build_phase_data(fake)


def test_oracle_rejects_wrong_node_count(data):
    amp = Jet.constant(NV, 2, BASE, 1.0)
    with pytest.raises(OracleFitError, match="one count per variable"):
        numeric_expansion_oracle(data, amp, nodes_per_axis=(48, 48))


def test_oracle_rejects_bad_inputs(data):
    amp = Jet.constant(NV, 2, BASE, 1.0)
    with pytest.raises(OracleFitError):
        numeric_expansion_oracle(data, amp, t_samples=[10, 30, 50, 70])
    with pytest.raises(OracleFitError):
        numeric_expansion_oracle(data, amp, t_samples=[40, 50, 60])
    with pytest.raises(OracleFitError):
        numeric_expansion_oracle(data, amp, cutoff_radius=2.5)
    with pytest.raises(OracleFitError):
        numeric_expansion_oracle(data, amp, nodes_per_axis=(32, 32, 64, 64))
    base = heisenberg_chart(1, 6)
    q, table = random_perturbation(1, 0.3, seed=1)
    pdata = build_phase_data(perturbed_chart(base, 0.3, q, table))
    with pytest.raises(OracleFitError):
        numeric_expansion_oracle(pdata, amp)


def test_oracle_zero_amplitude(data):
    got = numeric_expansion_oracle(
        data, Jet.zero(NV, 2, BASE), nodes_per_axis=(48, 48, 48, 48)
    )
    assert got == (0.0, 0.0)


def test_gaussian_quadrature_reference():
    # pure Gaussian phase, no sigma coupling: matches (pi/t) c to 0.1%
    phase = Jet(2, 4, (0.0, 0.0), {(2, 0): 1j, (0, 2): 1j})
    c = 1.3 - 0.4j
    amp = Jet.constant(2, 4, (0.0, 0.0), c)
    for t in (20.0, 35.0, 50.0):
        got = oscillatory_integral_value(phase, amp, t, 1.4, (64, 64))
        want = math.pi / t * c
        assert abs(got - want) / abs(want) < 1e-3


def _brute_force_moments(phase, amp_order, t, radius, nodes):
    """The same product-cutoff integrand summed over the full tensor grid."""
    width = WIDTH_FRACTION * radius
    axes = [np.polynomial.legendre.leggauss(k) for k in nodes]
    grids = np.meshgrid(*[x * radius for x, _ in axes], indexing="ij")
    wgrids = np.meshgrid(*[w * radius for _, w in axes], indexing="ij")
    weight = np.ones(grids[0].shape)
    for g, w in zip(grids, wgrids):
        weight = weight * w * np.exp(-((g / width) ** 8))
    psi = np.zeros(grids[0].shape, dtype=complex)
    for idx, c in phase.graded_items():
        term = np.full(grids[0].shape, c, dtype=complex)
        for g, p in zip(grids, idx):
            term = term * g**p
        psi += term
    core = weight * np.exp(1j * t * psi)
    out = {}
    for idx in iter_multi_indices(len(nodes), amp_order):
        mono = core
        for g, p in zip(grids, idx):
            mono = mono * g**p
        out[idx] = complex(np.sum(mono))
    return out


def test_separable_moments_match_tensor_grid(data):
    # the exact phase plus a pure-s term and a u_1 s^2 term
    extra = Jet(NV, 6, BASE, {(0, 0, 0, 2): 0.2j, (1, 0, 0, 2): 0.1})
    phase = data.psi0 + extra
    nodes = (12, 12, 16, 16)
    got = oscillatory_monomial_moments(phase, 2, 30.0, 1.4, nodes)
    want = _brute_force_moments(phase, 2, 30.0, 1.4, nodes)
    assert got.keys() == want.keys()
    scale = max(abs(v) for v in want.values())
    for idx in want:
        assert abs(got[idx] - want[idx]) <= 1e-12 * scale, idx


def test_moments_reject_coupled_inner_variables(data):
    coupled = data.psi0 + Jet(NV, 6, BASE, {(1, 1, 0, 0): 0.1})
    with pytest.raises(OracleFitError, match="couples"):
        oscillatory_monomial_moments(coupled, 2, 30.0, 1.4, (12, 12, 16, 16))
