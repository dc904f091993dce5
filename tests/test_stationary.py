import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crkernel.charts import heisenberg_chart, perturbed_chart, random_perturbation
from crkernel.errors import OracleFitError, OrderShortfallError
from crkernel.jets import Jet, iter_multi_indices, random_jet
from crkernel.rng import spawn_rng
from crkernel.stationary import (
    CUTOFF_DEGREE,
    _contraction_weights,
    _gauss_nodes,
    _l1_functional,
    apply_L,
    build_phase_data,
    exact_coefficients,
    expansion_coeffs,
    WIDTH_FRACTION,
    numeric_expansion_oracle,
    oracle_sweep,
    oscillatory_monomial_moments,
)
from test_jets_exact import GaussRational, exact_mul

NV = 4
BASE = (0.0,) * NV


@pytest.fixture(scope="module")
def data():
    return build_phase_data(heisenberg_chart(1))


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


def q_table(data):
    """The inverse-Hessian form q as {(a, b): coefficient of xi_a xi_b}, a <= b ascending."""
    return dict(sorted(
        (tuple(k for k, e in enumerate(idx) for _ in range(e)), c) for idx, c in data.q.graded_items()
    ))


def test_inverse_hessian_table(data):
    table = q_table(data)
    assert table[(0, 0)] == pytest.approx(0.5j)
    assert table[(1, 1)] == pytest.approx(0.5j)
    assert table[(2, 3)] == pytest.approx(-2.0)
    assert (0, 1) not in table


def test_apply_L_constant_vanishes(data):
    one = Jet.constant(NV, 2, BASE, 1.0)
    assert apply_L(data, one) == 0.0


def test_apply_L_single_pathway(data):
    # v = (sigma - 1) u_{2n+1}: only the -2 d_u d_sigma pathway fires
    v = Jet(NV, 2, BASE, {(0, 0, 1, 1): 1.0})
    assert apply_L(data, v) == pytest.approx(1j)


def test_apply_L_order_requirements(data):
    v = Jet.constant(NV, 1, BASE, 1.0)
    with pytest.raises(OrderShortfallError, match="v order 1 < 2"):
        apply_L(data, v)


def test_apply_L_linear(data):
    rng = spawn_rng(3, "linear-L")
    v = random_jet(rng, NV, 2, BASE)
    w = random_jet(rng, NV, 2, BASE)
    a, b = 1.3 - 0.2j, -0.4 + 2.1j
    lhs = apply_L(data, v.scale(a) + w.scale(b))
    rhs = a * apply_L(data, v) + b * apply_L(data, w)
    assert abs(lhs - rhs) < 1e-12


def reference_apply_L(data, j, v):
    """L_j by nested partials: <Psi0''^{-1} D, D> applied mu + j times to v h^mu."""

    def inv_op(g):
        out = Jet.zero(g.num_vars, max(g.order - 2, 0), g.base_point)
        for (a, b), c in q_table(data).items():
            out = out + c * g.partial(a).partial(b)
        return out

    total = 0.0 + 0.0j
    for mu in range(2 * j + 1):
        depth = 2 * (mu + j)
        g = v.with_order(depth)
        hw = data.h.with_order(depth)
        for _ in range(mu):
            g = g * hw
        for _ in range(mu + j):
            g = inv_op(g)
        total += g.constant_term() / (math.factorial(mu) * math.factorial(mu + j) * 2 ** (mu + j))
    return total * (1j) ** (-j)


def _perturbed_data(n, r_val, seed):
    q, table = random_perturbation(n, r_val, seed=seed)
    return build_phase_data(perturbed_chart(heisenberg_chart(n), r_val, q, table))


def _with_more_cubic_terms(data):
    """The phase data with 0.3 u_0^3 - 0.2i u_2^2 (sigma - 1) added to h and K_1 built again.

    Every chart's h has the exact cubic part, whose square contracts to zero
    in K_1; these terms give K_1's mu = 2 term a value.
    """
    h = data.h + Jet(NV, data.h.order, BASE, {(3, 0, 0, 0): 0.3, (0, 0, 2, 1): -0.2j})
    return dataclasses.replace(data, h=h, l1=_l1_functional(_contraction_weights(data.q, 3), h))


#: amplitude order checked per phase case
REFERENCE_CASES = {
    "deep-exact-n1": 8,
    "perturbed-n1": 6,
    "exact-n2": 4,
    "perturbed-n2": 4,
    "mu2-n1": 4,
}


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_apply_L_matches_nested_partials(data, case):
    amp_order = REFERENCE_CASES[case]
    if case == "deep-exact-n1":  # h promoted to order 12 over K_1 built at order 4
        pdata = _deep(data)
    elif case == "perturbed-n1":
        pdata = _perturbed_data(1, 0.7, 5)
    elif case == "exact-n2":
        pdata = build_phase_data(heisenberg_chart(2))
    elif case == "perturbed-n2":
        pdata = _perturbed_data(2, -0.3, 2)
    else:
        pdata = _with_more_cubic_terms(data)
    nv = pdata.num_vars
    for k in range(2):
        v = random_jet(spawn_rng(k, "apply-L-reference", case), nv, amp_order, (0.0,) * nv)
        want = reference_apply_L(pdata, 1, v)
        assert abs(apply_L(pdata, v) - want) <= 1e-13 * abs(want), (case, k)


def test_contraction_weights_exact(data):
    # w_m[alpha] = alpha! [xi^alpha] q^m against exact Gaussian-rational powers of q
    q = {idx: GaussRational(c.real, c.imag) for idx, c in data.q.graded_items()}  # floats convert exactly
    power = {(0,) * NV: GaussRational(1)}
    for m, (positions, weights) in enumerate(_contraction_weights(data.q, 6), start=1):
        power = exact_mul(power, q, 2 * m)
        exps = [tuple(row) for row in Jet.zero(NV, 2 * m, BASE).basis.exponents[positions].tolist()]
        want = {}
        for idx, c in power.items():
            if c.re or c.im:
                fac = math.prod(math.factorial(e) for e in idx)
                want[idx] = GaussRational(c.re * fac, c.im * fac)
        assert sorted(exps) == sorted(want)
        for idx, w in zip(exps, weights.tolist()):
            assert w == complex(want[idx]), (m, idx)


def _count_products(monkeypatch):
    counts = {"mul": 0}
    mul = Jet._mul_jet

    def counting_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(Jet, "_mul_jet", counting_mul)
    return counts


def _deep(data):
    """Phase data promoted to order 12, deep enough for reference_apply_L up to j = 4."""
    return dataclasses.replace(data, psi0=data.psi0.with_order(12), h=data.h.with_order(12))


@pytest.mark.parametrize("n", [1, 2])
def test_exact_coefficients_match_the_engine_functionals(n):
    # the oracle's closed-form tail against L_1..L_4 by nested partials on
    # the exact phase at order 12; at n = 2 through L_3, since L_4's reference
    # builds the (6, 24) basis (c_4's n-dependence is covered by the Gaussian
    # quadrature references at n = 2..5)
    pdata = _deep(build_phase_data(heisenberg_chart(n)))
    nv, top = pdata.num_vars, 4 if n == 1 else 3
    for k in range(2):
        gamma = random_jet(spawn_rng(k, "exact-coefficients", n), nv, 8, (0.0,) * nv)
        want = [gamma.constant_term()] + [reference_apply_L(pdata, j, gamma) for j in range(1, top + 1)]
        got = exact_coefficients(gamma.graded_items(), n, top)
        assert len(got) == top + 1
        for g, w in zip(got, want):
            assert abs(g - w / pdata.sqrt_det) <= 1e-13 * abs(w / pdata.sqrt_det), (n, k)


def test_oracle_sweep_forms_no_jet_product(data, monkeypatch):
    counts = _count_products(monkeypatch)
    oracle_sweep(data, 2, t_samples=FAST_T)
    assert counts["mul"] == 0


def test_apply_L_forms_no_jet_product(data, monkeypatch):
    phases = (data, _perturbed_data(1, 0.7, 5))
    v = random_jet(spawn_rng(4, "apply-L-no-product"), NV, 4, BASE)
    want = [reference_apply_L(d, 1, v) for d in phases]
    counts = _count_products(monkeypatch)
    got = [apply_L(d, v) for d in phases]
    assert counts["mul"] == 0
    for g, r in zip(got, want):
        assert abs(g - r) <= 1e-13 * abs(r)


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
    base = heisenberg_chart(1)
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
    assert 1j * apply_L(pdata, kappa) == pytest.approx(-0.5j * r_val, abs=1e-13)


def test_gradient_must_vanish():
    # a phase that is not critical at (0,1) is rejected at build time
    import dataclasses

    from crkernel.errors import ChartError

    chart = heisenberg_chart(1)
    tilt = Jet.displacement(0, 6, chart.phase.order, (0.0,) * 6).scale(0.1)
    broken = chart.phase + tilt
    fake = dataclasses.replace(chart, phase=broken)
    with pytest.raises(ChartError):
        build_phase_data(fake)


def test_oracle_rejects_wrong_node_count(data):
    with pytest.raises(OracleFitError, match="one count per variable"):
        oracle_sweep(data, 2, nodes_per_axis=(48, 48))
    with pytest.raises(OracleFitError, match="one count per variable"):
        oracle_sweep(data, 2, nodes_per_axis=[])


#: oracle settings of the fast oracle tests: the default grid, 4 of the 9 t samples
FAST_T = (60.0, 65.0, 70.0, 75.0)


def test_oracle_rejects_bad_inputs(data):
    with pytest.raises(OracleFitError):
        oracle_sweep(data, 2, t_samples=[10, 30, 50, 70])
    with pytest.raises(OracleFitError):
        oracle_sweep(data, 2, t_samples=[40, 50, 60])
    with pytest.raises(OracleFitError):
        oracle_sweep(data, 2, cutoff_radius=2.5)
    with pytest.raises(OracleFitError):
        oracle_sweep(data, 2, nodes_per_axis=(32, 32, 64, 64))
    base = heisenberg_chart(1)
    q, table = random_perturbation(1, 0.3, seed=1)
    pdata = build_phase_data(perturbed_chart(base, 0.3, q, table))
    with pytest.raises(OracleFitError):
        oracle_sweep(pdata, 2)
    sweep = oracle_sweep(data, 2, t_samples=FAST_T)
    with pytest.raises(OrderShortfallError, match="share variables"):
        numeric_expansion_oracle(sweep, Jet.constant(3, 2, (0.0,) * 3, 1.0))
    with pytest.raises(OrderShortfallError, match="covers amplitude order 2 < 3"):
        numeric_expansion_oracle(sweep, Jet.constant(NV, 3, BASE, 1.0))


def test_oracle_zero_amplitude(data):
    sweep = oracle_sweep(data, 2, nodes_per_axis=(48, 48, 48, 48))
    got = numeric_expansion_oracle(sweep, Jet.zero(NV, 2, BASE))
    assert got == (0.0, 0.0)


def _seeded_amplitudes(count, order=2):
    return [
        random_jet(spawn_rng(0, "quadrature-amplitude", k), NV, order, BASE, decay=0.6)
        for k in range(count)
    ]


def test_oracle_shared_sweep_equals_single_fits(data):
    # the harness's five seeded amplitudes, then mixed orders and a zero amplitude
    amps = _seeded_amplitudes(5) + [
        _seeded_amplitudes(1, order=4)[0],
        Jet.zero(NV, 2, BASE),
        Jet.constant(NV, 0, BASE, 0.3 - 0.1j),
    ]
    sweep = oracle_sweep(data, 4, t_samples=FAST_T)
    shared = [numeric_expansion_oracle(sweep, a) for a in amps]
    alone = [numeric_expansion_oracle(oracle_sweep(data, a.order, t_samples=FAST_T), a) for a in amps]
    assert shared == alone
    assert shared[6] == (0.0, 0.0)
    for amp, (c0, c1) in zip(amps, shared):
        if amp.max_abs():
            ref0, ref1 = expansion_coeffs(data, amp.with_order(max(amp.order, 2)))
            assert abs(c0 - ref0) < 1e-2 * abs(ref0)
            assert abs(c1 - ref1) < 5e-2 * (1.0 + abs(ref1))


def test_oracle_one_moment_sweep_per_t_sample(data, monkeypatch):
    import crkernel.stationary as stationary

    orders = []
    original = stationary.oscillatory_monomial_moments

    def counting(phase, amp_order, *args):
        orders.append(amp_order)
        return original(phase, amp_order, *args)

    monkeypatch.setattr(stationary, "oscillatory_monomial_moments", counting)
    amps = _seeded_amplitudes(4) + [_seeded_amplitudes(1, order=3)[0]]
    sweep = oracle_sweep(data, 3, t_samples=FAST_T)
    for amp in amps:
        numeric_expansion_oracle(sweep, amp)
    assert orders == [3] * len(FAST_T)  # one table per t, at the largest order, none per fit


#: jet products of one sweep and five fits of order-2 amplitudes (the sweep
#: forms none, and the closed-form tail reads the cutoff's terms without one)
ORACLE_PRODUCTS = 0


def test_oracle_work_guard(data, monkeypatch):
    amps = _seeded_amplitudes(5)
    counts = {"mul": 0, "partial": 0}
    mul, partial = Jet._mul_jet, Jet.partial

    def counting_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counting_partial(self, var_index):
        counts["partial"] += 1
        return partial(self, var_index)

    monkeypatch.setattr(Jet, "_mul_jet", counting_mul)
    monkeypatch.setattr(Jet, "partial", counting_partial)
    sweep = oracle_sweep(data, 2, t_samples=FAST_T)
    for amp in amps:
        numeric_expansion_oracle(sweep, amp)
    assert counts["partial"] == 0
    assert counts["mul"] == ORACLE_PRODUCTS


def _cutoff_jet(n, radius=1.4):
    """The oracle's product cutoff to degree 8: 1 - sum_a (v_a / w)^8."""
    nv, chi = 2 * n + 2, -((WIDTH_FRACTION * radius) ** -CUTOFF_DEGREE)
    terms = {(0,) * nv: 1.0}
    for a in range(nv):
        terms[tuple(CUTOFF_DEGREE if k == a else 0 for k in range(nv))] = chi
    return Jet(nv, CUTOFF_DEGREE, (0.0,) * nv, terms)


def test_gaussian_quadrature_reference(data):
    # t times the constant moment on Psi0 against the exact expansion of the
    # cutoff's jet through c_4, to 0.1%
    sweep = oracle_sweep(data, 0, t_samples=(20.0, 35.0, 50.0, 65.0))
    coeffs = exact_coefficients(_cutoff_jet(1).graded_items(), 1, 4)
    for t, moments in zip(sweep.t.tolist(), sweep.moments):
        want = sum(c * t ** (-1.0 - k) for k, c in enumerate(coeffs))
        assert abs(t * moments[0] - want) / abs(want) < 1e-3


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gaussian_quadrature_reference_beyond_n1(n):
    # the same on the 2n Gaussian axes, where the deviation measures about n * 7e-7
    sweep = oracle_sweep(build_phase_data(heisenberg_chart(n)), 0, t_samples=FAST_T)
    coeffs = exact_coefficients(_cutoff_jet(n).graded_items(), n, 4)
    for t, moments in zip(sweep.t.tolist(), sweep.moments):
        want = sum(c * t ** (-n - k) for k, c in enumerate(coeffs))
        assert abs(t * moments[0] - want) / abs(want) < 1e-5


@pytest.mark.parametrize("num", [48, 160])
def test_gauss_nodes_integrate_polynomials_exactly(num):
    x, w = _gauss_nodes(num, 1.0)
    assert np.all(np.diff(x) > 0)
    for k in range(2 * num):
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(float(np.sum(w * x**k)) - want) <= 1e-14, k
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    ref_x, ref_w = np.polynomial.legendre.leggauss(num)
    assert np.all(np.abs(x - ref_x) <= 1e-10 * np.abs(ref_x))
    assert np.all(np.abs(w - ref_w) <= 1e-10 * ref_w)
    xr, wr = _gauss_nodes(num, 1.4)
    assert np.array_equal(xr, x * 1.4) and np.array_equal(wr, w * 1.4)


def test_oracle_does_not_import_numpy_polynomial():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from crkernel.charts import heisenberg_chart\n"
        "from crkernel.jets import Jet\n"
        "from crkernel.stationary import build_phase_data, numeric_expansion_oracle, oracle_sweep\n"
        "sweep = oracle_sweep(build_phase_data(heisenberg_chart(1)), 2, t_samples=(60.0, 65.0, 70.0, 75.0))\n"
        "numeric_expansion_oracle(sweep, Jet(4, 2, (0.0,) * 4, {(0, 0, 0, 0): 1.0, (1, 1, 0, 0): 0.5}))\n"
        "print('numpy.polynomial' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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
    # the folded half-rule sums against the full grid, on even rules and on odd
    # rules, whose node at 0 the fold must count once
    for nodes in ((12, 12, 16, 16), (13, 13, 17, 17)):
        got = oscillatory_monomial_moments(data.psi0, 2, 30.0, 1.4, nodes)
        want = _brute_force_moments(data.psi0, 2, 30.0, 1.4, nodes)  # in the basis order
        assert got.shape == (len(want),)
        scale = max(abs(v) for v in want.values())
        for g, (idx, w) in zip(got.tolist(), want.items()):
            assert abs(g - w) <= 1e-12 * scale, (nodes, idx)


def test_moments_odd_in_a_gaussian_variable_vanish(data):
    got = oscillatory_monomial_moments(data.psi0, 3, 30.0, 1.4, (48, 49, 160, 160))
    for idx, m in zip(iter_multi_indices(NV, 3), got.tolist()):
        if idx[0] % 2 or idx[1] % 2:
            assert m == 0j, idx
        else:
            assert m != 0j, idx


def test_moments_refuse_any_phase_but_psi0(data):
    coupled = data.psi0 + Jet(NV, data.psi0.order, BASE, {(1, 1, 0, 0): 0.1})
    q, table = random_perturbation(1, 0.3, seed=1)
    perturbed = build_phase_data(perturbed_chart(heisenberg_chart(1), 0.3, q, table)).psi0
    for phase in (coupled, perturbed):
        with pytest.raises(OracleFitError, match="exact phase"):
            oscillatory_monomial_moments(phase, 2, 30.0, 1.4, (12, 12, 16, 16))


def _full_grid_moments(amp_order, t, radius, nodes):
    """oscillatory_monomial_moments with the Fourier axis summed at every s node
    and one product column per monomial: the sweep before its s fold."""
    n = (len(nodes) - 2) // 2
    width = WIDTH_FRACTION * radius
    powers = range(amp_order + 1)

    def half_rule(num):
        x, w = _gauss_nodes(num, radius)
        v = x[num // 2 :]
        return v, np.where(v > 0, 2.0, 1.0) * w[num // 2 :] * np.exp(-(v / width) ** CUTOFF_DEGREE)

    s, ws = _gauss_nodes(nodes[-1], radius)
    s_moments = (ws * np.exp(-(s / width) ** CUTOFF_DEGREE))[:, None] * s[:, None] ** np.arange(amp_order + 1)
    inner = []
    for num in nodes[: 2 * n]:
        v, wv = half_rule(num)
        f = wv * np.exp(-t * (1.0 + s / 2)[:, None] * v**2)
        inner.append(np.stack([np.zeros(len(s)) if p % 2 else np.sum(f * v**p, axis=1) for p in powers], axis=1))
    v, wv = half_rule(nodes[2 * n])
    tsv = t * s[:, None] * v
    cos, sin = wv * np.cos(tsv), wv * np.sin(tsv)
    fourier = np.empty((len(s), amp_order + 1), dtype=complex)
    for p in powers:
        fourier[:, p] = 1j * np.sum(sin * v**p, axis=1) if p % 2 else np.sum(cos * v**p, axis=1)
    inner.append(fourier)
    indices = iter_multi_indices(len(nodes), amp_order)
    out = np.empty(len(indices), dtype=complex)
    for p, idx in enumerate(indices):
        col = s_moments[:, idx[-1]]
        for a, m in enumerate(inner):
            col = col * m[:, idx[a]]
        out[p] = np.sum(col)
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_folded_sweep_equals_the_full_grid_bit_for_bit(n):
    # even and odd rule sizes on the s axis (an odd one has its node at 0) and on the others
    phase = build_phase_data(heisenberg_chart(n)).psi0
    grids = [(48,) * (2 * n) + (96, 160), (49,) * (2 * n) + (97, 161), (48,) * (2 * n) + (97, 161)]
    for nodes in grids:
        for amp_order in range(4):
            for t in (40.0, 60.0, 80.0):
                got = oscillatory_monomial_moments(phase, amp_order, t, 1.4, nodes)
                want = _full_grid_moments(amp_order, t, 1.4, nodes)
                assert got.tobytes() == want.tobytes(), (nodes, amp_order, t)


def _constant_term_set(amp, value):
    vector = amp.vector.copy()
    vector[0] = value
    return amp._like(vector)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_oracle_tail_equals_the_cutoff_product_bit_for_bit(n, monkeypatch):
    # the tail the oracle subtracts against the closed form of the amplitude
    # times the cutoff's jet at order 8, on seeded amplitudes with a zero, a
    # -0 and a signed-zero-part constant term among them
    import crkernel.stationary as stationary

    tails = []
    exact = stationary.exact_coefficients
    monkeypatch.setattr(stationary, "exact_coefficients", lambda *args: tails.append(exact(*args)) or tails[-1])
    nv = 2 * n + 2
    amps = [
        random_jet(spawn_rng(k, "oracle-tail", n), nv, k % 3, (0.0,) * nv, decay=0.6) for k in range(6)
    ]
    amps += [_constant_term_set(amps[2], c) for c in (0j, complex(-0.0, -0.0), complex(-1.5, -0.0))]
    sweep = oracle_sweep(build_phase_data(heisenberg_chart(n)), 2, t_samples=FAST_T)
    cutoff = _cutoff_jet(n)
    for amp in amps:
        numeric_expansion_oracle(sweep, amp)
        want = exact((amp.with_order(CUTOFF_DEGREE) * cutoff).graded_items(), n, 4)
        assert np.array(tails.pop()).tobytes() == np.array(want).tobytes()
