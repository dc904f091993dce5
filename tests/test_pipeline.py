import math

import numpy as np
import pytest

from crkernel.charts import (
    heisenberg_chart,
    kohn_laplacian_at0,
    perturbed_chart,
    random_perturbation,
    tw_scalar_curvature,
)
from crkernel.errors import SymbolError
from crkernel.jets import Jet, max_coeff_difference, random_jet
from crkernel.pipeline import (
    KernelAmplitude,
    _sigma_power,
    compose_amplitudes_closed,
    compose_amplitudes_sp,
    phase_rescale,
    qe_amplitude,
    random_amplitude,
    singularity_representation,
    szego_amplitude,
    toeplitz_b1_closed_form,
    toeplitz_b1_pipeline,
)
from crkernel.rng import spawn_rng
from crkernel.symbols import (
    identity_symbol,
    make_multiplication_symbol,
    random_classical_symbol,
)

PI2 = math.pi**2
D = 3


@pytest.fixture(scope="module")
def chart():
    return heisenberg_chart(1, 6)


@pytest.fixture(scope="module")
def curved():
    base = heisenberg_chart(1, 6)
    q, table = random_perturbation(1, 0.7, seed=17)
    return perturbed_chart(base, 0.7, q, table)


def f_jet(coeffs):
    return Jet(D, 6, (0.0,) * D, coeffs)


# -- projector amplitude -----------------------------------------------------------------


def test_szego_values(chart, curved):
    A = szego_amplitude(chart)
    assert A.top_power == 1.0
    assert A.coeffs[0].coeffs == {(0,) * 6: 1.0 / (2.0 * PI2) + 0.0j}
    assert A.coeff(1).constant_term() == 0.0
    Ac = szego_amplitude(curved)
    assert Ac.coeff(1).constant_term() == pytest.approx(0.7 / (4.0 * PI2))


def test_amplitude_y_independence_enforced():
    bad = {(0, 0, 0, 0, 0, 1): 1.0}
    with pytest.raises(SymbolError):
        KernelAmplitude(top_power=1.0, coeffs=(Jet(6, 2, (0.0,) * 6, bad),))


# -- symbol-times-projector --------------------------------------------------------------


def test_qe_identity_symbol(chart):
    A = szego_amplitude(chart)
    C = qe_amplitude(identity_symbol(1, 6), A, chart)
    assert C.top_power == A.top_power
    assert max_coeff_difference(C.coeffs[0], A.coeffs[0]) < 1e-15
    assert max_coeff_difference(C.coeff(1), A.coeff(1).truncated(C.coeff(1).order)) < 1e-15


def test_qe_multiplication_leading(chart):
    # C_0(x, y) = f(x) A_0 for multiplication symbols
    f = f_jet({(1, 0, 0): 1.0, (0, 2, 0): 0.5})
    E = make_multiplication_symbol(f)
    A = szego_amplitude(chart)
    C = qe_amplitude(E, A, chart)
    want = f.truncated(2).compose(
        [Jet.coordinate(i, 6, 2, (0.0,) * 6) for i in range(D)]
    ).scale(1.0 / (2.0 * PI2))
    assert max_coeff_difference(C.coeffs[0], want) < 1e-15


def test_qe_c1_diagonal_formula(chart, curved):
    # C_1(0,0) = [R e_0 + sum d2_xi e_0]/(4 pi^2) + e_1/(2 pi^2), all at the base
    for ch in (chart, curved):
        E = random_classical_symbol(1, 0.5, 2, seed=23, jet_order=6)
        A = szego_amplitude(ch)
        C = qe_amplitude(E, A, ch)
        e0, e1 = E.components[0], E.components[1]
        hess_sum = sum(
            e0.derivative_value(tuple(2 if k == D + j else 0 for k in range(6)))
            for j in range(2)
        )
        want = (
            tw_scalar_curvature(ch) * e0.constant_term() + hess_sum
        ) / (4.0 * PI2) + e1.constant_term() / (2.0 * PI2)
        assert C.coeff(1).constant_term() == pytest.approx(want, abs=1e-13)


# -- composition --------------------------------------------------------------------------


def test_compose_projector_with_itself(chart):
    A = szego_amplitude(chart)
    sp0, sp1 = compose_amplitudes_sp(A, A, chart)
    assert sp0 == pytest.approx(1.0 / (2.0 * PI2))
    assert abs(sp1) < 1e-14


def test_compose_zero_amplitude(chart):
    A = szego_amplitude(chart)
    zero = KernelAmplitude(
        top_power=0.5, coeffs=(Jet.zero(6, 2, (0.0,) * 6), Jet.zero(6, 2, (0.0,) * 6))
    )
    sp0, sp1 = compose_amplitudes_sp(A, zero, chart)
    assert sp0 == 0.0 and sp1 == 0.0


def test_compose_leading_product_rule(chart):
    A = random_amplitude(1, 0.5, seed=4)
    C = random_amplitude(1, 1.5, seed=5)
    sp0, sp1 = compose_amplitudes_sp(A, C, chart)
    want = 2.0 * PI2 * A.coeffs[0].constant_term() * C.coeffs[0].constant_term()
    assert sp0 == pytest.approx(want)


def test_compose_routes_agree_random(chart, curved):
    worst = 0.0
    for k in range(10):
        rng = spawn_rng(k, "pair")
        A = random_amplitude(1, float(rng.uniform(-1, 2)), seed=600 + k)
        C = random_amplitude(1, float(rng.uniform(-1, 2)), seed=700 + k)
        ch = chart if k % 2 else curved
        sp0, sp1 = compose_amplitudes_sp(A, C, ch)
        c0, c1 = compose_amplitudes_closed(A, C, ch)
        worst = max(
            worst,
            abs(sp0 - c0) / (1 + abs(c0)),
            abs(sp1 - c1) / (1 + abs(c1)),
        )
    assert worst < 1e-10


def test_compose_constant_flat_case(chart):
    # constant leading coefficients, zero subleading, flat curvature: c1 = 0
    base = (0.0,) * 6
    A = KernelAmplitude(
        top_power=1.0,
        coeffs=(Jet.constant(6, 2, base, 0.4 - 0.1j), Jet.zero(6, 2, base)),
    )
    C = KernelAmplitude(
        top_power=0.5,
        coeffs=(Jet.constant(6, 2, base, -1.2 + 0.9j), Jet.zero(6, 2, base)),
    )
    c0, c1 = compose_amplitudes_closed(A, C, chart)
    assert c1 == pytest.approx(0.0, abs=1e-15)
    sp0, sp1 = compose_amplitudes_sp(A, C, chart)
    assert sp1 == pytest.approx(0.0, abs=1e-14)


def test_compose_l_dependence_linear(chart):
    # shifting the left order l moves c1 by 2i (delta l) pi^2 A0 T_x B0
    A = random_amplitude(1, 1.0, seed=31)
    C = random_amplitude(1, 0.5, seed=32)
    _, c1_a = compose_amplitudes_closed(A, C, chart)
    A2 = KernelAmplitude(top_power=2.0, coeffs=A.coeffs)
    _, c1_b = compose_amplitudes_closed(A2, C, chart)
    b0 = C.coeffs[0]
    t_x_b0 = -b0.derivative_value((0, 0, 1, 0, 0, 0))
    want_shift = -2j * 1.0 * PI2 * A.coeffs[0].constant_term() * t_x_b0
    assert (c1_b - c1_a) == pytest.approx(want_shift)
    sp0, sp1 = compose_amplitudes_sp(A2, C, chart)
    assert sp1 == pytest.approx(c1_b, abs=1e-12 * (1 + abs(c1_b)))


def test_projector_self_composition_reproduces_curvature(curved):
    # the identity that pins i L_1 kappa: A o A returns (A_0, A_1) at the diagonal
    A = szego_amplitude(curved)
    sp0, sp1 = compose_amplitudes_sp(A, A, curved)
    assert sp0 == pytest.approx(1.0 / (2.0 * PI2), abs=1e-14)
    assert sp1 == pytest.approx(0.7 / (4.0 * PI2), abs=1e-13)


# -- the two Toeplitz routes -----------------------------------------------------------------


def test_identity_closed_form(chart, curved):
    E = identity_symbol(1, 6)
    b0, b1 = toeplitz_b1_closed_form(E, chart)
    assert b0 == pytest.approx(1.0 / (2.0 * PI2))
    assert b1 == pytest.approx(0.0, abs=1e-15)
    b0c, b1c = toeplitz_b1_closed_form(E, curved)
    assert b1c == pytest.approx(0.7 / (4.0 * PI2))


def test_multiplication_corollary(chart):
    # b_1 = [R f - box_b f](0) / (4 pi^{n+1})
    f = f_jet({(2, 0, 0): 1.0})
    E = make_multiplication_symbol(f)
    _, b1 = toeplitz_b1_closed_form(E, chart)
    assert b1 == pytest.approx(1.0 / (4.0 * PI2))
    rng = spawn_rng(8, "multf")
    f = random_jet(rng, D, 6, (0.0,) * D, decay=0.5)
    E = make_multiplication_symbol(f)
    _, b1 = toeplitz_b1_closed_form(E, chart)
    want = (0.0 - kohn_laplacian_at0(chart, f)) / (4.0 * PI2)
    assert b1 == pytest.approx(want)


def test_pipeline_matches_closed_form_examples(chart):
    for E in (
        identity_symbol(1, 6),
        make_multiplication_symbol(f_jet({(2, 0, 0): 1.0})),
        make_multiplication_symbol(
            random_jet(spawn_rng(9, "m"), D, 6, (0.0,) * D, decay=0.5)
        ),
    ):
        pb = toeplitz_b1_pipeline(E, chart)
        cb = toeplitz_b1_closed_form(E, chart)
        assert abs(pb[0] - cb[0]) < 1e-12
        assert abs(pb[1] - cb[1]) < 1e-9 * (1 + abs(cb[1]))


def test_pipeline_identity_in_higher_dimension():
    chart2 = heisenberg_chart(2, 6)
    E = identity_symbol(2, 6)
    b0, b1 = toeplitz_b1_pipeline(E, chart2)
    assert b0 == pytest.approx(1.0 / (2.0 * math.pi**3), abs=1e-13)
    assert abs(b1) < 1e-12
    E2 = random_classical_symbol(2, 0.5, 2, seed=77, jet_order=6)
    pb = toeplitz_b1_pipeline(E2, chart2)
    cb = toeplitz_b1_closed_form(E2, chart2)
    assert abs(pb[1] - cb[1]) < 1e-9 * (1 + abs(cb[1]))


def test_closed_form_requires_homogeneous_flag(chart):
    sym = random_classical_symbol(1, 0.5, 2, seed=3, homogeneous=False)
    with pytest.raises(SymbolError):
        toeplitz_b1_closed_form(sym, chart)


# -- phase rescaling and uniqueness ------------------------------------------------------------


def test_rescale_identity_function(chart):
    C = random_amplitude(1, 1.5, seed=41)
    one = Jet.constant(6, 2, (0.0,) * 6, 1.0)
    out = phase_rescale(C, one)
    for j in range(2):
        assert max_coeff_difference(out.coeffs[j], C.coeffs[j]) == 0.0


def test_rescale_diagonal_b1_invariant(chart):
    # the pointwise-uniqueness statement as an oracle: diagonal values of the
    # first two coefficients are unchanged under admissible rescalings
    E = random_classical_symbol(1, 0.5, 2, seed=5, jet_order=6)
    A = szego_amplitude(chart)
    C = qe_amplitude(E, A, chart)
    nv, base = 6, (0.0,) * 6
    for k in range(10):
        rng = spawn_rng(k, "resc")
        f = Jet.constant(nv, 2, base, 1.0)
        for _ in range(3):
            a = int(rng.integers(0, D))
            b = int(rng.integers(0, 2))
            c = complex(rng.standard_normal(), rng.standard_normal()) * 0.3
            da = Jet.displacement(D + a, nv, 2, base) - Jet.displacement(a, nv, 2, base)
            db = Jet.displacement(D + b, nv, 2, base) - Jet.displacement(b, nv, 2, base)
            f = f + (da * db).scale(c)
        out = phase_rescale(C, f)
        assert abs(out.coeffs[0].constant_term() - C.coeffs[0].constant_term()) < 1e-12
        assert abs(out.coeff(1).constant_term() - C.coeff(1).constant_term()) < 1e-10
        # admissibility: T_y(f)(0,0) = 0 keeps T_y of the rescaled leading
        # coefficient zero at the base point
        t_y = -out.coeffs[0].derivative_value((0, 0, 0, 0, 0, 1))
        assert abs(t_y) < 1e-12


def test_rescale_rejects_non_unital(chart):
    C = random_amplitude(1, 1.0, seed=13)
    bad = Jet.constant(6, 2, (0.0,) * 6, 1.0) + Jet.displacement(0, 6, 2, (0.0,) * 6)
    with pytest.raises(SymbolError):
        phase_rescale(C, bad)


def test_integer_order_log_branch_finite_part():
    # finite-part cross-check of the t^{-1} identity at sampled x:
    # int_0^infty e^{itGF} t^{-1} dt - int_0^infty e^{itF} t^{-1} dt = -log(G)
    # via the regularized closed forms (log branch of the classical formula)
    gamma = 0.5772156649015328606
    for x in (0.3, 0.7, 1.1):
        F = x
        G = 1.0 + x**2
        eps = 1e-9
        lhs = -(np.log(-1j * G * F + eps) + gamma)
        rhs = -(np.log(-1j * F + eps / G) + gamma)
        assert abs((lhs - rhs) - (-np.log(G))) < 1e-8


# -- singularity representation ------------------------------------------------------------------


def test_singularity_noninteger_branch(chart):
    amp = random_amplitude(1, 1.5, seed=51)  # n + m = 1.5, m = 0.5
    parts = singularity_representation(amp, chart.phase)
    assert parts.G is None
    b0 = amp.coeffs[0].constant_term()
    assert parts.F.constant_term() == pytest.approx(math.gamma(2.5) * b0)
    # linear coefficient picks up Gamma(N) b_1 (-i) along the diagonal
    b1 = amp.coeff(1).constant_term()
    db0 = amp.coeffs[0].coefficient((0, 0, 0, 0, 0, 1))  # zero: y-independent
    want_lin = math.gamma(1.5) * b1 * (-1j)
    assert parts.F.coefficient((1,)) == pytest.approx(want_lin + math.gamma(2.5) * db0)


def test_singularity_zero_amplitude(chart):
    zero = KernelAmplitude(
        top_power=0.0, coeffs=(Jet.zero(6, 2, (0.0,) * 6), Jet.zero(6, 2, (0.0,) * 6))
    )
    parts = singularity_representation(zero, chart.phase)
    assert parts.F.max_abs() == 0.0
    assert parts.G.max_abs() == 0.0


def test_singularity_order_zero_symbol(chart):
    # m = 0, n = 1: F(0,0) = Gamma(n + m + 1) b_0 / ... = 1! b_0
    amp = random_amplitude(1, 1.0, seed=55)
    parts = singularity_representation(amp, chart.phase)
    assert parts.F.constant_term() == pytest.approx(amp.coeffs[0].constant_term())
    assert parts.G.max_abs() == 0.0  # log series starts at the absent b_2


def test_singularity_integer_branches(chart):
    # N = n + m = 0: both factors; G_0 = -b_1
    amp0 = random_amplitude(1, 0.0, seed=52)
    parts = singularity_representation(amp0, chart.phase)
    assert parts.F.constant_term() == pytest.approx(amp0.coeffs[0].constant_term())
    assert parts.G.constant_term() == pytest.approx(-amp0.coeff(1).constant_term())
    # N = -1 (m = -n-1): pure log branch with G_0 = -b_0
    ampm = random_amplitude(1, -1.0, seed=53)
    parts = singularity_representation(ampm, chart.phase)
    assert parts.F is None
    assert parts.G.constant_term() == pytest.approx(-ampm.coeffs[0].constant_term())


@pytest.mark.parametrize("ell", [2.0, 1.0, 0.0, -1.0, 0.5, -1.5, 3.25])
def test_sigma_power_is_pow_real_bit_for_bit(ell):
    # the binomial jet, signs of zero included, equals (1 + dsigma).pow_real(ell)
    for d, order in ((3, 2), (5, 2), (3, 4)):
        base = (0.0,) * (d + 1)
        sigma = Jet.constant(d + 1, order, base, 1.0) + Jet.displacement(d, d + 1, order, base)
        assert _sigma_power(ell, d, order).vector.tobytes() == sigma.pow_real(ell).vector.tobytes()


def test_amplitude_rejects_a_last_y_dependence():
    base = (0.0,) * 6
    one = Jet.constant(6, 2, base, 1.0)
    KernelAmplitude(top_power=1.0, coeffs=(one, one + Jet.displacement(4, 6, 2, base)))
    with pytest.raises(SymbolError):
        KernelAmplitude(top_power=1.0, coeffs=(one, one + Jet.displacement(5, 6, 2, base).scale(1e-300)))
    KernelAmplitude(top_power=1.0, coeffs=(one, one + Jet.displacement(5, 6, 2, base)), y_independent=False)
