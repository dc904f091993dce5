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
from crkernel.jets import Jet, Substitution, max_coeff_difference, random_jet
from crkernel.pipeline import (
    AMPLITUDE_ORDER,
    KernelAmplitude,
    _phase_gradient_inner,
    _sigma_power,
    compose_amplitudes_closed,
    compose_amplitudes_sp,
    qe_amplitude,
    random_amplitude,
    szego_amplitude,
    toeplitz_b1_closed_form,
    toeplitz_b1_pipeline,
)
from crkernel.rng import spawn_rng
from crkernel.stationary import build_phase_data, expansion_coeffs
from crkernel.symbols import (
    identity_symbol,
    make_multiplication_symbol,
    random_classical_symbol,
)

PI2 = math.pi**2
D = 3


@pytest.fixture(scope="module")
def chart():
    return heisenberg_chart(1)


@pytest.fixture(scope="module")
def curved():
    base = heisenberg_chart(1)
    q, table = random_perturbation(1, 0.7, seed=17)
    return perturbed_chart(base, 0.7, q, table)


def f_jet(coeffs):
    return Jet(D, 6, (0.0,) * D, coeffs)


# -- projector amplitude -----------------------------------------------------------------


def test_szego_values(chart, curved):
    A = szego_amplitude(chart)
    assert A.top_power == 1.0
    assert A.leading.coeffs == {(0,) * 6: 1.0 / (2.0 * PI2) + 0.0j}
    assert A.subleading == 0.0
    Ac = szego_amplitude(curved)
    assert Ac.subleading == pytest.approx(0.7 / (4.0 * PI2))


def test_amplitude_y_independence_enforced():
    bad = {(0, 0, 0, 0, 0, 1): 1.0}
    with pytest.raises(SymbolError):
        KernelAmplitude(top_power=1.0, leading=Jet(6, 2, (0.0,) * 6, bad), subleading=0.0)


# -- symbol-times-projector --------------------------------------------------------------


def test_qe_identity_symbol(chart):
    A = szego_amplitude(chart)
    C = qe_amplitude(identity_symbol(1), A, chart)
    assert C.top_power == A.top_power
    assert max_coeff_difference(C.leading, A.leading) < 1e-15
    assert abs(C.subleading - A.subleading) < 1e-15


def test_qe_multiplication_leading(chart):
    # C_0(x, y) = f(x) A_0 for multiplication symbols
    f = f_jet({(1, 0, 0): 1.0, (0, 2, 0): 0.5})
    E = make_multiplication_symbol(f)
    A = szego_amplitude(chart)
    C = qe_amplitude(E, A, chart)
    want = f.truncated(2).compose(
        [Jet.coordinate(i, 6, 2, (0.0,) * 6) for i in range(D)]
    ).scale(1.0 / (2.0 * PI2))
    assert max_coeff_difference(C.leading, want) < 1e-15


def test_qe_c1_diagonal_formula(chart, curved):
    # C_1(0,0) = [R e_0 + sum d2_xi e_0]/(4 pi^2) + e_1/(2 pi^2), all at the base
    for ch in (chart, curved):
        E = random_classical_symbol(1, 0.5, 2, seed=23)
        A = szego_amplitude(ch)
        C = qe_amplitude(E, A, ch)
        e0, e1 = E.components[0], E.components[1]
        hess_sum = sum(e0.derivative_at(D + j, D + j) for j in range(2))
        want = (
            tw_scalar_curvature(ch) * e0.constant_term() + hess_sum
        ) / (4.0 * PI2) + e1.constant_term() / (2.0 * PI2)
        assert C.subleading == pytest.approx(want, abs=1e-13)


def _jet_level_c1(E, A, chart):
    """C_1(0, 0) as the jet of C_1 built in full and read at (0, 0), with A_1
    the constant jet of its value: every term substituted at the phase
    gradient, multiplied and summed as jets."""
    d = chart.dim
    order = AMPLITUDE_ORDER
    at_grad = Substitution(_phase_gradient_inner(chart))
    phi = chart.phase
    e0, e1 = E.components[0], E.component(1)
    a0 = A.leading.truncated(order)
    a1 = Jet.constant(2 * d, order, a0.base_point, A.subleading)
    e0_at = at_grad.apply(e0)
    c1 = e0_at * a1 + at_grad.apply(e1) * a0
    for j in range(d):
        for k in range(j, d):
            hess = e0.partial(d + j).partial(d + k)
            if not hess.support.size:
                continue
            factor = -0.5j if j == k else -1.0j
            phi_term = phi.partial(j).partial(k).truncated(order)
            c1 = c1 + factor * (at_grad.apply(hess) * phi_term * a0)
    for j in range(d):
        grad_a = A.leading.partial(j).truncated(order)
        if not grad_a.support.size:
            continue
        c1 = c1 + (-1j) * (at_grad.apply(e0.partial(d + j)) * grad_a)
    return c1.constant_term()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("model", ["heisenberg", "perturbed"])
def test_qe_c1_value_equals_the_jet_level_c1_bit_for_bit(n, model):
    ch = heisenberg_chart(n)
    if model == "perturbed":
        q, table = random_perturbation(n, -0.7, seed=11)
        ch = perturbed_chart(ch, -0.7, q, table)
    symbols = [identity_symbol(n), random_classical_symbol(n, 0.5, 2, seed=41)]
    symbols.append(make_multiplication_symbol(random_jet(spawn_rng(n, "c1-f"), ch.dim, 6, (0.0,) * ch.dim)))
    amplitudes = [szego_amplitude(ch), random_amplitude(n, 1.5, seed=42)]  # constant and varying A_0
    for E in symbols:
        for A in amplitudes:
            assert qe_amplitude(E, A, ch).subleading == _jet_level_c1(E, A, ch)


# -- composition --------------------------------------------------------------------------


def test_compose_gamma1_value_equals_the_jet_level_gamma1_bit_for_bit(chart, curved):
    # gamma_1 = (A_0(0,u) C_1 sigma^l + A_1 C_0(u,0) sigma^{l-1}) lambda as a jet, read at (0, 1)
    for k, ch in enumerate((chart, curved)):
        A = random_amplitude(1, 0.75, seed=50 + k)
        C = random_amplitude(1, -0.5, seed=60 + k)
        d, order = ch.dim, AMPLITUDE_ORDER
        u, pinned, base = list(range(d)), [None] * d, (0.0,) * (d + 1)
        a0_u, c0_u = A.leading.reindex(d + 1, pinned + u, base), C.leading.reindex(d + 1, u + pinned, base)
        a1_u, c1_u = (Jet.constant(d + 1, order, (0.0,) * (d + 1), v) for v in (A.subleading, C.subleading))
        lam = ch.volume_density.truncated(order).reindex(d + 1, range(d), (0.0,) * (d + 1))
        sig_l, sig_lm1 = _sigma_power(A.top_power, d), _sigma_power(A.top_power - 1.0, d)
        gamma0 = a0_u * c0_u * lam * sig_l
        gamma1 = (a0_u * c1_u * sig_l + a1_u * c0_u * sig_lm1) * lam
        want = expansion_coeffs(build_phase_data(ch), gamma0, gamma1.constant_term())
        assert list(compose_amplitudes_sp(A, C, ch)) == want



def test_compose_projector_with_itself(chart):
    A = szego_amplitude(chart)
    sp0, sp1 = compose_amplitudes_sp(A, A, chart)
    assert sp0 == pytest.approx(1.0 / (2.0 * PI2))
    assert abs(sp1) < 1e-14


def test_compose_zero_amplitude(chart):
    A = szego_amplitude(chart)
    zero = KernelAmplitude(top_power=0.5, leading=Jet.zero(6, 2, (0.0,) * 6), subleading=0.0)
    sp0, sp1 = compose_amplitudes_sp(A, zero, chart)
    assert sp0 == 0.0 and sp1 == 0.0


def test_compose_leading_product_rule(chart):
    A = random_amplitude(1, 0.5, seed=4)
    C = random_amplitude(1, 1.5, seed=5)
    sp0, sp1 = compose_amplitudes_sp(A, C, chart)
    want = 2.0 * PI2 * A.leading.constant_term() * C.leading.constant_term()
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


def _bits(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("model", ["heisenberg", "perturbed"])
def test_stacked_composition_rows_equal_the_single_pair_calls(n, model):
    ch = heisenberg_chart(n)
    if model == "perturbed":
        ch = perturbed_chart(ch, 0.7, *random_perturbation(n, 0.7, seed=17))
    data = build_phase_data(ch)
    draws = [(float(rng.uniform(-1, 2)), float(rng.uniform(-1, 2))) for rng in (spawn_rng(k, "stacked-pair", n) for k in range(5))]
    la, lc = map(list, zip(*draws))
    A, C = random_amplitude(n, la, [800 + k for k in range(5)]), random_amplitude(n, lc, [900 + k for k in range(5)])
    pairs = [(random_amplitude(n, la[k], seed=800 + k), random_amplitude(n, lc[k], seed=900 + k)) for k in range(5)]
    sp0, sp1 = compose_amplitudes_sp(A, C, ch, phase_data=data)
    c0, c1 = compose_amplitudes_closed(A, C, ch)
    for r, (a, c) in enumerate(pairs):
        assert _bits(compose_amplitudes_sp(a, c, ch, phase_data=data)) == _bits((sp0[r], sp1[r]))
        assert _bits(compose_amplitudes_closed(a, c, ch)) == _bits((c0[r], c1[r]))


@pytest.mark.parametrize("n", [1, 2])
def test_random_amplitude_reads_the_two_draws_of_the_leading_shape(n):
    # one read of the stream equals the leading draw followed by a second draw's constant term
    d = 2 * n + 1
    base = (0.0,) * (2 * d)
    for seed in range(100):
        top_power = 0.25 * (seed % 7) - 0.5
        rng = spawn_rng(seed, "amplitude", n, repr(top_power))
        b0, b1 = (random_jet(rng, 2 * d, AMPLITUDE_ORDER, base, decay=0.5) for _ in range(2))
        A = random_amplitude(n, top_power, seed)
        assert A.leading.vector.tobytes() == b0.reindex(2 * d, [*range(2 * d - 1), None], base).vector.tobytes()
        assert _bits([A.subleading]) == _bits([b1.constant_term()])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_row_of_an_amplitude_batch_is_its_single_draw(n):
    rng = spawn_rng(n, "amplitude-batch")
    tops = [float(rng.uniform(-1, 2)) for _ in range(7)]
    seeds = [int(rng.integers(1 << 30)) for _ in range(7)]
    for rows in (1, 7):
        batch = random_amplitude(n, tops[:rows], seeds[:rows])
        assert batch.leading.rows == rows
        for r in range(rows):
            single = random_amplitude(n, tops[r], seeds[r])
            assert single.leading.rows is None and single.top_power == batch.top_power[r] == tops[r]
            assert single.leading.vector.tobytes() == batch.leading.vector[r].tobytes()
            assert _bits([single.subleading]) == _bits([batch.subleading[r]])


def test_compose_constant_flat_case(chart):
    # constant leading coefficients, zero subleading, flat curvature: c1 = 0
    base = (0.0,) * 6
    A = KernelAmplitude(top_power=1.0, leading=Jet.constant(6, 2, base, 0.4 - 0.1j), subleading=0.0)
    C = KernelAmplitude(top_power=0.5, leading=Jet.constant(6, 2, base, -1.2 + 0.9j), subleading=0.0)
    c0, c1 = compose_amplitudes_closed(A, C, chart)
    assert c1 == pytest.approx(0.0, abs=1e-15)
    sp0, sp1 = compose_amplitudes_sp(A, C, chart)
    assert sp1 == pytest.approx(0.0, abs=1e-14)


def test_compose_l_dependence_linear(chart):
    # shifting the left order l moves c1 by 2i (delta l) pi^2 A0 T_x B0
    A = random_amplitude(1, 1.0, seed=31)
    C = random_amplitude(1, 0.5, seed=32)
    _, c1_a = compose_amplitudes_closed(A, C, chart)
    A2 = KernelAmplitude(top_power=2.0, leading=A.leading, subleading=A.subleading)
    _, c1_b = compose_amplitudes_closed(A2, C, chart)
    b0 = C.leading
    t_x_b0 = -b0.derivative_at(2)
    want_shift = -2j * 1.0 * PI2 * A.leading.constant_term() * t_x_b0
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
    E = identity_symbol(1)
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
        identity_symbol(1),
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
    chart2 = heisenberg_chart(2)
    E = identity_symbol(2)
    b0, b1 = toeplitz_b1_pipeline(E, chart2)
    assert b0 == pytest.approx(1.0 / (2.0 * math.pi**3), abs=1e-13)
    assert abs(b1) < 1e-12
    E2 = random_classical_symbol(2, 0.5, 2, seed=77)
    pb = toeplitz_b1_pipeline(E2, chart2)
    cb = toeplitz_b1_closed_form(E2, chart2)
    assert abs(pb[1] - cb[1]) < 1e-9 * (1 + abs(cb[1]))


def test_chart_maps_are_shared_only_when_byte_equal(chart):
    # a hit needs the same bytes: a map whose one coefficient differs in its
    # last bit gets its own entry
    from crkernel.pipeline import _prepared

    inner = _phase_gradient_inner(chart)
    vector = inner[-1].vector.copy()
    vector.view(np.int64)[2 * inner[-1].support[-1]] ^= 1  # the real part's last bit
    nudged = inner[:-1] + [inner[-1]._like(vector)]
    memo = {}
    first = _prepared(inner, memo)
    assert _prepared(_phase_gradient_inner(chart), memo) is first
    assert _prepared(nudged, memo) is not first
    assert len(memo) == 2
    assert _prepared(inner, None) is not first


def test_shared_chart_maps_give_the_values_of_fresh_ones(chart, curved):
    # one memo across the exact and a perturbed chart, against a fresh map per call
    memo = {}
    for seed, ch in ((3, chart), (4, curved), (3, curved)):
        E = random_classical_symbol(1, 0.5, 2, seed=seed)
        shared = toeplitz_b1_pipeline(E, ch, substitutions=memo) + toeplitz_b1_closed_form(E, ch, memo)
        fresh = toeplitz_b1_pipeline(E, ch) + toeplitz_b1_closed_form(E, ch)
        assert [repr(v) for v in shared] == [repr(v) for v in fresh]
    assert len(memo) == 2


def test_closed_form_requires_homogeneous_flag(chart):
    sym = random_classical_symbol(1, 0.5, 2, seed=3, homogeneous=False)
    with pytest.raises(SymbolError):
        toeplitz_b1_closed_form(sym, chart)


@pytest.mark.parametrize("ell", [2.0, 1.0, 0.0, -1.0, 0.5, -1.5, 3.25])
def test_sigma_power_is_pow_real_bit_for_bit(ell):
    # the binomial jet, signs of zero included, equals (1 + dsigma).pow_real(ell)
    for d in (3, 5):
        base, order = (0.0,) * (d + 1), AMPLITUDE_ORDER
        sigma = Jet.constant(d + 1, order, base, 1.0) + Jet.displacement(d, d + 1, order, base)
        assert _sigma_power(ell, d).vector.tobytes() == sigma.pow_real(ell).vector.tobytes()


@pytest.mark.parametrize("order", [1, 3])
def test_amplitude_rejects_other_orders(order):
    # the amplitude order is stated once, in the type that carries it
    with pytest.raises(SymbolError, match=f"order {AMPLITUDE_ORDER}, not {order}"):
        KernelAmplitude(top_power=1.0, leading=Jet.constant(6, order, (0.0,) * 6, 1.0), subleading=1.0)


def test_amplitude_rejects_a_last_y_dependence():
    base = (0.0,) * 6
    one = Jet.constant(6, 2, base, 1.0)
    KernelAmplitude(top_power=1.0, leading=one + Jet.displacement(4, 6, 2, base), subleading=1.0)
    with pytest.raises(SymbolError):
        KernelAmplitude(
            top_power=1.0, leading=one + Jet.displacement(5, 6, 2, base).scale(1e-300), subleading=1.0
        )
