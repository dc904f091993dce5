import math

import numpy as np
import pytest

from crkernel.charts import (
    CHART_ORDER,
    ChartError,
    _solve_jet_linear,
    christoffel_symbols,
    density_channel_value,
    heisenberg_chart,
    christoffel_at,
    kohn_laplacian_at0,
    levi_frame,
    perturbed_chart,
    quartic_channel_value,
    random_perturbation,
    reeb_derivative_at0,
    tw_scalar_curvature,
)
from crkernel.errors import OrderShortfallError
from crkernel.jets import Jet, gauss_solve, max_coeff_difference, random_jet
from crkernel.rng import spawn_rng


@pytest.fixture(scope="module")
def chart():
    return heisenberg_chart(1)


def test_rejects_bad_dimension():
    with pytest.raises(ChartError):
        heisenberg_chart(0)


@pytest.fixture(scope="module")
def models():
    """The exact Heisenberg charts at n = 1..5, whose built-in facts these tests state."""
    return [heisenberg_chart(n) for n in range(1, 6)]


def _x(i, nv, order=CHART_ORDER):
    return Jet.displacement(i, nv, order, (0.0,) * nv)


def test_contact_form_dz_coefficient(models):
    # the dz_j coefficient of omega_0 is (i/2) zbar_j
    for chart in models:
        for j in range(chart.n):
            c_dx, c_dy = chart.contact_form[2 * j], chart.contact_form[2 * j + 1]
            alpha = (c_dx + (-1j) * c_dy).scale(0.5)  # dz_j-coefficient of the form
            zbar_half_i = (_x(2 * j, chart.dim) + (-1j) * _x(2 * j + 1, chart.dim)).scale(0.5j)
            assert max_coeff_difference(alpha, zbar_half_i) < 1e-15


def test_contact_form_low_degree_is_the_normal_form(models):
    # omega_0 = dx_{2n} + sum_j (x_{2j+1} dx_{2j} - x_{2j} dx_{2j+1}) up to degree 1
    for chart in models:
        d = chart.dim
        unit = lambda i: tuple(int(k == i) for k in range(d))
        want = [{unit(b + 1): 1.0} if b % 2 == 0 else {unit(b - 1): -1.0} for b in range(d - 1)]
        want.append({(0,) * d: 1.0})
        low = [{idx: c for idx, c in form.coeffs.items() if sum(idx) <= 1} for form in chart.contact_form]
        assert low == want


def test_contact_form_pairs_the_reeb_field_to_minus_one(models):
    # omega_0(T) = -1 as a jet identity to order CHART_ORDER - 1
    for chart in models:
        d = chart.dim
        pairing = Jet.zero(d, CHART_ORDER, (0.0,) * d)
        for b in range(d):
            pairing = pairing + chart.contact_form[b] * chart.reeb[b]
        assert pairing.shift_constant(1.0).truncated(CHART_ORDER - 1).max_abs() == 0.0


def test_frame_at_the_origin(models):
    # Z_j(0) = (sqrt2/2)(d/dx_{2j} - i d/dx_{2j+1})
    for chart in models:
        for j, row in enumerate(chart.frame):
            want = [0.0] * chart.dim
            want[2 * j], want[2 * j + 1] = math.sqrt(2) / 2, -1j * math.sqrt(2) / 2
            assert [z.constant_term() for z in row] == want


def test_reeb_is_exactly_minus_d_last(models):
    for chart in models:
        for b in range(chart.dim):
            want = -1.0 if b == chart.dim - 1 else 0.0
            got = chart.reeb[b]
            assert abs(got.constant_term() - want) == 0.0
            assert all(sum(idx) == 0 for idx in got.coeffs)


def test_unit_volume_density(models):
    for chart in models:
        assert chart.volume_density.coeffs == {(0,) * chart.dim: 1.0 + 0.0j}


def test_christoffel_table_n1(chart):
    gammas = christoffel_at(chart)
    # 1-based Gamma^1_{2,3} = -1 -> 0-based (j,k,l) = (1,2,0)
    assert gammas[(1, 2, 0)].constant_term() == -1.0
    # 1-based Gamma^2_{1,3} = +1 -> (0,2,1)
    assert gammas[(0, 2, 1)].constant_term() == 1.0
    # 1-based Gamma^3_{1,1} = 0 -> (0,0,2)
    assert gammas[(0, 0, 2)].constant_term() == 0.0
    # exact model: no O(|x|) remainders anywhere
    for g in gammas.values():
        assert all(sum(idx) == 0 for idx in g.coeffs)


def _assert_heisenberg_christoffel_table(n):
    gammas = christoffel_at(heisenberg_chart(n))
    d = 2 * n + 1
    nonzero = {k: v.constant_term() for k, v in gammas.items() if v.coeffs}
    want = {}
    for m in range(n):
        want[(2 * m + 1, d - 1, 2 * m)] = -1.0 + 0.0j
        want[(2 * m, d - 1, 2 * m + 1)] = 1.0 + 0.0j
    assert nonzero == want


def test_christoffel_table_n2():
    _assert_heisenberg_christoffel_table(2)


def test_christoffel_table_n3():
    _assert_heisenberg_christoffel_table(3)


def _perturbed_n1():
    q, table = random_perturbation(1, 0.7, seed=11)
    return perturbed_chart(heisenberg_chart(1), 0.7, q, table)


@pytest.mark.parametrize(
    "make_chart",
    [lambda: heisenberg_chart(1), lambda: heisenberg_chart(2), lambda: heisenberg_chart(3), _perturbed_n1],
    ids=["n1", "n2", "n3", "perturbed-n1"],
)
def test_levi_coframe_is_dual_to_the_frame(make_chart):
    chart = make_chart()
    d, order = chart.dim, CHART_ORDER
    frame, coframe = levi_frame(chart, order)
    for r in range(d):
        for b in range(d):
            assert frame[r][b].constant_term() == (1.0 if r == b else 0.0)  # X(0) = I
    for a in range(d):
        for r in range(d):
            pairing = Jet.zero(d, order, (0.0,) * d)
            for b in range(d):
                pairing = pairing + coframe[a][b] * frame[r][b]
            delta = Jet.constant(d, order, (0.0,) * d, 1.0 if a == r else 0.0)
            assert max_coeff_difference(pairing, delta) == 0.0


def test_jet_solve_on_a_dense_system():
    # every coefficient of A and rhs is nonzero, so each pass fixes exactly one
    # more degree and the early stop cannot end the solve before the last pass
    rng = spawn_rng(3, "dense-jet-solve")
    d, order, base = 3, 4, (0.0,) * 3
    amat = [
        [random_jet(rng, d, order, base, decay=0.5).shift_constant(4.0 if r == c else 0.0) for c in range(d)]
        for r in range(d)
    ]
    rhs = [random_jet(rng, d, order, base, decay=0.5) for _ in range(d)]
    v = _solve_jet_linear(amat, rhs)
    for r in range(d):
        resid = -1.0 * rhs[r]
        for c in range(d):
            resid = resid + amat[r][c] * v[c]
        assert resid.max_abs() < 1e-12


def test_jet_solve_refuses_a_singular_leading_matrix():
    # A(0) with a zero column: the elimination meets a zero pivot
    d, order, base = 2, 3, (0.0,) * 2
    x0 = Jet.displacement(0, d, order, base)
    amat = [[x0, Jet.constant(d, order, base, 1.0)], [x0 * x0, Jet.constant(d, order, base, 2.0)]]
    with pytest.raises(ChartError, match="A\\(0\\) is singular"):
        _solve_jet_linear(amat, [Jet.constant(d, order, base, 1.0)] * d)


def _solve_row_by_row(amat, rhs):
    """Reference: the jet solve for one right-hand side with every product and
    scaling formed, zero operands included."""
    m, order = len(rhs), rhs[0].order
    a0 = np.array([[amat[r][c].constant_term() for c in range(m)] for r in range(m)])
    a0inv, _ = gauss_solve(a0)
    nil = [[amat[r][c].shift_constant(-a0[r, c]) for c in range(m)] for r in range(m)]
    sol = [Jet.zero(rhs[0].num_vars, order, rhs[0].base_point) for _ in range(m)]
    for _ in range(order + 1):
        resid = list(rhs)
        for r in range(m):
            for c in range(m):
                resid[r] = resid[r] - nil[r][c] * sol[c]
        new_sol = []
        for r in range(m):
            acc = Jet.zero(rhs[0].num_vars, order, rhs[0].base_point)
            for c in range(m):
                acc = acc + resid[c].scale(complex(a0inv[r, c]))
            new_sol.append(acc)
        if all(new.vector.tobytes() == old.vector.tobytes() for new, old in zip(new_sol, sol)):
            break
        sol = new_sol
    return sol


def _dense_system(n, order):
    rng = spawn_rng(n, order, "dense-system")
    d, base = 2 * n + 1, (0.0,) * (2 * n + 1)
    amat = [[random_jet(rng, d, order, base, 0.5).shift_constant(4.0 * (r == c)) for c in range(d)] for r in range(d)]
    return amat, [[random_jet(rng, d, order, base, 0.5) for _ in range(d)] for _ in range(3)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("order", [2, CHART_ORDER])
def test_jet_solve_equals_the_row_by_row_solve_bit_for_bit(n, order):
    # on the Heisenberg frame (mostly empty entries, A(0) = I) and on dense systems,
    # one right-hand side at a time and as one batch of right-hand sides
    frame, coframe = levi_frame(heisenberg_chart(n), order)
    d = len(frame)
    eye = [[Jet.constant(d, order, (0.0,) * d, float(r == a)) for r in range(d)] for a in range(d)]
    for a, rhs in enumerate(eye):
        want = _solve_row_by_row(frame, rhs)
        assert [w.vector.tobytes() for w in coframe[a]] == [w.vector.tobytes() for w in want]
        assert [w.vector.tobytes() for w in _solve_jet_linear(frame, rhs)] == [w.vector.tobytes() for w in want]
    amat, systems = _dense_system(n, order)
    wants = [_solve_row_by_row(amat, rhs) for rhs in systems]
    for rhs, want in zip(systems, wants):
        assert [v.vector.tobytes() for v in _solve_jet_linear(amat, rhs)] == [w.vector.tobytes() for w in want]
    batch = _solve_jet_linear(amat, [Jet.stack(col) for col in zip(*systems)])
    for k, want in enumerate(wants):
        assert [v.vector[k].tobytes() for v in batch] == [w.vector.tobytes() for w in want]


def _christoffel_term_by_term(frame, coframe):
    """Reference: every partial, product and negation formed, empty ones included."""
    d, first = len(frame), frame[0][0]
    out_order = max(first.order - 1, 0)
    lifted = {}
    for j in range(d):
        for l in range(d):
            comps = [Jet.zero(first.num_vars, out_order, first.base_point) for _ in range(d)]
            for a in range(d):
                der = coframe[a][l].partial(j)
                for k in range(d):
                    comps[k] = comps[k] + der * frame[a][k].truncated(out_order)
            lifted[(j, l)] = comps
    return {(j, k, l): -1.0 * lifted[(j, l)][k] for j in range(d) for k in range(d) for l in range(d)}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("order", [2, CHART_ORDER])
def test_christoffel_symbols_equal_the_term_by_term_sums_bit_for_bit(n, order):
    frame, coframe = levi_frame(heisenberg_chart(n), order)
    got, want = christoffel_symbols(frame, coframe), _christoffel_term_by_term(frame, coframe)
    assert list(got) == list(want)
    assert all(got[key].vector.tobytes() == want[key].vector.tobytes() for key in want)


def test_levi_frame_forms_no_product_with_an_empty_operand(monkeypatch):
    chart = heisenberg_chart(1)
    empty = []
    mul = Jet._mul_jet
    monkeypatch.setattr(
        Jet, "_mul_jet", lambda a, b: empty.append(not (a.support.size and b.support.size)) or mul(a, b)
    )
    levi_frame(chart, 2)
    assert empty and not any(empty)


def test_perturbed_chart_validates_only_what_it_adds(monkeypatch):
    import crkernel.charts as charts

    base = heisenberg_chart(1)
    q, table = random_perturbation(1, 0.7, seed=3)
    built = []
    for name in ("contact_form_jets", "heisenberg_phase_jet"):
        monkeypatch.setattr(charts, name, lambda n, name=name: built.append(name))
    pch = perturbed_chart(base, 0.7, q, table)
    assert built == []  # the contact form, frame, Reeb field and base phase are the base chart's
    assert pch.contact_form is base.contact_form and pch.frame is base.frame and pch.reeb is base.reeb
    # its own phase is still checked: i x_0^2 x_1^2 meets the identity at R = 1/2 but not the diagonal
    with pytest.raises(ChartError, match="diagonal"):
        perturbed_chart(base, 0.5, None, {(2, 2, 0, 0, 0, 0): 1j})


def test_scalar_curvature_flat_models(chart):
    # oracle: the Heisenberg model is flat (Webster 1978), so R = 0 exactly
    assert tw_scalar_curvature(chart) == 0.0
    assert tw_scalar_curvature(heisenberg_chart(2)) == 0.0
    assert tw_scalar_curvature(heisenberg_chart(3)) == 0.0


def test_scalar_curvature_synthetic():
    base = heisenberg_chart(1)
    q, table = random_perturbation(1, 0.7, seed=11)
    pch = perturbed_chart(base, 0.7, q, table)
    assert tw_scalar_curvature(pch) == 0.7


def test_kohn_point_formula_examples(chart):
    d = chart.dim
    f = Jet(d, 4, (0.0,) * d, {(2, 0, 0): 1.0})
    assert kohn_laplacian_at0(chart, f) == pytest.approx(-1.0)
    f = Jet(d, 4, (0.0,) * d, {(0, 0, 1): 1.0})
    assert kohn_laplacian_at0(chart, f) == pytest.approx(-1j)
    f = Jet(d, 4, (0.0,) * d, {(1, 1, 0): 1.0})
    assert kohn_laplacian_at0(chart, f) == 0.0


def test_reeb_derivative_examples(chart):
    d = chart.dim
    assert reeb_derivative_at0(chart, Jet(d, 4, (0.0,) * d, {(0, 0, 1): 1.0})) == -1.0
    assert reeb_derivative_at0(chart, Jet(d, 4, (0.0,) * d, {(1, 0, 0): 1.0})) == 0.0
    assert reeb_derivative_at0(chart, Jet(d, 4, (0.0,) * d, {(0, 0, 2): 1.0})) == 0.0


def test_reeb_derivative_rejects_order_zero(chart):
    # an order-0 jet holds no first derivatives, so T f(0) is unknown
    d = chart.dim
    with pytest.raises(OrderShortfallError):
        reeb_derivative_at0(chart, Jet.constant(d, 0, (0.0,) * d, 1.0))
    assert reeb_derivative_at0(chart, Jet(d, 1, (0.0,) * d, {(0, 0, 1): 1.0})) == -1.0


def test_phase_prepared_form(models):
    for chart in models:
        phi = chart.phase
        last = phi.num_vars - 1
        assert phi.num_vars == 2 * chart.dim
        linear = tuple(1 if k == last else 0 for k in range(phi.num_vars))
        assert phi.coefficient(linear) == 1.0
        for idx in phi.coeffs:
            if idx[last]:
                assert idx == linear


def test_phase_vanishes_on_diagonal(models):
    for chart in models:
        d = chart.dim
        coords = [Jet.coordinate(i, d, CHART_ORDER, (0.0,) * d) for i in range(d)]
        diag = chart.phase.compose(coords + coords)
        assert diag.max_abs() < 1e-14


def test_phase_imaginary_part(models):
    # Im phi = (1/2) sum_{a<2n} (x_a - y_a)^2 for real (x, y), as a jet identity
    for chart in models:
        d, nv = chart.dim, 2 * chart.dim
        want = Jet.zero(nv, CHART_ORDER, (0.0,) * nv)
        for a in range(2 * chart.n):
            diff = _x(a, nv) - _x(d + a, nv)
            want = want + (diff * diff).scale(0.5)
        assert np.array_equal(chart.phase.vector.imag, want.vector.real)


def test_phase_first_derivatives_are_the_contact_form(models):
    # d_x phi(0,0) = -omega_0(0) and d_y phi(0,0) = +omega_0(0)
    for chart in models:
        d = chart.dim
        omega0 = [form.constant_term() for form in chart.contact_form]
        assert [chart.phase.derivative_at(b) for b in range(d)] == [-w for w in omega0]
        assert [chart.phase.derivative_at(d + b) for b in range(d)] == omega0


def test_building_a_chart_forms_no_jet_product(monkeypatch):
    products = []
    mul = Jet._mul_jet
    monkeypatch.setattr(Jet, "_mul_jet", lambda self, other: products.append(1) or mul(self, other))
    for n in range(1, 6):
        heisenberg_chart(n)
    q, table = random_perturbation(1, 0.7, seed=3)
    perturbed_chart(heisenberg_chart(1), 0.7, q, table)
    assert products == []


def test_perturbed_zero_returns_base(chart):
    assert perturbed_chart(chart, 0.0) is chart


def test_perturbed_requires_consistency(chart):
    d = chart.dim
    # density channel with the wrong sign must be rejected
    bad = np.zeros((d, d))
    bad[0, 0] = bad[1, 1] = 0.7  # trace +2R instead of -2R
    with pytest.raises(ChartError):
        perturbed_chart(chart, 0.7, bad, {})


def test_perturbed_density_channel(chart):
    # oracle: substitute into the consistency identity with Lap^2 h1 = 0:
    # (i/4) Lap lambda(0) = -(i/2) R forces Lap lambda(0) = -2R
    d = chart.dim
    q = np.zeros((d, d))
    q[0, 0] = q[1, 1] = -0.7
    assert density_channel_value(q, 1) == pytest.approx(-1.4)
    pch = perturbed_chart(chart, 0.7, q, {})
    assert tw_scalar_curvature(pch) == 0.7
    assert pch.volume_density.coefficient((2, 0, 0)) == pytest.approx(-0.35)


def _calibrated_table(R):
    """c (x_0 - y_0)^4 with c = i R / 3, whose channel value is 16 i R."""
    c = 1j * R / 3.0
    table = {}
    for k in range(5):
        idx = [0] * 6
        idx[3] = k
        idx[0] = 4 - k
        table[tuple(idx)] = c * math.comb(4, k) * ((-1.0) ** (4 - k))
    return table


def test_perturbed_phase_channel(chart):
    # oracle: with a flat density the identity forces Lap^2 h1(0) = 16 i R
    R = 0.7
    table = _calibrated_table(R)
    assert quartic_channel_value(table, 1) == pytest.approx(16j * R)
    pch = perturbed_chart(chart, R, None, table)
    assert tw_scalar_curvature(pch) == R


@pytest.mark.parametrize("n, r_synth, seed", [(1, 0.7, 3), (2, -0.3, 5)])
def test_perturbed_phase_holds_its_whole_quartic(n, r_synth, seed):
    # a chart jet below order 4 would drop the quartic while R_synth is reported
    q, table = random_perturbation(n, r_synth, seed)
    base = heisenberg_chart(n)
    pch = perturbed_chart(base, r_synth, q, table)
    assert table and all(sum(idx) == 4 for idx in table)
    assert (pch.phase - base.phase).coeffs == table
    assert tw_scalar_curvature(pch) == r_synth


def _jet_channel_value(table, n):
    """Lap^2 [psi(0,u) + psi(u,0)](0) through the jets: the table as a jet,
    its two restrictions, and the derivative reader."""
    d = 2 * n + 1
    psi = Jet(2 * d, 4, (0,) * (2 * d), dict(table))
    u, zero = list(range(d)), [None] * d
    s = psi.reindex(d, zero + u, (0.0,) * d) + psi.reindex(d, u + zero, (0.0,) * d)
    total = 0.0 + 0.0j
    for a in range(2 * n):
        for b in range(2 * n):
            total += s.derivative_at(a, a, b, b)
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_quartic_channel_value_equals_the_jet_reading(n):
    # bit for bit, on seeded tables (the last overflows to a NaN value), on the
    # calibrated table, and on pure-x and pure-y entries that cancel or are -0
    tables = [random_perturbation(n, r, seed)[1] for seed, r in ((3, 0.3), (4, -0.7), (5, 1.1), (6, 0.0), (1, 1e308))]
    if n == 1:
        u = (2, 2, 0)
        tables += [_calibrated_table(0.7), {u + (0,) * 3: 0.25 - 1j, (0,) * 3 + u: -0.25 + 1j, (4, 0, 0, 0, 0, 0): -0.0j}]
    for table in tables:
        got, want = quartic_channel_value(table, n), _jet_channel_value(table, n)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_perturbation_forms_no_jet_product(monkeypatch):
    products = []
    mul = Jet._mul_jet
    monkeypatch.setattr(Jet, "_mul_jet", lambda self, other: products.append(1) or mul(self, other))
    for n in (1, 3):
        _, table = random_perturbation(n, 0.7, seed=3)
        quartic_channel_value(table, n)
    assert products == []


def test_perturbed_rejects_y_last_in_quartic(chart):
    idx = [0] * 6
    idx[5] = 2
    idx[0] = 2
    with pytest.raises(ChartError):
        perturbed_chart(chart, 0.0, None, {tuple(idx): 1.0})


def test_perturbed_rejects_a_key_below_degree_4(chart):
    # the phase deviates from the normal form from degree 4 on only
    with pytest.raises(ChartError, match="not a quartic"):
        perturbed_chart(chart, 0.0, None, {(1, 0, 0, 1, 0, 0): 1.0})


def test_random_perturbation_identity_holds():
    for seed, r in ((3, 0.3), (4, -0.7), (5, 1.1)):
        q, table = random_perturbation(1, r, seed=seed)
        resid = -quartic_channel_value(table, 1) / 32.0 + 0.25j * density_channel_value(
            q, 1
        ) + 0.5j * r
        assert abs(resid) < 1e-12
        pch = perturbed_chart(heisenberg_chart(1), r, q, table)
        assert tw_scalar_curvature(pch) == r


def test_perturbed_phase_keeps_pair_invariants():
    base = heisenberg_chart(1)
    q, table = random_perturbation(1, -0.3, seed=8)
    pch = perturbed_chart(base, -0.3, q, table)
    phi = pch.phase
    d = base.dim
    coords = [Jet.coordinate(i, d, 6, (0.0,) * d) for i in range(d)]
    assert phi.compose(coords + coords).max_abs() < 1e-12
    delta = phi - base.phase
    assert all(sum(idx) >= 4 for idx in delta.coeffs)
