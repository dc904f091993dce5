import numpy as np
import pytest

from crkernel.charts import heisenberg_chart, perturbed_chart, random_perturbation
from crkernel.errors import BranchError, ChartError, SymbolError
from crkernel.jets import Jet, max_coeff_difference, random_jet
from crkernel.rng import spawn_rng
from crkernel.symbols import (
    ClassicalSymbol,
    divergence,
    euler_check,
    hamiltonian_vector_field,
    homogeneity_extend,
    identity_symbol,
    invert_map,
    make_multiplication_symbol,
    p_operator_canonical,
    p_operator_geometric,
    promote_x_jet,
    random_classical_symbol,
    subprincipal_symbol,
    transform_density,
    transform_symbol_under_diffeo,
    xi_base,
)

N = 1
D = 2 * N + 1
NV = 2 * D
BASE = xi_base(N)


@pytest.fixture(scope="module")
def chart():
    return heisenberg_chart(1)


def disp(i, order=4, nv=NV, base=BASE):
    return Jet.displacement(i, nv, order, base)


# -- construction --------------------------------------------------------------------


def test_multiplication_symbol_examples():
    one = Jet.constant(D, 4, (0.0,) * D, 1.0)
    sym = make_multiplication_symbol(one)
    assert sym.order_m == 0.0
    assert sym.components[0].coeffs == {(0,) * NV: 1.0 + 0.0j}
    assert euler_check(sym.components[0], 0.0) == 0.0

    f = Jet.displacement(0, D, 4, (0.0,) * D)  # x_1
    sym = make_multiplication_symbol(f)
    e0 = sym.components[0]
    assert e0.coefficient((1, 0, 0, 0, 0, 0)) == 1.0
    assert all(sum(idx[D:]) == 0 for idx in e0.coeffs)  # xi-independent
    assert euler_check(e0, 0.0) == 0.0  # degree-0 homogeneity of x-only data


def test_random_symbol_deterministic():
    a = random_classical_symbol(N, 0.5, 2, seed=9)
    b = random_classical_symbol(N, 0.5, 2, seed=9)
    for ca, cb in zip(a.components, b.components):
        assert max_coeff_difference(ca, cb) == 0.0


@pytest.mark.parametrize("homogeneous", [True, False])
def test_random_symbol_at_a_lower_order_is_a_prefix(homogeneous):
    # scenario symbols are drawn at order 2 and must keep the values of the draw at 6
    low = random_classical_symbol(N, 0.5, 2, seed=9, homogeneous=homogeneous, order=2)
    high = random_classical_symbol(N, 0.5, 2, seed=9, homogeneous=homogeneous)
    for cl, ch in zip(low.components, high.components):
        assert cl.order == 2 and np.array_equal(cl.vector, ch.truncated(2).vector)
    assert identity_symbol(N, order=2).components[0].order == 2


def test_random_symbol_single_component_pads_zero():
    sym = random_classical_symbol(N, 1.0, 1, seed=2)
    assert len(sym.components) == 1
    assert sym.component(1).coeffs == {}


def test_base_point_validation():
    wrong = Jet.constant(NV, 4, (0.0,) * NV, 1.0)  # xi base 0, not -omega_0(0)
    with pytest.raises(SymbolError):
        ClassicalSymbol(order_m=0.0, components=(wrong,))


# -- homogeneity ----------------------------------------------------------------------


def test_extend_constant_degree_one():
    slice_jet = Jet.constant(D + 2 * N, 6, (0.0,) * (D + 2 * N), 1.0)
    ext = homogeneity_extend(slice_jet, 1.0)
    # -xi_{2n} = 1 - dxi_{2n} around the base point
    assert ext.coeffs == {(0,) * NV: 1.0 + 0.0j, (0, 0, 0, 0, 0, 1): -1.0 + 0.0j}
    assert euler_check(ext, 1.0) == 0.0


def test_extend_degree_zero_constant():
    slice_jet = Jet.constant(D + 2 * N, 6, (0.0,) * (D + 2 * N), 2.5)
    ext = homogeneity_extend(slice_jet, 0.0)
    assert ext.coeffs == {(0,) * NV: 2.5 + 0.0j}


def test_extend_point_sample_oracle():
    # oracle: evaluate the extension formula directly at sample points
    rng = spawn_rng(11, "extsample")
    slice_jet = random_jet(rng, D + 2 * N, 6, (0.0,) * (D + 2 * N), decay=0.4)
    deg = 0.5
    ext = homogeneity_extend(slice_jet, deg)
    for _ in range(5):
        dx = 0.02 * rng.standard_normal(D)
        dxi = 0.02 * rng.standard_normal(D)
        xi = np.array([0.0, 0.0, -1.0]) + dxi
        slice_arg = np.concatenate([dx, -xi[:2] / xi[2]])
        direct = (-xi[2]) ** deg * slice_jet.eval_many(np.array([slice_arg]))[0]
        via_jet = ext.eval_many(np.array([np.concatenate([dx, dxi])]))[0]
        assert abs(direct - via_jet) < 1e-9


def test_extend_euler_residual_by_construction():
    for m in (-1.0, 0.0, 0.5, 1.0):
        sym = random_classical_symbol(N, m, 2, seed=7)
        for j, component in enumerate(sym.components):
            assert euler_check(component, m - j) < 1e-12, (m, j)


def test_euler_witness_inhomogeneous():
    e = Jet(NV, 4, BASE, {(1, 0, 0, 0, 0, 0): 1.0})  # x_1, tested at degree 1
    assert euler_check(e, 1.0) == pytest.approx(1.0)


def test_euler_minus_xi_last():
    e = Jet(NV, 4, BASE, {(0,) * NV: 1.0, (0, 0, 0, 0, 0, 1): -1.0})  # -xi_{2n}
    assert euler_check(e, 1.0) == 0.0


def test_princ_symb_identity_random():
    # m * T e_0 = d2_{x_{2n} xi_{2n}} e_0 at the base covector
    worst = 0.0
    for k, m in enumerate((-1.0, 0.5, 1.0, 2.0)):
        sym = random_classical_symbol(N, m, 1, seed=50 + k)
        e0 = sym.components[0]
        lhs = m * (-e0.derivative_at(2))
        rhs = e0.derivative_at(2, 5)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10


# -- subprincipal symbol ----------------------------------------------------------------


def test_subprincipal_identity_symbol(chart):
    sym = identity_symbol(N)
    rng = spawn_rng(5, "lam")
    lam = random_jet(rng, D, 6, (0.0,) * D, real=True, decay=0.4, min_degree=1).exp()
    assert subprincipal_symbol(sym, lam, 1.0) == 0.0


def test_subprincipal_one_var_toy():
    base = xi_base(0)
    e0 = Jet(2, 4, base, {(0, 0): -1.0, (0, 1): 1.0})  # the function xi_1
    sym = ClassicalSymbol(order_m=1.0, components=(e0,))
    lam = Jet(1, 4, (0.0,), {(1,): 1.0}).exp()  # exp(x_1)
    assert subprincipal_symbol(sym, lam, 1.0) == pytest.approx(0.5j)


def test_subprincipal_constant_subleading():
    z = Jet.zero(NV, 5, BASE)
    c = Jet.constant(NV, 5, BASE, 2.5 + 0.5j)
    sym = ClassicalSymbol(order_m=0.0, components=(z, c))
    lam = Jet.constant(D, 5, (0.0,) * D, 1.0)
    assert subprincipal_symbol(sym, lam, 1.0) == 2.5 + 0.5j


def test_subprincipal_rejects_s_zero():
    sym = identity_symbol(N)
    lam = Jet.constant(D, 6, (0.0,) * D, 1.0)
    with pytest.raises(SymbolError):
        subprincipal_symbol(sym, lam, 0.0)


def test_subprincipal_value_does_not_depend_on_the_density_order():
    # the value reads lambda through degree 1 only
    rng = spawn_rng(5, "low-order-density")
    sym = random_classical_symbol(N, 0.3, 2, seed=5, homogeneous=False)
    lam = random_jet(rng, D, 2, (0.0,) * D, real=True, decay=0.4, min_degree=1).exp()
    want = subprincipal_symbol(sym, lam.with_order(5), 1.5)
    for order in (1, 2):
        assert subprincipal_symbol(sym, lam.truncated(order), 1.5) == want


def _jet_level_subprincipal(sym, density, s):
    """e_sub as the jet of the whole expression, log(lambda) as a jet series
    taken at the order the jet reaches, read at the base covector."""
    e0 = sym.components[0]
    d = e0.num_vars // 2
    k = e0.order - 2
    loglam = density.with_order(max(density.order, k + 1)).log()
    out = sym.component(1).truncated(k)
    for j in range(d):
        out = out + 0.5j * e0.partial(j).partial(d + j).truncated(k)
        dlog = promote_x_jet(loglam.partial(j), e0.base_point, k)
        out = out + (0.5j / s) * (e0.partial(d + j).truncated(k) * dlog)
    return out.constant_term()


def test_subprincipal_value_equals_the_jet_level_value_bit_for_bit():
    cases = []
    for k in range(20):
        rng = spawn_rng(k, "subprincipal-reference")
        n = 1 + k % 2
        d = 2 * n + 1
        sym = random_classical_symbol(n, float(rng.uniform(-1, 1)), 2, seed=200 + k, homogeneous=k % 3 == 0)
        # lambda(0) = exp(c0) != 1, complex for odd k, so d log(lambda) divides by lambda(0)
        lam = random_jet(rng, d, 6, (0.0,) * d, real=k % 2 == 0, decay=0.4).scale(0.5).exp()
        cases.append((sym, lam, float(rng.uniform(0.5, 2.0))))
        cases.append((sym, Jet.constant(d, 0, (0.0,) * d, 2.0 - 0.3j), 1.5))  # an order-0 density
    for sym, lam, s_val in cases:
        assert abs(lam.constant_term() - 1.0) > 1e-3
        assert subprincipal_symbol(sym, lam, s_val) == _jet_level_subprincipal(sym, lam, s_val)


def test_subprincipal_rejects_a_density_off_the_principal_branch():
    sym = random_classical_symbol(N, 0.3, 2, seed=5, homogeneous=False)
    for value in (-1.0, 0.0, -0.5 + 1.0j):
        with pytest.raises(BranchError):
            subprincipal_symbol(sym, Jet.constant(D, 4, (0.0,) * D, value), 1.0)


# -- coordinate changes -------------------------------------------------------------------


def _random_cubic_diffeo(rng, order=6, scale=0.3):
    kappa = []
    for c in range(D):
        bump = random_jet(rng, D, order, (0.0,) * D, real=True, decay=0.3, min_degree=2)
        kappa.append(
            Jet.displacement(c, D, order, (0.0,) * D)
            + bump.truncated(3).with_order(order).scale(scale)
        )
    return kappa


def test_invert_map_roundtrip():
    rng = spawn_rng(9, "map")
    kappa = _random_cubic_diffeo(rng, order=5, scale=0.4)
    psi = invert_map(kappa)
    coords = [Jet.displacement(i, D, 5, (0.0,) * D) for i in range(D)]
    for c in range(D):
        assert max_coeff_difference(kappa[c].compose(psi), coords[c]) < 1e-12
        assert max_coeff_difference(psi[c].compose(kappa), coords[c]) < 1e-12


def test_transform_identity_diffeo():
    sym = random_classical_symbol(N, 0.0, 2, seed=3, homogeneous=False)
    ident = [Jet.displacement(c, D, 6, (0.0,) * D) for c in range(D)]
    tsym = transform_symbol_under_diffeo(sym, ident, invert_map(ident))
    for j in range(2):
        assert max_coeff_difference(tsym.components[j], sym.components[j].truncated(4)) == 0.0


def test_transform_linear_exact():
    # e_{kappa,0}(kappa(x), eta) = e_0(x, kappa'(x)^T eta) for linear kappa
    rng = spawn_rng(21, "linear")
    A = np.eye(D) + 0.2 * rng.standard_normal((D, D))
    kappa = []
    for c in range(D):
        coeffs = {}
        for j in range(D):
            idx = [0] * D
            idx[j] = 1
            coeffs[tuple(idx)] = A[c, j]
        kappa.append(Jet(D, 6, (0.0,) * D, coeffs))
    sym = random_classical_symbol(N, 1.0, 1, seed=6, homogeneous=False)
    tsym = transform_symbol_under_diffeo(sym, kappa, invert_map(kappa))
    # sample: pick x near 0 and eta near the transformed base, compare values
    eta0 = np.array(tsym.components[0].base_point[D:])
    for _ in range(4):
        # sample radius keeps the order-(K-2) truncation error below tolerance
        x = 0.02 * rng.standard_normal(D)
        eta = eta0 + 0.02 * rng.standard_normal(D)
        lhs = tsym.components[0].eval_many(np.array([np.concatenate([A @ x, eta - eta0])]))[0]
        xi = A.T @ eta
        rhs = sym.components[0].eval_many(np.array([np.concatenate([x, xi - np.array(BASE[D:])])]))[0]
        assert abs(lhs - rhs) < 1e-7


def test_transforms_truncate_a_given_inverse():
    rng = spawn_rng(12, "given-inverse")
    sym = random_classical_symbol(N, 0.4, 2, seed=12, homogeneous=False)
    lam = random_jet(rng, D, 6, (0.0,) * D, real=True, decay=0.4, min_degree=1).exp()
    kappa = _random_cubic_diffeo(rng)
    psi = invert_map(kappa)
    # the symbol transport works at order 4, where kappa's own inverse is psi's truncation
    psi4 = invert_map([k.truncated(4) for k in kappa])
    for got, want in zip(
        transform_symbol_under_diffeo(sym, kappa, psi).components,
        transform_symbol_under_diffeo(sym, kappa, psi4).components,
    ):
        assert max_coeff_difference(got, want) <= 1e-14 * max(want.max_abs(), 1.0)
    with pytest.raises(SymbolError):
        transform_density(lam, kappa, 1.5, [g.truncated(4) for g in psi])


def test_transform_density_reads_kappa_above_the_density_order():
    # degrees <= 4 of the transported density read the Jacobian, so kappa, through degree 5
    rng = spawn_rng(13, "density-orders")
    lam = random_jet(rng, D, 5, (0.0,) * D, real=True, decay=0.4, min_degree=1).exp()
    kappa = [
        Jet.displacement(c, D, 5, (0.0,) * D)
        + random_jet(rng, D, 5, (0.0,) * D, real=True, decay=0.3, min_degree=2).scale(0.3)
        for c in range(D)
    ]
    psi = invert_map(kappa)
    got = transform_density(lam.truncated(4), kappa, 1.5, psi)
    want = transform_density(lam, kappa, 1.5, psi).truncated(4)
    assert max_coeff_difference(got, want) <= 1e-14 * max(want.max_abs(), 1.0)


def test_transform_singular_jacobian_rejected():
    kappa = [Jet.zero(D, 6, (0.0,) * D) for _ in range(D)]
    ident = [Jet.displacement(c, D, 6, (0.0,) * D) for c in range(D)]  # the Jacobian is checked first
    sym = identity_symbol(N)
    with pytest.raises(SymbolError, match="singular Jacobian"):
        transform_symbol_under_diffeo(sym, kappa, ident)


@pytest.mark.parametrize("order", [4, 6])
def test_half_hessian_inputs_are_symmetric_bit_for_bit(order):
    # the transport forms its (j, k) term once and adds it again at (k, j): both
    # inputs of the term, d_xi_j d_xi_k e_0 and d_j d_k kappa, are symmetric bytewise
    # at the work orders order - 2 of the subprincipal check (4) and of SYMBOL_ORDER (6)
    work = order - 2
    for k in range(5):
        rng = spawn_rng(k, "half-hessian", order)
        e0 = random_classical_symbol(N, 0.7, 2, seed=300 + k, homogeneous=False, order=order).components[0]
        kappa = _random_cubic_diffeo(rng, order=order)
        for a in range(D):
            for b in range(a + 1, D):
                ab = e0.partial(D + a).partial(D + b).truncated(work)
                ba = e0.partial(D + b).partial(D + a).truncated(work)
                assert ab.vector.tobytes() == ba.vector.tobytes()
                for g in kappa:
                    ab = g.with_order(work + 2).partial(a).partial(b).with_order(work)
                    ba = g.with_order(work + 2).partial(b).partial(a).with_order(work)
                    assert ab.vector.tobytes() == ba.vector.tobytes()


def test_subprincipal_invariance_under_diffeos():
    # the transformation-law conclusion itself, checked numerically
    worst = 0.0
    for k in range(20):
        rng = spawn_rng(k, "inv-diffeo")
        sym = random_classical_symbol(N, 0.7, 2, seed=100 + k, homogeneous=False)
        lam = random_jet(rng, D, 6, (0.0,) * D, real=True, decay=0.4, min_degree=1).scale(0.5).exp()
        s_val = float(rng.uniform(0.5, 2.0))
        kappa = _random_cubic_diffeo(rng)
        psi = invert_map(kappa)
        tsym = transform_symbol_under_diffeo(sym, kappa, psi)
        tlam = transform_density(lam, kappa, s_val, psi)
        direct = subprincipal_symbol(sym, lam, s_val)
        transported = subprincipal_symbol(tsym, tlam, s_val)
        worst = max(worst, abs(direct - transported))
    assert worst < 1e-10


# -- cotangent geometry ----------------------------------------------------------------------


def test_hamiltonian_field_examples():
    F = Jet(NV, 4, BASE, {(1, 0, 0, 1, 0, 0): 1.0})  # x_1 xi_1
    vf = hamiltonian_vector_field(F)
    assert vf[0].coefficient((1, 0, 0, 0, 0, 0)) == -1.0  # a_1 = -x_1
    assert vf[D].coefficient((0, 0, 0, 1, 0, 0)) == 1.0  # b_1 = xi_1
    Fx = Jet(NV, 4, BASE, {(2, 1, 0, 0, 0, 0): 1.0})  # f(x)
    vfx = hamiltonian_vector_field(Fx)
    assert all(not vfx[j].coeffs for j in range(D))


def test_symplectic_pairing_identity():
    # omega(X_F, .) + dF = 0 component-wise
    rng = spawn_rng(13, "symp")
    F = random_jet(rng, NV, 4, BASE)
    vf = hamiltonian_vector_field(F)
    for j in range(D):
        dx_comp = (-1.0) * vf[D + j] + F.partial(j).truncated(3)
        dxi_comp = vf[j] + F.partial(D + j).truncated(3)
        assert dx_comp.max_abs() == 0.0
        assert dxi_comp.max_abs() == 0.0


def test_divergence_examples():
    const_field = [Jet.constant(NV, 4, BASE, 1.0) for _ in range(NV)]
    assert divergence(const_field).max_abs() == 0.0
    rng = spawn_rng(14, "divfree")
    F = random_jet(rng, NV, 4, BASE)
    assert divergence(hamiltonian_vector_field(F)).max_abs() == 0.0
    field = [Jet.zero(NV, 4, BASE) for _ in range(NV)]
    field[0] = Jet.displacement(0, NV, 4, BASE)  # (x_1, 0, ...)
    assert divergence(field).constant_term() == 1.0


def test_p_operator_canonical_examples():
    F = Jet(NV, 4, BASE, {(0, 1, 0, 1, 0, 0): 1.0})  # x_2 xi_1
    assert p_operator_canonical(F) == 1.0
    F = Jet(NV, 4, BASE, {(1, 0, 0, 0, 1, 0): 1.0})  # x_1 xi_2
    assert p_operator_canonical(F) == -1.0
    F = Jet(NV, 4, BASE, {(2, 0, 1, 0, 0, 0): 3.0})  # f(x)
    assert p_operator_canonical(F) == 0.0


def test_p_operator_geometric_agreement(chart):
    examples = [
        Jet(NV, 4, BASE, {(0, 1, 0, 1, 0, 0): 1.0}),
        Jet(NV, 4, BASE, {(1, 0, 0, 0, 1, 0): 1.0}),
        Jet(NV, 4, BASE, {(2, 0, 1, 0, 0, 0): 3.0}),
        Jet(NV, 4, BASE, {(0, 0, 0, 1, 1, 0): 1.0}),  # xi_1 xi_2
    ]
    for k in range(20):
        rng = spawn_rng(k, "pgeum")
        examples.append(random_jet(rng, NV, 4, BASE, decay=0.5))
    for F in examples:
        dev = abs(p_operator_canonical(F) - p_operator_geometric(chart, F))
        assert dev < 1e-12


def _random_fields(tag, count):
    return [random_jet(spawn_rng(k, tag), NV, 4, BASE, decay=0.5) for k in range(count)]


def test_p_operator_geometric_does_not_depend_on_earlier_fields():
    used = heisenberg_chart(1)
    first, second, last = _random_fields("p-order", 3)
    p_operator_geometric(used, first)
    p_operator_geometric(used, second)
    assert p_operator_geometric(used, last) == p_operator_geometric(heisenberg_chart(1), last)


def test_p_operator_coframe_products_match_linear_solves(chart):
    from crkernel.charts import _solve_jet_linear
    from crkernel.symbols import _jet_dot, _p_geometry

    gam_xi, frame_p, coframe, _ = _p_geometry(chart, BASE)
    for F in _random_fields("p-coframe", 5):
        comps = hamiltonian_vector_field(F.truncated(2))
        a, bhat = comps[:D], list(comps[D:])
        for (j, k, l), gx in gam_xi.items():
            bhat[l] = bhat[l] + a[j] * gx
        alpha = _solve_jet_linear([[frame_p[r][l] for r in range(D)] for l in range(D)], a)
        beta = _solve_jet_linear([[coframe[r][l] for r in range(D)] for l in range(D)], bhat)
        for r in range(D):
            assert max_coeff_difference(_jet_dot(coframe[r], a), alpha[r]) < 1e-14
            assert max_coeff_difference(_jet_dot(frame_p[r], bhat), beta[r]) < 1e-14


def test_p_geometry_solves_the_frame_once_per_call(monkeypatch):
    import crkernel.symbols as symbols

    calls = []
    levi_frame = symbols.levi_frame

    def counted(chart, order):
        calls.append(order)
        return levi_frame(chart, order)

    monkeypatch.setattr(symbols, "levi_frame", counted)
    fresh = heisenberg_chart(1)
    fields = _random_fields("p-once", 3) + [F.with_order(6) for F in _random_fields("p-once-6", 2)]
    for F in fields:
        p_operator_geometric(fresh, F)
    # fields of every order need the geometry at order 1, the frame at 2
    assert calls == [2] * len(fields)


def _p_operator_at_order(chart, F, w):
    """P(F) with the fields, the lifted frames and the connection all formed
    at order w = F.order - 1, the order of F's Hamiltonian field."""
    from crkernel.charts import christoffel_symbols, levi_frame
    from crkernel.symbols import _jet_dot

    n, d, base = chart.n, chart.dim, F.base_point
    nv = 2 * d
    xi_jets = [Jet.coordinate(d + k, nv, w, base) for k in range(d)]
    frame, coframe = levi_frame(chart, w + 1)
    gam_xi = {
        (j, k, l): xi_jets[k] * promote_x_jet(g, base, w)
        for (j, k, l), g in christoffel_symbols(frame, coframe).items()
        if g.support.size
    }
    frame_p = [[promote_x_jet(f, base, w) for f in row] for row in frame]
    coframe = [[promote_x_jet(f, base, w) for f in row] for row in coframe]
    hor_xi = []
    for r in range(d):
        vs = [Jet.zero(nv, w, base) for _ in range(d)]
        for (j, k, l), gx in gam_xi.items():
            vs[l] = vs[l] - frame_p[r][j] * gx
        hor_xi.append(vs)
    comps = hamiltonian_vector_field(F)
    a, bhat = comps[:d], list(comps[d:])
    for (j, k, l), gx in gam_xi.items():
        bhat[l] = bhat[l] + a[j] * gx
    alpha = [_jet_dot(coframe[r], a) for r in range(d)]
    beta = [_jet_dot(frame_p[r], bhat) for r in range(d)]
    out_x = [Jet.zero(nv, w, base) for _ in range(d)]
    out_xi = [Jet.zero(nv, w, base) for _ in range(d)]
    for j in range(n):
        for coeff, target in ((alpha[2 * j], 2 * j + 1), (-1.0 * alpha[2 * j + 1], 2 * j)):
            for l in range(d):
                out_x[l] = out_x[l] + coeff * frame_p[target][l]
                out_xi[l] = out_xi[l] + coeff * hor_xi[target][l]
    for j in range(n):
        for coeff, target in ((beta[2 * j], 2 * j + 1), (-1.0 * beta[2 * j + 1], 2 * j)):
            for l in range(d):
                out_xi[l] = out_xi[l] + coeff * coframe[target][l]
    return -0.5 * divergence(out_x + out_xi).constant_term()


@pytest.mark.parametrize("n", [1, 2])
def test_p_operator_at_order_1_equals_the_field_order_bit_for_bit(n):
    ch = heisenberg_chart(n)
    nv, base = 2 * ch.dim, xi_base(n)
    for order in (2, 3, 4, 6):
        rngs = [spawn_rng(k, "p-order-reference", n, order) for k in range(3)]
        fields = [random_jet(rng, nv, order, base, decay=0.5) for rng in rngs]
        singles = []
        for k, F in enumerate(fields):
            geometric, canonical = p_operator_geometric(ch, F), p_operator_canonical(F)
            assert type(geometric) is complex and type(canonical) is complex
            assert geometric == _p_operator_at_order(ch, F, order - 1), (order, k)
            singles.append((geometric, canonical))
        # the stacked fields: each row is its field's own value, bit for bit
        stacked = Jet.stack(fields)
        batch = zip(p_operator_geometric(ch, stacked).tolist(), p_operator_canonical(stacked).tolist())
        assert repr(list(batch)) == repr(singles), order


def test_p_operator_geometric_rejects_perturbed(chart):
    q, table = random_perturbation(1, 0.3, seed=2)
    pch = perturbed_chart(chart, 0.3, q, table)
    F = Jet(NV, 4, BASE, {(0, 1, 0, 1, 0, 0): 1.0})
    with pytest.raises(ChartError):
        p_operator_geometric(pch, F)
