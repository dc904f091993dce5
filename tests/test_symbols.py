import numpy as np
import pytest

from crkernel.charts import heisenberg_chart, perturbed_chart, random_perturbation
from crkernel.errors import ChartError, SymbolError
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
    return heisenberg_chart(1, 6)


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
    sym = random_classical_symbol(N, 0.5, 2, seed=7)
    assert euler_check(sym.components[0], 0.5) < 1e-12
    assert euler_check(sym.components[1], -0.5) < 1e-12


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
        lhs = m * (-e0.derivative_value((0, 0, 1, 0, 0, 0)))
        rhs = e0.derivative_value((0, 0, 1, 0, 0, 1))
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10


# -- subprincipal symbol ----------------------------------------------------------------


def test_subprincipal_identity_symbol(chart):
    sym = identity_symbol(N)
    rng = spawn_rng(5, "lam")
    lam = random_jet(rng, D, 6, (0.0,) * D, real=True, decay=0.4, min_degree=1).exp()
    value, _ = subprincipal_symbol(sym, lam, 1.0)
    assert value == 0.0


def test_subprincipal_one_var_toy():
    base = xi_base(0)
    e0 = Jet(2, 4, base, {(0, 0): -1.0, (0, 1): 1.0})  # the function xi_1
    sym = ClassicalSymbol(order_m=1.0, components=(e0,))
    lam = Jet(1, 4, (0.0,), {(1,): 1.0}).exp()  # exp(x_1)
    value, _ = subprincipal_symbol(sym, lam, 1.0)
    assert value == pytest.approx(0.5j)


def test_subprincipal_constant_subleading():
    z = Jet.zero(NV, 5, BASE)
    c = Jet.constant(NV, 5, BASE, 2.5 + 0.5j)
    sym = ClassicalSymbol(order_m=0.0, components=(z, c))
    lam = Jet.constant(D, 5, (0.0,) * D, 1.0)
    value, _ = subprincipal_symbol(sym, lam, 1.0)
    assert value == 2.5 + 0.5j


def test_subprincipal_rejects_s_zero():
    sym = identity_symbol(N)
    lam = Jet.constant(D, 6, (0.0,) * D, 1.0)
    with pytest.raises(SymbolError):
        subprincipal_symbol(sym, lam, 0.0)


def test_subprincipal_jet_raises_a_low_order_density():
    # the jet reaches degree k = e_0.order - 2, so d log(lambda) is needed through degree k
    rng = spawn_rng(5, "low-order-density")
    sym = random_classical_symbol(N, 0.3, 2, seed=5, homogeneous=False)
    lam = random_jet(rng, D, 2, (0.0,) * D, real=True, decay=0.4, min_degree=1).exp()
    value, jet = subprincipal_symbol(sym, lam, 1.5)
    want_value, want = subprincipal_symbol(sym, lam.with_order(5), 1.5)
    assert value == want_value
    assert max_coeff_difference(jet, want) == 0.0


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
        direct, _ = subprincipal_symbol(sym, lam, s_val)
        transported, _ = subprincipal_symbol(tsym, tlam, s_val)
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
    used = heisenberg_chart(1, 6)
    first, second, last = _random_fields("p-order", 3)
    p_operator_geometric(used, first)
    p_operator_geometric(used, second)
    assert p_operator_geometric(used, last) == p_operator_geometric(heisenberg_chart(1, 6), last)


def test_p_operator_coframe_products_match_linear_solves(chart):
    from crkernel.charts import _solve_jet_linear
    from crkernel.symbols import _jet_dot, _p_geometry

    gam_xi, frame_p, coframe, _ = _p_geometry(chart, 3, BASE)
    for F in _random_fields("p-coframe", 5):
        comps = hamiltonian_vector_field(F)
        a, bhat = comps[:D], list(comps[D:])
        for (j, k, l), gx in gam_xi.items():
            bhat[l] = bhat[l] + a[j] * gx
        alpha = _solve_jet_linear([[frame_p[r][l] for r in range(D)] for l in range(D)], a)
        beta = _solve_jet_linear([[coframe[r][l] for r in range(D)] for l in range(D)], bhat)
        for r in range(D):
            assert max_coeff_difference(_jet_dot(coframe[r], a), alpha[r]) < 1e-14
            assert max_coeff_difference(_jet_dot(frame_p[r], bhat), beta[r]) < 1e-14


def test_p_geometry_solves_the_frame_once_per_order(monkeypatch):
    import crkernel.symbols as symbols

    calls = []
    levi_frame = symbols.levi_frame

    def counted(chart, order):
        calls.append(order)
        return levi_frame(chart, order)

    monkeypatch.setattr(symbols, "levi_frame", counted)
    fresh = heisenberg_chart(1, 6)
    for F in _random_fields("p-once", 3):
        p_operator_geometric(fresh, F)
    assert calls == [4]  # fields of order 4 need the geometry at w = 3, the frame at w + 1


def test_p_operator_geometric_rejects_perturbed(chart):
    q, table = random_perturbation(1, 0.3, seed=2)
    pch = perturbed_chart(chart, 0.3, q, table)
    F = Jet(NV, 4, BASE, {(0, 1, 0, 1, 0, 0): 1.0})
    with pytest.raises(ChartError):
        p_operator_geometric(pch, F)
