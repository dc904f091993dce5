"""Classical symbols as jets at the distinguished covector, and the geometry
operators acting on them.

A symbol lives as jets in (x, xi) based at (0, -omega_0(0)) = (0,...,0,-1);
the coefficient formulas downstream only ever evaluate there.  Homogeneity is
constructive: components are produced by extending data on the hyperplane
xi_{2n} = -1 with a prescribed degree, which makes the Euler identity hold at
truncation order by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .charts import CRModelChart, christoffel_symbols, levi_frame
from .errors import BranchError, ChartError, OrderShortfallError, SymbolError
from .jets import Jet, Substitution, random_jet
from .rng import spawn_rng


#: default jet order of a symbol, kept by the subprincipal-invariance draws,
#: whose seed streams depend on it; each consumer truncates to what it reads
SYMBOL_ORDER = 6


def xi_base(n: int) -> Tuple[complex, ...]:
    """Base point (0, -omega_0(0)) of symbol jets for CR dimension n."""
    d = 2 * n + 1
    return (0.0,) * d + (0.0,) * (d - 1) + (-1.0,)


@dataclass(frozen=True)
class ClassicalSymbol:
    """Ordered homogeneous components e_0, e_1, ... of a classical symbol."""

    order_m: float
    components: Tuple[Jet, ...]
    homogeneous: bool = False
    at_standard_base: bool = True

    def __post_init__(self):
        if not self.components:
            raise SymbolError("symbol needs at least one component")
        first = self.components[0]
        if first.num_vars % 2 or (first.num_vars // 2) % 2 == 0:
            raise SymbolError("symbol jets must have 2*(2n+1) variables")
        for c in self.components[1:]:
            if not first.is_compatible(c):
                raise SymbolError("symbol components must share num_vars/order/base")
        if self.at_standard_base and first.base_point != xi_base(self.n):
            raise SymbolError("symbol base point must be (0, -omega_0(0))")
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def n(self) -> int:
        return (self.components[0].num_vars // 2 - 1) // 2

    def component(self, j: int) -> Jet:
        if j < len(self.components):
            return self.components[j]
        first = self.components[0]
        return Jet.zero(first.num_vars, first.order, first.base_point)


def promote_x_jet(f: Jet, base_2d: Sequence[complex], order: int) -> Jet:
    """Lift a jet in x to the (x, xi) space at ``order`` (constant in xi)."""
    return f.with_order(order).reindex(2 * f.num_vars, range(f.num_vars), base_2d)


def identity_symbol(n: int, order: int = SYMBOL_ORDER) -> ClassicalSymbol:
    d = 2 * n + 1
    e0 = Jet.constant(2 * d, order, xi_base(n), 1.0)
    return ClassicalSymbol(order_m=0.0, components=(e0,), homogeneous=True)


def make_multiplication_symbol(f: Jet) -> ClassicalSymbol:
    """Order-zero symbol e_0(x, xi) = f(x) for the multiplication operator."""
    d = f.num_vars
    if d % 2 == 0:
        raise SymbolError("multiplication symbol needs a jet in 2n+1 variables")
    e0 = promote_x_jet(f, xi_base((d - 1) // 2), f.order)
    return ClassicalSymbol(order_m=0.0, components=(e0,), homogeneous=True)


def homogeneity_extend(data_on_slice: Jet, degree: float) -> Jet:
    """Extend data on the slice xi_{2n} = -1 homogeneously of the given degree.

    The slice jet has variables (x_0..x_{2n}, xi_0..xi_{2n-1}) at base 0; the
    result is the jet at (0, -omega_0(0)) of
    (-xi_{2n})^degree * data(x, -xi' / xi_{2n}).  With w = -xi_{2n} =
    1 - dxi_{2n}, a slice term c x^a xi'^b becomes c x^a dxi'^b w^(degree - |b|),
    so the coefficient of x^a dxi'^b dxi_{2n}^m is
    c binom(degree - |b|, m) (-1)^m: one scatter, no jet products.
    """
    nv_slice = data_on_slice.num_vars
    if (nv_slice - 1) % 4:
        raise SymbolError("slice jet must have (2n+1) + 2n variables")
    n = (nv_slice - 1) // 4
    order = data_on_slice.order
    basis, support = data_on_slice.basis, data_on_slice.support
    exps = basis.exponents[support]
    # every m <= order - |a| - |b| per slice term, as an appended exponent column
    span = order + 1 - basis.degrees[support]
    rows = np.repeat(np.arange(support.size), span)
    m = np.arange(rows.size) - np.repeat(np.cumsum(span) - span, span)
    # factor[b, m] = binom(degree - b, m) (-1)^m, by the recursion pow_real uses
    factor = np.ones((order + 1, order + 1))
    q = degree - np.arange(order + 1)
    for k in range(1, order + 1):
        factor[:, k] = factor[:, k - 1] * (q - k + 1) / k
    factor[:, 1::2] *= -1.0
    beta = exps[:, 2 * n + 1 :].sum(axis=1)  # |b|, the xi' degree of each slice term
    f = factor[beta[rows], m]
    c = data_on_slice.vector[support][rows]
    zero = Jet.zero(nv_slice + 1, order, xi_base(n))
    vector = np.zeros(zero.vector.size, dtype=complex)
    p = zero.basis.locate(np.column_stack([exps[rows], m]))
    vector.real[p] = c.real * f
    vector.imag[p] = c.imag * f
    return zero._like(vector)


def euler_check(component: Jet, degree: float) -> float:
    """Max coefficient magnitude of sum_j xi_j d_{xi_j} e - degree * e."""
    nv = component.num_vars
    d = nv // 2
    k = max(component.order - 1, 0)
    resid = (-degree) * component.truncated(k)
    for j in range(d):
        xi_j = Jet.coordinate(d + j, nv, k, component.base_point)
        resid = resid + xi_j * component.partial(d + j).truncated(k)
    return resid.max_abs()


def random_classical_symbol(
    n: int,
    order_m: float,
    num_components: int,
    seed: int,
    homogeneous: bool = True,
    order: int = SYMBOL_ORDER,
) -> ClassicalSymbol:
    """Reproducible pseudo-random classical symbol at ``order``; a lower order's draw is a prefix."""
    d = 2 * n + 1
    comps: List[Jet] = []
    for j in range(num_components):
        rng = spawn_rng(seed, "symbol", n, j, repr(order_m), homogeneous)
        if homogeneous:
            slice_jet = random_jet(rng, d + 2 * n, order, (0.0,) * (d + 2 * n), decay=0.4)
            comps.append(homogeneity_extend(slice_jet, order_m - j))
        else:
            comps.append(random_jet(rng, 2 * d, order, xi_base(n), decay=0.4))
    return ClassicalSymbol(order_m=order_m, components=tuple(comps), homogeneous=homogeneous)


# -- subprincipal symbol -------------------------------------------------------------


def subprincipal_symbol(sym: ClassicalSymbol, density: Jet, s: float) -> complex:
    """Subprincipal symbol with respect to a positive s-density, at the base
    covector:

    e_sub = e_1 + (i/2) sum_j d_{x_j} d_{xi_j} e_0
                + (i/(2s)) sum_j d_{xi_j} e_0 * d_{x_j} log(lambda),

    with d_{x_j} log(lambda)(0) = d_{x_j} lambda(0) / lambda(0) on the
    principal branch.
    """
    if s == 0:
        raise SymbolError("subprincipal symbol needs s != 0")
    e0 = sym.components[0]
    d = e0.num_vars // 2
    if density.num_vars != d:
        raise SymbolError("density must be a jet in the x variables")
    if e0.order < 2:
        raise OrderShortfallError("subprincipal symbol needs component order >= 2")
    lam0 = density.constant_term()
    if lam0.real <= 0:
        raise BranchError(f"subprincipal symbol: density value {lam0} not in the right half plane")
    out = sym.component(1).constant_term()
    for j in range(d):
        out = out + 0.5j * e0.derivative_at(j, d + j)
        dlog = density.derivative_at(j) * (1.0 / lam0)
        out = out + (0.5j / s) * (e0.derivative_at(d + j) * dlog)
    return out


# -- coordinate changes -----------------------------------------------------------------


def invert_map(kappa: Sequence[Jet]) -> List[Jet]:
    """Inverse of a jet map fixing 0 with invertible Jacobian."""
    d = len(kappa)
    order = kappa[0].order
    base = kappa[0].base_point
    for comp in kappa:
        if abs(comp.constant_term()) > 1e-12:
            raise SymbolError("invert_map: map must fix the origin")
    jac = np.array([[kappa[c].derivative_at(j) for j in range(d)] for c in range(d)])
    if abs(np.linalg.det(jac)) < 1e-12:
        raise SymbolError("invert_map: singular Jacobian at 0")
    ainv = np.linalg.inv(jac)

    def lin_solve(vecs: List[Jet]) -> List[Jet]:
        out = []
        for c in range(d):
            acc = Jet.zero(d, order, base)
            for j in range(d):
                acc = acc + vecs[j].scale(complex(ainv[c, j]))
            out.append(acc)
        return out

    coords = [Jet.displacement(i, d, order, base) for i in range(d)]
    nonlin = []
    for c in range(d):
        lin = Jet.zero(d, order, base)
        for j in range(d):
            lin = lin + coords[j].scale(complex(jac[c, j]))
        nonlin.append(kappa[c].shift_constant(-kappa[c].constant_term()) - lin)
    psi, nonlin = lin_solve(coords), Jet.stack(nonlin)
    for _ in range(order):
        nl_at = Substitution(psi).apply(nonlin).vector
        psi = lin_solve([coords[j] - coords[j]._like(nl_at[j]) for j in range(d)])
    return psi


def jet_matrix_determinant(mat: Sequence[Sequence[Jet]]) -> Jet:
    """Determinant of a small square matrix of jets (Laplace expansion)."""
    m = len(mat)
    if m == 1:
        return mat[0][0]
    first = mat[0][0]
    acc = Jet.zero(first.num_vars, first.order, first.base_point)
    for c in range(m):
        minor = [[mat[r][cc] for cc in range(m) if cc != c] for r in range(1, m)]
        term = mat[0][c] * jet_matrix_determinant(minor)
        acc = acc + term if c % 2 == 0 else acc - term
    return acc


def _inverse_at(inverse: Sequence[Jet], order: int) -> List[Jet]:
    """``inverse`` truncated to ``order``, which it must reach."""
    if inverse[0].order < order:
        raise SymbolError(f"inverse map has order {inverse[0].order} < {order}")
    return [g.truncated(order) for g in inverse]


def transform_density(density: Jet, kappa: Sequence[Jet], s: float, inverse: Sequence[Jet]) -> Jet:
    """Transported s-density factor: lambda_kappa(kappa(x)) = lambda(x)/|det kappa'|^s.

    ``inverse`` is invert_map(kappa) at the density's order or above, so a
    caller transporting a symbol too inverts kappa once.
    """
    d = len(kappa)
    order = density.order
    psi = _inverse_at(inverse, order)
    jac = [[kappa[c].with_order(order + 1).partial(j) for j in range(d)] for c in range(d)]
    det = jet_matrix_determinant(jac)
    det0 = det.constant_term()
    if abs(det0.imag) > 1e-12 or det0.real == 0:
        raise SymbolError("transform_density: need a real nonvanishing Jacobian determinant")
    absdet = det if det0.real > 0 else -1.0 * det
    lam_over = density * absdet.pow_real(-s)
    return lam_over.compose(psi)


def transform_symbol_under_diffeo(
    sym: ClassicalSymbol, kappa: Sequence[Jet], inverse: Sequence[Jet]
) -> ClassicalSymbol:
    """Total-symbol pushforward through subleading order.

    e_{kappa,0}(kappa(x), eta) = e_0(x, kappa'(x)^T eta) and the subleading
    component picks up the half-Hessian correction
    -(i/2) sum_{j,k} d^2_{xi_j xi_k} e_0 * <d^2_{jk} kappa, eta>.
    ``inverse`` is invert_map(kappa) at order >= the components' order - 2;
    it is truncated to that order.  Both orders of a mixed pair of partials
    scale a coefficient by the same two integers, which round alike when one
    is a power of two or both are equal, so below degree 6 (components of
    order <= 7) the (j, k) and (k, j) terms are equal bit for bit: each is
    formed once, for j <= k, and added again at (k, j).
    """
    e0 = sym.components[0]
    nv = e0.num_vars
    d = nv // 2
    if len(kappa) != d:
        raise SymbolError("kappa must have one component per x variable")
    if e0.order < 2:
        raise OrderShortfallError("transform needs component order >= 2")
    work = e0.order - 2

    jac0 = np.array([[kappa[c].derivative_at(j) for j in range(d)] for c in range(d)])
    if abs(np.linalg.det(jac0)) < 1e-12:
        raise SymbolError("transform: singular Jacobian at 0")
    old_xi = np.array(e0.base_point[d:])
    eta0 = np.linalg.solve(jac0.T, old_xi)
    new_base = tuple(0.0 for _ in range(d)) + tuple(complex(v) for v in eta0)

    # every x-jet read here (dx_i, d_j kappa_c, d_j d_k kappa_c for j <= k) moved to the (y, eta)
    # space in one batch, and each kappa_c term times eta_c in one batch product
    dk = [[g.with_order(work + 1).partial(j).with_order(work) for g in kappa] for j in range(d)]
    d2k = {(j, k): [g.with_order(work + 2).partial(j).partial(k).with_order(work) for g in kappa]
           for j in range(d) for k in range(j, d)}
    x_jets = [Jet.displacement(i, d, work, (0.0,) * d) for i in range(d)] + sum(dk + list(d2k.values()), [])
    at_psi = Substitution(_inverse_at(inverse, work))  # x(y), jets in y
    moved = promote_x_jet(at_psi.apply(Jet.stack(x_jets)), new_base, work).vector
    eta_coords = [Jet.coordinate(d + c, nv, work, new_base) for c in range(d)]
    paired = eta_coords[0]._like(moved[d:]) * Jet.stack(eta_coords * (len(x_jets) // d - 1))
    inner_x = [eta_coords[0]._like(row) for row in moved[:d]]
    paired = iter([eta_coords[0]._like(row) for row in paired.vector])
    inner_xi = []
    for j in range(d):
        acc = Jet.zero(nv, work, new_base)
        for c in range(d):
            acc = acc + next(paired)
        inner_xi.append(acc)
    d2k = {key: [(g, next(paired)) for g in jets] for key, jets in d2k.items()}
    at_inner = Substitution(inner_x + inner_xi)

    ek0 = at_inner.apply(e0.truncated(work).with_order(work))
    ek1 = at_inner.apply(sym.component(1).truncated(work))
    terms = {}  # (j, k) -> the half-Hessian term, or None where it vanishes
    for j in range(d):
        for k in range(d):
            if k < j:
                term = terms[k, j]
            else:
                term = terms[j, k] = None
                hess = e0.partial(d + j).partial(d + k).truncated(work)
                if hess.support.size:
                    pairing = Jet.zero(nv, work, new_base)
                    for g, moved_times_eta in d2k[j, k]:
                        if g.support.size:
                            pairing = pairing + moved_times_eta
                    if pairing.support.size:
                        term = terms[j, k] = (-0.5j) * (at_inner.apply(hess) * pairing)
            if term is not None:
                ek1 = ek1 + term
    standard = new_base == xi_base((d - 1) // 2)
    return ClassicalSymbol(
        order_m=sym.order_m,
        components=(ek0, ek1),
        homogeneous=False,
        at_standard_base=standard,
    )


# -- cotangent geometry -----------------------------------------------------------------


def hamiltonian_vector_field(F: Jet) -> List[Jet]:
    """Components [a_1..a_d, b_1..b_d] of X_F = sum a_j d/dx_j + b_j d/dxi_j."""
    nv = F.num_vars
    d = nv // 2
    k = max(F.order - 1, 0)
    return [(-1.0) * F.partial(d + j).truncated(k) for j in range(d)] + [
        F.partial(j).truncated(k) for j in range(d)
    ]


def divergence(vf: Sequence[Jet]) -> Jet:
    """Divergence with respect to the Liouville volume (coordinate formula)."""
    nv = vf[0].num_vars
    d = nv // 2
    k = max(vf[0].order - 1, 0)
    acc = Jet.zero(nv, k, vf[0].base_point)
    for j in range(d):
        acc = acc + vf[j].partial(j).truncated(k)
        acc = acc + vf[d + j].partial(d + j).truncated(k)
    return acc


def p_operator_canonical(F: Jet) -> complex:
    """P(F)(0,-omega_0(0)) = sum_j [d2_{x_{2j}, xi_{2j-1}} - d2_{x_{2j-1}, xi_{2j}}] F;
    of a stacked batch of fields, the per-row array."""
    nv = F.num_vars
    d = nv // 2
    n = (d - 1) // 2
    if F.order < 2:
        raise OrderShortfallError("p_operator_canonical needs order >= 2")
    total = 0.0 + 0.0j
    for j in range(n):
        total += F.derivative_at(2 * j + 1, d + 2 * j)
        total -= F.derivative_at(2 * j, d + 2 * j + 1)
    return total


def _p_geometry(chart: CRModelChart, base: Tuple[complex, ...]):
    """Chart-only data of ``p_operator_geometric`` at order 1.

    Returns (gam_xi, frame_p, coframe, hor_xi): gam_xi[(j, k, l)] = xi_k Gamma^l_{jk}
    lifted to (x, xi), the real frame X[r][l] over d/dx_l, its dual coframe
    W = (X^T)^{-1}, and hor_xi[r][l], the d/dxi_l coefficients of the
    horizontal lift of X_r (its d/dx_l coefficients are X[r][l]).  All come
    from one ``levi_frame`` solve at order 2 (Gamma needs one derivative of
    W), truncated to order 1 and lifted.
    """
    w = 1
    d = chart.dim
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

    # horizontal lift coefficients: X_r^Hor = sum_l X[r][l] d/dx_l^Hor
    hor_xi = []
    for r in range(d):
        vs = [Jet.zero(nv, w, base) for _ in range(d)]
        for (j, k, l), gx in gam_xi.items():
            vs[l] = vs[l] - frame_p[r][j] * gx
        hor_xi.append(vs)
    return gam_xi, frame_p, coframe, hor_xi


def p_operator_geometric(chart: CRModelChart, F: Jet) -> complex:
    """P(F) = -(1/2) Div(J_{T*X} X_F) evaluated at (0, -omega_0(0)).

    Assembled from the horizontal lifts of the model connection, the lifted
    complex structure and the Hamiltonian field; supported on the exact
    Heisenberg chart, where the lift frames are exact.  The divergence at
    the base point reads the fields' degree-1 coefficients, so the fields
    are formed at order 1 from F truncated to order 2.  A stacked batch of
    fields (``Jet.stack``) gives the per-row array, each row bit for bit
    its field's own value.
    """
    if not chart.is_exact_heisenberg:
        raise ChartError("p_operator_geometric supports only the exact Heisenberg chart")
    n, d = chart.n, chart.dim
    nv = 2 * d
    if F.num_vars != nv:
        raise SymbolError(f"F must be a jet in {nv} variables")
    if F.order < 2:
        raise OrderShortfallError("p_operator_geometric needs order >= 2")
    base = F.base_point
    w = 1
    gam_xi, frame_p, coframe, hor_xi = _p_geometry(chart, base)

    comps = hamiltonian_vector_field(F.truncated(2))
    a = comps[:d]
    b = comps[d:]

    # vertical remainder after subtracting the horizontal lift of the pushdown
    bhat = list(b)
    for (j, k, l), gx in gam_xi.items():
        bhat[l] = bhat[l] + a[j] * gx

    # pushdown split over the real frame, sum_r alpha_r X_r = sum_l a_l d/dx_l,
    # and vertical part over the coframe, sum_r beta_r omega^r = sum_l bhat_l dxi_l
    alpha = [_jet_dot(coframe[r], a) for r in range(d)]
    beta = [_jet_dot(frame_p[r], bhat) for r in range(d)]

    out_x = [Jet.zero(nv, w, base) for _ in range(d)]
    out_xi = [Jet.zero(nv, w, base) for _ in range(d)]

    # J on the horizontal Levi part: X_{2j} -> X_{2j+1}, X_{2j+1} -> -X_{2j}
    for j in range(n):
        for coeff, target in ((alpha[2 * j], 2 * j + 1), (-1.0 * alpha[2 * j + 1], 2 * j)):
            for l in range(d):
                out_x[l] = out_x[l] + coeff * frame_p[target][l]
                out_xi[l] = out_xi[l] + coeff * hor_xi[target][l]

    # minus J on the vertical Levi part: omega^{2j} -> omega^{2j+1}, omega^{2j+1} -> -omega^{2j}
    for j in range(n):
        for coeff, target in ((beta[2 * j], 2 * j + 1), (-1.0 * beta[2 * j + 1], 2 * j)):
            for l in range(d):
                out_xi[l] = out_xi[l] + coeff * coframe[target][l]

    value = divergence(out_x + out_xi).constant_term()
    if F.rows is None:
        return -0.5 * value
    return np.array([-0.5 * v for v in value.tolist()], dtype=complex)  # rounded as a single F's


def _jet_dot(row: Sequence[Jet], vec: Sequence[Jet]) -> Jet:
    """sum_l row[l] * vec[l]."""
    acc = row[0] * vec[0]
    for r, v in zip(row[1:], vec[1:]):
        acc = acc + r * v
    return acc
