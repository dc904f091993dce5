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
from itertools import combinations
from typing import List, Sequence, Tuple

import numpy as np

from .charts import CRModelChart, christoffel_symbols, levi_frame
from .errors import BranchError, ChartError, OrderShortfallError, SymbolError
from .jets import Jet, Substitution, batch_products, gauss_solve, linear_combinations, random_jet
from .rng import spawn_rng


#: default jet order of a symbol; the subprincipal-invariance density and map
#: draws keep it, because they share one seed stream with the draws after them
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
    """Inverse of a jet map fixing 0 with invertible Jacobian; no zero entry of
    kappa'(0) or its inverse scales a term (the ``jets`` zero-term rule)."""
    d = len(kappa)
    order = kappa[0].order
    base = kappa[0].base_point
    for comp in kappa:
        if abs(comp.constant_term()) > 1e-12:
            raise SymbolError("invert_map: map must fix the origin")
    jac = np.array([[kappa[c].derivative_at(j) for j in range(d)] for c in range(d)])
    ainv, det = gauss_solve(jac)
    if abs(det) < 1e-12:
        raise SymbolError("invert_map: singular Jacobian at 0")
    coords = [Jet.displacement(i, d, order, base) for i in range(d)]
    lin = linear_combinations(jac, coords)
    nonlin = Jet.stack([kappa[c].shift_constant(-kappa[c].constant_term()) - lin[c] for c in range(d)])
    psi = linear_combinations(ainv, coords)
    for _ in range(order):
        nl_at = Substitution(psi).apply(nonlin).vector
        psi = linear_combinations(ainv, [coords[j] - coords[j]._like(nl_at[j]) for j in range(d)])
    return psi


def jet_matrix_determinant(mat: Sequence[Sequence[Jet]]) -> Jet:
    """Determinant of a small square matrix of jets by Laplace expansion along
    the first row, each minor (the last k rows on k columns) formed once from
    the smaller ones: an m x m matrix takes m 2^(m-1) - m product rows, not about
    m!, one batch product per minor size, each minor adding its signed rows from +0."""
    m, first = len(mat), mat[0][0]
    rank = np.zeros(1 << m, dtype=np.intp)  # column set (as a bit mask) -> its minor's row
    rank[1 << np.arange(m)] = np.arange(m)
    minors = np.stack([g.vector for g in mat[m - 1]])
    for k in range(2, m + 1):
        cols = np.array(list(combinations(range(m), k)))
        bits = 1 << cols
        below = rank[bits.sum(axis=1, keepdims=True) - bits]  # the minor without each column
        top = np.stack([g.vector for g in mat[m - k]])
        terms = first._like(top[cols.ravel()]) * first._like(minors[below.ravel()])
        terms = terms.vector.reshape(len(cols), k, -1)
        minors = np.zeros_like(terms[:, 0])
        for i in range(k):
            minors = minors + terms[:, i] if i % 2 == 0 else minors - terms[:, i]
        rank[bits.sum(axis=1)] = np.arange(len(cols))
    return first._like(minors[0])


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
    kap = Jet.stack([g.with_order(order + 1) for g in kappa])
    columns = [kap.partial(j) for j in range(d)]
    det = jet_matrix_determinant([[col._like(col.vector[c]) for col in columns] for c in range(d)])
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

    Batches, each row bit for bit its single jet: one stack of kappa gives its partials,
    one substitution moves every x-jet, one more e_0, e_1 and the nonzero half-Hessians,
    and their terms are one batch product, added to e_1 in (j, k) order.
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
    eta0, det = gauss_solve(jac0.T, e0.base_point[d:])
    if abs(det) < 1e-12:
        raise SymbolError("transform: singular Jacobian at 0")
    new_base = tuple(0.0 for _ in range(d)) + tuple(complex(v) for v in eta0)

    # every x-jet read here, as rows: dx_i, d_j kappa_c (j-major), d_j d_k kappa_c (j <= k)
    kap = Jet.stack([g.with_order(work + 2) for g in kappa])
    dk = [kap.partial(j) for j in range(d)]
    pairs = [(j, k) for j in range(d) for k in range(j, d)]
    disp = Jet.stack([Jet.displacement(i, d, work, (0.0,) * d) for i in range(d)])
    rows = [disp] + [g.truncated(work) for g in dk] + [dk[j].partial(k) for j, k in pairs]
    at_psi = Substitution(_inverse_at(inverse, work))  # x(y), jets in y
    moved = at_psi.apply(disp._like(np.concatenate([g.vector for g in rows])))
    moved = promote_x_jet(moved, new_base, work).vector
    # each kappa_c term times eta_c, summed over c: inner_xi (first d rows), then the pairings
    eta = np.stack([Jet.coordinate(d + c, nv, work, new_base).vector for c in range(d)])
    like = Jet.zero(nv, work, new_base)._like
    paired = (like(moved[d:]) * like(np.tile(eta, (len(moved) // d - 1, 1)))).vector
    sums = np.zeros_like(paired[::d])
    for c in range(d):
        sums = sums + paired[c::d]
    at_inner = Substitution([like(row) for row in moved[:d]] + [like(row) for row in sums[:d]])

    e0_xi = [e0.partial(d + j) for j in range(d)]
    hess = [e0_xi[j].partial(d + k).truncated(work) for j, k in pairs]
    live = [i for i, h in enumerate(hess) if h.support.size and sums[d + i].any()]
    stack = [e0.truncated(work), sym.component(1).truncated(work)] + [hess[i] for i in live]
    moved = at_inner.apply(Jet.stack(stack)).vector
    terms = (-0.5j) * (like(moved[2:]) * like(sums[d:][live]))
    terms = dict(zip([pairs[i] for i in live], terms.vector))
    ek1 = moved[1]
    for j in range(d):
        for k in range(d):
            term = terms.get((j, k) if j <= k else (k, j))
            if term is not None:
                ek1 = ek1 + term
    standard = new_base == xi_base((d - 1) // 2)
    return ClassicalSymbol(
        order_m=sym.order_m,
        components=(like(moved[0]), like(ek1)),
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
    W), truncated to order 1 and lifted as one batch.
    """
    w = 1
    d = chart.dim
    nv = 2 * d
    xi_jets = [Jet.coordinate(d + k, nv, w, base) for k in range(d)]
    frame, coframe = levi_frame(chart, w + 1)
    gammas = {key: g for key, g in christoffel_symbols(frame, coframe).items() if g.support.size}
    flat = [f for row in frame + coframe for f in row] + list(gammas.values())
    lifted = promote_x_jet(Jet.stack([f.with_order(w) for f in flat]), base, w)
    lifted = [lifted._like(row) for row in lifted.vector]
    frame_p, coframe = ([lifted[(s + r) * d : (s + r + 1) * d] for r in range(d)] for s in (0, d))
    gam_xi = [(xi_jets[k], g) for (_, k, _), g in zip(gammas, lifted[2 * d * d :])]
    gam_xi = dict(zip(gammas, batch_products(gam_xi)))

    # horizontal lift coefficients: X_r^Hor = sum_l X[r][l] d/dx_l^Hor
    terms = [(r, l, frame_p[r][j], gx) for r in range(d) for (j, _, l), gx in gam_xi.items()]
    terms = [t for t in terms if t[2].support.size]
    hor_xi = [[Jet.zero(nv, w, base)] * d for _ in range(d)]
    for (r, l, _, _), product in zip(terms, batch_products([t[2:] for t in terms])):
        hor_xi[r][l] = hor_xi[r][l] - product
    return gam_xi, frame_p, coframe, hor_xi


def _add_products(out: List[Jet], terms) -> List[Jet]:
    """out[slot] + a * b for each (slot, a, b) of ``terms`` in order, as one ``batch_products``."""
    for (slot, _, _), product in zip(terms, batch_products([(a, b) for _, a, b in terms])):
        out[slot] = out[slot] + product
    return out


def p_operator_geometric(chart: CRModelChart, F: Jet) -> complex:
    """P(F) = -(1/2) Div(J_{T*X} X_F) evaluated at (0, -omega_0(0)).

    Assembled from the horizontal lifts of the model connection, the lifted
    complex structure and the Hamiltonian field; supported on the exact
    Heisenberg chart, where the lift frames are exact.  The divergence at
    the base point reads the fields' degree-1 coefficients, so the fields
    are formed at order 1 from F truncated to order 2.  A stacked batch of
    fields (``Jet.stack``) gives the per-row array, each row bit for bit
    its field's own value.  Each of the three stages below is one batch
    product with no empty-support frame, coframe or lift entry (the ``jets``
    zero-term rule); a product never holds -0, so +0 + p is p.
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
    zero = Jet.zero(nv, w, base)

    comps = hamiltonian_vector_field(F.truncated(2))
    a = comps[:d]

    # vertical remainder after subtracting the horizontal lift of the pushdown (bhat),
    # and the pushdown split over the real frame, sum_r alpha_r X_r = sum_l a_l d/dx_l
    terms = [(l, a[j], gx) for (j, k, l), gx in gam_xi.items()]
    terms += [(d + r, coframe[r][l], a[l]) for r in range(d) for l in range(d) if coframe[r][l].support.size]
    bhat = _add_products(comps[d:] + [zero] * d, terms)  # bhat_l, then alpha_r at slot d + r
    alpha = bhat[d:]
    # vertical part over the coframe, sum_r beta_r omega^r = sum_l bhat_l dxi_l
    terms = [(r, frame_p[r][l], bhat[l]) for r in range(d) for l in range(d)]
    beta = _add_products([zero] * d, [t for t in terms if t[1].support.size])

    # J on the horizontal Levi part: X_{2j} -> X_{2j+1}, X_{2j+1} -> -X_{2j}, into the
    # d/dx_l (slot l) and d/dxi_l (slot d + l) components
    terms = []
    for j in range(n):
        for coeff, target in ((alpha[2 * j], 2 * j + 1), (-1.0 * alpha[2 * j + 1], 2 * j)):
            for l in range(d):
                terms += [(l, coeff, frame_p[target][l]), (d + l, coeff, hor_xi[target][l])]
    # minus J on the vertical Levi part: omega^{2j} -> omega^{2j+1}, omega^{2j+1} -> -omega^{2j}
    for j in range(n):
        for coeff, target in ((beta[2 * j], 2 * j + 1), (-1.0 * beta[2 * j + 1], 2 * j)):
            terms += [(d + l, coeff, coframe[target][l]) for l in range(d)]
    out = _add_products([zero] * (2 * d), [t for t in terms if t[2].support.size])

    value = divergence(out).constant_term()
    if F.rows is None:
        return -0.5 * value
    return np.array([-0.5 * v for v in value.tolist()], dtype=complex)  # rounded as a single F's
