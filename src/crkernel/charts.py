"""Canonical-coordinate CR model charts and their pseudohermitian geometry.

The exact Heisenberg chart carries the model contact form, frame, Reeb field,
unit volume density and the explicit prepared phase, all as jets.  Its
Tanaka-Webster scalar curvature is 0: the model's frame Z_j is parallel for
the Tanaka-Webster connection, which is therefore flat (Webster, J.
Differential Geom. 13, 1978).  Curvature is exercised synthetically: a
perturbed chart injects a quadratic part into the density and a
diagonal-vanishing quartic into the phase, tied to a stored scalar-curvature
value by the consistency identity

    -(1/32) * Lap^2 h1(0) + (i/4) * Lap lambda(0) = -(i/2) * R,

where Lap sums second derivatives over the first 2n coordinates.  That
identity is validated at construction and is what makes the two coefficient
routes downstream agree on perturbed charts.  The quartic is a table of
monomial coefficients, its products of linear forms expanded exactly, and
Lap^2 h1(0) is read from the table's entries; neither forms a jet product.

Index conventions (0-based throughout):
  * x-space jets have 2n+1 variables, base 0; the distinguished coordinate is
    x_{2n} (the contact direction), and z_j = x_{2j} + i x_{2j+1}.
  * (x,y)-space jets have 2(2n+1) variables at (0,0); y_k is variable
    (2n+1) + k.  The prepared phase is linear in the last y variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ChartError, OrderShortfallError
from .jets import Jet, MultiIndex, batch_products, gauss_solve, linear_combinations
from .rng import spawn_rng

SQRT2 = math.sqrt(2.0)

#: relative tolerance for a perturbed phase's vanishing on the diagonal,
#: against its largest coefficient (or 1)
INVARIANT_TOL = 1e-12

#: tolerance for the curvature consistency identity
CONSISTENCY_TOL = 1e-10

#: jet order of every chart: the phase's fourth derivatives, which the
#: subleading coefficient reads, are the highest degree any route needs
CHART_ORDER = 4


@dataclass(frozen=True)
class CRModelChart:
    """Canonical-coordinate model of a strictly pseudoconvex CR chart."""

    n: int
    contact_form: Tuple[Jet, ...]          # components of omega_0 over dx_b
    frame: Tuple[Tuple[Jet, ...], ...]     # Z_j coefficients over d/dx_b
    reeb: Tuple[Jet, ...]                  # Reeb field coefficients over d/dx_b
    volume_density: Jet                    # lambda(x)
    synthetic_R: float
    phase: Jet                             # prepared phase in (x, y) at (0, 0)
    is_exact_heisenberg: bool

    @property
    def dim(self) -> int:
        return 2 * self.n + 1


# -- model data builders -----------------------------------------------------------


def contact_form_jets(n: int) -> Tuple[Jet, ...]:
    """omega_0 = dx_{2n} + sum_j (x_{2j+1} dx_{2j} - x_{2j} dx_{2j+1}), exactly."""
    d, order = 2 * n + 1, CHART_ORDER
    comps: List[Jet] = []
    for b in range(d):
        if b == 2 * n:
            comps.append(Jet.constant(d, order, (0,) * d, 1.0))
        elif b % 2 == 0:
            comps.append(Jet.displacement(b + 1, d, order, (0,) * d))
        else:
            comps.append(-1.0 * Jet.displacement(b - 1, d, order, (0,) * d))
    return tuple(comps)


def frame_jets(n: int) -> Tuple[Tuple[Jet, ...], ...]:
    """Z_j = sqrt2 (d/dz_j - (i/2) zbar_j d/dx_{2n}) as coefficient jets."""
    d, order = 2 * n + 1, CHART_ORDER
    base = (0,) * d
    rows: List[Tuple[Jet, ...]] = []
    for j in range(n):
        coeffs = [Jet.zero(d, order, base) for _ in range(d)]
        coeffs[2 * j] = Jet.constant(d, order, base, SQRT2 / 2)
        coeffs[2 * j + 1] = Jet.constant(d, order, base, -1j * SQRT2 / 2)
        last = (-1j * SQRT2 / 2) * Jet.displacement(2 * j, d, order, base) + (
            -SQRT2 / 2
        ) * Jet.displacement(2 * j + 1, d, order, base)
        coeffs[2 * n] = last
        rows.append(tuple(coeffs))
    return tuple(rows)


def reeb_jets(n: int) -> Tuple[Jet, ...]:
    d, order = 2 * n + 1, CHART_ORDER
    base = (0,) * d
    comps = [Jet.zero(d, order, base) for _ in range(d)]
    comps[2 * n] = Jet.constant(d, order, base, -1.0)
    return tuple(comps)


def heisenberg_phase_jet(n: int) -> Jet:
    """phi(x,y) = -x_{2n} + y_{2n} + (i/2) sum_j (|z_j|^2 + |w_j|^2 - 2 z_j wbar_j)."""
    d = 2 * n + 1
    nv = 2 * d
    coeffs: Dict[MultiIndex, complex] = {}

    def bump(*pairs):
        idx = [0] * nv
        for pos, e in pairs:
            idx[pos] += e
        return tuple(idx)

    coeffs[bump((2 * n, 1))] = -1.0
    coeffs[bump((d + 2 * n, 1))] = 1.0
    for j in range(n):
        xr, xi = 2 * j, 2 * j + 1
        yr, yi = d + 2 * j, d + 2 * j + 1
        for v in (xr, xi, yr, yi):
            coeffs[bump((v, 2))] = 0.5j
        coeffs[bump((xr, 1), (yr, 1))] = -1.0j
        coeffs[bump((xi, 1), (yi, 1))] = -1.0j
        coeffs[bump((xi, 1), (yr, 1))] = 1.0
        coeffs[bump((xr, 1), (yi, 1))] = -1.0
    return Jet(nv, CHART_ORDER, (0,) * nv, coeffs)


# -- chart constructors ------------------------------------------------------------------


def heisenberg_chart(n: int) -> CRModelChart:
    """The exact Heisenberg model chart (all remainders identically zero)."""
    if n < 1:
        raise ChartError("CR dimension parameter n must be >= 1")
    d = 2 * n + 1
    return CRModelChart(
        n=n,
        contact_form=contact_form_jets(n),
        frame=frame_jets(n),
        reeb=reeb_jets(n),
        volume_density=Jet.constant(d, CHART_ORDER, (0,) * d, 1.0),
        synthetic_R=0.0,
        phase=heisenberg_phase_jet(n),
        is_exact_heisenberg=True,
    )


def quartic_channel_value(phase_quartic: Dict[MultiIndex, complex], n: int) -> complex:
    """Lap^2 [psi(0,u) + psi(u,0)](0) for a quartic perturbation table, read from
    its pure-y and pure-x u_a^2 u_b^2 entries y and x: per (a, b), (+0 + y) + (+0 + x),
    as the two restrictions' jets hold it, times the derivative's 2! 2! (4! if a = b)."""
    d = 2 * n + 1
    total = 0.0 + 0.0j
    for a in range(2 * n):
        for b in range(2 * n):
            u = tuple((k == a) * 2 + (k == b) * 2 for k in range(d))
            y, x = (complex(phase_quartic.get(idx, 0.0)) for idx in ((0,) * d + u, u + (0,) * d))
            s = complex(0.0 + y.real, 0.0 + y.imag) + complex(0.0 + x.real, 0.0 + x.imag)
            total += s * (24.0 if a == b else 4.0)
    return total


def density_channel_value(lambda_quadratic: np.ndarray, n: int) -> complex:
    """Lap lambda(0) for lambda = 1 + x^T Q x / 2."""
    Q = np.asarray(lambda_quadratic)
    return complex(np.trace(Q[: 2 * n, : 2 * n]))


def perturbed_chart(
    base: CRModelChart,
    R_synth: float,
    lambda_quadratic: Optional[np.ndarray] = None,
    phase_quartic: Optional[Dict[MultiIndex, complex]] = None,
) -> CRModelChart:
    """Inject synthetic curvature through the density and phase channels.

    lambda gains the quadratic form x^T Q x / 2, the phase gains the given
    quartic in (x, y'), and the curvature consistency identity tying both
    channels to R_synth is validated; violation raises ChartError.  Both
    are built at CHART_ORDER, which holds the whole quartic.  Only what the
    chart adds is validated: the inputs, the identity, and the quartic's
    vanishing on the diagonal.  The contact form, frame, Reeb field and base
    phase are the base chart's.
    """
    if not base.is_exact_heisenberg:
        raise ChartError("perturbed_chart requires the exact Heisenberg base chart")
    n, d = base.n, base.dim
    Q = np.zeros((d, d)) if lambda_quadratic is None else np.asarray(lambda_quadratic, dtype=float)
    if Q.shape != (d, d) or not np.allclose(Q, Q.T, atol=1e-13):
        raise ChartError("lambda_quadratic must be a symmetric (2n+1) x (2n+1) matrix")
    table = dict(phase_quartic or {})
    nv = 2 * d
    for idx in table:
        if len(idx) != nv or sum(idx) != 4:
            raise ChartError(f"phase_quartic key {idx} is not a quartic (x,y) multi-index")
        if idx[nv - 1] != 0:
            raise ChartError("phase_quartic must not involve the last y variable")

    lap2_h1 = quartic_channel_value(table, n)
    lap_lam = density_channel_value(Q, n)
    resid = -lap2_h1 / 32.0 + 0.25j * lap_lam + 0.5j * R_synth
    if not abs(resid) <= CONSISTENCY_TOL:  # a NaN residual fails too
        raise ChartError(
            f"curvature consistency identity violated (residual {abs(resid):.3e}): "
            "-(1/32) Lap^2 h1(0) + (i/4) Lap lambda(0) must equal -(i/2) R"
        )

    if not table and not np.any(Q):
        return base  # nothing injected; R_synth validated to be 0 above

    lam_coeffs: Dict[MultiIndex, complex] = {(0,) * d: 1.0}
    for a in range(d):
        for b in range(a, d):
            val = Q[a, a] / 2.0 if a == b else Q[a, b]
            if val != 0:
                idx = [0] * d
                idx[a] += 1
                idx[b] += 1
                lam_coeffs[tuple(idx)] = lam_coeffs.get(tuple(idx), 0.0) + val
    lam = Jet(d, CHART_ORDER, (0,) * d, lam_coeffs)
    psi = Jet(nv, CHART_ORDER, (0,) * nv, table)
    # the base phase vanishes on the diagonal exactly, so psi(x, x) must too
    diagonal = psi.reindex(d, [*range(d), *range(d)], (0.0,) * d)
    if diagonal.max_abs() > INVARIANT_TOL * max(psi.max_abs(), 1.0):
        raise ChartError("phase: does not vanish on the diagonal")
    return CRModelChart(
        n=n,
        contact_form=base.contact_form,
        frame=base.frame,
        reeb=base.reeb,
        volume_density=lam,
        synthetic_R=float(R_synth),
        phase=base.phase + psi,
        is_exact_heisenberg=False,
    )


def random_perturbation(
    n: int, R_synth: float, seed: int
) -> Tuple[np.ndarray, Dict[MultiIndex, complex]]:
    """Seeded (lambda_quadratic, phase_quartic) pair satisfying the identity.

    Curvature is split randomly between the density channel and the phase
    channel; extra diagonal-vanishing quartic terms are added for variety and
    the last quartic coefficient is calibrated to land the identity exactly.
    Each quartic term, a product of four linear forms with +-1 coefficients,
    is expanded exactly over its monomials, and the identity is read from the
    table (``quartic_channel_value``).
    """
    rng = spawn_rng(seed, "perturbation", n, repr(R_synth))
    d = 2 * n + 1
    nv = 2 * d
    weight = float(rng.uniform(0.2, 0.8))

    Q = 0.05 * rng.standard_normal((d, d))
    Q = (Q + Q.T) / 2.0
    target_trace = -2.0 * weight * R_synth
    shift = (target_trace - float(np.trace(Q[: 2 * n, : 2 * n]))) / (2 * n)
    for a in range(2 * n):
        Q[a, a] += shift

    diff = [((d + a, 1), (a, -1)) for a in range(2 * n)]  # y_a - x_a as (variable, sign) terms

    def expand(forms) -> List[Tuple[MultiIndex, complex]]:
        """The nonzero monomial coefficients of a product of linear forms, in graded order."""
        coeffs: Dict[MultiIndex, int] = {(0,) * nv: 1}
        for form in forms:
            product: Dict[MultiIndex, int] = {}
            for idx, c in coeffs.items():
                for var, sign in form:
                    key = idx[:var] + (idx[var] + 1,) + idx[var + 1 :]
                    product[key] = product.get(key, 0) + c * sign
            coeffs = product
        return [(idx, complex(c)) for idx, c in sorted(coeffs.items()) if c]

    table: Dict[MultiIndex, complex] = {}
    for _ in range(4):
        forms = [diff[int(rng.integers(0, 2 * n))]]
        for _ in range(3):
            kind = rng.integers(0, 3)
            if kind == 0:
                forms.append(diff[int(rng.integers(0, 2 * n))])
            elif kind == 1:
                forms.append(((int(rng.integers(0, d)), 1),))          # any x
            else:
                forms.append(((d + int(rng.integers(0, 2 * n)), 1),))  # y'
        coeff = 0.2 * (rng.standard_normal() + 1j * rng.standard_normal())
        for idx, c in expand(forms):
            table[idx] = table.get(idx, 0.0) + coeff * c

    current = quartic_channel_value(table, n)
    target = 16j * (1.0 - weight) * R_synth
    # Lap^2 of 2 c u_0^4 at 0 is 48 c
    ccal = (target - current) / 48.0
    for idx, c in expand([diff[0]] * 4):
        table[idx] = table.get(idx, 0.0) + ccal * c
    table = {idx: c for idx, c in table.items() if c != 0}
    return Q, table


# -- pointwise geometric operators -------------------------------------------------------


def kohn_laplacian_at0(chart: CRModelChart, f: Jet) -> complex:
    """box_b f(0) = -(1/2) sum_{j<2n} d^2 f / dx_j^2 (0) - i n df/dx_{2n}(0),
    the Kohn Laplacian -sum_j Z_j Zbar_j at the base point of a jet in x."""
    n, d = chart.n, chart.dim
    if f.num_vars != d:
        raise OrderShortfallError(f"kohn_laplacian_at0: expected a jet in {d} variables")
    if f.order < 2:
        raise OrderShortfallError("kohn_laplacian_at0: jet order must be >= 2")
    total = 0.0 + 0.0j
    for j in range(2 * n):
        total += -0.5 * f.derivative_at(j, j)
    total += -1j * n * f.derivative_at(2 * n)
    return total


def reeb_derivative_at0(chart: CRModelChart, f: Jet) -> complex:
    """T f(0) with T = -d/dx_{2n} at the base point."""
    d = chart.dim
    if f.num_vars != d:
        raise OrderShortfallError(f"reeb_derivative_at0: expected a jet in {d} variables")
    if f.order < 1:
        raise OrderShortfallError("reeb_derivative_at0: jet order must be >= 1")
    return -f.derivative_at(d - 1)


# -- Levi frame and its connection -------------------------------------------------------


def _solve_jet_linear(amat: Sequence[Sequence[Jet]], rhs: Sequence[Jet]) -> List[Jet]:
    """Solve A(x) v(x) = rhs(x) at jet level (A(0) invertible): each pass fixes
    one more degree, and a pass that returns its input bit for bit (bytes, so
    that -0.0 -> +0.0 is a change) ends the solve, as every later pass would.
    Right-hand sides may be batches, one system per row.  A pass forms its
    products as one batch, none with an empty-support factor, and scales by
    no zero of A(0)^-1 (the ``jets`` zero-term rule)."""
    m = len(rhs)
    order = rhs[0].order
    a0 = np.array([[amat[r][c].constant_term() for c in range(m)] for r in range(m)])
    a0inv, _ = gauss_solve(a0)
    if a0inv is None:
        raise ChartError("jet solve: A(0) is singular")
    nil = [[amat[r][c].shift_constant(-a0[r, c]) for c in range(m)] for r in range(m)]
    sol = [rhs[0]._like(np.zeros_like(rhs[0].vector))] * m
    for _ in range(order + 1):
        resid = list(rhs)
        live = [(r, c) for r in range(m) for c in range(m) if nil[r][c].support.size and sol[c].support.size]
        for (r, c), product in zip(live, batch_products([(nil[r][c], sol[c]) for r, c in live])):
            resid[r] = resid[r] - product
        new_sol = linear_combinations(a0inv, resid)
        if all(new.vector.tobytes() == old.vector.tobytes() for new, old in zip(new_sol, sol)):
            break
        sol = new_sol
    return sol


def levi_frame(chart: CRModelChart, order: int) -> Tuple[List[List[Jet]], List[List[Jet]]]:
    """The chart's real frame X and its dual coframe W as jets in x at ``order``.

    X[r][b] are the d/dx_b coefficients of X_{2j} = (Z_j + Zbar_j)/sqrt2,
    X_{2j+1} = (i Z_j + conj(i Z_j))/sqrt2 and X_{2n} = -T; W[a][b] are the dx_b
    coefficients of omega^a, solved from sum_b W[a][b] X[r][b] = delta_{ar}.
    """
    n, d = chart.n, chart.dim
    frame: List[List[Jet]] = []
    for j in range(n):
        zj = [chart.frame[j][b].with_order(order) for b in range(d)]
        frame.append([(z + z.conjugate()).scale(1 / SQRT2) for z in zj])
        frame.append([((1j * z) + (1j * z).conjugate()).scale(1 / SQRT2) for z in zj])
    frame.append([-1.0 * chart.reeb[b].with_order(order) for b in range(d)])
    eye = np.zeros((d, d, frame[0][0].vector.size), dtype=complex)
    eye[range(d), range(d), 0] = 1.0  # row a of right-hand side r is the constant delta_{ar}
    coframe = _solve_jet_linear(frame, [frame[0][0]._like(rows) for rows in eye])
    return frame, [[w._like(w.vector[a]) for w in coframe] for a in range(d)]


def christoffel_symbols(
    frame: Sequence[Sequence[Jet]], coframe: Sequence[Sequence[Jet]]
) -> Dict[Tuple[int, int, int], Jet]:
    """Christoffel symbols {(j, k, l): Gamma^l_{jk}} of the connection that keeps
    the frame X parallel, with nabla_{d/dx_j} dx_k = sum_l Gamma^l_{jk} dx_l, so
    Gamma^l_{jk} = -sum_a d_j W[a][l] X[a][k] for the coframe W; one order below
    X, 0-based indices."""
    d, first = len(frame), frame[0][0]
    out_order = max(first.order - 1, 0)
    zero = Jet.zero(first.num_vars, out_order, first.base_point)
    low = [[f.truncated(out_order) for f in row] for row in frame]
    flat = Jet.stack([w for row in coframe for w in row])  # row a d + l is W[a][l]
    ders = [flat.partial(j).vector for j in range(d)]
    # nabla_{d/dx_j} d/dx_l = sum_a d_j(W[a][l]) X_a, over d/dx_k: one batch product, zero terms skipped
    terms = [((j, l, k), zero._like(ders[j][a * d + l]), low[a][k]) for j in range(d) for l in range(d)
             for a in range(d) if ders[j][a * d + l].any() for k in range(d) if low[a][k].support.size]
    lifted = {}
    for (slot, _, _), product in zip(terms, batch_products([t[1:] for t in terms])):
        lifted[slot] = lifted.get(slot, zero) + product
    minus_zero = -1.0 * zero  # the negated empty sum, which holds only +0
    negated = lambda g: -1.0 * g if g.support.size else minus_zero
    return {(j, k, l): negated(lifted.get((j, l, k), zero)) for j in range(d) for k in range(d) for l in range(d)}


def christoffel_at(chart: CRModelChart) -> Dict[Tuple[int, int, int], Jet]:
    """christoffel_symbols of levi_frame at CHART_ORDER."""
    return christoffel_symbols(*levi_frame(chart, CHART_ORDER))


def tw_scalar_curvature(chart: CRModelChart) -> float:
    """Scalar curvature at the base point: the chart's stored value, 0 on the
    exact model and R_synth on a perturbed chart (see the module docstring)."""
    return chart.synthetic_R

