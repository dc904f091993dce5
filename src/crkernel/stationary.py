"""Stationary-phase coefficient engine.

For I(t) = t * int int exp(i t Psi0(u, sigma)) Gamma(u, sigma, t) du dsigma
with a nondegenerate critical point at (u, sigma) = (0, 1), the first two
expansion coefficients come from the inverse-Hessian operator

    <Psi0''(0,1)^{-1} D, D>,   D = -i (d_u, d_sigma),

through the operator

    L_1 v = i^{-1} sum_{mu=0}^{2} <.,.>^{mu+1} (h^mu v)(0,1)
                                   / (mu! (mu+1)! 2^{mu+1}),

where h is the cubic-and-higher remainder of Psi0 (the j = 1 operator of
Hoermander, The Analysis of Linear PDO I, Thm 7.7.5).  L_1 is linear in v
and, because h starts at degree 3, reads only v's coefficients of degree
<= 2, so it is applied as one dot product with a coefficient functional K_1,
built with the phase data from Gaussian contractions of h and h^2.  A
quadrature oracle (Gaussian and Fourier sums on the positive half of trapezoidal rules,
which converge geometrically as the cutoff is below 1e-17 at the box edge, Trefethen &
Weideman 2014) cross-checks the formal coefficients on the exact Heisenberg phase, its
Fourier axis summed at the s nodes >= 0 and mirrored; it subtracts its tail with the
closed-form coefficients of that phase, fed the amplitude's terms and the cutoff's
degree-8 terms without a jet product, so it reads none of the L_1 code.

Jets here live in the variables (u_1..u_{2n+1}, sigma-1) based at 0, so the
critical point is the jet base point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .charts import CHART_ORDER, CRModelChart
from .errors import BranchError, ChartError, HessianError, OracleFitError, OrderShortfallError
from .jets import Jet, _basis, _scatter_sum, gauss_solve

#: gradient tolerance for accepting (0, 1) as the critical point
CRITICAL_TOL = 1e-12


@dataclass(frozen=True)
class PhaseCriticalData:
    """Everything the L_1 operator needs about Psi0 at its critical point."""

    n: int
    psi0: Jet
    hessian: np.ndarray
    h: Jet
    det_normalized: complex   # det(Psi0''(0,1) / (2 pi i))
    sqrt_det: complex         # branch-checked square root of det_normalized
    q: Jet                    # q(xi) = <Psi0''^{-1} xi, xi>, the symbol of <Psi0''^{-1} D, D>
    l1: np.ndarray            # K_1 of _l1_functional, with L_1 v = <K_1, v>

    @property
    def num_vars(self) -> int:
        return 2 * self.n + 2


@dataclass(frozen=True)
class HessianAlgebra:
    """What the L_1 operator reads of Psi0 through its Hessian alone."""

    det_normalized: complex
    sqrt_det: complex
    q: Jet
    weights: List[Tuple[np.ndarray, np.ndarray]]  # _contraction_weights(q, 3)


def hessian_algebra(hess: np.ndarray) -> HessianAlgebra:
    """The inverse (precision-checked), the branch-checked determinant root,
    q and q's contraction weights of a phase Hessian."""
    nv = len(hess)
    hess_inv, det = gauss_solve(hess)
    if hess_inv is None:
        raise HessianError("phase Hessian at the critical point is singular")
    if np.max(np.abs((hess[:, :, None] * hess_inv).sum(axis=1) - np.eye(nv))) > 1e-12:
        raise HessianError("phase Hessian inversion lost precision")

    det_norm = det / ((2j * math.pi) ** nv).real  # (2 pi i)^nv, real as nv is even
    root = np.sqrt(det_norm)
    if root.real <= 0:
        raise BranchError("determinant square root does not lie in the right half plane")

    table: Dict[Tuple[int, ...], complex] = {}
    for a in range(nv):
        for b in range(a, nv):
            val = -hess_inv[a, b] if a == b else -2.0 * hess_inv[a, b]
            if abs(val) > 1e-15:
                table[tuple((k == a) + (k == b) for k in range(nv))] = complex(val)
    q = Jet(nv, 2, (0.0,) * nv, table)
    return HessianAlgebra(det_normalized=det_norm, sqrt_det=complex(root), q=q, weights=_contraction_weights(q, 3))


def build_phase_data(chart: CRModelChart, algebras: Optional[Dict[bytes, HessianAlgebra]] = None) -> PhaseCriticalData:
    """Assemble Psi0(u, sigma) = sigma Phi(0, u) + Phi(u, 0) and its Hessian data; the
    Hessian algebra is taken from, or added to, ``algebras`` (keyed by the Hessian's
    bytes), so charts of one Hessian share one."""
    d = chart.dim
    nv = d + 1
    order = CHART_ORDER
    base = (0.0,) * nv
    phi = chart.phase

    phi_0u = phi.reindex(nv, [None] * d + list(range(d)), base)
    phi_u0 = phi.reindex(nv, list(range(d)) + [None] * d, base)
    sigma = Jet.constant(nv, order, base, 1.0) + Jet.displacement(d, nv, order, base)
    psi0 = sigma * phi_0u + phi_u0

    if abs(psi0.constant_term()) > CRITICAL_TOL:
        raise ChartError("Psi0(0,1) != 0")
    grad_scale = max(psi0.max_abs(), 1.0)
    for a in range(nv):
        if abs(psi0.derivative_at(a)) > CRITICAL_TOL * grad_scale:
            raise ChartError("phase is not critical at (u, sigma) = (0, 1)")

    hess = np.zeros((nv, nv), dtype=complex)
    for a in range(nv):
        for b in range(a, nv):
            hess[a, b] = hess[b, a] = psi0.derivative_at(a, b)
    algebras = {} if algebras is None else algebras
    algebra = algebras.get(hess.tobytes()) or hessian_algebra(hess)
    algebras[hess.tobytes()] = algebra

    h = psi0 - psi0.truncated(2).with_order(order)  # the cubic-and-higher remainder
    return PhaseCriticalData(
        chart.n, psi0, hess, h, algebra.det_normalized, algebra.sqrt_det, algebra.q, _l1_functional(algebra.weights, h)
    )


def _contraction_weights(q: Jet, count: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """[(positions, w_m) for m = 1..count] for the inverse-Hessian form q.

    (<Psi0''^{-1} D, D>^m x^alpha)(0) vanishes unless |alpha| = 2m, and then
    equals w_m[alpha] = alpha! [xi^alpha] q^m; positions are those of the
    nonzero w_m in the basis (q^m is homogeneous of degree 2m).  Each power
    of q is formed from the one before at order 2m.
    """
    factorials = np.array([math.factorial(k) for k in range(2 * count + 1)], dtype=float)
    weights, power = [], None
    for m in range(1, count + 1):
        qm = q.with_order(2 * m)
        power = qm if power is None else power.with_order(2 * m) * qm
        exps = power.basis.exponents[power.support]
        weights.append((power.support, power.vector[power.support] * factorials[exps].prod(axis=1)))
    return weights


def _l1_functional(weights: List[Tuple[np.ndarray, np.ndarray]], h: Jet) -> np.ndarray:
    """K_1 over the monomials of degree <= 2, with L_1 v = <K_1, v>:

        K_1[alpha] = i^{-1} sum_{mu=0}^{2} sum_{|alpha| + |beta| = 2(mu + 1)}
                     (h^mu)_beta w_{mu+1}[alpha + beta] / (mu! (mu+1)! 2^{mu+1}),

    w_m = weights[m - 1] of _contraction_weights(q, 3).  L_1 reads h^mu up
    to degree 2(mu + 1): h to degree 4, the chart order, and h^2 to degree 6,
    where only h's cubic part enters, so h^2 is formed at order 6.  Per mu,
    one product-table gather pairs the support of h^mu with the degree <= 2
    block and one bincount sums the terms.
    """
    h6 = h.with_order(6)
    powers = [Jet.constant(h.num_vars, 0, h.base_point, 1.0), h, h6 * h6]
    basis = h6.basis  # covers degree 2(mu + 1)
    size = basis.size(2)
    block = np.arange(size)
    functional = np.zeros(size, dtype=complex)
    for mu, power in enumerate(powers):
        m = mu + 1
        positions = power.support
        first = positions[: np.searchsorted(positions, basis.size(2 * m))]
        beta, alpha, k = basis.pairs(first, block, 2 * m)
        w_positions, w = weights[mu]
        at = np.minimum(np.searchsorted(w_positions, k), w_positions.size - 1)
        hit = w_positions[at] == k  # the weights live on degree 2m exactly
        terms = power.vector[beta[hit]] * w[at[hit]]
        sums = _scatter_sum(alpha[hit], terms.real, terms.imag, size)
        functional += sums / (math.factorial(mu) * math.factorial(m) * 2**m)
    functional *= (1j) ** (-1)
    return functional


def apply_L(data: PhaseCriticalData, v: Jet) -> complex:
    """(L_1 v) at the critical point for the stored phase.

    v is treated as an exact polynomial.  L_1 v is the dot product of v's
    coefficients of degree <= 2 with the functional K_1 built with the phase
    data, so a call forms no jet product.  Of a batch, the per-row array of
    1-D dots, each rounded as a single jet's.
    """
    if v.num_vars != data.num_vars:
        raise OrderShortfallError("v must be a jet in (u, sigma-1)")
    if v.order < 2:
        raise OrderShortfallError(f"apply_L: v order {v.order} < 2")
    if v.rows is None:
        return complex(data.l1 @ v.vector[: data.l1.size])
    return np.array([data.l1 @ row for row in v.vector[:, : data.l1.size]])


def expansion_coeffs(data: PhaseCriticalData, gamma0: Jet, g1: complex = 0.0 + 0.0j) -> List[complex]:
    """The first two expansion coefficients [c0, c1] of I(t).

    With Gamma ~ gamma0 t^p + gamma1 t^{p-1} and g1 = gamma1(0,1), these are
    the coefficients of t^{p-n} and t^{p-n-1}:
        c0 = gamma0(0,1) / sqrt(det(Psi''/2 pi i)),
        c1 = (g1 + L_1 gamma0(0,1)) / sqrt(det(Psi''/2 pi i)).
    Of a batch gamma0 with one g1 per row, per-row arrays, each row divided
    as Python divides a single row's complex values.
    """
    c0, l1, root = gamma0.constant_term(), apply_L(data, gamma0), data.sqrt_det
    if gamma0.rows is None:
        return [c0 / root, (g1 + l1) / root]
    g1 = np.asarray(g1, dtype=complex).tolist()
    return [np.array([c / root for c in c0.tolist()]), np.array([(g + v) / root for g, v in zip(g1, l1.tolist())])]


# -- quadrature oracle ------------------------------------------------------------------


#: cutoff profile width as a fraction of the cutoff radius
WIDTH_FRACTION = 0.63

#: degree at which the cutoff profile first deviates from 1
CUTOFF_DEGREE = 8


@lru_cache(maxsize=32)
def _cutoff_rule(num: int, radius: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The num-point trapezoidal rule on [-radius, radius] (nodes (j - (num - 1)/2) h,
    h = 2 radius / (num - 1), weights h and h/2 at the ends), mirror-symmetric bit for
    bit, times the cutoff chi of |x|: its nodes x with w chi(x), then its nodes v >= 0
    with 2 w chi(v) (w chi(0) at an odd rule's exact 0).  As chi < 1e-17 at +-radius,
    the rule converges geometrically (Trefethen & Weideman, SIAM Rev. 56 (2014) 385)."""
    j, h = np.arange(num), 2.0 * radius / (num - 1)
    x = (j - (num - 1) / 2) * h
    w = np.where(j % (num - 1), h, h / 2)
    wx = w * np.exp(-(np.abs(x) / (WIDTH_FRACTION * radius)) ** CUTOFF_DEGREE)
    v = x[num // 2 :]
    return x, wx, v, np.where(v > 0, 2.0, 1.0) * wx[num // 2 :]


def oscillatory_monomial_moments(
    phase: Jet,
    amp_order: int,
    t: float,
    cutoff_radius: float,
    nodes_per_axis: Sequence[int],
) -> np.ndarray:
    """Moments int v^alpha exp(i t phase(v)) chi(v) dv over [-r, r]^d for
    |alpha| <= amp_order, as a vector over the jet basis of that order.

    chi(v) = prod_a exp(-(v_a / w)^8) with w = WIDTH_FRACTION * r is the
    product cutoff: it deviates from 1 only at degree 8, so it cannot disturb
    the first four expansion coefficients, and at |v_a| = r it has decayed
    below double precision, so the box edge introduces no oscillation.

    The phase must be Psi0 = s u_{2n} + i (1 + s/2)|u'|^2 in (u', u_{2n}, s),
    coefficient for coefficient (else OracleFitError).  A moment is then
    sum_k w_k chi(s_k) s_k^{alpha_s} prod_{a<2n} G[k, alpha_a] F[k, alpha_{2n}]
    over the trapezoidal nodes s_k, with the Gaussian-axis and Fourier-axis moments
    G[k, p] = sum_j w_j chi(v_j) e^{-t (1 + s_k/2) v_j^2} v_j^p and
    F[k, p] = sum_j w_j chi(v_j) e^{i t s_k v_j} v_j^p.  The rule is mirror-
    symmetric, so both fold onto its nodes v_j >= 0, an odd rule's node at 0
    counted once: G is 0 for odd p, and F sums cos(t s_k v_j) for even p and
    i sin(t s_k v_j) for odd p, in real arithmetic.  The s rule is mirror-
    symmetric too, so F is summed at the nodes s_k >= 0 only (an odd rule's
    s_k = 0 among them) and its rows at -s_k are those rows, negated for odd
    p before the factor i.  The cutoff-weighted rules are formed once per node
    count and r (_cutoff_rule), G once per node count, and the moments are one
    gather of these tables per factor, multiplied in the order s, u', u_{2n} and
    summed over the s nodes per monomial.  nodes_per_axis holds one count per variable.
    """
    d, n = phase.num_vars, (phase.num_vars - 2) // 2
    # Psi0's coefficients: i 2^{-e} at u_a^2 s^e for a < 2n, and 1 at s u_{2n}
    psi0 = {(0,) * a + (2,) + (0,) * (2 * n - a) + (e,): 1j / 2**e for a in range(2 * n) for e in (0, 1)}
    psi0[(0,) * 2 * n + (1, 1)] = 1.0
    if any(phase.base_point) or dict(phase.graded_items()) != psi0:
        raise OracleFitError("quadrature oracle supports the exact phase s u_{2n} + i (1 + s/2)|u'|^2 only")

    powers = range(amp_order + 1)
    s, ws, _, _ = _cutoff_rule(int(nodes_per_axis[-1]), cutoff_radius)
    s_moments = ws[:, None] * s[:, None] ** np.arange(amp_order + 1)
    gaussian = {}  # G as an (s node, power) array, once per node count
    for num in dict.fromkeys(int(k) for k in nodes_per_axis[: 2 * n]):
        _, _, v, wv = _cutoff_rule(num, cutoff_radius)
        f = wv * np.exp(-t * (1.0 + s / 2)[:, None] * v**2)
        gaussian[num] = np.stack([np.zeros(len(s)) if p % 2 else np.sum(f * v**p, axis=1) for p in powers], axis=1)
    _, _, v, wv = _cutoff_rule(int(nodes_per_axis[2 * n]), cutoff_radius)
    tsv = t * s[len(s) // 2 :, None] * v  # the nodes s_k >= 0; the rows s_k < 0 mirror them
    cos, sin = wv * np.cos(tsv), wv * np.sin(tsv)
    fourier = np.empty((len(s), amp_order + 1), dtype=complex)
    for p in powers:
        half = np.sum((sin if p % 2 else cos) * v**p, axis=1)
        mirror = -half[::-1] if p % 2 else half[::-1]
        column = np.concatenate([mirror[: len(s) // 2], half])
        fourier[:, p] = 1j * column if p % 2 else column
    inner_moments = [gaussian[int(k)] for k in nodes_per_axis[: 2 * n]] + [fourier]

    basis = _basis(d, amp_order)
    exps = basis.exponents[: basis.size(amp_order)]
    terms = s_moments.T[exps[:, -1]]  # (monomial, s node), multiplied in factor order
    for a, m in enumerate(inner_moments):
        terms = terms * m.T[exps[:, a]]
    return terms.sum(axis=1)


#: default fit samples; the cutoff contamination decays fast over this window
ORACLE_T_SAMPLES = (40.0, 45.0, 50.0, 55.0, 60.0, 65.0, 70.0, 75.0, 80.0)

#: largest relative residual of the oracle's power-law fit
ORACLE_RESIDUAL_TOL = 1e-3


def oracle_nodes(nodes_per_axis: Optional[Sequence[int]], num_vars: int) -> Tuple[int, ...]:
    """The trapezoidal nodes per variable as ints (48 per inner variable and 160 for
    the last two for None); raises OracleFitError unless there is one count
    per variable and each is at least 48."""
    if nodes_per_axis is None:
        nodes_per_axis = (48,) * (num_vars - 2) + (160, 160)
    nodes = tuple(int(k) for k in nodes_per_axis)
    if len(nodes) != num_vars:
        raise OracleFitError("nodes_per_axis must list one count per variable")
    if min(nodes) < 48:
        raise OracleFitError("at least 48 quadrature nodes per axis are required")
    return nodes


def oracle_cutoff_radius(radius: Optional[float]) -> float:
    """The box radius as a float (1.4 for None); OracleFitError outside (0, 2)."""
    r = 1.4 if radius is None else float(radius)
    if not 0 < r < 2.0:
        raise OracleFitError("cutoff radius must lie in (0, 2) to keep Im(phase) >= 0")
    return r


def oracle_t_samples(t_samples: Optional[Sequence[float]]) -> List[float]:
    """The fit samples as floats (ORACLE_T_SAMPLES for None); raises
    OracleFitError unless there are at least 4, all in [20, 80]."""
    ts = [float(t) for t in (ORACLE_T_SAMPLES if t_samples is None else t_samples)]
    if len(ts) < 4:
        raise OracleFitError("need at least 4 t samples")
    if min(ts) < 20.0 or max(ts) > 80.0:
        raise OracleFitError("t samples must lie in [20, 80]")
    return ts


def exact_coefficients(terms: Iterable[Tuple[Tuple[int, ...], complex]], n: int, top: int) -> List[complex]:
    """[c_0..c_top], c_k the coefficient of t^{-n-k} in I(t) for the polynomial
    amplitude with the (multi-index, coefficient) ``terms`` (a jet's
    ``graded_items``), summed in their order, on the exact phase
    Psi0 = s u_{2n} + i (1 + s/2)|u'|^2, s = sigma - 1, u' = (u_0..u_{2n-1}).

    The Gaussian moments in u' (Gamma((a_i + 1)/2) (t(1 + s/2))^{-(a_i + 1)/2}
    for even a_i, 0 for odd), int int e^{itsu} f ~ (2 pi / t) sum_k (i/t)^k / k!
    d_s^k d_u^k f(0, 0) on f = u^c s^e (1 + s/2)^{-p}, and the prefactor t give
    a monomial u'^a u_{2n}^c s^e with even a_i and c >= e the one term
        2 pi prod_i Gamma((a_i + 1)/2) i^c c! binom(-p, c - e) 2^{e-c},  p = n + |a|/2,
    at k = |a|/2 + c, and any other monomial none.
    """
    out = [0j] * (top + 1)
    for idx, coeff in terms:
        a, c, e = idx[: 2 * n], idx[2 * n], idx[2 * n + 1]
        half, m = sum(a) // 2, c - e
        if half + c > top or m < 0 or any(x % 2 for x in a):
            continue
        gauss = math.prod(math.gamma((x + 1) / 2) for x in a)
        binom = (-1) ** m * math.comb(n + half + m - 1, m)  # binom(-p, m)
        out[half + c] += coeff * 2 * math.pi * gauss * 1j**c * math.factorial(c) * binom * 2.0**-m
    return out


@dataclass(frozen=True)
class OracleSweep:
    """What the quadrature oracle shares between amplitudes on one exact phase."""

    data: PhaseCriticalData
    chi: complex             # chi_a = -w^{-8}, the cutoff's jet being 1 + sum_a chi_a v_a^8
    t: np.ndarray
    moments: Tuple[np.ndarray, ...]  # one moment vector per t sample
    order: int               # the largest amplitude order the moment vectors cover


def oracle_sweep(
    data: PhaseCriticalData,
    order: int,
    t_samples: Optional[Sequence[float]] = None,
    cutoff_radius: Optional[float] = None,
    nodes_per_axis: Optional[Sequence[int]] = None,
) -> OracleSweep:
    """One oscillatory_monomial_moments vector per t sample for amplitudes of
    order <= ``order``, and the cutoff's degree-8 coefficient; forms no jet
    product.

    Restricted by the moments to the exact phase (no cutoff guidance exists
    for perturbed phases; the exact phase also gives the tail its closed form
    and the moments their Gaussian and Fourier axes).  The box may
    reach below sigma = 0 (radius up to 2): the integrand is the same polynomial
    data, Im(Psi0) >= 0 holds for sigma > -1, and the only critical point inside
    is (0, 1), so the expansion coefficients are unchanged while the flat cutoff
    profile gains the width to keep its contamination below the fit tolerances.
    """
    ts = oracle_t_samples(t_samples)
    cutoff_radius = oracle_cutoff_radius(cutoff_radius)
    nv = data.num_vars
    nodes_per_axis = oracle_nodes(nodes_per_axis, nv)
    return OracleSweep(
        data=data,
        chi=complex(-((WIDTH_FRACTION * cutoff_radius) ** -CUTOFF_DEGREE)),
        t=np.array(ts),
        moments=tuple(
            oscillatory_monomial_moments(data.psi0, order, t, cutoff_radius, nodes_per_axis) for t in ts
        ),
        order=order,
    )


def numeric_expansion_oracle(sweep: OracleSweep, amplitude: Jet) -> Tuple[complex, complex]:
    """Brute-force check of expansion_coeffs by quadrature and power-law fit.

    Evaluates I(t) = t * int exp(i t Psi0) amplitude * chi d(u, sigma) over
    [-r, r]^{2n+2}, with the product cutoff chi, by contracting the
    amplitude's coefficients with the sweep's folded trapezoidal moments (a
    moment does not depend on the sweep's order, so the fit is the same for
    any sweep that covers the amplitude).  It subtracts the exactly known
    third to fifth expansion orders (c_2..c_4 of exact_coefficients for the
    amplitude times the cutoff's jet, read from the amplitude's terms and
    c_0 chi_a without forming that product, and reading none of the L_1
    code), then fits c0 t^{-n} + c1 t^{-n-1} by t^{n+1}-weighted least squares in
    closed form (no LAPACK) and returns (c0, c1), or (0, 0) where all integrals
    vanish.  Psi0 is the exact phase s u_{2n} + i (1 + s/2)|u'|^2, s = sigma - 1.
    """
    if amplitude.num_vars != sweep.data.num_vars:
        raise OrderShortfallError("phase and amplitude must share variables")
    if amplitude.order > sweep.order:
        raise OrderShortfallError(f"oracle sweep covers amplitude order {sweep.order} < {amplitude.order}")
    support = amplitude.support
    values = np.zeros(len(sweep.t), dtype=complex)
    for col, (t, moments) in enumerate(zip(sweep.t.tolist(), sweep.moments)):
        total = 0.0 + 0.0j  # the jet integrated as an exact polynomial, in graded order
        for c, m in zip(amplitude.vector[support].tolist(), moments[support].tolist()):
            total += c * m
        values[col] = t * total
    if float(np.max(np.abs(values))) == 0.0:
        return 0.0 + 0.0j, 0.0 + 0.0j
    tarr, n = sweep.t, sweep.data.n

    # Subtract the exactly known t^{-n-2}..t^{-n-4} tail of the amplitude times
    # the cutoff's jet before fitting.  Of that product's terms beyond the
    # amplitude's own, c_4 reads only c_0 chi_a v_a^8, so those follow the
    # amplitude's terms, in graded order (a from 2n+1 down to 0).  The first
    # two orders stay untouched (the cutoff is flat to degree 8), so the fit
    # below still measures c0 and c1 independently of them.
    c0, nv = amplitude.constant_term(), amplitude.num_vars
    cutoff = [((0,) * a + (CUTOFF_DEGREE,) + (0,) * (nv - 1 - a), c0 * sweep.chi) for a in reversed(range(nv))]
    tail = np.zeros_like(values)
    for k, ck in enumerate(exact_coefficients(amplitude.graded_items() + tuple(cutoff), n, 4)[2:], start=2):
        tail = tail + ck * tarr ** (-n - k)
    corrected = values - tail

    # the weighted fit is the least-squares line y = t^{n+1} I(t) ~ c0 t + c1: Gram-Schmidt of t against 1
    weight = tarr ** (n + 1)
    y, dt = corrected * weight, tarr - np.mean(tarr)
    c0 = np.sum(dt * y) / np.sum(dt * dt)
    c1 = np.mean(y - c0 * tarr)
    norms = [np.sqrt(np.sum(np.abs(z) ** 2)) for z in (c0 * tarr + c1 - y, values * weight)]
    resid = float(norms[0] / max(norms[1], 1e-300))
    if resid > ORACLE_RESIDUAL_TOL:
        raise OracleFitError(
            f"power-law fit residual {resid:.2e} exceeds {ORACLE_RESIDUAL_TOL:.2e}; "
            "increase the t range or the grid resolution"
        )
    return complex(c0), complex(c1)
