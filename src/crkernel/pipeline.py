"""Two routes to the Toeplitz kernel coefficients.

Route A composes the projector amplitude with the operator symbol through the
oscillatory-integral machinery: symbol evaluation along the phase gradient,
then the stationary-phase composition of the two amplitudes.  Route B
evaluates the closed diagonal formulas built from the scalar curvature, the
Kohn Laplacian, the cotangent operator P, the subprincipal symbol and the
Reeb derivative.  Their agreement at the base point is the content this kit
verifies.

An amplitude is its leading coefficient as a jet in (x, y) at (0, 0),
independent of the last y variable, and its subleading coefficient's value
at (0, 0): by stationary phase (Hoermander, The Analysis of Linear PDO I,
Thm 7.7.5) the second diagonal coefficient reads the subleading amplitude
only at the critical point.  Only diagonal values (and the jets needed to
produce them) are computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .charts import (
    CRModelChart,
    kohn_laplacian_at0,
    reeb_derivative_at0,
    tw_scalar_curvature,
)
from .errors import SymbolError
from .jets import Jet, Substitution
from .rng import spawn_rng, standard_normals
from .stationary import PhaseCriticalData, build_phase_data, expansion_coeffs
from .symbols import ClassicalSymbol, p_operator_canonical, subprincipal_symbol

#: work order for amplitude coefficient jets; degree-2 data is all the
#: two-order pipelines ever read
AMPLITUDE_ORDER = 2


@dataclass(frozen=True)
class KernelAmplitude:
    """Classical amplitude b(x,y,t) ~ b_0(x,y) t^{top_power} + b_1 t^{top_power - 1}
    + ...: the leading coefficient as a jet independent of the last y
    variable, and the subleading one by its value at (0, 0), all that the
    diagonal formulas read of it.  A stack (``random_amplitude`` of lists)
    holds a batch leading jet and per-row arrays of top_power and subleading."""

    top_power: float
    leading: Jet
    subleading: complex

    def __post_init__(self):
        b0 = self.leading
        if b0.num_vars % 2:
            raise SymbolError("amplitude jets live in (x, y); even variable count required")
        if b0.basis.exponents[b0.support, b0.num_vars - 1].any():
            raise SymbolError("amplitude depends on the last y variable")
        if b0.order != AMPLITUDE_ORDER:
            raise SymbolError(f"amplitude jets have order {AMPLITUDE_ORDER}, not {b0.order}")


def _rows(value) -> list:
    """The per-row Python values of a stack's array, or [value] of a single value."""
    return np.atleast_1d(value).tolist()


def _xy_base(d: int) -> Tuple[complex, ...]:
    return (0.0,) * (2 * d)


def szego_norm(n: int) -> float:
    """2 pi^{n+1}, the Szego projector's normalisation in CR dimension n."""
    return 2.0 * math.pi ** (n + 1)


def szego_amplitude(chart: CRModelChart) -> KernelAmplitude:
    """Projector amplitude for the model charts: A_0 = 1/(2 pi^{n+1}) exactly,
    A_1(0,0) = R(0)/(4 pi^{n+1}), higher coefficients zero."""
    n, d = chart.n, chart.dim
    norm = szego_norm(n)
    a0 = Jet.constant(2 * d, AMPLITUDE_ORDER, _xy_base(d), 1.0 / norm)
    a1 = complex(tw_scalar_curvature(chart) / (2.0 * norm))
    return KernelAmplitude(top_power=float(n), leading=a0, subleading=a1)


def _phase_gradient_inner(chart: CRModelChart) -> List[Jet]:
    """Inner map (x, Phi'_x(x, y)) as jets in (x, y), centered at (0, -omega_0(0))."""
    d = chart.dim
    inner = [Jet.coordinate(i, 2 * d, AMPLITUDE_ORDER, _xy_base(d)) for i in range(d)]
    return inner + [chart.phase.partial(j).truncated(AMPLITUDE_ORDER) for j in range(d)]


def _prepared(inner: List[Jet], substitutions: Optional[Dict[tuple, Substitution]]) -> Substitution:
    """The ``Substitution`` of ``inner``, taken from or added to ``substitutions`` when given:
    keyed by the map's shape, base point and coefficient bytes, so only byte-equal maps share one."""
    if substitutions is None:
        return Substitution(inner)
    g = inner[0]
    key = (g.num_vars, g.order, np.array(g.base_point).tobytes(), b"".join(h.vector.tobytes() for h in inner))
    substitutions[key] = substitutions.get(key) or Substitution(inner)
    return substitutions[key]


def qe_amplitude(
    E: ClassicalSymbol, A: KernelAmplitude, chart: CRModelChart,
    substitutions: Optional[Dict[tuple, Substitution]] = None,
) -> KernelAmplitude:
    """Amplitude of the symbol-times-projector composition.

    C_0 = e_0(x, Phi'_x) A_0 as a jet.  C_1(0, 0) collects the subleading
    symbol, the xi-Hessian contraction against the phase Hessian, and the
    first-order term against the gradient of A_0, each from values at the
    base point, where Phi'_x(0, 0) is the symbols' base covector.  The map
    (x, Phi'_x) is prepared once per ``substitutions`` memo when one is given.
    """
    d = chart.dim
    phi = chart.phase
    e0 = E.components[0]
    a0v = A.leading.constant_term()

    e0_at = _prepared(_phase_gradient_inner(chart), substitutions).apply(e0)
    c0 = e0_at * A.leading
    c1 = e0_at.constant_term() * A.subleading + E.component(1).constant_term() * a0v
    for j in range(d):
        for k in range(j, d):
            hess = e0.derivative_at(d + j, d + k)
            if hess == 0:
                continue
            # alpha = e_j + e_k: the unordered pair appears once with 1/alpha!
            factor = -0.5j if j == k else -1.0j
            c1 = c1 + factor * (hess * phi.derivative_at(j, k) * a0v)
    for j in range(d):
        grad_a = A.leading.derivative_at(j)
        if grad_a == 0:
            continue
        c1 = c1 + (-1j) * (e0.derivative_at(d + j) * grad_a)
    return KernelAmplitude(top_power=A.top_power + E.order_m, leading=c0, subleading=c1)


def _sigma_power(ell, d: int) -> Jet:
    """sigma**ell in (u, sigma - 1): binom(ell, k) at (sigma - 1)**k, by the
    recursion pow_real uses, so the values equal (1 + dsigma).pow_real(ell);
    a batch with one row per exponent if ``ell`` is an array."""
    zero, binoms = Jet.zero(d + 1, AMPLITUDE_ORDER, (0.0,) * (d + 1)), []
    for e in _rows(ell):
        binoms.append([1.0 + 0.0j])
        for k in range(1, AMPLITUDE_ORDER + 1):
            binoms[-1].append(binoms[-1][-1] * (e - k + 1) / k)
    where = [zero.basis.position((0,) * d + (k,), AMPLITUDE_ORDER) for k in range(AMPLITUDE_ORDER + 1)]
    vector = np.zeros((len(binoms), zero.vector.size), dtype=complex)
    vector[:, where] += binoms  # +0 + binom, as Jet(dict) stores it
    return zero._like(vector if np.ndim(ell) else vector[0])


def compose_amplitudes_sp(
    A: KernelAmplitude,
    C: KernelAmplitude,
    chart: CRModelChart,
    phase_data: Optional[PhaseCriticalData] = None,
) -> Tuple[complex, complex]:
    """Stationary-phase route for the composed amplitude's diagonal values.

    Builds gamma_0(u, sigma) = A_0(0,u) C_0(u,0) lambda(u) sigma^l and the
    value gamma_1(0, 1) = (A_0 C_1 + A_1 C_0) lambda at the base point, runs
    the expansion engine, and returns the composed coefficients (already
    normalized by the Hessian determinant root).  Two stacks of one row
    count give per-row arrays, each row bit for bit its own pair's values.
    """
    d = chart.dim
    data = build_phase_data(chart) if phase_data is None else phase_data

    u, pinned, base = list(range(d)), [None] * d, (0.0,) * (d + 1)
    a0_u = A.leading.reindex(d + 1, pinned + u, base)  # A_0(0, u)
    c0_u = C.leading.reindex(d + 1, u + pinned, base)  # C_0(u, 0)
    lam = chart.volume_density.truncated(AMPLITUDE_ORDER).reindex(d + 1, u, base)

    gamma0 = a0_u * c0_u * lam * _sigma_power(A.top_power, d)
    lam0 = lam.constant_term()
    g1 = [
        (a0 * c1 + a1 * c0) * lam0
        for a0, c1, a1, c0 in zip(*map(_rows, (a0_u.constant_term(), C.subleading, A.subleading, c0_u.constant_term())))
    ]
    return tuple(expansion_coeffs(data, gamma0, g1 if gamma0.rows else g1[0]))


def compose_amplitudes_closed(
    A: KernelAmplitude, C: KernelAmplitude, chart: CRModelChart
) -> Tuple[complex, complex]:
    """Closed diagonal formula for the composed coefficients.

    C_0(0,0) = 2 pi^{n+1} A_0 B_0 and the eight-term second coefficient
    combining R, the two Kohn Laplacians, the Reeb derivative weighted by
    2i(n - l), and the horizontal gradient pairing.  Two stacks of one row
    count give per-row arrays: the operators read every row at once, and
    each row's products are Python's complex products, as for a single pair.
    """
    n = chart.n
    d = chart.dim
    r0 = tw_scalar_curvature(chart)
    norm = szego_norm(n)

    u, pinned = list(range(d)), [None] * d
    a0 = A.leading.reindex(d, pinned + u, (0.0,) * d)  # A_0(0, u)
    b0 = C.leading.reindex(d, u + pinned, (0.0,) * d)  # B_0(u, 0)
    per_row = zip(
        *map(_rows, (a0.constant_term(), A.subleading, b0.constant_term(), C.subleading, A.top_power)),
        *map(_rows, (kohn_laplacian_at0(chart, b0), kohn_laplacian_at0(chart, a0), reeb_derivative_at0(chart, b0))),
        zip(*[zip(_rows(a0.derivative_at(j)), _rows(b0.derivative_at(j))) for j in range(2 * n)]),
    )
    c0, c1 = [], []
    for a0v, a1v, b0v, b1v, ell, box_b, box_a, reeb_b, grads in per_row:
        grad_pair = 0.0 + 0.0j
        for grad_a, grad_b in grads:
            grad_pair += grad_a * grad_b
        c0.append(norm * a0v * b0v)
        c1.append(norm / 2.0 * (
            -a0v * b0v * r0 + 2.0 * (a0v * b1v + a1v * b0v) - a0v * box_b - b0v * box_a
            + 2j * (n - ell) * a0v * reeb_b + grad_pair
        ))
    return (c0[0], c1[0]) if a0.rows is None else (np.array(c0), np.array(c1))


def _e0_on_contact_graph(
    E: ClassicalSymbol, chart: CRModelChart, substitutions: Optional[Dict[tuple, Substitution]]
) -> Jet:
    """The principal symbol along x -> (x, -omega_0(x)) as a jet in x, at
    order 2, all the Kohn Laplacian and the Reeb derivative read."""
    d = chart.dim
    inner = [Jet.coordinate(i, d, 2, (0.0,) * d) for i in range(d)]
    inner += [(-1.0) * chart.contact_form[b].truncated(2) for b in range(d)]
    return _prepared(inner, substitutions).apply(E.components[0])


def toeplitz_b1_closed_form(
    E: ClassicalSymbol, chart: CRModelChart, substitutions: Optional[Dict[tuple, Substitution]] = None
) -> Tuple[complex, complex]:
    """Closed-form first two Toeplitz coefficients at the base point.

    b_0 = E_0(0) / (2 pi^{n+1}) and 4 pi^{n+1} b_1 = R E_0 - box_b E_0
    + P(e_0) + 2 e_sub - i m T E_0, all evaluated at (0, -omega_0(0)).  The
    map (x, -omega_0(x)) is prepared once per ``substitutions`` memo if given.
    """
    if not E.homogeneous:
        raise SymbolError("closed form requires a homogeneous-flagged symbol")
    norm = szego_norm(chart.n)

    script_e0 = _e0_on_contact_graph(E, chart, substitutions)
    e0v = script_e0.constant_term()
    r0 = tw_scalar_curvature(chart)
    box_e0 = kohn_laplacian_at0(chart, script_e0)
    reeb_e0 = reeb_derivative_at0(chart, script_e0)
    p_e0 = p_operator_canonical(E.components[0])
    esub = subprincipal_symbol(E, chart.volume_density, 1.0)

    b0 = e0v / norm
    b1 = (r0 * e0v - box_e0 + p_e0 + 2.0 * esub - 1j * E.order_m * reeb_e0) / (2.0 * norm)
    return b0, b1


def toeplitz_b1_pipeline(
    E: ClassicalSymbol,
    chart: CRModelChart,
    phase_data: Optional[PhaseCriticalData] = None,
    substitutions: Optional[Dict[tuple, Substitution]] = None,
) -> Tuple[complex, complex]:
    """Stationary-phase route: projector amplitude -> symbol composition ->
    amplitude composition.  Must agree with toeplitz_b1_closed_form."""
    A = szego_amplitude(chart)
    C = qe_amplitude(E, A, chart, substitutions)
    return compose_amplitudes_sp(A, C, chart, phase_data=phase_data)


def random_amplitude(n: int, top_power, seed) -> KernelAmplitude:
    """Seeded y-independent amplitude for cross-route checks; of equal-length
    lists of top powers and seeds, the stack whose row r is, bit for bit, the
    amplitude of ``top_power[r]`` and ``seed[r]``.

    The leading jet is ``random_jet(rng, 2d, AMPLITUDE_ORDER, 0, decay=0.5)``
    and the subleading value the constant term of a second such draw; the
    stream is read once, since normal k reads words 2k and 2k + 1, and the
    second draw's constant term is the pair after the first draw's.  Every
    stream's normals come from one Box-Muller pass."""
    d = 2 * n + 1
    nv = 2 * d
    zero = Jet.zero(nv, AMPLITUDE_ORDER, _xy_base(d))
    size = zero.vector.size
    streams = [spawn_rng(s, "amplitude", n, repr(t)) for t, s in zip(_rows(top_power), _rows(seed))]
    draws = standard_normals(streams, 2 * (size + 1)).reshape(len(streams), size + 1, 2)
    mags = np.array([0.5**k for k in range(AMPLITUDE_ORDER + 1)])[zero.basis.degrees[:size]]
    vector = np.zeros((len(draws), size), dtype=complex)
    vector.real, vector.imag = draws[:, :size, 0] * mags, draws[:, :size, 1] * mags
    b0 = zero._like(vector).reindex(nv, [*range(nv - 1), None], _xy_base(d))  # y_last pinned at 0
    subleading = [complex(*row) if row.any() else 0.0 + 0.0j for row in draws[:, size]]
    if np.ndim(seed):
        return KernelAmplitude(np.array(top_power), b0, np.array(subleading, dtype=complex))
    return KernelAmplitude(top_power=top_power, leading=b0._like(b0.vector[0]), subleading=subleading[0])
