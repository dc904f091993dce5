"""Two routes to the Toeplitz kernel coefficients.

Route A composes the projector amplitude with the operator symbol through the
oscillatory-integral machinery: symbol evaluation along the phase gradient,
then the stationary-phase composition of the two amplitudes.  Route B
evaluates the closed diagonal formulas built from the scalar curvature, the
Kohn Laplacian, the cotangent operator P, the subprincipal symbol and the
Reeb derivative.  Their agreement at the base point is the content this kit
verifies.

Amplitudes are pairs of coefficient jets in (x, y) at (0, 0), independent of
the last y variable; only diagonal values (and the jets needed to produce
them) are computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .charts import (
    CRModelChart,
    kohn_laplacian_at0,
    reeb_derivative_at0,
    tw_scalar_curvature,
)
from .errors import OrderShortfallError, SymbolError
from .jets import Jet, Substitution, random_jet
from .rng import spawn_rng
from .stationary import PhaseCriticalData, build_phase_data, expansion_coeffs
from .symbols import ClassicalSymbol, p_operator_canonical, subprincipal_symbol

#: work order for amplitude coefficient jets; degree-2 data is all the
#: two-order pipelines ever read
AMPLITUDE_ORDER = 2


@dataclass(frozen=True)
class KernelAmplitude:
    """Classical amplitude b(x,y,t) ~ sum_j b_j(x,y) t^{top_power - j}."""

    top_power: float
    coeffs: Tuple[Jet, ...]
    y_independent: bool = True

    def __post_init__(self):
        if not self.coeffs:
            raise SymbolError("amplitude needs at least one coefficient jet")
        first = self.coeffs[0]
        if first.num_vars % 2:
            raise SymbolError("amplitude jets live in (x, y); even variable count required")
        for c in self.coeffs[1:]:
            if not first.is_compatible(c):
                raise SymbolError("amplitude coefficients must share num_vars/order/base")
        if self.y_independent:
            last = first.num_vars - 1
            for c in self.coeffs:
                if c.basis.exponents[c.support, last].any():
                    raise SymbolError("amplitude depends on the last y variable")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def dim(self) -> int:
        return self.coeffs[0].num_vars // 2

    @property
    def n(self) -> int:
        return (self.dim - 1) // 2

    def coeff(self, j: int) -> Jet:
        if j < len(self.coeffs):
            return self.coeffs[j]
        first = self.coeffs[0]
        return Jet.zero(first.num_vars, first.order, first.base_point)


def _xy_base(d: int) -> Tuple[complex, ...]:
    return (0.0,) * (2 * d)


def szego_amplitude(chart: CRModelChart) -> KernelAmplitude:
    """Projector amplitude for the model charts: A_0 = 1/(2 pi^{n+1}) exactly,
    A_1(0,0) = R(0)/(4 pi^{n+1}), higher coefficients zero."""
    n, d = chart.n, chart.dim
    base = _xy_base(d)
    norm = 1.0 / (2.0 * math.pi ** (n + 1))
    a0 = Jet.constant(2 * d, AMPLITUDE_ORDER, base, norm)
    a1 = Jet.constant(2 * d, AMPLITUDE_ORDER, base, tw_scalar_curvature(chart) / (4.0 * math.pi ** (n + 1)))
    return KernelAmplitude(top_power=float(n), coeffs=(a0, a1))


def _phase_gradient_inner(chart: CRModelChart, order: int) -> List[Jet]:
    """Inner map (x, Phi'_x(x, y)) as jets in (x, y), centered at (0, -omega_0(0))."""
    d = chart.dim
    nv = 2 * d
    base = _xy_base(d)
    phi = chart.phase
    inner = [Jet.coordinate(i, nv, order, base) for i in range(d)]
    for j in range(d):
        inner.append(phi.partial(j).truncated(order))
    return inner


def qe_amplitude(E: ClassicalSymbol, A: KernelAmplitude, chart: CRModelChart) -> KernelAmplitude:
    """Amplitude of the symbol-times-projector composition.

    C_0 = e_0(x, Phi'_x) A_0 and C_1 collects the subleading symbol, the
    xi-Hessian contraction against the phase Hessian, and the first-order
    term against the gradient of A_0.
    """
    if not A.y_independent:
        raise SymbolError("qe_amplitude needs a y-independent projector amplitude")
    if chart.jet_order < 4:
        raise OrderShortfallError("qe_amplitude needs chart jet_order >= 4")
    d = chart.dim
    nv = 2 * d
    order = min(AMPLITUDE_ORDER, A.coeffs[0].order)
    at_grad = Substitution(_phase_gradient_inner(chart, order))
    phi = chart.phase

    e0 = E.components[0]
    e1 = E.component(1)
    a0 = A.coeffs[0].truncated(order)
    a1 = A.coeff(1).truncated(order)

    e0_at = at_grad.apply(e0)
    c0 = e0_at * a0
    c1 = e0_at * a1 + at_grad.apply(e1) * a0
    for j in range(d):
        for k in range(j, d):
            hess = e0.partial(d + j).partial(d + k)
            if not hess.support.size:
                continue
            # alpha = e_j + e_k: the unordered pair appears once with 1/alpha!
            factor = -0.5j if j == k else -1.0j
            phi_term = phi.partial(j).partial(k).truncated(order)
            c1 = c1 + factor * (at_grad.apply(hess) * phi_term * a0)
    for j in range(d):
        grad_a = A.coeffs[0].partial(j).truncated(order)
        if not grad_a.support.size:
            continue
        c1 = c1 + (-1j) * (at_grad.apply(e0.partial(d + j)) * grad_a)
    return KernelAmplitude(top_power=A.top_power + E.order_m, coeffs=(c0, c1))


def _to_us_space(jet_xy: Jet, d: int, order: int, slot: str) -> Jet:
    """Restrict an (x, y) jet to (0, u) or (u, 0) as a jet in (u, sigma-1)."""
    u, zero = list(range(d)), [None] * d
    targets = zero + u if slot == "y" else u + zero
    return jet_xy.truncated(order).reindex(d + 1, targets, (0.0,) * (d + 1))


def _sigma_power(ell: float, d: int, order: int) -> Jet:
    """sigma**ell in (u, sigma - 1): binom(ell, k) at (sigma - 1)**k, by the
    recursion pow_real uses, so the values equal (1 + dsigma).pow_real(ell)."""
    binom = [1.0 + 0.0j]
    for k in range(1, order + 1):
        binom.append(binom[-1] * (ell - k + 1) / k)
    return Jet(d + 1, order, (0.0,) * (d + 1), {(0,) * d + (k,): b for k, b in enumerate(binom)})


def compose_amplitudes_sp(
    A: KernelAmplitude,
    C: KernelAmplitude,
    chart: CRModelChart,
    phase_data: Optional[PhaseCriticalData] = None,
) -> Tuple[complex, complex]:
    """Stationary-phase route for the composed amplitude's diagonal values.

    Builds gamma_0(u, sigma) = A_0(0,u) C_0(u,0) lambda(u) sigma^l and the
    matching gamma_1, runs the expansion engine, and returns the composed
    coefficients (already normalized by the Hessian determinant root).
    """
    if not (A.y_independent and C.y_independent):
        raise SymbolError("composition needs y-independent amplitudes")
    if min(A.coeffs[0].order, C.coeffs[0].order) < AMPLITUDE_ORDER:
        raise OrderShortfallError("composition needs amplitude jets of order >= 2")
    d = chart.dim
    order = AMPLITUDE_ORDER
    ell = A.top_power
    data = build_phase_data(chart) if phase_data is None else phase_data

    a0_u = _to_us_space(A.coeffs[0], d, order, "y")
    a1_u = _to_us_space(A.coeff(1), d, order, "y")
    c0_u = _to_us_space(C.coeffs[0], d, order, "x")
    c1_u = _to_us_space(C.coeff(1), d, order, "x")
    lam = chart.volume_density.truncated(order).reindex(d + 1, range(d), (0.0,) * (d + 1))
    sig_l = _sigma_power(ell, d, order)
    sig_lm1 = _sigma_power(ell - 1.0, d, order)

    gamma0 = a0_u * c0_u * lam * sig_l
    gamma1 = (a0_u * c1_u * sig_l + a1_u * c0_u * sig_lm1) * lam
    c0, c1 = expansion_coeffs(data, gamma0, gamma1)
    return c0, c1


def compose_amplitudes_closed(
    A: KernelAmplitude, C: KernelAmplitude, chart: CRModelChart
) -> Tuple[complex, complex]:
    """Closed diagonal formula for the composed coefficients.

    C_0(0,0) = 2 pi^{n+1} A_0 B_0 and the eight-term second coefficient
    combining R, the two Kohn Laplacians, the Reeb derivative weighted by
    2i(n - l), and the horizontal gradient pairing.
    """
    if not (A.y_independent and C.y_independent):
        raise SymbolError("composition needs y-independent amplitudes")
    if min(A.coeffs[0].order, C.coeffs[0].order) < AMPLITUDE_ORDER:
        raise OrderShortfallError("composition needs amplitude jets of order >= 2")
    n = chart.n
    d = chart.dim
    ell = A.top_power
    r0 = tw_scalar_curvature(chart)
    pi_pow = math.pi ** (n + 1)

    u, pinned = list(range(d)), [None] * d
    a0 = A.coeffs[0].reindex(d, pinned + u, (0.0,) * d)  # A_0(0, u)
    b0 = C.coeffs[0].reindex(d, u + pinned, (0.0,) * d)  # B_0(u, 0)
    a0v, a1v = a0.constant_term(), A.coeff(1).constant_term()
    b0v, b1v = b0.constant_term(), C.coeff(1).constant_term()

    grad_pair = 0.0 + 0.0j
    for j in range(2 * n):
        e_j = tuple(1 if k == j else 0 for k in range(d))
        grad_pair += a0.derivative_value(e_j) * b0.derivative_value(e_j)

    c0 = 2.0 * pi_pow * a0v * b0v
    c1 = pi_pow * (
        -a0v * b0v * r0
        + 2.0 * (a0v * b1v + a1v * b0v)
        - a0v * kohn_laplacian_at0(chart, b0)
        - b0v * kohn_laplacian_at0(chart, a0)
        + 2j * (n - ell) * a0v * reeb_derivative_at0(chart, b0)
        + grad_pair
    )
    return c0, c1


def _e0_on_contact_graph(E: ClassicalSymbol, chart: CRModelChart) -> Jet:
    """The principal symbol along x -> (x, -omega_0(x)) as a jet in x, at
    order 2, all the Kohn Laplacian and the Reeb derivative read."""
    d = chart.dim
    order = 2
    inner = [Jet.coordinate(i, d, order, (0.0,) * d) for i in range(d)]
    inner += [(-1.0) * chart.contact_form[b].truncated(order) for b in range(d)]
    return E.components[0].compose(inner)


def toeplitz_b1_closed_form(E: ClassicalSymbol, chart: CRModelChart) -> Tuple[complex, complex]:
    """Closed-form first two Toeplitz coefficients at the base point.

    b_0 = E_0(0) / (2 pi^{n+1}) and 4 pi^{n+1} b_1 = R E_0 - box_b E_0
    + P(e_0) + 2 e_sub - i m T E_0, all evaluated at (0, -omega_0(0)).
    """
    if not E.homogeneous:
        raise SymbolError("closed form requires a homogeneous-flagged symbol")
    n = chart.n
    pi_pow = math.pi ** (n + 1)

    script_e0 = _e0_on_contact_graph(E, chart)
    e0v = script_e0.constant_term()
    r0 = tw_scalar_curvature(chart)
    box_e0 = kohn_laplacian_at0(chart, script_e0)
    reeb_e0 = reeb_derivative_at0(chart, script_e0)
    p_e0 = p_operator_canonical(E.components[0])
    esub, _ = subprincipal_symbol(E, chart.volume_density, 1.0)

    b0 = e0v / (2.0 * pi_pow)
    b1 = (
        r0 * e0v - box_e0 + p_e0 + 2.0 * esub - 1j * E.order_m * reeb_e0
    ) / (4.0 * pi_pow)
    return b0, b1


def toeplitz_b1_pipeline(
    E: ClassicalSymbol,
    chart: CRModelChart,
    phase_data: Optional[PhaseCriticalData] = None,
) -> Tuple[complex, complex]:
    """Stationary-phase route: projector amplitude -> symbol composition ->
    amplitude composition.  Must agree with toeplitz_b1_closed_form."""
    A = szego_amplitude(chart)
    C = qe_amplitude(E, A, chart)
    return compose_amplitudes_sp(A, C, chart, phase_data=phase_data)


def phase_rescale(amplitude: KernelAmplitude, f: Jet) -> KernelAmplitude:
    """Re-express an amplitude given over the phase f * Phi as one over Phi.

    Each coefficient of t^{top_power - j} is divided by f^{top_power - j + 1},
    per the oscillatory-integral identity
    int e^{i t G F} t^m dt = int e^{i t F} t^m / G^{m+1} dt.  Requires
    f(x, x) = 1 as a jet identity; diagonal values of the first two
    coefficients are unchanged, which is the uniqueness statement the tests
    exercise.
    """
    first = amplitude.coeffs[0]
    nv = first.num_vars
    d = nv // 2
    fw = f.truncated(first.order)
    if fw.num_vars != nv:
        raise SymbolError("rescale function must be a jet in (x, y)")
    diag = f.reindex(d, [*range(d), *range(d)], (0.0,) * d).shift_constant(-1.0)
    if diag.max_abs() > 1e-12 * max(f.max_abs(), 1.0):
        raise SymbolError("rescale function must equal 1 on the diagonal")
    out = []
    for j, b in enumerate(amplitude.coeffs):
        power = -(amplitude.top_power - j + 1.0)
        out.append(b * fw.pow_real(power))
    return KernelAmplitude(
        top_power=amplitude.top_power,
        coeffs=tuple(out),
        y_independent=False,
    )


@dataclass(frozen=True)
class SingularParts:
    """First two diagonal-direction Taylor coefficients of the kernel's
    singularity factors: F over the power singularity, G over the log."""

    F: Optional[Jet]
    G: Optional[Jet]


def singularity_representation(amplitude: KernelAmplitude, phase: Jet) -> SingularParts:
    """Kernel singularity factors along the diagonal direction at the origin.

    With N = top_power = n + m: non-integer m gives F only, with
    F ~ sum_j Gamma(N+1-j) b_j (-i phi)^j; integer m with N >= 0 gives (F, G);
    integer m with N < 0 gives G only, with the factorial-reciprocal series.
    Returned jets are order-1 jets in the diagonal parameter.
    """
    first = amplitude.coeffs[0]
    nv = first.num_vars
    d = nv // 2
    n = (d - 1) // 2
    N = amplitude.top_power
    m = N - n

    w = 1
    curve = [None] * (nv - 1) + [0]  # the diagonal direction: only the last y variable moves
    phi_c = phase.with_order(w).reindex(1, curve, (0.0,))
    b_c = [amplitude.coeff(j).truncated(w).reindex(1, curve, (0.0,)) for j in range(2)]
    minus_iphi = (-1j) * phi_c

    is_integer = abs(m - round(m)) < 1e-9
    one = Jet.constant(1, w, (0.0,), 1.0)

    if not is_integer:
        F = b_c[0].scale(math.gamma(N + 1.0))
        F = F + math.gamma(N) * (b_c[1] * minus_iphi)
        return SingularParts(F=F, G=None)

    Nint = int(round(N))
    if Nint >= 0:
        F = Jet.zero(1, w, (0.0,))
        power = one
        for j in range(min(Nint, 1) + 1):
            if j > 0:
                power = power * minus_iphi
            F = F + math.factorial(Nint - j) * (b_c[j] * power)
        G = Jet.zero(1, w, (0.0,))
        power = one
        for j in range(2):
            src = Nint + 1 + j
            if src >= 2:
                break
            if j > 0:
                power = power * minus_iphi
            G = G + ((-1.0) ** (j + 1) / math.factorial(j)) * (b_c[src] * power)
        return SingularParts(F=F, G=G)

    G = Jet.zero(1, w, (0.0,))
    for j in range(2):
        exponent = j - Nint - 1
        power = one
        for _ in range(exponent):
            power = power * minus_iphi
        G = G + ((-1.0) ** (Nint - j) / math.factorial(j - Nint - 1)) * (b_c[j] * power)
    return SingularParts(F=None, G=G)


def random_amplitude(n: int, top_power: float, seed: int) -> KernelAmplitude:
    """Seeded y-independent amplitude pair for cross-route checks."""
    d = 2 * n + 1
    nv = 2 * d
    rng = spawn_rng(seed, "amplitude", n, repr(top_power))
    coeffs = []
    for j in range(2):
        jet = random_jet(rng, nv, AMPLITUDE_ORDER, _xy_base(d), decay=0.5)
        coeffs.append(jet.reindex(nv, [*range(nv - 1), None], _xy_base(d)))  # y_last pinned at 0
    return KernelAmplitude(top_power=top_power, coeffs=tuple(coeffs))
