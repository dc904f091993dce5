"""Truncated multivariate Taylor polynomials (jets) with complex coefficients.

A ``Jet`` stores the Taylor coefficients of a function at a fixed base point,
keyed by exponent multi-index in the displacement from that base point, up to
a truncation order.  All other modules compute exclusively with jets.

Conventions:
  * coefficients are plain Python complex (double precision);
  * storage is sparse, keyed by exponent tuples, iterated in degree-graded
    lexicographic order so that downstream reports are byte-stable;
  * binary arithmetic demands equal num_vars, base_point and order, never
    coercing silently; callers align orders explicitly with ``truncated`` /
    ``with_order``;
  * composition treats jets as exact polynomials in the displacement and
    truncates the result at the inner jets' order (inner displacements carry
    no constant term, so outer terms of higher degree cannot contribute).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import BranchError, CenteringError, CompatibilityError

MultiIndex = Tuple[int, ...]

#: relative magnitude below which coefficients are dropped
PRUNE_REL = 1e-14

#: tolerance for composition centering checks
CENTERING_TOL = 1e-12


def _degree(idx: MultiIndex) -> int:
    return sum(idx)


def _graded_key(idx: MultiIndex):
    return (sum(idx), idx)


@dataclass(frozen=True)
class Jet:
    """Truncated Taylor polynomial at a base point.

    ``coeffs[alpha]`` is the coefficient of ``prod(dx_i**alpha_i)`` where
    ``dx = point - base_point``.  Absent keys mean zero.
    """

    num_vars: int
    order: int
    base_point: Tuple[complex, ...]
    coeffs: Dict[MultiIndex, complex]
    _graded: Tuple[Tuple[MultiIndex, complex], ...] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self):
        if self.num_vars < 1:
            raise CompatibilityError("jet needs at least one variable")
        if self.order < 0:
            raise CompatibilityError("jet order must be non-negative")
        if len(self.base_point) != self.num_vars:
            raise CompatibilityError("base point length != num_vars")
        object.__setattr__(self, "base_point", tuple(complex(v) for v in self.base_point))
        object.__setattr__(self, "coeffs", _normalize(self.coeffs, self.num_vars, self.order))

    @classmethod
    def _raw(cls, num_vars, order, base_point, coeffs) -> "Jet":
        """Internal fast path: indices are trusted, only pruning is applied."""
        out = object.__new__(cls)
        object.__setattr__(out, "num_vars", num_vars)
        object.__setattr__(out, "order", order)
        object.__setattr__(out, "base_point", base_point)
        object.__setattr__(out, "coeffs", _prune(coeffs))
        object.__setattr__(out, "_graded", None)
        return out

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def constant(num_vars: int, order: int, base_point: Sequence[complex], value: complex) -> "Jet":
        zero = (0,) * num_vars
        return Jet(num_vars, order, tuple(base_point), {zero: complex(value)})

    @staticmethod
    def zero(num_vars: int, order: int, base_point: Sequence[complex]) -> "Jet":
        return Jet(num_vars, order, tuple(base_point), {})

    @staticmethod
    def coordinate(i: int, num_vars: int, order: int, base_point: Sequence[complex]) -> "Jet":
        """The coordinate function x_i = base_i + dx_i as a jet."""
        base = tuple(base_point)
        coeffs: Dict[MultiIndex, complex] = {}
        if base[i] != 0:
            coeffs[(0,) * num_vars] = complex(base[i])
        if order >= 1:
            e = [0] * num_vars
            e[i] = 1
            coeffs[tuple(e)] = 1.0 + 0.0j
        return Jet(num_vars, order, base, coeffs)

    @staticmethod
    def displacement(i: int, num_vars: int, order: int, base_point: Sequence[complex]) -> "Jet":
        """The displacement dx_i (no constant term)."""
        if order < 1:
            return Jet.zero(num_vars, order, base_point)
        e = [0] * num_vars
        e[i] = 1
        return Jet(num_vars, order, tuple(base_point), {tuple(e): 1.0 + 0.0j})

    # -- basic queries ---------------------------------------------------------

    def graded_items(self) -> Tuple[Tuple[MultiIndex, complex], ...]:
        """Coefficients in degree-graded lexicographic order (cached)."""
        if self._graded is None:
            items = tuple(sorted(self.coeffs.items(), key=lambda kv: _graded_key(kv[0])))
            object.__setattr__(self, "_graded", items)
        return self._graded

    def _graded_with_degrees(self):
        return [(sum(idx), idx, c) for idx, c in self.graded_items()]

    def coefficient(self, idx: MultiIndex) -> complex:
        return self.coeffs.get(tuple(idx), 0.0 + 0.0j)

    def constant_term(self) -> complex:
        return self.coeffs.get((0,) * self.num_vars, 0.0 + 0.0j)

    def derivative_value(self, idx: MultiIndex) -> complex:
        """Value of the mixed partial d^idx at the base point."""
        fac = 1.0
        for a in idx:
            fac *= math.factorial(a)
        return self.coefficient(idx) * fac

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def is_compatible(self, other: "Jet") -> bool:
        return (
            self.num_vars == other.num_vars
            and self.order == other.order
            and self.base_point == other.base_point
        )

    def _require_compatible(self, other: "Jet", what: str) -> None:
        if not isinstance(other, Jet):
            raise CompatibilityError(f"{what}: operand is not a Jet")
        if self.num_vars != other.num_vars:
            raise CompatibilityError(f"{what}: num_vars {self.num_vars} != {other.num_vars}")
        if self.order != other.order:
            raise CompatibilityError(f"{what}: order {self.order} != {other.order}")
        if self.base_point != other.base_point:
            raise CompatibilityError(f"{what}: base points differ")

    # -- order management -------------------------------------------------------

    def truncated(self, order: int) -> "Jet":
        """Drop coefficients of total degree above ``order``."""
        if order >= self.order:
            return self if order == self.order else self.with_order(order)
        kept = {k: v for k, v in self.coeffs.items() if _degree(k) <= order}
        return Jet._raw(self.num_vars, order, self.base_point, kept)

    def with_order(self, order: int) -> "Jet":
        """Reinterpret as a jet of the given order.

        Raising the order treats the jet as an exact polynomial (absent high
        coefficients are zero); lowering it truncates.
        """
        if order == self.order:
            return self
        if order < self.order:
            return self.truncated(order)
        return Jet._raw(self.num_vars, order, self.base_point, dict(self.coeffs))

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other: "Jet") -> "Jet":
        self._require_compatible(other, "add")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) + v
        return Jet._raw(self.num_vars, self.order, self.base_point, out)

    def __sub__(self, other: "Jet") -> "Jet":
        self._require_compatible(other, "sub")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) - v
        return Jet._raw(self.num_vars, self.order, self.base_point, out)

    def __neg__(self) -> "Jet":
        return self.scale(-1.0)

    def scale(self, c: complex) -> "Jet":
        c = complex(c)
        return Jet._raw(
            self.num_vars,
            self.order,
            self.base_point,
            {k: c * v for k, v in self.coeffs.items()},
        )

    def __mul__(self, other):
        if isinstance(other, Jet):
            return self._mul_jet(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def _mul_jet(self, other: "Jet") -> "Jet":
        self._require_compatible(other, "mul")
        order = self.order
        out: Dict[MultiIndex, complex] = {}
        left = self._graded_with_degrees()
        right = other._graded_with_degrees()
        if len(left) > len(right):
            left, right = right, left
        for da, ia, ca in left:
            cut = order - da
            for db, ib, cb in right:
                if db > cut:
                    break  # right is graded, all following are larger
                key = tuple(a + b for a, b in zip(ia, ib))
                out[key] = out.get(key, 0.0) + ca * cb
        return Jet._raw(self.num_vars, order, self.base_point, out)

    def shift_constant(self, c: complex) -> "Jet":
        out = dict(self.coeffs)
        zero = (0,) * self.num_vars
        out[zero] = out.get(zero, 0.0) + complex(c)
        return Jet._raw(self.num_vars, self.order, self.base_point, out)

    # -- calculus -----------------------------------------------------------------

    def partial(self, var_index: int) -> "Jet":
        """Formal partial derivative; the order drops by one (floor at zero)."""
        if not 0 <= var_index < self.num_vars:
            raise CompatibilityError(f"partial: bad variable index {var_index}")
        new_order = max(self.order - 1, 0)
        out: Dict[MultiIndex, complex] = {}
        for idx, c in self.coeffs.items():
            a = idx[var_index]
            if a == 0:
                continue
            nidx = list(idx)
            nidx[var_index] = a - 1
            out[tuple(nidx)] = a * c
        return Jet._raw(self.num_vars, new_order, self.base_point, out)

    def conjugate(self) -> "Jet":
        """Coefficient-wise conjugate (valid when the variables are real)."""
        return Jet._raw(
            self.num_vars,
            self.order,
            tuple(v.conjugate() for v in self.base_point),
            {k: v.conjugate() for k, v in self.coeffs.items()},
        )

    # -- composition and evaluation --------------------------------------------------

    def compose(self, inner: Sequence["Jet"]) -> "Jet":
        """Substitute ``inner[k]`` for the k-th variable of this jet.

        The inner jets must share num_vars/order/base and be centered: the
        constant term of inner[k] must equal this jet's base_point[k].  To
        substitute one inner map into many jets, prepare it once with
        ``Substitution``.
        """
        return Substitution(inner).apply(self)

    def eval(self, displacement: Sequence[complex]) -> complex:
        """Evaluate the truncated polynomial at base_point + displacement."""
        if len(displacement) != self.num_vars:
            raise CompatibilityError("eval: displacement length != num_vars")
        disp = [complex(d) for d in displacement]
        powers = [_scalar_powers(d, self.order) for d in disp]
        total = 0.0 + 0.0j
        for idx, c in self.graded_items():
            term = c
            for k, a in enumerate(idx):
                if a:
                    term *= powers[k][a]
            total += term
        return total

    def eval_many(self, displacements: np.ndarray) -> np.ndarray:
        """Vectorized ``eval`` over rows of a (num_points, num_vars) array."""
        pts = np.asarray(displacements, dtype=complex)
        items = self.graded_items()
        if not items:
            return np.zeros(pts.shape[0], dtype=complex)
        exps = np.array([idx for idx, _ in items])
        cs = np.array([c for _, c in items])
        monomials = np.prod(pts[:, None, :] ** exps[None, :, :], axis=2)
        return monomials @ cs

    # -- series inverses / transcendental maps ------------------------------------------

    def invert(self) -> "Jet":
        """Multiplicative inverse; requires a nonzero constant term."""
        c = self.constant_term()
        if c == 0:
            raise BranchError("invert: zero constant term")
        u = self.shift_constant(-c).scale(1.0 / c)  # a = c (1 + u), u has no constant
        acc = Jet.constant(self.num_vars, self.order, self.base_point, 1.0)
        term = acc
        for _ in range(self.order):
            term = -1.0 * (term * u)
            acc = acc + term
        return acc.scale(1.0 / c)

    def _reduced_series(self, tail_coeffs: Iterable[complex]) -> "Jet":
        """sum_k tail_coeffs[k] * u^k where self = c(1+u); tail_coeffs[0] is the k=0 term."""
        c = self.constant_term()
        u = self.shift_constant(-c).scale(1.0 / c)
        acc = Jet.zero(self.num_vars, self.order, self.base_point)
        power = Jet.constant(self.num_vars, self.order, self.base_point, 1.0)
        for k, a in enumerate(tail_coeffs):
            if k > 0:
                power = power * u
            if a != 0:
                acc = acc + power.scale(a)
        return acc

    def pow_real(self, exponent: float) -> "Jet":
        """Principal-branch real power; requires Re(constant term) > 0."""
        c = self.constant_term()
        if c.real <= 0:
            raise BranchError(f"pow_real: constant term {c} not in the right half plane")
        binom = [1.0 + 0.0j]
        for k in range(1, self.order + 1):
            binom.append(binom[-1] * (exponent - k + 1) / k)
        series = self._reduced_series(binom)
        return series.scale(complex(c) ** exponent)

    def log(self) -> "Jet":
        """Principal-branch logarithm; requires Re(constant term) > 0."""
        c = self.constant_term()
        if c.real <= 0:
            raise BranchError(f"log: constant term {c} not in the right half plane")
        coeffs = [0.0 + 0.0j]
        for k in range(1, self.order + 1):
            coeffs.append(((-1.0) ** (k + 1)) / k)
        series = self._reduced_series(coeffs)
        return series.shift_constant(np.log(complex(c)))

    def exp(self) -> "Jet":
        c = self.constant_term()
        u = self.shift_constant(-c)
        acc = Jet.constant(self.num_vars, self.order, self.base_point, 1.0)
        term = acc
        for k in range(1, self.order + 1):
            term = (term * u).scale(1.0 / k)
            acc = acc + term
        return acc.scale(np.exp(complex(c)))


def _normalize(coeffs: Dict[MultiIndex, complex], num_vars: int, order: int) -> Dict[MultiIndex, complex]:
    clean: Dict[MultiIndex, complex] = {}
    for idx, c in coeffs.items():
        idx = tuple(int(a) for a in idx)
        if len(idx) != num_vars:
            raise CompatibilityError(f"multi-index {idx} has wrong length")
        if any(a < 0 for a in idx):
            raise CompatibilityError(f"multi-index {idx} has a negative entry")
        if _degree(idx) > order:
            continue
        c = complex(c)
        if c != 0:
            clean[idx] = clean.get(idx, 0.0) + c
    return _prune(clean)


def _prune(coeffs: Dict[MultiIndex, complex]) -> Dict[MultiIndex, complex]:
    if not coeffs:
        return {}
    top = max(abs(c) for c in coeffs.values())
    cutoff = PRUNE_REL * top
    return {k: v for k, v in coeffs.items() if abs(v) > cutoff}


class Substitution:
    """An inner map of ``Jet.compose``, validated and stripped once.

    ``apply(outer)`` equals ``outer.compose(inner)`` bit for bit.  The table of
    monomial powers of the inner displacements fills lazily and is shared by
    every outer jet the substitution is applied to; an entry depends only on
    its multi-index, so reuse changes no value.  When every displacement is
    zero or a single unit-coefficient degree-1 monomial (variable lifts,
    restrictions, slot zeroing), ``apply`` re-indexes exponents and makes no
    products.
    """

    def __init__(self, inner: Sequence[Jet]):
        inner = tuple(inner)
        if not inner:
            raise CenteringError("compose: no inner jets")
        first = inner[0]
        for g in inner[1:]:
            first._require_compatible(g, "compose inner")
        self.num_inner = len(inner)
        self.num_vars = first.num_vars
        self.order = first.order
        self.base_point = first.base_point
        self._constants = tuple(g.constant_term() for g in inner)
        self._scale = max([g.max_abs() for g in inner] + [1.0])
        zero = (0,) * first.num_vars
        deltas: List[Jet] = []
        for g in inner:
            stripped = dict(g.coeffs)
            stripped.pop(zero, None)
            deltas.append(Jet._raw(g.num_vars, self.order, g.base_point, stripped))
        self._deltas = deltas
        self._targets = _unit_targets(deltas)
        one = Jet.constant(first.num_vars, self.order, first.base_point, 1.0)
        self._powers: Dict[MultiIndex, Jet] = {(0,) * self.num_inner: one}

    def apply(self, outer: Jet) -> Jet:
        """``outer`` with ``inner[k]`` substituted for its k-th variable."""
        if self.num_inner != outer.num_vars:
            raise CenteringError(
                f"compose: {self.num_inner} inner jets for {outer.num_vars} outer variables"
            )
        for k, c0 in enumerate(self._constants):
            if abs(c0 - outer.base_point[k]) > CENTERING_TOL * self._scale:
                raise CenteringError(
                    f"compose: inner jet {k} has constant term {c0} "
                    f"but outer base is {outer.base_point[k]}"
                )
        order = self.order
        acc: Dict[MultiIndex, complex] = {}
        if self._targets is not None:
            targets, nv = self._targets, self.num_vars
            for idx, c in outer.graded_items():
                if _degree(idx) > order:
                    continue
                key = [0] * nv
                for k, a in enumerate(idx):
                    if a:
                        t = targets[k]
                        if t is None:
                            break  # a zero displacement kills the monomial
                        key[t] += a
                else:
                    key = tuple(key)
                    # 0.0 + c, as in the general path, where c * 1 may carry
                    # another zero sign but the accumulated sum cannot
                    acc[key] = acc.get(key, 0.0) + c
        else:
            for idx, c in outer.graded_items():
                if _degree(idx) > order:
                    continue  # cannot contribute below truncation
                power = _monomial_power(idx, self._deltas, self._powers)
                for k, v in power.coeffs.items():
                    acc[k] = acc.get(k, 0.0) + c * v
        return Jet._raw(self.num_vars, order, self.base_point, acc)


def _unit_targets(deltas: Sequence[Jet]):
    """Per displacement, the variable it equals (None for zero), if every
    displacement is zero or one unit-coefficient degree-1 monomial; else None."""
    targets = []
    for g in deltas:
        if not g.coeffs:
            targets.append(None)
            continue
        if len(g.coeffs) != 1:
            return None
        (idx, c), = g.coeffs.items()
        if c != 1 or _degree(idx) != 1:
            return None
        targets.append(idx.index(1))
    return targets


def _monomial_power(idx: MultiIndex, deltas: Sequence[Jet], cache: Dict[MultiIndex, Jet]) -> Jet:
    """prod_k deltas[k]**idx[k], memoized along graded predecessors."""
    hit = cache.get(idx)
    if hit is not None:
        return hit
    k = max(i for i, a in enumerate(idx) if a > 0)
    pred = list(idx)
    pred[k] -= 1
    value = _monomial_power(tuple(pred), deltas, cache) * deltas[k]
    cache[idx] = value
    return value


def _scalar_powers(d: complex, order: int) -> List[complex]:
    out = [1.0 + 0.0j]
    for _ in range(order):
        out.append(out[-1] * d)
    return out


def max_coeff_difference(a: Jet, b: Jet) -> float:
    """Largest coefficient deviation between two compatible jets."""
    a._require_compatible(b, "difference")
    keys = set(a.coeffs) | set(b.coeffs)
    return max((abs(a.coefficient(k) - b.coefficient(k)) for k in keys), default=0.0)


def random_jet(
    rng,
    num_vars: int,
    order: int,
    base_point: Sequence[complex],
    scale: float = 1.0,
    decay: float = 0.5,
    real: bool = False,
    min_degree: int = 0,
) -> Jet:
    """Dense random jet with per-degree geometric damping of magnitudes."""
    coeffs: Dict[MultiIndex, complex] = {}
    for idx in iter_multi_indices(num_vars, order):
        d = _degree(idx)
        if d < min_degree:
            continue
        mag = scale * decay**d
        if real:
            coeffs[idx] = complex(rng.standard_normal()) * mag
        else:
            coeffs[idx] = (rng.standard_normal() + 1j * rng.standard_normal()) * mag
    return Jet(num_vars, order, tuple(base_point), coeffs)


def iter_multi_indices(num_vars: int, order: int):
    """All exponent tuples with total degree <= order, in graded lex order."""

    def bounded(total: int, slots: int):
        if slots == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in bounded(total - head, slots - 1):
                yield (head,) + rest

    for d in range(order + 1):
        yield from sorted(bounded(d, num_vars))
