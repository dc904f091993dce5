"""Truncated multivariate Taylor polynomials (jets) with complex coefficients.

A ``Jet`` stores the Taylor coefficients of a function at a fixed base point,
indexed by exponent multi-index in the displacement from that base point, up
to a truncation order.  All other modules compute exclusively with jets.

Conventions:
  * coefficients are one complex128 vector over the monomials of total degree
    <= order in degree-graded lexicographic order; a lower order's basis is a
    prefix of a higher order's, so truncation is a slice and one cached basis
    per num_vars serves every order;
  * the basis tables (exponents, ascending monomial keys, degree offsets,
    partial-derivative gathers, graded predecessors, product tables) are
    built with numpy on first use, at the order asked; importing this module
    builds none.  One multi-index's position is one lookup in a dict that
    grows to the degree of the multi-index asked;
  * a product gathers one cached table of every monomial pair of its shape,
    C(2v+k, k) rows at (v, k), up to PRODUCT_TABLE_ROWS rows; above that, or
    when the operands are sparse, it pairs their nonzeros.  It rounds each
    term as Python's complex product does and sums the terms of one
    coefficient in graded order of the sparser operand, so results do not
    depend on numpy's vector kernels.  Zero terms move no bit (the zero-term
    rule): a sum starts at +0, never holds -0, and adding +-0 is exact, so a
    caller may skip a product with an empty-support factor;
  * ``reindex`` caches its source and destination positions per variable
    map, and moves every row of a batch with one ``bincount``;
  * ``coeffs`` (a dict of the nonzero entries) and ``graded_items`` are read
    from the vector on demand, in graded order, so downstream reports are
    byte-stable;
  * binary arithmetic demands equal num_vars, base_point and order, never
    coercing silently; callers align orders explicitly with ``truncated`` /
    ``with_order``;
  * composition treats jets as exact polynomials in the displacement and
    truncates the result at the inner jets' order (inner displacements carry
    no constant term, so outer terms of higher degree cannot contribute);
  * a batch (``Jet.stack``) has a leading row axis, a vector of shape
    (rows, size), for many jets of one shape and base point evaluated
    together (vector forward mode).  +, -, ``scale``, ``shift_constant``,
    ``truncated``, ``with_order``, ``partial`` and products act row-wise
    and broadcast a single jet against a batch; batches of different row
    counts do not mix.  A product has one code path, in which a single jet
    is the one-row case, so each row of a batch product is bit for bit its
    own single product.  ``support`` is the union of the rows' nonzeros;
    ``constant_term``, ``coefficient``, ``derivative_at`` and the values
    of ``graded_items`` / ``coeffs`` are per-row arrays, +0 for zero.
    Composition substitutes into every row of a batch (its inner jets are
    single); ``eval_many`` and the series methods take single jets only.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BranchError, CenteringError, CompatibilityError
from .rng import standard_normals

MultiIndex = Tuple[int, ...]

#: tolerance for composition centering checks
CENTERING_TOL = 1e-12

#: the largest product table cached per shape, in rows; a cap of 10**6 rows took
#: the default suite from 0.83 s and 44 MB to 1.14 s and 124 MB (2-vCPU Xeon)
PRODUCT_TABLE_ROWS = 4096


class _Basis:
    """The graded-lex monomial basis in num_vars variables, up to ``order``.

    A lower order's basis is a prefix of a higher order's, so one table
    serves every order up to its own: a jet of order o uses the first
    ``size(o)`` monomials, and a monomial's position never depends on o.  A
    monomial's key is degree * R**num_vars plus its exponents read as
    mixed-radix digits (radix R = order + 1, first variable most
    significant).  Ascending keys are the graded-lex order, which the table
    is built in without a sort, and the key is linear in the exponents, so a
    product monomial's key is the sum of its factors' keys; positions are
    found by binary search over the keys.
    """

    def __init__(self, num_vars: int, order: int):
        radix = order + 1
        if radix ** (num_vars + 1) >= 2**62:
            raise CompatibilityError(f"jet shape ({num_vars}, {order}) is too large to index")
        self.num_vars = num_vars
        self.order = order
        degrees, digits, parents = np.zeros(1, dtype=np.int64), [], []
        for _ in range(num_vars):  # append one exponent column, within the degree budget
            room = order + 1 - degrees
            parent = np.repeat(np.arange(len(degrees)), room)
            digit = np.arange(len(parent)) - np.repeat(np.cumsum(room) - room, room)
            degrees = degrees[parent] + digit
            digits.append(digit)
            parents.append(parent)
        # the rows are in lex order, first variable most significant: within one
        # degree that is key order, so a stable partition by degree is graded-lex
        row = np.concatenate([(degrees == g).nonzero()[0] for g in range(order + 1)])
        self.degrees = degrees[row]
        self.exponents = np.empty((len(row), num_vars), dtype=np.int64)
        for var in range(num_vars - 1, -1, -1):
            self.exponents[:, var] = digits[var][row]
            row = parents[var][row]
        self.key_weights = radix**num_vars + radix ** np.arange(num_vars - 1, -1, -1, dtype=np.int64)
        self.keys = self.exponents @ self.key_weights
        #: degree_start[d] = number of monomials of degree < d
        self.degree_start = self.degrees.searchsorted(np.arange(order + 2))
        self._sizes = self.degree_start.tolist()
        #: multi-index -> position, over the monomials of degree <= _indexed
        self._index: Dict[MultiIndex, int] = {}
        self._indexed = -1

    def size(self, order: int) -> int:
        """Number of monomials of degree <= order."""
        return self._sizes[order + 1]

    def locate(self, exponents: np.ndarray) -> np.ndarray:
        """Positions of rows of exponents, each of degree <= order."""
        return self.keys.searchsorted(exponents @ self.key_weights)

    def position(self, idx: Sequence[int], order: int):
        """Position of one multi-index if it has degree <= order, else None;
        a key of the wrong length or with a negative entry raises.  One
        lookup in the index; a miss grows it to the degree of ``idx``, never
        past ``order``."""
        idx = tuple(idx)
        p = self._index.get(idx)
        if p is not None:
            return p if p < self._sizes[order + 1] else None
        if len(idx) != self.num_vars:
            raise CompatibilityError(f"multi-index {idx} has wrong length")
        if min(idx) < 0:
            raise CompatibilityError(f"multi-index {idx} has a negative entry")
        degree = int(sum(idx))
        if not self._indexed < degree <= order:
            return None
        start, stop = len(self._index), self._sizes[degree + 1]
        self._index.update(zip(map(tuple, self.exponents[start:stop].tolist()), range(start, stop)))
        self._indexed = degree
        return self._index.get(idx)

    def pairs(self, first: np.ndarray, second: np.ndarray, order: int):
        """Rows (i, j, k) of the product table at ``order`` with i in ``first``
        and j in ``second`` (both ascending): per i, every j of degree
        <= order - deg i, in order, and k the position of monomial i times j."""
        counts = second.searchsorted(self.degree_start[order + 1 - self.degrees[first]])
        ends = counts.cumsum()
        i = first.repeat(counts)
        j = second[np.arange(ends[-1]) - (ends - counts).repeat(counts)]
        return i, j, self.keys.searchsorted(self.keys[i] + self.keys[j])

    def products(self, order: int):
        """``pairs`` of every monomial pair at ``order`` (cached per shape), or None above the cap."""
        key = (self.num_vars, order)
        if key not in _PRODUCTS:
            every = np.arange(self.size(order))
            fits = math.comb(2 * self.num_vars + order, order) <= PRODUCT_TABLE_ROWS
            _PRODUCTS[key] = self.pairs(every, every, order) if fits else None
        return _PRODUCTS[key]

    @functools.cached_property
    def predecessors(self):
        """Per monomial, its last variable k and the position of the monomial / dx_k."""
        last = self.num_vars - 1 - np.argmax(self.exponents[:, ::-1] != 0, axis=1)
        return last, self.keys.searchsorted(self.keys - self.key_weights[last])

    @functools.cached_property
    def partials(self):
        """Per variable v, the gather of d/dx_v: over the basis up to order - 1,
        d/dx_v of a vector is vector[source] * (exponents[:, v] + 1)."""
        size = self.degree_start[self.order]
        return [self.keys.searchsorted(self.keys[:size] + self.key_weights[v]) for v in range(self.num_vars)]


#: the basis per num_vars; built on first use
_BASES: Dict[int, _Basis] = {}

#: product tables per (num_vars, order), None above the cap; built on first use
_PRODUCTS: Dict[Tuple[int, int], Optional[tuple]] = {}

#: reindex (source, destination) positions per (num_vars in, out, targets, order)
_REINDEX_MAPS: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}


def _basis(num_vars: int, order: int) -> _Basis:
    """The cached basis in num_vars variables, rebuilt at ``order`` when that exceeds its own."""
    basis = _BASES.get(num_vars)
    if basis is None or basis.order < order:
        basis = _BASES[num_vars] = _Basis(num_vars, order)
    return basis


def _cmul_parts(x, y):
    """Real and imaginary parts of x * y, rounded as Python's complex product
    (numpy's complex multiply may fuse them, which moves the last bit)."""
    return x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real


def gauss_solve(a, rhs=None):
    """(a^-1 rhs, det a), a^-1 itself without rhs, by Gaussian elimination with partial pivoting in Python complex
    scalars, one order of operations on every CPU (no LAPACK): the pivot is the first row of largest |a_ik|, a zero
    multiplier or entry updates nothing, det is the signed product of the pivots, and a zero pivot gives (None, 0j)."""
    m, det = len(a), 1.0 + 0.0j
    b = np.eye(m) if rhs is None else np.asarray(rhs)
    rows = [list(map(complex, r + s)) for r, s in zip(np.asarray(a).tolist(), b.reshape(m, -1).tolist())]
    for k in range(m):
        p = max(range(k, m), key=lambda i: abs(rows[i][k]))
        if not rows[p][k]:
            return None, 0.0j
        rows[k], rows[p], det = rows[p], rows[k], det if p == k else -det
        det *= rows[k][k]
        for i in range(k + 1, m):
            f = rows[i][k] / rows[k][k]
            if f:
                rows[i][k + 1 :] = [x - f * y if y else x for x, y in zip(rows[i][k + 1 :], rows[k][k + 1 :])]
    for i in reversed(range(m)):  # back substitution, x_j in place of row j's right-hand side
        for j in range(i + 1, m):
            if rows[i][j]:
                rows[i][m:] = [s - rows[i][j] * t if t else s for s, t in zip(rows[i][m:], rows[j][m:])]
        rows[i][m:] = [s / rows[i][i] for s in rows[i][m:]]
    return np.array([r[m:] for r in rows]).reshape(b.shape), det


def _scatter_sum(k: np.ndarray, re: np.ndarray, im: np.ndarray, size: int) -> np.ndarray:
    """Vector whose entry p sums the (re, im) terms with k == p, in input order;
    of (rows, terms) arrays, one such vector per row, by one ``bincount`` over
    row-offset positions (k is shared by the rows or given per row)."""
    if re.ndim == 2:
        k = (k + size * np.arange(len(re))[:, None]).ravel()
        return _scatter_sum(k, re.ravel(), im.ravel(), len(re) * size).reshape(len(re), size)
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(k, re, size)
    out.imag = np.bincount(k, im, size)
    return out


def _entry(value) -> complex:
    """A stored coefficient; zero of either sign reads as +0, like an absent one."""
    return complex(value) if value else 0.0 + 0.0j


def _entries(values: np.ndarray) -> np.ndarray:
    """Stored coefficients of a batch; zero of either sign reads as +0, as in ``_entry``."""
    return np.where(values != 0, values, 0.0)


def _max_abs(vector: np.ndarray) -> float:
    # hypot, as Python's abs(complex); numpy's complex abs may differ in the last bit
    return float(np.hypot(vector.real, vector.imag).max())


class Jet:
    """Truncated Taylor polynomial at a base point.

    ``vector[p]`` is the coefficient of ``prod(dx_i**alpha_i)`` for the p-th
    multi-index alpha of the graded-lex basis, where
    ``dx = point - base_point``.  ``coeffs`` maps each multi-index with a
    nonzero coefficient to it.  The vector is read-only.  In a batch
    (``Jet.stack``), ``vector[r, p]`` is that coefficient of row r.
    """

    __slots__ = ("num_vars", "order", "base_point", "vector", "basis", "_support", "_graded", "_coeffs")

    def __init__(
        self, num_vars: int, order: int, base_point: Sequence[complex], coeffs: Dict[MultiIndex, complex]
    ):
        zero = Jet.zero(num_vars, order, base_point)  # checks the shape
        basis, vector = zero.basis, np.zeros(zero.vector.size, dtype=complex)
        for idx, c in coeffs.items():
            p = basis.position(tuple(map(int, idx)), order)
            if p is not None:
                vector[p] += complex(c)
        vector.flags.writeable = False
        self.num_vars, self.order, self.base_point, self.vector = num_vars, order, zero.base_point, vector
        self.basis, self._support, self._graded, self._coeffs = basis, None, None, None

    @classmethod
    def _from_vector(cls, basis, order, base_point, vector) -> "Jet":
        """Internal fast path: the vector is trusted and owned by the new jet."""
        vector.flags.writeable = False
        out = object.__new__(cls)
        out.num_vars, out.order, out.base_point, out.vector = basis.num_vars, order, base_point, vector
        out.basis, out._support, out._graded, out._coeffs = basis, None, None, None
        return out

    def _like(self, vector, order=None) -> "Jet":
        """``_from_vector`` with this jet's basis, base point and (unless given) order."""
        vector.flags.writeable = False
        out = object.__new__(Jet)
        out.num_vars, out.base_point, out.vector, out.basis = self.num_vars, self.base_point, vector, self.basis
        out.order, out._support, out._graded, out._coeffs = self.order if order is None else order, None, None, None
        return out

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _single(num_vars: int, order: int, base_point: Sequence[complex], position: int, value) -> "Jet":
        """The jet whose entry at ``position`` is +0 + value, every other +0."""
        if num_vars < 1:
            raise CompatibilityError("jet needs at least one variable")
        if order < 0:
            raise CompatibilityError("jet order must be non-negative")
        if len(base_point) != num_vars:
            raise CompatibilityError("base point length != num_vars")
        basis, base_point = _basis(num_vars, order), tuple(map(complex, base_point))
        vector = np.zeros(basis.size(order), dtype=complex)
        vector[position] += value
        return Jet._from_vector(basis, order, base_point, vector)

    @staticmethod
    def constant(num_vars: int, order: int, base_point: Sequence[complex], value: complex) -> "Jet":
        return Jet._single(num_vars, order, base_point, 0, complex(value))

    @staticmethod
    def zero(num_vars: int, order: int, base_point: Sequence[complex]) -> "Jet":
        return Jet._single(num_vars, order, base_point, 0, 0.0)

    @staticmethod
    def coordinate(i: int, num_vars: int, order: int, base_point: Sequence[complex]) -> "Jet":
        """The coordinate function x_i = base_i + dx_i as a jet."""
        return Jet.displacement(i, num_vars, order, base_point).shift_constant(base_point[i])

    @staticmethod
    def displacement(i: int, num_vars: int, order: int, base_point: Sequence[complex]) -> "Jet":
        """The displacement dx_i (no constant term)."""
        if not 0 <= i < num_vars:
            raise CompatibilityError(f"displacement: bad variable index {i}")
        # the degree-1 monomials run dx_{num_vars-1}, ..., dx_0; order 0 keeps none
        return Jet._single(num_vars, order, base_point, num_vars - i if order else 0, float(order > 0))

    @staticmethod
    def stack(jets: Sequence["Jet"]) -> "Jet":
        """A batch whose row r is ``jets[r]``: single jets of one num_vars,
        order and base point."""
        jets = tuple(jets)
        if not jets:
            raise CompatibilityError("stack: no jets")
        for g in jets:
            g._require_single("stack")
            jets[0]._require_compatible(g, "stack")
        return jets[0]._like(np.stack([g.vector for g in jets]))

    # -- basic queries ---------------------------------------------------------

    @property
    def rows(self) -> Optional[int]:
        """The number of rows of a batch; None for a single jet."""
        return len(self.vector) if self.vector.ndim == 2 else None

    def _require_single(self, what: str) -> None:
        if self.vector.ndim != 1:
            raise CompatibilityError(f"{what}: operand is a batch; this operation takes single jets")

    @property
    def support(self) -> np.ndarray:
        """Basis positions of the nonzero coefficients, ascending (cached); of
        a batch, the positions nonzero in some row."""
        if self._support is None:
            nonzero = self.vector if self.vector.ndim == 1 else self.vector.any(axis=0)
            self._support = nonzero.nonzero()[0]
        return self._support

    def _nonzeros(self):
        """Nonzero entries per row of a batch; of a single jet, its support's size."""
        return self.support.size if self.vector.ndim == 1 else np.count_nonzero(self.vector, axis=-1)

    def graded_items(self) -> Tuple[Tuple[MultiIndex, complex], ...]:
        """Nonzero coefficients in degree-graded lexicographic order (cached);
        of a batch, the per-row values (an array, +0 for zero) at each
        position of ``support``."""
        if self._graded is None:
            support = self.support
            indices = map(tuple, self.basis.exponents[support].tolist())
            if self.vector.ndim == 1:
                values = self.vector[support].tolist()
            else:
                values = list(_entries(self.vector[:, support]).T)
            self._graded = tuple(zip(indices, values))
        return self._graded

    @property
    def coeffs(self) -> Dict[MultiIndex, complex]:
        """The nonzero coefficients keyed by multi-index (built once; do not mutate)."""
        if self._coeffs is None:
            self._coeffs = dict(self.graded_items())
        return self._coeffs

    def coefficient(self, idx: MultiIndex) -> complex:
        """One coefficient; of a batch, its per-row array."""
        p = self.basis.position(idx, self.order)
        if self.vector.ndim == 2:
            return np.zeros(len(self.vector), dtype=complex) if p is None else _entries(self.vector[:, p])
        return 0.0 + 0.0j if p is None else _entry(self.vector[p])

    def constant_term(self) -> complex:
        """The value at the base point; of a batch, its per-row array."""
        if self.vector.ndim == 2:
            return _entries(self.vector[:, 0])
        return _entry(self.vector[0])

    def derivative_at(self, *variables: int) -> complex:
        """d/dx_{v1} ... d/dx_{vk} at the base point (a repeated variable is a higher power): the
        coefficient times prod alpha_i!; of a batch, per row, each scaled with Python's complex product."""
        idx = tuple(map(variables.count, range(self.num_vars)))
        if sum(idx) != len(variables):
            raise CompatibilityError(f"derivative_at: bad variable index in {variables}")
        coeff, fac = self.coefficient(idx), float(math.prod(map(math.factorial, idx)))
        if self.vector.ndim == 2:
            return np.array([c * fac for c in coeff.tolist()], dtype=complex)
        return coeff * fac

    def max_abs(self) -> float:
        return _max_abs(self.vector)

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
        if self.vector.ndim + other.vector.ndim == 4 and len(self.vector) != len(other.vector):
            raise CompatibilityError(f"{what}: batches of {len(self.vector)} and {len(other.vector)} rows")

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self.is_compatible(other) and bool(np.array_equal(self.vector, other.vector))

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"Jet(num_vars={self.num_vars}, order={self.order}, "
            f"base_point={self.base_point}, coeffs={self.coeffs})"
        )

    # -- order management -------------------------------------------------------

    def truncated(self, order: int) -> "Jet":
        """Drop coefficients of total degree above ``order``."""
        if order >= self.order:
            return self if order == self.order else self.with_order(order)
        return self._like(self.vector[..., : self.basis.size(order)], order)

    def with_order(self, order: int) -> "Jet":
        """Reinterpret as a jet of the given order.

        Raising the order treats the jet as an exact polynomial (absent high
        coefficients are zero); lowering it truncates.
        """
        if order <= self.order:
            return self.truncated(order)
        basis = _basis(self.num_vars, order)
        vector = np.zeros(self.vector.shape[:-1] + (basis.size(order),), dtype=complex)
        vector[..., : self.vector.shape[-1]] = self.vector
        return Jet._from_vector(basis, order, self.base_point, vector)

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other: "Jet") -> "Jet":
        self._require_compatible(other, "add")
        return self._like(self.vector + other.vector)

    def __sub__(self, other: "Jet") -> "Jet":
        self._require_compatible(other, "sub")
        return self._like(self.vector - other.vector)

    def __neg__(self) -> "Jet":
        return self.scale(-1.0)

    def scale(self, c: complex) -> "Jet":
        c = complex(c)
        vector = np.empty_like(self.vector)
        vector.real, vector.imag = _cmul_parts(self.vector, c)
        return self._like(vector)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return self._mul_jet(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def _mul_jet(self, other: "Jet") -> "Jet":
        """Gather the product-table rows (the cached whole table, or the rows
        pairing the operands' supports), multiply, and sum per product
        monomial; a single jet is the one-row case, broadcast against a batch.
        Each row sums in graded order of its own sparser operand (self on a
        tie); where rows disagree, both orientations are gathered and each row
        picks its own.  The pairs of the rows' union supports replace the
        table above the cap, or when (rows + 3) times their count is under
        rows times the table's rows (at one row, under a quarter): they are
        built once and gathered per row, and their extra terms are +-0."""
        self._require_compatible(other, "mul")
        a, b = self.vector, other.vector
        lead = a.shape[:-1] or b.shape[:-1]  # (rows,) with a batch operand, else ()
        rows, flips = math.prod(lead), self._nonzeros() > other._nonzeros()
        flipped = np.count_nonzero(flips)
        first, second = self.support, other.support
        if not (first.size and second.size):
            return self._like(np.zeros(lead + a.shape[-1:], dtype=complex))
        table = self.basis.products(self.order)
        if table is not None and (rows + 3) * first.size * second.size < rows * table[0].size:
            table = None
        gathered = []
        for flip in (False, True):
            if flipped == (0 if flip else rows):  # no row takes this orientation
                continue
            left, right = (b, a) if flip else (a, b)
            i, j, k = table or self.basis.pairs(*((second, first) if flip else (first, second)), self.order)
            gathered.append((k, *_cmul_parts(left.take(i, -1), right.take(j, -1))))
        if len(gathered) == 1:
            k, re, im = gathered[0]
        else:
            k, re, im = [np.where(flips[:, None], on_flip, kept) for kept, on_flip in zip(*gathered)]
        return self._like(_scatter_sum(k, re, im, a.shape[-1]))

    def shift_constant(self, c: complex) -> "Jet":
        vector = self.vector.copy()
        vector[..., 0] += complex(c)
        return self._like(vector)

    # -- calculus -----------------------------------------------------------------

    def partial(self, var_index: int) -> "Jet":
        """Formal partial derivative; the order drops by one (floor at zero)."""
        if not 0 <= var_index < self.num_vars:
            raise CompatibilityError(f"partial: bad variable index {var_index}")
        if self.order == 0:
            return self._like(np.zeros(self.vector.shape[:-1] + (1,), dtype=complex))
        size = self.basis.size(self.order - 1)
        source = self.basis.partials[var_index][:size]
        factor = self.basis.exponents[:size, var_index] + 1
        return self._like(self.vector.take(source, -1) * factor, self.order - 1)

    def conjugate(self) -> "Jet":
        """Coefficient-wise conjugate (valid when the variables are real)."""
        return Jet._from_vector(
            self.basis,
            self.order,
            tuple(map(complex.conjugate, self.base_point)),
            self.vector.conj(),
        )

    # -- composition and evaluation --------------------------------------------------

    def compose(self, inner: Sequence["Jet"]) -> "Jet":
        """Substitute ``inner[k]`` for the k-th variable of this jet.

        The inner jets must share num_vars/order/base and be centered: the
        constant term of inner[k] must equal this jet's base_point[k].  To
        substitute one inner map into many jets, prepare it once with
        ``Substitution``; to rename or pin variables, use ``reindex``.
        """
        return Substitution(inner).apply(self)

    def reindex(
        self, num_vars: int, targets: Sequence[Optional[int]], base_point: Sequence[complex]
    ) -> "Jet":
        """This jet as a jet in ``num_vars`` variables at ``base_point``.

        Variable k becomes variable ``targets[k]`` of the result, or is pinned
        at its base value where ``targets[k]`` is None; two variables may
        share a target.  A target's base value must equal the base value of
        each variable moved to it.  The result keeps this jet's order.  This
        is ``compose`` with coordinate and zero inner jets, made by moving
        exponents instead of multiplying.  A batch moves every row with one
        ``bincount`` over row offsets.
        """
        targets = tuple(targets)
        if len(targets) != self.num_vars:
            raise CompatibilityError(f"reindex: {len(targets)} targets for {self.num_vars} variables")
        base_point = tuple(map(complex, base_point))
        if len(base_point) != num_vars:
            raise CompatibilityError("reindex: base point length != num_vars")
        for k, t in enumerate(targets):
            if t is None:
                continue
            if not 0 <= t < num_vars:
                raise CompatibilityError(f"reindex: target {t} of variable {k} is out of range")
            if abs(self.base_point[k] - base_point[t]) > CENTERING_TOL * max(abs(base_point[t]), 1.0):
                raise CenteringError(
                    f"reindex: variable {k} has base {self.base_point[k]} "
                    f"but its target has base {base_point[t]}"
                )
        basis = _basis(num_vars, self.order)
        key = (self.num_vars, num_vars, targets, self.order)
        if key not in _REINDEX_MAPS:
            exps = self.basis.exponents[: self.vector.shape[-1]]
            moved = np.zeros((len(exps), num_vars), dtype=np.int64)
            for k, t in enumerate(targets):  # a pinned variable adds nothing
                if t is not None:
                    moved[:, t] += exps[:, k]
            # a pinned displacement is zero: keep the monomials whose degree moves whole
            source = (moved.sum(axis=1) == exps.sum(axis=1)).nonzero()[0]
            _REINDEX_MAPS[key] = source, basis.locate(moved[source])
        source, dest = _REINDEX_MAPS[key]
        c = self.vector.take(source, -1)
        vector = _scatter_sum(dest, c.real, c.imag, basis.size(self.order))
        return Jet._from_vector(basis, self.order, base_point, vector)

    def eval_many(self, displacements: np.ndarray) -> np.ndarray:
        """The truncated polynomial at base_point + each row of a
        (num_points, num_vars) array of displacements."""
        self._require_single("eval_many")
        pts = np.asarray(displacements, dtype=complex)
        support = self.support
        if not support.size:
            return np.zeros(pts.shape[0], dtype=complex)
        exps = self.basis.exponents[support]
        monomials = np.prod(pts[:, None, :] ** exps[None, :, :], axis=2)
        return monomials @ self.vector[support]

    # -- series inverses / transcendental maps ------------------------------------------

    def invert(self) -> "Jet":
        """Multiplicative inverse; requires a nonzero constant term."""
        self._require_single("invert")
        c = self.constant_term()
        if c == 0:
            raise BranchError("invert: zero constant term")
        return self._reduced_series([(-1.0) ** k for k in range(self.order + 1)]).scale(1.0 / c)

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
        self._require_single("pow_real")
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
        self._require_single("log")
        c = self.constant_term()
        if c.real <= 0:
            raise BranchError(f"log: constant term {c} not in the right half plane")
        coeffs = [0.0 + 0.0j]
        for k in range(1, self.order + 1):
            coeffs.append(((-1.0) ** (k + 1)) / k)
        series = self._reduced_series(coeffs)
        return series.shift_constant(np.log(complex(c)))

    def exp(self) -> "Jet":
        self._require_single("exp")
        c = self.constant_term()
        u = self.shift_constant(-c)
        acc = Jet.constant(self.num_vars, self.order, self.base_point, 1.0)
        term = acc
        for k in range(1, self.order + 1):
            term = (term * u).scale(1.0 / k)
            acc = acc + term
        return acc.scale(np.exp(complex(c)))


class Substitution:
    """An inner map of ``Jet.compose``, validated and stripped once.

    ``apply(outer)`` equals ``outer.compose(inner)`` bit for bit.  The table of
    monomial powers of the inner displacements fills lazily and is shared by
    every outer jet the substitution is applied to; an entry depends only on
    its multi-index, so reuse changes no value.  The table is a 2-D array over
    a prefix of the basis, extended by one batch product per degree whose rows
    are graded predecessors' powers times one displacement each, bit for bit
    those single products; row p's nonzero terms are flat (destination, value)
    arrays at ``_offsets[p]:_offsets[p + 1]``.  Maps that only rename or pin
    variables need no powers: use ``Jet.reindex``.
    """

    def __init__(self, inner: Sequence[Jet]):
        inner = tuple(inner)
        if not inner:
            raise CenteringError("compose: no inner jets")
        first = inner[0]
        for g in inner:
            g._require_single("compose inner")
            first._require_compatible(g, "compose inner")
        self.num_inner = len(inner)
        self.order = first.order
        self._like = first._like
        self._constants = tuple(map(Jet.constant_term, inner))
        self._scale = max([g.max_abs() for g in inner] + [1.0])
        #: the inner displacements, one row per inner jet
        self._deltas = np.stack([g.vector for g in inner])
        self._deltas[:, 0] = 0.0
        #: power vectors of the inner displacements by outer basis position, and their nonzero terms
        self._powers = Jet.constant(first.num_vars, self.order, first.base_point, 1.0).vector[None]
        self._dest, self._values, self._offsets = np.zeros(1, dtype=np.intp), np.ones(1, complex), np.arange(2)

    def apply(self, outer: Jet) -> Jet:
        """``outer`` with ``inner[k]`` substituted for its k-th variable; of a
        batch, each row's (the union support's extra terms are +-0).  The
        terms run by outer position, then by destination."""
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
        size = self._powers.shape[1]
        # outer monomials of degree > order cannot contribute below truncation
        support = outer.support
        support = support[: support.searchsorted(outer.basis.size(min(self.order, outer.order)))]
        if not support.size:
            return self._like(np.zeros(outer.vector.shape[:-1] + (size,), dtype=complex))
        if support[-1] >= len(self._powers):
            self._add_powers(support[-1], outer.basis)
        starts = self._offsets[support]
        counts = self._offsets[support + 1] - starts
        ends = counts.cumsum()
        terms = np.arange(ends[-1]) + (starts - ends + counts).repeat(counts)
        re, im = _cmul_parts(outer.vector.take(support, -1).repeat(counts, axis=-1), self._values[terms])
        return self._like(_scatter_sum(self._dest[terms], re, im, size))

    def _add_powers(self, top: int, basis: _Basis) -> None:
        """Extend the table to prod_k deltas[k]**e[k] for every monomial e of
        ``basis`` up to position ``top``, one degree at a time: a degree-1
        power is a delta, and the powers of a higher degree are the rows of one
        batch product of their graded predecessors' powers and deltas."""
        (last, preds), start = basis.predecessors, len(self._powers)
        for degree in range(basis.degrees[start], basis.degrees[top] + 1):
            group = np.arange(max(start, basis.degree_start[degree]), min(top + 1, basis.degree_start[degree + 1]))
            block = self._deltas[last[group]]
            if degree > 1:
                block = (self._like(self._powers[preds[group]]) * self._like(block)).vector
            rows, dest = block.nonzero()
            counts = np.bincount(rows, minlength=len(block))
            self._powers = np.concatenate([self._powers, block])
            self._dest = np.concatenate([self._dest, dest])
            self._values = np.concatenate([self._values, block[rows, dest]])
            self._offsets = np.concatenate([self._offsets, self._offsets[-1] + counts.cumsum()])


def batch_products(pairs: Sequence[Tuple[Jet, Jet]]) -> List[Jet]:
    """``[a * b for a, b in pairs]`` as one batch product, each bit for bit its
    own product (a batch row is its single product).  Every operand has one
    shape and base point and is single or a batch of one common row count."""
    if not pairs:
        return []
    first, batch = pairs[0][0], {g.rows for pair in pairs for g in pair} - {None}
    if len(batch) > 1:
        raise CompatibilityError(f"batch_products: batches of {sorted(batch)} rows")
    count = max(batch, default=1)
    sides = np.empty((2, len(pairs), count, first.vector.shape[-1]), dtype=complex)
    for i, pair in enumerate(pairs):
        for side, g in enumerate(pair):
            first._require_compatible(g, "batch_products")
            sides[side, i] = g.vector  # a single jet fills every row
    left, right = (first._like(v.reshape(-1, v.shape[-1])) for v in sides)
    out = (left * right).vector.reshape(len(pairs), count, -1)
    return [first._like(v if batch else v[0]) for v in out]


def linear_combinations(mat: np.ndarray, jets: Sequence[Jet]) -> List[Jet]:
    """``sum_c mat[r, c] * jets[c]`` for each row r, summed from +0 in column
    order; a zero entry scales no term (the zero-term rule)."""
    zero = jets[0]._like(np.zeros_like(jets[0].vector))
    return [sum((jets[c].scale(complex(v)) for c, v in enumerate(row.tolist()) if v), zero) for row in mat]


def max_coeff_difference(a: Jet, b: Jet) -> float:
    """Largest coefficient deviation between two compatible jets."""
    a._require_compatible(b, "difference")
    return _max_abs(a.vector - b.vector)


def random_jet(
    rng,
    num_vars: int,
    order: int,
    base_point: Sequence[complex],
    decay: float = 0.5,
    real: bool = False,
    min_degree: int = 0,
) -> Jet:
    """Dense random jet with per-degree geometric damping of magnitudes.

    Normals are drawn per monomial in graded order (real, then imaginary
    part, unless ``real``).  Of a list of streams, the batch whose row r is,
    bit for bit, the draw from ``rng[r]`` (a stream listed twice draws twice),
    by one Box-Muller pass after every word is read."""
    streams = rng if isinstance(rng, (list, tuple)) else [rng]
    zero = Jet.zero(num_vars, order, base_point)
    size = zero.vector.size
    first = zero.basis._sizes[min(max(min_degree, 0), order + 1)]
    mags = np.array([decay**d for d in range(order + 1)])[zero.basis.degrees[first:size]]
    draws = standard_normals(streams, (size - first) * (1 if real else 2)).reshape(len(streams), size - first, -1)
    draws = draws * mags[:, None]
    vector = np.zeros((len(streams), size), dtype=complex)
    vector.real[:, first:] = draws[..., 0]
    if not real:
        vector.imag[:, first:] = draws[..., 1]
    return zero._like(vector if streams is rng else vector[0])

