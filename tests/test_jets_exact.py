"""Differential tests of the jet engine against exact Gaussian-rational arithmetic.

Operands have dyadic rational coefficients, so they convert to floats
exactly.  The reference repeats each operation on ``fractions.Fraction`` real
and imaginary parts, with no rounding and no pruning, at the shapes
(num_vars, order) the pipeline uses: (3, 6) for x-space jets, (6, 4) for
(x, y) and (u, sigma) jets, (4, 2) for the amplitude-order (u, sigma) jets
of compositions and the b1 pipeline, (6, 3) for the P operator's (x, xi)
jets (these two make most of the products of a two-route check), (4, 6)
for the q^3 and h^2 products of the engine's K_1 functional at n = 1, and
(4, 8), the reference tests' amplitude times the oracle's cutoff.  (4, 12)
keeps sparse operands far above ``PRODUCT_TABLE_ROWS`` covered; at (4, 8)
and (6, 6) a sparse operand also meets a dense one.
The small dense solver ``gauss_solve`` is checked against an exact
elimination at the sizes 1-12 of the pipeline's Jacobians and Hessians.
Below ``PRODUCT_TABLE_ROWS`` a product reads the cached whole-shape table,
above it (at (4, 8), (6, 6) and (4, 12)) the rows of the operands'
nonzeros.  The homogeneous extension of symbol data is checked against its
definition at (6, 6) and (10, 4).
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from crkernel.jets import Jet, _basis, gauss_solve
from crkernel.rng import spawn_rng
from crkernel.symbols import homogeneity_extend, xi_base


def multi_indices(num_vars, order):
    """Every exponent tuple of total degree <= order, in the jets' graded-lex order."""
    basis = _basis(num_vars, order)
    return list(map(tuple, basis.exponents[: basis.size(order)].tolist()))


#: allowed coefficient deviation, relative to the largest exact coefficient.
#: Every series step rounds; the deviations seen here stay below 6e-16.
REL_TOL = 1e-12

SHAPES = ((3, 6), (6, 4), (4, 2), (6, 3), (4, 6), (4, 8), (4, 12))


class GaussRational:
    """An exact complex number re + i im with rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return GaussRational(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        return GaussRational(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def reciprocal(self):
        norm = self.re * self.re + self.im * self.im
        return GaussRational(self.re / norm, -self.im / norm)

    def __complex__(self):
        return complex(float(self.re), float(self.im))


# -- exact truncated polynomials: {multi-index: GaussRational} ----------------------------


def exact_mul(a, b, order):
    out = {}
    for ia, ca in a.items():
        room = order - sum(ia)
        for ib, cb in b.items():
            if sum(ib) <= room:
                key = tuple(x + y for x, y in zip(ia, ib))
                term = ca * cb
                out[key] = out[key] + term if key in out else term
    return out


def exact_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k] + v if k in out else v
    return out


def exact_invert(a, num_vars, order):
    """b with a * b = 1 up to ``order``, solved degree by degree."""
    zero = (0,) * num_vars
    inv_c = a[zero].reciprocal()
    rest = [(idx, c) for idx, c in a.items() if idx != zero]
    b = {zero: inv_c}
    for idx in multi_indices(num_vars, order):
        if idx == zero:
            continue
        acc = GaussRational(0)
        for ia, ca in rest:
            rem = tuple(x - y for x, y in zip(idx, ia))
            if min(rem) >= 0 and rem in b:
                acc = acc + ca * b[rem]
        b[idx] = -(acc * inv_c)
    return b


def exact_pow(a, p, num_vars, order):
    out = a
    for _ in range(abs(p) - 1):
        out = exact_mul(out, a, order)
    return exact_invert(out, num_vars, order) if p < 0 else out


def exact_compose(outer, inner, num_vars, order):
    """outer(inner_1, ..., inner_k) for inner jets without constant terms."""
    one = {(0,) * num_vars: GaussRational(1)}
    powers = {(0,) * len(inner): one}

    def power(idx):
        if idx not in powers:
            k = max(i for i, e in enumerate(idx) if e)
            pred = tuple(e - (i == k) for i, e in enumerate(idx))
            powers[idx] = exact_mul(power(pred), inner[k], order)
        return powers[idx]

    out = {}
    for idx, c in outer.items():
        if sum(idx) <= order:
            out = exact_add(out, {k: c * v for k, v in power(idx).items()})
    return out


# -- operands and comparison ---------------------------------------------------------------


def dyadic(rng, degree):
    """A random Gaussian dyadic rational, damped by 2^-degree."""
    scale = 8 * 2**degree
    return GaussRational(Fraction(rng.randint(-8, 8), scale), Fraction(rng.randint(-8, 8), scale))


def random_exact(rng, num_vars, order, terms=None, constant=None):
    """Dense (terms=None) or ``terms``-sparse exact jet; sparse terms draw
    their degree uniformly from 1..order.  ``constant`` pins the constant term."""
    by_degree = [[] for _ in range(order + 1)]
    for idx in multi_indices(num_vars, order):
        by_degree[sum(idx)].append(idx)
    if terms is None:
        indices = [idx for level in by_degree[1:] for idx in level]
    else:
        indices = [rng.choice(by_degree[rng.randint(1, order)]) for _ in range(terms)]
    out = {idx: dyadic(rng, sum(idx)) for idx in indices}
    out[(0,) * num_vars] = dyadic(rng, 0) if constant is None else constant
    return out


def random_inner(rng, num_vars, order):
    """A centred inner jet: two linear terms and one of degree 2 or 3."""
    out = {}
    for _ in range(2):
        out[rng.choice(list(multi_indices(num_vars, 1))[1:])] = dyadic(rng, 0)
    deg = min(rng.randint(2, 3), order)
    out[rng.choice([i for i in multi_indices(num_vars, deg) if sum(i) == deg])] = dyadic(rng, deg)
    return out


def to_jet(exact, num_vars, order):
    return Jet(num_vars, order, (0.0,) * num_vars, {k: complex(v) for k, v in exact.items()})


def assert_matches(jet, exact):
    want = {k: complex(v) for k, v in exact.items()}
    top = max(abs(v) for v in want.values())
    keys = set(want) | set(jet.coeffs)
    worst = max(abs(jet.coefficient(k) - want.get(k, 0.0)) for k in keys)
    assert worst <= REL_TOL * top, f"deviation {worst:.3e} vs largest coefficient {top:.3e}"


def operand_terms(num_vars, order):
    """Sparse operands at (4, 8) and (4, 12), dense ones elsewhere."""
    return 12 if (num_vars, order) in ((4, 8), (4, 12)) else None


#: constant term of series operands, in the right half plane
SERIES_CONSTANT = GaussRational(1, Fraction(1, 4))


@pytest.mark.parametrize("num_vars,order", SHAPES)
def test_mul_matches_exact(num_vars, order):
    rng = random.Random(f"mul-{num_vars}-{order}")
    terms = operand_terms(num_vars, order)
    a = random_exact(rng, num_vars, order, terms)
    b = random_exact(rng, num_vars, order, terms)
    got = to_jet(a, num_vars, order) * to_jet(b, num_vars, order)
    assert_matches(got, exact_mul(a, b, order))


@pytest.mark.parametrize("num_vars,order", SHAPES + ((6, 6),))
def test_mul_sparse_by_dense_matches_exact(num_vars, order):
    rng = random.Random(f"mul-sparse-dense-{num_vars}-{order}")
    sparse = random_exact(rng, num_vars, order, terms=2)
    dense = random_exact(rng, num_vars, order)
    a, b = to_jet(sparse, num_vars, order), to_jet(dense, num_vars, order)
    want = exact_mul(sparse, dense, order)
    assert_matches(a * b, want)
    assert_matches(b * a, want)


def exact_partial(a, var):
    out = {}
    for idx, c in a.items():
        if idx[var]:
            lower = tuple(e - (k == var) for k, e in enumerate(idx))
            out[lower] = c * GaussRational(idx[var])
    return out


@pytest.mark.parametrize("num_vars,order", SHAPES + ((6, 6),))
def test_partial_matches_exact(num_vars, order):
    rng = random.Random(f"partial-{num_vars}-{order}")
    a = random_exact(rng, num_vars, order, operand_terms(num_vars, order))
    jet = to_jet(a, num_vars, order)
    for var in range(num_vars):
        got = jet.partial(var)
        assert got.order == order - 1
        want = exact_partial(a, var)
        # exact: dyadic coefficients times integer factors
        assert got.coeffs == {k: complex(v) for k, v in want.items() if complex(v)}


@pytest.mark.parametrize("num_vars,order", SHAPES)
def test_compose_matches_exact(num_vars, order):
    rng = random.Random(f"compose-{num_vars}-{order}")
    outer = random_exact(rng, num_vars, order, operand_terms(num_vars, order))
    inner = [random_inner(rng, num_vars, order) for _ in range(num_vars)]
    got = to_jet(outer, num_vars, order).compose([to_jet(g, num_vars, order) for g in inner])
    assert_matches(got, exact_compose(outer, inner, num_vars, order))


@pytest.mark.parametrize("num_vars,order", SHAPES)
def test_invert_matches_exact(num_vars, order):
    rng = random.Random(f"invert-{num_vars}-{order}")
    a = random_exact(rng, num_vars, order, operand_terms(num_vars, order), constant=SERIES_CONSTANT)
    got = to_jet(a, num_vars, order).invert()
    assert_matches(got, exact_invert(a, num_vars, order))


@pytest.mark.parametrize("num_vars,order", SHAPES)
@pytest.mark.parametrize("p", (2, 3, -1, -2))
def test_integer_pow_real_matches_exact(num_vars, order, p):
    rng = random.Random(f"pow-{num_vars}-{order}-{p}")
    a = random_exact(rng, num_vars, order, operand_terms(num_vars, order), constant=SERIES_CONSTANT)
    got = to_jet(a, num_vars, order).pow_real(float(p))
    assert_matches(got, exact_pow(a, p, num_vars, order))


# -- re-indexing: variable lifts, zeroed slots, repeated targets -----------------------------


def coordinate_exact(i, num_vars):
    return {tuple(1 if k == i else 0 for k in range(num_vars)): GaussRational(1)}


def reindex_maps():
    """(name, outer shape, targets, result variables) as the pipeline builds them:
    x -> (x, xi) promotion, the (0, u) and (u, 0) restrictions, and the diagonal
    x -> (x, x)."""
    u = [0, 1, 2]
    return [
        ("promote", (3, 6), u, 6),
        ("zero-u", (6, 4), [None] * 3 + u, 4),
        ("u-zero", (6, 4), u + [None] * 3, 4),
        ("diagonal", (6, 4), u + u, 3),
    ]


def no_products(self, other):
    raise AssertionError("a variable map made a jet product")


@pytest.mark.parametrize(
    "name,shape,targets,inner_vars", reindex_maps(), ids=[m[0] for m in reindex_maps()]
)
def test_reindex_substitution_matches_exact(monkeypatch, name, shape, targets, inner_vars):
    num_vars, order = shape
    rng = random.Random(f"reindex-{name}")
    outer = random_exact(rng, num_vars, order)
    # the same map as a composition: variable k -> coordinate targets[k], or zero
    inner = [{} if t is None else coordinate_exact(t, inner_vars) for t in targets]
    monkeypatch.setattr(Jet, "_mul_jet", no_products)
    got = to_jet(outer, num_vars, order).reindex(inner_vars, targets, (0.0,) * inner_vars)
    assert got.order == order
    assert_matches(got, exact_compose(outer, inner, inner_vars, order))


# -- homogeneous extension off the slice xi_{2n} = -1 -----------------------------------------


def exact_binomial(p, m):
    out = Fraction(1)
    for k in range(1, m + 1):
        out = out * (p - k + 1) / k
    return out


@pytest.mark.parametrize("n,order", ((1, 6), (2, 4)))
@pytest.mark.parametrize("p", (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2)), ids=str)
def test_homogeneity_extend_matches_definition(monkeypatch, n, order, p):
    """(1 - dxi)^p * data(x, xi' * sum_k dxi^k) with dxi = dxi_{2n}: the jet of
    (-xi_{2n})^p data(x, -xi'/xi_{2n}) at xi_{2n} = -1."""
    d = 2 * n + 1
    slice_vars, num_vars = d + 2 * n, 2 * d
    rng = random.Random(f"extend-{n}-{order}-{p}")
    data = random_exact(rng, slice_vars, order)

    def dxi_power(m, c):
        return {tuple(m if k == num_vars - 1 else 0 for k in range(num_vars)): GaussRational(c)}

    geometric, w_p = {}, {}
    for m in range(order + 1):
        geometric.update(dxi_power(m, 1))
        w_p.update(dxi_power(m, exact_binomial(p, m) * (-1) ** m))
    inner = [coordinate_exact(i, num_vars) for i in range(d)]
    inner += [exact_mul(coordinate_exact(d + j, num_vars), geometric, order) for j in range(2 * n)]
    want = exact_mul(w_p, exact_compose(data, inner, num_vars, order), order)

    monkeypatch.setattr(Jet, "_mul_jet", no_products)
    got = homogeneity_extend(to_jet(data, slice_vars, order), float(p))
    assert (got.num_vars, got.order, got.base_point) == (num_vars, order, xi_base(n))
    assert_matches(got, want)


# -- the small dense solver ------------------------------------------------------------------


def exact_solve(a, b):
    """(a^-1 b, det a) by Gauss-Jordan elimination on GaussRational rows."""
    m = len(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    det = GaussRational(1)
    for k in range(m):
        p = next(i for i in range(k, m) if rows[i][k].re or rows[i][k].im)
        if p != k:
            rows[k], rows[p], det = rows[p], rows[k], -det
        det = det * rows[k][k]
        inv = rows[k][k].reciprocal()
        rows[k] = [v * inv for v in rows[k]]
        for i in range(m):
            if i != k and (rows[i][k].re or rows[i][k].im):
                f = -rows[i][k]
                rows[i] = [v + f * w for v, w in zip(rows[i], rows[k])]
    return [r[m:] for r in rows], det


def to_exact(values):
    """Exact GaussRational rows of a complex (or real) array."""
    return [[GaussRational(Fraction(v.real), Fraction(v.imag)) for v in row] for row in np.atleast_2d(values).tolist()]


def solver_operand(size, kind):
    """A seeded size x size matrix and two right-hand sides: real normals, or
    Gaussian rationals k/8 + i l/8 with |k|, |l| <= 8."""
    rng = spawn_rng(size, kind, "gauss-solve")
    if kind == "real":
        return rng.standard_normal((size, size + 2))
    return np.array([[complex(rng.integers(-8, 9), rng.integers(-8, 9)) / 8 for _ in range(size + 2)] for _ in range(size)])


@pytest.mark.parametrize("kind", ("real", "gaussian-rational"))
@pytest.mark.parametrize("size", range(1, 13))
def test_gauss_solve_matches_exact_elimination(size, kind):
    # the inverse, two right-hand sides at once, one as a vector, and the determinant
    full = solver_operand(size, kind)
    a, rhs = full[:, :size], full[:, size:]
    want_inv, want_det = exact_solve(to_exact(a), to_exact(np.eye(size)))
    want_x, _ = exact_solve(to_exact(a), to_exact(rhs))
    for got, want in ((gauss_solve(a)[0], want_inv), (gauss_solve(a, rhs)[0], want_x)):
        want = np.array([[complex(v) for v in row] for row in want])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= REL_TOL * np.max(np.abs(want))
    got_x, got_det = gauss_solve(a, rhs[:, 0])
    assert got_x.shape == (size,) and np.array_equal(got_x, gauss_solve(a, rhs)[0][:, 0])
    assert abs(got_det - complex(want_det)) <= REL_TOL * abs(complex(want_det))
