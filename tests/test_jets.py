import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crkernel.errors import BranchError, CenteringError, CompatibilityError
from crkernel.jets import (
    _PRODUCTS,
    _REINDEX_MAPS,
    PRODUCT_TABLE_ROWS,
    Jet,
    Substitution,
    _Basis,
    _cmul_parts,
    _scatter_sum,
    iter_multi_indices,
    max_coeff_difference,
    random_jet,
)
from crkernel.rng import spawn_rng


def x_jet(order=2, nvars=1):
    return Jet.displacement(0, nvars, order, (0.0,) * nvars)


def test_difference_of_squares():
    one_plus = Jet(1, 2, (0.0,), {(0,): 1, (1,): 1})
    one_minus = Jet(1, 2, (0.0,), {(0,): 1, (1,): -1})
    prod = one_plus * one_minus
    assert prod.coeffs == {(0,): 1 + 0j, (2,): -1 + 0j}


def test_multiplicative_identity():
    rng = spawn_rng(1, "ident")
    a = random_jet(rng, 3, 4, (0.0,) * 3)
    one = Jet.constant(3, 4, (0.0,) * 3, 1.0)
    assert max_coeff_difference(a * one, a) == 0.0


def test_two_var_difference_of_squares():
    x = Jet.displacement(0, 2, 2, (0.0, 0.0))
    y = Jet.displacement(1, 2, 2, (0.0, 0.0))
    prod = (x + y) * (x - y)
    assert prod.coeffs == {(2, 0): 1 + 0j, (0, 2): -1 + 0j}


def test_invert_geometric_series():
    inv = Jet(1, 3, (0.0,), {(0,): 1, (1,): 1}).invert()
    assert inv.coeffs == {(0,): 1 + 0j, (1,): -1 + 0j, (2,): 1 + 0j, (3,): -1 + 0j}


def test_invert_constant():
    inv = Jet.constant(2, 5, (0.0, 0.0), 2.0).invert()
    assert inv.coeffs == {(0, 0): 0.5 + 0j}


def test_invert_roundtrip_random():
    # oracle: direct product against the constant-one jet
    rng = spawn_rng(2, "invert")
    a = random_jet(rng, 2, 4, (0.0, 0.0)).shift_constant(1.5)
    prod = a * a.invert()
    one = Jet.constant(2, 4, (0.0, 0.0), 1.0)
    assert max_coeff_difference(prod, one) < 1e-13


def test_invert_zero_constant_term():
    with pytest.raises(BranchError):
        x_jet().invert()


def test_pow_real_linear():
    a = Jet(1, 3, (0.0,), {(0,): 1, (1,): 1})
    assert max_coeff_difference(a.pow_real(1.0), a) < 1e-15


def test_pow_real_binomial_oracle():
    # oracle: binomial coefficients C(p, k) computed independently
    p = 0.5
    a = Jet(1, 2, (0.0,), {(0,): 1, (1,): 1})
    got = a.pow_real(p)
    coeff = 1.0
    for k in range(3):
        assert got.coefficient((k,)) == pytest.approx(coeff, abs=1e-15)
        coeff *= (p - k) / (k + 1)
    assert got.coefficient((2,)) == pytest.approx(-0.125)


def test_log_exp_inverse_pair():
    x = x_jet(order=4)
    back = x.exp().log()
    assert max_coeff_difference(back, x.with_order(4)) < 1e-14


def test_pow_log_branch_errors():
    bad = Jet.constant(1, 2, (0.0,), -1.0)
    with pytest.raises(BranchError):
        bad.pow_real(0.5)
    with pytest.raises(BranchError):
        bad.log()


def test_exp_allows_zero_constant():
    e = x_jet(order=3).exp()
    assert e.coefficient((0,)) == 1.0
    assert e.coefficient((3,)) == pytest.approx(1 / 6)


def test_partial_examples():
    a = Jet(2, 3, (0.0, 0.0), {(2, 1): 1})
    assert a.partial(0).coeffs == {(1, 1): 2 + 0j}
    const = Jet.constant(2, 3, (0.0, 0.0), 4.0)
    assert const.partial(1).coeffs == {}
    assert const.partial(1).order == 2


def test_partial_order_zero_input():
    a = Jet.constant(1, 0, (0.0,), 3.0)
    assert a.partial(0).coeffs == {}
    assert a.partial(0).order == 0


def test_mixed_partials_commute():
    rng = spawn_rng(3, "mixed")
    a = random_jet(rng, 2, 5, (0.0, 0.0))
    d1 = a.partial(0).partial(1)
    d2 = a.partial(1).partial(0)
    assert max_coeff_difference(d1, d2) == 0.0


def test_compose_square_of_sum():
    outer = Jet(1, 2, (0.0,), {(2,): 1})  # u^2
    inner = Jet(2, 2, (0.0, 0.0), {(1, 0): 1, (0, 1): 1})  # x + y
    got = outer.compose([inner])
    assert got.coeffs == {(2, 0): 1 + 0j, (1, 1): 2 + 0j, (0, 2): 1 + 0j}


def test_compose_identity():
    outer = x_jet(order=3)
    inner = Jet(1, 3, (0.0,), {(1,): 2.5, (3,): -1.0})
    got = outer.compose([inner])
    assert max_coeff_difference(got, inner) == 0.0


def test_compose_inverse_pair_oracle():
    # exp-series composed with log(1 + x) reproduces 1 + x
    log_series = Jet(1, 5, (0.0,), {(0,): 1, (1,): 1}).log()
    exp_series = x_jet(order=5).exp()
    got = exp_series.compose([log_series])
    want = Jet(1, 5, (0.0,), {(0,): 1, (1,): 1})
    assert max_coeff_difference(got, want) < 1e-14


def test_compose_centering_violation():
    outer = Jet(1, 2, (1.0,), {(1,): 1})  # based at 1
    inner = x_jet(order=2)  # constant term 0 != 1
    with pytest.raises(CenteringError):
        outer.compose([inner])


def test_compose_arity_mismatch():
    outer = Jet.constant(2, 2, (0.0, 0.0), 1.0)
    with pytest.raises(CenteringError):
        outer.compose([x_jet()])


def _substitution_cases():
    """(inner map, outer jets): a general map and a re-indexing one, both in 6 variables."""
    base6 = (0.0,) * 6
    rng = spawn_rng(5, "subst")
    general = [
        Jet.displacement(i, 6, 4, base6) + random_jet(rng, 6, 4, base6, min_degree=2).scale(0.3)
        for i in range(6)
    ]
    coords = [Jet.displacement(i, 3, 4, (0.0,) * 3) for i in range(3)]
    outers = [random_jet(rng, 6, 4, base6) for _ in range(3)]
    return [(general, outers), (coords + coords, outers)]


@pytest.mark.parametrize("case", range(2), ids=["general", "reindex"])
def test_substitution_reuse_is_exact(case):
    inner, outers = _substitution_cases()[case]
    sub = Substitution(inner)
    for outer in outers + outers[::-1]:
        assert sub.apply(outer).coeffs == outer.compose(inner).coeffs


@pytest.mark.parametrize("num_vars,order", [(3, 2), (6, 2), (3, 4)])
def test_substitution_powers_equal_the_single_products(num_vars, order):
    # the table's batch rows are the graded predecessor chains of single products
    rng = spawn_rng(26, "powers", num_vars, order)
    base = (0.0,) * num_vars
    inner = [random_jet(rng, num_vars, order, base, min_degree=1) for _ in range(num_vars - 1)]
    inner.append(Jet.displacement(0, num_vars, order, base) + Jet.displacement(1, num_vars, order, base).scale(-0.5))
    sub = Substitution(inner)
    outer = random_jet(rng, num_vars, order, base)
    sub.apply(outer.truncated(1).with_order(order))  # fills a prefix, then the rest
    sub.apply(outer)
    last, preds = outer.basis.predecessors
    powers = [Jet.constant(num_vars, order, base, 1.0)]
    for p in range(1, outer.vector.size):
        delta = sub._deltas[last[p]]
        powers.append(delta if preds[p] == 0 else powers[preds[p]] * delta)
    assert [q.vector.tobytes() for q in powers] == [v.tobytes() for v in sub._powers]


def test_substitution_centering_checked_per_outer():
    sub = Substitution([x_jet(order=2)])
    sub.apply(Jet(1, 2, (0.0,), {(1,): 1}))
    with pytest.raises(CenteringError):
        sub.apply(Jet(1, 2, (1.0,), {(1,): 1}))


def test_reindex_rejects_malformed_maps():
    f = Jet(2, 2, (0.0, 1.0), {(1, 1): 1})
    with pytest.raises(CompatibilityError):  # one target per variable
        f.reindex(2, [0], (0.0, 1.0))
    for target in (2, -1):
        with pytest.raises(CompatibilityError):
            f.reindex(2, [0, target], (0.0, 1.0))
    with pytest.raises(CompatibilityError):  # base point of the wrong length
        f.reindex(2, [0, 1], (0.0,))
    with pytest.raises(CenteringError):  # variable 1 sits at 1, its target at 0
        f.reindex(2, [1, 0], (0.0, 1.0))
    swapped = f.reindex(2, [1, 0], (1.0, 0.0))
    assert swapped.coeffs == {(1, 1): 1} and swapped.base_point == (1.0, 0.0)
    assert f.reindex(1, [0, None], (0.0,)).coeffs == {}  # pinning variable 1 drops the dx_0 dx_1 term


def test_reindex_equals_composition_with_coordinates():
    rng = spawn_rng(6, "reindex")
    f = random_jet(rng, 6, 4, (0.0,) * 6)
    maps = (([0, 1, 2, 0, 1, 2], 3), ([None] * 3 + [0, 1, 2], 4), ([0, 1, 2, 3, 4, None], 7))
    for targets, num_vars in maps:
        base = (0.0,) * num_vars
        inner = [
            Jet.zero(num_vars, 4, base) if t is None else Jet.displacement(t, num_vars, 4, base)
            for t in targets
        ]
        assert f.reindex(num_vars, targets, base) == f.compose(inner)


def moved_exponents(f, num_vars, targets, base_point):
    """Reference reindex: move the exponents of f's nonzero terms, term by term."""
    out = {}
    for idx, c in f.graded_items():
        if any(e for e, t in zip(idx, targets) if t is None):
            continue  # a pinned variable's displacement is zero
        moved = [0] * num_vars
        for e, t in zip(idx, targets):
            if t is not None:
                moved[t] += e
        out[tuple(moved)] = out.get(tuple(moved), 0.0) + c
    return Jet(num_vars, f.order, base_point, out)


@pytest.mark.parametrize(
    "targets,num_vars",
    [((2, 0, 1), 3), ((0, 1, 0), 2), ((1, None, 0), 2)],
    ids=["rename", "merge", "pin"],
)
def test_cached_reindex_map_moves_exponents(targets, num_vars):
    rng = spawn_rng(12, "reindex-cache", str(targets))
    f = random_jet(rng, 3, 5, (0.0,) * 3)
    base = (0.0,) * num_vars
    want = moved_exponents(f, num_vars, targets, base)
    cold = f.reindex(num_vars, targets, base)
    assert (3, num_vars, targets, 5) in _REINDEX_MAPS
    warm = f.reindex(num_vars, list(targets), base)  # the same key from a list
    assert cold == want
    assert cold.vector.tobytes() == warm.vector.tobytes()


def test_cached_reindex_map_keeps_its_checks():
    f = Jet(2, 3, (0.0, 1.0), {(1, 1): 2.0, (0, 3): 1.0})
    good = f.reindex(2, (0, 1), (0.0, 1.0))  # warms the key (2, 2, (0, 1), 3)
    assert good == f
    with pytest.raises(CenteringError):
        f.reindex(2, (0, 1), (0.0, 0.0))
    # a map cached under an out-of-range target is never read: the check comes first
    _REINDEX_MAPS[(2, 2, (0, 2), 3)] = _REINDEX_MAPS[(2, 2, (0, 1), 3)]
    try:
        with pytest.raises(CompatibilityError):
            f.reindex(2, (0, 2), (0.0, 1.0))
    finally:
        del _REINDEX_MAPS[(2, 2, (0, 2), 3)]


def test_eval_examples():
    sq = Jet(1, 2, (0.0,), {(2,): 1})
    assert sq.eval_many(np.array([[1j]]))[0] == pytest.approx(-1.0)
    rng = spawn_rng(4, "eval")
    a = random_jet(rng, 3, 3, (0.0,) * 3)
    assert a.eval_many(np.array([[0, 0, 0]]))[0] == a.constant_term()


def test_eval_geometric_series_oracle():
    # oracle: closed-form geometric sum
    g = Jet(1, 12, (0.0,), {(k,): 1.0 for k in range(13)})
    assert abs(g.eval_many(np.array([[0.1]]))[0] - 1.0 / 0.9) < 1e-10


def test_eval_many_matches_eval():
    # oracle: the explicit sum of c * prod_k p_k^alpha_k over the stored terms
    rng = spawn_rng(5, "evalmany")
    a = random_jet(rng, 2, 4, (0.0, 0.0))
    pts = rng.standard_normal((20, 2)) * 0.3
    vals = a.eval_many(pts.astype(complex))
    for p, v in zip(pts, vals):
        want = sum(c * math.prod(complex(pk) ** ak for pk, ak in zip(p, idx)) for idx, c in a.graded_items())
        assert v == pytest.approx(want, rel=1e-12)


def test_arithmetic_mismatch_errors():
    a = Jet.constant(2, 3, (0.0, 0.0), 1.0)
    with pytest.raises(CompatibilityError):
        a + Jet.constant(3, 3, (0.0,) * 3, 1.0)
    with pytest.raises(CompatibilityError):
        a + Jet.constant(2, 2, (0.0, 0.0), 1.0)
    with pytest.raises(CompatibilityError):
        a * Jet.constant(2, 3, (1.0, 0.0), 1.0)


def test_truncation_in_storage():
    a = Jet(1, 2, (0.0,), {(0,): 1, (3,): 7})  # degree 3 beyond order 2
    assert (3,) not in a.coeffs


@pytest.mark.parametrize("key", [(1, 0), (2, -1, 0)])
def test_readers_reject_malformed_keys(key):
    # the constructor rejects these keys, so reading them must not answer 0
    a = Jet(3, 4, (0.0,) * 3, {(1, 0, 0): 2.0})
    with pytest.raises(CompatibilityError):
        a.coefficient(key)


@pytest.mark.parametrize("variables", [(3,), (-1,), (0, 3), (1, -3)])
def test_derivative_at_rejects_a_variable_outside_the_range(variables):
    # a negative index must not wrap around to the last variables
    a = Jet(3, 4, (0.0,) * 3, {(0, 0, 1): 2.0, (0, 1, 1): 3.0})
    with pytest.raises(CompatibilityError):
        a.derivative_at(*variables)


def test_derivative_at_is_the_coefficient_times_the_factorials():
    a = random_jet(spawn_rng(25, "derivative-at"), 3, 4, (0.5, 0.0, -1.0))
    for idx in iter_multi_indices(3, 4):
        variables = [v for v, e in enumerate(idx) for _ in range(e)]
        want = a.coefficient(idx) * float(math.prod(map(math.factorial, idx)))
        assert a.derivative_at(*variables) == want
        assert a.derivative_at(*reversed(variables)) == want
        chain = a
        for v in variables:
            chain = chain.partial(v)
        assert a.derivative_at(*variables) == chain.constant_term()
    assert a.derivative_at() == a.constant_term()


def test_key_above_the_order_reads_zero():
    a = Jet(3, 4, (0.0,) * 3, {(1, 0, 0): 2.0})
    assert a.coefficient((5, 0, 0)) == 0
    assert a.derivative_at(0, 0, 1, 1, 2) == 0


def test_tiny_coefficient_kept_exactly():
    a = Jet(1, 2, (0.0,), {(0,): 1.0, (1,): 1e-16})
    assert a.coeffs == {(0,): 1 + 0j, (1,): 1e-16 + 0j}
    assert (a * Jet.constant(1, 2, (0.0,), 1.0)).coefficient((1,)) == 1e-16


def test_zero_coefficient_reads_as_positive_zero():
    # a stored -0 (here from scaling zeros by -1) reads like an absent coefficient
    a = Jet.zero(2, 2, (0.0, 0.0)).scale(-1.0)
    for c in (a.constant_term(), a.coefficient((1, 0))):
        assert (math.copysign(1.0, c.real), math.copysign(1.0, c.imag)) == (1.0, 1.0)
    assert a.coeffs == {}


def test_graded_iteration_order():
    a = Jet(2, 2, (0.0, 0.0), {(0, 2): 1, (1, 0): 2, (0, 0): 3, (1, 1): 4})
    keys = [k for k, _ in a.graded_items()]
    assert keys == [(0, 0), (1, 0), (0, 2), (1, 1)]


# -- per-shape tables against brute-force enumeration ------------------------------------


@pytest.mark.parametrize("num_vars,order", [(3, 6), (6, 4), (6, 6), (4, 12)])
def test_basis_tables_match_enumeration(num_vars, order):
    basis = sorted(
        (e for e in itertools.product(range(order + 1), repeat=num_vars) if sum(e) <= order),
        key=lambda e: (sum(e), e),
    )
    degrees = [sum(e) for e in basis]
    # a table built for a higher order serves this one through its prefix
    for table in (_Basis(num_vars, order), _Basis(num_vars, order + 2)):
        assert table.size(order) == len(basis)
        assert list(map(tuple, table.exponents[: len(basis)].tolist())) == basis
        assert table.degree_start[: order + 2].tolist() == [
            sum(1 for d in degrees if d < top) for top in range(order + 2)
        ]
        assert [table.position(e, order) for e in basis] == list(range(len(basis)))
        assert table.position((order + 1,) + (0,) * (num_vars - 1), order) is None

        everything = np.arange(len(basis))
        i, j, k = table.pairs(everything, everything, order)
        pairs = [
            (a, b)
            for a in range(len(basis))
            for b in range(len(basis))
            if degrees[a] + degrees[b] <= order
        ]
        assert list(zip(i.tolist(), j.tolist())) == pairs  # each pair once, sorted by (i, j)
        assert all(
            basis[c] == tuple(x + y for x, y in zip(basis[a], basis[b]))
            for a, b, c in zip(i.tolist(), j.tolist(), k.tolist())
        )

        lower = basis[: table.size(order - 1)]
        for v, source in enumerate(table.partials):
            for q, e in enumerate(lower):
                assert basis[source[q]] == tuple(a + (u == v) for u, a in enumerate(e))


# -- the cached product table against the sparse product rows ------------------------------


def sparse_product(a, b):
    """Reference product over ``_Basis.pairs`` of the operands' nonzeros only,
    the sparser operand (self on a tie) on the left."""
    left, right = (b, a) if a.support.size > b.support.size else (a, b)
    if not left.support.size:
        return np.zeros(a.vector.size, dtype=complex)
    i, j, k = a.basis.pairs(left.support, right.support, a.order)
    re, im = _cmul_parts(left.vector[i], right.vector[j])
    return _scatter_sum(k, re, im, a.vector.size)


def table_product(a, b):
    """Reference product over every row of the shape's cached table, the
    sparser operand (self on a tie) on the left."""
    left, right = (b, a) if a.support.size > b.support.size else (a, b)
    i, j, k = a.basis.products(a.order)
    re, im = _cmul_parts(left.vector[i], right.vector[j])
    return _scatter_sum(k, re, im, a.vector.size)


def with_negative_zeros(jet, rng):
    """``jet`` with about a third of its entries replaced by -0.0 - 0.0j."""
    vector = jet.vector.copy()
    vector[rng.random(vector.size) < 1 / 3] = complex(-0.0, -0.0)
    return jet._like(vector)


#: every (num_vars, order) at which the routes benchmark multiplies jets below the cap
ROUTES_SHAPES = [(3, 2), (3, 4), (3, 6), (4, 2), (4, 4), (4, 6), (6, 2), (6, 3), (6, 4)]


@pytest.mark.parametrize("num_vars,order", ROUTES_SHAPES)
def test_product_table_matches_sparse_pairs(num_vars, order):
    rng = spawn_rng(13, "product-table", num_vars, order)
    base = (0.0,) * num_vars
    dense = random_jet(rng, num_vars, order, base)
    other = random_jet(rng, num_vars, order, base)
    sparse = Jet.displacement(num_vars - 1, num_vars, order, base) * dense.truncated(0).with_order(order)
    sparse = sparse + Jet.coordinate(0, num_vars, order, base).scale(0.25 - 1.5j)
    signed = with_negative_zeros(dense, rng)
    zero = Jet.zero(num_vars, order, base).scale(-1.0)  # real parts -0
    table = dense.basis.products(order)
    assert table is not None and table[0].size == math.comb(2 * num_vars + order, order)
    for a, b in [
        (dense, other),
        (dense, sparse),
        (sparse, dense),
        (sparse, sparse),
        (signed, sparse),
        (signed, other),
        (other, signed),
        (dense, zero),
        (zero, sparse),
    ]:
        assert (a * b).vector.tobytes() == sparse_product(a, b).tobytes() == table_product(a, b).tobytes()


def test_sparse_operands_take_the_pairs_below_the_table(monkeypatch):
    # nonzero counts multiplying to under a quarter of the table's rows take the pairs
    base = (0.0,) * 6
    dx = [Jet.displacement(k, 6, 4, base) for k in range(6)]
    sparse = (dx[3] - dx[0]) * dx[1]
    dense = random_jet(spawn_rng(15, "dense-operand"), 6, 4, base)
    pairs, calls = _Basis.pairs, []
    monkeypatch.setattr(_Basis, "pairs", lambda self, *args: calls.append(args) or pairs(self, *args))
    for a, b, paired in [(sparse, dx[2], True), (dense, dx[2], True), (dense, dense, False)]:
        calls.clear()
        assert (a * b).vector.tobytes() == table_product(a, b).tobytes()
        assert bool(calls) == paired


@pytest.mark.parametrize("num_vars,order", [(3, 6), (4, 8), (6, 4)])
def test_position_index_agrees_with_locate(num_vars, order):
    basis = _Basis(num_vars, order + 2)
    exps = basis.exponents[: basis.size(order)]
    assert [basis.position(e, order) for e in exps.tolist()] == basis.locate(exps).tolist()
    assert basis.locate(exps).tolist() == list(range(len(exps)))
    # an index grown to ``order`` still reads higher monomials as absent at a lower order
    above = basis.exponents[basis.size(order - 1) : basis.size(order)].tolist()
    assert all(basis.position(e, order - 1) is None for e in above)
    assert all(basis.position(e, order + 1) is None for e in basis.exponents[basis.size(order + 1) :].tolist())
    with pytest.raises(CompatibilityError, match="wrong length"):
        basis.position((0,) * (num_vars + 1), order)
    with pytest.raises(CompatibilityError, match="negative entry"):
        basis.position((-1,) + (0,) * (num_vars - 1), order)


@pytest.mark.parametrize("num_vars,order", [(6, 4), (4, 8)])
def test_position_index_grows_to_the_degree_asked(num_vars, order):
    # lookups in shuffled order, at every order, against a fully grown index
    full = {tuple(e): p for p, e in enumerate(_Basis(num_vars, order).exponents.tolist())}
    basis = _Basis(num_vars, order)
    shuffle = np.argsort(spawn_rng(16, "index-order", num_vars).random(len(full)))
    keys = [tuple(e) for e in basis.exponents[shuffle].tolist()]
    asked = -1
    for k, idx in enumerate(keys):
        at = k % (order + 1)
        want = full[idx] if sum(idx) <= at else None
        assert basis.position(idx, at) == want, (idx, at)
        asked = max(asked, sum(idx) if sum(idx) <= at else -1)
        assert basis._indexed == asked  # never past the largest degree looked up within its order
    with pytest.raises(CompatibilityError, match="wrong length"):
        basis.position((0,) * (num_vars - 1), order)
    with pytest.raises(CompatibilityError, match="negative entry"):
        basis.position((0,) * (num_vars - 1) + (-1,), order)


def test_large_shape_caches_no_table():
    rng = spawn_rng(14, "no-table")
    base = (0.0,) * 4
    assert math.comb(8 + 24, 24) > PRODUCT_TABLE_ROWS
    a = Jet.displacement(0, 4, 24, base) + Jet.displacement(3, 4, 24, base).scale(0.5j)
    b = random_jet(rng, 4, 6, base).with_order(24)
    assert (a * b).vector.tobytes() == sparse_product(a, b).tobytes()
    assert a.basis.products(24) is None and _PRODUCTS[(4, 24)] is None
    assert all(t is None or t[0].size <= PRODUCT_TABLE_ROWS for t in _PRODUCTS.values())


def test_import_builds_no_table():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import crkernel, crkernel.cli, crkernel.harness, crkernel.jets as jets; "
        "print(len(jets._BASES) + len(jets._PRODUCTS) + len(jets._REINDEX_MAPS))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_truncation_is_a_basis_prefix():
    rng = spawn_rng(6, "prefix")
    a = random_jet(rng, 4, 6, (0.0,) * 4)
    low = a.truncated(3)
    assert low.coeffs == {k: v for k, v in a.coeffs.items() if sum(k) <= 3}
    assert low.with_order(6).coeffs == low.coeffs


def test_random_jet_draws_in_graded_order():
    # reference: one draw (real) or two (real, imaginary) per monomial, in graded order
    for real, min_degree in ((False, 0), (True, 2)):
        rng = spawn_rng(8, "draws", real)
        want = {}
        for idx in sorted(itertools.product(range(5), repeat=3), key=lambda e: (sum(e), e)):
            d = sum(idx)
            if d > 4 or d < min_degree:
                continue
            mag = 0.4**d
            if real:
                want[idx] = complex(rng.standard_normal()) * mag
            else:
                want[idx] = (rng.standard_normal() + 1j * rng.standard_normal()) * mag
        got = random_jet(spawn_rng(8, "draws", real), 3, 4, (0.0,) * 3, 0.4, real, min_degree)
        assert got.coeffs == want


# -- batches: a leading row axis, each row bit for bit its own single jet -------------------


def batch_rows(num_vars, order, tag):
    """Rows whose sparser operand against a dense jet differs: dense, sparse
    (a power of a two-term displacement), dense with -0 entries, all zero."""
    rng = spawn_rng(21, tag, num_vars, order)
    base = (0.0,) * num_vars
    dense = random_jet(rng, num_vars, order, base)
    h = Jet.displacement(0, num_vars, order, base)
    h = h + Jet.displacement(num_vars - 1, num_vars, order, base).scale(0.5j)
    sparse = h * h * h
    return [dense, sparse, with_negative_zeros(random_jet(rng, num_vars, order, base), rng),
            Jet.zero(num_vars, order, base).scale(-1.0)]


@pytest.mark.parametrize("num_vars,order", [(3, 4), (4, 12)])
def test_batch_products_equal_the_single_products_row_by_row(num_vars, order):
    rows = batch_rows(num_vars, order, "batch-left")
    others = batch_rows(num_vars, order, "batch-right")[::-1]
    others[0] = others[0] + Jet.constant(num_vars, order, (0.0,) * num_vars, 2.0)  # +0 entries, not -0
    single = random_jet(spawn_rng(22, num_vars, order), num_vars, order, (0.0,) * num_vars)
    table = rows[0].basis.products(order)
    assert (table is None) == (order == 12)
    stacked, stacked_others = Jet.stack(rows), Jet.stack(others)
    for got, want in [
        (stacked * single, [r * single for r in rows]),
        (single * stacked, [single * r for r in rows]),
        (stacked * rows[1], [r * rows[1] for r in rows]),
        (stacked * stacked_others, [r * o for r, o in zip(rows, others)]),
        (stacked_others * stacked, [o * r for r, o in zip(rows, others)]),
    ]:
        assert got.rows == len(rows)
        for r, w in enumerate(want):
            assert got.vector[r].tobytes() == w.vector.tobytes(), r


def test_batch_row_wise_operations_broadcast_a_single_jet():
    rows = batch_rows(3, 4, "batch-ops")
    single = random_jet(spawn_rng(23, "single"), 3, 4, (0.0,) * 3)
    stacked = Jet.stack(rows)
    cases = [
        (stacked + single, [r + single for r in rows]),
        (single - stacked, [single - r for r in rows]),
        (stacked - stacked, [r - r for r in rows]),
        (stacked.scale(0.3 - 2j), [r.scale(0.3 - 2j) for r in rows]),
        (-stacked, [-r for r in rows]),
        (stacked.truncated(2), [r.truncated(2) for r in rows]),
        (stacked.with_order(6), [r.with_order(6) for r in rows]),
        (stacked.partial(1), [r.partial(1) for r in rows]),
        (stacked.truncated(0).partial(2), [r.truncated(0).partial(2) for r in rows]),
        (stacked.shift_constant(1.5j), [r.shift_constant(1.5j) for r in rows]),
    ]
    for got, want in cases:
        assert got == Jet.stack(want)
        assert got.vector.tobytes() == Jet.stack(want).vector.tobytes()
    assert stacked.rows == 4 and single.rows is None


def test_batch_readers_give_per_row_arrays_and_read_zero_as_positive_zero():
    base = (0.0,) * 3
    a = Jet(3, 2, base, {(0, 0, 0): 2.0, (1, 0, 0): -1.5j})
    b = Jet(3, 2, base, {(0, 1, 1): 4.0}).scale(-1.0)  # -0 at every other position
    stacked = Jet.stack([a, b])
    assert stacked.support.tolist() == sorted({*a.support.tolist(), *b.support.tolist()})
    readers = [
        (stacked.constant_term(), [a.constant_term(), b.constant_term()]),
        (stacked.coefficient((1, 0, 0)), [a.coefficient((1, 0, 0)), b.coefficient((1, 0, 0))]),
        (stacked.coefficient((3, 0, 0)), [0j, 0j]),
        (stacked.derivative_at(1, 2), [a.derivative_at(1, 2), b.derivative_at(1, 2)]),
        (stacked.derivative_at(0, 0), [0j, 0j]),
    ]
    for got, want in readers:
        assert isinstance(got, np.ndarray) and got.shape == (2,)
        assert got.tolist() == want
        assert not np.signbit(got[got == 0].real).any() and not np.signbit(got[got == 0].imag).any()
    # fewer rows than monomials: one per-row array per support position
    items = stacked.graded_items()
    assert [idx for idx, _ in items] == [(0, 0, 0), (1, 0, 0), (0, 1, 1)]
    assert [v.tolist() for _, v in items] == [[2.0, 0j], [-1.5j, 0j], [0j, -4.0 + 0j]]
    assert all(not np.signbit(v.real[v == 0]).any() for _, v in items)
    assert list(stacked.coeffs) == [idx for idx, _ in items]


@pytest.mark.parametrize(
    "targets,num_vars", [([1, 0], 2), ([None, 0], 1), ([0, 0], 1), ([2, None], 3), ([None, None], 2)]
)
def test_batch_reindex_equals_the_per_row_reindex(targets, num_vars):
    rng = spawn_rng(25, "batch-reindex", num_vars)
    base = (0.0,) * 2
    rows = [random_jet(rng, 2, 4, base), Jet.zero(2, 4, base).scale(-1.0)]
    rows.append(with_negative_zeros(random_jet(rng, 2, 4, base), rng))
    batch = Jet.stack(rows).reindex(num_vars, targets, (0.0,) * num_vars)
    assert batch.rows == len(rows)
    for r, jet in enumerate(rows):
        assert batch.vector[r].tobytes() == jet.reindex(num_vars, targets, (0.0,) * num_vars).vector.tobytes()


def test_batch_substitution_equals_the_per_row_substitution():
    rng = spawn_rng(27, "batch-substitution")
    base = (0.0,) * 3
    inner = [random_jet(rng, 3, 4, base, min_degree=1) for _ in range(3)]
    rows = [random_jet(rng, 3, 4, base), Jet.zero(3, 4, base).scale(-1.0), Jet.displacement(1, 3, 4, base)]
    rows.append(with_negative_zeros(random_jet(rng, 3, 4, base), rng))
    for order in (4, 2):  # a lower outer order reads a prefix of the table
        outer = [g.truncated(order) for g in rows]
        batch = Substitution(inner).apply(Jet.stack(outer))
        assert batch.rows == len(outer)
        for r, g in enumerate(outer):
            assert batch.vector[r].tobytes() == Substitution(inner).apply(g).vector.tobytes()


def test_batch_rejects_mismatched_rows_and_unbatched_operations():
    base = (0.0,) * 2
    a = random_jet(spawn_rng(24, "reject"), 2, 3, base)
    two, three = Jet.stack([a, a]), Jet.stack([a, a, a])
    for op in (lambda: two + three, lambda: two - three, lambda: two * three):
        with pytest.raises(CompatibilityError, match="rows"):
            op()
    inner = [Jet.displacement(i, 2, 3, base) for i in range(2)]
    unbatched = [
        lambda: Jet.stack([]),
        lambda: Jet.stack([two, a]),
        lambda: Jet.stack([a, a.truncated(2)]),
        lambda: Substitution([Jet.stack(inner[:1] * 2), inner[1]]),
        lambda: two.eval_many(np.zeros((1, 2))),
        two.invert,
        lambda: two.pow_real(0.5),
        two.log,
        two.exp,
    ]
    for op in unbatched:
        with pytest.raises(CompatibilityError):
            op()
