import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqnorm.core import (
    FiniteVector,
    IndexSet,
    check_f_submultiplicative,
    f,
    f_exceeds,
    min_m_for_budget,
)


def test_f_values():
    assert f(1) == 1.0
    assert f(3) == 2.0
    assert f(0) == 0.0
    assert f(2) == pytest.approx(math.log2(3), abs=1e-12)
    with pytest.raises(ValueError):
        f(-0.5)


def test_f_monotone_concave_and_below_identity():
    ts = np.linspace(0.0, 50.0, 400)
    vals = [f(t) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # concavity: midpoint above chord
    for a, b in zip(ts[:-1:7], ts[7::7]):
        assert f((a + b) / 2) >= (f(a) + f(b)) / 2 - 1e-12
    for t in (1.5, 2.0, 10.0, 1e6):
        assert f(t) < t


def test_f_exceeds_matches_float_f_on_boundaries():
    # f(m) > b exactly when m >= 2**b, including the tight cases
    for b in range(0, 12):
        m = 1 << b
        assert f_exceeds(m, b)
        assert not f_exceeds(m - 1, b)
    assert min_m_for_budget(0) == 2
    assert min_m_for_budget(1) == 2
    assert min_m_for_budget(6) == 64


def test_f_exact_on_integers():
    # the same double as before on floats and on ints below 2**53
    rng = np.random.default_rng(0)
    ints = [int(t) for t in rng.integers(0, 2**53, size=2000)] + [0, 1, 2**53 - 1]
    for t in ints + [float(t) for t in ints] + list(rng.uniform(0.0, 1e300, size=200)):
        assert f(t) == math.log2(1.0 + t)
    # a huge int has an exact log, where float(t) overflows
    assert f(10**400) == pytest.approx(400 * math.log2(10), rel=1e-15)
    assert f(2**2000 - 1) == 2000.0


def test_f_exceeds_never_builds_two_to_the_budget():
    assert not f_exceeds(4, 2**70)
    assert f_exceeds(2**2**20, 2**20) and not f_exceeds(2**2**20 - 1, 2**20)


def test_submultiplicative_examples():
    assert check_f_submultiplicative(1, 1) == 0.0
    assert check_f_submultiplicative(3, 3) == pytest.approx(4 - math.log2(10), abs=1e-12)
    assert check_f_submultiplicative(2, 4) == pytest.approx(
        f(2) * f(4) - f(8), abs=1e-12
    )
    with pytest.raises(ValueError):
        check_f_submultiplicative(0.5, 2)


def test_submultiplicative_grid():
    # 10^4-point grid over [1, 1e6]^2
    pts = np.geomspace(1.0, 1e6, 100)
    for x in pts:
        for y in pts:
            assert check_f_submultiplicative(float(x), float(y)) >= -1e-12


def test_restrict_examples():
    e1, e2 = FiniteVector.basis(1), FiniteVector.basis(2)
    x = e1 + e2
    assert x.restrict(IndexSet.interval(2, 9)) == e2
    assert x.restrict(IndexSet.empty()) == FiniteVector.zero()
    y = FiniteVector([(1, 1.0), (5, 2.0), (9, 3.0)])
    assert y.restrict(IndexSet.of([5, 9])) == FiniteVector([(5, 2.0), (9, 3.0)])


def test_restrict_idempotent():
    x = FiniteVector([(1, 1.0), (3, -2.0), (7, 0.5)])
    E = IndexSet.of([1, 7, 11])
    assert x.restrict(E).restrict(E) == x.restrict(E)


def test_spread_examples():
    x = FiniteVector.ones(2)
    assert x.spread(lambda i: i + 3) == FiniteVector([(4, 1.0), (5, 1.0)])
    assert x.spread(lambda i: i) == x
    y = FiniteVector([(1, 2.0), (3, -1.0)])
    assert y.spread({1: 2, 3: 7}) == FiniteVector([(2, 2.0), (7, -1.0)])
    with pytest.raises(ValueError):
        y.spread({1: 5, 3: 5})
    with pytest.raises(ValueError):
        y.spread({1: 5})  # undefined on 3


def test_pattern_key_examples():
    assert FiniteVector.ones(2).pattern() == (1.0, 1.0)
    assert FiniteVector([(2, -3.0), (8, 1.0)]).pattern() == (3.0, 1.0)
    a = FiniteVector([(5, 1.0), (6, -1.0)])
    b = FiniteVector([(1, 1.0), (9, -1.0)])
    assert a.pattern() == b.pattern() == (1.0, 1.0)


def test_vector_invariants():
    with pytest.raises(ValueError):
        FiniteVector([(2, 1.0), (1, 1.0)])
    with pytest.raises(ValueError):
        FiniteVector([(0, 1.0)])
    # zeros are dropped, not stored
    assert FiniteVector([(1, 0.0), (2, 1.0)]).indices == (2,)
    z = FiniteVector.zero()
    assert z.support_size == 0 and z.sup_norm == 0.0 and z.l1_norm == 0.0


def test_vector_arithmetic_drops_cancellations():
    x = FiniteVector([(1, 1.0), (2, 2.0)])
    y = FiniteVector([(2, -2.0), (3, 1.0)])
    assert (x + y) == FiniteVector([(1, 1.0), (3, 1.0)])
    assert (2.0 * x).coefficients == (2.0, 4.0)
    assert (-x) + x == FiniteVector.zero()


def test_sum_matches_chained_addition(rng):
    for _ in range(30):
        vectors = [
            FiniteVector.from_dense(rng.uniform(-2, 2, size=int(rng.integers(1, 8))),
                                    start=int(rng.integers(1, 6)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        coeffs = [float(c) for c in rng.choice([0.0, 1.0, -0.5, 0.3, 1.7], size=len(vectors))]
        chained = FiniteVector.zero()
        for a, v in zip(coeffs, vectors):
            if a != 0.0:
                chained = chained + a * v
        assert FiniteVector.sum(vectors, coeffs) == chained  # bit for bit
        plain = FiniteVector.zero()
        for v in vectors:
            plain = plain + v
        assert FiniteVector.sum(vectors) == plain
    x = FiniteVector([(1, 1.0), (2, 2.0)])
    assert FiniteVector.sum([x, x], [1.0, -1.0]) == FiniteVector.zero()
    assert FiniteVector.sum([]) == FiniteVector.zero()


def test_vector_json_roundtrip():
    x = FiniteVector([(1, 1.5), (4, -0.25)])
    assert FiniteVector.from_json(x.to_json()) == x


def test_index_set_flavours_roundtrip():
    iv = IndexSet.interval(3, 7)
    ex = IndexSet.of([2, 5, 11])
    assert iv.cardinality == 5 and list(iv) == [3, 4, 5, 6, 7]
    assert ex.cardinality == 3 and 5 in ex and 6 not in ex
    assert IndexSet.from_json(iv.to_json()) == iv
    assert IndexSet.from_json(ex.to_json()) == ex
    assert iv.to_json() == [3, 7]
    assert ex.to_json() == {"set": [2, 5, 11]}
    assert IndexSet.of([1]).precedes(IndexSet.interval(2, 4))
    assert not IndexSet.interval(2, 4).precedes(IndexSet.of([4]))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 30), st.floats(-5, 5).filter(lambda c: abs(c) > 1e-6)),
        min_size=1,
        max_size=6,
        unique_by=lambda t: t[0],
    ),
    st.integers(0, 10),
)
def test_pattern_invariant_under_spread_and_flips(pairs, shift):
    x = FiniteVector(sorted(pairs))
    sigma = {i: i + shift + k for k, i in enumerate(x.indices)}
    flipped = x.flip_signs([(-1) ** k for k in range(x.support_size)])
    assert x.spread(sigma).pattern() == x.pattern()
    assert flipped.pattern() == x.pattern()


def test_huge_interval_is_never_listed():
    n = 2**70
    E = IndexSet.interval(1, n)
    assert E.cardinality == n and not E.is_empty
    assert (E.min, E.max) == (1, n)
    assert 1 in E and n in E and n + 1 not in E and 0 not in E
    assert E.precedes(IndexSet.interval(n + 1, n + 3))
    assert not E.precedes(IndexSet.of([n]))
    assert E.to_json() == [1, n]
    assert IndexSet.from_json(E.to_json()) == E


def test_index_set_flavours_stay_distinct():
    assert IndexSet.interval(2, 4) != IndexSet.of([2, 3, 4])
    assert IndexSet.of([2, 3, 4]).to_json() == {"set": [2, 3, 4]}
    assert IndexSet.empty().is_empty and IndexSet.empty().cardinality == 0


@pytest.mark.parametrize(
    "make",
    [lambda: IndexSet.interval(5, 4), lambda: IndexSet.interval(0, 3),
     lambda: IndexSet((3, 2)), lambda: IndexSet((2, 2)), lambda: IndexSet((0, 1)),
     lambda: IndexSet.from_json({"set": [4, 1]}), lambda: IndexSet.from_json([3, 2])],
    ids=["empty-interval", "zero-interval", "unsorted", "repeated", "zero-index",
         "unsorted-json", "empty-interval-json"],
)
def test_index_set_constructor_rejects(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: IndexSet.from_json(3), "cannot parse index set"),
        (lambda: IndexSet.empty().min, "no min"),
        (lambda: IndexSet.empty().max, "no max"),
        (lambda: FiniteVector.basis(1).spread({1: 0}), "not a positive integer"),
        (lambda: FiniteVector.ones(2).flip_signs([1]), "one sign per support point"),
        (lambda: FiniteVector.ones(2).flip_signs([1, 2]), "must be [+]-1"),
        (lambda: f_exceeds(3, -1), "budget must be nonnegative"),
    ],
    ids=["index-set-json", "empty-min", "empty-max", "spread-to-zero",
         "flip-wrong-length", "flip-non-sign", "negative-budget"],
)
def test_input_checks_raise(call, match):
    with pytest.raises(ValueError, match=match):
        call()
