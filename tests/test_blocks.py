import math
from itertools import product

import numpy as np
import pytest

from seqnorm import blocks
from seqnorm.blocks import (
    BlockBasis,
    BlockBasisError,
    EmbeddedBasis,
    UnconditionalityError,
    _samples,
    assemble_lp_average,
    embed_unconditional,
    engine_basis,
    equivalence_constant,
    lp_basis,
    matrix_basis_norm,
    operator_norm_oracle,
)
from seqnorm.constructions import feasible_average_sizes
from seqnorm.core import FiniteVector
from seqnorm.family_engine import Exhaustive, FamilyEngine, SegmentDP, get_engine
from seqnorm.qsum_engine import QSumConfig, QSumEngine, get_qsum_engine
from seqnorm.suites import random_unconditional_matrix


def test_block_basis_validation():
    BlockBasis((FiniteVector.ones(2), FiniteVector.ones(3, start=5)))
    with pytest.raises(BlockBasisError):
        BlockBasis((FiniteVector.ones(3), FiniteVector.ones(2, start=3)))  # overlap
    with pytest.raises(BlockBasisError):
        BlockBasis((FiniteVector.zero(),))


def test_block_basis_json_roundtrip():
    b = BlockBasis((FiniteVector.basis(1), FiniteVector.ones(2, start=3)))
    assert BlockBasis.from_json(b.to_json()) == b


# ----------------------------------------------------------------------
# matrix basis norm and oracle
# ----------------------------------------------------------------------


def test_matrix_norm_examples():
    assert matrix_basis_norm(np.eye(3)) == 1.0
    assert matrix_basis_norm([[1.0, 2.0], [3.0, -4.0]]) == 6.0
    assert matrix_basis_norm(np.zeros((2, 2))) == 0.0
    assert operator_norm_oracle(np.eye(3)) == 1.0
    assert operator_norm_oracle([[1.0, 2.0], [3.0, -4.0]]) == 6.0
    assert operator_norm_oracle([[7.0]]) == 7.0
    with pytest.raises(ValueError):
        operator_norm_oracle(np.ones((21, 2)))


def test_matrix_norm_equals_oracle_random(rng):
    for _ in range(300):
        n = int(rng.integers(1, 8))
        a = rng.integers(-9, 10, size=(n, n)).astype(float)
        assert matrix_basis_norm(a) == operator_norm_oracle(a)


# ----------------------------------------------------------------------
# the embedding
# ----------------------------------------------------------------------


def test_embed_l1_pair_example():
    # rows (1, 1) and (1, -1): the l_1^2 basis sitting inside l_inf^2
    emb = embed_unconditional(np.array([[1.0, 1.0], [1.0, -1.0]]))
    for b1 in (-2.0, 0.5, 1.0):
        for b2 in (-1.0, 0.25, 3.0):
            assert emb.combination_norm([b1, b2]) == pytest.approx(
                abs(b1) + abs(b2), abs=1e-12
            )


def test_embed_diagonal_and_scaling():
    emb = embed_unconditional(np.eye(3))
    assert emb.combination_norm([1.0, -2.0, 0.5]) == 2.0
    emb = embed_unconditional(np.array([[2.0]]))
    assert emb.combination_norm([-3.0]) == 6.0


def test_embed_rejects_conditional_rows():
    # two equal rows: flipping one sign changes the combination norm
    with pytest.raises(UnconditionalityError):
        embed_unconditional(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_embed_sides_read_embedding_and_coordinates():
    # conditional rows: the coordinate norm of b = (1, -1) cancels to 0, while
    # the embedded combination e_11 + e_12 - e_21 - e_22 has matrix norm 2
    rows = np.array([[1.0, 1.0], [1.0, 1.0]])
    emb = EmbeddedBasis(rows, 2, (FiniteVector.ones(2), FiniteVector.ones(2, start=3)))
    assert emb.reference_norm([1.0, -1.0]) == 0.0
    assert emb.combination_norm([1.0, -1.0]) == 2.0


def test_embed_identity_random(rng):
    for _ in range(200):
        a = random_unconditional_matrix(rng)
        emb = embed_unconditional(a, seed=int(rng.integers(0, 2**31)))
        b = rng.normal(size=a.shape[0])
        assert emb.combination_norm(b) == pytest.approx(
            emb.reference_norm(b), abs=1e-12, rel=1e-12
        )
        # block structure in the flattened coordinates
        prev = 0
        for v in emb.vectors:
            if v.support_size == 0:
                continue
            assert v.indices[0] > prev
            prev = v.indices[-1]


# ----------------------------------------------------------------------
# equivalence constants
# ----------------------------------------------------------------------


def test_equivalence_examples(ex_engine):
    pair = BlockBasis((FiniteVector.basis(1), FiniteVector.basis(2)))
    ev = engine_basis(ex_engine, pair)
    est = equivalence_constant(ev, lp_basis(math.inf, 2))
    assert est.lower == 1.0 and est.exact
    est = equivalence_constant(ev, lp_basis(1, 2))
    assert est.lower == 2.0 and est.exact
    est = equivalence_constant(ev, ev)
    assert est.lower == 1.0


def test_x1_singleton_pair_is_not_the_square(small_engine, seg_engine):
    # ||e1 + e3|| is 1.0655 in x1 small, so its unit ball is not the square and
    # the distance to l_inf^2 is that norm; in x2 the two-point norm is the max
    pair = BlockBasis((FiniteVector.basis(1), FiniteVector.basis(3)))
    est = equivalence_constant(engine_basis(small_engine, pair), lp_basis(math.inf, 2))
    assert not est.exact and est.ratio_ba == 1.0
    assert est.lower == est.ratio_ab == pytest.approx(1.0655, abs=1e-4)
    assert est.lower == small_engine.norm(FiniteVector.sum(pair.vectors))
    est = equivalence_constant(engine_basis(seg_engine, pair), lp_basis(math.inf, 2))
    assert est.exact and est.lower == 1.0


def test_equivalence_symmetry_and_lower_bound(ex_engine, rng):
    a = lp_basis(1, 3)
    b = lp_basis(2, 3)
    d_ab = equivalence_constant(a, b)
    d_ba = equivalence_constant(b, a)
    assert d_ab.lower == pytest.approx(d_ba.lower, rel=1e-12)
    assert d_ab.lower >= 1.0
    with pytest.raises(ValueError):
        equivalence_constant(lp_basis(1, 2), lp_basis(1, 3))


def _signed_estimate(A, B):
    """(lower, exact, ratio_ab, ratio_ba) with every sign copy of each point read:
    the signed vertex lists when both are known, else the signed samples."""
    def signed(points):
        return [tuple(s * c for s, c in zip(signs, t))
                for t in points for signs in product((-1.0, 1.0), repeat=len(t))]

    exact = A.extreme_points is not None and B.extreme_points is not None
    on_b = signed(B.extreme_points if exact else _samples(A.length))  # sup of N_A on the B-ball
    on_a = signed(A.extreme_points) if exact else on_b
    ratio_ab = max(A.norm(t) / B.norm(t) for t in on_b if B.norm(t) > 0)
    ratio_ba = max(B.norm(t) / A.norm(t) for t in on_a if A.norm(t) > 0)
    return ratio_ab * ratio_ba, exact, ratio_ab, ratio_ba


def test_points_in_the_positive_orthant_give_the_signed_estimates(
        ex_engine, seg_engine, small_engine):
    # both norms are 1-unconditional: the 0/1 points read the same doubles as
    # a full sign enumeration of the samples, or of the ball vertices
    for n in range(1, 7):
        indicators = {t for t in product((0.0, 1.0), repeat=n) if any(t)}
        assert set(_samples(n)[: 2**n - 1]) == indicators
        assert lp_basis(math.inf, n).extreme_points == ((1.0,) * n,)
        assert set(lp_basis(1, n).extreme_points) == {t for t in indicators if sum(t) == 1}
    square = engine_basis(ex_engine, BlockBasis((FiniteVector.basis(1), FiniteVector.basis(2))))
    assert square.extreme_points == ((1.0, 1.0),)
    evaluators = [square]
    rng = np.random.default_rng(3)
    for engine in (ex_engine, seg_engine, small_engine):
        for n in range(1, 4):
            blocks, start = [], 1
            for _ in range(n):
                v = FiniteVector.from_dense(rng.uniform(0.1, 3.0, int(rng.integers(1, 3))),
                                            start=start + int(rng.integers(0, 2)))
                blocks.append((1.0 / engine.norm(v)) * v)
                start = v.indices[-1] + 1
            evaluators.append(engine_basis(engine, BlockBasis(tuple(blocks))))
    for ev in evaluators:
        for p in (1, 1.5, math.inf):
            est = equivalence_constant(ev, lp_basis(p, ev.length))
            assert (est.lower, est.exact, est.ratio_ab, est.ratio_ba) == _signed_estimate(
                ev, lp_basis(p, ev.length))


# ----------------------------------------------------------------------
# assembled averages
# ----------------------------------------------------------------------


def test_assemble_average_examples(ex_engine):
    pair = BlockBasis((FiniteVector.basis(1), FiniteVector.basis(2)))
    avg = assemble_lp_average(pair, 1, ex_engine)
    assert avg.vector == 0.5 * FiniteVector.ones(2)
    assert avg.constant == 2.0 and avg.exact
    avg = assemble_lp_average(pair, math.inf, ex_engine)
    assert avg.vector == FiniteVector.ones(2)
    assert avg.constant == 1.0 and avg.exact
    single = BlockBasis((FiniteVector.ones(3),))
    avg = assemble_lp_average(single, 2, ex_engine)
    assert avg.vector == FiniteVector.ones(3)
    assert avg.constant == 1.0


def test_assemble_rejects_unnormalized(ex_engine):
    blocks = BlockBasis((FiniteVector.basis(1, 2.0), FiniteVector.basis(2)))
    with pytest.raises(BlockBasisError, match="not normalized"):
        assemble_lp_average(blocks, 1, ex_engine)


#: every (p, k, run length) of the averages the suites draw
SUITE_SHAPES = [(p, k, length) for p in (1.0, 2.0) for k in range(1, feasible_average_sizes(p) + 1)
                for length in (1, 2, 3, 4) if k * length <= 12]


def _run_blocks(engine, k, length, start=1, gaps=(0,)):
    """k normalized runs of `length` equal coefficients, gaps[j] empty places after block j."""
    vectors, pos = [], start
    for j in range(k):
        v = FiniteVector.ones(length, start=pos)
        vectors.append((1.0 / engine.norm(v)) * v)
        pos += length + gaps[j % len(gaps)]
    return BlockBasis(tuple(vectors))


def _certificate(avg):
    return avg.constant.hex(), avg.sampled_lower.hex(), avg.exact


@pytest.fixture()
def certificates(monkeypatch):
    """An empty certificate cache, and the lengths `equivalence_constant` was called on."""
    monkeypatch.setattr(blocks, "_certificates", {})
    misses, fresh = [], blocks.equivalence_constant

    def counted(A, B):
        misses.append(A.length)
        return fresh(A, B)

    monkeypatch.setattr(blocks, "equivalence_constant", counted)
    return misses


@pytest.mark.parametrize("mode", ["exhaustive", "segment", "small"])
def test_kept_certificates_are_bit_equal_to_fresh_ones(certificates, mode):
    # the shared engine computes each shape once and keeps it for blocks of the
    # same patterns at other starts and gaps; a new engine of the same kind,
    # with empty memos, computes every certificate again to the same bits
    shared, new = {
        "exhaustive": (get_engine(Exhaustive()), FamilyEngine(Exhaustive())),
        "segment": (get_engine(SegmentDP()), FamilyEngine(SegmentDP())),
        "small": (get_qsum_engine(QSumConfig.small()), QSumEngine(QSumConfig.small())),
    }[mode]
    for p, k, length in SUITE_SHAPES:
        first = assemble_lp_average(_run_blocks(shared, k, length), p, shared)
        moved = _run_blocks(shared, k, length, start=7, gaps=(2, 0, 1))
        again = assemble_lp_average(moved, p, shared)
        fresh = assemble_lp_average(_run_blocks(new, k, length), p, new)
        assert _certificate(again) == _certificate(first) == _certificate(fresh)
        assert again.vector.indices != first.vector.indices
        assert again.vector == moved.combine([k ** (-1.0 / p)] * k)
        assert again.vector.pattern() == first.vector.pattern()
    assert certificates == [k for _, k, _ in SUITE_SHAPES for _ in "sn"]  # shared, new: once each
    assert len(blocks._certificates) == 2 * len(SUITE_SHAPES)


def test_certificates_stay_within_their_bound(certificates, monkeypatch, ex_engine):
    monkeypatch.setattr(blocks, "MAX_CERTIFICATES", 5)
    for p in (1.0, 1.25, 1.5, 2.0, 3.0, math.inf):
        for length in (1, 2, 3, 4):
            assemble_lp_average(_run_blocks(ex_engine, 2, length), p, ex_engine)
            assert len(blocks._certificates) <= 5
    assert len(certificates) == 24


def test_certificates_are_kept_per_engine(certificates, ex_engine, small_engine):
    # ||e1 + e3|| is 1 in x2 and 1.0655 in x1 small: the same blocks, two certificates
    pair = BlockBasis((FiniteVector.basis(1), FiniteVector.basis(3)))
    for _ in range(2):
        x2 = assemble_lp_average(pair, math.inf, ex_engine)
        x1 = assemble_lp_average(pair, math.inf, small_engine)
        assert (x2.constant, x2.sampled_lower, x2.exact) == (1.0, 1.0, True)
        assert x1.sampled_lower == small_engine.norm(FiniteVector.sum(pair.vectors))
        assert x1.sampled_lower > 1.06 and not x1.exact
    assert certificates == [2, 2]


def test_normalization_is_checked_on_a_kept_certificate(certificates, ex_engine):
    pair = BlockBasis((FiniteVector.basis(1), FiniteVector.basis(2)))
    assemble_lp_average(pair, 1, ex_engine)
    assemble_lp_average(pair, 1, ex_engine)
    unnormalized = BlockBasis((FiniteVector.basis(1, 2.0), FiniteVector.basis(2)))
    blocks._certificates[((2.0,), (1.0,)), 1, ex_engine] = (2.0, 2.0, True)
    with pytest.raises(BlockBasisError, match="not normalized"):
        assemble_lp_average(unnormalized, 1, ex_engine)
    assert certificates == [2]


def test_average_norm_in_certified_range(ex_engine, rng):
    from seqnorm.constructions import build_average, feasible_average_sizes

    for _ in range(25):
        p = float(rng.choice([1.0, 2.0]))
        k = int(rng.integers(1, feasible_average_sizes(p) + 1))
        avg = build_average(p, k, ex_engine, lengths=[int(rng.choice([1, 2, 3]))],
                            gap_rng=rng)
        v = ex_engine.norm(avg.vector)
        assert 1.0 / avg.constant - 1e-12 <= v <= avg.constant + 1e-12
        assert avg.sampled_lower <= avg.constant + 1e-12


def test_empty_matrix_norms_are_zero():
    assert matrix_basis_norm([]) == 0.0
    assert operator_norm_oracle([]) == 0.0


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: BlockBasis((FiniteVector.basis(1), FiniteVector.basis(2))).combine([1.0]),
         "one coefficient per block"),
        (lambda: matrix_basis_norm([1.0, 2.0]), "need a 2d coefficient array"),
        (lambda: operator_norm_oracle([1.0, 2.0]), "need a 2d coefficient array"),
        (lambda: embed_unconditional([1.0, 2.0]), "need an m x n coordinate array"),
        (lambda: equivalence_constant(lp_basis(2, 0), lp_basis(2, 0)), "got length 0"),
        (lambda: equivalence_constant(lp_basis(1, 0), lp_basis(1, 0)), "got length 0"),
    ],
    ids=["combine-wrong-length", "matrix-norm-1d", "oracle-1d", "embed-1d",
         "equivalence-empty-l2", "equivalence-empty-l1"],
)
def test_input_checks_raise(call, match):
    with pytest.raises(ValueError, match=match):
        call()
