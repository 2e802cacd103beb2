import math

import numpy as np
import pytest

from seqnorm.blocks import (
    BlockBasis,
    BlockBasisError,
    EmbeddedBasis,
    UnconditionalityError,
    assemble_lp_average,
    embed_unconditional,
    engine_basis,
    equivalence_constant,
    lp_basis,
    matrix_basis_norm,
    operator_norm_oracle,
)
from seqnorm.core import FiniteVector
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
