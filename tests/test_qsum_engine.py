import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from conftest import random_test_vector
from oracles import BruteScaleNorm, RunScaleNorm
from seqnorm.core import EQ_TOL, FiniteVector, f
from seqnorm.qsum_engine import ConfigError, QSumConfig, QSumEngine
from seqnorm.witness import QuadraticWitness, SupWitness, evaluate_witness, validate_witness

TINY = QSumConfig.custom([2], "zeta")  # n_k = 3, 7, 15, 31, ...


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


def test_small_preset_sequence():
    cfg = QSumConfig.small()
    assert [cfg.n_at(k) for k in (1, 2, 3)] == [15, 31, 63]
    assert [cfg.f_exponent(k) for k in (1, 2, 5)] == [4, 5, 8]
    # Q^2 = zeta(2) - 1 - 1/4 - 1/9, cross-checked against mpmath
    expected = float(mpmath.zeta(2) - 1 - mpmath.mpf(1) / 4 - mpmath.mpf(1) / 9)
    assert cfg.q**2 == pytest.approx(expected, abs=1e-14)
    assert cfg.q < 1


def test_paper_preset_sequence():
    cfg = QSumConfig.paper_faithful()
    assert cfg.f_exponent(1) == 40 and cfg.f_exponent(2) == 80
    assert cfg.n_at(1) == (1 << 40) - 1
    assert cfg.n_at(1) > 10**6  # desk-scale vectors always hit the closed form
    assert cfg.q == pytest.approx(1 / (20 * math.sqrt(3)), abs=1e-15)
    # reciprocal sum constraint: sum 1/f(n_k) = 1/20 < 1/10
    recip = sum(1.0 / cfg.f_nk(k) for k in range(1, 40))
    assert recip == pytest.approx(1 / 20, abs=1e-9)


def test_tail_values_against_mpmath():
    cfg = QSumConfig.small()
    for start in (1, 2, 4, 7):
        expected = float(mpmath.zeta(2, start + 3))
        assert cfg.tail(start) == pytest.approx(expected, rel=1e-13)
    tiny = TINY
    for start in (1, 3):
        assert tiny.tail(start) == pytest.approx(float(mpmath.zeta(2, start + 1)), rel=1e-13)
    geo = QSumConfig.custom([3], "geometric")
    # sum_{j>=0} (3*2^j)^-2 = (1/9)(4/3)
    assert geo.tail(1) == pytest.approx((1 / 9) * (4 / 3), rel=1e-13)
    # every zeta tail within one ulp: also a continuation from a >= 20 (custom([40]))
    # and explicit exponents before the continuation (custom([3, 5, 30]))
    wide, head = QSumConfig.custom([40]), QSumConfig.custom([3, 5, 30])
    with mpmath.workdps(40):
        cases = [(cfg, s, mpmath.zeta(2, s + 3)) for s in (1, 2, 4, 7)]
        cases += [(tiny, s, mpmath.zeta(2, s + 1)) for s in (1, 3)]
        cases += [(wide, s, mpmath.zeta(2, s + 39)) for s in (1, 2, 30)]
        cases += [(head, s, sum(mpmath.mpf(1) / v**2 for v in (3, 5, 30)[s - 1 :])
                   + mpmath.zeta(2, 31)) for s in (1, 2, 3, 4)]
        for c, start, exact in cases:
            assert abs(c.tail(start) - exact) <= math.ulp(float(exact)), (c, start)


def test_config_validation():
    with pytest.raises(ConfigError):
        QSumConfig.custom([1], "zeta")  # Q >= 1
    with pytest.raises(ConfigError):
        QSumConfig.custom([3, 3], "zeta")
    with pytest.raises(ConfigError):
        QSumConfig.custom([2], "nope")
    with pytest.raises(ConfigError):
        QSumConfig.custom([2.5], "zeta")  # no silent truncation


def test_config_json_roundtrip():
    for cfg in (QSumConfig.small(), QSumConfig.paper_faithful(), TINY):
        assert QSumConfig.from_json(cfg.to_json()) == cfg


# ----------------------------------------------------------------------
# closed forms and values fixed by direct computation
# ----------------------------------------------------------------------


def test_unit_vector_norm(small_engine, paper_engine):
    e1 = FiniteVector.basis(1)
    assert small_engine.norm(e1) == 1.0
    assert paper_engine.norm(e1) == 1.0


def test_small_preset_values(small_engine):
    cfg = small_engine.cfg
    x15 = FiniteVector.ones(15)
    assert small_engine.norm(x15) == pytest.approx(15 * cfg.q, abs=1e-12)
    assert small_engine.norm(x15) == pytest.approx(7.9913, abs=1e-3)
    x4 = FiniteVector.ones(4)
    assert small_engine.norm_k(x4, 2) == pytest.approx((1 + 3 * cfg.q) / f(2), abs=1e-12)
    assert small_engine.norm_k(x4, 2) == pytest.approx(1.6393, abs=1e-3)


def test_norm_k_at_a_level_beyond_the_double_range():
    # 10**400 is too large for a float; f takes the exact integer 1 + k
    x = FiniteVector([(1, 1.0), (2, 0.7), (4, 0.3)])
    engine = QSumEngine(QSumConfig.small())
    assert engine.norm_k(x, 10**400) == engine.best_partition_sum(x, 3) / f(10**400)


def test_norm_k_examples(small_engine):
    e12 = FiniteVector.ones(2)
    assert small_engine.norm_k(e12, 5) == pytest.approx(2 / f(5), abs=1e-12)
    assert small_engine.norm_k(FiniteVector.basis(1), 1) == 1.0
    # divided before unscaling: a value near the top of the double range is no overflow
    x = FiniteVector.from_dense([1e308] * 3)
    assert small_engine.norm_k(x, 2) == 1024 * small_engine.norm_k(x * (1 / 1024), 2)


def test_paper_closed_form(paper_engine, rng):
    q = paper_engine.cfg.q
    x100 = FiniteVector.ones(100)
    assert paper_engine.norm(x100) == pytest.approx(100 / (20 * math.sqrt(3)), abs=1e-12)
    for _ in range(50):
        x = random_test_vector(rng, 40)
        assert paper_engine.norm(x) == pytest.approx(
            max(x.sup_norm, q * x.l1_norm), abs=1e-12
        )


def test_closed_form_agrees_with_general_path(small_engine):
    # up to 15 = n_1 points no scale splits: the norm is max(sup, Q * l1)
    q = QSumConfig.small().q
    for x in [FiniteVector.ones(n) for n in (1, 3, 9, 15)] + [
        FiniteVector([(2, 1.5), (7, -0.4), (9, 2.0)])
    ]:
        assert small_engine.norm(x) == pytest.approx(max(x.sup_norm, q * x.l1_norm), abs=1e-12)


# ----------------------------------------------------------------------
# brute-force cross-check on a small-scale custom sequence
# ----------------------------------------------------------------------


def test_brute_force_tiny_config(rng):
    engine = QSumEngine(TINY)
    for _ in range(20):
        x = random_test_vector(rng, 5)
        brute = BruteScaleNorm(x, lambda k: k + 1)
        b = brute.norm()
        assert engine.norm(x) == pytest.approx(b, abs=1e-9)
        for k in range(1, 7):
            assert engine.norm_k(x, k) == pytest.approx(brute.norm_k(k), abs=1e-9)


def test_tables_match_first_piece_recursion(rng):
    # TINY splits at 3, 7 and 15, small at 15 and 31; each m adds its own halvings
    for cfg, max_support in ((TINY, 30), (QSumConfig.small(), 40)):
        engine = QSumEngine(cfg)
        for _ in range(5):
            x = random_test_vector(rng, max_support)
            ref = RunScaleNorm(x, cfg)
            n = x.support_size
            assert engine.norm(x) == pytest.approx(ref.norm(), rel=EQ_TOL)
            for m in (2, 3, 5, 6, 11, 13, 20):
                got = engine.best_partition_sum(x, m)
                assert got == pytest.approx(ref.bps(0, n, m), rel=EQ_TOL)


@pytest.mark.parametrize("cfg", [TINY, QSumConfig.small(), QSumConfig.paper_faithful()],
                         ids=["tiny", "small", "paper"])
def test_scales_and_tails_kept_per_engine(monkeypatch, cfg):
    # both depend on the config alone: 300 builds on one engine read what a fresh
    # engine computes, and each tail sum is computed once per scale index
    sizes = np.random.default_rng(17).integers(1, 601, 300).tolist()
    want = [QSumEngine(cfg)._scales(n) for n in sizes]
    calls, tail = [], QSumConfig.tail
    monkeypatch.setattr(QSumConfig, "tail", lambda self, start: calls.append(start) or tail(self, start))
    engine = QSumEngine(cfg)
    for n, (scales, tails) in zip(sizes, want, strict=True):
        T = engine._build(tuple(np.linspace(0.5, 1.5, n).tolist()))
        assert (T.scales, T.tails) == (scales, tails)
    assert sorted(calls) == list(range(1, 1 + max(len(tails) for _, tails in want)))


def test_partition_machinery_activates(small_engine):
    # above n_1 = 15 the first scale genuinely splits the vector
    x30 = FiniteVector.ones(30)
    v = small_engine.norm(x30)
    closed = max(1.0, small_engine.cfg.q * 30)
    assert v < closed - 1e-6  # the naive closed form overshoots here
    assert v > small_engine.norm(FiniteVector.ones(15))


# ----------------------------------------------------------------------
# profile and truncation
# ----------------------------------------------------------------------


def test_profile_examples(small_engine):
    cfg = small_engine.cfg
    e12 = FiniteVector.ones(2)
    head, tail = small_engine.profile(e12, 3)
    assert head == pytest.approx([2 / 4, 2 / 5, 2 / 6], abs=1e-12)
    assert tail == pytest.approx(2 * math.sqrt(cfg.tail(4)), abs=1e-12)
    e1 = FiniteVector.basis(1)
    head, tail = small_engine.profile(e1, 1)
    assert head == pytest.approx([1 / 4], abs=1e-12)
    assert head[0] ** 2 + tail**2 == pytest.approx(cfg.q**2, abs=1e-12)
    head, tail = small_engine.profile(FiniteVector.zero(), 3)
    assert head == [0.0, 0.0, 0.0] and tail == 0.0


def test_profile_consistent_with_norm_branch(small_engine, rng):
    for _ in range(20):
        x = random_test_vector(rng, 25)
        head, tail = small_engine.profile(x, 4)
        branch = math.sqrt(sum(h * h for h in head) + tail * tail)
        assert small_engine.norm(x) == pytest.approx(
            max(x.sup_norm, branch), abs=1e-9
        )


def test_truncation_is_exact_singletons(small_engine, rng):
    # scales with n_k >= support contribute l1/f(n_k) exactly
    for _ in range(10):
        x = random_test_vector(rng, 12)
        head, _ = small_engine.profile(x, 3)
        for k, h in enumerate(head, start=1):
            if small_engine.cfg.n_at(k) >= x.support_size:
                assert h == pytest.approx(
                    x.l1_norm / small_engine.cfg.f_nk(k), abs=1e-12
                )


# ----------------------------------------------------------------------
# fixed point, levels, witnesses
# ----------------------------------------------------------------------


def test_fixed_point(small_engine, rng):
    assert small_engine.fixed_point_residual(FiniteVector.basis(1)) == 0.0
    x15 = FiniteVector.ones(15)
    assert small_engine.fixed_point_residual(x15) <= 1e-12
    x30 = FiniteVector.ones(30)
    assert small_engine.fixed_point_residual(x30) <= 1e-9
    for _ in range(20):
        x = random_test_vector(rng, 30)
        assert small_engine.fixed_point_residual(x) <= 1e-9


def test_iterate_levels(small_engine, rng):
    levels = small_engine.iterate_levels(FiniteVector.basis(1))
    assert levels == [1.0, 1.0]
    x = FiniteVector.ones(30)
    levels = small_engine.iterate_levels(x)
    assert levels[0] == 1.0
    assert all(b >= a - 1e-15 for a, b in zip(levels, levels[1:]))
    assert levels[-1] == pytest.approx(small_engine.norm(x), abs=1e-12)
    assert levels[-1] <= x.l1_norm


def test_iterate_levels_scale_free(small_engine):
    # the stopping rule is relative to the largest coefficient
    levels = small_engine.iterate_levels(FiniteVector.ones(30))
    tiny = small_engine.iterate_levels(1e-300 * FiniteVector.ones(30))
    assert len(tiny) == len(levels) == 5
    assert tiny == pytest.approx([1e-300 * v for v in levels], rel=EQ_TOL)


def test_witness(small_engine, rng):
    from seqnorm.witness import witness_from_json, witness_to_json

    x15 = FiniteVector.ones(15)
    v, w = small_engine.norm(x15, with_witness=True)
    assert isinstance(w, QuadraticWitness)
    validate_witness(w, x15)
    assert evaluate_witness(w, x15) == pytest.approx(v, abs=1e-12)
    assert witness_from_json(witness_to_json(w)) == w
    v, w = small_engine.norm(FiniteVector.basis(3), with_witness=True)
    assert isinstance(w, SupWitness)
    x30 = FiniteVector.ones(30)
    v, w = small_engine.norm(x30, with_witness=True)
    assert isinstance(w, QuadraticWitness)
    assert len(w.head) == 1  # only n_1 = 15 splits a 30-point vector
    validate_witness(w, x30)
    assert evaluate_witness(w, x30) == pytest.approx(v, abs=1e-12)
    for n, splits in ((40, 2), (70, 3)):
        x = FiniteVector(zip(range(1, n + 1), rng.uniform(0.1, 3.0, n)))
        v, w = small_engine.norm(x, with_witness=True)
        assert isinstance(w, QuadraticWitness)
        assert [m for m, _ in w.head] == [15, 31, 63][:splits]
        validate_witness(w, x)
        assert evaluate_witness(w, x) == pytest.approx(v, rel=1e-12)
        assert witness_from_json(witness_to_json(w)) == w


@pytest.mark.parametrize("forge", [
    lambda w: replace(w, head=tuple((n, replace(c, divisor=c.divisor / 4)) for n, c in w.head)),
    lambda w: replace(w, head=w.head + w.head[-1:]),
    lambda w: replace(w, tail_start=1),
], ids=["divisors-quartered", "last-head-entry-repeated", "tail-start-one"])
def test_witness_rejects_forged_head(forge):
    # the small witness of a 40-point vector (norm 33.248, heads at 15 and 31);
    # the forgeries would re-evaluate to 75.81, 35.56 and 33.248
    x = FiniteVector.from_dense(np.random.default_rng(0).uniform(0.1, 3.0, 40))
    v, w = QSumEngine(QSumConfig.small()).norm(x, with_witness=True)
    assert v == pytest.approx(33.248, abs=1e-3) and [n for n, _ in w.head] == [15, 31]
    validate_witness(w, x)
    with pytest.raises(ValueError):
        evaluate_witness(forge(w), x)


def test_witness_rejects_infinite_tail():
    # an infinite tail re-evaluates to an infinite value: it certifies nothing
    x = FiniteVector.from_dense(np.random.default_rng(0).uniform(0.1, 3.0, 40))
    w = QSumEngine(QSumConfig.small()).norm(x, with_witness=True)[1]
    forged = replace(w, tail_l2=math.inf, value=math.inf)
    assert evaluate_witness(forged, x) == math.inf
    with pytest.raises(ValueError, match="re-evaluates"):
        validate_witness(forged, x)


@pytest.mark.parametrize("config", [
    QSumConfig.small(), QSumConfig.paper_faithful(),
    QSumConfig.custom([3, 5]), QSumConfig.custom([3, 5], "geometric"),
], ids=["small", "paper", "custom-zeta", "custom-geometric"])
def test_engine_witness_heads_validate(config):
    engine = QSumEngine(config)
    rng = np.random.default_rng(5)
    for n in (1, 8, 16, 33, 70, 130):
        for coefs in (rng.uniform(0.1, 3.0, n), np.ones(n), np.exp(rng.uniform(-30, 30, n))):
            x = FiniteVector.from_dense(coefs)
            validate_witness(engine.norm(x, with_witness=True)[1], x)


@pytest.mark.parametrize("with_witness", [False, True])
def test_homogeneity_over_double_range(rng, with_witness):
    engine = QSumEngine(QSumConfig.small())
    vectors = [FiniteVector.ones(20)] + [random_test_vector(rng, 40) for _ in range(4)]
    for x in vectors:
        base = engine.norm(x)
        for k in (0, 50, 100, 160, 200, 300):
            for c in (10.0**k, -(10.0**-k)):
                y = c * x
                got = engine.norm(y, with_witness=with_witness)
                if with_witness:
                    got, w = got
                    validate_witness(w, y)
                    assert w.value == pytest.approx(got, rel=EQ_TOL)
                assert got == pytest.approx(abs(c) * base, rel=EQ_TOL)


def test_engine_invariants_shared_with_family_norm(small_engine, rng):
    for _ in range(30):
        x = random_test_vector(rng, 20)
        v = small_engine.norm(x)
        assert x.sup_norm - 1e-12 <= v <= x.l1_norm + 1e-12
        signs = [int(s) for s in rng.choice([-1, 1], size=x.support_size)]
        sigma = {i: int(i + j + 1) for j, i in enumerate(x.indices)}
        assert small_engine.norm(x.flip_signs(signs).spread(sigma)) == v


# ----------------------------------------------------------------------
# block-sum lower bound
# ----------------------------------------------------------------------


def test_block_sum_lower_bound_unit_vectors(small_engine):
    blocks = [FiniteVector.basis(i) for i in range(1, 16)]
    margin = small_engine.block_sum_lower_bound(blocks)
    assert margin >= -1e-9
    # 15 Q - 15/4, both in closed form
    assert margin == pytest.approx(15 * small_engine.cfg.q - 15 / 4, abs=1e-12)


def test_block_sum_lower_bound_two_point_blocks(small_engine):
    pair_norm = small_engine.norm(FiniteVector.ones(2))
    blocks = [
        (1.0 / pair_norm) * FiniteVector.ones(2, start=2 * j + 1) for j in range(15)
    ]
    assert small_engine.block_sum_lower_bound(blocks) >= -1e-9


def test_block_sum_lower_bound_errors(small_engine):
    blocks = [FiniteVector.basis(i) for i in range(1, 15)]  # 14 blocks
    with pytest.raises(ValueError, match="not one of the configured scales"):
        small_engine.block_sum_lower_bound(blocks)
    bad = [FiniteVector.basis(i, 2.0) for i in range(1, 16)]  # not normalized
    with pytest.raises(ValueError, match="not normalized"):
        small_engine.block_sum_lower_bound(bad)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda engine: engine.cfg.f_exponent(0), "scales are indexed from 1"),
        (lambda engine: engine.norm_k(FiniteVector.ones(2), 0), "need k >= 1"),
        (lambda engine: engine.profile(FiniteVector.ones(2), 0), "need K >= 1"),
        (lambda engine: engine.best_partition_sum(FiniteVector.ones(2), 0), "need m >= 1"),
    ],
    ids=["exponent-0", "norm-k-0", "profile-0", "partition-sum-0"],
)
def test_input_checks_raise(small_engine, call, match):
    with pytest.raises(ValueError, match=match):
        call(small_engine)
