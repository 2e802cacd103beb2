import gc
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_test_vector
from oracles import BruteFamilyNorm, evaluate_witness_restrict
import seqnorm
from seqnorm import QSumConfig, family_engine, norm_ell, norm_x1, norm_x2, qsum_engine
from seqnorm.admissible import AdmissibleFamily, FamilyValidationError
from seqnorm.core import EQ_TOL, FiniteVector, IndexSet, f
from seqnorm.family_engine import (
    Exhaustive, FamilyEngine, SearchMode, SegmentDP, SupportLimitError, _Pieces, get_engine,
)
from seqnorm.qsum_engine import QSumEngine, get_qsum_engine
from seqnorm.run_tables import MAX_ENGINES, unscale
from seqnorm.witness import (
    FamilyWitness, PartitionWitness, QuadraticWitness, SupWitness, evaluate_witness,
    validate_witness, witness_from_json, witness_to_json,
)

E1 = FiniteVector.basis(1)
E12 = FiniteVector.ones(2)
EXHAUSTIVE_CORPUS = Path(__file__).parent / "data" / "x2_exhaustive_corpus.json"


def piecewise_constant(rng, runs, max_len):
    """`runs` runs of equal coefficients, consecutive runs unequal."""
    values = rng.uniform(0.1, 3.0, size=runs)
    lengths = rng.integers(1, max_len + 1, size=runs)
    return FiniteVector.from_dense([v for v, n in zip(values, lengths) for _ in range(n)])


# ----------------------------------------------------------------------
# values fixed by direct computation
# ----------------------------------------------------------------------


def test_singleton_and_pair(ex_engine):
    assert ex_engine.norm(E1) == 1.0
    assert ex_engine.norm(E12) == 1.0
    assert ex_engine.norm(FiniteVector.zero()) == 0.0


def test_two_point_closed_form(ex_engine):
    for a in np.linspace(-2, 2, 9):
        for b in np.linspace(-2, 2, 9):
            x = FiniteVector([(1, a), (3, b)])
            assert ex_engine.norm(x) == max(abs(a), abs(b))


def test_triple_norm_examples(ex_engine):
    assert ex_engine.triple_norm(E1, 5) == pytest.approx(1 / 5, abs=1e-12)
    assert ex_engine.triple_norm(E12, 2) == pytest.approx(1.0, abs=1e-12)
    half = 0.5 * E12
    assert ex_engine.triple_norm(half, 2) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        ex_engine.triple_norm(E12, 1)


def test_triple_norm_dominated_by_norm(ex_engine, rng):
    # |||x|||_m <= ||x|| (the one-set family) and <= l1(x); decreasing in m
    # beyond the support size
    for _ in range(15):
        x = random_test_vector(rng, 7)
        v = ex_engine.norm(x)
        n = x.support_size
        prev = None
        for m in range(2, n + 4):
            t = ex_engine.triple_norm(x, m)
            assert t <= v + 1e-12
            assert t <= x.l1_norm + 1e-12
            if m > n and prev is not None:
                assert t < prev + 1e-15
            prev = t


def test_best_partition_sum_examples(ex_engine):
    assert ex_engine.best_partition_sum(E12, 2) == 2.0
    assert ex_engine.best_partition_sum(E12, 1) == 1.0
    assert ex_engine.best_partition_sum(FiniteVector.ones(4), 4) == 4.0
    # nondecreasing in m, equals l1 beyond the support size
    x = FiniteVector([(1, 1.0), (2, -0.5), (5, 2.0)])
    vals = [ex_engine.best_partition_sum(x, m) for m in range(1, 6)]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(x.l1_norm, abs=1e-12)


def test_norm_ell_examples(ex_engine):
    assert ex_engine.norm_ell(E12, 1) == pytest.approx(1.0, abs=1e-12)
    assert ex_engine.norm_ell(E12, 2) == pytest.approx(1 / f(2), abs=1e-12)
    assert ex_engine.norm_ell(E1, 5) == pytest.approx(0.5 / f(5), abs=1e-12)


@pytest.mark.parametrize("mode", [Exhaustive(), SegmentDP()], ids=["exhaustive", "segment"])
def test_norm_ell_at_a_level_beyond_the_double_range(mode):
    # 10**400 is too large for a float; f takes the exact integer 1 + ell.  A
    # 3-point vector's best family has at most 3 sets, so its sum is reached at ell = 3.
    x = FiniteVector([(1, 1.0), (2, 0.7), (4, 0.3)])
    engine = FamilyEngine(mode)
    best_sum = engine.norm_ell(x, 3) * f(3)
    assert engine.norm_ell(x, 10**400) == pytest.approx(best_sum / f(10**400), rel=1e-15)


def test_norm_ell_m0_examples(ex_engine):
    assert ex_engine.norm_ell_m0(E12, 1, 2) == ex_engine.norm_ell(E12, 1)
    assert ex_engine.norm_ell_m0(E12, 1, 4) == pytest.approx(0.5, abs=1e-12)
    assert ex_engine.norm_ell_m0(E1, 1, 3) == pytest.approx(1 / 3, abs=1e-12)
    # decreasing in m0
    x = FiniteVector([(1, 1.0), (2, 0.7), (4, 0.3)])
    vals = [ex_engine.norm_ell_m0(x, 2, m0) for m0 in (2, 3, 4, 8, 16)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_norm_70_unit_vectors(seg_engine):
    x = FiniteVector.ones(70)
    value = seg_engine.norm(x)
    assert value >= 1.5 - 1e-12


def test_evaluate_family_examples(ex_engine, seg_engine):
    fam1 = AdmissibleFamily.of([(2, IndexSet.interval(1, 2))])
    assert ex_engine.evaluate_family(E12, fam1) == pytest.approx(1.0, abs=1e-12)
    fam70 = AdmissibleFamily.of(
        [(2, IndexSet.interval(1, 2)), (4, IndexSet.interval(3, 6)),
         (64, IndexSet.interval(7, 70))]
    )
    x70 = FiniteVector.ones(70)
    assert seg_engine.evaluate_family(x70, fam70) == pytest.approx(1.5, abs=1e-12)
    bad = AdmissibleFamily((
        (2, IndexSet.interval(1, 2)), (3, IndexSet.interval(5, 6)),
    ))
    with pytest.raises(FamilyValidationError):
        seg_engine.evaluate_family(x70, bad)


def test_evaluate_family_is_lower_bound(ex_engine, rng):
    for _ in range(25):
        x = random_test_vector(rng, 8)
        idx = x.indices
        cut = max(1, x.support_size // 2)
        pairs = [(2, IndexSet.of(idx[:cut]))]
        if cut < len(idx):
            pairs.append((max(2, 1 << cut), IndexSet.of(idx[cut:])))
        fam = AdmissibleFamily.of(pairs)
        assert ex_engine.evaluate_family(x, fam) <= ex_engine.norm(x) + 1e-12


@pytest.mark.parametrize("mode", [Exhaustive(), SegmentDP()], ids=["exhaustive", "segment"])
def test_evaluate_family_values_empty_pieces_at_zero(mode):
    engine = FamilyEngine(mode)
    x = FiniteVector.from_dense([1.0, 0.5, 0.0, 0.0, 2.0, 0.25, 0.0, 1.5])
    assert engine.triple_norm(FiniteVector.zero(), 2) == 0.0
    assert engine.norm_ell(FiniteVector.zero(), 3) == 0.0
    # {3, 4} and {9, 10} miss the support of x: their pieces are empty
    fam = AdmissibleFamily.of([(2, IndexSet.of([1, 2])), (4, IndexSet.of([3, 4])),
                               (16, IndexSet.of([5, 6, 8])), (256, IndexSet.of([9, 10]))])
    pieces = [(m, x.restrict(E)) for m, E in fam.pairs]
    expected = sum(engine.triple_norm(v, m) for m, v in pieces if v.support_size) / f(4)
    assert engine.evaluate_family(x, fam) == expected


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: SearchMode("dp"), "unknown search mode"),
        (lambda: get_engine().norm_ell_m0(E12, 0, 2), "need ell >= 1"),
        (lambda: get_engine().norm_ell_m0(E12, 1, 1), "need m0 >= 2"),
    ],
    ids=["unknown-mode", "level-0", "first-scale-1"],
)
def test_input_checks_raise(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("call", [evaluate_witness, lambda w, x: witness_to_json(w)],
                         ids=["evaluate", "to-json"])
def test_non_witness_is_refused(call):
    with pytest.raises(TypeError, match="not a witness"):
        call(E12, E12)


def test_support_limit(ex_engine):
    with pytest.raises(SupportLimitError):
        ex_engine.norm(FiniteVector.ones(13))
    eng = FamilyEngine(Exhaustive(max_support=5))
    with pytest.raises(SupportLimitError):
        eng.norm(FiniteVector.ones(6))


# ----------------------------------------------------------------------
# brute-force cross-checks (raw subset enumeration, no reductions)
# ----------------------------------------------------------------------


def test_brute_force_01_vectors(ex_engine, seg_engine):
    for r in range(1, 6):
        for S in combinations(range(1, 8), r):
            x = FiniteVector((i, 1.0) for i in S)
            b = BruteFamilyNorm(x).norm()
            assert ex_engine.norm(x) == pytest.approx(b, abs=1e-11)
            assert seg_engine.norm(x) <= ex_engine.norm(x) + 1e-12


def test_brute_force_random_vectors(ex_engine, rng):
    for _ in range(25):
        x = random_test_vector(rng, 5)
        brute = BruteFamilyNorm(x)
        assert ex_engine.norm(x) == pytest.approx(brute.norm(), abs=1e-11)
        for m in (2, 3):
            assert ex_engine.triple_norm(x, m) == pytest.approx(
                brute.triple_norm(m), abs=1e-11
            )
        for ell in (1, 2, 3):
            assert ex_engine.norm_ell(x, ell) == pytest.approx(
                brute.norm_ell(ell), abs=1e-11
            )


def test_m0_floor_on_constant_patterns(ex_engine, rng):
    # a first-set floor on the packed constant-pattern search, against the
    # raw oracle, and against the subset search on a pattern 1e-12 away from
    # constant (every seminorm here is 1-Lipschitz in l1)
    for n in range(1, 7):
        for x in (FiniteVector.ones(n), piecewise_constant(rng, 2, 3)):
            brute = BruteFamilyNorm(x)
            for ell in (1, 2, 3):
                for m0 in (3, 4, 8):
                    assert ex_engine.norm_ell_m0(x, ell, m0) == pytest.approx(
                        brute.norm_ell_m0(ell, m0), abs=1e-11, rel=1e-11
                    )
    for n in (7, 8, 9):
        x = FiniteVector.ones(n)
        near = FiniteVector.from_dense([1.0] * (n - 1) + [1.0 - 1e-12])
        assert ex_engine.norm(x) == pytest.approx(ex_engine.norm(near), abs=1e-11)
        for ell in (1, 2, 4):
            for m0 in (3, 4, 8):
                assert ex_engine.norm_ell_m0(x, ell, m0) == pytest.approx(
                    ex_engine.norm_ell_m0(near, ell, m0), abs=1e-11
                )


def test_brute_force_m0_floor(ex_engine, rng):
    # the first-scale floor disables the merged-tail shortcut; cross-check
    # against the raw oracle including ties and extreme coefficient scales
    for kind in range(12):
        if kind % 3 == 0:
            x = FiniteVector((i, 1.0) for i in range(1, 2 + kind // 3))
        elif kind % 3 == 1:
            x = random_test_vector(rng, 5)
        else:
            n = int(rng.integers(1, 6))
            idx = 1 + np.sort(rng.choice(20, size=n, replace=False))
            vals = rng.choice([0.001, 1.0, 1000.0], size=n)
            x = FiniteVector(zip((int(i) for i in idx), vals))
        brute = BruteFamilyNorm(x)
        for ell in (1, 2, 4):
            for m0 in (2, 3, 5, 9):
                assert ex_engine.norm_ell_m0(x, ell, m0) == pytest.approx(
                    brute.norm_ell_m0(ell, m0), abs=1e-11, rel=1e-11
                )


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------


def test_sandwich_and_monotonicity(ex_engine, rng):
    for _ in range(40):
        x = random_test_vector(rng, 9)
        v = ex_engine.norm(x)
        assert x.sup_norm - 1e-12 <= v <= x.l1_norm + 1e-12
        shrunk = FiniteVector(
            (i, c * float(rng.uniform(0.1, 1.0))) for i, c in zip(x.indices, x.coefficients)
        )
        assert ex_engine.norm(shrunk) <= v + 1e-12


def test_unconditional_subsymmetric_exact(ex_engine, rng):
    for _ in range(60):
        x = random_test_vector(rng, 9)
        signs = [int(s) for s in rng.choice([-1, 1], size=x.support_size)]
        gaps = np.cumsum(rng.integers(1, 4, size=x.support_size)) + 2
        sigma = dict(zip(x.indices, (int(g) for g in gaps)))
        y = x.flip_signs(signs).spread(sigma)
        assert y.pattern() == x.pattern()
        assert ex_engine.norm(y) == ex_engine.norm(x)


def test_homogeneity_and_triangle(ex_engine, rng):
    for _ in range(30):
        x = random_test_vector(rng, 6)
        y = random_test_vector(rng, 6)
        t = float(rng.uniform(0.2, 3.0))
        assert ex_engine.norm(t * x) == pytest.approx(t * ex_engine.norm(x), rel=1e-9)
        s = x + y
        if s.support_size <= 12:
            assert ex_engine.norm(s) <= ex_engine.norm(x) + ex_engine.norm(y) + 1e-9


@pytest.mark.parametrize("with_witness", [False, True])
@pytest.mark.parametrize("mode", [Exhaustive(), SegmentDP()], ids=["exhaustive", "segment"])
def test_homogeneity_over_double_range(rng, mode, with_witness):
    engine = FamilyEngine(mode)
    size = 8 if mode.kind == "exhaustive" else 16
    vectors = [FiniteVector.ones(5)] + [random_test_vector(rng, size) for _ in range(4)]
    cases = [(x, c) for x in vectors for k in (0, 50, 100, 160, 200, 300)
             for c in (10.0**k, -(10.0**-k))]
    cases.append((FiniteVector.ones(5), 1e308))
    for x, c in cases:
        base = engine.norm(x)
        y = c * x
        got = engine.norm(y, with_witness=with_witness)
        if with_witness:
            got, w = got
            validate_witness(w, y)
            assert w.value == pytest.approx(got, rel=EQ_TOL)
        assert got == pytest.approx(abs(c) * base, rel=EQ_TOL)
    assert engine.norm(1e308 * FiniteVector.ones(5)) == pytest.approx(1.1041e308, rel=1e-4)


def test_power_of_two_scaling_exact_in_both_modes():
    # both modes scale a root by a power of two, which rounds nothing, so they
    # agree bit for bit; dividing by max(p) = 3 instead read 1.4999999999999998
    x = FiniteVector.from_dense([1.0, 2.0, 0.5, 3.0])
    ex, seg = FamilyEngine(Exhaustive()), FamilyEngine(SegmentDP())
    assert ex.norm_ell_m0(x, 3, 2) == seg.norm_ell_m0(x, 3, 2) == 1.5


def test_import_keeps_recursion_limit():
    code = (
        "import sys; before = sys.getrecursionlimit(); import seqnorm, seqnorm.cli; "
        "assert sys.getrecursionlimit() == before, sys.getrecursionlimit(); "
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy loaded'"
    )
    # the child imports the same seqnorm as this process, installed or not
    src = str(Path(seqnorm.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": path})


def test_traced_methods_on_their_own_classes():
    # perfbench/spans.py wraps engine methods through owner.__dict__[attr], so
    # each must be defined on the engine class itself: a method hoisted into
    # run_tables.Engine would make every traced benchmark run (--trace 1) raise
    # KeyError when it installs its wrappers
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    saved = spans.install(spans.Recorder())
    spans.uninstall(saved)
    wrapped = [(owner, attr) for owner, attr, _ in saved if owner in (FamilyEngine, QSumEngine)]
    assert len(wrapped) == 6 and all(attr in vars(owner) for owner, attr in wrapped)


def test_package_quick_tour():
    # the examples of the README's library quick tour
    assert norm_x2(FiniteVector.ones(70), SegmentDP()) == 1.5
    assert norm_ell(FiniteVector.ones(2), 2) == 1 / f(2)
    assert norm_x1(FiniteVector.ones(15), QSumConfig.small()) == pytest.approx(
        15 * QSumConfig.small().q, rel=1e-15
    )


def test_level_dichotomy(ex_engine, rng):
    # whenever the norm beats the sup norm, some level attains it
    found = 0
    for _ in range(60):
        x = random_test_vector(rng, 8)
        v = ex_engine.norm(x)
        if v > x.sup_norm + 1e-9:
            found += 1
            attained = any(
                abs(ex_engine.norm_ell(x, ell) - v) <= 1e-9
                for ell in range(1, x.support_size + 1)
            )
            assert attained
    assert found > 0  # the sample must actually exercise the dichotomy


def test_remark_identity_norm_vs_levels(ex_engine, rng):
    # ||x|| = max(||x||_inf, sup_l ||x||_l), the sup scanned to support size
    for _ in range(20):
        x = random_test_vector(rng, 7)
        v = ex_engine.norm(x)
        best = max(
            ex_engine.norm_ell(x, ell) for ell in range(1, x.support_size + 1)
        )
        assert v == pytest.approx(max(x.sup_norm, best), abs=1e-12)


# ----------------------------------------------------------------------
# modes: ordering and the interior-omission gap
# ----------------------------------------------------------------------


def test_mode_ordering(ex_engine, seg_engine, rng):
    for _ in range(40):
        x = random_test_vector(rng, 10)
        assert seg_engine.norm(x) <= ex_engine.norm(x) + 1e-12


def test_interior_omission_gap_example(ex_engine, seg_engine):
    """Omitting a small interior point from a set can strictly increase the
    family supremum, so the segment search is a strict lower bound on some
    vectors.  Witness: sets {1,3} (skipping the tiny coefficient) keep the
    cardinality budget at 2, admitting scale 4 for the rest."""
    x = FiniteVector(
        [(1, 1.0), (2, 0.01), (3, 1.0), (4, 1.0), (5, 1.0), (6, 1.0)]
    )
    exh = ex_engine.norm(x)
    seg = seg_engine.norm(x)
    brute = BruteFamilyNorm(x).norm()
    assert exh == pytest.approx(brute, abs=1e-11)
    assert exh == pytest.approx((1.0 + 0.75) / f(2), abs=1e-12)
    assert seg == pytest.approx(1.0, abs=1e-12)
    assert exh - seg > 0.1


# ----------------------------------------------------------------------
# witnesses
# ----------------------------------------------------------------------


def test_witness_zero_and_sup(ex_engine):
    v, w = ex_engine.norm(FiniteVector.zero(), with_witness=True)
    assert v == 0.0 and isinstance(w, SupWitness)
    v, w = ex_engine.norm(E12, with_witness=True)
    assert isinstance(w, SupWitness) and w.value == 1.0


def test_witness_family_soundness(ex_engine, seg_engine, rng):
    x70 = FiniteVector.ones(70)
    v, w = seg_engine.norm(x70, with_witness=True)
    assert isinstance(w, FamilyWitness)
    validate_witness(w, x70)
    assert evaluate_witness(w, x70) == pytest.approx(v, abs=1e-12)
    for _ in range(30):
        x = random_test_vector(rng, 9)
        v, w = ex_engine.norm(x, with_witness=True)
        validate_witness(w, x)
        assert evaluate_witness(w, x) == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_witness_constant_and_piecewise_constant(ex_engine, seg_engine, rng):
    # constant patterns take the packed run search in both modes; piecewise
    # constant ones take the ordinary search with constant sub-patterns
    x = 0.7 * FiniteVector.ones(10)
    v, w = ex_engine.norm(x, with_witness=True)
    assert isinstance(w, FamilyWitness)
    validate_witness(w, x)
    assert evaluate_witness(w, x) == pytest.approx(v, rel=EQ_TOL)
    assert v == pytest.approx(seg_engine.norm(x), rel=EQ_TOL)
    for runs in (2, 3, 2, 3, 2, 3):
        for engine, max_len in ((ex_engine, 4), (seg_engine, 8)):
            x = piecewise_constant(rng, runs, max_len)
            v, w = engine.norm(x, with_witness=True)
            validate_witness(w, x)
            assert evaluate_witness(w, x) == pytest.approx(v, rel=EQ_TOL)
            assert w.value == pytest.approx(v, rel=EQ_TOL)


def test_witness_evaluation_matches_restrict_reference(ex_engine, seg_engine, small_engine, rng):
    # index lookups reproduce the restrict-based evaluation bit for bit
    cases = [(ex_engine, 9, 20), (seg_engine, 30, 20), (small_engine, 40, 10)]
    for engine, size, count in cases:
        for _ in range(count):
            x = random_test_vector(rng, size)
            _, w = engine.norm(x, with_witness=True)
            assert evaluate_witness(w, x) == evaluate_witness_restrict(w, x)
            # a vector the witness was not built for reads 0 off its sets
            y = x.restrict(IndexSet.of(x.indices[::2]))
            assert evaluate_witness(w, y) == evaluate_witness_restrict(w, y)


def test_evaluate_witness_rejects_malformed_trees():
    x = FiniteVector.ones(3)
    a, b, c = (IndexSet.of([i]) for i in (1, 2, 3))
    leaf = [(E, SupWitness(1.0, i)) for i, E in enumerate((a, b, c), 1)]
    good = PartitionWitness(1.5, 2, 2.0, (leaf[0], (IndexSet.of([2, 3]), leaf[1][1])))
    assert evaluate_witness(good, x) == 1.0
    malformed = [
        PartitionWitness(1.5, 2, 2.0, tuple(leaf)),  # three pieces, m = 2
        PartitionWitness(1.0, 2, 2.0, (leaf[1], leaf[0])),  # pieces out of order
        FamilyWitness(1.0, ((2, a), (2, b)), (good,)),  # a missing child
        FamilyWitness(1.0, ((2, b), (2, a)), (good, good)),  # not admissible
        PartitionWitness(1.0, 3, 3.0, ((a, FamilyWitness(1.0, ((2, a),), ())),)),  # nested
    ]
    for w in malformed:
        with pytest.raises(ValueError):
            evaluate_witness(w, x)


@pytest.mark.parametrize("forge", [
    lambda m, c: replace(c, divisor=c.divisor / 4),  # would certify 5.1131 for 1.2783
    lambda m, c: replace(c, m=1000),
    lambda m, c: SupWitness(1.0, c.pieces[0][0].min),  # |x_i| undivided by the scale
], ids=["divisor-below-scale", "scale-not-its-pairs", "sup-child"])
def test_witness_rejects_forged_family_child(forge):
    # the exhaustive witness of ones(10), its family children forged
    x = FiniteVector.ones(10)
    w = FamilyEngine(Exhaustive()).norm(x, with_witness=True)[1]
    assert isinstance(w, FamilyWitness) and w.value == pytest.approx(1.2783, abs=1e-4)
    validate_witness(w, x)
    forged = replace(w, children=tuple(forge(m, c) for (m, _), c in zip(w.pairs, w.children)))
    with pytest.raises(ValueError):
        evaluate_witness(forged, x)


def test_witness_rejects_a_piece_from_the_other_space():
    # the segment witness of a 40-point vector (3.528), the first 14-point piece of a
    # family child replaced by that piece's x1 witness: it would validate at 5.3788
    x = FiniteVector.from_dense(np.random.default_rng(0).uniform(0.1, 3.0, 40))
    w = FamilyEngine(SegmentDP()).norm(x, with_witness=True)[1]
    validate_witness(w, x)
    j, child = next((j, c) for j, c in enumerate(w.children) if len(c.pieces[0][0].elems) == 14)
    E = child.pieces[0][0]
    x1_piece = QSumEngine(QSumConfig.custom((2, 3))).norm(x.restrict(E), with_witness=True)[1]
    assert isinstance(x1_piece, QuadraticWitness)
    forged_child = replace(child, pieces=((E, x1_piece), *child.pieces[1:]))
    forged = replace(w, children=(*w.children[:j], forged_child, *w.children[j + 1:]))
    assert evaluate_witness_restrict(forged, x) == pytest.approx(5.3788, abs=1e-4)
    with pytest.raises(ValueError, match="one space"):
        evaluate_witness(forged, x)


@pytest.mark.parametrize("make_engine", [
    lambda: FamilyEngine(SegmentDP()), lambda: QSumEngine(QSumConfig.small()),
], ids=["x2-segment", "x1-small"])
def test_witness_rejects_a_partition_as_a_piece(make_engine):
    # the witness of a 40-point vector (x2 3.528, x1 33.248), the first piece of its
    # first family child or l2sum head certified by a one-point partition divided by
    # 1e-9: valued with its own divisor, it would validate at 7.76e8 and 4.87e8
    x = FiniteVector.from_dense(np.random.default_rng(0).uniform(0.1, 3.0, 40))
    w = make_engine().norm(x, with_witness=True)[1]
    validate_witness(w, x)
    child = w.children[0] if isinstance(w, FamilyWitness) else w.head[0][1]
    E = child.pieces[0][0]
    i = E.min
    v = abs(x.coefficients[x.indices.index(i)])
    forged_piece = PartitionWitness(v, 2, 1e-9, ((IndexSet.of([i]), SupWitness(v, i)),))
    forged_child = replace(child, pieces=((E, forged_piece), *child.pieces[1:]))
    if isinstance(w, FamilyWitness):
        forged = replace(w, children=(forged_child, *w.children[1:]))
    else:
        forged = replace(w, head=((w.head[0][0], forged_child), *w.head[1:]))
    with pytest.raises(ValueError, match="not a piece"):
        validate_witness(replace(forged, value=evaluate_witness(forged, x)), x)


def test_witness_rejects_a_family_inside_an_l2sum():
    # a family node in a head partition piece of a hand-built l2sum tree
    x = FiniteVector.ones(2)
    E = IndexSet.of([1, 2])
    leaves = tuple((IndexSet.of([i]), SupWitness(1.0, i)) for i in (1, 2))
    family = FamilyWitness(1.0, ((2, E),), (PartitionWitness(1.0, 2, 2.0, leaves),))
    assert evaluate_witness(family, x) == 1.0
    head = PartitionWitness(0.5, 3, 2.0, ((E, family),))
    tree = QuadraticWitness(0.5, ((3, head),), 2, 0.0)
    with pytest.raises(ValueError, match="one space"):
        evaluate_witness(tree, x)


@pytest.mark.parametrize("claim", [
    lambda v: float("inf"), lambda v: float("nan"), lambda v: v * (1 + 1e-9),
], ids=["inf", "nan", "above-tolerance"])
def test_witness_rejects_a_claim_it_does_not_reproduce(claim):
    # the segment witness of a 40-point vector, its value replaced by a claim
    # that its re-evaluation does not match
    x = FiniteVector.from_dense(np.random.default_rng(0).uniform(0.1, 3.0, 40))
    w = FamilyEngine(SegmentDP()).norm(x, with_witness=True)[1]
    validate_witness(w, x)
    with pytest.raises(ValueError, match="re-evaluates"):
        validate_witness(replace(w, value=claim(w.value)), x)


def test_witness_families_are_admissible(ex_engine, rng):
    for _ in range(20):
        x = random_test_vector(rng, 9)
        _, w = ex_engine.norm(x, with_witness=True)
        if isinstance(w, FamilyWitness):
            AdmissibleFamily(w.pairs).validate()


# ----------------------------------------------------------------------
# fixed point and level iteration
# ----------------------------------------------------------------------


def test_fixed_point_examples(ex_engine):
    assert ex_engine.fixed_point_residual(E1) == 0.0
    assert ex_engine.fixed_point_residual(E12) <= 1e-12


def test_fixed_point_random(ex_engine, rng):
    for _ in range(25):
        x = random_test_vector(rng, 8)
        assert ex_engine.fixed_point_residual(x) <= 1e-9


def test_iterate_levels_examples(ex_engine, seg_engine):
    assert ex_engine.iterate_levels(E1) == [1.0, 1.0]
    levels = ex_engine.iterate_levels(E12)
    assert levels[0] == 1.0 and levels[-1] == 1.0
    levels70 = seg_engine.iterate_levels(FiniteVector.ones(70))
    assert levels70[0] == 1.0
    diffs = [b - a for a, b in zip(levels70, levels70[1:])]
    assert all(d >= 0 for d in diffs)
    assert any(d > 1e-6 for d in diffs)  # strictly increasing prefix
    assert levels70[-1] >= 1.5 - 1e-12
    assert levels70[-1] == pytest.approx(seg_engine.norm(FiniteVector.ones(70)), abs=1e-12)


def test_iterate_levels_matches_norm(ex_engine, rng):
    for _ in range(15):
        x = random_test_vector(rng, 7)
        levels = ex_engine.iterate_levels(x)
        assert levels[0] == pytest.approx(x.sup_norm, abs=1e-15)
        assert levels[-1] == pytest.approx(ex_engine.norm(x), abs=1e-12)
        assert all(b >= a - 1e-15 for a, b in zip(levels, levels[1:]))
        assert len(levels) <= 10 * x.support_size + 1
        assert levels[-1] <= x.l1_norm + 1e-12


def test_iterate_levels_scale_free(seg_engine):
    # the stopping rule is relative to the largest coefficient
    levels = seg_engine.iterate_levels(FiniteVector.ones(30))
    tiny = seg_engine.iterate_levels(1e-300 * FiniteVector.ones(30))
    assert len(tiny) == len(levels) == 5
    assert tiny == pytest.approx([1e-300 * v for v in levels], rel=EQ_TOL)


def test_iterate_levels_keeps_no_root():
    # the level iteration reads no norm table: a segment engine neither fills
    # nor keeps one, and exhaustive mode still enforces its support limit
    engine = FamilyEngine(SegmentDP())
    assert engine.iterate_levels(FiniteVector.ones(70))[-1] >= 1.5 - 1e-12
    assert engine._last is None
    with pytest.raises(SupportLimitError):
        FamilyEngine(Exhaustive(max_support=5)).iterate_levels(FiniteVector.ones(6))


def test_shared_memo_idempotent(ex_engine):
    # repeated evaluations hit the cache and return identical floats
    x = FiniteVector([(1, 0.3), (2, 1.7), (5, 0.9)])
    first = ex_engine.norm(x)
    for _ in range(3):
        assert ex_engine.norm(x) == first


@pytest.mark.parametrize("mode", [Exhaustive(), SegmentDP()], ids=["exhaustive", "segment"])
def test_search_states_kept_for_last_root_only(rng, mode):
    # the norm memo persists across roots; the family search states do not
    shared = FamilyEngine(mode)
    for _ in range(4):
        x = random_test_vector(rng, 9)
        shared.norm(x)
        fresh = FamilyEngine(mode)
        fresh.norm(x)
        if mode.kind == "exhaustive":
            assert 0 < search_states(shared._last) <= search_states(fresh._last)
        else:  # the states of the root's right end, kept from its own fill
            n = x.support_size
            assert shared._last.p == x.pattern() and shared._last._end[0] == n
            assert np.array_equal(shared._last.ending(n, n), fresh._last.ending(n, n))


def search_states(root):
    """The family search states an exhaustive root keeps: `cover` and `family`."""
    return len(root._cover) + sum(map(len, root._family.values()))


def test_exhaustive_state_bounded_by_one_root():
    # 1,000 distinct roots on one engine: the norm memo is its only engine-wide
    # container, and the partition sums it holds are the last root's
    rng = np.random.default_rng(11)
    roots = {random_test_vector(rng, 5).pattern() for _ in range(1100)}
    roots = [FiniteVector.from_dense(p) for p in sorted(roots, key=lambda p: (len(p), p))[-1000:]]
    assert len(roots) == 1000
    tracemalloc.start()
    try:
        FamilyEngine(Exhaustive()).norm(roots[0])  # one-time allocations outside the engine
        gc.collect()  # a full collection also empties the interpreter's free lists
        base = tracemalloc.get_traced_memory()[0]
        engine = FamilyEngine(Exhaustive())
        for x in roots:
            engine.norm(x)
        root = engine._last
        assert [k for k, v in vars(engine).items() if v and isinstance(v, (dict, tuple))] == ["_norms"]
        assert root.p == roots[-1].pattern() and root._split
        subpatterns = {z for k in range(1, len(root.q) + 1) for z in combinations(root.q, k)}
        # keys J * K + m: sub-pattern J of the root, at most m runs
        assert {root.pattern(key // root.K) for key in root._split} <= subpatterns
        engine._norms.clear()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # one 5-point root's states; with an engine-wide partition-sum memo this read 920 KB
    assert held < 100_000


def test_exhaustive_norm_memo_is_bounded(monkeypatch):
    rng = np.random.default_rng(13)
    roots = [FiniteVector.from_dense(p)
             for p in dict.fromkeys(random_test_vector(rng, 8).pattern() for _ in range(1000))]
    assert len(roots) == 1000
    fresh = FamilyEngine(Exhaustive())
    want = [fresh.norm(x) for x in roots]
    assert len(fresh._norms) > 500
    monkeypatch.setattr(family_engine, "MAX_NORMS", 500)
    engine = FamilyEngine(Exhaustive())
    got, sizes = [], []
    for x in roots:
        got.append(engine.norm(x))
        sizes.append(len(engine._norms))
    assert max(sizes) <= 500 and got == want


def test_shared_engines_are_bounded():
    # each engine keeps a norm memo or its last root's tables, so the shared
    # engines of many limits or configs must not all stay cached
    for k in range(1, 21):
        assert get_engine(Exhaustive(k)).norm(E1) == 1.0
        assert get_qsum_engine(QSumConfig.custom((2, 2 + k))).norm(E1) == 1.0
    assert family_engine._engine.cache_info().currsize <= MAX_ENGINES
    assert qsum_engine._engine.cache_info().currsize <= MAX_ENGINES
    assert get_engine(Exhaustive(20)) is get_engine(Exhaustive(20))


def test_exhaustive_frozen_corpus():
    # written by tests/data/make_x2_exhaustive_corpus.py from a checkout whose search
    # enumerated every first set; any exhaustive search takes its maxima over the same
    # float sums, so the values match bit for bit
    data = json.loads(EXHAUSTIVE_CORPUS.read_text())
    patterns = {tuple(e["pattern"]) for e in data["entries"]}
    rng = np.random.default_rng(20240817 + 1)  # test_c04's vectors
    c04 = {random_test_vector(rng, 10).pattern() for _ in range(200)}
    assert c04 | {(1.0,) * r for r in range(11)} <= patterns

    def values(hexes):
        return [float.fromhex(h) for h in hexes]
    engine = FamilyEngine(Exhaustive())
    for e in data["entries"]:
        x = FiniteVector.from_dense(e["pattern"])
        assert x.pattern() == tuple(e["pattern"])
        value, w = engine.norm(x, with_witness=True)
        validate_witness(w, x)
        assert value == float.fromhex(e["norm"]) and w.value == value
        assert [engine.norm_ell(x, ell) for ell in data["ells"]] == values(e["ell"])
        for m0 in data["m0s"]:
            got = [engine.norm_ell_m0(x, ell, m0) for ell in data["ells"]]
            assert got == values(e["ell_m0"][str(m0)])
        triple = [engine.triple_norm(x, m) for m in range(2, x.support_size + 1)]
        assert triple == values(e["triple"])
        if "levels" in e:
            levels = engine.iterate_levels(x)
            assert [len(levels), levels[-1]] == [e["levels"][0], float.fromhex(e["levels"][1])]


_spec = importlib.util.spec_from_file_location(
    "make_x2_exhaustive_witnesses", EXHAUSTIVE_CORPUS.parent / "make_x2_exhaustive_witnesses.py")
make_x2_exhaustive_witnesses = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_x2_exhaustive_witnesses)


def test_exhaustive_witnesses_match_frozen():
    # written by tests/data/make_x2_exhaustive_witnesses.py from a checkout whose search
    # memoised its states by float pattern: the same witnesses and values, bit for bit
    path = EXHAUSTIVE_CORPUS.parent / "x2_exhaustive_witnesses.json"
    frozen, engine, entries = json.loads(path.read_text()), FamilyEngine(Exhaustive()), []
    for x, e in zip(make_x2_exhaustive_witnesses.roots(), frozen["entries"], strict=True):
        entries.append(make_x2_exhaustive_witnesses.entry(engine, x))
        assert entries[-1] == e, e["coords"]
        w = witness_from_json(json.loads(e["witness"]))
        validate_witness(w, x)
        assert w.value == float.fromhex(e["norm"])
    assert make_x2_exhaustive_witnesses.text(entries) == path.read_text()


def test_witness_after_norm_walks_the_same_memo(monkeypatch):
    # a witness on the root a norm just searched reads that root's states: it adds
    # none, and makes a few calls where the search made thousands
    monkeypatch.setattr(family_engine, "WAVE_MIN_INDICES", 1 << 60)  # the search's memo
    calls = [0]
    for name in ("family", "cover"):
        def counted(self, *args, search=getattr(_Pieces, name)):
            calls[0] += 1
            return search(self, *args)
        monkeypatch.setattr(_Pieces, name, counted)
    rng = np.random.default_rng(29)
    for x in [FiniteVector.from_dense(rng.uniform(0.1, 3.0, 10).tolist()),
              FiniteVector.from_dense([1.0, 1.5, 1.0, 1.5, 1.0, 1.0, 1.5, 1.0, 1.5])]:
        engine = FamilyEngine(Exhaustive())
        value = engine.norm(x)
        root, searched, calls[0] = engine._last, calls[0], 0
        states = search_states(root), len(root._split)
        got, w = engine.norm(x, with_witness=True)
        validate_witness(w, x)
        assert engine._last is root and got == w.value == value
        assert (search_states(root), len(root._split)) == states
        assert 0 < calls[0] <= 40 and searched > 500


def test_partition_sums_past_the_length_are_sums():
    # one `split` key J * K + m per state: a count of at least the points of a sub-pattern
    # (a witness asks floors up to 2**c) reads its sum, never another state's entry
    R = _Pieces(tuple(np.random.default_rng(3).uniform(0.1, 3.0, 7).tolist()), {})
    R.value()
    R.root_best(3)
    for k in range(1, 8):
        for pos in combinations(range(7), k):
            want = sum(R.q[i] for i in pos)
            assert [R.best(pos, m) for m in range(k, 40)] == [want] * (40 - k)


@pytest.mark.parametrize("mode", [Exhaustive(), SegmentDP()], ids=["exhaustive", "segment"])
def test_engine_operations_leave_no_reference_cycles(mode):
    # the per-root states are plain attributes of the root object, so reference
    # counting alone frees every root an engine replaces, and the engine itself
    rng = np.random.default_rng(31)
    xs = [FiniteVector.from_dense(rng.uniform(0.1, 3.0, int(rng.integers(3, 10))).tolist())
          for _ in range(60)]
    gc.collect()
    gc.disable()
    try:
        engine = FamilyEngine(mode)
        for x in xs:
            _, w = engine.norm(x, with_witness=True)
            validate_witness(w, x)
            engine.norm_ell_m0(x, 2, 3)
            engine.triple_norm(x, 3)
            engine.fixed_point_residual(x)
        del engine
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_exhaustive_search_calls_bounded(monkeypatch):
    # a cold 12-point root: one `family` state per subset pattern and one `cover` state
    # per subset and count; a search that enumerates the first sets of every state
    # makes 222,690 `family` calls here
    monkeypatch.setattr(family_engine, "WAVE_MIN_INDICES", 1 << 60)  # the search's calls
    calls = [0]
    for name in ("family", "cover"):
        def counted(self, *args, search=getattr(_Pieces, name)):
            calls[0] += 1
            return search(self, *args)
        monkeypatch.setattr(_Pieces, name, counted)
    x = FiniteVector.from_dense(np.random.default_rng(12).uniform(0.1, 3.0, 12).tolist())
    FamilyEngine(Exhaustive()).norm(x)
    assert 0 < calls[0] <= 100_000


def exhaustive_answers(x):
    """`float.hex` of every exhaustive answer on x, and its witness JSON, on a fresh engine,
    with the kind of root it filled."""
    engine = FamilyEngine(Exhaustive(max_support=16))
    value, w = engine.norm(x, with_witness=True)
    validate_witness(w, x)
    kind = type(engine._last)
    out = [value, *(engine.norm_ell_m0(x, ell, m0) for m0 in (2, 3, 4, 8) for ell in (1, 2, 3, 6)),
           *(engine.triple_norm(x, m) for m in range(2, x.support_size + 2)),
           engine.fixed_point_residual(x), *engine.iterate_levels(x)]
    return [v.hex() for v in out] + [json.dumps(witness_to_json(w))], kind


def wave_roots(group):
    if group == "corpus":
        return [FiniteVector.from_dense(e["pattern"])
                for e in json.loads(EXHAUSTIVE_CORPUS.read_text())["entries"]]
    if group == "witnesses":
        return make_x2_exhaustive_witnesses.roots()
    rng = np.random.default_rng(33)
    return [FiniteVector.from_dense(rng.uniform(0.1, 3.0, n).tolist()) for n in (11, 12, 13)]


@pytest.mark.parametrize("group", ["corpus", "witnesses", "generic"])
def test_wave_fill_matches_the_search(monkeypatch, group):
    # every root on both paths: the same float sums, maxima and first maxima, so the
    # same bits and witnesses
    for x in wave_roots(group):
        monkeypatch.setattr(family_engine, "WAVE_MIN_INDICES", 0)
        waves, kind = exhaustive_answers(x)
        assert kind is family_engine._Waves
        monkeypatch.setattr(family_engine, "WAVE_MIN_INDICES", 1 << 60)
        search, kind = exhaustive_answers(x)
        assert kind is _Pieces and waves == search, x.pattern()


def wave_arrays(root):
    return [root.NV, root.SP, root.COV, root.FAM, *root._ix[:4], *root._ix[4]]


def test_wave_root_is_read_only_after_its_fill(monkeypatch):
    # every later question reads the tables of the root's first fill: none writes them
    x = FiniteVector.from_dense(np.random.default_rng(34).uniform(0.1, 3.0, 12).tolist())
    engine = FamilyEngine(Exhaustive())
    value = engine.norm(x)
    root = engine._last
    assert type(root) is family_engine._Waves and root.size == 4096
    for a in wave_arrays(root):
        a.setflags(write=False)
    got = [engine.triple_norm(x, 7), engine.norm_ell_m0(x, 2, 5), engine.fixed_point_residual(x),
           *engine.iterate_levels(x)]
    v, w = engine.norm(x, with_witness=True)
    validate_witness(w, x)
    assert engine._last is root and v == w.value == value
    monkeypatch.setattr(family_engine, "WAVE_MIN_INDICES", 1 << 60)
    search = FamilyEngine(Exhaustive())
    want = [search.triple_norm(x, 7), search.norm_ell_m0(x, 2, 5), search.fixed_point_residual(x),
            *search.iterate_levels(x)]
    assert got == want and witness_to_json(w) == witness_to_json(search.norm(x, True)[1])


def test_wave_budget_counts_before_it_allocates(monkeypatch):
    # the budget is read from the run lengths: a 40-point root (2**40 sub-patterns) is
    # refused without a table, and a root over a patched budget takes the search
    tracemalloc.start()
    try:
        assert not family_engine._waves_fit(tuple(np.linspace(1.0, 2.0, 40).tolist()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000
    x = FiniteVector.from_dense(np.random.default_rng(35).uniform(0.1, 3.0, 12).tolist())
    assert family_engine._waves_fit(x.pattern())
    monkeypatch.setattr(family_engine, "WAVE_BYTES", 1 << 20)
    monkeypatch.setattr(family_engine._Waves, "_index", None)  # a table would fail to start
    engine = FamilyEngine(Exhaustive())
    value, w = engine.norm(x, with_witness=True)
    assert type(engine._last) is _Pieces and value == w.value


def test_witness_after_norm_on_a_wave_root_searches_nothing(monkeypatch):
    # a witness reads the tables of the norm's fill: no new fill, no memo entry, no
    # recursive search, and a few state reads
    calls = []
    for name in ("family", "cover", "split"):
        monkeypatch.setattr(_Pieces, name, None)  # the search
        def counted(self, *args, read=getattr(family_engine._Waves, name), name=name):
            calls.append(name)
            return read(self, *args)
        monkeypatch.setattr(family_engine._Waves, name, counted)
    rng = np.random.default_rng(29)
    for x in [FiniteVector.from_dense(rng.uniform(0.1, 3.0, 10).tolist()),
              FiniteVector.from_dense([1.0, 1.5, 1.0, 1.5, 1.0, 1.0, 1.5, 1.0, 1.5, 1.0, 1.5])]:
        engine = FamilyEngine(Exhaustive())
        value = engine.norm(x)
        root, memo = engine._last, dict(engine._norms)
        assert type(root) is family_engine._Waves and root.size >= 1024
        for a in wave_arrays(root):
            a.setflags(write=False)
        monkeypatch.setattr(root, "_waves", None)
        calls.clear()
        got, w = engine.norm(x, with_witness=True)
        validate_witness(w, x)
        assert isinstance(w, FamilyWitness) and engine._last is root and got == w.value == value
        assert engine._norms == memo and 0 < len(calls) <= 60


def test_exhaustive_engine_shared_across_threads():
    # four threads share one exhaustive engine over 40 roots: each operation
    # holds its own root object while the others replace the engine's last one
    rng = np.random.default_rng(43)
    xs = [random_test_vector(rng, 9) for _ in range(40)]
    assert len({x.pattern() for x in xs}) == 40

    def run(engine, x):
        v, w = engine.norm(x, with_witness=True)
        validate_witness(w, x)
        return (v, witness_to_json(w), engine.norm_ell_m0(x, 2, 3), engine.triple_norm(x, 3),
                engine.fixed_point_residual(x))

    fresh = [run(FamilyEngine(Exhaustive()), x) for x in xs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside operations
    try:
        for _ in range(3):
            shared = FamilyEngine(Exhaustive())
            with ThreadPoolExecutor(max_workers=4) as pool:
                assert list(pool.map(lambda x: run(shared, x), xs, timeout=120)) == fresh
    finally:
        sys.setswitchinterval(interval)


# the kept seminorm answers (`FamilyEngine._answer`) and the norm memo read first
ANSWER_QUESTIONS = ([("triple_norm", m) for m in (2, 3, 5, 8)]
                    + [("norm_ell", ell) for ell in (1, 2, 3, 4)]
                    + [("norm_ell_m0", ell, m0) for m0 in (2, 4, 8) for ell in (1, 2, 3, 4)])


def answer_key(x, question):
    """The cache key of a question: norm_ell asks norm_ell_m0 at m0 = 2."""
    name, *args = question
    kind = ("triple", args[0]) if name == "triple_norm" else ("ell", args[1] if args[1:] else 2)
    return family_engine._scaled(x.pattern())[0], *kind


def answer_roots(mode):
    """Seeded roots, one pattern beside its power-of-two multiples, 1-2-point
    patterns and coefficients near 1e-310."""
    rng = np.random.default_rng(71)
    size = 7 if mode.kind == "exhaustive" else 12
    roots = [random_test_vector(rng, size) for _ in range(8)]
    x = FiniteVector.from_dense(rng.uniform(0.1, 3.0, size=5).tolist())
    roots += [x, 2.0**-40 * x, 8.0 * x, 2.0**60 * x]
    roots += [FiniteVector.from_dense(rng.uniform(0.1, 3.0, size=n).tolist()) for n in (1, 2, 2)]
    roots += [FiniteVector.from_dense([1e-310, 2.5e-310, 3e-312][:n]) for n in (1, 2, 3)]
    return roots


@pytest.mark.parametrize("mode", [Exhaustive(), SegmentDP()], ids=["exhaustive", "segment"])
def test_kept_answers_are_bit_equal_to_fresh_ones(monkeypatch, mode):
    # each question on a fresh engine, then on one engine whose cache keeps 4 answers:
    # asked twice in a row (a miss, then a hit), then an earlier question of the root
    # again, in two passes, so the second pass asks again after eviction; hits,
    # misses and the order of the kept keys follow a model LRU of 4 keys
    roots = answer_roots(mode)
    fresh = {(i, q): getattr(FamilyEngine(mode), q[0])(x, *q[1:])
             for i, x in enumerate(roots) for q in ANSWER_QUESTIONS}
    roots_asked = [0]

    def counted(self, p, root=FamilyEngine._root):
        roots_asked[0] += 1
        return root(self, p)
    monkeypatch.setattr(FamilyEngine, "_root", counted)
    monkeypatch.setattr(family_engine, "MAX_ANSWERS", 4)
    engine, model, hits = FamilyEngine(mode), OrderedDict(), []
    for order in (range(len(roots)), reversed(range(len(roots)))):
        for i in order:
            for j, q in enumerate(ANSWER_QUESTIONS):
                for q in (q, q, ANSWER_QUESTIONS[j // 2]):
                    key, before = answer_key(roots[i], q), roots_asked[0]
                    got = getattr(engine, q[0])(roots[i], *q[1:])
                    assert float.hex(got) == float.hex(fresh[i, q])
                    hits.append(roots_asked[0] == before)
                    assert hits[-1] == (key in model)
                    model[key] = None
                    model.move_to_end(key)
                    if len(model) > 4:
                        model.popitem(last=False)
                    assert list(engine._answers) == list(model)
    assert 0 < hits.count(False) < len(hits) / 2
    # a power-of-two multiple takes its pattern's kept answer: one root for three
    engine._answers.clear()
    before = roots_asked[0]
    for i in (8, 9, 11):  # x, 2**-40 x, 2**60 x
        assert float.hex(engine.norm_ell(roots[i], 3)) == float.hex(fresh[i, ("norm_ell", 3)])
    assert roots_asked[0] == before + 1


def test_answers_and_state_stay_bounded():
    # 1,000 distinct roots of norm_ell and triple_norm calls on one exhaustive engine:
    # at most MAX_ANSWERS answers, and all the engine keeps, norm memo included, stays
    # under 600 KB (read 354 KB: 2,039 norms, the last root's states, 104 KB of answers)
    rng = np.random.default_rng(13)
    roots = [FiniteVector.from_dense(p)
             for p in dict.fromkeys(random_test_vector(rng, 5).pattern() for _ in range(1100))]
    roots = roots[:1000]
    assert len(roots) == 1000
    tracemalloc.start()
    try:
        FamilyEngine(Exhaustive()).norm_ell(roots[0], 2)  # one-time allocations outside the engine
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        engine = FamilyEngine(Exhaustive())
        for x in roots:
            engine.norm_ell(x, 2)
            engine.triple_norm(x, 3)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(engine._answers) == family_engine.MAX_ANSWERS
    assert held < 600_000
    # a replaced segment root is freed with its family states, which its kept row
    # was read from; the row still answers, with no new root
    engine = FamilyEngine(SegmentDP())
    x, y = roots[-1], roots[-2]
    want = engine.norm_ell(x, 3)
    refs = [weakref.ref(engine._last), weakref.ref(engine._last._end[2])]  # states of end n
    engine.triple_norm(y, 2)
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    last = engine._last
    assert engine.norm_ell(x, 3) == want and engine._last is last


@pytest.mark.parametrize("mode", [Exhaustive(), SegmentDP()], ids=["exhaustive", "segment"])
def test_answer_cache_shared_across_threads(monkeypatch, mode):
    # four threads ask interleaved, repeated questions of one engine whose cache keeps
    # 3 answers, so their inserts evict keys the others are about to read
    roots = answer_roots(mode)[:10]
    asks = [(i, q) for i in range(len(roots)) for q in ANSWER_QUESTIONS[::3]] * 2
    want = {(i, q): getattr(FamilyEngine(mode), q[0])(roots[i], *q[1:]) for i, q in asks}
    monkeypatch.setattr(family_engine, "MAX_ANSWERS", 3)
    shared = FamilyEngine(mode)

    def run(seed):
        order = list(asks)
        np.random.default_rng(seed).shuffle(order)
        return [(i, q, getattr(shared, q[0])(roots[i], *q[1:])) for i, q in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside cache steps
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [f.result(timeout=120) for f in [pool.submit(run, s) for s in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert [float.hex(v) for _, _, v in got] == [float.hex(want[i, q]) for i, q, _ in got]
    assert len(shared._answers) <= 3


def test_answer_cache_tolerates_keys_gone_meanwhile(monkeypatch):
    # what another thread can do between two cache steps: evict the key just read,
    # or empty the cache before this insert evicts
    class EvictedAfterRead(OrderedDict):
        def get(self, key, default=None):
            hit = super().get(key, default)
            self.pop(key, None)
            return hit

    class EmptiedBeforeEviction(OrderedDict):
        def popitem(self, last=True):
            self.clear()
            return super().popitem(last)

    x = FiniteVector.from_dense([1.0, 0.4, 0.7])
    want = [FamilyEngine(Exhaustive()).norm_ell(x, 2), FamilyEngine(Exhaustive()).triple_norm(x, 2)]
    monkeypatch.setattr(family_engine, "MAX_ANSWERS", 1)
    for cache in (EvictedAfterRead, EmptiedBeforeEviction):
        engine = FamilyEngine(Exhaustive())
        engine._answers = cache()
        got = [engine.norm_ell(x, 2), engine.norm_ell(x, 2), engine.triple_norm(x, 2)]
        assert got == [want[0], want[0], want[1]]


def test_exhaustive_norm_reads_the_memo_before_building_a_root():
    # a pattern the norm memo holds (or one of 1-2 points) is answered without a root:
    # the engine's last root stays, and the value is the root's bit for bit
    def root_value(p):
        R = _Pieces(p, {})
        return unscale(R.value(), R.exp)

    rng = np.random.default_rng(17)
    engine = FamilyEngine(Exhaustive())
    tiny = FiniteVector.from_dense([1e-310, 2.5e-310, 3e-312, 7e-311])
    checked = 0
    for x in [tiny] + [random_test_vector(rng, 9) for _ in range(30)]:
        engine.norm(x)
        # the root itself, its power-of-two multiples, and those restrictions the search
        # valued on the root's scale (one with the root's largest coefficient)
        parts = [x.restrict(IndexSet.of(E)) for k in range(1, x.support_size)
                 for E in combinations(x.indices, k)]
        kept = [x, 2.0**-70 * x, 4.0 * x] + [
            y for y in parts if family_engine._scaled(y.pattern())[0] in engine._norms]
        for y in kept:
            p, last = y.pattern(), engine._last
            assert float.hex(engine.norm(y)) == float.hex(root_value(p))
            assert engine._last is last
            checked += 1
    assert checked > 300
    for p in [(0.3,), (2.0, 0.7), (1e-310, 3e-312)]:  # the closed form builds no root either
        engine = FamilyEngine(Exhaustive())
        assert engine.norm(FiniteVector.from_dense(p)) == root_value(p) and engine._last is None
    with pytest.raises(SupportLimitError):  # the limit still holds below 3 points
        FamilyEngine(Exhaustive(max_support=1)).norm(E12)


def test_dropped_engine_freed_without_gc(rng):
    # nothing the engine holds points back at it, so reference counting
    # alone frees it and its memos
    x = random_test_vector(rng, 12)
    gc.disable()
    try:
        for with_witness in (False, True):
            engine = FamilyEngine(SegmentDP())
            engine.norm(x, with_witness=with_witness)
            ref = weakref.ref(engine)
            del engine
            assert ref() is None
    finally:
        gc.enable()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(0.01, 10.0).map(lambda c: round(c, 4)),
        min_size=1,
        max_size=6,
    )
)
def test_norm_properties_hypothesis(coeffs):
    engine = get_engine(Exhaustive())
    x = FiniteVector.from_dense(coeffs)
    v = engine.norm(x)
    assert max(coeffs) - 1e-12 <= v <= sum(coeffs) + 1e-12
    # restriction monotonicity: dropping the last point cannot increase it
    if len(coeffs) > 1:
        assert engine.norm(FiniteVector.from_dense(coeffs[:-1])) <= v + 1e-12
    # two-fold scaling is exact in floats
    assert engine.norm(2.0 * x) == 2.0 * v
