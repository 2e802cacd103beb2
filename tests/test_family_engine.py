import gc
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
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
from seqnorm import QSumConfig, family_engine, norm_ell, norm_x1, norm_x2
from seqnorm.admissible import AdmissibleFamily, FamilyValidationError
from seqnorm.core import EQ_TOL, FiniteVector, IndexSet, f
from seqnorm.family_engine import (
    Exhaustive, FamilyEngine, SegmentDP, SupportLimitError, _Pieces, get_engine,
)
from seqnorm.qsum_engine import QSumEngine
from seqnorm.witness import (
    FamilyWitness, PartitionWitness, SupWitness, evaluate_witness, validate_witness,
    witness_to_json,
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
            assert 0 < len(shared._last._family) <= len(fresh._last._family)
        else:  # the states of the root's right end, kept from its own fill
            n = x.support_size
            assert shared._last.p == x.pattern() and shared._last._end[0] == n
            assert np.array_equal(shared._last.ending(n, n), fresh._last.ending(n, n))


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
        assert {p for p, _ in root._split} <= subpatterns
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


def test_exhaustive_search_calls_bounded(monkeypatch):
    # a cold 12-point root: one `family` state per subset pattern and one `cover` state
    # per subset and count; a search that enumerates the first sets of every state
    # makes 222,690 `family` calls here
    calls = [0]
    for name in ("family", "cover"):
        def counted(self, *args, search=getattr(_Pieces, name)):
            calls[0] += 1
            return search(self, *args)
        monkeypatch.setattr(_Pieces, name, counted)
    x = FiniteVector.from_dense(np.random.default_rng(12).uniform(0.1, 3.0, 12).tolist())
    FamilyEngine(Exhaustive()).norm(x)
    assert 0 < calls[0] <= 100_000


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
