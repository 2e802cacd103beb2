import dataclasses
import math

import pytest

from seqnorm.admissible import AdmissibleFamily
from seqnorm.blocks import AssembledAverage, BlockBasis, assemble_lp_average
from seqnorm.constructions import build_average
from seqnorm.core import FiniteVector, IndexSet, f
from seqnorm.inequalities import (
    AverageConstantError,
    dilution_constant,
    peak_index,
    strict_drop_check,
    verify_average_bounds,
    verify_chain_stacks,
    verify_offpeak_sum,
    verify_rapid_averages,
    verify_stack_seminorm,
)


@pytest.fixture(scope="module")
def half_pair(ex_engine):
    pair = BlockBasis((FiniteVector.basis(1), FiniteVector.basis(2)))
    return assemble_lp_average(pair, 1, ex_engine)


def test_dilution_constant():
    assert dilution_constant(1.0) == 8.0
    assert dilution_constant(2.0) == pytest.approx(4 / (1 - 2**-0.5), abs=1e-12)


def test_average_bounds_examples(ex_engine, half_pair):
    rep = verify_average_bounds(half_pair, 2, 2, ex_engine)
    tn_bound, level_bound = rep.items
    assert tn_bound.lhs == pytest.approx(0.5, abs=1e-12)
    assert tn_bound.rhs == pytest.approx(2.5, abs=1e-12)
    assert tn_bound.margin == pytest.approx(2.0, abs=1e-12)
    assert level_bound.lhs == pytest.approx(0.5 / f(2), abs=1e-12)
    assert level_bound.rhs == pytest.approx((8 + 4 * 0.5) / f(2), abs=1e-12)
    assert rep.ok


def test_average_bounds_p2_single(ex_engine):
    avg = build_average(2.0, 1, ex_engine)
    rep = verify_average_bounds(avg, 3, 1, ex_engine)
    a = rep.items[0]
    assert a.lhs == pytest.approx(1 / 3, abs=1e-12)
    assert a.rhs == pytest.approx(4 * 3**-0.5 + 1, abs=1e-12)
    assert rep.ok


def test_average_bounds_rejects_large_constant(ex_engine, half_pair):
    fat = dataclasses.replace(half_pair, p=1, constant=3.0, sampled_lower=3.0, exact=False)
    with pytest.raises(AverageConstantError):
        verify_average_bounds(fat, 2, 2, ex_engine)


def test_offpeak_example(ex_engine, half_pair):
    fam = AdmissibleFamily.of([(2, IndexSet.of([1])), (2, IndexSet.of([2]))])
    rep = verify_offpeak_sum([half_pair], [1.0], fam, ex_engine)
    b = rep.items[0]
    margin = b.margin
    assert peak_index(fam, 2, 1.0) == 2
    assert b.lhs == pytest.approx(0.25, abs=1e-12)
    assert b.rhs == pytest.approx(12 * 2**-0.5, abs=1e-12)
    assert margin > 0


def test_offpeak_degenerate_tail(ex_engine, half_pair):
    fam = AdmissibleFamily.of([(2, IndexSet.of([1, 2]))])
    rep = verify_offpeak_sum([half_pair], [0.5], fam, ex_engine)
    margin = rep.items[0].margin
    assert rep.items[0].lhs == 0.0  # only the peak set exists
    assert margin > 0


def test_stack_seminorm_example(ex_engine, half_pair):
    rep = verify_stack_seminorm([half_pair], [1.0], 2, ex_engine)
    b = rep.items[0]
    margin = b.margin
    assert b.lhs == pytest.approx(0.5 / f(2), abs=1e-12)
    assert b.rhs == pytest.approx((0.5 + 12 / math.sqrt(2)) / f(2), abs=1e-12)
    assert margin > 0


def test_stack_seminorm_zero_coefficients(ex_engine, half_pair):
    rep = verify_stack_seminorm([half_pair], [0.0], 3, ex_engine)
    margin = rep.items[0].margin
    assert rep.items[0].lhs == 0.0
    assert margin > 0


def test_strict_drop_literal_implication(ex_engine, half_pair):
    chk = strict_drop_check([half_pair], [1.0], 2, ex_engine)
    assert not chk.premise_holds  # k0 = 2 makes the premise far from true
    assert chk.ok
    # large ell with k0 = 2: premise still fails (12*2/sqrt(2) is huge)
    chk = strict_drop_check([half_pair], [1.0], 64, ex_engine)
    assert chk.ok
    # a zero combination has no level norm to drop: the conclusion holds vacuously
    chk = strict_drop_check([half_pair], [0.0], 2, ex_engine)
    assert chk.conclusion_holds and chk.ok


# ----------------------------------------------------------------------
# conditional verifiers
# ----------------------------------------------------------------------


def test_rapid_averages_desk_premises_unmet(ex_engine):
    a1 = build_average(1.0, 2, ex_engine, start=1)
    a2 = build_average(1.0, 2, ex_engine, start=10)
    rep = verify_rapid_averages([a1, a2], 0.25, [1, 2, 4], ex_engine)
    assert not rep.premises_hold
    assert rep.ok  # nothing asserted, so nothing fails
    growth = next(p for p in rep.items if p.instance == "premise growth_threshold")
    assert growth.premise_status == "UNMET"
    assert "log2(k1) >=" in growth.note
    # the required size is astronomically large (beyond 2^100)
    required = float(growth.note.split(">=")[1].split("(")[0])
    assert required > 100
    assert all(not b.asserted for b in rep.items)
    bounds = [b for b in rep.items if not b.instance.startswith("premise ")]
    assert len(bounds) == 4  # three levels plus the norm bound


def test_rapid_averages_relaxed_reports_margins(ex_engine):
    a1 = build_average(1.0, 2, ex_engine, start=1)
    a2 = build_average(1.0, 2, ex_engine, start=10)
    rep = verify_rapid_averages([a1, a2], 0.25, [1, 2], ex_engine, relaxed=True)
    assert any("relaxed" in n for n in rep.notes)
    assert all(not b.asserted for b in rep.items)
    assert all(math.isfinite(b.margin) for b in rep.items)


def test_rapid_averages_trivial_single(ex_engine):
    # one average: the large-level bound degenerates to
    # ||y||_ell <= 2 eps + ||y_1||_ell, which holds with margin 2 eps
    avg = build_average(2.0, 1, ex_engine)
    rep = verify_rapid_averages([avg], 0.25, [4], ex_engine)
    big = next(b for b in rep.items if b.instance.startswith("large_level"))
    assert big.margin == pytest.approx(0.5, abs=1e-12)


def test_rapid_averages_small_level_bound():
    # one l1 average of k1 = 576 singletons at eps = 1/4: the small-level
    # threshold eps k1^(1/2) / 6n is exactly 1, so level 1 takes the
    # (||y|| + eps) / f(ell) bound and level 2 the large-level one
    class Stub:
        def norm(self, x):
            return 0.75

        def norm_ell(self, x, ell):
            return 0.5 / ell

    blocks = BlockBasis(tuple(FiniteVector.basis(i) for i in range(1, 577)))
    avg = AssembledAverage(blocks.combine([1.0 / 576] * 576), blocks, 1.0, 1.0, 1.0, True)
    rep = verify_rapid_averages([avg], 0.25, [1, 2], Stub())
    small = next(b for b in rep.items if b.instance == "small_level_bound[ell=1]")
    assert (small.lhs, small.rhs) == (0.5, (0.75 + 0.25) / f(1))
    large = next(b for b in rep.items if b.instance == "large_level_bound[ell=2]")
    assert large.rhs == 2 * 0.25 + 0.25


def test_chain_stacks_single_stack_base_case(ex_engine):
    a1 = build_average(1.0, 2, ex_engine, start=1)
    a2 = build_average(1.0, 2, ex_engine, start=10)
    rep = verify_chain_stacks([[a1, a2]], eps=0.5, delta=0.2, ells=[1, 2], engine=ex_engine)
    assert not rep.premises_hold  # growth thresholds fail at desk scale
    assert rep.ok
    assert any("delta < eps/2" in n for n in rep.notes)
    weak = [b for b in rep.items if "weak" in b.instance]
    assert all(b.rhs == pytest.approx(1.5, abs=1e-12) for b in weak)


def test_chain_stacks_two_stacks_formula_branches(ex_engine):
    stacks = []
    start = 1
    for _ in range(2):
        stack = [build_average(1.0, 2, ex_engine, start=start)]
        start = stack[0].vector.indices[-1] + 1
        stacks.append(stack)
    rep = verify_chain_stacks(stacks, eps=0.5, delta=0.2, ells=[1, 3], engine=ex_engine)
    # ell = 1: f(1) = 1 so the cap is (1+eps) * m / f(m/1)
    b1 = next(b for b in rep.items if b.instance == "level_bound[ell=1]")
    assert b1.rhs == pytest.approx(1.5 * max(1.0, 2 / (f(1) * f(2))), abs=1e-12)
    # ell >= m: min(ell, m) = m, so the inner factor is f(1) = 1
    b3 = next(b for b in rep.items if b.instance == "level_bound[ell=3]")
    assert b3.rhs == pytest.approx(1.5 * max(1.0, 2 / (f(3) * 1.0)), abs=1e-12)
    assert rep.ok


def test_chain_stacks_rejects_p2(ex_engine):
    avg = build_average(2.0, 2, ex_engine)
    with pytest.raises(ValueError, match="l_1"):
        verify_chain_stacks([[avg]], eps=0.5, delta=0.2, ells=[1], engine=ex_engine)


@pytest.mark.parametrize(
    "call",
    [
        lambda a, eng: verify_chain_stacks([], eps=0.5, delta=0.2, ells=[1], engine=eng),
        lambda a, eng: verify_chain_stacks([[a], []], eps=0.5, delta=0.2, ells=[1], engine=eng),
        lambda a, eng: verify_rapid_averages([], 0.25, [1], eng),
        lambda a, eng: verify_offpeak_sum([], [], AdmissibleFamily.of([(2, IndexSet.of([1]))]), eng),
        lambda a, eng: verify_stack_seminorm([], [], 1, eng),
        lambda a, eng: strict_drop_check([], [], 1, eng),
    ],
    ids=["chain-none", "chain-empty-stack", "rapid", "offpeak", "stack", "drop"],
)
def test_empty_run_rejected(ex_engine, half_pair, call):
    # an empty run of averages is named as such, not met by an IndexError or
    # by a message about something else
    with pytest.raises(ValueError, match="run of averages is empty"):
        call(half_pair, ex_engine)
