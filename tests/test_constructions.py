import importlib.util
import json
import math
import time
from pathlib import Path

import pytest

from seqnorm.constructions import (
    BudgetExceededError,
    GridParams,
    LocalizedParams,
    build_chain,
    build_localized_vector,
    build_matrix_grid,
    equal_split_check,
    faithful_localization_scales,
    grid_requirements,
    plan_chain,
)
from seqnorm.core import FiniteVector, f


# ----------------------------------------------------------------------
# chains
# ----------------------------------------------------------------------


def test_plan_chain_sizes():
    assert plan_chain(1).sizes == (2,)
    assert plan_chain(2).sizes == (2, 4)
    assert plan_chain(3).sizes == (2, 4, 64)
    assert plan_chain(3).min_support == 70
    p4 = plan_chain(4)
    assert p4.sizes == (2, 4, 64, 1 << 70)
    assert p4.min_support == 70 + (1 << 70)
    p5 = plan_chain(5)
    assert p5.min_support is None
    assert "2**" in p5.min_support_desc


def test_build_chain_certificates(seg_engine):
    c1 = build_chain(1, 100, seg_engine)
    assert c1.value == pytest.approx(1.0, abs=1e-12) and c1.bound == 1.0
    c2 = build_chain(2, 100, seg_engine)
    assert c2.value >= 2 / f(2) - 1e-9
    assert c2.value == pytest.approx(2 / f(2), abs=1e-12)
    c3 = build_chain(3, 100, seg_engine)
    assert c3.value >= 1.5 - 1e-9
    assert c3.bound == pytest.approx(1.5, abs=1e-15)
    # certificate is a genuine lower bound for the norm
    x = FiniteVector.ones(70)
    assert c3.value <= seg_engine.norm(x) + 1e-12
    # blocks are honest sup-norm averages; their norms are reported
    assert c3.block_norms[0] == 1.0 and c3.block_norms[1] == 1.0
    assert c3.block_norms[2] > 1.0


def test_budget_above_ceiling_refused_before_building(seg_engine, no_large_builds):
    with pytest.raises(ValueError, match="ceiling"):
        build_chain(4, 10**30, seg_engine)
    with pytest.raises(ValueError, match="ceiling"):
        LocalizedParams(L0=2, eps=0.25, L1=4, L1_prime=16, budget=100_000)
    with pytest.raises(ValueError, match="ceiling"):
        GridParams(n=60, eps=0.25, k0=2, budget=100_000)
    # the ceiling itself, 1,000 points, is accepted
    LocalizedParams(L0=2, eps=0.25, L1=4, L1_prime=16, budget=1000)
    GridParams(n=60, eps=0.25, k0=2, budget=1000)


def test_grid_rejects_non_finite_eps():
    for eps in (math.inf, math.nan):
        with pytest.raises(ValueError, match="eps"):
            GridParams(n=2, eps=eps)


def test_build_chain_budget(seg_engine):
    with pytest.raises(BudgetExceededError) as exc:
        build_chain(4, 100, seg_engine)
    assert exc.value.min_support == 70 + (1 << 70)
    with pytest.raises(BudgetExceededError) as exc:
        build_chain(5, 100, seg_engine)
    assert exc.value.min_support is None


# ----------------------------------------------------------------------
# localized vectors
# ----------------------------------------------------------------------


def test_faithful_scales_are_out_of_reach():
    L1, log2_L1p = faithful_localization_scales(2, 0.25)
    assert L1 is not None and L1 > 10
    assert log2_L1p > 60  # the upper scale is astronomically large


def _first_faithful_scan(L0, eps, scan_cap):
    for cand in range(L0 + 1, scan_cap):
        if f(cand) / f(cand / L0) <= 1.0 + eps and f(cand) / cand < eps / 2.0:
            return cand
    return None


@pytest.mark.parametrize("L0", [1, 2, 3, 5, 16])
def test_faithful_scale_bisection_equals_scan(L0):
    # the bisection returns the first L1 of a linear scan, found or not below the cap
    for eps in (0.9, 0.5, 0.25, 0.15, 0.1, 0.05, 1e-3, 1e-300):
        assert faithful_localization_scales(L0, eps, 6000)[0] == _first_faithful_scan(L0, eps, 6000)
    assert faithful_localization_scales(2, 0.25)[0] == _first_faithful_scan(2, 0.25, 1 << 22) == 44


def test_no_faithful_scale_found_quickly():
    t0 = time.perf_counter()
    assert faithful_localization_scales(2, 1e-300) == (None, None)
    assert time.perf_counter() - t0 < 0.05


def test_localized_relaxed_build(seg_engine):
    params = LocalizedParams(L0=2, eps=0.25, m0=2, L1=3, L1_prime=16,
                             budget=100)
    res = build_localized_vector(params, seg_engine)
    assert res.stack_sizes == (2, 4, 64)
    assert seg_engine.norm(res.x) == pytest.approx(1.0, abs=1e-9)
    # the witness family certifies the mid-level value from below
    assert res.witness_value <= seg_engine.norm_ell_m0(res.x, 3, 2) + 1e-12
    mid = next(b for b in res.report.items if b.instance == "mid_level_lower")
    assert mid.margin >= -1e-9  # holds at this scale even though unasserted
    lows = [b for b in res.report.items if b.instance.startswith("low_level")]
    assert len(lows) == 2 and all(b.margin >= -1e-9 for b in lows)
    highs = [b for b in res.report.items if b.instance.startswith("high_level")]
    assert highs and all(not b.asserted for b in highs)
    assert res.ok  # no asserted failures in relaxed mode


def test_localized_respects_m0(seg_engine):
    params = LocalizedParams(L0=1, eps=0.25, m0=4, L1=2, L1_prime=12,
                             budget=64)
    res = build_localized_vector(params, seg_engine)
    assert res.stack_sizes[0] == 4  # first stack carries the m0 floor
    assert res.witness_family.pairs[0][0] >= 4
    validate = res.witness_family.validate()  # admissible by construction
    assert validate is None


def test_localized_budget_capping_recorded(seg_engine):
    params = LocalizedParams(L0=2, eps=0.25, m0=2, L1=4, L1_prime=20,
                             budget=100)
    res = build_localized_vector(params, seg_engine)
    grow = next(p for p in res.report.items if p.instance == "premise exact_stack_growth")
    assert grow.premise_status == "UNMET"
    assert any("capped" in n for n in res.report.notes)


# ----------------------------------------------------------------------
# the grid
# ----------------------------------------------------------------------


def test_grid_requirements_magnitudes():
    req = grid_requirements(2, 0.5)
    assert req["log2_k0"] > 48  # the stated infeasibility scale
    assert req["log2_L0_prime"] > req["log2_k0"]


def test_grid_single_cell_reduces_to_average(seg_engine):
    res = build_matrix_grid(GridParams(n=1, eps=0.5, k0=1, budget=100, samples=3),
                            seg_engine)
    # one cell: the ratio report compares ||a x(1,1)|| with |a|
    assert res.worst_lower_ratio == pytest.approx(res.worst_upper_ratio, abs=1e-12)
    assert res.worst_upper_ratio == pytest.approx(
        seg_engine.norm(res.cells[(1, 1)]), abs=1e-9
    )
    assert res.ok
    # a single cell concatenates with nothing, so no start scale is waived
    starts = next(b for b in res.report.items if b.instance == "premise cell_start_scales")
    assert starts.premise_status == "met" and starts.rhs == 0.0


def test_grid_two_by_two(seg_engine):
    res = build_matrix_grid(GridParams(n=2, eps=0.5, k0=2, budget=400, samples=3),
                            seg_engine)
    assert len(res.cells) == 4
    assert res.ok  # relaxed: diagnostics only
    assert 0 < res.worst_lower_ratio <= res.worst_upper_ratio
    names = {b.instance for b in res.report.items}
    assert "column_lower_bound[j=1]" in names and "equivalence_upper" in names
    assert not any(b.asserted for b in res.report.items)
    # faithful premises are reported as unmet
    assert not res.report.premises_hold
    # every cell but the first opens below scale 2**consumed: n * n * k0 - 1
    starts = next(b for b in res.report.items if b.instance == "premise cell_start_scales")
    assert starts.premise_status == "UNMET" and starts.rhs == 7.0


@pytest.mark.parametrize("n, k0", [(1, 3), (2, 1), (3, 2)])
def test_grid_cells_are_runs_of_one_chain_norm(seg_engine, n, k0):
    class Counting:
        calls = 0

        def norm(self, x):
            Counting.calls += 1
            return seg_engine.norm(x)

        def evaluate_family(self, x, fam):
            return seg_engine.evaluate_family(x, fam)

    samples = 2
    res = build_matrix_grid(GridParams(n=n, eps=0.5, k0=k0, budget=400, samples=samples),
                            Counting())
    # one norm for the chain, then one per sampled matrix: I, ones, n columns
    assert Counting.calls == 1 + (2 + n + samples)
    coef = (1.0 / k0) * ((1.0 / seg_engine.norm((f(2) / 2) * FiniteVector.ones(6))) * (f(2) / 2))
    for (i, j), cell in res.cells.items():
        assert cell == coef * FiniteVector.ones(6 * k0, 1 + ((i - 1) * n + j - 1) * 6 * k0)


def test_grid_budget(seg_engine):
    with pytest.raises(BudgetExceededError):
        build_matrix_grid(GridParams(n=3, eps=0.5, k0=4, budget=50), seg_engine)


# ----------------------------------------------------------------------
# the equal-split maximization fact
# ----------------------------------------------------------------------


def test_equal_split_examples():
    # center beats the integer endpoint split for (2, 4)
    margin = equal_split_check(2, 4.0, resolution=4001)
    center = 4 / f(2)
    assert center > 1 + 3 / f(3) - 1e-12  # endpoint value 2.5
    assert margin <= 1e-9
    assert equal_split_check(2, 2.0) == 0.0
    assert equal_split_check(3, 9.0, resolution=4000) <= 1e-9
    with pytest.raises(ValueError):
        equal_split_check(1, 5.0)
    with pytest.raises(ValueError):
        equal_split_check(3, 2.0)


@pytest.mark.parametrize("ell, m", [(3, 9.0), (4, 10.0), (5, 7.5), (7, 100.0)])
def test_equal_split_scans_vertices_and_edge_midpoints(ell, m):
    # with no random samples, the scan is the vertices and the cyclic edge
    # midpoints of the shifted simplex {a_i >= 1, sum a_i = m}
    def g(a):
        return sum(t / f(t) for t in a)

    vertex = g([1.0 + (m - ell)] + [1.0] * (ell - 1))
    midpoint = g([1.0 + (m - ell) / 2.0] * 2 + [1.0] * (ell - 2))
    center = ell * (m / ell) / f(m / ell)
    assert equal_split_check(ell, m, resolution=0) == pytest.approx(
        max(vertex, midpoint) - center, rel=1e-12, abs=1e-12)


def test_equal_split_grid():
    for ell in (2, 3, 4):
        for m in range(ell, 21, 3):
            assert equal_split_check(ell, float(m), resolution=2000) <= 1e-9


# ----------------------------------------------------------------------
# frozen construct outputs
# ----------------------------------------------------------------------

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location("make_construct_reports",
                                               DATA / "make_construct_reports.py")
make_construct_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_construct_reports)
CONSTRUCT_REPORTS = json.loads((DATA / "construct_reports.json").read_text())["entries"]


def same_bits(got, want) -> bool:
    """Equal JSON trees: keys, strings, ints and bools exactly, floats to the bit."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same_bits(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same_bits(g, w) for g, w in zip(got, want)))
    if isinstance(want, float):
        return isinstance(got, float) and got.hex() == want.hex()
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("what", ["chain", "localized", "grid"])
def test_construct_reports_match_frozen(what):
    # written by tests/data/make_construct_reports.py: exit code, report and
    # artifact hashes of every construct call it lists
    entries = [e for e in CONSTRUCT_REPORTS if e["args"][0] == what]
    assert [e["args"] for e in entries] == [
        a for a in make_construct_reports.cases() if a[0] == what]
    for e in entries:
        assert same_bits(make_construct_reports.run(e["args"]), e), e["args"]
